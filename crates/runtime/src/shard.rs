//! Worker shards: the shared-nothing evaluation loop.
//!
//! Each shard is one OS thread owning one engine per **group of identical
//! registrations** — a [`PartitionedEngine`] over the shard's key subset for
//! hash-routed queries, a plain [`Engine`] on the query's home shard
//! otherwise — and one [`SharedPredIndex`] every engine subscribes to.
//!
//! Two registrations are identical when their definitions are equal
//! (structurally equal compiled parts and an equal route; a cheap hash
//! buckets the comparison): they would run the same engine over the same
//! rows, so the shard runs it once ([`Hosted`]). An unshared query is a
//! group of one. Sharing is unobservable per subscriber:
//! - **Emission order.** Slots are walked in ascending order; a group's
//!   engine runs at its first member and every later member appends a copy
//!   of its packed matches under its own slot, so each slot's matches and
//!   every `seq` are those of separate engines.
//! - **Split on divergence.** A member whose row selection of a batch
//!   differs from its group's (a pause) leaves before the batch, with a
//!   private engine copied from the group's state through the checkpoint's
//!   write/restore pair (onto the same event handles); it never rejoins. A
//!   dropped member just leaves; the engine goes with its last member. A
//!   query added by [`crate::Runtime::create`] starts later than any group,
//!   so it always runs alone.
//! - **Accounting.** Each member's `EngineMetrics` is a copy of its
//!   engine's, and its per-query instruments are the engine's cells
//!   registered under its label too (`zstream_obs` share/fork), so its
//!   series read what its own engine would record; a leaving member's
//!   series continue on private copies. `zstream_shard_engines` counts the
//!   physical engines.
//! - **Checkpoints.** A group's engine is written once per member slot; the
//!   blob's event dictionary makes that byte-identical to separate engines.
//!   A restore re-groups unpaused slots with equal definitions whose
//!   restored engines serialize to the same bytes.
//!
//! Shards receive columnar
//! [`ShardMsg::Columns`] messages (a shared `Arc`'d batch plus per-query row
//! selections — the zero-copy fan-out) over a **bounded** channel (the
//! backpressure point: a slow shard blocks the router instead of buffering
//! unboundedly), evaluate, and reply with matches plus the batch watermark
//! on the shared reply channel.
//!
//! Matches cross the reply channel **packed** ([`PackedMatches`]): the
//! engines' [`MatchBatch`]es of one message appended into one, plus
//! parallel query and `seq` columns. The shard never builds a `Record`:
//! the control thread builds each match once, as it accepts the reply
//! ([`PackedMatches::into_matches`]), and is also the thread that later
//! frees it — so the shard pays no allocation and no refcount traffic per
//! match, and the two threads do not contend on the source batches'
//! refcounts.
//!
//! The finality invariant the merger relies on: a traffic message forces an
//! evaluation round in every engine that received events, so once the shard
//! echoes watermark `w`, every match it later produces ends at or after
//! `w`. (A home-shard engine the predicate index shows cannot admit a row of
//! the batch is not entered at all — [`Engine::skip_unadmitted`] books the
//! idle round it would have run, which produces nothing.) Idle shards
//! receive no per-chunk messages; the router sends them periodic
//! [`ShardMsg::Heartbeat`]s instead, which they echo without evaluating
//! (sound: a shard that received no events since its last round can only
//! produce future matches from future events, whose timestamps are at or
//! past the heartbeat watermark).
//!
//! A panicking engine does not wedge the pool: evaluation runs under
//! `catch_unwind`, and on panic the shard reports a final
//! [`ShardReply::Done`] (its metrics up to the failure) and exits — the
//! runtime then treats it as having left the pool. Shutdown is a terminal
//! [`ShardMsg::Shutdown`] message — channel FIFO order guarantees all
//! in-flight batches are drained first — answered by a final flush (an
//! idle round per engine: every traffic message already ran its round), a
//! [`ShardReply::Done`] with per-query metrics, and thread exit.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;

use zstream_core::{
    CoreError, Engine, EngineMetrics, EngineObs, PartitionedEngine, SharedPredIndex,
};
use zstream_events::{
    EventBatch, MatchBatch, Snapshot, SnapshotError, SnapshotReader, SnapshotResult,
    SnapshotWriter, Ts,
};
use zstream_obs::Obs;

use crate::error::RuntimeError;
use crate::instruments::{elapsed_ns, ShardInstruments};
use crate::merge::RuntimeMatch;
use crate::registry::{QueryDef, QueryId, QueryState, Route};

/// One query's share of a routed columnar batch.
pub(crate) enum RowSel {
    /// No rows of this batch route here for this query.
    Skip,
    /// Every row (single-home queries: the home shard sees the whole
    /// stream).
    All,
    /// Exactly these rows (ascending indices into the batch) — the hash
    /// route's per-shard selection vector. `Arc`'d so several queries
    /// hash-routed on the same field share one vector per shard.
    Rows(std::sync::Arc<Vec<u32>>),
}

/// Control-to-shard messages.
pub(crate) enum ShardMsg {
    /// One routed **columnar** batch: shared storage (an `Arc` bump per
    /// shard, never a copy) plus, per registered query, the selection of
    /// rows this shard owns.
    Columns { watermark: Ts, batch: EventBatch, per_query: Vec<RowSel> },
    /// Watermark-only message for idle shards: echo it so the merge
    /// frontier advances; no evaluation.
    Heartbeat { watermark: Ts },
    /// Failure injection (test/chaos hook): behave exactly as if an engine
    /// panicked — report a terminal [`ShardReply::Done`] and exit.
    Fail,
    /// Serialize every slot's engine state (a shared engine once per
    /// member) and reply with [`ShardReply::Snapshot`]. Channel FIFO order
    /// is the quiesce protocol: every batch sent before this message has
    /// been evaluated (and its `Output` sent) by the time the snapshot reply
    /// is produced, so the blob captures a consistent point in the shard's
    /// sub-stream.
    Snapshot,
    /// Instantiate an engine for a freshly created query
    /// ([`crate::Runtime::create`]) in registry slot `slot` — always a
    /// private one, never shared with an existing group. Channel FIFO is
    /// the quiesce protocol here too: the new engine exists strictly after
    /// every batch dispatched before the create, and the router only
    /// selects rows for the slot in batches dispatched after it — so the
    /// query sees exactly the post-create suffix of the stream.
    Create { slot: usize, def: Arc<QueryDef> },
    /// Remove registry slot `slot` from its engine's group, tearing the
    /// engine down with its last member ([`crate::Runtime::drop_query`]);
    /// answered with [`ShardReply::Retired`] carrying the engine's final
    /// metrics. Batches
    /// queued ahead of this message still evaluate the query (FIFO); the
    /// control thread discards their matches for tombstoned slots.
    DropQuery { slot: usize },
    /// Flush every engine, report metrics, and exit.
    Shutdown,
}

/// One reply's matches, packed: match `i` of `matches` was produced by
/// query `query[i]` as the shard's `seq[i]`-th match. In `(end_ts, seq)`
/// order once sealed.
#[derive(Default)]
pub(crate) struct PackedMatches {
    matches: MatchBatch,
    query: Vec<QueryId>,
    seq: Vec<u64>,
}

impl PackedMatches {
    /// Appends one query's matches, in emission order.
    pub(crate) fn push(&mut self, query: usize, matches: MatchBatch) {
        if matches.is_empty() {
            return;
        }
        self.query.extend(std::iter::repeat_n(QueryId(query), matches.len()));
        self.matches.append(matches);
    }

    /// Appends a copy of one query's matches — a shared engine's output,
    /// under a later subscriber's slot.
    pub(crate) fn push_copy(&mut self, query: usize, matches: &MatchBatch) {
        if matches.is_empty() {
            return;
        }
        self.query.extend(std::iter::repeat_n(QueryId(query), matches.len()));
        self.matches.extend_from(matches);
    }

    /// Numbers the matches from `*seq` in emission order and stable-sorts
    /// them by end timestamp — one `(end_ts, seq)`-ordered run the merger
    /// appends without looking inside. One query's engine emits in end
    /// order already, and the sort is then a single verifying pass.
    pub(crate) fn seal(&mut self, seq: &mut u64) {
        debug_assert_eq!(self.query.len(), self.matches.len());
        let first = *seq;
        *seq += self.matches.len() as u64;
        match self.matches.sort_by_end() {
            None => self.seq = (first..*seq).collect(),
            Some(order) => {
                self.seq = order.iter().map(|&i| first + u64::from(i)).collect();
                let emitted = std::mem::take(&mut self.query);
                // zlint::allow(panic, "`order` permutes 0..matches.len() and query.len() == matches.len() (debug-asserted above): a mismatch must fail loudly, not misattribute matches")
                self.query = order.iter().map(|&i| emitted[i as usize]).collect();
            }
        }
    }

    /// Builds the matches of queries `is_live` accepts, each exactly once,
    /// in run order — on the control thread, as it accepts the reply.
    /// Matches of other (dropped) queries are skipped unbuilt.
    pub(crate) fn into_matches(
        self,
        shard: usize,
        is_live: impl Fn(QueryId) -> bool,
    ) -> Vec<RuntimeMatch> {
        let PackedMatches { matches, query, seq } = self;
        let mut built = Vec::with_capacity(matches.len());
        built.extend(
            query.into_iter().zip(seq).enumerate().filter(|(_, (query, _))| is_live(*query)).map(
                |(i, (query, seq))| RuntimeMatch { query, shard, seq, record: matches.record(i) },
            ),
        );
        built
    }
}

/// Shard-to-control replies.
pub(crate) enum ShardReply {
    /// Matches produced by one batch, packed and sealed in `(end_ts, seq)`
    /// order, plus the watermark the shard has now fully processed.
    Output { shard: usize, watermark: Ts, matches: PackedMatches },
    /// Terminal reply: per-query metrics, in registration order. Sent on
    /// shutdown — or prematurely after a worker-side failure, in which case
    /// the shard has left the pool.
    Done { shard: usize, metrics: Vec<EngineMetrics> },
    /// Answer to [`ShardMsg::Snapshot`]: the shard's emission sequence
    /// counter plus a self-contained engine-state blob (serialized on the
    /// shard thread, so the control thread never touches engine state).
    Snapshot { shard: usize, seq: u64, bytes: Vec<u8> },
    /// Answer to [`ShardMsg::DropQuery`]: the dropped engine's final
    /// metrics for slot `slot`, folded into the registry's accounting so a
    /// dropped query's work is reported exactly like a live one's.
    Retired { shard: usize, slot: usize, metrics: EngineMetrics },
}

/// One group's evaluation state on one shard.
pub(crate) enum ShardEngine {
    /// Hash-routed query: per-key engines over this shard's key subset.
    Partitioned(Box<PartitionedEngine>),
    /// Home-shard query: the whole (query-relevant) stream, one engine
    /// (boxed: the engine carries intake scratch bitmaps and is much larger
    /// than the partitioned wrapper).
    Flat(Box<Engine>),
}

impl ShardEngine {
    fn push(
        &mut self,
        batch: &EventBatch,
        rows: Option<&[u32]>,
        index: &mut SharedPredIndex,
    ) -> MatchBatch {
        match self {
            ShardEngine::Partitioned(e) => e.push_rows(batch, rows, index),
            ShardEngine::Flat(e) => e.push_rows(batch, rows, index),
        }
    }

    /// The end-of-stream round: idle, since every traffic message ran its
    /// own round.
    fn flush(&mut self) {
        let out = match self {
            ShardEngine::Partitioned(e) => e.flush(),
            ShardEngine::Flat(e) => e.flush(),
        };
        debug_assert!(out.is_empty(), "a flush round is idle");
    }

    fn metrics(&self) -> EngineMetrics {
        match self {
            ShardEngine::Partitioned(e) => e.metrics(),
            ShardEngine::Flat(e) => e.metrics(),
        }
    }

    /// Subscribes the engine to the shard's predicate index (from the
    /// predicates it compiled at construction) and attaches `obs`.
    fn attach(&mut self, obs: EngineObs, index: &mut SharedPredIndex) {
        match self {
            ShardEngine::Partitioned(e) => e.subscribe(index),
            ShardEngine::Flat(e) => e.subscribe(index),
        }
        self.set_obs(obs);
    }

    fn set_obs(&mut self, obs: EngineObs) {
        match self {
            ShardEngine::Partitioned(e) => e.set_obs(obs),
            ShardEngine::Flat(e) => e.set_obs(obs),
        }
    }

    /// Appends the engine's kind tag (1 = flat, 2 = partitioned; 0 is "not
    /// hosted") and its [`Snapshot`] stream — one slot's entry of a shard
    /// blob, read back by [`restore_engine`].
    fn write_tagged(&self, w: &mut SnapshotWriter) {
        match self {
            ShardEngine::Flat(e) => {
                w.u8(1);
                e.write_snapshot(w);
            }
            ShardEngine::Partitioned(e) => {
                w.u8(2);
                e.write_snapshot(w);
            }
        }
    }

    /// The engine's state alone, serialized into a fresh writer: equal
    /// bytes mean equal state.
    fn state_bytes(&self) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        self.write_tagged(&mut w);
        w.into_bytes()
    }
}

/// A fresh engine for `def` on this shard — `None` for a single-shard query
/// homed elsewhere.
fn new_engine(def: &QueryDef, shard: usize) -> Result<Option<ShardEngine>, CoreError> {
    Ok(match &def.route {
        Route::Hash(field) => {
            Some(ShardEngine::Partitioned(Box::new(def.parts.partitioned_engine(field)?)))
        }
        Route::Single(home) if *home == shard => {
            Some(ShardEngine::Flat(Box::new(def.parts.engine()?)))
        }
        Route::Single(_) => None,
    })
}

/// Reads slot `slot`'s engine from a [`Hosted::snapshot`] blob, checking it
/// against the routing the restoring configuration resolved: an engine kind
/// that disagrees with the route (different queries, a different worker
/// count reassigning home shards) is rejected as corrupt.
fn restore_engine(
    r: &mut SnapshotReader<'_>,
    def: Option<&QueryDef>,
    slot: usize,
    shard: usize,
) -> SnapshotResult<Option<ShardEngine>> {
    Ok(match (def, r.u8()?) {
        // A tombstoned slot serializes as "not hosted" on every shard.
        (None, 0) => None,
        (None, tag) => {
            return Err(SnapshotError::Corrupt(format!(
                "shard {shard} query {slot}: engine kind {tag} on a dropped query"
            )));
        }
        (Some(def), tag) => match (&def.route, tag) {
            (Route::Hash(field), 2) => Some(ShardEngine::Partitioned(Box::new(
                def.parts.restore_partitioned_engine(field, r)?,
            ))),
            (Route::Single(home), 1) if *home == shard => {
                Some(ShardEngine::Flat(Box::new(def.parts.restore_engine(r)?)))
            }
            (Route::Single(home), 0) if *home != shard => None,
            (route, tag) => {
                return Err(SnapshotError::Corrupt(format!(
                    "shard {shard} query {slot}: engine kind {tag} does not match route {route:?}"
                )));
            }
        },
    })
}

/// The stable per-query label (`q0`, `q1`, …) every scrape and the
/// decision log use.
fn label(slot: usize) -> String {
    format!("q{slot}")
}

/// A cheap pre-bucket for [`QueryDef`] equality: equal definitions share a
/// key, so the structural comparison only runs within a bucket.
fn bucket_key(def: &QueryDef) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    let aq = def.parts.analyzed();
    (&def.route, aq.window, &def.parts.intake).hash(&mut h);
    aq.classes.iter().for_each(|c| c.name.hash(&mut h));
    aq.multi_preds.iter().for_each(|p| p.expr.hash(&mut h));
    h.finish()
}

/// Whether two subscribers receive the same rows of a batch.
fn same_rows(a: &RowSel, b: &RowSel) -> bool {
    let idle = |sel: &RowSel| match sel {
        RowSel::Skip => true,
        RowSel::All => false,
        RowSel::Rows(rows) => rows.is_empty(),
    };
    match (a, b) {
        (RowSel::All, RowSel::All) => true,
        (RowSel::Rows(a), RowSel::Rows(b)) => Arc::ptr_eq(a, b) || a == b,
        (a, b) => idle(a) && idle(b),
    }
}

/// A group that may take more members at build or restore: its index and,
/// when restoring, its engine's state bytes.
type OpenGroup = (usize, Option<Vec<u8>>);

/// One physical engine and the registry slots it serves: a group of
/// identical registrations (an unshared query is a group of one).
struct Group {
    engine: ShardEngine,
    /// The definition of every member (the members' definitions are equal).
    def: Arc<QueryDef>,
    /// The slots the engine serves, ascending. Never empty.
    members: Vec<usize>,
    /// The engine's instruments: registered under the first member's
    /// label, shared under every other member's ([`EngineObs::share`]).
    obs: EngineObs,
}

/// A shard's engines: one per group of identical registrations. Each
/// member reads its group's engine — matches, metrics, instruments,
/// checkpoint state — exactly as it would read an engine of its own.
pub(crate) struct Hosted {
    shard: usize,
    hub: Arc<Obs>,
    /// Physical engines; `None` once a group's last member has left.
    groups: Vec<Option<Group>>,
    /// Per registry slot, the group serving it here (`None` for
    /// tombstones and for single-shard queries homed elsewhere).
    slot_group: Vec<Option<usize>>,
}

impl Hosted {
    /// Physical engines this shard runs.
    fn num_engines(&self) -> usize {
        self.groups.iter().flatten().count()
    }

    /// Hosts `engine` for `slot` alone, with fresh instruments registered
    /// in the hub (cells private to the shard thread). Observability
    /// deliberately starts from zero after a restore (see the checkpoint
    /// module docs).
    fn add_private(
        &mut self,
        mut engine: ShardEngine,
        def: Arc<QueryDef>,
        slot: usize,
        index: &mut SharedPredIndex,
    ) -> usize {
        let trace = Some(self.hub.trace.clone());
        let obs = EngineObs::register(&self.hub, &label(slot), Some(self.shard as u32), trace);
        engine.attach(obs.clone(), index);
        self.host(slot, Group { engine, def, members: vec![slot], obs })
    }

    fn host(&mut self, slot: usize, group: Group) -> usize {
        let g = self.groups.len();
        self.groups.push(Some(group));
        self.serve(slot, g);
        g
    }

    /// Records that group `g` serves `slot` (a slot the table already
    /// covers: it is sized at build and grown by `Create`).
    fn serve(&mut self, slot: usize, g: usize) {
        if let Some(served) = self.slot_group.get_mut(slot) {
            *served = Some(g);
        }
    }

    fn group(&self, g: usize) -> Option<&Group> {
        self.groups.get(g).and_then(Option::as_ref)
    }

    /// The group serving `slot` here.
    fn group_of(&self, slot: usize) -> Option<&Group> {
        self.slot_group.get(slot).copied().flatten().and_then(|g| self.group(g))
    }

    /// Adds `slot` to group `g`, whose engine now also serves it (the
    /// caller re-attaches the group's instruments to its engine).
    fn join(&mut self, g: usize, slot: usize) {
        if let Some(group) = self.groups.get_mut(g).and_then(Option::as_mut) {
            group.obs.share(&self.hub, &label(slot));
            group.members.push(slot);
            self.serve(slot, g);
        }
    }

    /// The open group among `candidates` with definition `def` and, when
    /// restoring, engine state `bytes`.
    fn find(
        &self,
        candidates: Option<&Vec<OpenGroup>>,
        def: &QueryDef,
        bytes: Option<&Vec<u8>>,
    ) -> Option<usize> {
        let same = |(g, b): &&OpenGroup| {
            b.as_ref() == bytes && self.group(*g).is_some_and(|group| *group.def == *def)
        };
        candidates?.iter().find(same).map(|(g, _)| *g)
    }

    /// Removes `slot` from its group and returns the metrics it leaves
    /// with: its series move to private copies of the group's cells
    /// ([`EngineObs::fork`]), returned for the caller to keep recording
    /// into (or to drop, freezing them); the group's engine is dropped
    /// with its last member.
    fn leave(&mut self, slot: usize) -> Option<(EngineMetrics, EngineObs, usize)> {
        let g = self.slot_group.get_mut(slot).and_then(Option::take)?;
        let entry = self.groups.get_mut(g)?;
        let group = entry.as_mut()?;
        let metrics = group.engine.metrics();
        group.members.retain(|&m| m != slot);
        let obs = group.obs.fork(&self.hub, &label(slot));
        if group.members.is_empty() {
            *entry = None;
        } else {
            group.engine.set_obs(group.obs.clone());
        }
        Some((metrics, obs, g))
    }

    /// Gives `slot` a private engine copied from its group's current state
    /// (through the checkpoint's own write/restore pair, restoring to the
    /// group's event handles, so a later checkpoint dedups the copy's
    /// events as it would separate engines'), with its instruments
    /// continuing from the group's values. The copy never rejoins a group.
    fn split(&mut self, slot: usize, index: &mut SharedPredIndex) -> SnapshotResult<()> {
        let Some((_, obs, g)) = self.leave(slot) else { return Ok(()) };
        let Some(group) = self.group(g) else { return Ok(()) };
        let mut w = SnapshotWriter::keeping_events();
        group.engine.write_tagged(&mut w);
        let ((bytes, events), def) = (w.into_parts(), Arc::clone(&group.def));
        let mut r = SnapshotReader::sharing(&bytes, events);
        if let Some(mut engine) = restore_engine(&mut r, Some(&def), slot, self.shard)? {
            engine.attach(obs.clone(), index);
            self.host(slot, Group { engine, def, members: vec![slot], obs });
        }
        Ok(())
    }

    /// Splits off every member whose selection of this batch differs from
    /// its group's: the group keeps the selection most of its members have
    /// (ties to the lowest slot's), so a paused or otherwise diverging
    /// subscriber leaves before the batch changes the group's state.
    fn split_diverging(
        &mut self,
        per_query: &[RowSel],
        index: &mut SharedPredIndex,
    ) -> SnapshotResult<()> {
        let sel = |slot: usize| per_query.get(slot).unwrap_or(&RowSel::Skip);
        let mut diverging = Vec::new();
        for group in self.groups.iter().flatten() {
            let Some((&first, rest)) = group.members.split_first() else { continue };
            let first = sel(first);
            if rest.iter().all(|&m| same_rows(sel(m), first)) {
                continue;
            }
            let votes =
                |s: &RowSel| group.members.iter().filter(|&&m| same_rows(sel(m), s)).count();
            let mut keep = first;
            for &m in rest {
                if votes(sel(m)) > votes(keep) {
                    keep = sel(m);
                }
            }
            diverging.extend(group.members.iter().filter(|&&m| !same_rows(sel(m), keep)));
        }
        diverging.into_iter().try_for_each(|slot| self.split(slot, index))
    }

    /// Evaluates one routed batch: slots in ascending order, each group's
    /// engine run once, at its first member, and its matches copied under
    /// every later member's slot — so the emission order, and with it every
    /// `seq`, is the one separate engines would produce. Returns the packed
    /// matches and how many engines the predicate index let the shard skip.
    fn eval(
        &mut self,
        batch: &EventBatch,
        per_query: &[RowSel],
        index: &mut SharedPredIndex,
    ) -> SnapshotResult<(PackedMatches, u64)> {
        self.split_diverging(per_query, index)?;
        let mut matches = PackedMatches::default();
        let mut skipped = 0u64;
        // Per group, the matches of this batch, kept for later members.
        let mut kept: Vec<MatchBatch> = Vec::new();
        for (q, sel) in per_query.iter().enumerate() {
            let Some(g) = self.slot_group.get(q).copied().flatten() else { continue };
            let Some(group) = self.groups.get_mut(g).and_then(Option::as_mut) else { continue };
            let rows = match sel {
                RowSel::Skip => continue,
                RowSel::All => None,
                RowSel::Rows(rows) if rows.is_empty() => continue,
                RowSel::Rows(rows) => Some(rows.as_slice()),
            };
            if group.members.first() != Some(&q) {
                // Every member has the first one's rows (see
                // `split_diverging`), so the first one ran this batch.
                if let Some(out) = kept.get(g) {
                    matches.push_copy(q, out);
                }
                continue;
            }
            // A home-shard engine none of whose class masks has a row in
            // this batch is settled in O(1), not entered.
            let skip = match &mut group.engine {
                ShardEngine::Flat(flat) => rows.is_none() && flat.skip_unadmitted(batch, index),
                ShardEngine::Partitioned(_) => false,
            };
            let out = if skip {
                skipped += 1;
                MatchBatch::new()
            } else {
                group.engine.push(batch, rows, index)
            };
            if group.members.len() == 1 {
                matches.push(q, out);
            } else {
                matches.push_copy(q, &out);
                if kept.len() <= g {
                    kept.resize_with(g + 1, MatchBatch::new);
                }
                if let Some(slot) = kept.get_mut(g) {
                    *slot = out;
                }
            }
        }
        Ok((matches, skipped))
    }

    /// Per registry slot, the metrics of the engine serving it.
    fn metrics(&self) -> Vec<EngineMetrics> {
        (0..self.slot_group.len())
            .map(|slot| self.group_of(slot).map(|g| g.engine.metrics()).unwrap_or_default())
            .collect()
    }

    /// Serializes the shard's engine states into one self-contained blob:
    /// per registry slot a presence/kind tag (0 = not hosted here, 1 =
    /// flat, 2 = partitioned) followed by the engine's [`Snapshot`] stream.
    /// A group's engine is written once for each of its members; the
    /// writer's event dictionary makes that byte-identical to separate
    /// engines in the same state. The blob carries its own
    /// symbol/schema/event dictionaries, so shards serialize concurrently
    /// without sharing writer state.
    fn snapshot(&self) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        w.len(self.slot_group.len());
        for slot in 0..self.slot_group.len() {
            match self.group_of(slot) {
                Some(group) => group.engine.write_tagged(&mut w),
                None => w.u8(0),
            }
        }
        w.into_bytes()
    }
}

/// Instantiates this shard's engines — fresh, or from `blob` when the shard
/// is restored — and the shard's predicate index with every engine
/// subscribed to it. Live registry slots whose queries can route events
/// here (not tombstones, not single-shard queries homed elsewhere) share
/// one engine when their definitions are equal and they are unpaused; a
/// restored slot joins a group only if its restored engine also serializes
/// to the same bytes as the group's.
pub(crate) fn shard_engines(
    queries: &[QueryState],
    shard: usize,
    blob: Option<&[u8]>,
    hub: &Arc<Obs>,
) -> Result<(Hosted, SharedPredIndex), RuntimeError> {
    let mut blob = blob.map(SnapshotReader::new);
    if let Some(r) = &mut blob {
        let n = r.len()?;
        if n != queries.len() {
            return Err(SnapshotError::Corrupt(format!(
                "shard {shard} blob has {n} engines, registry has {}",
                queries.len()
            ))
            .into());
        }
    }
    let mut index = SharedPredIndex::new();
    let mut hosted =
        Hosted { shard, hub: Arc::clone(hub), groups: Vec::new(), slot_group: Vec::new() };
    hosted.slot_group.resize(queries.len(), None);
    let restoring = blob.is_some();
    // Groups open to more members, by definition bucket.
    let mut open: HashMap<u64, Vec<OpenGroup>> = HashMap::new();
    for (slot, state) in queries.iter().enumerate() {
        let def = state.def.as_ref();
        // Only live, unpaused slots share an engine.
        let key = def.filter(|_| !state.paused).map(|def| bucket_key(def));
        if let (false, Some(def), Some(key)) = (restoring, def, key) {
            // Fresh state: equal definitions suffice, and a joining member
            // builds no engine.
            if let Some(g) = hosted.find(open.get(&key), def, None) {
                hosted.join(g, slot);
                continue;
            }
        }
        let engine = match (&mut blob, def) {
            (Some(r), def) => restore_engine(r, def.map(|d| &**d), slot, shard)?,
            (None, Some(def)) => new_engine(def, shard)?,
            (None, None) => None,
        };
        let (Some(engine), Some(def)) = (engine, def) else { continue };
        let bytes = (restoring && key.is_some()).then(|| engine.state_bytes());
        if restoring {
            if let Some(g) = key.and_then(|key| hosted.find(open.get(&key), def, bytes.as_ref())) {
                hosted.join(g, slot);
                continue;
            }
        }
        let g = hosted.add_private(engine, Arc::clone(def), slot, &mut index);
        if let Some(key) = key {
            open.entry(key).or_default().push((g, bytes));
        }
    }
    // The engines trace under every member's label.
    for group in hosted.groups.iter_mut().flatten().filter(|g| g.members.len() > 1) {
        group.engine.set_obs(group.obs.clone());
    }
    if let Some(r) = blob.filter(|r| !r.is_exhausted()) {
        return Err(SnapshotError::Corrupt(format!(
            "shard {shard} blob has {} trailing bytes",
            r.remaining()
        ))
        .into());
    }
    Ok((hosted, index))
}

/// Reports the shard's terminal [`ShardReply::Done`] with per-query
/// metrics (the normal shutdown reply, or the premature one after a
/// worker-side failure).
fn send_done(hosted: &Hosted, tx: &Sender<ShardReply>) {
    let _ = tx.send(ShardReply::Done { shard: hosted.shard, metrics: hosted.metrics() });
}

/// The shard thread body. Exits when told to shut down, when either channel
/// disconnects (the runtime was dropped), or after a worker-side failure
/// (engine panic or injected [`ShardMsg::Fail`]) — the latter after
/// reporting a premature [`ShardReply::Done`].
pub(crate) fn run_shard(
    mut hosted: Hosted,
    mut index: SharedPredIndex,
    rx: Receiver<ShardMsg>,
    tx: Sender<ShardReply>,
    initial_seq: u64,
    inst: ShardInstruments,
) {
    let shard = hosted.shard;
    let mut seq = initial_seq;
    inst.class_masks.set(index.num_masks() as u64);
    inst.engines.set(hosted.num_engines() as u64);
    while let Ok(msg) = rx.recv() {
        match msg {
            ShardMsg::Columns { watermark, batch, per_query } => {
                // Evaluation runs under catch_unwind: a panicking engine
                // (or a failed split) takes the worker-failure path. One
                // generation of the index per batch: the first subscriber
                // to need a class mask evaluates it, every later one
                // reuses it. Everything up to, but not including, the
                // reply send is timed into the service-time histogram.
                let start = std::time::Instant::now();
                let run = catch_unwind(AssertUnwindSafe(|| {
                    index.begin_batch();
                    hosted.eval(&batch, &per_query, &mut index)
                }));
                let Ok(Ok((mut matches, skipped))) = run else {
                    send_done(&hosted, &tx);
                    return;
                };
                matches.seal(&mut seq);
                inst.engines_skipped.add(skipped);
                inst.engines.set(hosted.num_engines() as u64);
                inst.service_ns.observe(elapsed_ns(start));
                if tx.send(ShardReply::Output { shard, watermark, matches }).is_err() {
                    return;
                }
            }
            ShardMsg::Heartbeat { watermark } => {
                let matches = PackedMatches::default();
                if tx.send(ShardReply::Output { shard, watermark, matches }).is_err() {
                    return;
                }
            }
            ShardMsg::Fail => {
                send_done(&hosted, &tx);
                return;
            }
            ShardMsg::Create { slot, def } => {
                if hosted.slot_group.len() <= slot {
                    hosted.slot_group.resize(slot + 1, None);
                }
                // A created query starts later than any existing group's
                // state, so it always runs on an engine of its own.
                // Instantiation failure degrades exactly like an engine
                // panic: this shard leaves the pool rather than silently
                // running without the query (the control thread validated
                // the compiled parts, so this is a can't-happen guard).
                match new_engine(&def, shard) {
                    Ok(engine) => {
                        if let Some(engine) = engine {
                            hosted.add_private(engine, def, slot, &mut index);
                        }
                        inst.class_masks.set(index.num_masks() as u64);
                        inst.engines.set(hosted.num_engines() as u64);
                    }
                    Err(_) => {
                        send_done(&hosted, &tx);
                        return;
                    }
                }
            }
            ShardMsg::DropQuery { slot } => {
                // The index deliberately keeps the dropped query's slots and
                // class masks: other subscribers may share them, and
                // unshared ones are lazy — never evaluated again. The
                // query's series freeze at their values (the returned
                // instruments are dropped).
                if let Some((metrics, _, _)) = hosted.leave(slot) {
                    inst.engines.set(hosted.num_engines() as u64);
                    if tx.send(ShardReply::Retired { shard, slot, metrics }).is_err() {
                        return;
                    }
                }
            }
            ShardMsg::Snapshot => {
                // Serialization runs under catch_unwind like evaluation: a
                // panicking engine must degrade to the worker-failure path,
                // not leave the checkpoint protocol waiting forever.
                match catch_unwind(AssertUnwindSafe(|| hosted.snapshot())) {
                    Ok(bytes) => {
                        if tx.send(ShardReply::Snapshot { shard, seq, bytes }).is_err() {
                            return;
                        }
                    }
                    Err(_) => {
                        send_done(&hosted, &tx);
                        return;
                    }
                }
            }
            ShardMsg::Shutdown => {
                // Books each engine's idle end-of-stream round — once per
                // physical engine, which every member reads; there is no
                // output to reply with, and `Done` ends the shard's stream
                // in the merger. A panic here still reports `Done`.
                let _ = catch_unwind(AssertUnwindSafe(|| {
                    hosted.groups.iter_mut().flatten().for_each(|g| g.engine.flush())
                }));
                send_done(&hosted, &tx);
                return;
            }
        }
    }
}
