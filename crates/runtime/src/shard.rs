//! Worker shards: the shared-nothing evaluation loop.
//!
//! Each shard is one OS thread owning one engine per registered query —
//! a [`PartitionedEngine`] over the shard's key subset for hash-routed
//! queries, a plain [`Engine`] on the query's home shard otherwise. Shards
//! receive columnar [`ShardMsg::Columns`] messages (a shared `Arc`'d batch
//! plus per-query row selections — the zero-copy fan-out) or record-path
//! [`ShardMsg::Batch`] messages over a **bounded** channel (the backpressure
//! point: a slow shard blocks the router instead of buffering unboundedly),
//! evaluate, and reply with matches plus the batch watermark on the shared
//! reply channel.
//!
//! The finality invariant the merger relies on: a traffic message forces an
//! evaluation round in every engine that received events, so once the shard
//! echoes watermark `w`, every match it later produces ends at or after
//! `w`. (A home-shard engine the shared predicate index shows cannot admit
//! a row of the batch is not entered at all — [`Engine::skip_unadmitted`]
//! books the idle round it would have run, which produces nothing.) Idle shards receive no per-chunk messages; the router sends them
//! periodic [`ShardMsg::Heartbeat`]s instead, which they echo without
//! evaluating (sound: a shard that received no events since its last round
//! can only produce future matches from future events, whose timestamps are
//! at or past the heartbeat watermark).
//!
//! A panicking engine does not wedge the pool: evaluation runs under
//! `catch_unwind`, and on panic the shard reports a final
//! [`ShardReply::Done`] (its metrics up to the failure) and exits — the
//! runtime then treats it as having left the pool. Shutdown is a terminal
//! [`ShardMsg::Shutdown`] message — channel FIFO order guarantees all
//! in-flight batches are drained first — answered by a final flush, a
//! [`ShardReply::Done`] with per-query metrics, and thread exit.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;

use zstream_core::{
    CoreError, Engine, EngineMetrics, EngineObs, PartitionedEngine, SharedPredIndex,
};
use zstream_events::{
    EventBatch, EventRef, Record, Snapshot, SnapshotError, SnapshotReader, SnapshotResult,
    SnapshotWriter, Ts,
};
use zstream_obs::Obs;

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
    /// One routed record-path batch: per registered query, the events this
    /// shard owns.
    Batch { watermark: Ts, per_query: Vec<Vec<EventRef>> },
    /// Watermark-only message for idle shards: echo it so the merge
    /// frontier advances; no evaluation.
    Heartbeat { watermark: Ts },
    /// Failure injection (test/chaos hook): behave exactly as if an engine
    /// panicked — report a terminal [`ShardReply::Done`] and exit.
    Fail,
    /// Serialize every engine's state and reply with
    /// [`ShardReply::Snapshot`]. Channel FIFO order is the quiesce
    /// protocol: every batch sent before this message has been evaluated
    /// (and its `Output` sent) by the time the snapshot reply is produced,
    /// so the blob captures a consistent point in the shard's sub-stream.
    Snapshot,
    /// Instantiate an engine for a freshly created query
    /// ([`crate::Runtime::create`]) in registry slot `slot`, growing the
    /// engine table as needed. Channel FIFO is the quiesce protocol here
    /// too: the new engine exists strictly after every batch dispatched
    /// before the create, and the router only selects rows for the slot in
    /// batches dispatched after it — so the query sees exactly the
    /// post-create suffix of the stream.
    Create { slot: usize, def: Arc<QueryDef> },
    /// Tear down the engine in registry slot `slot`
    /// ([`crate::Runtime::drop_query`]); answered with
    /// [`ShardReply::Retired`] carrying the engine's final metrics. Batches
    /// queued ahead of this message still evaluate the query (FIFO); the
    /// control thread discards their matches for tombstoned slots.
    DropQuery { slot: usize },
    /// Flush every engine, report metrics, and exit.
    Shutdown,
}

/// Shard-to-control replies.
pub(crate) enum ShardReply {
    /// Matches produced by one batch (or the final flush) in
    /// `(end_ts, seq)` order, plus the watermark the shard has now fully
    /// processed.
    Output { shard: usize, watermark: Ts, matches: Vec<RuntimeMatch> },
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

/// One query's evaluation state on one shard.
pub(crate) enum ShardEngine {
    /// Hash-routed query: per-key engines over this shard's key subset.
    Partitioned(Box<PartitionedEngine>),
    /// Home-shard query: the whole (query-relevant) stream, one engine
    /// (boxed: the engine carries intake scratch bitmaps and is much larger
    /// than the partitioned wrapper).
    Flat(Box<Engine>),
}

impl ShardEngine {
    fn push_batch(&mut self, events: &[EventRef]) -> Vec<Record> {
        match self {
            ShardEngine::Partitioned(e) => e.push_batch(events),
            ShardEngine::Flat(e) => e.push_batch(events),
        }
    }

    fn push_columns(
        &mut self,
        batch: &EventBatch,
        shared: Option<&mut SharedPredIndex>,
    ) -> Vec<Record> {
        match self {
            ShardEngine::Partitioned(e) => e.push_columns_shared(batch, shared),
            ShardEngine::Flat(e) => e.push_columns_shared(batch, shared),
        }
    }

    fn push_rows(
        &mut self,
        batch: &EventBatch,
        rows: &[u32],
        shared: Option<&mut SharedPredIndex>,
    ) -> Vec<Record> {
        match self {
            ShardEngine::Partitioned(e) => e.push_rows_shared(batch, rows, shared),
            ShardEngine::Flat(e) => e.push_rows_shared(batch, rows, shared),
        }
    }

    /// Subscribes this engine to the shard's shared predicate index, from
    /// the predicates the engine compiled at construction.
    fn subscribe(&mut self, shared: &mut SharedPredIndex) {
        match self {
            ShardEngine::Partitioned(e) => e.subscribe(shared),
            ShardEngine::Flat(e) => e.subscribe(shared),
        }
    }

    fn flush(&mut self) -> Vec<Record> {
        match self {
            ShardEngine::Partitioned(e) => e.flush(),
            ShardEngine::Flat(e) => e.flush(),
        }
    }

    fn metrics(&self) -> EngineMetrics {
        match self {
            ShardEngine::Partitioned(e) => e.metrics(),
            ShardEngine::Flat(e) => e.metrics(),
        }
    }
}

/// Registers one slot's per-query engine instruments in `hub` (cells
/// private to the shard thread) and attaches them. The query label is the
/// stable slot id (`q0`, `q1`, …) — the same label every scrape and the
/// decision log use; ids are never recycled, so a label always means one
/// query over the hub's whole lifetime.
fn attach_slot_obs(engine: &mut ShardEngine, slot: usize, shard: usize, hub: &Obs) {
    let obs =
        EngineObs::register(hub, &format!("q{slot}"), Some(shard as u32), Some(hub.trace.clone()));
    match engine {
        ShardEngine::Partitioned(e) => e.set_obs(obs),
        ShardEngine::Flat(e) => e.set_obs(obs),
    }
}

/// Instantiates one query's engine on this shard — `None` for single-shard
/// queries homed elsewhere — subscribed to the shared predicate index (when
/// enabled) and wired to the hub's per-query instruments.
fn instantiate(
    def: &QueryDef,
    slot: usize,
    shard: usize,
    shared: Option<&mut SharedPredIndex>,
    hub: &Obs,
) -> Result<Option<ShardEngine>, CoreError> {
    let mut engine = match &def.route {
        Route::Hash(field) => {
            Some(ShardEngine::Partitioned(Box::new(def.parts.partitioned_engine(field)?)))
        }
        Route::Single(home) if *home == shard => {
            Some(ShardEngine::Flat(Box::new(def.parts.engine()?)))
        }
        Route::Single(_) => None,
    };
    if let Some(engine) = &mut engine {
        if let Some(shared) = shared {
            engine.subscribe(shared);
        }
        attach_slot_obs(engine, slot, shard, hub);
    }
    Ok(engine)
}

/// Instantiates this shard's engines: one per live registry slot that can
/// route events here (`None` for tombstones and for single-shard queries
/// homed elsewhere), plus the shard's shared predicate index when
/// `shared_intake` is on, with every engine's subscription registered.
pub(crate) fn build_engines(
    queries: &[QueryState],
    shard: usize,
    hub: &Obs,
    shared_intake: bool,
) -> Result<(Vec<Option<ShardEngine>>, Option<SharedPredIndex>), CoreError> {
    let mut shared = shared_intake.then(SharedPredIndex::new);
    let mut engines = Vec::with_capacity(queries.len());
    for (slot, state) in queries.iter().enumerate() {
        engines.push(match &state.def {
            Some(def) => instantiate(def, slot, shard, shared.as_mut(), hub)?,
            None => None,
        });
    }
    Ok((engines, shared))
}

/// Serializes a shard's engine states into one self-contained blob: per
/// query a presence/kind tag (0 = not hosted here, 1 = flat, 2 =
/// partitioned) followed by the engine's [`Snapshot`] stream. The blob
/// carries its own symbol/schema/event dictionaries, so shards serialize
/// concurrently without sharing writer state.
fn snapshot_engines(engines: &[Option<ShardEngine>]) -> Vec<u8> {
    let mut w = SnapshotWriter::new();
    w.len(engines.len());
    for engine in engines {
        match engine {
            None => w.u8(0),
            Some(ShardEngine::Flat(e)) => {
                w.u8(1);
                e.write_snapshot(&mut w);
            }
            Some(ShardEngine::Partitioned(e)) => {
                w.u8(2);
                e.write_snapshot(&mut w);
            }
        }
    }
    w.into_bytes()
}

/// Rebuilds a shard's engines from a [`snapshot_engines`] blob, checking
/// each against the routing the restoring configuration resolved: a blob
/// whose engine kinds disagree with the routes (different queries, a
/// different worker count reassigning home shards) is rejected as corrupt.
pub(crate) fn restore_engines(
    queries: &[QueryState],
    shard: usize,
    bytes: &[u8],
    hub: &Obs,
    shared_intake: bool,
) -> SnapshotResult<(Vec<Option<ShardEngine>>, Option<SharedPredIndex>)> {
    let mut r = SnapshotReader::new(bytes);
    let n = r.len()?;
    if n != queries.len() {
        return Err(SnapshotError::Corrupt(format!(
            "shard {shard} blob has {n} engines, registry has {}",
            queries.len()
        )));
    }
    let mut shared = shared_intake.then(SharedPredIndex::new);
    let mut engines = Vec::with_capacity(n);
    for (q, state) in queries.iter().enumerate() {
        let tag = r.u8()?;
        let mut engine = match (state.def.as_deref(), tag) {
            // A tombstoned slot serializes as "not hosted" on every shard.
            (None, 0) => None,
            (None, tag) => {
                return Err(SnapshotError::Corrupt(format!(
                    "shard {shard} query {q}: engine kind {tag} on a dropped query"
                )));
            }
            (Some(def), tag) => match (&def.route, tag) {
                (Route::Hash(field), 2) => Some(ShardEngine::Partitioned(Box::new(
                    def.parts.restore_partitioned_engine(field, &mut r)?,
                ))),
                (Route::Single(home), 1) if *home == shard => {
                    Some(ShardEngine::Flat(Box::new(def.parts.restore_engine(&mut r)?)))
                }
                (Route::Single(home), 0) if *home != shard => None,
                (route, tag) => {
                    return Err(SnapshotError::Corrupt(format!(
                        "shard {shard} query {q}: engine kind {tag} does not match route {route:?}"
                    )));
                }
            },
        };
        if let Some(engine) = &mut engine {
            if let Some(shared) = shared.as_mut() {
                engine.subscribe(shared);
            }
            // Fresh instruments, not restored state: observability
            // deliberately starts from zero after a restore (see the
            // checkpoint module docs).
            attach_slot_obs(engine, q, shard, hub);
        }
        engines.push(engine);
    }
    if !r.is_exhausted() {
        return Err(SnapshotError::Corrupt(format!(
            "shard {shard} blob has {} trailing bytes",
            r.remaining()
        )));
    }
    Ok((engines, shared))
}

/// Reports the shard's terminal [`ShardReply::Done`] with per-query
/// metrics (the normal shutdown reply, or the premature one after a
/// worker-side failure).
fn send_done(shard: usize, engines: &[Option<ShardEngine>], tx: &Sender<ShardReply>) {
    let metrics =
        engines.iter().map(|e| e.as_ref().map(ShardEngine::metrics).unwrap_or_default()).collect();
    let _ = tx.send(ShardReply::Done { shard, metrics });
}

/// Shared evaluation plumbing for every traffic arm of the shard loop: run
/// `eval` under `catch_unwind`, tag its per-query records into sequenced
/// [`RuntimeMatch`]es — numbered in emission order, then stable-sorted by
/// end timestamp, so the reply is one `(end_ts, seq)`-ordered run the
/// merger appends without looking inside — and reply with one batched
/// [`ShardReply::Output`]. Everything up to, but not including, the reply
/// send is timed into the shard's service-time histogram. Returns `false`
/// when the thread must exit (engine panic — a premature `Done` was sent —
/// or a disconnected reply channel).
fn eval_and_reply(
    shard: usize,
    seq: &mut u64,
    engines: &mut Vec<Option<ShardEngine>>,
    tx: &Sender<ShardReply>,
    inst: &ShardInstruments,
    watermark: Ts,
    eval: impl FnOnce(&mut Vec<Option<ShardEngine>>) -> Vec<(usize, Vec<Record>)>,
) -> bool {
    let start = std::time::Instant::now();
    let run = catch_unwind(AssertUnwindSafe(|| eval(engines))).map(|per_q| {
        let mut run = Vec::with_capacity(per_q.iter().map(|(_, records)| records.len()).sum());
        for (q, records) in per_q {
            for record in records {
                run.push(RuntimeMatch { query: QueryId(q), shard, seq: *seq, record });
                *seq += 1;
            }
        }
        // Stable, so equal end timestamps keep emission (`seq`) order. One
        // query's engine emits in end-timestamp order already, and the sort
        // is then a single verifying pass.
        run.sort_by_key(|m| m.record.end_ts());
        run
    });
    inst.service_ns.observe(elapsed_ns(start));
    match run {
        Ok(matches) => tx.send(ShardReply::Output { shard, watermark, matches }).is_ok(),
        Err(_) => {
            send_done(shard, engines, tx);
            false
        }
    }
}

/// The shard thread body. Exits when told to shut down, when either channel
/// disconnects (the runtime was dropped), or after a worker-side failure
/// (engine panic or injected [`ShardMsg::Fail`]) — the latter after
/// reporting a premature [`ShardReply::Done`].
// One parameter per independently-owned resource the thread takes with it;
// bundling them into a struct would just move the same list one level down.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_shard(
    shard: usize,
    mut engines: Vec<Option<ShardEngine>>,
    mut shared: Option<SharedPredIndex>,
    rx: Receiver<ShardMsg>,
    tx: Sender<ShardReply>,
    initial_seq: u64,
    inst: ShardInstruments,
    hub: Arc<Obs>,
) {
    let mut seq = initial_seq;
    let svc = &inst;
    let publish_masks = |shared: &Option<SharedPredIndex>| {
        inst.class_masks.set(shared.as_ref().map_or(0, |s| s.num_masks() as u64));
    };
    publish_masks(&shared);
    while let Ok(msg) = rx.recv() {
        match msg {
            ShardMsg::Columns { watermark, batch, per_query } => {
                let shared = &mut shared;
                let ok =
                    eval_and_reply(shard, &mut seq, &mut engines, &tx, svc, watermark, |engines| {
                        // One generation of the shared index per batch: the
                        // first subscriber to need a class mask evaluates
                        // it, every later subscriber reuses it.
                        if let Some(shared) = shared.as_mut() {
                            shared.begin_batch();
                        }
                        let mut per_q: Vec<(usize, Vec<Record>)> = Vec::new();
                        let mut skipped = 0u64;
                        for (q, sel) in per_query.iter().enumerate() {
                            let Some(engine) = engines.get_mut(q).and_then(Option::as_mut) else {
                                continue;
                            };
                            let records = match sel {
                                RowSel::Skip => continue,
                                RowSel::All => {
                                    // A home-shard engine none of whose
                                    // class masks has a row in this batch
                                    // is settled in O(1), not entered.
                                    if let (ShardEngine::Flat(flat), Some(shared)) =
                                        (&mut *engine, shared.as_mut())
                                    {
                                        if flat.skip_unadmitted(&batch, shared) {
                                            skipped += 1;
                                            continue;
                                        }
                                    }
                                    engine.push_columns(&batch, shared.as_mut())
                                }
                                RowSel::Rows(rows) if rows.is_empty() => continue,
                                RowSel::Rows(rows) => {
                                    engine.push_rows(&batch, rows, shared.as_mut())
                                }
                            };
                            per_q.push((q, records));
                        }
                        inst.engines_skipped.add(skipped);
                        per_q
                    });
                if !ok {
                    return;
                }
            }
            ShardMsg::Batch { watermark, per_query } => {
                let ok =
                    eval_and_reply(shard, &mut seq, &mut engines, &tx, svc, watermark, |engines| {
                        let mut per_q: Vec<(usize, Vec<Record>)> = Vec::new();
                        for (q, events) in per_query.iter().enumerate() {
                            if events.is_empty() {
                                continue;
                            }
                            let Some(engine) = engines.get_mut(q).and_then(Option::as_mut) else {
                                continue;
                            };
                            per_q.push((q, engine.push_batch(events)));
                        }
                        per_q
                    });
                if !ok {
                    return;
                }
            }
            ShardMsg::Heartbeat { watermark } => {
                if tx.send(ShardReply::Output { shard, watermark, matches: Vec::new() }).is_err() {
                    return;
                }
            }
            ShardMsg::Fail => {
                send_done(shard, &engines, &tx);
                return;
            }
            ShardMsg::Create { slot, def } => {
                if engines.len() <= slot {
                    engines.resize_with(slot + 1, || None);
                }
                // Instantiation failure degrades exactly like an engine
                // panic: this shard leaves the pool rather than silently
                // running without the query (the control thread validated
                // the compiled parts, so this is a can't-happen guard).
                match instantiate(&def, slot, shard, shared.as_mut(), &hub) {
                    Ok(engine) => {
                        if let Some(e) = engines.get_mut(slot) {
                            *e = engine;
                        }
                        publish_masks(&shared);
                    }
                    Err(_) => {
                        send_done(shard, &engines, &tx);
                        return;
                    }
                }
            }
            ShardMsg::DropQuery { slot } => {
                // The shared index deliberately keeps the dropped query's
                // slots and class masks: other subscribers may share them,
                // and unshared ones are lazy — never evaluated again.
                if let Some(engine) = engines.get_mut(slot).and_then(Option::take) {
                    let metrics = engine.metrics();
                    if tx.send(ShardReply::Retired { shard, slot, metrics }).is_err() {
                        return;
                    }
                }
            }
            ShardMsg::Snapshot => {
                // Serialization runs under catch_unwind like evaluation: a
                // panicking engine must degrade to the worker-failure path,
                // not leave the checkpoint protocol waiting forever.
                match catch_unwind(AssertUnwindSafe(|| snapshot_engines(&engines))) {
                    Ok(bytes) => {
                        if tx.send(ShardReply::Snapshot { shard, seq, bytes }).is_err() {
                            return;
                        }
                    }
                    Err(_) => {
                        send_done(shard, &engines, &tx);
                        return;
                    }
                }
            }
            ShardMsg::Shutdown => {
                let ok =
                    eval_and_reply(shard, &mut seq, &mut engines, &tx, svc, Ts::MAX, |engines| {
                        let mut per_q: Vec<(usize, Vec<Record>)> = Vec::new();
                        for (q, engine) in engines.iter_mut().enumerate() {
                            if let Some(engine) = engine {
                                per_q.push((q, engine.flush()));
                            }
                        }
                        per_q
                    });
                if ok {
                    send_done(shard, &engines, &tx);
                }
                return;
            }
        }
    }
}
