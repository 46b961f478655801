//! The runtime proper: router, worker pool, merger, lifecycle.

use std::collections::HashMap;
use std::sync::mpsc::{channel, sync_channel, Receiver, SyncSender, TryRecvError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use zstream_core::{CompiledParts, EngineMetrics};
use zstream_events::{
    repack_events, split_batch_rows, BatchRelease, ColumnarReorder, EventBatch, EventRef, Record,
    Snapshot, SnapshotReader, SnapshotResult, SnapshotWriter, Ts,
};
use zstream_obs::{Obs, ObsSnapshot, TraceKind};

use crate::checkpoint::{
    check_fingerprint, expect_len, expect_tag, write_fingerprint, CheckpointId, Fingerprint, MAGIC,
    TAG_CONFIG, TAG_END, TAG_MERGE, TAG_REORDER, TAG_RUNTIME, TAG_SHARDS, VERSION,
};
use crate::error::RuntimeError;
use crate::instruments::{elapsed_ns, RtInstruments, ShardInstruments};
use crate::merge::{OrderedMerge, RuntimeMatch};
use crate::registry::{
    next_live_home, resolve_route, resolve_routes, Partitioning, QueryId, QueryState, Route,
};
use crate::shard::{run_shard, shard_engines, RowSel, ShardMsg, ShardReply};

/// What to do with an event that arrives beyond the reorder slack window
/// (§4.1: it can no longer be placed in time order).
///
/// Under `Drop` and `DeadLetter`, late events are counted (`late_events`
/// in [`EngineMetrics`] / [`RuntimeReport`]) and the policy decides what
/// else happens. `Strict` rejects the whole ingest call *before* anything
/// reaches the reorder stage, so its rejections surface as
/// [`RuntimeError::TooLate`] errors, not counter increments (the caller
/// may re-ingest the call minus the late rows; counting here would then
/// double-book). Only meaningful together with [`RuntimeBuilder::slack`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum LatenessPolicy {
    /// Discard late events (the default): counted, then dropped.
    #[default]
    Drop,
    /// Keep late events for the caller: counted, then retained in arrival
    /// order until drained with [`Runtime::take_late_events`] — a
    /// dead-letter queue for out-of-band handling.
    DeadLetter,
    /// Fail fast: the ingest call carrying a late event returns
    /// [`RuntimeError::TooLate`] and is rejected **whole** (all-or-nothing);
    /// the runtime itself is not poisoned — subsequent ingest calls work.
    Strict,
}

/// Configures and constructs a [`Runtime`].
///
/// ```
/// use zstream_core::EngineBuilder;
/// use zstream_runtime::{Partitioning, Runtime};
///
/// let mut builder = Runtime::builder().workers(4);
/// let q = builder.register(
///     EngineBuilder::parse("PATTERN A; B WHERE A.name = B.name WITHIN 10")
///         .unwrap()
///         .compile()
///         .unwrap(),
///     Partitioning::Auto("name".into()),
/// );
/// let runtime = builder.build().unwrap();
/// # let _ = (q, runtime);
/// ```
#[derive(Debug)]
pub struct RuntimeBuilder {
    workers: usize,
    channel_capacity: usize,
    heartbeat_interval: usize,
    slack: Option<Ts>,
    lateness: LatenessPolicy,
    sources: usize,
    defs: Vec<(CompiledParts, Partitioning)>,
    obs: Option<Arc<Obs>>,
}

impl Default for RuntimeBuilder {
    fn default() -> Self {
        RuntimeBuilder {
            workers: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
            channel_capacity: 4,
            heartbeat_interval: 8,
            slack: None,
            lateness: LatenessPolicy::Drop,
            sources: 1,
            defs: Vec::new(),
            obs: None,
        }
    }
}

impl RuntimeBuilder {
    /// Starts from the defaults: one worker per available core, four
    /// batches of channel slack per shard, a watermark heartbeat to idle
    /// shards every 8 chunks.
    pub fn new() -> RuntimeBuilder {
        RuntimeBuilder::default()
    }

    /// Number of worker shards (≥ 1).
    pub fn workers(mut self, n: usize) -> Self {
        self.workers = n;
        self
    }

    /// Bounded capacity, in batches, of each shard's input channel (≥ 1).
    /// This is the backpressure knob: once a shard falls this many batches
    /// behind, [`Runtime::ingest_columns`] blocks instead of buffering
    /// further.
    pub fn channel_capacity(mut self, n: usize) -> Self {
        self.channel_capacity = n;
        self
    }

    /// How often idle shards hear about watermark progress, in ingested
    /// chunks (≥ 1). Shards with routed traffic learn the watermark from
    /// their batch messages (piggybacked); shards a chunk skips get an
    /// explicit heartbeat only every `n` chunks. Smaller values finalize
    /// cross-shard matches sooner; larger values cut idle messaging. Matches
    /// held by a lagging frontier are never lost — [`Runtime::shutdown`]
    /// finalizes everything.
    pub fn heartbeat_interval(mut self, n: usize) -> Self {
        self.heartbeat_interval = n;
        self
    }

    /// Enables the §4.1 reordering stage in front of ingest, tolerating
    /// out-of-order arrival up to `slack` time units.
    ///
    /// With slack set, [`Runtime::ingest_columns`] accepts events in
    /// **arrival order** (batches may be unsorted): events are held back in
    /// a bounded buffer, released to the shards in time order once they
    /// fall behind the release frontier
    /// `min(per-source high-water) − slack`, and events arriving more than
    /// `slack` behind their source's high-water mark are *late* — counted
    /// and handled per [`RuntimeBuilder::lateness`]. `slack = 0` means
    /// "strictly in order" (equal timestamps fine, going backwards late).
    ///
    /// The trade-off: larger slack tolerates more disorder but buffers more
    /// rows (`reorder_buffered_peak`) and delays finality by `slack` time
    /// units, since the merge frontier now trails the high-water mark by
    /// exactly the slack. Without this knob the runtime requires perfectly
    /// time-ordered input, as before.
    pub fn slack(mut self, slack: Ts) -> Self {
        self.slack = Some(slack);
        self
    }

    /// What to do with events beyond the slack window (default:
    /// [`LatenessPolicy::Drop`]). Requires [`RuntimeBuilder::slack`].
    pub fn lateness(mut self, policy: LatenessPolicy) -> Self {
        self.lateness = policy;
        self
    }

    /// Number of independent ingest sources (default 1). Each source `s`
    /// feeds [`Runtime::ingest_columns_from`] and gets its **own** reorder
    /// watermark: an event is judged late only against its own source's
    /// high-water mark, while release waits for every source — so several
    /// individually ordered streams merge exactly no matter the skew
    /// between them. Requires [`RuntimeBuilder::slack`] when > 1.
    pub fn sources(mut self, n: usize) -> Self {
        self.sources = n;
        self
    }

    /// Attaches an observability hub: the runtime registers its pipeline
    /// instruments there and every shard records into it. Pass a shared
    /// hub to aggregate several runtimes into one scrape, or to scrape
    /// from another thread while this one ingests
    /// ([`Runtime::obs_handle`] returns the hub either way). Without this
    /// the runtime creates a private hub — observability is always on;
    /// the hot-path cost is relaxed atomic ops on thread-private cells.
    pub fn obs(mut self, hub: Arc<Obs>) -> Self {
        self.obs = Some(hub);
        self
    }

    /// Registers a compiled query; returns its id (assigned in
    /// registration order). Routing soundness is checked at [`build`].
    ///
    /// [`build`]: RuntimeBuilder::build
    pub fn register(&mut self, parts: CompiledParts, partitioning: Partitioning) -> QueryId {
        let id = QueryId(self.defs.len());
        self.defs.push((parts, partitioning));
        id
    }

    /// The configuration checks shared by [`build`] and [`restore`].
    ///
    /// [`build`]: RuntimeBuilder::build
    /// [`restore`]: RuntimeBuilder::restore
    fn validate(&self) -> Result<(), RuntimeError> {
        if self.workers == 0 {
            return Err(RuntimeError::InvalidConfig("workers must be >= 1".into()));
        }
        if self.channel_capacity == 0 || self.heartbeat_interval == 0 {
            return Err(RuntimeError::InvalidConfig(
                "channel_capacity and heartbeat_interval must be >= 1".into(),
            ));
        }
        if self.defs.is_empty() {
            return Err(RuntimeError::InvalidConfig("no queries registered".into()));
        }
        if self.sources == 0 {
            return Err(RuntimeError::InvalidConfig("sources must be >= 1".into()));
        }
        if self.slack.is_none() {
            if self.sources > 1 {
                return Err(RuntimeError::InvalidConfig(
                    "multiple sources require the reorder stage: set slack(..) \
                     (per-source watermarks only exist there)"
                        .into(),
                ));
            }
            if self.lateness != LatenessPolicy::Drop {
                return Err(RuntimeError::InvalidConfig(
                    "a lateness policy requires the reorder stage: set slack(..)".into(),
                ));
            }
        }
        Ok(())
    }

    /// Validates the configuration, resolves every query's routing, spawns
    /// the worker shards, and returns the running [`Runtime`] — a restore
    /// from the empty state.
    pub fn build(mut self) -> Result<Runtime, RuntimeError> {
        self.validate()?;
        let (defs, homes) = resolve_routes(std::mem::take(&mut self.defs), self.workers)?;
        // One template engine per query stays on the control thread; it
        // never sees events and exists to interpret records (signatures,
        // RETURN formatting) without reaching into worker state.
        let mut queries = Vec::with_capacity(defs.len());
        for def in defs {
            let template = def.parts.engine()?;
            queries.push(QueryState::live(def, template));
        }
        let state = Resume {
            checkpoint_seq: 0,
            queries,
            homes,
            watermark: 0,
            shard_sent: vec![0; self.workers],
            chunks_since_heartbeat: 0,
            dead_letters: Vec::new(),
            replay_guard: vec![None; self.sources],
            merge: OrderedMerge::new(self.workers),
            reorder: self.slack.map(|s| ColumnarReorder::with_sources(s, self.sources)),
            shards: vec![Some((0, None)); self.workers],
        };
        self.start(state)
    }

    /// Rebuilds a runtime from a checkpoint written by
    /// [`Runtime::checkpoint`], instead of starting empty.
    ///
    /// The builder must describe **the same logical deployment** that wrote
    /// the checkpoint: same worker count, heartbeat interval,
    /// slack/sources/lateness, and the checkpoint's **live** queries
    /// registered in slot order with compatible partitioning — queries
    /// added by [`Runtime::create`] included, queries removed by
    /// [`Runtime::drop_query`] omitted (their tombstones are re-created
    /// automatically, so restored [`QueryId`]s keep their meaning). The
    /// fingerprint is validated field by field: any value disagreement is
    /// a [`RuntimeError::CheckpointDrift`] naming the first difference
    /// (fix the configuration), while an undecodable file is a
    /// [`RuntimeError::Checkpoint`] (the file is damaged). A different
    /// `channel_capacity` is allowed: it shapes backpressure, not state.
    /// Shards that had left the pool (worker failure) before the
    /// checkpoint are restored as already-departed: their matches are
    /// final, events routed to them count as dropped.
    ///
    /// After restore the runtime is **replay-armed**: if the first ingest
    /// call a source makes is byte-identical in content to the last chunk
    /// that source ingested before the checkpoint, it is recognized (by
    /// content digest) and skipped, so an at-least-once upstream that
    /// replays its unacknowledged tail does not double-count a chunk whose
    /// effects the checkpoint already captured. Any other first ingest
    /// disarms the guard for that source.
    pub fn restore<R: std::io::Read>(mut self, input: &mut R) -> Result<Runtime, RuntimeError> {
        let mut data = Vec::new();
        input
            .read_to_end(&mut data)
            .map_err(|e| RuntimeError::Checkpoint(format!("reading checkpoint: {e}")))?;
        if data.len() < MAGIC.len() + 4 || data[..MAGIC.len()] != MAGIC {
            return Err(RuntimeError::Checkpoint("not a ZStream checkpoint (bad magic)".into()));
        }
        let version = data
            .get(MAGIC.len()..MAGIC.len() + 4)
            .and_then(|b| <[u8; 4]>::try_from(b).ok())
            .map(u32::from_le_bytes)
            .ok_or_else(|| RuntimeError::Checkpoint("truncated checkpoint header".into()))?;
        if version != VERSION {
            return Err(RuntimeError::Checkpoint(format!(
                "unsupported checkpoint version {version} (this build reads version {VERSION})"
            )));
        }
        self.validate()?;
        let workers = self.workers;
        let fp = Fingerprint {
            workers,
            heartbeat_interval: self.heartbeat_interval,
            slack: self.slack,
            sources: self.sources,
            lateness: self.lateness,
        };

        let mut r = SnapshotReader::new(&data[MAGIC.len() + 4..]);
        let checkpoint_seq = r.u64()?;
        expect_tag(&mut r, TAG_CONFIG, "CONFIG")?;
        // The builder's registered queries map positionally onto the
        // checkpoint's live slots; routes come from the checkpoint and
        // tombstones are re-created, so every pre-checkpoint QueryId keeps
        // its meaning (see the checkpoint module docs).
        let (homes, slots) = check_fingerprint(&mut r, &fp, std::mem::take(&mut self.defs))?;
        let mut queries = Vec::with_capacity(slots.len());
        for slot in slots {
            queries.push(match slot {
                Some((def, paused)) => {
                    let template = def.parts.engine()?;
                    let mut state = QueryState::live(def, template);
                    state.paused = paused;
                    state
                }
                None => QueryState::tombstone(),
            });
        }

        expect_tag(&mut r, TAG_RUNTIME, "RUNTIME")?;
        let watermark = r.u64()?;
        expect_len(&mut r, "shard watermarks", workers)?;
        let shard_sent = (0..workers).map(|_| r.u64()).collect::<SnapshotResult<Vec<_>>>()?;
        expect_len(&mut r, "dropped counters", queries.len())?;
        for state in queries.iter_mut() {
            state.dropped = r.u64()?;
        }
        let chunks_since_heartbeat = usize::try_from(r.u64()?)
            .map_err(|_| RuntimeError::Checkpoint("heartbeat phase exceeds usize".into()))?;
        expect_len(&mut r, "metric sets", queries.len())?;
        for state in queries.iter_mut() {
            state.metrics = EngineMetrics::restore_snapshot(&mut r)?;
        }
        let n = r.len()?;
        let dead_letters = (0..n).map(|_| r.event()).collect::<SnapshotResult<Vec<_>>>()?;
        expect_len(&mut r, "source digests", self.sources)?;
        let replay_guard =
            (0..self.sources).map(|_| r.opt_u64()).collect::<SnapshotResult<Vec<_>>>()?;

        expect_tag(&mut r, TAG_MERGE, "MERGE")?;
        let merge = OrderedMerge::restore_snapshot(&mut r, |q| {
            queries.get(q).is_some_and(QueryState::is_live)
        })?;
        if merge.num_shards() != workers {
            return Err(RuntimeError::Checkpoint(format!(
                "checkpoint merger tracks {} shards, expected {workers}",
                merge.num_shards()
            )));
        }

        expect_tag(&mut r, TAG_REORDER, "REORDER")?;
        let reorder = match (r.bool()?, self.slack.is_some()) {
            (true, true) => Some(ColumnarReorder::restore_snapshot(&mut r)?),
            (false, false) => None,
            (present, _) => {
                // The fingerprint already pins slack; reaching here means
                // the stream itself is inconsistent.
                return Err(RuntimeError::Checkpoint(format!(
                    "reorder section presence ({present}) contradicts the fingerprint"
                )));
            }
        };
        if let Some(ro) = &reorder {
            if ro.num_sources() != self.sources {
                return Err(RuntimeError::Checkpoint(format!(
                    "restored reorder stage has {} sources, expected {}",
                    ro.num_sources(),
                    self.sources
                )));
            }
        }

        expect_tag(&mut r, TAG_SHARDS, "SHARDS")?;
        expect_len(&mut r, "shard entries", workers)?;
        let mut shards = Vec::with_capacity(workers);
        for shard in 0..workers {
            let alive = r.bool()?;
            if alive == merge.is_finished(shard) {
                return Err(RuntimeError::Checkpoint(format!(
                    "shard {shard}: alive flag contradicts the merger's frontier state"
                )));
            }
            shards.push(if alive { Some((r.u64()?, Some(r.blob()?))) } else { None });
        }
        expect_tag(&mut r, TAG_END, "END")?;
        if !r.is_exhausted() {
            return Err(RuntimeError::Checkpoint(format!(
                "checkpoint has {} trailing bytes",
                r.remaining()
            )));
        }
        self.start(Resume {
            checkpoint_seq,
            queries,
            homes,
            watermark,
            shard_sent,
            chunks_since_heartbeat,
            dead_letters,
            replay_guard,
            merge,
            reorder,
            shards,
        })
    }

    /// The one constructor behind [`build`] and [`restore`]: instantiates
    /// every live shard's engines (fresh, or from its checkpoint blob),
    /// spawns the shard threads, and assembles the [`Runtime`] around
    /// `state`. The hub's instruments start from zero either way:
    /// observability is deliberately not checkpoint state (see the
    /// checkpoint module docs).
    ///
    /// [`build`]: RuntimeBuilder::build
    /// [`restore`]: RuntimeBuilder::restore
    fn start(self, state: Resume<'_>) -> Result<Runtime, RuntimeError> {
        let obs = self.obs.unwrap_or_default();
        let inst = RtInstruments::register(&obs, self.sources, self.workers);
        // Every shard's engines before any thread: a damaged blob fails the
        // call with nothing spawned.
        let mut shards = Vec::with_capacity(self.workers);
        for (shard, resume) in state.shards.into_iter().enumerate() {
            shards.push(match resume {
                Some((seq, blob)) => Some((seq, shard_engines(&state.queries, shard, blob, &obs)?)),
                None => None,
            });
        }
        let (reply_tx, replies) = channel::<ShardReply>();
        let mut senders = Vec::with_capacity(self.workers);
        let mut handles = Vec::with_capacity(self.workers);
        for (shard, engines) in shards.into_iter().enumerate() {
            let (tx, rx) = sync_channel::<ShardMsg>(self.channel_capacity);
            // Registered for departed shards too, so the instrument family
            // has one entry per configured shard either way.
            let shard_inst = ShardInstruments::register(&obs, shard);
            let thread = std::thread::Builder::new();
            let spawned = match engines {
                Some((seq, (engines, index))) => {
                    let (reply_tx, hub) = (reply_tx.clone(), Arc::clone(&obs));
                    thread.name(format!("zstream-shard-{shard}")).spawn(move || {
                        run_shard(shard, engines, index, rx, reply_tx, seq, shard_inst, hub)
                    })
                }
                // The shard had left the pool before the checkpoint. Restore
                // it as already-departed: the thread exits immediately, so
                // any (guarded-against) send fails exactly like a send to a
                // failed worker, and handle indices stay shard-aligned.
                None => {
                    thread.name(format!("zstream-shard-{shard}-departed")).spawn(move || drop(rx))
                }
            };
            senders.push(tx);
            handles.push(
                spawned.map_err(|e| RuntimeError::InvalidConfig(format!("spawn failed: {e}")))?,
            );
        }
        let runtime = Runtime {
            senders,
            replies,
            handles,
            obs,
            inst,
            queries: state.queries,
            homes: state.homes,
            merge: state.merge,
            heartbeat_interval: self.heartbeat_interval,
            chunks_since_heartbeat: state.chunks_since_heartbeat,
            shard_sent: state.shard_sent,
            watermark: state.watermark,
            reorder: state.reorder,
            slack: self.slack,
            sources: self.sources,
            lateness: self.lateness,
            dead_letters: state.dead_letters,
            checkpoint_seq: state.checkpoint_seq,
            last_chunk: state.replay_guard.iter().map(|d| d.map(LastChunk::Digest)).collect(),
            replay_guard: state.replay_guard,
            snapshot_stash: Vec::new(),
        };
        runtime.publish_queries_live();
        Ok(runtime)
    }
}

/// Final accounting returned by [`Runtime::shutdown`].
#[derive(Debug)]
pub struct RuntimeReport {
    /// Matches that were still buffered at shutdown, in merge order
    /// (matches already returned by [`Runtime::ingest_columns`] /
    /// [`Runtime::poll`] are not repeated).
    pub matches: Vec<RuntimeMatch>,
    /// Per-query metrics, aggregated across shards with
    /// [`EngineMetrics::merge`], indexed by registry slot
    /// ([`QueryId::index`]). Dropped queries keep their slot: the metrics
    /// they accumulated before the drop stay reported there.
    pub query_metrics: Vec<EngineMetrics>,
    /// Grand total across queries.
    pub metrics: EngineMetrics,
    /// Per-query count of ingested events the **router** could not deliver
    /// (indexed by registry slot, like [`RuntimeReport::query_metrics`]):
    /// their schema lacked the routing field, or their shard had already
    /// been observed leaving the pool after a worker failure. Paused
    /// queries' skipped events are not counted. Best-effort
    /// around failures: events accepted into a shard's bounded channel just
    /// before it died are lost with the shard and are *not* counted here
    /// (the router cannot distinguish evaluated from queued once the
    /// receiver is gone).
    pub dropped: Vec<u64>,
    /// Number of worker shards that ran.
    pub workers: usize,
    /// Events rejected by the reorder stage as beyond the slack window
    /// (0 without [`RuntimeBuilder::slack`]). Also stamped into
    /// [`RuntimeReport::metrics`]. Under [`LatenessPolicy::DeadLetter`],
    /// counts events surfaced through [`Runtime::take_late_events`] too.
    pub late_events: u64,
    /// Peak number of rows the reorder stage held back at once — the
    /// memory cost of the configured slack (0 without a reorder stage).
    pub reorder_buffered_peak: u64,
    /// Late events retained under [`LatenessPolicy::DeadLetter`] that the
    /// caller had not drained with [`Runtime::take_late_events`] before
    /// shutdown, in arrival order — they are surfaced here rather than
    /// silently destroyed. Empty under any other policy.
    pub dead_letters: Vec<EventRef>,
}

/// A sharded, multi-threaded execution runtime for one or more compiled
/// queries.
///
/// See the [crate documentation](crate) for the architecture. Lifecycle:
/// [`RuntimeBuilder::register`] queries, [`RuntimeBuilder::build`], feed
/// time-ordered columnar batches through [`ingest_columns`] (one routing
/// scan, zero-copy fan-out), collecting finalized matches as they become
/// safe to emit, and [`shutdown`] to drain in-flight batches, stop the
/// workers, and collect the remaining matches plus aggregated metrics.
///
/// [`ingest_columns`]: Runtime::ingest_columns
/// [`shutdown`]: Runtime::shutdown
#[derive(Debug)]
pub struct Runtime {
    senders: Vec<SyncSender<ShardMsg>>,
    replies: Receiver<ShardReply>,
    handles: Vec<JoinHandle<()>>,
    /// The observability hub every layer records into — shared with the
    /// shard threads and with any scraping thread
    /// ([`Runtime::obs_handle`]).
    obs: Arc<Obs>,
    /// Pipeline-level instrument handles (per-source ingest counters,
    /// reorder pressure, shard queue depths, merge frontier, checkpoint
    /// accounting), pre-registered so the hot path never touches the
    /// registry.
    inst: RtInstruments,
    /// The registry: one slot per query ever registered or created, in id
    /// order. Slots are never removed or recycled — [`Runtime::drop_query`]
    /// tombstones them — so a slot index *is* a [`QueryId`] and every
    /// slot-indexed message or report stays valid across lifecycle calls.
    queries: Vec<QueryState>,
    /// Home-shard rotation counter, continued by [`Runtime::create`] so
    /// dynamically created single-shard queries keep spreading round-robin
    /// (checkpointed: restore resumes the rotation).
    homes: usize,
    merge: OrderedMerge,
    heartbeat_interval: usize,
    /// Chunks dispatched since the last idle-shard heartbeat round.
    chunks_since_heartbeat: usize,
    /// Last watermark each shard has been told about (piggybacked on its
    /// traffic or heartbeated); heartbeats are skipped when current.
    shard_sent: Vec<Ts>,
    watermark: Ts,
    /// The §4.1 reordering stage in front of routing, when
    /// [`RuntimeBuilder::slack`] was set: disordered arrivals buffer here
    /// and the watermark is driven by its release frontier.
    reorder: Option<ColumnarReorder>,
    /// The configured slack ([`RuntimeBuilder::slack`]), kept for the
    /// checkpoint fingerprint.
    slack: Option<Ts>,
    /// The configured ingest source count, kept for the checkpoint
    /// fingerprint and replay-guard sizing.
    sources: usize,
    lateness: LatenessPolicy,
    /// Late events retained under [`LatenessPolicy::DeadLetter`], in
    /// arrival order, until the caller drains them.
    dead_letters: Vec<EventRef>,
    /// Monotone checkpoint counter; carried across restore so checkpoint
    /// ids keep increasing over the runtime's whole (durable) lifetime.
    checkpoint_seq: u64,
    /// Per source, the last non-empty chunk ingested. Its content digest is
    /// persisted in checkpoints so a restored runtime can recognize an
    /// at-least-once replay of the final pre-checkpoint chunk.
    last_chunk: Vec<Option<LastChunk>>,
    /// One-shot per-source replay guard, armed only by
    /// [`RuntimeBuilder::restore`]: the first post-restore ingest from a
    /// source is skipped iff its content digest equals the persisted
    /// last-chunk digest; any first ingest disarms the source's guard.
    replay_guard: Vec<Option<u64>>,
    /// Snapshot replies picked up outside [`Runtime::checkpoint`]'s own
    /// await loop (a `drain_replies` racing the protocol); the checkpoint
    /// drains this stash before blocking on the reply channel.
    snapshot_stash: Vec<(usize, u64, Vec<u8>)>,
}

impl Runtime {
    /// Starts a builder.
    pub fn builder() -> RuntimeBuilder {
        RuntimeBuilder::new()
    }

    /// Number of worker shards.
    pub fn workers(&self) -> usize {
        self.senders.len()
    }

    /// The observability hub, for sharing with a scraping thread: clone
    /// the `Arc`, move it to the scraper, and call
    /// [`zstream_obs::Obs::snapshot`] there at any time — including while
    /// this thread is blocked in an ingest call. Nothing quiesces.
    pub fn obs_handle(&self) -> Arc<Obs> {
        Arc::clone(&self.obs)
    }

    /// A cheap point-in-time scrape of metrics, trace ring, and decision
    /// log. Safe to call mid-stream: metric cells are read with relaxed
    /// atomic loads and the trace/decision planes each take one short
    /// mutex — no shard is paused, no channel is drained, ingest and
    /// evaluation continue untouched.
    pub fn observe(&self) -> ObsSnapshot {
        self.obs.snapshot()
    }

    /// Number of shards still in the pool (not finished after a worker
    /// failure).
    pub fn live_workers(&self) -> usize {
        self.senders.len() - self.merge.finished_count()
    }

    /// Number of **live** queries (registered or created, not dropped).
    pub fn num_queries(&self) -> usize {
        self.queries.iter().filter(|s| s.is_live()).count()
    }

    /// Number of registry slots ever allocated (live queries plus
    /// tombstones): the length of the slot-ordered report vectors, and the
    /// id the next [`Runtime::create`] will hand out.
    pub fn num_slots(&self) -> usize {
        self.queries.len()
    }

    /// The resolved routing of a live query.
    ///
    /// # Panics
    ///
    /// Panics when the query was dropped (its route no longer exists).
    pub fn route(&self, query: QueryId) -> &Route {
        &self.queries[query.0].def.as_ref().expect("query was dropped").route
    }

    /// Whether a query id refers to a live (not dropped) query. Unknown
    /// ids are not live.
    pub fn is_live(&self, query: QueryId) -> bool {
        self.queries.get(query.0).is_some_and(QueryState::is_live)
    }

    /// Whether a live query is currently paused.
    pub fn is_paused(&self, query: QueryId) -> bool {
        self.queries.get(query.0).is_some_and(|s| s.paused)
    }

    /// The stream watermark: without a reorder stage, the latest event
    /// timestamp ingested; with one ([`RuntimeBuilder::slack`]), the
    /// reorder release frontier `min(per-source high-water) − slack` —
    /// what drives shard watermarks and match finality.
    pub fn watermark(&self) -> Ts {
        self.watermark
    }

    /// Events rejected by the reorder stage as beyond the slack window so
    /// far (0 without [`RuntimeBuilder::slack`]).
    pub fn late_events(&self) -> u64 {
        self.reorder.as_ref().map(ColumnarReorder::late_count).unwrap_or(0)
    }

    /// Rows currently held back by the reorder stage awaiting release.
    pub fn reorder_pending(&self) -> usize {
        self.reorder.as_ref().map(ColumnarReorder::pending_len).unwrap_or(0)
    }

    /// Drains the late events retained under
    /// [`LatenessPolicy::DeadLetter`], in arrival order. Empty under any
    /// other policy.
    pub fn take_late_events(&mut self) -> Vec<EventRef> {
        std::mem::take(&mut self.dead_letters)
    }

    /// Number of matches buffered in the merger, awaiting finality.
    pub fn pending_matches(&self) -> usize {
        self.merge.pending()
    }

    /// Canonical signature of a match record (per pattern class, the
    /// identities of its bound events) — delegates to the query's template
    /// plan; see [`zstream_core::Engine::record_signature`].
    ///
    /// # Panics
    ///
    /// Panics when the query was dropped (its template no longer exists).
    pub fn record_signature(&self, query: QueryId, record: &Record) -> Vec<Vec<usize>> {
        self.queries[query.0].template.as_ref().expect("query was dropped").record_signature(record)
    }

    /// Formats a match record according to the query's RETURN clause.
    ///
    /// # Panics
    ///
    /// Panics when the query was dropped (its template no longer exists).
    pub fn format_match(&self, query: QueryId, record: &Record) -> String {
        self.queries[query.0].template.as_ref().expect("query was dropped").format_match(record)
    }

    /// Registers and starts a new query on the **live** runtime, returning
    /// its stable [`QueryId`] (ids are never recycled).
    ///
    /// Routing is resolved exactly as at build time, except the home-shard
    /// rotation skips shards that have left the pool after a worker
    /// failure — a query homed on a dead shard would silently drop every
    /// event. The new engines are instantiated on each live shard via the
    /// same channel-FIFO quiesce the checkpoint uses: the query sees
    /// exactly the events ingested after this call, and its intake
    /// predicates join each shard's shared predicate index so overlapping
    /// predicates are still evaluated once per batch.
    pub fn create(
        &mut self,
        parts: CompiledParts,
        partitioning: Partitioning,
    ) -> Result<QueryId, RuntimeError> {
        let id = QueryId(self.queries.len());
        let template = parts.engine()?;
        let workers = self.senders.len();
        let merge = &self.merge;
        let homes = &mut self.homes;
        let mut next = || next_live_home(homes, workers, |s| merge.is_finished(s));
        let def = Arc::new(resolve_route(parts, partitioning, id, &mut next)?);
        self.queries.push(QueryState {
            def: Some(Arc::clone(&def)),
            template: Some(template),
            paused: false,
            dropped: 0,
            metrics: EngineMetrics::default(),
        });
        for shard in 0..workers {
            // A shard that has left the pool never hosts the query; events
            // routed to it count as dropped, like any other traffic to a
            // retired shard.
            let msg = ShardMsg::Create { slot: id.0, def: Arc::clone(&def) };
            let _ = self.send_to_shard(shard, msg)?;
        }
        self.trace_lifecycle(id, "create");
        self.publish_queries_live();
        Ok(id)
    }

    /// Pauses a live query: the router stops delivering its events (they
    /// are skipped, **not** counted as dropped) until [`Runtime::resume`].
    /// Shard-side engine state is untouched, so a resumed query continues
    /// from exactly the window state it had when paused — it simply never
    /// sees the events that streamed past in between. Pausing a paused
    /// query is a no-op.
    pub fn pause(&mut self, query: QueryId) -> Result<(), RuntimeError> {
        self.live_state_mut(query)?.paused = true;
        self.trace_lifecycle(query, "pause");
        Ok(())
    }

    /// Resumes a paused query. Resuming an unpaused query is a no-op.
    pub fn resume(&mut self, query: QueryId) -> Result<(), RuntimeError> {
        self.live_state_mut(query)?.paused = false;
        self.trace_lifecycle(query, "resume");
        Ok(())
    }

    /// Drops a live query mid-stream: its slot becomes a tombstone (the id
    /// is never recycled), its buffered matches are purged from the merger
    /// — a dropped query's matches never surface after this call returns —
    /// and every live shard tears down its engines, replying with the
    /// final metrics so the query's work still appears in
    /// [`RuntimeReport::query_metrics`]. Other queries' ids, routes,
    /// metrics, and match streams are entirely unaffected.
    pub fn drop_query(&mut self, query: QueryId) -> Result<(), RuntimeError> {
        let state = self.live_state_mut(query)?;
        state.def = None;
        state.template = None;
        state.paused = false;
        self.merge.purge_query(query);
        let workers = self.senders.len();
        for shard in 0..workers {
            let _ = self.send_to_shard(shard, ShardMsg::DropQuery { slot: query.0 })?;
        }
        self.trace_lifecycle(query, "drop");
        self.publish_queries_live();
        Ok(())
    }

    /// The slot of a live query, or the lifecycle error naming what is
    /// wrong with the id.
    fn live_state_mut(&mut self, query: QueryId) -> Result<&mut QueryState, RuntimeError> {
        match self.queries.get_mut(query.0) {
            Some(state) if state.is_live() => Ok(state),
            Some(_) => Err(RuntimeError::InvalidConfig(format!("query {query} was dropped"))),
            None => Err(RuntimeError::InvalidConfig(format!("no such query {query}"))),
        }
    }

    /// Publishes the live-query gauge (`zstream_queries_live`).
    fn publish_queries_live(&self) {
        self.inst.queries_live.set(self.num_queries() as u64);
    }

    /// Emits one lifecycle trace event for `query`.
    fn trace_lifecycle(&self, query: QueryId, op: &str) {
        let q = query.to_string();
        self.obs.trace.emit(self.watermark, None, Some(&q), TraceKind::Lifecycle, op.to_string());
    }

    /// Routes one time-ordered **columnar** batch to the worker shards and
    /// returns every match that became final, in deterministic
    /// `(end_ts, shard, seq)` order. This is the runtime's one way in:
    /// callers holding event slices convert them once with
    /// [`zstream_events::repack_events`].
    ///
    /// Each hash-routed query's key column is scanned once (memoized symbol
    /// digests), shards receive the shared batch by `Arc` plus a per-query
    /// selection vector (no event handles, no copies), and only shards
    /// owning rows get a message — idle shards learn the watermark from
    /// periodic heartbeats ([`RuntimeBuilder::heartbeat_interval`]) instead
    /// of per-chunk broadcasts. The caller's batch is the unit of work (one
    /// evaluation round per shard).
    ///
    /// Blocks when a shard's input channel is full — that is the
    /// backpressure contract, not an error. Without a reorder stage
    /// ([`RuntimeBuilder::slack`]), batches must arrive in global time
    /// order across calls; with one, rows may arrive in any order within
    /// the slack window.
    ///
    /// The runtime keeps a handle to the source's most recent non-empty
    /// batch (for the replay-guard digest a [`Runtime::checkpoint`] records
    /// — hashed then, not here), so that batch's storage is released by the
    /// next successful ingest from the same source rather than when the
    /// caller drops it.
    pub fn ingest_columns(
        &mut self,
        batch: &EventBatch,
    ) -> Result<Vec<RuntimeMatch>, RuntimeError> {
        self.ingest_columns_from(0, batch)
    }

    /// [`Runtime::ingest_columns`] for one of several registered ingest
    /// sources ([`RuntimeBuilder::sources`]): the batch is judged against
    /// `source`'s own reorder watermark, and rows release to the shards
    /// once **every** source's watermark has passed them — the exact merge
    /// of independently ordered (or mildly disordered) streams.
    pub fn ingest_columns_from(
        &mut self,
        source: usize,
        batch: &EventBatch,
    ) -> Result<Vec<RuntimeMatch>, RuntimeError> {
        // Retaining the chunk is an `Arc` bump; nothing on this path reads
        // a row unless a replay guard is armed.
        let chunk = (!batch.is_empty()).then(|| LastChunk::Batch(batch.clone()));
        if self.skip_replayed_chunk(source, chunk.as_ref())? {
            return Ok(self.emit_ready(Instant::now()));
        }
        let out = self.ingest_columns_inner(source, batch);
        if out.is_ok() && chunk.is_some() {
            self.last_chunk[source] = chunk;
        }
        out
    }

    fn ingest_columns_inner(
        &mut self,
        source: usize,
        batch: &EventBatch,
    ) -> Result<Vec<RuntimeMatch>, RuntimeError> {
        let (release, frontier) = match self.reorder.as_mut() {
            None => {
                Self::check_source(source, 1)?;
                // Hard check, not a debug assert: arrival-order batches are
                // an ordinary product of the API now (DisorderSpec,
                // unsorted builders) and must never reach the engines
                // without a reorder stage in front.
                if !batch.is_sorted()
                    || batch.ts_column().first().is_some_and(|first| *first < self.watermark)
                {
                    return Err(RuntimeError::InvalidConfig(
                        "out-of-order columnar ingest requires the reorder stage: \
                         set RuntimeBuilder::slack(..)"
                            .into(),
                    ));
                }
                self.record_ingest(source, batch.len());
                self.dispatch_columns(batch)?;
                return self.merge_ready();
            }
            Some(reorder) => {
                Self::check_source(source, reorder.num_sources())?;
                // Borrow note: `check_source` is an associated fn so the
                // `reorder` borrow stays live across it.
                if self.lateness == LatenessPolicy::Strict {
                    if let Some((_, ts, acceptable)) =
                        reorder.first_late_in(source, batch.ts_column().iter().copied())
                    {
                        return Err(RuntimeError::TooLate { source, ts, acceptable });
                    }
                }
                let release = reorder.offer_batch_from(source, batch);
                (release, reorder.frontier())
            }
        };
        self.record_ingest(source, batch.len());
        self.record_release(source, &release, frontier);
        if self.lateness == LatenessPolicy::DeadLetter {
            self.retain_dead_letters(&release.late);
        }
        for released in &release.batches {
            self.dispatch_columns(released)?;
        }
        self.watermark = self.watermark.max(frontier);
        self.publish_reorder();
        self.merge_ready()
    }

    /// Collects any matches that have become final since the last call,
    /// without ingesting anything. Non-blocking.
    ///
    /// A poll is an explicit finality request, so it also heartbeats any
    /// live shard still lagging the stream watermark — without this,
    /// matches could stay buffered until the next ingest-driven heartbeat
    /// (or shutdown) once the caller stops ingesting. Heartbeats here use a
    /// non-blocking send: a shard whose input queue is full is skipped and
    /// caught up on a later poll.
    pub fn poll(&mut self) -> Result<Vec<RuntimeMatch>, RuntimeError> {
        for shard in 0..self.senders.len() {
            if self.merge.is_finished(shard) || self.shard_sent[shard] >= self.watermark {
                continue;
            }
            // On failure — Full: queued traffic is ahead anyway, retry next
            // poll; Disconnected: the shard left the pool and the drain
            // below picks up its premature `Done`.
            let hb = ShardMsg::Heartbeat { watermark: self.watermark };
            if self.senders[shard].try_send(hb).is_ok() {
                self.shard_sent[shard] = self.watermark;
                self.inst.queue_depth[shard].add(1);
            }
        }
        self.merge_ready()
    }

    /// Failure injection (test/chaos hook): asks a shard to behave exactly
    /// as if one of its engines had panicked — it reports a premature
    /// `Done` (metrics up to the failure) and exits. The runtime then
    /// treats the shard as having left the pool: its buffered matches
    /// finalize, subsequent events routed to it count as dropped, and
    /// [`Runtime::shutdown`] neither signals nor waits for it. Queued
    /// messages ahead of the injection are still processed (channel FIFO).
    pub fn inject_worker_failure(&mut self, shard: usize) -> Result<(), RuntimeError> {
        if shard >= self.senders.len() {
            return Err(RuntimeError::InvalidConfig(format!(
                "no such shard {shard} (workers: {})",
                self.senders.len()
            )));
        }
        // send_to_shard handles every departure race: already finished, or
        // exited (naturally panicked) with the premature `Done` still
        // undrained — both are a graceful no-op, not an error.
        self.send_to_shard(shard, ShardMsg::Fail).map(|_| ())
    }

    /// Writes a consistent snapshot of the full runtime — per-shard engine
    /// state, reorder stage, merger frontier and buffered matches, metrics,
    /// dead letters — to `out`, and returns its [`CheckpointId`]. Restore
    /// with [`RuntimeBuilder::restore`] under the same configuration.
    ///
    /// Consistency comes from channel FIFO, not a global pause: a snapshot
    /// marker is sent down each live shard's input channel, so each shard
    /// serializes exactly after the batches dispatched before the marker.
    /// In-flight match output received while collecting the snapshots is
    /// folded into the merger and **serialized rather than emitted** —
    /// matches not yet returned to the caller at checkpoint time re-emerge
    /// exactly once from the restored runtime. The runtime continues
    /// normally afterwards; checkpointing is not a barrier for ingest
    /// correctness, only a blocking call while shard replies are collected.
    ///
    /// A shard that fails during the protocol degrades exactly like a
    /// worker failure during ingest: it is recorded in the checkpoint as
    /// already-departed.
    pub fn checkpoint<W: std::io::Write>(
        &mut self,
        out: &mut W,
    ) -> Result<CheckpointId, RuntimeError> {
        let start = Instant::now();
        let workers = self.senders.len();
        let mut blobs: Vec<Option<(u64, Vec<u8>)>> = (0..workers).map(|_| None).collect();
        let mut awaiting = vec![false; workers];
        let mut outstanding = 0usize;
        for (shard, pending) in awaiting.iter_mut().enumerate() {
            if !self.merge.is_finished(shard)
                && self.send_to_shard(shard, ShardMsg::Snapshot)?.is_none()
            {
                *pending = true;
                outstanding += 1;
            }
        }
        while outstanding > 0 {
            if self.snapshot_stash.is_empty() {
                match self.replies.recv() {
                    // Snapshot replies land in the stash; Output from
                    // batches queued ahead of the marker feeds the merger
                    // (buffered, not emitted); a premature Done is a shard
                    // dying mid-protocol — it leaves the pool as usual.
                    Ok(reply) => {
                        let done_shard = match &reply {
                            ShardReply::Done { shard, .. } => Some(*shard),
                            _ => None,
                        };
                        self.handle_reply(reply);
                        if let Some(shard) = done_shard {
                            if std::mem::replace(&mut awaiting[shard], false) {
                                outstanding -= 1;
                            }
                        }
                    }
                    Err(_) => return Err(RuntimeError::ChannelClosed),
                }
            }
            for (shard, seq, bytes) in std::mem::take(&mut self.snapshot_stash) {
                if std::mem::replace(&mut awaiting[shard], false) {
                    outstanding -= 1;
                }
                blobs[shard] = Some((seq, bytes));
            }
        }
        // In-flight output was folded into the merger, not emitted: the
        // gauges must say so until the next emit.
        self.publish_merge();
        self.checkpoint_seq += 1;
        let mut w = SnapshotWriter::new();
        w.u64(self.checkpoint_seq);
        w.u8(TAG_CONFIG);
        let fp = Fingerprint {
            workers,
            heartbeat_interval: self.heartbeat_interval,
            slack: self.slack,
            sources: self.sources,
            lateness: self.lateness,
        };
        write_fingerprint(&mut w, &fp, self.homes, &self.queries);
        w.u8(TAG_RUNTIME);
        w.u64(self.watermark);
        w.len(self.shard_sent.len());
        for ts in &self.shard_sent {
            w.u64(*ts);
        }
        w.len(self.queries.len());
        for state in &self.queries {
            w.u64(state.dropped);
        }
        w.u64(self.chunks_since_heartbeat as u64);
        w.len(self.queries.len());
        for state in &self.queries {
            state.metrics.write_snapshot(&mut w);
        }
        w.len(self.dead_letters.len());
        for e in &self.dead_letters {
            w.event(e);
        }
        w.len(self.last_chunk.len());
        for chunk in &self.last_chunk {
            w.opt_u64(chunk.as_ref().map(LastChunk::digest));
        }
        w.u8(TAG_MERGE);
        self.merge.write_snapshot(&mut w);
        w.u8(TAG_REORDER);
        match &self.reorder {
            Some(ro) => {
                w.bool(true);
                ro.write_snapshot(&mut w);
            }
            None => w.bool(false),
        }
        w.u8(TAG_SHARDS);
        w.len(workers);
        for (shard, blob) in blobs.iter().enumerate() {
            match (blob, self.merge.is_finished(shard)) {
                (Some((seq, bytes)), false) => {
                    w.bool(true);
                    w.u64(*seq);
                    w.blob(bytes);
                }
                // No blob (the shard had already left the pool), or the
                // shard died between its snapshot reply and now: persist it
                // as departed either way.
                _ => w.bool(false),
            }
        }
        w.u8(TAG_END);
        let total_bytes = (MAGIC.len() + 4 + w.bytes().len()) as u64;
        out.write_all(&MAGIC)
            .and_then(|()| out.write_all(&VERSION.to_le_bytes()))
            .and_then(|()| out.write_all(w.bytes()))
            .and_then(|()| out.flush())
            .map_err(|e| RuntimeError::Checkpoint(format!("writing checkpoint: {e}")))?;
        self.inst.checkpoints.inc();
        self.inst.checkpoint_bytes.add(total_bytes);
        self.inst.checkpoint_ns.observe(elapsed_ns(start));
        self.obs.trace.emit(
            self.watermark,
            None,
            None,
            TraceKind::CheckpointQuiesce,
            format!("id={} bytes={total_bytes}", self.checkpoint_seq),
        );
        Ok(CheckpointId(self.checkpoint_seq))
    }

    /// Validates the source index and applies the one-shot replay guard:
    /// returns `true` when this chunk is a recognized replay of the last
    /// pre-checkpoint chunk and must be skipped. Empty chunks (`None`)
    /// neither consult nor disarm the guard, and the chunk is hashed only
    /// while the guard is still armed.
    fn skip_replayed_chunk(
        &mut self,
        source: usize,
        chunk: Option<&LastChunk>,
    ) -> Result<bool, RuntimeError> {
        Self::check_source(source, self.sources)?;
        let Some(chunk) = chunk else { return Ok(false) };
        Ok(self.replay_guard[source].take().is_some_and(|expected| chunk.digest() == expected))
    }

    /// Drains in-flight batches, flushes every engine, stops the workers,
    /// and returns the remaining matches plus aggregated metrics. Rows
    /// still held back by the reorder stage are released to the shards
    /// first (end of stream: nothing can arrive before them anymore).
    pub fn shutdown(mut self) -> Result<RuntimeReport, RuntimeError> {
        let workers = self.senders.len();
        let tail = match self.reorder.as_mut() {
            Some(reorder) => reorder.flush(),
            None => Vec::new(),
        };
        for batch in &tail {
            self.dispatch_columns(batch)?;
        }
        for (shard, tx) in self.senders.iter().enumerate() {
            if !self.merge.is_finished(shard) {
                // A send failure means the shard just left the pool on the
                // failure path; its premature `Done` is (or will be) in the
                // reply queue and the loop below accounts for it.
                let _ = tx.send(ShardMsg::Shutdown);
            }
        }
        while self.merge.finished_count() < workers {
            match self.replies.recv() {
                Ok(reply) => self.handle_reply(reply),
                Err(_) => return Err(RuntimeError::ChannelClosed),
            }
        }
        self.senders.clear();
        for (shard, handle) in self.handles.drain(..).enumerate() {
            handle.join().map_err(|_| RuntimeError::WorkerLost(shard))?;
        }
        let matches = self.emit_ready(Instant::now());
        debug_assert_eq!(self.merge.pending(), 0, "all matches final after shutdown");
        let query_metrics: Vec<EngineMetrics> =
            self.queries.iter_mut().map(|s| std::mem::take(&mut s.metrics)).collect();
        let dropped: Vec<u64> = self.queries.iter().map(|s| s.dropped).collect();
        let mut metrics = EngineMetrics::default();
        for m in &query_metrics {
            metrics.merge(m);
        }
        // Report-level stamping, exactly once on the grand total: the
        // symbol-table stats describe one process-global source (live
        // engines keep the fields at zero — the live-queryable forms are
        // the `zstream_symbols_interned` / `zstream_symbol_bytes_saved`
        // gauges), and the reorder stage sits upstream of per-query
        // routing, so its counters also land on the grand total only.
        metrics.stamp_symbol_stats();
        let (late_events, reorder_buffered_peak) = self
            .reorder
            .as_ref()
            .map(|r| (r.late_count(), r.buffered_peak() as u64))
            .unwrap_or((0, 0));
        metrics.late_events += late_events;
        metrics.reorder_buffered_peak = metrics.reorder_buffered_peak.max(reorder_buffered_peak);
        Ok(RuntimeReport {
            matches,
            query_metrics,
            metrics,
            dropped,
            workers,
            late_events,
            reorder_buffered_peak,
            dead_letters: std::mem::take(&mut self.dead_letters),
        })
    }

    /// Records one admitted ingest call on the source's counters plus a
    /// batch-level trace event. Called after source validation (the
    /// per-source handle vectors are indexed by source id) and after a
    /// `Strict` rejection would have returned — rejected calls leave no
    /// ingest footprint, matching their all-or-nothing contract.
    fn record_ingest(&self, source: usize, rows: usize) {
        self.inst.ingest_batches[source].inc();
        self.inst.ingest_events[source].add(rows as u64);
        self.obs.trace.emit(
            self.watermark,
            None,
            None,
            TraceKind::Ingest,
            format!("source={source} rows={rows}"),
        );
    }

    /// Records a columnar reorder-release outcome: late rows attributed
    /// to the delivering source, released row count, per-batch release
    /// lag (frontier minus the batch's newest timestamp — how far behind
    /// the frontier rows leave the buffer), and a trace event.
    fn record_release(&self, source: usize, release: &BatchRelease, frontier: Ts) {
        if !release.late.is_empty() {
            self.inst.reorder_late[source].add(release.late.len() as u64);
        }
        let rows = release.released_rows() as u64;
        if rows == 0 {
            return;
        }
        self.inst.reorder_released_rows.add(rows);
        for batch in &release.batches {
            if let Some(last) = batch.last_ts() {
                self.inst.release_lag.observe(frontier.saturating_sub(last));
            }
        }
        self.obs.trace.emit(
            frontier,
            None,
            None,
            TraceKind::ReorderRelease,
            format!("rows={rows} batches={}", release.batches.len()),
        );
    }

    /// Publishes the reorder stage's pressure gauges from its scrape
    /// surface ([`ColumnarReorder::stats`]). No-op without a stage.
    fn publish_reorder(&self) {
        if let Some(reorder) = &self.reorder {
            let stats = reorder.stats();
            self.inst.reorder_pending.set(stats.pending as u64);
            self.inst.reorder_peak.raise(stats.buffered_peak as u64);
        }
    }

    /// One pass of the merge stage: folds every reply that has arrived into
    /// the merger (non-blocking) and emits what became final.
    fn merge_ready(&mut self) -> Result<Vec<RuntimeMatch>, RuntimeError> {
        let start = Instant::now();
        self.drain_replies()?;
        Ok(self.emit_ready(start))
    }

    /// Publishes the merge-plane gauges (`zstream_merge_pending`,
    /// `zstream_merge_frontier_lag`).
    fn publish_merge(&self) {
        self.inst.merge_pending.set(self.merge.pending() as u64);
        let lag = self.merge.frontier().map_or(0, |f| self.watermark.saturating_sub(f));
        self.inst.merge_frontier_lag.set(lag);
    }

    /// Drains finality-released matches from the merger, publishing the
    /// merge-plane gauges, the pass's `zstream_merge_ns` observation
    /// (measured from `since`) and a trace event when matches emit — every
    /// public path that surfaces matches funnels here.
    fn emit_ready(&mut self, since: Instant) -> Vec<RuntimeMatch> {
        let out = self.merge.drain_ready();
        self.publish_merge();
        self.inst.merge_ns.observe(elapsed_ns(since));
        if !out.is_empty() {
            self.obs.trace.emit(
                self.watermark,
                None,
                None,
                TraceKind::MergeEmit,
                format!("matches={}", out.len()),
            );
        }
        out
    }

    /// Retains late events for [`Runtime::take_late_events`], compacted
    /// into fresh storage first — a retained raw handle would pin its
    /// entire source batch (every row, every column) for as long as the
    /// dead letter lives, turning a 0.1% straggler rate into a footprint
    /// approaching the whole stream.
    fn retain_dead_letters(&mut self, late: &[EventRef]) {
        if late.is_empty() {
            return;
        }
        self.dead_letters.extend(repack_events(late).iter().flat_map(EventBatch::iter));
    }

    /// Validates an ingest source index against the configured source
    /// count (associated fn: callable while the reorder stage is borrowed).
    fn check_source(source: usize, sources: usize) -> Result<(), RuntimeError> {
        if source >= sources {
            return Err(RuntimeError::InvalidConfig(format!(
                "no such ingest source {source} (sources: {sources})"
            )));
        }
        Ok(())
    }

    /// Routes one columnar chunk: per distinct hash field, **one** scan of
    /// the key column into per-shard selection vectors (shared by `Arc`
    /// among every query hash-routed on that field); per single-home query,
    /// an `All` selection to its home shard. Shards owning no rows of this
    /// chunk receive nothing (heartbeats cover their watermark).
    fn dispatch_columns(&mut self, batch: &EventBatch) -> Result<(), RuntimeError> {
        if batch.is_empty() {
            return Ok(());
        }
        let last_ts = batch.last_ts().expect("non-empty batch");
        debug_assert!(
            batch.ts_column()[0] >= self.watermark
                && batch.ts_column().windows(2).all(|w| w[0] <= w[1]),
            "ingest must be time-ordered"
        );
        self.watermark = self.watermark.max(last_ts);
        let workers = self.senders.len();
        let nq = self.queries.len();
        // Lazily-allocated per-shard message payloads: only shards that own
        // rows pay for a message this chunk. Slots are registry slots, so
        // tombstoned and paused queries keep their `Skip` entry.
        let mut per_shard: Vec<Option<Vec<RowSel>>> = Vec::new();
        per_shard.resize_with(workers, || None);
        let select =
            |shard: usize, q: usize, sel: RowSel, per_shard: &mut Vec<Option<Vec<RowSel>>>| {
                per_shard[shard].get_or_insert_with(|| {
                    let mut v = Vec::with_capacity(nq);
                    v.resize_with(nq, || RowSel::Skip);
                    v
                })[q] = sel;
            };
        // Key-column scans memoized per field: several queries hash-routed
        // on one field share a single scan and its selection vectors.
        /// Per-shard shared selections plus the field's dropped-row count.
        type FieldSplit = (Vec<Arc<Vec<u32>>>, u64);
        let mut field_splits: HashMap<&str, FieldSplit> = HashMap::new();
        // Dropped rows collected per slot while `field_splits` borrows the
        // defs; folded into the registry after the scan loop.
        let mut drops = vec![0u64; nq];
        for (q, state) in self.queries.iter().enumerate() {
            let Some(def) = state.def.as_deref() else { continue };
            if state.paused {
                continue;
            }
            match &def.route {
                Route::Hash(field) => {
                    let (shards, split_dropped) =
                        field_splits.entry(field.as_str()).or_insert_with(|| {
                            let split = split_batch_rows(batch, field, workers);
                            (split.shards.into_iter().map(Arc::new).collect(), split.dropped)
                        });
                    drops[q] += *split_dropped;
                    for (shard, rows) in shards.iter().enumerate() {
                        if rows.is_empty() {
                            continue;
                        }
                        if self.merge.is_finished(shard) {
                            drops[q] += rows.len() as u64;
                            continue;
                        }
                        select(shard, q, RowSel::Rows(Arc::clone(rows)), &mut per_shard);
                    }
                }
                Route::Single(home) => {
                    if self.merge.is_finished(*home) {
                        drops[q] += batch.len() as u64;
                    } else {
                        select(*home, q, RowSel::All, &mut per_shard);
                    }
                }
            }
        }
        drop(field_splits);
        for (state, d) in self.queries.iter_mut().zip(&drops) {
            state.dropped += d;
        }
        let rows_of = |sel: &RowSel| match sel {
            RowSel::Skip => 0,
            RowSel::All => batch.len() as u64,
            RowSel::Rows(rows) => rows.len() as u64,
        };
        let mut sent = vec![false; workers];
        for (shard, payload) in per_shard.into_iter().enumerate() {
            let Some(per_query) = payload else { continue };
            let sel_rows: u64 = per_query.iter().map(rows_of).sum();
            let msg =
                ShardMsg::Columns { watermark: self.watermark, batch: batch.clone(), per_query };
            match self.send_to_shard(shard, msg)? {
                None => {
                    self.shard_sent[shard] = self.watermark;
                    sent[shard] = true;
                    self.obs.trace.emit(
                        self.watermark,
                        Some(shard as u32),
                        None,
                        TraceKind::ShardDispatch,
                        format!("rows={sel_rows}"),
                    );
                }
                // The shard left the pool mid-chunk: account its rows as
                // dropped, from the returned (undelivered) message.
                Some(ShardMsg::Columns { per_query, .. }) => {
                    for (state, sel) in self.queries.iter_mut().zip(&per_query) {
                        state.dropped += rows_of(sel);
                    }
                }
                Some(_) => unreachable!("send_to_shard returns the message it was given"),
            }
        }
        self.heartbeat_idle(&sent)
    }

    /// Periodic watermark heartbeat: every `heartbeat_interval` chunks, any
    /// live shard that saw no traffic and lags the stream watermark gets a
    /// watermark-only message so the merge frontier keeps moving.
    fn heartbeat_idle(&mut self, sent: &[bool]) -> Result<(), RuntimeError> {
        self.chunks_since_heartbeat += 1;
        if self.chunks_since_heartbeat < self.heartbeat_interval {
            return Ok(());
        }
        self.chunks_since_heartbeat = 0;
        for (shard, had_traffic) in sent.iter().enumerate() {
            if *had_traffic
                || self.merge.is_finished(shard)
                || self.shard_sent[shard] >= self.watermark
            {
                continue;
            }
            let msg = ShardMsg::Heartbeat { watermark: self.watermark };
            if self.send_to_shard(shard, msg)?.is_none() {
                self.shard_sent[shard] = self.watermark;
            }
        }
        Ok(())
    }

    /// Sends one message to a live shard. `Ok(None)` means delivered;
    /// `Ok(Some(msg))` returns the undelivered message because the shard
    /// has left the pool — either it was already finished, or the send
    /// failed and draining the reply channel confirmed a premature `Done`
    /// (callers derive dropped-row accounting from the returned message
    /// on that rare path, keeping the delivery path allocation-free). A
    /// send failure without a `Done` is a genuinely lost worker.
    fn send_to_shard(
        &mut self,
        shard: usize,
        msg: ShardMsg,
    ) -> Result<Option<ShardMsg>, RuntimeError> {
        if self.merge.is_finished(shard) {
            return Ok(Some(msg));
        }
        // Traffic messages are answered with exactly one `Output`, so the
        // queue-depth gauge pairs this increment with the decrement in
        // `handle_reply`. Snapshot markers answer on another reply arm and
        // are not traffic.
        let traffic = matches!(msg, ShardMsg::Columns { .. } | ShardMsg::Heartbeat { .. });
        let msg = match self.senders[shard].send(msg) {
            Ok(()) => {
                if traffic {
                    self.inst.queue_depth[shard].add(1);
                }
                return Ok(None);
            }
            Err(undelivered) => undelivered.0,
        };
        self.drain_replies()?;
        if self.merge.is_finished(shard) {
            Ok(Some(msg))
        } else {
            Err(RuntimeError::WorkerLost(shard))
        }
    }

    /// Non-blocking drain of the reply channel into the merger.
    fn drain_replies(&mut self) -> Result<(), RuntimeError> {
        loop {
            match self.replies.try_recv() {
                Ok(reply) => self.handle_reply(reply),
                Err(TryRecvError::Empty) => return Ok(()),
                Err(TryRecvError::Disconnected) => {
                    // Every worker is gone. If each one reported a `Done`
                    // first, this is the fully-degraded-but-valid state the
                    // failure contract documents (every event drops, all
                    // matches are final) — not an error. A disconnect with
                    // a shard unaccounted for is a genuinely lost worker.
                    return if self.merge.finished_count() == self.senders.len() {
                        Ok(())
                    } else {
                        Err(RuntimeError::ChannelClosed)
                    };
                }
            }
        }
    }

    /// The one reply handler shared by [`Runtime::poll`], ingest drains and
    /// [`Runtime::shutdown`]: `Output` feeds the merger; `Done` — terminal
    /// or premature after a worker failure — records the shard's metrics
    /// and retires it from the pool, so a dead shard can never wedge the
    /// watermark frontier.
    fn handle_reply(&mut self, reply: ShardReply) {
        match reply {
            ShardReply::Output { shard, watermark, mut matches } => {
                self.inst.queue_depth[shard].sub(1);
                // Matches of a query dropped after this batch was
                // dispatched (channel-FIFO race) must not surface — the
                // drop purged its buffered matches already.
                let queries = &self.queries;
                matches.retain(|m| queries.get(m.query.0).is_some_and(QueryState::is_live));
                self.merge.offer(shard, matches);
                self.merge.advance(shard, watermark);
            }
            ShardReply::Done { shard, metrics } => {
                // The shard left the pool; whatever was still queued to it
                // will never be evaluated, so its depth gauge reads zero.
                // The metrics vector is slot-aligned to the shard's view of
                // the registry, which trails ours only when the shard died
                // before processing a Create — `zip` truncates safely.
                self.inst.queue_depth[shard].set(0);
                if !self.merge.is_finished(shard) {
                    for (state, m) in self.queries.iter_mut().zip(&metrics) {
                        state.metrics.merge(m);
                    }
                    self.merge.finish(shard);
                }
            }
            ShardReply::Retired { shard, slot, metrics } => {
                // A dropped query's final per-shard metrics: folded into
                // the tombstone so the query's work stays reported.
                if let Some(state) = self.queries.get_mut(slot) {
                    state.metrics.merge(&metrics);
                }
                let q = format!("q{slot}");
                self.obs.trace.emit(
                    self.watermark,
                    Some(shard as u32),
                    Some(&q),
                    TraceKind::Lifecycle,
                    "retired".to_string(),
                );
            }
            ShardReply::Snapshot { shard, seq, bytes } => {
                self.snapshot_stash.push((shard, seq, bytes));
            }
        }
    }
}

impl Drop for Runtime {
    /// Dropping without [`Runtime::shutdown`] still stops the workers:
    /// closing the input channels ends their receive loops, and joining
    /// prevents leaked threads.
    fn drop(&mut self) {
        self.senders.clear();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// The state a runtime starts from: empty for [`RuntimeBuilder::build`],
/// decoded from a checkpoint by [`RuntimeBuilder::restore`].
struct Resume<'a> {
    checkpoint_seq: u64,
    queries: Vec<QueryState>,
    homes: usize,
    watermark: Ts,
    shard_sent: Vec<Ts>,
    chunks_since_heartbeat: usize,
    dead_letters: Vec<EventRef>,
    replay_guard: Vec<Option<u64>>,
    merge: OrderedMerge,
    reorder: Option<ColumnarReorder>,
    shards: Vec<ShardStart<'a>>,
}

/// How one shard starts: `None` if it had left the pool, else its emission
/// `seq` and its engine blob (`None`: fresh engines).
type ShardStart<'a> = Option<(u64, Option<&'a [u8]>)>;

/// What the runtime keeps of a source's last non-empty ingest chunk, for
/// the replay-guard digest a checkpoint records.
#[derive(Debug)]
enum LastChunk {
    /// The digest itself: restored from a checkpoint and not yet
    /// overwritten.
    Digest(u64),
    /// The chunk, hashed only if a checkpoint is taken before the next
    /// ingest replaces it. Pins the caller's batch storage until then.
    Batch(EventBatch),
}

impl LastChunk {
    fn digest(&self) -> u64 {
        match self {
            LastChunk::Digest(d) => *d,
            LastChunk::Batch(batch) => chunk_digest(batch),
        }
    }
}

/// Folds one u64 into an FNV-1a hash, byte by byte.
fn fnv_mix(h: &mut u64, v: u64) {
    for b in v.to_le_bytes() {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x100_0000_01b3);
    }
}

/// Content digest of one ingest chunk: length, per-row timestamp, and every
/// field value folded via its canonical [`zstream_events::HashableValue`]
/// digest. Stable across processes — symbol ids never enter, string values
/// fold via content digests — which is what lets a restored runtime
/// recognize a replayed chunk it never saw in this process.
fn chunk_digest(batch: &EventBatch) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    fnv_mix(&mut h, batch.len() as u64);
    for e in batch.iter() {
        fnv_mix(&mut h, e.ts());
        for i in 0..e.schema().fields().len() {
            fnv_mix(&mut h, e.value(i).hash_key().digest());
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use zstream_events::stock;

    /// The replay-guard digest is an on-disk contract: a checkpoint written
    /// by one build must arm the guard of the next. The constant is what the
    /// commit before the digest became lazy produced for these rows.
    #[test]
    fn chunk_digest_is_pinned() {
        let rows = [
            stock(1, 10, "IBM", 101.5, 300),
            stock(2, 11, "Sun", 7.25, 40),
            stock(2, 12, "Oracle", 55.0, 5),
        ];
        let batch = EventBatch::from_events(&rows).unwrap();
        const PINNED: u64 = 0xb328_0739_ac58_70fd;
        assert_eq!(chunk_digest(&batch), PINNED);
        assert_eq!(LastChunk::Batch(batch).digest(), PINNED, "retained chunks hash the same");
    }
}
