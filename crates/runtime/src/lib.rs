//! Sharded, multi-threaded execution runtime for ZStream.
//!
//! The paper evaluates equality-connected patterns independently per hash
//! partition (§4.1, Figures 3–4) but on a single thread. This crate scales
//! that idea out: a [`Runtime`] owns N worker **shards** (OS threads), each
//! running its own engines over a disjoint subset of partition keys, so the
//! shards share nothing and scale with cores. Plan choice stays with the
//! cost-based optimizer — sharding never changes *what* is matched, only
//! where it is evaluated.
//!
//! ## Architecture
//!
//! ```text
//!     ingest_columns(&EventBatch)          bounded channels (backpressure)
//!  caller ───────────────► router ──┬────► shard 0 (PartitionedEngine / Engine per query group)
//!        one key-column scan,       ├────► shard 1        …
//!        Arc<batch> + selection     └────► shard N-1      …
//!        vectors per shard                     │ matches + watermarks
//!                           ordered merge ◄────┘
//!                     (end_ts, shard, seq) ──► finalized matches
//! ```
//!
//! * **Registry & lifecycle** — several compiled queries
//!   ([`zstream_core::CompiledParts`]) share the one ingest path; each has
//!   its own [`Partitioning`] policy and [`QueryId`]. The query set is
//!   *live*: [`Runtime::create`] adds a query mid-stream (it sees exactly
//!   the events ingested after the call), [`Runtime::pause`] /
//!   [`Runtime::resume`] freeze and continue a query's windows router-side,
//!   and [`Runtime::drop_query`] retires its engines and purges its
//!   buffered matches. `QueryId`s are stable tombstoned slots — never
//!   recycled, so a dropped query's metrics keep their index in
//!   [`RuntimeReport`] — and lifecycle state (tombstones, pause flags,
//!   routes) survives checkpoint/restore.
//! * **Shared predicate index** — overlapping intake conjuncts across
//!   registered queries, and the per-class conjunctions of them, are
//!   interned per shard ([`zstream_core::SharedPredIndex`]): each distinct
//!   column predicate and each distinct conjunction evaluates at most once
//!   per batch, every subscriber reads `(mask, count)`, and a home-shard
//!   query whose every class mask is empty for a batch is settled by a
//!   counter bump without its engine being entered — intake cost follows
//!   distinct predicates plus queries that admit a row, not registered
//!   queries (match output and metrics are those of each query's engine
//!   running alone).
//! * **Shared engines** — registrations with equal definitions (compiled
//!   parts and route) run one engine per shard, whose matches are copied to
//!   each subscriber's slot; a subscriber whose rows diverge (a pause) is
//!   split onto a copy of the engine. Every subscriber's matches, metrics,
//!   per-query instruments and checkpoint bytes are those of an engine of
//!   its own; `zstream_shard_engines` counts the engines actually run.
//! * **One way in** — [`Runtime::ingest_columns`] routes a whole
//!   [`zstream_events::EventBatch`] with one scan of each hash query's key
//!   column ([`zstream_events::split_batch_rows`], memoized symbol
//!   digests), then ships the batch to each owning shard as an `Arc` bump
//!   plus a row-selection vector — zero copies, no per-event handles on the
//!   router. Shards evaluate through
//!   [`zstream_core::PartitionedEngine::push_rows`] /
//!   [`zstream_core::Engine::push_rows`]. Callers holding event slices
//!   convert them once with [`zstream_events::repack_events`].
//! * **Routing** — for a query whose equality predicates connect all
//!   classes on a field ([`zstream_core::can_partition_by`]), each event
//!   goes to `hash(key) mod N` ([`zstream_events::shard_of`]); the shard
//!   runs a [`zstream_core::PartitionedEngine`] over its key subset.
//!   Queries that cannot be partitioned fall back to a single home shard
//!   running a plain [`zstream_core::Engine`] — correct, just not parallel
//!   for that query.
//! * **Backpressure** — shard input channels are bounded
//!   ([`RuntimeBuilder::channel_capacity`] batches); a slow shard blocks
//!   ingest instead of buffering unboundedly.
//! * **Event time & disorder** — with [`RuntimeBuilder::slack`] set, a
//!   columnar §4.1 reordering stage ([`zstream_events::ColumnarReorder`])
//!   fronts the router: events may arrive out of order (batches may even be
//!   unsorted), are buffered within the slack window, and release to the
//!   shards in time order as the per-source watermarks advance
//!   ([`RuntimeBuilder::sources`]). Events beyond the slack are *late* and
//!   handled per [`LatenessPolicy`] (drop / dead-letter / strict error);
//!   the merge frontier is driven by the reorder release frontier
//!   `min(per-source high-water) − slack` instead of raw arrival order.
//! * **Watermarks ride traffic** — shards learn the stream watermark from
//!   their own batch messages; shards a chunk skips get an explicit
//!   heartbeat only every [`RuntimeBuilder::heartbeat_interval`] chunks
//!   (idle shards cost ~nothing, and nothing is broadcast per chunk), and
//!   [`Runtime::poll`] heartbeats lagging shards on demand so finality
//!   never waits for more ingest.
//! * **Ordered merge** — shards report matches asynchronously; the merger
//!   restores a deterministic total order (composite end-timestamp, then
//!   shard id, then per-shard sequence) and releases a match only once
//!   every live shard's watermark has passed its end timestamp.
//! * **Late-materialised output** — a shard replies with its matches
//!   packed as `(source batch, row)` ids
//!   ([`zstream_events::MatchBatch`]); the control thread builds each
//!   [`RuntimeMatch`]'s `Record` once, as it accepts the reply, so the
//!   thread that allocates a match is the thread that frees it.
//! * **Worker failure** — a panicking shard engine is contained: the shard
//!   reports a final `Done` and leaves the pool; its metrics are kept, its
//!   buffered matches finalize (it can no longer hold the frontier), later
//!   events routed to it count as dropped, and shutdown completes normally.
//! * **Shutdown** — [`Runtime::shutdown`] drains in-flight batches (channel
//!   FIFO), flushes every engine, joins the workers, and returns the
//!   remaining matches plus per-query [`zstream_core::EngineMetrics`]
//!   aggregated across shards.
//!
//! ## Quickstart
//!
//! ```
//! use std::sync::Arc;
//! use zstream_core::EngineBuilder;
//! use zstream_runtime::{Partitioning, Runtime};
//! use zstream_events::{stock, EventBatch};
//!
//! let mut builder = Runtime::builder().workers(2);
//! let q = builder.register(
//!     EngineBuilder::parse("PATTERN A; B WHERE A.name = B.name WITHIN 100")
//!         .unwrap()
//!         .compile()
//!         .unwrap(),
//!     Partitioning::Auto("name".into()),
//! );
//! let mut runtime = builder.build().unwrap();
//!
//! // Columnar fast path: one batch, one routing scan, zero-copy fan-out.
//! let batch = EventBatch::from_events(&[
//!     stock(1, 1, "IBM", 10.0, 1),
//!     stock(2, 2, "Sun", 11.0, 1),
//!     stock(3, 3, "IBM", 12.0, 1),
//!     stock(4, 4, "Sun", 13.0, 1),
//! ])
//! .unwrap();
//! let mut matches = runtime.ingest_columns(&batch).unwrap();
//! let report = runtime.shutdown().unwrap();
//! matches.extend(report.matches);
//! assert_eq!(matches.len(), 2); // IBM;IBM and Sun;Sun
//! assert!(matches.iter().all(|m| m.query == q));
//! ```

mod checkpoint;
mod error;
mod instruments;
mod merge;
mod registry;
mod runtime;
mod shard;

pub use checkpoint::CheckpointId;
pub use error::RuntimeError;
pub use merge::RuntimeMatch;
pub use registry::{Partitioning, QueryId, Route};
pub use runtime::{LatenessPolicy, Runtime, RuntimeBuilder, RuntimeReport};
