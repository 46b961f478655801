//! Control-thread instrument handles for the runtime pipeline.
//!
//! [`RtInstruments::register`] claims every pipeline-level instrument in
//! the hub's registry once, at [`crate::RuntimeBuilder::build`] /
//! `restore` time; the runtime then records through plain handles on the
//! hot path (relaxed atomic ops, no registry lookups). Per-source and
//! per-shard instruments are pre-registered as handle vectors indexed by
//! source / shard id, so ingest and dispatch never format a label.
//!
//! Two time accounts are defined here because the bench harness and the
//! operator read them as shares of wall time (their one-line definitions
//! are pinned in `tests/fixtures/metrics_schema.txt`).
//! `zstream_shard_service_ns` ([`ShardInstruments`], recorded by the shard
//! thread) covers everything a shard does for one traffic message —
//! evaluation, with matches packed as ids, then numbering and sorting the
//! reply — up to, but not including, the reply-channel send; no match is
//! built there. `zstream_merge_ns` covers the control thread's merge stage:
//! one observation per pass that folds the replies that have arrived into
//! the merger — building each match's `Record` on the way in — and emits
//! what became final (once per `ingest_columns` / `poll` call; `shutdown`
//! records its final emit, not its blocking wait).
//!
//! The two symbol-table gauges are registered as scrape-time sources
//! ([`zstream_obs::Registry::gauge_fn`]) with **Max** fold: the interner
//! is process-global, so several runtimes sharing one hub each report the
//! same truth and the fold deduplicates instead of double-counting.

use std::time::Instant;

use zstream_obs::{labels, Counter, Gauge, GaugeFold, Histogram, Obs};

/// Nanoseconds since `start`, as a histogram observation.
pub(crate) fn elapsed_ns(start: Instant) -> u64 {
    start.elapsed().as_nanos().min(u64::MAX as u128) as u64
}

/// The instrument handles a shard thread takes with it, all labelled
/// `{shard}`.
#[derive(Debug)]
pub(crate) struct ShardInstruments {
    /// `zstream_shard_service_ns` (see the module docs for what it times).
    pub service_ns: Histogram,
    /// `zstream_intake_engines_skipped_total` — engine-batches the shard
    /// settled without entering the engine, because the shared predicate
    /// index showed every class mask of the query empty for the batch. An
    /// engine shared by several identical registrations counts once per
    /// batch, not once per subscriber.
    pub engines_skipped: Counter,
    /// `zstream_shard_engines` — physical engines the shard hosts: one per
    /// group of identical registrations. Beside `zstream_queries_live` it
    /// shows what sharing saved.
    pub engines: Gauge,
    /// `zstream_intake_class_masks` — distinct class conjunctions interned
    /// in the shard's shared predicate index (0 with shared intake off).
    pub class_masks: Gauge,
}

impl ShardInstruments {
    /// Registers shard `shard`'s instruments in `hub`.
    pub fn register(hub: &Obs, shard: usize) -> ShardInstruments {
        let l = labels(&[("shard", &shard.to_string())]);
        ShardInstruments {
            service_ns: hub.metrics.histogram("zstream_shard_service_ns", l.clone()),
            engines_skipped: hub.metrics.counter("zstream_intake_engines_skipped_total", l.clone()),
            engines: hub.metrics.gauge("zstream_shard_engines", l.clone(), GaugeFold::Sum),
            class_masks: hub.metrics.gauge("zstream_intake_class_masks", l, GaugeFold::Sum),
        }
    }
}

/// Pipeline-level instrument handles, owned by the runtime's control
/// thread. Shard- and engine-level instruments live with their threads
/// (see [`crate::shard`] and `zstream_core::EngineObs`).
#[derive(Debug)]
pub(crate) struct RtInstruments {
    /// `zstream_ingest_events_total{source}` — rows offered per source.
    pub ingest_events: Vec<Counter>,
    /// `zstream_ingest_batches_total{source}` — ingest calls per source.
    pub ingest_batches: Vec<Counter>,
    /// `zstream_reorder_late_total{source}` — rows beyond the slack
    /// window, attributed to the source that delivered them.
    pub reorder_late: Vec<Counter>,
    /// `zstream_reorder_released_rows_total` — rows the reorder stage has
    /// released to routing in time order.
    pub reorder_released_rows: Counter,
    /// `zstream_reorder_pending` — rows currently held back.
    pub reorder_pending: Gauge,
    /// `zstream_reorder_buffered_peak` — high-water mark of held rows.
    pub reorder_peak: Gauge,
    /// `zstream_reorder_release_lag` — event-time distance between the
    /// release frontier and the newest row of each released batch.
    pub release_lag: Histogram,
    /// `zstream_shard_queue_depth{shard}` — traffic messages in flight to
    /// each shard (sent, not yet answered with an `Output`).
    pub queue_depth: Vec<Gauge>,
    /// `zstream_merge_pending` — matches buffered awaiting finality.
    pub merge_pending: Gauge,
    /// `zstream_merge_frontier_lag` — stream watermark minus the merge
    /// frontier: how far finality trails ingest.
    pub merge_frontier_lag: Gauge,
    /// `zstream_merge_ns` — control-thread time per merge pass (fold
    /// arrived replies into the merger + emit what became final).
    pub merge_ns: Histogram,
    /// `zstream_checkpoints_total` — checkpoints written.
    pub checkpoints: Counter,
    /// `zstream_checkpoint_bytes_total` — serialized checkpoint bytes.
    pub checkpoint_bytes: Counter,
    /// `zstream_checkpoint_duration_ns` — wall time of the checkpoint
    /// call (quiesce round-trip + serialization + write).
    pub checkpoint_ns: Histogram,
    /// `zstream_queries_live` — registered queries currently live (slots
    /// minus tombstones); follows [`crate::Runtime::create`] /
    /// [`crate::Runtime::drop_query`].
    pub queries_live: Gauge,
}

impl RtInstruments {
    /// Registers every pipeline-level instrument (and the process-global
    /// symbol-table gauge sources) in `hub`.
    pub fn register(hub: &Obs, sources: usize, workers: usize) -> RtInstruments {
        let per_source = |name: &str| -> Vec<Counter> {
            (0..sources)
                .map(|s| hub.metrics.counter(name, labels(&[("source", &s.to_string())])))
                .collect()
        };
        hub.metrics.gauge_fn("zstream_symbols_interned", labels(&[]), GaugeFold::Max, || {
            zstream_events::symbol_stats().symbols
        });
        hub.metrics.gauge_fn("zstream_symbol_bytes_saved", labels(&[]), GaugeFold::Max, || {
            zstream_events::symbol_stats().bytes_saved
        });
        RtInstruments {
            ingest_events: per_source("zstream_ingest_events_total"),
            ingest_batches: per_source("zstream_ingest_batches_total"),
            reorder_late: per_source("zstream_reorder_late_total"),
            reorder_released_rows: hub
                .metrics
                .counter("zstream_reorder_released_rows_total", labels(&[])),
            reorder_pending: hub.metrics.gauge(
                "zstream_reorder_pending",
                labels(&[]),
                GaugeFold::Sum,
            ),
            reorder_peak: hub.metrics.gauge(
                "zstream_reorder_buffered_peak",
                labels(&[]),
                GaugeFold::Max,
            ),
            release_lag: hub.metrics.histogram("zstream_reorder_release_lag", labels(&[])),
            queue_depth: (0..workers)
                .map(|s| {
                    hub.metrics.gauge(
                        "zstream_shard_queue_depth",
                        labels(&[("shard", &s.to_string())]),
                        GaugeFold::Sum,
                    )
                })
                .collect(),
            merge_pending: hub.metrics.gauge("zstream_merge_pending", labels(&[]), GaugeFold::Sum),
            merge_frontier_lag: hub.metrics.gauge(
                "zstream_merge_frontier_lag",
                labels(&[]),
                GaugeFold::Sum,
            ),
            merge_ns: hub.metrics.histogram("zstream_merge_ns", labels(&[])),
            checkpoints: hub.metrics.counter("zstream_checkpoints_total", labels(&[])),
            checkpoint_bytes: hub.metrics.counter("zstream_checkpoint_bytes_total", labels(&[])),
            checkpoint_ns: hub.metrics.histogram("zstream_checkpoint_duration_ns", labels(&[])),
            queries_live: hub.metrics.gauge("zstream_queries_live", labels(&[]), GaugeFold::Sum),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registers_per_source_and_per_shard_families() {
        let hub = Obs::new();
        let inst = RtInstruments::register(&hub, 3, 2);
        assert_eq!(inst.ingest_events.len(), 3);
        assert_eq!(inst.queue_depth.len(), 2);
        inst.ingest_events[2].add(7);
        inst.queue_depth[1].set(4);
        let snap = hub.snapshot();
        assert_eq!(
            snap.counter_total("zstream_ingest_events_total"),
            7,
            "label families fold across sources"
        );
        let s = snap
            .sample("zstream_shard_queue_depth", &labels(&[("shard", "1")]))
            .expect("per-shard gauge registered");
        assert!(matches!(s.value, zstream_obs::MetricValue::Gauge(4)));
    }

    #[test]
    fn symbol_gauges_dedup_across_runtimes_sharing_a_hub() {
        let hub = Obs::new();
        let _a = RtInstruments::register(&hub, 1, 1);
        let _b = RtInstruments::register(&hub, 1, 1);
        zstream_events::Sym::intern("instruments-dedup-probe");
        let truth = zstream_events::symbol_stats().symbols;
        let snap = hub.snapshot();
        let got = snap.gauge_value("zstream_symbols_interned").expect("gauge registered");
        // Max fold: two registrations of the same global source must not
        // double it. The table is process-global and other tests intern
        // concurrently, so allow growth but never a doubling.
        assert!(got >= truth && got < truth * 2, "got {got}, table had {truth}");
    }
}
