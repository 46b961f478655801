//! Engine-side observability wiring.
//!
//! [`EngineObs`] bundles the instrument handles one engine (or one shard's
//! worth of partition engines) records into. Handles are registered once
//! per worker thread — each registration owns private atomic cells, so
//! engines on different shards never contend — and cloning an `EngineObs`
//! *shares* its cells, which is exactly what [`crate::PartitionedEngine`]
//! wants: all per-key engines inside one shard fold into the same cells
//! (they get the counters and histogram, not the trace ring — the
//! partitioned engine traces once per batch on their behalf).
//!
//! An engine without an `EngineObs` attached (the default) records
//! nothing and pays nothing: every hook is behind an `Option` check.

use std::sync::Arc;

use zstream_obs::{labels, Counter, Histogram, Obs, TraceKind, TraceRing};

/// Instrument handles for one engine's hot path.
#[derive(Debug, Clone)]
pub struct EngineObs {
    /// `zstream_query_admitted_total{query}` — events admitted into at
    /// least one leaf buffer after intake predicates.
    pub admitted: Counter,
    /// `zstream_query_matched_total{query}` — composite matches emitted.
    pub matched: Counter,
    /// `zstream_engine_round_ns{query}` — wall time of non-idle assembly
    /// rounds (§4.3), nanoseconds.
    pub round_ns: Histogram,
    /// `zstream_kernel_rows_evaluated_total{query}` — rows covered by
    /// columnar filter-kernel evaluations (batch length × distinct
    /// predicates evaluated per batch).
    pub kernel_rows_evaluated: Counter,
    /// `zstream_kernel_fallback_rows_total{query}` — rows that went through
    /// a row-at-a-time intake path instead of a kernel: sparse selections
    /// and `General` predicates with no columnar kernel.
    pub kernel_fallback_rows: Counter,
    /// Trace ring for batch-level `assembly_round` events; `None`
    /// disables tracing while keeping the counters.
    pub trace: Option<Arc<TraceRing>>,
    /// Query label (e.g. `"q0"`).
    pub query: String,
    /// Shard id for trace events, when shard-scoped.
    pub shard: Option<u32>,
}

impl EngineObs {
    /// Registers this worker's cells under `query` in `hub`'s registry.
    /// Call once per worker thread; clones share the registered cells.
    pub fn register(
        hub: &Obs,
        query: &str,
        shard: Option<u32>,
        trace: Option<Arc<TraceRing>>,
    ) -> EngineObs {
        let l = labels(&[("query", query)]);
        EngineObs {
            admitted: hub.metrics.counter("zstream_query_admitted_total", l.clone()),
            matched: hub.metrics.counter("zstream_query_matched_total", l.clone()),
            round_ns: hub.metrics.histogram("zstream_engine_round_ns", l.clone()),
            kernel_rows_evaluated: hub
                .metrics
                .counter("zstream_kernel_rows_evaluated_total", l.clone()),
            kernel_fallback_rows: hub.metrics.counter("zstream_kernel_fallback_rows_total", l),
            trace,
            query: query.to_string(),
            shard,
        }
    }

    /// The same counter and histogram cells without the trace ring — what a
    /// partitioned engine hands its per-key engines, so that tracing stays
    /// per batch rather than per key.
    pub(crate) fn without_trace(&self) -> EngineObs {
        EngineObs { trace: None, ..self.clone() }
    }

    /// Records one completed assembly round: duration, matches, and a
    /// batch-level trace event.
    pub(crate) fn record_round(&self, watermark: u64, elapsed_ns: u64, matches: u64) {
        self.round_ns.observe(elapsed_ns);
        self.matched.add(matches);
        if let Some(trace) = &self.trace {
            trace.emit(
                watermark,
                self.shard,
                Some(&self.query),
                TraceKind::AssemblyRound,
                format!("matches={matches} ns={elapsed_ns}"),
            );
        }
    }
}
