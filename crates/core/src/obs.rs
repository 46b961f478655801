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
    /// Further query labels the engine's trace events go out under: the
    /// other subscribers of an engine shared by identical registrations
    /// ([`EngineObs::share`]).
    pub subscribers: Vec<String>,
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
            subscribers: Vec::new(),
            shard,
        }
    }

    /// Registers these cells under `query` too, so that query's series read
    /// exactly what this engine records, and traces the engine's events
    /// under it as well: how a runtime running one engine for several
    /// identical registrations keeps every subscriber's series and trace
    /// what its own engine would record. Re-attach the handles to the
    /// engine afterwards.
    pub fn share(&mut self, hub: &Obs, query: &str) {
        self.subscribers.push(query.to_string());
        let l = labels(&[("query", query)]);
        let m = &hub.metrics;
        m.share_counter("zstream_query_admitted_total", l.clone(), &self.admitted);
        m.share_counter("zstream_query_matched_total", l.clone(), &self.matched);
        m.share_histogram("zstream_engine_round_ns", l.clone(), &self.round_ns);
        m.share_counter(
            "zstream_kernel_rows_evaluated_total",
            l.clone(),
            &self.kernel_rows_evaluated,
        );
        m.share_counter("zstream_kernel_fallback_rows_total", l, &self.kernel_fallback_rows);
    }

    /// Undoes [`EngineObs::share`] (or the registration) for `query`: its
    /// series move to private copies of these cells, holding their current
    /// values, its label leaves these handles' trace labels, and the copies
    /// are returned — for the engine the query continues on alone, or to
    /// freeze its series once it is dropped. Re-attach these handles to the
    /// engine afterwards.
    pub fn fork(&mut self, hub: &Obs, query: &str) -> EngineObs {
        if self.query == query && !self.subscribers.is_empty() {
            self.query = self.subscribers.remove(0);
        } else {
            self.subscribers.retain(|q| q != query);
        }
        let l = labels(&[("query", query)]);
        let m = &hub.metrics;
        EngineObs {
            admitted: m.fork_counter("zstream_query_admitted_total", l.clone(), &self.admitted),
            matched: m.fork_counter("zstream_query_matched_total", l.clone(), &self.matched),
            round_ns: m.fork_histogram("zstream_engine_round_ns", l.clone(), &self.round_ns),
            kernel_rows_evaluated: m.fork_counter(
                "zstream_kernel_rows_evaluated_total",
                l.clone(),
                &self.kernel_rows_evaluated,
            ),
            kernel_fallback_rows: m.fork_counter(
                "zstream_kernel_fallback_rows_total",
                l,
                &self.kernel_fallback_rows,
            ),
            trace: self.trace.clone(),
            query: query.to_string(),
            subscribers: Vec::new(),
            shard: self.shard,
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
            self.emit(trace, watermark, format!("matches={matches} ns={elapsed_ns}"));
        }
    }

    /// Emits one `assembly_round` trace event under the query's label and
    /// under every subscriber's.
    pub(crate) fn emit(&self, trace: &TraceRing, watermark: u64, detail: String) {
        for query in std::iter::once(&self.query).chain(&self.subscribers) {
            let detail = detail.clone();
            trace.emit(watermark, self.shard, Some(query), TraceKind::AssemblyRound, detail);
        }
    }
}
