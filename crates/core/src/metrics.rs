//! Engine metrics: throughput inputs and logical peak-memory accounting.
//!
//! The paper reports system performance as `rate = |Input| / t_elapsed` and
//! peak memory consumption per plan (Tables 3 and 5). Wall-clock time is
//! measured by the benchmark harness; the engine tracks everything else:
//! events ingested, matches emitted, assembly/idle rounds, and the peak
//! logical footprint of all buffers and hash indexes sampled at the end of
//! every round.

use zstream_events::{Snapshot, SnapshotError, SnapshotReader, SnapshotResult, SnapshotWriter};

/// Counters maintained by an [`crate::Engine`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineMetrics {
    /// Primitive events pushed into the engine.
    pub events_in: u64,
    /// Events accepted into at least one leaf buffer (post intake filters).
    pub events_admitted: u64,
    /// Composite matches emitted at the root.
    pub matches_out: u64,
    /// Assembly rounds executed (§4.3).
    pub assembly_rounds: u64,
    /// Idle rounds (batches arriving with no trigger-class instance).
    pub idle_rounds: u64,
    /// Peak logical memory (bytes) across all buffers and hash indexes.
    pub peak_bytes: usize,
    /// Re-optimizations performed by the adaptive controller (§5.3).
    pub replans: u64,
    /// Plan switches actually installed.
    pub plan_switches: u64,
    /// Distinct strings interned in the **process-wide** symbol table (see
    /// [`zstream_events::symbol_stats`]). A *report-level* field: live
    /// engines keep it at zero — the value is stamped exactly once, at
    /// scrape time, by whoever assembles the final report (the runtime's
    /// shutdown path, or [`EngineMetrics::stamp_symbol_stats`]). The
    /// live-queryable form is the `zstream_symbols_interned` gauge in the
    /// observability registry.
    pub symbols_interned: u64,
    /// Bytes the symbol table's intern hits avoided re-allocating (what a
    /// per-value `Arc<str>` representation would have copied). Report-level,
    /// like `symbols_interned`; live form: `zstream_symbol_bytes_saved`.
    pub symbol_bytes_saved: u64,
    /// Events rejected by an upstream reorder stage as arriving beyond its
    /// slack window (§4.1 disordered streams). Zero unless a reorder stage
    /// fronts this engine (the scale-out runtime stamps it).
    pub late_events: u64,
    /// Peak number of events the upstream reorder stage held back at once —
    /// the memory cost of the slack. Report-level: stamped once at scrape
    /// from the reorder stage; live form: the `zstream_reorder_buffered_peak`
    /// gauge.
    pub reorder_buffered_peak: u64,
}

impl EngineMetrics {
    /// Records a round's footprint sample.
    pub fn sample_memory(&mut self, bytes: usize) {
        if bytes > self.peak_bytes {
            self.peak_bytes = bytes;
        }
    }

    /// Peak memory in mebibytes (the unit of Tables 3 and 5).
    pub fn peak_mb(&self) -> f64 {
        self.peak_bytes as f64 / (1024.0 * 1024.0)
    }

    /// Folds another engine's counters into this one. Used by
    /// [`crate::PartitionedEngine`] and the scale-out runtime to report one
    /// aggregated snapshot across per-partition / per-shard engines.
    ///
    /// Per-field semantics:
    /// * `events_in`, `events_admitted`, `matches_out`, `assembly_rounds`,
    ///   `idle_rounds`, `replans`, `plan_switches`, `late_events` — true
    ///   per-engine counters: **sum**.
    /// * `peak_bytes` — **sum**: the constituent engines hold their buffers
    ///   simultaneously, so the sum of per-engine peaks is an upper bound
    ///   on the true simultaneous peak. The sum is of per-query *logical*
    ///   state: in the runtime, identical registrations share one physical
    ///   engine per shard, yet each still reports (and sums) the state its
    ///   own engine would hold; physical sharing shows in the
    ///   `zstream_shard_engines` gauge instead.
    /// * `symbols_interned`, `symbol_bytes_saved`, `reorder_buffered_peak`
    ///   — report-level fields describing one process-global source, zero
    ///   on live engines (stamped once at scrape, never per engine):
    ///   **max**, so a stamped report merged with unstamped engines keeps
    ///   its value and two stamped reports never double-count.
    pub fn merge(&mut self, other: &EngineMetrics) {
        self.events_in += other.events_in;
        self.events_admitted += other.events_admitted;
        self.matches_out += other.matches_out;
        self.assembly_rounds += other.assembly_rounds;
        self.idle_rounds += other.idle_rounds;
        self.peak_bytes += other.peak_bytes;
        self.replans += other.replans;
        self.plan_switches += other.plan_switches;
        self.symbols_interned = self.symbols_interned.max(other.symbols_interned);
        self.symbol_bytes_saved = self.symbol_bytes_saved.max(other.symbol_bytes_saved);
        self.late_events += other.late_events;
        self.reorder_buffered_peak = self.reorder_buffered_peak.max(other.reorder_buffered_peak);
    }

    /// Stamps the process-wide symbol-table statistics onto this snapshot.
    /// Call exactly once, on the final aggregated report — never on
    /// per-engine metrics (merging stamped engines would smuggle a global
    /// value through per-engine counters; see [`EngineMetrics::merge`]).
    pub fn stamp_symbol_stats(&mut self) {
        let s = zstream_events::symbol_stats();
        self.symbols_interned = s.symbols;
        self.symbol_bytes_saved = s.bytes_saved;
    }

    /// Rebuilds metrics from a [`Snapshot`] stream, so throughput and
    /// peak-memory accounting span a checkpoint/restore boundary.
    pub fn restore_snapshot(r: &mut SnapshotReader<'_>) -> SnapshotResult<EngineMetrics> {
        Ok(EngineMetrics {
            events_in: r.u64()?,
            events_admitted: r.u64()?,
            matches_out: r.u64()?,
            assembly_rounds: r.u64()?,
            idle_rounds: r.u64()?,
            peak_bytes: usize::try_from(r.u64()?)
                .map_err(|_| SnapshotError::Corrupt("peak bytes exceeds usize".into()))?,
            replans: r.u64()?,
            plan_switches: r.u64()?,
            symbols_interned: r.u64()?,
            symbol_bytes_saved: r.u64()?,
            late_events: r.u64()?,
            reorder_buffered_peak: r.u64()?,
        })
    }
}

impl Snapshot for EngineMetrics {
    fn write_snapshot(&self, w: &mut SnapshotWriter) {
        w.u64(self.events_in);
        w.u64(self.events_admitted);
        w.u64(self.matches_out);
        w.u64(self.assembly_rounds);
        w.u64(self.idle_rounds);
        w.u64(self.peak_bytes as u64);
        w.u64(self.replans);
        w.u64(self.plan_switches);
        w.u64(self.symbols_interned);
        w.u64(self.symbol_bytes_saved);
        w.u64(self.late_events);
        w.u64(self.reorder_buffered_peak);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_is_monotone() {
        let mut m = EngineMetrics::default();
        m.sample_memory(100);
        m.sample_memory(50);
        assert_eq!(m.peak_bytes, 100);
        m.sample_memory(200);
        assert_eq!(m.peak_bytes, 200);
    }

    #[test]
    fn merge_sums_counters_and_peaks() {
        let mut a = EngineMetrics {
            events_in: 10,
            events_admitted: 8,
            matches_out: 3,
            assembly_rounds: 2,
            idle_rounds: 1,
            peak_bytes: 100,
            replans: 1,
            plan_switches: 1,
            symbols_interned: 10,
            symbol_bytes_saved: 100,
            late_events: 3,
            reorder_buffered_peak: 40,
        };
        let b = EngineMetrics {
            events_in: 5,
            events_admitted: 4,
            matches_out: 2,
            assembly_rounds: 1,
            idle_rounds: 3,
            peak_bytes: 50,
            replans: 0,
            plan_switches: 0,
            symbols_interned: 25,
            symbol_bytes_saved: 60,
            late_events: 2,
            reorder_buffered_peak: 15,
        };
        a.merge(&b);
        assert_eq!(a.events_in, 15);
        assert_eq!(a.events_admitted, 12);
        assert_eq!(a.matches_out, 5);
        assert_eq!(a.assembly_rounds, 3);
        assert_eq!(a.idle_rounds, 4);
        assert_eq!(a.peak_bytes, 150);
        assert_eq!(a.replans, 1);
        assert_eq!(a.plan_switches, 1);
        // Symbol stats describe one global table: max, not sum.
        assert_eq!(a.symbols_interned, 25);
        assert_eq!(a.symbol_bytes_saved, 100);
        // Late events sum; the reorder peak describes one global stage: max.
        assert_eq!(a.late_events, 5);
        assert_eq!(a.reorder_buffered_peak, 40);
    }

    #[test]
    fn merge_with_default_is_identity() {
        let mut a = EngineMetrics { events_in: 7, matches_out: 2, ..Default::default() };
        let before = a;
        a.merge(&EngineMetrics::default());
        assert_eq!(a, before);
    }

    #[test]
    fn peak_mb_converts() {
        let mut m = EngineMetrics::default();
        m.sample_memory(2 * 1024 * 1024);
        assert!((m.peak_mb() - 2.0).abs() < 1e-12);
    }
}
