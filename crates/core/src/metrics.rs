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
}

/// Words of the metrics snapshot that held the report-level copies of the
/// symbol-table and reorder-stage counters (now read from their own
/// sources). Written as zero — what every engine held — and ignored on
/// read, so snapshots keep their layout without a version bump.
const RETIRED_WORDS: usize = 4;

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
    /// Every field **sums**. For `peak_bytes` the constituent engines hold
    /// their buffers simultaneously, so the sum of per-engine peaks is an
    /// upper bound on the true simultaneous peak. The sum is of per-query
    /// *logical* state: in the runtime, identical registrations share one
    /// physical engine per shard, yet each still reports (and sums) the
    /// state its own engine would hold; physical sharing shows in the
    /// `zstream_shard_engines` gauge instead.
    pub fn merge(&mut self, other: &EngineMetrics) {
        self.events_in += other.events_in;
        self.events_admitted += other.events_admitted;
        self.matches_out += other.matches_out;
        self.assembly_rounds += other.assembly_rounds;
        self.idle_rounds += other.idle_rounds;
        self.peak_bytes += other.peak_bytes;
        self.replans += other.replans;
        self.plan_switches += other.plan_switches;
    }

    /// Rebuilds metrics from a [`Snapshot`] stream, so throughput and
    /// peak-memory accounting span a checkpoint/restore boundary.
    pub fn restore_snapshot(r: &mut SnapshotReader<'_>) -> SnapshotResult<EngineMetrics> {
        let m = EngineMetrics {
            events_in: r.u64()?,
            events_admitted: r.u64()?,
            matches_out: r.u64()?,
            assembly_rounds: r.u64()?,
            idle_rounds: r.u64()?,
            peak_bytes: usize::try_from(r.u64()?)
                .map_err(|_| SnapshotError::Corrupt("peak bytes exceeds usize".into()))?,
            replans: r.u64()?,
            plan_switches: r.u64()?,
        };
        for _ in 0..RETIRED_WORDS {
            r.u64()?; // any value restores
        }
        Ok(m)
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
        for _ in 0..RETIRED_WORDS {
            w.u64(0);
        }
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
    }

    #[test]
    fn snapshot_keeps_the_retired_words() {
        let words = |ws: [u64; 12]| {
            let mut w = SnapshotWriter::new();
            ws.into_iter().for_each(|x| w.u64(x));
            w.into_bytes()
        };
        let m = EngineMetrics { events_in: 7, plan_switches: 3, ..Default::default() };
        let mut w = SnapshotWriter::new();
        m.write_snapshot(&mut w);
        assert_eq!(w.into_bytes(), words([7, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0, 0]), "last four zero");
        // Older writers stamped values there; any value restores.
        let old = words([7, 0, 0, 0, 0, 0, 0, 3, 10, 100, 2, 40]);
        let mut r = SnapshotReader::new(&old);
        assert_eq!(EngineMetrics::restore_snapshot(&mut r).unwrap(), m);
        assert!(r.is_exhausted());
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
