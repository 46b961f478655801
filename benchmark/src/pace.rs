//! Open-loop pacing arithmetic and latency accounting.
//!
//! Chunk `i` of a paced pass is due at `i * chunk / rate` after the pass
//! starts, whatever the system did with the chunks before it. A match's
//! latency runs from the **due** time of the chunk that carried its
//! last-arriving event to the return of the call that delivered it, so a
//! stall that delays later chunks is charged to their matches, not hidden.

use crate::stats::Weighted;

/// How often the driver asks for finished matches while it waits for the
/// next chunk's due time. Deliveries are quantised to this grid. Polling
/// five times as often was tried and made latencies less steady, not more:
/// on this host the kernel keeps driver and shard on one CPU, and every
/// poll is taken from the shard.
pub const POLL_INTERVAL_NS: u64 = 500_000;

/// How long the driver waits before its first poll after offering chunk
/// `chunk`: a different fraction of the poll interval for every chunk
/// (multiples of the golden ratio, which spread evenly), then the interval
/// itself. With every chunk's polls on the same grid, all deliveries sit
/// the same distance past a grid point and a percentile jumps a whole
/// interval when the service time crosses one; with the phase spread out,
/// the percentiles follow the service time.
pub fn first_poll_ns(chunk: usize) -> u64 {
    let phase = (chunk as f64 * 0.618_033_988_749_895).fract();
    ((phase * POLL_INTERVAL_NS as f64) as u64).max(POLL_INTERVAL_NS / 10)
}

/// The arrival schedule of one paced pass. Times are nanoseconds since the
/// pass started.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    interval_ns: u64,
}

impl Schedule {
    /// Chunks of `chunk_rows` rows offered at `rate_eps` events per second.
    pub fn new(chunk_rows: usize, rate_eps: f64) -> Schedule {
        Schedule { interval_ns: (chunk_rows as f64 * 1e9 / rate_eps).round() as u64 }
    }

    /// Time between two chunks.
    pub fn interval_ns(&self) -> u64 {
        self.interval_ns
    }

    /// When chunk `i` is due.
    pub fn due_ns(&self, chunk: usize) -> u64 {
        self.interval_ns * chunk as u64
    }
}

/// Latency samples and generator lag of one paced pass.
#[derive(Debug, Default, Clone)]
pub struct LatencyLog {
    /// Match latencies, nanoseconds.
    pub latency: Weighted,
    /// How late each chunk was offered, nanoseconds.
    pub lag: Weighted,
}

impl LatencyLog {
    /// `count` matches whose last-arriving event came in `chunk` were
    /// delivered by a call that returned at `returned_ns`.
    pub fn delivered(&mut self, schedule: &Schedule, chunk: usize, count: u64, returned_ns: u64) {
        self.latency.add(returned_ns.saturating_sub(schedule.due_ns(chunk)), count);
    }

    /// Chunk `chunk` was offered at `sent_ns`.
    pub fn offered(&mut self, schedule: &Schedule, chunk: usize, sent_ns: u64) {
        self.lag.add(sent_ns.saturating_sub(schedule.due_ns(chunk)), 1);
    }

    /// A pass that offered most of its chunks more than one interval late
    /// was not offered the stated rate: the system could not keep up, and
    /// the backlog (and every latency in it) grew for as long as the pass
    /// lasted. The median, not a high percentile, decides: one scheduler
    /// stall on a shared host delays a few chunks, not most of them.
    pub fn saturated(&mut self, schedule: &Schedule) -> bool {
        self.lag.quantile(0.50).is_some_and(|lag| lag > schedule.interval_ns())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunks_are_due_on_a_fixed_grid() {
        let s = Schedule::new(1024, 512_000.0);
        assert_eq!(s.interval_ns(), 2_000_000);
        assert_eq!(s.due_ns(0), 0);
        assert_eq!(s.due_ns(7), 14_000_000);
    }

    #[test]
    fn first_polls_spread_over_the_interval() {
        let naps: Vec<u64> = (0..100).map(first_poll_ns).collect();
        assert!(naps.iter().all(|&n| (POLL_INTERVAL_NS / 10..=POLL_INTERVAL_NS).contains(&n)));
        // Every fifth of the interval gets its share of the phases.
        for fifth in 0..5 {
            let (lo, hi) = (fifth * POLL_INTERVAL_NS / 5, (fifth + 1) * POLL_INTERVAL_NS / 5);
            let n = naps.iter().filter(|&&n| n >= lo && n < hi).count();
            assert!((10..=30).contains(&n), "fifth {fifth}: {n}");
        }
    }

    #[test]
    fn latency_runs_from_due_time_not_send_time() {
        let s = Schedule::new(1000, 1_000_000.0); // 1 ms per chunk
        let mut log = LatencyLog::default();
        // Chunk 3 is due at 3 ms but a stall delays its send to 8 ms; its
        // matches come back at 9 ms. They waited 6 ms, not 1 ms.
        log.offered(&s, 3, 8_000_000);
        log.delivered(&s, 3, 5, 9_000_000);
        assert_eq!(log.latency.quantile(0.5), Some(6_000_000));
        assert_eq!(log.latency.len(), 5);
        assert_eq!(log.lag.quantile(1.0), Some(5_000_000));
    }

    #[test]
    fn a_late_generator_marks_the_pass_saturated() {
        let s = Schedule::new(1000, 1_000_000.0);
        let mut on_time = LatencyLog::default();
        let mut late = LatencyLog::default();
        for chunk in 0..100 {
            // A stall that delays a tenth of the chunks is not saturation.
            let hiccup = if (50..60).contains(&chunk) { 30_000_000 } else { 20_000 };
            on_time.offered(&s, chunk, s.due_ns(chunk) + hiccup);
            // Falling further behind every chunk is.
            late.offered(&s, chunk, s.due_ns(chunk) + chunk as u64 * 100_000);
        }
        assert!(!on_time.saturated(&s));
        assert!(late.saturated(&s));
    }
}
