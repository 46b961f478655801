//! One pass: a fresh runtime, the workload's chunks offered back-to-back
//! (closed loop — `ingest_columns` blocks under backpressure, so one client
//! is a closed loop) or on a fixed schedule (open loop), then `shutdown`.

use std::time::{Duration, Instant};

use crate::affinity;
use crate::check::{ArrivalIndex, Tally};
use crate::pace::{self, LatencyLog, Schedule, POLL_INTERVAL_NS};
use crate::sut::{self, Batch, Compiled, Delivered, Report, Sut, SutResult};
use crate::trace::{SpanId, Tracer};
use crate::workloads::Workload;

/// Below this distance to a due time the driver spins instead of sleeping:
/// a sleep overshoots by about this much.
const SPIN_NS: u64 = 150_000;

/// How closely a pass looks at the matches it receives.
#[derive(Clone, Copy)]
pub enum Inspect<'a> {
    /// Count and sum end timestamps: all a timed closed pass can afford.
    Light,
    /// Also place every constituent event: content digest, and the arrival
    /// chunk that latency is measured from.
    Placed(&'a ArrivalIndex),
}

/// What one pass measured.
#[derive(Debug, Default)]
pub struct PassOutcome {
    /// Events offered.
    pub events: u64,
    /// First `ingest_columns` to `shutdown` return, seconds.
    pub wall_s: f64,
    /// The match stream's sums.
    pub tally: Tally,
    /// Matches with an event the arrival index could not place.
    pub unplaced: u64,
    /// Latency and generator lag (paced passes).
    pub latency: Option<LatencyLog>,
    /// The generator could not keep the stated rate.
    pub saturated: bool,
    /// `RuntimeReport.metrics.peak_bytes`.
    pub peak_bytes: usize,
    /// Events dropped by the router or rejected as late, plus any gap
    /// between events offered and events a query's engines received.
    pub lost_events: u64,
    /// Wall time and size of the mid-run checkpoint.
    pub checkpoint: Option<(Duration, usize)>,
    /// `shutdown` call duration.
    pub drain: Duration,
    /// `Runtime::pending_matches()` after each chunk (traced passes).
    pub pending_samples: Vec<u64>,
    /// Numbers scraped from `Runtime::observe()` just before shutdown
    /// (traced passes): `(scrape duration, shard service ns, queue depth)`.
    pub scrape: Option<(Duration, u64, u64)>,
}

impl PassOutcome {
    /// Input events per second of wall time.
    pub fn throughput_eps(&self) -> f64 {
        self.events as f64 / self.wall_s
    }
}

/// Where a traced pass records its spans.
pub struct Traced<'a> {
    pub tracer: &'a mut Tracer,
    pub pass: u32,
}

struct Run<'a> {
    t0: Instant,
    inspect: Inspect<'a>,
    schedule: Option<Schedule>,
    out: PassOutcome,
    /// `(arrival chunk, matches)` of the delivery being accounted.
    groups: Vec<(usize, u64)>,
}

impl Run<'_> {
    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Accounts the matches one call returned at `returned_ns`.
    fn deliver(&mut self, matches: &[Delivered], returned_ns: u64) {
        match self.inspect {
            Inspect::Light => {
                for m in matches {
                    self.out.tally.light(sut::end_ts(sut::record_of(m)));
                }
            }
            Inspect::Placed(index) => {
                self.groups.clear();
                for m in matches {
                    let record = sut::record_of(m);
                    let Some((key, last)) = index.place(sut::query_of(m), record) else {
                        self.out.unplaced += 1;
                        continue;
                    };
                    self.out.tally.full(sut::end_ts(record), key);
                    let chunk = index.chunk_of(last);
                    // Deliveries cluster on the last chunk or two.
                    match self.groups.iter_mut().rev().find(|g| g.0 == chunk) {
                        Some(g) => g.1 += 1,
                        None => self.groups.push((chunk, 1)),
                    }
                }
                if let (Some(schedule), Some(log)) = (&self.schedule, &mut self.out.latency) {
                    for &(chunk, count) in &self.groups {
                        log.delivered(schedule, chunk, count, returned_ns);
                    }
                }
            }
        }
    }
}

/// Runs one pass of `w` over `arrival` on a fresh runtime.
pub fn run(
    w: &Workload,
    queries: &[Compiled],
    arrival: &[Batch],
    rate_eps: Option<f64>,
    inspect: Inspect<'_>,
    mut traced: Option<Traced<'_>>,
) -> SutResult<PassOutcome> {
    let (sut, _restore_affinity) =
        affinity::apart(|| Sut::build(queries, w.routing, w.disorder.map(|d| d.slack)));
    let mut sut = sut?;
    let schedule = rate_eps.map(|r| Schedule::new(w.chunk, r));
    let events: u64 = arrival.iter().map(|b| sut::rows(b) as u64).sum();
    let checkpoint_at = w.checkpoint.then_some(arrival.len() / 2);
    let mut checkpoint_buf = Vec::new();

    // Span helpers: no-ops on an untraced pass.
    let begin = |t: &mut Option<Traced<'_>>, name, parent: Option<SpanId>, chunk| {
        t.as_mut().map(|t| t.tracer.begin(name, parent, t.pass, chunk))
    };
    let end = |t: &mut Option<Traced<'_>>, id: Option<SpanId>, rows_in: u64, out: u64| {
        if let (Some(t), Some(id)) = (t.as_mut(), id) {
            t.tracer.end(id, rows_in, out);
        }
    };

    let pass_span = begin(&mut traced, "pass", None, None);
    let mut run = Run {
        t0: Instant::now(),
        inspect,
        schedule,
        out: PassOutcome {
            events,
            latency: schedule.map(|_| LatencyLog::default()),
            ..PassOutcome::default()
        },
        groups: Vec::new(),
    };
    for (i, batch) in arrival.iter().enumerate() {
        let chunk_no = Some(i as u32);
        let chunk_span = begin(&mut traced, "chunk", pass_span, chunk_no);
        if let Some(schedule) = &schedule {
            let due = schedule.due_ns(i);
            let mut nap = pace::first_poll_ns(i);
            loop {
                let now = run.now_ns();
                if now >= due {
                    break;
                }
                let remaining = due - now;
                if remaining <= SPIN_NS {
                    std::hint::spin_loop();
                    continue;
                }
                std::thread::sleep(Duration::from_nanos((remaining - SPIN_NS).min(nap)));
                nap = POLL_INTERVAL_NS;
                let span = begin(&mut traced, "runtime.poll", chunk_span, chunk_no);
                let matches = sut.poll()?;
                let returned = run.now_ns();
                end(&mut traced, span, 0, matches.len() as u64);
                run.deliver(&matches, returned);
            }
            let sent = run.now_ns();
            if let Some(log) = &mut run.out.latency {
                log.offered(schedule, i, sent);
            }
        }
        let span = begin(&mut traced, "runtime.ingest_columns", chunk_span, chunk_no);
        let matches = sut.ingest(batch)?;
        let returned = run.now_ns();
        end(&mut traced, span, sut::rows(batch) as u64, matches.len() as u64);
        run.deliver(&matches, returned);
        if traced.is_some() {
            run.out.pending_samples.push(sut.pending_matches() as u64);
        }
        if checkpoint_at == Some(i) {
            let span = begin(&mut traced, "runtime.checkpoint", chunk_span, chunk_no);
            let started = Instant::now();
            checkpoint_buf.clear();
            sut.checkpoint(&mut checkpoint_buf)?;
            run.out.checkpoint = Some((started.elapsed(), checkpoint_buf.len()));
            end(&mut traced, span, 0, checkpoint_buf.len() as u64);
        }
        end(&mut traced, chunk_span, sut::rows(batch) as u64, 0);
    }
    if traced.is_some() {
        let span = begin(&mut traced, "runtime.observe", pass_span, None);
        let started = Instant::now();
        let scrape = sut.scrape();
        run.out.scrape = Some((started.elapsed(), scrape.shard_service_ns, scrape.queue_depth));
        end(&mut traced, span, 0, scrape.shard_batches);
    }
    let span = begin(&mut traced, "runtime.shutdown", pass_span, None);
    let started = Instant::now();
    let report = sut.shutdown()?;
    let returned = run.now_ns();
    run.out.drain = started.elapsed();
    end(&mut traced, span, 0, report.matches.len() as u64);
    run.deliver(&report.matches, returned);
    run.out.wall_s = returned as f64 / 1e9;
    end(&mut traced, pass_span, events, run.out.tally.count);

    let mut out = run.out;
    if let (Some(schedule), Some(log)) = (&schedule, &mut out.latency) {
        out.saturated = log.saturated(schedule);
    }
    account(&report, events, &mut out);
    Ok(out)
}

/// Conservation: every offered event was delivered to every query's
/// engines, rejected as late, or dropped by the router — and counted so.
fn account(report: &Report, offered: u64, out: &mut PassOutcome) {
    out.peak_bytes = report.peak_bytes;
    let mut lost = report.late + report.dropped.iter().sum::<u64>();
    for (delivered, dropped) in report.delivered.iter().zip(&report.dropped) {
        lost += offered.abs_diff(delivered + report.late + dropped);
    }
    out.lost_events = lost;
}
