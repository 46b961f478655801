//! The untraced run of one workload: set-up timing, the verify pass, the
//! closed phase, the paced phase, and the output checks around them.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::check::{ArrivalIndex, Tally};
use crate::pass::{self, Inspect, PassOutcome};
use crate::pinned;
use crate::stats::{self, median};
use crate::sut::{self, Batch, Compiled, SutResult};
use crate::workloads::{Workload, DEFAULT_SEED};

/// `(value, unit)` by metric name.
pub type Metrics = BTreeMap<&'static str, (f64, &'static str)>;

/// A workload's generated input.
pub struct Inputs {
    /// Time-ordered batches: what the single-threaded engines consume.
    pub ordered: Vec<Batch>,
    /// Batches in the order and shape the runtime is offered them.
    pub arrival: Vec<Batch>,
    /// Arrival position of every event.
    pub index: ArrivalIndex,
}

/// Generates `w`'s input from `seed`.
pub fn inputs(w: &Workload, seed: u64) -> Inputs {
    let ordered = sut::generate(w.stream, w.events, w.chunk, seed);
    let arrival = match w.disorder {
        Some(d) => sut::disorder(&ordered, d.max_delay, w.chunk, seed),
        None => ordered.clone(),
    };
    let index = ArrivalIndex::new(&arrival, w.chunk);
    Inputs { ordered, arrival, index }
}

/// Compiles one query per registration, cycling through the sources —
/// what a user of the runtime does before `register`.
pub fn compile_all(w: &Workload) -> SutResult<Vec<Compiled>> {
    (0..w.registrations).map(|r| sut::compile(&w.sources[r % w.sources.len()], w.classes)).collect()
}

/// What the single-threaded engines say the match stream must add up to.
#[derive(Debug, Default, Clone, Copy)]
pub struct Expected {
    /// Over the whole input.
    pub full: Tally,
    /// Over the first `prefix_rows` arrivals (the paced passes' input).
    pub prefix: Tally,
}

/// Runs each distinct source through `CompiledParts::engine()` over the
/// ordered input and adds up what every registration must produce.
/// Replicas of one source do identical work, so one pass stands for all.
pub fn expected(
    w: &Workload,
    inp: &Inputs,
    queries: &[Compiled],
    prefix_rows: u64,
) -> SutResult<Expected> {
    let mut exp = Expected::default();
    let mut unplaced = 0u64;
    for (s, query) in queries.iter().enumerate().take(w.sources.len()) {
        let slots: Vec<usize> = (s..w.registrations).step_by(w.sources.len()).collect();
        sut::engine_pass(query, &inp.ordered, |m| {
            let end_ts = sut::end_ts(m);
            for &slot in &slots {
                match inp.index.place(slot, m) {
                    Some((key, last)) => {
                        exp.full.full(end_ts, key);
                        if last < prefix_rows {
                            exp.prefix.full(end_ts, key);
                        }
                    }
                    None => unplaced += 1,
                }
            }
        })?;
    }
    if unplaced > 0 {
        return Err(format!(
            "{unplaced} engine matches hold an event the arrival index cannot place"
        ));
    }
    Ok(exp)
}

/// Failed operations of one pass against what was expected of it.
pub fn pass_failures(
    exp: &Tally,
    out: &PassOutcome,
    digests: bool,
    notes: &mut Vec<String>,
) -> u64 {
    let mismatch = exp.failures(&out.tally, digests);
    if mismatch > 0 {
        notes.push(format!(
            "match stream differs from the single-threaded engine: expected {exp:?}, got {:?}",
            out.tally
        ));
    }
    if out.lost_events > 0 {
        notes.push(format!("{} events dropped, late or unaccounted", out.lost_events));
    }
    if out.unplaced > 0 {
        notes.push(format!("{} delivered matches hold an unplaceable event", out.unplaced));
    }
    let mut failed = mismatch + out.lost_events + out.unplaced;
    if out.saturated {
        notes.push(
            "paced pass saturated: most chunks were offered over a chunk interval late".into(),
        );
        failed += out.tally.count.max(1);
    }
    failed
}

/// Everything one run of a workload produced, traced or not.
pub struct Outcome {
    /// Every metric the run measured, the contract's and the ungated ones.
    pub metrics: Metrics,
    /// Events offered over all passes, plus oracle-prefix events.
    pub attempted: u64,
    /// Events lost, matches missing or extra, oracle disagreements.
    pub failed: u64,
    /// One line per failed check.
    pub notes: Vec<String>,
    /// Wall seconds of every timed pass, closed then paced (untraced runs).
    pub pass_seconds: Vec<f64>,
    /// Match count and digest the single-threaded engines expect.
    pub expected: Tally,
}

/// How much of the contract's run a (possibly smoke) run performs.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// Timed closed passes.
    pub closed_passes: usize,
    /// Timed paced passes.
    pub paced_passes: usize,
    /// Seconds of input each paced pass offers.
    pub paced_pass_s: f64,
    /// Builds the set-up median is taken over.
    pub setup_builds: usize,
}

impl Budget {
    /// Half of `seconds` in closed passes (sized to ~1 s each at seed
    /// speed), half in three paced passes.
    pub fn for_seconds(seconds: u64) -> Budget {
        Budget {
            closed_passes: (seconds as usize / 2).max(3),
            paced_passes: 3,
            paced_pass_s: seconds as f64 / 6.0,
            setup_builds: 20,
        }
    }

    /// The smoke run: the same phases, as short as they go.
    pub fn smoke() -> Budget {
        Budget { closed_passes: 3, paced_passes: 2, paced_pass_s: 0.5, setup_builds: 3 }
    }
}

/// Chunks of the arrival stream a paced pass offers.
pub fn paced_chunks(w: &Workload, budget: &Budget, available: usize) -> usize {
    let wanted = (w.paced_eps * budget.paced_pass_s / w.chunk as f64).ceil() as usize;
    wanted.clamp(1, available)
}

/// Median seconds of `EngineBuilder::parse(..).compile()` for every
/// registration + `register` + `RuntimeBuilder::build`. At least `builds`
/// set-ups; a set-up of tens of microseconds is mostly one thread spawn, so
/// cheap ones repeat (up to ten times as often) until half a second is spent.
pub fn setup_seconds(w: &Workload, builds: usize) -> SutResult<f64> {
    let mut samples = Vec::with_capacity(builds);
    let phase = Instant::now();
    while samples.len() < builds
        || (samples.len() < 10 * builds && phase.elapsed().as_secs_f64() < 0.5)
    {
        let started = Instant::now();
        let queries = compile_all(w)?;
        let sut = sut::Sut::build(&queries, w.routing, w.disorder.map(|d| d.slack))?;
        samples.push(started.elapsed().as_secs_f64());
        sut.shutdown()?;
    }
    Ok(median(&samples))
}

/// Fails when the default seed no longer generates the pinned stream, or
/// the engines no longer find the pinned matches in it.
pub fn check_pinned(w: &Workload, seed: u64, inp: &Inputs, exp: &Tally) -> Result<(), String> {
    if seed != DEFAULT_SEED {
        return Ok(());
    }
    let Some(pin) = pinned::PINNED.iter().find(|p| p.workload == w.name && p.events == w.events)
    else {
        return Ok(()); // scaled-down run: nothing pinned at this size
    };
    let digest = sut::input_digest(&inp.arrival);
    if digest != pin.input_digest {
        return Err(format!(
            "generator drift on {}: input digest {digest:#018x}, pinned {:#018x} — \
             crates/workload no longer generates the stream the baseline was measured on",
            w.name, pin.input_digest
        ));
    }
    if (exp.count, exp.digest) != (pin.matches, pin.match_digest) {
        return Err(format!(
            "match drift on {}: {} matches digest {:#018x}, pinned {} digest {:#018x}",
            w.name, exp.count, exp.digest, pin.matches, pin.match_digest
        ));
    }
    Ok(())
}

/// Runs `w` end to end, untraced.
pub fn run(w: &Workload, seed: u64, budget: &Budget) -> Result<Outcome, String> {
    let inp = inputs(w, seed);
    let setup_s = setup_seconds(w, budget.setup_builds)?;
    let queries = compile_all(w)?;
    let paced = &inp.arrival[..paced_chunks(w, budget, inp.arrival.len())];
    let prefix_rows: u64 = paced.iter().map(|b| sut::rows(b) as u64).sum();
    let exp = expected(w, &inp, &queries, prefix_rows)?;
    check_pinned(w, seed, &inp, &exp.full)?;

    let mut notes = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut pass_seconds = Vec::new();
    let mut tried = |out: SutResult<PassOutcome>, events: u64, exp: &Tally, digests: bool| {
        attempted += events;
        match out {
            Ok(out) => {
                failed += pass_failures(exp, &out, digests, &mut notes);
                Some(out)
            }
            Err(e) => {
                notes.push(format!("pass errored: {e}"));
                failed += events;
                None
            }
        }
    };
    let all_rows = w.events as u64;

    // Warm-up, discarded as a timing; it is also the verify pass that
    // compares full content digests with the single-threaded engine.
    let placed = Inspect::Placed(&inp.index);
    tried(pass::run(w, &queries, &inp.arrival, None, placed, None), all_rows, &exp.full, true);

    // One series per metric, a value per pass; the run reports medians.
    let mut series: BTreeMap<&'static str, (Vec<f64>, &'static str)> = BTreeMap::new();
    let mut sample = |name, unit, value: f64| {
        series.entry(name).or_insert((Vec::new(), unit)).0.push(value);
    };
    for _ in 0..budget.closed_passes {
        let out = pass::run(w, &queries, &inp.arrival, None, Inspect::Light, None);
        if let Some(out) = tried(out, all_rows, &exp.full, false) {
            sample("throughput_eps", "1/s", out.throughput_eps());
            sample("peak_state_bytes", "bytes", out.peak_bytes as f64);
            pass_seconds.push(out.wall_s);
        }
    }
    for _ in 0..budget.paced_passes {
        let out = pass::run(w, &queries, paced, Some(w.paced_eps), placed, None);
        let Some(out) = tried(out, prefix_rows, &exp.prefix, true) else { continue };
        pass_seconds.push(out.wall_s);
        let Some(mut log) = out.latency else { continue };
        let n = log.latency.len();
        let ms = |ns: Option<u64>| ns.map_or(f64::NAN, |ns| ns as f64 / 1e6);
        sample("match_latency_p50_ms", "ms", ms(log.latency.quantile(0.50)));
        sample("match_latency_p95_ms", "ms", ms(log.latency.quantile(0.95)));
        // p99 is reported only where the rule supports it; never gated.
        if stats::supports(0.99, n) {
            sample("match_latency_p99_ms", "ms", ms(log.latency.quantile(0.99)));
        }
        // The rule: the highest percentile with ten samples beyond it.
        if let Some(q) = stats::highest_supported(n) {
            sample("match_latency_top_pct", "%", q * 100.0);
            sample("match_latency_top_ms", "ms", ms(log.latency.quantile(q)));
        }
        sample("match_latency_max_ms", "ms", ms(log.latency.max()));
        sample("pace_lag_p95_ms", "ms", ms(log.lag.quantile(0.95)));
        sample("latency_samples", "count", n as f64);
    }

    if w.oracle_events > 0 {
        let rows = w.oracle_events.min(w.events) as u64;
        attempted += rows;
        match sut::reference_check(&queries[0], &inp.ordered, w.oracle_events) {
            Ok((_, 0)) => {}
            Ok((oracle, wrong)) => {
                notes.push(format!("{wrong} signatures differ from the oracle's {oracle}"));
                failed += wrong as u64;
            }
            Err(e) => {
                notes.push(format!("oracle check errored: {e}"));
                failed += rows;
            }
        }
    }

    let mut metrics: Metrics =
        series.into_iter().map(|(name, (values, unit))| (name, (median(&values), unit))).collect();
    metrics.insert("setup_s", (setup_s, "s"));
    Ok(Outcome { metrics, attempted, failed, notes, pass_seconds, expected: exp.full })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads;

    /// Check (a) end to end on a small input: the runtime's match stream
    /// equals the engine's, and a stream with one match dropped does not.
    #[test]
    fn a_dropped_match_trips_check_a_on_a_real_pass() {
        for name in ["stock-keyed-seq", "stock-disordered-ckpt"] {
            let w = workloads::by_name(name).unwrap().scaled_down(200);
            let inp = inputs(&w, 99);
            let queries = compile_all(&w).unwrap();
            let prefix_rows = (w.events / 2) as u64;
            let exp = expected(&w, &inp, &queries, prefix_rows).unwrap();
            assert!(exp.full.count > 100 && exp.prefix.count < exp.full.count, "{name}: {exp:?}");

            let placed = Inspect::Placed(&inp.index);
            let mut out = pass::run(&w, &queries, &inp.arrival, None, placed, None).unwrap();
            let mut notes = Vec::new();
            assert_eq!(pass_failures(&exp.full, &out, true, &mut notes), 0, "{name}: {notes:?}");
            assert_eq!(out.events, w.events as u64);

            // Drop one match, as a lossy merge would.
            out.tally.count -= 1;
            assert_eq!(pass_failures(&exp.full, &out, true, &mut notes), 1);
            assert!(notes[0].contains("differs from the single-threaded engine"), "{notes:?}");
        }
    }
}
