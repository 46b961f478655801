//! The traced run of one workload: a closed and a paced pass with a span
//! around every call into the runtime, then one isolation pass per layer —
//! each layer's public functions timed alone over the same generated input.
//!
//! Everything here is taken from outside the program. Spans inside
//! `runtime`/`core` (channel wait vs merge vs assembly) are a later change;
//! this run only bounds them.

use std::time::Instant;

use crate::bench::{self, Budget, Metrics, Outcome};
use crate::pass::{self, Inspect, Traced};
use crate::stats::{median, Weighted};
use crate::sut;
use crate::trace::{self, Tracer};
use crate::workloads::Workload;

/// Span `pass` numbers of the isolation passes' `iso.*` spans.
const ISO_PASS: u32 = 2;

fn quantile_of(values: &[u64], q: f64) -> f64 {
    let mut w = Weighted::default();
    values.iter().for_each(|&v| w.add(v, 1));
    w.quantile(q).map_or(0.0, |v| v as f64)
}

/// Times `f` under an `iso.<layer>` span; returns its result and seconds.
fn iso<T>(tracer: &mut Tracer, name: &'static str, rows: u64, f: impl FnOnce() -> T) -> (T, f64) {
    let span = tracer.begin(name, None, ISO_PASS, None);
    let started = Instant::now();
    let out = std::hint::black_box(f());
    let seconds = started.elapsed().as_secs_f64();
    tracer.end(span, rows, 0);
    (out, seconds)
}

/// Runs `w` traced. Returns every per-layer metric of the contract (0 where
/// a layer does not run on this workload) and the rendered span buffer.
pub fn run(w: &Workload, seed: u64, budget: &Budget) -> Result<(Outcome, String), String> {
    let mut tracer = Tracer::default();
    let mut m = Metrics::new();
    let inp = bench::inputs(w, seed);
    let events = w.events as f64;
    let all_rows = w.events as u64;

    // lang + core::cost
    let (queries, compile_s) =
        iso(&mut tracer, "iso.compile", w.registrations as u64, || bench::compile_all(w));
    let queries = queries?;
    m.insert("compile_us_per_query", (compile_s * 1e6 / w.registrations as f64, "us"));
    m.insert("queries_compiled", (w.registrations as f64, "count"));

    let paced = &inp.arrival[..bench::paced_chunks(w, budget, inp.arrival.len())];
    let prefix_rows: u64 = paced.iter().map(|b| sut::rows(b) as u64).sum();
    let exp = bench::expected(w, &inp, &queries, prefix_rows)?;
    bench::check_pinned(w, seed, &inp, &exp.full)?;

    let mut notes = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);

    // Untraced closed passes (after one warm-up) give the throughput the
    // traced pass is held against.
    let mut untraced = Vec::new();
    for pass_no in 0..=budget.closed_passes.min(3) {
        attempted += all_rows;
        let out = pass::run(w, &queries, &inp.arrival, None, Inspect::Light, None)?;
        failed += bench::pass_failures(&exp.full, &out, false, &mut notes);
        if pass_no > 0 {
            untraced.push(out.throughput_eps());
        }
    }
    let throughput = median(&untraced);

    attempted += all_rows;
    let closed = pass::run(
        w,
        &queries,
        &inp.arrival,
        None,
        Inspect::Light,
        Some(Traced { tracer: &mut tracer, pass: 0 }),
    )?;
    failed += bench::pass_failures(&exp.full, &closed, false, &mut notes);
    attempted += prefix_rows;
    let paced_out = pass::run(
        w,
        &queries,
        paced,
        Some(w.paced_eps),
        Inspect::Placed(&inp.index),
        Some(Traced { tracer: &mut tracer, pass: 1 }),
    )?;
    failed += bench::pass_failures(&exp.prefix, &paced_out, true, &mut notes);

    // The self times of each pass's span tree must add up to its wall time.
    for (root, span) in tracer.spans().iter().enumerate().filter(|(_, s)| s.name == "pass") {
        let wall = (span.end_ns - span.start_ns) as f64;
        let summed = trace::tree_self_ns(tracer.spans(), root) as f64;
        if (summed - wall).abs() > 0.05 * wall {
            notes.push(format!("pass {}: self times sum to {summed} ns of {wall} ns", span.pass));
            failed += 1;
        }
    }

    // runtime: dispatch, channel, shard, merge — seen from the caller.
    let ingest_ns: Vec<u64> = tracer
        .spans()
        .iter()
        .filter(|s| s.pass == 0 && s.name == "runtime.ingest_columns")
        .map(|s| s.end_ns - s.start_ns)
        .collect();
    m.insert("untraced_throughput_eps", (throughput, "1/s"));
    m.insert(
        "trace_overhead_pct",
        ((throughput - closed.throughput_eps()) / throughput * 100.0, "%"),
    );
    m.insert("ingest_call_us_p50", (quantile_of(&ingest_ns, 0.50) / 1e3, "us"));
    m.insert("ingest_call_us_p95", (quantile_of(&ingest_ns, 0.95) / 1e3, "us"));
    m.insert("drain_ms", (closed.drain.as_secs_f64() * 1e3, "ms"));
    m.insert("pending_matches_p95", (quantile_of(&closed.pending_samples, 0.95), "count"));
    m.insert("per_query_ns_per_event", (1e9 / throughput / w.registrations as f64, "ns"));

    // runtime::checkpoint
    let (ckpt_ms, ckpt_bytes) =
        closed.checkpoint.map_or((0.0, 0.0), |(d, b)| (d.as_secs_f64() * 1e3, b as f64));
    m.insert("checkpoint_ms", (ckpt_ms, "ms"));
    m.insert("checkpoint_bytes", (ckpt_bytes, "bytes"));

    // obs: read from the scrape, not re-measured.
    let (scrape, service_ns, queue_depth) = closed.scrape.unwrap_or_default();
    m.insert("scrape_us", (scrape.as_secs_f64() * 1e6, "us"));
    m.insert("shard_busy_share", (service_ns as f64 / 1e9 / closed.wall_s, "ratio"));
    m.insert("queue_depth_at_scrape", (queue_depth as f64, "count"));

    // events::route
    let (mut route_ns, mut skew) = (0.0, 0.0);
    if let Some(field) = w.key_field() {
        let (_, s) = iso(&mut tracer, "iso.route", all_rows, || {
            inp.arrival.iter().map(|b| sut::route_rows(b, field, 1)[0]).sum::<usize>()
        });
        route_ns = s * 1e9 / events;
        let mut per_shard = [0usize; 4];
        for batch in &inp.arrival {
            for (total, rows) in per_shard.iter_mut().zip(sut::route_rows(batch, field, 4)) {
                *total += rows;
            }
        }
        let max = per_shard.iter().copied().max().unwrap_or(0) as f64;
        skew = max / (events / 4.0);
    }
    m.insert("route_ns_per_event", (route_ns, "ns"));
    m.insert("route_skew", (skew, "ratio"));

    // events::reorder
    let mut reorder = sut::Reorder::new(w.disorder.map_or(0, |d| d.slack));
    let ((released, late, passthrough), s) = iso(&mut tracer, "iso.reorder", all_rows, || {
        let (mut released, mut late, mut passthrough) = (0usize, 0usize, 0usize);
        for batch in &inp.arrival {
            let (r, l, p) = reorder.offer(batch);
            released += r;
            late += l;
            passthrough += usize::from(p);
        }
        (released + reorder.flush(), late, passthrough)
    });
    if released + late != w.events {
        notes.push(format!("reorder released {released} + late {late} of {} rows", w.events));
        failed += 1;
    }
    m.insert("reorder_ns_per_event", (s * 1e9 / events, "ns"));
    m.insert("reorder_passthrough_ratio", (passthrough as f64 / inp.arrival.len() as f64, "ratio"));
    m.insert("reorder_buffered_peak", (reorder.buffered_peak() as f64, "count"));

    // events::kernel
    let (scan, s) = iso(&mut tracer, "iso.kernel", all_rows, || {
        sut::kernel_pass(&inp.arrival, &w.kernel_preds)
    });
    let (scanned, selected) = scan.map(|(scanned, selected)| (scanned as f64, selected as f64))?;
    let per_row = |x: f64| if scanned > 0.0 { x / scanned } else { 0.0 };
    m.insert("kernel_ns_per_row", (per_row(s * 1e9), "ns"));
    m.insert("kernel_select_ratio", (per_row(selected), "ratio"));

    // core::engine — intake + assembly on one thread: the single-threaded
    // baseline of the same job. Replicas of a source do identical work, so
    // each distinct source runs once and counts for all its registrations.
    let mut engine = EngineTotals::default();
    for (src, query) in queries.iter().enumerate().take(w.sources.len()) {
        let replicas = (src..w.registrations).step_by(w.sources.len()).count() as f64;
        let mut matches = 0u64;
        let (counts, s) = iso(&mut tracer, "iso.engine", all_rows, || {
            sut::engine_pass(query, &inp.ordered, |_| matches += 1)
        });
        let counts = counts?;
        engine.seconds += s * replicas;
        engine.matches += matches as f64 * replicas;
        engine.offered += counts.class_offered as f64 * replicas;
        engine.admitted += counts.class_admitted as f64 * replicas;
        engine.peak_bytes += counts.peak_bytes as f64 * replicas;
    }
    if engine.matches != exp.full.count as f64 {
        notes.push(format!("engine found {} matches, expected {}", engine.matches, exp.full.count));
        failed += 1;
    }
    let engine_ns = engine.seconds * 1e9 / events;
    m.insert("engine_ns_per_event", (engine_ns, "ns"));
    m.insert("engine_matches_per_event", (engine.matches / events, "ratio"));
    m.insert("engine_admit_ratio", (engine.admitted / engine.offered.max(1.0), "ratio"));
    m.insert("engine_peak_bytes", (engine.peak_bytes, "bytes"));
    m.insert("runtime_overhead_ns_per_event", (1e9 / throughput - engine_ns, "ns"));

    // core::partition
    let mut partition_ns = 0.0;
    if let Some(field) = w.key_field() {
        let (matches, s) = iso(&mut tracer, "iso.partition", all_rows, || {
            sut::partitioned_pass(&queries[0], field, &inp.ordered)
        });
        if matches? != exp.full.count {
            notes.push("partitioned engine disagrees with the plain engine".into());
            failed += 1;
        }
        partition_ns = s * 1e9 / events;
    }
    m.insert("partition_ns_per_event", (partition_ns, "ns"));

    // nfa: the paper's comparison baseline; nothing gated.
    let mut nfa_ns = 0.0;
    if w.nfa_events > 0 {
        let prefix = &inp.ordered[..w.nfa_events.div_ceil(w.chunk).min(inp.ordered.len())];
        let rows: u64 = prefix.iter().map(|b| sut::rows(b) as u64).sum();
        let (matches, s) = iso(&mut tracer, "iso.nfa", rows, || sut::nfa_pass(&queries[0], prefix));
        matches?;
        nfa_ns = s * 1e9 / rows as f64;
    }
    m.insert("nfa_ns_per_event", (nfa_ns, "ns"));

    let outcome = Outcome {
        metrics: m,
        attempted,
        failed,
        notes,
        pass_seconds: Vec::new(),
        expected: exp.full,
    };
    Ok((outcome, tracer.to_json()))
}

#[derive(Default)]
struct EngineTotals {
    seconds: f64,
    matches: f64,
    offered: f64,
    admitted: f64,
    peak_bytes: f64,
}
