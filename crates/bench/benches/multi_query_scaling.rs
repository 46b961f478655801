//! **Multi-query scale-up** — throughput of the runtime serving 1 / 10 /
//! 100 / 1000 registered queries on its shared predicate index vs the
//! per-query-scan baseline (the same N queries as N single-threaded
//! engines, each `push_columns` on its own private index), on a pool of
//! selective "needle" stock patterns replicated to the target count.
//!
//! The replicated pool means distinct intake conjuncts stay constant
//! (a few dozen) while registered queries grow 1000x: with the shared
//! index each distinct column predicate is evaluated **once per batch**
//! into a bitmap and fanned out to subscribers, so intake cost is flat
//! in the query count; the baseline re-scans every batch once per query.
//! Each pattern class carries a two-conjunct band filter (e.g.
//! `price > hi AND price < lo`) whose first conjunct passes a real
//! fraction of rows, so the per-query scan cannot short-circuit before
//! evaluating it — the alarm-query regime where registered queries
//! almost always watch and almost never fire, and intake evaluation is
//! the entire per-query cost. One pool member genuinely matches, keeping
//! the match-identity assertion meaningful.
//!
//! Every configuration must produce the **same total match count**; the
//! asserts below fail the CI `bench-trajectory` job if the shared index
//! ever changes a match stream. The baseline pays no shard thread, channel
//! or merge, so at small query counts it is the faster one by design; the
//! throughput check is that at 1000 queries sharing still wins — a loud
//! warning by default and a hard failure when
//! `ZSTREAM_BENCH_ENFORCE_SCALING=1` is set, mirroring `runtime_scaling`'s
//! opt-in policy so an unvalidated host cannot flake CI.

use std::time::Instant;

use zstream_bench::*;
use zstream_core::{CompiledParts, Engine, EngineBuilder};
use zstream_events::EventBatch;
use zstream_runtime::{Partitioning, Runtime};
use zstream_workload::{StockConfig, StockGenerator};

const CHUNK: usize = 4096;

/// The base pool: one pattern that fires (selective but satisfiable) and
/// fifteen alarm patterns whose per-class band filters are individually
/// plausible and jointly empty. Replication cycles through these, so at
/// any query count the distinct intake conjuncts stay the union of this
/// pool's.
fn pool_sources() -> Vec<String> {
    let mut srcs =
        vec!["PATTERN A; B WHERE A.price > 99.5 AND B.price > 99.5 WITHIN 20".to_string()];
    for i in 0..15u32 {
        // Price band `(> hi, < lo)` with hi > lo: each conjunct passes
        // 30-70% of rows, the conjunction passes none. Volume bands
        // likewise (volumes are uniform on 1..1000).
        let p_hi = 30 + i * 4;
        let v_hi = 150 + i * 55;
        srcs.push(format!(
            "PATTERN A; B WHERE A.price > {p_hi} AND A.price < {} \
             AND B.volume > {v_hi} AND B.volume < {} WITHIN 8",
            p_hi - 5,
            v_hi - 50,
        ));
    }
    srcs
}

fn compile(src: &str) -> CompiledParts {
    EngineBuilder::parse(src).expect("bench query parses").compile().expect("bench query compiles")
}

/// Median of `reps` timed runs of `run`, each returning `(events/s, matches)`.
fn median(reps: usize, run: impl FnMut(usize) -> (f64, u64)) -> (f64, u64) {
    let mut samples: Vec<(f64, u64)> = (0..reps.max(1)).map(run).collect();
    samples.sort_by(|a, b| a.0.total_cmp(&b.0));
    samples[samples.len() / 2]
}

/// A single-shard runtime serving `queries` replicated registrations on its
/// shared predicate index.
fn measure_shared(
    pool: &[CompiledParts],
    queries: usize,
    batches: &[EventBatch],
    reps: usize,
) -> (f64, u64) {
    let total: usize = batches.iter().map(EventBatch::len).sum();
    median(reps, |_| {
        let mut builder = Runtime::builder().workers(1).channel_capacity(4);
        for q in 0..queries {
            builder.register(pool[q % pool.len()].clone(), Partitioning::Broadcast);
        }
        let mut runtime = builder.build().expect("runtime builds");
        let t0 = Instant::now();
        let mut matches = 0u64;
        for batch in batches {
            matches += runtime.ingest_columns(batch).expect("ingest").len() as u64;
        }
        matches += runtime.shutdown().expect("shutdown").matches.len() as u64;
        (total as f64 / t0.elapsed().as_secs_f64(), matches)
    })
}

/// The per-query-scan baseline: the same `queries` registrations as
/// single-threaded engines, every batch pushed through each one on its own
/// private predicate index.
fn measure_scan(
    pool: &[CompiledParts],
    queries: usize,
    batches: &[EventBatch],
    reps: usize,
) -> (f64, u64) {
    let total: usize = batches.iter().map(EventBatch::len).sum();
    median(reps, |_| {
        let mut engines: Vec<Engine> =
            (0..queries).map(|q| pool[q % pool.len()].engine().expect("engine builds")).collect();
        let t0 = Instant::now();
        let mut matches = 0u64;
        for batch in batches {
            for engine in &mut engines {
                matches += engine.push_columns(batch).len() as u64;
            }
        }
        for engine in &mut engines {
            matches += engine.flush().len() as u64;
        }
        (total as f64 / t0.elapsed().as_secs_f64(), matches)
    })
}

fn main() {
    let len = bench_len(16_384);
    let reps = bench_reps(3);
    let names: Vec<String> = (0..64).map(|i| format!("S{i:02}")).collect();
    let rates: Vec<(&str, f64)> = names.iter().map(|n| (n.as_str(), 1.0)).collect();
    let batches =
        StockGenerator::generate_batches(StockConfig::with_rates(&rates, len, 4242), CHUNK);
    let pool: Vec<CompiledParts> = pool_sources().iter().map(|s| compile(s)).collect();

    header(
        "Multi-query scale-up: shared predicate index vs per-query intake scans",
        "16-pattern alarm pool replicated to N broadcast queries: 1-shard runtime vs N engines",
    );
    let counts = [1usize, 10, 100, 1000];
    let mut shared_tputs = Vec::new();
    let mut scan_tputs = Vec::new();
    for &n in &counts {
        let (shared_tput, shared_matches) = measure_shared(&pool, n, &batches, reps);
        let (scan_tput, scan_matches) = measure_scan(&pool, n, &batches, reps);
        assert_eq!(
            shared_matches, scan_matches,
            "{n} queries: shared index changed the total match count \
             (shared {shared_matches} vs per-query-scan {scan_matches})"
        );
        assert!(shared_matches > 0, "{n} queries matched nothing — weak bench");
        let m = |tput| Measurement {
            throughput: tput,
            matches: shared_matches,
            peak_mb: 0.0,
            peak_bytes: 0,
            latency: None,
        };
        record_json("multi_query_scaling", &format!("{n}q-shared"), &m(shared_tput));
        record_json("multi_query_scaling", &format!("{n}q-scan"), &m(scan_tput));
        shared_tputs.push(shared_tput);
        scan_tputs.push(scan_tput);
    }

    let cols: Vec<String> = counts.iter().map(|n| format!("{n}q")).collect();
    row_header("queries ->", &cols);
    row("shared ev/s", &shared_tputs);
    row("per-query ev/s", &scan_tputs);
    let speedups: Vec<f64> = shared_tputs.iter().zip(&scan_tputs).map(|(s, b)| s / b).collect();
    row("speedup x", &speedups);
    println!(
        "\nmatch counts identical at every query count | \
         1000-query shared/per-query-scan: {:.2}x",
        speedups[3]
    );
    // The regression this bench guards: the shared index degenerating back
    // into per-query scans. At 1000 queries it must win even against
    // engines that pay no runtime overhead (1.5x on a 2-vCPU host at the CI
    // length of 16384 events, 3.9x at 131072). Opt-in enforcement, as in
    // `runtime_scaling`: loud by default, fatal once a host's numbers are
    // known to be stable.
    if speedups[3] < 1.0 {
        let msg = format!(
            "WARNING: 1000-query shared-index throughput ({:.0} ev/s) is below the \
             per-query-scan baseline ({:.0} ev/s) — the shared intake path may have \
             degenerated into per-query scans",
            shared_tputs[3], scan_tputs[3],
        );
        if std::env::var_os("ZSTREAM_BENCH_ENFORCE_SCALING").is_some() {
            panic!("{msg}");
        }
        eprintln!("{msg}");
    }
}
