//! **Scale-out** — throughput of the sharded runtime at 1/2/4/8 worker
//! shards (`ingest_columns`) vs the single-threaded engines, on a
//! partitionable stock query (every class connected by `name` equalities,
//! 64-name alphabet so keys spread across shards).
//!
//! Expected shape on a multi-core host: near-linear scaling while shards ≤
//! cores — routing is one key-column scan and the fan-out ships `Arc`'d
//! batches plus selection vectors, so the only serial work is that scan and
//! the ordered merge. On a single core the sharded configurations pay
//! thread overhead for no parallel gain; the host-core count in the summary
//! line makes either outcome interpretable.
//!
//! Every series must produce the **same match count**; the asserts below
//! fail the CI `bench-trajectory` job if sharding ever changes the match
//! set.

use std::time::Instant;

use zstream_bench::*;
use zstream_core::{CompiledParts, EngineBuilder};
use zstream_events::EventBatch;
use zstream_runtime::{Partitioning, Runtime};
use zstream_workload::{StockConfig, StockGenerator};

const QUERY: &str = "PATTERN A; B; C WHERE A.name = B.name AND B.name = C.name WITHIN 60";
const CHUNK: usize = 1024;

fn compile() -> CompiledParts {
    EngineBuilder::parse(QUERY)
        .expect("bench query parses")
        .compile()
        .expect("bench query compiles")
}

fn total_events(batches: &[EventBatch]) -> usize {
    batches.iter().map(EventBatch::len).sum()
}

/// Single-threaded plain engine (equality predicates evaluated in-plan),
/// consuming the columnar batches directly — the baseline the sharded
/// runtime is measured against.
fn measure_engine(batches: &[EventBatch], reps: usize) -> (f64, u64) {
    let total = total_events(batches);
    median_run(reps, || {
        let mut engine = compile().engine().expect("engine builds");
        let t0 = Instant::now();
        let mut matches = 0u64;
        for batch in batches {
            matches += engine.push_columns(batch).len() as u64;
        }
        matches += engine.flush().len() as u64;
        (total as f64 / t0.elapsed().as_secs_f64(), matches)
    })
}

/// Single-threaded per-key partitioned engine (the §4.1 figure-3 layout),
/// routing each batch off the key column.
fn measure_partitioned(batches: &[EventBatch], reps: usize) -> (f64, u64) {
    let total = total_events(batches);
    median_run(reps, || {
        let mut engine = compile().partitioned_engine("name").expect("partitionable");
        let t0 = Instant::now();
        let mut matches = 0u64;
        for batch in batches {
            matches += engine.push_columns(batch).len() as u64;
        }
        matches += engine.flush().len() as u64;
        (total as f64 / t0.elapsed().as_secs_f64(), matches)
    })
}

/// The sharded runtime at `workers` shards: one key-column scan per chunk,
/// `Arc`'d batches plus selection vectors over the channels.
fn measure_runtime_columns(
    workers: usize,
    batches: &[EventBatch],
    reps: usize,
) -> (f64, u64, Option<LatencySummary>) {
    let total = total_events(batches);
    median_lat_run(reps, || {
        let mut builder = Runtime::builder().workers(workers).channel_capacity(4);
        builder.register(compile(), Partitioning::Field("name".into()));
        let mut runtime = builder.build().expect("runtime builds");
        let hub = runtime.obs_handle();
        let t0 = Instant::now();
        let mut matches = 0u64;
        for batch in batches {
            matches += runtime.ingest_columns(batch).expect("ingest_columns").len() as u64;
        }
        matches += runtime.shutdown().expect("shutdown").matches.len() as u64;
        (total as f64 / t0.elapsed().as_secs_f64(), matches, service_latency(&hub))
    })
}

/// Folds the run's per-shard service histograms into one latency summary.
fn service_latency(hub: &std::sync::Arc<zstream_obs::Obs>) -> Option<LatencySummary> {
    let h = hub.snapshot().histogram_total("zstream_shard_service_ns")?;
    LatencySummary::from_ns_hist(&h)
}

fn median_run(reps: usize, mut run: impl FnMut() -> (f64, u64)) -> (f64, u64) {
    let mut samples: Vec<(f64, u64)> = (0..reps.max(1)).map(|_| run()).collect();
    samples.sort_by(|a, b| a.0.total_cmp(&b.0));
    samples[samples.len() / 2]
}

/// [`median_run`] carrying the median sample's latency summary along.
fn median_lat_run(
    reps: usize,
    mut run: impl FnMut() -> (f64, u64, Option<LatencySummary>),
) -> (f64, u64, Option<LatencySummary>) {
    let mut samples: Vec<(f64, u64, Option<LatencySummary>)> =
        (0..reps.max(1)).map(|_| run()).collect();
    samples.sort_by(|a, b| a.0.total_cmp(&b.0));
    samples[samples.len() / 2]
}

fn main() {
    let len = bench_len(60_000);
    let reps = bench_reps(3);
    let names: Vec<String> = (0..64).map(|i| format!("S{i:02}")).collect();
    let rates: Vec<(&str, f64)> = names.iter().map(|n| (n.as_str(), 1.0)).collect();
    let batches =
        StockGenerator::generate_batches(StockConfig::with_rates(&rates, len, 4242), CHUNK);

    header(
        "Scale-out: sharded runtime vs single-threaded engines",
        "PATTERN A; B; C WHERE A.name = B.name = C.name WITHIN 60, 64 names, uniform rates",
    );
    let shard_counts = [1usize, 2, 4, 8];
    let record = |series: &str, tput: f64, matches: u64, latency: Option<LatencySummary>| {
        let m = Measurement { throughput: tput, matches, peak_mb: 0.0, peak_bytes: 0, latency };
        record_json("runtime_scaling", series, &m);
    };

    let (engine_tput, engine_matches) = measure_engine(&batches, reps);
    let (part_tput, part_matches) = measure_partitioned(&batches, reps);
    assert_eq!(engine_matches, part_matches, "partitioned engine changed the match set");
    record("single", engine_tput, engine_matches, None);
    record("part-1thr", part_tput, part_matches, None);

    let mut col_tputs = Vec::new();
    for &workers in &shard_counts {
        let (col, col_matches, col_lat) = measure_runtime_columns(workers, &batches, reps);
        assert_eq!(engine_matches, col_matches, "{workers}-shard runtime changed the match set");
        record(&format!("{workers}-shards-col"), col, col_matches, col_lat);
        col_tputs.push(col);
    }

    let cols: Vec<String> = ["single", "part-1thr"]
        .into_iter()
        .map(str::to_string)
        .chain(shard_counts.iter().map(|w| format!("{w}sh-col")))
        .collect();
    row_header("configuration ->", &cols);
    let mut tputs = vec![engine_tput, part_tput];
    tputs.extend(&col_tputs);
    row("events/s", &tputs);
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    println!(
        "\nmatches: {engine_matches} (identical across all configurations) | \
         4-shard/single: {:.2}x | 4-shard/1-shard: {:.2}x | host cores: {cores}",
        col_tputs[2] / engine_tput,
        col_tputs[2] / col_tputs[0],
    );
    // Where parallelism physically exists, sharding should be a speedup
    // again — the regression this bench guards against is 4-shard ingest
    // running *slower* than one thread. On a < 4-core host the check is
    // meaningless (total work, not routing, binds), so it only fires with
    // cores >= 4: a loud warning by default, a hard failure when
    // ZSTREAM_BENCH_ENFORCE_SCALING=1 is set (opt-in until a multi-core
    // baseline is recorded, so an unvalidated threshold cannot flake CI).
    if cores >= 4 && col_tputs[2] <= 1.25 * engine_tput {
        let msg = format!(
            "WARNING: 4-shard ingest ({:.0} ev/s) is not a clear speedup over the \
             single-threaded engine ({:.0} ev/s) on a {cores}-core host — the \
             sharded-slower-than-single regression may be back",
            col_tputs[2], engine_tput,
        );
        if std::env::var_os("ZSTREAM_BENCH_ENFORCE_SCALING").is_some() {
            panic!("{msg}");
        }
        eprintln!("{msg}");
    }
}
