//! **Reorder cost** — the throughput price of the §4.1 reordering stage in
//! front of the sharded runtime's columnar ingest.
//!
//! On perfectly sorted input, slack 0 rides the zero-copy fast path (the
//! offered batch passes straight through, one `Arc` bump), so its series
//! should sit within noise of the no-reorder baseline; positive slack pays
//! for buffering the tail of every batch in the pending tree and
//! re-packing released rows into fresh batches — the cost grows with the
//! slack, which is the trade-off this bench records. A disordered series
//! (bounded disorder ≤ slack) shows the stage doing real work while
//! preserving the match set exactly.
//!
//! Every series must produce the **same match count** (sorted input and
//! bounded disorder lose nothing); the asserts below fail the CI
//! `bench-trajectory` job if the reorder stage ever changes the match set.

use std::time::Instant;

use zstream_bench::*;
use zstream_core::{CompiledParts, EngineBuilder};
use zstream_events::{EventBatch, Ts};
use zstream_runtime::{Partitioning, Runtime};
use zstream_workload::{DisorderSpec, StockConfig, StockGenerator};

const QUERY: &str = "PATTERN A; B; C WHERE A.name = B.name AND B.name = C.name WITHIN 60";
const CHUNK: usize = 1024;
const WORKERS: usize = 2;

fn compile() -> CompiledParts {
    EngineBuilder::parse(QUERY)
        .expect("bench query parses")
        .compile()
        .expect("bench query compiles")
}

fn total_events(batches: &[EventBatch]) -> usize {
    batches.iter().map(EventBatch::len).sum()
}

/// Columnar runtime ingest with an optional reorder stage; returns
/// (events/s, matches, late, buffered peak).
fn measure(slack: Option<Ts>, batches: &[EventBatch], reps: usize) -> (f64, u64, u64, u64) {
    let total = total_events(batches);
    let mut samples: Vec<(f64, u64, u64, u64)> = (0..reps.max(1))
        .map(|_| {
            let mut builder = Runtime::builder().workers(WORKERS).channel_capacity(4);
            if let Some(s) = slack {
                builder = builder.slack(s);
            }
            builder.register(compile(), Partitioning::Field("name".into()));
            let mut runtime = builder.build().expect("runtime builds");
            let t0 = Instant::now();
            let mut matches = 0u64;
            for batch in batches {
                matches += runtime.ingest_columns(batch).expect("ingest_columns").len() as u64;
            }
            let report = runtime.shutdown().expect("shutdown");
            matches += report.matches.len() as u64;
            (
                total as f64 / t0.elapsed().as_secs_f64(),
                matches,
                report.late_events,
                report.reorder_buffered_peak,
            )
        })
        .collect();
    samples.sort_by(|a, b| a.0.total_cmp(&b.0));
    samples[samples.len() / 2]
}

fn main() {
    let len = bench_len(60_000);
    let reps = bench_reps(3);
    let names: Vec<String> = (0..64).map(|i| format!("S{i:02}")).collect();
    let rates: Vec<(&str, f64)> = names.iter().map(|n| (n.as_str(), 1.0)).collect();
    let sorted =
        StockGenerator::generate_batches(StockConfig::with_rates(&rates, len, 4242), CHUNK);
    // Bounded disorder well inside the largest slack: the reorder stage
    // must reconstruct the sorted stream exactly (zero late events).
    let disordered = StockGenerator::generate_batches(
        StockConfig::with_rates(&rates, len, 4242).disordered(DisorderSpec::bounded(512, 7)),
        CHUNK,
    );

    header(
        "Reorder cost: slack vs throughput on the sharded columnar ingest",
        "PATTERN A; B; C WHERE A.name = B.name = C.name WITHIN 60, 64 names, 2 shards",
    );
    let record = |series: &str, tput: f64, matches: u64| {
        let m =
            Measurement { throughput: tput, matches, peak_mb: 0.0, peak_bytes: 0, latency: None };
        record_json("reorder_cost", series, &m);
    };

    let (base_tput, base_matches, _, _) = measure(None, &sorted, reps);
    record("no-reorder", base_tput, base_matches);

    let slacks: [Ts; 3] = [0, 64, 1024];
    let mut tputs = vec![base_tput];
    for &slack in &slacks {
        let (tput, matches, late, peak) = measure(Some(slack), &sorted, reps);
        assert_eq!(matches, base_matches, "slack {slack} changed the match set on sorted input");
        assert_eq!(late, 0, "sorted input can never be late (slack {slack})");
        if slack == 0 {
            assert_eq!(peak, 0, "slack 0 on sorted input is the zero-copy pass-through");
        } else {
            assert!(peak > 0, "positive slack holds back each batch's tail (slack {slack})");
        }
        record(&format!("slack-{slack}"), tput, matches);
        tputs.push(tput);
    }

    let (dis_tput, dis_matches, dis_late, dis_peak) = measure(Some(1024), &disordered, reps);
    assert_eq!(
        dis_matches, base_matches,
        "bounded disorder within slack must reproduce the sorted match set exactly"
    );
    assert_eq!(dis_late, 0, "disorder is bounded by 512 <= slack 1024");
    assert!(dis_peak > 0, "disordered input must have buffered rows");
    record("slack-1024-disordered", dis_tput, dis_matches);
    tputs.push(dis_tput);

    let cols: Vec<String> = ["no-reorder".to_string()]
        .into_iter()
        .chain(slacks.iter().map(|s| format!("slack-{s}")))
        .chain(["1024+disorder".to_string()])
        .collect();
    row_header("configuration ->", &cols);
    row("events/s", &tputs);
    println!(
        "\nmatches: {base_matches} (identical across all series) | late: 0 everywhere | \
         disordered buffered peak: {dis_peak} rows | \
         slack-0/no-reorder: {:.2}x | slack-1024/no-reorder: {:.2}x",
        tputs[1] / base_tput,
        tputs[3] / base_tput,
    );
}
