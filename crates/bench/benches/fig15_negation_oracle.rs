//! **Figure 15** — Negation strategies for Query 7 (`IBM; !Sun; Oracle`,
//! WITHIN 200), varying the Oracle rate 1:1:1 … 1:1:50.
//!
//! Plan 1 (NSEQ push-down) always beats Plan 2 (NEG filter on top); the
//! NSEQ plan's throughput dips slightly as the Oracle rate grows because
//! NSEQ does per-Oracle work (Algorithm 2), which counteracts part of the
//! skew benefit.

use zstream_bench::*;
use zstream_core::{NegStrategy, PlanShape};
use zstream_workload::{StockConfig, StockGenerator};

const QUERY7: &str = "PATTERN IBM; !Sun; Oracle WITHIN 200";

fn main() {
    let len = bench_len(60_000);
    let reps = bench_reps(3);
    let ks = [1.0, 10.0, 20.0, 30.0, 40.0, 50.0];

    header("Figure 15: negation push-down (NSEQ) vs NEG-on-top, varying Oracle rate", QUERY7);
    let cols: Vec<String> = ks.iter().map(|k| format!("1:1:{k:.0}")).collect();
    row_header("IBM:Sun:Oracle ->", &cols);

    let mut nseq_series = Vec::new();
    let mut top_series = Vec::new();
    for (i, k) in ks.iter().enumerate() {
        let events = StockGenerator::generate(StockConfig::with_rates(
            &[("IBM", 1.0), ("Sun", 1.0), ("Oracle", *k)],
            len,
            1500 + i as u64,
        ));
        let mut nseq_run = TreeRun::shaped(QUERY7, PlanShape::left_deep(2));
        nseq_run.neg = NegStrategy::PushdownPreferred;
        let mut top_run = TreeRun::shaped(QUERY7, PlanShape::left_deep(2));
        top_run.neg = NegStrategy::TopFilter;
        let batches = pack(&events, BATCH);
        let nseq = measure_tree(&nseq_run, &batches, reps);
        let top = measure_tree(&top_run, &batches, reps);
        assert_eq!(nseq.matches, top.matches, "strategies must agree at 1:1:{k}");
        nseq_series.push(nseq.throughput);
        top_series.push(top.throughput);
    }
    row("NSEQ", &nseq_series);
    row("Neg on Top", &top_series);
    let ratio0 = nseq_series[0] / top_series[0];
    println!("\nNSEQ/NEG-on-top at 1:1:1: {ratio0:.1}x (paper: nearly an order of magnitude)");
}
