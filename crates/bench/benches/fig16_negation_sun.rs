//! **Figure 16** — Negation strategies for Query 7, varying the *negated*
//! class's rate (Sun) 1:1:1 … 1:50:1.
//!
//! NSEQ still wins everywhere, but the NEG-on-top plan improves much faster
//! with Sun skew: it joins IBM and Oracle first, and a Sun-heavy stream
//! yields relatively few (IBM, Oracle) pairs to filter.

use zstream_bench::*;
use zstream_core::{NegStrategy, PlanShape};
use zstream_workload::{StockConfig, StockGenerator};

const QUERY7: &str = "PATTERN IBM; !Sun; Oracle WITHIN 200";

fn main() {
    let len = bench_len(60_000);
    let reps = bench_reps(3);
    let ks = [1.0, 10.0, 20.0, 30.0, 40.0, 50.0];

    header("Figure 16: negation push-down (NSEQ) vs NEG-on-top, varying Sun rate", QUERY7);
    let cols: Vec<String> = ks.iter().map(|k| format!("1:{k:.0}:1")).collect();
    row_header("IBM:Sun:Oracle ->", &cols);

    let mut nseq_series = Vec::new();
    let mut top_series = Vec::new();
    for (i, k) in ks.iter().enumerate() {
        let events = StockGenerator::generate(StockConfig::with_rates(
            &[("IBM", 1.0), ("Sun", *k), ("Oracle", 1.0)],
            len,
            1600 + i as u64,
        ));
        let mut nseq_run = TreeRun::shaped(QUERY7, PlanShape::left_deep(2));
        nseq_run.neg = NegStrategy::PushdownPreferred;
        let mut top_run = TreeRun::shaped(QUERY7, PlanShape::left_deep(2));
        top_run.neg = NegStrategy::TopFilter;
        let batches = pack(&events, BATCH);
        let nseq = measure_tree(&nseq_run, &batches, reps);
        let top = measure_tree(&top_run, &batches, reps);
        assert_eq!(nseq.matches, top.matches, "strategies must agree at 1:{k}:1");
        nseq_series.push(nseq.throughput);
        top_series.push(top.throughput);
    }
    row("NSEQ", &nseq_series);
    row("Neg on Top", &top_series);
    println!(
        "\nNEG-on-top improvement from 1:1:1 to 1:50:1: {:.1}x (it narrows the gap)",
        top_series[5] / top_series[0]
    );
}
