//! **Figure 8** — Throughput of the left-deep plan, the right-deep plan and
//! the NFA for Query 4 (`IBM; Sun; Oracle` with `IBM.price > Sun.price`,
//! WITHIN 200) as the predicate's selectivity sweeps 1 … 1/32 at uniform
//! 1:1:1 rates.
//!
//! Expected shape: the left-deep plan (which evaluates the selective
//! predicate first) wins, by up to ~5x at 1/32; the NFA tracks the
//! right-deep plan.

use zstream_bench::*;
use zstream_core::PlanShape;
use zstream_workload::{price_factor_for_selectivity, StockConfig, StockGenerator};

fn main() {
    let len = bench_len(60_000);
    let reps = bench_reps(3);
    let selectivities = [1.0, 0.5, 0.25, 0.125, 0.0625, 0.03125];

    header(
        "Figure 8: throughput vs multi-class predicate selectivity (Query 4)",
        "PATTERN IBM; Sun; Oracle WHERE IBM.price > f*Sun.price WITHIN 200, rates 1:1:1",
    );
    let cols: Vec<String> = selectivities.iter().map(|s| format!("{s:.4}")).collect();
    row_header("selectivity ->", &cols);

    // Columnar batches sized to the engine round (vectorized intake); the
    // NFA baseline consumes the same rows as flat handles.
    let batches = StockGenerator::generate_batches(
        StockConfig::uniform(&["IBM", "Sun", "Oracle"], len, 808),
        BATCH,
    );
    let events: Vec<_> = batches.iter().flat_map(|b| b.iter()).collect();

    let mut results: Vec<(&str, Vec<f64>)> =
        vec![("left-deep", vec![]), ("right-deep", vec![]), ("NFA", vec![])];
    for s in selectivities {
        let f = price_factor_for_selectivity(s);
        let query =
            format!("PATTERN IBM; Sun; Oracle WHERE IBM.price > {f} * Sun.price WITHIN 200");
        let ld = measure_tree(&TreeRun::shaped(&query, PlanShape::left_deep(3)), &batches, reps);
        let rd = measure_tree(&TreeRun::shaped(&query, PlanShape::right_deep(3)), &batches, reps);
        let nfa = measure_nfa(&query, Routing::StockByName, &events, reps);
        assert_eq!(ld.matches, rd.matches, "plans must agree on matches");
        assert_eq!(ld.matches, nfa.matches, "NFA must agree on matches");
        results[0].1.push(ld.throughput);
        results[1].1.push(rd.throughput);
        results[2].1.push(nfa.throughput);
    }
    for (label, series) in &results {
        row(label, series);
    }
    println!(
        "\nleft-deep speedup over right-deep at sel 1/32: {:.1}x",
        results[0].1.last().unwrap() / results[1].1.last().unwrap()
    );
}
