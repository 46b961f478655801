//! **Figure 10** — Throughput of the three engines for Query 5
//! (`IBM; Sun; Oracle`, no predicates, WITHIN 200) as the relative event
//! rate IBM : Sun : Oracle sweeps from IBM-heavy to IBM-rare.
//!
//! Expected shape: right-deep wins while IBM is frequent (IBM joins last),
//! all plans meet at 1:1:1, left-deep wins when IBM is rare (IBM joins
//! first); the NFA tracks the right-deep plan. The gap grows faster on the
//! right side: lowering one class's rate by k skews the distribution by
//! k^(N-1) (§6.1.2).

use zstream_bench::*;
use zstream_core::PlanShape;
use zstream_workload::{StockConfig, StockGenerator};

const QUERY: &str = "PATTERN IBM; Sun; Oracle WITHIN 200";

fn main() {
    let len = bench_len(40_000);
    let reps = bench_reps(3);
    // (IBM, Sun, Oracle) relative rates, IBM-heavy -> IBM-rare.
    let sweeps: [(f64, f64, f64); 7] = [
        (50.0, 1.0, 1.0),
        (20.0, 1.0, 1.0),
        (5.0, 1.0, 1.0),
        (1.0, 1.0, 1.0),
        (1.0, 5.0, 5.0),
        (1.0, 20.0, 20.0),
        (1.0, 50.0, 50.0),
    ];

    header(
        "Figure 10: throughput vs relative event rates (Query 5)",
        "PATTERN IBM; Sun; Oracle WITHIN 200, no predicates",
    );
    let cols: Vec<String> =
        sweeps.iter().map(|(a, b, c)| format!("{a:.0}:{b:.0}:{c:.0}")).collect();
    row_header("IBM:Sun:Oracle ->", &cols);

    let mut results: Vec<(&str, Vec<f64>)> =
        vec![("left-deep", vec![]), ("right-deep", vec![]), ("NFA", vec![])];
    for (i, (a, b, c)) in sweeps.iter().enumerate() {
        let events = StockGenerator::generate(StockConfig::with_rates(
            &[("IBM", *a), ("Sun", *b), ("Oracle", *c)],
            len,
            900 + i as u64,
        ));
        let batches = pack(&events, BATCH);
        let ld = measure_tree(&TreeRun::shaped(QUERY, PlanShape::left_deep(3)), &batches, reps);
        let rd = measure_tree(&TreeRun::shaped(QUERY, PlanShape::right_deep(3)), &batches, reps);
        let nfa = measure_nfa(QUERY, Routing::StockByName, &events, reps);
        assert_eq!(ld.matches, rd.matches);
        assert_eq!(ld.matches, nfa.matches);
        results[0].1.push(ld.throughput);
        results[1].1.push(rd.throughput);
        results[2].1.push(nfa.throughput);
    }
    for (label, series) in &results {
        row(label, series);
    }
    println!(
        "\nright-deep/left-deep at 50:1:1: {:.2}x | left-deep/right-deep at 1:50:50: {:.2}x",
        results[1].1[0] / results[0].1[0],
        results[0].1[6] / results[1].1[6]
    );
}
