//! **Figure 17** — Throughput of the left-deep plan, the right-deep plan and
//! the NFA for Query 8 (`Publication; Project; Course`, same IP, WITHIN 10
//! hours) over the synthetic month-long web log.
//!
//! Publication accesses are by far the rarest class (Table 4), so the
//! left-deep plan — which joins publications first — produces far fewer
//! intermediate results and wins; the NFA trails the right-deep plan
//! because it cannot reuse (materialize) intermediate combinations across
//! the long 10-hour window (§6.5).

use zstream_bench::*;
use zstream_core::PlanShape;
use zstream_workload::{WeblogConfig, WeblogGenerator};

const QUERY8: &str = "PATTERN Publication; Project; Course \
     WHERE Publication.ip = Project.ip AND Project.ip = Course.ip \
     WITHIN 10 hours";

fn main() {
    let total = bench_len(750_000) as u64;
    let reps = bench_reps(3);
    header("Figure 17: throughput on the web access log (Query 8)", QUERY8);
    // Columnar batches feed the tree engines' vectorized intake; the NFA
    // baseline consumes the same rows as flat handles.
    let (batches, stats) =
        WeblogGenerator::generate_batches(&WeblogConfig::scaled(total, 2009), BATCH);
    let events: Vec<_> = batches.iter().flat_map(|b| b.iter()).collect();
    println!(
        "workload: {} records | publication {} | project {} | course {}\n",
        stats.total, stats.publication, stats.project, stats.course
    );
    row_header("plan ->", &["events/s".to_string(), "matches".to_string()]);

    let mut run = TreeRun::shaped(QUERY8, PlanShape::left_deep(3));
    run.routing = Routing::WeblogByCategory;
    let ld = measure_tree(&run, &batches, reps);
    row("left-deep", &[ld.throughput, ld.matches as f64]);

    let mut run = TreeRun::shaped(QUERY8, PlanShape::right_deep(3));
    run.routing = Routing::WeblogByCategory;
    let rd = measure_tree(&run, &batches, reps);
    row("right-deep", &[rd.throughput, rd.matches as f64]);

    let nfa = measure_nfa(QUERY8, Routing::WeblogByCategory, &events, reps);
    row("NFA", &[nfa.throughput, nfa.matches as f64]);

    assert_eq!(ld.matches, rd.matches);
    assert_eq!(ld.matches, nfa.matches);
    println!(
        "\nleft-deep vs right-deep: {:.2}x | left-deep vs NFA: {:.2}x",
        ld.throughput / rd.throughput,
        ld.throughput / nfa.throughput
    );
}
