//! **Table 5** — Peak memory for Query 8 over the web log: like Table 3,
//! the point is stability — all three engines hold a similar, bounded
//! working set determined by the 10-hour window, not by the plan.

use zstream_bench::*;
use zstream_core::PlanShape;
use zstream_workload::{WeblogConfig, WeblogGenerator};

const QUERY8: &str = "PATTERN Publication; Project; Course \
     WHERE Publication.ip = Project.ip AND Project.ip = Course.ip \
     WITHIN 10 hours";

fn main() {
    let total = bench_len(750_000) as u64;
    header(
        "Table 5: peak memory (MB) for Query 8 on the web access log",
        "Logical buffer accounting",
    );
    let (batches, _) = WeblogGenerator::generate_batches(&WeblogConfig::scaled(total, 2009), BATCH);
    let events: Vec<_> = batches.iter().flat_map(|b| b.iter()).collect();
    row_header("plan ->", &["peak MB".to_string()]);

    let mut run = TreeRun::shaped(QUERY8, PlanShape::left_deep(3));
    run.routing = Routing::WeblogByCategory;
    let ld = measure_tree(&run, &batches, 1);
    println!("{:>24} | {:>12.3}", "left-deep", ld.peak_mb);

    let mut run = TreeRun::shaped(QUERY8, PlanShape::right_deep(3));
    run.routing = Routing::WeblogByCategory;
    let rd = measure_tree(&run, &batches, 1);
    println!("{:>24} | {:>12.3}", "right-deep", rd.peak_mb);

    let nfa = measure_nfa(QUERY8, Routing::WeblogByCategory, &events, 1);
    println!("{:>24} | {:>12.3}", "NFA", nfa.peak_mb);

    println!("\n(paper's Table 5: 10.13 / 10.66 / 10.55 MB — flat across plans)");
}
