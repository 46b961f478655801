//! **Table 3** — Peak memory of the five engines for Query 6 in regimes 1
//! (`rate 1:100:100:100`) and 2 (`sel1 = 1/50`). The paper's point: peak
//! memory stays relatively stable across plans — it is bounded by the query
//! type and window, not by which plan runs — and is far less variable than
//! the throughput of the same plans (Figure 12).

use zstream_bench::*;
use zstream_core::PlanShape;
use zstream_workload::{StockConfig, StockGenerator};

const QUERY6: &str = "PATTERN IBM; Sun; Oracle; Google \
     WHERE Oracle.price > 25 * Sun.price AND Oracle.price > 25 * Google.price \
     WITHIN 100";

fn main() {
    let len = bench_len(25_000);

    header(
        "Table 3: peak memory (MB) for Query 6",
        "Logical buffer accounting, regimes 1 and 2 of Figure 12",
    );
    let regimes: Vec<(&str, [f64; 4], f64, f64)> = vec![
        ("rate 1:100:100:100", [1.0, 100.0, 100.0, 100.0], 1e-4, 1e-4),
        ("sel1 = 1/50", [1.0, 1.0, 1.0, 1.0], 1.0, 1e-4),
    ];
    let cols: Vec<String> = regimes.iter().map(|(l, ..)| l.to_string()).collect();
    row_header("plan \\ regime ->", &cols);

    let streams: Vec<Vec<zstream_events::EventRef>> = regimes
        .iter()
        .enumerate()
        .map(|(i, (_, rates, ss, gs))| {
            StockGenerator::generate(
                StockConfig::with_rates(
                    &[
                        ("IBM", rates[0]),
                        ("Sun", rates[1]),
                        ("Oracle", rates[2]),
                        ("Google", rates[3]),
                    ],
                    len,
                    300 + i as u64,
                )
                .price_scale("Sun", *ss)
                .price_scale("Google", *gs),
            )
        })
        .collect();

    let plans = [
        ("left-deep", PlanShape::left_deep(4)),
        ("right-deep", PlanShape::right_deep(4)),
        ("bushy", PlanShape::bushy(4)),
        ("inner", PlanShape::inner4()),
    ];
    for (label, shape) in plans {
        let series: Vec<f64> = streams
            .iter()
            .map(|events| {
                measure_tree(&TreeRun::shaped(QUERY6, shape.clone()), &pack(events, BATCH), 1)
                    .peak_mb
            })
            .collect();
        print!("{label:>24} |");
        for v in series {
            print!(" {v:>12.3}");
        }
        println!();
    }
    let series: Vec<f64> = streams
        .iter()
        .map(|events| measure_nfa(QUERY6, Routing::StockByName, events, 1).peak_mb)
        .collect();
    print!("{:>24} |", "NFA");
    for v in series {
        print!(" {v:>12.3}");
    }
    println!();
    println!("\n(paper's Table 3 reports 6.5-7.6 MB across all five plans — flat)");
}
