//! **Figure 12** — Throughput of four fixed tree plans and the NFA for
//! Query 6 (four classes, two predicates, WITHIN 100) in three statistics
//! regimes:
//!
//! * `rate 1:100:100:100` — IBM rare: left-deep (and bushy) win,
//! * `sel1 = 1/50` — Sun↔Oracle predicate selective: the inner plan wins
//!   (almost 2x), bushy does worst (it defers the selective predicate),
//! * `sel2 = 1/50` — Oracle↔Google predicate selective: right-deep and the
//!   NFA win, left-deep does poorly.
//!
//! Selectivities are varied through per-name price scales: the query's
//! factor-25 comparisons have selectivity 1/50 against unscaled prices and
//! ~1 against prices scaled down by 1e-4 (see `StockConfig::price_scales`).

use zstream_bench::*;
use zstream_core::PlanShape;
use zstream_events::EventRef;
use zstream_workload::{StockConfig, StockGenerator};

/// Query 6 with fixed factor-25 predicates; the data controls selectivity.
pub const QUERY6: &str = "PATTERN IBM; Sun; Oracle; Google \
     WHERE Oracle.price > 25 * Sun.price AND Oracle.price > 25 * Google.price \
     WITHIN 100";

/// The three regimes of Figure 12: (label, rates, sun-scale, google-scale).
pub fn regimes() -> Vec<(&'static str, [f64; 4], f64, f64)> {
    vec![
        ("rate 1:100:100:100", [1.0, 100.0, 100.0, 100.0], 1e-4, 1e-4),
        ("sel1 = 1/50", [1.0, 1.0, 1.0, 1.0], 1.0, 1e-4),
        ("sel2 = 1/50", [1.0, 1.0, 1.0, 1.0], 1e-4, 1.0),
    ]
}

/// Generates one regime's stream.
pub fn regime_stream(
    rates: [f64; 4],
    sun_scale: f64,
    google_scale: f64,
    len: usize,
    seed: u64,
) -> Vec<EventRef> {
    StockGenerator::generate(
        StockConfig::with_rates(
            &[("IBM", rates[0]), ("Sun", rates[1]), ("Oracle", rates[2]), ("Google", rates[3])],
            len,
            seed,
        )
        .price_scale("Sun", sun_scale)
        .price_scale("Google", google_scale),
    )
}

/// The four fixed plans of §6.2.
pub fn plans() -> Vec<(&'static str, PlanShape)> {
    vec![
        ("left-deep", PlanShape::left_deep(4)),
        ("right-deep", PlanShape::right_deep(4)),
        ("bushy", PlanShape::bushy(4)),
        ("inner", PlanShape::inner4()),
    ]
}

fn main() {
    let len = bench_len(25_000);
    let reps = bench_reps(2);

    header("Figure 12: throughput of fixed plans for Query 6 across regimes", QUERY6);
    let cols: Vec<String> = regimes().iter().map(|(l, ..)| l.to_string()).collect();
    row_header("plan \\ regime ->", &cols);

    let streams: Vec<Vec<EventRef>> = regimes()
        .iter()
        .enumerate()
        .map(|(i, (_, rates, ss, gs))| regime_stream(*rates, *ss, *gs, len, 1200 + i as u64))
        .collect();

    let packed: Vec<_> = streams.iter().map(|events| pack(events, BATCH)).collect();
    let mut expected_matches: Vec<Option<u64>> = vec![None; streams.len()];
    for (label, shape) in plans() {
        let mut series = Vec::new();
        for (ri, batches) in packed.iter().enumerate() {
            let m = measure_tree(&TreeRun::shaped(QUERY6, shape.clone()), batches, reps);
            match expected_matches[ri] {
                None => expected_matches[ri] = Some(m.matches),
                Some(e) => assert_eq!(e, m.matches, "{label} disagrees in regime {ri}"),
            }
            series.push(m.throughput);
        }
        row(label, &series);
    }
    let mut series = Vec::new();
    for (ri, events) in streams.iter().enumerate() {
        let m = measure_nfa(QUERY6, Routing::StockByName, events, reps);
        assert_eq!(expected_matches[ri].unwrap(), m.matches, "NFA disagrees");
        series.push(m.throughput);
    }
    row("NFA", &series);
}
