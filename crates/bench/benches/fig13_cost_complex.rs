//! **Figure 13** — 1/estimated-cost of the four fixed tree plans for
//! Query 6 in the Figure 12 regimes: the cost model must rank the plans the
//! way Figure 12 measures them (left-deep/bushy lead regime 1, inner leads
//! regime 2 with bushy last, right-deep leads regime 3).

use zstream_bench::*;
use zstream_core::{spec_with_shape, NegStrategy, PlanShape, Statistics};
use zstream_events::Schema;
use zstream_lang::{analyze, Query, SchemaMap};

const QUERY6: &str = "PATTERN IBM; Sun; Oracle; Google \
     WHERE Oracle.price > 25 * Sun.price AND Oracle.price > 25 * Google.price \
     WITHIN 100";

fn main() {
    header(
        "Figure 13: 1/estimated-cost of fixed plans for Query 6 (x1e-5)",
        "Cost model (Table 2) under the Figure 12 regimes",
    );
    // (label, per-class rate fractions, sel1, sel2).
    let regimes: Vec<(&str, [f64; 4], f64, f64)> = vec![
        (
            "rate 1:100:100:100",
            [1.0 / 301.0, 100.0 / 301.0, 100.0 / 301.0, 100.0 / 301.0],
            1.0,
            1.0,
        ),
        ("sel1 = 1/50", [0.25; 4], 1.0 / 50.0, 1.0),
        ("sel2 = 1/50", [0.25; 4], 1.0, 1.0 / 50.0),
    ];
    let cols: Vec<String> = regimes.iter().map(|(l, ..)| l.to_string()).collect();
    row_header("plan \\ regime ->", &cols);

    let aq =
        analyze(&Query::parse(QUERY6).unwrap(), &SchemaMap::uniform(Schema::stocks())).unwrap();
    let plans = [
        ("left-deep", PlanShape::left_deep(4)),
        ("right-deep", PlanShape::right_deep(4)),
        ("bushy", PlanShape::bushy(4)),
        ("inner", PlanShape::inner4()),
    ];
    // Per plan, 1/estimated-cost in each regime.
    let mut inv_cost: Vec<Vec<f64>> = Vec::new();
    for (label, shape) in plans {
        let mut series = Vec::new();
        for (_, rates, sel1, sel2) in &regimes {
            let stats = Statistics::uniform(4, 2, 100)
                .with_rates(rates)
                .with_pred_sel(0, *sel1)
                .with_pred_sel(1, *sel2);
            let spec = spec_with_shape(&aq, &stats, shape.clone(), NegStrategy::PushdownPreferred)
                .unwrap();
            series.push(1e5 / spec.est_cost);
        }
        row(label, &series);
        inv_cost.push(series);
    }

    // The ranking the doc comment states, on estimated costs
    // (deterministic). Plans: 0 left-deep, 1 right-deep, 2 bushy, 3 inner.
    let at = |regime: usize| -> Vec<f64> { inv_cost.iter().map(|s| s[regime]).collect() };
    let best = |v: &[f64]| (0..v.len()).max_by(|&a, &b| v[a].total_cmp(&v[b])).unwrap();
    let worst = |v: &[f64]| (0..v.len()).min_by(|&a, &b| v[a].total_cmp(&v[b])).unwrap();
    let r1 = at(0);
    assert!(
        r1[0].min(r1[2]) > r1[1].max(r1[3]),
        "regime 1: left-deep and bushy must lead, got {r1:?}"
    );
    let r2 = at(1);
    assert_eq!((best(&r2), worst(&r2)), (3, 2), "regime 2: inner first, bushy last, got {r2:?}");
    let r3 = at(2);
    assert_eq!(best(&r3), 1, "regime 3: right-deep must lead, got {r3:?}");
    println!(
        "\nclaims hold: left-deep/bushy lead regime 1, inner leads regime 2 with bushy last, \
         right-deep leads regime 3"
    );
}
