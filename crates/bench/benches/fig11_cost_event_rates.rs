//! **Figure 11** — 1/estimated-cost of the left-deep and right-deep plans
//! for Query 5 across the Figure 10 rate sweep: the cost model must predict
//! the crossover at 1:1:1 and the asymmetric divergence.

use zstream_bench::*;
use zstream_core::{spec_with_shape, NegStrategy, PlanShape, Statistics};
use zstream_events::Schema;
use zstream_lang::{analyze, Query, SchemaMap};

const QUERY: &str = "PATTERN IBM; Sun; Oracle WITHIN 200";

fn main() {
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
        "Figure 11: 1/estimated-cost vs relative event rates (Query 5, x1e-6)",
        "Cost model (Table 2), window 200",
    );
    let cols: Vec<String> =
        sweeps.iter().map(|(a, b, c)| format!("{a:.0}:{b:.0}:{c:.0}")).collect();
    row_header("IBM:Sun:Oracle ->", &cols);

    let aq = analyze(&Query::parse(QUERY).unwrap(), &SchemaMap::uniform(Schema::stocks())).unwrap();
    let mut out: Vec<(&str, Vec<f64>)> = vec![("left-deep", vec![]), ("right-deep", vec![])];
    for (a, b, c) in sweeps {
        let total = a + b + c;
        let stats = Statistics::uniform(3, 0, 200).with_rates(&[a / total, b / total, c / total]);
        for (i, shape) in
            [PlanShape::left_deep(3), PlanShape::right_deep(3)].into_iter().enumerate()
        {
            let spec = spec_with_shape(&aq, &stats, shape, NegStrategy::PushdownPreferred).unwrap();
            out[i].1.push(1e6 / spec.est_cost);
        }
    }
    for (label, series) in &out {
        row(label, series);
    }
    println!(
        "\ncrossover check: at 1:1:1 the two estimates differ by {:.1}%",
        100.0 * (out[0].1[3] - out[1].1[3]).abs() / out[0].1[3]
    );
    // The paper's claim, on estimated costs (deterministic): right-deep is
    // cheaper while IBM dominates, the two tie at 1:1:1, and left-deep is
    // cheaper once Sun and Oracle dominate.
    let (left, right) = (&out[0].1, &out[1].1);
    for (i, col) in cols.iter().enumerate() {
        let gap = (left[i] - right[i]) / left[i].max(right[i]);
        match i.cmp(&3) {
            std::cmp::Ordering::Less => assert!(gap < 0.0, "{col}: right-deep must be cheaper"),
            std::cmp::Ordering::Equal => assert!(gap.abs() < 1e-9, "{col}: the plans must tie"),
            std::cmp::Ordering::Greater => assert!(gap > 0.0, "{col}: left-deep must be cheaper"),
        }
    }
    println!(
        "claim holds: right-deep cheaper above 1:1:1, a tie at 1:1:1, left-deep cheaper below"
    );
}
