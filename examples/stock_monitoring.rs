//! Stock-market monitoring: the paper's three motivating query families
//! (§3.2) over a generated trading stream.
//!
//! * **Query 2** — negation: price crosses a threshold and rises 20% with no
//!   dip below the threshold in between (evaluated with the NSEQ push-down),
//! * **Query 3** — Kleene closure: five successive Google trades whose total
//!   volume exceeds a bound, framed by a matching stock pair,
//! * a cost-model demo: the same sequential query planned under three
//!   different statistics regimes, showing the optimizer changing shape.
//!
//! ```sh
//! cargo run --example stock_monitoring
//! ```

use zstream::core::{CompiledQuery, EngineBuilder, Statistics};
use zstream::lang::{Query, SchemaMap};
use zstream::workload::{StockConfig, StockGenerator};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    negation_query()?;
    kleene_query()?;
    optimizer_regimes()?;
    Ok(())
}

/// Query 2 (§3.2), simplified thresholds: T1 above 50, no dip below 50 in
/// between, T3 at least 20% above T1.
fn negation_query() -> Result<(), Box<dyn std::error::Error>> {
    println!("=== Query 2: negation (NSEQ push-down) ===");
    let src = "PATTERN T1; !T2; T3 \
               WHERE T1.name = 'Google' AND T2.name = 'Google' AND T3.name = 'Google' \
                 AND T1.price > 50 AND T2.price < 50 \
                 AND T3.price > 60 \
               WITHIN 10 \
               RETURN T1, T3";
    let compiled = CompiledQuery::optimize(
        &Query::parse(src)?,
        &SchemaMap::uniform(zstream::events::Schema::stocks()),
        None,
    )?;
    println!("plan: {}", compiled.spec.as_ref().unwrap().describe(&compiled.aq));

    let mut engine = EngineBuilder::parse(src)?.build()?;
    let batches =
        StockGenerator::generate_batches(StockConfig::uniform(&["Google", "IBM"], 4_000, 7), 8);
    let mut matches = 0usize;
    for batch in &batches {
        matches += engine.push_columns(batch).len();
    }
    matches += engine.flush().len();
    println!("{matches} threshold-crossing rises without an interleaved dip\n");
    Ok(())
}

/// Query 3 (§3.2): aggregate the volume of five successive Google trades.
fn kleene_query() -> Result<(), Box<dyn std::error::Error>> {
    println!("=== Query 3: Kleene closure with aggregate ===");
    let src = "PATTERN T1; T2^5; T3 \
               WHERE T1.name = T3.name \
                 AND T2.name = 'Google' \
                 AND sum(T2.volume) > 3000 \
                 AND T3.price > (1 + 20%) * T1.price \
               WITHIN 40 \
               RETURN T1, sum(T2.volume), T3";
    let mut engine = EngineBuilder::parse(src)?.build()?;
    let batches = StockGenerator::generate_batches(
        StockConfig::with_rates(&[("Google", 5.0), ("IBM", 1.0), ("Sun", 1.0)], 6_000, 21),
        16,
    );
    let mut shown = 0usize;
    let mut matches = 0usize;
    for batch in &batches {
        for m in engine.push_columns(batch) {
            matches += 1;
            if shown < 3 {
                println!("  {}", engine.format_match(&m));
                shown += 1;
            }
        }
    }
    matches += engine.flush().len();
    println!("{matches} high-volume closure matches (first {shown} shown)\n");
    Ok(())
}

/// One query, three statistics regimes — the §5.2.3 optimizer changes the
/// join order like Figure 12 predicts.
fn optimizer_regimes() -> Result<(), Box<dyn std::error::Error>> {
    println!("=== Optimizer: Query 6 under changing statistics ===");
    let src = "PATTERN IBM; Sun; Oracle; Google \
               WHERE Oracle.price > Sun.price AND Oracle.price > Google.price \
               WITHIN 100";
    let query = Query::parse(src)?;
    let schemas = SchemaMap::uniform(zstream::events::Schema::stocks());

    let regimes: [(&str, Statistics); 3] = [
        (
            "rate 1:100:100:100 (IBM rare)",
            Statistics::uniform(4, 2, 100).with_rates(&[0.0033, 0.3322, 0.3322, 0.3322]),
        ),
        (
            "sel(Sun,Oracle) = 1/50",
            Statistics::uniform(4, 2, 100).with_rates(&[0.25; 4]).with_pred_sel(0, 1.0 / 50.0),
        ),
        (
            "sel(Oracle,Google) = 1/50",
            Statistics::uniform(4, 2, 100).with_rates(&[0.25; 4]).with_pred_sel(1, 1.0 / 50.0),
        ),
    ];
    for (label, stats) in regimes {
        let compiled = CompiledQuery::optimize(&query, &schemas, Some(stats))?;
        let spec = compiled.spec.as_ref().unwrap();
        println!("  {label:32} -> {} (est. cost {:.0})", spec.shape, spec.est_cost);
    }
    println!();
    Ok(())
}
