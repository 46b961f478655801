//! Quickstart: parse a query, feed a stream, print matches.
//!
//! Runs Query 1 of the paper — a stock whose price rises 5% above the next
//! Google tick and then falls 5% below it within ten seconds — over a small
//! synthetic stream, and prints the chosen physical plan and every match.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use zstream::core::{CompiledQuery, Engine, EngineBuilder};
use zstream::events::{stock, EventBatch};
use zstream::lang::{Query, SchemaMap};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Query 1 (§3): T1, T2, T3 are aliases over the stock stream; T2 must
    // be Google; T1/T3 are matched to each other by name.
    let src = "PATTERN T1; T2; T3 \
               WHERE T1.name = T3.name AND T2.name = 'Google' \
                 AND T1.price > (1 + 5%) * T2.price \
                 AND T3.price < (1 - 5%) * T2.price \
               WITHIN 10 secs \
               RETURN T1, T2, T3";
    println!("Query:\n  {src}\n");

    // Show what the optimizer chose (equality on name becomes a hash join).
    let compiled = CompiledQuery::optimize(
        &Query::parse(src)?,
        &SchemaMap::uniform(zstream::events::Schema::stocks()),
        None,
    )?;
    if let Some(spec) = &compiled.spec {
        println!("Optimizer: {}\n", spec.describe(&compiled.aq));
    }
    let plan = compiled.physical_plan(Default::default(), &[])?;
    println!("Physical plan:\n{}", plan.render(&compiled.aq));

    // Build the engine and stream events through it.
    let mut engine: Engine = EngineBuilder::parse(src)?.build()?;

    let events = [
        stock(1, 0, "IBM", 106.0, 100),    // T1: 106 > 105 = (1+5%)*100 ✓
        stock(2, 1, "Google", 100.0, 500), // the Google tick (T2)
        stock(3, 2, "Sun", 93.0, 200),     // different name: no T3 for IBM
        stock(4, 3, "IBM", 94.0, 150),     // T3: 94 < 95 = (1-5%)*100   ✓
        stock(5, 4, "IBM", 97.0, 120),     // too high for T3
    ];
    println!("Streaming {} events...\n", events.len());
    let mut total = 0;
    // Engines take columnar batches, one round each; a one-event batch per
    // push reports every match as soon as its last event arrives.
    for event in events.chunks(1) {
        for m in engine.push_columns(&EventBatch::from_events(event)?) {
            total += 1;
            println!("MATCH {}", engine.format_match(&m));
        }
    }
    for m in engine.flush() {
        total += 1;
        println!("MATCH {}", engine.format_match(&m));
    }
    println!("\n{total} match(es); engine metrics: {:?}", engine.metrics());
    Ok(())
}
