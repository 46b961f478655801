//! Out-of-order ingestion: disordered arrival, slack, and lateness.
//!
//! Real traffic never arrives in perfect time order. This example generates
//! a stock stream in disordered **arrival order** (bounded delivery delays
//! plus a straggler fraction), ingests it through a runtime whose §4.1
//! reorder stage tolerates disorder up to a slack window, and shows the
//! three lateness policies' observable effects: late events counted and
//! dropped, surfaced as a dead-letter queue, or rejected with an error.
//!
//! ```sh
//! cargo run --release --example out_of_order
//! ```

use zstream::prelude::*;
use zstream::workload::DisorderSpec;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let query = "PATTERN A; B; C \
                 WHERE A.name = B.name AND B.name = C.name AND C.price > A.price \
                 WITHIN 60 RETURN A, C";

    // Disordered arrival: delivery delays up to 48 time units, and 1% of
    // events straggle far beyond that.
    let names = ["IBM", "Sun", "Oracle", "Google", "HP", "Dell", "AMD", "Intel"];
    let rates: Vec<(&str, f64)> = names.iter().map(|n| (*n, 1.0)).collect();
    let spec = DisorderSpec::bounded(48, 7).late_fraction(0.01);
    let batches = StockGenerator::generate_batches(
        StockConfig::with_rates(&rates, 8_000, 11).disordered(spec),
        256,
    );
    let unsorted = batches.iter().filter(|b| !b.is_sorted()).count();
    println!(
        "Generated {} events in {} arrival-order batches ({unsorted} internally unsorted).\n",
        batches.iter().map(|b| b.len()).sum::<usize>(),
        batches.len(),
    );

    // Slack 48 covers the bounded delays; only the stragglers are late.
    // DeadLetter keeps them around instead of silently dropping them.
    let mut builder = Runtime::builder().workers(4).slack(48).lateness(LatenessPolicy::DeadLetter);
    let q = builder
        .register(EngineBuilder::parse(query)?.compile()?, Partitioning::Auto("name".into()));
    let mut runtime = builder.build()?;

    let mut total = 0usize;
    let mut shown = 0usize;
    for batch in &batches {
        for m in runtime.ingest_columns(batch)? {
            total += 1;
            if shown < 5 {
                shown += 1;
                println!("MATCH shard={} {}", m.shard, runtime.format_match(q, &m.record));
            }
        }
    }
    // The dead-letter queue surfaces stragglers in arrival order for
    // out-of-band handling (re-ingestion into a batch job, audit, ...).
    let stragglers = runtime.take_late_events();
    println!("    …\n");
    println!("watermark (release frontier = high water - slack): {}", runtime.watermark());
    println!(
        "stragglers beyond slack: {} (first few: {:?})",
        stragglers.len(),
        stragglers.iter().take(3).map(|e| e.ts()).collect::<Vec<_>>()
    );

    let report = runtime.shutdown()?;
    total += report.matches.len();
    println!(
        "matches: {total} | late events: {} | reorder buffered peak: {} rows",
        report.late_events, report.reorder_buffered_peak,
    );
    println!(
        "(the same stream ingested sorted yields the identical match set — \
         that differential guarantee is what tests/reorder_equivalence.rs pins)"
    );
    Ok(())
}
