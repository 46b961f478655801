//! Sharded ingest: several queries, one stream, N worker shards.
//!
//! Registers two patterns with the scale-out runtime — one whose `name`
//! equalities make it hash-partitionable across shards, and one that falls
//! back to a single home shard — then streams synthetic stock data as
//! **columnar batches** through the shared `ingest_columns` path (one
//! key-column scan per chunk, `Arc`'d batches plus selection vectors to the
//! shards — no per-event routing anywhere) and prints routed matches as
//! they become final, followed by the aggregated per-query metrics.
//!
//! ```sh
//! cargo run --release --example sharded_ingest
//! ```

use zstream::prelude::*;
use zstream::runtime::Route;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Same-name triple within a minute: every class is connected by `name`
    // equalities, so the runtime shards it by hash(name).
    let momentum = "PATTERN A; B; C \
                    WHERE A.name = B.name AND B.name = C.name \
                      AND C.price > A.price \
                    WITHIN 60 RETURN A, C";
    // Cross-name spread: no equalities connect the classes, so this one
    // cannot be partitioned and runs on a single home shard instead.
    let spread = "PATTERN IBM; Sun WHERE IBM.price > 2 * Sun.price WITHIN 20 RETURN IBM, Sun";

    let mut builder = Runtime::builder().workers(4).channel_capacity(4);
    let q_momentum = builder
        .register(EngineBuilder::parse(momentum)?.compile()?, Partitioning::Auto("name".into()));
    let q_spread = builder.register(
        EngineBuilder::parse(spread)?.stock_routing().compile()?,
        Partitioning::Auto("name".into()),
    );
    let mut runtime = builder.build()?;

    for (q, src) in [(q_momentum, momentum), (q_spread, spread)] {
        let route = match runtime.route(q) {
            Route::Hash(field) => format!("hash-partitioned on '{field}' across 4 shards"),
            Route::Single(home) => format!("broadcast fallback, home shard {home}"),
        };
        println!("{q}: {route}\n    {src}");
    }

    let names = ["IBM", "Sun", "Oracle", "Google", "HP", "Dell", "AMD", "Intel"];
    let rates: Vec<(&str, f64)> = names.iter().map(|n| (*n, 1.0)).collect();
    let batches = StockGenerator::generate_batches(StockConfig::with_rates(&rates, 4_000, 7), 256);
    let total_events: usize = batches.iter().map(|b| b.len()).sum();
    println!("\nStreaming {total_events} events (columnar batches) through 4 shards...\n");

    let mut shown = 0usize;
    let mut total = 0usize;
    let mut emit = |runtime: &Runtime, batch: &[RuntimeMatch]| {
        for m in batch {
            total += 1;
            if shown < 8 {
                shown += 1;
                println!(
                    "MATCH {} shard={} {}",
                    m.query,
                    m.shard,
                    runtime.format_match(m.query, &m.record)
                );
            }
        }
    };
    for batch in &batches {
        let ready = runtime.ingest_columns(batch)?;
        emit(&runtime, &ready);
    }
    let report = runtime.shutdown()?;
    total += report.matches.len();
    println!("    … ({total} matches total, first {shown} shown)\n");

    for (q, metrics) in [q_momentum, q_spread].into_iter().zip(&report.query_metrics) {
        println!(
            "{q}: {} events in, {} matches, {} assembly rounds, peak {:.2} MB (summed \
             across shards)",
            metrics.events_in,
            metrics.matches_out,
            metrics.assembly_rounds,
            metrics.peak_mb()
        );
    }
    println!(
        "runtime total: {} matches across {} shards, {} event(s) lacked a routing field",
        report.metrics.matches_out,
        report.workers,
        report.dropped.iter().sum::<u64>()
    );
    // The columnar data plane interns every string attribute once into the
    // process-wide symbol table; the aggregated metrics carry its stats.
    let syms = zstream::events::symbol_stats();
    println!(
        "symbol table: {} distinct strings in {} bytes ({} intern calls, {} bytes of \
         re-allocation avoided) — every stock name is stored once, however many of the \
         {} events carry it",
        report.metrics.symbols_interned,
        syms.bytes,
        syms.intern_calls,
        report.metrics.symbol_bytes_saved,
        total_events,
    );
    Ok(())
}
