//! Multi-query service layer: one stream, a changing set of queries.
//!
//! Starts the runtime with two registered patterns sharing the intake
//! predicate index — one of them registered twice, for two subscribers,
//! which share one engine per shard — then — **without stopping ingest** —
//! creates another query mid-stream, pauses and resumes one, and drops
//! another. Every
//! transition takes effect at a chunk boundary through the same FIFO
//! channels the data takes: a created query sees exactly the events
//! ingested after `create` returns, a paused query's windows freeze in
//! place, and a dropped query's slot stays valid for metrics (tombstoned,
//! never recycled).
//!
//! ```sh
//! cargo run --release --example multi_query
//! ```

use zstream::obs::MetricValue;
use zstream::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Two alarm patterns over the same stream: their `price > 95` conjunct
    // is shared, so the intake index evaluates it once per batch and fans
    // the bitmap out to both queries' selection vectors.
    let spike = "PATTERN A; B WHERE A.name = B.name AND A.price > 95 AND B.price > 95 \
                 WITHIN 30 RETURN A, B";
    let surge = "PATTERN A; B WHERE A.name = B.name AND A.price > 95 AND B.volume > 900 \
                 WITHIN 30 RETURN A, B";
    // Registered later, while the stream is live.
    let triple = "PATTERN A; B; C WHERE A.name = B.name AND B.name = C.name \
                  AND A.price > 90 WITHIN 40 RETURN A, C";

    let mut builder = Runtime::builder().workers(2).channel_capacity(4);
    let q_spike = builder
        .register(EngineBuilder::parse(spike)?.compile()?, Partitioning::Auto("name".into()));
    // A second subscriber to the same alarm: an identical registration, so
    // each shard runs one engine for both and copies its matches to each.
    let q_pager = builder
        .register(EngineBuilder::parse(spike)?.compile()?, Partitioning::Auto("name".into()));
    let q_surge = builder
        .register(EngineBuilder::parse(surge)?.compile()?, Partitioning::Auto("name".into()));
    let mut runtime = builder.build()?;
    println!(
        "serving {} queries: {q_spike} (spike), {q_pager} (spike, second subscriber), \
         {q_surge} (surge)",
        runtime.num_queries()
    );

    let names = ["IBM", "Sun", "Oracle", "Google", "HP", "Dell", "AMD", "Intel"];
    let rates: Vec<(&str, f64)> = names.iter().map(|n| (*n, 1.0)).collect();
    let batches = StockGenerator::generate_batches(StockConfig::with_rates(&rates, 6_000, 7), 256);

    let mut q_triple = None;
    let mut counts = [0usize; 4];
    for (i, batch) in batches.iter().enumerate() {
        // Lifecycle transitions mid-stream, between chunks:
        match i {
            6 => {
                // A new query joins the live stream; it only ever sees
                // events from chunk 6 on.
                let id = runtime.create(
                    EngineBuilder::parse(triple)?.compile()?,
                    Partitioning::Auto("name".into()),
                )?;
                println!("chunk {i:>2}: create -> {id} (triple), {} live", runtime.num_queries());
                q_triple = Some(id);
            }
            10 => {
                runtime.pause(q_surge)?;
                println!("chunk {i:>2}: pause  {q_surge} (windows freeze, nothing dropped)");
            }
            14 => {
                runtime.resume(q_surge)?;
                println!("chunk {i:>2}: resume {q_surge} (windows continue where they stopped)");
            }
            16 => {
                // What sharing saves: per shard, the engines hosted against
                // the queries live (the two spike subscribers share one).
                let snap = runtime.observe();
                let live = snap.gauge_value("zstream_queries_live").unwrap_or(0);
                for s in snap.metrics.iter().filter(|s| s.name == "zstream_shard_engines") {
                    let (MetricValue::Gauge(engines), Some((_, shard))) =
                        (&s.value, s.labels.first())
                    else {
                        continue;
                    };
                    println!(
                        "chunk {i:>2}: shard {shard}: zstream_shard_engines {engines}, \
                         zstream_queries_live {live}"
                    );
                    assert!(*engines < live, "identical registrations must share an engine");
                }
            }
            18 => {
                runtime.drop_query(q_spike)?;
                println!(
                    "chunk {i:>2}: drop   {q_spike}; slot stays {q_spike}, {} live",
                    runtime.num_queries()
                );
            }
            _ => {}
        }
        for m in runtime.ingest_columns(batch)? {
            counts[m.query.index()] += 1;
        }
    }
    let report = runtime.shutdown()?;
    for m in &report.matches {
        counts[m.query.index()] += 1;
    }

    // Slots are stable: the dropped q0 still owns index 0 in the report.
    println!();
    for (q, label) in [
        (q_spike, "spike (dropped at chunk 18)"),
        (q_pager, "spike, second subscriber"),
        (q_surge, "surge (paused 10..14)"),
    ] {
        let metrics = &report.query_metrics[q.index()];
        println!(
            "{q} {label}: {} events in, {} matches delivered",
            metrics.events_in,
            counts[q.index()]
        );
    }
    if let Some(q) = q_triple {
        let metrics = &report.query_metrics[q.index()];
        println!(
            "{q} triple (created at chunk 6): {} events in, {} matches delivered",
            metrics.events_in,
            counts[q.index()]
        );
    }
    Ok(())
}
