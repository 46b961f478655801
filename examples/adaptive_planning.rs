//! Adaptive planning (§5.3): a three-phase stream whose statistics flip,
//! processed by the adaptive engine — a miniature of the paper's Figure 14.
//!
//! Phase 1 makes IBM rare (left-deep optimal), phase 2 makes Sun rare,
//! phase 3 makes Oracle rare (right-deep optimal). The engine samples
//! rates on the fly, re-runs Algorithm 5 when they drift past the error
//! threshold, and installs the better plan mid-stream without emitting
//! duplicate or missing matches.
//!
//! ```sh
//! cargo run --release --example adaptive_planning
//! ```

use std::time::Instant;

use zstream::core::{
    build_intake, AdaptiveConfig, AdaptiveEngine, CompiledQuery, Engine, PlanConfig,
};
use zstream::events::{Event, EventBatch, Schema};
use zstream::lang::{Query, SchemaMap};
use zstream::workload::{StockConfig, StockGenerator};

const QUERY: &str = "PATTERN IBM; Sun; Oracle WITHIN 100";

/// One phase's stream, shifted to start at `ts_base`, in batches of 1024
/// rows (one engine round each).
fn phase_stream(rates: [(&str, f64); 3], len: usize, seed: u64, ts_base: u64) -> Vec<EventBatch> {
    let events: Vec<_> = StockGenerator::generate(StockConfig::with_rates(&rates, len, seed))
        .into_iter()
        .map(|e| {
            Event::builder(Schema::stocks(), ts_base + e.ts())
                .value(e.value(0))
                .value(e.value(1))
                .value(e.value(2))
                .value(e.value(3))
                .build_ref()
                .unwrap()
        })
        .collect();
    events.chunks(1024).map(|chunk| EventBatch::from_events(chunk).unwrap()).collect()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let per_phase = 60_000usize;
    let phases = [
        ("phase 1: IBM rare   (1:100:100)", [("IBM", 1.0), ("Sun", 100.0), ("Oracle", 100.0)]),
        ("phase 2: Sun rare   (100:1:100)", [("IBM", 100.0), ("Sun", 1.0), ("Oracle", 100.0)]),
        ("phase 3: Oracle rare(100:100:1)", [("IBM", 100.0), ("Sun", 100.0), ("Oracle", 1.0)]),
    ];

    let query = Query::parse(QUERY)?;
    let schemas = SchemaMap::uniform(Schema::stocks());
    let compiled = CompiledQuery::optimize(&query, &schemas, None)?;
    let intake = build_intake(&compiled.aq, Some("name"))?;
    let engine = Engine::new(
        compiled.aq.clone(),
        compiled.physical_plan(PlanConfig::default(), &[])?,
        &intake,
    );
    let mut adaptive = AdaptiveEngine::new(
        engine,
        compiled.spec.clone(),
        compiled.stats.clone(),
        AdaptiveConfig { check_interval: 8, ..Default::default() },
    );

    println!("Query: {QUERY}\n");
    let mut ts_base = 0u64;
    for (i, (label, rates)) in phases.iter().enumerate() {
        let batches = phase_stream(*rates, per_phase, 1000 + i as u64, ts_base);
        ts_base += per_phase as u64;
        let before = adaptive.engine().metrics();
        let t0 = Instant::now();
        let mut matches = 0usize;
        for batch in &batches {
            matches += adaptive.push_columns(batch).len();
        }
        let dt = t0.elapsed();
        let after = adaptive.engine().metrics();
        println!(
            "{label}: {:>9.0} events/s | {matches:>8} matches | replans +{} | switches +{}",
            per_phase as f64 / dt.as_secs_f64(),
            after.replans - before.replans,
            after.plan_switches - before.plan_switches,
        );
    }
    adaptive.flush();
    let m = adaptive.engine().metrics();
    println!(
        "\ntotals: {} events, {} matches, {} replans, {} plan switches, peak {:.2} MB",
        m.events_in,
        m.matches_out,
        m.replans,
        m.plan_switches,
        m.peak_mb()
    );
    Ok(())
}
