//! Observability tour: one shared hub watching the whole pipeline.
//!
//! Builds a sharded runtime (with a reorder stage and a checkpoint, so the
//! full instrument catalog lights up) and an adaptive engine, pointed at
//! the **same** `Obs` hub, then scrapes mid-stream from a sidecar thread —
//! no quiescing, no coordination with ingest. Prints the folded counters,
//! what shared intake saved the multi-query registry (class conjunctions
//! interned, engine-batches skipped, kernel rows per query), the latency
//! percentiles derived from the log-bucketed histograms, the merge-stage
//! and shard time accounts, the tail of the batch-level trace ring, and
//! the planner decision log with estimate-vs-actual statistics per replan.
//!
//! Set `OBS_JSON=/path/out.json` to also write the final JSON export —
//! CI's `metrics-schema` step does exactly that and validates the key set
//! against `tests/fixtures/metrics_schema.txt`.
//!
//! ```sh
//! cargo run --release --example observe
//! OBS_JSON=/tmp/obs.json cargo run --release --example observe
//! ```

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use zstream::core::{
    build_intake, AdaptiveConfig, AdaptiveEngine, CompiledQuery, Engine, EngineBuilder, PlanConfig,
};
use zstream::events::{Event, EventRef, Schema};
use zstream::lang::{Query, SchemaMap};
use zstream::obs::{MetricValue, Obs};
use zstream::prelude::{LatenessPolicy, Partitioning, Runtime};
use zstream::workload::{DisorderSpec, StockConfig, StockGenerator};

const RUNTIME_QUERY: &str = "PATTERN A; B; C \
                             WHERE A.name = B.name AND B.name = C.name \
                             WITHIN 60 RETURN A, C";
const ADAPTIVE_QUERY: &str = "PATTERN IBM; Sun; Oracle WITHIN 100";
/// Standing alarms beside the main query: price bands no row falls into
/// (`> hi AND < lo` with `hi > lo`), each registered twice. They always
/// watch and never fire — what the shared index lets a shard skip.
const ALARM_BANDS: [(u32, u32); 4] = [(60, 40), (70, 30), (80, 20), (90, 10)];

fn phase_stream(rates: [(&str, f64); 3], len: usize, seed: u64, ts_base: u64) -> Vec<EventRef> {
    StockGenerator::generate(StockConfig::with_rates(&rates, len, seed))
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
        .collect()
}

fn fmt_labels(labels: &zstream::obs::Labels) -> String {
    labels.iter().map(|(k, v)| format!("{k}={v}")).collect::<Vec<_>>().join(",")
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let hub = Arc::new(Obs::new());

    // --- the sharded runtime, reporting into the hub -------------------
    let mut builder =
        Runtime::builder().workers(4).slack(8).lateness(LatenessPolicy::Drop).obs(Arc::clone(&hub));
    builder.register(
        EngineBuilder::parse(RUNTIME_QUERY)?.compile()?,
        Partitioning::Auto("name".into()),
    );
    for (hi, lo) in ALARM_BANDS.iter().chain(&ALARM_BANDS) {
        let src = format!(
            "PATTERN A; B WHERE A.price > {hi} AND A.price < {lo} \
             AND B.price > {hi} AND B.price < {lo} WITHIN 10"
        );
        builder.register(EngineBuilder::parse(&src)?.compile()?, Partitioning::Broadcast);
    }
    let mut runtime = builder.build()?;

    // A sidecar scraper, as a metrics endpoint would run: snapshots the
    // hub while ingest is in full flight on this thread.
    let stop = Arc::new(AtomicBool::new(false));
    let scraper = {
        let (hub, stop) = (Arc::clone(&hub), Arc::clone(&stop));
        std::thread::spawn(move || {
            let mut scrapes = 0u64;
            // zlint::allow(atomics, "stop flag carries no data; the thread join is the synchronization point")
            while !stop.load(Ordering::Relaxed) {
                let _ = hub.snapshot().to_json();
                scrapes += 1;
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            scrapes
        })
    };

    let names = ["IBM", "Sun", "Oracle", "Google", "HP", "Dell"];
    let rates: Vec<(&str, f64)> = names.iter().map(|n| (*n, 1.0)).collect();
    let batches = StockGenerator::generate_batches(StockConfig::with_rates(&rates, 20_000, 7), 256);
    let batches = DisorderSpec::bounded(6, 13).shuffle_batches(&batches, 256);

    let mut matches = 0usize;
    for (i, batch) in batches.iter().enumerate() {
        matches += runtime.ingest_columns(batch)?.len();
        if i == batches.len() / 2 {
            let mut sink: Vec<u8> = Vec::new();
            runtime.checkpoint(&mut sink)?; // exercise the durability instruments
        }
    }

    // --- an adaptive engine sharing the same hub -----------------------
    let query = Query::parse(ADAPTIVE_QUERY)?;
    let schemas = SchemaMap::uniform(Schema::stocks());
    let compiled = CompiledQuery::optimize(&query, &schemas, None)?;
    let intake = build_intake(&compiled.aq, Some("name"))?;
    let mut engine = Engine::new(
        compiled.aq.clone(),
        compiled.physical_plan(PlanConfig::default())?,
        intake,
        1024,
    );
    // Engine-level instruments (admissions, rounds, kernel-vs-row intake
    // split) for the adaptive query, next to the runtime's per-shard ones.
    engine.set_obs(zstream::core::EngineObs::register(&hub, "adaptive", None, None));
    let mut adaptive = AdaptiveEngine::new(
        engine,
        compiled.spec.clone(),
        compiled.stats.clone(),
        AdaptiveConfig { check_interval: 8, ..Default::default() },
    );
    adaptive.attach_obs(Arc::clone(&hub), "adaptive");
    let phases = [
        [("IBM", 1.0), ("Sun", 50.0), ("Oracle", 50.0)],
        [("IBM", 50.0), ("Sun", 1.0), ("Oracle", 50.0)],
        [("IBM", 50.0), ("Sun", 50.0), ("Oracle", 1.0)],
    ];
    let mut ts_base = 0;
    for (i, phase) in phases.iter().enumerate() {
        for chunk in phase_stream(*phase, 20_000, 100 + i as u64, ts_base).chunks(1024) {
            // Columnar intake: dense batches take the kernel path, so the
            // zstream_kernel_* counters light up alongside the runtime's
            // row-path (sparse per-key) fallback counts.
            let batch = zstream::events::EventBatch::from_events(chunk)?;
            adaptive.push_columns(&batch);
        }
        ts_base += 20_000;
    }
    adaptive.finalize_observations();
    adaptive.flush();

    // zlint::allow(atomics, "stop flag carries no data; the thread join is the synchronization point")
    stop.store(true, Ordering::Relaxed);
    let scrapes = scraper.join().expect("scraper thread");
    matches += runtime.shutdown()?.matches.len();

    // --- the scrape ----------------------------------------------------
    let snap = hub.snapshot();
    println!("{matches} runtime matches; {scrapes} concurrent scrapes while ingesting\n");

    println!("== counters and gauges ==");
    for s in &snap.metrics {
        match &s.value {
            MetricValue::Counter(v) | MetricValue::Gauge(v) => {
                println!("  {:<40} {:>12}  {}", s.name, v, fmt_labels(&s.labels));
            }
            MetricValue::Histogram(_) => {}
        }
    }

    // Kernel-intake split: rows evaluated by the columnar filter kernels
    // vs rows that went through a row-at-a-time path (per-event pushes,
    // sparse shard selections, General-predicate fallback).
    let total = |name: &str| {
        snap.metrics
            .iter()
            .filter(|s| s.name == name)
            .map(|s| match s.value {
                MetricValue::Counter(v) | MetricValue::Gauge(v) => v,
                MetricValue::Histogram(_) => 0,
            })
            .sum::<u64>()
    };
    println!("\n== kernel intake ==");
    println!(
        "  kernel predicate-rows evaluated   {}",
        total("zstream_kernel_rows_evaluated_total")
    );
    println!("  row-path fallback rows            {}", total("zstream_kernel_fallback_rows_total"));

    // What sharing saved, from the scrape alone: the alarms' class
    // conjunctions intern to one mask per band however often a band is
    // registered; a home shard settles an alarm whose masks are empty for
    // a batch without entering its engine; and a kernel evaluation is
    // charged to the first query that needed it, so a query riding on
    // another's evaluation shows zero rows of its own.
    println!("\n== multi-query intake (what sharing saved) ==");
    println!("  queries live                      {}", total("zstream_queries_live"));
    println!("  class conjunctions (all shards)   {}", total("zstream_intake_class_masks"));
    println!(
        "  engine-batches skipped            {}",
        total("zstream_intake_engines_skipped_total")
    );
    for s in snap.metrics.iter().filter(|s| s.name == "zstream_kernel_rows_evaluated_total") {
        if let MetricValue::Counter(v) = s.value {
            println!("  kernel rows evaluated {:<14} {v}", fmt_labels(&s.labels));
        }
    }

    println!("\n== latency histograms (derived percentiles) ==");
    for s in &snap.metrics {
        if let MetricValue::Histogram(h) = &s.value {
            if let Some((p50, p95, p99, max)) = h.summary() {
                println!(
                    "  {:<32} {:<16} n={:<8} p50={} p95={} p99={} max={}",
                    s.name,
                    fmt_labels(&s.labels),
                    h.count,
                    p50,
                    p95,
                    p99,
                    max
                );
            }
        }
    }

    // Per-stage time accounts, read from the metrics an operator scrapes:
    // the control thread's merge stage next to the shards' service time.
    println!("\n== stage time accounts ==");
    for (stage, name) in [
        ("merge (fold replies + emit)", "zstream_merge_ns"),
        ("shard service (all shards)", "zstream_shard_service_ns"),
    ] {
        if let Some(h) = snap.histogram_total(name) {
            println!(
                "  {:<28} {:<26} n={:<6} total={:.2} ms",
                stage,
                name,
                h.count,
                h.sum as f64 / 1e6
            );
        }
    }

    println!("\n== trace ring (last 8 of {}, {} dropped) ==", snap.trace.len(), snap.trace_dropped);
    for t in snap.trace.iter().rev().take(8).rev() {
        println!("  {t}");
    }

    println!("\n== planner decision log ({} decisions) ==", snap.decisions.len());
    for d in &snap.decisions {
        println!(
            "  #{} query={} at={} drift={:.3} switched={}",
            d.seq, d.query, d.at, d.drift, d.switched
        );
        for c in &d.candidates {
            let marker = if c.chosen { "=> " } else { "   " };
            println!("    {marker}cost {:>12.1}  {}", c.est_cost, c.plan);
        }
        if let Some(actuals) = &d.actuals {
            // Admission selectivity per class: where the phase skew shows
            // up (each event is offered to every class's intake; routing
            // admits by name).
            let err: Vec<String> = d
                .measured
                .iter()
                .filter(|(k, _)| k.starts_with("sel."))
                .filter_map(|(k, est)| {
                    actuals.iter().find(|(k2, _)| k2 == k).map(|(_, act)| {
                        format!("{}: sampled {:.3} observed {:.3}", &k["sel.".len()..], est, act)
                    })
                })
                .collect();
            println!("    {}", err.join(", "));
        }
    }

    if let Ok(path) = std::env::var("OBS_JSON") {
        std::fs::write(&path, snap.to_json())?;
        println!("\nwrote JSON export to {path}");
    }
    Ok(())
}
