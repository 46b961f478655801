//! The exported metrics schema is a contract: dashboards and alerts key on
//! instrument names, kinds, and label keys. This test pins the full key
//! set — `name|kind|label-keys|definition` per instrument family — against
//! a checked-in golden file, so renaming or dropping an instrument is a
//! deliberate, reviewed change rather than a silent one. The definition
//! field carries every instrument's one-line meaning ([`DEFINITIONS`]), so
//! redefining what one of them measures is a reviewed diff of the golden
//! file too.
//!
//! Regenerate after an intentional change with:
//!
//! ```sh
//! UPDATE_METRICS_SCHEMA=1 cargo test --test metrics_schema
//! ```
//!
//! CI additionally runs `examples/observe.rs` with `OBS_JSON=<path>` and
//! re-runs this test with the same variable: the JSON export produced by
//! a real process must mention every golden instrument name.

mod common;

use std::collections::BTreeSet;
use std::sync::Arc;

use common::{compile_stock, rebatch};
use zstream::core::{
    build_intake, AdaptiveConfig, AdaptiveEngine, CompiledQuery, Engine, PlanConfig,
};
use zstream::events::Schema;
use zstream::lang::{Query, SchemaMap};
use zstream::obs::{Obs, ObsSnapshot};
use zstream::prelude::{LatenessPolicy, Partitioning, Runtime};
use zstream::workload::{StockConfig, StockGenerator};

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/metrics_schema.txt");

/// Exercises every subsystem that registers instruments — reorder (slack),
/// sharded ingest, checkpoint, and a replanning adaptive engine — so the
/// scrape contains the complete instrument catalog.
fn representative_snapshot() -> ObsSnapshot {
    let hub = Arc::new(Obs::new());

    let parts = compile_stock("PATTERN IBM; Sun; Oracle WITHIN 50 RETURN IBM, Sun, Oracle");
    let mut b =
        Runtime::builder().workers(2).slack(4).lateness(LatenessPolicy::Drop).obs(Arc::clone(&hub));
    b.register(parts, Partitioning::Auto("name".into()));
    let mut runtime = b.build().unwrap();
    let events = StockGenerator::generate(StockConfig::with_rates(
        &[("IBM", 1.0), ("Sun", 1.0), ("Oracle", 1.0)],
        400,
        3,
    ));
    let batches = rebatch(&events, &[16]);
    for batch in &batches {
        runtime.ingest_columns(batch).unwrap();
    }
    let mut sink: Vec<u8> = Vec::new();
    runtime.checkpoint(&mut sink).unwrap();
    runtime.shutdown().unwrap();

    // An adaptive engine contributes the replan counter + decision log.
    let query = Query::parse("PATTERN IBM; Sun; Oracle WITHIN 40").unwrap();
    let schemas = SchemaMap::uniform(Schema::stocks());
    let compiled = CompiledQuery::optimize(&query, &schemas, None).unwrap();
    let intake = build_intake(&compiled.aq, Some("name")).unwrap();
    let engine = Engine::new(
        compiled.aq.clone(),
        compiled.physical_plan(PlanConfig::default(), &[]).unwrap(),
        &intake,
    );
    let mut adaptive = AdaptiveEngine::new(
        engine,
        compiled.spec.clone(),
        compiled.stats.clone(),
        AdaptiveConfig { check_interval: 4, ..Default::default() },
    );
    adaptive.attach_obs(Arc::clone(&hub), "q-adaptive");
    for batch in &batches {
        adaptive.push_columns(batch);
    }
    adaptive.finalize_observations();
    adaptive.flush();

    hub.snapshot()
}

/// One-line definition of every instrument family. What an instrument
/// measures is part of the contract (what some of them cover moved once
/// already: matches are built on the control thread, not the shard), so
/// the definition is pinned with the name.
const DEFINITIONS: &[(&str, &str)] = &[
    ("zstream_checkpoint_bytes_total", "bytes of serialized checkpoint written, header included, summed over checkpoints"),
    ("zstream_checkpoint_duration_ns", "wall time of one checkpoint call: quiesce round-trip, serialization and write"),
    ("zstream_checkpoints_total", "checkpoints written"),
    ("zstream_engine_round_ns", "wall time of one non-idle assembly round of the query's engine; an engine shared by identical registrations records each round for every subscriber"),
    ("zstream_ingest_batches_total", "ingest calls admitted from the source"),
    ("zstream_ingest_events_total", "rows the source offered in admitted ingest calls"),
    ("zstream_intake_class_masks", "distinct per-class predicate conjunctions interned in the shard's shared predicate index"),
    ("zstream_intake_engines_skipped_total", "engine-batches the shard settled without entering the engine because every class mask was empty; a shared engine counts once per batch, not once per subscriber"),
    ("zstream_kernel_fallback_rows_total", "rows the query's intake decided row at a time instead of with a column kernel"),
    ("zstream_kernel_rows_evaluated_total", "rows covered by the column-kernel evaluations the query's engine paid for; a predicate shared with an earlier subscriber in the batch is paid by that subscriber"),
    ("zstream_merge_frontier_lag", "stream watermark minus the merge frontier: how far finality trails ingest"),
    ("zstream_merge_ns", "control-thread time per merge pass: fold arrived replies into the merger, building each match once, and emit what became final"),
    ("zstream_merge_pending", "matches buffered in the merger awaiting finality"),
    ("zstream_queries_live", "registered queries currently live: slots minus tombstones"),
    ("zstream_query_admitted_total", "events the query admitted into at least one leaf buffer after intake predicates"),
    ("zstream_query_matched_total", "composite matches the query's engine emitted"),
    ("zstream_reorder_buffered_peak", "high-water mark of rows the reorder stage held back"),
    ("zstream_reorder_late_total", "rows from the source that arrived beyond the slack window"),
    ("zstream_reorder_pending", "rows the reorder stage currently holds back"),
    ("zstream_reorder_release_lag", "event-time distance between the release frontier and the newest row of each released batch"),
    ("zstream_reorder_released_rows_total", "rows the reorder stage released to routing in time order"),
    ("zstream_replans_total", "plan switches the query's adaptive controller made"),
    ("zstream_shard_engines", "physical engines the shard hosts: one per group of identical registrations, so beside zstream_queries_live it shows what sharing saved"),
    ("zstream_shard_queue_depth", "traffic messages sent to the shard and not yet answered"),
    ("zstream_shard_service_ns", "shard-thread time per traffic message: engine rounds packing matches as ids, then numbering and end-ts sorting the reply; excludes the reply send"),
    ("zstream_symbol_bytes_saved", "string bytes the process-wide symbol table's intern hits avoided copying"),
    ("zstream_symbols_interned", "distinct strings in the process-wide symbol table"),
];

/// `name|kind|label-keys|definition`, one line per instrument family
/// (label *keys*, not values — per-shard / per-query fan-out is not part of
/// the schema; the definition is [`DEFINITIONS`]' entry).
fn schema_lines(snap: &ObsSnapshot) -> Vec<String> {
    let set: BTreeSet<String> = snap
        .metrics
        .iter()
        .map(|s| {
            let keys: Vec<&str> = s.labels.iter().map(|(k, _)| k.as_str()).collect();
            let definition =
                DEFINITIONS.iter().find(|(name, _)| *name == s.name).map_or("", |(_, d)| d);
            format!("{}|{}|{}|{definition}", s.name, s.value.kind(), keys.join(","))
        })
        .collect();
    set.into_iter().collect()
}

#[test]
fn exported_key_set_matches_the_golden_schema() {
    let snap = representative_snapshot();
    let lines = schema_lines(&snap);
    let rendered = format!("{}\n", lines.join("\n"));

    if std::env::var("UPDATE_METRICS_SCHEMA").is_ok() {
        std::fs::write(GOLDEN, &rendered).unwrap();
        return;
    }
    for (name, _) in DEFINITIONS {
        assert!(lines.iter().any(|l| l.starts_with(&format!("{name}|"))), "{name} not exported");
    }
    for line in &lines {
        assert!(!line.ends_with('|'), "{line}: every instrument needs a DEFINITIONS entry");
    }
    let golden = std::fs::read_to_string(GOLDEN)
        .expect("missing golden file — run with UPDATE_METRICS_SCHEMA=1 to create it");
    assert_eq!(
        golden, rendered,
        "metrics schema drifted from {GOLDEN}; if intentional, regenerate with \
         UPDATE_METRICS_SCHEMA=1 cargo test --test metrics_schema"
    );

    // Both renderings must mention every instrument family by name.
    let json = snap.to_json();
    let prom = snap.to_prometheus();
    for line in &lines {
        let name = line.split('|').next().unwrap();
        assert!(json.contains(&format!("\"{name}\"")), "JSON export lost {name}");
        assert!(prom.contains(name), "Prometheus export lost {name}");
    }
}

/// When `OBS_JSON` points at an export written by `examples/observe.rs`,
/// validate it against the golden key set (CI's metrics-schema step).
#[test]
fn external_json_export_covers_the_golden_schema() {
    let Ok(path) = std::env::var("OBS_JSON") else {
        return; // opt-in: only meaningful after running the example
    };
    let json = std::fs::read_to_string(&path).unwrap();
    let golden = std::fs::read_to_string(GOLDEN).unwrap();
    for line in golden.lines().filter(|l| !l.is_empty()) {
        let name = line.split('|').next().unwrap();
        assert!(json.contains(&format!("\"{name}\"")), "{path} is missing instrument {name}");
    }
    for section in ["\"metrics\"", "\"trace\"", "\"decisions\""] {
        assert!(json.contains(section), "{path} is missing top-level section {section}");
    }
}
