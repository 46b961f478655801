//! The exported metrics schema is a contract: dashboards and alerts key on
//! instrument names, kinds, and label keys. This test pins the full key
//! set — `name|kind|label-keys|definition` per instrument family — against
//! a checked-in golden file, so renaming or dropping an instrument is a
//! deliberate, reviewed change rather than a silent one. The definition
//! field is filled for the instruments whose *meaning* is part of the
//! contract ([`DEFINITIONS`]) and empty elsewhere, so redefining what one
//! of them measures is a reviewed diff of the golden file too.
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

/// One-line definitions of the instruments read as shares of wall time —
/// the "Time accounts" of `docs/ARCHITECTURE.md`. What they cover moved
/// once already (matches are built on the control thread, not the shard),
/// so the definition is pinned with the name.
const DEFINITIONS: &[(&str, &str)] = &[
    (
        "zstream_merge_ns",
        "control-thread time per merge pass: fold arrived replies into the merger, building each \
         match once, and emit what became final",
    ),
    (
        "zstream_shard_service_ns",
        "shard-thread time per traffic message: engine rounds packing matches as ids, then \
         numbering and end-ts sorting the reply; excludes the reply send",
    ),
];

/// `name|kind|label-keys|definition`, one line per instrument family
/// (label *keys*, not values — per-shard / per-query fan-out is not part of
/// the schema; the definition is empty unless [`DEFINITIONS`] pins one).
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
