//! Shared helpers for the integration-test suite (not a test binary —
//! `tests/common/mod.rs` is the cargo convention for test support code).
//!
//! One brute-force oracle, one stream strategy, and one family of runtime
//! drivers, shared by the equivalence suites and the checkpoint-recovery
//! harness. Each test binary compiles its own copy and uses a subset, so
//! dead-code warnings are off for the module.
#![allow(dead_code)]

use proptest::prelude::*;

use zstream::core::reference::reference_signatures;
use zstream::core::{build_intake, CompiledParts, Engine, EngineBuilder};
use zstream::events::{stock, EventBatch, EventRef, Schema, Ts};
use zstream::lang::{analyze, Query, SchemaMap};
use zstream::runtime::{
    LatenessPolicy, Partitioning, Runtime, RuntimeBuilder, RuntimeMatch, RuntimeReport,
};

/// A match's identity as the set of event indexes bound to each class —
/// stable across engines, plans and shard counts.
pub type Signature = Vec<Vec<usize>>;

/// Chops one stream of row handles into columnar batches at the given
/// boundaries (sizes cycle; remainder becomes the last batch). The rows are
/// gathered into fresh storage, so paths that must agree on event
/// *identities* all consume handles flattened back out of these batches.
pub fn rebatch(events: &[EventRef], sizes: &[usize]) -> Vec<EventBatch> {
    let mut out = Vec::new();
    let mut pos = 0;
    let mut i = 0;
    while pos < events.len() {
        let size = sizes[i % sizes.len()].max(1);
        let end = (pos + size).min(events.len());
        out.push(EventBatch::from_events(&events[pos..end]).expect("uniform schema"));
        pos = end;
        i += 1;
    }
    out
}

/// One columnar batch of `events` (one schema; arrival order is kept, so
/// the batch may be unsorted).
pub fn batch_of(events: &[EventRef]) -> EventBatch {
    EventBatch::from_events(events).expect("uniform schema")
}

/// Compiles a stock-schema query with the default plan config and no
/// route-by-name intake (classes match any event; predicates connect them).
pub fn compile(src: &str) -> CompiledParts {
    EngineBuilder::parse(src).unwrap().compile().unwrap()
}

/// Compiles with `stock_routing()` — class names are stock symbols and the
/// intake routes by the `name` field.
pub fn compile_stock(src: &str) -> CompiledParts {
    EngineBuilder::parse(src).unwrap().stock_routing().compile().unwrap()
}

/// The brute-force oracle over the stocks schema: every combination of
/// events checked against the query semantics directly. `route` selects the
/// intake (e.g. `Some("name")` for symbol-named classes, `None` for
/// match-anything classes connected by predicates).
pub fn oracle_sigs(src: &str, route: Option<&str>, events: &[EventRef]) -> Vec<Signature> {
    let aq = analyze(&Query::parse(src).unwrap(), &SchemaMap::uniform(Schema::stocks())).unwrap();
    let intake = build_intake(&aq, route).unwrap();
    reference_signatures(&aq, &intake, events)
}

/// Strategy: a time-ordered stock stream over a small name alphabet (equal
/// timestamps included) with narrow value domains, so partition keys
/// collide and predicates get both hits and misses.
pub fn stream_strategy(
    max_len: usize,
    names: &'static [&'static str],
) -> impl Strategy<Value = Vec<EventRef>> {
    prop::collection::vec(
        (0u64..3, 0usize..names.len(), 0i64..6, 1i64..4), // ts-gap, name, price-ish, volume
        1..max_len,
    )
    .prop_map(move |rows| {
        let mut ts = 0u64;
        rows.into_iter()
            .enumerate()
            .map(|(i, (gap, name_idx, price, volume))| {
                ts += gap;
                stock(ts, i as i64, names[name_idx], price as f64, volume)
            })
            .collect()
    })
}

/// The arrival stream's sorted counterpart: stable sort by timestamp
/// (equal timestamps keep arrival order — exactly the reorder release
/// order).
pub fn sorted_counterpart(arrival: &[EventRef]) -> Vec<EventRef> {
    let mut sorted = arrival.to_vec();
    sorted.sort_by_key(EventRef::ts);
    sorted
}

/// A runtime builder with the standard test knobs (tight channels) and an
/// optional reorder stage.
pub fn builder_with(workers: usize, slack: Option<Ts>, lateness: LatenessPolicy) -> RuntimeBuilder {
    let mut b = Runtime::builder().workers(workers).channel_capacity(2);
    if let Some(s) = slack {
        b = b.slack(s).lateness(lateness);
    }
    b
}

/// Sorted formatted lines + shutdown report of one runtime over `batches`.
pub fn lines_columns(
    parts: &CompiledParts,
    partitioning: Partitioning,
    workers: usize,
    slack: Option<Ts>,
    lateness: LatenessPolicy,
    batches: &[EventBatch],
) -> (Vec<String>, RuntimeReport) {
    let template = parts.engine().unwrap();
    let mut builder = builder_with(workers, slack, lateness);
    builder.register(parts.clone(), partitioning);
    let mut runtime = builder.build().unwrap();
    let mut matches = Vec::new();
    for batch in batches {
        matches.extend(runtime.ingest_columns(batch).unwrap());
    }
    let report = runtime.shutdown().unwrap();
    matches.extend(report.matches.iter().cloned());
    let mut lines: Vec<String> = matches.iter().map(|m| template.format_match(&m.record)).collect();
    lines.sort();
    (lines, report)
}

/// The row handles of `batches` in stream order: what signatures identify
/// events by, so oracles compared with engines fed `batches` run over these.
pub fn handles(batches: &[EventBatch]) -> Vec<EventRef> {
    batches.iter().flat_map(EventBatch::iter).collect()
}

/// A fresh single-threaded engine fed every batch (one round each), then
/// flushed: the engine and every match in emission order.
pub fn engine_run(
    parts: &CompiledParts,
    batches: &[EventBatch],
) -> (Engine, Vec<zstream::events::Record>) {
    let mut engine = parts.engine().unwrap();
    let mut records = Vec::new();
    for batch in batches {
        records.extend(engine.push_columns(batch));
    }
    records.extend(engine.flush());
    (engine, records)
}

/// Panics unless every entry of every plan node of `engine` starts at or
/// after its EAT floor, `watermark − window`: what a round must leave
/// behind when EAT pruning is on (no later match can use anything older).
pub fn assert_live(engine: &Engine, what: &str) {
    let plan = engine.plan();
    let floor = engine.watermark().saturating_sub(plan.window);
    for (i, node) in plan.nodes.iter().enumerate() {
        if let Some(stale) = node.buf.iter().find(|e| e.start_ts() < floor) {
            panic!(
                "{what}: node {i} holds an entry starting at {} below the floor {floor}",
                stale.start_ts()
            );
        }
    }
}

/// Sorted, deduplicated signatures from the single-threaded engine.
pub fn engine_sigs(parts: &CompiledParts, batches: &[EventBatch]) -> Vec<Signature> {
    let (engine, records) = engine_run(parts, batches);
    let mut sigs: Vec<Signature> = records.iter().map(|r| engine.record_signature(r)).collect();
    sigs.sort();
    sigs.dedup();
    sigs
}

/// Sorted formatted lines from the single-threaded engine — the byte-level
/// oracle for runtime acceptance tests.
pub fn engine_lines(parts: &CompiledParts, batches: &[EventBatch]) -> Vec<String> {
    let (engine, records) = engine_run(parts, batches);
    let mut lines: Vec<String> = records.iter().map(|r| engine.format_match(r)).collect();
    lines.sort();
    lines
}

/// Runs the sharded runtime (one [`EventBatch`] per ingest call) and
/// returns every match in delivery order, after asserting merge-order
/// delivery and consistent accounting.
pub fn runtime_matches(
    parts: CompiledParts,
    partitioning: Partitioning,
    workers: usize,
    batches: &[EventBatch],
) -> Vec<RuntimeMatch> {
    let mut builder = Runtime::builder().workers(workers).channel_capacity(2);
    let q = builder.register(parts, partitioning);
    let mut runtime = builder.build().unwrap();
    let mut matches: Vec<RuntimeMatch> = Vec::new();
    for batch in batches {
        matches.extend(runtime.ingest_columns(batch).unwrap());
    }
    matches.extend(runtime.poll().unwrap());
    let report = runtime.shutdown().unwrap();
    matches.extend(report.matches);
    assert!(
        matches.windows(2).all(|w| w[0].key() <= w[1].key()),
        "runtime output not in (end_ts, shard, seq) order"
    );
    assert!(matches.iter().all(|m| m.query == q));
    assert_eq!(report.workers, workers);
    assert_eq!(
        report.metrics.matches_out,
        matches.len() as u64,
        "aggregated metrics disagree with delivered match count"
    );
    matches
}

/// Sorted, deduplicated signatures of runtime matches, asserting
/// exactly-once emission on the way. Signatures are event identities, so
/// compare them with an oracle over the handles of `batches` themselves.
pub fn runtime_sigs(
    parts: CompiledParts,
    partitioning: Partitioning,
    workers: usize,
    batches: &[EventBatch],
) -> Vec<Signature> {
    let template = parts.engine().unwrap();
    let matches = runtime_matches(parts, partitioning, workers, batches);
    let mut sigs: Vec<Signature> =
        matches.iter().map(|m| template.record_signature(&m.record)).collect();
    let n = sigs.len();
    sigs.sort();
    sigs.dedup();
    assert_eq!(n, sigs.len(), "runtime emitted duplicate matches");
    sigs
}
