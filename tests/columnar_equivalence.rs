//! Columnar data-plane equivalence: for generated queries and streams, the
//! vectorized intake path ([`Engine::push_columns`] /
//! [`PartitionedEngine::push_columns`]) must produce **byte-identical**
//! match streams to the pre-refactor record-at-a-time path
//! ([`Engine::push`]) and to the brute-force oracle — on stock and weblog
//! workloads, across arbitrary batch boundaries and all shard counts.
//!
//! [`Engine::push_columns`]: zstream::core::Engine::push_columns
//! [`Engine::push`]: zstream::core::Engine::push
//! [`PartitionedEngine::push_columns`]: zstream::core::PartitionedEngine::push_columns

mod common;

use common::{compile_stock, lines_columns, oracle_sigs, rebatch, Signature};
use proptest::prelude::*;

use zstream::core::{CompiledParts, EngineBuilder, EngineConfig, PlanConfig};
use zstream::events::{EventBatch, EventRef, Schema};
use zstream::lang::SchemaMap;
use zstream::runtime::{LatenessPolicy, Partitioning};
use zstream::workload::{StockConfig, StockGenerator, WeblogConfig, WeblogGenerator};

/// The record-at-a-time path: one event per push (the pre-refactor intake).
fn record_path(parts: &CompiledParts, events: &[EventRef]) -> (Vec<Signature>, Vec<String>) {
    let mut engine = parts.engine().unwrap();
    let mut records = Vec::new();
    for e in events {
        records.extend(engine.push(e.clone()));
    }
    records.extend(engine.flush());
    let mut sigs: Vec<Signature> = records.iter().map(|r| engine.record_signature(r)).collect();
    let mut lines: Vec<String> = records.iter().map(|r| engine.format_match(r)).collect();
    sigs.sort();
    lines.sort();
    (sigs, lines)
}

/// The vectorized path: whole columnar batches through `push_columns`.
fn columnar_path(parts: &CompiledParts, batches: &[EventBatch]) -> (Vec<Signature>, Vec<String>) {
    let mut engine = parts.engine().unwrap();
    let mut records = Vec::new();
    for batch in batches {
        records.extend(engine.push_columns(batch));
    }
    records.extend(engine.flush());
    let mut sigs: Vec<Signature> = records.iter().map(|r| engine.record_signature(r)).collect();
    let mut lines: Vec<String> = records.iter().map(|r| engine.format_match(r)).collect();
    sigs.sort();
    lines.sort();
    (sigs, lines)
}

/// The sharded runtime's match lines at `workers` shards.
fn runtime_lines(
    parts: &CompiledParts,
    field: &str,
    workers: usize,
    batches: &[EventBatch],
) -> Vec<String> {
    let (lines, _) = lines_columns(
        parts,
        Partitioning::Auto(field.into()),
        workers,
        None,
        LatenessPolicy::Drop,
        batches,
    );
    lines
}

/// A stream over a small alphabet with prices/volumes in a narrow range so
/// every predicate shape gets both hits and misses.
fn stock_stream(max_len: usize) -> impl Strategy<Value = Vec<EventRef>> {
    prop::collection::vec(
        (0u64..3, 0usize..4, 0i64..6, 1i64..5), // ts-gap, name, price-ish, volume
        1..max_len,
    )
    .prop_map(|rows| {
        let mut ts = 0u64;
        let specs: Vec<(u64, usize, f64, i64)> = rows
            .into_iter()
            .map(|(gap, name_idx, price, volume)| {
                ts += gap;
                (ts, name_idx, price as f64, volume)
            })
            .collect();
        // Build through one columnar batch so the record path and the
        // columnar path share event identities.
        let mut b = EventBatch::builder(Schema::stocks(), specs.len());
        for (i, (ts, name_idx, price, volume)) in specs.iter().enumerate() {
            let name = ["IBM", "Sun", "Oracle", "HP"][*name_idx];
            b.push_row(
                *ts,
                &[
                    zstream::events::Value::Int(i as i64),
                    zstream::events::Value::str(name),
                    zstream::events::Value::Float(*price),
                    zstream::events::Value::Int(*volume),
                ],
            )
            .unwrap();
        }
        b.finish().to_events()
    })
}

/// Queries covering every compiled intake shape: the route-by-name symbol
/// equality (`StrEq`), ordered literal comparisons (`CmpLit`), and a
/// non-literal single-class predicate (`General` fallback), over SEQ,
/// equality-join (hash path) and negation plans.
const STOCK_QUERIES: &[&str] = &[
    "PATTERN IBM; Sun; Oracle WHERE IBM.price > Sun.price WITHIN 10 RETURN IBM, Sun, Oracle",
    "PATTERN A; B WHERE A.name = B.name AND A.volume > 2 WITHIN 8 RETURN A, B",
    "PATTERN A; B WHERE A.price * 2.0 > 4.0 AND B.volume < 4 WITHIN 8 RETURN A, B",
    "PATTERN IBM; !Sun; Oracle WITHIN 9 RETURN IBM, Oracle",
];

proptest! {
    #![proptest_config(ProptestConfig { cases: 16 })]

    #[test]
    fn columnar_equals_record_path_and_oracle(
        events in stock_stream(30),
        query_idx in 0usize..4,
        sizes in prop::collection::vec(1usize..9, 1..4),
        engine_batch in 1usize..6,
    ) {
        let src = STOCK_QUERIES[query_idx];
        let parts = compile_stock(src, engine_batch);
        let batches = rebatch(&events, &sizes);
        // Handles into the rebatched storage: every path below sees the
        // same event identities.
        let events: Vec<EventRef> = batches.iter().flat_map(EventBatch::iter).collect();

        let (rec_sigs, rec_lines) = record_path(&parts, &events);
        let (col_sigs, col_lines) = columnar_path(&parts, &batches);
        prop_assert_eq!(&col_sigs, &rec_sigs, "columnar vs record signatures ({})", src);
        prop_assert_eq!(&col_lines, &rec_lines, "columnar vs record lines ({})", src);

        // Brute-force oracle over the same handles (route-by-name intake).
        let mut oracle = oracle_sigs(src, Some("name"), &events);
        oracle.sort();
        oracle.dedup();
        let mut deduped = rec_sigs.clone();
        deduped.dedup();
        prop_assert_eq!(&deduped, &oracle, "engine vs oracle ({})", src);
    }

    #[test]
    fn partitioned_columnar_equals_batch_path(
        events in stock_stream(30),
        sizes in prop::collection::vec(1usize..9, 1..4),
    ) {
        let src = "PATTERN A; B WHERE A.name = B.name WITHIN 8 RETURN A, B";
        let parts = EngineBuilder::parse(src)
            .unwrap()
            .config(EngineConfig { batch_size: 4, plan: PlanConfig::default() })
            .compile()
            .unwrap();
        let batches = rebatch(&events, &sizes);

        let mut by_batch = parts.partitioned_engine("name").unwrap();
        let mut a = Vec::new();
        for batch in &batches {
            a.extend(by_batch.push_batch(&batch.to_events()));
        }
        a.extend(by_batch.flush());

        let mut by_columns = parts.partitioned_engine("name").unwrap();
        let mut b = Vec::new();
        for batch in &batches {
            b.extend(by_columns.push_columns(batch));
        }
        b.extend(by_columns.flush());

        let template = parts.engine().unwrap();
        let fmt = |records: &[zstream::events::Record]| -> Vec<String> {
            records.iter().map(|r| template.format_match(r)).collect()
        };
        // push_columns and push_batch emit in the same deterministic
        // (end_ts, first-seen-key) order — compare without sorting.
        prop_assert_eq!(fmt(&a), fmt(&b));
    }
}

/// Byte-identity across the full path matrix on the stock workload: record
/// path, columnar path, and the sharded runtime at every worker count.
#[test]
fn stock_workload_byte_identical_across_paths_and_shard_counts() {
    let src = "PATTERN A; B; C WHERE A.name = B.name AND B.name = C.name \
               WITHIN 25 RETURN A, B, C";
    let batches = StockGenerator::generate_batches(
        StockConfig::with_rates(
            &[("IBM", 1.0), ("Sun", 1.0), ("Oracle", 1.0), ("HP", 1.0), ("Dell", 1.0)],
            500,
            33,
        ),
        64,
    );
    let events: Vec<EventRef> = batches.iter().flat_map(EventBatch::iter).collect();
    let parts = EngineBuilder::parse(src)
        .unwrap()
        .config(EngineConfig { batch_size: 16, plan: PlanConfig::default() })
        .compile()
        .unwrap();

    let (_, rec_lines) = record_path(&parts, &events);
    let (_, col_lines) = columnar_path(&parts, &batches);
    assert!(!rec_lines.is_empty());
    assert_eq!(col_lines, rec_lines, "columnar vs record path");

    for workers in 1..=4 {
        let lines = runtime_lines(&parts, "name", workers, &batches);
        assert_eq!(lines, rec_lines, "runtime at {workers} shards");
    }
}

/// Same matrix on the weblog workload (Query 8 shape: same-IP sequence with
/// category-routed intake).
#[test]
fn weblog_workload_byte_identical_across_paths_and_shard_counts() {
    let src = "PATTERN Publication; Project; Course \
               WHERE Publication.ip = Project.ip AND Project.ip = Course.ip \
               WITHIN 10 hours RETURN Publication, Project, Course";
    let (batches, _) = WeblogGenerator::generate_batches(&WeblogConfig::scaled(12_000, 13), 256);
    let events: Vec<EventRef> = batches.iter().flat_map(EventBatch::iter).collect();
    let parts = EngineBuilder::parse(src)
        .unwrap()
        .schemas(SchemaMap::uniform(Schema::weblog()))
        .route_by_field("category")
        .config(EngineConfig { batch_size: 64, plan: PlanConfig::default() })
        .compile()
        .unwrap();

    let (_, rec_lines) = record_path(&parts, &events);
    let (_, col_lines) = columnar_path(&parts, &batches);
    assert!(!rec_lines.is_empty(), "workload produced no matches — weak test");
    assert_eq!(col_lines, rec_lines, "columnar vs record path");

    for workers in 1..=4 {
        let lines = runtime_lines(&parts, "ip", workers, &batches);
        assert_eq!(lines, rec_lines, "runtime at {workers} shards");
    }
}
