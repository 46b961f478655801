//! Columnar data-plane equivalence: for generated queries and streams, the
//! single-threaded engines' intake ([`Engine::push_columns`] /
//! [`PartitionedEngine::push_columns`]) must match the brute-force oracle,
//! be independent of where batch boundaries fall (down to one event per
//! round), agree with the shard entry ([`Engine::push_rows`]) and produce
//! **byte-identical** match streams to the sharded runtime at every shard
//! count — on stock and weblog workloads.
//!
//! [`Engine::push_columns`]: zstream::core::Engine::push_columns
//! [`Engine::push_rows`]: zstream::core::Engine::push_rows
//! [`PartitionedEngine::push_columns`]: zstream::core::PartitionedEngine::push_columns

mod common;

use common::{compile_stock, engine_run, handles, lines_columns, oracle_sigs, rebatch, Signature};
use proptest::prelude::*;

use zstream::core::{CompiledParts, EngineBuilder, SharedPredIndex};
use zstream::events::{EventBatch, EventRef, Record, Schema};
use zstream::lang::SchemaMap;
use zstream::runtime::{LatenessPolicy, Partitioning};
use zstream::workload::{StockConfig, StockGenerator, WeblogConfig, WeblogGenerator};

/// Sorted signatures and sorted formatted lines of `records`.
fn sigs_and_lines(
    engine: &zstream::core::Engine,
    records: &[Record],
) -> (Vec<Signature>, Vec<String>) {
    let mut sigs: Vec<Signature> = records.iter().map(|r| engine.record_signature(r)).collect();
    let mut lines: Vec<String> = records.iter().map(|r| engine.format_match(r)).collect();
    sigs.sort();
    lines.sort();
    (sigs, lines)
}

/// The record-at-a-time path: every event its own round, handed to the
/// engine as a one-row selection of the batch that holds it
/// ([`Engine::push_rows`], the shard entry), so event identities are the
/// batches' own.
///
/// [`Engine::push_rows`]: zstream::core::Engine::push_rows
fn record_path(parts: &CompiledParts, batches: &[EventBatch]) -> (Vec<Signature>, Vec<String>) {
    let mut engine = parts.engine().unwrap();
    let mut index = SharedPredIndex::new();
    engine.subscribe(&mut index);
    let mut records = Vec::new();
    for batch in batches {
        for row in 0..batch.len() as u32 {
            index.begin_batch();
            records.extend(engine.push_rows(batch, Some(&[row]), &mut index).records());
        }
    }
    records.extend(engine.flush());
    sigs_and_lines(&engine, &records)
}

/// The vectorized path: whole columnar batches through `push_columns`.
fn columnar_path(parts: &CompiledParts, batches: &[EventBatch]) -> (Vec<Signature>, Vec<String>) {
    let (engine, records) = engine_run(parts, batches);
    sigs_and_lines(&engine, &records)
}

/// A `name`-keyed partitioned engine's output over `batches`, unsorted —
/// its order is deterministic — through `push_columns` or, with
/// `shard_entry`, through `push_rows` with every row selected and a shared
/// index.
fn partitioned_lines(
    parts: &CompiledParts,
    batches: &[EventBatch],
    shard_entry: bool,
) -> Vec<String> {
    let mut engine = parts.partitioned_engine("name").unwrap();
    let mut index = SharedPredIndex::new();
    engine.subscribe(&mut index);
    let mut records = Vec::new();
    for batch in batches {
        records.extend(if shard_entry {
            index.begin_batch();
            engine.push_rows(batch, None, &mut index).records()
        } else {
            engine.push_columns(batch)
        });
    }
    records.extend(engine.flush());
    let template = parts.engine().unwrap();
    records.iter().map(|r| template.format_match(r)).collect()
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
    ) {
        let src = STOCK_QUERIES[query_idx];
        let parts = compile_stock(src);
        let batches = rebatch(&events, &sizes);

        let (rec_sigs, rec_lines) = record_path(&parts, &batches);
        let (col_sigs, col_lines) = columnar_path(&parts, &batches);
        prop_assert_eq!(&col_sigs, &rec_sigs, "columnar vs record signatures ({})", src);
        prop_assert_eq!(&col_lines, &rec_lines, "columnar vs record lines ({})", src);

        // Brute-force oracle over the batches' own handles (route-by-name
        // intake).
        let oracle = oracle_sigs(src, Some("name"), &handles(&batches));
        let mut deduped = col_sigs;
        deduped.dedup();
        prop_assert_eq!(&deduped, &oracle, "engine vs oracle ({})", src);
    }

    /// The shard's per-batch entry (`push_rows` over every row, through a
    /// shared index) and `push_columns` drive a partitioned engine
    /// identically: same matches in the same deterministic (end_ts,
    /// first-seen-key) order — compared without sorting — and the oracle's
    /// match set.
    #[test]
    fn partitioned_columnar_equals_batch_path(
        events in stock_stream(30),
        sizes in prop::collection::vec(1usize..9, 1..4),
    ) {
        let src = "PATTERN A; B WHERE A.name = B.name WITHIN 8 RETURN A, B";
        let parts = EngineBuilder::parse(src).unwrap().compile().unwrap();
        let batches = rebatch(&events, &sizes);

        let by_batch = partitioned_lines(&parts, &batches, true);
        let by_columns = partitioned_lines(&parts, &batches, false);
        prop_assert_eq!(&by_batch, &by_columns);

        let (flat_sigs, flat_lines) = columnar_path(&parts, &batches);
        let mut sorted = by_columns;
        sorted.sort();
        prop_assert_eq!(sorted, flat_lines, "partitioned vs flat engine");
        prop_assert_eq!(flat_sigs, oracle_sigs(src, None, &handles(&batches)), "flat vs oracle");
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
    let parts = EngineBuilder::parse(src).unwrap().compile().unwrap();

    let (_, rec_lines) = record_path(&parts, &batches);
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
    let parts = EngineBuilder::parse(src)
        .unwrap()
        .schemas(SchemaMap::uniform(Schema::weblog()))
        .route_by_field("category")
        .compile()
        .unwrap();

    let (_, rec_lines) = record_path(&parts, &batches);
    let (_, col_lines) = columnar_path(&parts, &batches);
    assert!(!rec_lines.is_empty(), "workload produced no matches — weak test");
    assert_eq!(col_lines, rec_lines, "columnar vs record path");

    for workers in 1..=4 {
        let lines = runtime_lines(&parts, "ip", workers, &batches);
        assert_eq!(lines, rec_lines, "runtime at {workers} shards");
    }
}
