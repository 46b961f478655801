//! Kernel-intake differential suite: the columnar filter kernels
//! ([`IntakeMode::Kernel`]) must produce **byte-identical** match streams to
//! the row-at-a-time `IntakePred::passes` oracle ([`IntakeMode::Rows`]) and
//! to the per-event record path — across stock and weblog workloads,
//! dictionary-encoded vs plain `Sym` columns, 1–8 worker shards
//! (`split_batch_rows` fan-out), and float edge cases (`NaN`,
//! `0.0 == -0.0`) flowing through `CmpLit` predicates.
//!
//! [`IntakeMode::Kernel`]: zstream::core::IntakeMode::Kernel
//! [`IntakeMode::Rows`]: zstream::core::IntakeMode::Rows

mod common;

use common::{compile, compile_stock, rebatch};
use proptest::prelude::*;

use zstream::core::{
    CompiledParts, EngineBuilder, EngineConfig, IntakeMode, PlanConfig, SharedPredIndex,
};
use zstream::events::{split_batch_rows, DictMode, EventBatch, EventRef, Schema, Value};
use zstream::lang::SchemaMap;
use zstream::workload::{WeblogConfig, WeblogGenerator};

/// Float domain slanted toward the comparison edge cases: signed zeros
/// (`0.0 == -0.0` under the exact semantics) and `NaN` (one class **above**
/// all numbers under the total order both paths must share).
const EDGE_FLOATS: &[f64] = &[0.0, -0.0, f64::NAN, 1.0, -1.5, 2.0, 1e300];

/// Columnar path under an explicit intake mode; unsorted — a single engine's
/// output order is deterministic, so the comparison is byte-for-byte.
fn columnar_lines(parts: &CompiledParts, batches: &[EventBatch], mode: IntakeMode) -> Vec<String> {
    let mut engine = parts.engine().unwrap();
    engine.set_intake_mode(mode);
    let mut records = Vec::new();
    for batch in batches {
        records.extend(engine.push_columns(batch));
    }
    records.extend(engine.flush());
    records.iter().map(|r| engine.format_match(r)).collect()
}

/// The per-event record path — the original `IntakePred::passes` oracle
/// (one event per push, no columns involved at all).
fn record_lines(parts: &CompiledParts, events: &[EventRef]) -> Vec<String> {
    let mut engine = parts.engine().unwrap();
    let mut records = Vec::new();
    for e in events {
        records.extend(engine.push(e.clone()));
    }
    records.extend(engine.flush());
    records.iter().map(|r| engine.format_match(r)).collect()
}

/// Shard fan-out: `split_batch_rows` selection vectors into `workers`
/// independent engines via [`Engine::push_rows`], each subscribed to its
/// own shard's predicate index, all forced to `mode`. Sparse selections
/// are exactly where `Auto` would bail to the row path, so forcing `Kernel`
/// here exercises the kernels on sub-batch selections. Output is sorted
/// (cross-shard order is not defined).
///
/// [`Engine::push_rows`]: zstream::core::Engine::push_rows
fn sharded_lines(
    parts: &CompiledParts,
    batches: &[EventBatch],
    field: &str,
    workers: usize,
    mode: IntakeMode,
) -> Vec<String> {
    let mut shards: Vec<_> = (0..workers)
        .map(|_| {
            let (mut e, mut index) = (parts.engine().unwrap(), SharedPredIndex::new());
            e.set_intake_mode(mode);
            e.subscribe(&mut index);
            (e, index)
        })
        .collect();
    let mut records = Vec::new();
    for batch in batches {
        let split = split_batch_rows(batch, field, workers);
        for (shard, rows) in split.shards.iter().enumerate() {
            if !rows.is_empty() {
                let (engine, index) = &mut shards[shard];
                index.begin_batch();
                records.extend(engine.push_rows(batch, Some(rows), index));
            }
        }
    }
    for (engine, _) in &mut shards {
        records.extend(engine.flush());
    }
    let template = parts.engine().unwrap();
    let mut lines: Vec<String> = records.iter().map(|r| template.format_match(r)).collect();
    lines.sort();
    lines
}

/// Rebuilds each batch row-by-row under an explicit dictionary mode, so the
/// same stream can be replayed over dictionary-encoded and plain `Sym`
/// columns.
fn with_dict(batches: &[EventBatch], mode: DictMode) -> Vec<EventBatch> {
    batches
        .iter()
        .map(|batch| {
            let mut b = EventBatch::builder(batch.schema().clone(), batch.len());
            for e in batch.iter() {
                let values: Vec<Value> =
                    (0..batch.schema().fields().len()).map(|f| e.value(f)).collect();
                b.push_row(e.ts(), &values).unwrap();
            }
            b.finish_with(mode)
        })
        .collect()
}

/// A stock stream whose prices come from [`EDGE_FLOATS`], built through one
/// columnar batch so every path shares event identities.
fn edge_stock_stream(max_len: usize) -> impl Strategy<Value = Vec<EventRef>> {
    prop::collection::vec((0u64..3, 0usize..4, 0usize..EDGE_FLOATS.len(), 1i64..4), 1..max_len)
        .prop_map(|rows| {
            let mut ts = 0u64;
            let mut b = EventBatch::builder(Schema::stocks(), rows.len());
            for (i, (gap, name_idx, price_idx, volume)) in rows.into_iter().enumerate() {
                ts += gap;
                let name = ["IBM", "Sun", "Oracle", "HP"][name_idx];
                b.push_row(
                    ts,
                    &[
                        Value::Int(i as i64),
                        Value::str(name),
                        Value::Float(EDGE_FLOATS[price_idx]),
                        Value::Int(volume),
                    ],
                )
                .unwrap();
            }
            b.finish().to_events()
        })
}

/// Queries covering every compiled intake shape against the float edges:
/// `CmpLit` orderings and equality against `0.0` (hit by `-0.0` and `NaN`
/// rows), the `StrEq` symbol route, and the `General` row-wise fallback.
const EDGE_QUERIES: &[(&str, bool)] = &[
    ("PATTERN IBM; Sun WHERE IBM.price > 0.0 WITHIN 6 RETURN IBM, Sun", true),
    ("PATTERN IBM; Sun; Oracle WHERE Sun.price <= 0.0 WITHIN 8 RETURN IBM, Sun, Oracle", true),
    ("PATTERN A; B WHERE A.price = 0.0 AND B.volume < 3 WITHIN 6 RETURN A, B", false),
    ("PATTERN A; B WHERE A.price * 2.0 > 1.0 AND B.price >= 0.0 WITHIN 6 RETURN A, B", false),
];

proptest! {
    #![proptest_config(ProptestConfig { cases: 24 })]

    /// Kernel vs row oracle vs per-event record path, on dictionary-encoded
    /// and plain columns, over the float-edge stream.
    #[test]
    fn kernel_matches_row_oracle_on_float_edges(
        events in edge_stock_stream(40),
        query_idx in 0usize..EDGE_QUERIES.len(),
        sizes in prop::collection::vec(1usize..11, 1..4),
        engine_batch in 1usize..6,
    ) {
        let (src, routed) = EDGE_QUERIES[query_idx];
        let parts =
            if routed { compile_stock(src, engine_batch) } else { compile(src, engine_batch) };
        let batches = rebatch(&events, &sizes);
        let events: Vec<EventRef> = batches.iter().flat_map(EventBatch::iter).collect();

        let oracle = record_lines(&parts, &events);
        for dict in [DictMode::Plain, DictMode::Force] {
            let batches = with_dict(&batches, dict);
            let kernel = columnar_lines(&parts, &batches, IntakeMode::Kernel);
            let rows = columnar_lines(&parts, &batches, IntakeMode::Rows);
            prop_assert_eq!(&kernel, &rows, "kernel vs rows ({src}, {dict:?})");
            prop_assert_eq!(&kernel, &oracle, "kernel vs record path ({src}, {dict:?})");
        }
    }

    /// Shard fan-out differential: selection-vector intake at 1–8 workers,
    /// kernel vs row path per shard.
    #[test]
    fn kernel_matches_row_oracle_under_shard_fanout(
        events in edge_stock_stream(40),
        sizes in prop::collection::vec(1usize..11, 1..4),
        workers in 1usize..=8,
    ) {
        let src = "PATTERN IBM; Sun WHERE IBM.price > 0.0 WITHIN 6 RETURN IBM, Sun";
        let parts = compile_stock(src, 4);
        let batches = rebatch(&events, &sizes);
        let kernel = sharded_lines(&parts, &batches, "name", workers, IntakeMode::Kernel);
        let rows = sharded_lines(&parts, &batches, "name", workers, IntakeMode::Rows);
        prop_assert_eq!(kernel, rows, "sharded kernel vs rows at {} workers", workers);
    }
}

/// Weblog workload (Query 8 shape): kernel vs row oracle on the columnar,
/// partitioned and 1–8-worker sharded paths. Deterministic — the generated
/// workload is seeded, and it must actually produce matches.
#[test]
fn weblog_kernel_matches_row_oracle_across_paths_and_workers() {
    let src = "PATTERN Publication; Project; Course \
               WHERE Publication.ip = Project.ip AND Project.ip = Course.ip \
               WITHIN 10 hours RETURN Publication, Project, Course";
    let (batches, _) = WeblogGenerator::generate_batches(&WeblogConfig::scaled(12_000, 13), 128);
    let events: Vec<EventRef> = batches.iter().flat_map(EventBatch::iter).collect();
    let parts = EngineBuilder::parse(src)
        .unwrap()
        .schemas(SchemaMap::uniform(Schema::weblog()))
        .route_by_field("category")
        .config(EngineConfig { batch_size: 64, plan: PlanConfig::default() })
        .compile()
        .unwrap();

    let oracle = record_lines(&parts, &events);
    assert!(!oracle.is_empty(), "workload produced no matches — weak test");
    let kernel = columnar_lines(&parts, &batches, IntakeMode::Kernel);
    let rows = columnar_lines(&parts, &batches, IntakeMode::Rows);
    assert_eq!(kernel, rows, "columnar kernel vs rows");
    assert_eq!(kernel, oracle, "columnar kernel vs record path");

    // PartitionedEngine stamps the mode onto every per-key engine; its
    // output order is deterministic, so compare unsorted.
    let partitioned = |mode: IntakeMode| {
        let mut pe = parts.partitioned_engine("ip").unwrap();
        pe.set_intake_mode(mode);
        let mut records = Vec::new();
        for batch in &batches {
            records.extend(pe.push_columns(batch));
        }
        records.extend(pe.flush());
        let template = parts.engine().unwrap();
        records.iter().map(|r| template.format_match(r)).collect::<Vec<String>>()
    };
    assert_eq!(
        partitioned(IntakeMode::Kernel),
        partitioned(IntakeMode::Rows),
        "partitioned kernel vs rows"
    );

    let mut sorted_oracle = oracle;
    sorted_oracle.sort();
    for workers in 1..=8 {
        let kernel = sharded_lines(&parts, &batches, "ip", workers, IntakeMode::Kernel);
        let rows = sharded_lines(&parts, &batches, "ip", workers, IntakeMode::Rows);
        assert_eq!(kernel, rows, "sharded kernel vs rows at {workers} workers");
        assert_eq!(kernel, sorted_oracle, "sharded kernel vs record path at {workers} workers");
    }
}

// --- Compare kernels vs the scalar reference, row for row ---

use zstream::events::kernel::{cmp_value, filter_cmp, Bitmap, CmpOp};

const OPS: [CmpOp; 6] = [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge];

const TWO_53: i64 = 1 << 53;

/// Float rows and literals: both NaN signs, both zeros, both infinities,
/// fractions, and the `2^53` / `2^63` neighbourhoods where an int literal
/// or an int row stops being exactly one `f64`.
const CMP_FLOATS: &[f64] = &[
    f64::NAN,
    -f64::NAN,
    0.0,
    -0.0,
    f64::INFINITY,
    f64::NEG_INFINITY,
    1.0,
    -1.0,
    3.5,
    -0.5,
    f64::MIN_POSITIVE,
    9_007_199_254_740_991.0,      // 2^53 - 1
    9_007_199_254_740_992.0,      // 2^53
    9_007_199_254_740_994.0,      // 2^53 + 2: the next float
    -9_007_199_254_740_992.0,     // -2^53
    9_223_372_036_854_775_808.0,  // 2^63 > i64::MAX
    -9_223_372_036_854_775_808.0, // -2^63 = i64::MIN
    1e300,
];

const CMP_INTS: &[i64] = &[
    i64::MIN,
    i64::MIN + 1,
    -TWO_53 - 1,
    -TWO_53,
    -1,
    0,
    1,
    3,
    4,
    TWO_53 - 1,
    TWO_53,
    TWO_53 + 1,
    i64::MAX - 1,
    i64::MAX,
];

/// One stock batch whose `price` (float) and `volume` (int) columns carry
/// the generated edge values.
fn edge_columns(rows: &[(usize, usize)]) -> EventBatch {
    let mut b = EventBatch::builder(Schema::stocks(), rows.len());
    for (i, (f, n)) in rows.iter().enumerate() {
        let row = [
            Value::Int(i as i64),
            Value::str("IBM"),
            Value::Float(CMP_FLOATS[*f]),
            Value::Int(CMP_INTS[*n]),
        ];
        b.push_row(i as u64, &row).unwrap();
    }
    b.finish()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48 })]

    /// `filter_cmp` is `cmp_value` per row: all six operators, float and
    /// int columns, against every float and int literal of the edge
    /// domains. The literal domain reaches both kernel paths — the native
    /// comparison loop (float × non-NaN float, int × int, either × an
    /// in-range literal of the other type) and the exact `Ordering` loop
    /// (NaN, `|lit| >= 2^53` across types, a fraction against ints) — and
    /// the row counts cross 64-row words with and without a tail.
    #[test]
    fn filter_cmp_matches_cmp_value_row_for_row(
        rows in prop::collection::vec((0usize..CMP_FLOATS.len(), 0usize..CMP_INTS.len()), 0..200),
    ) {
        let batch = edge_columns(&rows);
        let lits: Vec<Value> = CMP_FLOATS
            .iter()
            .map(|f| Value::Float(*f))
            .chain(CMP_INTS.iter().map(|n| Value::Int(*n)))
            .collect();
        let mut out = Bitmap::new();
        for field in [2usize, 3] {
            let col = batch.column(field);
            for lit in &lits {
                for op in OPS {
                    filter_cmp(col, op, lit, &mut out);
                    prop_assert_eq!(out.len(), rows.len());
                    prop_assert!(out.check_invariants());
                    for row in 0..rows.len() {
                        prop_assert_eq!(
                            out.get(row),
                            cmp_value(op, &col.value(row), lit),
                            "{:?} {} vs {} (field {}, row {})", op, col.value(row), lit, field, row
                        );
                    }
                }
            }
        }
    }
}
