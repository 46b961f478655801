//! Sharded-runtime equivalence: for generated queries and streams, the
//! multi-threaded runtime's match set must equal the brute-force oracle's
//! and the single-threaded engine's, regardless of worker count, batch
//! size, and where batch boundaries fall — and its output must come out in
//! the documented deterministic order `(end_ts, shard, seq)`.

mod common;

use common::{
    compile, engine_lines, engine_sigs, handles, lines_columns, oracle_sigs, rebatch,
    runtime_matches, runtime_sigs, stream_strategy, Signature,
};
use proptest::prelude::*;

use zstream::core::EngineBuilder;
use zstream::events::Schema;
use zstream::lang::SchemaMap;
use zstream::runtime::{LatenessPolicy, Partitioning, Route, Runtime};
use zstream::workload::{StockConfig, StockGenerator, WeblogConfig, WeblogGenerator};

/// Classes named A/B/C match any stock event (no route-by-name intake), so
/// the `name` equality predicates are what connect — and partition — them.
const PARTITIONABLE: &str = "PATTERN A; B; C WHERE A.name = B.name AND B.name = C.name WITHIN 12";
/// No equality predicates: `Partitioning::Auto` must fall back to a single
/// home shard.
const BROADCAST: &str = "PATTERN A; B WHERE A.price > B.price WITHIN 9";

const NAMES: &[&str] = &["IBM", "Sun", "Oracle", "HP"];

proptest! {
    #![proptest_config(ProptestConfig { cases: 20 })]

    /// Hash-routed: 1–8 workers, mixed batch sizes.
    #[test]
    fn sharded_runtime_matches_oracle_and_engine(
        events in stream_strategy(26, NAMES),
        workers in 1usize..9,
        sizes in prop::collection::vec(1usize..9, 1..4),
    ) {
        let parts = compile(PARTITIONABLE);
        // Rebatch first; every path consumes handles into the same storage
        // so signatures (event identities) are comparable across paths.
        let batches = rebatch(&events, &sizes);
        let expected = oracle_sigs(PARTITIONABLE, None, &handles(&batches));
        prop_assert_eq!(&engine_sigs(&parts, &batches), &expected);
        let got = runtime_sigs(parts, Partitioning::Auto("name".into()), workers, &batches);
        prop_assert_eq!(&got, &expected);
    }

    #[test]
    fn broadcast_fallback_matches_oracle_and_engine(
        events in stream_strategy(24, NAMES),
        workers in 1usize..4,
        chunk in 1usize..9,
    ) {
        let parts = compile(BROADCAST);
        let batches = rebatch(&events, &[chunk]);
        let expected = oracle_sigs(BROADCAST, None, &handles(&batches));
        prop_assert_eq!(&engine_sigs(&parts, &batches), &expected);
        let got = runtime_sigs(
            parts,
            Partitioning::Auto("name".into()), // no equalities -> home shard
            workers,
            &batches,
        );
        prop_assert_eq!(&got, &expected);
    }

    /// Broadcast (home-shard) queries over mixed batch sizes: the home
    /// shard receives the whole batch as an `All` selection.
    #[test]
    fn columnar_broadcast_fallback_matches_oracle(
        events in stream_strategy(24, NAMES),
        workers in 1usize..5,
        sizes in prop::collection::vec(1usize..9, 1..4),
    ) {
        let parts = compile(BROADCAST);
        let batches = rebatch(&events, &sizes);
        let expected = oracle_sigs(BROADCAST, None, &handles(&batches));
        let got = runtime_sigs(
            parts,
            Partitioning::Auto("name".into()), // no equalities -> home shard
            workers,
            &batches,
        );
        prop_assert_eq!(&got, &expected);
    }
}

#[test]
fn worker_count_never_changes_the_match_set() {
    let events = StockGenerator::generate(StockConfig::with_rates(
        &[("IBM", 1.0), ("Sun", 1.0), ("Oracle", 1.0), ("HP", 1.0)],
        400,
        7,
    ));
    let parts = compile(PARTITIONABLE);
    // Formatted lines, not signatures: each rebatching is fresh storage.
    let lines = |workers: usize, chunk: usize| {
        let auto = Partitioning::Auto("name".into());
        let batches = rebatch(&events, &[chunk]);
        lines_columns(&parts, auto, workers, None, LatenessPolicy::Drop, &batches).0
    };
    let baseline = lines(1, 16);
    assert!(!baseline.is_empty());
    for workers in [2, 3, 4, 8] {
        for chunk in [1, 7, 64] {
            assert_eq!(lines(workers, chunk), baseline, "workers={workers} chunk={chunk}");
        }
    }
}

/// Acceptance: on the stock workload, the sharded runtime's match output is
/// byte-identical (formatted through the RETURN clause) to the
/// single-threaded engine's, under the shared deterministic order.
#[test]
fn stock_workload_output_is_byte_identical_to_engine() {
    let src = "PATTERN A; B; C WHERE A.name = B.name AND B.name = C.name \
               WITHIN 30 RETURN A, B, C";
    let events = StockGenerator::generate(StockConfig::with_rates(
        &[("IBM", 1.0), ("Sun", 1.0), ("Oracle", 1.0), ("HP", 1.0), ("Dell", 1.0)],
        600,
        21,
    ));
    let batches = rebatch(&events, &[32]);
    let parts = compile(src);
    // Both outputs are deterministic; equal end-ts ties may order
    // differently between one engine and N shards, so compare under the
    // shared canonical sorted order (end_ts is the line's `..end]` prefix,
    // and the full line disambiguates ties).
    let expected = engine_lines(&parts, &rebatch(&events, &[16]));

    for workers in [2, 4] {
        let template = parts.engine().unwrap();
        let matches =
            runtime_matches(parts.clone(), Partitioning::Auto("name".into()), workers, &batches);
        let mut runtime_lines: Vec<String> =
            matches.iter().map(|m| template.format_match(&m.record)).collect();
        runtime_lines.sort();
        assert!(!runtime_lines.is_empty());
        assert_eq!(runtime_lines, expected, "workers={workers}");
    }
}

/// Acceptance: same byte-identity on the web-log workload (Query 8 shape:
/// same-IP Publication → Project → Course within 10 hours).
#[test]
fn weblog_workload_output_is_byte_identical_to_engine() {
    let src = "PATTERN Publication; Project; Course \
               WHERE Publication.ip = Project.ip AND Project.ip = Course.ip \
               WITHIN 10 hours RETURN Publication, Project, Course";
    let (events, _) = WeblogGenerator::generate(&WeblogConfig::scaled(20_000, 11));
    let parts = EngineBuilder::parse(src)
        .unwrap()
        .schemas(SchemaMap::uniform(Schema::weblog()))
        .route_by_field("category")
        .compile()
        .unwrap();
    let expected = engine_lines(&parts, &rebatch(&events, &[64]));

    let template = parts.engine().unwrap();
    let batches = rebatch(&events, &[128]);
    let matches = runtime_matches(parts, Partitioning::Field("ip".into()), 4, &batches);
    let mut runtime_lines: Vec<String> =
        matches.iter().map(|m| template.format_match(&m.record)).collect();
    runtime_lines.sort();
    assert!(!runtime_lines.is_empty());
    assert_eq!(runtime_lines, expected);
}

/// Two queries hash-routed on the **same field** share one key-column scan
/// per columnar chunk (`Arc`-shared selection vectors); each must still
/// produce exactly its solo match set.
#[test]
fn multi_query_same_field_shares_columnar_routing() {
    let batches = StockGenerator::generate_batches(
        StockConfig::with_rates(
            &[("IBM", 1.0), ("Sun", 1.0), ("Oracle", 1.0), ("HP", 1.0)],
            300,
            3,
        ),
        32,
    );
    const PAIR: &str = "PATTERN A; B WHERE A.name = B.name WITHIN 8";
    let triple_parts = compile(PARTITIONABLE);
    let pair_parts = compile(PAIR);
    let solo_triple =
        runtime_sigs(triple_parts.clone(), Partitioning::Auto("name".into()), 3, &batches);
    let solo_pair =
        runtime_sigs(pair_parts.clone(), Partitioning::Auto("name".into()), 3, &batches);

    let triple_template = triple_parts.engine().unwrap();
    let pair_template = pair_parts.engine().unwrap();
    let mut builder = Runtime::builder().workers(3);
    let q_triple = builder.register(triple_parts, Partitioning::Auto("name".into()));
    let q_pair = builder.register(pair_parts, Partitioning::Auto("name".into()));
    let mut runtime = builder.build().unwrap();
    assert_eq!(runtime.route(q_triple), &Route::Hash("name".into()));
    assert_eq!(runtime.route(q_pair), &Route::Hash("name".into()));

    let mut matches = Vec::new();
    for batch in &batches {
        matches.extend(runtime.ingest_columns(batch).unwrap());
    }
    let report = runtime.shutdown().unwrap();
    matches.extend(report.matches);

    let mut got_triple: Vec<Signature> = matches
        .iter()
        .filter(|m| m.query == q_triple)
        .map(|m| triple_template.record_signature(&m.record))
        .collect();
    let mut got_pair: Vec<Signature> = matches
        .iter()
        .filter(|m| m.query == q_pair)
        .map(|m| pair_template.record_signature(&m.record))
        .collect();
    got_triple.sort();
    got_pair.sort();
    assert!(!got_triple.is_empty() && !got_pair.is_empty());
    assert_eq!(got_triple, solo_triple);
    assert_eq!(got_pair, solo_pair);
}

/// The multi-query registry: a partitioned and a broadcast query sharing
/// one ingest path each produce exactly what they produce when run alone.
#[test]
fn multi_query_registry_isolates_results() {
    let batches = StockGenerator::generate_batches(
        StockConfig::with_rates(
            &[("IBM", 1.0), ("Sun", 1.0), ("Oracle", 1.0), ("HP", 1.0)],
            300,
            3,
        ),
        16,
    );
    let part_parts = compile(PARTITIONABLE);
    let bcast_parts = compile(BROADCAST);
    let solo_part =
        runtime_sigs(part_parts.clone(), Partitioning::Auto("name".into()), 3, &batches);
    let solo_bcast = runtime_sigs(bcast_parts.clone(), Partitioning::Broadcast, 3, &batches);

    let part_template = part_parts.engine().unwrap();
    let bcast_template = bcast_parts.engine().unwrap();
    let mut builder = Runtime::builder().workers(3);
    let q_part = builder.register(part_parts, Partitioning::Auto("name".into()));
    let q_bcast = builder.register(bcast_parts, Partitioning::Broadcast);
    let mut runtime = builder.build().unwrap();
    assert_eq!(runtime.route(q_part), &Route::Hash("name".into()));
    assert!(matches!(runtime.route(q_bcast), Route::Single(_)));

    let mut matches = Vec::new();
    for batch in &batches {
        matches.extend(runtime.ingest_columns(batch).unwrap());
    }
    let report = runtime.shutdown().unwrap();
    matches.extend(report.matches);

    let mut got_part: Vec<Signature> = matches
        .iter()
        .filter(|m| m.query == q_part)
        .map(|m| part_template.record_signature(&m.record))
        .collect();
    let mut got_bcast: Vec<Signature> = matches
        .iter()
        .filter(|m| m.query == q_bcast)
        .map(|m| bcast_template.record_signature(&m.record))
        .collect();
    got_part.sort();
    got_bcast.sort();
    assert!(!got_part.is_empty() && !got_bcast.is_empty());
    assert_eq!(got_part, solo_part);
    assert_eq!(got_bcast, solo_bcast);
    assert_eq!(
        report.query_metrics[q_part.index()].matches_out
            + report.query_metrics[q_bcast.index()].matches_out,
        matches.len() as u64
    );
}
