//! Out-of-order ingestion equivalence: the differential guarantee of the
//! §4.1 reorder stage.
//!
//! For any stream whose arrival disorder is bounded by the configured
//! slack, ingesting the **disordered** stream through a reorder-staged
//! runtime must produce byte-identical match output (formatted through the
//! RETURN clause, compared under the canonical sorted order) to ingesting
//! its **sorted counterpart** through a plain runtime — across batch
//! boundaries and 1–8 workers, on stock and weblog workloads. With disorder beyond the slack, the match stream must equal
//! the sorted stream minus exactly the late events, and `late_events` must
//! count exactly that excess — never corrupting or reordering emitted
//! matches.
//!
//! The sorted oracle for equal timestamps: the reorder stage releases
//! equal-timestamp events in arrival order, so the "sorted counterpart" is
//! the arrival stream **stably** sorted by timestamp (for strictly
//! increasing streams, exactly the original order).

mod common;

use std::time::{Duration, Instant};

use common::{batch_of, compile, lines_columns, rebatch, sorted_counterpart, stream_strategy};
use proptest::prelude::*;

use zstream::core::EngineBuilder;
use zstream::events::{shard_of, stock, EventBatch, EventRef, Schema, Ts, Value};
use zstream::lang::SchemaMap;
use zstream::runtime::{LatenessPolicy, Partitioning, Runtime, RuntimeError};
use zstream::workload::{DisorderSpec, StockConfig, StockGenerator, WeblogConfig, WeblogGenerator};

const PARTITIONABLE: &str = "PATTERN A; B; C WHERE A.name = B.name AND B.name = C.name WITHIN 12";
const PAIR: &str = "PATTERN A; B WHERE A.name = B.name WITHIN 12 RETURN A, B";

const NAMES: &[&str] = &["IBM", "Sun", "Oracle", "HP"];

/// Reference model of the reorder acceptance rule over one source:
/// survivors (in arrival order) and late events (in arrival order).
fn simulate_acceptance(arrival: &[EventRef], slack: Ts) -> (Vec<EventRef>, Vec<EventRef>) {
    let mut hw: Ts = 0;
    let mut survivors = Vec::new();
    let mut late = Vec::new();
    for e in arrival {
        if e.ts().saturating_add(slack) < hw {
            late.push(e.clone());
        } else {
            hw = hw.max(e.ts());
            survivors.push(e.clone());
        }
    }
    (survivors, late)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16 })]

    /// Disorder bounded by the slack: byte-identical output to the sorted
    /// counterpart, zero late events, 1–8 workers.
    #[test]
    fn disorder_within_slack_is_byte_identical(
        events in stream_strategy(26, NAMES),
        workers in 1usize..9,
        max_delay in 0u64..6,
        seed in 0u64..1000,
        sizes in prop::collection::vec(1usize..9, 1..4),
    ) {
        let parts = compile(PARTITIONABLE);
        let arrival = DisorderSpec::bounded(max_delay, seed).shuffle_events(&events);
        let sorted = sorted_counterpart(&arrival);
        let sorted_batches = rebatch(&sorted, &sizes);
        let (expected, _) = lines_columns(
            &parts, Partitioning::Auto("name".into()), workers, None,
            LatenessPolicy::Drop, &sorted_batches,
        );

        let arrival_batches = rebatch(&arrival, &sizes);
        let (got_col, report_col) = lines_columns(
            &parts, Partitioning::Auto("name".into()), workers, Some(max_delay),
            LatenessPolicy::Drop, &arrival_batches,
        );
        prop_assert_eq!(&got_col, &expected, "disordered vs sorted");
        prop_assert_eq!(report_col.late_events, 0);
    }

    /// Disorder beyond the slack: the match stream equals the sorted
    /// stream minus the dropped events, and `late_events` counts exactly
    /// the excess.
    #[test]
    fn disorder_beyond_slack_drops_exactly_the_excess(
        events in stream_strategy(26, NAMES),
        workers in 1usize..5,
        slack in 0u64..3,
        max_delay in 3u64..10,
        seed in 0u64..1000,
        sizes in prop::collection::vec(1usize..9, 1..4),
    ) {
        let parts = compile(PARTITIONABLE);
        let arrival = DisorderSpec::bounded(max_delay, seed)
            .late_fraction(0.2)
            .shuffle_events(&events);
        let (survivors, late) = simulate_acceptance(&arrival, slack);
        let survivors_sorted = sorted_counterpart(&survivors);
        let (expected, _) = lines_columns(
            &parts, Partitioning::Auto("name".into()), workers, None,
            LatenessPolicy::Drop, &rebatch(&survivors_sorted, &sizes),
        );

        let (got, report) = lines_columns(
            &parts, Partitioning::Auto("name".into()), workers, Some(slack),
            LatenessPolicy::Drop, &rebatch(&arrival, &sizes),
        );
        prop_assert_eq!(&got, &expected, "matches must equal the sorted survivors'");
        prop_assert_eq!(report.late_events, late.len() as u64, "late count must be exact");
    }

    /// Several individually ordered sources with arbitrary inter-source
    /// skew merge exactly under per-source watermarks — zero late events
    /// even at slack 0.
    #[test]
    fn skewed_in_order_sources_merge_exactly(
        events in stream_strategy(24, NAMES),
        workers in 1usize..5,
        block in 1usize..7,
    ) {
        let parts = compile(PARTITIONABLE);
        let sorted = sorted_counterpart(&events);
        let (expected, _) = lines_columns(
            &parts, Partitioning::Auto("name".into()), workers, None,
            LatenessPolicy::Drop, &rebatch(&sorted, &[8]),
        );

        // Deal sorted events into two in-order sub-streams in alternating
        // blocks, then ingest whole sub-streams one after the other — the
        // worst-case skew (source 1 starts only after source 0 finished).
        let (mut s0, mut s1) = (Vec::new(), Vec::new());
        for (i, chunk) in sorted.chunks(block).enumerate() {
            if i % 2 == 0 { s0.extend_from_slice(chunk) } else { s1.extend_from_slice(chunk) }
        }
        let mut builder = Runtime::builder()
            .workers(workers).channel_capacity(2)
            .slack(0).sources(2);
        builder.register(parts.clone(), Partitioning::Auto("name".into()));
        let mut runtime = builder.build().unwrap();
        let template = parts.engine().unwrap();
        let mut matches = Vec::new();
        for batch in rebatch(&s0, &[8]) {
            matches.extend(runtime.ingest_columns_from(0, &batch).unwrap());
        }
        for batch in rebatch(&s1, &[8]) {
            matches.extend(runtime.ingest_columns_from(1, &batch).unwrap());
        }
        let report = runtime.shutdown().unwrap();
        matches.extend(report.matches.iter().cloned());
        prop_assert_eq!(report.late_events, 0, "in-order sources are never late");
        let mut got: Vec<String> =
            matches.iter().map(|m| template.format_match(&m.record)).collect();
        got.sort();
        prop_assert_eq!(&got, &expected);
    }
}

/// Acceptance: the stock workload generated in disordered arrival order
/// (through `StockConfig::disordered`) is byte-identical to its sorted
/// counterpart across worker counts — strictly increasing timestamps, so
/// the sorted counterpart is exactly the original generated order.
#[test]
fn stock_workload_disordered_ingest_is_byte_identical() {
    let src = "PATTERN A; B; C WHERE A.name = B.name AND B.name = C.name \
               WITHIN 30 RETURN A, B, C";
    let parts = compile(src);
    let rates: Vec<(&str, f64)> =
        [("IBM", 1.0), ("Sun", 1.0), ("Oracle", 1.0), ("HP", 1.0), ("Dell", 1.0)].to_vec();
    let cfg = StockConfig::with_rates(&rates, 600, 21);
    let sorted_batches = StockGenerator::generate_batches(cfg.clone(), 64);
    let disordered_batches =
        StockGenerator::generate_batches(cfg.disordered(DisorderSpec::bounded(40, 9)), 64);
    assert!(
        disordered_batches.iter().any(|b| !b.is_sorted()),
        "the disorder model must actually disorder the batches"
    );
    for workers in [1, 2, 4, 8] {
        let (expected, _) = lines_columns(
            &parts,
            Partitioning::Auto("name".into()),
            workers,
            None,
            LatenessPolicy::Drop,
            &sorted_batches,
        );
        assert!(!expected.is_empty());
        // The sorted input through the same reorder stage is the other
        // input: positive slack holds back each batch's tail, loses nothing.
        for (input, batches) in [("disordered", &disordered_batches), ("sorted", &sorted_batches)] {
            let (got, report) = lines_columns(
                &parts,
                Partitioning::Auto("name".into()),
                workers,
                Some(40),
                LatenessPolicy::Drop,
                batches,
            );
            assert_eq!(got, expected, "{input}, workers={workers}");
            assert_eq!(report.late_events, 0, "{input}");
            assert!(
                report.reorder_buffered_peak > 0,
                "{input} ingest must have buffered something"
            );
        }
    }
}

/// Acceptance: same differential guarantee on the web-log workload
/// (Query 8 shape), which carries equal timestamps — the stable sorted
/// counterpart is the oracle.
#[test]
fn weblog_workload_disordered_ingest_is_byte_identical() {
    let src = "PATTERN Publication; Project; Course \
               WHERE Publication.ip = Project.ip AND Project.ip = Course.ip \
               WITHIN 10 hours RETURN Publication, Project, Course";
    let parts = EngineBuilder::parse(src)
        .unwrap()
        .schemas(SchemaMap::uniform(Schema::weblog()))
        .route_by_field("category")
        .compile()
        .unwrap();
    let cfg = WeblogConfig::scaled(20_000, 11);
    let spec = DisorderSpec::bounded(1800, 23);
    let (disordered_batches, stats) =
        WeblogGenerator::generate_batches(&cfg.clone().disordered(spec), 128);
    let (sorted_plain, plain_stats) = WeblogGenerator::generate_batches(&cfg, 128);
    assert_eq!(stats, plain_stats, "disorder must not change what is generated");
    let _ = sorted_plain;
    // Oracle: the disordered rows stably re-sorted by timestamp.
    let arrival: Vec<EventRef> = disordered_batches.iter().flat_map(EventBatch::iter).collect();
    let sorted_batches = rebatch(&sorted_counterpart(&arrival), &[128]);

    let (expected, _) = lines_columns(
        &parts,
        Partitioning::Field("ip".into()),
        4,
        None,
        LatenessPolicy::Drop,
        &sorted_batches,
    );
    assert!(!expected.is_empty());
    let (got, report) = lines_columns(
        &parts,
        Partitioning::Field("ip".into()),
        4,
        Some(1800),
        LatenessPolicy::Drop,
        &disordered_batches,
    );
    assert_eq!(got, expected);
    assert_eq!(report.late_events, 0);
}

// --- Lateness policies ---

/// One unsorted arrival batch with stragglers: ts 10 first, then rows the
/// slack window has already closed on.
fn straggler_batch() -> EventBatch {
    let arrival = [
        stock(10, 0, "IBM", 1.0, 1),
        stock(4, 1, "IBM", 2.0, 1), // 6 behind
        stock(9, 2, "IBM", 3.0, 1), // 1 behind
        stock(2, 3, "IBM", 4.0, 1), // 8 behind
        stock(11, 4, "IBM", 5.0, 1),
    ];
    rebatch(&arrival, &[arrival.len()]).remove(0)
}

#[test]
fn drop_policy_counts_and_discards() {
    let parts = compile(PAIR);
    let mut builder = Runtime::builder().workers(2).slack(1);
    builder.register(parts.clone(), Partitioning::Auto("name".into()));
    let mut runtime = builder.build().unwrap();
    let mut matches = runtime.ingest_columns(&straggler_batch()).unwrap();
    assert_eq!(runtime.late_events(), 2, "ts 4 and ts 2 are beyond slack 1");
    assert!(runtime.take_late_events().is_empty(), "Drop retains nothing");
    let report = runtime.shutdown().unwrap();
    matches.extend(report.matches.iter().cloned());
    assert_eq!(report.late_events, 2);
    // Survivors 9, 10, 11 pair up within the window; the dropped rows
    // (ts 4 and ts 2, rendered as `Stocks@4[..]` / `Stocks@2[..]`) must
    // appear in no match.
    let template = parts.engine().unwrap();
    let lines: Vec<String> = matches.iter().map(|m| template.format_match(&m.record)).collect();
    assert!(!lines.is_empty());
    assert!(lines.iter().all(|l| !l.contains("@4[") && !l.contains("@2[")), "{lines:?}");
}

#[test]
fn dead_letter_policy_returns_late_events_in_arrival_order() {
    let parts = compile(PAIR);
    let mut builder = Runtime::builder().workers(2).slack(1).lateness(LatenessPolicy::DeadLetter);
    builder.register(parts.clone(), Partitioning::Auto("name".into()));
    let mut runtime = builder.build().unwrap();
    runtime.ingest_columns(&straggler_batch()).unwrap();
    // A second late arrival in a later call accumulates behind the first
    // two.
    runtime.ingest_columns(&batch_of(&[stock(3, 5, "IBM", 6.0, 1)])).unwrap();
    assert_eq!(runtime.late_events(), 3);
    let late = runtime.take_late_events();
    let ts: Vec<Ts> = late.iter().map(|e| e.ts()).collect();
    assert_eq!(ts, vec![4, 2, 3], "dead letters surface in arrival order");
    assert!(runtime.take_late_events().is_empty(), "draining is destructive");
    // A straggler the caller never drains is not destroyed: shutdown
    // surfaces it in the report.
    runtime.ingest_columns(&batch_of(&[stock(5, 6, "IBM", 8.0, 1)])).unwrap();
    let report = runtime.shutdown().unwrap();
    assert_eq!(report.late_events, 4, "dead-lettered events still count as late");
    let undrained: Vec<Ts> = report.dead_letters.iter().map(|e| e.ts()).collect();
    assert_eq!(undrained, vec![5], "undrained dead letters come back in the report");
}

#[test]
fn strict_policy_errors_without_poisoning_the_runtime() {
    let parts = compile(PAIR);
    let template = parts.engine().unwrap();
    let mut builder = Runtime::builder().workers(2).slack(2).lateness(LatenessPolicy::Strict);
    builder.register(parts.clone(), Partitioning::Auto("name".into()));
    let mut runtime = builder.build().unwrap();

    let good1 = rebatch(&[stock(5, 0, "IBM", 1.0, 1), stock(6, 1, "IBM", 2.0, 1)], &[2]).remove(0);
    let bad = rebatch(
        &[stock(7, 2, "IBM", 3.0, 1), stock(3, 3, "IBM", 4.0, 1), stock(8, 4, "IBM", 5.0, 1)],
        &[3],
    )
    .remove(0);
    let good2 = rebatch(&[stock(9, 5, "IBM", 6.0, 1), stock(10, 6, "IBM", 7.0, 1)], &[2]).remove(0);

    let mut matches = runtime.ingest_columns(&good1).unwrap();
    match runtime.ingest_columns(&bad) {
        Err(RuntimeError::TooLate { source: 0, ts: 3, acceptable }) => {
            assert_eq!(acceptable, 5, "high water 7 minus slack 2");
        }
        other => panic!("expected TooLate, got {other:?}"),
    }
    // Same contract for a call whose only row is late.
    assert!(matches!(
        runtime.ingest_columns(&batch_of(&[stock(1, 9, "IBM", 9.0, 1)])),
        Err(RuntimeError::TooLate { source: 0, ts: 1, .. })
    ));
    // Not poisoned: subsequent ingest works and the rejected calls were
    // all-or-nothing — none of their rows (ts 7, 3, 8 and ts 1) reached
    // the engines.
    matches.extend(runtime.ingest_columns(&good2).unwrap());
    let report = runtime.shutdown().unwrap();
    matches.extend(report.matches.iter().cloned());
    let lines: Vec<String> = matches.iter().map(|m| template.format_match(&m.record)).collect();
    assert!(!lines.is_empty(), "the surviving stream still matches");
    assert!(
        lines.iter().all(|l| ["@7[", "@3[", "@8[", "@1["].iter().all(|bad| !l.contains(bad))),
        "rejected calls must not reach the engines: {lines:?}"
    );
    assert_eq!(report.late_events, 0, "strict rejections never enter the reorder stage");
}

/// Without a reorder stage, disordered input is a configuration error —
/// a hard rejection, not a debug-only assert — because arrival-order
/// batches are an ordinary product of the API now.
#[test]
fn reorder_less_runtime_rejects_disordered_input() {
    let parts = compile(PAIR);
    let mut builder = Runtime::builder().workers(1);
    builder.register(parts, Partitioning::Auto("name".into()));
    let mut runtime = builder.build().unwrap();

    let unsorted =
        rebatch(&[stock(5, 0, "IBM", 1.0, 1), stock(2, 1, "IBM", 2.0, 1)], &[2]).remove(0);
    assert!(!unsorted.is_sorted());
    assert!(matches!(runtime.ingest_columns(&unsorted), Err(RuntimeError::InvalidConfig(_))));
    // Cross-call regressions are rejected too.
    runtime.ingest_columns(&batch_of(&[stock(10, 2, "IBM", 3.0, 1)])).unwrap();
    let behind = batch_of(&[stock(8, 4, "IBM", 5.0, 1)]);
    assert!(matches!(runtime.ingest_columns(&behind), Err(RuntimeError::InvalidConfig(_))));
    // The runtime stays usable for ordered traffic.
    runtime
        .ingest_columns(&batch_of(&[stock(10, 5, "IBM", 6.0, 1), stock(12, 6, "IBM", 7.0, 1)]))
        .unwrap();
    runtime.shutdown().unwrap();
}

/// The single-threaded engine has no error channel, so feeding it a
/// disordered batch directly must fail loudly (release builds included)
/// instead of silently corrupting window semantics.
#[test]
#[should_panic(expected = "time-ordered")]
fn engine_rejects_disordered_batches_loudly() {
    let parts = compile(PAIR);
    let mut engine = parts.engine().unwrap();
    let unsorted =
        rebatch(&[stock(5, 0, "IBM", 1.0, 1), stock(2, 1, "IBM", 2.0, 1)], &[2]).remove(0);
    assert!(!unsorted.is_sorted());
    engine.push_columns(&unsorted);
}

// --- Builder validation ---

#[test]
fn misconfigured_reorder_knobs_are_rejected() {
    let parts = compile(PAIR);
    let mut b = Runtime::builder().workers(1).sources(2);
    b.register(parts.clone(), Partitioning::Broadcast);
    assert!(matches!(b.build(), Err(RuntimeError::InvalidConfig(_))), "sources need slack");

    let mut b = Runtime::builder().workers(1).lateness(LatenessPolicy::Strict);
    b.register(parts.clone(), Partitioning::Broadcast);
    assert!(matches!(b.build(), Err(RuntimeError::InvalidConfig(_))), "lateness needs slack");

    let mut b = Runtime::builder().workers(1).slack(4).sources(0);
    b.register(parts.clone(), Partitioning::Broadcast);
    assert!(matches!(b.build(), Err(RuntimeError::InvalidConfig(_))), "zero sources");

    // Out-of-range source indexes are rejected at ingest.
    let mut b = Runtime::builder().workers(1).slack(4).sources(2);
    b.register(parts, Partitioning::Broadcast);
    let mut runtime = b.build().unwrap();
    let batch = rebatch(&[stock(1, 0, "IBM", 1.0, 1)], &[1]).remove(0);
    assert!(matches!(runtime.ingest_columns_from(2, &batch), Err(RuntimeError::InvalidConfig(_))));
    let empty = EventBatch::builder(Schema::stocks(), 0).finish();
    assert!(matches!(runtime.ingest_columns_from(5, &empty), Err(RuntimeError::InvalidConfig(_))));
    runtime.ingest_columns_from(1, &batch).unwrap();
    runtime.shutdown().unwrap();
}

// --- Worker failure composed with disorder ---

/// A dead shard must not stall the reorder high-water mark: under
/// disordered ingest with a failed worker, the watermark still advances,
/// matches still finalize *before* shutdown, and the survivors' match set
/// equals the sorted oracle over the live shards' keys.
#[test]
fn dead_shard_does_not_stall_disordered_finality() {
    let workers = 4;
    let names = ["IBM", "Sun", "Oracle", "HP", "Dell", "AMD"];
    let dead = shard_of(&Value::str("IBM").hash_key(), workers);
    let events: Vec<EventRef> = (0..240)
        .map(|i| stock(i as u64 + 1, i as i64, names[i as usize % names.len()], 1.0, 1))
        .collect();
    let slack = 8;
    let arrival = DisorderSpec::bounded(slack, 31).shuffle_events(&events);

    let src = "PATTERN A; B; C WHERE A.name = B.name AND B.name = C.name WITHIN 12 RETURN A, B, C";
    let parts = compile(src);
    let template = parts.engine().unwrap();
    let mut builder =
        Runtime::builder().workers(workers).channel_capacity(2).heartbeat_interval(1).slack(slack);
    builder.register(parts.clone(), Partitioning::Field("name".into()));
    let mut runtime = builder.build().unwrap();

    runtime.inject_worker_failure(dead).unwrap();
    let t0 = Instant::now();
    let mut matches = Vec::new();
    while runtime.live_workers() != workers - 1 {
        matches.extend(runtime.poll().unwrap());
        assert!(t0.elapsed() < Duration::from_secs(10), "departure never observed");
        std::thread::yield_now();
    }

    for chunk in rebatch(&arrival, &[16]) {
        matches.extend(runtime.ingest_columns(&chunk).unwrap());
    }
    // Watermark is frontier-driven and must have advanced despite the dead
    // shard: high water 240 minus slack.
    assert_eq!(runtime.watermark(), 240 - slack);
    // Finality liveness: with heartbeats + polling, matches arrive before
    // shutdown even though one shard is dead.
    let t0 = Instant::now();
    while matches.is_empty() && t0.elapsed() < Duration::from_secs(10) {
        matches.extend(runtime.poll().unwrap());
        std::thread::yield_now();
    }
    assert!(!matches.is_empty(), "a dead shard stalled disordered finality");
    let report = runtime.shutdown().unwrap();
    matches.extend(report.matches.iter().cloned());
    assert_eq!(report.late_events, 0, "disorder is within slack");

    // Survivors' matches equal the sorted oracle over live-shard keys.
    let surviving: Vec<EventRef> = events
        .iter()
        .filter(|e| shard_of(&e.value_by_name("name").unwrap().hash_key(), workers) != dead)
        .cloned()
        .collect();
    let (expected, _) = lines_columns(
        &parts,
        Partitioning::Field("name".into()),
        workers,
        None,
        LatenessPolicy::Drop,
        &rebatch(&surviving, &[16]),
    );
    let mut lines: Vec<String> = matches.iter().map(|m| template.format_match(&m.record)).collect();
    lines.sort();
    assert!(!lines.is_empty());
    assert_eq!(lines, expected, "dead shard must not corrupt the disordered match stream");
}
