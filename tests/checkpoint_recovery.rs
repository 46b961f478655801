//! Crash-recovery differential harness: the tentpole guarantee of the
//! durable-state layer.
//!
//! For any workload, worker count, and crash point, the following protocol
//! must be **invisible** in the merged match stream:
//!
//! 1. ingest a prefix of the stream, collecting emitted matches,
//! 2. [`Runtime::checkpoint`] at a chunk boundary,
//! 3. keep ingesting, then *crash* — drop the runtime without shutdown,
//!    discarding everything emitted after the checkpoint (those outputs
//!    are not durable; replay re-derives them),
//! 4. [`RuntimeBuilder::restore`] into a fresh runtime from the checkpoint
//!    bytes,
//! 5. replay the tail (every chunk after the checkpoint) and shut down.
//!
//! The concatenation of pre-checkpoint matches and the restored runtime's
//! matches must be byte-identical (formatted through the RETURN clause,
//! compared under the canonical sorted order) to an uninterrupted run over
//! the same chunks — on stock and weblog workloads, 1–8 workers, in-order
//! and disordered-within-slack streams. Re-ingesting the last pre-checkpoint chunk after restore
//! (at-least-once delivery from an input log) must not duplicate matches,
//! and a checkpoint of a *restored* runtime must round-trip the same way.
//!
//! [`Runtime::checkpoint`]: zstream::runtime::Runtime::checkpoint
//! [`RuntimeBuilder::restore`]: zstream::runtime::RuntimeBuilder::restore

mod common;

use common::{batch_of, compile, lines_columns, rebatch, stream_strategy};
use proptest::prelude::*;

use zstream::core::{CompiledParts, EngineBuilder, EngineConfig, PlanConfig};
use zstream::events::{stock, EventBatch, EventRef, Schema, Ts};
use zstream::lang::SchemaMap;
use zstream::runtime::{
    LatenessPolicy, Partitioning, Runtime, RuntimeBuilder, RuntimeError, RuntimeReport,
};
use zstream::workload::{DisorderSpec, StockConfig, StockGenerator, WeblogConfig, WeblogGenerator};

const PARTITIONABLE: &str = "PATTERN A; B; C WHERE A.name = B.name AND B.name = C.name \
                             WITHIN 12 RETURN A, B, C";
const NAMES: &[&str] = &["IBM", "Sun", "Oracle", "HP"];

fn builder(
    parts: &CompiledParts,
    partitioning: &Partitioning,
    workers: usize,
    slack: Option<Ts>,
    lateness: LatenessPolicy,
) -> RuntimeBuilder {
    let mut b = Runtime::builder().workers(workers).channel_capacity(2);
    if let Some(s) = slack {
        b = b.slack(s).lateness(lateness);
    }
    b.register(parts.clone(), partitioning.clone());
    b
}

/// Drives the crash/restore protocol and returns the durable match lines (sorted) plus the final shutdown report.
///
/// * `ckpt_at` — checkpoint after this many chunks.
/// * `crash_at` — keep ingesting up to this chunk boundary before the
///   crash (`ckpt_at..=len`); those emissions are discarded.
/// * `idempotent` — additionally re-ingest the last pre-checkpoint chunk
///   after restore, exercising the replay guard.
#[allow(clippy::too_many_arguments)]
fn run_with_crash(
    parts: &CompiledParts,
    partitioning: &Partitioning,
    workers: usize,
    slack: Option<Ts>,
    batches: &[EventBatch],
    ckpt_at: usize,
    crash_at: usize,
    idempotent: bool,
) -> (Vec<String>, RuntimeReport) {
    assert!(ckpt_at <= crash_at && crash_at <= batches.len());
    let template = parts.engine().unwrap();
    let mut lines: Vec<String> = Vec::new();

    // Phase 1: ingest the prefix, checkpoint, keep going, crash.
    let mut runtime =
        builder(parts, partitioning, workers, slack, LatenessPolicy::Drop).build().unwrap();
    for batch in &batches[..ckpt_at] {
        for m in runtime.ingest_columns(batch).unwrap() {
            lines.push(template.format_match(&m.record));
        }
    }
    let mut file = Vec::new();
    runtime.checkpoint(&mut file).unwrap();
    for batch in &batches[ckpt_at..crash_at] {
        // Emitted after the checkpoint: not durable, lost with the crash.
        let _ = runtime.ingest_columns(batch).unwrap();
    }
    drop(runtime); // crash: no shutdown, no drain

    // Phase 2: restore and replay the tail.
    let mut runtime = builder(parts, partitioning, workers, slack, LatenessPolicy::Drop)
        .restore(&mut file.as_slice())
        .unwrap();
    let replay_from = if idempotent { ckpt_at.saturating_sub(1) } else { ckpt_at };
    for batch in &batches[replay_from..] {
        for m in runtime.ingest_columns(batch).unwrap() {
            lines.push(template.format_match(&m.record));
        }
    }
    let report = runtime.shutdown().unwrap();
    for m in &report.matches {
        lines.push(template.format_match(&m.record));
    }
    lines.sort();
    (lines, report)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16 })]

    /// The core differential: crash + restore + tail replay is invisible in
    /// the merged match stream, in-order and disordered
    /// streams, 1–8 workers, arbitrary checkpoint and crash boundaries —
    /// with and without idempotent re-delivery of the last chunk.
    #[test]
    fn crash_recovery_is_invisible_columnar(
        events in stream_strategy(26, NAMES),
        workers in 1usize..9,
        sizes in prop::collection::vec(1usize..9, 1..4),
        ckpt_sel in 0usize..64,
        crash_sel in 0usize..64,
        max_delay in 0u64..5,
        disorder_seed in 0u64..1000,
        idempotent: bool,
    ) {
        // Half the cases run disordered within the slack (slack == bound).
        let slack = (max_delay > 0).then_some(max_delay);
        let arrival = match slack {
            Some(bound) => DisorderSpec::bounded(bound, disorder_seed).shuffle_events(&events),
            None => events,
        };
        let parts = compile(PARTITIONABLE, 4);
        let partitioning = Partitioning::Auto("name".into());
        let batches = rebatch(&arrival, &sizes);
        let ckpt_at = ckpt_sel % (batches.len() + 1);
        let crash_at = ckpt_at + crash_sel % (batches.len() - ckpt_at + 1);

        let (expected, oracle_report) = lines_columns(
            &parts, partitioning.clone(), workers, slack, LatenessPolicy::Drop, &batches,
        );
        let (got, report) = run_with_crash(
            &parts, &partitioning, workers, slack, &batches, ckpt_at, crash_at, idempotent,
        );
        prop_assert_eq!(&got, &expected, "recovered stream differs (ckpt_at={})", ckpt_at);
        // Metrics crossed the boundary: the restored engines' counters
        // continue from the checkpoint, so the totals match an
        // uninterrupted run (nothing double-counted by the replay guard).
        prop_assert_eq!(report.metrics.events_in, oracle_report.metrics.events_in);
        prop_assert_eq!(report.metrics.matches_out, oracle_report.metrics.matches_out);
        prop_assert_eq!(report.late_events, 0, "disorder stays within slack");
    }

    /// Checkpointing a *restored* runtime round-trips: crash twice, restore
    /// twice, and the final stream still equals the uninterrupted run. The
    /// checkpoint sequence keeps counting across the first restore.
    #[test]
    fn checkpoint_of_restored_runtime_round_trips(
        events in stream_strategy(22, NAMES),
        workers in 1usize..5,
        sizes in prop::collection::vec(1usize..9, 1..3),
        cut_a in 0usize..64,
        cut_b in 0usize..64,
    ) {
        let parts = compile(PARTITIONABLE, 4);
        let partitioning = Partitioning::Auto("name".into());
        let template = parts.engine().unwrap();
        let batches = rebatch(&events, &sizes);
        let c1 = cut_a % (batches.len() + 1);
        let c2 = c1 + cut_b % (batches.len() - c1 + 1);

        let (expected, _) = lines_columns(
            &parts, partitioning.clone(), workers, None, LatenessPolicy::Drop, &batches,
        );

        let mut lines: Vec<String> = Vec::new();
        // Run 1: prefix, first checkpoint, crash immediately.
        let mut runtime =
            builder(&parts, &partitioning, workers, None, LatenessPolicy::Drop).build().unwrap();
        for batch in &batches[..c1] {
            for m in runtime.ingest_columns(batch).unwrap() {
                lines.push(template.format_match(&m.record));
            }
        }
        let mut file1 = Vec::new();
        let id1 = runtime.checkpoint(&mut file1).unwrap();
        drop(runtime);

        // Run 2: restore, replay the middle, checkpoint again, crash.
        let mut runtime = builder(&parts, &partitioning, workers, None, LatenessPolicy::Drop)
            .restore(&mut file1.as_slice())
            .unwrap();
        for batch in &batches[c1..c2] {
            for m in runtime.ingest_columns(batch).unwrap() {
                lines.push(template.format_match(&m.record));
            }
        }
        let mut file2 = Vec::new();
        let id2 = runtime.checkpoint(&mut file2).unwrap();
        prop_assert!(id2.sequence() > id1.sequence(), "sequence must continue across restore");
        drop(runtime);

        // Run 3: restore from the second checkpoint and finish the stream.
        let mut runtime = builder(&parts, &partitioning, workers, None, LatenessPolicy::Drop)
            .restore(&mut file2.as_slice())
            .unwrap();
        for batch in &batches[c2..] {
            for m in runtime.ingest_columns(batch).unwrap() {
                lines.push(template.format_match(&m.record));
            }
        }
        let report = runtime.shutdown().unwrap();
        for m in &report.matches {
            lines.push(template.format_match(&m.record));
        }
        lines.sort();
        prop_assert_eq!(&lines, &expected, "double crash/restore corrupted the stream");
    }
}

/// Acceptance: the full protocol on the stock workload — generated
/// batches, 4 workers, checkpoint mid-stream, idempotent replay.
#[test]
fn stock_workload_recovery_is_byte_identical() {
    let parts = compile(
        "PATTERN A; B; C WHERE A.name = B.name AND B.name = C.name WITHIN 30 RETURN A, B, C",
        16,
    );
    let partitioning = Partitioning::Auto("name".into());
    let batches = StockGenerator::generate_batches(
        StockConfig::with_rates(
            &[("IBM", 1.0), ("Sun", 1.0), ("Oracle", 1.0), ("HP", 1.0), ("Dell", 1.0)],
            600,
            21,
        ),
        64,
    );
    let (expected, _) =
        lines_columns(&parts, partitioning.clone(), 4, None, LatenessPolicy::Drop, &batches);
    assert!(!expected.is_empty(), "workload produced no matches — weak test");
    for idempotent in [false, true] {
        let ckpt_at = batches.len() / 2;
        let (got, _) = run_with_crash(
            &parts,
            &partitioning,
            4,
            None,
            &batches,
            ckpt_at,
            batches.len(),
            idempotent,
        );
        assert_eq!(got, expected, "idempotent={idempotent}");
    }
}

/// Acceptance: same protocol on the web-log workload (Query 8 shape) with
/// disordered arrival — the reorder stage's pending tree and per-source
/// high-water marks cross the checkpoint boundary.
#[test]
fn weblog_workload_recovery_with_disorder_is_byte_identical() {
    let src = "PATTERN Publication; Project; Course \
               WHERE Publication.ip = Project.ip AND Project.ip = Course.ip \
               WITHIN 10 hours RETURN Publication, Project, Course";
    let parts = EngineBuilder::parse(src)
        .unwrap()
        .schemas(SchemaMap::uniform(Schema::weblog()))
        .route_by_field("category")
        .config(EngineConfig { batch_size: 64, plan: PlanConfig::default() })
        .compile()
        .unwrap();
    let partitioning = Partitioning::Field("ip".into());
    let cfg = WeblogConfig::scaled(20_000, 11);
    let (batches, _) =
        WeblogGenerator::generate_batches(&cfg.disordered(DisorderSpec::bounded(1800, 23)), 128);
    assert!(batches.iter().any(|b| !b.is_sorted()), "the disorder model must actually disorder");

    let slack = Some(1800);
    let (expected, oracle_report) =
        lines_columns(&parts, partitioning.clone(), 4, slack, LatenessPolicy::Drop, &batches);
    assert!(!expected.is_empty());
    assert_eq!(oracle_report.late_events, 0);

    let ckpt_at = batches.len() / 3;
    let (got, report) =
        run_with_crash(&parts, &partitioning, 4, slack, &batches, ckpt_at, batches.len(), true);
    assert_eq!(got, expected);
    assert_eq!(report.late_events, 0);
    assert!(
        report.reorder_buffered_peak > 0,
        "the restored reorder stage must have buffered something"
    );
}

/// A checkpoint taken before any ingest restores into a runtime that then
/// processes the whole stream normally.
#[test]
fn empty_checkpoint_round_trips() {
    let parts = compile(PARTITIONABLE, 4);
    let partitioning = Partitioning::Auto("name".into());
    let events: Vec<EventRef> =
        (0..40).map(|i| stock(i + 1, i as i64, NAMES[i as usize % 4], 1.0, 1)).collect();
    let batches = rebatch(&events, &[8]);
    let (expected, _) =
        lines_columns(&parts, partitioning.clone(), 2, None, LatenessPolicy::Drop, &batches);
    let (got, _) = run_with_crash(&parts, &partitioning, 2, None, &batches, 0, 0, false);
    assert_eq!(got, expected);
}

/// The replay guard is one-shot and digest-checked: the first re-ingest of
/// the last pre-checkpoint chunk is skipped, a *different* first chunk is
/// processed normally, and the guard never arms on a fresh (non-restored)
/// runtime.
#[test]
fn replay_guard_skips_exactly_the_duplicated_chunk() {
    let parts = compile("PATTERN A; B WHERE A.name = B.name WITHIN 12 RETURN A, B", 4);
    let partitioning = Partitioning::Auto("name".into());
    // A reorder stage with generous slack, so the one-shot check below can
    // legally deliver an old chunk a third time.
    let slack = Some(100);
    let chunk1 =
        batch_of(&(0..6).map(|i| stock(i + 1, i as i64, "IBM", 1.0, 1)).collect::<Vec<_>>());
    let chunk2 =
        batch_of(&(0..6).map(|i| stock(i + 7, 6 + i as i64, "IBM", 2.0, 1)).collect::<Vec<_>>());

    let count = |skip_replay: bool| -> usize {
        let mut runtime =
            builder(&parts, &partitioning, 2, slack, LatenessPolicy::Drop).build().unwrap();
        let mut n = runtime.ingest_columns(&chunk1).unwrap().len();
        let mut file = Vec::new();
        runtime.checkpoint(&mut file).unwrap();
        drop(runtime);
        let mut runtime = builder(&parts, &partitioning, 2, slack, LatenessPolicy::Drop)
            .restore(&mut file.as_slice())
            .unwrap();
        if skip_replay {
            n += runtime.ingest_columns(&chunk1).unwrap().len(); // duplicate delivery
        }
        n += runtime.ingest_columns(&chunk2).unwrap().len();
        let report = runtime.shutdown().unwrap();
        n + report.matches.len()
    };
    let exact = count(false);
    let at_least_once = count(true);
    assert_eq!(at_least_once, exact, "duplicate chunk delivery must be absorbed");

    // The guard is one-shot: the first post-restore delivery of chunk1 is
    // absorbed, but a *second* delivery is real input again (accepted within
    // the slack window) and produces extra matches.
    let redeliver = |times: usize| -> usize {
        let mut runtime =
            builder(&parts, &partitioning, 2, slack, LatenessPolicy::Drop).build().unwrap();
        let mut n = runtime.ingest_columns(&chunk1).unwrap().len();
        let mut file = Vec::new();
        runtime.checkpoint(&mut file).unwrap();
        drop(runtime);
        let mut runtime = builder(&parts, &partitioning, 2, slack, LatenessPolicy::Drop)
            .restore(&mut file.as_slice())
            .unwrap();
        for _ in 0..times {
            n += runtime.ingest_columns(&chunk1).unwrap().len();
        }
        let report = runtime.shutdown().unwrap();
        n + report.matches.len()
    };
    let baseline = redeliver(0);
    assert_eq!(redeliver(1), baseline, "one re-delivery must be absorbed by the guard");
    let twice = redeliver(2);
    assert!(
        twice > baseline,
        "a second re-delivery is real input (guard must be one-shot): {twice} vs {baseline}"
    );
}

/// Restore validates the configuration fingerprint: any drift in workers,
/// heartbeat interval, slack, or the registered queries is a loud error
/// naming the mismatch, not silent corruption.
#[test]
fn restore_rejects_configuration_drift() {
    let parts = compile(PARTITIONABLE, 4);
    let partitioning = Partitioning::Auto("name".into());
    let mut runtime =
        builder(&parts, &partitioning, 2, None, LatenessPolicy::Drop).build().unwrap();
    runtime
        .ingest_columns(&batch_of(&[stock(1, 0, "IBM", 1.0, 1), stock(2, 1, "IBM", 2.0, 1)]))
        .unwrap();
    let mut file = Vec::new();
    runtime.checkpoint(&mut file).unwrap();
    runtime.shutdown().unwrap();

    // Configuration disagreements are CheckpointDrift — the file is fine,
    // the restoring configuration is wrong — and name both sides; corrupt
    // bytes are RuntimeError::Checkpoint (see
    // restore_distinguishes_drift_from_corruption in multi_query.rs).
    let expect_mismatch = |b: RuntimeBuilder, what: &str| match b.restore(&mut file.as_slice()) {
        Err(RuntimeError::CheckpointDrift(msg)) => {
            assert!(msg.contains("checkpoint has"), "{what}: unexpected message {msg:?}")
        }
        other => panic!("{what}: expected CheckpointDrift error, got {other:?}"),
    };
    // Different worker count (key → shard mapping changes).
    expect_mismatch(builder(&parts, &partitioning, 3, None, LatenessPolicy::Drop), "workers");
    // Different heartbeat interval (the heartbeat phase is checkpointed).
    let mut slower = Runtime::builder().workers(2).channel_capacity(2).heartbeat_interval(3);
    slower.register(parts.clone(), partitioning.clone());
    expect_mismatch(slower, "heartbeat interval");
    // A reorder stage the checkpoint does not have.
    expect_mismatch(builder(&parts, &partitioning, 2, Some(4), LatenessPolicy::Drop), "slack");
    // A different query (window differs).
    let other = compile("PATTERN A; B; C WHERE A.name = B.name AND B.name = C.name WITHIN 9", 4);
    expect_mismatch(builder(&other, &partitioning, 2, None, LatenessPolicy::Drop), "query");
    // The matching configuration still restores fine afterwards.
    builder(&parts, &partitioning, 2, None, LatenessPolicy::Drop)
        .restore(&mut file.as_slice())
        .unwrap()
        .shutdown()
        .unwrap();
}

/// Garbage in produces errors, not panics or silent acceptance: wrong
/// magic, unknown version, truncation at every prefix length, and trailing
/// junk are all rejected.
#[test]
fn restore_rejects_garbage_and_truncation() {
    let parts = compile(PARTITIONABLE, 4);
    let partitioning = Partitioning::Auto("name".into());
    let mut runtime =
        builder(&parts, &partitioning, 2, None, LatenessPolicy::Drop).build().unwrap();
    runtime
        .ingest_columns(&batch_of(&[stock(1, 0, "IBM", 1.0, 1), stock(2, 1, "Sun", 2.0, 1)]))
        .unwrap();
    let mut file = Vec::new();
    runtime.checkpoint(&mut file).unwrap();
    runtime.shutdown().unwrap();

    let try_restore = |bytes: &[u8]| -> Result<Runtime, RuntimeError> {
        builder(&parts, &partitioning, 2, None, LatenessPolicy::Drop).restore(&mut &bytes[..])
    };

    // Wrong magic.
    let mut bad = file.clone();
    bad[0] ^= 0xFF;
    assert!(try_restore(&bad).is_err(), "corrupt magic accepted");
    // Unknown version.
    let mut bad = file.clone();
    bad[8] = 0xFE;
    assert!(try_restore(&bad).is_err(), "unknown version accepted");
    // Truncation at every length (capped for speed on big payloads).
    for cut in (0..file.len().min(64)).chain([file.len() - 1]) {
        assert!(try_restore(&file[..cut]).is_err(), "truncation at {cut} accepted");
    }
    // Trailing junk after a valid payload.
    let mut bad = file.clone();
    bad.extend_from_slice(&[0, 1, 2, 3]);
    assert!(try_restore(&bad).is_err(), "trailing bytes accepted");
    // Flipping a byte in the middle of the payload must error (never
    // panic); accept any Err variant.
    let mut bad = file.clone();
    let mid = bad.len() / 2;
    bad[mid] = bad[mid].wrapping_add(1);
    let _ = try_restore(&bad); // must not panic; result may be Ok only if the
                               // flip landed in padding-free but semantically
                               // inert data — still drain it cleanly.
}

/// Dead-letter queues cross the checkpoint boundary: stragglers parked
/// before the checkpoint surface from [`Runtime::take_late_events`] on the
/// restored runtime — and stragglers never drained surface in the shutdown
/// report (`take_late_events` "after shutdown").
///
/// [`Runtime::take_late_events`]: zstream::runtime::Runtime::take_late_events
#[test]
fn dead_letters_survive_checkpoint_and_shutdown_surfaces_undrained() {
    let parts = compile("PATTERN A; B WHERE A.name = B.name WITHIN 12 RETURN A, B", 4);
    let partitioning = Partitioning::Auto("name".into());
    let mut runtime =
        builder(&parts, &partitioning, 2, Some(1), LatenessPolicy::DeadLetter).build().unwrap();
    // ts 10 advances the high water; 4 and 2 are beyond slack 1.
    runtime
        .ingest_columns(&batch_of(&[
            stock(10, 0, "IBM", 1.0, 1),
            stock(4, 1, "IBM", 2.0, 1),
            stock(2, 2, "IBM", 3.0, 1),
        ]))
        .unwrap();
    assert_eq!(runtime.late_events(), 2);
    let mut file = Vec::new();
    runtime.checkpoint(&mut file).unwrap();
    drop(runtime); // crash before draining

    let mut restored = builder(&parts, &partitioning, 2, Some(1), LatenessPolicy::DeadLetter)
        .restore(&mut file.as_slice())
        .unwrap();
    // Before shutdown: the parked stragglers are still there, in arrival
    // order, and draining is destructive.
    assert_eq!(restored.late_events(), 2, "late count must cross the boundary");
    let late: Vec<Ts> = restored.take_late_events().iter().map(EventRef::ts).collect();
    assert_eq!(late, vec![4, 2], "dead letters must cross the boundary in arrival order");
    assert!(restored.take_late_events().is_empty(), "draining is destructive");
    // New stragglers, never drained: shutdown surfaces them in the report.
    restored.ingest_columns(&batch_of(&[stock(3, 3, "IBM", 4.0, 1)])).unwrap();
    let report = restored.shutdown().unwrap();
    let undrained: Vec<Ts> = report.dead_letters.iter().map(EventRef::ts).collect();
    assert_eq!(undrained, vec![3], "undrained dead letters surface in the report");
    assert_eq!(report.late_events, 3, "restored counter plus the new straggler");
}

/// Without a reorder stage there are no late events to take — before or
/// after ingest — and the report's dead-letter queue stays empty.
#[test]
fn take_late_events_is_empty_without_slack() {
    let parts = compile("PATTERN A; B WHERE A.name = B.name WITHIN 12", 4);
    let partitioning = Partitioning::Auto("name".into());
    let mut runtime =
        builder(&parts, &partitioning, 2, None, LatenessPolicy::Drop).build().unwrap();
    assert!(runtime.take_late_events().is_empty(), "empty before any ingest");
    runtime
        .ingest_columns(&batch_of(&[stock(1, 0, "IBM", 1.0, 1), stock(2, 1, "IBM", 2.0, 1)]))
        .unwrap();
    assert!(runtime.take_late_events().is_empty(), "ordered ingest parks nothing");
    assert_eq!(runtime.late_events(), 0);
    let report = runtime.shutdown().unwrap();
    assert!(report.dead_letters.is_empty());
    assert_eq!(report.late_events, 0);
}

/// A worker that died before the checkpoint stays departed after restore:
/// the pool shape survives, later traffic routes around the dead shard,
/// and shutdown completes normally.
#[test]
fn departed_worker_stays_departed_across_restore() {
    let workers = 4;
    let parts = compile(PARTITIONABLE, 8);
    let partitioning = Partitioning::Field("name".into());
    let mut builder0 =
        Runtime::builder().workers(workers).channel_capacity(2).heartbeat_interval(1);
    builder0.register(parts.clone(), partitioning.clone());
    let mut runtime = builder0.build().unwrap();
    runtime.inject_worker_failure(1).unwrap();
    let t0 = std::time::Instant::now();
    while runtime.live_workers() != workers - 1 {
        runtime.poll().unwrap();
        assert!(t0.elapsed() < std::time::Duration::from_secs(10), "departure never observed");
        std::thread::yield_now();
    }
    runtime
        .ingest_columns(&batch_of(&[stock(1, 0, "IBM", 1.0, 1), stock(2, 1, "Sun", 2.0, 1)]))
        .unwrap();
    let mut file = Vec::new();
    runtime.checkpoint(&mut file).unwrap();
    drop(runtime);

    let mut builder1 =
        Runtime::builder().workers(workers).channel_capacity(2).heartbeat_interval(1);
    builder1.register(parts.clone(), partitioning.clone());
    let mut restored = builder1.restore(&mut file.as_slice()).unwrap();
    assert_eq!(restored.live_workers(), workers - 1, "departed shard must stay departed");
    restored
        .ingest_columns(&batch_of(&[stock(3, 2, "IBM", 3.0, 1), stock(4, 3, "Sun", 4.0, 1)]))
        .unwrap();
    let report = restored.shutdown().unwrap();
    assert_eq!(report.workers, workers);
}

/// `CheckpointId` is the monotone sequence number, rendered as `ckpt-N`.
#[test]
fn checkpoint_ids_are_monotone_and_display() {
    let parts = compile("PATTERN A; B WHERE A.name = B.name WITHIN 8", 4);
    let partitioning = Partitioning::Auto("name".into());
    let mut runtime =
        builder(&parts, &partitioning, 1, None, LatenessPolicy::Drop).build().unwrap();
    let mut sink = Vec::new();
    let a = runtime.checkpoint(&mut sink).unwrap();
    let b = runtime.checkpoint(&mut sink).unwrap();
    assert!(b.sequence() > a.sequence());
    assert_eq!(format!("{a}"), format!("ckpt-{}", a.sequence()));
    runtime.shutdown().unwrap();
}
