//! Multi-query service layer: N overlapping queries share one runtime —
//! one shard pool, one router, one shared predicate index per shard — and
//! each query's match stream must be **byte-identical** to the same query
//! running alone in its own runtime over exactly the chunks it was live
//! and unpaused for. The lifecycle (`create` / `pause` / `resume` /
//! `drop_query`) must compose with sharding, worker failure, and
//! checkpoint/restore, and dropping a query must leave every other slot's
//! id, route, matches, and metrics untouched (the registry-scaling bug
//! class: ids are slots, never recycled).

mod common;

use common::{compile, rebatch, stream_strategy};
use proptest::prelude::*;

use std::collections::BTreeMap;

use zstream::core::{
    can_partition_by, CompiledParts, Engine, EngineBuilder, EngineConfig, EngineMetrics, PlanConfig,
};
use zstream::events::{EventBatch, EventRef, Record, Schema, Snapshot, SnapshotWriter, Ts};
use zstream::lang::SchemaMap;
use zstream::runtime::{
    Partitioning, QueryId, Route, Runtime, RuntimeError, RuntimeMatch, RuntimeReport,
};
use zstream::workload::{WeblogConfig, WeblogGenerator};

const NAMES: &[&str] = &["IBM", "Sun", "Oracle", "HP"];

/// The overlapping query pool: q0/q1 share the `A.price > 2` intake
/// conjunct (one shared-index slot), q2 shares the `name`-equality shape,
/// and q3 has no connecting equality so `Auto` falls back to a single home
/// shard — the pool exercises hash and single routes side by side.
const POOL: &[&str] = &[
    "PATTERN A; B WHERE A.name = B.name AND A.price > 2 WITHIN 8",
    "PATTERN A; B WHERE A.name = B.name AND A.price > 2 AND B.volume > 1 WITHIN 8",
    "PATTERN A; B; C WHERE A.name = B.name AND B.name = C.name WITHIN 12",
    "PATTERN A; B WHERE A.price > 2 AND B.price > 3 WITHIN 9",
];

fn pool_parts() -> Vec<(CompiledParts, Partitioning)> {
    POOL.iter().map(|src| (compile(src, 8), Partitioning::Auto("name".into()))).collect()
}

/// Sorted formatted lines of one query running **alone** in its own
/// runtime over exactly `chunks`, same knobs as the shared runtime.
fn solo_lines(
    parts: &CompiledParts,
    partitioning: &Partitioning,
    workers: usize,
    chunks: &[EventBatch],
) -> Vec<String> {
    let template = parts.engine().unwrap();
    let mut builder = Runtime::builder().workers(workers).channel_capacity(2);
    builder.register(parts.clone(), partitioning.clone());
    let mut runtime = builder.build().unwrap();
    let mut matches: Vec<RuntimeMatch> = Vec::new();
    for chunk in chunks {
        matches.extend(runtime.ingest_columns(chunk).unwrap());
    }
    let report = runtime.shutdown().unwrap();
    matches.extend(report.matches);
    let mut lines: Vec<String> = matches.iter().map(|m| template.format_match(&m.record)).collect();
    lines.sort();
    lines
}

/// Sorts per-slot lines and returns them. `templates` are caller-owned
/// engines (the runtime's own templates die with a drop).
fn lines_by_slot(matches: &[RuntimeMatch], templates: &[Engine], slots: usize) -> Vec<Vec<String>> {
    let mut by_slot = vec![Vec::new(); slots];
    for m in matches {
        by_slot[m.query.index()].push(templates[m.query.index()].format_match(&m.record));
    }
    for lines in &mut by_slot {
        lines.sort();
    }
    by_slot
}

/// Multiset containment: every line of `sub` (with multiplicity) appears
/// in `sup`. Both inputs sorted.
fn is_multisubset(sub: &[String], sup: &[String]) -> bool {
    let mut i = 0;
    for line in sub {
        while i < sup.len() && sup[i] < *line {
            i += 1;
        }
        if i >= sup.len() || sup[i] != *line {
            return false;
        }
        i += 1;
    }
    true
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12 })]

    /// The tentpole differential: the overlapping pool through one shared
    /// runtime (shared predicate index on), with a pause/resume window and
    /// a drop at generated chunk boundaries, against one independent
    /// runtime per query over exactly the chunks that query was delivered.
    /// Queries that survive must be byte-identical; the dropped query's
    /// delivered matches must be a multisubset of its oracle (which of its
    /// already-evaluated matches surfaced before the drop purged the rest
    /// is reply-timing dependent).
    #[test]
    fn shared_runtime_is_byte_identical_to_independent_runtimes(
        events in stream_strategy(90, NAMES),
        workers in 1usize..=8,
        chunk in 4usize..10,
        pause_q in 0usize..4,
        pause_at in 0usize..6,
        resume_delta in 1usize..4,
        drop_q in 0usize..4,
        drop_at in 0usize..7,
    ) {
        let pool = pool_parts();
        let templates: Vec<Engine> =
            pool.iter().map(|(p, _)| p.engine().unwrap()).collect();
        let chunks = rebatch(&events, &[chunk]);
        let n = chunks.len();
        let pause_at = pause_at % (n + 1);
        let resume_at = (pause_at + resume_delta).min(n);
        let drop_at = drop_at % (n + 1);

        let mut builder =
            Runtime::builder().workers(workers).channel_capacity(2);
        let ids: Vec<QueryId> =
            pool.iter().map(|(p, r)| builder.register(p.clone(), r.clone())).collect();
        let mut runtime = builder.build().unwrap();

        let mut live = vec![true; pool.len()];
        let mut paused = vec![false; pool.len()];
        let mut delivered: Vec<Vec<EventBatch>> = vec![Vec::new(); pool.len()];
        let mut matches: Vec<RuntimeMatch> = Vec::new();

        for (b, batch) in chunks.iter().enumerate() {
            // Lifecycle transitions happen at chunk boundaries, resume
            // before pause so a zero-length window cannot arise.
            if b == resume_at && live[pause_q] {
                runtime.resume(ids[pause_q]).unwrap();
                paused[pause_q] = false;
            }
            if b == pause_at && live[pause_q] {
                runtime.pause(ids[pause_q]).unwrap();
                paused[pause_q] = true;
            }
            if b == drop_at && live[drop_q] {
                runtime.drop_query(ids[drop_q]).unwrap();
                live[drop_q] = false;
                prop_assert!(!runtime.is_live(ids[drop_q]));
            }
            for q in 0..pool.len() {
                if live[q] && !paused[q] {
                    delivered[q].push(batch.clone());
                }
            }
            matches.extend(runtime.ingest_columns(batch).unwrap());
        }
        if drop_at == n && live[drop_q] {
            runtime.drop_query(ids[drop_q]).unwrap();
            live[drop_q] = false;
        }
        prop_assert_eq!(runtime.num_queries(), live.iter().filter(|l| **l).count());
        prop_assert_eq!(runtime.num_slots(), pool.len());
        let report = runtime.shutdown().unwrap();
        matches.extend(report.matches.iter().cloned());

        let by_slot = lines_by_slot(&matches, &templates, pool.len());
        for (q, (parts, partitioning)) in pool.iter().enumerate() {
            let oracle = solo_lines(parts, partitioning, workers, &delivered[q]);
            if live[q] {
                prop_assert_eq!(
                    &by_slot[q],
                    &oracle,
                    "query {} diverged from its independent runtime",
                    q
                );
            } else {
                prop_assert!(
                    is_multisubset(&by_slot[q], &oracle),
                    "dropped query {} surfaced a match its oracle never produced",
                    q
                );
            }
        }
    }
}

/// Satellite 1 regression (the raw-index bug class): dropping q0 must not
/// shift or recycle ids — q1 keeps its id, route, match stream, and
/// metrics slot, and the report vectors stay slot-ordered with the
/// tombstone in place.
#[test]
fn drop_q0_leaves_q1_matches_metrics_and_route_untouched() {
    let workers = 2;
    let q0_parts = compile(POOL[3], 8);
    let q1_parts = compile(POOL[2], 8);
    let events: Vec<EventRef> = {
        let strat_events: Vec<EventRef> = (0..160)
            .map(|i| {
                zstream::events::stock(
                    i as u64 / 2 + 1,
                    i as i64,
                    NAMES[i % NAMES.len()],
                    (i % 7) as f64,
                    1 + (i % 3) as i64,
                )
            })
            .collect();
        strat_events
    };
    let chunks = rebatch(&events, &[16]);
    let (first, second) = chunks.split_at(chunks.len() / 2);

    let mut builder = Runtime::builder().workers(workers).channel_capacity(2);
    // Both fall back to single home shards: q0 → shard 0, q1 → shard 1.
    let q0 = builder.register(q0_parts.clone(), Partitioning::Broadcast);
    let q1 = builder.register(q1_parts.clone(), Partitioning::Broadcast);
    let mut runtime = builder.build().unwrap();
    assert_eq!(runtime.route(q0), &Route::Single(0));
    assert_eq!(runtime.route(q1), &Route::Single(1));
    let route_before = runtime.route(q1).clone();
    let template = q1_parts.engine().unwrap();

    let mut q1_lines: Vec<String> = Vec::new();
    let keep = |ms: Vec<RuntimeMatch>, q1_lines: &mut Vec<String>| {
        for m in ms {
            if m.query == q1 {
                q1_lines.push(template.format_match(&m.record));
            }
        }
    };
    for batch in first {
        keep(runtime.ingest_columns(batch).unwrap(), &mut q1_lines);
    }
    runtime.drop_query(q0).unwrap();
    // The id is dead, not recycled: lifecycle calls on it are loud errors,
    // and q1's identity is untouched.
    assert!(!runtime.is_live(q0));
    assert!(runtime.is_live(q1));
    assert!(matches!(runtime.pause(q0), Err(RuntimeError::InvalidConfig(_))));
    assert_eq!(runtime.route(q1), &route_before);
    assert_eq!(runtime.num_queries(), 1);
    assert_eq!(runtime.num_slots(), 2);
    for batch in second {
        keep(runtime.ingest_columns(batch).unwrap(), &mut q1_lines);
    }
    let report: RuntimeReport = runtime.shutdown().unwrap();
    keep(report.matches.clone(), &mut q1_lines);
    q1_lines.sort();

    // q1's stream is byte-identical to running alone over everything.
    let oracle = solo_lines(&q1_parts, &Partitioning::Broadcast, workers, &chunks);
    assert!(!oracle.is_empty(), "workload produced no q1 matches — weak test");
    assert_eq!(q1_lines, oracle, "q1's match stream changed when q0 was dropped");

    // Report vectors are slot-ordered with the tombstone still in place,
    // and q1's metrics live in q1's slot.
    assert_eq!(report.query_metrics.len(), 2);
    assert_eq!(report.dropped.len(), 2);
    assert_eq!(report.query_metrics[q1.index()].matches_out, oracle.len() as u64);
    assert_eq!(report.dropped[q1.index()], 0);
}

/// Satellite 2 regression: `create` after a worker failure must route new
/// single-home queries around retired shards — a query homed on a dead
/// shard would silently drop every event.
#[test]
fn create_after_worker_failure_routes_around_retired_shards() {
    let workers = 3;
    let dead = 1;
    let hash_parts = compile(POOL[2], 8);
    let solo_parts = compile(POOL[3], 8);

    let mut builder = Runtime::builder().workers(workers).channel_capacity(2).heartbeat_interval(1);
    builder.register(hash_parts, Partitioning::Auto("name".into()));
    let mut runtime = builder.build().unwrap();
    runtime.inject_worker_failure(dead).unwrap();
    let t0 = std::time::Instant::now();
    while runtime.live_workers() != workers - 1 {
        let _ = runtime.poll().unwrap();
        assert!(t0.elapsed() < std::time::Duration::from_secs(10), "departure never observed");
        std::thread::yield_now();
    }

    // The home rotation (continuing from build time) skips the dead shard.
    let created: Vec<QueryId> = (0..3)
        .map(|_| runtime.create(solo_parts.clone(), Partitioning::Broadcast).unwrap())
        .collect();
    let homes: Vec<usize> = created
        .iter()
        .map(|q| match runtime.route(*q) {
            Route::Single(h) => *h,
            other => panic!("broadcast query got route {other:?}"),
        })
        .collect();
    assert!(homes.iter().all(|h| *h != dead), "a new query was homed on the dead shard: {homes:?}");
    assert_eq!(homes, vec![0, 2, 0], "rotation must continue across live shards only");

    // The created queries actually run: events reach their live homes.
    let events: Vec<EventRef> = (0..120)
        .map(|i| zstream::events::stock(i as u64 + 1, i as i64, "IBM", (i % 7) as f64, 1))
        .collect();
    let chunks = rebatch(&events, &[16]);
    let template = solo_parts.engine().unwrap();
    let mut matches: Vec<RuntimeMatch> = Vec::new();
    for batch in &chunks {
        matches.extend(runtime.ingest_columns(batch).unwrap());
    }
    let report = runtime.shutdown().unwrap();
    matches.extend(report.matches);
    for q in &created {
        let mut lines: Vec<String> = matches
            .iter()
            .filter(|m| m.query == *q)
            .map(|m| template.format_match(&m.record))
            .collect();
        lines.sort();
        let oracle = solo_lines(&solo_parts, &Partitioning::Broadcast, workers, &chunks);
        assert!(!oracle.is_empty(), "workload produced no matches — weak test");
        assert_eq!(lines, oracle, "created query {q:?} diverged");
        assert_eq!(report.dropped[q.index()], 0, "no events may silently drop for {q:?}");
    }
}

/// A query created mid-stream sees exactly the events ingested after the
/// `create` call (channel-FIFO: the instantiation marker precedes any
/// later traffic).
#[test]
fn create_mid_stream_sees_only_later_events() {
    let parts = compile(POOL[0], 8);
    let events: Vec<EventRef> = (0..120)
        .map(|i| {
            zstream::events::stock(
                i as u64 + 1,
                i as i64,
                NAMES[i % NAMES.len()],
                (i % 7) as f64,
                1,
            )
        })
        .collect();
    let chunks = rebatch(&events, &[16]);
    let (before, after) = chunks.split_at(chunks.len() / 2);

    let mut builder = Runtime::builder().workers(2).channel_capacity(2);
    builder.register(parts.clone(), Partitioning::Auto("name".into()));
    let mut runtime = builder.build().unwrap();
    let template = parts.engine().unwrap();
    for batch in before {
        let _ = runtime.ingest_columns(batch).unwrap();
    }
    let q = runtime.create(parts.clone(), Partitioning::Auto("name".into())).unwrap();
    let mut lines: Vec<String> = Vec::new();
    let mut matches: Vec<RuntimeMatch> = Vec::new();
    for batch in after {
        matches.extend(runtime.ingest_columns(batch).unwrap());
    }
    let report = runtime.shutdown().unwrap();
    matches.extend(report.matches);
    for m in matches.iter().filter(|m| m.query == q) {
        lines.push(template.format_match(&m.record));
    }
    lines.sort();
    let oracle = solo_lines(&parts, &Partitioning::Auto("name".into()), 2, after);
    assert!(!oracle.is_empty(), "workload produced no post-create matches — weak test");
    assert_eq!(lines, oracle, "created query must see exactly the post-create stream");
}

/// Satellite 3: lifecycle state survives checkpoint/restore — the
/// checkpoint snapshots the **live registry** (tombstones, pause flags,
/// resolved routes), not the build-time query set.
#[test]
fn lifecycle_survives_checkpoint_and_restore() {
    let q0_parts = compile(POOL[0], 8);
    let q1_parts = compile(POOL[2], 8);
    let q2_parts = compile(POOL[1], 8);
    let events: Vec<EventRef> = (0..160)
        .map(|i| {
            zstream::events::stock(
                i as u64 / 2 + 1,
                i as i64,
                NAMES[i % NAMES.len()],
                (i % 7) as f64,
                1 + (i % 3) as i64,
            )
        })
        .collect();
    let chunks = rebatch(&events, &[16]);
    let (pre, post) = chunks.split_at(chunks.len() / 2);

    let mut builder = Runtime::builder().workers(2).channel_capacity(2);
    let q0 = builder.register(q0_parts.clone(), Partitioning::Auto("name".into()));
    let q1 = builder.register(q1_parts.clone(), Partitioning::Auto("name".into()));
    let mut runtime = builder.build().unwrap();
    let q2 = runtime.create(q2_parts.clone(), Partitioning::Auto("name".into())).unwrap();
    let templates =
        [q0_parts.engine().unwrap(), q1_parts.engine().unwrap(), q2_parts.engine().unwrap()];

    let mut durable: Vec<Vec<String>> = vec![Vec::new(); 3];
    let keep = |ms: Vec<RuntimeMatch>, durable: &mut Vec<Vec<String>>| {
        for m in ms {
            durable[m.query.index()].push(templates[m.query.index()].format_match(&m.record));
        }
    };
    for batch in pre {
        keep(runtime.ingest_columns(batch).unwrap(), &mut durable);
    }
    runtime.pause(q1).unwrap();
    runtime.drop_query(q0).unwrap();
    let mut file = Vec::new();
    runtime.checkpoint(&mut file).unwrap();
    drop(runtime); // crash: no shutdown, post-checkpoint state discarded

    // Restore registers the **live** queries positionally (slot 1 then
    // slot 2); the tombstone in slot 0 is restored from the file.
    let mut rb = Runtime::builder().workers(2).channel_capacity(2);
    rb.register(q1_parts.clone(), Partitioning::Auto("name".into()));
    rb.register(q2_parts.clone(), Partitioning::Auto("name".into()));
    let mut restored = rb.restore(&mut file.as_slice()).unwrap();
    assert_eq!(restored.num_slots(), 3, "the tombstone slot must survive restore");
    assert_eq!(restored.num_queries(), 2);
    assert!(!restored.is_live(q0));
    assert!(restored.is_live(q1) && restored.is_paused(q1), "pause state must survive restore");
    assert!(restored.is_live(q2) && !restored.is_paused(q2));
    assert!(matches!(restored.pause(q0), Err(RuntimeError::InvalidConfig(_))));

    restored.resume(q1).unwrap();
    for batch in post {
        keep(restored.ingest_columns(batch).unwrap(), &mut durable);
    }
    let report = restored.shutdown().unwrap();
    keep(report.matches.clone(), &mut durable);
    for lines in &mut durable {
        lines.sort();
    }

    // q2 was live and unpaused throughout: byte-identical to a solo run
    // over everything. q1 missed nothing either (the pause window held no
    // chunks). q0's durable matches are a prefix-run subset.
    let all: Vec<EventBatch> = chunks.clone();
    let q2_oracle = solo_lines(&q2_parts, &Partitioning::Auto("name".into()), 2, &all);
    assert!(!q2_oracle.is_empty(), "no q2 matches — weak test");
    assert_eq!(durable[q2.index()], q2_oracle, "q2 diverged across checkpoint/restore");
    let q1_oracle = solo_lines(&q1_parts, &Partitioning::Auto("name".into()), 2, &all);
    assert_eq!(durable[q1.index()], q1_oracle, "q1 diverged across pause + restore");
    let q0_oracle = solo_lines(&q0_parts, &Partitioning::Auto("name".into()), 2, pre);
    assert!(is_multisubset(&durable[q0.index()], &q0_oracle));

    // Ids keep advancing after restore: the next create gets slot 3.
    let mut rb2 = Runtime::builder().workers(2).channel_capacity(2);
    rb2.register(q1_parts.clone(), Partitioning::Auto("name".into()));
    rb2.register(q2_parts, Partitioning::Auto("name".into()));
    let mut restored2 = rb2.restore(&mut file.as_slice()).unwrap();
    let q3 = restored2.create(q1_parts, Partitioning::Broadcast).unwrap();
    assert_eq!(q3.index(), 3);
    restored2.shutdown().unwrap();
}

/// Satellite 3, the two failure modes: **drift** (decodable file, the
/// restoring configuration disagrees — fix the configuration) versus
/// **corruption** (undecodable bytes — re-fetch the file). They are
/// distinct error variants carrying distinct guidance.
#[test]
fn restore_distinguishes_drift_from_corruption() {
    let q0_parts = compile(POOL[0], 8);
    let q1_parts = compile(POOL[2], 8);
    let mut builder = Runtime::builder().workers(2).channel_capacity(2);
    let q0 = builder.register(q0_parts.clone(), Partitioning::Auto("name".into()));
    builder.register(q1_parts.clone(), Partitioning::Auto("name".into()));
    let mut runtime = builder.build().unwrap();
    let events: Vec<EventRef> = (0..40)
        .map(|i| zstream::events::stock(i as u64 + 1, i as i64, "IBM", (i % 7) as f64, 1))
        .collect();
    for batch in rebatch(&events, &[16]) {
        let _ = runtime.ingest_columns(&batch).unwrap();
    }
    // Two checkpoints of one runtime: before the drop (both queries live)
    // and after it (slot 0 is a tombstone).
    let mut file_both = Vec::new();
    runtime.checkpoint(&mut file_both).unwrap();
    runtime.drop_query(q0).unwrap();
    let mut file = Vec::new();
    runtime.checkpoint(&mut file).unwrap();
    runtime.shutdown().unwrap();

    // Registering fewer queries than the checkpoint holds live is drift
    // against the pre-drop file (the post-drop file holds only one).
    {
        let mut rb = Runtime::builder().workers(2).channel_capacity(2);
        rb.register(q1_parts.clone(), Partitioning::Auto("name".into()));
        match rb.restore(&mut file_both.as_slice()) {
            Err(RuntimeError::CheckpointDrift(_)) => {}
            other => panic!("too few queries: expected CheckpointDrift, got {other:?}"),
        }
    }

    // Drift: registering a different live set than the checkpoint holds.
    let drift_cases: Vec<(&str, Vec<(CompiledParts, Partitioning)>)> = vec![
        (
            "too many queries",
            vec![
                (q1_parts.clone(), Partitioning::Auto("name".into())),
                (q1_parts.clone(), Partitioning::Auto("name".into())),
            ],
        ),
        ("wrong window", vec![(compile(POOL[0], 8), Partitioning::Auto("name".into()))]),
        ("incompatible partitioning", vec![(q1_parts.clone(), Partitioning::Broadcast)]),
    ];
    for (what, defs) in drift_cases {
        let mut rb = Runtime::builder().workers(2).channel_capacity(2);
        for (p, r) in defs {
            rb.register(p, r);
        }
        match rb.restore(&mut file.as_slice()) {
            Err(RuntimeError::CheckpointDrift(msg)) => {
                assert!(
                    format!("{}", RuntimeError::CheckpointDrift(msg.clone()))
                        .contains("configuration drift"),
                    "{what}: drift display must name itself, got {msg:?}"
                );
            }
            other => panic!("{what}: expected CheckpointDrift, got {other:?}"),
        }
    }

    // Corruption: truncation and garbage are `Checkpoint`, never drift.
    let corrupt_restore = |bytes: &[u8]| {
        let mut rb = Runtime::builder().workers(2).channel_capacity(2);
        rb.register(q1_parts.clone(), Partitioning::Auto("name".into()));
        rb.restore(&mut &bytes[..])
    };
    for cut in [8usize, 13, file.len() / 2] {
        match corrupt_restore(&file[..cut]) {
            Err(RuntimeError::Checkpoint(_)) => {}
            other => panic!("truncation at {cut}: expected Checkpoint, got {other:?}"),
        }
    }
    let mut garbage = file.clone();
    garbage[0] ^= 0xFF;
    assert!(matches!(corrupt_restore(&garbage), Err(RuntimeError::Checkpoint(_))));

    // The matching configuration restores, tombstone intact.
    let mut rb = Runtime::builder().workers(2).channel_capacity(2);
    rb.register(q1_parts.clone(), Partitioning::Auto("name".into()));
    let restored = rb.restore(&mut file.as_slice()).unwrap();
    assert!(!restored.is_live(q0));
    assert_eq!(restored.num_slots(), 2);
    restored.shutdown().unwrap();
}

// --- The shared index against each query's own engine ---

/// The partition field of a query that runs hash-routed, `None` for one
/// that runs on a home shard.
fn keyed<'a>(parts: &CompiledParts, partitioning: &'a Partitioning) -> Option<&'a str> {
    match partitioning {
        Partitioning::Auto(f) | Partitioning::Field(f) if can_partition_by(parts.analyzed(), f) => {
            Some(f)
        }
        _ => None,
    }
}

/// A query's reference run: its own single-threaded engine —
/// `push_columns` per delivered chunk, on the engine's private predicate
/// index and with no skip — flushed unless the query was dropped. Returns
/// the RETURN-formatted matches, stably sorted by end timestamp (the order
/// one shard delivers them in; sorted by line for a hash-routed query,
/// whose equal-timestamp ties the merge orders by shard), and the metrics.
fn reference_run(
    parts: &CompiledParts,
    partitioning: &Partitioning,
    chunks: &[EventBatch],
    flush: bool,
) -> (Vec<String>, EngineMetrics) {
    let template = parts.engine().unwrap();
    let field = keyed(parts, partitioning);
    let (records, metrics) = match field {
        Some(field) => {
            let mut engine = parts.partitioned_engine(field).unwrap();
            let mut out: Vec<Record> = chunks.iter().flat_map(|c| engine.push_columns(c)).collect();
            if flush {
                out.extend(engine.flush());
            }
            (out, engine.metrics())
        }
        None => {
            let mut engine = parts.engine().unwrap();
            let mut out: Vec<Record> = chunks.iter().flat_map(|c| engine.push_columns(c)).collect();
            if flush {
                out.extend(engine.flush());
            }
            (out, engine.metrics())
        }
    };
    let mut lines: Vec<(Ts, String)> =
        records.iter().map(|r| (r.end_ts(), template.format_match(r))).collect();
    match field {
        Some(_) => lines.sort_by(|(_, a), (_, b)| a.cmp(b)),
        None => lines.sort_by_key(|(end, _)| *end),
    }
    (lines.into_iter().map(|(_, line)| line).collect(), metrics)
}

/// Asserts that a shared runtime is unobservable per query: each query's
/// match stream and every `EngineMetrics` field of the report equal its
/// [`reference_run`] over `delivered[q]` (flushed iff `flushed[q]`), and
/// every shard's sequence numbers are `0..n` with each query's strictly
/// increasing in delivery order.
fn assert_matches_reference(
    pool: &[(CompiledParts, Partitioning)],
    delivered: &[Vec<EventBatch>],
    flushed: &[bool],
    matches: &[RuntimeMatch],
    report: &RuntimeReport,
) {
    let mut seqs: BTreeMap<usize, Vec<u64>> = BTreeMap::new();
    let mut last: BTreeMap<(usize, usize), u64> = BTreeMap::new();
    for m in matches {
        seqs.entry(m.shard).or_default().push(m.seq);
        if let Some(prev) = last.insert((m.shard, m.query.index()), m.seq) {
            assert!(prev < m.seq, "shard {} emitted {:?} out of seq order", m.shard, m.query);
        }
    }
    for (shard, mut seqs) in seqs {
        seqs.sort_unstable();
        assert!(seqs.iter().copied().eq(0..seqs.len() as u64), "shard {shard} seqs: {seqs:?}");
    }
    for (q, (parts, partitioning)) in pool.iter().enumerate() {
        let template = parts.engine().unwrap();
        let mut got: Vec<String> = matches
            .iter()
            .filter(|m| m.query.index() == q)
            .map(|m| template.format_match(&m.record))
            .collect();
        if keyed(parts, partitioning).is_some() {
            got.sort();
        }
        let (want, metrics) = reference_run(parts, partitioning, &delivered[q], flushed[q]);
        assert_eq!(got, want, "query {q}: match stream");
        assert_eq!(report.query_metrics[q], metrics, "query {q}: metrics");
    }
}

/// The shared predicate index must not change a single byte: sharing is an
/// evaluation-count optimization, not a semantic one, so every query's
/// match stream and metrics are its own engine's on a private index.
#[test]
fn shared_index_off_is_byte_identical() {
    let pool = pool_parts();
    let events: Vec<EventRef> = (0..200)
        .map(|i| {
            zstream::events::stock(
                i as u64 / 2 + 1,
                i as i64,
                NAMES[i % NAMES.len()],
                (i % 7) as f64,
                1 + (i % 3) as i64,
            )
        })
        .collect();
    let chunks = rebatch(&events, &[32]);

    let mut builder = Runtime::builder().workers(2).channel_capacity(2);
    for (p, r) in &pool {
        builder.register(p.clone(), r.clone());
    }
    let mut runtime = builder.build().unwrap();
    let mut matches: Vec<RuntimeMatch> = Vec::new();
    for batch in &chunks {
        matches.extend(runtime.ingest_columns(batch).unwrap());
    }
    let report = runtime.shutdown().unwrap();
    matches.extend(report.matches.iter().cloned());
    assert!(!matches.is_empty(), "no matches at all — weak test");
    let delivered = vec![chunks; pool.len()];
    assert_matches_reference(&pool, &delivered, &vec![true; pool.len()], &matches, &report);
}

/// The weblog workload through the shared runtime: three overlapping
/// same-IP queries, byte-identical per query to their independent
/// runtimes, with a pause window on one of them.
#[test]
fn weblog_multi_query_differential() {
    let srcs = [
        "PATTERN Publication; Project WHERE Publication.ip = Project.ip \
         WITHIN 10 hours RETURN Publication, Project",
        "PATTERN Publication; Project; Course \
         WHERE Publication.ip = Project.ip AND Project.ip = Course.ip \
         WITHIN 10 hours RETURN Publication, Project, Course",
        "PATTERN Project; Course WHERE Project.ip = Course.ip \
         WITHIN 5 hours RETURN Project, Course",
    ];
    let compile_weblog = |src: &str| -> CompiledParts {
        EngineBuilder::parse(src)
            .unwrap()
            .schemas(SchemaMap::uniform(Schema::weblog()))
            .route_by_field("category")
            .config(EngineConfig { batch_size: 64, plan: PlanConfig::default() })
            .compile()
            .unwrap()
    };
    let pool: Vec<(CompiledParts, Partitioning)> =
        srcs.iter().map(|s| (compile_weblog(s), Partitioning::Auto("ip".into()))).collect();
    let templates: Vec<Engine> = pool.iter().map(|(p, _)| p.engine().unwrap()).collect();
    let (chunks, _) = WeblogGenerator::generate_batches(&WeblogConfig::scaled(12_000, 13), 256);
    let workers = 2;
    let pause_at = chunks.len() / 3;
    let resume_at = 2 * chunks.len() / 3;

    let mut builder = Runtime::builder().workers(workers).channel_capacity(2);
    let ids: Vec<QueryId> =
        pool.iter().map(|(p, r)| builder.register(p.clone(), r.clone())).collect();
    let mut runtime = builder.build().unwrap();
    let mut matches: Vec<RuntimeMatch> = Vec::new();
    let mut delivered: Vec<Vec<EventBatch>> = vec![Vec::new(); pool.len()];
    for (b, batch) in chunks.iter().enumerate() {
        if b == pause_at {
            runtime.pause(ids[2]).unwrap();
        }
        if b == resume_at {
            runtime.resume(ids[2]).unwrap();
        }
        for (q, d) in delivered.iter_mut().enumerate() {
            if q != 2 || b < pause_at || b >= resume_at {
                d.push(batch.clone());
            }
        }
        matches.extend(runtime.ingest_columns(batch).unwrap());
    }
    let report = runtime.shutdown().unwrap();
    matches.extend(report.matches);
    let by_slot = lines_by_slot(&matches, &templates, pool.len());
    for (q, (parts, partitioning)) in pool.iter().enumerate() {
        let oracle = solo_lines(parts, partitioning, workers, &delivered[q]);
        assert!(!oracle.is_empty(), "weblog query {q} produced no matches — weak test");
        assert_eq!(&by_slot[q], &oracle, "weblog query {q} diverged");
    }
}

// --- Idle-query skip: settling a batch without the engine is unobservable ---

/// Overlapping Broadcast queries, most of which never admit a row (prices
/// are 0..6, volumes 1..4), so their home shard settles them without
/// entering the engine. q0/q1 admit and match and share conjuncts; q2/q3
/// carry the same empty bands in a different conjunct order (one class
/// mask); q4 can never admit; q5 has a row-wise (`General`) conjunct beside
/// kernel ones on an admitting class; q6 has one beside a kernel conjunct
/// no row passes (still skippable); q7's B has no kernel conjunct at all
/// (never skippable); q8 is hash-routed.
const SKIP_POOL: &[(&str, bool)] = &[
    ("PATTERN A; B WHERE A.price > 2 AND B.price > 3 WITHIN 9", false),
    ("PATTERN A; B WHERE A.price > 2 AND A.volume > 1 AND B.price > 3 WITHIN 6", false),
    (
        "PATTERN A; B WHERE A.price > 4 AND A.price < 2 AND B.volume > 2 AND B.volume < 1 \
         WITHIN 8",
        false,
    ),
    (
        "PATTERN A; B WHERE A.price < 2 AND A.price > 4 AND B.volume < 1 AND B.volume > 2 \
         WITHIN 8",
        false,
    ),
    ("PATTERN A; B WHERE A.price > 7 AND B.price > 7 WITHIN 8", false),
    ("PATTERN A; B WHERE A.price * 2.0 > 5.0 AND A.volume > 1 AND B.price > 3 WITHIN 7", false),
    ("PATTERN A; B WHERE A.price * 2.0 > 1.0 AND A.price > 7 AND B.price > 7 WITHIN 7", false),
    ("PATTERN A; B WHERE A.price > 7 WITHIN 5", false),
    ("PATTERN A; B WHERE A.name = B.name AND A.price > 2 WITHIN 8", true),
];
/// Never admits, so its (timing-dependent) pre-drop matches are none.
const SKIP_DROPPED: usize = 4;
const SKIP_PAUSED: usize = 3;
/// The flat queries that never admit a row: every batch they are delivered
/// is skipped.
const NEVER_ADMIT: [usize; 4] = [2, 3, 4, 6];

fn skip_pool() -> Vec<(CompiledParts, Partitioning)> {
    SKIP_POOL
        .iter()
        .map(|(src, hashed)| {
            let partitioning =
                if *hashed { Partitioning::Field("name".into()) } else { Partitioning::Broadcast };
            (compile(src, 8), partitioning)
        })
        .collect()
}

fn skip_builder(workers: usize) -> (zstream::runtime::RuntimeBuilder, Vec<QueryId>) {
    let mut builder = Runtime::builder().workers(workers).channel_capacity(2);
    let ids = skip_pool().into_iter().map(|(parts, p)| builder.register(parts, p)).collect();
    (builder, ids)
}

/// One delivered match: slot, shard, `seq`, RETURN-formatted record.
type Delivered = (usize, usize, u64, String);

fn delivered(matches: &[RuntimeMatch], templates: &[Engine]) -> Vec<Delivered> {
    matches
        .iter()
        .map(|m| {
            let q = m.query.index();
            (q, m.shard, m.seq, templates[q].format_match(&m.record))
        })
        .collect()
}

fn engines_skipped(runtime: &Runtime) -> u64 {
    runtime.observe().counter_total("zstream_intake_engines_skipped_total")
}

/// Drives the skip pool over `chunks`, pausing one idle query for the
/// chunks in `pause.0..pause.1` and dropping another before chunk
/// `drop_at`; returns everything observable — the match stream in emission
/// order, the final report, how many engine-batches the shards skipped —
/// plus, per query, the chunks it was delivered.
fn run_skip_pool(
    workers: usize,
    chunks: &[EventBatch],
    pause: (usize, usize),
    drop_at: usize,
) -> (Vec<RuntimeMatch>, RuntimeReport, u64, Vec<Vec<EventBatch>>) {
    let (builder, ids) = skip_builder(workers);
    let mut runtime = builder.build().unwrap();
    let mut matches: Vec<RuntimeMatch> = Vec::new();
    let mut fed = vec![Vec::new(); ids.len()];
    for (b, batch) in chunks.iter().enumerate() {
        if b == pause.1 && b != pause.0 {
            runtime.resume(ids[SKIP_PAUSED]).unwrap();
        }
        if b == pause.0 && b != pause.1 {
            runtime.pause(ids[SKIP_PAUSED]).unwrap();
        }
        if b == drop_at {
            runtime.drop_query(ids[SKIP_DROPPED]).unwrap();
        }
        for (q, fed) in fed.iter_mut().enumerate() {
            let paused = q == SKIP_PAUSED && (pause.0..pause.1).contains(&b);
            let dropped = q == SKIP_DROPPED && b >= drop_at;
            if !paused && !dropped {
                fed.push(batch.clone());
            }
        }
        matches.extend(runtime.ingest_columns(batch).unwrap());
    }
    // Quiesce, so the counter covers every dispatched batch.
    runtime.checkpoint(&mut Vec::new()).unwrap();
    let skipped = engines_skipped(&runtime);
    let report = runtime.shutdown().unwrap();
    matches.extend(report.matches.iter().cloned());
    (matches, report, skipped, fed)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12 })]

    /// Skipping is an evaluation-count optimization: per query, the match
    /// stream and every `EngineMetrics` field of the report equal the
    /// query's own engine over the chunks it was delivered (which has no
    /// skip), every shard's `seq`s are intact, and nothing is dropped — at
    /// 1–4 workers, with one idle query paused for a window and another
    /// dropped mid-stream.
    #[test]
    fn skipped_engines_are_unobservable(
        events in stream_strategy(120, NAMES),
        workers in 1usize..=4,
        chunk in 4usize..12,
        pause_at in 0usize..8,
        resume_delta in 0usize..5,
        drop_at in 0usize..12,
    ) {
        let chunks = rebatch(&events, &[chunk]);
        let pause = (pause_at, pause_at + resume_delta);
        let (matches, report, skipped, fed) = run_skip_pool(workers, &chunks, pause, drop_at);
        let flushed: Vec<bool> =
            (0..SKIP_POOL.len()).map(|q| q != SKIP_DROPPED || drop_at >= chunks.len()).collect();
        assert_matches_reference(&skip_pool(), &fed, &flushed, &matches, &report);
        prop_assert!(report.dropped.iter().all(|d| *d == 0));
        // Every batch delivered to a never-admitting flat engine is a skip:
        // at least q2, q6 and (until dropped) q4 on every chunk.
        prop_assert!(skipped >= 2 * chunks.len() as u64, "only {} skips", skipped);
        // A skipped batch was counted: every event arrived, and every
        // chunk (plus the shutdown flush) was an idle round.
        for q in [2usize, 6] {
            prop_assert_eq!(report.query_metrics[q].events_in, events.len() as u64);
            prop_assert_eq!(report.query_metrics[q].idle_rounds, chunks.len() as u64 + 1);
        }
    }
}

/// Checkpoint → crash → restore → replay, with the checkpoint taken in the
/// middle of a run of batches that every flat engine skips: the skipped
/// batches' accounting is in the file — each never-admitting engine's state
/// is there byte for byte as its own engine, never skipped, writes it — and
/// the replayed run is indistinguishable from the uninterrupted one, which
/// is its queries' own engines.
#[test]
fn checkpoint_inside_a_run_of_skipped_batches_recovers_exactly() {
    // Blocks of 32 events alternate between mixed prices and a flat 1.0
    // that passes no `price >` conjunct of the pool: chunks 4..8 and
    // 12..16 (of 8 rows each) admit nothing anywhere.
    let events: Vec<EventRef> = (0..160usize)
        .map(|i| {
            let price = if (i / 32) % 2 == 0 { (i % 6) as f64 } else { 1.0 };
            zstream::events::stock(i as u64 + 1, i as i64, NAMES[i % 4], price, 1 + (i % 3) as i64)
        })
        .collect();
    let chunks = rebatch(&events, &[8]);
    let (ckpt_at, crash_at) = (6, 8);
    let pool = skip_pool();
    let templates: Vec<Engine> = pool.iter().map(|(p, _)| p.engine().unwrap()).collect();

    for workers in [1usize, 3] {
        let (matches, oracle_report, _, fed) =
            run_skip_pool(workers, &chunks, (usize::MAX, usize::MAX), usize::MAX);
        assert_matches_reference(&pool, &fed, &vec![true; pool.len()], &matches, &oracle_report);
        let oracle = delivered(&matches, &templates);
        assert!(oracle.iter().any(|m| m.0 == 0), "q0 never matched — weak test");

        let mut runtime = skip_builder(workers).0.build().unwrap();
        let mut matches = Vec::new();
        for batch in &chunks[..ckpt_at] {
            matches.extend(runtime.ingest_columns(batch).unwrap());
        }
        let mut file = Vec::new();
        runtime.checkpoint(&mut file).unwrap();
        let before = engines_skipped(&runtime);
        for batch in &chunks[ckpt_at..crash_at] {
            let _ = runtime.ingest_columns(batch).unwrap(); // lost with the crash
        }
        runtime.checkpoint(&mut Vec::new()).unwrap();
        // Of the 8 flat queries, a quiet chunk skips all but q5 (its A mask
        // is `volume > 1` alone: the row-wise conjunct is not in it) and q7
        // (its B has no kernel conjunct).
        assert_eq!(engines_skipped(&runtime) - before, 6 * 2, "chunks 6 and 7 are quiet");
        drop(runtime); // crash

        for q in NEVER_ADMIT {
            let mut engine = pool[q].0.engine().unwrap();
            for batch in &chunks[..ckpt_at] {
                assert!(engine.push_columns(batch).is_empty());
            }
            let mut w = SnapshotWriter::new();
            engine.write_snapshot(&mut w);
            let state = w.into_bytes();
            assert!(
                file.windows(state.len()).any(|bytes| bytes == state),
                "the skip left a trace in query {q}'s checkpointed state ({workers} workers)"
            );
        }

        let mut restored = skip_builder(workers).0.restore(&mut file.as_slice()).unwrap();
        for batch in &chunks[ckpt_at..] {
            matches.extend(restored.ingest_columns(batch).unwrap());
        }
        let report = restored.shutdown().unwrap();
        matches.extend(report.matches.iter().cloned());
        assert_eq!(delivered(&matches, &templates), oracle, "{workers} workers");
        assert_eq!(report.query_metrics, oracle_report.query_metrics, "{workers} workers");
        assert_eq!(report.dropped, oracle_report.dropped);
    }
}
