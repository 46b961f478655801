//! Worker-failure and watermark-liveness semantics of the sharded runtime.
//!
//! A shard that dies mid-stream (engine panic, here injected via the chaos
//! hook) must **leave the pool** instead of wedging it: its premature
//! `Done` retires it from the merge frontier, so every other shard's
//! matches still finalize; its metrics are kept; later events routed to it
//! count as dropped; and `shutdown` completes without signalling or waiting
//! for the dead worker. Separately, idle shards must not stall finality:
//! periodic watermark heartbeats stand in for the removed per-chunk
//! broadcast, so matches become final before shutdown even when only one
//! shard sees traffic.

mod common;

use std::time::{Duration, Instant};

use common::{compile, engine_lines, rebatch};

use zstream::events::{shard_of, stock, EventBatch, EventRef, Value};
use zstream::runtime::{Partitioning, Runtime};

const QUERY: &str =
    "PATTERN A; B; C WHERE A.name = B.name AND B.name = C.name WITHIN 12 RETURN A, B, C";

/// Ingests `events` in batches of `chunk` rows, collecting the matches.
fn ingest_chunked(
    runtime: &mut Runtime,
    events: &[EventRef],
    chunk: usize,
) -> Vec<zstream::runtime::RuntimeMatch> {
    let mut matches = Vec::new();
    for batch in rebatch(events, &[chunk]) {
        matches.extend(runtime.ingest_columns(&batch).unwrap());
    }
    matches
}

/// Spin until the runtime observes the shard's premature `Done`, returning
/// any matches that became final while draining.
#[must_use]
fn wait_for_departure(
    runtime: &mut Runtime,
    expected_live: usize,
) -> Vec<zstream::runtime::RuntimeMatch> {
    let mut drained = Vec::new();
    let t0 = Instant::now();
    while runtime.live_workers() != expected_live {
        drained.extend(runtime.poll().unwrap());
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "premature Done was never observed (wedged)"
        );
        std::thread::yield_now();
    }
    drained
}

#[test]
fn failed_worker_leaves_pool_without_wedging_the_watermark() {
    let workers = 4;
    let names = ["IBM", "Sun", "Oracle", "HP", "Dell", "AMD"];
    // Kill the shard owning "IBM" (and whichever other names hash with it).
    let dead = shard_of(&Value::str("IBM").hash_key(), workers);
    let events: Vec<EventRef> = (0..240)
        .map(|i| stock(i as u64 + 1, i as i64, names[i as usize % names.len()], 1.0, 1))
        .collect();

    let p = compile(QUERY);
    let template = p.engine().unwrap();
    let mut builder = Runtime::builder().workers(workers).channel_capacity(2).heartbeat_interval(1);
    let q = builder.register(p.clone(), Partitioning::Field("name".into()));
    let mut runtime = builder.build().unwrap();

    runtime.inject_worker_failure(dead).unwrap();
    // Idempotent once the shard is gone.
    let mut matches = wait_for_departure(&mut runtime, workers - 1);
    runtime.inject_worker_failure(dead).unwrap();

    matches.extend(ingest_chunked(&mut runtime, &events, 16));
    let report = runtime.shutdown().unwrap();
    matches.extend(report.matches);

    // Expected output: exactly the single-engine result over the events the
    // surviving shards own (no cross-key matches exist for this query).
    let surviving: Vec<EventRef> = events
        .iter()
        .filter(|e| shard_of(&e.value_by_name("name").unwrap().hash_key(), workers) != dead)
        .cloned()
        .collect();
    let expected = engine_lines(&p, &rebatch(&surviving, &[8]));
    let mut lines: Vec<String> = matches.iter().map(|m| template.format_match(&m.record)).collect();
    lines.sort();
    assert!(!lines.is_empty(), "surviving shards must still produce matches");
    assert_eq!(lines, expected, "survivors' match set must be unaffected by the dead shard");

    // Dropped accounting: every event keyed to the dead shard.
    let dead_events = (events.len() - surviving.len()) as u64;
    assert!(dead_events > 0, "the dead shard must have owned some keys for this test to bite");
    assert_eq!(report.dropped[q.index()], dead_events);
    assert_eq!(report.workers, workers);
}

#[test]
fn failure_after_traffic_keeps_earlier_matches_and_metrics() {
    let workers = 2;
    let names = ["IBM", "Sun", "Oracle", "HP"];
    let dead = shard_of(&Value::str("Sun").hash_key(), workers);
    let events: Vec<EventRef> = (0..200)
        .map(|i| stock(i as u64 + 1, i as i64, names[i as usize % names.len()], 1.0, 1))
        .collect();
    let (first, second) = events.split_at(events.len() / 2);

    let p = compile(QUERY);
    let template = p.engine().unwrap();
    let mut builder = Runtime::builder().workers(workers).channel_capacity(2).heartbeat_interval(1);
    builder.register(p.clone(), Partitioning::Field("name".into()));
    let mut runtime = builder.build().unwrap();

    let mut matches = ingest_chunked(&mut runtime, first, 16);
    runtime.inject_worker_failure(dead).unwrap();
    matches.extend(wait_for_departure(&mut runtime, workers - 1));
    matches.extend(ingest_chunked(&mut runtime, second, 16));
    let report = runtime.shutdown().unwrap();
    matches.extend(report.matches);

    // The dead shard's pre-failure work is kept: matches it produced from
    // the first half are delivered (its flush is lost, which can only drop
    // matches ending in its final window), and its metrics were folded in
    // via the premature Done.
    let survivors_only: Vec<EventRef> = second
        .iter()
        .filter(|e| shard_of(&e.value_by_name("name").unwrap().hash_key(), workers) != dead)
        .cloned()
        .collect();
    assert!(!matches.is_empty());
    let lines: Vec<String> = matches.iter().map(|m| template.format_match(&m.record)).collect();
    // Sanity: output contains matches for a key owned by the dead shard
    // (from before the failure) and for surviving keys (after it).
    assert!(lines.iter().any(|l| l.contains("Sun")), "pre-failure matches must survive");
    assert!(!survivors_only.is_empty());
    assert!(
        report.metrics.events_in > 0,
        "metrics from the failed shard's premature Done must be folded in"
    );
    // Second-half events keyed to the dead shard were dropped.
    let dead_second = (second.len() - survivors_only.len()) as u64;
    assert_eq!(report.dropped[0], dead_second);
}

/// Losing **every** worker degrades gracefully: ingest and poll keep
/// returning `Ok` (each event counted dropped), buffered matches all
/// finalize, and shutdown completes — total worker loss is the documented
/// degraded state, not an error.
#[test]
fn losing_every_worker_degrades_gracefully() {
    let p = compile(QUERY);
    let template = p.engine().unwrap();
    let mut builder = Runtime::builder().workers(1).channel_capacity(2);
    let q = builder.register(p, Partitioning::Field("name".into()));
    let mut runtime = builder.build().unwrap();
    let events: Vec<EventRef> =
        (0..50).map(|i| stock(i as u64 + 1, i as i64, "IBM", 1.0, 1)).collect();

    let mut matches = ingest_chunked(&mut runtime, &events[..25], 16);
    runtime.inject_worker_failure(0).unwrap();
    matches.extend(wait_for_departure(&mut runtime, 0));

    // The pool is empty: everything drops, nothing errors.
    matches.extend(ingest_chunked(&mut runtime, &events[25..], 16));
    matches.extend(runtime.poll().unwrap());
    let report = runtime.shutdown().unwrap();
    matches.extend(report.matches);

    assert!(!matches.is_empty(), "pre-failure matches must still be delivered");
    assert!(matches.iter().all(|m| m.query == q));
    let lines: Vec<String> = matches.iter().map(|m| template.format_match(&m.record)).collect();
    assert!(lines.iter().all(|l| l.contains("IBM")));
    assert_eq!(report.dropped[q.index()], 25, "post-failure events count as dropped");
}

/// `poll` must heartbeat lagging idle shards: with the default heartbeat
/// interval and a single ingested chunk, only polling can advance the idle
/// shard's watermark — matches may not wait for more ingest or shutdown.
#[test]
fn poll_heartbeats_idle_shards_to_finalize_matches() {
    let p = compile(QUERY);
    // Default heartbeat_interval (8) — one chunk never triggers the
    // ingest-driven heartbeat.
    let mut builder = Runtime::builder().workers(2).channel_capacity(2);
    builder.register(p, Partitioning::Field("name".into()));
    let mut runtime = builder.build().unwrap();

    let events: Vec<EventRef> =
        (0..40).map(|i| stock(i as u64 + 1, i as i64, "IBM", 1.0, 1)).collect();
    let batch = EventBatch::from_events(&events).unwrap();
    let mut got = runtime.ingest_columns(&batch).unwrap();
    let t0 = Instant::now();
    while got.is_empty() && t0.elapsed() < Duration::from_secs(10) {
        got.extend(runtime.poll().unwrap());
        std::thread::yield_now();
    }
    assert!(!got.is_empty(), "poll alone must finalize matches held by an idle shard");
    drop(runtime);
}

/// Idle shards must not hold the frontier: with heartbeats on, matches
/// finalize before shutdown even when every event keys to one shard.
#[test]
fn heartbeats_let_matches_finalize_before_shutdown() {
    let p = compile(QUERY);
    let mut builder = Runtime::builder().workers(2).channel_capacity(2).heartbeat_interval(1);
    builder.register(p, Partitioning::Field("name".into()));
    let mut runtime = builder.build().unwrap();

    // One key: the other shard never sees traffic.
    let events: Vec<EventRef> =
        (0..40).map(|i| stock(i as u64 + 1, i as i64, "IBM", 1.0, 1)).collect();
    let mut got = ingest_chunked(&mut runtime, &events, 4);
    let t0 = Instant::now();
    while got.is_empty() && t0.elapsed() < Duration::from_secs(10) {
        got.extend(runtime.poll().unwrap());
        std::thread::yield_now();
    }
    assert!(!got.is_empty(), "matches must become final before shutdown via idle-shard heartbeats");
    // Dropping without shutdown still stops the workers cleanly.
    drop(runtime);
}
