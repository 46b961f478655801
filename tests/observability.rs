//! Observability-plane integration: scraping is passive.
//!
//! The contract of `zstream-obs` wired through the runtime is that the
//! metrics plane *observes* and never *participates*: a concurrent scraper
//! must not perturb the match stream, the counters must agree with the
//! shutdown report's accounting, the trace ring must stay bounded, and a
//! restored runtime must start its observability from zero while the
//! durable match stream stays byte-identical (counters are live telemetry,
//! not checkpoint state).

mod common;

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use common::{compile_stock, rebatch};
use zstream::events::{EventBatch, EventRef, Schema};
use zstream::obs::{MetricValue, Obs};
use zstream::runtime::{Partitioning, Runtime, RuntimeBuilder};
use zstream::workload::{StockConfig, StockGenerator};

const SEQ: &str = "PATTERN IBM; Sun; Oracle WITHIN 50 RETURN IBM, Sun, Oracle";

fn stream(seed: u64, len: usize) -> Vec<EventRef> {
    StockGenerator::generate(StockConfig::with_rates(
        &[("IBM", 3.0), ("Sun", 3.0), ("Oracle", 3.0), ("HP", 2.0)],
        len,
        seed,
    ))
}

fn builder(workers: usize) -> RuntimeBuilder {
    let parts = compile_stock(SEQ);
    let mut b = Runtime::builder().workers(workers);
    b.register(parts, Partitioning::Auto("name".into()));
    b
}

/// Ingests every batch, formats matches through the RETURN clause, and
/// returns the full (sorted) durable match stream.
fn run_lines(mut runtime: Runtime, batches: &[EventBatch]) -> Vec<String> {
    let template = compile_stock(SEQ).engine().unwrap();
    let mut lines = Vec::new();
    for batch in batches {
        for m in runtime.ingest_columns(batch).unwrap() {
            lines.push(template.format_match(&m.record));
        }
    }
    let report = runtime.shutdown().unwrap();
    for m in &report.matches {
        lines.push(template.format_match(&m.record));
    }
    lines.sort();
    lines
}

/// Satellite: [`Runtime::observe`] from another thread, mid-ingest, must
/// not quiesce shards or perturb the match stream — the scraped run's
/// output is byte-identical to an unscraped run over the same batches.
#[test]
fn concurrent_scrape_is_invisible_in_the_match_stream() {
    let batches = rebatch(&stream(11, 900), &[16]);
    let baseline = run_lines(builder(3).build().unwrap(), &batches);

    let runtime = builder(3).build().unwrap();
    let hub = runtime.obs_handle();
    let stop = Arc::new(AtomicBool::new(false));
    let scrapes = Arc::new(AtomicU64::new(0));
    let scraper = {
        let (stop, scrapes) = (Arc::clone(&stop), Arc::clone(&scrapes));
        std::thread::spawn(move || {
            // zlint::allow(atomics, "stop flag carries no data; the thread join is the synchronization point")
            while !stop.load(Ordering::Relaxed) {
                // Full scrape + both renderings, as a sidecar would.
                let snap = hub.snapshot();
                let _ = snap.to_json();
                let _ = snap.to_prometheus();
                // zlint::allow(atomics, "test-only progress counter read after join; no ordering needed")
                scrapes.fetch_add(1, Ordering::Relaxed);
                std::thread::yield_now();
            }
        })
    };
    let scraped = run_lines(runtime, &batches);
    // zlint::allow(atomics, "stop flag carries no data; the thread join is the synchronization point")
    stop.store(true, Ordering::Relaxed);
    scraper.join().unwrap();

    // zlint::allow(atomics, "test-only progress counter read after join; no ordering needed")
    assert!(scrapes.load(Ordering::Relaxed) > 0, "scraper never ran");
    assert_eq!(baseline, scraped, "a concurrent scraper changed the match stream");
}

/// The live counters and the shutdown report describe the same run: events
/// in, batches in, matches out, checkpoints taken. The queue-depth gauges
/// drain back to zero once every shard has replied and left the pool.
#[test]
fn counters_agree_with_the_shutdown_report() {
    let events = stream(23, 600);
    let batches = rebatch(&events, &[16]);
    let template = compile_stock(SEQ).engine().unwrap();

    let mut runtime = builder(2).build().unwrap();
    let hub = runtime.obs_handle();
    let mut streamed = 0u64;
    for batch in &batches {
        streamed += runtime.ingest_columns(batch).unwrap().len() as u64;
    }
    let mut sink = Vec::new();
    runtime.checkpoint(&mut sink).unwrap();
    let report = runtime.shutdown().unwrap();
    let _ = template; // identity via counts; formatting covered elsewhere

    let snap = hub.snapshot();
    assert_eq!(snap.counter_total("zstream_ingest_events_total"), events.len() as u64);
    assert_eq!(snap.counter_total("zstream_ingest_batches_total"), batches.len() as u64);
    assert_eq!(
        snap.counter_total("zstream_query_matched_total"),
        streamed + report.matches.len() as u64,
        "per-query matched counter covers streamed and buffered matches"
    );
    assert_eq!(
        snap.counter_total("zstream_query_admitted_total"),
        report.metrics.events_admitted,
        "admitted counter agrees with the report's engine metrics"
    );
    assert_eq!(snap.counter_total("zstream_checkpoints_total"), 1);
    assert_eq!(snap.counter_total("zstream_checkpoint_bytes_total"), sink.len() as u64);

    // Every traffic message got its Output reply: depth gauges are drained.
    let residual: u64 = snap
        .metrics
        .iter()
        .filter(|s| s.name == "zstream_shard_queue_depth")
        .map(|s| match s.value {
            MetricValue::Gauge(v) => v,
            _ => panic!("queue depth must be a gauge"),
        })
        .sum();
    assert_eq!(residual, 0, "queue-depth gauges did not drain to zero");

    // Latency histograms recorded real work and order their percentiles.
    let svc = snap.histogram_total("zstream_shard_service_ns").unwrap();
    assert!(svc.count > 0, "shard service histogram is empty");
    let (p50, p95, p99, max) = svc.summary().unwrap();
    assert!(p50 <= p95 && p95 <= p99 && p99 <= max);
    let ckpt = snap.histogram_total("zstream_checkpoint_duration_ns").unwrap();
    assert_eq!(ckpt.count, 1);

    // The process-global symbol gauges are sourced at scrape time.
    let truth = zstream::events::symbol_stats();
    assert_eq!(snap.gauge_value("zstream_symbols_interned"), Some(truth.symbols));
}

/// Satellite: observability is deliberately **not** checkpoint state. After
/// a crash + restore the counters restart from zero (the restored runtime
/// gets a fresh hub) while the durable match stream stays byte-identical
/// to an uninterrupted run.
#[test]
fn restore_restarts_observability_from_zero() {
    let batches = rebatch(&stream(5, 800), &[16]);
    let ckpt_at = batches.len() / 2;
    let baseline = run_lines(builder(2).build().unwrap(), &batches);

    let template = compile_stock(SEQ).engine().unwrap();
    let mut lines = Vec::new();
    let mut runtime = builder(2).build().unwrap();
    for batch in &batches[..ckpt_at] {
        for m in runtime.ingest_columns(batch).unwrap() {
            lines.push(template.format_match(&m.record));
        }
    }
    let mut file = Vec::new();
    runtime.checkpoint(&mut file).unwrap();
    let pre_crash = runtime.observe();
    assert!(pre_crash.counter_total("zstream_ingest_events_total") > 0);
    assert_eq!(pre_crash.counter_total("zstream_checkpoints_total"), 1);
    drop(runtime); // crash: no shutdown

    let mut runtime = builder(2).restore(&mut file.as_slice()).unwrap();
    let fresh = runtime.observe();
    assert_eq!(
        fresh.counter_total("zstream_ingest_events_total"),
        0,
        "restored runtime must start its counters from zero"
    );
    assert_eq!(fresh.counter_total("zstream_checkpoints_total"), 0);
    assert!(fresh.trace.is_empty(), "trace ring restarts empty after restore");

    let mut tail_events = 0u64;
    for batch in &batches[ckpt_at..] {
        tail_events += batch.len() as u64;
        for m in runtime.ingest_columns(batch).unwrap() {
            lines.push(template.format_match(&m.record));
        }
    }
    let after = runtime.observe();
    assert_eq!(
        after.counter_total("zstream_ingest_events_total"),
        tail_events,
        "post-restore counters cover only the replayed tail"
    );
    let report = runtime.shutdown().unwrap();
    for m in &report.matches {
        lines.push(template.format_match(&m.record));
    }
    lines.sort();
    assert_eq!(baseline, lines, "crash + restore changed the durable match stream");
}

/// The trace ring is bounded: a long run overflows it, old events are
/// evicted (and counted), and the scrape never grows past the capacity.
#[test]
fn trace_ring_stays_bounded() {
    let batches = rebatch(&stream(42, 4000), &[4]);
    let hub = Arc::new(Obs::new());
    let parts = compile_stock(SEQ);
    let mut b = Runtime::builder().workers(2).obs(Arc::clone(&hub));
    b.register(parts, Partitioning::Auto("name".into()));
    let mut runtime = b.build().unwrap();
    for batch in &batches {
        runtime.ingest_columns(batch).unwrap();
    }
    runtime.shutdown().unwrap();

    let snap = hub.snapshot();
    assert!(snap.trace.len() <= hub.trace.capacity());
    assert!(snap.trace_dropped > 0, "expected the ring to overflow on this run");
}

/// A caller-supplied hub ([`RuntimeBuilder::obs`]) is the one the runtime
/// reports into — `obs_handle` returns it, and instruments land there.
#[test]
fn builder_accepts_a_shared_hub() {
    let hub = Arc::new(Obs::new());
    let parts = compile_stock(SEQ);
    let mut b = Runtime::builder().workers(1).obs(Arc::clone(&hub));
    b.register(parts, Partitioning::Auto("name".into()));
    let mut runtime = b.build().unwrap();
    assert!(Arc::ptr_eq(&hub, &runtime.obs_handle()));
    let batches = rebatch(&stream(9, 64), &[16]);
    for batch in &batches {
        runtime.ingest_columns(batch).unwrap();
    }
    runtime.shutdown().unwrap();
    assert_eq!(hub.snapshot().counter_total("zstream_ingest_events_total"), 64);
}

/// The merge-plane gauges follow the merger through every path that
/// changes it — including the two that do not return matches to an ingest
/// caller. A checkpoint folds in-flight output into the merger, and
/// shutdown drains it; a scrape afterwards must not still show the last
/// mid-stream values.
#[test]
fn merge_gauges_follow_checkpoint_and_read_zero_after_shutdown() {
    let batches = rebatch(&stream(31, 600), &[16]);
    let hub = Arc::new(Obs::new());
    // One broadcast query on two workers, heartbeats effectively off: the
    // idle shard never echoes a watermark, so the frontier stays at 0 and
    // every match is held until shutdown.
    let mut b = Runtime::builder().workers(2).heartbeat_interval(usize::MAX).obs(Arc::clone(&hub));
    b.register(compile_stock(SEQ), Partitioning::Broadcast);
    let mut runtime = b.build().unwrap();
    for batch in &batches {
        assert!(runtime.ingest_columns(batch).unwrap().is_empty(), "frontier must not move");
    }
    // Replies arrive asynchronously; an empty ingest is a pure merge pass.
    let empty = EventBatch::builder(Schema::stocks(), 0).finish();
    while runtime.pending_matches() == 0 {
        runtime.ingest_columns(&empty).unwrap();
        std::thread::yield_now();
    }
    let mid = hub.snapshot();
    assert!(mid.gauge_value("zstream_merge_pending").unwrap() > 0);
    assert!(mid.gauge_value("zstream_merge_frontier_lag").unwrap() > 0);

    runtime.checkpoint(&mut Vec::new()).unwrap();
    assert_eq!(
        hub.snapshot().gauge_value("zstream_merge_pending"),
        Some(runtime.pending_matches() as u64),
        "checkpoint folded output into the merger without publishing it"
    );

    let report = runtime.shutdown().unwrap();
    assert!(!report.matches.is_empty());
    let after = hub.snapshot();
    assert_eq!(after.gauge_value("zstream_merge_pending"), Some(0));
    assert_eq!(after.gauge_value("zstream_merge_frontier_lag"), Some(0));
    assert!(after.histogram_total("zstream_merge_ns").unwrap().count > batches.len() as u64);
}

/// The trace ring takes a few events per batch, never one per partition
/// key: a hash-routed query's per-key engines share its counters but not
/// the ring, and the partitioned engine reports its rounds once per push.
/// (The per-key version emitted one `assembly_round` event — a `format!`,
/// two `String`s and the ring's mutex — for each of the 64 keys.)
#[test]
fn assembly_round_trace_events_are_per_batch_not_per_key() {
    let workers = 2;
    let hub = Arc::new(Obs::new());
    let parts = common::compile("PATTERN A; B WHERE A.name = B.name WITHIN 1000");
    let mut b = Runtime::builder().workers(workers).obs(Arc::clone(&hub));
    b.register(parts.clone(), Partitioning::Field("name".into()));
    b.register(parts, Partitioning::Field("name".into()));
    let mut runtime = b.build().unwrap();

    // Two rows per key per batch: every key assembles on every batch.
    let names: Vec<String> = (0..64).map(|i| format!("K{i:02}")).collect();
    let batch = |base: u64| {
        let events: Vec<EventRef> = (0..128u64)
            .map(|i| zstream::events::stock(base + i, i as i64, &names[i as usize % 64], 1.0, 1))
            .collect();
        rebatch(&events, &[128]).remove(0)
    };
    let assembly_rounds = |query: &str| {
        let snap = hub.snapshot();
        assert_eq!(snap.trace_dropped, 0, "the ring must not have overflowed yet");
        snap.trace
            .iter()
            .filter(|t| t.kind.as_str() == "assembly_round" && t.query.as_deref() == Some(query))
            .count()
    };
    runtime.ingest_columns(&batch(1)).unwrap();
    runtime.checkpoint(&mut Vec::new()).unwrap(); // quiesce: the shards are done
    let before = [assembly_rounds("q0"), assembly_rounds("q1")];

    let matched_before = hub.snapshot().counter_total("zstream_query_matched_total");
    runtime.ingest_columns(&batch(1000)).unwrap();
    runtime.checkpoint(&mut Vec::new()).unwrap();
    for (q, before) in ["q0", "q1"].into_iter().zip(before) {
        let added = assembly_rounds(q) - before;
        assert!(
            (1..=workers).contains(&added),
            "one 64-key batch added {added} assembly_round events for {q}: \
             at most one per shard that received rows"
        );
    }
    // The per-key engines still feed the shared counters and histogram.
    let snap = hub.snapshot();
    assert!(snap.counter_total("zstream_query_matched_total") > matched_before);
    assert!(snap.histogram_total("zstream_engine_round_ns").unwrap().count >= 2 * 2 * 64);
    runtime.shutdown().unwrap();
}

/// One query's series in `hub`: admitted, matched, kernel rows evaluated,
/// kernel fallback rows, and the number of assembly rounds timed.
fn query_series(hub: &Obs, query: &str) -> [u64; 5] {
    let snap = hub.snapshot();
    let l = zstream::obs::labels(&[("query", query)]);
    let read = |name: &str| match snap.sample(name, &l).map(|s| &s.value) {
        Some(MetricValue::Counter(v)) => *v,
        Some(MetricValue::Histogram(h)) => h.count,
        _ => 0,
    };
    [
        read("zstream_query_admitted_total"),
        read("zstream_query_matched_total"),
        read("zstream_kernel_rows_evaluated_total"),
        read("zstream_kernel_fallback_rows_total"),
        read("zstream_engine_round_ns"),
    ]
}

/// Identical registrations share one engine per shard, and each
/// subscriber's per-query series read what the query's series read in a
/// runtime of its own over the chunks it was delivered — also for a
/// subscriber that splits off its group (paused for a window) and one that
/// leaves it (dropped: its series freeze). `zstream_shard_engines` counts
/// the engines actually hosted.
#[test]
fn shared_engines_keep_every_subscribers_series() {
    let flat = "PATTERN A; B WHERE A.price > 2 AND B.price > 3 WITHIN 9";
    let keyed = "PATTERN A; B WHERE A.name = B.name AND A.volume > 1 WITHIN 8";
    // Broadcast copies are homed round-robin: q0/q2 share shard 0's engine,
    // q1/q3 shard 1's; the hash-routed q4/q5 share one engine per shard.
    let pool: Vec<(&str, Partitioning)> = vec![
        (flat, Partitioning::Broadcast),
        (flat, Partitioning::Broadcast),
        (flat, Partitioning::Broadcast),
        (flat, Partitioning::Broadcast),
        (keyed, Partitioning::Field("name".into())),
        (keyed, Partitioning::Field("name".into())),
    ];
    let (paused, pause, dropped, drop_at) = (2, 3..6, 3, 8);
    let events: Vec<EventRef> = (0..200usize)
        .map(|i| {
            let name = ["IBM", "Sun", "Oracle", "HP"][i % 4];
            zstream::events::stock(
                i as u64 / 2 + 1,
                i as i64,
                name,
                (i % 7) as f64,
                1 + (i % 3) as i64,
            )
        })
        .collect();
    let chunks = rebatch(&events, &[16]);
    let delivered = |q: usize, b: usize| {
        let paused_then = q == paused && pause.contains(&b);
        !(paused_then || (q == dropped && b >= drop_at))
    };

    let hub = Arc::new(Obs::new());
    let mut b = Runtime::builder().workers(2).obs(Arc::clone(&hub));
    let ids: Vec<_> =
        pool.iter().map(|(src, p)| b.register(common::compile(src), p.clone())).collect();
    let mut runtime = b.build().unwrap();
    runtime.checkpoint(&mut Vec::new()).unwrap(); // quiesce: every shard thread is up
    let engines = |runtime: &Runtime| {
        let snap = runtime.observe();
        let engines = snap.metrics.iter().filter(|s| s.name == "zstream_shard_engines");
        engines.map(|s| if let MetricValue::Gauge(v) = s.value { v } else { 0 }).sum::<u64>()
    };
    assert_eq!(engines(&runtime), 4, "two flat groups, and the keyed group on both shards");
    assert_eq!(runtime.observe().gauge_value("zstream_queries_live"), Some(6));
    for (i, chunk) in chunks.iter().enumerate() {
        if i == pause.start {
            runtime.pause(ids[paused]).unwrap();
        }
        if i == pause.end {
            runtime.resume(ids[paused]).unwrap();
        }
        if i == drop_at {
            runtime.drop_query(ids[dropped]).unwrap();
        }
        runtime.ingest_columns(chunk).unwrap();
    }
    runtime.checkpoint(&mut Vec::new()).unwrap();
    assert_eq!(engines(&runtime), 5, "the paused copy split off; the dropped one left a group");
    let report = runtime.shutdown().unwrap();

    for (q, (src, partitioning)) in pool.iter().enumerate() {
        let solo_hub = Arc::new(Obs::new());
        let mut b = Runtime::builder().workers(2).obs(Arc::clone(&solo_hub));
        b.register(common::compile(src), partitioning.clone());
        let mut solo = b.build().unwrap();
        for (_, chunk) in chunks.iter().enumerate().filter(|(i, _)| delivered(q, *i)) {
            solo.ingest_columns(chunk).unwrap();
        }
        let solo_report = solo.shutdown().unwrap();
        let (shared, alone) = (query_series(&hub, &format!("q{q}")), query_series(&solo_hub, "q0"));
        assert!(alone[1] > 0 || q == dropped, "q{q} never matched alone — weak test");
        if q == paused {
            // Its private copy evaluates the same predicates as q0's group,
            // which asks first each batch and so pays the kernel rows
            // (whoever needs a shared predicate first pays).
            assert!(shared[2] <= alone[2], "q{q}: kernel rows {shared:?} vs {alone:?}");
            assert_eq!(
                [shared[0], shared[1], shared[3], shared[4]],
                [alone[0], alone[1], alone[3], alone[4]],
                "q{q}"
            );
        } else {
            assert_eq!(
                shared, alone,
                "q{q}: admitted, matched, kernel rows, fallback rows, rounds"
            );
        }
        let mut want = solo_report.query_metrics[0];
        if q == dropped {
            want.idle_rounds -= 1; // a dropped query never runs the end-of-stream round
        }
        assert_eq!(report.query_metrics[q], want, "q{q}: metrics");
    }
}
