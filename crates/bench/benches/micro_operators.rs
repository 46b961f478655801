//! **Operator microbenchmarks** (criterion) — per-event costs of the hot
//! paths: columnar intake plus a full SEQ assembly round, the hash probe
//! path, the NSEQ backward scan, and the buffer prune sweep.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

use zstream_core::physical::Buffer;
use zstream_core::{Engine, EngineBuilder, EngineConfig, PlanConfig, PlanShape};
use zstream_events::{stock, EventBatch, Record, Slot};
use zstream_workload::{StockConfig, StockGenerator};

/// Rows per pushed batch (one engine round each).
const BATCH: usize = 256;

fn stream(len: usize, seed: u64) -> Vec<EventBatch> {
    StockGenerator::generate_batches(
        StockConfig::uniform(&["IBM", "Sun", "Oracle"], len, seed),
        BATCH,
    )
}

/// Rows across `batches`.
fn rows(batches: &[EventBatch]) -> u64 {
    batches.iter().map(|b| b.len() as u64).sum()
}

/// Pushes every batch through `engine`; returns the match count.
fn push_all(mut engine: Engine, batches: &[EventBatch]) -> usize {
    batches.iter().map(|batch| engine.push_columns(black_box(batch)).len()).sum()
}

fn bench_seq_round(c: &mut Criterion) {
    let batches = stream(4096, 10);
    let mut group = c.benchmark_group("seq_pipeline");
    group.sample_size(20);
    group.throughput(Throughput::Elements(rows(&batches)));
    let build = || {
        EngineBuilder::parse("PATTERN IBM; Sun; Oracle WITHIN 100")
            .unwrap()
            .stock_routing()
            .shape(PlanShape::left_deep(3))
            .build()
            .unwrap()
    };
    group.bench_function("scan_join_columnar", |b| b.iter(|| push_all(build(), &batches)));
    group.finish();
}

fn bench_prune(c: &mut Criterion) {
    // Interior (slow-path) pruning: records sorted by end but not by start,
    // so the in-place compaction sweep runs — the Buffer::prune hot path
    // for internal buffers under EAT pressure.
    const N: usize = 4096;
    let wide = stock(0, 0, "W", 1.0, 1);
    let make_buffer = || {
        let mut b = Buffer::new();
        for i in 0..N as u64 {
            // Alternate long-span records (pruned by start) with short ones.
            let rec = if i % 2 == 0 {
                Record::from_slots(vec![
                    Slot::One(wide.clone()),
                    Slot::One(stock(i + 1, i as i64, "E", 1.0, 1)),
                ])
            } else {
                Record::primitive(stock(i + 1, i as i64, "E", 1.0, 1))
            };
            b.push(rec);
        }
        b
    };
    let mut group = c.benchmark_group("buffer_prune");
    group.sample_size(20);
    group.throughput(Throughput::Elements(N as u64));
    group.bench_function("interior_sweep", |b| {
        b.iter(|| {
            let mut buf = make_buffer();
            // start<1 prunes every even record via the interior sweep.
            let removed = buf.prune(black_box(1));
            assert_eq!(removed, N / 2);
            buf.len()
        })
    });
    group.finish();
}

fn bench_hash_vs_scan(c: &mut Criterion) {
    // Aliases over 16 names: equality predicate with selectivity 1/16.
    let names: Vec<String> = (0..16).map(|i| format!("S{i}")).collect();
    let rates: Vec<(&str, f64)> = names.iter().map(|n| (n.as_str(), 1.0)).collect();
    let batches =
        StockGenerator::generate_batches(StockConfig::with_rates(&rates, 4096, 11), BATCH);
    let src = "PATTERN T1; T2 WHERE T1.name = T2.name WITHIN 64";
    let mut group = c.benchmark_group("equality_join");
    group.sample_size(20);
    group.throughput(Throughput::Elements(rows(&batches)));
    for (label, use_hash) in [("hash", true), ("scan", false)] {
        group.bench_function(label, |b| {
            b.iter(|| {
                let engine = EngineBuilder::parse(src)
                    .unwrap()
                    .config(EngineConfig {
                        plan: PlanConfig { use_hash, ..Default::default() },
                        ..Default::default()
                    })
                    .build()
                    .unwrap();
                push_all(engine, &batches)
            })
        });
    }
    group.finish();
}

fn bench_nseq(c: &mut Criterion) {
    let batches = stream(4096, 12);
    let mut group = c.benchmark_group("negation");
    group.sample_size(20);
    group.throughput(Throughput::Elements(rows(&batches)));
    group.bench_function("nseq_pushdown", |b| {
        b.iter(|| {
            let engine = EngineBuilder::parse("PATTERN IBM; !Sun; Oracle WITHIN 100")
                .unwrap()
                .stock_routing()
                .build()
                .unwrap();
            push_all(engine, &batches)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_seq_round, bench_hash_vs_scan, bench_nseq, bench_prune);
criterion_main!(benches);
