//! Golden-fixture compatibility: a **checked-in** v2 checkpoint file
//! (`tests/fixtures/checkpoint_v2.bin`) is restored on every run and driven
//! to completion. This is the cross-version gate the in-process tests in
//! `checkpoint_recovery.rs` cannot provide: those always checkpoint and
//! restore with the *same* build, so a format change that breaks old files
//! sails through them. Here the bytes were produced by the build that was
//! current when the fixture was last regenerated — if today's reader cannot
//! restore them, the format changed incompatibly and either the version
//! number must be bumped (with a migration) or the change reverted.
//!
//! The fixture is regenerated by the `#[ignore]`d `regenerate_golden_fixture`
//! test below (`cargo test --test checkpoint_golden -- --ignored`). Only
//! regenerate it together with an intentional, reviewed format change.

mod common;

use common::{compile, lines_columns};

use zstream::core::CompiledParts;
use zstream::events::EventBatch;
use zstream::runtime::{LatenessPolicy, Partitioning, Runtime, RuntimeBuilder};
use zstream::workload::{StockConfig, StockGenerator};

const FIXTURE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/checkpoint_v2.bin");
/// The match lines the fixture's runtime had already emitted when the
/// checkpoint was taken (the durable prefix). They cannot be re-derived by a
/// fresh runtime: *which* matches surface during ingest versus ride inside
/// the checkpoint depends on reply-drain timing, and only their union is
/// deterministic.
const PREFIX: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/checkpoint_v2.prefix");

/// Everything below must stay in lockstep with the fixture: the restore
/// fingerprint covers the query, worker count, batch size and slack, so
/// changing any of these requires regenerating the fixture.
const QUERY: &str = "PATTERN A; B; C WHERE A.name = B.name AND B.name = C.name \
                     WITHIN 30 RETURN A, B, C";
const WORKERS: usize = 2;
const SEED: u64 = 77;
const EVENTS: usize = 400;
const CKPT_AT: usize = 3; // fixture taken after this many 64-row batches

fn parts() -> CompiledParts {
    compile(QUERY, 16)
}

fn builder(parts: &CompiledParts) -> RuntimeBuilder {
    let mut b = Runtime::builder().workers(WORKERS).channel_capacity(2);
    b.register(parts.clone(), Partitioning::Auto("name".into()));
    b
}

fn workload() -> Vec<EventBatch> {
    StockGenerator::generate_batches(
        StockConfig::with_rates(
            &[("IBM", 1.0), ("Sun", 1.0), ("Oracle", 1.0), ("HP", 1.0), ("Dell", 1.0)],
            EVENTS,
            SEED,
        ),
        64,
    )
}

#[test]
fn golden_v2_fixture_restores_and_completes() {
    let bytes = std::fs::read(FIXTURE).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {FIXTURE}: {e}\n\
             regenerate with `cargo test --test checkpoint_golden -- --ignored`"
        )
    });
    assert_eq!(&bytes[..8], b"ZSTCKPT\0", "fixture magic");
    assert_eq!(
        u32::from_le_bytes(bytes[8..12].try_into().unwrap()),
        2,
        "fixture is a v2 file; bump the fixture name and this test on a format bump"
    );

    let parts = parts();
    let batches = workload();
    let template = parts.engine().unwrap();

    // The durable prefix: everything the fixture's runtime emitted before
    // the checkpoint, checked in alongside the checkpoint bytes.
    let mut lines: Vec<String> = std::fs::read_to_string(PREFIX)
        .unwrap_or_else(|e| panic!("missing prefix fixture {PREFIX}: {e}"))
        .lines()
        .map(str::to_owned)
        .collect();

    // Restore from the checked-in bytes and replay the tail.
    let mut runtime = builder(&parts)
        .restore(&mut bytes.as_slice())
        .expect("restoring the checked-in v2 checkpoint must keep working");
    for batch in &batches[CKPT_AT..] {
        for m in runtime.ingest_columns(batch).unwrap() {
            lines.push(template.format_match(&m.record));
        }
    }
    let report = runtime.shutdown().unwrap();
    for m in &report.matches {
        lines.push(template.format_match(&m.record));
    }
    lines.sort();

    let (expected, _) = lines_columns(
        &parts,
        Partitioning::Auto("name".into()),
        WORKERS,
        None,
        LatenessPolicy::Drop,
        &batches,
    );
    assert!(!expected.is_empty(), "workload produced no matches — weak fixture");
    assert_eq!(lines, expected, "restored-from-fixture run diverged from uninterrupted run");
}

/// Rewrites `tests/fixtures/checkpoint_v2.bin`. Ignored by default: the
/// fixture must only change together with an intentional format change.
#[test]
#[ignore = "regenerates the golden fixture; run explicitly with -- --ignored"]
fn regenerate_golden_fixture() {
    let parts = parts();
    let batches = workload();
    let template = parts.engine().unwrap();
    let mut runtime = builder(&parts).build().unwrap();
    let mut prefix = String::new();
    for batch in &batches[..CKPT_AT] {
        for m in runtime.ingest_columns(batch).unwrap() {
            prefix.push_str(&template.format_match(&m.record));
            prefix.push('\n');
        }
    }
    let mut bytes = Vec::new();
    runtime.checkpoint(&mut bytes).unwrap();
    runtime.shutdown().unwrap();
    std::fs::create_dir_all(concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures")).unwrap();
    std::fs::write(FIXTURE, &bytes).unwrap();
    std::fs::write(PREFIX, &prefix).unwrap();
    eprintln!("wrote {} checkpoint bytes + {} prefix bytes", bytes.len(), prefix.len());
}
