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
//! `todays_writer_reproduces_the_fixture` pins the other direction: today's
//! writer, given the fixture's state, must write the fixture's bytes (bar
//! the checkpoint sequence and one reserved word) — a writer-side format
//! change fails there even when the reader still accepts old files.

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
/// fingerprint covers the query, worker count and slack, so changing any
/// of these requires regenerating the fixture.
const QUERY: &str = "PATTERN A; B; C WHERE A.name = B.name AND B.name = C.name \
                     WITHIN 30 RETURN A, B, C";
const WORKERS: usize = 2;
const SEED: u64 = 77;
const EVENTS: usize = 400;
const CKPT_AT: usize = 3; // fixture taken after this many 64-row batches
/// File offset of the fingerprint's reserved `u64` (the runtime's
/// `checkpoint::RESERVED_WORD`): magic (8) + version (4) + checkpoint
/// sequence (8) + CONFIG tag (1) + workers (8).
const RESERVED_AT: usize = 29;
/// File offset of the checkpoint sequence: magic (8) + version (4).
const SEQ_AT: usize = 12;
/// What the fixture holds there (the batch size its build checked) and what
/// today's writer puts there.
const RESERVED_IN_FIXTURE: u64 = 16;
const RESERVED_WRITTEN: u64 = 512;

fn parts() -> CompiledParts {
    compile(QUERY)
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

/// The fixture's workload run by today's build: the checkpoint bytes after
/// [`CKPT_AT`] batches, and the match lines emitted before it (one per line,
/// as the prefix file holds them). Which matches are emitted rather than
/// checkpointed depends on reply timing (see [`PREFIX`]), so two calls can
/// differ; the fixture's own run emitted none.
fn write_checkpoint() -> (Vec<u8>, String) {
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
    (bytes, prefix)
}

/// The `u64` at `at` in `bytes`.
fn word_at(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap())
}

/// Sorted match lines a runtime restored from `bytes` emits when shut down
/// straight away: everything the checkpoint held buffered.
fn held(parts: &CompiledParts, bytes: &[u8]) -> Vec<String> {
    let template = parts.engine().unwrap();
    let report = builder(parts).restore(&mut &bytes[..]).unwrap().shutdown().unwrap();
    let mut lines: Vec<String> =
        report.matches.iter().map(|m| template.format_match(&m.record)).collect();
    lines.sort();
    lines
}

/// Today's writer writes the fixture's state as the fixture: restore it and
/// checkpoint straight away (no ingest, so no timing), and every byte is
/// the fixture's but the checkpoint sequence (one more) and the reserved
/// fingerprint word. That covers every engine blob too — so the words the
/// format keeps for removed features (the reserved word, each engine's
/// always-zero pending-events length) left the bytes unchanged.
#[test]
fn todays_writer_reproduces_the_fixture() {
    let fixture = std::fs::read(FIXTURE).unwrap();
    let mut runtime = builder(&parts()).restore(&mut fixture.as_slice()).unwrap();
    let mut bytes = Vec::new();
    runtime.checkpoint(&mut bytes).unwrap();
    runtime.shutdown().unwrap();

    assert_eq!(bytes.len(), fixture.len(), "checkpoint length differs from the fixture's");
    assert_eq!((word_at(&fixture, SEQ_AT), word_at(&bytes, SEQ_AT)), (1, 2));
    assert_eq!(word_at(&fixture, RESERVED_AT), RESERVED_IN_FIXTURE);
    assert_eq!(word_at(&bytes, RESERVED_AT), RESERVED_WRITTEN);
    let differing: Vec<usize> = (0..bytes.len())
        .filter(|&i| bytes[i] != fixture[i])
        .filter(|&i| ![SEQ_AT, RESERVED_AT].iter().any(|at| (*at..*at + 8).contains(&i)))
        .collect();
    assert!(differing.is_empty(), "bytes differ from the fixture at offsets {differing:?}");
}

/// A fresh run of the fixture's workload checkpoints what the fixture
/// holds: its emitted prefix plus what its checkpoint holds equals the
/// fixture's prefix plus what the fixture holds, line for line.
#[test]
fn fresh_checkpoint_holds_what_the_fixture_holds() {
    let parts = parts();
    let lines = |prefix: &str, bytes: &[u8]| {
        let mut all: Vec<String> = prefix.lines().map(str::to_owned).collect();
        all.extend(held(&parts, bytes));
        all.sort();
        all
    };
    let (bytes, prefix) = write_checkpoint();
    let fixture =
        lines(&std::fs::read_to_string(PREFIX).unwrap(), &std::fs::read(FIXTURE).unwrap());
    assert!(!fixture.is_empty(), "the fixture holds matches");
    assert_eq!(lines(&prefix, &bytes), fixture);
}

/// Rewrites `tests/fixtures/checkpoint_v2.bin`. Ignored by default: the
/// fixture must only change together with an intentional format change.
#[test]
#[ignore = "regenerates the golden fixture; run explicitly with -- --ignored"]
fn regenerate_golden_fixture() {
    let (bytes, prefix) = write_checkpoint();
    std::fs::create_dir_all(concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures")).unwrap();
    std::fs::write(FIXTURE, &bytes).unwrap();
    std::fs::write(PREFIX, &prefix).unwrap();
    eprintln!("wrote {} checkpoint bytes + {} prefix bytes", bytes.len(), prefix.len());
}
