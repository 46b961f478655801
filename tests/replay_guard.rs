//! The replay guard's digest is computed lazily: the columnar ingest path
//! retains the last non-empty chunk per source and hashes it only when a
//! checkpoint is written (or while a restored guard is still armed). These
//! tests pin what "the last chunk" means on that path — the properties the
//! eager digest had for free and the retained chunk must keep:
//!
//! * an empty chunk, and a chunk `LatenessPolicy::Strict` rejects, do not
//!   replace the retained chunk;
//! * every source keeps its own chunk and its own one-shot guard;
//! * a digest restored from a checkpoint survives a second checkpoint.
//!
//! Each test counts matches: a re-delivered chunk the guard absorbs leaves
//! the count unchanged, one it lets through (legal inside the slack window)
//! adds matches.

mod common;

use common::compile;

use zstream::events::{stock, EventBatch, EventRef, Schema};
use zstream::runtime::{LatenessPolicy, Partitioning, Runtime, RuntimeBuilder, RuntimeError};

const QUERY: &str = "PATTERN A; B WHERE A.name = B.name WITHIN 12 RETURN A, B";
/// Generous, so re-delivering an old chunk is legal input.
const SLACK: u64 = 100;

fn builder(sources: usize, lateness: LatenessPolicy) -> RuntimeBuilder {
    let mut b = Runtime::builder()
        .workers(2)
        .channel_capacity(2)
        .slack(SLACK)
        .lateness(lateness)
        .sources(sources);
    b.register(compile(QUERY, 4), Partitioning::Auto("name".into()));
    b
}

/// Six same-name rows at `first_ts..`, so any two chunks in range match.
fn chunk(first_ts: u64, name: &str) -> EventBatch {
    let rows: Vec<EventRef> =
        (0..6).map(|i| stock(first_ts + i, (first_ts + i) as i64, name, 1.0, 1)).collect();
    EventBatch::from_events(&rows).unwrap()
}

/// Checkpoints `runtime`, crashes it, restores under the same configuration.
fn crash_and_restore(mut runtime: Runtime, sources: usize, lateness: LatenessPolicy) -> Runtime {
    let mut file = Vec::new();
    runtime.checkpoint(&mut file).unwrap();
    drop(runtime);
    builder(sources, lateness).restore(&mut file.as_slice()).unwrap()
}

fn finish(runtime: Runtime, streamed: usize) -> usize {
    streamed + runtime.shutdown().unwrap().matches.len()
}

#[test]
fn an_empty_chunk_does_not_replace_the_retained_chunk() {
    let (first, second) = (chunk(1, "IBM"), chunk(7, "IBM"));
    let empty = EventBatch::builder(Schema::stocks(), 0).finish();
    let count = |redeliver: bool| {
        let mut runtime = builder(1, LatenessPolicy::Drop).build().unwrap();
        let mut n = runtime.ingest_columns(&first).unwrap().len();
        n += runtime.ingest_columns(&empty).unwrap().len();
        let mut runtime = crash_and_restore(runtime, 1, LatenessPolicy::Drop);
        // An empty first call neither consults nor disarms the guard.
        n += runtime.ingest_columns(&empty).unwrap().len();
        if redeliver {
            n += runtime.ingest_columns(&first).unwrap().len();
        }
        n += runtime.ingest_columns(&second).unwrap().len();
        finish(runtime, n)
    };
    assert!(count(false) > 0, "weak workload: no matches");
    assert_eq!(count(true), count(false), "the chunk before the empty call is the last chunk");
}

#[test]
fn a_strict_rejected_chunk_does_not_replace_the_retained_chunk() {
    let (first, second) = (chunk(1_000, "IBM"), chunk(1_006, "IBM"));
    let too_late = chunk(1, "IBM");
    let count = |redeliver: bool| {
        let mut runtime = builder(1, LatenessPolicy::Strict).build().unwrap();
        let mut n = runtime.ingest_columns(&first).unwrap().len();
        match runtime.ingest_columns(&too_late) {
            Err(RuntimeError::TooLate { .. }) => {}
            other => panic!("expected a Strict rejection, got {other:?}"),
        }
        let mut runtime = crash_and_restore(runtime, 1, LatenessPolicy::Strict);
        if redeliver {
            n += runtime.ingest_columns(&first).unwrap().len();
        }
        n += runtime.ingest_columns(&second).unwrap().len();
        finish(runtime, n)
    };
    assert!(count(false) > 0, "weak workload: no matches");
    assert_eq!(count(true), count(false), "a rejected call leaves the last chunk in place");
}

#[test]
fn each_source_skips_its_own_replayed_chunk_exactly_once() {
    let per_source = [chunk(1, "IBM"), chunk(2, "Sun")];
    let count = |deliveries: usize| {
        let mut runtime = builder(2, LatenessPolicy::Drop).build().unwrap();
        let mut n = 0;
        for (source, batch) in per_source.iter().enumerate() {
            n += runtime.ingest_columns_from(source, batch).unwrap().len();
        }
        let mut runtime = crash_and_restore(runtime, 2, LatenessPolicy::Drop);
        for _ in 0..deliveries {
            for (source, batch) in per_source.iter().enumerate() {
                n += runtime.ingest_columns_from(source, batch).unwrap().len();
            }
        }
        finish(runtime, n)
    };
    let exact = count(0);
    assert!(exact > 0, "weak workload: no matches");
    assert_eq!(count(1), exact, "both sources' replayed chunks must be absorbed");
    assert!(count(2) > exact, "a second re-delivery is real input: the guards are one-shot");

    // The guards are per source: source 1's chunk arriving on source 0 is
    // not a replay, and it spends source 0's guard.
    let mut runtime = builder(2, LatenessPolicy::Drop).build().unwrap();
    let mut n = 0;
    for (source, batch) in per_source.iter().enumerate() {
        n += runtime.ingest_columns_from(source, batch).unwrap().len();
    }
    let mut runtime = crash_and_restore(runtime, 2, LatenessPolicy::Drop);
    n += runtime.ingest_columns_from(0, &per_source[1]).unwrap().len();
    n += runtime.ingest_columns_from(0, &per_source[0]).unwrap().len();
    assert!(finish(runtime, n) > exact, "a crossed delivery must not be absorbed");
}

/// A checkpoint of a restored runtime that has ingested nothing since still
/// carries the digest it was restored with (the plain-`u64` arm of the
/// retained state): the replay is absorbed after the second restore too.
#[test]
fn a_restored_digest_survives_a_second_checkpoint() {
    let (first, second) = (chunk(1, "IBM"), chunk(7, "IBM"));
    let count = |redeliver: bool| {
        let mut runtime = builder(1, LatenessPolicy::Drop).build().unwrap();
        let mut n = runtime.ingest_columns(&first).unwrap().len();
        let runtime = crash_and_restore(runtime, 1, LatenessPolicy::Drop);
        let mut runtime = crash_and_restore(runtime, 1, LatenessPolicy::Drop);
        if redeliver {
            n += runtime.ingest_columns(&first).unwrap().len();
        }
        n += runtime.ingest_columns(&second).unwrap().len();
        finish(runtime, n)
    };
    assert_eq!(count(true), count(false));
}
