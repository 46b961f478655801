//! Rounds keep only live state (§4.3). After every push, no plan node holds
//! an entry that starts before the engine's EAT floor, `watermark − window`:
//! every later trigger instance ends at or after the watermark, so no later
//! match can use such an entry. Consumed trigger-class leaves under SEQ and
//! DISJ are drained; CONJ leaves keep their history (Algorithm 3).
//!
//! Every batch here spans more than ten windows of event time, so the prune
//! at the end of each round has entries to remove, and every engine's
//! output must still equal the brute-force oracle.

mod common;

use common::{assert_live, compile_stock, handles, oracle_sigs, rebatch, Signature};
use zstream::core::{Engine, EngineBuilder, NegStrategy, PlanShape, SharedPredIndex};
use zstream::events::{stock, EventBatch, EventRef, Ts};

const WINDOW: Ts = 8;
/// Rows per batch: about 96 time units, twelve windows.
const BATCH: usize = 96;
const NAMES: [&str; 3] = ["IBM", "Sun", "Oracle"];

/// A time-ordered stock stream: gaps of 0–2 time units (ties included),
/// names and prices drawn from a seeded xorshift.
fn stream(seed: u64, len: usize) -> Vec<EventRef> {
    let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut ts = 0;
    (0..len)
        .map(|i| {
            ts += next() % 3;
            let name = NAMES[(next() % 3) as usize];
            stock(ts, i as i64, name, (next() % 100) as f64, (next() % 4) as i64)
        })
        .collect()
}

fn batches(seed: u64) -> Vec<EventBatch> {
    rebatch(&stream(seed, 700), &[BATCH])
}

/// Feeds `batches` one round each — through `push_rows` on a shared index
/// when `rows`, else `push_columns` — checking the floor after every push;
/// returns the sorted signatures of every match.
fn run_live(engine: &mut Engine, batches: &[EventBatch], rows: bool, what: &str) -> Vec<Signature> {
    let mut index = SharedPredIndex::new();
    if rows {
        engine.subscribe(&mut index);
    }
    let mut out = Vec::new();
    for batch in batches {
        if rows {
            index.begin_batch();
            out.extend(engine.push_rows(batch, None, &mut index).records());
        } else {
            out.extend(engine.push_columns(batch));
        }
        assert_live(engine, what);
    }
    out.extend(engine.flush());
    let mut sigs: Vec<Signature> = out.iter().map(|r| engine.record_signature(r)).collect();
    sigs.sort();
    sigs
}

fn engine(src: &str, neg: NegStrategy, shape: Option<&PlanShape>) -> Engine {
    let mut builder = EngineBuilder::parse(src).unwrap().stock_routing().neg_strategy(neg);
    if let Some(shape) = shape {
        builder = builder.shape(shape.clone());
    }
    builder.build().unwrap()
}

/// Every operator: SEQ in every shape (with and without a hash join), NSEQ,
/// NEG on top, KSEQ with an end anchor and trailing, CONJ and DISJ.
#[test]
fn every_round_leaves_only_entries_at_or_after_the_floor() {
    use NegStrategy::{PushdownPreferred as Pushdown, TopFilter};
    let w = WINDOW;
    let cases: Vec<(String, NegStrategy, Vec<PlanShape>)> = vec![
        (format!("PATTERN IBM; Sun; Oracle WITHIN {w}"), Pushdown, PlanShape::enumerate_all(3)),
        (
            format!("PATTERN IBM; Sun; Oracle WHERE IBM.volume = Oracle.volume WITHIN {w}"),
            Pushdown,
            PlanShape::enumerate_all(3),
        ),
        (format!("PATTERN IBM; !Sun; Oracle WITHIN {w}"), Pushdown, vec![]),
        (
            format!("PATTERN IBM; !Sun; Oracle WHERE Sun.price > IBM.price WITHIN {w}"),
            TopFilter,
            vec![],
        ),
        (format!("PATTERN IBM; Sun+; Oracle WITHIN {w}"), Pushdown, vec![]),
        (format!("PATTERN IBM; Sun^2 WITHIN {w}"), Pushdown, vec![]),
        (format!("PATTERN IBM & Sun WITHIN {w}"), Pushdown, vec![]),
        (format!("PATTERN IBM | Sun WITHIN {w}"), Pushdown, vec![]),
        (format!("PATTERN (IBM | Sun); Oracle WITHIN {w}"), Pushdown, vec![]),
    ];
    for seed in 0..2 {
        let batches = batches(seed);
        for (src, neg, shapes) in &cases {
            let expected = oracle_sigs(src, Some("name"), &handles(&batches));
            assert!(!expected.is_empty(), "{src}: the stream should match");
            let shapes: Vec<Option<&PlanShape>> =
                if shapes.is_empty() { vec![None] } else { shapes.iter().map(Some).collect() };
            for shape in shapes {
                for rows in [false, true] {
                    let what = format!("{src} shape={shape:?} rows={rows} seed={seed}");
                    let got = run_live(&mut engine(src, *neg, shape), &batches, rows, &what);
                    assert_eq!(got, expected, "{what}");
                }
            }
        }
    }
}

/// Number of entries the leaf of `class` holds.
fn leaf_len(engine: &Engine, class: usize) -> usize {
    let plan = engine.plan();
    plan.nodes[plan.leaf_of_class[class]].buf.len()
}

/// A trigger leaf consumed by SEQ or DISJ is cleared in the round that
/// consumes it; a non-trigger leaf keeps its history for plan switches
/// (§5.3), and a CONJ leaf keeps it for the other side (Algorithm 3).
#[test]
fn consumed_trigger_leaves_drain_under_seq_and_disj_but_not_conj() {
    let w = WINDOW;
    let cases = [
        // (query, shapes, classes drained after every round, classes that
        // must hold entries after some round)
        (
            format!("PATTERN IBM; Sun; Oracle WITHIN {w}"),
            PlanShape::enumerate_all(3),
            &[2][..],
            &[0, 1][..],
        ),
        (format!("PATTERN IBM | Sun WITHIN {w}"), vec![], &[0, 1], &[]),
        (format!("PATTERN (IBM | Sun); Oracle WITHIN {w}"), vec![], &[2], &[0, 1]),
        (format!("PATTERN IBM & Sun WITHIN {w}"), vec![], &[], &[0, 1]),
    ];
    let batches = batches(7);
    for (src, shapes, drained, retained) in &cases {
        let shapes: Vec<Option<&PlanShape>> =
            if shapes.is_empty() { vec![None] } else { shapes.iter().map(Some).collect() };
        for shape in shapes {
            let mut engine = engine(src, NegStrategy::PushdownPreferred, shape);
            let mut peak = [0; 3];
            for batch in &batches {
                drop(engine.push_columns(batch));
                for &class in *drained {
                    assert_eq!(leaf_len(&engine, class), 0, "{src} shape={shape:?}: class {class}");
                }
                for (class, peak) in peak.iter_mut().enumerate().take(engine.plan().num_classes) {
                    *peak = (*peak).max(leaf_len(&engine, class));
                }
            }
            for &class in *retained {
                assert!(peak[class] > 0, "{src} shape={shape:?}: class {class} kept nothing");
            }
        }
    }
}

/// With no trigger instance every round is idle, and idle rounds prune
/// too: 50,000 `IBM` rows leave one window of leaf entries, not 50,000.
/// A batch that no class admits settles through `skip_unadmitted`, whose
/// idle round prunes as well.
#[test]
fn a_stream_without_triggers_holds_one_window_of_state() {
    let w = WINDOW;
    let parts = compile_stock(&format!("PATTERN IBM; Sun; Oracle WITHIN {w}"));
    let mut engine = parts.engine().unwrap();
    let events: Vec<EventRef> =
        (0..50_000u64).map(|i| stock(i + 1, i as i64, "IBM", 1.0, 1)).collect();
    let held = |engine: &Engine| (0..3).map(|c| leaf_len(engine, c)).sum::<usize>();
    for batch in rebatch(&events, &[1024]) {
        assert!(engine.push_columns(&batch).is_empty());
        assert!(held(&engine) <= w as usize + 1, "{} leaf entries held", held(&engine));
    }
    assert_eq!(engine.metrics().assembly_rounds, 0);
    assert_eq!(held(&engine), w as usize + 1, "the last window stays");

    let mut index = SharedPredIndex::new();
    engine.subscribe(&mut index);
    index.begin_batch();
    let later = EventBatch::from_events(&[stock(50_000 + 2 * w, 0, "HP", 1.0, 1)]).unwrap();
    assert!(engine.skip_unadmitted(&later, &mut index));
    assert_eq!(held(&engine), 0, "the skipped batch moved the floor past every entry");
}
