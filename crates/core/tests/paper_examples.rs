//! Walk-throughs of the paper's worked examples: the engine must reproduce
//! Figure 5 (NSEQ evaluation) and Figure 6 (KSEQ evaluation) event by event.

use zstream_core::{EngineBuilder, NegStrategy};
use zstream_events::{stock, EventBatch, EventRef, Slot};

/// Pushes the events one batch (one round) each, as the figures step
/// through them, then flushes.
fn push_all(engine: &mut zstream_core::Engine, events: &[EventRef]) -> Vec<zstream_events::Record> {
    let mut out = Vec::new();
    for e in events {
        out.extend(engine.push_columns(&EventBatch::from_events(std::slice::from_ref(e)).unwrap()));
    }
    out.extend(engine.flush());
    out
}

/// Figure 5: pattern `A; !B; C WITHIN tw` over
/// a1@1, b2@2, b3@3, a4@4, c5@5 — b3 negates c5, so only instances of A in
/// time range [3, 5) survive: the composite result is (a4, c5).
#[test]
fn figure5_nseq_walkthrough() {
    let mut engine = EngineBuilder::parse("PATTERN A; !B; C WITHIN 100")
        .unwrap()
        .stock_routing()
        .neg_strategy(NegStrategy::PushdownPreferred)
        .build()
        .unwrap();
    let a1 = stock(1, 1, "A", 1.0, 1);
    let b2 = stock(2, 2, "B", 1.0, 1);
    let b3 = stock(3, 3, "B", 1.0, 1);
    let a4 = stock(4, 4, "A", 1.0, 1);
    let c5 = stock(5, 5, "C", 1.0, 1);
    let out = push_all(&mut engine, &[a1, b2, b3, a4.clone(), c5.clone()]);
    assert_eq!(out.len(), 1, "exactly the composite (a4, c5)");
    let rec = &out[0];
    // Root record slots: [A, B, C] — A must be a4 and C must be c5 (each
    // event was packed into its own batch, so compare by timestamp).
    let a_slot = rec.slot(0).as_one().expect("A bound");
    assert_eq!(a_slot.ts(), a4.ts());
    let c_slot = rec.slot(2).as_one().expect("C bound");
    assert_eq!(c_slot.ts(), c5.ts());
}

/// Figure 5 continued: when no B interleaves at all, every prior A matches.
#[test]
fn figure5_without_negation_instance() {
    let mut engine = EngineBuilder::parse("PATTERN A; !B; C WITHIN 100")
        .unwrap()
        .stock_routing()
        .build()
        .unwrap();
    let out = push_all(
        &mut engine,
        &[stock(1, 1, "A", 1.0, 1), stock(4, 4, "A", 1.0, 1), stock(5, 5, "C", 1.0, 1)],
    );
    assert_eq!(out.len(), 2, "both a1 and a4 match c5");
}

/// Figure 6, left buffer: pattern `A; B*; C` over a1@1, b2@2, b3@3, a4@4,
/// b5@5, c6@6 — the unspecified-count results are
/// (a1, {b2,b3,b5}, c6) and (a4, {b5}, c6).
#[test]
fn figure6_kseq_unspecified_count() {
    let mut engine = EngineBuilder::parse("PATTERN A; B*; C WITHIN 100")
        .unwrap()
        .stock_routing()
        .build()
        .unwrap();
    let b2 = stock(2, 2, "B", 1.0, 1);
    let b3 = stock(3, 3, "B", 1.0, 1);
    let b5 = stock(5, 5, "B", 1.0, 1);
    let out = push_all(
        &mut engine,
        &[
            stock(1, 1, "A", 1.0, 1),
            b2.clone(),
            b3.clone(),
            stock(4, 4, "A", 1.0, 1),
            b5.clone(),
            stock(6, 6, "C", 1.0, 1),
        ],
    );
    assert_eq!(out.len(), 2);
    // Slots: [A, B-closure, C]; records sorted by (same) end ts — identify
    // by the A timestamp.
    let group_of = |a_ts: u64| -> Vec<u64> {
        let rec = out
            .iter()
            .find(|r| r.slot(0).as_one().map(|e| e.ts()) == Some(a_ts))
            .unwrap_or_else(|| panic!("no match anchored at a{a_ts}"));
        match rec.slot(1) {
            Slot::Many(events) => events.iter().map(|e| e.ts()).collect(),
            other => panic!("closure slot expected, got {other:?}"),
        }
    };
    assert_eq!(group_of(1), vec![2, 3, 5], "a1 groups the maximal b2,b3,b5");
    assert_eq!(group_of(4), vec![5], "a4 groups only b5");
}

/// Figure 6, right buffer: with closure count 2, after a1 and c6 are fixed
/// the groups are (b2, b3) and (b3, b5).
#[test]
fn figure6_kseq_count_two() {
    let mut engine = EngineBuilder::parse("PATTERN A; B^2; C WITHIN 100")
        .unwrap()
        .stock_routing()
        .build()
        .unwrap();
    let out = push_all(
        &mut engine,
        &[
            stock(1, 1, "A", 1.0, 1),
            stock(2, 2, "B", 1.0, 1),
            stock(3, 3, "B", 1.0, 1),
            stock(5, 5, "B", 1.0, 1),
            stock(6, 6, "C", 1.0, 1),
        ],
    );
    let mut groups: Vec<Vec<u64>> = out
        .iter()
        .map(|r| match r.slot(1) {
            Slot::Many(events) => events.iter().map(|e| e.ts()).collect(),
            other => panic!("closure slot expected, got {other:?}"),
        })
        .collect();
    groups.sort();
    assert_eq!(groups, vec![vec![2, 3], vec![3, 5]], "paper's Figure 6 right buffer");
}

/// §4.4.2's example predicate shape: `A; !B; C` where B only negates when
/// its price undercuts C's — Algorithm 2 skips non-qualifying B instances
/// when searching backward for the negating event.
#[test]
fn nseq_skips_nonqualifying_negation_instances() {
    let mut engine = EngineBuilder::parse("PATTERN A; !B; C WHERE B.price < C.price WITHIN 100")
        .unwrap()
        .stock_routing()
        .build()
        .unwrap();
    let out = push_all(
        &mut engine,
        &[
            stock(1, 1, "A", 1.0, 1),
            stock(2, 2, "B", 10.0, 1), // qualifies (10 < 50): negates
            stock(3, 3, "B", 90.0, 1), // does not qualify (90 >= 50)
            stock(4, 4, "A", 1.0, 1),
            stock(5, 5, "C", 50.0, 1),
        ],
    );
    // b@2 negates c@5, so a@1 is blocked; b@3 is ignored; a@4 survives
    // (a4.end=4 >= b2.ts=2).
    assert_eq!(out.len(), 1);
    assert_eq!(out[0].slot(0).as_one().unwrap().ts(), 4);
}

/// Query 1's duration semantics (§3): the *total* composite duration must
/// respect WITHIN, not just adjacent gaps.
#[test]
fn composite_duration_bounded_by_window() {
    let mut engine =
        EngineBuilder::parse("PATTERN A; B; C WITHIN 10").unwrap().stock_routing().build().unwrap();
    // Adjacent gaps of 6+6 = total 12 > 10: no match even though each
    // consecutive pair is within the window.
    let out = push_all(
        &mut engine,
        &[stock(0, 1, "A", 1.0, 1), stock(6, 2, "B", 1.0, 1), stock(12, 3, "C", 1.0, 1)],
    );
    assert!(out.is_empty());
}

/// Strict sequencing: `A.end-ts < B.start-ts` (§3.1) — simultaneous events
/// do not chain.
#[test]
fn simultaneous_events_do_not_chain() {
    let mut engine =
        EngineBuilder::parse("PATTERN A; B WITHIN 10").unwrap().stock_routing().build().unwrap();
    let out = push_all(&mut engine, &[stock(5, 1, "A", 1.0, 1), stock(5, 2, "B", 1.0, 1)]);
    assert!(out.is_empty());
}
