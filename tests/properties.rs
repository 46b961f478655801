//! Property-based tests (proptest): randomized streams and parameters must
//! never break the core invariants —
//!
//! 1. the engine's output equals the brute-force oracle's (all operators),
//! 2. output is exactly-once (no duplicates),
//! 3. every output composite fits inside the time window,
//! 4. output records are emitted in end-timestamp order within a round,
//! 5. plan shape, batch size and hashing never change the result set.

mod common;

use std::sync::Arc;

use common::{handles, rebatch, stream_strategy, Signature};
use proptest::prelude::*;

use zstream::core::{
    build_intake, EngineBuilder, EngineConfig, NegStrategy, PlanConfig, PlanShape,
};
use zstream::events::{EventBatch, EventRef};
use zstream::lang::{analyze, Query, SchemaMap};

/// Three names with small domains so predicates and equalities hit often.
const NAMES: &[&str] = &["IBM", "Sun", "Oracle"];

/// The brute-force oracle with route-by-name intake (the classes here are
/// stock symbols), over the row handles of `batches`.
fn oracle_sigs(src: &str, batches: &[EventBatch]) -> Vec<Signature> {
    common::oracle_sigs(src, Some("name"), &handles(batches))
}

/// `events` packed into batches of `batch` rows: one engine round each.
fn packed(events: &[EventRef], batch: usize) -> Vec<EventBatch> {
    rebatch(events, &[batch])
}

fn engine_run(
    src: &str,
    shape: Option<PlanShape>,
    use_hash: bool,
    batches: &[EventBatch],
) -> Vec<Signature> {
    let mut b = EngineBuilder::parse(src).unwrap().stock_routing().config(EngineConfig {
        plan: PlanConfig { use_hash, ..Default::default() },
        ..Default::default()
    });
    if let Some(s) = shape {
        b = b.shape(s);
    }
    let mut engine = b.build().unwrap();
    let mut out = Vec::new();
    let window = engine.analyzed().window;
    let mut round_out = Vec::new();
    for batch in batches {
        round_out.clear();
        round_out.extend(engine.push_columns(batch));
        check_round_invariants(&round_out, window);
        out.extend(round_out.iter().cloned());
    }
    round_out.clear();
    round_out.extend(engine.flush());
    check_round_invariants(&round_out, window);
    out.extend(round_out.iter().cloned());

    let mut sigs: Vec<Signature> = out.iter().map(|r| engine.record_signature(r)).collect();
    let n = sigs.len();
    sigs.sort();
    sigs.dedup();
    assert_eq!(n, sigs.len(), "duplicate matches emitted");
    sigs
}

/// Invariants 3 and 4: in-window spans, end-ts-ordered emission per round.
fn check_round_invariants(records: &[zstream::events::Record], window: u64) {
    for r in records {
        assert!(
            r.end_ts() - r.start_ts() <= window,
            "record span {}..{} exceeds window {window}",
            r.start_ts(),
            r.end_ts()
        );
    }
    for w in records.windows(2) {
        assert!(w[0].end_ts() <= w[1].end_ts(), "round output not end-ts ordered");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48 })]

    #[test]
    fn sequence_matches_oracle(events in stream_strategy(28, NAMES), batch in 1usize..12, hash: bool) {
        let src = "PATTERN IBM; Sun; Oracle WITHIN 12";
        let batches = packed(&events, batch);
        let expected = oracle_sigs(src, &batches);
        for shape in PlanShape::enumerate_all(3) {
            let got = engine_run(src, Some(shape), hash, &batches);
            prop_assert_eq!(&got, &expected);
        }
    }

    #[test]
    fn predicate_sequence_matches_oracle(events in stream_strategy(26, NAMES), batch in 1usize..10) {
        let src = "PATTERN IBM; Sun; Oracle WHERE IBM.price > Sun.price WITHIN 14";
        let batches = packed(&events, batch);
        let expected = oracle_sigs(src, &batches);
        let got = engine_run(src, None, true, &batches);
        prop_assert_eq!(&got, &expected);
    }

    #[test]
    fn equality_sequence_matches_oracle(events in stream_strategy(26, NAMES), hash: bool) {
        // Small volume domain (1..4) makes the equality selective but non-trivial.
        let src = "PATTERN IBM; Sun WHERE IBM.volume = Sun.volume WITHIN 15";
        let batches = packed(&events, 5);
        let expected = oracle_sigs(src, &batches);
        let got = engine_run(src, None, hash, &batches);
        prop_assert_eq!(&got, &expected);
    }

    #[test]
    fn negation_matches_oracle(events in stream_strategy(30, NAMES), batch in 1usize..10) {
        let src = "PATTERN IBM; !Sun; Oracle WITHIN 12";
        let batches = packed(&events, batch);
        let expected = oracle_sigs(src, &batches);
        let pushdown = engine_run(src, None, true, &batches);
        prop_assert_eq!(&pushdown, &expected);
        let mut b = EngineBuilder::parse(src).unwrap().stock_routing()
            .neg_strategy(NegStrategy::TopFilter);
        b = b.shape(PlanShape::left_deep(2));
        let mut engine = b.build().unwrap();
        let mut out = Vec::new();
        for batch in &batches { out.extend(engine.push_columns(batch)); }
        out.extend(engine.flush());
        let mut sigs: Vec<Signature> = out.iter().map(|r| engine.record_signature(r)).collect();
        sigs.sort();
        sigs.dedup();
        prop_assert_eq!(&sigs, &expected);
    }

    #[test]
    fn kleene_matches_oracle(events in stream_strategy(22, NAMES), batch in 1usize..8) {
        let batches = packed(&events, batch);
        for src in [
            "PATTERN IBM; Sun^2; Oracle WITHIN 12",
            "PATTERN IBM; Sun*; Oracle WITHIN 10",
            "PATTERN IBM; Sun+; Oracle WITHIN 10",
        ] {
            let expected = oracle_sigs(src, &batches);
            let got = engine_run(src, None, true, &batches);
            prop_assert_eq!(&got, &expected, "query {}", src);
        }
    }

    #[test]
    fn conjunction_disjunction_match_oracle(events in stream_strategy(20, NAMES), batch in 1usize..8) {
        let batches = packed(&events, batch);
        for src in [
            "PATTERN IBM & Sun WITHIN 8",
            "PATTERN (IBM | Sun); Oracle WITHIN 8",
        ] {
            let expected = oracle_sigs(src, &batches);
            let got = engine_run(src, None, true, &batches);
            prop_assert_eq!(&got, &expected, "query {}", src);
        }
    }

    #[test]
    fn nfa_agrees_with_oracle(events in stream_strategy(26, NAMES)) {
        let src = "PATTERN IBM; Sun; Oracle WHERE IBM.price > Sun.price WITHIN 12";
        let aq = Arc::new(analyze(
            &Query::parse(src).unwrap(),
            &SchemaMap::uniform(zstream::events::Schema::stocks()),
        ).unwrap());
        let intake = build_intake(&aq, Some("name")).unwrap();
        let expected = common::oracle_sigs(src, Some("name"), &events);
        let mut nfa = zstream::nfa::NfaEngine::new(aq, intake).unwrap();
        let mut sigs: Vec<Signature> = Vec::new();
        for e in &events {
            for m in nfa.push(e.clone()) {
                sigs.push(nfa.match_signature(&m));
            }
        }
        sigs.sort();
        sigs.dedup();
        prop_assert_eq!(&sigs, &expected);
    }
}
