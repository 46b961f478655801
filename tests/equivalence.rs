//! Cross-engine equivalence: the tree engine (every plan shape), the NFA
//! baseline and the brute-force oracle must agree on every match, over
//! generated workloads from the `zstream-workload` crate.

mod common;

use std::sync::Arc;

use common::{handles, Signature};
use zstream::core::reference::reference_signatures;
use zstream::core::{build_intake, EngineBuilder, NegStrategy, PlanConfig, PlanShape};
use zstream::events::{EventBatch, EventRef, Schema};
use zstream::lang::{analyze, Query, SchemaMap};
use zstream::nfa::NfaEngine;
use zstream::workload::{StockConfig, StockGenerator};

/// Sorted, deduplicated signatures of one engine's output over `batches`.
fn tree_sigs(mut engine: zstream::core::Engine, batches: &[EventBatch]) -> Vec<Signature> {
    let mut out = Vec::new();
    for batch in batches {
        out.extend(engine.push_columns(batch));
    }
    out.extend(engine.flush());
    let mut sigs: Vec<Signature> = out.iter().map(|r| engine.record_signature(r)).collect();
    sigs.sort();
    sigs.dedup();
    sigs
}

fn run_tree(
    src: &str,
    shape: Option<PlanShape>,
    neg: NegStrategy,
    batches: &[EventBatch],
) -> Vec<Signature> {
    let mut b = EngineBuilder::parse(src).unwrap().stock_routing().neg_strategy(neg);
    if let Some(s) = shape {
        b = b.shape(s);
    }
    tree_sigs(b.build().unwrap(), batches)
}

fn run_nfa(src: &str, events: &[EventRef]) -> Vec<Signature> {
    let aq = Arc::new(
        analyze(&Query::parse(src).unwrap(), &SchemaMap::uniform(Schema::stocks())).unwrap(),
    );
    let intake = build_intake(&aq, Some("name")).unwrap();
    let mut nfa = NfaEngine::new(aq, intake).unwrap();
    let mut sigs: Vec<Signature> = Vec::new();
    for e in events {
        for m in nfa.push(e.clone()) {
            sigs.push(nfa.match_signature(&m));
        }
    }
    let n = sigs.len();
    sigs.sort();
    sigs.dedup();
    assert_eq!(n, sigs.len(), "NFA emitted duplicates for {src}");
    sigs
}

/// The brute-force oracle with route-by-name intake (the classes here are
/// stock symbols).
fn oracle(src: &str, events: &[EventRef]) -> Vec<Signature> {
    common::oracle_sigs(src, Some("name"), events)
}

/// A generated stream in batches of `batch` rows (one tree-engine round
/// each), and the batches' row handles for the NFA and the oracle.
fn stream(
    seed: u64,
    len: usize,
    rates: &[(&str, f64)],
    batch: usize,
) -> (Vec<EventBatch>, Vec<EventRef>) {
    let batches =
        StockGenerator::generate_batches(StockConfig::with_rates(rates, len, seed), batch);
    let events = handles(&batches);
    (batches, events)
}

#[test]
fn three_engines_agree_on_query4() {
    let src = "PATTERN IBM; Sun; Oracle WHERE IBM.price > Sun.price WITHIN 40";
    for seed in 0..5 {
        let (batches, events) = stream(seed, 90, &[("IBM", 1.0), ("Sun", 1.0), ("Oracle", 1.0)], 8);
        let expected = oracle(src, &events);
        assert_eq!(run_nfa(src, &events), expected, "NFA vs oracle, seed {seed}");
        for shape in PlanShape::enumerate_all(3) {
            let got = run_tree(src, Some(shape.clone()), NegStrategy::PushdownPreferred, &batches);
            assert_eq!(got, expected, "tree {shape} vs oracle, seed {seed}");
        }
    }
}

#[test]
fn three_engines_agree_on_query5_skewed_rates() {
    let src = "PATTERN IBM; Sun; Oracle WITHIN 30";
    for seed in 0..4 {
        let (batches, events) =
            stream(seed, 80, &[("IBM", 1.0), ("Sun", 5.0), ("Oracle", 5.0)], 16);
        let expected = oracle(src, &events);
        assert_eq!(run_nfa(src, &events), expected, "seed {seed}");
        for shape in [PlanShape::left_deep(3), PlanShape::right_deep(3)] {
            let got = run_tree(src, Some(shape), NegStrategy::PushdownPreferred, &batches);
            assert_eq!(got, expected, "seed {seed}");
        }
    }
}

#[test]
fn three_engines_agree_on_query6_four_classes() {
    let src = "PATTERN IBM; Sun; Oracle; Google \
               WHERE Oracle.price > Sun.price AND Oracle.price > Google.price \
               WITHIN 25";
    let rates = [("IBM", 1.0), ("Sun", 1.0), ("Oracle", 1.0), ("Google", 1.0)];
    for seed in 0..3 {
        let (batches, events) = stream(seed, 70, &rates, 8);
        let expected = oracle(src, &events);
        assert_eq!(run_nfa(src, &events), expected, "seed {seed}");
        for shape in [
            PlanShape::left_deep(4),
            PlanShape::right_deep(4),
            PlanShape::bushy(4),
            PlanShape::inner4(),
        ] {
            let got = run_tree(src, Some(shape), NegStrategy::PushdownPreferred, &batches);
            assert_eq!(got, expected, "seed {seed}");
        }
    }
}

#[test]
fn three_engines_agree_on_negation_query7() {
    let src = "PATTERN IBM; !Sun; Oracle WITHIN 35";
    for seed in 0..6 {
        let (batches, events) = stream(seed, 90, &[("IBM", 1.0), ("Sun", 2.0), ("Oracle", 1.0)], 8);
        let expected = oracle(src, &events);
        assert_eq!(run_nfa(src, &events), expected, "NFA, seed {seed}");
        let pushdown = run_tree(src, None, NegStrategy::PushdownPreferred, &batches);
        let top = run_tree(src, None, NegStrategy::TopFilter, &batches);
        assert_eq!(pushdown, expected, "NSEQ, seed {seed}");
        assert_eq!(top, expected, "NEG-on-top, seed {seed}");
    }
}

#[test]
fn three_engines_agree_on_negation_with_predicates() {
    let src = "PATTERN IBM; !Sun; Oracle WHERE Sun.price > Oracle.price WITHIN 35";
    for seed in 0..5 {
        let (batches, events) = stream(seed, 80, &[("IBM", 1.0), ("Sun", 1.0), ("Oracle", 1.0)], 4);
        let expected = oracle(src, &events);
        assert_eq!(run_nfa(src, &events), expected, "NFA, seed {seed}");
        assert_eq!(
            run_tree(src, None, NegStrategy::PushdownPreferred, &batches),
            expected,
            "tree, seed {seed}"
        );
    }
}

#[test]
fn optimizer_chosen_plan_agrees_with_fixed_plans() {
    // No forced shape: the optimizer picks; results must be identical.
    let src = "PATTERN IBM; Sun; Oracle WHERE IBM.volume = Oracle.volume WITHIN 50";
    for seed in 0..4 {
        let (batches, events) = stream(seed, 90, &[("IBM", 4.0), ("Sun", 1.0), ("Oracle", 4.0)], 8);
        let expected = oracle(src, &events);
        let got = run_tree(src, None, NegStrategy::PushdownPreferred, &batches);
        assert_eq!(got, expected, "seed {seed}");
    }
}

#[test]
fn weblog_query8_tree_vs_nfa() {
    use zstream::workload::{WeblogConfig, WeblogGenerator};
    let (batches, _) = WeblogGenerator::generate_batches(&WeblogConfig::scaled(4_000, 11), 64);
    let events = handles(&batches);
    let src = "PATTERN Publication; Project; Course \
               WHERE Publication.ip = Project.ip AND Project.ip = Course.ip \
               WITHIN 10 hours";
    let schemas = SchemaMap::uniform(Schema::weblog());
    let aq = Arc::new(analyze(&Query::parse(src).unwrap(), &schemas).unwrap());
    // Class names equal the category values, so route by the category field.
    let intake = build_intake(&aq, Some("category")).unwrap();
    let expected = reference_signatures(&aq, &intake, &events);

    let mut nfa = NfaEngine::new(aq.clone(), intake.clone()).unwrap();
    let mut nfa_sigs: Vec<Signature> = Vec::new();
    for e in &events {
        for m in nfa.push(e.clone()) {
            nfa_sigs.push(nfa.match_signature(&m));
        }
    }
    nfa_sigs.sort();
    nfa_sigs.dedup();
    assert_eq!(nfa_sigs, expected, "NFA vs oracle on weblog");

    for shape in [PlanShape::left_deep(3), PlanShape::right_deep(3)] {
        let compiled = zstream::core::CompiledQuery::with_shape(
            &Query::parse(src).unwrap(),
            &schemas,
            None,
            shape.clone(),
            NegStrategy::PushdownPreferred,
        )
        .unwrap();
        let plan = compiled.physical_plan(PlanConfig::default(), &[]).unwrap();
        let engine = zstream::core::Engine::new(compiled.aq.clone(), plan, &intake);
        assert_eq!(tree_sigs(engine, &batches), expected, "tree {shape} vs oracle on weblog");
    }
}
