//! Adaptive-engine correctness (§5.3): plan switches mid-stream must be
//! invisible in the output — no duplicates, no losses — and the controller
//! must actually switch plans when the stream's statistics flip.

mod common;

use common::{assert_live, handles, oracle_sigs, rebatch};
use zstream::core::{
    build_intake, AdaptiveConfig, AdaptiveEngine, CompiledQuery, Engine, EngineBuilder,
    NegStrategy, PlanConfig, PlanShape, Statistics,
};
use zstream::events::{EventBatch, EventRef, Schema};
use zstream::lang::{Query, SchemaMap};
use zstream::workload::{StockConfig, StockGenerator};

type Signature = Vec<Vec<usize>>;

/// Three-phase stream à la Figure 14: IBM rare, then Sun rare, then Oracle
/// rare. Rates flip hard enough to trigger re-planning.
fn three_phase_stream(seed: u64, per_phase: usize) -> Vec<EventRef> {
    let phases = [
        [("IBM", 1.0), ("Sun", 20.0), ("Oracle", 20.0)],
        [("IBM", 20.0), ("Sun", 1.0), ("Oracle", 20.0)],
        [("IBM", 20.0), ("Sun", 20.0), ("Oracle", 1.0)],
    ];
    let mut out = Vec::new();
    let mut ts_base = 0;
    for (i, rates) in phases.iter().enumerate() {
        let events =
            StockGenerator::generate(StockConfig::with_rates(rates, per_phase, seed + i as u64));
        for e in &events {
            // Re-timestamp so phases concatenate in time order.
            let shifted = zstream::events::Event::builder(Schema::stocks(), ts_base + e.ts())
                .value(e.value(0))
                .value(e.value(1))
                .value(e.value(2))
                .value(e.value(3))
                .build_ref()
                .unwrap();
            out.push(shifted);
        }
        ts_base += per_phase as u64;
    }
    out
}

/// A fresh adaptive engine (optimizer-chosen initial plan, checking
/// every 4 rounds) over `src` with route-by-name intake.
fn adaptive_engine(src: &str, initial: Option<Statistics>) -> AdaptiveEngine {
    let query = Query::parse(src).unwrap();
    let schemas = SchemaMap::uniform(Schema::stocks());
    let compiled = CompiledQuery::optimize(&query, &schemas, None).unwrap();
    let plan = compiled.physical_plan(PlanConfig::default(), &[]).unwrap();
    let intake = build_intake(&compiled.aq, Some("name")).unwrap();
    let engine = Engine::new(compiled.aq.clone(), plan, &intake);
    AdaptiveEngine::new(
        engine,
        compiled.spec.clone(),
        initial.unwrap_or_else(|| compiled.stats.clone()),
        AdaptiveConfig { check_interval: 4, ..Default::default() },
    )
}

/// The adaptive engine over `batches` (one round each): sorted signatures,
/// replans and plan switches.
fn adaptive_run(src: &str, batches: &[EventBatch]) -> (Vec<Signature>, u64, u64) {
    let mut adaptive = adaptive_engine(src, None);
    let mut out = Vec::new();
    for batch in batches {
        out.extend(adaptive.push_columns(batch));
    }
    out.extend(adaptive.flush());
    let mut sigs: Vec<Signature> =
        out.iter().map(|r| adaptive.engine().record_signature(r)).collect();
    let n = sigs.len();
    sigs.sort();
    sigs.dedup();
    assert_eq!(n, sigs.len(), "adaptive engine emitted duplicates");
    let m = adaptive.engine().metrics();
    (sigs, m.replans, m.plan_switches)
}

fn static_run(src: &str, shape: PlanShape, batches: &[EventBatch]) -> Vec<Signature> {
    let mut engine = EngineBuilder::parse(src)
        .unwrap()
        .stock_routing()
        .shape(shape)
        .neg_strategy(NegStrategy::PushdownPreferred)
        .build()
        .unwrap();
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

#[test]
fn adaptive_output_equals_static_output() {
    let src = "PATTERN IBM; Sun; Oracle WITHIN 40";
    for seed in [0, 100, 200] {
        let batches = rebatch(&three_phase_stream(seed, 250), &[16]);
        let (adaptive_sigs, _, _) = adaptive_run(src, &batches);
        let static_sigs = static_run(src, PlanShape::left_deep(3), &batches);
        assert_eq!(adaptive_sigs, static_sigs, "seed {seed}");
    }
}

#[test]
fn adaptive_engine_switches_plans_on_drift() {
    let src = "PATTERN IBM; Sun; Oracle WITHIN 40";
    let batches = rebatch(&three_phase_stream(7, 400), &[16]);
    let (_, replans, switches) = adaptive_run(src, &batches);
    assert!(replans >= 1, "drifting rates should trigger re-planning");
    assert!(switches >= 1, "the optimal shape changes across phases");
}

/// The columnar intake path is a first-class citizen of the adaptive
/// engine: identical output to the static plans, and the controller still
/// measures drift and switches plans on round boundaries.
#[test]
fn adaptive_columnar_intake_equals_static_and_still_switches() {
    let src = "PATTERN IBM; Sun; Oracle WITHIN 40";
    for seed in [0, 7] {
        let batches = rebatch(&three_phase_stream(seed, 300), &[16]);
        let (columnar_sigs, replans, switches) = adaptive_run(src, &batches);
        let static_sigs = static_run(src, PlanShape::left_deep(3), &batches);
        assert_eq!(columnar_sigs, static_sigs, "seed {seed}");
        assert!(replans >= 1, "drifting rates should trigger re-planning (seed {seed})");
        assert!(switches >= 1, "the optimal shape changes across phases (seed {seed})");
    }
}

/// Plan switches between rounds that each end pruned to the EAT floor:
/// every batch spans more than ten windows, so a switch finds at most one
/// window of leaf history to replay. The output still equals the oracle,
/// with no duplicate, and every round leaves only live state.
#[test]
fn switches_across_batches_wider_than_ten_windows_equal_the_oracle() {
    let src = "PATTERN IBM; Sun; Oracle WITHIN 5";
    // One event per time unit, so a 64-row batch spans 63.
    let events: Vec<EventRef> = three_phase_stream(7, 600)
        .iter()
        .enumerate()
        .map(|(i, e)| {
            let mut event = zstream::events::Event::builder(Schema::stocks(), i as u64 + 1);
            for field in 0..4 {
                event = event.value(e.value(field));
            }
            event.build_ref().unwrap()
        })
        .collect();
    let batches = rebatch(&events, &[64]);
    let mut adaptive = adaptive_engine(src, None);
    let mut out = Vec::new();
    for batch in &batches {
        let span = batch.ts_column()[batch.len() - 1] - batch.ts_column()[0];
        assert!(batch.len() < 64 || span >= 10 * 5, "a batch spans {span} time units");
        out.extend(adaptive.push_columns(batch));
        assert_live(adaptive.engine(), src);
    }
    out.extend(adaptive.flush());
    let mut sigs: Vec<Signature> =
        out.iter().map(|r| adaptive.engine().record_signature(r)).collect();
    let n = sigs.len();
    sigs.sort();
    sigs.dedup();
    assert_eq!(n, sigs.len(), "adaptive engine emitted duplicates");
    assert!(adaptive.engine().metrics().plan_switches >= 1, "the stream should switch plans");
    assert!(!sigs.is_empty());
    assert_eq!(sigs, oracle_sigs(src, Some("name"), &handles(&batches)));
}

/// The controller samples predicates between a check round's intake and
/// its assembly: a predicate over the trigger class (`Oracle`) is measured
/// on the batch's own trigger events, which the round then drains. A check
/// whose batch holds no `Oracle` (phase three makes it rare) keeps the
/// estimate it had instead of reading the uniform default as drift.
#[test]
fn trigger_class_predicates_are_sampled_before_the_round_drains_them() {
    use std::sync::Arc;
    use zstream::obs::Obs;

    let src = "PATTERN IBM; Sun; Oracle WHERE Oracle.price > 1000 * Sun.price WITHIN 40";
    let mut adaptive = adaptive_engine(src, None);
    let hub = Arc::new(Obs::new());
    adaptive.attach_obs(hub.clone(), "q0");
    for batch in rebatch(&three_phase_stream(7, 400), &[16]) {
        adaptive.push_columns(&batch);
    }
    let decisions = hub.snapshot().decisions;
    assert!(!decisions.is_empty(), "drifting rates should trigger re-planning");
    for d in &decisions {
        let pred = d.measured.iter().find(|(name, _)| name == "pred.0").map(|(_, v)| *v);
        assert!(pred.is_some_and(|v| v < 0.1), "decision {}: pred.0 read {pred:?}", d.seq);
    }
}

#[test]
fn adaptive_with_predicates_stays_correct() {
    let src = "PATTERN IBM; Sun; Oracle WHERE IBM.price > Sun.price WITHIN 35";
    let batches = rebatch(&three_phase_stream(42, 200), &[8]);
    let (adaptive_sigs, _, _) = adaptive_run(src, &batches);
    let static_sigs = static_run(src, PlanShape::right_deep(3), &batches);
    assert_eq!(adaptive_sigs, static_sigs);
}

/// Every replan the controller takes must land in the decision log with
/// both sides of the loop: the sampled statistics and cost estimates it
/// decided on, and the post-hoc observed actuals back-filled once the
/// next measurement window closed ([`AdaptiveEngine::finalize_observations`]
/// closes the final window at end of stream).
#[test]
fn every_replan_is_logged_with_estimates_and_actuals() {
    use std::sync::Arc;
    use zstream::obs::Obs;

    let src = "PATTERN IBM; Sun; Oracle WITHIN 40";
    let mut adaptive = adaptive_engine(src, None);
    let hub = Arc::new(Obs::new());
    adaptive.attach_obs(hub.clone(), "q0");
    for batch in rebatch(&three_phase_stream(7, 400), &[16]) {
        adaptive.push_columns(&batch);
    }
    adaptive.finalize_observations();
    adaptive.flush();

    let replans = adaptive.engine().metrics().replans;
    assert!(replans >= 1, "drifting rates should trigger re-planning");
    let snap = hub.snapshot();
    assert_eq!(
        snap.decisions.len() as u64,
        replans,
        "one decision-log entry per replan, no more, no less"
    );
    assert_eq!(snap.counter_total("zstream_replans_total"), replans);
    for d in &snap.decisions {
        assert_eq!(d.query, "q0");
        assert!(!d.measured.is_empty(), "decision {} has no sampled statistics", d.seq);
        assert!(
            d.measured.iter().any(|(name, _)| name.starts_with("rate.")),
            "sampled statistics include per-class rates"
        );
        assert_eq!(d.candidates.len(), 2, "incumbent + proposed plan per decision");
        assert_eq!(
            d.candidates.iter().filter(|c| c.chosen).count(),
            1,
            "exactly one candidate is chosen"
        );
        for c in &d.candidates {
            assert!(!c.plan.is_empty());
            assert!(
                c.est_cost.is_finite() || (c.plan == "(none)" && c.est_cost.is_infinite()),
                "cost estimates are recorded per candidate"
            );
        }
        let actuals = d
            .actuals
            .as_ref()
            .unwrap_or_else(|| panic!("decision {} never got post-hoc actuals", d.seq));
        assert!(!actuals.is_empty());
        // Replan trace events mirror the log.
    }
    let replan_traces =
        snap.trace.iter().filter(|t| t.kind == zstream::obs::TraceKind::Replan).count();
    assert_eq!(replan_traces as u64, replans, "each replan also lands in the trace ring");
}

#[test]
fn stable_stream_does_not_thrash() {
    let src = "PATTERN IBM; Sun; Oracle WITHIN 40";
    let batches = StockGenerator::generate_batches(
        StockConfig::uniform(&["IBM", "Sun", "Oracle"], 600, 5),
        16,
    );
    // Initial statistics match the stream (uniform): no switches expected.
    let stats = Statistics::uniform(3, 0, 40).with_rates(&[1.0 / 3.0; 3]);
    let mut adaptive = adaptive_engine(src, Some(stats));
    for batch in &batches {
        adaptive.push_columns(batch);
    }
    assert_eq!(adaptive.engine().metrics().plan_switches, 0);
}
