//! Oracle tests: the engine must produce *exactly* the matches enumerated by
//! the brute-force reference matcher — for every plan shape, with hashing on
//! and off, with EAT pruning on and off, and for every batch size. Streams
//! are packed into columnar batches (one engine round each), and the oracle
//! runs over the batches' own row handles, since a match signature
//! identifies events by handle. This
//! pins down the exactly-once semantics of the batch-iterator model (§4.3)
//! and the correctness of each operator algorithm (§4.4).

use zstream_core::reference::{reference_signatures, Signature};
use zstream_core::{build_intake, EngineBuilder, EngineConfig, NegStrategy, PlanConfig, PlanShape};
use zstream_events::{stock, EventBatch, EventRef};
use zstream_lang::Query;

/// Deterministic pseudo-random stream of stock events over a small alphabet,
/// with occasional timestamp ties to exercise boundary comparisons.
fn gen_stream(seed: u64, len: usize, names: &[&str]) -> Vec<EventRef> {
    let mut x = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut ts = 0u64;
    (0..len)
        .map(|i| {
            ts += next() % 3; // 0 => timestamp tie with the previous event
            let name = names[(next() as usize) % names.len()];
            let price = (next() % 1000) as f64 / 10.0;
            let volume = (next() % 100) as i64;
            stock(ts, i as i64, name, price, volume)
        })
        .collect()
}

/// Packs `events` into batches of `size` rows; returns the batches and
/// their row handles in stream order.
fn pack(events: &[EventRef], size: usize) -> (Vec<EventBatch>, Vec<EventRef>) {
    let batches: Vec<EventBatch> =
        events.chunks(size).map(|chunk| EventBatch::from_events(chunk).unwrap()).collect();
    let handles = batches.iter().flat_map(EventBatch::iter).collect();
    (batches, handles)
}

/// Sorted signatures of one engine's output over `batches`, asserting it
/// emitted no match twice.
fn run_signatures(engine: &mut zstream_core::Engine, batches: &[EventBatch]) -> Vec<Signature> {
    let mut out = Vec::new();
    for batch in batches {
        out.extend(engine.push_columns(batch));
    }
    out.extend(engine.flush());
    let mut sigs: Vec<Signature> = out.iter().map(|r| engine.record_signature(r)).collect();
    let before_dedup = sigs.len();
    sigs.sort();
    sigs.dedup();
    assert_eq!(before_dedup, sigs.len(), "engine emitted duplicate matches");
    sigs
}

fn engine_signatures(
    src: &str,
    shape: Option<PlanShape>,
    neg: NegStrategy,
    plan: PlanConfig,
    batches: &[EventBatch],
) -> Vec<Signature> {
    let mut b = EngineBuilder::parse(src)
        .unwrap()
        .stock_routing()
        .neg_strategy(neg)
        .config(EngineConfig { plan, ..Default::default() });
    if let Some(s) = shape {
        b = b.shape(s);
    }
    run_signatures(&mut b.build().unwrap(), batches)
}

fn reference_for(src: &str, events: &[EventRef]) -> Vec<Signature> {
    let query = Query::parse(src).unwrap();
    let (rewritten, _) = zstream_core::logical::rewrite_query(&query);
    let aq = zstream_lang::analyze(
        &rewritten,
        &zstream_lang::SchemaMap::uniform(zstream_events::Schema::stocks()),
    )
    .unwrap();
    let intake = build_intake(&aq, Some("name")).unwrap();
    reference_signatures(&aq, &intake, events)
}

/// Checks one query against the oracle across shapes, batches and toggles.
fn check_flat(src: &str, n_units: usize, seeds: std::ops::Range<u64>, names: &[&str]) {
    for seed in seeds {
        let events = gen_stream(seed, 40, names);
        let shapes: Vec<PlanShape> = if n_units <= 4 {
            PlanShape::enumerate_all(n_units)
        } else {
            vec![PlanShape::left_deep(n_units), PlanShape::right_deep(n_units)]
        };
        for (batch, hash, prune) in [
            (1, true, true),
            (7, true, true),
            (1000, true, true),
            (3, false, true),
            (5, true, false),
        ] {
            let (batches, handles) = pack(&events, batch);
            let expected = reference_for(src, &handles);
            for shape in &shapes {
                let cfg = PlanConfig { use_hash: hash, eat_pruning: prune };
                let got = engine_signatures(
                    src,
                    Some(shape.clone()),
                    NegStrategy::PushdownPreferred,
                    cfg,
                    &batches,
                );
                assert_eq!(
                    got, expected,
                    "mismatch: seed={seed} shape={shape} batch={batch} hash={hash} prune={prune} query={src}"
                );
            }
        }
    }
}

/// Checks a non-flat (conjunction/disjunction) query syntax-directed.
fn check_syntax(src: &str, seeds: std::ops::Range<u64>, names: &[&str]) {
    for seed in seeds {
        let events = gen_stream(seed, 30, names);
        for (batch, hash) in [(1, true), (6, true), (4, false), (1000, true)] {
            let (batches, handles) = pack(&events, batch);
            let expected = reference_for(src, &handles);
            let cfg = PlanConfig { use_hash: hash, ..Default::default() };
            let got = engine_signatures(src, None, NegStrategy::PushdownPreferred, cfg, &batches);
            assert_eq!(
                got, expected,
                "mismatch: seed={seed} batch={batch} hash={hash} query={src}"
            );
        }
    }
}

#[test]
fn pure_sequence_three_classes() {
    check_flat("PATTERN IBM; Sun; Oracle WITHIN 20", 3, 0..6, &["IBM", "Sun", "Oracle"]);
}

#[test]
fn sequence_with_range_predicate() {
    check_flat(
        "PATTERN IBM; Sun; Oracle WHERE IBM.price > Sun.price WITHIN 25",
        3,
        0..6,
        &["IBM", "Sun", "Oracle"],
    );
}

#[test]
fn sequence_with_equality_hash() {
    // Volume equality between first and last class (coarse domain => hits).
    check_flat(
        "PATTERN IBM; Sun; Oracle WHERE IBM.volume = Oracle.volume WITHIN 40",
        3,
        0..6,
        &["IBM", "Sun", "Oracle"],
    );
}

#[test]
fn four_class_sequence_all_shapes() {
    check_flat(
        "PATTERN IBM; Sun; Oracle; Google \
         WHERE Oracle.price > Sun.price AND Oracle.price > Google.price \
         WITHIN 18",
        4,
        0..4,
        &["IBM", "Sun", "Oracle", "Google"],
    );
}

#[test]
fn negation_pushdown_matches_oracle() {
    check_flat("PATTERN IBM; !Sun; Oracle WITHIN 20", 2, 0..8, &["IBM", "Sun", "Oracle"]);
}

#[test]
fn negation_with_anchor_predicate() {
    // Predicate between negation and its anchor: still push-down eligible.
    check_flat(
        "PATTERN IBM; !Sun; Oracle WHERE Sun.price < Oracle.price WITHIN 20",
        2,
        0..8,
        &["IBM", "Sun", "Oracle"],
    );
}

#[test]
fn negation_top_filter_matches_oracle() {
    let src = "PATTERN IBM; !Sun; Oracle WHERE Sun.price > IBM.price AND Sun.price < Oracle.price WITHIN 20";
    for seed in 0..8 {
        let events = gen_stream(seed, 40, &["IBM", "Sun", "Oracle"]);
        for batch in [1, 9, 1000] {
            let (batches, handles) = pack(&events, batch);
            let expected = reference_for(src, &handles);
            let got = engine_signatures(
                src,
                None,
                NegStrategy::TopFilter,
                PlanConfig::default(),
                &batches,
            );
            assert_eq!(got, expected, "seed={seed} batch={batch}");
        }
    }
}

#[test]
fn both_negation_strategies_agree() {
    let src = "PATTERN IBM; !Sun; Oracle WITHIN 15";
    for seed in 0..10 {
        let (batches, _) = pack(&gen_stream(seed, 45, &["IBM", "Sun", "Oracle"]), 4);
        let pushdown = engine_signatures(
            src,
            None,
            NegStrategy::PushdownPreferred,
            PlanConfig::default(),
            &batches,
        );
        let top =
            engine_signatures(src, None, NegStrategy::TopFilter, PlanConfig::default(), &batches);
        assert_eq!(pushdown, top, "strategies disagree at seed {seed}");
    }
}

#[test]
fn negated_disjunction_matches_oracle() {
    check_flat(
        "PATTERN IBM; !(Sun | Google); Oracle WITHIN 18",
        2,
        0..6,
        &["IBM", "Sun", "Oracle", "Google"],
    );
}

#[test]
fn rewritten_negated_conjunction_matches_oracle() {
    // `(!Sun & !Google)` rewrites to `!(Sun | Google)` (§5.2.1) and must
    // produce identical results.
    for seed in 0..4 {
        let (batches, events) = pack(&gen_stream(seed, 35, &["IBM", "Sun", "Oracle", "Google"]), 3);
        let a = reference_for("PATTERN IBM; (!Sun & !Google); Oracle WITHIN 18", &events);
        let b = reference_for("PATTERN IBM; !(Sun | Google); Oracle WITHIN 18", &events);
        assert_eq!(a, b);
        let got = engine_signatures(
            "PATTERN IBM; (!Sun & !Google); Oracle WITHIN 18",
            None,
            NegStrategy::PushdownPreferred,
            PlanConfig::default(),
            &batches,
        );
        assert_eq!(got, a, "seed={seed}");
    }
}

#[test]
fn counted_closure_matches_oracle() {
    check_flat("PATTERN IBM; Sun^2; Oracle WITHIN 25", 1, 0..8, &["IBM", "Sun", "Oracle"]);
}

#[test]
fn star_and_plus_closures_match_oracle() {
    check_flat("PATTERN IBM; Sun*; Oracle WITHIN 15", 1, 0..6, &["IBM", "Sun", "Oracle"]);
    check_flat("PATTERN IBM; Sun+; Oracle WITHIN 15", 1, 0..6, &["IBM", "Sun", "Oracle"]);
}

#[test]
fn closure_with_aggregate_matches_oracle() {
    check_flat(
        "PATTERN IBM; Sun^2; Oracle WHERE sum(Sun.volume) > 80 WITHIN 30",
        1,
        0..6,
        &["IBM", "Sun", "Oracle"],
    );
}

#[test]
fn closure_with_event_predicate_matches_oracle() {
    check_flat(
        "PATTERN IBM; Sun^2; Oracle WHERE Sun.price > IBM.price WITHIN 25",
        1,
        0..6,
        &["IBM", "Sun", "Oracle"],
    );
}

#[test]
fn closure_with_tail_class_matches_oracle() {
    check_flat(
        "PATTERN IBM; Sun^2; Oracle; Google WITHIN 25",
        2,
        0..5,
        &["IBM", "Sun", "Oracle", "Google"],
    );
}

#[test]
fn leading_closure_matches_oracle() {
    check_flat("PATTERN Sun*; Oracle WITHIN 12", 1, 0..6, &["Sun", "Oracle"]);
}

#[test]
fn trailing_counted_closure_matches_oracle() {
    check_flat("PATTERN IBM; Sun^2 WITHIN 15", 1, 0..8, &["IBM", "Sun"]);
}

#[test]
fn conjunction_matches_oracle() {
    check_syntax("PATTERN IBM & Sun WITHIN 12", 0..8, &["IBM", "Sun"]);
}

#[test]
fn conjunction_with_predicate_matches_oracle() {
    check_syntax("PATTERN IBM & Sun WHERE IBM.price > Sun.price WITHIN 15", 0..6, &["IBM", "Sun"]);
}

#[test]
fn disjunction_matches_oracle() {
    check_syntax("PATTERN IBM | Sun WITHIN 10", 0..6, &["IBM", "Sun", "Oracle"]);
}

#[test]
fn sequence_of_disjunction_matches_oracle() {
    check_syntax("PATTERN (IBM | Sun); Oracle WITHIN 14", 0..8, &["IBM", "Sun", "Oracle"]);
}

#[test]
fn sequence_of_conjunction_matches_oracle() {
    check_syntax("PATTERN (IBM & Sun); Oracle WITHIN 14", 0..6, &["IBM", "Sun", "Oracle"]);
}

#[test]
fn conjunction_of_sequences_matches_oracle() {
    check_syntax(
        "PATTERN (IBM; Sun) & (Oracle; Google) WITHIN 16",
        0..5,
        &["IBM", "Sun", "Oracle", "Google"],
    );
}

#[test]
fn equality_routing_query1_style() {
    // Query 1 shape: equality between first and last classes plus price
    // bands, over aliases of the whole stream (no name routing).
    let src = "PATTERN T1; T2; T3 \
               WHERE T1.name = T3.name AND T2.name = 'Google' \
                 AND T1.price > T2.price AND T3.price < T2.price \
               WITHIN 18";
    for seed in 0..5 {
        let (batches, events) = pack(&gen_stream(seed, 35, &["IBM", "Google", "Sun"]), 4);
        let query = Query::parse(src).unwrap();
        let aq = zstream_lang::analyze(
            &query,
            &zstream_lang::SchemaMap::uniform(zstream_events::Schema::stocks()),
        )
        .unwrap();
        let intake = build_intake(&aq, None).unwrap();
        let expected = reference_signatures(&aq, &intake, &events);
        for shape in PlanShape::enumerate_all(3) {
            for hash in [true, false] {
                let mut engine = EngineBuilder::parse(src)
                    .unwrap()
                    .shape(shape.clone())
                    .config(EngineConfig {
                        plan: PlanConfig { use_hash: hash, ..Default::default() },
                        ..Default::default()
                    })
                    .build()
                    .unwrap();
                let sigs = run_signatures(&mut engine, &batches);
                assert_eq!(sigs, expected, "seed={seed} shape={shape} hash={hash}");
            }
        }
    }
}
