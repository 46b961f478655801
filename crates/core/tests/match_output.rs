//! Packed match output: what `Engine::push_rows` hands the shard is the
//! same matches `push_columns` builds and the brute-force oracle
//! enumerates, for every kind of plan root — and it holds the round's
//! source batches once instead of a handle per matched event.

use std::sync::Arc;

use zstream_core::physical::NodeKind;
use zstream_core::{reference_signatures, CompiledParts, EngineBuilder, NegStrategy, PhysicalPlan};
use zstream_core::{Engine, SharedPredIndex};
use zstream_events::{stock, EventBatch, EventRef, Record, Slot};

/// Deterministic stock stream over `names`, timestamps advancing by 0–2
/// (ties included).
fn stream(seed: u64, len: usize, names: &[&str]) -> Vec<EventRef> {
    let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut ts = 0u64;
    (0..len)
        .map(|i| {
            ts += next() % 3;
            let name = names[(next() as usize) % names.len()];
            stock(ts, i as i64, name, (next() % 1000) as f64 / 10.0, (next() % 100) as i64)
        })
        .collect()
}

fn compile(src: &str, neg: NegStrategy) -> CompiledParts {
    EngineBuilder::parse(src).unwrap().stock_routing().neg_strategy(neg).compile().unwrap()
}

/// Per slot its kind and its events' identities, plus the span: everything
/// two equal matches agree on.
fn shape(r: &Record) -> (Vec<(u8, Vec<u64>)>, u64, u64) {
    let slots = r
        .slots()
        .iter()
        .map(|s| {
            let kind = match s {
                Slot::None => 0,
                Slot::One(_) => 1,
                Slot::Many(_) => 2,
            };
            (kind, s.events().iter().map(EventRef::identity).collect())
        })
        .collect();
    (slots, r.start_ts(), r.end_ts())
}

/// Whether a plan has the shape a case is about.
type PlanCheck = fn(&PhysicalPlan) -> bool;

fn root(plan: &PhysicalPlan) -> &NodeKind {
    &plan.nodes[plan.root].kind
}

/// Feeds `batches` to one engine through `push_rows` (the shard entry) and
/// to another through `push_columns`; checks the packed output, built,
/// equals the built output match for match, and both equal the oracle.
/// Returns the most sources one packed round held.
fn check_root(parts: &CompiledParts, batches: &[EventBatch], shape_ok: PlanCheck) -> usize {
    let mut packed = parts.engine().unwrap();
    assert!(shape_ok(packed.plan()), "unexpected plan:\n{:?}", packed.plan());
    let mut index = SharedPredIndex::new();
    packed.subscribe(&mut index);
    let mut built = parts.engine().unwrap();
    let (mut got, mut want, mut most_sources) = (Vec::new(), Vec::new(), 0);
    for batch in batches {
        index.begin_batch();
        let matches = packed.push_rows(batch, None, &mut index);
        most_sources = most_sources.max(matches.num_sources());
        got.extend(matches.records());
        want.extend(built.push_columns(batch));
    }
    assert!(packed.flush().is_empty() && built.flush().is_empty());
    let shapes = |rs: &[Record]| rs.iter().map(shape).collect::<Vec<_>>();
    assert_eq!(shapes(&got), shapes(&want));

    let handles: Vec<EventRef> = batches.iter().flat_map(EventBatch::iter).collect();
    let mut sigs: Vec<_> = got.iter().map(|r| packed.record_signature(r)).collect();
    sigs.sort();
    assert_eq!(sigs, reference_signatures(parts.analyzed(), &parts.intake, &handles));
    assert!(!got.is_empty(), "the stream should match");
    most_sources
}

#[test]
fn packed_output_equals_built_output_and_the_oracle_for_every_root_kind() {
    use NegStrategy::{PushdownPreferred as Pushdown, TopFilter};
    // (query, negation strategy, expected plan, whether one round's matches
    // can span two source batches)
    type Case = (&'static str, NegStrategy, PlanCheck, bool);
    let cases: [Case; 9] = [
        (
            "PATTERN IBM; Sun; Oracle WITHIN 20",
            Pushdown,
            |p| matches!(root(p), NodeKind::Seq { .. }),
            true,
        ),
        (
            "PATTERN IBM & Sun WITHIN 12",
            Pushdown,
            |p| matches!(root(p), NodeKind::Conj { .. }),
            true,
        ),
        (
            "PATTERN IBM | Sun WITHIN 10",
            Pushdown,
            |p| matches!(root(p), NodeKind::Disj { .. }),
            false,
        ),
        // NSEQ is never a root (a negation cannot open or close a pattern):
        // it feeds a SEQ root, whose matches carry its `(b, Rr)` slots.
        (
            "PATTERN IBM; !Sun; Oracle WITHIN 20",
            Pushdown,
            |p| p.nodes.iter().any(|n| matches!(n.kind, NodeKind::Nseq { .. })),
            true,
        ),
        (
            "PATTERN IBM; Sun^2; Oracle WITHIN 25",
            Pushdown,
            |p| matches!(root(p), NodeKind::Kseq { .. }),
            true,
        ),
        // Leading star: a group may be empty, and the span then comes from
        // the end anchor alone.
        (
            "PATTERN Sun*; Oracle WITHIN 12",
            Pushdown,
            |p| matches!(root(p), NodeKind::Kseq { .. }),
            true,
        ),
        (
            "PATTERN IBM; Sun^2 WITHIN 15",
            Pushdown,
            |p| matches!(root(p), NodeKind::Kseq { end: None, .. }),
            true,
        ),
        (
            "PATTERN IBM; !Sun; Oracle WHERE Sun.price > IBM.price AND Sun.price < Oracle.price \
             WITHIN 20",
            TopFilter,
            |p| matches!(root(p), NodeKind::NegTop { .. }),
            true,
        ),
        ("PATTERN IBM WITHIN 10", Pushdown, |p| matches!(root(p), NodeKind::Leaf { .. }), false),
    ];
    for (src, neg, plan, spans_batches) in cases {
        let parts = compile(src, neg);
        let mut most_sources = 0;
        for seed in 0..3 {
            let events = stream(seed, 60, &["IBM", "Sun", "Oracle"]);
            // 7-row chunks: windows cross chunk boundaries.
            let batches: Vec<EventBatch> =
                events.chunks(7).map(|c| EventBatch::from_events(c).unwrap()).collect();
            most_sources = most_sources.max(check_root(&parts, &batches, plan));
        }
        assert_eq!(
            most_sources >= 2,
            spans_batches,
            "{src}: most sources in a round {most_sources}"
        );
    }
}

/// The mechanism, not just the output: `push_rows` returns N matches over
/// one source batch while the batch's refcount grows by the rows the leaf
/// buffers keep plus the one handle the packed matches hold — a `Record`
/// per match would add two handles per match. The leaves keep the 20 `IBM`
/// rows; the round drains the consumed `Sun` trigger leaf.
#[test]
fn packed_matches_hold_one_handle_per_source() {
    let parts = compile("PATTERN IBM; Sun WITHIN 1000", NegStrategy::PushdownPreferred);
    let events: Vec<EventRef> =
        (0..40).map(|i| stock(i + 1, i as i64, ["IBM", "Sun"][i as usize % 2], 1.0, 1)).collect();
    let batch = EventBatch::from_events(&events).unwrap();
    drop(events);
    let mut engine: Engine = parts.engine().unwrap();
    let mut index = SharedPredIndex::new();
    engine.subscribe(&mut index);
    index.begin_batch();

    let before = Arc::strong_count(batch.data());
    let matches = engine.push_rows(&batch, None, &mut index);
    let grown = Arc::strong_count(batch.data()) - before;
    let leaf_rows: usize =
        engine.plan().nodes.iter().filter(|n| n.is_leaf()).map(|n| n.buf.len()).sum();
    assert_eq!(matches.len(), 20 * 21 / 2, "every IBM pairs with every later Sun");
    assert_eq!(leaf_rows, 20);
    assert!(grown <= leaf_rows + 1, "{grown} handles for {} matches", matches.len());
    drop(matches);
    assert_eq!(Arc::strong_count(batch.data()) - before, leaf_rows);
}
