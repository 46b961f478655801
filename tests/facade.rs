//! End-to-end smoke test of the `zstream::prelude` facade: parse a query,
//! build an engine with stock routing, pack a hand-written stream into an
//! [`EventBatch`], push it, and check the match count and contents —
//! exactly the path the README quickstart shows.

use zstream::prelude::*;

/// A fixed five-event stream with exactly one IBM; Sun; Oracle match inside
/// the window: IBM@1, Sun@2, Oracle@4 (the Sun@9 tail starts a partial match
/// that never completes).
fn fixed_stream() -> Vec<EventRef> {
    vec![
        stock(1, 0, "IBM", 106.0, 100),
        stock(2, 1, "Sun", 18.0, 500),
        stock(3, 2, "Google", 512.0, 50),
        stock(4, 3, "Oracle", 21.0, 150),
        stock(9, 4, "Sun", 19.0, 200),
    ]
}

#[test]
fn prelude_end_to_end_sequence() {
    let query = Query::parse("PATTERN IBM; Sun; Oracle WITHIN 200 RETURN IBM, Sun, Oracle")
        .expect("quickstart query parses");

    let mut engine =
        EngineBuilder::new(query).stock_routing().build().expect("engine builds for stock schema");

    let batch = EventBatch::from_events(&fixed_stream()).expect("one schema");
    let mut matches: Vec<Record> = engine.push_columns(&batch);
    matches.extend(engine.flush());

    assert_eq!(matches.len(), 1, "exactly one IBM; Sun; Oracle composite");
    let record = &matches[0];
    assert_eq!(record.start_ts(), 1);
    assert_eq!(record.end_ts(), 4);
}

#[test]
fn prelude_end_to_end_with_predicate_and_generator() {
    // Same pattern plus a multi-class predicate, over a generated stream; the
    // engine must agree with a brute-force count over the same events.
    let src = "PATTERN IBM; Sun WHERE IBM.price > Sun.price WITHIN 50";
    let events = StockGenerator::generate(StockConfig::uniform(&["IBM", "Sun"], 400, 11));

    let mut engine = EngineBuilder::parse(src).unwrap().stock_routing().build().unwrap();
    let mut got = 0usize;
    for chunk in events.chunks(128) {
        got += engine.push_columns(&EventBatch::from_events(chunk).unwrap()).len();
    }
    got += engine.flush().len();

    let name_of = |e: &EventRef| e.value_by_name("name").unwrap().as_str().unwrap().to_string();
    let price_of = |e: &EventRef| e.value_by_name("price").unwrap().as_f64().unwrap();
    let mut expected = 0usize;
    for (i, a) in events.iter().enumerate() {
        if name_of(a) != "IBM" {
            continue;
        }
        for b in &events[i + 1..] {
            if name_of(b) == "Sun"
                && b.ts() > a.ts()
                && b.ts() - a.ts() <= 50
                && price_of(a) > price_of(b)
            {
                expected += 1;
            }
        }
    }

    assert!(expected > 0, "generated stream should contain matches");
    assert_eq!(got, expected, "engine count equals brute-force count");
}

#[test]
fn plan_shapes_agree_on_match_count() {
    // The facade exposes plan shapes; every shape of the 3-leaf pattern must
    // produce the same number of composites.
    let src = "PATTERN IBM; Sun; Oracle WITHIN 30";
    let events = StockGenerator::generate(StockConfig::uniform(&["IBM", "Sun", "Oracle"], 300, 5));

    let mut counts = Vec::new();
    for shape in PlanShape::enumerate_all(3) {
        let mut engine =
            EngineBuilder::parse(src).unwrap().stock_routing().shape(shape).build().unwrap();
        let mut n = 0usize;
        for chunk in events.chunks(128) {
            n += engine.push_columns(&EventBatch::from_events(chunk).unwrap()).len();
        }
        n += engine.flush().len();
        counts.push(n);
    }
    assert!(counts.windows(2).all(|w| w[0] == w[1]), "all shapes agree: {counts:?}");
    assert!(counts[0] > 0, "stream should contain at least one match");
}
