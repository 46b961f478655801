//! A tour of the pattern language (§3 of the paper): every operator, its
//! semantics, and the physical plan the optimizer builds for it.
//!
//! ```sh
//! cargo run --example language_tour
//! ```

use zstream::core::{CompiledQuery, EngineBuilder};
use zstream::events::{stock, EventBatch};
use zstream::lang::{Query, SchemaMap};

fn demo(title: &str, src: &str, events: Vec<zstream::events::EventRef>) {
    demo_with(title, src, events, true)
}

/// `route` = treat class names as stock names ('IBM' means name='IBM');
/// alias-style queries (T1, T2, ...) filter through WHERE instead.
fn demo_with(title: &str, src: &str, events: Vec<zstream::events::EventRef>, route: bool) {
    println!("--- {title}");
    println!("    {src}");
    let compiled = CompiledQuery::optimize(
        &Query::parse(src).expect("query parses"),
        &SchemaMap::uniform(zstream::events::Schema::stocks()),
        None,
    )
    .expect("query compiles");
    match &compiled.spec {
        Some(spec) => println!("    plan: {}", spec.describe(&compiled.aq)),
        None => println!("    plan: syntax-directed (conjunction/disjunction)"),
    }
    let mut builder = EngineBuilder::parse(src).expect("parses");
    if route {
        builder = builder.stock_routing();
    }
    let mut engine = builder.build().expect("builds");
    let mut n = 0;
    // One event per batch: every event is its own engine round.
    for event in events.chunks(1) {
        for m in engine.push_columns(&EventBatch::from_events(event).expect("one schema")) {
            n += 1;
            if n <= 2 {
                println!("    match: {}", engine.format_match(&m));
            }
        }
    }
    for m in engine.flush() {
        n += 1;
        if n <= 2 {
            println!("    match: {}", engine.format_match(&m));
        }
    }
    println!("    => {n} match(es)\n");
}

fn main() {
    println!("ZStream pattern language tour\n");

    demo(
        "Sequence (;): A followed by B followed by C",
        "PATTERN IBM; Sun; Oracle WITHIN 10",
        vec![
            stock(1, 0, "IBM", 10.0, 5),
            stock(2, 1, "Sun", 20.0, 5),
            stock(3, 2, "Oracle", 30.0, 5),
        ],
    );

    demo(
        "Conjunction (&): both occur, order-free",
        "PATTERN IBM & Sun WITHIN 10",
        vec![stock(1, 0, "Sun", 10.0, 5), stock(2, 1, "IBM", 20.0, 5)],
    );

    demo(
        "Disjunction (|): either occurs",
        "PATTERN IBM | Sun WITHIN 10",
        vec![stock(1, 0, "Sun", 10.0, 5), stock(2, 1, "IBM", 20.0, 5)],
    );

    demo(
        "Negation (!): no interleaving instance (NSEQ push-down)",
        "PATTERN IBM; !Sun; Oracle WITHIN 10",
        vec![
            stock(1, 0, "IBM", 10.0, 5),
            stock(2, 1, "Sun", 10.0, 5), // blocks the first IBM
            stock(3, 2, "IBM", 11.0, 5),
            stock(4, 3, "Oracle", 30.0, 5),
        ],
    );

    demo(
        "Kleene closure (^n) with an aggregate over the group",
        "PATTERN IBM; Sun^2; Oracle WHERE sum(Sun.volume) > 15 WITHIN 20 \
         RETURN IBM, sum(Sun.volume), Oracle",
        vec![
            stock(1, 0, "IBM", 10.0, 5),
            stock(2, 1, "Sun", 10.0, 8),
            stock(3, 2, "Sun", 10.0, 9),
            stock(4, 3, "Oracle", 30.0, 5),
        ],
    );

    demo(
        "Rewrite (§5.2.1): (!B & !C) becomes !(B | C)",
        "PATTERN IBM; (!Sun & !Google); Oracle WITHIN 10",
        vec![
            stock(1, 0, "IBM", 10.0, 5),
            stock(2, 1, "Google", 10.0, 5), // negates via the disjunction
            stock(3, 2, "Oracle", 30.0, 5),
            stock(4, 3, "IBM", 10.0, 5),
            stock(5, 4, "Oracle", 31.0, 5),
        ],
    );

    demo_with(
        "Percent literals and chained comparisons (T1/T2 are aliases)",
        "PATTERN T1; T2 WHERE T1.name = T2.name AND T2.price > (1 + 20%) * T1.price WITHIN 10",
        vec![stock(1, 0, "IBM", 100.0, 5), stock(2, 1, "IBM", 121.0, 5)],
        false,
    );
}
