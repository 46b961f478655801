//! **Figure 14** — Plan adaptation on the concatenated stream: the three
//! Figure 12 regimes back to back. Static plans are fast in the regime that
//! suits them and slow elsewhere; the adaptive engine (windowed statistics +
//! Algorithm 5 re-planning + round-boundary switch, §5.3) should track the
//! best static plan in every phase.

use zstream_bench::*;
use zstream_core::{
    build_intake, AdaptiveConfig, AdaptiveEngine, CompiledQuery, Engine, PlanConfig, PlanShape,
};
use zstream_events::{Event, EventBatch, Schema};
use zstream_lang::{Query, SchemaMap};
use zstream_workload::{StockConfig, StockGenerator};

const QUERY6: &str = "PATTERN IBM; Sun; Oracle; Google \
     WHERE Oracle.price > 25 * Sun.price AND Oracle.price > 25 * Google.price \
     WITHIN 100";

/// One regime's stream, shifted to start at `ts_base` and packed into
/// batches of [`BATCH`] rows.
fn phase(
    rates: [f64; 4],
    ss: f64,
    gs: f64,
    len: usize,
    seed: u64,
    ts_base: u64,
) -> Vec<EventBatch> {
    let events: Vec<_> = StockGenerator::generate(
        StockConfig::with_rates(
            &[("IBM", rates[0]), ("Sun", rates[1]), ("Oracle", rates[2]), ("Google", rates[3])],
            len,
            seed,
        )
        .price_scale("Sun", ss)
        .price_scale("Google", gs),
    )
    .into_iter()
    .map(|e| {
        Event::builder(Schema::stocks(), ts_base + e.ts())
            .value(e.value(0))
            .value(e.value(1))
            .value(e.value(2))
            .value(e.value(3))
            .build_ref()
            .unwrap()
    })
    .collect();
    pack(&events, BATCH)
}

fn main() {
    let len = bench_len(25_000);
    header(
        "Figure 14: adaptive planner vs static plans on the concatenated stream",
        "Three phases: rate 1:100:100:100, then sel1=1/50, then sel2=1/50 (Query 6)",
    );
    let segments: Vec<Vec<EventBatch>> = vec![
        phase([1.0, 100.0, 100.0, 100.0], 1e-4, 1e-4, len, 41, 0),
        phase([1.0, 1.0, 1.0, 1.0], 1.0, 1e-4, len, 42, len as u64),
        phase([1.0, 1.0, 1.0, 1.0], 1e-4, 1.0, len, 43, 2 * len as u64),
    ];
    let cols: Vec<String> =
        ["rate 1:100:...", "sel1 = 1/50", "sel2 = 1/50"].iter().map(|s| s.to_string()).collect();
    row_header("engine \\ phase ->", &cols);

    let query = Query::parse(QUERY6).unwrap();
    let schemas = SchemaMap::uniform(Schema::stocks());

    // Static plans.
    for (label, shape) in [
        ("left-deep", PlanShape::left_deep(4)),
        ("right-deep", PlanShape::right_deep(4)),
        ("inner", PlanShape::inner4()),
    ] {
        let mut engine = TreeRun::shaped(QUERY6, shape).build_engine();
        let series = measure_segmented(&segments, |seg| {
            seg.iter().map(|batch| engine.push_columns(batch).len() as u64).sum()
        });
        row(label, &series);
    }

    // NFA baseline.
    {
        let aq = std::sync::Arc::new(zstream_lang::analyze(&query, &schemas).unwrap());
        let intake = build_intake(&aq, Some("name")).unwrap();
        let mut nfa = zstream_nfa::NfaEngine::new(aq, intake).unwrap();
        let series = measure_segmented(&segments, |seg| {
            seg.iter().flat_map(EventBatch::iter).map(|e| nfa.push(e).len() as u64).sum()
        });
        row("NFA", &series);
    }

    // Adaptive engine.
    {
        let compiled = CompiledQuery::optimize(&query, &schemas, None).unwrap();
        let intake = build_intake(&compiled.aq, Some("name")).unwrap();
        let engine = Engine::new(
            compiled.aq.clone(),
            compiled.physical_plan(PlanConfig::default(), &[]).unwrap(),
            &intake,
        );
        let mut adaptive = AdaptiveEngine::new(
            engine,
            compiled.spec.clone(),
            compiled.stats.clone(),
            AdaptiveConfig { check_interval: 8, ..Default::default() },
        );
        let series = measure_segmented(&segments, |seg| {
            seg.iter().map(|batch| adaptive.push_columns(batch).len() as u64).sum()
        });
        row("adaptive", &series);
        let m = adaptive.engine().metrics();
        println!(
            "\nadaptive controller: {} replans, {} plan switches across the stream",
            m.replans, m.plan_switches
        );
    }
}
