//! **Ablations** — design choices the paper calls out, isolated:
//!
//! * §5.2.2 hashing: equality predicates via hash tables vs. plain scans,
//! * §4.3 EAT pruning: push the earliest-allowed-timestamp to every buffer
//!   vs. relying on per-pair window checks only (memory and throughput),
//! * §4.3 batch size: the batch-iterator model's idle/assembly trade-off.

use zstream_bench::*;
use zstream_core::{PlanConfig, PlanShape};
use zstream_workload::{StockConfig, StockGenerator};

fn main() {
    let len = bench_len(60_000);
    let reps = bench_reps(3);

    // --- Hashing (§5.2.2) ------------------------------------------------
    header(
        "Ablation A: hash evaluation of equality predicates (§5.2.2)",
        "PATTERN T1; T2; T3 WHERE T1.name = T3.name AND T2.name='Google' WITHIN 200",
    );
    let query = "PATTERN T1; T2; T3 \
                 WHERE T1.name = T3.name AND T2.name = 'Google' \
                 WITHIN 200";
    // 40 distinct names: equality selectivity 1/40.
    let names: Vec<String> = (0..39).map(|i| format!("S{i:02}")).collect();
    let mut rates: Vec<(&str, f64)> = names.iter().map(|n| (n.as_str(), 1.0)).collect();
    rates.push(("Google", 1.0));
    let events = StockGenerator::generate(StockConfig::with_rates(&rates, len, 77));
    let batches = pack(&events, BATCH);
    row_header("hash ->", &["on".to_string(), "off".to_string()]);
    // T1/T2/T3 are aliases over the whole stream (no name routing), so the
    // engines are built directly instead of through `TreeRun`.
    let measure_alias = |use_hash: bool| -> Measurement {
        use std::time::Instant;
        use zstream_core::{build_intake, CompiledQuery, Engine, NegStrategy};
        use zstream_lang::{Query, SchemaMap};
        let q = Query::parse(query).unwrap();
        let schemas = SchemaMap::uniform(zstream_events::Schema::stocks());
        let compiled = CompiledQuery::with_shape(
            &q,
            &schemas,
            None,
            PlanShape::left_deep(3),
            NegStrategy::PushdownPreferred,
        )
        .unwrap();
        let plan =
            compiled.physical_plan(PlanConfig { use_hash, ..Default::default() }, &[]).unwrap();
        let intake = build_intake(&compiled.aq, None).unwrap();
        let mut engine = Engine::new(compiled.aq.clone(), plan, &intake);
        let t0 = Instant::now();
        let mut matches = 0u64;
        for batch in &batches {
            matches += engine.push_columns(batch).len() as u64;
        }
        matches += engine.flush().len() as u64;
        let metrics = engine.metrics();
        Measurement {
            throughput: events.len() as f64 / t0.elapsed().as_secs_f64(),
            matches,
            peak_mb: metrics.peak_mb(),
            peak_bytes: metrics.peak_bytes,
        }
    };
    let hash_on = measure_alias(true);
    let hash_off = measure_alias(false);
    assert_eq!(hash_on.matches, hash_off.matches);
    row("throughput", &[hash_on.throughput, hash_off.throughput]);
    println!("\nhash speedup: {:.2}x", hash_on.throughput / hash_off.throughput);

    // --- EAT pruning (§4.3) ----------------------------------------------
    header("Ablation B: EAT pruning (§4.3)", "PATTERN IBM; Sun; Oracle WITHIN 200, uniform rates");
    let seq = "PATTERN IBM; Sun; Oracle WITHIN 200";
    let events = StockGenerator::generate(StockConfig::uniform(&["IBM", "Sun", "Oracle"], len, 78));
    row_header("pruning ->", &["on".to_string(), "off".to_string()]);
    let mut with = TreeRun::shaped(seq, PlanShape::left_deep(3));
    with.plan = PlanConfig { eat_pruning: true, ..Default::default() };
    let mut without = TreeRun::shaped(seq, PlanShape::left_deep(3));
    without.plan = PlanConfig { eat_pruning: false, ..Default::default() };
    let batches = pack(&events, BATCH);
    let a = measure_tree(&with, &batches, reps);
    // The unpruned run is deliberately slow (quadratic buffers): one rep.
    let b = measure_tree(&without, &batches, 1);
    assert_eq!(a.matches, b.matches);
    row("throughput", &[a.throughput, b.throughput]);
    row("peak MB", &[a.peak_mb, b.peak_mb]);
    println!(
        "\nEAT pruning bounds memory: {:.2} MB vs {:.2} MB unbounded growth",
        a.peak_mb, b.peak_mb
    );

    // --- Batch size (§4.3) -----------------------------------------------
    header(
        "Ablation C: batch size of the batch-iterator model (§4.3)",
        "PATTERN IBM; Sun; Oracle WITHIN 200, uniform rates",
    );
    let sizes = [1usize, 8, 64, 512, 4096];
    let cols: Vec<String> = sizes.iter().map(|b| b.to_string()).collect();
    row_header("batch size ->", &cols);
    let mut series = Vec::new();
    let mut matches = None;
    for b in sizes {
        let m =
            measure_tree(&TreeRun::shaped(seq, PlanShape::left_deep(3)), &pack(&events, b), reps);
        match matches {
            None => matches = Some(m.matches),
            Some(e) => assert_eq!(e, m.matches, "batch size must not change results"),
        }
        series.push(m.throughput);
    }
    row("throughput", &series);
}
