//! Web access-pattern detection (§6.5): Query 8 over the synthetic web log.
//!
//! Detects visitors who download a publication, then browse a project page,
//! then a course page from the same IP within ten hours — and compares the
//! throughput of the left-deep plan, the right-deep plan and the NFA
//! baseline, a miniature of the paper's Figure 17.
//!
//! ```sh
//! cargo run --release --example web_access_patterns
//! ```

use std::time::Instant;

use zstream::core::{build_intake, CompiledQuery, Engine, NegStrategy, PlanConfig, PlanShape};
use zstream::lang::{Query, SchemaMap};
use zstream::nfa::NfaEngine;
use zstream::workload::{WeblogConfig, WeblogGenerator};

const QUERY8: &str = "PATTERN Publication; Project; Course \
                      WHERE Publication.ip = Project.ip AND Project.ip = Course.ip \
                      WITHIN 10 hours \
                      RETURN Publication, Project, Course";

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 150k records = 1/10 of the paper's trace; same Table 4 proportions.
    // Columnar batches of 512 rows (one engine round each) for the tree
    // plans; the NFA consumes the same rows one event at a time.
    let (batches, stats) =
        WeblogGenerator::generate_batches(&WeblogConfig::scaled(150_000, 2009), 512);
    let events: Vec<_> = batches.iter().flat_map(|b| b.iter()).collect();
    println!("Synthetic web log (Table 4 shape):");
    println!(
        "  total {} | publication {} | project {} | course {}\n",
        stats.total, stats.publication, stats.project, stats.course
    );

    let schemas = SchemaMap::uniform(zstream::events::Schema::weblog());
    let query = Query::parse(QUERY8)?;

    for (label, shape) in
        [("left-deep ", PlanShape::left_deep(3)), ("right-deep", PlanShape::right_deep(3))]
    {
        let compiled = CompiledQuery::with_shape(
            &query,
            &schemas,
            None,
            shape,
            NegStrategy::PushdownPreferred,
        )?;
        let plan = compiled.physical_plan(PlanConfig::default(), &[])?;
        let intake = build_intake(&compiled.aq, Some("category"))?;
        let mut engine = Engine::new(compiled.aq.clone(), plan, &intake);
        let t0 = Instant::now();
        let mut matches = 0usize;
        for batch in &batches {
            matches += engine.push_columns(batch).len();
        }
        matches += engine.flush().len();
        let dt = t0.elapsed();
        println!(
            "  {label}  {:>10.0} events/s   {matches} matches   peak {:.2} MB",
            events.len() as f64 / dt.as_secs_f64(),
            engine.metrics().peak_mb(),
        );
    }

    // NFA baseline.
    let compiled = CompiledQuery::optimize(&query, &schemas, None)?;
    let intake = build_intake(&compiled.aq, Some("category"))?;
    let mut nfa = NfaEngine::new(compiled.aq.clone(), intake)?;
    let t0 = Instant::now();
    let mut matches = 0usize;
    for e in &events {
        matches += nfa.push(e.clone()).len();
    }
    let dt = t0.elapsed();
    println!(
        "  NFA         {:>10.0} events/s   {matches} matches   peak {:.2} MB",
        events.len() as f64 / dt.as_secs_f64(),
        nfa.peak_bytes() as f64 / (1024.0 * 1024.0),
    );
    println!("\nPublication accesses are rarest, so combining them first (left-deep)");
    println!("produces the fewest intermediate results — the paper's Figure 17.");
    Ok(())
}
