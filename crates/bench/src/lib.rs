//! Shared harness for the figure/table benchmarks.
//!
//! Every bench target regenerates one table or figure of the paper's
//! evaluation (§6). Measurements follow the paper's definition:
//! `rate = |Input| / t_elapsed`, with the input pre-generated in memory and
//! pushed through the engine at maximum rate; output delivery (printing) is
//! excluded. Each point is repeated and the median is reported.

use std::sync::Arc;
use std::time::Instant;

use zstream_core::{build_intake, CompiledQuery, Engine, NegStrategy, PlanConfig, PlanShape};
use zstream_events::{EventBatch, EventRef, Schema};
use zstream_lang::{Query, SchemaMap};
use zstream_nfa::NfaEngine;

/// One measured point.
#[derive(Debug, Clone, Copy)]
pub struct Measurement {
    /// Input events per second.
    pub throughput: f64,
    /// Matches produced.
    pub matches: u64,
    /// Peak logical memory in MB.
    pub peak_mb: f64,
    /// Peak logical memory in bytes (what `peak_mb` is derived from).
    pub peak_bytes: usize,
}

/// Which schema/routing convention a benchmark uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Routing {
    /// Stock schema, classes route by `name`.
    StockByName,
    /// Web-log schema, classes route by `category`.
    WeblogByCategory,
}

impl Routing {
    fn schemas(self) -> SchemaMap {
        match self {
            Routing::StockByName => SchemaMap::uniform(Schema::stocks()),
            Routing::WeblogByCategory => SchemaMap::uniform(Schema::weblog()),
        }
    }

    fn field(self) -> &'static str {
        match self {
            Routing::StockByName => "name",
            Routing::WeblogByCategory => "category",
        }
    }
}

/// A tree-engine configuration to measure.
#[derive(Debug, Clone)]
pub struct TreeRun<'a> {
    /// Query text.
    pub query: &'a str,
    /// Routing convention.
    pub routing: Routing,
    /// Forced shape (`None` = let the optimizer choose).
    pub shape: Option<PlanShape>,
    /// Negation strategy.
    pub neg: NegStrategy,
    /// Plan toggles.
    pub plan: PlanConfig,
}

impl<'a> TreeRun<'a> {
    /// Stock-routed run with a forced shape and defaults.
    pub fn shaped(query: &'a str, shape: PlanShape) -> TreeRun<'a> {
        TreeRun {
            query,
            routing: Routing::StockByName,
            shape: Some(shape),
            neg: NegStrategy::PushdownPreferred,
            plan: PlanConfig::default(),
        }
    }

    /// Builds a fresh engine for this configuration.
    pub fn build_engine(&self) -> Engine {
        let query = Query::parse(self.query).expect("bench query parses");
        let schemas = self.routing.schemas();
        let compiled = match &self.shape {
            Some(s) => CompiledQuery::with_shape(&query, &schemas, None, s.clone(), self.neg)
                .expect("bench query compiles"),
            None => CompiledQuery::optimize(&query, &schemas, None).expect("compiles"),
        };
        let plan = compiled.physical_plan(self.plan.clone(), &[]).expect("plan builds");
        let intake = build_intake(&compiled.aq, Some(self.routing.field())).expect("intake builds");
        Engine::new(compiled.aq.clone(), plan, &intake)
    }
}

/// Rows per pushed batch in the figure benches: each batch is one engine
/// round (§4.3).
pub const BATCH: usize = 512;

/// Packs a stream into columnar batches of `size` rows (the last may be
/// shorter), outside any timed region.
pub fn pack(events: &[EventRef], size: usize) -> Vec<EventBatch> {
    events.chunks(size).map(|chunk| EventBatch::from_events(chunk).expect("one schema")).collect()
}

/// Runs one tree configuration `reps` times over pre-built columnar batches
/// (each batch one engine round); median by throughput.
pub fn measure_tree(run: &TreeRun<'_>, batches: &[EventBatch], reps: usize) -> Measurement {
    let total: usize = batches.iter().map(EventBatch::len).sum();
    let samples: Vec<Measurement> = (0..reps.max(1))
        .map(|_| {
            let mut engine = run.build_engine();
            let t0 = Instant::now();
            let mut matches = 0u64;
            for batch in batches {
                matches += engine.push_columns(batch).len() as u64;
            }
            matches += engine.flush().len() as u64;
            let dt = t0.elapsed();
            let metrics = engine.metrics();
            Measurement {
                throughput: total as f64 / dt.as_secs_f64(),
                matches,
                peak_mb: metrics.peak_mb(),
                peak_bytes: metrics.peak_bytes,
            }
        })
        .collect();
    median(samples)
}

/// Runs the NFA baseline `reps` times over `events`.
pub fn measure_nfa(query: &str, routing: Routing, events: &[EventRef], reps: usize) -> Measurement {
    let q = Query::parse(query).expect("bench query parses");
    let schemas = routing.schemas();
    let aq = Arc::new(zstream_lang::analyze(&q, &schemas).expect("analyzes"));
    let intake = build_intake(&aq, Some(routing.field())).expect("intake builds");
    let samples: Vec<Measurement> = (0..reps.max(1))
        .map(|_| {
            let mut nfa = NfaEngine::new(aq.clone(), intake.clone()).expect("NFA compiles");
            let t0 = Instant::now();
            let mut matches = 0u64;
            for e in events {
                matches += nfa.push(e.clone()).len() as u64;
            }
            let dt = t0.elapsed();
            Measurement {
                throughput: events.len() as f64 / dt.as_secs_f64(),
                matches,
                peak_mb: nfa.peak_bytes() as f64 / (1024.0 * 1024.0),
                peak_bytes: nfa.peak_bytes(),
            }
        })
        .collect();
    median(samples)
}

fn median(mut samples: Vec<Measurement>) -> Measurement {
    samples.sort_by(|a, b| a.throughput.total_cmp(&b.throughput));
    samples[samples.len() / 2]
}

/// Measures per-phase throughput of an engine over concatenated segments
/// of batches (Figure 14): returns one throughput (rows/s) per segment.
pub fn measure_segmented<F: FnMut(&[EventBatch]) -> u64>(
    segments: &[Vec<EventBatch>],
    mut push_all: F,
) -> Vec<f64> {
    segments
        .iter()
        .map(|seg| {
            let rows: usize = seg.iter().map(EventBatch::len).sum();
            let t0 = Instant::now();
            let _ = push_all(seg);
            rows as f64 / t0.elapsed().as_secs_f64()
        })
        .collect()
}

/// Prints a figure/table header.
pub fn header(title: &str, description: &str) {
    println!("\n================================================================");
    println!("{title}");
    println!("{description}");
    println!("================================================================");
}

/// Prints one throughput row: label then `events/s` per column.
pub fn row(label: &str, cols: &[f64]) {
    print!("{label:>24} |");
    for c in cols {
        print!(" {c:>12.0}");
    }
    println!();
}

/// Prints the column header line.
pub fn row_header(label: &str, cols: &[String]) {
    print!("{label:>24} |");
    for c in cols {
        print!(" {c:>12}");
    }
    println!();
    println!("{}", "-".repeat(26 + 13 * cols.len()));
}

/// Shared default stream length for figure benches (events per point);
/// override with `ZSTREAM_BENCH_LEN`.
pub fn bench_len(default: usize) -> usize {
    std::env::var("ZSTREAM_BENCH_LEN").ok().and_then(|s| s.parse().ok()).unwrap_or(default)
}

/// Shared repetition count; override with `ZSTREAM_BENCH_REPS`.
pub fn bench_reps(default: usize) -> usize {
    std::env::var("ZSTREAM_BENCH_REPS").ok().and_then(|s| s.parse().ok()).unwrap_or(default)
}
