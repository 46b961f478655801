//! The one adapter between the harness and the system under test.
//!
//! Every call into a `zstream_*` crate lives in this file, and only through
//! the entry points ROADMAP's twin-deletion keeps (`push_columns`,
//! `ingest_columns`, shared intake): no `push_batch`, no record-path
//! `ingest`, no `shared_intake(false)`. Deleting those later cannot break
//! the frozen benchmark, and an API rename is a one-file benchmark change.

use std::collections::BTreeSet;
use std::sync::Arc;

use zstream_core::{reference_signatures, CompiledParts, EngineBuilder, EngineConfig, PlanConfig};
use zstream_events::kernel::{filter_cmp, filter_str_eq, Bitmap, CmpOp};
use zstream_events::{split_batch_rows, ColumnarReorder, EventBatch, Record, Schema, Sym, Value};
use zstream_lang::SchemaMap;
use zstream_nfa::NfaEngine;
use zstream_runtime::{Partitioning, Runtime, RuntimeMatch};
use zstream_workload::{
    price_factor_for_selectivity, DisorderSpec, StockConfig, StockGenerator, WeblogConfig,
    WeblogGenerator,
};

/// One columnar chunk of input, as the runtime ingests it.
pub type Batch = EventBatch;
/// One composite event, as the single-threaded engines return it.
pub type Match = Record;
/// Any failure the system under test reports, rendered.
pub type SutResult<T> = Result<T, String>;

fn err<E: std::fmt::Display>(what: &'static str) -> impl Fn(E) -> String {
    move |e| format!("{what}: {e}")
}

// ---------------------------------------------------------------- inputs

/// The input streams the five workloads draw from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stream {
    /// 64 uniform stock names `S00..S63`.
    Stock64,
    /// `IBM`, `Sun`, `Oracle` at rates 1:1:1.
    Stock3,
    /// The synthetic month of web accesses, Table 4's class frequencies.
    Weblog,
}

/// Generates `events` rows of `stream` in time order, `chunk` rows a batch.
pub fn generate(stream: Stream, events: usize, chunk: usize, seed: u64) -> Vec<Batch> {
    match stream {
        Stream::Stock64 => {
            let names: Vec<String> = (0..64).map(|i| format!("S{i:02}")).collect();
            let refs: Vec<&str> = names.iter().map(String::as_str).collect();
            StockGenerator::generate_batches(StockConfig::uniform(&refs, events, seed), chunk)
        }
        Stream::Stock3 => StockGenerator::generate_batches(
            StockConfig::uniform(&["IBM", "Sun", "Oracle"], events, seed),
            chunk,
        ),
        Stream::Weblog => {
            WeblogGenerator::generate_batches(&WeblogConfig::scaled(events as u64, seed), chunk).0
        }
    }
}

/// Rows in a batch.
pub fn rows(batch: &Batch) -> usize {
    batch.len()
}

/// The timestamp column of a batch.
pub fn ts_column(batch: &Batch) -> &[u64] {
    batch.ts_column()
}

/// Shuffles time-ordered batches into a bounded-disorder arrival order.
pub fn disorder(ordered: &[Batch], max_delay: u64, chunk: usize, seed: u64) -> Vec<Batch> {
    DisorderSpec::bounded(max_delay, seed).shuffle_batches(ordered, chunk)
}

/// The price factor that gives `IBM.price > f * Sun.price` this selectivity.
pub fn price_factor(selectivity: f64) -> f64 {
    price_factor_for_selectivity(selectivity)
}

/// Order-sensitive digest of generated batches, stable across processes
/// (strings enter through their content digest, not their interned id).
pub fn input_digest(batches: &[Batch]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut fold = |x: u64| h = (h ^ x).wrapping_mul(0x0000_0100_0000_01b3).rotate_left(23);
    let mut sym_digests: std::collections::HashMap<u32, u64> = std::collections::HashMap::new();
    for batch in batches {
        for &ts in batch.ts_column() {
            fold(ts);
        }
        for field in 0..batch.schema().fields().len() {
            let col = batch.column(field);
            for row in 0..batch.len() {
                fold(match col.value(row) {
                    Value::Int(i) => i as u64,
                    Value::Float(f) => f.to_bits(),
                    Value::Bool(b) => b as u64,
                    Value::Str(s) => *sym_digests.entry(s.id()).or_insert_with(|| s.digest()),
                });
            }
        }
    }
    h
}

// ------------------------------------------------------- match inspection

/// Where in the process one constituent event of a match lives.
#[derive(Debug, Clone, Copy)]
pub struct EventLoc {
    /// Identity of the columnar batch that holds the row.
    pub batch_id: u64,
    /// Row inside that batch.
    pub row: u32,
    /// Event timestamp.
    pub ts: u64,
}

/// Identity of an input batch, as [`EventLoc::batch_id`] reports it.
pub fn batch_id(batch: &Batch) -> u64 {
    batch.data().id()
}

/// Calls `f` for every constituent event of `m`, in pattern order.
pub fn for_each_event(m: &Match, mut f: impl FnMut(EventLoc)) {
    for slot in m.slots() {
        for e in slot.events() {
            let (data, row) = e.batch_row();
            f(EventLoc { batch_id: data.id(), row, ts: e.ts() });
        }
    }
}

/// End timestamp of a match.
pub fn end_ts(m: &Match) -> u64 {
    m.end_ts()
}

// --------------------------------------------------------------- queries

/// Which schema a query's classes read and how classes pick their rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Classes {
    /// Stock schema; every class sees every row (predicates decide).
    StockAny,
    /// Stock schema; class `IBM` means `name = 'IBM'`.
    StockByName,
    /// Weblog schema; class `Course` means `category = 'Course'`.
    WeblogByCategory,
}

/// A compiled query, ready to instantiate engines from.
#[derive(Debug, Clone)]
pub struct Compiled(CompiledParts);

/// `EngineBuilder::parse(..).compile()` under the benches' engine config.
pub fn compile(src: &str, classes: Classes) -> SutResult<Compiled> {
    let builder = EngineBuilder::parse(src)
        .map_err(err("parse"))?
        .config(EngineConfig { batch_size: 256, plan: PlanConfig::default() });
    let builder = match classes {
        Classes::StockAny => builder,
        Classes::StockByName => builder.route_by_field("name"),
        Classes::WeblogByCategory => {
            builder.schemas(SchemaMap::uniform(Schema::weblog())).route_by_field("category")
        }
    };
    builder.compile().map(Compiled).map_err(err("compile"))
}

/// How registered queries' events are spread over shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Routing {
    /// `Partitioning::Field(name)`: hash-route on the key column.
    Field(&'static str),
    /// `Partitioning::Broadcast`: one home shard, plain engine.
    Broadcast,
}

// --------------------------------------------------------------- runtime

/// Worker shards of every measured runtime. Fixed on every host so rows
/// stay comparable; the host's shape is stamped, not adapted to.
pub const WORKERS: usize = 1;
const CHANNEL_CAPACITY: usize = 4;

/// One match the runtime delivered.
pub type Delivered = RuntimeMatch;

/// Registry slot of the query that matched.
pub fn query_of(m: &Delivered) -> usize {
    m.query.index()
}

/// The composite event of a delivered match.
pub fn record_of(m: &Delivered) -> &Match {
    &m.record
}

/// What `Runtime::shutdown` accounts for, reduced to what the checks read.
pub struct Report {
    /// Matches still buffered at shutdown.
    pub matches: Vec<Delivered>,
    /// `RuntimeReport.metrics.peak_bytes`: the paper's logical-buffer peak.
    pub peak_bytes: usize,
    /// Events each registered query's engines received.
    pub delivered: Vec<u64>,
    /// Events the router could not deliver, per query.
    pub dropped: Vec<u64>,
    /// Events the reorder stage rejected as beyond the slack.
    pub late: u64,
}

/// Numbers read from one `Runtime::observe()` scrape.
pub struct Scrape {
    /// Sum of `zstream_shard_service_ns` over shards.
    pub shard_service_ns: u64,
    /// Batches the shards have serviced.
    pub shard_batches: u64,
    /// `zstream_shard_queue_depth` at the moment of the scrape.
    pub queue_depth: u64,
}

/// A running `zstream_runtime::Runtime` with the workload's queries.
pub struct Sut(Runtime);

impl Sut {
    /// `register` every query, then `RuntimeBuilder::build` (thread spawn).
    pub fn build(queries: &[Compiled], routing: Routing, slack: Option<u64>) -> SutResult<Sut> {
        let mut builder = Runtime::builder().workers(WORKERS).channel_capacity(CHANNEL_CAPACITY);
        if let Some(slack) = slack {
            builder = builder.slack(slack);
        }
        for q in queries {
            let partitioning = match routing {
                Routing::Field(f) => Partitioning::Field(f.into()),
                Routing::Broadcast => Partitioning::Broadcast,
            };
            builder.register(q.0.clone(), partitioning);
        }
        builder.build().map(Sut).map_err(err("build"))
    }

    /// `Runtime::ingest_columns`: blocks under backpressure.
    pub fn ingest(&mut self, batch: &Batch) -> SutResult<Vec<Delivered>> {
        self.0.ingest_columns(batch).map_err(err("ingest_columns"))
    }

    /// `Runtime::poll`: non-blocking finality request.
    pub fn poll(&mut self) -> SutResult<Vec<Delivered>> {
        self.0.poll().map_err(err("poll"))
    }

    /// Matches buffered in the merger, awaiting finality.
    pub fn pending_matches(&self) -> usize {
        self.0.pending_matches()
    }

    /// `Runtime::checkpoint` into `out`.
    pub fn checkpoint(&mut self, out: &mut Vec<u8>) -> SutResult<()> {
        self.0.checkpoint(out).map(|_| ()).map_err(err("checkpoint"))
    }

    /// `Runtime::observe`, reduced to the numbers the harness reports.
    pub fn scrape(&self) -> Scrape {
        let snap = self.0.observe();
        let service = snap.histogram_total("zstream_shard_service_ns");
        Scrape {
            shard_service_ns: service.as_ref().map_or(0, |h| h.sum),
            shard_batches: service.as_ref().map_or(0, |h| h.count),
            queue_depth: snap.gauge_value("zstream_shard_queue_depth").unwrap_or(0),
        }
    }

    /// `Runtime::shutdown`: drain, flush, join.
    pub fn shutdown(self) -> SutResult<Report> {
        let r = self.0.shutdown().map_err(err("shutdown"))?;
        Ok(Report {
            matches: r.matches,
            peak_bytes: r.metrics.peak_bytes,
            delivered: r.query_metrics.iter().map(|m| m.events_in).collect(),
            dropped: r.dropped,
            late: r.late_events,
        })
    }
}

// ------------------------------------------------- single-threaded layers

/// What one single-threaded engine pass saw.
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineCounts {
    /// Per-class intake offers, summed over classes.
    pub class_offered: u64,
    /// Per-class intake admissions, summed over classes.
    pub class_admitted: u64,
    /// Peak logical buffer bytes.
    pub peak_bytes: usize,
}

/// `CompiledParts::engine()`, `push_columns` per batch, `flush`: the
/// single-threaded baseline of the same job. `sink` sees every match.
pub fn engine_pass(
    query: &Compiled,
    batches: &[Batch],
    mut sink: impl FnMut(&Match),
) -> SutResult<EngineCounts> {
    let mut engine = query.0.engine().map_err(err("engine"))?;
    for batch in batches {
        engine.push_columns(batch).iter().for_each(&mut sink);
    }
    engine.flush().iter().for_each(&mut sink);
    let m = engine.metrics();
    let (offered, admitted) = engine.class_counters();
    Ok(EngineCounts {
        class_offered: offered.iter().sum(),
        class_admitted: admitted.iter().sum(),
        peak_bytes: m.peak_bytes,
    })
}

/// `CompiledParts::partitioned_engine(field)`, `push_columns`, `flush`.
/// Returns the match count.
pub fn partitioned_pass(query: &Compiled, field: &str, batches: &[Batch]) -> SutResult<u64> {
    let mut engine = query.0.partitioned_engine(field).map_err(err("partitioned_engine"))?;
    let mut matches = 0u64;
    for batch in batches {
        matches += engine.push_columns(batch).len() as u64;
    }
    Ok(matches + engine.flush().len() as u64)
}

/// `NfaEngine::push` per event over `batches`. Returns the match count.
pub fn nfa_pass(query: &Compiled, batches: &[Batch]) -> SutResult<u64> {
    let mut nfa = NfaEngine::new(query.0.analyzed().clone(), query.0.intake.clone())
        .map_err(err("nfa compile"))?;
    let mut matches = 0u64;
    for batch in batches {
        for e in batch.iter() {
            matches += nfa.push(e).len() as u64;
        }
    }
    Ok(matches)
}

/// Compares the engine's matches over the first `events` rows of `batches`
/// with the brute-force oracle (`core::reference::reference_signatures`).
/// Returns `(oracle matches, signatures the two sides disagree on)`.
///
/// The oracle materialises every order-respecting combination of admitted
/// events before it applies window and predicates, so its memory is the
/// product of the per-class admitted counts: keep that product in the low
/// millions.
pub fn reference_check(
    query: &Compiled,
    batches: &[Batch],
    events: usize,
) -> SutResult<(usize, usize)> {
    let mut prefix = Vec::new();
    let mut left = events;
    for batch in batches {
        if left >= batch.len() {
            prefix.push(batch.clone());
            left -= batch.len();
        } else {
            if left > 0 {
                prefix.push(batch.select(&(0..left as u32).collect::<Vec<_>>()));
            }
            break;
        }
    }
    let batches = &prefix[..];
    let events: Vec<_> = batches.iter().flat_map(Batch::iter).collect();
    let oracle = reference_signatures(query.0.analyzed(), &query.0.intake, &events);
    let mut engine = query.0.engine().map_err(err("engine"))?;
    let mut got = Vec::new();
    for batch in batches {
        got.extend(engine.push_columns(batch).iter().map(|r| engine.record_signature(r)));
    }
    got.extend(engine.flush().iter().map(|r| engine.record_signature(r)));
    let got_set: BTreeSet<_> = got.iter().collect();
    let duplicates = got.len() - got_set.len();
    let oracle_set: BTreeSet<_> = oracle.iter().collect();
    Ok((oracle.len(), duplicates + oracle_set.symmetric_difference(&got_set).count()))
}

/// `split_batch_rows(batch, field, shards)`: rows each shard would get.
pub fn route_rows(batch: &Batch, field: &str, shards: usize) -> Vec<usize> {
    split_batch_rows(batch, field, shards).shards.iter().map(Vec::len).collect()
}

/// A standalone `ColumnarReorder`, as the runtime fronts its router with.
pub struct Reorder(ColumnarReorder);

impl Reorder {
    /// Single-source operator tolerating `slack` time units of disorder.
    pub fn new(slack: u64) -> Reorder {
        Reorder(ColumnarReorder::new(slack))
    }

    /// `offer_batch_from(0, batch)`: `(rows released, rows late, whether
    /// the offered batch came back as-is — the zero-copy pass-through)`.
    pub fn offer(&mut self, batch: &Batch) -> (usize, usize, bool) {
        let release = self.0.offer_batch_from(0, batch);
        let passthrough =
            release.batches.len() == 1 && Arc::ptr_eq(release.batches[0].data(), batch.data());
        (release.released_rows(), release.late.len(), passthrough)
    }

    /// `flush`: rows released at end of stream.
    pub fn flush(&mut self) -> usize {
        self.0.flush().iter().map(Batch::len).sum()
    }

    /// Peak rows held back at once.
    pub fn buffered_peak(&self) -> usize {
        self.0.buffered_peak()
    }
}

/// One constant predicate of a workload, in the column form the intake
/// kernels evaluate.
#[derive(Debug, Clone)]
pub enum KernelPred {
    /// `filter_str_eq(column(field), sym)`.
    StrEq { field: &'static str, value: &'static str },
    /// `filter_cmp(column(field), >, literal)`.
    Gt { field: &'static str, literal: f64 },
    /// `filter_cmp(column(field), <, literal)`.
    Lt { field: &'static str, literal: f64 },
}

/// Runs every predicate's kernel over every batch.
/// Returns `(rows scanned, rows selected)`, summed over predicates.
pub fn kernel_pass(batches: &[Batch], preds: &[KernelPred]) -> SutResult<(u64, u64)> {
    let Some(first) = batches.first() else { return Ok((0, 0)) };
    enum Bound {
        Str(usize, Sym),
        Cmp(usize, CmpOp, Value),
    }
    let field = |name: &str| first.schema().field_index(name).map_err(err("kernel field"));
    let mut bound = Vec::with_capacity(preds.len());
    for p in preds {
        bound.push(match p {
            KernelPred::StrEq { field: f, value } => Bound::Str(field(f)?, Sym::intern(value)),
            KernelPred::Gt { field: f, literal } => {
                Bound::Cmp(field(f)?, CmpOp::Gt, Value::Float(*literal))
            }
            KernelPred::Lt { field: f, literal } => {
                Bound::Cmp(field(f)?, CmpOp::Lt, Value::Float(*literal))
            }
        });
    }
    let mut out = Bitmap::new();
    let (mut scanned, mut selected) = (0u64, 0u64);
    for batch in batches {
        for b in &bound {
            match b {
                Bound::Str(f, sym) => filter_str_eq(batch.column(*f), *sym, &mut out),
                Bound::Cmp(f, op, lit) => filter_cmp(batch.column(*f), *op, lit, &mut out),
            }
            scanned += batch.len() as u64;
            selected += out.count() as u64;
        }
    }
    Ok((scanned, selected))
}
