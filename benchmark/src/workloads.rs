//! The five workloads. Names, sizes, chunking and paced rates are the
//! benchmark's contract: a later change is measured against rows produced
//! under exactly these settings, so nothing here is derived from a run.

use crate::sut::{self, Classes, KernelPred, Routing, Stream};

/// The seed the pinned digests in `pinned.rs` belong to.
pub const DEFAULT_SEED: u64 = 4242;

/// Bounded disorder of the arrival stream and the runtime's tolerance.
#[derive(Debug, Clone, Copy)]
pub struct Disorder {
    /// `DisorderSpec::bounded(max_delay, seed)`.
    pub max_delay: u64,
    /// `RuntimeBuilder::slack`.
    pub slack: u64,
}

/// One workload: an input stream, the queries registered over it, and how
/// the stream is offered.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Contract name.
    pub name: &'static str,
    /// Which layers it stresses, and which it leaves idle.
    pub why: &'static str,
    /// Input stream.
    pub stream: Stream,
    /// Input events per pass.
    pub events: usize,
    /// Rows per `ingest_columns` call.
    pub chunk: usize,
    /// Distinct query sources; registrations cycle through them.
    pub sources: Vec<String>,
    /// How the sources' classes pick their rows.
    pub classes: Classes,
    /// Queries registered with the runtime.
    pub registrations: usize,
    /// Shard routing of every registration.
    pub routing: Routing,
    /// Arrival disorder, if any.
    pub disorder: Option<Disorder>,
    /// Whether one `Runtime::checkpoint` runs at the midpoint chunk, inside
    /// the timed region.
    pub checkpoint: bool,
    /// Open-loop offered rate, events per second: about a third of what the
    /// seed commit sustains on the 2-core reference host. At half, the
    /// host's slow spells (a quarter off its speed for seconds at a time)
    /// push utilisation past 60 % and latency into queueing, and the
    /// percentiles stop repeating from run to run.
    pub paced_eps: f64,
    /// Events of the prefix checked against the brute-force oracle
    /// (0 = the workload has no single query to check). The oracle's memory
    /// is the product of the per-class admitted counts, so the prefix is
    /// as long as keeps that product in the low millions.
    pub oracle_events: usize,
    /// Events of the prefix the NFA baseline is timed on (0 = not timed).
    pub nfa_events: usize,
    /// The constant predicates the intake kernels evaluate here.
    pub kernel_preds: Vec<KernelPred>,
}

const KEYED_SEQ: &str = "PATTERN A; B; C WHERE A.name = B.name AND B.name = C.name WITHIN 60";

/// `multi_query_scaling`'s pool: one pattern that fires and fifteen alarm
/// patterns whose per-class band filters each pass 30-70 % of rows and
/// jointly pass none — queries that always watch and almost never fire.
fn alarm_pool() -> (Vec<String>, Vec<KernelPred>) {
    let mut sources =
        vec!["PATTERN A; B WHERE A.price > 99.5 AND B.price > 99.5 WITHIN 20".to_string()];
    let mut preds = vec![KernelPred::Gt { field: "price", literal: 99.5 }];
    for i in 0..15u32 {
        let (p_hi, v_hi) = (30 + i * 4, 150 + i * 55);
        let (p_lo, v_lo) = (p_hi - 5, v_hi - 50);
        sources.push(format!(
            "PATTERN A; B WHERE A.price > {p_hi} AND A.price < {p_lo} \
             AND B.volume > {v_hi} AND B.volume < {v_lo} WITHIN 8"
        ));
        preds.extend([
            KernelPred::Gt { field: "price", literal: f64::from(p_hi) },
            KernelPred::Lt { field: "price", literal: f64::from(p_lo) },
            KernelPred::Gt { field: "volume", literal: f64::from(v_hi) },
            KernelPred::Lt { field: "volume", literal: f64::from(v_lo) },
        ]);
    }
    (sources, preds)
}

fn str_eq(field: &'static str, values: &[&'static str]) -> Vec<KernelPred> {
    values.iter().map(|value| KernelPred::StrEq { field, value }).collect()
}

/// The five workloads, in contract order.
pub fn all() -> Vec<Workload> {
    let (alarm_sources, alarm_preds) = alarm_pool();
    let fanout_factor = sut::price_factor(0.125);
    vec![
        Workload {
            name: "stock-keyed-seq",
            why: "keyed 3-way sequence, hash-routed: assembly joins and the runtime hop do the \
                  work, intake kernels almost none",
            stream: Stream::Stock64,
            events: 1_000_000,
            chunk: 1024,
            sources: vec![KEYED_SEQ.to_string()],
            classes: Classes::StockAny,
            registrations: 1,
            routing: Routing::Field("name"),
            disorder: None,
            checkpoint: false,
            paced_eps: 300_000.0,
            oracle_events: 200,
            nfa_events: 100_000,
            kernel_preds: Vec::new(),
        },
        Workload {
            name: "weblog-filter",
            why: "paper Query 8 over the web log: intake kernels reject 99 % of rows, so \
                  per-batch dispatch, channel and merge costs show and assembly does not",
            stream: Stream::Weblog,
            events: 10_000_000,
            chunk: 4096,
            sources: vec!["PATTERN Publication; Project; Course \
                           WHERE Publication.ip = Project.ip AND Project.ip = Course.ip \
                           WITHIN 1 hours"
                .to_string()],
            classes: Classes::WeblogByCategory,
            registrations: 1,
            routing: Routing::Broadcast,
            disorder: None,
            checkpoint: false,
            paced_eps: 3_000_000.0,
            oracle_events: 20_000,
            nfa_events: 1_000_000,
            kernel_preds: str_eq("category", &["Publication", "Project", "Course"]),
        },
        Workload {
            name: "alarm-1000q",
            why: "16 alarm patterns replicated to 1000 registrations on shared intake: few \
                  predicates x many subscribers, and the only non-trivial set-up",
            stream: Stream::Stock64,
            events: 1_700_000,
            chunk: 4096,
            sources: alarm_sources,
            classes: Classes::StockAny,
            registrations: 1000,
            routing: Routing::Broadcast,
            disorder: None,
            checkpoint: false,
            paced_eps: 600_000.0,
            oracle_events: 0,
            nfa_events: 0,
            kernel_preds: alarm_preds,
        },
        Workload {
            name: "stock-disordered-ckpt",
            why: "the keyed query over a shuffled stream with one mid-run checkpoint: the only \
                  workload where reorder repacks batches and a snapshot runs beside ingest",
            stream: Stream::Stock64,
            events: 800_000,
            chunk: 1024,
            sources: vec![KEYED_SEQ.to_string()],
            classes: Classes::StockAny,
            registrations: 1,
            routing: Routing::Field("name"),
            disorder: Some(Disorder { max_delay: 512, slack: 1024 }),
            checkpoint: true,
            paced_eps: 250_000.0,
            oracle_events: 200,
            nfa_events: 0,
            kernel_preds: Vec::new(),
        },
        Workload {
            name: "stock-seq-fanout",
            why: "paper Query 4 at selectivity 1/8, ~90 matches per event: output-bound, so \
                  match materialisation, reply channel and ordered merge do the work",
            stream: Stream::Stock3,
            events: 48_000,
            chunk: 1024,
            sources: vec![format!(
                "PATTERN IBM; Sun; Oracle WHERE IBM.price > {fanout_factor} * Sun.price WITHIN 200"
            )],
            classes: Classes::StockByName,
            registrations: 1,
            routing: Routing::Broadcast,
            disorder: None,
            checkpoint: false,
            paced_eps: 15_000.0,
            oracle_events: 400,
            nfa_events: 0,
            kernel_preds: str_eq("name", &["IBM", "Sun", "Oracle"]),
        },
    ]
}

/// Looks a workload up by its contract name.
pub fn by_name(name: &str) -> Option<Workload> {
    all().into_iter().find(|w| w.name == name)
}

impl Workload {
    /// The same workload at `1/factor` of its size (smoke runs).
    pub fn scaled_down(mut self, factor: usize) -> Workload {
        self.events = (self.events / factor).max(4 * self.chunk);
        self.nfa_events = self.nfa_events.min(self.events);
        self
    }

    /// Field the registrations are hash-routed on, if they are.
    pub fn key_field(&self) -> Option<&'static str> {
        match self.routing {
            Routing::Field(f) => Some(f),
            Routing::Broadcast => None,
        }
    }
}
