//! State accounting: what the engines report as `peak_bytes` (the paper's
//! logical buffer footprint, Tables 3 and 5) against the heap they really
//! hold, and how many heap allocations they make per input event.
//!
//! A counting global allocator, installed in this test binary only, keeps
//! per-thread totals: each family runs on its own test thread, so tests
//! running in parallel never mix their counts. A family's *heap peak* is the
//! highest live-byte count its thread reached while the engine was built
//! and fed, above what the thread held before (the input batches are
//! generated first and stay alive throughout, so pinned source storage is
//! not counted — nor is it in `peak_bytes`).
//!
//! The bounds below are deterministic counts for the stated inputs, not
//! timings: each family's heap/`peak_bytes` ratio is pinned to a range
//! around its measured value, its allocations per event to a ceiling, and
//! its heap peak to a ceiling, so a change that makes `peak_bytes` read
//! smaller cannot let the real heap grow.
//! Run with `--nocapture` to print the measured rows; `docs/ARCHITECTURE.md`
//! ("State accounting") records them and what `peak_bytes` leaves out.

mod common;

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use common::{compile, compile_stock};
use zstream::core::SharedPredIndex;
use zstream::events::EventBatch;
use zstream::nfa::NfaEngine;
use zstream::workload::{price_factor_for_selectivity, StockConfig, StockGenerator};

/// Forwards to the system allocator, counting on the calling thread.
struct Counting;

thread_local! {
    /// Bytes this thread allocated and has not freed.
    static LIVE: Cell<isize> = const { Cell::new(0) };
    /// Highest `LIVE` since the last [`Heap::start`].
    static PEAK: Cell<isize> = const { Cell::new(0) };
    /// Allocation calls (`alloc`, `alloc_zeroed`, `realloc`) since the last
    /// [`Heap::start`].
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

fn on_alloc(size: usize, call: bool) {
    let _ = LIVE.try_with(|live| {
        let now = live.get() + size as isize;
        live.set(now);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(now)));
    });
    if call {
        let _ = CALLS.try_with(|calls| calls.set(calls.get() + 1));
    }
}

fn on_free(size: usize) {
    let _ = LIVE.try_with(|live| live.set(live.get() - size as isize));
}

// SAFETY: every method forwards to `System` unchanged; the bookkeeping only
// touches const-initialized thread-locals, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            on_alloc(layout.size(), true);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            on_alloc(layout.size(), true);
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        unsafe { System.dealloc(p, layout) };
        on_free(layout.size());
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let q = unsafe { System.realloc(p, layout, new_size) };
        if !q.is_null() {
            on_free(layout.size());
            on_alloc(new_size, true);
        }
        q
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// One measurement window on the current thread.
struct Heap {
    base: isize,
}

impl Heap {
    fn start() -> Heap {
        let base = LIVE.with(Cell::get);
        PEAK.with(|peak| peak.set(base));
        CALLS.with(|calls| calls.set(0));
        Heap { base }
    }

    /// (heap peak above the start, allocation calls since the start).
    fn stop(self) -> (usize, u64) {
        let peak = PEAK.with(Cell::get) - self.base;
        (usize::try_from(peak).unwrap_or(0), CALLS.with(Cell::get))
    }
}

/// One family's row.
#[derive(Debug)]
struct Usage {
    family: &'static str,
    events: usize,
    peak_bytes: usize,
    heap_peak: usize,
    allocs: u64,
}

impl Usage {
    fn ratio(&self) -> f64 {
        self.heap_peak as f64 / self.peak_bytes as f64
    }

    fn allocs_per_event(&self) -> f64 {
        self.allocs as f64 / self.events as f64
    }

    /// Prints the row and checks it against the pinned ranges.
    fn check(&self, ratio: (f64, f64), max_allocs_per_event: f64, max_heap_peak: usize) {
        println!(
            "{:<18} events {:>7}  peak_bytes {:>9}  heap peak {:>9}  heap/count x{:.2}  \
             allocs/event {:.2}",
            self.family,
            self.events,
            self.peak_bytes,
            self.heap_peak,
            self.ratio(),
            self.allocs_per_event()
        );
        assert!(self.peak_bytes > 0, "{}: no state was counted", self.family);
        assert!(
            (ratio.0..=ratio.1).contains(&self.ratio()),
            "{}: heap/peak_bytes x{:.2} outside x{}..x{}",
            self.family,
            self.ratio(),
            ratio.0,
            ratio.1
        );
        assert!(
            self.allocs_per_event() <= max_allocs_per_event,
            "{}: {:.2} allocations per event, bound {max_allocs_per_event}",
            self.family,
            self.allocs_per_event()
        );
        assert!(
            self.heap_peak <= max_heap_peak,
            "{}: heap peak {} above {max_heap_peak}",
            self.family,
            self.heap_peak
        );
    }
}

const SEED: u64 = 4242;
const CHUNK: usize = 1024;
const KEYED: &str = "PATTERN A; B; C WHERE A.name = B.name AND B.name = C.name WITHIN 60";
/// Events of the keyed stream (64 uniform names).
const KEYED_EVENTS: usize = 200_000;

fn keyed_stream(events: usize) -> Vec<EventBatch> {
    let names: Vec<String> = (0..64).map(|i| format!("S{i:02}")).collect();
    let refs: Vec<&str> = names.iter().map(String::as_str).collect();
    StockGenerator::generate_batches(StockConfig::uniform(&refs, events, SEED), CHUNK)
}

fn three_stocks(events: usize) -> Vec<EventBatch> {
    StockGenerator::generate_batches(
        StockConfig::uniform(&["IBM", "Sun", "Oracle"], events, SEED),
        CHUNK,
    )
}

fn rows(batches: &[EventBatch]) -> usize {
    batches.iter().map(EventBatch::len).sum()
}

/// Feeds `batches` through `push_columns` of a fresh single engine.
fn engine_usage(family: &'static str, src: &str, stock: bool, batches: &[EventBatch]) -> Usage {
    let parts = if stock { compile_stock(src) } else { compile(src) };
    let heap = Heap::start();
    let mut engine = parts.engine().unwrap();
    for batch in batches {
        drop(engine.push_columns(batch));
    }
    drop(engine.flush());
    let (heap_peak, allocs) = heap.stop();
    let peak_bytes = engine.metrics().peak_bytes;
    Usage { family, events: rows(batches), peak_bytes, heap_peak, allocs }
}

/// The heap peak of [`partitioned_keyed`] when leaf buffers held boxed
/// one-slot `Record`s (56 counted and allocated bytes per entry); 4.82
/// allocations per event, three of them leaf boxes.
const BOXED_LEAVES_HEAP_PEAK: usize = 975_780;

/// Partitioned keyed: the hash-routed keyed query, one engine per name.
#[test]
fn partitioned_keyed() {
    let batches = keyed_stream(KEYED_EVENTS);
    let parts = compile(KEYED);
    let heap = Heap::start();
    let mut engine = parts.partitioned_engine("name").unwrap();
    for batch in &batches {
        drop(engine.push_columns(batch));
    }
    drop(engine.flush());
    let (heap_peak, allocs) = heap.stop();
    let usage = Usage {
        family: "partitioned keyed",
        events: rows(&batches),
        peak_bytes: engine.metrics().peak_bytes,
        heap_peak,
        allocs,
    };
    usage.check((36.0, 49.0), 2.0, 845_028);
    assert!(usage.heap_peak < BOXED_LEAVES_HEAP_PEAK, "leaf entries hold more heap than boxes did");
    assert!(usage.peak_bytes <= 25_000, "rounds left dead entries behind");
}

/// Flat keyed: the same query on one engine that hash-joins on `name`.
#[test]
fn flat_keyed() {
    let batches = keyed_stream(KEYED_EVENTS);
    engine_usage("flat keyed", KEYED, false, &batches).check((6.2, 8.4), 1.85, 508_730);
}

/// Fanout: paper Query 4 at selectivity 1/8, about 90 matches per event.
/// Matches are taken packed (`push_rows`), so no returned `Record` is
/// counted.
#[test]
fn fanout() {
    let batches = three_stocks(12_000);
    let factor = price_factor_for_selectivity(0.125);
    let parts = compile_stock(&format!(
        "PATTERN IBM; Sun; Oracle WHERE IBM.price > {factor} * Sun.price WITHIN 200"
    ));
    let heap = Heap::start();
    let mut engine = parts.engine().unwrap();
    let mut index = SharedPredIndex::new();
    engine.subscribe(&mut index);
    for batch in &batches {
        index.begin_batch();
        drop(engine.push_rows(batch, None, &mut index));
    }
    drop(engine.flush());
    let (heap_peak, allocs) = heap.stop();
    let usage = Usage {
        family: "fanout",
        events: rows(&batches),
        peak_bytes: engine.metrics().peak_bytes,
        heap_peak,
        allocs,
    };
    usage.check((220.0, 300.0), 3.0, 9_817_794);
}

/// NSEQ: a pushed-down negation (Algorithm 2).
#[test]
fn negation() {
    let batches = three_stocks(60_000);
    let src = "PATTERN IBM; !Sun; Oracle WHERE Sun.price > Oracle.price WITHIN 35";
    engine_usage("nseq", src, true, &batches).check((290.0, 395.0), 1.6, 332_571);
}

/// KSEQ: a Kleene closure between two anchors (Algorithm 4).
#[test]
fn kleene() {
    let batches = three_stocks(60_000);
    let src = "PATTERN IBM; Sun+; Oracle WITHIN 10";
    engine_usage("kseq", src, true, &batches).check((860.0, 1160.0), 3.0, 303_692);
}

/// The NFA baseline on the keyed query: per-event pushes of row handles.
#[test]
fn nfa() {
    let batches = keyed_stream(20_000);
    let parts = compile(KEYED);
    let events: Vec<_> = batches.iter().flat_map(EventBatch::iter).collect();
    let heap = Heap::start();
    let mut nfa = NfaEngine::new(parts.analyzed().clone(), parts.intake.clone()).unwrap();
    for event in &events {
        drop(nfa.push(event.clone()));
    }
    let (heap_peak, allocs) = heap.stop();
    let usage = Usage {
        family: "nfa",
        events: events.len(),
        peak_bytes: nfa.peak_bytes(),
        heap_peak,
        allocs,
    };
    usage.check((0.6, 0.9), 4.0, 6_440);
}
