//! The metric registry: named instruments with per-worker atomic cells.
//!
//! Registration (cold path) takes a short mutex to find or create the
//! instrument and append a fresh cell; every subsequent increment is a
//! relaxed atomic op on that cell — worker threads never share a cache
//! line unless they explicitly `clone()` a handle. A scrape folds all
//! cells of an instrument (sum for counters; sum or max for gauges,
//! chosen at registration) without pausing writers: values are atomic
//! loads, so a scrape concurrent with ingest sees a consistent-enough
//! point-in-time view and never blocks the hot path.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};

use crate::hist::{HistCore, HistSnapshot, Histogram};

/// Sorted `(key, value)` label pairs identifying one instrument.
pub type Labels = Vec<(String, String)>;

/// Builds a sorted label set from string pairs.
pub fn labels(pairs: &[(&str, &str)]) -> Labels {
    let mut out: Labels = pairs.iter().map(|(k, v)| ((*k).to_string(), (*v).to_string())).collect();
    out.sort();
    out
}

/// How a gauge folds its per-worker cells on scrape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GaugeFold {
    /// Cells are partial values; the instrument reads as their sum
    /// (e.g. per-shard queue depths folded into a total).
    Sum,
    /// Cells are competing observations; the instrument reads as the
    /// largest (e.g. peak buffered depth across workers).
    Max,
}

/// A monotonic counter handle. One handle per worker thread; increments
/// are relaxed atomic adds on a private cell.
#[derive(Debug, Clone)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    /// A counter not attached to any registry.
    pub fn standalone() -> Counter {
        Counter { cell: Arc::new(AtomicU64::new(0)) }
    }

    #[inline]
    pub fn inc(&self) {
        self.cell.fetch_add(1, Relaxed);
    }

    #[inline]
    pub fn add(&self, n: u64) {
        self.cell.fetch_add(n, Relaxed);
    }

    /// This cell's value (not the folded instrument total).
    pub fn get(&self) -> u64 {
        self.cell.load(Relaxed)
    }
}

/// A gauge handle: an arbitrary up/down value owned by one worker.
#[derive(Debug, Clone)]
pub struct Gauge {
    cell: Arc<AtomicU64>,
}

impl Gauge {
    /// A gauge not attached to any registry.
    pub fn standalone() -> Gauge {
        Gauge { cell: Arc::new(AtomicU64::new(0)) }
    }

    #[inline]
    pub fn set(&self, v: u64) {
        self.cell.store(v, Relaxed);
    }

    #[inline]
    pub fn add(&self, n: u64) {
        self.cell.fetch_add(n, Relaxed);
    }

    /// Saturating decrement — a gauge never wraps below zero.
    #[inline]
    pub fn sub(&self, n: u64) {
        let _ = self.cell.fetch_update(Relaxed, Relaxed, |v| Some(v.saturating_sub(n)));
    }

    /// Raises the cell to `v` if larger (peak tracking).
    #[inline]
    pub fn raise(&self, v: u64) {
        self.cell.fetch_max(v, Relaxed);
    }

    /// This cell's value (not the folded instrument total).
    pub fn get(&self) -> u64 {
        self.cell.load(Relaxed)
    }
}

/// A scrape-time value source for gauges whose truth lives elsewhere
/// (e.g. the process-wide symbol-intern table).
type GaugeSource = Box<dyn Fn() -> u64 + Send + Sync>;

enum Entry {
    Counter { cells: Vec<Arc<AtomicU64>> },
    Gauge { fold: GaugeFold, cells: Vec<Arc<AtomicU64>>, sources: Vec<GaugeSource> },
    Histogram { cells: Vec<Arc<HistCore>> },
}

impl Entry {
    fn kind(&self) -> &'static str {
        match self {
            Entry::Counter { .. } => "counter",
            Entry::Gauge { .. } => "gauge",
            Entry::Histogram { .. } => "histogram",
        }
    }
}

/// One instrument's folded value in a scrape.
#[derive(Debug, Clone)]
pub enum MetricValue {
    Counter(u64),
    Gauge(u64),
    Histogram(HistSnapshot),
}

impl MetricValue {
    pub fn kind(&self) -> &'static str {
        match self {
            MetricValue::Counter(_) => "counter",
            MetricValue::Gauge(_) => "gauge",
            MetricValue::Histogram(_) => "histogram",
        }
    }
}

/// One `(name, labels, value)` row of a scrape.
#[derive(Debug, Clone)]
pub struct MetricSample {
    pub name: String,
    pub labels: Labels,
    pub value: MetricValue,
}

/// The instrument table. Iteration order (and therefore every export) is
/// deterministic: instruments sort by name, then label set.
#[derive(Default)]
pub struct Registry {
    // zlint::allow(locks, "designed cold-path exception: this mutex guards registration and scrape only; per-event updates go through lock-free atomic cells")
    inner: Mutex<BTreeMap<(String, Labels), Entry>>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // zlint::allow(locks, "Debug formatting is diagnostics-only, never on the per-event path")
        let n = self.inner.lock().map(|m| m.len()).unwrap_or(0);
        f.debug_struct("Registry").field("instruments", &n).finish()
    }
}

impl Registry {
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Registers a new counter cell under `name` + `labels`. Call once per
    /// worker thread; the scrape sums all cells.
    ///
    /// Panics if the name is already registered as a different kind.
    pub fn counter(&self, name: &str, labels: Labels) -> Counter {
        let cell = Arc::new(AtomicU64::new(0));
        // zlint::allow(locks, "registration path: called once per instrument at startup, never per event")
        let mut map = self.inner.lock().expect("registry poisoned");
        let entry = map
            .entry((name.to_string(), labels))
            .or_insert_with(|| Entry::Counter { cells: Vec::new() });
        match entry {
            Entry::Counter { cells } => cells.push(cell.clone()),
            other => panic!("instrument '{name}' already registered as {}", other.kind()),
        }
        Counter { cell }
    }

    /// Registers a new gauge cell under `name` + `labels` with the given
    /// fold mode. The fold mode of the first registration wins.
    pub fn gauge(&self, name: &str, labels: Labels, fold: GaugeFold) -> Gauge {
        let cell = Arc::new(AtomicU64::new(0));
        // zlint::allow(locks, "registration path: called once per instrument at startup, never per event")
        let mut map = self.inner.lock().expect("registry poisoned");
        let entry = map.entry((name.to_string(), labels)).or_insert_with(|| Entry::Gauge {
            fold,
            cells: Vec::new(),
            sources: Vec::new(),
        });
        match entry {
            Entry::Gauge { cells, .. } => cells.push(cell.clone()),
            other => panic!("instrument '{name}' already registered as {}", other.kind()),
        }
        Gauge { cell }
    }

    /// Registers a scrape-time gauge source: `f` is evaluated on every
    /// scrape and folded like a cell. Use for values whose truth lives
    /// outside the registry (process-global tables).
    pub fn gauge_fn(
        &self,
        name: &str,
        labels: Labels,
        fold: GaugeFold,
        f: impl Fn() -> u64 + Send + Sync + 'static,
    ) {
        // zlint::allow(locks, "registration path: called once per instrument at startup, never per event")
        let mut map = self.inner.lock().expect("registry poisoned");
        let entry = map.entry((name.to_string(), labels)).or_insert_with(|| Entry::Gauge {
            fold,
            cells: Vec::new(),
            sources: Vec::new(),
        });
        match entry {
            Entry::Gauge { sources, .. } => sources.push(Box::new(f)),
            other => panic!("instrument '{name}' already registered as {}", other.kind()),
        }
    }

    /// Registers a new histogram cell block under `name` + `labels`. Call
    /// once per worker thread; the scrape sums all blocks bucket-wise.
    pub fn histogram(&self, name: &str, labels: Labels) -> Histogram {
        let core = Arc::new(HistCore::new());
        // zlint::allow(locks, "registration path: called once per instrument at startup, never per event")
        let mut map = self.inner.lock().expect("registry poisoned");
        let entry = map
            .entry((name.to_string(), labels))
            .or_insert_with(|| Entry::Histogram { cells: Vec::new() });
        match entry {
            Entry::Histogram { cells } => cells.push(core.clone()),
            other => panic!("instrument '{name}' already registered as {}", other.kind()),
        }
        Histogram { core }
    }

    /// Registers `counter`'s existing cell under `name` + `labels` as well,
    /// so that series reads the same cell: one computation counted for
    /// several subscribers, at no cost per increment.
    pub fn share_counter(&self, name: &str, labels: Labels, counter: &Counter) {
        // zlint::allow(locks, "registration path: called when a subscriber joins a shared engine, never per event")
        let mut map = self.inner.lock().expect("registry poisoned");
        match map
            .entry((name.to_string(), labels))
            .or_insert_with(|| Entry::Counter { cells: Vec::new() })
        {
            Entry::Counter { cells } => cells.push(counter.cell.clone()),
            other => panic!("instrument '{name}' already registered as {}", other.kind()),
        }
    }

    /// Registers `hist`'s existing cell block under `name` + `labels` as
    /// well (see [`Registry::share_counter`]).
    pub fn share_histogram(&self, name: &str, labels: Labels, hist: &Histogram) {
        // zlint::allow(locks, "registration path: called when a subscriber joins a shared engine, never per event")
        let mut map = self.inner.lock().expect("registry poisoned");
        match map
            .entry((name.to_string(), labels))
            .or_insert_with(|| Entry::Histogram { cells: Vec::new() })
        {
            Entry::Histogram { cells } => cells.push(hist.core.clone()),
            other => panic!("instrument '{name}' already registered as {}", other.kind()),
        }
    }

    /// Undoes a [`Registry::share_counter`] for one series: `name` +
    /// `labels` reads a private copy of `counter`'s cell from now on,
    /// starting at the shared cell's current value. Returns the copy.
    pub fn fork_counter(&self, name: &str, labels: Labels, counter: &Counter) -> Counter {
        let copy = Arc::new(AtomicU64::new(counter.get()));
        // zlint::allow(locks, "registration path: called when a subscriber leaves a shared engine, never per event")
        let mut map = self.inner.lock().expect("registry poisoned");
        if let Some(Entry::Counter { cells }) = map.get_mut(&(name.to_string(), labels)) {
            if let Some(cell) = cells.iter_mut().find(|c| Arc::ptr_eq(c, &counter.cell)) {
                *cell = copy.clone();
            }
        }
        Counter { cell: copy }
    }

    /// Undoes a [`Registry::share_histogram`] for one series (see
    /// [`Registry::fork_counter`]). Returns the copy.
    pub fn fork_histogram(&self, name: &str, labels: Labels, hist: &Histogram) -> Histogram {
        let copy = Arc::new(hist.core.copy());
        // zlint::allow(locks, "registration path: called when a subscriber leaves a shared engine, never per event")
        let mut map = self.inner.lock().expect("registry poisoned");
        if let Some(Entry::Histogram { cells }) = map.get_mut(&(name.to_string(), labels)) {
            if let Some(cell) = cells.iter_mut().find(|c| Arc::ptr_eq(c, &hist.core)) {
                *cell = copy.clone();
            }
        }
        Histogram { core: copy }
    }

    /// Folds every instrument into a deterministic, sorted sample list.
    /// Never blocks writers: cell reads are relaxed atomic loads.
    pub fn scrape(&self) -> Vec<MetricSample> {
        // zlint::allow(locks, "scrape path: exporter cadence, not per-event; writers stay lock-free")
        let map = self.inner.lock().expect("registry poisoned");
        map.iter()
            .map(|((name, labels), entry)| {
                let value = match entry {
                    Entry::Counter { cells } => {
                        MetricValue::Counter(cells.iter().map(|c| c.load(Relaxed)).sum())
                    }
                    Entry::Gauge { fold, cells, sources } => {
                        let vals = cells
                            .iter()
                            .map(|c| c.load(Relaxed))
                            .chain(sources.iter().map(|f| f()));
                        MetricValue::Gauge(match fold {
                            GaugeFold::Sum => vals.sum(),
                            GaugeFold::Max => vals.max().unwrap_or(0),
                        })
                    }
                    Entry::Histogram { cells } => {
                        let mut snap = HistSnapshot::empty();
                        for c in cells {
                            c.fold_into(&mut snap);
                        }
                        MetricValue::Histogram(snap)
                    }
                };
                MetricSample { name: name.clone(), labels: labels.clone(), value }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counter_value(samples: &[MetricSample], name: &str) -> u64 {
        match &samples.iter().find(|s| s.name == name).expect("sample").value {
            MetricValue::Counter(v) => *v,
            other => panic!("expected counter, got {}", other.kind()),
        }
    }

    fn gauge_value(samples: &[MetricSample], name: &str) -> u64 {
        match &samples.iter().find(|s| s.name == name).expect("sample").value {
            MetricValue::Gauge(v) => *v,
            other => panic!("expected gauge, got {}", other.kind()),
        }
    }

    #[test]
    fn counters_fold_by_sum_across_cells() {
        let r = Registry::new();
        let a = r.counter("c", labels(&[]));
        let b = r.counter("c", labels(&[]));
        a.add(3);
        b.add(4);
        assert_eq!(counter_value(&r.scrape(), "c"), 7);
    }

    #[test]
    fn gauges_fold_by_mode() {
        let r = Registry::new();
        let a = r.gauge("depth", labels(&[]), GaugeFold::Sum);
        let b = r.gauge("depth", labels(&[]), GaugeFold::Sum);
        a.set(5);
        b.set(2);
        let p = r.gauge("peak", labels(&[]), GaugeFold::Max);
        let q = r.gauge("peak", labels(&[]), GaugeFold::Max);
        p.raise(9);
        q.raise(4);
        let s = r.scrape();
        assert_eq!(gauge_value(&s, "depth"), 7);
        assert_eq!(gauge_value(&s, "peak"), 9);
    }

    #[test]
    fn gauge_sub_saturates() {
        let g = Gauge::standalone();
        g.add(2);
        g.sub(5);
        assert_eq!(g.get(), 0);
    }

    #[test]
    fn gauge_fn_is_read_at_scrape_time() {
        let r = Registry::new();
        let src = Arc::new(AtomicU64::new(1));
        let reader = src.clone();
        r.gauge_fn("live", labels(&[]), GaugeFold::Sum, move || reader.load(Relaxed));
        assert_eq!(gauge_value(&r.scrape(), "live"), 1);
        src.store(42, Relaxed);
        assert_eq!(gauge_value(&r.scrape(), "live"), 42);
    }

    #[test]
    fn distinct_labels_are_distinct_instruments() {
        let r = Registry::new();
        r.counter("c", labels(&[("shard", "0")])).add(1);
        r.counter("c", labels(&[("shard", "1")])).add(2);
        let s = r.scrape();
        assert_eq!(s.len(), 2);
        assert_eq!(s[0].labels, labels(&[("shard", "0")]));
        assert_eq!(s[1].labels, labels(&[("shard", "1")]));
    }

    #[test]
    fn scrape_is_sorted_by_name_then_labels() {
        let r = Registry::new();
        r.counter("b", labels(&[])).inc();
        r.counter("a", labels(&[("x", "2")])).inc();
        r.counter("a", labels(&[("x", "1")])).inc();
        let names: Vec<_> = r.scrape().iter().map(|s| (s.name.clone(), s.labels.clone())).collect();
        assert_eq!(
            names,
            vec![
                ("a".into(), labels(&[("x", "1")])),
                ("a".into(), labels(&[("x", "2")])),
                ("b".into(), labels(&[]))
            ]
        );
    }

    #[test]
    fn shared_cells_read_alike_until_forked() {
        let r = Registry::new();
        let (a, b) = (labels(&[("query", "a")]), labels(&[("query", "b")]));
        let c = r.counter("c", a.clone());
        let h = r.histogram("h", a.clone());
        r.share_counter("c", b.clone(), &c);
        r.share_histogram("h", b.clone(), &h);
        c.add(2);
        h.observe(7);
        let value = |name: &str, l: &Labels| {
            let s = r.scrape();
            match &s.iter().find(|s| s.name == name && s.labels == *l).unwrap().value {
                MetricValue::Counter(v) => *v,
                MetricValue::Histogram(h) => h.count * 1000 + h.sum,
                MetricValue::Gauge(_) => unreachable!(),
            }
        };
        assert_eq!((value("c", &b), value("h", &b)), (2, 1007));
        let (c2, h2) = (r.fork_counter("c", b.clone(), &c), r.fork_histogram("h", b.clone(), &h));
        c.add(1);
        h.observe(1);
        c2.add(10);
        h2.observe(3);
        assert_eq!((value("c", &a), value("h", &a)), (3, 2008));
        assert_eq!((value("c", &b), value("h", &b)), (12, 2010));
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_conflict_panics() {
        let r = Registry::new();
        let _ = r.counter("c", labels(&[]));
        let _ = r.gauge("c", labels(&[]), GaugeFold::Sum);
    }

    #[test]
    fn histogram_cells_fold_bucketwise() {
        let r = Registry::new();
        let h1 = r.histogram("lat", labels(&[]));
        let h2 = r.histogram("lat", labels(&[]));
        h1.observe(1);
        h2.observe(100);
        let s = r.scrape();
        match &s[0].value {
            MetricValue::Histogram(h) => {
                assert_eq!(h.count, 2);
                assert_eq!(h.max, 100);
            }
            other => panic!("expected histogram, got {}", other.kind()),
        }
    }
}
