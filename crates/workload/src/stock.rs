//! Synthetic stock-trade streams (§6: "We generate synthetic stock events so
//! that event rates and the selectivity of multi-class predicates could be
//! controlled").
//!
//! * **Rates** — each event picks its stock name from a weighted
//!   distribution; with one logical time unit per event, a class's rate is
//!   its weight fraction (so `1:100:100:100` reproduces the paper's skewed
//!   regimes exactly in expectation).
//! * **Selectivity** — prices are uniform on `[0, 100)`; for independent
//!   uniform prices the predicate `A.price > f · B.price` has analytic
//!   selectivity `1/(2f)` for `f ≥ 1` and `1 − f/2` for `f ≤ 1`, so any
//!   target selectivity in `(0, 1]` maps to a factor via
//!   [`price_factor_for_selectivity`].

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use zstream_events::{Event, EventBatch, EventRef, Schema, Sym, Ts, Value};

use crate::disorder::DisorderSpec;

/// Configuration of a synthetic stock stream.
#[derive(Debug, Clone)]
pub struct StockConfig {
    /// Stock names with their relative rate weights.
    pub names: Vec<(String, f64)>,
    /// Total number of events to generate.
    pub len: usize,
    /// RNG seed (generation is fully deterministic per seed).
    pub seed: u64,
    /// Timestamp increment per event (default 1 — one event per time unit).
    pub ts_step: Ts,
    /// Per-name price scale (aligned with `names`, default 1.0). Scaling a
    /// name's prices by `s` changes the effective selectivity of a
    /// fixed-factor comparison `A.price > f · B.price` to that of factor
    /// `f·s` — how the evaluation varies predicate selectivity without
    /// changing the query (§6.2, Figure 12/14 regimes).
    pub price_scales: Vec<f64>,
    /// Arrival-order disorder applied to the generated stream (default
    /// `None` — perfectly time-ordered output). See [`DisorderSpec`].
    pub disorder: Option<DisorderSpec>,
}

impl StockConfig {
    /// Uniform rates over `names` (the paper's `1:1:1` default).
    pub fn uniform(names: &[&str], len: usize, seed: u64) -> StockConfig {
        StockConfig {
            names: names.iter().map(|n| (n.to_string(), 1.0)).collect(),
            len,
            seed,
            ts_step: 1,
            price_scales: vec![1.0; names.len()],
            disorder: None,
        }
    }

    /// Explicit relative rates, e.g. `[("IBM", 1.0), ("Sun", 100.0), …]`.
    pub fn with_rates(names: &[(&str, f64)], len: usize, seed: u64) -> StockConfig {
        StockConfig {
            names: names.iter().map(|(n, w)| (n.to_string(), *w)).collect(),
            len,
            seed,
            ts_step: 1,
            price_scales: vec![1.0; names.len()],
            disorder: None,
        }
    }

    /// Emits the stream in disordered **arrival order** (see
    /// [`DisorderSpec`]); batches from
    /// [`StockGenerator::generate_batches`] then carry unsorted rows.
    pub fn disordered(mut self, spec: DisorderSpec) -> StockConfig {
        self.disorder = Some(spec);
        self
    }

    /// Sets one name's price scale (see `price_scales`).
    pub fn price_scale(mut self, name: &str, scale: f64) -> StockConfig {
        let idx = self
            .names
            .iter()
            .position(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("unknown name '{name}'"));
        self.price_scales[idx] = scale;
        self
    }
}

/// Price-comparison factor achieving a target selectivity for
/// `A.price > f · B.price` over independent uniform prices.
///
/// For `s ≤ 1/2`, `f = 1/(2s)`; for `s ≥ 1/2`, `f = 2(1 − s)`; `s = 1`
/// degenerates to `f = 0` (always true for positive prices).
pub fn price_factor_for_selectivity(s: f64) -> f64 {
    assert!(s > 0.0 && s <= 1.0, "selectivity must be in (0, 1], got {s}");
    if s <= 0.5 {
        1.0 / (2.0 * s)
    } else {
        2.0 * (1.0 - s)
    }
}

/// Deterministic stock-trade generator.
#[derive(Debug)]
pub struct StockGenerator {
    config: StockConfig,
    rng: StdRng,
    cumulative: Vec<f64>,
    next_id: i64,
    ts: Ts,
    produced: usize,
}

impl StockGenerator {
    /// Creates a generator for `config`.
    pub fn new(config: StockConfig) -> StockGenerator {
        assert!(!config.names.is_empty());
        let total: f64 = config.names.iter().map(|(_, w)| w).sum();
        let mut acc = 0.0;
        let cumulative = config
            .names
            .iter()
            .map(|(_, w)| {
                acc += w / total;
                acc
            })
            .collect();
        let rng = StdRng::seed_from_u64(config.seed);
        StockGenerator { config, rng, cumulative, next_id: 0, ts: 0, produced: 0 }
    }

    /// Generates the whole stream eagerly as handles into shared columnar
    /// batches — no per-event allocation.
    pub fn generate(config: StockConfig) -> Vec<EventRef> {
        let len = config.len.max(1);
        StockGenerator::generate_batches(config, len).iter().flat_map(EventBatch::iter).collect()
    }

    /// Generates the stream directly as struct-of-arrays [`EventBatch`]es of
    /// `batch_size` rows (the last batch may be shorter). The row values are
    /// identical to [`StockGenerator::generate`] for the same config — the
    /// two only differ in batch boundaries. With
    /// [`StockConfig::disordered`] set, rows are emitted in the spec's
    /// arrival order instead of time order (batches may be unsorted).
    pub fn generate_batches(config: StockConfig, batch_size: usize) -> Vec<EventBatch> {
        assert!(batch_size >= 1, "batch size must be at least 1");
        let disorder = config.disorder;
        let mut g = StockGenerator::new(config);
        // Intern each name once; every generated row reuses the symbol.
        let name_syms: Vec<Sym> = g.config.names.iter().map(|(n, _)| Sym::intern(n)).collect();
        let schema = Schema::stocks();
        let mut out = Vec::with_capacity(g.config.len.div_ceil(batch_size));
        let mut builder = EventBatch::builder(schema.clone(), batch_size.min(g.config.len));
        while let Some(row) = g.next_row() {
            builder
                .push_row(
                    row.ts,
                    &[
                        Value::Int(row.id),
                        Value::Str(name_syms[row.name_idx]),
                        Value::Float(row.price),
                        Value::Int(row.volume),
                    ],
                )
                .expect("stock rows are well-typed");
            if builder.len() == batch_size {
                out.push(builder.finish());
                let remaining = g.config.len - g.produced;
                builder = EventBatch::builder(schema.clone(), batch_size.min(remaining.max(1)));
            }
        }
        if !builder.is_empty() {
            out.push(builder.finish());
        }
        match disorder {
            Some(spec) => spec.shuffle_batches(&out, batch_size),
            None => out,
        }
    }

    /// Draws the next row's raw values (shared by the streaming and the
    /// columnar construction paths; the RNG call order defines the stream).
    fn next_row(&mut self) -> Option<StockRow> {
        if self.produced >= self.config.len {
            return None;
        }
        self.produced += 1;
        self.ts += self.config.ts_step;
        let x: f64 = self.rng.random();
        let name_idx = self.cumulative.partition_point(|c| *c < x).min(self.config.names.len() - 1);
        let price = self.rng.random::<f64>() * 100.0 * self.config.price_scales[name_idx];
        let volume: i64 = self.rng.random_range(1..1000);
        let id = self.next_id;
        self.next_id += 1;
        Some(StockRow { ts: self.ts, id, name_idx, price, volume })
    }

    /// The next event, or `None` when `len` events were produced. Builds a
    /// standalone (single-row-batch) event; prefer
    /// [`StockGenerator::generate_batches`] on high-rate paths.
    pub fn next_event(&mut self) -> Option<EventRef> {
        let row = self.next_row()?;
        let name = &self.config.names[row.name_idx].0;
        Some(
            Event::builder(Schema::stocks(), row.ts)
                .value(row.id)
                .value(name.as_str())
                .value(row.price)
                .value(row.volume)
                .build_ref()
                .expect("stock events are well-typed"),
        )
    }
}

/// One drawn row of the synthetic stock stream.
struct StockRow {
    ts: Ts,
    id: i64,
    name_idx: usize,
    price: f64,
    volume: i64,
}

impl Iterator for StockGenerator {
    type Item = EventRef;

    fn next(&mut self) -> Option<EventRef> {
        self.next_event()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_requested_length_in_time_order() {
        let events = StockGenerator::generate(StockConfig::uniform(&["IBM", "Sun"], 500, 7));
        assert_eq!(events.len(), 500);
        assert!(events.windows(2).all(|w| w[0].ts() < w[1].ts()));
    }

    #[test]
    fn batches_match_flat_generation() {
        let cfg = StockConfig::uniform(&["IBM", "Sun", "Oracle"], 300, 5);
        let flat = StockGenerator::generate(cfg.clone());
        let batches = StockGenerator::generate_batches(cfg, 64);
        assert_eq!(batches.iter().map(|b| b.len()).sum::<usize>(), 300);
        assert!(batches[..batches.len() - 1].iter().all(|b| b.len() == 64));
        let rebuilt: Vec<String> =
            batches.iter().flat_map(|b| b.iter()).map(|e| e.to_string()).collect();
        let flat_strs: Vec<String> = flat.iter().map(|e| e.to_string()).collect();
        assert_eq!(rebuilt, flat_strs);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = StockGenerator::generate(StockConfig::uniform(&["IBM", "Sun"], 100, 42));
        let b = StockGenerator::generate(StockConfig::uniform(&["IBM", "Sun"], 100, 42));
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.to_string(), y.to_string());
        }
        let c = StockGenerator::generate(StockConfig::uniform(&["IBM", "Sun"], 100, 43));
        assert!(a.iter().zip(&c).any(|(x, y)| x.to_string() != y.to_string()));
    }

    #[test]
    fn rates_follow_weights() {
        let cfg = StockConfig::with_rates(&[("IBM", 1.0), ("Sun", 9.0)], 20_000, 1);
        let events = StockGenerator::generate(cfg);
        let ibm = events
            .iter()
            .filter(|e| e.value_by_name("name").unwrap().as_str().unwrap() == "IBM")
            .count();
        let frac = ibm as f64 / events.len() as f64;
        assert!((frac - 0.1).abs() < 0.02, "IBM fraction {frac} should be ~0.1");
    }

    #[test]
    fn price_factor_mapping_is_analytic() {
        // Monte-Carlo check of the analytic selectivity formula.
        let events = StockGenerator::generate(StockConfig::uniform(&["A"], 20_000, 3));
        for target in [0.5, 0.25, 1.0 / 32.0, 0.75] {
            let f = price_factor_for_selectivity(target);
            let mut hits = 0usize;
            let mut total = 0usize;
            for pair in events.chunks_exact(2) {
                let pa = pair[0].value_by_name("price").unwrap().as_f64().unwrap();
                let pb = pair[1].value_by_name("price").unwrap().as_f64().unwrap();
                total += 1;
                if pa > f * pb {
                    hits += 1;
                }
            }
            let measured = hits as f64 / total as f64;
            assert!(
                (measured - target).abs() < 0.02,
                "target {target}: measured {measured} with factor {f}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "selectivity must be in (0, 1]")]
    fn zero_selectivity_rejected() {
        price_factor_for_selectivity(0.0);
    }
}
