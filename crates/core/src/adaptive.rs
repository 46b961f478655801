//! Plan adaptation (§5.3).
//!
//! Input rates and selectivities drift, so an initially optimal plan may
//! stop being optimal. The adaptive engine maintains running estimates of
//! the Table 1 statistics with windowed averages:
//!
//! * per-class **rates** and single-class **selectivities** from the
//!   engine's intake counters,
//! * **multi-class predicate selectivities** by sampling event pairs from
//!   the leaf buffers between a check round's intake and its assembly (the
//!   round drains consumed trigger leaves) and evaluating the predicates
//!   on them,
//!
//! and every `check_interval` rounds compares them against the statistics
//! the current plan was built with. When any statistic moved by more than
//! the error threshold `t`, Algorithm 5 re-runs; the new plan is installed
//! only when the predicted improvement exceeds the performance threshold
//! `c`. Switching happens on a round boundary: intermediate state is
//! discarded and rebuilt from the retained leaf buffers, trigger-class
//! cursors are preserved, so no duplicates or losses occur (§5.3's two-step
//! switch protocol).

use std::sync::Arc;

use zstream_events::{EventBatch, EventRef, Record, Ts};
use zstream_lang::{AnalyzedQuery, EventBinding};
use zstream_obs::{Counter, Obs, PlanCandidate, ReplanDecision, StatSeries, TraceKind};

use crate::cost::dp::{plan_cost, search_optimal, PlanSpec};
use crate::cost::stats::Statistics;
use crate::engine::Engine;
use crate::error::CoreError;
use crate::physical::plan::PhysicalPlan;

/// Adaptive controller configuration.
#[derive(Debug, Clone)]
pub struct AdaptiveConfig {
    /// Re-estimate statistics every this many assembly rounds.
    pub check_interval: u64,
    /// Error threshold `t`: re-plan when any statistic's relative change
    /// exceeds this.
    pub error_threshold: f64,
    /// Performance threshold `c`: install a new plan only when
    /// `cost(current)/cost(new)` exceeds this ratio.
    pub improvement_threshold: f64,
    /// Event pairs sampled per multi-class predicate when estimating its
    /// selectivity.
    pub sample_pairs: usize,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        AdaptiveConfig {
            check_interval: 8,
            error_threshold: 0.25,
            improvement_threshold: 1.10,
            sample_pairs: 64,
        }
    }
}

/// Snapshot of intake counters for windowed rate estimation.
#[derive(Debug, Clone, Default)]
struct CounterSnapshot {
    offered: Vec<u64>,
    admitted: Vec<u64>,
    watermark: Ts,
}

/// Decision-log wiring for one adaptive controller (see
/// [`AdaptiveEngine::attach_obs`]).
#[derive(Debug)]
struct AdaptiveObs {
    hub: Arc<Obs>,
    query: String,
    /// `zstream_replans_total{query}`.
    replans: Counter,
    /// Decision awaiting post-hoc actuals: back-filled from the next
    /// measurement window that closes.
    pending_actuals: Option<u64>,
}

/// An [`Engine`] wrapped with the §5.3 adaptive controller.
#[derive(Debug)]
pub struct AdaptiveEngine {
    engine: Engine,
    config: AdaptiveConfig,
    /// Statistics the current plan was chosen under.
    current_stats: Statistics,
    /// The spec of the currently installed plan (re-priced under measured
    /// statistics to decide switches).
    current_spec: Option<PlanSpec>,
    last_snapshot: CounterSnapshot,
    rounds_since_check: u64,
    obs: Option<AdaptiveObs>,
}

impl AdaptiveEngine {
    /// Wraps an engine whose plan was built from `initial_spec` under
    /// `initial_stats`.
    pub fn new(
        engine: Engine,
        initial_spec: Option<PlanSpec>,
        initial_stats: Statistics,
        config: AdaptiveConfig,
    ) -> AdaptiveEngine {
        let (offered, admitted) = engine.class_counters();
        let last_snapshot = CounterSnapshot {
            offered: offered.to_vec(),
            admitted: admitted.to_vec(),
            watermark: engine.watermark(),
        };
        AdaptiveEngine {
            engine,
            config,
            current_stats: initial_stats,
            current_spec: initial_spec,
            last_snapshot,
            rounds_since_check: 0,
            obs: None,
        }
    }

    /// Attaches an observability hub: every replan from here on is
    /// recorded in `hub.decisions` (sampled statistics, per-candidate cost
    /// estimates, the chosen operator tree) and its post-hoc actuals are
    /// back-filled when the next measurement window closes. Also registers
    /// the `zstream_replans_total{query}` counter.
    pub fn attach_obs(&mut self, hub: Arc<Obs>, query: impl Into<String>) {
        let query = query.into();
        let replans =
            hub.metrics.counter("zstream_replans_total", zstream_obs::labels(&[("query", &query)]));
        self.obs = Some(AdaptiveObs { hub, query, replans, pending_actuals: None });
    }

    /// The wrapped engine.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Statistics the current plan was built under.
    pub fn current_stats(&self) -> &Statistics {
        &self.current_stats
    }

    /// Pushes a columnar batch through the engine's intake
    /// ([`Engine::push_columns`]) — one engine round — and, every
    /// `check_interval` rounds, re-measures and maybe switches plans (§5.3
    /// switches happen only on round boundaries).
    pub fn push_columns(&mut self, batch: &EventBatch) -> Vec<Record> {
        self.rounds_since_check += 1;
        if self.rounds_since_check < self.config.check_interval {
            return self.engine.push_columns(batch);
        }
        self.rounds_since_check = 0;
        // Measure between intake and assembly: the round drains the
        // consumed trigger leaf and prunes the other leaves to the EAT
        // floor, so only now do the leaves hold the batch's events to
        // sample predicates over.
        self.engine.admit_columns(batch);
        let measured = self.measure();
        let out = self.engine.round_records();
        if let Some(measured) = measured {
            // Adaptation failures (e.g. degenerate statistics) must never
            // break query processing; skip the check instead.
            let _ = self.adapt(measured);
        }
        out
    }

    /// Ends the stream ([`Engine::flush`]).
    pub fn flush(&mut self) -> Vec<Record> {
        self.engine.flush()
    }

    /// Re-plans if the `measured` statistics drifted, and installs the new
    /// plan if it is predicted to be sufficiently better. Returns whether a
    /// switch happened.
    fn adapt(&mut self, measured: Statistics) -> Result<bool, CoreError> {
        let aq = self.engine.analyzed().clone();
        // A closed measurement window is the post-hoc truth for the
        // previous decision, drift or not — back-fill before deciding.
        self.backfill_actuals(&aq, &measured);
        let drift = self.current_stats.max_relative_change(&measured);
        if drift <= self.config.error_threshold {
            return Ok(false);
        }
        let new_spec = search_optimal(&aq, &measured)?;
        self.engine.metrics_mut().replans += 1;
        // Compare both plans under the *measured* statistics.
        let current_spec_cost = match &self.current_spec {
            Some(spec) => plan_cost(&aq, &measured, spec),
            None => f64::INFINITY,
        };
        let switched = current_spec_cost / new_spec.est_cost >= self.config.improvement_threshold;
        self.record_decision(&aq, &measured, drift, current_spec_cost, &new_spec, switched);
        if !switched {
            self.current_stats = measured;
            return Ok(false);
        }
        let plan = PhysicalPlan::from_spec(&aq, &new_spec, self.engine.plan().config.clone(), &[])?;
        self.engine.install_plan(plan);
        self.current_spec = Some(new_spec);
        self.current_stats = measured;
        Ok(true)
    }

    /// Closes the estimate-vs-actual loop without waiting for the next
    /// check interval: measures once more and back-fills the latest
    /// decision's actuals. Call at end of stream (a decision taken in the
    /// final window would otherwise never see its observed statistics).
    /// It measures after the last round, whose trigger leaves are drained:
    /// a predicate over a trigger class has no sample there and keeps its
    /// current estimate.
    pub fn finalize_observations(&mut self) {
        if let Some(measured) = self.measure() {
            let aq = self.engine.analyzed().clone();
            self.backfill_actuals(&aq, &measured);
        }
    }

    /// Back-fills the pending decision's post-hoc observed statistics.
    fn backfill_actuals(&mut self, aq: &AnalyzedQuery, measured: &Statistics) {
        if let Some(obs) = &mut self.obs {
            if let Some(seq) = obs.pending_actuals.take() {
                obs.hub.decisions.record_actuals(seq, stat_series(aq, measured));
            }
        }
    }

    /// Records one replan in the decision log (and the trace ring) and
    /// arms the post-hoc actuals back-fill.
    fn record_decision(
        &mut self,
        aq: &AnalyzedQuery,
        measured: &Statistics,
        drift: f64,
        current_cost: f64,
        new_spec: &PlanSpec,
        switched: bool,
    ) {
        let Some(obs) = &mut self.obs else { return };
        obs.replans.inc();
        let incumbent = match &self.current_spec {
            Some(spec) => spec.describe(aq),
            None => "(none)".to_string(),
        };
        let proposed = new_spec.describe(aq);
        let at = self.engine.watermark();
        let seq = obs.hub.decisions.record(ReplanDecision {
            seq: 0, // assigned by the log
            query: obs.query.clone(),
            at,
            drift,
            measured: stat_series(aq, measured),
            candidates: vec![
                PlanCandidate { plan: incumbent, est_cost: current_cost, chosen: !switched },
                PlanCandidate {
                    plan: proposed.clone(),
                    est_cost: new_spec.est_cost,
                    chosen: switched,
                },
            ],
            switched,
            actuals: None,
        });
        obs.pending_actuals = Some(seq);
        obs.hub.trace.emit(
            at,
            None,
            Some(&obs.query),
            TraceKind::Replan,
            format!("switched={switched} drift={drift:.3} plan={proposed}"),
        );
    }

    /// Windowed statistics measurement: rates and single-class
    /// selectivities from intake counter deltas, multi-class predicate
    /// selectivities from sampled leaf-buffer event pairs.
    fn measure(&mut self) -> Option<Statistics> {
        let aq = self.engine.analyzed().clone();
        let n = aq.num_classes();
        let (offered, admitted) = {
            let (o, a) = self.engine.class_counters();
            (o.to_vec(), a.to_vec())
        };
        let watermark = self.engine.watermark();
        let dt = watermark.saturating_sub(self.last_snapshot.watermark);
        if dt == 0 {
            return None;
        }
        let mut stats = Statistics::uniform(n, aq.multi_preds.len(), aq.window);
        for c in 0..n {
            let d_off = offered[c] - self.last_snapshot.offered.get(c).copied().unwrap_or(0);
            let d_adm = admitted[c] - self.last_snapshot.admitted.get(c).copied().unwrap_or(0);
            // The engine counts offered per class; the raw class rate after
            // admission over the window:
            stats = stats
                .with_rate(c, d_off as f64 / dt as f64)
                .with_single_sel(c, if d_off == 0 { 1.0 } else { d_adm as f64 / d_off as f64 });
        }
        for (i, p) in aq.multi_preds.iter().enumerate() {
            // No sample — an empty leaf, such as a rare trigger class its
            // last round drained — is no evidence of drift: keep the
            // current estimate.
            let sel = self
                .sample_pred_selectivity(p.mask, &p.expr)
                .unwrap_or_else(|| self.current_stats.pred_sel(i));
            stats = stats.with_pred_sel(i, sel);
        }
        self.last_snapshot = CounterSnapshot { offered, admitted, watermark };
        Some(stats)
    }

    /// Estimates one predicate's selectivity by evaluating it on sampled
    /// event combinations from the referenced classes' leaf buffers.
    fn sample_pred_selectivity(&self, mask: u64, expr: &zstream_lang::TypedExpr) -> Option<f64> {
        let classes: Vec<usize> = (0..64).filter(|c| mask & (1u64 << c) != 0).collect();
        if classes.is_empty() || classes.len() > 2 {
            return None;
        }
        let plan = self.engine.plan();
        let bufs: Vec<&crate::physical::buffer::Buffer> =
            classes.iter().map(|c| &plan.nodes[plan.leaf_of_class[*c]].buf).collect();
        if bufs.iter().any(|b| b.is_empty()) {
            return None;
        }
        struct SampleBinding<'a> {
            classes: &'a [usize],
            events: Vec<&'a EventRef>,
        }
        impl EventBinding for SampleBinding<'_> {
            fn event(&self, class: usize) -> Option<&EventRef> {
                self.classes.iter().position(|c| *c == class).map(|i| self.events[i])
            }
            fn closure(&self, class: usize) -> &[EventRef] {
                match self.event(class) {
                    Some(e) => std::slice::from_ref(e),
                    None => &[],
                }
            }
        }
        let mut tried = 0usize;
        let mut passed = 0usize;
        // Deterministic stride sampling over the cross product.
        let k = self.config.sample_pairs;
        for s in 0..k {
            let events: Vec<&EventRef> = bufs
                .iter()
                .enumerate()
                .filter_map(|(bi, b)| b.get(sample_index(s, bi, b.len())).one(0))
                .collect();
            if events.len() != bufs.len() {
                continue;
            }
            let binding = SampleBinding { classes: &classes, events };
            tried += 1;
            if matches!(expr.eval(&binding), Ok(zstream_events::Value::Bool(true))) {
                passed += 1;
            }
        }
        (tried > 0).then(|| (passed as f64 / tried as f64).clamp(0.001, 1.0))
    }
}

/// Renders statistics as the decision log's generic named series:
/// `rate.<class>` and `sel.<class>` per pattern class, `pred.<i>` per
/// multi-class predicate.
fn stat_series(aq: &AnalyzedQuery, stats: &Statistics) -> StatSeries {
    let mut out = Vec::with_capacity(2 * aq.num_classes() + aq.multi_preds.len());
    for (c, class) in aq.classes.iter().enumerate() {
        out.push((format!("rate.{}", class.name), stats.rate(c)));
        out.push((format!("sel.{}", class.name), stats.single_sel(c)));
    }
    for i in 0..aq.multi_preds.len() {
        out.push((format!("pred.{i}"), stats.pred_sel(i)));
    }
    out
}

/// The `s`-th sampled index into buffer `bi` of length `len`.
///
/// Strides through the buffer with a per-buffer stride made **coprime** to
/// `len`, so consecutive samples visit every index before repeating (a full
/// cycle of Z/len). The naive `(s * (bi * 7 + 3)) % len` strides by a fixed
/// constant: whenever `len` divides the stride (any length-3 buffer for
/// `bi = 0`, length-10 for `bi = 1`, …) it degenerates to sampling index 0
/// only, silently biasing the multi-class selectivity estimate toward
/// whatever single pair sits at the buffer heads.
fn sample_index(s: usize, bi: usize, len: usize) -> usize {
    if len <= 1 {
        return 0;
    }
    (s * coprime_stride(bi * 7 + 3, len)) % len
}

/// The smallest value ≥ `base` (mod-adjusted into `1..`) coprime to `len`.
/// Terminates because `len + 1` is always coprime to `len`.
fn coprime_stride(base: usize, len: usize) -> usize {
    let mut stride = base % len;
    if stride == 0 {
        stride = 1;
    }
    while gcd(stride, len) != 1 {
        stride += 1;
    }
    stride
}

fn gcd(mut a: usize, mut b: usize) -> usize {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// Regression: the degenerate lengths where the old fixed-stride sampler
    /// collapsed to index 0 (len divides the stride) now cycle through every
    /// index.
    #[test]
    fn stride_sampler_covers_degenerate_lengths() {
        for (bi, len) in [(0usize, 3usize), (1, 10), (0, 1), (0, 9), (1, 17), (2, 2)] {
            let seen: BTreeSet<usize> = (0..len.max(1)).map(|s| sample_index(s, bi, len)).collect();
            assert_eq!(
                seen.len(),
                len.max(1),
                "bi={bi} len={len}: {len} samples must cover all {len} indices, got {seen:?}"
            );
            assert!(seen.iter().all(|i| *i < len.max(1)), "indices in range");
        }
    }

    /// The old formula's failure mode, pinned: stride 3 over a length-3
    /// buffer only ever sampled index 0.
    #[test]
    fn old_formula_was_degenerate_new_one_is_not() {
        let old: BTreeSet<usize> = (0..64).map(|s| (s * 3) % 3).collect();
        assert_eq!(old.len(), 1, "the bug this guards against");
        let new: BTreeSet<usize> = (0..64).map(|s| sample_index(s, 0, 3)).collect();
        assert_eq!(new.len(), 3);
    }

    #[test]
    fn strides_are_coprime_to_length() {
        for len in 2usize..40 {
            for base in 1usize..30 {
                let stride = coprime_stride(base, len);
                assert_eq!(gcd(stride, len), 1, "base={base} len={len} stride={stride}");
            }
        }
    }
}
