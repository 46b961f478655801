//! Statistics used for cost estimation — Table 1 of the paper.
//!
//! | Term        | Definition                                                    |
//! |-------------|---------------------------------------------------------------|
//! | `R_E`       | rate of primitive events of class/partition E (events/time)   |
//! | `TW_p`      | time window of the pattern                                     |
//! | `P_E`       | product of single-class predicate selectivities of E          |
//! | `CARD_E`    | `R_E * TW_p * P_E` — instances of E active within the window  |
//! | `Pt_E1,E2`  | selectivity of the implicit time predicate (default 1/2)      |
//! | `P_E1,E2`   | product of multi-class predicate selectivities between E1, E2 |
//!
//! Statistics come from two sources: **declared** (benchmarks with analytic
//! selectivities) and **sampled** (windowed averages maintained by the
//! adaptive engine, §5.3).

use crate::error::CoreError;

/// Default selectivity of the implicit time predicate between two classes in
/// a sequential pattern (`E1.end-ts < E2.start-ts`); the paper sets 1/2.
pub const DEFAULT_PT: f64 = 0.5;

/// Default selectivity assumed for a multi-class predicate with no declared
/// or measured estimate.
pub const DEFAULT_PRED_SEL: f64 = 0.5;

/// Statistics about the input streams and predicates of one query.
///
/// ```
/// use zstream_core::Statistics;
/// // 3 classes, 1 multi-class predicate, window 200. Class 1 receives 4
/// // events per time unit of which half pass its single-class predicates:
/// let stats = Statistics::uniform(3, 1, 200)
///     .with_rate(1, 4.0)
///     .with_single_sel(1, 0.5)
///     .with_pred_sel(0, 0.25);
/// assert_eq!(stats.card(1), 4.0 * 200.0 * 0.5); // CARD_E of Table 1
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Statistics {
    /// Per-class raw event rate `R_E` (events per logical time unit offered
    /// to the class's intake, before single-class predicates).
    rates: Vec<f64>,
    /// Per-class single-class predicate selectivity `P_E`.
    single_sel: Vec<f64>,
    /// Per-multi-class-predicate selectivity, aligned with
    /// `AnalyzedQuery::multi_preds`.
    pred_sel: Vec<f64>,
    /// Time window `TW_p`.
    window: f64,
    /// Implicit time-predicate selectivity `Pt` (uniform; default 1/2).
    pt: f64,
}

impl Statistics {
    /// Uniform defaults for `n` classes and `m` multi-class predicates:
    /// rate 1, selectivity 1 for single-class predicates, [`DEFAULT_PRED_SEL`]
    /// for multi-class predicates.
    pub fn uniform(n: usize, m: usize, window: u64) -> Statistics {
        Statistics {
            rates: vec![1.0; n],
            single_sel: vec![1.0; n],
            pred_sel: vec![DEFAULT_PRED_SEL; m],
            window: window as f64,
            pt: DEFAULT_PT,
        }
    }

    /// Sets the raw event rate of one class.
    pub fn with_rate(mut self, class: usize, rate: f64) -> Statistics {
        self.rates[class] = rate;
        self
    }

    /// Sets all class rates at once.
    pub fn with_rates(mut self, rates: &[f64]) -> Statistics {
        self.rates = rates.to_vec();
        self
    }

    /// Sets the single-class selectivity of one class.
    pub fn with_single_sel(mut self, class: usize, sel: f64) -> Statistics {
        self.single_sel[class] = sel;
        self
    }

    /// Sets the selectivity of the `i`-th multi-class predicate.
    pub fn with_pred_sel(mut self, pred: usize, sel: f64) -> Statistics {
        self.pred_sel[pred] = sel;
        self
    }

    /// Validates dimensions against a query with `n` classes and `m`
    /// multi-class predicates.
    pub fn validate(&self, n: usize, m: usize) -> Result<(), CoreError> {
        if self.rates.len() != n || self.single_sel.len() != n {
            return Err(CoreError::BadStatistics(format!(
                "expected {n} class entries, got {} rates / {} selectivities",
                self.rates.len(),
                self.single_sel.len()
            )));
        }
        if self.pred_sel.len() != m {
            return Err(CoreError::BadStatistics(format!(
                "expected {m} predicate selectivities, got {}",
                self.pred_sel.len()
            )));
        }
        for (i, r) in self.rates.iter().enumerate() {
            if !r.is_finite() || *r < 0.0 {
                return Err(CoreError::BadStatistics(format!("rate of class {i} is {r}")));
            }
        }
        for (i, s) in self.single_sel.iter().chain(self.pred_sel.iter()).enumerate() {
            if !s.is_finite() || !(0.0..=1.0).contains(s) {
                return Err(CoreError::BadStatistics(format!(
                    "selectivity entry {i} is {s}, must be in [0, 1]"
                )));
            }
        }
        Ok(())
    }

    /// `R_E` for one class.
    pub fn rate(&self, class: usize) -> f64 {
        self.rates[class]
    }

    /// `P_E` for one class.
    pub fn single_sel(&self, class: usize) -> f64 {
        self.single_sel[class]
    }

    /// `CARD_E = R_E * TW_p * P_E` (Table 1).
    pub fn card(&self, class: usize) -> f64 {
        self.rates[class] * self.window * self.single_sel[class]
    }

    /// The time window `TW_p`.
    pub fn window(&self) -> f64 {
        self.window
    }

    /// `Pt` — implicit time-predicate selectivity.
    pub fn pt(&self) -> f64 {
        self.pt
    }

    /// Selectivity of the `i`-th multi-class predicate.
    pub fn pred_sel(&self, i: usize) -> f64 {
        self.pred_sel[i]
    }

    /// Number of class entries.
    pub fn num_classes(&self) -> usize {
        self.rates.len()
    }

    /// Largest relative change between `self` and `other`, used by the
    /// adaptive controller's error threshold `t` (§5.3).
    pub fn max_relative_change(&self, other: &Statistics) -> f64 {
        fn rel(a: f64, b: f64) -> f64 {
            let denom = a.abs().max(1e-12);
            (a - b).abs() / denom
        }
        let mut worst: f64 = 0.0;
        for (a, b) in self.rates.iter().zip(&other.rates) {
            worst = worst.max(rel(*a, *b));
        }
        for (a, b) in self.single_sel.iter().zip(&other.single_sel) {
            worst = worst.max(rel(*a, *b));
        }
        for (a, b) in self.pred_sel.iter().zip(&other.pred_sel) {
            worst = worst.max(rel(*a, *b));
        }
        worst
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn card_is_rate_window_selectivity() {
        let s = Statistics::uniform(3, 0, 10).with_rate(1, 4.0).with_single_sel(1, 0.25);
        assert_eq!(s.card(0), 10.0);
        assert_eq!(s.card(1), 4.0 * 10.0 * 0.25);
    }

    #[test]
    fn validate_checks_dimensions_and_ranges() {
        let s = Statistics::uniform(2, 1, 10);
        assert!(s.validate(2, 1).is_ok());
        assert!(s.validate(3, 1).is_err());
        assert!(s.validate(2, 2).is_err());
        let bad = Statistics::uniform(2, 1, 10).with_pred_sel(0, 1.5);
        assert!(bad.validate(2, 1).is_err());
        let bad = Statistics::uniform(2, 1, 10).with_rate(0, f64::NAN);
        assert!(bad.validate(2, 1).is_err());
    }

    #[test]
    fn relative_change_detects_drift() {
        let a = Statistics::uniform(2, 1, 10);
        let mut b = a.clone();
        assert_eq!(a.max_relative_change(&b), 0.0);
        b = b.with_rate(0, 2.0);
        assert!((a.max_relative_change(&b) - 1.0).abs() < 1e-12);
    }
}
