//! Optimal operator ordering — Algorithm 5 of the paper (§5.2.3).
//!
//! The optimizer works over **units**: the positive building blocks of a
//! flat sequential pattern. A plain class is a unit; a Kleene closure fuses
//! with its anchor neighbors into a single trinary KSEQ unit (Figure 4
//! right); a negation handled by push-down fuses with the class that follows
//! it into an NSEQ unit (Figure 4 left); negations handled by a top filter
//! are kept out of the unit list and priced as a final NEG stage.
//!
//! Over those units, the dynamic program of Algorithm 5 finds the cheapest
//! binary join order — including bushy plans — in O(n³) by exploiting the
//! optimal-substructure property (Theorem 5.1): it grows optimal sub-plans
//! for every contiguous sub-range, recording the chosen root in a `ROOT`
//! matrix from which the final [`PlanShape`] is reconstructed.

use zstream_lang::{AnalyzedQuery, ClassId, KleeneKind, TypedPattern};

use crate::cost::model::{CostModel, OperatorCost};
use crate::cost::shape::PlanShape;
use crate::cost::stats::Statistics;
use crate::error::CoreError;

/// One positive unit of a sequential pattern.
#[derive(Debug, Clone, PartialEq)]
pub enum UnitKind {
    /// A plain event class.
    Class(ClassId),
    /// A Kleene closure fused with its anchors (KSEQ is trinary, §4.4.5).
    Kseq {
        /// Start anchor class (absent when the closure opens the pattern).
        start: Option<ClassId>,
        /// The closure class.
        closure: ClassId,
        /// Closure kind.
        kind: KleeneKind,
        /// End anchor class (absent when the closure ends the pattern).
        end: Option<ClassId>,
    },
    /// A pushed-down negation fused with the class that follows it:
    /// `!B;C` evaluated by `NSEQ(B, C)` (§4.4.2).
    Nseq {
        /// Negated classes (more than one for `!(B|C)`).
        neg: Vec<ClassId>,
        /// The non-negated anchor class `C`.
        anchor: ClassId,
    },
}

/// A unit plus its cached class mask.
#[derive(Debug, Clone, PartialEq)]
pub struct Unit {
    /// The unit kind.
    pub kind: UnitKind,
}

impl Unit {
    /// All classes covered by this unit, in pattern order.
    pub fn classes(&self) -> Vec<ClassId> {
        match &self.kind {
            UnitKind::Class(c) => vec![*c],
            UnitKind::Kseq { start, closure, end, .. } => {
                let mut v = Vec::new();
                if let Some(s) = start {
                    v.push(*s);
                }
                v.push(*closure);
                if let Some(e) = end {
                    v.push(*e);
                }
                v
            }
            UnitKind::Nseq { neg, anchor } => {
                let mut v = neg.clone();
                v.push(*anchor);
                v
            }
        }
    }

    /// Bitmask of covered classes.
    pub fn mask(&self) -> u64 {
        self.classes().iter().fold(0, |m, c| m | (1u64 << c))
    }

    /// Base cost and output cardinality of evaluating the unit itself.
    pub fn base_cost(&self, cm: &CostModel<'_>) -> (f64, f64) {
        match &self.kind {
            UnitKind::Class(c) => (0.0, cm.stats.card(*c)),
            UnitKind::Kseq { start, closure, kind, end } => {
                let oc = cm.kseq(*start, *closure, *kind, *end);
                (oc.total(), oc.output)
            }
            UnitKind::Nseq { neg, anchor } => {
                let oc = cm.nseq(neg, *anchor);
                (oc.total(), oc.output)
            }
        }
    }
}

/// A negation evaluated as a final filter stage (the `NEG` on top of the
/// plan, §4.4.2 / Table 2).
#[derive(Debug, Clone, PartialEq)]
pub struct TopNeg {
    /// Negated classes.
    pub neg: Vec<ClassId>,
    /// Class immediately preceding the negation in pattern order.
    pub prev: ClassId,
    /// Class immediately following the negation in pattern order.
    pub next: ClassId,
}

/// A complete physical plan specification: units, their join order, and how
/// each negation is evaluated.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanSpec {
    /// Positive units in pattern order.
    pub units: Vec<Unit>,
    /// Join order over the units.
    pub shape: PlanShape,
    /// Negations evaluated by a top filter (empty when all are pushed down).
    pub top_negs: Vec<TopNeg>,
    /// Estimated cost of the whole plan under the statistics it was built
    /// with (Formula 1 summed over all operators).
    pub est_cost: f64,
}

impl PlanSpec {
    /// Human-readable single-line description.
    pub fn describe(&self, aq: &AnalyzedQuery) -> String {
        let names: Vec<String> = self
            .units
            .iter()
            .map(|u| {
                let cs = u.classes();
                match &u.kind {
                    UnitKind::Class(c) => aq.classes[*c].name.clone(),
                    UnitKind::Kseq { .. } => format!(
                        "KSEQ({})",
                        cs.iter()
                            .map(|c| aq.classes[*c].name.as_str())
                            .collect::<Vec<_>>()
                            .join(",")
                    ),
                    UnitKind::Nseq { .. } => format!(
                        "NSEQ({})",
                        cs.iter()
                            .map(|c| aq.classes[*c].name.as_str())
                            .collect::<Vec<_>>()
                            .join(",")
                    ),
                }
            })
            .collect();
        let mut s = format!("shape {} over [{}]", self.shape, names.join(", "));
        for n in &self.top_negs {
            s.push_str(&format!(
                ", NEG({}) on top",
                n.neg.iter().map(|c| aq.classes[*c].name.as_str()).collect::<Vec<_>>().join("|")
            ));
        }
        s
    }
}

/// A term of the flattened sequential pattern.
#[derive(Debug, Clone, PartialEq)]
enum Term {
    Pos(ClassId),
    Kleene(ClassId, KleeneKind),
    Neg(Vec<ClassId>),
}

/// Flattens a validated sequential pattern into terms, merging consecutive
/// negations (`!B;!C` ≡ `!(B|C)`), and rejecting shapes the sequential
/// planner cannot handle (conjunction/disjunction groups — those are planned
/// syntax-directed instead).
fn extract_terms(aq: &AnalyzedQuery) -> Result<Vec<Term>, CoreError> {
    let seq: Vec<&TypedPattern> = match &aq.pattern {
        TypedPattern::Seq(xs) => xs.iter().collect(),
        one @ (TypedPattern::Class(_) | TypedPattern::Kleene(_, _)) => vec![one],
        _ => {
            return Err(CoreError::UnsupportedPattern(
                "the sequential planner requires a flat sequence pattern".into(),
            ))
        }
    };
    let mut terms: Vec<Term> = Vec::new();
    for part in seq {
        match part {
            TypedPattern::Class(c) => terms.push(Term::Pos(*c)),
            TypedPattern::Kleene(c, k) => terms.push(Term::Kleene(*c, *k)),
            TypedPattern::Neg(inner) => {
                let classes = match inner.as_ref() {
                    TypedPattern::Class(c) => vec![*c],
                    TypedPattern::Disj(xs) => xs
                        .iter()
                        .map(|x| match x {
                            TypedPattern::Class(c) => Ok(*c),
                            _ => Err(CoreError::UnsupportedNegation(
                                "negated disjunction must contain only classes".into(),
                            )),
                        })
                        .collect::<Result<_, _>>()?,
                    _ => {
                        return Err(CoreError::UnsupportedNegation(
                            "only classes or disjunctions of classes can be negated".into(),
                        ))
                    }
                };
                // Merge consecutive negation terms.
                if let Some(Term::Neg(prev)) = terms.last_mut() {
                    prev.extend(classes);
                } else {
                    terms.push(Term::Neg(classes));
                }
            }
            _ => {
                return Err(CoreError::UnsupportedPattern(
                    "conjunction/disjunction groups are planned syntax-directed".into(),
                ))
            }
        }
    }
    if matches!(terms.first(), Some(Term::Neg(_))) || matches!(terms.last(), Some(Term::Neg(_))) {
        return Err(CoreError::UnsupportedNegation(
            "negation cannot open or close a pattern (§4.4.2: nothing to anchor to)".into(),
        ));
    }
    Ok(terms)
}

/// True when a negation group may be pushed down into an NSEQ: all its
/// multi-class predicates must apply to at most one non-negation class — the
/// anchor (§4.4.2, last paragraph).
fn pushdown_valid(aq: &AnalyzedQuery, neg: &[ClassId], anchor: ClassId) -> bool {
    let neg_mask: u64 = neg.iter().fold(0, |m, c| m | (1u64 << c));
    let allowed = neg_mask | (1u64 << anchor);
    aq.multi_preds.iter().filter(|p| p.mask & neg_mask != 0).all(|p| p.mask & !allowed == 0)
}

/// Builds the unit list for one per-negation strategy choice. `pushdown[g]`
/// decides the strategy of the `g`-th negation group.
fn build_units(
    _aq: &AnalyzedQuery,
    terms: &[Term],
    pushdown: &[bool],
) -> Result<(Vec<Unit>, Vec<TopNeg>), CoreError> {
    let mut units: Vec<Unit> = Vec::new();
    let mut top_negs = Vec::new();
    let mut pending_neg: Option<Vec<ClassId>> = None;
    let mut neg_group = 0usize;

    let mut i = 0;
    while i < terms.len() {
        match &terms[i] {
            Term::Neg(classes) => {
                let push = pushdown[neg_group];
                neg_group += 1;
                if push {
                    pending_neg = Some(classes.clone());
                } else {
                    let prev = match units.last() {
                        Some(u) => *u.classes().last().expect("units are nonempty"),
                        None => {
                            return Err(CoreError::UnsupportedNegation(
                                "negation cannot open a pattern".into(),
                            ))
                        }
                    };
                    let next = match &terms[i + 1] {
                        Term::Pos(c) | Term::Kleene(c, _) => *c,
                        Term::Neg(_) => unreachable!("consecutive negations are merged"),
                    };
                    top_negs.push(TopNeg { neg: classes.clone(), prev, next });
                }
                i += 1;
            }
            Term::Pos(c) => {
                if let Some(neg) = pending_neg.take() {
                    units.push(Unit { kind: UnitKind::Nseq { neg, anchor: *c } });
                } else {
                    units.push(Unit { kind: UnitKind::Class(*c) });
                }
                i += 1;
            }
            Term::Kleene(c, kind) => {
                if pending_neg.is_some() {
                    return Err(CoreError::UnsupportedNegation(
                        "negation adjacent to a Kleene closure is not supported".into(),
                    ));
                }
                // Fuse with the previous unit (start anchor) when it is a
                // plain class, and with the next positive class (end anchor).
                let start = match units.last() {
                    Some(Unit { kind: UnitKind::Class(s) }) => {
                        let s = *s;
                        units.pop();
                        Some(s)
                    }
                    Some(_) => {
                        return Err(CoreError::UnsupportedClosure(
                            "closure must be anchored by plain classes".into(),
                        ))
                    }
                    None => None,
                };
                let end = match terms.get(i + 1) {
                    Some(Term::Pos(e)) => {
                        i += 1; // consume the end anchor
                        Some(*e)
                    }
                    Some(Term::Kleene(..)) => {
                        return Err(CoreError::UnsupportedClosure(
                            "adjacent Kleene closures are not supported".into(),
                        ))
                    }
                    Some(Term::Neg(_)) => {
                        return Err(CoreError::UnsupportedNegation(
                            "negation adjacent to a Kleene closure is not supported".into(),
                        ))
                    }
                    None => {
                        if !matches!(kind, KleeneKind::Count(_)) {
                            return Err(CoreError::UnsupportedClosure(
                                "an unbounded closure cannot end a pattern (no end anchor \
                                 fixes the maximal group)"
                                    .into(),
                            ));
                        }
                        None
                    }
                };
                units.push(Unit { kind: UnitKind::Kseq { start, closure: *c, kind: *kind, end } });
                i += 1;
            }
        }
    }
    debug_assert!(pending_neg.is_none(), "trailing negation rejected earlier");
    Ok((units, top_negs))
}

/// Output of the dynamic program for one unit list.
struct DpResult {
    shape: PlanShape,
    cost: f64,
    card: f64,
}

/// Algorithm 5: O(n³) search over contiguous sub-ranges, bushy plans
/// included. `Min[s][i]`, `ROOT[s][i]` and `CARD[s][i]` follow the paper's
/// matrices (`s` = sub-tree size, `i` = sub-tree start, `r` = root cut).
fn dp_search(cm: &CostModel<'_>, units: &[Unit]) -> DpResult {
    let n = units.len();
    let masks: Vec<u64> = units.iter().map(Unit::mask).collect();
    // range_mask[i][j] = union of unit masks in [i, j).
    let mut range_mask = vec![vec![0u64; n + 1]; n + 1];
    for (i, row) in range_mask.iter_mut().enumerate().take(n) {
        let mut m = 0;
        for j in i..n {
            m |= masks[j];
            row[j + 1] = m;
        }
    }

    // min_cost[i][j], card[i][j], root[i][j] over range [i, j).
    let mut min_cost = vec![vec![f64::INFINITY; n + 1]; n + 1];
    let mut card = vec![vec![0.0f64; n + 1]; n + 1];
    let mut root = vec![vec![0usize; n + 1]; n + 1];

    for i in 0..n {
        let (c, k) = units[i].base_cost(cm);
        min_cost[i][i + 1] = c;
        card[i][i + 1] = k;
    }

    for s in 2..=n {
        for i in 0..=n - s {
            let j = i + s;
            for r in i + 1..j {
                let extra = if matches!(units[r].kind, UnitKind::Nseq { .. })
                    || range_starts_with_nseq(units, r)
                {
                    cm.nseq_survival()
                } else {
                    1.0
                };
                let oc: OperatorCost =
                    cm.seq(card[i][r], range_mask[i][r], card[r][j], range_mask[r][j], extra);
                let total = min_cost[i][r] + min_cost[r][j] + oc.total();
                if total < min_cost[i][j] {
                    min_cost[i][j] = total;
                    card[i][j] = oc.output;
                    root[i][j] = r;
                }
            }
        }
    }

    fn rebuild(root: &[Vec<usize>], i: usize, j: usize) -> PlanShape {
        if j - i == 1 {
            return PlanShape::Leaf(i);
        }
        let r = root[i][j];
        PlanShape::join(rebuild(root, i, r), rebuild(root, r, j))
    }

    DpResult { shape: rebuild(&root, 0, n), cost: min_cost[0][n], card: card[0][n] }
}

fn range_starts_with_nseq(units: &[Unit], r: usize) -> bool {
    matches!(units.get(r).map(|u| &u.kind), Some(UnitKind::Nseq { .. }))
}

/// Computes cost and output cardinality of a *given* shape over units (used
/// to price the paper's fixed left-deep/right-deep/bushy/inner plans for
/// Figures 9, 11 and 13).
fn cost_for_shape(cm: &CostModel<'_>, units: &[Unit], shape: &PlanShape) -> (f64, f64, u64) {
    match shape {
        PlanShape::Leaf(i) => {
            let (c, k) = units[*i].base_cost(cm);
            (c, k, units[*i].mask())
        }
        PlanShape::Join(l, r) => {
            let (cl, kl, ml) = cost_for_shape(cm, units, l);
            let (cr, kr, mr) = cost_for_shape(cm, units, r);
            let cut = r.range().0;
            let extra = if range_starts_with_nseq(units, cut) { cm.nseq_survival() } else { 1.0 };
            let oc = cm.seq(kl, ml, kr, mr, extra);
            (cl + cr + oc.total(), oc.output, ml | mr)
        }
    }
}

fn add_top_neg_costs(cm: &CostModel<'_>, top_negs: &[TopNeg], mut cost: f64, mut card: f64) -> f64 {
    for tn in top_negs {
        let neg_mask: u64 = tn.neg.iter().fold(0, |m, c| m | (1u64 << c));
        let npreds = cm.aq.multi_preds.iter().filter(|p| p.mask & neg_mask != 0).count();
        let oc = cm.neg_top(card, npreds);
        cost += oc.total();
        card = oc.output;
    }
    cost
}

/// Searches for the optimal plan for a flat sequential pattern: for every
/// per-negation strategy choice (push-down vs. top filter) it runs
/// Algorithm 5 and keeps the cheapest complete plan.
///
/// ```
/// use zstream_core::{search_optimal, PlanShape, Statistics};
/// use zstream_events::Schema;
/// use zstream_lang::{analyze, Query, SchemaMap};
///
/// let aq = analyze(
///     &Query::parse("PATTERN A; B; C WITHIN 10").unwrap(),
///     &SchemaMap::uniform(Schema::stocks()),
/// ).unwrap();
/// // A is rare: joining it first (left-deep) is optimal.
/// let stats = Statistics::uniform(3, 0, 10).with_rates(&[0.01, 1.0, 1.0]);
/// let spec = search_optimal(&aq, &stats).unwrap();
/// assert_eq!(spec.shape, PlanShape::left_deep(3));
/// ```
pub fn search_optimal(aq: &AnalyzedQuery, stats: &Statistics) -> Result<PlanSpec, CoreError> {
    stats.validate(aq.num_classes(), aq.multi_preds.len())?;
    let cm = CostModel::new(aq, stats);
    let terms = extract_terms(aq)?;
    let neg_groups: Vec<usize> = terms
        .iter()
        .enumerate()
        .filter_map(|(i, t)| matches!(t, Term::Neg(_)).then_some(i))
        .collect();
    let k = neg_groups.len();
    // The search below enumerates all 2^k strategy combinations.
    if k > 16 {
        return Err(CoreError::UnsupportedNegation(format!(
            "{k} negation groups; the planner supports at most 16"
        )));
    }

    let mut best: Option<PlanSpec> = None;
    for combo in 0..(1usize << k) {
        let mut pushdown = vec![false; k];
        let mut valid = true;
        for (g, term_idx) in neg_groups.iter().enumerate() {
            let push = combo & (1 << g) != 0;
            if push {
                // The anchor is the next positive class.
                let anchor = match &terms[term_idx + 1] {
                    Term::Pos(c) => *c,
                    _ => {
                        valid = false;
                        break;
                    }
                };
                let Term::Neg(neg) = &terms[*term_idx] else { unreachable!() };
                if !pushdown_valid(aq, neg, anchor) {
                    valid = false;
                    break;
                }
            }
            pushdown[g] = push;
        }
        if !valid {
            continue;
        }
        let (units, top_negs) = match build_units(aq, &terms, &pushdown) {
            Ok(x) => x,
            Err(_) if combo != 0 => continue,
            Err(e) => return Err(e),
        };
        let dp = dp_search(&cm, &units);
        let cost = add_top_neg_costs(&cm, &top_negs, dp.cost, dp.card);
        if best.as_ref().is_none_or(|b| cost < b.est_cost) {
            best = Some(PlanSpec { units, shape: dp.shape, top_negs, est_cost: cost });
        }
    }
    best.ok_or_else(|| CoreError::UnsupportedPattern("no viable plan found for the pattern".into()))
}

/// Negation strategy requested by [`spec_with_shape`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NegStrategy {
    /// Push every negation into an NSEQ when §4.4.2 allows it, otherwise
    /// fall back to a top filter per group.
    PushdownPreferred,
    /// Evaluate every negation as a top filter (the "last-filter-step"
    /// baseline of §4.4.2).
    TopFilter,
}

/// Builds a [`PlanSpec`] with a caller-chosen shape (left-deep, right-deep,
/// …) and negation strategy — the fixed plans the paper benchmarks against.
pub fn spec_with_shape(
    aq: &AnalyzedQuery,
    stats: &Statistics,
    shape: PlanShape,
    neg: NegStrategy,
) -> Result<PlanSpec, CoreError> {
    stats.validate(aq.num_classes(), aq.multi_preds.len())?;
    let cm = CostModel::new(aq, stats);
    let terms = extract_terms(aq)?;
    let neg_terms: Vec<usize> = terms
        .iter()
        .enumerate()
        .filter_map(|(i, t)| matches!(t, Term::Neg(_)).then_some(i))
        .collect();
    let pushdown: Vec<bool> = neg_terms
        .iter()
        .map(|ti| match neg {
            NegStrategy::TopFilter => false,
            NegStrategy::PushdownPreferred => {
                let anchor = match &terms[ti + 1] {
                    Term::Pos(c) => Some(*c),
                    _ => None,
                };
                let Term::Neg(negs) = &terms[*ti] else { unreachable!() };
                anchor.is_some_and(|a| pushdown_valid(aq, negs, a))
            }
        })
        .collect();
    let (units, top_negs) = build_units(aq, &terms, &pushdown)?;
    shape.validate(units.len())?;
    let (cost, card, _) = cost_for_shape(&cm, &units, &shape);
    let est_cost = add_top_neg_costs(&cm, &top_negs, cost, card);
    Ok(PlanSpec { units, shape, top_negs, est_cost })
}

/// Re-prices an existing [`PlanSpec`] under (possibly different) statistics.
pub fn plan_cost(aq: &AnalyzedQuery, stats: &Statistics, spec: &PlanSpec) -> f64 {
    let cm = CostModel::new(aq, stats);
    let (cost, card, _) = cost_for_shape(&cm, &spec.units, &spec.shape);
    add_top_neg_costs(&cm, &spec.top_negs, cost, card)
}

#[cfg(test)]
mod tests {
    use super::*;
    use zstream_events::Schema;
    use zstream_lang::{analyze, Query, SchemaMap};

    fn aq(src: &str) -> AnalyzedQuery {
        analyze(&Query::parse(src).unwrap(), &SchemaMap::uniform(Schema::stocks())).unwrap()
    }

    #[test]
    fn extracts_units_for_pure_sequence() {
        let q = aq("PATTERN A; B; C WITHIN 10");
        let s = Statistics::uniform(3, 0, 10);
        let spec = search_optimal(&q, &s).unwrap();
        assert_eq!(spec.units.len(), 3);
        assert!(spec.top_negs.is_empty());
        spec.shape.validate(3).unwrap();
    }

    #[test]
    fn low_rate_class_joined_first() {
        let q = aq("PATTERN A; B; C WITHIN 10");
        // A is rare: the left-deep plan (combining A first) should win.
        let s = Statistics::uniform(3, 0, 10).with_rates(&[0.01, 1.0, 1.0]);
        let spec = search_optimal(&q, &s).unwrap();
        assert_eq!(spec.shape, PlanShape::left_deep(3));
        // C is rare: right-deep wins.
        let s = Statistics::uniform(3, 0, 10).with_rates(&[1.0, 1.0, 0.01]);
        let spec = search_optimal(&q, &s).unwrap();
        assert_eq!(spec.shape, PlanShape::right_deep(3));
    }

    #[test]
    fn selective_predicate_pulls_join_forward() {
        // Query 6 regime 2: selective predicate between classes 1 and 2
        // makes the inner plan [0, [[1,2],3]] optimal.
        let q = aq("PATTERN IBM; Sun; Oracle; Google \
             WHERE Oracle.price > Sun.price AND Oracle.price > Google.price \
             WITHIN 100");
        let s = Statistics::uniform(4, 2, 100).with_pred_sel(0, 1.0 / 50.0).with_pred_sel(1, 1.0);
        let spec = search_optimal(&q, &s).unwrap();
        assert_eq!(spec.shape, PlanShape::inner4());
    }

    #[test]
    fn dp_matches_exhaustive_enumeration() {
        let q = aq("PATTERN A; B; C; D; E \
             WHERE A.price > B.price AND C.price > D.price AND B.price > E.price \
             WITHIN 50");
        // A few deterministic pseudo-random statistics settings.
        for seed in 0u64..20 {
            let mut x = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
            let mut next = || {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x % 1000) as f64 / 1000.0
            };
            let s = Statistics::uniform(5, 3, 50)
                .with_rates(&[
                    0.05 + next(),
                    0.05 + next(),
                    0.05 + next(),
                    0.05 + next(),
                    0.05 + next(),
                ])
                .with_pred_sel(0, 0.05 + 0.9 * next())
                .with_pred_sel(1, 0.05 + 0.9 * next())
                .with_pred_sel(2, 0.05 + 0.9 * next());
            let spec = search_optimal(&q, &s).unwrap();
            let best_exhaustive = PlanShape::enumerate_all(5)
                .into_iter()
                .map(|sh| spec_with_shape(&q, &s, sh, NegStrategy::PushdownPreferred).unwrap())
                .map(|sp| sp.est_cost)
                .fold(f64::INFINITY, f64::min);
            assert!(
                (spec.est_cost - best_exhaustive).abs() <= 1e-6 * best_exhaustive.max(1.0),
                "seed {seed}: DP cost {} != exhaustive best {best_exhaustive}",
                spec.est_cost
            );
        }
    }

    #[test]
    fn negation_strategies_compared() {
        let q = aq("PATTERN IBM; !Sun; Oracle WITHIN 200");
        let s = Statistics::uniform(3, 0, 200);
        let spec = search_optimal(&q, &s).unwrap();
        // Push-down wins under uniform statistics (Figure 15/16).
        assert!(spec.top_negs.is_empty());
        assert!(matches!(
            spec.units.iter().map(|u| &u.kind).collect::<Vec<_>>()[..],
            [UnitKind::Class(0), UnitKind::Nseq { .. }]
        ));

        let top = spec_with_shape(&q, &s, PlanShape::left_deep(2), NegStrategy::TopFilter).unwrap();
        assert_eq!(top.top_negs.len(), 1);
        assert!(spec.est_cost < top.est_cost);
    }

    #[test]
    fn pushdown_rejected_when_predicates_span_both_sides() {
        // Sun (negated) has predicates against both IBM and Oracle: §4.4.2
        // forces the top filter.
        let q = aq("PATTERN IBM; !Sun; Oracle \
             WHERE Sun.price > IBM.price AND Sun.price < Oracle.price \
             WITHIN 200");
        let s = Statistics::uniform(3, 2, 200);
        let spec = search_optimal(&q, &s).unwrap();
        assert_eq!(spec.top_negs.len(), 1);
        assert_eq!(spec.units.len(), 2);
    }

    #[test]
    fn kleene_fuses_into_trinary_unit() {
        let q = aq("PATTERN T1; T2^5; T3 WITHIN 10");
        let s = Statistics::uniform(3, 0, 10);
        let spec = search_optimal(&q, &s).unwrap();
        assert_eq!(spec.units.len(), 1);
        assert!(matches!(
            spec.units[0].kind,
            UnitKind::Kseq { start: Some(0), closure: 1, kind: KleeneKind::Count(5), end: Some(2) }
        ));
    }

    #[test]
    fn kleene_with_tail_classes_still_plans() {
        let q = aq("PATTERN A; B*; C; D WITHIN 10");
        let s = Statistics::uniform(4, 0, 10);
        let spec = search_optimal(&q, &s).unwrap();
        assert_eq!(spec.units.len(), 2);
    }

    #[test]
    fn unbounded_closure_at_end_rejected() {
        let q = aq("PATTERN A; B* WITHIN 10");
        let s = Statistics::uniform(2, 0, 10);
        assert!(matches!(search_optimal(&q, &s), Err(CoreError::UnsupportedClosure(_))));
    }

    #[test]
    fn counted_closure_at_end_accepted() {
        let q = aq("PATTERN A; B^3 WITHIN 10");
        let s = Statistics::uniform(2, 0, 10);
        let spec = search_optimal(&q, &s).unwrap();
        assert!(matches!(
            spec.units[0].kind,
            UnitKind::Kseq { start: Some(0), closure: 1, end: None, .. }
        ));
    }

    #[test]
    fn planner_is_fast_for_length_20() {
        // §5.2.3: "less than 10 ms to search for an optimal plan with
        // pattern length 20" — allow slack for debug builds.
        let names: Vec<String> = (0..20).map(|i| format!("C{i}")).collect();
        let q = aq(&format!("PATTERN {} WITHIN 100", names.join("; ")));
        let s = Statistics::uniform(20, 0, 100);
        let t0 = std::time::Instant::now();
        let spec = search_optimal(&q, &s).unwrap();
        let dt = t0.elapsed();
        spec.shape.validate(20).unwrap();
        assert!(dt.as_millis() < 1000, "planner took {dt:?}");
    }

    #[test]
    fn too_many_negation_groups_is_an_error_not_a_panic() {
        // 17 groups `P0; !N0; P1; ...; !N16; P17`: the strategy search
        // would enumerate 2^17 combinations.
        let mut terms = vec!["P0".to_string()];
        for i in 0..17 {
            terms.push(format!("!N{i}"));
            terms.push(format!("P{}", i + 1));
        }
        let src = format!("PATTERN {} WITHIN 100", terms.join("; "));
        let q = aq(&src);
        let s = Statistics::uniform(q.num_classes(), q.multi_preds.len(), 100);
        assert!(matches!(search_optimal(&q, &s), Err(CoreError::UnsupportedNegation(_))));
        let compiled = crate::EngineBuilder::parse(&src).unwrap().compile();
        assert!(matches!(compiled, Err(CoreError::UnsupportedNegation(_))));
    }

    #[test]
    fn repricing_under_new_stats_changes_cost() {
        let q = aq("PATTERN A; B; C WITHIN 10");
        let s1 = Statistics::uniform(3, 0, 10);
        let spec =
            spec_with_shape(&q, &s1, PlanShape::left_deep(3), NegStrategy::PushdownPreferred)
                .unwrap();
        let s2 = Statistics::uniform(3, 0, 10).with_rates(&[10.0, 1.0, 1.0]);
        let c2 = plan_cost(&q, &s2, &spec);
        assert!(c2 > spec.est_cost);
    }

    #[test]
    fn conjunction_pattern_rejected_by_sequential_planner() {
        let q = aq("PATTERN A & B WITHIN 10");
        let s = Statistics::uniform(2, 0, 10);
        assert!(matches!(search_optimal(&q, &s), Err(CoreError::UnsupportedPattern(_))));
    }
}
