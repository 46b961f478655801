//! Physical tree plans (§4.1).
//!
//! A [`PhysicalPlan`] is an arena of [`Node`]s. Leaf nodes store primitive
//! events as they arrive (one leaf per event class, with single-class
//! predicates applied at intake by the engine); internal nodes store the
//! intermediate composite events assembled from their children. Nodes are
//! created children-first, so ascending index order is a valid bottom-up
//! evaluation order.
//!
//! Buffer retention roles:
//! * nodes consumed as the right/outer input of SEQ, the inputs of DISJ, or
//!   the input of a NEG filter are *drained* after consumption (Algorithm
//!   1's `Clear RBuf`) when they are internal nodes or trigger-class leaves:
//!   an adaptive switch keeps a trigger leaf's cursor, so no plan reads a
//!   consumed trigger event again,
//! * every other leaf retains its events behind a consumed cursor — the §5.3
//!   modification that lets a new plan rebuild intermediate state after an
//!   adaptive switch without duplicates,
//! * internal nodes consumed as SEQ-left or CONJ inputs retain records with
//!   cursors (Algorithm 3 keeps both sides), and so do CONJ leaves.
//!
//! Retained entries live until the engine prunes them to its EAT floor
//! after the round (`Engine::round`).

use zstream_events::Ts;
use zstream_lang::{AnalyzedQuery, BinOp, ClassId, KleeneKind, TypedExpr, TypedPattern};

use crate::cost::dp::{PlanSpec, TopNeg, Unit, UnitKind};
use crate::cost::shape::PlanShape;
use crate::error::CoreError;
use crate::physical::binding::ClassMap;
use crate::physical::buffer::Buffer;
use crate::physical::hash::{HashIndex, HashSpec, KeyPart, MAX_KEY_PARTS};

/// Build-time configuration toggles (ablation switches for the benches).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanConfig {
    /// Evaluate equality predicates through hash tables (§5.2.2).
    pub use_hash: bool,
    /// Prune buffers against the earliest allowed timestamp each round
    /// (§4.3). Disabling this is only safe for bounded inputs.
    pub eat_pruning: bool,
}

impl Default for PlanConfig {
    fn default() -> Self {
        PlanConfig { use_hash: true, eat_pruning: true }
    }
}

/// A time guard added to a SEQ node above a pushed-down NSEQ (§4.4.2,
/// Figure 5): for a right record carrying a bound negation event `b`, only
/// left records with `end_ts >= b.ts` may combine.
#[derive(Debug, Clone)]
pub struct NegGuard {
    /// The negation classes whose bound slot in the right record bounds the
    /// left record's end timestamp.
    pub neg_classes: Vec<ClassId>,
}

/// The per-candidate side of a [`SplitPred`], pre-resolved against the left
/// child's record layout.
#[derive(Debug)]
pub enum ProbeSide {
    /// A bare attribute: slot position within a left-child record plus the
    /// field index — one slot load and one value fetch per candidate.
    Slot {
        /// Slot of the attribute's class in the left child's records.
        slot: usize,
        /// Field index within the event's schema.
        field: usize,
    },
    /// A general sub-expression over left-child classes, evaluated with a
    /// left-only binding.
    Expr(TypedExpr),
}

/// A comparison predicate at a SEQ node whose two operands come from
/// disjoint children: `left_side op right_side` with the left side's classes
/// all in the left child and the right side's all in the right child.
///
/// Algorithm 1's outer loop fixes one right record while scanning many left
/// candidates, so the right side is evaluated **once per right record** and
/// each candidate costs one probe plus one value comparison — instead of a
/// full expression-tree walk per pair. Only sound when every referenced
/// class is mandatory (`optional_mask == 0`); the evaluator falls back to
/// [`Node::preds`] otherwise.
#[derive(Debug)]
pub struct SplitPred {
    /// Index of the original predicate in [`Node::preds`] (to honor
    /// hash-coverage skips).
    pub pred: usize,
    /// The comparison operator (`Eq`/`Ne`/`Lt`/`Le`/`Gt`/`Ge`).
    pub op: BinOp,
    /// The per-candidate (left-child) operand.
    pub probe: ProbeSide,
    /// The per-right-record operand, evaluated once per outer record.
    pub fixed: TypedExpr,
    /// True when the probe is the *left* operand of `op` as written.
    pub probe_is_lhs: bool,
}

/// Operator kind and child links of one node.
#[derive(Debug)]
pub enum NodeKind {
    /// A leaf buffer for one event class.
    Leaf {
        /// The event class.
        class: ClassId,
    },
    /// Sequence (Algorithm 1): left followed by right.
    Seq {
        /// Left (earlier) child.
        left: usize,
        /// Right (later, outer-loop) child.
        right: usize,
    },
    /// Conjunction (Algorithm 3): both children in either order.
    Conj {
        /// Left child.
        left: usize,
        /// Right child.
        right: usize,
    },
    /// Disjunction: merge of the two children.
    Disj {
        /// Left child.
        left: usize,
        /// Right child.
        right: usize,
    },
    /// Negation push-down (Algorithm 2): find the negation instance that
    /// negates each right record.
    Nseq {
        /// Leaf node indexes of the negation classes.
        negs: Vec<usize>,
        /// The non-negated anchor child.
        right: usize,
    },
    /// Kleene closure (Algorithm 4): trinary start/closure/end.
    Kseq {
        /// Start-anchor child (absent when the closure opens the pattern).
        start: Option<usize>,
        /// The closure class's leaf node.
        closure: usize,
        /// Closure kind (star, plus, or an exact count).
        kind: KleeneKind,
        /// End-anchor child (absent for a counted closure ending the
        /// pattern).
        end: Option<usize>,
    },
    /// Negation as a final filter (the §4.4.2 "last-filter-step" baseline).
    NegTop {
        /// The positive plan underneath.
        input: usize,
        /// Leaf node indexes of the negation classes.
        negs: Vec<usize>,
        /// Class immediately before the negation in pattern order.
        prev: ClassId,
        /// Class immediately after the negation in pattern order.
        next: ClassId,
    },
}

/// One plan node: operator, output buffer, covered classes, predicates.
#[derive(Debug)]
pub struct Node {
    /// Operator kind and children.
    pub kind: NodeKind,
    /// Output buffer (input buffer, for leaves).
    pub buf: Buffer,
    /// Covered classes in slot order.
    pub classes: Vec<ClassId>,
    /// Class-to-slot map for `classes`.
    pub map: ClassMap,
    /// Multi-class predicates applied at this node (pair/record-level).
    pub preds: Vec<TypedExpr>,
    /// Split comparison predicates (SEQ only): the subset of `preds` whose
    /// operands separate cleanly across the two children, precompiled for
    /// per-right-record evaluation.
    pub split_preds: Vec<SplitPred>,
    /// `split_flag[i]` — whether `preds[i]` has a [`SplitPred`] twin (and is
    /// therefore skipped on the tree-walk path when the fast path runs).
    pub split_flag: Vec<bool>,
    /// Per-closure-event predicates (KSEQ only): evaluated for each
    /// candidate middle event during qualification.
    pub event_preds: Vec<TypedExpr>,
    /// Hash-join specification, when equality predicates at this node are
    /// evaluated by hashing.
    pub hash: Option<HashSpec>,
    /// Build-side hash index over the left child's buffer.
    pub hash_left: HashIndex,
    /// Build-side hash index over the right child's buffer (CONJ probes in
    /// both directions).
    pub hash_right: HashIndex,
    /// NSEQ time guards (on SEQ nodes above pushed-down negations).
    pub guards: Vec<NegGuard>,
    /// Whether the parent physically drains this buffer after consuming it.
    pub drain: bool,
}

impl Node {
    fn new(kind: NodeKind, classes: Vec<ClassId>, num_classes: usize) -> Node {
        let map = ClassMap::new(num_classes, &classes);
        let buf = match kind {
            NodeKind::Leaf { .. } => Buffer::leaf(),
            _ => Buffer::records(),
        };
        Node {
            kind,
            buf,
            classes,
            map,
            preds: Vec::new(),
            split_preds: Vec::new(),
            split_flag: Vec::new(),
            event_preds: Vec::new(),
            hash: None,
            hash_left: HashIndex::new(),
            hash_right: HashIndex::new(),
            guards: Vec::new(),
            drain: false,
        }
    }

    /// Bitmask of covered classes.
    pub fn mask(&self) -> u64 {
        self.classes.iter().fold(0, |m, c| m | (1u64 << c))
    }

    /// True for leaf nodes.
    pub fn is_leaf(&self) -> bool {
        matches!(self.kind, NodeKind::Leaf { .. })
    }
}

/// A fully built physical plan.
#[derive(Debug)]
pub struct PhysicalPlan {
    /// Node arena; children precede parents.
    pub nodes: Vec<Node>,
    /// Index of the plan root (after any NEG filter chain).
    pub root: usize,
    /// Leaf node index per class.
    pub leaf_of_class: Vec<usize>,
    /// The query time window.
    pub window: Ts,
    /// Total number of pattern classes.
    pub num_classes: usize,
    /// Classes whose arrival can complete a match (drive assembly rounds and
    /// the EAT computation, §4.3).
    pub trigger_classes: Vec<ClassId>,
    /// Classes that may legitimately be unbound in an output (disjunction
    /// branches) — predicates referencing them pass vacuously.
    pub optional_mask: u64,
    /// Build-time configuration.
    pub config: PlanConfig,
}

impl PhysicalPlan {
    /// Builds a plan for a flat sequential pattern from a [`PlanSpec`]
    /// produced by the optimizer (or by [`crate::spec_with_shape`]).
    ///
    /// `applied` lists the multi-class predicates (indices into
    /// `aq.multi_preds`) that the caller already guarantees for every
    /// event it feeds the plan; they are neither hashed nor evaluated. A
    /// partitioned engine passes the equalities its key routing implies
    /// (see [`crate::partition`]); every other caller passes `&[]`. The
    /// node layout does not depend on `applied`.
    pub fn from_spec(
        aq: &AnalyzedQuery,
        spec: &PlanSpec,
        config: PlanConfig,
        applied: &[usize],
    ) -> Result<PhysicalPlan, CoreError> {
        spec.shape.validate(spec.units.len())?;
        let mut b = Builder::new(aq, config, applied);
        let tree_root = b.build_shape(&spec.shape, &spec.units)?;
        let root = b.add_top_negs(tree_root, &spec.top_negs);
        b.finish(aq, root)
    }

    /// Builds a syntax-directed plan for patterns with conjunction or
    /// disjunction groups (no reordering; nested connectives evaluate
    /// left-deep). Negation and Kleene closure require the flat-sequence
    /// planner path. `applied` is as for [`PhysicalPlan::from_spec`].
    pub fn from_pattern(
        aq: &AnalyzedQuery,
        config: PlanConfig,
        applied: &[usize],
    ) -> Result<PhysicalPlan, CoreError> {
        let mut b = Builder::new(aq, config, applied);
        let root = b.build_pattern(&aq.pattern)?;
        b.finish(aq, root)
    }

    /// Pretty multi-line rendering of the plan tree for examples and logs.
    pub fn render(&self, aq: &AnalyzedQuery) -> String {
        let mut out = String::new();
        self.render_node(aq, self.root, 0, &mut out);
        out
    }

    fn render_node(&self, aq: &AnalyzedQuery, idx: usize, depth: usize, out: &mut String) {
        use std::fmt::Write;
        let node = &self.nodes[idx];
        let pad = "  ".repeat(depth);
        let name = |c: ClassId| aq.classes[c].name.as_str();
        let label = match &node.kind {
            NodeKind::Leaf { class } => format!("LEAF {}", name(*class)),
            NodeKind::Seq { .. } => "SEQ".to_string(),
            NodeKind::Conj { .. } => "CONJ".to_string(),
            NodeKind::Disj { .. } => "DISJ".to_string(),
            NodeKind::Nseq { .. } => "NSEQ".to_string(),
            NodeKind::Kseq { kind, .. } => format!("KSEQ {kind:?}"),
            NodeKind::NegTop { .. } => "NEG".to_string(),
        };
        let extras = [
            (!node.preds.is_empty()).then(|| format!("{} preds", node.preds.len())),
            node.hash.as_ref().map(|h| format!("hash x{}", h.left.len())),
            (!node.guards.is_empty()).then(|| "guarded".to_string()),
        ]
        .into_iter()
        .flatten()
        .collect::<Vec<_>>()
        .join(", ");
        if extras.is_empty() {
            let _ = writeln!(out, "{pad}{label}");
        } else {
            let _ = writeln!(out, "{pad}{label} [{extras}]");
        }
        let children: Vec<usize> = match &node.kind {
            NodeKind::Leaf { .. } => vec![],
            NodeKind::Seq { left, right }
            | NodeKind::Conj { left, right }
            | NodeKind::Disj { left, right } => vec![*left, *right],
            NodeKind::Nseq { negs, right } => negs.iter().copied().chain([*right]).collect(),
            NodeKind::Kseq { start, closure, end, .. } => {
                start.iter().copied().chain([*closure]).chain(end.iter().copied()).collect()
            }
            NodeKind::NegTop { input, negs, .. } => {
                [*input].into_iter().chain(negs.iter().copied()).collect()
            }
        };
        for c in children {
            self.render_node(aq, c, depth + 1, out);
        }
    }
}

struct Builder<'a> {
    aq: &'a AnalyzedQuery,
    nodes: Vec<Node>,
    leaf_of_class: Vec<usize>,
    config: PlanConfig,
    /// Multi-class predicates the caller already applies (not placed).
    applied: &'a [usize],
    /// Classes whose arrival can complete a match.
    trigger_classes: Vec<ClassId>,
}

impl<'a> Builder<'a> {
    fn new(aq: &'a AnalyzedQuery, config: PlanConfig, applied: &'a [usize]) -> Builder<'a> {
        let n = aq.num_classes();
        let mut nodes = Vec::with_capacity(2 * n);
        let mut leaf_of_class = Vec::with_capacity(n);
        for c in 0..n {
            leaf_of_class.push(nodes.len());
            nodes.push(Node::new(NodeKind::Leaf { class: c }, vec![c], n));
        }
        let trigger_classes = trigger_classes(&aq.pattern);
        Builder { aq, nodes, leaf_of_class, config, applied, trigger_classes }
    }

    fn push_node(&mut self, kind: NodeKind, classes: Vec<ClassId>) -> usize {
        let idx = self.nodes.len();
        self.nodes.push(Node::new(kind, classes, self.aq.num_classes()));
        idx
    }

    /// Marks `child` as drained-by-parent if it is an internal node or a
    /// trigger-class leaf (other leaves retain for §5.3 plan switches).
    fn mark_drain(&mut self, child: usize) {
        let node = &mut self.nodes[child];
        node.drain = match node.kind {
            NodeKind::Leaf { class } => self.trigger_classes.contains(&class),
            _ => true,
        };
    }

    fn build_unit(&mut self, unit: &Unit) -> Result<usize, CoreError> {
        match &unit.kind {
            UnitKind::Class(c) => Ok(self.leaf_of_class[*c]),
            UnitKind::Kseq { start, closure, kind, end } => {
                let start_n = start.map(|c| self.leaf_of_class[c]);
                let end_n = end.map(|c| self.leaf_of_class[c]);
                let closure_n = self.leaf_of_class[*closure];
                Ok(self.push_node(
                    NodeKind::Kseq { start: start_n, closure: closure_n, kind: *kind, end: end_n },
                    unit.classes(),
                ))
            }
            UnitKind::Nseq { neg, anchor } => {
                let negs = neg.iter().map(|c| self.leaf_of_class[*c]).collect();
                let right = self.leaf_of_class[*anchor];
                Ok(self.push_node(NodeKind::Nseq { negs, right }, unit.classes()))
            }
        }
    }

    fn build_shape(&mut self, shape: &PlanShape, units: &[Unit]) -> Result<usize, CoreError> {
        match shape {
            PlanShape::Leaf(u) => self.build_unit(&units[*u]),
            PlanShape::Join(l, r) => {
                let li = self.build_shape(l, units)?;
                let ri = self.build_shape(r, units)?;
                self.mark_drain(ri);
                let mut classes = self.nodes[li].classes.clone();
                classes.extend(&self.nodes[ri].classes);
                let idx = self.push_node(NodeKind::Seq { left: li, right: ri }, classes);
                // Guard when the right subtree opens with a pushed-down NSEQ.
                let cut = r.range().0;
                if let UnitKind::Nseq { neg, .. } = &units[cut].kind {
                    self.nodes[idx].guards.push(NegGuard { neg_classes: neg.clone() });
                }
                Ok(idx)
            }
        }
    }

    fn add_top_negs(&mut self, mut root: usize, top_negs: &[TopNeg]) -> usize {
        for tn in top_negs {
            self.mark_drain(root);
            let negs = tn.neg.iter().map(|c| self.leaf_of_class[*c]).collect();
            let classes = self.nodes[root].classes.clone();
            root = self.push_node(
                NodeKind::NegTop { input: root, negs, prev: tn.prev, next: tn.next },
                classes,
            );
        }
        root
    }

    fn build_pattern(&mut self, p: &TypedPattern) -> Result<usize, CoreError> {
        match p {
            TypedPattern::Class(c) => Ok(self.leaf_of_class[*c]),
            TypedPattern::Seq(xs) => {
                let mut cur = self.build_pattern(&xs[0])?;
                for x in &xs[1..] {
                    let r = self.build_pattern(x)?;
                    self.mark_drain(r);
                    let mut classes = self.nodes[cur].classes.clone();
                    classes.extend(&self.nodes[r].classes);
                    cur = self.push_node(NodeKind::Seq { left: cur, right: r }, classes);
                }
                Ok(cur)
            }
            TypedPattern::Conj(xs) => {
                let mut cur = self.build_pattern(&xs[0])?;
                for x in &xs[1..] {
                    let r = self.build_pattern(x)?;
                    let mut classes = self.nodes[cur].classes.clone();
                    classes.extend(&self.nodes[r].classes);
                    cur = self.push_node(NodeKind::Conj { left: cur, right: r }, classes);
                }
                Ok(cur)
            }
            TypedPattern::Disj(xs) => {
                let mut cur = self.build_pattern(&xs[0])?;
                for x in &xs[1..] {
                    let r = self.build_pattern(x)?;
                    self.mark_drain(cur);
                    self.mark_drain(r);
                    let mut classes = self.nodes[cur].classes.clone();
                    classes.extend(&self.nodes[r].classes);
                    cur = self.push_node(NodeKind::Disj { left: cur, right: r }, classes);
                }
                Ok(cur)
            }
            TypedPattern::Neg(_) | TypedPattern::Kleene(_, _) => {
                Err(CoreError::UnsupportedPattern(
                    "negation and Kleene closure require a flat sequential pattern \
                 (planned via PlanSpec); mixed nesting is not supported"
                        .into(),
                ))
            }
        }
    }

    /// Assigns multi-class predicates, except the `applied` ones, to their
    /// lowest covering internal node, configures hash joins, and computes
    /// plan-level metadata.
    fn finish(mut self, aq: &AnalyzedQuery, root: usize) -> Result<PhysicalPlan, CoreError> {
        // Virtual masks: NegTop nodes also "cover" their negation classes so
        // predicates over negated classes land on them.
        let virtual_mask: Vec<u64> = self
            .nodes
            .iter()
            .map(|n| match &n.kind {
                NodeKind::NegTop { negs, .. } => {
                    let neg_mask: u64 =
                        negs.iter().map(|ni| self.nodes[*ni].mask()).fold(0, |a, b| a | b);
                    n.mask() | neg_mask
                }
                NodeKind::Nseq { .. } | NodeKind::Kseq { .. } => n.mask(),
                _ => n.mask(),
            })
            .collect();

        for (pi, mp) in aq.multi_preds.iter().enumerate() {
            if self.applied.contains(&pi) {
                continue;
            }
            // Lowest covering internal node = first in child-before-parent
            // order. Constant predicates (mask 0) go to the root.
            let target = if mp.mask == 0 {
                Some(root)
            } else {
                (0..self.nodes.len())
                    .filter(|i| !self.nodes[*i].is_leaf() && reachable(&self.nodes, root, *i))
                    .find(|i| mp.mask & !virtual_mask[*i] == 0)
            };
            let Some(t) = target else {
                return Err(CoreError::UnsupportedPattern(format!(
                    "no plan node can evaluate a predicate over class mask {:#b}",
                    mp.mask
                )));
            };
            // KSEQ: predicates referencing the closure class without an
            // aggregate qualify each candidate middle event individually
            // (Algorithm 4's "Mr satisfies the value constraints").
            if let NodeKind::Kseq { closure, .. } = &self.nodes[t].kind {
                let closure_class = match self.nodes[*closure].kind {
                    NodeKind::Leaf { class } => class,
                    _ => unreachable!("closure child is a leaf"),
                };
                let refs_closure = mp.mask & (1u64 << closure_class) != 0;
                if refs_closure && !expr_has_agg(&mp.expr) {
                    self.nodes[t].event_preds.push(mp.expr.clone());
                    continue;
                }
            }
            self.nodes[t].preds.push(mp.expr.clone());
        }

        // Hash configuration (§5.2.2): at SEQ/CONJ nodes, equality
        // predicates whose two attributes come from different children form
        // a composite hash key.
        if self.config.use_hash {
            for i in 0..self.nodes.len() {
                let (li, ri) = match self.nodes[i].kind {
                    NodeKind::Seq { left, right } | NodeKind::Conj { left, right } => (left, right),
                    _ => continue,
                };
                let lmask = self.nodes[li].mask();
                let rmask = self.nodes[ri].mask();
                let mut spec = HashSpec { left: vec![], right: vec![], covered_preds: vec![] };
                for (pi, pred) in self.nodes[i].preds.iter().enumerate() {
                    if spec.left.len() == MAX_KEY_PARTS {
                        break;
                    }
                    if let Some(((c1, f1), (c2, f2))) = as_equality(pred) {
                        let (lpart, rpart) =
                            if lmask & (1u64 << c1) != 0 && rmask & (1u64 << c2) != 0 {
                                ((c1, f1), (c2, f2))
                            } else if lmask & (1u64 << c2) != 0 && rmask & (1u64 << c1) != 0 {
                                ((c2, f2), (c1, f1))
                            } else {
                                continue;
                            };
                        spec.left.push(KeyPart { class: lpart.0, field: lpart.1 });
                        spec.right.push(KeyPart { class: rpart.0, field: rpart.1 });
                        spec.covered_preds.push(pi);
                    }
                }
                if !spec.covered_preds.is_empty() {
                    self.nodes[i].hash = Some(spec);
                }
            }
        }

        // Split-predicate compilation: at SEQ nodes, a comparison whose two
        // operands draw from disjoint children evaluates its right-child side
        // once per outer record (see `SplitPred`).
        for i in 0..self.nodes.len() {
            let NodeKind::Seq { left, .. } = self.nodes[i].kind else {
                self.nodes[i].split_flag = vec![false; self.nodes[i].preds.len()];
                continue;
            };
            let lmask = self.nodes[left].mask();
            let (mut splits, mut flags) = (Vec::new(), Vec::new());
            for (pi, pred) in self.nodes[i].preds.iter().enumerate() {
                let split = split_comparison(pred, lmask, &self.nodes[left].map).map(
                    |(op, probe, fixed, probe_is_lhs)| SplitPred {
                        pred: pi,
                        op,
                        probe,
                        fixed,
                        probe_is_lhs,
                    },
                );
                flags.push(split.is_some());
                splits.extend(split);
            }
            self.nodes[i].split_preds = splits;
            self.nodes[i].split_flag = flags;
        }

        let optional_mask = optional_mask(&aq.pattern, false);
        Ok(PhysicalPlan {
            nodes: self.nodes,
            root,
            leaf_of_class: self.leaf_of_class,
            window: aq.window,
            num_classes: aq.num_classes(),
            trigger_classes: self.trigger_classes,
            optional_mask,
            config: self.config,
        })
    }
}

/// True when node `target` is reachable from `root` through child links
/// (units may create nodes that a later shape choice does not use — they
/// must not receive predicates).
fn reachable(nodes: &[Node], root: usize, target: usize) -> bool {
    if root == target {
        return true;
    }
    let children: Vec<usize> = match &nodes[root].kind {
        NodeKind::Leaf { .. } => vec![],
        NodeKind::Seq { left, right }
        | NodeKind::Conj { left, right }
        | NodeKind::Disj { left, right } => vec![*left, *right],
        NodeKind::Nseq { negs, right } => negs.iter().copied().chain([*right]).collect(),
        NodeKind::Kseq { start, closure, end, .. } => {
            start.iter().copied().chain([*closure]).chain(end.iter().copied()).collect()
        }
        NodeKind::NegTop { input, negs, .. } => {
            [*input].into_iter().chain(negs.iter().copied()).collect()
        }
    };
    children.into_iter().any(|c| reachable(nodes, c, target))
}

fn expr_has_agg(e: &TypedExpr) -> bool {
    match e {
        TypedExpr::Agg { .. } => true,
        TypedExpr::Attr { .. } | TypedExpr::Lit(_) => false,
        TypedExpr::Unary(_, x) => expr_has_agg(x),
        TypedExpr::Binary(_, l, r) => expr_has_agg(l) || expr_has_agg(r),
    }
}

/// Tries to split a comparison predicate across a SEQ node's children:
/// returns `(op, probe over left-child classes, fixed over right-child
/// classes, probe_is_lhs)` when one operand's classes all come from the left
/// child (`lmask`) and the other operand references none of them.
fn split_comparison(
    e: &TypedExpr,
    lmask: u64,
    lmap: &ClassMap,
) -> Option<(BinOp, ProbeSide, TypedExpr, bool)> {
    let TypedExpr::Binary(op, l, r) = e else { return None };
    if !matches!(op, BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge) {
        return None;
    }
    let (lm, rm) = (l.class_mask(), r.class_mask());
    let (probe, fixed, probe_is_lhs) = if lm != 0 && lm & !lmask == 0 && rm & lmask == 0 {
        (l, r, true)
    } else if rm != 0 && rm & !lmask == 0 && lm & lmask == 0 {
        (r, l, false)
    } else {
        return None;
    };
    let probe = match probe.as_ref() {
        TypedExpr::Attr { class, field, .. } => match lmap.slot_of(*class) {
            Some(slot) => ProbeSide::Slot { slot, field: *field },
            None => ProbeSide::Expr((**probe).clone()),
        },
        other => ProbeSide::Expr(other.clone()),
    };
    Some((*op, probe, (**fixed).clone(), probe_is_lhs))
}

/// Destructures `A.f = B.g` with distinct classes.
pub(crate) fn as_equality(e: &TypedExpr) -> Option<((ClassId, usize), (ClassId, usize))> {
    if let TypedExpr::Binary(BinOp::Eq, l, r) = e {
        if let (
            TypedExpr::Attr { class: c1, field: f1, .. },
            TypedExpr::Attr { class: c2, field: f2, .. },
        ) = (l.as_ref(), r.as_ref())
        {
            if c1 != c2 {
                return Some(((*c1, *f1), (*c2, *f2)));
            }
        }
    }
    None
}

/// Classes whose arrival can complete a match: the last element of a
/// sequence, every class of a conjunction, either side of a disjunction.
pub fn trigger_classes(p: &TypedPattern) -> Vec<ClassId> {
    match p {
        TypedPattern::Class(c) | TypedPattern::Kleene(c, _) => vec![*c],
        TypedPattern::Seq(xs) => {
            // The last element is positive (analysis guarantees at least one
            // non-negated element; trailing negations are rejected by the
            // planner, but fall back to scanning backwards defensively).
            for x in xs.iter().rev() {
                if !matches!(x, TypedPattern::Neg(_)) {
                    return trigger_classes(x);
                }
            }
            vec![]
        }
        TypedPattern::Conj(xs) | TypedPattern::Disj(xs) => {
            xs.iter().flat_map(trigger_classes).collect()
        }
        TypedPattern::Neg(_) => vec![],
    }
}

/// Bitmask of classes that can be legitimately unbound in an output record
/// (classes under a disjunction with at least two branches).
pub fn optional_mask(p: &TypedPattern, under_disj: bool) -> u64 {
    match p {
        TypedPattern::Class(c) | TypedPattern::Kleene(c, _) => {
            if under_disj {
                1u64 << c
            } else {
                0
            }
        }
        TypedPattern::Seq(xs) | TypedPattern::Conj(xs) => {
            xs.iter().map(|x| optional_mask(x, under_disj)).fold(0, |a, b| a | b)
        }
        TypedPattern::Disj(xs) => {
            xs.iter().map(|x| optional_mask(x, xs.len() > 1)).fold(0, |a, b| a | b)
        }
        TypedPattern::Neg(x) => optional_mask(x, under_disj),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::dp::{search_optimal, spec_with_shape, NegStrategy};
    use crate::cost::stats::Statistics;
    use zstream_events::Schema;
    use zstream_lang::{analyze, Query, SchemaMap};

    fn aq(src: &str) -> AnalyzedQuery {
        analyze(&Query::parse(src).unwrap(), &SchemaMap::uniform(Schema::stocks())).unwrap()
    }

    fn plan_for(src: &str) -> (AnalyzedQuery, PhysicalPlan) {
        let q = aq(src);
        let stats = Statistics::uniform(q.num_classes(), q.multi_preds.len(), q.window);
        let spec = search_optimal(&q, &stats).unwrap();
        let plan = PhysicalPlan::from_spec(&q, &spec, PlanConfig::default(), &[]).unwrap();
        (q, plan)
    }

    #[test]
    fn children_precede_parents() {
        let (_, plan) = plan_for("PATTERN A; B; C; D WITHIN 10");
        for (i, n) in plan.nodes.iter().enumerate() {
            let kids: Vec<usize> = match &n.kind {
                NodeKind::Leaf { .. } => vec![],
                NodeKind::Seq { left, right }
                | NodeKind::Conj { left, right }
                | NodeKind::Disj { left, right } => vec![*left, *right],
                NodeKind::Nseq { negs, right } => negs.iter().copied().chain([*right]).collect(),
                NodeKind::Kseq { start, closure, end, .. } => {
                    start.iter().copied().chain([*closure]).chain(end.iter().copied()).collect()
                }
                NodeKind::NegTop { input, negs, .. } => {
                    [*input].into_iter().chain(negs.iter().copied()).collect()
                }
            };
            for k in kids {
                assert!(k < i, "child {k} should precede parent {i}");
            }
        }
    }

    #[test]
    fn predicates_land_on_lowest_covering_node() {
        let q = aq("PATTERN A; B; C WHERE A.price > B.price WITHIN 10");
        let stats = Statistics::uniform(3, 1, 10);
        let spec =
            spec_with_shape(&q, &stats, PlanShape::left_deep(3), NegStrategy::PushdownPreferred)
                .unwrap();
        let plan = PhysicalPlan::from_spec(&q, &spec, PlanConfig::default(), &[]).unwrap();
        // Left-deep: SEQ(A,B) gets the predicate; SEQ((A,B),C) gets none.
        let seq_ab = plan
            .nodes
            .iter()
            .find(|n| matches!(n.kind, NodeKind::Seq { .. }) && n.classes == vec![0, 1])
            .unwrap();
        assert_eq!(seq_ab.preds.len(), 1);
        let seq_abc = plan.nodes.iter().find(|n| n.classes == vec![0, 1, 2]).unwrap();
        assert!(seq_abc.preds.is_empty());
        // Right-deep: the predicate can only apply at the top.
        let spec =
            spec_with_shape(&q, &stats, PlanShape::right_deep(3), NegStrategy::PushdownPreferred)
                .unwrap();
        let plan = PhysicalPlan::from_spec(&q, &spec, PlanConfig::default(), &[]).unwrap();
        let top = &plan.nodes[plan.root];
        assert_eq!(top.preds.len(), 1);
    }

    #[test]
    fn equality_predicates_become_hash_joins() {
        let q = aq("PATTERN A; B; C WHERE A.name = C.name WITHIN 10");
        let stats = Statistics::uniform(3, 1, 10);
        let spec =
            spec_with_shape(&q, &stats, PlanShape::left_deep(3), NegStrategy::PushdownPreferred)
                .unwrap();
        let plan = PhysicalPlan::from_spec(&q, &spec, PlanConfig::default(), &[]).unwrap();
        let top = &plan.nodes[plan.root];
        let hash = top.hash.as_ref().expect("equality should hash");
        assert_eq!(hash.left, vec![KeyPart { class: 0, field: 1 }]);
        assert_eq!(hash.right, vec![KeyPart { class: 2, field: 1 }]);
        assert_eq!(hash.covered_preds, vec![0]);

        // With hashing disabled the predicate evaluates normally.
        let plan = PhysicalPlan::from_spec(
            &q,
            &spec,
            PlanConfig { use_hash: false, ..Default::default() },
            &[],
        )
        .unwrap();
        assert!(plan.nodes[plan.root].hash.is_none());
    }

    /// More cross-child equalities than a key holds ([`MAX_KEY_PARTS`]):
    /// the join hashes on the first four and checks the fifth per pair.
    /// Names and volumes repeat often, so pairs agree on the key and still
    /// differ in volume; the output equals the oracle, hash on and off.
    #[test]
    fn equalities_beyond_the_key_width_are_checked_per_pair() {
        use crate::{build_intake, reference_signatures, EngineBuilder, EngineConfig};
        use zstream_events::{stock, EventBatch, EventRef};

        let src = "PATTERN T1; T2 \
                   WHERE T1.name = T2.name AND T2.name = T1.name AND T1.name = T2.name \
                     AND T2.name = T1.name AND T1.volume = T2.volume \
                   WITHIN 6";
        let events: Vec<EventRef> = (0..90u64)
            .map(|i| {
                let name = ["IBM", "Sun"][(i % 3 % 2) as usize];
                stock(i / 2, i as i64, name, 1.0, (i % 5 % 2) as i64)
            })
            .collect();
        let batches: Vec<EventBatch> =
            events.chunks(8).map(|c| EventBatch::from_events(c).unwrap()).collect();
        let handles: Vec<EventRef> = batches.iter().flat_map(EventBatch::iter).collect();
        let q = aq(src);
        let expected = reference_signatures(&q, &build_intake(&q, None).unwrap(), &handles);
        assert!(!expected.is_empty());
        for use_hash in [true, false] {
            let plan = PlanConfig { use_hash, ..Default::default() };
            let mut engine = EngineBuilder::parse(src)
                .unwrap()
                .config(EngineConfig { plan, ..Default::default() })
                .build()
                .unwrap();
            let root = &engine.plan().nodes[engine.plan().root];
            assert_eq!(root.hash.as_ref().map(|h| h.left.len()), use_hash.then_some(4));
            let mut out = Vec::new();
            for batch in &batches {
                out.extend(engine.push_columns(batch));
            }
            out.extend(engine.flush());
            let mut sigs: Vec<_> = out.iter().map(|r| engine.record_signature(r)).collect();
            sigs.sort();
            assert_eq!(sigs, expected, "use_hash={use_hash}");
        }
    }

    #[test]
    fn nseq_plan_has_guard_above() {
        let (_, plan) = plan_for("PATTERN IBM; !Sun; Oracle WITHIN 200");
        let nseq = plan
            .nodes
            .iter()
            .find(|n| matches!(n.kind, NodeKind::Nseq { .. }))
            .expect("uniform stats choose push-down");
        assert_eq!(nseq.classes, vec![1, 2]);
        let top = &plan.nodes[plan.root];
        assert_eq!(top.guards.len(), 1);
        assert_eq!(top.guards[0].neg_classes, vec![1]);
    }

    #[test]
    fn kseq_event_preds_split_from_group_preds() {
        let q = aq("PATTERN T1; T2^2; T3 \
             WHERE sum(T2.volume) > 10 AND T2.price > T1.price \
             WITHIN 10");
        let stats = Statistics::uniform(3, 2, 10);
        let spec = search_optimal(&q, &stats).unwrap();
        let plan = PhysicalPlan::from_spec(&q, &spec, PlanConfig::default(), &[]).unwrap();
        let kseq = plan.nodes.iter().find(|n| matches!(n.kind, NodeKind::Kseq { .. })).unwrap();
        assert_eq!(kseq.preds.len(), 1, "aggregate stays a group predicate");
        assert_eq!(kseq.event_preds.len(), 1, "plain closure attr is per-event");
    }

    #[test]
    fn negtop_plan_covers_neg_predicates() {
        let q = aq("PATTERN IBM; !Sun; Oracle \
             WHERE Sun.price > IBM.price AND Sun.price < Oracle.price \
             WITHIN 200");
        let stats = Statistics::uniform(3, 2, 200);
        let spec = search_optimal(&q, &stats).unwrap();
        assert_eq!(spec.top_negs.len(), 1, "cross-side predicates force NEG-on-top");
        let plan = PhysicalPlan::from_spec(&q, &spec, PlanConfig::default(), &[]).unwrap();
        let top = &plan.nodes[plan.root];
        assert!(matches!(top.kind, NodeKind::NegTop { .. }));
        assert_eq!(top.preds.len(), 2);
    }

    #[test]
    fn syntax_directed_conj_disj() {
        let q = aq("PATTERN (A & B); (C | D) WITHIN 10");
        let plan = PhysicalPlan::from_pattern(&q, PlanConfig::default(), &[]).unwrap();
        assert!(plan.nodes.iter().any(|n| matches!(n.kind, NodeKind::Conj { .. })));
        assert!(plan.nodes.iter().any(|n| matches!(n.kind, NodeKind::Disj { .. })));
        assert_eq!(plan.optional_mask, 0b1100);
        let mut t = plan.trigger_classes.clone();
        t.sort_unstable();
        assert_eq!(t, vec![2, 3]);
    }

    #[test]
    fn trigger_classes_for_sequences() {
        let (_, plan) = plan_for("PATTERN A; B; C WITHIN 10");
        assert_eq!(plan.trigger_classes, vec![2]);
        let q = aq("PATTERN A & B WITHIN 10");
        let plan = PhysicalPlan::from_pattern(&q, PlanConfig::default(), &[]).unwrap();
        let mut t = plan.trigger_classes.clone();
        t.sort_unstable();
        assert_eq!(t, vec![0, 1]);
    }

    #[test]
    fn render_shows_tree() {
        let (q, plan) = plan_for("PATTERN IBM; !Sun; Oracle WITHIN 200");
        let s = plan.render(&q);
        assert!(s.contains("NSEQ"), "render: {s}");
        assert!(s.contains("LEAF IBM"));
    }
}
