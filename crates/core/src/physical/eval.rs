//! Operator evaluation (§4.4).
//!
//! Each assembly round evaluates every internal node bottom-up (the node
//! arena is built children-first, so ascending index order is correct).
//! Every operator consumes its children in end-timestamp order and emits in
//! end-timestamp order, maintaining the buffer invariant of §4.2:
//!
//! * **SEQ** — Algorithm 1: outer loop over the right child's *new* records,
//!   inner loop over the left child's end-before prefix (or a hash probe,
//!   §5.2.2), then the right input is cleared/consumed,
//! * **NSEQ** — Algorithm 2: for each new right record, scan the negation
//!   buffers backward for the latest qualifying negation instance; emit
//!   `(b, Rr)` or `(NULL, Rr)`,
//! * **CONJ** — Algorithm 3: a sort-merge over both children's cursors,
//!   combining each newly consumed record with all earlier records of the
//!   other side,
//! * **DISJ** — an end-ordered merge of both children, padding slots,
//! * **KSEQ** — Algorithm 4: trinary start/closure/end grouping,
//! * **NEG** — the on-top filter: drop composites with a qualifying
//!   negation instance interleaved between `prev` and `next`.
//!
//! A consumed input in a drain role — an internal node, or a trigger-class
//! leaf, under SEQ-right, DISJ or NEG — is cleared in the round that
//! consumes it (`finish_consume`); every other input keeps its entries
//! behind a cursor until the engine prunes them to its EAT floor after the
//! round (`Engine::round`).
//!
//! Every operator reads its children's entries — leaf events and internal
//! records alike — through [`RecordView`]s. It describes each output as
//! [`Part`]s plus a span and hands it to its node's one sink (`Out`): an
//! internal node's buffer, which builds a [`Record`] for its parent to
//! read, or — at the plan root — the round's [`MatchBatch`], which packs
//! `(source, row)` ids and builds nothing. Matches become `Record`s only where a consumer asks for them
//! (`Engine::push_columns`, or the runtime's control thread), so the thread
//! that assembles them never allocates or refcounts per match.

use zstream_events::{EventRef, MatchBatch, Part, Record, RecordView, Ts};
use zstream_lang::{eval_binop, ClassId, EventBinding, KleeneKind, TypedExpr};

use crate::physical::binding::{
    pred_passes, ClassMap, PairBinding, RecordBinding, WithEventBinding,
};
use crate::physical::buffer::Buffer;
use crate::physical::hash::HashIndex;
use crate::physical::plan::{Node, NodeKind, PhysicalPlan, ProbeSide};

/// Per-round evaluation context.
#[derive(Debug, Clone, Copy)]
pub struct EvalCtx {
    /// The query time window.
    pub window: Ts,
    /// Classes that may be legitimately unbound (disjunction branches).
    pub optional_mask: u64,
}

impl PhysicalPlan {
    /// Runs one assembly round: prunes every buffer against `eat` (the
    /// round's earliest allowed timestamp, §4.3), evaluates all internal
    /// nodes bottom-up, and appends the root's output to `out`.
    pub fn assemble(&mut self, eat: Ts, out: &mut MatchBatch) {
        let ctx = EvalCtx { window: self.window, optional_mask: self.optional_mask };
        if self.config.eat_pruning {
            self.prune_all(eat);
        }
        let root = self.root;
        for k in 0..self.nodes.len() {
            if !self.nodes[k].is_leaf() {
                let root_out = if k == root { Some(&mut *out) } else { None };
                eval_node(&mut self.nodes, k, &ctx, root_out);
            }
        }
        if self.nodes[root].is_leaf() {
            // Degenerate single-class pattern: emit unconsumed leaf entries.
            let buf = &mut self.nodes[root].buf;
            let mut sink = Out::Matches(out);
            for i in buf.consumed()..buf.len() {
                sink.forward(buf.get(i));
            }
            buf.consume_all();
        }
    }

    /// Prunes every buffer — leaves and internal nodes, negation and
    /// closure leaves alike — to entries starting at or after `eat`. A hash
    /// index over a buffer that shifted rebuilds on its next sync
    /// ([`HashIndex::sync`]).
    pub(crate) fn prune_all(&mut self, eat: Ts) {
        for node in &mut self.nodes {
            node.buf.prune(eat);
        }
    }

    /// Total logical footprint of all buffers and hash indexes (peak-memory
    /// accounting for Tables 3 and 5).
    pub fn total_bytes(&self) -> usize {
        self.nodes.iter().map(|n| n.buf.bytes() + n.hash_left.bytes() + n.hash_right.bytes()).sum()
    }

    /// Resets all dynamic state: internal buffers cleared, leaf buffers
    /// rewound for replay, except classes in `keep_consumed` (the trigger
    /// classes) whose cursor is preserved — the adaptive plan-switch
    /// protocol of §5.3.
    pub fn reset_for_switch(
        &mut self,
        leaf_snapshots: Vec<(ClassId, crate::physical::buffer::Buffer)>,
    ) {
        for (class, buf) in leaf_snapshots {
            let li = self.leaf_of_class[class];
            self.nodes[li].buf = buf;
        }
    }

    /// Extracts the leaf buffers (with their cursors) for transplanting into
    /// a new plan.
    pub fn take_leaf_buffers(&mut self) -> Vec<(ClassId, crate::physical::buffer::Buffer)> {
        let mut out = Vec::new();
        for c in 0..self.num_classes {
            let li = self.leaf_of_class[c];
            out.push((c, std::mem::replace(&mut self.nodes[li].buf, Buffer::leaf())));
        }
        out
    }
}

/// Where one node's output goes — the node's single sink for the round.
enum Out<'a> {
    /// An internal node's own buffer: its parent reads records.
    Buffer(&'a mut Buffer),
    /// The plan root's output: the round's packed matches.
    Matches(&'a mut MatchBatch),
}

impl<'a> Out<'a> {
    /// The sink of a node whose buffer is `buf`: `root` when the node is
    /// the plan root.
    fn new(buf: &'a mut Buffer, root: Option<&'a mut MatchBatch>) -> Out<'a> {
        match root {
            Some(matches) => Out::Matches(matches),
            None => Out::Buffer(buf),
        }
    }

    /// Emits one output made of `parts` with span `[start, end]`.
    #[inline]
    fn emit(&mut self, parts: &[Part<'_>], start: Ts, end: Ts) {
        match self {
            Out::Buffer(buf) => buf.push(Record::from_parts(parts, start, end)),
            Out::Matches(matches) => matches.push(parts, start, end),
        }
    }

    /// Emits `left` and `right` side by side (left classes first) over the
    /// union of their spans — SEQ and CONJ output.
    #[inline]
    fn combine(&mut self, left: RecordView<'_>, right: RecordView<'_>) {
        self.emit(
            &[left.part(), right.part()],
            left.start_ts().min(right.start_ts()),
            left.end_ts().max(right.end_ts()),
        );
    }

    /// Emits `rec` unchanged.
    fn forward(&mut self, rec: RecordView<'_>) {
        self.emit(&[rec.part()], rec.start_ts(), rec.end_ts());
    }
}

fn eval_node(nodes: &mut [Node], k: usize, ctx: &EvalCtx, root: Option<&mut MatchBatch>) {
    match nodes[k].kind {
        NodeKind::Leaf { .. } => {}
        NodeKind::Seq { left, right } => eval_seq(nodes, k, left, right, ctx, root),
        NodeKind::Conj { left, right } => eval_conj(nodes, k, left, right, ctx, root),
        NodeKind::Disj { left, right } => eval_disj(nodes, k, left, right, root),
        NodeKind::Nseq { .. } => eval_nseq(nodes, k, ctx, root),
        NodeKind::Kseq { .. } => eval_kseq(nodes, k, ctx, root),
        NodeKind::NegTop { .. } => eval_negtop(nodes, k, ctx, root),
    }
}

/// Consumes a child after its new records were processed: buffers in drain
/// roles (internal nodes and trigger-class leaves, [`Node::drain`]) are
/// cleared (Algorithm 1 step 7), everything else keeps records behind the
/// cursor.
fn finish_consume(nodes: &mut [Node], child: usize) {
    if nodes[child].drain {
        nodes[child].buf.clear();
    } else {
        nodes[child].buf.consume_all();
    }
}

/// Checks the NSEQ guards of a SEQ node: every bound negation slot in the
/// right record caps the left record from below (`left.end >= b.ts`,
/// Figure 5's `A.end-ts >= B.timestamp`).
fn guards_pass(
    guards: &[crate::physical::plan::NegGuard],
    rmap: &ClassMap,
    lr: RecordView<'_>,
    rr: RecordView<'_>,
) -> bool {
    guards.iter().all(|g| {
        g.neg_classes.iter().all(|nc| match rmap.slot_of(*nc).and_then(|p| rr.one(p)) {
            Some(b) => lr.end_ts() >= b.ts(),
            None => true,
        })
    })
}

fn eval_seq(
    nodes: &mut [Node],
    k: usize,
    left: usize,
    right: usize,
    ctx: &EvalCtx,
    root: Option<&mut MatchBatch>,
) {
    let (before, rest) = nodes.split_at_mut(k);
    let lnode = &before[left];
    let rnode = &before[right];
    let Node { buf, preds, split_preds, split_flag, hash, hash_left, guards, .. } = &mut rest[0];
    // Sync the build-side hash index with the left child's buffer.
    if let Some(spec) = &*hash {
        hash_left.sync(&lnode.buf, &lnode.map, &spec.left);
    }
    let mut out = Out::new(buf, root);
    let mut candidates: Vec<u32> = Vec::new();
    // Split-predicate fast path: sound only when no referenced class can be
    // legitimately unbound (vacuous truth needs the tree-walk semantics).
    let use_split = ctx.optional_mask == 0 && !split_preds.is_empty();
    let has_slow = !use_split || split_flag.iter().any(|f| !f);
    let has_guards = !guards.is_empty();
    // Per-right-record values of the fixed sides; `None` = evaluation error
    // (the predicate fails every pair unless hash coverage skips it).
    let mut fixed_vals: Vec<Option<zstream_events::Value>> = Vec::with_capacity(split_preds.len());

    for ri in rnode.buf.consumed()..rnode.buf.len() {
        let rr = rnode.buf.get(ri);
        if use_split {
            let rb = RecordBinding { rec: rr, map: &rnode.map };
            fixed_vals.clear();
            fixed_vals.extend(split_preds.iter().map(|sp| sp.fixed.eval(&rb).ok()));
        }
        // Candidate left records: hash probe or the end-before prefix.
        candidates.clear();
        let mut hash_used = false;
        if let Some(spec) = &*hash {
            if let Some(key) = HashIndex::key_of(rr, &rnode.map, &spec.right) {
                candidates.extend_from_slice(hash_left.probe(&key));
                candidates.extend_from_slice(hash_left.unkeyed());
                hash_used = true;
            }
        }
        let covered: &[usize] =
            if hash_used { hash.as_ref().map_or(&[], |s| &s.covered_preds) } else { &[] };
        // `$time_check`: hash candidates are unordered in time; the scan
        // path's prefix/window bounds make both time checks vacuous there.
        // A macro (not a closure) so each call site gets a specialized body.
        macro_rules! consider {
            ($li:expr, $time_check:literal) => {{
                let lr = lnode.buf.get($li);
                let rejected = ($time_check
                    && (lr.end_ts() >= rr.start_ts() || rr.end_ts() - lr.start_ts() > ctx.window))
                    || (has_guards && !guards_pass(guards, &rnode.map, lr, rr))
                    || (use_split
                        && !split_preds_pass(
                            split_preds,
                            &fixed_vals,
                            covered,
                            hash_used,
                            lr,
                            &lnode.map,
                        ));
                if !rejected {
                    let slow_pass = !has_slow || {
                        let binding = PairBinding {
                            left: RecordBinding { rec: lr, map: &lnode.map },
                            right: RecordBinding { rec: rr, map: &rnode.map },
                        };
                        preds.iter().enumerate().all(|(i, p)| {
                            (use_split && split_flag[i])
                                || (hash_used && covered.contains(&i))
                                || pred_passes(p, &binding, ctx.optional_mask)
                        })
                    };
                    if slow_pass {
                        out.combine(lr, rr);
                    }
                }
            }};
        }
        if hash_used {
            for &li in &candidates {
                consider!(li as usize, true);
            }
        } else {
            // Scan candidates sorted by end: `[lo, hi)` holds exactly the
            // records with `end < rr.start` that can still satisfy the window
            // (`end >= rr.end - window` is necessary since `start <= end`;
            // the per-pair check below covers starts that stretch further).
            let hi = lnode.buf.prefix_end_before(rr.start_ts());
            let lo = lnode.buf.first_end_at_or_after(rr.end_ts().saturating_sub(ctx.window));
            for li in lo..hi {
                let lr = lnode.buf.get(li);
                if rr.end_ts() - lr.start_ts() > ctx.window {
                    continue;
                }
                consider!(li, false);
            }
        }
    }
    finish_consume(nodes, right);
}

/// Evaluates a SEQ node's split predicates against one left candidate, with
/// the fixed sides pre-evaluated in `fixed_vals`. Matches the tree-walk
/// semantics exactly: an unevaluable side fails the predicate (closed), and
/// hash-covered predicates are skipped when the probe came from the index.
#[inline]
fn split_preds_pass(
    split_preds: &[crate::physical::plan::SplitPred],
    fixed_vals: &[Option<zstream_events::Value>],
    covered: &[usize],
    hash_used: bool,
    lr: RecordView<'_>,
    lmap: &ClassMap,
) -> bool {
    split_preds.iter().zip(fixed_vals).all(|(sp, fv)| {
        if hash_used && covered.contains(&sp.pred) {
            return true;
        }
        let Some(fv) = fv else { return false };
        let pv = match &sp.probe {
            ProbeSide::Slot { slot, field } => match lr.one(*slot) {
                Some(ev) => ev.value(*field),
                None => return false,
            },
            ProbeSide::Expr(e) => match e.eval(&RecordBinding { rec: lr, map: lmap }) {
                Ok(v) => v,
                Err(_) => return false,
            },
        };
        let (a, b) = if sp.probe_is_lhs { (&pv, fv) } else { (fv, &pv) };
        matches!(eval_binop(sp.op, a, b), Ok(zstream_events::Value::Bool(true)))
    })
}

fn preds_pass(
    preds: &[TypedExpr],
    skip: &[usize],
    binding: &impl EventBinding,
    optional_mask: u64,
) -> bool {
    preds
        .iter()
        .enumerate()
        .all(|(i, p)| skip.contains(&i) || pred_passes(p, binding, optional_mask))
}

fn eval_conj(
    nodes: &mut [Node],
    k: usize,
    left: usize,
    right: usize,
    ctx: &EvalCtx,
    root: Option<&mut MatchBatch>,
) {
    let (before, rest) = nodes.split_at_mut(k);
    let Node { buf, preds, hash, hash_left, hash_right, .. } = &mut rest[0];
    let mut out = Out::new(buf, root);
    let lnode = &before[left];
    let rnode = &before[right];
    if let Some(spec) = &*hash {
        hash_left.sync(&lnode.buf, &lnode.map, &spec.left);
        hash_right.sync(&rnode.buf, &rnode.map, &spec.right);
    }

    let mut lc = lnode.buf.consumed();
    let mut rc = rnode.buf.consumed();
    let mut candidates: Vec<u32> = Vec::new();

    while lc < lnode.buf.len() || rc < rnode.buf.len() {
        // Algorithm 3 line 5: advance the side with the earlier end
        // timestamp (ties advance the left).
        let take_left = match (lc < lnode.buf.len(), rc < rnode.buf.len()) {
            (true, true) => lnode.buf.get(lc).end_ts() <= rnode.buf.get(rc).end_ts(),
            (l, _) => l,
        };
        let (pr, pr_map, other, other_map, bound, probe_right) = if take_left {
            let pr = lnode.buf.get(lc);
            lc += 1;
            (pr, &lnode.map, rnode, &rnode.map, rc, true)
        } else {
            let pr = rnode.buf.get(rc);
            rc += 1;
            (pr, &rnode.map, lnode, &lnode.map, lc, false)
        };
        // Candidates: records of the other side already consumed.
        candidates.clear();
        let mut hash_used = false;
        if let Some(spec) = &*hash {
            let parts = if probe_right { &spec.left } else { &spec.right };
            if let Some(key) = HashIndex::key_of(pr, pr_map, parts) {
                let idx = if probe_right { &*hash_right } else { &*hash_left };
                candidates
                    .extend(idx.probe(&key).iter().copied().filter(|&i| (i as usize) < bound));
                candidates.extend(idx.unkeyed().iter().copied().filter(|&i| (i as usize) < bound));
                hash_used = true;
            }
        }
        if !hash_used {
            candidates.extend(0..bound as u32);
        }
        for &bi in &candidates {
            let br = other.buf.get(bi as usize);
            let span_start = pr.start_ts().min(br.start_ts());
            let span_end = pr.end_ts().max(br.end_ts());
            if span_end - span_start > ctx.window {
                continue;
            }
            // Positional slots: left-child classes first.
            let (lrec, rrec, lmap2, rmap2) =
                if take_left { (pr, br, pr_map, other_map) } else { (br, pr, other_map, pr_map) };
            let binding = PairBinding {
                left: RecordBinding { rec: lrec, map: lmap2 },
                right: RecordBinding { rec: rrec, map: rmap2 },
            };
            let covered: &[usize] =
                if hash_used { hash.as_ref().map_or(&[], |s| &s.covered_preds) } else { &[] };
            if !preds_pass(preds, covered, &binding, ctx.optional_mask) {
                continue;
            }
            out.combine(lrec, rrec);
        }
    }
    before[left].buf.set_consumed(lc);
    before[right].buf.set_consumed(rc);
}

fn eval_disj(
    nodes: &mut [Node],
    k: usize,
    left: usize,
    right: usize,
    root: Option<&mut MatchBatch>,
) {
    let (before, rest) = nodes.split_at_mut(k);
    let mut out = Out::new(&mut rest[0].buf, root);
    let lnode = &before[left];
    let rnode = &before[right];
    let lwidth = lnode.classes.len();
    let rwidth = rnode.classes.len();

    let mut lc = lnode.buf.consumed();
    let mut rc = rnode.buf.consumed();
    while lc < lnode.buf.len() || rc < rnode.buf.len() {
        let take_left = match (lc < lnode.buf.len(), rc < rnode.buf.len()) {
            (true, true) => lnode.buf.get(lc).end_ts() <= rnode.buf.get(rc).end_ts(),
            (l, _) => l,
        };
        // The branch that matched binds its slots; the other's stay unbound.
        if take_left {
            let r = lnode.buf.get(lc);
            lc += 1;
            out.emit(&[r.part(), Part::Nulls(rwidth)], r.start_ts(), r.end_ts());
        } else {
            let r = rnode.buf.get(rc);
            rc += 1;
            out.emit(&[Part::Nulls(lwidth), r.part()], r.start_ts(), r.end_ts());
        }
    }
    finish_consume(nodes, left);
    finish_consume(nodes, right);
}

fn eval_nseq(nodes: &mut [Node], k: usize, ctx: &EvalCtx, root: Option<&mut MatchBatch>) {
    let NodeKind::Nseq { ref negs, right } = nodes[k].kind else { unreachable!() };
    let negs = negs.clone();
    let neg_mask: u64 = negs.iter().map(|ni| nodes[*ni].mask()).fold(0, |a, b| a | b);
    let neg_classes: Vec<ClassId> = negs.iter().map(|ni| nodes[*ni].classes[0]).collect();

    let (before, rest) = nodes.split_at_mut(k);
    let Node { buf, preds, .. } = &mut rest[0];
    let mut out = Out::new(buf, root);
    let rnode = &before[right];
    let mut parts: Vec<Part<'_>> = Vec::with_capacity(neg_classes.len() + 1);

    for ri in rnode.buf.consumed()..rnode.buf.len() {
        let rr = rnode.buf.get(ri);
        // Algorithm 2: scan each negation buffer backward for the latest
        // instance before rr that satisfies the value constraints.
        let mut best: Option<(Ts, ClassId, &EventRef)> = None;
        for (gi, &ni) in negs.iter().enumerate() {
            let nb = &before[ni];
            let nclass = neg_classes[gi];
            let hi = nb.buf.prefix_end_before(rr.start_ts());
            for j in (0..hi).rev() {
                let b = nb.buf.get(j);
                let bts = b.end_ts();
                if best.as_ref().is_some_and(|(bt, _, _)| bts <= *bt) {
                    break; // cannot beat the best found so far
                }
                let Some(ev) = b.one(0) else { continue };
                let binding = WithEventBinding {
                    base: RecordBinding { rec: rr, map: &rnode.map },
                    class: nclass,
                    event: ev,
                };
                // Other negation classes stay legitimately unbound while
                // this candidate is tested.
                let optional = ctx.optional_mask | (neg_mask & !(1u64 << nclass));
                if preds_pass(preds, &[], &binding, optional) {
                    best = Some((bts, nclass, ev));
                    break;
                }
            }
        }
        // Emit (b, Rr) or (NULL, Rr); the span excludes the negation event.
        parts.clear();
        parts.extend(neg_classes.iter().map(|nc| match best {
            Some((_, c, ev)) if c == *nc => Part::One(ev),
            _ => Part::Nulls(1),
        }));
        parts.push(rr.part());
        out.emit(&parts, rr.start_ts(), rr.end_ts());
    }
    finish_consume(nodes, right);
}

/// Binding used by KSEQ: optional start and end records plus (optionally) a
/// candidate middle event or a full closure group.
struct KseqBinding<'a> {
    start: Option<RecordBinding<'a>>,
    end: Option<RecordBinding<'a>>,
    closure_class: ClassId,
    mid_event: Option<&'a EventRef>,
    mid_group: &'a [EventRef],
}

impl EventBinding for KseqBinding<'_> {
    fn event(&self, class: ClassId) -> Option<&EventRef> {
        if class == self.closure_class {
            return self.mid_event;
        }
        self.start
            .as_ref()
            .and_then(|b| b.event(class))
            .or_else(|| self.end.as_ref().and_then(|b| b.event(class)))
    }

    fn closure(&self, class: ClassId) -> &[EventRef] {
        if class == self.closure_class {
            if let Some(e) = self.mid_event {
                return std::slice::from_ref(e);
            }
            return self.mid_group;
        }
        &[]
    }
}

fn eval_kseq(nodes: &mut [Node], k: usize, ctx: &EvalCtx, root: Option<&mut MatchBatch>) {
    let NodeKind::Kseq { start, closure, kind, end } = nodes[k].kind else { unreachable!() };
    let closure_class = nodes[closure].classes[0];
    let (before, rest) = nodes.split_at_mut(k);
    let Node { buf, preds, event_preds, .. } = &mut rest[0];
    let mut kseq = Kseq {
        preds,
        event_preds,
        mbuf: &before[closure].buf,
        closure_class,
        kind,
        ctx,
        out: Out::new(buf, root),
    };
    // Start-anchor candidates of a group ending at `last` whose closure
    // begins after `bound`: indexes into the start buffer of the entries
    // ending before `bound` and no earlier than the window allows (an
    // anchor's start is at most its end), or one unanchored pass when the
    // closure opens the pattern.
    let starts = |bound: Ts, last: Ts| match start {
        Some(s) => {
            let sbuf = &before[s].buf;
            sbuf.first_end_at_or_after(last.saturating_sub(ctx.window))
                ..sbuf.prefix_end_before(bound)
        }
        None => 0..1,
    };
    let anchor = |i: usize| start.map(|s| (&before[s], before[s].buf.get(i)));

    match end {
        Some(e) => {
            // Algorithm 4: the end buffer drives (outer loop), start inner.
            let enode = &before[e];
            for ei in enode.buf.consumed()..enode.buf.len() {
                let er = enode.buf.get(ei);
                for si in starts(er.start_ts(), er.end_ts()) {
                    kseq.groups(anchor(si), (enode, er));
                }
            }
            finish_consume(nodes, e);
        }
        None => {
            // Counted closure ends the pattern: each new middle event can
            // complete a group of exactly `cc` qualifying events.
            let KleeneKind::Count(cc) = kind else {
                unreachable!("unbounded trailing closures are rejected at plan time")
            };
            let mbuf = kseq.mbuf;
            for mi in mbuf.consumed()..mbuf.len() {
                let last = mbuf.get(mi).end_ts();
                for si in starts(last, last) {
                    kseq.trailing_group(anchor(si), mi, cc as usize);
                }
            }
            finish_consume(nodes, closure);
        }
    }
}

/// A start or end anchor of a closure group: the anchor's leaf node (for
/// its class map) and one of its records.
type Anchor<'a> = (&'a Node, RecordView<'a>);

/// One KSEQ node's round: its predicates, the closure buffer, and its sink.
struct Kseq<'a, 'o> {
    /// Group-level predicates (aggregates, start/end predicates).
    preds: &'a [TypedExpr],
    /// Per-closure-event predicates.
    event_preds: &'a [TypedExpr],
    mbuf: &'a Buffer,
    closure_class: ClassId,
    kind: KleeneKind,
    ctx: &'a EvalCtx,
    out: Out<'o>,
}

impl Kseq<'_, '_> {
    /// The binding of a group between `start` and `end` whose closure slot
    /// holds `mid_group` — or, to qualify one candidate, just `mid_event`.
    fn binding<'b>(
        &self,
        start: Option<Anchor<'b>>,
        end: Option<Anchor<'b>>,
        mid_event: Option<&'b EventRef>,
        mid_group: &'b [EventRef],
    ) -> KseqBinding<'b> {
        KseqBinding {
            start: start.map(|(n, rec)| RecordBinding { rec, map: &n.map }),
            end: end.map(|(n, rec)| RecordBinding { rec, map: &n.map }),
            closure_class: self.closure_class,
            mid_event,
            mid_group,
        }
    }

    /// Whether closure event `ev` satisfies the per-event predicates.
    fn qualifies(&self, start: Option<Anchor<'_>>, end: Option<Anchor<'_>>, ev: &EventRef) -> bool {
        let binding = self.binding(start, end, Some(ev), &[]);
        self.event_preds.iter().all(|p| pred_passes(p, &binding, self.ctx.optional_mask))
    }

    /// Collects qualifying middle events strictly between `start.end` and
    /// `end.start` and emits the group(s) per the closure kind.
    fn groups(&mut self, start: Option<Anchor<'_>>, end: Anchor<'_>) {
        let mbuf = self.mbuf;
        let lo_start = match start {
            Some((_, s)) => mbuf.first_end_at_or_after(s.end_ts() + 1),
            None => 0,
        };
        // Closure events must fit in the window ending at the end anchor;
        // this bounds the "maximal group" of unanchored closures explicitly
        // (rather than implicitly through EAT pruning, which may be
        // disabled).
        let er = end.1;
        let lo_window = mbuf.first_end_at_or_after(er.end_ts().saturating_sub(self.ctx.window));
        let hi = mbuf.prefix_end_before(er.start_ts());
        let qualifying: Vec<EventRef> = (lo_start.max(lo_window)..hi)
            .filter_map(|j| mbuf.get(j).one(0))
            .filter(|ev| self.qualifies(start, Some(end), ev))
            .cloned()
            .collect();
        match self.kind {
            KleeneKind::Star => self.emit(start, &qualifying, Some(end)),
            KleeneKind::Plus => {
                if !qualifying.is_empty() {
                    self.emit(start, &qualifying, Some(end));
                }
            }
            KleeneKind::Count(cc) => {
                let cc = cc as usize;
                if qualifying.len() >= cc {
                    for w in 0..=qualifying.len() - cc {
                        self.emit(start, &qualifying[w..w + cc], Some(end));
                    }
                }
            }
        }
    }

    /// Emits the group of exactly `cc` qualifying events ending at
    /// middle-buffer index `mi` (trailing-closure mode).
    fn trailing_group(&mut self, start: Option<Anchor<'_>>, mi: usize, cc: usize) {
        let mbuf = self.mbuf;
        let lo = match start {
            Some((_, s)) => mbuf.first_end_at_or_after(s.end_ts() + 1),
            None => 0,
        };
        // Walk backward from mi collecting qualifying events.
        let mut group_rev: Vec<EventRef> = Vec::with_capacity(cc);
        let mut j = mi + 1;
        while j > lo && group_rev.len() < cc {
            j -= 1;
            let Some(ev) = mbuf.get(j).one(0) else { continue };
            if self.qualifies(start, None, ev) {
                group_rev.push(ev.clone());
            } else if j == mi {
                return; // the completing event itself must qualify
            }
        }
        if group_rev.len() < cc {
            return;
        }
        group_rev.reverse();
        self.emit(start, &group_rev, None);
    }

    /// Emits `start; group; end` if it fits the window and passes the
    /// group-level predicates.
    fn emit(&mut self, start: Option<Anchor<'_>>, group: &[EventRef], end: Option<Anchor<'_>>) {
        // Anchors are leaf entries, so an anchor's span is its event's
        // timestamp; the group is in time order.
        let (s, e) = (start.map(|a| a.1), end.map(|a| a.1));
        let firsts = [
            s.map(RecordView::start_ts),
            group.first().map(EventRef::ts),
            e.map(RecordView::start_ts),
        ];
        let lasts =
            [s.map(RecordView::end_ts), group.last().map(EventRef::ts), e.map(RecordView::end_ts)];
        let (Some(lo), Some(hi)) =
            (firsts.into_iter().flatten().min(), lasts.into_iter().flatten().max())
        else {
            unreachable!("a closure group binds at least one event")
        };
        if hi - lo > self.ctx.window {
            return;
        }
        let binding = self.binding(start, end, None, group);
        if !self.preds.iter().all(|p| pred_passes(p, &binding, self.ctx.optional_mask)) {
            return;
        }
        let parts = [
            s.map_or(Part::Slots(&[]), RecordView::part),
            Part::Group(group),
            e.map_or(Part::Slots(&[]), RecordView::part),
        ];
        self.out.emit(&parts, lo, hi);
    }
}

fn eval_negtop(nodes: &mut [Node], k: usize, ctx: &EvalCtx, root: Option<&mut MatchBatch>) {
    let NodeKind::NegTop { input, ref negs, prev, next } = nodes[k].kind else { unreachable!() };
    let negs = negs.clone();
    let neg_mask: u64 = negs.iter().map(|ni| nodes[*ni].mask()).fold(0, |a, b| a | b);
    let neg_classes: Vec<ClassId> = negs.iter().map(|ni| nodes[*ni].classes[0]).collect();

    let (before, rest) = nodes.split_at_mut(k);
    let Node { buf, preds, map, .. } = &mut rest[0];
    let mut out = Out::new(buf, root);
    let inode = &before[input];

    // Record-level predicates (no negation classes) vs. candidate
    // predicates (touch a negation class).
    let (cand_preds, rec_preds): (Vec<&TypedExpr>, Vec<&TypedExpr>) =
        preds.iter().partition(|p| p.class_mask() & neg_mask != 0);

    for ri in inode.buf.consumed()..inode.buf.len() {
        let rr = inode.buf.get(ri);
        let base = RecordBinding { rec: rr, map: &inode.map };
        if !rec_preds.iter().all(|p| pred_passes(p, &base, ctx.optional_mask)) {
            continue;
        }
        let prev_ts = map.slot_of(prev).and_then(|p| rr.one(p)).map(|e| e.ts());
        let next_ts = map.slot_of(next).and_then(|p| rr.one(p)).map(|e| e.ts());
        let (Some(prev_ts), Some(next_ts)) = (prev_ts, next_ts) else {
            // Defensive: anchors should always be bound for flat sequences.
            out.forward(rr);
            continue;
        };
        // A negation instance b interleaves when prev.ts < b.ts < next.ts
        // and its predicates hold.
        let mut negated = false;
        'outer: for (gi, &ni) in negs.iter().enumerate() {
            let nb = &before[ni];
            let nclass = neg_classes[gi];
            let lo = nb.buf.first_end_at_or_after(prev_ts + 1);
            let hi = nb.buf.prefix_end_before(next_ts);
            for j in lo..hi {
                let Some(ev) = nb.buf.get(j).one(0) else { continue };
                let binding = WithEventBinding {
                    base: RecordBinding { rec: rr, map: &inode.map },
                    class: nclass,
                    event: ev,
                };
                let optional = ctx.optional_mask | (neg_mask & !(1u64 << nclass));
                let mut relevant =
                    cand_preds.iter().filter(|p| p.class_mask() & (1u64 << nclass) != 0);
                if relevant.all(|p| pred_passes(p, &binding, optional)) {
                    negated = true;
                    break 'outer;
                }
            }
        }
        if !negated {
            out.forward(rr);
        }
    }
    finish_consume(nodes, input);
}
