//! Compiled intake predicates and the cross-query shared predicate index.
//!
//! The §4.1 push-down compiles each single-class intake predicate into a
//! column-kernel form (`IntakePred`) that evaluates over a whole batch
//! column into a bitmap, once per query (`CompiledIntake`).
//!
//! [`SharedPredIndex`] is the one place those bitmaps are computed. It owns
//! the compiled predicate of every distinct conjunct (a **slot**, keyed by
//! `IntakePred::kernel_key`) and interns every class's *conjunction* —
//! its set of slots — to a **class mask**. A mask is evaluated at most once
//! per batch: the AND of its slot bitmaps, stopping at the first empty
//! intermediate, plus its popcount. Subscribers (engines) hold one mask id
//! per pattern class (a `Subscription`) and consume `(mask, count)`; they
//! never see a slot. A service hosting thousands of standing queries shares
//! one index per evaluation thread, so a batch costs *distinct predicates +
//! distinct conjunctions*, and a query none of whose masks has a set bit is
//! known to be idle for the batch before its engine is touched
//! ([`crate::Engine::skip_unadmitted`]). An engine on its own subscribes to
//! a private index — the unshared path is the shared path with one
//! subscriber.
//!
//! Sharing is sound because a kernel predicate reads only its batch column:
//! its bitmap does not depend on which query (or class) requested it.
//!
//! This module is on the per-event hot path (zlint `locks` applies): the
//! per-batch work is bitmap AND/popcount plus dense id lookups —
//! subscription (the only map access) happens on the cold create/build
//! path.

use std::collections::HashMap;
use std::sync::Arc;

use zstream_events::kernel::{filter_cmp, filter_str_eq, Bitmap, CmpOp};
use zstream_events::{EventBatch, EventRef, HashableValue, Sym, Value};
use zstream_lang::{BinOp, ClassId, EventBinding, TypedExpr};

/// Binding of a single event to a single class (intake predicates).
struct OneClassBinding<'a> {
    class: ClassId,
    event: &'a EventRef,
}

impl EventBinding for OneClassBinding<'_> {
    fn event(&self, class: ClassId) -> Option<&EventRef> {
        (class == self.class).then_some(self.event)
    }

    fn closure(&self, class: ClassId) -> &[EventRef] {
        if class == self.class {
            std::slice::from_ref(self.event)
        } else {
            &[]
        }
    }
}

/// One intake predicate compiled for column-wise evaluation. The compiled
/// forms are *exactly* equivalent to evaluating the original [`TypedExpr`]
/// per event — they only skip the expression-tree walk.
#[derive(Debug, Clone)]
pub(crate) enum IntakePred {
    /// `Attr = 'lit'` over a string column: a symbol-id compare per row.
    StrEq {
        /// Field (column) index within the class schema.
        field: usize,
        /// Interned literal.
        sym: Sym,
    },
    /// `Attr op lit` (either operand order, op flipped accordingly): one
    /// column read plus a [`Value::compare`] per row.
    CmpLit {
        /// Field (column) index within the class schema.
        field: usize,
        /// Comparison operator (Eq/Ne/Lt/Le/Gt/Ge).
        op: BinOp,
        /// Literal operand.
        lit: Value,
    },
    /// Anything else: evaluate the expression per row against a one-class
    /// binding (what the brute-force oracle does for every predicate).
    General(TypedExpr),
}

impl IntakePred {
    /// Compiles one single-class intake expression.
    pub(crate) fn compile(expr: &TypedExpr) -> IntakePred {
        if let TypedExpr::Binary(op, l, r) = expr {
            let flipped = |op: BinOp| match op {
                BinOp::Lt => BinOp::Gt,
                BinOp::Le => BinOp::Ge,
                BinOp::Gt => BinOp::Lt,
                BinOp::Ge => BinOp::Le,
                other => other,
            };
            let lit_cmp = |field: usize, op: BinOp, lit: &Value| match (op, lit) {
                (BinOp::Eq, Value::Str(sym)) => IntakePred::StrEq { field, sym: *sym },
                (BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge, _) => {
                    IntakePred::CmpLit { field, op, lit: *lit }
                }
                _ => IntakePred::General(expr.clone()),
            };
            match (l.as_ref(), r.as_ref()) {
                (TypedExpr::Attr { field, .. }, TypedExpr::Lit(v)) => {
                    return lit_cmp(*field, *op, v);
                }
                (TypedExpr::Lit(v), TypedExpr::Attr { field, .. }) => {
                    return lit_cmp(*field, flipped(*op), v);
                }
                _ => {}
            }
        }
        IntakePred::General(expr.clone())
    }

    /// True when the original expression would evaluate to `Bool(true)` for
    /// `row` of `batch` bound to `class`.
    #[inline]
    pub(crate) fn passes(&self, batch: &EventBatch, row: usize, class: ClassId) -> bool {
        match self {
            IntakePred::StrEq { field, sym } => batch.column(*field).sym_at(row) == Some(*sym),
            IntakePred::CmpLit { field, op, lit } => {
                cmp_passes(*op, batch.column(*field).value(row), lit)
            }
            IntakePred::General(expr) => {
                let event = batch.event(row);
                let binding = OneClassBinding { class, event: &event };
                matches!(expr.eval(&binding), Ok(Value::Bool(true)))
            }
        }
    }

    /// Dedup key for column-kernel predicates: two intake predicates with
    /// equal keys decide identically on every row of any batch (`StrEq`
    /// compares interned ids; `CmpLit` literals canonicalize via
    /// [`Value::hash_key`], which agrees exactly with [`Value::loose_eq`]).
    /// `General` predicates never share (their semantics depend on the
    /// bound class). The key reads only batch *columns*, never the bound
    /// class or schema, which is what makes cross-query sharing in
    /// [`SharedPredIndex`] sound.
    pub(crate) fn kernel_key(&self) -> Option<(u8, usize, HashableValue)> {
        match self {
            IntakePred::StrEq { field, sym } => Some((0, *field, HashableValue::Str(*sym))),
            IntakePred::CmpLit { field, op, lit } => {
                let tag = match op {
                    BinOp::Eq => 1,
                    BinOp::Ne => 2,
                    BinOp::Lt => 3,
                    BinOp::Le => 4,
                    BinOp::Gt => 5,
                    BinOp::Ge => 6,
                    _ => return None,
                };
                Some((tag, *field, lit.hash_key()))
            }
            IntakePred::General(_) => None,
        }
    }

    /// True for the variants a column kernel evaluates (`StrEq`, `CmpLit`);
    /// false for `General`, which stays row-wise.
    pub(crate) fn is_kernel(&self) -> bool {
        !matches!(self, IntakePred::General(_))
    }

    /// Evaluates a column-kernel predicate over the whole column into `out`.
    /// Only called for `StrEq`/`CmpLit` (the variants with a
    /// [`IntakePred::kernel_key`]).
    pub(crate) fn eval_column(&self, batch: &EventBatch, out: &mut Bitmap) {
        match self {
            IntakePred::StrEq { field, sym } => filter_str_eq(batch.column(*field), *sym, out),
            IntakePred::CmpLit { field, op, lit } => {
                filter_cmp(batch.column(*field), kernel_op(*op), lit, out);
            }
            IntakePred::General(_) => unreachable!("general predicates evaluate row-wise"),
        }
    }
}

/// Maps the language's comparison operators onto the kernel layer's
/// (`crates/events` sits below the language and defines its own enum).
pub(crate) fn kernel_op(op: BinOp) -> CmpOp {
    match op {
        BinOp::Eq => CmpOp::Eq,
        BinOp::Ne => CmpOp::Ne,
        BinOp::Lt => CmpOp::Lt,
        BinOp::Le => CmpOp::Le,
        BinOp::Gt => CmpOp::Gt,
        BinOp::Ge => CmpOp::Ge,
        other => unreachable!("compiled ops are comparisons, got {other:?}"),
    }
}

/// Comparison semantics identical to `TypedExpr::Binary(op, Attr, Lit)`
/// evaluation: `Eq`/`Ne` via loose equality, orderings via exact
/// [`Value::compare`]; incomparable types fail closed.
#[inline]
pub(crate) fn cmp_passes(op: BinOp, v: Value, lit: &Value) -> bool {
    use std::cmp::Ordering;
    match op {
        BinOp::Eq => v.loose_eq(lit),
        BinOp::Ne => !v.loose_eq(lit),
        _ => match v.compare(lit) {
            Ok(ord) => match op {
                BinOp::Lt => ord == Ordering::Less,
                BinOp::Le => ord != Ordering::Greater,
                BinOp::Gt => ord == Ordering::Greater,
                BinOp::Ge => ord != Ordering::Less,
                _ => unreachable!("compiled ops are comparisons"),
            },
            Err(_) => false,
        },
    }
}

/// A query's per-class intake predicates compiled for column-wise
/// evaluation. Compiled once per query and shared by `Arc` — a partitioned
/// engine hands the same copy to every per-key engine, fresh or restored.
#[derive(Debug)]
pub(crate) struct CompiledIntake {
    /// Per class, the analyzed single-class predicates plus any
    /// route-by-field equality added by the builder, compiled in order.
    pub(crate) preds: Vec<Vec<IntakePred>>,
}

impl CompiledIntake {
    /// Compiles every conjunct of every class, once.
    pub(crate) fn compile(exprs: &[Vec<TypedExpr>]) -> Arc<CompiledIntake> {
        let preds = exprs.iter().map(|ps| ps.iter().map(IntakePred::compile).collect()).collect();
        Arc::new(CompiledIntake { preds })
    }
}

/// How [`crate::Engine::push_columns`] / [`crate::Engine::push_rows`]
/// evaluate intake predicates. The two paths are semantically identical
/// (the differential suite pins this); the knob exists for tests and
/// ablation benches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IntakeMode {
    /// Whole-column kernels for full batches and dense selections;
    /// row-at-a-time for sparse selections (partitioned intake routes one
    /// small selection per key — scanning the full column per key would be
    /// O(batch × keys)).
    #[default]
    Auto,
    /// Always evaluate via column kernels into bitmaps.
    Kernel,
    /// Always evaluate row-at-a-time (the pre-kernel path).
    Rows,
}

/// Reusable scratch for columnar intake: bitmaps for the kernel path, row
/// lists for the row-at-a-time path.
///
/// **Invariant:** contents are meaningful only *within* one
/// `route_columns` call — between calls they hold stale state of the
/// previous batch, so every use inside the call must start from a full
/// overwrite (`Bitmap::reset` / `Bitmap::copy_from`, `Vec::clear`), never
/// read carried-over state.
#[derive(Debug, Default)]
pub(crate) struct IntakeScratch {
    /// One class's admissions when they are narrower than its class mask:
    /// the mask restricted to the input selection and to the rows that
    /// also pass the class's row-wise (`General`) conjuncts.
    pub(crate) acc: Bitmap,
    /// Union of the admitting classes' rows — `events_admitted` is its
    /// popcount.
    pub(crate) union: Bitmap,
    /// Row path: the classes offered the batch, each with whether its
    /// predicates narrowed the input (its rows are then in `rows`).
    pub(crate) sels: Vec<(usize, bool)>,
    /// Row path: per class, the narrowed selection.
    pub(crate) rows: Vec<Vec<u32>>,
}

/// Conjunct identity: see [`IntakePred::kernel_key`].
type KernelKey = (u8, usize, HashableValue);

/// One distinct column-kernel predicate and its bitmap for the current
/// batch.
#[derive(Debug)]
struct Slot {
    pred: IntakePred,
    bits: Bitmap,
    /// The batch stamp `bits` was evaluated for.
    stamp: u64,
}

impl Slot {
    /// The predicate's bitmap over the batch stamped `stamp`, evaluated
    /// first if nothing has needed it yet this batch (which charges
    /// `rows_evaluated`).
    fn bits_for(&mut self, stamp: u64, batch: &EventBatch, rows_evaluated: &mut u64) -> &Bitmap {
        if self.stamp != stamp {
            self.pred.eval_column(batch, &mut self.bits);
            self.stamp = stamp;
            *rows_evaluated += batch.len() as u64;
        }
        &self.bits
    }
}

/// One distinct conjunction of slots and its value for the current batch.
#[derive(Debug)]
struct ClassMask {
    /// The conjunction, as ascending slot ids (its interning key).
    slots: Vec<u32>,
    /// The AND of `slots`' bitmaps. Unused for a single-slot mask, which
    /// *is* its slot's bitmap and is read from there.
    bits: Bitmap,
    /// Set rows of the mask (for every arity).
    count: usize,
    /// The batch stamp `bits`/`count` were evaluated for.
    stamp: u64,
}

/// A subscriber's handle into a [`SharedPredIndex`]: per pattern class, the
/// id of the class mask that is the AND of the class's column-kernel
/// conjuncts. Only meaningful with the index that issued it.
#[derive(Debug)]
pub(crate) struct Subscription {
    pub(crate) masks: Vec<u32>,
}

/// Predicate index shared by every query on one evaluation thread: each
/// *distinct* column-kernel predicate, and each distinct *conjunction* of
/// them that some pattern class carries, evaluates at most once per batch.
///
/// The index owns the compiled predicate of every slot (the first
/// subscriber's copy — predicates with equal keys decide identically on
/// every row, so whose copy runs is unobservable). Evaluation is lazy: a
/// mask nobody asks about in a batch costs nothing, and a mask that goes
/// empty part-way stops evaluating its remaining slots. Callers mark batch
/// boundaries with [`SharedPredIndex::begin_batch`].
///
/// One index serves one evaluation thread (in the sharded runtime: one per
/// shard, owned by the shard loop) — no locking, per the hot-path rule.
#[derive(Debug, Default)]
pub struct SharedPredIndex {
    /// Conjunct identity → slot. Touched only at subscription.
    slot_ids: HashMap<KernelKey, u32>,
    slots: Vec<Slot>,
    /// Conjunction (ascending slot ids) → class mask. Touched only at
    /// subscription.
    mask_ids: HashMap<Vec<u32>, u32>,
    masks: Vec<ClassMask>,
    /// Stamp of the batch being evaluated; slots and masks carrying an
    /// older stamp are stale.
    stamp: u64,
}

impl SharedPredIndex {
    /// An empty index.
    pub fn new() -> SharedPredIndex {
        SharedPredIndex::default()
    }

    /// Subscribes one query: interns every column-kernel conjunct to a slot
    /// and every class's conjunction to a class mask, from the predicates
    /// the query's engine already compiled. Conjunct order and repetition
    /// within a class do not matter — a mask is a *set* of slots — so
    /// queries that spell the same filter differently share one mask. A
    /// class with no kernel conjunct gets the empty conjunction, which
    /// admits every row.
    ///
    /// Dropped queries' slots and masks stay allocated (a few bitmaps —
    /// negligible; reclaiming would re-index every live subscription) and,
    /// being lazy, are never evaluated again.
    pub(crate) fn subscribe(&mut self, intake: &CompiledIntake) -> Subscription {
        let SharedPredIndex { slot_ids, slots, mask_ids, masks, stamp } = self;
        // New slots and masks are born stale: never the current batch's.
        let stale = stamp.wrapping_sub(1);
        let class_masks = intake.preds.iter().map(|preds| {
            let mut conj: Vec<u32> = preds
                .iter()
                .filter_map(|pred| {
                    let key = pred.kernel_key()?;
                    Some(*slot_ids.entry(key).or_insert_with(|| {
                        slots.push(Slot { pred: pred.clone(), bits: Bitmap::new(), stamp: stale });
                        slots.len() as u32 - 1
                    }))
                })
                .collect();
            conj.sort_unstable();
            conj.dedup();
            *mask_ids.entry(conj).or_insert_with_key(|conj| {
                masks.push(ClassMask {
                    slots: conj.clone(),
                    bits: Bitmap::new(),
                    count: 0,
                    stamp: stale,
                });
                masks.len() as u32 - 1
            })
        });
        Subscription { masks: class_masks.collect() }
    }

    /// Marks a batch boundary: every slot and mask becomes stale and the
    /// next subscriber to need one re-evaluates. Call once per incoming
    /// batch, before any subscriber engine runs.
    pub fn begin_batch(&mut self) {
        self.stamp += 1;
    }

    /// Number of distinct predicates subscribed.
    pub fn num_slots(&self) -> usize {
        self.slots.len()
    }

    /// Number of distinct class conjunctions subscribed.
    pub fn num_masks(&self) -> usize {
        self.masks.len()
    }

    /// The class mask `mask` over `batch`: its bitmap, its popcount, and
    /// how many predicate-rows this call evaluated to produce it (zero when
    /// another subscriber already needed it this batch — whoever asks first
    /// pays the rows-evaluated accounting).
    #[inline]
    pub(crate) fn class_mask(&mut self, mask: u32, batch: &EventBatch) -> (&Bitmap, usize, u64) {
        let SharedPredIndex { slots, masks, stamp, .. } = self;
        let (stamp, m) = (*stamp, &mut masks[mask as usize]);
        let mut rows_evaluated = 0u64;
        if m.stamp != stamp {
            m.stamp = stamp;
            let evaluated = &mut rows_evaluated;
            m.count = match m.slots.as_slice() {
                [] => {
                    m.bits.reset(batch.len(), true);
                    batch.len()
                }
                [only] => slots[*only as usize].bits_for(stamp, batch, evaluated).count(),
                [first, rest @ ..] => {
                    m.bits.copy_from(slots[*first as usize].bits_for(stamp, batch, evaluated));
                    for s in rest {
                        if !m.bits.any() {
                            break;
                        }
                        m.bits.and(slots[*s as usize].bits_for(stamp, batch, evaluated));
                    }
                    m.bits.count()
                }
            };
        }
        let bits = match m.slots.as_slice() {
            [only] => &slots[*only as usize].bits,
            _ => &m.bits,
        };
        (bits, m.count, rows_evaluated)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Engine, EngineBuilder};
    use proptest::prelude::*;
    use zstream_events::{stock, DictMode, Schema, ValueType};

    fn engine_of(src: &str) -> Engine {
        EngineBuilder::parse(src).unwrap().build().unwrap()
    }

    fn routed_intake(src: &str) -> Arc<CompiledIntake> {
        let parts = EngineBuilder::parse(src).unwrap().stock_routing().compile().unwrap();
        CompiledIntake::compile(&parts.intake)
    }

    /// Prices 1..=8, one row each.
    fn prices() -> EventBatch {
        let events: Vec<EventRef> =
            (1..=8u64).map(|i| stock(i, i as i64, "IBM", i as f64, 1)).collect();
        EventBatch::from_events(&events).unwrap()
    }

    #[test]
    fn overlapping_queries_share_slots() {
        let mut idx = SharedPredIndex::new();
        let a = idx.subscribe(&routed_intake("PATTERN IBM; Sun WITHIN 10"));
        let b = idx.subscribe(&routed_intake("PATTERN IBM; Oracle WITHIN 10"));
        // Both queries carry the name='IBM' conjunct: slot and (one-slot)
        // class mask are shared.
        assert_eq!(a.masks[0], b.masks[0]);
        assert_ne!(a.masks[1], b.masks[1]);
        assert_eq!(idx.num_slots(), 3);
        assert_eq!(idx.num_masks(), 3);
    }

    #[test]
    fn identical_queries_collapse_to_one_subscription() {
        let mut idx = SharedPredIndex::new();
        let a = idx.subscribe(&routed_intake("PATTERN IBM; Sun WITHIN 10"));
        let b = idx.subscribe(&routed_intake("PATTERN IBM; Sun WITHIN 10"));
        assert_eq!(a.masks, b.masks);
        assert_eq!((idx.num_slots(), idx.num_masks()), (2, 2));
    }

    #[test]
    fn conjunct_order_and_repetition_do_not_split_a_mask() {
        let mut idx = SharedPredIndex::new();
        let a = idx.subscribe(&routed_intake(
            "PATTERN IBM; Sun WHERE IBM.price > 3 AND IBM.volume < 9 WITHIN 10",
        ));
        let b = idx.subscribe(&routed_intake(
            "PATTERN IBM; Sun WHERE IBM.volume < 9 AND IBM.price > 3 AND 3 < IBM.price WITHIN 10",
        ));
        // Same three conjuncts on IBM (name, price, volume), differently
        // ordered and with one repeated (and mirrored): one mask.
        assert_eq!(a.masks, b.masks);
        assert_eq!((idx.num_slots(), idx.num_masks()), (4, 2));
    }

    #[test]
    fn a_mask_is_evaluated_once_per_batch_and_stops_once_empty() {
        let batch = prices();
        let n = batch.len() as u64;
        let mut idx = SharedPredIndex::new();
        // Conjuncts evaluate in slot (first-subscription) order: `price > 4`
        // keeps half the rows, `price > 8` none — `volume > 0` and the
        // routing equality `name = 'IBM'` are never evaluated.
        let band = idx.subscribe(&routed_intake(
            "PATTERN IBM; Sun WHERE IBM.price > 4 AND IBM.price > 8 AND IBM.volume > 0 WITHIN 10",
        ));
        idx.begin_batch();
        let (bits, count, evaluated) = idx.class_mask(band.masks[0], &batch);
        assert_eq!((bits.count(), count, evaluated), (0, 0, 2 * n));
        // Asking again in the same batch is free; a new batch is not.
        assert_eq!(idx.class_mask(band.masks[0], &batch).2, 0);
        idx.begin_batch();
        assert_eq!(idx.class_mask(band.masks[0], &batch).2, 2 * n);

        // A one-slot mask is its slot's bitmap, and a slot is charged to
        // the first mask that needs it in a batch, not to later ones.
        let gt4 = idx.subscribe(&routed_intake("PATTERN IBM; Sun WHERE IBM.price > 4 WITHIN 10"));
        let (bits, count, evaluated) = idx.class_mask(gt4.masks[0], &batch);
        assert_eq!((bits.count(), count), (4, 4));
        assert_eq!(evaluated, n, "name = 'IBM' is new this batch, price > 4 is not");
    }

    #[test]
    fn a_class_without_kernel_conjuncts_admits_every_row_and_is_never_skipped() {
        let batch = prices();
        let mut idx = SharedPredIndex::new();
        // B has no intake predicate at all; A's only conjunct is row-wise.
        let mut engine = engine_of("PATTERN A; B WHERE A.price * 2.0 > 100.0 WITHIN 10");
        engine.subscribe(&mut idx);
        assert_eq!(
            (idx.num_slots(), idx.num_masks()),
            (0, 1),
            "both classes: the empty conjunction"
        );
        idx.begin_batch();
        let (bits, count, evaluated) = idx.class_mask(0, &batch);
        assert_eq!((bits.count(), count, evaluated), (8, 8, 0));
        assert!(!engine.skip_unadmitted(&batch, &mut idx));
        assert_eq!(engine.metrics().events_in, 0, "a refused skip changes nothing");

        // With a kernel conjunct on every class that no row passes, the
        // same batch is settled without entering the engine — and exactly
        // as a push would have settled it.
        let src = "PATTERN A; B WHERE A.price > 100 AND B.price > 100 WITHIN 10";
        let (mut skipped, mut pushed) = (engine_of(src), engine_of(src));
        skipped.subscribe(&mut idx);
        idx.begin_batch();
        assert!(skipped.skip_unadmitted(&batch, &mut idx));
        assert!(pushed.push_columns(&batch).is_empty());
        assert_eq!(skipped.metrics(), pushed.metrics());
        assert_eq!(skipped.metrics().idle_rounds, 1);
        assert_eq!(skipped.class_counters(), pushed.class_counters());
        assert_eq!(skipped.watermark(), pushed.watermark());
    }

    /// Float cells and literals: both NaN signs, both zeros, both
    /// infinities, fractions, and the `2^53` / `2^63` neighbourhoods where an
    /// int stops being exactly one `f64`.
    const FLOATS: &[f64] = &[
        f64::NAN,
        -f64::NAN,
        0.0,
        -0.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        1.0,
        -1.0,
        3.5,
        9_007_199_254_740_991.0,      // 2^53 - 1
        9_007_199_254_740_992.0,      // 2^53
        9_007_199_254_740_994.0,      // 2^53 + 2: the next float
        -9_007_199_254_740_992.0,     // -2^53
        9_223_372_036_854_775_808.0,  // 2^63 > i64::MAX
        -9_223_372_036_854_775_808.0, // -2^63 = i64::MIN
    ];

    const TWO_53: i64 = 1 << 53;

    const INTS: &[i64] = &[
        i64::MIN,
        i64::MIN + 1,
        -TWO_53 - 1,
        -TWO_53,
        -1,
        0,
        1,
        3,
        TWO_53 - 1,
        TWO_53,
        TWO_53 + 1,
        i64::MAX - 1,
        i64::MAX,
    ];

    const STRS: &[&str] = &["IBM", "Sun", "Zed"];

    /// A stock batch whose `name` (string), `price` (float) and `volume`
    /// (int) cells come from the edge domains; `dict` encodes `name`.
    fn edge_batch(rows: &[(usize, usize, usize)], dict: bool) -> EventBatch {
        let mut b = EventBatch::builder(Schema::stocks(), rows.len());
        for (i, (s, f, n)) in rows.iter().enumerate() {
            let row = [
                Value::Int(i as i64),
                Value::str(STRS[*s]),
                Value::Float(FLOATS[*f]),
                Value::Int(INTS[*n]),
            ];
            b.push_row(i as u64, &row).unwrap();
        }
        b.finish_with(if dict { DictMode::Force } else { DictMode::Plain })
    }

    /// Every intake predicate shape over the string, float and int columns:
    /// each comparison against every edge literal with the literal on
    /// either side (`StrEq` / `CmpLit`), and two row-wise (`General`)
    /// expressions per literal.
    fn intake_exprs() -> Vec<TypedExpr> {
        let lits = FLOATS
            .iter()
            .map(|f| Value::Float(*f))
            .chain(INTS.iter().map(|n| Value::Int(*n)))
            .chain(STRS.iter().copied().map(Value::str));
        let lits: Vec<Value> = lits.collect();
        let bin = |op, l, r| TypedExpr::Binary(op, Box::new(l), Box::new(r));
        let mut out = Vec::new();
        for (field, ty) in [(1, ValueType::Str), (2, ValueType::Float), (3, ValueType::Int)] {
            let attr = || TypedExpr::Attr { class: 0, field, ty };
            for &lit in &lits {
                for op in [BinOp::Eq, BinOp::Ne, BinOp::Lt, BinOp::Le, BinOp::Gt, BinOp::Ge] {
                    out.push(bin(op, attr(), TypedExpr::Lit(lit)));
                    out.push(bin(op, TypedExpr::Lit(lit), attr()));
                }
                let doubled = bin(BinOp::Mul, attr(), TypedExpr::Lit(Value::Float(2.0)));
                out.push(bin(BinOp::Gt, doubled, TypedExpr::Lit(lit)));
                let at_least = bin(BinOp::Ge, attr(), TypedExpr::Lit(lit));
                let at_most = bin(BinOp::Le, TypedExpr::Lit(lit), attr());
                out.push(bin(BinOp::And, at_least, at_most));
            }
        }
        out
    }

    #[test]
    fn the_expressions_compile_to_every_variant() {
        let preds: Vec<IntakePred> = intake_exprs().iter().map(IntakePred::compile).collect();
        assert!(preds.iter().any(|p| matches!(p, IntakePred::StrEq { .. })));
        assert!(preds.iter().any(|p| matches!(p, IntakePred::CmpLit { .. })));
        assert!(preds.iter().any(|p| matches!(p, IntakePred::General(_))));
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 24 })]

        /// A compiled intake predicate decides every row exactly as its
        /// expression does when evaluated against the row's event — what
        /// the oracle does — both row-wise (`passes`) and, for the kernel
        /// variants, column-wise (`eval_column`). Row counts cross a 64-row
        /// bitmap word.
        #[test]
        fn compiled_intake_decides_like_the_expression(
            rows in prop::collection::vec(
                (0usize..STRS.len(), 0usize..FLOATS.len(), 0usize..INTS.len()),
                0..100,
            ),
            dict: bool,
        ) {
            let batch = edge_batch(&rows, dict);
            let events: Vec<EventRef> = batch.iter().collect();
            let mut bits = Bitmap::new();
            for expr in &intake_exprs() {
                let pred = IntakePred::compile(expr);
                if pred.is_kernel() {
                    pred.eval_column(&batch, &mut bits);
                }
                for (row, event) in events.iter().enumerate() {
                    let expected = matches!(
                        expr.eval(&OneClassBinding { class: 0, event }),
                        Ok(Value::Bool(true))
                    );
                    prop_assert_eq!(
                        pred.passes(&batch, row, 0),
                        expected,
                        "passes: {:?} on row {} ({:?})", expr, row, event
                    );
                    if pred.is_kernel() {
                        prop_assert_eq!(
                            bits.get(row),
                            expected,
                            "eval_column: {:?} on row {} ({:?})", expr, row, event
                        );
                    }
                }
            }
        }
    }
}
