//! The batch-iterator evaluation engine (§4.3).
//!
//! The engine accumulates primitive events into leaf buffers during **idle
//! rounds** and runs **assembly rounds** only when the pattern's trigger
//! (final) event class has at least one unconsumed instance:
//!
//! 1. a batch of primitive events is routed into leaf buffers (single-class
//!    predicates applied at intake — the §4.1 push-down),
//! 2. if no trigger-class instance is waiting, keep accumulating,
//! 3. otherwise compute the **earliest allowed timestamp** (EAT): the
//!    earliest unconsumed end-timestamp among trigger buffers minus the
//!    window, and push it down to every buffer,
//! 4. assemble events bottom-up, materializing intermediate results in node
//!    buffers and emitting complete composites at the root — packed into a
//!    [`MatchBatch`] of `(source, row)` ids, which [`Engine::push_rows`]
//!    returns as is and [`Engine::push_columns`] builds into `Record`s,
//! 5. after every round, idle or assembly, prune to the **EAT floor**
//!    (`watermark − window`): no later round can read an entry that starts
//!    before it, so a round leaves only live state behind.

use std::sync::Arc;

use zstream_events::{
    EventBatch, MatchBatch, Record, Snapshot, SnapshotError, SnapshotReader, SnapshotResult,
    SnapshotWriter, Sym, Ts,
};
use zstream_lang::{AnalyzedQuery, TypedExpr};

use crate::intake::{CompiledIntake, IntakeScratch, SharedPredIndex, Subscription};
use crate::metrics::EngineMetrics;
use crate::obs::EngineObs;
use crate::physical::plan::PhysicalPlan;

pub use crate::intake::IntakeMode;

/// A running query: a physical plan plus routing and round bookkeeping.
#[derive(Debug)]
pub struct Engine {
    // zlint::allow(snapshot, "restore_snapshot receives the analyzed query from the caller; the checkpoint carries only round state")
    aq: Arc<AnalyzedQuery>,
    plan: PhysicalPlan,
    /// Per-class intake predicates — analyzed single-class predicates plus
    /// any route-by-field equality added by the builder — compiled for
    /// column-wise evaluation.
    // zlint::allow(snapshot, "restore_snapshot receives the intake predicates from the caller; not checkpoint state")
    intake: Arc<CompiledIntake>,
    /// Reusable bitmap scratch (see [`IntakeScratch`] for the invariant).
    // zlint::allow(snapshot, "scratch space: rebuilt empty, repopulated per batch")
    scratch: IntakeScratch,
    /// Class-mask ids in the caller's [`SharedPredIndex`], set by
    /// [`Engine::subscribe`]; read when the caller passes that index to
    /// [`Engine::push_rows`].
    // zlint::allow(snapshot, "wiring re-stamped by the caller after restore, not checkpoint state")
    subscription: Option<Arc<Subscription>>,
    /// The engine's own single-subscriber index, for kernel intake when the
    /// caller passes none. Built on first use: engines that always run
    /// behind a shared index, or only ever see sparse selections, never
    /// pay for one.
    // zlint::allow(snapshot, "derived: rebuilt from `intake` on first unshared kernel batch")
    local: Option<Box<(SharedPredIndex, Subscription)>>,
    // zlint::allow(snapshot, "configuration re-stamped by the caller after restore, not checkpoint state")
    intake_mode: IntakeMode,
    /// Per-class interned schema name (intake schema matching is an integer
    /// compare).
    // zlint::allow(snapshot, "derived: re-interned from the analyzed query's class schemas")
    class_schema: Vec<Sym>,
    watermark: Ts,
    metrics: EngineMetrics,
    /// Per-class counters for the adaptive statistics sampler (§5.3).
    offered: Vec<u64>,
    admitted: Vec<u64>,
    /// Observability instruments; `None` (the default) records nothing.
    // zlint::allow(snapshot, "instruments are process-local handles, re-attached via set_obs after restore")
    obs: Option<EngineObs>,
}

impl Engine {
    /// Creates an engine over an analyzed query, plan and per-class intake
    /// predicates.
    pub fn new(aq: Arc<AnalyzedQuery>, plan: PhysicalPlan, intake: &[Vec<TypedExpr>]) -> Engine {
        Engine::with_intake(aq, plan, CompiledIntake::compile(intake))
    }

    /// [`Engine::new`] over already-compiled intake predicates (a
    /// partitioned engine compiles once for all of its per-key engines).
    pub(crate) fn with_intake(
        aq: Arc<AnalyzedQuery>,
        plan: PhysicalPlan,
        intake: Arc<CompiledIntake>,
    ) -> Engine {
        let n = aq.num_classes();
        let class_schema = aq.classes.iter().map(|c| c.schema.name_sym()).collect();
        Engine {
            aq,
            plan,
            intake,
            scratch: IntakeScratch::default(),
            subscription: None,
            local: None,
            intake_mode: IntakeMode::default(),
            class_schema,
            watermark: 0,
            metrics: EngineMetrics::default(),
            offered: vec![0; n],
            admitted: vec![0; n],
            obs: None,
        }
    }

    /// The analyzed query.
    pub fn analyzed(&self) -> &Arc<AnalyzedQuery> {
        &self.aq
    }

    /// The current physical plan.
    pub fn plan(&self) -> &PhysicalPlan {
        &self.plan
    }

    /// The compiled intake predicates (shared by `Arc` where compiled once).
    #[cfg(test)]
    pub(crate) fn intake(&self) -> &Arc<CompiledIntake> {
        &self.intake
    }

    /// Metrics snapshot. Process-global values (symbol-table stats, the
    /// reorder peak) are **not** stamped here — they belong to the scrape
    /// layer (`zstream_obs` gauges / the runtime's report), not to
    /// per-engine counters, so merging engines never double-counts them.
    pub fn metrics(&self) -> EngineMetrics {
        self.metrics
    }

    /// Attaches observability instruments. Per-query counters, the
    /// assembly-round histogram and batch-level trace events flow into
    /// the handles from this point on.
    pub fn set_obs(&mut self, obs: EngineObs) {
        self.obs = Some(obs);
    }

    /// The attached instruments, if any.
    pub fn obs(&self) -> Option<&EngineObs> {
        self.obs.as_ref()
    }

    /// Mutable access to metrics (the adaptive controller records replans).
    pub fn metrics_mut(&mut self) -> &mut EngineMetrics {
        &mut self.metrics
    }

    /// Overrides the intake-path choice (default [`IntakeMode::Auto`]).
    /// `Kernel` / `Rows` pin columnar intake to one path — used by the
    /// differential tests (row path as oracle) and ablation benchmarks.
    pub fn set_intake_mode(&mut self, mode: IntakeMode) {
        self.intake_mode = mode;
    }

    /// The configured intake-path choice.
    pub fn intake_mode(&self) -> IntakeMode {
        self.intake_mode
    }

    /// Subscribes this engine to a [`SharedPredIndex`]: its column-kernel
    /// conjuncts and class conjunctions are interned there (from the
    /// predicates this engine already compiled), and from then on
    /// [`Engine::push_rows`], given that same index, evaluates each
    /// distinct predicate and conjunction at most once per batch *across
    /// every subscribed engine* instead of once per engine.
    pub fn subscribe(&mut self, index: &mut SharedPredIndex) {
        self.subscription = Some(Arc::new(index.subscribe(&self.intake)));
    }

    /// Stamps a subscription another engine over the same compiled intake
    /// obtained (per-key engines share their partitioned engine's).
    pub(crate) fn set_subscription(&mut self, subscription: Arc<Subscription>) {
        debug_assert_eq!(subscription.masks.len(), self.aq.num_classes());
        self.subscription = Some(subscription);
    }

    /// Latest event timestamp seen.
    pub fn watermark(&self) -> Ts {
        self.watermark
    }

    /// Per-class (offered, admitted) intake counters since engine start.
    pub fn class_counters(&self) -> (&[u64], &[u64]) {
        (&self.offered, &self.admitted)
    }

    /// Routes a whole columnar batch and runs one round (§4.3: one batch
    /// of primitive events per round). Single-class predicates (§4.1
    /// push-down) evaluate column-wise over the batch, and only the
    /// surviving rows enter leaf buffers. Predicates evaluate through
    /// the engine's own index. A caller holding event handles packs them
    /// first ([`EventBatch::from_events`], `zstream_events::repack_events`).
    /// Returns the round's matches built as `Record`s (see
    /// [`Engine::push_rows`] for the packed form).
    pub fn push_columns(&mut self, batch: &EventBatch) -> Vec<Record> {
        self.admit_columns(batch);
        self.round_records()
    }

    /// The intake half of [`Engine::push_columns`]: routes `batch` into
    /// the leaf buffers without running its round. [`Engine::round_records`]
    /// must follow before the next batch (the adaptive controller samples
    /// the leaves in between).
    pub(crate) fn admit_columns(&mut self, batch: &EventBatch) {
        self.route_columns(batch, None, None);
    }

    /// The round half of [`Engine::push_columns`], after
    /// [`Engine::admit_columns`].
    pub(crate) fn round_records(&mut self) -> Vec<Record> {
        let mut out = MatchBatch::new();
        self.round(&mut out);
        out.records()
    }

    /// The shard form of [`Engine::push_columns`]: routes the given
    /// (ascending) `rows` of the batch — every row for `None` — and runs one
    /// round. The batch is shared storage, never copied, and the handles
    /// materialized for surviving rows point into it (identities
    /// preserved); semantics are identical to `push_columns` over a batch of
    /// exactly the selected rows.
    ///
    /// `index` is the [`SharedPredIndex`] this engine subscribed to
    /// ([`Engine::subscribe`]): class masks already valid for this batch are
    /// reused instead of re-evaluated, and ones this engine evaluates become
    /// valid for later subscribers. An engine that never subscribed
    /// evaluates through its own index, and sparse selections fall back to
    /// row-at-a-time narrowing without touching either.
    ///
    /// The matches come back packed, in end-timestamp order: built with
    /// [`MatchBatch::records`] they are byte-identical to `push_columns`'s.
    /// The packed form holds the round's source batches once, not a handle
    /// per matched event, so nothing is allocated or refcounted per match
    /// until a consumer builds it.
    pub fn push_rows(
        &mut self,
        batch: &EventBatch,
        rows: Option<&[u32]>,
        index: &mut SharedPredIndex,
    ) -> MatchBatch {
        let mut out = MatchBatch::new();
        self.push_intake(batch, rows, Some(index), &mut out);
        out
    }

    /// [`Engine::push_rows`] and the per-key engines of a partitioned one:
    /// route the selection, run one round, append its matches to `out`.
    pub(crate) fn push_intake(
        &mut self,
        batch: &EventBatch,
        rows: Option<&[u32]>,
        index: Option<&mut SharedPredIndex>,
        out: &mut MatchBatch,
    ) {
        self.route_columns(batch, rows, index);
        self.round(out);
    }

    /// The O(1) stand-in for [`Engine::push_rows`] over every row of a batch
    /// this engine cannot admit a row of. Asks `index` (which this engine must
    /// have subscribed to) for the class mask of every class whose schema
    /// the batch carries; if all are empty, settles the batch exactly as the
    /// full path would for zero admissions (`events_in`, per-class
    /// `offered`, watermark, and one idle round — every round leaves the
    /// trigger buffers consumed, so with nothing admitted there is nothing
    /// to assemble) and returns `true`. Otherwise changes nothing and
    /// returns `false`: the caller pushes the batch as usual, and the masks
    /// evaluated here are already valid for it.
    ///
    /// A class with no column-kernel conjunct has the all-rows mask, so a
    /// query carrying one is never skipped on a batch of its schema.
    pub fn skip_unadmitted(&mut self, batch: &EventBatch, index: &mut SharedPredIndex) -> bool {
        let Some(subscription) = &self.subscription else { return false };
        if batch.is_empty() {
            return false;
        }
        let schema = batch.schema().name_sym();
        let mut rows_evaluated = 0u64;
        let admits = self.class_schema.iter().zip(&subscription.masks).any(|(class, mask)| {
            *class == schema && {
                let (_, count, evaluated) = index.class_mask(*mask, batch);
                rows_evaluated += evaluated;
                count != 0
            }
        });
        if rows_evaluated != 0 {
            if let Some(obs) = &self.obs {
                obs.kernel_rows_evaluated.add(rows_evaluated);
            }
        }
        if admits {
            return false;
        }
        let n = batch.len();
        self.accept_rows(batch, 0, n - 1, n);
        for (class, offered) in self.class_schema.iter().zip(&mut self.offered) {
            if *class == schema {
                *offered += n as u64;
            }
        }
        self.idle_round();
        true
    }

    /// Ends the stream with one idle round: every push already ran its own
    /// round and every round consumes its trigger instances, so there is
    /// nothing to assemble — this books the `idle_rounds` tick and returns
    /// no match. Callers end every stream with it so every engine kind ends
    /// the same way.
    pub fn flush(&mut self) -> Vec<Record> {
        debug_assert!(
            self.earliest_trigger_end().is_none(),
            "every push runs its own round, so a flush has nothing to assemble"
        );
        self.idle_round();
        Vec::new()
    }

    /// Column-wise intake of one batch (§4.1 push-down over columns): each
    /// admitted row enters its class's leaf buffer as one event handle.
    /// `input` restricts intake to those (ascending) rows of the batch;
    /// `None` means every row.
    ///
    /// Dense inputs take the **kernel path**: each distinct compiled
    /// predicate evaluates once over its whole column into a bitmap, class
    /// bitmaps AND together, and only then do survivors materialize. Sparse
    /// selections fall back to row-at-a-time narrowing — partitioned intake
    /// routes one small per-key selection at a time through this function,
    /// and scanning full columns per key would cost O(batch × keys).
    fn route_columns(
        &mut self,
        batch: &EventBatch,
        input: Option<&[u32]>,
        shared: Option<&mut SharedPredIndex>,
    ) {
        let n = batch.len();
        let n_input = input.map_or(n, <[u32]>::len);
        if n_input == 0 {
            return;
        }
        let (first, last) = match input {
            None => (0usize, n - 1),
            Some(rows) => (rows[0] as usize, rows[rows.len() - 1] as usize),
        };
        debug_assert!(
            input.is_none_or(|rows| rows.windows(2).all(|w| w[0] < w[1])),
            "selection must ascend"
        );
        self.accept_rows(batch, first, last, n_input);
        let dense = match self.intake_mode {
            // Kernels pay O(batch) per evaluated column; worth it when the
            // selection covers at least a quarter of the batch.
            IntakeMode::Auto => input.is_none_or(|rows| rows.len() * 4 >= n),
            IntakeMode::Kernel => true,
            IntakeMode::Rows => false,
        };
        if dense {
            self.route_columns_kernel(batch, input, shared);
        } else {
            self.route_columns_rows(batch, input);
        }
    }

    /// The per-batch checks and counters every columnar intake path shares:
    /// `n_input` rows of `batch`, the first and last at rows `first` and
    /// `last`, are about to be offered.
    fn accept_rows(&mut self, batch: &EventBatch, first: usize, last: usize, n_input: usize) {
        let ts_col = batch.ts_column();
        // Hard check, not a debug assert: arrival-order (unsorted) batches
        // are an ordinary product of the events API now and must never feed
        // an engine directly — they silently corrupt window semantics. The
        // flag is O(1); a reorder stage upstream is the supported path.
        assert!(
            batch.is_sorted() && ts_col[first] >= self.watermark,
            "engine input must be time-ordered: place a reorder stage \
             (events::ColumnarReorder / RuntimeBuilder::slack) in front of \
             disordered streams"
        );
        self.metrics.events_in += n_input as u64;
        self.watermark = self.watermark.max(ts_col[last]);
    }

    /// Kernel intake: one class mask per class from the predicate index
    /// (the caller's when this engine subscribed to it, else the engine's
    /// own), narrowed by the input selection and the class's row-wise
    /// conjuncts where there are any; union popcount for `events_admitted`,
    /// set-bit materialization. Produces exactly the row path's admissions
    /// in the same class-then-row order.
    fn route_columns_kernel(
        &mut self,
        batch: &EventBatch,
        input: Option<&[u32]>,
        shared: Option<&mut SharedPredIndex>,
    ) {
        let n = batch.len();
        let n_input = input.map_or(n, <[u32]>::len);
        let batch_schema = batch.schema().name_sym();
        let (mut rows_evaluated, mut fallback_rows) = (0u64, 0u64);
        // Disjoint field borrows: index, mask ids, predicates and scratch
        // stay borrowed across the loop while `plan`/counters are touched
        // independently.
        let intake = &*self.intake;
        let (index, masks) = match (shared, &self.subscription) {
            (Some(index), Some(subscription)) => (index, &subscription.masks),
            _ => {
                let local = self.local.get_or_insert_with(|| {
                    let mut index = SharedPredIndex::new();
                    let subscription = index.subscribe(intake);
                    Box::new((index, subscription))
                });
                local.0.begin_batch();
                (&mut local.0, &local.1.masks)
            }
        };
        let scratch = &mut self.scratch;
        // Classes that admitted rows so far, and the rows of the first.
        let (mut admitting, mut admitted_delta) = (0usize, 0u64);
        for (c, &mask) in masks.iter().enumerate() {
            if self.class_schema[c] != batch_schema {
                continue;
            }
            self.offered[c] += n_input as u64;
            let (mask, mask_count, evaluated) = index.class_mask(mask, batch);
            rows_evaluated += evaluated;
            if mask_count == 0 {
                continue;
            }
            // The class admits its mask as is, unless the input is a
            // selection or a conjunct has no kernel: then `acc` narrows it.
            let preds = &intake.preds[c];
            let (bits, count) = if input.is_some() || !preds.iter().all(|p| p.is_kernel()) {
                match input {
                    None => scratch.acc.copy_from(mask),
                    Some(rows) => {
                        scratch.acc.reset(n, false);
                        scratch.acc.set_rows(rows);
                        scratch.acc.and(mask);
                    }
                }
                // General predicates stay row-wise, over surviving rows only.
                for pred in preds.iter().filter(|p| !p.is_kernel()) {
                    let surviving = scratch.acc.count() as u64;
                    if surviving == 0 {
                        break;
                    }
                    fallback_rows += surviving;
                    scratch.acc.retain(|row| pred.passes(batch, row, c));
                }
                (&scratch.acc, scratch.acc.count())
            } else {
                (mask, mask_count)
            };
            if count == 0 {
                continue;
            }
            self.admitted[c] += count as u64;
            // `events_admitted` counts rows admitted into at least one
            // class: one class's count, or the popcount of the union.
            if admitting == 0 {
                scratch.union.copy_from(bits);
                admitted_delta = count as u64;
            } else {
                scratch.union.or(bits);
                admitted_delta = scratch.union.count() as u64;
            }
            admitting += 1;
            let leaf = &mut self.plan.nodes[self.plan.leaf_of_class[c]].buf;
            let ts = batch.ts_column();
            for row in bits.ones() {
                leaf.push_event(ts[row], batch.event(row));
            }
        }
        self.metrics.events_admitted += admitted_delta;
        if let Some(obs) = &self.obs {
            obs.admitted.add(admitted_delta);
            obs.kernel_rows_evaluated.add(rows_evaluated);
            obs.kernel_fallback_rows.add(fallback_rows);
        }
    }

    /// Row-at-a-time intake for sparse selections: narrows the input
    /// selection per class into reused row lists (no O(batch) scratch),
    /// then unions admissions via bitmap OR + popcount.
    fn route_columns_rows(&mut self, batch: &EventBatch, input: Option<&[u32]>) {
        let n = batch.len();
        let n_input = input.map_or(n, <[u32]>::len);
        let batch_schema = batch.schema().name_sym();
        let scratch = &mut self.scratch;
        scratch.rows.resize_with(self.class_schema.len(), Vec::new);
        scratch.sels.clear();
        // Phase 1: per matched class, narrow the input to its final
        // selection (not narrowed = the whole input survived every
        // predicate).
        for (c, class) in self.class_schema.iter().enumerate() {
            if *class != batch_schema {
                continue;
            }
            self.offered[c] += n_input as u64;
            let rows = &mut scratch.rows[c];
            let mut narrowed = false;
            for pred in &self.intake.preds[c] {
                let passes = |r: &u32| pred.passes(batch, *r as usize, c);
                if narrowed {
                    rows.retain(passes);
                } else {
                    rows.clear();
                    match input {
                        None => rows.extend((0..n as u32).filter(passes)),
                        Some(input) => rows.extend(input.iter().copied().filter(passes)),
                    }
                    narrowed = true;
                }
                if rows.is_empty() {
                    break;
                }
            }
            scratch.sels.push((c, narrowed));
        }
        // `events_admitted` counts input rows admitted into at least one
        // class: the whole input if any class kept everything, otherwise
        // the popcount of the OR of the per-class selections.
        let admitted_delta = if scratch.sels.iter().any(|(_, narrowed)| !narrowed) {
            n_input as u64
        } else {
            match scratch.sels.as_slice() {
                [] => 0,
                [(c, _)] => scratch.rows[*c].len() as u64,
                many => {
                    scratch.union.reset(n, false);
                    for (c, _) in many {
                        scratch.union.set_rows(&scratch.rows[*c]);
                    }
                    scratch.union.count() as u64
                }
            }
        };
        self.metrics.events_admitted += admitted_delta;
        if let Some(obs) = &self.obs {
            obs.admitted.add(admitted_delta);
            obs.kernel_fallback_rows.add(n_input as u64);
        }
        // Phase 2: admit the surviving rows into leaf buffers, in the same
        // class-then-row order as the kernel path fills buffers.
        let ts = batch.ts_column();
        for &(c, narrowed) in &scratch.sels {
            let leaf = &mut self.plan.nodes[self.plan.leaf_of_class[c]].buf;
            let rows = if narrowed { Some(scratch.rows[c].as_slice()) } else { input };
            match rows {
                None => (0..n).for_each(|row| leaf.push_event(ts[row], batch.event(row))),
                Some(rows) => {
                    for &row in rows {
                        leaf.push_event(ts[row as usize], batch.event(row as usize));
                    }
                }
            }
            self.admitted[c] += rows.map_or(n, <[u32]>::len) as u64;
        }
    }

    /// One round: idle if no trigger instance is waiting, otherwise compute
    /// the EAT and assemble, appending the matches to `out`. Either way the
    /// round ends pruned to the EAT floor ([`Engine::prune_to_floor`]), so
    /// the memory sample, a snapshot or a plan switch after it sees only
    /// state a later round can read.
    fn round(&mut self, out: &mut MatchBatch) {
        let Some(earliest) = self.earliest_trigger_end() else {
            self.idle_round();
            return;
        };
        let eat = earliest.saturating_sub(self.plan.window);
        self.metrics.assembly_rounds += 1;
        let start = self.obs.as_ref().map(|_| std::time::Instant::now());
        let before = out.len();
        self.plan.assemble(eat, out);
        self.prune_to_floor();
        let matched = (out.len() - before) as u64;
        self.metrics.matches_out += matched;
        self.metrics.sample_memory(self.plan.total_bytes());
        // What lets a batch with no admissions be settled as an idle round
        // without looking (`skip_unadmitted`): nothing is left to trigger on.
        debug_assert!(
            self.earliest_trigger_end().is_none(),
            "an assembly round consumes every trigger instance"
        );
        if let (Some(obs), Some(start)) = (&self.obs, start) {
            let ns = start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
            obs.record_round(self.watermark, ns, matched);
        }
    }

    /// A round with nothing to assemble. The watermark may still have
    /// moved, so it prunes like any other round: a stream with no trigger
    /// instance holds one window of state, not all of it.
    fn idle_round(&mut self) {
        self.metrics.idle_rounds += 1;
        self.prune_to_floor();
    }

    /// Prunes every buffer to the **EAT floor**, `watermark − window`: input
    /// is time-ordered, so every later trigger instance ends at or after the
    /// watermark, and every match it completes starts at or after the floor.
    /// The next round's own EAT (§4.3) is therefore never below the floor,
    /// and this removes only what that round's prune would remove — earlier,
    /// so output cannot change.
    fn prune_to_floor(&mut self) {
        if self.plan.config.eat_pruning {
            self.plan.prune_all(self.watermark.saturating_sub(self.plan.window));
        }
    }

    /// Earliest unconsumed end timestamp across trigger-class leaf buffers
    /// (the EAT base of §4.3).
    fn earliest_trigger_end(&self) -> Option<Ts> {
        self.plan
            .trigger_classes
            .iter()
            .filter_map(|c| {
                self.plan.nodes[self.plan.leaf_of_class[*c]].buf.earliest_unconsumed_end()
            })
            .min()
    }

    /// Canonical signature of an output record for result comparison: per
    /// pattern class, the identities (Arc pointers) of the bound events.
    /// Unbound classes yield empty lists; negated classes are always empty
    /// (NSEQ carries the negating event in its slot for guard evaluation,
    /// but it is bookkeeping, not part of the match — RETURN excludes it).
    pub fn record_signature(&self, rec: &Record) -> Vec<Vec<usize>> {
        let root = &self.plan.nodes[self.plan.root];
        let mut out = vec![Vec::new(); self.aq.num_classes()];
        for (slot_idx, class) in root.classes.iter().enumerate() {
            if self.aq.classes[*class].negated {
                continue;
            }
            out[*class] =
                rec.slot(slot_idx).events().iter().map(|e| e.identity() as usize).collect();
        }
        out
    }

    /// Formats an output record according to the query's RETURN clause.
    pub fn format_match(&self, rec: &Record) -> String {
        use std::fmt::Write;
        use zstream_lang::TypedReturn;
        let root = &self.plan.nodes[self.plan.root];
        let binding = crate::physical::binding::RecordBinding { rec: rec.view(), map: &root.map };
        let mut s = format!("[{}..{}]", rec.start_ts(), rec.end_ts());
        for r in &self.aq.returns {
            match r {
                TypedReturn::Class(c) => {
                    let ev = root
                        .map
                        .slot_of(*c)
                        .map(|p| rec.slot(p))
                        .map(|slot| match slot.events() {
                            [] => "—".to_string(),
                            [e] => e.to_string(),
                            group => format!("{} events", group.len()),
                        })
                        .unwrap_or_else(|| "—".to_string());
                    let _ = write!(s, " {}={}", self.aq.classes[*c].name, ev);
                }
                TypedReturn::Agg(func, c, field) => {
                    let expr = TypedExpr::Agg { func: *func, class: *c, field: *field };
                    let v = expr
                        .eval(&binding)
                        .map(|v| v.to_string())
                        .unwrap_or_else(|_| "?".to_string());
                    let _ = write!(s, " {func}({})={v}", self.aq.classes[*c].name);
                }
            }
        }
        s
    }

    /// Replaces the physical plan, transplanting leaf buffers. Trigger-class
    /// cursors are preserved (already-consumed final events must not emit
    /// again); every other leaf is rewound so the new plan rebuilds its
    /// intermediate state from retained history — the §5.3 switch protocol.
    pub fn install_plan(&mut self, mut new_plan: PhysicalPlan) {
        let mut leaves = self.plan.take_leaf_buffers();
        for (class, buf) in &mut leaves {
            if !self.plan.trigger_classes.contains(class) {
                buf.rewind();
            }
        }
        new_plan.reset_for_switch(leaves);
        self.plan = new_plan;
        self.metrics.plan_switches += 1;
    }

    /// Rebuilds an engine from a [`Snapshot`] stream — the restore twin of
    /// [`Engine::with_intake`], so a restored partitioned engine compiles
    /// its intake once for all of its keys (the public entry is
    /// [`crate::CompiledParts::restore_engine`]). `aq`, `plan` and `intake`
    /// must come from compiling the same query with the same plan
    /// configuration the snapshotted engine ran (checkpoints carry state,
    /// not code — the caller re-derives the plan and this injects the
    /// buffers, cursors, watermark and counters into it). Hash indexes are
    /// *not* snapshotted: they are derived state and re-sync incrementally
    /// from the restored buffers on the next probe.
    pub(crate) fn restore_snapshot(
        aq: Arc<AnalyzedQuery>,
        plan: PhysicalPlan,
        intake: Arc<CompiledIntake>,
        r: &mut SnapshotReader<'_>,
    ) -> SnapshotResult<Engine> {
        let mut engine = Engine::with_intake(aq, plan, intake);
        engine.watermark = r.u64()?;
        engine.metrics = EngineMetrics::restore_snapshot(r)?;
        let n_classes = engine.aq.num_classes();
        let read_counters = |r: &mut SnapshotReader<'_>| -> SnapshotResult<Vec<u64>> {
            let n = r.len()?;
            if n != n_classes {
                return Err(SnapshotError::Corrupt(format!(
                    "class counter arity {n} does not match query ({n_classes} classes)"
                )));
            }
            (0..n).map(|_| r.u64()).collect()
        };
        engine.offered = read_counters(r)?;
        engine.admitted = read_counters(r)?;
        if r.len()? != 0 {
            return Err(SnapshotError::Corrupt(
                "events pending a batch: engines take whole batches only".into(),
            ));
        }
        let n_nodes = r.len()?;
        if n_nodes != engine.plan.nodes.len() {
            return Err(SnapshotError::Corrupt(format!(
                "snapshot has {n_nodes} plan nodes, compiled plan has {}",
                engine.plan.nodes.len()
            )));
        }
        for node in &mut engine.plan.nodes {
            let n_recs = r.len()?;
            for _ in 0..n_recs {
                node.buf.restore(r.record()?).map_err(SnapshotError::Corrupt)?;
            }
            let consumed = usize::try_from(r.u64()?)
                .map_err(|_| SnapshotError::Corrupt("consumed cursor exceeds usize".into()))?;
            if consumed > node.buf.len() {
                return Err(SnapshotError::Corrupt(format!(
                    "consumed cursor {consumed} past buffer length {}",
                    node.buf.len()
                )));
            }
            node.buf.set_consumed(consumed);
        }
        Ok(engine)
    }
}

impl Snapshot for Engine {
    /// Serializes the evolving state: watermark, metrics, per-class intake
    /// counters, a reserved length word (always 0; it counted events
    /// pushed one at a time, and restore rejects any other value), and
    /// every node buffer with its consumed cursor (a leaf entry as the
    /// one-slot record it stands for). The query, plan shape
    /// and intake predicates are **not** written —
    /// [`crate::CompiledParts::restore_engine`] re-derives them from the
    /// compiled query, which also makes the snapshot independent of
    /// process-local symbol ids and compiled-predicate layout.
    fn write_snapshot(&self, w: &mut SnapshotWriter) {
        w.u64(self.watermark);
        self.metrics.write_snapshot(w);
        w.len(self.offered.len());
        for &c in &self.offered {
            w.u64(c);
        }
        w.len(self.admitted.len());
        for &c in &self.admitted {
            w.u64(c);
        }
        w.len(0);
        w.len(self.plan.nodes.len());
        for node in &self.plan.nodes {
            w.len(node.buf.len());
            for rec in node.buf.iter() {
                w.record(rec);
            }
            w.len(node.buf.consumed());
        }
    }
}
