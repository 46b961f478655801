//! Stream hash partitioning (§4.1, Figures 3 and 4).
//!
//! When every class of a pattern is connected by equality predicates on one
//! attribute (Query 2: `T1.name = T2.name = T3.name`; Query 8: same IP),
//! ZStream hash-partitions the incoming stream on that attribute and
//! evaluates the pattern independently per partition: *"Hash Partitioning
//! is performed on the incoming stock stream to apply the equality
//! predicates on stock.name."*
//!
//! [`PartitionedEngine`] wraps one [`Engine`] per observed key, routing
//! events by their partition attribute. [`can_partition_by`] verifies the
//! soundness condition: the query's equality predicates must connect **all**
//! classes (including negated and closure classes) on the partition field,
//! so that no cross-partition match can exist.
//!
//! Routing is also where those equalities are applied, once. Rows are keyed
//! by [`zstream_events::Value::hash_key`], which is canonical for the `=`
//! of query predicates (`Value::loose_eq`: NaNs form one class, `0.0 ==
//! -0.0`), so every two rows of one partition satisfy each `X.f = Y.f` on
//! the partition field `f`. The per-key plans are built without those
//! predicates: no per-key hash join on a key that carries no information.
//! Every other predicate stays, including equalities on other fields and
//! equalities inside an `OR`.

use std::collections::HashMap;
use std::sync::Arc;

use zstream_events::{
    EventBatch, HashableValue, MatchBatch, Record, Snapshot, SnapshotError, SnapshotReader,
    SnapshotResult, SnapshotWriter,
};
use zstream_lang::{AnalyzedQuery, TypedExpr};

use crate::builder::CompiledQuery;
use crate::engine::Engine;
use crate::error::CoreError;
use crate::intake::{CompiledIntake, SharedPredIndex, Subscription};
use crate::metrics::EngineMetrics;
use crate::physical::plan::{as_equality, PhysicalPlan, PlanConfig};

/// True when partitioning the stream on `field` preserves the query's
/// semantics. Two conditions must hold:
///
/// 1. every pair of **non-negated** classes is linked (transitively) by
///    equality predicates on `field` *between non-negated classes* — a chain
///    routed through a negated class does not constrain a match when no
///    negation instance occurs, so it cannot justify partitioning,
/// 2. every **negated** class has a direct equality on `field` to some
///    non-negated class — otherwise an event in another partition could
///    legitimately negate a match and per-partition evaluation would miss
///    it.
pub fn can_partition_by(aq: &AnalyzedQuery, field: &str) -> bool {
    partition_equalities(aq, field).is_some()
}

/// The multi-class predicates that partitioning on `field` applies, as
/// indices into `aq.multi_preds`: every `X.f = Y.f` whose `f` is `field` in
/// both classes' schemas, negated and closure classes included. `None` when
/// partitioning on `field` is unsound (see [`can_partition_by`]).
fn partition_equalities(aq: &AnalyzedQuery, field: &str) -> Option<Vec<usize>> {
    let n = aq.num_classes();
    if n == 0 {
        return None;
    }
    // Resolve the field index per class; every class must have the field.
    let field_idx: Vec<usize> =
        aq.classes.iter().map(|c| c.schema.field_index(field).ok()).collect::<Option<_>>()?;
    let negated: Vec<bool> = aq.classes.iter().map(|c| c.negated).collect();
    // Union-find over non-negated classes joined on the partition field.
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut Vec<usize>, x: usize) -> usize {
        if parent[x] != x {
            let root = find(parent, parent[x]);
            parent[x] = root;
        }
        parent[x]
    }
    let mut neg_anchored = vec![false; n];
    let mut implied = Vec::new();
    for (i, mp) in aq.multi_preds.iter().enumerate() {
        let Some(((c1, f1), (c2, f2))) = as_equality(&mp.expr) else { continue };
        if field_idx[c1] != f1 || field_idx[c2] != f2 {
            continue;
        }
        implied.push(i);
        match (negated[c1], negated[c2]) {
            (false, false) => {
                let (r1, r2) = (find(&mut parent, c1), find(&mut parent, c2));
                parent[r1] = r2;
            }
            (true, false) => neg_anchored[c1] = true,
            (false, true) => neg_anchored[c2] = true,
            (true, true) => {}
        }
    }
    let positives: Vec<usize> = (0..n).filter(|c| !negated[*c]).collect();
    let &first = positives.first()?;
    let root = find(&mut parent, first);
    let sound = positives.iter().all(|c| find(&mut parent, *c) == root)
        && (0..n).filter(|c| negated[*c]).all(|c| neg_anchored[c]);
    sound.then_some(implied)
}

/// A pattern engine evaluated independently per partition key.
#[derive(Debug)]
pub struct PartitionedEngine {
    // zlint::allow(snapshot, "restore_snapshot receives the compiled query from the caller; not checkpoint state")
    compiled: CompiledQuery,
    // zlint::allow(snapshot, "restore_snapshot receives the plan config from the caller; not checkpoint state")
    plan_config: PlanConfig,
    /// Compiled once here and shared with every per-key engine.
    // zlint::allow(snapshot, "restore_snapshot receives the intake predicates from the caller; not checkpoint state")
    intake: Arc<CompiledIntake>,
    /// Field index of the partition attribute per class schema — all class
    /// schemas must agree on the field name; events are keyed through the
    /// first class's schema (events that match no schema are dropped).
    // zlint::allow(snapshot, "restore_snapshot receives the partition field from the caller; not checkpoint state")
    field: String,
    /// The equalities routing on `field` applies (indices into the query's
    /// `multi_preds`); every per-key plan is built without them.
    // zlint::allow(snapshot, "derived from the compiled query and partition field at construction; not checkpoint state")
    implied: Vec<usize>,
    partitions: HashMap<HashableValue, Engine>,
    /// Intake-path choice stamped onto every partition engine (existing and
    /// future); see [`Engine::set_intake_mode`].
    // zlint::allow(snapshot, "configuration re-stamped via set_intake_mode after restore, not checkpoint state")
    intake_mode: crate::engine::IntakeMode,
    /// Shared-index subscription stamped onto every partition engine
    /// (existing and future); see [`PartitionedEngine::subscribe`].
    // zlint::allow(snapshot, "wiring re-stamped via subscribe after restore, not checkpoint state")
    subscription: Option<Arc<Subscription>>,
    events_in: u64,
    dropped: u64,
    /// Per-batch grouping scratch: each key's selected rows (emptied after
    /// the key's push, capacity kept), and the keys of the batch being
    /// routed in first-seen order.
    // zlint::allow(snapshot, "scratch space: emptied after every batch")
    groups: HashMap<HashableValue, Vec<u32>>,
    // zlint::allow(snapshot, "scratch space: emptied after every batch")
    order: Vec<HashableValue>,
    /// Instruments: the counters and histogram are cloned into each
    /// partition engine (cells are shared across partitions), the trace
    /// ring stays here (see [`PartitionedEngine::set_obs`]).
    // zlint::allow(snapshot, "instruments are process-local handles, re-attached via set_obs after restore")
    obs: Option<crate::obs::EngineObs>,
}

impl PartitionedEngine {
    /// Creates a partitioned engine. Fails when partitioning on `field` is
    /// not sound for this query (see [`can_partition_by`]).
    pub fn new(
        compiled: CompiledQuery,
        plan_config: PlanConfig,
        intake: &[Vec<TypedExpr>],
        field: impl Into<String>,
    ) -> Result<PartitionedEngine, CoreError> {
        let field = field.into();
        let Some(implied) = partition_equalities(&compiled.aq, &field) else {
            return Err(CoreError::UnsupportedPattern(format!(
                "cannot partition on '{field}': equality predicates do not connect \
                 all classes on that field"
            )));
        };
        Ok(PartitionedEngine {
            compiled,
            plan_config,
            intake: CompiledIntake::compile(intake),
            field,
            implied,
            partitions: HashMap::new(),
            intake_mode: crate::engine::IntakeMode::default(),
            subscription: None,
            events_in: 0,
            dropped: 0,
            groups: HashMap::new(),
            order: Vec::new(),
            obs: None,
        })
    }

    /// The analyzed query.
    pub fn analyzed(&self) -> &Arc<AnalyzedQuery> {
        &self.compiled.aq
    }

    /// Number of partitions materialized so far.
    pub fn num_partitions(&self) -> usize {
        self.partitions.len()
    }

    /// Overrides the intake-path choice for every partition engine, existing
    /// and future (default [`crate::engine::IntakeMode::Auto`]).
    pub fn set_intake_mode(&mut self, mode: crate::engine::IntakeMode) {
        self.intake_mode = mode;
        for engine in self.partitions.values_mut() {
            engine.set_intake_mode(mode);
        }
    }

    /// Subscribes every partition engine (existing and future) to a
    /// [`SharedPredIndex`] (see [`Engine::subscribe`]) — one subscription
    /// for the query, whatever its key count. Class masks then also memoize
    /// *across partition keys* within one batch, not just across queries.
    pub fn subscribe(&mut self, index: &mut SharedPredIndex) {
        let subscription = Arc::new(index.subscribe(&self.intake));
        for engine in self.partitions.values_mut() {
            engine.set_subscription(subscription.clone());
        }
        self.subscription = Some(subscription);
    }

    /// Routes a whole columnar batch: extracts the partition key from the
    /// routing column (one field resolution per batch, integer keys
    /// throughout), hands each partition its rows as a selection into the
    /// shared batch, and forces one evaluation round in every partition
    /// that received rows, so no match whose trigger is in `batch` stays
    /// buffered past this call. This is the latency/finality guarantee the
    /// scale-out runtime's watermark protocol relies on: after the call
    /// returns, every future match has an end timestamp no earlier than the
    /// batch's last timestamp.
    ///
    /// Output is ordered by end timestamp across partitions (ties keep the
    /// first-seen-key partition order), so it is deterministic for a given
    /// input stream.
    pub fn push_columns(&mut self, batch: &EventBatch) -> Vec<Record> {
        self.push_intake(batch, None, None).records()
    }

    /// The shard form of [`PartitionedEngine::push_columns`]: `rows` are
    /// ascending indices into `batch` (the subset this engine owns after
    /// shard routing; `None` for every row), and only those rows are keyed,
    /// grouped and evaluated — the batch itself is shared storage and is
    /// never copied. Every partition engine evaluates through `index`, the
    /// [`SharedPredIndex`] this engine subscribed to (see
    /// [`Engine::push_rows`]). Semantics are identical to `push_columns` over
    /// a batch containing exactly the selected rows; the matches come back
    /// packed, as from [`Engine::push_rows`] — every key's in one batch.
    pub fn push_rows(
        &mut self,
        batch: &EventBatch,
        rows: Option<&[u32]>,
        index: &mut SharedPredIndex,
    ) -> MatchBatch {
        self.push_intake(batch, rows, Some(index))
    }

    /// Both entries: count the selection offered, resolve the partition
    /// field once, and key the rows.
    fn push_intake(
        &mut self,
        batch: &EventBatch,
        rows: Option<&[u32]>,
        index: Option<&mut SharedPredIndex>,
    ) -> MatchBatch {
        let n = rows.map_or(batch.len(), <[u32]>::len);
        self.events_in += n as u64;
        let Ok(field_idx) = batch.schema().field_index(&self.field) else {
            self.dropped += n as u64;
            return MatchBatch::new();
        };
        match rows {
            None => self.push_selected(batch, field_idx, 0..n as u32, index),
            Some(rows) => self.push_selected(batch, field_idx, rows.iter().copied(), index),
        }
    }

    /// Groups the given rows by partition key (first-seen key order,
    /// intra-key stream order), hands each partition its row selection
    /// (forcing a round per receiving partition, every key's matches
    /// packed into one batch), and returns all matches ordered by end
    /// timestamp — stable, so ties keep key order. Groups hold 4-byte row
    /// indices, not event handles — the batch stays shared storage all the
    /// way into each partition's [`Engine::push_rows`]. One
    /// `assembly_round` trace event covers the whole call when any key
    /// assembled; per-key engines have no ring.
    fn push_selected(
        &mut self,
        batch: &EventBatch,
        field_idx: usize,
        rows: impl Iterator<Item = u32>,
        mut index: Option<&mut SharedPredIndex>,
    ) -> MatchBatch {
        let col = batch.column(field_idx);
        let (mut groups, mut order) =
            (std::mem::take(&mut self.groups), std::mem::take(&mut self.order));
        let mut last_row = None;
        for row in rows {
            last_row = Some(row);
            let key = col.value(row as usize).hash_key();
            let group = groups.entry(key).or_default();
            if group.is_empty() {
                order.push(key);
            }
            group.push(row);
        }
        let trace = self.obs.as_ref().and_then(|obs| obs.trace.clone());
        let start = trace.as_ref().map(|_| std::time::Instant::now());
        let (mut out, mut rounds) = (MatchBatch::new(), 0u64);
        for key in order.drain(..) {
            let group = groups.get_mut(&key).expect("every key in `order` has a group");
            let engine = self.partition_mut(key);
            let before = engine.metrics().assembly_rounds;
            engine.push_intake(batch, Some(group), index.as_deref_mut(), &mut out);
            rounds += engine.metrics().assembly_rounds - before;
            group.clear();
        }
        (self.groups, self.order) = (groups, order);
        let Some(last_ts) = last_row.map(|row| batch.ts_column()[row as usize]) else {
            return out;
        };
        out.sort_by_end();
        if let (Some(trace), Some(start), Some(obs)) = (trace, start, &self.obs) {
            if rounds > 0 {
                let ns = start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
                obs.emit(&trace, last_ts, format!("rounds={rounds} matches={} ns={ns}", out.len()));
            }
        }
        out
    }

    /// The plan every key runs, live or restored: the compiled template
    /// without the equalities routing already applies.
    fn key_plan(&self) -> Result<PhysicalPlan, CoreError> {
        self.compiled.physical_plan(self.plan_config.clone(), &self.implied)
    }

    /// The engine owning `key`, created from the compiled template on first
    /// sight.
    fn partition_mut(&mut self, key: HashableValue) -> &mut Engine {
        if !self.partitions.contains_key(&key) {
            let plan = self.key_plan().expect("template plan was validated at construction");
            let mut engine =
                Engine::with_intake(self.compiled.aq.clone(), plan, self.intake.clone());
            engine.set_intake_mode(self.intake_mode);
            if let Some(subscription) = &self.subscription {
                engine.set_subscription(subscription.clone());
            }
            if let Some(obs) = &self.obs {
                engine.set_obs(obs.without_trace());
            }
            self.partitions.insert(key, engine);
        }
        self.partitions.get_mut(&key).expect("inserted above")
    }

    /// Ends the stream: one idle round per partition ([`Engine::flush`]).
    /// Every push already ran an assembly round in each partition it fed,
    /// so the flush rounds find nothing to emit and the result is empty.
    pub fn flush(&mut self) -> Vec<Record> {
        for engine in self.partitions.values_mut() {
            let out = engine.flush();
            debug_assert!(out.is_empty(), "a flush round is idle");
        }
        Vec::new()
    }

    /// Aggregated metrics: per-partition counters folded together with
    /// [`EngineMetrics::merge`]; `peak_bytes` is the sum of per-partition
    /// peaks (an upper bound on the true simultaneous peak). `events_in`
    /// counts every event offered to this engine, including ones dropped
    /// for lacking the partition attribute. Process-global stats are left
    /// unstamped (see [`EngineMetrics::merge`] — they belong to the final
    /// report, not per-engine snapshots).
    pub fn metrics(&self) -> EngineMetrics {
        let mut m = EngineMetrics::default();
        for e in self.partitions.values() {
            m.merge(&e.metrics());
        }
        m.events_in = self.events_in;
        m
    }

    /// Attaches observability instruments. Every existing and future
    /// partition engine records into clones of the same counter and
    /// histogram handles — the cells are shared, so per-query totals fold
    /// across partition keys without extra registry entries. The trace ring
    /// is *not* handed down: a batch touching K keys would emit K
    /// `assembly_round` events, so this engine emits one per batch push
    /// instead (`rounds=… matches=… ns=…`, `ns` covering the per-key
    /// intake and rounds of that push).
    pub fn set_obs(&mut self, obs: crate::obs::EngineObs) {
        for e in self.partitions.values_mut() {
            e.set_obs(obs.without_trace());
        }
        self.obs = Some(obs);
    }

    /// Signature of a record (delegates to any partition's engine — the
    /// plan layout is identical across partitions).
    pub fn record_signature(&self, rec: &Record) -> Vec<Vec<usize>> {
        self.partitions.values().next().map(|e| e.record_signature(rec)).unwrap_or_default()
    }

    /// Rebuilds a partitioned engine from a [`Snapshot`] stream. The
    /// compiled query, plan configuration, intake predicates and partition
    /// field must match what the snapshotted engine ran — checkpoints carry
    /// state, not code. The intake compiles once, shared by every restored
    /// partition engine.
    pub fn restore_snapshot(
        compiled: CompiledQuery,
        plan_config: PlanConfig,
        intake: &[Vec<TypedExpr>],
        field: impl Into<String>,
        r: &mut SnapshotReader<'_>,
    ) -> SnapshotResult<PartitionedEngine> {
        let mut pe = PartitionedEngine::new(compiled, plan_config, intake, field)
            .map_err(|e| SnapshotError::Corrupt(format!("invalid partition template: {e}")))?;
        pe.events_in = r.u64()?;
        pe.dropped = r.u64()?;
        let n = r.len()?;
        for _ in 0..n {
            let key = r.hashable()?;
            let plan = pe
                .key_plan()
                .map_err(|e| SnapshotError::Corrupt(format!("plan rebuild failed: {e}")))?;
            let engine =
                Engine::restore_snapshot(pe.compiled.aq.clone(), plan, pe.intake.clone(), r)?;
            if pe.partitions.insert(key, engine).is_some() {
                return Err(SnapshotError::Corrupt(format!("duplicate partition key {key:?}")));
            }
        }
        Ok(pe)
    }
}

impl Snapshot for PartitionedEngine {
    /// Serializes the offered/dropped counters and every partition's engine,
    /// keyed by partition key. Partitions are written in **content-digest
    /// order** — `HashMap` iteration order is process-local, and a
    /// checkpoint taken twice from identical state must be byte-identical.
    fn write_snapshot(&self, w: &mut SnapshotWriter) {
        w.u64(self.events_in);
        w.u64(self.dropped);
        w.len(self.partitions.len());
        let mut keys: Vec<&HashableValue> = self.partitions.keys().collect();
        keys.sort_by_key(|k| k.digest());
        for key in keys {
            w.hashable(key);
            self.partitions[key].write_snapshot(w);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{build_intake, CompiledQuery};
    use zstream_events::{stock, EventRef, Schema};
    use zstream_lang::{analyze, Query, SchemaMap};

    fn compiled(src: &str) -> CompiledQuery {
        CompiledQuery::optimize(
            &Query::parse(src).unwrap(),
            &SchemaMap::uniform(Schema::stocks()),
            None,
        )
        .unwrap()
    }

    #[test]
    fn partitionable_when_equalities_connect_all_classes() {
        let aq = analyze(
            &Query::parse("PATTERN A; B; C WHERE A.name = B.name = C.name WITHIN 10").unwrap(),
            &SchemaMap::uniform(Schema::stocks()),
        )
        .unwrap();
        assert!(can_partition_by(&aq, "name"));
        assert!(!can_partition_by(&aq, "price"), "no equalities on price");
        assert!(!can_partition_by(&aq, "missing"), "unknown field");
    }

    #[test]
    fn not_partitionable_with_disconnected_classes() {
        let aq = analyze(
            &Query::parse("PATTERN A; B; C WHERE A.name = B.name WITHIN 10").unwrap(),
            &SchemaMap::uniform(Schema::stocks()),
        )
        .unwrap();
        assert!(!can_partition_by(&aq, "name"), "C is not connected");
    }

    /// Packs a stream into columnar batches of `size` rows each.
    fn batches(events: &[EventRef], size: usize) -> Vec<EventBatch> {
        events.chunks(size).map(|chunk| EventBatch::from_events(chunk).unwrap()).collect()
    }

    /// The row handles of `batches`, in stream order — what match
    /// signatures identify events by.
    fn handles(batches: &[EventBatch]) -> Vec<EventRef> {
        batches.iter().flat_map(EventBatch::iter).collect()
    }

    /// One stock event per index in `range` (timestamp index + 1), its name
    /// picked from `names` with stride `step`.
    fn stream(range: std::ops::Range<u64>, names: &[&str], step: usize) -> Vec<EventRef> {
        range
            .map(|i| stock(i + 1, i as i64, names[(i as usize * step) % names.len()], i as f64, 1))
            .collect()
    }

    #[test]
    fn construction_rejects_unsound_partitioning() {
        let c = compiled("PATTERN A; B WITHIN 10");
        let intake = build_intake(&c.aq, None).unwrap();
        assert!(matches!(
            PartitionedEngine::new(c, PlanConfig::default(), &intake, "name"),
            Err(CoreError::UnsupportedPattern(_))
        ));
    }

    #[test]
    fn partitioned_matches_only_within_keys() {
        let c = compiled("PATTERN A; B WHERE A.name = B.name WITHIN 100");
        let intake = build_intake(&c.aq, None).unwrap();
        let mut pe = PartitionedEngine::new(c, PlanConfig::default(), &intake, "name").unwrap();
        let events = [
            stock(1, 1, "IBM", 1.0, 1),
            stock(2, 2, "Sun", 1.0, 1),
            stock(3, 3, "Sun", 2.0, 1), // Sun;Sun ✓
            stock(4, 4, "IBM", 2.0, 1), // IBM;IBM ✓
        ];
        let mut matches = Vec::new();
        for batch in batches(&events, 1) {
            matches.extend(pe.push_columns(&batch));
        }
        matches.extend(pe.flush());
        assert_eq!(matches.len(), 2);
        assert_eq!(pe.num_partitions(), 2);
        assert_eq!(pe.metrics().matches_out, 2);
    }

    #[test]
    fn partitioned_equals_unpartitioned() {
        let src = "PATTERN A; B; C WHERE A.name = B.name = C.name WITHIN 50";
        // Small alphabet so partitions receive several events each.
        let batches = batches(&stream(0..120, &["IBM", "Sun", "Oracle"], 7), 4);

        let c = compiled(src);
        let intake = build_intake(&c.aq, None).unwrap();
        let mut pe =
            PartitionedEngine::new(c.clone(), PlanConfig::default(), &intake, "name").unwrap();
        let mut part_out = Vec::new();
        for batch in &batches {
            part_out.extend(pe.push_columns(batch));
        }
        part_out.extend(pe.flush());
        let mut part_sigs: Vec<_> = part_out.iter().map(|r| pe.record_signature(r)).collect();
        part_sigs.sort();

        let plan = c.physical_plan(PlanConfig::default(), &[]).unwrap();
        let mut engine = Engine::new(c.aq.clone(), plan, &intake);
        let mut flat_out = Vec::new();
        for batch in &batches {
            flat_out.extend(engine.push_columns(batch));
        }
        flat_out.extend(engine.flush());
        let mut flat_sigs: Vec<_> = flat_out.iter().map(|r| engine.record_signature(r)).collect();
        flat_sigs.sort();

        assert!(!flat_sigs.is_empty());
        assert_eq!(part_sigs, flat_sigs);
    }

    #[test]
    fn push_columns_matches_oracle_and_orders_output() {
        let src = "PATTERN A; B WHERE A.name = B.name WITHIN 100";
        let batches = batches(&stream(0..80, &["IBM", "Sun", "Oracle", "HP"], 5), 7);

        let c = compiled(src);
        let intake = build_intake(&c.aq, None).unwrap();
        let mut pe =
            PartitionedEngine::new(c.clone(), PlanConfig::default(), &intake, "name").unwrap();
        let mut out = Vec::new();
        for batch in &batches {
            let matches = pe.push_columns(batch);
            assert!(
                matches.windows(2).all(|w| w[0].end_ts() <= w[1].end_ts()),
                "push_columns output must be end-ts ordered"
            );
            out.extend(matches);
        }
        out.extend(pe.flush());

        let mut sigs: Vec<_> = out.iter().map(|r| pe.record_signature(r)).collect();
        sigs.sort();
        let events = handles(&batches);
        let oracle = crate::reference::reference_signatures(&c.aq, &intake, &events);
        assert!(!sigs.is_empty());
        assert_eq!(sigs, oracle);
        assert_eq!(pe.metrics().events_in, events.len() as u64);
        assert_eq!(pe.metrics().matches_out, oracle.len() as u64);
    }

    #[test]
    fn push_rows_equals_push_columns_on_the_selected_subset() {
        let src = "PATTERN A; B WHERE A.name = B.name WITHIN 100";
        let events = stream(0..60, &["IBM", "Sun", "Oracle", "HP"], 5);
        let batch = EventBatch::from_events(&events).unwrap();
        // Every third row: the kind of selection a shard receives.
        let rows: Vec<u32> = (0..batch.len() as u32).filter(|r| r % 3 == 0).collect();

        let c = compiled(src);
        let intake = build_intake(&c.aq, None).unwrap();
        let mut by_rows =
            PartitionedEngine::new(c.clone(), PlanConfig::default(), &intake, "name").unwrap();
        let mut index = SharedPredIndex::new();
        by_rows.subscribe(&mut index);
        index.begin_batch();
        let mut a = by_rows.push_rows(&batch, Some(&rows), &mut index).records();
        a.extend(by_rows.flush());

        let sub = batch.select(&rows);
        let mut by_columns =
            PartitionedEngine::new(c, PlanConfig::default(), &intake, "name").unwrap();
        let mut b = by_columns.push_columns(&sub);
        b.extend(by_columns.flush());

        assert!(!a.is_empty());
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.start_ts(), y.start_ts());
            assert_eq!(x.end_ts(), y.end_ts());
        }
        assert_eq!(by_rows.metrics().events_in, rows.len() as u64);
    }

    #[test]
    fn push_rows_without_field_drops_and_matches_nothing() {
        let src = "PATTERN A; B WHERE A.name = B.name WITHIN 100";
        let c = compiled(src);
        let intake = build_intake(&c.aq, None).unwrap();
        let mut pe = PartitionedEngine::new(c, PlanConfig::default(), &intake, "name").unwrap();
        // A batch whose schema has no `name` field: every selected row is
        // dropped, no partition materializes.
        let mut wb = EventBatch::builder(zstream_events::Schema::weblog(), 2);
        for ts in [1u64, 2] {
            use zstream_events::Value;
            wb.push_row(ts, &[Value::str("1.2.3.4"), Value::str("/a"), Value::str("Course")])
                .unwrap();
        }
        let weblog = wb.finish();
        let mut index = SharedPredIndex::new();
        pe.subscribe(&mut index);
        index.begin_batch();
        assert!(pe.push_rows(&weblog, Some(&[0, 1]), &mut index).is_empty());
        assert_eq!(pe.num_partitions(), 0);
        assert_eq!(pe.metrics().events_in, 2, "dropped rows still count as offered");
    }

    /// Rounds keep only live state in every key: after each push, no
    /// per-key engine holds an entry starting before its own floor
    /// (`watermark − window`), with batches spanning ten windows,
    /// and the output still equals the oracle.
    #[test]
    fn every_key_ends_its_rounds_at_its_floor() {
        let src = "PATTERN A; B; C WHERE A.name = B.name = C.name WITHIN 10";
        let batches = batches(&stream(0..300, &["IBM", "Sun", "Oracle", "HP"], 3), 100);
        let c = compiled(src);
        let intake = build_intake(&c.aq, None).unwrap();
        let mut pe =
            PartitionedEngine::new(c.clone(), PlanConfig::default(), &intake, "name").unwrap();
        let mut out = Vec::new();
        for batch in &batches {
            out.extend(pe.push_columns(batch));
            for engine in pe.partitions.values() {
                let floor = engine.watermark().saturating_sub(engine.plan().window);
                for node in &engine.plan().nodes {
                    assert!(node.buf.iter().all(|e| e.start_ts() >= floor), "below {floor}");
                }
            }
        }
        out.extend(pe.flush());
        let mut sigs: Vec<_> = out.iter().map(|r| pe.record_signature(r)).collect();
        sigs.sort();
        let oracle = crate::reference::reference_signatures(&c.aq, &intake, &handles(&batches));
        assert!(!sigs.is_empty());
        assert_eq!(sigs, oracle);
    }

    /// The two-class keyed query of the snapshot tests.
    const KEYED_AB: &str = "PATTERN A; B WHERE A.name = B.name WITHIN 100";

    /// A query keyed on `name` fed 40 events in batches of 4, and the bytes
    /// of its snapshot.
    fn snapshotted(src: &str) -> (CompiledQuery, Vec<Vec<TypedExpr>>, PartitionedEngine, Vec<u8>) {
        let c = compiled(src);
        let intake = build_intake(&c.aq, None).unwrap();
        let mut pe =
            PartitionedEngine::new(c.clone(), PlanConfig::default(), &intake, "name").unwrap();
        for batch in batches(&stream(0..40, &["IBM", "Sun", "Oracle", "HP"], 5), 4) {
            pe.push_columns(&batch);
        }
        assert!(pe.num_partitions() > 1);
        let mut w = SnapshotWriter::new();
        pe.write_snapshot(&mut w);
        (c, intake, pe, w.into_bytes())
    }

    #[test]
    fn partitioned_snapshot_round_trips_with_stable_bytes() {
        let (c, intake, mut pe, bytes) = snapshotted(KEYED_AB);
        // Digest-sorted partition order: re-snapshotting identical state is
        // byte-identical despite HashMap iteration order.
        let mut w = SnapshotWriter::new();
        pe.write_snapshot(&mut w);
        assert_eq!(bytes, w.into_bytes());

        let mut r = SnapshotReader::new(&bytes);
        let mut restored =
            PartitionedEngine::restore_snapshot(c, PlanConfig::default(), &intake, "name", &mut r)
                .unwrap();
        assert!(r.is_exhausted());
        assert_eq!(restored.num_partitions(), pe.num_partitions());
        assert_eq!(restored.metrics().events_in, pe.metrics().events_in);
        assert_eq!(restored.metrics().matches_out, pe.metrics().matches_out);

        // Tail equivalence: both engines see the same continuation and must
        // produce the same spans in the same order.
        let tail =
            EventBatch::from_events(&stream(40..60, &["IBM", "Sun", "Oracle", "HP"], 5)).unwrap();
        let spans =
            |recs: &[Record]| recs.iter().map(|r| (r.start_ts(), r.end_ts())).collect::<Vec<_>>();
        let mut a = pe.push_columns(&tail);
        a.extend(pe.flush());
        let mut b = restored.push_columns(&tail);
        b.extend(restored.flush());
        assert!(!a.is_empty());
        assert_eq!(spans(&a), spans(&b));
    }

    #[test]
    fn restored_partitions_share_one_compiled_intake() {
        let (c, intake, _, bytes) = snapshotted(KEYED_AB);
        let mut r = SnapshotReader::new(&bytes);
        let mut restored =
            PartitionedEngine::restore_snapshot(c, PlanConfig::default(), &intake, "name", &mut r)
                .unwrap();
        // A key first seen after the restore is built the ordinary way.
        restored.push_columns(&EventBatch::from_events(&[stock(99, 0, "Dell", 1.0, 1)]).unwrap());
        assert!(restored.num_partitions() > 2);
        for engine in restored.partitions.values() {
            assert!(Arc::ptr_eq(engine.intake(), &restored.intake), "intake compiled twice");
        }
    }

    /// Runs `check` on every per-key plan of a partitioned engine on `name`
    /// over `src`: the live keys, the keys restored from its snapshot, and
    /// a key first seen after the restore.
    fn check_key_plans(src: &str, check: impl Fn(&AnalyzedQuery, &PhysicalPlan)) {
        let (c, intake, live, bytes) = snapshotted(src);
        let mut r = SnapshotReader::new(&bytes);
        let mut restored = PartitionedEngine::restore_snapshot(
            c.clone(),
            PlanConfig::default(),
            &intake,
            "name",
            &mut r,
        )
        .unwrap();
        restored.push_columns(&EventBatch::from_events(&[stock(99, 0, "Dell", 1.0, 1)]).unwrap());
        assert_eq!((live.num_partitions(), restored.num_partitions()), (4, 5));
        for engine in live.partitions.values().chain(restored.partitions.values()) {
            check(&c.aq, engine.plan());
        }
    }

    /// Every predicate a plan evaluates, over all nodes.
    fn plan_preds(plan: &PhysicalPlan) -> Vec<&TypedExpr> {
        plan.nodes.iter().flat_map(|n| n.preds.iter().chain(&n.event_preds)).collect()
    }

    #[test]
    fn key_plans_omit_the_routed_equalities() {
        check_key_plans(
            "PATTERN A; B; C WHERE A.name = B.name AND B.name = C.name WITHIN 100",
            |_, plan| {
                assert!(plan.nodes.iter().all(|n| n.hash.is_none()), "a per-key plan hashes");
                assert!(plan_preds(plan).is_empty());
            },
        );
    }

    #[test]
    fn key_plans_keep_every_other_predicate() {
        check_key_plans(
            "PATTERN A; B; C \
             WHERE A.name = B.name AND B.name = C.name AND A.price < C.price WITHIN 100",
            |aq, plan| {
                assert!(plan.nodes.iter().all(|n| n.hash.is_none()));
                assert_eq!(plan_preds(plan), vec![&aq.multi_preds[2].expr]);
            },
        );
        // An equality on another field still hashes; one inside an `OR` is
        // not implied by routing.
        let volume = Schema::stocks().field_index("volume").unwrap();
        check_key_plans(
            "PATTERN A; B; C WHERE A.name = B.name AND B.name = C.name \
             AND A.volume = C.volume AND (A.name = C.name OR A.price > C.price) WITHIN 100",
            |aq, plan| {
                let kept = vec![&aq.multi_preds[2].expr, &aq.multi_preds[3].expr];
                assert_eq!(plan_preds(plan), kept);
                let specs: Vec<_> = plan.nodes.iter().filter_map(|n| n.hash.as_ref()).collect();
                assert_eq!(specs.len(), 1);
                assert!(specs[0].left.iter().chain(&specs[0].right).all(|k| k.field == volume));
            },
        );
    }

    #[test]
    fn key_plans_omit_the_negated_class_anchor() {
        // Query 2: `T2.name = T1.name` binds the negated class; routing
        // applies it as much as the positive `T1.name = T3.name`.
        let src = "PATTERN T1; !T2; T3 \
                   WHERE T1.name = T3.name AND T2.name = T1.name \
                     AND T1.price > 50 AND T2.price < 50 AND T3.price > 60 WITHIN 25";
        let flat = compiled(src).physical_plan(PlanConfig::default(), &[]).unwrap();
        assert_eq!(plan_preds(&flat).len(), 2, "the flat plan places both equalities");
        check_key_plans(src, |_, plan| {
            assert!(plan.nodes.iter().all(|n| n.hash.is_none()));
            assert!(plan_preds(plan).is_empty());
        });
    }

    #[test]
    fn flat_engine_still_hash_joins_on_the_key() {
        let parts = crate::builder::EngineBuilder::parse(
            "PATTERN A; B; C WHERE A.name = B.name AND B.name = C.name WITHIN 100",
        )
        .unwrap()
        .compile()
        .unwrap();
        let engine = parts.engine().unwrap();
        let name = Schema::stocks().field_index("name").unwrap();
        let specs: Vec<_> = engine.plan().nodes.iter().filter_map(|n| n.hash.as_ref()).collect();
        assert_eq!(specs.len(), 2, "one hash join per SEQ node");
        for spec in specs {
            assert!(spec.left.iter().chain(&spec.right).all(|k| k.field == name));
        }
    }

    #[test]
    fn negation_chain_does_not_transfer_connectivity() {
        // `T1.name = T2.name = T3.name` with T2 negated: when no T2 occurs,
        // nothing forces T1.name == T3.name, so partitioning is unsound.
        let aq = analyze(
            &Query::parse("PATTERN T1; !T2; T3 WHERE T1.name = T2.name = T3.name WITHIN 10")
                .unwrap(),
            &SchemaMap::uniform(Schema::stocks()),
        )
        .unwrap();
        assert!(!can_partition_by(&aq, "name"));
    }

    #[test]
    fn negated_class_anchored_directly_is_partitionable() {
        // Query 2 written with a direct T1-T3 equality plus a direct anchor
        // for the negated class: sound to partition.
        let aq = analyze(
            &Query::parse(
                "PATTERN T1; !T2; T3 \
                 WHERE T1.name = T3.name AND T2.name = T1.name WITHIN 10",
            )
            .unwrap(),
            &SchemaMap::uniform(Schema::stocks()),
        )
        .unwrap();
        assert!(can_partition_by(&aq, "name"));
    }

    #[test]
    fn unanchored_negated_class_blocks_partitioning() {
        // T1 and T3 are connected, but a T2 from any partition could negate.
        let aq = analyze(
            &Query::parse("PATTERN T1; !T2; T3 WHERE T1.name = T3.name WITHIN 10").unwrap(),
            &SchemaMap::uniform(Schema::stocks()),
        )
        .unwrap();
        assert!(!can_partition_by(&aq, "name"));
    }
}
