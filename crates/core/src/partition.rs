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

use std::collections::HashMap;
use std::sync::Arc;

use zstream_events::{
    EventBatch, EventRef, HashableValue, Record, Snapshot, SnapshotError, SnapshotReader,
    SnapshotResult, SnapshotWriter, Ts,
};
use zstream_lang::{AnalyzedQuery, TypedExpr};
use zstream_obs::TraceKind;

use crate::builder::CompiledQuery;
use crate::engine::Engine;
use crate::error::CoreError;
use crate::intake::{CompiledIntake, SharedPredIndex, Subscription};
use crate::metrics::EngineMetrics;
use crate::physical::plan::PlanConfig;

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
    let n = aq.num_classes();
    if n == 0 {
        return false;
    }
    // Resolve the field index per class; every class must have the field.
    let field_idx: Vec<Option<usize>> =
        aq.classes.iter().map(|c| c.schema.field_index(field).ok()).collect();
    if field_idx.iter().any(Option::is_none) {
        return false;
    }
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
    for eq in &aq.equalities {
        let ((c1, f1), (c2, f2)) = (eq.left, eq.right);
        if field_idx[c1] != Some(f1) || field_idx[c2] != Some(f2) {
            continue;
        }
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
    let Some(&first) = positives.first() else { return false };
    let root = find(&mut parent, first);
    positives.iter().all(|c| find(&mut parent, *c) == root)
        && (0..n).filter(|c| negated[*c]).all(|c| neg_anchored[c])
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
    // zlint::allow(snapshot, "restore_snapshot receives the batch size from the caller; not checkpoint state")
    batch_size: usize,
    /// Field index of the partition attribute per class schema — all class
    /// schemas must agree on the field name; events are keyed through the
    /// first class's schema (events that match no schema are dropped).
    // zlint::allow(snapshot, "restore_snapshot receives the partition field from the caller; not checkpoint state")
    field: String,
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
        intake: Vec<Vec<TypedExpr>>,
        batch_size: usize,
        field: impl Into<String>,
    ) -> Result<PartitionedEngine, CoreError> {
        let field = field.into();
        if !can_partition_by(&compiled.aq, &field) {
            return Err(CoreError::UnsupportedPattern(format!(
                "cannot partition on '{field}': equality predicates do not connect \
                 all classes on that field"
            )));
        }
        Ok(PartitionedEngine {
            compiled,
            plan_config,
            intake: CompiledIntake::compile(intake),
            batch_size,
            field,
            partitions: HashMap::new(),
            intake_mode: crate::engine::IntakeMode::default(),
            subscription: None,
            events_in: 0,
            dropped: 0,
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

    /// Pushes one event into its partition; returns completed matches.
    pub fn push(&mut self, event: EventRef) -> Vec<Record> {
        self.events_in += 1;
        let Ok(value) = event.value_by_name(&self.field) else {
            self.dropped += 1;
            return Vec::new();
        };
        let key = value.hash_key();
        self.partition_mut(key).push(event)
    }

    /// Routes a whole batch and forces one evaluation round in every
    /// partition that received events, so no match whose trigger is in
    /// `events` stays buffered past this call. This is the latency/finality
    /// guarantee the scale-out runtime's watermark protocol relies on: after
    /// `push_batch` returns, every future match has an end timestamp no
    /// earlier than the last timestamp of `events`.
    ///
    /// Output is ordered by end timestamp across partitions (ties keep the
    /// first-seen-key partition order), so it is deterministic for a given
    /// input stream.
    pub fn push_batch(&mut self, events: &[EventRef]) -> Vec<Record> {
        // Group by key, preserving both intra-key event order and the
        // first-seen order of keys (HashMap iteration order would be
        // nondeterministic).
        let mut order: Vec<HashableValue> = Vec::new();
        let mut groups: HashMap<HashableValue, Vec<EventRef>> = HashMap::new();
        for event in events {
            self.events_in += 1;
            let Ok(value) = event.value_by_name(&self.field) else {
                self.dropped += 1;
                continue;
            };
            let key = value.hash_key();
            match groups.get_mut(&key) {
                Some(group) => group.push(event.clone()),
                None => {
                    order.push(key);
                    groups.insert(key, vec![event.clone()]);
                }
            }
        }
        let Some(last) = events.last() else { return Vec::new() };
        self.push_groups(last.ts(), order, groups, |engine, group| engine.push_batch(&group))
    }

    /// Shared tail of every batch intake path: hands each key's group (keys
    /// in first-seen `order`) to that key's engine, forcing a round there,
    /// and returns all matches ordered by end timestamp — stable, so ties
    /// keep key order. One `assembly_round` trace event covers the whole
    /// call when any key assembled; per-key engines have no ring.
    fn push_groups<G>(
        &mut self,
        last_ts: Ts,
        order: Vec<HashableValue>,
        mut groups: HashMap<HashableValue, G>,
        mut push: impl FnMut(&mut Engine, G) -> Vec<Record>,
    ) -> Vec<Record> {
        let trace = self.obs.as_ref().and_then(|obs| obs.trace.clone());
        let start = trace.as_ref().map(|_| std::time::Instant::now());
        let (mut out, mut rounds) = (Vec::new(), 0u64);
        for key in order {
            let group = groups.remove(&key).expect("every key in `order` has a group");
            let engine = self.partition_mut(key);
            let before = engine.metrics().assembly_rounds;
            out.extend(push(engine, group));
            rounds += engine.metrics().assembly_rounds - before;
        }
        out.sort_by_key(Record::end_ts);
        if let (Some(trace), Some(start), Some(obs)) = (trace, start, &self.obs) {
            if rounds > 0 {
                let ns = start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
                trace.emit(
                    last_ts,
                    obs.shard,
                    Some(&obs.query),
                    TraceKind::AssemblyRound,
                    format!("rounds={rounds} matches={} ns={ns}", out.len()),
                );
            }
        }
        out
    }

    /// Columnar variant of [`PartitionedEngine::push_batch`]: extracts the
    /// partition key from the routing column (one field resolution per
    /// batch, integer keys throughout) and hands each partition its rows as
    /// cheap handles. Output ordering and round-forcing semantics are
    /// identical to `push_batch` over the same rows.
    pub fn push_columns(&mut self, batch: &EventBatch) -> Vec<Record> {
        self.push_intake(batch, None, None)
    }

    /// The shard form of [`PartitionedEngine::push_columns`]: `rows` are
    /// ascending indices into `batch` (the subset this engine owns after
    /// shard routing; `None` for every row), and only those rows are keyed,
    /// grouped and evaluated — the batch itself is shared storage and is
    /// never copied. Every partition engine evaluates through `index`, the
    /// [`SharedPredIndex`] this engine subscribed to (see
    /// [`Engine::push_rows`]). Semantics are identical to `push_columns` over
    /// a batch containing exactly the selected rows.
    pub fn push_rows(
        &mut self,
        batch: &EventBatch,
        rows: Option<&[u32]>,
        index: &mut SharedPredIndex,
    ) -> Vec<Record> {
        self.push_intake(batch, rows, Some(index))
    }

    /// Both columnar entries: count the selection offered, resolve the
    /// partition field once, and key the rows.
    fn push_intake(
        &mut self,
        batch: &EventBatch,
        rows: Option<&[u32]>,
        index: Option<&mut SharedPredIndex>,
    ) -> Vec<Record> {
        let n = rows.map_or(batch.len(), <[u32]>::len);
        self.events_in += n as u64;
        let Ok(field_idx) = batch.schema().field_index(&self.field) else {
            self.dropped += n as u64;
            return Vec::new();
        };
        match rows {
            None => self.push_selected(batch, field_idx, 0..n as u32, index),
            Some(rows) => self.push_selected(batch, field_idx, rows.iter().copied(), index),
        }
    }

    /// Groups the given rows by partition key (first-seen key order,
    /// intra-key stream order), hands each partition its row selection
    /// (forcing a round per receiving partition), and emits in
    /// end-timestamp order. Groups hold 4-byte row indices, not event
    /// handles — the batch stays shared storage all the way into each
    /// partition's [`Engine::push_rows`].
    fn push_selected(
        &mut self,
        batch: &EventBatch,
        field_idx: usize,
        rows: impl Iterator<Item = u32>,
        mut index: Option<&mut SharedPredIndex>,
    ) -> Vec<Record> {
        let col = batch.column(field_idx);
        let mut order: Vec<HashableValue> = Vec::new();
        let mut groups: HashMap<HashableValue, Vec<u32>> = HashMap::new();
        let mut last_row = None;
        for row in rows {
            last_row = Some(row);
            let key = col.value(row as usize).hash_key();
            match groups.get_mut(&key) {
                Some(group) => group.push(row),
                None => {
                    order.push(key);
                    groups.insert(key, vec![row]);
                }
            }
        }
        let Some(last_ts) = last_row.map(|row| batch.ts_column()[row as usize]) else {
            return Vec::new();
        };
        self.push_groups(last_ts, order, groups, |engine, group| {
            engine.push_intake(batch, Some(&group), index.as_deref_mut())
        })
    }

    /// The engine owning `key`, created from the compiled template on first
    /// sight.
    fn partition_mut(&mut self, key: HashableValue) -> &mut Engine {
        if !self.partitions.contains_key(&key) {
            let plan = self
                .compiled
                .physical_plan(self.plan_config.clone())
                .expect("template plan was validated at construction");
            let mut engine = Engine::with_intake(
                self.compiled.aq.clone(),
                plan,
                self.intake.clone(),
                self.batch_size,
            );
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

    /// Flushes every partition.
    pub fn flush(&mut self) -> Vec<Record> {
        let mut out = Vec::new();
        for engine in self.partitions.values_mut() {
            out.extend(engine.flush());
        }
        // Global end-ts order across partitions for deterministic output.
        out.sort_by_key(Record::end_ts);
        out
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
    /// intake and rounds of that push). The per-event [`Self::push`] is not
    /// traced.
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
    /// compiled query, plan configuration, intake predicates, batch size
    /// and partition field must match what the snapshotted engine ran —
    /// checkpoints carry state, not code.
    pub fn restore_snapshot(
        compiled: CompiledQuery,
        plan_config: PlanConfig,
        intake: Vec<Vec<TypedExpr>>,
        batch_size: usize,
        field: impl Into<String>,
        r: &mut SnapshotReader<'_>,
    ) -> SnapshotResult<PartitionedEngine> {
        let mut pe = PartitionedEngine::new(compiled, plan_config, intake, batch_size, field)
            .map_err(|e| SnapshotError::Corrupt(format!("invalid partition template: {e}")))?;
        pe.events_in = r.u64()?;
        pe.dropped = r.u64()?;
        let n = r.len()?;
        for _ in 0..n {
            let key = r.hashable()?;
            let plan = pe
                .compiled
                .physical_plan(pe.plan_config.clone())
                .map_err(|e| SnapshotError::Corrupt(format!("plan rebuild failed: {e}")))?;
            let engine = Engine::restore_snapshot(
                pe.compiled.aq.clone(),
                plan,
                pe.intake.exprs.clone(),
                pe.batch_size,
                r,
            )?;
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
    use zstream_events::{stock, Schema};
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

    #[test]
    fn construction_rejects_unsound_partitioning() {
        let c = compiled("PATTERN A; B WITHIN 10");
        let intake = build_intake(&c.aq, None).unwrap();
        assert!(matches!(
            PartitionedEngine::new(c, PlanConfig::default(), intake, 4, "name"),
            Err(CoreError::UnsupportedPattern(_))
        ));
    }

    #[test]
    fn partitioned_matches_only_within_keys() {
        let c = compiled("PATTERN A; B WHERE A.name = B.name WITHIN 100");
        let intake = build_intake(&c.aq, None).unwrap();
        let mut pe = PartitionedEngine::new(c, PlanConfig::default(), intake, 1, "name").unwrap();
        let mut matches = Vec::new();
        matches.extend(pe.push(stock(1, 1, "IBM", 1.0, 1)));
        matches.extend(pe.push(stock(2, 2, "Sun", 1.0, 1)));
        matches.extend(pe.push(stock(3, 3, "Sun", 2.0, 1))); // Sun;Sun ✓
        matches.extend(pe.push(stock(4, 4, "IBM", 2.0, 1))); // IBM;IBM ✓
        matches.extend(pe.flush());
        assert_eq!(matches.len(), 2);
        assert_eq!(pe.num_partitions(), 2);
        assert_eq!(pe.metrics().matches_out, 2);
    }

    #[test]
    fn partitioned_equals_unpartitioned() {
        let src = "PATTERN A; B; C WHERE A.name = B.name = C.name WITHIN 50";
        // Small alphabet so partitions receive several events each.
        let names = ["IBM", "Sun", "Oracle"];
        let events: Vec<EventRef> = (0..120u64)
            .map(|i| stock(i + 1, i as i64, names[(i as usize * 7) % 3], i as f64, 1))
            .collect();

        let c = compiled(src);
        let intake = build_intake(&c.aq, None).unwrap();
        let mut pe =
            PartitionedEngine::new(c.clone(), PlanConfig::default(), intake.clone(), 4, "name")
                .unwrap();
        let mut part_out = Vec::new();
        for e in &events {
            part_out.extend(pe.push(e.clone()));
        }
        part_out.extend(pe.flush());
        let mut part_sigs: Vec<_> = part_out.iter().map(|r| pe.record_signature(r)).collect();
        part_sigs.sort();

        let plan = c.physical_plan(PlanConfig::default()).unwrap();
        let mut engine = Engine::new(c.aq.clone(), plan, intake, 4);
        let mut flat_out = Vec::new();
        for e in &events {
            flat_out.extend(engine.push(e.clone()));
        }
        flat_out.extend(engine.flush());
        let mut flat_sigs: Vec<_> = flat_out.iter().map(|r| engine.record_signature(r)).collect();
        flat_sigs.sort();

        assert!(!flat_sigs.is_empty());
        assert_eq!(part_sigs, flat_sigs);
    }

    #[test]
    fn push_batch_equals_per_event_push_and_orders_output() {
        let src = "PATTERN A; B WHERE A.name = B.name WITHIN 100";
        let names = ["IBM", "Sun", "Oracle", "HP"];
        let events: Vec<EventRef> = (0..80u64)
            .map(|i| stock(i + 1, i as i64, names[(i as usize * 5) % 4], i as f64, 1))
            .collect();

        let c = compiled(src);
        let intake = build_intake(&c.aq, None).unwrap();
        let mut batched =
            PartitionedEngine::new(c.clone(), PlanConfig::default(), intake.clone(), 4, "name")
                .unwrap();
        let mut batched_out = Vec::new();
        for chunk in events.chunks(7) {
            let out = batched.push_batch(chunk);
            assert!(
                out.windows(2).all(|w| w[0].end_ts() <= w[1].end_ts()),
                "push_batch output must be end-ts ordered"
            );
            batched_out.extend(out);
        }
        batched_out.extend(batched.flush());

        let mut single =
            PartitionedEngine::new(c, PlanConfig::default(), intake, 4, "name").unwrap();
        let mut single_out = Vec::new();
        for e in &events {
            single_out.extend(single.push(e.clone()));
        }
        single_out.extend(single.flush());

        let mut b_sigs: Vec<_> = batched_out.iter().map(|r| batched.record_signature(r)).collect();
        let mut s_sigs: Vec<_> = single_out.iter().map(|r| single.record_signature(r)).collect();
        b_sigs.sort();
        s_sigs.sort();
        assert!(!b_sigs.is_empty());
        assert_eq!(b_sigs, s_sigs);
        assert_eq!(batched.metrics().events_in, events.len() as u64);
        assert_eq!(batched.metrics().matches_out, single.metrics().matches_out);
    }

    #[test]
    fn push_rows_equals_push_columns_on_the_selected_subset() {
        let src = "PATTERN A; B WHERE A.name = B.name WITHIN 100";
        let names = ["IBM", "Sun", "Oracle", "HP"];
        let events: Vec<EventRef> = (0..60u64)
            .map(|i| stock(i + 1, i as i64, names[(i as usize * 5) % 4], i as f64, 1))
            .collect();
        let batch = EventBatch::from_events(&events).unwrap();
        // Every third row: the kind of selection a shard receives.
        let rows: Vec<u32> = (0..batch.len() as u32).filter(|r| r % 3 == 0).collect();

        let c = compiled(src);
        let intake = build_intake(&c.aq, None).unwrap();
        let mut by_rows =
            PartitionedEngine::new(c.clone(), PlanConfig::default(), intake.clone(), 4, "name")
                .unwrap();
        let mut index = SharedPredIndex::new();
        by_rows.subscribe(&mut index);
        index.begin_batch();
        let mut a = by_rows.push_rows(&batch, Some(&rows), &mut index);
        a.extend(by_rows.flush());

        let sub = batch.select(&rows);
        let mut by_columns =
            PartitionedEngine::new(c, PlanConfig::default(), intake, 4, "name").unwrap();
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
        let mut pe = PartitionedEngine::new(c, PlanConfig::default(), intake, 4, "name").unwrap();
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

    #[test]
    fn partitioned_snapshot_round_trips_with_stable_bytes() {
        let src = "PATTERN A; B WHERE A.name = B.name WITHIN 100";
        let names = ["IBM", "Sun", "Oracle", "HP"];
        let events: Vec<EventRef> = (0..40u64)
            .map(|i| stock(i + 1, i as i64, names[(i as usize * 5) % 4], i as f64, 1))
            .collect();
        let c = compiled(src);
        let intake = build_intake(&c.aq, None).unwrap();
        let mut pe =
            PartitionedEngine::new(c.clone(), PlanConfig::default(), intake.clone(), 4, "name")
                .unwrap();
        let mut head_out = Vec::new();
        for e in &events {
            head_out.extend(pe.push(e.clone()));
        }
        assert!(pe.num_partitions() > 1);

        let snap = |pe: &PartitionedEngine| {
            let mut w = SnapshotWriter::new();
            pe.write_snapshot(&mut w);
            w.into_bytes()
        };
        let bytes = snap(&pe);
        // Digest-sorted partition order: re-snapshotting identical state is
        // byte-identical despite HashMap iteration order.
        assert_eq!(bytes, snap(&pe));

        let mut r = SnapshotReader::new(&bytes);
        let mut restored = PartitionedEngine::restore_snapshot(
            c,
            PlanConfig::default(),
            intake,
            4,
            "name",
            &mut r,
        )
        .unwrap();
        assert!(r.is_exhausted());
        assert_eq!(restored.num_partitions(), pe.num_partitions());
        assert_eq!(restored.metrics().events_in, pe.metrics().events_in);
        assert_eq!(restored.metrics().matches_out, pe.metrics().matches_out);

        // Tail equivalence: both engines see the same continuation and must
        // produce the same spans in the same order.
        let tail: Vec<EventRef> = (40..60u64)
            .map(|i| stock(i + 1, i as i64, names[(i as usize * 5) % 4], i as f64, 1))
            .collect();
        let spans =
            |recs: &[Record]| recs.iter().map(|r| (r.start_ts(), r.end_ts())).collect::<Vec<_>>();
        let mut a = pe.push_batch(&tail);
        a.extend(pe.flush());
        let mut b = restored.push_batch(&tail);
        b.extend(restored.flush());
        assert!(!a.is_empty());
        assert_eq!(spans(&a), spans(&b));
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
