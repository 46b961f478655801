//! High-level query compilation: text → AST → rewrites → analysis → plan →
//! engine.

use std::sync::Arc;

use zstream_events::{Schema, Value};
use zstream_lang::{analyze, AnalyzedQuery, BinOp, Query, SchemaMap, TypedExpr};

use crate::cost::dp::{search_optimal, spec_with_shape, NegStrategy, PlanSpec};
use crate::cost::shape::PlanShape;
use crate::cost::stats::Statistics;
use crate::engine::Engine;
use crate::error::CoreError;
use crate::logical::rewrite_query;
use crate::partition::PartitionedEngine;
use crate::physical::plan::{PhysicalPlan, PlanConfig};

/// Engine configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineConfig {
    /// Unused: nothing reads it. Engines take whole caller-formed batches,
    /// so a round's size is the size of the batch pushed (§4.3). The field
    /// remains only so struct literals that name it keep compiling.
    pub batch_size: usize,
    /// Physical plan toggles (hashing, EAT pruning).
    pub plan: PlanConfig,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig { batch_size: 128, plan: PlanConfig::default() }
    }
}

/// A compiled query: rewritten, analyzed, and (for flat sequential patterns)
/// planned.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledQuery {
    /// The analyzed query.
    pub aq: Arc<AnalyzedQuery>,
    /// Statistics the plan was chosen under.
    pub stats: Statistics,
    /// The plan specification (`None` for syntax-directed conj/disj plans).
    pub spec: Option<PlanSpec>,
    /// Number of §5.2.1 rewrites applied.
    pub rewrites: usize,
}

impl CompiledQuery {
    /// Compiles a query with the optimizer choosing the plan.
    pub fn optimize(
        query: &Query,
        schemas: &SchemaMap,
        stats: Option<Statistics>,
    ) -> Result<CompiledQuery, CoreError> {
        Self::compile_inner(query, schemas, stats, None, NegStrategy::PushdownPreferred)
    }

    /// Compiles with a forced shape (the paper's fixed left-deep/right-deep/
    /// bushy/inner comparison plans) and negation strategy.
    pub fn with_shape(
        query: &Query,
        schemas: &SchemaMap,
        stats: Option<Statistics>,
        shape: PlanShape,
        neg: NegStrategy,
    ) -> Result<CompiledQuery, CoreError> {
        Self::compile_inner(query, schemas, stats, Some(shape), neg)
    }

    fn compile_inner(
        query: &Query,
        schemas: &SchemaMap,
        stats: Option<Statistics>,
        shape: Option<PlanShape>,
        neg: NegStrategy,
    ) -> Result<CompiledQuery, CoreError> {
        let (rewritten, rewrites) = rewrite_query(query);
        let aq = Arc::new(analyze(&rewritten, schemas)?);
        let stats = stats.unwrap_or_else(|| {
            Statistics::uniform(aq.num_classes(), aq.multi_preds.len(), aq.window)
        });
        stats.validate(aq.num_classes(), aq.multi_preds.len())?;
        let spec = if aq.is_flat_sequence() {
            Some(match shape {
                Some(sh) => spec_with_shape(&aq, &stats, sh, neg)?,
                None => search_optimal(&aq, &stats)?,
            })
        } else {
            if shape.is_some() {
                return Err(CoreError::UnsupportedPattern(
                    "forced shapes apply to flat sequential patterns only".into(),
                ));
            }
            None
        };
        Ok(CompiledQuery { aq, stats, spec, rewrites })
    }

    /// Builds the physical plan. `applied` lists the multi-class predicates
    /// the caller already guarantees for every event it feeds the plan
    /// (see [`PhysicalPlan::from_spec`]); pass `&[]` for a plan that
    /// evaluates them all.
    pub fn physical_plan(
        &self,
        config: PlanConfig,
        applied: &[usize],
    ) -> Result<PhysicalPlan, CoreError> {
        match &self.spec {
            Some(spec) => PhysicalPlan::from_spec(&self.aq, spec, config, applied),
            None => PhysicalPlan::from_pattern(&self.aq, config, applied),
        }
    }
}

/// Fluent construction of an [`Engine`] from a query.
#[derive(Debug)]
pub struct EngineBuilder {
    query: Query,
    schemas: SchemaMap,
    stats: Option<Statistics>,
    shape: Option<PlanShape>,
    neg: NegStrategy,
    route_field: Option<String>,
    config: EngineConfig,
}

impl EngineBuilder {
    /// Starts from a parsed query. Classes default to the stock schema.
    pub fn new(query: Query) -> EngineBuilder {
        EngineBuilder {
            query,
            schemas: SchemaMap::uniform(Schema::stocks()),
            stats: None,
            shape: None,
            neg: NegStrategy::PushdownPreferred,
            route_field: None,
            config: EngineConfig::default(),
        }
    }

    /// Parses and starts from query text.
    pub fn parse(src: &str) -> Result<EngineBuilder, CoreError> {
        Ok(EngineBuilder::new(Query::parse(src)?))
    }

    /// Sets the class-to-schema bindings.
    pub fn schemas(mut self, schemas: SchemaMap) -> Self {
        self.schemas = schemas;
        self
    }

    /// Stock-market convention used throughout the paper's experiments:
    /// every class reads the stock stream, and a pattern class named `IBM`
    /// means `name = 'IBM'` (an implicit single-class predicate pushed to
    /// the leaf).
    pub fn stock_routing(mut self) -> Self {
        self.schemas = SchemaMap::uniform(Schema::stocks());
        self.route_field = Some("name".to_string());
        self
    }

    /// Adds an implicit `class.field = '<class name>'` intake predicate for
    /// every class.
    pub fn route_by_field(mut self, field: impl Into<String>) -> Self {
        self.route_field = Some(field.into());
        self
    }

    /// Declares input statistics for the optimizer.
    pub fn statistics(mut self, stats: Statistics) -> Self {
        self.stats = Some(stats);
        self
    }

    /// Forces a physical tree shape instead of running the optimizer.
    pub fn shape(mut self, shape: PlanShape) -> Self {
        self.shape = Some(shape);
        self
    }

    /// Chooses the negation strategy.
    pub fn neg_strategy(mut self, neg: NegStrategy) -> Self {
        self.neg = neg;
        self
    }

    /// Sets engine configuration (hashing, pruning).
    pub fn config(mut self, config: EngineConfig) -> Self {
        self.config = config;
        self
    }

    /// Compiles and builds the engine.
    pub fn build(self) -> Result<Engine, CoreError> {
        self.compile()?.engine()
    }

    /// Compiles without instantiating an engine: the seam used by execution
    /// runtimes that build one engine (or [`PartitionedEngine`]) per shard
    /// from a single compiled template.
    pub fn compile(self) -> Result<CompiledParts, CoreError> {
        let compiled = match self.shape {
            Some(sh) => {
                CompiledQuery::with_shape(&self.query, &self.schemas, self.stats, sh, self.neg)?
            }
            None => CompiledQuery::optimize(&self.query, &self.schemas, self.stats)?,
        };
        let intake = build_intake(&compiled.aq, self.route_field.as_deref())?;
        Ok(CompiledParts { compiled, intake, config: self.config })
    }
}

/// The compiled artifacts an execution runtime needs to instantiate engines:
/// the optimized query, the per-class intake predicates, and the engine
/// configuration. Cloneable, so one compilation can fan out to many shards,
/// each instantiating its own engine over the shared plan template.
///
/// Equality is structural over the analysed query, statistics, plan spec,
/// intake and configuration: equal parts build engines that behave
/// identically on every input, which is what lets a runtime run one engine
/// for several identical registrations.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledParts {
    /// The rewritten, analyzed, planned query.
    pub compiled: CompiledQuery,
    /// Per-class intake predicates (single-class predicates plus any
    /// route-by-field equality).
    pub intake: Vec<Vec<TypedExpr>>,
    /// Physical plan toggles (`config.plan`; `config.batch_size` is unread).
    pub config: EngineConfig,
}

impl CompiledParts {
    /// The analyzed query.
    pub fn analyzed(&self) -> &Arc<AnalyzedQuery> {
        &self.compiled.aq
    }

    /// Instantiates a fresh single-threaded engine.
    pub fn engine(&self) -> Result<Engine, CoreError> {
        let plan = self.compiled.physical_plan(self.config.plan.clone(), &[])?;
        Ok(Engine::new(self.compiled.aq.clone(), plan, &self.intake))
    }

    /// Instantiates a fresh [`PartitionedEngine`] keyed on `field`. Fails
    /// when partitioning on `field` is unsound for this query (see
    /// [`crate::partition::can_partition_by`]).
    pub fn partitioned_engine(&self, field: &str) -> Result<PartitionedEngine, CoreError> {
        PartitionedEngine::new(self.compiled.clone(), self.config.plan.clone(), &self.intake, field)
    }

    /// Instantiates an engine restored from a snapshot stream, the
    /// checkpoint-recovery twin of [`CompiledParts::engine`]. This
    /// compilation must match the one the snapshotted engine ran.
    pub fn restore_engine(
        &self,
        r: &mut zstream_events::SnapshotReader<'_>,
    ) -> Result<Engine, zstream_events::SnapshotError> {
        let plan = self.compiled.physical_plan(self.config.plan.clone(), &[]).map_err(|e| {
            zstream_events::SnapshotError::Corrupt(format!("plan rebuild failed: {e}"))
        })?;
        Engine::restore_snapshot(
            self.compiled.aq.clone(),
            plan,
            crate::intake::CompiledIntake::compile(&self.intake),
            r,
        )
    }

    /// Instantiates a partitioned engine restored from a snapshot stream,
    /// the checkpoint-recovery twin of [`CompiledParts::partitioned_engine`].
    pub fn restore_partitioned_engine(
        &self,
        field: &str,
        r: &mut zstream_events::SnapshotReader<'_>,
    ) -> Result<PartitionedEngine, zstream_events::SnapshotError> {
        PartitionedEngine::restore_snapshot(
            self.compiled.clone(),
            self.config.plan.clone(),
            &self.intake,
            field,
            r,
        )
    }
}

/// Per-class intake predicates: analyzed single-class predicates plus the
/// optional route-by-field equality.
pub fn build_intake(
    aq: &AnalyzedQuery,
    route_field: Option<&str>,
) -> Result<Vec<Vec<TypedExpr>>, CoreError> {
    let mut intake: Vec<Vec<TypedExpr>> = aq.single_preds.clone();
    if let Some(field) = route_field {
        for (c, info) in aq.classes.iter().enumerate() {
            let fi = info.schema.field_index(field).map_err(zstream_lang::LangError::from)?;
            let ty = info.schema.fields()[fi].ty;
            intake[c].push(TypedExpr::Binary(
                BinOp::Eq,
                Box::new(TypedExpr::Attr { class: c, field: fi, ty }),
                Box::new(TypedExpr::Lit(Value::str(&info.name))),
            ));
        }
    }
    Ok(intake)
}

#[cfg(test)]
mod tests {
    use super::*;
    use zstream_events::{stock, EventBatch, EventRef, Record};

    /// Pushes `events` in columnar batches of `size` rows, then flushes;
    /// returns every match in emission order.
    fn run(engine: &mut Engine, events: &[EventRef], size: usize) -> Vec<Record> {
        let mut out = Vec::new();
        for chunk in events.chunks(size) {
            out.extend(engine.push_columns(&EventBatch::from_events(chunk).unwrap()));
        }
        out.extend(engine.flush());
        out
    }

    fn routed(src: &str) -> Engine {
        EngineBuilder::parse(src).unwrap().stock_routing().build().unwrap()
    }

    #[test]
    fn quickstart_sequence_end_to_end() {
        let mut engine = routed("PATTERN IBM; Sun; Oracle WITHIN 200");
        let events: Vec<EventRef> = ["IBM", "Sun", "Oracle", "IBM", "Oracle"]
            .iter()
            .enumerate()
            .map(|(i, name)| stock(i as u64 + 1, i as i64, name, 10.0, 1))
            .collect();
        let matches = run(&mut engine, &events, 1);
        // IBM@1;Sun@2;Oracle@3 and IBM@1;Sun@2;Oracle@5.
        assert_eq!(matches.len(), 2);
        assert_eq!(engine.metrics().matches_out, 2);
        assert_eq!(engine.metrics().events_in, 5);
    }

    #[test]
    fn where_predicates_filter_matches() {
        let mut engine = routed("PATTERN IBM; Sun WHERE IBM.price > Sun.price WITHIN 100");
        let events = [
            stock(1, 0, "IBM", 50.0, 1),
            stock(2, 1, "Sun", 80.0, 1), // fails pred
            stock(3, 2, "Sun", 20.0, 1), // passes
        ];
        let matches = run(&mut engine, &events, 1);
        assert_eq!(matches.len(), 1);
        assert_eq!(matches[0].end_ts(), 3);
    }

    #[test]
    fn window_bounds_matches() {
        let mut engine = routed("PATTERN IBM; Sun WITHIN 10");
        let events = [
            stock(1, 0, "IBM", 1.0, 1),
            stock(100, 1, "Sun", 1.0, 1), // out of window
            stock(105, 2, "IBM", 1.0, 1),
            stock(110, 3, "Sun", 1.0, 1), // in window
        ];
        let matches = run(&mut engine, &events, 1);
        assert_eq!(matches.len(), 1);
        assert_eq!(matches[0].start_ts(), 105);
    }

    #[test]
    fn flush_forces_round() {
        let mut engine = routed("PATTERN IBM; Sun WITHIN 100");
        let batch =
            EventBatch::from_events(&[stock(1, 0, "IBM", 1.0, 1), stock(2, 1, "Sun", 1.0, 1)])
                .unwrap();
        assert_eq!(engine.push_columns(&batch).len(), 1, "the push runs its own round");
        let before = engine.metrics();
        assert!(engine.flush().is_empty());
        let after = engine.metrics();
        assert_eq!(after.idle_rounds, before.idle_rounds + 1, "flush is one more round");
        assert_eq!(after.assembly_rounds, before.assembly_rounds);
    }

    /// The compiled `PATTERN IBM; Sun; Oracle WITHIN 200` and an engine of
    /// it fed IBM, Sun, Oracle, IBM, Sun in batches of two: one match
    /// done, and partial matches straddling the last batch.
    fn mid_stream() -> (CompiledParts, Engine) {
        let parts = EngineBuilder::parse("PATTERN IBM; Sun; Oracle WITHIN 200")
            .unwrap()
            .stock_routing()
            .compile()
            .unwrap();
        let mut engine = parts.engine().unwrap();
        let events: Vec<EventRef> = ["IBM", "Sun", "Oracle", "IBM", "Sun"]
            .iter()
            .enumerate()
            .map(|(i, name)| stock(i as u64 + 1, i as i64, name, 10.0, 1))
            .collect();
        let head_matches: usize = events
            .chunks(2)
            .map(|chunk| engine.push_columns(&EventBatch::from_events(chunk).unwrap()).len())
            .sum();
        assert_eq!(head_matches, 1, "IBM@1;Sun@2;Oracle@3 completed pre-snapshot");
        (parts, engine)
    }

    #[test]
    fn engine_snapshot_round_trips_mid_stream() {
        use zstream_events::{Snapshot, SnapshotReader, SnapshotWriter};
        let (parts, mut engine) = mid_stream();
        let mut w = SnapshotWriter::new();
        engine.write_snapshot(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapshotReader::new(&bytes);
        let mut restored = parts.restore_engine(&mut r).unwrap();
        assert!(r.is_exhausted());
        assert_eq!(restored.watermark(), engine.watermark());
        assert_eq!(restored.metrics().events_in, engine.metrics().events_in);
        assert_eq!(restored.metrics().matches_out, engine.metrics().matches_out);
        assert_eq!(restored.class_counters(), engine.class_counters());

        // The tail completes matches whose prefixes straddle the boundary;
        // both engines must emit the same matches in the same order, and
        // neither may re-emit the pre-snapshot match.
        let fmt = |e: &Engine, recs: &[Record]| {
            recs.iter().map(|r| e.format_match(r)).collect::<Vec<_>>()
        };
        for (i, name) in ["Oracle", "IBM", "Sun", "Oracle"].iter().enumerate() {
            let batch =
                EventBatch::from_events(&[stock(i as u64 + 6, i as i64, name, 10.0, 1)]).unwrap();
            let a = engine.push_columns(&batch);
            let b = restored.push_columns(&batch);
            assert_eq!(fmt(&engine, &a), fmt(&restored, &b));
        }
        let (a, b) = (engine.flush(), restored.flush());
        assert_eq!(fmt(&engine, &a), fmt(&restored, &b));
        assert_eq!(restored.metrics().matches_out, engine.metrics().matches_out);
        assert!(engine.metrics().matches_out > 1, "tail produced matches");
    }

    /// The snapshot's word after the class counters once counted events
    /// pushed one at a time. It is written as 0; any other value is corrupt.
    #[test]
    fn engine_restore_rejects_pending_events() {
        use zstream_events::{Snapshot, SnapshotError, SnapshotReader, SnapshotWriter};
        let (parts, engine) = mid_stream();
        let mut w = SnapshotWriter::new();
        engine.write_snapshot(&mut w);
        let mut bytes = w.into_bytes();
        // Offset of the word: watermark, metrics, then both counter lists.
        let mut head = SnapshotWriter::new();
        head.u64(engine.watermark());
        engine.metrics().write_snapshot(&mut head);
        for counters in [engine.class_counters().0, engine.class_counters().1] {
            head.len(counters.len());
            counters.iter().for_each(|c| head.u64(*c));
        }
        let at = head.bytes().len();
        assert_eq!(bytes[at..at + 8], [0; 8], "the reserved word is written as 0");
        bytes[at] = 1;
        assert!(matches!(
            parts.restore_engine(&mut SnapshotReader::new(&bytes)),
            Err(SnapshotError::Corrupt(_))
        ));
    }

    #[test]
    fn engine_restore_rejects_wrong_query_shape() {
        use zstream_events::{Snapshot, SnapshotReader, SnapshotWriter};
        let two = EngineBuilder::parse("PATTERN IBM; Sun WITHIN 100")
            .unwrap()
            .stock_routing()
            .compile()
            .unwrap();
        let three = EngineBuilder::parse("PATTERN IBM; Sun; Oracle WITHIN 100")
            .unwrap()
            .stock_routing()
            .compile()
            .unwrap();
        let mut engine = two.engine().unwrap();
        engine.push_columns(&EventBatch::from_events(&[stock(1, 0, "IBM", 1.0, 1)]).unwrap());
        let mut w = SnapshotWriter::new();
        engine.write_snapshot(&mut w);
        let bytes = w.into_bytes();
        assert!(
            three.restore_engine(&mut SnapshotReader::new(&bytes)).is_err(),
            "a two-class snapshot must not restore into a three-class plan"
        );
    }

    #[test]
    fn batch_size_does_not_change_results() {
        let events: Vec<_> = (0..60)
            .map(|i| {
                let name = ["IBM", "Sun", "Oracle"][i % 3];
                stock(i as u64 + 1, i as i64, name, i as f64, 1)
            })
            .collect();
        let counts: Vec<usize> = [1, 7, 64]
            .iter()
            .map(|size| {
                run(&mut routed("PATTERN IBM; Sun; Oracle WITHIN 30"), &events, *size).len()
            })
            .collect();
        assert!(counts[0] > 0);
        assert_eq!(counts[0], counts[1]);
        assert_eq!(counts[1], counts[2]);
    }
}
