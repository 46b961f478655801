//! The multi-query registry: several compiled patterns sharing one ingest
//! path, each with its own routing policy.
//!
//! Sharding is sound exactly when the paper's hash-partitioning condition
//! holds ([`zstream_core::can_partition_by`]): every class of the pattern is
//! connected by equality predicates on the routing field, so no match can
//! span two key partitions — and therefore no match can span two shards
//! that each own a disjoint set of keys. Queries that fail the condition
//! fall back to a single *home* shard that sees the whole stream for that
//! query (correct, just not parallel for that query).
//!
//! A [`Route`] also fixes how the columnar ingest fans a batch out:
//! `Route::Hash` queries get one key-column scan into per-shard selection
//! vectors, `Route::Single` queries ship the whole batch (one `Arc` bump)
//! to their home shard.

use std::fmt;
use std::sync::Arc;

use zstream_core::{can_partition_by, CompiledParts, Engine, EngineMetrics};

use crate::error::RuntimeError;

/// Identifier of a registered query, assigned in registration order.
///
/// Ids are **stable for the life of the runtime**: dropping a query leaves
/// a tombstone in its slot rather than shifting or recycling ids, so a
/// `QueryId` held by a caller keeps meaning the same query after any
/// sequence of [`create`](crate::Runtime::create) /
/// [`drop_query`](crate::Runtime::drop_query) calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QueryId(pub(crate) usize);

impl QueryId {
    /// Registration index of this query. Because ids are never recycled,
    /// this doubles as the query's slot in report vectors
    /// ([`crate::RuntimeReport::query_metrics`] and friends).
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for QueryId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "q{}", self.0)
    }
}

/// How a registered query's events are distributed over worker shards.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Partitioning {
    /// Shard by hash of the named field when that is sound for the query
    /// ([`zstream_core::can_partition_by`]); otherwise fall back to a
    /// single home shard.
    Auto(String),
    /// Shard by hash of the named field; registration fails when the
    /// query's equality predicates do not justify it.
    Field(String),
    /// Evaluate on a single home shard (no partitioning).
    Broadcast,
}

/// The resolved routing of one registered query.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Route {
    /// `shard = hash(event[field]) mod workers`; each shard runs a
    /// [`zstream_core::PartitionedEngine`] over its key subset.
    Hash(String),
    /// Every event of this query goes to the one named shard, which runs a
    /// plain [`zstream_core::Engine`].
    Single(usize),
}

/// One registered query: compiled artifacts plus resolved routing. Equal
/// definitions (structurally equal parts, equal route) evaluate
/// identically, so a shard may run one engine for all of them.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct QueryDef {
    pub parts: CompiledParts,
    pub route: Route,
}

/// One registry slot. The slot index *is* the [`QueryId`]: slots are
/// appended by [`crate::RuntimeBuilder::register`] / [`crate::Runtime::create`]
/// and never removed or recycled — [`crate::Runtime::drop_query`] leaves a
/// tombstone (`def == None`) so every id handed out, every in-flight
/// slot-indexed shard message, and every report vector stays valid across
/// any create/drop sequence.
#[derive(Debug)]
pub(crate) struct QueryState {
    /// The resolved definition; `None` marks a tombstone (dropped query).
    /// `Arc`'d so [`crate::Runtime::create`] ships one definition to every
    /// shard without cloning the compiled artifacts per worker.
    pub def: Option<Arc<QueryDef>>,
    /// Control-thread template engine: interprets records (signatures,
    /// RETURN formatting) without reaching into worker state. `None` on
    /// tombstones.
    pub template: Option<Engine>,
    /// Router-side pause flag ([`crate::Runtime::pause`]): paused slots
    /// receive no traffic — their events are neither delivered nor counted
    /// as dropped. Shard-side engines keep their window state untouched.
    pub paused: bool,
    /// Events the router could not deliver for this query (routing field
    /// missing, or the owning shard had left the pool).
    pub dropped: u64,
    /// Metrics accumulated from shard `Done` / `Retired` replies.
    pub metrics: EngineMetrics,
}

impl QueryState {
    /// A live slot for a freshly resolved query.
    pub fn live(def: QueryDef, template: Engine) -> QueryState {
        QueryState {
            def: Some(Arc::new(def)),
            template: Some(template),
            paused: false,
            dropped: 0,
            metrics: EngineMetrics::default(),
        }
    }

    /// A tombstone slot: restores a dropped query's place so later slots
    /// keep their ids.
    pub fn tombstone() -> QueryState {
        QueryState {
            def: None,
            template: None,
            paused: false,
            dropped: 0,
            metrics: EngineMetrics::default(),
        }
    }

    /// Whether this slot still holds a query (not a tombstone).
    pub fn is_live(&self) -> bool {
        self.def.is_some()
    }
}

/// Picks the next live home shard round-robin. `homes` is the persistent
/// assignment counter (it counts only single-shard assignments, so home
/// shards spread evenly no matter how hash-routed queries interleave with
/// broadcast ones); `retired` marks shards that have left the pool and
/// must not receive new homes — a query homed on a dead shard would have
/// every one of its events silently dropped.
pub(crate) fn next_live_home(
    homes: &mut usize,
    workers: usize,
    retired: impl Fn(usize) -> bool,
) -> Result<usize, RuntimeError> {
    for _ in 0..workers {
        let candidate = *homes % workers;
        *homes += 1;
        if !retired(candidate) {
            return Ok(candidate);
        }
    }
    Err(RuntimeError::InvalidConfig(
        "cannot home a single-shard query: every worker shard has retired".into(),
    ))
}

/// Resolves one query's [`Partitioning`] request against its analyzed
/// query. `next_home` supplies the home shard if the route falls back to
/// (or asks for) a single shard; at build time that is a plain round-robin,
/// while [`crate::Runtime::create`] passes a dead-shard-aware version.
pub(crate) fn resolve_route(
    parts: CompiledParts,
    partitioning: Partitioning,
    label: QueryId,
    next_home: &mut dyn FnMut() -> Result<usize, RuntimeError>,
) -> Result<QueryDef, RuntimeError> {
    let route = match partitioning {
        Partitioning::Auto(field) => {
            if can_partition_by(parts.analyzed(), &field) {
                Route::Hash(field)
            } else {
                Route::Single(next_home()?)
            }
        }
        Partitioning::Field(field) => {
            if can_partition_by(parts.analyzed(), &field) {
                Route::Hash(field)
            } else {
                return Err(RuntimeError::InvalidConfig(format!(
                    "query {label}: cannot partition on '{field}': equality predicates \
                     do not connect all classes on that field \
                     (use Partitioning::Auto for a broadcast fallback)"
                )));
            }
        }
        Partitioning::Broadcast => Route::Single(next_home()?),
    };
    Ok(QueryDef { parts, route })
}

/// Resolves each query's [`Partitioning`] request, assigning home shards
/// round-robin so multiple broadcast queries spread across workers. Returns
/// the resolved defs plus the home-assignment counter, which the runtime
/// keeps so later [`crate::Runtime::create`] calls continue the rotation.
pub(crate) fn resolve_routes(
    defs: Vec<(CompiledParts, Partitioning)>,
    workers: usize,
) -> Result<(Vec<QueryDef>, usize), RuntimeError> {
    let mut homes = 0usize;
    let resolved = defs
        .into_iter()
        .enumerate()
        .map(|(i, (parts, partitioning))| {
            // At build time every shard is live.
            let mut next = || next_live_home(&mut homes, workers, |_| false);
            resolve_route(parts, partitioning, QueryId(i), &mut next)
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok((resolved, homes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use zstream_core::EngineBuilder;

    fn parts(src: &str) -> CompiledParts {
        EngineBuilder::parse(src).unwrap().compile().unwrap()
    }

    #[test]
    fn auto_partitions_when_sound() {
        let p = parts("PATTERN A; B WHERE A.name = B.name WITHIN 10");
        let (defs, homes) =
            resolve_routes(vec![(p, Partitioning::Auto("name".into()))], 4).unwrap();
        assert_eq!(defs[0].route, Route::Hash("name".into()));
        assert_eq!(homes, 0);
    }

    #[test]
    fn auto_falls_back_to_home_shard() {
        let p = parts("PATTERN A; B WITHIN 10");
        let (defs, homes) =
            resolve_routes(vec![(p, Partitioning::Auto("name".into()))], 4).unwrap();
        assert_eq!(defs[0].route, Route::Single(0));
        assert_eq!(homes, 1);
    }

    #[test]
    fn field_requires_soundness() {
        let p = parts("PATTERN A; B WITHIN 10");
        let err = resolve_routes(vec![(p, Partitioning::Field("name".into()))], 4).unwrap_err();
        assert!(matches!(err, RuntimeError::InvalidConfig(_)));
    }

    #[test]
    fn home_shards_spread_round_robin() {
        let p = parts("PATTERN A; B WITHIN 10");
        let (defs, _) = resolve_routes(
            vec![
                (p.clone(), Partitioning::Broadcast),
                (p.clone(), Partitioning::Broadcast),
                (p, Partitioning::Broadcast),
            ],
            2,
        )
        .unwrap();
        assert_eq!(defs[0].route, Route::Single(0));
        assert_eq!(defs[1].route, Route::Single(1));
        assert_eq!(defs[2].route, Route::Single(0));
    }

    #[test]
    fn hash_routed_queries_do_not_consume_home_slots() {
        // A hash-routed query between two broadcast ones must not skew the
        // round-robin: the broadcast queries still land on distinct shards.
        let hashed = parts("PATTERN A; B WHERE A.name = B.name WITHIN 10");
        let plain = parts("PATTERN A; B WITHIN 10");
        let (defs, homes) = resolve_routes(
            vec![
                (plain.clone(), Partitioning::Broadcast),
                (hashed, Partitioning::Auto("name".into())),
                (plain, Partitioning::Broadcast),
            ],
            2,
        )
        .unwrap();
        assert_eq!(defs[0].route, Route::Single(0));
        assert_eq!(defs[1].route, Route::Hash("name".into()));
        assert_eq!(defs[2].route, Route::Single(1));
        assert_eq!(homes, 2);
    }

    #[test]
    fn next_live_home_skips_retired_shards() {
        let mut homes = 0usize;
        // Shard 1 of 3 has retired: the rotation lands on 0, 2, 0, 2, …
        let retired = |s: usize| s == 1;
        assert_eq!(next_live_home(&mut homes, 3, retired).unwrap(), 0);
        assert_eq!(next_live_home(&mut homes, 3, retired).unwrap(), 2);
        assert_eq!(next_live_home(&mut homes, 3, retired).unwrap(), 0);
    }

    #[test]
    fn next_live_home_errors_when_all_retired() {
        let mut homes = 0usize;
        let err = next_live_home(&mut homes, 2, |_| true).unwrap_err();
        assert!(matches!(err, RuntimeError::InvalidConfig(_)));
    }
}
