//! Bounded structured trace ring for batch-level pipeline events.
//!
//! The ring records one [`TraceEvent`] per *batch-level* pipeline step
//! (ingest call, reorder release, shard dispatch, assembly round, merge
//! emit, checkpoint quiesce) — never per event row, and never per
//! partition key: a hash-routed query reports the assembly rounds of all
//! its per-key engines as one event per batch — so the mutex inside is
//! taken a few times per batch per query, not millions of times per
//! second.
//! When full, the oldest events are evicted and counted in `dropped`, so
//! a snapshot always says how much history it is missing.

use std::collections::VecDeque;
use std::sync::Mutex;

/// Event-time timestamp (mirrors `zstream_events::Ts`; this crate is a
/// dependency-free leaf, so the alias is local).
pub type Ts = u64;

/// What kind of pipeline step a trace event records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// A batch entered the runtime (`ingest_*` call).
    Ingest,
    /// The reorder stage released buffered rows past its frontier.
    ReorderRelease,
    /// A batch (or row selection) was dispatched to a worker shard.
    ShardDispatch,
    /// An engine ran a non-idle assembly round (§4.3 batch-iterator).
    AssemblyRound,
    /// The ordered merger emitted final matches.
    MergeEmit,
    /// A checkpoint quiesce round-trip completed.
    CheckpointQuiesce,
    /// A plan replan decision was taken (details in the decision log).
    Replan,
    /// A query lifecycle transition (create / pause / resume / drop, and
    /// per-shard retirement acknowledgements).
    Lifecycle,
}

impl TraceKind {
    pub fn as_str(&self) -> &'static str {
        match self {
            TraceKind::Ingest => "ingest",
            TraceKind::ReorderRelease => "reorder_release",
            TraceKind::ShardDispatch => "shard_dispatch",
            TraceKind::AssemblyRound => "assembly_round",
            TraceKind::MergeEmit => "merge_emit",
            TraceKind::CheckpointQuiesce => "checkpoint_quiesce",
            TraceKind::Replan => "replan",
            TraceKind::Lifecycle => "lifecycle",
        }
    }
}

/// One batch-level pipeline event.
#[derive(Debug, Clone)]
pub struct TraceEvent {
    /// Event-time position (watermark / frontier / batch high ts) when the
    /// step happened — not wall clock, so traces are comparable across
    /// runs of the same stream.
    pub ts: Ts,
    /// Worker shard, when the step is shard-scoped.
    pub shard: Option<u32>,
    /// Registered query (e.g. `"q0"`), when the step is query-scoped.
    pub query: Option<String>,
    pub kind: TraceKind,
    /// Free-form `key=value` detail, small and allocation-light.
    pub payload: String,
}

impl std::fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[ts {:>8}] {:<18}", self.ts, self.kind.as_str())?;
        if let Some(s) = self.shard {
            write!(f, " shard={s}")?;
        }
        if let Some(q) = &self.query {
            write!(f, " query={q}")?;
        }
        if !self.payload.is_empty() {
            write!(f, " {}", self.payload)?;
        }
        Ok(())
    }
}

struct Ring {
    buf: VecDeque<TraceEvent>,
    dropped: u64,
}

/// The bounded trace ring. Cheap to record into (one short mutex per
/// batch-level step), cheap to snapshot (clones at most `capacity`
/// events).
pub struct TraceRing {
    capacity: usize,
    ring: Mutex<Ring>,
}

impl std::fmt::Debug for TraceRing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceRing").field("capacity", &self.capacity).finish()
    }
}

/// Default ring capacity: enough for the recent history of a busy
/// pipeline without unbounded growth.
pub const DEFAULT_TRACE_CAPACITY: usize = 1024;

impl Default for TraceRing {
    fn default() -> TraceRing {
        TraceRing::with_capacity(DEFAULT_TRACE_CAPACITY)
    }
}

impl TraceRing {
    pub fn with_capacity(capacity: usize) -> TraceRing {
        TraceRing {
            capacity,
            ring: Mutex::new(Ring { buf: VecDeque::with_capacity(capacity.min(64)), dropped: 0 }),
        }
    }

    /// Records one event, evicting the oldest when full.
    pub fn record(&self, ev: TraceEvent) {
        if self.capacity == 0 {
            return;
        }
        let mut ring = self.ring.lock().expect("trace ring poisoned");
        if ring.buf.len() == self.capacity {
            ring.buf.pop_front();
            ring.dropped += 1;
        }
        ring.buf.push_back(ev);
    }

    /// Convenience constructor + record.
    pub fn emit(
        &self,
        ts: Ts,
        shard: Option<u32>,
        query: Option<&str>,
        kind: TraceKind,
        payload: String,
    ) {
        self.record(TraceEvent { ts, shard, query: query.map(str::to_string), kind, payload });
    }

    /// `(events oldest-first, number evicted)`.
    pub fn snapshot(&self) -> (Vec<TraceEvent>, u64) {
        let ring = self.ring.lock().expect("trace ring poisoned");
        (ring.buf.iter().cloned().collect(), ring.dropped)
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(ts: Ts) -> TraceEvent {
        TraceEvent { ts, shard: None, query: None, kind: TraceKind::Ingest, payload: String::new() }
    }

    #[test]
    fn ring_is_bounded_and_counts_evictions() {
        let ring = TraceRing::with_capacity(3);
        for ts in 0..5 {
            ring.record(ev(ts));
        }
        let (events, dropped) = ring.snapshot();
        assert_eq!(events.iter().map(|e| e.ts).collect::<Vec<_>>(), vec![2, 3, 4]);
        assert_eq!(dropped, 2);
    }

    #[test]
    fn zero_capacity_disables_tracing() {
        let ring = TraceRing::with_capacity(0);
        ring.record(ev(1));
        let (events, dropped) = ring.snapshot();
        assert!(events.is_empty());
        assert_eq!(dropped, 0);
    }

    #[test]
    fn kinds_have_stable_names() {
        assert_eq!(TraceKind::ReorderRelease.as_str(), "reorder_release");
        assert_eq!(TraceKind::CheckpointQuiesce.as_str(), "checkpoint_quiesce");
    }
}
