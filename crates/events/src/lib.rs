//! Event model for ZStream.
//!
//! This crate provides the substrate data types of the ZStream composite event
//! processing system (Mei & Madden, SIGMOD 2009):
//!
//! * [`Ts`] — logical timestamps; every event carries a start and an end
//!   timestamp (equal for primitive events, §3 of the paper),
//! * [`Sym`] / [`SymbolTable` stats](symbol_stats) — process-wide interned
//!   strings: every string attribute is a 4-byte symbol, so equality
//!   predicates, hash-join keys and shard routing are integer operations,
//! * [`Value`] / [`ValueType`] — dynamically typed, 16-byte `Copy` attribute
//!   values,
//! * [`Schema`] — named, typed attribute layouts for primitive events,
//! * [`EventBatch`] / [`Column`] / [`BatchData`] — struct-of-arrays columnar
//!   batches: the storage behind every event; low-cardinality string columns
//!   dictionary-encode automatically ([`DictStr`]),
//! * [`kernel`] — word-packed validity/selection [`Bitmap`]s and chunked
//!   filter kernels ([`filter_cmp`], [`filter_str_eq`]) that evaluate one
//!   predicate over an entire column with exact [`Value`] semantics,
//! * [`Event`] — a primitive event: a cheap `(batch, row)` handle,
//! * [`Record`] / [`Slot`] — the buffer record of §4.2: a vector of event
//!   pointers plus a start time and an end time. Composite events produced by
//!   operators are `Record`s; `Slot::Many` holds Kleene-closure groups and
//!   `Slot::None` represents the `(NULL, Rr)` rows emitted by NSEQ,
//! * [`MatchBatch`] / [`Part`] — match output in packed form: `(source,
//!   row)` ids into the distinct source batches of a round, built into
//!   `Record`s only where a consumer asks,
//! * [`ColumnarReorder`] — the §4.1 reordering operator for disordered
//!   streams: arrival-order batches in, bounded-slack buffering with
//!   per-source watermarks, lateness detection at the slack boundary, and
//!   time-ordered re-packed [`EventBatch`] output with a zero-copy
//!   pass-through for already-ordered input,
//! * [`shard_of`] / [`split_batch_rows`] — stable hash routing of batches
//!   to worker shards for scale-out ingest (generalizing the §4.1 hash
//!   partitioning to a fixed shard count): per-shard row-index selections,
//!   the zero-copy fan-out of the runtime's columnar ingest.

mod error;
mod event;
pub mod kernel;
mod matches;
mod record;
mod reorder;
mod route;
mod schema;
mod snapshot;
mod soa;
mod sym;
mod time;
mod value;

pub use error::EventError;
pub use event::{stock, Event, EventBuilder};
pub use kernel::{cmp_value, filter_cmp, filter_str_eq, Bitmap, CmpOp};
pub use matches::MatchBatch;
pub use record::{Part, Record, RecordView, Slot};
pub use reorder::{repack_events, BatchRelease, ColumnarReorder, ReorderStats};
pub use route::{shard_of, split_batch_rows, RowSplit};
pub use schema::{Field, Schema, SchemaBuilder};
pub use snapshot::{Snapshot, SnapshotError, SnapshotReader, SnapshotResult, SnapshotWriter};
pub use soa::{
    BatchBuilder, BatchData, Column, DictMode, DictStr, EventBatch, DICT_MAX_CARD, DICT_MIN_ROWS,
};
pub use sym::{symbol_stats, Sym, SymbolStats};
pub use time::{span_within, Ts};
pub use value::{HashableValue, Value, ValueType};

/// Handle to an immutable primitive event.
///
/// Historically an `Arc<Event>`; since the columnar refactor [`Event`] is
/// itself a cheap `(batch, row)` handle, so the alias is the event type.
/// Cloning bumps the batch's refcount — there is no per-event allocation.
pub type EventRef = Event;
