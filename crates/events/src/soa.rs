//! Struct-of-arrays event batches — the columnar data plane.
//!
//! The paper's batch-iterator model (§4.3) reads primitive events into leaf
//! buffers batch by batch. Here a batch *is* the storage: [`BatchData`]
//! holds one timestamp column plus one typed column per schema field, and an
//! [`Event`](crate::Event) is a `(Arc<BatchData>, row)` handle — creating,
//! cloning and passing events around never allocates per event.
//!
//! The columnar layout is what makes intake vectorizable: single-class
//! predicates (§4.1 push-down) and partition-key routing scan a column of
//! plain `i64`/`f64`/[`Sym`] values instead of walking per-event heap
//! objects, and only the surviving rows enter leaf buffers.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::error::EventError;
use crate::schema::Schema;
use crate::sym::Sym;
use crate::time::Ts;
use crate::value::{Value, ValueType};
use crate::Event;

/// Dictionary-encoded string column: the distinct symbols (at most
/// [`DICT_MAX_CARD`], in first-appearance order) plus one `u8` code per row,
/// and a run-length view of the code sequence for run-compressible data.
///
/// Low-cardinality string attributes (tickers, categories, URLs) are the
/// norm in CEP streams, so [`BatchBuilder::finish`] encodes string columns
/// of large batches automatically: an equality predicate then costs one
/// dictionary probe plus a `u8` scan (or a run scan) instead of N symbol
/// compares — see [`crate::kernel::filter_str_eq`].
#[derive(Debug, Clone)]
pub struct DictStr {
    dict: Vec<Sym>,
    codes: Vec<u8>,
    /// `(start_row, code)` per maximal run of equal codes; a run ends where
    /// the next one starts (or at the last row).
    runs: Vec<(u32, u8)>,
}

/// Smallest batch worth dictionary-encoding: below this the encode pass
/// costs more than it saves, and tiny batches (per-key partitions, unit
/// tests) keep the plain `Sym` layout.
pub const DICT_MIN_ROWS: usize = 64;
/// Dictionary capacity: columns with more distinct symbols stay plain
/// (codes are `u8`).
pub const DICT_MAX_CARD: usize = 256;

impl DictStr {
    /// Encodes a symbol slice, returning `None` when the slice is empty or
    /// has more than [`DICT_MAX_CARD`] distinct symbols.
    pub fn encode(syms: &[Sym]) -> Option<DictStr> {
        if syms.is_empty() {
            return None;
        }
        let mut dict: Vec<Sym> = Vec::new();
        let mut codes: Vec<u8> = Vec::with_capacity(syms.len());
        let mut runs: Vec<(u32, u8)> = Vec::new();
        // The dictionary is tiny (≤ 256); a linear probe with a one-entry
        // memo for the previous symbol beats hashing at these sizes.
        let mut last: Option<(Sym, u8)> = None;
        for (row, &s) in syms.iter().enumerate() {
            let code = match last {
                Some((ls, lc)) if ls == s => lc,
                _ => match dict.iter().position(|&d| d == s) {
                    Some(c) => c as u8,
                    None => {
                        if dict.len() >= DICT_MAX_CARD {
                            return None;
                        }
                        dict.push(s);
                        (dict.len() - 1) as u8
                    }
                },
            };
            if codes.last() != Some(&code) {
                runs.push((row as u32, code));
            }
            last = Some((s, code));
            codes.push(code);
        }
        Some(DictStr { dict, codes, runs })
    }

    /// The distinct symbols, indexed by code.
    #[inline]
    pub fn dict(&self) -> &[Sym] {
        &self.dict
    }

    /// One code per row.
    #[inline]
    pub fn codes(&self) -> &[u8] {
        &self.codes
    }

    /// Run-length view: `(start_row, code)` per maximal run.
    #[inline]
    pub fn runs(&self) -> &[(u32, u8)] {
        &self.runs
    }

    /// The code of `sym`, if present in the dictionary.
    #[inline]
    pub fn code_of(&self, sym: Sym) -> Option<u8> {
        self.dict.iter().position(|&d| d == sym).map(|c| c as u8)
    }

    /// The symbol at `row`.
    #[inline]
    pub fn sym(&self, row: usize) -> Sym {
        self.dict[self.codes[row] as usize]
    }
}

/// How [`BatchBuilder::finish_with`] treats string columns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DictMode {
    /// Dictionary-encode string columns of batches with at least
    /// [`DICT_MIN_ROWS`] rows and at most [`DICT_MAX_CARD`] distinct
    /// symbols; keep smaller or higher-cardinality columns plain.
    #[default]
    Auto,
    /// Never encode (plain `Sym` columns, the pre-dictionary layout).
    Plain,
    /// Encode every string column that fits the dictionary, regardless of
    /// batch size (differential tests exercise both layouts on one input).
    Force,
}

/// One typed attribute column of a batch.
#[derive(Debug, Clone)]
pub enum Column {
    /// 64-bit integers.
    Int(Vec<i64>),
    /// 64-bit floats.
    Float(Vec<f64>),
    /// Interned strings.
    Str(Vec<Sym>),
    /// Dictionary-encoded interned strings (see [`DictStr`]).
    Dict(DictStr),
    /// Booleans.
    Bool(Vec<bool>),
}

impl Column {
    fn with_capacity(ty: ValueType, cap: usize) -> Column {
        match ty {
            ValueType::Int => Column::Int(Vec::with_capacity(cap)),
            ValueType::Float => Column::Float(Vec::with_capacity(cap)),
            ValueType::Str => Column::Str(Vec::with_capacity(cap)),
            ValueType::Bool => Column::Bool(Vec::with_capacity(cap)),
        }
    }

    fn push(&mut self, v: Value) -> Result<(), ValueType> {
        match (self, v) {
            (Column::Int(c), Value::Int(x)) => c.push(x),
            (Column::Float(c), Value::Float(x)) => c.push(x),
            (Column::Str(c), Value::Str(x)) => c.push(x),
            (Column::Bool(c), Value::Bool(x)) => c.push(x),
            // Dictionary columns are frozen at finish; builders only ever
            // append to the plain representations above.
            (_, v) => return Err(v.value_type()),
        }
        Ok(())
    }

    /// The value at `row` (a `Copy`, no heap traffic).
    #[inline]
    pub fn value(&self, row: usize) -> Value {
        match self {
            Column::Int(c) => Value::Int(c[row]),
            Column::Float(c) => Value::Float(c[row]),
            Column::Str(c) => Value::Str(c[row]),
            Column::Dict(d) => Value::Str(d.sym(row)),
            Column::Bool(c) => Value::Bool(c[row]),
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            Column::Int(c) => c.len(),
            Column::Float(c) => c.len(),
            Column::Str(c) => c.len(),
            Column::Dict(d) => d.codes().len(),
            Column::Bool(c) => c.len(),
        }
    }

    /// True when the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The plain symbol column, if this is a **plain** string column.
    /// Dictionary-encoded columns return `None`; use [`Column::sym_at`] or
    /// the dictionary accessors for those.
    pub fn as_syms(&self) -> Option<&[Sym]> {
        match self {
            Column::Str(c) => Some(c),
            _ => None,
        }
    }

    /// The dictionary encoding, if this column carries one.
    pub fn as_dict(&self) -> Option<&DictStr> {
        match self {
            Column::Dict(d) => Some(d),
            _ => None,
        }
    }

    /// The symbol at `row` of a string column (plain or dictionary-encoded);
    /// `None` for non-string columns.
    #[inline]
    pub fn sym_at(&self, row: usize) -> Option<Sym> {
        match self {
            Column::Str(c) => Some(c[row]),
            Column::Dict(d) => Some(d.sym(row)),
            _ => None,
        }
    }

    /// Bytes of one element of this column.
    fn elem_bytes(&self) -> usize {
        match self {
            Column::Int(_) => std::mem::size_of::<i64>(),
            Column::Float(_) => std::mem::size_of::<f64>(),
            Column::Str(_) => std::mem::size_of::<Sym>(),
            // One code byte per row; the ≤256-entry dictionary and the run
            // index amortize across the batch.
            Column::Dict(_) => std::mem::size_of::<u8>(),
            Column::Bool(_) => std::mem::size_of::<bool>(),
        }
    }

    /// Applies the dictionary policy to a finished column.
    fn apply_dict(self, mode: DictMode, rows: usize) -> Column {
        let encode = match mode {
            DictMode::Auto => rows >= DICT_MIN_ROWS,
            DictMode::Plain => false,
            DictMode::Force => true,
        };
        match self {
            Column::Str(syms) if encode => match DictStr::encode(&syms) {
                Some(d) => Column::Dict(d),
                None => Column::Str(syms),
            },
            other => other,
        }
    }

    #[cfg(test)]
    pub(crate) fn test_ints(xs: Vec<i64>) -> Column {
        Column::Int(xs)
    }

    #[cfg(test)]
    pub(crate) fn test_floats(xs: Vec<f64>) -> Column {
        Column::Float(xs)
    }

    #[cfg(test)]
    pub(crate) fn test_syms(xs: Vec<Sym>) -> Column {
        Column::Str(xs)
    }
}

static NEXT_BATCH_ID: AtomicU64 = AtomicU64::new(1);

/// Immutable columnar storage behind a batch: one `ts` column plus one typed
/// column per schema field. Shared by every [`Event`](crate::Event) handle
/// pointing into the batch.
#[derive(Debug)]
pub struct BatchData {
    /// Process-unique id; combined with a row index it identifies one
    /// primitive event (see [`Event::identity`](crate::Event::identity)).
    id: u64,
    schema: Arc<Schema>,
    ts: Vec<Ts>,
    cols: Vec<Column>,
    /// Whether `ts` is non-decreasing. Sorted batches are the engine-facing
    /// invariant; unsorted batches model **arrival order** of a disordered
    /// stream and must pass through a reorder stage before evaluation.
    sorted: bool,
    /// Largest timestamp in the batch (0 when empty). For sorted batches
    /// this equals the last row's timestamp.
    max_ts: Ts,
}

impl BatchData {
    /// The schema all rows conform to.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// Process-unique batch id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.ts.len()
    }

    /// True when the batch has no rows.
    pub fn is_empty(&self) -> bool {
        self.ts.is_empty()
    }

    /// The timestamp column.
    #[inline]
    pub fn ts_column(&self) -> &[Ts] {
        &self.ts
    }

    /// The column of field `field`.
    #[inline]
    pub fn column(&self, field: usize) -> &Column {
        &self.cols[field]
    }

    /// Timestamp of `row`.
    #[inline]
    pub fn ts(&self, row: usize) -> Ts {
        self.ts[row]
    }

    /// True when the timestamp column is non-decreasing (the engine-facing
    /// invariant; false for arrival-order batches of a disordered stream).
    #[inline]
    pub fn is_sorted(&self) -> bool {
        self.sorted
    }

    /// Largest timestamp in the batch (0 when empty).
    #[inline]
    pub fn max_ts(&self) -> Ts {
        self.max_ts
    }

    /// Value of field `field` at `row`.
    #[inline]
    pub fn value(&self, row: usize, field: usize) -> Value {
        self.cols[field].value(row)
    }

    /// Logical bytes of one row: the timestamp plus one element per column.
    /// Interned string bytes are shared process-wide and not charged per
    /// event (the symbol table accounts for them once).
    pub fn row_bytes(&self) -> usize {
        std::mem::size_of::<Ts>() + self.cols.iter().map(Column::elem_bytes).sum::<usize>()
    }
}

/// A shared, immutable columnar batch of time-ordered primitive events.
/// Cloning is an `Arc` bump; [`EventBatch::event`] hands out row handles
/// without allocating.
#[derive(Debug, Clone)]
pub struct EventBatch {
    data: Arc<BatchData>,
}

impl EventBatch {
    /// Starts building a batch for `schema` with room for `capacity` rows.
    pub fn builder(schema: Arc<Schema>, capacity: usize) -> BatchBuilder {
        let cols = schema.fields().iter().map(|f| Column::with_capacity(f.ty, capacity)).collect();
        BatchBuilder { schema, ts: Vec::with_capacity(capacity), cols, sorted: true, max_ts: 0 }
    }

    /// Builds a batch from a slice of events (gathering their values into
    /// columns). Events must share one schema and be time-ordered.
    pub fn from_events(events: &[Event]) -> Result<EventBatch, EventError> {
        let schema = events
            .first()
            .map(|e| Arc::clone(e.schema()))
            .ok_or_else(|| EventError::UnknownField("empty batch has no schema".into()))?;
        let mut b = EventBatch::builder(schema, events.len());
        for e in events {
            b.push_event(e)?;
        }
        Ok(b.finish())
    }

    /// The shared columnar storage.
    pub fn data(&self) -> &Arc<BatchData> {
        &self.data
    }

    /// The schema all rows conform to.
    pub fn schema(&self) -> &Arc<Schema> {
        self.data.schema()
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the batch has no rows.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The timestamp column.
    #[inline]
    pub fn ts_column(&self) -> &[Ts] {
        self.data.ts_column()
    }

    /// Timestamp of the last row, if any. For sorted batches (the common
    /// case) this is the batch's high watermark; for arrival-order batches
    /// prefer [`EventBatch::max_ts`].
    #[inline]
    pub fn last_ts(&self) -> Option<Ts> {
        self.data.ts_column().last().copied()
    }

    /// True when rows are in non-decreasing timestamp order.
    #[inline]
    pub fn is_sorted(&self) -> bool {
        self.data.is_sorted()
    }

    /// Largest timestamp in the batch (0 when empty) — the high watermark
    /// even when rows are in arrival order rather than time order.
    #[inline]
    pub fn max_ts(&self) -> Ts {
        self.data.max_ts()
    }

    /// The column of field `field`.
    #[inline]
    pub fn column(&self, field: usize) -> &Column {
        self.data.column(field)
    }

    /// A cheap `(batch, row)` handle to the event at `row`.
    #[inline]
    pub fn event(&self, row: usize) -> Event {
        debug_assert!(row < self.len());
        Event::from_batch(Arc::clone(&self.data), row as u32)
    }

    /// Iterates row handles in order.
    pub fn iter(&self) -> impl Iterator<Item = Event> + '_ {
        (0..self.len()).map(|row| self.event(row))
    }

    /// All row handles as a vector.
    pub fn to_events(&self) -> Vec<Event> {
        self.iter().collect()
    }

    /// Gathers `rows` (in the given order) into a new batch.
    pub fn select(&self, rows: &[u32]) -> EventBatch {
        gather(Arc::clone(self.schema()), rows.iter().map(|&row| (&*self.data, row as usize)))
    }
}

/// Copies `(source batch, row)` pairs, in the given order, into a fresh
/// batch of `schema`, reading each value from its own source column. Every
/// source batch must carry a schema structurally equal to `schema` (the
/// callers guarantee it), so no row is validated here — the per-row checks
/// of [`BatchBuilder::push_event`] are for input from outside the crate.
/// The result is finished under [`DictMode::Auto`], exactly like a batch
/// built row by row.
pub(crate) fn gather<'a>(
    schema: Arc<Schema>,
    rows: impl ExactSizeIterator<Item = (&'a BatchData, usize)>,
) -> EventBatch {
    let mut b = EventBatch::builder(schema, rows.len());
    for (src, row) in rows {
        b.note_ts(src.ts(row));
        for (col, src_col) in b.cols.iter_mut().zip(&src.cols) {
            col.push(src_col.value(row)).expect("gathered rows share the schema");
        }
    }
    b.finish()
}

/// Incremental [`EventBatch`] constructor. Values are validated against the
/// schema. Rows are normally appended in non-decreasing timestamp order;
/// appending out of order is allowed — it models the **arrival order** of a
/// disordered stream — and marks the finished batch unsorted
/// ([`EventBatch::is_sorted`]), which only a reorder stage may consume.
#[derive(Debug)]
pub struct BatchBuilder {
    schema: Arc<Schema>,
    ts: Vec<Ts>,
    cols: Vec<Column>,
    /// Maintained incrementally per appended row (see [`BatchBuilder::note_ts`]).
    sorted: bool,
    max_ts: Ts,
}

impl BatchBuilder {
    /// Number of rows appended so far.
    pub fn len(&self) -> usize {
        self.ts.len()
    }

    /// True when no rows were appended yet.
    pub fn is_empty(&self) -> bool {
        self.ts.is_empty()
    }

    /// Appends a timestamp, updating the sortedness flag and running
    /// maximum — O(1) per row instead of re-scanning the column at finish.
    fn note_ts(&mut self, ts: Ts) {
        self.sorted &= self.ts.last().is_none_or(|last| *last <= ts);
        self.max_ts = self.max_ts.max(ts);
        self.ts.push(ts);
    }

    /// Appends one row, validating arity and field types.
    pub fn push_row(&mut self, ts: Ts, values: &[Value]) -> Result<(), EventError> {
        if values.len() != self.schema.arity() {
            return Err(EventError::ArityMismatch {
                expected: self.schema.arity(),
                found: values.len(),
            });
        }
        // Validate all fields before mutating any column so a failed row
        // leaves the builder unchanged.
        for (field, value) in self.schema.fields().iter().zip(values) {
            if field.ty != value.value_type() {
                return Err(EventError::FieldTypeMismatch {
                    field: field.name.clone(),
                    expected: field.ty,
                    found: value.value_type(),
                });
            }
        }
        self.note_ts(ts);
        for (col, value) in self.cols.iter_mut().zip(values) {
            col.push(*value).expect("types validated above");
        }
        Ok(())
    }

    /// Appends a copy of an existing event's row. The event must conform to
    /// this builder's schema.
    pub fn push_event(&mut self, e: &Event) -> Result<(), EventError> {
        if e.schema().name() != self.schema.name() || e.schema().arity() != self.schema.arity() {
            return Err(EventError::UnknownField(format!(
                "event schema '{}' does not match batch schema '{}'",
                e.schema().name(),
                self.schema.name()
            )));
        }
        // Validate all field types before mutating anything so a failed row
        // leaves the builder unchanged (same contract as push_row).
        for (field, spec) in self.schema.fields().iter().enumerate() {
            let found = e.value(field).value_type();
            if spec.ty != found {
                return Err(EventError::FieldTypeMismatch {
                    field: spec.name.clone(),
                    expected: spec.ty,
                    found,
                });
            }
        }
        self.note_ts(e.ts());
        for (field, col) in self.cols.iter_mut().enumerate() {
            col.push(e.value(field)).expect("types validated above");
        }
        Ok(())
    }

    /// Finishes the batch, freezing the columns behind an `Arc`. String
    /// columns of large batches dictionary-encode automatically
    /// ([`DictMode::Auto`]); use [`BatchBuilder::finish_with`] to override.
    pub fn finish(self) -> EventBatch {
        self.finish_with(DictMode::Auto)
    }

    /// Finishes the batch with an explicit dictionary policy for string
    /// columns.
    pub fn finish_with(self, mode: DictMode) -> EventBatch {
        // zlint::allow(atomics, "unique-id allocation: fetch_add is atomic on its own cell, no cross-variable ordering needed")
        let id = NEXT_BATCH_ID.fetch_add(1, Ordering::Relaxed);
        // `Event::identity` packs the id into 32 bits next to the row
        // index; exhausting that space must fail loudly, not alias two
        // distinct events' identities.
        assert!(id < u64::from(u32::MAX), "batch id space exhausted (2^32 batches created)");
        let rows = self.ts.len();
        EventBatch {
            data: Arc::new(BatchData {
                id,
                schema: self.schema,
                ts: self.ts,
                cols: self.cols.into_iter().map(|c| c.apply_dict(mode, rows)).collect(),
                sorted: self.sorted,
                max_ts: self.max_ts,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stock_batch() -> EventBatch {
        let mut b = EventBatch::builder(Schema::stocks(), 3);
        for (ts, name, price) in [(1, "IBM", 10.0), (2, "Sun", 20.0), (3, "IBM", 30.0)] {
            b.push_row(
                ts,
                &[Value::Int(ts as i64), Value::str(name), Value::Float(price), Value::Int(1)],
            )
            .unwrap();
        }
        b.finish()
    }

    #[test]
    fn builds_columns_and_reads_back() {
        let batch = stock_batch();
        assert_eq!(batch.len(), 3);
        assert_eq!(batch.ts_column(), &[1, 2, 3]);
        assert_eq!(batch.last_ts(), Some(3));
        assert!(batch.is_sorted());
        assert_eq!(batch.max_ts(), 3);
        assert_eq!(EventBatch::builder(Schema::stocks(), 0).finish().last_ts(), None);
        assert_eq!(batch.column(2).value(1), Value::Float(20.0));
        assert_eq!(batch.column(1).as_syms().unwrap()[0], Sym::intern("IBM"));
        assert!(batch.column(0).as_syms().is_none());
    }

    #[test]
    fn event_handles_share_storage() {
        let batch = stock_batch();
        let a = batch.event(0);
        let b = batch.event(2);
        assert_eq!(a.ts(), 1);
        assert_eq!(b.value_by_name("price").unwrap(), Value::Float(30.0));
        assert_ne!(a.identity(), b.identity());
        assert_eq!(a.identity(), batch.event(0).identity());
    }

    #[test]
    fn rejects_bad_rows() {
        let mut b = EventBatch::builder(Schema::stocks(), 1);
        assert!(matches!(
            b.push_row(1, &[Value::Int(1)]),
            Err(EventError::ArityMismatch { expected: 4, found: 1 })
        ));
        assert!(matches!(
            b.push_row(1, &[Value::Int(1), Value::str("x"), Value::str("bad"), Value::Int(1)]),
            Err(EventError::FieldTypeMismatch { .. })
        ));
        assert!(b.is_empty(), "failed rows leave the builder unchanged");
    }

    #[test]
    fn select_gathers_rows() {
        let batch = stock_batch();
        let sub = batch.select(&[0, 2]);
        assert_eq!(sub.len(), 2);
        assert_eq!(sub.ts_column(), &[1, 3]);
        assert_eq!(sub.column(2).value(1), Value::Float(30.0));
        assert_ne!(sub.data().id(), batch.data().id());
    }

    #[test]
    fn arrival_order_batches_are_marked_unsorted() {
        let mut b = EventBatch::builder(Schema::stocks(), 3);
        for (ts, price) in [(5u64, 10.0), (2, 20.0), (9, 30.0)] {
            b.push_row(ts, &[Value::Int(0), Value::str("IBM"), Value::Float(price), Value::Int(1)])
                .unwrap();
        }
        let batch = b.finish();
        assert!(!batch.is_sorted());
        assert_eq!(batch.max_ts(), 9, "max_ts is the high watermark even out of order");
        assert_eq!(batch.last_ts(), Some(9));
        // An empty batch is trivially sorted with a zero watermark.
        let empty = EventBatch::builder(Schema::stocks(), 0).finish();
        assert!(empty.is_sorted());
        assert_eq!(empty.max_ts(), 0);
    }

    #[test]
    fn large_batches_dictionary_encode_string_columns() {
        let names = ["IBM", "Sun", "Oracle"];
        let mut b = EventBatch::builder(Schema::stocks(), DICT_MIN_ROWS);
        for i in 0..DICT_MIN_ROWS {
            b.push_row(
                i as u64,
                &[Value::Int(i as i64), Value::str(names[i % 3]), Value::Float(1.0), Value::Int(1)],
            )
            .unwrap();
        }
        let batch = b.finish();
        let dict = batch.column(1).as_dict().expect("64-row low-cardinality column encodes");
        assert_eq!(dict.dict().len(), 3, "first-appearance order, one code per name");
        assert_eq!(batch.column(1).as_syms(), None);
        for i in 0..DICT_MIN_ROWS {
            assert_eq!(batch.column(1).value(i), Value::str(names[i % 3]));
            assert_eq!(batch.column(1).sym_at(i), Some(Sym::intern(names[i % 3])));
        }
        // Runs reconstruct the code sequence exactly.
        let runs = dict.runs();
        for (ri, &(start, code)) in runs.iter().enumerate() {
            let end = runs.get(ri + 1).map_or(dict.codes().len(), |&(s, _)| s as usize);
            assert!(dict.codes()[start as usize..end].iter().all(|&c| c == code));
        }
        // Small batches and explicit Plain mode keep the flat layout; Force
        // encodes even tiny batches.
        assert!(stock_batch().column(1).as_syms().is_some());
        let mut b = EventBatch::builder(Schema::stocks(), 2);
        b.push_row(1, &[Value::Int(1), Value::str("IBM"), Value::Float(1.0), Value::Int(1)])
            .unwrap();
        assert!(b.finish_with(DictMode::Force).column(1).as_dict().is_some());
    }

    #[test]
    fn high_cardinality_columns_stay_plain() {
        let mut b = EventBatch::builder(Schema::stocks(), DICT_MAX_CARD + 8);
        for i in 0..DICT_MAX_CARD + 8 {
            b.push_row(
                i as u64,
                &[Value::Int(0), Value::str(format!("s{i}")), Value::Float(1.0), Value::Int(1)],
            )
            .unwrap();
        }
        let batch = b.finish();
        assert!(batch.column(1).as_syms().is_some(), "257+ distinct symbols exceed u8 codes");
    }

    /// A stock batch with `n` rows from `ts0` on, under its own `Arc` of
    /// the schema; `names` cycles through the string column.
    fn source_batch(n: usize, ts0: Ts, names: &[&str]) -> EventBatch {
        let mut b = EventBatch::builder(Schema::stocks(), n);
        for i in 0..n {
            let row = [
                Value::Int(ts0 as i64 + i as i64),
                Value::str(names[i % names.len()]),
                Value::Float(i as f64 * 0.5),
                Value::Int(-(i as i64)),
            ];
            b.push_row(ts0 + i as u64, &row).unwrap();
        }
        b.finish()
    }

    #[test]
    fn gather_equals_the_validating_builder() {
        // Dictionary-encoded source, a plain (small) one, and a plain
        // high-cardinality one: three batches, three `Arc`s of one schema.
        let dict = source_batch(80, 0, &["IBM", "Sun", "Oracle"]);
        let small = source_batch(10, 0, &["Sun", "HP"]);
        let many: Vec<String> = (0..DICT_MAX_CARD + 4).map(|i| format!("s{i}")).collect();
        let many: Vec<&str> = many.iter().map(String::as_str).collect();
        let wide = source_batch(DICT_MAX_CARD + 4, 200, &many);
        assert!(dict.column(1).as_dict().is_some() && small.column(1).as_syms().is_some());
        assert!(wide.column(1).as_syms().is_some());
        assert!(!Arc::ptr_eq(dict.schema(), small.schema()));

        // Time-ordered interleavings big enough to encode, one small enough
        // to stay plain, one past the dictionary capacity, and one in
        // arrival order.
        let sorted: Vec<(&EventBatch, usize)> = (0..10)
            .flat_map(|i| [(&dict, i), (&small, i)])
            .chain((10..80).map(|i| (&dict, i)))
            .chain((0..10).map(|i| (&wide, i)))
            .collect();
        let short: Vec<(&EventBatch, usize)> = vec![(&dict, 3), (&small, 9), (&wide, 0)];
        let wide_rows: Vec<(&EventBatch, usize)> = (0..wide.len()).map(|i| (&wide, i)).collect();
        let shuffled: Vec<(&EventBatch, usize)> =
            (0..70).map(|i| (&dict, (i * 37) % 80)).chain([(&small, 4)]).collect();
        let mut shapes = Vec::new();
        for picks in [&sorted, &short, &wide_rows, &shuffled] {
            let events: Vec<Event> = picks.iter().map(|&(b, row)| b.event(row)).collect();
            let want = EventBatch::from_events(&events).unwrap();
            let got = gather(Schema::stocks(), picks.iter().map(|&(b, row)| (&**b.data(), row)));
            assert_eq!(got.ts_column(), want.ts_column());
            assert_eq!(got.is_sorted(), want.is_sorted());
            assert_eq!(got.max_ts(), want.max_ts());
            for field in 0..Schema::stocks().arity() {
                let (g, w) = (got.column(field), want.column(field));
                assert_eq!(g.as_dict().is_some(), w.as_dict().is_some(), "layout of {field}");
                assert_eq!(g.as_dict().map(DictStr::dict), w.as_dict().map(DictStr::dict));
                for row in 0..want.len() {
                    assert!(g.value(row).identical(&w.value(row)), "field {field} row {row}");
                }
            }
            shapes.push((want.is_sorted(), want.column(1).as_dict().is_some()));
        }
        // Sortedness and both string layouts were exercised.
        assert_eq!(shapes, [(true, true), (true, false), (true, false), (false, true)]);
    }

    #[test]
    fn round_trips_through_events() {
        let batch = stock_batch();
        let rebuilt = EventBatch::from_events(&batch.to_events()).unwrap();
        assert_eq!(rebuilt.len(), batch.len());
        for (a, b) in batch.iter().zip(rebuilt.iter()) {
            assert_eq!(a.to_string(), b.to_string());
        }
    }
}
