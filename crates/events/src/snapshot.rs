//! Binary snapshot encoding for durable checkpoints.
//!
//! Engine state must survive a process restart, so nothing process-local may
//! leak into the encoding: symbol **ids** depend on interning order and
//! batch ids on allocation order, so symbols serialize as their string bytes
//! (once, via a snapshot-local dictionary) and events as their row values.
//! Restoring re-interns strings and rebuilds rows into fresh batches; the
//! deterministic shard routing is unaffected because it hashes stable
//! content digests ([`Sym::digest`]), never raw ids.
//!
//! The encoding is a flat little-endian byte stream with three
//! snapshot-local dictionaries (symbols, schemas, events), each using the
//! same scheme: a reference writes the entry's dictionary index, and an
//! index equal to the current dictionary length introduces a new entry whose
//! body follows inline. Events referenced several times (a leaf entry and
//! an internal record sharing a constituent) are therefore stored once and
//! restored to one shared handle, preserving intra-snapshot identity.
//!
//! [`SnapshotWriter`] always writes into an in-memory buffer (worker shards
//! serialize into bytes that travel over a channel); callers persist the
//! assembled bytes however they like. [`SnapshotReader`] validates as it
//! decodes and fails with [`SnapshotError`] on truncated or corrupt input
//! instead of panicking.

// Decode paths must fail with errors, never panic: zlint rule `panic`
// enforces the invariant at lint time, and this clippy layer makes the
// worst offender unrepresentable at compile time too.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use crate::record::{Record, RecordView, Slot, ViewBody};
use crate::schema::Schema;
use crate::sym::Sym;
use crate::time::Ts;
use crate::value::{HashableValue, Value, ValueType};
use crate::{Event, EventRef};

/// Decoding failure: the byte stream does not describe a valid snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The stream ended before the expected data.
    Truncated,
    /// The stream decoded to something structurally invalid.
    Corrupt(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Truncated => write!(f, "snapshot truncated"),
            SnapshotError::Corrupt(what) => write!(f, "snapshot corrupt: {what}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Result alias for snapshot decoding.
pub type SnapshotResult<T> = Result<T, SnapshotError>;

/// State that can serialize itself into a checkpoint. Restoration is an
/// inherent associated function on each implementor (it needs
/// implementor-specific context — a compiled plan, intake predicates — that
/// a uniform trait method cannot carry).
pub trait Snapshot {
    /// Appends this component's state to the snapshot stream.
    fn write_snapshot(&self, w: &mut SnapshotWriter);
}

/// Append-only snapshot encoder with snapshot-local dictionaries.
#[derive(Debug, Default)]
pub struct SnapshotWriter {
    buf: Vec<u8>,
    syms: HashMap<Sym, u32>,
    schemas: Vec<Arc<Schema>>,
    /// Event identity → dictionary index (identities are only used for
    /// intra-snapshot dedup; they never enter the byte stream).
    events: HashMap<u64, u32>,
    /// The event dictionary's handles, in index order, when kept for an
    /// in-process copy ([`SnapshotWriter::keeping_events`]).
    kept: Option<Vec<EventRef>>,
}

impl SnapshotWriter {
    /// A fresh writer with empty dictionaries.
    pub fn new() -> SnapshotWriter {
        SnapshotWriter::default()
    }

    /// A fresh writer that also keeps every event it writes, for an
    /// in-process copy of the written state: read the bytes back with
    /// [`SnapshotReader::sharing`] and the copy holds the original event
    /// handles, not fresh ones (so it shares storage and identity — a later
    /// snapshot of original and copy dedups their events as before).
    pub fn keeping_events() -> SnapshotWriter {
        SnapshotWriter { kept: Some(Vec::new()), ..SnapshotWriter::default() }
    }

    /// Consumes the writer, returning the bytes and the events kept by a
    /// [`SnapshotWriter::keeping_events`] writer (empty otherwise), in
    /// dictionary order.
    pub fn into_parts(self) -> (Vec<u8>, Vec<EventRef>) {
        (self.buf, self.kept.unwrap_or_default())
    }

    /// The bytes written so far.
    pub fn bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Consumes the writer, returning the assembled bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Writes one raw byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a bool as one byte.
    pub fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    /// Writes a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian `i64`.
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes an `f64` by bit pattern (exact round trip, NaN payloads kept).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Writes a length or count (`usize` as `u64`).
    pub fn len(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Writes an optional `u64` (presence byte + value).
    pub fn opt_u64(&mut self, v: Option<u64>) {
        match v {
            Some(x) => {
                self.bool(true);
                self.u64(x);
            }
            None => self.bool(false),
        }
    }

    /// Writes a string as length-prefixed UTF-8 bytes.
    pub fn str(&mut self, s: &str) {
        self.len(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Writes a length-prefixed opaque byte blob.
    pub fn blob(&mut self, bytes: &[u8]) {
        self.len(bytes.len());
        self.buf.extend_from_slice(bytes);
    }

    /// Writes an interned symbol via the symbol dictionary: the id's first
    /// appearance carries the string bytes; later references are 4 bytes.
    pub fn sym(&mut self, s: Sym) {
        if let Some(&idx) = self.syms.get(&s) {
            self.u32(idx);
            return;
        }
        // zlint::allow(panic, "writer path, not decode: 2^32 dictionary entries cannot exist in memory before this overflows")
        let idx = u32::try_from(self.syms.len()).expect("snapshot symbol dictionary overflow");
        self.syms.insert(s, idx);
        self.u32(idx);
        self.str(s.as_str());
    }

    /// Writes a schema via the schema dictionary (content-compared; the
    /// first appearance carries name and typed fields).
    pub fn schema(&mut self, schema: &Arc<Schema>) {
        if let Some(idx) = self
            .schemas
            .iter()
            .position(|s| Arc::ptr_eq(s, schema) || s.as_ref() == schema.as_ref())
        {
            self.u32(idx as u32);
            return;
        }
        // zlint::allow(panic, "writer path, not decode: 2^32 dictionary entries cannot exist in memory before this overflows")
        let idx = u32::try_from(self.schemas.len()).expect("snapshot schema dictionary overflow");
        self.schemas.push(Arc::clone(schema));
        self.u32(idx);
        self.str(schema.name());
        self.len(schema.arity());
        for field in schema.fields() {
            self.str(&field.name);
            self.u8(value_type_tag(field.ty));
        }
    }

    /// Writes a primitive event via the event dictionary: the first
    /// appearance carries schema reference, timestamp and row values;
    /// every later reference to the same event is 4 bytes and restores to
    /// the same shared handle.
    pub fn event(&mut self, e: &EventRef) {
        if let Some(&idx) = self.events.get(&e.identity()) {
            self.u32(idx);
            return;
        }
        // zlint::allow(panic, "writer path, not decode: 2^32 dictionary entries cannot exist in memory before this overflows")
        let idx = u32::try_from(self.events.len()).expect("snapshot event dictionary overflow");
        self.events.insert(e.identity(), idx);
        if let Some(kept) = &mut self.kept {
            kept.push(e.clone());
        }
        self.u32(idx);
        self.schema(&Arc::clone(e.schema()));
        self.u64(e.ts());
        for field in 0..e.schema().arity() {
            self.value(e.value(field));
        }
    }

    /// Writes one attribute value (untagged; the reader knows the type from
    /// the schema field).
    fn value(&mut self, v: Value) {
        match v {
            Value::Int(i) => self.i64(i),
            Value::Float(f) => self.f64(f),
            Value::Str(s) => self.sym(s),
            Value::Bool(b) => self.bool(b),
        }
    }

    /// Writes a hashable key value (tagged — used for partition keys).
    pub fn hashable(&mut self, v: &HashableValue) {
        match v {
            HashableValue::Int(i) => {
                self.u8(0);
                self.i64(*i);
            }
            HashableValue::Float(bits) => {
                self.u8(1);
                self.u64(*bits);
            }
            HashableValue::Nan => self.u8(2),
            HashableValue::Str(s) => {
                self.u8(3);
                self.sym(*s);
            }
            HashableValue::Bool(b) => {
                self.u8(4);
                self.bool(*b);
            }
        }
    }

    /// Writes a buffer record: slots plus its explicit `[start, end]` span.
    /// A leaf entry writes as the one-slot record it stands for, so
    /// [`SnapshotReader::record`] reads either kind back as a [`Record`].
    pub fn record(&mut self, r: RecordView<'_>) {
        match r.body {
            ViewBody::Event(e) => {
                self.len(1);
                self.u8(1);
                self.event(e);
            }
            ViewBody::Slots(slots) => {
                self.len(slots.len());
                for slot in slots {
                    match slot {
                        Slot::None => self.u8(0),
                        Slot::One(e) => {
                            self.u8(1);
                            self.event(e);
                        }
                        Slot::Many(es) => {
                            self.u8(2);
                            self.len(es.len());
                            for e in es.iter() {
                                self.event(e);
                            }
                        }
                    }
                }
            }
        }
        self.u64(r.start_ts());
        self.u64(r.end_ts());
    }
}

fn value_type_tag(ty: ValueType) -> u8 {
    match ty {
        ValueType::Int => 0,
        ValueType::Float => 1,
        ValueType::Str => 2,
        ValueType::Bool => 3,
    }
}

fn value_type_from_tag(tag: u8) -> SnapshotResult<ValueType> {
    Ok(match tag {
        0 => ValueType::Int,
        1 => ValueType::Float,
        2 => ValueType::Str,
        3 => ValueType::Bool,
        other => return Err(SnapshotError::Corrupt(format!("unknown value-type tag {other}"))),
    })
}

/// Validating snapshot decoder over a byte slice, mirroring
/// [`SnapshotWriter`]'s dictionaries.
#[derive(Debug)]
pub struct SnapshotReader<'a> {
    buf: &'a [u8],
    pos: usize,
    syms: Vec<Sym>,
    schemas: Vec<Arc<Schema>>,
    events: Vec<EventRef>,
    /// Handles new event-dictionary entries restore to, by index (see
    /// [`SnapshotReader::sharing`]).
    shared: Vec<EventRef>,
}

impl<'a> SnapshotReader<'a> {
    /// A reader over `bytes` with empty dictionaries.
    pub fn new(bytes: &'a [u8]) -> SnapshotReader<'a> {
        SnapshotReader::sharing(bytes, Vec::new())
    }

    /// A reader over bytes a [`SnapshotWriter::keeping_events`] writer
    /// produced, given the events it kept: event-dictionary entry `i`
    /// restores to `events[i]` (its stored row is still decoded and
    /// validated) instead of to a fresh handle.
    pub fn sharing(bytes: &'a [u8], events: Vec<EventRef>) -> SnapshotReader<'a> {
        SnapshotReader {
            buf: bytes,
            pos: 0,
            syms: Vec::new(),
            schemas: Vec::new(),
            events: Vec::new(),
            shared: events,
        }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when every byte has been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize) -> SnapshotResult<&'a [u8]> {
        if self.remaining() < n {
            return Err(SnapshotError::Truncated);
        }
        // zlint::allow(panic, "range is in bounds: the remaining() guard above rejects n > buf.len() - pos")
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Takes exactly `N` bytes as a fixed-size array. Decode errors surface
    /// as [`SnapshotError::Truncated`]; nothing on this path panics.
    fn take_array<const N: usize>(&mut self) -> SnapshotResult<[u8; N]> {
        let s = self.take(N)?;
        <[u8; N]>::try_from(s).map_err(|_| SnapshotError::Truncated)
    }

    /// Reads one raw byte.
    pub fn u8(&mut self) -> SnapshotResult<u8> {
        Ok(self.take(1)?[0])
    }

    /// Reads a bool, rejecting bytes other than 0 and 1.
    pub fn bool(&mut self) -> SnapshotResult<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(SnapshotError::Corrupt(format!("invalid bool byte {other}"))),
        }
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> SnapshotResult<u32> {
        Ok(u32::from_le_bytes(self.take_array::<4>()?))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> SnapshotResult<u64> {
        Ok(u64::from_le_bytes(self.take_array::<8>()?))
    }

    /// Reads a little-endian `i64`.
    pub fn i64(&mut self) -> SnapshotResult<i64> {
        Ok(i64::from_le_bytes(self.take_array::<8>()?))
    }

    /// Reads an `f64` by bit pattern.
    pub fn f64(&mut self) -> SnapshotResult<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a length/count, bounds-checked against the remaining bytes so a
    /// corrupt length cannot trigger a huge allocation.
    // Not a container length — it decodes a length *prefix* from the stream.
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&mut self) -> SnapshotResult<usize> {
        let v = self.u64()?;
        let v = usize::try_from(v)
            .map_err(|_| SnapshotError::Corrupt(format!("length {v} exceeds usize")))?;
        // Every counted element occupies at least one byte in the stream.
        if v > self.remaining() {
            return Err(SnapshotError::Truncated);
        }
        Ok(v)
    }

    /// Reads an optional `u64`.
    pub fn opt_u64(&mut self) -> SnapshotResult<Option<u64>> {
        Ok(if self.bool()? { Some(self.u64()?) } else { None })
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> SnapshotResult<String> {
        let n = self.len()?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| SnapshotError::Corrupt("invalid UTF-8 string".into()))
    }

    /// Reads a length-prefixed opaque byte blob.
    pub fn blob(&mut self) -> SnapshotResult<&'a [u8]> {
        let n = self.len()?;
        self.take(n)
    }

    /// Reads a symbol reference, re-interning new entries.
    pub fn sym(&mut self) -> SnapshotResult<Sym> {
        let idx = self.u32()? as usize;
        if let Some(&known) = self.syms.get(idx) {
            return Ok(known);
        }
        if idx != self.syms.len() {
            return Err(SnapshotError::Corrupt(format!("symbol index {idx} out of order")));
        }
        let s = Sym::intern(&self.str()?);
        self.syms.push(s);
        Ok(s)
    }

    /// Reads a schema reference, rebuilding new entries.
    pub fn schema(&mut self) -> SnapshotResult<Arc<Schema>> {
        let idx = self.u32()? as usize;
        if let Some(known) = self.schemas.get(idx) {
            return Ok(Arc::clone(known));
        }
        if idx != self.schemas.len() {
            return Err(SnapshotError::Corrupt(format!("schema index {idx} out of order")));
        }
        let name = self.str()?;
        let arity = self.len()?;
        let mut builder = Schema::builder(name);
        for _ in 0..arity {
            let field = self.str()?;
            let ty = value_type_from_tag(self.u8()?)?;
            builder = builder.field(field, ty);
        }
        let schema = Arc::new(
            builder.build().map_err(|e| SnapshotError::Corrupt(format!("invalid schema: {e}")))?,
        );
        self.schemas.push(Arc::clone(&schema));
        Ok(schema)
    }

    /// Reads an event reference, rebuilding new entries into fresh storage.
    /// References to the same dictionary entry restore to one shared handle.
    pub fn event(&mut self) -> SnapshotResult<EventRef> {
        let idx = self.u32()? as usize;
        if let Some(known) = self.events.get(idx) {
            return Ok(known.clone());
        }
        if idx != self.events.len() {
            return Err(SnapshotError::Corrupt(format!("event index {idx} out of order")));
        }
        let schema = self.schema()?;
        let ts = self.u64()?;
        let mut values = Vec::with_capacity(schema.arity());
        for field in schema.fields().iter().map(|f| f.ty).collect::<Vec<_>>() {
            values.push(self.value(field)?);
        }
        let event = Event::new(schema, ts, values)
            .map_err(|e| SnapshotError::Corrupt(format!("invalid event row: {e}")))?;
        let event = self.shared.get(idx).cloned().unwrap_or(event);
        self.events.push(event.clone());
        Ok(event)
    }

    fn value(&mut self, ty: ValueType) -> SnapshotResult<Value> {
        Ok(match ty {
            ValueType::Int => Value::Int(self.i64()?),
            ValueType::Float => Value::Float(self.f64()?),
            ValueType::Str => Value::Str(self.sym()?),
            ValueType::Bool => Value::Bool(self.bool()?),
        })
    }

    /// Reads a hashable key value.
    pub fn hashable(&mut self) -> SnapshotResult<HashableValue> {
        Ok(match self.u8()? {
            0 => HashableValue::Int(self.i64()?),
            1 => HashableValue::Float(self.u64()?),
            2 => HashableValue::Nan,
            3 => HashableValue::Str(self.sym()?),
            4 => HashableValue::Bool(self.bool()?),
            other => {
                return Err(SnapshotError::Corrupt(format!("unknown hashable tag {other}")));
            }
        })
    }

    /// Reads a buffer record.
    pub fn record(&mut self) -> SnapshotResult<Record> {
        let n = self.len()?;
        let mut slots = Vec::with_capacity(n);
        for _ in 0..n {
            slots.push(match self.u8()? {
                0 => Slot::None,
                1 => Slot::One(self.event()?),
                2 => {
                    let k = self.len()?;
                    let mut events = Vec::with_capacity(k);
                    for _ in 0..k {
                        events.push(self.event()?);
                    }
                    Slot::Many(events.into())
                }
                other => {
                    return Err(SnapshotError::Corrupt(format!("unknown slot tag {other}")));
                }
            });
        }
        let start: Ts = self.u64()?;
        let end: Ts = self.u64()?;
        if start > end {
            return Err(SnapshotError::Corrupt(format!("record span {start}..{end} inverted")));
        }
        Ok(Record::from_slots_with_span(slots, start, end))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::stock;

    #[test]
    fn primitives_round_trip() {
        let mut w = SnapshotWriter::new();
        w.u8(7);
        w.bool(true);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX);
        w.i64(-42);
        w.f64(-0.0);
        w.f64(f64::NAN);
        w.opt_u64(Some(9));
        w.opt_u64(None);
        w.str("hello");
        w.blob(&[1, 2, 3]);
        let bytes = w.into_bytes();
        let mut r = SnapshotReader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert!(r.bool().unwrap());
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX);
        assert_eq!(r.i64().unwrap(), -42);
        assert_eq!(r.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(r.f64().unwrap().is_nan());
        assert_eq!(r.opt_u64().unwrap(), Some(9));
        assert_eq!(r.opt_u64().unwrap(), None);
        assert_eq!(r.str().unwrap(), "hello");
        assert_eq!(r.blob().unwrap(), &[1, 2, 3]);
        assert!(r.is_exhausted());
    }

    #[test]
    fn symbol_dictionary_stores_strings_once() {
        let mut w = SnapshotWriter::new();
        w.sym(Sym::intern("IBM"));
        let after_first = w.bytes().len();
        w.sym(Sym::intern("IBM"));
        let after_second = w.bytes().len();
        assert_eq!(after_second - after_first, 4, "repeat reference is an index only");
        let bytes = w.into_bytes();
        let mut r = SnapshotReader::new(&bytes);
        assert_eq!(r.sym().unwrap(), Sym::intern("IBM"));
        assert_eq!(r.sym().unwrap(), Sym::intern("IBM"));
    }

    #[test]
    fn events_dedup_and_restore_to_shared_handles() {
        let e = stock(5, 1, "IBM", 101.5, 300);
        let other = stock(6, 2, "Sun", 9.0, 1);
        let mut w = SnapshotWriter::new();
        w.event(&e);
        w.event(&other);
        w.event(&e); // second reference: index only
        let bytes = w.into_bytes();
        let mut r = SnapshotReader::new(&bytes);
        let a = r.event().unwrap();
        let b = r.event().unwrap();
        let c = r.event().unwrap();
        assert!(r.is_exhausted());
        assert_eq!(a.to_string(), e.to_string());
        assert_eq!(b.to_string(), other.to_string());
        assert_eq!(a.identity(), c.identity(), "same dictionary entry restores to one handle");
        assert_ne!(a.identity(), b.identity());
    }

    #[test]
    fn a_kept_copy_restores_to_the_original_handles() {
        let (e, other) = (stock(5, 1, "IBM", 101.5, 300), stock(6, 2, "Sun", 9.0, 1));
        let mut w = SnapshotWriter::keeping_events();
        w.event(&e);
        w.event(&other);
        w.event(&e);
        let (bytes, kept) = w.into_parts();
        assert_eq!(bytes, {
            let mut plain = SnapshotWriter::new();
            [&e, &other, &e].into_iter().for_each(|x| plain.event(x));
            plain.into_bytes()
        });
        let mut r = SnapshotReader::sharing(&bytes, kept);
        let got: Vec<u64> = (0..3).map(|_| r.event().unwrap().identity()).collect();
        assert!(r.is_exhausted());
        assert_eq!(got, [e.identity(), other.identity(), e.identity()]);
    }

    #[test]
    fn records_round_trip_with_explicit_span() {
        let a = stock(2, 1, "IBM", 1.0, 1);
        let b = stock(7, 2, "Sun", 2.0, 1);
        let group: std::sync::Arc<[EventRef]> = vec![a.clone(), b.clone()].into();
        // NSEQ-style record: a None slot and a span narrower than the slots
        // imply must survive the round trip exactly.
        let rec = Record::from_slots_with_span(
            vec![Slot::None, Slot::One(a.clone()), Slot::Many(group)],
            2,
            7,
        );
        let mut w = SnapshotWriter::new();
        w.record(rec.view());
        let bytes = w.into_bytes();
        let mut r = SnapshotReader::new(&bytes);
        let back = r.record().unwrap();
        assert_eq!(back.start_ts(), 2);
        assert_eq!(back.end_ts(), 7);
        assert_eq!(back.slots().len(), 3);
        assert!(matches!(back.slot(0), Slot::None));
        assert_eq!(back.slot(1).as_one().unwrap().to_string(), a.to_string());
        assert_eq!(back.slot(2).events().len(), 2);
        // The shared constituent keeps one identity inside the snapshot.
        assert_eq!(back.slot(1).as_one().unwrap().identity(), back.slot(2).events()[0].identity());
    }

    #[test]
    fn a_leaf_entry_writes_as_its_one_slot_record() {
        let e = stock(4, 1, "IBM", 1.0, 1);
        let bytes = |view: RecordView<'_>| {
            let mut w = SnapshotWriter::new();
            w.record(view);
            w.into_bytes()
        };
        let leaf = bytes(RecordView::event(4, &e));
        assert_eq!(leaf, bytes(Record::primitive(e.clone()).view()));
        let back = SnapshotReader::new(&leaf).record().unwrap();
        assert_eq!((back.start_ts(), back.end_ts()), (4, 4));
        assert_eq!(back.slot(0).as_one().unwrap().to_string(), e.to_string());
    }

    #[test]
    fn hashable_values_round_trip() {
        let keys = [
            HashableValue::Int(-3),
            HashableValue::Float(2.5f64.to_bits()),
            HashableValue::Nan,
            HashableValue::Str(Sym::intern("Oracle")),
            HashableValue::Bool(true),
        ];
        let mut w = SnapshotWriter::new();
        for k in &keys {
            w.hashable(k);
        }
        let bytes = w.into_bytes();
        let mut r = SnapshotReader::new(&bytes);
        for k in &keys {
            assert_eq!(r.hashable().unwrap(), *k);
        }
    }

    #[test]
    fn truncated_and_corrupt_input_fail_cleanly() {
        let mut w = SnapshotWriter::new();
        w.event(&stock(1, 1, "IBM", 1.0, 1));
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            let err = SnapshotReader::new(&bytes[..cut]).event().unwrap_err();
            assert!(matches!(err, SnapshotError::Truncated | SnapshotError::Corrupt(_)));
        }
        // A wildly out-of-range length must not allocate.
        let mut w = SnapshotWriter::new();
        w.u64(u64::MAX / 2);
        let bytes = w.into_bytes();
        assert_eq!(SnapshotReader::new(&bytes).len().unwrap_err(), SnapshotError::Truncated);
        // Forward dictionary references are corrupt, not panics.
        let mut w = SnapshotWriter::new();
        w.u32(5);
        let bytes = w.into_bytes();
        assert!(matches!(
            SnapshotReader::new(&bytes).sym().unwrap_err(),
            SnapshotError::Corrupt(_)
        ));
    }

    #[test]
    fn schemas_dedup_by_content() {
        let mut w = SnapshotWriter::new();
        w.schema(&Schema::stocks());
        let after_first = w.bytes().len();
        w.schema(&Schema::stocks()); // distinct Arc, same content
        assert_eq!(w.bytes().len() - after_first, 4);
        let bytes = w.into_bytes();
        let mut r = SnapshotReader::new(&bytes);
        let a = r.schema().unwrap();
        let b = r.schema().unwrap();
        assert!(Arc::ptr_eq(&a, &b), "one dictionary entry restores to one Arc");
        assert_eq!(a.as_ref(), Schema::stocks().as_ref());
    }
}
