//! Hash evaluation of equality predicates (§5.2.2).
//!
//! When a node's predicates include equalities `A.f = B.f` between its two
//! sides, ZStream builds a hash table keyed on the left side's attribute(s)
//! and probes it with each right record instead of scanning the whole left
//! buffer. Multiple equality predicates at one node form a composite key —
//! the paper's "primary and secondary hash tables" collapse into one
//! composite-keyed table with identical semantics. A key is a plain value,
//! stored inline: extracting one allocates nothing.

use std::collections::HashMap;

use zstream_events::{HashableValue, RecordView};
use zstream_lang::ClassId;

use crate::physical::binding::ClassMap;
use crate::physical::buffer::Buffer;

/// One key component: read `field` of the event bound to `class`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeyPart {
    /// Class whose event supplies the key.
    pub class: ClassId,
    /// Field index within that class's schema.
    pub field: usize,
}

/// Specification of a hash join at one node.
#[derive(Debug, Clone)]
pub struct HashSpec {
    /// Key extractors on the left (build) side.
    pub left: Vec<KeyPart>,
    /// Key extractors on the right (probe) side, aligned with `left`.
    pub right: Vec<KeyPart>,
    /// Indexes (into the node's predicate list) covered by this hash join;
    /// they are skipped during per-pair predicate evaluation.
    pub covered_preds: Vec<usize>,
}

/// The most parts a composite key holds. A node with more cross-child
/// equalities hashes on the first `MAX_KEY_PARTS` and evaluates the rest
/// per pair.
pub const MAX_KEY_PARTS: usize = 4;

/// A hash key: one value — every paper query's case — or up to
/// [`MAX_KEY_PARTS`] values inline. One index's keys all have its spec's
/// part count, so the padding of a short composite never makes two keys
/// of one index equal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HashKey {
    /// A single-part key.
    One(HashableValue),
    /// A composite key; parts past the spec's count hold a fixed pad.
    Many([HashableValue; MAX_KEY_PARTS]),
}

/// A hash index over a build-side buffer: key → entry indexes in buffer
/// order. Maintained incrementally; rebuilt when the buffer prunes.
#[derive(Debug, Default)]
pub struct HashIndex {
    map: HashMap<HashKey, Vec<u32>>,
    /// Records whose key could not be extracted (an equality attribute's
    /// class left unbound by a disjunction): they match every probe
    /// vacuously and are appended to every candidate list.
    unkeyed: Vec<u32>,
    indexed: usize,
    entries: usize,
    /// The build buffer's [`Buffer::shifts`] when this index was built.
    shifts: u64,
}

impl HashIndex {
    /// An empty index.
    pub fn new() -> HashIndex {
        HashIndex::default()
    }

    /// Extracts the key of `rec` using `parts` (at most [`MAX_KEY_PARTS`]);
    /// `None` when any part's class is unbound (such entries can never
    /// satisfy the equality).
    pub fn key_of(rec: RecordView<'_>, map: &ClassMap, parts: &[KeyPart]) -> Option<HashKey> {
        let value =
            |p: &KeyPart| rec.one(map.slot_of(p.class)?).map(|e| e.value(p.field).hash_key());
        if let [part] = parts {
            return value(part).map(HashKey::One);
        }
        debug_assert!(parts.len() <= MAX_KEY_PARTS, "{} key parts", parts.len());
        let mut key = [HashableValue::Bool(false); MAX_KEY_PARTS];
        for (slot, part) in key.iter_mut().zip(parts) {
            *slot = value(part)?;
        }
        Some(HashKey::Many(key))
    }

    /// Brings the index up to date with `buffer`: indexes new entries, or
    /// rebuilds when the buffer removed entries since (their indexes
    /// shifted).
    pub fn sync(&mut self, buffer: &Buffer, map: &ClassMap, parts: &[KeyPart]) {
        if self.shifts != buffer.shifts() {
            self.rebuild(buffer, map, parts);
            return;
        }
        while self.indexed < buffer.len() {
            let idx = self.indexed;
            match Self::key_of(buffer.get(idx), map, parts) {
                Some(key) => {
                    self.map.entry(key).or_default().push(idx as u32);
                    self.entries += 1;
                }
                None => self.unkeyed.push(idx as u32),
            }
            self.indexed += 1;
        }
    }

    /// Rebuilds from scratch (after the underlying buffer removed entries
    /// and indexes shifted; [`HashIndex::sync`] calls it when needed).
    fn rebuild(&mut self, buffer: &Buffer, map: &ClassMap, parts: &[KeyPart]) {
        self.map.clear();
        self.unkeyed.clear();
        self.indexed = 0;
        self.entries = 0;
        self.shifts = buffer.shifts();
        self.sync(buffer, map, parts);
    }

    /// Build-side record indexes matching `key`, in buffer order.
    pub fn probe(&self, key: &HashKey) -> &[u32] {
        self.map.get(key).map_or(&[], Vec::as_slice)
    }

    /// Records with no extractable key (they match any probe vacuously).
    pub fn unkeyed(&self) -> &[u32] {
        &self.unkeyed
    }

    /// Number of indexed entries (for memory accounting).
    pub fn entries(&self) -> usize {
        self.entries
    }

    /// Approximate footprint in bytes for the logical memory accounting.
    pub fn bytes(&self) -> usize {
        self.entries * (std::mem::size_of::<HashableValue>() + std::mem::size_of::<u32>())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zstream_events::stock;

    fn buf_with(names: &[(&str, u64)]) -> (Buffer, ClassMap) {
        let mut b = Buffer::leaf();
        for (name, ts) in names {
            b.push_event(*ts, stock(*ts, *ts as i64, name, 1.0, 1));
        }
        (b, ClassMap::new(1, &[0]))
    }

    fn name_key() -> Vec<KeyPart> {
        vec![KeyPart { class: 0, field: 1 }]
    }

    #[test]
    fn probe_returns_matching_indexes_in_order() {
        let (b, map) = buf_with(&[("IBM", 1), ("Sun", 2), ("IBM", 3)]);
        let mut idx = HashIndex::new();
        idx.sync(&b, &map, &name_key());
        let key = HashIndex::key_of(b.get(0), &map, &name_key()).unwrap();
        assert_eq!(idx.probe(&key), &[0, 2]);
        assert_eq!(idx.entries(), 3);
    }

    #[test]
    fn sync_is_incremental() {
        let (mut b, map) = buf_with(&[("IBM", 1)]);
        let mut idx = HashIndex::new();
        idx.sync(&b, &map, &name_key());
        b.push_event(5, stock(5, 5, "IBM", 1.0, 1));
        idx.sync(&b, &map, &name_key());
        let key = HashIndex::key_of(b.get(0), &map, &name_key()).unwrap();
        assert_eq!(idx.probe(&key), &[0, 1]);
    }

    #[test]
    fn rebuild_after_prune_fixes_indexes() {
        let (mut b, map) = buf_with(&[("IBM", 1), ("IBM", 2), ("IBM", 3)]);
        let mut idx = HashIndex::new();
        idx.sync(&b, &map, &name_key());
        b.prune(3);
        idx.rebuild(&b, &map, &name_key());
        let key = HashIndex::key_of(b.get(0), &map, &name_key()).unwrap();
        assert_eq!(idx.probe(&key), &[0]);
        assert_eq!(b.get(0).end_ts(), 3);
    }

    #[test]
    fn sync_rebuilds_after_the_buffer_pruned() {
        let (mut b, map) = buf_with(&[("IBM", 1), ("Sun", 2), ("IBM", 3)]);
        let mut idx = HashIndex::new();
        idx.sync(&b, &map, &name_key());
        b.prune(2);
        b.push_event(4, stock(4, 4, "IBM", 1.0, 1));
        idx.sync(&b, &map, &name_key());
        let key = HashIndex::key_of(b.get(1), &map, &name_key()).unwrap();
        assert_eq!(idx.probe(&key), &[1, 2]);
        assert_eq!(idx.entries(), 3);
    }

    #[test]
    fn mixed_type_equality_join_keys_coerce() {
        // Regression (§5.2.2 hashable form): an equality join between an
        // `int` column and a `float` column must treat `Int(v)` and
        // `Float(v as f64)` as the same key — and must NOT collapse large
        // integers that only collide after a lossy f64 cast.
        use std::sync::Arc;
        use zstream_events::{Event, Schema, Value, ValueType};
        let int_schema =
            Arc::new(Schema::builder("IntSide").field("k", ValueType::Int).build().unwrap());
        let float_schema =
            Arc::new(Schema::builder("FloatSide").field("k", ValueType::Float).build().unwrap());
        let big = 1i64 << 53;
        let mut build = Buffer::leaf();
        for (ts, v) in [(1, 2), (2, big), (3, big + 1)] {
            let e = Event::new(Arc::clone(&int_schema), ts, vec![Value::Int(v)]).unwrap();
            build.push_event(ts, e);
        }
        let map = ClassMap::new(2, &[0]);
        let parts = vec![KeyPart { class: 0, field: 0 }];
        let mut idx = HashIndex::new();
        idx.sync(&build, &map, &parts);

        let probe_key = |v: f64| {
            let e = Event::new(Arc::clone(&float_schema), 9, vec![Value::Float(v)]).unwrap();
            let pmap = ClassMap::new(2, &[1]);
            HashIndex::key_of(RecordView::event(9, &e), &pmap, &[KeyPart { class: 1, field: 0 }])
                .unwrap()
        };
        // Float(2.0) finds Int(2).
        assert_eq!(idx.probe(&probe_key(2.0)), &[0]);
        // Float(2^53) finds exactly Int(2^53) — not the neighbour that a
        // lossy cast would have merged into the same bucket *and* treated
        // as join-equal.
        assert_eq!(idx.probe(&probe_key(big as f64)), &[1]);
        // Non-integral probe finds nothing.
        assert!(idx.probe(&probe_key(2.5)).is_empty());
    }

    #[test]
    fn composite_keys_distinguish_pairs() {
        // Key on (name, volume).
        let mut b = Buffer::leaf();
        b.push_event(1, stock(1, 1, "IBM", 1.0, 10));
        b.push_event(2, stock(2, 2, "IBM", 1.0, 20));
        let map = ClassMap::new(1, &[0]);
        let parts = vec![KeyPart { class: 0, field: 1 }, KeyPart { class: 0, field: 3 }];
        let mut idx = HashIndex::new();
        idx.sync(&b, &map, &parts);
        let k0 = HashIndex::key_of(b.get(0), &map, &parts).unwrap();
        let k1 = HashIndex::key_of(b.get(1), &map, &parts).unwrap();
        assert_ne!(k0, k1);
        assert_eq!(idx.probe(&k0), &[0]);
    }
}
