//! Packed match output.
//!
//! A [`MatchBatch`] is what an assembly round (or a shard reply) hands on
//! instead of one boxed [`Record`] per match. It keeps each distinct source
//! [`BatchData`] once, and describes every match by `(source, row)` ids
//! into those sources: a fixed-size entry per match (start, end, and a
//! range of slots), a slot arena holding single events inline, and a flat
//! id arena that Kleene groups index by offset range. Packing touches no
//! refcount and allocates nothing per match; a [`Record`] is built from the
//! ids only where a consumer asks for one ([`MatchBatch::record`]) — on the
//! thread that will also drop it.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

use crate::record::{Part, Record, Slot};
use crate::soa::BatchData;
use crate::time::Ts;
use crate::Event;

/// One packed event: an index into the batch's sources and a row there.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct EventId {
    source: u32,
    row: u32,
}

/// One packed slot (see [`Slot`]).
#[derive(Debug, Clone, Copy)]
enum PackedSlot {
    None,
    One(EventId),
    /// A Kleene group: `len` ids of the id arena from `start`.
    Many {
        start: u32,
        len: u32,
    },
}

/// One match: its span and its slots, `width` of them from `first`.
#[derive(Debug, Clone, Copy)]
struct Entry {
    start: Ts,
    end: Ts,
    first: u32,
    width: u32,
}

/// Matches in packed form; see the module docs.
#[derive(Debug, Default)]
pub struct MatchBatch {
    sources: Vec<Arc<BatchData>>,
    /// Index into `sources` by batch id, built once there are more than
    /// [`SCAN_SOURCES`] of them (a restore leaves every retained event in
    /// its own one-row batch); empty until then, whole after.
    source_index: HashMap<u64, u32, BuildHasherDefault<BatchIdHasher>>,
    entries: Vec<Entry>,
    slots: Vec<PackedSlot>,
    /// Kleene group members, in group order.
    group_ids: Vec<EventId>,
}

impl MatchBatch {
    /// An empty batch (allocates nothing).
    pub fn new() -> MatchBatch {
        MatchBatch::default()
    }

    /// Number of matches.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the batch holds no match.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of distinct source batches the matches point into.
    pub fn num_sources(&self) -> usize {
        self.sources.len()
    }

    /// Appends one match made of `parts` (in slot order) with the given
    /// span — the packed twin of [`Record::from_parts`].
    pub fn push(&mut self, parts: &[Part<'_>], start: Ts, end: Ts) {
        debug_assert!(start <= end);
        let first = self.slots.len();
        for part in parts {
            match *part {
                Part::Slots(slots) => {
                    for slot in slots {
                        let packed = match slot {
                            Slot::None => PackedSlot::None,
                            Slot::One(e) => PackedSlot::One(self.id_of(e)),
                            Slot::Many(es) => self.pack_group(es),
                        };
                        self.slots.push(packed);
                    }
                }
                Part::Nulls(n) => {
                    self.slots.extend(std::iter::repeat_n(PackedSlot::None, n));
                }
                Part::One(e) => {
                    let id = self.id_of(e);
                    self.slots.push(PackedSlot::One(id));
                }
                Part::Group(es) => {
                    let group = self.pack_group(es);
                    self.slots.push(group);
                }
            }
        }
        let width = self.slots.len() - first;
        self.entries.push(Entry { start, end, first: to_u32(first), width: to_u32(width) });
    }

    /// Moves every match of `other` to the end of this batch, in order.
    pub fn append(&mut self, other: MatchBatch) {
        if self.entries.is_empty() && self.sources.is_empty() {
            *self = other;
            return;
        }
        self.extend_from(&other);
    }

    /// Copies every match of `other` to the end of this batch, in order:
    /// ids and spans are copied, and each source of `other` not yet here
    /// costs one refcount bump — no event or record is built.
    pub fn extend_from(&mut self, other: &MatchBatch) {
        let remap: Vec<u32> = other.sources.iter().map(|s| self.intern(s)).collect();
        let remap = |id: EventId| EventId { source: remap[id.source as usize], row: id.row };
        let (slot_base, group_base) = (to_u32(self.slots.len()), to_u32(self.group_ids.len()));
        self.group_ids.extend(other.group_ids.iter().map(|id| remap(*id)));
        self.slots.extend(other.slots.iter().map(|slot| match *slot {
            PackedSlot::None => PackedSlot::None,
            PackedSlot::One(id) => PackedSlot::One(remap(id)),
            PackedSlot::Many { start, len } => PackedSlot::Many { start: start + group_base, len },
        }));
        self.entries
            .extend(other.entries.iter().map(|e| Entry { first: e.first + slot_base, ..*e }));
    }

    /// Stable-sorts the matches by end timestamp. Returns the permutation
    /// applied — position `k` now holds the match that was at `order[k]` —
    /// or `None` when the matches were already in that order and nothing
    /// moved.
    pub fn sort_by_end(&mut self) -> Option<Vec<u32>> {
        if self.entries.is_sorted_by_key(|e| e.end) {
            return None;
        }
        let mut order: Vec<u32> = (0..to_u32(self.entries.len())).collect();
        order.sort_by_key(|&i| self.entries[i as usize].end);
        self.entries = order.iter().map(|&i| self.entries[i as usize]).collect();
        Some(order)
    }

    /// Builds match `i` as a [`Record`]: one slot array, one refcount bump
    /// per bound event.
    pub fn record(&self, i: usize) -> Record {
        let e = self.entries[i];
        let slots = &self.slots[e.first as usize..(e.first + e.width) as usize];
        let slots = slots
            .iter()
            .map(|slot| match *slot {
                PackedSlot::None => Slot::None,
                PackedSlot::One(id) => Slot::One(self.event(id)),
                PackedSlot::Many { start, len } => Slot::Many(
                    self.group_ids[start as usize..(start + len) as usize]
                        .iter()
                        .map(|id| self.event(*id))
                        .collect(),
                ),
            })
            .collect();
        Record::from_slots_with_span(slots, e.start, e.end)
    }

    /// Builds every match, in order (see [`MatchBatch::record`]).
    pub fn records(&self) -> Vec<Record> {
        (0..self.len()).map(|i| self.record(i)).collect()
    }

    fn event(&self, id: EventId) -> Event {
        Event::from_batch(Arc::clone(&self.sources[id.source as usize]), id.row)
    }

    fn id_of(&mut self, e: &Event) -> EventId {
        let (data, row) = e.batch_row();
        EventId { source: self.intern(data), row }
    }

    fn pack_group(&mut self, es: &[Event]) -> PackedSlot {
        let start = to_u32(self.group_ids.len());
        for e in es {
            let id = self.id_of(e);
            self.group_ids.push(id);
        }
        PackedSlot::Many { start, len: to_u32(es.len()) }
    }

    /// The index of `data` among the sources, adding it on first sight.
    /// A round or reply usually spans one or two input batches, so up to
    /// [`SCAN_SOURCES`] sources are scanned; past that the id index answers
    /// in O(1) however many there are.
    fn intern(&mut self, data: &Arc<BatchData>) -> u32 {
        let found = if self.source_index.is_empty() {
            self.sources.iter().rposition(|s| Arc::ptr_eq(s, data)).map(to_u32)
        } else {
            self.source_index.get(&data.id()).copied()
        };
        if let Some(i) = found {
            return i;
        }
        let i = to_u32(self.sources.len());
        self.sources.push(Arc::clone(data));
        if self.sources.len() > SCAN_SOURCES {
            let indexed = self.source_index.len();
            for (k, s) in self.sources.iter().enumerate().skip(indexed) {
                self.source_index.insert(s.id(), to_u32(k));
            }
        }
        i
    }
}

/// Sources a [`MatchBatch`] finds by scanning before it indexes them. An
/// index from the first source costs one hash table per emitting engine
/// round — 8–10 % of `alarm-1000q` throughput on a 2-vCPU host, where a
/// round's sources are almost always one batch.
const SCAN_SOURCES: usize = 8;

/// Hashes a batch id (a process-wide counter) with one multiply, folding
/// the well-mixed high bits down into the bits the table indexes by.
#[derive(Default)]
struct BatchIdHasher(u64);

impl Hasher for BatchIdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(b);
        }
    }

    fn write_u64(&mut self, id: u64) {
        self.0 = id;
    }

    fn finish(&self) -> u64 {
        let h = self.0.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        h ^ (h >> 32)
    }
}

/// An arena offset as stored: a batch holds far fewer than 2³² slots.
fn to_u32(n: usize) -> u32 {
    u32::try_from(n).expect("match batch arenas stay below 2^32 entries")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::stock;
    use crate::EventBatch;

    /// Three source batches of eight rows each, timestamps interleaved
    /// across them so spans mix sources.
    fn sources() -> Vec<EventBatch> {
        (0..3u64)
            .map(|b| {
                let rows: Vec<Event> =
                    (0..8u64).map(|r| stock(r * 3 + b, (b * 8 + r) as i64, "S", 1.0, 1)).collect();
                EventBatch::from_events(&rows).unwrap()
            })
            .collect()
    }

    /// `(kind, source, row, group length)` → a slot over `sources`.
    type SlotSpec = (u8, usize, u32, usize);

    fn build(spec: &[SlotSpec], sources: &[EventBatch], start: Ts) -> Record {
        let slots: Vec<Slot> = spec
            .iter()
            .map(|&(kind, source, row, len)| match kind {
                0 => Slot::None,
                1 => Slot::One(sources[source].event(row as usize)),
                _ => Slot::Many(
                    (0..len)
                        .map(|k| sources[(source + k) % 3].event((row as usize + k) % 8))
                        .collect(),
                ),
            })
            .collect();
        let ts = slots.iter().flat_map(|s| s.events().iter().map(Event::ts));
        let (lo, hi) = (ts.clone().min(), ts.max());
        Record::from_slots_with_span(slots, lo.unwrap_or(start), hi.unwrap_or(start + 5))
    }

    /// Everything a built record exposes: per slot its kind and its events'
    /// `(batch id, row)`, the span, and the footprint.
    type Shape = (Vec<(u8, Vec<(u64, u32)>)>, Ts, Ts, usize);

    fn shape(r: &Record) -> Shape {
        let slots = r
            .slots()
            .iter()
            .map(|s| {
                let kind = match s {
                    Slot::None => 0,
                    Slot::One(_) => 1,
                    Slot::Many(_) => 2,
                };
                let ids = s.events().iter().map(|e| (e.batch_row().0.id(), e.batch_row().1));
                (kind, ids.collect())
            })
            .collect();
        (slots, r.start_ts(), r.end_ts(), r.footprint())
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig { cases: 128 })]

        /// Packing an operator's output then building it reproduces the
        /// record the operator would have built directly, for `None`,
        /// `One` (from three source batches) and `Many` slots of 0–5
        /// events — also after the batch is appended to, or copied into,
        /// another.
        #[test]
        fn pack_then_build_reproduces_the_record_operations(
            left in proptest::prop::collection::vec((0u8..3, 0usize..3, 0u32..8, 0usize..6), 0..4),
            right in proptest::prop::collection::vec((0u8..3, 0usize..3, 0u32..8, 0usize..6), 0..4),
            lead in 0usize..3,
        ) {
            let sources = sources();
            let (l, r) = (build(&left, &sources, 2), build(&right, &sources, 7));
            let expected = [
                Record::combine(&l, &r),
                Record::with_null_left(&r),
                Record::with_null_right(&l),
            ];
            let mut packed = MatchBatch::new();
            packed.push(
                &[Part::Slots(l.slots()), Part::Slots(r.slots())],
                l.start_ts().min(r.start_ts()),
                l.end_ts().max(r.end_ts()),
            );
            packed.push(&[Part::Nulls(1), Part::Slots(r.slots())], r.start_ts(), r.end_ts());
            packed.push(&[Part::Slots(l.slots()), Part::Nulls(1)], l.start_ts(), l.end_ts());
            let want: Vec<Shape> = expected.iter().map(shape).collect();
            let got: Vec<Shape> = packed.records().iter().map(shape).collect();
            proptest::prop_assert_eq!(&got, &want);

            // Behind `lead` matches over another source, the ids remap.
            let mut reply = MatchBatch::new();
            let other = EventBatch::from_events(&[stock(1, 99, "T", 1.0, 1)]).unwrap();
            for _ in 0..lead {
                reply.push(&[Part::One(&other.event(0))], 1, 1);
            }
            let mut copies = MatchBatch::new();
            copies.extend_from(&packed);
            reply.append(packed);
            let got: Vec<Shape> = reply.records()[lead..].iter().map(shape).collect();
            proptest::prop_assert_eq!(&got, &want);

            // A copy builds the same records, as often as it is taken.
            copies.extend_from(&reply);
            let got: Vec<Shape> = copies.records().iter().map(shape).collect();
            let twice: Vec<Shape> = want.iter().cloned().chain(
                reply.records().iter().map(shape),
            ).collect();
            proptest::prop_assert_eq!(&got, &twice);
        }
    }

    #[test]
    fn sources_are_held_once_and_sorting_is_stable() {
        let sources = sources();
        let before = Arc::strong_count(sources[0].data());
        let mut m = MatchBatch::new();
        for (row, end) in [(0, 12), (1, 4), (2, 12), (3, 9)] {
            let e = sources[0].event(row);
            m.push(&[Part::One(&e), Part::Nulls(1)], e.ts(), end);
        }
        assert_eq!(m.num_sources(), 1);
        assert_eq!(Arc::strong_count(sources[0].data()), before + 1, "one handle per source");
        assert_eq!(m.sort_by_end(), Some(vec![1, 3, 0, 2]), "ties keep push order");
        assert_eq!(m.sort_by_end(), None, "sorted input moves nothing");
        let built = m.records();
        let ends: Vec<Ts> = built.iter().map(Record::end_ts).collect();
        assert_eq!(ends, [4, 9, 12, 12]);
        let rows: Vec<u32> =
            built.iter().map(|r| r.slot(0).as_one().unwrap().batch_row().1).collect();
        assert_eq!(rows, [1, 3, 0, 2]);
    }

    /// Restored events are one-row batches each: a reply over thousands of
    /// them holds every source once, and each id still builds its own event.
    #[test]
    fn many_single_row_sources_intern_once_each() {
        let n = 4096u64;
        let events: Vec<Event> = (0..n).map(|i| stock(i, i as i64, "S", 1.0, 1)).collect();
        let mut m = MatchBatch::new();
        // Each match pairs an old event with a new one, so consecutive
        // lookups alternate between sources — seen and unseen.
        for i in 0..n as usize {
            let old = &events[i / 2];
            m.push(&[Part::One(old), Part::One(&events[i])], old.ts(), events[i].ts());
        }
        assert_eq!(m.num_sources(), n as usize);
        for (i, r) in m.records().iter().enumerate() {
            let ids: Vec<u64> = r.slots().iter().map(|s| s.as_one().unwrap().identity()).collect();
            assert_eq!(ids, [events[i / 2].identity(), events[i].identity()]);
        }
        for e in &events {
            assert_eq!(Arc::strong_count(e.batch_row().0), 2, "one handle per source");
        }
    }
}
