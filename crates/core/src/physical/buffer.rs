//! Buffers (§4.2).
//!
//! Every plan node owns a buffer of entries kept **sorted by end
//! timestamp** — the central invariant that lets operators consume children
//! in end-time order, emit in end-time order, and stop scanning at the first
//! out-of-time entry. A leaf buffer holds `(Ts, EventRef)` entries: the
//! paper's leaf record is one event pointer whose start and end are its
//! timestamp, so it needs no slot array and no box. An internal buffer holds
//! [`Record`]s. Both kinds are read through one [`RecordView`]
//! ([`Buffer::get`]).
//!
//! A buffer tracks a *consumed* cursor instead of physically deleting
//! entries on consumption. This implements the §5.3 modification ("do not
//! perform Line 7 of Algorithm 1 for leaf buffers"): non-trigger leaf
//! buffers retain events so a new plan can rebuild intermediate state after
//! an adaptive plan switch, while the cursor keeps each assembly round
//! independent — the combination of retained entries and cursors yields
//! exactly-once output. Buffers in *drain* roles — internal nodes, and
//! trigger-class leaves, consumed as the right child of SEQ, an input of
//! DISJ or the input of a NEG filter — are physically cleared after
//! consumption, matching Algorithm 1's `Clear RBuf`: a plan switch keeps a
//! trigger leaf's cursor, so no plan reads a consumed trigger event again.
//! Whatever is retained lives until the engine prunes it to the EAT floor
//! at the end of a round ([`Buffer::prune`]). The root's output never
//! enters its buffer: it is packed into the round's `MatchBatch` (see
//! `eval`).

use std::collections::VecDeque;

use zstream_events::{EventRef, Record, RecordView, Slot, Ts};

/// One buffered entry of either kind.
trait Entry {
    fn start_ts(&self) -> Ts;
    fn end_ts(&self) -> Ts;
    /// Logical footprint in bytes (Tables 3/5 accounting).
    fn footprint(&self) -> usize;
    fn view(&self) -> RecordView<'_>;
}

/// A leaf entry: the admitted event and its timestamp, which is both its
/// start and its end.
impl Entry for (Ts, EventRef) {
    fn start_ts(&self) -> Ts {
        self.0
    }

    fn end_ts(&self) -> Ts {
        self.0
    }

    fn footprint(&self) -> usize {
        std::mem::size_of::<(Ts, EventRef)>()
    }

    fn view(&self) -> RecordView<'_> {
        RecordView::event(self.0, &self.1)
    }
}

impl Entry for Record {
    fn start_ts(&self) -> Ts {
        Record::start_ts(self)
    }

    fn end_ts(&self) -> Ts {
        Record::end_ts(self)
    }

    fn footprint(&self) -> usize {
        Record::footprint(self)
    }

    fn view(&self) -> RecordView<'_> {
        Record::view(self)
    }
}

#[derive(Debug)]
enum Entries {
    Leaf(VecDeque<(Ts, EventRef)>),
    Records(VecDeque<Record>),
}

/// Runs `$body` with `$es` bound to the entry deque, whichever its kind.
macro_rules! each {
    ($entries:expr, $es:ident => $body:expr) => {
        match $entries {
            Entries::Leaf($es) => $body,
            Entries::Records($es) => $body,
        }
    };
}

/// An entry buffer sorted by end timestamp with a consumed-front cursor.
#[derive(Debug)]
pub struct Buffer {
    entries: Entries,
    /// Index of the first unconsumed entry.
    consumed: usize,
    /// Logical memory accounting (bytes) for Tables 3/5.
    bytes: usize,
    /// How many times entries were removed (see [`Buffer::shifts`]).
    shifts: u64,
}

impl Buffer {
    /// An empty leaf buffer (takes events, [`Buffer::push_event`]).
    pub fn leaf() -> Buffer {
        Buffer { entries: Entries::Leaf(VecDeque::new()), consumed: 0, bytes: 0, shifts: 0 }
    }

    /// An empty internal buffer (takes records, [`Buffer::push`]).
    pub fn records() -> Buffer {
        Buffer { entries: Entries::Records(VecDeque::new()), consumed: 0, bytes: 0, shifts: 0 }
    }

    /// Appends an event stamped `ts` to a leaf buffer; end timestamps must
    /// be non-decreasing.
    #[inline]
    pub fn push_event(&mut self, ts: Ts, event: EventRef) {
        let Entries::Leaf(es) = &mut self.entries else {
            unreachable!("internal buffers take records")
        };
        Self::append(es, &mut self.bytes, (ts, event));
    }

    /// Appends a record to an internal buffer; end timestamps must be
    /// non-decreasing.
    pub fn push(&mut self, r: Record) {
        let Entries::Records(rs) = &mut self.entries else {
            unreachable!("leaf buffers take events")
        };
        Self::append(rs, &mut self.bytes, r);
    }

    fn append<E: Entry>(es: &mut VecDeque<E>, bytes: &mut usize, e: E) {
        debug_assert!(
            es.back().is_none_or(|last| last.end_ts() <= e.end_ts()),
            "buffer must stay sorted by end-ts: {} after {}",
            e.end_ts(),
            es.back().map_or(0, Entry::end_ts),
        );
        *bytes += e.footprint();
        es.push_back(e);
    }

    /// Restores one entry a snapshot wrote ([`zstream_events::SnapshotWriter::record`]):
    /// a leaf buffer takes back the one-slot record its entry was written
    /// as. `Err` names what is wrong when the record cannot be a leaf entry.
    pub fn restore(&mut self, r: Record) -> Result<(), String> {
        if matches!(self.entries, Entries::Records(_)) {
            self.push(r);
            return Ok(());
        }
        match r.slots() {
            [Slot::One(e)] if r.start_ts() == r.end_ts() => {
                self.push_event(r.end_ts(), e.clone());
                Ok(())
            }
            _ => Err(format!("leaf entry {r} is not one event")),
        }
    }

    /// Number of entries currently stored (consumed + unconsumed).
    pub fn len(&self) -> usize {
        each!(&self.entries, es => es.len())
    }

    /// True when no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Logical footprint in bytes of all stored entries.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// The entry at `idx`.
    #[inline]
    pub fn get(&self, idx: usize) -> RecordView<'_> {
        each!(&self.entries, es => es[idx].view())
    }

    /// How many times entries were removed from this buffer ([`Buffer::prune`],
    /// [`Buffer::clear`]): an index of entry positions built before this
    /// count last moved is stale.
    pub fn shifts(&self) -> u64 {
        self.shifts
    }

    /// Index of the first unconsumed entry.
    pub fn consumed(&self) -> usize {
        self.consumed
    }

    /// Iterates all entries (consumed first).
    pub fn iter(&self) -> impl Iterator<Item = RecordView<'_>> {
        (0..self.len()).map(|i| self.get(i))
    }

    /// Earliest end timestamp among unconsumed entries (for EAT).
    pub fn earliest_unconsumed_end(&self) -> Option<Ts> {
        each!(&self.entries, es => es.get(self.consumed).map(Entry::end_ts))
    }

    /// Marks every stored entry consumed (a logical `Clear RBuf` for
    /// retained buffers).
    pub fn consume_all(&mut self) {
        self.consumed = self.len();
    }

    /// Sets the consumed cursor (CONJ merge writes its cursors back).
    pub fn set_consumed(&mut self, consumed: usize) {
        debug_assert!(consumed <= self.len());
        self.consumed = consumed;
    }

    /// Physically removes everything (drain-mode buffers after the parent
    /// consumed this round's output; Algorithm 1, step 7).
    pub fn clear(&mut self) {
        if !self.is_empty() {
            self.shifts += 1;
        }
        each!(&mut self.entries, es => es.clear());
        self.consumed = 0;
        self.bytes = 0;
    }

    /// Resets the consumed cursor to the front (adaptive plan switch: leaf
    /// history becomes replayable by the new plan).
    pub fn rewind(&mut self) {
        self.consumed = 0;
    }

    /// Removes entries with `start_ts < eat` — they can no longer
    /// participate in any in-window match (§4.3). Returns the number
    /// removed. The consumed cursor is adjusted so it keeps pointing at the
    /// same logical entry.
    pub fn prune(&mut self, eat: Ts) -> usize {
        if eat == 0 {
            return 0;
        }
        // Entries sorted by end are sorted by start too when start == end
        // (every leaf entry): the expired ones form a prefix, and a leaf
        // prune is this front pop alone.
        let front =
            each!(&mut self.entries, es => Self::pop_front_before(es, &mut self.bytes, eat));
        self.consumed = self.consumed.saturating_sub(front);
        let removed = front + self.compact_before(eat);
        if removed > 0 {
            self.shifts += 1;
        }
        removed
    }

    fn pop_front_before<E: Entry>(es: &mut VecDeque<E>, bytes: &mut usize, eat: Ts) -> usize {
        let mut removed = 0;
        while let Some(front) = es.front() {
            if front.start_ts() >= eat {
                break;
            }
            *bytes -= front.footprint();
            es.pop_front();
            removed += 1;
        }
        removed
    }

    /// Removes interior records with `start_ts < eat` (internal buffers:
    /// start order is not end order; a leaf buffer returns at once). Scans
    /// only if any survivor violates, then makes one in-place compaction
    /// sweep: survivors swap down to a write cursor while `bytes` and
    /// `consumed` update in the same pass — no reallocation, no second
    /// traversal.
    fn compact_before(&mut self, eat: Ts) -> usize {
        let Entries::Records(rs) = &mut self.entries else { return 0 };
        if !rs.iter().any(|r| r.start_ts() < eat) {
            return 0;
        }
        let consumed = self.consumed;
        let mut new_consumed = consumed;
        let mut write = 0usize;
        for read in 0..rs.len() {
            if rs[read].start_ts() < eat {
                self.bytes -= rs[read].footprint();
                if read < consumed {
                    new_consumed -= 1;
                }
            } else {
                if write != read {
                    rs.swap(write, read);
                }
                write += 1;
            }
        }
        let removed = rs.len() - write;
        rs.truncate(write);
        self.consumed = new_consumed;
        removed
    }

    /// Binary search: the number of entries with `end_ts < bound` — the
    /// prefix a SEQ operator may combine with a right entry starting at
    /// `bound` (entries are sorted by end).
    pub fn prefix_end_before(&self, bound: Ts) -> usize {
        each!(&self.entries, es => es.partition_point(|e| e.end_ts() < bound))
    }

    /// Binary search: index of the first entry with `end_ts >= bound`.
    pub fn first_end_at_or_after(&self, bound: Ts) -> usize {
        self.prefix_end_before(bound)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zstream_events::{stock, Part};

    /// The two entry kinds at timestamp `ts`: a leaf buffer stores events,
    /// an internal one records (a one-slot record spans its event).
    #[derive(Clone, Copy, Debug)]
    enum Kind {
        Leaf,
        Records,
    }

    const KINDS: [Kind; 2] = [Kind::Leaf, Kind::Records];

    impl Kind {
        fn buffer(self) -> Buffer {
            match self {
                Kind::Leaf => Buffer::leaf(),
                Kind::Records => Buffer::records(),
            }
        }

        fn push(self, b: &mut Buffer, ts: Ts) {
            let e = stock(ts, ts as i64, "IBM", 1.0, 1);
            match self {
                Kind::Leaf => b.push_event(ts, e),
                Kind::Records => b.push(Record::primitive(e)),
            }
        }
    }

    fn span_rec(start: Ts, end: Ts) -> Record {
        Record::from_slots(vec![
            Slot::One(stock(start, 0, "A", 1.0, 1)),
            Slot::One(stock(end, 1, "B", 1.0, 1)),
        ])
    }

    #[test]
    fn cursor_tracks_consumption() {
        for kind in KINDS {
            let mut b = kind.buffer();
            for t in [1, 2, 3] {
                kind.push(&mut b, t);
            }
            assert_eq!(b.consumed(), 0);
            assert_eq!(b.earliest_unconsumed_end(), Some(1));
            b.consume_all();
            assert_eq!(b.consumed(), 3);
            kind.push(&mut b, 4);
            assert_eq!(b.len() - b.consumed(), 1, "{kind:?}");
            assert_eq!(b.earliest_unconsumed_end(), Some(4));
            assert_eq!(b.len(), 4);
            assert_eq!(b.get(3).one(0).map(|e| e.ts()), Some(4));
        }
    }

    #[test]
    fn prune_pops_leaf_prefix_and_fixes_cursor() {
        for kind in KINDS {
            let mut b = kind.buffer();
            for t in [1, 2, 3, 4, 5] {
                kind.push(&mut b, t);
            }
            b.consume_all();
            kind.push(&mut b, 6);
            assert_eq!(b.prune(4), 3, "{kind:?}"); // removes ts 1,2,3
            assert_eq!(b.len(), 3);
            assert_eq!(b.consumed(), 2); // ts 4,5 still consumed
            assert_eq!(b.earliest_unconsumed_end(), Some(6));
            assert_eq!((b.get(0).start_ts(), b.get(0).end_ts()), (4, 4));
        }
    }

    #[test]
    fn prune_removes_interior_records_by_start() {
        let mut b = Buffer::records();
        // Sorted by end: (1,10), (9,11) — the first has the smaller start.
        b.push(span_rec(1, 10));
        b.push(span_rec(9, 11));
        assert_eq!(b.prune(5), 1);
        assert_eq!(b.len(), 1);
        assert_eq!(b.get(0).start_ts(), 9);
    }

    #[test]
    fn prune_interior_fixes_cursor() {
        let mut b = Buffer::records();
        b.push(span_rec(1, 10)); // will be pruned
        b.push(span_rec(9, 11)); // kept
        b.consume_all();
        b.push(span_rec(2, 12)); // will be pruned (start 2 < 5), unconsumed
        b.push(span_rec(9, 13)); // kept, unconsumed
        assert_eq!(b.prune(5), 2);
        assert_eq!(b.len(), 2);
        assert_eq!(b.consumed(), 1);
        assert_eq!(b.earliest_unconsumed_end(), Some(13));
    }

    #[test]
    fn bytes_accounting_follows_pushes_and_prunes() {
        for kind in KINDS {
            let mut b = kind.buffer();
            kind.push(&mut b, 1);
            kind.push(&mut b, 2);
            let full = b.bytes();
            assert!(full > 0);
            b.prune(2);
            assert!(b.bytes() < full, "{kind:?}");
            b.clear();
            assert_eq!(b.bytes(), 0);
        }
        // A leaf entry is one timestamp and one event handle.
        let mut leaf = Buffer::leaf();
        Kind::Leaf.push(&mut leaf, 1);
        assert_eq!(leaf.bytes(), std::mem::size_of::<(Ts, EventRef)>());
    }

    #[test]
    fn prefix_search_by_end() {
        for kind in KINDS {
            let mut b = kind.buffer();
            for t in [1, 3, 5, 7] {
                kind.push(&mut b, t);
            }
            assert_eq!(b.prefix_end_before(5), 2, "{kind:?}"); // ts 1, 3
            assert_eq!(b.prefix_end_before(8), 4);
            assert_eq!(b.prefix_end_before(1), 0);
            assert_eq!(b.first_end_at_or_after(4), 2);
        }
    }

    #[test]
    fn restore_takes_back_what_the_view_wrote() {
        let mut leaf = Buffer::leaf();
        leaf.restore(Record::primitive(stock(3, 0, "IBM", 1.0, 1))).unwrap();
        assert_eq!(
            (leaf.get(0).end_ts(), leaf.bytes()),
            (3, std::mem::size_of::<(Ts, EventRef)>())
        );
        assert!(leaf.restore(span_rec(4, 5)).is_err(), "two slots are no leaf entry");
        let mut inner = Buffer::records();
        inner.restore(span_rec(4, 5)).unwrap();
        assert!(matches!(inner.get(0).part(), Part::Slots(slots) if slots.len() == 2));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "sorted by end-ts")]
    fn push_rejects_end_order_violation() {
        // Both kinds append through the one checked path.
        let mut b = Buffer::leaf();
        Kind::Leaf.push(&mut b, 5);
        Kind::Leaf.push(&mut b, 3);
    }
}
