//! Buffers (§4.2).
//!
//! Every plan node owns a buffer of [`Record`]s kept **sorted by end
//! timestamp** — the central invariant that lets operators consume children
//! in end-time order, emit in end-time order, and stop scanning at the first
//! out-of-time record.
//!
//! A buffer tracks a *consumed* cursor instead of physically deleting
//! records on consumption. This implements the §5.3 modification ("do not
//! perform Line 7 of Algorithm 1 for leaf buffers"): leaf buffers retain
//! events so a new plan can rebuild intermediate state after an adaptive
//! plan switch, while the cursor keeps each assembly round independent —
//! the combination of retained records and cursors yields exactly-once
//! output. Internal buffers in *drain* roles (right child of SEQ, inputs of
//! DISJ, the KSEQ end buffer) are physically cleared after consumption,
//! matching Algorithm 1's `Clear RBuf`. The root's output never enters its
//! buffer: it is packed into the round's `MatchBatch` (see `eval`).

use std::collections::VecDeque;

use zstream_events::{Record, Ts};

/// A record buffer sorted by end timestamp with a consumed-front cursor.
#[derive(Debug, Default)]
pub struct Buffer {
    recs: VecDeque<Record>,
    /// Index of the first unconsumed record.
    consumed: usize,
    /// Logical memory accounting (bytes) for Tables 3/5.
    bytes: usize,
}

impl Buffer {
    /// An empty buffer.
    pub fn new() -> Buffer {
        Buffer::default()
    }

    /// Appends a record; end timestamps must be non-decreasing.
    pub fn push(&mut self, r: Record) {
        debug_assert!(
            self.recs.back().is_none_or(|last| last.end_ts() <= r.end_ts()),
            "buffer must stay sorted by end-ts: {} after {}",
            r.end_ts(),
            self.recs.back().map(Record::end_ts).unwrap_or(0),
        );
        self.bytes += r.footprint();
        self.recs.push_back(r);
    }

    /// Number of records currently stored (consumed + unconsumed).
    pub fn len(&self) -> usize {
        self.recs.len()
    }

    /// True when no records are stored.
    pub fn is_empty(&self) -> bool {
        self.recs.is_empty()
    }

    /// Logical footprint in bytes of all stored records.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// The record at `idx`.
    #[inline]
    pub fn get(&self, idx: usize) -> &Record {
        &self.recs[idx]
    }

    /// Index of the first unconsumed record.
    pub fn consumed(&self) -> usize {
        self.consumed
    }

    /// Iterates all records (consumed first).
    pub fn iter(&self) -> impl Iterator<Item = &Record> {
        self.recs.iter()
    }

    /// Earliest end timestamp among unconsumed records (for EAT).
    pub fn earliest_unconsumed_end(&self) -> Option<Ts> {
        self.recs.get(self.consumed).map(Record::end_ts)
    }

    /// Marks every stored record consumed (a logical `Clear RBuf` for
    /// retained buffers).
    pub fn consume_all(&mut self) {
        self.consumed = self.recs.len();
    }

    /// Sets the consumed cursor (CONJ merge writes its cursors back).
    pub fn set_consumed(&mut self, consumed: usize) {
        debug_assert!(consumed <= self.recs.len());
        self.consumed = consumed;
    }

    /// Physically removes everything (drain-mode buffers after the parent
    /// consumed this round's output; Algorithm 1, step 7).
    pub fn clear(&mut self) {
        self.recs.clear();
        self.consumed = 0;
        self.bytes = 0;
    }

    /// Resets the consumed cursor to the front (adaptive plan switch: leaf
    /// history becomes replayable by the new plan).
    pub fn rewind(&mut self) {
        self.consumed = 0;
    }

    /// Removes records with `start_ts < eat` — they can no longer
    /// participate in any in-window match (§4.3). Returns the number
    /// removed. The consumed cursor is adjusted so it keeps pointing at the
    /// same logical record.
    pub fn prune(&mut self, eat: Ts) -> usize {
        if eat == 0 || self.recs.is_empty() {
            return 0;
        }
        // Fast path: records also sorted by start (true for leaf buffers
        // where start == end): pop from the front.
        let mut removed_front = 0;
        while let Some(front) = self.recs.front() {
            if front.start_ts() < eat {
                self.bytes -= front.footprint();
                self.recs.pop_front();
                removed_front += 1;
            } else {
                break;
            }
        }
        self.consumed = self.consumed.saturating_sub(removed_front);
        // Slow path for interior out-of-window records (internal buffers:
        // start order is not end order). Scan only if any survivor violates.
        // One in-place compaction sweep: survivors swap down to a write
        // cursor while `bytes` and `consumed` update in the same pass — no
        // reallocation, no second traversal.
        if self.recs.iter().any(|r| r.start_ts() < eat) {
            let consumed = self.consumed;
            let mut new_consumed = consumed;
            let mut write = 0usize;
            for read in 0..self.recs.len() {
                if self.recs[read].start_ts() < eat {
                    self.bytes -= self.recs[read].footprint();
                    if read < consumed {
                        new_consumed -= 1;
                    }
                } else {
                    if write != read {
                        self.recs.swap(write, read);
                    }
                    write += 1;
                }
            }
            removed_front += self.recs.len() - write;
            self.recs.truncate(write);
            self.consumed = new_consumed;
        }
        removed_front
    }

    /// Binary search: the number of records with `end_ts < bound` — the
    /// prefix a SEQ operator may combine with a right record starting at
    /// `bound` (records are sorted by end).
    pub fn prefix_end_before(&self, bound: Ts) -> usize {
        self.recs.partition_point(|r| r.end_ts() < bound)
    }

    /// Binary search: index of the first record with `end_ts >= bound`.
    pub fn first_end_at_or_after(&self, bound: Ts) -> usize {
        self.recs.partition_point(|r| r.end_ts() < bound)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zstream_events::{stock, Slot};

    fn rec(ts: Ts) -> Record {
        Record::primitive(stock(ts, ts as i64, "IBM", 1.0, 1))
    }

    fn span_rec(start: Ts, end: Ts) -> Record {
        Record::from_slots(vec![
            Slot::One(stock(start, 0, "A", 1.0, 1)),
            Slot::One(stock(end, 1, "B", 1.0, 1)),
        ])
    }

    #[test]
    fn cursor_tracks_consumption() {
        let mut b = Buffer::new();
        for t in [1, 2, 3] {
            b.push(rec(t));
        }
        assert_eq!(b.consumed(), 0);
        assert_eq!(b.earliest_unconsumed_end(), Some(1));
        b.consume_all();
        assert_eq!(b.consumed(), 3);
        b.push(rec(4));
        assert_eq!(b.len() - b.consumed(), 1);
        assert_eq!(b.earliest_unconsumed_end(), Some(4));
        assert_eq!(b.len(), 4);
    }

    #[test]
    fn prune_pops_leaf_prefix_and_fixes_cursor() {
        let mut b = Buffer::new();
        for t in [1, 2, 3, 4, 5] {
            b.push(rec(t));
        }
        b.consume_all();
        b.push(rec(6));
        assert_eq!(b.prune(4), 3); // removes ts 1,2,3
        assert_eq!(b.len(), 3);
        assert_eq!(b.consumed(), 2); // ts 4,5 still consumed
        assert_eq!(b.earliest_unconsumed_end(), Some(6));
    }

    #[test]
    fn prune_removes_interior_records_by_start() {
        let mut b = Buffer::new();
        // Sorted by end: (1,10), (9,11) — the first has the smaller start.
        b.push(span_rec(1, 10));
        b.push(span_rec(9, 11));
        assert_eq!(b.prune(5), 1);
        assert_eq!(b.len(), 1);
        assert_eq!(b.get(0).start_ts(), 9);
    }

    #[test]
    fn prune_interior_fixes_cursor() {
        let mut b = Buffer::new();
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
        let mut b = Buffer::new();
        b.push(rec(1));
        b.push(rec(2));
        let full = b.bytes();
        assert!(full > 0);
        b.prune(2);
        assert!(b.bytes() < full);
        b.clear();
        assert_eq!(b.bytes(), 0);
    }

    #[test]
    fn prefix_search_by_end() {
        let mut b = Buffer::new();
        for t in [1, 3, 5, 7] {
            b.push(rec(t));
        }
        assert_eq!(b.prefix_end_before(5), 2); // ts 1, 3
        assert_eq!(b.prefix_end_before(8), 4);
        assert_eq!(b.prefix_end_before(1), 0);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "sorted by end-ts")]
    fn push_rejects_end_order_violation() {
        let mut b = Buffer::new();
        b.push(rec(5));
        b.push(rec(3));
    }
}
