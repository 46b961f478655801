//! Output checks: where each event arrived, and whether two match streams
//! are the same set.
//!
//! Matches are compared by content, not by pointer: an event is named by
//! its arrival position in the generated stream, which survives the
//! runtime's re-packing (reorder, per-key selection) and is the same in
//! every process, so the expected digests can be pinned in the source.

use std::collections::HashMap;

use crate::sut::{self, Batch, EventLoc, Match};

/// Maps a constituent event of a match back to its arrival position.
pub struct ArrivalIndex {
    chunk_rows: usize,
    /// First arrival position of each offered batch, by batch identity:
    /// exact wherever the system hands back handles into the batches it was
    /// given.
    by_batch: HashMap<u64, u64>,
    /// Arrival position by `ts - first`, for events that come back in
    /// re-packed batches. Only built when every timestamp is unique.
    by_ts: Option<(u64, Vec<u32>)>,
}

const UNSEEN: u32 = u32::MAX;

impl ArrivalIndex {
    /// Indexes `arrival`, the batches in the order they will be offered.
    /// All but the last hold `chunk_rows` rows.
    pub fn new(arrival: &[Batch], chunk_rows: usize) -> ArrivalIndex {
        let mut by_batch = HashMap::with_capacity(arrival.len());
        let mut position = 0u64;
        let (mut lo, mut hi, mut rows) = (u64::MAX, 0u64, 0usize);
        for batch in arrival {
            by_batch.insert(sut::batch_id(batch), position);
            position += sut::rows(batch) as u64;
            for &ts in sut::ts_column(batch) {
                lo = lo.min(ts);
                hi = hi.max(ts);
            }
            rows += sut::rows(batch);
        }
        let by_ts = (rows > 0 && hi - lo < 4 * rows as u64 && rows < UNSEEN as usize)
            .then(|| {
                let mut table = vec![UNSEEN; (hi - lo + 1) as usize];
                let mut position = 0u32;
                for batch in arrival {
                    for &ts in sut::ts_column(batch) {
                        let cell = &mut table[(ts - lo) as usize];
                        if *cell != UNSEEN {
                            return None; // two events share a timestamp
                        }
                        *cell = position;
                        position += 1;
                    }
                }
                Some((lo, table))
            })
            .flatten();
        ArrivalIndex { chunk_rows, by_batch, by_ts }
    }

    /// Arrival position of one event; `None` if it cannot be placed.
    pub fn position(&self, loc: EventLoc) -> Option<u64> {
        if let Some(base) = self.by_batch.get(&loc.batch_id) {
            return Some(base + u64::from(loc.row));
        }
        let (lo, table) = self.by_ts.as_ref()?;
        let cell = *table.get(loc.ts.checked_sub(*lo)? as usize)?;
        (cell != UNSEEN).then_some(u64::from(cell))
    }

    /// The chunk an arrival position belongs to.
    pub fn chunk_of(&self, position: u64) -> usize {
        position as usize / self.chunk_rows
    }

    /// `(content key, arrival position of the last-arriving event)` of one
    /// match of the query in registry slot `query`; `None` if any event
    /// cannot be placed.
    pub fn place(&self, query: usize, m: &Match) -> Option<(u64, u64)> {
        let mut key = mix(query as u64 ^ 0x9e37_79b9_7f4a_7c15);
        let mut last = 0u64;
        let mut ok = true;
        sut::for_each_event(m, |loc| match self.position(loc) {
            Some(p) => {
                key = mix(key ^ p);
                last = last.max(p);
            }
            None => ok = false,
        });
        ok.then_some((key, last))
    }
}

fn mix(x: u64) -> u64 {
    // splitmix64 finalizer
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// What a match stream adds up to. Every field is a commutative sum, so
/// the order matches are delivered in does not matter.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    /// Matches seen.
    pub count: u64,
    /// Wrapping sum of end timestamps — all a timed pass can afford.
    pub end_ts_sum: u64,
    /// Wrapping sum of mixed content keys; 0 when not computed.
    pub digest: u64,
}

impl Tally {
    /// Counts one match without looking inside it.
    pub fn light(&mut self, end_ts: u64) {
        self.count += 1;
        self.end_ts_sum = self.end_ts_sum.wrapping_add(end_ts);
    }

    /// Counts one match and folds its content key into the digest.
    pub fn full(&mut self, end_ts: u64, key: u64) {
        self.light(end_ts);
        self.digest = self.digest.wrapping_add(mix(key));
    }

    /// Operations to count as failed when `self` was expected and `got`
    /// arrived: every missing or extra match, or one if the counts agree
    /// but the contents do not. `digests` says whether `got` carries one.
    pub fn failures(&self, got: &Tally, digests: bool) -> u64 {
        let miscounted = self.count.abs_diff(got.count);
        let differs = self.end_ts_sum != got.end_ts_sum || (digests && self.digest != got.digest);
        miscounted.max(u64::from(differs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tally(keys: &[(u64, u64)]) -> Tally {
        let mut t = Tally::default();
        for &(end_ts, key) in keys {
            t.full(end_ts, key);
        }
        t
    }

    #[test]
    fn digest_does_not_depend_on_delivery_order() {
        let stream: Vec<(u64, u64)> = (0..1000u64).map(|i| (i / 3, mix(i))).collect();
        let mut shuffled = stream.clone();
        shuffled.reverse();
        shuffled.swap(17, 400);
        assert_eq!(tally(&stream), tally(&shuffled));
        assert_eq!(tally(&stream).failures(&tally(&shuffled), true), 0);
    }

    #[test]
    fn a_dropped_match_trips_the_check() {
        let stream: Vec<(u64, u64)> = (0..1000u64).map(|i| (i / 3, mix(i))).collect();
        let expected = tally(&stream);
        let mut tampered = stream.clone();
        tampered.remove(123);
        assert_eq!(expected.failures(&tally(&tampered), true), 1);
        // Timed passes carry no digest; the count alone still trips.
        let mut light = Tally::default();
        tampered.iter().for_each(|&(end_ts, _)| light.light(end_ts));
        assert_eq!(expected.failures(&light, false), 1);
    }

    #[test]
    fn a_swapped_match_trips_the_digest_even_when_counts_agree() {
        let stream: Vec<(u64, u64)> = (0..100u64).map(|i| (7, mix(i))).collect();
        let mut tampered = stream.clone();
        tampered[5].1 = mix(5000);
        let (expected, got) = (tally(&stream), tally(&tampered));
        assert_eq!((expected.count, expected.end_ts_sum), (got.count, got.end_ts_sum));
        assert_eq!(expected.failures(&got, true), 1);
        assert_eq!(expected.failures(&got, false), 0);
    }
}
