//! Deterministic ordered merge of per-shard match streams.
//!
//! Shards evaluate independently and report matches asynchronously, so the
//! raw arrival order at the control thread is racy. The merger restores a
//! deterministic total order — `(end timestamp, shard id, per-shard
//! emission sequence)` — using per-shard **watermarks**: after a shard has
//! processed every event up to time `w`, any match it produces later has an
//! end timestamp of at least `w` (shard sub-streams are time-ordered and
//! shards force an evaluation round per batch). A buffered match is
//! therefore final once its end timestamp is strictly below the minimum
//! watermark across live shards.
//!
//! The same invariant makes every shard's stream a **sorted queue**: a
//! shard sorts each reply by `(end_ts, seq)` before sending it, every match
//! of a reply ends at or before the watermark the reply echoes, and every
//! later match ends at or after it — so appending replies keeps the shard's
//! queue sorted. Replies arrive packed (`(source batch, row)` ids); the
//! runtime builds each [`RuntimeMatch`] once, just before
//! [`OrderedMerge::offer`], so the queues hold built matches in the order
//! the shard sealed them. The merger therefore never sorts or sifts: the final
//! matches of a queue are a prefix (found by binary search against the
//! frontier), and emitting is a k-way merge of those prefixes' heads — a
//! bulk move when only one shard has anything final, which is always the
//! case with one worker.

use std::collections::VecDeque;

use zstream_events::{Record, SnapshotError, SnapshotReader, SnapshotResult, SnapshotWriter, Ts};

use crate::registry::QueryId;

/// One composite match produced by the runtime.
#[derive(Debug, Clone)]
pub struct RuntimeMatch {
    /// The registered query that matched.
    pub query: QueryId,
    /// The worker shard that produced the match.
    pub shard: usize,
    /// Emission sequence number within the shard (deterministic for a given
    /// stream and configuration; the final tie-breaker of the merge order).
    pub seq: u64,
    /// The composite event.
    pub record: Record,
}

impl RuntimeMatch {
    /// The merge key this match is ordered by.
    pub fn key(&self) -> (Ts, usize, u64) {
        (self.record.end_ts(), self.shard, self.seq)
    }

    /// The order of one shard's own stream: the merge key minus the shard.
    fn run_key(&self) -> (Ts, u64) {
        (self.record.end_ts(), self.seq)
    }
}

/// True when `matches` is strictly ascending in `(end_ts, seq)` — the order
/// every per-shard queue keeps.
fn is_run<'a>(matches: impl Iterator<Item = &'a RuntimeMatch>) -> bool {
    matches.map(RuntimeMatch::run_key).is_sorted_by(|a, b| a < b)
}

/// Buffers per-shard matches and releases them in deterministic order as
/// the shard watermarks advance.
pub(crate) struct OrderedMerge {
    /// Per shard, its buffered matches in `(end_ts, seq)` order.
    queues: Vec<VecDeque<RuntimeMatch>>,
    /// Per-shard watermark; `None` once the shard has finished (treated as
    /// an infinite watermark).
    watermarks: Vec<Option<Ts>>,
}

impl std::fmt::Debug for OrderedMerge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OrderedMerge")
            .field("pending", &self.pending())
            .field("watermarks", &self.watermarks)
            .finish()
    }
}

impl OrderedMerge {
    pub fn new(shards: usize) -> OrderedMerge {
        OrderedMerge {
            queues: (0..shards).map(|_| VecDeque::new()).collect(),
            watermarks: vec![Some(0); shards],
        }
    }

    /// Buffers one reply's matches. `run` must be in `(end_ts, seq)` order
    /// and continue the order of what `shard` offered before — which the
    /// finality invariant gives for free (see the module docs).
    pub fn offer(&mut self, shard: usize, run: Vec<RuntimeMatch>) {
        let queue = &mut self.queues[shard];
        debug_assert!(
            run.iter().all(|m| m.shard == shard) && is_run(queue.back().into_iter().chain(&run)),
            "shard {shard} offered a run out of (end_ts, seq) order"
        );
        queue.extend(run);
    }

    /// Advances a shard's watermark (monotone).
    pub fn advance(&mut self, shard: usize, ts: Ts) {
        if let Some(w) = &mut self.watermarks[shard] {
            *w = (*w).max(ts);
        }
    }

    /// Marks a shard as finished: it will never produce another match.
    pub fn finish(&mut self, shard: usize) {
        self.watermarks[shard] = None;
    }

    /// True when the shard has finished (left the pool). The runtime treats
    /// this as the single source of truth for pool membership: finished
    /// shards receive no further messages and are not waited for at
    /// shutdown.
    pub fn is_finished(&self, shard: usize) -> bool {
        self.watermarks[shard].is_none()
    }

    /// Number of shards the merger tracks (live or finished).
    pub fn num_shards(&self) -> usize {
        self.watermarks.len()
    }

    /// Number of shards that have finished.
    pub fn finished_count(&self) -> usize {
        self.watermarks.iter().filter(|w| w.is_none()).count()
    }

    /// The finality frontier: matches ending strictly before it are safe to
    /// emit. `None` means every shard has finished (everything is final).
    pub fn frontier(&self) -> Option<Ts> {
        self.watermarks.iter().flatten().min().copied()
    }

    /// Number of buffered (not yet final) matches.
    pub fn pending(&self) -> usize {
        self.queues.iter().map(VecDeque::len).sum()
    }

    /// Discards every buffered match of `query` (the
    /// [`crate::Runtime::drop_query`] path: a dropped query's matches must
    /// not surface after the drop, even ones already evaluated and waiting
    /// on the frontier). Cold path; removing matches keeps a queue sorted.
    pub fn purge_query(&mut self, query: QueryId) {
        for queue in &mut self.queues {
            queue.retain(|m| m.query != query);
        }
    }

    /// Serializes the frontier state and every buffered match. Entries are
    /// written in merge-key order (the format predates per-shard queues),
    /// so serializing the same state twice is byte-identical.
    pub fn write_snapshot(&self, w: &mut SnapshotWriter) {
        w.len(self.watermarks.len());
        for wm in &self.watermarks {
            w.opt_u64(*wm);
        }
        let mut entries: Vec<&RuntimeMatch> = self.queues.iter().flatten().collect();
        entries.sort_by_key(|m| m.key());
        w.len(entries.len());
        for m in entries {
            w.u64(m.query.0 as u64);
            w.u64(m.shard as u64);
            w.u64(m.seq);
            w.record(m.record.view());
        }
    }

    /// Rebuilds a merger from a [`zstream_events::Snapshot`] stream:
    /// buffered matches re-enter their shard's queue and release under the
    /// restored per-shard watermarks exactly once, after restore.
    /// `is_live_query` decides which query ids a buffered match may legally
    /// carry — dropped queries purge their matches before checkpointing, so
    /// a tombstoned id here means the file is corrupt.
    pub fn restore_snapshot(
        r: &mut SnapshotReader<'_>,
        is_live_query: impl Fn(usize) -> bool,
    ) -> SnapshotResult<OrderedMerge> {
        let shards = r.len()?;
        let mut watermarks = Vec::with_capacity(shards);
        for _ in 0..shards {
            watermarks.push(r.opt_u64()?);
        }
        let mut queues: Vec<VecDeque<RuntimeMatch>> =
            (0..shards).map(|_| VecDeque::new()).collect();
        for _ in 0..r.len()? {
            let query =
                usize::try_from(r.u64()?).ok().filter(|q| is_live_query(*q)).ok_or_else(|| {
                    SnapshotError::Corrupt("buffered match query out of range".into())
                })?;
            let shard =
                usize::try_from(r.u64()?).ok().filter(|s| *s < shards).ok_or_else(|| {
                    SnapshotError::Corrupt("buffered match shard out of range".into())
                })?;
            let seq = r.u64()?;
            let record = r.record()?;
            queues[shard].push_back(RuntimeMatch { query: QueryId(query), shard, seq, record });
        }
        // Draining binary-searches the queues, so their order is checked
        // here, where the bytes enter, rather than trusted.
        if !queues.iter().all(|queue| is_run(queue.iter())) {
            return Err(SnapshotError::Corrupt("buffered matches out of merge order".into()));
        }
        Ok(OrderedMerge { queues, watermarks })
    }

    /// Removes every final match, in `(end_ts, shard, seq)` order.
    pub fn drain_ready(&mut self) -> Vec<RuntimeMatch> {
        let frontier = self.frontier();
        // Per shard, how many matches at the front of its queue are final.
        let mut ready: Vec<usize> = self
            .queues
            .iter()
            .map(|queue| match frontier {
                Some(f) => queue.partition_point(|m| m.record.end_ts() < f),
                None => queue.len(),
            })
            .collect();
        let mut sources = (0..ready.len()).filter(|s| ready[*s] > 0);
        match (sources.next(), sources.next()) {
            (None, _) => Vec::new(),
            (Some(only), None) => self.queues[only].drain(..ready[only]).collect(),
            _ => {
                let total = ready.iter().sum();
                let mut out = Vec::with_capacity(total);
                while out.len() < total {
                    // One scan of the shards' heads per match: `k` is the
                    // worker count, not the number of buffered matches.
                    let s = (0..ready.len())
                        .filter(|s| ready[*s] > 0)
                        .min_by_key(|s| self.queues[*s][0].key())
                        .expect("ready counts queued matches");
                    out.extend(self.queues[s].pop_front());
                    ready[s] -= 1;
                }
                out
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zstream_events::{stock, Record};

    fn m(query: usize, shard: usize, seq: u64, end: Ts) -> RuntimeMatch {
        RuntimeMatch {
            query: QueryId(query),
            shard,
            seq,
            record: Record::primitive(stock(end, 0, "IBM", 1.0, 1)),
        }
    }

    #[test]
    fn holds_matches_until_all_shards_pass_them() {
        let mut merge = OrderedMerge::new(2);
        merge.offer(0, vec![m(0, 0, 0, 5)]);
        merge.advance(0, 10);
        // Shard 1 is still at 0 — nothing is final.
        assert!(merge.drain_ready().is_empty());
        merge.advance(1, 6);
        let out = merge.drain_ready();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].record.end_ts(), 5);
    }

    #[test]
    fn orders_by_end_ts_then_shard_then_seq() {
        let mut merge = OrderedMerge::new(3);
        merge.offer(2, vec![m(0, 2, 0, 7)]);
        merge.offer(0, vec![m(0, 0, 3, 7)]);
        merge.offer(1, vec![m(1, 1, 1, 4)]);
        merge.offer(0, vec![m(0, 0, 9, 9)]);
        for s in 0..3 {
            merge.finish(s);
        }
        let keys: Vec<_> = merge.drain_ready().iter().map(RuntimeMatch::key).collect();
        assert_eq!(keys, vec![(4, 1, 1), (7, 0, 3), (7, 2, 0), (9, 0, 9)]);
    }

    #[test]
    fn equal_end_ts_is_not_final_until_shards_pass_it() {
        // A match ending exactly at the frontier must wait: another shard
        // at watermark w can still produce a match ending at w.
        let mut merge = OrderedMerge::new(2);
        merge.offer(0, vec![m(0, 0, 0, 10)]);
        merge.advance(0, 10);
        merge.advance(1, 10);
        assert!(merge.drain_ready().is_empty());
        merge.advance(1, 11);
        merge.advance(0, 11);
        assert_eq!(merge.drain_ready().len(), 1);
    }

    #[test]
    fn finished_shards_do_not_hold_the_frontier() {
        let mut merge = OrderedMerge::new(2);
        merge.offer(0, vec![m(0, 0, 0, 100)]);
        merge.finish(1);
        merge.advance(0, 50);
        assert!(merge.drain_ready().is_empty(), "shard 0 could still emit before 100");
        merge.finish(0);
        assert_eq!(merge.frontier(), None);
        assert_eq!(merge.drain_ready().len(), 1);
        assert_eq!(merge.pending(), 0);
    }

    #[test]
    fn purge_discards_only_the_dropped_querys_matches() {
        let mut merge = OrderedMerge::new(1);
        merge.offer(0, vec![m(0, 0, 0, 5), m(1, 0, 1, 6), m(0, 0, 2, 7)]);
        merge.purge_query(QueryId(0));
        assert_eq!(merge.pending(), 1);
        merge.finish(0);
        let out = merge.drain_ready();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].query, QueryId(1));
        // Purging a query with nothing buffered is a no-op.
        merge.purge_query(QueryId(1));
        assert_eq!(merge.pending(), 0);
    }

    #[test]
    fn tracks_finished_membership() {
        let mut merge = OrderedMerge::new(3);
        assert_eq!(merge.finished_count(), 0);
        assert!(!merge.is_finished(1));
        merge.finish(1);
        assert!(merge.is_finished(1));
        assert_eq!(merge.finished_count(), 1);
        // Finishing is idempotent and advance on a finished shard is a no-op.
        merge.finish(1);
        merge.advance(1, 99);
        assert!(merge.is_finished(1));
        assert_eq!(merge.finished_count(), 1);
    }

    /// The reference the per-shard queues are held against: every buffered
    /// match in one list, sorted by the merge key and cut at the frontier.
    fn model_drain(
        buffered: &mut Vec<RuntimeMatch>,
        frontier: Option<Ts>,
    ) -> Vec<(Ts, usize, u64)> {
        buffered.sort_by_key(RuntimeMatch::key);
        let ready = match frontier {
            Some(f) => buffered.partition_point(|m| m.record.end_ts() < f),
            None => buffered.len(),
        };
        buffered.drain(..ready).map(|m| m.key()).collect()
    }

    fn snapshot_bytes(merge: &OrderedMerge) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        merge.write_snapshot(&mut w);
        w.into_bytes()
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig { cases: 256 })]

        /// Random interleavings of shard replies (run offer + watermark
        /// echo), heartbeats, shard departures, query purges, drains and
        /// snapshot round-trips over 1–8 shards agree with the sort-and-cut
        /// reference at every step. Timestamps come from a narrow domain, so
        /// equal end timestamps across shards and matches ending exactly at
        /// the frontier are the common case, not the corner.
        #[test]
        fn run_queues_agree_with_the_sorted_reference(
            shards in 1usize..9,
            ops in proptest::prop::collection::vec(
                (0u8..8, 0usize..8, 0u64..3, proptest::prop::collection::vec((0u64..3, 0usize..3), 0..6)),
                1..60,
            ),
        ) {
            let mut merge = OrderedMerge::new(shards);
            let mut model: Vec<RuntimeMatch> = Vec::new();
            // What each live shard last echoed, and its emission counter.
            let mut watermark = vec![0u64; shards];
            let mut next_seq = vec![0u64; shards];
            let check_drain = |merge: &mut OrderedMerge, model: &mut Vec<RuntimeMatch>| {
                let frontier = merge.frontier();
                let got: Vec<_> = merge.drain_ready().iter().map(RuntimeMatch::key).collect();
                assert_eq!(got, model_drain(model, frontier));
            };
            for (op, shard, lead, rows) in ops {
                let shard = shard % shards;
                match op {
                    // A shard reply: matches numbered in emission order,
                    // stable-sorted by end timestamp as the shard does, all
                    // ending between the last echoed watermark and the new.
                    0..=2 if !merge.is_finished(shard) => {
                        let mut run: Vec<RuntimeMatch> = rows
                            .iter()
                            .map(|(gap, query)| {
                                let seq = next_seq[shard];
                                next_seq[shard] += 1;
                                m(*query, shard, seq, watermark[shard] + gap)
                            })
                            .collect();
                        run.sort_by_key(|m| m.record.end_ts());
                        let newest = run.last().map_or(watermark[shard], |m| m.record.end_ts());
                        model.extend(run.iter().cloned());
                        merge.offer(shard, run);
                        watermark[shard] = newest + lead;
                        merge.advance(shard, watermark[shard]);
                    }
                    // A heartbeat echo.
                    3 if !merge.is_finished(shard) => {
                        watermark[shard] += lead;
                        merge.advance(shard, watermark[shard]);
                    }
                    4 if lead == 0 => merge.finish(shard),
                    5 => {
                        let query = QueryId(shard % 3);
                        merge.purge_query(query);
                        model.retain(|m| m.query != query);
                    }
                    6 => {
                        let bytes = snapshot_bytes(&merge);
                        let mut r = SnapshotReader::new(&bytes);
                        let restored = OrderedMerge::restore_snapshot(&mut r, |_| true).unwrap();
                        assert!(r.is_exhausted());
                        assert_eq!(snapshot_bytes(&restored), bytes);
                        merge = restored;
                    }
                    _ => check_drain(&mut merge, &mut model),
                }
                assert_eq!(merge.pending(), model.len());
            }
            for shard in 0..shards {
                merge.finish(shard);
            }
            check_drain(&mut merge, &mut model);
            assert_eq!(merge.pending(), 0);
        }
    }

    #[test]
    fn restore_rejects_buffered_matches_out_of_order() {
        // Hand-written stream: one shard, two matches with descending seq at
        // one end timestamp — never produced by `write_snapshot`.
        let mut w = SnapshotWriter::new();
        w.len(1);
        w.opt_u64(Some(9));
        w.len(2);
        for seq in [1u64, 0] {
            w.u64(0);
            w.u64(0);
            w.u64(seq);
            w.record(m(0, 0, seq, 5).record.view());
        }
        let bytes = w.into_bytes();
        let err = OrderedMerge::restore_snapshot(&mut SnapshotReader::new(&bytes), |_| true);
        assert!(matches!(err, Err(SnapshotError::Corrupt(_))), "got {err:?}");
    }
}
