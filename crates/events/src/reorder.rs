//! Reordering of disordered streams.
//!
//! §4.1 of the paper: *"ZStream assumes that primitive events from data
//! sources continuously stream into leaf buffers in time order. If disorder
//! is a problem, a reordering operator may be placed just after the leaf
//! buffer."* [`ColumnarReorder`] is that operator, in the columnar,
//! multi-source form the scale-out runtime puts in front of its ingest: it
//! takes arrival-order batches, buffers cheap `(Arc<BatchData>, row)`
//! handles (no per-event allocation) within a bounded *slack* window, tracks
//! one high-water mark **per source**, and releases rows up to the *global*
//! frontier `min(high-water over sources) − slack`, re-packed into fresh
//! time-ordered [`EventBatch`]es so everything downstream keeps the
//! sorted-batch invariant and the zero-copy selection-vector fan-out. A
//! fully in-order batch that is immediately releasable passes through as an
//! `Arc` bump of the original storage — zero copies on the sorted fast
//! path. A row arriving more than `slack` time units behind its source's
//! high-water mark cannot be ordered anymore and is returned as late.
//!
//! Per-source watermarks make multi-source merging exact: an event from
//! source `s` is late only against *its own* source's high-water mark, while
//! release waits for every source — so interleaving several individually
//! ordered streams with arbitrary skew between them produces zero late
//! events (even at `slack = 0`) and a correctly merged output.
//!
//! ## Boundary semantics (pinned)
//!
//! An event is rejected as late exactly when `ts + slack < high_water` —
//! an event exactly `slack` behind the high-water mark is still accepted,
//! and `slack = 0` means "strictly in order" (equal timestamps are fine,
//! going backwards is not). The addition saturates, so a huge slack can
//! never overflow into spurious lateness. Rows with equal timestamps
//! release in arrival order, within a batch and across batches.

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::snapshot::{Snapshot, SnapshotError, SnapshotReader, SnapshotResult, SnapshotWriter};
use crate::soa::{gather, EventBatch};
use crate::time::Ts;
use crate::EventRef;

/// Rows released by one [`ColumnarReorder::offer_batch_from`] call.
#[derive(Debug)]
pub struct BatchRelease {
    /// Released rows, re-packed into time-ordered batches (one per maximal
    /// run of rows sharing a schema). On the sorted fast path this is the
    /// offered batch itself — an `Arc` bump, not a copy.
    pub batches: Vec<EventBatch>,
    /// Rows rejected as too late, in arrival order. Counted in
    /// [`ColumnarReorder::late_count`]; the caller applies its lateness
    /// policy (drop, dead-letter, error).
    pub late: Vec<EventRef>,
}

impl BatchRelease {
    fn empty() -> BatchRelease {
        BatchRelease { batches: Vec::new(), late: Vec::new() }
    }

    /// Total rows across the released batches.
    pub fn released_rows(&self) -> usize {
        self.batches.iter().map(EventBatch::len).sum()
    }
}

/// Point-in-time pressure counters of a [`ColumnarReorder`] (see
/// [`ColumnarReorder::stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReorderStats {
    /// Number of ingest sources (per-source high-water marks).
    pub sources: usize,
    /// Rows currently held back within the slack window.
    pub pending: usize,
    /// Peak rows held back at once since construction.
    pub buffered_peak: usize,
    /// Rows rejected as too late so far (all sources).
    pub late: u64,
    /// Current release frontier: `min(high_water) − slack`, saturating.
    pub frontier: Ts,
}

/// Columnar, multi-source reordering operator: accepts batches whose rows
/// are in **arrival order**, buffers row handles within a slack window, and
/// releases time-ordered batches as the per-source watermarks advance.
///
/// One high-water mark is kept per source; an event is late only against
/// its own source's mark (`ts + slack < high_water[source]`, saturating),
/// while rows release once they fall at or below the global frontier
/// `min(high_water) − slack`.
#[derive(Debug)]
pub struct ColumnarReorder {
    slack: Ts,
    high_water: Vec<Ts>,
    /// Pending row handles keyed by (ts, arrival tiebreak): cheap
    /// `(Arc<BatchData>, row)` pairs, no per-event allocation.
    pending: BTreeMap<(Ts, u64), EventRef>,
    arrivals: u64,
    late: u64,
    buffered_peak: usize,
}

impl ColumnarReorder {
    /// Single-source operator tolerating disorder up to `slack` time units.
    pub fn new(slack: Ts) -> ColumnarReorder {
        ColumnarReorder::with_sources(slack, 1)
    }

    /// Multi-source operator: one independent high-water mark per source.
    pub fn with_sources(slack: Ts, sources: usize) -> ColumnarReorder {
        assert!(sources >= 1, "at least one source required");
        ColumnarReorder {
            slack,
            high_water: vec![0; sources],
            pending: BTreeMap::new(),
            arrivals: 0,
            late: 0,
            buffered_peak: 0,
        }
    }

    /// Number of sources this operator merges.
    pub fn num_sources(&self) -> usize {
        self.high_water.len()
    }

    /// The configured slack.
    pub fn slack(&self) -> Ts {
        self.slack
    }

    /// One source's high-water mark (largest accepted timestamp).
    pub fn high_water(&self, source: usize) -> Ts {
        self.high_water[source]
    }

    /// The global release frontier: `min(high-water over sources) − slack`
    /// (saturating). Every released row's timestamp is at or below it, and
    /// every future accepted row's timestamp is at or above it — the
    /// downstream watermark may safely advance to this point.
    pub fn frontier(&self) -> Ts {
        self.high_water.iter().copied().min().unwrap_or(0).saturating_sub(self.slack)
    }

    /// Index, timestamp and earliest acceptable timestamp of the first
    /// offering in `ts` that the source's watermark would reject, without
    /// mutating anything — the all-or-nothing pre-check behind a strict
    /// lateness policy.
    pub fn first_late_in(
        &self,
        source: usize,
        ts: impl IntoIterator<Item = Ts>,
    ) -> Option<(usize, Ts, Ts)> {
        let mut hw = self.high_water[source];
        for (i, t) in ts.into_iter().enumerate() {
            if t.saturating_add(self.slack) < hw {
                return Some((i, t, hw.saturating_sub(self.slack)));
            }
            hw = hw.max(t);
        }
        None
    }

    /// Offers one arrival-order batch from `source`; returns the rows that
    /// became releasable (re-packed into time-ordered batches) and the rows
    /// rejected as late.
    ///
    /// Fast path: when nothing is pending and the offered batch is already
    /// time-ordered and immediately releasable in full (its last row is at
    /// or below the updated global frontier), the original batch is
    /// returned as-is — one `Arc` bump, zero copies.
    pub fn offer_batch_from(&mut self, source: usize, batch: &EventBatch) -> BatchRelease {
        if batch.is_empty() {
            return BatchRelease::empty();
        }
        let ts_col = batch.ts_column();
        if self.pending.is_empty()
            && batch.is_sorted()
            && ts_col[0].saturating_add(self.slack) >= self.high_water[source]
        {
            let last = *ts_col.last().expect("non-empty batch");
            let hw = self.high_water[source].max(last);
            let frontier = self
                .high_water
                .iter()
                .enumerate()
                .map(|(s, w)| if s == source { hw } else { *w })
                .min()
                .expect("at least one source")
                .saturating_sub(self.slack);
            if frontier >= last {
                self.high_water[source] = hw;
                return BatchRelease { batches: vec![batch.clone()], late: Vec::new() };
            }
        }
        let mut late = Vec::new();
        for (row, &ts) in ts_col.iter().enumerate() {
            if ts.saturating_add(self.slack) < self.high_water[source] {
                self.late += 1;
                late.push(batch.event(row));
                continue;
            }
            self.high_water[source] = self.high_water[source].max(ts);
            self.arrivals += 1;
            self.pending.insert((ts, self.arrivals), batch.event(row));
        }
        self.buffered_peak = self.buffered_peak.max(self.pending.len());
        let release_upto = self.frontier();
        let mut released = Vec::new();
        while let Some(entry) = self.pending.first_entry() {
            if entry.key().0 > release_upto {
                break;
            }
            released.push(entry.remove());
        }
        BatchRelease { batches: repack_events(&released), late }
    }

    /// Releases everything still pending as time-ordered batches (end of
    /// stream).
    pub fn flush(&mut self) -> Vec<EventBatch> {
        let pending = std::mem::take(&mut self.pending);
        repack_events(&pending.into_values().collect::<Vec<_>>())
    }

    /// Rows currently held back.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Rows rejected as too late so far.
    pub fn late_count(&self) -> u64 {
        self.late
    }

    /// Peak number of rows buffered at once — the memory cost of the slack.
    pub fn buffered_peak(&self) -> usize {
        self.buffered_peak
    }

    /// One coherent view of the operator's pressure counters, cheap enough
    /// to read after every ingest call. This is the scrape surface an
    /// observability layer publishes (buffered depth, peak, late drops,
    /// frontier) without reaching into the operator's internals.
    pub fn stats(&self) -> ReorderStats {
        ReorderStats {
            sources: self.high_water.len(),
            pending: self.pending.len(),
            buffered_peak: self.buffered_peak,
            late: self.late,
            frontier: self.frontier(),
        }
    }

    /// Rebuilds an operator from a [`Snapshot`] stream: per-source
    /// high-water marks, the pending tree (with arrival tiebreaks, so
    /// equal-timestamp release order survives the restart) and the
    /// late/peak counters.
    pub fn restore_snapshot(r: &mut SnapshotReader<'_>) -> SnapshotResult<ColumnarReorder> {
        let slack = r.u64()?;
        let sources = r.len()?;
        if sources == 0 {
            return Err(SnapshotError::Corrupt("reorder snapshot has zero sources".into()));
        }
        let mut high_water = Vec::with_capacity(sources);
        for _ in 0..sources {
            high_water.push(r.u64()?);
        }
        let arrivals = r.u64()?;
        let late = r.u64()?;
        let buffered_peak = usize::try_from(r.u64()?)
            .map_err(|_| SnapshotError::Corrupt("buffered peak exceeds usize".into()))?;
        let n = r.len()?;
        let mut pending = BTreeMap::new();
        for _ in 0..n {
            let ts = r.u64()?;
            let arrival = r.u64()?;
            if arrival > arrivals {
                return Err(SnapshotError::Corrupt(format!(
                    "pending arrival {arrival} exceeds arrival counter {arrivals}"
                )));
            }
            let event = r.event()?;
            if pending.insert((ts, arrival), event).is_some() {
                return Err(SnapshotError::Corrupt(format!(
                    "duplicate pending key ({ts}, {arrival})"
                )));
            }
        }
        Ok(ColumnarReorder { slack, high_water, pending, arrivals, late, buffered_peak })
    }
}

impl Snapshot for ColumnarReorder {
    fn write_snapshot(&self, w: &mut SnapshotWriter) {
        w.u64(self.slack);
        w.len(self.high_water.len());
        for &hw in &self.high_water {
            w.u64(hw);
        }
        w.u64(self.arrivals);
        w.u64(self.late);
        w.u64(self.buffered_peak as u64);
        w.len(self.pending.len());
        for ((ts, arrival), event) in &self.pending {
            w.u64(*ts);
            w.u64(*arrival);
            w.event(event);
        }
    }
}

/// True when a row of schema `b` can be gathered into a batch of schema
/// `a` — structural equality (name + fields incl. types), so a run grouped
/// by this predicate always gathers value for value. Distinct `Arc`
/// instances of one logical schema (each generator call allocates its own)
/// compare equal via the structural fallback behind the cheap pointer check.
fn schemas_compatible(a: &crate::Schema, b: &crate::Schema) -> bool {
    std::ptr::eq(a, b) || a == b
}

/// Copies row handles into fresh batches, one per maximal run of rows
/// sharing a compatible schema, so handles from different storage batches
/// of one logical schema pack together. The returned handles point into
/// the new compact storage — the originals (and the source batches they
/// pin) can be dropped, which is what makes this the right tool for
/// retaining a few rows (e.g. dead-lettered late events) out of large
/// batches.
pub fn repack_events(events: &[EventRef]) -> Vec<EventBatch> {
    let mut out = Vec::new();
    let mut start = 0;
    while start < events.len() {
        let schema = events[start].schema();
        let mut end = start + 1;
        while end < events.len() && schemas_compatible(schema, events[end].schema()) {
            end += 1;
        }
        let rows = events[start..end].iter().map(|e| {
            let (data, row) = e.batch_row();
            (&**data, row as usize)
        });
        out.push(gather(Arc::clone(schema), rows));
        start = end;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::stock;
    use crate::{Schema, Value};

    /// An arrival-order stock batch: row `i` has timestamp `ts[i]` and id
    /// `first_id + i`, so the id records arrival order across batches.
    fn arrival_batch(ts: &[Ts], first_id: i64) -> EventBatch {
        let mut b = EventBatch::builder(Schema::stocks(), ts.len());
        for (i, &t) in ts.iter().enumerate() {
            let id = Value::Int(first_id + i as i64);
            b.push_row(t, &[id, Value::str("A"), Value::Float(1.0), Value::Int(1)]).unwrap();
        }
        b.finish()
    }

    fn batch_of(ts: &[Ts]) -> EventBatch {
        arrival_batch(ts, 0)
    }

    fn released_ts(release: &BatchRelease) -> Vec<Ts> {
        release.batches.iter().flat_map(|b| b.ts_column().iter().copied()).collect()
    }

    /// `(ts, arrival id)` of every row of `batches`, in order.
    fn rows(batches: &[EventBatch]) -> Vec<(Ts, i64)> {
        batches
            .iter()
            .flat_map(EventBatch::iter)
            .map(|e| (e.ts(), e.value(0).as_i64().unwrap()))
            .collect()
    }

    /// One row of the boundary table: `slack`; the arrival-order batches
    /// offered in turn to a single-source operator; the timestamps each
    /// offer releases; the timestamps rejected as late (all offers, in
    /// arrival order); and what the end-of-stream flush releases.
    type Case<'a> = (Ts, &'a [&'a [Ts]], &'a [&'a [Ts]], &'a [Ts], &'a [Ts]);

    /// Runs a case twice: with each offer as one multi-row batch, and with
    /// each offer split into one-row batches (whose releases concatenate per
    /// offer). Both must produce the table's output, and the whole output
    /// must be in time order with equal timestamps in arrival order.
    fn check((slack, offers, released, late, flushed): Case<'_>) {
        for one_row in [false, true] {
            let mut cr = ColumnarReorder::new(slack);
            let (mut next_id, mut out, mut got_late) = (0, Vec::new(), Vec::new());
            for (i, offer) in offers.iter().enumerate() {
                let mut got = Vec::new();
                for rows_in in offer.chunks(if one_row { 1 } else { offer.len() }) {
                    let r = cr.offer_batch_from(0, &arrival_batch(rows_in, next_id));
                    next_id += rows_in.len() as i64;
                    got.extend(rows(&r.batches));
                    got_late.extend(r.late.iter().map(EventRef::ts));
                }
                let got_ts: Vec<Ts> = got.iter().map(|r| r.0).collect();
                assert_eq!(got_ts, released[i], "offer {i}, one_row = {one_row}");
                out.extend(got);
            }
            assert_eq!(got_late, late, "late rows, one_row = {one_row}");
            assert_eq!(cr.late_count(), late.len() as u64);
            let tail = rows(&cr.flush());
            assert_eq!(tail.iter().map(|r| r.0).collect::<Vec<_>>(), flushed, "flush");
            out.extend(tail);
            assert!(out.windows(2).all(|w| w[0] < w[1]), "one_row = {one_row}: {out:?}");
        }
    }

    #[test]
    fn reorders_within_slack() {
        check((5, &[&[3, 1], &[7, 5], &[12]], &[&[], &[1], &[3, 5, 7]], &[], &[12]));
    }

    #[test]
    fn rejects_events_beyond_slack() {
        // 2 is beyond slack 3 of high-water 10; 7 is exactly at the boundary.
        check((3, &[&[10, 2, 7]], &[&[7]], &[2], &[10]));
    }

    #[test]
    fn boundary_exactly_slack_late_is_accepted() {
        // high_water = 100, slack = 7: ts 93 is exactly slack late and is
        // accepted; ts 92 is one past and is rejected.
        check((7, &[&[100, 93, 92]], &[&[93]], &[92], &[100]));
    }

    #[test]
    fn zero_slack_means_strictly_in_order() {
        // Equal timestamps are fine, going backwards is late, and in-order
        // rows release immediately.
        check((0, &[&[5, 5, 4, 6]], &[&[5, 5, 6]], &[4], &[]));
    }

    #[test]
    fn huge_slack_never_overflows_into_lateness() {
        // ts + slack would overflow u64; saturation keeps the row
        // acceptable instead of wrapping around into spurious lateness.
        check((Ts::MAX, &[&[Ts::MAX - 1, 0]], &[&[0]], &[], &[Ts::MAX - 1]));
        let (max, edge, past) = (Ts::MAX, Ts::MAX - 10, Ts::MAX - 11);
        check((10, &[&[max, edge, past]], &[&[edge]], &[past], &[max]));
    }

    #[test]
    fn releases_eagerly_as_watermark_advances() {
        // Nothing is releasable until the watermark passes 2 + slack; then
        // rows at or below 6 - 2 = 4 release and 6 stays pending.
        check((2, &[&[1, 2], &[6]], &[&[], &[1, 2]], &[], &[6]));
    }

    #[test]
    fn equal_timestamps_release_in_arrival_order() {
        // Three rows at ts 5 — two in one batch, one in the next — release
        // in arrival order (`check` compares the arrival ids), both when the
        // watermark passes them and at the flush.
        check((1, &[&[5, 5], &[5, 7]], &[&[], &[5, 5, 5]], &[], &[7]));
        check((1, &[&[5, 5], &[5]], &[&[], &[]], &[], &[5, 5, 5]));
    }

    #[test]
    fn zero_slack_passes_ordered_streams_through() {
        check((0, &[&[1, 2, 3, 4, 5]], &[&[1, 2, 3, 4, 5]], &[], &[]));
    }

    #[test]
    fn sorted_fast_path_is_zero_copy_at_zero_slack() {
        let mut cr = ColumnarReorder::new(0);
        let batch = batch_of(&[1, 2, 3, 4]);
        let release = cr.offer_batch_from(0, &batch);
        assert_eq!(release.batches.len(), 1);
        // Same storage, not a re-pack: the batch id is the proof.
        assert_eq!(release.batches[0].data().id(), batch.data().id());
        assert!(release.late.is_empty());
        assert_eq!(cr.pending_len(), 0);
        assert_eq!(cr.buffered_peak(), 0, "fast path buffers nothing");
    }

    #[test]
    fn positive_slack_holds_back_the_tail() {
        let mut cr = ColumnarReorder::new(2);
        let release = cr.offer_batch_from(0, &batch_of(&[1, 2, 3, 4, 5]));
        // Frontier is 5 - 2 = 3: rows 1..=3 release, 4 and 5 stay pending.
        assert_eq!(released_ts(&release), vec![1, 2, 3]);
        assert_eq!(cr.pending_len(), 2);
        assert_eq!(cr.frontier(), 3);
        let flushed: Vec<Ts> =
            cr.flush().iter().flat_map(|b| b.ts_column().iter().copied()).collect();
        assert_eq!(flushed, vec![4, 5]);
        assert_eq!(cr.pending_len(), 0);
    }

    #[test]
    fn disordered_batches_release_in_time_order() {
        let mut cr = ColumnarReorder::new(4);
        let r1 = cr.offer_batch_from(0, &batch_of(&[3, 1, 7, 5]));
        assert_eq!(released_ts(&r1), vec![1, 3], "frontier 7-4=3");
        let r2 = cr.offer_batch_from(0, &batch_of(&[6, 12]));
        assert_eq!(released_ts(&r2), vec![5, 6, 7], "frontier 12-4=8");
        for b in &r2.batches {
            assert!(b.is_sorted(), "released batches must be time-ordered");
        }
        assert_eq!(cr.buffered_peak(), 4, "at most {{5,7}} then {{5,6,7,12}} were pending");
    }

    #[test]
    fn late_rows_are_returned_in_arrival_order() {
        let mut cr = ColumnarReorder::new(1);
        cr.offer_batch_from(0, &batch_of(&[10]));
        let release = cr.offer_batch_from(0, &batch_of(&[4, 9, 2]));
        let late_ts: Vec<Ts> = release.late.iter().map(|e| e.ts()).collect();
        assert_eq!(late_ts, vec![4, 2], "ts 9 is exactly slack late and accepted");
        assert_eq!(cr.late_count(), 2);
    }

    #[test]
    fn per_source_watermarks_merge_skewed_in_order_sources() {
        // Two individually ordered sources with heavy skew: no lateness
        // even at slack 0, and release waits for the slower source.
        let mut cr = ColumnarReorder::with_sources(0, 2);
        let r = cr.offer_batch_from(0, &batch_of(&[100, 200]));
        assert_eq!(released_ts(&r), Vec::<Ts>::new(), "source 1 still at 0");
        let r = cr.offer_batch_from(1, &batch_of(&[50, 150]));
        assert_eq!(released_ts(&r), vec![50, 100, 150], "frontier = min(200, 150)");
        assert_eq!(cr.late_count(), 0);
        let r = cr.offer_batch_from(1, &batch_of(&[400]));
        assert_eq!(released_ts(&r), vec![200], "frontier = min(200, 400) = 200");
        assert_eq!(cr.frontier(), 200);
        assert_eq!(cr.pending_len(), 1, "400 waits for source 0 to catch up");
        assert_eq!(cr.high_water(0), 200);
        assert_eq!(cr.high_water(1), 400);
    }

    #[test]
    fn lateness_is_judged_per_source() {
        // Source 0 races ahead; source 1's old-but-in-order event must not
        // be judged against source 0's high-water mark.
        let mut cr = ColumnarReorder::with_sources(3, 2);
        cr.offer_batch_from(0, &batch_of(&[1000]));
        let r = cr.offer_batch_from(1, &batch_of(&[5]));
        assert!(r.late.is_empty(), "in-order per its own source");
        // But within source 0, the usual slack rule applies.
        let r = cr.offer_batch_from(0, &batch_of(&[10]));
        assert_eq!(r.late.len(), 1);
    }

    #[test]
    fn first_late_in_predicts_offer_without_mutating() {
        let mut cr = ColumnarReorder::new(2);
        cr.offer_batch_from(0, &batch_of(&[20]));
        // Row 1 (ts 5) is the first the watermark would reject; the check
        // simulates the running high-water mark within the probe itself.
        assert_eq!(cr.first_late_in(0, [19, 5, 30].into_iter()), Some((1, 5, 18)));
        // A row late only against an earlier row of the same probe.
        assert_eq!(cr.first_late_in(0, [40, 21].into_iter()), Some((1, 21, 38)));
        assert_eq!(cr.first_late_in(0, [18, 19, 30].into_iter()), None);
        assert_eq!(cr.high_water(0), 20, "probing must not move the watermark");
        assert_eq!(cr.late_count(), 0);
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let mut cr = ColumnarReorder::new(5);
        let empty = EventBatch::builder(crate::Schema::stocks(), 0).finish();
        let r = cr.offer_batch_from(0, &empty);
        assert!(r.batches.is_empty() && r.late.is_empty());
        assert_eq!(r.released_rows(), 0);
    }

    #[test]
    fn repack_splits_same_name_schemas_with_different_types() {
        use crate::value::ValueType;
        use crate::Event;
        // Same name, same arity, different field types: their values cannot
        // share a column, so the run grouping must split here instead of
        // panicking.
        let sa = Arc::new(Schema::builder("S").field("x", ValueType::Int).build().unwrap());
        let sb = Arc::new(Schema::builder("S").field("x", ValueType::Str).build().unwrap());
        let ea = Event::builder(sa, 1).value(7i64).build_ref().unwrap();
        let eb = Event::builder(sb, 2).value("seven").build_ref().unwrap();
        let mut cr = ColumnarReorder::new(10);
        for e in [ea, eb] {
            let r = cr.offer_batch_from(0, &EventBatch::from_events(&[e]).unwrap());
            assert_eq!(r.released_rows(), 0);
        }
        let batches = cr.flush();
        assert_eq!(batches.len(), 2, "incompatible schemas must not share a batch");
        assert_eq!(batches[0].ts_column(), &[1]);
        assert_eq!(batches[1].ts_column(), &[2]);
        assert_eq!(batches[1].column(0).value(0), Value::str("seven"));
    }

    #[test]
    fn repack_events_empty_input_yields_no_batches() {
        assert!(repack_events(&[]).is_empty());
    }

    #[test]
    fn repack_events_groups_maximal_compatible_runs() {
        // Stocks / WebLog / Stocks: three runs, even though the two stock
        // runs share a schema — repacking preserves order, so only
        // *adjacent* compatible rows share a batch.
        let web = crate::Event::builder(crate::Schema::weblog(), 2)
            .value("1.2.3.4")
            .value("/a")
            .value("news")
            .build_ref()
            .unwrap();
        let events = vec![stock(1, 1, "IBM", 1.0, 1), web, stock(3, 2, "Sun", 2.0, 1)];
        let batches = repack_events(&events);
        assert_eq!(batches.len(), 3);
        assert_eq!(batches[0].schema().name(), "Stocks");
        assert_eq!(batches[1].schema().name(), "WebLog");
        assert_eq!(batches[2].schema().name(), "Stocks");
        // Fresh storage: repacked handles do not pin the original batches.
        assert_ne!(batches[0].event(0).identity(), events[0].identity());
        assert_eq!(batches[0].event(0).to_string(), events[0].to_string());
    }

    #[test]
    fn repack_events_packs_sym_columns_across_source_batches() {
        // Rows from *different* storage batches of one logical schema pack
        // into a single batch, and the interned string column survives.
        let events = vec![stock(1, 1, "IBM", 1.0, 1), stock(2, 2, "Sun", 2.0, 1)];
        let batches = repack_events(&events);
        assert_eq!(batches.len(), 1, "distinct Arc schemas of one layout share a run");
        assert_eq!(batches[0].len(), 2);
        let syms = batches[0].column(1).as_syms().expect("name column must stay interned").to_vec();
        assert_eq!(syms, vec![crate::Sym::intern("IBM"), crate::Sym::intern("Sun")]);
    }

    #[test]
    fn snapshot_round_trips_pending_and_watermarks() {
        let mut cr = ColumnarReorder::with_sources(4, 2);
        cr.offer_batch_from(0, &batch_of(&[3, 1, 7, 5]));
        cr.offer_batch_from(1, &batch_of(&[2]));
        cr.offer_batch_from(0, &batch_of(&[0])); // late: counted
                                                 // A second pending row at ts 5 checks the arrival tiebreak survives.
        let tie = EventBatch::from_events(&[stock(5, 99, "B", 9.0, 9)]).unwrap();
        assert_eq!(cr.offer_batch_from(0, &tie).released_rows(), 0);

        let mut w = SnapshotWriter::new();
        cr.write_snapshot(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapshotReader::new(&bytes);
        let mut back = ColumnarReorder::restore_snapshot(&mut r).unwrap();
        assert!(r.is_exhausted());

        assert_eq!(back.slack(), cr.slack());
        assert_eq!(back.num_sources(), 2);
        assert_eq!(back.high_water(0), cr.high_water(0));
        assert_eq!(back.high_water(1), cr.high_water(1));
        assert_eq!(back.late_count(), cr.late_count());
        assert_eq!(back.buffered_peak(), cr.buffered_peak());
        assert_eq!(back.pending_len(), cr.pending_len());
        // Both drain identically — same order, same row contents.
        let drain = |c: &mut ColumnarReorder| {
            c.flush().iter().flat_map(EventBatch::iter).map(|e| e.to_string()).collect::<Vec<_>>()
        };
        let drained = drain(&mut cr);
        assert_eq!(drained.len(), 6, "source 1 at 2 holds the frontier at 0: nothing released");
        assert_eq!(drain(&mut back), drained);
    }

    #[test]
    fn snapshot_rejects_corrupt_streams() {
        let cr = ColumnarReorder::with_sources(1, 1);
        let mut w = SnapshotWriter::new();
        cr.write_snapshot(&mut w);
        let bytes = w.into_bytes();
        assert!(ColumnarReorder::restore_snapshot(&mut SnapshotReader::new(
            &bytes[..bytes.len() - 1]
        ))
        .is_err());
        // Zero sources is structurally invalid.
        let mut w = SnapshotWriter::new();
        w.u64(0); // slack
        w.len(0); // sources
        let bytes = w.into_bytes();
        assert!(matches!(
            ColumnarReorder::restore_snapshot(&mut SnapshotReader::new(&bytes)),
            Err(SnapshotError::Corrupt(_))
        ));
    }

    #[test]
    fn stats_reflect_pressure_counters() {
        let mut cr = ColumnarReorder::with_sources(5, 2);
        let _ = cr.offer_batch_from(0, &batch_of(&[10, 12]));
        let s = cr.stats();
        assert_eq!(s.sources, 2);
        assert_eq!(s.pending, 2, "source 1 still at 0 holds the frontier");
        assert_eq!(s.buffered_peak, 2);
        assert_eq!(s.late, 0);
        assert_eq!(s.frontier, 0);
        let _ = cr.offer_batch_from(1, &batch_of(&[20]));
        let s = cr.stats();
        assert_eq!(s.frontier, 12 - 5);
        assert_eq!(s.pending, 3, "rows 10, 12, 20 are all above frontier 7");
        let _ = cr.offer_batch_from(0, &batch_of(&[1]));
        assert_eq!(cr.stats().late, 1, "ts 1 + slack 5 < high_water 12");
    }
}
