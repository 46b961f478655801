//! Shard routing of time-ordered event batches.
//!
//! The paper's hash partitioning (§4.1, Figures 3–4) keys an engine per
//! attribute value; a scale-out runtime coarsens that idea to a fixed number
//! of worker *shards*, assigning every partition key to exactly one shard so
//! the shards share nothing. These helpers perform the routing step: a
//! stable key → shard mapping and batch splitters that preserve the
//! time-order of each shard's sub-stream.
//!
//! Routing is integer work end-to-end: keys canonicalize to
//! [`HashableValue`] (strings are interned symbols whose **content** digest
//! is cached in the symbol table), so routing a row costs a digest lookup
//! and a modulo — no string hashing on the routing path.

use std::collections::HashMap;

use crate::soa::EventBatch;
use crate::sym::Sym;
use crate::value::HashableValue;

/// The shard owning `key` among `num_shards` shards.
///
/// Stable across processes and runs (it hashes via
/// [`HashableValue::digest`], which depends only on the key's content), so
/// a stream replayed with the same shard count routes identically — a
/// prerequisite for deterministic scale-out output.
pub fn shard_of(key: &HashableValue, num_shards: usize) -> usize {
    assert!(num_shards >= 1, "at least one shard required");
    (key.digest() % num_shards as u64) as usize
}

/// Result of [`split_batch_rows`]: per-shard **selection vectors** (row
/// indices into the routed batch, ascending) plus the count of rows that
/// lacked the routing field. Shipping `(Arc<BatchData>, selection)` to a
/// shard costs one refcount bump and one index vector — no event handles,
/// no column gathers.
#[derive(Debug)]
pub struct RowSplit {
    /// One ascending row-index vector per shard (same index as the shard id).
    pub shards: Vec<Vec<u32>>,
    /// Rows whose schema has no `field` attribute; they route nowhere.
    pub dropped: u64,
}

/// Columnar routing that stops at **row indices**: scans the key column once
/// (field index resolved once per batch, string keys routed via memoized
/// symbol digests) and returns per-shard selection vectors: each row goes
/// to the [`shard_of`] its key. Within a shard, indices are ascending, so
/// the selected sub-stream stays time-ordered.
pub fn split_batch_rows(batch: &EventBatch, field: &str, num_shards: usize) -> RowSplit {
    assert!(num_shards >= 1, "at least one shard required");
    let mut shards: Vec<Vec<u32>> = vec![Vec::new(); num_shards];
    let Ok(idx) = batch.schema().field_index(field) else {
        return RowSplit { shards, dropped: batch.len() as u64 };
    };
    let col = batch.column(idx);
    if let Some(dict) = col.as_dict() {
        // Hottest path: the dictionary already names every distinct symbol,
        // so resolve each code's shard once and route rows on `u8` codes —
        // no hashing, no per-row map lookups.
        let shard_of_code: Vec<usize> = dict
            .dict()
            .iter()
            .map(|&s| (HashableValue::Str(s).digest() % num_shards as u64) as usize)
            .collect();
        for (row, &code) in dict.codes().iter().enumerate() {
            shards[shard_of_code[code as usize]].push(row as u32);
        }
    } else if let Some(syms) = col.as_syms() {
        // Hot path: route on the interned symbol column with memoized
        // content digests — one table lookup per distinct symbol.
        let mut digests: HashMap<Sym, u64> = HashMap::new();
        for (row, sym) in syms.iter().enumerate() {
            let digest = *digests.entry(*sym).or_insert_with(|| HashableValue::Str(*sym).digest());
            shards[(digest % num_shards as u64) as usize].push(row as u32);
        }
    } else {
        for row in 0..batch.len() {
            let shard = shard_of(&col.value(row).hash_key(), num_shards);
            shards[shard].push(row as u32);
        }
    }
    RowSplit { shards, dropped: 0 }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::stock;
    use crate::value::Value;
    use crate::EventRef;

    /// Per-shard sub-batches plus the count of events without the field.
    struct ShardSplit {
        shards: Vec<Vec<EventRef>>,
        dropped: u64,
    }

    /// The per-event reference [`split_batch_rows`] is tested against: each
    /// event goes to the [`shard_of`] its `field` value, in stream order;
    /// events without the field count as dropped.
    fn split_by_field(events: &[EventRef], field: &str, num_shards: usize) -> ShardSplit {
        let mut split = ShardSplit { shards: vec![Vec::new(); num_shards], dropped: 0 };
        for event in events {
            match event.value_by_name(field) {
                Ok(v) => split.shards[shard_of(&v.hash_key(), num_shards)].push(event.clone()),
                Err(_) => split.dropped += 1,
            }
        }
        split
    }

    #[test]
    fn shard_assignment_is_stable_and_in_range() {
        for n in 1..=8usize {
            for name in ["IBM", "Sun", "Oracle", "HP", "Dell"] {
                let key = Value::str(name).hash_key();
                let s = shard_of(&key, n);
                assert!(s < n);
                assert_eq!(s, shard_of(&key, n), "same key must map to same shard");
            }
        }
    }

    #[test]
    fn numeric_keys_coerce_before_routing() {
        // Int(2) and Float(2.0) are the same partition key, so they must
        // land on the same shard.
        assert_eq!(
            shard_of(&Value::Int(2).hash_key(), 8),
            shard_of(&Value::Float(2.0).hash_key(), 8)
        );
    }

    #[test]
    fn split_preserves_order_and_covers_all_events() {
        let names = ["IBM", "Sun", "Oracle", "HP"];
        let events: Vec<EventRef> =
            (0..40u64).map(|i| stock(i, i as i64, names[i as usize % 4], 1.0, 1)).collect();
        let batch = EventBatch::from_events(&events).unwrap();
        let split = split_batch_rows(&batch, "name", 3);
        assert_eq!(split.dropped, 0);
        assert_eq!(split.shards.iter().map(Vec::len).sum::<usize>(), events.len());
        for rows in &split.shards {
            assert!(rows.windows(2).all(|w| w[0] < w[1]), "sub-stream in stream order");
        }
        // All events of one name land on one shard.
        for name in names {
            let holders: Vec<usize> = split
                .shards
                .iter()
                .enumerate()
                .filter(|(_, rows)| {
                    let name_of = |r: &u32| batch.event(*r as usize).value_by_name("name").unwrap();
                    rows.iter().any(|r| name_of(r).as_str().unwrap() == name)
                })
                .map(|(i, _)| i)
                .collect();
            assert!(holders.len() <= 1, "key '{name}' split across shards {holders:?}");
        }
    }

    /// Rows and events route alike, whatever the key column's layout.
    fn assert_row_split_agrees(events: &[EventRef], field: &str) {
        let batch = EventBatch::from_events(events).unwrap();
        for n in [1usize, 2, 3, 7] {
            let by_event = split_by_field(events, field, n);
            let by_row = split_batch_rows(&batch, field, n);
            assert_eq!(by_event.dropped, by_row.dropped);
            for (evs, rows) in by_event.shards.iter().zip(&by_row.shards) {
                assert!(rows.windows(2).all(|w| w[0] < w[1]), "selection must ascend");
                let gathered: Vec<String> =
                    rows.iter().map(|r| batch.event(*r as usize).to_string()).collect();
                let direct: Vec<String> = evs.iter().map(|e| e.to_string()).collect();
                assert_eq!(gathered, direct, "row and event routing must agree at {n} shards");
            }
        }
    }

    #[test]
    fn batch_split_matches_per_event_split() {
        // An int key column: neither symbol fast path applies.
        let events: Vec<EventRef> =
            (0..50u64).map(|i| stock(i, i as i64, "IBM", 1.0, (i % 6) as i64)).collect();
        assert_row_split_agrees(&events, "volume");
    }

    #[test]
    fn row_split_agrees_with_event_split_and_stays_ordered() {
        let names = ["IBM", "Sun", "Oracle", "HP", "Dell"];
        let events: Vec<EventRef> =
            (0..50u64).map(|i| stock(i, i as i64, names[i as usize % 5], 1.0, 1)).collect();
        assert!(EventBatch::from_events(&events).unwrap().column(1).as_syms().is_some());
        assert_row_split_agrees(&events, "name");
    }

    #[test]
    fn dict_encoded_batches_route_identically() {
        // 128 rows of 5 names: finish() dictionary-encodes the key column,
        // and the code-table fast path must agree with per-event routing.
        let names = ["IBM", "Sun", "Oracle", "HP", "Dell"];
        let events: Vec<EventRef> =
            (0..128u64).map(|i| stock(i, i as i64, names[i as usize % 5], 1.0, 1)).collect();
        let batch = EventBatch::from_events(&events).unwrap();
        assert!(batch.column(1).as_dict().is_some(), "name column should dictionary-encode");
        assert_row_split_agrees(&events, "name");
    }

    #[test]
    fn row_split_without_field_drops_all() {
        let events: Vec<EventRef> = (0..5u64).map(|i| stock(i, 0, "IBM", 1.0, 1)).collect();
        let batch = EventBatch::from_events(&events).unwrap();
        let split = split_batch_rows(&batch, "no_such_field", 2);
        assert_eq!(split.dropped, 5);
        assert!(split.shards.iter().all(Vec::is_empty));
    }

    #[test]
    fn split_counts_missing_field_as_dropped() {
        let events: Vec<EventRef> = (0..5u64).map(|i| stock(i, 0, "IBM", 1.0, 1)).collect();
        let split = split_by_field(&events, "no_such_field", 2);
        assert_eq!(split.dropped, 5);
        assert!(split.shards.iter().all(Vec::is_empty));
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        shard_of(&Value::Int(1).hash_key(), 0);
    }
}
