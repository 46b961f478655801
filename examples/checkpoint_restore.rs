//! Durable state: checkpoint a live runtime, crash it, restore, replay.
//!
//! The runtime checkpoints into any `io::Write` — here an in-memory
//! `Vec<u8>` standing in for a file or object store. The demo ingests half
//! a stock stream, takes a checkpoint, keeps going, then *crashes* (drops
//! the runtime without shutdown, losing everything emitted after the
//! checkpoint). A fresh process restores from the bytes, re-delivers the
//! last pre-checkpoint chunk (at-least-once delivery: the replay guard
//! absorbs the duplicate), replays the tail, and ends up with exactly the
//! match set of a run that never crashed.
//!
//! ```sh
//! cargo run --release --example checkpoint_restore
//! ```

use zstream::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let query = "PATTERN A; B; C \
                 WHERE A.name = B.name AND B.name = C.name AND C.price > A.price \
                 WITHIN 60 RETURN A, C";
    let builder = || -> Result<RuntimeBuilder, Box<dyn std::error::Error>> {
        let mut b = Runtime::builder().workers(4).channel_capacity(4);
        b.register(EngineBuilder::parse(query)?.compile()?, Partitioning::Auto("name".into()));
        Ok(b)
    };

    let names = ["IBM", "Sun", "Oracle", "Google", "HP", "Dell", "AMD", "Intel"];
    let rates: Vec<(&str, f64)> = names.iter().map(|n| (*n, 1.0)).collect();
    let batches = StockGenerator::generate_batches(StockConfig::with_rates(&rates, 4_000, 7), 256);
    let ckpt_at = batches.len() / 2;

    // ---- Uninterrupted baseline: what the crash must not change. --------
    let mut oracle = builder()?.build()?;
    let mut expected = 0usize;
    for batch in &batches {
        expected += oracle.ingest_columns(batch)?.len();
    }
    expected += oracle.shutdown()?.matches.len();

    // ---- The crashing run. ----------------------------------------------
    let mut runtime = builder()?.build()?;
    let mut durable = 0usize;
    for batch in &batches[..ckpt_at] {
        durable += runtime.ingest_columns(batch)?.len();
    }

    // Any io::Write works; a real deployment hands in a file and fsyncs it.
    let mut store: Vec<u8> = Vec::new();
    let id: CheckpointId = runtime.checkpoint(&mut store)?;
    println!(
        "{id}: {} bytes after {} of {} chunks ({durable} matches already delivered)",
        store.len(),
        ckpt_at,
        batches.len(),
    );

    let mut lost = 0usize;
    for batch in &batches[ckpt_at..] {
        lost += runtime.ingest_columns(batch)?.len();
    }
    drop(runtime); // CRASH: no shutdown — post-checkpoint emissions are gone
    println!("crashed: {lost} post-checkpoint matches discarded (replay re-derives them)");

    // ---- Recovery. -------------------------------------------------------
    // Restore refuses a checkpoint whose configuration fingerprint (query
    // set, workers, batch size, slack) does not match this builder.
    let mut restored = builder()?.restore(&mut store.as_slice())?;

    // At-least-once input: the source re-delivers from its last acknowledged
    // offset, one chunk *before* the checkpoint. The one-shot replay guard
    // recognizes the duplicate chunk and absorbs it.
    let mut recovered = 0usize;
    for batch in &batches[ckpt_at - 1..] {
        recovered += restored.ingest_columns(batch)?.len();
    }
    let report = restored.shutdown()?;
    recovered += report.matches.len();

    println!(
        "recovered: {durable} pre-crash + {recovered} post-restore = {} matches \
         (uninterrupted run: {expected})",
        durable + recovered,
    );
    assert_eq!(durable + recovered, expected, "crash must be invisible");
    println!("crash was invisible: match streams are identical");
    Ok(())
}
