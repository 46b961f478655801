//! Stream hash partitioning (§4.1): the partitioned engine must produce
//! exactly the same matches as the flat engine and the oracle whenever the
//! partitioning soundness condition holds.

use zstream::core::reference::reference_signatures;
use zstream::core::{
    build_intake, can_partition_by, CompiledQuery, Engine, PartitionedEngine, PlanConfig,
};
use zstream::events::{stock, EventBatch, Schema};
use zstream::lang::{Query, SchemaMap};
use zstream::workload::{StockConfig, StockGenerator, WeblogConfig, WeblogGenerator};

#[test]
fn partitioned_query2_style_matches_oracle() {
    // Query 2 shape: the positive classes share the name directly, and the
    // negated class is anchored to T1 (see `can_partition_by` on why a
    // chain *through* the negated class would be unsound).
    let src = "PATTERN T1; !T2; T3 \
               WHERE T1.name = T3.name AND T2.name = T1.name \
                 AND T1.price > 50 AND T2.price < 50 AND T3.price > 60 \
               WITHIN 25";
    let schemas = SchemaMap::uniform(Schema::stocks());
    let compiled = CompiledQuery::optimize(&Query::parse(src).unwrap(), &schemas, None).unwrap();
    assert!(can_partition_by(&compiled.aq, "name"));
    let intake = build_intake(&compiled.aq, None).unwrap();

    let batches = StockGenerator::generate_batches(
        StockConfig::uniform(&["IBM", "Sun", "Oracle"], 400, 31),
        8,
    );
    let events: Vec<_> = batches.iter().flat_map(EventBatch::iter).collect();
    let expected = reference_signatures(&compiled.aq, &intake, &events);

    let mut pe =
        PartitionedEngine::new(compiled.clone(), PlanConfig::default(), &intake, "name").unwrap();
    let mut out = Vec::new();
    for batch in &batches {
        out.extend(pe.push_columns(batch));
    }
    out.extend(pe.flush());
    let mut sigs: Vec<_> = out.iter().map(|r| pe.record_signature(r)).collect();
    let n = sigs.len();
    sigs.sort();
    sigs.dedup();
    assert_eq!(n, sigs.len(), "partitioned engine emitted duplicates");
    assert_eq!(sigs, expected);
    assert!(pe.num_partitions() >= 2, "several names should materialize partitions");
}

#[test]
fn partitioned_weblog_query8_equals_flat() {
    let src = "PATTERN Publication; Project; Course \
               WHERE Publication.ip = Project.ip AND Project.ip = Course.ip \
               WITHIN 10 hours";
    let schemas = SchemaMap::uniform(Schema::weblog());
    let compiled = CompiledQuery::optimize(&Query::parse(src).unwrap(), &schemas, None).unwrap();
    assert!(can_partition_by(&compiled.aq, "ip"));
    let intake = build_intake(&compiled.aq, Some("category")).unwrap();
    let (batches, _) = WeblogGenerator::generate_batches(&WeblogConfig::scaled(40_000, 17), 32);

    let mut pe =
        PartitionedEngine::new(compiled.clone(), PlanConfig::default(), &intake, "ip").unwrap();
    let mut part_out = Vec::new();
    for batch in &batches {
        part_out.extend(pe.push_columns(batch));
    }
    part_out.extend(pe.flush());
    let mut part_sigs: Vec<_> = part_out.iter().map(|r| pe.record_signature(r)).collect();
    part_sigs.sort();

    let plan = compiled.physical_plan(PlanConfig::default(), &[]).unwrap();
    let mut flat = Engine::new(compiled.aq.clone(), plan, &intake);
    let mut flat_out = Vec::new();
    for batch in &batches {
        flat_out.extend(flat.push_columns(batch));
    }
    flat_out.extend(flat.flush());
    let mut flat_sigs: Vec<_> = flat_out.iter().map(|r| flat.record_signature(r)).collect();
    flat_sigs.sort();

    assert!(!flat_sigs.is_empty(), "workload should produce matches");
    assert_eq!(part_sigs, flat_sigs);
    assert_eq!(pe.metrics().matches_out, flat.metrics().matches_out);
}

#[test]
fn partitioned_on_float_keys_equals_flat_and_oracle() {
    // Routing on `price` applies both equalities (per-key plans omit
    // them), which is exact only because keys follow predicate equality:
    // NaN is one key, -0.0 and 0.0 are one key. `A.volume < C.volume` is
    // not implied and must still be evaluated per key.
    let src = "PATTERN A; B; C \
               WHERE A.price = B.price AND B.price = C.price AND A.volume < C.volume \
               WITHIN 20";
    let schemas = SchemaMap::uniform(Schema::stocks());
    let compiled = CompiledQuery::optimize(&Query::parse(src).unwrap(), &schemas, None).unwrap();
    assert!(can_partition_by(&compiled.aq, "price"));
    let intake = build_intake(&compiled.aq, None).unwrap();

    const PRICES: [f64; 6] = [f64::NAN, -0.0, 0.0, 2.0, 2.5, 1e300];
    let mut state = 0x9e37_79b9_7f4a_7c15_u64;
    let events: Vec<_> = (0..120u64)
        .map(|ts| {
            // xorshift64: a fixed draw per seed, no RNG dependency.
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let price = PRICES[(state % 6) as usize];
            stock(ts + 1, ts as i64, "IBM", price, ((state >> 8) % 50) as i64)
        })
        .collect();
    let batches: Vec<_> = events.chunks(8).map(|c| EventBatch::from_events(c).unwrap()).collect();
    let handles: Vec<_> = batches.iter().flat_map(EventBatch::iter).collect();
    let expected = reference_signatures(&compiled.aq, &intake, &handles);

    let mut pe =
        PartitionedEngine::new(compiled.clone(), PlanConfig::default(), &intake, "price").unwrap();
    let mut part_out = Vec::new();
    for batch in &batches {
        part_out.extend(pe.push_columns(batch));
    }
    part_out.extend(pe.flush());
    let mut part_sigs: Vec<_> = part_out.iter().map(|r| pe.record_signature(r)).collect();
    part_sigs.sort();
    assert_eq!(pe.num_partitions(), 5, "NaN, ±0.0, 2.0, 2.5 and 1e300");

    let plan = compiled.physical_plan(PlanConfig::default(), &[]).unwrap();
    assert!(plan.nodes.iter().any(|n| n.hash.is_some()), "the flat engine hash-joins");
    let mut flat = Engine::new(compiled.aq.clone(), plan, &intake);
    let mut flat_out = Vec::new();
    for batch in &batches {
        flat_out.extend(flat.push_columns(batch));
    }
    flat_out.extend(flat.flush());
    let mut flat_sigs: Vec<_> = flat_out.iter().map(|r| flat.record_signature(r)).collect();
    flat_sigs.sort();

    assert!(!expected.is_empty(), "workload should produce matches");
    assert_eq!(part_sigs, expected);
    assert_eq!(flat_sigs, expected);
}

#[test]
fn partitioning_rejected_without_connecting_equalities() {
    let src = "PATTERN IBM; Sun; Oracle WITHIN 10";
    let schemas = SchemaMap::uniform(Schema::stocks());
    let compiled = CompiledQuery::optimize(&Query::parse(src).unwrap(), &schemas, None).unwrap();
    assert!(!can_partition_by(&compiled.aq, "name"));
    let intake = build_intake(&compiled.aq, Some("name")).unwrap();
    assert!(PartitionedEngine::new(compiled, PlanConfig::default(), &intake, "name").is_err());
}
