//! **Filter-kernel microbenchmarks** — per-row costs of the columnar intake
//! primitives from `zstream_events::kernel`: the word-packed bitmap AND, the
//! `StrEq` column kernel against the scalar row loop it replaced, the
//! dictionary probe (`u8`-code scan) against the plain `Sym` scan, and the
//! compare-to-constant kernels (`price > 3.5`, `volume > 2`) against the
//! `cmp_value` row loop that defines their semantics.
//!
//! Rows/second here bounds the intake stage's admission throughput: one
//! `StrEq` evaluation per distinct routed class runs over every batch.

use std::hint::black_box;
use std::time::Instant;

use zstream_bench::*;
use zstream_events::kernel::{cmp_value, filter_cmp, filter_str_eq, Bitmap, CmpOp};
use zstream_events::{DictMode, EventBatch, Schema, Sym, Value};

/// Median of per-rep throughputs (rows/sec) with the set-bit count of the
/// last rep, packaged as a [`Measurement`] for `record_json`.
fn measure_rows(n: usize, reps: usize, mut run: impl FnMut() -> usize) -> Measurement {
    let mut samples: Vec<(f64, usize)> = (0..reps.max(1))
        .map(|_| {
            let t0 = Instant::now();
            let hits = run();
            (n as f64 / t0.elapsed().as_secs_f64(), hits)
        })
        .collect();
    samples.sort_by(|a, b| a.0.total_cmp(&b.0));
    let (throughput, hits) = samples[samples.len() / 2];
    Measurement { throughput, matches: hits as u64, peak_mb: 0.0, peak_bytes: 0, latency: None }
}

/// A stock batch of `n` rows cycling three symbols, encoded per `mode`.
fn batch(n: usize, mode: DictMode) -> EventBatch {
    let names = ["IBM", "Sun", "Oracle"];
    let mut b = EventBatch::builder(Schema::stocks(), n);
    for i in 0..n {
        b.push_row(
            i as u64,
            &[
                Value::Int(i as i64),
                Value::str(names[i % names.len()]),
                Value::Float((i % 7) as f64),
                Value::Int((i % 5) as i64),
            ],
        )
        .unwrap();
    }
    b.finish_with(mode)
}

fn main() {
    let n = bench_len(1 << 20);
    let reps = bench_reps(5);
    header(
        "Filter kernels: columnar intake primitives (rows/sec)",
        "bitmap AND | StrEq column kernel vs scalar row loop | dictionary probe",
    );

    // Bitmap AND: two word-packed selections, one AND sweep per rep.
    let mut a = Bitmap::new();
    let mut b = Bitmap::new();
    a.reset(n, false);
    b.reset(n, false);
    for i in (0..n).step_by(3) {
        a.set(i);
    }
    for i in (0..n).step_by(2) {
        b.set(i);
    }
    let mut acc = Bitmap::new();
    let and = measure_rows(n, reps, || {
        acc.copy_from(&a);
        acc.and(black_box(&b));
        black_box(acc.count())
    });

    // StrEq: the chunked column kernel vs the scalar loop it replaced, on a
    // plain `Sym` column; then the same kernel over the dictionary encoding
    // (one probe for the code, then a `u8`/run scan).
    let sym = Sym::intern("Sun");
    let plain = batch(n, DictMode::Plain);
    let dict = batch(n, DictMode::Force);
    assert!(plain.column(1).as_dict().is_none() && dict.column(1).as_dict().is_some());
    let mut out = Bitmap::new();
    let kernel = measure_rows(n, reps, || {
        filter_str_eq(black_box(plain.column(1)), sym, &mut out);
        black_box(out.count())
    });
    let scalar = measure_rows(n, reps, || {
        let col = black_box(plain.column(1));
        out.reset(n, false);
        for row in 0..n {
            if col.sym_at(row) == Some(sym) {
                out.set(row);
            }
        }
        black_box(out.count())
    });
    let probe = measure_rows(n, reps, || {
        filter_str_eq(black_box(dict.column(1)), sym, &mut out);
        black_box(out.count())
    });
    assert_eq!(kernel.matches, scalar.matches, "kernel and scalar loop must agree");
    assert_eq!(kernel.matches, probe.matches, "dictionary probe must agree");

    // Compare-to-constant: the float and int kernels (native comparison,
    // one vectorisable loop per 64-row word) against the scalar reference
    // they must agree with row for row.
    let (price_lit, volume_lit) = (Value::Float(3.5), Value::Int(2));
    let cmp_f64 = measure_rows(n, reps, || {
        filter_cmp(black_box(plain.column(2)), CmpOp::Gt, &price_lit, &mut out);
        black_box(out.count())
    });
    let cmp_i64 = measure_rows(n, reps, || {
        filter_cmp(black_box(plain.column(3)), CmpOp::Gt, &volume_lit, &mut out);
        black_box(out.count())
    });
    let scalar_hits = |field: usize, lit: &Value| {
        let col = black_box(plain.column(field));
        (0..n).filter(|&row| cmp_value(CmpOp::Gt, &col.value(row), lit)).count()
    };
    let cmp_scalar = measure_rows(n, reps, || black_box(scalar_hits(2, &price_lit)));
    assert_eq!(cmp_f64.matches, cmp_scalar.matches, "float kernel and cmp_value must agree");
    assert_eq!(
        cmp_i64.matches,
        scalar_hits(3, &volume_lit) as u64,
        "int kernel and cmp_value must agree"
    );

    let cols: Vec<String> = ["rows/s"].iter().map(|s| s.to_string()).collect();
    row_header(&format!("{n} rows ->"), &cols);
    row("bitmap_and", &[and.throughput]);
    row("str_eq_kernel", &[kernel.throughput]);
    row("str_eq_scalar", &[scalar.throughput]);
    row("dict_probe", &[probe.throughput]);
    row("cmp_f64_kernel", &[cmp_f64.throughput]);
    row("cmp_i64_kernel", &[cmp_i64.throughput]);
    row("cmp_scalar", &[cmp_scalar.throughput]);
    println!(
        "\nkernel vs scalar: {:.1}x | dict vs plain kernel: {:.1}x | cmp kernel vs cmp_value: {:.1}x",
        kernel.throughput / scalar.throughput,
        probe.throughput / kernel.throughput,
        cmp_f64.throughput / cmp_scalar.throughput
    );

    record_json("filter_kernels", "bitmap_and", &and);
    record_json("filter_kernels", "str_eq_kernel", &kernel);
    record_json("filter_kernels", "str_eq_scalar", &scalar);
    record_json("filter_kernels", "dict_probe", &probe);
    record_json("filter_kernels", "cmp_f64_kernel", &cmp_f64);
    record_json("filter_kernels", "cmp_i64_kernel", &cmp_i64);
    record_json("filter_kernels", "cmp_scalar", &cmp_scalar);
}
