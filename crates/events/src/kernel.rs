//! Columnar filter kernels: word-packed bitmaps and whole-column predicate
//! evaluation.
//!
//! The §4.1 intake predicates (`name = 'IBM'`, `price > 100`) are pure
//! per-row filters, so evaluating them row-at-a-time wastes the columnar
//! layout. This module evaluates one predicate over an **entire column** in
//! a tight typed loop, producing a [`Bitmap`] — one bit per row, packed 64
//! per machine word — that downstream code combines with cheap word-wise
//! `AND`/`OR` instead of merging `Vec<u32>` selection vectors.
//!
//! Semantics are exactly those of [`Value::compare`] / [`Value::loose_eq`]:
//! int/float comparison is mathematical (no lossy cast), `0.0 == -0.0`, and
//! every NaN belongs to one equivalence class **above** all numbers — so
//! `price > lit` is *true* for a NaN price, matching the scalar engine. The
//! scalar reference [`cmp_value`] is the oracle the chunked loops are
//! differential-tested against.
//!
//! Dictionary-encoded string columns ([`crate::soa::DictStr`]) get special
//! treatment: a predicate is decided once per *distinct* symbol (≤ 256) and
//! then broadcast over the rows by code scan or run scan.

use std::cmp::Ordering;

use crate::soa::{Column, DictStr};
use crate::sym::Sym;
use crate::value::{cmp_f64, cmp_i64_f64, Value};

/// A fixed-length bit set over batch rows, packed 64 bits per `u64` word.
///
/// Invariant: bits at positions `>= len` in the last word are always zero,
/// so [`Bitmap::count`] and word-wise combination never need a tail mask.
/// All mutating ops preserve this (e.g. [`Bitmap::invert`] re-masks the
/// tail).
#[derive(Debug, Clone, Default)]
pub struct Bitmap {
    words: Vec<u64>,
    len: usize,
}

impl Bitmap {
    /// An empty bitmap (length 0). Use [`Bitmap::reset`] to size it.
    pub fn new() -> Bitmap {
        Bitmap::default()
    }

    /// Resizes to `len` bits, all set to `fill`. Reuses the existing word
    /// allocation — the engine keeps scratch bitmaps across batches so the
    /// steady state allocates nothing.
    pub fn reset(&mut self, len: usize, fill: bool) {
        let words = len.div_ceil(64);
        self.words.clear();
        self.words.resize(words, if fill { !0u64 } else { 0 });
        self.len = len;
        self.mask_tail();
        debug_assert!(self.check_invariants());
    }

    /// Zeroes any bits at positions >= `len` in the last word.
    #[inline]
    fn mask_tail(&mut self) {
        let tail = self.len % 64;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
    }

    /// Verifies the structural invariants: the word count is exactly
    /// `len.div_ceil(64)` and every bit at position >= `len` in the last
    /// word is zero. Every mutating method `debug_assert!`s this on exit;
    /// [`Bitmap::count`], [`Bitmap::any`] and word-wise combination are only
    /// correct when it holds.
    pub fn check_invariants(&self) -> bool {
        if self.words.len() != self.len.div_ceil(64) {
            return false;
        }
        let tail = self.len % 64;
        match (tail, self.words.last()) {
            (0, _) => true,
            (_, None) => false,
            (tail, Some(&last)) => last & !((1u64 << tail) - 1) == 0,
        }
    }

    /// Number of rows covered.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when covering zero rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Sets bit `i`.
    #[inline]
    pub fn set(&mut self, i: usize) {
        debug_assert!(i < self.len);
        // zlint::allow(panic, "i/64 < words.len() for every i < len; an out-of-range row index is a caller bug, not input")
        self.words[i / 64] |= 1u64 << (i % 64);
        debug_assert!(self.check_invariants());
    }

    /// Clears bit `i`.
    #[inline]
    pub fn clear(&mut self, i: usize) {
        debug_assert!(i < self.len);
        // zlint::allow(panic, "i/64 < words.len() for every i < len; an out-of-range row index is a caller bug, not input")
        self.words[i / 64] &= !(1u64 << (i % 64));
        debug_assert!(self.check_invariants());
    }

    /// Reads bit `i`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        // zlint::allow(panic, "i/64 < words.len() for every i < len; an out-of-range row index is a caller bug, not input")
        self.words[i / 64] >> (i % 64) & 1 == 1
    }

    /// Sets every bit in `[start, end)`.
    pub fn set_range(&mut self, start: usize, end: usize) {
        debug_assert!(start <= end && end <= self.len);
        if start == end {
            return;
        }
        let (first, last) = (start / 64, (end - 1) / 64);
        let head = !0u64 << (start % 64);
        let tail = !0u64 >> (63 - (end - 1) % 64);
        if first == last {
            // zlint::allow(panic, "first = (end-1)/64 < words.len() for every end <= len, debug-asserted above")
            self.words[first] |= head & tail;
        } else {
            // zlint::allow(panic, "first < last = (end-1)/64 < words.len() for every end <= len, debug-asserted above")
            self.words[first] |= head;
            // zlint::allow(panic, "first+1..last is within words: last < words.len() as above")
            for w in &mut self.words[first + 1..last] {
                *w = !0;
            }
            // zlint::allow(panic, "last = (end-1)/64 < words.len() for every end <= len, debug-asserted above")
            self.words[last] |= tail;
        }
        debug_assert!(self.check_invariants());
    }

    /// Sets the bit for every row index in `rows` (indices must be < len).
    pub fn set_rows(&mut self, rows: &[u32]) {
        for &r in rows {
            self.set(r as usize);
        }
        debug_assert!(self.check_invariants());
    }

    /// `self &= other`. Lengths must match.
    pub fn and(&mut self, other: &Bitmap) {
        assert_eq!(self.len, other.len, "bitmap length mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
        debug_assert!(self.check_invariants());
    }

    /// `self |= other`. Lengths must match.
    pub fn or(&mut self, other: &Bitmap) {
        assert_eq!(self.len, other.len, "bitmap length mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
        debug_assert!(self.check_invariants());
    }

    /// `self = !self` (within `len`; the tail stays zero).
    pub fn invert(&mut self) {
        for w in &mut self.words {
            *w = !*w;
        }
        self.mask_tail();
        debug_assert!(self.check_invariants());
    }

    /// Copies `other` into `self`, reusing the allocation.
    pub fn copy_from(&mut self, other: &Bitmap) {
        self.words.clear();
        self.words.extend_from_slice(&other.words);
        self.len = other.len;
        debug_assert!(self.check_invariants());
    }

    /// Number of set bits — a straight popcount sum, thanks to the zero-tail
    /// invariant.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True when at least one bit is set.
    pub fn any(&self) -> bool {
        self.words.iter().any(|&w| w != 0)
    }

    /// True when every bit in `[0, len)` is set.
    pub fn all(&self) -> bool {
        self.count() == self.len
    }

    /// Iterates set-bit positions in ascending order (word loop +
    /// `trailing_zeros`, skipping empty words wholesale).
    pub fn ones(&self) -> Ones<'_> {
        Ones { words: &self.words, word: 0, base: 0 }
    }

    /// Clears every set bit whose row fails `f`. Only set bits are visited,
    /// so the cost is O(words + set bits) — the escape hatch for predicates
    /// with no columnar kernel.
    pub fn retain(&mut self, mut f: impl FnMut(usize) -> bool) {
        for (wi, w) in self.words.iter_mut().enumerate() {
            let mut bits = *w;
            while bits != 0 {
                let b = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                if !f(wi * 64 + b) {
                    *w &= !(1u64 << b);
                }
            }
        }
        debug_assert!(self.check_invariants());
    }

    /// Direct word access for chunked kernels (one word = 64 rows).
    #[inline]
    pub(crate) fn words_mut(&mut self) -> &mut [u64] {
        &mut self.words
    }
}

/// Ascending set-bit iterator over a [`Bitmap`].
#[derive(Debug)]
pub struct Ones<'a> {
    words: &'a [u64],
    word: u64,
    base: usize,
}

impl Iterator for Ones<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        while self.word == 0 {
            let (&w, rest) = self.words.split_first()?;
            self.words = rest;
            self.word = w;
            self.base += 64;
        }
        let bit = self.word.trailing_zeros() as usize;
        self.word &= self.word - 1;
        Some(self.base - 64 + bit)
    }
}

/// Comparison operator for filter kernels. `crates/events` sits below the
/// query language, so this mirrors the comparison subset of the language's
/// `BinOp` without depending on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// Loose equality ([`Value::loose_eq`]).
    Eq,
    /// Loose inequality (true for incomparable types).
    Ne,
    /// Strictly less than.
    Lt,
    /// Less than or equal.
    Le,
    /// Strictly greater than.
    Gt,
    /// Greater than or equal.
    Ge,
}

impl CmpOp {
    /// Whether an [`Ordering`] of `value` vs `lit` satisfies this operator.
    #[inline]
    pub fn holds(self, ord: Ordering) -> bool {
        match self {
            CmpOp::Eq => ord == Ordering::Equal,
            CmpOp::Ne => ord != Ordering::Equal,
            CmpOp::Lt => ord == Ordering::Less,
            CmpOp::Le => ord != Ordering::Greater,
            CmpOp::Gt => ord == Ordering::Greater,
            CmpOp::Ge => ord != Ordering::Less,
        }
    }
}

/// Scalar reference semantics: `v op lit` exactly as the row-at-a-time
/// engine decides it. `Eq`/`Ne` go through [`Value::loose_eq`] (incomparable
/// types are simply unequal); ordered operators go through
/// [`Value::compare`] and **fail closed** on incomparable types. The chunked
/// kernels below must agree with this on every row.
#[inline]
pub fn cmp_value(op: CmpOp, v: &Value, lit: &Value) -> bool {
    match op {
        CmpOp::Eq => v.loose_eq(lit),
        CmpOp::Ne => !v.loose_eq(lit),
        _ => match v.compare(lit) {
            Ok(ord) => op.holds(ord),
            Err(_) => false,
        },
    }
}

/// Packs `f(row)` over a slice into `out`, one 64-row word at a time.
///
/// The loop is compiled twice on x86-64: for the build's baseline target
/// (SSE2, which has no 64-bit integer compare and no per-lane shifts, so
/// integer predicates stay scalar there) and for AVX2, chosen per call by
/// what the CPU reports. Same source, same result, several times the rows
/// per second when `f` is a plain comparison.
#[inline]
fn pack<T>(xs: &[T], out: &mut Bitmap, f: impl Fn(&T) -> bool) {
    #[cfg(target_arch = "x86_64")]
    {
        #[target_feature(enable = "avx2")]
        fn pack_avx2<T>(xs: &[T], out: &mut Bitmap, f: impl Fn(&T) -> bool) {
            pack_words(xs, out, f);
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: `pack_avx2` is safe code whose only requirement is
            // that the CPU executes AVX2 instructions, which the runtime
            // detection on the line above has just established.
            return unsafe { pack_avx2(xs, out, f) };
        }
    }
    pack_words(xs, out, f);
}

/// The body of [`pack`], inlined into each of its compilations. Full words
/// run a fixed 64-iteration loop (the shape the compiler vectorises); the
/// tail word takes what is left.
#[inline(always)]
fn pack_words<T>(xs: &[T], out: &mut Bitmap, f: impl Fn(&T) -> bool) {
    #[inline(always)]
    fn word<T>(chunk: &[T], f: &impl Fn(&T) -> bool) -> u64 {
        let mut bits = 0u64;
        for (j, x) in chunk.iter().enumerate() {
            bits |= u64::from(f(x)) << j;
        }
        bits
    }
    out.reset(xs.len(), false);
    let mut full = xs.chunks_exact(64);
    let mut words = out.words_mut().iter_mut();
    // `full` leads the zip: when it runs out, the tail word is still unread.
    for (chunk, w) in full.by_ref().zip(words.by_ref()) {
        *w = word(chunk, &f);
    }
    if let Some(w) = words.next() {
        *w = word(full.remainder(), &f);
    }
}

/// Dispatches `op` once, then packs a monomorphic ordering loop — the
/// operator decision stays out of the per-row path. This is the **exact
/// path**: one three-way [`Ordering`] per row, for the literal shapes the
/// native comparison operators would get wrong (see [`filter_cmp`]).
#[inline]
fn pack_ord<T>(xs: &[T], op: CmpOp, out: &mut Bitmap, ord: impl Fn(&T) -> Ordering) {
    match op {
        CmpOp::Eq => pack(xs, out, |x| ord(x) == Ordering::Equal),
        CmpOp::Ne => pack(xs, out, |x| ord(x) != Ordering::Equal),
        CmpOp::Lt => pack(xs, out, |x| ord(x) == Ordering::Less),
        CmpOp::Le => pack(xs, out, |x| ord(x) != Ordering::Greater),
        CmpOp::Gt => pack(xs, out, |x| ord(x) == Ordering::Greater),
        CmpOp::Ge => pack(xs, out, |x| ord(x) != Ordering::Less),
    }
}

/// The **fast path**: packs `x op b` with the machine's own comparison, no
/// [`Ordering`] per row, so each 64-row word is a branch-free loop the
/// compiler vectorises. Exact for integers, and for floats whenever `b` is
/// not NaN: `==`/`!=`/`<`/`<=` are false (`!=`: true) on a NaN row, which
/// is what one NaN class *above* every number means for them, and `Gt`/`Ge`
/// are written as negations so the NaN row lands above `b` there too.
/// `0.0 == -0.0` natively, as in [`cmp_f64`].
#[inline]
// The negated forms are the point: `x > b` is false for a NaN row.
#[allow(clippy::neg_cmp_op_on_partial_ord)]
fn pack_native<T: Copy + PartialOrd>(xs: &[T], op: CmpOp, b: T, out: &mut Bitmap) {
    match op {
        CmpOp::Eq => pack(xs, out, |&x| x == b),
        CmpOp::Ne => pack(xs, out, |&x| x != b),
        CmpOp::Lt => pack(xs, out, |&x| x < b),
        CmpOp::Le => pack(xs, out, |&x| x <= b),
        CmpOp::Gt => pack(xs, out, |&x| !(x <= b)),
        CmpOp::Ge => pack(xs, out, |&x| !(x < b)),
    }
}

/// 2^53: below this magnitude every integer is exactly one `f64` and every
/// integral `f64` exactly one `i64`, so an int/float literal can cross to
/// the column's own type without changing any comparison.
const TWO_53: f64 = 9_007_199_254_740_992.0;

/// Evaluates a predicate over every distinct symbol of a dictionary column
/// (≤ 256 of them), then broadcasts the per-code verdicts: by run scan when
/// the column is run-compressible, by `u8` code scan otherwise.
fn filter_dict(d: &DictStr, out: &mut Bitmap, keep_sym: impl Fn(Sym) -> bool) {
    let keep: Vec<bool> = d.dict().iter().map(|&s| keep_sym(s)).collect();
    let codes = d.codes();
    if !keep.contains(&true) {
        out.reset(codes.len(), false);
        return;
    }
    let runs = d.runs();
    if runs.len() * 4 <= codes.len() {
        out.reset(codes.len(), false);
        for (i, &(start, code)) in runs.iter().enumerate() {
            // zlint::allow(panic, "every DictStr code indexes its own dict; keep has one verdict per dict entry")
            if keep[code as usize] {
                let end = runs.get(i + 1).map_or(codes.len(), |&(s, _)| s as usize);
                out.set_range(start as usize, end);
            }
        }
    } else {
        // zlint::allow(panic, "every DictStr code indexes its own dict; keep has one verdict per dict entry")
        pack(codes, out, |&c| keep[c as usize]);
    }
}

/// Chunked `column op literal` into `out` (which is resized to the column
/// length). Row `i` is set iff `cmp_value(op, column[i], lit)`.
///
/// Numeric column × numeric literal takes the native-comparison loop
/// whenever the literal can be expressed in the column's own type without
/// loss — int × int, float × non-NaN float, float × int with
/// `|lit| < 2^53`, int × integral float with `|lit| < 2^53` — and the
/// three-way loop over the exact scalar comparators otherwise (NaN literal,
/// `|lit| >= 2^53` across types, fractional literal against an int column).
pub fn filter_cmp(col: &Column, op: CmpOp, lit: &Value, out: &mut Bitmap) {
    match (col, lit) {
        (Column::Int(xs), Value::Int(b)) => pack_native(xs, op, *b, out),
        (Column::Int(xs), Value::Float(b)) => {
            let b = *b;
            if b.abs() < TWO_53 && b.fract() == 0.0 {
                pack_native(xs, op, b as i64, out);
            } else {
                pack_ord(xs, op, out, |&x| cmp_i64_f64(x, b));
            }
        }
        (Column::Float(xs), Value::Float(b)) => {
            let b = *b;
            if b.is_nan() {
                pack_ord(xs, op, out, |&x| cmp_f64(x, b));
            } else {
                pack_native(xs, op, b, out);
            }
        }
        (Column::Float(xs), Value::Int(b)) => {
            let b = *b;
            if b.unsigned_abs() < 1 << 53 {
                pack_native(xs, op, b as f64, out);
            } else {
                pack_ord(xs, op, out, |&x| cmp_i64_f64(b, x).reverse());
            }
        }
        (Column::Str(xs), Value::Str(b)) => match op {
            // Interned: equality is id equality, no string resolve.
            CmpOp::Eq => filter_str_eq(col, *b, out),
            CmpOp::Ne => {
                let b = *b;
                pack(xs, out, |&x| x != b);
            }
            _ => {
                let b = *b;
                pack_ord(xs, op, out, |&x| {
                    if x == b {
                        Ordering::Equal
                    } else {
                        x.as_str().cmp(b.as_str())
                    }
                });
            }
        },
        (Column::Dict(d), lit) => filter_dict(d, out, |s| cmp_value(op, &Value::Str(s), lit)),
        (Column::Bool(xs), Value::Bool(b)) => {
            let b = *b;
            pack_ord(xs, op, out, |x| x.cmp(&b));
        }
        // Incomparable column/literal type pair: constant verdict per the
        // scalar semantics — `Ne` is vacuously true, everything else false.
        (col, _) => out.reset(col.len(), op == CmpOp::Ne),
    }
}

/// Chunked `string-column == symbol` into `out`. Plain columns compare
/// interned ids; dictionary columns probe the dictionary once and scan
/// codes (or runs). Non-string columns yield all-false (loose equality
/// between a string and a non-string is false).
pub fn filter_str_eq(col: &Column, sym: Sym, out: &mut Bitmap) {
    match col {
        Column::Str(xs) => pack(xs, out, |&x| x == sym),
        Column::Dict(d) => match d.code_of(sym) {
            None => out.reset(d.codes().len(), false),
            Some(_) => filter_dict(d, out, |s| s == sym),
        },
        other => out.reset(other.len(), false),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits(b: &Bitmap) -> Vec<usize> {
        b.ones().collect()
    }

    #[test]
    fn both_compilations_of_pack_agree() {
        // `pack` may dispatch to its AVX2 compilation; `pack_words` is the
        // baseline one. Word boundaries, tails and the empty slice.
        for n in [0usize, 1, 63, 64, 65, 128, 130, 1000] {
            let xs: Vec<f64> = (0..n).map(|i| ((i * 7) % 13) as f64 - 6.0).collect();
            let ys: Vec<i64> = (0..n).map(|i| ((i * 5) % 11) as i64 - 5).collect();
            let (mut a, mut b) = (Bitmap::new(), Bitmap::new());
            pack(&xs, &mut a, |&x| x > 0.5);
            pack_words(&xs, &mut b, |&x| x > 0.5);
            assert_eq!(bits(&a), bits(&b), "f64, {n} rows");
            assert_eq!(bits(&a), (0..n).filter(|&i| xs[i] > 0.5).collect::<Vec<_>>());
            pack(&ys, &mut a, |&y| y <= -2);
            pack_words(&ys, &mut b, |&y| y <= -2);
            assert_eq!(bits(&a), bits(&b), "i64, {n} rows");
            assert_eq!(bits(&a), (0..n).filter(|&i| ys[i] <= -2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn retain_clears_failing_bits_only() {
        let mut b = Bitmap::new();
        b.reset(200, true);
        b.retain(|i| i % 3 == 0);
        assert_eq!(bits(&b), (0..200).filter(|i| i % 3 == 0).collect::<Vec<_>>());
        // Only set bits are visited.
        let mut seen = Vec::new();
        b.retain(|i| {
            seen.push(i);
            true
        });
        assert_eq!(seen, (0..200).filter(|i| i % 3 == 0).collect::<Vec<_>>());
    }

    #[test]
    fn reset_set_get_and_count() {
        let mut b = Bitmap::new();
        b.reset(130, false);
        assert_eq!(b.len(), 130);
        assert_eq!(b.count(), 0);
        assert!(!b.any());
        b.set(0);
        b.set(64);
        b.set(129);
        assert!(b.get(0) && b.get(64) && b.get(129));
        assert!(!b.get(1));
        assert_eq!(b.count(), 3);
        assert_eq!(bits(&b), vec![0, 64, 129]);
        b.clear(64);
        assert_eq!(bits(&b), vec![0, 129]);
    }

    #[test]
    fn reset_all_set_masks_the_tail() {
        let mut b = Bitmap::new();
        b.reset(70, true);
        assert_eq!(b.count(), 70);
        assert!(b.all());
        b.invert();
        assert_eq!(b.count(), 0, "invert of all-set is empty, tail stays masked");
        b.invert();
        assert_eq!(b.count(), 70);
    }

    #[test]
    fn and_or_combine_wordwise() {
        let mut a = Bitmap::new();
        let mut b = Bitmap::new();
        a.reset(100, false);
        b.reset(100, false);
        for i in (0..100).step_by(2) {
            a.set(i);
        }
        for i in (0..100).step_by(3) {
            b.set(i);
        }
        let mut and = a.clone();
        and.and(&b);
        assert_eq!(bits(&and), (0..100).step_by(6).collect::<Vec<_>>());
        let mut or = a.clone();
        or.or(&b);
        assert_eq!(or.count(), 50 + 34 - 17);
    }

    #[test]
    fn set_range_handles_word_boundaries() {
        for (start, end) in [(0, 0), (3, 9), (60, 70), (0, 64), (64, 128), (5, 128), (127, 128)] {
            let mut b = Bitmap::new();
            b.reset(128, false);
            b.set_range(start, end);
            assert_eq!(bits(&b), (start..end).collect::<Vec<_>>(), "range {start}..{end}");
        }
    }

    #[test]
    fn selection_round_trip() {
        let mut b = Bitmap::new();
        b.reset(200, false);
        b.set_rows(&[0, 7, 63, 64, 199]);
        assert_eq!(bits(&b), vec![0, 7, 63, 64, 199]);
    }

    #[test]
    fn int_column_cmp_matches_scalar_reference() {
        let xs = vec![-3i64, 0, 1, 5, 100, i64::MAX, i64::MIN];
        let col = Column::test_ints(xs.clone());
        let lits = [Value::Int(1), Value::Float(0.5), Value::Float(f64::NAN), Value::Float(-0.0)];
        let mut out = Bitmap::new();
        for op in [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge] {
            for lit in &lits {
                filter_cmp(&col, op, lit, &mut out);
                for (i, &x) in xs.iter().enumerate() {
                    assert_eq!(
                        out.get(i),
                        cmp_value(op, &Value::Int(x), lit),
                        "{op:?} {x} vs {lit}"
                    );
                }
            }
        }
    }

    #[test]
    fn float_column_nan_sorts_above_all_numbers() {
        let xs = vec![f64::NAN, 1.0, -0.0, f64::INFINITY];
        let col = Column::test_floats(xs);
        let mut out = Bitmap::new();
        // NaN belongs to the class above every number, so `> 1e300` keeps it.
        filter_cmp(&col, CmpOp::Gt, &Value::Float(1e300), &mut out);
        assert_eq!(bits(&out), vec![0, 3]);
        // 0.0 == -0.0 under loose equality.
        filter_cmp(&col, CmpOp::Eq, &Value::Float(0.0), &mut out);
        assert_eq!(bits(&out), vec![2]);
        // Every NaN is one equivalence class.
        filter_cmp(&col, CmpOp::Eq, &Value::Float(-f64::NAN), &mut out);
        assert_eq!(bits(&out), vec![0]);
    }

    #[test]
    fn incomparable_types_fail_closed_except_ne() {
        let col = Column::test_ints(vec![1, 2, 3]);
        let mut out = Bitmap::new();
        filter_cmp(&col, CmpOp::Eq, &Value::str("x"), &mut out);
        assert_eq!(out.count(), 0);
        filter_cmp(&col, CmpOp::Lt, &Value::str("x"), &mut out);
        assert_eq!(out.count(), 0);
        filter_cmp(&col, CmpOp::Ne, &Value::str("x"), &mut out);
        assert_eq!(out.count(), 3, "Ne is true for incomparable types");
    }

    #[test]
    fn str_eq_on_plain_and_dict_columns_agree() {
        let names: Vec<&str> =
            (0..300).map(|i| ["IBM", "Sun", "Oracle"][i % 3]).collect::<Vec<_>>();
        let syms: Vec<Sym> = names.iter().map(|n| Sym::intern(n)).collect();
        let plain = Column::test_syms(syms.clone());
        let dict = Column::Dict(DictStr::encode(&syms).expect("3 distinct symbols"));
        let (mut a, mut b) = (Bitmap::new(), Bitmap::new());
        for probe in ["IBM", "Sun", "Oracle", "HP"] {
            let s = Sym::intern(probe);
            filter_str_eq(&plain, s, &mut a);
            filter_str_eq(&dict, s, &mut b);
            assert_eq!(bits(&a), bits(&b), "probe {probe}");
        }
        // Ordered string comparison agrees too.
        for op in [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Ge] {
            filter_cmp(&plain, op, &Value::str("Oracle"), &mut a);
            filter_cmp(&dict, op, &Value::str("Oracle"), &mut b);
            assert_eq!(bits(&a), bits(&b), "{op:?}");
        }
    }

    #[test]
    fn dict_run_scan_agrees_with_code_scan() {
        // Long runs: the run-scan path triggers (runs * 4 <= rows).
        let mut syms = Vec::new();
        for block in 0..4 {
            syms.extend(std::iter::repeat_n(Sym::intern(["a", "b"][block % 2]), 100));
        }
        let dict = DictStr::encode(&syms).unwrap();
        assert!(dict.runs().len() * 4 <= dict.codes().len());
        let col = Column::Dict(dict);
        let plain = Column::test_syms(syms);
        let (mut a, mut b) = (Bitmap::new(), Bitmap::new());
        for probe in ["a", "b", "c"] {
            filter_str_eq(&col, Sym::intern(probe), &mut a);
            filter_str_eq(&plain, Sym::intern(probe), &mut b);
            assert_eq!(bits(&a), bits(&b), "probe {probe}");
        }
    }
}
