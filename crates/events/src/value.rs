//! Dynamically typed attribute values.
//!
//! Predicates in the query language compare and combine attributes of
//! different events (`T1.price > (1 + x%) * T2.price`), so values support
//! numeric coercion between integers and floats, ordered comparison, and a
//! hashable form used by the equality-predicate hash tables of §5.2.2.
//!
//! Strings are interned [`Sym`]s, which makes `Value` a 16-byte `Copy` type:
//! cloning a value never touches the heap, and string equality is a single
//! integer comparison.
//!
//! ## Equality is an equivalence relation
//!
//! Numeric comparison is **exact**: an `Int` and a `Float` compare by their
//! mathematical values, not through a lossy `as f64` cast, and two `Float`s
//! compare numerically (`0.0 == -0.0`; every NaN belongs to one equivalence
//! class that sorts above all numbers). This matters for the hash tables of
//! §5.2.2: a hash join treats key equality as *the* join condition, so
//! "equal" must be transitive — under cast-based coercion `Int(2^53)` and
//! `Int(2^53 + 1)` both equal `Float(2^53)` yet differ from each other, and
//! no consistent hash key can exist. [`Value::hash_key`] canonicalizes to
//! this exact relation: integral in-range floats collapse onto the integer
//! key, so `Int(1)` and `Float(1.0)` collide exactly when they are equal.

use std::cmp::Ordering;
use std::fmt;

use crate::error::EventError;
use crate::sym::Sym;

/// The type of a [`Value`]. Schemas declare one per field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ValueType {
    /// 64-bit signed integer.
    Int,
    /// 64-bit IEEE float.
    Float,
    /// Interned string.
    Str,
    /// Boolean.
    Bool,
}

impl fmt::Display for ValueType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValueType::Int => write!(f, "int"),
            ValueType::Float => write!(f, "float"),
            ValueType::Str => write!(f, "string"),
            ValueType::Bool => write!(f, "bool"),
        }
    }
}

/// A dynamically typed attribute value carried by an [`crate::Event`].
/// 16 bytes, `Copy` — strings are interned symbols.
#[derive(Debug, Clone, Copy)]
pub enum Value {
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit IEEE float.
    Float(f64),
    /// Interned string (see [`Sym`]).
    Str(Sym),
    /// Boolean.
    Bool(bool),
}

/// Exact comparison of an `i64` against an `f64` without a lossy cast.
/// NaN sorts above every number (one NaN equivalence class).
pub(crate) fn cmp_i64_f64(a: i64, b: f64) -> Ordering {
    if b.is_nan() {
        return Ordering::Less; // every number < NaN
    }
    // 2^63 and -2^63 are exactly representable as f64.
    const TWO_63: f64 = 9_223_372_036_854_775_808.0;
    if b >= TWO_63 {
        return Ordering::Less;
    }
    if b < -TWO_63 {
        return Ordering::Greater;
    }
    let bt = b.trunc(); // |bt| <= 2^63, exact as i64 except +2^63 (excluded)
    let bi = bt as i64;
    match a.cmp(&bi) {
        Ordering::Equal => {
            // a == trunc(b): the fractional part decides.
            if b > bt {
                Ordering::Less
            } else if b < bt {
                Ordering::Greater
            } else {
                Ordering::Equal
            }
        }
        other => other,
    }
}

/// Numeric comparison of two `f64`s: `0.0 == -0.0`, NaNs are one
/// equivalence class above all numbers.
pub(crate) fn cmp_f64(a: f64, b: f64) -> Ordering {
    match (a.is_nan(), b.is_nan()) {
        (true, true) => Ordering::Equal,
        (true, false) => Ordering::Greater,
        (false, true) => Ordering::Less,
        (false, false) => a.partial_cmp(&b).expect("neither operand is NaN"),
    }
}

impl Value {
    /// Creates a string value, interning the text.
    pub fn str(s: impl AsRef<str>) -> Self {
        Value::Str(Sym::intern(s.as_ref()))
    }

    /// The runtime type of this value.
    pub fn value_type(&self) -> ValueType {
        match self {
            Value::Int(_) => ValueType::Int,
            Value::Float(_) => ValueType::Float,
            Value::Str(_) => ValueType::Str,
            Value::Bool(_) => ValueType::Bool,
        }
    }

    /// Numeric view of the value, coercing integers to floats.
    pub fn as_f64(&self) -> Result<f64, EventError> {
        match self {
            Value::Int(i) => Ok(*i as f64),
            Value::Float(f) => Ok(*f),
            other => Err(EventError::TypeMismatch {
                expected: ValueType::Float,
                found: other.value_type(),
            }),
        }
    }

    /// Integer view of the value.
    pub fn as_i64(&self) -> Result<i64, EventError> {
        match self {
            Value::Int(i) => Ok(*i),
            other => Err(EventError::TypeMismatch {
                expected: ValueType::Int,
                found: other.value_type(),
            }),
        }
    }

    /// String view of the value (resolves the interned symbol).
    pub fn as_str(&self) -> Result<&'static str, EventError> {
        match self {
            Value::Str(s) => Ok(s.as_str()),
            other => Err(EventError::TypeMismatch {
                expected: ValueType::Str,
                found: other.value_type(),
            }),
        }
    }

    /// Ordered comparison with **exact** numeric coercion (int vs float
    /// compares mathematically; NaNs form one class above all numbers).
    /// Returns an error for incomparable types (e.g. string vs int).
    #[inline]
    pub fn compare(&self, other: &Value) -> Result<Ordering, EventError> {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => Ok(a.cmp(b)),
            (Value::Float(a), Value::Float(b)) => Ok(cmp_f64(*a, *b)),
            (Value::Int(a), Value::Float(b)) => Ok(cmp_i64_f64(*a, *b)),
            (Value::Float(a), Value::Int(b)) => Ok(cmp_i64_f64(*b, *a).reverse()),
            (Value::Str(a), Value::Str(b)) => {
                if a == b {
                    Ok(Ordering::Equal) // interned: id equality, no resolve
                } else {
                    Ok(a.as_str().cmp(b.as_str()))
                }
            }
            (Value::Bool(a), Value::Bool(b)) => Ok(a.cmp(b)),
            (a, b) => Err(EventError::Incomparable { left: a.value_type(), right: b.value_type() }),
        }
    }

    /// Equality as used by query predicates: exact numeric coercion,
    /// otherwise same-type equality. Incomparable types are simply unequal.
    pub fn loose_eq(&self, other: &Value) -> bool {
        matches!(self.compare(other), Ok(Ordering::Equal))
    }

    /// Representation identity: the same variant holding the same bits.
    /// Stricter than [`Value::loose_eq`] (`Int(2)` is not `Float(2.0)`,
    /// `0.0` is not `-0.0`), so two expressions whose literals are all
    /// identical also compute identically under arithmetic.
    pub fn identical(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Float(a), Value::Float(b)) => a.to_bits() == b.to_bits(),
            (Value::Str(a), Value::Str(b)) => a == b,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            _ => false,
        }
    }

    /// Arithmetic addition with numeric coercion.
    pub fn add(&self, other: &Value) -> Result<Value, EventError> {
        numeric_binop(self, other, |a, b| a.wrapping_add(b), |a, b| a + b)
    }

    /// Arithmetic subtraction with numeric coercion.
    pub fn sub(&self, other: &Value) -> Result<Value, EventError> {
        numeric_binop(self, other, |a, b| a.wrapping_sub(b), |a, b| a - b)
    }

    /// Arithmetic multiplication with numeric coercion.
    pub fn mul(&self, other: &Value) -> Result<Value, EventError> {
        numeric_binop(self, other, |a, b| a.wrapping_mul(b), |a, b| a * b)
    }

    /// Arithmetic division; integer division by zero is an error, float
    /// division follows IEEE semantics.
    pub fn div(&self, other: &Value) -> Result<Value, EventError> {
        match (self, other) {
            (Value::Int(_), Value::Int(0)) => Err(EventError::DivisionByZero),
            (Value::Int(a), Value::Int(b)) => Ok(Value::Int(a.wrapping_div(*b))),
            _ => Ok(Value::Float(self.as_f64()? / other.as_f64()?)),
        }
    }

    /// A hashable key form of this value, used for hash partitioning and the
    /// equality-predicate hash tables of §5.2.2. The key is **canonical**
    /// with respect to [`Value::loose_eq`]: two values produce equal keys iff
    /// they are loosely equal. Integral floats in `i64` range collapse onto
    /// the integer key; every NaN maps to one key; strings key by symbol id.
    pub fn hash_key(&self) -> HashableValue {
        match self {
            Value::Int(i) => HashableValue::Int(*i),
            Value::Float(f) => {
                if f.is_nan() {
                    return HashableValue::Nan;
                }
                const TWO_63: f64 = 9_223_372_036_854_775_808.0;
                if *f >= -TWO_63 && *f < TWO_63 && f.trunc() == *f {
                    // Exactly an i64: share the integer's key (covers ±0.0).
                    HashableValue::Int(*f as i64)
                } else {
                    // Non-integral (or out of i64 range): IEEE equality is
                    // bit equality here, so the bit pattern is canonical.
                    HashableValue::Float(f.to_bits())
                }
            }
            Value::Str(s) => HashableValue::Str(*s),
            Value::Bool(b) => HashableValue::Bool(*b),
        }
    }
}

fn numeric_binop(
    a: &Value,
    b: &Value,
    int_op: fn(i64, i64) -> i64,
    float_op: fn(f64, f64) -> f64,
) -> Result<Value, EventError> {
    match (a, b) {
        (Value::Int(x), Value::Int(y)) => Ok(Value::Int(int_op(*x, *y))),
        _ => Ok(Value::Float(float_op(a.as_f64()?, b.as_f64()?))),
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.loose_eq(other)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "'{s}'"),
            Value::Bool(b) => write!(f, "{b}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::str(v)
    }
}

impl From<Sym> for Value {
    fn from(v: Sym) -> Self {
        Value::Str(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

/// Hashable, totally equatable form of a [`Value`], suitable as a `HashMap`
/// key. Canonical with respect to [`Value::loose_eq`] (see
/// [`Value::hash_key`]): `Int(2)` and `Float(2.0)` collide as intended for
/// equality predicates, while `Int(2^53)` and `Int(2^53 + 1)` stay distinct.
/// `Copy` — hashing and comparing keys never touches string content.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HashableValue {
    /// Any numeric value that is exactly an `i64` (including integral
    /// floats such as `2.0`).
    Int(i64),
    /// Bit pattern of a non-integral or out-of-`i64`-range, non-NaN float.
    Float(u64),
    /// The single NaN equivalence class.
    Nan,
    /// String key: the interned symbol.
    Str(Sym),
    /// Boolean key.
    Bool(bool),
}

impl HashableValue {
    /// A stable 64-bit digest used by shard routing and partitioners.
    /// Depends only on the *content* of the value (string digests come from
    /// the symbol table's content hash), so it is identical across
    /// processes and runs.
    pub fn digest(&self) -> u64 {
        fn mix(tag: u64, payload: u64) -> u64 {
            // splitmix64 finalizer over tag ^ payload — stable by
            // construction (no RandomState).
            let mut z = tag.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(payload);
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
        match self {
            HashableValue::Int(i) => mix(1, *i as u64),
            HashableValue::Float(bits) => mix(2, *bits),
            HashableValue::Nan => mix(3, 0),
            HashableValue::Str(s) => mix(4, s.digest()),
            HashableValue::Bool(b) => mix(5, u64::from(*b)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numeric_coercion_in_comparison() {
        assert_eq!(Value::Int(3).compare(&Value::Float(3.0)).unwrap(), Ordering::Equal);
        assert_eq!(Value::Float(2.5).compare(&Value::Int(3)).unwrap(), Ordering::Less);
        assert_eq!(Value::Int(4).compare(&Value::Float(3.5)).unwrap(), Ordering::Greater);
    }

    #[test]
    fn comparison_is_exact_beyond_f64_precision() {
        // 2^53 and 2^53 + 1 cast to the same f64; exact comparison keeps
        // them apart and only the true equal pair compares Equal.
        let big = 1i64 << 53;
        assert_eq!(Value::Int(big).compare(&Value::Float(big as f64)).unwrap(), Ordering::Equal);
        assert_eq!(
            Value::Int(big + 1).compare(&Value::Float(big as f64)).unwrap(),
            Ordering::Greater
        );
        assert_eq!(Value::Int(i64::MAX).compare(&Value::Float(1e19)).unwrap(), Ordering::Less);
        assert_eq!(Value::Int(i64::MIN).compare(&Value::Float(-1e19)).unwrap(), Ordering::Greater);
    }

    #[test]
    fn nan_is_one_class_above_all_numbers() {
        let nan = Value::Float(f64::NAN);
        assert_eq!(nan.compare(&Value::Float(-f64::NAN)).unwrap(), Ordering::Equal);
        assert_eq!(nan.compare(&Value::Float(f64::INFINITY)).unwrap(), Ordering::Greater);
        assert_eq!(Value::Int(i64::MAX).compare(&nan).unwrap(), Ordering::Less);
        assert_eq!(nan.hash_key(), Value::Float(-f64::NAN).hash_key());
    }

    #[test]
    fn signed_zeros_are_equal() {
        assert!(Value::Float(0.0).loose_eq(&Value::Float(-0.0)));
        assert_eq!(Value::Float(-0.0).hash_key(), Value::Float(0.0).hash_key());
        assert_eq!(Value::Float(-0.0).hash_key(), Value::Int(0).hash_key());
    }

    #[test]
    fn string_comparison_is_lexicographic() {
        assert_eq!(Value::str("IBM").compare(&Value::str("Sun")).unwrap(), Ordering::Less);
        assert!(Value::str("IBM").loose_eq(&Value::str("IBM")));
    }

    #[test]
    fn incomparable_types_error() {
        assert!(Value::Int(1).compare(&Value::str("x")).is_err());
        assert!(!Value::Int(1).loose_eq(&Value::str("x")));
    }

    #[test]
    fn arithmetic_int_and_float() {
        assert_eq!(Value::Int(2).add(&Value::Int(3)).unwrap(), Value::Int(5));
        assert_eq!(Value::Int(2).mul(&Value::Float(1.5)).unwrap(), Value::Float(3.0));
        assert_eq!(Value::Float(7.0).div(&Value::Int(2)).unwrap(), Value::Float(3.5));
    }

    #[test]
    fn integer_division_by_zero_errors() {
        assert!(matches!(Value::Int(1).div(&Value::Int(0)), Err(EventError::DivisionByZero)));
    }

    #[test]
    fn float_division_by_zero_is_ieee() {
        let v = Value::Float(1.0).div(&Value::Float(0.0)).unwrap();
        assert!(matches!(v, Value::Float(f) if f.is_infinite()));
    }

    #[test]
    fn hash_keys_coerce_numerics() {
        assert_eq!(Value::Int(2).hash_key(), Value::Float(2.0).hash_key());
        assert_ne!(Value::Int(2).hash_key(), Value::Int(3).hash_key());
        assert_eq!(Value::str("a").hash_key(), Value::str("a").hash_key());
    }

    #[test]
    fn hash_key_is_canonical_for_loose_eq() {
        // key(a) == key(b) ⇔ a loose_eq b, probed across the precision edge
        // where the old cast-based key violated it.
        let big = 1i64 << 53;
        let values = [
            Value::Int(big),
            Value::Int(big + 1),
            Value::Float(big as f64),
            Value::Int(2),
            Value::Float(2.0),
            Value::Float(2.5),
            Value::Float(f64::NAN),
            Value::Float(f64::INFINITY),
        ];
        for a in &values {
            for b in &values {
                assert_eq!(
                    a.hash_key() == b.hash_key(),
                    a.loose_eq(b),
                    "hash/eq must agree for {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn digest_is_stable_for_content() {
        assert_eq!(Value::str("IBM").hash_key().digest(), Value::str("IBM").hash_key().digest());
        assert_eq!(Value::Int(7).hash_key().digest(), Value::Float(7.0).hash_key().digest());
        assert_ne!(Value::Int(7).hash_key().digest(), Value::Int(8).hash_key().digest());
    }

    #[test]
    fn value_type_reporting() {
        assert_eq!(Value::Int(1).value_type(), ValueType::Int);
        assert_eq!(Value::str("s").value_type(), ValueType::Str);
        assert_eq!(Value::Bool(true).value_type(), ValueType::Bool);
        assert_eq!(Value::Float(0.0).value_type(), ValueType::Float);
    }

    #[test]
    fn accessors_enforce_types() {
        assert_eq!(Value::Int(7).as_i64().unwrap(), 7);
        assert!(Value::str("x").as_i64().is_err());
        assert!(Value::Bool(true).as_str().is_err());
        assert_eq!(Value::str("x").as_str().unwrap(), "x");
        assert_eq!(Value::Int(7).as_f64().unwrap(), 7.0);
    }

    #[test]
    fn value_is_copy_and_small() {
        fn assert_copy<T: Copy>() {}
        assert_copy::<Value>();
        assert_copy::<HashableValue>();
        assert_eq!(std::mem::size_of::<Value>(), 16);
    }
}
