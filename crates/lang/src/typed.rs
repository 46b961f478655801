//! Typed predicate IR and typed patterns.
//!
//! Semantic analysis resolves attribute references to `(class index, field
//! index)` pairs and type-checks every operation, producing [`TypedExpr`]s
//! that the engines evaluate without string lookups. Bindings are abstracted
//! by [`EventBinding`] so both the tree engine (buffer [`Record`]s at varying
//! class offsets) and the NFA baseline (match vectors) can evaluate the same
//! predicates.
//!
//! [`Record`]: zstream_events::Record

use zstream_events::{EventRef, Value, ValueType};

use crate::ast::{AggFunc, BinOp, KleeneKind, UnaryOp};

/// Index of an event class within the pattern, in pattern order.
pub type ClassId = usize;

/// A source of event bindings during predicate evaluation.
pub trait EventBinding {
    /// The single event bound to `class`, if any.
    fn event(&self, class: ClassId) -> Option<&EventRef>;

    /// The closure group bound to `class` (empty unless the class is a
    /// Kleene closure with a bound group).
    fn closure(&self, class: ClassId) -> &[EventRef];
}

/// An [`EventBinding`] over a plain slice of optional events, used by the
/// NFA baseline and unit tests. Closure groups are not supported.
pub struct SliceBinding<'a>(pub &'a [Option<EventRef>]);

impl EventBinding for SliceBinding<'_> {
    fn event(&self, class: ClassId) -> Option<&EventRef> {
        self.0.get(class).and_then(|o| o.as_ref())
    }

    fn closure(&self, _class: ClassId) -> &[EventRef] {
        &[]
    }
}

/// Evaluation failures. These indicate either a plan bug (unbound class) or
/// data-dependent arithmetic errors; predicate contexts treat them as false.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvalError {
    /// The expression referenced a class with no bound event.
    Unbound(ClassId),
    /// A type error surfaced at runtime (cannot happen for type-checked
    /// expressions, kept for defense in depth).
    Type,
    /// Integer division by zero.
    DivisionByZero,
}

/// A type-checked predicate expression. Equality is structural, with
/// literals compared by representation ([`Value::identical`]), so equal
/// expressions evaluate identically on every binding.
#[derive(Debug, Clone)]
pub enum TypedExpr {
    /// Attribute of a bound event: resolved class and field indexes.
    Attr {
        /// Class index in pattern order.
        class: ClassId,
        /// Field index in the class's schema.
        field: usize,
        /// Field type (for downstream type reasoning).
        ty: ValueType,
    },
    /// A literal.
    Lit(Value),
    /// Unary operation.
    Unary(UnaryOp, Box<TypedExpr>),
    /// Binary operation.
    Binary(BinOp, Box<TypedExpr>, Box<TypedExpr>),
    /// Aggregate over the closure group bound to `class`.
    Agg {
        /// Aggregate function.
        func: AggFunc,
        /// Closure class index.
        class: ClassId,
        /// Aggregated field index (unused for `count`).
        field: usize,
    },
}

impl PartialEq for TypedExpr {
    fn eq(&self, other: &Self) -> bool {
        use TypedExpr::*;
        match (self, other) {
            (Attr { class: c, field: f, ty: t }, Attr { class: c2, field: f2, ty: t2 }) => {
                (c, f, t) == (c2, f2, t2)
            }
            (Lit(a), Lit(b)) => a.identical(b),
            (Unary(op, e), Unary(op2, e2)) => op == op2 && e == e2,
            (Binary(op, l, r), Binary(op2, l2, r2)) => op == op2 && l == l2 && r == r2,
            (Agg { func: a, class: c, field: f }, Agg { func: a2, class: c2, field: f2 }) => {
                (a, c, f) == (a2, c2, f2)
            }
            _ => false,
        }
    }
}

/// Consistent with the structural equality: literals hash by
/// representation.
impl std::hash::Hash for TypedExpr {
    fn hash<H: std::hash::Hasher>(&self, h: &mut H) {
        std::mem::discriminant(self).hash(h);
        match self {
            TypedExpr::Attr { class, field, ty } => (class, field, ty).hash(h),
            TypedExpr::Lit(v) => {
                std::mem::discriminant(v).hash(h);
                match v {
                    Value::Int(i) => i.hash(h),
                    Value::Float(f) => f.to_bits().hash(h),
                    Value::Str(s) => s.hash(h),
                    Value::Bool(b) => b.hash(h),
                }
            }
            TypedExpr::Unary(op, e) => (op, e).hash(h),
            TypedExpr::Binary(op, l, r) => (op, l, r).hash(h),
            TypedExpr::Agg { func, class, field } => (func, class, field).hash(h),
        }
    }
}

impl TypedExpr {
    /// Bitmask of classes referenced by this expression (bit `i` = class `i`;
    /// analysis rejects patterns with more than 64 classes).
    pub fn class_mask(&self) -> u64 {
        match self {
            TypedExpr::Attr { class, .. } | TypedExpr::Agg { class, .. } => 1u64 << class,
            TypedExpr::Lit(_) => 0,
            TypedExpr::Unary(_, e) => e.class_mask(),
            TypedExpr::Binary(_, l, r) => l.class_mask() | r.class_mask(),
        }
    }

    /// Evaluates the expression against a binding.
    pub fn eval(&self, binding: &impl EventBinding) -> Result<Value, EvalError> {
        match self {
            TypedExpr::Attr { class, field, .. } => {
                binding.event(*class).map(|e| e.value(*field)).ok_or(EvalError::Unbound(*class))
            }
            TypedExpr::Lit(v) => Ok(*v),
            TypedExpr::Unary(UnaryOp::Neg, e) => match e.eval(binding)? {
                Value::Int(i) => Ok(Value::Int(-i)),
                Value::Float(f) => Ok(Value::Float(-f)),
                _ => Err(EvalError::Type),
            },
            TypedExpr::Unary(UnaryOp::Not, e) => match e.eval(binding)? {
                Value::Bool(b) => Ok(Value::Bool(!b)),
                _ => Err(EvalError::Type),
            },
            TypedExpr::Binary(op, l, r) => {
                // AND/OR use Kleene three-valued logic over evaluation
                // failures: a definite `false` (AND) or `true` (OR) on one
                // side decides the result even when the other side cannot be
                // evaluated (e.g. references a class left unbound by a
                // disjunction).
                if matches!(op, BinOp::And) {
                    let lv = l.eval(binding);
                    if matches!(lv, Ok(Value::Bool(false))) {
                        return Ok(Value::Bool(false));
                    }
                    let rv = r.eval(binding);
                    if matches!(rv, Ok(Value::Bool(false))) {
                        return Ok(Value::Bool(false));
                    }
                    return match (lv?, rv?) {
                        (Value::Bool(a), Value::Bool(b)) => Ok(Value::Bool(a && b)),
                        _ => Err(EvalError::Type),
                    };
                }
                if matches!(op, BinOp::Or) {
                    let lv = l.eval(binding);
                    if matches!(lv, Ok(Value::Bool(true))) {
                        return Ok(Value::Bool(true));
                    }
                    let rv = r.eval(binding);
                    if matches!(rv, Ok(Value::Bool(true))) {
                        return Ok(Value::Bool(true));
                    }
                    return match (lv?, rv?) {
                        (Value::Bool(a), Value::Bool(b)) => Ok(Value::Bool(a || b)),
                        _ => Err(EvalError::Type),
                    };
                }
                let lv = l.eval(binding)?;
                let rv = r.eval(binding)?;
                eval_binop(*op, &lv, &rv)
            }
            TypedExpr::Agg { func, class, field } => {
                let group = binding.closure(*class);
                eval_agg(*func, *field, group)
            }
        }
    }
}

/// Applies a non-boolean-connective binary operator to two already-evaluated
/// values, with exactly the semantics of [`TypedExpr::eval`]. Public so
/// engines can pre-evaluate the two sides of a split comparison predicate
/// independently (once per outer record / once per candidate) and combine
/// them without re-walking the expression tree.
///
/// # Panics
///
/// On `And`/`Or` — their short-circuit evaluation needs the expression tree.
#[inline]
pub fn eval_binop(op: BinOp, l: &Value, r: &Value) -> Result<Value, EvalError> {
    use BinOp::*;
    match op {
        Add => l.add(r).map_err(|_| EvalError::Type),
        Sub => l.sub(r).map_err(|_| EvalError::Type),
        Mul => l.mul(r).map_err(|_| EvalError::Type),
        Div => l.div(r).map_err(|e| match e {
            zstream_events::EventError::DivisionByZero => EvalError::DivisionByZero,
            _ => EvalError::Type,
        }),
        Eq => Ok(Value::Bool(l.loose_eq(r))),
        Ne => Ok(Value::Bool(!l.loose_eq(r))),
        Lt | Le | Gt | Ge => {
            let ord = l.compare(r).map_err(|_| EvalError::Type)?;
            let b = match op {
                Lt => ord == std::cmp::Ordering::Less,
                Le => ord != std::cmp::Ordering::Greater,
                Gt => ord == std::cmp::Ordering::Greater,
                Ge => ord != std::cmp::Ordering::Less,
                _ => unreachable!(),
            };
            Ok(Value::Bool(b))
        }
        And | Or => unreachable!("handled with short-circuit above"),
    }
}

fn eval_agg(func: AggFunc, field: usize, group: &[EventRef]) -> Result<Value, EvalError> {
    if matches!(func, AggFunc::Count) {
        return Ok(Value::Int(group.len() as i64));
    }
    if group.is_empty() {
        // Aggregates over empty closure groups (A* matching zero events):
        // sum() of nothing is 0, min/max/avg are undefined -> type error,
        // which predicate contexts treat as false.
        return match func {
            AggFunc::Sum => Ok(Value::Int(0)),
            _ => Err(EvalError::Type),
        };
    }
    let mut acc: Option<Value> = None;
    for e in group {
        let v = e.value(field);
        acc = Some(match acc {
            None => v,
            Some(a) => match func {
                AggFunc::Sum | AggFunc::Avg => a.add(&v).map_err(|_| EvalError::Type)?,
                AggFunc::Min => {
                    if v.compare(&a).map_err(|_| EvalError::Type)? == std::cmp::Ordering::Less {
                        v
                    } else {
                        a
                    }
                }
                AggFunc::Max => {
                    if v.compare(&a).map_err(|_| EvalError::Type)? == std::cmp::Ordering::Greater {
                        v
                    } else {
                        a
                    }
                }
                AggFunc::Count => unreachable!(),
            },
        });
    }
    let total = acc.expect("group nonempty");
    if matches!(func, AggFunc::Avg) {
        return Ok(Value::Float(total.as_f64().map_err(|_| EvalError::Type)? / group.len() as f64));
    }
    Ok(total)
}

/// A pattern with classes resolved to indexes, produced by analysis.
#[derive(Debug, Clone, PartialEq)]
pub enum TypedPattern {
    /// A single event class.
    Class(ClassId),
    /// Sequence of sub-patterns.
    Seq(Vec<TypedPattern>),
    /// Conjunction of sub-patterns.
    Conj(Vec<TypedPattern>),
    /// Disjunction of sub-patterns.
    Disj(Vec<TypedPattern>),
    /// Negated sub-pattern (a class or a disjunction of classes).
    Neg(Box<TypedPattern>),
    /// Kleene closure over a single class.
    Kleene(ClassId, KleeneKind),
}

impl TypedPattern {
    /// All class ids in pattern order.
    pub fn class_ids(&self) -> Vec<ClassId> {
        let mut out = Vec::new();
        self.collect(&mut out);
        out
    }

    fn collect(&self, out: &mut Vec<ClassId>) {
        match self {
            TypedPattern::Class(c) | TypedPattern::Kleene(c, _) => out.push(*c),
            TypedPattern::Seq(xs) | TypedPattern::Conj(xs) | TypedPattern::Disj(xs) => {
                for x in xs {
                    x.collect(out);
                }
            }
            TypedPattern::Neg(x) => x.collect(out),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zstream_events::stock;

    fn attr(class: ClassId, field: usize, ty: ValueType) -> TypedExpr {
        TypedExpr::Attr { class, field, ty }
    }

    #[test]
    fn evaluates_price_comparison() {
        // price is field 2 of the stock schema.
        let e = TypedExpr::Binary(
            BinOp::Gt,
            Box::new(attr(0, 2, ValueType::Float)),
            Box::new(TypedExpr::Binary(
                BinOp::Mul,
                Box::new(TypedExpr::Lit(Value::Float(1.2))),
                Box::new(attr(1, 2, ValueType::Float)),
            )),
        );
        let a = stock(1, 1, "IBM", 130.0, 10);
        let b = stock(2, 2, "Sun", 100.0, 10);
        let binding = vec![Some(a), Some(b)];
        assert!(matches!(e.eval(&SliceBinding(&binding)), Ok(Value::Bool(true))));

        let binding =
            vec![Some(stock(1, 1, "IBM", 110.0, 10)), Some(stock(2, 2, "Sun", 100.0, 10))];
        assert!(!matches!(e.eval(&SliceBinding(&binding)), Ok(Value::Bool(true))));
    }

    #[test]
    fn unbound_class_fails_closed() {
        let e = TypedExpr::Binary(
            BinOp::Eq,
            Box::new(attr(0, 1, ValueType::Str)),
            Box::new(TypedExpr::Lit(Value::str("IBM"))),
        );
        let binding: Vec<Option<EventRef>> = vec![None];
        assert_eq!(e.eval(&SliceBinding(&binding)), Err(EvalError::Unbound(0)));
        assert!(!matches!(e.eval(&SliceBinding(&binding)), Ok(Value::Bool(true))));
    }

    #[test]
    fn short_circuit_and_or() {
        // (false AND <unbound>) is false, not an error.
        let f = TypedExpr::Lit(Value::Bool(false));
        let t = TypedExpr::Lit(Value::Bool(true));
        let unbound = attr(9, 0, ValueType::Int);
        let and = TypedExpr::Binary(
            BinOp::And,
            Box::new(f.clone()),
            Box::new(TypedExpr::Binary(
                BinOp::Eq,
                Box::new(unbound.clone()),
                Box::new(TypedExpr::Lit(Value::Int(0))),
            )),
        );
        let binding: Vec<Option<EventRef>> = vec![];
        assert_eq!(and.eval(&SliceBinding(&binding)), Ok(Value::Bool(false)));
        let or = TypedExpr::Binary(
            BinOp::Or,
            Box::new(t),
            Box::new(TypedExpr::Binary(
                BinOp::Eq,
                Box::new(unbound),
                Box::new(TypedExpr::Lit(Value::Int(0))),
            )),
        );
        assert_eq!(or.eval(&SliceBinding(&binding)), Ok(Value::Bool(true)));
    }

    #[test]
    fn class_mask_unions_operands() {
        let e = TypedExpr::Binary(
            BinOp::Gt,
            Box::new(attr(0, 2, ValueType::Float)),
            Box::new(attr(3, 2, ValueType::Float)),
        );
        assert_eq!(e.class_mask(), 0b1001);
    }

    #[test]
    fn aggregates_over_groups() {
        struct ClosureBinding(Vec<EventRef>);
        impl EventBinding for ClosureBinding {
            fn event(&self, _c: ClassId) -> Option<&EventRef> {
                None
            }
            fn closure(&self, _c: ClassId) -> &[EventRef] {
                &self.0
            }
        }
        let group = ClosureBinding(vec![stock(1, 1, "G", 10.0, 100), stock(2, 2, "G", 20.0, 300)]);
        // volume is field 3.
        let sum = TypedExpr::Agg { func: AggFunc::Sum, class: 0, field: 3 };
        assert_eq!(sum.eval(&group), Ok(Value::Int(400)));
        let avg = TypedExpr::Agg { func: AggFunc::Avg, class: 0, field: 2 };
        assert_eq!(avg.eval(&group), Ok(Value::Float(15.0)));
        let count = TypedExpr::Agg { func: AggFunc::Count, class: 0, field: 0 };
        assert_eq!(count.eval(&group), Ok(Value::Int(2)));
        let min = TypedExpr::Agg { func: AggFunc::Min, class: 0, field: 2 };
        assert_eq!(min.eval(&group), Ok(Value::Float(10.0)));
        let max = TypedExpr::Agg { func: AggFunc::Max, class: 0, field: 2 };
        assert_eq!(max.eval(&group), Ok(Value::Float(20.0)));
    }

    #[test]
    fn empty_group_aggregates() {
        struct Empty;
        impl EventBinding for Empty {
            fn event(&self, _c: ClassId) -> Option<&EventRef> {
                None
            }
            fn closure(&self, _c: ClassId) -> &[EventRef] {
                &[]
            }
        }
        let sum = TypedExpr::Agg { func: AggFunc::Sum, class: 0, field: 3 };
        assert_eq!(sum.eval(&Empty), Ok(Value::Int(0)));
        let avg = TypedExpr::Agg { func: AggFunc::Avg, class: 0, field: 2 };
        assert_eq!(avg.eval(&Empty), Err(EvalError::Type));
        let count = TypedExpr::Agg { func: AggFunc::Count, class: 0, field: 0 };
        assert_eq!(count.eval(&Empty), Ok(Value::Int(0)));
    }

    #[test]
    fn division_by_zero_fails_closed() {
        let e = TypedExpr::Binary(
            BinOp::Gt,
            Box::new(TypedExpr::Binary(
                BinOp::Div,
                Box::new(TypedExpr::Lit(Value::Int(4))),
                Box::new(TypedExpr::Lit(Value::Int(0))),
            )),
            Box::new(TypedExpr::Lit(Value::Int(1))),
        );
        let binding: Vec<Option<EventRef>> = vec![];
        assert!(!matches!(e.eval(&SliceBinding(&binding)), Ok(Value::Bool(true))));
    }
}
