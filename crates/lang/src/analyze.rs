//! Semantic analysis.
//!
//! Turns a parsed [`Query`] into an [`AnalyzedQuery`]:
//!
//! * assigns every event class a [`ClassId`] in pattern order,
//! * validates negation and Kleene-closure placement (§4.4.2: negation must
//!   combine with other operators and makes no sense under disjunction or
//!   closure),
//! * type-checks the WHERE clause against the class schemas,
//! * splits top-level conjuncts into **single-class predicates** (pushed down
//!   to leaf buffers, §4.1) and **multi-class predicates** (attached to
//!   internal nodes; the planner recognises the equalities among them
//!   for the hash optimization of §5.2.2).

use std::collections::HashMap;
use std::sync::Arc;

use zstream_events::{Schema, Ts, ValueType};

use crate::ast::{AggFunc, BinOp, Expr, KleeneKind, PatternExpr, Query, ReturnItem, UnaryOp};
use crate::error::LangError;
use crate::typed::{ClassId, TypedExpr, TypedPattern};

/// Maximum number of event classes per pattern (class sets are bitmasks).
pub const MAX_CLASSES: usize = 64;

/// Maps event-class names to their input schemas.
#[derive(Debug, Clone)]
pub struct SchemaMap {
    default: Option<Arc<Schema>>,
    by_name: HashMap<String, Arc<Schema>>,
}

impl SchemaMap {
    /// Every class reads from the same schema (the common case: all classes
    /// are aliases over one input stream, e.g. `Stocks as T1`).
    pub fn uniform(schema: Arc<Schema>) -> SchemaMap {
        SchemaMap { default: Some(schema), by_name: HashMap::new() }
    }

    /// An empty map with no default; every class must be bound explicitly.
    pub fn empty() -> SchemaMap {
        SchemaMap { default: None, by_name: HashMap::new() }
    }

    /// Binds one class name to a schema.
    pub fn with(mut self, class: impl Into<String>, schema: Arc<Schema>) -> SchemaMap {
        self.by_name.insert(class.into(), schema);
        self
    }

    fn lookup(&self, class: &str) -> Option<Arc<Schema>> {
        self.by_name.get(class).cloned().or_else(|| self.default.clone())
    }
}

/// Everything known about one event class after analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassInfo {
    /// The class name as written in the query.
    pub name: String,
    /// The schema of events bound to this class.
    pub schema: Arc<Schema>,
    /// Closure kind, if the class is a Kleene closure.
    pub kleene: Option<KleeneKind>,
    /// Whether the class appears under a negation.
    pub negated: bool,
}

/// A multi-class (or aggregate) predicate attached to internal plan nodes.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiClassPred {
    /// The typed predicate.
    pub expr: TypedExpr,
    /// Bitmask of referenced classes.
    pub mask: u64,
}

impl MultiClassPred {
    /// True when all referenced classes are within `available`.
    pub fn applicable(&self, available: u64) -> bool {
        self.mask & !available == 0
    }
}

/// A typed RETURN item.
#[derive(Debug, Clone, PartialEq)]
pub enum TypedReturn {
    /// All attributes of one class.
    Class(ClassId),
    /// Aggregate over a closure class.
    Agg(AggFunc, ClassId, usize),
}

/// The result of semantic analysis: the input to plan construction.
/// Equality is structural (see [`TypedExpr`]'s).
#[derive(Debug, Clone, PartialEq)]
pub struct AnalyzedQuery {
    /// Event classes in pattern order.
    pub classes: Vec<ClassInfo>,
    /// The pattern with classes resolved to ids.
    pub pattern: TypedPattern,
    /// Per-class single-class predicates, pushed down to leaf buffers.
    pub single_preds: Vec<Vec<TypedExpr>>,
    /// Multi-class and aggregate predicates, attached to internal nodes.
    pub multi_preds: Vec<MultiClassPred>,
    /// The time window (WITHIN) in logical time units.
    pub window: Ts,
    /// Typed RETURN items (defaulted to all non-negated classes).
    pub returns: Vec<TypedReturn>,
}

impl AnalyzedQuery {
    /// Number of event classes.
    pub fn num_classes(&self) -> usize {
        self.classes.len()
    }

    /// True when the pattern is a flat sequence of (possibly negated or
    /// closure) classes — the shape the DP optimizer of §5.2.3 reorders.
    pub fn is_flat_sequence(&self) -> bool {
        match &self.pattern {
            TypedPattern::Seq(xs) => xs.iter().all(|x| {
                matches!(
                    x,
                    TypedPattern::Class(_) | TypedPattern::Kleene(_, _) | TypedPattern::Neg(_)
                )
            }),
            TypedPattern::Class(_) | TypedPattern::Kleene(_, _) => true,
            _ => false,
        }
    }
}

/// Runs semantic analysis on a parsed query.
pub fn analyze(query: &Query, schemas: &SchemaMap) -> Result<AnalyzedQuery, LangError> {
    // 1. Collect classes in pattern order and validate structure.
    let names = query.pattern.class_names();
    if names.is_empty() {
        return Err(LangError::EmptyPattern);
    }
    if names.len() > MAX_CLASSES {
        return Err(LangError::InvalidKleene(format!(
            "patterns are limited to {MAX_CLASSES} classes"
        )));
    }
    for (i, n) in names.iter().enumerate() {
        if names[..i].contains(n) {
            return Err(LangError::DuplicateClass(n.to_string()));
        }
    }

    let mut classes: Vec<ClassInfo> = names
        .iter()
        .map(|n| {
            let schema = schemas.lookup(n).ok_or_else(|| LangError::UnknownClass(n.to_string()))?;
            Ok(ClassInfo { name: n.to_string(), schema, kleene: None, negated: false })
        })
        .collect::<Result<_, LangError>>()?;

    let by_name: HashMap<&str, ClassId> = names.iter().enumerate().map(|(i, n)| (*n, i)).collect();

    // 2. Build the typed pattern and record negation/closure flags.
    let pattern = build_typed(&query.pattern, &by_name, &mut classes, Ctx::Top)?;
    validate_negation_placement(&pattern)?;

    // 3. Type-check the WHERE clause and split conjuncts.
    let mut single_preds: Vec<Vec<TypedExpr>> = vec![Vec::new(); classes.len()];
    let mut multi_preds = Vec::new();
    if let Some(w) = &query.where_clause {
        let mut conjuncts = Vec::new();
        split_conjuncts(w, &mut conjuncts);
        for conjunct in conjuncts {
            let (typed, ty) = type_expr(conjunct, &by_name, &classes)?;
            if ty != ValueType::Bool {
                return Err(LangError::TypeError {
                    context: format!("WHERE conjunct '{conjunct}'"),
                    expected: ValueType::Bool,
                    found: ty,
                });
            }
            let mask = typed.class_mask();
            let has_agg = contains_agg(&typed);
            if mask.count_ones() == 1 && !has_agg {
                let class = mask.trailing_zeros() as usize;
                single_preds[class].push(typed);
            } else {
                multi_preds.push(MultiClassPred { expr: typed, mask });
            }
        }
    }

    // 4. Type the RETURN clause (default: all non-negated classes).
    let returns = if query.returns.is_empty() {
        classes
            .iter()
            .enumerate()
            .filter(|(_, c)| !c.negated)
            .map(|(i, _)| TypedReturn::Class(i))
            .collect()
    } else {
        query
            .returns
            .iter()
            .map(|r| type_return(r, &by_name, &classes))
            .collect::<Result<_, LangError>>()?
    };

    Ok(AnalyzedQuery { classes, pattern, single_preds, multi_preds, window: query.within, returns })
}

#[derive(Clone, Copy, PartialEq)]
enum Ctx {
    Top,
    UnderSeqOrConj,
    UnderDisj,
    UnderNeg,
    UnderKleene,
}

fn build_typed(
    p: &PatternExpr,
    by_name: &HashMap<&str, ClassId>,
    classes: &mut Vec<ClassInfo>,
    ctx: Ctx,
) -> Result<TypedPattern, LangError> {
    match p {
        PatternExpr::Class(c) => {
            let id = by_name[c.as_str()];
            if ctx == Ctx::UnderNeg {
                classes[id].negated = true;
            }
            Ok(TypedPattern::Class(id))
        }
        PatternExpr::Seq(xs) => {
            if ctx == Ctx::UnderNeg || ctx == Ctx::UnderKleene {
                return Err(LangError::InvalidNegation(
                    "sequence cannot be negated or closed over as a unit".into(),
                ));
            }
            let ys = xs
                .iter()
                .map(|x| build_typed(x, by_name, classes, Ctx::UnderSeqOrConj))
                .collect::<Result<Vec<_>, _>>()?;
            Ok(TypedPattern::Seq(ys))
        }
        PatternExpr::Conj(xs) => {
            if ctx == Ctx::UnderNeg || ctx == Ctx::UnderKleene {
                return Err(LangError::InvalidNegation(
                    "conjunction cannot be negated or closed over as a unit".into(),
                ));
            }
            let ys = xs
                .iter()
                .map(|x| build_typed(x, by_name, classes, Ctx::UnderSeqOrConj))
                .collect::<Result<Vec<_>, _>>()?;
            Ok(TypedPattern::Conj(ys))
        }
        PatternExpr::Disj(xs) => {
            let inner_ctx = if ctx == Ctx::UnderNeg { Ctx::UnderNeg } else { Ctx::UnderDisj };
            let ys = xs
                .iter()
                .map(|x| build_typed(x, by_name, classes, inner_ctx))
                .collect::<Result<Vec<_>, _>>()?;
            Ok(TypedPattern::Disj(ys))
        }
        PatternExpr::Neg(inner) => {
            if ctx == Ctx::Top {
                return Err(LangError::InvalidNegation(
                    "negation cannot be the entire pattern (§4.4.2)".into(),
                ));
            }
            if ctx == Ctx::UnderDisj {
                return Err(LangError::InvalidNegation(
                    "negation under disjunction (A | !B) is not meaningful (§4.4.2)".into(),
                ));
            }
            if ctx == Ctx::UnderKleene || ctx == Ctx::UnderNeg {
                return Err(LangError::InvalidNegation(
                    "nested or closed-over negation is not supported".into(),
                ));
            }
            // Negation may wrap a class or a disjunction of classes
            // (`!(B | C)` — the preferred form of §5.2.1).
            match inner.as_ref() {
                PatternExpr::Class(_) | PatternExpr::Disj(_) => {}
                _ => {
                    return Err(LangError::InvalidNegation(
                        "only a class or a disjunction of classes can be negated".into(),
                    ))
                }
            }
            let typed = build_typed(inner, by_name, classes, Ctx::UnderNeg)?;
            if let TypedPattern::Disj(xs) = &typed {
                if !xs.iter().all(|x| matches!(x, TypedPattern::Class(_))) {
                    return Err(LangError::InvalidNegation(
                        "only a class or a disjunction of classes can be negated".into(),
                    ));
                }
            }
            Ok(TypedPattern::Neg(Box::new(typed)))
        }
        PatternExpr::Kleene(inner, kind) => {
            if ctx == Ctx::UnderNeg {
                return Err(LangError::InvalidNegation(
                    "Kleene closure cannot be negated (!A*) (§4.4.2)".into(),
                ));
            }
            match inner.as_ref() {
                PatternExpr::Class(c) => {
                    let id = by_name[c.as_str()];
                    classes[id].kleene = Some(*kind);
                    Ok(TypedPattern::Kleene(id, *kind))
                }
                _ => {
                    Err(LangError::InvalidKleene("closure applies to a single event class".into()))
                }
            }
        }
    }
}

/// Every Seq/Conj must keep at least one non-negated element: a pattern like
/// `!A;!B` has nothing to anchor the non-occurrence to.
fn validate_negation_placement(p: &TypedPattern) -> Result<(), LangError> {
    match p {
        TypedPattern::Seq(xs) | TypedPattern::Conj(xs) => {
            if xs.iter().all(|x| matches!(x, TypedPattern::Neg(_))) {
                return Err(LangError::InvalidNegation(
                    "a sequence/conjunction of only negated terms cannot be anchored".into(),
                ));
            }
            for x in xs {
                validate_negation_placement(x)?;
            }
            Ok(())
        }
        TypedPattern::Disj(xs) => {
            for x in xs {
                validate_negation_placement(x)?;
            }
            Ok(())
        }
        _ => Ok(()),
    }
}

fn split_conjuncts<'a>(e: &'a Expr, out: &mut Vec<&'a Expr>) {
    match e {
        Expr::Binary(BinOp::And, l, r) => {
            split_conjuncts(l, out);
            split_conjuncts(r, out);
        }
        other => out.push(other),
    }
}

fn contains_agg(e: &TypedExpr) -> bool {
    match e {
        TypedExpr::Agg { .. } => true,
        TypedExpr::Attr { .. } | TypedExpr::Lit(_) => false,
        TypedExpr::Unary(_, x) => contains_agg(x),
        TypedExpr::Binary(_, l, r) => contains_agg(l) || contains_agg(r),
    }
}

fn type_expr(
    e: &Expr,
    by_name: &HashMap<&str, ClassId>,
    classes: &[ClassInfo],
) -> Result<(TypedExpr, ValueType), LangError> {
    match e {
        Expr::Attr { class, field } => {
            let id = *by_name
                .get(class.as_str())
                .ok_or_else(|| LangError::UnknownClass(class.clone()))?;
            let schema = &classes[id].schema;
            let fi = schema.field_index(field)?;
            let ty = schema.fields()[fi].ty;
            Ok((TypedExpr::Attr { class: id, field: fi, ty }, ty))
        }
        Expr::Lit(v) => Ok((TypedExpr::Lit(*v), v.value_type())),
        Expr::Unary(UnaryOp::Neg, inner) => {
            let (t, ty) = type_expr(inner, by_name, classes)?;
            if !matches!(ty, ValueType::Int | ValueType::Float) {
                return Err(LangError::TypeError {
                    context: format!("unary minus over '{inner}'"),
                    expected: ValueType::Float,
                    found: ty,
                });
            }
            Ok((TypedExpr::Unary(UnaryOp::Neg, Box::new(t)), ty))
        }
        Expr::Unary(UnaryOp::Not, inner) => {
            let (t, ty) = type_expr(inner, by_name, classes)?;
            if ty != ValueType::Bool {
                return Err(LangError::TypeError {
                    context: format!("NOT over '{inner}'"),
                    expected: ValueType::Bool,
                    found: ty,
                });
            }
            Ok((TypedExpr::Unary(UnaryOp::Not, Box::new(t)), ValueType::Bool))
        }
        Expr::Binary(op, l, r) => {
            let (tl, tyl) = type_expr(l, by_name, classes)?;
            let (tr, tyr) = type_expr(r, by_name, classes)?;
            let out_ty = match op {
                BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div => {
                    let num = |t: ValueType| matches!(t, ValueType::Int | ValueType::Float);
                    if !num(tyl) || !num(tyr) {
                        return Err(LangError::TypeError {
                            context: format!("arithmetic '{e}'"),
                            expected: ValueType::Float,
                            found: if num(tyl) { tyr } else { tyl },
                        });
                    }
                    if tyl == ValueType::Int && tyr == ValueType::Int && *op != BinOp::Div {
                        ValueType::Int
                    } else {
                        ValueType::Float
                    }
                }
                BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                    let comparable = match (tyl, tyr) {
                        (ValueType::Int | ValueType::Float, ValueType::Int | ValueType::Float) => {
                            true
                        }
                        (a, b) => a == b,
                    };
                    if !comparable {
                        return Err(LangError::IncomparableTypes { left: tyl, right: tyr });
                    }
                    ValueType::Bool
                }
                BinOp::And | BinOp::Or => {
                    if tyl != ValueType::Bool || tyr != ValueType::Bool {
                        return Err(LangError::TypeError {
                            context: format!("boolean connective '{e}'"),
                            expected: ValueType::Bool,
                            found: if tyl != ValueType::Bool { tyl } else { tyr },
                        });
                    }
                    ValueType::Bool
                }
            };
            Ok((TypedExpr::Binary(*op, Box::new(tl), Box::new(tr)), out_ty))
        }
        Expr::Agg { func, class, field } => {
            let id = *by_name
                .get(class.as_str())
                .ok_or_else(|| LangError::UnknownClass(class.clone()))?;
            if classes[id].kleene.is_none() {
                return Err(LangError::AggregateOverNonClosure(class.clone()));
            }
            let schema = &classes[id].schema;
            let fi = schema.field_index(field)?;
            let fty = schema.fields()[fi].ty;
            let out_ty = match func {
                AggFunc::Count => ValueType::Int,
                AggFunc::Avg => ValueType::Float,
                AggFunc::Sum => {
                    if !matches!(fty, ValueType::Int | ValueType::Float) {
                        return Err(LangError::TypeError {
                            context: format!("sum over '{class}.{field}'"),
                            expected: ValueType::Float,
                            found: fty,
                        });
                    }
                    fty
                }
                AggFunc::Min | AggFunc::Max => fty,
            };
            Ok((TypedExpr::Agg { func: *func, class: id, field: fi }, out_ty))
        }
    }
}

fn type_return(
    r: &ReturnItem,
    by_name: &HashMap<&str, ClassId>,
    classes: &[ClassInfo],
) -> Result<TypedReturn, LangError> {
    match r {
        ReturnItem::Class(c) => {
            let id = *by_name.get(c.as_str()).ok_or_else(|| LangError::UnknownClass(c.clone()))?;
            if classes[id].negated {
                return Err(LangError::InvalidNegation(format!(
                    "cannot RETURN negated class '{c}'"
                )));
            }
            Ok(TypedReturn::Class(id))
        }
        ReturnItem::Agg(func, c, f) => {
            let id = *by_name.get(c.as_str()).ok_or_else(|| LangError::UnknownClass(c.clone()))?;
            if classes[id].kleene.is_none() {
                return Err(LangError::AggregateOverNonClosure(c.clone()));
            }
            let fi = classes[id].schema.field_index(f)?;
            Ok(TypedReturn::Agg(*func, id, fi))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Query;

    fn stocks() -> SchemaMap {
        SchemaMap::uniform(Schema::stocks())
    }

    fn analyzed(src: &str) -> AnalyzedQuery {
        analyze(&Query::parse(src).unwrap(), &stocks()).unwrap()
    }

    #[test]
    fn query1_splits_predicates() {
        let a = analyzed(
            "PATTERN T1; T2; T3 \
             WHERE T1.name = T3.name AND T2.name = 'Google' \
               AND T1.price > (1 + 5%) * T2.price \
               AND T3.price < (1 - 5%) * T2.price \
             WITHIN 10 secs \
             RETURN T1, T2, T3",
        );
        assert_eq!(a.num_classes(), 3);
        // T2.name = 'Google' is single-class, pushed to class 1.
        assert_eq!(a.single_preds[1].len(), 1);
        assert!(a.single_preds[0].is_empty() && a.single_preds[2].is_empty());
        // Three multi-class predicates: name equality + two price comparisons.
        assert_eq!(a.multi_preds.len(), 3);
        assert_eq!(a.multi_preds[0].mask, 0b101, "T1.name = T3.name");
        assert!(a.is_flat_sequence());
    }

    #[test]
    fn chained_equality_detects_two_hash_preds() {
        let a = analyzed("PATTERN A; B; C WHERE A.name = B.name = C.name WITHIN 10");
        let masks: Vec<u64> = a.multi_preds.iter().map(|p| p.mask).collect();
        assert_eq!(masks, vec![0b011, 0b110]);
        assert!(a.multi_preds.iter().all(|p| matches!(p.expr, TypedExpr::Binary(BinOp::Eq, ..))));
    }

    #[test]
    fn negation_flags_class() {
        let a = analyzed("PATTERN IBM; !Sun; Oracle WITHIN 200");
        assert!(a.classes[1].negated);
        assert!(!a.classes[0].negated && !a.classes[2].negated);
        // Default RETURN excludes negated classes.
        assert_eq!(a.returns, vec![TypedReturn::Class(0), TypedReturn::Class(2)]);
    }

    #[test]
    fn kleene_flags_class_and_allows_aggregates() {
        let a = analyzed(
            "PATTERN T1; T2^5; T3 WHERE sum(T2.volume) > 100 WITHIN 10 \
             RETURN T1, sum(T2.volume), T3",
        );
        assert_eq!(a.classes[1].kleene, Some(KleeneKind::Count(5)));
        assert_eq!(a.multi_preds.len(), 1, "aggregate predicates are node predicates");
        assert!(matches!(a.returns[1], TypedReturn::Agg(AggFunc::Sum, 1, 3)));
    }

    #[test]
    fn aggregate_over_non_closure_rejected() {
        let q = Query::parse("PATTERN A; B WHERE sum(A.volume) > 1 WITHIN 10").unwrap();
        assert!(matches!(analyze(&q, &stocks()), Err(LangError::AggregateOverNonClosure(_))));
    }

    #[test]
    fn duplicate_class_rejected() {
        let q = Query::parse("PATTERN A; B; A WITHIN 10").unwrap();
        assert!(matches!(analyze(&q, &stocks()), Err(LangError::DuplicateClass(_))));
    }

    #[test]
    fn negation_only_pattern_rejected() {
        let q = Query::parse("PATTERN !A WITHIN 10").unwrap();
        assert!(matches!(analyze(&q, &stocks()), Err(LangError::InvalidNegation(_))));
        let q = Query::parse("PATTERN !A; !B WITHIN 10").unwrap();
        assert!(matches!(analyze(&q, &stocks()), Err(LangError::InvalidNegation(_))));
    }

    #[test]
    fn negation_under_disjunction_rejected() {
        let q = Query::parse("PATTERN A; (B | !C) WITHIN 10").unwrap();
        assert!(matches!(analyze(&q, &stocks()), Err(LangError::InvalidNegation(_))));
    }

    #[test]
    fn negated_disjunction_accepted() {
        let a = analyzed("PATTERN A; !(B | C); D WITHIN 10");
        assert!(a.classes[1].negated && a.classes[2].negated);
    }

    #[test]
    fn negated_kleene_rejected() {
        let q = Query::parse("PATTERN A; !B*; C WITHIN 10").unwrap();
        assert!(matches!(analyze(&q, &stocks()), Err(LangError::InvalidNegation(_))));
    }

    #[test]
    fn kleene_over_compound_rejected() {
        let q = Query::parse("PATTERN A; (B & C)*; D WITHIN 10").unwrap();
        assert!(matches!(analyze(&q, &stocks()), Err(LangError::InvalidKleene(_))));
    }

    #[test]
    fn where_must_be_boolean() {
        let q = Query::parse("PATTERN A; B WHERE A.price + B.price WITHIN 10").unwrap();
        assert!(matches!(analyze(&q, &stocks()), Err(LangError::TypeError { .. })));
    }

    #[test]
    fn incomparable_where_types_rejected() {
        let q = Query::parse("PATTERN A; B WHERE A.name > B.price WITHIN 10").unwrap();
        assert!(matches!(analyze(&q, &stocks()), Err(LangError::IncomparableTypes { .. })));
    }

    #[test]
    fn unknown_field_rejected() {
        let q = Query::parse("PATTERN A; B WHERE A.nope = B.name WITHIN 10").unwrap();
        assert!(matches!(analyze(&q, &stocks()), Err(LangError::Event(_))));
    }

    #[test]
    fn unknown_class_in_where_rejected() {
        let q = Query::parse("PATTERN A; B WHERE Z.price > 1 WITHIN 10").unwrap();
        assert!(matches!(analyze(&q, &stocks()), Err(LangError::UnknownClass(_))));
    }

    #[test]
    fn return_of_negated_class_rejected() {
        let q = Query::parse("PATTERN A; !B; C WITHIN 10 RETURN A, B").unwrap();
        assert!(matches!(analyze(&q, &stocks()), Err(LangError::InvalidNegation(_))));
    }

    #[test]
    fn conjunction_and_disjunction_analyze() {
        let a = analyzed("PATTERN (A & B); (C | D) WITHIN 10");
        assert_eq!(a.num_classes(), 4);
        assert!(!a.is_flat_sequence());
    }

    #[test]
    fn constant_predicate_goes_to_multi_with_empty_mask() {
        let a = analyzed("PATTERN A; B WHERE 1 < 2 WITHIN 10");
        assert_eq!(a.multi_preds.len(), 1);
        assert_eq!(a.multi_preds[0].mask, 0);
    }
}
