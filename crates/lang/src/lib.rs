//! The ZStream CEP query language (§3 of the paper).
//!
//! Queries have the shape
//!
//! ```text
//! PATTERN  T1 ; !T2 ; T3        -- composite event expression
//! WHERE    T1.name = T3.name AND T1.price > 1.05 * T2.price
//! WITHIN   10 secs              -- time constraint
//! RETURN   T1, T3               -- output expression
//! ```
//!
//! Pattern operators: `;` (sequence), `&` (conjunction), `|` (disjunction),
//! `!` (negation), and Kleene closure (`*`, `+`, `^n`). Predicates support
//! arithmetic, comparisons (including chained equality `a = b = c`), boolean
//! connectives and aggregates over closure classes (`sum(T2.volume)`).
//!
//! The crate provides:
//! * [`Query::parse`] — lexer + recursive-descent parser into an AST,
//! * [`analyze`](analyze::analyze) — semantic analysis producing an
//!   [`AnalyzedQuery`]: classes in pattern order, typed predicate IR split
//!   into single-class (pushed to leaf buffers) and multi-class predicates,
//!   detected equality predicates for hash optimization (§5.2.2), and
//!   validated negation/closure placement.

pub mod analyze;
pub mod ast;
pub mod error;
pub mod lexer;
pub mod parser;
pub mod typed;

pub use analyze::{analyze, AnalyzedQuery, ClassInfo, MultiClassPred, SchemaMap, TypedReturn};
pub use ast::{AggFunc, BinOp, Expr, KleeneKind, PatternExpr, Query, ReturnItem, UnaryOp};
pub use error::LangError;
pub use typed::{
    eval_binop, ClassId, EvalError, EventBinding, SliceBinding, TypedExpr, TypedPattern,
};
