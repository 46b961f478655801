//! Abstract syntax for queries.

use std::fmt;

use zstream_events::{Ts, Value};

use crate::error::LangError;
use crate::parser;

/// A parsed query: `PATTERN p [WHERE e] WITHIN t [RETURN items]`.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// The composite event expression.
    pub pattern: PatternExpr,
    /// Optional value constraints (a single boolean expression; top-level
    /// `AND`s are split into conjuncts during analysis).
    pub where_clause: Option<Expr>,
    /// Time window in logical time units.
    pub within: Ts,
    /// Output expression; defaults to all non-negated classes when omitted.
    pub returns: Vec<ReturnItem>,
}

impl Query {
    /// Parses a query from its textual form.
    ///
    /// ```
    /// use zstream_lang::Query;
    /// let q = Query::parse(
    ///     "PATTERN T1; T2; T3 \
    ///      WHERE T1.name = T3.name AND T2.name = 'Google' \
    ///      WITHIN 10 secs \
    ///      RETURN T1, T2, T3",
    /// ).unwrap();
    /// assert_eq!(q.within, 10);
    /// ```
    pub fn parse(src: &str) -> Result<Query, LangError> {
        parser::parse_query(src)
    }
}

impl fmt::Display for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PATTERN {}", self.pattern)?;
        if let Some(w) = &self.where_clause {
            write!(f, " WHERE {w}")?;
        }
        write!(f, " WITHIN {}", self.within)?;
        if !self.returns.is_empty() {
            write!(f, " RETURN ")?;
            for (i, r) in self.returns.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{r}")?;
            }
        }
        Ok(())
    }
}

/// Kleene-closure multiplicity (§3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KleeneKind {
    /// `A*` — zero or more.
    Star,
    /// `A+` — one or more.
    Plus,
    /// `A^n` — exactly `n` successive instances grouped per match.
    Count(u32),
}

/// A composite event expression.
#[derive(Debug, Clone, PartialEq)]
pub enum PatternExpr {
    /// A named event class.
    Class(String),
    /// Sequence: left operand followed by right operand (`;`), n-ary.
    Seq(Vec<PatternExpr>),
    /// Conjunction: all operands occur, order-free (`&`), n-ary.
    Conj(Vec<PatternExpr>),
    /// Disjunction: any operand occurs (`|`), n-ary.
    Disj(Vec<PatternExpr>),
    /// Negation: the operand does not occur (`!`).
    Neg(Box<PatternExpr>),
    /// Kleene closure over an event class.
    Kleene(Box<PatternExpr>, KleeneKind),
}

impl PatternExpr {
    /// Number of operator nodes in the expression (used by the §5.2.1
    /// rewrite-acceptance criterion).
    pub fn operator_count(&self) -> usize {
        match self {
            PatternExpr::Class(_) => 0,
            PatternExpr::Seq(xs) | PatternExpr::Conj(xs) | PatternExpr::Disj(xs) => {
                // An n-ary connective corresponds to n-1 binary operators.
                xs.len().saturating_sub(1) + xs.iter().map(Self::operator_count).sum::<usize>()
            }
            PatternExpr::Neg(x) => 1 + x.operator_count(),
            PatternExpr::Kleene(x, _) => 1 + x.operator_count(),
        }
    }

    /// All class names in left-to-right order (with duplicates, if any).
    pub fn class_names(&self) -> Vec<&str> {
        let mut out = Vec::new();
        self.collect_classes(&mut out);
        out
    }

    fn collect_classes<'a>(&'a self, out: &mut Vec<&'a str>) {
        match self {
            PatternExpr::Class(c) => out.push(c),
            PatternExpr::Seq(xs) | PatternExpr::Conj(xs) | PatternExpr::Disj(xs) => {
                for x in xs {
                    x.collect_classes(out);
                }
            }
            PatternExpr::Neg(x) | PatternExpr::Kleene(x, _) => x.collect_classes(out),
        }
    }
}

impl fmt::Display for PatternExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn write_nary(f: &mut fmt::Formatter<'_>, xs: &[PatternExpr], sep: &str) -> fmt::Result {
            write!(f, "(")?;
            for (i, x) in xs.iter().enumerate() {
                if i > 0 {
                    write!(f, "{sep}")?;
                }
                write!(f, "{x}")?;
            }
            write!(f, ")")
        }
        match self {
            PatternExpr::Class(c) => write!(f, "{c}"),
            PatternExpr::Seq(xs) => write_nary(f, xs, "; "),
            PatternExpr::Conj(xs) => write_nary(f, xs, " & "),
            PatternExpr::Disj(xs) => write_nary(f, xs, " | "),
            PatternExpr::Neg(x) => write!(f, "!{x}"),
            PatternExpr::Kleene(x, KleeneKind::Star) => write!(f, "{x}*"),
            PatternExpr::Kleene(x, KleeneKind::Plus) => write!(f, "{x}+"),
            PatternExpr::Kleene(x, KleeneKind::Count(n)) => write!(f, "{x}^{n}"),
        }
    }
}

/// Binary operators in predicate expressions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `=`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `AND`
    And,
    /// `OR`
    Or,
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Eq => "=",
            BinOp::Ne => "!=",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::And => "AND",
            BinOp::Or => "OR",
        };
        write!(f, "{s}")
    }
}

/// Unary operators in predicate expressions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnaryOp {
    /// Arithmetic negation.
    Neg,
    /// Boolean NOT (`!`).
    Not,
}

/// Aggregate functions applicable to Kleene-closure classes (§3.1, Query 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFunc {
    /// Sum of an attribute over the closure group.
    Sum,
    /// Average of an attribute.
    Avg,
    /// Number of events in the group.
    Count,
    /// Minimum of an attribute.
    Min,
    /// Maximum of an attribute.
    Max,
}

impl AggFunc {
    /// Parses an aggregate function name (case-insensitive).
    pub fn from_name(name: &str) -> Option<AggFunc> {
        match name.to_ascii_lowercase().as_str() {
            "sum" => Some(AggFunc::Sum),
            "avg" => Some(AggFunc::Avg),
            "count" => Some(AggFunc::Count),
            "min" => Some(AggFunc::Min),
            "max" => Some(AggFunc::Max),
            _ => None,
        }
    }
}

impl fmt::Display for AggFunc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AggFunc::Sum => "sum",
            AggFunc::Avg => "avg",
            AggFunc::Count => "count",
            AggFunc::Min => "min",
            AggFunc::Max => "max",
        };
        write!(f, "{s}")
    }
}

/// An (untyped) predicate expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Attribute reference `class.field`.
    Attr {
        /// Event class name.
        class: String,
        /// Field name within the class's schema.
        field: String,
    },
    /// A literal value. Percent literals `20%` parse as `Float(0.2)`.
    Lit(Value),
    /// Unary operation.
    Unary(UnaryOp, Box<Expr>),
    /// Binary operation.
    Binary(BinOp, Box<Expr>, Box<Expr>),
    /// Aggregate over a closure class attribute, e.g. `sum(T2.volume)`.
    Agg {
        /// Aggregate function.
        func: AggFunc,
        /// Closure class name.
        class: String,
        /// Field aggregated (ignored for `count`).
        field: String,
    },
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Attr { class, field } => write!(f, "{class}.{field}"),
            Expr::Lit(v) => write!(f, "{v}"),
            Expr::Unary(UnaryOp::Neg, e) => write!(f, "(-{e})"),
            Expr::Unary(UnaryOp::Not, e) => write!(f, "(NOT {e})"),
            Expr::Binary(op, l, r) => write!(f, "({l} {op} {r})"),
            Expr::Agg { func, class, field } => write!(f, "{func}({class}.{field})"),
        }
    }
}

/// One item of the RETURN clause.
#[derive(Debug, Clone, PartialEq)]
pub enum ReturnItem {
    /// Return all attributes of a class.
    Class(String),
    /// Return an aggregate over a closure class.
    Agg(AggFunc, String, String),
}

impl fmt::Display for ReturnItem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReturnItem::Class(c) => write!(f, "{c}"),
            ReturnItem::Agg(func, class, field) => write!(f, "{func}({class}.{field})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn operator_count_counts_binary_equivalents() {
        // A;(!B & !C);D == 2 seq ops + 1 conj op + 2 negations = 5.
        let p = PatternExpr::Seq(vec![
            PatternExpr::Class("A".into()),
            PatternExpr::Conj(vec![
                PatternExpr::Neg(Box::new(PatternExpr::Class("B".into()))),
                PatternExpr::Neg(Box::new(PatternExpr::Class("C".into()))),
            ]),
            PatternExpr::Class("D".into()),
        ]);
        assert_eq!(p.operator_count(), 5);

        // A;!(B | C);D == 2 seq + 1 disj + 1 neg = 4 — the cheaper form.
        let q = PatternExpr::Seq(vec![
            PatternExpr::Class("A".into()),
            PatternExpr::Neg(Box::new(PatternExpr::Disj(vec![
                PatternExpr::Class("B".into()),
                PatternExpr::Class("C".into()),
            ]))),
            PatternExpr::Class("D".into()),
        ]);
        assert_eq!(q.operator_count(), 4);
    }

    #[test]
    fn class_names_in_pattern_order() {
        let p = PatternExpr::Seq(vec![
            PatternExpr::Class("IBM".into()),
            PatternExpr::Kleene(Box::new(PatternExpr::Class("Sun".into())), KleeneKind::Plus),
            PatternExpr::Class("Oracle".into()),
        ]);
        assert_eq!(p.class_names(), vec!["IBM", "Sun", "Oracle"]);
    }
}
