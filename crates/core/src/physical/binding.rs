//! Predicate bindings over buffer entries.
//!
//! Predicates are [`TypedExpr`]s referencing classes by id; plan nodes cover
//! ordered subsets of classes, so each node carries a [`ClassMap`] from class
//! id to slot position. The binding adapters here let the same typed
//! expression evaluate during pair combination (SEQ/CONJ), against a single
//! record (NEG-on-top, KSEQ group predicates), against a record plus a
//! candidate negation event (NSEQ), and against a candidate closure event
//! (KSEQ per-event qualification).

use zstream_events::{EventRef, RecordView};
use zstream_lang::{ClassId, EvalError, EventBinding, TypedExpr};

/// Maps class ids to slot positions within a node's records.
#[derive(Debug, Clone, Default)]
pub struct ClassMap {
    pos: Vec<Option<u8>>,
}

impl ClassMap {
    /// Builds a map for a node covering `classes` (in slot order) out of
    /// `num_classes` total pattern classes.
    pub fn new(num_classes: usize, classes: &[ClassId]) -> ClassMap {
        let mut pos = vec![None; num_classes];
        for (i, c) in classes.iter().enumerate() {
            debug_assert!(pos[*c].is_none(), "class {c} mapped twice");
            pos[*c] = Some(u8::try_from(i).expect("at most 64 classes"));
        }
        ClassMap { pos }
    }

    /// Slot position of `class` within this node's records, if covered.
    #[inline]
    pub fn slot_of(&self, class: ClassId) -> Option<usize> {
        self.pos.get(class).copied().flatten().map(usize::from)
    }
}

/// Binding over one buffer entry (a leaf event or an internal record).
pub struct RecordBinding<'a> {
    /// The entry.
    pub rec: RecordView<'a>,
    /// Class-to-slot map of the owning node.
    pub map: &'a ClassMap,
}

impl EventBinding for RecordBinding<'_> {
    fn event(&self, class: ClassId) -> Option<&EventRef> {
        self.rec.one(self.map.slot_of(class)?)
    }

    fn closure(&self, class: ClassId) -> &[EventRef] {
        self.map.slot_of(class).map_or(&[], |slot| self.rec.group(slot))
    }
}

/// Binding over a candidate (left, right) record pair during combination.
pub struct PairBinding<'a> {
    /// Left child record and map.
    pub left: RecordBinding<'a>,
    /// Right child record and map.
    pub right: RecordBinding<'a>,
}

impl EventBinding for PairBinding<'_> {
    fn event(&self, class: ClassId) -> Option<&EventRef> {
        self.left.event(class).or_else(|| self.right.event(class))
    }

    fn closure(&self, class: ClassId) -> &[EventRef] {
        let l = self.left.closure(class);
        if !l.is_empty() {
            l
        } else {
            self.right.closure(class)
        }
    }
}

/// Binding over a record plus one extra candidate event for a specific class
/// (NSEQ negation candidates; NEG-on-top interleaving checks; KSEQ per-event
/// closure qualification).
pub struct WithEventBinding<'a, B> {
    /// The base binding.
    pub base: B,
    /// The class the extra event binds.
    pub class: ClassId,
    /// The candidate event.
    pub event: &'a EventRef,
}

impl<B: EventBinding> EventBinding for WithEventBinding<'_, B> {
    fn event(&self, class: ClassId) -> Option<&EventRef> {
        if class == self.class {
            Some(self.event)
        } else {
            self.base.event(class)
        }
    }

    fn closure(&self, class: ClassId) -> &[EventRef] {
        if class == self.class {
            std::slice::from_ref(self.event)
        } else {
            self.base.closure(class)
        }
    }
}

/// Predicate evaluation policy for plan nodes: a predicate passes when it
/// evaluates to `true`, or when it references an unbound class that is
/// *optional* (left unbound by a disjunction branch) — vacuous truth. Any
/// other failure (type error, unbound mandatory class) fails closed.
#[inline]
pub fn pred_passes(expr: &TypedExpr, binding: &impl EventBinding, optional_mask: u64) -> bool {
    match expr.eval(binding) {
        Ok(zstream_events::Value::Bool(b)) => b,
        Err(EvalError::Unbound(c)) => optional_mask & (1u64 << c) != 0,
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zstream_events::{stock, Record, Value, ValueType};
    use zstream_lang::{BinOp, TypedExpr};

    fn attr(class: ClassId, field: usize, ty: ValueType) -> TypedExpr {
        TypedExpr::Attr { class, field, ty }
    }

    #[test]
    fn class_map_positions() {
        let m = ClassMap::new(5, &[3, 1]);
        assert_eq!(m.slot_of(3), Some(0));
        assert_eq!(m.slot_of(1), Some(1));
        assert_eq!(m.slot_of(0), None);
        assert_eq!(m.slot_of(4), None);
    }

    #[test]
    fn pair_binding_resolves_both_sides() {
        let lrec = Record::primitive(stock(1, 1, "IBM", 10.0, 1));
        let rrec = Record::primitive(stock(2, 2, "Sun", 5.0, 1));
        let lmap = ClassMap::new(2, &[0]);
        let rmap = ClassMap::new(2, &[1]);
        let b = PairBinding {
            left: RecordBinding { rec: lrec.view(), map: &lmap },
            right: RecordBinding { rec: rrec.view(), map: &rmap },
        };
        // price (field 2) of class 0 > price of class 1
        let e = TypedExpr::Binary(
            BinOp::Gt,
            Box::new(attr(0, 2, ValueType::Float)),
            Box::new(attr(1, 2, ValueType::Float)),
        );
        assert!(pred_passes(&e, &b, 0));
    }

    #[test]
    fn unbound_optional_class_is_vacuous() {
        let rec = Record::primitive(stock(1, 1, "IBM", 10.0, 1));
        let map = ClassMap::new(2, &[0]);
        let b = RecordBinding { rec: rec.view(), map: &map };
        let e = TypedExpr::Binary(
            BinOp::Gt,
            Box::new(attr(1, 2, ValueType::Float)),
            Box::new(TypedExpr::Lit(Value::Float(0.0))),
        );
        assert!(!pred_passes(&e, &b, 0b01), "class 1 mandatory: fail closed");
        assert!(pred_passes(&e, &b, 0b10), "class 1 optional: vacuous pass");
    }

    #[test]
    fn with_event_binding_overrides_class() {
        let rec = Record::primitive(stock(1, 1, "IBM", 10.0, 1));
        let map = ClassMap::new(2, &[0]);
        let candidate = stock(5, 9, "Sun", 99.0, 1);
        let b = WithEventBinding {
            base: RecordBinding { rec: rec.view(), map: &map },
            class: 1,
            event: &candidate,
        };
        assert_eq!(b.event(1).unwrap().value(2).as_f64().unwrap(), 99.0);
        assert_eq!(b.event(0).unwrap().value(2).as_f64().unwrap(), 10.0);
        assert_eq!(b.closure(1).len(), 1);
    }
}
