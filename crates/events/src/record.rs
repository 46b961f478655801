//! Buffer records (composite events).
//!
//! §4.2 of the paper: *"Each buffer contains a number of records, each of
//! which has three parts: a vector of event pointers, a start time and an end
//! time."* A leaf record is one event pointer whose start and end are that
//! event's timestamp, so a leaf buffer stores exactly that: a `(Ts,
//! EventRef)` entry, with no slot array. A [`Record`] is the internal form:
//! one [`Slot`] per pattern class covered by the operator's subtree, in
//! pattern order:
//!
//! * [`Slot::One`] — the usual case, one constituent primitive event,
//! * [`Slot::Many`] — a Kleene-closure group produced by KSEQ,
//! * [`Slot::None`] — the `(NULL, Rr)` rows emitted by NSEQ when no negation
//!   instance negates `Rr` (Algorithm 2, steps 5/10).
//!
//! Operators read both through one [`RecordView`].

use std::fmt;
use std::sync::Arc;

use crate::time::Ts;
use crate::EventRef;

/// One pattern-class position inside a [`Record`].
#[derive(Debug, Clone)]
pub enum Slot {
    /// No event bound at this position (negation classes).
    None,
    /// A single primitive event.
    One(EventRef),
    /// A Kleene-closure group of successive primitive events.
    Many(Arc<[EventRef]>),
}

impl Slot {
    /// The single event in this slot, if it is `One`.
    #[inline]
    pub fn as_one(&self) -> Option<&EventRef> {
        match self {
            Slot::One(e) => Some(e),
            _ => None,
        }
    }

    /// All events contained in this slot in arrival order.
    pub fn events(&self) -> &[EventRef] {
        match self {
            Slot::None => &[],
            Slot::One(e) => std::slice::from_ref(e),
            Slot::Many(es) => es,
        }
    }

    /// Earliest timestamp in this slot, if any event is bound.
    pub fn start_ts(&self) -> Option<Ts> {
        self.events().first().map(|e| e.ts())
    }

    /// Latest timestamp in this slot, if any event is bound.
    pub fn end_ts(&self) -> Option<Ts> {
        self.events().last().map(|e| e.ts())
    }

    fn footprint(&self) -> usize {
        std::mem::size_of::<Slot>()
            + match self {
                Slot::Many(es) => es.len() * std::mem::size_of::<EventRef>(),
                _ => 0,
            }
    }
}

/// One piece of an operator's output, in slot order: what a composite is
/// made of before anything is built. An operator describes each output as a
/// list of parts plus its span, and its sink decides the form — a
/// [`Record`] ([`Record::from_parts`]) for an internal buffer, packed ids
/// ([`crate::MatchBatch::push`]) at the plan root.
#[derive(Debug, Clone, Copy)]
pub enum Part<'a> {
    /// Every slot of a sub-record, in order.
    Slots(&'a [Slot]),
    /// This many unbound slots.
    Nulls(usize),
    /// One bound event.
    One(&'a EventRef),
    /// A Kleene-closure group, as one slot.
    Group(&'a [EventRef]),
}

impl Part<'_> {
    /// Number of slots this part contributes.
    fn width(&self) -> usize {
        match self {
            Part::Slots(slots) => slots.len(),
            Part::Nulls(n) => *n,
            Part::One(_) | Part::Group(_) => 1,
        }
    }
}

/// A borrowed view of one buffer entry — a leaf's event or an internal
/// [`Record`] — as every operator reads it: its span, its output [`Part`],
/// and the event or closure group bound at each slot position.
#[derive(Debug, Clone, Copy)]
pub struct RecordView<'a> {
    start: Ts,
    end: Ts,
    pub(crate) body: ViewBody<'a>,
}

/// What a [`RecordView`] points at.
#[derive(Debug, Clone, Copy)]
pub(crate) enum ViewBody<'a> {
    /// A leaf entry: one event, at slot 0.
    Event(&'a EventRef),
    /// An internal record's slots.
    Slots(&'a [Slot]),
}

impl<'a> RecordView<'a> {
    /// A leaf entry: `event`, stamped `ts`, spanning `[ts, ts]`.
    #[inline]
    pub fn event(ts: Ts, event: &'a EventRef) -> RecordView<'a> {
        RecordView { start: ts, end: ts, body: ViewBody::Event(event) }
    }

    /// Start timestamp: earliest constituent primitive event (§3).
    #[inline]
    pub fn start_ts(self) -> Ts {
        self.start
    }

    /// End timestamp: latest constituent primitive event (§3).
    #[inline]
    pub fn end_ts(self) -> Ts {
        self.end
    }

    /// The single event bound at slot position `i`, if one is.
    #[inline]
    pub fn one(self, i: usize) -> Option<&'a EventRef> {
        match self.body {
            ViewBody::Event(e) => {
                debug_assert_eq!(i, 0, "a leaf entry has one slot");
                Some(e)
            }
            ViewBody::Slots(slots) => slots[i].as_one(),
        }
    }

    /// The Kleene-closure group bound at slot position `i` (empty unless the
    /// slot holds one).
    #[inline]
    pub fn group(self, i: usize) -> &'a [EventRef] {
        match self.body {
            ViewBody::Slots(slots) => match &slots[i] {
                Slot::Many(es) => es,
                _ => &[],
            },
            ViewBody::Event(_) => &[],
        }
    }

    /// Every slot of this entry as one output part.
    #[inline]
    pub fn part(self) -> Part<'a> {
        match self.body {
            ViewBody::Event(e) => Part::One(e),
            ViewBody::Slots(slots) => Part::Slots(slots),
        }
    }
}

/// A buffer record: a vector of event slots plus a start and end timestamp.
///
/// Records are cheap to clone (slots hold `Arc`s) and are kept sorted by
/// `end_ts` in every buffer — the central invariant of §4.2.
#[derive(Debug, Clone)]
pub struct Record {
    slots: Box<[Slot]>,
    start: Ts,
    end: Ts,
}

impl Record {
    /// A one-slot record wrapping one primitive event: the record form of a
    /// leaf entry (what a snapshot writes a leaf entry as).
    pub fn primitive(event: EventRef) -> Record {
        let ts = event.ts();
        Record { slots: Box::new([Slot::One(event)]), start: ts, end: ts }
    }

    /// A record from explicit slots; `start`/`end` are computed from the
    /// bound events. Panics if no slot binds an event (an all-`None` record
    /// has no time span and is never produced by the operators).
    pub fn from_slots(slots: Vec<Slot>) -> Record {
        let start = slots
            .iter()
            .filter_map(Slot::start_ts)
            .min()
            .expect("record must bind at least one event");
        let end = slots
            .iter()
            .filter_map(Slot::end_ts)
            .max()
            .expect("record must bind at least one event");
        Record { slots: slots.into_boxed_slice(), start, end }
    }

    /// A record from explicit slots and an explicit span. Used by NSEQ: the
    /// negating event is carried in a slot for predicate/guard evaluation
    /// but must not extend the composite's span (it is not part of the
    /// output, §4.4.2).
    pub fn from_slots_with_span(slots: Vec<Slot>, start: Ts, end: Ts) -> Record {
        debug_assert!(start <= end);
        Record { slots: slots.into_boxed_slice(), start, end }
    }

    /// A record from an operator's output parts (see [`Part`]) and an
    /// explicit span.
    pub fn from_parts(parts: &[Part<'_>], start: Ts, end: Ts) -> Record {
        let mut slots = Vec::with_capacity(parts.iter().map(Part::width).sum());
        for part in parts {
            match *part {
                Part::Slots(s) => slots.extend(s.iter().cloned()),
                Part::Nulls(n) => slots.extend(std::iter::repeat_with(|| Slot::None).take(n)),
                Part::One(e) => slots.push(Slot::One(e.clone())),
                Part::Group(es) => slots.push(Slot::Many(es.into())),
            }
        }
        Record::from_slots_with_span(slots, start, end)
    }

    /// Combines two adjacent sub-records into one covering both class ranges
    /// (left classes first). The span is the union of the two spans.
    pub fn combine(left: &Record, right: &Record) -> Record {
        let mut slots = Vec::with_capacity(left.slots.len() + right.slots.len());
        slots.extend(left.slots.iter().cloned());
        slots.extend(right.slots.iter().cloned());
        Record {
            slots: slots.into_boxed_slice(),
            start: left.start.min(right.start),
            end: left.end.max(right.end),
        }
    }

    /// Prepends an unbound (negated) slot to `right`, as NSEQ's
    /// `insert (NULL, Rr)` does. The span is unchanged: a `None` slot carries
    /// no events.
    pub fn with_null_left(right: &Record) -> Record {
        let mut slots = Vec::with_capacity(1 + right.slots.len());
        slots.push(Slot::None);
        slots.extend(right.slots.iter().cloned());
        Record { slots: slots.into_boxed_slice(), start: right.start, end: right.end }
    }

    /// Appends an unbound (negated) slot after `left` — the `B;!C` mirror
    /// case of NSEQ.
    pub fn with_null_right(left: &Record) -> Record {
        let mut slots = Vec::with_capacity(1 + left.slots.len());
        slots.extend(left.slots.iter().cloned());
        slots.push(Slot::None);
        Record { slots: slots.into_boxed_slice(), start: left.start, end: left.end }
    }

    /// Start timestamp: earliest constituent primitive event (§3).
    #[inline]
    pub fn start_ts(&self) -> Ts {
        self.start
    }

    /// End timestamp: latest constituent primitive event (§3).
    #[inline]
    pub fn end_ts(&self) -> Ts {
        self.end
    }

    /// This record as a [`RecordView`].
    #[inline]
    pub fn view(&self) -> RecordView<'_> {
        RecordView { start: self.start, end: self.end, body: ViewBody::Slots(&self.slots) }
    }

    /// Slots in pattern order for the class range this record covers.
    pub fn slots(&self) -> &[Slot] {
        &self.slots
    }

    /// The slot at relative class position `i`.
    #[inline]
    pub fn slot(&self, i: usize) -> &Slot {
        &self.slots[i]
    }

    /// Approximate in-memory footprint in bytes (record header + slot array +
    /// closure spill), for the logical memory accounting of Tables 3/5.
    /// The primitive events themselves are *not* counted: they live in the
    /// source batches every leaf entry and slot points into.
    pub fn footprint(&self) -> usize {
        std::mem::size_of::<Record>() + self.slots.iter().map(Slot::footprint).sum::<usize>()
    }
}

impl fmt::Display for Record {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}..{}](", self.start, self.end)?;
        for (i, s) in self.slots.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            match s {
                Slot::None => write!(f, "NULL")?,
                Slot::One(e) => write!(f, "{}@{}", e.schema().name(), e.ts())?,
                Slot::Many(es) => write!(f, "x{}", es.len())?,
            }
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::stock;

    #[test]
    fn primitive_record_spans_its_event() {
        let r = Record::primitive(stock(7, 1, "IBM", 1.0, 1));
        assert_eq!((r.start_ts(), r.end_ts()), (7, 7));
        assert_eq!(r.slot(0).events().len(), 1);
    }

    #[test]
    fn combine_unions_spans_and_concats_slots() {
        let a = Record::primitive(stock(3, 1, "IBM", 1.0, 1));
        let b = Record::primitive(stock(9, 2, "Sun", 2.0, 1));
        let c = Record::combine(&a, &b);
        assert_eq!((c.start_ts(), c.end_ts()), (3, 9));
        assert_eq!(c.slots().len(), 2);
        // Conjunction may combine in either time order; span is still the union.
        let d = Record::combine(&b, &a);
        assert_eq!((d.start_ts(), d.end_ts()), (3, 9));
    }

    #[test]
    fn null_slots_do_not_affect_span() {
        let c = Record::primitive(stock(5, 1, "Oracle", 1.0, 1));
        let r = Record::with_null_left(&c);
        assert_eq!((r.start_ts(), r.end_ts()), (5, 5));
        assert!(matches!(r.slot(0), Slot::None));
        assert!(r.slot(1).as_one().is_some());

        let l = Record::with_null_right(&c);
        assert!(matches!(l.slot(1), Slot::None));
        assert_eq!(l.start_ts(), 5);
    }

    #[test]
    fn closure_slots_count_all_events() {
        let group: Arc<[EventRef]> =
            vec![stock(1, 1, "G", 1.0, 1), stock(2, 2, "G", 1.0, 1)].into();
        let r = Record::from_slots(vec![
            Slot::One(stock(0, 0, "A", 1.0, 1)),
            Slot::Many(group),
            Slot::One(stock(4, 3, "C", 1.0, 1)),
        ]);
        assert_eq!(r.slots().iter().map(|s| s.events().len()).sum::<usize>(), 4);
        assert_eq!((r.start_ts(), r.end_ts()), (0, 4));
    }

    #[test]
    fn footprint_grows_with_closure_size() {
        let small = Record::primitive(stock(1, 1, "A", 1.0, 1));
        let many: Arc<[EventRef]> =
            (0..10).map(|i| stock(i, i as i64, "G", 1.0, 1)).collect::<Vec<_>>().into();
        let big = Record::from_slots(vec![Slot::Many(many)]);
        assert!(big.footprint() > small.footprint());
    }
}
