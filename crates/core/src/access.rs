//! Workload event types.
//!
//! Workloads are expressed as streams of events at two levels of
//! abstraction:
//!
//! * [`ReferenceString`] — a flat sequence of [`Access`]es to names in a
//!   linear name space. This is the abstraction Belady's replacement
//!   study (cited as \[1\] by the paper) works in, and what the paging
//!   and mapping simulators consume.
//! * [`ProgramOp`] — segment-structured program events (declare a
//!   segment, touch an item in it, resize it, supply advice, free it).
//!   This is the portable workload the machine-survey experiment (E9)
//!   feeds to every appendix machine: each machine's adapter lowers
//!   `ProgramOp`s onto its own name space.
//!
//! Allocation-only experiments (placement, fragmentation, compaction) use
//! the coarser [`AllocEvent`] stream.

use core::fmt;

use crate::advice::{Advice, AdviceUnit};
use crate::ids::{Name, PageNo, SegId, Words};

/// How an item is accessed.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum AccessKind {
    /// Fetch the item (data read or instruction fetch).
    Read,
    /// Store into the item. Write accesses set the hardware modify
    /// sensor, which replacement strategies may interrogate.
    Write,
}

impl AccessKind {
    /// True for [`AccessKind::Write`].
    #[must_use]
    pub fn is_write(self) -> bool {
        matches!(self, AccessKind::Write)
    }
}

/// One access to a name in a linear name space.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Access {
    /// The name referenced.
    pub name: Name,
    /// Read or write.
    pub kind: AccessKind,
}

impl Access {
    /// A read access to `name`.
    #[must_use]
    pub fn read(name: impl Into<Name>) -> Access {
        Access {
            name: name.into(),
            kind: AccessKind::Read,
        }
    }
}

impl fmt::Display for Access {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            AccessKind::Read => write!(f, "R {}", self.name),
            AccessKind::Write => write!(f, "W {}", self.name),
        }
    }
}

/// A sequence of accesses to a linear name space.
pub type ReferenceString = Vec<Access>;

/// A request to allocate a variable-size unit.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct AllocRequest {
    /// Caller-chosen identifier; later [`AllocEvent::Free`]s refer to it.
    pub id: u64,
    /// Requested extent, in words.
    pub size: Words,
}

/// One event in an allocation-only workload.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AllocEvent {
    /// Allocate a unit.
    Alloc(AllocRequest),
    /// Free a previously allocated unit.
    Free {
        /// The identifier given at allocation time.
        id: u64,
    },
}

impl fmt::Display for AllocEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AllocEvent::Alloc(r) => write!(f, "alloc #{} {} words", r.id, r.size),
            AllocEvent::Free { id } => write!(f, "free #{id}"),
        }
    }
}

/// A segment-structured program event.
///
/// This is the machine-independent workload format: every appendix
/// machine in `dsa-machines` can interpret it, lowering segments onto its
/// own name space (flattening them into a linear space on ATLAS/M44,
/// keeping them as segments on the B5000/Rice/MULTICS/360-67).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ProgramOp {
    /// Declare a segment of `size` words (brings it into existence; the
    /// dynamic-segment attribute of the paper).
    Define {
        /// The segment being declared.
        seg: SegId,
        /// Its initial extent, in words.
        size: Words,
    },
    /// Touch the item at `offset` within `seg`.
    Touch {
        /// The segment referenced.
        seg: SegId,
        /// The item within the segment.
        offset: Words,
        /// Read or write.
        kind: AccessKind,
    },
    /// Change the extent of `seg` to `size` words (grow or shrink by
    /// special program directive).
    Resize {
        /// The segment being resized.
        seg: SegId,
        /// Its new extent, in words.
        size: Words,
    },
    /// Cease the existence of `seg`.
    Delete {
        /// The segment being deleted.
        seg: SegId,
    },
    /// Supply an advisory directive: an [`Advice`] written inline, so
    /// that no variant is wider than a `Touch` and the op stays 16
    /// bytes. Build one with [`ProgramOp::advise`]; [`AdviceKind::about`]
    /// reads it back.
    Advise {
        /// The directive.
        kind: AdviceKind,
        /// Whether `number` names a segment rather than a page.
        segment: bool,
        /// The page or segment number.
        number: u64,
    },
}

/// Which of [`Advice`]'s five directives an advise op carries.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AdviceKind {
    /// [`Advice::WillNeed`].
    WillNeed,
    /// [`Advice::WontNeed`].
    WontNeed,
    /// [`Advice::Pin`].
    Pin,
    /// [`Advice::Unpin`].
    Unpin,
    /// [`Advice::Release`].
    Release,
}

impl AdviceKind {
    /// The directive of this kind about page (or, if `segment`,
    /// segment) `number`: how an advise op is unpacked. `None` for a
    /// segment number past any [`SegId`], which [`ProgramOp::advise`]
    /// never writes and no `Define` can declare.
    #[must_use]
    pub fn about(self, segment: bool, number: u64) -> Option<Advice> {
        let unit = if segment {
            AdviceUnit::Segment(SegId(u32::try_from(number).ok()?))
        } else {
            AdviceUnit::Page(PageNo(number))
        };
        Some(match self {
            AdviceKind::WillNeed => Advice::WillNeed(unit),
            AdviceKind::WontNeed => Advice::WontNeed(unit),
            AdviceKind::Pin => Advice::Pin(unit),
            AdviceKind::Unpin => Advice::Unpin(unit),
            AdviceKind::Release => Advice::Release(unit),
        })
    }
}

impl ProgramOp {
    /// The op that supplies `advice`.
    #[must_use]
    pub fn advise(advice: Advice) -> ProgramOp {
        let kind = match advice {
            Advice::WillNeed(_) => AdviceKind::WillNeed,
            Advice::WontNeed(_) => AdviceKind::WontNeed,
            Advice::Pin(_) => AdviceKind::Pin,
            Advice::Unpin(_) => AdviceKind::Unpin,
            Advice::Release(_) => AdviceKind::Release,
        };
        let (segment, number) = match advice.unit() {
            AdviceUnit::Page(p) => (false, p.0),
            AdviceUnit::Segment(s) => (true, u64::from(s.0)),
        };
        ProgramOp::Advise {
            kind,
            segment,
            number,
        }
    }
}

impl fmt::Display for ProgramOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProgramOp::Define { seg, size } => write!(f, "define {seg} ({size} words)"),
            ProgramOp::Touch { seg, offset, kind } => {
                let k = if kind.is_write() { "W" } else { "R" };
                write!(f, "{k} {seg}[{offset}]")
            }
            ProgramOp::Resize { seg, size } => write!(f, "resize {seg} -> {size} words"),
            ProgramOp::Delete { seg } => write!(f, "delete {seg}"),
            ProgramOp::Advise {
                kind,
                segment,
                number,
            } => match kind.about(*segment, *number) {
                Some(a) => write!(f, "advise: {a}"),
                None => write!(f, "advise: {kind:?} of no segment ({number})"),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn access_constructors() {
        let r = Access::read(5u64);
        assert_eq!(r.kind, AccessKind::Read);
        assert!(!r.kind.is_write());
    }

    #[test]
    fn display_forms() {
        assert_eq!(Access::read(16u64).to_string(), "R 0x10");
        assert_eq!(
            AllocEvent::Alloc(AllocRequest { id: 1, size: 40 }).to_string(),
            "alloc #1 40 words"
        );
        assert_eq!(AllocEvent::Free { id: 1 }.to_string(), "free #1");
        assert_eq!(
            ProgramOp::Touch {
                seg: SegId(2),
                offset: 9,
                kind: AccessKind::Write
            }
            .to_string(),
            "W s2[9]"
        );
        assert_eq!(
            ProgramOp::advise(Advice::WillNeed(AdviceUnit::Page(PageNo(1)))).to_string(),
            "advise: will-need p1"
        );
    }

    #[test]
    fn program_ops_are_copy() {
        let op = ProgramOp::Define {
            seg: SegId(1),
            size: 100,
        };
        let op2 = op;
        assert_eq!(op, op2);
    }

    #[test]
    fn a_program_op_stays_16_bytes() {
        // A survey program holds one op per touch; a wider op widens
        // every machine workload's resident stream with it. Advice
        // nested inside `Advise` (as an enum or a struct) makes it 24.
        assert_eq!(core::mem::size_of::<ProgramOp>(), 16);
    }

    #[test]
    fn advice_survives_the_inline_layout() {
        let units = [0, 1, u32::MAX]
            .map(|n| AdviceUnit::Segment(SegId(n)))
            .into_iter()
            .chain([0, 1, u64::MAX].map(|n| AdviceUnit::Page(PageNo(n))));
        for unit in units {
            for a in [
                Advice::WillNeed(unit),
                Advice::WontNeed(unit),
                Advice::Pin(unit),
                Advice::Unpin(unit),
                Advice::Release(unit),
            ] {
                let op = ProgramOp::advise(a);
                let ProgramOp::Advise {
                    kind,
                    segment,
                    number,
                } = op
                else {
                    panic!("{a} packed into {op:?}");
                };
                assert_eq!(kind.about(segment, number), Some(a));
                assert_eq!(format!("{op}"), format!("advise: {a}"));
            }
        }
    }

    #[test]
    fn a_segment_number_past_u32_names_no_segment() {
        let number = u64::from(u32::MAX) + 1;
        assert_eq!(AdviceKind::Pin.about(true, number), None);
        let op = ProgramOp::Advise {
            kind: AdviceKind::Pin,
            segment: true,
            number,
        };
        assert_eq!(op.to_string(), "advise: Pin of no segment (4294967296)");
    }
}
