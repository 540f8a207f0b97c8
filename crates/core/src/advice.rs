//! Predictive-information directives.
//!
//! Several systems in the paper accept advisory directives about future
//! storage use:
//!
//! * the IBM M44/44X has two special instructions — one indicating a page
//!   "will shortly be needed", the other that it "will not be needed for
//!   some time" (Appendix A.2);
//! * MULTICS lets a programmer specify that information be kept
//!   permanently in working storage, be brought in soon if possible, or
//!   be removed because it will not be accessed again (Appendix A.6);
//! * Project ACSI-MATIC attached whole "program descriptions" specifying
//!   media residence and overlay permissions per segment.
//!
//! The directives are *essentially advisory*: "the consequences of
//! predictions will be related to the overall situation as regards
//! storage utilization". Our simulators treat them exactly that way —
//! advice steers prefetch and victim selection but never overrides
//! correctness, and experiment E8 measures what good and bad advice are
//! worth.

use core::fmt;

use crate::ids::{PageNo, SegId};

/// The unit an advisory directive refers to.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum AdviceUnit {
    /// A page of the program's name space.
    Page(PageNo),
    /// A whole segment.
    Segment(SegId),
}

impl fmt::Display for AdviceUnit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdviceUnit::Page(p) => write!(f, "{p}"),
            AdviceUnit::Segment(s) => write!(f, "{s}"),
        }
    }
}

/// An advisory directive about future use of storage.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Advice {
    /// The unit will shortly be needed; bring it to working storage if
    /// possible (M44 instruction 1, MULTICS (ii)).
    WillNeed(AdviceUnit),
    /// The unit will not be needed for some time; it is a good
    /// replacement candidate (M44 instruction 2).
    WontNeed(AdviceUnit),
    /// Keep the unit permanently in working storage (MULTICS (i)).
    /// A later [`Advice::Unpin`] cancels it.
    Pin(AdviceUnit),
    /// Cancel a previous [`Advice::Pin`].
    Unpin(AdviceUnit),
    /// The unit will not be accessed again and may be removed from
    /// working storage immediately (MULTICS (iii)).
    Release(AdviceUnit),
}

impl Advice {
    /// The unit the directive refers to.
    #[must_use]
    pub fn unit(&self) -> AdviceUnit {
        match *self {
            Advice::WillNeed(u)
            | Advice::WontNeed(u)
            | Advice::Pin(u)
            | Advice::Unpin(u)
            | Advice::Release(u) => u,
        }
    }

    /// The same directive about `unit` — how a machine lowers advice on
    /// a user's segment onto the pages or chunks it is made of.
    #[must_use]
    pub fn with_unit(self, unit: AdviceUnit) -> Advice {
        match self {
            Advice::WillNeed(_) => Advice::WillNeed(unit),
            Advice::WontNeed(_) => Advice::WontNeed(unit),
            Advice::Pin(_) => Advice::Pin(unit),
            Advice::Unpin(_) => Advice::Unpin(unit),
            Advice::Release(_) => Advice::Release(unit),
        }
    }
}

impl fmt::Display for Advice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Advice::WillNeed(u) => write!(f, "will-need {u}"),
            Advice::WontNeed(u) => write!(f, "wont-need {u}"),
            Advice::Pin(u) => write!(f, "pin {u}"),
            Advice::Unpin(u) => write!(f, "unpin {u}"),
            Advice::Release(u) => write!(f, "release {u}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_extraction() {
        let u = AdviceUnit::Page(PageNo(7));
        for a in [
            Advice::WillNeed(u),
            Advice::WontNeed(u),
            Advice::Pin(u),
            Advice::Unpin(u),
            Advice::Release(u),
        ] {
            assert_eq!(a.unit(), u);
            let lowered = a.with_unit(AdviceUnit::Segment(SegId(4)));
            assert_eq!(lowered.unit(), AdviceUnit::Segment(SegId(4)));
            assert_eq!(lowered.with_unit(u), a, "the directive itself is kept");
        }
    }

    #[test]
    fn display() {
        assert_eq!(
            Advice::WillNeed(AdviceUnit::Page(PageNo(3))).to_string(),
            "will-need p3"
        );
        assert_eq!(
            Advice::Release(AdviceUnit::Segment(SegId(1))).to_string(),
            "release s1"
        );
    }
}
