//! The four-axis classification of dynamic storage allocation systems.
//!
//! Section "Basic Characteristics of Dynamic Storage Allocation Systems"
//! of the paper identifies four characteristics that are "to a large
//! degree, mutually independent" and collectively reveal the functional
//! capability and underlying mechanism of a system:
//!
//! | Axis | Type |
//! |---|---|
//! | Name space | [`NameSpaceKind`] |
//! | Predictive information | [`PredictiveInfo`] |
//! | Artificial contiguity | [`Contiguity`] |
//! | Uniformity of unit of allocation | [`AllocationUnit`] |
//!
//! [`SystemCharacteristics`] bundles one choice on each axis; the
//! `dsa-machines` crate instantiates it for each machine in the paper's
//! appendix, and experiment E9 prints the resulting comparative table.

use core::fmt;

use crate::ids::Words;

/// The structure of the set of names a program may use.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum NameSpaceKind {
    /// Permissible names are the integers `0..extent`. The IBM 7094 and
    /// the Ferranti ATLAS provide linear name spaces.
    Linear {
        /// Number of names in the space.
        extent: Words,
    },
    /// A set of separate linear name spaces, where segment names are
    /// themselves drawn from a linear space (a bit field at the most
    /// significant end of the address representation): the IBM 360/67,
    /// and — by mechanism, though not by convention — MULTICS.
    ///
    /// Because segment names are ordered and manipulable, the segment
    /// dictionary suffers the same contiguous-allocation problems as any
    /// linear space (see experiment E10).
    LinearlySegmented {
        /// Maximum number of segments (e.g. 16 for the 24-bit 360/67).
        max_segments: u32,
        /// Maximum extent of one segment, in words.
        max_segment_extent: Words,
    },
    /// A set of separate linear name spaces where segments are named
    /// symbolically and are in no sense ordered: the Burroughs B5000.
    /// No name contiguity exists among segment names, so the dictionary
    /// never fragments and names never need reallocation.
    SymbolicallySegmented {
        /// Maximum extent of one segment, in words (1024 on the B5000;
        /// unbounded-by-representation elsewhere).
        max_segment_extent: Words,
    },
}

impl NameSpaceKind {
    /// A short label used in survey tables.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            NameSpaceKind::Linear { .. } => "linear",
            NameSpaceKind::LinearlySegmented { .. } => "linearly segmented",
            NameSpaceKind::SymbolicallySegmented { .. } => "symbolically segmented",
        }
    }
}

impl fmt::Display for NameSpaceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NameSpaceKind::Linear { extent } => write!(f, "linear ({extent} words)"),
            NameSpaceKind::LinearlySegmented {
                max_segments,
                max_segment_extent,
            } => write!(
                f,
                "linearly segmented ({max_segments} segs x {max_segment_extent} words)"
            ),
            NameSpaceKind::SymbolicallySegmented { max_segment_extent } => {
                write!(
                    f,
                    "symbolically segmented (seg <= {max_segment_extent} words)"
                )
            }
        }
    }
}

/// Whether, and from where, the system accepts predictions about future
/// storage use.
///
/// The paper stresses that accepting predictions "is not the same as
/// having the programs incorporate an explicit storage allocation
/// strategy": directives are essentially advisory, and — in the authors'
/// opinion — general performance should not depend on them.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PredictiveInfo {
    /// No predictive directives are accepted.
    None,
    /// Advisory directives may be supplied by the programmer (M44/44X
    /// "will shortly be needed" / "not needed for some time"; MULTICS
    /// keep-resident / fetch-soon / release).
    Advisory,
    /// Predictions are produced by the compiler for every program, which
    /// the paper notes changes the trust calculus ("achieved by
    /// legislation, or by an authoritarian operating system") — the
    /// ACSI-MATIC program-description model.
    Compiler,
}

impl PredictiveInfo {
    /// A short label used in survey tables.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            PredictiveInfo::None => "none",
            PredictiveInfo::Advisory => "advisory",
            PredictiveInfo::Compiler => "compiler",
        }
    }
}

impl fmt::Display for PredictiveInfo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Whether a mapping device provides name contiguity without address
/// contiguity.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Contiguity {
    /// Name contiguity requires underlying address contiguity: a
    /// contiguous group of names occupies a contiguous block of
    /// locations (B5000, Rice).
    Physical,
    /// A mapping function in the addressing path lets a set of separate
    /// physical blocks appear as one contiguous run of names (ATLAS was
    /// the first such system); almost invariably exploited to disguise
    /// the actual extent of physical working storage ("virtual storage").
    Artificial,
}

impl Contiguity {
    /// A short label used in survey tables.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Contiguity::Physical => "physical",
            Contiguity::Artificial => "artificial",
        }
    }
}

impl fmt::Display for Contiguity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The unit in which blocks of contiguous working storage are allocated.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum AllocationUnit {
    /// All units are page frames of one size ("paging systems": ATLAS at
    /// 512 words, M44/44X at a start-up-selectable size).
    Uniform {
        /// The page-frame size, in words.
        page_size: Words,
    },
    /// A small fixed set of frame sizes (MULTICS: 64 and 1024 words) —
    /// commonly still called paging, but, the paper notes, such a system
    /// "has to contain provisions for dealing with the storage
    /// fragmentation problem".
    MultiSize {
        /// The permitted frame sizes, in words, in increasing order.
        sizes: Vec<Words>,
    },
    /// The unit of allocation directly reflects the allocation request
    /// (B5000, Rice): external fragmentation becomes directly apparent,
    /// and placement/compaction strategies matter.
    Variable,
}

impl AllocationUnit {
    /// A short label used in survey tables.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            AllocationUnit::Uniform { .. } => "uniform (paged)",
            AllocationUnit::MultiSize { .. } => "multi-size pages",
            AllocationUnit::Variable => "variable",
        }
    }
}

impl fmt::Display for AllocationUnit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AllocationUnit::Uniform { page_size } => write!(f, "uniform {page_size}-word pages"),
            AllocationUnit::MultiSize { sizes } => {
                write!(f, "pages of ")?;
                for (i, s) in sizes.iter().enumerate() {
                    if i > 0 {
                        write!(f, "/")?;
                    }
                    write!(f, "{s}")?;
                }
                write!(f, " words")
            }
            AllocationUnit::Variable => write!(f, "variable (request-sized)"),
        }
    }
}

/// A point in the paper's four-dimensional design space.
///
/// # Examples
///
/// The combination the authors themselves favour (conclusion of the
/// "Basic Characteristics" section):
///
/// ```
/// use dsa_core::taxonomy::*;
///
/// let favoured = SystemCharacteristics {
///     name_space: NameSpaceKind::SymbolicallySegmented { max_segment_extent: u64::MAX },
///     predictive: PredictiveInfo::Advisory,
///     contiguity: Contiguity::Artificial,
///     unit: AllocationUnit::Variable,
/// };
/// assert_eq!(favoured.name_space.label(), "symbolically segmented");
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SystemCharacteristics {
    /// Axis 1: the name space offered to programs.
    pub name_space: NameSpaceKind,
    /// Axis 2: acceptance of predictive information.
    pub predictive: PredictiveInfo,
    /// Axis 3: artificial contiguity.
    pub contiguity: Contiguity,
    /// Axis 4: uniformity of the unit of allocation.
    pub unit: AllocationUnit,
}

impl SystemCharacteristics {
    /// Renders the characteristics as four `label: value` lines, the
    /// format used by the machine-survey experiment (E9).
    #[must_use]
    pub fn describe(&self) -> String {
        format!(
            "name space:  {}\npredictive:  {}\ncontiguity:  {}\nalloc unit:  {}",
            self.name_space, self.predictive, self.contiguity, self.unit
        )
    }
}

impl fmt::Display for SystemCharacteristics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{} | {} | {} | {}]",
            self.name_space.label(),
            self.predictive.label(),
            self.contiguity.label(),
            self.unit.label()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b5000() -> SystemCharacteristics {
        SystemCharacteristics {
            name_space: NameSpaceKind::SymbolicallySegmented {
                max_segment_extent: 1024,
            },
            predictive: PredictiveInfo::None,
            contiguity: Contiguity::Physical,
            unit: AllocationUnit::Variable,
        }
    }

    #[test]
    fn display_round_trip_contains_all_axes() {
        let c = b5000();
        let s = c.describe();
        assert!(s.contains("symbolically segmented"), "{s}");
        assert!(s.contains("none"), "{s}");
        assert!(s.contains("physical"), "{s}");
        assert!(s.contains("variable"), "{s}");
    }

    #[test]
    fn multi_size_display_lists_sizes() {
        let u = AllocationUnit::MultiSize {
            sizes: vec![64, 1024],
        };
        assert_eq!(u.to_string(), "pages of 64/1024 words");
    }

    #[test]
    fn compact_display() {
        let c = b5000();
        assert_eq!(
            c.to_string(),
            "[symbolically segmented | none | physical | variable]"
        );
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(Contiguity::Artificial.label(), "artificial");
        assert_eq!(PredictiveInfo::Compiler.label(), "compiler");
        assert_eq!(AllocationUnit::Variable.label(), "variable");
    }
}
