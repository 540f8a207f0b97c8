//! Core types for the Randell–Kuehner storage-allocation taxonomy.
//!
//! This crate contains the vocabulary shared by every other crate in the
//! workspace: address and name types, the four-axis classification of
//! dynamic storage allocation systems from the paper, predictive-advice
//! directives, simulated time, error types, and the event types that
//! workloads are expressed in.
//!
//! The paper's central observation is that hardware-assisted dynamic
//! storage allocation systems are usefully characterized by four largely
//! independent axes:
//!
//! 1. the **name space** offered to programs (linear, linearly segmented,
//!    symbolically segmented) — [`taxonomy::NameSpaceKind`];
//! 2. whether **predictive information** may be supplied — [`advice`];
//! 3. whether **artificial contiguity** (a mapping device) is provided —
//!    [`taxonomy::Contiguity`];
//! 4. the **uniformity of the unit of allocation** (paging vs.
//!    variable-size blocks) — [`taxonomy::AllocationUnit`].
//!
//! [`taxonomy::SystemCharacteristics`] bundles the four axes, and the
//! sibling crates provide the mechanisms and strategies each axis names.

pub mod access;
pub mod advice;
pub mod clock;
pub mod error;
pub mod ids;
pub mod sizeclass;
pub mod taxonomy;
