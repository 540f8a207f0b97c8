//! Multiprogramming and the space-time product.
//!
//! §Fetch Strategies: "A program which is awaiting arrival of a further
//! page will, unless extra page transmission is introduced, continue to
//! occupy working storage. Thus the space-time product will be affected
//! by the time taken to fetch pages ... A large space-time product will
//! not overly affect the performance (as opposed to utilization) of a
//! system if the time spent on fetching pages can normally be overlapped
//! with the execution of other programs." Figure 3 draws the
//! single-program picture; the M44/44X appendix describes the
//! round-robin overlap that rescues it.
//!
//! [`event::EventSim`] is the one simulator of that setting: one
//! processor, a round-robin ready queue, demand-paged tenants, and a
//! page-fetch latency during which other tenants run — an event-driven
//! design that jumps blocked time through a wake-ordered queue and
//! keeps per-tenant state compact (stream recipes and LRU summaries
//! instead of materialized traces and full paging engines), so the same
//! code runs a mix of four and a population of 100k. It is used three
//! ways:
//!
//! * **a fixed mix in private quotas** ([`admission::AdmissionPolicy::Fixed`]):
//!   per-tenant local replacement, the report's space-time product
//!   split into active/waiting/ready components, and overall CPU
//!   utilization — everything experiment E2 needs to regenerate
//!   Figure 3 and its multiprogrammed rescue;
//! * **a shared pool** ([`event::EventSim::with_shared_pool`]) for the
//!   paper's conclusion (i): admitted tenants steal frames from each
//!   other under global LRU, and the admission policy is the
//!   integration point between processor scheduling and storage
//!   allocation — admit everything and thrash, or admit by working-set
//!   estimate and run in shifts (experiment E16);
//! * **a population under load control** ([`admission`]): working-set
//!   admission from sampled estimates, online allotments from a
//!   truncated LRU stack, and the degradation ladder's swap-out as the
//!   final rung, at 100k+ tenants (experiment E22).

pub mod admission;
pub mod event;
pub mod sim;
pub mod tenant;
pub mod vclock;
mod wake;

pub use admission::{estimate_ws, AdmissionPolicy, LoadControlCfg};
pub use event::{EventReport, EventSim, TenantReport};
pub use sim::SimConfig;
pub use tenant::{TenantSpec, TraceSpec};
