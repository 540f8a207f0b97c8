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
//! [`sim::MultiprogramSim`] is a discrete-event simulator of exactly
//! that setting: one processor, a round-robin ready queue, per-job
//! demand-paged working sets with local replacement, and a page-fetch
//! latency during which other jobs run. It reports per-job space-time
//! products split into active/waiting/ready components and overall CPU
//! utilization — everything experiment E2 needs to regenerate Figure 3
//! and its multiprogrammed rescue.
//!
//! [`load_control::GlobalMultiprogramSim`] goes one step further for the
//! paper's conclusion (i): admitted jobs page against a *shared* frame
//! pool, and the admission policy is the integration point between
//! processor scheduling and storage allocation — admit everything and
//! thrash, or admit by working-set estimate and run in shifts
//! (experiment E16).
//!
//! [`event::EventSim`] is the population-scale version of the same
//! story: an event-driven rebuild that jumps blocked time through a
//! wake-ordered event queue, keeps per-tenant state compact (stream
//! recipes and LRU summaries instead of materialized traces and full
//! paging engines), and layers load control on top — working-set
//! admission ([`admission`]), online allotments from a truncated LRU
//! stack, and the degradation ladder's swap-out as the final rung. It
//! scales to 100k+ tenants (experiment E22) while staying
//! report-identical to [`sim::MultiprogramSim`] in
//! [`admission::AdmissionPolicy::Fixed`] mode.

pub mod admission;
pub mod event;
pub mod load_control;
pub mod sim;
pub mod sweep;
pub mod tenant;
pub mod vclock;
mod wake;

pub use admission::{estimate_ws, pick_allotment, AdmissionPolicy, LoadControlCfg};
pub use event::{EventReport, EventSim, TenantReport};
pub use load_control::{Admission, GlobalJobSpec, GlobalMultiprogramSim, GlobalReport};
pub use sim::{JobReport, JobSpec, MultiprogramSim, SimConfig, SimReport};
pub use sweep::{admission_sweep, level_sweep, tenant_sweep, SweepCell, SweepPoint};
pub use tenant::{TenantSpec, TraceSpec};
pub use vclock::VClock;
