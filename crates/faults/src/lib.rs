//! Deterministic fault injection and recovery policies.
//!
//! The paper's systems assume hardware that fails and traps: parity and
//! transfer errors on drum and disc channels, invalid-access trapping
//! (special hardware facility (v)), storage exhaustion that ATLAS and
//! the M44/44X had to survive rather than crash on. This crate makes
//! those failures first-class, injectable, and recoverable:
//!
//! * [`FaultInjector`] — a seed-driven source of simulated hardware
//!   failures: failed transfers, bad page frames, stalled channels, and
//!   refused allocations, with per-mode rates ([`FaultConfig`]). Same
//!   seed, same schedule — every run is exactly reproducible.
//! * [`RetryPolicy`] — bounded retry with exponential backoff, in
//!   simulated cycles, for transient transfer errors.
//! * [`RecoveryReport`] — end-of-run accounting of every injection and
//!   every recovery action, reconciling exactly with the probe layer's
//!   `CountingProbe` totals.
//!
//! The graceful-degradation ladder itself (coalesce → compact → evict →
//! shed load → typed error) lives where the storage is: the segment
//! store and paging engine climb the rungs; this crate defines the
//! vocabulary ([`ladder::DegradationStep`], the shared rung enum both
//! the machine drivers and the concurrent arena's overload guard report
//! through) and the accounting. For `std::thread::scope` workers the
//! [`SyncFaultInjector`] hands out deterministic per-stream
//! [`WorkerInjector`]s whose merged report is identical at any thread
//! count.

pub mod config;
pub mod injector;
pub mod ladder;
pub mod report;
pub mod retry;
pub mod sync;

pub use config::FaultConfig;
pub use injector::FaultInjector;
pub use report::RecoveryReport;
pub use retry::RetryPolicy;
pub use sync::{SyncFaultInjector, WorkerInjector};
