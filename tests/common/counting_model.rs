//! The reference counter: every event kind written out as one plain
//! `match`, the way `CountingProbe::record` was written before its
//! cells were generated from a table. The oracle
//! `properties_telemetry.rs` holds the generated sinks to; nothing
//! ships it.

use dsa::probe::{CountingProbe, DegradationStep, Event, EventKind, InjectedFault, Probe};

/// Tallies into a [`CountingProbe`]'s public fields, so the model's
/// totals compare against a generated sink's with `==`.
#[derive(Default)]
pub struct NaiveCounter(pub CountingProbe);

impl Probe for NaiveCounter {
    fn record(&mut self, event: &Event) {
        let c = &mut self.0;
        match event.kind {
            EventKind::Touch { write } => {
                c.touches += 1;
                if write {
                    c.writes += 1;
                }
            }
            EventKind::Fault => c.faults += 1,
            EventKind::FetchStart { .. } => c.fetch_starts += 1,
            EventKind::FetchDone { words } => {
                c.fetches += 1;
                c.fetched_words += words;
            }
            EventKind::Evict { dirty, words } => {
                c.evictions += 1;
                if dirty {
                    c.dirty_evictions += 1;
                }
                c.evicted_words += words;
            }
            EventKind::Writeback { words } => {
                c.writebacks += 1;
                c.writeback_words += words;
            }
            EventKind::Alloc { words, searched } => {
                c.allocs += 1;
                c.alloc_words += words;
                c.alloc_searched += searched;
            }
            EventKind::Free { words } => {
                c.frees += 1;
                c.freed_words += words;
            }
            EventKind::CompactionStart => {}
            EventKind::CompactionDone { moved_words } => {
                c.compactions += 1;
                c.compaction_moved_words += moved_words;
            }
            EventKind::Advice => c.advice += 1,
            EventKind::Prefetch { words } => {
                c.prefetches += 1;
                c.prefetched_words += words;
            }
            EventKind::BoundsTrap => c.bounds_traps += 1,
            EventKind::MapLookup { hit } => {
                c.map_lookups += 1;
                if hit {
                    c.map_hits += 1;
                } else {
                    c.map_misses += 1;
                }
            }
            EventKind::FaultInjected { fault } => {
                c.faults_injected += 1;
                match fault {
                    InjectedFault::TransferError => c.transfer_errors_injected += 1,
                    InjectedFault::BadFrame => c.bad_frames_injected += 1,
                    InjectedFault::ChannelDelay => c.channel_delays_injected += 1,
                    InjectedFault::AllocFailure => c.alloc_failures_injected += 1,
                    InjectedFault::ShardCorruption => c.shard_corruptions_injected += 1,
                }
            }
            EventKind::RetryAttempt { .. } => c.retry_attempts += 1,
            EventKind::FrameQuarantined => c.frames_quarantined += 1,
            EventKind::DegradationStep { step } => {
                c.degradation_steps += 1;
                if step == DegradationStep::ShedLoad {
                    c.shed_loads += 1;
                }
            }
            EventKind::QuotaDenied { .. } => c.quota_denials += 1,
            EventKind::AdmissionReject { .. } => c.admission_rejects += 1,
            EventKind::TenantShed { words, .. } => {
                c.tenants_shed += 1;
                c.tenant_shed_words += words;
            }
            EventKind::ShardQuarantined { .. } => c.shards_quarantined += 1,
            EventKind::ShardRestored { .. } => c.shards_restored += 1,
            EventKind::TenantAdmitted { .. } => c.tenants_admitted += 1,
            EventKind::TenantDeactivated { resident, .. } => {
                c.tenants_deactivated += 1;
                c.deactivated_resident_pages += u64::from(resident);
            }
            EventKind::WsEstimate { pages, .. } => {
                c.ws_estimates += 1;
                c.ws_estimate_pages += u64::from(pages);
            }
        }
    }
}
