//! Bounded in-memory event recorder with JSONL export.

use crate::{Event, Probe};
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;

/// Keeps the most recent `capacity` events in a ring buffer and
/// serializes them as JSON Lines — one object per event, e.g.
///
/// ```json
/// {"t_ns":123,"vt":45,"kind":"evict","dirty":true,"words":512}
/// ```
///
/// Serialization is hand-rolled: every field is a bool or an unsigned
/// integer, so no escaping or external dependency is needed. When the
/// buffer is full the oldest event is dropped and counted, so a bounded
/// recorder on an unbounded run keeps the tail of the trace.
#[derive(Clone, Debug)]
pub struct JsonlRecorder {
    events: VecDeque<Event>,
    capacity: usize,
    dropped: u64,
}

impl JsonlRecorder {
    /// `capacity` bounds the retained events (min 1).
    #[must_use]
    pub fn new(capacity: usize) -> JsonlRecorder {
        JsonlRecorder {
            events: VecDeque::new(),
            capacity: capacity.max(1),
            dropped: 0,
        }
    }

    // Callers count; none asks for emptiness, so there is no unused
    // `is_empty` beside it.
    #[must_use]
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Events discarded because the ring was full.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Renders the retained events as JSON Lines.
    #[must_use]
    pub(crate) fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.events.len() * 64);
        for e in &self.events {
            append_event(&mut out, e);
            out.push('\n');
        }
        out
    }

    /// Writes the JSONL trace to `path`.
    ///
    /// # Errors
    ///
    /// Propagates any I/O error from creating or writing the file.
    pub fn write_to(&self, path: &Path) -> std::io::Result<()> {
        let mut f = std::fs::File::create(path)?;
        f.write_all(self.to_jsonl().as_bytes())?;
        f.flush()
    }
}

/// One line: the stamp, the kind's label, then each payload field by
/// name, in declaration order.
fn append_event(out: &mut String, e: &Event) {
    let _ = write!(
        out,
        "{{\"t_ns\":{},\"vt\":{},\"kind\":\"{}\"",
        e.cycles.as_nanos(),
        e.vtime,
        e.kind.label()
    );
    e.kind.for_each_field(|name, value| {
        let _ = write!(out, ",\"{name}\":");
        value.write_json(out);
    });
    out.push('}');
}

impl Probe for JsonlRecorder {
    fn record(&mut self, event: &Event) {
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(*event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counting::every_kind;
    use crate::{DegradationStep, EventKind, InjectedFault, Stamp};
    use dsa_core::clock::Cycles;
    use std::collections::BTreeSet;

    #[test]
    fn every_kind_writes_one_line_under_its_own_label() {
        let mut r = JsonlRecorder::new(usize::MAX);
        let mut labels = BTreeSet::new();
        for kind in every_kind() {
            r.emit(kind, Stamp::vtime(0));
            labels.insert(kind.label());
        }
        assert_eq!(
            labels.len() as u64,
            EventKind::KINDS,
            "a label is used twice"
        );
        for (line, e) in r.to_jsonl().lines().zip(&r.events) {
            let mut fields = 0;
            e.kind.for_each_field(|_, _| fields += 1);
            let head = format!(r#"{{"t_ns":0,"vt":0,"kind":"{}""#, e.kind.label());
            assert!(line.starts_with(&head) && line.ends_with('}'), "{line}");
            // Crude well-formedness check in lieu of a JSON parser.
            assert_eq!(line.matches("\":").count(), 3 + fields, "{line}");
            assert_eq!(line.matches('"').count() % 2, 0, "{line}");
        }
    }

    /// One exact line per kind, every flag both ways, every fault and
    /// ladder mode: the bytes `--trace-out` writes.
    #[rustfmt::skip]
    const PINNED: [(EventKind, &str); 39] = [
        (EventKind::Touch { write: true }, r#"{"t_ns":123,"vt":45,"kind":"touch","write":true}"#),
        (EventKind::Touch { write: false }, r#"{"t_ns":123,"vt":45,"kind":"touch","write":false}"#),
        (EventKind::Fault, r#"{"t_ns":123,"vt":45,"kind":"fault"}"#),
        (EventKind::FetchStart { words: 512 }, r#"{"t_ns":123,"vt":45,"kind":"fetch_start","words":512}"#),
        (EventKind::FetchDone { words: 513 }, r#"{"t_ns":123,"vt":45,"kind":"fetch_done","words":513}"#),
        (EventKind::Evict { dirty: true, words: 64 }, r#"{"t_ns":123,"vt":45,"kind":"evict","dirty":true,"words":64}"#),
        (EventKind::Evict { dirty: false, words: 65 }, r#"{"t_ns":123,"vt":45,"kind":"evict","dirty":false,"words":65}"#),
        (EventKind::Writeback { words: 66 }, r#"{"t_ns":123,"vt":45,"kind":"writeback","words":66}"#),
        (EventKind::Alloc { words: 7, searched: 2 }, r#"{"t_ns":123,"vt":45,"kind":"alloc","words":7,"searched":2}"#),
        (EventKind::Free { words: 8 }, r#"{"t_ns":123,"vt":45,"kind":"free","words":8}"#),
        (EventKind::CompactionStart, r#"{"t_ns":123,"vt":45,"kind":"compaction_start"}"#),
        (EventKind::CompactionDone { moved_words: 3 }, r#"{"t_ns":123,"vt":45,"kind":"compaction_done","moved_words":3}"#),
        (EventKind::Advice, r#"{"t_ns":123,"vt":45,"kind":"advice"}"#),
        (EventKind::Prefetch { words: u64::MAX }, r#"{"t_ns":123,"vt":45,"kind":"prefetch","words":18446744073709551615}"#),
        (EventKind::BoundsTrap, r#"{"t_ns":123,"vt":45,"kind":"bounds_trap"}"#),
        (EventKind::MapLookup { hit: true }, r#"{"t_ns":123,"vt":45,"kind":"map_lookup","hit":true}"#),
        (EventKind::MapLookup { hit: false }, r#"{"t_ns":123,"vt":45,"kind":"map_lookup","hit":false}"#),
        (EventKind::FaultInjected { fault: InjectedFault::TransferError }, r#"{"t_ns":123,"vt":45,"kind":"fault_injected","fault":"transfer_error"}"#),
        (EventKind::FaultInjected { fault: InjectedFault::BadFrame }, r#"{"t_ns":123,"vt":45,"kind":"fault_injected","fault":"bad_frame"}"#),
        (EventKind::FaultInjected { fault: InjectedFault::ChannelDelay }, r#"{"t_ns":123,"vt":45,"kind":"fault_injected","fault":"channel_delay"}"#),
        (EventKind::FaultInjected { fault: InjectedFault::AllocFailure }, r#"{"t_ns":123,"vt":45,"kind":"fault_injected","fault":"alloc_failure"}"#),
        (EventKind::FaultInjected { fault: InjectedFault::ShardCorruption }, r#"{"t_ns":123,"vt":45,"kind":"fault_injected","fault":"shard_corruption"}"#),
        (EventKind::RetryAttempt { attempt: u32::MAX }, r#"{"t_ns":123,"vt":45,"kind":"retry_attempt","attempt":4294967295}"#),
        (EventKind::FrameQuarantined, r#"{"t_ns":123,"vt":45,"kind":"frame_quarantined"}"#),
        (EventKind::DegradationStep { step: DegradationStep::RetryBackoff }, r#"{"t_ns":123,"vt":45,"kind":"degradation_step","step":"retry_backoff"}"#),
        (EventKind::DegradationStep { step: DegradationStep::Coalesce }, r#"{"t_ns":123,"vt":45,"kind":"degradation_step","step":"coalesce"}"#),
        (EventKind::DegradationStep { step: DegradationStep::Compact }, r#"{"t_ns":123,"vt":45,"kind":"degradation_step","step":"compact"}"#),
        (EventKind::DegradationStep { step: DegradationStep::EvictVictims }, r#"{"t_ns":123,"vt":45,"kind":"degradation_step","step":"evict_victims"}"#),
        (EventKind::DegradationStep { step: DegradationStep::StealGlobal }, r#"{"t_ns":123,"vt":45,"kind":"degradation_step","step":"steal_global"}"#),
        (EventKind::DegradationStep { step: DegradationStep::ShedLoad }, r#"{"t_ns":123,"vt":45,"kind":"degradation_step","step":"shed_load"}"#),
        (EventKind::DegradationStep { step: DegradationStep::ShedTenant }, r#"{"t_ns":123,"vt":45,"kind":"degradation_step","step":"shed_tenant"}"#),
        (EventKind::QuotaDenied { tenant: 3 }, r#"{"t_ns":123,"vt":45,"kind":"quota_denied","tenant":3}"#),
        (EventKind::AdmissionReject { tenant: 4 }, r#"{"t_ns":123,"vt":45,"kind":"admission_reject","tenant":4}"#),
        (EventKind::TenantShed { tenant: 5, words: 256 }, r#"{"t_ns":123,"vt":45,"kind":"tenant_shed","tenant":5,"words":256}"#),
        (EventKind::ShardQuarantined { shard: 1 }, r#"{"t_ns":123,"vt":45,"kind":"shard_quarantined","shard":1}"#),
        (EventKind::ShardRestored { shard: 2 }, r#"{"t_ns":123,"vt":45,"kind":"shard_restored","shard":2}"#),
        (EventKind::TenantAdmitted { tenant: 6, frames: 12 }, r#"{"t_ns":123,"vt":45,"kind":"tenant_admitted","tenant":6,"frames":12}"#),
        (EventKind::TenantDeactivated { tenant: 6, resident: 7 }, r#"{"t_ns":123,"vt":45,"kind":"tenant_deactivated","tenant":6,"resident":7}"#),
        (EventKind::WsEstimate { tenant: 6, pages: 9 }, r#"{"t_ns":123,"vt":45,"kind":"ws_estimate","tenant":6,"pages":9}"#),
    ];

    #[test]
    fn every_kind_writes_its_pinned_line() {
        let mut r = JsonlRecorder::new(PINNED.len());
        for (kind, _) in PINNED {
            r.emit(kind, Stamp::at(Cycles::from_nanos(123), 45));
        }
        let want: String = PINNED.iter().map(|(_, line)| format!("{line}\n")).collect();
        assert_eq!(r.to_jsonl(), want);
    }

    #[test]
    fn ring_drops_oldest_and_counts() {
        let mut r = JsonlRecorder::new(2);
        for vt in 0..5u64 {
            r.emit(EventKind::Fault, Stamp::vtime(vt));
        }
        assert_eq!(r.len(), 2);
        assert_eq!(r.dropped(), 3);
        let kept: Vec<u64> = r.events.iter().map(|e| e.vtime).collect();
        assert_eq!(kept, vec![3, 4]);
    }

    #[test]
    fn writes_a_file() {
        let mut r = JsonlRecorder::new(4);
        r.emit(EventKind::Fault, Stamp::vtime(9));
        let path = std::env::temp_dir().join("dsa_probe_jsonl_test.jsonl");
        r.write_to(&path).expect("writable temp dir");
        let read = std::fs::read_to_string(&path).expect("just written");
        assert_eq!(read, r.to_jsonl());
        let _ = std::fs::remove_file(&path);
    }
}
