//! The flight recorder: last-N probe events, always on, lock-free.
//!
//! An aircraft flight recorder does not stream telemetry to the ground;
//! it keeps the recent past in a crash-survivable loop so the
//! investigation can replay the final minutes. This is the software
//! analogue for the allocation machines: every thread records its probe
//! events into its own fixed-capacity ring of fixed-width slots —
//! no locks, no allocation, a handful of relaxed atomic stores per
//! event — and when something goes wrong (`ArenaError::Exhausted`, an
//! injected fault, a degradation rung) the rings are merged into one
//! chronological tail and dumped as the postmortem.
//!
//! # Encoding
//!
//! Each event is packed into `WORDS_PER_SLOT` `u64` words: a global
//! sequence number, the kind's `[tag, a, b]` words (`dsa-probe`'s event
//! table packs them and unpacks them strictly, so a corrupt slot is
//! dropped, never misread), and the dual timestamp (cycles as
//! nanoseconds, reference time). The sequence number is drawn from one
//! shared relaxed `fetch_add`, which gives a total order over all
//! threads' events that is consistent with each thread's program order —
//! that order *is* the chronology the merged drain sorts by.
//!
//! # Ordering correctness
//!
//! A slot is written payload-first (relaxed), sequence-word last
//! (release), after first clearing the sequence word; the drain reads
//! the sequence word (acquire), then the payload, then re-reads the
//! sequence word and discards the slot if it changed — a per-slot
//! seqlock. Every access is an atomic, so a racing drain can *miss* an
//! event being overwritten but can never observe a torn one or invoke
//! undefined behaviour. After the emitting threads have joined (or from
//! the faulting thread itself, whose own ring is quiescent), the drain
//! is exact and lossless up to each ring's capacity.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use dsa_core::clock::Cycles;
use dsa_metrics::Table;
use dsa_probe::{Event, Probe};

/// `u64` words per encoded event: sequence, tag, two payloads, cycles
/// (ns), reference time.
pub(crate) const WORDS_PER_SLOT: usize = 6;

/// One thread's ring: `capacity * WORDS_PER_SLOT` atomic words plus the
/// monotone write head. Written only by the owning handle; read by any
/// drain.
struct Ring {
    slots: Vec<AtomicU64>,
    head: AtomicU64,
}

impl Ring {
    fn new(capacity: usize) -> Ring {
        Ring {
            slots: (0..capacity * WORDS_PER_SLOT)
                .map(|_| AtomicU64::new(0))
                .collect(),
            head: AtomicU64::new(0),
        }
    }

    fn capacity(&self) -> usize {
        self.slots.len() / WORDS_PER_SLOT
    }

    /// Writes one record (every slot word but the sequence); called
    /// only by the owning handle's thread.
    fn write(&self, seq: u64, record: [u64; WORDS_PER_SLOT - 1]) {
        let cap = self.capacity();
        let head = self.head.load(Ordering::Relaxed);
        let base = (head as usize % cap) * WORDS_PER_SLOT;
        // Invalidate, fill payload, publish: a concurrent drain either
        // sees seq=0 (skips), the old record (re-check catches the
        // overwrite), or the complete new record.
        self.slots[base].store(0, Ordering::Release);
        for (slot, word) in self.slots[base + 1..base + WORDS_PER_SLOT]
            .iter()
            .zip(record)
        {
            slot.store(word, Ordering::Relaxed);
        }
        self.slots[base].store(seq, Ordering::Release);
        self.head.store(head + 1, Ordering::Relaxed);
    }

    /// Best-effort read of every retained record as `(seq, event)`.
    fn read_all(&self, out: &mut Vec<(u64, Event)>) {
        for slot in self.slots.chunks_exact(WORDS_PER_SLOT) {
            let seq = slot[0].load(Ordering::Acquire);
            if seq == 0 {
                continue;
            }
            let [tag, a, b, cycles, vtime] =
                std::array::from_fn(|i| slot[i + 1].load(Ordering::Relaxed));
            // Seqlock re-check: drop the slot if a writer moved under us.
            if slot[0].load(Ordering::Acquire) != seq {
                continue;
            }
            if let Ok(kind) = [tag, a, b].try_into() {
                out.push((
                    seq,
                    Event {
                        kind,
                        cycles: Cycles::from_nanos(cycles),
                        vtime,
                    },
                ));
            }
        }
    }
}

/// The per-thread recording endpoint: a [`Probe`] that writes into its
/// own ring. Create one per emitting thread via
/// [`FlightRecorder::handle`]; the handle is `Send` and owns no lock.
pub struct FlightHandle {
    ring: Arc<Ring>,
    seq: Arc<AtomicU64>,
}

impl Probe for FlightHandle {
    fn record(&mut self, event: &Event) {
        // The +1 keeps 0 free as the "never written" marker.
        let seq = self.seq.fetch_add(1, Ordering::Relaxed) + 1;
        let [tag, a, b] = event.kind.into();
        self.ring
            .write(seq, [tag, a, b, event.cycles.as_nanos(), event.vtime]);
    }
}

impl std::fmt::Debug for FlightHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightHandle")
            .field("capacity", &self.ring.capacity())
            .finish()
    }
}

/// The always-on last-N-events recorder: hands out per-thread
/// [`FlightHandle`]s and merges their rings chronologically on demand.
///
/// # Examples
///
/// ```
/// use dsa_probe::{EventKind, Probe, Stamp};
/// use dsa_telemetry::FlightRecorder;
///
/// let recorder = FlightRecorder::new(64);
/// let mut h = recorder.handle();
/// h.emit(EventKind::Fault, Stamp::vtime(10));
/// h.emit(EventKind::Advice, Stamp::vtime(11));
/// let tail = recorder.drain();
/// assert_eq!(tail.len(), 2);
/// assert_eq!(tail[0].kind, EventKind::Fault);
/// ```
pub struct FlightRecorder {
    rings: Mutex<Vec<Arc<Ring>>>,
    seq: Arc<AtomicU64>,
    capacity: usize,
}

impl FlightRecorder {
    /// A recorder whose every per-thread ring retains the thread's last
    /// `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> FlightRecorder {
        assert!(capacity > 0, "a flight recorder needs at least one slot");
        FlightRecorder {
            rings: Mutex::new(Vec::new()),
            seq: Arc::new(AtomicU64::new(0)),
            capacity,
        }
    }

    /// Total events recorded through all handles so far (including
    /// those already overwritten in their rings).
    #[must_use]
    pub fn events_seen(&self) -> u64 {
        self.seq.load(Ordering::Relaxed)
    }

    /// Registers a new per-thread ring and returns its recording
    /// handle. The registry lock is taken here and in
    /// [`FlightRecorder::drain`] only — never on the event path.
    #[must_use]
    pub fn handle(&self) -> FlightHandle {
        let ring = Arc::new(Ring::new(self.capacity));
        self.rings
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push(Arc::clone(&ring));
        FlightHandle {
            ring,
            seq: Arc::clone(&self.seq),
        }
    }

    /// Merges every ring's retained events into one chronological
    /// sequence (oldest first). Exact after the emitting threads have
    /// joined; best-effort (never torn) while they are still running.
    #[must_use]
    pub fn drain(&self) -> Vec<Event> {
        self.drain_numbered().into_iter().map(|(_, e)| e).collect()
    }

    /// [`FlightRecorder::drain`], each event with its 1-based place in
    /// everything recorded.
    fn drain_numbered(&self) -> Vec<(u64, Event)> {
        let rings = self
            .rings
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let mut tagged: Vec<(u64, Event)> = Vec::new();
        for ring in rings.iter() {
            ring.read_all(&mut tagged);
        }
        drop(rings);
        tagged.sort_by_key(|&(seq, _)| seq);
        tagged
    }

    /// The last `n` events across all threads as a postmortem table,
    /// one row per event: its place in everything recorded (so the
    /// last row's `seq` counts every event, overwritten ones too),
    /// reference time, machine time, and the decoded event.
    #[must_use]
    pub fn postmortem(&self, n: usize) -> Table {
        let events = self.drain_numbered();
        let mut t = Table::new(&["seq", "vtime", "cycles_ns", "event"]);
        for (seq, e) in &events[events.len().saturating_sub(n)..] {
            t.row_owned(vec![
                seq.to_string(),
                e.vtime.to_string(),
                e.cycles.as_nanos().to_string(),
                format!("{:?}", e.kind),
            ]);
        }
        t
    }
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("capacity", &self.capacity)
            .field("events_seen", &self.events_seen())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsa_probe::{DegradationStep, EventKind, InjectedFault, Stamp};

    /// Every kind the table unpacks from payload words below 8 or at a
    /// field type's largest value: each row, flag, mode and rung.
    fn every_kind() -> Vec<EventKind> {
        let words = [0, 1, 2, 3, 4, 5, 6, 7, u64::from(u32::MAX), u64::MAX];
        (0..EventKind::KINDS)
            .flat_map(|tag| {
                words
                    .into_iter()
                    .flat_map(move |a| words.map(|b| [tag, a, b]))
            })
            .filter_map(|slot| EventKind::try_from(slot).ok())
            .collect()
    }

    #[test]
    fn a_corrupt_slot_is_dropped_not_misread() {
        let tag = |kind: EventKind| <[u64; 3]>::from(kind)[0];
        let fault = tag(EventKind::FaultInjected {
            fault: InjectedFault::BadFrame,
        });
        let step = tag(EventKind::DegradationStep {
            step: DegradationStep::Compact,
        });
        let retry = tag(EventKind::RetryAttempt { attempt: 1 });
        let ring = Ring::new(4);
        // One past the last fault mode, one past the last rung, one
        // past `u32::MAX`.
        for (seq, [tag, a]) in (1..).zip([[fault, 5], [step, 7], [retry, 1 << 32]]) {
            ring.write(seq, [tag, a, 0, 0, 0]);
        }
        let mut read = Vec::new();
        ring.read_all(&mut read);
        assert!(read.is_empty(), "{read:?}");
    }

    #[test]
    fn drain_is_chronological_and_lossless_under_capacity() {
        let kinds = every_kind();
        let rec = FlightRecorder::new(kinds.len());
        let mut h = rec.handle();
        for (i, &kind) in kinds.iter().enumerate() {
            h.emit(kind, Stamp::at(Cycles::from_nanos(i as u64 * 10), i as u64));
        }
        let drained = rec.drain();
        assert_eq!(drained.len(), kinds.len());
        for (i, (got, &want)) in drained.iter().zip(&kinds).enumerate() {
            assert_eq!(got.kind, want, "event {i}");
            assert_eq!(got.vtime, i as u64);
            assert_eq!(got.cycles.as_nanos(), i as u64 * 10);
        }
    }

    #[test]
    fn ring_keeps_only_the_last_capacity_events() {
        let rec = FlightRecorder::new(8);
        let mut h = rec.handle();
        for i in 0..100u64 {
            h.emit(EventKind::Free { words: i }, Stamp::vtime(i));
        }
        let drained = rec.drain();
        assert_eq!(drained.len(), 8);
        let words: Vec<u64> = drained
            .iter()
            .map(|e| match e.kind {
                EventKind::Free { words } => words,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(words, (92..100).collect::<Vec<u64>>());
        assert_eq!(rec.events_seen(), 100);
    }

    #[test]
    fn multi_thread_drain_merges_chronologically() {
        let rec = FlightRecorder::new(1024);
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let mut h = rec.handle();
                scope.spawn(move || {
                    for i in 0..200u64 {
                        h.emit(
                            EventKind::Alloc {
                                words: t,
                                searched: i,
                            },
                            Stamp::vtime(i),
                        );
                    }
                });
            }
        });
        let drained = rec.drain();
        assert_eq!(drained.len(), 800);
        // Per-thread order is preserved inside the merged chronology.
        for t in 0..4u64 {
            let searches: Vec<u64> = drained
                .iter()
                .filter_map(|e| match e.kind {
                    EventKind::Alloc { words, searched } if words == t => Some(searched),
                    _ => None,
                })
                .collect();
            assert_eq!(searches, (0..200).collect::<Vec<u64>>(), "thread {t}");
        }
    }

    #[test]
    fn postmortem_formats_the_tail() {
        let rec = FlightRecorder::new(16);
        let mut h = rec.handle();
        for i in 0..5u64 {
            h.emit(EventKind::Fault, Stamp::vtime(i));
        }
        let dump = rec.postmortem(3);
        let seqs: Vec<&str> = dump.rows().iter().map(|r| r[0].as_str()).collect();
        assert_eq!(seqs, ["3", "4", "5"], "{dump}");
        assert!(dump.rows().iter().all(|r| r[3] == "Fault"), "{dump}");
    }
}
