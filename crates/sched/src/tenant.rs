//! Compact per-tenant state for the population-scale simulator.
//!
//! A materialized `Vec<PageNo>` trace and a full
//! [`dsa_paging::paged::PagedMemory`] per tenant are fine for a mix of
//! ten, fatal for a population of 100k. A [`TenantSpec`] can instead
//! name its reference string by *recipe* ([`TraceSpec::Stream`]: a
//! seedable [`RefStringCfg`] plus a length, drawn one reference at a
//! time in constant memory through `dsa-trace`'s exact-replay streams),
//! and the running state (a `TraceCursor` plus a
//! [`dsa_paging::compact::CompactLru`] resident-set summary) is a few
//! hundred bytes. Backlogged tenants hold only the spec. The cursor is
//! built at the tenant's first grant under working-set admission, whose
//! sample is the cursor's own head, and at first activation otherwise.

use dsa_core::ids::PageNo;
use dsa_trace::refstring::RefStringCfg;
use dsa_trace::stream::{RefStream, RefStringStream};

/// Where a tenant's reference string comes from.
#[derive(Clone, Debug)]
pub enum TraceSpec {
    /// A materialized page-granular trace (small mixes, parity tests).
    Pages(Vec<PageNo>),
    /// A stream recipe: `len` references drawn from
    /// `cfg.stream(write_fraction, seed)`. Constant memory at any
    /// length.
    Stream {
        /// The reference-string model.
        cfg: RefStringCfg,
        /// Write fraction passed to the stream (reads vs writes do not
        /// affect scheduling, but the draw is part of the replay
        /// contract).
        write_fraction: f64,
        /// Stream seed.
        seed: u64,
        /// References in the trace.
        len: u64,
    },
}

impl TraceSpec {
    // Callers count; none asks for emptiness, so there is no unused
    // `is_empty` beside it.
    /// References in the trace.
    #[must_use]
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> u64 {
        match self {
            TraceSpec::Pages(t) => t.len() as u64,
            TraceSpec::Stream { len, .. } => *len,
        }
    }

    /// The first `n` references, materialized — a sample to feed the
    /// working-set estimator and the allotment picker from outside the
    /// simulator. Cheap: `n` is a few hundred, not the trace length.
    /// The simulator does not call it: its sample is the head its trace
    /// cursor draws once and then serves.
    #[must_use]
    pub fn sample(&self, n: u64) -> Vec<PageNo> {
        match self {
            TraceSpec::Pages(t) => t[..t.len().min(n as usize)].to_vec(),
            TraceSpec::Stream {
                cfg,
                write_fraction,
                seed,
                len,
            } => cfg
                .stream(*write_fraction, *seed)
                .pages()
                .take((*len).min(n) as usize)
                .collect(),
        }
    }

    /// Builds the draw cursor, consuming the spec's trace storage.
    #[must_use]
    pub(crate) fn into_cursor(self) -> TraceCursor {
        match self {
            TraceSpec::Pages(trace) => TraceCursor::Pages { trace, pos: 0 },
            TraceSpec::Stream {
                cfg,
                write_fraction,
                seed,
                len,
            } => TraceCursor::Stream {
                stream: cfg.stream(write_fraction, seed),
                len,
                head: Vec::new().into_iter(),
            },
        }
    }
}

/// One tenant of the population.
#[derive(Clone, Debug)]
pub struct TenantSpec {
    /// Identifier used in reports and probe events.
    pub id: u32,
    /// The tenant's reference string.
    pub trace: TraceSpec,
    /// Upper bound on the tenant's frame allotment.
    pub quota: usize,
    /// Admission priority: higher admits first (ties by id).
    pub priority: u8,
    /// The tenant's working-set size in pages, when the caller has
    /// measured it (the storage side talking to the scheduling side).
    /// Working-set admission then claims this many frames, capped by
    /// `quota`, instead of estimating from a trace sample.
    pub ws_estimate: Option<usize>,
}

impl TenantSpec {
    /// A default-priority tenant.
    #[must_use]
    pub fn new(id: u32, trace: TraceSpec, quota: usize) -> TenantSpec {
        TenantSpec {
            id,
            trace,
            quota: quota.max(1),
            priority: 0,
            ws_estimate: None,
        }
    }
}

/// The position within a tenant's reference string. Holds either the
/// materialized trace or the live stream; either way `next_page` yields
/// the reference at the cursor and advances it.
#[derive(Clone, Debug)]
pub(crate) enum TraceCursor {
    Pages {
        trace: Vec<PageNo>,
        pos: usize,
    },
    Stream {
        stream: RefStringStream,
        len: u64,
        /// References [`TraceCursor::sample`] drew and the cursor has
        /// not served yet, in trace order.
        head: std::vec::IntoIter<PageNo>,
    },
}

impl TraceCursor {
    /// The first `min(len, n)` references, drawn once: a stream cursor
    /// keeps them and serves them before it draws again, and a `Pages`
    /// cursor lends its own prefix. Call it before the first
    /// `next_page`.
    pub(crate) fn sample(&mut self, n: u64) -> &[PageNo] {
        match self {
            TraceCursor::Pages { trace, .. } => &trace[..trace.len().min(n as usize)],
            TraceCursor::Stream { stream, len, head } => {
                debug_assert_eq!(RefStream::position(stream), 0, "a fresh cursor");
                let drawn: Vec<PageNo> = stream
                    .by_ref()
                    .take((*len).min(n) as usize)
                    .map(|a| PageNo(a.name.value()))
                    .collect();
                *head = drawn.into_iter();
                head.as_slice()
            }
        }
    }

    /// The next reference, or `None` at end of trace.
    pub(crate) fn next_page(&mut self) -> Option<PageNo> {
        match self {
            TraceCursor::Pages { trace, pos } => {
                let p = trace.get(*pos).copied();
                if p.is_some() {
                    *pos += 1;
                }
                p
            }
            TraceCursor::Stream { stream, len, head } => {
                if let Some(p) = head.next() {
                    if head.len() == 0 {
                        // The head is served: release its buffer.
                        *head = Vec::new().into_iter();
                    }
                    return Some(p);
                }
                if RefStream::position(stream) >= *len {
                    return None;
                }
                stream.next().map(|a| PageNo(a.name.value()))
            }
        }
    }
}

/// A tenant's reference string over its life: the recipe until the
/// cursor is built, the cursor while it runs, nothing once it finishes.
pub(crate) enum TraceState {
    Recipe(TraceSpec),
    Running(TraceCursor),
    Released,
}

impl TraceState {
    /// The cursor, built from the recipe on the first call; `None` once
    /// released.
    pub(crate) fn cursor(&mut self) -> Option<&mut TraceCursor> {
        if let TraceState::Recipe(spec) = self {
            let spec = std::mem::replace(spec, TraceSpec::Pages(Vec::new()));
            *self = TraceState::Running(spec.into_cursor());
        }
        match self {
            TraceState::Running(cursor) => Some(cursor),
            _ => None,
        }
    }

    /// The next reference; `None` unless the cursor runs and has one.
    pub(crate) fn next_page(&mut self) -> Option<PageNo> {
        match self {
            TraceState::Running(cursor) => cursor.next_page(),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_spec_and_pages_spec_agree() {
        let cfg = RefStringCfg::Uniform { pages: 8 };
        let spec = TraceSpec::Stream {
            cfg: cfg.clone(),
            write_fraction: 0.0,
            seed: 7,
            len: 50,
        };
        let materialized: Vec<PageNo> = cfg.stream(0.0, 7).pages().take(50).collect();
        assert_eq!(spec.len(), 50);
        assert_eq!(spec.sample(10), materialized[..10]);
        let mut cursor = spec.into_cursor();
        let mut drawn = Vec::new();
        while let Some(p) = cursor.next_page() {
            drawn.push(p);
        }
        assert_eq!(drawn, materialized);
    }

    #[test]
    fn pages_cursor_stops_at_end() {
        let spec = TraceSpec::Pages(vec![PageNo(1), PageNo(2)]);
        let mut c = spec.into_cursor();
        assert_eq!(c.next_page(), Some(PageNo(1)));
        assert_eq!(c.next_page(), Some(PageNo(2)));
        assert_eq!(c.next_page(), None);
        assert_eq!(c.next_page(), None);
    }

    #[test]
    fn sample_is_clamped_to_the_trace() {
        let spec = TraceSpec::Pages(vec![PageNo(3); 4]);
        assert_eq!(spec.sample(100).len(), 4);
    }

    fn drain(cursor: &mut TraceCursor) -> Vec<PageNo> {
        std::iter::from_fn(|| cursor.next_page()).collect()
    }

    #[test]
    fn a_sampled_cursor_serves_its_head_then_the_rest_of_the_stream() {
        let cfg = RefStringCfg::WorkingSetPhases {
            pages: 16,
            set: 8,
            phase_len: 80,
        };
        let ws_sample = 256;
        // Below, at and just past the sample, far past it, and empty.
        for len in [0, 1, 120, 255, 256, 257, 600] {
            let spec = TraceSpec::Stream {
                cfg: cfg.clone(),
                write_fraction: 0.0,
                seed: 1967 + len,
                len,
            };
            let fresh: Vec<PageNo> = cfg
                .stream(0.0, 1967 + len)
                .pages()
                .take(len as usize)
                .collect();
            let mut cursor = spec.clone().into_cursor();
            let head = cursor.sample(ws_sample).to_vec();
            assert_eq!(head, spec.sample(ws_sample), "len {len}");
            assert_eq!(head.len() as u64, len.min(ws_sample));
            assert_eq!(drain(&mut cursor), fresh, "len {len}");
            assert_eq!(cursor.next_page(), None);
        }
    }

    #[test]
    fn a_served_head_is_released() {
        let spec = TraceSpec::Stream {
            cfg: RefStringCfg::Uniform { pages: 8 },
            write_fraction: 0.0,
            seed: 3,
            len: 10,
        };
        let mut cursor = spec.into_cursor();
        assert_eq!(cursor.sample(4).len(), 4);
        for _ in 0..4 {
            cursor.next_page();
        }
        let TraceCursor::Stream { head, .. } = &cursor else {
            unreachable!("a stream spec builds a stream cursor")
        };
        // No buffer left: the pointer an empty `Vec` holds.
        let unallocated = std::ptr::NonNull::<PageNo>::dangling().as_ptr();
        assert_eq!(head.as_slice().as_ptr(), unallocated.cast_const());
        assert_eq!(drain(&mut cursor).len(), 6);
    }

    #[test]
    fn a_pages_cursor_lends_its_own_prefix() {
        let trace: Vec<PageNo> = (0..10).map(PageNo).collect();
        let mut cursor = TraceSpec::Pages(trace.clone()).into_cursor();
        let lent = cursor.sample(4);
        assert_eq!(lent, &trace[..4]);
        let lent = lent.as_ptr();
        let TraceCursor::Pages { trace: own, .. } = &cursor else {
            unreachable!("a pages spec builds a pages cursor")
        };
        assert_eq!(lent, own.as_ptr(), "lent, not copied");
        assert_eq!(cursor.sample(100), &trace[..]);
        assert_eq!(drain(&mut cursor), trace);
        let mut empty = TraceSpec::Pages(Vec::new()).into_cursor();
        assert!(empty.sample(8).is_empty());
        assert_eq!(empty.next_page(), None);
    }

    #[test]
    fn the_trace_runs_from_recipe_to_release() {
        let mut trace = TraceState::Recipe(TraceSpec::Pages(vec![PageNo(5), PageNo(6)]));
        assert_eq!(trace.next_page(), None, "a recipe draws nothing");
        assert_eq!(trace.cursor().map(|c| c.sample(8).len()), Some(2));
        assert_eq!(trace.next_page(), Some(PageNo(5)));
        // A second call finds the running cursor, not a fresh one.
        assert_eq!(
            trace.cursor().and_then(TraceCursor::next_page),
            Some(PageNo(6))
        );
        assert_eq!(trace.next_page(), None);
        trace = TraceState::Released;
        assert!(trace.cursor().is_none());
        assert_eq!(trace.next_page(), None);
    }
}
