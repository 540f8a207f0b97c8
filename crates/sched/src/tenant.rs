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
//! hundred bytes. Backlogged tenants hold only the spec; the cursor is
//! built at first activation.

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
    /// References in the trace.
    #[must_use]
    pub fn len(&self) -> u64 {
        match self {
            TraceSpec::Pages(t) => t.len() as u64,
            TraceSpec::Stream { len, .. } => *len,
        }
    }

    /// Whether the trace is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The first `n` references, materialized — the sample the load
    /// controller feeds to the working-set estimator and the allotment
    /// picker. Cheap: `n` is a few hundred, not the trace length.
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
/// materialized trace or the live stream; either way `next` yields the
/// reference at the cursor and advances it.
#[derive(Clone, Debug)]
pub(crate) enum TraceCursor {
    Pages { trace: Vec<PageNo>, pos: usize },
    Stream { stream: RefStringStream, len: u64 },
}

impl TraceCursor {
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
            TraceCursor::Stream { stream, len } => {
                if RefStream::position(stream) >= *len {
                    return None;
                }
                stream.next().map(|a| PageNo(a.name.value()))
            }
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
        assert!(!spec.is_empty());
    }
}
