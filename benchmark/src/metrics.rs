//! The metrics this benchmark prints, declared once. `BENCHMARK.json`
//! lists the same names; a unit test holds the two together.

use std::collections::BTreeMap;

/// Which direction is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

pub struct Decl {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> Decl {
    Decl {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Decl {
    Decl {
        name,
        unit,
        better: Better::Higher,
    }
}

/// An end-to-end metric and the share (or absolute amount, whichever
/// is larger) by which it may get worse before `repeat` calls two runs
/// of the same code different.
pub struct EndToEnd {
    pub decl: Decl,
    pub bound: f64,
    pub slack: f64,
}

/// The end-to-end metrics `BENCHMARK.json` gates, measured with
/// tracing off.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        decl: higher("ops_per_s", "op/s"),
        bound: 0.25,
        slack: 0.0,
    },
    EndToEnd {
        decl: lower("cpu_ns_per_op", "ns"),
        bound: 0.25,
        slack: 0.0,
    },
    EndToEnd {
        decl: lower("peak_rss_mb", "MiB"),
        bound: 0.20,
        slack: 2.0,
    },
    EndToEnd {
        decl: lower("setup_s", "s"),
        bound: 0.25,
        slack: 0.05,
    },
];

/// The paper's cost, from the reports. Exact from a seed, so it is
/// compared for equality, never within a bound; see the README for why
/// it is listed with the per-layer metrics in `BENCHMARK.json`.
pub const MODEL_COST: Decl = lower("model_cost_per_op", "model-unit/op");

/// Operations whose outcome the workload forbids, over operations
/// attempted. The result line carries the two counts themselves.
pub const FAIL_RATIO: Decl = lower("fail_ratio", "failed/attempted");

/// Per-layer metrics, measured in the traced pass. Counts marked `*`
/// in the README repeat exactly from a seed.
pub const PER_LAYER: [Decl; 110] = [
    MODEL_COST,
    lower("trace.gen_ns_per_ref", "ns"),
    lower("trace.stream_ns_per_ref", "ns"),
    higher("trace.refs_generated", "count"),
    lower("trace.allocgen_ns_per_event", "ns"),
    higher("trace.alloc_events_generated", "count"),
    lower("trace.program_gen_ns_per_touch", "ns"),
    lower("stackdist.lru_ns_per_ref", "ns"),
    lower("stackdist.opt_ns_per_ref", "ns"),
    lower("stackdist.streaming_ns_per_ref", "ns"),
    higher("stackdist.refs", "count"),
    lower("paging.replay_ns_per_ref.min", "ns"),
    lower("paging.replay_ns_per_ref.lru", "ns"),
    lower("paging.replay_ns_per_ref.clock", "ns"),
    lower("paging.replay_ns_per_ref.fifo", "ns"),
    lower("paging.replay_ns_per_ref.class-random", "ns"),
    lower("paging.replay_ns_per_ref.random", "ns"),
    lower("paging.replay_ns_per_ref.atlas", "ns"),
    lower("paging.replay_ns_per_ref.lfu-aged", "ns"),
    lower("paging.streamed_ns_per_ref", "ns"),
    lower("paging.compact_touch_ns", "ns"),
    higher("paging.refs", "count"),
    lower("paging.faults", "count"),
    higher("paging.hit_ratio", "ratio"),
    higher("exec.grid_cells", "count"),
    lower("exec.grid_wall_ms", "ms"),
    lower("exec.grid_cpu_ms", "ms"),
    higher("exec.parallel_efficiency", "ratio"),
    lower("freelist.ns_per_op.first-fit", "ns"),
    lower("freelist.ns_per_op.next-fit", "ns"),
    lower("freelist.ns_per_op.best-fit", "ns"),
    lower("freelist.ns_per_op.worst-fit", "ns"),
    lower("freelist.ns_per_op.two-ends", "ns"),
    lower("freelist.ns_per_op.rice", "ns"),
    lower("freelist.ns_per_op.buddy", "ns"),
    lower("freelist.ns_per_op.segregated", "ns"),
    lower("freelist.steady_ns_per_op", "ns"),
    lower("freelist.critical_ns_per_op", "ns"),
    lower("freelist.probes_per_alloc", "probes"),
    lower("freelist.alloc_failures", "count"),
    higher("freelist.success_ratio", "ratio"),
    higher("freelist.coalesces", "count"),
    lower("freelist.compact_ns_per_word", "ns"),
    lower("freelist.words_moved", "words"),
    lower("mapping.translate_ns", "ns"),
    lower("mapping.map_cycles_per_touch", "cycles"),
    higher("mapping.assoc_hit_ratio", "ratio"),
    lower("seg.store_op_ns", "ns"),
    higher("seg.bounds_caught", "count"),
    lower("storage.fetch_cycles_per_fault", "cycles"),
    lower("storage.fetched_words", "words"),
    lower("storage.writeback_words", "words"),
    lower("machines.run_ns_per_touch.atlas", "ns"),
    lower("machines.run_ns_per_touch.m44", "ns"),
    lower("machines.run_ns_per_touch.b5000", "ns"),
    lower("machines.run_ns_per_touch.rice", "ns"),
    lower("machines.run_ns_per_touch.b8500", "ns"),
    lower("machines.run_ns_per_touch.multics", "ns"),
    lower("machines.run_ns_per_touch.model67", "ns"),
    lower("machines.self_ns_per_touch", "ns"),
    higher("machines.touches", "count"),
    lower("machines.faults", "count"),
    lower("machines.alloc_failures", "count"),
    higher("probe.events_emitted", "count"),
    lower("probe.counting_ns_per_event", "ns"),
    lower("probe.null_overhead_ratio", "ratio"),
    lower("telemetry.ns_per_event", "ns"),
    lower("telemetry.overhead_ratio", "ratio"),
    lower("telemetry.export_ms", "ms"),
    lower("telemetry.export_bytes", "bytes"),
    lower("telemetry.flight_record_ns", "ns"),
    lower("sched.build_ms", "ms"),
    lower("sched.run_ns_per_ref.open", "ns"),
    lower("sched.run_ns_per_ref.working-set", "ns"),
    lower("sched.self_ns_per_ref", "ns"),
    lower("sched.ws_estimate_ns_per_tenant", "ns"),
    lower("sched.bytes_per_tenant", "bytes"),
    higher("sched.refs", "count"),
    lower("sched.faults", "count"),
    higher("sched.admissions", "count"),
    lower("sched.admission_rejects", "count"),
    lower("sched.deactivations", "count"),
    lower("sched.ladder_steps", "count"),
    higher("sched.peak_active", "count"),
    higher("sched.cpu_utilization.open", "ratio"),
    higher("sched.cpu_utilization.working-set", "ratio"),
    lower("alloc.pair_ns_p50", "ns"),
    lower("alloc.batch_ns_p99", "ns"),
    lower("alloc.batch_ns_p999", "ns"),
    // How many 256-operation batches stand behind the two tails.
    higher("alloc.batch_samples", "count"),
    higher("alloc.magazine_hit_ratio", "ratio"),
    lower("alloc.depot_exchanges_per_kop", "1/kop"),
    lower("alloc.slab_exhausted", "count"),
    lower("alloc.system_fallbacks", "count"),
    higher("alloc.large_ops", "count"),
    lower("alloc.bad_frees", "count"),
    lower("alloc.direct_pair_ns", "ns"),
    lower("alloc.vs_system_ratio", "ratio"),
    lower("alloc.reserved_per_live", "ratio"),
    lower("arena.pair_ns", "ns"),
    lower("arena.pair_ns_noquick", "ns"),
    lower("arena.steals", "count"),
    lower("arena.slab_pair_ns", "ns"),
    lower("arena.slab_cas_per_op", "ratio"),
    higher("harness.iterations", "count"),
    lower("harness.iter_ms_p50", "ms"),
    lower("harness.iter_ms_hi", "ms"),
    higher("harness.spans", "count"),
    higher("harness.trace_overhead_ratio", "ratio"),
    // Worker threads and grid jobs: every number above that depends on
    // threads depends on this one.
    higher("harness.jobs", "count"),
];

/// The per-layer values one traced run measured. A metric no layer of
/// the workload produced stays 0.
#[derive(Default)]
pub struct LayerValues(BTreeMap<&'static str, f64>);

impl LayerValues {
    /// Records `value` under a declared name.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not in [`PER_LAYER`]: a metric that is
    /// printed but not declared is a bug in the harness.
    pub fn set(&mut self, name: &str, value: f64) {
        let decl = PER_LAYER
            .iter()
            .find(|d| d.name == name)
            .unwrap_or_else(|| panic!("per-layer metric {name} is not declared"));
        self.0
            .insert(decl.name, if value.is_finite() { value } else { 0.0 });
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// Named integer fields of a workload's reports, in a fixed order. The
/// digest covers names and values, so it changes only when a listed
/// field does; a field added to a library struct cannot move it.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Fields(pub Vec<(&'static str, u64)>);

impl Fields {
    pub fn push(&mut self, name: &'static str, value: u64) {
        self.0.push((name, value));
    }

    pub fn get(&self, name: &str) -> u64 {
        self.0
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("no digest field {name}"))
            .1
    }

    /// FNV-1a over `name=value;` of every field in order.
    pub fn digest(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for (name, value) in &self.0 {
            eat(name.as_bytes());
            eat(b"=");
            eat(&value.to_le_bytes());
            eat(b";");
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A metric name: starts with a letter or digit, then at most 63 more
    /// of letters, digits, `_`, `.` and `-`.
    fn valid_name(name: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name.chars().all(ok)
    }

    /// A unit: 1 to 16 of letters, digits, `_`, `/`, `%`, `.` and `-`.
    fn valid_unit(unit: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
        (1..=16).contains(&unit.len()) && unit.chars().all(ok)
    }

    #[test]
    fn names_and_units_follow_the_contract() {
        for good in [
            "ops_per_s",
            "paging.replay_ns_per_ref.lfu-aged",
            "9lives",
            "a",
        ] {
            assert!(valid_name(good), "{good}");
        }
        let long = "x".repeat(65);
        for bad in ["", ".hidden", "-dash", "has space", "slash/", "ünï", &long] {
            assert!(!valid_name(bad), "{bad}");
        }
        for good in ["op/s", "MiB", "%", "1/kop", "model-unit/op"] {
            assert!(valid_unit(good), "{good}");
        }
        for bad in ["", "a b", "failed/attempted!", "seventeen-chars-x"] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }

    #[test]
    fn every_declared_metric_is_well_formed_and_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|e| e.decl.name).collect();
        names.extend(PER_LAYER.iter().map(|d| d.name));
        names.push(FAIL_RATIO.name);
        for d in END_TO_END.iter().map(|e| &e.decl).chain(&PER_LAYER) {
            assert!(valid_name(d.name), "{}", d.name);
            assert!(valid_unit(d.unit), "{} unit {}", d.name, d.unit);
        }
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "a metric name is used once");
        assert!(PER_LAYER.len() <= 128);
    }

    #[test]
    fn digest_is_stable_and_sensitive_to_names_values_and_order() {
        let mut a = Fields::default();
        a.push("faults", 7);
        a.push("references", 100);
        // Pinned from an independent FNV-1a: the expected files depend on
        // this exact function.
        assert_eq!(a.digest(), 0x8152_e9e1_7ac9_a1a7);
        assert_eq!(a.digest(), a.clone().digest());
        let mut moved = Fields::default();
        moved.push("faults", 8);
        moved.push("references", 100);
        assert_ne!(a.digest(), moved.digest());
        let mut renamed = Fields::default();
        renamed.push("fault", 7);
        renamed.push("references", 100);
        assert_ne!(a.digest(), renamed.digest());
        let mut swapped = Fields::default();
        swapped.push("references", 100);
        swapped.push("faults", 7);
        assert_ne!(a.digest(), swapped.digest());
        assert_eq!(a.get("faults"), 7);
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn an_undeclared_per_layer_name_is_refused() {
        LayerValues::default().set("paging.made_up", 1.0);
    }
}
