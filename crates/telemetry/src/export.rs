//! The metrics exporter: one registry, two wire formats.
//!
//! Every experiment binary ends a run holding the same kinds of state —
//! probe counters, histograms, report tables — and `--metrics-out`
//! must turn any of them into something a scrape pipeline ingests.
//! [`TelemetrySnapshot`] is the registry they all feed: counters,
//! gauges and histograms (plus whole report [`Table`]s lifted to
//! labelled gauges), rendered as Prometheus text exposition format or
//! as JSON.
//!
//! Rendering is fully deterministic — entries appear in registration
//! order (grouped by metric name in the Prometheus rendering),
//! histogram buckets in geometry order, no timestamps — so two
//! runs of a deterministic experiment produce byte-identical files
//! regardless of `--jobs` width; CI asserts exactly that.

use std::fmt::Write as _;
use std::path::Path;

use dsa_metrics::{Histogram, Table};
use dsa_probe::CountingProbe;

/// The quantiles every exported histogram summarizes in JSON.
const QUANTILES: [(&str, f64); 4] = [("p50", 0.5), ("p90", 0.9), ("p99", 0.99), ("max", 1.0)];

enum Value {
    Counter(u64),
    Gauge(f64),
    Histogram(Histogram),
}

struct Entry {
    name: String,
    help: String,
    labels: Vec<(String, String)>,
    value: Value,
}

/// A registry of metrics frozen at one instant, rendered to Prometheus
/// text exposition format or JSON by file extension.
///
/// # Examples
///
/// ```
/// use dsa_telemetry::TelemetrySnapshot;
///
/// let mut snap = TelemetrySnapshot::new("dsa");
/// snap.counter("allocs_total", "Allocations", &[("shard", "0")], 42);
/// let text = snap.render_prometheus();
/// assert!(text.contains("dsa_allocs_total{shard=\"0\"} 42"));
/// ```
pub struct TelemetrySnapshot {
    namespace: String,
    entries: Vec<Entry>,
}

impl TelemetrySnapshot {
    /// An empty registry; `namespace` prefixes every metric name in the
    /// Prometheus rendering (`<namespace>_<name>`).
    #[must_use]
    pub fn new(namespace: &str) -> TelemetrySnapshot {
        TelemetrySnapshot {
            namespace: sanitize(namespace),
            entries: Vec::new(),
        }
    }

    /// Registers a monotone counter.
    pub fn counter(&mut self, name: &str, help: &str, labels: &[(&str, &str)], value: u64) {
        self.push(name, help, labels, Value::Counter(value));
    }

    /// Registers a point-in-time gauge. Non-finite values are exported
    /// as 0 (Prometheus text format has no NaN that round-trips).
    pub fn gauge(&mut self, name: &str, help: &str, labels: &[(&str, &str)], value: f64) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.push(name, help, labels, Value::Gauge(value));
    }

    /// Registers a copy of a histogram as it reads now (typically one of
    /// a `TelemetryProbe`'s distributions).
    pub fn histogram(&mut self, name: &str, help: &str, labels: &[(&str, &str)], h: &Histogram) {
        self.push(name, help, labels, Value::Histogram(h.clone()));
    }

    /// Registers the exported counters of a [`CountingProbe`] (the
    /// cells `dsa-probe`'s event table gives a help string) under
    /// `labels` — the one-call way for a binary to export its probe.
    pub fn counting_probe(&mut self, probe: &CountingProbe, labels: &[(&str, &str)]) {
        for (name, help, value) in probe.exported() {
            self.counter(name, help, labels, value);
        }
    }

    /// Lifts a report [`Table`]'s numeric cells into labelled gauges:
    /// one gauge per numeric column, labelled by as many leading cells
    /// as it takes to tell the table's rows apart (the first alone, in
    /// most tables). Non-numeric cells are skipped. This is how the
    /// experiment binaries export their existing report tables without
    /// re-plumbing every figure by hand.
    pub fn table(&mut self, name: &str, table: &Table) {
        let headers = table.headers().to_vec();
        if headers.is_empty() {
            return;
        }
        let rows = table.rows();
        let distinct = |k: usize| {
            let mut keys: Vec<&[String]> = rows.iter().map(|r| &r[..k.min(r.len())]).collect();
            keys.sort_unstable();
            keys.windows(2).all(|w| w[0] != w[1])
        };
        let k = (1..headers.len())
            .find(|&k| distinct(k))
            .unwrap_or(headers.len());
        let keys: Vec<String> = headers[..k].iter().map(|h| sanitize(h)).collect();
        let help = table.title().unwrap_or("report table cell").to_string();
        for row in rows {
            let labels: Vec<(&str, &str)> = keys
                .iter()
                .zip(row)
                .map(|(h, c)| (h.as_str(), c.as_str()))
                .collect();
            for (h, cell) in headers.iter().zip(row).skip(k) {
                // Accept plain numbers and %-suffixed percentages.
                let numeric = cell.trim().trim_end_matches('%');
                let Ok(v) = numeric.parse::<f64>() else {
                    continue;
                };
                let col = sanitize(h);
                self.gauge(&format!("{name}_{col}"), &help, &labels, v);
            }
        }
    }

    fn push(&mut self, name: &str, help: &str, labels: &[(&str, &str)], value: Value) {
        self.entries.push(Entry {
            name: sanitize(name),
            help: help.to_string(),
            labels: labels
                .iter()
                .map(|&(k, v)| (sanitize(k), v.to_string()))
                .collect(),
            value,
        });
    }

    // Callers count; none asks for emptiness, so there is no unused
    // `is_empty` beside it.
    /// Number of registered metrics.
    #[must_use]
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Renders the registry in Prometheus text exposition format: each
    /// metric name's samples as one group, as the format requires,
    /// groups in order of first registration and samples within a group
    /// in registration order; `# HELP`/`# TYPE` head each group,
    /// histograms render as cumulative `_bucket{le=...}` series plus
    /// `_sum` and `_count`.
    #[must_use]
    pub fn render_prometheus(&self) -> String {
        let mut grouped: Vec<&Entry> = Vec::with_capacity(self.entries.len());
        for e in &self.entries {
            if !grouped.iter().any(|g| g.name == e.name) {
                grouped.extend(self.entries.iter().filter(|x| x.name == e.name));
            }
        }
        let mut out = String::new();
        let mut described: Vec<&str> = Vec::new();
        for e in grouped {
            let full = format!("{}_{}", self.namespace, e.name);
            let kind = match e.value {
                Value::Counter(_) => "counter",
                Value::Gauge(_) => "gauge",
                Value::Histogram(_) => "histogram",
            };
            if !described.contains(&e.name.as_str()) {
                described.push(&e.name);
                let _ = writeln!(out, "# HELP {full} {}", escape_help(&e.help));
                let _ = writeln!(out, "# TYPE {full} {kind}");
            }
            match &e.value {
                Value::Counter(v) => {
                    let _ = writeln!(out, "{full}{} {v}", label_set(&e.labels, None));
                }
                Value::Gauge(v) => {
                    let _ = writeln!(out, "{full}{} {v}", label_set(&e.labels, None));
                }
                Value::Histogram(h) => {
                    let mut cumulative = 0u64;
                    for i in 0..h.spec().bucket_count() {
                        cumulative += h.bucket_count(i);
                        // `le` is the bucket's inclusive upper bound:
                        // the next bucket's lower bound minus one.
                        let le = if i + 1 < h.spec().bucket_count() {
                            (h.bucket_low(i + 1) - 1).to_string()
                        } else {
                            h.bucket_low(i).to_string()
                        };
                        let _ = writeln!(
                            out,
                            "{full}_bucket{} {cumulative}",
                            label_set(&e.labels, Some(&le))
                        );
                    }
                    cumulative += h.overflow();
                    let _ = writeln!(
                        out,
                        "{full}_bucket{} {cumulative}",
                        label_set(&e.labels, Some("+Inf"))
                    );
                    let _ = writeln!(out, "{full}_sum{} {}", label_set(&e.labels, None), h.sum());
                    let _ = writeln!(
                        out,
                        "{full}_count{} {}",
                        label_set(&e.labels, None),
                        h.count()
                    );
                }
            }
        }
        out
    }

    /// Renders the registry as deterministic JSON (registration order,
    /// no timestamps). Histograms carry count/sum/max, summary
    /// quantiles, and the non-empty `[bucket_low, count]` pairs.
    #[must_use]
    pub fn render_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(
            out,
            "  \"namespace\": \"{}\",",
            escape_json(&self.namespace)
        );
        out.push_str("  \"metrics\": [\n");
        for (i, e) in self.entries.iter().enumerate() {
            out.push_str("    {");
            let _ = write!(out, "\"name\": \"{}\"", escape_json(&e.name));
            let _ = write!(out, ", \"help\": \"{}\"", escape_json(&e.help));
            if !e.labels.is_empty() {
                out.push_str(", \"labels\": {");
                for (j, (k, v)) in e.labels.iter().enumerate() {
                    if j > 0 {
                        out.push_str(", ");
                    }
                    let _ = write!(out, "\"{}\": \"{}\"", escape_json(k), escape_json(v));
                }
                out.push('}');
            }
            match &e.value {
                Value::Counter(v) => {
                    let _ = write!(out, ", \"type\": \"counter\", \"value\": {v}");
                }
                Value::Gauge(v) => {
                    let _ = write!(out, ", \"type\": \"gauge\", \"value\": {v}");
                }
                Value::Histogram(h) => {
                    let _ = write!(
                        out,
                        ", \"type\": \"histogram\", \"count\": {}, \"sum\": {}, \"max\": {}",
                        h.count(),
                        h.sum(),
                        h.max()
                    );
                    out.push_str(", \"quantiles\": {");
                    for (j, (label, q)) in QUANTILES.iter().enumerate() {
                        if j > 0 {
                            out.push_str(", ");
                        }
                        let _ = write!(out, "\"{label}\": {}", h.quantile(*q));
                    }
                    out.push('}');
                    out.push_str(", \"buckets\": [");
                    for (j, (low, count)) in h.nonempty_buckets().enumerate() {
                        if j > 0 {
                            out.push_str(", ");
                        }
                        let _ = write!(out, "[{low}, {count}]");
                    }
                    if h.overflow() > 0 {
                        if h.nonempty_buckets().count() > 0 {
                            out.push_str(", ");
                        }
                        let _ = write!(out, "[\"overflow\", {}]", h.overflow());
                    }
                    out.push(']');
                }
            }
            out.push('}');
            if i + 1 < self.entries.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Writes the registry to `path`, choosing the format by extension:
    /// `.json` gets `TelemetrySnapshot::render_json`, anything else
    /// the Prometheus text exposition. Parent directories are created.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors from directory creation or the
    /// write itself.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let body = if path.extension().is_some_and(|e| e == "json") {
            self.render_json()
        } else {
            self.render_prometheus()
        };
        std::fs::write(path, body)
    }
}

/// Lowercases and maps every non-`[a-z0-9_]` byte to `_` — valid as a
/// Prometheus metric or label name fragment.
fn sanitize(s: &str) -> String {
    let mut out: String = s
        .to_ascii_lowercase()
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect();
    if out.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        out.insert(0, '_');
    }
    out
}

fn escape_help(s: &str) -> String {
    s.replace('\\', "\\\\").replace('\n', "\\n")
}

fn escape_label(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Formats a `{k="v",...}` label set, optionally with a trailing
/// `le="..."` (for histogram buckets); empty when there are no labels.
fn label_set(labels: &[(String, String)], le: Option<&str>) -> String {
    if labels.is_empty() && le.is_none() {
        return String::new();
    }
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
        .collect();
    if let Some(le) = le {
        parts.push(format!("le=\"{le}\""));
    }
    format!("{{{}}}", parts.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsa_metrics::BucketSpec;

    #[test]
    fn prometheus_counters_and_gauges() {
        let mut snap = TelemetrySnapshot::new("dsa");
        snap.counter("allocs_total", "Allocations", &[("shard", "0")], 10);
        snap.counter("allocs_total", "Allocations", &[("shard", "1")], 20);
        snap.gauge("occupancy", "Occupied fraction", &[], 0.75);
        let text = snap.render_prometheus();
        assert_eq!(text.matches("# HELP dsa_allocs_total").count(), 1, "{text}");
        assert!(text.contains("dsa_allocs_total{shard=\"0\"} 10"), "{text}");
        assert!(text.contains("dsa_allocs_total{shard=\"1\"} 20"), "{text}");
        assert!(text.contains("# TYPE dsa_occupancy gauge"), "{text}");
        assert!(text.contains("dsa_occupancy 0.75"), "{text}");
    }

    #[test]
    fn prometheus_groups_each_family_in_first_registration_order() {
        let mut snap = TelemetrySnapshot::new("dsa");
        for shard in ["0", "1"] {
            snap.counter("allocs_total", "Allocations", &[("shard", shard)], 1);
            snap.gauge("occupancy", "Occupied fraction", &[("shard", shard)], 0.5);
        }
        let text = snap.render_prometheus();
        let names: Vec<&str> = text
            .lines()
            .filter(|l| !l.starts_with('#'))
            .map(|l| l.split('{').next().unwrap_or(l))
            .collect();
        assert_eq!(
            names,
            [
                "dsa_allocs_total",
                "dsa_allocs_total",
                "dsa_occupancy",
                "dsa_occupancy"
            ]
        );
    }

    #[test]
    fn prometheus_histogram_is_cumulative_with_inf() {
        let mut h = Histogram::with_spec(BucketSpec::Linear {
            width: 10,
            buckets: 3,
        });
        for v in [1, 2, 15, 100] {
            h.record(v);
        }
        let mut snap = TelemetrySnapshot::new("dsa");
        snap.histogram("lat", "Latency", &[], &h);
        let text = snap.render_prometheus();
        assert!(text.contains("dsa_lat_bucket{le=\"9\"} 2"), "{text}");
        assert!(text.contains("dsa_lat_bucket{le=\"19\"} 3"), "{text}");
        assert!(text.contains("dsa_lat_bucket{le=\"+Inf\"} 4"), "{text}");
        assert!(text.contains("dsa_lat_sum 118"), "{text}");
        assert!(text.contains("dsa_lat_count 4"), "{text}");
    }

    #[test]
    fn json_is_wellformed_and_deterministic() {
        let build = || {
            let mut snap = TelemetrySnapshot::new("dsa");
            snap.counter("faults_total", "Faults", &[("machine", "paged")], 3);
            let mut h = Histogram::log2(8);
            h.record(5);
            h.record(300);
            snap.histogram("gap", "Inter-fault gap", &[], &h);
            snap.render_json()
        };
        let a = build();
        assert_eq!(a, build());
        assert!(a.contains("\"name\": \"faults_total\""), "{a}");
        assert!(a.contains("\"labels\": {\"machine\": \"paged\"}"), "{a}");
        assert!(a.contains("\"quantiles\""), "{a}");
        assert!(a.contains("[\"overflow\", 1]"), "{a}");
        // Balanced braces/brackets as a cheap well-formedness check.
        assert_eq!(a.matches('{').count(), a.matches('}').count(), "{a}");
        assert_eq!(a.matches('[').count(), a.matches(']').count(), "{a}");
    }

    #[test]
    fn table_cells_become_labelled_gauges() {
        let mut t = Table::new(&["policy", "faults", "p99_us", "note"]);
        t.row_owned(vec![
            "first_fit".into(),
            "120".into(),
            "4.5".into(),
            "ok".into(),
        ]);
        t.row_owned(vec![
            "best_fit".into(),
            "95".into(),
            "3.25".into(),
            "ok".into(),
        ]);
        let mut snap = TelemetrySnapshot::new("dsa");
        snap.table("exp", &t);
        let text = snap.render_prometheus();
        assert!(
            text.contains("dsa_exp_faults{policy=\"first_fit\"} 120"),
            "{text}"
        );
        assert!(
            text.contains("dsa_exp_p99_us{policy=\"best_fit\"} 3.25"),
            "{text}"
        );
        // The non-numeric "note" column is skipped.
        assert!(!text.contains("exp_note"), "{text}");
    }

    #[test]
    fn repeated_first_cells_take_the_next_cell_as_a_label() {
        let mut t = Table::new(&["jobs", "policy", "util"]);
        for (jobs, policy, util) in [
            ("8", "open", "0.5"),
            ("8", "ws", "0.75"),
            ("16", "open", "0.25"),
        ] {
            t.row_owned(vec![jobs.into(), policy.into(), util.into()]);
        }
        let mut snap = TelemetrySnapshot::new("dsa");
        snap.table("lc", &t);
        let text = snap.render_prometheus();
        assert!(
            text.contains("dsa_lc_util{jobs=\"8\",policy=\"open\"} 0.5"),
            "{text}"
        );
        assert!(
            text.contains("dsa_lc_util{jobs=\"8\",policy=\"ws\"} 0.75"),
            "{text}"
        );
        assert!(
            text.contains("dsa_lc_util{jobs=\"16\",policy=\"open\"} 0.25"),
            "{text}"
        );
        // A labelling column is not a gauge.
        assert!(!text.contains("dsa_lc_policy"), "{text}");
        assert_eq!(
            text.lines().filter(|l| !l.starts_with('#')).count(),
            3,
            "{text}"
        );
    }

    #[test]
    fn counting_probe_exports_standard_counters() {
        let mut probe = CountingProbe::new();
        probe.allocs = 7;
        probe.faults = 3;
        let mut snap = TelemetrySnapshot::new("dsa");
        snap.counting_probe(&probe, &[("exp", "01")]);
        let text = snap.render_prometheus();
        assert!(text.contains("dsa_allocs_total{exp=\"01\"} 7"), "{text}");
        assert!(text.contains("dsa_faults_total{exp=\"01\"} 3"), "{text}");
    }

    #[test]
    fn write_picks_format_by_extension() {
        let dir = std::env::temp_dir().join("dsa_telemetry_export_test");
        let mut snap = TelemetrySnapshot::new("dsa");
        snap.counter("x_total", "X", &[], 1);
        let json_path = dir.join("out.json");
        let prom_path = dir.join("out.prom");
        snap.write(&json_path).expect("write json");
        snap.write(&prom_path).expect("write prom");
        let json = std::fs::read_to_string(&json_path).expect("read json");
        let prom = std::fs::read_to_string(&prom_path).expect("read prom");
        assert!(json.starts_with('{'), "{json}");
        assert!(prom.starts_with("# HELP"), "{prom}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sanitize_normalizes_names() {
        assert_eq!(sanitize("P99 (µs)"), "p99___s_");
        assert_eq!(sanitize("faults/1k"), "faults_1k");
        assert_eq!(sanitize("9lives"), "_9lives");
    }
}
