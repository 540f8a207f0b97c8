//! The experiments' flags, parsed once at the edge.
//!
//! [`Args::parse`] reads an argument list against the flags an
//! experiment accepts, in the `--flag value` or `--flag=value`
//! spelling, and refuses anything else: a misspelled flag, or one the
//! experiment does not read, is never silently ignored. It checks each
//! value too, so an experiment never meets a malformed one.

use std::path::PathBuf;

use dsa_exec::pool::available_jobs;

/// One flag an experiment accepts.
#[derive(Clone, Copy, Debug)]
pub struct FlagSpec {
    /// The flag itself, e.g. `--jobs`.
    pub name: &'static str,
    /// The value placeholder: `Some("N")` for a positive count,
    /// `Some("PATH")` for a path, or `None` for a bare switch.
    pub value: Option<&'static str>,
    /// One help line for the usage message.
    pub help: &'static str,
}

/// The grid's width: `--jobs 1` runs the grid inline, and every wider
/// setting must reproduce its output byte for byte.
pub(crate) const JOBS: FlagSpec = FlagSpec {
    name: "--jobs",
    value: Some("N"),
    help: "worker threads for the simulation grid (default: all hardware threads)",
};

pub(crate) const TRACE_OUT: FlagSpec = FlagSpec {
    name: "--trace-out",
    value: Some("PATH"),
    help: "write the probe event stream to PATH as JSONL",
};

pub(crate) const CHAOS: FlagSpec = FlagSpec {
    name: "--chaos",
    value: None,
    help: "also run the deterministic chaos-injection section",
};

/// The one flag every experiment accepts; the edge writes it.
pub(crate) const METRICS_OUT: FlagSpec = FlagSpec {
    name: "--metrics-out",
    value: Some("PATH"),
    help: "write end-of-run metrics to PATH (.json for JSON, else Prometheus text)",
};

pub(crate) const FLIGHT_RECORDER: FlagSpec = FlagSpec {
    name: "--flight-recorder",
    value: Some("N"),
    help: "retain the last N probe events per thread for postmortem dumps",
};

/// Why an argument list did not parse.
#[derive(Debug, PartialEq, Eq)]
pub enum ArgError {
    /// `--help` or `-h`: print the usage and succeed.
    Help,
    /// `"unrecognized argument: <arg>"`, shown with the usage.
    Unknown(String),
    /// A missing or malformed value, e.g. `"--jobs must be at least 1"`.
    Malformed(String),
}

/// The flags one run was given, checked against what it accepts.
#[derive(Debug)]
pub struct Args {
    /// The first value of each flag present; a switch's is empty.
    values: Vec<(&'static str, String)>,
}

impl Args {
    /// Parses `argv` (program name excluded) against `known`. The first
    /// occurrence of a flag is the one read.
    ///
    /// # Errors
    ///
    /// [`ArgError::Help`] when `--help` or `-h` is present anywhere,
    /// else the first argument, in order, that matches no flag of
    /// `known` or whose value is missing, not a number, 0, or an empty
    /// path.
    pub fn parse(argv: &[String], known: &[FlagSpec]) -> Result<Args, ArgError> {
        if argv.iter().any(|a| a == "--help" || a == "-h") {
            return Err(ArgError::Help);
        }
        let mut values: Vec<(&'static str, String)> = Vec::new();
        let mut rest = argv.iter();
        while let Some(a) = rest.next() {
            let spelled = |f: &FlagSpec| {
                let value = a.strip_prefix(f.name)?.strip_prefix('=');
                value.filter(|_| f.value.is_some())
            };
            let (flag, value) = match known.iter().find(|f| *a == f.name) {
                Some(f) if f.value.is_none() => (f, Some("")),
                Some(f) => (f, rest.next().map(String::as_str)),
                None => known
                    .iter()
                    .find_map(|f| Some((f, Some(spelled(f)?))))
                    .ok_or_else(|| ArgError::Unknown(format!("unrecognized argument: {a}")))?,
            };
            let value = checked(*flag, value)?;
            if values.iter().all(|(name, _)| *name != flag.name) {
                values.push((flag.name, value));
            }
        }
        Ok(Args { values })
    }

    fn value(&self, flag: FlagSpec) -> Option<&str> {
        let (_, value) = self.values.iter().find(|(name, _)| *name == flag.name)?;
        Some(value)
    }

    /// A positive-count flag's value, `None` when absent.
    #[must_use]
    pub fn count(&self, flag: FlagSpec) -> Option<usize> {
        // `parse` checked every count, so `ok` drops none.
        self.value(flag).and_then(|v| v.parse().ok())
    }

    /// A path flag's value, `None` when absent.
    #[must_use]
    pub fn path(&self, flag: FlagSpec) -> Option<PathBuf> {
        self.value(flag).map(PathBuf::from)
    }

    /// Whether a bare switch is present.
    #[must_use]
    pub fn switch(&self, flag: FlagSpec) -> bool {
        self.value(flag).is_some()
    }

    /// The `--jobs` width, defaulting to all hardware threads.
    #[must_use]
    pub fn jobs(&self) -> usize {
        self.count(JOBS).unwrap_or_else(available_jobs)
    }
}

/// `value` as `flag` reads it, or why it is missing or malformed.
fn checked(flag: FlagSpec, value: Option<&str>) -> Result<String, ArgError> {
    let bad = |why: String| Err(ArgError::Malformed(format!("{}{why}", flag.name)));
    match (flag.value, value) {
        (Some("PATH"), None | Some("")) => bad(" requires a path".to_owned()),
        (_, None) => bad(" requires a value".to_owned()),
        (Some("N"), Some(v)) => match v.parse::<usize>() {
            Ok(0) => bad(" must be at least 1".to_owned()),
            Ok(_) => Ok(v.to_owned()),
            Err(_) => bad(format!(": not a number: {v}")),
        },
        (_, Some(v)) => Ok(v.to_owned()),
    }
}

/// The usage message for an experiment and the flags it accepts.
#[must_use]
pub(crate) fn usage(bin: &str, known: &[FlagSpec]) -> String {
    let head = |f: &FlagSpec| match f.value {
        Some(v) => format!("{} {v}", f.name),
        None => f.name.to_owned(),
    };
    let mut out = format!("usage: {bin}");
    for f in known {
        out.push_str(&format!(" [{}]", head(f)));
    }
    out.push('\n');
    for f in known {
        out.push_str(&format!("  {:<18} {}\n", head(f), f.help));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::experiment;

    const ALL: [FlagSpec; 5] = [JOBS, TRACE_OUT, CHAOS, METRICS_OUT, FLIGHT_RECORDER];

    fn strings(xs: &[&str]) -> Vec<String> {
        xs.iter().map(|s| (*s).to_owned()).collect()
    }

    type Want = Result<Option<&'static str>, &'static str>;

    /// Checks each `(flag, args, want)` row against what an experiment
    /// reads for `flag` when every flag, `flag` included, is known: a
    /// count as its number, a path as its text, a present switch as the
    /// empty value.
    fn check(cases: &[(FlagSpec, &[&str], Want)]) {
        for &(flag, args, want) in cases {
            let got = match Args::parse(&strings(args), &[&ALL[..], &[flag]].concat()) {
                Ok(a) => Ok(match flag.value {
                    Some("N") => a.count(flag).map(|n| n.to_string()),
                    Some(_) => a.path(flag).map(|p| p.display().to_string()),
                    None => a.switch(flag).then(String::new),
                }),
                Err(ArgError::Malformed(msg)) => Err(msg),
                Err(other) => panic!("{} in {args:?}: {other:?}", flag.name),
            };
            let want = want.map(|v| v.map(str::to_owned)).map_err(str::to_owned);
            assert_eq!(got, want, "{} in {args:?}", flag.name);
        }
    }

    #[test]
    fn absent_flag_is_none() {
        check(&[
            (JOBS, &[], Ok(None)),
            (JOBS, &["--trace-out", "x.jsonl"], Ok(None)),
            (CHAOS, &["--jobs", "2"], Ok(None)),
        ]);
    }

    #[test]
    fn both_spellings_parse() {
        check(&[
            (JOBS, &["--jobs", "4"], Ok(Some("4"))),
            (JOBS, &["--jobs=16"], Ok(Some("16"))),
            (JOBS, &["--trace-out", "t", "--jobs", "2"], Ok(Some("2"))),
            // The first occurrence is the one read.
            (JOBS, &["--jobs", "2", "--jobs", "3"], Ok(Some("2"))),
            // A present switch reads as the empty value, anywhere.
            (CHAOS, &["--chaos", "--jobs", "2"], Ok(Some(""))),
            (CHAOS, &["--jobs", "2", "--chaos"], Ok(Some(""))),
        ]);
    }

    /// The messages are the binaries' stderr, and stay as they are.
    #[test]
    fn malformed_values_error() {
        check(&[
            (JOBS, &["--jobs"], Err("--jobs requires a value")),
            (JOBS, &["--jobs="], Err("--jobs: not a number: ")),
            (JOBS, &["--jobs", "0"], Err("--jobs must be at least 1")),
            (JOBS, &["--jobs", "zero"], Err("--jobs: not a number: zero")),
            (JOBS, &["--jobs=4x"], Err("--jobs: not a number: 4x")),
        ]);
    }

    #[test]
    fn trace_out_both_spellings_parse() {
        check(&[
            (TRACE_OUT, &[], Ok(None)),
            (TRACE_OUT, &["--jobs", "4"], Ok(None)),
            (TRACE_OUT, &["--trace-out", "t.jsonl"], Ok(Some("t.jsonl"))),
            (
                TRACE_OUT,
                &["--jobs", "2", "--trace-out=x/y.jsonl"],
                Ok(Some("x/y.jsonl")),
            ),
        ]);
    }

    #[test]
    fn trace_out_without_a_path_errors() {
        check(&[
            (
                TRACE_OUT,
                &["--trace-out"],
                Err("--trace-out requires a path"),
            ),
            (
                TRACE_OUT,
                &["--trace-out="],
                Err("--trace-out requires a path"),
            ),
        ]);
    }

    /// A count flag an experiment declares for itself, here exp_22's
    /// `--tenants`, parses as the shared ones do.
    #[test]
    fn an_experiments_own_count_parses_like_jobs() {
        let tenants = experiment("exp_22_tenant_sweep").flags[1];
        assert_eq!(tenants.name, "--tenants");
        check(&[
            (tenants, &[], Ok(None)),
            (tenants, &["--tenants", "8"], Ok(Some("8"))),
            (tenants, &["--tenants=2"], Ok(Some("2"))),
            (
                tenants,
                &["--tenants", "0"],
                Err("--tenants must be at least 1"),
            ),
            (tenants, &["--tenants"], Err("--tenants requires a value")),
        ]);
    }

    #[test]
    fn metrics_out_parses_like_trace_out() {
        check(&[
            (METRICS_OUT, &[], Ok(None)),
            (
                METRICS_OUT,
                &["--metrics-out", "m.prom"],
                Ok(Some("m.prom")),
            ),
            (
                METRICS_OUT,
                &["--jobs", "2", "--metrics-out=m.json"],
                Ok(Some("m.json")),
            ),
            (
                METRICS_OUT,
                &["--metrics-out"],
                Err("--metrics-out requires a path"),
            ),
            (
                METRICS_OUT,
                &["--metrics-out="],
                Err("--metrics-out requires a path"),
            ),
        ]);
    }

    #[test]
    fn flight_recorder_parses_like_jobs() {
        check(&[
            (FLIGHT_RECORDER, &[], Ok(None)),
            (
                FLIGHT_RECORDER,
                &["--flight-recorder", "256"],
                Ok(Some("256")),
            ),
            (FLIGHT_RECORDER, &["--flight-recorder=64"], Ok(Some("64"))),
            (
                FLIGHT_RECORDER,
                &["--flight-recorder", "0"],
                Err("--flight-recorder must be at least 1"),
            ),
            (
                FLIGHT_RECORDER,
                &["--flight-recorder"],
                Err("--flight-recorder requires a value"),
            ),
        ]);
    }

    fn parse(args: &[&str], known: &[FlagSpec]) -> Result<Args, ArgError> {
        Args::parse(&strings(args), known)
    }

    #[test]
    fn known_flags_pass_both_spellings() {
        let known = [JOBS, TRACE_OUT];
        assert!(parse(&[], &known).is_ok());
        assert!(parse(&["--jobs", "4"], &known).is_ok());
        assert!(parse(&["--jobs=4"], &known).is_ok());
        assert!(parse(&["--trace-out", "t.jsonl", "--jobs", "2"], &known).is_ok());
        // `--help` wins over everything else, an unknown flag included.
        assert_eq!(
            parse(&["--shrads", "--help"], &known).unwrap_err(),
            ArgError::Help
        );
    }

    #[test]
    fn unknown_arguments_are_rejected() {
        let unknown = |args: &[&str], known: &[FlagSpec]| {
            matches!(parse(args, known), Err(ArgError::Unknown(_)))
        };
        assert!(unknown(&["--shrads", "8"], &[JOBS]));
        assert!(unknown(&["--trace-out", "t"], &[JOBS]));
        assert!(unknown(&["stray"], &[JOBS]));
        // A prefix collision is still unknown.
        assert!(unknown(&["--jobsx=4"], &[JOBS]));
        // A switch takes no `=` value.
        assert!(unknown(&["--chaos=1"], &[CHAOS]));
        // `--jobs=4x` is a known flag with a bad value.
        assert!(matches!(
            parse(&["--jobs=4x"], &[JOBS]),
            Err(ArgError::Malformed(_))
        ));
    }

    #[test]
    fn trailing_valueless_flag_is_left_to_the_value_parser() {
        assert_eq!(
            parse(&["--jobs"], &[JOBS]).unwrap_err(),
            ArgError::Malformed("--jobs requires a value".to_owned())
        );
    }

    #[test]
    fn usage_lists_every_flag() {
        let u = usage("exp_99_demo", &[JOBS, CHAOS]);
        assert!(u.starts_with("usage: exp_99_demo [--jobs N] [--chaos]"));
        assert!(u.contains("worker threads"));
        assert!(u.contains("chaos-injection section"));
    }

    /// Only `--metrics-out` is universal; every other flag is accepted
    /// by the experiments that read it and refused by the rest.
    #[test]
    fn standard_flags_cover_the_universal_registry() {
        let e1 = experiment("exp_01_artificial_contiguity").flags;
        let names: Vec<&str> = e1.iter().map(|f| f.name).collect();
        assert_eq!(names, vec!["--jobs", "--metrics-out"]);
        let u = usage("exp_01", e1);
        assert!(u.contains("--metrics-out PATH"), "{u}");
        assert!(!u.contains("--flight-recorder"), "{u}");
        let args = ["--metrics-out=m.json", "--flight-recorder", "32"];
        assert!(parse(&args, e1).is_err());
        let e6 = experiment("exp_06_faults").flags;
        assert!(parse(&args, e6).is_ok());
        let args = ["--chaos", "--jobs", "2"];
        assert!(parse(&args, e1).is_err());
        assert!(parse(&args, experiment("exp_19_overload").flags).is_ok());
        // An experiment that never reads `--jobs` refuses it.
        let e20 = experiment("exp_20_trace_scale").flags;
        assert!(parse(&["--jobs", "2"], e20).is_err());
    }
}
