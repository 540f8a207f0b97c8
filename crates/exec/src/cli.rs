//! The shared experiment-binary flags.
//!
//! Every `exp_*` binary accepts `--jobs N` (or `--jobs=N`): the number
//! of worker threads the grid fans across. The default is all hardware
//! threads; `--jobs 1` forces the inline sequential path, whose output
//! every parallel width must reproduce byte for byte. Every binary also
//! accepts `--metrics-out PATH`.
//!
//! Any other flag is an extra [`FlagSpec`] of the binaries that read
//! it: `--trace-out PATH` (E4, E5), `--shards N` (E18, E19), `--chaos`
//! (E19), `--flight-recorder N` (E6b, E18, E19), and a few declared by
//! one binary. [`enforce_standard_flags`] rejects anything else with a
//! usage message on stderr and exit status 2: a misspelled flag, or
//! one the binary does not read, must never be silently ignored.
//!
//! One reader, `value_of`, finds a flag's value in either spelling;
//! [`count_flag_from_env`], [`path_flag_from_env`] and
//! [`switch_from_env`] read the process arguments through it, and a
//! malformed value exits with status 2.

use std::path::PathBuf;

use crate::pool::available_jobs;

/// One flag a binary accepts: its name, its value placeholder (if it
/// takes one), and a help line for the usage message.
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

/// The `--jobs N` flag every experiment binary accepts.
pub const JOBS: FlagSpec = FlagSpec {
    name: "--jobs",
    value: Some("N"),
    help: "worker threads for the simulation grid (default: all hardware threads)",
};

/// The `--trace-out PATH` flag of the probe-dumping binaries.
pub const TRACE_OUT: FlagSpec = FlagSpec {
    name: "--trace-out",
    value: Some("PATH"),
    help: "write the probe event stream to PATH as JSONL",
};

/// The `--shards N` flag of the concurrency experiment.
pub const SHARDS: FlagSpec = FlagSpec {
    name: "--shards",
    value: Some("N"),
    help: "largest shard count in the scaling sweep (default: 8)",
};

/// The `--chaos` switch of the overload experiment: run the
/// deterministic fault-injection section on top of the overload grid.
pub const CHAOS: FlagSpec = FlagSpec {
    name: "--chaos",
    value: None,
    help: "also run the deterministic chaos-injection section",
};

/// The `--metrics-out PATH` flag every experiment binary accepts: dump
/// end-of-run metrics to PATH (`.json` for JSON, anything else for
/// Prometheus text exposition format).
pub const METRICS_OUT: FlagSpec = FlagSpec {
    name: "--metrics-out",
    value: Some("PATH"),
    help: "write end-of-run metrics to PATH (.json for JSON, else Prometheus text)",
};

/// The `--flight-recorder N` flag of the binaries that dump a
/// postmortem: attach a lock-free flight recorder retaining the last N
/// probe events per thread.
pub const FLIGHT_RECORDER: FlagSpec = FlagSpec {
    name: "--flight-recorder",
    value: Some("N"),
    help: "retain the last N probe events per thread for postmortem dumps",
};

/// The flags *every* experiment binary accepts: `--jobs` and
/// `--metrics-out`. One registry, so adding a universal flag is a
/// one-line change that reaches all binaries (and the `--help` test
/// that checks each one).
#[must_use]
pub(crate) fn standard_flags() -> Vec<FlagSpec> {
    vec![JOBS, METRICS_OUT]
}

/// `enforce_known_flags` with the standard registry prepended:
/// binaries pass only their extra flags (empty for most).
pub fn enforce_standard_flags(bin: &str, extra: &[FlagSpec]) {
    let mut known = standard_flags();
    known.extend_from_slice(extra);
    enforce_known_flags(bin, &known);
}

/// Renders the usage message for a binary and its accepted flags.
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

/// Checks that every argument is a flag from `known` (in either the
/// `--flag value` or `--flag=value` spelling).
///
/// Value well-formedness is *not* checked here — that stays with the
/// flag's reader; this pass only refuses arguments no reader would
/// ever look at.
///
/// # Errors
///
/// Returns `"unrecognized argument: <arg>"` for the first argument
/// matching no known flag.
pub(crate) fn check_known<I>(args: I, known: &[FlagSpec]) -> Result<(), String>
where
    I: IntoIterator<Item = String>,
{
    let mut args = args.into_iter();
    while let Some(a) = args.next() {
        let spec = known.iter().find(|f| {
            a == f.name
                || (f.value.is_some()
                    && a.starts_with(f.name)
                    && a.as_bytes().get(f.name.len()) == Some(&b'='))
        });
        match spec {
            Some(f) => {
                if f.value.is_some() && a == f.name {
                    // Consume the value slot; a missing value is the
                    // flag reader's error to report.
                    let _ = args.next();
                }
            }
            None => return Err(format!("unrecognized argument: {a}")),
        }
    }
    Ok(())
}

/// The process arguments, program name skipped.
fn env_args() -> impl Iterator<Item = String> {
    std::env::args().skip(1)
}

/// Rejects unrecognized process arguments: prints the offending
/// argument and the usage message on stderr and exits with status 2.
/// `--help`/`-h` print the usage on stdout and exit 0.
///
/// Call this first in every binary's `main`, naming the flags the
/// binary accepts.
pub(crate) fn enforce_known_flags(bin: &str, known: &[FlagSpec]) {
    let args: Vec<String> = env_args().collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print!("{}", usage(bin, known));
        std::process::exit(0);
    }
    if let Err(msg) = check_known(args, known) {
        eprintln!("{msg}");
        eprint!("{}", usage(bin, known));
        std::process::exit(2);
    }
}

/// The value of the first `flag` in `args`, in the `--flag value` or
/// `--flag=value` spelling, ignoring every other argument. A present
/// switch reads as the empty string.
///
/// # Errors
///
/// Returns `"<flag> requires a path"` (a `PATH` flag) or `"<flag>
/// requires a value"` when the flag ends the list without its value,
/// and the former for an empty `--flag=` too.
fn value_of<I>(args: I, flag: FlagSpec) -> Result<Option<String>, String>
where
    I: IntoIterator<Item = String>,
{
    let is_path = flag.value == Some("PATH");
    let missing = || {
        let what = if is_path { "path" } else { "value" };
        format!("{} requires a {what}", flag.name)
    };
    let mut args = args.into_iter();
    while let Some(a) = args.next() {
        if a == flag.name {
            if flag.value.is_none() {
                return Ok(Some(String::new()));
            }
            return args.next().map(Some).ok_or_else(missing);
        }
        let spelled = a
            .strip_prefix(flag.name)
            .and_then(|rest| rest.strip_prefix('='));
        if let Some(v) = spelled.filter(|_| flag.value.is_some()) {
            if is_path && v.is_empty() {
                return Err(missing());
            }
            return Ok(Some(v.to_owned()));
        }
    }
    Ok(None)
}

/// [`value_of`] for a positive-count flag, which also refuses a value
/// that is not a number (`"<flag>: not a number: <value>"`) or is 0.
fn count_of<I>(args: I, flag: FlagSpec) -> Result<Option<usize>, String>
where
    I: IntoIterator<Item = String>,
{
    let Some(value) = value_of(args, flag)? else {
        return Ok(None);
    };
    match value.parse() {
        Ok(0) => Err(format!("{} must be at least 1", flag.name)),
        Ok(n) => Ok(Some(n)),
        Err(_) => Err(format!("{}: not a number: {value}", flag.name)),
    }
}

/// `result`'s value, or its message on stderr and exit status 2.
fn or_exit<T>(result: Result<T, String>) -> T {
    result.unwrap_or_else(|msg| {
        eprintln!("{msg}");
        std::process::exit(2);
    })
}

/// Whether a bare switch (a [`FlagSpec`] with no value) is present in
/// the process arguments.
#[must_use]
pub fn switch_from_env(flag: FlagSpec) -> bool {
    matches!(value_of(env_args(), flag), Ok(Some(_)))
}

/// A positive-count flag read from the process arguments, `None` when
/// absent. Exits with status 2 on a malformed value.
#[must_use]
pub fn count_flag_from_env(flag: FlagSpec) -> Option<usize> {
    or_exit(count_of(env_args(), flag))
}

/// A path flag read from the process arguments, `None` when absent.
/// Exits with status 2 when the path is missing.
#[must_use]
pub fn path_flag_from_env(flag: FlagSpec) -> Option<PathBuf> {
    or_exit(value_of(env_args(), flag)).map(PathBuf::from)
}

/// The `--jobs` value from the process arguments, defaulting to all
/// hardware threads. Exits with status 2 on a malformed value.
#[must_use]
pub fn jobs_from_env() -> usize {
    count_flag_from_env(JOBS).unwrap_or_else(available_jobs)
}

/// The standard sweep axis of the scaling experiments: powers of two
/// `1, 2, 4, …` up to `max`, with `max` itself appended when it is not
/// a power of two. Empty when `max` is zero.
#[must_use]
pub fn doubling_sweep(max: usize) -> Vec<usize> {
    let mut points = Vec::new();
    let mut n = 1;
    while n < max {
        points.push(n);
        n *= 2;
    }
    if max > 0 {
        points.push(max);
    }
    points
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(xs: &[&str]) -> Vec<String> {
        xs.iter().map(|s| (*s).to_owned()).collect()
    }

    type Want = Result<Option<&'static str>, &'static str>;

    /// Checks each `(flag, args, want)` row against what a binary reads
    /// for `flag`: a count as its number, a path or a switch as
    /// `value_of` returns it.
    fn check(cases: &[(FlagSpec, &[&str], Want)]) {
        for &(flag, args, want) in cases {
            let got = match flag.value {
                Some("N") => count_of(strings(args), flag).map(|n| n.map(|n| n.to_string())),
                _ => value_of(strings(args), flag),
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
            // A prefix collision is another flag.
            (JOBS, &["--jobsx=4"], Ok(None)),
            (CHAOS, &["--jobs", "2"], Ok(None)),
            // A switch has no `=` spelling; the unknown-flag check
            // refuses it before any reader runs.
            (CHAOS, &["--chaos=1"], Ok(None)),
        ]);
    }

    #[test]
    fn both_spellings_parse() {
        check(&[
            (JOBS, &["--jobs", "4"], Ok(Some("4"))),
            (JOBS, &["--jobs=16"], Ok(Some("16"))),
            (JOBS, &["--trace-out", "t", "--jobs", "2"], Ok(Some("2"))),
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

    #[test]
    fn shards_parse_like_jobs() {
        check(&[
            (SHARDS, &[], Ok(None)),
            (SHARDS, &["--shards", "8"], Ok(Some("8"))),
            (SHARDS, &["--shards=2"], Ok(Some("2"))),
            (
                SHARDS,
                &["--shards", "0"],
                Err("--shards must be at least 1"),
            ),
            (SHARDS, &["--shards"], Err("--shards requires a value")),
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

    #[test]
    fn known_flags_pass_both_spellings() {
        let known = [JOBS, TRACE_OUT];
        assert_eq!(check_known(strings(&[]), &known), Ok(()));
        assert_eq!(check_known(strings(&["--jobs", "4"]), &known), Ok(()));
        assert_eq!(check_known(strings(&["--jobs=4"]), &known), Ok(()));
        assert_eq!(
            check_known(strings(&["--trace-out", "t.jsonl", "--jobs", "2"]), &known),
            Ok(())
        );
    }

    #[test]
    fn unknown_arguments_are_rejected() {
        let known = [JOBS];
        assert!(check_known(strings(&["--shrads", "8"]), &known).is_err());
        assert!(check_known(strings(&["--trace-out", "t"]), &known).is_err());
        assert!(check_known(strings(&["stray"]), &known).is_err());
        // `--jobs=4x` is a known flag with a bad value: the value
        // reader owns that error, not the unknown-argument check.
        assert_eq!(check_known(strings(&["--jobs=4x"]), &known), Ok(()));
        // A prefix collision is still unknown.
        assert!(check_known(strings(&["--jobsx=4"]), &known).is_err());
        // A switch takes no `=` value.
        assert!(check_known(strings(&["--chaos=1"]), &[CHAOS]).is_err());
    }

    #[test]
    fn trailing_valueless_flag_is_left_to_the_value_parser() {
        assert_eq!(check_known(strings(&["--jobs"]), &[JOBS]), Ok(()));
        assert!(count_of(strings(&["--jobs"]), JOBS).is_err());
    }

    #[test]
    fn usage_lists_every_flag() {
        let u = usage("exp_99_demo", &[JOBS, SHARDS]);
        assert!(u.starts_with("usage: exp_99_demo [--jobs N] [--shards N]"));
        assert!(u.contains("worker threads"));
        assert!(u.contains("shard count"));
    }

    #[test]
    fn standard_flags_cover_the_universal_registry() {
        let flags = standard_flags();
        let names: Vec<&str> = flags.iter().map(|f| f.name).collect();
        assert_eq!(names, vec!["--jobs", "--metrics-out"]);
        let u = usage("exp_00", &flags);
        assert!(u.contains("--metrics-out PATH"), "{u}");
        assert!(!u.contains("--flight-recorder"), "{u}");
        // The standard set accepts its own flags in both spellings; the
        // flight recorder is an extra flag of the binaries that read it.
        let args = ["--metrics-out=m.json", "--flight-recorder", "32"];
        assert!(check_known(strings(&args), &flags).is_err());
        let mut extended = flags.clone();
        extended.push(FLIGHT_RECORDER);
        assert_eq!(check_known(strings(&args), &extended), Ok(()));
        // A bare switch is an extra flag of the binaries that read it,
        // accepted anywhere in their argument list and nowhere else.
        let args = ["--chaos", "--jobs", "2"];
        assert!(check_known(strings(&args), &flags).is_err());
        assert_eq!(check_known(strings(&args), &[JOBS, CHAOS]), Ok(()));
    }

    #[test]
    fn doubling_sweep_covers_powers_of_two_and_the_max() {
        assert_eq!(doubling_sweep(0), Vec::<usize>::new());
        assert_eq!(doubling_sweep(1), vec![1]);
        assert_eq!(doubling_sweep(8), vec![1, 2, 4, 8]);
        assert_eq!(doubling_sweep(6), vec![1, 2, 4, 6]);
        assert_eq!(doubling_sweep(13), vec![1, 2, 4, 8, 13]);
    }
}
