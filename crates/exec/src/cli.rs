//! The shared experiment-binary flags.
//!
//! Every `exp_*` binary accepts `--jobs N` (or `--jobs=N`): the number
//! of worker threads the grid fans across. The default is all hardware
//! threads; `--jobs 1` forces the inline sequential path, whose output
//! every parallel width must reproduce byte for byte.
//!
//! The binaries that can dump a probe event stream (E4, E5) share
//! `--trace-out <path>` (or `--trace-out=<path>`) the same way, and
//! the concurrency experiment (E18) shares `--shards N`, so no binary
//! hand-rolls its own flag loop.
//!
//! Binaries declare which of these flags they accept via
//! `enforce_known_flags`, which rejects anything unrecognized with a
//! usage message on stderr and exit status 2 — a misspelled flag must
//! never be silently ignored (a `--shrads 8` that quietly runs the
//! default sweep is worse than an error).

use std::path::PathBuf;

use crate::pool::available_jobs;

/// One flag a binary accepts: its name, its value placeholder (if it
/// takes one), and a help line for the usage message.
#[derive(Clone, Copy, Debug)]
pub struct FlagSpec {
    /// The flag itself, e.g. `--jobs`.
    pub name: &'static str,
    /// The value placeholder (`Some("N")` for `--jobs N`), or `None`
    /// for a bare switch.
    pub value: Option<&'static str>,
    /// One help line for the usage message.
    pub help: &'static str,
}

/// The `--jobs N` flag every experiment binary accepts.
pub(crate) const JOBS: FlagSpec = FlagSpec {
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

/// Whether a bare switch (a [`FlagSpec`] with no value) is present in
/// the process arguments.
#[must_use]
pub fn switch_from_env(flag: FlagSpec) -> bool {
    std::env::args().skip(1).any(|a| a == flag.name)
}

/// The `--metrics-out PATH` flag every experiment binary accepts: dump
/// end-of-run metrics to PATH (`.json` for JSON, anything else for
/// Prometheus text exposition format).
pub(crate) const METRICS_OUT: FlagSpec = FlagSpec {
    name: "--metrics-out",
    value: Some("PATH"),
    help: "write end-of-run metrics to PATH (.json for JSON, else Prometheus text)",
};

/// The `--flight-recorder N` flag every experiment binary accepts:
/// attach a lock-free flight recorder retaining the last N probe
/// events per thread for postmortem dumps.
pub(crate) const FLIGHT_RECORDER: FlagSpec = FlagSpec {
    name: "--flight-recorder",
    value: Some("N"),
    help: "retain the last N probe events per thread for postmortem dumps",
};

/// The flags *every* experiment binary accepts: `--jobs`,
/// `--metrics-out`, `--flight-recorder`. One
/// registry, so adding a universal flag is a one-line change that
/// reaches all binaries (and the `--help` test that checks each one).
#[must_use]
pub(crate) fn standard_flags() -> Vec<FlagSpec> {
    vec![JOBS, METRICS_OUT, FLIGHT_RECORDER]
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
    let mut out = format!("usage: {bin}");
    for f in known {
        match f.value {
            Some(v) => {
                out.push_str(&format!(" [{} {v}]", f.name));
            }
            None => out.push_str(&format!(" [{}]", f.name)),
        }
    }
    out.push('\n');
    for f in known {
        let head = match f.value {
            Some(v) => format!("{} {v}", f.name),
            None => f.name.to_owned(),
        };
        out.push_str(&format!("  {head:<18} {}\n", f.help));
    }
    out
}

/// Checks that every argument is a flag from `known` (in either the
/// `--flag value` or `--flag=value` spelling).
///
/// Value well-formedness is *not* checked here — that stays with the
/// flag's own parser (`parse_jobs` etc.); this pass only refuses
/// arguments no parser would ever look at.
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
                    // flag parser's error to report.
                    let _ = args.next();
                }
            }
            None => return Err(format!("unrecognized argument: {a}")),
        }
    }
    Ok(())
}

/// Rejects unrecognized process arguments: prints the offending
/// argument and the usage message on stderr and exits with status 2.
/// `--help`/`-h` print the usage on stdout and exit 0.
///
/// Call this first in every binary's `main`, naming the flags the
/// binary accepts.
pub(crate) fn enforce_known_flags(bin: &str, known: &[FlagSpec]) {
    let args: Vec<String> = std::env::args().skip(1).collect();
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

/// Extracts a `name <n>` / `name=<n>` positive-count flag from an
/// argument list, ignoring every other argument.
fn parse_count<I>(args: I, name: &str) -> Result<Option<usize>, String>
where
    I: IntoIterator<Item = String>,
{
    let mut args = args.into_iter();
    while let Some(a) = args.next() {
        let value = if a == name {
            args.next()
                .ok_or_else(|| format!("{name} requires a value"))?
        } else if let Some(v) = a.strip_prefix(name).and_then(|rest| rest.strip_prefix('=')) {
            v.to_owned()
        } else {
            continue;
        };
        let n: usize = value
            .parse()
            .map_err(|_| format!("{name}: not a number: {value}"))?;
        if n == 0 {
            return Err(format!("{name} must be at least 1"));
        }
        return Ok(Some(n));
    }
    Ok(None)
}

/// Extracts a `--jobs` value from an argument list, ignoring every
/// other argument (binaries parse their own flags).
///
/// Returns `Ok(None)` when the flag is absent.
///
/// # Errors
///
/// Returns a message when the flag is present without a value, the
/// value is not a number, or the value is zero.
pub fn parse_jobs<I>(args: I) -> Result<Option<usize>, String>
where
    I: IntoIterator<Item = String>,
{
    parse_count(args, "--jobs")
}

/// Extracts a `--shards` value from an argument list, ignoring every
/// other argument.
///
/// Returns `Ok(None)` when the flag is absent.
///
/// # Errors
///
/// As [`parse_jobs`], for `--shards`.
pub(crate) fn parse_shards<I>(args: I) -> Result<Option<usize>, String>
where
    I: IntoIterator<Item = String>,
{
    parse_count(args, "--shards")
}

/// The `--shards` value from the process arguments, if given. Exits
/// with status 2 on a malformed flag, like [`jobs_from_env`].
#[must_use]
pub(crate) fn shards_from_env() -> Option<usize> {
    match parse_shards(std::env::args().skip(1)) {
        Ok(n) => n,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    }
}

/// The `--shards` value from the process arguments, or `default` when
/// the flag is absent — the one place the experiment binaries derive
/// their shard count. Exits with status 2 on a malformed flag, like
/// [`jobs_from_env`].
#[must_use]
pub fn shards_or(default: usize) -> usize {
    shards_from_env().unwrap_or(default)
}

/// A binary-local positive-count flag (a [`FlagSpec`] with a value)
/// read from the process arguments, `None` when absent. Exits with
/// status 2 on a malformed flag, like [`jobs_from_env`].
#[must_use]
pub fn count_flag_from_env(flag: FlagSpec) -> Option<usize> {
    match parse_count(std::env::args().skip(1), flag.name) {
        Ok(n) => n,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    }
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

/// The `--jobs` value from the process arguments, defaulting to all
/// hardware threads. Exits with status 2 on a malformed flag, like the
/// binaries' other flag parsers.
#[must_use]
pub fn jobs_from_env() -> usize {
    match parse_jobs(std::env::args().skip(1)) {
        Ok(explicit) => explicit.unwrap_or_else(available_jobs),
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    }
}

/// Extracts a `name <path>` / `name=<path>` flag from an argument
/// list, ignoring every other argument.
fn parse_path<I>(args: I, name: &str) -> Result<Option<PathBuf>, String>
where
    I: IntoIterator<Item = String>,
{
    let mut args = args.into_iter();
    while let Some(a) = args.next() {
        let value = if a == name {
            args.next()
                .ok_or_else(|| format!("{name} requires a path"))?
        } else if let Some(v) = a.strip_prefix(name).and_then(|rest| rest.strip_prefix('=')) {
            if v.is_empty() {
                return Err(format!("{name} requires a path"));
            }
            v.to_owned()
        } else {
            continue;
        };
        return Ok(Some(PathBuf::from(value)));
    }
    Ok(None)
}

/// Extracts a `--trace-out` path from an argument list, ignoring every
/// other argument.
///
/// Returns `Ok(None)` when the flag is absent.
///
/// # Errors
///
/// Returns a message when the flag is present without a path.
pub(crate) fn parse_trace_out<I>(args: I) -> Result<Option<PathBuf>, String>
where
    I: IntoIterator<Item = String>,
{
    parse_path(args, "--trace-out")
}

/// Extracts a `--metrics-out` path from an argument list, ignoring
/// every other argument.
///
/// Returns `Ok(None)` when the flag is absent.
///
/// # Errors
///
/// Returns a message when the flag is present without a path.
pub(crate) fn parse_metrics_out<I>(args: I) -> Result<Option<PathBuf>, String>
where
    I: IntoIterator<Item = String>,
{
    parse_path(args, "--metrics-out")
}

/// The `--metrics-out` path from the process arguments, if given.
/// Exits with status 2 on a malformed flag, like [`jobs_from_env`].
#[must_use]
pub fn metrics_out_from_env() -> Option<PathBuf> {
    match parse_metrics_out(std::env::args().skip(1)) {
        Ok(path) => path,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    }
}

/// Extracts a `--flight-recorder` per-thread event capacity from an
/// argument list, ignoring every other argument.
///
/// Returns `Ok(None)` when the flag is absent.
///
/// # Errors
///
/// As [`parse_jobs`], for `--flight-recorder`.
pub(crate) fn parse_flight_recorder<I>(args: I) -> Result<Option<usize>, String>
where
    I: IntoIterator<Item = String>,
{
    parse_count(args, "--flight-recorder")
}

/// The `--flight-recorder` capacity from the process arguments, if
/// given. Exits with status 2 on a malformed flag, like
/// [`jobs_from_env`].
#[must_use]
pub fn flight_recorder_from_env() -> Option<usize> {
    match parse_flight_recorder(std::env::args().skip(1)) {
        Ok(n) => n,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    }
}

/// The `--trace-out` path from the process arguments, if given. Exits
/// with status 2 on a malformed flag, like [`jobs_from_env`].
#[must_use]
pub fn trace_out_from_env() -> Option<PathBuf> {
    match parse_trace_out(std::env::args().skip(1)) {
        Ok(path) => path,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(xs: &[&str]) -> Vec<String> {
        xs.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn absent_flag_is_none() {
        assert_eq!(parse_jobs(strings(&[])), Ok(None));
        assert_eq!(parse_jobs(strings(&["--trace-out", "x.jsonl"])), Ok(None));
    }

    #[test]
    fn both_spellings_parse() {
        assert_eq!(parse_jobs(strings(&["--jobs", "4"])), Ok(Some(4)));
        assert_eq!(parse_jobs(strings(&["--jobs=16"])), Ok(Some(16)));
        assert_eq!(
            parse_jobs(strings(&["--trace-out", "t", "--jobs", "2"])),
            Ok(Some(2))
        );
    }

    #[test]
    fn malformed_values_error() {
        assert!(parse_jobs(strings(&["--jobs"])).is_err());
        assert!(parse_jobs(strings(&["--jobs", "zero"])).is_err());
        assert!(parse_jobs(strings(&["--jobs", "0"])).is_err());
        assert!(parse_jobs(strings(&["--jobs="])).is_err());
    }

    #[test]
    fn trace_out_both_spellings_parse() {
        assert_eq!(parse_trace_out(strings(&[])), Ok(None));
        assert_eq!(parse_trace_out(strings(&["--jobs", "4"])), Ok(None));
        assert_eq!(
            parse_trace_out(strings(&["--trace-out", "t.jsonl"])),
            Ok(Some(PathBuf::from("t.jsonl")))
        );
        assert_eq!(
            parse_trace_out(strings(&["--jobs", "2", "--trace-out=x/y.jsonl"])),
            Ok(Some(PathBuf::from("x/y.jsonl")))
        );
    }

    #[test]
    fn trace_out_without_a_path_errors() {
        assert!(parse_trace_out(strings(&["--trace-out"])).is_err());
        assert!(parse_trace_out(strings(&["--trace-out="])).is_err());
    }

    #[test]
    fn shards_parse_like_jobs() {
        assert_eq!(parse_shards(strings(&[])), Ok(None));
        assert_eq!(parse_shards(strings(&["--shards", "8"])), Ok(Some(8)));
        assert_eq!(parse_shards(strings(&["--shards=2"])), Ok(Some(2)));
        assert!(parse_shards(strings(&["--shards", "0"])).is_err());
        assert!(parse_shards(strings(&["--shards"])).is_err());
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
        // parser owns that error, not the unknown-argument check.
        assert_eq!(check_known(strings(&["--jobs=4x"]), &known), Ok(()));
        // A prefix collision is still unknown.
        assert!(check_known(strings(&["--jobsx=4"]), &known).is_err());
    }

    #[test]
    fn trailing_valueless_flag_is_left_to_the_value_parser() {
        assert_eq!(check_known(strings(&["--jobs"]), &[JOBS]), Ok(()));
        assert!(parse_jobs(strings(&["--jobs"])).is_err());
    }

    #[test]
    fn usage_lists_every_flag() {
        let u = usage("exp_99_demo", &[JOBS, SHARDS]);
        assert!(u.starts_with("usage: exp_99_demo [--jobs N] [--shards N]"));
        assert!(u.contains("worker threads"));
        assert!(u.contains("shard count"));
    }

    #[test]
    fn metrics_out_parses_like_trace_out() {
        assert_eq!(parse_metrics_out(strings(&[])), Ok(None));
        assert_eq!(
            parse_metrics_out(strings(&["--metrics-out", "m.prom"])),
            Ok(Some(PathBuf::from("m.prom")))
        );
        assert_eq!(
            parse_metrics_out(strings(&["--jobs", "2", "--metrics-out=m.json"])),
            Ok(Some(PathBuf::from("m.json")))
        );
        assert!(parse_metrics_out(strings(&["--metrics-out"])).is_err());
        assert!(parse_metrics_out(strings(&["--metrics-out="])).is_err());
    }

    #[test]
    fn flight_recorder_parses_like_jobs() {
        assert_eq!(parse_flight_recorder(strings(&[])), Ok(None));
        assert_eq!(
            parse_flight_recorder(strings(&["--flight-recorder", "256"])),
            Ok(Some(256))
        );
        assert_eq!(
            parse_flight_recorder(strings(&["--flight-recorder=64"])),
            Ok(Some(64))
        );
        assert!(parse_flight_recorder(strings(&["--flight-recorder", "0"])).is_err());
        assert!(parse_flight_recorder(strings(&["--flight-recorder"])).is_err());
    }

    #[test]
    fn standard_flags_cover_the_universal_registry() {
        let flags = standard_flags();
        let names: Vec<&str> = flags.iter().map(|f| f.name).collect();
        assert_eq!(names, vec!["--jobs", "--metrics-out", "--flight-recorder"]);
        let u = usage("exp_00", &flags);
        assert!(u.contains("--metrics-out PATH"), "{u}");
        assert!(u.contains("--flight-recorder N"), "{u}");
        // The standard set accepts its own flags in both spellings.
        assert_eq!(
            check_known(
                strings(&["--metrics-out=m.json", "--flight-recorder", "32"]),
                &flags
            ),
            Ok(())
        );
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
