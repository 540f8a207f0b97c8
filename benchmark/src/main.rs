//! The benchmark `BENCHMARK.json` names: seven workloads over the
//! public functions of the `dsa` facade, timed from outside.
//!
//! ```text
//! dsa-benchmark run    [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]]
//! dsa-benchmark repeat [--seed N] [--seconds S]
//! ```
//!
//! `run --workload NAME` measures one workload in this process and
//! prints every metric by name and unit, then one JSON object as its
//! last line. Without `--workload` it runs the seven one after another,
//! each in a child process of its own. `repeat` runs the untraced pass
//! twice and fails unless the two agree within the metrics' bounds.

mod layers;
mod metrics;
mod run;
mod spans;
mod stats;
mod sys;
mod workloads;

use std::process::{Command, ExitCode, Stdio};

use metrics::{Better, END_TO_END, MODEL_COST};

/// The tuning seed; 7691 is held out. Digests are pinned for both.
const DEFAULT_SEED: u64 = 1967;
/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 10.0;

const USAGE: &str = "usage: dsa-benchmark run [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]]\n       dsa-benchmark repeat [--seed N] [--seconds S]";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                if !workloads::NAMES.contains(&name.as_str()) {
                    return Err(format!(
                        "unknown workload {name}; one of {}",
                        workloads::NAMES.join(", ")
                    ));
                }
                out.workload = Some(name);
            }
            "--seed" => {
                out.seed = value("a whole number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let s: f64 = value("a number of seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err("--seconds must be above 0 and at most 60".to_owned());
                }
                out.seconds = s;
            }
            // `--trace` alone turns tracing on; the driver passes 0 or 1.
            "--trace" => {
                out.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(out)
}

fn child(workload: &str, args: &Args, capture: bool) -> std::io::Result<(bool, String)> {
    let mut command = Command::new(std::env::current_exe()?);
    command
        .arg("run")
        .args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }]);
    // Both `status` and `output` wait for the child to end, so none
    // outlives this call.
    if !capture {
        return Ok((command.status()?.success(), String::new()));
    }
    let output = command.stderr(Stdio::inherit()).output()?;
    Ok((
        output.status.success(),
        String::from_utf8_lossy(&output.stdout).into_owned(),
    ))
}

/// Every workload, each in a child of its own so that one's memory
/// high-water mark cannot hide in another's.
fn run_all(args: &Args) -> ExitCode {
    let mut ok = true;
    for workload in workloads::NAMES {
        match child(workload, args, false) {
            Ok((passed, _)) => ok &= passed,
            Err(e) => {
                eprintln!("{workload}: could not run a child process: {e}");
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        eprintln!("at least one workload failed its correctness gate");
        ExitCode::FAILURE
    }
}

/// The `metric <workload> <name> <value> <unit>` and `digest` lines of
/// one untraced pass, keyed by workload and name.
fn read_pass(args: &Args) -> Result<Vec<(String, String, String)>, String> {
    let mut lines = Vec::new();
    for workload in workloads::NAMES {
        let (passed, stdout) = child(workload, args, true).map_err(|e| e.to_string())?;
        if !passed {
            return Err(format!("{workload} failed its correctness gate"));
        }
        for line in stdout.lines() {
            let words: Vec<&str> = line.split_whitespace().collect();
            match words.as_slice() {
                ["metric", w, name, value, _unit] => {
                    lines.push(((*w).to_owned(), (*name).to_owned(), (*value).to_owned()));
                }
                ["digest", w, _seed, digest, ..] => {
                    lines.push(((*w).to_owned(), "digest".to_owned(), (*digest).to_owned()));
                }
                _ => {}
            }
        }
    }
    Ok(lines)
}

/// Runs the untraced pass twice. The modeled side (`model_cost_per_op`,
/// `fail_ratio`, and the digest over every exact count) must agree
/// exactly; each host-side metric of the second pass may be worse than
/// the first by at most its bound.
fn repeat(args: &Args) -> ExitCode {
    let passes = match (read_pass(args), read_pass(args)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("repeat: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for ((workload, name, first), (_, _, second)) in passes.0.iter().zip(&passes.1) {
        let verdict = match END_TO_END.iter().find(|e| e.decl.name == name) {
            Some(e) => {
                let (a, b): (f64, f64) =
                    (first.parse().unwrap_or(0.0), second.parse().unwrap_or(0.0));
                let worse = match e.decl.better {
                    Better::Lower => b - a,
                    Better::Higher => a - b,
                };
                worse <= (e.bound * a).max(e.slack)
            }
            None if name == MODEL_COST.name || name == "fail_ratio" || name == "digest" => {
                first == second
            }
            None => continue,
        };
        println!(
            "{} {workload} {name} {first} {second}",
            if verdict { "agree   " } else { "DISAGREE" }
        );
        ok &= verdict;
    }
    if ok && passes.0.len() == passes.1.len() {
        println!("repeat: the two passes agree");
        ExitCode::SUCCESS
    } else {
        eprintln!("repeat: the two passes disagree");
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match argv.split_first() {
        Some((c, rest)) if c == "run" || c == "repeat" => (c.as_str(), rest),
        _ => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let args = match parse(rest) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match (command, &args.workload) {
        ("repeat", _) => repeat(&args),
        ("run", None) => run_all(&args),
        ("run", Some(workload)) => {
            if run::measure(workload, args.seed, args.seconds, args.trace) {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        _ => unreachable!("only run and repeat reach here"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metrics::PER_LAYER;

    fn benchmark_json() -> String {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        std::fs::read_to_string(path).expect("BENCHMARK.json sits beside the benchmark directory")
    }

    /// The text of the array under `"key":`, brackets excluded. The
    /// file's strings hold no brackets, so counting them finds the end.
    fn array<'a>(json: &'a str, key: &str) -> &'a str {
        let at = json.find(&format!("\"{key}\":")).expect("the key is there");
        let open = at + json[at..].find('[').expect("an array follows the key");
        let mut depth = 0;
        for (i, c) in json[open..].char_indices() {
            match c {
                '[' => depth += 1,
                ']' if depth == 1 => return &json[open + 1..open + i],
                ']' => depth -= 1,
                _ => {}
            }
        }
        panic!("the array under {key} never closes");
    }

    /// Every value of `"field": <value>` in `text`, quotes stripped.
    fn values(text: &str, field: &str) -> Vec<String> {
        let marker = format!("\"{field}\":");
        text.match_indices(&marker)
            .map(|(at, _)| {
                let rest = text[at + marker.len()..].trim_start();
                let end = match rest.strip_prefix('"') {
                    Some(quoted) => return quoted[..quoted.find('"').expect("closed")].to_owned(),
                    None => rest.find([',', '}', '\n']).unwrap_or(rest.len()),
                };
                rest[..end].trim().to_owned()
            })
            .collect()
    }

    fn word(better: Better) -> &'static str {
        match better {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    #[test]
    fn every_metric_printed_is_declared_in_benchmark_json_and_vice_versa() {
        let json = benchmark_json();
        let end_to_end = array(&json, "end_to_end");
        let declared: Vec<_> = END_TO_END
            .iter()
            .map(|e| (e.decl.name, e.decl.unit, word(e.decl.better)))
            .collect();
        let listed: Vec<_> = values(end_to_end, "name")
            .into_iter()
            .zip(values(end_to_end, "unit"))
            .zip(values(end_to_end, "better"))
            .collect();
        assert_eq!(listed.len(), declared.len());
        for (((name, unit), better), d) in listed.iter().zip(&declared) {
            assert_eq!((name.as_str(), unit.as_str(), better.as_str()), *d);
        }
        let bounds: Vec<f64> = values(end_to_end, "bound")
            .iter()
            .map(|b| b.parse().expect("a number"))
            .collect();
        assert_eq!(bounds, END_TO_END.map(|e| e.bound));
        assert!(bounds.iter().all(|&b| b > 0.0 && b <= 0.25));
        assert!(listed
            .iter()
            .any(|((n, u), b)| n == "setup_s" && u == "s" && b == "lower"));

        let per_layer = array(&json, "per_layer");
        let listed: Vec<_> = values(per_layer, "name")
            .into_iter()
            .zip(values(per_layer, "unit"))
            .zip(values(per_layer, "better"))
            .collect();
        assert_eq!(listed.len(), PER_LAYER.len());
        for (((name, unit), better), d) in listed.iter().zip(&PER_LAYER) {
            assert_eq!(
                (name.as_str(), unit.as_str(), better.as_str()),
                (d.name, d.unit, word(d.better))
            );
        }
    }

    #[test]
    fn workloads_command_and_run_length_match_benchmark_json() {
        let json = benchmark_json();
        assert_eq!(values(array(&json, "workloads"), "name"), workloads::NAMES);
        assert!(values(array(&json, "workloads"), "why")
            .iter()
            .all(|why| !why.is_empty() && why.len() <= 200));
        assert_eq!(values(&json, "run_seconds"), [DEFAULT_SECONDS.to_string()]);
        assert!(array(&json, "paths").contains("\"benchmark\""));
        let command = array(&json, "command");
        assert!(
            command.contains("\"benchmark/Cargo.toml\"") && command.trim_end().ends_with("\"run\"")
        );
        // The layer name lists and the declared metric names agree.
        let declared = |name: String| PER_LAYER.iter().any(|d| d.name == name);
        assert!(layers::POLICIES
            .iter()
            .all(|p| declared(format!("paging.replay_ns_per_ref.{p}"))));
        assert!(layers::ALLOCATORS
            .iter()
            .all(|a| declared(format!("freelist.ns_per_op.{a}"))));
        assert!(layers::MACHINES
            .iter()
            .all(|m| declared(format!("machines.run_ns_per_touch.{m}"))));
    }

    #[test]
    fn arguments_parse_as_the_driver_passes_them() {
        let argv = |s: &str| s.split(' ').map(str::to_owned).collect::<Vec<_>>();
        let a = parse(&argv(
            "--workload heap_local --seed 7 --seconds 3 --trace 1",
        ))
        .expect("valid");
        assert_eq!(a.workload.as_deref(), Some("heap_local"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 3.0, true));
        let a = parse(&argv("--trace 0 --seed 9")).expect("valid");
        assert_eq!((a.seed, a.trace, a.workload), (9, false, None));
        assert!(parse(&argv("--trace")).expect("valid").trace);
        assert!(parse(&[]).is_ok_and(|a| a.seed == DEFAULT_SEED && !a.trace));
        for bad in [
            "--workload nope",
            "--seed x",
            "--seconds 0",
            "--seconds 61",
            "--frobnicate",
        ] {
            assert!(parse(&argv(bad)).is_err(), "{bad}");
        }
    }
}
