//! Shared by the in-process gauntlets (`golden_outputs`,
//! `telemetry_outputs`): run an experiment on an argument list as its
//! binary would, read a golden file, show where two outputs part.

use std::path::{Path, PathBuf};

use dsa_bench::{experiment, Args, Report};

/// Runs experiment `name` in-process on `argv`; a parse error or a
/// `Failure` fails the test.
pub fn run(name: &str, argv: &[&str]) -> Report {
    let exp = experiment(name);
    let argv: Vec<String> = argv.iter().map(|a| (*a).to_owned()).collect();
    let args = Args::parse(&argv, exp.flags).unwrap_or_else(|e| panic!("{name} {argv:?}: {e:?}"));
    (exp.run)(&args).unwrap_or_else(|f| panic!("{name} {argv:?} failed: {}", f.message))
}

/// The path of `tests/golden/<file>` at the workspace root.
pub fn golden_path(file: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden")
        .join(file)
}

/// The contents of `tests/golden/<file>`.
pub fn golden(file: &str) -> String {
    let path = golden_path(file);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()))
}

/// First differing line, for a readable failure message.
pub fn first_diff(a: &str, b: &str) -> String {
    for (i, (la, lb)) in a.lines().zip(b.lines()).enumerate() {
        if la != lb {
            return format!(
                "first difference at line {}:\n  got:  {la}\n  want: {lb}",
                i + 1
            );
        }
    }
    format!(
        "line counts differ: got {} lines, want {}",
        a.lines().count(),
        b.lines().count()
    )
}
