//! Shared by the two gauntlets that run `dsa-bench`'s experiment
//! binaries (`golden_outputs`, `telemetry_outputs`).
//!
//! The binaries live in a different package, so `CARGO_BIN_EXE_*` is
//! not available here and `cargo test` at the root does not build
//! them. Each gauntlet therefore builds them itself, once, before it
//! runs the first: `cargo build --release && cargo test -q` is
//! sufficient from a clean checkout.

use std::path::PathBuf;
use std::process::Command;
use std::sync::OnceLock;

/// `target/<profile>/` for the build running this test: the test
/// executable sits in `target/<profile>/deps/`, one level down.
#[allow(dead_code)] // only one of the two gauntlets keeps scratch files here
pub fn bin_dir() -> PathBuf {
    let mut dir = std::env::current_exe().expect("test has a path");
    dir.pop(); // the test executable itself
    if dir.ends_with("deps") {
        dir.pop();
    }
    dir
}

/// The path of experiment binary `bin`, after building every `dsa-bench`
/// binary with the cargo that built this test and in this test's own
/// profile (a no-op when they are fresh). Build failures and missing
/// binaries fail loudly, never skip.
pub fn bin_path(bin: &str) -> PathBuf {
    static BUILT: OnceLock<PathBuf> = OnceLock::new();
    let dir = BUILT.get_or_init(|| {
        let dir = bin_dir();
        let mut build = Command::new(env!("CARGO"));
        build.current_dir(env!("CARGO_MANIFEST_DIR")).args([
            "build",
            "--offline",
            "--quiet",
            "-p",
            "dsa-bench",
            "--bins",
        ]);
        if dir.ends_with("release") {
            build.arg("--release");
        }
        let out = build
            .output()
            .unwrap_or_else(|e| panic!("spawning {build:?}: {e}"));
        assert!(
            out.status.success(),
            "{build:?} exited with {:?}; stderr:\n{}",
            out.status.code(),
            String::from_utf8_lossy(&out.stderr)
        );
        dir
    });
    let path = dir.join(bin);
    assert!(
        path.exists(),
        "{} missing although `cargo build -p dsa-bench --bins` succeeded",
        path.display()
    );
    path
}
