//! `repro_all` at `SIMRANKPP_SCALE=tiny`, byte for byte against the
//! committed goldens: the no-section stdout followed by the stdout of
//! `repro_all ablation-evidence ablation-spread ablation-weights` against
//! `golden/repro_tiny.out`, and the no-section run's `repro_report.json`
//! against `golden/repro_tiny.json`. A changed digit of any figure fails
//! here. The goldens guard regressions; they make no claim about quality.
//! `ablation-pruning` prints wall-clock times, so no golden can pin it.

use std::path::{Path, PathBuf};
use std::process::Command;

/// A fresh directory to run in: `repro_all` writes `repro_report.json` to
/// its working directory.
fn scratch_dir() -> PathBuf {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .unwrap()
        .as_nanos();
    let dir = std::env::temp_dir().join(format!(
        "simrankpp_repro_golden_{}_{nanos}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs `repro_all` with `sections` in `dir` at the tiny scale and returns
/// its stdout.
fn repro_all(dir: &Path, sections: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_repro_all"))
        .args(sections)
        .current_dir(dir)
        .env("SIMRANKPP_SCALE", "tiny")
        .output()
        .expect("repro_all starts");
    assert!(
        out.status.success(),
        "repro_all {sections:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

/// Asserts `got` equals the golden file `name` byte for byte, naming the
/// first line that differs.
fn assert_golden(got: &str, name: &str) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    let want = std::fs::read_to_string(&path).unwrap();
    let first_diff = got.lines().zip(want.lines()).position(|(g, w)| g != w);
    if let Some(i) = first_diff {
        let (g, w) = (got.lines().nth(i), want.lines().nth(i));
        panic!("{name} line {}: got {g:?}, want {w:?}", i + 1);
    }
    assert_eq!(got, want, "{name}");
}

#[test]
fn tiny_reproduction_matches_the_goldens() {
    let dir = scratch_dir();
    let mut stdout = repro_all(&dir, &[]);
    let report = std::fs::read_to_string(dir.join("repro_report.json")).unwrap();
    stdout += &repro_all(
        &dir,
        &["ablation-evidence", "ablation-spread", "ablation-weights"],
    );
    std::fs::remove_dir_all(&dir).ok();
    assert_golden(&stdout, "repro_tiny.out");
    assert_golden(&report, "repro_tiny.json");
}
