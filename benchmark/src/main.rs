//! The repo's benchmark: four workloads from click graph to served rewrite.
//!
//! ```text
//! simrankpp-benchmark --workload <name>|all [--seed N] [--graph-seed N]
//!                     [--seconds S] [--trace 0|1] [--quick] [--out FILE]
//! ```
//!
//! It drives the system only through public functions of the crates and
//! times those calls from outside. An untraced run (`--trace 0`) prints the
//! end-to-end metrics; a traced run repeats the workload with a span around
//! each public call and prints the per-layer metrics. The last line of
//! standard output is one JSON object; the exit code is non-zero when any
//! output check failed. See `README.md` beside this package.

mod check;
#[cfg(test)]
mod determinism;
mod inputs;
mod measure;
mod report;
mod trace;
mod workloads;

use report::{result_json, Report};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workloads::{Ctx, WORKLOADS};

struct Args {
    workload: String,
    seed: u64,
    graph_seed: u64,
    seconds: f64,
    traced: bool,
    quick: bool,
    out: Option<PathBuf>,
}

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
    format!(
        "usage: simrankpp-benchmark --workload <{}|all> [--seed N] [--graph-seed N] \
         [--seconds S] [--trace 0|1] [--quick] [--out FILE]",
        names.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: inputs::DEFAULT_SEED,
        graph_seed: inputs::DEFAULT_SEED,
        seconds: 10.0,
        traced: false,
        quick: false,
        out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" | "--graph-seed" => {
                let v = value()?;
                let seed = match v.strip_prefix("0x") {
                    Some(hex) => u64::from_str_radix(hex, 16),
                    None => v.parse(),
                }
                .map_err(|_| format!("bad {flag} {v:?}"))?;
                if flag == "--seed" {
                    args.seed = seed;
                } else {
                    args.graph_seed = seed;
                }
            }
            "--seconds" => {
                let v = value()?;
                args.seconds = v.parse().map_err(|_| format!("bad --seconds {v:?}"))?;
                if !(args.seconds >= 1.0 && args.seconds <= 60.0) {
                    return Err(format!("--seconds {v} is outside 1..=60"));
                }
            }
            "--trace" => {
                args.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("bad --trace {v:?} (0 or 1)")),
                }
            }
            "--quick" => args.quick = true,
            "--out" => args.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.iter().any(|(n, _)| *n == args.workload) {
        return Err(format!("unknown --workload {:?}", args.workload));
    }
    Ok(args)
}

/// Where this run may write: beside the executable, which the build put
/// inside the checkout's target directory.
fn scratch_root() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    Ok(exe
        .parent()
        .unwrap_or(Path::new("."))
        .join("benchmark-runs"))
}

/// `all`: each workload in its own process, so peak memory is per workload.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut ok = true;
    for (name, _) in WORKLOADS {
        for trace in ["0", "1"] {
            let mut cmd = std::process::Command::new(&exe);
            cmd.args(["--workload", name, "--trace", trace])
                .args(["--seed", &args.seed.to_string()])
                .args(["--graph-seed", &args.graph_seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()]);
            if args.quick {
                cmd.arg("--quick");
            }
            if let Some(out) = &args.out {
                cmd.arg("--out").arg(out);
            }
            let status = cmd
                .status()
                .map_err(|e| format!("cannot run {name}: {e}"))?;
            ok &= status.success();
        }
    }
    Ok(ok)
}

fn run_one(args: &Args) -> Result<bool, String> {
    let root = scratch_root()?;
    let work = root.join(format!("work-{}-{}", args.workload, std::process::id()));
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    let ctx = Ctx {
        seed: args.seed,
        graph_seed: args.graph_seed,
        seconds: args.seconds,
        traced: args.traced,
        quick: args.quick,
        work: work.clone(),
    };
    let env = format!(
        "available_parallelism={} rustc={:?} commit={} seed={:#x} graph_seed={:#x} seconds={} trace={} quick={}",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        std::env::var("BENCHMARK_RUSTC").unwrap_or_else(|_| "unknown".into()),
        std::env::var("BENCHMARK_COMMIT").unwrap_or_else(|_| "unknown".into()),
        args.seed,
        args.graph_seed,
        args.seconds,
        u8::from(args.traced),
        args.quick,
    );
    println!("workload {} {env}", args.workload);

    let mut report = Report::default();
    let ran = workloads::run(&args.workload, &ctx, &mut report);
    // An operation that returned an error is a failed op like any other.
    report.check("workload", ran);
    if let Some(tracer) = report.tracer.take() {
        let path = root.join(format!("trace-{}.jsonl", args.workload));
        let written = std::fs::File::create(&path)
            .and_then(|f| tracer.write_jsonl(std::io::BufWriter::new(f)));
        match written {
            Ok(()) => report.note(format!(
                "{} spans written to {}",
                tracer.spans().len(),
                path.display()
            )),
            Err(e) => report.check("trace file", Err(e.to_string())),
        }
    }
    let _ = std::fs::remove_dir_all(&work);

    for note in &report.notes {
        println!("  {note}");
    }
    let metrics = report.metrics(args.traced);
    for (name, value, unit) in &metrics {
        println!("{name} = {value} {unit}");
    }
    for failure in &report.failures {
        println!("FAILED {failure}");
    }
    let failed = report.failed;
    println!("ops = {} failed_ops = {failed}", report.ops);
    let line = result_json(&metrics, report.ops, failed, args.quick);
    if let Some(out) = &args.out {
        use std::io::Write;
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(out)
            .and_then(|mut f| {
                writeln!(
                    f,
                    "{{\"workload\": \"{}\", \"env\": \"{}\", \"result\": {line}}}",
                    args.workload,
                    env.replace('"', "'")
                )
            });
        if let Err(e) = appended {
            return Err(format!("{}: {e}", out.display()));
        }
    }
    println!("{line}");
    Ok(failed == 0)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let outcome = if args.workload == "all" {
        run_all(&args)
    } else {
        run_one(&args)
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
