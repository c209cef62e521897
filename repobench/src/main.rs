//! The repository benchmark: two workloads through the production
//! entry points (`Runner`, `run_cells_streaming`, `ResultStore`,
//! `Server`, `Client`), each printing its end-to-end metrics, or with
//! `--trace 1` its per-layer metrics, as one JSON line. See README.md.
//!
//! ```text
//! cargo run --release --manifest-path repobench/Cargo.toml -- \
//!     --workload paper-sweep --seed 1 --seconds 45 --trace 0
//! ```

mod cells;
mod layers;
mod report;
mod serve;
mod stats;
mod sweep;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use report::{Metrics, END_TO_END, PER_LAYER};
use stats::Tally;

/// Worker threads of every sweep. The host has two cores, but with two
/// busy simulation threads the sweep rate swung by 40% between phases
/// of the shared host lasting minutes, while one busy thread stayed
/// within a few percent; see README.md.
pub const WORKERS: usize = 1;
/// Set-up repetitions per sweep round; `setup_s` is the median over
/// all rounds, so it samples the host at several points of the run.
pub const SETUP_REPS: usize = 3;
/// Samples that make a p99 (warm) and a p90 (cold) reportable: each
/// needs ten samples beyond it.
pub const WARM_MIN: usize = 1_000;
pub const COLD_MIN: usize = 100;

/// The workloads; README.md gives the reason for each.
const WORKLOADS: [&str; 2] = ["paper-sweep", "serve-mixed"];

/// What one run reports.
#[derive(Default)]
pub struct RunOutput {
    /// Report lines printed before the result line.
    pub lines: Vec<String>,
    /// Every operation attempted, with failures and mismatches.
    pub tally: Tally,
    pub metrics: Metrics,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10.0f64, false);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".to_string());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "repobench: {e}\nusage: --workload {} --seed N --seconds S --trace 0|1",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let out_dir = Path::new(".bench_out");
    let dir: PathBuf = out_dir.join(format!("{}-{}", args.workload, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("repobench: cannot create {}: {e}", dir.display());
        return ExitCode::from(2);
    }
    let steal_before = report::steal_ticks();
    let (out, tracer) = match (args.workload.as_str(), args.trace) {
        ("paper-sweep", false) => (sweep::run(&sweep::PAPER_SWEEP, args.seconds, &dir), None),
        ("paper-sweep", true) => {
            let (o, t) = sweep::run_traced(&sweep::PAPER_SWEEP, &dir);
            (o, Some(t))
        }
        (_, trace) => serve::run(args.seed, args.seconds, &dir, trace),
    };
    let steal_after = report::steal_ticks();
    let _ = std::fs::remove_dir_all(&dir);

    if let Some(tracer) = tracer {
        let path = out_dir.join(format!("trace-{}-seed{}.tsv", args.workload, args.seed));
        match trace::write_tsv(&path, &tracer.spans()) {
            Ok(()) => println!("trace: {}", path.display()),
            Err(e) => eprintln!("repobench: cannot write {}: {e}", path.display()),
        }
    }
    println!(
        "workload: {} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("model: unvalidated (no hardware reference; no error figure); caches start empty in every cell; statistics start after warmup");
    println!("{}", report::host_line(steal_before, steal_after));
    for line in &out.lines {
        println!("{line}");
    }
    let defs = if args.trace { PER_LAYER } else { END_TO_END };
    let mut metrics = Metrics::new();
    let mut missing = false;
    for &(name, _) in defs {
        let v = out.metrics.get(name).copied().filter(|v| v.is_finite());
        if v.is_none() {
            println!("error: metric {name} could not be measured");
            missing = true;
        }
        metrics.insert(name, v.unwrap_or(0.0));
    }
    let t = &out.tally;
    let correct = t.failed == 0 && !missing;
    println!(
        "fail_frac={:.6} attempted={} failed={}",
        t.fail_frac(),
        t.attempted,
        t.failed
    );
    println!(
        "{}",
        report::result_line(correct, t.attempted, t.failed, defs, &metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
