//! The repository benchmark. See `README.md` beside this package for why
//! each workload exists, which layers it exercises, and how the per-layer
//! metrics map onto the end-to-end ones.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve-fresh --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--workload all` runs every workload, each in a process of its own,
//! and exits non-zero if any of them fails an output check. With
//! `--trace 0` a run reports the end-to-end metrics, measured with
//! tracing off; with `--trace 1` it runs the same work untraced, with
//! counters only, and with full spans, checks that all three produced
//! identical outputs, and reports the per-layer metrics. The last line of
//! standard output is always one JSON object.

mod profile;
mod report;
mod serve;
mod ticks;
mod train;

use std::process::{Command, ExitCode};

use report::Outcome;

const WORKLOADS: [&str; 4] = [
    "serve-fresh",
    "serve-aging",
    "train-adapt",
    "multiclass-ticks",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} or all",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

/// Seeds for every generated input, derived from `--seed` (splitmix64),
/// so one seed fixes every arrival trace and `train-adapt`'s training
/// samples and held-out batches.
#[derive(Debug, Clone, Copy)]
pub struct Seeds {
    pub trace: u64,
    pub training: u64,
    pub held_out: u64,
}

impl Seeds {
    fn from(seed: u64) -> Seeds {
        let mix = |k: u64| {
            let mut z = seed.wrapping_add(k.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        Seeds {
            trace: mix(1),
            training: mix(2),
            held_out: mix(3),
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            eprintln!(
                "usage: perfbench --workload <{}|all> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };

    // glibc adds malloc arenas as threads contend, up to eight per CPU,
    // and each keeps the memory freed into it, so peak RSS would depend on
    // how the threads happened to collide. Two arenas per CPU (set before
    // the process starts, hence the re-exec, as the `scaling` bench does)
    // make it repeat and leave the main thread and each training worker an
    // arena of its own. With one per CPU, a tightened Percentile retrain
    // took either ~0.9 s or ~2.3 s from one pass to the next, as its two
    // workers did or did not land on the same arena; a single arena
    // doubled cold-training time.
    if std::env::var_os("MALLOC_ARENA_MAX").is_none() {
        return rerun_with_arenas();
    }
    if args.workload == "all" {
        return run_children(&args);
    }

    let seeds = Seeds::from(args.seed);
    let outcome = match args.workload.as_str() {
        "serve-fresh" => serve::run(&serve::FRESH, seeds, args.seconds, args.trace),
        "serve-aging" => serve::run(&serve::AGING, seeds, args.seconds, args.trace),
        "train-adapt" => train::run(seeds, args.seconds, args.trace),
        "multiclass-ticks" => ticks::run(seeds, args.seconds, args.trace),
        _ => unreachable!("parse_args admits only known workloads"),
    };
    finish(&args.workload, &outcome, args.trace)
}

fn finish(workload: &str, outcome: &Outcome, trace: bool) -> ExitCode {
    outcome.print(workload, trace);
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs this command again, with `MALLOC_ARENA_MAX` set to twice the CPU
/// count, and passes its exit status on.
fn rerun_with_arenas() -> ExitCode {
    let arenas = 2 * std::thread::available_parallelism().map_or(1, |n| n.get());
    let status = std::env::current_exe().and_then(|exe| {
        Command::new(exe)
            .args(std::env::args_os().skip(1))
            .env("MALLOC_ARENA_MAX", arenas.to_string())
            .status()
    });
    match status {
        Ok(s) if s.success() => ExitCode::SUCCESS,
        Ok(_) => ExitCode::FAILURE,
        Err(err) => {
            eprintln!("perfbench: cannot re-run itself: {err}");
            ExitCode::FAILURE
        }
    }
}

/// Runs each workload in a child process of its own, so that each one's
/// `peak_rss_mb` is its own high-water mark, and waits for it. The
/// children's tables stream through; a summary line follows, and the exit
/// status is non-zero if any child failed.
fn run_children(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(err) => {
            eprintln!("perfbench: cannot find own executable: {err}");
            return ExitCode::FAILURE;
        }
    };
    let mut failed = Vec::new();
    for workload in WORKLOADS {
        let status = Command::new(&exe)
            .args(["--workload", workload])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status();
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => failed.push(format!("{workload} exited with {s}")),
            Err(err) => failed.push(format!("{workload} did not start: {err}")),
        }
    }
    for f in &failed {
        eprintln!("perfbench: {f}");
    }
    println!(
        "{{\"workloads\": {}, \"failed\": {}}}",
        WORKLOADS.len(),
        failed.len()
    );
    if failed.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Peak resident memory of this process so far, in MB: the kernel's
/// high-water mark (`VmHWM`). The `scaling` bench's sampler reads `VmRSS`
/// every 10 ms, which can only under-read this, and its thread would wake
/// a hundred times a second inside the measurement. 0 where the field is
/// missing.
pub fn peak_rss_mb() -> f64 {
    let kb = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?.to_owned();
            line.split_whitespace().nth(1)?.parse::<u64>().ok()
        })
        .unwrap_or(0);
    kb as f64 / 1024.0
}
