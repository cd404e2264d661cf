//! End-to-end and per-layer benchmark of the FreezeML checking service.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload edit-large|cold-stream|query-mix --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. It builds the `freezeml` binary (release)
//! first. `--trace 0` drives that binary over TCP and prints the
//! end-to-end metrics; `--trace 1` runs the same streams through the
//! service's layers in process and prints the per-layer metrics. The last
//! line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. See README.md.

mod check;
mod gen;
mod live;
mod traced;

use gen::Kind;
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Duration;

/// Fresh servers set up per run, spread over it (see [`live::run`]);
/// `setup_s` is their p90. The first one serves the measured phase.
const SETUPS: usize = 10;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = num()?,
            "--seconds" => args.seconds = num()?.max(1),
            "--trace" => args.trace = num()? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// Build the shipped binary from this checkout and return its path.
fn build_server() -> Result<PathBuf, String> {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let status = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "-p",
            "freezeml",
            "--bin",
            "freezeml",
        ])
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building the freezeml binary failed ({status})"));
    }
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    let bin = target.join("release").join("freezeml");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!("no binary at {}", bin.display()))
    }
}

/// Bind this thread, and so every thread and process it starts later
/// (the servers among them), to the first CPU it may run on; returns
/// that CPU.
///
/// Client and server then hand each request over on one CPU. Spread
/// over the two vCPUs of the measuring VM, every round trip woke an
/// idle vCPU, which the host schedules late by a varying amount: over
/// five seeds cold-stream's read p90 spread 0.83 of its median, against
/// 0.05 on one CPU. The server sizes its worker pool from the same mask.
#[cfg(target_os = "linux")]
fn pin_to_one_cpu() -> Result<usize, String> {
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    // A `cpu_set_t`: 1024 bits.
    let mut mask = [0u64; 16];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a writable buffer of `size` bytes, the layout of
    // `cpu_set_t`; pid 0 is the calling thread.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return Err(std::io::Error::last_os_error().to_string());
    }
    let cpu = (0..1024)
        .find(|&c| mask[c / 64] & (1 << (c % 64)) != 0)
        .ok_or("empty CPU mask")?;
    let mut one = [0u64; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: as above; the kernel only reads `one`.
    if unsafe { sched_setaffinity(0, size, one.as_ptr()) } != 0 {
        return Err(std::io::Error::last_os_error().to_string());
    }
    Ok(cpu)
}

#[cfg(not(target_os = "linux"))]
fn pin_to_one_cpu() -> Result<usize, String> {
    Err("CPU affinity is only set on Linux".to_string())
}

/// The value at quantile `q` (nearest rank) of `v`, which it sorts.
pub fn quantile(v: &mut [f64], q: f64) -> f64 {
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

fn result_line(
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: &[(&str, f64, &str)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"))
        .collect();
    format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        body.join(",")
    )
}

/// Equal-count blocks of consecutive answers over which
/// `requests_per_s_p5` takes its rates.
const BLOCKS: usize = 100;

/// The answer rate kept up in 19 of 20 blocks: split the answers, in
/// arrival order, into [`BLOCKS`] blocks of equal count and take the
/// 5th percentile of their rates.
fn sustained_rate(answered_at: &[Duration]) -> f64 {
    let per = (answered_at.len() / BLOCKS).max(1);
    let mut rates: Vec<f64> = answered_at
        .chunks_exact(per)
        .enumerate()
        .map(|(j, block)| {
            let from = if j == 0 {
                Duration::ZERO
            } else {
                answered_at[j * per - 1]
            };
            per as f64 / (block[per - 1] - from).as_secs_f64()
        })
        .collect();
    quantile(&mut rates, 0.05)
}

/// The end-to-end metrics of a live run.
///
/// The measuring host switches between two speeds about 1.6x apart
/// within a second, in proportions that drift over minutes. A median
/// falls between the two and moves with the proportion, so the metrics
/// are p95 latencies, a p5 rate and a p90 set-up time, which sit in the
/// slow mode and repeat; medians and the whole-phase rate are printed
/// on stderr only.
fn end_to_end(out: &live::Outcome) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
    let mut metrics = vec![("setup_s", quantile(&mut out.setup_s.clone(), 0.9), "s")];
    eprintln!(
        "perfbench: setup_s is the p90 of {} servers spread over the run: {:?}",
        out.setup_s.len(),
        out.setup_s
            .iter()
            .map(|s| format!("{s:.4}"))
            .collect::<Vec<_>>()
    );
    for (kind, name, p95_name) in [
        (Kind::Write, "write", "write_p95_ms"),
        (Kind::Query, "query", "query_p95_ms"),
    ] {
        let mut ms: Vec<f64> = out
            .latencies
            .iter()
            .filter(|(k, _)| *k == kind)
            .map(|(_, d)| d.as_secs_f64() * 1e3)
            .collect();
        // A p95 needs at least ten samples beyond it.
        if ms.len() < 200 {
            return Err(format!("only {} {name} samples; a p95 needs 200", ms.len()));
        }
        let (p50, p95) = (quantile(&mut ms, 0.5), quantile(&mut ms, 0.95));
        eprintln!(
            "perfbench: {name:<5} n={:<6} p50 {p50:.4} ms  p95 {p95:.4} ms",
            ms.len()
        );
        metrics.push((p95_name, p95, "ms"));
    }
    let wall = out.wall.as_secs_f64();
    let rate = sustained_rate(&out.answered_at);
    eprintln!(
        "perfbench: {} lines in {wall:.3} s = {:.1} lines/s, {rate:.1} in 19 of 20 blocks; \
         peak RSS {:.1} MiB; {} of {} failed",
        out.latencies.len(),
        out.latencies.len() as f64 / wall,
        out.peak_rss_mb,
        out.failed,
        out.attempted
    );
    metrics.push(("requests_per_s_p5", rate, "1/s"));
    metrics.push(("peak_rss_mb", out.peak_rss_mb, "MiB"));
    Ok(metrics)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(conns) = gen::workload(&args.workload, args.seed, args.seconds) else {
        eprintln!(
            "perfbench: unknown workload `{}` (one of {:?})",
            args.workload,
            gen::WORKLOADS
        );
        return ExitCode::from(2);
    };
    // The key is checked against the `core` engine before any run.
    if let Err(e) = check::cross_check() {
        eprintln!("perfbench: the answer key disagrees with the core engine:\n{e}");
        return ExitCode::FAILURE;
    }
    let bin = match build_server() {
        Ok(b) => b,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    match pin_to_one_cpu() {
        Ok(cpu) => eprintln!("perfbench: measuring on CPU {cpu} alone"),
        Err(e) => eprintln!("perfbench: measuring unpinned: {e}"),
    }
    let line = if args.trace {
        let rtt = match live::rtt_us(&bin, 2000) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("perfbench: round-trip probe: {e}");
                return ExitCode::FAILURE;
            }
        };
        let path = PathBuf::from("perfbench/traces").join(format!("{}.jsonl", args.workload));
        let layers = traced::run(&conns, rtt, &path);
        result_line(
            layers.failed == 0,
            layers.attempted,
            layers.failed,
            &layers.metrics,
        )
    } else {
        let out = match live::run(&bin, &conns, SETUPS) {
            Ok(o) => o,
            Err(e) => {
                eprintln!("perfbench: {e}");
                return ExitCode::FAILURE;
            }
        };
        for p in &out.problems {
            eprintln!("perfbench: {p}");
        }
        let metrics = match end_to_end(&out) {
            Ok(m) => m,
            Err(e) => {
                eprintln!("perfbench: {e}");
                return ExitCode::FAILURE;
            }
        };
        result_line(
            out.failed == 0 && out.problems.is_empty(),
            out.attempted,
            out.failed,
            &metrics,
        )
    };
    println!("{line}");
    ExitCode::SUCCESS
}
