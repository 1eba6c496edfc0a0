//! The repository's benchmark: serve throughput and latency at fixed
//! rates, and the cost of enforcement on Dromaeo-DOM.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve-closed --seed 1 --seconds 55 --trace 0
//! ```
//!
//! Workloads: `serve-closed` and `serve-tenants-open` (see
//! `BENCHMARK.json` for why each exists). A run interleaves closed-loop
//! serving, open-loop phases at fixed rates and Dromaeo-DOM passes, so
//! every phase samples the whole run. With `--trace 0` it calls the
//! production entry points (`pkru_server::serve`,
//! `workloads::run_benchmark`) and prints the end-to-end metrics; the
//! latency of each fixed-rate phase goes on a metadata line, not into a
//! metric (see `report::note_rates` for why); with
//! `--trace 1` it replays the same seeded inputs through each layer's
//! public functions, timing the calls from outside, and prints the
//! per-layer metrics. Either way the enforcement canary runs first and
//! every output is checked: a failed check prints the reasons on stderr,
//! no numbers, and exits 1. Metadata lines start with `#`; the last line
//! of standard output is the JSON result.

mod dromaeo;
mod probes;
mod report;
mod serving;
mod stats;
mod trace;

use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

use report::{Report, RATES};
use serving::Shape;
use trace::{LayerTimes, SpanLog};

/// The workloads, by name.
const WORKLOADS: [&str; 2] = ["serve-closed", "serve-tenants-open"];

/// Requests of an open-loop phase: the fewest that leave ten latency
/// samples beyond p99.
pub const RATE_SAMPLES: u64 = 1000;
/// Below this share of traced busy time covered by layer spans, the trace
/// has holes and the traced run fails.
pub const MIN_ACCOUNTED: f64 = 0.95;
/// Tenants of `serve-tenants-open`: twice the hardware keys there are.
const TENANTS: usize = 32;

/// How long a run measures, split among its phases.
pub struct Budget {
    seconds: f64,
}

impl Budget {
    /// `share` of the run's measuring time.
    pub fn part(&self, share: f64) -> Duration {
        Duration::from_secs_f64(self.seconds * share)
    }

    /// Paces work sampled in short pieces over the gaps around `phases`
    /// open-loop phases (one before each, one after the last).
    pub fn spread(&self, share: f64, phases: usize) -> Spread {
        Spread { budget: self.part(share).as_secs_f64(), gaps: phases + 1, spent: 0.0, pieces: 0 }
    }
}

/// Spreads pieces of work (closed-loop calls, Dromaeo passes) over the
/// whole run instead of one stretch of it, since the host's speed drifts
/// over seconds: by the end of gap `g` of `gaps`, `(g + 1) / gaps` of the
/// budget is spent. The first gap always runs one piece.
pub struct Spread {
    budget: f64,
    gaps: usize,
    spent: f64,
    pieces: usize,
}

impl Spread {
    /// Whether gap `gap` should run another piece.
    pub fn more(&self, gap: usize) -> bool {
        self.pieces == 0 || self.spent < self.budget * (gap + 1) as f64 / self.gaps as f64
    }

    /// Records a piece that took `seconds`.
    pub fn spent(&mut self, seconds: f64) {
        self.spent += seconds;
        self.pieces += 1;
    }
}

/// Spans of a traced run, kept in memory and written when it ends.
#[derive(Default)]
pub struct TraceSink {
    jsonl: String,
}

impl TraceSink {
    /// Adds the spans of one phase.
    pub fn add(&mut self, phase: &str, logs: &[SpanLog]) {
        for log in logs {
            log.write_jsonl(phase, &mut self.jsonl);
        }
    }
}

/// Records `trace.accounted_share` from the layers' self times over the
/// traced busy time (wall time minus waiting for work), notes each
/// layer's share, and fails the run if the trace has holes.
pub fn record_accounting(report: &mut Report, times: &LayerTimes, wall_s: f64) {
    let share = times.accounted_share(wall_s);
    report.set("trace.accounted_share", share);
    let busy_s = wall_s - times.idle_s;
    let layers: Vec<String> = times
        .self_s
        .iter()
        .map(|(layer, s)| format!("{layer} {:.1}%", 100.0 * s / busy_s))
        .collect();
    report.note(format!(
        "layer self time over traced busy {busy_s:.3} s: {}; unspanned inside requests {:.2}%; waiting for work {:.3} s",
        layers.join(", "),
        100.0 * times.hole_s / busy_s,
        times.idle_s
    ));
    report.check(share >= MIN_ACCOUNTED, || {
        format!(
            "trace accounts for {:.1}% of traced busy time (< {:.0}%)",
            share * 100.0,
            MIN_ACCOUNTED * 100.0
        )
    });
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload} (one of {})", WORKLOADS.join(", ")));
    }
    let seconds: u64 = seconds.unwrap_or(55);
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args { workload, seed: seed.unwrap_or(1), seconds, trace: trace.unwrap_or(false) })
}

/// The commit of the checkout, read from `.git` without running git.
fn git_commit() -> String {
    let read = |p: &Path| fs::read_to_string(p).ok().map(|s| s.trim().to_string());
    let Some(head) = read(Path::new(".git/HEAD")) else {
        return "unknown (not a git checkout)".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Some(commit) = read(&Path::new(".git").join(reference)) {
        return commit;
    }
    read(Path::new(".git/packed-refs"))
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                line.strip_suffix(reference).map(|commit| commit.trim().to_string())
            })
        })
        .unwrap_or_else(|| format!("unknown ({reference})"))
}

/// Peak resident memory of this process, MiB.
fn peak_rss_mb() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Where the spans of a traced run go: under the build directory.
fn trace_path(workload: &str, seed: u64) -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| ".bench_build".into());
    PathBuf::from(target).join("perfbench-traces").join(format!("{workload}-seed{seed}.jsonl"))
}

fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let budget = Budget { seconds: args.seconds as f64 };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    report.note(format!(
        "workload {} seed {} seconds {} trace {} nproc {} rates {:?} rps p99 limit {} ms commit {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        nproc,
        RATES,
        report::SLO_P99_MS,
        git_commit()
    ));
    probes::canary(&mut report);
    if !report.problems.is_empty() {
        return report;
    }
    let shape = match args.workload.as_str() {
        "serve-closed" => Shape { workers: 1, tenants: 0 },
        _ => Shape { workers: 1, tenants: TENANTS },
    };
    if !args.trace {
        serving::measure(shape, args.seed, &budget, &mut report);
        if let Some(rss) = peak_rss_mb() {
            report.set("peak_rss_mb", rss);
        }
        return report;
    }
    let costs = match probes::unit_costs(args.seed) {
        Ok(costs) => costs,
        Err(e) => {
            report.problems.push(format!("unit-cost probes: {e}"));
            return report;
        }
    };
    probes::record_unit_costs(&mut report, &costs);
    let mut sink = TraceSink::default();
    serving::trace(shape, args.seed, &budget, &costs, &mut report, &mut sink);
    let path = trace_path(&args.workload, args.seed);
    let written = path
        .parent()
        .map_or(Ok(()), fs::create_dir_all)
        .and_then(|()| fs::write(&path, &sink.jsonl));
    match written {
        Ok(()) => report.note(format!("spans written to {}", path.display())),
        Err(e) => report.problems.push(format!("writing spans to {}: {e}", path.display())),
    }
    report
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let report = run(&args);
    let failed_share = report.failed as f64 / report.attempted.max(1) as f64;
    for note in &report.notes {
        println!("# {note}");
    }
    println!(
        "# attempted {} failed {} failed_share {failed_share}",
        report.attempted, report.failed
    );
    match report.result_line(args.trace) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(problems) => {
            for problem in problems {
                eprintln!("perfbench: check failed: {problem}");
            }
            ExitCode::FAILURE
        }
    }
}
