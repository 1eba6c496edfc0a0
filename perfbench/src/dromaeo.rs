//! The Dromaeo-DOM pass: the paper's Table 2 `dom` + `jslib` benchmarks,
//! the transition-heavy part of Dromaeo, where almost all of PKRU-Safe's
//! overhead sits.
//!
//! A *pass* runs every benchmark through `workloads::run_benchmark` under
//! `base`, `alloc` and `mpk`, interleaved per benchmark, and checks that
//! the three agree on every checksum; `dom_pass_ms` is the `mpk` column's
//! timed total. The traced pass repeats `run_benchmark`'s steps with a
//! span around each call.

use std::time::{Duration, Instant};

use minijs::Value;
use pkru_provenance::Profile;
use servolite::{Browser, BrowserConfig};
use workloads::{micro_page, profile_for, run_benchmark, Benchmark};

use crate::report::Report;
use crate::stats::{listing, median, quantile};
use crate::trace::{LayerTimes, SpanLog};
use crate::{Spread, TraceSink};

/// Timed blocks per benchmark in `run_benchmark` (its min-of-k).
const BLOCKS: u32 = 3;
/// Fewest passes in a traced run, whatever the budget.
const MIN_TRACED_PASSES: usize = 2;

/// The configurations of a pass, in run order.
const CONFIGS: [BrowserConfig; 3] = [BrowserConfig::Base, BrowserConfig::Alloc, BrowserConfig::Mpk];

/// The 13 `dom` and `jslib` benchmarks.
fn benchmarks() -> Vec<Benchmark> {
    workloads::dromaeo().into_iter().filter(|b| b.sub == "dom" || b.sub == "jslib").collect()
}

/// The enforcement profile of the benchmarks (`workloads::profile_for`).
pub fn profile() -> Result<Profile, String> {
    profile_for(&benchmarks()).map_err(|e| format!("profile_for: {e}"))
}

fn profile_of(config: BrowserConfig, profile: &Profile) -> Option<&Profile> {
    (config != BrowserConfig::Base).then_some(profile)
}

/// One untraced pass through `run_benchmark`.
struct Pass {
    /// Timed seconds per configuration, summed over benchmarks.
    seconds: [f64; 3],
    /// Checksums per benchmark and configuration.
    checksums: Vec<[f64; 3]>,
    /// Wall time of the whole pass, seconds.
    wall_s: f64,
}

fn untraced_pass(benches: &[Benchmark], profile: &Profile) -> Result<Pass, String> {
    let start = Instant::now();
    let mut seconds = [0.0; 3];
    let mut checksums = Vec::with_capacity(benches.len());
    for bench in benches {
        let mut row = [0.0; 3];
        for (i, config) in CONFIGS.into_iter().enumerate() {
            let result = run_benchmark(config, profile_of(config, profile), bench)
                .map_err(|e| format!("run_benchmark {config:?}: {e}"))?;
            seconds[i] += result.seconds;
            row[i] = result.checksum;
        }
        checksums.push(row);
    }
    Ok(Pass { seconds, checksums, wall_s: start.elapsed().as_secs_f64() })
}

/// Output gate of a pass: checksums agree across configurations, and
/// with the run's first pass.
fn gate_pass(report: &mut Report, benches: &[Benchmark], pass: &Pass, first: Option<&Pass>) {
    let first = first.unwrap_or(pass);
    let mut failed = 0;
    for ((bench, row), first_row) in benches.iter().zip(&pass.checksums).zip(&first.checksums) {
        let agree = row.iter().all(|c| c.to_bits() == first_row[0].to_bits());
        if !agree {
            failed += 1;
            report.problems.push(format!(
                "dromaeo {}: checksums base/alloc/mpk {row:?}, first pass {}",
                bench.name, first_row[0]
            ));
        }
    }
    report.count(benches.len() as u64 * 3, failed);
}

/// Untraced passes, spread over the gaps of the run.
pub struct Passes {
    spread: Spread,
    passes: Vec<Pass>,
}

impl Passes {
    /// No passes yet; `spread` paces them over the run.
    pub fn new(spread: Spread) -> Passes {
        Passes { spread, passes: Vec::new() }
    }

    /// Runs gap `gap`'s passes, gating each.
    pub fn run_gap(
        &mut self,
        gap: usize,
        profile: &Profile,
        report: &mut Report,
    ) -> Result<(), String> {
        let benches = benchmarks();
        while self.spread.more(gap) {
            let pass = untraced_pass(&benches, profile)?;
            gate_pass(report, &benches, &pass, self.passes.first());
            self.spread.spent(pass.wall_s);
            self.passes.push(pass);
        }
        Ok(())
    }

    /// Records `dom_pass_ms`: the upper quartile of the passes' `mpk`
    /// totals (see `stats::quantile` for why not the median).
    pub fn finish(&self, report: &mut Report) {
        let mpk: Vec<f64> = self.passes.iter().map(|p| p.seconds[2] * 1e3).collect();
        let over_base: Vec<f64> = self.passes.iter().map(|p| p.seconds[2] / p.seconds[0]).collect();
        report.set("dom_pass_ms", quantile(&mpk, 0.75));
        report.note(format!(
            "dromaeo dom+jslib: {} passes, mpk/base median {:.3}, mpk ms per pass: {}",
            self.passes.len(),
            median(&over_base),
            listing(&mpk, 3)
        ));
    }
}

/// What the traced passes measured.
pub struct DomTrace {
    /// Median mpk/alloc timed ratio (the gate cost, §5.3).
    pub mpk_over_alloc: f64,
    /// Median alloc/base timed ratio (the allocator cost, §5.3).
    pub alloc_over_base: f64,
    /// Summed wall time of the traced passes, seconds.
    pub wall_s: f64,
}

/// `run_benchmark`'s steps, each in a span; returns the checksum.
fn traced_benchmark(
    config: BrowserConfig,
    profile: &Profile,
    bench: &Benchmark,
    log: &mut SpanLog,
    req: u64,
) -> Result<f64, String> {
    let fail = |e: servolite::BrowserError| format!("{} {config:?}: {e}", bench.name);
    let mut browser = log
        .time(req, "servolite.setup", || {
            Browser::with_tlb(config, profile_of(config, profile), None, None, true)
        })
        .0
        .map_err(fail)?;
    log.time(req, "servolite.load_html", || browser.load_html(micro_page())).0.map_err(fail)?;
    log.time(req, "minijs.eval", || browser.eval_script(&bench.source)).0.map_err(fail)?;
    log.time(req, "minijs.run", || browser.call_script("run", &[])).0.map_err(fail)?;
    let mut checksum = 0.0;
    for _ in 0..BLOCKS * bench.iterations {
        checksum = match log.time(req, "minijs.run", || browser.call_script("run", &[])).0 {
            Ok(Value::Num(n)) => n,
            other => return Err(format!("{} {config:?}: checksum {other:?}", bench.name)),
        };
    }
    Ok(checksum)
}

/// Pairs of (untraced pass, traced pass) for `budget` (at least
/// [`MIN_TRACED_PASSES`]). The §5.3 ratios come from the untraced passes;
/// spans from the traced ones, whose checksums must match.
pub fn traced_passes(
    profile: &Profile,
    budget: Duration,
    report: &mut Report,
    times: &mut LayerTimes,
    sink: &mut TraceSink,
) -> Result<DomTrace, String> {
    let benches = benchmarks();
    let start = Instant::now();
    let mut untraced: Vec<Pass> = Vec::new();
    let mut wall_s = 0.0;
    while untraced.len() < MIN_TRACED_PASSES || start.elapsed() < budget {
        let pass = untraced_pass(&benches, profile)?;
        gate_pass(report, &benches, &pass, untraced.first());
        let origin = Instant::now();
        let mut log = SpanLog::new(origin, "pass");
        let mut failed = 0;
        for (b, bench) in benches.iter().enumerate() {
            for config in CONFIGS {
                let checksum = traced_benchmark(config, profile, bench, &mut log, b as u64 + 1)?;
                if checksum.to_bits() != pass.checksums[b][0].to_bits() {
                    failed += 1;
                    report.problems.push(format!(
                        "traced dromaeo {} {config:?}: checksum {checksum}",
                        bench.name
                    ));
                }
            }
        }
        report.count(benches.len() as u64 * 3, failed);
        wall_s += origin.elapsed().as_secs_f64();
        times.add(&log);
        sink.add(&format!("pass{}", untraced.len()), std::slice::from_ref(&log));
        untraced.push(pass);
    }
    let ratio = |num: usize, den: usize| {
        median(&untraced.iter().map(|p| p.seconds[num] / p.seconds[den]).collect::<Vec<_>>())
    };
    Ok(DomTrace { mpk_over_alloc: ratio(2, 1), alloc_over_base: ratio(1, 0), wall_s })
}
