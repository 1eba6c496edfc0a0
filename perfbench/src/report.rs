//! The metric registry and the result line.
//!
//! Every metric the benchmark can print is named here with its unit, in
//! the same order as `BENCHMARK.json`. A run fills a [`Report`]; the
//! result line is printed only if the report carries exactly the metrics
//! of its mode, every value is finite, and no output check failed.

use std::collections::BTreeMap;

/// The offered rates of the open-loop phases, requests per second.
pub const RATES: [u64; 3] = [100, 200, 300];

/// The latency limit on p99 that `slo_rate_rps` is judged against, ms.
pub const SLO_P99_MS: f64 = 25.0;

/// End-to-end metrics (`--trace 0`), with units.
pub const END_TO_END: &[(&str, &str)] =
    &[("throughput_rps", "1/s"), ("dom_pass_ms", "ms"), ("setup_s", "s"), ("peak_rss_mb", "MiB")];

/// Per-layer metrics (`--trace 1`), with units.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("minijs.parse_us", "us"),
    ("minijs.eval_us", "us"),
    ("minijs.run_us", "us"),
    ("minijs.ic_hit_rate", "ratio"),
    ("gates.transitions", "count/req"),
    ("gates.crossing_ns", "ns"),
    ("gates.share", "ratio"),
    ("gates.mpk_over_alloc", "ratio"),
    ("vmem.tlb_hit_rate", "ratio"),
    ("vmem.tlb_flushes_per_req", "count/req"),
    ("vmem.tlb_hit_ns", "ns"),
    ("vmem.tlb_miss_ns", "ns"),
    ("vmem.resident_mb", "MiB"),
    ("tenant.bind_hit_rate", "ratio"),
    ("tenant.evictions", "count/req"),
    ("tenant.revocations", "count/req"),
    ("tenant.pages_retagged", "count/req"),
    ("tenant.bind_us", "us"),
    ("pkalloc.percent_mu", "%"),
    ("pkalloc.alloc_over_base", "ratio"),
    ("pkalloc.alloc_ns", "ns"),
    ("servolite.load_html_us", "us"),
    ("server.queue_depth_max", "count"),
    ("server.backpressure_waits", "count/req"),
    ("server.producer_lag_ms", "ms"),
    ("core.profile_s", "s"),
    ("provenance.shared_sites", "count"),
    ("trace.accounted_share", "ratio"),
    ("trace.overhead", "ratio"),
];

/// The metrics a run of the given mode must print.
pub fn registry(trace: bool) -> &'static [(&'static str, &'static str)] {
    if trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// Latency of one open-loop phase at a fixed offered rate.
pub struct RatePoint {
    /// Offered rate, requests per second.
    pub rate: u64,
    /// Median latency, ms.
    pub p50_ms: f64,
    /// 99th percentile latency, ms.
    pub p99_ms: f64,
    /// Latency samples behind the percentiles.
    pub samples: usize,
    /// Whether every request succeeded and the queue never filled.
    pub clean: bool,
    /// How the phase ran (producer lag, queue depth), for the notes.
    pub detail: String,
}

/// The highest offered rate whose p99 stays within [`SLO_P99_MS`] with no
/// failed request and no growing backlog (0 if none).
pub fn slo_rate(points: &[RatePoint]) -> u64 {
    let meets = |p: &&RatePoint| p.clean && p.p99_ms <= SLO_P99_MS;
    points.iter().filter(meets).map(|p| p.rate).max().unwrap_or(0)
}

/// Notes the latency of every open-loop phase, one per rate, with its
/// sample count, and the rate [`slo_rate`] finds from them; a phase whose
/// p99 has fewer than ten samples beyond it fails the run.
///
/// None of these readings is a metric. On a 2-vCPU virtual machine whose
/// speed and timer wake-up delay drift over minutes, each followed the
/// host more than the program: the p99s and medians rise with how late
/// wake-ups run (0.2 ms per sleep in a quiet period, 1.2 to 1.9 ms in a
/// busy one); at 300 rps one worker runs at about 80% of its capacity, so
/// a slower host multiplies the queueing; and the median at 100 rps sits
/// in a gap of the catalog's service times (about 1.1 to 1.6 ms, with
/// about 48% of the mix below it), so a seeded stream lands on either
/// side of it.
pub fn note_rates(report: &mut Report, points: &[RatePoint]) {
    for point in points {
        let tail = crate::stats::beyond(point.samples, 0.99);
        report.check(tail >= 10, || {
            format!("rate {}: only {tail} samples beyond p99 (n={})", point.rate, point.samples)
        });
        report.note(format!(
            "rate {} rps: p50 {:.3} ms, p99 {:.3} ms (n={}, {tail} beyond p99), {}",
            point.rate, point.p50_ms, point.p99_ms, point.samples, point.detail
        ));
    }
    report.note(format!(
        "slo_rate_rps {}: highest offered rate with p99 <= {SLO_P99_MS} ms, no failure and a bounded backlog",
        slo_rate(points)
    ));
}

/// What one run measured and checked.
#[derive(Default)]
pub struct Report {
    /// Units of work the run asked for (requests, calls, benchmark runs).
    pub attempted: u64,
    /// Of those, the ones that failed or came back wrong.
    pub failed: u64,
    /// Output checks that did not hold; any entry withholds the result.
    pub problems: Vec<String>,
    /// Run metadata and per-phase detail, printed before the result.
    pub notes: Vec<String>,
    values: BTreeMap<&'static str, f64>,
}

impl Report {
    /// Records metric `name`, which must be in one of the registries.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "metric {name} is not registered"
        );
        self.values.insert(name, value);
    }

    /// Adds a metadata line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Records a failed output check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    /// Counts `attempted` units of work of which `failed` failed.
    pub fn count(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// The result line, or every reason it must be withheld.
    pub fn result_line(&self, trace: bool) -> Result<String, Vec<String>> {
        let mut problems = self.problems.clone();
        let wanted = registry(trace);
        for (name, _) in wanted {
            match self.values.get(name) {
                None => problems.push(format!("metric {name} was not measured")),
                Some(v) if !v.is_finite() => problems.push(format!("metric {name} = {v}")),
                Some(_) => {}
            }
        }
        for name in self.values.keys() {
            if !wanted.iter().any(|(n, _)| n == name) {
                problems.push(format!("metric {name} does not belong to this mode"));
            }
        }
        if self.attempted == 0 {
            problems.push("no work was attempted".into());
        }
        if self.failed > 0 {
            problems.push(format!("{} of {} units of work failed", self.failed, self.attempted));
        }
        if !problems.is_empty() {
            return Err(problems);
        }
        let metrics: Vec<String> = wanted
            .iter()
            .map(|(name, unit)| {
                format!("\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}", self.values[name])
            })
            .collect();
        Ok(format!(
            "{{\"correct\":true,\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.attempted,
            self.failed,
            metrics.join(",")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_needs_every_metric_of_its_mode() {
        let mut report = Report::default();
        report.count(10, 0);
        for (name, _) in END_TO_END {
            report.set(name, 1.5);
        }
        let line = report.result_line(false).expect("complete");
        assert!(line.starts_with("{\"correct\":true,\"attempted\":10,\"failed\":0,"));
        assert!(line.contains("\"setup_s\":{\"value\":1.5,\"unit\":\"s\"}"));
        assert!(report.result_line(true).is_err());
        report.check(false, || "checksum mismatch".into());
        assert!(report.result_line(false).is_err());
    }

    #[test]
    fn slo_rate_is_the_highest_rate_within_the_limit() {
        let point = |rate, p99_ms, clean| RatePoint {
            rate,
            p50_ms: 1.0,
            p99_ms,
            samples: 1000,
            clean,
            detail: String::new(),
        };
        let knee = [point(100, 10.0, true), point(200, 15.0, true), point(300, 35.0, true)];
        assert_eq!(slo_rate(&knee), 200);
        let all = [point(100, 10.0, true), point(200, 15.0, true), point(300, 20.0, true)];
        assert_eq!(slo_rate(&all), 300);
        let backlog = [point(100, 10.0, true), point(200, 15.0, true), point(300, 20.0, false)];
        assert_eq!(slo_rate(&backlog), 200);
        let none = [point(100, 30.0, true), point(200, 40.0, true), point(300, 50.0, true)];
        assert_eq!(slo_rate(&none), 0);
    }

    #[test]
    fn names_are_unique() {
        let all: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|(n, _)| *n).collect();
        for (i, a) in all.iter().enumerate() {
            assert!(!all[i + 1..].contains(a), "{a} twice");
        }
    }
}
