//! Machine-readable output for the benchmark runner.
//!
//! Tables are for eyeballs; CI and plotting scripts want stable JSON: one
//! object per configuration with one row per benchmark, carrying
//! everything a downstream consumer needs to recompute overheads (seconds,
//! iterations, ns/iter) and verify determinism (checksums).

use pkru_provenance::json::{self, JsonWriter};

use crate::runner::{ConfigReport, RunResult};

fn write_row(w: &mut JsonWriter, row: &RunResult) {
    let ns_per_iter =
        if row.iterations > 0 { row.seconds * 1e9 / f64::from(row.iterations) } else { 0.0 };
    w.object(|w| {
        w.field("suite", row.suite)
            .field("sub", row.sub)
            .field("name", row.name)
            .field("seconds", row.seconds)
            .field("iterations", row.iterations)
            .field("ns_per_iter", ns_per_iter)
            .field("transitions", row.transitions)
            .field("percent_mu", row.percent_mu)
            .field("checksum", row.checksum);
    });
}

/// Renders labelled configuration reports as a JSON array, one object
/// per configuration.
pub fn report_json(reports: &[(String, ConfigReport)]) -> String {
    json::render(|w| {
        w.array(reports, |w, (label, report)| {
            w.object(|w| {
                w.field("config", label);
                w.key("rows").array(&report.rows, write_row);
                w.field("total_transitions", report.total_transitions())
                    .field("mean_percent_mu", report.mean_percent_mu());
            });
        });
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row() -> RunResult {
        RunResult {
            name: "fft",
            suite: "kraken",
            sub: "",
            seconds: 0.5,
            iterations: 10,
            transitions: 20,
            percent_mu: 48.5,
            checksum: 123.25,
        }
    }

    #[test]
    fn renders_rows_and_derived_rate() {
        let report = ConfigReport { rows: vec![row()] };
        let json = report_json(&[("mpk".into(), report)]);
        assert!(json.starts_with("[{\"config\":\"mpk\",\"rows\":[{"), "{json}");
        assert!(json.contains("\"name\":\"fft\""));
        assert!(json.contains("\"iterations\":10"));
        assert!(json.contains("\"ns_per_iter\":50000000"));
        assert!(json.contains("\"checksum\":123.25"));
        assert!(json.contains("\"total_transitions\":20"));
    }

    #[test]
    fn non_finite_measurements_render_as_null() {
        let report = ConfigReport { rows: vec![RunResult { checksum: f64::NAN, ..row() }] };
        assert!(report_json(&[("base".into(), report)]).contains("\"checksum\":null"));
    }
}
