//! Table 2 + Figure 4: Dromaeo sub-suite overhead and transitions.
//!
//! Paper reference (alloc / mpk, transitions, %M_U): dom 7.85% / 30.74%,
//! 7.3e8, 50.30% · v8 −2.31% / 0.53% · dromaeo 15.87% / 4.64% ·
//! sunspider −1.34% / −0.81% · jslib 9.39% / 22.65%, 1.0e9 — the DOM-bound
//! sub-suites dominate because of their transition rates (§5.3).

use std::collections::BTreeMap;

use bench::header;
use servolite::BrowserConfig;
use workloads::{dromaeo, profile_for, report_json, run_matrix, ConfigReport};

fn sub_rows<'a>(report: &'a ConfigReport, sub: &str) -> Vec<&'a workloads::RunResult> {
    report.rows.iter().filter(|r| r.sub == sub).collect()
}

fn main() {
    let benchmarks = dromaeo();
    let profile = profile_for(&benchmarks).expect("profiling corpus");
    let reports = run_matrix(
        &[
            (BrowserConfig::Base, None),
            (BrowserConfig::Alloc, Some(&profile)),
            (BrowserConfig::Mpk, Some(&profile)),
        ],
        &benchmarks,
    )
    .expect("matrix");
    let [base, alloc, mpk]: [ConfigReport; 3] = reports.try_into().expect("three reports");

    if std::env::args().any(|a| a == "--json") {
        let reports = [("base", base), ("alloc", alloc), ("mpk", mpk)]
            .map(|(label, report)| (format!("dromaeo/{label}"), report));
        println!("{}", report_json(&reports));
        return;
    }

    header(
        "Table 2: Dromaeo sub-suite overhead and statistics",
        &["sub-suite", "alloc", "mpk", "transitions(mpk)", "%M_U"],
    );
    let subs = ["dom", "v8", "dromaeo", "sunspider", "jslib"];
    let mut mean_alloc = 0.0;
    let mut mean_mpk = 0.0;
    for sub in subs {
        let mut over_alloc = Vec::new();
        let mut over_mpk = Vec::new();
        let mut transitions = 0u64;
        let mut mu = Vec::new();
        for b in sub_rows(&base, sub) {
            if let Some(a) = alloc.rows.iter().find(|r| r.name == b.name) {
                over_alloc.push(a.seconds / b.seconds);
            }
            if let Some(m) = mpk.rows.iter().find(|r| r.name == b.name) {
                over_mpk.push(m.seconds / b.seconds);
                transitions += m.transitions;
                mu.push(m.percent_mu);
            }
        }
        let oa = over_alloc.iter().map(|r| r - 1.0).sum::<f64>() / over_alloc.len() as f64 * 100.0;
        let om = over_mpk.iter().map(|r| r - 1.0).sum::<f64>() / over_mpk.len() as f64 * 100.0;
        let mu = mu.iter().sum::<f64>() / mu.len() as f64;
        println!("{sub}\t{oa:+.2}%\t{om:+.2}%\t{transitions}\t{mu:.2}%");
        mean_alloc += oa / subs.len() as f64;
        mean_mpk += om / subs.len() as f64;
    }
    println!("mean\t{mean_alloc:+.2}%\t{mean_mpk:+.2}%\t-\t-");

    header(
        "Figure 4: Dromaeo normalized runtime per benchmark",
        &["benchmark", "sub", "alloc", "mpk"],
    );
    let mut by_name: BTreeMap<&str, (f64, f64, f64, &str)> = BTreeMap::new();
    for b in &base.rows {
        by_name.insert(b.name, (b.seconds, 0.0, 0.0, b.sub));
    }
    for a in &alloc.rows {
        if let Some(entry) = by_name.get_mut(a.name) {
            entry.1 = a.seconds;
        }
    }
    for m in &mpk.rows {
        if let Some(entry) = by_name.get_mut(m.name) {
            entry.2 = m.seconds;
        }
    }
    for (name, (b, a, m, sub)) in by_name {
        println!("{name}\t{sub}\t{:.3}\t{:.3}", a / b, m / b);
    }
}
