//! Smoke test: every workload, untraced and traced, prints exactly the
//! metrics `BENCHMARK.json` names, each with its unit, and a failed
//! invocation prints no result.
//!
//! Each workload run lasts at least its open-loop phases (1000 requests
//! at each rate, about 20 s), so the whole file takes a few minutes:
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// `(name, unit)` pairs of one metric list of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json next to perfbench/");
    let start = text.find(&format!("\"{section}\"")).expect("section present");
    let end = text[start..].find(']').map(|e| start + e).expect("section closes");
    let field = |entry: &str, key: &str| {
        let at = entry.find(&format!("\"{key}\": \"")).expect("field present") + key.len() + 5;
        entry[at..].split('"').next().expect("quoted value").to_string()
    };
    text[start..end]
        .split('{')
        .skip(1)
        .map(|entry| (field(entry, "name"), field(entry, "unit")))
        .collect()
}

fn run(args: &[&str]) -> Output {
    let binary = PathBuf::from(env!("CARGO_BIN_EXE_perfbench"));
    // <target>/<profile>/perfbench: keep span files in the same target.
    let target = binary.parent().and_then(Path::parent).expect("target directory");
    Command::new(&binary)
        .args(args)
        .env("CARGO_TARGET_DIR", target)
        .output()
        .expect("benchmark runs")
}

fn check_workload(workload: &str) {
    for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
        let out = run(&["--workload", workload, "--seed", "3", "--seconds", "1", "--trace", trace]);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success(),
            "{workload} --trace {trace} failed:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let result = stdout.lines().last().expect("a result line");
        assert!(result.starts_with("{\"correct\":true,\"attempted\":"), "{result}");
        assert!(result.contains("\"failed\":0,"), "{result}");
        let metrics = declared(section);
        assert_eq!(result.matches("\"value\":").count(), metrics.len(), "{result}");
        for (name, unit) in &metrics {
            let needle = format!("\"{name}\":{{\"value\":");
            let at = result.find(&needle).unwrap_or_else(|| panic!("{name} missing: {result}"));
            let rest = &result[at + needle.len()..];
            let value: f64 = rest.split(',').next().and_then(|v| v.parse().ok()).expect("number");
            assert!(value.is_finite(), "{name} = {value}");
            let unit_field = rest.split('}').next().expect("metric object");
            assert!(unit_field.ends_with(&format!("\"unit\":\"{unit}\"")), "{name}: {unit_field}");
        }
        assert!(
            stdout.contains("# workload ")
                && stdout.contains(" nproc ")
                && stdout.contains(" commit ")
        );
    }
}

#[test]
fn serve_closed_emits_every_metric() {
    check_workload("serve-closed");
}

#[test]
fn serve_tenants_open_emits_every_metric() {
    check_workload("serve-tenants-open");
}

#[test]
fn bad_invocations_print_no_result() {
    for args in [&["--workload", "nope", "--seed", "1"][..], &["--seed", "1"], &["--workload"]] {
        let out = run(args);
        assert!(!out.status.success(), "{args:?} succeeded");
        assert!(!String::from_utf8_lossy(&out.stdout).contains("\"correct\""), "{args:?}");
    }
}
