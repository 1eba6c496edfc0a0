//! Source check: one module changes a worker's compartment.
//!
//! The rights a tenant request runs under (the untrusted PKRU and its
//! lease stamp, the syscall filter, the violation handler, the tenant
//! handler's grant scope) are installed and restored by the
//! `Compartment` guard alone, whose `Drop` no return or unwind can skip.
//! A second call site of any setter would be a second restore path that
//! can be skipped; this test refuses one anywhere in `src/` outside
//! `compartment.rs`.

use std::fs;
use std::path::{Path, PathBuf};

/// Every call that changes compartment state on a worker's browser.
const SETTERS: [&str; 6] = [
    "set_untrusted_lease",
    "set_untrusted_pkru",
    "install_syscall_filter",
    "set_violation_handler",
    "clear_violation_handler",
    "refresh_tenant_scope",
];

/// The only module allowed to name them.
const GUARD: &str = "compartment.rs";

fn rust_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).expect("read src dir") {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            rust_sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Whether `line`, with any `//` comment cut off, names `ident` as a
/// whole identifier.
fn names(line: &str, ident: &str) -> bool {
    let code = line.split("//").next().unwrap_or("");
    let is_ident = |c: char| c.is_alphanumeric() || c == '_';
    code.match_indices(ident).any(|(at, _)| {
        let before = code[..at].chars().next_back();
        let after = code[at + ident.len()..].chars().next();
        !before.is_some_and(is_ident) && !after.is_some_and(is_ident)
    })
}

#[test]
fn compartment_setters_are_called_only_inside_the_guard() {
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
    let mut files = Vec::new();
    rust_sources(&src, &mut files);
    let mut outside = Vec::new();
    let mut in_guard = [false; SETTERS.len()];
    for file in &files {
        let text = fs::read_to_string(file).expect("read source");
        let is_guard = file.file_name().is_some_and(|n| n == GUARD);
        for (lineno, line) in text.lines().enumerate() {
            for (i, setter) in SETTERS.iter().enumerate() {
                if !names(line, setter) {
                    continue;
                }
                if is_guard {
                    in_guard[i] = true;
                } else {
                    outside.push(format!("{}:{}: {setter}", file.display(), lineno + 1));
                }
            }
        }
    }
    assert!(
        outside.is_empty(),
        "compartment state changed outside {GUARD}:\n{}",
        outside.join("\n")
    );
    // The check is only meaningful while the guard really is the one
    // place that installs and restores every piece of state.
    for (setter, found) in SETTERS.iter().zip(in_guard) {
        assert!(found, "{GUARD} no longer calls {setter}");
    }
}

#[test]
fn the_check_sees_calls_and_ignores_comments() {
    assert!(names("    m.gates.set_untrusted_pkru(base);", "set_untrusted_pkru"));
    assert!(names("let f = Machine::install_syscall_filter;", "install_syscall_filter"));
    assert!(!names("    // `set_untrusted_pkru` also drops the stamp", "set_untrusted_pkru"));
    assert!(!names("    m.set_untrusted_pkru_later(x);", "set_untrusted_pkru"));
}
