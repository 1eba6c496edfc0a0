//! Golden checksums: the exact result of every suite kernel and of every
//! served catalog script, pinned bit for bit.
//!
//! The runners only compare checksums across base/alloc/mpk on the same
//! engine, so a change to the interpreter that altered results would pass
//! every other gate. These tables were recorded from the hashed-scope
//! evaluator, before scope resolution replaced it.
//!
//! On a mismatch the failure message prints the whole table as computed,
//! in the source form below.

use minijs::Value;
use pkru_server::catalog;
use servolite::{Browser, BrowserConfig};
use workloads::{dromaeo, jetstream2, kraken, micro_page, octane};

/// A fresh baseline browser on the standard page.
fn browser() -> Browser {
    let mut browser = Browser::new(BrowserConfig::Base).expect("browser");
    browser.load_html(micro_page()).expect("page");
    browser
}

/// Evaluates `source` and calls its `run()`, returning the checksum's bits.
fn eval_and_run(browser: &mut Browser, name: &str, source: &str) -> u64 {
    browser.eval_script(source).unwrap_or_else(|e| panic!("{name}: eval: {e}"));
    match browser.call_script("run", &[]) {
        Ok(Value::Num(n)) => n.to_bits(),
        other => panic!("{name}: run() returned {other:?}"),
    }
}

/// Compares `actual` with `golden` row by row; on any difference, fails
/// with every differing row and the full recomputed table.
fn check(table: &str, golden: &[(&str, u64)], actual: &[(String, u64)]) {
    let mut diffs = Vec::new();
    for (i, (name, bits)) in actual.iter().enumerate() {
        match golden.get(i) {
            Some(&(g_name, g_bits)) if g_name == name && g_bits == *bits => {}
            Some(&(g_name, g_bits)) => diffs.push(format!(
                "  {name}: {} ({bits:#018x}), golden {g_name}: {} ({g_bits:#018x})",
                f64::from_bits(*bits),
                f64::from_bits(g_bits)
            )),
            None => diffs.push(format!("  {name}: no golden row")),
        }
    }
    if golden.len() != actual.len() {
        diffs.push(format!("  {} golden rows, {} computed", golden.len(), actual.len()));
    }
    if !diffs.is_empty() {
        let rows: String = actual
            .iter()
            .map(|(name, bits)| format!("    (\"{name}\", {bits:#018x}),\n"))
            .collect();
        panic!("{table} checksums differ:\n{}\ncomputed table:\n{rows}", diffs.join("\n"));
    }
}

/// One `run()` of every Kraken, Octane, JetStream2 and Dromaeo benchmark,
/// each on a fresh baseline browser.
#[test]
fn suite_kernels_match_their_golden_checksums() {
    let suites = [kraken(), octane(), jetstream2(), dromaeo()];
    let actual: Vec<(String, u64)> = suites
        .iter()
        .flatten()
        .map(|b| {
            let name = format!("{}/{}", b.suite, b.name);
            let bits = eval_and_run(&mut browser(), &name, &b.source);
            (name, bits)
        })
        .collect();
    check("suite", SUITE_GOLDEN, &actual);
}

/// Two consecutive eval + `run()` rounds of every catalog script on one
/// browser, as a serve worker reuses its engine across requests.
#[test]
fn catalog_scripts_match_their_golden_checksums_across_reuse() {
    let mut actual = Vec::new();
    for spec in catalog() {
        let mut browser = browser();
        for round in 1..=2 {
            let name = format!("{}#{round}", spec.name);
            let bits = eval_and_run(&mut browser, &name, &spec.source);
            actual.push((name, bits));
        }
    }
    check("catalog", CATALOG_GOLDEN, &actual);
}

const SUITE_GOLDEN: &[(&str, u64)] = &[
    ("kraken/audio-fft", 0x41040a6800000000),
    ("kraken/stanford-crypto-pbkdf2", 0xc1caacd873800000),
    ("kraken/audio-beat-detection", 0x40e3d62000000000),
    ("kraken/stanford-crypto-ccm", 0x40c8580000000000),
    ("kraken/imaging-darkroom", 0x41334e7100000000),
    ("kraken/json-parse-financial", 0x405e000000000000),
    ("kraken/imaging-gaussian-blur", 0x41276db200000000),
    ("kraken/ai-astar", 0x4086c00000000000),
    ("kraken/audio-dft", 0x40b2640000000000),
    ("kraken/stanford-crypto-sha256-iterative", 0x41ddce0c76800000),
    ("kraken/json-stringify-tinderbox", 0x40c98d8000000000),
    ("kraken/audio-oscillator", 0x4146004c80000000),
    ("kraken/stanford-crypto-aes", 0x40cf1b8000000000),
    ("kraken/imaging-desaturate", 0x4136877800000000),
    ("octane/Mandreel", 0x40ef190000000000),
    ("octane/MandreelLatency", 0x40c7798000000000),
    ("octane/DeltaBlue", 0x4139b3f400000000),
    ("octane/NavierStokes", 0x4148548c00000000),
    ("octane/EarleyBoyer", 0x4076000000000000),
    ("octane/SplayLatency", 0x405e800000000000),
    ("octane/CodeLoad", 0x41e2aa00f2000000),
    ("octane/Crypto", 0xc1959903b4000000),
    ("octane/Splay", 0x407f400000000000),
    ("octane/Gameboy", 0x40cc618000000000),
    ("octane/Typescript", 0x41e6659abc000000),
    ("octane/Box2D", 0x410e8d7800000000),
    ("octane/Richards", 0x414121fc00000000),
    ("octane/RegExp", 0x40ed4c0000000000),
    ("octane/PdfJS", 0x40b54f0000000000),
    ("octane/zlib", 0x40d3abc000000000),
    ("octane/RayTrace", 0x40e492c000000000),
    ("jetstream2/WSL", 0x41dddcce50000000),
    ("jetstream2/UniPoker", 0x4089080000000000),
    ("jetstream2/uglify-js-wtb", 0x41e1eae23a000000),
    ("jetstream2/typescript", 0x41e4e75d3f800000),
    ("jetstream2/tagcloud-SP", 0x409f000000000000),
    ("jetstream2/string-unpack-code-SP", 0x40b4430000000000),
    ("jetstream2/stanford-crypto-sha256", 0x41cd5c48cf000000),
    ("jetstream2/stanford-crypto-pbkdf2", 0xc1caacd873800000),
    ("jetstream2/stanford-crypto-aes", 0x40cbdb8000000000),
    ("jetstream2/splay", 0x4078c00000000000),
    ("jetstream2/segmentation", 0x4143bd6c00000000),
    ("jetstream2/richards", 0x413f711c00000000),
    ("jetstream2/regexp", 0x40eadb0000000000),
    ("jetstream2/regex-dna-SP", 0x40efbd0000000000),
    ("jetstream2/raytrace", 0x40e103a000000000),
    ("jetstream2/prepack-wtb", 0x41e06ca4b1000000),
    ("jetstream2/pdfjs", 0x40b4cb0000000000),
    ("jetstream2/OfflineAssembler", 0x41dc5e90e0000000),
    ("jetstream2/octane-zlib", 0x40dce40000000000),
    ("jetstream2/octane-code-load", 0x41e1eae23a000000),
    ("jetstream2/navier-stokes", 0x4148548c00000000),
    ("jetstream2/n-body-SP", 0x410a61e800000000),
    ("jetstream2/multi-inspector-code-load", 0x41dddcce50000000),
    ("jetstream2/ML", 0x4093980000000000),
    ("jetstream2/mandreel", 0x40d5c3c000000000),
    ("jetstream2/lebab-wtb", 0x41df5b0bd9000000),
    ("jetstream2/json-stringify-inspector", 0x40c7e98000000000),
    ("jetstream2/json-parse-inspector", 0x405b800000000000),
    ("jetstream2/jshint-wtb", 0x41e12bc375800000),
    ("jetstream2/hash-map", 0x408c480000000000),
    ("jetstream2/gbemu", 0x40e58c4000000000),
    ("jetstream2/gaussian-blur", 0x4124ab2c00000000),
    ("jetstream2/float-mm.c", 0x4096d80000000000),
    ("jetstream2/FlightPlanner", 0x4084780000000000),
    ("jetstream2/first-inspector-code-load", 0x41dae05357000000),
    ("jetstream2/espree-wtb", 0x41e06ca4b1000000),
    ("jetstream2/earley-boyer", 0x4074800000000000),
    ("jetstream2/delta-blue", 0x413840c200000000),
    ("jetstream2/date-format-xparb-SP", 0x410223c000000000),
    ("jetstream2/date-format-tofte-SP", 0x4100d85800000000),
    ("jetstream2/crypto-sha1-SP", 0x41a2701c8a000000),
    ("jetstream2/crypto-md5-SP", 0x41dd5b7e23800000),
    ("jetstream2/crypto-aes-SP", 0x40ca668000000000),
    ("jetstream2/crypto", 0x41da3335c0400000),
    ("jetstream2/coffeescript-wtb", 0x41e2aa00f2000000),
    ("jetstream2/chai-wtb", 0x4085e00000000000),
    ("jetstream2/cdjs", 0x4108d07000000000),
    ("jetstream2/Box2D", 0x410e8d7800000000),
    ("jetstream2/bomb-workers", 0x40e6908000000000),
    ("jetstream2/Basic", 0x40e3028000000000),
    ("jetstream2/base64-SP", 0x40b54f0000000000),
    ("jetstream2/babylon-wtb", 0x41e1eae23a000000),
    ("jetstream2/Babylon", 0x41e3691fb6800000),
    ("jetstream2/async-fs", 0x4084480000000000),
    ("jetstream2/Air", 0x40ef86c000000000),
    ("jetstream2/ai-astar", 0x4084880000000000),
    ("jetstream2/acorn-wtb", 0x41e12bc375800000),
    ("jetstream2/3d-raytrace-SP", 0x40dfbb4000000000),
    ("jetstream2/3d-cube-SP", 0x4090c00000000000),
    ("dromaeo/dom-attr", 0x408d100000000000),
    ("dromaeo/dom-modify", 0x407b800000000000),
    ("dromaeo/dom-query", 0x4090e00000000000),
    ("dromaeo/dom-traverse", 0x40a5180000000000),
    ("dromaeo/innerHTML", 0x4066800000000000),
    ("dromaeo/dom-style", 0x40f29b4000000000),
    ("dromaeo/dom-events", 0x4070400000000000),
    ("dromaeo/dom-reflow", 0x40c2980000000000),
    ("dromaeo/jslib-attr-jquery", 0x407a000000000000),
    ("dromaeo/jslib-modify-jquery", 0x408c200000000000),
    ("dromaeo/jslib-event-jquery", 0x406a400000000000),
    ("dromaeo/jslib-style-jquery", 0x4078000000000000),
    ("dromaeo/jslib-traverse-jquery", 0x40a0680000000000),
    ("dromaeo/v8-richards", 0x413c928800000000),
    ("dromaeo/v8-deltablue", 0x4136d56100000000),
    ("dromaeo/v8-crypto", 0x41cd5c48cf000000),
    ("dromaeo/v8-raytrace", 0x40e0a74000000000),
    ("dromaeo/v8-earley-boyer", 0x4073000000000000),
    ("dromaeo/v8-regexp", 0x40e86a0000000000),
    ("dromaeo/v8-splay", 0x4078c00000000000),
    ("dromaeo/sunspider-3d-cube", 0x408c500000000000),
    ("dromaeo/sunspider-3d-raytrace", 0x40dc398000000000),
    ("dromaeo/sunspider-access-nbody", 0x410524e800000000),
    ("dromaeo/sunspider-bitops-nsieve", 0x40d15a4000000000),
    ("dromaeo/sunspider-controlflow-recursive", 0x406e400000000000),
    ("dromaeo/sunspider-crypto-aes", 0x40c8580000000000),
    ("dromaeo/sunspider-date-format-tofte", 0x40ff18c000000000),
    ("dromaeo/sunspider-math-cordic", 0x4142d6cd00000000),
    ("dromaeo/sunspider-regexp-dna", 0x40eadb0000000000),
    ("dromaeo/sunspider-string-base64", 0x40b3bf0000000000),
    ("dromaeo/sunspider-string-tagcloud", 0x409aa40000000000),
    ("dromaeo/dromaeo-object-array", 0x4085e00000000000),
    ("dromaeo/dromaeo-object-string", 0x409cc80000000000),
    ("dromaeo/dromaeo-string-base64", 0x40b4430000000000),
    ("dromaeo/dromaeo-3d-cube", 0x408c500000000000),
    ("dromaeo/dromaeo-core-eval", 0x41dddcce50000000),
    ("dromaeo/dromaeo-object-regexp", 0x40e7318000000000),
];

const CATALOG_GOLDEN: &[(&str, u64)] = &[
    ("fft#1", 0x40c3d28000000000),
    ("fft#2", 0x40c3d28000000000),
    ("sha_like#1", 0x41c99aed5f000000),
    ("sha_like#2", 0x41c99aed5f000000),
    ("json#1", 0x403e000000000000),
    ("json#2", 0x403e000000000000),
    ("matmul#1", 0x4067200000000000),
    ("matmul#2", 0x4067200000000000),
    ("dom_query#1", 0x4062000000000000),
    ("dom_query#2", 0x4062000000000000),
    ("dom_attr#1", 0x404f000000000000),
    ("dom_attr#2", 0x404f000000000000),
    ("splay#1", 0x4030000000000000),
    ("splay#2", 0x4030000000000000),
    ("string_codec#1", 0x40a8160000000000),
    ("string_codec#2", 0x40a8160000000000),
    ("parser_stress#1", 0x41bddcce50000000),
    ("parser_stress#2", 0x41bddcce50000000),
];
