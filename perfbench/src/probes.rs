//! The enforcement canary, and the unit-cost probes behind the
//! count × unit-cost layers (gate crossings, TLB hits and misses,
//! allocations per domain).

use std::hint::black_box;
use std::time::Instant;

use lir::SharedHost;
use pkalloc::{Domain, PkAlloc, PkAllocConfig};
use servolite::{Browser, BrowserConfig, SECRET_ADDR};
use workloads::micro_page;

use crate::report::Report;
use crate::stats::{median, splitmix};

/// The secret the browser plants at [`SECRET_ADDR`].
const SECRET: f64 = 42.0;
/// What the exploit tries to write over it.
const FORGED: f64 = 1337.0;

/// The CVE-2019-11707-shaped exploit of the paper's §5.4: a corrupted
/// array length turned into an arbitrary write at the secret's address.
fn exploit() -> String {
    format!(
        r#"
var a = [1.1, 2.2];
a.length = 1e15;
var base = debugAddrOf(a);
var idx = ({SECRET_ADDR} - base) / 8;
a[idx] = {FORGED};
return a[idx];
"#
    )
}

/// Checks that enforcement is live before any number is taken:
///
/// * on the unprotected build the exploit lands (so the check is not
///   vacuous);
/// * under `BrowserConfig::Mpk` it fails with a pkey violation and the
///   secret keeps its value;
/// * a read from inside the compartment of an object at an allocation
///   site the profile never saw raises a pkey violation.
pub fn canary(report: &mut Report) {
    if let Err(problem) = try_canary() {
        report.problems.push(format!("enforcement canary: {problem}"));
    }
}

fn try_canary() -> Result<(), String> {
    let fail = |what: &str, e: servolite::BrowserError| format!("{what}: {e}");

    let mut open = Browser::new(BrowserConfig::Base).map_err(|e| fail("base browser", e))?;
    open.load_html(micro_page()).map_err(|e| fail("base page", e))?;
    open.eval_script(&exploit()).map_err(|e| fail("exploit on the base build", e))?;
    let landed = open.secret_value().map_err(|e| fail("base secret", e))?;
    if landed != FORGED {
        return Err(format!("the exploit no longer lands on the base build (secret {landed})"));
    }

    // A benign corpus profile: the page's own scripts share only what
    // they touch.
    let profile = {
        let mut profiler =
            Browser::new(BrowserConfig::Profiling).map_err(|e| fail("profiling browser", e))?;
        profiler.load_html(micro_page()).map_err(|e| fail("profiling page", e))?;
        profiler
            .eval_script(
                "var n = document.getElementById('para'); var s = n.tagName + n.innerText();",
            )
            .map_err(|e| fail("benign corpus", e))?;
        profiler.into_profile()
    };
    let mut guarded = Browser::with_profile(BrowserConfig::Mpk, Some(&profile))
        .map_err(|e| fail("mpk browser", e))?;
    guarded.load_html(micro_page()).map_err(|e| fail("mpk page", e))?;
    match guarded.eval_script(&exploit()) {
        Err(e) if e.is_pkey_violation() => {}
        Err(e) => return Err(format!("the exploit failed without a pkey violation: {e}")),
        Ok(_) => return Err("the exploit succeeded under MPK".into()),
    }
    let secret = guarded.secret_value().map_err(|e| fail("mpk secret", e))?;
    if secret != SECRET {
        return Err(format!("the secret changed under MPK ({secret})"));
    }
    match guarded.probe_trusted_access() {
        Err(e) if e.is_pkey_violation() => Ok(()),
        Err(e) => Err(format!("the unprofiled-site probe failed without a pkey violation: {e}")),
        Ok(()) => Err("an unprofiled site was readable from the untrusted compartment".into()),
    }
}

/// Unit costs measured in isolation, nanoseconds per operation.
#[derive(Clone, Copy, Debug)]
pub struct UnitCosts {
    /// One `enter_untrusted` + `exit_untrusted` pair.
    pub crossing_ns: f64,
    /// One `Machine::mem_read` served by the software TLB.
    pub tlb_hit_ns: f64,
    /// One `Machine::mem_read` with the TLB off (the locked slow path).
    pub tlb_miss_ns: f64,
    /// One `PkAlloc::alloc_in(Domain::Trusted, _)`.
    pub alloc_trusted_ns: f64,
    /// One `PkAlloc::alloc_in(Domain::Untrusted, _)`.
    pub alloc_untrusted_ns: f64,
}

/// Blocks per probe; the median block is kept.
const BLOCKS: usize = 9;

/// Times `BLOCKS` blocks of `per_block` calls of `op`; median ns per call.
fn per_call_ns(per_block: u32, mut op: impl FnMut()) -> f64 {
    let mut blocks = Vec::with_capacity(BLOCKS);
    for _ in 0..BLOCKS {
        let start = Instant::now();
        for _ in 0..per_block {
            op();
        }
        blocks.push(start.elapsed().as_nanos() as f64 / f64::from(per_block));
    }
    median(&blocks)
}

/// Measures every unit cost. `seed` draws the allocation sizes.
pub fn unit_costs(seed: u64) -> Result<UnitCosts, String> {
    let mut browser =
        Browser::new(BrowserConfig::Mpk).map_err(|e| format!("probe browser: {e}"))?;
    let machine = &mut browser.machine;

    let crossing_ns = per_call_ns(20_000, || {
        machine.gates.enter_untrusted(&mut machine.cpu).expect("enter the untrusted compartment");
        machine.gates.exit_untrusted(&mut machine.cpu).expect("leave the untrusted compartment");
    });

    let addr = machine.alloc.alloc(64).map_err(|e| format!("probe object: {e}"))?;
    machine.mem_write(addr, 7).map_err(|e| format!("probe write: {e}"))?;
    let tlb_hit_ns = per_call_ns(50_000, || {
        black_box(machine.mem_read(black_box(addr)).expect("probe object is readable"));
    });
    machine.tlb.set_enabled(false);
    let tlb_miss_ns = per_call_ns(20_000, || {
        black_box(machine.mem_read(black_box(addr)).expect("probe object is readable"));
    });
    machine.tlb.set_enabled(true);

    let host = SharedHost::new();
    let mut alloc = PkAlloc::with_config(
        host.space().clone(),
        host.trusted_pkey(),
        PkAllocConfig::for_worker(0),
    )
    .map_err(|e| format!("probe allocator: {e}"))?;
    let mut draw = seed;
    let mut alloc_ns = |domain: Domain| {
        per_call_ns(1_000, || {
            draw = splitmix(draw);
            let size = 16 + (draw % 32) * 16;
            black_box(alloc.alloc_in(domain, size).expect("probe allocation"));
        })
    };
    let alloc_trusted_ns = alloc_ns(Domain::Trusted);
    let alloc_untrusted_ns = alloc_ns(Domain::Untrusted);

    Ok(UnitCosts { crossing_ns, tlb_hit_ns, tlb_miss_ns, alloc_trusted_ns, alloc_untrusted_ns })
}

/// Records the probe-derived per-layer metrics and their detail.
pub fn record_unit_costs(report: &mut Report, costs: &UnitCosts) {
    report.set("gates.crossing_ns", costs.crossing_ns);
    report.set("vmem.tlb_hit_ns", costs.tlb_hit_ns);
    report.set("vmem.tlb_miss_ns", costs.tlb_miss_ns);
    report.set("pkalloc.alloc_ns", (costs.alloc_trusted_ns + costs.alloc_untrusted_ns) / 2.0);
    report.note(format!(
        "unit costs: crossing pair {:.1} ns, tlb hit {:.1} ns, tlb off {:.1} ns, alloc_in M_T {:.1} ns, alloc_in M_U {:.1} ns",
        costs.crossing_ns,
        costs.tlb_hit_ns,
        costs.tlb_miss_ns,
        costs.alloc_trusted_ns,
        costs.alloc_untrusted_ns
    ));
}
