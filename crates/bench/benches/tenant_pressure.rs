//! Tenant-count scaling: throughput and key-virtualization cost as
//! compartments outnumber hardware keys.
//!
//! The multi-tenant serving runtime multiplexes an unbounded population
//! of virtual protection keys onto the ≤ 15 usable hardware keys
//! (libmpk-style: LRU stealing plus a `pkey_mprotect` re-tag storm per
//! steal). The scaling claim is that the 16-key hardware boundary is a
//! performance fact, not a correctness or throughput *cliff*: past it,
//! binds start missing and stealing, each steal re-tags the victim's
//! pages, and throughput degrades gracefully with the miss rate.
//!
//! This target sweeps the tenant count over the same deterministic
//! traffic (1, 8, 16, 32 tenants — below, at, and twice the hardware
//! budget) and reports requests/second, bind hit rate, evictions, and
//! pages re-tagged. `--json` emits one row per sweep point for CI
//! (`BENCH_tenant.json`); `--test` shrinks the sweep to a smoke run.

use bench::{header, smoke_mode};
use pkru_provenance::json::{self, JsonWriter};
use pkru_server::{serve, ServeConfig, VkeyPoolStats};

/// One sweep point: a tenant count and everything the run reported.
#[derive(Debug)]
struct Row {
    tenants: usize,
    throughput_rps: f64,
    keys: VkeyPoolStats,
    bind_retries: u64,
}

impl Row {
    fn hit_rate(&self) -> f64 {
        self.keys.hit_rate()
    }

    fn write_json(&self, w: &mut JsonWriter) {
        w.object(|w| {
            w.field("tenants", self.tenants)
                .field("throughput_rps", self.throughput_rps)
                .field("binds", self.keys.binds)
                .field("bind_hits", self.keys.hits)
                .field("bind_misses", self.keys.misses)
                .field("evictions", self.keys.evictions)
                .field("pages_retagged", self.keys.pages_retagged)
                .field("revocations", self.keys.revocations)
                .field("deferred_reuses", self.keys.deferred_reuses)
                .field("bind_retries", self.bind_retries)
                .field("hit_rate", self.hit_rate());
        });
    }
}

/// Best-of-k serve throughput at one tenant count. Key stats are taken
/// from the best run; they are deterministic across repeats anyway (same
/// seed, same traffic, same LRU order).
fn sweep_point(tenants: usize, requests: u64, repeats: usize) -> Row {
    let mut best = None::<pkru_server::ServeReport>;
    for _ in 0..repeats {
        let report = serve(ServeConfig {
            workers: 2,
            requests,
            queue_capacity: 32,
            seed: 0x5eed,
            tenants,
            ..ServeConfig::default()
        })
        .expect("tenant serve");
        assert!(report.clean(), "tenants={tenants}: unclean run: {report:?}");
        assert_eq!(report.per_tenant.len(), tenants);
        let served: u64 = report.per_tenant.iter().map(|t| t.requests).sum();
        assert_eq!(served, requests, "tenants={tenants}: requests leaked out of the breakdown");
        if best.as_ref().is_none_or(|b| report.throughput_rps > b.throughput_rps) {
            best = Some(report);
        }
    }
    let report = best.expect("at least one repeat");
    Row {
        tenants,
        throughput_rps: report.throughput_rps,
        keys: report.tenant_key_stats.expect("tenant mode reports key stats"),
        bind_retries: report.per_tenant.iter().map(|t| t.bind_retries).sum(),
    }
}

fn main() {
    let smoke = smoke_mode();
    let (sweep, requests, repeats): (&[usize], u64, usize) =
        if smoke { (&[1, 16], 16, 1) } else { (&[1, 8, 16, 32], 256, 3) };

    let rows: Vec<Row> =
        sweep.iter().map(|&tenants| sweep_point(tenants, requests, repeats)).collect();

    if std::env::args().any(|a| a == "--json") {
        let report = json::render(|w| {
            w.object(|w| {
                w.key("rows").array(&rows, |w, r| r.write_json(w));
            });
        });
        println!("{report}");
    } else {
        header(
            "Tenant pressure: key virtualization vs. tenant count",
            &["tenants", "rps", "hit rate", "evictions", "retagged"],
        );
        for r in &rows {
            println!(
                "{}\t{:.1}\t{:.2}%\t{}\t{}",
                r.tenants,
                r.throughput_rps,
                100.0 * r.hit_rate(),
                r.keys.evictions,
                r.keys.pages_retagged
            );
        }
    }

    for r in &rows {
        // One bind per tenant-tagged request, plus one per recorded
        // retry (a retry is always paired with another pool bind call).
        assert_eq!(r.keys.binds, requests + r.bind_retries, "{r:?}");
        assert_eq!(r.keys.binds, r.keys.hits + r.keys.misses, "{r:?}");
        // Every miss re-tags the tenant's pages park→key (and every
        // steal re-tags the victim key→park), so any miss shows up here.
        assert!(r.keys.pages_retagged > 0, "misses must re-tag: {r:?}");
        if smoke {
            // A 16-request smoke stream does not touch every tenant, so
            // the pressure assertions below would be vacuous lies here.
            continue;
        }
        if r.tenants <= 8 {
            // Everyone fits the hardware: after each tenant's first bind
            // every later bind is a hit and nothing is ever stolen.
            assert_eq!(r.keys.evictions, 0, "stole below the key budget: {r:?}");
            assert_eq!(r.keys.misses, r.tenants as u64, "{r:?}");
        } else {
            // Past the ≤ 15 usable hardware keys, binds must steal.
            assert!(r.keys.evictions > 0, "no stealing above the key budget: {r:?}");
        }
    }

    if !smoke {
        // The graceful-degradation claim: crossing the 16-key boundary
        // costs bind misses and re-tag storms, not a throughput cliff.
        // Each doubling of tenant count past the boundary must retain at
        // least half the single-tenant throughput.
        let base = rows[0].throughput_rps;
        for r in &rows[1..] {
            println!(
                "# {} tenants: {:.1} rps ({:.0}% of single-tenant), hit rate {:.1}%",
                r.tenants,
                r.throughput_rps,
                100.0 * r.throughput_rps / base,
                100.0 * r.hit_rate()
            );
            assert!(
                r.throughput_rps > 0.5 * base,
                "throughput cliff at {} tenants: {:.1} rps vs {base:.1} rps single-tenant",
                r.tenants,
                r.throughput_rps
            );
        }
        // The boundary itself: 32 tenants steal far more than 16, yet
        // keep comparable throughput (re-tag cost stays off the cliff).
        let at16 = rows.iter().find(|r| r.tenants == 16).expect("16-tenant point");
        let at32 = rows.iter().find(|r| r.tenants == 32).expect("32-tenant point");
        assert!(at32.keys.evictions > at16.keys.evictions, "pressure must grow with tenants");
        assert!(
            at32.throughput_rps > 0.5 * at16.throughput_rps,
            "cliff between 16 and 32 tenants: {:.1} vs {:.1} rps",
            at32.throughput_rps,
            at16.throughput_rps
        );
    }
}
