//! The two serve workloads, `serve-closed` and `serve-tenants-open`.
//!
//! Untraced, the serving numbers come from `pkru_server::serve`:
//! closed-loop calls (pace 0, the queue stays full) for throughput, and
//! one open-loop phase at each fixed offered rate for latency, which is
//! printed with its sample count but gated by no bound. Closed-loop calls
//! and Dromaeo-DOM passes fill the gaps between the open-loop phases, so
//! each samples the whole run. The traced run replays the same seeded
//! streams through the layers' public functions — queue, tenant registry,
//! gates, browser, engine — on a worker loop written here, timing each
//! call from outside.

use std::collections::HashMap;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use lir::SharedHost;
use minijs::{parse_program, Value};
use pkru_provenance::Profile;
use pkru_server::{
    build_tenant_registry, catalog, serve, BoundedQueue, MpkPolicy, QueueStats, Request,
    RequestKind, ScriptSpec, ServeConfig, ServeReport, TenantLease, TenantRegistry, TrafficGen,
    TrafficShape, VkeyPoolStats, PAGE_LOAD,
};
use pkru_vmem::TlbStats;
use servolite::{Browser, BrowserConfig, DispatchOptions};
use workloads::micro_page;

use crate::dromaeo;
use crate::probes::UnitCosts;
use crate::report::{note_rates, RatePoint, Report, RATES};
use crate::stats::{listing, median, quantile, sub_seed};
use crate::trace::{LayerTimes, SpanLog};
use crate::{Budget, Spread, TraceSink, RATE_SAMPLES};

/// Pool shape of a serve workload.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    /// Worker threads.
    pub workers: usize,
    /// Registered tenants (0: the single untrusted compartment).
    pub tenants: usize,
}

/// Share of the run spent in closed-loop serving.
const CLOSED_SHARE: f64 = 0.36;
/// Share of the run spent on Dromaeo-DOM passes.
const DOM_SHARE: f64 = 0.30;
/// Requests per closed-loop `serve()` call.
const CLOSED_REQUESTS: u64 = 300;
/// Fewest closed-loop calls in a traced run, whatever the budget.
const MIN_CLOSED_CALLS: u64 = 3;
/// Bind attempts per tenant request (the server's own budget).
const BIND_RETRIES: usize = 8;
/// Re-binds after a lease goes stale mid-request (the server's own).
const STALE_REBINDS: usize = 4;
/// Stream tags of the open-loop rates (the closed phase uses 0, 1, ...).
const OPEN_TAG: u64 = 1 << 32;

fn closed_config(shape: Shape, seed: u64, k: u64) -> ServeConfig {
    ServeConfig {
        workers: shape.workers,
        tenants: shape.tenants,
        requests: CLOSED_REQUESTS,
        seed: sub_seed(seed, k),
        ..ServeConfig::default()
    }
}

/// An open-loop phase at `rate`. Its stream depends only on the seed and
/// the rate, so the traced run replays the stream the untraced run served.
fn open_config(shape: Shape, seed: u64, rate: u64) -> ServeConfig {
    ServeConfig {
        workers: shape.workers,
        tenants: shape.tenants,
        requests: RATE_SAMPLES,
        seed: sub_seed(seed, OPEN_TAG + rate),
        pace_us: 1_000_000 / rate,
        record_latency: true,
        ..ServeConfig::default()
    }
}

/// How far the producer fell behind its schedule: serving time minus
/// requests × pace, ms. `serve()` stamps admission after the pacing
/// sleep, so this lag is not inside the latency it reports.
fn producer_lag_ms(config: &ServeConfig, elapsed_s: f64) -> f64 {
    elapsed_s * 1e3 - config.requests as f64 * config.pace_us as f64 * 1e-3
}

/// Whether the queue never filled: the backlog stayed bounded.
fn backlog_bounded(queue: &QueueStats, capacity: usize) -> bool {
    queue.backpressure_waits == 0 && queue.max_depth < capacity
}

/// Applies the output gate to one `serve()` report; returns the number
/// of failed requests.
fn gate(report: &mut Report, r: &ServeReport, what: &str) -> u64 {
    let requested = r.config.requests;
    let disposed =
        r.requests_served + r.requests_abandoned + r.requests_expired + r.requests_rejected;
    report.check(disposed == requested, || {
        format!("{what}: served+abandoned+expired+rejected = {disposed} of {requested}")
    });
    report.check(r.clean(), || {
        format!(
            "{what}: unclean report (served {} of {requested}, {} checksum mismatches, {} unexpected faults, {} errors)",
            r.requests_served, r.checksum_mismatches, r.unexpected_faults, r.errors
        )
    });
    let failed = requested.saturating_sub(r.requests_served)
        + r.checksum_mismatches
        + r.unexpected_faults
        + r.errors;
    report.count(requested, failed);
    failed
}

/// One `serve()` call and its wall time, including set-up.
fn timed_serve(config: ServeConfig) -> Result<(ServeReport, f64), String> {
    let start = Instant::now();
    let served = serve(config).map_err(|e| format!("serve: {e}"))?;
    Ok((served, start.elapsed().as_secs_f64()))
}

/// Closed-loop `serve()` calls, spread over the gaps of the run.
struct Closed {
    spread: Spread,
    throughputs: Vec<f64>,
    setups: Vec<f64>,
}

impl Closed {
    /// Serves closed-loop streams for gap `gap`'s part of the budget.
    fn run_gap(
        &mut self,
        gap: usize,
        shape: Shape,
        seed: u64,
        report: &mut Report,
    ) -> Result<(), String> {
        while self.spread.more(gap) {
            let k = self.throughputs.len() as u64;
            let (r, wall) = timed_serve(closed_config(shape, seed, k))?;
            gate(report, &r, "closed-loop serve");
            self.throughputs.push(r.throughput_rps);
            self.setups.push(wall - r.elapsed_seconds);
            self.spread.spent(wall);
        }
        Ok(())
    }
}

/// The untraced run: end-to-end metrics from `serve()` and
/// `workloads::run_benchmark` only. Closed-loop calls and Dromaeo passes
/// run in slices between the open-loop phases.
pub fn measure(shape: Shape, seed: u64, budget: &Budget, report: &mut Report) {
    if let Err(e) = try_measure(shape, seed, budget, report) {
        report.problems.push(e);
    }
}

fn try_measure(
    shape: Shape,
    seed: u64,
    budget: &Budget,
    report: &mut Report,
) -> Result<(), String> {
    let profile = dromaeo::profile()?;
    let schedule = RATES;
    let mut closed = Closed {
        spread: budget.spread(CLOSED_SHARE, schedule.len()),
        throughputs: Vec::new(),
        setups: Vec::new(),
    };
    let mut passes = dromaeo::Passes::new(budget.spread(DOM_SHARE, schedule.len()));
    let mut points = Vec::new();
    for gap in 0..=schedule.len() {
        closed.run_gap(gap, shape, seed, report)?;
        passes.run_gap(gap, &profile, report)?;
        let Some(&rate) = schedule.get(gap) else { break };
        let config = open_config(shape, seed, rate);
        let capacity = config.queue_capacity;
        let (r, wall) = timed_serve(config)?;
        let failed = gate(report, &r, &format!("open loop at {rate} rps"));
        closed.setups.push(wall - r.elapsed_seconds);
        let latency =
            r.latency.as_ref().ok_or_else(|| format!("open loop at {rate} rps: no latency"))?;
        points.push(RatePoint {
            rate,
            p50_ms: latency.p50_ms,
            p99_ms: latency.p99_ms,
            samples: latency.count as usize,
            clean: failed == 0 && backlog_bounded(&r.queue, capacity),
            detail: format!(
                "producer_lag_ms {:.1}, queue max depth {} of {capacity}, backpressure waits {}",
                producer_lag_ms(&r.config, r.elapsed_seconds),
                r.queue.max_depth,
                r.queue.backpressure_waits
            ),
        });
    }
    let Closed { throughputs, setups, .. } = closed;
    // The lower quartile: see `stats::quantile` for why not the median.
    report.set("throughput_rps", quantile(&throughputs, 0.25));
    report.note(format!(
        "closed loop: {} serve() calls x {CLOSED_REQUESTS} requests, {} worker(s), {} tenant(s); rps per call: {}",
        throughputs.len(),
        shape.workers,
        shape.tenants,
        listing(&throughputs, 1),
    ));
    note_rates(report, &points);
    report.set("setup_s", median(&setups));
    report.note(format!(
        "setup_s: median of {} serve() calls (wall minus elapsed_seconds: catalog profiling, reference checksums, tenant registry)",
        setups.len()
    ));
    passes.finish(report);
    Ok(())
}

/// What the traced replay needs beyond the stream itself.
struct Setup {
    catalog: Vec<ScriptSpec>,
    profile: Profile,
    reference: HashMap<&'static str, f64>,
    /// `parse_program` time of each catalog script, seconds.
    parse_s: Vec<f64>,
}

/// The catalog profile, built the way `serve()` builds it: each script
/// runs once on the profiling build and the profiles merge.
fn profile_catalog(catalog: &[ScriptSpec]) -> Result<Profile, String> {
    let mut merged = Profile::new();
    for spec in catalog {
        let mut browser = Browser::new(BrowserConfig::Profiling).map_err(|e| e.to_string())?;
        browser.load_html(micro_page()).map_err(|e| e.to_string())?;
        browser
            .eval_script(&spec.source)
            .and_then(|_| browser.call_script("run", &[]))
            .map_err(|e| format!("profiling {}: {e}", spec.name))?;
        merged.merge(&browser.into_profile());
    }
    Ok(merged)
}

/// Single-threaded reference checksums, as `serve()` records them.
fn reference(
    catalog: &[ScriptSpec],
    profile: &Profile,
) -> Result<HashMap<&'static str, f64>, String> {
    let mut browser =
        Browser::with_profile(BrowserConfig::Mpk, Some(profile)).map_err(|e| e.to_string())?;
    browser.load_html(micro_page()).map_err(|e| e.to_string())?;
    let before = browser.stats().nodes;
    browser.load_html(micro_page()).map_err(|e| e.to_string())?;
    let mut out = HashMap::new();
    out.insert(PAGE_LOAD, (browser.stats().nodes - before) as f64);
    for spec in catalog {
        match browser.eval_script(&spec.source).and_then(|_| browser.call_script("run", &[])) {
            Ok(Value::Num(checksum)) => {
                out.insert(spec.name, checksum);
            }
            other => return Err(format!("reference {}: {other:?}", spec.name)),
        }
    }
    Ok(out)
}

/// Counters of replayed requests, per worker or summed.
#[derive(Default)]
struct Totals {
    requests: u64,
    failed: u64,
    mismatches: u64,
    /// Wall time of the worker threads, seconds.
    worker_s: f64,
    transitions: u64,
    ic_hits: u64,
    ic_misses: u64,
    trusted_allocs: u64,
    untrusted_allocs: u64,
    scripts: u64,
    /// `parse_program` time of the scripts evaluated, seconds.
    parse_s: f64,
    /// `eval_script` time minus that parse time, seconds.
    eval_minus_parse_s: f64,
}

impl Totals {
    fn add(&mut self, other: &Totals) {
        self.requests += other.requests;
        self.failed += other.failed;
        self.mismatches += other.mismatches;
        self.worker_s += other.worker_s;
        self.transitions += other.transitions;
        self.ic_hits += other.ic_hits;
        self.ic_misses += other.ic_misses;
        self.trusted_allocs += other.trusted_allocs;
        self.untrusted_allocs += other.untrusted_allocs;
        self.scripts += other.scripts;
        self.parse_s += other.parse_s;
        self.eval_minus_parse_s += other.eval_minus_parse_s;
    }
}

/// Everything one replayed phase produced.
struct Replay {
    /// Requests the stream offered.
    requested: u64,
    totals: Totals,
    /// Wall time of the phase, seconds.
    wall_s: f64,
    tlb: TlbStats,
    resident_bytes: u64,
    keys: VkeyPoolStats,
    queue: QueueStats,
    logs: Vec<SpanLog>,
}

/// The pool-wide state every replay worker shares.
struct Pool<'a> {
    setup: &'a Setup,
    host: &'a SharedHost,
    registry: Option<&'a TenantRegistry>,
    queue: &'a BoundedQueue<Request>,
}

/// Replays `config`'s stream: the same producer pacing, queue, host and
/// tenant registry as `serve()`, with a traced worker loop.
fn replay(config: &ServeConfig, setup: &Setup) -> Result<Replay, String> {
    let host = SharedHost::new();
    let registry = build_tenant_registry(&host, config.tenants, MpkPolicy::Enforce)
        .map_err(|e| format!("tenant registry: {e}"))?;
    let queue = BoundedQueue::new(config.queue_capacity);
    let pool = Pool { setup, host: &host, registry: registry.as_ref(), queue: &queue };
    let origin = Instant::now();
    let outs: Vec<Result<(Totals, SpanLog), String>> = thread::scope(|scope| {
        let producer = scope.spawn(|| {
            let traffic = TrafficGen::with_shape(
                config.seed,
                config.requests,
                setup.catalog.len(),
                config.tenants,
                TrafficShape::Uniform,
            );
            for mut request in traffic {
                if config.pace_us > 0 {
                    thread::sleep(Duration::from_micros(config.pace_us));
                }
                request.enqueued = Some(Instant::now());
                if queue.push(request).is_err() {
                    return;
                }
            }
            queue.close();
        });
        let pool = &pool;
        let workers: Vec<_> = (0..config.workers)
            .map(|_| {
                scope.spawn(move || {
                    let mut log = SpanLog::new(origin, "worker");
                    let out = replay_worker(pool, &mut log);
                    if out.is_err() {
                        // Unblock the producer: nobody will drain the queue.
                        pool.queue.close();
                    }
                    out.map(|o| (o, log))
                })
            })
            .collect();
        let outs = workers.into_iter().map(|w| w.join().expect("replay worker")).collect();
        producer.join().expect("replay producer");
        outs
    });
    let wall_s = origin.elapsed().as_secs_f64();
    let mut totals = Totals::default();
    let mut logs = Vec::new();
    for out in outs {
        let (worker, log) = out?;
        totals.add(&worker);
        logs.push(log);
    }
    totals.failed += config.requests.saturating_sub(totals.requests);
    let resident_bytes = host.space().lock().resident_bytes();
    Ok(Replay {
        requested: config.requests,
        totals,
        wall_s,
        tlb: host.space().stats().tlb,
        resident_bytes,
        keys: registry.as_ref().map(TenantRegistry::key_stats).unwrap_or_default(),
        queue: queue.stats(),
        logs,
    })
}

/// Switches the worker's browser into a tenant's compartment.
fn install(browser: &mut Browser, lease: &TenantLease) {
    browser.machine.gates.set_untrusted_lease(lease.pkru(), lease.stamp());
    browser.machine.install_syscall_filter(lease.tenant().syscall_filter().clone());
}

/// Writes and reads back the tenant's scratch word under its rights.
fn touch(browser: &mut Browser, addr: u64, value: u64) -> bool {
    let m = &mut browser.machine;
    match m.gates.enter_untrusted(&mut m.cpu) {
        Ok(()) => {
            let ok = m.mem_write(addr, value).is_ok() && m.mem_read(addr) == Ok(value);
            let exited = m.gates.exit_untrusted(&mut m.cpu).is_ok();
            ok && exited
        }
        Err(_) => false,
    }
}

/// One traced worker: builds its browser on the shared host, then serves
/// until the queue closes. Every step of a request sits in a span under
/// the request's own `server.request` span.
fn replay_worker(pool: &Pool<'_>, log: &mut SpanLog) -> Result<Totals, String> {
    let started = Instant::now();
    let Setup { catalog, profile, reference, parse_s } = pool.setup;
    let building = log.open(0, "servolite.setup");
    let mut browser = Browser::with_dispatch(
        BrowserConfig::Mpk,
        Some(profile),
        Some(pool.host),
        None,
        true,
        DispatchOptions::default(),
    )
    .map_err(|e| format!("replay browser: {e}"))?;
    log.time(0, "servolite.load_html", || browser.load_html(micro_page()))
        .0
        .map_err(|e| format!("replay page: {e}"))?;
    log.close(building);
    let base_untrusted = browser.machine.gates.untrusted_pkru();
    let base_filter = browser.machine.syscall_filter().clone();
    let _epoch = pool.registry.map(|r| {
        let epoch = Arc::new(r.pool().barrier().register());
        browser.machine.gates.set_worker_epoch(Arc::clone(&epoch));
        epoch
    });

    let mut out = Totals::default();
    loop {
        let request_span = log.open(0, "server.request");
        let pop = log.open(0, "server.pop");
        let popped = pool.queue.pop();
        log.close(pop);
        let Some(request) = popped else {
            log.close(request_span);
            break;
        };
        let id = request.id;
        log.set_req(request_span, id);
        log.set_req(pop, id);
        out.requests += 1;

        let mut lease = None;
        let mut ok = true;
        if let (Some(registry), Some(tenant)) = (pool.registry, request.tenant) {
            let mut rebinds = 0;
            ok = loop {
                let bound = log
                    .time(id, "tenant.bind", || registry.bind_with_retry(tenant, BIND_RETRIES))
                    .0;
                let Ok(fresh) = bound else { break false };
                log.time(id, "tenant.install", || install(&mut browser, &fresh));
                let scratch = fresh.tenant().scratch_addr();
                let touched = log.time(id, "gates.touch", || touch(&mut browser, scratch, id)).0;
                let stale = !fresh.is_current();
                lease = Some(fresh);
                if touched {
                    break true;
                }
                if !stale || rebinds >= STALE_REBINDS {
                    break false;
                }
                rebinds += 1;
            };
        }

        let answer = if !ok {
            None
        } else {
            match request.kind {
                RequestKind::PageLoad => {
                    let before = browser.stats().nodes;
                    let loaded =
                        log.time(id, "servolite.load_html", || browser.load_html(micro_page())).0;
                    let after = browser.stats().nodes;
                    loaded
                        .ok()
                        .and_then(|()| after.checked_sub(before))
                        .map(|d| (PAGE_LOAD, d as f64))
                }
                RequestKind::Script(i) => {
                    let spec = &catalog[i];
                    let (evaluated, eval_s) =
                        log.time(id, "minijs.eval", || browser.eval_script(&spec.source));
                    out.scripts += 1;
                    out.parse_s += parse_s[i];
                    out.eval_minus_parse_s += eval_s - parse_s[i];
                    let ran = log.time(id, "minijs.run", || {
                        evaluated.and_then(|_| browser.call_script("run", &[]))
                    });
                    match ran.0 {
                        Ok(Value::Num(checksum)) => Some((spec.name, checksum)),
                        _ => None,
                    }
                }
            }
        };

        let completing = log.open(id, "server.complete");
        match answer {
            Some((name, checksum)) => {
                if reference.get(name).map(|c| c.to_bits()) != Some(checksum.to_bits()) {
                    out.mismatches += 1;
                }
            }
            None => out.failed += 1,
        }
        if lease.is_some() {
            browser.machine.gates.set_untrusted_pkru(base_untrusted);
            browser.machine.install_syscall_filter(base_filter.clone());
        }
        drop(lease);
        log.close(completing);
        log.close(request_span);
    }

    let stats = browser.stats();
    let dispatch = browser.dispatch_stats();
    out.transitions = stats.transitions;
    out.ic_hits = dispatch.ic_hits;
    out.ic_misses = dispatch.ic_misses;
    out.trusted_allocs = stats.trusted_allocs;
    out.untrusted_allocs = stats.untrusted_allocs;
    out.worker_s = started.elapsed().as_secs_f64();
    Ok(out)
}

/// Median time of `f`, seconds, over `k` runs; the last result is kept.
fn timed_median<R>(k: usize, mut f: impl FnMut() -> Result<R, String>) -> Result<(R, f64), String> {
    let mut times = Vec::with_capacity(k);
    let mut last = None;
    for _ in 0..k {
        let start = Instant::now();
        last = Some(f()?);
        times.push(start.elapsed().as_secs_f64());
    }
    Ok((last.expect("k > 0"), median(&times)))
}

/// The traced run: the same streams replayed with spans, plus the
/// unit-cost probes; records every per-layer metric.
pub fn trace(
    shape: Shape,
    seed: u64,
    budget: &Budget,
    costs: &UnitCosts,
    report: &mut Report,
    sink: &mut TraceSink,
) {
    if let Err(e) = try_trace(shape, seed, budget, costs, report, sink) {
        report.problems.push(e);
    }
}

fn try_trace(
    shape: Shape,
    seed: u64,
    budget: &Budget,
    costs: &UnitCosts,
    report: &mut Report,
    sink: &mut TraceSink,
) -> Result<(), String> {
    let catalog = catalog();
    let (profile, profile_s) = timed_median(3, || profile_catalog(&catalog))?;
    let reference = reference(&catalog, &profile)?;
    let mut parse_s = Vec::with_capacity(catalog.len());
    for spec in &catalog {
        let (_, seconds) = timed_median(5, || {
            parse_program(&spec.source).map_err(|e| format!("parse {}: {e}", spec.name))
        })?;
        parse_s.push(seconds);
    }
    report.set("core.profile_s", profile_s);
    report.set("provenance.shared_sites", profile.len() as f64);
    let setup = Setup { catalog, profile, reference, parse_s };

    let mut phases: Vec<Replay> = Vec::new();
    let mut overheads = Vec::new();
    let closed_budget = budget.part(CLOSED_SHARE);
    let start = Instant::now();
    let mut k = 0;
    while k < MIN_CLOSED_CALLS || start.elapsed() < closed_budget {
        let config = closed_config(shape, seed, k);
        let (untraced, _) = timed_serve(config.clone())?;
        gate(report, &untraced, "closed-loop serve (untraced side of the overhead pair)");
        let traced = replay(&config, &setup)?;
        overheads.push(traced.wall_s / untraced.elapsed_seconds);
        sink.add(&format!("closed{k}"), &traced.logs);
        phases.push(traced);
        k += 1;
    }
    let mut lags = Vec::new();
    for (index, &rate) in RATES.iter().enumerate() {
        let config = open_config(shape, seed, rate);
        let traced = replay(&config, &setup)?;
        let lag = producer_lag_ms(&config, traced.wall_s);
        lags.push(lag);
        report.note(format!(
            "traced rate {rate} rps: wall {:.3} s, producer_lag_ms {lag:.1}, queue max depth {}",
            traced.wall_s, traced.queue.max_depth
        ));
        sink.add(&format!("open{index}-r{rate}"), &traced.logs);
        phases.push(traced);
    }
    let lag_ms = lags.iter().sum::<f64>() / lags.len() as f64;

    let mut times = LayerTimes::default();
    let mut total = Totals::default();
    let mut requested = 0;
    let mut tlb = TlbStats::default();
    let mut keys = VkeyPoolStats::default();
    let (mut resident_bytes, mut max_depth, mut waits) = (0, 0, 0);
    for phase in &phases {
        for log in &phase.logs {
            times.add(log);
        }
        total.add(&phase.totals);
        requested += phase.requested;
        tlb.hits += phase.tlb.hits;
        tlb.misses += phase.tlb.misses;
        tlb.flushes += phase.tlb.flushes;
        keys.binds += phase.keys.binds;
        keys.hits += phase.keys.hits;
        keys.evictions += phase.keys.evictions;
        keys.revocations += phase.keys.revocations;
        keys.pages_retagged += phase.keys.pages_retagged;
        resident_bytes = resident_bytes.max(phase.resident_bytes);
        max_depth = max_depth.max(phase.queue.max_depth);
        waits += phase.queue.backpressure_waits;
    }
    report.count(requested, total.failed + total.mismatches);
    report.check(total.mismatches == 0, || {
        format!("traced replay: {} checksum mismatches", total.mismatches)
    });
    let per_req = |x: u64| x as f64 / total.requests.max(1) as f64;
    let ratio = |a: u64, b: u64| if a + b == 0 { 0.0 } else { a as f64 / (a + b) as f64 };
    let scripts = total.scripts.max(1) as f64;

    report.set("minijs.parse_us", total.parse_s / scripts * 1e6);
    report.set("minijs.eval_us", total.eval_minus_parse_s / scripts * 1e6);
    report.set("minijs.run_us", times.mean_s("minijs.run") * 1e6);
    report.set("minijs.ic_hit_rate", ratio(total.ic_hits, total.ic_misses));
    report.set("gates.transitions", per_req(total.transitions));
    report.set(
        "gates.share",
        total.transitions as f64 * costs.crossing_ns / 2.0 * 1e-9 / total.worker_s,
    );
    report.set("vmem.tlb_hit_rate", ratio(tlb.hits, tlb.misses));
    report.set("vmem.tlb_flushes_per_req", per_req(tlb.flushes));
    report.set("vmem.resident_mb", resident_bytes as f64 / (1 << 20) as f64);
    report.set("tenant.bind_hit_rate", ratio(keys.hits, keys.binds - keys.hits));
    report.set("tenant.evictions", per_req(keys.evictions));
    report.set("tenant.revocations", per_req(keys.revocations));
    report.set("tenant.pages_retagged", per_req(keys.pages_retagged));
    report.set("tenant.bind_us", times.mean_s("tenant.bind") * 1e6);
    report.set("pkalloc.percent_mu", 100.0 * ratio(total.untrusted_allocs, total.trusted_allocs));
    report.set("servolite.load_html_us", times.mean_s("servolite.load_html") * 1e6);
    report.set("server.queue_depth_max", max_depth as f64);
    report.set("server.backpressure_waits", per_req(waits));
    report.set("server.producer_lag_ms", lag_ms);
    report.set("trace.overhead", median(&overheads));
    report.note(format!(
        "traced serving: {} requests over {} phases, {} scripts, worker wall {:.3} s, {} tlb hits / {} misses / {} flushes, {} binds",
        total.requests,
        phases.len(),
        total.scripts,
        total.worker_s,
        tlb.hits,
        tlb.misses,
        tlb.flushes,
        keys.binds
    ));

    let dom = dromaeo::traced_passes(
        &dromaeo::profile()?,
        budget.part(DOM_SHARE),
        report,
        &mut times,
        sink,
    )?;
    report.set("gates.mpk_over_alloc", dom.mpk_over_alloc);
    report.set("pkalloc.alloc_over_base", dom.alloc_over_base);
    crate::record_accounting(report, &times, total.worker_s + dom.wall_s);
    Ok(())
}
