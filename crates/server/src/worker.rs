//! The worker: one thread, one browser, one PKRU — under supervision.
//!
//! Each worker owns a full `servolite` browser built on the shared host —
//! its own CPU (and therefore its own PKRU rights), its own call-gate
//! stack, and its own allocator carve-out — while page tables, key
//! assignments, and the trusted key itself are process-wide shared state.
//!
//! Workers are *mortal*: setup can fail, a request can panic, the
//! carve-out can run dry (all of which [`FaultState`] can provoke on
//! demand). So a worker records everything it does — counters, responses,
//! and the request currently in flight — in a [`WorkerCell`] the
//! supervisor also holds: whatever kills the incarnation, the work it
//! completed survives, and the one request it was holding can be requeued.
//!
//! Each request runs inside a [`Compartment`] guard (its tenant's, or
//! the worker's own) and completes through one routine that counts it,
//! records its outcome, and ticks the logical clock.

use std::sync::{Arc, Mutex};

use servolite::{Browser, BrowserConfig, DispatchStats};
use workloads::suites::micro_page;

use lir::SharedHost;
use minijs::Value;
use pkru_gates::GateError;
use pkru_handler::ViolationHandler;
use pkru_provenance::Profile;
use pkru_tenant::{Tenant, TenantRegistry};

use crate::compartment::Compartment;
use crate::fault::{FaultKind, FaultState};
use crate::overload::OverloadState;
use crate::queue::BoundedQueue;
use crate::request::{Request, RequestKind, Response, ScriptSpec, PAGE_LOAD};

/// Backoff-and-retry attempts a worker spends binding a tenant whose
/// every candidate key is quarantined behind the revocation barrier
/// before giving up on the request (each attempt already includes the
/// pool's own bounded wait).
const TENANT_BIND_RETRIES: usize = 8;

/// How many times a worker re-binds after its lease is revoked
/// mid-request (the pool stole the tenant's key underneath it) before
/// completing the request as an error.
const STALE_REBIND_RETRIES: usize = 4;

/// Per-worker counters, reported after drain.
#[derive(Clone, Copy, Debug, Default)]
pub struct WorkerStats {
    /// The worker's slot index.
    pub worker: usize,
    /// Requests completed (page loads + scripts, including ones that
    /// completed with an error or fault — but not a request whose worker
    /// died mid-flight, which is requeued or abandoned instead).
    pub requests: u64,
    /// Page-load requests completed.
    pub page_loads: u64,
    /// Script requests completed.
    pub scripts: u64,
    /// Compartment transitions this worker's gates executed.
    pub transitions: u64,
    /// MPK violations observed — always unexpected under a complete
    /// profile.
    pub pkey_faults: u64,
    /// Non-MPK request failures.
    pub errors: u64,
    /// Requests shed at pop because their deadline had already passed
    /// (never served; disjoint from `requests`).
    pub expired: u64,
    /// Inline-cache hits this worker's engine served (per-browser, unlike
    /// the global TLB counters — folded here at incarnation exit).
    pub ic_hits: u64,
    /// Inline-cache misses (slow property walks that then filled a cache).
    pub ic_misses: u64,
    /// Bulk superinstructions the worker's machine executed in place of
    /// per-byte loops.
    pub fused_ops: u64,
}

struct CellInner {
    stats: WorkerStats,
    responses: Vec<Response>,
    in_flight: Option<Request>,
    /// The incarnation currently authorized to write through this cell.
    /// [`WorkerCell::condemn`] bumps it, *poisoning* every outstanding
    /// handle: a wedged (or merely slow) thread still holding the old
    /// incarnation can keep running, but its writes no longer land — the
    /// slot's accounting belongs to the replacement.
    live: u64,
    /// Progress heartbeat: bumped on every pop/disposition by the live
    /// incarnation. The watchdog declares the slot stalled when this
    /// stops advancing while a request is in flight.
    heartbeat: u64,
    /// Admission→completion latencies (ms) of disposed requests, kept
    /// only when the run records latency percentiles.
    latencies: Vec<f64>,
}

/// One worker slot's state, shared between every incarnation of the slot
/// and the supervisor. All transitions are atomic under one lock, so a
/// request is always in exactly one place: in flight, completed, or back
/// on the queue — and every write is stamped with the incarnation making
/// it, so a condemned thread can never corrupt its successor's ledger.
pub struct WorkerCell {
    inner: Mutex<CellInner>,
}

impl WorkerCell {
    /// A fresh cell for worker slot `worker`.
    pub fn new(worker: usize) -> WorkerCell {
        WorkerCell {
            inner: Mutex::new(CellInner {
                stats: WorkerStats { worker, ..WorkerStats::default() },
                responses: Vec::new(),
                in_flight: None,
                live: 0,
                heartbeat: 0,
                latencies: Vec::new(),
            }),
        }
    }

    /// The incarnation a newly spawned thread must present to write here.
    pub fn live_incarnation(&self) -> u64 {
        self.inner.lock().unwrap().live
    }

    /// Marks `request` in flight and beats the heartbeat (called right
    /// after the pop). No-op for a condemned incarnation.
    fn begin(&self, incarnation: u64, request: Request) -> bool {
        let mut inner = self.inner.lock().unwrap();
        if inner.live != incarnation {
            return false;
        }
        inner.in_flight = Some(request);
        inner.heartbeat += 1;
        true
    }

    /// Disposes of the in-flight request (served, failed or shed): clears
    /// it, beats the heartbeat, and applies `update` to the counters,
    /// responses and latency samples in one critical section, so a crash
    /// can never double-account a request. Returns whether the write
    /// landed (a condemned incarnation's does not).
    fn complete(&self, incarnation: u64, update: impl FnOnce(&mut CellInner)) -> bool {
        let mut inner = self.inner.lock().unwrap();
        if inner.live != incarnation {
            return false;
        }
        inner.in_flight = None;
        inner.heartbeat += 1;
        update(&mut inner);
        true
    }

    /// Folds one incarnation's gate transitions and dispatch counters
    /// (inline-cache hits and misses, fused superinstructions) into the
    /// slot total. Deliberately *not* incarnation-gated: the counts are
    /// work the hardware and the interpreter really did, whoever's ledger
    /// the requests land in.
    fn add_work(&self, transitions: u64, dispatch: DispatchStats) {
        let mut inner = self.inner.lock().unwrap();
        inner.stats.transitions += transitions;
        inner.stats.ic_hits += dispatch.ic_hits;
        inner.stats.ic_misses += dispatch.ic_misses;
        inner.stats.fused_ops += dispatch.fused_ops;
    }

    /// Takes the request the (dead) incarnation was holding, if any.
    pub fn take_in_flight(&self) -> Option<Request> {
        self.inner.lock().unwrap().in_flight.take()
    }

    /// The watchdog's probe: `(heartbeat, request-in-flight?)`.
    pub fn probe(&self) -> (u64, bool) {
        let inner = self.inner.lock().unwrap();
        (inner.heartbeat, inner.in_flight.is_some())
    }

    /// Condemns the current incarnation (a wedged thread the supervisor
    /// is writing off): bumps `live` so the thread's future writes are
    /// poisoned, and takes the in-flight request for requeue — both under
    /// one lock, so the wedged thread cannot complete the request *and*
    /// hand it back.
    pub fn condemn(&self) -> Option<Request> {
        let mut inner = self.inner.lock().unwrap();
        inner.live += 1;
        inner.in_flight.take()
    }

    /// A snapshot of everything the slot has produced so far.
    pub fn snapshot(&self) -> (WorkerStats, Vec<Response>) {
        let inner = self.inner.lock().unwrap();
        (inner.stats, inner.responses.clone())
    }

    /// Drains the slot's recorded latency samples.
    pub fn take_latencies(&self) -> Vec<f64> {
        std::mem::take(&mut self.inner.lock().unwrap().latencies)
    }
}

/// The read-only pool context every worker incarnation shares: the queue,
/// the host, the armed faults, and the overload machinery. Bundled so a
/// respawn is one call, not a ten-argument ritual.
#[derive(Clone, Copy)]
pub struct PoolCtx<'a> {
    /// The bounded work queue.
    pub queue: &'a BoundedQueue<Request>,
    /// The shared MPK host (page tables, keys, carve-outs).
    pub host: &'a SharedHost,
    /// The provenance profile workers enforce.
    pub profile: &'a Profile,
    /// The served script catalog.
    pub catalog: &'a [ScriptSpec],
    /// Armed fault injections.
    pub faults: &'a FaultState,
    /// The tenant registry (multi-tenant runs only).
    pub registry: Option<&'a TenantRegistry>,
    /// The logical clock and shed counters.
    pub overload: &'a OverloadState,
    /// Whether to record admission→completion latency samples.
    pub record_latency: bool,
}

/// Drains the worker's own untrusted carve-out until the allocator
/// refuses — the injected version of a leak or a hostile guest chewing
/// through its compartment budget. Bounded: the carve-out span is finite
/// and each grab halves on failure, so this terminates fast.
fn exhaust_carveout(browser: &mut Browser) -> String {
    let mut grab = 1u64 << 30;
    let mut grabbed = 0u64;
    loop {
        match browser.machine.alloc.untrusted_alloc(grab) {
            Ok(_) => grabbed += grab,
            Err(_) if grab > 64 => grab /= 2,
            Err(e) => {
                return format!("allocator carve-out exhausted after {grabbed} injected bytes: {e}")
            }
        }
    }
}

/// Runs one worker incarnation to queue exhaustion, recording counters,
/// responses, and the in-flight request in `cell` as it goes —
/// every write stamped with `incarnation`, so a predecessor the watchdog
/// condemned can still be running without corrupting this ledger.
///
/// The browser is constructed *inside* the worker thread (it is `!Send`):
/// only the [`SharedHost`] crosses the thread boundary. A respawned
/// incarnation claims a fresh carve-out slot from the host, so it starts
/// with a clean allocator even if its predecessor died by exhaustion.
///
/// An incarnation that dies returns the cause of death.
pub fn run_worker(
    worker: usize,
    incarnation: u64,
    ctx: PoolCtx<'_>,
    cell: &WorkerCell,
    handler: Option<&Arc<ViolationHandler>>,
) -> Result<(), String> {
    let PoolCtx { queue, host, profile, faults, registry, overload, .. } = ctx;
    if let Some(handler) = handler {
        // A fresh incarnation starts with a clean quarantine breaker; the
        // per-site ledger and the audit log persist across respawns.
        handler.begin_incarnation();
    }
    if faults.setup_should_fail(worker) {
        return Err("browser setup: injected setup failure".into());
    }
    let built = match handler {
        Some(handler) => {
            Browser::with_handler_on(BrowserConfig::Mpk, Some(profile), host, Arc::clone(handler))
        }
        None => Browser::with_profile_on(BrowserConfig::Mpk, Some(profile), host),
    };
    let mut browser = built.map_err(|e| format!("browser setup: {e}"))?;
    browser.load_html(micro_page()).map_err(|e| format!("initial page: {e}"))?;
    // Register this incarnation with the key pool's revocation barrier.
    // The gates publish through the handle — region entry (depth 0 → 1)
    // stamps the barrier epoch, the single restore point parks — and its
    // Drop (including panic unwind through the supervision path)
    // deregisters, so a dead incarnation can never wedge a quarantined
    // key.
    let _epoch = registry.map(|r| {
        let epoch = Arc::new(r.pool().barrier().register());
        browser.machine.gates.set_worker_epoch(Arc::clone(&epoch));
        epoch
    });

    let this = Incarnation { worker, incarnation, ctx, cell, handler };
    let mut result = Ok(());
    while let Some(request) = queue.pop() {
        // A condemned incarnation (the watchdog wrote this thread off and
        // respawned the slot) must not serve: the popped request belongs
        // to a live worker — hand it back and bow out.
        if !cell.begin(incarnation, request) {
            queue.requeue(request);
            break;
        }
        // Deadline shedding at pop: a request whose deadline the logical
        // clock has already passed is counted expired, never served —
        // bounding queue wait at `deadline_ticks` service times.
        if request.deadline != 0 && overload.ticks() >= request.deadline {
            if cell.complete(incarnation, |inner| inner.stats.expired += 1) {
                overload.tick();
            }
            continue;
        }
        if let Some(error) = this.handle(&mut browser, &request) {
            result = Err(error);
            break;
        }
    }
    cell.add_work(browser.stats().transitions, browser.dispatch_stats());
    result
}

/// What a completed request adds to the slot's ledger beyond the
/// per-kind count every completion makes.
enum Outcome {
    /// Nothing more: a quarantined tenant's refusal, or a violation the
    /// handler already accounted.
    Done,
    /// A response, checked against the reference checksum after drain.
    Response(Response),
    /// A non-MPK failure.
    Error,
    /// An MPK violation no handler judged.
    PkeyFault,
}

/// One running incarnation of a worker slot: what it needs to serve a
/// request and complete it in the slot's cell.
struct Incarnation<'a> {
    worker: usize,
    incarnation: u64,
    ctx: PoolCtx<'a>,
    cell: &'a WorkerCell,
    /// The worker's own violation handler (`None` under `enforce`).
    handler: Option<&'a Arc<ViolationHandler>>,
}

impl Incarnation<'_> {
    /// Serves one popped request and completes it in the cell. Returns
    /// the cause of death when the request must end this incarnation; a
    /// request that panics stays in flight in the cell for the supervisor
    /// to requeue.
    fn handle(&self, browser: &mut Browser, request: &Request) -> Option<String> {
        // From here until it drops, on every return and during unwind,
        // the browser runs in the request's compartment.
        let mut browser = match self.enter(browser, request) {
            Ok(compartment) => compartment,
            Err(refused) => {
                self.complete(request, refused, false);
                return None;
            }
        };
        // Held by its own Arc: the compartment is borrowed mutably below.
        let tenant = browser.lease().map(|l| Arc::clone(l.tenant()));
        // Injected faults consult the *tenant's* handler when one is
        // active: a violation inside a tenant compartment is the
        // tenant's liability, not the worker's.
        let active_handler = tenant.as_ref().and_then(|t| t.handler()).or(self.handler);
        match self.ctx.faults.next_request(self.worker) {
            None => {
                let outcome = self.serve(&mut browser, request);
                self.complete(request, outcome, true);
                None
            }
            Some(FaultKind::Panic) => {
                // The in-flight request stays in the cell: the supervisor
                // recovers and requeues it.
                panic!("injected panic: worker {} dying on request {}", self.worker, request.id);
            }
            Some(FaultKind::PkeyViolation) => match active_handler {
                // No handler (enforce): an injected violation looks exactly
                // like a real one — the request completes, the defect lands
                // in the report.
                None => {
                    self.complete(request, Outcome::PkeyFault, false);
                    None
                }
                // With a handler, the injection provokes a *real* MPK
                // violation (a trusted-pool read from inside the
                // compartment) that flows through the machine's fault path
                // into the handler. The violation is accounted there —
                // never in `pkey_faults` — so `injected_faults` and the
                // `violations_*` counters stay disjoint from the legacy
                // unexpected-fault counter.
                Some(active) => {
                    // A denied probe is the handler's verdict (enforcement
                    // or a tripped breaker), already counted by the
                    // handler; anything else is a genuine worker error.
                    let outcome = match browser.probe_trusted_access() {
                        Err(e) if !e.is_pkey_violation() => Outcome::Error,
                        _ => Outcome::Done,
                    };
                    self.complete(request, outcome, false);
                    // A tripped *tenant* breaker condemns the tenant (every
                    // later request of theirs is rejected) while the
                    // worker lives on. The worker's own breaker tears this
                    // incarnation down through the supervision path; the
                    // request was completed above, so nothing is requeued.
                    (active.tripped() && tenant.is_none())
                        .then(|| "quarantined: MPK violation breaker tripped".into())
                }
            },
            Some(FaultKind::AllocExhaustion) => Some(exhaust_carveout(&mut browser)),
            Some(FaultKind::Stall) => {
                // The wedge: heartbeat frozen, request in flight, thread
                // parked on the stall gate. The watchdog must condemn this
                // incarnation and requeue the request; the gate opens only
                // once supervision is over, and by then this incarnation is
                // poisoned — it leaves with nothing to report. The tenant's
                // gate region was already exited by `touch_tenant` (the
                // worker's barrier epoch is parked), so a wedged thread
                // never blocks key revocation either.
                self.ctx.faults.stall_until_released();
                None
            }
            // Setup faults are filtered out by `next_request`.
            Some(FaultKind::SetupFailure) => unreachable!("setup fault on a live worker"),
        }
    }

    /// Enters the request's compartment. A tenant-tagged request binds the
    /// tenant's virtual key (possibly stealing an LRU hardware key from an
    /// idle tenant) and touches the tenant's region; a refusal comes back
    /// as the outcome to complete the request with, and the worker
    /// survives it.
    fn enter<'w>(
        &self,
        browser: &'w mut Browser,
        request: &Request,
    ) -> Result<Compartment<'w>, Outcome> {
        let (Some(registry), Some(tid)) = (self.ctx.registry, request.tenant) else {
            return Ok(Compartment::enter(browser, None));
        };
        // A bind refused after the retry budget (sustained barrier
        // pressure or true exhaustion) is an error.
        let lease =
            registry.bind_with_retry(tid, TENANT_BIND_RETRIES).map_err(|_| Outcome::Error)?;
        let tenant = Arc::clone(lease.tenant());
        // A quarantined tenant is refused per request — its neighbours
        // (and this worker) keep serving.
        if tenant.quarantined() {
            tenant.record_rejected();
            return Err(Outcome::Done);
        }
        tenant.record_request();
        // The lease does not pin the binding — revocation protects it: if
        // the pool steals the key mid-request, the gates refuse with a
        // typed `StaleLease` and `touch_tenant` re-binds.
        let mut compartment = Compartment::enter(browser, Some(lease));
        if self.touch_tenant(&mut compartment, &tenant, request.id) {
            Ok(compartment)
        } else {
            Err(Outcome::Error)
        }
    }

    /// Touches the tenant's private region under its rights: the
    /// round-trip of `stamp` through the scratch slot only succeeds if the
    /// bind re-tagged the tenant's (parked) pages onto the leased hardware
    /// key. The pool may steal that key at any moment — the gate then
    /// refuses with a typed `StaleLease` (or a mem op faults on the freshly
    /// parked pages mid-region), and the worker re-binds and retries,
    /// bounded. Returns whether the round-trip landed.
    fn touch_tenant(&self, browser: &mut Compartment<'_>, tenant: &Tenant, stamp: u64) -> bool {
        let scratch = tenant.scratch_addr();
        let mut rebinds = 0usize;
        loop {
            let m = &mut browser.machine;
            let ok = match m.gates.enter_untrusted(&mut m.cpu) {
                Ok(()) => {
                    let wrote =
                        m.mem_write(scratch, stamp).is_ok() && m.mem_read(scratch) == Ok(stamp);
                    // The exit gate runs unconditionally after a
                    // successful enter: an open region would block the
                    // revocation barrier (and leak compartment stack
                    // depth) for the rest of the incarnation.
                    let exited = m.gates.exit_untrusted(&mut m.cpu).is_ok();
                    wrote && exited
                }
                Err(GateError::StaleLease { .. }) => false,
                Err(_) => return false,
            };
            if ok {
                return true;
            }
            let stale = !browser.lease().expect("tenant lease in flight").is_current();
            if !stale || rebinds >= STALE_REBIND_RETRIES {
                return false;
            }
            // Revoked underneath us: re-bind the tenant (counted against
            // its bind_retries stat) and reinstall the fresh lease.
            rebinds += 1;
            tenant.record_bind_retry();
            let registry = self.ctx.registry.expect("tenant lease implies a registry");
            match registry.bind_with_retry(tenant.id(), TENANT_BIND_RETRIES) {
                Ok(fresh) => browser.rebind(fresh),
                Err(_) => return false,
            }
        }
    }

    /// Completes `request` in the cell: one more request of its kind, plus
    /// whatever `outcome` adds. When the browser `served` the request and
    /// the run records percentiles, its admission→completion latency is
    /// sampled. A completion that lands (the incarnation is still live)
    /// ticks the logical clock.
    fn complete(&self, request: &Request, outcome: Outcome, served: bool) {
        let disposed = self.cell.complete(self.incarnation, |cell| {
            let stats = &mut cell.stats;
            stats.requests += 1;
            match request.kind {
                RequestKind::PageLoad => stats.page_loads += 1,
                RequestKind::Script(_) => stats.scripts += 1,
            }
            match outcome {
                Outcome::Done => {}
                Outcome::Response(response) => cell.responses.push(response),
                Outcome::Error => stats.errors += 1,
                Outcome::PkeyFault => stats.pkey_faults += 1,
            }
            if served && self.ctx.record_latency {
                if let Some(enqueued) = request.enqueued {
                    cell.latencies.push(enqueued.elapsed().as_secs_f64() * 1000.0);
                }
            }
        });
        if disposed {
            self.ctx.overload.tick();
        }
    }

    /// Serves one page-load or script request on the worker's browser.
    fn serve(&self, browser: &mut Browser, request: &Request) -> Outcome {
        match request.kind {
            RequestKind::PageLoad => {
                let before = browser.stats().nodes;
                let outcome = browser.load_html(micro_page());
                let after = browser.stats().nodes;
                match outcome {
                    // A reload can only ever add nodes, but a failed-then-
                    // retried load must not be able to panic the worker on
                    // an impossible negative delta — count it as an error
                    // instead.
                    Ok(()) => match after.checked_sub(before) {
                        Some(delta) => Outcome::Response(Response {
                            id: request.id,
                            worker: self.worker,
                            name: PAGE_LOAD,
                            checksum: delta as f64,
                        }),
                        None => Outcome::Error,
                    },
                    Err(e) if e.is_pkey_violation() => Outcome::PkeyFault,
                    Err(_) => Outcome::Error,
                }
            }
            RequestKind::Script(i) => {
                let spec = &self.ctx.catalog[i];
                let outcome =
                    browser.eval_script(&spec.source).and_then(|_| browser.call_script("run", &[]));
                match outcome {
                    Ok(Value::Num(checksum)) => Outcome::Response(Response {
                        id: request.id,
                        worker: self.worker,
                        name: spec.name,
                        checksum,
                    }),
                    Ok(_) => Outcome::Error,
                    Err(e) if e.is_pkey_violation() => Outcome::PkeyFault,
                    Err(_) => Outcome::Error,
                }
            }
        }
    }
}
