//! `pkru-server`: a multi-threaded, compartment-aware serving runtime.
//!
//! The paper's threat model is per-thread: PKRU is a *register*, so each
//! thread carries its own compartment rights, while protection-key
//! assignments live in the page tables and are process-wide. This crate
//! exercises exactly that split. A pool of worker threads serves
//! page-load and script requests from a bounded queue; every worker owns
//! a full `servolite` browser — its own CPU/PKRU, its own call-gate
//! stack, its own allocator carve-out — built on one [`lir::SharedHost`]:
//! one shared address space, one shared key pool, one process-wide
//! trusted key.
//!
//! The serving pipeline is the paper's pipeline: the catalog is profiled
//! on the profiling build first, the enforcement build then runs with the
//! recorded allocation-site profile, and any MPK fault at serve time is
//! by construction *unexpected* and counted as a defect. Determinism is
//! checked end to end: every pooled response's checksum must equal, bit
//! for bit, the checksum of the same request on a single-threaded
//! reference browser.
//!
//! Worker death is a *designed-for* event, not a hang: a supervisor
//! respawns dead workers within a per-slot budget, requeues their
//! in-flight request at most once, and — if the whole pool dies — closes
//! the queue and returns the error carrying a partial report. The same
//! failure modes are injectable on demand through a deterministic
//! [`FaultPlan`] (setup failure, mid-request panic, MPK violation,
//! allocator-carve-out exhaustion, mid-request stall), so the
//! supervision semantics are testable property by property.
//!
//! Overload is likewise designed for, not suffered: a wedged-worker
//! *watchdog* condemns and respawns a slot whose progress heartbeat
//! stalls with a request in flight; request *deadlines* (on a logical
//! completed-request clock) shed stale queue entries at pop; bounded-wait
//! *admission control* rejects typed instead of blocking forever on a
//! saturated queue; and per-tenant *fair queueing* (token buckets +
//! deficit round robin) keeps a hot tenant's storm from starving its
//! neighbours. Every disposition is accounted:
//! `served + abandoned + expired + rejected == requested` on every exit
//! path.

mod compartment;
mod fault;
mod overload;
mod queue;
mod request;
mod server;
mod traffic;
mod worker;

pub use fault::{Fault, FaultKind, FaultPlan, FaultState};
pub use overload::{Admit, FairScheduler, LatencySummary, OverloadState, TokenBucket, DRR_QUANTUM};
pub use pkru_handler::{
    audit_log_json, AuditRecord, MpkPolicy, Verdict, ViolationCounters, ViolationHandler,
    AUDIT_LOG_CAP, DEFAULT_QUARANTINE_THRESHOLD,
};
pub use pkru_tenant::{
    Tenant, TenantConfig, TenantError, TenantLease, TenantRegistry, VirtualPkey, VirtualPkeyError,
    VirtualPkeyPool, VkeyPoolStats,
};
pub use queue::{BoundedQueue, PushError, QueueStats};
pub use request::{catalog, Request, RequestKind, Response, ScriptSpec, PAGE_LOAD};
pub use server::{
    build_tenant_registry, serve, ServeConfig, ServeError, ServeReport, TenantReportRow,
    DEFAULT_STALL_TIMEOUT_MS, RESTART_BUDGET,
};
pub use traffic::{TrafficGen, TrafficShape};
pub use worker::{run_worker, PoolCtx, WorkerCell, WorkerStats};
