//! End-to-end serve tests: happy path, graceful drain, determinism
//! against the single-threaded reference, and config validation.

use pkru_server::{
    serve, Fault, FaultKind, FaultPlan, MpkPolicy, QueueStats, ServeConfig, ServeError,
    ServeReport, WorkerStats,
};

#[test]
fn serve_happy_path_is_clean() {
    let config =
        ServeConfig { workers: 2, requests: 48, queue_capacity: 8, seed: 7, ..Default::default() };
    let report = serve(config).expect("serve");
    assert!(report.clean(), "unclean report: {report:?}");
    assert_eq!(report.requests_served, 48);
    assert_eq!(report.queue.enqueued, 48);
    assert_eq!(report.workers.len(), 2);
    assert_eq!(report.checksum_mismatches, 0);
    assert_eq!(report.unexpected_faults, 0);
    assert!(report.throughput_rps > 0.0);
    // Graceful drain: every generated request was served by someone.
    assert_eq!(report.workers.iter().map(|w| w.requests).sum::<u64>(), 48);
    // The enforcement build actually crossed the boundary.
    assert!(report.transitions > 0);
    // A fault-free run must report an entirely quiet supervision layer.
    assert_eq!(report.workers_restarted, 0);
    assert_eq!(report.requests_retried, 0);
    assert_eq!(report.requests_abandoned, 0);
    assert_eq!(report.injected_faults, 0);
}

#[test]
fn single_worker_matches_reference() {
    let config =
        ServeConfig { workers: 1, requests: 20, queue_capacity: 4, seed: 3, ..Default::default() };
    let report = serve(config).expect("serve");
    assert!(report.clean(), "unclean report: {report:?}");
    assert_eq!(report.workers[0].requests, 20);
}

#[test]
fn report_serializes_to_json() {
    let config =
        ServeConfig { workers: 1, requests: 8, queue_capacity: 4, seed: 1, ..Default::default() };
    let report = serve(config).expect("serve");
    let json = report.to_json();
    for key in [
        "\"workers\":1",
        "\"requests_served\":8",
        "\"throughput_rps\":",
        "\"backpressure_waits\":",
        "\"per_worker\":[",
        "\"checksum_mismatches\":0",
        "\"unexpected_faults\":0",
        "\"workers_restarted\":0",
        "\"requests_retried\":0",
        "\"requests_abandoned\":0",
        "\"injected_faults\":0",
        "\"tlb_hits\":",
        "\"tlb_misses\":",
        "\"tlb_flushes\":",
    ] {
        assert!(json.contains(key), "missing {key} in {json}");
    }
}

/// Pins the one report schema byte for byte on a default-config report:
/// every section renders — policy and violations, overload, latency
/// (`null`), dispatch counters, tenants (zeroed) — whatever the config
/// left unused. Built by hand so wall-clock noise (elapsed seconds,
/// throughput) cannot perturb the comparison.
#[test]
fn default_json_schema_is_pinned() {
    let report = ServeReport {
        config: ServeConfig {
            workers: 1,
            requests: 2,
            queue_capacity: 4,
            seed: 9,
            faults: FaultPlan::none(),
            mpk_policy: MpkPolicy::Enforce,
            extra_profile: None,
            ..ServeConfig::default()
        },
        workers: vec![WorkerStats {
            worker: 0,
            requests: 2,
            page_loads: 1,
            scripts: 1,
            transitions: 10,
            pkey_faults: 0,
            errors: 0,
            expired: 0,
            ic_hits: 512,
            ic_misses: 16,
            fused_ops: 128,
        }],
        elapsed_seconds: 0.5,
        throughput_rps: 4.0,
        queue: QueueStats { enqueued: 2, max_depth: 2, backpressure_waits: 0, requeued: 0 },
        requests_served: 2,
        transitions: 10,
        checksum_mismatches: 0,
        unexpected_faults: 0,
        errors: 0,
        workers_restarted: 0,
        requests_retried: 0,
        requests_abandoned: 0,
        injected_faults: 0,
        tlb_hits: 640,
        tlb_misses: 8,
        tlb_flushes: 2,
        dispatch_ic_hits: 512,
        dispatch_ic_misses: 16,
        superinstructions_fused: 128,
        violations_enforced: 0,
        violations_audited: 0,
        violations_quarantined: 0,
        flagged_sites: Vec::new(),
        audit_log: Vec::new(),
        audit_dropped: 0,
        per_tenant: Vec::new(),
        tenant_key_stats: None,
        requests_expired: 0,
        requests_rejected: 0,
        workers_stalled: 0,
        latency: None,
    };
    assert_eq!(
        report.to_json(),
        concat!(
            "{\"workers\":1,\"requests\":2,\"queue_capacity\":4,\"seed\":9,",
            "\"mpk_policy\":\"enforce\",\"elapsed_seconds\":0.5,\"throughput_rps\":4,",
            "\"queue\":{\"enqueued\":2,\"max_depth\":2,\"backpressure_waits\":0,",
            "\"requeued\":0},",
            "\"requests_served\":2,\"transitions\":10,\"checksum_mismatches\":0,",
            "\"unexpected_faults\":0,\"errors\":0,",
            "\"workers_restarted\":0,\"requests_retried\":0,",
            "\"requests_abandoned\":0,\"injected_faults\":0,\"workers_stalled\":0,",
            "\"deadline_ticks\":0,\"admission_wait_ms\":null,",
            "\"requests_expired\":0,\"requests_rejected\":0,\"latency\":null,",
            "\"tlb_hits\":640,\"tlb_misses\":8,\"tlb_flushes\":2,",
            "\"dispatch_ic_hits\":512,\"dispatch_ic_misses\":16,",
            "\"superinstructions_fused\":128,",
            "\"violations_enforced\":0,\"violations_audited\":0,",
            "\"violations_quarantined\":0,\"flagged_sites\":[],",
            "\"audit_dropped\":0,\"audit_log\":[],",
            "\"tenants\":0,\"tenant_policy\":\"enforce\",\"tenant_rate\":null,",
            "\"tenant_keys\":{\"binds\":0,\"hits\":0,\"misses\":0,\"evictions\":0,",
            "\"pages_retagged\":0,\"revocations\":0,\"deferred_reuses\":0,",
            "\"deferred_keys\":0},\"per_tenant\":[],",
            "\"per_worker\":[{\"worker\":0,\"requests\":2,\"page_loads\":1,",
            "\"scripts\":1,\"transitions\":10,\"pkey_faults\":0,\"errors\":0}]}"
        )
    );
}

/// The serve path always runs the per-thread software TLB; a collapsed hit
/// rate means the epoch protocol is over-flushing — a correctness bug in
/// the invalidation logic, not noise.
#[test]
fn default_serve_keeps_the_tlb_hit_rate_above_ninety_percent() {
    let config = ServeConfig { workers: 1, requests: 16, seed: 0x5eed, ..ServeConfig::default() };
    let report = serve(config).expect("serve");
    assert!(report.clean(), "unclean report: {report:?}");
    let lookups = report.tlb_hits + report.tlb_misses;
    assert!(lookups > 0, "the serve path bypassed the TLB: {report:?}");
    let hit_rate = report.tlb_hits as f64 / lookups as f64;
    assert!(hit_rate > 0.90, "TLB hit rate collapsed to {hit_rate:.4}: {report:?}");
}

#[test]
fn rejects_degenerate_configs() {
    assert!(matches!(
        serve(ServeConfig { workers: 0, ..ServeConfig::default() }),
        Err(ServeError::Config(_))
    ));
    assert!(matches!(
        serve(ServeConfig { workers: 10_000, ..ServeConfig::default() }),
        Err(ServeError::Config(_))
    ));
    // A fault aimed at a worker slot the pool doesn't have is a config
    // error, not a silently-dead injection.
    assert!(matches!(
        serve(ServeConfig {
            workers: 2,
            faults: FaultPlan::none().with(Fault { worker: 2, kind: FaultKind::Panic, at: 1 }),
            ..ServeConfig::default()
        }),
        Err(ServeError::Config(_))
    ));
}
