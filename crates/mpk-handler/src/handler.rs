//! The per-worker violation handler.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Mutex;

use pkru_mpk::{Pkey, PkeyRights};
use pkru_provenance::AllocId;
use pkru_vmem::{Fault, FaultKind};

use crate::audit::{AuditRecord, AUDIT_LOG_CAP};
use crate::policy::MpkPolicy;
use crate::Verdict;

/// Per-policy violation counters, mirrored into the serve report.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ViolationCounters {
    /// Violations denied under `enforce` (fault killed the request).
    pub enforced: u64,
    /// Violations single-stepped and logged (audit, or quarantine below
    /// its threshold).
    pub audited: u64,
    /// Violations denied by a tripped quarantine breaker.
    pub quarantined: u64,
}

#[derive(Debug, Default)]
struct Inner {
    counters: ViolationCounters,
    log: Vec<AuditRecord>,
    /// Records discarded once the log hit [`AUDIT_LOG_CAP`].
    dropped: u64,
    /// Next record's position in this worker's violation stream.
    seq: u64,
    /// Violations from the current worker incarnation (reset on respawn).
    incarnation_violations: u32,
    /// Violations per allocation site, across incarnations.
    site_violations: BTreeMap<AllocId, u32>,
    /// Whether the quarantine breaker has tripped for this incarnation.
    tripped: bool,
    /// Sites whose violation count crossed the quarantine threshold.
    flagged: BTreeSet<AllocId>,
}

/// A per-worker MPK violation handler.
///
/// One handler pairs with one pool slot; it is shared (`Arc`) between the
/// machine's fault-resolution path, the call-gate runtime, and the
/// supervisor. All state sits behind one mutex — violations are the slow
/// path by definition, so contention is irrelevant.
#[derive(Debug)]
pub struct ViolationHandler {
    policy: MpkPolicy,
    worker: usize,
    /// When set, only faults on this key (or on the refreshed
    /// `tenant_scope` below) may be single-stepped; faults on any other
    /// key are recorded but denied outright.
    grant_scope: Option<Pkey>,
    /// The tenant's *currently bound* hardware key, refreshed on every
    /// bind/rebind and cleared when the worker leaves the compartment.
    /// Kept separate from the immutable base scope: a scope captured at
    /// bind time would keep naming the hardware key after it is stolen
    /// and recycled — and an audit single-step would then grant the
    /// key's next owner.
    tenant_scope: Mutex<Option<Pkey>>,
    inner: Mutex<Inner>,
}

impl ViolationHandler {
    /// Creates a handler for the worker in pool slot `worker`.
    pub fn new(policy: MpkPolicy, worker: usize) -> ViolationHandler {
        ViolationHandler {
            policy,
            worker,
            grant_scope: None,
            tenant_scope: Mutex::new(None),
            inner: Mutex::new(Inner::default()),
        }
    }

    /// Restricts audit/quarantine grants to faults on `scope`.
    ///
    /// Multi-tenant compartments need this: under `audit`, the handler
    /// replies `SingleStep { grant }` for *any* faulting key, which
    /// would let a tenant's probe actually read a neighbour's byte
    /// (logged, but leaked). Scoped to the trusted key, trusted-pool
    /// probes keep their observability while cross-tenant and park-key
    /// faults are recorded and denied — counted `enforced` under
    /// `audit`, `quarantined` under `quarantine`, and still feeding the
    /// quarantine breaker.
    pub fn with_grant_scope(mut self, scope: Pkey) -> ViolationHandler {
        self.grant_scope = Some(scope);
        self
    }

    /// The key grants are restricted to, if any.
    pub fn grant_scope(&self) -> Option<Pkey> {
        self.grant_scope
    }

    /// Refreshes the tenant's currently bound hardware key (widening the
    /// grant scope to base ∪ tenant key), or clears it with `None`.
    ///
    /// Call on every bind/rebind and when the worker leaves the compartment:
    /// the scope must track the *live* binding, never a recycled key.
    pub fn refresh_tenant_scope(&self, key: Option<Pkey>) {
        *self.tenant_scope.lock().expect("tenant scope lock") = key;
    }

    /// The tenant hardware key grants currently extend to, if any.
    pub fn tenant_scope(&self) -> Option<Pkey> {
        *self.tenant_scope.lock().expect("tenant scope lock")
    }

    /// The policy this handler enforces.
    pub fn policy(&self) -> MpkPolicy {
        self.policy
    }

    /// The pool slot this handler polices.
    pub fn worker(&self) -> usize {
        self.worker
    }

    /// Classifies one MPK violation and updates the ledger.
    ///
    /// `site` is the allocation site resolved from the faulting address
    /// (or `None` for untracked memory). Non-pkey faults are not this
    /// handler's business and are always denied, uncounted — callers
    /// should route only [`Fault::is_pkey_violation`] faults here.
    pub fn on_violation(&self, fault: &Fault, site: Option<AllocId>) -> Verdict {
        let FaultKind::PkeyViolation { pkey, pkru } = fault.kind else {
            return Verdict::Deny;
        };
        // Out-of-scope faults are observed (recorded, counted, fed to
        // the breaker) but never granted: single-stepping them would
        // perform the forbidden access. In scope = the base scope or the
        // tenant's live binding; a key the tenant *used to* wear is out.
        let out_of_scope = self.grant_scope.is_some()
            && self.grant_scope != Some(pkey)
            && self.tenant_scope() != Some(pkey);
        let mut inner = self.inner.lock().expect("handler lock");
        match self.policy {
            MpkPolicy::Enforce => {
                inner.counters.enforced += 1;
                Verdict::Deny
            }
            MpkPolicy::Audit => {
                inner.push_record(self.worker, fault, site);
                if out_of_scope {
                    inner.counters.enforced += 1;
                    Verdict::Deny
                } else {
                    inner.counters.audited += 1;
                    Verdict::SingleStep { grant: pkru.with_rights(pkey, PkeyRights::ReadWrite) }
                }
            }
            MpkPolicy::Quarantine { threshold } => {
                inner.push_record(self.worker, fault, site);
                inner.incarnation_violations += 1;
                let site_count = match site {
                    Some(id) => {
                        let count = inner.site_violations.entry(id).or_insert(0);
                        *count += 1;
                        *count
                    }
                    None => 0,
                };
                let trip = inner.tripped
                    || inner.incarnation_violations >= threshold
                    || site_count >= threshold;
                if trip || out_of_scope {
                    if trip {
                        inner.tripped = true;
                        if let Some(id) = site {
                            if site_count >= threshold {
                                inner.flagged.insert(id);
                            }
                        }
                    }
                    inner.counters.quarantined += 1;
                    Verdict::Deny
                } else {
                    inner.counters.audited += 1;
                    Verdict::SingleStep { grant: pkru.with_rights(pkey, PkeyRights::ReadWrite) }
                }
            }
        }
    }

    /// Whether the quarantine breaker has tripped for the current worker
    /// incarnation. Always `false` under `enforce` and `audit`.
    pub fn tripped(&self) -> bool {
        self.inner.lock().expect("handler lock").tripped
    }

    /// Resets per-incarnation state when the worker (re)spawns.
    ///
    /// The breaker and the incarnation violation count reset — a fresh
    /// worker starts with a clean slate — but the per-site ledger, the
    /// flagged set, the counters, and the audit log persist: sites stay
    /// suspicious across respawns.
    pub fn begin_incarnation(&self) {
        let mut inner = self.inner.lock().expect("handler lock");
        inner.tripped = false;
        inner.incarnation_violations = 0;
    }

    /// Snapshot of the per-policy counters.
    pub fn counters(&self) -> ViolationCounters {
        self.inner.lock().expect("handler lock").counters
    }

    /// Copy of the audit log, in violation order.
    pub fn audit_log(&self) -> Vec<AuditRecord> {
        self.inner.lock().expect("handler lock").log.clone()
    }

    /// Records discarded because the audit log was full.
    pub fn audit_dropped(&self) -> u64 {
        self.inner.lock().expect("handler lock").dropped
    }

    /// Sites flagged by the quarantine breaker, in sorted order.
    pub fn flagged_sites(&self) -> Vec<AllocId> {
        self.inner.lock().expect("handler lock").flagged.iter().copied().collect()
    }
}

impl Inner {
    fn push_record(&mut self, worker: usize, fault: &Fault, site: Option<AllocId>) {
        let FaultKind::PkeyViolation { pkey, pkru } = fault.kind else {
            return;
        };
        let seq = self.seq;
        self.seq += 1;
        if self.log.len() >= AUDIT_LOG_CAP {
            self.dropped += 1;
            return;
        }
        self.log.push(AuditRecord {
            worker,
            seq,
            addr: fault.addr,
            pkey: pkey.index(),
            pkru: pkru.bits(),
            access: fault.access,
            site,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pkru_mpk::{AccessKind, Pkey, Pkru};

    fn violation(addr: u64) -> Fault {
        let pkey = Pkey::new(1).unwrap();
        Fault {
            addr,
            access: AccessKind::Write,
            kind: FaultKind::PkeyViolation { pkey, pkru: Pkru::deny_only(pkey) },
        }
    }

    #[test]
    fn enforce_denies_and_counts() {
        let h = ViolationHandler::new(MpkPolicy::Enforce, 0);
        assert_eq!(h.on_violation(&violation(0x1000), None), Verdict::Deny);
        assert_eq!(h.counters(), ViolationCounters { enforced: 1, audited: 0, quarantined: 0 });
        assert!(h.audit_log().is_empty(), "enforce keeps no audit log");
        assert!(!h.tripped());
    }

    #[test]
    fn audit_grants_the_faulting_key_once() {
        let h = ViolationHandler::new(MpkPolicy::Audit, 3);
        let fault = violation(0x2000);
        let Verdict::SingleStep { grant } = h.on_violation(&fault, Some(AllocId::new(9, 0, 0)))
        else {
            panic!("audit must single-step");
        };
        // The grant is the faulting PKRU with exactly the faulting key
        // re-enabled: every other restriction stays in force.
        assert!(grant.allows(Pkey::new(1).unwrap(), AccessKind::Write));
        assert_eq!(
            grant,
            Pkru::deny_only(Pkey::new(1).unwrap())
                .with_rights(Pkey::new(1).unwrap(), PkeyRights::ReadWrite)
        );
        let log = h.audit_log();
        assert_eq!(log.len(), 1);
        assert_eq!(log[0].worker, 3);
        assert_eq!(log[0].seq, 0);
        assert_eq!(log[0].site, Some(AllocId::new(9, 0, 0)));
        assert_eq!(h.counters().audited, 1);
    }

    #[test]
    fn audit_log_is_bounded() {
        let h = ViolationHandler::new(MpkPolicy::Audit, 0);
        for i in 0..(AUDIT_LOG_CAP as u64 + 10) {
            h.on_violation(&violation(0x1000 + i), None);
        }
        assert_eq!(h.audit_log().len(), AUDIT_LOG_CAP);
        assert_eq!(h.audit_dropped(), 10);
        // Sequence numbers keep advancing past the cap.
        assert_eq!(h.counters().audited, AUDIT_LOG_CAP as u64 + 10);
    }

    #[test]
    fn quarantine_trips_on_worker_threshold() {
        let h = ViolationHandler::new(MpkPolicy::Quarantine { threshold: 3 }, 0);
        assert!(matches!(h.on_violation(&violation(1), None), Verdict::SingleStep { .. }));
        assert!(matches!(h.on_violation(&violation(2), None), Verdict::SingleStep { .. }));
        assert!(!h.tripped());
        assert_eq!(h.on_violation(&violation(3), None), Verdict::Deny);
        assert!(h.tripped());
        // Once tripped, everything is denied.
        assert_eq!(h.on_violation(&violation(4), None), Verdict::Deny);
        assert_eq!(h.counters(), ViolationCounters { enforced: 0, audited: 2, quarantined: 2 });
    }

    #[test]
    fn quarantine_trips_on_site_threshold_across_incarnations() {
        let h = ViolationHandler::new(MpkPolicy::Quarantine { threshold: 2 }, 0);
        let hot = AllocId::new(5, 0, 1);
        h.begin_incarnation();
        assert!(matches!(h.on_violation(&violation(1), Some(hot)), Verdict::SingleStep { .. }));
        // Respawn: incarnation count resets, but the site ledger persists,
        // so the same site's second violation trips the breaker.
        h.begin_incarnation();
        assert!(!h.tripped());
        assert_eq!(h.on_violation(&violation(2), Some(hot)), Verdict::Deny);
        assert!(h.tripped());
        assert_eq!(h.flagged_sites(), vec![hot]);
        // A third incarnation starts clean again, but the site stays flagged.
        h.begin_incarnation();
        assert!(!h.tripped());
        assert_eq!(h.flagged_sites(), vec![hot]);
    }

    #[test]
    fn grant_scope_denies_out_of_scope_faults_but_still_records_them() {
        let scope = Pkey::new(2).unwrap();
        let h = ViolationHandler::new(MpkPolicy::Audit, 0).with_grant_scope(scope);
        assert_eq!(h.grant_scope(), Some(scope));
        // The faulting key is 1 ≠ scope: logged, but denied outright.
        assert_eq!(h.on_violation(&violation(0x1000), None), Verdict::Deny);
        assert_eq!(h.audit_log().len(), 1);
        assert_eq!(h.counters(), ViolationCounters { enforced: 1, audited: 0, quarantined: 0 });
        // An in-scope fault still single-steps.
        let in_scope = Fault {
            addr: 0x2000,
            access: AccessKind::Read,
            kind: FaultKind::PkeyViolation { pkey: scope, pkru: Pkru::deny_only(scope) },
        };
        assert!(matches!(h.on_violation(&in_scope, None), Verdict::SingleStep { .. }));
        assert_eq!(h.counters().audited, 1);
        // Under quarantine, out-of-scope faults are denied immediately
        // and still feed the breaker.
        let q = ViolationHandler::new(MpkPolicy::Quarantine { threshold: 2 }, 0)
            .with_grant_scope(scope);
        assert_eq!(q.on_violation(&violation(1), None), Verdict::Deny);
        assert!(!q.tripped(), "one out-of-scope fault must not trip a threshold of 2");
        assert_eq!(q.on_violation(&violation(2), None), Verdict::Deny);
        assert!(q.tripped());
        assert_eq!(q.counters(), ViolationCounters { enforced: 0, audited: 0, quarantined: 2 });
    }

    /// The grant-scope-staleness regression: a handler whose scope was
    /// captured at bind time would keep granting a hardware key after it
    /// was stolen and recycled, turning audit single-steps into reads of
    /// the key's next owner. The refreshed `tenant_scope` must track the
    /// live binding exactly.
    #[test]
    fn refreshed_tenant_scope_never_grants_a_recycled_key() {
        let trusted = Pkey::new(2).unwrap();
        let old = Pkey::new(5).unwrap();
        let new = Pkey::new(6).unwrap();
        let fault_on = |key: Pkey| Fault {
            addr: 0x3000,
            access: AccessKind::Read,
            kind: FaultKind::PkeyViolation { pkey: key, pkru: Pkru::deny_only(key) },
        };
        let h = ViolationHandler::new(MpkPolicy::Audit, 0).with_grant_scope(trusted);
        // Bound to `old`: faults on it single-step, like trusted faults.
        h.refresh_tenant_scope(Some(old));
        assert_eq!(h.tenant_scope(), Some(old));
        assert!(matches!(h.on_violation(&fault_on(old), None), Verdict::SingleStep { .. }));
        assert!(matches!(h.on_violation(&fault_on(trusted), None), Verdict::SingleStep { .. }));
        // `old` is stolen and recycled to another tenant; the worker
        // rebinds onto `new`. A fault on `old` must now be denied — an
        // audit single-step would read the recycled key's new owner.
        h.refresh_tenant_scope(Some(new));
        assert_eq!(
            h.on_violation(&fault_on(old), None),
            Verdict::Deny,
            "audit single-step granted a recycled key"
        );
        assert!(matches!(h.on_violation(&fault_on(new), None), Verdict::SingleStep { .. }));
        // The restore point clears the scope: only the base remains.
        h.refresh_tenant_scope(None);
        assert_eq!(h.on_violation(&fault_on(new), None), Verdict::Deny);
        assert!(matches!(h.on_violation(&fault_on(trusted), None), Verdict::SingleStep { .. }));
    }

    #[test]
    fn non_pkey_faults_are_denied_uncounted() {
        let h = ViolationHandler::new(MpkPolicy::Audit, 0);
        let fault = Fault { addr: 0x10, access: AccessKind::Read, kind: FaultKind::Unmapped };
        assert_eq!(h.on_violation(&fault, None), Verdict::Deny);
        assert_eq!(h.counters(), ViolationCounters::default());
        assert!(h.audit_log().is_empty());
    }
}
