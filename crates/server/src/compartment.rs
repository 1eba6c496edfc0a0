//! The compartment a worker serves one request in: the only code in this
//! crate that changes a worker's untrusted PKRU and lease stamp, syscall
//! filter, violation handler or tenant grant scope. [`Compartment`] swaps
//! a tenant's state in on construction, keeps what it displaced, and
//! swaps that back in `Drop` — on every exit, unwinding included — the
//! way the paper's gates restore the rights in force before a switch
//! instead of assuming them.

use std::ops::{Deref, DerefMut};
use std::sync::Arc;

use lir::{Machine, SyscallFilter};
use pkru_handler::ViolationHandler;
use pkru_mpk::Pkru;
use pkru_tenant::TenantLease;
use servolite::Browser;

/// A worker's browser for the length of one request, inside the
/// request's tenant compartment when it has one. Dereferences to the
/// browser.
pub(crate) struct Compartment<'w> {
    browser: &'w mut Browser,
    installed: Option<Installed>,
}

/// A tenant's installed compartment and the worker state it displaced.
struct Installed {
    lease: TenantLease,
    untrusted: Pkru,
    filter: SyscallFilter,
    handler: Option<Arc<ViolationHandler>>,
}

impl<'w> Compartment<'w> {
    /// Enters `lease`'s tenant compartment, or stays in the worker's
    /// ambient one when the request has no tenant.
    pub(crate) fn enter(browser: &'w mut Browser, lease: Option<TenantLease>) -> Compartment<'w> {
        let installed = lease.map(|lease| {
            let machine = &mut browser.machine;
            debug_assert!(machine.gates.untrusted_lease().is_none(), "compartments do not nest");
            let untrusted = machine.gates.untrusted_pkru();
            let handler = machine.violation_handler().cloned();
            install_lease(machine, &lease);
            let tenant = lease.tenant();
            if let Some(h) = tenant.handler() {
                machine.set_violation_handler(Arc::clone(h));
            }
            let filter = machine.install_syscall_filter(tenant.syscall_filter().clone());
            Installed { lease, untrusted, filter, handler }
        });
        Compartment { browser, installed }
    }

    /// The lease the compartment runs under (`None` outside a tenant).
    pub(crate) fn lease(&self) -> Option<&TenantLease> {
        self.installed.as_ref().map(|i| &i.lease)
    }

    /// Replaces a revoked lease with `fresh`, a new binding of the same
    /// tenant: its PKRU and stamp go into the gates and the grant scope
    /// moves to its hardware key. The old lease drops here.
    pub(crate) fn rebind(&mut self, fresh: TenantLease) {
        let installed = self.installed.as_mut().expect("rebind inside a tenant compartment");
        debug_assert!(Arc::ptr_eq(fresh.tenant(), installed.lease.tenant()));
        install_lease(&mut self.browser.machine, &fresh);
        installed.lease = fresh;
    }
}

/// Installs `lease`'s rights with its liveness stamp, so the gates refuse
/// stale entry typed, and points the tenant handler's grant scope at the
/// hardware key the lease currently names.
fn install_lease(machine: &mut Machine, lease: &TenantLease) {
    machine.gates.set_untrusted_lease(lease.pkru(), lease.stamp());
    if let Some(h) = lease.tenant().handler() {
        h.refresh_tenant_scope(Some(lease.hw_key()));
    }
}

impl Drop for Compartment<'_> {
    fn drop(&mut self) {
        let Some(Installed { lease, untrusted, filter, handler }) = self.installed.take() else {
            return;
        };
        let machine = &mut self.browser.machine;
        // `set_untrusted_pkru` also drops the lease stamp.
        machine.gates.set_untrusted_pkru(untrusted);
        machine.install_syscall_filter(filter);
        // The grant scope must not outlive the request: the tenant's key
        // may be stolen and recycled once the lease drops, and a lingering
        // scope would let an audit single-step grant the recycled key.
        if let Some(h) = lease.tenant().handler() {
            h.refresh_tenant_scope(None);
        }
        match handler {
            Some(h) => machine.set_violation_handler(h),
            None => machine.clear_violation_handler(),
        }
    }
}

impl Deref for Compartment<'_> {
    type Target = Browser;

    fn deref(&self) -> &Browser {
        self.browser
    }
}

impl DerefMut for Compartment<'_> {
    fn deref_mut(&mut self) -> &mut Browser {
        self.browser
    }
}

#[cfg(test)]
mod tests {
    use std::panic::{catch_unwind, AssertUnwindSafe};

    use lir::{SharedHost, SysKind};
    use pkru_handler::MpkPolicy;
    use pkru_tenant::{TenantConfig, TenantRegistry};
    use servolite::BrowserConfig;

    use super::*;

    /// A host with one audit-policy tenant whose filter differs from the
    /// worker's deny-all default.
    fn audit_tenant(host: &SharedHost) -> TenantRegistry {
        let mut registry = TenantRegistry::new(host).expect("registry");
        let mut syscalls = SyscallFilter::deny_all();
        syscalls.allow(SysKind::Map);
        registry
            .add_tenant(TenantConfig {
                policy: MpkPolicy::Audit,
                syscalls,
                ..TenantConfig::default()
            })
            .expect("tenant");
        registry
    }

    /// A worker browser on `host`: with an audit handler, or with none as
    /// under `enforce`.
    fn worker(host: &SharedHost, handler: Option<Arc<ViolationHandler>>) -> Browser {
        match handler {
            Some(h) => Browser::with_handler_on(BrowserConfig::Mpk, None, host, h),
            None => Browser::with_profile_on(BrowserConfig::Mpk, None, host),
        }
        .expect("worker browser")
    }

    #[test]
    fn drop_restores_the_ambient_compartment_during_unwind() {
        for ambient_handler in [None, Some(Arc::new(ViolationHandler::new(MpkPolicy::Audit, 0)))] {
            let host = SharedHost::new();
            let registry = audit_tenant(&host);
            let tenant = Arc::clone(&registry.tenants()[0]);
            let tenant_handler = Arc::clone(tenant.handler().expect("audit tenants have one"));
            let mut browser = worker(&host, ambient_handler.clone());
            let ambient_pkru = browser.machine.gates.untrusted_pkru();
            let ambient_filter = browser.machine.syscall_filter().clone();

            let lease = registry.bind(0).expect("bind");
            let hw = lease.hw_key();
            let unwound = catch_unwind(AssertUnwindSafe(|| {
                let inside = Compartment::enter(&mut browser, Some(lease));
                assert_eq!(inside.machine.gates.untrusted_pkru(), pkru_tenant::tenant_pkru(hw));
                assert!(inside.machine.gates.untrusted_lease().is_some());
                assert!(inside.machine.syscall_filter().permits(SysKind::Map));
                assert!(Arc::ptr_eq(inside.machine.violation_handler().unwrap(), &tenant_handler));
                assert_eq!(tenant_handler.tenant_scope(), Some(hw));
                panic!("request dies inside the tenant compartment");
            }));
            // Only the deliberate panic may unwind: a failed assertion
            // above would carry a different payload.
            let payload = unwound.expect_err("the request panicked");
            assert_eq!(
                payload.downcast_ref::<&str>(),
                Some(&"request dies inside the tenant compartment")
            );

            let machine = &browser.machine;
            assert_eq!(machine.gates.untrusted_pkru(), ambient_pkru);
            assert!(machine.gates.untrusted_lease().is_none());
            assert_eq!(machine.syscall_filter(), &ambient_filter);
            assert_eq!(
                machine.violation_handler().map(Arc::as_ptr),
                ambient_handler.as_ref().map(Arc::as_ptr)
            );
            assert_eq!(tenant_handler.tenant_scope(), None);
        }
    }

    #[test]
    fn rebind_moves_the_scope_to_the_new_hardware_key() {
        let host = SharedHost::new();
        let mut registry = audit_tenant(&host);
        registry.populate(1, MpkPolicy::Enforce).expect("neighbour");
        let tenant_handler = Arc::clone(registry.tenants()[0].handler().expect("audit"));
        let mut browser = worker(&host, None);
        // Leave one free hardware key, so the neighbour's bind has to
        // steal tenant 0's key from under the compartment.
        let keys = host.pkey_pool();
        let mut held = Vec::new();
        while keys.allocated_count() < 15 {
            held.push(keys.alloc().expect("spare key"));
        }

        let lease = registry.bind(0).expect("bind");
        let old = lease.hw_key();
        let mut inside = Compartment::enter(&mut browser, Some(lease));
        let neighbour = registry.bind(1).expect("steal");
        assert_eq!(neighbour.hw_key(), old, "the neighbour took tenant 0's key");
        assert!(!inside.lease().expect("lease").is_current());
        keys.free(held.pop().expect("a spare key")).expect("free");
        let fresh = registry.bind(0).expect("rebind");
        let new = fresh.hw_key();
        assert_ne!(new, old);
        inside.rebind(fresh);
        assert_eq!(tenant_handler.tenant_scope(), Some(new));
        assert_eq!(inside.machine.gates.untrusted_pkru(), pkru_tenant::tenant_pkru(new));
        drop(inside);
        assert_eq!(tenant_handler.tenant_scope(), None);
    }
}
