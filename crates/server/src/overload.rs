//! Overload resilience: the logical deadline clock, producer-side shed
//! accounting, per-tenant token buckets, and deficit-round-robin fair
//! queueing in front of the bounded queue.
//!
//! The runtime's overload story has three independent knobs, all off by
//! default (and invisible in the report JSON when off):
//!
//! * **Request deadlines** (`deadline_ticks`): time is measured on a
//!   logical clock that advances once per *disposed* request (served,
//!   errored, or shed), so "n ticks" means "n service times", independent
//!   of hardware speed. A request stamped `deadline = now + n` at
//!   admission is shed at pop — counted `requests_expired`, never run —
//!   once the clock passes its deadline. Queue wait is thereby bounded by
//!   `n` service times instead of the whole backlog.
//! * **Admission control** (`admission_wait_ms`): the producer's push
//!   waits at most this long on a full queue, then the request is
//!   rejected typed (counted `requests_rejected`) instead of blocking
//!   unboundedly — saturation sheds new arrivals rather than growing
//!   latency without bound.
//! * **Tenant fairness** (`tenant_rate`): per-tenant token buckets gate
//!   admission (burst = the configured rate, refilled at the fair share
//!   of the offered stream), and admitted requests wait in per-tenant
//!   sub-queues drained into the bounded queue by deficit round robin —
//!   a hot tenant's storm queues and sheds behind *its own* bucket and
//!   sub-queue while a well-behaved tenant's requests keep dispatching.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};

use pkru_provenance::json::JsonWriter;

use crate::request::{Request, RequestKind};

/// DRR quantum: the deficit a tenant earns per scheduler visit. Must be
/// ≥ the largest request cost so every head-of-line request eventually
/// dispatches.
pub const DRR_QUANTUM: u64 = 2;

/// The DRR cost of one request: page loads build a whole DOM and are
/// roughly twice the work of a catalog script.
fn drr_cost(kind: RequestKind) -> u64 {
    match kind {
        RequestKind::PageLoad => 2,
        RequestKind::Script(_) => 1,
    }
}

/// Shared overload accounting: the logical deadline clock plus the
/// producer-side shed counters, all lock-free (workers tick, the producer
/// rejects, the report reads once at the end).
#[derive(Debug)]
pub struct OverloadState {
    /// The logical clock: total requests disposed (served, errored, or
    /// expired) across the pool.
    ticks: AtomicU64,
    /// Requests the producer shed: admission-wait expiry on the shared
    /// queue, or a tenant's token bucket / backlog cap under fairness.
    rejected: AtomicU64,
    /// Per-tenant offered counts (fairness mode only; empty otherwise).
    offered: Vec<AtomicU64>,
    /// Per-tenant producer-side sheds (token bucket or backlog cap).
    rate_limited: Vec<AtomicU64>,
}

impl OverloadState {
    /// Fresh state for a pool serving `tenants` tenants (0 in
    /// single-tenant mode).
    pub fn new(tenants: usize) -> OverloadState {
        OverloadState {
            ticks: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            offered: (0..tenants).map(|_| AtomicU64::new(0)).collect(),
            rate_limited: (0..tenants).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Advances the logical clock by one disposed request.
    pub fn tick(&self) {
        self.ticks.fetch_add(1, Ordering::Relaxed);
    }

    /// The current logical time.
    pub fn ticks(&self) -> u64 {
        self.ticks.load(Ordering::Relaxed)
    }

    /// Counts one producer-side shed (admission or rate limit).
    pub fn reject(&self) {
        self.rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// Total producer-side sheds so far.
    pub fn rejected(&self) -> u64 {
        self.rejected.load(Ordering::Relaxed)
    }

    /// Counts one offered request for `tenant` (fairness mode).
    pub fn offer(&self, tenant: usize) {
        if let Some(n) = self.offered.get(tenant) {
            n.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Counts one rate-limit shed for `tenant` (fairness mode).
    pub fn rate_limit(&self, tenant: usize) {
        if let Some(n) = self.rate_limited.get(tenant) {
            n.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// `tenant`'s offered count.
    pub fn offered(&self, tenant: usize) -> u64 {
        self.offered.get(tenant).map_or(0, |n| n.load(Ordering::Relaxed))
    }

    /// `tenant`'s rate-limit shed count.
    pub fn rate_limited(&self, tenant: usize) -> u64 {
        self.rate_limited.get(tenant).map_or(0, |n| n.load(Ordering::Relaxed))
    }
}

/// A deterministic token bucket on the *offered-request* clock: every
/// request offered to the scheduler (any tenant's) refills every bucket
/// by its fair share — `1/tenants` of a token — capped at the burst. A
/// tenant spending exactly its fair share always finds a token; a tenant
/// storming at a multiple of its share burns the burst and is then
/// admitted at the fair-share rate, the excess rejected. Integer
/// millitoken math, so the stream is reproducible bit for bit.
#[derive(Clone, Debug)]
pub struct TokenBucket {
    millitokens: u64,
    burst_millitokens: u64,
    step_millitokens: u64,
}

impl TokenBucket {
    /// A full bucket holding `burst` tokens, refilled at `1/share` of a
    /// token per refill step.
    pub fn new(burst: u64, share: usize) -> TokenBucket {
        let burst_millitokens = burst.max(1).saturating_mul(1000);
        TokenBucket {
            millitokens: burst_millitokens,
            burst_millitokens,
            step_millitokens: 1000 / share.max(1) as u64,
        }
    }

    /// One refill step (one offered request anywhere in the stream).
    pub fn refill_step(&mut self) {
        self.millitokens = (self.millitokens + self.step_millitokens).min(self.burst_millitokens);
    }

    /// Spends one token if available.
    pub fn take(&mut self) -> bool {
        if self.millitokens >= 1000 {
            self.millitokens -= 1000;
            true
        } else {
            false
        }
    }
}

/// Why the fair scheduler refused a request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Admit {
    /// Queued on the tenant's sub-queue.
    Admitted,
    /// The tenant's token bucket is empty — it is over its rate.
    RateLimited,
    /// The tenant's sub-queue backlog cap is full — it is admitting
    /// faster than it dispatches even within its rate.
    BacklogFull,
}

/// Per-tenant fair queueing in front of the bounded queue: token-bucket
/// admission into per-tenant sub-queues, deficit-round-robin dispatch out
/// of them. Owned by the producer thread — no locking.
#[derive(Debug)]
pub struct FairScheduler {
    subs: Vec<VecDeque<Request>>,
    deficit: Vec<u64>,
    buckets: Vec<TokenBucket>,
    cursor: usize,
    backlog_cap: usize,
    pending: usize,
}

impl FairScheduler {
    /// A scheduler for `tenants` tenants with `burst` bucket tokens each
    /// and a per-tenant backlog cap of `backlog_cap` queued requests.
    pub fn new(tenants: usize, burst: u64, backlog_cap: usize) -> FairScheduler {
        let tenants = tenants.max(1);
        FairScheduler {
            subs: (0..tenants).map(|_| VecDeque::new()).collect(),
            deficit: vec![0; tenants],
            buckets: (0..tenants).map(|_| TokenBucket::new(burst, tenants)).collect(),
            cursor: 0,
            backlog_cap: backlog_cap.max(1),
            pending: 0,
        }
    }

    /// Offers `request` for admission: refills every bucket by one step
    /// (this is the offered-request clock), then admits to the tenant's
    /// sub-queue if a token and backlog room exist.
    pub fn admit(&mut self, request: Request) -> Admit {
        for bucket in &mut self.buckets {
            bucket.refill_step();
        }
        let tenant = request.tenant.unwrap_or(0).min(self.subs.len() - 1);
        if !self.buckets[tenant].take() {
            return Admit::RateLimited;
        }
        if self.subs[tenant].len() >= self.backlog_cap {
            return Admit::BacklogFull;
        }
        self.subs[tenant].push_back(request);
        self.pending += 1;
        Admit::Admitted
    }

    /// The next request to dispatch, by deficit round robin: each visit
    /// to a backlogged tenant earns it [`DRR_QUANTUM`] deficit; it
    /// dispatches while the deficit covers the head request's cost. Page
    /// loads cost 2, scripts 1, so a page-load-heavy tenant gets fewer
    /// dispatches per round, not starvation of its neighbours.
    pub fn dispatch(&mut self) -> Option<Request> {
        if self.pending == 0 {
            return None;
        }
        loop {
            let tenant = self.cursor;
            match self.subs[tenant].front() {
                None => {
                    // An idle tenant's deficit does not accumulate
                    // (classic DRR: you cannot bank credit while idle).
                    self.deficit[tenant] = 0;
                    self.cursor = (tenant + 1) % self.subs.len();
                }
                Some(head) => {
                    let cost = drr_cost(head.kind);
                    if self.deficit[tenant] >= cost {
                        self.deficit[tenant] -= cost;
                        self.pending -= 1;
                        return self.subs[tenant].pop_front();
                    }
                    self.deficit[tenant] += DRR_QUANTUM;
                    self.cursor = (tenant + 1) % self.subs.len();
                }
            }
        }
    }

    /// Requests currently queued across every sub-queue.
    pub fn pending(&self) -> usize {
        self.pending
    }
}

/// Latency percentiles over the served requests of one run (wall
/// milliseconds from admission to completion). Recorded only when
/// [`ServeConfig::record_latency`](crate::ServeConfig) is set; the
/// report's `latency` is `null` otherwise.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LatencySummary {
    /// Samples summarized.
    pub count: u64,
    /// Median latency, milliseconds.
    pub p50_ms: f64,
    /// 90th percentile.
    pub p90_ms: f64,
    /// 99th percentile.
    pub p99_ms: f64,
    /// 99.9th percentile.
    pub p999_ms: f64,
    /// Worst observed.
    pub max_ms: f64,
}

impl LatencySummary {
    /// Summarizes `samples` (consumed: sorted in place). `None` when
    /// empty.
    pub fn from_samples(samples: &mut [f64]) -> Option<LatencySummary> {
        if samples.is_empty() {
            return None;
        }
        samples.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
        let pick = |q: f64| {
            let rank = (q * samples.len() as f64).ceil() as usize;
            samples[rank.clamp(1, samples.len()) - 1]
        };
        Some(LatencySummary {
            count: samples.len() as u64,
            p50_ms: pick(0.50),
            p90_ms: pick(0.90),
            p99_ms: pick(0.99),
            p999_ms: pick(0.999),
            max_ms: *samples.last().expect("non-empty"),
        })
    }

    /// Writes the JSON object rendered into the serve report.
    pub fn write_json(&self, w: &mut JsonWriter) {
        w.object(|w| {
            w.field("count", self.count)
                .field("p50_ms", self.p50_ms)
                .field("p90_ms", self.p90_ms)
                .field("p99_ms", self.p99_ms)
                .field("p999_ms", self.p999_ms)
                .field("max_ms", self.max_ms);
        });
    }
}

#[cfg(test)]
mod tests {
    use pkru_provenance::json;

    use super::*;

    fn script(id: u64, tenant: usize) -> Request {
        Request {
            id,
            kind: RequestKind::Script(0),
            retried: false,
            tenant: Some(tenant),
            deadline: 0,
            enqueued: None,
        }
    }

    #[test]
    fn token_bucket_admits_the_fair_share_and_rejects_the_storm() {
        // Two tenants: refill is half a token per offered request. A
        // tenant offering every single request (twice its share) burns
        // the burst and then gets every other request rejected.
        let mut bucket = TokenBucket::new(2, 2);
        let mut admitted = 0;
        for _ in 0..20 {
            bucket.refill_step();
            if bucket.take() {
                admitted += 1;
            }
        }
        // Burst of 2 plus 19 effective half-token refills (the first
        // refill is capped: the bucket starts full) = 11.5 tokens, so
        // 11 of the 20 offers are admitted.
        assert_eq!(admitted, 11);
    }

    #[test]
    fn fair_scheduler_interleaves_a_storm_with_a_trickle() {
        let mut fair = FairScheduler::new(2, 64, 64);
        // Tenant 0 storms 16 requests, tenant 1 offers 4.
        for i in 0..16 {
            assert_eq!(fair.admit(script(i, 0)), Admit::Admitted);
        }
        for i in 16..20 {
            assert_eq!(fair.admit(script(i, 1)), Admit::Admitted);
        }
        // DRR must dispatch all four of tenant 1's requests within the
        // first ~8 dispatches, not after the storm.
        let first8: Vec<usize> =
            (0..8).map(|_| fair.dispatch().expect("pending").tenant.unwrap()).collect();
        assert_eq!(first8.iter().filter(|&&t| t == 1).count(), 4, "{first8:?}");
        // The rest is the remainder of the storm, in order.
        let mut rest = Vec::new();
        while let Some(r) = fair.dispatch() {
            rest.push(r.id);
        }
        assert_eq!(fair.pending(), 0);
        assert!(rest.windows(2).all(|w| w[0] < w[1]), "storm reordered: {rest:?}");
    }

    #[test]
    fn backlog_cap_sheds_even_within_the_rate() {
        let mut fair = FairScheduler::new(1, 1000, 4);
        for i in 0..4 {
            assert_eq!(fair.admit(script(i, 0)), Admit::Admitted);
        }
        assert_eq!(fair.admit(script(4, 0)), Admit::BacklogFull);
        fair.dispatch().expect("pending");
        assert_eq!(fair.admit(script(5, 0)), Admit::Admitted);
    }

    #[test]
    fn page_loads_cost_double_in_the_round_robin() {
        let mut fair = FairScheduler::new(2, 64, 64);
        for i in 0..4 {
            let mut r = script(i, 0);
            r.kind = RequestKind::PageLoad;
            assert_eq!(fair.admit(r), Admit::Admitted);
        }
        for i in 4..8 {
            assert_eq!(fair.admit(script(i, 1)), Admit::Admitted);
        }
        // Per full round: tenant 0 affords one page load (cost 2 =
        // quantum), tenant 1 two scripts — scripts finish first.
        let order: Vec<usize> = (0..8).map(|_| fair.dispatch().unwrap().tenant.unwrap()).collect();
        let last_script = order.iter().rposition(|&t| t == 1).unwrap();
        assert!(last_script < 7, "scripts must not trail every page load: {order:?}");
    }

    #[test]
    fn latency_summary_percentiles_are_order_statistics() {
        let mut samples: Vec<f64> = (1..=1000).map(|i| i as f64).collect();
        let s = LatencySummary::from_samples(&mut samples).expect("non-empty");
        assert_eq!(s.count, 1000);
        assert_eq!(s.p50_ms, 500.0);
        assert_eq!(s.p99_ms, 990.0);
        assert_eq!(s.p999_ms, 999.0);
        assert_eq!(s.max_ms, 1000.0);
        assert!(LatencySummary::from_samples(&mut Vec::new()).is_none());
        let json = json::render(|w| s.write_json(w));
        assert!(json.contains("\"p50_ms\":500,"), "{json}");
    }

    #[test]
    fn overload_state_counts_per_tenant() {
        let state = OverloadState::new(2);
        state.tick();
        state.tick();
        state.reject();
        state.offer(1);
        state.rate_limit(1);
        assert_eq!(state.ticks(), 2);
        assert_eq!(state.rejected(), 1);
        assert_eq!(state.offered(1), 1);
        assert_eq!(state.rate_limited(1), 1);
        assert_eq!(state.offered(0), 0);
        // Out-of-range tenants are ignored, not a panic.
        state.offer(7);
        state.rate_limit(7);
        assert_eq!(state.offered(7), 0);
    }
}
