//! The request/response vocabulary and the served script catalog.

use workloads::kernels;

/// What a request asks the worker's browser to do.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RequestKind {
    /// Parse and lay out the standard page (`suites::micro_page`).
    PageLoad,
    /// Evaluate catalog entry `i` and call its `run()`.
    Script(usize),
}

/// One unit of work queued to the pool.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Request {
    /// Monotonic request id (assigned by the traffic generator).
    pub id: u64,
    /// The work.
    pub kind: RequestKind,
    /// Whether this request was already requeued once after its worker
    /// died mid-flight. A request is retried at most once: if its second
    /// worker dies too, it is abandoned (and counted), never requeued
    /// again.
    pub retried: bool,
    /// The tenant whose compartment serves this request (`None` in
    /// single-tenant mode: the ambient untrusted compartment).
    pub tenant: Option<usize>,
    /// Absolute deadline on the logical clock (completed-request ticks):
    /// a worker popping this request once the clock has reached the
    /// deadline sheds it as expired instead of serving it. `0` means no
    /// deadline (the default).
    pub deadline: u64,
    /// When the producer admitted the request (set only when the run
    /// records latency percentiles; `None` otherwise, so default-config
    /// request streams stay bit-identical).
    pub enqueued: Option<std::time::Instant>,
}

/// A completed request, carrying its determinism witness.
#[derive(Clone, Debug)]
pub struct Response {
    /// The request id.
    pub id: u64,
    /// The worker that served it.
    pub worker: usize,
    /// Catalog entry name (or `"page_load"`).
    pub name: &'static str,
    /// The request's checksum: the script's numeric result, or the DOM
    /// node delta of the page load.
    pub checksum: f64,
}

/// A named script the server can be asked to run.
pub struct ScriptSpec {
    /// Stable name used in responses and reference tables.
    pub name: &'static str,
    /// The program; must define `run()`. A worker's engine parses it once
    /// and runs its top level afresh on every request.
    pub source: String,
}

/// The name used for page-load responses.
pub const PAGE_LOAD: &str = "page_load";

/// The served catalog: a deliberate mix of pure-compute kernels (which
/// cross the compartment boundary only at `eval`/`call` granularity) and
/// DOM-heavy kernels (which hammer gated natives), mirroring the spread of
/// the paper's suites.
pub fn catalog() -> Vec<ScriptSpec> {
    vec![
        ScriptSpec { name: "fft", source: kernels::fft(128) },
        ScriptSpec { name: "sha_like", source: kernels::sha_like(8) },
        ScriptSpec { name: "json", source: kernels::json_kernel(30, false) },
        ScriptSpec { name: "matmul", source: kernels::matmul(10) },
        ScriptSpec { name: "dom_query", source: kernels::dom_query(16) },
        ScriptSpec { name: "dom_attr", source: kernels::dom_attr(24) },
        ScriptSpec { name: "splay", source: kernels::splay(120) },
        ScriptSpec { name: "string_codec", source: kernels::string_codec(220) },
        ScriptSpec { name: "parser_stress", source: kernels::parser_stress(500) },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_names_are_unique() {
        let cat = catalog();
        for (i, a) in cat.iter().enumerate() {
            for b in &cat[i + 1..] {
                assert_ne!(a.name, b.name);
            }
        }
        assert!(!cat.is_empty());
    }
}
