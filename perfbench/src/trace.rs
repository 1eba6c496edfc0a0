//! Spans recorded from outside the program, around calls into each layer.
//!
//! A span is `(request id, name, start, end, parent)`; its layer is the
//! part of the name before the first `.` (`minijs.run` belongs to
//! `minijs`). Spans stay in memory while the traced run measures and are
//! written out as JSON lines when it ends. A layer's self time is the sum
//! of its spans' durations minus the parts covered by their child spans.
//!
//! Two kinds of span are not layer work. A *frame* (`server.request`)
//! only groups a request's steps: its self time is whatever no layer span
//! covered, a hole in the trace. An *idle* span (`server.pop`) waits for
//! work. Neither counts as accounted time, and idle time is also left out
//! of the busy time that accounted time is compared with.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the log's origin.
#[derive(Clone, Debug)]
pub struct Span {
    /// The request the span belongs to (0 for work outside any request,
    /// such as building a worker's browser).
    pub req: u64,
    /// `layer.operation`.
    pub name: &'static str,
    /// Start, ns since the log origin.
    pub start: u64,
    /// End, ns since the log origin.
    pub end: u64,
    /// Index of the enclosing span in the same log, if any.
    pub parent: Option<usize>,
}

/// The spans of one thread, in opening order.
pub struct SpanLog {
    origin: Instant,
    thread: &'static str,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl SpanLog {
    /// An empty log whose clock starts at `origin` (shared by every
    /// thread of one traced phase, so their spans line up).
    pub fn new(origin: Instant, thread: &'static str) -> SpanLog {
        SpanLog { origin, thread, spans: Vec::new(), open: Vec::new() }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one; returns its index.
    pub fn open(&mut self, req: u64, name: &'static str) -> usize {
        let start = self.now();
        let parent = self.open.last().copied();
        self.spans.push(Span { req, name, start, end: start, parent });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Closes span `index` (the innermost open one) and returns its
    /// duration in seconds.
    pub fn close(&mut self, index: usize) -> f64 {
        let end = self.now();
        let top = self.open.pop();
        debug_assert_eq!(top, Some(index), "spans close innermost first");
        let span = &mut self.spans[index];
        span.end = end;
        (end - span.start) as f64 * 1e-9
    }

    /// Re-labels an open span's request id (a queue pop learns the id
    /// only when it returns).
    pub fn set_req(&mut self, index: usize, req: u64) {
        self.spans[index].req = req;
    }

    /// Runs `f` inside a span; returns its result and duration (s).
    pub fn time<R>(&mut self, req: u64, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
        let index = self.open(req, name);
        let out = f();
        let seconds = self.close(index);
        (out, seconds)
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Appends this log's spans as JSON lines to `out`.
    pub fn write_jsonl(&self, phase: &str, out: &mut String) {
        for span in &self.spans {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"phase\":\"{phase}\",\"thread\":\"{}\",\"req\":{},\"layer\":\"{}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{}}}",
                self.thread,
                span.req,
                layer_of(span.name),
                span.name,
                span.start,
                span.end,
                parent
            );
        }
    }
}

/// The layer a span name belongs to.
pub fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// Spans that only group the spans of one request.
const FRAMES: [&str; 1] = ["server.request"];
/// Spans that wait for work instead of doing it.
const IDLE: [&str; 1] = ["server.pop"];

/// Time attributed to each layer, summed over any number of logs.
#[derive(Default)]
pub struct LayerTimes {
    /// Self time per layer, seconds (frames and idle spans excluded).
    pub self_s: BTreeMap<String, f64>,
    /// Self time of frame spans: time inside a request no span covered.
    pub hole_s: f64,
    /// Time in idle spans, seconds.
    pub idle_s: f64,
    /// Total and count per span name (for mean call times).
    pub by_name: BTreeMap<&'static str, (f64, u64)>,
}

impl LayerTimes {
    /// Folds one log's spans in.
    pub fn add(&mut self, log: &SpanLog) {
        let spans = log.spans();
        let mut child_ns = vec![0u64; spans.len()];
        for span in spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end - span.start;
            }
        }
        for (span, children) in spans.iter().zip(child_ns) {
            let duration = span.end - span.start;
            let own = duration.saturating_sub(children) as f64 * 1e-9;
            if FRAMES.contains(&span.name) {
                self.hole_s += own;
            } else if IDLE.contains(&span.name) {
                self.idle_s += own;
            } else {
                *self.self_s.entry(layer_of(span.name).to_string()).or_default() += own;
            }
            let entry = self.by_name.entry(span.name).or_default();
            entry.0 += duration as f64 * 1e-9;
            entry.1 += 1;
        }
    }

    /// Sum of every layer's self time, seconds.
    pub fn accounted_s(&self) -> f64 {
        self.self_s.values().sum()
    }

    /// Share of the busy part of `wall_s` (wall time minus idle spans)
    /// that layer spans cover.
    pub fn accounted_share(&self, wall_s: f64) -> f64 {
        self.accounted_s() / (wall_s - self.idle_s)
    }

    /// Mean duration of spans named `name`, seconds (0 if none ran).
    pub fn mean_s(&self, name: &str) -> f64 {
        match self.by_name.get(name) {
            Some(&(total, count)) if count > 0 => total / count as f64,
            _ => 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use std::thread::sleep;
    use std::time::Duration;

    /// One request: a queue wait, a spanned step, and `gap` of work no
    /// span covers. Returns the times and the request's wall time.
    fn request(gap: Duration) -> (LayerTimes, SpanLog, f64) {
        let mut log = SpanLog::new(Instant::now(), "t");
        let frame = log.open(1, "server.request");
        log.time(1, "server.pop", || sleep(Duration::from_millis(5)));
        log.time(1, "minijs.run", || sleep(Duration::from_millis(5)));
        sleep(gap);
        log.time(1, "server.complete", || {});
        let wall = log.close(frame);
        let mut times = LayerTimes::default();
        times.add(&log);
        (times, log, wall)
    }

    #[test]
    fn self_time_excludes_children() {
        let (times, log, wall) = request(Duration::ZERO);
        let minijs = times.self_s["minijs"];
        let server = times.self_s["server"];
        assert!((minijs + server + times.idle_s + times.hole_s - wall).abs() < 1e-6);
        assert!(times.idle_s >= 0.005 && minijs >= 0.005);
        assert_eq!(times.by_name["minijs.run"].1, 1);
        assert!(times.accounted_share(wall) >= crate::MIN_ACCOUNTED);
        let mut out = String::new();
        log.write_jsonl("p", &mut out);
        assert_eq!(out.lines().count(), 4);
        assert!(out.contains("\"layer\":\"minijs\""));
    }

    #[test]
    fn a_hole_inside_a_request_fails_the_check() {
        let (times, _, wall) = request(Duration::from_millis(5));
        assert!(times.hole_s >= 0.005, "hole {}", times.hole_s);
        let share = times.accounted_share(wall);
        assert!(share < crate::MIN_ACCOUNTED, "share {share}");
    }
}
