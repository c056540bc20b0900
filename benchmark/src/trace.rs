//! The benchmark's own span recorder.
//!
//! Spans are taken in the benchmark's files, around the calls into each
//! layer's public API — spans inside the program are a later change. The
//! recorder doubles as the stopwatch: every timed interval of a pass is
//! opened and closed here, so a traced run's span durations *are* the
//! reported times. Switched off (the end-to-end run) it only reads the
//! clock; switched on it also keeps the span in memory, and the whole list
//! is written out as Chrome trace-event JSON when the invocation ends.

use std::time::{Duration, Instant};

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name (`faas.build`, `simtime.slice`, …).
    pub name: &'static str,
    /// Microseconds since the tracer was created.
    pub start_us: f64,
    /// Duration in microseconds.
    pub dur_us: f64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Pass the span belongs to (0 = outside any pass).
    pub pass: u32,
}

/// An open interval: close it with [`Tracer::close`].
#[must_use = "an open span must be closed"]
pub struct Open {
    started: Instant,
    slot: Option<usize>,
}

/// Stopwatch plus (optionally) span store.
pub struct Tracer {
    origin: Instant,
    on: bool,
    pass: u32,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A tracer that records spans when `on`, and only times otherwise.
    pub fn new(on: bool) -> Self {
        Tracer {
            origin: Instant::now(),
            on,
            pass: 0,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Tags the spans opened from now on with `pass`.
    pub fn set_pass(&mut self, pass: u32) {
        self.pass = pass;
    }

    /// Opens a span under the innermost open one.
    pub fn open(&mut self, name: &'static str) -> Open {
        let slot = self.on.then(|| {
            self.spans.push(Span {
                name,
                start_us: 0.0,
                dur_us: 0.0,
                parent: self.stack.last().copied(),
                pass: self.pass,
            });
            let slot = self.spans.len() - 1;
            self.stack.push(slot);
            slot
        });
        // Read the clock last so bookkeeping stays outside the interval.
        Open {
            started: Instant::now(),
            slot,
        }
    }

    /// Closes `open` and returns how long it lasted.
    pub fn close(&mut self, open: Open) -> Duration {
        let dur = open.started.elapsed();
        if let Some(slot) = open.slot {
            let popped = self.stack.pop();
            debug_assert_eq!(popped, Some(slot), "spans close innermost first");
            let span = &mut self.spans[slot];
            span.start_us = open.started.duration_since(self.origin).as_secs_f64() * 1e6;
            span.dur_us = dur.as_secs_f64() * 1e6;
        }
        dur
    }

    /// The recorded spans, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Chrome trace-event JSON (`chrome://tracing`, Perfetto): one complete
    /// (`"ph":"X"`) event per span; passes map to thread ids so they stack
    /// as separate tracks.
    pub fn to_chrome_json(&self) -> String {
        let self_us = self_times(&self.spans);
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{},\"pass\":{},\"self_us\":{:.3}}}}}",
                s.name,
                s.name.split('.').next().unwrap_or(s.name),
                s.pass,
                s.start_us,
                s.dur_us,
                i,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.pass,
                self_us[i],
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Self time of every span (µs): its duration minus the part covered by
/// its direct children.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut own: Vec<f64> = spans.iter().map(|s| s.dur_us).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] -= s.dur_us;
        }
    }
    own
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, dur_us: f64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_us: 0.0,
            dur_us,
            parent,
            pass: 1,
        }
    }

    #[test]
    fn self_time_is_span_minus_direct_children() {
        let spans = vec![
            span("pass", 100.0, None),
            span("setup", 30.0, Some(0)),
            span("faas.build", 10.0, Some(1)),
            span("workloads.install", 15.0, Some(1)),
            span("run", 60.0, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![10.0, 5.0, 10.0, 15.0, 60.0]);
    }

    #[test]
    fn tracer_nests_and_off_records_nothing() {
        let mut tr = Tracer::new(true);
        tr.set_pass(2);
        let outer = tr.open("pass");
        let inner = tr.open("faas.build");
        let d_inner = tr.close(inner);
        let d_outer = tr.close(outer);
        assert!(d_outer >= d_inner);
        assert_eq!(tr.spans().len(), 2);
        assert_eq!(tr.spans()[1].parent, Some(0));
        assert_eq!(tr.spans()[0].parent, None);
        assert_eq!(tr.spans()[1].pass, 2);
        assert!(tr.spans()[0].start_us <= tr.spans()[1].start_us);
        let json = tr.to_chrome_json();
        assert!(json.contains("\"name\":\"faas.build\"") && json.contains("\"ph\":\"X\""));

        let mut off = Tracer::new(false);
        let o = off.open("pass");
        off.close(o);
        assert!(off.spans().is_empty());
    }
}
