//! Host-time spans recorded around the benchmark's own calls into each
//! layer, kept in memory and written once as Chrome trace events.

use std::fmt::Write as _;
use std::time::Instant; // simaudit:allow(no-wall-clock): spans record host time around the benchmark's calls

/// One finished span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-boundary name (`workload`, `setup.generate`, `sim.run`, ...).
    pub name: &'static str,
    /// Caller-chosen id (the round or pass index).
    pub id: u64,
    /// Index of the enclosing span in [`Spans::done`], if any.
    pub parent: Option<usize>,
    /// Start, seconds since the recorder was created.
    pub start_s: f64,
    /// End, seconds since the recorder was created.
    pub end_s: f64,
}

/// A stack-shaped span recorder: [`Spans::enter`] opens a span under the
/// innermost open one, [`Spans::exit`] closes it.
pub struct Spans {
    origin: Instant, // simaudit:allow(no-wall-clock): the spans' host-time origin
    open: Vec<usize>,
    /// Every span, in the order it was opened.
    pub done: Vec<Span>,
}

impl Spans {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Spans {
            origin: Instant::now(), // simaudit:allow(no-wall-clock): the spans' host-time origin
            open: Vec::new(),
            done: Vec::new(),
        }
    }

    /// Opens a span named `name` under the innermost open span.
    pub fn enter(&mut self, name: &'static str, id: u64) {
        let t = self.origin.elapsed().as_secs_f64();
        self.done.push(Span {
            name,
            id,
            parent: self.open.last().copied(),
            start_s: t,
            end_s: t,
        });
        self.open.push(self.done.len() - 1);
    }

    /// Closes the innermost open span and returns its duration in seconds.
    pub fn exit(&mut self) -> f64 {
        let i = self.open.pop().expect("exit without a matching enter");
        let span = &mut self.done[i];
        span.end_s = self.origin.elapsed().as_secs_f64();
        span.end_s - span.start_s
    }

    /// Runs `f` inside a span and returns its result with the span's
    /// duration in seconds.
    pub fn time<T>(&mut self, name: &'static str, id: u64, f: impl FnOnce() -> T) -> (T, f64) {
        self.enter(name, id);
        let out = f();
        (out, self.exit())
    }

    /// Per span name: `(name, count, total seconds, self seconds)`, where
    /// self time is a span's duration minus its children's.
    pub fn self_times(&self) -> Vec<(&'static str, usize, f64, f64)> {
        let mut child = vec![0.0; self.done.len()];
        for s in &self.done {
            if let Some(p) = s.parent {
                child[p] += s.end_s - s.start_s;
            }
        }
        let mut rows: Vec<(&'static str, usize, f64, f64)> = Vec::new();
        for (s, c) in self.done.iter().zip(&child) {
            let dur = s.end_s - s.start_s;
            match rows.iter_mut().find(|r| r.0 == s.name) {
                Some(r) => {
                    r.1 += 1;
                    r.2 += dur;
                    r.3 += dur - c;
                }
                None => rows.push((s.name, 1, dur, dur - c)),
            }
        }
        rows
    }

    /// The spans as Chrome trace-event JSON (complete `X` events on one
    /// track, microsecond timestamps), loadable by Perfetto.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in self.done.iter().enumerate() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                out,
                "{}{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"span\":{i},\"id\":{},\"parent\":{parent}}}}}",
                if i == 0 { "" } else { ",\n" },
                s.name,
                s.start_s * 1e6,
                (s.end_s - s.start_s) * 1e6,
                s.id,
            );
        }
        out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut s = Spans::new();
        s.enter("workload", 0);
        s.time("sim.run", 0, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        s.exit();
        let rows = s.self_times();
        let (_, _, total, own) = rows[0];
        let (_, _, child, _) = rows[1];
        assert!((total - own - child).abs() < 1e-9);
        assert_eq!(s.done[1].parent, Some(0));
        assert!(s.to_chrome_json().contains("\"name\":\"sim.run\""));
    }
}
