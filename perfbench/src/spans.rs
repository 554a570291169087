//! In-memory spans around the calls the benchmark makes into each layer,
//! written out once the run ends as Chrome trace-event JSON (a top-level
//! array, which `fascia report <dir>` recognises as a trace).

use fascia_obs::json::{array_of, ObjectWriter};
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded interval, in microseconds since the recorder's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer call, e.g. `graph.build` or `core.count`.
    pub name: String,
    /// Start, µs since the origin.
    pub start_us: f64,
    /// End, µs since the origin.
    pub end_us: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Operation the span belongs to (a call index or a job index).
    pub run: u64,
}

/// Span sink. A disabled recorder only runs the closures it is given, so
/// untraced runs pay nothing for it.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

/// Per-name totals: how many spans, their summed duration and their summed
/// self time (duration minus the part covered by child spans), in µs.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SelfTime {
    /// Spans with this name.
    pub count: u64,
    /// Summed duration.
    pub total_us: f64,
    /// Summed self time.
    pub self_us: f64,
}

impl Recorder {
    /// A recorder whose timeline starts now.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Microseconds from the origin to `t`.
    pub fn at(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.origin).as_secs_f64() * 1e6
    }

    /// Runs `f` inside a span named `name` and returns its result with the
    /// span's index (for children), or `None` when disabled.
    pub fn time<R>(
        &mut self,
        name: &str,
        parent: Option<usize>,
        run: u64,
        f: impl FnOnce() -> R,
    ) -> (R, Option<usize>) {
        if !self.enabled {
            return (f(), None);
        }
        let start = Instant::now();
        let r = f();
        let idx = self.push(name, self.at(start), self.at(Instant::now()), parent, run);
        (r, idx)
    }

    /// Opens a span that encloses the spans recorded until
    /// [`Recorder::close`] is called with the returned index.
    pub fn open(&mut self, name: &str, parent: Option<usize>, run: u64) -> Option<usize> {
        let now = self.at(Instant::now());
        self.push(name, now, now, parent, run)
    }

    /// Ends a span from [`Recorder::open`].
    pub fn close(&mut self, idx: Option<usize>) {
        if let Some(i) = idx {
            self.spans[i].end_us = self.at(Instant::now());
        }
    }

    /// Records an already-measured interval; returns its index when kept.
    pub fn push(
        &mut self,
        name: &str,
        start_us: f64,
        end_us: f64,
        parent: Option<usize>,
        run: u64,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        self.spans.push(Span {
            name: name.to_string(),
            start_us,
            end_us: end_us.max(start_us),
            parent,
            run,
        });
        Some(self.spans.len() - 1)
    }

    /// Self time per span name.
    pub fn self_times(&self) -> BTreeMap<String, SelfTime> {
        let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_us, s.end_us));
            }
        }
        let mut out: BTreeMap<String, SelfTime> = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(children) {
            let dur = s.end_us - s.start_us;
            let covered = covered_us(s.start_us, s.end_us, kids);
            let e = out.entry(s.name.clone()).or_default();
            e.count += 1;
            e.total_us += dur;
            e.self_us += dur - covered;
        }
        out
    }

    /// Chrome trace-event JSON: one complete (`"ph":"X"`) event per span,
    /// with the parent index and run id in `args`.
    pub fn to_chrome_json(&self) -> String {
        array_of(self.spans.iter().enumerate().map(|(i, s)| {
            let mut args = ObjectWriter::new();
            args.field_u64("span", i as u64).field_u64("run", s.run);
            if let Some(p) = s.parent {
                args.field_u64("parent", p as u64);
            }
            let mut o = ObjectWriter::new();
            o.field_str("name", &s.name)
                .field_str("cat", s.name.split('.').next().unwrap_or("bench"))
                .field_str("ph", "X")
                .field_f64("ts", s.start_us)
                .field_f64("dur", s.end_us - s.start_us)
                .field_u64("pid", 1)
                // One track per operation, so overlapping jobs nest cleanly.
                .field_u64("tid", s.run + 1)
                .field_raw("args", &args.finish());
            o.finish()
        }))
    }
}

/// Length of the union of `kids`, clipped to `[start, end]`.
fn covered_us(start: f64, end: f64, mut kids: Vec<(f64, f64)>) -> f64 {
    kids.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut covered = 0.0;
    let mut reach = start;
    for (a, b) in kids {
        let (a, b) = (a.max(reach), b.min(end));
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut r = Recorder::new(true);
        let root = r.push("job", 0.0, 100.0, None, 0);
        r.push("a", 10.0, 40.0, root, 0);
        r.push("b", 30.0, 60.0, root, 0); // overlaps a by 10
        r.push("c", 90.0, 150.0, root, 0); // sticks out past the parent
        let st = r.self_times();
        assert_eq!(st["job"].self_us, 100.0 - 50.0 - 10.0);
        assert_eq!(st["a"].self_us, 30.0);
        assert_eq!(st["job"].count, 1);
    }

    #[test]
    fn disabled_recorder_keeps_nothing_but_runs_the_call() {
        let mut r = Recorder::new(false);
        let (v, idx) = r.time("x", None, 0, || 7);
        assert_eq!((v, idx), (7, None));
        assert_eq!(r.to_chrome_json(), "[]");
    }

    #[test]
    fn chrome_export_is_an_array_of_complete_events() {
        let mut r = Recorder::new(true);
        let (_, p) = r.time("setup", None, 0, || ());
        r.push("graph.build", 1.0, 2.0, p, 0);
        let doc = fascia_core::resilience::Json::parse(&r.to_chrome_json()).unwrap();
        let events = doc.as_arr().unwrap();
        assert_eq!(events.len(), 2);
        let child = events[1].as_obj().unwrap();
        let get = |k| fascia_core::resilience::Json::get(child, k);
        assert_eq!(get("ph").and_then(|v| v.as_str()), Some("X"));
        assert_eq!(get("cat").and_then(|v| v.as_str()), Some("graph"));
        let args = get("args").and_then(|v| v.as_obj()).unwrap();
        assert_eq!(
            fascia_core::resilience::Json::get(args, "parent").and_then(|v| v.as_u64()),
            Some(0)
        );
    }
}
