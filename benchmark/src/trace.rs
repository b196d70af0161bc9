//! Spans recorded by the benchmark itself around every call it makes into
//! a layer. Kept in memory, written as Chrome trace-event JSON when the
//! workload ends; the per-layer numbers of a traced run are computed from
//! them. With recording off a [`Tracer`] still times the call (the
//! end-to-end samples come from the returned duration) and stores nothing,
//! so traced and untraced runs share one code path.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use noclat_engine::{Json, Obj};

/// One timed call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    /// `<layer>.<call>`; the text before the first dot is the layer.
    pub name: &'static str,
    /// Recording thread (0 = the workload's main thread).
    pub tid: u32,
    /// Start and end, nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open when this one began.
    pub parent: Option<usize>,
    /// Operations the call performed (simulated cycles, ticks, requests):
    /// the divisor of the per-operation figures.
    pub ops: u64,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span recorder for one thread of one workload.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    record: bool,
    tid: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
    /// Parent adopted by this thread's top-level spans once absorbed.
    adopted_by: Option<usize>,
}

impl Tracer {
    #[must_use]
    pub fn new(record: bool) -> Self {
        Tracer {
            epoch: Instant::now(),
            record,
            tid: 0,
            spans: Vec::new(),
            open: Vec::new(),
            adopted_by: None,
        }
    }

    #[must_use]
    pub fn recording(&self) -> bool {
        self.record
    }

    /// Runs `f` as one span and returns its result and wall time in
    /// seconds. Spans opened inside `f` become its children.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        ops: u64,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> (R, f64) {
        let slot = self.record.then(|| {
            self.spans.push(Span {
                name,
                tid: self.tid,
                start_ns: 0,
                end_ns: 0,
                parent: self.open.last().copied(),
                ops,
            });
            self.open.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        let start = Instant::now();
        let result = f(self);
        let end = Instant::now();
        if let Some(slot) = slot {
            self.open.pop();
            let span = &mut self.spans[slot];
            span.start_ns = (start - self.epoch).as_nanos() as u64;
            span.end_ns = (end - self.epoch).as_nanos() as u64;
        }
        (result, (end - start).as_secs_f64())
    }

    /// A recorder for another thread sharing this one's epoch; its
    /// top-level spans become children of the span open here right now.
    #[must_use]
    pub fn fork(&self, tid: u32) -> Tracer {
        Tracer {
            epoch: self.epoch,
            record: self.record,
            tid,
            spans: Vec::new(),
            open: Vec::new(),
            adopted_by: self.open.last().copied(),
        }
    }

    /// Merges a forked recorder's spans back in.
    pub fn absorb(&mut self, child: Tracer) {
        let offset = self.spans.len();
        self.spans.extend(child.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset).or(child.adopted_by);
            s
        }));
    }

    #[must_use]
    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// Wall times, in seconds, of every span called `name`.
    #[must_use]
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e9)
            .collect()
    }

    /// Nanoseconds per operation over every span called `name`, or `None`
    /// when no such span was recorded.
    #[must_use]
    pub fn ns_per_op(&self, name: &str) -> Option<f64> {
        let (ns, ops) = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0u64, 0u64), |(ns, ops), s| (ns + s.dur_ns(), ops + s.ops));
        (ops > 0).then(|| ns as f64 / ops as f64)
    }

    /// Per layer: `(spans, total seconds, self seconds)`, where a span's
    /// self time is its duration minus the part its children cover.
    /// Children on another thread overlap their parent instead of
    /// subdividing it, so only same-thread children are subtracted.
    #[must_use]
    pub fn layer_table(&self) -> BTreeMap<&'static str, (usize, f64, f64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent.filter(|&p| self.spans[p].tid == s.tid) {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut table = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let layer = s.name.split('.').next().unwrap_or(s.name);
            let row = table.entry(layer).or_insert((0usize, 0.0f64, 0.0f64));
            row.0 += 1;
            row.1 += s.dur_ns() as f64 / 1e9;
            row.2 += s.dur_ns().saturating_sub(child_ns[i]) as f64 / 1e9;
        }
        table
    }

    /// Writes the spans as a Chrome trace-event file (`chrome://tracing`,
    /// Perfetto). Every event carries its own index, its parent's and the
    /// workload it belongs to.
    ///
    /// # Errors
    ///
    /// The filesystem error, if the file cannot be written.
    pub fn write_chrome(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        let events: Vec<Json> = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let args = Obj::new()
                    .field("id", i)
                    .field("parent", s.parent.map_or(Json::Null, Json::from))
                    .field("workload", workload)
                    .field("ops", s.ops)
                    .build();
                Obj::new()
                    .field("name", s.name)
                    .field("cat", s.name.split('.').next().unwrap_or(s.name))
                    .field("ph", "X")
                    .field("ts", s.start_ns as f64 / 1e3)
                    .field("dur", s.dur_ns() as f64 / 1e3)
                    .field("pid", 1u64)
                    .field("tid", u64::from(s.tid))
                    .field("args", args)
                    .build()
            })
            .collect();
        let doc = Obj::new()
            .field("displayTimeUnit", "ms")
            .field("traceEvents", Json::Arr(events))
            .build();
        std::fs::write(path, doc.to_compact_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_sets_parents_and_self_time_excludes_children() {
        let mut t = Tracer::new(true);
        t.time("core.outer", 1, |t| {
            t.time("noc.inner", 10, |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        assert_eq!(t.span_count(), 2);
        assert_eq!(t.spans[1].parent, Some(0));
        let table = t.layer_table();
        let (_, outer_total, outer_self) = table["core"];
        let (_, inner_total, inner_self) = table["noc"];
        assert!(inner_total >= 0.005 && inner_self == inner_total);
        assert!(outer_total >= inner_total);
        assert!((outer_self - (outer_total - inner_total)).abs() < 1e-9);
        assert!(t.ns_per_op("noc.inner").unwrap() >= 5e6 / 10.0);
        assert_eq!(t.ns_per_op("absent"), None);
    }

    #[test]
    fn recording_off_times_but_stores_nothing() {
        let mut t = Tracer::new(false);
        let (value, secs) = t.time("core.x", 1, |_| 7);
        assert_eq!(value, 7);
        assert!(secs >= 0.0);
        assert_eq!(t.span_count(), 0);
    }

    #[test]
    fn forked_spans_are_adopted_by_the_open_span() {
        let mut t = Tracer::new(true);
        t.time("engine.session", 1, |t| {
            let mut client = t.fork(1);
            client.time("engine.request", 1, |c| {
                c.time("engine.write", 1, |_| ());
            });
            t.absorb(client);
        });
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[2].parent, Some(1));
        assert_eq!(t.spans[1].tid, 1);
    }

    #[test]
    fn chrome_trace_parses_back() {
        let mut t = Tracer::new(true);
        t.time("core.run", 5000, |_| ());
        let path = std::env::temp_dir().join(format!("noclat-trace-{}.json", std::process::id()));
        t.write_chrome(&path, "paper_load").unwrap();
        let doc = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        std::fs::remove_file(&path).unwrap();
        let Some(Json::Arr(events)) = doc.get("traceEvents") else {
            panic!("no traceEvents array");
        };
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].get("ph").and_then(Json::as_str), Some("X"));
        assert_eq!(
            events[0]
                .get("args")
                .and_then(|a| a.get("workload"))
                .and_then(Json::as_str),
            Some("paper_load")
        );
    }
}
