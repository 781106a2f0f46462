//! In-memory span recording for the traced run.
//!
//! A span is (name, start, end, parent, run id), recorded by the
//! benchmark around its own calls into a layer's public API.  Spans stay in
//! memory until the run ends and are then written out as one TSV file.  A
//! layer's self time is its spans' duration minus the part of that
//! interval its child spans cover.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// The benchmark's only wall-clock read; every host timing goes through it.
#[inline]
pub fn now() -> Instant {
    // dsm-lint: allow(wall-clock, benchmark harness timing; simulated time comes from the cost model)
    Instant::now() // dsm-lint: allow(det-taint, host timings are reported beside results; no simulated result or fingerprint derives from them)
}

/// One recorded interval, in nanoseconds since the tracer started.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer or stage name (`"sim.R-NUMA"`, `"replay.l1"`, ...).
    pub name: String,
    /// Start, ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, ns since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Which traced run (job, request or stage) the span belongs to.
    pub run: u32,
}

/// Records nested spans; `begin`/`end` must pair like brackets.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    run: u32,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            epoch: now(),
            spans: Vec::new(),
            open: Vec::new(),
            run: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Start a new run id for the spans that follow.
    pub fn next_run(&mut self) -> u32 {
        self.run += 1;
        self.run
    }

    /// Open a span nested in the innermost open one.
    pub fn begin(&mut self, name: impl Into<String>) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.into(),
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            run: self.run,
        });
        self.open.push(id);
        id
    }

    /// Close span `id`, which must be the innermost open span.  Returns its
    /// duration in seconds.
    pub fn end(&mut self, id: usize) -> f64 {
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        let end = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = end;
        (end - span.start_ns) as f64 * 1e-9
    }

    /// Run `f` inside a span named `name`; returns `f`'s value and the
    /// span's duration in seconds.
    pub fn span<R>(&mut self, name: impl Into<String>, f: impl FnOnce(&mut Self) -> R) -> (R, f64) {
        let id = self.begin(name);
        let out = f(self);
        (out, self.end(id))
    }

    /// Add an already measured span (used by tests and for intervals timed
    /// outside the tracer).
    pub fn record(
        &mut self,
        name: &str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
    ) -> usize {
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns,
            parent,
            run: self.run,
        });
        self.spans.len() - 1
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of span `id` in ns: its duration minus the union of its
    /// direct children's intervals (clipped to the parent).
    pub fn self_time_ns(&self, id: usize) -> u64 {
        let parent = &self.spans[id];
        let mut children: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns)))
            .filter(|(a, b)| a < b)
            .collect();
        children.sort_unstable();
        let mut covered = 0;
        let mut reach = parent.start_ns;
        for (a, b) in children {
            let a = a.max(reach);
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        (parent.end_ns - parent.start_ns) - covered
    }

    /// Self time in seconds summed per span name.
    pub fn self_seconds_by_name(&self) -> BTreeMap<String, f64> {
        let mut out = BTreeMap::new();
        for (id, s) in self.spans.iter().enumerate() {
            *out.entry(s.name.clone()).or_insert(0.0) += self.self_time_ns(id) as f64 * 1e-9;
        }
        out
    }

    /// Write every span as TSV: id, parent, run, name, start, end, self ns.
    pub fn write_tsv(&self, path: &Path) -> io::Result<()> {
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\trun\tname\tstart_ns\tend_ns\tself_ns")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{id}\t{parent}\t{}\t{}\t{}\t{}\t{}",
                s.run,
                s.name,
                s.start_ns,
                s.end_ns,
                self.self_time_ns(id)
            )?;
        }
        out.flush()
    }
}
