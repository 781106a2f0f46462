//! Pull-based trace streams: the [`TraceSource`] abstraction.
//!
//! The simulator is trace-driven, but nothing about it requires the whole
//! trace to exist in memory: it only ever asks "what is processor `p`'s next
//! event?".  `TraceSource` captures exactly that contract — per-processor
//! pull cursors over a workload's event streams — so that the three ways a
//! trace can exist are interchangeable:
//!
//! * **materialized** — [`TraceCursor`], a cursor over a [`ProgramTrace`]
//!   (the classic in-memory representation, still used by tests and
//!   custom-trace callers);
//! * **fused** — [`FusedSource`], which runs a resumable step-function
//!   generator ([`StepGenerator`]) directly inside the consumer's pull
//!   loop: no thread, no channel, no batch copies;
//! * **replayed** — [`crate::replay::ReplaySource`], which demultiplexes a
//!   recorded trace file without seeking.
//!
//! Every source also accumulates incremental [`TraceStats`] over the events
//! *pulled* so far ([`TraceSource::stats_so_far`]); once a source is drained
//! these equal what [`ProgramTrace::stats`] would report for the same trace.
//!
//! # The demultiplexing window, and why it is bounded
//!
//! A demultiplexing source (fused or replayed) parks the events it has read
//! for processors other than the one being pulled.  Three mechanisms keep
//! that window from silently reintroducing O(trace) memory:
//!
//! * **demand-driven emission** — a [`FusedSource`] tells its generator
//!   which processor it is pulling, and the Table 2 generators emit that
//!   processor's next chunk, so in the simulator's pull order each
//!   processor parks about one chunk;
//! * **end-of-stream markers** ([`crate::builder::EventSink::end_of_stream`],
//!   which the generators emit for each processor right after its final
//!   barrier) answer "is this processor done?" without reading the rest of
//!   every other stream;
//! * **a hard cap** ([`default_window_cap`], adjustable per source with
//!   `with_window_cap`) turns a genuinely unbounded window — an adversarial
//!   pull order against a stream whose processors do not end together —
//!   into [`TraceError::StreamWindowExceeded`], reported through
//!   [`TraceSource::take_error`], instead of unbounded queue growth.
//!
//! [`TraceSource::peak_buffered_events`] reports how wide the window got.

use std::collections::VecDeque;

use crate::access::TraceEvent;
use crate::addr::{ProcId, Topology};
use crate::builder::EventSink;
use crate::trace::{ProgramTrace, StatsAccumulator, TraceError, TraceStats};

/// A per-processor pull cursor over a workload's event streams.
///
/// The contract:
///
/// * [`next_event`](TraceSource::next_event) consumes and returns the next
///   event of one processor's stream, `None` once that stream is exhausted;
/// * [`exhausted`](TraceSource::exhausted) answers the same question without
///   consuming (it may buffer internally, which is why it takes `&mut`);
/// * streams of different processors are independent: consuming from one
///   never skips events of another;
/// * the per-processor sequences are deterministic for a given source
///   construction, so two drains of equally constructed sources observe
///   bit-identical streams;
/// * a source that had to give up mid-stream (buffering cap exceeded)
///   reports exhaustion everywhere and surfaces the reason through
///   [`take_error`](TraceSource::take_error).
pub trait TraceSource {
    /// Workload name (Table 2 row, e.g. `"lu"`).
    fn name(&self) -> &str;

    /// Cluster topology the trace targets.
    fn topology(&self) -> Topology;

    /// Pull the next event of `proc`'s stream; `None` once exhausted.
    fn next_event(&mut self, proc: ProcId) -> Option<TraceEvent>;

    /// `true` once `proc`'s stream has no further events.  Does not consume.
    fn exhausted(&mut self, proc: ProcId) -> bool;

    /// Pull up to `max` consecutive events of `proc`'s stream, appending
    /// them to `out` (which is not cleared).  Returns the number appended —
    /// `0` exactly when [`next_event`](TraceSource::next_event) would have
    /// returned `None`.
    ///
    /// Semantically identical to calling `next_event` up to `max` times and
    /// stopping at the first `None`, and implementations must preserve
    /// that equivalence *including side effects*: a demultiplexing source
    /// may only pump its underlying stream as far as producing the first
    /// event requires (exactly what one `next_event` call would pump) and
    /// then take events that are already parked, so that window-cap
    /// poisoning triggers at the same stream position under either API.
    /// Returning fewer than `max` events while more are cheaply available
    /// is allowed; returning `0` while the stream has events is not.
    ///
    /// The default body loops `next_event`, which monomorphizes to the
    /// concrete source — a caller holding `&mut dyn TraceSource` pays one
    /// virtual call per burst instead of one per event.
    fn next_burst(&mut self, proc: ProcId, out: &mut Vec<TraceEvent>, max: usize) -> usize {
        let mut n = 0;
        while n < max {
            let Some(ev) = self.next_event(proc) else {
                break;
            };
            out.push(ev);
            n += 1;
        }
        n
    }

    /// Statistics over the events pulled so far.  After every stream is
    /// drained this equals the whole-trace statistics.
    fn stats_so_far(&self) -> TraceStats;

    /// Events read from the underlying stream but not yet pulled by the
    /// consumer (the demultiplexing window).  0 for sources that never
    /// park events.
    fn buffered_events(&self) -> usize {
        0
    }

    /// The high-water mark of [`buffered_events`](TraceSource::buffered_events)
    /// over the source's life so far: the widest the demultiplexing window
    /// has been.  0 for sources that never park events.
    fn peak_buffered_events(&self) -> usize {
        0
    }

    /// The error that cut this stream short, if any (taking it resets the
    /// slot).  A poisoned source answers `next_event`/`exhausted` as if
    /// every stream ended; consumers that care — the simulator — check this
    /// before trusting the early end.
    fn take_error(&mut self) -> Option<TraceError> {
        None
    }
}

impl<S: TraceSource + ?Sized> TraceSource for Box<S> {
    fn name(&self) -> &str {
        (**self).name()
    }
    fn topology(&self) -> Topology {
        (**self).topology()
    }
    fn next_event(&mut self, proc: ProcId) -> Option<TraceEvent> {
        (**self).next_event(proc)
    }
    fn exhausted(&mut self, proc: ProcId) -> bool {
        (**self).exhausted(proc)
    }
    fn next_burst(&mut self, proc: ProcId, out: &mut Vec<TraceEvent>, max: usize) -> usize {
        (**self).next_burst(proc, out, max)
    }
    fn stats_so_far(&self) -> TraceStats {
        (**self).stats_so_far()
    }
    fn buffered_events(&self) -> usize {
        (**self).buffered_events()
    }
    fn peak_buffered_events(&self) -> usize {
        (**self).peak_buffered_events()
    }
    fn take_error(&mut self) -> Option<TraceError> {
        (**self).take_error()
    }
}

impl<S: TraceSource + ?Sized> TraceSource for &mut S {
    fn name(&self) -> &str {
        (**self).name()
    }
    fn topology(&self) -> Topology {
        (**self).topology()
    }
    fn next_event(&mut self, proc: ProcId) -> Option<TraceEvent> {
        (**self).next_event(proc)
    }
    fn exhausted(&mut self, proc: ProcId) -> bool {
        (**self).exhausted(proc)
    }
    fn next_burst(&mut self, proc: ProcId, out: &mut Vec<TraceEvent>, max: usize) -> usize {
        (**self).next_burst(proc, out, max)
    }
    fn stats_so_far(&self) -> TraceStats {
        (**self).stats_so_far()
    }
    fn buffered_events(&self) -> usize {
        (**self).buffered_events()
    }
    fn peak_buffered_events(&self) -> usize {
        (**self).peak_buffered_events()
    }
    fn take_error(&mut self) -> Option<TraceError> {
        (**self).take_error()
    }
}

/// The materialized [`TraceSource`]: per-processor cursors over a
/// [`ProgramTrace`] held in memory.
///
/// Statistics are *caught up lazily*: the hot per-event path stays a bare
/// index increment, and each [`TraceSource::stats_so_far`] call feeds the
/// accumulator only the events pulled since the previous call.  A caller
/// polling stats in a loop therefore pays O(events) total — not
/// O(events²) as the old recount-the-prefix implementation did — while a
/// caller that never asks pays nothing per event.
#[derive(Debug, Clone)]
pub struct TraceCursor<'a> {
    trace: &'a ProgramTrace,
    pos: Vec<usize>,
    /// Interior mutability: catching up is observationally pure, and
    /// `stats_so_far` takes `&self` across every source implementation.
    stats: std::cell::RefCell<LazyCursorStats>,
}

/// The accumulator plus the per-processor positions it has observed up to.
#[derive(Debug, Clone)]
struct LazyCursorStats {
    acc: StatsAccumulator,
    seen: Vec<usize>,
}

impl<'a> TraceCursor<'a> {
    /// Fresh cursors at the start of every processor's stream.
    pub fn new(trace: &'a ProgramTrace) -> Self {
        TraceCursor {
            trace,
            pos: vec![0; trace.per_proc.len()],
            stats: std::cell::RefCell::new(LazyCursorStats {
                acc: StatsAccumulator::new(trace.topology),
                seen: vec![0; trace.per_proc.len()],
            }),
        }
    }
}

impl ProgramTrace {
    /// View this trace as a [`TraceSource`] (fresh cursors at the start).
    pub fn source(&self) -> TraceCursor<'_> {
        TraceCursor::new(self)
    }
}

impl TraceSource for TraceCursor<'_> {
    fn name(&self) -> &str {
        &self.trace.name
    }

    fn topology(&self) -> Topology {
        self.trace.topology
    }

    fn next_event(&mut self, proc: ProcId) -> Option<TraceEvent> {
        let p = proc.index();
        let ev = *self.trace.per_proc[p].get(self.pos[p])?;
        self.pos[p] += 1;
        Some(ev)
    }

    fn exhausted(&mut self, proc: ProcId) -> bool {
        let p = proc.index();
        self.pos[p] >= self.trace.per_proc[p].len()
    }

    fn next_burst(&mut self, proc: ProcId, out: &mut Vec<TraceEvent>, max: usize) -> usize {
        let p = proc.index();
        let events = &self.trace.per_proc[p];
        let take = (events.len() - self.pos[p]).min(max);
        out.extend_from_slice(&events[self.pos[p]..self.pos[p] + take]);
        self.pos[p] += take;
        take
    }

    /// Pulled-event statistics, identical in mid-stream meaning to what the
    /// demultiplexing sources report: exactly the events the consumer has
    /// seen, no matter which source implementation is behind the trait.
    fn stats_so_far(&self) -> TraceStats {
        let mut lazy = self.stats.borrow_mut();
        let LazyCursorStats { acc, seen } = &mut *lazy;
        for (p, seen_pos) in seen.iter_mut().enumerate() {
            for ev in &self.trace.per_proc[p][*seen_pos..self.pos[p]] {
                acc.observe(ProcId(p as u16), ev);
            }
            *seen_pos = self.pos[p];
        }
        lazy.acc.snapshot()
    }
}

/// Floor of the default cap on a demultiplexing source's parked-event
/// window (see [`default_window_cap`]).
pub const DEFAULT_WINDOW_CAP: usize = 4 << 20;

/// Per-processor allowance folded into the default window cap.
///
/// The cap is not what bounds the window in normal runs; demand-driven
/// emission does.  Measured peaks when the simulator pulls (CC-NUMA):
///
/// * reduced scale, 8x4 paper machine: 16–25K events for every Table 2
///   workload (cholesky's whole-task items are the widest);
/// * paper scale, 8x4: 16–20K, cholesky 45K;
/// * paper-scale radix on 128x1: 67K.
///
/// The cap is for pull orders that defeat the demand hint.  A processor
/// pulled past its barrier makes the generator fill the other processors'
/// slices, so a reverse-order drain parks up to everything the other
/// processors emit (3.5M events for paper barnes on 8x4, 5.5M for paper
/// radix on 128x1).  Phases grow with the machine — radix's global-rank phase is
/// O(procs²) events — so the cap grows with it.
pub const WINDOW_CAP_PER_PROC: usize = 256 << 10;

/// The default parked-event window cap for a machine: the flat
/// [`DEFAULT_WINDOW_CAP`] floor or [`WINDOW_CAP_PER_PROC`] per processor,
/// whichever is larger.  Hundreds of times the simulator-order window, yet
/// a fixed bound, so it trips on a genuine buffering blow-up (an
/// adversarial pull order against a stream without early end markers)
/// long before the process feels it.
pub fn default_window_cap(topology: Topology) -> usize {
    DEFAULT_WINDOW_CAP.max(topology.total_procs() * WINDOW_CAP_PER_PROC)
}

/// Shared demultiplexing state for sources that read one interleaved event
/// stream (a step generator's emission or trace-file records) and serve per-processor pull cursors: small per-processor
/// queues, per-processor end-of-stream flags, the incremental statistics
/// every *pulled* event flows through, and the hard window cap.
///
/// [`FusedSource`] and [`crate::replay::ReplaySource`] drive their
/// `next_event`/`exhausted` loops off this one struct, so the demux
/// semantics cannot drift between them.
#[derive(Debug)]
pub(crate) struct Demux {
    buffers: Vec<VecDeque<TraceEvent>>,
    ended: Vec<bool>,
    stats: StatsAccumulator,
    /// Total parked events across all buffers.
    buffered: usize,
    /// High-water mark of `buffered`.
    peak: usize,
    window_cap: usize,
    poisoned: Option<TraceError>,
}

impl Demux {
    pub(crate) fn new(topology: Topology) -> Self {
        Demux {
            buffers: vec![VecDeque::new(); topology.total_procs()],
            ended: vec![false; topology.total_procs()],
            stats: StatsAccumulator::new(topology),
            buffered: 0,
            peak: 0,
            window_cap: default_window_cap(topology),
            poisoned: None,
        }
    }

    pub(crate) fn set_window_cap(&mut self, cap: usize) {
        self.window_cap = cap.max(1);
    }

    /// Park one demultiplexed event for `proc`.  On window overflow the
    /// demux poisons itself: the backlog is dropped, every stream reports
    /// ended, and the error waits in [`Demux::take_error`].
    pub(crate) fn push(&mut self, proc: ProcId, ev: TraceEvent) {
        if self.poisoned.is_some() {
            return;
        }
        if self.buffered >= self.window_cap {
            self.poison(TraceError::StreamWindowExceeded {
                buffered: self.buffered,
                cap: self.window_cap,
            });
            return;
        }
        self.buffered += 1;
        self.peak = self.peak.max(self.buffered);
        self.buffers[proc.index()].push_back(ev);
    }

    /// Give up on the stream: drop the backlog, report every processor
    /// ended, and park `err` for [`Demux::take_error`].
    pub(crate) fn poison(&mut self, err: TraceError) {
        self.poisoned = Some(err);
        for buf in &mut self.buffers {
            buf.clear();
        }
        self.buffered = 0;
        self.ended.fill(true);
    }

    /// Record that `proc`'s stream has no further events (an explicit
    /// end-of-stream marker, or overall end of the underlying stream).
    pub(crate) fn end(&mut self, proc: ProcId) {
        self.ended[proc.index()] = true;
    }

    /// Mark every processor ended (overall end of the underlying stream).
    pub(crate) fn end_all(&mut self) {
        self.ended.fill(true);
    }

    pub(crate) fn pop(&mut self, proc: ProcId) -> Option<TraceEvent> {
        let ev = self.buffers[proc.index()].pop_front()?;
        self.buffered -= 1;
        self.stats.observe(proc, &ev);
        Some(ev)
    }

    /// Pop up to `max` already-parked events for `proc` into `out`.
    /// Deliberately does *not* trigger any upstream pumping — burst pulls
    /// take only what the serial pump sequence has already produced, so
    /// window-cap behavior is position-identical under either pull API.
    pub(crate) fn pop_burst(
        &mut self,
        proc: ProcId,
        out: &mut Vec<TraceEvent>,
        max: usize,
    ) -> usize {
        let buf = &mut self.buffers[proc.index()];
        let take = buf.len().min(max);
        for _ in 0..take {
            // dsm-lint: allow(panic-path, take is min of len and max so exactly take pops succeed; length-checked in the line above)
            let ev = buf.pop_front().expect("length-checked pop");
            self.stats.observe(proc, &ev);
            out.push(ev);
        }
        self.buffered -= take;
        take
    }

    pub(crate) fn has_buffered(&self, proc: ProcId) -> bool {
        !self.buffers[proc.index()].is_empty()
    }

    pub(crate) fn is_ended(&self, proc: ProcId) -> bool {
        self.ended[proc.index()]
    }

    pub(crate) fn is_poisoned(&self) -> bool {
        self.poisoned.is_some()
    }

    pub(crate) fn take_error(&mut self) -> Option<TraceError> {
        self.poisoned.take()
    }

    pub(crate) fn buffered_events(&self) -> usize {
        self.buffered
    }

    pub(crate) fn peak_buffered_events(&self) -> usize {
        self.peak
    }

    pub(crate) fn stats(&self) -> TraceStats {
        self.stats.snapshot()
    }
}

/// The demux viewed as an [`EventSink`]: what a [`FusedSource`] hands its
/// step generator each pump.
pub(crate) struct DemuxSink<'a>(pub(crate) &'a mut Demux);

impl EventSink for DemuxSink<'_> {
    fn event(&mut self, proc: ProcId, ev: TraceEvent) {
        self.0.push(proc, ev);
    }
    fn end_of_stream(&mut self, proc: ProcId) {
        self.0.end(proc);
    }
}

/// A resumable, demand-driven trace generator: the producer half of
/// [`FusedSource`].
///
/// Each [`step`](StepGenerator::step) call emits a bounded batch of events
/// into the sink it is handed and returns `true` while more remain.  The
/// `want` argument is a demand hint: the processor whose queue the consumer
/// found empty.  A generator should emit the next chunk of *that*
/// processor's stream — events, its next barrier, or its end-of-stream
/// marker — so a consumer pulling in simulation order only ever parks
/// about one chunk per processor.  When `want` cannot advance yet (its
/// slice of the current phase is done and other processors are still
/// inside theirs, which happens under adversarial pull orders such as a
/// reverse-order drain, never under the simulator's barrier-respecting
/// order), the generator makes progress on other processors instead, so
/// the window falls back to what processor-order emission parks.  Any
/// processor is a valid hint:
/// materializing callers pass the same one every step.
///
/// The generator owns all of its state — loop counters, RNG snapshots, a
/// [`crate::builder::StepWriter`] — so the consumer can interleave steps
/// with event pulls on one thread.  Implementations must:
///
/// * emit the same per-processor event sequences regardless of the hints
///   and of how calls are interleaved with other work, so two equally
///   constructed generators stepped to completion produce bit-identical
///   streams;
/// * emit every processor's end-of-stream marker by the final step (as
///   soon as its stream is complete, ideally);
/// * be prepared for the final step — the one returning `false` — to be
///   a full step: the events it emits are delivered like any other.
pub trait StepGenerator: Send {
    /// Emit the next bounded batch into `sink`, preferably for `want`;
    /// `false` once the trace is complete.  Not called again after
    /// returning `false`.
    fn step(&mut self, want: ProcId, sink: &mut dyn EventSink) -> bool;
}

/// A [`TraceSource`] that runs its generator *inside* the consumer's pull
/// loop.
///
/// When the pulled processor's queue is empty, the source steps the
/// generator with that processor as the demand hint until it has an event
/// (or its end marker).  No thread, no channel, no batch copies: events go
/// straight from the generator's emission into the per-processor queues
/// the consumer pops.  Peak memory is the skew between emission order and
/// consumption order.  With the demand-driven Table 2 generators under the
/// simulator's pull order that is about one emission chunk per processor:
/// at reduced scale on the 8x4 paper machine the measured peak is 16–25K
/// events for every workload (it was 18K–1.04M when generators emitted
/// whole phase slices in processor order).  Pull orders that run one
/// processor past its barrier while others lag widen it back to what a
/// generator without the hint parks (see [`WINDOW_CAP_PER_PROC`]), and the
/// window cap bounds whatever is left.
/// [`TraceSource::peak_buffered_events`] reports the high-water mark.
pub struct FusedSource {
    name: String,
    topology: Topology,
    generator: Option<Box<dyn StepGenerator>>,
    demux: Demux,
}

impl std::fmt::Debug for FusedSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FusedSource")
            .field("name", &self.name)
            .field("topology", &self.topology)
            .finish_non_exhaustive()
    }
}

impl FusedSource {
    /// Wrap a step generator as a pull source for `topology`.
    pub fn new(
        name: impl Into<String>,
        topology: Topology,
        generator: Box<dyn StepGenerator>,
    ) -> Self {
        FusedSource {
            name: name.into(),
            topology,
            generator: Some(generator),
            demux: Demux::new(topology),
        }
    }

    /// Replace the parked-event window cap (default
    /// [`default_window_cap`] for the source's topology).
    pub fn with_window_cap(mut self, cap: usize) -> Self {
        self.demux.set_window_cap(cap);
        self
    }

    /// Step the generator once on `want`'s behalf.  Returns `false` when
    /// no further events can arrive for `want`: its stream already ended,
    /// or the generator (or the window cap) ended the whole stream.  The
    /// final step may still have parked events, so callers re-check the
    /// demux after a `false`.
    fn pump(&mut self, want: ProcId) -> bool {
        if self.demux.is_ended(want) {
            return false;
        }
        let Some(generator) = &mut self.generator else {
            return false;
        };
        let more = generator.step(want, &mut DemuxSink(&mut self.demux));
        if !more {
            self.generator = None;
            self.demux.end_all();
        } else if self.demux.is_poisoned() {
            self.generator = None;
        }
        more && !self.demux.is_poisoned()
    }
}

impl TraceSource for FusedSource {
    fn name(&self) -> &str {
        &self.name
    }

    fn topology(&self) -> Topology {
        self.topology
    }

    fn next_event(&mut self, proc: ProcId) -> Option<TraceEvent> {
        loop {
            if let Some(ev) = self.demux.pop(proc) {
                return Some(ev);
            }
            if !self.pump(proc) {
                return self.demux.pop(proc);
            }
        }
    }

    fn exhausted(&mut self, proc: ProcId) -> bool {
        loop {
            if self.demux.has_buffered(proc) {
                return false;
            }
            if !self.pump(proc) {
                return !self.demux.has_buffered(proc);
            }
        }
    }

    /// Burst pull: pump only until `proc` has *a* first event (the same
    /// pump sequence one `next_event` performs), then take whatever the
    /// demux has already parked for it, up to `max`.
    fn next_burst(&mut self, proc: ProcId, out: &mut Vec<TraceEvent>, max: usize) -> usize {
        loop {
            let n = self.demux.pop_burst(proc, out, max);
            if n > 0 {
                return n;
            }
            if !self.pump(proc) {
                return self.demux.pop_burst(proc, out, max);
            }
        }
    }

    fn stats_so_far(&self) -> TraceStats {
        self.demux.stats()
    }

    fn buffered_events(&self) -> usize {
        self.demux.buffered_events()
    }

    fn peak_buffered_events(&self) -> usize {
        self.demux.peak_buffered_events()
    }

    fn take_error(&mut self) -> Option<TraceError> {
        self.demux.take_error()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::GlobalAddr;
    use crate::builder::TraceBuilder;

    fn toy_trace() -> ProgramTrace {
        let topo = Topology::new(2, 1);
        let mut b = TraceBuilder::new("toy", topo).with_think_cycles(2);
        b.read(ProcId(0), GlobalAddr(0));
        b.barrier_all();
        b.write(ProcId(1), GlobalAddr(4096));
        b.lock(ProcId(1), 7);
        b.unlock(ProcId(1), 7);
        b.build()
    }

    /// A step generator replaying the toy trace: one event per step, fair
    /// round-robin, end markers when each processor drains.
    struct ToySteps {
        trace: ProgramTrace,
        pos: Vec<usize>,
        next: usize,
    }

    impl ToySteps {
        fn new(trace: ProgramTrace) -> Self {
            let procs = trace.per_proc.len();
            ToySteps {
                trace,
                pos: vec![0; procs],
                next: 0,
            }
        }
    }

    impl StepGenerator for ToySteps {
        fn step(&mut self, _want: ProcId, sink: &mut dyn EventSink) -> bool {
            let procs = self.pos.len();
            for _ in 0..procs {
                let p = self.next;
                self.next = (self.next + 1) % procs;
                if let Some(ev) = self.trace.per_proc[p].get(self.pos[p]) {
                    sink.event(ProcId(p as u16), *ev);
                    self.pos[p] += 1;
                    if self.pos[p] == self.trace.per_proc[p].len() {
                        sink.end_of_stream(ProcId(p as u16));
                    }
                    return true;
                }
            }
            false
        }
    }

    #[test]
    fn cursor_replays_the_trace_per_proc() {
        let trace = toy_trace();
        let mut src = trace.source();
        assert_eq!(src.name(), "toy");
        assert_eq!(src.topology(), trace.topology);
        for p in trace.topology.proc_ids() {
            let mut got = Vec::new();
            while let Some(ev) = src.next_event(p) {
                got.push(ev);
            }
            assert_eq!(got, trace.per_proc[p.index()]);
            assert!(src.exhausted(p));
        }
        assert_eq!(src.stats_so_far(), trace.stats());
        assert_eq!(src.buffered_events(), 0);
        assert!(src.take_error().is_none());
    }

    #[test]
    fn cursor_streams_are_independent() {
        let trace = toy_trace();
        let mut src = trace.source();
        // Draining proc 1 first must not disturb proc 0's stream.
        while src.next_event(ProcId(1)).is_some() {}
        assert!(!src.exhausted(ProcId(0)));
        assert_eq!(src.next_event(ProcId(0)), Some(trace.per_proc[0][0]));
    }

    #[test]
    fn cursor_stats_track_the_pulled_prefix_incrementally() {
        let trace = toy_trace();
        let mut src = trace.source();
        assert_eq!(src.stats_so_far(), TraceStats::default());
        src.next_event(ProcId(0)); // think
        src.next_event(ProcId(0)); // read
        let mid = src.stats_so_far();
        assert_eq!(mid.accesses, 1);
        assert_eq!(mid.reads, 1);
        assert_eq!(mid.compute_cycles, 2);
        for p in trace.topology.proc_ids() {
            while src.next_event(p).is_some() {}
        }
        assert_eq!(src.stats_so_far(), trace.stats());
    }

    #[test]
    fn fused_source_matches_materialized_trace() {
        let trace = toy_trace();
        let topo = trace.topology;
        let mut src = FusedSource::new("toy", topo, Box::new(ToySteps::new(trace.clone())));
        // Pull in an adversarial order: proc 1 fully first.
        let mut p1 = Vec::new();
        while let Some(ev) = src.next_event(ProcId(1)) {
            p1.push(ev);
        }
        let mut p0 = Vec::new();
        while let Some(ev) = src.next_event(ProcId(0)) {
            p0.push(ev);
        }
        assert_eq!(p0, trace.per_proc[0]);
        assert_eq!(p1, trace.per_proc[1]);
        assert!(src.exhausted(ProcId(0)) && src.exhausted(ProcId(1)));
        assert_eq!(src.stats_so_far(), trace.stats());
        assert!(src.take_error().is_none());
    }

    /// A generator that does all of its work in its final step: every
    /// event arrives in the call that returns `false`.
    struct FinalStepOnly(Option<ProgramTrace>);

    impl StepGenerator for FinalStepOnly {
        fn step(&mut self, _want: ProcId, sink: &mut dyn EventSink) -> bool {
            if let Some(trace) = self.0.take() {
                for (p, events) in trace.per_proc.iter().enumerate() {
                    for ev in events {
                        sink.event(ProcId(p as u16), *ev);
                    }
                }
            }
            false
        }
    }

    #[test]
    fn events_parked_by_the_final_step_are_delivered() {
        // Each pull API, used alone, must deliver the events the final
        // step parked: a processor's first "ended" answer is final, as it
        // is for the simulator.
        let trace = toy_trace();
        let topo = trace.topology;
        for api in ["next_event", "next_burst", "exhausted"] {
            let mut src =
                FusedSource::new("toy", topo, Box::new(FinalStepOnly(Some(trace.clone()))));
            let mut got: Vec<Vec<TraceEvent>> = vec![Vec::new(); topo.total_procs()];
            for p in [ProcId(1), ProcId(0)] {
                let out = &mut got[p.index()];
                loop {
                    match api {
                        "next_event" => match src.next_event(p) {
                            Some(ev) => out.push(ev),
                            None => break,
                        },
                        "next_burst" => {
                            if src.next_burst(p, out, 64) == 0 {
                                break;
                            }
                        }
                        _ => {
                            if src.exhausted(p) {
                                break;
                            }
                            out.extend(src.next_event(p));
                        }
                    }
                }
            }
            assert_eq!(got, trace.per_proc, "{api} lost the final step's events");
            assert_eq!(src.stats_so_far(), trace.stats(), "{api}");
            let total: usize = trace.per_proc.iter().map(Vec::len).sum();
            assert_eq!(src.peak_buffered_events(), total, "{api}");
            assert!(src.take_error().is_none());
        }
    }

    #[test]
    fn fused_source_window_cap_poisons_instead_of_growing() {
        // A generator whose proc 0 emits forever while proc 1 stays silent:
        // pulling proc 1 must hit the cap and surface the error, not OOM.
        struct Endless(u64);
        impl StepGenerator for Endless {
            fn step(&mut self, _want: ProcId, sink: &mut dyn EventSink) -> bool {
                sink.event(ProcId(0), TraceEvent::read(GlobalAddr(self.0 * 64)));
                self.0 += 1;
                true
            }
        }
        let topo = Topology::new(2, 1);
        let mut src =
            FusedSource::new("endless", topo, Box::new(Endless(0))).with_window_cap(1_000);
        assert!(src.next_event(ProcId(1)).is_none());
        assert!(src.buffered_events() <= 1_000);
        match src.take_error() {
            Some(TraceError::StreamWindowExceeded { buffered, cap }) => {
                assert_eq!(cap, 1_000);
                assert!(buffered >= 1_000);
            }
            other => panic!("expected StreamWindowExceeded, got {other:?}"),
        }
        // Poisoned: everything reports exhausted.
        assert!(src.exhausted(ProcId(0)));
    }

    #[test]
    fn default_window_cap_scales_with_the_machine() {
        // Flat floor for small machines…
        assert_eq!(default_window_cap(Topology::new(2, 1)), DEFAULT_WINDOW_CAP);
        assert_eq!(
            default_window_cap(Topology::new(8, 4)),
            32 * WINDOW_CAP_PER_PROC
        );
        // …per-processor allowance for wide ones: radix's global-rank phase
        // is O(procs²) events, so a 384-processor sweep point legitimately
        // parks more than the flat floor.
        let wide = default_window_cap(Topology::new(96, 4));
        assert_eq!(wide, 384 * WINDOW_CAP_PER_PROC);
        assert!(wide > DEFAULT_WINDOW_CAP);
    }
}
