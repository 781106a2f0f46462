//! Shared helpers for the workload generators.

use mem_trace::{EventSink, ProcId, StepGenerator, StepWriter, Topology};
use rand::rngs::SmallRng;
use rand::Rng;

/// Events a demand-driven step emits for the processor it serves before
/// returning.  A step finishes the work item it is in, so it can overrun
/// by up to one item.  Under the simulator's pull order the fused demux
/// window stays near this many events per processor.
pub const STEP_CHUNK_EVENTS: usize = 512;

/// A phase-structured trace: phases separated by global barriers, in each
/// of which every processor works through its own slice of work items.
///
/// Implementors only describe the trace; [`PhaseSteps`] turns the
/// description into a demand-driven [`StepGenerator`].  Every processor's
/// slice must be emittable in any interleaving with the others' — which
/// for the generators sharing one RNG means [`Phased::enter`] snapshots
/// where each slice's draws start.
pub(crate) trait Phased: Send {
    /// One value per phase.
    type Phase: Copy + Send;

    /// The phase after `phase`; `None` after the last.
    fn next_phase(&self, phase: Self::Phase) -> Option<Self::Phase>;

    /// Work items in processor `p`'s slice of `phase`.
    fn slice_len(&self, phase: Self::Phase, p: usize) -> usize;

    /// Get ready to emit `phase`'s slices in any processor order: snapshot
    /// the RNG state each slice (or work item) starts from.  Called once
    /// per phase, lazily, by the first step that emits one of the phase's
    /// items — never by a step that only hands out barriers.
    fn enter(&mut self, phase: Self::Phase) {
        let _ = phase;
    }

    /// Emit item `item` of processor `p`'s slice of `phase`.
    fn emit_item(
        &mut self,
        phase: Self::Phase,
        p: usize,
        item: usize,
        w: &mut StepWriter,
        sink: &mut dyn EventSink,
    );
}

/// The demand-driven [`StepGenerator`] over a [`Phased`] trace.
///
/// Each step serves the wanted processor: the next [`STEP_CHUNK_EVENTS`]
/// of its slice of the current phase, followed — as soon as the slice
/// ends — by its barrier (its k-th barrier carries id k, so barriers need
/// not go out together), and after the last phase's barrier by its
/// end-of-stream marker.  A processor with an empty slice gets its barrier
/// on its first pull.  A wanted processor already at the barrier of the
/// current phase (only adversarial pull orders ask) gets nothing; the step
/// fills the lowest processor still inside its slice instead, so such
/// orders park what processor-order emission would.  The phase advances
/// once every processor's barrier is out.
pub(crate) struct PhaseSteps<G: Phased> {
    gen: G,
    w: StepWriter,
    /// The phase in progress; `None` once every stream has ended.
    phase: Option<G::Phase>,
    /// Whether the current phase is the last.
    last: bool,
    /// Whether [`Phased::enter`] has run for the current phase.
    entered: bool,
    /// Per processor: the next item of its slice, and the slice's length.
    next: Vec<usize>,
    len: Vec<usize>,
    /// Per processor: its barrier for the current phase is out.
    done: Vec<bool>,
    /// Processors still inside their slice of the current phase.
    active: usize,
    /// No processor below this index is still inside its slice.
    first_active: usize,
}

impl<G: Phased> PhaseSteps<G> {
    pub(crate) fn new(gen: G, w: StepWriter, first: G::Phase) -> Self {
        let procs = w.topology().total_procs();
        let mut steps = PhaseSteps {
            gen,
            w,
            phase: None,
            last: false,
            entered: false,
            next: vec![0; procs],
            len: vec![0; procs],
            done: vec![false; procs],
            active: 0,
            first_active: 0,
        };
        steps.start(Some(first));
        steps
    }

    /// Move every processor to the start of `phase` (`None`: the end).
    fn start(&mut self, phase: Option<G::Phase>) {
        self.phase = phase;
        self.entered = false;
        let Some(phase) = phase else {
            return;
        };
        self.last = self.gen.next_phase(phase).is_none();
        for p in 0..self.len.len() {
            self.len[p] = self.gen.slice_len(phase, p);
        }
        self.next.fill(0);
        self.done.fill(false);
        self.active = self.len.len();
        self.first_active = 0;
    }

    /// Emit the next chunk of `p`'s slice of `phase`, and its barrier if
    /// the slice ends.
    fn fill(&mut self, phase: G::Phase, p: usize, sink: &mut dyn EventSink) {
        // Processor ids fit u16 by Topology's construction.
        let proc = ProcId(p as u16);
        if !self.entered && self.next[p] < self.len[p] {
            self.gen.enter(phase);
            self.entered = true;
        }
        let stop = self.w.events_emitted(proc) + STEP_CHUNK_EVENTS;
        while self.next[p] < self.len[p] {
            self.gen
                .emit_item(phase, p, self.next[p], &mut self.w, sink);
            self.next[p] += 1;
            if self.next[p] < self.len[p] && self.w.events_emitted(proc) >= stop {
                return;
            }
        }
        self.w.barrier(sink, proc);
        if self.last {
            sink.end_of_stream(proc);
        }
        self.done[p] = true;
        self.active -= 1;
    }
}

impl<G: Phased> StepGenerator for PhaseSteps<G> {
    fn step(&mut self, want: ProcId, sink: &mut dyn EventSink) -> bool {
        let Some(phase) = self.phase else {
            return false;
        };
        let mut p = want.index();
        if self.done[p] {
            while self.done[self.first_active] {
                self.first_active += 1;
            }
            p = self.first_active;
        }
        self.fill(phase, p, sink);
        if self.active == 0 {
            self.start(self.gen.next_phase(phase));
        }
        self.phase.is_some()
    }
}

/// Per-processor RNG positions for a generator whose one shared RNG is
/// consumed processor by processor within each phase: processor `p`'s
/// draws start where processor `p - 1`'s end.
pub(crate) struct ProcRngs {
    /// The shared RNG, past every phase snapshotted so far.
    shared: SmallRng,
    /// Each processor's RNG, at its next draw in the current phase.
    at: Vec<SmallRng>,
}

impl ProcRngs {
    pub(crate) fn new(rng: SmallRng) -> Self {
        ProcRngs {
            shared: rng,
            at: Vec::new(),
        }
    }

    /// Snapshot a phase over `procs` processors: `skip(p, rng)` advances
    /// `rng` past processor `p`'s draws in the phase (by count or by a
    /// draws-only dry pass of its slice).
    pub(crate) fn enter(&mut self, procs: usize, mut skip: impl FnMut(usize, &mut SmallRng)) {
        self.at.clear();
        for p in 0..procs {
            self.at.push(self.shared.clone());
            skip(p, &mut self.shared);
        }
    }

    /// Processor `p`'s RNG in the current phase.
    pub(crate) fn of(&mut self, p: usize) -> &mut SmallRng {
        &mut self.at[p]
    }
}

/// Advance `rng` by `n` draws (the shim's `gen_range` makes exactly one
/// `next_u64` draw).
pub(crate) fn skip_draws(rng: &mut SmallRng, n: u64) {
    for _ in 0..n {
        rng.next_u64();
    }
}

/// Split `0..n` into `parts` contiguous ranges, as evenly as possible.
/// (The generators' hot paths use [`owned_range`]; this whole-partition
/// view remains as the reference the tests check it against.)
#[cfg(test)]
pub fn chunk_ranges(n: usize, parts: usize) -> Vec<std::ops::Range<usize>> {
    assert!(parts > 0);
    (0..parts).map(|i| nth_chunk(n, parts, i)).collect()
}

/// The `i`-th of `parts` contiguous ranges splitting `0..n` — computed
/// arithmetically, no vector of all ranges.  The first `n % parts` chunks
/// are one longer, exactly as [`chunk_ranges`] lays them out.
fn nth_chunk(n: usize, parts: usize, i: usize) -> std::ops::Range<usize> {
    let base = n / parts;
    let extra = n % parts;
    let start = i * base + i.min(extra);
    let len = base + usize::from(i < extra);
    start..start + len
}

/// The range of items owned by `proc` when `n` items are block-distributed
/// over all processors.
///
/// This sits inside every generator's per-phase loops, so it computes the
/// single processor's range directly instead of materializing (and then
/// cloning one element of) the whole partition.
pub fn owned_range(n: usize, topology: Topology, proc: ProcId) -> std::ops::Range<usize> {
    nth_chunk(n, topology.total_procs(), proc.index())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunks_cover_everything_without_overlap() {
        for (n, parts) in [(10, 3), (32, 32), (7, 8), (100, 1)] {
            let ranges = chunk_ranges(n, parts);
            assert_eq!(ranges.len(), parts);
            let mut covered = 0;
            let mut expected_start = 0;
            for r in &ranges {
                assert_eq!(r.start, expected_start);
                expected_start = r.end;
                covered += r.len();
            }
            assert_eq!(covered, n);
        }
    }

    #[test]
    fn chunks_are_balanced() {
        let ranges = chunk_ranges(10, 3);
        let lens: Vec<usize> = ranges.iter().map(|r| r.len()).collect();
        assert_eq!(lens, vec![4, 3, 3]);
    }

    #[test]
    fn owned_range_respects_topology() {
        let topo = Topology::new(2, 2);
        assert_eq!(owned_range(8, topo, ProcId(0)), 0..2);
        assert_eq!(owned_range(8, topo, ProcId(3)), 6..8);
    }

    #[test]
    fn owned_range_agrees_with_chunk_ranges_everywhere() {
        for (n, topo) in [
            (0, Topology::new(2, 2)),
            (7, Topology::new(2, 2)),
            (130, Topology::new(8, 4)),
            (1 << 17, Topology::new(8, 4)),
            (31, Topology::new(16, 2)),
        ] {
            let all = chunk_ranges(n, topo.total_procs());
            for p in topo.proc_ids() {
                assert_eq!(owned_range(n, topo, p), all[p.index()], "n={n} proc={p:?}");
            }
        }
    }
}
