//! `fmm` — adaptive Fast Multipole Method N-body simulation (SPLASH-2 FMM).
//!
//! Space is decomposed into boxes; each box carries multipole and local
//! expansions.  Work is partitioned spatially, so a box's interaction list
//! consists almost entirely of boxes owned by the same or a neighbouring
//! processor — the read-write sharing degree of a box page is low and
//! *static*.  Because the whole box array is initialised by processor 0
//! (as the sequential setup phase of the original program does), first-touch
//! homes every box page on node 0; during the compute phase each page has a
//! single dominant remote user, which is exactly the situation page
//! *migration* exploits (the paper reports 54 migrations and essentially no
//! replications per node for fmm).

use crate::config::{Scale, WorkloadConfig};
use crate::util::{owned_range, PhaseSteps, Phased, ProcRngs};
use crate::Workload;
use mem_trace::{AddressSpace, EventSink, ProcId, Segment, StepGenerator, StepWriter, Topology};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::ops::Range;

/// Fast Multipole Method N-body simulation.
pub struct Fmm;

struct FmmParams {
    /// Number of spatial boxes.
    boxes: u64,
    /// Cache lines of expansion data per box.
    lines_per_box: u64,
    /// Timesteps.
    timesteps: u64,
    /// Interaction-list length per box.
    interactions: u64,
}

impl FmmParams {
    fn for_scale(scale: Scale) -> Self {
        match scale {
            Scale::Reduced => FmmParams {
                boxes: 512,
                lines_per_box: 20,
                timesteps: 10,
                interactions: 16,
            },
            Scale::Paper => FmmParams {
                boxes: 4096,
                lines_per_box: 20,
                timesteps: 5,
                interactions: 27,
            },
            // The box decomposition carries the factor; per-box structure
            // and timesteps are the paper's.
            Scale::Custom(c) => FmmParams {
                boxes: c.of(4096).max(64),
                lines_per_box: 20,
                timesteps: 5,
                interactions: 27,
            },
        }
    }
}

/// FMM's phases; every item is one box.
#[derive(Clone, Copy)]
enum FmmPhase {
    /// Processor 0 initialises every box.
    Setup,
    /// Every processor computes its own boxes.
    Compute { step: u64 },
}

struct FmmGen {
    params: FmmParams,
    topology: Topology,
    boxes: Segment,
    rngs: ProcRngs,
}

impl FmmGen {
    fn new(cfg: &WorkloadConfig) -> Self {
        let params = FmmParams::for_scale(cfg.scale);
        let mut space = AddressSpace::new();
        let boxes = space.alloc("boxes", params.boxes * params.lines_per_box, 64);
        FmmGen {
            params,
            topology: cfg.topology,
            boxes,
            rngs: ProcRngs::new(SmallRng::seed_from_u64(cfg.seed ^ 0xf33)),
        }
    }

    fn line_of(&self, box_id: u64, line: u64) -> mem_trace::GlobalAddr {
        self.boxes.elem(box_id * self.params.lines_per_box + line)
    }

    fn owned(params: &FmmParams, topology: Topology, p: usize) -> Range<usize> {
        owned_range(params.boxes as usize, topology, ProcId(p as u16))
    }

    /// Box and line of interaction `i` of `box_id`, a box in `owned`.  The
    /// number of draws depends on the first one, so the phase snapshot
    /// replays this same code without emitting.
    fn interaction(
        params: &FmmParams,
        rng: &mut SmallRng,
        owned: &Range<usize>,
        box_id: u64,
        i: u64,
    ) -> (u64, u64) {
        let owned_len = owned.len() as u64;
        // 80% of the interaction list stays within the processor's own
        // spatial region, the rest spills to the neighbouring region.
        let neighbor = if rng.gen_range(0..10) < 8 || owned_len == 0 {
            owned.start as u64 + rng.gen_range(0..owned_len.max(1))
        } else {
            (box_id + params.boxes + i - params.interactions / 2) % params.boxes
        };
        (neighbor, rng.gen_range(0..params.lines_per_box))
    }
}

impl Phased for FmmGen {
    type Phase = FmmPhase;

    fn next_phase(&self, phase: FmmPhase) -> Option<FmmPhase> {
        let step = match phase {
            FmmPhase::Setup => 0,
            FmmPhase::Compute { step } => step + 1,
        };
        (step < self.params.timesteps).then_some(FmmPhase::Compute { step })
    }

    fn slice_len(&self, phase: FmmPhase, p: usize) -> usize {
        match phase {
            FmmPhase::Setup if p == 0 => self.params.boxes as usize,
            FmmPhase::Setup => 0,
            FmmPhase::Compute { .. } => Self::owned(&self.params, self.topology, p).len(),
        }
    }

    fn enter(&mut self, phase: FmmPhase) {
        if let FmmPhase::Compute { .. } = phase {
            let (params, topology) = (&self.params, self.topology);
            self.rngs.enter(topology.total_procs(), |p, rng| {
                let owned = Self::owned(params, topology, p);
                for box_id in owned.clone() {
                    for i in 0..params.interactions {
                        Self::interaction(params, rng, &owned, box_id as u64, i);
                    }
                }
            });
        }
    }

    fn emit_item(
        &mut self,
        phase: FmmPhase,
        p: usize,
        item: usize,
        w: &mut StepWriter,
        sink: &mut dyn EventSink,
    ) {
        match phase {
            // Sequential setup: processor 0 initialises every box, so every
            // box page is first-touch homed on node 0.
            FmmPhase::Setup => {
                for line in 0..self.params.lines_per_box {
                    w.write(sink, ProcId(0), self.line_of(item as u64, line));
                }
            }
            // Upward + interaction + downward passes, collapsed into one
            // phase per box: read the interaction list (spatial neighbours,
            // i.e. mostly boxes of the same owner), update own expansions.
            FmmPhase::Compute { .. } => {
                let proc = ProcId(p as u16);
                let owned = Self::owned(&self.params, self.topology, p);
                let box_id = (owned.start + item) as u64;
                for i in 0..self.params.interactions {
                    let rng = self.rngs.of(p);
                    let (neighbor, line) = Self::interaction(&self.params, rng, &owned, box_id, i);
                    w.read(sink, proc, self.line_of(neighbor, line));
                }
                for line in 0..self.params.lines_per_box / 2 {
                    let addr = self.line_of(box_id, line);
                    w.read(sink, proc, addr);
                    w.write(sink, proc, addr);
                }
            }
        }
    }
}

impl Workload for Fmm {
    fn name(&self) -> &'static str {
        "fmm"
    }

    fn description(&self) -> &'static str {
        "Fast Multipole N-body simulation"
    }

    fn paper_input(&self) -> &'static str {
        "16K particles"
    }

    fn reduced_input(&self) -> &'static str {
        "2K particles (512 boxes)"
    }

    fn emit(&self, cfg: &WorkloadConfig, sink: &mut dyn EventSink) {
        crate::run_stepper(self.stepper(cfg), sink);
    }

    fn stepper(&self, cfg: &WorkloadConfig) -> Box<dyn StepGenerator> {
        let w = StepWriter::new(cfg.topology).with_think_cycles(cfg.think_cycles);
        Box::new(PhaseSteps::new(FmmGen::new(cfg), w, FmmPhase::Setup))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mem_trace::{PageId, TraceEvent};
    use std::collections::HashMap;

    #[test]
    fn trace_is_valid() {
        let cfg = WorkloadConfig::reduced();
        let trace = Fmm.generate(&cfg);
        assert!(trace.validate().is_ok());
        let stats = trace.stats();
        assert!(stats.reads > stats.writes);
    }

    #[test]
    fn box_pages_have_a_single_dominant_remote_user() {
        // For a sample of pages, the processor that touches the page most
        // after the setup phase should account for the overwhelming majority
        // of its accesses — the property migration exploits.
        let cfg = WorkloadConfig::reduced();
        let trace = Fmm.generate(&cfg);
        let mut per_page: HashMap<PageId, HashMap<usize, u64>> = HashMap::new();
        for (p, events) in trace.per_proc.iter().enumerate() {
            if p == 0 {
                continue; // skip the initialising processor
            }
            for e in events {
                if let TraceEvent::Access(m) = e {
                    *per_page.entry(m.page()).or_default().entry(p).or_insert(0) += 1;
                }
            }
        }
        let mut dominated = 0usize;
        let mut total = 0usize;
        for (_page, counts) in per_page.iter() {
            let sum: u64 = counts.values().sum();
            let max = counts.values().copied().max().unwrap_or(0);
            if sum >= 50 {
                total += 1;
                if max * 10 >= sum * 7 {
                    dominated += 1;
                }
            }
        }
        assert!(total > 0);
        assert!(
            dominated * 10 >= total * 6,
            "only {dominated}/{total} pages are dominated by one user"
        );
    }

    #[test]
    fn custom_scale_grows_the_box_decomposition() {
        use crate::config::CustomScale;
        let double = FmmParams::for_scale(Scale::Custom(CustomScale::new(2, 1)));
        assert_eq!(double.boxes, 8192);
        assert_eq!(double.lines_per_box, 20);
        assert_eq!(double.timesteps, 5);
    }
}
