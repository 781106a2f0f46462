//! `barnes` — Barnes-Hut hierarchical N-body simulation (SPLASH-2 Barnes).
//!
//! Each timestep builds an octree over the bodies (small, write-shared,
//! lock-protected), computes forces by walking the tree — the upper tree
//! cells are read by *every* processor, making their pages replication
//! candidates — and finally updates each processor's own bodies.  Body
//! pages are read by several other processors during force computation
//! (high read-write sharing degree), which is why page migration alone
//! cannot remove their capacity misses and, as the paper observes, can even
//! hurt by migrating read-mostly pages back and forth.

use crate::config::{Scale, WorkloadConfig};
use crate::util::{owned_range, skip_draws, PhaseSteps, Phased, ProcRngs};
use crate::Workload;
use mem_trace::{AddressSpace, EventSink, ProcId, Segment, StepGenerator, StepWriter, Topology};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Barnes-Hut N-body simulation.
pub struct Barnes;

struct BarnesParams {
    bodies: u64,
    timesteps: u64,
    /// Tree cells (interior nodes of the octree), roughly bodies / 2.
    cells: u64,
    /// Cells visited per force evaluation.
    cells_per_walk: u64,
    /// Other bodies read per force evaluation.
    neighbors_per_body: u64,
}

impl BarnesParams {
    fn for_scale(scale: Scale) -> Self {
        match scale {
            Scale::Reduced => BarnesParams {
                bodies: 2048,
                timesteps: 6,
                cells: 1024,
                cells_per_walk: 12,
                neighbors_per_body: 6,
            },
            Scale::Paper => BarnesParams {
                bodies: 16 * 1024,
                timesteps: 4,
                cells: 8 * 1024,
                cells_per_walk: 16,
                neighbors_per_body: 8,
            },
            // Bodies (and the tree over them) carry the factor; walk depth
            // and timesteps are the paper's.
            Scale::Custom(c) => BarnesParams {
                bodies: c.of(16 * 1024).max(64),
                timesteps: 4,
                cells: c.of(8 * 1024).max(32),
                cells_per_walk: 16,
                neighbors_per_body: 8,
            },
        }
    }
}

/// Barnes' phases.  Items are the processor's own bodies, except in
/// `Build`, where an item inserts every eighth of them.
#[derive(Clone, Copy)]
enum BarnesPhase {
    Init,
    Build { step: u64 },
    Force { step: u64 },
    Update { step: u64 },
}

/// Bodies per tree-build insertion.
const BUILD_STRIDE: usize = 8;

struct BarnesGen {
    params: BarnesParams,
    topology: Topology,
    bodies: Segment,
    cells: Segment,
    rngs: ProcRngs,
}

impl BarnesGen {
    fn new(cfg: &WorkloadConfig) -> Self {
        let params = BarnesParams::for_scale(cfg.scale);
        let mut space = AddressSpace::new();
        // One body per cache line (positions, velocities, mass).
        let bodies = space.alloc("bodies", params.bodies, 64);
        // Tree cells are two cache lines (children pointers + multipole).
        let cells = space.alloc("cells", params.cells, 128);
        BarnesGen {
            params,
            topology: cfg.topology,
            bodies,
            cells,
            rngs: ProcRngs::new(SmallRng::seed_from_u64(cfg.seed ^ 0xba53)),
        }
    }

    fn owned(params: &BarnesParams, topology: Topology, p: usize) -> std::ops::Range<usize> {
        owned_range(params.bodies as usize, topology, ProcId(p as u16))
    }

    fn items(params: &BarnesParams, topology: Topology, phase: BarnesPhase, p: usize) -> usize {
        let bodies = Self::owned(params, topology, p).len();
        match phase {
            BarnesPhase::Build { .. } => bodies.div_ceil(BUILD_STRIDE),
            _ => bodies,
        }
    }
}

impl Phased for BarnesGen {
    type Phase = BarnesPhase;

    fn next_phase(&self, phase: BarnesPhase) -> Option<BarnesPhase> {
        Some(match phase {
            BarnesPhase::Init => BarnesPhase::Build { step: 0 },
            BarnesPhase::Build { step } => BarnesPhase::Force { step },
            BarnesPhase::Force { step } => BarnesPhase::Update { step },
            BarnesPhase::Update { step } if step + 1 < self.params.timesteps => {
                BarnesPhase::Build { step: step + 1 }
            }
            BarnesPhase::Update { .. } => return None,
        })
    }

    fn slice_len(&self, phase: BarnesPhase, p: usize) -> usize {
        Self::items(&self.params, self.topology, phase, p)
    }

    fn enter(&mut self, phase: BarnesPhase) {
        let params = &self.params;
        // Draws per item: one fanout per tree level, or the random part of
        // a force walk plus the sampled neighbours.
        let per_item = match phase {
            BarnesPhase::Build { .. } => 4,
            BarnesPhase::Force { .. } => {
                params.cells_per_walk.saturating_sub(4) + params.neighbors_per_body
            }
            BarnesPhase::Init | BarnesPhase::Update { .. } => return,
        };
        let topology = self.topology;
        self.rngs.enter(topology.total_procs(), |p, rng| {
            let items = Self::items(params, topology, phase, p) as u64;
            skip_draws(rng, items * per_item);
        });
    }

    fn emit_item(
        &mut self,
        phase: BarnesPhase,
        p: usize,
        item: usize,
        w: &mut StepWriter,
        sink: &mut dyn EventSink,
    ) {
        let params = &self.params;
        let proc = ProcId(p as u16);
        let start = Self::owned(params, self.topology, p).start;
        match phase {
            // Initialization: owners write their own bodies.
            BarnesPhase::Init => w.write(sink, proc, self.bodies.elem((start + item) as u64)),
            // Phase 1: tree build.  Every processor inserts its bodies,
            // writing a root-to-leaf path of cells under a per-subtree lock.
            // The upper cells (small indices) are touched by everyone.
            BarnesPhase::Build { .. } => {
                let i = start + item * BUILD_STRIDE;
                let lock_id = (i as u32 % 8) + 1;
                w.lock(sink, proc, lock_id);
                // Path from the root: geometrically distributed indices.
                let rng = self.rngs.of(p);
                let mut idx = 0u64;
                for depth in 0..4u64 {
                    w.read(sink, proc, self.cells.elem(idx));
                    w.write(sink, proc, self.cells.elem(idx));
                    let fanout = 1 + rng.gen_range(0..4u64);
                    idx = (idx * 4 + fanout + depth) % params.cells;
                }
                w.unlock(sink, proc, lock_id);
            }
            // Phase 2: force computation.  Each body's owner walks the upper
            // tree (read-shared cells) and reads a sample of other bodies,
            // then writes its own body's accelerations.
            BarnesPhase::Force { .. } => {
                let rng = self.rngs.of(p);
                for walk in 0..params.cells_per_walk {
                    // Walks are heavily biased towards the top of the tree,
                    // which is what makes those pages read-shared by all
                    // nodes.
                    let cell = if walk < 4 {
                        walk
                    } else {
                        rng.gen_range(0..params.cells)
                    };
                    w.read(sink, proc, self.cells.elem(cell));
                }
                for _ in 0..params.neighbors_per_body {
                    let other = rng.gen_range(0..params.bodies);
                    w.read(sink, proc, self.bodies.elem(other));
                }
                w.write(sink, proc, self.bodies.elem((start + item) as u64));
            }
            // Phase 3: position update — private to each owner.
            BarnesPhase::Update { .. } => {
                let body = self.bodies.elem((start + item) as u64);
                w.read(sink, proc, body);
                w.write(sink, proc, body);
            }
        }
    }
}

impl Workload for Barnes {
    fn name(&self) -> &'static str {
        "barnes"
    }

    fn description(&self) -> &'static str {
        "Barnes-Hut N-body simulation"
    }

    fn paper_input(&self) -> &'static str {
        "16K particles"
    }

    fn reduced_input(&self) -> &'static str {
        "2K particles"
    }

    fn emit(&self, cfg: &WorkloadConfig, sink: &mut dyn EventSink) {
        crate::run_stepper(self.stepper(cfg), sink);
    }

    fn stepper(&self, cfg: &WorkloadConfig) -> Box<dyn StepGenerator> {
        let w = StepWriter::new(cfg.topology).with_think_cycles(cfg.think_cycles);
        Box::new(PhaseSteps::new(BarnesGen::new(cfg), w, BarnesPhase::Init))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_is_valid_and_read_mostly() {
        let cfg = WorkloadConfig::reduced();
        let trace = Barnes.generate(&cfg);
        assert!(trace.validate().is_ok());
        let stats = trace.stats();
        assert!(stats.reads > 2 * stats.writes);
        assert!(stats.barriers > 3 * BarnesParams::for_scale(Scale::Reduced).timesteps);
    }

    #[test]
    fn tree_cells_are_shared_by_all_nodes() {
        let cfg = WorkloadConfig::reduced();
        let stats = Barnes.generate(&cfg).stats();
        // Bodies + cells are both shared: a large fraction of the footprint
        // is touched by more than one node.
        assert!(stats.node_shared_pages * 3 > stats.footprint_pages);
    }

    #[test]
    fn uses_locks_for_tree_construction() {
        let cfg = WorkloadConfig::reduced();
        let trace = Barnes.generate(&cfg);
        let has_locks = trace.per_proc.iter().any(|events| {
            events
                .iter()
                .any(|e| matches!(e, mem_trace::TraceEvent::Lock(_)))
        });
        assert!(has_locks);
    }

    #[test]
    fn custom_scale_grows_bodies_and_cells() {
        use crate::config::CustomScale;
        let double = BarnesParams::for_scale(Scale::Custom(CustomScale::new(2, 1)));
        assert_eq!(double.bodies, 32 * 1024);
        assert_eq!(double.cells, 16 * 1024);
        assert_eq!(double.timesteps, 4, "timesteps are the paper's");
    }
}
