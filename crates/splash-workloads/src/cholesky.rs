//! `cholesky` — blocked sparse Cholesky factorization (SPLASH-2 Cholesky,
//! tk16.O input).
//!
//! Supernodes (groups of adjacent columns with identical sparsity) are
//! processed from a shared task queue.  Completing a supernode updates a set
//! of later columns determined by the sparsity pattern.  Two properties the
//! paper's analysis depends on:
//!
//! * the matrix is initialised by processor 0 and the dynamic task queue
//!   destroys any stable page-to-processor affinity, so page operations of
//!   any kind (migration, replication, relocation) rarely pay off — the
//!   *kernel has little reuse of the pages it touches*;
//! * R-NUMA still relocates aggressively (the refetch counters fire on the
//!   streaming updates), and every relocation's flush-and-refetch shows up
//!   as extra misses — which is why cholesky is one of the two applications
//!   where R-NUMA's relocation overhead lands on the critical path.

use crate::config::{Scale, WorkloadConfig};
use crate::util::{skip_draws, PhaseSteps, Phased};
use crate::Workload;
use mem_trace::{AddressSpace, EventSink, ProcId, Segment, StepGenerator, StepWriter};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Blocked sparse Cholesky factorization.
pub struct Cholesky;

struct CholeskyParams {
    /// Number of supernodes in the (synthetic) elimination tree.
    supernodes: u64,
    /// Cache lines per supernode panel.
    lines_per_supernode: u64,
    /// Columns updated per completed supernode.
    updates_per_supernode: u64,
    /// Cache lines touched per column update.
    lines_per_update: u64,
}

impl CholeskyParams {
    fn for_scale(scale: Scale) -> Self {
        match scale {
            Scale::Reduced => CholeskyParams {
                supernodes: 384,
                lines_per_supernode: 48,
                updates_per_supernode: 6,
                lines_per_update: 16,
            },
            Scale::Paper => CholeskyParams {
                supernodes: 2048,
                lines_per_supernode: 64,
                updates_per_supernode: 8,
                lines_per_update: 24,
            },
            // The elimination tree carries the factor; per-supernode
            // structure is the paper's.
            Scale::Custom(c) => CholeskyParams {
                supernodes: c.of(2048).max(64),
                lines_per_supernode: 64,
                updates_per_supernode: 8,
                lines_per_update: 24,
            },
        }
    }
}

/// Cholesky's phases; every item is one supernode.
#[derive(Clone, Copy)]
enum CholeskyPhase {
    /// Processor 0 loads every panel.
    Load,
    /// Processor `p` factors supernodes `p`, `p + procs`, … (the
    /// round-robin deal of the task queue).
    Factor,
}

struct CholeskyGen {
    params: CholeskyParams,
    procs: u64,
    panels: Segment,
    queue: Segment,
    /// The shared RNG, consumed task by task in supernode order.
    rng: SmallRng,
    /// Each task's RNG start, snapshotted on entering `Factor`: tasks of
    /// different processors interleave in the draw order, so one start per
    /// processor is not enough.
    task_rngs: Vec<SmallRng>,
}

impl CholeskyGen {
    fn new(cfg: &WorkloadConfig) -> Self {
        let params = CholeskyParams::for_scale(cfg.scale);
        let mut space = AddressSpace::new();
        let panels = space.alloc("panels", params.supernodes * params.lines_per_supernode, 64);
        let queue = space.alloc("task_queue", 64, 64);
        CholeskyGen {
            params,
            procs: cfg.topology.total_procs() as u64,
            panels,
            queue,
            rng: SmallRng::seed_from_u64(cfg.seed ^ 0xc401),
            task_rngs: Vec::new(),
        }
    }

    fn panel_line(&self, sn: u64, line: u64) -> mem_trace::GlobalAddr {
        self.panels
            .elem(sn * self.params.lines_per_supernode + line)
    }
}

impl Phased for CholeskyGen {
    type Phase = CholeskyPhase;

    fn next_phase(&self, phase: CholeskyPhase) -> Option<CholeskyPhase> {
        match phase {
            CholeskyPhase::Load => Some(CholeskyPhase::Factor),
            CholeskyPhase::Factor => None,
        }
    }

    fn slice_len(&self, phase: CholeskyPhase, p: usize) -> usize {
        let supernodes = self.params.supernodes;
        match phase {
            CholeskyPhase::Load if p == 0 => supernodes as usize,
            CholeskyPhase::Load => 0,
            CholeskyPhase::Factor => {
                supernodes.saturating_sub(p as u64).div_ceil(self.procs) as usize
            }
        }
    }

    fn enter(&mut self, phase: CholeskyPhase) {
        if let CholeskyPhase::Factor = phase {
            let supernodes = self.params.supernodes;
            let per_task = self.params.updates_per_supernode * (1 + self.params.lines_per_update);
            for sn in 0..supernodes {
                self.task_rngs.push(self.rng.clone());
                // The last supernode has no later columns to update.
                if sn + 1 < supernodes {
                    skip_draws(&mut self.rng, per_task);
                }
            }
        }
    }

    fn emit_item(
        &mut self,
        phase: CholeskyPhase,
        p: usize,
        item: usize,
        w: &mut StepWriter,
        sink: &mut dyn EventSink,
    ) {
        let params = &self.params;
        match phase {
            // Processor 0 loads the sparse matrix: every panel page is
            // homed on node 0 by first-touch.
            CholeskyPhase::Load => {
                for line in 0..params.lines_per_supernode {
                    w.write(sink, ProcId(0), self.panel_line(item as u64, line));
                }
            }
            // Task-queue driven factorization.  Tasks are dealt round-robin
            // to emulate self-scheduling; each dequeue goes through the
            // queue lock.
            CholeskyPhase::Factor => {
                let supernodes = params.supernodes;
                let sn = p as u64 + item as u64 * self.procs;
                let p = ProcId(p as u16);
                // Dequeue.
                w.lock(sink, p, 0);
                let q0 = self.queue.elem(0);
                w.read(sink, p, q0);
                w.write(sink, p, q0);
                w.unlock(sink, p, 0);

                // Factor the supernode panel: read-modify-write every line
                // once (streaming, no reuse).
                for line in 0..params.lines_per_supernode {
                    let addr = self.panel_line(sn, line);
                    w.read(sink, p, addr);
                    w.write(sink, p, addr);
                }

                // Update later columns selected by the (synthetic) sparsity
                // pattern: reads of this panel, scattered writes into later
                // panels.
                let mut rng = self.task_rngs[sn as usize].clone();
                for _ in 0..params.updates_per_supernode {
                    if sn + 1 >= supernodes {
                        break;
                    }
                    let target = sn + 1 + rng.gen_range(0..(supernodes - sn - 1)).min(64);
                    for line in 0..params.lines_per_update {
                        let src = rng.gen_range(0..params.lines_per_supernode);
                        let src_addr = self.panel_line(sn, src);
                        let tgt_addr = self.panel_line(target, line);
                        w.read(sink, p, src_addr);
                        w.read(sink, p, tgt_addr);
                        w.write(sink, p, tgt_addr);
                    }
                }
            }
        }
    }
}

impl Workload for Cholesky {
    fn name(&self) -> &'static str {
        "cholesky"
    }

    fn description(&self) -> &'static str {
        "Blocked sparse Cholesky factorization"
    }

    fn paper_input(&self) -> &'static str {
        "tk16.O"
    }

    fn reduced_input(&self) -> &'static str {
        "synthetic tk16-like matrix, 384 supernodes"
    }

    fn emit(&self, cfg: &WorkloadConfig, sink: &mut dyn EventSink) {
        crate::run_stepper(self.stepper(cfg), sink);
    }

    fn stepper(&self, cfg: &WorkloadConfig) -> Box<dyn StepGenerator> {
        let w = StepWriter::new(cfg.topology).with_think_cycles(cfg.think_cycles);
        Box::new(PhaseSteps::new(
            CholeskyGen::new(cfg),
            w,
            CholeskyPhase::Load,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_is_valid_with_task_queue_locking() {
        let cfg = WorkloadConfig::reduced();
        let trace = Cholesky.generate(&cfg);
        assert!(trace.validate().is_ok());
        let locks = trace
            .per_proc
            .iter()
            .flat_map(|e| e.iter())
            .filter(|e| matches!(e, mem_trace::TraceEvent::Lock(_)))
            .count() as u64;
        assert_eq!(locks, CholeskyParams::for_scale(Scale::Reduced).supernodes);
    }

    #[test]
    fn panels_are_shared_because_of_dynamic_scheduling() {
        let stats = Cholesky.generate(&WorkloadConfig::reduced()).stats();
        assert!(stats.node_shared_pages * 2 > stats.footprint_pages);
    }

    #[test]
    fn writes_are_substantial() {
        let stats = Cholesky.generate(&WorkloadConfig::reduced()).stats();
        assert!(stats.write_fraction() > 0.3);
    }

    #[test]
    fn custom_scale_grows_the_elimination_tree() {
        use crate::config::CustomScale;
        let double = CholeskyParams::for_scale(Scale::Custom(CustomScale::new(2, 1)));
        assert_eq!(double.supernodes, 4096);
        assert_eq!(double.lines_per_supernode, 64, "panel shape is the paper's");
    }
}
