//! `lu` — blocked dense LU factorization (SPLASH-2 LU, non-contiguous
//! blocks).
//!
//! The matrix is factored in `B x B` blocks.  At elimination step `k` the
//! owner of the diagonal block factors it, the owners of the perimeter
//! blocks (block row and block column `k`) update them against the diagonal
//! block, and every interior block `(i, j)` with `i, j > k` is updated by
//! its owner against the perimeter blocks `(i, k)` and `(k, j)`.
//!
//! The sharing property the paper's analysis relies on: at every step the
//! perimeter blocks are *read by many nodes* (every interior-block owner in
//! the same block row/column) while being written only by their single
//! owner during the preceding phase — separated by barriers.  This is the
//! per-iteration "read phase" that makes `lu` the one application in the
//! study that benefits substantially from page replication.  Interior
//! blocks, in contrast, are read-write private to their owner, so their
//! capacity misses are only removed by R-NUMA's page cache.
//!
//! Blocks are assigned to processors in a 2-D scatter, as in SPLASH-2.

use crate::config::{Scale, WorkloadConfig};
use crate::util::{PhaseSteps, Phased};
use crate::Workload;
use mem_trace::{AddressSpace, EventSink, ProcId, Segment, StepGenerator, StepWriter, BLOCK_SIZE};

/// Blocked dense LU factorization.
pub struct Lu;

/// Elements (doubles) per cache line.
const DOUBLES_PER_LINE: u64 = BLOCK_SIZE / 8;

struct LuParams {
    /// Matrix dimension (elements).
    n: u64,
    /// Block dimension (elements).
    block: u64,
}

impl LuParams {
    fn for_scale(scale: Scale) -> Self {
        match scale {
            Scale::Reduced => LuParams { n: 192, block: 16 },
            Scale::Paper => LuParams { n: 512, block: 16 },
            // The matrix *area* carries the factor; the dimension is
            // rounded down to whole 16x16 blocks (at least two per side so
            // every phase exists).
            Scale::Custom(c) => LuParams {
                n: (c.dim(512) / 16 * 16).max(32),
                block: 16,
            },
        }
    }

    fn blocks_per_dim(&self) -> u64 {
        self.n / self.block
    }
}

/// LU's phases.  Each phase is a sequence of block operations (see
/// [`LuGen::target`]); a processor's slice is the operations on blocks it
/// owns, in sequence order.
#[derive(Clone, Copy)]
enum LuPhase {
    /// Every owner touches (writes) its own blocks so the first-touch
    /// policy places pages at their owners.
    Init,
    /// Factor the diagonal block.
    Diag { k: u64 },
    /// Perimeter blocks read the diagonal block and update themselves.
    Perim { k: u64 },
    /// Interior blocks read the two perimeter blocks — the read-shared
    /// phase — and update themselves.
    Interior { k: u64 },
}

struct LuGen {
    params: LuParams,
    nb: u64,
    total_procs: u64,
    matrix: Segment,
    /// Per processor: the next operation of the current phase to scan for
    /// one on a block it owns.
    next_op: Vec<u64>,
}

impl LuGen {
    fn new(cfg: &WorkloadConfig) -> Self {
        let params = LuParams::for_scale(cfg.scale);
        let nb = params.blocks_per_dim();
        let mut space = AddressSpace::new();
        let matrix = space.alloc("matrix", params.n * params.n, 8);
        LuGen {
            params,
            nb,
            total_procs: cfg.topology.total_procs() as u64,
            matrix,
            next_op: vec![0; cfg.topology.total_procs()],
        }
    }

    /// 2-D scatter assignment of blocks to processors (SPLASH-2 LU).
    fn owner(&self, (bi, bj): (u64, u64)) -> usize {
        ((bi * self.nb + bj) % self.total_procs) as usize
    }

    /// Operations in `phase`.
    fn ops(&self, phase: LuPhase) -> u64 {
        let rest = |k: u64| self.nb - k - 1;
        match phase {
            LuPhase::Init => self.nb * self.nb,
            LuPhase::Diag { .. } => 1,
            LuPhase::Perim { k } => 2 * rest(k),
            LuPhase::Interior { k } => rest(k) * rest(k),
        }
    }

    /// The block operation `o` of `phase` read-modify-writes; its owner
    /// performs the operation.
    fn target(&self, phase: LuPhase, o: u64) -> (u64, u64) {
        match phase {
            LuPhase::Init => (o / self.nb, o % self.nb),
            LuPhase::Diag { k } => (k, k),
            // Block column and block row `k`, interleaved: (i, k), (k, i).
            LuPhase::Perim { k } => {
                let i = k + 1 + o / 2;
                if o.is_multiple_of(2) {
                    (i, k)
                } else {
                    (k, i)
                }
            }
            LuPhase::Interior { k } => {
                let rest = self.nb - k - 1;
                (k + 1 + o / rest, k + 1 + o % rest)
            }
        }
    }

    /// Visit the first address of every cache line of block `(bi, bj)` of
    /// the row-major `n x n` matrix.
    fn for_each_line(&self, (bi, bj): (u64, u64), mut f: impl FnMut(mem_trace::GlobalAddr)) {
        let row0 = bi * self.params.block;
        let col0 = bj * self.params.block;
        for r in 0..self.params.block {
            let mut c = 0;
            while c < self.params.block {
                f(self.matrix.elem2(row0 + r, col0 + c, self.params.n));
                c += DOUBLES_PER_LINE;
            }
        }
    }
}

impl Phased for LuGen {
    type Phase = LuPhase;

    fn next_phase(&self, phase: LuPhase) -> Option<LuPhase> {
        match phase {
            LuPhase::Init => Some(LuPhase::Diag { k: 0 }),
            LuPhase::Diag { k } => Some(LuPhase::Perim { k }),
            LuPhase::Perim { k } => Some(LuPhase::Interior { k }),
            LuPhase::Interior { k } => (k + 1 < self.nb).then_some(LuPhase::Diag { k: k + 1 }),
        }
    }

    fn slice_len(&self, phase: LuPhase, p: usize) -> usize {
        (0..self.ops(phase))
            .filter(|&o| self.owner(self.target(phase, o)) == p)
            .count()
    }

    fn enter(&mut self, _phase: LuPhase) {
        self.next_op.fill(0);
    }

    fn emit_item(
        &mut self,
        phase: LuPhase,
        p: usize,
        _item: usize,
        w: &mut StepWriter,
        sink: &mut dyn EventSink,
    ) {
        let mut o = self.next_op[p];
        while self.owner(self.target(phase, o)) != p {
            o += 1;
        }
        self.next_op[p] = o + 1;
        let (bi, bj) = self.target(phase, o);
        let proc = ProcId(p as u16);
        let mut read = |block| self.for_each_line(block, |addr| w.read(sink, proc, addr));
        match phase {
            LuPhase::Init | LuPhase::Diag { .. } => {}
            LuPhase::Perim { k } => read((k, k)),
            LuPhase::Interior { k } => {
                read((bi, k));
                read((k, bj));
            }
        }
        self.for_each_line((bi, bj), |addr| {
            w.read(sink, proc, addr);
            w.write(sink, proc, addr);
        });
    }
}

impl Workload for Lu {
    fn name(&self) -> &'static str {
        "lu"
    }

    fn description(&self) -> &'static str {
        "Blocked dense LU factorization"
    }

    fn paper_input(&self) -> &'static str {
        "512x512 matrix, 16x16 blocks"
    }

    fn reduced_input(&self) -> &'static str {
        "192x192 matrix, 16x16 blocks"
    }

    fn emit(&self, cfg: &WorkloadConfig, sink: &mut dyn EventSink) {
        crate::run_stepper(self.stepper(cfg), sink);
    }

    fn stepper(&self, cfg: &WorkloadConfig) -> Box<dyn StepGenerator> {
        let w = StepWriter::new(cfg.topology).with_think_cycles(cfg.think_cycles);
        Box::new(PhaseSteps::new(LuGen::new(cfg), w, LuPhase::Init))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mem_trace::Topology;

    #[test]
    fn reduced_trace_is_valid_and_has_a_read_phase() {
        let cfg = WorkloadConfig::reduced();
        let trace = Lu.generate(&cfg);
        assert!(trace.validate().is_ok());
        let stats = trace.stats();
        // Reads dominate: the interior update reads two blocks for every
        // block it writes.
        assert!(stats.reads > stats.writes);
        // Barriers separate every phase of every elimination step.
        assert!(stats.barriers >= 3 * LuParams::for_scale(Scale::Reduced).blocks_per_dim());
        // The matrix is shared across nodes.
        assert!(stats.node_shared_pages > 4);
    }

    #[test]
    fn paper_scale_is_larger() {
        let small = Lu.generate(&WorkloadConfig::reduced().with_topology(Topology::new(2, 2)));
        // Only compare footprints (generating the full paper-size trace is
        // slow); the paper matrix is several times larger.
        let params_small = LuParams::for_scale(Scale::Reduced);
        let params_big = LuParams::for_scale(Scale::Paper);
        assert!(params_big.n * params_big.n >= 4 * params_small.n * params_small.n);
        assert!(small.stats().footprint_pages >= params_small.n * params_small.n * 8 / 4096);
    }

    #[test]
    fn blocks_are_scattered_across_processors() {
        let cfg = WorkloadConfig::reduced();
        let trace = Lu.generate(&cfg);
        // Every processor must issue some accesses.
        for (i, events) in trace.per_proc.iter().enumerate() {
            let accesses = events.iter().filter(|e| e.is_access()).count();
            assert!(accesses > 0, "processor {i} issues no accesses");
        }
    }

    #[test]
    fn custom_scale_grows_the_matrix_in_whole_blocks() {
        use crate::config::CustomScale;
        let quad = LuParams::for_scale(Scale::Custom(CustomScale::new(4, 1)));
        assert_eq!(quad.n, 1024, "4x area = 2x side, already block-aligned");
        assert_eq!(quad.block, 16);
        let odd = LuParams::for_scale(Scale::Custom(CustomScale::new(1, 3)));
        assert_eq!(odd.n % 16, 0, "rounded to whole blocks");
        assert!(odd.n >= 32);
    }
}
