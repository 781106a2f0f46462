//! `radix` — parallel integer radix sort (SPLASH-2 Radix).
//!
//! Each pass over one digit has three phases: every processor builds a local
//! histogram of its own contiguous chunk of keys, the histograms are
//! combined into global rank offsets, and finally every key is *permuted*
//! into a destination array at a position computed from the global ranks.
//! The permutation writes are scattered over the whole destination array, so
//! every node writes pages homed on every other node with no single dominant
//! user — the paper finds essentially no opportunity for migration or
//! replication (1 migration, 0 replications per node) while R-NUMA relocates
//! aggressively (1714 relocations per node) and is ultimately limited by the
//! page cache capacity because the streaming working set of source plus
//! destination keys exceeds it.

use crate::config::{Scale, WorkloadConfig};
use crate::util::{owned_range, skip_draws, PhaseSteps, Phased, ProcRngs};
use crate::Workload;
use mem_trace::{AddressSpace, EventSink, ProcId, Segment, StepGenerator, StepWriter, Topology};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Parallel integer radix sort.
pub struct Radix;

struct RadixParams {
    /// Number of keys.
    keys: u64,
    /// Sorting passes (digits) simulated.
    passes: u64,
    /// Radix (buckets per digit).
    radix: u64,
}

impl RadixParams {
    fn for_scale(scale: Scale) -> Self {
        match scale {
            Scale::Reduced => RadixParams {
                keys: 128 * 1024,
                passes: 2,
                radix: 1024,
            },
            Scale::Paper => RadixParams {
                keys: 1024 * 1024,
                passes: 2,
                radix: 1024,
            },
            // The key array carries the factor; the digit structure is
            // Table 2's.
            Scale::Custom(c) => RadixParams {
                keys: c.of(1024 * 1024),
                passes: 2,
                radix: 1024,
            },
        }
    }
}

/// Keys per cache line (4-byte integers).
const KEYS_PER_LINE: u64 = 16;

/// The radix phase structure.  Items are cache lines of the processor's
/// own key chunk, except in `Rank`, where item `other` reads processor
/// `other`'s histogram.
#[derive(Clone, Copy)]
enum RadixPhase {
    Init,
    Hist { pass: u64 },
    Rank { pass: u64 },
    Perm { pass: u64 },
}

struct RadixGen {
    params: RadixParams,
    topology: Topology,
    src: Segment,
    dst: Segment,
    histograms: Segment,
    rngs: ProcRngs,
}

impl RadixGen {
    fn new(cfg: &WorkloadConfig) -> Self {
        let params = RadixParams::for_scale(cfg.scale);
        let procs = cfg.topology.total_procs();

        let mut space = AddressSpace::new();
        let src = space.alloc("keys_src", params.keys, 4);
        let dst = space.alloc("keys_dst", params.keys, 4);
        let histograms = space.alloc("histograms", params.radix * procs as u64, 4);

        RadixGen {
            params,
            topology: cfg.topology,
            src,
            dst,
            histograms,
            rngs: ProcRngs::new(SmallRng::seed_from_u64(cfg.seed ^ 0x5ad1)),
        }
    }

    /// Cache lines of keys `p` owns: its items in the keyed phases.
    fn lines(keys: u64, topology: Topology, p: usize) -> usize {
        owned_range(keys as usize, topology, ProcId(p as u16))
            .len()
            .div_ceil(KEYS_PER_LINE as usize)
    }

    /// The first key of item `item` of `p`'s chunk.
    fn key(&self, p: usize, item: usize) -> u64 {
        let range = owned_range(self.params.keys as usize, self.topology, ProcId(p as u16));
        range.start as u64 + item as u64 * KEYS_PER_LINE
    }
}

impl Phased for RadixGen {
    type Phase = RadixPhase;

    fn next_phase(&self, phase: RadixPhase) -> Option<RadixPhase> {
        Some(match phase {
            RadixPhase::Init => RadixPhase::Hist { pass: 0 },
            RadixPhase::Hist { pass } => RadixPhase::Rank { pass },
            RadixPhase::Rank { pass } => RadixPhase::Perm { pass },
            RadixPhase::Perm { pass } if pass + 1 < self.params.passes => {
                RadixPhase::Hist { pass: pass + 1 }
            }
            RadixPhase::Perm { .. } => return None,
        })
    }

    fn slice_len(&self, phase: RadixPhase, p: usize) -> usize {
        match phase {
            RadixPhase::Rank { .. } => self.topology.total_procs(),
            _ => Self::lines(self.params.keys, self.topology, p),
        }
    }

    fn enter(&mut self, phase: RadixPhase) {
        // Draws per cache line: one histogram bin, or four destinations.
        let per_line = match phase {
            RadixPhase::Hist { .. } => 1,
            RadixPhase::Perm { .. } => 4,
            RadixPhase::Init | RadixPhase::Rank { .. } => return,
        };
        let (keys, topology) = (self.params.keys, self.topology);
        self.rngs.enter(topology.total_procs(), |p, rng| {
            skip_draws(rng, Self::lines(keys, topology, p) as u64 * per_line);
        });
    }

    fn emit_item(
        &mut self,
        phase: RadixPhase,
        p: usize,
        item: usize,
        w: &mut StepWriter,
        sink: &mut dyn EventSink,
    ) {
        let params = &self.params;
        let proc = ProcId(p as u16);
        match phase {
            // Initialization: each processor writes its own chunk of the
            // source array (first-touch places it locally).
            RadixPhase::Init => w.write(sink, proc, self.src.elem(self.key(p, item))),
            // Phase 1: local histogram — stream through the owned chunk of
            // the (current) source array and update the processor's own
            // histogram bins.
            RadixPhase::Hist { .. } => {
                w.read(sink, proc, self.src.elem(self.key(p, item)));
                let bin = self.rngs.of(p).gen_range(0..params.radix);
                let hist_base = params.radix * p as u64;
                w.write(sink, proc, self.histograms.elem(hist_base + bin));
            }
            // Phase 2: global rank computation — every processor reads every
            // other processor's histogram (small, read-shared).
            RadixPhase::Rank { .. } => {
                let base = params.radix * item as u64;
                let mut bin = 0u64;
                while bin < params.radix {
                    w.read(sink, proc, self.histograms.elem(base + bin));
                    bin += KEYS_PER_LINE;
                }
            }
            // Phase 3: permutation — read own keys, write them to scattered
            // positions of the destination array (all-to-all traffic).
            RadixPhase::Perm { .. } => {
                w.read(sink, proc, self.src.elem(self.key(p, item)));
                // One permuted write per key in this line; destinations
                // are uniformly scattered, as radix-sort ranks are.
                let rng = self.rngs.of(p);
                for _ in 0..4 {
                    let dest = rng.gen_range(0..params.keys);
                    w.write(sink, proc, self.dst.elem(dest));
                }
            }
        }
    }
}

impl Workload for Radix {
    fn name(&self) -> &'static str {
        "radix"
    }

    fn description(&self) -> &'static str {
        "Integer radix sort"
    }

    fn paper_input(&self) -> &'static str {
        "1M integers, radix 1024"
    }

    fn reduced_input(&self) -> &'static str {
        "128K integers, radix 1024"
    }

    fn emit(&self, cfg: &WorkloadConfig, sink: &mut dyn EventSink) {
        crate::run_stepper(self.stepper(cfg), sink);
    }

    fn stepper(&self, cfg: &WorkloadConfig) -> Box<dyn StepGenerator> {
        let w = StepWriter::new(cfg.topology).with_think_cycles(cfg.think_cycles);
        Box::new(PhaseSteps::new(RadixGen::new(cfg), w, RadixPhase::Init))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_is_valid_and_write_heavy() {
        let cfg = WorkloadConfig::reduced();
        let trace = Radix.generate(&cfg);
        assert!(trace.validate().is_ok());
        let stats = trace.stats();
        // The permutation phase makes radix unusually write-heavy.
        assert!(
            stats.write_fraction() > 0.3,
            "write fraction {}",
            stats.write_fraction()
        );
    }

    #[test]
    fn destination_pages_are_shared_by_many_nodes() {
        let cfg = WorkloadConfig::reduced();
        let stats = Radix.generate(&cfg).stats();
        // Scattered permutation writes touch most pages from many nodes.
        assert!(stats.node_shared_pages * 2 > stats.footprint_pages);
    }

    #[test]
    fn footprint_scales_with_key_count() {
        let reduced = RadixParams::for_scale(Scale::Reduced);
        let paper = RadixParams::for_scale(Scale::Paper);
        assert_eq!(paper.keys, 8 * reduced.keys);
        let stats = Radix.generate(&WorkloadConfig::reduced()).stats();
        // Source + destination arrays: 2 * 128K * 4 bytes = 1 MB = 256 pages,
        // plus histograms.
        assert!(stats.footprint_pages >= 256);
    }

    #[test]
    fn custom_scale_grows_the_key_array() {
        use crate::config::CustomScale;
        let double = RadixParams::for_scale(Scale::Custom(CustomScale::new(2, 1)));
        assert_eq!(double.keys, 2 * 1024 * 1024, "past Table 2");
        assert_eq!(double.radix, 1024, "digit structure is Table 2's");
        let sliver = RadixParams::for_scale(Scale::Custom(CustomScale::new(1, 32)));
        assert_eq!(sliver.keys, 32 * 1024);
    }
}
