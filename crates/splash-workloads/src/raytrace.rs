//! `raytrace` — 3-D scene rendering by ray tracing (SPLASH-2 Raytrace, car
//! scene).
//!
//! The scene database (geometry plus the hierarchical uniform grid used to
//! accelerate intersection tests) is built once and then *read* by every
//! processor while tracing rays; rays are distributed through a work queue.
//! The upper levels of the acceleration structure are touched by every ray
//! and are therefore natural replication candidates, while the bulk of the
//! scene is sampled irregularly so the processor caches thrash — R-NUMA
//! relocates those pages in large numbers (1059 per node in Table 4), but,
//! as the paper notes, the remaining misses are largely off the critical
//! path because rays are independent and plentiful.

use crate::config::{Scale, WorkloadConfig};
use crate::util::{owned_range, skip_draws, PhaseSteps, Phased, ProcRngs};
use crate::Workload;
use mem_trace::{AddressSpace, EventSink, ProcId, Segment, StepGenerator, StepWriter, Topology};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Ray-traced rendering of a 3-D scene.
pub struct Raytrace;

struct RaytraceParams {
    /// Cache lines of scene data (geometry + grid).
    scene_lines: u64,
    /// Cache lines of "hot" acceleration-structure data (top grid levels).
    hot_lines: u64,
    /// Rays traced in total.
    rays: u64,
    /// Scene lines read per ray.
    reads_per_ray: u64,
}

impl RaytraceParams {
    fn for_scale(scale: Scale) -> Self {
        match scale {
            Scale::Reduced => RaytraceParams {
                scene_lines: 12 * 1024, // 768 KB of scene data
                hot_lines: 256,
                rays: 24 * 1024,
                reads_per_ray: 20,
            },
            Scale::Paper => RaytraceParams {
                scene_lines: 64 * 1024, // 4 MB ("car")
                hot_lines: 512,
                rays: 64 * 1024,
                reads_per_ray: 28,
            },
            // Scene and ray counts carry the factor; the hot top levels of
            // the acceleration structure stay the paper's size (clamped
            // into the scene at slivers), as a deeper grid would not grow
            // its root.
            Scale::Custom(c) => {
                let scene_lines = c.of(64 * 1024).max(1024);
                RaytraceParams {
                    scene_lines,
                    hot_lines: 512.min(scene_lines / 4).max(1),
                    rays: c.of(64 * 1024).max(1024),
                    reads_per_ray: 28,
                }
            }
        }
    }
}

#[derive(Clone, Copy)]
enum RaytracePhase {
    /// Processor 0 builds the scene database (one item per scene line).
    Scene,
    /// Every processor traces its share of the rays (one item per ray).
    Trace,
}

struct RaytraceGen {
    params: RaytraceParams,
    topology: Topology,
    scene: Segment,
    framebuffer: Segment,
    queue: Segment,
    rngs: ProcRngs,
}

impl RaytraceGen {
    fn new(cfg: &WorkloadConfig) -> Self {
        let params = RaytraceParams::for_scale(cfg.scale);
        let mut space = AddressSpace::new();
        let scene = space.alloc("scene", params.scene_lines, 64);
        let framebuffer = space.alloc("framebuffer", params.rays, 4);
        let queue = space.alloc("ray_queue", 16, 64);
        RaytraceGen {
            params,
            topology: cfg.topology,
            scene,
            framebuffer,
            queue,
            rngs: ProcRngs::new(SmallRng::seed_from_u64(cfg.seed ^ 0x4a11)),
        }
    }

    fn rays(&self, p: usize) -> std::ops::Range<usize> {
        owned_range(self.params.rays as usize, self.topology, ProcId(p as u16))
    }
}

impl Phased for RaytraceGen {
    type Phase = RaytracePhase;

    fn next_phase(&self, phase: RaytracePhase) -> Option<RaytracePhase> {
        match phase {
            RaytracePhase::Scene => Some(RaytracePhase::Trace),
            RaytracePhase::Trace => None,
        }
    }

    fn slice_len(&self, phase: RaytracePhase, p: usize) -> usize {
        match phase {
            RaytracePhase::Scene if p == 0 => self.params.scene_lines as usize,
            RaytracePhase::Scene => 0,
            RaytracePhase::Trace => self.rays(p).len(),
        }
    }

    fn enter(&mut self, phase: RaytracePhase) {
        if let RaytracePhase::Trace = phase {
            let reads = self.params.reads_per_ray;
            let (rays, topology) = (self.params.rays as usize, self.topology);
            self.rngs.enter(topology.total_procs(), |p, rng| {
                let mine = owned_range(rays, topology, ProcId(p as u16)).len() as u64;
                skip_draws(rng, mine * reads);
            });
        }
    }

    fn emit_item(
        &mut self,
        phase: RaytracePhase,
        p: usize,
        item: usize,
        w: &mut StepWriter,
        sink: &mut dyn EventSink,
    ) {
        match phase {
            // Processor 0 builds the scene database; its pages are homed on
            // node 0 and never written again.
            RaytracePhase::Scene => w.write(sink, ProcId(0), self.scene.elem(item as u64)),
            // Each processor traces an equal share of rays, dequeuing
            // bundles of rays from the shared work queue.
            RaytracePhase::Trace => {
                let rays_per_bundle = 32u64;
                let proc = ProcId(p as u16);
                let ray = self.rays(p).start + item;
                if (item as u64).is_multiple_of(rays_per_bundle) {
                    w.lock(sink, proc, 0);
                    let q0 = self.queue.elem(0);
                    w.read(sink, proc, q0);
                    w.write(sink, proc, q0);
                    w.unlock(sink, proc, 0);
                }
                // Walk the acceleration structure: the first few reads hit
                // the hot top levels, the rest sample the scene irregularly.
                let rng = self.rngs.of(p);
                for step in 0..self.params.reads_per_ray {
                    let line = if step < 6 {
                        rng.gen_range(0..self.params.hot_lines)
                    } else {
                        rng.gen_range(0..self.params.scene_lines)
                    };
                    w.read(sink, proc, self.scene.elem(line));
                }
                // Write the pixel (private to this processor's band).
                w.write(sink, proc, self.framebuffer.elem(ray as u64));
            }
        }
    }
}

impl Workload for Raytrace {
    fn name(&self) -> &'static str {
        "raytrace"
    }

    fn description(&self) -> &'static str {
        "3-D scene rendering using ray-tracing"
    }

    fn paper_input(&self) -> &'static str {
        "car"
    }

    fn reduced_input(&self) -> &'static str {
        "car (reduced: 768 KB scene, 24K rays)"
    }

    fn emit(&self, cfg: &WorkloadConfig, sink: &mut dyn EventSink) {
        crate::run_stepper(self.stepper(cfg), sink);
    }

    fn stepper(&self, cfg: &WorkloadConfig) -> Box<dyn StepGenerator> {
        let w = StepWriter::new(cfg.topology).with_think_cycles(cfg.think_cycles);
        Box::new(PhaseSteps::new(
            RaytraceGen::new(cfg),
            w,
            RaytracePhase::Scene,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_is_valid_and_overwhelmingly_read_only() {
        let cfg = WorkloadConfig::reduced();
        let trace = Raytrace.generate(&cfg);
        assert!(trace.validate().is_ok());
        let stats = trace.stats();
        assert!(
            stats.write_fraction() < 0.2,
            "write fraction {}",
            stats.write_fraction()
        );
    }

    #[test]
    fn scene_pages_are_read_by_every_node() {
        let stats = Raytrace.generate(&WorkloadConfig::reduced()).stats();
        // The scene dominates the footprint and is shared.
        assert!(stats.node_shared_pages * 2 > stats.footprint_pages);
    }

    #[test]
    fn scene_written_only_during_setup() {
        let cfg = WorkloadConfig::reduced();
        let trace = Raytrace.generate(&cfg);
        // After the first barrier no processor writes scene pages (pages of
        // the first allocated segment).
        let params = RaytraceParams::for_scale(Scale::Reduced);
        let scene_pages = params.scene_lines * 64 / mem_trace::PAGE_SIZE;
        for events in &trace.per_proc {
            let mut past_barrier = false;
            for e in events {
                match e {
                    mem_trace::TraceEvent::Barrier(0) => past_barrier = true,
                    mem_trace::TraceEvent::Access(m) if past_barrier && m.kind.is_write() => {
                        assert!(
                            m.page().0 >= scene_pages,
                            "scene page {:?} written after setup",
                            m.page()
                        );
                    }
                    _ => {}
                }
            }
        }
    }

    #[test]
    fn custom_scale_grows_scene_and_rays() {
        use crate::config::CustomScale;
        let double = RaytraceParams::for_scale(Scale::Custom(CustomScale::new(2, 1)));
        assert_eq!(double.scene_lines, 128 * 1024);
        assert_eq!(double.rays, 128 * 1024);
        assert_eq!(double.hot_lines, 512, "grid root stays the paper's size");
        let sliver = RaytraceParams::for_scale(Scale::Custom(CustomScale::new(1, 32)));
        assert!(sliver.hot_lines <= sliver.scene_lines);
    }
}
