//! The batch workloads: fixed (workload, system) job lists run serially
//! through the fused supply, as an experiment run would.

use dsm_bench::ExperimentScale;
use dsm_core::{ClusterSimulator, MachineConfig, SimResult, System, SystemConfig};
use mem_trace::{ProcId, Topology, TraceEvent, TraceSource};
use splash_workloads::{by_name, WorkloadConfig};

use crate::gate::{Gate, JobRecord, DEFAULT_SEED};
use crate::metrics::Values;
use crate::stats;

/// How many times set-up is repeated per run; the median is reported.
pub const SETUP_REPEATS: usize = 15;

/// A batch workload: applications × systems on one machine at one scale.
#[derive(Debug, Clone)]
pub struct Batch {
    /// Benchmark workload name.
    pub name: &'static str,
    /// Simulated machine.
    pub machine: MachineConfig,
    /// Problem scale.
    pub scale: ExperimentScale,
    /// Applications, run in this order.
    pub apps: Vec<&'static str>,
    /// Systems timed end to end, run in this order per application.
    pub systems: Vec<SystemConfig>,
}

impl Batch {
    /// `relocate-paper`: raytrace and fmm on the paper machine at paper
    /// scale under CC-NUMA, CC-NUMA+MigRep and R-NUMA — the jobs where page
    /// operations fire in bulk.
    pub fn relocate_paper() -> Self {
        let scale = ExperimentScale::Paper;
        Batch {
            name: "relocate-paper",
            machine: MachineConfig::PAPER,
            scale,
            apps: vec!["raytrace", "fmm"],
            systems: dsm_bench::presets::table4(scale).systems,
        }
    }

    /// `coherence-wide`: radix at paper scale on 128 single-processor
    /// nodes under Perfect-CC-NUMA and CC-NUMA — coherence-bound, no
    /// relocation policy installed.
    pub fn coherence_wide() -> Self {
        Batch {
            name: "coherence-wide",
            machine: MachineConfig::PAPER.with_topology(Topology::new(128, 1)),
            scale: ExperimentScale::Paper,
            apps: vec!["radix"],
            systems: vec![System::perfect_cc_numa().build(), System::cc_numa().build()],
        }
    }

    /// The layer pipeline's stand-in for the served points: fmm at
    /// `reduced` scale on the paper machine under the service catalog's
    /// systems, one of the pairs the serve-sweep requests run.
    pub fn serve_points() -> Self {
        let scale = ExperimentScale::Reduced;
        Batch {
            name: "serve-sweep",
            machine: MachineConfig::PAPER,
            scale,
            apps: vec!["fmm"],
            systems: ["cc-numa", "migrep", "r-numa"]
                .iter()
                .filter_map(|n| sweep_service::catalog::system_by_name(n, scale).ok())
                .collect(),
        }
    }

    /// The batch workload called `name`.
    pub fn by_name(name: &str) -> Option<Self> {
        match name {
            "relocate-paper" => Some(Self::relocate_paper()),
            "coherence-wide" => Some(Self::coherence_wide()),
            _ => None,
        }
    }

    /// Generator configuration for benchmark seed `seed`.
    pub fn config(&self, seed: u64) -> WorkloadConfig {
        WorkloadConfig::at_scale(self.scale.workload_scale())
            .with_topology(self.machine.topology)
            .with_seed(workload_seed(seed))
    }

    /// The systems of the stage ladder: Perfect-CC-NUMA first (no block
    /// cache miss, no policy), then every timed system not already in it.
    pub fn ladder(&self) -> Vec<SystemConfig> {
        let perfect = System::perfect_cc_numa().build();
        let mut out = vec![perfect.clone()];
        out.extend(self.systems.iter().filter(|s| **s != perfect).cloned());
        out
    }
}

/// The generator seed for benchmark seed `seed`: the repository's default
/// workload seed for [`DEFAULT_SEED`] (so recorded fingerprints match the
/// simulator's own runs), a SplitMix64 mix of `seed` otherwise.
pub fn workload_seed(seed: u64) -> u64 {
    if seed == DEFAULT_SEED {
        WorkloadConfig::default().seed
    } else {
        sim_engine::SplitMix64::new(seed).next_u64()
    }
}

/// Job key used by the gate: `workload/app/system`.
pub fn job_key(batch: &str, app: &str, system: &str) -> String {
    format!("{batch}/{app}/{system}")
}

/// Simulate `app` on `system`: build its simulator and fused source and run
/// to completion.
pub fn run_job(
    machine: MachineConfig,
    app: &str,
    system: &SystemConfig,
    cfg: &WorkloadConfig,
) -> Result<SimResult, String> {
    let workload = by_name(app).ok_or_else(|| format!("unknown application `{app}`"))?;
    let sim = ClusterSimulator::new(machine, system.clone());
    let mut source = splash_workloads::fused(workload.as_ref(), cfg);
    sim.try_run_source(&mut source)
        .map_err(|e| format!("{app}/{}: {e:?}", system.name))
}

/// Set-up of one round: every job's generator and simulator built and each
/// processor's first event pulled.  Returns seconds.
fn setup_once(batch: &Batch, cfg: &WorkloadConfig) -> f64 {
    let start = crate::trace::now();
    let mut first = Vec::with_capacity(1);
    for app in &batch.apps {
        let Some(workload) = by_name(app) else {
            continue;
        };
        for system in &batch.systems {
            let sim = ClusterSimulator::new(batch.machine, system.clone());
            let mut source = splash_workloads::fused(workload.as_ref(), cfg);
            for p in 0..cfg.topology.total_procs() {
                // Processor ids fit u16 by Topology's construction.
                source.next_burst(ProcId(p as u16), &mut first, 1);
                first.clear();
            }
            std::hint::black_box((&sim, &source));
        }
    }
    start.elapsed().as_secs_f64()
}

/// Median set-up time over [`SETUP_REPEATS`] repetitions.
pub fn setup_seconds(batch: &Batch, cfg: &WorkloadConfig) -> f64 {
    let samples: Vec<f64> = (0..SETUP_REPEATS).map(|_| setup_once(batch, cfg)).collect();
    stats::median(&samples)
}

/// One timed job of a round.
#[derive(Debug, Clone)]
pub struct TimedJob {
    /// Gate key.
    pub key: String,
    /// Host seconds, construction included.
    pub seconds: f64,
    /// The result.
    pub result: SimResult,
}

/// Run every job of `batch` once, in order, checking each through `gate`.
pub fn round(batch: &Batch, cfg: &WorkloadConfig, gate: &mut Gate) -> Vec<TimedJob> {
    let mut out = Vec::new();
    for app in &batch.apps {
        for system in &batch.systems {
            let key = job_key(batch.name, app, &system.name);
            let start = crate::trace::now();
            let result = run_job(batch.machine, app, system, cfg);
            let seconds = start.elapsed().as_secs_f64();
            match result {
                Ok(result) => {
                    gate.check(&key, JobRecord::of(&result));
                    out.push(TimedJob {
                        key,
                        seconds,
                        result,
                    });
                }
                Err(e) => gate.fail(e),
            }
        }
    }
    out
}

/// The untraced run: set-up, then whole rounds until `seconds` have passed
/// (at least two).  Fills the end-to-end metrics except memory.
pub fn run_untraced(batch: &Batch, seed: u64, seconds: f64, gate: &mut Gate, values: &mut Values) {
    let cfg = batch.config(seed);
    values.set("setup_s", setup_seconds(batch, &cfg));

    let start = crate::trace::now();
    let mut rounds: Vec<Vec<TimedJob>> = Vec::new();
    while rounds.len() < 2 || start.elapsed().as_secs_f64() < seconds {
        rounds.push(round(batch, &cfg, gate));
    }

    // Per-job medians over rounds, so one disturbed job moves only itself.
    let jobs = rounds[0].len();
    let mut accesses = 0u64;
    let mut median_seconds = 0.0;
    for j in 0..jobs {
        let samples: Vec<f64> = rounds
            .iter()
            .filter_map(|r| r.get(j).map(|t| t.seconds))
            .collect();
        let median = stats::median(&samples);
        println!(
            "job {} median {median:.4} s of {} samples",
            rounds[0][j].key,
            samples.len()
        );
        accesses += rounds[0][j].result.accesses;
        median_seconds += median;
    }
    let round_ms: Vec<f64> = rounds
        .iter()
        .map(|r| r.iter().map(|t| t.seconds).sum::<f64>() * 1e3)
        .collect();
    let p90 = stats::tail(&round_ms, 90);
    println!(
        "rounds {} jobs/round {} accesses/round {} p90 reported as p{} of {} samples",
        rounds.len(),
        jobs,
        accesses,
        p90.percentile,
        p90.samples
    );
    if median_seconds > 0.0 {
        values.set("events_per_s", accesses as f64 / median_seconds);
    }
    values.set("request_p50_ms", stats::median(&round_ms));
    values.set("request_p90_ms", p90.value);
}

/// Pull `source` to exhaustion, processor by processor in bursts, without
/// simulating.  `sink` sees every event with its processor.  Returns the
/// number of events pulled, or the source's error.
pub fn drain(
    source: &mut dyn TraceSource,
    procs: usize,
    mut sink: impl FnMut(u16, &TraceEvent),
) -> Result<u64, String> {
    const BURST: usize = 128;
    let mut buf = Vec::with_capacity(BURST);
    let mut events = 0u64;
    loop {
        let mut progressed = false;
        for p in 0..procs {
            // Processor ids fit u16 by Topology's construction.
            let proc = p as u16;
            let n = source.next_burst(ProcId(proc), &mut buf, BURST);
            if n > 0 {
                progressed = true;
                events += n as u64;
                for ev in &buf {
                    sink(proc, ev);
                }
                buf.clear();
            }
        }
        if !progressed {
            break;
        }
    }
    match source.take_error() {
        Some(e) => Err(format!("{}: {e:?}", source.name())),
        None => Ok(events),
    }
}
