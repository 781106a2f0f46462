//! The traced run of a batch workload: supply drain, stage ladder and
//! layer replay, combined into per-layer costs and an attribution of the
//! simulator's run time.
//!
//! 1. **Drain** pulls each application's fused source to exhaustion with no
//!    simulation: the supply layer alone.
//! 2. **Stage ladder** simulates the application as Perfect-CC-NUMA, then
//!    every timed system.  Each step adds one layer's work (the finite block
//!    cache, then a relocation policy and its page operations), so the step
//!    differences are that layer's end-to-end cost.
//! 3. **Layer replay** feeds the drained access stream, in stream order,
//!    through each layer's public API with no coupling between layers.  This
//!    is a cost per call, not a simulation; multiplied by the run's own
//!    `SimResult` counts it estimates each layer's share of a run, and
//!    `sim.unattributed_frac` is what the estimates leave unexplained.

use std::hint::black_box;

use dsm_core::{MigRepEngine, RNumaEngine, RelocationPolicy, SimResult, SystemConfig};
use dsm_protocol::{BlockCache, BlockState, Directory};
use mem_trace::{AccessKind, BlockRef, GlobalAddr, NodeId, PageInterner, PageRef, TraceEvent};
use sim_engine::{Cycles, ProcScheduler};
use smp_node::{CacheOutcome, DataCache, LineState, MissClass};

use crate::batch::{self, job_key, Batch};
use crate::gate::{Gate, JobRecord};
use crate::metrics::Values;
use crate::stats;
use crate::trace::Tracer;

/// Alternating untraced/traced repeats of every timed job behind
/// `trace.overhead_frac`; each side is the per-job median.
const OVERHEAD_REPEATS: usize = 5;

/// Policy hook calls the simulator makes per L1 miss per installed policy
/// (an observation hook, the home-counted or refetch hook, and a drain).
/// Used only to turn the replayed cost per hook into a share of a run.
const HOOKS_PER_MISS: f64 = 3.0;

/// One shared-memory access of the drained stream.
#[derive(Debug, Clone, Copy)]
struct Access {
    proc: u16,
    write: bool,
    addr: GlobalAddr,
}

/// An access after address translation by the interner.
#[derive(Debug, Clone, Copy)]
struct Resolved {
    proc: u16,
    node: u16,
    write: bool,
    page: PageRef,
    block: BlockRef,
}

/// The role a ladder system plays in the attribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    Perfect,
    CcNuma,
    MigRep,
    RNuma,
}

fn role(s: &SystemConfig) -> Role {
    if s.is_rnuma() {
        Role::RNuma
    } else if s.has_migrep() {
        Role::MigRep
    } else if s.block_cache.is_some_and(|b| b.lines().is_some()) {
        Role::CcNuma
    } else {
        Role::Perfect
    }
}

/// One ladder step's measurement.
#[derive(Debug, Clone)]
struct Step {
    system: SystemConfig,
    seconds: f64,
    result: SimResult,
}

/// Replay costs, summed over applications.
#[derive(Debug, Default)]
struct Replay {
    accesses: u64,
    intern_s: f64,
    pages: u64,
    l1_s: f64,
    sched_s: f64,
    directory_s: f64,
    directory_ops: u64,
    block_cache_s: f64,
    block_cache_ops: u64,
    hook_s: f64,
    hooks: u64,
}

/// Everything the traced run measures, summed over applications.
#[derive(Debug, Default)]
struct Totals {
    drain_s: f64,
    events: u64,
    replay: Replay,
    /// Ladder steps of every application, in run order.
    steps: Vec<Step>,
    /// Results of the timed (end-to-end) systems only.
    timed: Vec<SimResult>,
}

fn ns_per(seconds: f64, ops: u64) -> f64 {
    if ops == 0 {
        0.0
    } else {
        seconds * 1e9 / ops as f64
    }
}

/// The traced run of `batch`: drain, ladder and replay per application
/// under `tracer`, then the tracing overhead.  Fills every simulation-layer
/// metric and `trace.overhead_frac`.
pub fn run_traced(
    batch: &Batch,
    seed: u64,
    gate: &mut Gate,
    tracer: &mut Tracer,
    values: &mut Values,
) {
    let cfg = batch.config(seed);
    let mut totals = Totals::default();
    for app in &batch.apps {
        tracer.next_run();
        let app_span = tracer.begin(format!("app.{app}"));
        trace_app(batch, app, &cfg, gate, tracer, &mut totals);
        tracer.end(app_span);
    }
    fill(&totals, values);
    values.set(
        "trace.overhead_frac",
        tracing_overhead(batch, &cfg, gate, tracer),
    );
}

/// Share by which a span around a job slows it: every timed job run
/// [`OVERHEAD_REPEATS`] times untraced and as many times inside a span,
/// alternating, and the per-job medians of each side summed.
fn tracing_overhead(
    batch: &Batch,
    cfg: &splash_workloads::WorkloadConfig,
    gate: &mut Gate,
    tracer: &mut Tracer,
) -> f64 {
    tracer.next_run();
    let (mut untraced, mut traced) = (0.0, 0.0);
    for app in &batch.apps {
        for system in &batch.systems {
            let key = job_key(batch.name, app, &system.name);
            let check = |gate: &mut Gate, result: Result<SimResult, String>| match result {
                Ok(result) => gate.check(&key, JobRecord::of(&result)),
                Err(e) => gate.fail(e),
            };
            let (mut plain, mut spanned) = (Vec::new(), Vec::new());
            for _ in 0..OVERHEAD_REPEATS {
                let start = crate::trace::now();
                let result = batch::run_job(batch.machine, app, system, cfg);
                plain.push(start.elapsed().as_secs_f64());
                check(gate, result);
                let (result, seconds) = tracer.span(format!("overhead.{}", system.name), |_| {
                    batch::run_job(batch.machine, app, system, cfg)
                });
                spanned.push(seconds);
                check(gate, result);
            }
            untraced += stats::median(&plain);
            traced += stats::median(&spanned);
        }
    }
    (traced - untraced) / untraced
}

fn trace_app(
    batch: &Batch,
    app: &str,
    cfg: &splash_workloads::WorkloadConfig,
    gate: &mut Gate,
    tracer: &mut Tracer,
    totals: &mut Totals,
) {
    let procs = cfg.topology.total_procs();
    let Some(workload) = splash_workloads::by_name(app) else {
        gate.fail(format!("unknown application `{app}`"));
        return;
    };

    // 1. Drain: supply alone.
    let mut source = splash_workloads::fused(workload.as_ref(), cfg);
    let (drained, seconds) = tracer.span("source.drain", |_| {
        batch::drain(&mut source, procs, |_, ev| {
            black_box(ev);
        })
    });
    let events = match drained {
        Ok(n) => n,
        Err(e) => {
            gate.fail(e);
            return;
        }
    };
    totals.drain_s += seconds;
    totals.events += events;

    // The access stream for the replay, collected in a second, untimed pass.
    let mut accesses = Vec::new();
    let mut source = splash_workloads::fused(workload.as_ref(), cfg);
    let (collected, _) = tracer.span("collect", |_| {
        batch::drain(&mut source, procs, |proc, ev| {
            if let TraceEvent::Access(m) = ev {
                accesses.push(Access {
                    proc,
                    write: m.kind == AccessKind::Write,
                    addr: m.addr,
                });
            }
        })
    });
    gate.checks.check(collected == Ok(events));

    // 2. Stage ladder.
    let mut app_steps = Vec::new();
    for system in batch.ladder() {
        let (result, seconds) = tracer.span(format!("sim.{}", system.name), |_| {
            batch::run_job(batch.machine, app, &system, cfg)
        });
        match result {
            Ok(result) => {
                gate.check(
                    &job_key(batch.name, app, &system.name),
                    JobRecord::of(&result),
                );
                if batch.systems.contains(&system) {
                    totals.timed.push(result.clone());
                }
                // Every system simulates the same stream.
                gate.checks.check(result.accesses == accesses.len() as u64);
                app_steps.push(Step {
                    system,
                    seconds,
                    result,
                });
            }
            Err(e) => gate.fail(e),
        }
    }

    // 3. Layer replay.
    let replay_span = tracer.begin("replay");
    replay(batch, &accesses, &app_steps, tracer, &mut totals.replay);
    tracer.end(replay_span);
    totals.steps.extend(app_steps);
}

fn replay(
    batch: &Batch,
    accesses: &[Access],
    steps: &[Step],
    tracer: &mut Tracer,
    out: &mut Replay,
) {
    let machine = batch.machine;
    let geometry = machine.geometry;
    let topology = machine.topology;
    let n = accesses.len() as u64;
    out.accesses += n;

    // Interner: address -> dense page and block references.
    let mut interner = PageInterner::new();
    let mut resolved = Vec::with_capacity(accesses.len());
    let (_, s) = tracer.span("replay.intern", |_| {
        for a in accesses {
            let page = interner.intern_ref(geometry.page_of(a.addr));
            resolved.push(Resolved {
                proc: a.proc,
                node: topology.node_of(mem_trace::ProcId(a.proc)).0,
                write: a.write,
                page,
                block: geometry.block_ref_of(page, a.addr),
            });
        }
    });
    out.intern_s += s;
    out.pages += interner.len() as u64;

    // Node L1: one direct-mapped cache per processor.
    let mut caches: Vec<DataCache> = (0..topology.total_procs())
        .map(|_| DataCache::new(machine.l1))
        .collect();
    let (_, s) = tracer.span("replay.l1", |_| {
        for r in &resolved {
            let kind = if r.write {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            let cache = &mut caches[r.proc as usize];
            match cache.access(r.block, kind) {
                CacheOutcome::Hit => {}
                CacheOutcome::UpgradeMiss => cache.upgrade(r.block),
                CacheOutcome::Miss { .. } => {
                    let state = if r.write {
                        LineState::Modified
                    } else {
                        LineState::Shared
                    };
                    black_box(cache.fill(r.block, state));
                }
            }
        }
    });
    out.l1_s += s;

    // Scheduler: one pop and one push per access at the workload's
    // processor count.
    let mut sched = ProcScheduler::with_capacity(topology.total_procs());
    for p in 0..topology.total_procs() {
        // Processor ids fit u16 by Topology's construction.
        sched.push(Cycles::ZERO, p as u16);
    }
    let (_, s) = tracer.span("replay.sched", |_| {
        for r in &resolved {
            if let Some((t, p)) = sched.pop() {
                let cost = if r.write { 3 } else { 1 } + u64::from(r.proc & 7);
                sched.push(Cycles::new(t.raw() + cost), p);
            }
        }
    });
    out.sched_s += s;

    // Directory and sharer sets: every access as a request from its node.
    let mut directory = Directory::with_geometry(geometry);
    let (_, s) = tracer.span("replay.directory", |_| {
        for r in &resolved {
            if r.write {
                black_box(directory.handle_write(r.block.idx, NodeId(r.node)));
            } else {
                black_box(directory.handle_read(r.block.idx, NodeId(r.node)));
            }
        }
    });
    out.directory_s += s;
    out.directory_ops += n;

    // Block cache: the finite configuration of the ladder's CC-NUMA step.
    if let Some(config) = steps
        .iter()
        .filter_map(|s| s.system.block_cache)
        .find(|b| b.lines().is_some())
    {
        let mut caches: Vec<BlockCache> = (0..topology.nodes)
            .map(|_| BlockCache::with_geometry(config, geometry))
            .collect();
        let mut ops = 0u64;
        let (_, s) = tracer.span("replay.block_cache", |_| {
            for r in &resolved {
                let cache = &mut caches[r.node as usize];
                ops += 1;
                if cache.lookup(r.block).is_none() {
                    ops += 1;
                    let state = if r.write {
                        BlockState::Dirty
                    } else {
                        BlockState::Clean
                    };
                    black_box(cache.fill(r.block, state));
                }
            }
        });
        out.block_cache_s += s;
        out.block_cache_ops += ops;
    }

    // Relocation policies of the ladder's systems, homes by first touch.
    let mut home: Vec<u16> = vec![u16::MAX; interner.len()];
    for r in &resolved {
        let h = &mut home[r.page.idx.index()];
        if *h == u16::MAX {
            *h = r.node;
        }
    }
    for step in steps {
        let mut policies: Vec<Box<dyn RelocationPolicy>> = Vec::new();
        if let Some(cfg) = step.system.migrep {
            policies.push(Box::new(MigRepEngine::new(cfg, step.system.thresholds)));
        }
        if step.system.is_rnuma() {
            policies.push(Box::new(RNumaEngine::new(step.system.thresholds)));
        }
        for mut policy in policies {
            let mut hooks = 0u64;
            let (_, s) = tracer.span(format!("replay.policy.{}", policy.name()), |_| {
                for r in &resolved {
                    let node = NodeId(r.node);
                    let h = NodeId(home[r.page.idx.index()]);
                    policy.on_miss(r.page);
                    policy.on_remote_miss(r.page, h, node, r.write);
                    policy.on_refetch(node, r.page, MissClass::CapacityConflict);
                    let ops = policy.drain_ops();
                    hooks += 4 + ops.len() as u64;
                    for op in &ops {
                        policy.note_op_performed(op);
                    }
                }
            });
            out.hook_s += s;
            out.hooks += hooks;
        }
    }
}

/// Turn the traced totals into the simulation-layer metrics.
fn fill(t: &Totals, values: &mut Values) {
    let r = &t.replay;
    let sum = |f: &dyn Fn(&SimResult) -> u64| t.timed.iter().map(f).sum::<u64>();
    let nodes = |f: &dyn Fn(&dsm_core::NodeStats) -> u64| {
        sum(&|res: &SimResult| res.per_node.iter().map(f).sum::<u64>())
    };

    values.set("source.drain_s", t.drain_s);
    values.set("source.events", t.events as f64);
    values.set("source.ns_per_event", ns_per(t.drain_s, t.events));
    values.set("intern.ns_per_access", ns_per(r.intern_s, r.accesses));
    values.set("intern.pages", r.pages as f64);

    let hits = nodes(&|n| n.l1_hits);
    let misses = nodes(&|n| n.total_misses());
    values.set("l1.ns_per_access", ns_per(r.l1_s, r.accesses));
    values.set("l1.hits", hits as f64);
    values.set("l1.misses", misses as f64);
    values.set("l1.hit_ratio", hits as f64 / (hits + misses).max(1) as f64);
    values.set("sched.ns_per_op", ns_per(r.sched_s, r.accesses));
    values.set(
        "directory.ns_per_op",
        ns_per(r.directory_s, r.directory_ops),
    );
    values.set(
        "directory.remote_misses",
        nodes(&|n| n.remote_misses) as f64,
    );
    values.set(
        "directory.coherence_misses",
        nodes(&|n| n.coherence_misses) as f64,
    );

    // Ladder steps by role, summed over applications.
    let by_role = |role_: Role| -> (f64, u64, u64, bool) {
        let mut secs = 0.0;
        let mut acc = 0;
        let mut remote = 0;
        let mut present = false;
        for s in t.steps.iter().filter(|s| role(&s.system) == role_) {
            secs += s.seconds;
            acc += s.result.accesses;
            remote += s.result.total_remote_misses();
            present = true;
        }
        (secs, acc, remote, present)
    };
    let (perfect_s, perfect_acc, perfect_rm, _) = by_role(Role::Perfect);
    let (cc_s, cc_acc, cc_rm, has_cc) = by_role(Role::CcNuma);
    let (mig_s, mig_acc, _, has_mig) = by_role(Role::MigRep);
    let (rn_s, rn_acc, _, has_rn) = by_role(Role::RNuma);
    values.set("sim.perfect_s", perfect_s);
    values.set("sim.ns_per_access.perfect", ns_per(perfect_s, perfect_acc));
    values.set("sim.ns_per_access.cc_numa", ns_per(cc_s, cc_acc));
    values.set("sim.ns_per_access.migrep", ns_per(mig_s, mig_acc));
    values.set("sim.ns_per_access.rnuma", ns_per(rn_s, rn_acc));
    values.set(
        "block_cache.delta_s",
        if has_cc { cc_s - perfect_s } else { 0.0 },
    );
    values.set(
        "block_cache.ns_per_op",
        ns_per(r.block_cache_s, r.block_cache_ops),
    );
    values.set(
        "block_cache.extra_remote_misses",
        if has_cc {
            cc_rm as f64 - perfect_rm as f64
        } else {
            0.0
        },
    );
    values.set(
        "policy.migrep_delta_s",
        if has_mig && has_cc { mig_s - cc_s } else { 0.0 },
    );
    values.set(
        "policy.rnuma_delta_s",
        if has_rn && has_cc { rn_s - cc_s } else { 0.0 },
    );
    values.set("policy.ns_per_hook", ns_per(r.hook_s, r.hooks));
    values.set(
        "policy.page_ops",
        sum(&|res| res.total_page_operations()) as f64,
    );
    values.set(
        "policy.page_op_cycles",
        nodes(&|n| n.page_op_cycles.raw()) as f64,
    );
    values.set(
        "page_cache.replacements",
        sum(&|res| res.total_page_cache_replacements()) as f64,
    );
    values.set(
        "network.messages",
        sum(&|res| res.traffic.total_messages()) as f64,
    );
    values.set(
        "network.bytes",
        sum(&|res| res.traffic.total_bytes()) as f64,
    );

    // Attribution: replayed cost per call times each step's own counts.
    let per_event = ns_per(t.drain_s, t.events) * 1e-9;
    let per_access = (ns_per(r.intern_s, r.accesses)
        + ns_per(r.l1_s, r.accesses)
        + ns_per(r.sched_s, r.accesses))
        * 1e-9;
    let per_dir = ns_per(r.directory_s, r.directory_ops) * 1e-9;
    let per_bc = ns_per(r.block_cache_s, r.block_cache_ops) * 1e-9;
    let per_hook = ns_per(r.hook_s, r.hooks) * 1e-9;
    let events_per_access = t.events as f64 / r.accesses.max(1) as f64;
    let mut estimated = 0.0;
    let mut measured = 0.0;
    for s in &t.steps {
        let res = &s.result;
        let acc = res.accesses as f64;
        let misses = res.per_node.iter().map(|n| n.total_misses()).sum::<u64>() as f64;
        let policies =
            f64::from(u8::from(s.system.migrep.is_some()) + u8::from(s.system.is_rnuma()));
        let block_cache = if s.system.block_cache.is_some() {
            per_bc
        } else {
            0.0
        };
        estimated += acc * (events_per_access * per_event + per_access)
            + misses * (per_dir + block_cache + policies * HOOKS_PER_MISS * per_hook);
        measured += s.seconds;
    }
    values.set(
        "sim.unattributed_frac",
        if measured > 0.0 {
            1.0 - estimated / measured
        } else {
            0.0
        },
    );
}
