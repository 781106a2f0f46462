//! Bounded-memory smoke binary: runs one workload simulation through the
//! fused streaming trace pipeline, or by materializing the whole trace
//! first.
//!
//! The CI bounded-memory job (and `tests/api_parity.rs`) runs this under a
//! `ulimit -v` address-space ceiling sized so that the fused path
//! completes while the materialized path aborts on allocation — the
//! executable proof that streaming keeps peak memory flat at paper scale.
//! `--nodes`/`--procs-per-node` reshape the cluster, so the same job also
//! bounds the simulator's per-block state on wide clusters (128x1 under
//! `perfect-cc-numa` holds one miss history and one infinite block cache
//! per processor).  Every run prints `vm_hwm_kb=`, the resident-set
//! high-water mark from `/proc/self/status` (0 where that file is absent).
//!
//! `--adversarial` is the quiet-processor regression mode: it drives a
//! FusedSource over a step generator whose processor 1 goes quiet
//! immediately (no end marker until the very end) and pulls processor 1
//! first — the pull order that used to buffer the entire remaining trace.
//! With the window cap the drain now stops at the cap and reports
//! `TraceError::StreamWindowExceeded`, so the run fits the same ceiling
//! under which an unbounded demux would abort.
//!
//! ```text
//! memsmoke [--materialize|--fused|--adversarial]
//!          [--paper|--reduced] [--workload NAME] [--nodes N] [--procs-per-node P]
//!          [--system cc-numa|r-numa|perfect-cc-numa]
//! ```

use dsm_repro::prelude::*;
use dsm_repro::trace::{EventSink, StepWriter, TraceEvent};

enum Mode {
    Materialize,
    Fused,
    Adversarial,
}

fn main() {
    let mut mode = Mode::Fused;
    let mut scale = Scale::Paper;
    let mut workload = String::from("radix");
    let mut system = String::from("cc-numa");
    let mut topology = Topology::PAPER;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--materialize" => mode = Mode::Materialize,
            "--fused" => mode = Mode::Fused,
            "--adversarial" => mode = Mode::Adversarial,
            "--paper" => scale = Scale::Paper,
            "--reduced" => scale = Scale::Reduced,
            "--workload" => {
                workload = args
                    .next()
                    .unwrap_or_else(|| usage("--workload needs a value"))
            }
            "--system" => {
                system = args
                    .next()
                    .unwrap_or_else(|| usage("--system needs a value"))
            }
            "--nodes" => topology.nodes = count(&arg, args.next()),
            "--procs-per-node" => topology.procs_per_node = count(&arg, args.next()),
            "-h" | "--help" => {
                println!(
                    "usage: memsmoke [--materialize|--fused|--adversarial] \
                     [--paper|--reduced] [--workload NAME] [--nodes N] [--procs-per-node P] \
                     [--system cc-numa|r-numa|perfect-cc-numa]"
                );
                return;
            }
            other => usage(&format!("unknown flag `{other}`")),
        }
    }

    if let Mode::Adversarial = mode {
        adversarial_quiet_processor_pull();
        return;
    }

    let wl = by_name(&workload).unwrap_or_else(|| usage(&format!("unknown workload {workload}")));
    if topology.total_procs() > Topology::MAX_PROCS {
        usage(&format!(
            "{} nodes x {} processors exceed the {} processor ids",
            topology.nodes,
            topology.procs_per_node,
            Topology::MAX_PROCS
        ));
    }
    let cfg = WorkloadConfig::at_scale(scale).with_topology(topology);
    let sys = match system.as_str() {
        "cc-numa" => System::cc_numa().build(),
        "r-numa" => System::r_numa().build(),
        "perfect-cc-numa" => System::perfect_cc_numa().build(),
        other => usage(&format!("unknown system {other}")),
    };
    let sim = ClusterSimulator::new(MachineConfig::PAPER.with_topology(topology), sys);

    // `peak_window` is the demux high-water mark: 0 for the materialized
    // trace, which never parks events.
    let (mode_name, result, peak_window) = match mode {
        Mode::Materialize => {
            let trace = wl.generate(&cfg);
            ("materialized", sim.run(&trace), 0)
        }
        Mode::Fused => {
            let mut source = fused(wl.as_ref(), &cfg);
            let result = sim.run_source(&mut source);
            ("fused", result, source.peak_buffered_events())
        }
        Mode::Adversarial => unreachable!("handled above"),
    };
    println!(
        "mode={} workload={} system={} topology={}x{} accesses={} barriers={} execution_time={} \
         peak_window={} vm_hwm_kb={}",
        mode_name,
        result.workload,
        result.system,
        topology.nodes,
        topology.procs_per_node,
        result.accesses,
        result.barriers,
        result.execution_time.raw(),
        peak_window,
        vm_hwm_kb()
    );
}

/// A `--nodes`/`--procs-per-node` value: a processor count of at least 1.
fn count(flag: &str, value: Option<String>) -> u16 {
    match value.as_deref().map(str::parse::<u16>) {
        Some(Ok(n)) if n > 0 => n,
        _ => usage(&format!("{flag} needs a count from 1 to {}", u16::MAX)),
    }
}

/// The process's resident-set high-water mark (`VmHWM` in
/// `/proc/self/status`), in KB; 0 where that file is unavailable.
fn vm_hwm_kb() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0)
}

/// Reads processor 0 emits before any end marker: ~640 MB if the demux
/// parked them all.
const QUIET_EVENTS: u64 = 40_000_000;

/// A step generator for the quiet-processor shape: processor 0 reads
/// [`QUIET_EVENTS`] addresses, 1024 per step, while processor 1 emits
/// nothing until the very end.
struct QuietProc {
    writer: StepWriter,
    next: u64,
}

impl StepGenerator for QuietProc {
    fn step(&mut self, _want: ProcId, sink: &mut dyn EventSink) -> bool {
        let end = (self.next + 1024).min(QUIET_EVENTS);
        for i in self.next..end {
            self.writer
                .read(sink, ProcId(0), GlobalAddr((i % 1_000_000) * 64));
        }
        self.next = end;
        if end < QUIET_EVENTS {
            return true;
        }
        sink.end_of_stream(ProcId(0));
        // Proc 1's end marker only lands here, after the whole stream:
        // exactly the shape that used to reintroduce O(trace) memory.
        sink.event(ProcId(1), TraceEvent::Compute(1));
        sink.end_of_stream(ProcId(1));
        false
    }
}

/// The quiet-processor blow-up, contained: pull an (endless-ish) stream in
/// the adversarial order and prove the demux gives up at its cap instead
/// of buffering the trace.  Exits 0 when the cap fired as designed.
fn adversarial_quiet_processor_pull() {
    const CAP: usize = 1 << 20;

    let topo = Topology::new(2, 1);
    let generator = QuietProc {
        writer: StepWriter::new(topo),
        next: 0,
    };
    let mut source = FusedSource::new("quiet-proc", topo, Box::new(generator)).with_window_cap(CAP);

    // The adversarial order: ask for the quiet processor first.
    let got = source.next_event(ProcId(1));
    let parked = source.buffered_events();
    match source.take_error() {
        Some(TraceError::StreamWindowExceeded { buffered, cap }) => {
            assert!(got.is_none(), "poisoned source must not yield events");
            assert!(parked <= cap, "demux kept {parked} events past its cap");
            let peak = source.peak_buffered_events();
            println!(
                "mode=adversarial outcome=capped buffered={buffered} cap={cap} parked={parked} \
                 peak_window={peak}"
            );
        }
        other => {
            eprintln!(
                "error: adversarial pull was expected to trip the window cap, got {other:?} \
                 (event: {got:?})"
            );
            std::process::exit(1);
        }
    }
}

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}
