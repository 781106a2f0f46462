//! Streaming trace pipeline integration: incremental statistics, the
//! record/replay format end-to-end through the simulator and the experiment
//! harness, fused/materialized fingerprint parity, the repaired
//! quiet-processor exhaustion window, corrupt replay files, and the
//! fallible `try_run` surface.

use dsm_repro::bench::{Experiment, SystemSet};
use dsm_repro::prelude::*;
use dsm_repro::trace::{EventSink, StepWriter};
use dsm_repro::workloads::STEP_CHUNK_EVENTS;

/// Satellite requirement: incremental `TraceStats` accumulated while a
/// stream is drained must equal batch `ProgramTrace::stats()` for all seven
/// workloads at `Reduced` scale.
#[test]
fn streamed_stats_equal_batch_stats_for_all_workloads() {
    let cfg = WorkloadConfig::reduced();
    for w in catalog() {
        let batch = w.generate(&cfg).stats();
        let mut source = fused(w.as_ref(), &cfg);
        for p in cfg.topology.proc_ids() {
            while source.next_event(p).is_some() {}
        }
        assert_eq!(
            source.stats_so_far(),
            batch,
            "incremental stats diverged from batch stats for {}",
            w.name()
        );
    }
}

/// Both source implementations report *identical* statistics mid-stream:
/// exactly the events the consumer has pulled, whether the source is a
/// materialized cursor or a fused generator.
#[test]
fn all_sources_report_identical_stats_mid_stream() {
    let cfg = WorkloadConfig::reduced_for_tests();
    let w = by_name("lu").unwrap();
    let trace = w.generate(&cfg);
    let mut cursor = trace.source();
    let mut fused_src = fused(w.as_ref(), &cfg);

    // Pull an uneven prefix: 500 events of proc 0, 100 of proc 5.
    let pulls = [(ProcId(0), 500usize), (ProcId(5), 100)];
    for (p, n) in pulls {
        for _ in 0..n {
            assert_eq!(cursor.next_event(p), fused_src.next_event(p));
        }
    }
    let reference = cursor.stats_so_far();
    assert!(reference.accesses > 0);
    assert_eq!(
        fused_src.stats_so_far(),
        reference,
        "fused mid-stream stats"
    );
}

/// The tentpole parity requirement: fused and materialized deliveries of
/// every workload produce bit-identical `SimResult` fingerprints — at
/// reduced scale and at a custom (non-Table-2) scale.
#[test]
fn fused_and_materialized_runs_are_fingerprint_identical() {
    let sim = ClusterSimulator::new(MachineConfig::PAPER, System::cc_numa().build());
    for cfg in [
        WorkloadConfig::reduced_for_tests(),
        WorkloadConfig::at_scale(Scale::Custom(CustomScale::new(1, 16))),
    ] {
        for w in catalog() {
            let materialized = sim.run(&w.generate(&cfg));
            let fused_run = sim.run_source(&mut fused(w.as_ref(), &cfg));
            assert_eq!(
                materialized.fingerprint(),
                fused_run.fingerprint(),
                "{} fused diverged at {:?}",
                w.name(),
                cfg.scale
            );
            assert_eq!(materialized, fused_run);
        }
    }
}

/// A step generator for the quiet-processor shape: processor 0 reads
/// 2M addresses in 1024-event steps and no processor emits an end marker
/// until the very end.
struct QuietProc {
    writer: StepWriter,
    next: u64,
}

impl StepGenerator for QuietProc {
    fn step(&mut self, _want: ProcId, sink: &mut dyn EventSink) -> bool {
        const EVENTS: u64 = 2_000_000;
        let end = (self.next + 1024).min(EVENTS);
        for i in self.next..end {
            self.writer
                .read(sink, ProcId(0), GlobalAddr((i % 100_000) * 64));
        }
        self.next = end;
        end < EVENTS
    }
}

/// The quiet-processor regression (memsmoke-style, in-process): pulling a
/// FusedSource in the adversarial order — the quiet processor first —
/// against a stream with no early end marker must stop at the window cap
/// with `TraceError::StreamWindowExceeded` instead of buffering the whole
/// trace (the pre-repair behaviour, which this test's tight cap stands in
/// for a memory ceiling).
#[test]
fn adversarial_quiet_processor_pull_is_capped() {
    const CAP: usize = 50_000;
    let topo = Topology::new(2, 1);
    let build = || {
        let generator = QuietProc {
            writer: StepWriter::new(topo),
            next: 0,
        };
        FusedSource::new("quiet", topo, Box::new(generator)).with_window_cap(CAP)
    };

    // Direct pull of the quiet processor.
    let mut src = build();
    assert!(src.next_event(ProcId(1)).is_none());
    assert!(
        src.buffered_events() <= CAP,
        "demux parked {} events past the cap",
        src.buffered_events()
    );
    assert!(matches!(
        src.take_error(),
        Some(TraceError::StreamWindowExceeded { cap: CAP, .. })
    ));

    // And through the simulator: the error surfaces as a `TraceError`
    // value from `try_run_source`, not a panic or a silent wrong result.
    let sim = ClusterSimulator::new(
        MachineConfig::PAPER.with_topology(topo),
        System::cc_numa().build(),
    );
    let mut src = build();
    match sim.try_run_source(&mut src) {
        Err(TraceError::StreamWindowExceeded { cap, buffered }) => {
            assert_eq!(cap, CAP);
            assert!(buffered >= CAP);
        }
        other => panic!("expected StreamWindowExceeded from the simulator, got {other:?}"),
    }
}

/// Well-formed generators never trip the cap: end markers ride the stream,
/// so even fully draining one processor before touching the others stays
/// inside a phase-sized window.
#[test]
fn workload_streams_survive_adversarial_pull_orders_within_the_window() {
    let cfg = WorkloadConfig::reduced_for_tests();
    for w in catalog() {
        let mut src = fused(w.as_ref(), &cfg);
        // Drain processors in reverse order, each to exhaustion.
        let mut procs: Vec<ProcId> = cfg.topology.proc_ids().collect();
        procs.reverse();
        for p in procs {
            while src.next_event(p).is_some() {}
        }
        assert!(
            src.take_error().is_none(),
            "{}: reverse-order drain tripped the window cap",
            w.name()
        );
        assert_eq!(src.buffered_events(), 0, "{}: events left behind", w.name());
    }
}

/// Demand-driven supply: each step emits the pulled processor's next chunk
/// of [`STEP_CHUNK_EVENTS`], so in the simulator's pull order every
/// processor parks about one chunk.  Simulating every workload at reduced
/// scale on the 8x4 paper machine through a fused source capped at two
/// chunks per processor must neither trip the cap nor change a result.
/// (Generators that emit whole per-processor phase slices in processor
/// order park up to 1M events here: raytrace, cholesky, radix, barnes and
/// fmm all overflow this cap.)
#[test]
fn simulator_order_window_stays_within_two_chunks_per_processor() {
    let cfg = WorkloadConfig::reduced();
    let bound = 2 * STEP_CHUNK_EVENTS * cfg.topology.total_procs();
    let sim = ClusterSimulator::new(MachineConfig::PAPER, System::cc_numa().build());
    for w in catalog() {
        let materialized = sim.run(&w.generate(&cfg));
        let mut src = fused(w.as_ref(), &cfg).with_window_cap(bound);
        let streamed = sim
            .try_run_source(&mut src)
            .unwrap_or_else(|e| panic!("{}: window over {bound} events: {e:?}", w.name()));
        assert_eq!(
            materialized.fingerprint(),
            streamed.fingerprint(),
            "{} capped fused run diverged",
            w.name()
        );
        assert!(src.peak_buffered_events() <= bound);
    }
}

/// Record a workload to a trace file, replay it through the simulator and
/// the experiment harness: every result must be bit-identical to the
/// generated workload's.
#[test]
fn recorded_traces_replay_bit_identically() {
    let cfg = WorkloadConfig::reduced();
    let path = std::env::temp_dir().join("dsm-repro-streaming-ocean.trc");
    let mut source = fused(by_name("ocean").unwrap().as_ref(), &cfg);
    dsm_repro::trace::record_to_file(&mut source, &path).expect("record ocean");
    // Recording drained the stream completely: stats match the batch path.
    assert_eq!(
        source.stats_so_far(),
        by_name("ocean").unwrap().generate(&cfg).stats()
    );

    let sim = ClusterSimulator::new(MachineConfig::PAPER, System::cc_numa().build());
    let direct = sim.run(&by_name("ocean").unwrap().generate(&cfg));
    let mut replay = ReplaySource::open(&path).expect("open recorded trace");
    assert_eq!(replay.name(), "ocean");
    let replayed = sim.run_source(&mut replay);
    assert_eq!(direct, replayed, "replayed SimResult diverged");

    // And through the experiment harness (fresh stream per job).
    let set = || SystemSet {
        experiment: "replay",
        baseline: System::perfect_cc_numa().build(),
        systems: vec![System::cc_numa().build()],
    };
    let from_file = Experiment::new(MachineConfig::PAPER)
        .systems(set())
        .replay(&path)
        .run();
    let from_generator = Experiment::new(MachineConfig::PAPER)
        .systems(set())
        .workloads(["ocean"])
        .run();
    assert_eq!(
        from_file.per_workload[0].baseline,
        from_generator.per_workload[0].baseline
    );
    assert_eq!(
        from_file.per_workload[0].results,
        from_generator.per_workload[0].results
    );
    std::fs::remove_file(&path).ok();
}

/// A recorded DSMTRC01 file cut short mid-record replays into an `Err`
/// from `try_run_source`, not a panic and not a silently shorter run.
#[test]
fn truncated_replay_files_are_errors_not_panics() {
    let cfg = WorkloadConfig::reduced_for_tests();
    let mut bytes = Vec::new();
    let mut source = fused(by_name("lu").unwrap().as_ref(), &cfg);
    dsm_repro::trace::record(&mut source, &mut bytes).expect("record lu");
    // Walk the records (`proc u16 | tag u8 | payload`) past the file's
    // midpoint and cut one byte into the next one.
    let mut at = 8 + 4 + "lu".len() + 4;
    while at < bytes.len() / 2 {
        at += 3 + match bytes[at + 2] {
            0 | 1 => 8,
            2..=5 => 4,
            _ => 0,
        };
    }
    let cut = at + 1;
    let mut replay = ReplaySource::from_reader(&bytes[..cut]).expect("header intact");
    let sim = ClusterSimulator::new(MachineConfig::PAPER, System::cc_numa().build());
    match sim.try_run_source(&mut replay) {
        Err(TraceError::CorruptReplay { trace, message }) => {
            assert_eq!(trace, "lu");
            assert!(!message.is_empty());
        }
        other => panic!("expected CorruptReplay from a truncated file, got {other:?}"),
    }
}

/// `try_run` reports malformed traces as values; `run` stays the panicking
/// shim over it.
#[test]
fn try_run_surfaces_trace_errors_as_values() {
    let machine = MachineConfig::PAPER;
    let sim = ClusterSimulator::new(machine, System::cc_numa().build());

    let wrong_procs = TraceBuilder::new("tiny", Topology::new(1, 1)).build();
    assert!(matches!(
        sim.try_run(&wrong_procs),
        Err(TraceError::ProcCountMismatch { .. })
    ));

    let mut b = TraceBuilder::new("unlock-only", machine.topology);
    b.unlock(ProcId(5), 1);
    let err = sim.try_run(&b.build()).unwrap_err();
    assert!(matches!(err, TraceError::UnbalancedLock { .. }));
    // The error is a real std error with a human-readable message.
    let _: &dyn std::error::Error = &err;
    assert!(err.to_string().contains("lock"));

    let good = by_name("ocean")
        .unwrap()
        .generate(&WorkloadConfig::reduced());
    assert_eq!(sim.try_run(&good).expect("valid trace"), sim.run(&good));
}
