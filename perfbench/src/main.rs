//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints the host fingerprint, one line per metric, and as its last line
//! one JSON object: `correct`, `attempted`, `failed` and `metrics` (every
//! end-to-end metric untraced, every per-layer metric traced); `correct` is
//! false when any check failed.  Exits 2 on bad arguments.
//!
//! `--print-expected` instead prints the default-seed `expected.tsv` rows
//! of the batch workloads.

use std::path::Path;
use std::process::ExitCode;

use perfbench::batch::{self, Batch};
use perfbench::gate::{Gate, DEFAULT_SEED, EXPECTED_TSV};
use perfbench::metrics::{self, Level, Values};
use perfbench::trace::Tracer;
use perfbench::{host, layers, serve, WORKLOADS};

/// Where spans and scratch cache files go, relative to the checkout root.
const OUT_DIR: &str = "perfbench/out";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n       perfbench --print-expected",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("`{flag}` needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("bad value `{value}` for `{flag}`"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()?),
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}`"));
    }
    let trace = match trace.unwrap_or(0) {
        0 => false,
        1 => true,
        t => return Err(format!("--trace must be 0 or 1, got {t}")),
    };
    Ok(Args {
        workload,
        seed: seed.unwrap_or(DEFAULT_SEED),
        seconds: seconds.ok_or("missing --seconds")?.max(1),
        trace,
    })
}

fn print_expected() -> ExitCode {
    let mut gate = Gate::new(u64::MAX, "");
    println!("# job\tfingerprint\taccesses\tremote_misses\tpage_ops\tnetwork_bytes");
    for b in [
        Batch::relocate_paper(),
        Batch::coherence_wide(),
        Batch::serve_points(),
    ] {
        let cfg = b.config(DEFAULT_SEED);
        for system in b.ladder() {
            for app in &b.apps {
                match batch::run_job(b.machine, app, &system, &cfg) {
                    Ok(r) => println!(
                        "{}",
                        perfbench::gate::JobRecord::of(&r).tsv_row(&batch::job_key(
                            b.name,
                            app,
                            &system.name
                        ))
                    ),
                    Err(e) => gate.fail(e),
                }
            }
        }
    }
    if gate.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        eprintln!("{}", gate.failures.join("\n"));
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    if std::env::args().nth(1).as_deref() == Some("--print-expected") {
        return print_expected();
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return usage();
        }
    };
    let out_dir = Path::new(OUT_DIR);
    if let Err(e) = std::fs::create_dir_all(out_dir) {
        eprintln!("perfbench: cannot create {OUT_DIR}: {e}");
        return ExitCode::FAILURE;
    }
    println!("{}", host::HostInfo::probe().line());
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );

    let mut gate = Gate::new(args.seed, EXPECTED_TSV);
    let mut values = Values::default();
    let level = if args.trace {
        Level::Layer
    } else {
        Level::EndToEnd
    };
    let seconds = args.seconds as f64;

    if args.trace {
        let mut tracer = Tracer::new();
        if args.workload == "serve-sweep" {
            serve::run_traced(args.seed, out_dir, &mut gate, &mut tracer, &mut values);
            layers::run_traced(
                &Batch::serve_points(),
                args.seed,
                &mut gate,
                &mut tracer,
                &mut values,
            );
        } else if let Some(b) = Batch::by_name(&args.workload) {
            layers::run_traced(&b, args.seed, &mut gate, &mut tracer, &mut values);
            serve::zero_service_metrics(&mut values);
        }
        let spans = out_dir.join(format!("spans-{}-seed{}.tsv", args.workload, args.seed));
        match tracer.write_tsv(&spans) {
            Ok(()) => println!(
                "spans {} written to {}",
                tracer.spans().len(),
                spans.display()
            ),
            Err(e) => gate.fail(format!("cannot write {}: {e}", spans.display())),
        }
        for (name, s) in tracer.self_seconds_by_name() {
            println!("self {name:<34} {s:.6} s");
        }
    } else if args.workload == "serve-sweep" {
        serve::run_untraced(args.seed, seconds, out_dir, &mut gate, &mut values);
    } else if let Some(b) = Batch::by_name(&args.workload) {
        batch::run_untraced(&b, args.seed, seconds, &mut gate, &mut values);
        values.set("peak_rss_mb", host::peak_rss_mb());
    }
    if args.trace {
        values.set("failed_frac", gate.checks.failed_frac());
    }

    for line in metrics::render_lines(&values, level) {
        println!("{line}");
    }
    println!(
        "checks attempted {} failed {}",
        gate.checks.attempted, gate.checks.failed
    );
    for f in &gate.failures {
        println!("FAILED {f}");
    }
    // The result line carries the verdict; a printed result exits 0.
    println!("{}", metrics::render_result(&values, level, gate.checks));
    ExitCode::SUCCESS
}
