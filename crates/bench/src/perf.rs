//! The perf-benchmark subsystem: wall-clock throughput per (workload,
//! system) job.
//!
//! Simulator throughput is the binding constraint on every scenario the
//! harness adds — the paper's figures come from pushing millions of memory
//! references through per-block directory and cache state — so this module
//! gives the repo a measured perf trajectory instead of anecdotes:
//!
//! * [`measure`] runs each (workload, system) job through the streaming
//!   pipeline, takes the best wall-clock of `repeats` runs (simulation is
//!   deterministic, so the minimum is the least-noisy estimate), and
//!   reports **events/sec** (simulated shared-memory accesses per second of
//!   wall clock);
//! * [`to_json`]/[`write_json`] render the report as the machine-readable
//!   `BENCH_*.json` format the perf trajectory is tracked in;
//! * [`regression_failures`] compares a fresh report against a committed
//!   baseline JSON and flags every job whose throughput regressed beyond a
//!   tolerance — the check behind the CI perf-smoke job.  A baseline that
//!   cannot be read, or shares no job with the run, is an error rather than
//!   a pass;
//! * [`collect_trend`]/[`format_trend`] tabulate the committed
//!   `BENCH_*.json` trajectory for the `trend` binary.
//!
//! Every JSON document is read with the workspace parser (`dsm_json`).

use std::io;
use std::path::Path;
use std::time::Instant;

use crate::presets::ExperimentScale;
use dsm_core::{ClusterSimulator, MachineConfig, SystemConfig};
use dsm_json::{escape, Value};
use splash_workloads::{by_name, WorkloadConfig};

/// Throughput measurement of one (workload, system) job.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfJob {
    /// Workload name (Table 2 row).
    pub workload: String,
    /// System name ("CC-NUMA", "R-NUMA", ...).
    pub system: String,
    /// Best wall-clock over the report's repeats, in seconds.
    pub elapsed_seconds: f64,
    /// Shared-memory accesses simulated by one run of the job.
    pub accesses: u64,
    /// `accesses / elapsed_seconds` (0 if the job finished too fast for the
    /// clock — the guard keeps degenerate timings from dividing by zero).
    pub events_per_sec: f64,
}

/// A full perf measurement: every (workload, system) job at one scale.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfReport {
    /// Parameter scale the jobs ran at ("paper", "reduced", or a custom
    /// label like "x2").
    pub scale: String,
    /// Wall-clock repetitions per job (best is reported).
    pub repeats: u32,
    /// One entry per (workload, system) pair, workloads outermost.
    pub jobs: Vec<PerfJob>,
}

impl PerfReport {
    /// The job for `(workload, system)`, if measured.
    pub fn job(&self, workload: &str, system: &str) -> Option<&PerfJob> {
        self.jobs
            .iter()
            .find(|j| j.workload == workload && j.system == system)
    }

    /// Mean events/sec across all jobs (0 for an empty report).
    pub fn mean_events_per_sec(&self) -> f64 {
        if self.jobs.is_empty() {
            return 0.0;
        }
        self.jobs.iter().map(|j| j.events_per_sec).sum::<f64>() / self.jobs.len() as f64
    }
}

/// The systems a perf run covers by default: the Table 4 trio (CC-NUMA,
/// CC-NUMA+MigRep, R-NUMA), which together exercise the block-cache,
/// migration/replication and page-cache hot paths.
pub fn default_systems(scale: ExperimentScale) -> Vec<SystemConfig> {
    crate::presets::table4(scale).systems
}

/// Measure every (workload, system) job: run the workload through the
/// fused streaming pipeline (generation inside the simulator's pull loop,
/// so the wall-clock is generation + simulation) `repeats` times and keep
/// the best wall-clock.
///
/// # Panics
/// Panics on an unknown workload name or a zero `repeats`.
pub fn measure(
    machine: MachineConfig,
    systems: &[SystemConfig],
    workloads: &[&str],
    scale: ExperimentScale,
    repeats: u32,
) -> PerfReport {
    assert!(repeats > 0, "perf measurement needs at least one repeat");
    let cfg = WorkloadConfig::at_scale(scale.workload_scale());
    let mut jobs = Vec::with_capacity(workloads.len() * systems.len());
    for workload in workloads {
        let wl = by_name(workload).unwrap_or_else(|| panic!("unknown workload {workload}"));
        for system in systems {
            let mut best = f64::INFINITY;
            let mut accesses = 0;
            for _ in 0..repeats {
                let sim = ClusterSimulator::new(machine, system.clone());
                let mut source = splash_workloads::fused(wl.as_ref(), &cfg);
                let start = Instant::now();
                let result = sim.run_source(&mut source);
                best = best.min(start.elapsed().as_secs_f64());
                accesses = result.accesses;
            }
            jobs.push(PerfJob {
                workload: workload.to_string(),
                system: system.name.clone(),
                elapsed_seconds: best,
                accesses,
                events_per_sec: if best > 0.0 {
                    accesses as f64 / best
                } else {
                    0.0
                },
            });
        }
    }
    PerfReport {
        scale: scale.label(),
        repeats,
        jobs,
    }
}

fn job_json(j: &PerfJob) -> String {
    format!(
        concat!(
            "{{\"workload\":\"{}\",\"system\":\"{}\",\"elapsed_seconds\":{:.6},",
            "\"accesses\":{},\"events_per_sec\":{:.1}}}"
        ),
        escape(&j.workload),
        escape(&j.system),
        j.elapsed_seconds,
        j.accesses,
        j.events_per_sec
    )
}

/// Render a perf report as the `BENCH_*.json` object.
pub fn to_json(report: &PerfReport) -> String {
    let jobs = report
        .jobs
        .iter()
        .map(job_json)
        .collect::<Vec<_>>()
        .join(",");
    format!(
        concat!(
            "{{\"bench\":\"perf\",\"scale\":\"{}\",\"repeats\":{},",
            "\"mean_events_per_sec\":{:.1},\"jobs\":[{}]}}"
        ),
        escape(&report.scale),
        report.repeats,
        report.mean_events_per_sec(),
        jobs
    )
}

/// Write a perf report as JSON to `path`.
pub fn write_json(path: &Path, report: &PerfReport) -> io::Result<()> {
    std::fs::write(path, to_json(report) + "\n")
}

/// The outcome of comparing a report against a baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineCheck {
    /// Baseline jobs the current report also ran: the jobs compared.
    pub compared: usize,
    /// One message per regressed job (empty = pass).
    pub failures: Vec<String>,
}

/// Compare a fresh report against a committed baseline JSON (the format
/// written by [`to_json`]): every baseline job also present in `current`
/// must reach at least `(1 - tolerance)` of its baseline events/sec.
/// Baseline jobs the current report did not run are skipped, so a CI smoke
/// run may cover a subset of the committed matrix.
///
/// A baseline that is not JSON, has no `jobs` array, holds a job without
/// `workload`/`system`/`events_per_sec`, or shares no job with `current`
/// is an `Err`: a gate that compared nothing must not pass.
pub fn regression_failures(
    current: &PerfReport,
    baseline_json: &str,
    tolerance: f64,
) -> Result<BaselineCheck, String> {
    let doc =
        dsm_json::parse(baseline_json).map_err(|e| format!("baseline is not valid JSON: {e}"))?;
    let jobs = doc
        .get("jobs")
        .and_then(Value::as_arr)
        .ok_or("baseline has no `jobs` array")?;
    let mut check = BaselineCheck {
        compared: 0,
        failures: Vec::new(),
    };
    for (i, base) in jobs.iter().enumerate() {
        let (Some(workload), Some(system), Some(base_eps)) = (
            base.get_str("workload"),
            base.get_str("system"),
            base.get("events_per_sec").and_then(Value::as_f64),
        ) else {
            return Err(format!(
                "baseline job {i} needs `workload`, `system` and `events_per_sec`"
            ));
        };
        let Some(job) = current.job(workload, system) else {
            continue;
        };
        check.compared += 1;
        let floor = base_eps * (1.0 - tolerance);
        if job.events_per_sec < floor {
            check.failures.push(format!(
                "{workload}/{system}: {:.0} events/sec is below {:.0} \
                 ({:.0}% of the {:.0} baseline)",
                job.events_per_sec,
                floor,
                (1.0 - tolerance) * 100.0,
                base_eps,
            ));
        }
    }
    if check.compared == 0 {
        return Err("baseline shares no job with this run".to_string());
    }
    Ok(check)
}

// ---------------------------------------------------------------------
// The perf trend across PRs (`trend` binary)
// ---------------------------------------------------------------------

/// One `BENCH_*.json` file's contribution to the perf trend.
#[derive(Debug, Clone, PartialEq)]
pub struct TrendEntry {
    /// File name the entry came from.
    pub file: String,
    /// PR number (the JSON's top-level `"pr"` field, else parsed from the
    /// `BENCH_<n>.json` name).
    pub pr: Option<u64>,
    /// What the file says about throughput.
    pub mean: TrendMean,
}

/// The throughput a `BENCH_*.json` file reports, if any.
#[derive(Debug, Clone, PartialEq)]
pub enum TrendMean {
    /// The last `mean_events_per_sec` in document order, with the `scale`
    /// of the same object ("unknown" if it has none).  Trajectory files
    /// with pre/post sections thus report the post-change measurement: the
    /// state the PR left the repo in.
    Measured {
        /// Parameter scale of the measurement.
        scale: String,
        /// Mean events/sec.
        events_per_sec: f64,
    },
    /// Valid JSON that carries no perf mean (a bench of something else).
    Absent,
    /// Not valid JSON; the parser's error.  No number is read out of it.
    Unparsable(String),
}

/// Read one `BENCH_*.json` body as a trend entry.  Handles both the plain
/// [`to_json`] report shape and the trajectory wrappers that nest one or
/// more reports.
pub fn parse_trend_entry(file: &str, json: &str) -> TrendEntry {
    let pr_from_name = file
        .strip_prefix("BENCH_")
        .and_then(|f| f.strip_suffix(".json"))
        .and_then(|n| n.parse().ok());
    let (pr, mean) = match dsm_json::parse(json) {
        Err(e) => (pr_from_name, TrendMean::Unparsable(e)),
        Ok(doc) => {
            let mean = match last_mean(&doc) {
                Some((owner, events_per_sec)) => TrendMean::Measured {
                    scale: owner.get_str("scale").unwrap_or("unknown").to_string(),
                    events_per_sec,
                },
                None => TrendMean::Absent,
            };
            (doc.get_u64("pr").or(pr_from_name), mean)
        }
    };
    TrendEntry {
        file: file.to_string(),
        pr,
        mean,
    }
}

/// The last numeric `mean_events_per_sec` member in document order, with
/// the object that holds it.
fn last_mean(v: &Value) -> Option<(&Value, f64)> {
    match v {
        Value::Obj(members) => members.iter().rev().find_map(|(k, c)| match c {
            Value::Num(n) if k == "mean_events_per_sec" => Some((v, *n)),
            _ => last_mean(c),
        }),
        Value::Arr(items) => items.iter().rev().find_map(last_mean),
        _ => None,
    }
}

/// Collect every `BENCH_*.json` under `dir` into trend entries, ordered by
/// PR number (unnumbered files last, by name).
pub fn collect_trend(dir: &Path) -> io::Result<Vec<TrendEntry>> {
    let mut entries = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name().to_string_lossy().to_string();
        if !name.starts_with("BENCH_") || !name.ends_with(".json") {
            continue;
        }
        let body = std::fs::read_to_string(entry.path())?;
        entries.push(parse_trend_entry(&name, &body));
    }
    entries.sort_by(|a, b| match (a.pr, b.pr) {
        (Some(x), Some(y)) => x.cmp(&y),
        (Some(_), None) => std::cmp::Ordering::Less,
        (None, Some(_)) => std::cmp::Ordering::Greater,
        (None, None) => a.file.cmp(&b.file),
    });
    Ok(entries)
}

/// Tabulate the trend: one row per `BENCH_*.json`, with each measured
/// row's speedup against the previous measured row.  A ratio is only
/// printed when the two rows were measured at the same scale — a
/// reduced-vs-paper quotient would read as a huge regression (or win) that
/// is really just the scale change.  A file without a perf mean shows `-`;
/// one that is not valid JSON says so, with the parser's error.
pub fn format_trend(entries: &[TrendEntry]) -> String {
    let mut out = String::from("# perf trend: mean events/sec per PR (from BENCH_*.json)\n");
    out.push_str(&format!(
        "{:<16} {:>4} {:>9} {:>20} {:>10}\n",
        "file", "pr", "scale", "mean_events_per_sec", "vs_prev"
    ));
    let mut prev: Option<(&str, f64)> = None;
    for e in entries {
        let pr = e.pr.map_or_else(|| "-".to_string(), |p| p.to_string());
        let (scale, mean, vs_prev) = match &e.mean {
            TrendMean::Measured {
                scale,
                events_per_sec,
            } => {
                let vs_prev = match prev {
                    Some((prev_scale, prev_mean)) if prev_mean > 0.0 && prev_scale == scale => {
                        format!("{:.2}x", events_per_sec / prev_mean)
                    }
                    _ => "-".to_string(),
                };
                prev = Some((scale, *events_per_sec));
                (scale.as_str(), format!("{events_per_sec:.1}"), vs_prev)
            }
            TrendMean::Absent => ("-", "-".to_string(), "-".to_string()),
            TrendMean::Unparsable(_) => ("-", "unparsable".to_string(), "-".to_string()),
        };
        out.push_str(&format!(
            "{:<16} {:>4} {:>9} {:>20} {:>10}",
            e.file, pr, scale, mean, vs_prev
        ));
        if let TrendMean::Unparsable(why) = &e.mean {
            out.push_str(&format!("  ({why})"));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_report() -> PerfReport {
        PerfReport {
            scale: "reduced".to_string(),
            repeats: 2,
            jobs: vec![
                PerfJob {
                    workload: "radix".into(),
                    system: "CC-NUMA".into(),
                    elapsed_seconds: 0.5,
                    accesses: 1_000_000,
                    events_per_sec: 2_000_000.0,
                },
                PerfJob {
                    workload: "lu".into(),
                    system: "R-NUMA".into(),
                    elapsed_seconds: 0.25,
                    accesses: 500_000,
                    events_per_sec: 2_000_000.0,
                },
            ],
        }
    }

    #[test]
    fn json_round_trips_through_the_scanner() {
        let report = toy_report();
        let json = to_json(&report);
        let doc = dsm_json::parse(&json).unwrap();
        assert_eq!(doc.get_str("bench"), Some("perf"));
        assert_eq!(doc.get_str("scale"), Some("reduced"));
        assert_eq!(doc.get_u64("repeats"), Some(2));
        let jobs = doc.get("jobs").and_then(Value::as_arr).unwrap();
        assert_eq!(jobs.len(), 2);
        assert_eq!(jobs[0].get_str("workload"), Some("radix"));
        assert_eq!(jobs[0].get_str("system"), Some("CC-NUMA"));
        assert_eq!(jobs[0].get_u64("accesses"), Some(1_000_000));
        let eps = jobs[0].get("events_per_sec").and_then(Value::as_f64);
        assert_eq!(eps, Some(2_000_000.0));
        assert_eq!(jobs[1].get_str("workload"), Some("lu"));

        // Name fields are escaped: an awkward name survives the round trip.
        let mut odd = toy_report();
        odd.jobs[0].system = "CC\"NUMA\\\t".into();
        let doc = dsm_json::parse(&to_json(&odd)).unwrap();
        let jobs = doc.get("jobs").and_then(Value::as_arr).unwrap();
        assert_eq!(jobs[0].get_str("system"), Some("CC\"NUMA\\\t"));
    }

    #[test]
    fn regression_check_flags_only_real_regressions() {
        let baseline = to_json(&toy_report());
        let mut current = toy_report();
        // Same numbers: no failures, and both jobs were compared.
        let check = regression_failures(&current, &baseline, 0.3).unwrap();
        assert_eq!(check.compared, 2);
        assert!(check.failures.is_empty());
        // 20% slower is inside a 30% tolerance.
        current.jobs[0].events_per_sec = 1_600_000.0;
        let check = regression_failures(&current, &baseline, 0.3).unwrap();
        assert!(check.failures.is_empty());
        // 50% slower is a regression, and the message names the job.
        current.jobs[0].events_per_sec = 1_000_000.0;
        let failures = regression_failures(&current, &baseline, 0.3)
            .unwrap()
            .failures;
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("radix/CC-NUMA"), "{}", failures[0]);
    }

    #[test]
    fn baseline_jobs_missing_from_current_are_skipped() {
        let baseline = to_json(&toy_report());
        let mut current = toy_report();
        current.jobs.remove(1);
        let check = regression_failures(&current, &baseline, 0.3).unwrap();
        assert_eq!(check.compared, 1, "only the job both ran is compared");
        assert!(check.failures.is_empty());
    }

    #[test]
    fn malformed_baseline_is_an_error_not_a_panic() {
        let current = toy_report();
        for (bad, why) in [
            ("", "not valid JSON"),
            ("{\"workload\":\"x\"", "not valid JSON"),
            ("not json at all", "not valid JSON"),
            ("{\"bench\":\"perf\"}", "no `jobs` array"),
            ("{\"jobs\":{}}", "no `jobs` array"),
            ("{\"jobs\":[{\"workload\":\"radix\"}]}", "needs `workload`"),
            ("{\"jobs\":[]}", "shares no job"),
            (
                "{\"jobs\":[{\"workload\":\"fmm\",\"system\":\"MigRep\",\"events_per_sec\":1}]}",
                "shares no job",
            ),
        ] {
            let err = regression_failures(&current, bad, 0.3).unwrap_err();
            assert!(err.contains(why), "`{bad}`: {err}");
        }
    }

    #[test]
    fn measure_reports_positive_throughput() {
        // Smallest real job: one workload, one system, one repeat.
        let report = measure(
            MachineConfig::PAPER,
            &[dsm_core::System::cc_numa().build()],
            &["ocean"],
            ExperimentScale::Reduced,
            1,
        );
        assert_eq!(report.jobs.len(), 1);
        let job = &report.jobs[0];
        assert_eq!(job.workload, "ocean");
        assert!(job.accesses > 0);
        assert!(job.events_per_sec > 0.0);
        assert!(report.mean_events_per_sec() > 0.0);
    }

    fn measured(scale: &str, events_per_sec: f64) -> TrendMean {
        TrendMean::Measured {
            scale: scale.to_string(),
            events_per_sec,
        }
    }

    #[test]
    fn trend_entry_reads_plain_reports_and_trajectory_wrappers() {
        // Plain report: pr comes from the file name.
        let plain = to_json(&toy_report());
        let t = parse_trend_entry("BENCH_4.json", &plain);
        assert_eq!(t.pr, Some(4));
        assert_eq!(t.mean, measured("reduced", 2_000_000.0));

        // Trajectory wrapper: explicit pr, and the *last* mean wins (the
        // post-change state), with the scale beside it.
        let wrapper = format!(
            "{{\"bench\":\"perf-trajectory\",\"pr\":3,\"pre_refactor\":{},\"post_refactor\":{}}}",
            to_json(&toy_report()),
            to_json(&PerfReport {
                scale: "paper".into(),
                jobs: vec![PerfJob {
                    events_per_sec: 6_000_000.0,
                    ..toy_report().jobs[0].clone()
                }],
                ..toy_report()
            })
        );
        let t = parse_trend_entry("BENCH_3.json", &wrapper);
        assert_eq!(t.pr, Some(3));
        assert_eq!(t.mean, measured("paper", 6_000_000.0));

        // Pretty-printed JSON (the BENCH_3.json style, spaces after
        // colons) parses too; a non-numeric mean (a list of repeats) is
        // passed over for the last numeric one.
        let pretty = "{\n \"pr\": 6,\n \"runs\": {\"scale\": \"paper\",\n \
                      \"mean_events_per_sec\": 1234.5},\n \"summary\": \
                      {\"mean_events_per_sec\": [1, 2]}\n}";
        let t = parse_trend_entry("BENCH_6.json", pretty);
        assert_eq!(t.pr, Some(6));
        assert_eq!(t.mean, measured("paper", 1234.5));

        // Garbage and a truncated report are unparsable: no number is read
        // out of them, however much of a report they hold.
        let truncated = &plain[..plain.len() / 2];
        for bad in ["not json", truncated] {
            let t = parse_trend_entry("BENCH_9.json", bad);
            assert_eq!(t.pr, Some(9), "pr still comes from the file name");
            assert!(matches!(t.mean, TrendMean::Unparsable(_)), "{bad}: {t:?}");
        }

        // Valid JSON without a perf mean is a row with no number.
        let no_mean = "{\"bench\":\"memsmoke\",\"pr\":13,\"scale\":\"paper\"}";
        let t = parse_trend_entry("BENCH_13.json", no_mean);
        assert_eq!(t.pr, Some(13));
        assert_eq!(t.mean, TrendMean::Absent);
    }

    #[test]
    fn trend_table_orders_by_pr_and_reports_speedups() {
        let entry = |pr: u64, mean: TrendMean| TrendEntry {
            file: format!("BENCH_{pr}.json"),
            pr: Some(pr),
            mean,
        };
        let entries = vec![
            entry(3, measured("paper", 2_000_000.0)),
            entry(4, measured("paper", 3_000_000.0)),
        ];
        let table = format_trend(&entries);
        assert!(table.contains("BENCH_3.json"));
        assert!(table.contains("BENCH_4.json"));
        assert!(table.contains("1.50x"), "{table}");
        assert_eq!(table.lines().count(), 2 + entries.len());

        // A scale change between adjacent rows suppresses the ratio: a
        // reduced-vs-paper quotient is not a speedup.
        let mixed = vec![
            entry(2, measured("reduced", 5_000_000.0)),
            entries[0].clone(),
        ];
        let table = format_trend(&mixed);
        assert!(!table.contains('x'), "cross-scale ratio printed: {table}");

        // Rows without a number say why and are skipped as ratio bases:
        // the next measured row compares against the last measured one.
        let gappy = vec![
            entries[0].clone(),
            entry(4, TrendMean::Unparsable("unterminated string".into())),
            entry(5, TrendMean::Absent),
            entry(6, measured("paper", 3_000_000.0)),
        ];
        let table = format_trend(&gappy);
        let rows: Vec<&str> = table.lines().skip(2).collect();
        assert!(rows[1].contains("unparsable"), "{table}");
        assert!(rows[1].contains("unterminated string"), "{table}");
        assert!(
            !rows[2].contains("unparsable") && rows[2].contains(" - "),
            "{table}"
        );
        assert!(rows[3].ends_with("1.50x"), "{table}");
    }

    #[test]
    fn collect_trend_scans_a_directory() {
        let dir = std::env::temp_dir().join("dsm-repro-trend-test");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("BENCH_7.json"), to_json(&toy_report())).unwrap();
        std::fs::write(dir.join("BENCH_5.json"), to_json(&toy_report())).unwrap();
        std::fs::write(dir.join("unrelated.json"), "{}").unwrap();
        let entries = collect_trend(&dir).unwrap();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].pr, Some(5), "sorted by PR number");
        assert_eq!(entries[1].pr, Some(7));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_report_means_zero_not_nan() {
        let empty = PerfReport {
            scale: "reduced".into(),
            repeats: 1,
            jobs: vec![],
        };
        assert_eq!(empty.mean_events_per_sec(), 0.0);
        assert!(empty.job("radix", "CC-NUMA").is_none());
    }
}
