//! The benchmark's own tests: percentile rule, span self time, schedule
//! determinism, the correctness gate and the metric registry's agreement
//! with BENCHMARK.json.

use std::path::Path;

use perfbench::batch::{self, Batch};
use perfbench::gate::{parse_expected, Gate, JobRecord, DEFAULT_SEED, EXPECTED_TSV};
use perfbench::metrics::{render_result, Checks, Level, Values, METRICS};
use perfbench::serve::{Req, Schedule};
use perfbench::stats::{median, tail};
use perfbench::trace::Tracer;
use sweep_service::json::{self, Value};

fn ramp(n: usize) -> Vec<f64> {
    // Shuffled on purpose: the rule must sort.
    (0..n).rev().map(|i| (i + 1) as f64).collect()
}

#[test]
fn percentile_rule_keeps_ten_samples_beyond() {
    // 100 samples: p90 is rank 90 with exactly 10 beyond it.
    let t = tail(&ramp(100), 90);
    assert_eq!((t.percentile, t.value, t.samples), (90, 90.0, 100));
    // 99 samples: p90 would leave 9 beyond, so p89 is reported.
    let t = tail(&ramp(99), 90);
    assert_eq!((t.percentile, t.value), (89, 89.0));
    // 1000 samples: the requested percentile itself qualifies.
    assert_eq!(tail(&ramp(1000), 90).percentile, 90);
    assert_eq!(tail(&ramp(1000), 99).percentile, 99);
    // 20 samples: only the median has ten beyond it.
    let t = tail(&ramp(20), 90);
    assert_eq!((t.percentile, t.value), (50, 10.0));
    // Fewer than 20: no tail qualifies; the median is reported as p50.
    let t = tail(&ramp(5), 90);
    assert_eq!((t.percentile, t.value, t.samples), (50, 3.0, 5));
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
}

#[test]
fn self_time_subtracts_nested_children_once() {
    let mut t = Tracer::new();
    let root = t.record("root", 0, 100, None);
    // Overlapping children count their union once.
    let a = t.record("child", 10, 30, Some(root));
    t.record("child", 20, 50, Some(root));
    // A child running past its parent is clipped to the parent.
    t.record("late", 90, 120, Some(root));
    // A grandchild changes its parent's self time, not the root's.
    t.record("grandchild", 12, 18, Some(a));
    assert_eq!(t.self_time_ns(root), 100 - 40 - 10);
    assert_eq!(t.self_time_ns(a), 20 - 6);
    let by_name = t.self_seconds_by_name();
    assert!((by_name["child"] - (14 + 30) as f64 * 1e-9).abs() < 1e-15);

    // Live spans nest like brackets; a parent's self time never exceeds
    // its duration.
    let mut live = Tracer::new();
    let ((), outer) = live.span("outer", |tr| {
        tr.span("inner", |_| {
            std::hint::black_box((0..10_000u64).sum::<u64>())
        });
    });
    let spans = live.spans();
    assert_eq!(spans[1].parent, Some(0));
    assert!(live.self_time_ns(0) as f64 * 1e-9 <= outer);
}

#[test]
fn seed_fixes_the_serve_schedule() {
    let epochs = |seed| {
        let mut s = Schedule::new(seed);
        (0..3).map(|_| s.next_epoch()).collect::<Vec<Vec<Req>>>()
    };
    let a = epochs(7);
    assert_eq!(a, epochs(7), "same seed, same schedule");
    assert_ne!(a, epochs(8), "another seed, another order");
    assert_ne!(a[0], a[1], "epochs of one run differ in order");
    // Every epoch sends the same multiset of requests.
    let canon = |e: &[Req]| {
        let mut lines: Vec<String> = e.iter().map(|r| r.line("x")).collect();
        lines.sort();
        lines
    };
    for e in a.iter().chain(epochs(8).iter()) {
        assert_eq!(canon(e), canon(&a[0]));
        // Each group's sweeps grow one system at a time, then repeat the
        // full sweep, then report.
        for g in 0..perfbench::serve::GROUPS.len() {
            let order: Vec<Req> = e
                .iter()
                .copied()
                .filter(|r| match *r {
                    Req::Sweep { group, .. } | Req::Report { group } => group == g,
                    Req::CacheStats => false,
                })
                .collect();
            let sizes: Vec<usize> = order
                .iter()
                .map(|r| match *r {
                    Req::Sweep { systems, .. } => systems,
                    _ => 0,
                })
                .collect();
            assert_eq!(sizes, [1, 2, 3, 4, 5, 5, 0]);
            assert!(matches!(order.last(), Some(Req::Report { .. })));
        }
    }
    assert_eq!(a[0].len(), 30);
}

fn tiny_job() -> JobRecord {
    let b = Batch::relocate_paper();
    let cfg = splash_workloads::WorkloadConfig::reduced_for_tests();
    let result = batch::run_job(b.machine, "lu", &b.systems[0], &cfg).expect("lu simulates");
    JobRecord::of(&result)
}

#[test]
fn wrong_expected_fingerprint_fails_the_run() {
    let rec = tiny_job();
    let key = "test/lu/CC-NUMA";
    let good = rec.tsv_row(key);

    let mut gate = Gate::new(DEFAULT_SEED, &good);
    gate.check(key, rec);
    gate.check(key, rec);
    assert_eq!(gate.checks.failed_frac(), 0.0);

    let mut wrong = rec;
    wrong.fingerprint ^= 1;
    let mut gate = Gate::new(DEFAULT_SEED, &wrong.tsv_row(key));
    gate.check(key, rec);
    assert!(gate.checks.failed_frac() > 0.0);
    let line = render_result(&Values::default(), Level::EndToEnd, gate.checks);
    assert!(line.contains(r#""correct": false"#));

    // Any other seed checks repeats against the run's first result.
    let mut gate = Gate::new(DEFAULT_SEED + 1, &wrong.tsv_row(key));
    gate.check(key, rec);
    assert_eq!(gate.checks.failed, 0);
    gate.check(key, wrong);
    assert!(gate.checks.failed_frac() > 0.0);
}

#[test]
fn recorded_values_cover_every_default_seed_job() {
    let table = parse_expected(EXPECTED_TSV).expect("expected.tsv parses");
    for b in [
        Batch::relocate_paper(),
        Batch::coherence_wide(),
        Batch::serve_points(),
    ] {
        for app in &b.apps {
            for system in b.ladder() {
                let key = batch::job_key(b.name, app, &system.name);
                assert!(table.contains_key(&key), "no record for {key}");
            }
        }
    }
}

fn benchmark_json() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json is readable");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn listed(v: &Value, key: &str) -> Vec<(String, String, String)> {
    v.get(key)
        .and_then(Value::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let s = |k| m.get_str(k).expect("metric field").to_string();
            (s("name"), s("unit"), s("better"))
        })
        .collect()
}

#[test]
fn output_names_every_listed_metric_with_its_unit() {
    let bench = benchmark_json();
    let workloads: Vec<&str> = bench
        .get("workloads")
        .and_then(Value::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| w.get_str("name").expect("workload name"))
        .collect();
    assert_eq!(workloads, perfbench::WORKLOADS);

    for (key, level) in [("end_to_end", Level::EndToEnd), ("per_layer", Level::Layer)] {
        let want = listed(&bench, key);
        let declared: Vec<(String, String, String)> = METRICS
            .iter()
            .filter(|m| m.level == level)
            .map(|m| (m.name.to_string(), m.unit.to_string(), m.better.to_string()))
            .collect();
        assert_eq!(declared, want, "{key} differs from the registry");

        let mut values = Values::default();
        for (i, (name, _, _)) in want.iter().enumerate() {
            values.set(name, i as f64 + 0.5);
        }
        let checks = Checks {
            attempted: 3,
            failed: 0,
        };
        let line = render_result(&values, level, checks);
        let parsed = json::parse(&line).expect("result line is JSON");
        assert_eq!(parsed.get("correct").and_then(Value::as_bool), Some(true));
        let metrics = parsed.get("metrics").expect("metrics object");
        for (name, unit, _) in &want {
            let m = metrics
                .get(name)
                .unwrap_or_else(|| panic!("{name} missing"));
            assert_eq!(m.get_str("unit"), Some(unit.as_str()), "{name} unit");
            assert!(
                m.get("value").and_then(Value::as_f64).is_some(),
                "{name} value"
            );
        }

        // A metric left unset makes the run incorrect.
        let mut partial = Values::default();
        partial.set(&want[0].0, 1.0);
        let line = render_result(&partial, level, checks);
        assert!(line.contains(r#""correct": false"#));
    }
}
