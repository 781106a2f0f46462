//! The metric registry and the result line.
//!
//! Every metric the benchmark can print is declared here once, with its
//! unit and direction; `BENCHMARK.json` lists the same names and units and
//! the benchmark's own tests hold the two together.

use std::collections::BTreeMap;

/// Which part of a run reports a metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Level {
    /// Untraced runs (`--trace 0`): what a user of the simulator sees.
    EndToEnd,
    /// The traced run (`--trace 1`): one layer's work or cost.
    Layer,
}

/// One declared metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// Name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// `"higher"` or `"lower"` is better.
    pub better: &'static str,
    /// Which run reports it.
    pub level: Level,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        level: Level::EndToEnd,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        level: Level::Layer,
    }
}

/// Every metric, end-to-end first, layers in pipeline order.
pub const METRICS: &[MetricDef] = &[
    e2e("events_per_s", "events/s", "higher"),
    e2e("request_p50_ms", "ms", "lower"),
    e2e("request_p90_ms", "ms", "lower"),
    e2e("setup_s", "s", "lower"),
    e2e("peak_rss_mb", "MB", "lower"),
    layer("source.drain_s", "s", "lower"),
    layer("source.ns_per_event", "ns", "lower"),
    layer("source.events", "count", "lower"),
    layer("intern.ns_per_access", "ns", "lower"),
    layer("intern.pages", "count", "lower"),
    layer("l1.ns_per_access", "ns", "lower"),
    layer("l1.hits", "count", "higher"),
    layer("l1.misses", "count", "lower"),
    layer("l1.hit_ratio", "fraction", "higher"),
    layer("sched.ns_per_op", "ns", "lower"),
    layer("directory.ns_per_op", "ns", "lower"),
    layer("directory.remote_misses", "count", "lower"),
    layer("directory.coherence_misses", "count", "lower"),
    layer("sim.perfect_s", "s", "lower"),
    layer("sim.ns_per_access.perfect", "ns", "lower"),
    layer("sim.ns_per_access.cc_numa", "ns", "lower"),
    layer("sim.ns_per_access.migrep", "ns", "lower"),
    layer("sim.ns_per_access.rnuma", "ns", "lower"),
    layer("sim.unattributed_frac", "fraction", "lower"),
    layer("block_cache.delta_s", "s", "lower"),
    layer("block_cache.ns_per_op", "ns", "lower"),
    layer("block_cache.extra_remote_misses", "count", "lower"),
    layer("policy.migrep_delta_s", "s", "lower"),
    layer("policy.rnuma_delta_s", "s", "lower"),
    layer("policy.ns_per_hook", "ns", "lower"),
    layer("policy.page_ops", "count", "lower"),
    layer("policy.page_op_cycles", "cycles", "lower"),
    layer("page_cache.replacements", "count", "lower"),
    layer("network.messages", "count", "lower"),
    layer("network.bytes", "bytes", "lower"),
    layer("proto.parse_us", "us", "lower"),
    layer("result_cache.lookup_us", "us", "lower"),
    layer("result_cache.insert_us", "us", "lower"),
    layer("result_cache.hit_ratio", "fraction", "higher"),
    layer("service.sim_share", "fraction", "lower"),
    layer("service.cached_points", "count", "higher"),
    layer("service.simulated_points", "count", "lower"),
    layer("trace.overhead_frac", "fraction", "lower"),
    layer("failed_frac", "fraction", "lower"),
];

/// The declaration of `name`.
///
/// # Panics
/// Panics on an undeclared name: every printed metric must be declared.
pub fn def(name: &str) -> &'static MetricDef {
    METRICS
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("metric `{name}` is not declared"))
}

/// Metric values collected during a run, keyed by name.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    /// Set `name` (which must be declared) to `value`.
    pub fn set(&mut self, name: &str, value: f64) {
        self.0.insert(def(name).name, value);
    }

    /// The value of `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// Outcome counters of a run's correctness checks.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Checks {
    /// Operations checked.
    pub attempted: u64,
    /// Operations whose output was wrong or that failed.
    pub failed: u64,
}

impl Checks {
    /// Count one checked operation.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// `failed / attempted` (0 before any check).
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// Format a metric value: integers without a fraction, everything else
/// with all its digits.
fn number(v: f64) -> String {
    assert!(v.is_finite(), "metric values must be finite, got {v}");
    format!("{v}")
}

/// Human-readable lines, one per metric of `level`, in registry order.
pub fn render_lines(values: &Values, level: Level) -> Vec<String> {
    METRICS
        .iter()
        .filter(|m| m.level == level)
        .map(|m| match values.get(m.name) {
            Some(v) => format!("metric {:<34} {:>22} {}", m.name, number(v), m.unit),
            None => format!("metric {:<34} {:>22} {}", m.name, "missing", m.unit),
        })
        .collect()
}

/// The final JSON result line: every metric of `level`, each with its
/// unit.  A metric of `level` that was never set makes the run incorrect.
pub fn render_result(values: &Values, level: Level, checks: Checks) -> String {
    let mut missing = false;
    let metrics: Vec<String> = METRICS
        .iter()
        .filter(|m| m.level == level)
        .filter_map(|m| match values.get(m.name) {
            Some(v) => Some(format!(
                r#""{}": {{"value": {}, "unit": "{}"}}"#,
                m.name,
                number(v),
                m.unit
            )),
            None => {
                missing = true;
                None
            }
        })
        .collect();
    let correct = checks.failed == 0 && checks.attempted > 0 && !missing;
    format!(
        r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
        correct,
        checks.attempted.max(1),
        checks.failed + u64::from(checks.attempted == 0),
        metrics.join(", ")
    )
}
