//! The `serve-sweep` workload: a closed loop of one in-process client
//! calling `SweepService::handle_line` on a service with 2 job threads and a
//! file-backed `ResultCache` that starts empty.
//!
//! A run is a sequence of epochs.  Each epoch opens a fresh, empty cache
//! file and sends the same 30 requests in an order drawn from the seed:
//! small sweeps at `reduced` or `x1/4` scale whose points recur, so most
//! lookups hit the cache while each sweep still simulates one new point
//! and appends it, plus `report` and `cache-stats` requests that only
//! read.  A request is timed
//! from handing its line to the service until its terminal response.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

use dsm_bench::CacheKey;
use dsm_core::{MachineConfig, SimResult};
use mem_trace::{Geometry, Topology};
use sim_engine::SplitMix64;
use sweep_service::json::{self, Value};
use sweep_service::{catalog, Request, ResultCache, SweepService};

use crate::gate::Gate;
use crate::metrics::Values;
use crate::stats;
use crate::trace::Tracer;

/// Job threads of the service.
pub const JOB_THREADS: usize = 2;

/// The (application, scale) groups the sweeps draw their points from,
/// chosen so that one job of any group costs about the same host time.
pub const GROUPS: [(&str, &str); 4] = [
    ("lu", "x1/4"),
    ("cholesky", "reduced"),
    ("fmm", "reduced"),
    ("radix", "reduced"),
];

/// The systems a group's sweeps grow through.  Sweep `k` of a group runs
/// the baseline and the first `k` of these, so after the first sweep
/// (baseline and CC-NUMA both new) every sweep simulates exactly one new
/// point and hits the cache for the rest.
const GROWTH: [&str; 5] = ["cc-numa", "migrep", "r-numa", "rep", "mig"];

/// The sweeps' baseline system.
const BASELINE: &str = "perfect-cc-numa";

/// `cache-stats` reads per epoch, at positions drawn from the seed.
const STATS_PER_EPOCH: usize = 2;

/// Epochs of the traced run (fixed, so its counts repeat exactly).
pub const TRACED_EPOCHS: usize = 2;

/// One request of the schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Req {
    /// A sweep over one group with the first `systems` of [`GROWTH`].
    Sweep {
        /// Index into [`GROUPS`].
        group: usize,
        /// How many [`GROWTH`] systems it runs.
        systems: usize,
    },
    /// A report over one group with every [`GROWTH`] system.
    Report {
        /// Index into [`GROUPS`].
        group: usize,
    },
    /// Cache counters.
    CacheStats,
}

impl Req {
    /// The request's JSON line with correlation id `id`.
    pub fn line(&self, id: &str) -> String {
        let systems = |n: usize| {
            GROWTH[..n]
                .iter()
                .map(|s| format!("\"{s}\""))
                .collect::<Vec<_>>()
                .join(",")
        };
        match *self {
            Req::Sweep { group, systems: n } => {
                let (app, scale) = GROUPS[group];
                format!(
                    r#"{{"kind":"sweep","id":"{id}","workloads":["{app}"],"systems":[{}],"scale":"{scale}"}}"#,
                    systems(n)
                )
            }
            Req::Report { group } => {
                let (app, scale) = GROUPS[group];
                format!(
                    r#"{{"kind":"report","id":"{id}","workloads":["{app}"],"systems":[{}],"scale":"{scale}"}}"#,
                    systems(GROWTH.len())
                )
            }
            Req::CacheStats => format!(r#"{{"kind":"cache-stats","id":"{id}"}}"#),
        }
    }

    /// Jobs (baseline included) the request runs, 0 for reads.
    fn jobs(&self) -> usize {
        match *self {
            Req::Sweep { systems, .. } => systems + 1,
            Req::Report { .. } => GROWTH.len() + 1,
            Req::CacheStats => 0,
        }
    }

    fn terminal(&self) -> &'static str {
        match self {
            Req::Sweep { .. } => "sweep-done",
            Req::Report { .. } => "report",
            Req::CacheStats => "cache-stats",
        }
    }
}

/// One group's requests, in the order they must be sent: the growing
/// sweeps, the full sweep again (all hits) and a report over it (all hits).
fn group_requests(group: usize) -> Vec<Req> {
    let mut out: Vec<Req> = (1..=GROWTH.len())
        .map(|systems| Req::Sweep { group, systems })
        .collect();
    out.push(Req::Sweep {
        group,
        systems: GROWTH.len(),
    });
    out.push(Req::Report { group });
    out
}

/// The request order of each epoch, drawn from `seed`: every epoch sends
/// each group's requests in their order, the groups and the `cache-stats`
/// reads interleaved by a Fisher-Yates shuffle from one SplitMix64 stream.
#[derive(Debug)]
pub struct Schedule {
    rng: SplitMix64,
}

impl Schedule {
    /// The schedule of benchmark seed `seed`.
    pub fn new(seed: u64) -> Self {
        Schedule {
            rng: SplitMix64::new(seed ^ 0x5e7e_5eed_0000_0001),
        }
    }

    /// The next epoch's requests.
    pub fn next_epoch(&mut self) -> Vec<Req> {
        let mut queues: Vec<std::vec::IntoIter<Req>> = (0..GROUPS.len())
            .map(|g| group_requests(g).into_iter())
            .collect();
        // One slot per request: a group index, or `None` for a read.
        let mut slots: Vec<Option<usize>> = (0..GROUPS.len())
            .flat_map(|g| std::iter::repeat_n(Some(g), queues[g].len()))
            .chain(std::iter::repeat_n(None, STATS_PER_EPOCH))
            .collect();
        for i in (1..slots.len()).rev() {
            // The bound is at most the epoch length, so the cast is exact.
            let j = (self.rng.next_u64() % (i as u64 + 1)) as usize;
            slots.swap(i, j);
        }
        slots
            .into_iter()
            .filter_map(|slot| match slot {
                Some(g) => queues[g].next(),
                None => Some(Req::CacheStats),
            })
            .collect()
    }
}

/// One `baseline`/`point` response.
#[derive(Debug, Clone)]
struct Point {
    key: String,
    fingerprint: String,
    cached: bool,
    accesses: u64,
    elapsed_s: f64,
    app: String,
    system: String,
    scale: String,
    nodes: u16,
    procs_per_node: u16,
    page_bytes: u64,
    block_bytes: u64,
}

impl Point {
    fn parse(v: &Value) -> Option<Point> {
        let u16_of = |k: &str| v.get_u64(k).and_then(|n| u16::try_from(n).ok());
        Some(Point {
            key: v.get_str("cache_key")?.to_string(),
            fingerprint: v.get_str("fingerprint")?.to_string(),
            cached: v.get("cached")?.as_bool()?,
            accesses: v.get_u64("accesses")?,
            elapsed_s: v.get("elapsed_seconds")?.as_f64()?,
            app: v.get_str("workload")?.to_string(),
            system: v.get_str("system")?.to_string(),
            scale: v.get_str("scale")?.to_string(),
            nodes: u16_of("nodes")?,
            procs_per_node: u16_of("procs_per_node")?,
            page_bytes: v.get_u64("page_bytes")?,
            block_bytes: v.get_u64("block_bytes")?,
        })
    }
}

/// What a run of the closed loop observed.
#[derive(Debug, Default)]
struct Observed {
    latencies_ms: Vec<f64>,
    setup_s: Vec<f64>,
    points: Vec<Point>,
    lines: Vec<String>,
    cache_hits: u64,
    cache_lookups: u64,
}

/// A cache file path under `dir`, private to this process.
fn cache_path(dir: &Path, label: &str) -> PathBuf {
    dir.join(format!("serve-cache-{}-{label}.txt", std::process::id()))
}

/// Run one epoch: open a fresh cache and service (set-up), send every
/// request, check every response.
fn epoch(
    reqs: &[Req],
    index: usize,
    dir: &Path,
    gate: &mut Gate,
    mut tracer: Option<&mut Tracer>,
    obs: &mut Observed,
) {
    let path = cache_path(dir, &format!("epoch{index}"));
    let _ = std::fs::remove_file(&path);
    let start = crate::trace::now();
    let service = match ResultCache::open(&path) {
        Ok(cache) => SweepService::new(cache, JOB_THREADS),
        Err(e) => {
            gate.fail(format!("cannot open cache {}: {e}", path.display()));
            return;
        }
    };
    obs.setup_s.push(start.elapsed().as_secs_f64());

    let mut distinct: BTreeSet<String> = BTreeSet::new();
    for (i, req) in reqs.iter().enumerate() {
        let line = req.line(&format!("e{index}-r{i}"));
        let mut out: Vec<String> = Vec::new();
        let span = tracer
            .as_deref_mut()
            .map(|t| t.begin(format!("request.{}", req.terminal())));
        let t0 = crate::trace::now();
        service.handle_line(&line, &mut |s| out.push(s));
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        if let (Some(t), Some(id)) = (tracer.as_deref_mut(), span) {
            t.end(id);
        }
        obs.latencies_ms.push(ms);

        let mut ok = true;
        let mut jobs = 0;
        let mut terminal = None;
        for resp in &out {
            let Ok(v) = json::parse(resp) else {
                ok = false;
                continue;
            };
            let kind = v.get_str("kind").unwrap_or("").to_string();
            if kind == "baseline" || kind == "point" {
                match Point::parse(&v) {
                    Some(p) => {
                        jobs += 1;
                        if !p.cached {
                            distinct.insert(p.key.clone());
                        }
                        obs.points.push(p);
                    }
                    None => ok = false,
                }
                continue;
            }
            if kind == "cache-stats" {
                // Every point simulated so far was appended before this read.
                ok &= v.get_u64("entries") == Some(distinct.len() as u64);
            }
            terminal = Some(kind);
        }
        ok &= terminal.as_deref() == Some(req.terminal()) && jobs == req.jobs();
        if ok {
            gate.checks.check(true);
        } else {
            gate.fail(format!("request `{line}` answered {out:?}"));
        }
        obs.lines.push(line);
    }
    let stats = service.cache_stats();
    obs.cache_hits += stats.hits;
    obs.cache_lookups += stats.hits + stats.misses;
    drop(service);
    let _ = std::fs::remove_file(&path);
}

/// Rebuild a served point's configuration and simulate it directly.
fn direct_run(p: &Point) -> Result<SimResult, String> {
    let scale = catalog::parse_scale(&p.scale)?;
    let system = std::iter::once(&BASELINE)
        .chain(GROWTH.iter())
        .filter_map(|n| catalog::system_by_name(n, scale).ok())
        .find(|s| s.name == p.system)
        .ok_or_else(|| format!("no catalog system named `{}`", p.system))?;
    let machine = MachineConfig::PAPER
        .with_topology(Topology::new(p.nodes, p.procs_per_node))
        .with_geometry(Geometry::new(p.page_bytes, p.block_bytes));
    let cfg = splash_workloads::WorkloadConfig::at_scale(scale.workload_scale())
        .with_topology(machine.topology);
    crate::batch::run_job(machine, &p.app, &system, &cfg)
}

/// Check every served point, cached or fresh, against a direct simulation
/// of the same point.  Returns the direct results by cache key.
fn verify(points: &[Point], gate: &mut Gate) -> BTreeMap<String, SimResult> {
    let mut direct: BTreeMap<String, SimResult> = BTreeMap::new();
    let mut failed: BTreeSet<String> = BTreeSet::new();
    for p in points {
        if !direct.contains_key(&p.key) && !failed.contains(&p.key) {
            match direct_run(p) {
                Ok(r) => {
                    direct.insert(p.key.clone(), r);
                }
                Err(e) => {
                    gate.fail(format!("{}: {e}", p.key));
                    failed.insert(p.key.clone());
                }
            }
        }
        if let Some(r) = direct.get(&p.key) {
            let want = format!("{:#018x}", r.fingerprint());
            gate.checks.check(p.fingerprint == want);
            if p.fingerprint != want {
                gate.failures.push(format!(
                    "{} {}/{}/{}: served {} (cached={}), direct {want}",
                    p.key, p.app, p.system, p.scale, p.fingerprint, p.cached
                ));
            }
        }
    }
    direct
}

/// The untraced run: epochs until `seconds` have passed (at least two).
pub fn run_untraced(seed: u64, seconds: f64, dir: &Path, gate: &mut Gate, values: &mut Values) {
    let mut schedule = Schedule::new(seed);
    let mut obs = Observed::default();
    let start = crate::trace::now();
    let mut epochs = 0;
    while epochs < 2 || start.elapsed().as_secs_f64() < seconds {
        let reqs = schedule.next_epoch();
        epoch(&reqs, epochs, dir, gate, None, &mut obs);
        epochs += 1;
    }
    values.set("peak_rss_mb", crate::host::peak_rss_mb());

    let fresh: u64 = obs
        .points
        .iter()
        .filter(|p| !p.cached)
        .map(|p| p.accesses)
        .sum();
    let busy_s: f64 = obs.latencies_ms.iter().sum::<f64>() * 1e-3;
    let p90 = stats::tail(&obs.latencies_ms, 90);
    println!(
        "epochs {epochs} requests {} points {} p90 reported as p{} of {} samples",
        obs.latencies_ms.len(),
        obs.points.len(),
        p90.percentile,
        p90.samples
    );
    values.set("setup_s", stats::median(&obs.setup_s));
    values.set("events_per_s", fresh as f64 / busy_s);
    values.set("request_p50_ms", stats::median(&obs.latencies_ms));
    values.set("request_p90_ms", p90.value);
    verify(&obs.points, gate);
}

/// The traced run's service part: [`TRACED_EPOCHS`] epochs with a span per
/// request, then the protocol parser and result cache replayed on what was
/// served.  Fills the service metrics.
pub fn run_traced(
    seed: u64,
    dir: &Path,
    gate: &mut Gate,
    tracer: &mut Tracer,
    values: &mut Values,
) {
    let mut schedule = Schedule::new(seed);
    let mut obs = Observed::default();
    for e in 0..TRACED_EPOCHS {
        tracer.next_run();
        let reqs = schedule.next_epoch();
        epoch(&reqs, e, dir, gate, Some(&mut *tracer), &mut obs);
    }
    let direct = verify(&obs.points, gate);

    // Protocol parser: every request line, parsed repeatedly for resolution.
    const PARSE_REPEATS: usize = 50;
    let (parsed, s) = tracer.span("replay.proto.parse", |_| {
        let mut ok = 0usize;
        for _ in 0..PARSE_REPEATS {
            for line in &obs.lines {
                ok += usize::from(std::hint::black_box(Request::parse(line)).is_ok());
            }
        }
        ok
    });
    gate.checks.check(parsed == PARSE_REPEATS * obs.lines.len());
    values.set(
        "proto.parse_us",
        s * 1e6 / (PARSE_REPEATS * obs.lines.len()).max(1) as f64,
    );

    // Result cache: the served points' lookups, in order, on a fresh file
    // cache; a miss inserts the directly simulated result.
    let path = cache_path(dir, "replay");
    let _ = std::fs::remove_file(&path);
    match ResultCache::open(&path) {
        Ok(mut cache) => {
            let (mut lookup_s, mut insert_s, mut lookups, mut inserts) = (0.0, 0.0, 0u64, 0u64);
            let span = tracer.begin("replay.result_cache");
            for p in &obs.points {
                let (Some(key), Some(result)) = (CacheKey::from_hex(&p.key), direct.get(&p.key))
                else {
                    gate.fail(format!("unusable cache key `{}`", p.key));
                    continue;
                };
                let t = crate::trace::now();
                let hit = cache.lookup(key);
                lookup_s += t.elapsed().as_secs_f64();
                lookups += 1;
                if hit.is_none() {
                    let t = crate::trace::now();
                    cache.insert(key, result);
                    insert_s += t.elapsed().as_secs_f64();
                    inserts += 1;
                }
            }
            tracer.end(span);
            values.set(
                "result_cache.lookup_us",
                lookup_s * 1e6 / lookups.max(1) as f64,
            );
            values.set(
                "result_cache.insert_us",
                insert_s * 1e6 / inserts.max(1) as f64,
            );
        }
        Err(e) => gate.fail(format!("cannot open cache {}: {e}", path.display())),
    }
    let _ = std::fs::remove_file(&path);

    let busy_s: f64 = obs.latencies_ms.iter().sum::<f64>() * 1e-3;
    let sim_s: f64 = obs
        .points
        .iter()
        .filter(|p| !p.cached)
        .map(|p| p.elapsed_s)
        .sum();
    let cached = obs.points.iter().filter(|p| p.cached).count();
    values.set(
        "result_cache.hit_ratio",
        obs.cache_hits as f64 / obs.cache_lookups.max(1) as f64,
    );
    values.set("service.sim_share", sim_s / busy_s);
    values.set("service.cached_points", cached as f64);
    values.set(
        "service.simulated_points",
        (obs.points.len() - cached) as f64,
    );
}

/// Service metrics of a workload that runs no service: zero work.
pub fn zero_service_metrics(values: &mut Values) {
    for name in [
        "proto.parse_us",
        "result_cache.lookup_us",
        "result_cache.insert_us",
        "result_cache.hit_ratio",
        "service.sim_share",
        "service.cached_points",
        "service.simulated_points",
    ] {
        values.set(name, 0.0);
    }
}
