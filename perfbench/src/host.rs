//! Host fingerprint printed with every result set, and process memory.
//!
//! Throughput differs several-fold between hosts, so every result set
//! carries what is needed to normalise it: core count, CPU model, compiler,
//! source revision and the rate of a fixed calibration loop.

use std::hint::black_box;
use std::path::Path;
use std::process::Command;

/// Iterations of the calibration loop.
const CALIBRATION_STEPS: u64 = 20_000_000;

/// Identifies the host, toolchain and source a result set came from.
#[derive(Debug, Clone)]
pub struct HostInfo {
    /// Available parallelism.
    pub nproc: usize,
    /// First `model name` of `/proc/cpuinfo`.
    pub cpu: String,
    /// `rustc -V`.
    pub rustc: String,
    /// `git rev-parse HEAD`, or `unknown` outside a git checkout.
    pub commit: String,
    /// SplitMix64 steps per second of a fixed single-thread loop.
    pub calibration_per_s: f64,
}

impl HostInfo {
    /// Probe the host (about 0.1 s, most of it the calibration loop).
    pub fn probe() -> Self {
        HostInfo {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu: cpu_model(),
            rustc: command_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".to_string()),
            // Only ask git inside a checkout's own root, so nothing above
            // the working directory is read.
            commit: Path::new(".git")
                .exists()
                .then(|| command_line("git", &["rev-parse", "HEAD"]))
                .flatten()
                .unwrap_or_else(|| "unknown".to_string()),
            calibration_per_s: calibrate(),
        }
    }

    /// The fingerprint as one `host ...` line.
    pub fn line(&self) -> String {
        format!(
            "host nproc={} cpu=\"{}\" rustc=\"{}\" commit={} calibration_steps_per_s={:.0}",
            self.nproc, self.cpu, self.rustc, self.commit, self.calibration_per_s
        )
    }
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// First line of a command's stdout, if it ran and succeeded.
fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let s = String::from_utf8(out.stdout).ok()?;
    s.lines().next().map(|l| l.trim().to_string())
}

/// Steps per second of a fixed dependent SplitMix64 chain.
fn calibrate() -> f64 {
    let start = crate::trace::now();
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    for _ in 0..CALIBRATION_STEPS {
        x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^= black_box(z ^ (z >> 31));
    }
    black_box(x);
    CALIBRATION_STEPS as f64 / start.elapsed().as_secs_f64()
}

/// Peak resident set size of this process (VmHWM) in MB, 0 if unknown.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
