//! The correctness gate: every simulated job is checked against its
//! recorded default-seed fingerprint and counts, and every repeat of a job
//! inside one run must reproduce the first one exactly.

use std::collections::BTreeMap;

use dsm_core::SimResult;

use crate::metrics::Checks;

/// The workload seed the recorded values in `expected.tsv` belong to.
pub const DEFAULT_SEED: u64 = 0;

/// The recorded values, compiled in so the gate cannot lose its reference.
pub const EXPECTED_TSV: &str = include_str!("../expected.tsv");

/// The checked summary of one job's result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobRecord {
    /// `SimResult::fingerprint()`.
    pub fingerprint: u64,
    /// Simulated shared-memory accesses.
    pub accesses: u64,
    /// Remote misses over all nodes.
    pub remote_misses: u64,
    /// Page operations (migrations, replications, relocations).
    pub page_ops: u64,
    /// Interconnect bytes.
    pub network_bytes: u64,
}

impl JobRecord {
    /// Summarise a simulation result.
    pub fn of(r: &SimResult) -> Self {
        JobRecord {
            fingerprint: r.fingerprint(),
            accesses: r.accesses,
            remote_misses: r.total_remote_misses(),
            page_ops: r.total_page_operations(),
            network_bytes: r.traffic.total_bytes(),
        }
    }

    /// One `expected.tsv` row for job `key`.
    pub fn tsv_row(&self, key: &str) -> String {
        format!(
            "{key}\t{:#018x}\t{}\t{}\t{}\t{}",
            self.fingerprint, self.accesses, self.remote_misses, self.page_ops, self.network_bytes
        )
    }
}

/// Parse `expected.tsv`: `job<TAB>fingerprint<TAB>accesses<TAB>remote
/// misses<TAB>page ops<TAB>network bytes`; `#` starts a comment line.
pub fn parse_expected(tsv: &str) -> Result<BTreeMap<String, JobRecord>, String> {
    let mut out = BTreeMap::new();
    for (n, line) in tsv.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let f: Vec<&str> = line.split('\t').collect();
        let bad = || format!("expected.tsv line {}: malformed row `{line}`", n + 1);
        if f.len() != 6 {
            return Err(bad());
        }
        let num = |s: &str| s.parse::<u64>().map_err(|_| bad());
        let fp = u64::from_str_radix(f[1].trim_start_matches("0x"), 16).map_err(|_| bad())?;
        let rec = JobRecord {
            fingerprint: fp,
            accesses: num(f[2])?,
            remote_misses: num(f[3])?,
            page_ops: num(f[4])?,
            network_bytes: num(f[5])?,
        };
        out.insert(f[0].to_string(), rec);
    }
    Ok(out)
}

/// Checks job results of one run.
#[derive(Debug)]
pub struct Gate {
    /// Recorded default-seed values; consulted only when checking the
    /// default seed.
    expected: Option<BTreeMap<String, JobRecord>>,
    /// The first result seen per job in this run.
    first: BTreeMap<String, JobRecord>,
    /// Pass/fail counters.
    pub checks: Checks,
    /// One line per failed check.
    pub failures: Vec<String>,
}

impl Gate {
    /// A gate for workload seed `seed`, comparing against `expected_tsv`
    /// when `seed` is [`DEFAULT_SEED`].
    pub fn new(seed: u64, expected_tsv: &str) -> Self {
        let expected = (seed == DEFAULT_SEED).then(|| parse_expected(expected_tsv));
        let mut gate = Gate {
            expected: None,
            first: BTreeMap::new(),
            checks: Checks::default(),
            failures: Vec::new(),
        };
        match expected {
            Some(Ok(table)) => gate.expected = Some(table),
            Some(Err(e)) => gate.fail(e),
            None => {}
        }
        gate
    }

    /// Record a failed operation that produced no result.
    pub fn fail(&mut self, why: String) {
        self.checks.check(false);
        self.failures.push(why);
    }

    /// Check one job's result: against the recorded value (default seed)
    /// and against the first result of the same job in this run.
    pub fn check(&mut self, key: &str, rec: JobRecord) {
        let mut why = Vec::new();
        if let Some(table) = &self.expected {
            match table.get(key) {
                Some(want) if *want == rec => {}
                Some(want) => why.push(format!(
                    "differs from the recorded default-seed value: got {}, want {}",
                    rec.tsv_row(key),
                    want.tsv_row(key)
                )),
                None => why.push("no recorded default-seed value".to_string()),
            }
        }
        match self.first.get(key) {
            Some(first) if *first != rec => why.push(format!(
                "repeat differs from the first run: got {:#018x}, first {:#018x}",
                rec.fingerprint, first.fingerprint
            )),
            Some(_) => {}
            None => {
                self.first.insert(key.to_string(), rec);
            }
        }
        self.checks.check(why.is_empty());
        for w in why {
            self.failures.push(format!("{key}: {w}"));
        }
    }
}
