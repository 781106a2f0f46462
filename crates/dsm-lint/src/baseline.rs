//! The committed findings baseline: grandfathered violations with reasons.
//!
//! CI policy is "no *new* violations": pre-existing findings live in
//! `lint-baseline.json` at the workspace root, each with a human-written
//! reason explaining why the site is tolerable, and a run fails only when
//! the tree contains findings the baseline does not cover.  Entries are
//! keyed by `(rule, file, trimmed source line)` rather than line number,
//! so unrelated edits above a grandfathered site don't invalidate the
//! baseline; editing the offending line itself *does* re-flag it, which is
//! the point — touched code must meet the current bar.
//!
//! `--fix-baseline` re-records the tree's findings, carrying existing
//! reasons forward and stamping new entries with an `UNREVIEWED:` prefix
//! that is meant to be replaced before committing.  A baseline entry with
//! an empty reason fails to load at all.

use crate::rules::{Finding, RULES};
use dsm_json::{self as json, Value};
use std::collections::BTreeMap;

/// The baseline document schema.  v2 (this PR) adds a `rules` array naming
/// the registry the baseline was recorded against, so `--self-check` can
/// detect a baseline recorded by a different rule set; `lint.toml` pins
/// the same number.
pub const SCHEMA_VERSION: u64 = 2;

/// Reason stamped on entries `--fix-baseline` adds; committed baselines
/// should replace it with the actual justification.
pub const UNREVIEWED: &str =
    "UNREVIEWED: recorded by --fix-baseline; replace with why this site is tolerable";

/// One grandfathered finding site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Entry {
    /// Rule name.
    pub rule: String,
    /// Workspace-relative file, `/`-separated.
    pub file: String,
    /// Trimmed source line of the finding (the stable key).
    pub excerpt: String,
    /// How many findings with this key are tolerated.
    pub count: u64,
    /// Why the site is tolerable — mandatory, never empty.
    pub reason: String,
}

/// The full baseline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Baseline {
    /// The rule names the baseline was recorded against, in registry
    /// order.
    pub rules: Vec<String>,
    /// All grandfathered sites.
    pub entries: Vec<Entry>,
}

impl Default for Baseline {
    fn default() -> Self {
        Baseline {
            rules: RULES.iter().map(|r| r.name.to_string()).collect(),
            entries: Vec::new(),
        }
    }
}

type Key = (String, String, String);

fn key_of(rule: &str, file: &str, excerpt: &str) -> Key {
    (rule.to_string(), file.to_string(), excerpt.to_string())
}

impl Baseline {
    /// Parse a baseline document.  Rejects unknown versions, malformed
    /// entries, and — deliberately — entries with an empty reason.
    pub fn parse(text: &str) -> Result<Baseline, String> {
        let doc = json::parse(text).map_err(|e| format!("baseline is not valid JSON: {e}"))?;
        match doc.get_u64("version") {
            Some(SCHEMA_VERSION) => {}
            other => {
                return Err(format!(
                    "unsupported baseline version {other:?} (this build supports {SCHEMA_VERSION})"
                ));
            }
        }
        let rules = doc
            .get("rules")
            .and_then(Value::as_arr)
            .ok_or("baseline has no `rules` array (schema v2)")?
            .iter()
            .enumerate()
            .map(|(i, r)| {
                r.as_str()
                    .map(str::to_string)
                    .ok_or(format!("rules[{i}]: not a string"))
            })
            .collect::<Result<Vec<String>, String>>()?;
        let entries = doc
            .get("entries")
            .and_then(Value::as_arr)
            .ok_or("baseline has no `entries` array")?;
        let mut out = Vec::with_capacity(entries.len());
        for (i, e) in entries.iter().enumerate() {
            let field = |name: &str| {
                e.get_str(name)
                    .map(str::to_string)
                    .ok_or(format!("entry {i}: missing string `{name}`"))
            };
            let entry = Entry {
                rule: field("rule")?,
                file: field("file")?,
                excerpt: field("excerpt")?,
                count: e
                    .get_u64("count")
                    .ok_or(format!("entry {i}: missing `count`"))?,
                reason: field("reason")?,
            };
            if entry.reason.trim().is_empty() {
                return Err(format!(
                    "entry {i} ({} in {}): empty reason — every baseline entry must say why",
                    entry.rule, entry.file
                ));
            }
            if entry.count == 0 {
                return Err(format!("entry {i}: count must be >= 1"));
            }
            out.push(entry);
        }
        Ok(Baseline {
            rules,
            entries: out,
        })
    }

    /// True iff this baseline's `rules` array matches the build's registry
    /// exactly (names and order) — the `--self-check` contract.
    pub fn rules_match_registry(&self) -> bool {
        self.rules.len() == RULES.len() && self.rules.iter().zip(RULES).all(|(a, b)| a == b.name)
    }

    /// Render as pretty-printed JSON, sorted by `(file, rule, excerpt)` so
    /// re-recording produces minimal diffs.
    pub fn render(&self) -> String {
        let mut entries = self.entries.clone();
        entries.sort_by(|a, b| (&a.file, &a.rule, &a.excerpt).cmp(&(&b.file, &b.rule, &b.excerpt)));
        let rules: Vec<String> = self
            .rules
            .iter()
            .map(|r| format!("\"{}\"", json::escape(r)))
            .collect();
        let mut out = format!(
            "{{\n  \"version\": {SCHEMA_VERSION},\n  \"rules\": [{}],\n  \"entries\": [",
            rules.join(", ")
        );
        for (i, e) in entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\n      \"rule\": \"{}\",\n      \"file\": \"{}\",\n      \
                 \"excerpt\": \"{}\",\n      \"count\": {},\n      \"reason\": \"{}\"\n    }}",
                json::escape(&e.rule),
                json::escape(&e.file),
                json::escape(&e.excerpt),
                e.count,
                json::escape(&e.reason)
            ));
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    /// Build a baseline covering `findings`, carrying reasons forward from
    /// `previous` where the key survives and stamping new keys
    /// [`UNREVIEWED`].
    pub fn record(findings: &[Finding], previous: &Baseline) -> Baseline {
        let mut counts: BTreeMap<Key, u64> = BTreeMap::new();
        for f in findings {
            *counts
                .entry(key_of(f.rule, &f.file, &f.excerpt))
                .or_default() += 1;
        }
        let entries = counts
            .into_iter()
            .map(|((rule, file, excerpt), count)| {
                let reason = previous
                    .entries
                    .iter()
                    .find(|e| e.rule == rule && e.file == file && e.excerpt == excerpt)
                    .map_or(UNREVIEWED.to_string(), |e| e.reason.clone());
                Entry {
                    rule,
                    file,
                    excerpt,
                    count,
                    reason,
                }
            })
            .collect();
        Baseline {
            rules: Baseline::default().rules,
            entries,
        }
    }

    /// The findings not covered by this baseline: for each key, findings
    /// beyond the grandfathered count (all of them if the key is absent).
    /// Returned in `findings` order.
    pub fn new_violations<'f>(&self, findings: &'f [Finding]) -> Vec<&'f Finding> {
        let mut budget: BTreeMap<Key, u64> = BTreeMap::new();
        for e in &self.entries {
            *budget
                .entry(key_of(&e.rule, &e.file, &e.excerpt))
                .or_default() += e.count;
        }
        findings
            .iter()
            .filter(|f| {
                let k = key_of(f.rule, &f.file, &f.excerpt);
                match budget.get_mut(&k) {
                    Some(n) if *n > 0 => {
                        *n -= 1;
                        false
                    }
                    _ => true,
                }
            })
            .collect()
    }

    /// Baseline entries no longer matched by any finding — candidates for
    /// deletion via `--fix-baseline` (reported, never auto-removed).
    pub fn stale(&self, findings: &[Finding]) -> Vec<&Entry> {
        self.entries
            .iter()
            .filter(|e| {
                !findings
                    .iter()
                    .any(|f| f.rule == e.rule && f.file == e.file && f.excerpt == e.excerpt)
            })
            .collect()
    }
}

/// Render findings as a JSON report (the `--json` output and CI artifact).
/// Call-graph findings carry their evidence chain.
pub fn render_findings(findings: &[Finding], new: &[&Finding]) -> String {
    let one = |f: &Finding| {
        let chain: Vec<String> = f
            .chain
            .iter()
            .map(|s| format!("\"{}\"", json::escape(s)))
            .collect();
        format!(
            "{{\"rule\":\"{}\",\"file\":\"{}\",\"line\":{},\"excerpt\":\"{}\",\"chain\":[{}]}}",
            json::escape(f.rule),
            json::escape(&f.file),
            f.line,
            json::escape(&f.excerpt),
            chain.join(",")
        )
    };
    let all: Vec<String> = findings.iter().map(one).collect();
    let fresh: Vec<String> = new.iter().map(|f| one(f)).collect();
    format!(
        "{{\"total\":{},\"new\":{},\"findings\":[{}],\"new_findings\":[{}]}}\n",
        findings.len(),
        new.len(),
        all.join(","),
        fresh.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(rule: &'static str, file: &str, line: u32, excerpt: &str) -> Finding {
        Finding {
            rule,
            file: file.to_string(),
            line,
            excerpt: excerpt.to_string(),
            chain: Vec::new(),
        }
    }

    #[test]
    fn round_trips_and_carries_reasons_forward() {
        let f = vec![
            finding("lock-unwrap", "a/src/x.rs", 10, "x.lock().unwrap();"),
            finding("lock-unwrap", "a/src/x.rs", 20, "x.lock().unwrap();"),
            finding("wall-clock", "a/src/y.rs", 3, "Instant::now()"),
        ];
        let mut b = Baseline::record(&f, &Baseline::default());
        assert_eq!(b.entries.len(), 2);
        assert_eq!(b.entries.iter().map(|e| e.count).sum::<u64>(), 3);
        assert!(b.entries.iter().all(|e| e.reason == UNREVIEWED));
        for e in &mut b.entries {
            e.reason = format!("vetted {}", e.rule);
        }
        let parsed = Baseline::parse(&b.render()).unwrap();
        assert_eq!(parsed, {
            let mut sorted = b.clone();
            sorted
                .entries
                .sort_by(|a, b| (&a.file, &a.rule).cmp(&(&b.file, &b.rule)));
            sorted
        });
        // Re-recording after one site is fixed keeps the human reason.
        let rerec = Baseline::record(&f[..2], &parsed);
        assert_eq!(rerec.entries.len(), 1);
        assert_eq!(rerec.entries[0].reason, "vetted lock-unwrap");
    }

    #[test]
    fn new_violations_respect_counts_and_keys() {
        let base = Baseline {
            rules: Baseline::default().rules,
            entries: vec![Entry {
                rule: "lock-unwrap".into(),
                file: "a/src/x.rs".into(),
                excerpt: "x.lock().unwrap();".into(),
                count: 1,
                reason: "legacy".into(),
            }],
        };
        let covered = vec![finding(
            "lock-unwrap",
            "a/src/x.rs",
            10,
            "x.lock().unwrap();",
        )];
        assert!(base.new_violations(&covered).is_empty());
        // A second instance of the same key exceeds the budget.
        let two = vec![
            finding("lock-unwrap", "a/src/x.rs", 10, "x.lock().unwrap();"),
            finding("lock-unwrap", "a/src/x.rs", 90, "x.lock().unwrap();"),
        ];
        assert_eq!(base.new_violations(&two).len(), 1);
        // A different excerpt is new even in the same file+rule.
        let moved = vec![finding(
            "lock-unwrap",
            "a/src/x.rs",
            10,
            "y.lock().unwrap();",
        )];
        assert_eq!(base.new_violations(&moved).len(), 1);
        assert_eq!(base.stale(&moved).len(), 1);
        assert!(base.stale(&covered).is_empty());
    }

    #[test]
    fn reasons_are_mandatory() {
        let doc = r#"{"version":2,"rules":[],"entries":[
            {"rule":"hash-iter","file":"f.rs","excerpt":"x","count":1,"reason":"   "}]}"#;
        let err = Baseline::parse(doc).unwrap_err();
        assert!(err.contains("empty reason"), "{err}");
        assert!(
            Baseline::parse(r#"{"version":1,"entries":[]}"#).is_err(),
            "v1 baselines are rejected, not silently upgraded"
        );
        assert!(
            Baseline::parse(r#"{"version":2,"entries":[]}"#).is_err(),
            "v2 requires the rules array"
        );
        assert!(Baseline::parse(r#"{"version":2,"rules":[]}"#).is_err());
        assert!(Baseline::parse(
            r#"{"version":2,"rules":[],"entries":[{"rule":"r","file":"f","excerpt":"x","count":0,"reason":"r"}]}"#
        )
        .is_err());
    }

    #[test]
    fn registry_check_pins_names_and_order() {
        let b = Baseline::default();
        assert!(b.rules_match_registry());
        assert!(Baseline::parse(&b.render()).unwrap().rules_match_registry());
        let mut wrong = b.clone();
        wrong.rules.pop();
        assert!(!wrong.rules_match_registry());
        let mut swapped = b.clone();
        swapped.rules.swap(0, 1);
        assert!(!swapped.rules_match_registry(), "order matters");
    }
}
