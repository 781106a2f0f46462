//! `dsm-json`: the workspace's one JSON reader and string escaper.
//!
//! Every JSON edge of the repository goes through this crate: `serve`
//! request and response lines, sweep and experiment reports, the
//! `BENCH_*.json` perf trajectory, `perf-baseline.json` and
//! `lint-baseline.json`.  The build environment has no cargo registry, so
//! the format is handled by hand ([`parse`] into a [`Value`] tree, and
//! [`escape`] for writers that render with `format!`).  The crate has no
//! dependencies, so `dsm-lint` can use it and still build before the
//! simulator stack.

mod json;

pub use json::{escape, parse, Value};
