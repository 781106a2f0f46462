//! The intra-workspace call graph over [`crate::items`] function items.
//!
//! Resolution is deliberately tiered, most-precise first, and everything
//! that falls through lands in an explicit [`CallGraph::unresolved`]
//! bucket rather than being silently dropped — the graph is honestly
//! conservative, and `--emit-graph` publishes the bucket so a reviewer can
//! see exactly what the analysis did not follow:
//!
//! 1. **Path calls** `Type::method(..)` / `module::f(..)` resolve by the
//!    last two segments against `impl`/`trait` owners and module names;
//!    `Self::method` uses the calling function's own owner.
//! 2. **Method calls** `recv.m(..)` with `recv == self` resolve exactly
//!    against the owner's methods.  Other receivers fall back to *every*
//!    workspace method named `m` with a matching arity — except the panic
//!    methods (`unwrap`/`expect`), whose names are so common on `Option`/
//!    `Result` that a name-match edge would be noise, not evidence.
//! 3. **Bare calls** `f(..)` prefer a free function in the same module,
//!    then any free function with matching name + arity.
//!
//! Calls to the standard library, enum constructors, closures and
//! callbacks have no workspace target and populate the unresolved bucket.

use crate::items::FnItem;
use std::collections::BTreeMap;

/// One resolved call edge.
#[derive(Debug, Clone, Copy)]
pub struct Edge {
    /// Callee index into [`CallGraph::fns`].
    pub to: usize,
    /// Call-site line in the caller's file.
    pub line: u32,
}

/// One call the resolver could not attribute to a workspace function.
#[derive(Debug, Clone)]
pub struct Unresolved {
    /// Caller index into [`CallGraph::fns`].
    pub caller: usize,
    /// What the call named (`Vec::new`, `.push`, `helper`).
    pub target: String,
    /// Call-site line.
    pub line: u32,
}

/// The workspace call graph.
pub struct CallGraph {
    /// All non-test function items, in input order.
    pub fns: Vec<FnItem>,
    /// Forward edges: `edges[caller]` lists callees.
    pub edges: Vec<Vec<Edge>>,
    /// Reverse edges: `redges[callee]` lists callers.
    pub redges: Vec<Vec<Edge>>,
    /// Calls with no workspace target.
    pub unresolved: Vec<Unresolved>,
    /// `(owner, name)` pairs defined anywhere in the workspace, for
    /// discounting `self.expect(..)`-style calls to a type's own method.
    owner_methods: BTreeMap<(String, String), Vec<usize>>,
}

/// Per-function BFS result: distance from the start set and the
/// predecessor hop used to reach it, for chain reconstruction.
#[derive(Debug, Clone, Copy)]
pub struct Hop {
    /// Hops from the nearest start node.
    pub dist: usize,
    /// `(predecessor fn, call-site line)`; `None` for start nodes.
    pub via: Option<(usize, u32)>,
}

impl CallGraph {
    /// Build the graph from parsed items.  Test-gated items are excluded
    /// wholesale — the contract is about shipped code.
    pub fn build(items: Vec<FnItem>) -> CallGraph {
        use crate::items::{CallTarget, PANIC_METHODS};
        let fns: Vec<FnItem> = items.into_iter().filter(|f| !f.in_test).collect();

        // Indexes.  Values are sorted fn indices (BTreeMap keeps the whole
        // build deterministic, matching the repo's own hash-iter policy).
        let mut by_owner: BTreeMap<(String, String), Vec<usize>> = BTreeMap::new();
        let mut free_by_name: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        let mut methods_by_name: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        let mut by_module_name: BTreeMap<(String, String), Vec<usize>> = BTreeMap::new();
        for (i, f) in fns.iter().enumerate() {
            if let Some(o) = &f.owner {
                by_owner
                    .entry((o.clone(), f.name.clone()))
                    .or_default()
                    .push(i);
                if f.has_self {
                    methods_by_name.entry(f.name.clone()).or_default().push(i);
                }
            } else {
                free_by_name.entry(f.name.clone()).or_default().push(i);
            }
            by_module_name
                .entry((module_of(f), f.name.clone()))
                .or_default()
                .push(i);
        }

        let mut edges: Vec<Vec<Edge>> = vec![Vec::new(); fns.len()];
        let mut unresolved = Vec::new();
        for (i, f) in fns.iter().enumerate() {
            for call in &f.calls {
                let targets: Vec<usize> = match &call.target {
                    CallTarget::Path(segs) => {
                        let name = segs.last().expect("paths are non-empty");
                        let qual = segs[segs.len().saturating_sub(2)].as_str();
                        let qual = if matches!(qual, "Self" | "self") {
                            f.owner.as_deref().unwrap_or(qual)
                        } else {
                            qual
                        };
                        let mut t = by_owner
                            .get(&(qual.to_string(), name.clone()))
                            .cloned()
                            .unwrap_or_default();
                        if t.is_empty() {
                            t = by_module_name
                                .get(&(qual.to_string(), name.clone()))
                                .cloned()
                                .unwrap_or_default();
                        }
                        t
                    }
                    CallTarget::Method(name) => {
                        let own = call
                            .recv_self
                            .then_some(f.owner.as_ref())
                            .flatten()
                            .and_then(|o| by_owner.get(&(o.clone(), name.clone())));
                        match own {
                            Some(t) => t.clone(),
                            None if PANIC_METHODS.contains(&name.as_str()) => Vec::new(),
                            None => methods_by_name
                                .get(name)
                                .map(|c| {
                                    c.iter()
                                        .copied()
                                        .filter(|&j| fns[j].arity == call.arity)
                                        .collect()
                                })
                                .unwrap_or_default(),
                        }
                    }
                    CallTarget::Bare(name) => {
                        let local = by_module_name
                            .get(&(module_of(f), name.clone()))
                            .cloned()
                            .unwrap_or_default();
                        if !local.is_empty() {
                            local
                        } else {
                            // Fallback stays within the caller's crate: a
                            // bare cross-crate call would need a `use` of a
                            // free function, which this workspace's idiom
                            // avoids — and widening here made every local
                            // closure named `run` an edge to every crate's
                            // `run`.  Calls to closures and out-of-crate
                            // names land in the unresolved bucket instead.
                            free_by_name
                                .get(name)
                                .map(|c| {
                                    c.iter()
                                        .copied()
                                        .filter(|&j| {
                                            fns[j].arity == call.arity
                                                && crate_of(&fns[j]) == crate_of(f)
                                        })
                                        .collect()
                                })
                                .unwrap_or_default()
                        }
                    }
                };
                if targets.is_empty() {
                    unresolved.push(Unresolved {
                        caller: i,
                        target: match &call.target {
                            CallTarget::Path(s) => s.join("::"),
                            CallTarget::Method(m) => format!(".{m}"),
                            CallTarget::Bare(b) => b.clone(),
                        },
                        line: call.line,
                    });
                } else {
                    for t in targets {
                        edges[i].push(Edge {
                            to: t,
                            line: call.line,
                        });
                    }
                }
            }
        }

        let mut redges: Vec<Vec<Edge>> = vec![Vec::new(); fns.len()];
        for (i, outs) in edges.iter().enumerate() {
            for e in outs {
                redges[e.to].push(Edge {
                    to: i,
                    line: e.line,
                });
            }
        }
        CallGraph {
            fns,
            edges,
            redges,
            unresolved,
            owner_methods: by_owner,
        }
    }

    /// Indices of functions whose qualified name matches any entry spec.
    pub fn match_entries(&self, specs: &[String]) -> Vec<usize> {
        self.fns
            .iter()
            .enumerate()
            .filter(|(_, f)| {
                specs
                    .iter()
                    .any(|s| crate::config::Config::entry_matches(s, &f.qname))
            })
            .map(|(i, _)| i)
            .collect()
    }

    /// True iff type `owner` defines a method `name` anywhere in the
    /// workspace (so `self.name(..)` is a call to it, not a std panic
    /// method).
    pub fn owner_defines(&self, owner: &str, name: &str) -> bool {
        self.owner_methods
            .contains_key(&(owner.to_string(), name.to_string()))
    }

    /// Multi-source BFS along `edges` (forward: "reachable from starts")
    /// or `redges` (reverse: "can reach starts").
    pub fn bfs(&self, starts: &[usize], reverse: bool) -> Vec<Option<Hop>> {
        let adj = if reverse { &self.redges } else { &self.edges };
        let mut hops: Vec<Option<Hop>> = vec![None; self.fns.len()];
        let mut queue = std::collections::VecDeque::new();
        for &s in starts {
            if hops[s].is_none() {
                hops[s] = Some(Hop { dist: 0, via: None });
                queue.push_back(s);
            }
        }
        while let Some(u) = queue.pop_front() {
            let d = hops[u].expect("queued nodes are visited").dist;
            for e in &adj[u] {
                if hops[e.to].is_none() {
                    hops[e.to] = Some(Hop {
                        dist: d + 1,
                        via: Some((u, e.line)),
                    });
                    queue.push_back(e.to);
                }
            }
        }
        hops
    }

    /// Reconstruct the chain from a start node to `node` as fn indices,
    /// each paired with its hop's call-site line (`None` for the start).
    /// Forward BFS: the line is in the *predecessor* (the call into this
    /// node).  Reverse BFS: the line is in *this* node (where it calls the
    /// previous, nearer-to-start element).
    pub fn chain(&self, hops: &[Option<Hop>], node: usize) -> Vec<(usize, Option<u32>)> {
        let mut out = Vec::new();
        let mut cur = node;
        loop {
            let via = hops[cur].expect("chain target must be reachable").via;
            out.push((cur, via.map(|(_, l)| l)));
            match via {
                Some((pred, _)) => cur = pred,
                None => break,
            }
        }
        out.reverse();
        out
    }

    /// Render one chain step as `qname (file:line)`.
    pub fn describe(&self, idx: usize) -> String {
        let f = &self.fns[idx];
        format!("{} ({}:{})", f.qname, f.file, f.line)
    }

    /// The graph as a JSON document for `--emit-graph`: nodes, resolved
    /// edges, and the unresolved bucket.
    pub fn to_json(&self) -> String {
        use dsm_json::escape;
        let mut out = String::from("{\n  \"nodes\": [");
        for (i, f) in self.fns.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"id\":{i},\"qname\":\"{}\",\"file\":\"{}\",\"line\":{},\"arity\":{}}}",
                escape(&f.qname),
                escape(&f.file),
                f.line,
                f.arity
            ));
        }
        out.push_str("\n  ],\n  \"edges\": [");
        let mut first = true;
        for (i, outs) in self.edges.iter().enumerate() {
            for e in outs {
                if !first {
                    out.push(',');
                }
                first = false;
                out.push_str(&format!(
                    "\n    {{\"from\":{i},\"to\":{},\"line\":{}}}",
                    e.to, e.line
                ));
            }
        }
        out.push_str("\n  ],\n  \"unresolved\": [");
        for (i, u) in self.unresolved.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"caller\":{},\"target\":\"{}\",\"line\":{}}}",
                u.caller,
                escape(&u.target),
                u.line
            ));
        }
        out.push_str("\n  ]\n}\n");
        out
    }
}

/// A function's module path: its qname minus the owner and name segments.
fn module_of(f: &FnItem) -> String {
    let strip = if f.owner.is_some() { 2 } else { 1 };
    let segs: Vec<&str> = f.qname.split("::").collect();
    segs[..segs.len().saturating_sub(strip)].join("::")
}

/// A function's crate: the leading qname segment (derived from the
/// `crates/<name>/` path component).
fn crate_of(f: &FnItem) -> &str {
    f.qname.split("::").next().unwrap_or("")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Config;
    use crate::items::parse_file;

    fn graph_of(files: &[(&str, &str)]) -> CallGraph {
        let cfg = Config::default();
        let mut items = Vec::new();
        for (path, src) in files {
            items.extend(parse_file(path, src, &cfg));
        }
        CallGraph::build(items)
    }

    fn idx(g: &CallGraph, qname_suffix: &str) -> usize {
        g.fns
            .iter()
            .position(|f| f.qname.ends_with(qname_suffix))
            .unwrap_or_else(|| panic!("no fn *{qname_suffix}"))
    }

    fn calls(g: &CallGraph, from: &str, to: &str) -> bool {
        let (f, t) = (idx(g, from), idx(g, to));
        g.edges[f].iter().any(|e| e.to == t)
    }

    #[test]
    fn path_and_self_calls_resolve_exactly() {
        let g = graph_of(&[(
            "crates/core/src/sim.rs",
            "
impl Simulator {
    pub fn run(&self) { Self::step(); helper(1); }
    fn step() {}
}
fn helper(x: u32) {}
fn other(x: u32, y: u32) {}
",
        )]);
        assert!(calls(&g, "Simulator::run", "Simulator::step"));
        assert!(calls(&g, "Simulator::run", "sim::helper"));
        assert!(
            !calls(&g, "Simulator::run", "sim::other"),
            "arity gates bare fallback"
        );
    }

    #[test]
    fn method_calls_resolve_via_owner_then_name_arity() {
        let g = graph_of(&[
            (
                "crates/core/src/a.rs",
                "
impl Cache {
    pub fn get(&self, k: u64) -> u64 { self.probe(k) }
    fn probe(&self, k: u64) -> u64 { k }
}
",
            ),
            (
                "crates/bench/src/b.rs",
                "
pub fn drive(c: &Cache) { c.probe(7); }
pub fn misses(c: &Cache) { c.probe(7, 8); }
",
            ),
        ]);
        assert!(
            calls(&g, "Cache::get", "Cache::probe"),
            "self receiver is exact"
        );
        assert!(
            calls(&g, "b::drive", "Cache::probe"),
            "non-self receivers fall back to name+arity"
        );
        assert!(
            !calls(&g, "b::misses", "Cache::probe"),
            "wrong arity stays unresolved"
        );
        assert!(
            g.unresolved.iter().any(|u| u.target == ".probe"),
            "the miss lands in the unresolved bucket: {:?}",
            g.unresolved
        );
    }

    #[test]
    fn trait_default_bodies_are_graph_nodes() {
        let g = graph_of(&[(
            "crates/core/src/t.rs",
            "
trait Policy {
    fn decide(&self) -> bool { self.threshold() > 0 }
    fn threshold(&self) -> u32;
}
",
        )]);
        assert!(calls(&g, "Policy::decide", "Policy::threshold"));
    }

    #[test]
    fn unwrap_expect_never_resolve_by_name_heuristic() {
        let g = graph_of(&[
            (
                "crates/sweep-service/src/json.rs",
                "
impl Parser {
    pub fn object(&mut self) -> Result<(), E> { self.expect(b'{') }
    fn expect(&mut self, b: u8) -> Result<(), E> { Ok(()) }
}
",
            ),
            (
                "crates/bench/src/c.rs",
                "pub fn reads(x: Option<u32>) -> u32 { x.expect(\"set\") }",
            ),
        ]);
        assert!(
            calls(&g, "Parser::object", "Parser::expect"),
            "self.expect resolves to the owner's own method"
        );
        let reads = idx(&g, "c::reads");
        assert!(
            g.edges[reads].is_empty(),
            "Option::expect gets no heuristic edge to Parser::expect"
        );
        assert!(g.owner_defines("Parser", "expect"));
        assert!(!g.owner_defines("Parser", "unwrap"));
    }

    #[test]
    fn bfs_prefers_shortest_chains() {
        let g = graph_of(&[(
            "crates/core/src/chain.rs",
            "
pub fn entry() { middle(); deep_a(); }
fn middle() { deep_a(); }
fn deep_a() { leaf(); }
fn leaf() {}
",
        )]);
        let hops = g.bfs(&[idx(&g, "chain::entry")], false);
        let leaf = idx(&g, "chain::leaf");
        assert_eq!(hops[leaf].unwrap().dist, 2, "entry -> deep_a -> leaf");
        let chain = g.chain(&hops, leaf);
        let names: Vec<&str> = chain.iter().map(|&(i, _)| g.fns[i].name.as_str()).collect();
        assert_eq!(names, ["entry", "deep_a", "leaf"]);
        // Reverse BFS answers "who can reach leaf".
        let rhops = g.bfs(&[leaf], true);
        assert!(rhops[idx(&g, "chain::entry")].is_some());
        assert!(rhops[idx(&g, "chain::middle")].is_some());
    }

    #[test]
    fn entry_specs_select_nodes() {
        let g = graph_of(&[(
            "crates/core/src/simulator.rs",
            "
impl ClusterSimulator {
    pub fn try_run(&self) {}
    pub fn try_run_source(&self) {}
    pub fn run(&self) {}
}
",
        )]);
        let picked = g.match_entries(&["ClusterSimulator::try_run*".to_string()]);
        assert_eq!(picked.len(), 2);
    }
}
