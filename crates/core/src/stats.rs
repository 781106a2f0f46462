//! Simulation results: execution time, miss breakdowns, page operations.
//!
//! The harness reproduces the paper's figures by comparing [`SimResult`]s:
//! execution times are normalized against the perfect-CC-NUMA run of the
//! same workload (Figures 5-8), and the per-node miss/page-operation counts
//! feed Table 4.

use dsm_protocol::TrafficStats;
use sim_engine::Cycles;

/// Per-node counters accumulated during a run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NodeStats {
    /// Processor-cache hits on this node.
    pub l1_hits: u64,
    /// Misses satisfied by local memory (home pages, replicas, page-cache or
    /// block-cache hits).
    pub local_misses: u64,
    /// Misses that required a transaction to another node.
    pub remote_misses: u64,
    /// The subset of remote misses classified capacity/conflict.
    pub remote_capacity_misses: u64,
    /// Cold (first-reference) misses on this node.
    pub cold_misses: u64,
    /// Coherence (invalidation) misses on this node.
    pub coherence_misses: u64,
    /// Capacity/conflict misses on this node (local or remote).
    pub capacity_conflict_misses: u64,
    /// Pages migrated *to* this node.
    pub migrations: u64,
    /// Read-only replicas installed on this node.
    pub replications: u64,
    /// Pages relocated into this node's S-COMA page cache.
    pub relocations: u64,
    /// Page-cache frames reclaimed (replacements) on this node.
    pub page_cache_replacements: u64,
    /// Replicated pages switched back to read-write due to a write by this
    /// node.
    pub switches_to_rw: u64,
    /// Cycles this node's processors spent stalled on page operations.
    pub page_op_cycles: Cycles,
    /// Cycles this node's processors spent stalled on memory accesses.
    pub memory_stall_cycles: Cycles,
}

impl NodeStats {
    /// Total misses (local + remote).
    pub fn total_misses(&self) -> u64 {
        self.local_misses + self.remote_misses
    }

    /// Page operations of any kind performed on behalf of this node.
    pub fn page_operations(&self) -> u64 {
        self.migrations + self.replications + self.relocations
    }
}

/// The complete result of simulating one workload on one system.
///
/// `SimResult` implements `Eq`: simulation is deterministic, so two runs of
/// the same (machine, system, trace) triple must compare bit-identical —
/// the old-vs-new API parity tests rely on this.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimResult {
    /// System name (e.g. "CC-NUMA", "MigRep", "R-NUMA").
    pub system: String,
    /// Workload name (Table 2 row).
    pub workload: String,
    /// Parallel execution time: the largest per-processor completion time.
    pub execution_time: Cycles,
    /// Per-node counters.
    pub per_node: Vec<NodeStats>,
    /// Interconnect traffic.
    pub traffic: TrafficStats,
    /// Total shared-memory accesses simulated.
    pub accesses: u64,
    /// Total barrier episodes synchronized.
    pub barriers: u64,
}

impl SimResult {
    /// Execution time of this run divided by `baseline`'s execution time.
    /// This is the paper's "normalized execution time" (baseline = perfect
    /// CC-NUMA).
    pub fn normalized_against(&self, baseline: &SimResult) -> f64 {
        if baseline.execution_time.is_zero() {
            return 1.0;
        }
        self.execution_time.raw() as f64 / baseline.execution_time.raw() as f64
    }

    /// Sum of a per-node counter over all nodes.
    fn sum_nodes<F: Fn(&NodeStats) -> u64>(&self, f: F) -> u64 {
        self.per_node.iter().map(f).sum()
    }

    /// Average of a per-node counter across nodes (Table 4 reports per-node
    /// numbers).
    fn avg_nodes<F: Fn(&NodeStats) -> u64>(&self, f: F) -> f64 {
        if self.per_node.is_empty() {
            return 0.0;
        }
        self.sum_nodes(f) as f64 / self.per_node.len() as f64
    }

    /// Total remote misses across the cluster.
    pub fn total_remote_misses(&self) -> u64 {
        self.sum_nodes(|n| n.remote_misses)
    }

    /// Total capacity/conflict remote misses across the cluster.
    pub fn total_remote_capacity_misses(&self) -> u64 {
        self.sum_nodes(|n| n.remote_capacity_misses)
    }

    /// Per-node average remote misses (the "overall misses" column of
    /// Table 4).
    pub fn per_node_remote_misses(&self) -> f64 {
        self.avg_nodes(|n| n.remote_misses)
    }

    /// Per-node average capacity/conflict remote misses (the parenthesized
    /// column of Table 4).
    pub fn per_node_remote_capacity_misses(&self) -> f64 {
        self.avg_nodes(|n| n.remote_capacity_misses)
    }

    /// Per-node average page migrations.
    pub fn per_node_migrations(&self) -> f64 {
        self.avg_nodes(|n| n.migrations)
    }

    /// Per-node average page replications.
    pub fn per_node_replications(&self) -> f64 {
        self.avg_nodes(|n| n.replications)
    }

    /// Per-node average R-NUMA page relocations.
    pub fn per_node_relocations(&self) -> f64 {
        self.avg_nodes(|n| n.relocations)
    }

    /// Total page operations across the cluster.
    pub fn total_page_operations(&self) -> u64 {
        self.sum_nodes(|n| n.page_operations())
    }

    /// Total page-cache replacements across the cluster.
    pub fn total_page_cache_replacements(&self) -> u64 {
        self.sum_nodes(|n| n.page_cache_replacements)
    }

    /// Fraction of all misses that were satisfied locally.
    pub fn local_hit_fraction(&self) -> f64 {
        let local = self.sum_nodes(|n| n.local_misses);
        let total = self.sum_nodes(|n| n.total_misses());
        if total == 0 {
            0.0
        } else {
            local as f64 / total as f64
        }
    }

    /// A stable 64-bit FNV-1a digest of the *complete* result: execution
    /// time, every per-node counter, the full per-kind traffic matrix, and
    /// the access/barrier totals.  Two results compare `==` iff their
    /// fingerprints match (modulo the vanishing hash-collision probability),
    /// so committed fingerprints pin bit-identical simulator behaviour
    /// across refactors without committing whole `SimResult`s (the
    /// golden-snapshot parity tests rely on this).
    ///
    /// The field enumeration below is the fingerprint *format*: changing it
    /// (or the meaning of any field feeding it) invalidates every committed
    /// golden, which is exactly the alarm it exists to raise.
    pub fn fingerprint(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = FNV_OFFSET;
        let mut feed = |v: u64| {
            for byte in v.to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(FNV_PRIME);
            }
        };
        feed(self.execution_time.raw());
        feed(self.accesses);
        feed(self.barriers);
        feed(self.per_node.len() as u64);
        for n in &self.per_node {
            feed(n.l1_hits);
            feed(n.local_misses);
            feed(n.remote_misses);
            feed(n.remote_capacity_misses);
            feed(n.cold_misses);
            feed(n.coherence_misses);
            feed(n.capacity_conflict_misses);
            feed(n.migrations);
            feed(n.replications);
            feed(n.relocations);
            feed(n.page_cache_replacements);
            feed(n.switches_to_rw);
            feed(n.page_op_cycles.raw());
            feed(n.memory_stall_cycles.raw());
        }
        for kind in dsm_protocol::MsgKind::ALL {
            feed(self.traffic.messages_of(kind));
            feed(self.traffic.bytes_of(kind));
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result_with(exec: u64, per_node: Vec<NodeStats>) -> SimResult {
        SimResult {
            system: "test".into(),
            workload: "toy".into(),
            execution_time: Cycles::new(exec),
            per_node,
            traffic: TrafficStats::new(),
            accesses: 0,
            barriers: 0,
        }
    }

    #[test]
    fn normalization_is_a_ratio() {
        let baseline = result_with(1_000, vec![]);
        let slower = result_with(1_600, vec![]);
        assert!((slower.normalized_against(&baseline) - 1.6).abs() < 1e-12);
        assert!((baseline.normalized_against(&baseline) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn zero_baseline_degrades_gracefully() {
        let baseline = result_with(0, vec![]);
        let r = result_with(10, vec![]);
        assert_eq!(r.normalized_against(&baseline), 1.0);
    }

    #[test]
    fn per_node_averages() {
        let a = NodeStats {
            remote_misses: 100,
            remote_capacity_misses: 60,
            migrations: 2,
            relocations: 10,
            local_misses: 50,
            ..Default::default()
        };
        let b = NodeStats {
            remote_misses: 300,
            remote_capacity_misses: 100,
            migrations: 4,
            relocations: 30,
            local_misses: 150,
            ..Default::default()
        };
        let r = result_with(1, vec![a, b]);
        assert_eq!(r.total_remote_misses(), 400);
        assert_eq!(r.per_node_remote_misses(), 200.0);
        assert_eq!(r.per_node_remote_capacity_misses(), 80.0);
        assert_eq!(r.per_node_migrations(), 3.0);
        assert_eq!(r.per_node_relocations(), 20.0);
        assert_eq!(r.total_page_operations(), 46);
        assert!((r.local_hit_fraction() - 200.0 / 600.0).abs() < 1e-12);
    }

    #[test]
    fn node_stats_helpers() {
        let n = NodeStats {
            local_misses: 5,
            remote_misses: 7,
            migrations: 1,
            replications: 2,
            relocations: 3,
            ..Default::default()
        };
        assert_eq!(n.total_misses(), 12);
        assert_eq!(n.page_operations(), 6);
    }

    #[test]
    fn empty_result_is_safe() {
        let r = result_with(10, vec![]);
        assert_eq!(r.per_node_remote_misses(), 0.0);
        assert_eq!(r.local_hit_fraction(), 0.0);
    }

    /// Every ratio helper on the all-zero edge (empty trace, no nodes):
    /// nothing may divide by zero or go NaN.
    #[test]
    fn zero_denominators_never_produce_nan() {
        let zero = result_with(0, vec![]);
        assert_eq!(zero.normalized_against(&zero), 1.0, "0/0 normalizes to 1");
        assert_eq!(zero.per_node_remote_misses(), 0.0);
        assert_eq!(zero.per_node_remote_capacity_misses(), 0.0);
        assert_eq!(zero.per_node_migrations(), 0.0);
        assert_eq!(zero.per_node_replications(), 0.0);
        assert_eq!(zero.per_node_relocations(), 0.0);
        assert_eq!(zero.local_hit_fraction(), 0.0);
        assert_eq!(zero.total_page_operations(), 0);

        // Zero-valued nodes (the zero-node-counter edge, not just the
        // zero-node-count edge).
        let quiet = result_with(0, vec![NodeStats::default(), NodeStats::default()]);
        assert_eq!(quiet.per_node_remote_misses(), 0.0);
        assert_eq!(quiet.local_hit_fraction(), 0.0);
        assert!(quiet.normalized_against(&quiet).is_finite());
    }
}
