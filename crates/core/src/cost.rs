//! The cost model of Table 3 (block and page operation latencies).
//!
//! All values are in 600 MHz processor cycles.  The *base* model corresponds
//! to an aggressive system with hardware support for page operations (lazy
//! TLB shootdown through directory poisoning, page-copy hardware), as in the
//! SGI Origin 2000.  The *slow* model (Section 6.2) increases the page
//! operation overheads roughly ten-fold to represent stock kernel-based
//! implementations: 50 µs soft traps, 5 µs TLB shootdowns and an extra 10 µs
//! of page copying.

use mem_trace::BLOCKS_PER_PAGE;
use sim_engine::Cycles;

/// Latencies of the simulated memory system (the paper's Table 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostModel {
    /// One-way network latency.
    pub network_latency: Cycles,
    /// Latency of a miss satisfied by local memory (or the block/page cache).
    pub local_miss: Cycles,
    /// Round-trip latency of a remote miss satisfied by the home node.
    pub remote_miss: Cycles,
    /// Latency of a processor-cache hit.
    pub cache_hit: Cycles,
    /// Cost of a soft trap (page fault, R-NUMA relocation interrupt).
    pub soft_trap: Cycles,
    /// Cost of shooting down a TLB on one node.
    pub tlb_shootdown: Cycles,
    /// Minimum cost of a page allocation/replacement or R-NUMA relocation
    /// (no blocks to flush).
    pub page_alloc_min: Cycles,
    /// Maximum cost of a page allocation/replacement or R-NUMA relocation
    /// (a full page of blocks to flush).
    pub page_alloc_max: Cycles,
    /// Minimum cost of page invalidation and data gathering (migration /
    /// replication / switch to read-write).
    pub page_gather_min: Cycles,
    /// Maximum cost of page invalidation and data gathering.
    pub page_gather_max: Cycles,
    /// Minimum cost of copying a page to a new home or replica.
    pub page_copy_min: Cycles,
    /// Maximum cost of copying a page to a new home or replica.
    pub page_copy_max: Cycles,
}

impl CostModel {
    /// The paper's base system (Table 3): aggressive hardware support.
    pub const fn base() -> Self {
        CostModel {
            network_latency: Cycles(80),
            local_miss: Cycles(104),
            remote_miss: Cycles(418),
            cache_hit: Cycles(1),
            soft_trap: Cycles(3000),
            tlb_shootdown: Cycles(300),
            page_alloc_min: Cycles(3000),
            page_alloc_max: Cycles(11500),
            page_gather_min: Cycles(3000),
            page_gather_max: Cycles(11500),
            page_copy_min: Cycles(8000),
            page_copy_max: Cycles(21800),
        }
    }

    /// The paper's slow page-operation system (Section 6.2): 50 µs soft
    /// traps, 5 µs TLB shootdowns, and 10 µs (6000 cycles) of extra page
    /// copying overhead per page.
    pub const fn slow() -> Self {
        CostModel {
            soft_trap: Cycles(30_000),
            tlb_shootdown: Cycles(3_000),
            page_copy_min: Cycles(8_000 + 6_000),
            page_copy_max: Cycles(21_800 + 6_000),
            ..Self::base()
        }
    }

    /// A variant of this model with the remote path stretched by `factor`
    /// (Section 6.3 uses `factor = 4`, giving a remote:local ratio of 16).
    pub fn with_remote_latency_factor(mut self, factor: u64) -> Self {
        self.network_latency = self.network_latency * factor;
        self.remote_miss = self.remote_miss * factor;
        self
    }

    /// Remote-to-local access-latency ratio.
    pub fn remote_to_local_ratio(&self) -> f64 {
        self.remote_miss.raw() as f64 / self.local_miss.raw() as f64
    }

    /// Interpolate a per-page operation cost between `min` and `max`
    /// according to how many of the page's blocks are involved.
    fn scaled(min: Cycles, max: Cycles, blocks: u32, blocks_per_page: u64) -> Cycles {
        let blocks = u64::from(blocks).min(blocks_per_page);
        let span = max.raw().saturating_sub(min.raw());
        Cycles::new(min.raw() + span * blocks / blocks_per_page)
    }

    /// Cost of a page allocation, replacement, or R-NUMA relocation that
    /// flushes `blocks_flushed` blocks, at the paper's 64-blocks-per-page
    /// geometry.
    pub fn page_alloc_cost(&self, blocks_flushed: u32) -> Cycles {
        self.page_alloc_cost_at(blocks_flushed, BLOCKS_PER_PAGE)
    }

    /// [`CostModel::page_alloc_cost`] for a page of `blocks_per_page`
    /// blocks (the interpolation endpoint moves with the swept geometry).
    pub fn page_alloc_cost_at(&self, blocks_flushed: u32, blocks_per_page: u64) -> Cycles {
        Self::scaled(
            self.page_alloc_min,
            self.page_alloc_max,
            blocks_flushed,
            blocks_per_page,
        )
    }

    /// Cost of page invalidation and data gathering when `blocks_cached`
    /// blocks are cached somewhere in the cluster (paper geometry).
    pub fn page_gather_cost(&self, blocks_cached: u32) -> Cycles {
        self.page_gather_cost_at(blocks_cached, BLOCKS_PER_PAGE)
    }

    /// [`CostModel::page_gather_cost`] for a page of `blocks_per_page`
    /// blocks.
    pub fn page_gather_cost_at(&self, blocks_cached: u32, blocks_per_page: u64) -> Cycles {
        Self::scaled(
            self.page_gather_min,
            self.page_gather_max,
            blocks_cached,
            blocks_per_page,
        )
    }

    /// Cost of copying a page of which `blocks_valid` blocks hold data
    /// (paper geometry).
    pub fn page_copy_cost(&self, blocks_valid: u32) -> Cycles {
        self.page_copy_cost_at(blocks_valid, BLOCKS_PER_PAGE)
    }

    /// [`CostModel::page_copy_cost`] for a page of `blocks_per_page` blocks.
    pub fn page_copy_cost_at(&self, blocks_valid: u32, blocks_per_page: u64) -> Cycles {
        Self::scaled(
            self.page_copy_min,
            self.page_copy_max,
            blocks_valid,
            blocks_per_page,
        )
    }

    /// Latency of a remote miss that must be forwarded to a dirty third-node
    /// owner (an extra network traversal over the plain remote miss).
    pub fn dirty_remote_miss(&self) -> Cycles {
        self.remote_miss + self.network_latency + Cycles::new(24)
    }
}

impl Default for CostModel {
    fn default() -> Self {
        Self::base()
    }
}

/// Policy thresholds used by the page-operation engines.
///
/// The paper tunes one set of thresholds for the fast systems and a more
/// conservative set for the slow systems of Section 6.2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Thresholds {
    /// Misses by one node to one page before migration/replication triggers.
    pub migrep_threshold: u64,
    /// Misses handled at a home node between counter resets.
    pub migrep_reset_interval: u64,
    /// Capacity/conflict refetches before R-NUMA relocates a page.
    pub rnuma_threshold: u64,
    /// Misses to a page before R-NUMA is *allowed* to relocate it (only used
    /// by the R-NUMA+MigRep hybrid of Section 6.4; 0 = no delay).
    pub rnuma_relocation_delay: u64,
}

impl Thresholds {
    /// The paper's fast-system thresholds: 800-miss migration/replication
    /// threshold, 32000-miss reset interval, 32-refetch R-NUMA threshold.
    pub const fn paper_fast() -> Self {
        Thresholds {
            migrep_threshold: 800,
            migrep_reset_interval: 32_000,
            rnuma_threshold: 32,
            rnuma_relocation_delay: 0,
        }
    }

    /// The paper's slow-system thresholds (Section 6.2): 1200 and 64.
    pub const fn paper_slow() -> Self {
        Thresholds {
            migrep_threshold: 1200,
            migrep_reset_interval: 32_000,
            rnuma_threshold: 64,
            rnuma_relocation_delay: 0,
        }
    }

    /// Thresholds scaled down by `factor` for reduced-size workloads, so the
    /// miss-count-to-threshold ratios stay comparable to the paper's runs.
    pub fn scaled_down(self, factor: u64) -> Self {
        let f = factor.max(1);
        Thresholds {
            migrep_threshold: (self.migrep_threshold / f).max(1),
            migrep_reset_interval: (self.migrep_reset_interval / f).max(4),
            rnuma_threshold: (self.rnuma_threshold / f).max(1),
            rnuma_relocation_delay: self.rnuma_relocation_delay / f,
        }
    }

    /// Set the hybrid's relocation delay (Section 6.4 uses 32000 misses).
    pub fn with_relocation_delay(mut self, delay: u64) -> Self {
        self.rnuma_relocation_delay = delay;
        self
    }
}

impl Default for Thresholds {
    fn default() -> Self {
        Self::paper_fast()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_model_matches_table_3() {
        let c = CostModel::base();
        assert_eq!(c.network_latency, Cycles::new(80));
        assert_eq!(c.local_miss, Cycles::new(104));
        assert_eq!(c.remote_miss, Cycles::new(418));
        assert_eq!(c.soft_trap, Cycles::new(3000));
        assert_eq!(c.tlb_shootdown, Cycles::new(300));
        assert_eq!(c.page_alloc_min, Cycles::new(3000));
        assert_eq!(c.page_alloc_max, Cycles::new(11500));
        assert_eq!(c.page_gather_min, Cycles::new(3000));
        assert_eq!(c.page_gather_max, Cycles::new(11500));
        assert_eq!(c.page_copy_min, Cycles::new(8000));
        assert_eq!(c.page_copy_max, Cycles::new(21800));
    }

    #[test]
    fn slow_model_matches_section_6_2() {
        let c = CostModel::slow();
        // 50 us soft trap and 5 us TLB shootdown at 600 MHz.
        assert_eq!(c.soft_trap, Cycles::from_micros(50.0));
        assert_eq!(c.tlb_shootdown, Cycles::from_micros(5.0));
        // 10 us (6000 cycles) of additional page copy cost.
        assert_eq!(
            c.page_copy_min,
            CostModel::base().page_copy_min + Cycles::new(6000)
        );
        assert_eq!(
            c.page_copy_max,
            CostModel::base().page_copy_max + Cycles::new(6000)
        );
        // Block-level latencies unchanged.
        assert_eq!(c.remote_miss, CostModel::base().remote_miss);
    }

    #[test]
    fn remote_latency_factor_scales_ratio() {
        let base = CostModel::base();
        assert!((base.remote_to_local_ratio() - 4.02).abs() < 0.01);
        let far = base.with_remote_latency_factor(4);
        assert_eq!(far.remote_miss, Cycles::new(418 * 4));
        assert_eq!(far.network_latency, Cycles::new(320));
        assert!((far.remote_to_local_ratio() - 16.08).abs() < 0.01);
        // Local path unchanged.
        assert_eq!(far.local_miss, base.local_miss);
    }

    #[test]
    fn page_operation_costs_interpolate_with_block_count() {
        let c = CostModel::base();
        assert_eq!(c.page_alloc_cost(0), Cycles::new(3000));
        assert_eq!(c.page_alloc_cost(64), Cycles::new(11500));
        let mid = c.page_alloc_cost(32);
        assert!(mid > Cycles::new(3000) && mid < Cycles::new(11500));
        assert_eq!(c.page_copy_cost(0), Cycles::new(8000));
        assert_eq!(c.page_copy_cost(64), Cycles::new(21800));
        assert_eq!(c.page_gather_cost(64), Cycles::new(11500));
        // Counts beyond a full page clamp.
        assert_eq!(c.page_alloc_cost(200), Cycles::new(11500));
    }

    #[test]
    fn dirty_remote_miss_exceeds_clean_remote_miss() {
        let c = CostModel::base();
        assert!(c.dirty_remote_miss() > c.remote_miss);
    }

    #[test]
    fn paper_thresholds() {
        let fast = Thresholds::paper_fast();
        assert_eq!(fast.migrep_threshold, 800);
        assert_eq!(fast.migrep_reset_interval, 32_000);
        assert_eq!(fast.rnuma_threshold, 32);
        let slow = Thresholds::paper_slow();
        assert_eq!(slow.migrep_threshold, 1200);
        assert_eq!(slow.rnuma_threshold, 64);
    }

    #[test]
    fn scaled_thresholds_never_reach_zero() {
        let t = Thresholds::paper_fast().scaled_down(10_000);
        assert!(t.migrep_threshold >= 1);
        assert!(t.rnuma_threshold >= 1);
        assert!(t.migrep_reset_interval >= 4);
    }

    #[test]
    fn relocation_delay_builder() {
        let t = Thresholds::paper_fast().with_relocation_delay(32_000);
        assert_eq!(t.rnuma_relocation_delay, 32_000);
    }
}
