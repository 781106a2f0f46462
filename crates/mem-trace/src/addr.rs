//! Global addresses, cache blocks, pages, and cluster topology.
//!
//! The paper's cluster (its Figure 1) is a network of eight 4-way SMP nodes.
//! Shared data lives in a single *global* physical address space; every page
//! has a *home node*.  Coherence is maintained at cache-block granularity
//! (64-byte blocks) while the page-level mechanisms — first-touch placement,
//! migration, replication, and R-NUMA relocation — operate on 4-KByte pages.

use std::fmt;

/// Cache block (coherence unit) size in bytes — the *paper's* geometry.
/// Machinery that supports page/block-size sweeps takes a [`Geometry`]
/// instead of reading this constant.
pub const BLOCK_SIZE: u64 = 64;
/// Virtual-memory page size in bytes (the paper's geometry; see
/// [`Geometry`]).
pub const PAGE_SIZE: u64 = 4096;
/// Number of cache blocks per page at the paper's geometry.
pub const BLOCKS_PER_PAGE: u64 = PAGE_SIZE / BLOCK_SIZE;

/// Address-space geometry: the page and cache-block sizes a machine is
/// simulated with.
///
/// Traces are streams of *byte* addresses, so geometry is purely a property
/// of the machine interpreting them: the same deterministic trace can be
/// swept across page and block sizes.  The inherent
/// [`GlobalAddr::page`]/[`GlobalAddr::block`] decompositions assume the
/// paper's 4-KB/64-B geometry; sweep-capable layers decompose through a
/// `Geometry` carried by their machine configuration instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Geometry {
    /// Virtual-memory page size in bytes (power of two).
    pub page_bytes: u64,
    /// Cache block (coherence unit) size in bytes (power of two, divides
    /// `page_bytes`).
    pub block_bytes: u64,
}

impl Geometry {
    /// The paper's geometry: 4-KByte pages, 64-byte blocks.
    pub const PAPER: Geometry = Geometry {
        page_bytes: PAGE_SIZE,
        block_bytes: BLOCK_SIZE,
    };

    /// Construct a geometry.
    ///
    /// # Panics
    /// Panics unless both sizes are powers of two with
    /// `block_bytes <= page_bytes`.
    pub fn new(page_bytes: u64, block_bytes: u64) -> Self {
        assert!(
            page_bytes.is_power_of_two() && block_bytes.is_power_of_two(),
            "page and block sizes must be powers of two"
        );
        assert!(
            block_bytes <= page_bytes,
            "block size must not exceed the page size"
        );
        Geometry {
            page_bytes,
            block_bytes,
        }
    }

    /// Number of cache blocks per page.
    #[inline]
    pub fn blocks_per_page(self) -> u64 {
        self.page_bytes / self.block_bytes
    }

    /// The page containing `addr`.
    #[inline]
    pub fn page_of(self, addr: GlobalAddr) -> PageId {
        PageId(addr.0 / self.page_bytes)
    }

    /// The block containing `addr`.
    #[inline]
    pub fn block_of(self, addr: GlobalAddr) -> BlockId {
        BlockId(addr.0 / self.block_bytes)
    }

    /// The page containing `block`.
    #[inline]
    pub fn page_of_block(self, block: BlockId) -> PageId {
        PageId(block.0 / self.blocks_per_page())
    }

    /// Index of `block` within its page (`0 .. blocks_per_page`).
    #[inline]
    pub fn index_in_page(self, block: BlockId) -> u64 {
        block.0 % self.blocks_per_page()
    }

    /// The first block of `page`.
    #[inline]
    pub fn first_block(self, page: PageId) -> BlockId {
        BlockId(page.0 * self.blocks_per_page())
    }
}

impl Default for Geometry {
    fn default() -> Self {
        Self::PAPER
    }
}

/// A byte address in the global shared physical address space.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GlobalAddr(pub u64);

/// A cache-block-aligned address (address / `BLOCK_SIZE`).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlockId(pub u64);

/// A page-aligned address (address / `PAGE_SIZE`).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PageId(pub u64);

/// A cluster node (SMP workstation) identifier.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u16);

/// A global processor identifier (`0 .. nodes * procs_per_node`).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProcId(pub u16);

impl GlobalAddr {
    /// The block containing this address.
    #[inline]
    pub fn block(self) -> BlockId {
        BlockId(self.0 / BLOCK_SIZE)
    }

    /// The page containing this address.
    #[inline]
    pub fn page(self) -> PageId {
        PageId(self.0 / PAGE_SIZE)
    }

    /// Byte offset within its page.
    #[inline]
    pub fn page_offset(self) -> u64 {
        self.0 % PAGE_SIZE
    }

    /// Byte offset within its block.
    #[inline]
    pub fn block_offset(self) -> u64 {
        self.0 % BLOCK_SIZE
    }
}

impl BlockId {
    /// The page containing this block.
    #[inline]
    pub fn page(self) -> PageId {
        PageId(self.0 / BLOCKS_PER_PAGE)
    }

    /// Index of this block within its page (`0 .. BLOCKS_PER_PAGE`).
    #[inline]
    pub fn index_in_page(self) -> u64 {
        self.0 % BLOCKS_PER_PAGE
    }

    /// First byte address of this block.
    #[inline]
    pub fn base_addr(self) -> GlobalAddr {
        GlobalAddr(self.0 * BLOCK_SIZE)
    }
}

impl PageId {
    /// First byte address of this page.
    #[inline]
    pub fn base_addr(self) -> GlobalAddr {
        GlobalAddr(self.0 * PAGE_SIZE)
    }

    /// First block of this page.
    #[inline]
    pub fn first_block(self) -> BlockId {
        BlockId(self.0 * BLOCKS_PER_PAGE)
    }

    /// Iterate over every block of this page.
    pub fn blocks(self) -> impl Iterator<Item = BlockId> {
        let first = self.0 * BLOCKS_PER_PAGE;
        (first..first + BLOCKS_PER_PAGE).map(BlockId)
    }

    /// `true` if `block` belongs to this page.
    #[inline]
    pub fn contains(self, block: BlockId) -> bool {
        block.page() == self
    }
}

impl NodeId {
    /// Numeric index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl ProcId {
    /// Numeric index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Cluster topology: how many SMP nodes, and how many processors per node.
///
/// The paper's baseline is 8 nodes x 4 processors (32 processors total).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Topology {
    /// Number of SMP nodes in the cluster.
    pub nodes: u16,
    /// Number of processors per SMP node.
    pub procs_per_node: u16,
}

impl Topology {
    /// The paper's baseline cluster: 8 nodes of 4 processors.
    pub const PAPER: Topology = Topology {
        nodes: 8,
        procs_per_node: 4,
    };

    /// The most processors a cluster can have: every [`ProcId`] is a `u16`.
    pub const MAX_PROCS: usize = 1 << 16;

    /// Construct a topology.
    ///
    /// # Panics
    /// Panics if either dimension is zero, or if the cluster would have more
    /// than [`Topology::MAX_PROCS`] processors.
    pub fn new(nodes: u16, procs_per_node: u16) -> Self {
        assert!(nodes > 0, "cluster needs at least one node");
        assert!(procs_per_node > 0, "node needs at least one processor");
        assert!(
            nodes as usize * procs_per_node as usize <= Self::MAX_PROCS,
            "{nodes} nodes x {procs_per_node} processors exceed the {} processor ids",
            Self::MAX_PROCS
        );
        Topology {
            nodes,
            procs_per_node,
        }
    }

    /// Total number of processors in the cluster.
    #[inline]
    pub fn total_procs(&self) -> usize {
        self.nodes as usize * self.procs_per_node as usize
    }

    /// The node a processor belongs to.
    #[inline]
    pub fn node_of(&self, proc: ProcId) -> NodeId {
        NodeId(proc.0 / self.procs_per_node)
    }

    /// The processors belonging to `node`, in order.
    pub fn procs_of(&self, node: NodeId) -> impl Iterator<Item = ProcId> {
        let first = node.index() * self.procs_per_node as usize;
        (first..first + self.procs_per_node as usize).map(|p| ProcId(p as u16))
    }

    /// Iterate over all node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> {
        (0..self.nodes).map(NodeId)
    }

    /// Iterate over all processor ids.
    pub fn proc_ids(&self) -> impl Iterator<Item = ProcId> {
        (0..self.total_procs()).map(|p| ProcId(p as u16))
    }

    /// `true` if two processors reside on the same node.
    #[inline]
    pub fn same_node(&self, a: ProcId, b: ProcId) -> bool {
        self.node_of(a) == self.node_of(b)
    }
}

impl fmt::Debug for GlobalAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{:x}", self.0)
    }
}
impl fmt::Debug for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "B{}", self.0)
    }
}
impl fmt::Debug for PageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}
impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "N{}", self.0)
    }
}
impl fmt::Debug for ProcId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cpu{}", self.0)
    }
}
impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}
impl fmt::Display for ProcId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn address_decomposition() {
        let a = GlobalAddr(PAGE_SIZE * 3 + BLOCK_SIZE * 5 + 7);
        assert_eq!(a.page(), PageId(3));
        assert_eq!(a.block(), BlockId(3 * BLOCKS_PER_PAGE + 5));
        assert_eq!(a.page_offset(), BLOCK_SIZE * 5 + 7);
        assert_eq!(a.block_offset(), 7);
    }

    #[test]
    fn block_page_relationship() {
        let p = PageId(9);
        let blocks: Vec<BlockId> = p.blocks().collect();
        assert_eq!(blocks.len(), BLOCKS_PER_PAGE as usize);
        assert_eq!(blocks[0], p.first_block());
        for (i, b) in blocks.iter().enumerate() {
            assert_eq!(b.page(), p);
            assert_eq!(b.index_in_page(), i as u64);
            assert!(p.contains(*b));
        }
        assert!(!p.contains(BlockId((p.0 + 1) * BLOCKS_PER_PAGE)));
    }

    #[test]
    fn block_base_addr_round_trips() {
        let b = BlockId(1234);
        assert_eq!(b.base_addr().block(), b);
        let p = PageId(77);
        assert_eq!(p.base_addr().page(), p);
    }

    #[test]
    fn paper_topology() {
        let t = Topology::PAPER;
        assert_eq!(t.total_procs(), 32);
        assert_eq!(t.node_of(ProcId(0)), NodeId(0));
        assert_eq!(t.node_of(ProcId(3)), NodeId(0));
        assert_eq!(t.node_of(ProcId(4)), NodeId(1));
        assert_eq!(t.node_of(ProcId(31)), NodeId(7));
        assert!(t.same_node(ProcId(8), ProcId(11)));
        assert!(!t.same_node(ProcId(7), ProcId(8)));
    }

    #[test]
    fn procs_of_node_enumerates_contiguously() {
        let t = Topology::new(4, 2);
        let procs: Vec<ProcId> = t.procs_of(NodeId(2)).collect();
        assert_eq!(procs, vec![ProcId(4), ProcId(5)]);
        assert_eq!(t.proc_ids().count(), 8);
        assert_eq!(t.node_ids().count(), 4);
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_nodes_rejected() {
        let _ = Topology::new(0, 4);
    }

    #[test]
    fn the_largest_cluster_enumerates_every_processor_id() {
        let t = Topology::new(256, 256);
        assert_eq!(t.total_procs(), Topology::MAX_PROCS);
        assert_eq!(t.proc_ids().last(), Some(ProcId(u16::MAX)));
        let last: Vec<ProcId> = t.procs_of(NodeId(255)).collect();
        assert_eq!((last[0], last[255]), (ProcId(65280), ProcId(u16::MAX)));
        assert_eq!(t.node_of(ProcId(u16::MAX)), NodeId(255));
    }

    #[test]
    #[should_panic(expected = "257 nodes x 256 processors exceed")]
    fn processor_products_past_the_id_range_are_rejected() {
        let _ = Topology::new(257, 256);
    }

    #[test]
    fn geometry_constants_are_consistent() {
        assert_eq!(BLOCKS_PER_PAGE * BLOCK_SIZE, PAGE_SIZE);
        assert!(BLOCK_SIZE.is_power_of_two());
        assert!(PAGE_SIZE.is_power_of_two());
    }
}
