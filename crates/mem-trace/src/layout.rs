//! Shared-segment allocation for workload generators.
//!
//! Workloads lay out their shared data structures (matrices, particle
//! arrays, key arrays, grids, ...) in the global address space exactly the
//! way the original SPLASH-2 programs would with `G_MALLOC`: each named
//! structure receives a page-aligned, contiguous range of bytes.  Page
//! alignment matters because every page-granularity mechanism in the paper
//! (first-touch, migration, replication, R-NUMA relocation) keys off which
//! data structure a page belongs to.

use crate::addr::{GlobalAddr, PageId, PAGE_SIZE};

/// A named, contiguous, page-aligned region of the global address space.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Segment {
    /// Human-readable name (e.g. `"matrix"`, `"keys"`).
    pub name: String,
    /// First byte of the segment; always page-aligned.
    pub base: GlobalAddr,
    /// Size in bytes as requested by the workload.
    pub len: u64,
    /// Size of one element for index-based addressing.
    pub elem_size: u64,
}

impl Segment {
    /// Byte address of element `index`.
    ///
    /// # Panics
    /// Panics (in debug builds) if the element lies outside the segment.
    #[inline]
    pub fn elem(&self, index: u64) -> GlobalAddr {
        let off = index * self.elem_size;
        debug_assert!(
            off + self.elem_size <= self.len.max(self.elem_size),
            "element {index} out of bounds in segment {}",
            self.name
        );
        GlobalAddr(self.base.0 + off)
    }

    /// Byte address of `(row, col)` in a row-major 2-D array of `cols`
    /// columns.
    #[inline]
    pub fn elem2(&self, row: u64, col: u64, cols: u64) -> GlobalAddr {
        self.elem(row * cols + col)
    }

    /// Number of whole elements the segment holds.
    #[inline]
    pub fn elements(&self) -> u64 {
        self.len / self.elem_size
    }

    /// First page of the segment.
    #[inline]
    pub fn first_page(&self) -> PageId {
        self.base.page()
    }

    /// Number of pages the segment spans.
    #[inline]
    pub fn pages(&self) -> u64 {
        self.len.div_ceil(PAGE_SIZE).max(1)
    }

    /// Iterate over every page the segment spans.
    pub fn page_ids(&self) -> impl Iterator<Item = PageId> {
        let first = self.base.page().0;
        (first..first + self.pages()).map(PageId)
    }

    /// `true` if `addr` lies within the segment's allocated bytes.
    #[inline]
    pub fn contains(&self, addr: GlobalAddr) -> bool {
        addr.0 >= self.base.0 && addr.0 < self.base.0 + self.len
    }
}

/// A bump allocator over the global shared address space.
///
/// Allocation is deterministic: segments are laid out in the order they are
/// requested, each starting on a fresh page, mirroring how the SPLASH-2
/// programs allocate their major shared structures once at start-up.
#[derive(Debug, Clone, Default)]
pub struct AddressSpace {
    next_page: u64,
    segments: Vec<Segment>,
}

impl AddressSpace {
    /// An empty address space starting at page 0.
    pub fn new() -> Self {
        AddressSpace {
            next_page: 0,
            segments: Vec::new(),
        }
    }

    /// Allocate a segment of `count` elements of `elem_size` bytes each.
    ///
    /// # Panics
    /// Panics if `elem_size` or `count` is zero.
    pub fn alloc(&mut self, name: impl Into<String>, count: u64, elem_size: u64) -> Segment {
        assert!(elem_size > 0, "element size must be non-zero");
        assert!(count > 0, "segment must hold at least one element");
        let len = count * elem_size;
        let pages = len.div_ceil(PAGE_SIZE).max(1);
        let seg = Segment {
            name: name.into(),
            base: PageId(self.next_page).base_addr(),
            len,
            elem_size,
        };
        self.next_page += pages;
        self.segments.push(seg.clone());
        seg
    }

    /// Allocate raw bytes (element size 1).
    pub fn alloc_bytes(&mut self, name: impl Into<String>, bytes: u64) -> Segment {
        self.alloc(name, bytes, 1)
    }

    /// Total footprint in pages allocated so far.
    pub fn pages_allocated(&self) -> u64 {
        self.next_page
    }

    /// Total footprint in bytes (page-granular).
    pub fn bytes_allocated(&self) -> u64 {
        self.next_page * PAGE_SIZE
    }

    /// All segments allocated so far, in allocation order.
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// Look up a segment by name.
    pub fn segment(&self, name: &str) -> Option<&Segment> {
        self.segments.iter().find(|s| s.name == name)
    }

    /// The segment (if any) containing `addr`.
    pub fn segment_of(&self, addr: GlobalAddr) -> Option<&Segment> {
        self.segments.iter().find(|s| s.contains(addr))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::BLOCK_SIZE;

    #[test]
    fn segments_are_page_aligned_and_disjoint() {
        let mut space = AddressSpace::new();
        let a = space.alloc("a", 100, 8);
        let b = space.alloc("b", 5000, 8); // spans multiple pages
        let c = space.alloc("c", 1, 1);
        for seg in [&a, &b, &c] {
            assert_eq!(
                seg.base.0 % PAGE_SIZE,
                0,
                "segment {} not aligned",
                seg.name
            );
        }
        assert!(a.base.0 + a.pages() * PAGE_SIZE <= b.base.0);
        assert!(b.base.0 + b.pages() * PAGE_SIZE <= c.base.0);
        assert_eq!(space.segments().len(), 3);
    }

    #[test]
    fn element_addressing() {
        let mut space = AddressSpace::new();
        let m = space.alloc("matrix", 16 * 16, 8);
        assert_eq!(m.elem(0), m.base);
        assert_eq!(m.elem(1).0, m.base.0 + 8);
        assert_eq!(m.elem2(2, 3, 16).0, m.base.0 + (2 * 16 + 3) * 8);
        assert_eq!(m.elements(), 256);
    }

    #[test]
    fn pages_and_contains() {
        let mut space = AddressSpace::new();
        let seg = space.alloc("grid", PAGE_SIZE / 4 + 10, 4); // a bit over one page
        assert_eq!(seg.pages(), 2);
        assert_eq!(seg.page_ids().count(), 2);
        assert!(seg.contains(seg.base));
        assert!(seg.contains(GlobalAddr(seg.base.0 + seg.len - 1)));
        assert!(!seg.contains(GlobalAddr(seg.base.0 + seg.len)));
    }

    #[test]
    fn footprint_accounting() {
        let mut space = AddressSpace::new();
        space.alloc("x", 1, 1);
        space.alloc("y", PAGE_SIZE * 3, 1);
        assert_eq!(space.pages_allocated(), 1 + 3);
        assert_eq!(space.bytes_allocated(), 4 * PAGE_SIZE);
    }

    #[test]
    fn lookup_by_name_and_address() {
        let mut space = AddressSpace::new();
        let keys = space.alloc("keys", 1024, 4);
        let _hist = space.alloc("hist", 256, 4);
        assert_eq!(space.segment("keys").unwrap().base, keys.base);
        assert!(space.segment("nope").is_none());
        let inside = GlobalAddr(keys.base.0 + 5 * BLOCK_SIZE);
        assert_eq!(space.segment_of(inside).unwrap().name, "keys");
    }

    #[test]
    #[should_panic(expected = "element size")]
    fn zero_element_size_rejected() {
        AddressSpace::new().alloc("bad", 10, 0);
    }
}
