//! Memory references and per-processor trace events.

use crate::addr::{BlockId, GlobalAddr, PageId};

/// Whether a memory reference reads or writes shared data.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// A load from shared memory.
    Read,
    /// A store to shared memory.
    Write,
}

impl AccessKind {
    /// `true` for writes.
    #[inline]
    pub fn is_write(self) -> bool {
        matches!(self, AccessKind::Write)
    }
}

/// A single shared-memory reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemRef {
    /// Target byte address in the global shared address space.
    pub addr: GlobalAddr,
    /// Read or write.
    pub kind: AccessKind,
}

impl MemRef {
    /// A read of `addr`.
    #[inline]
    pub fn read(addr: GlobalAddr) -> Self {
        MemRef {
            addr,
            kind: AccessKind::Read,
        }
    }

    /// A write to `addr`.
    #[inline]
    pub fn write(addr: GlobalAddr) -> Self {
        MemRef {
            addr,
            kind: AccessKind::Write,
        }
    }

    /// The cache block this reference touches.
    #[inline]
    pub fn block(&self) -> BlockId {
        self.addr.block()
    }

    /// The page this reference touches.
    #[inline]
    pub fn page(&self) -> PageId {
        self.addr.page()
    }
}

/// One event in a processor's trace.
///
/// Traces are an abstraction of the instruction stream: shared-memory
/// references are explicit, all other work (private data accesses that hit
/// in the L1, ALU work) is folded into `Compute` delays, and synchronization
/// is expressed with named barriers and locks exactly as the PARMACS macros
/// of SPLASH-2 would.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// A shared-memory read or write.
    Access(MemRef),
    /// Local computation consuming the given number of processor cycles.
    Compute(u32),
    /// Global barrier with an identifier; all processors must emit barriers
    /// with identical ids in identical order.
    Barrier(u32),
    /// Acquire the lock with the given id (spin until free).
    Lock(u32),
    /// Release the lock with the given id.
    Unlock(u32),
}

impl TraceEvent {
    /// Read of `addr`.
    #[inline]
    pub fn read(addr: GlobalAddr) -> Self {
        TraceEvent::Access(MemRef::read(addr))
    }

    /// Write to `addr`.
    #[inline]
    pub fn write(addr: GlobalAddr) -> Self {
        TraceEvent::Access(MemRef::write(addr))
    }

    /// `true` if this is a shared-memory access.
    #[inline]
    pub fn is_access(&self) -> bool {
        matches!(self, TraceEvent::Access(_))
    }

    /// `true` if this is a synchronization event (barrier, lock or unlock).
    #[inline]
    pub fn is_sync(&self) -> bool {
        matches!(
            self,
            TraceEvent::Barrier(_) | TraceEvent::Lock(_) | TraceEvent::Unlock(_)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::{BLOCK_SIZE, PAGE_SIZE};

    #[test]
    fn memref_helpers() {
        let r = MemRef::read(GlobalAddr(PAGE_SIZE + BLOCK_SIZE));
        assert_eq!(r.kind, AccessKind::Read);
        assert!(!r.kind.is_write());
        assert_eq!(r.page(), PageId(1));
        assert_eq!(r.block().index_in_page(), 1);

        let w = MemRef::write(GlobalAddr(0));
        assert!(w.kind.is_write());
    }

    #[test]
    fn event_classification() {
        assert!(TraceEvent::read(GlobalAddr(0)).is_access());
        assert!(TraceEvent::write(GlobalAddr(0)).is_access());
        assert!(!TraceEvent::Compute(10).is_access());
        assert!(TraceEvent::Barrier(0).is_sync());
        assert!(TraceEvent::Lock(1).is_sync());
        assert!(TraceEvent::Unlock(1).is_sync());
        assert!(!TraceEvent::Compute(1).is_sync());
    }
}
