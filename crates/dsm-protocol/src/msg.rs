//! Protocol message kinds and traffic accounting.
//!
//! The paper's comparison is fundamentally about *traffic*: how many remote
//! messages, and of what size, each technique generates.  Every transfer the
//! simulator performs over the interconnect is tagged with a [`MsgKind`] so
//! the harness can report message and byte counts per category.

use mem_trace::BLOCK_SIZE;

/// Kinds of inter-node protocol messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MsgKind {
    /// Read request to a home node.
    ReadRequest,
    /// Read reply carrying one cache block.
    ReadReply,
    /// Read-exclusive / upgrade request to a home node.
    WriteRequest,
    /// Write reply carrying one cache block (plus ownership).
    WriteReply,
    /// Invalidate a remote copy.
    Invalidation,
    /// Acknowledgement of an invalidation.
    InvalidationAck,
    /// Write-back of a dirty block to its home.
    WriteBack,
    /// Intervention/forward request to the current owner of a dirty block.
    OwnerForward,
    /// Page-operation control message (flush request, migration notice,
    /// replica grant, switch-to-read-write request, ...).
    PageControl,
    /// One block of page data moved by a page operation (gather, copy,
    /// relocation refetch).
    PageDataBlock,
}

/// Fixed header size for every message, in bytes.
pub const MSG_HEADER_BYTES: u64 = 16;

impl MsgKind {
    /// Payload bytes carried by a message of this kind at the paper's
    /// 64-byte block size (excluding header).
    pub fn payload_bytes(self) -> u64 {
        self.payload_bytes_at(BLOCK_SIZE)
    }

    /// Payload bytes for `block_bytes`-sized cache blocks: data-carrying
    /// messages move exactly one block, so the traffic a figure reports
    /// scales with the swept block size.
    pub fn payload_bytes_at(self, block_bytes: u64) -> u64 {
        match self {
            MsgKind::ReadReply
            | MsgKind::WriteReply
            | MsgKind::WriteBack
            | MsgKind::PageDataBlock => block_bytes,
            MsgKind::ReadRequest
            | MsgKind::WriteRequest
            | MsgKind::Invalidation
            | MsgKind::InvalidationAck
            | MsgKind::OwnerForward
            | MsgKind::PageControl => 0,
        }
    }

    /// Total bytes on the wire at the paper's block size.
    pub fn total_bytes(self) -> u64 {
        MSG_HEADER_BYTES + self.payload_bytes()
    }

    /// Total bytes on the wire for `block_bytes`-sized blocks.
    pub fn total_bytes_at(self, block_bytes: u64) -> u64 {
        MSG_HEADER_BYTES + self.payload_bytes_at(block_bytes)
    }

    /// `true` if the message carries a data block.
    pub fn carries_data(self) -> bool {
        self.payload_bytes() > 0
    }

    /// All message kinds, for reporting.
    pub const ALL: [MsgKind; 10] = [
        MsgKind::ReadRequest,
        MsgKind::ReadReply,
        MsgKind::WriteRequest,
        MsgKind::WriteReply,
        MsgKind::Invalidation,
        MsgKind::InvalidationAck,
        MsgKind::WriteBack,
        MsgKind::OwnerForward,
        MsgKind::PageControl,
        MsgKind::PageDataBlock,
    ];

    fn index(self) -> usize {
        MsgKind::ALL
            .iter()
            .position(|k| *k == self)
            // dsm-lint: allow(panic-path, MsgKind::ALL enumerates every variant; position always finds self)
            .expect("kind present in ALL")
    }
}

/// Per-kind message and byte counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TrafficStats {
    messages: [u64; 10],
    bytes: [u64; 10],
}

impl TrafficStats {
    /// New, zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Rebuild counters from per-kind arrays in [`MsgKind::ALL`] order —
    /// the inverse of reading [`TrafficStats::messages_of`] /
    /// [`TrafficStats::bytes_of`] per kind, for deserializing stored
    /// results (e.g. the sweep service's on-disk cache).
    pub fn from_counts(messages: [u64; 10], bytes: [u64; 10]) -> Self {
        TrafficStats { messages, bytes }
    }

    /// Record one message of `kind` at the paper's block size.
    pub fn record(&mut self, kind: MsgKind) {
        self.record_at(kind, BLOCK_SIZE);
    }

    /// Record one message of `kind` carrying `block_bytes`-sized data
    /// payloads.
    pub fn record_at(&mut self, kind: MsgKind, block_bytes: u64) {
        let i = kind.index();
        self.messages[i] += 1;
        self.bytes[i] += kind.total_bytes_at(block_bytes);
    }

    /// Messages of a given kind.
    pub fn messages_of(&self, kind: MsgKind) -> u64 {
        self.messages[kind.index()]
    }

    /// Bytes of a given kind.
    pub fn bytes_of(&self, kind: MsgKind) -> u64 {
        self.bytes[kind.index()]
    }

    /// Total messages.
    pub fn total_messages(&self) -> u64 {
        self.messages.iter().sum()
    }

    /// Total bytes.
    pub fn total_bytes(&self) -> u64 {
        self.bytes.iter().sum()
    }

    /// Bytes moved by page operations (control + page data blocks).
    pub fn page_operation_bytes(&self) -> u64 {
        self.bytes_of(MsgKind::PageControl) + self.bytes_of(MsgKind::PageDataBlock)
    }

    /// Merge another set of counters into this one.
    pub fn merge(&mut self, other: &TrafficStats) {
        for i in 0..self.messages.len() {
            self.messages[i] += other.messages[i];
            self.bytes[i] += other.bytes[i];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn data_messages_carry_a_block() {
        assert_eq!(MsgKind::ReadReply.payload_bytes(), BLOCK_SIZE);
        assert_eq!(MsgKind::ReadRequest.payload_bytes(), 0);
        assert!(MsgKind::WriteBack.carries_data());
        assert!(!MsgKind::Invalidation.carries_data());
        assert_eq!(
            MsgKind::PageDataBlock.total_bytes(),
            MSG_HEADER_BYTES + BLOCK_SIZE
        );
    }

    #[test]
    fn traffic_stats_accumulate_per_kind() {
        let mut t = TrafficStats::new();
        t.record(MsgKind::ReadRequest);
        t.record(MsgKind::ReadReply);
        t.record(MsgKind::ReadReply);
        assert_eq!(t.messages_of(MsgKind::ReadRequest), 1);
        assert_eq!(t.messages_of(MsgKind::ReadReply), 2);
        assert_eq!(t.total_messages(), 3);
        assert_eq!(
            t.total_bytes(),
            MSG_HEADER_BYTES + 2 * (MSG_HEADER_BYTES + BLOCK_SIZE)
        );
    }

    #[test]
    fn page_operation_bytes_isolated() {
        let mut t = TrafficStats::new();
        t.record(MsgKind::PageControl);
        t.record(MsgKind::PageDataBlock);
        t.record(MsgKind::ReadReply);
        assert_eq!(
            t.page_operation_bytes(),
            MSG_HEADER_BYTES + MSG_HEADER_BYTES + BLOCK_SIZE
        );
    }

    #[test]
    fn merge_sums_counters() {
        let mut a = TrafficStats::new();
        let mut b = TrafficStats::new();
        a.record(MsgKind::WriteBack);
        b.record(MsgKind::WriteBack);
        b.record(MsgKind::Invalidation);
        a.merge(&b);
        assert_eq!(a.messages_of(MsgKind::WriteBack), 2);
        assert_eq!(a.messages_of(MsgKind::Invalidation), 1);
    }

    #[test]
    fn from_counts_round_trips() {
        let mut t = TrafficStats::new();
        t.record(MsgKind::ReadReply);
        t.record(MsgKind::PageControl);
        let messages = MsgKind::ALL.map(|k| t.messages_of(k));
        let bytes = MsgKind::ALL.map(|k| t.bytes_of(k));
        assert_eq!(TrafficStats::from_counts(messages, bytes), t);
    }

    #[test]
    fn all_kinds_are_indexable() {
        let mut t = TrafficStats::new();
        for kind in MsgKind::ALL {
            t.record(kind);
        }
        assert_eq!(t.total_messages(), MsgKind::ALL.len() as u64);
    }
}
