//! Seekless file-backed trace record/replay.
//!
//! A recorded trace is a single forward-written, forward-read binary file —
//! no seeking, no index — so traces can be recorded straight out of a
//! streaming generator and replayed with bounded memory:
//!
//! ```text
//! header:  magic "DSMTRC01" | name_len u32 | name bytes (UTF-8)
//!          | nodes u16 | procs_per_node u16
//! events:  repeated  proc u16 | tag u8 | payload
//!          tag 0 read   : addr u64      tag 3 barrier : id u32
//!          tag 1 write  : addr u64      tag 4 lock    : id u32
//!          tag 2 compute: cycles u32    tag 5 unlock  : id u32
//!          tag 6 end-of-stream (no payload; the processor emits nothing
//!                further — written the moment the recorder observes the
//!                stream end)
//! ```
//!
//! All integers are little-endian.  End of file is end of trace.
//!
//! [`record`] drains a [`TraceSource`] *round-robin* across processors
//! (one event per non-exhausted processor per sweep).  Only each
//! processor's own event order matters for replay correctness, and the
//! fair interleaving bounds [`ReplaySource`]'s demultiplexing buffers to
//! roughly one event per processor regardless of how the original
//! generator phased its emission.  The per-processor end markers let
//! replay answer "is this processor done?" without reading ahead, even
//! for traces whose processors finish at very different points.

use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::Path;

use crate::access::{MemRef, TraceEvent};
use crate::addr::{GlobalAddr, ProcId, Topology};
use crate::source::{Demux, TraceSource};
use crate::trace::{TraceError, TraceStats};

/// File magic: format name + version.
pub const TRACE_MAGIC: &[u8; 8] = b"DSMTRC01";

fn encode_event(out: &mut Vec<u8>, proc: u16, ev: &TraceEvent) {
    out.extend_from_slice(&proc.to_le_bytes());
    match ev {
        TraceEvent::Access(m) => {
            out.push(if m.kind.is_write() { 1 } else { 0 });
            out.extend_from_slice(&m.addr.0.to_le_bytes());
        }
        TraceEvent::Compute(c) => {
            out.push(2);
            out.extend_from_slice(&c.to_le_bytes());
        }
        TraceEvent::Barrier(id) => {
            out.push(3);
            out.extend_from_slice(&id.to_le_bytes());
        }
        TraceEvent::Lock(id) => {
            out.push(4);
            out.extend_from_slice(&id.to_le_bytes());
        }
        TraceEvent::Unlock(id) => {
            out.push(5);
            out.extend_from_slice(&id.to_le_bytes());
        }
    }
}

/// Drain `source` into `out` in the format above.
///
/// Processors are drained round-robin, one event per sweep, so the file's
/// interleaving is fair regardless of the source's own emission order.
pub fn record(source: &mut dyn TraceSource, out: &mut dyn Write) -> io::Result<()> {
    let topology = source.topology();
    let name = source.name().as_bytes().to_vec();
    out.write_all(TRACE_MAGIC)?;
    out.write_all(&(name.len() as u32).to_le_bytes())?;
    out.write_all(&name)?;
    out.write_all(&topology.nodes.to_le_bytes())?;
    out.write_all(&topology.procs_per_node.to_le_bytes())?;

    let procs = topology.total_procs();
    let mut live: Vec<bool> = vec![true; procs];
    let mut remaining = procs;
    let mut buf = Vec::with_capacity(16 * 1024);
    while remaining > 0 {
        for (p, alive) in live.iter_mut().enumerate() {
            if !*alive {
                continue;
            }
            match source.next_event(ProcId(p as u16)) {
                Some(ev) => encode_event(&mut buf, p as u16, &ev),
                None => {
                    // Explicit end-of-stream marker so replay never has to
                    // read ahead to learn a processor is done.
                    buf.extend_from_slice(&(p as u16).to_le_bytes());
                    buf.push(6);
                    *alive = false;
                    remaining -= 1;
                }
            }
        }
        if buf.len() >= 8 * 1024 {
            out.write_all(&buf)?;
            buf.clear();
        }
    }
    out.write_all(&buf)?;
    out.flush()
}

/// [`record`] into a freshly created (or truncated) file.
pub fn record_to_file(source: &mut dyn TraceSource, path: impl AsRef<Path>) -> io::Result<()> {
    let mut w = BufWriter::new(File::create(path)?);
    record(source, &mut w)
}

fn corrupt(detail: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("corrupt trace file: {detail}"),
    )
}

/// One demultiplexed record of a trace file.
enum Record {
    Event(u16, TraceEvent),
    EndOfStream(u16),
    EndOfFile,
}

/// A [`TraceSource`] replaying a recorded trace file.
///
/// The file is read strictly forward; events for processors other than the
/// one currently being pulled are parked in small per-processor queues.
/// With the fair interleaving [`record`] writes, those queues stay at about
/// one event per processor, and the per-processor end markers answer
/// exhaustion queries without reading ahead.
pub struct ReplaySource<R: Read> {
    name: String,
    topology: Topology,
    reader: Option<R>,
    demux: Demux,
}

impl ReplaySource<BufReader<File>> {
    /// Open a recorded trace file for replay.
    pub fn open(path: impl AsRef<Path>) -> io::Result<Self> {
        Self::from_reader(BufReader::new(File::open(path)?))
    }
}

impl<R: Read> ReplaySource<R> {
    /// Start replaying from any forward reader (header is parsed eagerly).
    pub fn from_reader(mut reader: R) -> io::Result<Self> {
        let mut magic = [0u8; 8];
        reader.read_exact(&mut magic)?;
        if &magic != TRACE_MAGIC {
            return Err(corrupt(
                "bad magic (not a recorded trace, or wrong version)",
            ));
        }
        let mut len4 = [0u8; 4];
        reader.read_exact(&mut len4)?;
        let name_len = u32::from_le_bytes(len4) as usize;
        if name_len > 4096 {
            return Err(corrupt("unreasonable workload-name length"));
        }
        let mut name = vec![0u8; name_len];
        reader.read_exact(&mut name)?;
        let name = String::from_utf8(name).map_err(|_| corrupt("workload name not UTF-8"))?;
        let mut n2 = [0u8; 2];
        reader.read_exact(&mut n2)?;
        let nodes = u16::from_le_bytes(n2);
        reader.read_exact(&mut n2)?;
        let procs_per_node = u16::from_le_bytes(n2);
        if nodes == 0 || procs_per_node == 0 {
            return Err(corrupt("topology with a zero dimension"));
        }
        // ProcIds are u16: anything past 65536 processors cannot appear in
        // event records, so a bigger header is corruption — reject it before
        // sizing the demux by it.
        if nodes as usize * procs_per_node as usize > Topology::MAX_PROCS {
            return Err(corrupt("topology larger than the processor id space"));
        }
        let topology = Topology::new(nodes, procs_per_node);
        Ok(ReplaySource {
            name,
            topology,
            reader: Some(reader),
            demux: Demux::new(topology),
        })
    }

    /// Replace the parked-event window cap (default
    /// [`crate::source::default_window_cap`] for the trace's topology).
    pub fn with_window_cap(mut self, cap: usize) -> Self {
        self.demux.set_window_cap(cap);
        self
    }

    /// Read one record.
    fn read_record(reader: &mut R) -> io::Result<Record> {
        let mut head = [0u8; 3];
        // Distinguish clean EOF (no bytes of a record) from truncation.
        let n = reader.read(&mut head[..1])?;
        if n == 0 {
            return Ok(Record::EndOfFile);
        }
        reader.read_exact(&mut head[1..])?;
        let proc = u16::from_le_bytes([head[0], head[1]]);
        let tag = head[2];
        let ev = match tag {
            0 | 1 => {
                let mut b = [0u8; 8];
                reader.read_exact(&mut b)?;
                let addr = GlobalAddr(u64::from_le_bytes(b));
                if tag == 1 {
                    TraceEvent::Access(MemRef::write(addr))
                } else {
                    TraceEvent::Access(MemRef::read(addr))
                }
            }
            2..=5 => {
                let mut b = [0u8; 4];
                reader.read_exact(&mut b)?;
                let v = u32::from_le_bytes(b);
                match tag {
                    2 => TraceEvent::Compute(v),
                    3 => TraceEvent::Barrier(v),
                    4 => TraceEvent::Lock(v),
                    _ => TraceEvent::Unlock(v),
                }
            }
            6 => return Ok(Record::EndOfStream(proc)),
            _ => return Err(corrupt("unknown event tag")),
        };
        Ok(Record::Event(proc, ev))
    }

    /// Advance the file by one record into the demux buffers.  Returns
    /// `false` at end of file.  A truncated or corrupt record past the
    /// header poisons the demux with [`TraceError::CorruptReplay`], which
    /// the consumer collects through [`TraceSource::take_error`].
    fn pump(&mut self) -> bool {
        let Some(reader) = &mut self.reader else {
            return false;
        };
        let procs = self.topology.total_procs();
        let message = match Self::read_record(reader) {
            Ok(Record::Event(p, ev)) if (p as usize) < procs => {
                self.demux.push(ProcId(p), ev);
                if self.demux.is_poisoned() {
                    self.reader = None;
                    return false;
                }
                return true;
            }
            Ok(Record::EndOfStream(p)) if (p as usize) < procs => {
                self.demux.end(ProcId(p));
                return true;
            }
            Ok(Record::EndOfFile) => {
                self.reader = None;
                self.demux.end_all();
                return false;
            }
            Ok(Record::Event(p, _)) | Ok(Record::EndOfStream(p)) => {
                format!("record for processor {p} outside the topology")
            }
            Err(e) => e.to_string(),
        };
        self.reader = None;
        self.demux.poison(TraceError::CorruptReplay {
            trace: self.name.clone(),
            message,
        });
        false
    }
}

impl<R: Read> TraceSource for ReplaySource<R> {
    fn name(&self) -> &str {
        &self.name
    }

    fn topology(&self) -> Topology {
        self.topology
    }

    fn next_event(&mut self, proc: ProcId) -> Option<TraceEvent> {
        loop {
            if let Some(ev) = self.demux.pop(proc) {
                return Some(ev);
            }
            if self.demux.is_ended(proc) || !self.pump() {
                return None;
            }
        }
    }

    fn exhausted(&mut self, proc: ProcId) -> bool {
        loop {
            if self.demux.has_buffered(proc) {
                return false;
            }
            if self.demux.is_ended(proc) || !self.pump() {
                return true;
            }
        }
    }

    /// Burst pull: read records only until `proc` has a first event, then
    /// drain what the demux already parked for it (same contract as
    /// [`crate::FusedSource::next_burst`], file-fed).
    fn next_burst(&mut self, proc: ProcId, out: &mut Vec<TraceEvent>, max: usize) -> usize {
        loop {
            let n = self.demux.pop_burst(proc, out, max);
            if n > 0 {
                return n;
            }
            if self.demux.is_ended(proc) || !self.pump() {
                return 0;
            }
        }
    }

    fn stats_so_far(&self) -> TraceStats {
        self.demux.stats()
    }

    fn buffered_events(&self) -> usize {
        self.demux.buffered_events()
    }

    fn peak_buffered_events(&self) -> usize {
        self.demux.peak_buffered_events()
    }

    fn take_error(&mut self) -> Option<TraceError> {
        self.demux.take_error()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::TraceBuilder;
    use crate::trace::ProgramTrace;

    fn toy_trace() -> ProgramTrace {
        let topo = Topology::new(2, 2);
        let mut b = TraceBuilder::new("toy", topo).with_think_cycles(1);
        b.read(ProcId(0), GlobalAddr(0));
        b.write(ProcId(3), GlobalAddr(64));
        b.barrier_all();
        b.lock(ProcId(2), 5);
        b.compute(ProcId(2), 123);
        b.unlock(ProcId(2), 5);
        b.barrier_all();
        b.build()
    }

    #[test]
    fn record_replay_round_trips_every_event() {
        let trace = toy_trace();
        let mut bytes = Vec::new();
        record(&mut trace.source(), &mut bytes).unwrap();

        let mut replay = ReplaySource::from_reader(&bytes[..]).unwrap();
        assert_eq!(replay.name(), "toy");
        assert_eq!(replay.topology(), trace.topology);
        for p in trace.topology.proc_ids() {
            let mut got = Vec::new();
            while let Some(ev) = replay.next_event(p) {
                got.push(ev);
            }
            assert_eq!(got, trace.per_proc[p.index()], "stream of {p:?}");
            assert!(replay.exhausted(p));
        }
        assert_eq!(replay.stats_so_far(), trace.stats());
    }

    #[test]
    fn replay_supports_adversarial_pull_order() {
        let trace = toy_trace();
        let mut bytes = Vec::new();
        record(&mut trace.source(), &mut bytes).unwrap();
        let mut replay = ReplaySource::from_reader(&bytes[..]).unwrap();
        // Pull the *last* processor first: demux must park other procs'
        // events without losing them.
        let mut got3 = Vec::new();
        while let Some(ev) = replay.next_event(ProcId(3)) {
            got3.push(ev);
        }
        assert_eq!(got3, trace.per_proc[3]);
        assert!(!replay.exhausted(ProcId(0)));
        let mut got0 = Vec::new();
        while let Some(ev) = replay.next_event(ProcId(0)) {
            got0.push(ev);
        }
        assert_eq!(got0, trace.per_proc[0]);
    }

    #[test]
    fn end_markers_answer_exhaustion_without_reading_ahead() {
        // Proc 1 emits one event and stops; proc 0 keeps going for 1000
        // more.  The recorded end marker for proc 1 lands within the first
        // few records (round-robin), so draining proc 1 and asking if it is
        // exhausted must NOT force the rest of the file through the demux.
        let topo = Topology::new(2, 1);
        let mut b = TraceBuilder::new("uneven", topo);
        b.read(ProcId(1), GlobalAddr(0));
        for i in 0..1000u64 {
            b.read(ProcId(0), GlobalAddr(i * 64));
        }
        let trace = b.build();
        let mut bytes = Vec::new();
        record(&mut trace.source(), &mut bytes).unwrap();

        let mut replay = ReplaySource::from_reader(&bytes[..]).unwrap();
        assert!(replay.next_event(ProcId(1)).is_some());
        assert!(replay.next_event(ProcId(1)).is_none());
        assert!(replay.exhausted(ProcId(1)));
        // Only the handful of records up to proc 1's end marker were read
        // (stats count *pulled* events, so the parked window is what proves
        // nothing was read ahead).
        assert!(
            replay.buffered_events() < 10,
            "exhaustion query dragged the whole file through the demux: {} parked",
            replay.buffered_events()
        );
        // The rest still replays intact.
        let mut got0 = 0usize;
        while replay.next_event(ProcId(0)).is_some() {
            got0 += 1;
        }
        assert_eq!(got0, trace.per_proc[0].len());
    }

    #[test]
    fn bad_magic_is_rejected() {
        let bytes = b"NOTATRACE_______".to_vec();
        assert!(ReplaySource::from_reader(&bytes[..]).is_err());
    }

    #[test]
    fn oversized_topology_header_is_rejected() {
        // Valid magic and name, then a corrupt topology of 65535x65535
        // processors: must be rejected at open, not allocated.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(TRACE_MAGIC);
        bytes.extend_from_slice(&2u32.to_le_bytes());
        bytes.extend_from_slice(b"xx");
        bytes.extend_from_slice(&u16::MAX.to_le_bytes());
        bytes.extend_from_slice(&u16::MAX.to_le_bytes());
        let err = match ReplaySource::from_reader(&bytes[..]) {
            Err(e) => e,
            Ok(_) => panic!("oversized topology accepted"),
        };
        assert!(err.to_string().contains("processor id space"), "{err}");
    }

    #[test]
    fn corrupt_records_poison_the_source_instead_of_panicking() {
        let trace = toy_trace();
        let mut bytes = Vec::new();
        record(&mut trace.source(), &mut bytes).unwrap();
        let header = TRACE_MAGIC.len() + 4 + "toy".len() + 4;
        // A record cut short, a processor outside the 2x2 topology, and an
        // unknown event tag, each as the first record after the header.
        let truncated = bytes[..header + 2].to_vec();
        let mut out_of_topology = bytes[..header].to_vec();
        out_of_topology.extend_from_slice(&[9, 0, 2, 1, 0, 0, 0]);
        let mut bad_tag = bytes[..header].to_vec();
        bad_tag.extend_from_slice(&[0, 0, 7]);
        for (what, file) in [
            ("truncated", truncated),
            ("out-of-topology", out_of_topology),
            ("bad tag", bad_tag),
        ] {
            let mut replay = ReplaySource::from_reader(&file[..]).unwrap();
            assert!(replay.next_event(ProcId(0)).is_none(), "{what}");
            assert!(replay.exhausted(ProcId(1)), "{what}");
            match replay.take_error() {
                Some(TraceError::CorruptReplay { trace, .. }) => assert_eq!(trace, "toy"),
                other => panic!("{what}: expected CorruptReplay, got {other:?}"),
            }
        }
    }

    #[test]
    fn file_round_trip() {
        let trace = toy_trace();
        let path = std::env::temp_dir().join("dsm-repro-replay-test.trc");
        record_to_file(&mut trace.source(), &path).unwrap();
        let mut replay = ReplaySource::open(&path).unwrap();
        let mut events = 0usize;
        for p in trace.topology.proc_ids() {
            while replay.next_event(p).is_some() {
                events += 1;
            }
        }
        assert_eq!(events, trace.total_events());
        std::fs::remove_file(&path).ok();
    }
}
