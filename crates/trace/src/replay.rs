//! Compact branch-trace capture and replay.
//!
//! The paper's own methodology is trace-driven: the benchmarks were
//! traced once and every scheme was scored off the recorded branch
//! stream. [`TraceBuf`] is that recording — one buffer per
//! (benchmark, layout, run) — storing every [`ExecHooks`] event
//! (branches, calls, returns) with delta-encoded PCs and LEB128
//! varint fields, typically 4–8 bytes per event. [`Capture`] adapts a
//! `TraceBuf` to `ExecHooks` so the interpreter fills it in a single
//! live pass, and [`replay`] feeds the recorded stream back into any
//! other `ExecHooks` sink (predictor evaluators, mix collectors, a
//! return-address stack) without re-interpreting the program.
//!
//! Replay is bit-exact: the reconstructed [`BranchEvent`]s compare
//! equal to the live ones field for field, so every statistics
//! collector produces identical results either way (enforced by the
//! `replay_fidelity` integration tests in `branchlab-experiments`).

use branchlab_ir::{Addr, BlockId, BranchId, Cond, FuncId};

use crate::event::{BranchEvent, BranchKind, ExecHooks};

/// Event tags (first byte of every record).
const TAG_COND: u8 = 0;
const TAG_UNCOND_DIRECT: u8 = 1;
const TAG_UNCOND_INDIRECT: u8 = 2;
const TAG_CALL: u8 = 3;
const TAG_RET: u8 = 4;

/// Flags byte layout for conditional branches.
const FLAG_TAKEN: u8 = 1 << 3;
const FLAG_LIKELY: u8 = 1 << 4;
const COND_MASK: u8 = 0b111;

fn cond_index(c: Cond) -> u8 {
    match c {
        Cond::Eq => 0,
        Cond::Ne => 1,
        Cond::Lt => 2,
        Cond::Le => 3,
        Cond::Gt => 4,
        Cond::Ge => 5,
    }
}

fn cond_from_index(i: u8) -> Option<Cond> {
    Some(match i {
        0 => Cond::Eq,
        1 => Cond::Ne,
        2 => Cond::Lt,
        3 => Cond::Le,
        4 => Cond::Gt,
        5 => Cond::Ge,
        _ => return None,
    })
}

fn push_varint(bytes: &mut Vec<u8>, mut v: u64) {
    loop {
        let b = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            bytes.push(b);
            break;
        }
        bytes.push(b | 0x80);
    }
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// One run's recorded event stream: delta-encoded PCs, varint fields.
///
/// Append with [`Capture`] (or the `record_*` methods), read back with
/// [`replay`]. Buffers are deterministic in the event stream, so equal
/// executions produce byte-identical buffers.
#[derive(Clone, Debug, Default)]
pub struct TraceBuf {
    bytes: Vec<u8>,
    events: u64,
    last_pc: u32,
}

/// Two buffers are equal when they decode to the same event stream —
/// i.e. same encoded bytes and event count; the transient encoder
/// state (`last_pc`) is excluded so a disk-loaded buffer compares
/// equal to the freshly captured one.
impl PartialEq for TraceBuf {
    fn eq(&self, other: &Self) -> bool {
        self.bytes == other.bytes && self.events == other.events
    }
}

impl Eq for TraceBuf {}

impl TraceBuf {
    /// An empty buffer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of recorded events.
    #[must_use]
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Encoded size in bytes.
    #[must_use]
    pub fn byte_len(&self) -> usize {
        self.bytes.len()
    }

    /// The raw encoded stream (for on-disk caching).
    #[must_use]
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Rebuild a buffer from a stored byte stream and event count
    /// (the on-disk cache loader). The bytes are *not* validated here;
    /// [`replay`] reports corruption.
    #[must_use]
    pub fn from_parts(bytes: Vec<u8>, events: u64) -> Self {
        TraceBuf {
            bytes,
            events,
            last_pc: 0,
        }
    }

    fn push_pc(&mut self, pc: Addr) {
        push_varint(
            &mut self.bytes,
            zigzag(i64::from(pc.0) - i64::from(self.last_pc)),
        );
        self.last_pc = pc.0;
    }

    /// Record one executed branch.
    pub fn record_branch(&mut self, ev: &BranchEvent) {
        match ev.kind {
            BranchKind::Cond => {
                self.bytes.push(TAG_COND);
                let cond = ev.cond.map_or(COND_MASK, cond_index);
                let mut flags = cond;
                if ev.taken {
                    flags |= FLAG_TAKEN;
                }
                if ev.likely {
                    flags |= FLAG_LIKELY;
                }
                self.bytes.push(flags);
            }
            BranchKind::UncondDirect => self.bytes.push(TAG_UNCOND_DIRECT),
            BranchKind::UncondIndirect => self.bytes.push(TAG_UNCOND_INDIRECT),
        }
        self.push_pc(ev.pc);
        // fallthrough = pc + 1 + slots; slots is tiny, store it raw.
        push_varint(
            &mut self.bytes,
            u64::from(ev.fallthrough.0 - ev.pc.0).saturating_sub(1),
        );
        push_varint(
            &mut self.bytes,
            zigzag(i64::from(ev.target.0) - i64::from(ev.pc.0)),
        );
        push_varint(&mut self.bytes, u64::from(ev.branch.func.0));
        push_varint(&mut self.bytes, u64::from(ev.branch.block.0));
        self.events += 1;
    }

    /// Record one executed call.
    pub fn record_call(&mut self, from: Addr, callee: FuncId) {
        self.bytes.push(TAG_CALL);
        self.push_pc(from);
        push_varint(&mut self.bytes, u64::from(callee.0));
        self.events += 1;
    }

    /// Record one executed return.
    pub fn record_ret(&mut self, from: Addr, to: Addr) {
        self.bytes.push(TAG_RET);
        self.push_pc(from);
        push_varint(&mut self.bytes, zigzag(i64::from(to.0) - i64::from(from.0)));
        self.events += 1;
    }
}

/// [`ExecHooks`] adapter that records every event into a [`TraceBuf`].
///
/// Hand `&mut Capture` to the interpreter (optionally composed with
/// live sinks via the tuple impl) and take the buffer out afterwards.
#[derive(Clone, Debug, Default)]
pub struct Capture {
    /// The buffer being filled.
    pub buf: TraceBuf,
}

impl Capture {
    /// A capture with an empty buffer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Consume the capture, yielding the recorded buffer.
    #[must_use]
    pub fn into_buf(self) -> TraceBuf {
        self.buf
    }
}

impl ExecHooks for Capture {
    fn branch(&mut self, ev: &BranchEvent) {
        self.buf.record_branch(ev);
    }
    fn call(&mut self, from: Addr, callee: FuncId) {
        self.buf.record_call(from, callee);
    }
    fn ret(&mut self, from: Addr, to: Addr) {
        self.buf.record_ret(from, to);
    }
}

/// A malformed trace buffer (truncated stream, out-of-range field).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReplayError {
    /// Byte offset of the record that failed to decode.
    pub offset: usize,
    /// What went wrong.
    pub reason: &'static str,
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "corrupt trace at byte {}: {}", self.offset, self.reason)
    }
}

impl std::error::Error for ReplayError {}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

/// Build a decode error off the hot path: every check below branches to
/// here only on corrupt input.
#[cold]
#[inline(never)]
fn corrupt(offset: usize, reason: &'static str) -> ReplayError {
    ReplayError { offset, reason }
}

impl Reader<'_> {
    #[inline]
    fn err(&self, reason: &'static str) -> ReplayError {
        corrupt(self.pos, reason)
    }

    #[inline]
    fn byte(&mut self) -> Result<u8, ReplayError> {
        match self.bytes.get(self.pos) {
            Some(&b) => {
                self.pos += 1;
                Ok(b)
            }
            None => Err(corrupt(self.pos, "truncated record")),
        }
    }

    /// LEB128 decode. Most fields (slots, ids, short deltas) fit one
    /// byte, so that case skips the loop.
    #[inline]
    fn varint(&mut self) -> Result<u64, ReplayError> {
        if let Some(&b) = self.bytes.get(self.pos) {
            if b & 0x80 == 0 {
                self.pos += 1;
                return Ok(u64::from(b));
            }
        }
        self.varint_multi()
    }

    fn varint_multi(&mut self) -> Result<u64, ReplayError> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let b = self.byte()?;
            if shift >= 64 {
                return Err(self.err("varint overflow"));
            }
            v |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    #[inline]
    fn svarint(&mut self) -> Result<i64, ReplayError> {
        Ok(unzigzag(self.varint()?))
    }

    #[inline]
    fn addr_from(&mut self, base: i64, delta: i64) -> Result<Addr, ReplayError> {
        match u32::try_from(base + delta) {
            Ok(a) => Ok(Addr(a)),
            Err(_) => Err(self.err("address out of range")),
        }
    }

    /// A varint that must fit a `u32` id.
    #[inline]
    fn id(&mut self, reason: &'static str) -> Result<u32, ReplayError> {
        match u32::try_from(self.varint()?) {
            Ok(v) => Ok(v),
            Err(_) => Err(self.err(reason)),
        }
    }
}

/// One decoded trace record, as yielded by [`TraceReader`].
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    /// An executed branch (any [`BranchKind`]).
    Branch(BranchEvent),
    /// An executed call instruction.
    Call {
        /// Address of the call instruction.
        from: Addr,
        /// The function called into.
        callee: FuncId,
    },
    /// An executed return instruction.
    Ret {
        /// Address of the return instruction.
        from: Addr,
        /// The address control returns to.
        to: Addr,
    },
}

/// Streaming decoder over one [`TraceBuf`]'s records.
///
/// Pull one event at a time with [`TraceReader::next_event`]; the final
/// `Ok(None)` also validates the buffer's recorded event count. Several
/// readers can decode the same shared `&TraceBuf` concurrently — the
/// buffer is never mutated — which is what the parallel sweep executor
/// in `branchlab-experiments` relies on.
pub struct TraceReader<'a> {
    r: Reader<'a>,
    last_pc: i64,
    delivered: u64,
    expected: u64,
}

impl<'a> TraceReader<'a> {
    /// A reader positioned at the first record of `buf`.
    #[must_use]
    pub fn new(buf: &'a TraceBuf) -> Self {
        TraceReader {
            r: Reader {
                bytes: &buf.bytes,
                pos: 0,
            },
            last_pc: 0,
            delivered: 0,
            expected: buf.events,
        }
    }

    /// Events decoded so far.
    #[must_use]
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Decode the next record, or `Ok(None)` at a clean end of stream.
    ///
    /// # Errors
    /// Returns [`ReplayError`] on a truncated or corrupt buffer,
    /// including an event count that does not match the stream.
    #[inline]
    pub fn next_event(&mut self) -> Result<Option<TraceEvent>, ReplayError> {
        let r = &mut self.r;
        if r.pos >= r.bytes.len() {
            if self.delivered != self.expected {
                return Err(corrupt(r.bytes.len(), "event count mismatch"));
            }
            return Ok(None);
        }
        let tag = r.byte()?;
        let event = match tag {
            TAG_COND | TAG_UNCOND_DIRECT | TAG_UNCOND_INDIRECT => {
                let (kind, taken, likely, cond) = if tag == TAG_COND {
                    let flags = r.byte()?;
                    let cond = cond_from_index(flags & COND_MASK);
                    (
                        BranchKind::Cond,
                        flags & FLAG_TAKEN != 0,
                        flags & FLAG_LIKELY != 0,
                        cond,
                    )
                } else if tag == TAG_UNCOND_DIRECT {
                    (BranchKind::UncondDirect, true, false, None)
                } else {
                    (BranchKind::UncondIndirect, true, false, None)
                };
                let pc_delta = r.svarint()?;
                let pc = r.addr_from(self.last_pc, pc_delta)?;
                self.last_pc = i64::from(pc.0);
                let slots = r.varint()?;
                let fallthrough = r.addr_from(i64::from(pc.0) + 1, slots as i64)?;
                let target_delta = r.svarint()?;
                let target = r.addr_from(i64::from(pc.0), target_delta)?;
                let func = r.id("func id out of range")?;
                let block = r.id("block id out of range")?;
                TraceEvent::Branch(BranchEvent {
                    pc,
                    kind,
                    taken,
                    target,
                    fallthrough,
                    branch: BranchId {
                        func: FuncId(func),
                        block: BlockId(block),
                    },
                    likely,
                    cond,
                })
            }
            TAG_CALL => {
                let pc_delta = r.svarint()?;
                let from = r.addr_from(self.last_pc, pc_delta)?;
                self.last_pc = i64::from(from.0);
                let callee = r.id("callee id out of range")?;
                TraceEvent::Call {
                    from,
                    callee: FuncId(callee),
                }
            }
            TAG_RET => {
                let pc_delta = r.svarint()?;
                let from = r.addr_from(self.last_pc, pc_delta)?;
                self.last_pc = i64::from(from.0);
                let to_delta = r.svarint()?;
                let to = r.addr_from(i64::from(from.0), to_delta)?;
                TraceEvent::Ret { from, to }
            }
            _ => return Err(r.err("unknown event tag")),
        };
        self.delivered += 1;
        Ok(Some(event))
    }
}

/// Replay a recorded run into `hooks`, reconstructing the exact event
/// stream the interpreter produced at capture time. Returns the number
/// of events delivered.
///
/// ```
/// use branchlab_trace::{replay, BranchMix, Capture, ExecHooks};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // Capture a live run once …
/// let module = branchlab_minic::compile(
///     "int main() { int i; int s = 0; for (i = 0; i < 10; i++) { s += i; } return s; }",
/// )?;
/// let program = branchlab_ir::lower(&module)?;
/// let mut cap = Capture::new();
/// branchlab_interp::run(&program, &Default::default(), &[], &mut cap)?;
/// let buf = cap.into_buf();
///
/// // … then replay it into any sink, bit-identical to the live pass.
/// let mut mix = BranchMix::new();
/// let delivered = replay(&buf, &mut mix)?;
/// assert_eq!(delivered, buf.events());
/// assert!(mix.cond_total() > 0);
/// # Ok(())
/// # }
/// ```
///
/// # Errors
/// Returns [`ReplayError`] on a truncated or corrupt buffer (the event
/// count must also match the stream).
pub fn replay<H: ExecHooks>(buf: &TraceBuf, hooks: &mut H) -> Result<u64, ReplayError> {
    let mut reader = TraceReader::new(buf);
    while let Some(event) = reader.next_event()? {
        match event {
            TraceEvent::Branch(ev) => hooks.branch(&ev),
            TraceEvent::Call { from, callee } => hooks.call(from, callee),
            TraceEvent::Ret { from, to } => hooks.ret(from, to),
        }
    }
    Ok(reader.delivered())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TraceRecorder;

    fn branch(pc: u32, kind: BranchKind, taken: bool, target: u32, likely: bool) -> BranchEvent {
        BranchEvent {
            pc: Addr(pc),
            kind,
            taken,
            target: Addr(target),
            fallthrough: Addr(pc + 3),
            branch: BranchId {
                func: FuncId(pc % 5),
                block: BlockId(pc % 11),
            },
            likely,
            cond: if kind == BranchKind::Cond {
                Some(Cond::Lt)
            } else {
                None
            },
        }
    }

    #[test]
    fn varint_roundtrip() {
        for v in [0u64, 1, 127, 128, 300, u64::from(u32::MAX), u64::MAX] {
            let mut bytes = Vec::new();
            push_varint(&mut bytes, v);
            let mut r = Reader {
                bytes: &bytes,
                pos: 0,
            };
            assert_eq!(r.varint().unwrap(), v);
        }
    }

    #[test]
    fn zigzag_roundtrip() {
        for v in [
            0i64,
            1,
            -1,
            63,
            -64,
            i64::from(i32::MAX),
            i64::MIN,
            i64::MAX,
        ] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn capture_replay_roundtrip_is_bit_exact() {
        let events = vec![
            branch(10, BranchKind::Cond, true, 50, true),
            branch(50, BranchKind::Cond, false, 10, false),
            branch(53, BranchKind::UncondDirect, true, 7, false),
            branch(7, BranchKind::UncondIndirect, true, 900, false),
        ];
        let mut cap = Capture::new();
        for ev in &events {
            cap.branch(ev);
        }
        cap.call(Addr(900), FuncId(3));
        cap.ret(Addr(950), Addr(901));
        let buf = cap.into_buf();
        assert_eq!(buf.events(), 6);

        struct All {
            rec: TraceRecorder,
            calls: Vec<(Addr, FuncId)>,
            rets: Vec<(Addr, Addr)>,
        }
        impl ExecHooks for All {
            fn branch(&mut self, ev: &BranchEvent) {
                self.rec.branch(ev);
            }
            fn call(&mut self, from: Addr, callee: FuncId) {
                self.calls.push((from, callee));
            }
            fn ret(&mut self, from: Addr, to: Addr) {
                self.rets.push((from, to));
            }
        }
        let mut all = All {
            rec: TraceRecorder::with_capacity(64),
            calls: Vec::new(),
            rets: Vec::new(),
        };
        let n = replay(&buf, &mut all).unwrap();
        assert_eq!(n, 6);
        assert_eq!(all.rec.events(), events.as_slice());
        assert_eq!(all.calls, vec![(Addr(900), FuncId(3))]);
        assert_eq!(all.rets, vec![(Addr(950), Addr(901))]);
    }

    #[test]
    fn encoding_is_compact() {
        let mut cap = Capture::new();
        // A tight loop: same branch taken 1000 times.
        for _ in 0..1000 {
            cap.branch(&branch(64, BranchKind::Cond, true, 60, true));
        }
        let buf = cap.into_buf();
        // Tag + flags + pc delta (0 after first) + slots + target + ids.
        assert!(
            buf.byte_len() <= 8 * 1000,
            "encoding too large: {} bytes for 1000 events",
            buf.byte_len()
        );
    }

    #[test]
    fn truncated_buffer_is_reported() {
        let mut cap = Capture::new();
        cap.branch(&branch(10, BranchKind::Cond, true, 50, false));
        let buf = cap.into_buf();
        let cut = TraceBuf::from_parts(buf.as_bytes()[..buf.byte_len() - 2].to_vec(), 1);
        let err = replay(&cut, &mut ()).unwrap_err();
        assert_eq!(err.reason, "truncated record");
        assert!(err.to_string().contains("corrupt trace"));
    }

    #[test]
    fn every_corruption_reports_its_reason_and_offset() {
        let mut huge_id = vec![TAG_CALL, 0];
        push_varint(&mut huge_id, u64::from(u32::MAX) + 1);
        let mut long_varint = vec![TAG_COND, 0];
        long_varint.extend([0xff; 11]);
        for (bytes, offset, reason) in [
            (vec![TAG_CALL], 1, "truncated record"),
            (vec![TAG_COND, 0, 0x80], 3, "truncated record"),
            (long_varint, 13, "varint overflow"),
            (vec![TAG_CALL, 1, 0], 2, "address out of range"),
            (huge_id, 7, "callee id out of range"),
            (vec![9], 1, "unknown event tag"),
        ] {
            let err = replay(&TraceBuf::from_parts(bytes, 1), &mut ()).unwrap_err();
            assert_eq!(err, ReplayError { offset, reason });
        }
    }

    #[test]
    fn unknown_tag_is_reported() {
        let bad = TraceBuf::from_parts(vec![0xee], 1);
        assert_eq!(
            replay(&bad, &mut ()).unwrap_err().reason,
            "unknown event tag"
        );
    }

    #[test]
    fn event_count_mismatch_is_reported() {
        let mut cap = Capture::new();
        cap.call(Addr(1), FuncId(0));
        let buf = cap.into_buf();
        let lied = TraceBuf::from_parts(buf.as_bytes().to_vec(), 2);
        assert_eq!(
            replay(&lied, &mut ()).unwrap_err().reason,
            "event count mismatch"
        );
    }
}
