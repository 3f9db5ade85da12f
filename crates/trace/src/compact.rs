//! Compact branch-point trace encoding: the one form in which replay
//! holds a captured stream.
//!
//! A [`TraceInstr`] record is a padded 32 bytes per dynamic
//! instruction, and the vast majority of records are sequential
//! non-branch instructions whose only information content is their
//! length. A [`CompactTrace`] instead stores the stream as a sequence of
//! **branch points** — one packed 12-byte record per control-relevant
//! instruction — separated by run-length encoded gaps of sequential
//! instructions:
//!
//! * [`BranchPoint`] (12 B): `gap` = number of sequential non-branch
//!   instructions since the previous point, `target_delta` = branch
//!   target as a signed 32-bit displacement from the branch's own
//!   address, and packed `flags` (3-bit kind code, taken, far-target,
//!   discontinuity and wrong-path bits).
//! * A side stream of 2-bit **length codes**, one per instruction
//!   (2/4/6 bytes encode as 0/1/2), packed four to a byte. Run lengths
//!   therefore need no per-instruction record at all: a run is decoded
//!   by walking `gap` length codes forward from the run's start address.
//! * A side stream of 64-bit **far words** for everything that does not
//!   fit the deltas: targets beyond ±2 GiB ([`FLAG_FAR`]), the resume
//!   address of an asynchronous discontinuity ([`FLAG_DISC`]), and the
//!   off-path address of a wrong-path record ([`FLAG_WRONG_PATH`]).
//!
//! The escape scheme composes: a gap longer than `u32::MAX` is split by
//! an artificial discontinuity point whose far word is simply the next
//! sequential address, so arbitrarily long runs encode without widening
//! the common-case record.
//!
//! For the synthetic Table 4 workloads (roughly one branch in five
//! instructions) this lands near 3 bytes per instruction — more than 10×
//! smaller than the record form — and, more importantly, lets the core
//! replay a whole non-branch run as one batched step instead of
//! materializing a `TraceInstr` per instruction.
//!
//! A stream too long to hold is captured in chunks
//! ([`CompactTrace::capture_chunk_into`]), each cut right after a
//! retired branch, so that every chunk boundary is also a run boundary
//! of the whole stream and chunk-by-chunk replay equals whole replay.

use std::sync::Arc;

use crate::addr::InstAddr;
use crate::branch::{BranchKind, BranchRec};
use crate::instr::TraceInstr;
use crate::Trace;

/// Bits 0–2 of [`BranchPoint::flags`]: the kind code. Values 0–4 map to
/// [`BranchKind`]; [`KIND_PLAIN`] marks a point with no branch record.
pub const KIND_MASK: u16 = 0b111;
/// Kind code for a non-branch point (discontinuities, wrong-path plain
/// instructions).
pub const KIND_PLAIN: u16 = 5;
/// The branch was taken.
pub const FLAG_TAKEN: u16 = 1 << 3;
/// The target does not fit `target_delta`; it is the next far word.
pub const FLAG_FAR: u16 = 1 << 4;
/// Discontinuity: the point consumes no instruction, and the stream
/// resumes at the address in the next far word. Used for asynchronous
/// control transfers in hardware traces and for `gap` overflow splits.
pub const FLAG_DISC: u16 = 1 << 5;
/// Wrong-path record: the instruction's address comes from the far
/// stream and the architectural flow is unaffected by it.
pub const FLAG_WRONG_PATH: u16 = 1 << 6;

/// Decoded span of one packed length-code byte (four 2-bit codes).
///
/// Replay's run kernel advances four instructions at a time: one load of
/// the packed byte plus one [`GROUP_LUT`] lookup replaces four 2-bit
/// extractions, and `last_off` lets a single I-cache line comparison
/// cover the whole group (addresses inside a run are strictly
/// increasing, so if the group's last instruction is still in the
/// current line, all four are).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupSpan {
    /// Sum of all four instruction lengths in bytes.
    pub total: u8,
    /// Offset of the fourth instruction from the first (sum of the
    /// first three lengths).
    pub last_off: u8,
}

/// Length in bytes of the 2-bit code `c` (0/1/2 → 2/4/6).
const fn code_len(c: u8) -> u8 {
    ((c & 3) + 1) * 2
}

const fn build_group_lut() -> [GroupSpan; 256] {
    let mut lut = [GroupSpan { total: 0, last_off: 0 }; 256];
    let mut b = 0usize;
    while b < 256 {
        let byte = b as u8;
        let l0 = code_len(byte);
        let l1 = code_len(byte >> 2);
        let l2 = code_len(byte >> 4);
        lut[b] = GroupSpan { total: l0 + l1 + l2 + code_len(byte >> 6), last_off: l0 + l1 + l2 };
        b += 1;
    }
    lut
}

/// Group-decode table over packed length-code byte values. The code
/// value 3 never occurs in a valid stream (lengths are 2/4/6), but the
/// table still maps it (to an 8-byte length) so a corrupt byte cannot
/// index out of bounds.
pub static GROUP_LUT: [GroupSpan; 256] = build_group_lut();

/// One packed branch point.
///
/// `gap` counts the sequential non-branch instructions between the
/// previous point and this one; their addresses are implied by the
/// segment start and the length-code stream. `target_delta` is relative
/// to the point's own address, mod 2⁶⁴ — branch targets cluster near
/// their branch, so 32 bits cover all but pathological transfers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(C)]
pub struct BranchPoint {
    /// Sequential instructions since the previous point.
    pub gap: u32,
    /// Signed displacement from the point's address to the target.
    pub target_delta: i32,
    /// Packed kind / taken / far / disc / wrong-path bits.
    pub flags: u16,
}

const fn kind_code(k: BranchKind) -> u16 {
    match k {
        BranchKind::Conditional => 0,
        BranchKind::Unconditional => 1,
        BranchKind::Call => 2,
        BranchKind::Return => 3,
        BranchKind::Indirect => 4,
    }
}

fn code_kind(c: u16) -> BranchKind {
    match c {
        0 => BranchKind::Conditional,
        1 => BranchKind::Unconditional,
        2 => BranchKind::Call,
        3 => BranchKind::Return,
        _ => BranchKind::Indirect,
    }
}

/// The stream cannot be compact-encoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EncodeError {
    /// An instruction length outside the z/Architecture 2/4/6 set.
    UnsupportedLen(u8),
}

impl std::fmt::Display for EncodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EncodeError::UnsupportedLen(l) => {
                write!(f, "instruction length {l} is not compact-encodable (expected 2/4/6)")
            }
        }
    }
}

impl std::error::Error for EncodeError {}

/// The streams handed to [`CompactTrace::from_parts`] are mutually
/// inconsistent: replaying them would index out of bounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartsError {
    /// The length-code stream does not hold exactly one 2-bit code per
    /// instruction (`expected` packed bytes for `total` instructions).
    LenCodes {
        /// Packed bytes required by the instruction count.
        expected: usize,
        /// Packed bytes supplied.
        got: usize,
    },
    /// The far-word stream does not match the escapes the points
    /// consume.
    FarWords {
        /// Far words the point flags consume during decode.
        expected: usize,
        /// Far words supplied.
        got: usize,
    },
    /// Gaps, points and the tail gap do not sum to the instruction
    /// count.
    Total {
        /// Instructions implied by gaps + consuming points + tail gap.
        expected: u64,
        /// Instruction count supplied.
        got: u64,
    },
}

impl std::fmt::Display for PartsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PartsError::LenCodes { expected, got } => {
                write!(f, "length-code stream holds {got} packed bytes, need {expected}")
            }
            PartsError::FarWords { expected, got } => {
                write!(f, "far stream holds {got} words, point flags consume {expected}")
            }
            PartsError::Total { expected, got } => {
                write!(f, "streams encode {expected} instructions, header claims {got}")
            }
        }
    }
}

impl std::error::Error for PartsError {}

/// Recyclable backing buffers of a compact capture. Captures sit above
/// the allocator's mmap threshold, so a fresh buffer per capture would
/// be unmapped on drop and re-faulted by the next; callers that capture
/// in a loop recover the buffers with [`CompactTrace::into_parts`] and
/// hand them back.
#[derive(Debug, Default)]
pub struct CompactParts {
    points: Vec<BranchPoint>,
    len_codes: Vec<u8>,
    far: Vec<u64>,
}

impl CompactParts {
    /// Decomposes into the raw stream buffers — the trace store fills
    /// these from disk and hands them to [`CompactTrace::from_parts`],
    /// reusing the capacity a previous capture allocated.
    pub fn into_buffers(self) -> (Vec<BranchPoint>, Vec<u8>, Vec<u64>) {
        (self.points, self.len_codes, self.far)
    }
}

/// Why a budgeted capture declined; carries the buffers back for reuse.
#[derive(Debug)]
pub enum CompactCaptureError {
    /// The stream is not representable (see [`EncodeError`]).
    Unencodable(EncodeError, CompactParts),
    /// The encoded size exceeded the byte budget.
    OverBudget(CompactParts),
}

impl CompactCaptureError {
    /// Recovers the backing buffers for a later capture.
    pub fn into_parts(self) -> CompactParts {
        match self {
            CompactCaptureError::Unencodable(_, p) | CompactCaptureError::OverBudget(p) => p,
        }
    }
}

/// The shared, immutable payload of a [`CompactTrace`].
#[derive(Debug)]
pub struct CompactBuf {
    start: InstAddr,
    total: u64,
    tail_gap: u64,
    points: Vec<BranchPoint>,
    len_codes: Vec<u8>,
    far: Vec<u64>,
}

impl CompactBuf {
    /// Instruction length at stream index `idx`, decoded from the 2-bit
    /// length-code stream.
    #[inline]
    pub fn len_at(&self, idx: u64) -> u8 {
        let byte = self.len_codes[(idx >> 2) as usize];
        (((byte >> ((idx & 3) << 1)) & 3) + 1) * 2
    }
}

/// A branch-point encoded instruction stream behind an [`Arc`]: clones
/// share one allocation.
#[derive(Debug, Clone)]
pub struct CompactTrace {
    name: Arc<str>,
    buf: Arc<CompactBuf>,
}

struct Encoder {
    start: Option<InstAddr>,
    expected: Option<InstAddr>,
    gap: u32,
    total: u64,
    points: Vec<BranchPoint>,
    len_codes: Vec<u8>,
    far: Vec<u64>,
}

impl Encoder {
    fn new(len_hint: u64, parts: CompactParts) -> Self {
        let CompactParts { mut points, mut len_codes, mut far } = parts;
        points.clear();
        len_codes.clear();
        far.clear();
        // Sized for the ~1-in-5 branch density of the synthetic
        // workloads; a denser stream just reallocates.
        let hint = usize::try_from(len_hint).unwrap_or(0);
        points.reserve(hint / 4);
        len_codes.reserve(hint / 4 + 1);
        Self { start: None, expected: None, gap: 0, total: 0, points, len_codes, far }
    }

    fn bytes(&self) -> u64 {
        encoded_bytes(self.points.len(), self.len_codes.len(), self.far.len())
    }

    fn parts(self) -> CompactParts {
        CompactParts { points: self.points, len_codes: self.len_codes, far: self.far }
    }

    #[inline]
    fn push_code(&mut self, code: u8) {
        let slot = (self.total & 3) << 1;
        if slot == 0 {
            self.len_codes.push(code);
        } else if let Some(last) = self.len_codes.last_mut() {
            *last |= code << slot;
        }
        self.total += 1;
    }

    fn push_point(&mut self, target_delta: i32, flags: u16) {
        self.points.push(BranchPoint { gap: self.gap, target_delta, flags });
        self.gap = 0;
    }

    /// Emits a discontinuity point resuming the stream at `next`.
    fn push_disc(&mut self, next: InstAddr) {
        self.far.push(next.raw());
        self.push_point(0, KIND_PLAIN | FLAG_DISC);
    }

    /// Encodes `rec`'s kind/taken/target relative to `addr`, spilling
    /// the target to the far stream when the delta overflows.
    fn branch_bits(&mut self, addr: InstAddr, rec: &BranchRec) -> (i32, u16) {
        let mut flags = kind_code(rec.kind);
        if rec.taken {
            flags |= FLAG_TAKEN;
        }
        // Mod-2^64 displacement: decode wraps the same way, so any
        // delta whose wrapped value fits i32 round-trips exactly.
        let delta = rec.target.raw().wrapping_sub(addr.raw()) as i64;
        match i32::try_from(delta) {
            Ok(d) => (d, flags),
            Err(_) => {
                self.far.push(rec.target.raw());
                (0, flags | FLAG_FAR)
            }
        }
    }

    fn push(&mut self, instr: &TraceInstr) -> Result<(), EncodeError> {
        let code = match instr.len {
            2 => 0u8,
            4 => 1,
            6 => 2,
            other => return Err(EncodeError::UnsupportedLen(other)),
        };
        if instr.wrong_path {
            // Off-path record: address from the far stream, flow
            // untouched (`expected` is deliberately not updated).
            self.far.push(instr.addr.raw());
            let (delta, flags) = match instr.branch {
                None => (0, KIND_PLAIN),
                Some(rec) => self.branch_bits(instr.addr, &rec),
            };
            self.push_point(delta, flags | FLAG_WRONG_PATH);
            self.push_code(code);
            return Ok(());
        }
        match self.expected {
            Some(e) if e == instr.addr => {}
            Some(_) => self.push_disc(instr.addr),
            None if self.start.is_none() => self.start = Some(instr.addr),
            None => self.push_disc(instr.addr),
        }
        match instr.branch {
            None => {
                if self.gap == u32::MAX {
                    // Run longer than the gap field: split it with an
                    // artificial discontinuity resuming in place.
                    self.push_disc(instr.addr);
                }
                self.gap += 1;
                self.push_code(code);
            }
            Some(rec) => {
                let (delta, flags) = self.branch_bits(instr.addr, &rec);
                self.push_point(delta, flags);
                self.push_code(code);
            }
        }
        self.expected = Some(instr.next_addr());
        Ok(())
    }

    fn finish(self, name: &str) -> CompactTrace {
        let buf = CompactBuf {
            start: self.start.unwrap_or(InstAddr::new(0)),
            total: self.total,
            tail_gap: u64::from(self.gap),
            points: self.points,
            len_codes: self.len_codes,
            far: self.far,
        };
        CompactTrace { name: name.into(), buf: Arc::new(buf) }
    }
}

const fn encoded_bytes(points: usize, len_code_bytes: usize, far_words: usize) -> u64 {
    points as u64 * std::mem::size_of::<BranchPoint>() as u64
        + len_code_bytes as u64
        + far_words as u64 * 8
}

impl CompactTrace {
    /// Encodes `trace`'s full stream into the compact form.
    ///
    /// # Errors
    ///
    /// Returns [`EncodeError`] if the stream is not representable
    /// (instruction lengths outside 2/4/6).
    pub fn capture<T: Trace>(trace: &T) -> Result<Self, EncodeError> {
        Self::capture_within_into(trace, u64::MAX, CompactParts::default()).map_err(|e| match e {
            CompactCaptureError::Unencodable(err, _) => err,
            CompactCaptureError::OverBudget(_) => unreachable!("unlimited budget"),
        })
    }

    /// Encodes `trace` into recycled `parts`, declining once the encoded
    /// size exceeds `max_bytes`.
    ///
    /// # Errors
    ///
    /// Returns [`CompactCaptureError`] — carrying the buffers back for
    /// reuse — if the stream is unencodable or over budget.
    pub fn capture_within_into<T: Trace>(
        trace: &T,
        max_bytes: u64,
        parts: CompactParts,
    ) -> Result<Self, CompactCaptureError> {
        match Self::capture_chunk_into(
            trace.name(),
            &mut trace.iter(),
            trace.len(),
            max_bytes,
            parts,
        )? {
            (whole, true) if whole.bytes() <= max_bytes => Ok(whole),
            (partial, _) => Err(CompactCaptureError::OverBudget(
                partial.into_parts().expect("a fresh capture has one owner"),
            )),
        }
    }

    /// Encodes the next chunk of the stream `instrs` into recycled
    /// `parts`: the rest of the stream, or, once the encoding exceeds
    /// `max_bytes`, everything up to and including the next retired
    /// branch. Returns the chunk and whether it ends the stream.
    ///
    /// Cutting right after a retired branch makes every chunk boundary
    /// a run boundary of the whole stream: the next chunk starts at the
    /// address the branch resolved to (or at a discontinuity the whole
    /// encoding would mark anyway), so chunks replayed in order through
    /// the same models equal the whole stream. A chunk therefore
    /// overshoots `max_bytes` by the run up to that branch. `len_hint`
    /// (the stream's length) sizes the buffers, at most a quarter
    /// instruction per budget byte.
    ///
    /// # Errors
    ///
    /// Returns [`CompactCaptureError::Unencodable`] — carrying the
    /// buffers back for reuse — if the stream is not representable.
    pub fn capture_chunk_into<I: Iterator<Item = TraceInstr>>(
        name: &str,
        instrs: &mut I,
        len_hint: u64,
        max_bytes: u64,
        parts: CompactParts,
    ) -> Result<(Self, bool), CompactCaptureError> {
        let mut enc = Encoder::new(len_hint.min(max_bytes / 4), parts);
        for instr in instrs {
            if let Err(err) = enc.push(&instr) {
                return Err(CompactCaptureError::Unencodable(err, enc.parts()));
            }
            if instr.branch.is_some() && !instr.wrong_path && enc.bytes() > max_bytes {
                return Ok((enc.finish(name), false));
            }
        }
        Ok((enc.finish(name), true))
    }

    /// Bytes of compact storage this capture occupies.
    pub fn bytes(&self) -> u64 {
        encoded_bytes(self.buf.points.len(), self.buf.len_codes.len(), self.buf.far.len())
    }

    /// Number of branch points (including discontinuities).
    pub fn points(&self) -> u64 {
        self.buf.points.len() as u64
    }

    /// Instruction length at stream index `idx`.
    #[inline]
    pub fn len_at(&self, idx: u64) -> u8 {
        self.buf.len_at(idx)
    }

    /// A cursor over the run/point structure, for batched replay.
    pub fn segments(&self) -> SegmentCursor<'_> {
        SegmentCursor::new(&self.buf)
    }

    /// Address one past a run — the terminating point's own address —
    /// by a pure length sum over the run's codes ([`GROUP_LUT`] totals
    /// for whole packed bytes). Replay uses this to learn the upcoming
    /// branch address before the accounting walk starts.
    #[inline]
    pub fn run_end(&self, run: &Run) -> InstAddr {
        let mut addr = run.start;
        let mut code = run.first_code;
        let end = run.first_code + run.count;
        while code < end && (code & 3) != 0 {
            addr = addr.add(u64::from(self.len_at(code)));
            code += 1;
        }
        let codes = &self.buf.len_codes;
        while code + 4 <= end {
            addr = addr.add(u64::from(GROUP_LUT[usize::from(codes[(code >> 2) as usize])].total));
            code += 4;
        }
        while code < end {
            addr = addr.add(u64::from(self.len_at(code)));
            code += 1;
        }
        addr
    }

    /// Recovers the backing buffers for reuse by a later
    /// [`Self::capture_within_into`]; `None` while clones are alive.
    pub fn into_parts(self) -> Option<CompactParts> {
        let CompactBuf { points, len_codes, far, .. } = Arc::try_unwrap(self.buf).ok()?;
        Some(CompactParts { points, len_codes, far })
    }

    /// Address of the first on-path instruction.
    pub fn start_addr(&self) -> InstAddr {
        self.buf.start
    }

    /// Sequential instructions after the final branch point.
    pub fn tail_gap(&self) -> u64 {
        self.buf.tail_gap
    }

    /// The branch-point stream.
    pub fn branch_points(&self) -> &[BranchPoint] {
        &self.buf.points
    }

    /// The packed 2-bit length-code stream (four codes per byte).
    pub fn len_code_stream(&self) -> &[u8] {
        &self.buf.len_codes
    }

    /// The far-word escape stream.
    pub fn far_stream(&self) -> &[u64] {
        &self.buf.far
    }

    /// Rebuilds a trace from raw streams (the on-disk store's loader),
    /// checking the structural invariants replay relies on: one length
    /// code per instruction, far words matching the escapes the point
    /// flags consume, and gaps summing to the instruction count. A
    /// trace passing these checks replays without indexing out of
    /// bounds; byte-level integrity is the store's checksum layer.
    ///
    /// # Errors
    ///
    /// Returns [`PartsError`] naming the inconsistent stream.
    pub fn from_parts(
        name: &str,
        start: InstAddr,
        total: u64,
        tail_gap: u64,
        points: Vec<BranchPoint>,
        len_codes: Vec<u8>,
        far: Vec<u64>,
    ) -> Result<Self, PartsError> {
        let expected_code_bytes = usize::try_from(total.div_ceil(4)).unwrap_or(usize::MAX);
        if len_codes.len() != expected_code_bytes {
            return Err(PartsError::LenCodes {
                expected: expected_code_bytes,
                got: len_codes.len(),
            });
        }
        let mut far_used = 0usize;
        let mut encoded = tail_gap;
        for p in &points {
            encoded += u64::from(p.gap);
            if p.flags & FLAG_DISC != 0 {
                far_used += 1;
            } else {
                encoded += 1;
                far_used += usize::from(p.flags & FLAG_WRONG_PATH != 0)
                    + usize::from(p.flags & FLAG_FAR != 0);
            }
        }
        if far.len() != far_used {
            return Err(PartsError::FarWords { expected: far_used, got: far.len() });
        }
        if encoded != total {
            return Err(PartsError::Total { expected: encoded, got: total });
        }
        let buf = CompactBuf { start, total, tail_gap, points, len_codes, far };
        Ok(CompactTrace { name: name.into(), buf: Arc::new(buf) })
    }
}

impl Trace for CompactTrace {
    type Iter<'a> = CompactIter<'a>;

    fn iter(&self) -> CompactIter<'_> {
        CompactIter::new(&self.buf)
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn len(&self) -> u64 {
        self.buf.total
    }
}

/// One maximal run of sequential non-branch instructions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Run {
    /// Address of the run's first instruction.
    pub start: InstAddr,
    /// Number of instructions in the run (possibly 0).
    pub count: u64,
    /// Stream index of the run's first length code; the caller walks
    /// codes `first_code .. first_code + count` to advance addresses.
    pub first_code: u64,
}

/// Streaming decoder over a [`CompactTrace`]'s run/point structure.
///
/// The protocol alternates [`SegmentCursor::next_run`] and
/// [`SegmentCursor::finish_run`]: after receiving a [`Run`], the caller
/// walks its `count` length codes, accumulating addresses from
/// `run.start`, and passes the resulting end address (the address *after*
/// the run, where the point sits) to `finish_run`, which decodes the
/// point and returns its instruction — or `None` for a discontinuity or
/// the end of the stream.
pub struct SegmentCursor<'a> {
    buf: &'a CompactBuf,
    point_idx: usize,
    far_idx: usize,
    code_idx: u64,
    cur: InstAddr,
    tail_done: bool,
}

impl<'a> SegmentCursor<'a> {
    fn new(buf: &'a CompactBuf) -> Self {
        Self { buf, point_idx: 0, far_idx: 0, code_idx: 0, cur: buf.start, tail_done: false }
    }

    /// The next non-branch run, or `None` when the stream is exhausted.
    pub fn next_run(&mut self) -> Option<Run> {
        let count = match self.buf.points.get(self.point_idx) {
            Some(p) => u64::from(p.gap),
            None if !self.tail_done => {
                self.tail_done = true;
                self.buf.tail_gap
            }
            None => return None,
        };
        let run = Run { start: self.cur, count, first_code: self.code_idx };
        self.code_idx += count;
        Some(run)
    }

    #[inline]
    fn next_far(&mut self) -> InstAddr {
        let w = self.buf.far[self.far_idx];
        self.far_idx += 1;
        InstAddr::new(w)
    }

    /// Decodes the point terminating the run returned by the last
    /// [`Self::next_run`]. `end` must be the address one past the run's
    /// final instruction (equal to `run.start` for an empty run).
    ///
    /// Returns the point's instruction, or `None` for a discontinuity
    /// (the cursor jumps to its resume address) and at end of stream.
    pub fn finish_run(&mut self, end: InstAddr) -> Option<TraceInstr> {
        let p = *self.buf.points.get(self.point_idx)?;
        self.point_idx += 1;
        if p.flags & FLAG_DISC != 0 {
            self.cur = self.next_far();
            return None;
        }
        let len = self.buf.len_at(self.code_idx);
        self.code_idx += 1;
        let wrong_path = p.flags & FLAG_WRONG_PATH != 0;
        let addr = if wrong_path { self.next_far() } else { end };
        let branch = if p.flags & KIND_MASK == KIND_PLAIN {
            None
        } else {
            let target = if p.flags & FLAG_FAR != 0 {
                self.next_far()
            } else {
                InstAddr::new(addr.raw().wrapping_add(p.target_delta as i64 as u64))
            };
            Some(BranchRec {
                kind: code_kind(p.flags & KIND_MASK),
                taken: p.flags & FLAG_TAKEN != 0,
                target,
            })
        };
        let instr = TraceInstr { addr, len, wrong_path, branch };
        // Wrong-path records never redirect the architectural flow.
        self.cur = if wrong_path { end } else { instr.next_addr() };
        Some(instr)
    }
}

/// Per-instruction iterator over a compact trace, reconstructing the
/// exact [`TraceInstr`] stream that was encoded.
pub struct CompactIter<'a> {
    cursor: SegmentCursor<'a>,
    run_left: u64,
    code_idx: u64,
    addr: InstAddr,
    pending_point: bool,
}

impl<'a> CompactIter<'a> {
    fn new(buf: &'a CompactBuf) -> Self {
        Self {
            cursor: SegmentCursor::new(buf),
            run_left: 0,
            code_idx: 0,
            addr: buf.start,
            pending_point: false,
        }
    }
}

impl Iterator for CompactIter<'_> {
    type Item = TraceInstr;

    fn next(&mut self) -> Option<TraceInstr> {
        loop {
            if self.run_left > 0 {
                let len = self.cursor.buf.len_at(self.code_idx);
                self.code_idx += 1;
                self.run_left -= 1;
                let instr = TraceInstr::plain(self.addr, len);
                self.addr = self.addr.add(u64::from(len));
                return Some(instr);
            }
            if self.pending_point {
                self.pending_point = false;
                if let Some(instr) = self.cursor.finish_run(self.addr) {
                    return Some(instr);
                }
                continue;
            }
            let run = self.cursor.next_run()?;
            self.run_left = run.count;
            self.code_idx = run.first_code;
            self.addr = run.start;
            self.pending_point = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::VecTrace;

    fn roundtrip(instrs: Vec<TraceInstr>) {
        let vt = VecTrace::new("t", instrs);
        let ct = CompactTrace::capture(&vt).expect("encodable");
        assert_eq!(ct.len(), vt.len());
        assert_eq!(ct.name(), "t");
        let decoded: Vec<_> = ct.iter().collect();
        assert_eq!(decoded, vt.records(), "round trip diverged");
    }

    #[test]
    fn empty_trace_roundtrips() {
        roundtrip(vec![]);
    }

    #[test]
    fn sequential_run_roundtrips() {
        let mut a = InstAddr::new(0x1000);
        let mut v = Vec::new();
        for len in [2u8, 4, 6, 6, 2, 4] {
            v.push(TraceInstr::plain(a, len));
            a = a.add(u64::from(len));
        }
        roundtrip(v);
    }

    #[test]
    fn branches_and_runs_roundtrip() {
        let mut v = Vec::new();
        let mut a = InstAddr::new(0x4000);
        for i in 0..10 {
            v.push(TraceInstr::plain(a, 4));
            a = a.add(4);
            let taken = i % 2 == 0;
            let target = InstAddr::new(0x4000 + i * 0x40);
            let rec = if taken {
                BranchRec::taken(BranchKind::Conditional, target)
            } else {
                BranchRec::not_taken(target)
            };
            v.push(TraceInstr::branch(a, 6, rec));
            a = if taken { target } else { a.add(6) };
        }
        roundtrip(v);
    }

    #[test]
    fn discontinuities_roundtrip() {
        // Address stream that jumps without a branch record, as an
        // asynchronous interrupt transfer would in a hardware trace.
        let v = vec![
            TraceInstr::plain(InstAddr::new(0x100), 4),
            TraceInstr::plain(InstAddr::new(0x9000), 2),
            TraceInstr::plain(InstAddr::new(0x9002), 6),
            TraceInstr::plain(InstAddr::new(0x40), 2),
        ];
        roundtrip(v);
    }

    #[test]
    fn far_targets_roundtrip() {
        // Target further than ±2 GiB forces the far-word escape.
        let rec = BranchRec::taken(BranchKind::Call, InstAddr::new(0x1_0000_0000_0000));
        let v = vec![
            TraceInstr::branch(InstAddr::new(0x100), 6, rec),
            TraceInstr::plain(InstAddr::new(0x1_0000_0000_0000), 4),
        ];
        roundtrip(v);
    }

    #[test]
    fn wrong_path_records_roundtrip() {
        let rec = BranchRec::taken(BranchKind::Conditional, InstAddr::new(0x80));
        let v = vec![
            TraceInstr::plain(InstAddr::new(0x100), 4),
            TraceInstr::plain(InstAddr::new(0x7000), 2).wrong_path(),
            TraceInstr::branch(InstAddr::new(0x7002), 4, rec).wrong_path(),
            TraceInstr::plain(InstAddr::new(0x104), 6),
        ];
        roundtrip(v);
    }

    #[test]
    fn leading_wrong_path_records_roundtrip() {
        let v = vec![
            TraceInstr::plain(InstAddr::new(0x7000), 2).wrong_path(),
            TraceInstr::plain(InstAddr::new(0x100), 4),
        ];
        roundtrip(v);
    }

    #[test]
    fn unsupported_length_is_rejected() {
        let vt = VecTrace::new("t", vec![TraceInstr::plain(InstAddr::new(0), 3)]);
        assert!(matches!(CompactTrace::capture(&vt), Err(EncodeError::UnsupportedLen(3))));
        match CompactTrace::capture_within_into(&vt, u64::MAX, CompactParts::default()) {
            Err(CompactCaptureError::Unencodable(EncodeError::UnsupportedLen(3), _)) => {}
            other => panic!("expected Unencodable, got {other:?}"),
        }
    }

    #[test]
    fn over_budget_capture_declines_and_recycles() {
        let mut v = Vec::new();
        let mut a = InstAddr::new(0x1000);
        for _ in 0..100 {
            v.push(TraceInstr::plain(a, 4));
            a = a.add(4);
        }
        let vt = VecTrace::new("t", v);
        let full = CompactTrace::capture(&vt).unwrap();
        let need = full.bytes();
        match CompactTrace::capture_within_into(&vt, need - 1, CompactParts::default()) {
            Err(CompactCaptureError::OverBudget(parts)) => {
                // The recovered buffers admit a successful capture.
                let again = CompactTrace::capture_within_into(&vt, need, parts).unwrap();
                assert!(again.iter().eq(vt.iter()));
            }
            other => panic!("expected OverBudget, got {other:?}"),
        }
    }

    #[test]
    fn into_parts_recovers_sole_owner_buffers() {
        let vt = VecTrace::new("t", vec![TraceInstr::plain(InstAddr::new(0x10), 2)]);
        let ct = CompactTrace::capture(&vt).unwrap();
        let clone = ct.clone();
        assert!(ct.into_parts().is_none(), "shared buffers stay shared");
        assert!(clone.into_parts().is_some(), "last owner recovers them");
    }

    #[test]
    fn point_record_is_twelve_bytes() {
        assert_eq!(std::mem::size_of::<BranchPoint>(), 12);
    }

    #[test]
    fn group_lut_matches_per_code_decode() {
        for b in 0u16..256 {
            let byte = b as u8;
            let lens: Vec<u8> = (0..4).map(|i| (((byte >> (i * 2)) & 3) + 1) * 2).collect();
            let span = GROUP_LUT[b as usize];
            assert_eq!(span.total, lens.iter().sum::<u8>(), "byte {byte:#04x}");
            assert_eq!(span.last_off, lens[..3].iter().sum::<u8>(), "byte {byte:#04x}");
        }
    }

    /// A stream exercising every escape: far target, wrong-path records,
    /// a discontinuity and a run tail.
    fn escape_soup() -> VecTrace {
        let far = BranchRec::taken(BranchKind::Call, InstAddr::new(0x1_0000_0000_0000));
        let mut v = vec![
            TraceInstr::plain(InstAddr::new(0x100), 4),
            TraceInstr::branch(InstAddr::new(0x104), 6, far),
            TraceInstr::plain(InstAddr::new(0x1_0000_0000_0000), 2),
            TraceInstr::plain(InstAddr::new(0x7000), 2).wrong_path(),
            TraceInstr::plain(InstAddr::new(0x9000), 4), // discontinuity
        ];
        for i in 0..20u64 {
            v.push(TraceInstr::plain(InstAddr::new(0x9004 + i * 6), 6));
        }
        VecTrace::new("soup", v)
    }

    #[test]
    fn from_parts_rebuilds_the_exact_stream() {
        let vt = escape_soup();
        let ct = CompactTrace::capture(&vt).unwrap();
        let rebuilt = CompactTrace::from_parts(
            ct.name(),
            ct.start_addr(),
            ct.len(),
            ct.tail_gap(),
            ct.branch_points().to_vec(),
            ct.len_code_stream().to_vec(),
            ct.far_stream().to_vec(),
        )
        .expect("streams are consistent");
        assert!(rebuilt.iter().eq(vt.iter()), "rebuilt stream diverged");
        assert_eq!(rebuilt.bytes(), ct.bytes());
    }

    #[test]
    fn from_parts_rejects_inconsistent_streams() {
        let ct = CompactTrace::capture(&escape_soup()).unwrap();
        let (start, total, tail) = (ct.start_addr(), ct.len(), ct.tail_gap());
        let (points, codes, far) =
            (ct.branch_points().to_vec(), ct.len_code_stream().to_vec(), ct.far_stream().to_vec());
        let mut short_far = far.clone();
        short_far.pop();
        assert!(matches!(
            CompactTrace::from_parts(
                "t",
                start,
                total,
                tail,
                points.clone(),
                codes.clone(),
                short_far
            ),
            Err(PartsError::FarWords { .. })
        ));
        let mut short_codes = codes.clone();
        short_codes.pop();
        assert!(matches!(
            CompactTrace::from_parts(
                "t",
                start,
                total,
                tail,
                points.clone(),
                short_codes,
                far.clone()
            ),
            Err(PartsError::LenCodes { .. })
        ));
        // A header claiming one extra instruction needs one extra code
        // byte to get past the length check, but the gap sum then
        // disagrees.
        let mut padded_codes = codes.clone();
        if (total + 1).div_ceil(4) != total.div_ceil(4) {
            padded_codes.push(0);
        }
        assert!(matches!(
            CompactTrace::from_parts("t", start, total + 1, tail, points, padded_codes, far),
            Err(PartsError::Total { .. })
        ));
    }
}
