//! The struct-of-arrays instruction lifecycle table.
//!
//! One [`InstrTable`] per hardware thread is the *single* home of an
//! instruction from fetch to commit. Every per-instruction field the
//! pipeline reads or writes — PC, decode class, lifecycle stage, operand
//! wait counts, renamed registers, effective address, timing — lives in a
//! dense column indexed by **slot**, and the containers the stages used
//! to own (`Fetched` in a fetch buffer, `RobEntry` in a per-thread ROB
//! queue, issue-queue entries, completion-wheel payloads) collapse to
//! handles into this table.
//!
//! # Slots and windows
//!
//! A thread's in-flight sequence numbers are always contiguous (commit
//! pops the front, squash pops the back, fetch extends the end), so the
//! table is addressed as a ring: `slot(seq) = seq & (capacity - 1)`, with
//! capacity a power of two at least the ROB budget plus the fetch
//! buffer. Two adjacent windows describe which slots are live:
//!
//! ```text
//!        committed                    dispatched        fetched
//!   ...  ──────────┤  ROB window  ├───────────┤ fetch window ├  ── future
//!                  front_seq       front_seq+rob_len          +fe_len
//! ```
//!
//! Fetch appends to the fetch window ([`InstrTable::fe_push`]), dispatch
//! *promotes* the fetch-window head into the ROB window in place
//! ([`InstrTable::promote_front`]) — no data moves, only the boundary —
//! commit pops the ROB front, and a squash pops the ROB back and/or
//! truncates the fetch window. A whole-window squash (runahead exit) is a
//! bulk slot-range invalidation: walk the range once for side-effect
//! cleanup, then reset the windows.
//!
//! # Columns are clustered by access affinity
//!
//! A fully-exploded layout (one array per scalar field) makes the *scan*
//! passes dense but costs every *point* access one cache line per field
//! — and the per-cycle stage walk is mostly point accesses at a handful
//! of slots. The columns are therefore grouped into four arrays by which
//! stage touches them together, so a stage op lands on 1–3 lines:
//!
//! * [`InstrTable::sched`] — the packed **scheduler word**: lifecycle
//!   stage, operand wait count, issue-queue tag and the dispatch stamp
//!   `gseq` in one `u64`. Issue-queue handle validation, operand wakeup
//!   and completion validation are each a single load (and at most one
//!   store) on this column.
//! * [`InstrTable::meta`] — the 8-byte static identity ([`Meta`]): PC,
//!   decode kind, flag bits, destination architectural register.
//! * [`InstrTable::front`] — fetch-time scalars ([`Front`]): sequence
//!   number, frontend/ready timing, effective address, branch history.
//! * [`InstrTable::regs`] — rename results ([`Regs`]): packed source /
//!   destination / previous-mapping physical registers.
//!
//! # Handles and staleness
//!
//! Issue-queue ready entries and wakeup waiters refer to instructions by
//! `(thread, slot)` plus the dispatch stamp `gseq` packed into the
//! scheduler word. The stamp is written at dispatch, cleared on
//! pop/squash, and globally unique, so one comparison against the
//! scheduler word is the complete liveness check — replacing the
//! reorder-buffer range probe and making stale handles (squashed,
//! committed, or re-dispatched instructions) self-invalidating.

use rat_isa::{ArchReg, FpReg, InstructionKind, IntReg, Pc};

use crate::types::{Cycle, IqKind, PhysReg, RegClass};

// ---- scheduler word ----

/// Lifecycle stage field of the scheduler word (bits 0..3).
pub const STAGE_MASK: u64 = 0b111;
/// Slot is not live (committed, squashed, or never used).
pub const ST_FREE: u64 = 0;
/// In the fetch window, waiting to dispatch.
pub const ST_FETCHED: u64 = 1;
/// Dispatched, waiting in an issue queue for operands/FU.
pub const ST_WAIT: u64 = 2;
/// Issued to a functional unit / the memory system.
pub const ST_EXEC: u64 = 3;
/// Result produced (or folded); eligible to commit / pseudo-retire.
pub const ST_DONE: u64 = 4;

/// Operand wait count field (bits 3..5; at most 2 sources).
pub const WAIT_SHIFT: u32 = 3;
/// One waiting operand, as a subtractable unit.
pub const WAIT_ONE: u64 = 1 << WAIT_SHIFT;
/// Mask of the wait-count field.
pub const WAIT_MASK: u64 = 0b11 << WAIT_SHIFT;

/// Issue-queue tag field (bits 5..8): 0 = none, else `1 + IqKind index`.
pub const IQK_SHIFT: u32 = 5;
/// Mask of the issue-queue tag field.
pub const IQK_MASK: u64 = 0b111 << IQK_SHIFT;

/// The dispatch stamp occupies the remaining high bits (56 of them —
/// stamps are per-run dispatch counts and never approach 2^56).
pub const GSEQ_SHIFT: u32 = 8;

/// Composes a scheduler word.
#[inline]
pub fn sched_word(gseq: u64, iqk: u8, waiting: u8, stage: u64) -> u64 {
    debug_assert!(waiting <= 2 && iqk <= 4 && stage <= ST_DONE);
    (gseq << GSEQ_SHIFT) | ((iqk as u64) << IQK_SHIFT) | ((waiting as u64) << WAIT_SHIFT) | stage
}

/// The lifecycle stage of a scheduler word.
#[inline]
pub fn sched_stage(s: u64) -> u64 {
    s & STAGE_MASK
}

/// The issue queue encoded in a scheduler word, if any.
#[inline]
pub fn sched_iq(s: u64) -> Option<IqKind> {
    match (s & IQK_MASK) >> IQK_SHIFT {
        0 => None,
        1 => Some(IqKind::Int),
        2 => Some(IqKind::Fp),
        _ => Some(IqKind::Ls),
    }
}

// ---- flag bits (in `Meta::flags`) ----

/// Correct branch/jump direction (from the fetch oracle).
pub const F_TAKEN: u8 = 1 << 0;
/// Runahead INV bit: result is bogus; instruction was or will be folded.
pub const F_INV: u8 = 1 << 1;
/// Load left L1 pending (in-flight D-miss).
pub const F_DMISS: u8 = 1 << 2;
/// Load waits on main memory (the long-latency STALL/FLUSH/RaT trigger).
pub const F_L2MISS: u8 = 1 << 3;
/// A branch prediction was made at fetch.
pub const F_PRED: u8 = 1 << 4;
/// The predicted direction (valid when [`F_PRED`] is set).
pub const F_PRED_TAKEN: u8 = 1 << 5;
/// The prediction was wrong (fetch gates on this entry until resolution).
pub const F_MISPRED: u8 = 1 << 6;
/// Dispatched in runahead mode.
pub const F_RUNAHEAD: u8 = 1 << 7;

// ---- packed register operands ----

/// "No register" sentinel in the packed operand fields.
pub const REG_NONE: u32 = u32::MAX;

/// Packs a renamed operand into a column word.
#[inline]
pub fn pack_reg(class: RegClass, p: PhysReg) -> u32 {
    ((class as u32) << 16) | p as u32
}

/// Unpacks a column word written by [`pack_reg`].
#[inline]
pub fn unpack_reg(v: u32) -> Option<(RegClass, PhysReg)> {
    if v == REG_NONE {
        return None;
    }
    let class = if v & (1 << 16) == 0 {
        RegClass::Int
    } else {
        RegClass::Fp
    };
    Some((class, v as u16))
}

/// "No architectural destination" sentinel in `Meta::dst_arch`.
pub const ARCH_NONE: u8 = u8::MAX;

/// Packs an architectural register into its flat-index byte.
#[inline]
pub fn pack_arch(r: Option<ArchReg>) -> u8 {
    match r {
        None => ARCH_NONE,
        Some(r) => r.flat_index() as u8,
    }
}

/// Unpacks a flat architectural-register index.
#[inline]
pub fn unpack_arch(v: u8) -> Option<ArchReg> {
    match v {
        ARCH_NONE => None,
        f if (f as usize) < rat_isa::NUM_INT_ARCH_REGS => Some(ArchReg::Int(IntReg::new(f))),
        f => Some(ArchReg::Fp(FpReg::new(
            f - rat_isa::NUM_INT_ARCH_REGS as u8,
        ))),
    }
}

// ---- column clusters ----

/// Static identity of an instruction (8 bytes): written once at fetch,
/// read by every later stage; `flags` also carries the issue/writeback
/// status bits (`F_*`).
#[derive(Clone, Copy, Debug)]
pub struct Meta {
    /// Program counter (decode-table index, branch resolution).
    pub pc: Pc,
    /// Cached instruction kind (from the static decode table).
    pub kind: InstructionKind,
    /// `F_*` flag bits.
    pub flags: u8,
    /// Destination architectural register (flat index or [`ARCH_NONE`]).
    pub dst_arch: u8,
}

impl Meta {
    /// The branch prediction made at fetch, if any.
    #[inline]
    pub fn predicted(self) -> Option<bool> {
        (self.flags & F_PRED != 0).then_some(self.flags & F_PRED_TAKEN != 0)
    }
}

/// Fetch-time scalars (32 bytes): sequence number, timing, effective
/// address and branch-history snapshot.
#[derive(Clone, Copy, Debug, Default)]
pub struct Front {
    /// Dynamic sequence number occupying the slot.
    pub seq: u64,
    /// While `Fetched`: cycle the instruction clears the front-end depth.
    /// After issue: cycle the result becomes available.
    pub ready_at: Cycle,
    /// Effective address; meaningful iff the kind is `Load`/`Store`.
    pub eff_addr: u64,
    /// Branch history snapshot at prediction time (perceptron training).
    pub hist_bits: u64,
}

/// Rename results (16 bytes): packed with [`pack_reg`] / [`REG_NONE`].
#[derive(Clone, Copy, Debug)]
pub struct Regs {
    /// Source registers after rename.
    pub srcs: [u32; 2],
    /// Destination register.
    pub dst: u32,
    /// Previous speculative mapping of the destination (walk-back).
    pub prev: u32,
}

impl Regs {
    /// The all-`REG_NONE` reset value.
    pub const NONE: Regs = Regs {
        srcs: [REG_NONE; 2],
        dst: REG_NONE,
        prev: REG_NONE,
    };
}

/// The per-thread struct-of-arrays instruction arena. Columns are `pub`
/// within the crate: pipeline stages index them directly by slot.
pub struct InstrTable {
    mask: u32,
    /// Sequence number of the oldest ROB entry (== the next fetch seq
    /// when both windows are empty).
    front_seq: u64,
    rob_len: u32,
    fe_len: u32,

    /// Packed scheduler words (stage | wait count | IQ tag | `gseq`).
    /// `ST_FREE` (zero) = slot not live; a live dispatched slot carries
    /// its globally-unique stamp, making this the one-load staleness
    /// check for every handle held outside the table.
    pub sched: Box<[u64]>,
    /// Static identity ([`Meta`]).
    pub meta: Box<[Meta]>,
    /// Fetch-time scalars ([`Front`]).
    pub front: Box<[Front]>,
    /// Rename results ([`Regs`]).
    pub regs: Box<[Regs]>,
}

impl InstrTable {
    /// Builds a table able to hold `rob_budget + fetch_buffer` in-flight
    /// instructions (rounded up to a power of two).
    pub fn new(rob_budget: usize, fetch_buffer: usize) -> Self {
        let cap = (rob_budget + fetch_buffer).next_power_of_two().max(8);
        // Slots are packed into 13 bits of the issue-queue handle words.
        assert!(
            cap <= 1 << 13,
            "instruction table too large for packed handles"
        );
        InstrTable {
            mask: (cap - 1) as u32,
            front_seq: 0,
            rob_len: 0,
            fe_len: 0,
            sched: vec![0; cap].into_boxed_slice(),
            meta: vec![
                Meta {
                    pc: Pc::default(),
                    kind: InstructionKind::Nop,
                    flags: 0,
                    dst_arch: ARCH_NONE,
                };
                cap
            ]
            .into_boxed_slice(),
            front: vec![Front::default(); cap].into_boxed_slice(),
            regs: vec![Regs::NONE; cap].into_boxed_slice(),
        }
    }

    /// Slot of `seq` (valid for any seq; live only inside the windows).
    #[inline]
    pub fn slot_of(&self, seq: u64) -> usize {
        (seq as u32 & self.mask) as usize
    }

    /// Table capacity (a power of two).
    #[inline]
    pub fn capacity(&self) -> usize {
        self.mask as usize + 1
    }

    // ---- windows ----

    /// In-flight ROB entries.
    #[inline]
    pub fn rob_len(&self) -> usize {
        self.rob_len as usize
    }

    /// Instructions fetched but not yet dispatched.
    #[inline]
    pub fn fe_len(&self) -> usize {
        self.fe_len as usize
    }

    /// Sequence number of the oldest ROB entry (meaningful when
    /// `rob_len() > 0`; otherwise the next seq to be promoted).
    #[inline]
    pub fn rob_front_seq(&self) -> u64 {
        self.front_seq
    }

    /// Slot of the oldest ROB entry.
    #[inline]
    pub fn rob_front_slot(&self) -> Option<usize> {
        (self.rob_len > 0).then(|| self.slot_of(self.front_seq))
    }

    /// Sequence number of the youngest ROB entry.
    #[inline]
    pub fn rob_back_seq(&self) -> Option<u64> {
        (self.rob_len > 0).then(|| self.front_seq + self.rob_len as u64 - 1)
    }

    /// Sequence range of the ROB window, oldest → youngest.
    #[inline]
    pub fn rob_seqs(&self) -> std::ops::Range<u64> {
        self.front_seq..self.front_seq + self.rob_len as u64
    }

    /// Sequence number of the fetch-window head (next to dispatch).
    #[inline]
    pub fn fe_front_seq(&self) -> Option<u64> {
        (self.fe_len > 0).then(|| self.front_seq + self.rob_len as u64)
    }

    /// Slot of the fetch-window head.
    #[inline]
    pub fn fe_front_slot(&self) -> Option<usize> {
        self.fe_front_seq().map(|s| self.slot_of(s))
    }

    /// Sequence range of the fetch window, oldest → youngest.
    #[inline]
    pub fn fe_seqs(&self) -> std::ops::Range<u64> {
        let start = self.front_seq + self.rob_len as u64;
        start..start + self.fe_len as u64
    }

    /// The next sequence number fetch will append.
    #[inline]
    pub fn next_fetch_seq(&self) -> u64 {
        self.front_seq + self.rob_len as u64 + self.fe_len as u64
    }

    // ---- lifecycle transitions ----

    /// Appends `seq` to the fetch window and returns its slot with the
    /// scheduler word initialized (stage `Fetched`, stale stamp
    /// cleared); the caller writes the `meta` and `front` clusters.
    ///
    /// # Panics
    ///
    /// Panics (debug) if `seq` is not contiguous with the windows or the
    /// table is full.
    #[inline]
    pub fn fe_push(&mut self, seq: u64) -> usize {
        if self.rob_len == 0 && self.fe_len == 0 {
            self.front_seq = seq;
        }
        debug_assert_eq!(seq, self.next_fetch_seq(), "fetch sequence discontinuity");
        debug_assert!(
            (self.rob_len + self.fe_len) <= self.mask,
            "instruction table overflow"
        );
        self.fe_len += 1;
        let slot = self.slot_of(seq);
        self.sched[slot] = ST_FETCHED;
        slot
    }

    /// Moves the fetch-window head into the ROB window (dispatch). No
    /// data moves; returns the slot for the caller to finish renaming.
    #[inline]
    pub fn promote_front(&mut self) -> usize {
        debug_assert!(self.fe_len > 0, "promote from an empty fetch window");
        let slot = self.slot_of(self.front_seq + self.rob_len as u64);
        self.fe_len -= 1;
        self.rob_len += 1;
        slot
    }

    /// Pops the oldest ROB entry (commit / pseudo-retire), invalidating
    /// its slot. Read any columns you need *before* calling.
    #[inline]
    pub fn rob_pop_front(&mut self) {
        debug_assert!(self.rob_len > 0);
        let slot = self.slot_of(self.front_seq);
        self.sched[slot] = ST_FREE;
        self.front_seq += 1;
        self.rob_len -= 1;
    }

    /// Pops the youngest ROB entry (squash walk-back), invalidating its
    /// slot. Read any columns you need *before* calling.
    #[inline]
    pub fn rob_pop_back(&mut self) {
        debug_assert!(self.rob_len > 0);
        let slot = self.slot_of(self.front_seq + self.rob_len as u64 - 1);
        self.sched[slot] = ST_FREE;
        self.rob_len -= 1;
    }

    /// Discards the entire fetch window (squash): a bulk invalidation
    /// over the window's slot range in the scheduler column.
    #[inline]
    pub fn fe_clear(&mut self) {
        for seq in self.fe_seqs() {
            let slot = self.slot_of(seq);
            self.sched[slot] = ST_FREE;
        }
        self.fe_len = 0;
    }

    /// Resets both windows to empty with the next fetch at `resume_seq`
    /// (whole-window squash: runahead exit). The caller has already
    /// walked the windows for per-entry cleanup; the slots themselves
    /// must already be invalidated (popped / cleared).
    #[inline]
    pub fn reset_to(&mut self, resume_seq: u64) {
        debug_assert_eq!(self.rob_len, 0, "reset with live ROB entries");
        debug_assert_eq!(self.fe_len, 0, "reset with live fetch entries");
        self.front_seq = resume_seq;
    }

    /// Checks every table invariant: window accounting, slot↔seq
    /// agreement, scheduler-word consistency of live slots, and that
    /// every slot outside the windows is invalidated (no stale handles
    /// can validate). Cheap enough for tests; not called on hot paths.
    ///
    /// # Panics
    ///
    /// Panics on any violation.
    pub fn check_invariants(&self) {
        let cap = self.capacity();
        assert!(
            self.rob_len as usize + self.fe_len as usize <= cap,
            "windows exceed capacity"
        );
        let mut live = vec![false; cap];
        for seq in self.rob_seqs() {
            let slot = self.slot_of(seq);
            live[slot] = true;
            let s = self.sched[slot];
            assert_eq!(self.front[slot].seq, seq, "ROB slot/seq mismatch at {seq}");
            assert!(
                matches!(sched_stage(s), ST_WAIT | ST_EXEC | ST_DONE),
                "ROB slot {slot} in stage {}",
                sched_stage(s)
            );
            assert_ne!(s >> GSEQ_SHIFT, 0, "dispatched slot without a stamp");
            if sched_stage(s) == ST_WAIT {
                assert!(sched_iq(s).is_some(), "WaitIssue slot outside any IQ");
            } else {
                assert_eq!(s & WAIT_MASK, 0, "issued slot still waiting");
                assert_eq!(s & IQK_MASK, 0, "issued slot still holds an IQ tag");
            }
        }
        for seq in self.fe_seqs() {
            let slot = self.slot_of(seq);
            live[slot] = true;
            assert_eq!(
                self.front[slot].seq, seq,
                "fetch slot/seq mismatch at {seq}"
            );
            assert_eq!(
                self.sched[slot], ST_FETCHED,
                "fetch slot carries stale scheduler state"
            );
        }
        for (slot, is_live) in live.iter().enumerate() {
            if !is_live {
                assert_eq!(
                    self.sched[slot], ST_FREE,
                    "stale slot {slot} not invalidated"
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> InstrTable {
        InstrTable::new(16, 4)
    }

    fn seed_slot(t: &mut InstrTable, slot: usize, seq: u64) {
        t.front[slot].seq = seq;
        t.meta[slot] = Meta {
            pc: Pc::new(seq as u32),
            kind: InstructionKind::Nop,
            flags: 0,
            dst_arch: ARCH_NONE,
        };
    }

    #[test]
    fn fetch_promote_commit_roundtrip() {
        let mut t = table();
        for s in 10..14 {
            let slot = t.fe_push(s);
            seed_slot(&mut t, slot, s);
        }
        assert_eq!(t.fe_len(), 4);
        assert_eq!(t.fe_front_seq(), Some(10));
        let slot = t.promote_front();
        t.sched[slot] = sched_word(7, 0, 0, ST_DONE);
        assert_eq!(t.rob_len(), 1);
        assert_eq!(t.fe_front_seq(), Some(11));
        assert_eq!(t.rob_front_seq(), 10);
        t.rob_pop_front();
        assert_eq!(t.rob_len(), 0);
        assert_eq!(t.sched[slot], ST_FREE);
        t.check_invariants();
    }

    #[test]
    fn squash_pops_back_and_resets() {
        let mut t = table();
        for s in 0..6 {
            let slot = t.fe_push(s);
            seed_slot(&mut t, slot, s);
        }
        for _ in 0..6 {
            let slot = t.promote_front();
            t.sched[slot] = sched_word(1 + t.front[slot].seq, 0, 0, ST_DONE);
        }
        t.rob_pop_front(); // commit seq 0
        while t.rob_len() > 0 {
            t.rob_pop_back();
        }
        t.fe_clear();
        t.reset_to(1);
        assert_eq!(t.next_fetch_seq(), 1);
        let slot = t.fe_push(1);
        seed_slot(&mut t, slot, 1);
        assert_eq!(t.sched[slot], ST_FETCHED);
        t.check_invariants();
    }

    #[test]
    fn slots_wrap_without_collision() {
        let mut t = table();
        let cap = t.capacity() as u64;
        // March the windows far past one wrap.
        for s in 0..cap * 3 {
            let slot = t.fe_push(s);
            seed_slot(&mut t, slot, s);
            let slot = t.promote_front();
            t.sched[slot] = sched_word(s + 1, 0, 0, ST_DONE);
            t.check_invariants();
            t.rob_pop_front();
        }
        assert_eq!(t.next_fetch_seq(), cap * 3);
    }

    #[test]
    fn sched_word_fields_roundtrip() {
        let s = sched_word(0xABCD_1234, 3, 2, ST_WAIT);
        assert_eq!(sched_stage(s), ST_WAIT);
        assert_eq!(sched_iq(s), Some(IqKind::Ls));
        assert_eq!((s & WAIT_MASK) >> WAIT_SHIFT, 2);
        assert_eq!(s >> GSEQ_SHIFT, 0xABCD_1234);
        // The issue/wakeup validation identity: stamp + WaitIssue with no
        // pending operands, IQ tag ignored.
        let ready = sched_word(7, 2, 0, ST_WAIT);
        assert_eq!(ready & !IQK_MASK, (7 << GSEQ_SHIFT) | ST_WAIT);
    }

    #[test]
    fn packed_register_roundtrip() {
        assert_eq!(unpack_reg(REG_NONE), None);
        for class in [RegClass::Int, RegClass::Fp] {
            for p in [0u16, 1, 319, u16::MAX - 1] {
                assert_eq!(unpack_reg(pack_reg(class, p)), Some((class, p)));
            }
        }
    }

    #[test]
    fn packed_arch_roundtrip() {
        assert_eq!(unpack_arch(pack_arch(None)), None);
        for i in 0..32u8 {
            let r = ArchReg::Int(IntReg::new(i));
            assert_eq!(unpack_arch(pack_arch(Some(r))), Some(r));
            let f = ArchReg::Fp(FpReg::new(i));
            assert_eq!(unpack_arch(pack_arch(Some(f))), Some(f));
        }
    }

    #[test]
    #[should_panic(expected = "discontinuity")]
    fn discontiguous_fetch_panics() {
        let mut t = table();
        t.fe_push(3);
        t.fe_push(5);
    }
}
