//! The per-thread fetch oracle: a record stream over a forward-only
//! functional emulator.
//!
//! Each hardware thread owns a functional [`Cpu`] that executes
//! instructions *when the pipeline fetches them*, so every fetched
//! instruction carries its exact effective address and branch outcome
//! down the pipe. The `Cpu` only ever steps forward: its data memory is
//! private to the thread and execution is deterministic, so the
//! [`ExecRecord`] stream is a pure function of the dynamic sequence
//! number, and no squash ever needs to undo a register or memory write.
//!
//! The oracle keeps a seq-indexed buffer of every record past the
//! commit point — the single authoritative copy of every in-flight
//! instruction's record. The fetch buffer and reorder buffer carry only
//! the few hot scalars they read (PC, effective address, branch
//! direction); [`OracleThread::record`] resolves the full record by
//! sequence number, and `SmtSimulator::check_invariants` uses it to
//! check that those copies still match their records.
//!
//! A squash (runahead exit, FLUSH) is a cursor move back into the
//! buffer: subsequent [`OracleThread::fetch_step_brief`] calls are
//! served from it until fetch passes the execution frontier, where the
//! `Cpu` (simply left parked there) resumes live execution.

use std::collections::VecDeque;

use rat_isa::{Cpu, ExecRecord, Pc};

/// The scalars the fetch stage consumes from one executed (or replayed)
/// instruction — everything else stays in the record buffer, which is
/// the authoritative copy ([`OracleThread::record`] resolves the rest).
#[derive(Clone, Copy, Debug)]
pub struct FetchBrief {
    /// Dynamic sequence number.
    pub seq: u64,
    /// PC of the instruction (also its decode-table index).
    pub pc: Pc,
    /// Effective address for loads/stores.
    pub eff_addr: Option<u64>,
    /// Correct branch/jump direction.
    pub taken: bool,
}

/// A thread's functional front end: a forward-only emulator plus the
/// buffer of its in-flight records.
#[derive(Debug)]
pub struct OracleThread {
    cpu: Cpu,
    /// Sequence number of the next instruction to commit.
    committed: u64,
    /// Records of every executed-but-uncommitted instruction, in seq
    /// order: seqs `[committed, committed + replay.len())`.
    replay: VecDeque<ExecRecord>,
    /// Sequence number of the next record [`Self::fetch_step_brief`]
    /// returns. `cursor < frontier` means fetch is replaying buffered
    /// records; `cursor == frontier` means fetch is at the live edge.
    cursor: u64,
    /// Fetches served from the buffer (simulator-performance diagnostic).
    replayed: u64,
}

impl OracleThread {
    /// Wraps a prepared functional context (program + memory image +
    /// planted registers).
    pub fn new(cpu: Cpu) -> Self {
        let cursor = cpu.retired();
        OracleThread {
            cpu,
            committed: cursor,
            replay: VecDeque::new(),
            cursor,
            replayed: 0,
        }
    }

    /// Sequence number one past the newest record ever executed (the
    /// live edge of the buffer).
    #[inline]
    fn frontier(&self) -> u64 {
        self.committed + self.replay.len() as u64
    }

    /// The execution record of in-flight instruction `seq`: the buffer
    /// holds every record in `[commit point, execution frontier)`.
    ///
    /// # Panics
    ///
    /// Panics if `seq` is outside the in-flight range.
    pub fn record(&self, seq: u64) -> &ExecRecord {
        assert!(
            seq >= self.committed && seq < self.frontier(),
            "record {seq} outside in-flight range [{}, {})",
            self.committed,
            self.frontier()
        );
        &self.replay[(seq - self.committed) as usize]
    }

    /// Total fetches served from the buffer instead of live functional
    /// execution.
    #[inline]
    pub fn replayed_count(&self) -> u64 {
        self.replayed
    }

    /// The PC the next fetch will execute.
    #[inline]
    pub fn fetch_pc(&self) -> Pc {
        if self.cursor < self.frontier() {
            self.replay[(self.cursor - self.committed) as usize].pc
        } else {
            self.cpu.state().pc()
        }
    }

    /// Functionally executes (or replays) the instruction at the fetch
    /// PC, returning only the scalars the fetch stage consumes — the
    /// full record stays in the buffer.
    #[inline]
    pub fn fetch_step_brief(&mut self) -> FetchBrief {
        let idx = (self.cursor - self.committed) as usize;
        let rec = if idx < self.replay.len() {
            self.replayed += 1;
            &self.replay[idx]
        } else {
            let rec = self.cpu.step();
            self.replay.push_back(rec);
            self.replay.back().expect("just pushed")
        };
        debug_assert_eq!(rec.seq, self.cursor, "record buffer out of sync");
        self.cursor += 1;
        FetchBrief {
            seq: rec.seq,
            pc: rec.pc,
            eff_addr: rec.eff_addr,
            taken: rec.taken,
        }
    }

    /// Sequence number of the next instruction to be fetched.
    #[inline]
    pub fn next_seq(&self) -> u64 {
        self.cursor
    }

    /// Sequence number of the next instruction to commit.
    #[inline]
    pub fn commit_seq(&self) -> u64 {
        self.committed
    }

    /// Commits the instruction at the commit point — a committed record
    /// can never be replayed again, so it leaves the buffer — and
    /// returns its effective address (what the commit stage's store
    /// bookkeeping needs).
    ///
    /// # Panics
    ///
    /// Panics if no in-flight (fetched) instruction is pending commit;
    /// debug-panics if the commit point disagrees with `expected_seq`
    /// (the pipeline's ROB front).
    pub fn commit_next_brief(&mut self, expected_seq: u64) -> Option<u64> {
        assert!(
            self.committed < self.cursor,
            "commit ahead of the fetch point"
        );
        debug_assert_eq!(
            self.committed, expected_seq,
            "oracle/ROB commit points diverged"
        );
        let rec = self.replay.pop_front().expect("in-flight record");
        debug_assert_eq!(rec.seq, self.committed, "record buffer out of sync");
        self.committed += 1;
        rec.eff_addr
    }

    /// Rewinds the fetch point to `resume_seq` (`committed <= resume_seq
    /// <= frontier`): the squash resumes fetching at `resume_seq`, with
    /// everything younger discarded. A pure cursor move — the `Cpu`
    /// stays parked at the frontier and the squashed span is served from
    /// the buffer on re-fetch.
    ///
    /// # Panics
    ///
    /// Panics (debug) if `resume_seq` is outside the buffered range —
    /// the pipeline only ever rewinds to in-flight points, which are
    /// always buffered.
    pub fn rewind_to(&mut self, resume_seq: u64) {
        debug_assert!(
            resume_seq >= self.committed && resume_seq <= self.frontier(),
            "rewind target {resume_seq} outside buffered range [{}, {}]",
            self.committed,
            self.frontier()
        );
        self.cursor = resume_seq;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rat_isa::{AluOp, Instruction, IntReg, Operand, Program};

    fn counting_cpu() -> Cpu {
        // r1 += 1; mem[0x100] = r1; forever
        let prog = Program::new(vec![
            Instruction::int_op(AluOp::Add, IntReg::new(1), IntReg::new(1), Operand::Imm(1)),
            Instruction::store(IntReg::new(1), IntReg::new(2), 0),
            Instruction::jump(0),
        ]);
        let mut cpu = Cpu::new(prog);
        cpu.state_mut().set_int_reg(IntReg::new(2), 0x100);
        cpu
    }

    /// The first `n` records of a fresh, never-squashed emulator run.
    fn reference(n: usize) -> Vec<ExecRecord> {
        let mut cpu = counting_cpu();
        (0..n).map(|_| cpu.step()).collect()
    }

    fn assert_matches(brief: FetchBrief, rec: &ExecRecord) {
        assert_eq!(brief.seq, rec.seq);
        assert_eq!(brief.pc, rec.pc);
        assert_eq!(brief.eff_addr, rec.eff_addr);
        assert_eq!(brief.taken, rec.taken);
    }

    #[test]
    fn record_resolves_inflight_seqs() {
        let mut o = OracleThread::new(counting_cpu());
        let briefs: Vec<_> = (0..5).map(|_| o.fetch_step_brief()).collect();
        o.commit_next_brief(0);
        for (b, r) in briefs[1..].iter().zip(&reference(5)[1..]) {
            let got = o.record(b.seq);
            assert_matches(*b, got);
            assert_eq!(got.result, r.result);
        }
    }

    #[test]
    fn deterministic_refetch_after_many_rewinds() {
        let mut o = OracleThread::new(counting_cpu());
        let baseline: Vec<_> = (0..12).map(|_| o.fetch_step_brief()).collect();
        o.rewind_to(0);
        for _ in 0..3 {
            for b in &baseline {
                let again = o.fetch_step_brief();
                assert_eq!((again.seq, again.pc), (b.seq, b.pc));
            }
            o.rewind_to(0);
        }
    }

    /// A fetch/commit/rewind schedule with partial squashes serves the
    /// same stream a never-squashed emulator produces.
    #[test]
    fn replay_matches_fresh_cpu_under_squashes() {
        let reference = reference(64);
        let mut o = OracleThread::new(counting_cpu());
        let mut inflight: Vec<u64> = Vec::new();
        for round in 0..5 {
            for _ in 0..7 {
                assert_eq!(o.fetch_pc(), reference[o.next_seq() as usize].pc);
                let b = o.fetch_step_brief();
                assert_matches(b, &reference[b.seq as usize]);
                inflight.push(b.seq);
            }
            for seq in inflight.drain(..2 + round % 2) {
                let addr = o.commit_next_brief(seq);
                assert_eq!(addr, reference[seq as usize].eff_addr);
            }
            // Squash the tail, keeping a round-dependent prefix.
            inflight.truncate(1 + round);
            let resume = inflight.last().map_or(o.commit_seq(), |s| s + 1);
            o.rewind_to(resume);
            assert_eq!(o.next_seq(), resume);
        }
        assert!(o.replayed_count() > 0, "schedule must exercise replay");
    }

    #[test]
    fn replay_serves_buffer_then_resumes_live() {
        let mut o = OracleThread::new(counting_cpu());
        let briefs: Vec<_> = (0..6).map(|_| o.fetch_step_brief()).collect();
        o.rewind_to(0);
        assert_eq!(o.next_seq(), 0);
        // The whole squashed span replays from the buffer...
        for b in &briefs {
            let again = o.fetch_step_brief();
            assert_eq!((again.seq, again.pc), (b.seq, b.pc));
        }
        assert_eq!(o.replayed_count(), 6);
        // ...and the next fetch crosses the frontier into live execution.
        let live = o.fetch_step_brief();
        assert_eq!(live.seq, 6);
        assert_eq!(o.replayed_count(), 6);
    }
}
