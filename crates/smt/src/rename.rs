//! Per-thread register rename tables.

use rat_isa::{ArchReg, NUM_FP_ARCH_REGS, NUM_INT_ARCH_REGS};

use crate::types::PhysReg;

/// A thread's rename state: the speculative front-end map (`fmap`, updated
/// at rename) and the architectural map (`amap`, updated at commit).
///
/// The `amap` doubles as the runahead checkpoint: because a runahead
/// episode begins only when the triggering load is at the ROB head (all
/// older instructions committed), the architectural map at entry *is* the
/// paper's checkpoint — restoring it at exit is `fmap := amap`.
#[derive(Clone, Debug)]
pub struct RenameTables {
    fmap_int: [PhysReg; NUM_INT_ARCH_REGS],
    fmap_fp: [PhysReg; NUM_FP_ARCH_REGS],
    amap_int: [PhysReg; NUM_INT_ARCH_REGS],
    amap_fp: [PhysReg; NUM_FP_ARCH_REGS],
}

impl RenameTables {
    /// Creates tables with both maps pointing at the given initial
    /// physical registers (one per architectural register, allocated by
    /// the pipeline at reset).
    pub fn new(
        init_int: [PhysReg; NUM_INT_ARCH_REGS],
        init_fp: [PhysReg; NUM_FP_ARCH_REGS],
    ) -> Self {
        RenameTables {
            fmap_int: init_int,
            fmap_fp: init_fp,
            amap_int: init_int,
            amap_fp: init_fp,
        }
    }

    /// Speculative mapping of `reg`.
    #[inline]
    pub fn lookup(&self, reg: ArchReg) -> PhysReg {
        match reg {
            ArchReg::Int(r) => self.fmap_int[r.index()],
            ArchReg::Fp(r) => self.fmap_fp[r.index()],
        }
    }

    /// Renames `reg` to `p`, returning the previous speculative mapping
    /// (recorded in the ROB entry for walk-back recovery).
    #[inline]
    pub fn rename(&mut self, reg: ArchReg, p: PhysReg) -> PhysReg {
        match reg {
            ArchReg::Int(r) => std::mem::replace(&mut self.fmap_int[r.index()], p),
            ArchReg::Fp(r) => std::mem::replace(&mut self.fmap_fp[r.index()], p),
        }
    }

    /// Restores a previous speculative mapping (squash walk-back).
    #[inline]
    pub fn restore(&mut self, reg: ArchReg, prev: PhysReg) {
        match reg {
            ArchReg::Int(r) => self.fmap_int[r.index()] = prev,
            ArchReg::Fp(r) => self.fmap_fp[r.index()] = prev,
        }
    }

    /// Commits `reg -> p`, returning the previous architectural mapping
    /// (whose register the pipeline frees).
    #[inline]
    pub fn commit(&mut self, reg: ArchReg, p: PhysReg) -> PhysReg {
        match reg {
            ArchReg::Int(r) => std::mem::replace(&mut self.amap_int[r.index()], p),
            ArchReg::Fp(r) => std::mem::replace(&mut self.amap_fp[r.index()], p),
        }
    }

    /// Resets the speculative map to the architectural map (runahead exit:
    /// restore the checkpoint).
    pub fn reset_to_arch(&mut self) {
        self.fmap_int = self.amap_int;
        self.fmap_fp = self.amap_fp;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rat_isa::{FpReg, IntReg};

    fn fresh() -> RenameTables {
        let ints: [PhysReg; 32] = std::array::from_fn(|i| i as PhysReg);
        let fps: [PhysReg; 32] = std::array::from_fn(|i| 100 + i as PhysReg);
        RenameTables::new(ints, fps)
    }

    #[test]
    fn rename_and_lookup() {
        let mut t = fresh();
        let r5 = ArchReg::Int(IntReg::new(5));
        assert_eq!(t.lookup(r5), 5);
        let prev = t.rename(r5, 42);
        assert_eq!(prev, 5);
        assert_eq!(t.lookup(r5), 42);
        t.reset_to_arch();
        assert_eq!(t.lookup(r5), 5, "amap unchanged until commit");
    }

    #[test]
    fn commit_advances_arch_map() {
        let mut t = fresh();
        let f3 = ArchReg::Fp(FpReg::new(3));
        t.rename(f3, 200);
        let old = t.commit(f3, 200);
        assert_eq!(old, 103);
        t.rename(f3, 201);
        t.reset_to_arch();
        assert_eq!(t.lookup(f3), 200);
    }

    #[test]
    fn walkback_restore() {
        let mut t = fresh();
        let r1 = ArchReg::Int(IntReg::new(1));
        let prev = t.rename(r1, 50);
        t.restore(r1, prev);
        assert_eq!(t.lookup(r1), 1);
    }

    #[test]
    fn reset_to_arch_restores_checkpoint() {
        let mut t = fresh();
        let r1 = ArchReg::Int(IntReg::new(1));
        let f1 = ArchReg::Fp(FpReg::new(1));
        t.rename(r1, 60);
        t.rename(f1, 260);
        t.reset_to_arch();
        assert_eq!(t.lookup(r1), 1);
        assert_eq!(t.lookup(f1), 101);
        for i in 0..32 {
            assert_eq!(t.lookup(ArchReg::Int(IntReg::new(i))), i as PhysReg);
            assert_eq!(t.lookup(ArchReg::Fp(FpReg::new(i))), 100 + i as PhysReg);
        }
    }
}
