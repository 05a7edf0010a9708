//! Functional-unit pools and per-cycle issue-port accounting.

use crate::FuConfig;
use dae_isa::OpKind;
use dae_trace::{ExecKind, MachineInst};

/// The three resource classes distinguished by the functional-unit model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum FuClass {
    /// Integer / address ALUs (also used for cross-unit copies).
    Int,
    /// Floating point units.
    Fp,
    /// Memory ports (requests, consumes, blocking loads and stores).
    Mem,
}

impl FuClass {
    /// The resource class an instruction occupies when it issues.
    #[must_use]
    pub(crate) fn of(inst: &MachineInst) -> FuClass {
        match inst.kind {
            ExecKind::Arith => match inst.op {
                OpKind::FpAdd | OpKind::FpMul | OpKind::FpDiv => FuClass::Fp,
                _ => FuClass::Int,
            },
            ExecKind::CopySend => FuClass::Int,
            ExecKind::LoadRequest
            | ExecKind::LoadConsume
            | ExecKind::LoadBlocking
            | ExecKind::StoreOp => FuClass::Mem,
        }
    }
}

/// Tracks functional-unit availability within a single cycle.
///
/// The paper's idealised machines have unlimited functional units; the pool
/// therefore defaults to "always available" and only starts rejecting issues
/// when limits are configured (the restricted-issue ablation).
#[derive(Debug, Clone)]
pub(crate) struct FuPool {
    config: FuConfig,
    /// No class is limited — the paper's default — so acquisition always
    /// succeeds and no per-cycle counters need maintaining.
    unlimited: bool,
    used_int: usize,
    used_fp: usize,
    used_mem: usize,
    /// How many issues were rejected because a unit class was exhausted.
    rejections: u64,
}

impl FuPool {
    /// Creates a pool with the given limits.
    #[must_use]
    pub(crate) fn new(config: FuConfig) -> Self {
        FuPool {
            config,
            unlimited: config.int_units.is_none()
                && config.fp_units.is_none()
                && config.mem_ports.is_none(),
            used_int: 0,
            used_fp: 0,
            used_mem: 0,
            rejections: 0,
        }
    }

    /// Resets per-cycle usage; call once at the start of every cycle.
    #[inline]
    pub(crate) fn begin_cycle(&mut self) {
        if self.unlimited {
            return;
        }
        self.used_int = 0;
        self.used_fp = 0;
        self.used_mem = 0;
    }

    /// Attempts to acquire a unit of the given class for this cycle.
    #[inline]
    pub(crate) fn try_acquire(&mut self, class: FuClass) -> bool {
        if self.unlimited {
            return true;
        }
        let (used, limit) = match class {
            FuClass::Int => (&mut self.used_int, self.config.int_units),
            FuClass::Fp => (&mut self.used_fp, self.config.fp_units),
            FuClass::Mem => (&mut self.used_mem, self.config.mem_ports),
        };
        match limit {
            Some(cap) if *used >= cap => {
                self.rejections += 1;
                false
            }
            _ => {
                *used += 1;
                true
            }
        }
    }

    /// Total issue attempts rejected due to exhausted functional units.
    #[must_use]
    pub(crate) fn rejections(&self) -> u64 {
        self.rejections
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dae_trace::Dep;

    #[test]
    fn class_of_each_instruction_kind() {
        let int = MachineInst::arith(0, OpKind::IntAlu, vec![]);
        let fp = MachineInst::arith(0, OpKind::FpMul, vec![]);
        let copy = MachineInst::copy(0, vec![Dep::local(0)]);
        let req = MachineInst::memory(0, OpKind::Load, ExecKind::LoadRequest, vec![], 0, None);
        let consume = MachineInst::memory(0, OpKind::Load, ExecKind::LoadConsume, vec![], 0, None);
        let store = MachineInst::memory(0, OpKind::Store, ExecKind::StoreOp, vec![], 0, None);
        assert_eq!(FuClass::of(&int), FuClass::Int);
        assert_eq!(FuClass::of(&fp), FuClass::Fp);
        assert_eq!(FuClass::of(&copy), FuClass::Int);
        assert_eq!(FuClass::of(&req), FuClass::Mem);
        assert_eq!(FuClass::of(&consume), FuClass::Mem);
        assert_eq!(FuClass::of(&store), FuClass::Mem);
    }

    #[test]
    fn unlimited_pool_never_rejects() {
        let mut pool = FuPool::new(FuConfig::unlimited());
        pool.begin_cycle();
        for _ in 0..1000 {
            assert!(pool.try_acquire(FuClass::Mem));
            assert!(pool.try_acquire(FuClass::Fp));
            assert!(pool.try_acquire(FuClass::Int));
        }
        assert_eq!(pool.rejections(), 0);
    }

    #[test]
    fn limits_apply_per_class_and_per_cycle() {
        let mut pool = FuPool::new(FuConfig::restricted(2, 1, 3));
        pool.begin_cycle();
        assert!(pool.try_acquire(FuClass::Int));
        assert!(pool.try_acquire(FuClass::Int));
        assert!(!pool.try_acquire(FuClass::Int));
        assert!(pool.try_acquire(FuClass::Fp));
        assert!(!pool.try_acquire(FuClass::Fp));
        for _ in 0..3 {
            assert!(pool.try_acquire(FuClass::Mem));
        }
        assert!(!pool.try_acquire(FuClass::Mem));
        assert_eq!(pool.rejections(), 3);

        pool.begin_cycle();
        assert!(pool.try_acquire(FuClass::Int));
        assert!(pool.try_acquire(FuClass::Fp));
        assert!(pool.try_acquire(FuClass::Mem));
    }
}
