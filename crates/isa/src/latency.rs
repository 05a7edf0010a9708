//! Functional-unit latencies of the idealised machine.

use crate::{Cycle, OpKind};

/// Fixed execution latencies for arithmetic operations.
///
/// The paper gives integer and address computations a one-cycle cost and
/// floating point operations a small fixed cost (divide and intrinsics are
/// the long exceptions).  Memory operation timing is *not* part of this
/// model: loads and stores always spend one cycle in a functional unit and
/// their memory cost (the memory differential) is charged by the memory
/// models in `dae-mem`.
///
/// # Example
///
/// ```
/// use dae_isa::{LatencyModel, OpKind};
///
/// let lat = LatencyModel::paper_default();
/// assert_eq!(lat.latency_of(OpKind::IntAlu), 1);
/// assert_eq!(lat.latency_of(OpKind::FpAdd), 2);
/// assert!(lat.latency_of(OpKind::FpDiv) > lat.latency_of(OpKind::FpMul));
/// assert_eq!(lat.latency_of(OpKind::Load), 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LatencyModel {
    /// Latency of integer / address arithmetic.
    pub int_alu: Cycle,
    /// Latency of floating-point add/subtract.
    pub fp_add: Cycle,
    /// Latency of floating-point multiply.
    pub fp_mul: Cycle,
    /// Latency of floating-point divide and intrinsics.
    pub fp_div: Cycle,
    /// Occupancy of the address-generation stage of a memory operation.
    ///
    /// This is the single cycle a load or store spends in a functional unit
    /// before it is handed to the memory system; the memory differential is
    /// charged separately by the machine models.
    pub mem_issue: Cycle,
}

impl LatencyModel {
    /// The latencies stated (or implied) by the paper: 1-cycle integer ops,
    /// 2-cycle floating point adds and multiplies, long divides.
    #[must_use]
    pub fn paper_default() -> Self {
        LatencyModel {
            int_alu: 1,
            fp_add: 2,
            fp_mul: 2,
            fp_div: 8,
            mem_issue: 1,
        }
    }

    /// The execution latency of `op` (excluding any memory-system cost).
    #[must_use]
    pub fn latency_of(&self, op: OpKind) -> Cycle {
        match op {
            OpKind::IntAlu => self.int_alu,
            OpKind::FpAdd => self.fp_add,
            OpKind::FpMul => self.fp_mul,
            OpKind::FpDiv => self.fp_div,
            OpKind::Load | OpKind::Store => self.mem_issue,
        }
    }

    /// The largest arithmetic latency in the model.
    #[must_use]
    pub fn max_arith_latency(&self) -> Cycle {
        self.int_alu
            .max(self.fp_add)
            .max(self.fp_mul)
            .max(self.fp_div)
    }

    /// Validates that every latency is at least one cycle.
    ///
    /// # Errors
    ///
    /// Returns the offending operation kind if any latency is zero.
    pub fn validate(&self) -> Result<(), OpKind> {
        for op in OpKind::ALL {
            if self.latency_of(op) == 0 {
                return Err(op);
            }
        }
        Ok(())
    }
}

impl Default for LatencyModel {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper() {
        let lat = LatencyModel::default();
        assert_eq!(lat, LatencyModel::paper_default());
        assert_eq!(lat.latency_of(OpKind::IntAlu), 1);
        assert_eq!(lat.latency_of(OpKind::FpAdd), 2);
        assert_eq!(lat.latency_of(OpKind::FpMul), 2);
        assert_eq!(lat.latency_of(OpKind::Load), 1);
        assert_eq!(lat.latency_of(OpKind::Store), 1);
    }

    #[test]
    fn divide_is_the_long_pole() {
        let lat = LatencyModel::paper_default();
        assert_eq!(lat.max_arith_latency(), lat.fp_div);
    }

    #[test]
    fn validation_rejects_zero_latency() {
        let mut lat = LatencyModel::paper_default();
        assert!(lat.validate().is_ok());
        lat.fp_mul = 0;
        assert_eq!(lat.validate(), Err(OpKind::FpMul));
    }
}
