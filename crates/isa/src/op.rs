//! Operation kinds of the idealised instruction set.

use std::fmt;

/// The operation classes distinguished by the paper's idealised machines.
///
/// The paper models only the costs that matter to the latency-hiding
/// comparison: integer and address computations complete in one cycle,
/// floating-point operations take a small fixed number of cycles (divide is
/// longer), and memory operations cost one cycle plus the *memory
/// differential* unless the latency is hidden.  Branches do not appear:
/// loop-closing branches are assumed to have been removed by unrolling and
/// perfect prediction.
///
/// # Example
///
/// ```
/// use dae_isa::OpKind;
///
/// assert!(OpKind::Load.is_memory());
/// assert!(OpKind::FpMul.is_fp());
/// assert!(!OpKind::IntAlu.is_fp());
/// assert_eq!(OpKind::Store.to_string(), "store");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum OpKind {
    /// Integer / address arithmetic (adds, shifts, compares, induction
    /// updates).  Single-cycle.
    IntAlu,
    /// Floating-point addition or subtraction.
    FpAdd,
    /// Floating-point multiplication.
    FpMul,
    /// Floating-point division (or an intrinsic such as `sqrt`); the only
    /// long-latency arithmetic operation in the model.
    FpDiv,
    /// A load from the memory system.
    Load,
    /// A store to the memory system.
    Store,
}

impl OpKind {
    /// All operation kinds, in a stable order.
    ///
    /// ```
    /// assert_eq!(dae_isa::OpKind::ALL.len(), 6);
    /// ```
    pub const ALL: [OpKind; 6] = [
        OpKind::IntAlu,
        OpKind::FpAdd,
        OpKind::FpMul,
        OpKind::FpDiv,
        OpKind::Load,
        OpKind::Store,
    ];

    /// Returns `true` for loads and stores.
    #[must_use]
    pub fn is_memory(self) -> bool {
        matches!(self, OpKind::Load | OpKind::Store)
    }

    /// Returns `true` for loads.
    #[must_use]
    pub fn is_load(self) -> bool {
        matches!(self, OpKind::Load)
    }

    /// Returns `true` for stores.
    #[must_use]
    pub(crate) fn is_store(self) -> bool {
        matches!(self, OpKind::Store)
    }

    /// Returns `true` for floating-point arithmetic (add, mul, div).
    #[must_use]
    pub fn is_fp(self) -> bool {
        matches!(self, OpKind::FpAdd | OpKind::FpMul | OpKind::FpDiv)
    }

    /// Returns `true` if the operation produces a value that later
    /// instructions can consume.
    ///
    /// Stores are the only operations without a result in this model.
    #[must_use]
    pub fn produces_value(self) -> bool {
        !self.is_store()
    }

    /// A short lower-case mnemonic used in reports and `Display` output.
    #[must_use]
    pub(crate) fn mnemonic(self) -> &'static str {
        match self {
            OpKind::IntAlu => "int",
            OpKind::FpAdd => "fadd",
            OpKind::FpMul => "fmul",
            OpKind::FpDiv => "fdiv",
            OpKind::Load => "load",
            OpKind::Store => "store",
        }
    }
}

impl fmt::Display for OpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_classification() {
        assert!(OpKind::Load.is_memory());
        assert!(OpKind::Store.is_memory());
        assert!(!OpKind::IntAlu.is_memory());
        assert!(!OpKind::FpAdd.is_memory());
        assert!(!OpKind::FpMul.is_memory());
        assert!(!OpKind::FpDiv.is_memory());
    }

    #[test]
    fn load_store_split() {
        assert!(OpKind::Load.is_load());
        assert!(!OpKind::Load.is_store());
        assert!(OpKind::Store.is_store());
        assert!(!OpKind::Store.is_load());
    }

    #[test]
    fn fp_classification() {
        assert!(OpKind::FpAdd.is_fp());
        assert!(OpKind::FpMul.is_fp());
        assert!(OpKind::FpDiv.is_fp());
        assert!(!OpKind::IntAlu.is_fp());
        assert!(!OpKind::Load.is_fp());
    }

    #[test]
    fn only_stores_produce_no_value() {
        for op in OpKind::ALL {
            assert_eq!(op.produces_value(), op != OpKind::Store, "{op}");
        }
    }

    #[test]
    fn mnemonics_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for op in OpKind::ALL {
            assert!(seen.insert(op.mnemonic()), "duplicate mnemonic {op}");
        }
    }

    #[test]
    fn display_matches_mnemonic() {
        for op in OpKind::ALL {
            assert_eq!(format!("{op}"), op.mnemonic());
        }
    }

    #[test]
    fn ordering_is_stable() {
        let mut sorted = OpKind::ALL.to_vec();
        sorted.sort();
        assert_eq!(sorted, OpKind::ALL.to_vec());
    }
}
