//! The dynamic instruction trace and its aggregate statistics.

use crate::dyninst::InstId;
use crate::DynInst;
use dae_isa::{OpKind, UnitClass};
use std::fmt;
use std::ops::Index;

/// Aggregate statistics of a trace.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceStats {
    /// Total dynamic instructions.
    pub instructions: usize,
    /// Dynamic integer / address operations.
    pub int_ops: usize,
    /// Dynamic floating point operations.
    pub fp_ops: usize,
    /// Dynamic loads.
    pub loads: usize,
    /// Dynamic stores.
    pub stores: usize,
    /// Dynamic loads whose address depends on a loaded or computed data value.
    pub indirect_loads: usize,
    /// Instructions tagged for the access stream.
    pub access_insts: usize,
    /// Instructions tagged for the compute stream.
    pub compute_insts: usize,
    /// Total dependence edges.
    pub dep_edges: usize,
}

/// A dynamic instruction trace in program order.
///
/// Traces are produced by [`expand`](crate::expand) from a static
/// [`Kernel`](dae_isa::Kernel) and consumed by the machine lowerings
/// ([`partition`](crate::partition), [`expand_swsm`](crate::expand_swsm),
/// [`lower_scalar`](crate::lower_scalar)).
///
/// # Example
///
/// ```
/// use dae_isa::{KernelBuilder, Operand};
/// use dae_trace::expand;
///
/// let mut b = KernelBuilder::new("axpy");
/// let i = b.induction();
/// let x = b.load_strided(&[Operand::Local(i)], 0, 8);
/// let y = b.fp_mul(&[Operand::Local(x), Operand::Invariant(0)]);
/// b.store_strided(&[Operand::Local(y), Operand::Local(i)], 0x1000, 8);
/// let kernel = b.build()?;
///
/// let trace = expand(&kernel, 100);
/// assert_eq!(trace.len(), 400);
/// assert_eq!(trace.stats().loads, 100);
/// assert_eq!(trace.stats().stores, 100);
/// # Ok::<(), dae_isa::KernelError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    name: String,
    iterations: u64,
    insts: Vec<DynInst>,
}

impl Trace {
    /// Assembles a trace from parts.  Intended for use by
    /// [`expand`](crate::expand) and by tests that build traces by hand.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if instruction ids are not consecutive from
    /// zero or if a dependence points forward.
    #[must_use]
    pub(crate) fn from_parts(
        name: impl Into<String>,
        iterations: u64,
        insts: Vec<DynInst>,
    ) -> Self {
        #[cfg(debug_assertions)]
        for (pos, inst) in insts.iter().enumerate() {
            debug_assert_eq!(inst.id, pos, "instruction ids must be dense");
            for dep in &inst.deps {
                debug_assert!(dep.producer < pos, "dependence must point backwards");
            }
        }
        Trace {
            name: name.into(),
            iterations,
            insts,
        }
    }

    /// How many kernel iterations the trace covers.
    #[must_use]
    pub fn iterations(&self) -> u64 {
        self.iterations
    }

    /// The number of dynamic instructions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// Returns `true` if the trace is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// The instructions in program order.
    #[must_use]
    pub(crate) fn insts(&self) -> &[DynInst] {
        &self.insts
    }

    /// Iterates over the instructions in program order.
    pub fn iter(&self) -> impl Iterator<Item = &DynInst> {
        self.insts.iter()
    }

    /// Computes aggregate statistics over the whole trace.
    #[must_use]
    pub fn stats(&self) -> TraceStats {
        let mut st = TraceStats {
            instructions: self.insts.len(),
            ..TraceStats::default()
        };
        for inst in &self.insts {
            match inst.op {
                OpKind::IntAlu => st.int_ops += 1,
                OpKind::FpAdd | OpKind::FpMul | OpKind::FpDiv => st.fp_ops += 1,
                OpKind::Load => {
                    st.loads += 1;
                    if inst.deps.iter().any(|d| {
                        d.role == crate::DepRole::Address
                            && self.insts[d.producer].op.produces_value()
                            && (self.insts[d.producer].op.is_load()
                                || self.insts[d.producer].op.is_fp())
                    }) {
                        st.indirect_loads += 1;
                    }
                }
                OpKind::Store => st.stores += 1,
            }
            match inst.unit_hint {
                UnitClass::Access => st.access_insts += 1,
                UnitClass::Compute => st.compute_insts += 1,
            }
            st.dep_edges += inst.deps.len();
        }
        st
    }
}

impl Index<InstId> for Trace {
    type Output = DynInst;

    fn index(&self, id: InstId) -> &DynInst {
        &self.insts[id]
    }
}

impl fmt::Display for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let st = self.stats();
        write!(
            f,
            "trace {} ({} iterations, {} instructions: {} int, {} fp, {} loads, {} stores)",
            self.name, self.iterations, st.instructions, st.int_ops, st.fp_ops, st.loads, st.stores
        )
    }
}

impl<'a> IntoIterator for &'a Trace {
    type Item = &'a DynInst;
    type IntoIter = std::slice::Iter<'a, DynInst>;

    fn into_iter(self) -> Self::IntoIter {
        self.insts.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DepEdge;

    fn tiny_trace() -> Trace {
        let insts = vec![
            DynInst {
                id: 0,
                op: OpKind::IntAlu,
                unit_hint: UnitClass::Access,
                deps: vec![],
                addr: None,
                stmt: 0,
                iteration: 0,
            },
            DynInst {
                id: 1,
                op: OpKind::Load,
                unit_hint: UnitClass::Access,
                deps: vec![DepEdge::address(0)],
                addr: Some(0x40),
                stmt: 1,
                iteration: 0,
            },
            DynInst {
                id: 2,
                op: OpKind::FpAdd,
                unit_hint: UnitClass::Compute,
                deps: vec![DepEdge::data(1)],
                addr: None,
                stmt: 2,
                iteration: 0,
            },
            DynInst {
                id: 3,
                op: OpKind::Store,
                unit_hint: UnitClass::Access,
                deps: vec![DepEdge::data(2), DepEdge::address(0)],
                addr: Some(0x80),
                stmt: 3,
                iteration: 0,
            },
        ];
        Trace::from_parts("tiny", 1, insts)
    }

    #[test]
    fn stats_count_kinds_and_edges() {
        let t = tiny_trace();
        let st = t.stats();
        assert_eq!(st.instructions, 4);
        assert_eq!(st.int_ops, 1);
        assert_eq!(st.fp_ops, 1);
        assert_eq!(st.loads, 1);
        assert_eq!(st.stores, 1);
        assert_eq!(st.dep_edges, 4);
        assert_eq!(st.access_insts, 3);
        assert_eq!(st.compute_insts, 1);
    }

    #[test]
    fn indexing_and_iteration() {
        let t = tiny_trace();
        assert_eq!(t[2].op, OpKind::FpAdd);
        assert_eq!(t.iter().count(), 4);
        assert_eq!((&t).into_iter().count(), 4);
    }

    #[test]
    fn display_mentions_counts() {
        let text = format!("{}", tiny_trace());
        assert!(text.contains("4 instructions"));
        assert!(text.contains("1 loads"));
    }

    #[test]
    #[cfg(debug_assertions)] // the guard is a debug_assert: release strips it
    #[should_panic(expected = "dependence must point backwards")]
    fn forward_dependences_panic_in_debug() {
        let insts = vec![DynInst {
            id: 0,
            op: OpKind::IntAlu,
            unit_hint: UnitClass::Access,
            deps: vec![DepEdge::data(0)],
            addr: None,
            stmt: 0,
            iteration: 0,
        }];
        let _ = Trace::from_parts("bad", 1, insts);
    }
}
