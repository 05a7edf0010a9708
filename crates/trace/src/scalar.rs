//! Lowering for the scalar reference machine (no prefetching).

use crate::machine_inst::MemTag;
use crate::{Dep, DepList, ExecKind, MachineInst, Trace, WakeupList};
use dae_isa::OpKind;
use std::sync::Arc;

/// A trace lowered for the scalar reference machine: loads block for the
/// full memory latency, nothing is prefetched.
#[derive(Debug, Clone, PartialEq)]
pub struct ScalarProgram {
    /// The single instruction stream, in program order (reference counted
    /// so sweep drivers can share one lowering across simulation points).
    pub insts: Arc<Vec<MachineInst>>,
    /// Producer → consumers wakeup lists for the event-driven scheduler,
    /// built once per lowering.
    pub wakeups: Arc<WakeupList>,
    /// The number of memory transactions.
    pub transactions: u32,
}

/// Lowers `trace` one-to-one for the scalar reference machine.
///
/// Loads become [`ExecKind::LoadBlocking`] (they occupy the machine for
/// `1 + memory differential` cycles), stores become fire-and-forget
/// [`ExecKind::StoreOp`]s and arithmetic passes through unchanged.  This is
/// the machine the paper's speedups are measured against in this
/// reproduction (see DESIGN.md for the baseline discussion).
///
/// # Example
///
/// ```
/// use dae_isa::{KernelBuilder, Operand};
/// use dae_trace::{expand, lower_scalar};
///
/// let mut b = KernelBuilder::new("sum");
/// let i = b.induction();
/// let x = b.load_strided(&[Operand::Local(i)], 0, 8);
/// b.fp_add_carried_self(&[Operand::Local(x)]);
/// let trace = expand(&b.build()?, 8);
///
/// let scalar = lower_scalar(&trace);
/// assert_eq!(scalar.insts.len(), trace.len());
/// # Ok::<(), dae_isa::KernelError>(())
/// ```
#[must_use]
pub fn lower_scalar(trace: &Trace) -> ScalarProgram {
    let mut insts = Vec::with_capacity(trace.len());
    let mut value_of: Vec<Option<usize>> = vec![None; trace.len()];
    let mut next_tag: MemTag = 0;

    for inst in trace.iter() {
        let deps: DepList = inst
            .deps
            .iter()
            .map(|d| Dep::local(value_of[d.producer].expect("producer lowered")))
            .collect();
        let idx = insts.len();
        match inst.op {
            OpKind::Load => {
                let tag = next_tag;
                next_tag += 1;
                insts.push(MachineInst::memory(
                    inst.id,
                    OpKind::Load,
                    ExecKind::LoadBlocking,
                    deps,
                    tag,
                    inst.addr,
                ));
                value_of[inst.id] = Some(idx);
            }
            OpKind::Store => {
                let tag = next_tag;
                next_tag += 1;
                insts.push(MachineInst::memory(
                    inst.id,
                    OpKind::Store,
                    ExecKind::StoreOp,
                    deps,
                    tag,
                    inst.addr,
                ));
            }
            _ => {
                insts.push(MachineInst::arith(inst.id, inst.op, deps));
                value_of[inst.id] = Some(idx);
            }
        }
    }

    let wakeups = Arc::new(WakeupList::local(&insts));
    ScalarProgram {
        insts: Arc::new(insts),
        wakeups,
        transactions: next_tag,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expand;
    use crate::machine_inst::stream_stats;
    use dae_isa::{KernelBuilder, Operand};

    fn trace(iters: u64) -> Trace {
        let mut b = KernelBuilder::new("sum");
        let i = b.induction();
        let x = b.load_strided(&[Operand::Local(i)], 0, 8);
        let acc = b.fp_add_carried_self(&[Operand::Local(x)]);
        b.store_strided(&[Operand::Local(acc), Operand::Local(i)], 0x1000, 8);
        expand(&b.build().unwrap(), iters)
    }

    #[test]
    fn lowering_is_one_to_one() {
        let t = trace(12);
        let scalar = lower_scalar(&t);
        assert_eq!(scalar.insts.len(), t.len());
        let st = stream_stats(&scalar.insts);
        assert_eq!(st.load_blocking, 12);
        assert_eq!(st.stores, 12);
        assert_eq!(st.load_requests, 0);
        assert_eq!(st.load_consumes, 0);
        assert_eq!(st.copies, 0);
        assert_eq!(scalar.transactions, 24);
    }

    #[test]
    fn deps_map_to_lowered_positions() {
        let t = trace(6);
        let scalar = lower_scalar(&t);
        for (pos, inst) in scalar.insts.iter().enumerate() {
            assert_eq!(inst.trace_pos, pos, "one-to-one lowering keeps positions");
            for dep in &inst.deps {
                assert!(dep.index() < pos);
                assert!(!dep.is_cross());
            }
        }
    }

    #[test]
    fn empty_trace_is_fine() {
        let t = trace(0);
        let scalar = lower_scalar(&t);
        assert!(scalar.insts.is_empty());
        assert_eq!(scalar.transactions, 0);
    }
}
