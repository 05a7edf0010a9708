//! Lowering for the single-window superscalar machine (SWSM): the hybrid
//! prefetch expansion.

use crate::machine_inst::MemTag;
use crate::{Dep, DepList, DepRole, ExecKind, MachineInst, Trace, WakeupList};
use dae_isa::OpKind;
use std::sync::Arc;

/// Counters describing an SWSM-lowered program.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SwsmStats {
    /// Architectural instructions in the source trace.
    pub trace_instructions: usize,
    /// Lowered instructions.
    pub machine_instructions: usize,
    /// Prefetch instructions inserted (one per memory operation).
    pub prefetches: usize,
    /// Access instructions (the second half of each memory operation).
    pub accesses: usize,
}

impl SwsmStats {
    /// Ratio of lowered to architectural instructions.  The paper's hybrid
    /// scheme doubles every memory operation, so this is
    /// `1 + memory_fraction` of the original trace.
    #[must_use]
    pub fn expansion_ratio(&self) -> f64 {
        if self.trace_instructions == 0 {
            0.0
        } else {
            self.machine_instructions as f64 / self.trace_instructions as f64
        }
    }
}

/// A trace lowered for the single-window superscalar machine.
#[derive(Debug, Clone, PartialEq)]
pub struct SwsmProgram {
    /// The single instruction stream, in program order (reference counted
    /// so sweep drivers can share one lowering across simulation points).
    pub insts: Arc<Vec<MachineInst>>,
    /// Producer → consumers wakeup lists for the event-driven scheduler,
    /// built once per lowering.
    pub wakeups: Arc<WakeupList>,
    /// Structural statistics gathered during lowering.
    pub stats: SwsmStats,
    /// The number of memory transactions (prefetch/access pairs).
    pub transactions: u32,
}

/// Expands `trace` for the SWSM's hybrid prefetch scheme.
///
/// Every memory operation becomes two instructions (section 2 of the paper):
///
/// * a **prefetch** ([`ExecKind::LoadRequest`]) that carries the address
///   dependences, begins execution as soon as run-time resources allow, and
///   fills the fully-associative prefetch buffer `memory differential`
///   cycles later; and
/// * an **access** — for loads a [`ExecKind::LoadConsume`] that waits for
///   the prefetched data and then completes as a one-cycle prefetch-buffer
///   hit; for stores a fire-and-forget [`ExecKind::StoreOp`] carrying both
///   the data and the address dependences.
///
/// Consumers of a load's value depend on the *access* instruction, exactly
/// as they would on an ordinary load.  Arithmetic passes through unchanged.
///
/// # Example
///
/// ```
/// use dae_isa::{KernelBuilder, Operand};
/// use dae_trace::{expand, expand_swsm};
///
/// let mut b = KernelBuilder::new("scale");
/// let i = b.induction();
/// let x = b.load_strided(&[Operand::Local(i)], 0, 8);
/// let y = b.fp_mul(&[Operand::Local(x), Operand::Invariant(0)]);
/// b.store_strided(&[Operand::Local(y), Operand::Local(i)], 0x1000, 8);
/// let trace = expand(&b.build()?, 10);
///
/// let swsm = expand_swsm(&trace);
/// // 4 architectural instructions, 2 of which are memory ops -> 6 lowered.
/// assert_eq!(swsm.insts.len() / 10, 6);
/// assert!((swsm.stats.expansion_ratio() - 1.5).abs() < 1e-9);
/// # Ok::<(), dae_isa::KernelError>(())
/// ```
#[must_use]
pub fn expand_swsm(trace: &Trace) -> SwsmProgram {
    let mut insts: Vec<MachineInst> = Vec::with_capacity(trace.len() * 2);
    // Where each architectural instruction's value lives in the lowered
    // stream.
    let mut value_of: Vec<Option<usize>> = vec![None; trace.len()];
    let mut stats = SwsmStats {
        trace_instructions: trace.len(),
        ..SwsmStats::default()
    };
    let mut next_tag: MemTag = 0;

    for inst in trace.iter() {
        match inst.op {
            OpKind::Load => {
                let tag = next_tag;
                next_tag += 1;
                let addr_deps: DepList = inst
                    .deps
                    .iter()
                    .filter(|d| d.role == DepRole::Address)
                    .map(|d| Dep::local(value_of[d.producer].expect("producer lowered")))
                    .collect();
                let prefetch_idx = insts.len();
                insts.push(MachineInst::memory(
                    inst.id,
                    OpKind::Load,
                    ExecKind::LoadRequest,
                    addr_deps.clone(),
                    tag,
                    inst.addr,
                ));
                stats.prefetches += 1;
                let mut access_deps = addr_deps;
                access_deps.push(Dep::local(prefetch_idx));
                let access_idx = insts.len();
                insts.push(MachineInst::memory(
                    inst.id,
                    OpKind::Load,
                    ExecKind::LoadConsume,
                    access_deps,
                    tag,
                    inst.addr,
                ));
                stats.accesses += 1;
                value_of[inst.id] = Some(access_idx);
            }
            OpKind::Store => {
                let tag = next_tag;
                next_tag += 1;
                let addr_deps: DepList = inst
                    .deps
                    .iter()
                    .filter(|d| d.role == DepRole::Address)
                    .map(|d| Dep::local(value_of[d.producer].expect("producer lowered")))
                    .collect();
                insts.push(MachineInst::memory(
                    inst.id,
                    OpKind::Store,
                    ExecKind::LoadRequest,
                    addr_deps,
                    tag,
                    inst.addr,
                ));
                stats.prefetches += 1;
                let all_deps: DepList = inst
                    .deps
                    .iter()
                    .map(|d| Dep::local(value_of[d.producer].expect("producer lowered")))
                    .collect();
                insts.push(MachineInst::memory(
                    inst.id,
                    OpKind::Store,
                    ExecKind::StoreOp,
                    all_deps,
                    tag,
                    inst.addr,
                ));
                stats.accesses += 1;
            }
            _ => {
                let deps: DepList = inst
                    .deps
                    .iter()
                    .map(|d| Dep::local(value_of[d.producer].expect("producer lowered")))
                    .collect();
                let idx = insts.len();
                insts.push(MachineInst::arith(inst.id, inst.op, deps));
                value_of[inst.id] = Some(idx);
            }
        }
    }

    stats.machine_instructions = insts.len();
    let wakeups = Arc::new(WakeupList::local(&insts));
    SwsmProgram {
        insts: Arc::new(insts),
        wakeups,
        stats,
        transactions: next_tag,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expand;
    use crate::machine_inst::stream_stats;
    use dae_isa::{KernelBuilder, Operand};

    fn scale_trace(iters: u64) -> Trace {
        let mut b = KernelBuilder::new("scale");
        let i = b.induction();
        let x = b.load_strided(&[Operand::Local(i)], 0, 8);
        let y = b.fp_mul(&[Operand::Local(x), Operand::Invariant(0)]);
        b.store_strided(&[Operand::Local(y), Operand::Local(i)], 0x1000, 8);
        expand(&b.build().unwrap(), iters)
    }

    #[test]
    fn every_memory_op_is_doubled() {
        let trace = scale_trace(20);
        let swsm = expand_swsm(&trace);
        let st = stream_stats(&swsm.insts);
        assert_eq!(st.load_requests, 40, "prefetches for loads and stores");
        assert_eq!(st.load_consumes, 20);
        assert_eq!(st.stores, 20);
        assert_eq!(swsm.stats.prefetches, 40);
        assert_eq!(swsm.stats.accesses, 40);
        assert_eq!(swsm.transactions, 40);
    }

    #[test]
    fn access_depends_on_its_prefetch() {
        let trace = scale_trace(5);
        let swsm = expand_swsm(&trace);
        for (pos, inst) in swsm.insts.iter().enumerate() {
            if inst.kind == ExecKind::LoadConsume {
                let prefetch = &swsm.insts[pos - 1];
                assert_eq!(prefetch.kind, ExecKind::LoadRequest);
                assert_eq!(prefetch.tag, inst.tag);
                assert!(inst.deps.contains(&Dep::local(pos - 1)));
            }
        }
    }

    #[test]
    fn consumers_depend_on_the_access_not_the_prefetch() {
        let trace = scale_trace(3);
        let swsm = expand_swsm(&trace);
        for inst in swsm.insts.iter() {
            if inst.kind == ExecKind::Arith && inst.op == OpKind::FpMul {
                // The multiply's only dependence must be a LoadConsume.
                assert_eq!(inst.deps.len(), 1);
                let producer = &swsm.insts[inst.deps[0].index()];
                assert_eq!(producer.kind, ExecKind::LoadConsume);
            }
        }
    }

    #[test]
    fn deps_point_backwards_and_are_local() {
        let trace = scale_trace(10);
        let swsm = expand_swsm(&trace);
        for (pos, inst) in swsm.insts.iter().enumerate() {
            for dep in &inst.deps {
                assert!(!dep.is_cross());
                assert!(dep.index() < pos);
            }
        }
    }

    #[test]
    fn expansion_ratio_is_one_plus_memory_fraction() {
        let trace = scale_trace(10);
        let st = trace.stats();
        let memory_fraction = (st.loads + st.stores) as f64 / st.instructions as f64;
        let swsm = expand_swsm(&trace);
        assert!((swsm.stats.expansion_ratio() - (1.0 + memory_fraction)).abs() < 1e-9);
    }

    #[test]
    fn program_order_is_preserved() {
        let trace = scale_trace(10);
        let swsm = expand_swsm(&trace);
        for pair in swsm.insts.windows(2) {
            assert!(pair[0].trace_pos <= pair[1].trace_pos);
        }
    }

    #[test]
    fn empty_trace_lowers_to_empty_program() {
        let trace = scale_trace(0);
        let swsm = expand_swsm(&trace);
        assert!(swsm.insts.is_empty());
        assert_eq!(swsm.stats.expansion_ratio(), 0.0);
    }
}
