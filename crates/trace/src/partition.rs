//! The decoupled-machine partition: lowering a trace into AU and DU streams.

use crate::machine_inst::MemTag;
use crate::{classify, Dep, DepList, DepRole, ExecKind, MachineInst, Trace, WakeupList};
use dae_isa::{OpKind, UnitClass};
use std::sync::Arc;

/// How the partitioner decides which unit an instruction belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PartitionMode {
    /// Use the workload generator's per-statement unit tags (the "static
    /// partition by the compiler" of the paper).
    #[default]
    Tagged,
    /// Ignore the tags and re-derive the partition from the dependence
    /// structure (the backward slice of addresses) — see
    /// [`classify`](crate::classify).
    Automatic,
}

/// Counters describing the structure of a partitioned program.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PartitionStats {
    /// Architectural instructions in the source trace.
    pub trace_instructions: usize,
    /// Lowered instructions on the address unit.
    pub au_instructions: usize,
    /// Lowered instructions on the data unit.
    pub du_instructions: usize,
    /// Architectural loads.
    pub loads: usize,
    /// Loads whose value is consumed (also) by the address unit itself
    /// ("AU self loads" in the paper — index loads, pointer chasing).
    pub au_self_loads: usize,
    /// Loads whose value is consumed by the data unit (the common case the
    /// decoupled memory exists for).
    pub du_consumed_loads: usize,
    /// Architectural stores.
    pub stores: usize,
    /// Copy instructions sending a value from the AU to the DU.
    pub copies_au_to_du: usize,
    /// Copy instructions sending a value from the DU to the AU.  Each one is
    /// a *loss-of-decoupling* event: the address unit must wait for compute
    /// results before it can continue prefetching.
    pub copies_du_to_au: usize,
}

impl PartitionStats {
    /// Total cross-unit copy instructions.
    #[must_use]
    pub fn total_copies(&self) -> usize {
        self.copies_au_to_du + self.copies_du_to_au
    }
}

/// A trace lowered onto the two units of the access decoupled machine.
///
/// The streams and their wakeup lists are reference counted so that sweep
/// drivers can lower a trace once and share the result across every
/// (window, memory-differential) simulation point without re-partitioning
/// or deep-copying per run.
#[derive(Debug, Clone, PartialEq)]
pub struct DecoupledProgram {
    /// The address-unit instruction stream, in program order.
    pub au: Arc<Vec<MachineInst>>,
    /// The data-unit instruction stream, in program order.
    pub du: Arc<Vec<MachineInst>>,
    /// Producer → same-stream consumers for the AU stream (the event-driven
    /// scheduler's wakeup lists, built once per partition).
    pub au_wakeups: Arc<WakeupList>,
    /// Producer → same-stream consumers for the DU stream.
    pub du_wakeups: Arc<WakeupList>,
    /// AU producer index → DU instructions waiting on it through a
    /// cross ([`Dep::cross`]) edge.
    pub cross_to_du: Arc<WakeupList>,
    /// DU producer index → AU instructions waiting on it.
    pub cross_to_au: Arc<WakeupList>,
    /// Structural statistics gathered during partitioning.
    pub stats: PartitionStats,
    /// The number of memory transactions (tags) issued by the AU.
    pub transactions: u32,
}

/// Where the value of an architectural instruction lives after lowering.
#[derive(Clone, Copy, Default)]
struct ValueSites {
    /// Index (in the AU stream) of a producer of the value, if any.
    au: Option<usize>,
    /// Index (in the DU stream) of a producer of the value, if any.
    du: Option<usize>,
    /// Index (in the *producing* unit's stream) of a copy instruction that
    /// already forwards the value to the other unit.
    copy_to_au: Option<usize>,
    /// See `copy_to_au`, in the other direction.
    copy_to_du: Option<usize>,
}

/// Splits `trace` into AU and DU streams for the decoupled machine.
///
/// Lowering rules (section 2 of the paper):
///
/// * a **load** becomes a `LoadRequest` on the AU (carrying the address
///   dependences) plus a `LoadConsume` on every unit that uses the value —
///   usually the DU (the decoupled memory buffers the value until the DU
///   asks for it), but also the AU itself for *self loads* such as index
///   loads;
/// * a **store** becomes a `StoreOp` on the AU for the address and a
///   `StoreOp` on the DU for the data;
/// * arithmetic stays on its assigned unit;
/// * whenever a value produced on one unit is needed on the other, a
///   `CopySend` is emitted on the producing unit and the consumer carries a
///   cross-unit dependence on it.  DU→AU copies are counted as
///   loss-of-decoupling events.
///
/// # Example
///
/// ```
/// use dae_isa::{KernelBuilder, Operand};
/// use dae_trace::{expand, partition, PartitionMode};
///
/// let mut b = KernelBuilder::new("axpy");
/// let i = b.induction();
/// let x = b.load_strided(&[Operand::Local(i)], 0, 8);
/// let y = b.fp_mul(&[Operand::Local(x), Operand::Invariant(0)]);
/// b.store_strided(&[Operand::Local(y), Operand::Local(i)], 0x1000, 8);
/// let trace = expand(&b.build()?, 10);
///
/// let dm = partition(&trace, PartitionMode::Tagged);
/// assert_eq!(dm.stats.loads, 10);
/// assert_eq!(dm.stats.du_consumed_loads, 10);
/// assert_eq!(dm.stats.copies_du_to_au, 0); // decouples perfectly
/// # Ok::<(), dae_isa::KernelError>(())
/// ```
#[must_use]
pub fn partition(trace: &Trace, mode: PartitionMode) -> DecoupledProgram {
    let assignment: Vec<UnitClass> = match mode {
        PartitionMode::Tagged => trace
            .iter()
            .map(|inst| {
                // Memory operations always live on the AU regardless of tag.
                if inst.op.is_memory() {
                    UnitClass::Access
                } else {
                    inst.unit_hint
                }
            })
            .collect(),
        PartitionMode::Automatic => classify(trace),
    };

    // For every architectural instruction, the set of units that will need
    // its *value*.  (Address-role consumers need it on the AU; data-role
    // consumers need it wherever the consumer runs, except stores whose data
    // side always runs on the DU.)
    let mut needed_on_au = vec![false; trace.len()];
    let mut needed_on_du = vec![false; trace.len()];
    for inst in trace.iter() {
        for dep in &inst.deps {
            let target = consumer_unit(inst.op, dep.role, assignment[inst.id]);
            match target {
                UnitClass::Access => needed_on_au[dep.producer] = true,
                UnitClass::Compute => needed_on_du[dep.producer] = true,
            }
        }
    }

    let mut au: Vec<MachineInst> = Vec::with_capacity(trace.len());
    let mut du: Vec<MachineInst> = Vec::with_capacity(trace.len());
    let mut sites: Vec<ValueSites> = vec![ValueSites::default(); trace.len()];
    let mut stats = PartitionStats {
        trace_instructions: trace.len(),
        ..PartitionStats::default()
    };
    let mut next_tag: MemTag = 0;

    for inst in trace.iter() {
        match inst.op {
            OpKind::Load => {
                stats.loads += 1;
                let tag = next_tag;
                next_tag += 1;
                // Address request on the AU.
                let addr_deps = resolve_deps(
                    inst,
                    DepRole::Address,
                    UnitClass::Access,
                    &mut au,
                    &mut du,
                    &mut sites,
                    &mut stats,
                );
                let request_idx = au.len();
                au.push(MachineInst::memory(
                    inst.id,
                    OpKind::Load,
                    ExecKind::LoadRequest,
                    addr_deps,
                    tag,
                    inst.addr,
                ));
                // Data consumes on every unit that needs the value.
                if needed_on_du[inst.id] {
                    stats.du_consumed_loads += 1;
                    let idx = du.len();
                    let consume_deps = DepList::one(Dep::cross(request_idx));
                    du.push(MachineInst::memory(
                        inst.id,
                        OpKind::Load,
                        ExecKind::LoadConsume,
                        consume_deps,
                        tag,
                        inst.addr,
                    ));
                    sites[inst.id].du = Some(idx);
                }
                if needed_on_au[inst.id] {
                    stats.au_self_loads += 1;
                    let idx = au.len();
                    let consume_deps = DepList::one(Dep::local(request_idx));
                    au.push(MachineInst::memory(
                        inst.id,
                        OpKind::Load,
                        ExecKind::LoadConsume,
                        consume_deps,
                        tag,
                        inst.addr,
                    ));
                    sites[inst.id].au = Some(idx);
                }
            }
            OpKind::Store => {
                stats.stores += 1;
                let tag = next_tag;
                next_tag += 1;
                let addr_deps = resolve_deps(
                    inst,
                    DepRole::Address,
                    UnitClass::Access,
                    &mut au,
                    &mut du,
                    &mut sites,
                    &mut stats,
                );
                au.push(MachineInst::memory(
                    inst.id,
                    OpKind::Store,
                    ExecKind::StoreOp,
                    addr_deps,
                    tag,
                    inst.addr,
                ));
                let data_deps = resolve_deps(
                    inst,
                    DepRole::Data,
                    UnitClass::Compute,
                    &mut au,
                    &mut du,
                    &mut sites,
                    &mut stats,
                );
                du.push(MachineInst::memory(
                    inst.id,
                    OpKind::Store,
                    ExecKind::StoreOp,
                    data_deps,
                    tag,
                    inst.addr,
                ));
            }
            _ => {
                let unit = assignment[inst.id];
                let deps = resolve_all_deps(inst, unit, &mut au, &mut du, &mut sites, &mut stats);
                let (stream, site) = match unit {
                    UnitClass::Access => (&mut au, &mut sites[inst.id].au),
                    UnitClass::Compute => (&mut du, &mut sites[inst.id].du),
                };
                *site = Some(stream.len());
                stream.push(MachineInst::arith(inst.id, inst.op, deps));
            }
        }
    }

    stats.au_instructions = au.len();
    stats.du_instructions = du.len();

    let au_wakeups = Arc::new(WakeupList::local(&au));
    let du_wakeups = Arc::new(WakeupList::local(&du));
    let cross_to_du = Arc::new(WakeupList::cross(&du, au.len()));
    let cross_to_au = Arc::new(WakeupList::cross(&au, du.len()));

    DecoupledProgram {
        au: Arc::new(au),
        du: Arc::new(du),
        au_wakeups,
        du_wakeups,
        cross_to_du,
        cross_to_au,
        stats,
        transactions: next_tag,
    }
}

/// The unit on which a value consumed by `(consumer_op, role)` is needed.
fn consumer_unit(consumer_op: OpKind, role: DepRole, consumer_unit: UnitClass) -> UnitClass {
    match consumer_op {
        // All load operands form the address: needed on the AU.
        OpKind::Load => UnitClass::Access,
        // Store addresses are formed on the AU, store data is delivered by
        // the DU.
        OpKind::Store => match role {
            DepRole::Address => UnitClass::Access,
            DepRole::Data => UnitClass::Compute,
        },
        // Everything else consumes the value wherever it executes.
        _ => consumer_unit,
    }
}

/// Resolves the dependences of `inst` with the given role so that they can be
/// attached to a lowered instruction running on `target`.
fn resolve_deps(
    inst: &crate::DynInst,
    role: DepRole,
    target: UnitClass,
    au: &mut Vec<MachineInst>,
    du: &mut Vec<MachineInst>,
    sites: &mut [ValueSites],
    stats: &mut PartitionStats,
) -> DepList {
    inst.deps
        .iter()
        .filter(|d| d.role == role)
        .map(|d| resolve_value(d.producer, target, au, du, sites, stats))
        .collect()
}

/// Resolves every dependence of `inst` (both roles) for a consumer on
/// `target`.
fn resolve_all_deps(
    inst: &crate::DynInst,
    target: UnitClass,
    au: &mut Vec<MachineInst>,
    du: &mut Vec<MachineInst>,
    sites: &mut [ValueSites],
    stats: &mut PartitionStats,
) -> DepList {
    inst.deps
        .iter()
        .map(|d| resolve_value(d.producer, target, au, du, sites, stats))
        .collect()
}

/// Returns a dependence usable by a consumer on `target` for the value of
/// architectural instruction `producer`, inserting a cross-unit copy if the
/// value only exists on the other unit.
fn resolve_value(
    producer: usize,
    target: UnitClass,
    au: &mut Vec<MachineInst>,
    du: &mut Vec<MachineInst>,
    sites: &mut [ValueSites],
    stats: &mut PartitionStats,
) -> Dep {
    let site = sites[producer];
    match target {
        UnitClass::Access => {
            if let Some(idx) = site.au {
                return Dep::local(idx);
            }
            if let Some(copy_idx) = site.copy_to_au {
                return Dep::cross(copy_idx);
            }
            let du_idx = site
                .du
                .expect("value must exist on at least one unit before it is consumed");
            // Emit a copy on the DU (the producing unit): a loss of
            // decoupling, since the AU now waits on compute results.
            let copy_idx = du.len();
            let copy_deps = DepList::one(Dep::local(du_idx));
            du.push(MachineInst::copy(du[du_idx].trace_pos, copy_deps));
            sites[producer].copy_to_au = Some(copy_idx);
            stats.copies_du_to_au += 1;
            Dep::cross(copy_idx)
        }
        UnitClass::Compute => {
            if let Some(idx) = site.du {
                return Dep::local(idx);
            }
            if let Some(copy_idx) = site.copy_to_du {
                return Dep::cross(copy_idx);
            }
            let au_idx = site
                .au
                .expect("value must exist on at least one unit before it is consumed");
            let copy_idx = au.len();
            let copy_deps = DepList::one(Dep::local(au_idx));
            au.push(MachineInst::copy(au[au_idx].trace_pos, copy_deps));
            sites[producer].copy_to_du = Some(copy_idx);
            stats.copies_au_to_du += 1;
            Dep::cross(copy_idx)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expand;
    use crate::machine_inst::stream_stats;
    use dae_isa::{KernelBuilder, Operand};

    fn axpy_trace(iters: u64) -> Trace {
        let mut b = KernelBuilder::new("axpy");
        let i = b.induction();
        let x = b.load_strided(&[Operand::Local(i)], 0, 8);
        let y = b.load_strided(&[Operand::Local(i)], 0x10_000, 8);
        let ax = b.fp_mul(&[Operand::Local(x), Operand::Invariant(0)]);
        let s = b.fp_add(&[Operand::Local(ax), Operand::Local(y)]);
        b.store_strided(&[Operand::Local(s), Operand::Local(i)], 0x10_000, 8);
        expand(&b.build().unwrap(), iters)
    }

    #[test]
    fn every_load_becomes_request_plus_consume() {
        let trace = axpy_trace(20);
        let dm = partition(&trace, PartitionMode::Tagged);
        let au = stream_stats(&dm.au);
        let du = stream_stats(&dm.du);
        assert_eq!(au.load_requests, 40);
        assert_eq!(du.load_consumes, 40);
        assert_eq!(au.load_consumes, 0, "no AU self loads in axpy");
        assert_eq!(dm.stats.loads, 40);
        assert_eq!(dm.stats.du_consumed_loads, 40);
        assert_eq!(dm.stats.au_self_loads, 0);
    }

    #[test]
    fn stores_appear_on_both_units() {
        let trace = axpy_trace(20);
        let dm = partition(&trace, PartitionMode::Tagged);
        let au = stream_stats(&dm.au);
        let du = stream_stats(&dm.du);
        assert_eq!(au.stores, 20);
        assert_eq!(du.stores, 20);
        assert_eq!(dm.stats.stores, 20);
    }

    #[test]
    fn well_decoupled_code_has_no_du_to_au_copies() {
        let trace = axpy_trace(50);
        let dm = partition(&trace, PartitionMode::Tagged);
        assert_eq!(dm.stats.copies_du_to_au, 0);
    }

    #[test]
    fn data_dependent_addresses_cause_loss_of_decoupling() {
        // index = int(fp value); load a[index]   — the DU must feed the AU.
        let mut b = KernelBuilder::new("lod");
        let i = b.induction();
        let x = b.load_strided(&[Operand::Local(i)], 0, 8);
        let f = b.fp_mul(&[Operand::Local(x), Operand::Invariant(0)]);
        let idx = b.int_on(dae_isa::UnitClass::Compute, &[Operand::Local(f)]);
        let g = b.load_indirect(&[Operand::Local(idx)], 0x100_000, 1 << 14, 0);
        b.fp_add(&[Operand::Local(g)]);
        let trace = expand(&b.build().unwrap(), 10);
        let dm = partition(&trace, PartitionMode::Tagged);
        assert_eq!(dm.stats.copies_du_to_au, 10);
    }

    #[test]
    fn index_loads_become_au_self_loads() {
        // load idx[i]; load a[idx]  — the index load's value is needed on the
        // AU itself.
        let mut b = KernelBuilder::new("gather");
        let i = b.induction();
        let idx = b.load_strided(&[Operand::Local(i)], 0, 8);
        let g = b.load_indirect(&[Operand::Local(idx)], 0x100_000, 1 << 14, 0);
        b.fp_add(&[Operand::Local(g)]);
        let trace = expand(&b.build().unwrap(), 25);
        let dm = partition(&trace, PartitionMode::Tagged);
        assert_eq!(dm.stats.au_self_loads, 25);
        assert_eq!(dm.stats.du_consumed_loads, 25);
        assert_eq!(dm.stats.copies_du_to_au, 0);
    }

    #[test]
    fn au_to_du_copies_are_shared_between_consumers() {
        // An integer value computed on the AU consumed by two DU statements:
        // only one copy should be emitted per dynamic value.
        let mut b = KernelBuilder::new("shared-copy");
        let i = b.induction();
        let v = b.int(&[Operand::Local(i)]);
        let x = b.load_strided(&[Operand::Local(i)], 0, 8);
        let f1 = b.fp_add(&[Operand::Local(x), Operand::Local(v)]);
        let _f2 = b.fp_mul(&[Operand::Local(x), Operand::Local(v)]);
        b.store_strided(&[Operand::Local(f1), Operand::Local(i)], 0x100, 8);
        let trace = expand(&b.build().unwrap(), 10);
        let dm = partition(&trace, PartitionMode::Tagged);
        assert_eq!(dm.stats.copies_au_to_du, 10, "one copy per iteration");
    }

    #[test]
    fn cross_deps_reference_valid_indices() {
        let trace = axpy_trace(30);
        let dm = partition(&trace, PartitionMode::Tagged);
        for (unit, other) in [(&dm.au, &dm.du), (&dm.du, &dm.au)] {
            for inst in unit.iter() {
                for dep in &inst.deps {
                    let bound = if dep.is_cross() {
                        other.len()
                    } else {
                        unit.len()
                    };
                    assert!(dep.index() < bound);
                }
            }
        }
    }

    #[test]
    fn local_deps_point_backwards() {
        let trace = axpy_trace(30);
        let dm = partition(&trace, PartitionMode::Tagged);
        for stream in [&dm.au, &dm.du] {
            for (pos, inst) in stream.iter().enumerate() {
                for dep in &inst.deps {
                    if !dep.is_cross() {
                        assert!(dep.index() < pos, "local dep must be earlier in the stream");
                    }
                }
            }
        }
    }

    #[test]
    fn trace_positions_are_monotone_per_stream() {
        let trace = axpy_trace(15);
        let dm = partition(&trace, PartitionMode::Tagged);
        for stream in [&dm.au, &dm.du] {
            for pair in stream.windows(2) {
                assert!(pair[0].trace_pos <= pair[1].trace_pos);
            }
        }
    }

    #[test]
    fn automatic_and_tagged_modes_agree_on_clean_kernels() {
        let trace = axpy_trace(10);
        let tagged = partition(&trace, PartitionMode::Tagged);
        let auto = partition(&trace, PartitionMode::Automatic);
        assert_eq!(tagged.stats, auto.stats);
        assert_eq!(tagged.au.len(), auto.au.len());
        assert_eq!(tagged.du.len(), auto.du.len());
    }

    #[test]
    fn expansion_ratio_reflects_split_memory_ops() {
        let trace = axpy_trace(10);
        let dm = partition(&trace, PartitionMode::Tagged);
        // 6 architectural instructions per iteration become 9 lowered ones
        // (2 loads and 1 store each split in two).
        assert_eq!(
            (dm.stats.au_instructions + dm.stats.du_instructions) * 6,
            dm.stats.trace_instructions * 9
        );
        assert_eq!(dm.transactions, 30);
    }
}
