//! Property-based tests of the machine lowerings on hand-rolled random
//! dependence shapes (independent of the `dae-workloads` generator, so the
//! two random sources cross-check each other).

use dae_isa::{AddressSpec, Kernel, OpKind, Operand, Statement, UnitClass};
use dae_trace::{expand, expand_swsm, lower_scalar, partition, ExecKind, PartitionMode, Trace};
use proptest::prelude::*;

/// Builds a small valid kernel from a compact recipe: a list of (kind,
/// operand-offset) pairs.  Offsets select an earlier value-producing
/// statement; memory statements get strided addresses derived from the
/// statement index so they never collide.
fn kernel_from_recipe(recipe: &[(u8, u8)]) -> Kernel {
    let mut statements = vec![Statement::arith(
        OpKind::IntAlu,
        UnitClass::Access,
        vec![Operand::Carried {
            stmt: 0,
            distance: 1,
        }],
    )];
    let mut producers = vec![0usize];
    for (idx, &(kind, offset)) in recipe.iter().enumerate() {
        let source = producers[offset as usize % producers.len()];
        let id = statements.len();
        let stmt = match kind % 5 {
            0 => Statement::arith(
                OpKind::IntAlu,
                UnitClass::Access,
                vec![Operand::Local(source)],
            ),
            1 => Statement::arith(
                OpKind::FpAdd,
                UnitClass::Compute,
                vec![Operand::Local(source)],
            ),
            2 => Statement::memory(
                OpKind::Load,
                UnitClass::Access,
                vec![Operand::Local(source)],
                AddressSpec::strided(0x1000 * (idx as u64 + 1) * 0x1000, 8),
            ),
            3 => Statement::memory(
                OpKind::Store,
                UnitClass::Access,
                vec![Operand::Local(source), Operand::Local(0)],
                AddressSpec::strided(0x2000_0000 + 0x1000 * idx as u64, 8),
            ),
            _ => Statement::arith(
                OpKind::FpMul,
                UnitClass::Compute,
                vec![Operand::Local(source), Operand::Invariant(0)],
            ),
        };
        let produces = stmt.op.produces_value();
        statements.push(stmt);
        if produces {
            producers.push(id);
        }
    }
    Kernel::new("recipe", statements).expect("recipe kernels are valid")
}

fn trace_from_recipe(recipe: &[(u8, u8)], iterations: u64) -> Trace {
    expand(&kernel_from_recipe(recipe), iterations)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// In the decoupled lowering every transaction tag is requested exactly
    /// once, every consume refers to an existing request, and the AU carries
    /// every memory request.
    #[test]
    fn partition_tags_are_well_formed(
        recipe in proptest::collection::vec((any::<u8>(), any::<u8>()), 1..25),
        iterations in 1u64..25,
    ) {
        let trace = trace_from_recipe(&recipe, iterations);
        let dm = partition(&trace, PartitionMode::Tagged);

        let mut requests = vec![0u32; dm.transactions as usize];
        let mut consumes = vec![0u32; dm.transactions as usize];
        for inst in dm.au.iter().chain(dm.du.iter()) {
            match inst.kind {
                ExecKind::LoadRequest => requests[inst.tag.unwrap() as usize] += 1,
                ExecKind::LoadConsume => consumes[inst.tag.unwrap() as usize] += 1,
                _ => {}
            }
        }
        let stats = trace.stats();
        prop_assert_eq!(requests.iter().filter(|&&c| c == 1).count(), stats.loads);
        prop_assert!(requests.iter().all(|&c| c <= 1));
        // Consumes only exist for requested loads (stores share the tag space
        // but never have consumes).
        for (tag, &count) in consumes.iter().enumerate() {
            if count > 0 {
                prop_assert_eq!(requests[tag], 1, "consume of tag {} without a request", tag);
                prop_assert!(count <= 2, "at most one consume per unit");
            }
        }
        // Memory requests all live on the AU.
        prop_assert!(dm.du.iter().all(|inst| inst.kind != ExecKind::LoadRequest));
        prop_assert_eq!(
            dm.stats.du_consumed_loads + dm.stats.au_self_loads,
            consumes.iter().map(|&c| c as usize).sum::<usize>()
        );
    }

    /// Cross-unit dependences always reference an instruction of the *other*
    /// stream that produces a value, and the copy counts in the statistics
    /// match the instructions actually emitted.
    #[test]
    fn cross_dependences_and_copies_are_consistent(
        recipe in proptest::collection::vec((any::<u8>(), any::<u8>()), 1..25),
        iterations in 1u64..20,
    ) {
        let trace = trace_from_recipe(&recipe, iterations);
        let dm = partition(&trace, PartitionMode::Tagged);
        for (stream, other) in [(&dm.au, &dm.du), (&dm.du, &dm.au)] {
            for inst in stream.iter() {
                for dep in &inst.deps {
                    if dep.is_cross() {
                        let idx = dep.index();
                        prop_assert!(idx < other.len());
                        // A cross dependence names either a value producer
                        // (a copy, an arithmetic result, a load consume) or
                        // the AU load request the consume is paired with
                        // (an ordering dependence rather than a value one).
                        prop_assert!(
                            other[idx].kind.produces_value()
                                || other[idx].kind == ExecKind::LoadRequest
                        );
                    }
                }
            }
        }
        let emitted_copies = dm
            .au
            .iter()
            .chain(dm.du.iter())
            .filter(|i| i.kind == ExecKind::CopySend)
            .count();
        prop_assert_eq!(emitted_copies, dm.stats.total_copies());
        let au_copies = dm.au.iter().filter(|i| i.kind == ExecKind::CopySend).count();
        let du_copies = dm.du.iter().filter(|i| i.kind == ExecKind::CopySend).count();
        prop_assert_eq!(au_copies, dm.stats.copies_au_to_du);
        prop_assert_eq!(du_copies, dm.stats.copies_du_to_au);
    }

    /// The SWSM expansion emits exactly one prefetch and one access per
    /// memory operation, in program order, and never uses cross
    /// dependences.
    #[test]
    fn swsm_expansion_is_well_formed(
        recipe in proptest::collection::vec((any::<u8>(), any::<u8>()), 1..25),
        iterations in 1u64..20,
    ) {
        let trace = trace_from_recipe(&recipe, iterations);
        let stats = trace.stats();
        let swsm = expand_swsm(&trace);
        prop_assert_eq!(swsm.insts.len(), trace.len() + stats.loads + stats.stores);
        prop_assert_eq!(swsm.transactions as usize, stats.loads + stats.stores);
        prop_assert!(swsm.insts.iter().all(|i| i.deps.iter().all(|d| !d.is_cross())));
        for pair in swsm.insts.windows(2) {
            prop_assert!(pair[0].trace_pos <= pair[1].trace_pos);
        }
        // Each prefetch is immediately followed by its access with the same
        // tag and address.
        for (pos, inst) in swsm.insts.iter().enumerate() {
            if inst.kind == ExecKind::LoadRequest {
                let access = &swsm.insts[pos + 1];
                prop_assert_eq!(access.tag, inst.tag);
                prop_assert_eq!(access.addr, inst.addr);
                prop_assert!(matches!(access.kind, ExecKind::LoadConsume | ExecKind::StoreOp));
            }
        }
    }

    /// The scalar lowering is a one-to-one, order-preserving map.
    #[test]
    fn scalar_lowering_is_one_to_one(
        recipe in proptest::collection::vec((any::<u8>(), any::<u8>()), 1..25),
        iterations in 1u64..20,
    ) {
        let trace = trace_from_recipe(&recipe, iterations);
        let scalar = lower_scalar(&trace);
        prop_assert_eq!(scalar.insts.len(), trace.len());
        for (pos, (lowered, original)) in scalar.insts.iter().zip(trace.iter()).enumerate() {
            prop_assert_eq!(lowered.trace_pos, pos);
            prop_assert_eq!(lowered.op, original.op);
            prop_assert_eq!(lowered.deps.len(), original.deps.len());
        }
    }
}
