//! Expansion of a static kernel into a dynamic trace.

use crate::{DepEdge, DepRole, DynInst, Trace};
use dae_isa::{Kernel, OpKind, Operand};

/// Expands `kernel` for `iterations` iterations into a dynamic [`Trace`].
///
/// Expansion implements the paper's idealisations directly:
///
/// * loop-closing branches are removed, so iterations simply follow each
///   other in program order;
/// * perfect renaming means only true data dependences are produced —
///   [`Operand::Local`] becomes a dependence on this iteration's instance of
///   the producer, [`Operand::Carried`] on the instance `distance`
///   iterations back (or no dependence at all in the first `distance`
///   iterations, where the value exists before the loop), and
///   [`Operand::Invariant`] never produces a dependence;
/// * memory operations receive their effective address from the statement's
///   [`AddressPattern`](dae_isa::AddressPattern) evaluated at the iteration
///   number.
///
/// Dependence roles follow the convention documented on
/// [`DepRole`](crate::DepRole): all load operands are addresses; a store's
/// first operand is the stored data and the rest are addresses; all other
/// operands are data.
///
/// # Example
///
/// ```
/// use dae_isa::{KernelBuilder, Operand};
/// use dae_trace::expand;
///
/// let mut b = KernelBuilder::new("copy");
/// let i = b.induction();
/// let x = b.load_strided(&[Operand::Local(i)], 0, 8);
/// b.store_strided(&[Operand::Local(x), Operand::Local(i)], 0x1000, 8);
/// let kernel = b.build()?;
///
/// let trace = expand(&kernel, 4);
/// assert_eq!(trace.len(), 12);
/// // The second iteration's induction update depends on the first's.
/// assert_eq!(trace[3].deps[0].producer, 0);
/// # Ok::<(), dae_isa::KernelError>(())
/// ```
#[must_use]
pub fn expand(kernel: &Kernel, iterations: u64) -> Trace {
    let stmts = kernel.statements();
    let per_iter = stmts.len();
    let mut insts = Vec::with_capacity(per_iter * iterations as usize);

    for iter in 0..iterations {
        for (stmt_idx, stmt) in stmts.iter().enumerate() {
            let id = iter as usize * per_iter + stmt_idx;
            let mut deps = Vec::with_capacity(stmt.inputs.len());
            for (operand_idx, operand) in stmt.inputs.iter().enumerate() {
                let producer = match *operand {
                    Operand::Local(target) => Some(iter as usize * per_iter + target),
                    Operand::Carried {
                        stmt: target,
                        distance,
                    } => {
                        if iter >= u64::from(distance) {
                            Some((iter - u64::from(distance)) as usize * per_iter + target)
                        } else {
                            None
                        }
                    }
                    Operand::Invariant(_) => None,
                };
                if let Some(producer) = producer {
                    deps.push(DepEdge {
                        producer,
                        role: operand_role(stmt.op, operand_idx),
                    });
                }
            }
            let addr = stmt.address.map(|spec| spec.pattern.address_at(iter));
            insts.push(DynInst {
                id,
                op: stmt.op,
                unit_hint: stmt.unit,
                deps,
                addr,
                stmt: stmt_idx,
                iteration: iter,
            });
        }
    }

    Trace::from_parts(kernel.name(), iterations, insts)
}

/// The dependence role of operand `index` of an operation of kind `op`.
///
/// * loads use every operand to form the address;
/// * stores consume operand 0 as the stored data and the rest as address
///   inputs;
/// * every other operation consumes data.
#[must_use]
pub(crate) fn operand_role(op: OpKind, index: usize) -> DepRole {
    match op {
        OpKind::Load => DepRole::Address,
        OpKind::Store => {
            if index == 0 {
                DepRole::Data
            } else {
                DepRole::Address
            }
        }
        _ => DepRole::Data,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dae_isa::{AddressPattern, KernelBuilder};

    fn daxpy() -> Kernel {
        let mut b = KernelBuilder::new("daxpy");
        let i = b.induction();
        let x = b.load_strided(&[Operand::Local(i)], 0x0, 8);
        let y = b.load_strided(&[Operand::Local(i)], 0x10_000, 8);
        let ax = b.fp_mul(&[Operand::Local(x), Operand::Invariant(0)]);
        let s = b.fp_add(&[Operand::Local(ax), Operand::Local(y)]);
        b.store_strided(&[Operand::Local(s), Operand::Local(i)], 0x10_000, 8);
        b.build().unwrap()
    }

    #[test]
    fn expansion_size_is_iterations_times_kernel_len() {
        let k = daxpy();
        for iters in [1u64, 2, 17, 100] {
            let t = expand(&k, iters);
            assert_eq!(t.len(), k.len() * iters as usize);
            assert_eq!(t.iterations(), iters);
        }
    }

    #[test]
    fn local_deps_stay_within_iteration() {
        let k = daxpy();
        let t = expand(&k, 3);
        for inst in t.iter() {
            for dep in &inst.deps {
                let producer = &t[dep.producer];
                // A local or carried dependence never points forward and
                // never crosses more than one iteration for this kernel.
                assert!(producer.iteration <= inst.iteration);
                assert!(inst.iteration - producer.iteration <= 1);
            }
        }
    }

    #[test]
    fn carried_deps_skip_the_first_iterations() {
        let k = daxpy();
        let t = expand(&k, 3);
        // Statement 0 is the induction update (self-carried, distance 1).
        assert!(t[0].deps.is_empty(), "first iteration has no producer");
        assert_eq!(t[k.len()].deps[0].producer, 0);
        assert_eq!(t[2 * k.len()].deps[0].producer, k.len());
    }

    #[test]
    fn invariants_produce_no_dependence() {
        let k = daxpy();
        let t = expand(&k, 2);
        // Statement 3 (fp_mul) has two operands but only one dependence: the
        // invariant scalar never becomes an edge.
        assert_eq!(t[3].deps.len(), 1);
    }

    #[test]
    fn addresses_follow_the_pattern() {
        let k = daxpy();
        let t = expand(&k, 5);
        for iter in 0..5u64 {
            let load_x = &t[iter as usize * k.len() + 1];
            assert_eq!(load_x.addr, Some(iter * 8));
            let store = &t[iter as usize * k.len() + 5];
            assert_eq!(store.addr, Some(0x10_000 + iter * 8));
        }
    }

    #[test]
    fn store_roles_follow_convention() {
        let k = daxpy();
        let t = expand(&k, 1);
        let store = &t[5];
        assert_eq!(store.deps.len(), 2);
        assert_eq!(store.deps[0].role, DepRole::Data);
        assert_eq!(store.deps[1].role, DepRole::Address);
        let load = &t[1];
        assert!(load.deps.iter().all(|d| d.role == DepRole::Address));
    }

    #[test]
    fn operand_role_table() {
        assert_eq!(operand_role(OpKind::Load, 0), DepRole::Address);
        assert_eq!(operand_role(OpKind::Load, 3), DepRole::Address);
        assert_eq!(operand_role(OpKind::Store, 0), DepRole::Data);
        assert_eq!(operand_role(OpKind::Store, 1), DepRole::Address);
        assert_eq!(operand_role(OpKind::FpAdd, 0), DepRole::Data);
        assert_eq!(operand_role(OpKind::IntAlu, 1), DepRole::Data);
    }

    #[test]
    fn indirect_loads_keep_their_index_dependence() {
        let mut b = KernelBuilder::new("gather");
        let i = b.induction();
        let idx = b.load_strided(&[Operand::Local(i)], 0, 8);
        let g = b.load_indirect(&[Operand::Local(idx)], 0x100_000, 1 << 16, 0);
        let _use = b.fp_add(&[Operand::Local(g)]);
        let k = b.build().unwrap();
        let t = expand(&k, 2);
        let gather = &t[2];
        assert_eq!(gather.deps.len(), 1);
        assert_eq!(gather.deps[0].producer, 1);
        assert_eq!(gather.deps[0].role, DepRole::Address);
        match k.statements()[2].address.unwrap().pattern {
            AddressPattern::Indirect { base, .. } => assert!(gather.addr.unwrap() >= base),
            _ => panic!("expected indirect pattern"),
        }
    }

    #[test]
    fn zero_iterations_gives_empty_trace() {
        let k = daxpy();
        let t = expand(&k, 0);
        assert!(t.is_empty());
        assert_eq!(t.stats().instructions, 0);
    }
}
