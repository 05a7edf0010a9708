//! Extra synthetic kernels: micro-patterns and randomised kernels.
//!
//! These are not part of the paper's suite; they exist for examples,
//! ablation experiments and property-based testing of the simulators
//! (randomised kernels exercise lowering and machine invariants on shapes no
//! hand-written workload covers).

use crate::{Workload, WorkloadMeta};
use dae_isa::{Kernel, KernelBuilder, Operand};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn wrap(kernel: Kernel, iterations: u64, description: &str) -> Workload {
    let name = kernel.name().to_string();
    Workload::new(
        kernel,
        WorkloadMeta {
            name,
            description: description.to_string(),
            expected_band: None,
            default_iterations: iterations,
        },
    )
}

/// `stream`: a pure copy/scale loop (`y[i] = a * x[i]`) — the friendliest
/// possible workload for any latency-hiding scheme.
#[must_use]
pub fn stream() -> Workload {
    let mut b = KernelBuilder::new("stream");
    let i = b.induction();
    let x = b.load_strided(&[Operand::Local(i)], 0x0100_0000, 8);
    let y = b.fp_mul(&[Operand::Local(x), Operand::Invariant(0)]);
    b.store_strided(&[Operand::Local(y), Operand::Local(i)], 0x0200_0000, 8);
    wrap(
        b.build().expect("stream kernel is valid"),
        4000,
        "streaming scale: perfectly decoupled, memory-bandwidth bound",
    )
}

/// `stencil`: a 3-point stencil with reused neighbours — exposes temporal
/// locality for the bypass / cache experiments.
#[must_use]
pub fn stencil() -> Workload {
    let mut b = KernelBuilder::new("stencil");
    let i = b.induction();
    // Neighbouring loads share lines with the previous iteration's loads.
    let xm = b.load_strided(&[Operand::Local(i)], 0x0100_0000, 8);
    let xc = b.load_strided(&[Operand::Local(i)], 0x0100_0008, 8);
    let xp = b.load_strided(&[Operand::Local(i)], 0x0100_0010, 8);
    let s1 = b.fp_add(&[Operand::Local(xm), Operand::Local(xc)]);
    let s2 = b.fp_add(&[Operand::Local(s1), Operand::Local(xp)]);
    let avg = b.fp_mul(&[Operand::Local(s2), Operand::Invariant(0)]);
    b.store_strided(&[Operand::Local(avg), Operand::Local(i)], 0x0300_0000, 8);
    wrap(
        b.build().expect("stencil kernel is valid"),
        3000,
        "3-point stencil: each value is re-loaded by the next two iterations",
    )
}

/// `pointer_chase`: a single serial linked-list walk — the adversarial case
/// no machine can hide.
#[must_use]
pub fn pointer_chase() -> Workload {
    let mut b = KernelBuilder::new("pointer-chase");
    let p_id = b.len();
    let p = b.load_indirect(
        &[Operand::Carried {
            stmt: p_id,
            distance: 1,
        }],
        0x0100_0000,
        1 << 20,
        0,
    );
    b.fp_add_carried_self(&[Operand::Local(p)]);
    wrap(
        b.build().expect("pointer-chase kernel is valid"),
        1500,
        "serial pointer chase: every load's address depends on the previous load",
    )
}

/// `reduction`: a dot product — a long floating point recurrence over
/// streaming loads.
#[must_use]
pub fn reduction() -> Workload {
    let mut b = KernelBuilder::new("reduction");
    let i = b.induction();
    let x = b.load_strided(&[Operand::Local(i)], 0x0100_0000, 8);
    let y = b.load_strided(&[Operand::Local(i)], 0x0200_0000, 8);
    let m = b.fp_mul(&[Operand::Local(x), Operand::Local(y)]);
    b.fp_add_carried_self(&[Operand::Local(m)]);
    wrap(
        b.build().expect("reduction kernel is valid"),
        3000,
        "dot product: loads stream freely, the accumulation serialises the DU",
    )
}

/// `gather_scatter`: indexed loads and stores through an index vector — the
/// canonical AU-self-load workload.
#[must_use]
pub fn gather_scatter() -> Workload {
    let mut b = KernelBuilder::new("gather-scatter");
    let i = b.induction();
    let ix = b.load_strided(&[Operand::Local(i)], 0x0100_0000, 4);
    let x = b.load_indirect(&[Operand::Local(ix)], 0x0200_0000, 1 << 20, 0);
    let f = b.fp_mul(&[Operand::Local(x), Operand::Invariant(0)]);
    let g = b.fp_add(&[Operand::Local(f), Operand::Invariant(1)]);
    b.store_indirect(
        &[Operand::Local(g), Operand::Local(ix)],
        0x0300_0000,
        1 << 20,
        1,
    );
    wrap(
        b.build().expect("gather-scatter kernel is valid"),
        3000,
        "indexed gather and scatter: every iteration performs an AU self load",
    )
}

/// All named synthetic workloads.
#[must_use]
pub fn synthetic_suite() -> Vec<Workload> {
    vec![
        stream(),
        stencil(),
        pointer_chase(),
        reduction(),
        gather_scatter(),
    ]
}

/// Generates a random — but always valid — kernel from a seed.
///
/// Used by property-based tests to exercise the lowerings and machines on
/// dependence shapes no hand-written kernel covers.  The kernel always
/// starts with an induction variable and contains at least one load so every
/// machine model has work to do.
#[must_use]
pub fn random_kernel(seed: u64, statements: usize) -> Kernel {
    let mut rng = StdRng::seed_from_u64(seed);
    let statements = statements.clamp(3, 128);
    let mut b = KernelBuilder::new(format!("random-{seed}"));
    let i = b.induction();
    let first_load = b.load_strided(&[Operand::Local(i)], 0x0100_0000, 8);
    let mut producers: Vec<usize> = vec![first_load];

    while b.len() < statements {
        let pick = |rng: &mut StdRng, producers: &[usize]| -> Operand {
            let idx = rng.gen_range(0..producers.len());
            Operand::Local(producers[idx])
        };
        let choice = rng.gen_range(0..100);
        let id = if choice < 20 {
            // Strided load indexed by the induction variable.
            let base = 0x0100_0000 + u64::from(rng.gen_range(1u32..16)) * 0x0100_0000;
            b.load_strided(&[Operand::Local(i)], base, 8)
        } else if choice < 32 {
            // Gather through an existing value.
            let src = pick(&mut rng, &producers);
            b.load_indirect(&[src], 0x2000_0000, 1 << 18, 0)
        } else if choice < 42 {
            // Integer address arithmetic.
            let src = pick(&mut rng, &producers);
            b.int(&[src, Operand::Local(i)])
        } else if choice < 52 && b.len() + 1 < statements {
            // A store consumes a value and does not produce one.
            let src = pick(&mut rng, &producers);
            b.store_strided(&[src, Operand::Local(i)], 0x3000_0000, 8);
            continue;
        } else if choice < 62 {
            // A floating point recurrence.
            let src = pick(&mut rng, &producers);
            b.fp_add_carried_self(&[src])
        } else {
            // Ordinary floating point work.
            let a = pick(&mut rng, &producers);
            let c = pick(&mut rng, &producers);
            if rng.gen_bool(0.5) {
                b.fp_add(&[a, c])
            } else {
                b.fp_mul(&[a, c])
            }
        };
        producers.push(id);
    }

    b.build().expect("random kernels are valid by construction")
}

#[cfg(test)]
mod tests {
    use super::*;
    use dae_isa::{OpKind, Statement, UnitClass};
    use dae_trace::{expand, expand_swsm, lower_scalar, partition, PartitionMode};

    #[test]
    fn named_synthetics_build_and_expand() {
        for w in synthetic_suite() {
            assert!(w.kernel().validate().is_ok(), "{}", w.name());
            let trace = w.trace(50);
            assert_eq!(trace.len(), 50 * w.kernel().len());
        }
    }

    #[test]
    fn pointer_chase_is_fully_serial_through_memory() {
        let w = pointer_chase();
        let trace = w.trace(10);
        let stats = trace.stats();
        assert_eq!(stats.loads, 10);
        assert_eq!(stats.indirect_loads, 9, "all but the first are chained");
    }

    #[test]
    fn gather_scatter_produces_au_self_loads() {
        let trace = gather_scatter().trace(100);
        let dm = partition(&trace, PartitionMode::Tagged);
        assert_eq!(dm.stats.au_self_loads, 100);
        assert_eq!(dm.stats.copies_du_to_au, 0);
    }

    #[test]
    fn random_kernels_are_valid_and_lower_cleanly() {
        for seed in 0..25u64 {
            let kernel = random_kernel(seed, 24);
            assert!(kernel.validate().is_ok(), "seed {seed}");
            let trace = expand(&kernel, 40);
            let dm = partition(&trace, PartitionMode::Tagged);
            let swsm = expand_swsm(&trace);
            let scalar = lower_scalar(&trace);
            assert_eq!(scalar.insts.len(), trace.len());
            assert!(dm.au.len() + dm.du.len() >= trace.len());
            assert!(swsm.insts.len() >= trace.len());
        }
    }

    #[test]
    fn random_kernels_are_deterministic_per_seed() {
        assert_eq!(random_kernel(7, 20), random_kernel(7, 20));
        assert_ne!(random_kernel(7, 20), random_kernel(8, 20));
    }

    #[test]
    fn random_kernel_clamps_statement_counts() {
        assert!(random_kernel(1, 0).len() >= 3);
        assert!(random_kernel(1, 1000).len() <= 128);
    }

    #[test]
    fn statement_kinds_match_unit_defaults() {
        // Sanity-check a hand-built statement to guard the Statement API used
        // by the generators.
        let s = Statement::arith(OpKind::FpAdd, UnitClass::Compute, vec![]);
        assert_eq!(s.unit, UnitClass::Compute);
        assert!(s.address.is_none());
    }
}
