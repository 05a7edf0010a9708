//! Property-based tests of the kernel model: any kernel assembled through
//! the builder's safe operations validates, address patterns respect their
//! declared behaviour, and validation catches every class of structural
//! error regardless of where it occurs.

use dae_isa::{
    AddressPattern, AddressSpec, Kernel, KernelBuilder, KernelError, LatencyModel, OpKind, Operand,
    Statement, UnitClass,
};
use proptest::prelude::*;

/// A recipe for one builder step, chosen so that any sequence of steps
/// produces a structurally valid kernel.
#[derive(Debug, Clone)]
enum Step {
    Int { uses_prev: bool },
    FpAdd { uses_prev: bool },
    FpMulCarried,
    LoadStrided { base: u64, stride: u64 },
    LoadIndirectFromPrev { base: u64, span: u64 },
    StorePrev { base: u64, stride: u64 },
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        any::<bool>().prop_map(|uses_prev| Step::Int { uses_prev }),
        any::<bool>().prop_map(|uses_prev| Step::FpAdd { uses_prev }),
        Just(Step::FpMulCarried),
        (0u64..1 << 30, 1u64..256).prop_map(|(base, stride)| Step::LoadStrided { base, stride }),
        (0u64..1 << 30, 64u64..1 << 20)
            .prop_map(|(base, span)| Step::LoadIndirectFromPrev { base, span }),
        (0u64..1 << 30, 1u64..256).prop_map(|(base, stride)| Step::StorePrev { base, stride }),
    ]
}

fn build(steps: &[Step]) -> Kernel {
    let mut b = KernelBuilder::new("proptest-kernel");
    let i = b.induction();
    // `last_value` always names a statement that produces a value.
    let mut last_value = i;
    for step in steps {
        match *step {
            Step::Int { uses_prev } => {
                let inputs = if uses_prev {
                    vec![Operand::Local(last_value)]
                } else {
                    vec![Operand::Invariant(0)]
                };
                last_value = b.int(&inputs);
            }
            Step::FpAdd { uses_prev } => {
                let inputs = if uses_prev {
                    vec![Operand::Local(last_value)]
                } else {
                    vec![Operand::Invariant(1)]
                };
                last_value = b.fp_add(&inputs);
            }
            Step::FpMulCarried => {
                last_value = b.fp_mul_carried_self(&[Operand::Local(last_value)]);
            }
            Step::LoadStrided { base, stride } => {
                last_value = b.load_strided(&[Operand::Local(i)], base, stride);
            }
            Step::LoadIndirectFromPrev { base, span } => {
                last_value = b.load_indirect(&[Operand::Local(last_value)], base, span, 0);
            }
            Step::StorePrev { base, stride } => {
                b.store_strided(
                    &[Operand::Local(last_value), Operand::Local(i)],
                    base,
                    stride,
                );
            }
        }
    }
    b.build().expect("builder-assembled kernels are valid")
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Any sequence of safe builder steps yields a kernel that validates and
    /// whose statistics are internally consistent.
    #[test]
    fn builder_sequences_always_validate(steps in proptest::collection::vec(step_strategy(), 0..40)) {
        let kernel = build(&steps);
        prop_assert!(kernel.validate().is_ok());
        let stats = kernel.stats();
        prop_assert_eq!(stats.statements, kernel.len());
        prop_assert_eq!(
            stats.statements,
            stats.int_ops + stats.fp_ops + stats.loads + stats.stores
        );
        prop_assert_eq!(stats.access_stmts + stats.compute_stmts, stats.statements);
        prop_assert!(stats.indirect_loads <= stats.loads);
        prop_assert!(stats.memory_fraction() >= 0.0 && stats.memory_fraction() <= 1.0);
    }

    /// Strided patterns advance by exactly the stride; wrapped and indirect
    /// patterns never leave their span and are pure functions of the
    /// iteration number.
    #[test]
    fn address_patterns_respect_their_contracts(
        base in 0u64..(1 << 44),
        stride in 1u64..1024,
        span in 8u64..(1 << 22),
        a in 0u64..1_000_000u64,
        b in 0u64..1_000_000u64,
    ) {
        let strided = AddressPattern::Strided { base, stride };
        prop_assert_eq!(
            strided.address_at(a + 1).wrapping_sub(strided.address_at(a)),
            stride
        );

        for pattern in [
            AddressPattern::StridedWrapped { base, stride, span },
            AddressPattern::Indirect { base, span },
        ] {
            let addr = pattern.address_at(a);
            prop_assert!(addr >= base && addr < base + span);
            prop_assert_eq!(addr, pattern.address_at(a));
            if a != b && matches!(pattern, AddressPattern::StridedWrapped { .. }) {
                // Wrapped patterns repeat with period span/gcd; just check
                // both evaluations stay in range.
                prop_assert!(pattern.address_at(b) < base + span);
            }
        }
    }

    /// Validation rejects a forward reference wherever it appears in an
    /// otherwise valid kernel.
    #[test]
    fn forward_references_are_always_caught(
        steps in proptest::collection::vec(step_strategy(), 1..20),
        offset in 1usize..10,
    ) {
        let kernel = build(&steps);
        let mut statements: Vec<Statement> = kernel.statements().to_vec();
        let position = statements.len() - 1;
        statements.push(Statement::arith(
            OpKind::IntAlu,
            UnitClass::Access,
            vec![Operand::Local(position + offset)],
        ));
        let err = Kernel::new("broken", statements).unwrap_err();
        let caught = matches!(
            err,
            KernelError::ForwardReference { .. } | KernelError::UnknownStatement { .. }
        );
        prop_assert!(caught, "unexpected error: {}", err);
    }

    /// Validation rejects memory statements without addresses and arithmetic
    /// statements with addresses, wherever they appear.
    #[test]
    fn address_spec_mismatches_are_always_caught(steps in proptest::collection::vec(step_strategy(), 0..15)) {
        let kernel = build(&steps);

        let mut missing = kernel.statements().to_vec();
        missing.push(Statement::arith(OpKind::Load, UnitClass::Access, vec![]));
        let missing_err = Kernel::new("missing", missing).unwrap_err();
        let missing_caught = matches!(missing_err, KernelError::MissingAddress { .. });
        prop_assert!(missing_caught, "unexpected error: {}", missing_err);

        let mut unexpected = kernel.statements().to_vec();
        unexpected.push(Statement::memory(
            OpKind::FpMul,
            UnitClass::Compute,
            vec![],
            AddressSpec::strided(0, 8),
        ));
        let unexpected_err = Kernel::new("unexpected", unexpected).unwrap_err();
        let unexpected_caught = matches!(unexpected_err, KernelError::UnexpectedAddress { .. });
        prop_assert!(unexpected_caught, "unexpected error: {}", unexpected_err);
    }

    /// Latency models validate exactly when every latency is non-zero.
    #[test]
    fn latency_model_validation(int_alu in 0u64..4, fp_add in 0u64..4, fp_mul in 0u64..4, fp_div in 0u64..12, mem in 0u64..3) {
        let model = LatencyModel { int_alu, fp_add, fp_mul, fp_div, mem_issue: mem };
        let all_nonzero = int_alu > 0 && fp_add > 0 && fp_mul > 0 && fp_div > 0 && mem > 0;
        prop_assert_eq!(model.validate().is_ok(), all_nonzero);
        if all_nonzero {
            prop_assert!(model.max_arith_latency() >= int_alu.max(fp_add).max(fp_mul).max(fp_div));
        }
    }
}
