//! Static kernels: the loop-body description used by workload generators.

use crate::{Address, KernelError, OpKind, UnitClass};
use std::fmt;

/// Index of a statement within a [`Kernel`].
pub type StmtId = usize;

/// A reference to the value consumed by a statement operand.
///
/// Kernels describe one iteration of an innermost loop; dependences reach
/// either earlier statements of the same iteration, statements of an earlier
/// iteration (loop-carried), or values defined before the loop started
/// (invariants).  There are no architectural registers: the paper assumes
/// perfect renaming, so only true data dependences are represented.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Operand {
    /// The value produced by an earlier statement of the *same* iteration.
    Local(StmtId),
    /// The value produced by a statement of an iteration `distance` back
    /// (`distance >= 1`).  For the first `distance` iterations the value is
    /// treated as available before the loop starts.
    Carried {
        /// The producing statement.
        stmt: StmtId,
        /// How many iterations back the producer ran.
        distance: u32,
    },
    /// A loop-invariant value (available before the loop starts); the
    /// identifier only distinguishes invariants from each other.
    Invariant(u32),
}

/// How a memory statement generates its effective addresses across
/// iterations.
///
/// Only address *identity* matters to the simulators (the prefetch buffer and
/// the decoupled-memory bypass match on addresses); no data values are
/// simulated.  The important distinction for the paper's results is whether
/// an address is available from pure address arithmetic (strided patterns) or
/// depends on a loaded value (indirect), because indirect addressing forces
/// the address unit to wait on memory and erodes decoupling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AddressPattern {
    /// `base + iteration * stride` — a fully predictable affine stream.
    Strided {
        /// Base address of the stream.
        base: Address,
        /// Per-iteration stride in bytes.
        stride: u64,
    },
    /// An affine stream that wraps within a window of `span` bytes, exposing
    /// temporal locality (used by the bypass / cache extensions).
    StridedWrapped {
        /// Base address of the stream.
        base: Address,
        /// Per-iteration stride in bytes.
        stride: u64,
        /// Size of the wrapping window in bytes (must be non-zero).
        span: u64,
    },
    /// The address depends on a *data* value (the operand named by
    /// [`AddressSpec::index_operand`]); the numeric address is a
    /// deterministic pseudo-random function of the iteration, modelling
    /// gather/scatter or pointer chasing.
    Indirect {
        /// Base address of the indexed region.
        base: Address,
        /// Size of the indexed region in bytes.
        span: u64,
    },
}

impl AddressPattern {
    /// The effective address produced by this pattern at `iteration`.
    ///
    /// For [`AddressPattern::Indirect`] the address is a deterministic hash
    /// of the iteration number so that traces are reproducible without
    /// simulating data values.
    #[must_use]
    pub fn address_at(&self, iteration: u64) -> Address {
        match *self {
            AddressPattern::Strided { base, stride } => base.wrapping_add(iteration * stride),
            AddressPattern::StridedWrapped { base, stride, span } => {
                let span = span.max(1);
                base.wrapping_add((iteration * stride) % span)
            }
            AddressPattern::Indirect { base, span } => {
                let span = span.max(1);
                // SplitMix64 finaliser: a cheap, high-quality deterministic hash.
                let mut z = iteration.wrapping_add(0x9E37_79B9_7F4A_7C15);
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^= z >> 31;
                // Keep 8-byte alignment so that distinct accesses rarely alias.
                base.wrapping_add((z % span) & !0x7)
            }
        }
    }

    /// Returns `true` if the pattern is data-dependent (indirect).
    #[must_use]
    pub(crate) fn is_indirect(&self) -> bool {
        matches!(self, AddressPattern::Indirect { .. })
    }
}

/// The address specification attached to a load or store statement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AddressSpec {
    /// How the effective address evolves across iterations.
    pub pattern: AddressPattern,
    /// For indirect patterns, the index (into the statement's operand list)
    /// of the operand providing the data-dependent part of the address.
    ///
    /// The operand establishes the *dependence*; the numeric address comes
    /// from the pattern.  `None` for purely strided patterns.
    pub index_operand: Option<usize>,
}

impl AddressSpec {
    /// A purely strided address specification.
    #[must_use]
    pub fn strided(base: Address, stride: u64) -> Self {
        AddressSpec {
            pattern: AddressPattern::Strided { base, stride },
            index_operand: None,
        }
    }

    /// An indirect (data-dependent) specification whose index value is the
    /// statement operand at `index_operand`.
    #[must_use]
    pub(crate) fn indirect(base: Address, span: u64, index_operand: usize) -> Self {
        AddressSpec {
            pattern: AddressPattern::Indirect { base, span },
            index_operand: Some(index_operand),
        }
    }
}

/// One statement of a kernel: an operation, its intended unit class, its
/// operands and (for memory operations) its address behaviour.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Statement {
    /// The operation performed.
    pub op: OpKind,
    /// The stream the workload generator intends this statement to run on
    /// in the decoupled machine.
    pub unit: UnitClass,
    /// The values consumed.
    pub inputs: Vec<Operand>,
    /// Address behaviour for loads and stores; `None` otherwise.
    pub address: Option<AddressSpec>,
    /// An optional human-readable label used in debugging output.
    pub label: Option<String>,
}

impl Statement {
    /// Creates a non-memory statement.
    #[must_use]
    pub fn arith(op: OpKind, unit: UnitClass, inputs: Vec<Operand>) -> Self {
        Statement {
            op,
            unit,
            inputs,
            address: None,
            label: None,
        }
    }

    /// Creates a memory statement with the given address specification.
    #[must_use]
    pub fn memory(op: OpKind, unit: UnitClass, inputs: Vec<Operand>, addr: AddressSpec) -> Self {
        Statement {
            op,
            unit,
            inputs,
            address: Some(addr),
            label: None,
        }
    }

    /// Attaches a debugging label, consuming and returning the statement.
    #[must_use]
    pub(crate) fn with_label(mut self, label: impl Into<String>) -> Self {
        self.label = Some(label.into());
        self
    }

    /// Returns `true` if any operand is loop-carried.
    #[must_use]
    pub(crate) fn has_carried_input(&self) -> bool {
        self.inputs
            .iter()
            .any(|o| matches!(o, Operand::Carried { .. }))
    }
}

/// Aggregate statistics over a kernel's statements.
///
/// These are *static* counts (per iteration of the loop body); dynamic
/// counts are obtained by multiplying by the iteration count when the kernel
/// is expanded into a trace.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelStats {
    /// Total statements per iteration.
    pub statements: usize,
    /// Integer / address arithmetic statements.
    pub int_ops: usize,
    /// Floating point statements (add + mul + div).
    pub fp_ops: usize,
    /// Load statements.
    pub loads: usize,
    /// Store statements.
    pub stores: usize,
    /// Loads whose address is data dependent (indirect).
    pub indirect_loads: usize,
    /// Statements tagged for the access (AU) stream.
    pub access_stmts: usize,
    /// Statements tagged for the compute (DU) stream.
    pub compute_stmts: usize,
    /// Statements with at least one loop-carried operand.
    pub carried_stmts: usize,
}

impl KernelStats {
    /// Fraction of statements that are memory operations.
    #[must_use]
    pub fn memory_fraction(&self) -> f64 {
        if self.statements == 0 {
            0.0
        } else {
            (self.loads + self.stores) as f64 / self.statements as f64
        }
    }
}

/// A static kernel: one iteration of an innermost loop, described as a list
/// of dataflow statements.
///
/// Construct kernels with [`KernelBuilder`](crate::KernelBuilder); the
/// builder validates the result via [`Kernel::validate`].
///
/// # Example
///
/// ```
/// use dae_isa::{KernelBuilder, Operand};
///
/// let mut b = KernelBuilder::new("sum-reduction");
/// let i = b.induction();
/// let x = b.load_strided(&[Operand::Local(i)], 0, 8);
/// // acc += x[i]  — a loop-carried floating point recurrence.
/// b.fp_add_carried_self(&[Operand::Local(x)]);
/// let kernel = b.build()?;
/// // The induction variable and the accumulator are both loop-carried.
/// assert_eq!(kernel.stats().carried_stmts, 2);
/// # Ok::<(), dae_isa::KernelError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Kernel {
    name: String,
    statements: Vec<Statement>,
}

impl Kernel {
    /// Creates a kernel from parts and validates it.
    ///
    /// # Errors
    ///
    /// Returns a [`KernelError`] describing the first structural problem
    /// found (see [`Kernel::validate`]).
    pub fn new(name: impl Into<String>, statements: Vec<Statement>) -> Result<Self, KernelError> {
        let kernel = Kernel {
            name: name.into(),
            statements,
        };
        kernel.validate()?;
        Ok(kernel)
    }

    /// The kernel's name (used in reports and workload registries).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The statements of one iteration, in program order.
    #[must_use]
    pub fn statements(&self) -> &[Statement] {
        &self.statements
    }

    /// The number of statements per iteration.
    #[must_use]
    pub fn len(&self) -> usize {
        self.statements.len()
    }

    /// Returns `true` if the kernel has no statements (never true for a
    /// validated kernel).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.statements.is_empty()
    }

    /// Computes aggregate per-iteration statistics.
    #[must_use]
    pub fn stats(&self) -> KernelStats {
        let mut st = KernelStats {
            statements: self.statements.len(),
            ..KernelStats::default()
        };
        for s in &self.statements {
            match s.op {
                OpKind::IntAlu => st.int_ops += 1,
                OpKind::FpAdd | OpKind::FpMul | OpKind::FpDiv => st.fp_ops += 1,
                OpKind::Load => {
                    st.loads += 1;
                    if s.address.map(|a| a.pattern.is_indirect()).unwrap_or(false) {
                        st.indirect_loads += 1;
                    }
                }
                OpKind::Store => st.stores += 1,
            }
            match s.unit {
                UnitClass::Access => st.access_stmts += 1,
                UnitClass::Compute => st.compute_stmts += 1,
            }
            if s.has_carried_input() {
                st.carried_stmts += 1;
            }
        }
        st
    }

    /// Checks the structural validity conditions described on
    /// [`KernelError`].
    ///
    /// # Errors
    ///
    /// Returns the first violation found, in statement order.
    pub fn validate(&self) -> Result<(), KernelError> {
        if self.statements.is_empty() {
            return Err(KernelError::Empty);
        }
        for (id, stmt) in self.statements.iter().enumerate() {
            for operand in &stmt.inputs {
                match *operand {
                    Operand::Local(target) => {
                        if target >= self.statements.len() {
                            return Err(KernelError::UnknownStatement {
                                stmt: id,
                                referenced: target,
                            });
                        }
                        if target >= id {
                            return Err(KernelError::ForwardReference {
                                stmt: id,
                                referenced: target,
                            });
                        }
                        if !self.statements[target].op.produces_value() {
                            return Err(KernelError::ValuelessProducer {
                                stmt: id,
                                referenced: target,
                                op: self.statements[target].op,
                            });
                        }
                    }
                    Operand::Carried {
                        stmt: target,
                        distance,
                    } => {
                        if target >= self.statements.len() {
                            return Err(KernelError::UnknownStatement {
                                stmt: id,
                                referenced: target,
                            });
                        }
                        if distance == 0 {
                            return Err(KernelError::ZeroCarryDistance { stmt: id });
                        }
                        if !self.statements[target].op.produces_value() {
                            return Err(KernelError::ValuelessProducer {
                                stmt: id,
                                referenced: target,
                                op: self.statements[target].op,
                            });
                        }
                    }
                    Operand::Invariant(_) => {}
                }
            }
            match (stmt.op.is_memory(), stmt.address) {
                (true, None) => return Err(KernelError::MissingAddress { stmt: id }),
                (false, Some(_)) => {
                    return Err(KernelError::UnexpectedAddress {
                        stmt: id,
                        op: stmt.op,
                    })
                }
                (true, Some(spec)) => {
                    if let Some(idx) = spec.index_operand {
                        if idx >= stmt.inputs.len() {
                            return Err(KernelError::BadIndexOperand {
                                stmt: id,
                                index: idx,
                                operands: stmt.inputs.len(),
                            });
                        }
                    }
                }
                (false, None) => {}
            }
        }
        Ok(())
    }
}

impl fmt::Display for Kernel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "kernel {} ({} statements)", self.name, self.len())?;
        for (id, s) in self.statements.iter().enumerate() {
            let label = s.label.as_deref().unwrap_or("");
            writeln!(
                f,
                "  [{id:3}] {:>5} {:>2} inputs={:?} {label}",
                s.op.mnemonic(),
                s.unit.unit_name(),
                s.inputs
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn simple_load(unit: UnitClass) -> Statement {
        Statement::memory(OpKind::Load, unit, vec![], AddressSpec::strided(0, 8))
    }

    #[test]
    fn empty_kernel_is_rejected() {
        assert_eq!(
            Kernel::new("empty", vec![]).unwrap_err(),
            KernelError::Empty
        );
    }

    #[test]
    fn forward_reference_is_rejected() {
        let stmts = vec![
            Statement::arith(OpKind::IntAlu, UnitClass::Access, vec![Operand::Local(1)]),
            simple_load(UnitClass::Access),
        ];
        assert_eq!(
            Kernel::new("fwd", stmts).unwrap_err(),
            KernelError::ForwardReference {
                stmt: 0,
                referenced: 1
            }
        );
    }

    #[test]
    fn self_reference_is_rejected_locally_but_fine_carried() {
        let bad = vec![Statement::arith(
            OpKind::IntAlu,
            UnitClass::Access,
            vec![Operand::Local(0)],
        )];
        assert!(matches!(
            Kernel::new("self", bad).unwrap_err(),
            KernelError::ForwardReference { .. }
        ));

        let good = vec![Statement::arith(
            OpKind::IntAlu,
            UnitClass::Access,
            vec![Operand::Carried {
                stmt: 0,
                distance: 1,
            }],
        )];
        assert!(Kernel::new("induction", good).is_ok());
    }

    #[test]
    fn unknown_statement_is_rejected() {
        let stmts = vec![Statement::arith(
            OpKind::IntAlu,
            UnitClass::Access,
            vec![Operand::Carried {
                stmt: 7,
                distance: 1,
            }],
        )];
        assert_eq!(
            Kernel::new("unknown", stmts).unwrap_err(),
            KernelError::UnknownStatement {
                stmt: 0,
                referenced: 7
            }
        );
    }

    #[test]
    fn zero_carry_distance_is_rejected() {
        let stmts = vec![
            simple_load(UnitClass::Access),
            Statement::arith(
                OpKind::FpAdd,
                UnitClass::Compute,
                vec![Operand::Carried {
                    stmt: 0,
                    distance: 0,
                }],
            ),
        ];
        assert_eq!(
            Kernel::new("zero", stmts).unwrap_err(),
            KernelError::ZeroCarryDistance { stmt: 1 }
        );
    }

    #[test]
    fn store_results_cannot_be_consumed() {
        let stmts = vec![
            simple_load(UnitClass::Access),
            Statement::memory(
                OpKind::Store,
                UnitClass::Access,
                vec![Operand::Local(0)],
                AddressSpec::strided(64, 8),
            ),
            Statement::arith(OpKind::FpAdd, UnitClass::Compute, vec![Operand::Local(1)]),
        ];
        assert_eq!(
            Kernel::new("store-use", stmts).unwrap_err(),
            KernelError::ValuelessProducer {
                stmt: 2,
                referenced: 1,
                op: OpKind::Store
            }
        );
    }

    #[test]
    fn memory_statements_need_addresses() {
        let stmts = vec![Statement::arith(OpKind::Load, UnitClass::Access, vec![])];
        assert_eq!(
            Kernel::new("noaddr", stmts).unwrap_err(),
            KernelError::MissingAddress { stmt: 0 }
        );

        let stmts = vec![Statement::memory(
            OpKind::FpAdd,
            UnitClass::Compute,
            vec![],
            AddressSpec::strided(0, 8),
        )];
        assert_eq!(
            Kernel::new("extraaddr", stmts).unwrap_err(),
            KernelError::UnexpectedAddress {
                stmt: 0,
                op: OpKind::FpAdd
            }
        );
    }

    #[test]
    fn bad_index_operand_is_rejected() {
        let stmts = vec![Statement::memory(
            OpKind::Load,
            UnitClass::Access,
            vec![],
            AddressSpec::indirect(0, 4096, 2),
        )];
        assert_eq!(
            Kernel::new("badidx", stmts).unwrap_err(),
            KernelError::BadIndexOperand {
                stmt: 0,
                index: 2,
                operands: 0
            }
        );
    }

    #[test]
    fn stats_count_correctly() {
        let stmts = vec![
            Statement::arith(
                OpKind::IntAlu,
                UnitClass::Access,
                vec![Operand::Carried {
                    stmt: 0,
                    distance: 1,
                }],
            ),
            simple_load(UnitClass::Access),
            Statement::memory(
                OpKind::Load,
                UnitClass::Access,
                vec![Operand::Local(1)],
                AddressSpec::indirect(0x1000, 4096, 0),
            ),
            Statement::arith(OpKind::FpMul, UnitClass::Compute, vec![Operand::Local(2)]),
            Statement::arith(OpKind::FpAdd, UnitClass::Compute, vec![Operand::Local(3)]),
            Statement::memory(
                OpKind::Store,
                UnitClass::Access,
                vec![Operand::Local(4)],
                AddressSpec::strided(0x2000, 8),
            ),
        ];
        let kernel = Kernel::new("stats", stmts).unwrap();
        let st = kernel.stats();
        assert_eq!(st.statements, 6);
        assert_eq!(st.int_ops, 1);
        assert_eq!(st.fp_ops, 2);
        assert_eq!(st.loads, 2);
        assert_eq!(st.stores, 1);
        assert_eq!(st.indirect_loads, 1);
        assert_eq!(st.access_stmts, 4);
        assert_eq!(st.compute_stmts, 2);
        assert_eq!(st.carried_stmts, 1);
        assert!((st.memory_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn strided_addresses_advance_by_stride() {
        let p = AddressPattern::Strided {
            base: 100,
            stride: 8,
        };
        assert_eq!(p.address_at(0), 100);
        assert_eq!(p.address_at(1), 108);
        assert_eq!(p.address_at(10), 180);
    }

    #[test]
    fn wrapped_addresses_stay_within_span() {
        let p = AddressPattern::StridedWrapped {
            base: 0x1000,
            stride: 16,
            span: 64,
        };
        for i in 0..1000 {
            let a = p.address_at(i);
            assert!(
                (0x1000..0x1000 + 64).contains(&a),
                "iteration {i} -> {a:#x}"
            );
        }
        // Temporal reuse: the same addresses recur.
        assert_eq!(p.address_at(0), p.address_at(4));
    }

    #[test]
    fn indirect_addresses_are_deterministic_and_in_range() {
        let p = AddressPattern::Indirect {
            base: 0x10_0000,
            span: 1 << 20,
        };
        for i in 0..1000 {
            let a = p.address_at(i);
            assert_eq!(a, p.address_at(i), "determinism at {i}");
            assert!((0x10_0000..0x10_0000 + (1 << 20)).contains(&a));
            assert_eq!(a % 8, 0, "alignment at {i}");
        }
    }

    #[test]
    fn display_lists_every_statement() {
        let stmts = vec![
            simple_load(UnitClass::Access),
            Statement::arith(OpKind::FpAdd, UnitClass::Compute, vec![Operand::Local(0)])
                .with_label("acc"),
        ];
        let kernel = Kernel::new("disp", stmts).unwrap();
        let text = format!("{kernel}");
        assert!(text.contains("load"));
        assert!(text.contains("fadd"));
        assert!(text.contains("acc"));
    }
}
