//! A small DSL for constructing kernels programmatically.

use crate::{AddressSpec, Kernel, KernelError, OpKind, Operand, Statement, StmtId, UnitClass};

/// Incrementally builds a [`Kernel`].
///
/// Every statement-adding method returns the new statement's [`StmtId`] so
/// that later statements can reference it through [`Operand::Local`] or
/// [`Operand::Carried`].  The terminal [`KernelBuilder::build`] method
/// validates the kernel.
///
/// The builder chooses the conventional unit class for each helper (integer
/// and memory statements default to the access stream, floating point to the
/// compute stream), matching how the paper's compiler partitions code; the
/// `*_on` variants override the class for the rarer cases (e.g. integer data
/// manipulation on the DU).
///
/// # Example
///
/// ```
/// use dae_isa::{KernelBuilder, Operand};
///
/// // s[i] = a[i] * b[i]; acc += s[i]
/// let mut b = KernelBuilder::new("dot-product");
/// let i = b.induction();
/// let a = b.load_strided(&[Operand::Local(i)], 0x0000, 8);
/// let bb = b.load_strided(&[Operand::Local(i)], 0x4000, 8);
/// let prod = b.fp_mul(&[Operand::Local(a), Operand::Local(bb)]);
/// b.fp_add_carried_self(&[Operand::Local(prod)]);
/// let kernel = b.build()?;
/// assert_eq!(kernel.name(), "dot-product");
/// assert_eq!(kernel.len(), 5);
/// assert_eq!(kernel.stats().carried_stmts, 2);
/// # Ok::<(), dae_isa::KernelError>(())
/// ```
#[derive(Debug, Clone)]
pub struct KernelBuilder {
    name: String,
    statements: Vec<Statement>,
}

impl KernelBuilder {
    /// Starts a new, empty kernel with the given name.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        KernelBuilder {
            name: name.into(),
            statements: Vec::new(),
        }
    }

    /// The number of statements added so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.statements.len()
    }

    /// Returns `true` if no statements have been added yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.statements.is_empty()
    }

    /// Adds an arbitrary pre-constructed statement.
    pub fn push(&mut self, stmt: Statement) -> StmtId {
        let id = self.statements.len();
        self.statements.push(stmt);
        id
    }

    /// Adds an induction-variable update: a 1-cycle integer statement on the
    /// access stream whose only input is its own value from the previous
    /// iteration (`i = i + 1`).
    pub fn induction(&mut self) -> StmtId {
        let id = self.statements.len();
        self.statements.push(
            Statement::arith(
                OpKind::IntAlu,
                UnitClass::Access,
                vec![Operand::Carried {
                    stmt: id,
                    distance: 1,
                }],
            )
            .with_label("induction"),
        );
        id
    }

    /// Adds an integer / address arithmetic statement on the access stream.
    pub fn int(&mut self, inputs: &[Operand]) -> StmtId {
        self.int_on(UnitClass::Access, inputs)
    }

    /// Adds an integer statement on the given stream.
    pub fn int_on(&mut self, unit: UnitClass, inputs: &[Operand]) -> StmtId {
        self.push(Statement::arith(OpKind::IntAlu, unit, inputs.to_vec()))
    }

    /// Adds a floating point add/subtract on the compute stream.
    pub fn fp_add(&mut self, inputs: &[Operand]) -> StmtId {
        self.push(Statement::arith(
            OpKind::FpAdd,
            UnitClass::Compute,
            inputs.to_vec(),
        ))
    }

    /// Adds a floating point multiply on the compute stream.
    pub fn fp_mul(&mut self, inputs: &[Operand]) -> StmtId {
        self.push(Statement::arith(
            OpKind::FpMul,
            UnitClass::Compute,
            inputs.to_vec(),
        ))
    }

    /// Adds a floating point divide (or intrinsic) on the compute stream.
    pub fn fp_div(&mut self, inputs: &[Operand]) -> StmtId {
        self.push(Statement::arith(
            OpKind::FpDiv,
            UnitClass::Compute,
            inputs.to_vec(),
        ))
    }

    /// Adds a floating point add that also consumes its own value from the
    /// previous iteration — the canonical reduction / recurrence statement
    /// (`acc = acc + x`).
    pub fn fp_add_carried_self(&mut self, inputs: &[Operand]) -> StmtId {
        let id = self.statements.len();
        let mut all = inputs.to_vec();
        all.push(Operand::Carried {
            stmt: id,
            distance: 1,
        });
        self.statements.push(
            Statement::arith(OpKind::FpAdd, UnitClass::Compute, all).with_label("recurrence"),
        );
        id
    }

    /// Adds a floating point multiply that also consumes its own value from
    /// the previous iteration.
    pub fn fp_mul_carried_self(&mut self, inputs: &[Operand]) -> StmtId {
        let id = self.statements.len();
        let mut all = inputs.to_vec();
        all.push(Operand::Carried {
            stmt: id,
            distance: 1,
        });
        self.statements.push(
            Statement::arith(OpKind::FpMul, UnitClass::Compute, all).with_label("recurrence"),
        );
        id
    }

    /// Adds a load with a strided (affine) address stream on the access
    /// stream.
    pub fn load_strided(&mut self, inputs: &[Operand], base: u64, stride: u64) -> StmtId {
        self.push(Statement::memory(
            OpKind::Load,
            UnitClass::Access,
            inputs.to_vec(),
            AddressSpec::strided(base, stride),
        ))
    }

    /// Adds an indirect (data-dependent) load.  `index_operand` is the index
    /// into `inputs` of the value providing the data-dependent part of the
    /// address (typically a previously loaded index).
    pub fn load_indirect(
        &mut self,
        inputs: &[Operand],
        base: u64,
        span: u64,
        index_operand: usize,
    ) -> StmtId {
        self.push(Statement::memory(
            OpKind::Load,
            UnitClass::Access,
            inputs.to_vec(),
            AddressSpec::indirect(base, span, index_operand),
        ))
    }

    /// Adds a store with a strided address stream.
    pub fn store_strided(&mut self, inputs: &[Operand], base: u64, stride: u64) -> StmtId {
        self.push(Statement::memory(
            OpKind::Store,
            UnitClass::Access,
            inputs.to_vec(),
            AddressSpec::strided(base, stride),
        ))
    }

    /// Adds an indirect (scatter) store.
    pub fn store_indirect(
        &mut self,
        inputs: &[Operand],
        base: u64,
        span: u64,
        index_operand: usize,
    ) -> StmtId {
        self.push(Statement::memory(
            OpKind::Store,
            UnitClass::Access,
            inputs.to_vec(),
            AddressSpec::indirect(base, span, index_operand),
        ))
    }

    /// Attaches a label to the most recently added statement.
    ///
    /// # Panics
    ///
    /// Panics if no statement has been added yet.
    pub fn label_last(&mut self, label: impl Into<String>) -> &mut Self {
        let stmt = self
            .statements
            .last_mut()
            .expect("label_last called on an empty builder");
        stmt.label = Some(label.into());
        self
    }

    /// Finishes the kernel and validates it.
    ///
    /// # Errors
    ///
    /// Returns a [`KernelError`] if the kernel is structurally invalid.
    pub fn build(self) -> Result<Kernel, KernelError> {
        Kernel::new(self.name, self.statements)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AddressPattern;

    #[test]
    fn builder_produces_expected_statement_order() {
        let mut b = KernelBuilder::new("order");
        let i = b.induction();
        let x = b.load_strided(&[Operand::Local(i)], 0, 8);
        let y = b.fp_mul(&[Operand::Local(x), Operand::Invariant(0)]);
        let s = b.store_strided(&[Operand::Local(y), Operand::Local(i)], 0x100, 8);
        assert_eq!((i, x, y, s), (0, 1, 2, 3));
        let k = b.build().unwrap();
        assert_eq!(k.len(), 4);
        assert_eq!(k.statements()[0].op, OpKind::IntAlu);
        assert_eq!(k.statements()[1].op, OpKind::Load);
        assert_eq!(k.statements()[2].op, OpKind::FpMul);
        assert_eq!(k.statements()[3].op, OpKind::Store);
    }

    #[test]
    fn induction_carries_itself() {
        let mut b = KernelBuilder::new("ind");
        let i = b.induction();
        let k = b.build().unwrap();
        assert_eq!(
            k.statements()[i].inputs,
            vec![Operand::Carried {
                stmt: i,
                distance: 1
            }]
        );
        assert_eq!(k.statements()[i].unit, UnitClass::Access);
    }

    #[test]
    fn recurrence_helpers_reference_self() {
        let mut b = KernelBuilder::new("rec");
        let i = b.induction();
        let x = b.load_strided(&[Operand::Local(i)], 0, 8);
        let acc = b.fp_add_carried_self(&[Operand::Local(x)]);
        let prod = b.fp_mul_carried_self(&[Operand::Local(x)]);
        let k = b.build().unwrap();
        for id in [acc, prod] {
            let carried = k.statements()[id]
                .inputs
                .iter()
                .find_map(|o| match *o {
                    Operand::Carried { stmt, distance } if stmt == id => Some(distance),
                    _ => None,
                })
                .expect("self-carried operand present");
            assert_eq!(carried, 1);
        }
    }

    #[test]
    fn indirect_load_records_index_operand() {
        let mut b = KernelBuilder::new("gather");
        let i = b.induction();
        let idx = b.load_strided(&[Operand::Local(i)], 0, 8);
        let g = b.load_indirect(&[Operand::Local(idx)], 0x10_0000, 1 << 16, 0);
        let k = b.build().unwrap();
        let spec = k.statements()[g].address.unwrap();
        assert_eq!(spec.index_operand, Some(0));
        assert!(matches!(spec.pattern, AddressPattern::Indirect { .. }));
    }

    #[test]
    fn fp_defaults_to_compute_and_int_to_access() {
        let mut b = KernelBuilder::new("units");
        let i = b.induction();
        let x = b.load_strided(&[Operand::Local(i)], 0, 8);
        let f = b.fp_add(&[Operand::Local(x)]);
        let d = b.int_on(UnitClass::Compute, &[Operand::Local(f)]);
        let k = b.build().unwrap();
        assert_eq!(k.statements()[i].unit, UnitClass::Access);
        assert_eq!(k.statements()[x].unit, UnitClass::Access);
        assert_eq!(k.statements()[f].unit, UnitClass::Compute);
        assert_eq!(k.statements()[d].unit, UnitClass::Compute);
    }

    #[test]
    fn label_last_attaches_label() {
        let mut b = KernelBuilder::new("labels");
        b.induction();
        b.label_last("i");
        let k = b.build().unwrap();
        assert_eq!(k.statements()[0].label.as_deref(), Some("i"));
    }

    #[test]
    fn empty_builder_fails_validation() {
        let b = KernelBuilder::new("empty");
        assert!(b.is_empty());
        assert_eq!(b.build().unwrap_err(), KernelError::Empty);
    }
}
