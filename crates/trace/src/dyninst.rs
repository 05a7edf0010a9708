//! Dynamic (architectural) instructions.

use dae_isa::{Address, OpKind, UnitClass};

/// Identifier of a dynamic instruction: its position in program order within
/// a [`Trace`](crate::Trace).
pub(crate) type InstId = usize;

/// The role a dependence edge plays at its consumer.
///
/// The decoupled-machine partitioner needs to know whether a value feeds an
/// *address* (in which case its producer belongs to the access stream) or is
/// consumed as *data*.  Memory operations are the only instructions that
/// distinguish the two: every operand of a load is an address input, while a
/// store consumes the value it writes as data and everything else as address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DepRole {
    /// The value is used to form an effective address.
    Address,
    /// The value is consumed as ordinary data.
    Data,
}

/// A true data dependence of a dynamic instruction on an earlier one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DepEdge {
    /// The producing instruction (always earlier in program order).
    pub producer: InstId,
    /// How the consumer uses the value.
    pub role: DepRole,
}

/// One dynamic instruction of the architectural trace.
///
/// The trace is the idealised program the paper simulates: only true data
/// dependences remain (renaming removed false dependences), there are no
/// branches, and every memory operation carries its effective address.  Each
/// instruction also carries the workload generator's intended unit class
/// (`unit_hint`), which the partitioner may use directly or cross-check
/// against its own classification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DynInst {
    /// Program-order position.
    pub id: InstId,
    /// Operation kind.
    pub op: OpKind,
    /// The unit class the workload generator intended for this instruction.
    pub unit_hint: UnitClass,
    /// True data dependences on earlier instructions.
    pub deps: Vec<DepEdge>,
    /// Effective address for loads and stores.
    pub addr: Option<Address>,
    /// The kernel statement this instruction was expanded from.
    pub stmt: usize,
    /// The loop iteration this instruction belongs to.
    pub iteration: u64,
}

impl DynInst {
    /// Iterates over all producers regardless of role.
    pub(crate) fn all_deps(&self) -> impl Iterator<Item = InstId> + '_ {
        self.deps.iter().map(|d| d.producer)
    }
}

/// Edge constructors for the unit tests of this crate.
#[cfg(test)]
impl DepEdge {
    /// An address-role dependence on `producer`.
    #[must_use]
    pub(crate) fn address(producer: InstId) -> Self {
        DepEdge {
            producer,
            role: DepRole::Address,
        }
    }

    /// A data-role dependence on `producer`.
    #[must_use]
    pub(crate) fn data(producer: InstId) -> Self {
        DepEdge {
            producer,
            role: DepRole::Data,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inst(id: InstId, op: OpKind, deps: Vec<DepEdge>) -> DynInst {
        DynInst {
            id,
            op,
            unit_hint: UnitClass::Access,
            deps,
            addr: None,
            stmt: 0,
            iteration: 0,
        }
    }

    #[test]
    fn dep_role_filters() {
        let i = inst(
            3,
            OpKind::Store,
            vec![DepEdge::data(1), DepEdge::address(2), DepEdge::address(0)],
        );
        assert_eq!(i.all_deps().count(), 3);
    }

    #[test]
    fn constructors_set_roles() {
        assert_eq!(DepEdge::address(5).role, DepRole::Address);
        assert_eq!(DepEdge::data(5).role, DepRole::Data);
        assert_eq!(DepEdge::data(5).producer, 5);
    }
}
