//! The access / compute partition classes.

use std::fmt;

/// Which instruction stream of the access decoupled machine an operation
/// belongs to.
///
/// The decoupled machine (DM) of the paper partitions a program into two
/// loosely-coupled streams:
///
/// * the **access** stream runs on the *Address Unit* (AU) — address
///   arithmetic, loads and stores, and any integer work that feeds an
///   address; and
/// * the **compute** stream runs on the *Data Unit* (DU) — the floating
///   point work that consumes loaded values and produces values to store.
///
/// Workload generators tag every statement with its intended class (the
/// "ground truth" partition); `dae-trace::partition` also provides an
/// automatic classifier so the two can be cross-checked.
///
/// # Example
///
/// ```
/// use dae_isa::UnitClass;
///
/// assert_eq!(UnitClass::ALL, [UnitClass::Access, UnitClass::Compute]);
/// assert_eq!(format!("{}", UnitClass::Access), "AU");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum UnitClass {
    /// The access stream, executed on the Address Unit (AU).
    Access,
    /// The compute stream, executed on the Data Unit (DU).
    Compute,
}

impl UnitClass {
    /// Both classes, in a stable order.
    pub const ALL: [UnitClass; 2] = [UnitClass::Access, UnitClass::Compute];

    /// The conventional short name of the unit executing this class
    /// (`"AU"` or `"DU"`).
    #[must_use]
    pub(crate) fn unit_name(self) -> &'static str {
        match self {
            UnitClass::Access => "AU",
            UnitClass::Compute => "DU",
        }
    }
}

impl fmt::Display for UnitClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.unit_name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_names() {
        assert_eq!(UnitClass::Access.unit_name(), "AU");
        assert_eq!(UnitClass::Compute.unit_name(), "DU");
        assert_eq!(format!("{}", UnitClass::Compute), "DU");
    }
}
