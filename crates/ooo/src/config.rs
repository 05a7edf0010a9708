//! Configuration of a single out-of-order unit.

/// When an instruction's window slot is released.
///
/// The paper's machines have no speculation and no precise-exception
/// requirement, so both policies are plausible readings of its "instruction
/// window for reordering operations".  The default is the conventional
/// reorder-buffer behaviour (in-order release at completion); the
/// free-at-issue alternative is exercised by the resource-sensitivity
/// ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum RetirePolicy {
    /// Slots are released in program order, once the instruction (and every
    /// older one) has completed.
    #[default]
    InOrderAtComplete,
    /// A slot is released as soon as its instruction has been issued to a
    /// functional unit, regardless of completion order.
    FreeAtIssue,
}

/// Limits on functional units and memory ports.
///
/// The paper's environment is idealised ("to provide the best opportunity
/// for prefetching data"), so every limit defaults to unlimited; the
/// restricted-issue ablation sets them to small numbers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct FuConfig {
    /// Integer / address ALUs (also used by cross-unit copies); `None` is
    /// unlimited.
    pub int_units: Option<usize>,
    /// Floating point units; `None` is unlimited.
    pub fp_units: Option<usize>,
    /// Memory ports (load requests, consumes, blocking loads and stores);
    /// `None` is unlimited.
    pub mem_ports: Option<usize>,
}

impl FuConfig {
    /// The idealised configuration: no limits at all.
    #[must_use]
    pub(crate) fn unlimited() -> Self {
        FuConfig::default()
    }

    /// A restricted configuration used by the ablation experiments.
    #[must_use]
    pub fn restricted(int_units: usize, fp_units: usize, mem_ports: usize) -> Self {
        FuConfig {
            int_units: Some(int_units),
            fp_units: Some(fp_units),
            mem_ports: Some(mem_ports),
        }
    }
}

/// Configuration of one out-of-order unit (the AU, the DU, the SWSM's single
/// pipeline, or the scalar reference).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnitConfig {
    /// Instruction-window capacity; `None` models an unlimited window.
    pub window_size: Option<usize>,
    /// Maximum instructions issued to functional units per cycle.
    pub issue_width: usize,
    /// Maximum instructions dispatched into the window per cycle; `None`
    /// uses the issue width.
    pub dispatch_width: Option<usize>,
    /// When window slots are released.
    pub retire: RetirePolicy,
    /// Functional-unit limits.
    pub fu: FuConfig,
}

impl UnitConfig {
    /// A unit with the given window size and issue width and otherwise
    /// idealised resources.
    #[must_use]
    pub fn new(window_size: usize, issue_width: usize) -> Self {
        UnitConfig {
            window_size: Some(window_size),
            issue_width,
            dispatch_width: None,
            retire: RetirePolicy::default(),
            fu: FuConfig::unlimited(),
        }
    }

    /// A unit with an unlimited window.
    #[must_use]
    pub fn unlimited_window(issue_width: usize) -> Self {
        UnitConfig {
            window_size: None,
            issue_width,
            dispatch_width: None,
            retire: RetirePolicy::default(),
            fu: FuConfig::unlimited(),
        }
    }

    /// The effective dispatch width.
    #[must_use]
    pub(crate) fn effective_dispatch_width(&self) -> usize {
        self.dispatch_width.unwrap_or(self.issue_width)
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a description of the first problem found (zero issue width,
    /// zero window, or zero dispatch width).
    pub fn validate(&self) -> Result<(), String> {
        if self.issue_width == 0 {
            return Err("issue width must be at least 1".to_string());
        }
        if self.window_size == Some(0) {
            return Err("window size must be at least 1 (or None for unlimited)".to_string());
        }
        if self.dispatch_width == Some(0) {
            return Err("dispatch width must be at least 1 (or None)".to_string());
        }
        Ok(())
    }
}

impl Default for UnitConfig {
    fn default() -> Self {
        UnitConfig::new(32, 4)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dispatch_width_defaults_to_issue_width() {
        let cfg = UnitConfig::new(16, 5);
        assert_eq!(cfg.effective_dispatch_width(), 5);
        let cfg = UnitConfig {
            dispatch_width: Some(2),
            ..UnitConfig::new(16, 5)
        };
        assert_eq!(cfg.effective_dispatch_width(), 2);
    }

    #[test]
    fn validation_catches_zero_parameters() {
        assert!(UnitConfig::new(8, 4).validate().is_ok());
        assert!(UnitConfig::unlimited_window(9).validate().is_ok());
        assert!(UnitConfig::new(8, 0).validate().is_err());
        let zero_window = UnitConfig {
            window_size: Some(0),
            ..UnitConfig::default()
        };
        assert!(zero_window.validate().is_err());
        let zero_dispatch = UnitConfig {
            dispatch_width: Some(0),
            ..UnitConfig::default()
        };
        assert!(zero_dispatch.validate().is_err());
    }

    #[test]
    fn default_retire_policy_is_in_order() {
        assert_eq!(RetirePolicy::default(), RetirePolicy::InOrderAtComplete);
        assert_eq!(
            UnitConfig::default().retire,
            RetirePolicy::InOrderAtComplete
        );
    }

    #[test]
    fn fu_config_constructors() {
        let unlimited = FuConfig::unlimited();
        assert_eq!(unlimited.int_units, None);
        assert_eq!(unlimited.fp_units, None);
        assert_eq!(unlimited.mem_ports, None);
        let restricted = FuConfig::restricted(2, 1, 1);
        assert_eq!(restricted.int_units, Some(2));
        assert_eq!(restricted.fp_units, Some(1));
        assert_eq!(restricted.mem_ports, Some(1));
    }
}
