//! Machine configurations.

use dae_isa::{Cycle, LatencyModel};
use dae_mem::{DecoupledMemoryConfig, PrefetchBufferConfig};
use dae_ooo::UnitConfig;

/// Issue widths used throughout the paper: a combined issue width of 9,
/// split 4/5 between the AU and DU of the decoupled machine (the paper's
/// optimal configuration; the exact split is configurable).
pub const PAPER_AU_ISSUE_WIDTH: usize = 4;
/// The DU's share of the combined issue width of 9.
pub const PAPER_DU_ISSUE_WIDTH: usize = 5;
/// The SWSM's issue width (the full combined width is available every
/// cycle).
pub const PAPER_SWSM_ISSUE_WIDTH: usize = 9;

/// Configuration of the access decoupled machine (DM).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DmConfig {
    /// The Address Unit (access stream) pipeline.
    pub au: UnitConfig,
    /// The Data Unit (compute stream) pipeline.
    pub du: UnitConfig,
    /// The memory differential (extra cycles per memory access).
    pub memory_differential: Cycle,
    /// Functional-unit latencies.
    pub latencies: LatencyModel,
    /// Extra cycles a value takes to cross between the units' register
    /// files.
    pub transfer_latency: Cycle,
    /// Decoupled-memory behaviour (capacity, bypass).
    pub decoupled_memory: DecoupledMemoryConfig,
}

impl DmConfig {
    /// The paper's configuration: each unit gets its own `window_size`-entry
    /// window, the AU issues 4 and the DU 5 instructions per cycle, and the
    /// decoupled memory is unlimited.
    #[must_use]
    pub fn paper(window_size: usize, memory_differential: Cycle) -> Self {
        DmConfig {
            au: UnitConfig::new(window_size, PAPER_AU_ISSUE_WIDTH),
            du: UnitConfig::new(window_size, PAPER_DU_ISSUE_WIDTH),
            memory_differential,
            latencies: LatencyModel::paper_default(),
            transfer_latency: 1,
            decoupled_memory: DecoupledMemoryConfig::default(),
        }
    }

    /// The paper's configuration with unlimited windows on both units.
    #[must_use]
    pub fn paper_unlimited(memory_differential: Cycle) -> Self {
        DmConfig {
            au: UnitConfig::unlimited_window(PAPER_AU_ISSUE_WIDTH),
            du: UnitConfig::unlimited_window(PAPER_DU_ISSUE_WIDTH),
            ..DmConfig::paper(32, memory_differential)
        }
    }

    /// Validates both unit configurations.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid parameter.
    pub(crate) fn validate(&self) -> Result<(), String> {
        self.au.validate().map_err(|e| format!("AU: {e}"))?;
        self.du.validate().map_err(|e| format!("DU: {e}"))?;
        self.latencies
            .validate()
            .map_err(|op| format!("zero latency for {op}"))?;
        Ok(())
    }
}

impl Default for DmConfig {
    fn default() -> Self {
        DmConfig::paper(32, 60)
    }
}

/// Configuration of the single-window superscalar machine (SWSM).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SwsmConfig {
    /// The single out-of-order pipeline.
    pub unit: UnitConfig,
    /// The memory differential (extra cycles per memory access).
    pub memory_differential: Cycle,
    /// Functional-unit latencies.
    pub latencies: LatencyModel,
    /// Prefetch-buffer behaviour (capacity).
    pub prefetch_buffer: PrefetchBufferConfig,
}

impl SwsmConfig {
    /// The paper's configuration: a single `window_size`-entry window with
    /// the full issue width of 9 and an unbounded prefetch buffer.
    #[must_use]
    pub fn paper(window_size: usize, memory_differential: Cycle) -> Self {
        SwsmConfig {
            unit: UnitConfig::new(window_size, PAPER_SWSM_ISSUE_WIDTH),
            memory_differential,
            latencies: LatencyModel::paper_default(),
            prefetch_buffer: PrefetchBufferConfig::default(),
        }
    }

    /// The paper's configuration with an unlimited window.
    #[must_use]
    pub fn paper_unlimited(memory_differential: Cycle) -> Self {
        SwsmConfig {
            unit: UnitConfig::unlimited_window(PAPER_SWSM_ISSUE_WIDTH),
            ..SwsmConfig::paper(32, memory_differential)
        }
    }

    /// Validates the unit configuration.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid parameter.
    pub(crate) fn validate(&self) -> Result<(), String> {
        self.unit.validate()?;
        self.latencies
            .validate()
            .map_err(|op| format!("zero latency for {op}"))?;
        Ok(())
    }
}

impl Default for SwsmConfig {
    fn default() -> Self {
        SwsmConfig::paper(32, 60)
    }
}

/// Configuration of the scalar reference machine used as the speedup
/// denominator (1-wide, in-order, window of one, no prefetching).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScalarConfig {
    /// The memory differential (extra cycles per memory access).
    pub memory_differential: Cycle,
    /// Functional-unit latencies.
    pub latencies: LatencyModel,
}

impl ScalarConfig {
    /// A scalar reference with the given memory differential and the paper's
    /// latencies.
    #[must_use]
    pub fn new(memory_differential: Cycle) -> Self {
        ScalarConfig {
            memory_differential,
            latencies: LatencyModel::paper_default(),
        }
    }
}

impl Default for ScalarConfig {
    fn default() -> Self {
        ScalarConfig::new(60)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_widths_sum_to_the_combined_issue_width() {
        assert_eq!(
            PAPER_AU_ISSUE_WIDTH + PAPER_DU_ISSUE_WIDTH,
            PAPER_SWSM_ISSUE_WIDTH
        );
    }

    #[test]
    fn dm_builders_set_windows_and_md() {
        let cfg = DmConfig::paper(64, 10);
        assert_eq!(cfg.au.window_size, Some(64));
        assert_eq!(cfg.du.window_size, Some(64));
        assert_eq!(cfg.memory_differential, 10);
        assert!(cfg.validate().is_ok());
        let unlimited = DmConfig::paper_unlimited(60);
        assert_eq!(unlimited.au.window_size, None);
        assert_eq!(unlimited.du.window_size, None);
    }

    #[test]
    fn swsm_builders_set_windows_and_md() {
        let cfg = SwsmConfig::paper(128, 0);
        assert_eq!(cfg.unit.window_size, Some(128));
        assert_eq!(cfg.unit.issue_width, 9);
        assert_eq!(cfg.memory_differential, 0);
        assert!(cfg.validate().is_ok());
        assert_eq!(SwsmConfig::paper_unlimited(0).unit.window_size, None);
    }

    #[test]
    fn invalid_configurations_are_rejected() {
        let mut cfg = DmConfig::paper(16, 60);
        cfg.au.issue_width = 0;
        assert!(cfg.validate().is_err());
        let mut cfg = SwsmConfig::paper(16, 60);
        cfg.unit.window_size = Some(0);
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn defaults_use_the_paper_parameters() {
        let dm = DmConfig::default();
        assert_eq!(dm.memory_differential, 60);
        assert_eq!(dm.au.issue_width, PAPER_AU_ISSUE_WIDTH);
        assert_eq!(dm.du.issue_width, PAPER_DU_ISSUE_WIDTH);
        assert_eq!(dm.transfer_latency, 1);
        let swsm = SwsmConfig::default();
        assert_eq!(swsm.unit.issue_width, PAPER_SWSM_ISSUE_WIDTH);
        let scalar = ScalarConfig::default();
        assert_eq!(scalar.memory_differential, 60);
    }
}
