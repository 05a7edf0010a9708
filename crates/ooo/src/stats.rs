//! Per-unit execution statistics.

use dae_isa::Cycle;

/// Counters accumulated by a [`UnitSim`](crate::UnitSim) while it executes a
/// stream.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UnitStats {
    /// Cycles the unit was stepped.
    pub cycles: Cycle,
    /// Instructions dispatched into the window.
    pub dispatched: u64,
    /// Instructions issued to functional units.
    pub issued: u64,
    /// Window slots released.
    pub retired: u64,
    /// Issue slots available over the run (`cycles * issue_width`).
    pub issue_slots: u64,
    /// Sum of window occupancy sampled once per cycle (after dispatch).
    pub occupancy_sum: u64,
    /// Largest window occupancy observed.
    pub occupancy_max: usize,
    /// Cycles in which dispatch wanted to insert an instruction but the
    /// window was full.
    pub window_full_cycles: u64,
    /// Cycles in which nothing could be issued although the window was not
    /// empty (every resident instruction was waiting on operands or data).
    pub starved_cycles: u64,
}

impl UnitStats {
    /// Fraction of issue slots actually used.
    #[must_use]
    pub fn issue_utilization(&self) -> f64 {
        if self.issue_slots == 0 {
            0.0
        } else {
            self.issued as f64 / self.issue_slots as f64
        }
    }

    /// Fraction of cycles in which the full window blocked dispatch.
    #[must_use]
    pub fn window_pressure(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.window_full_cycles as f64 / self.cycles as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_rates_handle_zero_cycles() {
        let st = UnitStats::default();
        assert_eq!(st.issue_utilization(), 0.0);
        assert_eq!(st.window_pressure(), 0.0);
    }

    #[test]
    fn derived_rates_compute_expected_values() {
        let st = UnitStats {
            cycles: 100,
            issued: 250,
            issue_slots: 400,
            occupancy_sum: 1600,
            window_full_cycles: 25,
            ..UnitStats::default()
        };
        assert!((st.issue_utilization() - 0.625).abs() < 1e-12);
        assert!((st.window_pressure() - 0.25).abs() < 1e-12);
    }
}
