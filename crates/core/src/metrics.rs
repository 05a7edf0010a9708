//! The metrics of the paper: speedup, latency-hiding effectiveness and the
//! equivalent window ratio.

use dae_isa::Cycle;

/// `speedup = T_reference / T_machine`.
///
/// The reference is the scalar machine at the *same* memory differential
/// (see DESIGN.md for the baseline discussion); comparisons between the DM
/// and the SWSM are independent of this common denominator.
#[must_use]
pub fn speedup(reference_cycles: Cycle, machine_cycles: Cycle) -> f64 {
    if machine_cycles == 0 {
        0.0
    } else {
        reference_cycles as f64 / machine_cycles as f64
    }
}

/// `LHE = T_perfect / T_actual` — the latency-hiding effectiveness of §5 of
/// the paper, where `T_perfect` is the execution time of the same machine
/// when every memory access perceives a single-cycle latency (memory
/// differential of zero).
#[must_use]
pub(crate) fn latency_hiding_effectiveness(perfect_cycles: Cycle, actual_cycles: Cycle) -> f64 {
    if actual_cycles == 0 {
        0.0
    } else {
        perfect_cycles as f64 / actual_cycles as f64
    }
}

/// An execution-time-versus-window-size curve for one machine at one memory
/// differential, used to answer "what window size would this machine need to
/// match a given execution time?".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowCurve {
    /// `(window size, execution cycles)` points, sorted by window size.
    points: Vec<(usize, Cycle)>,
}

impl WindowCurve {
    /// Builds a curve from measured points (sorted internally).
    ///
    /// # Panics
    ///
    /// Panics if `points` is empty or contains duplicate window sizes.
    #[must_use]
    pub fn new(mut points: Vec<(usize, Cycle)>) -> Self {
        assert!(
            !points.is_empty(),
            "a window curve needs at least one point"
        );
        points.sort_by_key(|&(w, _)| w);
        for pair in points.windows(2) {
            assert_ne!(pair[0].0, pair[1].0, "duplicate window size {}", pair[0].0);
        }
        WindowCurve { points }
    }

    /// The smallest (interpolated) window size at which the machine achieves
    /// an execution time of at most `target` cycles.
    ///
    /// Execution time is non-increasing in window size for the machines
    /// modelled here, so the answer is found by scanning for the first
    /// measured point at or below the target and linearly interpolating
    /// between it and its predecessor.  Returns `None` if even the largest
    /// measured window is slower than the target.
    #[must_use]
    pub fn window_for_cycles(&self, target: Cycle) -> Option<f64> {
        let mut previous: Option<(usize, Cycle)> = None;
        for &(window, cycles) in &self.points {
            if cycles <= target {
                return Some(match previous {
                    None => window as f64,
                    Some((prev_window, prev_cycles)) => {
                        if prev_cycles == cycles {
                            window as f64
                        } else {
                            // Linear interpolation on the (cycles -> window)
                            // segment between the bracketing points.
                            let span = (prev_cycles - cycles) as f64;
                            let excess = (prev_cycles.saturating_sub(target)) as f64;
                            prev_window as f64 + (window - prev_window) as f64 * (excess / span)
                        }
                    }
                });
            }
            previous = Some((window, cycles));
        }
        None
    }
}

/// The equivalent window ratio of figures 7–9: the window size the SWSM
/// needs to match the DM's execution time at `dm_window`, divided by
/// `dm_window`.  `None` when no window in the measured SWSM sweep is fast
/// enough.
#[must_use]
pub fn equivalent_window_ratio(
    dm_window: usize,
    dm_cycles: Cycle,
    swsm_curve: &WindowCurve,
) -> Option<f64> {
    if dm_window == 0 {
        return None;
    }
    swsm_curve
        .window_for_cycles(dm_cycles)
        .map(|w| w / dm_window as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speedup_and_lhe_are_simple_ratios() {
        assert!((speedup(1000, 250) - 4.0).abs() < 1e-12);
        assert_eq!(speedup(1000, 0), 0.0);
        assert!((latency_hiding_effectiveness(400, 800) - 0.5).abs() < 1e-12);
        assert_eq!(latency_hiding_effectiveness(400, 0), 0.0);
    }

    #[test]
    fn window_curve_sorts_and_looks_up_points() {
        let curve = WindowCurve::new(vec![(64, 100), (8, 900), (32, 300)]);
        assert_eq!(curve.points, vec![(8, 900), (32, 300), (64, 100)]);
    }

    #[test]
    fn window_for_cycles_interpolates_between_points() {
        let curve = WindowCurve::new(vec![(10, 1000), (20, 500), (40, 250)]);
        // Exactly at a measured point.
        assert_eq!(curve.window_for_cycles(500), Some(20.0));
        // Halfway between 1000 and 500 cycles -> halfway between 10 and 20.
        let w = curve.window_for_cycles(750).unwrap();
        assert!((w - 15.0).abs() < 1e-9, "w = {w}");
        // Faster than the best point: unreachable.
        assert_eq!(curve.window_for_cycles(100), None);
        // Slower than the worst point: the smallest window suffices.
        assert_eq!(curve.window_for_cycles(2000), Some(10.0));
    }

    #[test]
    fn equivalent_window_ratio_divides_by_the_dm_window() {
        let curve = WindowCurve::new(vec![(16, 800), (32, 400), (64, 200)]);
        let ratio = equivalent_window_ratio(16, 400, &curve).unwrap();
        assert!((ratio - 2.0).abs() < 1e-9);
        assert_eq!(equivalent_window_ratio(0, 400, &curve), None);
        assert_eq!(equivalent_window_ratio(16, 100, &curve), None);
    }

    #[test]
    #[should_panic(expected = "at least one point")]
    fn empty_curves_are_rejected() {
        let _ = WindowCurve::new(vec![]);
    }

    #[test]
    #[should_panic(expected = "duplicate window size")]
    fn duplicate_windows_are_rejected() {
        let _ = WindowCurve::new(vec![(8, 100), (8, 200)]);
    }
}
