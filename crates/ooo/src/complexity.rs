//! An analytical model of issue-logic delay (after Palacharla, Jouppi and
//! Smith, ISCA 1997).
//!
//! The paper's second conclusion is architectural rather than performance
//! oriented: because "delays in the issue logic vary quadratically with
//! window and issue width size", a decoupled machine that achieves the same
//! performance with two *small* windows needs simpler (faster) window logic
//! than a single-window superscalar that needs a 2–4x larger window.  This
//! module provides the parametric delay model used by the complexity
//! ablation to turn the measured equivalent-window ratios into delay ratios.

/// A quadratic model of the critical wakeup + selection delay of an issue
/// window.
///
/// `delay(W, IW) = c0 + c1 * (W * IW) + c2 * (W * IW)^2`
///
/// The default coefficients are chosen so that a 32-entry, 4-wide window has
/// a delay of roughly 1.0 (arbitrary units); only *ratios* between
/// configurations are ever used by the experiments, which is all the paper's
/// argument needs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IssueLogicModel {
    /// Constant term (decode / drive overhead).
    pub c_fixed: f64,
    /// Coefficient of the linear term in `window * issue_width`.
    pub c_linear: f64,
    /// Coefficient of the quadratic term in `window * issue_width`.
    pub c_quadratic: f64,
}

impl Default for IssueLogicModel {
    fn default() -> Self {
        // Normalised so delay(32, 4) ~= 1.0 with a visible quadratic share.
        IssueLogicModel {
            c_fixed: 0.2,
            c_linear: 0.004,
            c_quadratic: 0.000_018,
        }
    }
}

impl IssueLogicModel {
    /// The issue-logic delay (arbitrary units) of a single window of
    /// `window_size` entries issuing `issue_width` instructions per cycle.
    #[must_use]
    pub(crate) fn delay(&self, window_size: usize, issue_width: usize) -> f64 {
        let x = (window_size * issue_width) as f64;
        self.c_fixed + self.c_linear * x + self.c_quadratic * x * x
    }

    /// The issue-logic delay of a decoupled machine whose AU and DU windows
    /// operate independently: the slower of the two sets the clock.
    #[must_use]
    pub(crate) fn decoupled_delay(
        &self,
        au_window: usize,
        au_issue: usize,
        du_window: usize,
        du_issue: usize,
    ) -> f64 {
        self.delay(au_window, au_issue)
            .max(self.delay(du_window, du_issue))
    }

    /// The ratio of a single-window machine's delay to a decoupled
    /// machine's delay (values above 1.0 mean the single window is slower).
    #[must_use]
    pub fn relative_delay(
        &self,
        swsm_window: usize,
        swsm_issue: usize,
        au_window: usize,
        au_issue: usize,
        du_window: usize,
        du_issue: usize,
    ) -> f64 {
        self.delay(swsm_window, swsm_issue)
            / self.decoupled_delay(au_window, au_issue, du_window, du_issue)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delay_grows_superlinearly_with_window_size() {
        let m = IssueLogicModel::default();
        let d32 = m.delay(32, 4);
        let d64 = m.delay(64, 4);
        let d128 = m.delay(128, 4);
        assert!(d64 > d32);
        assert!(d128 > d64);
        // Quadratic component: doubling the window more than doubles the
        // *increase* in delay.
        assert!((d128 - d64) > (d64 - d32));
    }

    #[test]
    fn delay_grows_with_issue_width() {
        let m = IssueLogicModel::default();
        assert!(m.delay(32, 9) > m.delay(32, 4));
    }

    #[test]
    fn default_is_normalised_near_one_for_a_32x4_window() {
        let m = IssueLogicModel::default();
        let d = m.delay(32, 4);
        assert!(d > 0.5 && d < 1.5, "delay(32,4) = {d}");
    }

    #[test]
    fn decoupled_delay_is_the_max_of_the_two_units() {
        let m = IssueLogicModel::default();
        let dm = m.decoupled_delay(32, 4, 32, 5);
        assert!((dm - m.delay(32, 5)).abs() < 1e-12);
    }

    #[test]
    fn bigger_equivalent_windows_mean_bigger_relative_delay() {
        let m = IssueLogicModel::default();
        // The paper's headline case: DM with two 32-entry windows vs an SWSM
        // needing a 2-4x larger window at the full issue width of 9.
        let r2 = m.relative_delay(64, 9, 32, 4, 32, 5);
        let r4 = m.relative_delay(128, 9, 32, 4, 32, 5);
        assert!(r2 > 1.0, "a 2x window at width 9 is already slower: {r2}");
        assert!(r4 > r2);
    }
}
