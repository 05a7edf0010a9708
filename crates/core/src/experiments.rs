//! Generators for every table and figure of the paper's evaluation.
//!
//! Each generator returns a plain data structure (so tests and benches can
//! assert on the numbers) that renders itself both as an aligned text table
//! (`Display`) and as CSV, in the same rows/series shape the paper reports.
//!
//! | paper artefact | generator |
//! |---|---|
//! | Table 1 (latency-hiding effectiveness, MD = 60) | [`table1_in`] |
//! | Figures 4–6 (speedup vs window size, MD ∈ {0, 60}) | [`speedup_figure_in`] |
//! | Figures 7–9 (equivalent window ratio vs DM window size) | [`equivalent_window_figure_in`] |
//! | §5 claim (SWSM needs a 2–4x larger window at MD = 60) | [`window_ratio_claim_in`] |

use crate::metrics::latency_hiding_effectiveness;
use crate::report::fmt_metric;
use crate::{
    equivalent_window_ratio, speedup, ExperimentConfig, Machine, SweepPoint, SweepSession,
    TextTable, WindowCurve, WindowSpec,
};
use dae_isa::Cycle;
use dae_workloads::PerfectProgram;
use std::fmt;

// Every generator runs over a caller-held [`SweepSession`] (a one-off
// figure passes `&mut SweepSession::new()`), so consecutive generators
// share pinned lowerings, cached points and the warm per-worker simulation
// pools.  Lowering up front and sharing it across points is what turns the
// sweeps into pure simulation work.

// ---------------------------------------------------------------------------
// Table 1 — latency hiding effectiveness
// ---------------------------------------------------------------------------

/// One row of Table 1: a program's latency-hiding effectiveness across DM
/// window sizes.
#[derive(Debug, Clone, PartialEq)]
pub struct Table1Row {
    /// The program.
    pub program: PerfectProgram,
    /// `(window, LHE)` in the same order as [`Table1::windows`].
    pub lhe: Vec<(WindowSpec, f64)>,
}

/// The reproduction of Table 1 of the paper.
#[derive(Debug, Clone, PartialEq)]
pub struct Table1 {
    /// The memory differential the table was measured at (60 in the paper).
    pub memory_differential: Cycle,
    /// The window sizes of the columns.
    pub windows: Vec<WindowSpec>,
    /// One row per PERFECT program, in the paper's order.
    pub rows: Vec<Table1Row>,
}

/// Regenerates Table 1: the DM's latency-hiding effectiveness
/// (`T(MD=0) / T(MD=memory_differential)`) for all seven programs across
/// window sizes including the unlimited window.  The seven programs pin (or
/// are found already pinned) in `session` and the grid runs on its warm
/// pools.
#[must_use]
pub fn table1_in(
    session: &mut SweepSession,
    config: &ExperimentConfig,
    memory_differential: Cycle,
) -> Table1 {
    let mut windows: Vec<WindowSpec> = config
        .dm_windows
        .iter()
        .map(|&w| WindowSpec::Entries(w))
        .collect();
    windows.push(WindowSpec::Unlimited);

    let ids = session.pin_programs(&PerfectProgram::ALL, config.iterations);

    // One flat parallel sweep: every (program, window) at MD = 0 and at the
    // table's memory differential.
    let mut points = Vec::with_capacity(ids.len() * windows.len() * 2);
    for &id in &ids {
        for &window in &windows {
            points.push((id, Machine::Decoupled, window, 0));
            points.push((id, Machine::Decoupled, window, memory_differential));
        }
    }
    let cycles = session.sweep_multi(&points);

    let mut results = cycles.chunks_exact(2);
    let rows = PerfectProgram::ALL
        .iter()
        .map(|&program| {
            let lhe = windows
                .iter()
                .map(|&window| {
                    let pair = results.next().expect("one result pair per point");
                    (window, latency_hiding_effectiveness(pair[0], pair[1]))
                })
                .collect();
            Table1Row { program, lhe }
        })
        .collect();

    Table1 {
        memory_differential,
        windows,
        rows,
    }
}

impl Table1 {
    /// The LHE of `program` at `window`, if measured.
    #[must_use]
    pub fn lhe(&self, program: PerfectProgram, window: WindowSpec) -> Option<f64> {
        self.rows
            .iter()
            .find(|r| r.program == program)
            .and_then(|r| r.lhe.iter().find(|(w, _)| *w == window))
            .map(|&(_, v)| v)
    }

    /// Renders the table in the paper's layout.
    #[must_use]
    pub(crate) fn to_table(&self) -> TextTable {
        let mut headers = vec!["Prog".to_string()];
        headers.extend(self.windows.iter().map(|w| format!("w={w}")));
        let mut table = TextTable::new(headers);
        for row in &self.rows {
            let mut cells = vec![row.program.name().to_string()];
            cells.extend(row.lhe.iter().map(|&(_, v)| fmt_metric(Some(v))));
            table.push_row(cells);
        }
        table
    }

    /// CSV rendering (one row per program).
    #[must_use]
    pub fn to_csv(&self) -> String {
        self.to_table().to_csv()
    }
}

impl fmt::Display for Table1 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Table 1: latency hiding effectiveness of the DM at MD = {} cycles",
            self.memory_differential
        )?;
        write!(f, "{}", self.to_table())
    }
}

// ---------------------------------------------------------------------------
// Figures 4-6 — speedup vs window size
// ---------------------------------------------------------------------------

/// One curve of a speedup figure: a machine at a memory differential.
#[derive(Debug, Clone, PartialEq)]
pub struct SpeedupSeries {
    /// The machine the curve belongs to.
    pub machine: Machine,
    /// The memory differential of the curve.
    pub memory_differential: Cycle,
    /// `(window size, speedup over the scalar reference)` points.
    pub points: Vec<(usize, f64)>,
}

/// The reproduction of one of figures 4–6: speedup against window size for
/// the DM and the SWSM at MD = 0 and MD = 60.
#[derive(Debug, Clone, PartialEq)]
pub struct SpeedupFigure {
    /// The program the figure is plotted for.
    pub program: PerfectProgram,
    /// The memory differentials plotted (the paper uses 0 and 60).
    pub memory_differentials: Vec<Cycle>,
    /// The four curves (DM / SWSM at each memory differential).
    pub series: Vec<SpeedupSeries>,
}

/// Regenerates the speedup-vs-window-size figure for `program` (figure 4 for
/// FLO52Q, 5 for MDG, 6 for TRACK).  The grid runs through the session's
/// *streaming* API — each point is delivered as its worker finishes and
/// scattered back into grid order — so this generator also exercises the
/// no-barrier path end to end.
#[must_use]
pub fn speedup_figure_in(
    session: &mut SweepSession,
    program: PerfectProgram,
    config: &ExperimentConfig,
    memory_differentials: &[Cycle],
) -> SpeedupFigure {
    let id = session.pin_program(program, config.iterations);

    // Flatten every (MD, machine, window) point into one streamed sweep.
    let mut sweep: Vec<SweepPoint> = Vec::new();
    for &md in memory_differentials {
        for machine in [Machine::Decoupled, Machine::Superscalar] {
            let windows = match machine {
                Machine::Decoupled => &config.dm_windows,
                _ => &config.swsm_windows,
            };
            for &w in windows {
                sweep.push((id, machine, WindowSpec::Entries(w), md));
            }
        }
    }
    let cycles = session.stream(&sweep).collect_ordered();

    let lowered = session.lowered(id);
    let mut series = Vec::new();
    let mut cursor = cycles.into_iter();
    for &md in memory_differentials {
        let reference = lowered.machine_cycles(Machine::Scalar, WindowSpec::Unlimited, md);
        for machine in [Machine::Decoupled, Machine::Superscalar] {
            let windows = match machine {
                Machine::Decoupled => &config.dm_windows,
                _ => &config.swsm_windows,
            };
            let points = windows
                .iter()
                .map(|&w| {
                    let cycles = cursor.next().expect("one result per sweep point");
                    (w, speedup(reference, cycles))
                })
                .collect();
            series.push(SpeedupSeries {
                machine,
                memory_differential: md,
                points,
            });
        }
    }
    SpeedupFigure {
        program,
        memory_differentials: memory_differentials.to_vec(),
        series,
    }
}

impl SpeedupFigure {
    /// The series for a machine at a memory differential.
    #[must_use]
    pub(crate) fn series_for(
        &self,
        machine: Machine,
        memory_differential: Cycle,
    ) -> Option<&SpeedupSeries> {
        self.series
            .iter()
            .find(|s| s.machine == machine && s.memory_differential == memory_differential)
    }

    /// The smallest window size at which the SWSM's speedup reaches the DM's
    /// at the same window size, for the given memory differential (the
    /// "cut-off point" discussed in §5 of the paper); `None` when the DM
    /// stays ahead over the whole sweep.
    #[must_use]
    pub fn crossover_window(&self, memory_differential: Cycle) -> Option<usize> {
        let dm = self.series_for(Machine::Decoupled, memory_differential)?;
        let swsm = self.series_for(Machine::Superscalar, memory_differential)?;
        for &(w, dm_speedup) in &dm.points {
            if let Some(&(_, sw_speedup)) = swsm.points.iter().find(|&&(sw, _)| sw == w) {
                if sw_speedup >= dm_speedup {
                    return Some(w);
                }
            }
        }
        None
    }

    /// Renders the figure data as one row per window size with a column per
    /// series, mirroring the paper's plots.
    #[must_use]
    pub(crate) fn to_table(&self) -> TextTable {
        let mut headers = vec!["window".to_string()];
        for s in &self.series {
            headers.push(format!("{} md={}", s.machine, s.memory_differential));
        }
        let mut table = TextTable::new(headers);
        let windows: Vec<usize> = self
            .series
            .first()
            .map_or_else(Vec::new, |s| s.points.iter().map(|&(w, _)| w).collect());
        for (row_idx, window) in windows.iter().enumerate() {
            let mut cells = vec![window.to_string()];
            for s in &self.series {
                cells.push(
                    s.points
                        .get(row_idx)
                        .map_or_else(|| "-".to_string(), |&(_, v)| format!("{v:.2}")),
                );
            }
            table.push_row(cells);
        }
        table
    }

    /// CSV rendering.
    #[must_use]
    pub fn to_csv(&self) -> String {
        self.to_table().to_csv()
    }
}

impl fmt::Display for SpeedupFigure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Speedup vs window size for {} (reference: scalar machine at the same MD)",
            self.program
        )?;
        write!(f, "{}", self.to_table())
    }
}

// ---------------------------------------------------------------------------
// Figures 7-9 — equivalent window ratio
// ---------------------------------------------------------------------------

/// One curve of an equivalent-window-ratio figure: one memory differential.
#[derive(Debug, Clone, PartialEq)]
pub struct EwrSeries {
    /// The memory differential of the curve.
    pub memory_differential: Cycle,
    /// `(DM window size, ratio)`; `None` when no SWSM window in the search
    /// grid matches the DM's execution time.
    pub points: Vec<(usize, Option<f64>)>,
}

/// The reproduction of one of figures 7–9: the SWSM window size needed for
/// performance equivalent to the DM, as a multiple of the DM window size,
/// for a range of memory differentials.
#[derive(Debug, Clone, PartialEq)]
pub struct EwrFigure {
    /// The program the figure is plotted for.
    pub program: PerfectProgram,
    /// One curve per memory differential.
    pub series: Vec<EwrSeries>,
}

/// Regenerates the equivalent-window-ratio figure for `program` (figure 7
/// for FLO52Q, 8 for MDG, 9 for TRACK).
#[must_use]
pub fn equivalent_window_figure_in(
    session: &mut SweepSession,
    program: PerfectProgram,
    config: &ExperimentConfig,
) -> EwrFigure {
    let id = session.pin_program(program, config.iterations);

    // One parallel sweep covering, per memory differential, the SWSM search
    // grid and the DM windows.
    let mut sweep: Vec<SweepPoint> = Vec::new();
    for &md in &config.memory_differentials {
        for &w in &config.equivalence_search_windows {
            sweep.push((id, Machine::Superscalar, WindowSpec::Entries(w), md));
        }
        for &w in &config.dm_windows {
            sweep.push((id, Machine::Decoupled, WindowSpec::Entries(w), md));
        }
    }
    let cycles = session.sweep_multi(&sweep);

    let mut series = Vec::new();
    let mut cursor = cycles.into_iter();
    for &md in &config.memory_differentials {
        let swsm_curve = WindowCurve::new(
            config
                .equivalence_search_windows
                .iter()
                .map(|&w| (w, cursor.next().expect("one result per sweep point")))
                .collect(),
        );
        let points = config
            .dm_windows
            .iter()
            .map(|&w| {
                let dm = cursor.next().expect("one result per sweep point");
                (w, equivalent_window_ratio(w, dm, &swsm_curve))
            })
            .collect();
        series.push(EwrSeries {
            memory_differential: md,
            points,
        });
    }
    EwrFigure { program, series }
}

impl EwrFigure {
    /// The ratio at a DM window size and memory differential, if resolved.
    #[must_use]
    pub fn ratio(&self, dm_window: usize, memory_differential: Cycle) -> Option<f64> {
        self.series
            .iter()
            .find(|s| s.memory_differential == memory_differential)
            .and_then(|s| s.points.iter().find(|&&(w, _)| w == dm_window))
            .and_then(|&(_, r)| r)
    }

    /// Renders the figure data as one row per DM window size with one column
    /// per memory differential.
    #[must_use]
    pub(crate) fn to_table(&self) -> TextTable {
        let mut headers = vec!["dm window".to_string()];
        for s in &self.series {
            headers.push(format!("md={}", s.memory_differential));
        }
        let mut table = TextTable::new(headers);
        let windows: Vec<usize> = self
            .series
            .first()
            .map_or_else(Vec::new, |s| s.points.iter().map(|&(w, _)| w).collect());
        for (row_idx, window) in windows.iter().enumerate() {
            let mut cells = vec![window.to_string()];
            for s in &self.series {
                cells.push(fmt_metric(s.points.get(row_idx).and_then(|&(_, r)| r)));
            }
            table.push_row(cells);
        }
        table
    }

    /// CSV rendering.
    #[must_use]
    pub fn to_csv(&self) -> String {
        self.to_table().to_csv()
    }
}

impl fmt::Display for EwrFigure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Equivalent window ratio (SWSM window / DM window for equal performance) for {}",
            self.program
        )?;
        write!(f, "{}", self.to_table())
    }
}

// ---------------------------------------------------------------------------
// §5 claim — the SWSM needs a 2-4x larger window at MD = 60
// ---------------------------------------------------------------------------

/// The equivalent-window ratios at a realistic DM window size for the whole
/// suite (the paper's headline claim in §5/§6).
#[derive(Debug, Clone, PartialEq)]
pub struct WindowRatioClaim {
    /// The DM window size examined (the paper discusses 32–64).
    pub dm_window: usize,
    /// The memory differential examined (60 in the paper).
    pub memory_differential: Cycle,
    /// One entry per PERFECT program.
    pub ratios: Vec<(PerfectProgram, Option<f64>)>,
}

/// Measures the equivalent window ratio at `dm_window` and MD =
/// `memory_differential` for every program of the suite (sharing a session
/// with [`table1_in`] reuses all seven pinned lowerings).
#[must_use]
pub fn window_ratio_claim_in(
    session: &mut SweepSession,
    config: &ExperimentConfig,
    dm_window: usize,
    memory_differential: Cycle,
) -> WindowRatioClaim {
    let ids = session.pin_programs(&PerfectProgram::ALL, config.iterations);

    // Per program: one DM point plus the SWSM search grid, all in one flat
    // parallel sweep.
    let stride = 1 + config.equivalence_search_windows.len();
    let mut points: Vec<SweepPoint> = Vec::with_capacity(ids.len() * stride);
    for &id in &ids {
        points.push((
            id,
            Machine::Decoupled,
            WindowSpec::Entries(dm_window),
            memory_differential,
        ));
        for &w in &config.equivalence_search_windows {
            points.push((
                id,
                Machine::Superscalar,
                WindowSpec::Entries(w),
                memory_differential,
            ));
        }
    }
    let cycles = session.sweep_multi(&points);

    let ratios = PerfectProgram::ALL
        .iter()
        .zip(cycles.chunks_exact(stride))
        .map(|(&program, chunk)| {
            let dm = chunk[0];
            let curve = WindowCurve::new(
                config
                    .equivalence_search_windows
                    .iter()
                    .copied()
                    .zip(chunk[1..].iter().copied())
                    .collect(),
            );
            (program, equivalent_window_ratio(dm_window, dm, &curve))
        })
        .collect();
    WindowRatioClaim {
        dm_window,
        memory_differential,
        ratios,
    }
}

impl WindowRatioClaim {
    /// The smallest and largest resolved ratios.
    #[must_use]
    pub fn range(&self) -> Option<(f64, f64)> {
        let resolved: Vec<f64> = self.ratios.iter().filter_map(|&(_, r)| r).collect();
        if resolved.is_empty() {
            None
        } else {
            let min = resolved.iter().copied().fold(f64::INFINITY, f64::min);
            let max = resolved.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            Some((min, max))
        }
    }

    /// Renders the claim as a table.
    #[must_use]
    pub fn to_table(&self) -> TextTable {
        let mut table = TextTable::new(vec!["program".to_string(), "ratio".to_string()]);
        for &(program, ratio) in &self.ratios {
            table.push_row(vec![program.name().to_string(), fmt_metric(ratio)]);
        }
        table
    }
}

impl fmt::Display for WindowRatioClaim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Equivalent SWSM window as a multiple of a {}-entry DM window at MD = {}",
            self.dm_window, self.memory_differential
        )?;
        write!(f, "{}", self.to_table())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::tests::tiny_config;

    #[test]
    fn table1_has_a_row_per_program_and_a_column_per_window() {
        let table = table1_in(&mut SweepSession::new(), &tiny_config(), 60);
        assert_eq!(table.rows.len(), 7);
        assert_eq!(table.windows.len(), 4);
        for row in &table.rows {
            assert_eq!(row.lhe.len(), 4);
            for &(_, lhe) in &row.lhe {
                assert!(lhe > 0.0 && lhe <= 1.0 + 1e-9, "{}: {lhe}", row.program);
            }
        }
        let text = format!("{table}");
        assert!(text.contains("TRFD") && text.contains("w=inf"));
        assert!(table.to_csv().lines().count() == 8);
        assert!(table
            .lhe(PerfectProgram::Track, WindowSpec::Unlimited)
            .is_some());
    }

    #[test]
    fn speedup_figures_have_four_series_and_positive_speedups() {
        let fig = speedup_figure_in(
            &mut SweepSession::new(),
            PerfectProgram::Track,
            &tiny_config(),
            &[0, 60],
        );
        assert_eq!(fig.series.len(), 4);
        for series in &fig.series {
            assert_eq!(series.points.len(), 3);
            for &(_, s) in &series.points {
                assert!(s > 0.5, "{:?}", series.machine);
            }
        }
        assert!(fig.series_for(Machine::Decoupled, 60).is_some());
        assert!(format!("{fig}").contains("TRACK"));
        assert!(fig.to_csv().contains("DM md=0"));
    }

    #[test]
    fn dm_beats_swsm_at_md_60_for_every_measured_window() {
        let fig = speedup_figure_in(
            &mut SweepSession::new(),
            PerfectProgram::Flo52q,
            &tiny_config(),
            &[60],
        );
        let dm = fig.series_for(Machine::Decoupled, 60).unwrap();
        let swsm = fig.series_for(Machine::Superscalar, 60).unwrap();
        for (&(w, d), &(_, s)) in dm.points.iter().zip(&swsm.points) {
            assert!(d > s, "window {w}: DM {d:.2} vs SWSM {s:.2}");
        }
        assert_eq!(fig.crossover_window(60), None);
    }

    #[test]
    fn equivalent_window_figure_resolves_ratios_above_one_at_md_60() {
        let fig = equivalent_window_figure_in(
            &mut SweepSession::new(),
            PerfectProgram::Mdg,
            &tiny_config(),
        );
        let ratio = fig.ratio(32, 60).expect("ratio resolved");
        assert!(ratio > 1.0, "ratio {ratio}");
        assert!(format!("{fig}").contains("md=60"));
        assert_eq!(fig.series.len(), 2);
    }

    #[test]
    fn generators_share_a_session_without_relowering() {
        let cfg = tiny_config();
        let mut session = SweepSession::new();
        let table = table1_in(&mut session, &cfg, 60);
        let pinned_after_table1 = session.len();
        assert_eq!(
            session.stats().pin_hits,
            0,
            "a cold session has nothing to hit"
        );
        let claim = window_ratio_claim_in(&mut session, &cfg, 32, 60);
        assert_eq!(
            session.len(),
            pinned_after_table1,
            "the claim generator must reuse the suite table1 pinned"
        );
        assert_eq!(
            session.stats().pin_hits,
            7,
            "all seven of the claim's programs must come from the cache"
        );
        let fig = speedup_figure_in(&mut session, PerfectProgram::Track, &cfg, &[60]);
        // Shared-session results are identical to fresh-session ones.
        assert_eq!(table, table1_in(&mut SweepSession::new(), &cfg, 60));
        assert_eq!(
            claim,
            window_ratio_claim_in(&mut SweepSession::new(), &cfg, 32, 60)
        );
        assert_eq!(
            fig,
            speedup_figure_in(&mut SweepSession::new(), PerfectProgram::Track, &cfg, &[60])
        );
    }

    #[test]
    fn window_ratio_claim_reports_every_program() {
        let cfg = ExperimentConfig {
            iterations: 100,
            ..tiny_config()
        };
        let claim = window_ratio_claim_in(&mut SweepSession::new(), &cfg, 32, 60);
        assert_eq!(claim.ratios.len(), 7);
        let (min, max) = claim.range().expect("some ratios resolve");
        assert!(min >= 1.0, "min ratio {min}");
        assert!(max < 16.0, "max ratio {max}");
        assert!(format!("{claim}").contains("TRACK"));
    }
}
