//! Synthetic models of the seven PERFECT Club programs used by the paper.
//!
//! The paper drives its simulators with traces of seven PERFECT Club
//! benchmarks (TRFD, ADM, FLO52Q, DYFESM, QCD, MDG, TRACK).  Those Fortran
//! programs and the authors' tracing compiler are not available, so this
//! module provides *structural stand-ins*: small loop kernels whose dynamic
//! dependence structure is calibrated to reproduce the properties the
//! paper's results depend on (see DESIGN.md §1):
//!
//! * **memory intensity** — loads/stores per floating point operation;
//! * **index loads** — array subscripts loaded from memory ("AU self
//!   loads"), present in every program, which bound how far the address
//!   unit can run ahead of an outstanding load within a finite window;
//! * **memory-carried recurrences** — loads whose addresses depend on
//!   values loaded a configurable number of iterations earlier; their
//!   *distance* controls how much memory latency appears on the dataflow
//!   critical path and therefore which latency-hiding band the program
//!   falls into;
//! * **floating point recurrences and intra-iteration chains** — the
//!   instruction-level-parallelism profile;
//! * **loss-of-decoupling events** — addresses computed from floating point
//!   data, forcing DU→AU copies (prominent only in TRACK).
//!
//! The three programs the paper examines in detail keep their published
//! characters: FLO52Q is highly parallel and decouples well, MDG sits in the
//! middle band, and TRACK is serial with data-dependent addressing.

use crate::{LatencyHidingBand, Workload, WorkloadMeta};
use dae_isa::{Kernel, KernelBuilder, Operand, StmtId, UnitClass};
use std::fmt;

/// Base addresses of the simulated data regions, spaced far apart so the
/// streams of one kernel never alias.
mod region {
    pub(super) const A: u64 = 0x0100_0000;
    pub(super) const B: u64 = 0x0200_0000;
    pub(super) const C: u64 = 0x0300_0000;
    pub(super) const D: u64 = 0x0400_0000;
    pub(super) const E: u64 = 0x0500_0000;
    pub(super) const F: u64 = 0x0600_0000;
    pub(super) const INDEX: u64 = 0x0700_0000;
    pub(super) const GATHER: u64 = 0x0800_0000;
    pub(super) const CHASE: u64 = 0x0900_0000;
    pub(super) const OUT: u64 = 0x0a00_0000;
    pub(super) const OUT2: u64 = 0x0b00_0000;
}

/// Adds an index load (`idx = load index[i]`) and returns its statement id.
///
/// Index loads are the paper's "AU self loads": their values are consumed by
/// the address unit itself to form further addresses.
fn index_load(b: &mut KernelBuilder, i: StmtId, stride: u64) -> StmtId {
    let idx = b.load_strided(&[Operand::Local(i)], region::INDEX, stride);
    b.label_last("index-load");
    idx
}

/// Adds a gather (`x = load table[idx]`) through a previously loaded index.
fn gather(b: &mut KernelBuilder, idx: StmtId, base: u64, span: u64) -> StmtId {
    let g = b.load_indirect(&[Operand::Local(idx)], base, span, 0);
    b.label_last("gather");
    g
}

/// Adds a pointer-chasing load: its address depends on its own value from
/// `distance` iterations earlier (`p[k] = load *p[k - distance]`), modelling
/// `distance` independent linked traversals processed round-robin.
///
/// The distance is the calibration knob for the latency-hiding bands: the
/// memory latency divided by the distance is the number of cycles this chain
/// adds to every iteration of the critical path.
fn chase_load(b: &mut KernelBuilder, distance: u32, span: u64) -> StmtId {
    let id = b.len();
    let p = b.load_indirect(
        &[Operand::Carried { stmt: id, distance }],
        region::CHASE,
        span,
        0,
    );
    debug_assert_eq!(p, id);
    b.label_last("chase-load");
    p
}

fn workload(
    kernel: Kernel,
    band: LatencyHidingBand,
    iterations: u64,
    description: &str,
) -> Workload {
    let name = kernel.name().to_string();
    Workload::new(
        kernel,
        WorkloadMeta {
            name,
            description: description.to_string(),
            expected_band: Some(band),
            default_iterations: iterations,
        },
    )
}

/// TRFD — two-electron integral transformation.
///
/// Dense, regular linear algebra: block products of matrices with one
/// indexed operand.  High arithmetic regularity, no memory-carried
/// recurrences: the top of the latency-hiding table.
#[must_use]
pub(crate) fn trfd() -> Workload {
    let mut b = KernelBuilder::new("TRFD");
    let i = b.induction();
    let idx = index_load(&mut b, i, 4);
    let a1 = gather(&mut b, idx, region::A, 1 << 20);
    let a2 = b.load_strided(&[Operand::Local(i)], region::B, 8);
    let b1 = b.load_strided(&[Operand::Local(i)], region::C, 8);
    let b2 = b.load_strided(&[Operand::Local(i)], region::D, 8);
    let m1 = b.fp_mul(&[Operand::Local(a1), Operand::Local(b1)]);
    let m2 = b.fp_mul(&[Operand::Local(a2), Operand::Local(b2)]);
    let s1 = b.fp_add(&[Operand::Local(m1), Operand::Local(m2)]);
    let m3 = b.fp_mul(&[Operand::Local(a1), Operand::Local(b2)]);
    let m4 = b.fp_mul(&[Operand::Local(a2), Operand::Local(b1)]);
    let s2 = b.fp_add(&[Operand::Local(m3), Operand::Local(m4)]);
    b.store_strided(&[Operand::Local(s1), Operand::Local(i)], region::OUT, 8);
    b.store_strided(&[Operand::Local(s2), Operand::Local(i)], region::OUT2, 8);
    workload(
        b.build().expect("TRFD kernel is valid"),
        LatencyHidingBand::High,
        2000,
        "dense block products; fully strided except one gathered operand; no memory-carried recurrence",
    )
}

/// ADM — air pollution model (pseudospectral transport).
///
/// Regular field sweeps with one indexed lookup and a very long-distance
/// pointer chain (the species table walk): still in the high band.
#[must_use]
pub(crate) fn adm() -> Workload {
    let mut b = KernelBuilder::new("ADM");
    let i = b.induction();
    let idx = index_load(&mut b, i, 4);
    let x1 = gather(&mut b, idx, region::A, 2 << 20);
    let x2 = b.load_strided(&[Operand::Local(i)], region::B, 8);
    let ptr = chase_load(&mut b, 40, 1 << 20);
    let t1 = b.fp_mul(&[Operand::Local(x1), Operand::Invariant(0)]);
    let t2 = b.fp_add(&[Operand::Local(t1), Operand::Local(x2)]);
    let t3 = b.fp_mul(&[Operand::Local(t2), Operand::Invariant(1)]);
    let p1 = b.fp_add(&[Operand::Local(t3), Operand::Local(ptr)]);
    b.store_strided(&[Operand::Local(p1), Operand::Local(i)], region::OUT, 8);
    workload(
        b.build().expect("ADM kernel is valid"),
        LatencyHidingBand::High,
        2500,
        "regular sweeps with one gather and a distance-40 memory-carried chain",
    )
}

/// FLO52Q — transonic flow solver (the paper's highly parallel example).
///
/// A wide stencil body with many independent operations per point: the
/// program for which the paper reports the largest gap between the
/// decoupled machine and the superscalar.
#[must_use]
pub(crate) fn flo52q() -> Workload {
    let mut b = KernelBuilder::new("FLO52Q");
    let i = b.induction();
    let idx = index_load(&mut b, i, 4);
    let w0 = gather(&mut b, idx, region::A, 4 << 20);
    let w1 = b.load_strided(&[Operand::Local(i)], region::B, 8);
    let w2 = b.load_strided(&[Operand::Local(i)], region::C, 8);
    let w3 = b.load_strided(&[Operand::Local(i)], region::D, 8);
    let w4 = b.load_strided(&[Operand::Local(i)], region::E, 8);
    let ptr = chase_load(&mut b, 28, 1 << 20);
    let f1 = b.fp_mul(&[Operand::Local(w0), Operand::Local(w1)]);
    let f2 = b.fp_mul(&[Operand::Local(w2), Operand::Local(w3)]);
    let f3 = b.fp_add(&[Operand::Local(f1), Operand::Local(f2)]);
    let f4 = b.fp_mul(&[Operand::Local(f3), Operand::Local(w4)]);
    let g1 = b.fp_add(&[Operand::Local(w1), Operand::Local(w2)]);
    let g2 = b.fp_mul(&[Operand::Local(g1), Operand::Invariant(0)]);
    let g3 = b.fp_add(&[Operand::Local(g2), Operand::Local(f4)]);
    let h1 = b.fp_add(&[Operand::Local(ptr), Operand::Local(f3)]);
    b.store_strided(&[Operand::Local(g3), Operand::Local(i)], region::OUT, 8);
    b.store_strided(&[Operand::Local(h1), Operand::Local(i)], region::OUT2, 8);
    workload(
        b.build().expect("FLO52Q kernel is valid"),
        LatencyHidingBand::High,
        1800,
        "five-point stencil sweep with one gather and a distance-28 memory-carried chain; high ILP",
    )
}

/// DYFESM — structural dynamics finite-element solver.
///
/// Element gathers and scatters through index vectors with a moderate
/// memory-carried recurrence: the middle band.
#[must_use]
pub(crate) fn dyfesm() -> Workload {
    let mut b = KernelBuilder::new("DYFESM");
    let i = b.induction();
    let idx = index_load(&mut b, i, 4);
    let u = gather(&mut b, idx, region::A, 1 << 20);
    let v = b.load_strided(&[Operand::Local(i)], region::B, 8);
    let ptr = chase_load(&mut b, 20, 1 << 20);
    let e1 = b.fp_mul(&[Operand::Local(u), Operand::Local(v)]);
    let e2 = b.fp_add(&[Operand::Local(e1), Operand::Local(ptr)]);
    let e3 = b.fp_mul(&[Operand::Local(e2), Operand::Invariant(0)]);
    let e4 = b.fp_add(&[Operand::Local(e3), Operand::Invariant(1)]);
    let acc_id = b.len();
    b.push(dae_isa::Statement::arith(
        dae_isa::OpKind::FpAdd,
        UnitClass::Compute,
        vec![
            Operand::Local(e4),
            Operand::Carried {
                stmt: acc_id,
                distance: 2,
            },
        ],
    ));
    b.store_indirect(
        &[Operand::Local(e4), Operand::Local(idx)],
        region::F,
        1 << 20,
        1,
    );
    workload(
        b.build().expect("DYFESM kernel is valid"),
        LatencyHidingBand::Moderate,
        2200,
        "element gather/scatter with a distance-20 memory-carried chain and a distance-2 reduction",
    )
}

/// QCD — lattice gauge theory.
///
/// Link gathers through site indices with complex-arithmetic chains and a
/// distance-16 memory-carried chain: middle band.
#[must_use]
pub(crate) fn qcd() -> Workload {
    let mut b = KernelBuilder::new("QCD");
    let i = b.induction();
    let idx = index_load(&mut b, i, 4);
    let l1 = gather(&mut b, idx, region::A, 2 << 20);
    let l2 = gather(&mut b, idx, region::B, 2 << 20);
    let l3 = b.load_strided(&[Operand::Local(i)], region::C, 8);
    let ptr = chase_load(&mut b, 16, 1 << 20);
    let c1 = b.fp_mul(&[Operand::Local(l1), Operand::Local(l2)]);
    let c2 = b.fp_mul(&[Operand::Local(l1), Operand::Local(l3)]);
    let c3 = b.fp_add(&[Operand::Local(c1), Operand::Local(c2)]);
    let c4 = b.fp_mul(&[Operand::Local(c3), Operand::Local(ptr)]);
    let c5 = b.fp_add(&[Operand::Local(c4), Operand::Invariant(0)]);
    let c6 = b.fp_mul(&[Operand::Local(c5), Operand::Invariant(1)]);
    b.store_strided(&[Operand::Local(c6), Operand::Local(i)], region::OUT, 8);
    workload(
        b.build().expect("QCD kernel is valid"),
        LatencyHidingBand::Moderate,
        2000,
        "two link gathers per site and a distance-16 memory-carried chain",
    )
}

/// MDG — molecular dynamics of water.
///
/// Neighbour-list gathers, a reciprocal (divide) per pair, accumulations and
/// a distance-14 memory-carried chain: the lower middle band and the paper's
/// middle representative program.
#[must_use]
pub(crate) fn mdg() -> Workload {
    let mut b = KernelBuilder::new("MDG");
    let i = b.induction();
    let nbr = index_load(&mut b, i, 4);
    let x = gather(&mut b, nbr, region::A, 2 << 20);
    let y = gather(&mut b, nbr, region::B, 2 << 20);
    let ptr = chase_load(&mut b, 14, 1 << 20);
    let dx = b.fp_add(&[Operand::Local(x), Operand::Invariant(0)]);
    let dy = b.fp_add(&[Operand::Local(y), Operand::Invariant(1)]);
    let m1 = b.fp_mul(&[Operand::Local(dx), Operand::Local(dx)]);
    let m2 = b.fp_mul(&[Operand::Local(dy), Operand::Local(dy)]);
    let r2 = b.fp_add(&[Operand::Local(m1), Operand::Local(m2)]);
    // The reciprocal is computed but kept off the accumulation chain, as a
    // compiler scheduling for the pair energy would do.
    let fr = b.fp_div(&[Operand::Local(r2)]);
    let e = b.fp_mul(&[Operand::Local(r2), Operand::Local(ptr)]);
    let acc_id = b.len();
    b.push(dae_isa::Statement::arith(
        dae_isa::OpKind::FpAdd,
        UnitClass::Compute,
        vec![
            Operand::Local(e),
            Operand::Carried {
                stmt: acc_id,
                distance: 2,
            },
        ],
    ));
    b.store_indirect(
        &[Operand::Local(fr), Operand::Local(nbr)],
        region::F,
        2 << 20,
        1,
    );
    workload(
        b.build().expect("MDG kernel is valid"),
        LatencyHidingBand::Moderate,
        2000,
        "neighbour-list gathers, one reciprocal per pair, distance-14 memory-carried chain",
    )
}

/// TRACK — missile tracking.
///
/// The paper's serial example: short iterations, track-record pointer
/// chasing at short distance, and addresses computed from floating point
/// data (loss-of-decoupling events).  Bottom band; little difference between
/// the two machines.
#[must_use]
pub(crate) fn track() -> Workload {
    let mut b = KernelBuilder::new("TRACK");
    let i = b.induction();
    let obs = b.load_strided(&[Operand::Local(i)], region::A, 8);
    let ptr = chase_load(&mut b, 6, 1 << 18);
    let t1 = b.fp_add(&[Operand::Local(ptr), Operand::Local(obs)]);
    let t2 = b.fp_mul(&[Operand::Local(t1), Operand::Invariant(0)]);
    // The gate selection index is computed from floating point data on the
    // DU, so the gather's address needs a DU -> AU copy: a loss-of-decoupling
    // event every iteration.
    let sel = b.int_on(UnitClass::Compute, &[Operand::Local(t2)]);
    let g = b.load_indirect(&[Operand::Local(sel)], region::GATHER, 1 << 16, 0);
    let t3 = b.fp_add(&[Operand::Local(g), Operand::Local(t2)]);
    let acc_id = b.len();
    b.push(dae_isa::Statement::arith(
        dae_isa::OpKind::FpAdd,
        UnitClass::Compute,
        vec![
            Operand::Local(t2),
            Operand::Carried {
                stmt: acc_id,
                distance: 1,
            },
        ],
    ));
    b.store_strided(&[Operand::Local(t3), Operand::Local(i)], region::OUT, 8);
    workload(
        b.build().expect("TRACK kernel is valid"),
        LatencyHidingBand::Poor,
        2500,
        "distance-6 track-record chase, gate index computed from FP data (loss of decoupling), serial state update",
    )
}

/// The seven PERFECT Club programs modelled by this crate, in the order of
/// Table 1 of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PerfectProgram {
    /// Two-electron integral transformation.
    Trfd,
    /// Air pollution model.
    Adm,
    /// Transonic flow solver.
    Flo52q,
    /// Structural dynamics finite-element solver.
    Dyfesm,
    /// Lattice gauge theory.
    Qcd,
    /// Molecular dynamics of water.
    Mdg,
    /// Missile tracking.
    Track,
}

impl PerfectProgram {
    /// All seven programs, in the order of Table 1 of the paper.
    pub const ALL: [PerfectProgram; 7] = [
        PerfectProgram::Trfd,
        PerfectProgram::Adm,
        PerfectProgram::Flo52q,
        PerfectProgram::Dyfesm,
        PerfectProgram::Qcd,
        PerfectProgram::Mdg,
        PerfectProgram::Track,
    ];

    /// The three programs the paper examines in detail (figures 4–9).
    pub const REPRESENTATIVE: [PerfectProgram; 3] = [
        PerfectProgram::Flo52q,
        PerfectProgram::Mdg,
        PerfectProgram::Track,
    ];

    /// The program's conventional upper-case name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            PerfectProgram::Trfd => "TRFD",
            PerfectProgram::Adm => "ADM",
            PerfectProgram::Flo52q => "FLO52Q",
            PerfectProgram::Dyfesm => "DYFESM",
            PerfectProgram::Qcd => "QCD",
            PerfectProgram::Mdg => "MDG",
            PerfectProgram::Track => "TRACK",
        }
    }

    /// Parses a program name (case insensitive).
    #[must_use]
    pub fn from_name(name: &str) -> Option<Self> {
        let lower = name.to_ascii_lowercase();
        PerfectProgram::ALL
            .into_iter()
            .find(|p| p.name().to_ascii_lowercase() == lower)
    }

    /// Builds the program's workload model.
    #[must_use]
    pub fn workload(self) -> Workload {
        match self {
            PerfectProgram::Trfd => trfd(),
            PerfectProgram::Adm => adm(),
            PerfectProgram::Flo52q => flo52q(),
            PerfectProgram::Dyfesm => dyfesm(),
            PerfectProgram::Qcd => qcd(),
            PerfectProgram::Mdg => mdg(),
            PerfectProgram::Track => track(),
        }
    }

    /// The latency-hiding band the model is calibrated to fall into at a
    /// memory differential of 60 cycles and unlimited windows.
    #[must_use]
    pub fn expected_band(self) -> LatencyHidingBand {
        match self {
            PerfectProgram::Trfd | PerfectProgram::Adm | PerfectProgram::Flo52q => {
                LatencyHidingBand::High
            }
            PerfectProgram::Dyfesm | PerfectProgram::Qcd | PerfectProgram::Mdg => {
                LatencyHidingBand::Moderate
            }
            PerfectProgram::Track => LatencyHidingBand::Poor,
        }
    }
}

impl fmt::Display for PerfectProgram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The full suite: one workload per PERFECT program, in Table 1 order.
#[must_use]
pub fn suite() -> Vec<Workload> {
    PerfectProgram::ALL.iter().map(|p| p.workload()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dae_trace::{classification_disagreement, expand, partition, PartitionMode};

    #[test]
    fn all_seven_programs_build_valid_kernels() {
        for program in PerfectProgram::ALL {
            let w = program.workload();
            assert_eq!(w.name(), program.name());
            assert!(w.kernel().validate().is_ok(), "{program}");
            assert!(w.kernel().len() >= 8, "{program} should be non-trivial");
            assert_eq!(w.meta().expected_band, Some(program.expected_band()));
        }
    }

    #[test]
    fn every_program_has_an_index_load_and_memory_traffic() {
        for program in PerfectProgram::ALL {
            let w = program.workload();
            let stats = w.kernel().stats();
            assert!(stats.loads >= 2, "{program} loads");
            assert!(stats.stores >= 1, "{program} stores");
            assert!(stats.indirect_loads >= 1, "{program} gathers");
            assert!(stats.fp_ops >= 4, "{program} fp ops");
        }
    }

    #[test]
    fn default_traces_have_tens_of_thousands_of_instructions() {
        for program in PerfectProgram::ALL {
            let w = program.workload();
            let len = w.kernel().len() as u64 * w.meta().default_iterations;
            assert!(
                (15_000..60_000).contains(&len),
                "{program}: default trace would be {len} instructions"
            );
        }
    }

    #[test]
    fn partition_structure_matches_each_programs_character() {
        for program in PerfectProgram::ALL {
            let trace = program.workload().trace(200);
            let dm = partition(&trace, PartitionMode::Tagged);
            // Every program performs index loads, so it has AU self loads.
            assert!(dm.stats.au_self_loads > 0, "{program} self loads");
            if program == PerfectProgram::Track {
                assert!(
                    dm.stats.copies_du_to_au >= 200,
                    "TRACK loses decoupling every iteration"
                );
            } else {
                assert_eq!(
                    dm.stats.copies_du_to_au, 0,
                    "{program} should not lose decoupling"
                );
            }
        }
    }

    #[test]
    fn tags_agree_with_the_automatic_classifier_except_for_track() {
        // TRACK deliberately computes an address index on the DU (the
        // loss-of-decoupling device); every other program's tags must agree
        // with the slice-based classifier exactly.
        for program in PerfectProgram::ALL {
            let trace = program.workload().trace(100);
            let disagreement = classification_disagreement(&trace);
            if program == PerfectProgram::Track {
                assert!(disagreement > 0.0 && disagreement < 0.2);
            } else {
                assert_eq!(disagreement, 0.0, "{program}");
            }
        }
    }

    #[test]
    fn representative_programs_span_the_bands() {
        let bands: Vec<_> = PerfectProgram::REPRESENTATIVE
            .iter()
            .map(|p| p.expected_band())
            .collect();
        assert_eq!(
            bands,
            vec![
                LatencyHidingBand::High,
                LatencyHidingBand::Moderate,
                LatencyHidingBand::Poor
            ]
        );
    }

    #[test]
    fn name_round_trip() {
        for program in PerfectProgram::ALL {
            assert_eq!(PerfectProgram::from_name(program.name()), Some(program));
            assert_eq!(
                PerfectProgram::from_name(&program.name().to_lowercase()),
                Some(program)
            );
        }
        assert_eq!(PerfectProgram::from_name("nosuch"), None);
    }

    #[test]
    fn suite_contains_all_seven_in_order() {
        let suite = suite();
        assert_eq!(suite.len(), 7);
        assert_eq!(suite[0].name(), "TRFD");
        assert_eq!(suite[6].name(), "TRACK");
    }

    #[test]
    fn chase_loads_reference_their_own_previous_value() {
        let w = mdg();
        let trace = expand(w.kernel(), 30);
        // Find a chase load past the warm-up distance and check its address
        // dependence points at the same statement, 14 iterations earlier.
        let chase_stmt = w
            .kernel()
            .statements()
            .iter()
            .position(|s| s.label.as_deref() == Some("chase-load"))
            .expect("MDG has a chase load");
        let inst = trace
            .iter()
            .find(|inst| inst.stmt == chase_stmt && inst.iteration == 20)
            .expect("instance exists");
        let producer = &trace[inst.deps[0].producer];
        assert_eq!(producer.stmt, chase_stmt);
        assert_eq!(producer.iteration, 6);
    }
}
