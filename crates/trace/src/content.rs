//! Structural content hashing of lowered instruction streams.
//!
//! The sweep-result cache keys entries by *what program the machine runs*,
//! not by which `Arc` happens to hold the lowering: two lowerings of the
//! same trace — in the same process or across a server restart — must
//! produce the same key so cached figures survive re-lowering and can be
//! persisted to disk.  [`TraceHash`] is that key component: a 128-bit
//! digest over a canonical word encoding of the lowered streams.
//!
//! The encoding is hand-rolled and deliberately exhaustive over
//! everything the simulators read: per instruction the trace position,
//! operation kind, execution kind, every dependence edge with its
//! cross-unit flag, and the memory tag / effective address when present.  Wakeup lists and per-stream statistics are *derived* from
//! the instruction streams deterministically at lowering time, so hashing
//! the streams covers them.  Stream boundaries and lengths are folded in
//! explicitly so concatenations cannot collide with splits.
//!
//! The mix is the same multiply-rotate fold used by the workspace's
//! `FxHasher` (`dae-mem`), run as two independently-seeded lanes to get
//! 128 bits; it is a fast structural fingerprint, not a cryptographic
//! commitment.  `dae-trace` sits below `dae-mem` in the crate graph, so
//! the constant is restated here rather than imported.

use std::fmt;

use crate::machine_inst::{ExecKind, MachineInst};
use dae_isa::OpKind;

/// The Fx multiply constant (shared with `dae-mem`'s `FxHasher`).
const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Initial state of the second lane; any odd constant unequal to the
/// first lane's zero start decorrelates the two folds.
const LANE_B_INIT: u64 = 0x9e37_79b9_7f4a_7c15;

/// A 128-bit structural digest of a lowered program.
///
/// Equal hashes are produced by structurally identical lowerings
/// regardless of when or in which process they were computed; the cache
/// differential suite pins hash-equal ⇒ bit-for-bit-equal sweep results.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TraceHash(u64, u64);

impl TraceHash {
    /// Reconstructs a hash from its two words (used by the on-disk cache
    /// store when reloading persisted records).
    #[must_use]
    pub fn from_words(hi: u64, lo: u64) -> Self {
        TraceHash(hi, lo)
    }

    /// The two words of the digest, in `(hi, lo)` order.
    #[must_use]
    pub fn words(self) -> (u64, u64) {
        (self.0, self.1)
    }
}

impl fmt::Display for TraceHash {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}{:016x}", self.0, self.1)
    }
}

/// Incremental canonical encoder producing a [`TraceHash`].
///
/// Callers fold in instruction streams with [`stream`](Self::stream) and
/// any extra scalar parameters with [`word`](Self::word), then call
/// [`finish`](Self::finish).  The order of calls is part of the encoding.
#[derive(Debug)]
pub struct ContentHasher {
    lane_a: u64,
    lane_b: u64,
}

impl Default for ContentHasher {
    fn default() -> Self {
        Self::new()
    }
}

/// Stable ordinal for the operation kind (the enum's declaration order is
/// matched exactly; a new variant forces a compile error here).
fn op_ordinal(op: OpKind) -> u64 {
    match op {
        OpKind::IntAlu => 0,
        OpKind::FpAdd => 1,
        OpKind::FpMul => 2,
        OpKind::FpDiv => 3,
        OpKind::Load => 4,
        OpKind::Store => 5,
    }
}

/// Stable ordinal for the execution kind.
fn exec_ordinal(kind: ExecKind) -> u64 {
    match kind {
        ExecKind::Arith => 0,
        ExecKind::LoadRequest => 1,
        ExecKind::LoadConsume => 2,
        ExecKind::LoadBlocking => 3,
        ExecKind::StoreOp => 4,
        ExecKind::CopySend => 5,
    }
}

impl ContentHasher {
    /// Creates a fresh encoder.
    #[must_use]
    pub fn new() -> Self {
        ContentHasher {
            lane_a: 0,
            lane_b: LANE_B_INIT,
        }
    }

    /// Folds one canonical word into both lanes.
    pub fn word(&mut self, word: u64) {
        self.lane_a = (self.lane_a.rotate_left(5) ^ word).wrapping_mul(FX_SEED);
        self.lane_b = (self.lane_b.rotate_left(9) ^ word).wrapping_mul(FX_SEED);
    }

    /// Folds an entire instruction stream: a length prefix followed by the
    /// full canonical encoding of each instruction.  Optional fields are
    /// encoded presence-first so an absent tag can never collide with a
    /// present one.
    pub fn stream(&mut self, insts: &[MachineInst]) {
        self.word(insts.len() as u64);
        for inst in insts {
            self.word(inst.trace_pos as u64);
            self.word(op_ordinal(inst.op));
            self.word(exec_ordinal(inst.kind));
            self.word(inst.deps.len() as u64);
            for dep in inst.deps.iter() {
                self.word(((dep.index() as u64) << 1) | u64::from(dep.is_cross()));
            }
            match inst.tag {
                Some(tag) => {
                    self.word(1);
                    self.word(u64::from(tag));
                }
                None => self.word(0),
            }
            match inst.addr {
                Some(addr) => {
                    self.word(1);
                    self.word(addr);
                }
                None => self.word(0),
            }
        }
    }

    /// Finalizes the digest.
    #[must_use]
    pub fn finish(mut self) -> TraceHash {
        // One closing round per lane so trailing zero words still perturb
        // the state relative to an early stop.
        self.word(FX_SEED);
        TraceHash(self.lane_a, self.lane_b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{expand, expand_swsm, partition, PartitionMode};
    use dae_isa::{KernelBuilder, Operand};

    fn sample_streams() -> (Vec<MachineInst>, Vec<MachineInst>, Vec<MachineInst>) {
        let mut b = KernelBuilder::new("content-hash");
        let i = b.induction();
        let x = b.load_strided(&[Operand::Local(i)], 0, 8);
        let y = b.fp_mul(&[Operand::Local(x), Operand::Invariant(0)]);
        b.store_strided(&[Operand::Local(y), Operand::Local(i)], 0x1000, 8);
        let trace = expand(&b.build().expect("kernel builds"), 40);
        let dm = partition(&trace, PartitionMode::Tagged);
        let swsm = expand_swsm(&trace);
        (dm.au.to_vec(), dm.du.to_vec(), swsm.insts.to_vec())
    }

    fn hash_of(streams: &[&[MachineInst]]) -> TraceHash {
        let mut h = ContentHasher::new();
        for s in streams {
            h.stream(s);
        }
        h.finish()
    }

    #[test]
    fn identical_streams_hash_identically() {
        let (au, du, scalar) = sample_streams();
        let a = hash_of(&[&au, &du, &scalar]);
        let b = hash_of(&[&au, &du, &scalar]);
        assert_eq!(a, b);
        assert_eq!(a.to_string().len(), 32);
    }

    #[test]
    fn relowering_the_same_trace_hashes_identically() {
        let (au1, du1, _) = sample_streams();
        let (au2, du2, _) = sample_streams();
        let a = hash_of(&[&au1, &du1]);
        let b = hash_of(&[&au2, &du2]);
        assert_eq!(a, b);
    }

    #[test]
    fn every_field_perturbs_the_hash() {
        let (au, du, _) = sample_streams();
        let base = hash_of(&[&au, &du]);
        let idx = au
            .iter()
            .position(|i| i.tag.is_some() && i.addr.is_some())
            .expect("tagged memory instruction exists");

        let mut m = au.clone();
        m[idx].trace_pos += 1;
        assert_ne!(hash_of(&[&m, &du]), base, "trace_pos");

        let mut m = au.clone();
        m[idx].op = if m[idx].op == OpKind::Load {
            OpKind::Store
        } else {
            OpKind::Load
        };
        assert_ne!(hash_of(&[&m, &du]), base, "op");

        let mut m = au.clone();
        m[idx].kind = ExecKind::Arith;
        assert_ne!(hash_of(&[&m, &du]), base, "kind");

        let mut m = au.clone();
        m[idx].tag = m[idx].tag.map(|t| t + 1);
        assert_ne!(hash_of(&[&m, &du]), base, "tag value");

        let mut m = au.clone();
        m[idx].tag = None;
        assert_ne!(hash_of(&[&m, &du]), base, "tag presence");

        let mut m = au.clone();
        m[idx].addr = m[idx].addr.map(|a| a ^ 8);
        assert_ne!(hash_of(&[&m, &du]), base, "addr");

        // Dropping the last instruction of a stream changes the digest
        // even though the prefix is identical.
        let m = au[..au.len() - 1].to_vec();
        assert_ne!(hash_of(&[&m, &du]), base, "stream length");
    }

    #[test]
    fn stream_boundaries_are_part_of_the_encoding() {
        let (au, du, _) = sample_streams();
        let split = hash_of(&[&au, &du]);
        let joined: Vec<MachineInst> = au.iter().chain(du.iter()).cloned().collect();
        assert_ne!(hash_of(&[&joined]), split);
        assert_ne!(hash_of(&[&du, &au]), split, "stream order matters");
    }

    #[test]
    fn extra_words_perturb_the_hash() {
        let (au, _, _) = sample_streams();
        let mut h = ContentHasher::new();
        h.stream(&au);
        let plain = h.finish();
        let mut h = ContentHasher::new();
        h.stream(&au);
        h.word(7);
        assert_ne!(h.finish(), plain);
    }
}
