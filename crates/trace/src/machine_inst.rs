//! The lowered ("machine") instruction representation consumed by the
//! cycle-level simulators.
//!
//! An architectural [`Trace`](crate::Trace) is lowered differently for each
//! machine model of the paper:
//!
//! * the **decoupled machine** splits it into an AU stream and a DU stream
//!   ([`partition`](crate::partition)), turning every load into an address
//!   *request* on the AU and a data *consume* on the unit that uses the
//!   value, and inserting explicit copy instructions for cross-unit value
//!   traffic;
//! * the **single-window superscalar** expands every memory operation into a
//!   *prefetch* plus an *access* ([`expand_swsm`](crate::expand_swsm));
//! * the **scalar reference** keeps loads blocking
//!   ([`lower_scalar`](crate::lower_scalar)).
//!
//! All three produce streams of [`MachineInst`], so the out-of-order unit in
//! `dae-ooo` and the machines in `dae-machines` share one instruction format.

use dae_isa::{Address, OpKind};
use std::fmt;
use std::ops::Deref;

/// Identifies one memory transaction (a request / consume pair, or a
/// prefetch / access pair).  Tags are dense indices assigned by the
/// lowerings, so simulators can use them to index flat arrays.
pub(crate) type MemTag = u32;

/// How a lowered instruction executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExecKind {
    /// A fixed-latency arithmetic operation (latency given by the
    /// [`LatencyModel`](dae_isa::LatencyModel) for [`MachineInst::op`]).
    Arith,
    /// Sends a load address to the memory system and completes in one cycle;
    /// the data arrives `memory differential` cycles later under
    /// [`MachineInst::tag`].  Used for the AU side of a decoupled load and
    /// for the SWSM prefetch.
    LoadRequest,
    /// Consumes the data of a previously requested transaction.  The
    /// instruction only becomes ready once the data has arrived (the
    /// simulators gate readiness on the tag) and then completes in one
    /// cycle, modelling the paper's single-cycle decoupled-memory /
    /// prefetch-buffer access.
    LoadConsume,
    /// A load with no prefetching at all: it issues, travels to memory and
    /// completes `1 + memory differential` cycles later.  Used by the scalar
    /// reference machine.
    LoadBlocking,
    /// A store-side operation (address generation, data delivery or the
    /// SWSM store access).  One cycle, fire and forget: nothing ever depends
    /// on its value.
    StoreOp,
    /// Copies a value towards the other unit of the decoupled machine.  One
    /// cycle on the sending unit; the consumer on the other side sees an
    /// additional transfer latency.
    CopySend,
}

impl ExecKind {
    /// Returns `true` if this kind produces a value other instructions can
    /// consume.
    #[must_use]
    pub fn produces_value(self) -> bool {
        !matches!(self, ExecKind::StoreOp | ExecKind::LoadRequest)
    }
}

impl fmt::Display for ExecKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            ExecKind::Arith => "arith",
            ExecKind::LoadRequest => "ld.req",
            ExecKind::LoadConsume => "ld.use",
            ExecKind::LoadBlocking => "ld.blk",
            ExecKind::StoreOp => "store",
            ExecKind::CopySend => "copy",
        };
        f.write_str(name)
    }
}

/// A dependence of a lowered instruction, packed into one `u32`.
///
/// Bits 0–30 hold the producer's stream index; bit 31 is the **cross
/// flag**.  A *local* dependence names an earlier instruction of the *same*
/// stream; a *cross* dependence names an instruction of the *other* unit's
/// stream (only produced by the decoupled-machine partition) and incurs the
/// machine's cross-unit transfer latency.
///
/// The packing matters because streams are the simulator's working set: a
/// `Dep` used to be a 16-byte enum (`usize` payload plus discriminant plus
/// padding), which put [`DepList`]'s two inline edges at 32 bytes and
/// [`MachineInst`] at 80.  Packed, two inline edges are 8 bytes and the
/// whole instruction fits in 56 (asserted by a test below).  Streams are
/// bounded far below 2³¹ — `UnitSim` already asserts `u32` index range —
/// so the narrowing loses nothing.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Dep(u32);

/// Bit 31 of a packed [`Dep`]: set for cross-unit dependences.
const CROSS_FLAG: u32 = 1 << 31;

/// The default is a placeholder (`local(0)`) used only to pre-initialise
/// the inline storage of a [`DepList`]; it never appears as an actual edge.
impl Default for Dep {
    fn default() -> Self {
        Dep::local(0)
    }
}

impl Dep {
    /// A dependence on instruction `index` of the same stream.
    ///
    /// # Panics
    ///
    /// Panics if `index` does not fit in 31 bits (streams are orders of
    /// magnitude shorter).
    #[must_use]
    #[inline]
    pub fn local(index: usize) -> Self {
        let raw = u32::try_from(index).expect("stream index exceeds u32");
        assert_eq!(raw & CROSS_FLAG, 0, "stream index exceeds 31 bits");
        Dep(raw)
    }

    /// A dependence on instruction `index` of the other unit's stream.
    ///
    /// # Panics
    ///
    /// Panics if `index` does not fit in 31 bits.
    #[must_use]
    #[inline]
    pub fn cross(index: usize) -> Self {
        let raw = u32::try_from(index).expect("stream index exceeds u32");
        assert_eq!(raw & CROSS_FLAG, 0, "stream index exceeds 31 bits");
        Dep(raw | CROSS_FLAG)
    }

    /// The producer index regardless of which stream it lives in.
    #[must_use]
    #[inline]
    pub fn index(self) -> usize {
        (self.0 & !CROSS_FLAG) as usize
    }

    /// Returns `true` for cross-unit dependences.
    #[must_use]
    #[inline]
    pub fn is_cross(self) -> bool {
        self.0 & CROSS_FLAG != 0
    }
}

impl fmt::Debug for Dep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let kind = if self.is_cross() { "Cross" } else { "Local" };
        write!(f, "{kind}({})", self.index())
    }
}

/// The dependence list of a [`MachineInst`], stored inline for up to two
/// edges (covering almost every lowered instruction the kernels produce —
/// binary operations, request/consume pairs, store address/data sides) and
/// spilling to a boxed heap vector beyond that.  Lowering a long trace used
/// to perform one heap allocation per instruction just for this list; the
/// inline representation removes that, which matters because lowering
/// dominates the cost of a cold single run.  The spill vector is boxed so
/// the rare long list costs one extra indirection instead of widening every
/// instruction by a full `Vec` header: with packed [`Dep`]s the whole list
/// is 16 bytes, and `MachineInst` size is simulator cache pressure.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct DepList(DepListRepr);

#[derive(Clone, PartialEq, Eq, Hash)]
enum DepListRepr {
    /// Up to two edges inline; `len` counts the valid prefix of `buf`.
    Inline { buf: [Dep; 2], len: u32 },
    /// Three or more edges (rare: only wide fan-in instructions).  The
    /// double indirection is deliberate: a bare `Vec` is 24 bytes and would
    /// widen *every* instruction; the box keeps this variant at pointer
    /// size so the common inline case dictates the footprint.
    #[allow(clippy::box_collection)]
    Spilled(Box<Vec<Dep>>),
}

impl DepList {
    /// An empty list (inline, no allocation).
    #[must_use]
    pub(crate) fn new() -> Self {
        DepList(DepListRepr::Inline {
            buf: [Dep::default(); 2],
            len: 0,
        })
    }

    /// A single-edge list (inline, no allocation).
    #[must_use]
    pub(crate) fn one(dep: Dep) -> Self {
        DepList(DepListRepr::Inline {
            buf: [dep, Dep::default()],
            len: 1,
        })
    }

    /// Appends an edge, spilling to the heap past two inline slots.
    pub(crate) fn push(&mut self, dep: Dep) {
        match &mut self.0 {
            DepListRepr::Inline { buf, len } => {
                if (*len as usize) < buf.len() {
                    buf[*len as usize] = dep;
                    *len += 1;
                } else {
                    let mut vec = Vec::with_capacity(buf.len() + 1);
                    vec.extend_from_slice(buf);
                    vec.push(dep);
                    self.0 = DepListRepr::Spilled(Box::new(vec));
                }
            }
            DepListRepr::Spilled(vec) => vec.push(dep),
        }
    }
}

impl Default for DepList {
    fn default() -> Self {
        DepList::new()
    }
}

impl Deref for DepList {
    type Target = [Dep];

    #[inline]
    fn deref(&self) -> &[Dep] {
        match &self.0 {
            DepListRepr::Inline { buf, len } => &buf[..*len as usize],
            DepListRepr::Spilled(vec) => vec,
        }
    }
}

impl fmt::Debug for DepList {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl From<Vec<Dep>> for DepList {
    fn from(deps: Vec<Dep>) -> Self {
        deps.into_iter().collect()
    }
}

impl FromIterator<Dep> for DepList {
    fn from_iter<I: IntoIterator<Item = Dep>>(iter: I) -> Self {
        let mut list = DepList::new();
        for dep in iter {
            list.push(dep);
        }
        list
    }
}

impl<'a> IntoIterator for &'a DepList {
    type Item = &'a Dep;
    type IntoIter = std::slice::Iter<'a, Dep>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// One lowered instruction, as dispatched into an instruction window by the
/// simulators.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MachineInst {
    /// Program-order position of the architectural instruction this was
    /// lowered from (used for slippage and effective-single-window
    /// accounting).
    pub trace_pos: usize,
    /// The architectural operation kind (used for latency lookup and
    /// statistics).
    pub op: OpKind,
    /// How the instruction executes.
    pub kind: ExecKind,
    /// True dependences on earlier lowered instructions (inline up to two
    /// edges — see [`DepList`]).
    pub deps: DepList,
    /// The memory transaction this instruction participates in, if any.
    pub tag: Option<MemTag>,
    /// The effective address, for memory instructions.
    pub addr: Option<Address>,
}

impl MachineInst {
    /// Creates an arithmetic instruction.
    #[must_use]
    pub fn arith(trace_pos: usize, op: OpKind, deps: impl Into<DepList>) -> Self {
        MachineInst {
            trace_pos,
            op,
            kind: ExecKind::Arith,
            deps: deps.into(),
            tag: None,
            addr: None,
        }
    }

    /// Creates a memory-kind instruction.
    #[must_use]
    pub fn memory(
        trace_pos: usize,
        op: OpKind,
        kind: ExecKind,
        deps: impl Into<DepList>,
        tag: MemTag,
        addr: Option<Address>,
    ) -> Self {
        MachineInst {
            trace_pos,
            op,
            kind,
            deps: deps.into(),
            tag: Some(tag),
            addr,
        }
    }

    /// Creates a cross-unit copy instruction.
    #[must_use]
    pub fn copy(trace_pos: usize, deps: impl Into<DepList>) -> Self {
        MachineInst {
            trace_pos,
            op: OpKind::IntAlu,
            kind: ExecKind::CopySend,
            deps: deps.into(),
            tag: None,
            addr: None,
        }
    }
}

/// Simple aggregate counts over a lowered stream, for the lowering tests.
#[cfg(test)]
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct StreamStats {
    /// Number of lowered instructions.
    pub(crate) instructions: usize,
    /// Arithmetic instructions.
    pub(crate) arith: usize,
    /// Load requests / prefetches.
    pub(crate) load_requests: usize,
    /// Load consumes / accesses.
    pub(crate) load_consumes: usize,
    /// Blocking loads.
    pub(crate) load_blocking: usize,
    /// Store-side operations.
    pub(crate) stores: usize,
    /// Cross-unit copies.
    pub(crate) copies: usize,
    /// Cross-unit dependence edges.
    pub(crate) cross_deps: usize,
}

/// Computes [`StreamStats`] for a lowered stream.
#[cfg(test)]
#[must_use]
pub(crate) fn stream_stats(stream: &[MachineInst]) -> StreamStats {
    let mut st = StreamStats {
        instructions: stream.len(),
        ..StreamStats::default()
    };
    for inst in stream {
        match inst.kind {
            ExecKind::Arith => st.arith += 1,
            ExecKind::LoadRequest => st.load_requests += 1,
            ExecKind::LoadConsume => st.load_consumes += 1,
            ExecKind::LoadBlocking => st.load_blocking += 1,
            ExecKind::StoreOp => st.stores += 1,
            ExecKind::CopySend => st.copies += 1,
        }
        st.cross_deps += inst.deps.iter().filter(|d| d.is_cross()).count();
    }
    st
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exec_kind_value_production() {
        assert!(ExecKind::Arith.produces_value());
        assert!(ExecKind::LoadConsume.produces_value());
        assert!(ExecKind::LoadBlocking.produces_value());
        assert!(ExecKind::CopySend.produces_value());
        assert!(!ExecKind::StoreOp.produces_value());
        assert!(!ExecKind::LoadRequest.produces_value());
    }

    #[test]
    fn dep_accessors() {
        assert_eq!(Dep::local(4).index(), 4);
        assert_eq!(Dep::cross(9).index(), 9);
        assert!(Dep::cross(9).is_cross());
        assert!(!Dep::local(4).is_cross());
        // The packing round-trips the largest representable index.
        let max = (1usize << 31) - 1;
        assert_eq!(Dep::local(max).index(), max);
        assert_eq!(Dep::cross(max).index(), max);
        assert!(Dep::cross(max).is_cross());
        assert!(!Dep::local(max).is_cross());
        assert_eq!(format!("{:?}", Dep::cross(9)), "Cross(9)");
        assert_eq!(format!("{:?}", Dep::local(4)), "Local(4)");
    }

    #[test]
    #[should_panic(expected = "exceeds 31 bits")]
    fn dep_index_beyond_31_bits_panics() {
        let _ = Dep::local(1usize << 31);
    }

    #[test]
    fn machine_inst_stays_within_the_cache_budget() {
        // Streams are the simulator's working set: tens of thousands of
        // resident `MachineInst`s per run.  The packed `Dep` and the boxed
        // spill representation exist to keep the per-instruction footprint
        // at 56 bytes (down from 80); this pins the layout so a future
        // field does not silently blow it up again.
        assert_eq!(std::mem::size_of::<Dep>(), 4);
        assert!(std::mem::size_of::<DepList>() <= 16);
        assert!(
            std::mem::size_of::<MachineInst>() <= 56,
            "MachineInst grew to {} bytes",
            std::mem::size_of::<MachineInst>()
        );
    }

    #[test]
    fn dep_list_spills_past_two_inline_edges() {
        let mut list = DepList::new();
        assert!(list.is_empty());
        list.push(Dep::local(1));
        list.push(Dep::cross(2));
        assert!(!matches!(list.0, DepListRepr::Spilled(_)));
        assert_eq!(&list[..], &[Dep::local(1), Dep::cross(2)]);
        list.push(Dep::local(3));
        assert!(matches!(list.0, DepListRepr::Spilled(_)));
        assert_eq!(&list[..], &[Dep::local(1), Dep::cross(2), Dep::local(3)]);
        assert!(list.contains(&Dep::cross(2)));
        // Construction from iterators and vectors agrees with pushes.
        let collected: DepList = vec![Dep::local(1), Dep::cross(2), Dep::local(3)].into();
        assert_eq!(collected, list);
        assert_eq!(DepList::one(Dep::cross(7))[0], Dep::cross(7));
    }

    #[test]
    fn stream_stats_count_kinds() {
        let stream = vec![
            MachineInst::arith(0, OpKind::IntAlu, vec![]),
            MachineInst::memory(
                1,
                OpKind::Load,
                ExecKind::LoadRequest,
                vec![Dep::local(0)],
                0,
                Some(8),
            ),
            MachineInst::memory(
                1,
                OpKind::Load,
                ExecKind::LoadConsume,
                vec![Dep::cross(1)],
                0,
                Some(8),
            ),
            MachineInst::copy(2, vec![Dep::local(2)]),
            MachineInst::memory(
                3,
                OpKind::Store,
                ExecKind::StoreOp,
                vec![Dep::local(3)],
                1,
                Some(16),
            ),
        ];
        let st = stream_stats(&stream);
        assert_eq!(st.instructions, 5);
        assert_eq!(st.arith, 1);
        assert_eq!(st.load_requests, 1);
        assert_eq!(st.load_consumes, 1);
        assert_eq!(st.copies, 1);
        assert_eq!(st.stores, 1);
        assert_eq!(st.cross_deps, 1);
    }

    #[test]
    fn display_names_are_short_and_unique() {
        let kinds = [
            ExecKind::Arith,
            ExecKind::LoadRequest,
            ExecKind::LoadConsume,
            ExecKind::LoadBlocking,
            ExecKind::StoreOp,
            ExecKind::CopySend,
        ];
        let mut seen = std::collections::HashSet::new();
        for k in kinds {
            let s = format!("{k}");
            assert!(!s.is_empty());
            assert!(seen.insert(s));
        }
    }
}
