//! Precomputed wakeup lists for the event-driven scheduler.
//!
//! The event-driven out-of-order unit in `dae-ooo` wakes the *consumers* of
//! an instruction when it completes instead of re-polling every resident
//! instruction every cycle.  That requires the dependence graph inverted —
//! producer → consumers — which this module builds **once per lowered
//! stream** in compressed sparse row form, so a wake is a contiguous slice
//! walk with no per-cycle allocation.
//!
//! Two flavours exist:
//!
//! * [`WakeupList::local`] — consumers within the same stream
//!   (local [`Dep`] edges), used by the unit itself;
//! * [`WakeupList::cross`] — consumers in *this* stream of producers in the
//!   *other* unit's stream (cross [`Dep`] edges), used by the decoupled
//!   machine to forward issue events between its two units.

use crate::{Dep, MachineInst};

/// An inverted dependence graph in compressed sparse row form: for each
/// producer index, the consumer indices it must wake.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WakeupList {
    /// `offsets[p]..offsets[p + 1]` delimits producer `p`'s consumers in
    /// [`WakeupList::targets`].
    offsets: Vec<u32>,
    /// Consumer indices, grouped by producer.
    targets: Vec<u32>,
}

impl WakeupList {
    /// Builds the local wakeup list of `stream`: for every instruction, the
    /// later instructions of the *same* stream that name it in a
    /// local [`Dep`] edge.  Duplicate edges are preserved — the scheduler's
    /// remaining-operand counters count edges, not distinct producers.
    #[must_use]
    pub fn local(stream: &[MachineInst]) -> Self {
        Self::build(stream, stream.len(), false)
    }

    /// Builds the cross wakeup list of `stream` against a producer stream of
    /// `producer_len` instructions: for every index of the *other* stream,
    /// the instructions of `stream` that name it in a cross [`Dep`] edge.
    #[must_use]
    pub(crate) fn cross(stream: &[MachineInst], producer_len: usize) -> Self {
        Self::build(stream, producer_len, true)
    }

    fn build(stream: &[MachineInst], producer_len: usize, cross: bool) -> Self {
        let matches =
            |dep: &Dep| -> Option<usize> { (dep.is_cross() == cross).then(|| dep.index()) };

        let mut counts = vec![0u32; producer_len];
        for inst in stream {
            for dep in &inst.deps {
                if let Some(p) = matches(dep) {
                    counts[p] += 1;
                }
            }
        }

        let mut offsets = Vec::with_capacity(producer_len + 1);
        let mut running: u32 = 0;
        offsets.push(0);
        for &c in &counts {
            running += c;
            offsets.push(running);
        }

        let mut cursor: Vec<u32> = offsets[..producer_len].to_vec();
        let mut targets = vec![0u32; running as usize];
        for (consumer, inst) in stream.iter().enumerate() {
            for dep in &inst.deps {
                if let Some(p) = matches(dep) {
                    targets[cursor[p] as usize] = u32::try_from(consumer).expect("stream too long");
                    cursor[p] += 1;
                }
            }
        }

        WakeupList { offsets, targets }
    }

    /// The consumers woken by producer `p`.
    #[must_use]
    #[inline]
    pub fn of(&self, p: usize) -> &[u32] {
        let lo = self.offsets[p] as usize;
        let hi = self.offsets[p + 1] as usize;
        &self.targets[lo..hi]
    }

    /// The number of producers covered.
    #[must_use]
    pub fn producers(&self) -> usize {
        self.offsets.len() - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dae_isa::OpKind;

    fn arith(i: usize, deps: Vec<Dep>) -> MachineInst {
        MachineInst::arith(i, OpKind::IntAlu, deps)
    }

    #[test]
    fn local_lists_invert_the_dependence_graph() {
        let stream = vec![
            arith(0, vec![]),
            arith(1, vec![Dep::local(0)]),
            arith(2, vec![Dep::local(0), Dep::local(1)]),
            arith(3, vec![Dep::cross(0)]),
        ];
        let wl = WakeupList::local(&stream);
        assert_eq!(wl.producers(), 4);
        assert_eq!(wl.of(0), &[1, 2]);
        assert_eq!(wl.of(1), &[2]);
        assert_eq!(wl.of(2), &[] as &[u32]);
        assert_eq!(wl.targets.len(), 3, "cross edges are excluded");
    }

    #[test]
    fn duplicate_edges_are_preserved() {
        let stream = vec![
            arith(0, vec![]),
            arith(1, vec![Dep::local(0), Dep::local(0)]),
        ];
        let wl = WakeupList::local(&stream);
        assert_eq!(wl.of(0), &[1, 1]);
    }

    #[test]
    fn cross_lists_key_by_the_other_stream() {
        let stream = vec![
            arith(0, vec![Dep::cross(2)]),
            arith(1, vec![Dep::cross(2), Dep::local(0)]),
            arith(2, vec![Dep::cross(5)]),
        ];
        let wl = WakeupList::cross(&stream, 7);
        assert_eq!(wl.producers(), 7);
        assert_eq!(wl.of(2), &[0, 1]);
        assert_eq!(wl.of(5), &[2]);
        assert_eq!(wl.of(0), &[] as &[u32]);
    }

    #[test]
    fn empty_streams_build_empty_lists() {
        let wl = WakeupList::local(&[]);
        assert_eq!(wl.producers(), 0);
        assert_eq!(wl.targets.len(), 0);
    }
}
