//! Reusable scheduling buffers: one [`SchedScratch`] per worker amortises
//! every per-attempt allocation of the scheduler across II restarts *and*
//! across loops.
//!
//! A scheduling attempt needs a partial schedule (MRT arrays sized by
//! resources × II), per-cluster pressure gauges, a priority list and the
//! node- and value-indexed [`Ledger`]. The scratch holds them between
//! attempts: `take_*` hands a buffer out (reset to empty, capacity
//! preserved), `reclaim` puts it back when the attempt ends.
//!
//! Reuse is invisible to the schedule: every buffer is reset to exactly the
//! state a freshly constructed one would have. That matters for the dense
//! maps in particular: a rollback hands the next attempt the same node and
//! value ids for different nodes, so nothing may survive a `take_*`. The
//! golden `schedule_hash` tests pin this.

use crate::pressure::PressureTracker;
use crate::priority::PriorityList;
use crate::schedule::PartialSchedule;
use crate::spill::SpillMemo;
use ddg::collections::IdMap;
use ddg::{NodeId, ValueId};
use vliw::{ClusterId, MachineConfig};

/// Node- and value-indexed bookkeeping of one scheduling attempt, plus the
/// reusable work lists of its per-pick hot paths. Every map is a dense
/// table indexed by id, so the scheduler's lookups are array reads.
#[derive(Debug, Default)]
pub(crate) struct Ledger {
    /// Cycle at which each node was scheduled the last time (before a
    /// possible ejection) — drives the forced cycle of the paper.
    pub prev_cycle: IdMap<NodeId, i64>,
    /// (source, destination) clusters of every live move node.
    pub move_route: IdMap<NodeId, (ClusterId, ClusterId)>,
    /// Live move node transporting a value into a cluster, at
    /// `value × clusters + destination`. Maintained by `create_move` /
    /// `remove_move` so move reuse checks need no whole-graph scan; at most
    /// one move exists per (value, destination).
    move_into: Vec<Option<NodeId>>,
    /// Cluster count of the machine `move_into` is laid out for.
    clusters: usize,
    /// Spill store node per spilled value. Stores are never removed from the
    /// graph, so this is a pure cache of `NodeOrigin::SpillStore` nodes.
    pub spill_store_of: IdMap<ValueId, NodeId>,
    /// Work list of the Forcing-and-Ejection victims (resource conflicts,
    /// then violated dependences).
    pub victims: Vec<NodeId>,
    /// Work list of the spill-section walk: `(consumer, use cycle,
    /// iteration distance)` of one value's scheduled uses.
    pub section_uses: Vec<(NodeId, i64, u32)>,
}

impl Ledger {
    /// Forget every entry, keeping the storage, for a machine with
    /// `clusters` clusters.
    fn reset(&mut self, clusters: usize) {
        self.prev_cycle.clear();
        self.move_route.clear();
        self.move_into.clear();
        self.clusters = clusters;
        self.spill_store_of.clear();
        self.victims.clear();
        self.section_uses.clear();
    }

    fn move_slot(&self, value: ValueId, dst: ClusterId) -> usize {
        value.index() * self.clusters + dst.index()
    }

    /// The live move transporting `value` into `dst`, if any.
    pub fn move_into(&self, value: ValueId, dst: ClusterId) -> Option<NodeId> {
        self.move_into
            .get(self.move_slot(value, dst))
            .copied()
            .flatten()
    }

    /// Record (or, with `None`, forget) the move transporting `value` into
    /// `dst`.
    pub fn set_move_into(&mut self, value: ValueId, dst: ClusterId, mv: Option<NodeId>) {
        let slot = self.move_slot(value, dst);
        if slot >= self.move_into.len() {
            self.move_into.resize(slot + 1, None);
        }
        self.move_into[slot] = mv;
    }
}

/// Reusable per-worker scheduling state.
///
/// Create one per thread (or per sequential batch of loops) and pass it to
/// [`MirsScheduler::schedule_with`](crate::MirsScheduler::schedule_with);
/// the parallel sweep harness keeps one per worker. A scratch carries no
/// results — only warmed allocations — so reusing it across loops and
/// machine configurations is always safe.
#[derive(Debug, Default)]
pub struct SchedScratch {
    sched: Option<PartialSchedule>,
    pressure: Option<PressureTracker>,
    plist: PriorityList,
    ledger: Ledger,
    /// Cross-restart spill memo. Unlike the other buffers it carries
    /// loop-scoped *state*, not just warmed capacity: entries persist
    /// across the II attempts of one loop (that is its whole point) and
    /// the search driver resets it via [`SchedScratch::spill_memo_mut`]
    /// when a new loop begins, so reuse across loops stays invisible.
    spill_memo: SpillMemo,
}

impl SchedScratch {
    /// Fresh scratch with no warmed buffers.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Partial schedule for `machine` at `ii`, reusing prior MRT storage.
    pub(crate) fn take_sched(&mut self, machine: &MachineConfig, ii: u32) -> PartialSchedule {
        match self.sched.take() {
            Some(mut s) => {
                s.reset(machine, ii);
                s
            }
            None => PartialSchedule::new(machine, ii),
        }
    }

    /// Pressure tracker for a `clusters`-cluster machine at `ii` with
    /// `values` pre-existing value ids, reusing prior storage.
    pub(crate) fn take_pressure(
        &mut self,
        clusters: usize,
        ii: u32,
        values: usize,
    ) -> PressureTracker {
        match self.pressure.take() {
            Some(mut p) => {
                p.reset(clusters, ii, values);
                p
            }
            None => PressureTracker::new(clusters, ii, values),
        }
    }

    /// Priority list loaded from an HRMS order, reusing prior storage.
    pub(crate) fn take_plist(&mut self, order: &[NodeId]) -> PriorityList {
        let mut pl = std::mem::take(&mut self.plist);
        pl.reset_from_order(order);
        pl
    }

    /// Empty ledger for a `clusters`-cluster machine, reusing prior storage.
    pub(crate) fn take_ledger(&mut self, clusters: usize) -> Ledger {
        let mut ledger = std::mem::take(&mut self.ledger);
        ledger.reset(clusters);
        ledger
    }

    /// The spill memo, *not* cleared: it deliberately survives from one II
    /// attempt to the next within a loop (the search driver calls
    /// [`SpillMemo::begin_loop`] through [`SchedScratch::spill_memo_mut`]
    /// at loop start and [`SpillMemo::begin_attempt`] before each attempt).
    pub(crate) fn take_spill_memo(&mut self) -> SpillMemo {
        std::mem::take(&mut self.spill_memo)
    }

    /// Direct access for the search driver's per-loop/per-attempt resets.
    pub(crate) fn spill_memo_mut(&mut self) -> &mut SpillMemo {
        &mut self.spill_memo
    }

    /// Return every buffer of a finished attempt so the next one (or the
    /// next loop) reuses the allocations.
    pub(crate) fn reclaim(
        &mut self,
        sched: PartialSchedule,
        pressure: PressureTracker,
        plist: PriorityList,
        ledger: Ledger,
        spill_memo: SpillMemo,
    ) {
        self.sched = Some(sched);
        self.pressure = Some(pressure);
        self.plist = plist;
        self.ledger = ledger;
        self.spill_memo = spill_memo;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vliw::MachineConfig;

    #[test]
    fn taken_buffers_start_empty_for_any_history() {
        let mut scratch = SchedScratch::new();
        let m2 = MachineConfig::paper_config(2, 32).unwrap();
        let m1 = MachineConfig::paper_config(1, 64).unwrap();

        let mut sched = scratch.take_sched(&m2, 7);
        sched.place(
            ddg::NodeId(0),
            3,
            vliw::ClusterId(0),
            m2.reservation(vliw::Opcode::FpAdd, vliw::ClusterId(0)),
        );
        let mut ledger = scratch.take_ledger(2);
        ledger.prev_cycle.insert(ddg::NodeId(0), 3);
        ledger
            .move_route
            .insert(ddg::NodeId(1), (vliw::ClusterId(0), vliw::ClusterId(1)));
        ledger.set_move_into(ddg::ValueId(2), vliw::ClusterId(1), Some(ddg::NodeId(1)));
        ledger
            .spill_store_of
            .insert(ddg::ValueId(3), ddg::NodeId(4));
        let pressure = scratch.take_pressure(2, 7, 4);
        let plist = scratch.take_plist(&[ddg::NodeId(0)]);
        let spill_memo = scratch.take_spill_memo();
        scratch.reclaim(sched, pressure, plist, ledger, spill_memo);

        // Re-take for a different machine/II: everything must look fresh.
        let sched = scratch.take_sched(&m1, 3);
        assert_eq!(sched.ii(), 3);
        assert!(sched.is_empty());
        assert!(!sched.is_scheduled(ddg::NodeId(0)));
        let (counts, by_kind) = sched.gauges();
        assert!(counts.iter().all(|&c| c == 0));
        assert!(by_kind.iter().all(|&c| c == 0));
        let ledger = scratch.take_ledger(1);
        assert!(ledger.prev_cycle.is_empty());
        assert!(ledger.move_route.is_empty());
        assert!(ledger.spill_store_of.is_empty());
        assert_eq!(ledger.move_into(ddg::ValueId(2), vliw::ClusterId(0)), None);
        assert_eq!(ledger.move_into(ddg::ValueId(5), vliw::ClusterId(0)), None);
        let plist = scratch.take_plist(&[ddg::NodeId(5)]);
        assert_eq!(plist.len(), 1);
        assert_eq!(plist.rank_of(ddg::NodeId(0)), None, "old ranks forgotten");
    }
}
