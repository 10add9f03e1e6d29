//! Per-operation reservation tables.
//!
//! A reservation table lists the resources an operation occupies at each
//! cycle relative to its issue cycle. Most operations are simple (one
//! resource for one cycle, or a blocking unit for divide/sqrt), but an
//! inter-cluster `move` is a *complex* operation: it simultaneously needs the
//! output port of the source cluster, a shared bus, and — `λm - 1` cycles
//! later — the input port of the destination cluster. These complex tables
//! are precisely what makes backtracking valuable in MIRS-C.
//!
//! Every table the machine model builds is at most three *runs* — one
//! resource held for consecutive cycles — so a table is a small `Copy`
//! value: the scheduler builds one per probe without touching the heap.

use crate::op::{LatencyModel, Opcode};
use crate::resource::{ClusterId, ResourceKind};

/// One resource requirement of a reservation table: `kind` is occupied during
/// cycle `issue + offset`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ResourceUse {
    /// Cycle offset relative to the issue cycle of the operation.
    pub offset: u32,
    /// The resource occupied during that cycle.
    pub kind: ResourceKind,
}

/// A run of a reservation table: `kind` is occupied during the `count`
/// consecutive cycles `issue + offset .. issue + offset + count`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ResourceRun {
    /// Cycle offset of the first occupied cycle, relative to the issue
    /// cycle of the operation.
    pub offset: u32,
    /// Number of consecutive cycles the resource is held (at least 1).
    pub count: u32,
    /// The resource occupied.
    pub kind: ResourceKind,
}

/// Most runs a table holds: the three resources of an inter-cluster move.
const MAX_RUNS: usize = 3;

/// Filler of the unused run slots (never read: `run_count` bounds every
/// access).
const NO_RUN: ResourceRun = ResourceRun {
    offset: 0,
    count: 0,
    kind: ResourceKind::Bus,
};

/// Resource usage pattern of a single operation instance: up to three runs,
/// no two of the same resource kind (so no two runs ever share a cell of a
/// modulo reservation table).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReservationTable {
    runs: [ResourceRun; MAX_RUNS],
    run_count: u8,
}

impl Default for ReservationTable {
    fn default() -> Self {
        Self {
            runs: [NO_RUN; MAX_RUNS],
            run_count: 0,
        }
    }
}

impl ReservationTable {
    /// Empty reservation table (used by pseudo-operations).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn push(&mut self, run: ResourceRun) {
        if run.count > 0 {
            self.runs[usize::from(self.run_count)] = run;
            self.run_count += 1;
        }
    }

    /// Build the reservation table for `op` executed on `cluster`: one run
    /// holding the operation's unit for its occupancy.
    ///
    /// For [`Opcode::Move`] the destination cluster must be provided via
    /// [`ReservationTable::for_move`]; this function panics if called with a
    /// move opcode.
    ///
    /// # Panics
    ///
    /// Panics if `op` is [`Opcode::Move`].
    #[must_use]
    pub fn for_op(op: Opcode, cluster: ClusterId, lat: &LatencyModel) -> Self {
        assert!(
            !op.is_move(),
            "use ReservationTable::for_move for inter-cluster moves"
        );
        let kind = match op.class() {
            crate::op::OpClass::Gp => ResourceKind::GpUnit { cluster },
            crate::op::OpClass::Mem => ResourceKind::MemPort { cluster },
            crate::op::OpClass::Move => unreachable!(),
        };
        let mut rt = Self::new();
        rt.push(ResourceRun {
            offset: 0,
            count: lat.occupancy(op),
            kind,
        });
        rt
    }

    /// Build the coupled send/receive reservation table of an inter-cluster
    /// move from `src` to `dst` with move latency `λm`.
    ///
    /// The move occupies the output port of `src` and one bus at the issue
    /// cycle, and the input port of `dst` at cycle `issue + λm - 1` (for
    /// `λm = 1` all three resources are needed in the same cycle).
    #[must_use]
    pub fn for_move(src: ClusterId, dst: ClusterId, lat: &LatencyModel) -> Self {
        let recv_offset = lat.move_latency.saturating_sub(1);
        let mut rt = Self::new();
        for (offset, kind) in [
            (0, ResourceKind::OutPort { cluster: src }),
            (0, ResourceKind::Bus),
            (recv_offset, ResourceKind::InPort { cluster: dst }),
        ] {
            rt.push(ResourceRun {
                offset,
                count: 1,
                kind,
            });
        }
        rt
    }

    /// The runs of the table, each of a distinct resource kind.
    #[must_use]
    pub fn runs(&self) -> &[ResourceRun] {
        &self.runs[..usize::from(self.run_count)]
    }

    /// Iterate over the individual resource requirements, one per occupied
    /// (resource, cycle) pair.
    pub fn iter(&self) -> impl Iterator<Item = ResourceUse> + '_ {
        self.runs().iter().flat_map(|r| {
            (r.offset..r.offset + r.count).map(move |offset| ResourceUse {
                offset,
                kind: r.kind,
            })
        })
    }

    /// Number of resource requirements.
    #[must_use]
    pub fn len(&self) -> usize {
        self.runs().iter().map(|r| r.count as usize).sum()
    }

    /// Whether the table requires no resources.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.run_count == 0
    }

    /// Largest cycle offset used by the table (0 for an empty table).
    #[must_use]
    pub fn span(&self) -> u32 {
        self.runs()
            .iter()
            .map(|r| r.offset + r.count - 1)
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_op_occupies_single_cycle() {
        let lat = LatencyModel::default();
        let rt = ReservationTable::for_op(Opcode::FpAdd, ClusterId(0), &lat);
        assert_eq!(rt.len(), 1);
        assert_eq!(rt.span(), 0);
        assert_eq!(
            rt.iter().next().unwrap().kind,
            ResourceKind::GpUnit {
                cluster: ClusterId(0)
            }
        );
    }

    #[test]
    fn divide_blocks_its_unit_for_its_latency() {
        let lat = LatencyModel::default();
        let rt = ReservationTable::for_op(Opcode::FpDiv, ClusterId(1), &lat);
        assert_eq!(rt.runs().len(), 1, "one run, not one entry per cycle");
        assert_eq!(rt.len(), lat.fp_div as usize);
        assert_eq!(rt.span(), lat.fp_div - 1);
        assert!(rt.iter().all(|u| u.kind
            == ResourceKind::GpUnit {
                cluster: ClusterId(1)
            }));
        let offsets: Vec<u32> = rt.iter().map(|u| u.offset).collect();
        assert_eq!(offsets, (0..lat.fp_div).collect::<Vec<_>>());
    }

    #[test]
    fn loads_use_memory_ports() {
        let lat = LatencyModel::default();
        for op in [
            Opcode::Load,
            Opcode::Store,
            Opcode::SpillLoad,
            Opcode::SpillStore,
        ] {
            let rt = ReservationTable::for_op(op, ClusterId(2), &lat);
            assert_eq!(rt.len(), 1);
            assert_eq!(
                rt.iter().next().unwrap().kind,
                ResourceKind::MemPort {
                    cluster: ClusterId(2)
                }
            );
        }
    }

    #[test]
    fn move_with_unit_latency_needs_three_resources_same_cycle() {
        let lat = LatencyModel::with_move_latency(1);
        let rt = ReservationTable::for_move(ClusterId(0), ClusterId(1), &lat);
        assert_eq!(rt.len(), 3);
        assert_eq!(rt.runs().len(), 3);
        assert!(rt.iter().all(|u| u.offset == 0));
        assert!(rt.iter().any(|u| u.kind == ResourceKind::Bus));
    }

    #[test]
    fn move_with_latency_three_receives_later() {
        let lat = LatencyModel::with_move_latency(3);
        let rt = ReservationTable::for_move(ClusterId(0), ClusterId(3), &lat);
        assert_eq!(rt.span(), 2);
        let recv = rt
            .iter()
            .find(|u| matches!(u.kind, ResourceKind::InPort { .. }))
            .unwrap();
        assert_eq!(recv.offset, 2);
        assert_eq!(
            recv.kind,
            ResourceKind::InPort {
                cluster: ClusterId(3)
            }
        );
    }

    #[test]
    fn move_runs_have_distinct_kinds() {
        let lat = LatencyModel::default();
        let rt = ReservationTable::for_move(ClusterId(2), ClusterId(2), &lat);
        let runs = rt.runs();
        for (i, a) in runs.iter().enumerate() {
            assert!(runs[i + 1..].iter().all(|b| b.kind != a.kind));
        }
    }

    #[test]
    #[should_panic(expected = "for_move")]
    fn for_op_rejects_moves() {
        let lat = LatencyModel::default();
        let _ = ReservationTable::for_op(Opcode::Move, ClusterId(0), &lat);
    }

    #[test]
    fn empty_table_has_zero_span() {
        let rt = ReservationTable::new();
        assert!(rt.is_empty());
        assert_eq!(rt.len(), 0);
        assert_eq!(rt.span(), 0);
        assert_eq!(rt, ReservationTable::default());
    }
}
