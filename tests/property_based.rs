//! Property-based tests: every randomly generated loop must schedule to a
//! valid modulo schedule on every machine shape, and core invariants of the
//! substrate crates must hold for arbitrary inputs.

use ddg::lifetime::{LifetimeInterval, Pressure, PressureMap};
use ddg::{NodeId, ValueId};
use loopgen::{synthetic, SyntheticParams};
use mirs::{MirsScheduler, PartialSchedule, SchedulerOptions};
use proptest::prelude::*;
use std::collections::BTreeMap;
use vliw::{ClusterConfig, ClusterId, LatencyModel, MachineConfig, Opcode, ReservationTable};

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, .. ProptestConfig::default() })]

    /// Any synthetic loop schedules to a validated schedule on any paper
    /// machine shape, and the achieved II never beats the MII.
    #[test]
    fn random_loops_schedule_and_validate(
        seed in 0u64..1000,
        arith in 3usize..20,
        streams in 1usize..5,
        recurrences in 0usize..2,
        clusters_pow in 0u32..3,
        regs_idx in 0usize..3,
    ) {
        let params = SyntheticParams {
            arith_ops: arith,
            input_streams: streams,
            output_stores: 1,
            invariants: 1,
            recurrences,
            ..SyntheticParams::default()
        };
        let lp = synthetic::generate(&params, seed);
        let k = 1u32 << clusters_pow;
        let regs = [16u32, 32, 64][regs_idx];
        let machine = MachineConfig::builder()
            .identical_clusters(k, ClusterConfig::new(8 / k, 4 / k, regs))
            .buses(2)
            .build()
            .unwrap();
        let lat = machine.latencies();
        let bounds = ddg::mii::mii(&lp.graph, lat, 8, 4);
        let result = MirsScheduler::new(&machine, SchedulerOptions::default())
            .schedule(&lp)
            .expect("synthetic loops always converge under MIRS-C");
        prop_assert!(result.ii >= bounds.mii());
        prop_assert!(result.validate(&machine).is_ok());
        prop_assert!(result.memory_traffic as usize >= lp.memory_ops());
    }

    /// Folding lifetimes modulo the II never undercounts: MaxLive is at
    /// least the number of registers any single lifetime needs, and the sum
    /// over kernel cycles equals the total covered cycles.
    #[test]
    fn pressure_folding_is_consistent(
        intervals in proptest::collection::vec((0i64..200, 0i64..60), 1..20),
        ii in 1u32..40,
    ) {
        let ivs: Vec<LifetimeInterval> = intervals
            .iter()
            .enumerate()
            .map(|(i, &(start, len))| LifetimeInterval { value: ValueId(i as u32), start, end: start + len })
            .collect();
        let p = Pressure::compute(ivs.iter(), ii, 0);
        let max_single = ivs.iter().map(|iv| iv.registers(ii)).max().unwrap_or(0);
        prop_assert!(p.max_live() >= max_single);
        let total_cells: i64 = p.per_cycle().iter().map(|&c| i64::from(c)).sum();
        let total_covered: i64 = ivs.iter().map(LifetimeInterval::len).sum();
        prop_assert_eq!(total_cells, total_covered);
        prop_assert!(p.critical_cycle() < ii);
    }

    /// Unrolling multiplies body size and divides the trip count.
    #[test]
    fn unrolling_scales_structurally(seed in 0u64..200, factor in 1u32..5) {
        let lp = synthetic::generate(&SyntheticParams::small(), seed);
        let unrolled = ddg::unroll::unroll(&lp, factor);
        prop_assert_eq!(unrolled.body_size(), lp.body_size() * factor as usize);
        prop_assert_eq!(unrolled.trip_count, lp.trip_count / u64::from(factor));
        prop_assert_eq!(
            unrolled.graph.edge_count(),
            lp.graph.edge_count() * factor as usize
        );
    }

    /// Random place/try_place/eject churn on the flat modulo reservation
    /// table, checked against a brute-force oracle that recounts every
    /// cell use by use from a mirror of the placements:
    ///
    /// * `can_place`, `intrinsically_infeasible` and `conflicts` (same set,
    ///   same first-placed-first order) agree with the oracle before every
    ///   placement;
    /// * the incrementally maintained cell counts and per-kind occupancy
    ///   gauges always equal a from-scratch recount.
    ///
    /// The tables include self-overlapping ones (`FpDiv`, 17 cycles, and
    /// `FpSqrt`, 30 cycles, at II 1..8), negative issue cycles and moves
    /// whose receive half lands `λm − 1 > 0` cycles after the send.
    #[test]
    fn place_eject_round_trip_matches_recount(
        ops in proptest::collection::vec(
            (0u32..24, -12i64..24, 0u16..2, 0usize..6, 0u32..2, 1u32..4),
            1..80,
        ),
        ii in 1u32..8,
    ) {
        let machine = MachineConfig::paper_config(2, 32).unwrap();
        let ix = machine.resource_indexer();
        let caps = machine.capacity_vector();
        let lat = LatencyModel::default();
        let table = |idx: usize, cluster: u16, move_latency: u32| -> ReservationTable {
            let op = match idx {
                0 => Opcode::FpAdd,
                1 => Opcode::Load,
                2 => Opcode::FpDiv,
                3 => Opcode::FpMul,
                4 => Opcode::FpSqrt,
                _ => {
                    return ReservationTable::for_move(
                        ClusterId(cluster),
                        ClusterId(1 - cluster),
                        &LatencyModel::with_move_latency(move_latency),
                    )
                }
            };
            ReservationTable::for_op(op, ClusterId(cluster), &lat)
        };
        // Per-cell use counts of one table issued at `cycle`, use by use.
        let cells = |rt: &ReservationTable, cycle: i64| -> BTreeMap<usize, u32> {
            let mut out = BTreeMap::new();
            for u in rt.iter() {
                let slot = (cycle + i64::from(u.offset)).rem_euclid(i64::from(ii)) as usize;
                *out.entry(ix.index_of(u.kind) * ii as usize + slot).or_insert(0) += 1;
            }
            out
        };
        let cap_of = |cell: usize| caps[cell / ii as usize];
        let mut sched = PartialSchedule::new(&machine, ii);
        // Mirror of the placements, in placement order.
        let mut placed: Vec<(NodeId, i64, ReservationTable)> = Vec::new();
        let mut conflicts = Vec::new();
        for (node, cycle, cluster, kind, force, move_latency) in ops {
            let node = NodeId(node);
            let rt = table(kind, cluster, move_latency);
            if sched.is_scheduled(node) {
                let back = sched.eject(node);
                let at = placed.iter().position(|p| p.0 == node).unwrap();
                prop_assert_eq!(back, placed.remove(at).1);
                prop_assert!(!sched.is_scheduled(node));
            } else {
                let (counts, _) = sched.recount();
                let wanted = cells(&rt, cycle);
                let full: Vec<usize> = wanted
                    .iter()
                    .filter(|&(&cell, &uses)| counts[cell] + uses > cap_of(cell))
                    .map(|(&cell, _)| cell)
                    .collect();
                let oracle_conflicts: Vec<NodeId> = placed
                    .iter()
                    .filter(|(_, c, prt)| cells(prt, *c).keys().any(|k| full.contains(k)))
                    .map(|p| p.0)
                    .collect();
                let infeasible = cells(&rt, 0)
                    .iter()
                    .any(|(&cell, &uses)| uses > cap_of(cell));
                let fits = sched.can_place(&rt, cycle);
                prop_assert_eq!(fits, full.is_empty());
                prop_assert_eq!(sched.intrinsically_infeasible(&rt), infeasible);
                sched.conflicts(&rt, cycle, &mut conflicts);
                prop_assert_eq!(&conflicts, &oracle_conflicts);
                if force == 1 {
                    // Forced placements may oversubscribe, like the
                    // Forcing-and-Ejection heuristic does.
                    sched.place(node, cycle, ClusterId(cluster), rt);
                    placed.push((node, cycle, rt));
                } else {
                    prop_assert_eq!(sched.try_place(node, cycle, ClusterId(cluster), rt), fits);
                    if fits {
                        placed.push((node, cycle, rt));
                    }
                }
            }
            let (counts, by_kind) = sched.gauges();
            let (recount, re_kind) = sched.recount();
            prop_assert_eq!(&counts, &recount, "cell counts drifted from the placements");
            prop_assert_eq!(&by_kind, &re_kind, "occupancy gauges drifted");
            for kind in ix.kinds() {
                prop_assert_eq!(sched.occupancy(kind), by_kind[ix.index_of(kind)]);
            }
            prop_assert_eq!(sched.len(), placed.len());
        }
    }

    /// Incremental pressure maps equal the from-scratch computation after
    /// any interleaving of lifetime additions and removals.
    #[test]
    fn pressure_map_tracks_compute_under_churn(
        intervals in proptest::collection::vec((-40i64..200, 0i64..60), 1..24),
        keep in proptest::collection::vec(0u32..2, 24..25),
        ii in 1u32..12,
        uniform in 0u32..4,
    ) {
        let ivs: Vec<LifetimeInterval> = intervals
            .iter()
            .enumerate()
            .map(|(i, &(start, len))| LifetimeInterval {
                value: ValueId(i as u32),
                start,
                end: start + len,
            })
            .collect();
        let mut map = PressureMap::new(ii);
        map.add_uniform(uniform);
        for iv in &ivs {
            map.add(iv);
        }
        // Remove a random subset again.
        let kept: Vec<&LifetimeInterval> = ivs
            .iter()
            .enumerate()
            .filter(|(i, _)| keep.get(*i).copied().unwrap_or(0) == 1)
            .map(|(_, iv)| iv)
            .collect();
        for (i, iv) in ivs.iter().enumerate() {
            if keep.get(i).copied().unwrap_or(0) != 1 {
                map.remove(iv);
            }
        }
        let scratch = Pressure::compute(kept.into_iter(), ii, uniform);
        prop_assert_eq!(map.per_cycle(), scratch.per_cycle());
        prop_assert_eq!(map.max_live(), scratch.max_live());
        prop_assert_eq!(map.critical_cycle(), scratch.critical_cycle());
    }

    /// The HRMS ordering is always a permutation of the nodes.
    #[test]
    fn hrms_order_is_a_permutation(seed in 0u64..300, recurrences in 0usize..3) {
        let params = SyntheticParams { recurrences, ..SyntheticParams::default() };
        let lp = synthetic::generate(&params, seed);
        let order = ddg::hrms::hrms_order(&lp.graph, &vliw::LatencyModel::default());
        prop_assert_eq!(order.len(), lp.graph.node_count());
        let mut sorted = order.clone();
        sorted.sort();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), order.len());
    }
}
