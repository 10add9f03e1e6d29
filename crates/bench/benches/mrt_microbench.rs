//! Microbenchmarks of the flat modulo reservation table and the end-to-end
//! scheduler throughput it buys.
//!
//! The `probe/*` routines time the MRT's innermost operations (the
//! free-slot probe, place/eject churn, conflict reporting, occupancy reads)
//! in isolation, including the closed-form probe of a long unpipelined
//! table folded onto a small II; `schedtime/*` times full MIRS-C passes over a loopgen
//! workbench through the harness's timed-runner mode — the number behind
//! the paper's Table 3 scheduling-time comparison.

use criterion::{criterion_group, criterion_main, Criterion};
use harness::runner::{time_workbench, SchedulerKind};
use loopgen::{Workbench, WorkbenchParams};
use mirs::{PartialSchedule, PrefetchPolicy};
use vliw::{ClusterId, LatencyModel, MachineConfig, Opcode, ReservationTable, ResourceKind};

fn mrt_probes(c: &mut Criterion) {
    let machine = MachineConfig::paper_config(2, 32).unwrap();
    let lat = LatencyModel::default();
    let add = ReservationTable::for_op(Opcode::FpAdd, ClusterId(0), &lat);
    let load = ReservationTable::for_op(Opcode::Load, ClusterId(0), &lat);
    let div = ReservationTable::for_op(Opcode::FpDiv, ClusterId(0), &lat);
    let mv = ReservationTable::for_move(ClusterId(0), ClusterId(1), &lat);

    let mut g = c.benchmark_group("mrt_microbench");
    g.sample_size(10);

    // A realistic mixed occupancy at II = 8.
    let half_full = || {
        let mut s = PartialSchedule::new(&machine, 8);
        for i in 0..12u32 {
            s.place(
                ddg::NodeId(i),
                i64::from(i),
                ClusterId((i % 2) as u16),
                ReservationTable::for_op(Opcode::FpAdd, ClusterId((i % 2) as u16), &lat),
            );
        }
        s
    };

    let s = half_full();
    g.bench_function("probe/can_place", |b| {
        b.iter(|| {
            let mut hits = 0u32;
            for cycle in 0..64i64 {
                hits += u32::from(s.can_place(&add, cycle));
                hits += u32::from(s.can_place(&load, cycle));
                hits += u32::from(s.can_place(&div, cycle));
                hits += u32::from(s.can_place(&mv, cycle));
            }
            hits
        })
    });

    // A 30-cycle square root at II = 8 wraps onto itself three to four
    // times per slot of a free row; each probe folds its single run in
    // closed form (8 cells) instead of comparing 30 uses pairwise.
    let sqrt = ReservationTable::for_op(Opcode::FpSqrt, ClusterId(0), &lat);
    let mut small = PartialSchedule::new(&machine, 8);
    for i in 0..4u32 {
        small.place(ddg::NodeId(i), i64::from(i), ClusterId(0), load);
    }
    g.bench_function("probe/can_place_sqrt_small_ii", |b| {
        b.iter(|| {
            let mut hits = 0u32;
            for cycle in 0..64i64 {
                hits += u32::from(small.can_place(&sqrt, cycle));
                hits += u32::from(small.can_place(&div, cycle));
                hits += u32::from(small.intrinsically_infeasible(&sqrt));
            }
            hits
        })
    });

    g.bench_function("probe/conflicts", |b| {
        let mut out = Vec::new();
        b.iter(|| {
            let mut total = 0usize;
            for cycle in 0..64i64 {
                s.conflicts(&add, cycle, &mut out);
                total += out.len();
            }
            total
        })
    });

    g.bench_function("probe/occupancy", |b| {
        b.iter(|| {
            let mut total = 0u32;
            for _ in 0..256 {
                total += s.occupancy(ResourceKind::GpUnit {
                    cluster: ClusterId(0),
                });
                total += s.occupancy(ResourceKind::Bus);
            }
            total
        })
    });

    g.bench_function("probe/place_eject_churn", |b| {
        b.iter(|| {
            let mut s = half_full();
            for round in 0..32u32 {
                let n = ddg::NodeId(100 + round);
                s.place(
                    n,
                    i64::from(round),
                    ClusterId(0),
                    ReservationTable::for_op(Opcode::FpMul, ClusterId(0), &lat),
                );
                let _ = s.eject(n);
            }
            s.len()
        })
    });
    g.finish();
}

fn schedtime(c: &mut Criterion) {
    let loops = std::env::var("MIRS_BENCH_LOOPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(12);
    let wb = Workbench::generate(&WorkbenchParams {
        loops,
        ..WorkbenchParams::default()
    });
    let mut g = c.benchmark_group("mrt_schedtime");
    g.sample_size(10);
    for k in [1u32, 2, 4] {
        let machine = MachineConfig::paper_config(k, 64 / k).unwrap();
        g.bench_function(&format!("workbench_{}x{}", k, 64 / k), |b| {
            b.iter(|| {
                time_workbench(
                    &wb,
                    &machine,
                    SchedulerKind::MirsC,
                    PrefetchPolicy::HitLatency,
                    1,
                )
                .best_seconds()
            })
        });
    }
    g.finish();
}

criterion_group!(benches, mrt_probes, schedtime);
criterion_main!(benches);
