//! Thread-count scaling of the parallel sweep engine: full MIRS-C passes
//! over one workbench on the 4x16 paper configuration, sharded across 1, 2,
//! 4 and 8 workers.
//!
//! The per-thread-count wall-clock means land in
//! `target/criterion/sweep_scaling/summary.json`, giving CI a longitudinal
//! scaling curve next to the serial sched-time series. On a single-core
//! runner the curve is flat — the interesting signal is that it must never
//! *regress* (parallel overhead staying in the noise at `jobs=1` is part of
//! the determinism-for-free contract).

use criterion::{criterion_group, criterion_main, Criterion};
use harness::runner::{time_workbench_with, SchedulerKind};
use harness::sweep::SweepExecutor;
use loopgen::{Workbench, WorkbenchParams};
use mirs::PrefetchPolicy;
use vliw::MachineConfig;

fn bench(c: &mut Criterion) {
    let loops = std::env::var("MIRS_BENCH_LOOPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(24);
    let wb = Workbench::generate(&WorkbenchParams {
        loops,
        ..WorkbenchParams::default()
    });
    let machine = MachineConfig::paper_config(4, 16).unwrap();
    let mut g = c.benchmark_group("sweep_scaling");
    g.sample_size(10);
    for jobs in [1usize, 2, 4, 8] {
        let exec = SweepExecutor::new(jobs);
        g.bench_function(&format!("jobs_{jobs}"), |b| {
            b.iter(|| {
                time_workbench_with(
                    &exec,
                    &wb,
                    &machine,
                    SchedulerKind::MirsC,
                    PrefetchPolicy::HitLatency,
                    1,
                )
                .best_wall_seconds()
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
