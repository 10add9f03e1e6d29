//! Workload inputs: the repository's own `loopgen` workbench, in an order
//! drawn from the run seed.
//!
//! The loops are `Workbench::generate` at its default seed, so every run
//! schedules the same loops and the schedule-quality sums are the same for
//! every seed: a change in them is a change in the scheduler, not in the
//! inputs. The run seed decides the order the loops are sent in. With
//! loops drawn from the run seed instead, ΣII, memory traffic and cycles
//! spread by 2-4% over seeds 1-10, more than the changes in schedule
//! quality the benchmark has to resolve. A few of the loops, the same for
//! every seed, also make up the calibration that measures the host's speed
//! during a run (see `metrics::Timings`).

use ddg::Loop;
use loopgen::{Workbench, WorkbenchParams};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The first `count` loops of the default workbench (hand-written kernels
/// first, then synthetic loops; weights sum to 1), in the seed's order,
/// and `calibration` of them taken at an even stride in workbench order,
/// the same for every seed.
pub fn loops(count: usize, calibration: usize, seed: u64) -> (Vec<Loop>, Vec<Loop>) {
    let params = WorkbenchParams {
        loops: count,
        ..WorkbenchParams::default()
    };
    let mut loops = Workbench::generate(&params).loops().to_vec();
    let stride = (loops.len() / calibration.max(1)).max(1);
    let fixed = loops
        .iter()
        .step_by(stride)
        .take(calibration)
        .cloned()
        .collect();
    shuffle(&mut loops, seed);
    (loops, fixed)
}

/// Fisher-Yates shuffle driven by `seed`.
fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    for i in (1..items.len()).rev() {
        items.swap(i, rng.random_range(0..=i));
    }
}
