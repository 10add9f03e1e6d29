//! Pins the exact schedules MIRS-C produces on a reference workbench.
//!
//! [`ScheduleResult::schedule_hash`] digests the II, every placement and the
//! inserted spill/move counts into one stable FNV-1a value. The constants
//! below were recorded from the pre-flat-MRT scheduler; any change to the
//! resource bookkeeping or the incremental pressure gauges that alters even
//! one placement shows up here as a hash mismatch. This is the determinism
//! guarantee behind performance refactors of the scheduling loop: the flat
//! modulo reservation table must be a pure speedup, not a behaviour change.

use loopgen::{Workbench, WorkbenchParams};
use mirs::{MirsScheduler, ScheduleError, SchedulerOptions, SearchConfig};
use vliw::MachineConfig;

fn workbench() -> Workbench {
    Workbench::generate(&WorkbenchParams {
        loops: 10,
        ..WorkbenchParams::default()
    })
}

/// Combine the per-loop hashes of a full workbench run into one value.
fn workbench_hash(machine: &MachineConfig) -> u64 {
    let wb = workbench();
    let sched = MirsScheduler::new(machine, SchedulerOptions::default());
    let mut combined: u64 = 0xcbf2_9ce4_8422_2325;
    for lp in wb.loops() {
        let r = sched.schedule(lp).expect("reference workbench converges");
        r.validate(machine).expect("schedule validates");
        combined = combine(combined, r.schedule_hash());
    }
    combined
}

fn combine(acc: u64, h: u64) -> u64 {
    acc.rotate_left(7)
        .wrapping_mul(0x0000_0100_0000_01b3)
        .wrapping_add(h)
}

/// Digest of scheduling the first `loops` default-workbench loops under
/// `opts`: each loop contributes its schedule hash, or its last tried II
/// when the search did not converge below `max_ii`. The loop counts of the
/// pins below cover moves, spills, II restarts and ejection (and, on the
/// register-tight machine, one loop that does not converge) while keeping
/// each pin to a few seconds in a debug build.
fn hot_path_hash(machine: &MachineConfig, opts: SchedulerOptions, loops: usize) -> u64 {
    let wb = Workbench::generate(&WorkbenchParams {
        loops,
        ..WorkbenchParams::default()
    });
    let sched = MirsScheduler::new(machine, opts);
    let mut scratch = mirs::SchedScratch::new();
    let mut combined: u64 = 0xcbf2_9ce4_8422_2325;
    for lp in wb.loops() {
        let h = match sched.schedule_with(lp, &mut scratch) {
            Ok(r) => {
                r.validate(machine).expect("schedule validates");
                r.schedule_hash()
            }
            Err(ScheduleError::NotConverged { last_ii, .. }) => u64::from(last_ii),
            Err(e) => panic!("{}: unexpected scheduling error {e}", lp.name),
        };
        combined = combine(combined, h);
    }
    combined
}

#[test]
fn schedules_are_reproducible_on_the_unified_machine() {
    let machine = MachineConfig::paper_config(1, 64).unwrap();
    let h = workbench_hash(&machine);
    assert_eq!(
        h, GOLDEN_1X64,
        "1-(GP8M4-REG64) schedules changed: got {h:#018x}"
    );
}

#[test]
fn schedules_are_reproducible_on_the_clustered_machine() {
    let machine = MachineConfig::paper_config(2, 32).unwrap();
    let h = workbench_hash(&machine);
    assert_eq!(
        h, GOLDEN_2X32,
        "2-(GP4M2-REG32) schedules changed: got {h:#018x}"
    );
}

/// Four clusters of 16 registers: cluster selection, move insertion and
/// removal, spilling through moves, Forcing-and-Ejection.
#[test]
fn schedules_are_reproducible_on_the_four_cluster_machine_linear() {
    let machine = MachineConfig::paper_config(4, 16).unwrap();
    let opts = SchedulerOptions::default().with_search(SearchConfig::linear());
    let h = hot_path_hash(&machine, opts, 40);
    assert_eq!(
        h, GOLDEN_4X16_LINEAR,
        "4-(GP2M1-REG16) linear schedules changed: got {h:#018x}"
    );
}

/// The same machine under the branching search, serially: candidate
/// stashing, rollback and the accept rule on top of the attempt engine.
#[test]
fn schedules_are_reproducible_on_the_four_cluster_machine_backtracking() {
    let machine = MachineConfig::paper_config(4, 16).unwrap();
    let opts = SchedulerOptions::default().with_search(SearchConfig::backtracking());
    let h = hot_path_hash(&machine, opts, 40);
    assert_eq!(
        h, GOLDEN_4X16_BACKTRACKING,
        "4-(GP2M1-REG16) backtracking schedules changed: got {h:#018x}"
    );
}

/// One cluster of 16 registers with `max_ii = 32`: heavy spilling, II
/// restarts, the eject-from-critical-cycle fallback and loops that do not
/// converge (pinned by their last tried II).
#[test]
fn schedules_are_reproducible_on_the_register_tight_machine() {
    let machine = MachineConfig::paper_config(1, 16).unwrap();
    let opts = SchedulerOptions {
        max_ii: 32,
        ..SchedulerOptions::default()
    }
    .with_search(SearchConfig::linear());
    let h = hot_path_hash(&machine, opts, 60);
    assert_eq!(
        h, GOLDEN_1X16,
        "1-(GP8M4-REG16) schedules changed: got {h:#018x}"
    );
}

#[test]
fn schedule_hash_is_stable_across_runs() {
    let machine = MachineConfig::paper_config(2, 32).unwrap();
    let wb = workbench();
    let sched = MirsScheduler::new(&machine, SchedulerOptions::default());
    let lp = &wb.loops()[0];
    let a = sched.schedule(lp).unwrap().schedule_hash();
    let b = sched.schedule(lp).unwrap().schedule_hash();
    assert_eq!(a, b, "same loop, same machine, same hash");
}

/// One `SchedScratch` reused across every loop (and every machine shape)
/// produces exactly the schedules fresh-scratch runs produce: warmed
/// buffers carry capacity, never state. This is the contract that lets the
/// sweep engine keep one scratch per worker.
#[test]
fn schedules_are_identical_with_a_reused_scratch() {
    let wb = workbench();
    let mut scratch = mirs::SchedScratch::new();
    for (k, regs) in [(1u32, 64u32), (2, 32), (4, 16)] {
        let machine = MachineConfig::paper_config(k, regs).unwrap();
        let sched = MirsScheduler::new(&machine, SchedulerOptions::default());
        for lp in wb.loops() {
            let fresh = sched.schedule(lp).expect("reference workbench converges");
            let reused = sched
                .schedule_with(lp, &mut scratch)
                .expect("reference workbench converges");
            assert_eq!(
                fresh.schedule_hash(),
                reused.schedule_hash(),
                "{}: scratch reuse changed the schedule of {}",
                machine.name(),
                lp.name
            );
            assert_eq!(fresh.ii, reused.ii);
            assert_eq!(fresh.max_live, reused.max_live);
            assert_eq!(fresh.stats.restarts, reused.stats.restarts);
        }
    }
}

/// Recorded from the seed (hash-map MRT) scheduler; the flat-MRT refactor
/// must reproduce these exactly.
const GOLDEN_1X64: u64 = 0xe16d_bd67_223a_565e;
const GOLDEN_2X32: u64 = 0xda8c_f0c2_9b3e_3938;

/// Recorded from the hash-map / heap-table attempt engine; the dense,
/// allocation-free engine must reproduce these exactly.
const GOLDEN_4X16_LINEAR: u64 = 0x9092_1f0b_e5f9_8c40;
const GOLDEN_4X16_BACKTRACKING: u64 = 0x8f9b_6ea6_d0c5_273f;
const GOLDEN_1X16: u64 = 0xedf5_9e05_c5fb_76d9;
