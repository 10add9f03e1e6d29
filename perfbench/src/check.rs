//! Output checks and the deterministic schedule-quality metrics.
//!
//! `ScheduleResult::validate` checks the transformed graph against itself:
//! placements, dependences, resources, operand clusters and register
//! counts. It cannot catch a spill or move rewiring that is internally
//! consistent but computes different values; a value-level checker does not
//! exist yet.

use crate::metrics::{metric, Metric};
use ddg::Loop;
use memsim::MemoryParams;
use mirs::{ScheduleError, ScheduleResult};
use vliw::MachineConfig;

/// Failed output checks. The first few are printed to standard error.
#[derive(Debug, Default)]
pub struct Checks {
    failed: u64,
}

impl Checks {
    pub fn fail(&mut self, what: impl std::fmt::Display) {
        self.failed += 1;
        if self.failed <= 10 {
            eprintln!("check failed: {what}");
        }
    }

    /// Record a failure unless `ok`.
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.fail(what());
        }
    }

    pub fn failed(&self) -> u64 {
        self.failed
    }
}

/// Check one scheduling outcome and return its share of the quality sums.
/// Not converging is an outcome, not a failed check.
pub fn check_outcome(
    lp: &Loop,
    r: &Result<ScheduleResult, ScheduleError>,
    machine: &MachineConfig,
    checks: &mut Checks,
) -> Quality {
    let mut q = Quality::default();
    match r {
        Ok(res) => match check_schedule(lp, res, machine) {
            Ok(cycles) => q.add_converged(res, cycles),
            Err(e) => {
                checks.fail(e);
                q.add_failed(res.ii);
            }
        },
        Err(ScheduleError::NotConverged { last_ii, .. }) => q.add_not_converged(*last_ii),
        Err(e) => {
            checks.fail(format!("{}: {e}", lp.name));
            q.add_failed(0);
        }
    }
    q
}

/// Validate one converged schedule: `validate` passes on its machine and
/// the II is at least the loop's MII, computed here from the source loop.
/// Returns the schedule's total cycles under `memsim` at the loop's trip
/// count.
fn check_schedule(
    lp: &Loop,
    result: &ScheduleResult,
    machine: &MachineConfig,
) -> Result<u64, String> {
    result
        .validate(machine)
        .map_err(|e| format!("{}: invalid schedule on {}: {e}", lp.name, machine.name()))?;
    let mii = ddg::mii::mii(
        &lp.graph,
        machine.latencies(),
        machine.total_gp_units(),
        machine.total_mem_ports(),
    )
    .mii();
    if result.ii < mii {
        return Err(format!("{}: II {} below MII {mii}", lp.name, result.ii));
    }
    Ok(memsim::simulate(result, lp.trip_count, &MemoryParams::default()).total_cycles())
}

/// Schedule quality summed over one deterministic pass. Identical for every
/// run of one seed.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Quality {
    pub items: u64,
    pub not_converged: u64,
    /// Items whose output failed a check.
    pub failed: u64,
    /// ΣII; a loop that did not converge is charged its last II, one that
    /// failed a check the II of its schedule.
    pub sum_ii: u64,
    /// Memory operations per iteration, spill code included (converged).
    pub mem_traffic: u64,
    pub spill_ops: u64,
    pub moves: u64,
    /// `memsim` total cycles at each loop's trip count (converged).
    pub exec_cycles: u64,
    /// Σ (II − MII) over converged items.
    pub ii_gap: u64,
}

impl Quality {
    fn add_converged(&mut self, r: &ScheduleResult, exec_cycles: u64) {
        self.items += 1;
        self.sum_ii += u64::from(r.ii);
        self.mem_traffic += u64::from(r.memory_traffic);
        self.spill_ops += u64::from(r.stats.spill_stores + r.stats.spill_loads);
        self.moves += u64::from(r.moves);
        self.exec_cycles += exec_cycles;
        self.ii_gap += u64::from(r.ii.saturating_sub(r.mii));
    }

    fn add_not_converged(&mut self, last_ii: u32) {
        self.items += 1;
        self.not_converged += 1;
        self.sum_ii += u64::from(last_ii);
    }

    /// An item whose output failed a check is charged the II it was given
    /// (0 when it got none), so that breaking a schedule never lowers ΣII.
    fn add_failed(&mut self, ii: u32) {
        self.items += 1;
        self.failed += 1;
        self.sum_ii += u64::from(ii);
    }

    pub fn merge(&mut self, other: &Quality) {
        self.items += other.items;
        self.not_converged += other.not_converged;
        self.failed += other.failed;
        self.sum_ii += other.sum_ii;
        self.mem_traffic += other.mem_traffic;
        self.spill_ops += other.spill_ops;
        self.moves += other.moves;
        self.exec_cycles += other.exec_cycles;
        self.ii_gap += other.ii_gap;
    }

    fn failed_ratio(&self) -> f64 {
        (self.not_converged + self.failed) as f64 / self.items as f64
    }

    /// The deterministic end-to-end metrics.
    pub fn end_to_end(&self) -> [Metric; 4] {
        [
            metric("sum_ii", self.sum_ii as f64, "count"),
            metric("mem_traffic", self.mem_traffic as f64, "count"),
            metric("exec_mcycles", self.exec_cycles as f64 / 1e6, "Mcycles"),
            metric("converged_ratio", 1.0 - self.failed_ratio(), "ratio"),
        ]
    }

    /// The quality counters that can be zero, reported with the layers.
    pub fn per_layer(&self) -> [Metric; 4] {
        [
            metric("spill_ops", self.spill_ops as f64, "count"),
            metric("moves", self.moves as f64, "count"),
            metric("failed_ratio", self.failed_ratio(), "ratio"),
            metric("core.ii_gap", self.ii_gap as f64, "count"),
        ]
    }
}
