//! The scheduling workloads: seeded workbench loops scheduled one by one
//! with `MirsScheduler::schedule_with` on one `SchedScratch`.

use crate::check::{check_outcome, Checks, Quality};
use crate::layers::{ddg_probes, CoreCounters, LayerReport};
use crate::metrics::{median, metric, passes, Timings, CALIBRATE_EVERY_S};
use crate::trace::{Tracer, ITEM, PROBE};
use crate::{inputs, Args, Outcome};
use mirs::{
    MirsScheduler, SchedScratch, ScheduleError, ScheduleResult, SchedulerOptions, SearchConfig,
    SearchStrategyKind,
};
use std::time::Instant;
use vliw::MachineConfig;

/// One scheduling workload.
pub struct SchedWorkload {
    pub clusters: u32,
    pub registers: u32,
    /// Loops per pass: at least 1000, so that ten lie above p99.
    pub loops: usize,
    /// Nominal seconds of one pass on the reference machine.
    pub pass_s: f64,
    /// Every loop is scheduled under each strategy, in this order.
    pub strategies: &'static [SearchStrategyKind],
    pub max_ii: u32,
    /// Loops of the calibration (see `metrics::Timings`), each scheduled
    /// under every strategy.
    pub calibration_loops: usize,
}

impl SchedWorkload {
    pub fn options(&self, strategy: SearchStrategyKind) -> SchedulerOptions {
        SchedulerOptions {
            max_ii: self.max_ii,
            search: SearchConfig::for_strategy(strategy).with_branch_jobs(1),
            ..SchedulerOptions::default()
        }
    }

    fn machine(&self) -> MachineConfig {
        MachineConfig::paper_config(self.clusters, self.registers).expect("paper configuration")
    }
}

/// `4-(GP2M1-REG16)`: cluster selection, moves, spilling, backtracking.
pub const CLUSTERED: SchedWorkload = SchedWorkload {
    clusters: 4,
    registers: 16,
    loops: 1000,
    pass_s: 5.5,
    strategies: &[SearchStrategyKind::Linear, SearchStrategyKind::Backtracking],
    max_ii: 1024,
    calibration_loops: 4,
};

/// `1-(GP8M4-REG16)`: spilling, II-climb restarts and the admission
/// filter. About 1% of these loops need more than 16 registers at any II
/// and climb to `max_ii` at about 1.5 ms per II: with the default 1024 each
/// costs 150-200 ms, so that those few loops would take most of a pass and
/// set `loop_p99_ms` alone. At 32, a loop that climbs that far costs about
/// as much as the converged tail, and the loops that reach it are reported
/// not converged, as a compiler would leave them unpipelined.
pub const REGTIGHT: SchedWorkload = SchedWorkload {
    clusters: 1,
    registers: 16,
    loops: 1000,
    pass_s: 2.5,
    strategies: &[SearchStrategyKind::Linear],
    max_ii: 32,
    calibration_loops: 8,
};

/// Loops scheduled untimed before the first pass.
const WARMUP_LOOPS: usize = 16;
/// (untraced pass, traced pass) pairs of a traced run.
const TRACE_ROUNDS: usize = 2;

/// What one scheduling call produced, for comparing repeats.
#[derive(Debug, Clone, PartialEq)]
enum Verdict {
    Scheduled(u64),
    NotConverged(u32),
    Failed,
}

fn verdict(r: &Result<ScheduleResult, ScheduleError>) -> Verdict {
    match r {
        Ok(res) => Verdict::Scheduled(res.schedule_hash()),
        Err(ScheduleError::NotConverged { last_ii, .. }) => Verdict::NotConverged(*last_ii),
        Err(_) => Verdict::Failed,
    }
}

struct Bench<'w> {
    machine: &'w MachineConfig,
    loops: &'w [ddg::Loop],
    calibration: &'w [ddg::Loop],
    /// One scheduler per strategy, in scheduling order.
    scheds: Vec<MirsScheduler<'w>>,
    scratch: SchedScratch,
    checks: Checks,
    /// The first pass's verdict of every (loop, strategy) call, in
    /// scheduling order; later passes must match.
    reference: Vec<Verdict>,
    quality: Quality,
}

impl Bench<'_> {
    fn schedule(&mut self, li: usize, si: usize) -> Result<ScheduleResult, ScheduleError> {
        self.scheds[si].schedule_with(&self.loops[li], &mut self.scratch)
    }

    /// Check the output of loop `li` under strategy `si`. The first pass
    /// validates it and sums it into the quality metrics; later passes
    /// compare it with the first.
    fn check(&mut self, li: usize, si: usize, r: &Result<ScheduleResult, ScheduleError>) {
        let lp = &self.loops[li];
        let v = verdict(r);
        if let Some(first) = self.reference.get(li * self.scheds.len() + si) {
            self.checks.expect(v == *first, || {
                format!("{}: a repeat gave {v:?}, the first pass {first:?}", lp.name)
            });
            return;
        }
        let q = check_outcome(lp, r, self.machine, &mut self.checks);
        self.quality.merge(&q);
        self.reference.push(v);
    }

    /// Time the calibration: its loops under every strategy, unchecked.
    fn calibrate(&mut self, timings: &mut Timings) {
        let started = Instant::now();
        for lp in self.calibration {
            for sched in &self.scheds {
                let _ = sched.schedule_with(lp, &mut self.scratch);
            }
        }
        timings.calibrated(started, started.elapsed().as_secs_f64());
    }

    /// One pass. A loop's latency is the time of its scheduling calls, one
    /// per strategy; each call's output is checked after it returns. The
    /// calibration runs between loops whenever it is due, and at the end.
    fn pass(&mut self, timings: &mut Timings) {
        for li in 0..self.loops.len() {
            if timings.calibration_due() {
                self.calibrate(timings);
            }
            let started = Instant::now();
            let mut took = 0.0;
            for si in 0..self.scheds.len() {
                let t = Instant::now();
                let r = self.schedule(li, si);
                took += t.elapsed().as_secs_f64();
                self.check(li, si, &r);
            }
            timings.record(li, started, took);
        }
        self.calibrate(timings);
        timings.end_pass();
    }

    /// One pass with every loop's scheduling calls inside an item span.
    /// The `ddg` probes of each loop run after its item span closes, inside
    /// a `probe` span of their own, so that item spans hold only the
    /// workload's calls. The report's counters describe this pass alone.
    fn traced_pass(&mut self, tr: &mut Tracer, timings: &mut Timings, report: &mut LayerReport) {
        let mut core = CoreCounters::default();
        for li in 0..self.loops.len() {
            if timings.calibration_due() {
                self.calibrate(timings);
            }
            let lp = &self.loops[li];
            let id = li as u32;
            let started = Instant::now();
            let item = tr.open(ITEM, id, None);
            let mut results = Vec::with_capacity(self.scheds.len());
            for si in 0..self.scheds.len() {
                let t = Instant::now();
                let r = tr.time("core.schedule", id, item, || {
                    self.scheds[si].schedule_with(lp, &mut self.scratch)
                });
                report.sched_s += t.elapsed().as_secs_f64();
                report.sched_calls += 1;
                results.push(r);
            }
            tr.close(item);
            timings.record(li, started, tr.span_s(item));
            let probe = tr.open(PROBE, id, None);
            ddg_probes(tr, id, probe, lp, self.machine);
            tr.close(probe);
            for (si, r) in results.iter().enumerate() {
                if let Ok(res) = r {
                    core.add(res);
                }
                self.check(li, si, r);
            }
        }
        self.calibrate(timings);
        timings.end_pass();
        report.core = core;
    }
}

/// Header lines: the effective options of every strategy.
pub fn describe(w: &SchedWorkload) -> Vec<String> {
    let mut out = vec![format!(
        "machine: {}  loops per pass: {}  closed loop, 1 client, 1 thread, one SchedScratch",
        w.machine().name(),
        w.loops
    )];
    for &s in w.strategies {
        out.push(format!("options[{s}]: {:?}", w.options(s)));
    }
    out.push(format!(
        "calibration: {} workbench loops under every strategy, every {CALIBRATE_EVERY_S} s",
        w.calibration_loops
    ));
    out
}

/// The workload's loops, the calibration's loops and the machine, with the
/// seconds it took to generate and build them.
struct SetUp {
    loops: Vec<ddg::Loop>,
    calibration: Vec<ddg::Loop>,
    machine: MachineConfig,
    seconds: f64,
}

fn set_up(w: &SchedWorkload, seed: u64, tr: &mut Tracer, rep: u32) -> SetUp {
    let t = Instant::now();
    let (loops, calibration) = tr.time("loopgen.generate", rep, None, || {
        inputs::loops(w.loops, w.calibration_loops, seed)
    });
    let machine = w.machine();
    SetUp {
        loops,
        calibration,
        machine,
        seconds: t.elapsed().as_secs_f64(),
    }
}

/// Run the workload. The set-up is repeated after every untraced pass, so
/// that `setup_s`, the median, samples the machine seconds apart as the
/// passes do.
pub fn run(w: &SchedWorkload, args: &Args) -> Outcome {
    let mut tr = Tracer::new(args.trace);
    let SetUp {
        loops,
        calibration,
        machine,
        seconds: first,
    } = set_up(w, args.seed, &mut tr, 0);
    let mut setup = vec![first];
    let scheds: Vec<MirsScheduler<'_>> = w
        .strategies
        .iter()
        .map(|&s| MirsScheduler::new(&machine, w.options(s)))
        .collect();
    let mut b = Bench {
        machine: &machine,
        loops: &loops,
        calibration: &calibration,
        scheds,
        scratch: SchedScratch::new(),
        checks: Checks::default(),
        reference: Vec::with_capacity(loops.len() * w.strategies.len()),
        quality: Quality::default(),
    };
    for li in 0..WARMUP_LOOPS.min(loops.len()) {
        for si in 0..w.strategies.len() {
            let _ = b.schedule(li, si);
        }
    }
    let mut untraced = Timings::new(loops.len());
    if !args.trace {
        for rep in 1..=passes(args.seconds, w.pass_s) {
            b.pass(&mut untraced);
            setup.push(set_up(w, args.seed, &mut tr, rep as u32).seconds);
        }
        let mut metrics = untraced.metrics().to_vec();
        metrics.push(metric("setup_s", median(&mut setup), "s"));
        metrics.push(metric("peak_rss_mb", crate::metrics::peak_rss_mb(), "MiB"));
        metrics.extend(b.quality.end_to_end());
        return Outcome {
            attempted: untraced.attempted(),
            failed: b.checks.failed(),
            metrics,
            tracer: None,
            notes: vec![shares(&b.quality, w)],
        };
    }
    let mut traced = Timings::new(loops.len());
    let mut report = LayerReport::default();
    for rep in 1..=TRACE_ROUNDS {
        b.pass(&mut untraced);
        set_up(w, args.seed, &mut tr, rep as u32);
        b.traced_pass(&mut tr, &mut traced, &mut report);
    }
    report.quality = b.quality;
    report.overhead_ratio = traced.best_s() / untraced.best_s();
    let loops_scheduled = b.quality.items as f64;
    let notes = vec![
        shares(&b.quality, w),
        format!(
            "per scheduling call: pruned IIs {:.3}, restarts {:.3}",
            report.core.pruned_iis as f64 / loops_scheduled,
            report.core.restarts as f64 / loops_scheduled
        ),
    ];
    Outcome {
        attempted: untraced.attempted() + traced.attempted(),
        failed: b.checks.failed(),
        metrics: report.metrics(&tr),
        tracer: Some(tr),
        notes,
    }
}

/// The workload's measured properties, per scheduling call.
fn shares(q: &Quality, w: &SchedWorkload) -> String {
    let n = q.items as f64;
    format!(
        "per scheduling call ({} loops x {} strategies): spill ops {:.3}, moves {:.3}, not converged {} ({:.2}%), failed checks {}",
        w.loops,
        w.strategies.len(),
        q.spill_ops as f64 / n,
        q.moves as f64 / n,
        q.not_converged,
        100.0 * q.not_converged as f64 / n,
        q.failed
    )
}
