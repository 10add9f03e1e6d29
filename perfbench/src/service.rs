//! The service workload: the workbench sent through
//! `harness::ScheduleService` over a fresh on-disk cache, pass after pass,
//! one request per call.

use crate::check::{check_outcome, Checks, Quality};
use crate::layers::{ddg_probes, fingerprint_probe, result_probes, CoreCounters, LayerReport};
use crate::metrics::{median, metric, passes, Timings, CALIBRATE_EVERY_S};
use crate::trace::{Tracer, ITEM, PROBE};
use crate::{inputs, Args, Outcome, ScratchDir};
use ddg::Loop;
use harness::{Provenance, ScheduleCache, ScheduleRequest, ScheduleService, SweepExecutor};
use loopgen::WorkbenchParams;
use mirs::{
    MirsScheduler, SchedScratch, ScheduleResult, SchedulerOptions, SearchConfig, SearchStrategyKind,
};
use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;
use vliw::MachineConfig;

const CLUSTERS: u32 = 1;
const REGISTERS: u32 = 64;
/// The passes of one round over the workbench, after the repository's own
/// callers of the service. `mirsd` sends the whole workbench cold and then
/// again warm (the CI cache gate: every warm request a hit). The CI tier
/// ladder then refines the entries with a stronger strategy, sends that
/// strategy again warm, and finally sends the weaker strategy, which the
/// refined entries answer.
const LADDER: [SearchStrategyKind; 5] = [
    SearchStrategyKind::Linear,
    SearchStrategyKind::Linear,
    SearchStrategyKind::Backtracking,
    SearchStrategyKind::Backtracking,
    SearchStrategyKind::Linear,
];
/// Nominal seconds of one round on the reference machine. The untimed
/// misses take most of it, and their file creation slows down over
/// back-to-back runs, so rounds are few: the timed hits need only one fast
/// moment per run (see `metrics::Timings`).
const ROUND_S: f64 = 4.0;
/// Loops of the calibration (see `metrics::Timings`): their linear
/// requests, answered from a cache of their own filled before the first
/// round, so every calibration request is a hit like the timed requests.
const CALIBRATION_LOOPS: usize = 128;
/// (untraced round, traced round) pairs of a traced run.
const TRACE_ROUNDS: usize = 2;

/// One request of the stream: a loop index and a strategy.
type Request = (usize, SearchStrategyKind);

fn search(strategy: SearchStrategyKind) -> SearchConfig {
    SearchConfig::for_strategy(strategy).with_branch_jobs(1)
}

/// The options `ScheduleService` schedules a miss with.
fn options(strategy: SearchStrategyKind) -> SchedulerOptions {
    SchedulerOptions::default().with_search(search(strategy))
}

fn machine() -> MachineConfig {
    MachineConfig::paper_config(CLUSTERS, REGISTERS).expect("paper configuration")
}

pub fn describe() -> Vec<String> {
    let ladder: Vec<String> = LADDER.iter().map(ToString::to_string).collect();
    let mut out = vec![format!(
        "machine: {}  loops: {}  passes per round: {}  one request per call, closed loop, 1 client, 1 worker",
        machine().name(),
        WorkbenchParams::paper_scale().loops,
        ladder.join(", ")
    )];
    for s in [SearchStrategyKind::Linear, SearchStrategyKind::Backtracking] {
        out.push(format!("options[{s}]: {:?}", options(s)));
    }
    out.push(format!(
        "timed: cache hits; calibration: {CALIBRATION_LOOPS} workbench loops' linear requests, all hits, every {CALIBRATE_EVERY_S} s"
    ));
    out
}

/// Every pass of [`LADDER`] over the loops, in their (seeded) order.
fn stream(loops: &[Loop]) -> Vec<Request> {
    LADDER
        .iter()
        .flat_map(|&s| (0..loops.len()).map(move |li| (li, s)))
        .collect()
}

/// What a response must carry: the outcome of scheduling its loop directly
/// with the strategy that produced it.
struct Expected {
    hash: Option<u64>,
    quality: Quality,
}

/// What one round produced; every round of a run must produce the same.
/// The quality sums count each distinct schedule handed out once, so that
/// a schedule served from the cache is not counted again.
#[derive(Debug, PartialEq)]
struct Round {
    provenance: Vec<Provenance>,
    quality: Quality,
    stats: harness::CacheStats,
}

struct Bench<'w> {
    machine: &'w MachineConfig,
    loops: &'w [Loop],
    calibration: &'w [Loop],
    calibration_cache: ScheduleCache,
    requests: Vec<Request>,
    /// Keyed by loop index and strategy tier.
    expected: BTreeMap<(usize, u8), Expected>,
    exec: SweepExecutor,
    checks: Checks,
    first: Option<Round>,
}

impl Bench<'_> {
    /// Schedule every distinct (loop, strategy) of the stream directly and
    /// check it: the reference the served responses must match.
    fn reference(&mut self) {
        let mut scratch = SchedScratch::new();
        let mut wanted = self.requests.clone();
        wanted.sort_by_key(|&(li, s)| (li, s.tier()));
        wanted.dedup();
        for (li, s) in wanted {
            let lp = &self.loops[li];
            let r = MirsScheduler::new(self.machine, options(s)).schedule_with(lp, &mut scratch);
            let quality = check_outcome(lp, &r, self.machine, &mut self.checks);
            let hash = r.as_ref().ok().map(ScheduleResult::schedule_hash);
            self.expected
                .insert((li, s.tier()), Expected { hash, quality });
        }
    }

    /// Serve the calibration's requests: misses that fill its cache the
    /// first time, hits after that. Returns how many hit.
    fn serve_calibration(&self) -> u64 {
        let before = self.calibration_cache.stats().hits;
        let service = ScheduleService::new(&self.calibration_cache, &self.exec);
        for lp in self.calibration {
            let request = [ScheduleRequest::mirs(lp, self.machine, search(LADDER[0]))];
            let _ = service.serve(&request);
        }
        self.calibration_cache.stats().hits - before
    }

    /// Time the calibration; returns whether every request of it hit.
    fn calibrate(&self, timings: &mut Timings) -> bool {
        let started = Instant::now();
        let hits = self.serve_calibration();
        timings.calibrated(started, started.elapsed().as_secs_f64());
        hits == self.calibration.len() as u64
    }

    /// Serve the whole stream once over a fresh cache, one request per
    /// call. Every response must carry the reference schedule of the
    /// strategy that produced it, at a tier no lower than the one asked
    /// for, and the round must repeat the first round exactly. A traced
    /// round puts each call in an item span, runs the layer probes after
    /// it in a `probe` span, and fills the report's counters.
    fn round(
        &mut self,
        tmp: &ScratchDir,
        timings: &mut Timings,
        mut traced: Option<(&mut Tracer, &mut LayerReport)>,
    ) {
        let cache = ScheduleCache::at(tmp.fresh("cache"));
        let probe_cache = traced
            .is_some()
            .then(|| ScheduleCache::at(tmp.fresh("probe")));
        let service = ScheduleService::new(&cache, &self.exec);
        let mut provenance = Vec::with_capacity(self.requests.len());
        // Distinct schedules handed out, keyed like `expected`.
        let mut handed_out = BTreeSet::new();
        let (mut core, mut shared, mut snap_bytes, mut snap_results) =
            (CoreCounters::default(), 0, 0, 0);
        for (ri, &(li, asked)) in self.requests.iter().enumerate() {
            if timings.calibration_due() && !self.calibrate(timings) {
                self.checks.fail("a calibration request missed the cache");
            }
            let id = ri as u32;
            let lp = &self.loops[li];
            let request = [ScheduleRequest::mirs(lp, self.machine, search(asked))];
            let (item, serve) = match traced.as_mut() {
                Some((tr, _)) => {
                    let item = tr.open(ITEM, id, None);
                    (item, tr.open("harness.service.serve", id, item))
                }
                None => (None, None),
            };
            let started = Instant::now();
            let mut responses = service.serve(&request);
            let took = started.elapsed().as_secs_f64();
            let resp = responses.pop().expect("one response per request");
            let hit = resp.provenance == Provenance::Hit;
            provenance.push(resp.provenance);
            let served = resp.outcome.result.as_ref();
            let by = served.map_or(asked, |r| r.search.strategy);
            self.checks.expect(by.tier() >= asked.tier(), || {
                format!("{}: asked for {asked}, served {by}", lp.name)
            });
            match self.expected.get(&(li, by.tier())) {
                Some(exp) => {
                    self.checks
                        .expect(served.map(|r| r.schedule_hash()) == exp.hash, || {
                            format!(
                                "{}: a {} response differs from scheduling the loop directly",
                                lp.name,
                                resp.provenance.label()
                            )
                        });
                    handed_out.insert((li, by.tier()));
                }
                None => self
                    .checks
                    .fail(format!("{}: served by {by}, which it never asked", lp.name)),
            }
            shared += u64::from(resp.provenance == Provenance::Shared);
            let fresh = resp.provenance == Provenance::Fresh;
            let fresh_s = if fresh {
                resp.outcome.scheduling_seconds
            } else {
                0.0
            };
            let Some((tr, report)) = traced.as_mut() else {
                if hit {
                    timings.record(ri, started, took);
                }
                continue;
            };
            tr.close(serve);
            tr.close(item);
            if hit {
                timings.record(ri, started, tr.span_s(item));
            }
            report.serve_overhead_s += tr.span_s(serve) - fresh_s;
            let probe = tr.open(PROBE, id, None);
            match (served, probe_cache.as_ref()) {
                (Some(res), Some(pc)) if fresh => {
                    core.add(res);
                    report.sched_calls += 1;
                    report.sched_s += fresh_s;
                    ddg_probes(tr, id, probe, lp, self.machine);
                    snap_bytes +=
                        result_probes(tr, id, probe, res, pc, resp.key, asked, &mut self.checks)
                            as u64;
                    snap_results += 1;
                }
                _ => fingerprint_probe(tr, id, probe, lp),
            }
            tr.close(probe);
        }
        if !self.calibrate(timings) {
            self.checks.fail("a calibration request missed the cache");
        }
        timings.end_pass();
        let mut quality = Quality::default();
        for key in &handed_out {
            quality.merge(&self.expected[key].quality);
        }
        let round = Round {
            provenance,
            quality,
            stats: cache.stats(),
        };
        self.checks.expect(round.stats.corrupt == 0, || {
            format!("the cache reported {} corrupt entries", round.stats.corrupt)
        });
        if let Some((_, report)) = traced {
            report.core = core;
            report.shared = shared;
            report.snap_bytes = snap_bytes;
            report.snap_results = snap_results;
            report.set_cache(&cache);
        }
        // The round's cache directory stays until the run ends: deleting
        // thousands of entries between rounds would load the disk while
        // the next round is timed.
        match &self.first {
            Some(first) => self.checks.expect(round == *first, || {
                "a round answered differently from the first round".into()
            }),
            None => self.first = Some(round),
        }
    }
}

/// The workload's loops, the calibration's loops, the request stream and
/// the machine, with the seconds it took to generate and build them and to
/// create a cache directory.
struct SetUp {
    loops: Vec<Loop>,
    calibration: Vec<Loop>,
    requests: Vec<Request>,
    machine: MachineConfig,
    seconds: f64,
}

fn set_up(seed: u64, tr: &mut Tracer, rep: u32, tmp: &ScratchDir) -> SetUp {
    let t = Instant::now();
    let (loops, calibration) = tr.time("loopgen.generate", rep, None, || {
        inputs::loops(
            WorkbenchParams::paper_scale().loops,
            CALIBRATION_LOOPS,
            seed,
        )
    });
    let requests = stream(&loops);
    let machine = machine();
    let dir = tmp.fresh("cache");
    let cache = ScheduleCache::at(&dir);
    let seconds = t.elapsed().as_secs_f64();
    drop(cache);
    let _ = std::fs::remove_dir_all(&dir);
    SetUp {
        loops,
        calibration,
        requests,
        machine,
        seconds,
    }
}

/// Run the workload. The set-up is repeated after every untraced round, so
/// that `setup_s`, the median, samples the machine seconds apart as the
/// rounds do.
pub fn run(args: &Args, tmp: &ScratchDir) -> Outcome {
    let mut tr = Tracer::new(args.trace);
    let SetUp {
        loops,
        calibration,
        requests,
        machine,
        seconds: first,
    } = set_up(args.seed, &mut tr, 0, tmp);
    let mut setup = vec![first];
    let calls = requests.len();
    let mut b = Bench {
        machine: &machine,
        loops: &loops,
        calibration: &calibration,
        calibration_cache: ScheduleCache::at(tmp.fresh("calibration")),
        requests,
        expected: BTreeMap::new(),
        exec: SweepExecutor::new(1),
        checks: Checks::default(),
        first: None,
    };
    b.reference();
    b.serve_calibration();
    let mut untraced = Timings::new(calls);
    if !args.trace {
        for rep in 1..=passes(args.seconds, ROUND_S) {
            b.round(tmp, &mut untraced, None);
            setup.push(set_up(args.seed, &mut tr, rep as u32, tmp).seconds);
        }
        let first = b.first.as_ref().expect("one round");
        let mut metrics = untraced.metrics().to_vec();
        metrics.push(metric("setup_s", median(&mut setup), "s"));
        metrics.push(metric("peak_rss_mb", crate::metrics::peak_rss_mb(), "MiB"));
        metrics.extend(first.quality.end_to_end());
        return Outcome {
            attempted: untraced.passes() * calls as u64,
            failed: b.checks.failed(),
            metrics,
            tracer: None,
            notes: vec![shares(first)],
        };
    }
    let mut traced = Timings::new(calls);
    let mut report = LayerReport::default();
    for rep in 1..=TRACE_ROUNDS {
        b.round(tmp, &mut untraced, None);
        set_up(args.seed, &mut tr, rep as u32, tmp);
        b.round(tmp, &mut traced, Some((&mut tr, &mut report)));
    }
    let first = b.first.as_ref().expect("one round");
    report.quality = first.quality;
    report.overhead_ratio = traced.best_s() / untraced.best_s();
    Outcome {
        attempted: (untraced.passes() + traced.passes()) * calls as u64,
        failed: b.checks.failed(),
        metrics: report.metrics(&tr),
        notes: vec![shares(first)],
        tracer: Some(tr),
    }
}

/// The round's cache behaviour, as shares of its requests.
fn shares(r: &Round) -> String {
    let n = r.provenance.len() as f64;
    let count = |p: Provenance| r.provenance.iter().filter(|&&x| x == p).count() as f64 / n;
    format!(
        "per round ({} requests): hit {:.3}, fresh {:.3}, shared {:.4}, inserts {:.4}, refines {:.4}",
        r.provenance.len(),
        count(Provenance::Hit),
        count(Provenance::Fresh),
        count(Provenance::Shared),
        r.stats.inserts as f64 / n,
        r.stats.refines as f64 / n
    )
}
