//! Per-layer probes and counters of the traced run.
//!
//! The probes call each layer's public functions on the workload's own
//! loops, keys and results, inside spans under a `probe` root that follows
//! the loop's or request's item span: `ddg` (graph clone, MII, recurrences,
//! HRMS order, loop fingerprint) on every workload; `mirs::snap` (result
//! encode and decode) and `harness::cache` (store and lookup on a probe
//! cache, so the served cache's state and counters stay untouched) only on
//! the service workload, the one whose requests go through those layers.
//! Counters are read from the returned `ScheduleResult`s and `CacheStats`.

use crate::check::{Checks, Quality};
use crate::metrics::{metric, Metric};
use crate::trace::{LayerTime, Tracer, ITEM};
use ddg::Loop;
use harness::{CacheKey, CacheStats, ScheduleCache};
use mirs::{ScheduleResult, SearchStrategyKind};
use std::hint::black_box;
use std::path::Path;
use vliw::MachineConfig;

/// Time the `ddg` layer's per-loop fixed costs on `lp`.
pub fn ddg_probes(
    tr: &mut Tracer,
    item: u32,
    parent: Option<usize>,
    lp: &Loop,
    machine: &MachineConfig,
) {
    let lat = machine.latencies();
    tr.time("ddg.clone", item, parent, || black_box(lp.graph.clone()));
    tr.time("ddg.mii", item, parent, || {
        black_box(ddg::mii::mii(
            &lp.graph,
            lat,
            machine.total_gp_units(),
            machine.total_mem_ports(),
        ))
    });
    tr.time("ddg.recurrences", item, parent, || {
        black_box(ddg::recurrence::recurrences(&lp.graph, lat))
    });
    tr.time("ddg.hrms_order", item, parent, || {
        black_box(ddg::hrms::hrms_order(&lp.graph, lat))
    });
    fingerprint_probe(tr, item, parent, lp);
}

/// Time `ddg::snap::loop_fingerprint`, the cache-key input.
pub fn fingerprint_probe(tr: &mut Tracer, item: u32, parent: Option<usize>, lp: &Loop) {
    tr.time("ddg.fingerprint", item, parent, || {
        black_box(ddg::snap::loop_fingerprint(lp))
    });
}

/// Snapshot round trip and probe-cache store + lookup of one result. Each
/// must hand back the same `schedule_hash`. Returns the encoded size.
#[allow(clippy::too_many_arguments)]
pub fn result_probes(
    tr: &mut Tracer,
    item: u32,
    parent: Option<usize>,
    result: &ScheduleResult,
    cache: &ScheduleCache,
    key: CacheKey,
    strategy: SearchStrategyKind,
    checks: &mut Checks,
) -> usize {
    let hash = result.schedule_hash();
    let blob = tr.time("core.snap.encode", item, parent, || {
        mirs::snap::encode_result(result)
    });
    let decoded = tr.time("core.snap.decode", item, parent, || {
        mirs::snap::decode_result(&blob)
    });
    checks.expect(decoded.map(|d| d.schedule_hash()) == Ok(hash), || {
        format!(
            "{}: snapshot round trip changed the schedule",
            result.loop_name
        )
    });
    tr.time("harness.cache.store", item, parent, || {
        cache.store(key, result)
    });
    let served = tr.time("harness.cache.lookup", item, parent, || {
        cache.lookup(key, strategy)
    });
    checks.expect(served.map(|r| r.schedule_hash()) == Some(hash), || {
        format!(
            "{}: cache lookup did not return the stored schedule",
            result.loop_name
        )
    });
    blob.len()
}

/// Scheduler counters summed over the traced pass's results.
#[derive(Debug, Default, Clone, Copy)]
pub struct CoreCounters {
    pub results: u64,
    pub attempts: u64,
    pub pruned_iis: u64,
    pub relax_s: f64,
    pub restarts: u64,
    pub candidates: u64,
    pub groups: u64,
    pub nodes_picked: u64,
    pub ejections: u64,
    pub forced: u64,
    pub moves_removed: u64,
    pub memo_hits: u64,
    pub memo_misses: u64,
}

impl CoreCounters {
    pub fn add(&mut self, r: &ScheduleResult) {
        self.results += 1;
        self.attempts += u64::from(r.search.attempts);
        self.pruned_iis += u64::from(r.stats.pruned_iis);
        self.relax_s += r.stats.relax_seconds;
        self.restarts += u64::from(r.stats.restarts);
        self.candidates += u64::from(r.search.candidates);
        self.groups += u64::from(r.search.groups);
        self.nodes_picked += r.stats.attempts;
        self.ejections += r.stats.ejections;
        self.forced += r.stats.forced;
        self.moves_removed += r.stats.moves_removed;
        self.memo_hits += r.stats.spill_memo_hits;
        self.memo_misses += r.stats.spill_memo_misses;
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Everything the traced run reports, gathered by the workload.
#[derive(Debug, Default)]
pub struct LayerReport {
    pub core: CoreCounters,
    /// Scheduling calls and their seconds. Benchmark spans on the
    /// scheduling workloads; the library's `scheduling_seconds` of fresh
    /// outcomes on the service workload, where the call is inside `serve`.
    pub sched_calls: u64,
    pub sched_s: f64,
    /// Traced over untraced time of the same calls, each at its second
    /// fastest calibrated pass.
    pub overhead_ratio: f64,
    pub quality: Quality,
    pub snap_bytes: u64,
    pub snap_results: u64,
    pub cache: CacheStats,
    pub cache_bytes: u64,
    pub shared: u64,
    /// Σ over `serve` calls of the span minus the fresh outcomes'
    /// `scheduling_seconds`.
    pub serve_overhead_s: f64,
}

impl LayerReport {
    /// Take the served cache's counters and its bytes on disk.
    pub fn set_cache(&mut self, cache: &ScheduleCache) {
        self.cache = cache.stats();
        self.cache_bytes = cache.dir().map_or(0, dir_bytes);
    }

    pub fn metrics(&self, tr: &Tracer) -> Vec<Metric> {
        let layers = tr.layers();
        let us = |name: &str| layers.get(name).copied().unwrap_or_default().mean_self_us();
        let c = &self.core;
        let cache = &self.cache;
        let serve_calls = layers.get("harness.service.serve").map_or(0, |l| l.calls);
        let items_s = layers.get(ITEM).map_or(0, |l| l.total_ns) as f64 / 1e9;
        let mut out = vec![
            metric("loopgen.generate_ms", us("loopgen.generate") / 1e3, "ms"),
            metric("ddg.clone_us", us("ddg.clone"), "us"),
            metric("ddg.mii_us", us("ddg.mii"), "us"),
            metric("ddg.recurrences_us", us("ddg.recurrences"), "us"),
            metric("ddg.hrms_order_us", us("ddg.hrms_order"), "us"),
            metric("ddg.fingerprint_us", us("ddg.fingerprint"), "us"),
            metric(
                "core.schedule_ms",
                ratio(self.sched_s, self.sched_calls as f64) * 1e3,
                "ms",
            ),
            metric("core.schedule_share", ratio(self.sched_s, items_s), "ratio"),
            metric("core.search.attempts", c.attempts as f64, "count"),
            metric("core.search.pruned_iis", c.pruned_iis as f64, "count"),
            metric("core.search.relax_ms", c.relax_s * 1e3, "ms"),
            metric("core.restarts", c.restarts as f64, "count"),
            metric(
                "core.search.accept_ratio",
                ratio(c.results as f64, c.attempts as f64),
                "ratio",
            ),
            metric("core.search.candidates", c.candidates as f64, "count"),
            metric("core.search.groups", c.groups as f64, "count"),
            metric("core.nodes_picked", c.nodes_picked as f64, "count"),
            metric("core.ejections", c.ejections as f64, "count"),
            metric("core.forced", c.forced as f64, "count"),
            metric("core.moves_removed", c.moves_removed as f64, "count"),
            metric(
                "core.spill.memo_hit_ratio",
                ratio(c.memo_hits as f64, (c.memo_hits + c.memo_misses) as f64),
                "ratio",
            ),
            metric("core.snap.encode_us", us("core.snap.encode"), "us"),
            metric("core.snap.decode_us", us("core.snap.decode"), "us"),
            metric(
                "core.snap.bytes",
                ratio(self.snap_bytes as f64, self.snap_results as f64),
                "bytes",
            ),
            metric(
                "harness.service.serve_us",
                us("harness.service.serve"),
                "us",
            ),
            metric(
                "harness.service.overhead_us",
                ratio(self.serve_overhead_s, serve_calls as f64) * 1e6,
                "us",
            ),
            metric("harness.service.shared", self.shared as f64, "count"),
            metric("harness.cache.lookup_us", us("harness.cache.lookup"), "us"),
            metric("harness.cache.store_us", us("harness.cache.store"), "us"),
            metric("harness.cache.hits", cache.hits as f64, "count"),
            metric("harness.cache.misses", cache.misses as f64, "count"),
            metric("harness.cache.inserts", cache.inserts as f64, "count"),
            metric("harness.cache.refines", cache.refines as f64, "count"),
            metric("harness.cache.corrupt", cache.corrupt as f64, "count"),
            metric(
                "harness.cache.hit_ratio",
                ratio(cache.hits as f64, (cache.hits + cache.misses) as f64),
                "ratio",
            ),
            metric("harness.cache.bytes", self.cache_bytes as f64, "bytes"),
            metric("trace.overhead_ratio", self.overhead_ratio, "ratio"),
        ];
        out.extend(self.quality.per_layer());
        out
    }
}

/// Per-layer table of the traced run, for people: calls, total and self
/// time, and self time's share of the item spans. The workload's own
/// calls come first; the set-up and the probes follow, without a share,
/// since they are not part of the item spans.
pub fn table(tr: &Tracer) -> String {
    let layers = tr.layers();
    let items_s = layers.get(ITEM).map_or(0, |l| l.total_ns) as f64 / 1e9;
    let mut rows: Vec<(&&str, &LayerTime)> = layers.iter().collect();
    rows.sort_by_key(|(_, l)| (!l.in_item, std::cmp::Reverse(l.self_ns)));
    let mut out = format!(
        "{:<22} {:>9} {:>12} {:>12} {:>12} {:>7}\n",
        "span", "calls", "total ms", "self ms", "self us/call", "share"
    );
    for (name, l) in rows {
        let share = if l.in_item {
            format!("{:.1}%", 100.0 * ratio(l.self_ns as f64 / 1e9, items_s))
        } else {
            "-".to_string()
        };
        out += &format!(
            "{:<22} {:>9} {:>12.3} {:>12.3} {:>12.3} {:>7}\n",
            name,
            l.calls,
            l.total_ns as f64 / 1e6,
            l.self_ns as f64 / 1e6,
            l.mean_self_us(),
            share
        );
    }
    out
}

/// Bytes of the regular files directly inside `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .filter(std::fs::Metadata::is_file)
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}
