//! Metric values, latency statistics and the result line.

use std::time::Instant;

/// One named metric with its unit.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Nearest-rank percentile of an ascending slice (`p` in `[0, 100]`).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of the values (sorts them).
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    percentile(values, 50.0)
}

/// Passes a run makes, at least.
pub const MIN_PASSES: usize = 3;

/// Passes a run of `seconds` makes over inputs sized so that one pass takes
/// about `pass_s` on the reference machine. The count does not depend on
/// how fast the program runs, so a faster program is not also sampled more
/// often.
pub fn passes(seconds: u64, pass_s: f64) -> usize {
    ((seconds as f64 / pass_s).round() as usize).max(MIN_PASSES)
}

/// Calibrations averaged for the host's fastest speed in a run.
const FASTEST_CALIBRATIONS: usize = 3;
/// Seconds between calibrations.
pub const CALIBRATE_EVERY_S: f64 = 0.25;

/// One timed call.
#[derive(Debug, Clone, Copy)]
struct Sample {
    call: usize,
    /// Midpoint of the call, seconds since the run started.
    at: f64,
    seconds: f64,
}

/// Latency of every timed call over repeated passes of the same inputs;
/// each call answers one loop or request.
///
/// The host's speed drifts by up to 2x for seconds to minutes at a time,
/// and the drift only ever slows a call down. So a fixed unit of work, the
/// calibration, is timed between the calls every [`CALIBRATE_EVERY_S`]: its
/// time at a given moment over its fastest time in the run is the host's
/// slowdown at that moment. Each call's time is divided by the slowdown at
/// its midpoint (interpolated between the calibrations around it), and each
/// call counts at the second fastest of these corrected times over its
/// passes: its time at the fastest host speed of the run. That needs one
/// fast moment anywhere in the run, not one per call. A correction is a
/// measurement too, and the fastest corrected time is the one most likely
/// to be over-corrected, hence the second fastest. The calibration runs the
/// same program as the calls, so a change to the program moves the
/// calibration's times and their fastest alike, and the slowdown stays the
/// host's. Without calibrations, the raw times count.
///
/// Calls that are never recorded (the service's misses) are left out.
#[derive(Debug)]
pub struct Timings {
    start: Instant,
    calls: usize,
    passes: u64,
    samples: Vec<Sample>,
    /// (midpoint, seconds) of each calibration, in time order.
    calibrations: Vec<(f64, f64)>,
    /// When the last calibration ended.
    calibrated_at: Option<Instant>,
}

impl Timings {
    pub fn new(calls: usize) -> Self {
        Self {
            start: Instant::now(),
            calls,
            passes: 0,
            samples: Vec::new(),
            calibrations: Vec::new(),
            calibrated_at: None,
        }
    }

    fn midpoint(&self, started: Instant, seconds: f64) -> f64 {
        started.duration_since(self.start).as_secs_f64() + seconds / 2.0
    }

    /// A call that started at `started` and took `seconds`.
    pub fn record(&mut self, call: usize, started: Instant, seconds: f64) {
        let at = self.midpoint(started, seconds);
        self.samples.push(Sample { call, at, seconds });
    }

    /// Whether the next calibration is due: none yet, or the last one
    /// ended [`CALIBRATE_EVERY_S`] ago.
    pub fn calibration_due(&self) -> bool {
        self.calibrated_at
            .is_none_or(|t| t.elapsed().as_secs_f64() >= CALIBRATE_EVERY_S)
    }

    /// A calibration that started at `started` and took `seconds`.
    pub fn calibrated(&mut self, started: Instant, seconds: f64) {
        let at = self.midpoint(started, seconds);
        self.calibrations.push((at, seconds));
        self.calibrated_at = Some(Instant::now());
    }

    pub fn end_pass(&mut self) {
        self.passes += 1;
    }

    pub fn passes(&self) -> u64 {
        self.passes
    }

    /// Timed calls over all passes.
    pub fn attempted(&self) -> u64 {
        self.samples.len() as u64
    }

    /// Mean of the fastest few calibrations, or `None` without any.
    fn fastest_calibration(&self) -> Option<f64> {
        let mut times: Vec<f64> = self.calibrations.iter().map(|&(_, s)| s).collect();
        times.sort_by(f64::total_cmp);
        let n = FASTEST_CALIBRATIONS.min(times.len());
        (n > 0).then(|| times[..n].iter().sum::<f64>() / n as f64)
    }

    /// The calibration time at `at`, interpolated between the calibrations
    /// around it (the nearest one outside their span).
    fn calibration_at(&self, at: f64) -> f64 {
        let cal = &self.calibrations;
        let after = cal.partition_point(|&(t, _)| t <= at);
        match (after.checked_sub(1).map(|i| cal[i]), cal.get(after)) {
            (Some((t0, s0)), Some(&(t1, s1))) => s0 + (s1 - s0) * (at - t0) / (t1 - t0),
            (Some((_, s)), None) | (None, Some(&(_, s))) => s,
            (None, None) => unreachable!("no calibrations"),
        }
    }

    /// The second fastest corrected time of every recorded call (the
    /// fastest, if it was timed once), in seconds: its time over the host's
    /// slowdown at its midpoint.
    fn best(&self) -> Vec<f64> {
        let fastest = self.fastest_calibration();
        // Per call, its two fastest corrected times so far.
        let mut two = vec![[f64::INFINITY; 2]; self.calls];
        for s in &self.samples {
            let slowdown = fastest.map_or(1.0, |f| self.calibration_at(s.at) / f);
            let t = s.seconds / slowdown;
            let [first, second] = &mut two[s.call];
            if t < *first {
                *second = *first;
                *first = t;
            } else if t < *second {
                *second = t;
            }
        }
        two.iter()
            .filter(|[first, _]| first.is_finite())
            .map(|&[first, second]| if second.is_finite() { second } else { first })
            .collect()
    }

    /// Σ of every recorded call's second fastest corrected time.
    pub fn best_s(&self) -> f64 {
        self.best().iter().sum()
    }

    /// `loops_per_s`, `loop_p50_ms`, `loop_p99_ms`. The single client sends
    /// the next call only after the previous one returned, so throughput is
    /// calls per second spent in calls; the output checks and calibrations
    /// between calls are not counted.
    pub fn metrics(&self) -> [Metric; 3] {
        let best = self.best();
        assert!(!best.is_empty(), "no timed call");
        let total: f64 = best.iter().sum();
        let mut samples: Vec<f64> = best.iter().map(|s| s * 1e3).collect();
        samples.sort_by(f64::total_cmp);
        [
            metric("loops_per_s", samples.len() as f64 / total, "1/s"),
            metric("loop_p50_ms", percentile(&samples, 50.0), "ms"),
            metric("loop_p99_ms", percentile(&samples, 99.0), "ms"),
        ]
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The result line: one JSON object, printed last on standard output.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            assert!(m.value.is_finite(), "metric {} is not finite", m.name);
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 500.0);
        assert_eq!(percentile(&v, 99.0), 990.0);
        assert_eq!(percentile(&v, 100.0), 1000.0);
        assert_eq!(percentile(&[3.0], 99.0), 3.0);
    }

    /// A call that took `seconds` with its midpoint `at` seconds into the
    /// run.
    fn call(t: &mut Timings, call: usize, at: f64, seconds: f64) {
        let started = t.start + Duration::from_secs_f64(at - seconds / 2.0);
        t.record(call, started, seconds);
    }

    fn calibration(t: &mut Timings, at: f64, seconds: f64) {
        let started = t.start + Duration::from_secs_f64(at - seconds / 2.0);
        t.calibrated(started, seconds);
    }

    #[test]
    fn calls_count_at_their_second_fastest_pass() {
        let mut t = Timings::new(4);
        for (pass, [a, b]) in [[0.004, 0.001], [0.002, 0.005], [0.003, 0.002]]
            .into_iter()
            .enumerate()
        {
            call(&mut t, 0, 2.0 * pass as f64 + 1.0, a);
            call(&mut t, 1, 2.0 * pass as f64 + 2.0, b);
            t.end_pass();
        }
        // Call 2 is timed once and counts at that time; call 3 is never
        // recorded and left out.
        call(&mut t, 2, 7.0, 0.006);
        assert_eq!(t.attempted(), 7);
        let [rate, p50, p99] = t.metrics();
        assert!((rate.value - 3.0 / 0.011).abs() < 1e-6);
        assert!((p50.value - 3.0).abs() < 1e-9);
        assert!((p99.value - 6.0).abs() < 1e-9);
    }

    #[test]
    fn slow_moments_are_divided_out() {
        let mut t = Timings::new(1);
        // The calibration takes 1 s, then twice as long; halfway between
        // the last two it is taken to run 1.5x as long.
        for (at, s) in [(10.0, 1.0), (20.0, 1.0), (30.0, 1.0), (40.0, 2.0)] {
            calibration(&mut t, at, s);
        }
        call(&mut t, 0, 35.0, 0.006);
        assert!((t.best_s() - 0.004).abs() < 1e-9);
        // Before the first and after the last calibration, the nearest
        // one holds: 0.0045 and 0.0035, so 0.004 stays second fastest.
        call(&mut t, 0, 5.0, 0.0045);
        call(&mut t, 0, 50.0, 0.007);
        assert!((t.best_s() - 0.004).abs() < 1e-9);
        call(&mut t, 0, 15.0, 0.0038);
        assert!((t.best_s() - 0.0038).abs() < 1e-9);
    }

    #[test]
    fn pass_count_follows_seconds_not_speed() {
        assert_eq!(passes(28, 7.0), 4);
        assert_eq!(passes(1, 7.0), MIN_PASSES);
    }

    #[test]
    fn result_line_is_one_json_object() {
        let line = result_line(true, 3, 0, &[metric("a", 1.5, "ms")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"a\": {\"value\": 1.5, \"unit\": \"ms\"}}}"
        );
    }
}
