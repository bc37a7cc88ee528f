//! Run bookkeeping shared by the workloads: the time budget, op
//! accounting with panic capture, summary statistics, and the result
//! line.

use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use crate::adapter::Outcome;

/// The wall-clock budget of one run, started at construction.
pub struct Budget {
    start: Instant,
    limit: Duration,
}

impl Budget {
    pub fn new(seconds: u64) -> Self {
        Budget {
            start: Instant::now(),
            limit: Duration::from_secs(seconds),
        }
    }

    /// True while another round should start: always below `min`
    /// rounds, otherwise while the budget lasts.
    pub fn more(&self, done: usize, min: usize) -> bool {
        done < min || self.start.elapsed() < self.limit
    }
}

/// What [`calibrate`] takes on the reference host (a 2-vCPU Xeon VM
/// at 2.0 GHz with no co-tenant load).
const CALIBRATION_REF_SECS: f64 = 0.025;

/// Host seconds of a fixed kernel that shares no code with the
/// simulator: fill 256 KB with xorshift values and sort it, 40 times.
fn calibrate() -> f64 {
    let t0 = Instant::now();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut v = vec![0u64; 32_768];
    let mut acc = 0u64;
    for _ in 0..40 {
        for slot in v.iter_mut() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *slot = x;
        }
        v.sort_unstable();
        acc = acc.wrapping_add(v[100]);
    }
    std::hint::black_box(acc);
    t0.elapsed().as_secs_f64()
}

/// How much slower than the reference host this host runs.
///
/// Co-tenants on a shared host slow every process on it for tens of
/// seconds at a time, by up to 1.6× on the reference host. Each timed
/// pass is bracketed by two runs of the calibration kernel and divided
/// by their mean slowdown, which removes most of that drift; the kernel
/// shares no code with the simulator, so a change to the simulator
/// moves the result in full.
pub struct HostSpeed {
    last: f64,
}

impl HostSpeed {
    /// Calibrates once, opening the first bracket.
    pub fn start() -> Self {
        HostSpeed { last: calibrate() }
    }

    /// Calibrates again and returns the mean slowdown over the bracket
    /// since the previous call, which opens the next one.
    pub fn slowdown(&mut self) -> f64 {
        let now = calibrate();
        let slowdown = (self.last + now) / 2.0 / CALIBRATION_REF_SECS;
        self.last = now;
        slowdown
    }
}

/// Throughput over input sets timed in rotation: the events of every
/// set over the sum of each set's median seconds, so each set weighs
/// by its own work whatever number of timings it got.
pub struct Rotation {
    sets: Vec<(u64, Vec<f64>)>,
}

impl Rotation {
    pub fn new(sets: usize) -> Self {
        Rotation {
            sets: vec![(0, Vec::new()); sets],
        }
    }

    pub fn record(&mut self, set: usize, events: u64, secs: f64) {
        self.sets[set].0 = events;
        self.sets[set].1.push(secs);
    }

    /// NaN when a set was never timed.
    pub fn events_per_s(&self) -> f64 {
        let events: u64 = self.sets.iter().map(|s| s.0).sum();
        let secs: f64 = self.sets.iter().map(|s| median(&s.1)).sum();
        events as f64 / secs
    }
}

/// Ops attempted and failed. An op fails when it panics or when its
/// output fails a check; either way the run continues.
#[derive(Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
}

impl Ops {
    /// Runs one op; `None` when it panicked or its check failed.
    pub fn run<T>(&mut self, what: &str, op: impl FnOnce() -> Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match catch_unwind(AssertUnwindSafe(op)) {
            Ok(Ok(value)) => Some(value),
            Ok(Err(msg)) => {
                eprintln!("perfbench: {what}: check failed: {msg}");
                self.failed += 1;
                None
            }
            Err(_) => {
                eprintln!("perfbench: {what}: panicked");
                self.failed += 1;
                None
            }
        }
    }
}

/// `Ok` when `got` equals the reference the first run of the same
/// inputs recorded (and records it when there is none yet).
pub fn same_as_first<T: PartialEq + Clone>(
    reference: &mut Option<T>,
    got: &T,
    what: &str,
) -> Result<(), String> {
    match reference {
        None => {
            *reference = Some(got.clone());
            Ok(())
        }
        Some(first) if first == got => Ok(()),
        Some(_) => Err(format!(
            "{what} differs from the first run of the same inputs"
        )),
    }
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile `q` in `[0, 1]` (NaN when empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Ratio of two counts (0 when the denominator is 0).
pub fn share(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// One run's result: what the last stdout line reports.
pub struct Report {
    pub ops: Ops,
    /// False when any output check failed outside an op.
    pub checks_ok: bool,
    pub metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    pub fn new(ops: Ops) -> Self {
        Report {
            ops,
            checks_ok: true,
            metrics: Vec::new(),
        }
    }

    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    /// The seven end-to-end metrics: throughput and the median set-up
    /// time (both at reference host speed, see [`HostSpeed`]), peak
    /// memory, and the simulated figures over every op's outcome (ANTT
    /// and p99 as means over ops, the shares pooled over requests). A
    /// completion violates when it ends past the deadline it was served
    /// under; goodput judges it against its original SLO.
    pub fn end_to_end(&mut self, events_per_s: f64, setup_s: &[f64], pass: &[Outcome]) {
        let sum = |f: fn(&Outcome) -> u64| pass.iter().map(f).sum::<u64>();
        self.metric("events_per_s", events_per_s, "events/s");
        self.metric("setup_s", median(setup_s), "s");
        self.metric("peak_rss_mb", peak_rss_mb(), "MB");
        self.metric(
            "antt",
            pass.iter().map(|o| o.antt).sum::<f64>() / pass.len() as f64,
            "ratio",
        );
        // A refused, failed or reneged request misses its SLO too, so
        // load shedding cannot hide violations by turning them away.
        let offered = sum(|o| o.offered);
        let missed = offered - sum(|o| o.completed) + sum(|o| o.violated);
        self.metric("violation_rate", share(missed, offered), "share");
        self.metric(
            "goodput_rate",
            share(sum(|o| o.good), sum(|o| o.offered)),
            "share",
        );
        self.metric(
            "turnaround_p99_ms",
            pass.iter().map(|o| o.p99_ns as f64).sum::<f64>() * 1e-6 / pass.len() as f64,
            "ms",
        );
    }

    /// Records a check made outside any op.
    pub fn check(&mut self, ok: bool, what: &str) {
        if !ok {
            eprintln!("perfbench: check failed: {what}");
            self.checks_ok = false;
        }
    }

    /// Prints a readable table to stdout, then the JSON result line.
    pub fn print(&self, workload: &str) {
        let correct = self.checks_ok
            && self.ops.failed == 0
            && self.ops.attempted > 0
            && self.metrics.iter().all(|(_, v, _)| v.is_finite());
        println!("workload {workload}");
        for (name, value, unit) in &self.metrics {
            println!("  {name:<32} {value:>16.6} {unit}");
        }
        println!("  {:<32} {:>16}", "ops", self.ops.attempted);
        println!("  {:<32} {:>16}", "ops_failed", self.ops.failed);
        let mut json = format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.ops.attempted, self.ops.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if value.is_finite() {
                format!("{value:?}")
            } else {
                "null".to_string()
            };
            write!(
                json,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            )
            .expect("write to String");
        }
        json.push_str("}}");
        println!("{json}");
    }
}
