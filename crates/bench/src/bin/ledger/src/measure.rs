//! How a run is timed.
//!
//! A run replays *rounds*: each round runs the workload's same seeded
//! operations from the same start state, so every operation is timed once
//! per round.  The reported cost of an operation is its fastest round, and
//! timings are scaled to a reference host speed measured in the same run:
//! between operations, every `CALIBRATION_EVERY_S`, the benchmark times a
//! fixed calibration computation, and every timing is multiplied by
//! `CALIBRATION_REF_MS / fastest calibration`.  Contention from other
//! tenants of the host slows both alike, so the scaled values move only
//! when the program does.

use crate::json::Json;
use crate::stats;
use crate::trace::{per_layer, Recorder, PER_LAYER};
use crate::workloads::Workload;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Every end-to-end metric: name, unit, which direction is better.
pub const END_TO_END: &[(&str, &str, &str)] = &[
    ("setup_s", "s", "lower"),
    ("op_p50_ms", "ms", "lower"),
    ("ops_per_s", "ops/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
];

/// Set-up samples per run; `setup_s` is their median.
const SETUP_SAMPLES: usize = 20;
/// A set-up sample repeats the set-up until this many seconds have passed
/// and takes the mean, so sub-millisecond set-ups are not timed one by one.
const SETUP_SAMPLE_S: f64 = 0.02;
/// Rounds of each pass in a traced run.
const TRACE_ROUNDS: usize = 5;
/// The calibration computation's time on the box the baseline was measured
/// on, at its quietest: scaled timings read as that box's milliseconds.
pub const CALIBRATION_REF_MS: f64 = 30.0;
/// Seconds between calibrations.  Contention flickers on a scale of a
/// tenth of a second, and operations sample it almost continuously: sparse
/// calibrations would miss quiet moments the operations catch and
/// over-correct.  This spacing costs about a seventh of the run, and
/// calibrations are taken between operations, not only between rounds, so
/// workloads with long rounds get as many as those with short ones.
const CALIBRATION_EVERY_S: f64 = 0.2;

/// A fixed computation shaped like the engine's hot path (ordered-map
/// inserts and probes over 64-bit keys, then a sort), independent of the
/// program under test.  Its working set (~8 MB) is sized like the
/// workloads', so cache contention slows it about as much as them.
/// Returns its wall time in ms.
pub fn calibration_ms() -> f64 {
    const KEYS: u64 = 150_000;
    let t = Instant::now();
    let mut m = BTreeMap::new();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    for i in 0..KEYS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        m.insert(x % (KEYS * 16), i);
    }
    let mut keys: Vec<u64> = m.keys().copied().collect();
    keys.sort_unstable_by(|a, b| b.cmp(a));
    black_box(keys.iter().step_by(3).map(|k| m[k]).sum::<u64>());
    t.elapsed().as_secs_f64() * 1e3
}

/// One reported value with the spread of the repeats it summarizes.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub spread: f64,
}

/// What one pass of one workload produced.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub attempted: usize,
    pub error: Option<String>,
    pub metrics: Vec<Metric>,
    /// The run's fastest calibration time, in ms.
    pub calibration_ms: f64,
    pub trace: Option<Json>,
}

impl Outcome {
    pub fn failed((attempted, error): (usize, String)) -> Self {
        Outcome {
            attempted,
            error: Some(error),
            metrics: Vec::new(),
            calibration_ms: 0.0,
            trace: None,
        }
    }

    pub fn correct(&self) -> bool {
        self.error.is_none()
    }

    fn metric_json(&self, with_spread: bool) -> Json {
        Json::obj(self.metrics.iter().map(|m| {
            let mut v = vec![("value", Json::Num(m.value)), ("unit", m.unit.into())];
            if with_spread {
                v.push(("spread", Json::Num(m.spread)));
            }
            (m.name, Json::obj(v))
        }))
    }

    /// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
    pub fn line(&self) -> Json {
        Json::obj([
            ("correct", self.correct().into()),
            ("attempted", Json::Num(self.attempted.max(1) as f64)),
            ("failed", Json::Num(f64::from(u8::from(!self.correct())))),
            ("metrics", self.metric_json(false)),
        ])
    }

    /// The results-file entry: the result line plus each metric's own
    /// spread and the run's calibration time.
    pub fn entry(&self) -> Json {
        Json::obj([
            ("correct", self.correct().into()),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(f64::from(u8::from(!self.correct())))),
            ("calibration_ms", Json::Num(self.calibration_ms)),
            ("metrics", self.metric_json(true)),
        ])
    }
}

/// Peak resident set size of this process, in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Operations attempted, and what went wrong.
type Failure = (usize, String);

/// Run one round of `w`: the `first` on a fresh state, or a later one
/// after rewinding to the start state.  `between` runs before each
/// operation, outside its span.
fn round<W: Workload>(
    w: &W,
    st: &mut W::State,
    rec: &mut Recorder,
    first: bool,
    between: &mut dyn FnMut(),
) -> Result<(), Failure> {
    let failed = |rec: &Recorder, e: String| (rec.op_ms.len(), e);
    if !first {
        w.rewind(st).map_err(|e| failed(rec, e))?;
    }
    for i in 0..w.round() {
        between();
        w.op(st, i, first, rec).map_err(|e| failed(rec, e))?;
    }
    Ok(())
}

/// The calibrations of a timed pass, taken between operations whenever
/// `CALIBRATION_EVERY_S` has passed since the last one.
#[derive(Default)]
struct Calibrations {
    last: Option<Instant>,
    latest: f64,
    /// The fastest calibration of the current round so far.
    this_round: Option<f64>,
    /// Per finished round: its fastest calibration, or, if none was taken
    /// during it, the latest one before it.
    per_round: Vec<f64>,
}

impl Calibrations {
    fn tick(&mut self) {
        if self
            .last
            .is_some_and(|t| t.elapsed().as_secs_f64() < CALIBRATION_EVERY_S)
        {
            return;
        }
        let c = calibration_ms();
        self.last = Some(Instant::now());
        self.latest = c;
        self.this_round = Some(self.this_round.map_or(c, |m| m.min(c)));
    }

    fn end_round(&mut self) {
        let c = self.this_round.take().unwrap_or(self.latest);
        self.per_round.push(c);
    }
}

/// Each operation's fastest time over the rounds `keep` selects, from
/// round-major samples.
fn fastest(op_ms: &[f64], round: usize, keep: &dyn Fn(usize) -> bool) -> Vec<f64> {
    (0..round)
        .map(|i| {
            op_ms
                .chunks(round)
                .enumerate()
                .filter(|(r, _)| keep(*r))
                .map(|(_, c)| c[i])
                .fold(f64::INFINITY, f64::min)
        })
        .collect()
}

fn throughput(ms: &[f64]) -> f64 {
    ms.len() as f64 / ms.iter().sum::<f64>() * 1e3
}

/// Time rounds for `seconds` with telemetry off: the end-to-end pass.
///
/// The first round runs on a fresh set-up before the benchmark allocates
/// anything of its own, and `peak_rss_mb` is read right after it, so the
/// peak covers the program's state and outputs (with the first round's
/// oracle checks) but no calibration or repeated set-up.  Timed rounds
/// follow.  The set-up is sampled at evenly spaced points of the run (each
/// repeat's state is dropped at once), each sample scaled by a calibration
/// taken just before it, so its median covers the run's whole window
/// rather than one moment.
pub fn measure<W: Workload>(w: &W, seconds: f64) -> Outcome {
    e2e(w, seconds).unwrap_or_else(Outcome::failed)
}

/// Take one set-up sample: repeat the set-up (dropping each state) for at
/// least `SETUP_SAMPLE_S`, and record the mean time scaled by a
/// calibration taken just before.
fn timed_setup<W: Workload>(w: &W, setups: &mut Vec<f64>, done: usize) -> Result<(), Failure> {
    let cal = calibration_ms();
    let t = Instant::now();
    let mut n = 0;
    while n == 0 || t.elapsed().as_secs_f64() < SETUP_SAMPLE_S {
        w.setup(false).map_err(|e| (done, e))?;
        n += 1;
    }
    setups.push(t.elapsed().as_secs_f64() / f64::from(n) * CALIBRATION_REF_MS / cal);
    Ok(())
}

fn e2e<W: Workload>(w: &W, seconds: f64) -> Result<Outcome, Failure> {
    let mut st = w.setup(false).map_err(|e| (0, e))?;
    let mut rec = Recorder::new(false);
    round(w, &mut st, &mut rec, true, &mut || ())?;
    let peak_rss = peak_rss_mb();
    let warm = rec.op_ms.len();

    let start = Instant::now();
    let mut setups = Vec::new();
    let mut cals = Calibrations::default();
    let due = |k: usize| k as f64 * seconds / SETUP_SAMPLES as f64;
    while cals.per_round.is_empty() || start.elapsed().as_secs_f64() < seconds {
        if setups.len() < SETUP_SAMPLES && start.elapsed().as_secs_f64() >= due(setups.len()) {
            timed_setup(w, &mut setups, rec.op_ms.len())?;
        }
        round(w, &mut st, &mut rec, false, &mut || cals.tick())?;
        cals.end_round();
    }
    while setups.len() < SETUP_SAMPLES {
        timed_setup(w, &mut setups, rec.op_ms.len())?;
    }
    w.finish(&mut st, &mut rec)
        .map_err(|e| (rec.op_ms.len(), e))?;

    // A statistic over the fastest time of each operation in the timed
    // rounds `keep` selects, scaled by those rounds' fastest calibration.
    let cal = &cals.per_round;
    let timed = &rec.op_ms[warm..];
    let stat = |f: fn(&[f64]) -> f64, keep: &dyn Fn(usize) -> bool| {
        let ref_speed = CALIBRATION_REF_MS
            / (0..cal.len())
                .filter(|&r| keep(r))
                .map(|r| cal[r])
                .fold(f64::INFINITY, f64::min);
        let ms: Vec<f64> = fastest(timed, w.round(), keep)
            .iter()
            .map(|ms| ms * ref_speed)
            .collect();
        f(&ms)
    };
    // A run's own spread: the statistic over even rounds against odd ones.
    let halves = |f: fn(&[f64]) -> f64| {
        if cal.len() < 2 {
            return 0.0;
        }
        let (even, odd) = (stat(f, &|r| r % 2 == 0), stat(f, &|r| r % 2 == 1));
        (even - odd).abs() / stat(f, &|_| true)
    };
    let values = [
        (stats::median(&setups), stats::split_spread(&setups)),
        (stat(stats::median, &|_| true), halves(stats::median)),
        (stat(throughput, &|_| true), halves(throughput)),
        (peak_rss, 0.0),
    ];
    Ok(Outcome {
        attempted: rec.op_ms.len(),
        error: None,
        metrics: END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit, _), (value, spread))| Metric {
                name,
                unit,
                value,
                spread,
            })
            .collect(),
        calibration_ms: cal.iter().copied().fold(f64::INFINITY, f64::min),
        trace: None,
    })
}

/// Replay a fixed number of rounds on two states of the same seed, one
/// untraced and one traced, taking turns round by round: the per-layer
/// pass.  Taking turns exposes both to the same contention, so the gap
/// between them is the tracing overhead; the fixed count makes the
/// counters repeat exactly for a seed.
pub fn trace<W: Workload>(w: &W) -> Outcome {
    traced(w).unwrap_or_else(Outcome::failed)
}

fn traced<W: Workload>(w: &W) -> Result<Outcome, Failure> {
    let mut plain_st = w.setup(false).map_err(|e| (0, e))?;
    let mut traced_st = w.setup(true).map_err(|e| (0, e))?;
    let (mut plain, mut rec) = (Recorder::new(false), Recorder::new(true));
    let mut cal = Vec::new();
    for r in 0..TRACE_ROUNDS {
        cal.push(calibration_ms());
        // Swap which copy runs first, since the first one meets the caches
        // the calibration left cold.
        let none = &mut || ();
        if r % 2 == 0 {
            round(w, &mut plain_st, &mut plain, r == 0, none)?;
            round(w, &mut traced_st, &mut rec, r == 0, none)?;
        } else {
            round(w, &mut traced_st, &mut rec, false, none)?;
            round(w, &mut plain_st, &mut plain, false, none)?;
        }
    }
    let done = rec.op_ms.len();
    w.finish(&mut plain_st, &mut plain).map_err(|e| (done, e))?;
    w.finish(&mut traced_st, &mut rec).map_err(|e| (done, e))?;
    let cost = |r: &Recorder| fastest(&r.op_ms, w.round(), &|_| true).iter().sum::<f64>();
    let values = per_layer(&rec, (cost(&rec) / cost(&plain) - 1.0) * 100.0);
    let calibration_ms = cal.iter().copied().fold(f64::INFINITY, f64::min);
    let ref_speed = CALIBRATION_REF_MS / calibration_ms;
    Ok(Outcome {
        attempted: done,
        error: None,
        metrics: PER_LAYER
            .iter()
            .map(|&(name, unit, _)| Metric {
                name,
                unit,
                value: values[name]
                    * if unit.starts_with("ms") {
                        ref_speed
                    } else {
                        1.0
                    },
                spread: 0.0,
            })
            .collect(),
        calibration_ms,
        trace: Some(rec.spans_json()),
    })
}
