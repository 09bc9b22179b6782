//! `ledger` — the FVN reproduction's benchmark.
//!
//! ```text
//! ledger [--workload <name>] [--seed <u64>] [--seconds <s>] [--trace <0|1>]
//! ledger --compare <base.json> <new.json>
//! ```
//!
//! With `--workload`, one workload runs in this process: `--trace 0` times
//! it for `--seconds` with the program's telemetry off and reports the
//! end-to-end metrics; `--trace 1` replays a fixed number of its rounds on
//! an untraced and a traced copy in turn and reports the per-layer metrics
//! (see `measure.rs`).  The last line of standard output is one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`;
//! `target/ledger/results.json` (and, traced,
//! `target/ledger/trace-<workload>.json`) are written next to it.  A failed
//! call or output check exits with status 1.
//!
//! Without `--workload`, every workload runs in turn, each pass in a child
//! process of its own so peak memory is measured per workload, and the
//! merged results go to `target/ledger/results.json`.  `--compare` checks
//! two results files against the bounds in `BENCHMARK.json`.  See
//! README.md for the workloads and metrics.

mod compare;
mod json;
mod measure;
mod stats;
mod trace;
mod workloads;

use json::Json;
use measure::{measure, trace, Metric, Outcome};
use std::path::Path;
use std::process::{Command, ExitCode};
use workloads::{DistLossy, McChurn, PvBuild, PvChurn, ReachMixed, Scale, Workload, NAMES};

#[global_allocator]
static ALLOC: trace::CountingAlloc = trace::CountingAlloc;

/// Where results and traces are written, relative to the working directory.
const OUT_DIR: &str = "target/ledger";

/// Run one pass of the named workload.
pub fn run(name: &str, seed: u64, scale: Scale, seconds: f64, traced: bool) -> Outcome {
    fn go<W: Workload>(w: W, seconds: f64, traced: bool) -> Outcome {
        if traced {
            trace(&w)
        } else {
            measure(&w, seconds)
        }
    }
    match name {
        "pv_build" => go(PvBuild::new(seed, scale), seconds, traced),
        "pv_churn" => go(PvChurn::new(seed, scale), seconds, traced),
        "reach_mixed" => go(ReachMixed::new(seed, scale), seconds, traced),
        "dist_lossy" => go(DistLossy::new(seed, scale), seconds, traced),
        "mc_churn" => go(McChurn::new(seed, scale), seconds, traced),
        other => Outcome::failed((0, format!("unknown workload {other:?}"))),
    }
}

/// The current commit, read from `.git` in the working directory
/// ("unknown" outside a git checkout).
fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(Path::new(".git").join(p)).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".into();
    };
    let Some(r) = head.trim().strip_prefix("ref: ") else {
        return head.trim().to_string();
    };
    read(r)
        .map(|s| s.trim().to_string())
        .or_else(|| {
            read("packed-refs")?
                .lines()
                .find_map(|l| l.strip_suffix(r).map(|h| h.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The results document: provenance plus one entry per workload.
fn results(seed: u64, seconds: f64, workloads: Vec<(String, Json)>) -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::obj([
        ("rev", Json::Str(git_rev())),
        ("nproc", Json::Num(nproc as f64)),
        ("seed", Json::Num(seed as f64)),
        ("seconds", Json::Num(seconds)),
        ("workloads", Json::Obj(workloads)),
    ])
}

fn write(path: &Path, doc: &Json) -> Result<(), String> {
    std::fs::create_dir_all(OUT_DIR).map_err(|e| e.to_string())?;
    std::fs::write(path, format!("{doc}\n")).map_err(|e| format!("{}: {e}", path.display()))
}

fn print_metrics(workload: &str, metrics: &[Metric]) {
    for m in metrics {
        println!("{workload:<12} {:<34} {:>16.4} {}", m.name, m.value, m.unit);
    }
}

/// Run one workload pass in this process and report it.
fn single(name: &str, seed: u64, seconds: f64, traced: bool) -> ExitCode {
    let out = run(name, seed, Scale::Full, seconds, traced);
    if let Some(e) = &out.error {
        eprintln!("ledger: {name}: {e}");
    }
    print_metrics(name, &out.metrics);
    let mut written = write(
        &Path::new(OUT_DIR).join("results.json"),
        &results(seed, seconds, vec![(name.to_string(), out.entry())]),
    );
    if let (Some(spans), Ok(())) = (&out.trace, &written) {
        written = write(
            &Path::new(OUT_DIR).join(format!("trace-{name}.json")),
            spans,
        );
    }
    if let Err(e) = written {
        eprintln!("ledger: {e}");
    }
    println!("{}", out.line());
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Run every workload, untraced then traced, each pass in a child process.
fn all(seed: u64, seconds: f64) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Path::new(OUT_DIR).join("results.json");
    let mut merged: Vec<(String, Json)> = Vec::new();
    let mut ok = true;
    for name in NAMES {
        let mut metrics: Vec<(String, Json)> = Vec::new();
        let (mut attempted, mut failed, mut calibration) = (0.0, 0.0, 0.0);
        for traced in ["0", "1"] {
            // A child that dies before writing must not leave the previous
            // pass's results to be read as its own.
            let _ = std::fs::remove_file(&out);
            let status = Command::new(&exe)
                .args(["--workload", name, "--seed", &seed.to_string()])
                .args(["--seconds", &seconds.to_string(), "--trace", traced])
                .status()
                .map_err(|e| format!("cannot start {name}: {e}"))?;
            ok &= status.success();
            let text =
                std::fs::read_to_string(&out).map_err(|e| format!("{name}: no results: {e}"))?;
            let doc = json::parse(&text)?;
            let entry = doc
                .get("workloads")
                .and_then(|w| w.get(name))
                .ok_or_else(|| format!("{name}: results lack the workload"))?;
            let num = |k: &str| entry.get(k).and_then(Json::as_f64).unwrap_or(0.0);
            attempted += num("attempted");
            failed += num("failed");
            if traced == "0" {
                calibration = num("calibration_ms");
            }
            if let Some(m) = entry.get("metrics").and_then(Json::as_object) {
                metrics.extend(m.iter().cloned());
            }
        }
        merged.push((
            name.to_string(),
            Json::obj([
                ("correct", Json::Bool(failed == 0.0)),
                ("attempted", Json::Num(attempted)),
                ("failed", Json::Num(failed)),
                ("calibration_ms", Json::Num(calibration)),
                ("metrics", Json::Obj(metrics)),
            ]),
        ));
    }
    write(&out, &results(seed, seconds, merged))?;
    Ok(ok)
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    compare: Option<(String, String)>,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: 20.0,
        traced: false,
        compare: None,
    };
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?),
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                a.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                }
            }
            "--compare" => a.compare = Some((value()?, value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if let Some(w) = &a.workload {
        if !NAMES.contains(&w.as_str()) {
            return Err(format!("unknown workload {w:?}; one of {NAMES:?}"));
        }
    }
    Ok(a)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ledger: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some((base, new)) = &args.compare {
        return match compare::run(Path::new("BENCHMARK.json"), Path::new(base), Path::new(new)) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("ledger: {e}");
                ExitCode::from(2)
            }
        };
    }
    match &args.workload {
        Some(name) => single(name, args.seed, args.seconds, args.traced),
        None => match all(args.seed, args.seconds) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("ledger: {e}");
                ExitCode::FAILURE
            }
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use measure::END_TO_END;
    use trace::PER_LAYER;
    use workloads::ReachOp;

    fn value(out: &Outcome, name: &str) -> f64 {
        out.metrics
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("{name} missing"))
            .value
    }

    #[test]
    fn every_workload_runs_at_smoke_scale() {
        for name in NAMES {
            let e2e = run(name, 7, Scale::Smoke, 0.0, false);
            assert!(e2e.correct(), "{name}: {:?}", e2e.error);
            assert_eq!(e2e.metrics.len(), END_TO_END.len());
            assert!(e2e.metrics.iter().all(|m| m.value > 0.0), "{name}: {e2e:?}");

            let traced = run(name, 7, Scale::Smoke, 0.0, true);
            assert!(traced.correct(), "{name}: {:?}", traced.error);
            assert_eq!(traced.metrics.len(), PER_LAYER.len());
            assert!(value(&traced, "safety.analyze_ms") > 0.0);

            let spans = traced.trace.as_ref().expect("a traced pass keeps spans");
            let parsed = json::parse(&spans.to_string()).unwrap();
            assert!(!parsed.as_array().unwrap().is_empty(), "{name}: no spans");
            let line = json::parse(&traced.line().to_string()).unwrap();
            assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
            let doc = results(7, 0.0, vec![(name.to_string(), e2e.entry())]);
            let back = json::parse(&doc.to_string()).unwrap();
            let m = back.get("workloads").and_then(|w| w.get(name)).unwrap();
            assert!(m.get("metrics").and_then(|m| m.get("op_p50_ms")).is_some());
        }
    }

    #[test]
    fn a_seed_fixes_the_op_streams() {
        let streams = |seed: u64| {
            let (_, mut churn) = PvChurn::new(seed, Scale::Full).inputs();
            let pv: Vec<ndlog::Update> = (0..50).map(|_| churn.next_update()).collect();
            let mut reach = ReachMixed::new(seed, Scale::Full).inputs();
            let ops: Vec<ReachOp> = (0..200).map(|_| reach.next_op()).collect();
            let dist = DistLossy::new(seed, Scale::Full);
            let graph = dist.graph();
            let runs: Vec<_> = (0..3).map(|i| dist.run_inputs(&graph, i)).collect();
            (
                PvBuild::new(seed, Scale::Full).inputs(),
                pv,
                ops,
                runs,
                McChurn::new(seed, Scale::Full).inputs(),
            )
        };
        let (a, b, c) = (streams(1), streams(1), streams(2));
        assert_eq!(a, b);
        assert_ne!(a.0, c.0);
        assert_ne!(a.1, c.1);
        assert_ne!(a.2, c.2);
        assert_ne!(a.3, c.3);
        assert_ne!(a.4, c.4);
        // reach_mixed's declared mix is its measured mix: every tenth op.
        for ops in [&a.2, &c.2] {
            let commits: Vec<usize> = (0..ops.len())
                .filter(|&i| matches!(ops[i], ReachOp::Commit(_)))
                .collect();
            assert_eq!(commits, (9..200).step_by(10).collect::<Vec<_>>());
        }
    }

    #[test]
    fn a_seed_fixes_the_exact_counters() {
        let exact = [
            ("pv_churn", "incremental.derivations"),
            ("dist_lossy", "netsim.messages"),
            ("dist_lossy", "netsim.converge_ticks"),
            ("mc_churn", "mc.states"),
        ];
        for (name, metric) in exact {
            let a = value(&run(name, 3, Scale::Smoke, 0.0, true), metric);
            let b = value(&run(name, 3, Scale::Smoke, 0.0, true), metric);
            assert!(a > 0.0, "{name} {metric} is never exercised");
            assert_eq!(a, b, "{name} {metric} differs between runs of one seed");
        }
    }

    #[test]
    fn benchmark_json_declares_what_the_binary_reports() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../../../../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let declared = |key: &str, fields: &[&str]| -> Vec<Vec<String>> {
            let list = doc.get(key).and_then(Json::as_array).unwrap();
            list.iter()
                .map(|m| {
                    let field = |f: &&str| m.get(f).and_then(Json::as_str).unwrap().to_string();
                    fields.iter().map(field).collect()
                })
                .collect()
        };
        let table = |t: &[(&str, &str, &str)]| -> Vec<Vec<String>> {
            t.iter()
                .map(|&(n, u, b)| vec![n.to_string(), u.to_string(), b.to_string()])
                .collect()
        };
        let fields = ["name", "unit", "better"];
        assert_eq!(declared("end_to_end", &fields), table(END_TO_END));
        assert_eq!(declared("per_layer", &fields), table(PER_LAYER));
        let workloads: Vec<String> = NAMES.iter().map(|n| n.to_string()).collect();
        assert_eq!(declared("workloads", &["name"]).concat(), workloads);
    }

    #[test]
    fn arguments_parse_and_reject_unknowns() {
        let args = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let a = args("--workload pv_build --seed 9 --seconds 2.5 --trace 1").unwrap();
        assert_eq!(a.workload.as_deref(), Some("pv_build"));
        assert_eq!((a.seed, a.seconds, a.traced), (9, 2.5, true));
        assert!(args("--workload nope").is_err());
        assert!(args("--trace 2").is_err());
        assert!(args("--seed").is_err());
        assert!(args("--bogus 1").is_err());
    }
}
