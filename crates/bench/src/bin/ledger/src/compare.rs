//! `--compare base.json new.json`: two results files against the bounds in
//! `BENCHMARK.json`.
//!
//! Each workload's failure ratio (`failed / attempted`) must match exactly,
//! and a workload whose new run is not `correct` fails.  A workload, or a
//! metric of one, that the base reports and the new file lacks is
//! `MISSING`, which also fails: a run that failed its checks reports no
//! metrics.  End-to-end metrics are compared within their bound, in the
//! direction the benchmark declares better; a metric whose own spread (in
//! either file) exceeds its bound cannot be judged and is reported
//! "unresolved".  Per-layer counts (units `count…`, `ticks…`, `bytes`)
//! repeat exactly for a seed and must match; per-layer timings, shares and
//! allocation counts (which hash-map iteration order can nudge) are shown
//! for attribution only.

use crate::json::{self, Json};
use std::path::Path;

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// `(name, unit, better, bound)` of every metric the benchmark declares.
fn declared(bench: &Json) -> Vec<(String, String, String, Option<f64>)> {
    let mut out = Vec::new();
    for key in ["end_to_end", "per_layer"] {
        for m in bench.get(key).and_then(Json::as_array).unwrap_or(&[]) {
            let s = |k: &str| m.get(k).and_then(Json::as_str).unwrap_or("").to_string();
            out.push((
                s("name"),
                s("unit"),
                s("better"),
                m.get("bound").and_then(Json::as_f64),
            ));
        }
    }
    out
}

fn is_count(unit: &str) -> bool {
    unit.starts_with("count") || unit.starts_with("ticks") || unit == "bytes"
}

/// One row of the report.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub base: f64,
    /// NaN when the new file lacks the value.
    pub new: f64,
    /// Relative change, positive when `new` is worse.
    pub worse: f64,
    pub verdict: &'static str,
}

/// Verdicts that make a comparison fail.
const FAILING: [&str; 4] = ["REGRESSED", "MISMATCH", "MISSING", "FAILED"];

fn fail_ratio(entry: &Json) -> Option<f64> {
    let num = |k: &str| entry.get(k).and_then(Json::as_f64);
    Some(num("failed")? / num("attempted")?.max(1.0))
}

/// Compare two parsed results documents under a parsed `BENCHMARK.json`.
pub fn rows(bench: &Json, base: &Json, new: &Json) -> Vec<Row> {
    let metrics = declared(bench);
    let workloads = |doc: &Json| {
        doc.get("workloads")
            .and_then(Json::as_object)
            .map(<[_]>::to_vec)
    };
    let mut out = Vec::new();
    for (workload, b) in workloads(base).unwrap_or_default() {
        let mut row = |metric: &str, base: f64, new: f64, worse: f64, verdict: &'static str| {
            out.push(Row {
                workload: workload.clone(),
                metric: metric.to_string(),
                base,
                new,
                worse,
                verdict,
            });
        };
        let n = new.get("workloads").and_then(|w| w.get(&workload));
        let (f0, f1) = (fail_ratio(&b).unwrap_or(0.0), n.and_then(fail_ratio));
        let verdict = match f1 {
            None => "MISSING",
            Some(_) if n.and_then(|n| n.get("correct")) != Some(&Json::Bool(true)) => "FAILED",
            Some(f1) if f1 != f0 => "MISMATCH",
            Some(_) => "exact",
        };
        let f1 = f1.unwrap_or(f64::NAN);
        row("fail_ratio", f0, f1, f1 - f0, verdict);
        let Some(n) = n else {
            continue;
        };
        for (metric, unit, better, bound) in &metrics {
            let read = |doc: &Json, k: &str| {
                doc.get("metrics")
                    .and_then(|m| m.get(metric))
                    .and_then(|m| m.get(k))
                    .and_then(Json::as_f64)
            };
            let Some(v0) = read(&b, "value") else {
                continue;
            };
            let Some(v1) = read(n, "value") else {
                row(metric, v0, f64::NAN, f64::NAN, "MISSING");
                continue;
            };
            let change = if v0 == 0.0 { 0.0 } else { (v1 - v0) / v0.abs() };
            let worse = if better == "higher" { -change } else { change };
            let spread = read(&b, "spread")
                .unwrap_or(0.0)
                .max(read(n, "spread").unwrap_or(0.0));
            let verdict = match bound {
                Some(bound) if spread > *bound => "unresolved",
                Some(bound) if worse > *bound => "REGRESSED",
                Some(bound) if -worse > *bound => "improved",
                Some(_) => "ok",
                None if is_count(unit) && v0 != v1 => "MISMATCH",
                None if is_count(unit) => "exact",
                None => "info",
            };
            row(metric, v0, v1, worse, verdict);
        }
    }
    out
}

/// Print the report; true when every workload ran correctly, nothing
/// regressed or went missing, and every count matched.
pub fn run(bench: &Path, base: &Path, new: &Path) -> Result<bool, String> {
    let report = rows(&load(bench)?, &load(base)?, &load(new)?);
    if report.is_empty() {
        return Err("the base results file holds no workload".into());
    }
    println!(
        "{:<12} {:<34} {:>14} {:>14} {:>9}  verdict",
        "workload", "metric", "base", "new", "worse"
    );
    for r in &report {
        println!(
            "{:<12} {:<34} {:>14.4} {:>14.4} {:>8.1}%  {}",
            r.workload,
            r.metric,
            r.base,
            r.new,
            r.worse * 100.0,
            r.verdict
        );
    }
    Ok(report.iter().all(|r| !FAILING.contains(&r.verdict)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(p50: f64, spread: f64, derivations: f64) -> Json {
        json::parse(&format!(
            r#"{{"workloads": {{"pv_churn": {{
                "correct": true, "attempted": 120, "failed": 0, "metrics": {{
                "op_p50_ms": {{"value": {p50}, "unit": "ms", "spread": {spread}}},
                "ops_per_s": {{"value": 100, "unit": "ops/s", "spread": 0.01}},
                "incremental.derivations": {{"value": {derivations}, "unit": "count/op"}},
                "update.commit_ms": {{"value": 3, "unit": "ms/op"}}}}}}}}}}"#
        ))
        .unwrap()
    }

    #[test]
    fn bounds_spreads_and_counts_decide_the_verdicts() {
        let bench = json::parse(
            r#"{"end_to_end": [
                 {"name": "op_p50_ms", "unit": "ms", "better": "lower", "bound": 0.1},
                 {"name": "ops_per_s", "unit": "ops/s", "better": "higher", "bound": 0.1}],
               "per_layer": [
                 {"name": "incremental.derivations", "unit": "count/op", "better": "lower"},
                 {"name": "update.commit_ms", "unit": "ms/op", "better": "lower"}]}"#,
        )
        .unwrap();
        let verdicts = |new: &Json| -> Vec<&'static str> {
            rows(&bench, &doc(10.0, 0.02, 500.0), new)
                .iter()
                .map(|r| r.verdict)
                .collect()
        };
        assert_eq!(
            verdicts(&doc(10.5, 0.02, 500.0)),
            ["exact", "ok", "ok", "exact", "info"]
        );
        assert_eq!(verdicts(&doc(12.0, 0.02, 500.0))[1], "REGRESSED");
        assert_eq!(verdicts(&doc(8.0, 0.02, 500.0))[1], "improved");
        assert_eq!(verdicts(&doc(10.0, 0.3, 500.0))[1], "unresolved");
        assert_eq!(verdicts(&doc(10.0, 0.02, 501.0))[3], "MISMATCH");

        // A run that failed its checks reports no metrics: it must fail
        // the comparison, not drop out of it.
        let failed = json::parse(
            r#"{"workloads": {"pv_churn": {
                "correct": false, "attempted": 37, "failed": 1, "metrics": {}}}}"#,
        )
        .unwrap();
        assert_eq!(
            verdicts(&failed),
            ["FAILED", "MISSING", "MISSING", "MISSING", "MISSING"]
        );
        let gone = json::parse(r#"{"workloads": {}}"#).unwrap();
        assert_eq!(verdicts(&gone), ["MISSING"]);
        let partial = json::parse(
            r#"{"workloads": {"pv_churn": {
                "correct": true, "attempted": 99, "failed": 0, "metrics": {
                "op_p50_ms": {"value": 10, "unit": "ms", "spread": 0.02}}}}}"#,
        )
        .unwrap();
        assert_eq!(
            verdicts(&partial),
            ["exact", "ok", "MISSING", "MISSING", "MISSING"]
        );
    }
}
