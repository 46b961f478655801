//! `compare a.json b.json`: one row per (end-to-end metric, workload) with
//! both sides' medians and quartiles, the ratio with its base, and a
//! verdict under the bounds `BENCHMARK.json` fixes. This is what the A/A
//! acceptance check and every later change's before/after table use.

use std::collections::BTreeMap;

use crate::json::Json;
use crate::results::sig;
use crate::stats::{median, quartiles, spread};

/// One gated metric of `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Gate {
    pub name: String,
    pub lower_is_better: bool,
    pub bound: f64,
}

/// What a pair of sample sets says about one metric on one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Same,
    Worse,
    Better,
    /// Run-to-run spread wider than the bound: no claim either way.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Better => "better",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Reads the gated end-to-end metrics out of a parsed `BENCHMARK.json`.
pub fn gates(benchmark: &Json) -> Result<Vec<Gate>, String> {
    let list = benchmark
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    list.iter()
        .map(|m| {
            Some(Gate {
                name: m.get("name")?.as_str()?.to_string(),
                lower_is_better: m.get("better")?.as_str()? == "lower",
                bound: m.get("bound")?.as_f64()?,
            })
        })
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| "malformed end_to_end entry in BENCHMARK.json".to_string())
}

/// Judges side `b` against base `a`.
pub fn verdict(gate: &Gate, a: &[f64], b: &[f64]) -> Verdict {
    let (ma, mb) = (median(a), median(b));
    let worse_by = if gate.lower_is_better { (mb - ma) / ma } else { (ma - mb) / ma };
    let widest = [a, b].iter().filter(|s| s.len() > 1).map(|s| spread(s)).fold(0.0, f64::max);
    if widest > gate.bound {
        Verdict::Unresolved
    } else if worse_by > gate.bound {
        Verdict::Worse
    } else if worse_by < -gate.bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// Untraced rows of a results file, by workload, plus the failure tally.
struct Side {
    /// workload -> metric -> values, one per run.
    values: BTreeMap<String, BTreeMap<String, Vec<f64>>>,
    attempted: f64,
    failed: f64,
}

fn side(rows: &Json) -> Result<Side, String> {
    let mut s = Side { values: BTreeMap::new(), attempted: 0.0, failed: 0.0 };
    for row in rows.as_arr().ok_or("results file is not a JSON array")? {
        if row.get("trace") == Some(&Json::Bool(true)) {
            continue;
        }
        let workload = row.get("workload").and_then(Json::as_str).ok_or("row without workload")?;
        s.attempted += row.get("ops_attempted").and_then(Json::as_f64).unwrap_or(0.0);
        s.failed += row.get("ops_failed").and_then(Json::as_f64).unwrap_or(0.0);
        let Some(Json::Obj(metrics)) = row.get("metrics") else { continue };
        let per_metric = s.values.entry(workload.to_string()).or_default();
        for (name, m) in metrics {
            if let Some(v) = m.get("value").and_then(Json::as_f64) {
                per_metric.entry(name.clone()).or_default().push(v);
            }
        }
    }
    Ok(s)
}

/// Prints the table; `Ok(true)` when nothing got worse.
pub fn compare(a: &Json, b: &Json, gates: &[Gate]) -> Result<bool, String> {
    let (a, b) = (side(a)?, side(b)?);
    let mut ok = true;
    println!(
        "{:<24} {:<22} {:>3} {:>14} {:>27} {:>3} {:>14} {:>27} {:>16} {:>6}  verdict",
        "workload",
        "metric",
        "n",
        "a median",
        "a quartiles",
        "n",
        "b median",
        "b quartiles",
        "b/a (base a)",
        "bound"
    );
    for (workload, metrics_a) in &a.values {
        let Some(metrics_b) = b.values.get(workload) else {
            println!("{workload:<24} missing from the second file");
            ok = false;
            continue;
        };
        for gate in gates {
            let (Some(va), Some(vb)) = (metrics_a.get(&gate.name), metrics_b.get(&gate.name))
            else {
                println!("{workload:<24} {:<22} missing", gate.name);
                ok = false;
                continue;
            };
            let v = verdict(gate, va, vb);
            ok &= v != Verdict::Worse;
            let (qa, qb) = (quartiles(va), quartiles(vb));
            println!(
                "{workload:<24} {:<22} {:>3} {:>14} {:>27} {:>3} {:>14} {:>27} {:>16.4} {:>5.0}%  {}",
                gate.name,
                va.len(),
                sig(median(va)),
                format!("[{}, {}]", sig(qa.0), sig(qa.1)),
                vb.len(),
                sig(median(vb)),
                format!("[{}, {}]", sig(qb.0), sig(qb.1)),
                median(vb) / median(va),
                gate.bound * 100.0,
                v.label(),
            );
        }
    }
    let rate = |s: &Side| if s.attempted > 0.0 { s.failed / s.attempted } else { 0.0 };
    println!(
        "ops_failed / ops_attempted: a {} / {} , b {} / {}",
        a.failed, a.attempted, b.failed, b.attempted
    );
    if rate(&b) > rate(&a) {
        println!("the second file fails a higher share of its operations");
        ok = false;
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gate(lower_is_better: bool, bound: f64) -> Gate {
        Gate { name: "m".into(), lower_is_better, bound }
    }

    #[test]
    fn verdict_follows_direction_and_bound() {
        let base = [100.0, 101.0, 99.0, 100.5, 99.5];
        let throughput = gate(false, 0.08);
        assert_eq!(verdict(&throughput, &base, &[95.0, 96.0, 95.5, 94.5, 95.2]), Verdict::Same);
        assert_eq!(verdict(&throughput, &base, &[90.0, 91.0, 90.5, 89.5, 90.2]), Verdict::Worse);
        assert_eq!(
            verdict(&throughput, &base, &[110.0, 111.0, 110.5, 109.5, 112.0]),
            Verdict::Better
        );
        let latency = gate(true, 0.10);
        assert_eq!(verdict(&latency, &base, &[112.0, 113.0, 111.5, 112.5, 112.2]), Verdict::Worse);
        assert_eq!(verdict(&latency, &base, &[88.0, 89.0, 87.5, 88.5, 88.2]), Verdict::Better);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        let noisy = [100.0, 130.0, 80.0, 120.0, 90.0];
        assert_eq!(verdict(&gate(true, 0.10), &noisy, &[100.0; 5]), Verdict::Unresolved);
        // One run a side has no spread to speak of.
        assert_eq!(verdict(&gate(true, 0.10), &[100.0], &[105.0]), Verdict::Same);
    }

    #[test]
    fn compares_two_result_files_end_to_end() {
        let file = |tput: f64, failed: u64| {
            Json::parse(&format!(
                r#"[{{"workload": "w", "trace": false, "ops_attempted": 10, "ops_failed": {failed},
                     "metrics": {{"throughput_eps": {{"value": {tput}, "unit": "1/s"}}}}}},
                    {{"workload": "w", "trace": true, "metrics": {{}}}}]"#
            ))
            .unwrap()
        };
        let bench = Json::parse(
            r#"{"end_to_end": [{"name": "throughput_eps", "unit": "1/s", "better": "higher", "bound": 0.08}]}"#,
        )
        .unwrap();
        let gates = gates(&bench).unwrap();
        assert_eq!(
            gates,
            vec![Gate { name: "throughput_eps".into(), lower_is_better: false, bound: 0.08 }]
        );
        assert!(compare(&file(100.0, 0), &file(97.0, 0), &gates).unwrap());
        assert!(!compare(&file(100.0, 0), &file(80.0, 0), &gates).unwrap());
        assert!(!compare(&file(100.0, 0), &file(100.0, 3), &gates).unwrap());
    }
}
