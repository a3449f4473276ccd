//! `compare A.json B.json`: two archives of runs (`--out` files) side
//! by side, per workload and end-to-end metric, against the bounds
//! `BENCHMARK.json` fixes.
//!
//! An archive is a JSON array of run records; runs of one workload are
//! summarised by their median. The spread is taken between runs when a
//! side holds four or more of a workload (first to third quartile over
//! the median, as the acceptance procedure does), otherwise between the
//! rounds inside its runs. A pair whose spread is wider than the bound
//! is `unresolved`, never `ok`.

use crate::json;
use crate::stats::{median, spread};
use serde::Value;
use std::path::Path;

/// One side's view of one (workload, metric) pair.
struct Side {
    median: f64,
    spread: f64,
    runs: usize,
}

fn load(path: &Path) -> Result<Vec<Value>, String> {
    match json::read(path)? {
        Value::Array(runs) => Ok(runs),
        _ => Err(format!("{} is not an array of run records", path.display())),
    }
}

fn side(runs: &[Value], workload: &str, metric: &str) -> Option<Side> {
    let entries: Vec<&Value> = runs
        .iter()
        .filter(|run| json::child(run, "workload").and_then(Value::as_str) == Some(workload))
        .filter_map(|run| json::child(json::child(run, "metrics")?, metric))
        .collect();
    let values: Vec<f64> = entries
        .iter()
        .filter_map(|e| json::number(e, "value"))
        .collect();
    if values.is_empty() {
        return None;
    }
    let spread = if values.len() >= 4 {
        spread(&values)
    } else {
        // Too few runs to compare with each other: the widest spread
        // among the rounds inside them.
        entries
            .iter()
            .filter_map(|e| json::child(e, "rounds")?.as_array())
            .map(|rounds| {
                let rounds: Vec<f64> = rounds.iter().filter_map(json::as_f64).collect();
                spread(&rounds)
            })
            .fold(0.0, f64::max)
    };
    Some(Side {
        median: median(&values),
        spread,
        runs: values.len(),
    })
}

/// `(name, better, bound)` of every end-to-end metric `BENCHMARK.json`
/// declares.
fn bounds(benchmark: &Path) -> Result<Vec<(String, String, f64)>, String> {
    let value = json::read(benchmark)?;
    let list = json::child(&value, "end_to_end")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    list.iter()
        .map(|m| {
            let text = |key: &str| {
                json::child(m, key)
                    .and_then(Value::as_str)
                    .map(str::to_string)
            };
            match (text("name"), text("better"), json::number(m, "bound")) {
                (Some(name), Some(better), Some(bound)) => Ok((name, better, bound)),
                _ => {
                    Err("a BENCHMARK.json end_to_end entry lacks name, better or bound".to_string())
                }
            }
        })
        .collect()
}

/// How much worse `b` is than `a`, as a share of `a` (negative when it
/// is better).
fn worsening(a: f64, b: f64, better: &str) -> f64 {
    let change = (b - a) / a.abs().max(1e-12);
    if better == "higher" {
        -change
    } else {
        change
    }
}

/// Print the comparison; returns whether any pair regressed.
pub fn compare(a: &Path, b: &Path, benchmark: &Path) -> Result<bool, String> {
    let (runs_a, runs_b) = (load(a)?, load(b)?);
    let bounds = bounds(benchmark)?;
    println!(
        "{:<12} {:<18} {:>14} {:>14} {:>8} {:>7} {:>8} {:>8}  verdict",
        "workload", "metric", "A median", "B median", "worse%", "bound%", "A sprd%", "B sprd%"
    );
    let mut regressed = false;
    for workload in crate::metrics::WORKLOADS {
        for (metric, better, bound) in &bounds {
            let (Some(sa), Some(sb)) = (
                side(&runs_a, workload, metric),
                side(&runs_b, workload, metric),
            ) else {
                continue;
            };
            let worse = worsening(sa.median, sb.median, better);
            let verdict = if sa.spread.max(sb.spread) > *bound {
                "unresolved"
            } else if worse > *bound {
                regressed = true;
                "REGRESSION"
            } else {
                "ok"
            };
            println!(
                "{:<12} {:<18} {:>14.4} {:>14.4} {:>+8.2} {:>7.1} {:>8.2} {:>8.2}  {verdict} ({}v{} runs)",
                workload,
                metric,
                sa.median,
                sb.median,
                100.0 * worse,
                100.0 * bound,
                100.0 * sa.spread,
                100.0 * sb.spread,
                sa.runs,
                sb.runs,
            );
        }
    }
    Ok(regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worsening_follows_the_metric_direction() {
        assert!((worsening(100.0, 110.0, "lower") - 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 110.0, "higher") + 0.10).abs() < 1e-12);
        assert!((worsening(200.0, 150.0, "higher") - 0.25).abs() < 1e-12);
    }

    #[test]
    fn side_summarises_runs_by_median_and_picks_the_right_spread() {
        let run = |value: f64, rounds: &str| -> Value {
            serde_json::from_str(&format!(
                "{{\"workload\":\"hot_paper\",\"metrics\":{{\"throughput_qps\":\
                 {{\"value\":{value},\"samples\":5,\"rounds\":{rounds}}}}}}}"
            ))
            .unwrap()
        };
        // Two runs: the spread comes from the rounds inside them.
        let few = [run(100.0, "[90.0,100.0,110.0]"), run(104.0, "[104.0]")];
        let s = side(&few, "hot_paper", "throughput_qps").unwrap();
        assert_eq!((s.median, s.runs), (102.0, 2));
        assert!((s.spread - 0.2).abs() < 1e-12);
        // Five runs: the spread between runs (quartiles 1.5 and 12 of
        // 1, 2, 4, 8, 16 over the median 4).
        let many: Vec<Value> = [1.0, 2.0, 4.0, 8.0, 16.0]
            .iter()
            .map(|&v| run(v, "[]"))
            .collect();
        let s = side(&many, "hot_paper", "throughput_qps").unwrap();
        assert!((s.spread - 10.5 / 4.0).abs() < 1e-12);
        assert!(side(&many, "cold_stress", "throughput_qps").is_none());
    }
}
