//! `easis_bench compare A.jsonl B.jsonl`: compares two sets of runs.
//!
//! Each file holds run records, one JSON object per line, as the benchmark
//! writes them under `target/bench/`. For every (workload, metric) both
//! sets report, the table gives each side's median and quartiles and how
//! much worse B is than A as a share of A's median. End-to-end metrics
//! are judged against their bound in `BENCHMARK.json`:
//!
//! * `unresolved` — either side's quartile spread exceeds the bound, and
//!   not every B run beats every A run (then `better`);
//! * `regressed` — B's median is worse than A's by more than the bound;
//! * `ok` — otherwise.

use crate::stats::{median, quartiles};
use serde_json::Value;
use std::collections::BTreeMap;

type Samples = BTreeMap<(String, String), Vec<f64>>;

struct Rule {
    lower_is_better: bool,
    bound: Option<f64>,
}

fn number(value: &Value) -> Option<f64> {
    match *value {
        Value::Float(f) => Some(f),
        Value::UInt(n) => Some(n as f64),
        Value::Int(n) => Some(n as f64),
        _ => None,
    }
}

fn text(value: &Value) -> Option<&str> {
    match value {
        Value::Str(s) => Some(s),
        _ => None,
    }
}

fn load_records(path: &str) -> Result<Samples, String> {
    let body = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut samples = Samples::new();
    for (n, line) in body
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let bad = |what: &str| format!("{path}:{}: {what}", n + 1);
        let record = serde_json::parse_value(line).map_err(|e| bad(&e.to_string()))?;
        let workload = record
            .map_get("workload")
            .ok()
            .and_then(text)
            .ok_or_else(|| bad("record has no workload"))?;
        let metrics = record
            .map_get("metrics")
            .and_then(|m| m.as_map())
            .map_err(|e| bad(&e.to_string()))?;
        for (name, metric) in metrics {
            let value = metric
                .map_get("value")
                .ok()
                .and_then(number)
                .ok_or_else(|| bad(&format!("metric {name} has no numeric value")))?;
            samples
                .entry((workload.to_string(), name.clone()))
                .or_default()
                .push(value);
        }
    }
    if samples.is_empty() {
        return Err(format!("{path}: no run records"));
    }
    Ok(samples)
}

fn load_rules(path: &str) -> Result<BTreeMap<String, Rule>, String> {
    let body = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let spec = serde_json::parse_value(&body).map_err(|e| format!("{path}: {e}"))?;
    let mut rules = BTreeMap::new();
    for section in ["end_to_end", "per_layer"] {
        let entries = spec
            .map_get(section)
            .and_then(|s| s.as_seq())
            .map_err(|e| format!("{path}: {section}: {e}"))?;
        for entry in entries {
            let field = |key: &str| entry.map_get(key).ok();
            let name = field("name")
                .and_then(text)
                .ok_or_else(|| format!("{path}: {section} entry without a name"))?;
            rules.insert(
                name.to_string(),
                Rule {
                    lower_is_better: field("better").and_then(text) == Some("lower"),
                    bound: field("bound").and_then(number),
                },
            );
        }
    }
    Ok(rules)
}

/// Prints the comparison table; returns `false` when an end-to-end metric
/// regressed or is unresolved.
pub fn run(a_path: &str, b_path: &str, benchmark_json: &str) -> Result<bool, String> {
    let a = load_records(a_path)?;
    let b = load_records(b_path)?;
    let rules = load_rules(benchmark_json)?;
    println!(
        "{:<10} {:<40} {:>28} {:>28} {:>8} {:>6}  verdict",
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "worse", "bound"
    );
    let mut agree = true;
    for (key, a_values) in &a {
        let Some(b_values) = b.get(key) else { continue };
        let (ma, mb) = (median(a_values), median(b_values));
        let (qa, qb) = (quartiles(a_values), quartiles(b_values));
        let rule = rules.get(&key.1);
        let lower = rule.is_none_or(|r| r.lower_is_better);
        let worse = if ma == 0.0 {
            0.0
        } else if lower {
            (mb - ma) / ma
        } else {
            (ma - mb) / ma
        };
        let verdict = match rule.and_then(|r| r.bound) {
            None => "-",
            Some(bound) => {
                let spread = |q: [f64; 3], m: f64| (q[2] - q[0]) / m;
                let min = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
                let max = |v: &[f64]| v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                let all_better = if lower {
                    max(b_values) < min(a_values)
                } else {
                    min(b_values) > max(a_values)
                };
                if spread(qa, ma).max(spread(qb, mb)) > bound {
                    if all_better {
                        "better"
                    } else {
                        "unresolved"
                    }
                } else if worse > bound {
                    "regressed"
                } else {
                    "ok"
                }
            }
        };
        agree &= !matches!(verdict, "regressed" | "unresolved");
        let side = |m: f64, q: [f64; 3]| format!("{m:.4} [{:.4}, {:.4}]", q[0], q[2]);
        let bound = rule
            .and_then(|r| r.bound)
            .map_or("-".to_string(), |b| format!("{:.0}%", b * 100.0));
        println!(
            "{:<10} {:<40} {:>28} {:>28} {:>7.2}% {:>6}  {verdict}",
            key.0,
            key.1,
            side(ma, qa),
            side(mb, qb),
            worse * 100.0,
            bound,
        );
    }
    Ok(agree)
}
