//! `compare A.json B.json`: two result files of `all`, row by row. Used for
//! the A/A check (same commit twice) and for parent-versus-change runs.

use serde_json::Value;

use crate::json::get_f64;
use crate::stats::quartiles;
use crate::workloads::{E2eMetric, E2E_METRICS, WORKLOADS};

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Verdict {
    /// B's median is within the bound of A's.
    Ok,
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// Neither: a side's own run-to-run spread is wider than the bound, so
    /// "no worse" cannot be told from "not measured well enough".
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// The rule (every metric is lower-is-better): worse when B's median exceeds
/// A's by more than the allowance; otherwise unresolved when either side's
/// interquartile distance exceeds its allowance; otherwise ok. The allowance
/// of a median is the bound's share of it, or the metric's floor if larger.
pub fn verdict(a: &[f64], b: &[f64], metric: &E2eMetric) -> Verdict {
    let (a1, a_med, a3) = quartiles(a);
    let (b1, b_med, b3) = quartiles(b);
    let allowance = |median: f64| (metric.bound * median).max(metric.floor);
    if b_med > a_med + allowance(a_med) {
        Verdict::Worse
    } else if a3 - a1 > allowance(a_med) || b3 - b1 > allowance(b_med) {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    }
}

fn samples(file: &Value, workload: &str, metric: &str) -> Option<Vec<f64>> {
    file.get("workloads")?
        .get(workload)?
        .get("end_to_end")?
        .get(metric)?
        .get("values")?
        .as_array()?
        .iter()
        .map(Value::as_f64)
        .collect()
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
}

/// Prints the comparison; `Ok(true)` when no row is worse and no workload's
/// failed share rose.
pub fn run(path_a: &str, path_b: &str) -> Result<bool, String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    println!("A = {path_a}\nB = {path_b}");
    println!(
        "{:<12} {:<12} {:>34} {:>34} {:>22} {:>6}  verdict",
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "B/A (base A)", "bound"
    );
    let mut clean = true;
    for workload in &WORKLOADS {
        let entry = |file: &Value| {
            file.get("workloads")
                .and_then(|w| w.get(workload.name))
                .cloned()
        };
        let (Some(wa), Some(wb)) = (entry(&a), entry(&b)) else {
            println!("{:<12} missing from one file, skipped", workload.name);
            continue;
        };
        for metric in &E2E_METRICS {
            let (Some(va), Some(vb)) = (
                samples(&a, workload.name, metric.name),
                samples(&b, workload.name, metric.name),
            ) else {
                return Err(format!("{}: no samples of {}", workload.name, metric.name));
            };
            let (a1, a2, a3) = quartiles(&va);
            let (b1, b2, b3) = quartiles(&vb);
            let v = verdict(&va, &vb, metric);
            clean &= v != Verdict::Worse;
            println!(
                "{:<12} {:<12} {:>34} {:>34} {:>22} {:>5.0}%  {}",
                workload.name,
                metric.name,
                format!("{a2:.4} [{a1:.4}, {a3:.4}] {}", metric.unit),
                format!("{b2:.4} [{b1:.4}, {b3:.4}] {}", metric.unit),
                format!("{:.4} ({a2:.4} {})", b2 / a2, metric.unit),
                metric.bound * 100.0,
                v.label()
            );
        }
        let (fa, fb) = (get_f64(&wa, "failed_share")?, get_f64(&wb, "failed_share")?);
        let rose = fb > fa;
        clean &= !rose;
        let same =
            wa.get("exact") == wb.get("exact") && wa.get("fingerprint") == wb.get("fingerprint");
        println!(
            "{:<12} failed_share A {fa:.4} B {fb:.4} ({}); exact counts and fingerprint {}",
            workload.name,
            if rose { "ROSE" } else { "not higher" },
            if same { "identical" } else { "DIFFER" }
        );
    }
    println!(
        "{}",
        if clean {
            "compare: no row worse, no failed share higher"
        } else {
            "compare: REGRESSION (a row is worse or a failed share rose)"
        }
    );
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOWER: E2eMetric = E2eMetric {
        name: "wall_s",
        unit: "s",
        bound: 0.10,
        floor: 0.0,
    };

    #[test]
    fn within_the_bound_or_better_is_ok() {
        let a = [1.00, 1.01, 0.99];
        assert_eq!(verdict(&a, &[1.09, 1.08, 1.10], &LOWER), Verdict::Ok);
        assert_eq!(verdict(&a, &[0.50, 0.51, 0.49], &LOWER), Verdict::Ok);
    }

    #[test]
    fn beyond_the_bound_is_worse() {
        let a = [1.00, 1.01, 0.99];
        assert_eq!(verdict(&a, &[1.12, 1.11, 1.13], &LOWER), Verdict::Worse);
        // Worse wins over a wide spread.
        assert_eq!(verdict(&a, &[1.2, 2.0, 3.0], &LOWER), Verdict::Worse);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_not_ok() {
        let a = [1.00, 1.01, 0.99];
        // B's median is fine but its quartiles are 30 % apart.
        assert_eq!(verdict(&a, &[0.85, 1.0, 1.15], &LOWER), Verdict::Unresolved);
        // The noisy side may be A.
        assert_eq!(
            verdict(&[0.85, 1.0, 1.15], &[1.0, 1.0, 1.0], &LOWER),
            Verdict::Unresolved
        );
    }

    #[test]
    fn below_the_floor_nothing_is_worse_or_unresolved() {
        let floored = E2eMetric {
            floor: 0.05,
            ..LOWER
        };
        // 0.2 ms against 0.3 ms is +50 %, and 50 µs.
        let (a, b) = ([0.0002, 0.0002, 0.0003], [0.0003, 0.0003, 0.0004]);
        assert_eq!(verdict(&a, &b, &LOWER), Verdict::Worse);
        assert_eq!(verdict(&a, &b, &floored), Verdict::Ok);
        // Above the floor the share rules again.
        assert_eq!(
            verdict(&[1.0, 1.0, 1.0], &[1.2, 1.2, 1.2], &floored),
            Verdict::Worse
        );
    }
}
