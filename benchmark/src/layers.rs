//! Per-layer metrics of a traced run: the benchmark's own spans, the
//! simulator's `ProfileReport`, and outside estimates (operation count from
//! the results × the layer probe's unit cost) for layers the profiler does
//! not see.
//!
//! Profiler buckets are inclusive and overlap (fluid work happens inside
//! fault replay and checkpointing), so each is reported as its own share of
//! the event loop and they are never summed.

use serde_json::Value;

use crate::json::{get_f64, get_u64};
use crate::probes::Probe;
use crate::spans::{self, SelfTime};
use crate::stats::median;
use crate::workloads::{Monitoring, Shape, SimShape, Workload};

/// Name and unit of every per-layer metric a traced run reports besides the
/// probes, in report order. A layer a workload does not touch reads 0 (as a
/// share or a count, never as a time).
pub const TRACED_LAYERS: [(&str, &str); 27] = [
    ("traced_wall_s", "s"),
    ("span.platform_s", "s"),
    ("span.trace_gen_s", "s"),
    ("span.build_s", "s"),
    ("span.run_s", "s"),
    ("span.export_s", "s"),
    ("plan_gen_share", "share"),
    ("ingest_share", "share"),
    ("fluid_share", "share"),
    ("fault_replay_share", "share"),
    ("checkpoint_share", "share"),
    ("repair_share", "share"),
    ("est.queue_share", "share"),
    ("est.assign_share", "share"),
    ("est.record_share", "share"),
    ("est.stream_share", "share"),
    ("unexplained_share", "share"),
    ("serve.parse_share", "share"),
    ("serve.evaluate_share", "share"),
    ("serve.encode_share", "share"),
    ("serve.hit_ratio", "share"),
    ("engine_events", "count"),
    ("fluid_fast_solves", "count"),
    ("fluid_slow_solves", "count"),
    ("ckpt_stalls", "count"),
    ("serve.misses", "count"),
    ("serve.evictions", "count"),
];

/// Every per-layer metric name and unit: traced layers, then probes.
#[cfg(test)]
pub fn per_layer_names() -> Vec<(&'static str, &'static str)> {
    TRACED_LAYERS
        .iter()
        .chain(&crate::probes::PROBES)
        .copied()
        .collect()
}

fn probe_s(probes: &[Probe], name: &str) -> f64 {
    probes
        .iter()
        .find(|p| p.name == name)
        .unwrap_or_else(|| unreachable!("probe {name} is in PROBES"))
        .seconds
}

/// Seconds one queue hold costs at `depth`, read between the two probed
/// depths on a log scale (heap operations are O(log depth)).
fn queue_hold_s(probes: &[Probe], depth: f64) -> f64 {
    let (shallow, deep) = (
        probe_s(probes, "probe.queue_hold_1e3"),
        probe_s(probes, "probe.queue_hold_1e6"),
    );
    let t = ((depth.max(1.0).log10() - 3.0) / 3.0).clamp(0.0, 1.0);
    shallow + (deep - shallow) * t
}

fn total(table: &[SelfTime], name: &str) -> f64 {
    table
        .iter()
        .find(|r| r.name == name)
        .map_or(0.0, |r| r.total_s)
}

fn own(table: &[SelfTime], name: &str) -> f64 {
    table
        .iter()
        .find(|r| r.name == name)
        .map_or(0.0, |r| r.self_s)
}

fn share(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// The traced-layer values of one traced repetition, in `TRACED_LAYERS`
/// order; a layer the workload does not touch reads 0.
fn row_layers(workload: &Workload, row: &Value, probes: &[Probe]) -> Result<Vec<f64>, String> {
    let table = spans::self_times(&spans::from_value(
        row.get("spans").ok_or("traced row without spans")?,
    )?);
    let run_s = total(&table, "run");
    let exact = row.get("exact").ok_or("row without exact counts")?;
    let mut known: Vec<(&str, f64)> = vec![
        ("traced_wall_s", get_f64(row, "wall_s")?),
        ("span.platform_s", own(&table, "platform")),
        ("span.trace_gen_s", own(&table, "trace_gen")),
        ("span.build_s", own(&table, "build")),
        ("span.run_s", run_s),
        ("span.export_s", own(&table, "export")),
        (
            "plan_gen_share",
            share(total(&table, "plan_gen"), total(&table, "setup")),
        ),
    ];
    match workload.shape {
        Shape::Sim(shape) => {
            let profile = row.get("profile").ok_or("traced row without profile")?;
            let event_loop_s = get_f64(profile, "event_loop_s")?;
            let fluid_s = get_f64(profile, "fluid_s")?;
            let [queue, assign, record, stream] = estimates(&shape, exact, probes)?;
            let explained = fluid_s + queue + assign + record + stream;
            known.extend([
                ("ingest_share", share(run_s - event_loop_s, run_s)),
                ("fluid_share", share(fluid_s, event_loop_s)),
                (
                    "fault_replay_share",
                    share(get_f64(profile, "fault_replay_s")?, event_loop_s),
                ),
                (
                    "checkpoint_share",
                    share(get_f64(profile, "checkpoint_s")?, event_loop_s),
                ),
                (
                    "repair_share",
                    share(get_f64(profile, "repair_s")?, event_loop_s),
                ),
                ("est.queue_share", share(queue, run_s)),
                ("est.assign_share", share(assign, run_s)),
                ("est.record_share", share(record, run_s)),
                ("est.stream_share", share(stream, run_s)),
                ("unexplained_share", 1.0 - share(explained, run_s)),
                ("engine_events", get_u64(exact, "engine_events")? as f64),
                (
                    "fluid_fast_solves",
                    get_u64(profile, "fluid_fast_solves")? as f64,
                ),
                (
                    "fluid_slow_solves",
                    get_u64(profile, "fluid_slow_solves")? as f64,
                ),
                ("ckpt_stalls", get_u64(exact, "ckpt_stalls")? as f64),
            ]);
        }
        Shape::Serve(_) => {
            let serve = row.get("serve").ok_or("serve row without serve block")?;
            known.extend([
                ("serve.parse_share", share(total(&table, "parse"), run_s)),
                (
                    "serve.evaluate_share",
                    share(total(&table, "evaluate"), run_s),
                ),
                ("serve.encode_share", share(total(&table, "encode"), run_s)),
                ("serve.hit_ratio", get_f64(serve, "hit_ratio")?),
                ("serve.misses", get_u64(exact, "misses")? as f64),
                ("serve.evictions", get_u64(exact, "evictions")? as f64),
            ]);
        }
    }
    debug_assert!(known
        .iter()
        .all(|(name, _)| TRACED_LAYERS.iter().any(|(n, _)| n == name)));
    Ok(TRACED_LAYERS
        .iter()
        .map(|(name, _)| known.iter().find(|(n, _)| n == name).map_or(0.0, |k| k.1))
        .collect())
}

/// Outside estimates, in seconds, of what the queue, the allocation policy,
/// the monitor and the trace stream cost inside `run()`.
fn estimates(shape: &SimShape, exact: &Value, probes: &[Probe]) -> Result<[f64; 4], String> {
    let jobs = get_u64(exact, "jobs")? as f64;
    // Every event is scheduled once and popped once: one hold. All submits
    // are queued before the first fires, so the queue is about `jobs` deep.
    let queue = get_u64(exact, "engine_events")? as f64 * queue_hold_s(probes, jobs);
    // A lower bound: pending jobs reconsidered when cores free up call the
    // policy again, and the results do not count those calls.
    let dispatches = jobs + get_u64(exact, "fault_retries")? as f64;
    let policy = if shape.policy == "data-aware" {
        "da"
    } else {
        "ll"
    };
    let width = if shape.sites >= 100 { 200 } else { 12 };
    let assign = dispatches * probe_s(probes, &format!("probe.assign_{policy}_{width}"));
    let record_probe = match shape.monitoring {
        Monitoring::Bounded => "probe.record_bounded",
        Monitoring::Full => "probe.record_full",
    };
    let record = get_u64(exact, "monitor_transitions")? as f64 * probe_s(probes, record_probe);
    // A materialised trace is generated during set-up, outside `run()`.
    let stream = if shape.streamed {
        jobs * probe_s(probes, "probe.stream")
    } else {
        0.0
    };
    Ok([queue, assign, record, stream])
}

/// Every per-layer metric of a traced run: the median over its traced
/// repetitions of each traced layer, then the probes.
pub fn per_layer(
    workload: &Workload,
    traced_rows: &[&Value],
    probes: &[Probe],
) -> Result<Vec<(&'static str, &'static str, f64)>, String> {
    let rows: Vec<Vec<f64>> = traced_rows
        .iter()
        .map(|row| row_layers(workload, row, probes))
        .collect::<Result<_, _>>()?;
    let mut out: Vec<(&'static str, &'static str, f64)> = TRACED_LAYERS
        .iter()
        .enumerate()
        .map(|(i, &(name, unit))| {
            let column: Vec<f64> = rows.iter().map(|r| r[i]).collect();
            (name, unit, median(&column))
        })
        .collect();
    out.extend(probes.iter().map(|p| (p.name, p.unit, p.value())));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probes::PROBES;

    #[test]
    fn queue_cost_is_read_between_the_probed_depths() {
        let probes: Vec<Probe> = PROBES
            .iter()
            .map(|&(name, unit)| Probe {
                name,
                unit,
                seconds: match name {
                    "probe.queue_hold_1e3" => 100e-9,
                    "probe.queue_hold_1e6" => 400e-9,
                    _ => 1e-9,
                },
            })
            .collect();
        assert!((queue_hold_s(&probes, 1e3) - 100e-9).abs() < 1e-15);
        assert!((queue_hold_s(&probes, 1e6) - 400e-9).abs() < 1e-15);
        assert!((queue_hold_s(&probes, 31_622.776) - 250e-9).abs() < 1e-12);
        assert!((queue_hold_s(&probes, 10.0) - 100e-9).abs() < 1e-15);
        assert!((queue_hold_s(&probes, 1e9) - 400e-9).abs() < 1e-15);
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let names = per_layer_names();
        for (i, (name, unit)) in names.iter().enumerate() {
            assert!(names[..i].iter().all(|(n, _)| n != name), "{name} twice");
            assert!(name.len() <= 64 && unit.len() <= 16);
            assert!(name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
    }
}
