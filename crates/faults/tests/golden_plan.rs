//! Golden regression pin for `FaultPlan::generate`.
//!
//! One config drives all seven process kinds at once, so the fingerprint
//! covers every RNG stream's draw order (gap, then repair, then — for kills —
//! the target), the per-`(spec, target)` stream salts and the stable sort.
//! Any change to those moves every faulted fingerprint in the repository;
//! this one fails first and names the generator.

use cgsim_faults::{
    DegradationSpec, DiskLossSpec, FaultPlan, FaultPlanConfig, FaultTopology, IncidentSpec,
    LinkSelector, MaintenanceSpec, NodeLossSpec, OutageSpec, SiteSelector,
};

/// FNV-1a over every event: the raw bits of its time and the `Debug` render
/// of its action (variant, targets, and `f64` fields in round-trip form).
fn fingerprint(plan: &FaultPlan) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    };
    for e in &plan.events {
        eat(&e.time_s.to_bits().to_le_bytes());
        eat(format!("{:?}", e.action).as_bytes());
    }
    h
}

#[test]
fn all_seven_process_kinds_fingerprint_is_stable() {
    let config = FaultPlanConfig {
        horizon_s: 200_000.0,
        outages: vec![OutageSpec {
            site: SiteSelector::All,
            mttf_s: 30_000.0,
            mttr_s: 2_000.0,
            shape: 1.7,
        }],
        maintenance: vec![MaintenanceSpec {
            site: 1,
            start_s: 5_000.0,
            duration_s: 3_600.0,
            period_s: Some(40_000.0),
        }],
        incidents: vec![IncidentSpec {
            sites: vec![0, 3],
            mttf_s: 60_000.0,
            mttr_s: 4_000.0,
            shape: 0.8,
        }],
        node_losses: vec![NodeLossSpec {
            site: SiteSelector::Index(2),
            fraction: 0.25,
            mttf_s: 20_000.0,
            mttr_s: 1_500.0,
        }],
        disk_losses: vec![DiskLossSpec {
            site: SiteSelector::All,
            mttf_s: 80_000.0,
        }],
        degradations: vec![DegradationSpec {
            link: LinkSelector::All,
            factor: 0.3,
            mttf_s: 25_000.0,
            mttr_s: 3_000.0,
            shape: 1.3,
        }],
        kill_rate_per_hour: 1.5,
    };
    let topo = FaultTopology {
        sites: 4,
        links: vec![4, 5, 6, 7],
        jobs: 1_000,
    };
    let plan = FaultPlan::generate(&config, &topo, 42);
    let variants: std::collections::HashSet<_> = plan
        .events
        .iter()
        .map(|e| std::mem::discriminant(&e.action))
        .collect();
    assert_eq!(variants.len(), 8, "every fault action must occur");
    assert_eq!(
        (plan.len(), fingerprint(&plan)),
        (216, 3897500963466983702),
        "FaultPlan::generate output changed — the RNG draw order must stay byte-identical"
    );
}
