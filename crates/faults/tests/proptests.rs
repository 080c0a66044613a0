//! Property tests for `FaultPlan::generate` invariants.
//!
//! For arbitrary `(config, topology, seed)` triples the generated plan must
//! be:
//!
//! * **time-sorted** (the replay engine schedules events in order),
//! * **bit-identical** across two generations from the same inputs (the
//!   reproducibility contract behind the CI determinism gates),
//! * **replay-safe**: walking the schedule, the per-site nested down-count,
//!   the per-site node-loss stack and the per-link degradation count never
//!   go negative — every recovery is preceded by its fault,
//! * **balanced**: every `SiteDown` has a matching `SiteUp`, every
//!   `NodeLoss` a `NodeRestore`, every `LinkDegrade` a `LinkRestore`
//!   (disk losses and job kills are deliberately unpaired),
//! * **in-range**: every target index fits the topology.

use cgsim_faults::{
    DegradationSpec, DiskLossSpec, FaultAction, FaultPlan, FaultPlanConfig, FaultTopology,
    IncidentSpec, LinkSelector, MaintenanceSpec, NodeLossSpec, OutageSpec, SiteSelector,
};
use proptest::prelude::*;

/// Builds a fault-plan config from flat generated primitives. Selector codes
/// `0` mean "all"; any other value targets `code - 1` (possibly out of
/// range, which generation must tolerate by dropping the spec).
#[allow(clippy::type_complexity, clippy::too_many_arguments)]
fn build_config(
    horizon_s: f64,
    outages: &[(usize, f64, f64, f64)],
    maintenance: &[(usize, f64, f64, bool, f64)],
    incidents: &[(usize, usize, f64, f64)],
    node_losses: &[(usize, f64, f64, f64)],
    disk_losses: &[(usize, f64)],
    degradations: &[(usize, f64, f64, f64)],
    kill_rate_per_hour: f64,
) -> FaultPlanConfig {
    let site_sel = |code: usize| {
        if code == 0 {
            SiteSelector::All
        } else {
            SiteSelector::Index(code - 1)
        }
    };
    let link_sel = |code: usize| {
        if code == 0 {
            LinkSelector::All
        } else {
            LinkSelector::Index(code - 1)
        }
    };
    FaultPlanConfig {
        horizon_s,
        outages: outages
            .iter()
            .map(|&(site, mttf_s, mttr_s, shape)| OutageSpec {
                site: site_sel(site),
                mttf_s,
                mttr_s,
                shape,
            })
            .collect(),
        maintenance: maintenance
            .iter()
            .map(
                |&(site, start_s, duration_s, periodic, period_s)| MaintenanceSpec {
                    site,
                    start_s,
                    duration_s,
                    period_s: periodic.then_some(period_s),
                },
            )
            .collect(),
        incidents: incidents
            .iter()
            .map(|&(a, b, mttf_s, mttr_s)| IncidentSpec {
                sites: vec![a, b],
                mttf_s,
                mttr_s,
                shape: 1.0,
            })
            .collect(),
        node_losses: node_losses
            .iter()
            .map(|&(site, fraction, mttf_s, mttr_s)| NodeLossSpec {
                site: site_sel(site),
                fraction,
                mttf_s,
                mttr_s,
            })
            .collect(),
        disk_losses: disk_losses
            .iter()
            .map(|&(site, mttf_s)| DiskLossSpec {
                site: site_sel(site),
                mttf_s,
            })
            .collect(),
        degradations: degradations
            .iter()
            .map(|&(link, factor, mttf_s, mttr_s)| DegradationSpec {
                link: link_sel(link),
                factor,
                mttf_s,
                mttr_s,
                shape: 1.0,
            })
            .collect(),
        kill_rate_per_hour,
    }
}

proptest! {
    #[test]
    fn generated_plans_satisfy_replay_invariants(
        sites in 1usize..6,
        jobs in 1usize..60,
        seed in 0u64..1_000_000,
        horizon_s in 10_000.0f64..300_000.0,
        outages in prop::collection::vec((0usize..8, 2_000.0f64..50_000.0, 100.0f64..5_000.0, 0.5f64..3.0), 0..3),
        maintenance in prop::collection::vec((0usize..8, 0.0f64..50_000.0, 1.0f64..10_000.0, any::<bool>(), 5_000.0f64..50_000.0), 0..3),
        incidents in prop::collection::vec((0usize..8, 0usize..8, 5_000.0f64..50_000.0, 100.0f64..5_000.0), 0..2),
        node_losses in prop::collection::vec((0usize..8, 0.05f64..1.0, 2_000.0f64..50_000.0, 100.0f64..5_000.0), 0..2),
        disk_losses in prop::collection::vec((0usize..8, 2_000.0f64..50_000.0), 0..2),
        degradations in prop::collection::vec((0usize..8, 0.05f64..0.95, 2_000.0f64..50_000.0, 100.0f64..5_000.0), 0..2),
        kill_rate in 0.0f64..10.0,
    ) {
        let topo = FaultTopology {
            sites,
            // An arbitrary eligible-link list (platform link ids need not be
            // contiguous or site-aligned).
            links: (0..sites).map(|i| i * 2 + 1).collect(),
            jobs,
        };
        let config = build_config(
            horizon_s,
            &outages,
            &maintenance,
            &incidents,
            &node_losses,
            &disk_losses,
            &degradations,
            kill_rate,
        );

        let plan = FaultPlan::generate(&config, &topo, seed);

        // Bit-identical regeneration: same inputs, same schedule, down to
        // the `{:?}` rendering, which tells `-0.0` from `0.0` where `==`
        // does not.
        let again = FaultPlan::generate(&config, &topo, seed);
        prop_assert_eq!(&plan, &again);
        prop_assert_eq!(format!("{plan:?}"), format!("{again:?}"));

        // Time-sorted, finite, non-negative times.
        for pair in plan.events.windows(2) {
            prop_assert!(pair[0].time_s <= pair[1].time_s);
        }
        for e in &plan.events {
            prop_assert!(e.time_s.is_finite() && e.time_s >= 0.0);
        }

        // Replay: nested counts never go negative, all targets in range.
        let mut down_count = vec![0i64; sites];
        let mut loss_depth = vec![0i64; sites];
        let mut degrade_count = std::collections::HashMap::new();
        for e in &plan.events {
            match e.action {
                FaultAction::SiteDown { site } => {
                    prop_assert!(site < sites);
                    down_count[site] += 1;
                }
                FaultAction::SiteUp { site } => {
                    prop_assert!(site < sites);
                    down_count[site] -= 1;
                    prop_assert!(down_count[site] >= 0, "SiteUp before its SiteDown");
                }
                FaultAction::NodeLoss { site, fraction } => {
                    prop_assert!(site < sites);
                    prop_assert!(fraction > 0.0 && fraction <= 1.0);
                    loss_depth[site] += 1;
                }
                FaultAction::NodeRestore { site } => {
                    prop_assert!(site < sites);
                    loss_depth[site] -= 1;
                    prop_assert!(loss_depth[site] >= 0, "NodeRestore before its NodeLoss");
                }
                FaultAction::DiskLoss { site } => {
                    prop_assert!(site < sites);
                }
                FaultAction::LinkDegrade { link, factor } => {
                    prop_assert!(topo.links.contains(&link));
                    prop_assert!(factor > 0.0 && factor <= 1.0);
                    *degrade_count.entry(link).or_insert(0i64) += 1;
                }
                FaultAction::LinkRestore { link } => {
                    prop_assert!(topo.links.contains(&link));
                    let count = degrade_count.entry(link).or_insert(0i64);
                    *count -= 1;
                    prop_assert!(*count >= 0, "LinkRestore before its LinkDegrade");
                }
                FaultAction::KillJob { job } => {
                    prop_assert!(job < jobs);
                }
            }
        }

        // Balanced: every down has a matching up (etc.) by the end of the
        // schedule — recoveries are generated even past the horizon.
        for site in 0..sites {
            prop_assert_eq!(down_count[site], 0, "unbalanced outage at site {}", site);
            prop_assert_eq!(loss_depth[site], 0, "unbalanced node loss at site {}", site);
        }
        for (link, count) in degrade_count {
            prop_assert_eq!(count, 0, "unbalanced degradation on link {}", link);
        }

        // An empty config always produces an empty plan.
        if config.is_empty() {
            prop_assert!(plan.is_empty());
        }
    }
}
