//! Writing a scheduling plugin (paper §3.3): implement the `AllocationPolicy`
//! trait, register it under a name, select it from the execution
//! configuration, and compare it against the built-in policies — all without
//! touching the simulator core.
//!
//! The example policy is a *tier-aware backfill*: multi-core production jobs
//! go to the largest Tier-0/1 sites, single-core analysis jobs backfill the
//! Tier-2 sites with the most free cores.
//!
//! ```bash
//! cargo run --release --example custom_policy
//! ```

use cgsim::platform::Tier;
use cgsim::prelude::*;

/// The user-written plugin.
struct TierAwareBackfill {
    info: GridInfo,
}

impl TierAwareBackfill {
    fn new() -> Self {
        TierAwareBackfill {
            info: GridInfo::default(),
        }
    }
}

impl AllocationPolicy for TierAwareBackfill {
    fn name(&self) -> &str {
        "tier-aware-backfill"
    }

    // The paper's getResourceInformation hook: capture the static topology.
    fn get_resource_information(&mut self, info: &GridInfo) {
        self.info = info.clone();
    }

    // The paper's assignJob hook: the actual placement decision.
    fn assign_job(&mut self, job: &JobRecord, view: &GridView) -> Option<cgsim::platform::SiteId> {
        let is_production = job.kind == JobKind::MultiCore;
        let candidates = view.sites.iter().filter(|load| {
            let tier = self.info.sites[load.site.index()].tier;
            let tier_matches = if is_production {
                matches!(tier, Tier::Tier0 | Tier::Tier1)
            } else {
                matches!(tier, Tier::Tier2 | Tier::Tier3)
            };
            tier_matches && load.available_cores >= job.cores as u64
        });
        candidates
            .max_by_key(|load| load.available_cores)
            .map(|load| load.site)
            // Fall back to any site with room, then to the least-queued site.
            .or_else(|| {
                view.sites_with_free_cores(job.cores as u64)
                    .max_by_key(|l| l.available_cores)
                    .map(|l| l.site)
            })
            .or_else(|| {
                view.sites
                    .iter()
                    .min_by_key(|l| l.queued_jobs)
                    .map(|l| l.site)
            })
    }
}

fn run_policy(
    platform: &PlatformSpec,
    trace: &Trace,
    registry: PolicyRegistry,
    name: &str,
) -> SimulationResults {
    Simulation::builder()
        .platform_spec(platform)
        .expect("platform is valid")
        .trace(trace.clone())
        .registry(registry)
        .execution(ExecutionConfig::with_policy(name))
        .run()
        .expect("simulation runs")
}

fn main() {
    let platform = wlcg_platform(20, 99);
    let trace = TraceGenerator::new(TraceConfig::with_jobs(2_000, 3)).generate(&platform);

    println!(
        "{:<22} {:>12} {:>14} {:>14} {:>12}",
        "policy", "makespan_h", "mean_queue_s", "p95_queue_s", "failures"
    );
    for name in [
        "tier-aware-backfill",
        "least-loaded",
        "round-robin",
        "random",
    ] {
        // Register the plugin under a configuration-visible name (the moral
        // equivalent of dropping a shared library next to the simulator).
        let mut reg = PolicyRegistry::with_builtins();
        reg.register(
            "tier-aware-backfill",
            |_| Box::new(TierAwareBackfill::new()),
        );
        let results = run_policy(&platform, &trace, reg, name);
        let queue = results.metrics.queue_time.as_ref();
        println!(
            "{:<22} {:>12.2} {:>14.1} {:>14.1} {:>12}",
            name,
            results.metrics.makespan_s / 3600.0,
            queue.map(|s| s.mean).unwrap_or(0.0),
            queue.map(|s| s.p95).unwrap_or(0.0),
            results.metrics.failed_jobs
        );
    }
    println!("\nA lower makespan / queue time for the plugin shows the policy is actually");
    println!("driving placement; swapping policies never required changes to cgsim-core.");
}
