//! Census of the data-movement decision: every registered data-movement
//! policy changes the jobs table of a scenario where the data decision
//! matters, so none is inert. The policies are the only way to set where a
//! job's input comes from and whether the execution site keeps it, so
//! `main-server-source` and `never-cache` are counted with the rest.
//!
//! The scenario is data-heavy on constrained links: four sites joined by a
//! fast, low-latency mesh, each reaching the main server over a slow,
//! high-latency uplink, and inputs of 10 GB on average. A replica at another
//! site is then the lowest-latency source, so the source choice and the
//! cache admission both move jobs.

use cgsim::platform::{spec::MAIN_SERVER, LinkSpec};
use cgsim::prelude::*;

/// Policies known to leave this scenario's jobs table as the default's,
/// each with the reason. The list may only shrink: a listed policy that
/// starts to act fails the census until it is taken off.
const INERT: &[(&str, &str)] = &[];

fn mesh_platform() -> PlatformSpec {
    let mut spec = PlatformSpec::new("data-mesh");
    let names: Vec<String> = (0..4).map(|i| format!("S{i}")).collect();
    for (i, name) in names.iter().enumerate() {
        // Each uplink is slow and far, each site-to-site link fast and near.
        let skew = i as f64;
        spec.sites
            .push(SiteSpec::uniform(name, Tier::Tier2, 32, 10.0));
        let links = &mut spec.network.links;
        links.push(LinkSpec::new(name, MAIN_SERVER, 1.0, 100.0 + skew));
        for other in &names[..i] {
            links.push(LinkSpec::new(name, other, 10.0, 5.0 + skew));
        }
    }
    spec
}

/// `jobs.csv` of the scenario run under the data-movement policy `policy`.
fn jobs_table(platform: &PlatformSpec, trace: &Trace, policy: &str) -> String {
    let execution = ExecutionConfig {
        data_movement_policy: policy.to_string(),
        ..ExecutionConfig::default()
    };
    let results = Simulation::builder()
        .platform_spec(platform)
        .unwrap()
        .trace(trace.clone())
        .execution(execution)
        .run()
        .unwrap();
    results.to_table_store().get("jobs").unwrap().to_csv()
}

#[test]
fn every_data_movement_policy_moves_the_jobs_table() {
    let platform = mesh_platform();
    let mut config = TraceConfig::with_jobs(200, 1);
    config.mean_file_bytes = 2.5e9;
    let trace = TraceGenerator::new(config).generate(&platform);
    let names = DataPolicyRegistry::with_builtins().names();
    for replacement in ["main-server-source", "never-cache"] {
        assert!(names.iter().any(|n| n == replacement), "{replacement}");
    }
    for (policy, _) in INERT {
        assert!(
            names.iter().any(|n| n == policy),
            "{policy} is not registered"
        );
    }

    let default = jobs_table(&platform, &trace, "default-data-movement");
    for policy in names.iter().filter(|n| *n != "default-data-movement") {
        let inert = INERT.iter().any(|(name, _)| name == policy);
        let moved = jobs_table(&platform, &trace, policy) != default;
        assert!(
            moved != inert,
            "{policy}: jobs table {} the default's, but the allow-list says {}",
            if moved { "differs from" } else { "equals" },
            if inert { "inert" } else { "it acts" },
        );
    }
}
