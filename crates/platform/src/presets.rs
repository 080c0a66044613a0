//! Platform presets: WLCG-like grids for the paper's experiments.
//!
//! The paper's case study models the subset of the WLCG that supports the
//! ATLAS experiment: roughly 200 centres across 40+ countries, with per-site
//! capacities of 100–2,000 cores in the scalability experiments and nominal
//! per-core speeds taken from HEPScore23 benchmarking. Production site
//! configurations are not public at that granularity, so [`wlcg_platform`]
//! generates a synthetic but statistically faithful equivalent:
//!
//! * one Tier-0 (CERN-like) site, ~20 % Tier-1 sites, the rest Tier-2,
//! * core counts drawn from tier-dependent ranges (Tier-0 the largest,
//!   Tier-2 sites in the 100–2,000 core range used in Fig. 4),
//! * per-core HS23-like speeds with realistic heterogeneity (±30 %),
//! * WAN links whose latency grows with a synthetic "distance from CERN" and
//!   whose bandwidth decreases with tier,
//! * the first sites reuse real ATLAS site names (BNL, CERN, DESY-ZN,
//!   LRZ-LMU, …) so monitoring output looks like the paper's Table 1.

use cgsim_des::rng::Rng;

use crate::spec::{LinkSpec, PlatformSpec, SiteSpec, Tier, MAIN_SERVER};

/// Well-known ATLAS site names used for the first generated sites (the same
/// names appear in the paper's Table 1 and Fig. 3).
pub(crate) const ATLAS_SITE_NAMES: &[&str] = &[
    "CERN",
    "BNL",
    "TRIUMF",
    "FZK-LCG2",
    "IN2P3-CC",
    "RAL-LCG2",
    "CNAF",
    "PIC",
    "NDGF-T1",
    "SARA-MATRIX",
    "DESY-ZN",
    "LRZ-LMU",
    "MWT2",
    "AGLT2",
    "SWT2",
    "NET2",
    "SLAC",
    "UKI-NORTHGRID",
    "IFIC-LCG2",
    "TOKYO-LCG2",
    "PRAGUELCG2",
    "SIGNET",
    "WUPPERTALPROD",
    "GOEGRID",
    "UNIBE-LHEP",
    "AUSTRALIA-ATLAS",
    "INFN-NAPOLI",
    "INFN-MILANO",
    "GRIF",
    "BEIJING-LCG2",
];

/// Options controlling preset generation.
#[derive(Debug, Clone)]
pub struct PresetOptions {
    /// Number of sites to generate.
    pub site_count: usize,
    /// RNG seed (site capacities, speeds and latencies are sampled).
    pub seed: u64,
    /// Minimum cores for Tier-2 sites.
    pub min_cores: u32,
    /// Maximum cores for Tier-2 sites.
    pub max_cores: u32,
    /// Mean nominal per-core speed in HS23-like units.
    pub mean_speed: f64,
    /// Fractional speed heterogeneity across sites (0.3 = ±30 %).
    pub speed_spread: f64,
}

impl Default for PresetOptions {
    fn default() -> Self {
        PresetOptions {
            site_count: 50,
            seed: 0xC6_51_15,
            min_cores: 100,
            max_cores: 2_000,
            mean_speed: 10.0,
            speed_spread: 0.3,
        }
    }
}

/// Generates a WLCG-like platform with `site_count` sites (see module docs).
pub fn wlcg_platform(site_count: usize, seed: u64) -> PlatformSpec {
    wlcg_platform_with(PresetOptions {
        site_count,
        seed,
        ..PresetOptions::default()
    })
}

/// Generates a WLCG-like platform with full control over the options.
pub(crate) fn wlcg_platform_with(options: PresetOptions) -> PlatformSpec {
    assert!(options.site_count > 0, "need at least one site");
    let mut rng = Rng::new(options.seed);
    let mut spec = PlatformSpec::new(format!("wlcg-{}-sites", options.site_count));

    for i in 0..options.site_count {
        let name = match ATLAS_SITE_NAMES.get(i) {
            Some(known) => known.to_string(),
            None => format!("SITE-{i:03}"),
        };
        let tier = if i == 0 {
            Tier::Tier0
        } else if i % 5 == 1 {
            Tier::Tier1
        } else {
            Tier::Tier2
        };
        let cores = match tier {
            Tier::Tier0 => 4_000 + rng.index(4_000) as u32,
            Tier::Tier1 => 1_000 + rng.index(2_000) as u32,
            _ => {
                options.min_cores
                    + rng.index((options.max_cores - options.min_cores).max(1) as usize) as u32
            }
        };
        let speed = options.mean_speed
            * (1.0 + options.speed_spread * (2.0 * rng.uniform() - 1.0)).max(0.1);
        let storage_tb = match tier {
            Tier::Tier0 => 80_000.0,
            Tier::Tier1 => 20_000.0 + rng.uniform() * 20_000.0,
            _ => 1_000.0 + rng.uniform() * 5_000.0,
        };
        let mut site = SiteSpec::uniform(&name, tier, cores, speed);
        site.country = synth_country(i);
        site.storage_tb = storage_tb;
        site.internal_bandwidth_gbps = match tier {
            Tier::Tier0 => 400.0,
            Tier::Tier1 => 200.0,
            _ => 100.0,
        };
        spec.sites.push(site);

        // WAN uplink to the main server.
        let (bandwidth, base_latency) = match tier {
            Tier::Tier0 => (200.0, 2.0),
            Tier::Tier1 => (100.0, 10.0),
            _ => (20.0, 20.0),
        };
        let latency = base_latency + rng.uniform() * 80.0;
        spec.network
            .links
            .push(LinkSpec::new(&name, MAIN_SERVER, bandwidth, latency));
    }

    // A few direct Tier-0 <-> Tier-1 backbone links (LHCOPN-like).
    let t1_names: Vec<String> = spec
        .sites
        .iter()
        .filter(|s| s.tier == Tier::Tier1)
        .map(|s| s.name.clone())
        .collect();
    if let Some(t0) = spec.sites.first().map(|s| s.name.clone()) {
        for t1 in &t1_names {
            spec.network.links.push(LinkSpec::new(
                t0.clone(),
                t1.clone(),
                100.0,
                5.0 + rng.uniform() * 40.0,
            ));
        }
    }
    spec
}

fn synth_country(i: usize) -> String {
    const COUNTRIES: &[&str] = &[
        "CH", "US", "CA", "DE", "FR", "UK", "IT", "ES", "SE", "NL", "DE", "DE", "US", "US", "US",
        "US", "US", "UK", "ES", "JP", "CZ", "SI", "DE", "DE", "CH", "AU", "IT", "IT", "FR", "CN",
    ];
    COUNTRIES[i % COUNTRIES.len()].to_string()
}

/// A small 4-site example platform used by the quickstart example and tests.
/// The sites reuse the names from the paper's Table 1.
pub fn example_platform() -> PlatformSpec {
    PlatformSpec::new("example")
        .with_site({
            let mut s = SiteSpec::uniform("CERN", Tier::Tier0, 2_000, 12.0);
            s.country = "CH".into();
            s
        })
        .with_site({
            let mut s = SiteSpec::uniform("BNL", Tier::Tier1, 1_200, 10.0);
            s.country = "US".into();
            s
        })
        .with_site({
            let mut s = SiteSpec::uniform("DESY-ZN", Tier::Tier2, 600, 9.0);
            s.country = "DE".into();
            s
        })
        .with_site({
            let mut s = SiteSpec::uniform("LRZ-LMU", Tier::Tier2, 400, 8.0);
            s.country = "DE".into();
            s
        })
        .with_link(LinkSpec::new("CERN", MAIN_SERVER, 200.0, 2.0))
        .with_link(LinkSpec::new("BNL", MAIN_SERVER, 100.0, 45.0))
        .with_link(LinkSpec::new("DESY-ZN", MAIN_SERVER, 40.0, 12.0))
        .with_link(LinkSpec::new("LRZ-LMU", MAIN_SERVER, 20.0, 15.0))
        .with_link(LinkSpec::new("CERN", "BNL", 100.0, 45.0))
}

/// A degenerate single-site platform, used by the job-scaling experiment
/// (Fig. 4a) and by unit tests.
pub fn single_site_platform(cores: u32, speed: f64) -> PlatformSpec {
    PlatformSpec::new("single-site")
        .with_site(SiteSpec::uniform("SOLO", Tier::Tier2, cores, speed))
        .with_link(LinkSpec::new("SOLO", MAIN_SERVER, 100.0, 10.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::Platform;

    #[test]
    fn wlcg_platform_is_buildable_at_paper_scale() {
        for &n in &[1usize, 10, 50] {
            let spec = wlcg_platform(n, 42);
            assert_eq!(spec.sites.len(), n);
            spec.validate().unwrap();
            let platform = Platform::build(&spec).unwrap();
            assert_eq!(platform.site_count(), n);
        }
    }

    #[test]
    fn wlcg_platform_is_deterministic_in_seed() {
        let a = wlcg_platform(20, 7);
        let b = wlcg_platform(20, 7);
        let c = wlcg_platform(20, 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn core_counts_follow_paper_ranges() {
        let spec = wlcg_platform(50, 3);
        for site in &spec.sites {
            if site.tier == Tier::Tier2 {
                let cores = site.total_cores();
                assert!((100..=2_100).contains(&cores), "cores={cores}");
            }
        }
        // Tier-0 exists and is the largest class.
        assert_eq!(spec.sites[0].tier, Tier::Tier0);
        assert!(spec.sites[0].total_cores() >= 4_000);
    }

    #[test]
    fn first_sites_reuse_atlas_names() {
        let spec = wlcg_platform(5, 1);
        let names: Vec<_> = spec.sites.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, vec!["CERN", "BNL", "TRIUMF", "FZK-LCG2", "IN2P3-CC"]);
    }

    #[test]
    fn example_platform_builds() {
        let spec = example_platform();
        spec.validate().unwrap();
        let platform = Platform::build(&spec).unwrap();
        assert_eq!(platform.site_count(), 4);
        assert!(platform.site_by_name("DESY-ZN").is_some());
    }

    #[test]
    fn single_site_platform_builds() {
        let spec = single_site_platform(500, 10.0);
        let platform = Platform::build(&spec).unwrap();
        assert_eq!(platform.site_count(), 1);
        assert_eq!(platform.total_cores(), 500);
    }

    #[test]
    fn speeds_are_heterogeneous_but_positive() {
        let spec = wlcg_platform(50, 11);
        let speeds: Vec<f64> = spec
            .sites
            .iter()
            .map(|s| s.hosts[0].speed_per_core)
            .collect();
        assert!(speeds.iter().all(|&s| s > 0.0));
        let min = speeds.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = speeds.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!(max / min > 1.2, "expected heterogeneity, got {min}..{max}");
    }
}
