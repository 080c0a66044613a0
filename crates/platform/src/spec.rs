//! Serde-serialisable platform specification (the paper's JSON input files).
//!
//! CGSim configures a simulation through three JSON files: computational
//! infrastructure, network topology and execution parameters (§3.1). The
//! first two are modelled here as [`PlatformSpec`] (sites + hosts) and
//! [`NetworkSpec`] (links); the execution parameters live in `cgsim-core`.
//!
//! Units follow operational conventions: per-core speed in HS23-like
//! "HEPScore units" (interpreted as normalised operations per second),
//! bandwidth in Gbit/s, latency in milliseconds, memory in GB, storage in TB.

use serde::{Deserialize, Serialize};

use crate::error::PlatformError;

/// WLCG tier of a computing site.
/// Format: a site's `tier` in `platform.json`, read and written.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum Tier {
    /// Tier-0 (CERN): the source of raw data, largest capacity.
    Tier0,
    /// Tier-1: national centres with large storage and compute.
    Tier1,
    /// Tier-2: university-scale analysis sites.
    #[default]
    Tier2,
    /// Tier-3 / opportunistic resources.
    Tier3,
}

impl Tier {
    /// Short display label (`T0` … `T3`).
    pub fn label(self) -> &'static str {
        match self {
            Tier::Tier0 => "T0",
            Tier::Tier1 => "T1",
            Tier::Tier2 => "T2",
            Tier::Tier3 => "T3",
        }
    }
}

/// A homogeneous batch of worker nodes inside a site.
/// Format: a `hosts` entry of `platform.json`, read and written.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HostSpec {
    /// Host (worker-node group) name, unique within its site.
    pub name: String,
    /// Number of CPU cores.
    pub cores: u32,
    /// Per-core processing speed in HS23-like units (normalised ops/s).
    pub speed_per_core: f64,
    /// RAM in GB.
    #[serde(default = "default_ram_gb")]
    pub ram_gb: f64,
    /// Local scratch disk in TB.
    #[serde(default = "default_disk_tb")]
    pub disk_tb: f64,
}

fn default_ram_gb() -> f64 {
    2.0 * 64.0
}
fn default_disk_tb() -> f64 {
    10.0
}

impl HostSpec {
    /// Creates a host spec with default RAM/disk.
    pub fn new(name: impl Into<String>, cores: u32, speed_per_core: f64) -> Self {
        HostSpec {
            name: name.into(),
            cores,
            speed_per_core,
            ram_gb: default_ram_gb(),
            disk_tb: default_disk_tb(),
        }
    }
}

/// A computing site (a SimGrid netzone in the paper's architecture).
/// Format: a `sites` entry of `platform.json`, read and written.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SiteSpec {
    /// Site name (e.g. `BNL`, `CERN`, `DESY-ZN`), globally unique.
    pub name: String,
    /// WLCG tier.
    #[serde(default)]
    pub tier: Tier,
    /// Country / region label (used only for reporting).
    #[serde(default)]
    pub country: String,
    /// Worker-node groups.
    pub hosts: Vec<HostSpec>,
    /// Tape+disk storage capacity in TB.
    #[serde(default = "default_storage_tb")]
    pub storage_tb: f64,
    /// Intra-site (LAN) bandwidth in Gbit/s.
    #[serde(default = "default_lan_gbps")]
    pub internal_bandwidth_gbps: f64,
    /// Intra-site latency in milliseconds.
    #[serde(default = "default_lan_latency_ms")]
    pub internal_latency_ms: f64,
    /// Initial calibration multiplier applied to every host's speed
    /// (1.0 = use the nominal HS23 value).
    #[serde(default = "default_speed_multiplier")]
    pub speed_multiplier: f64,
}

fn default_storage_tb() -> f64 {
    1_000.0
}
fn default_lan_gbps() -> f64 {
    100.0
}
fn default_lan_latency_ms() -> f64 {
    0.2
}
fn default_speed_multiplier() -> f64 {
    1.0
}

impl SiteSpec {
    /// Creates a single-host site spec (the common WLCG modelling choice:
    /// one homogeneous worker-node pool per site).
    pub fn uniform(name: impl Into<String>, tier: Tier, cores: u32, speed_per_core: f64) -> Self {
        let name = name.into();
        SiteSpec {
            hosts: vec![HostSpec::new(format!("{name}-wn"), cores, speed_per_core)],
            name,
            tier,
            country: String::new(),
            storage_tb: default_storage_tb(),
            internal_bandwidth_gbps: default_lan_gbps(),
            internal_latency_ms: default_lan_latency_ms(),
            speed_multiplier: default_speed_multiplier(),
        }
    }

    /// Total number of cores across all hosts of the site.
    pub fn total_cores(&self) -> u64 {
        self.hosts.iter().map(|h| h.cores as u64).sum()
    }
}

/// Name of the central main-server node used in link endpoints.
pub const MAIN_SERVER: &str = "main-server";

/// A wide-area network link between two endpoints (site names or
/// [`MAIN_SERVER`]).
/// Format: a `network.links` entry of `platform.json`, read and written.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LinkSpec {
    /// Link name; auto-generated as `from--to` if empty.
    #[serde(default)]
    pub name: String,
    /// Endpoint A.
    pub from: String,
    /// Endpoint B.
    pub to: String,
    /// Bandwidth in Gbit/s.
    pub bandwidth_gbps: f64,
    /// One-way latency in milliseconds.
    pub latency_ms: f64,
}

impl LinkSpec {
    /// Creates a link spec, generating a name from the endpoints.
    pub fn new(
        from: impl Into<String>,
        to: impl Into<String>,
        bandwidth_gbps: f64,
        latency_ms: f64,
    ) -> Self {
        let from = from.into();
        let to = to.into();
        LinkSpec {
            name: format!("{from}--{to}"),
            from,
            to,
            bandwidth_gbps,
            latency_ms,
        }
    }
}

/// Network topology: the set of WAN links. If empty, a star topology centred
/// on the main server is generated automatically (one 10 Gbit/s, 20 ms link
/// per site), which matches the paper's default deployment where the main
/// server is "linked to all sites in the platform".
/// Format: `platform.json`'s `network` object, read and written.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct NetworkSpec {
    /// WAN links.
    #[serde(default)]
    pub links: Vec<LinkSpec>,
}

/// Full platform specification (infrastructure + network).
/// Format: `platform.json`, read and written (and hashed into serve's cache key).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlatformSpec {
    /// Human-readable platform name.
    #[serde(default)]
    pub name: String,
    /// Computing sites.
    pub sites: Vec<SiteSpec>,
    /// WAN topology.
    #[serde(default)]
    pub network: NetworkSpec,
}

impl PlatformSpec {
    /// Creates an empty spec with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        PlatformSpec {
            name: name.into(),
            sites: Vec::new(),
            network: NetworkSpec::default(),
        }
    }

    /// Adds a site.
    pub fn with_site(mut self, site: SiteSpec) -> Self {
        self.sites.push(site);
        self
    }

    /// Adds a WAN link.
    pub fn with_link(mut self, link: LinkSpec) -> Self {
        self.network.links.push(link);
        self
    }

    /// Serialises to pretty JSON (the paper's input file format).
    pub fn to_json(&self) -> Result<String, PlatformError> {
        Ok(serde_json::to_string_pretty(self)?)
    }

    /// Parses from JSON. A key no field takes, at any depth, is an error
    /// naming its path (`sites[0].corez`).
    pub fn from_json(json: &str) -> Result<Self, PlatformError> {
        Ok(serde_json::from_str(json).map_err(|e| e.found_in("platform.json"))?)
    }

    /// Writes to a JSON file.
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> Result<(), PlatformError> {
        std::fs::write(path, self.to_json()?)?;
        Ok(())
    }

    /// Loads from a JSON file.
    pub fn load(path: impl AsRef<std::path::Path>) -> Result<Self, PlatformError> {
        let text = std::fs::read_to_string(path)?;
        Self::from_json(&text)
    }

    /// Basic sanity checks on all numeric parameters and name uniqueness.
    pub fn validate(&self) -> Result<(), PlatformError> {
        if self.sites.is_empty() {
            return Err(PlatformError::EmptyPlatform);
        }
        let mut names = std::collections::HashSet::new();
        for site in &self.sites {
            if !names.insert(site.name.clone()) {
                return Err(PlatformError::DuplicateName(site.name.clone()));
            }
            if site.name == MAIN_SERVER {
                return Err(PlatformError::DuplicateName(format!(
                    "site name {MAIN_SERVER} is reserved"
                )));
            }
            if site.hosts.is_empty() {
                return Err(PlatformError::InvalidParameter(format!(
                    "site {} has no hosts",
                    site.name
                )));
            }
            let mut host_names = std::collections::HashSet::new();
            for host in &site.hosts {
                if !host_names.insert(host.name.clone()) {
                    return Err(PlatformError::DuplicateName(format!(
                        "{}/{}",
                        site.name, host.name
                    )));
                }
                if host.cores == 0 {
                    return Err(PlatformError::InvalidParameter(format!(
                        "host {} has zero cores",
                        host.name
                    )));
                }
                if !is_strictly_positive(host.speed_per_core) {
                    return Err(PlatformError::InvalidParameter(format!(
                        "host {} has non-positive speed",
                        host.name
                    )));
                }
            }
            if !is_strictly_positive(site.speed_multiplier) {
                return Err(PlatformError::InvalidParameter(format!(
                    "site {} has non-positive speed multiplier",
                    site.name
                )));
            }
            if !is_strictly_positive(site.internal_bandwidth_gbps) {
                return Err(PlatformError::InvalidParameter(format!(
                    "site {} has non-positive internal bandwidth",
                    site.name
                )));
            }
        }
        for link in &self.network.links {
            for endpoint in [&link.from, &link.to] {
                if endpoint != MAIN_SERVER && !names.contains(endpoint.as_str()) {
                    return Err(PlatformError::UnknownEndpoint(endpoint.clone()));
                }
            }
            if !is_strictly_positive(link.bandwidth_gbps) || !is_non_negative(link.latency_ms) {
                return Err(PlatformError::InvalidParameter(format!(
                    "link {} has invalid bandwidth/latency",
                    link.name
                )));
            }
        }
        Ok(())
    }

    /// Total core count across the platform.
    pub fn total_cores(&self) -> u64 {
        self.sites.iter().map(|s| s.total_cores()).sum()
    }
}

/// `x > 0`, with NaN rejected (NaN compares as incomparable, not positive).
fn is_strictly_positive(x: f64) -> bool {
    x.partial_cmp(&0.0) == Some(std::cmp::Ordering::Greater)
}

/// `x >= 0`, with NaN rejected.
fn is_non_negative(x: f64) -> bool {
    matches!(
        x.partial_cmp(&0.0),
        Some(std::cmp::Ordering::Greater | std::cmp::Ordering::Equal)
    )
}

/// Converts Gbit/s to bytes/s.
pub(crate) fn gbps_to_bytes_per_sec(gbps: f64) -> f64 {
    gbps * 1e9 / 8.0
}

/// Converts milliseconds to seconds.
pub(crate) fn ms_to_secs(ms: f64) -> f64 {
    ms / 1000.0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_spec() -> PlatformSpec {
        PlatformSpec::new("mini")
            .with_site(SiteSpec::uniform("CERN", Tier::Tier0, 2000, 12.0))
            .with_site(SiteSpec::uniform("BNL", Tier::Tier1, 1000, 10.0))
            .with_link(LinkSpec::new("CERN", MAIN_SERVER, 100.0, 5.0))
            .with_link(LinkSpec::new("BNL", MAIN_SERVER, 40.0, 40.0))
    }

    #[test]
    fn json_roundtrip_preserves_spec() {
        let spec = sample_spec();
        let json = spec.to_json().unwrap();
        let back = PlatformSpec::from_json(&json).unwrap();
        assert_eq!(spec, back);
    }

    #[test]
    fn defaults_are_applied_when_fields_missing() {
        let json = r#"{
            "sites": [
                {"name": "X", "hosts": [{"name": "x-wn", "cores": 8, "speed_per_core": 10.0}]}
            ]
        }"#;
        let spec = PlatformSpec::from_json(json).unwrap();
        assert_eq!(spec.sites[0].tier, Tier::Tier2);
        assert_eq!(spec.sites[0].speed_multiplier, 1.0);
        assert!(spec.sites[0].internal_bandwidth_gbps > 0.0);
        assert!(spec.network.links.is_empty());
        spec.validate().unwrap();
    }

    #[test]
    fn validate_accepts_sane_spec() {
        sample_spec().validate().unwrap();
    }

    #[test]
    fn validate_rejects_empty_platform() {
        assert_eq!(
            PlatformSpec::new("empty").validate(),
            Err(PlatformError::EmptyPlatform)
        );
    }

    #[test]
    fn validate_rejects_duplicate_sites() {
        let spec = PlatformSpec::new("dup")
            .with_site(SiteSpec::uniform("A", Tier::Tier2, 10, 10.0))
            .with_site(SiteSpec::uniform("A", Tier::Tier2, 10, 10.0));
        assert!(matches!(
            spec.validate(),
            Err(PlatformError::DuplicateName(_))
        ));
    }

    #[test]
    fn validate_rejects_zero_cores() {
        let mut spec = sample_spec();
        spec.sites[0].hosts[0].cores = 0;
        assert!(matches!(
            spec.validate(),
            Err(PlatformError::InvalidParameter(_))
        ));
    }

    #[test]
    fn validate_rejects_unknown_link_endpoint() {
        let spec = sample_spec().with_link(LinkSpec::new("CERN", "NOWHERE", 1.0, 1.0));
        assert!(matches!(
            spec.validate(),
            Err(PlatformError::UnknownEndpoint(_))
        ));
    }

    #[test]
    fn validate_rejects_reserved_site_name() {
        let spec = PlatformSpec::new("bad").with_site(SiteSpec::uniform(
            MAIN_SERVER,
            Tier::Tier2,
            10,
            10.0,
        ));
        assert!(matches!(
            spec.validate(),
            Err(PlatformError::DuplicateName(_))
        ));
    }

    #[test]
    fn unit_conversions() {
        assert_eq!(gbps_to_bytes_per_sec(8.0), 1e9);
        assert_eq!(ms_to_secs(250.0), 0.25);
    }

    #[test]
    fn total_cores_sums_sites() {
        assert_eq!(sample_spec().total_cores(), 3000);
    }

    #[test]
    fn tier_labels() {
        assert_eq!(Tier::Tier0.label(), "T0");
        assert_eq!(Tier::Tier3.label(), "T3");
    }

    #[test]
    fn save_and_load_roundtrip() {
        let dir = std::env::temp_dir().join("cgsim-platform-spec-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("platform.json");
        let spec = sample_spec();
        spec.save(&path).unwrap();
        let loaded = PlatformSpec::load(&path).unwrap();
        assert_eq!(spec, loaded);
        std::fs::remove_file(path).ok();
    }
}
