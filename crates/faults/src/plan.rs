//! Fault plans: deterministic, time-sorted schedules of infrastructure
//! faults generated from a seed.
//!
//! A [`FaultPlan`] is generated **before** the simulation starts, from a
//! [`FaultPlanConfig`] plus a [`FaultTopology`] describing how many sites,
//! links and jobs the scenario has. Generation draws every random quantity
//! from an independent stream of the deterministic `cgsim_des::rng::Rng` per
//! (spec, target) pair, each derived from the seed and the pair's identity
//! alone, so the schedule is a pure function of `(config, topology, seed)` —
//! the same reproducibility contract as the rest of CGSim-RS — and adding
//! one fault process never perturbs another's schedule. The simulation core
//! then replays the plan as ordinary discrete events; it never draws fault
//! randomness itself.
//!
//! Inter-failure times follow a Weibull distribution (`shape = 1` is the
//! exponential special case; `shape > 1` models wear-out, `shape < 1`
//! infant-mortality clustering), matching the standard reliability-modelling
//! practice of grid/cloud simulators.

use cgsim_des::rng::Rng;

use crate::spec::parse_fault_spec;

/// Default generation horizon: 48 simulated hours.
pub(crate) const DEFAULT_HORIZON_S: f64 = 48.0 * 3600.0;

/// Which sites a fault specification targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SiteSelector {
    /// Every site of the platform.
    All,
    /// One site, by `SiteId` index.
    Index(usize),
}

/// Which links a degradation specification targets. Indices refer to the
/// *eligible link list* of the [`FaultTopology`] (for the CLI this is the
/// platform's WAN links, in platform order), not to raw platform link ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkSelector {
    /// Every eligible link.
    All,
    /// The i-th eligible link.
    Index(usize),
}

/// Random whole-site outages with Weibull inter-failure times.
#[derive(Debug, Clone, PartialEq)]
pub struct OutageSpec {
    /// Targeted site(s).
    pub site: SiteSelector,
    /// Mean time to failure in seconds (Weibull scale is derived from it).
    pub mttf_s: f64,
    /// Mean time to repair in seconds (exponential).
    pub mttr_s: f64,
    /// Weibull shape of the inter-failure distribution (1 = exponential).
    pub shape: f64,
}

/// A fixed maintenance window (optionally periodic): the site is down for
/// `duration_s` starting at `start_s`, repeating every `period_s` if set.
#[derive(Debug, Clone, PartialEq)]
pub struct MaintenanceSpec {
    /// Targeted site.
    pub site: usize,
    /// First window start, seconds from simulation start.
    pub start_s: f64,
    /// Window length in seconds.
    pub duration_s: f64,
    /// Repetition period in seconds (`None` = one window only).
    pub period_s: Option<f64>,
}

/// Correlated multi-site incidents: all listed sites fail together (a shared
/// power/network domain), recover together after the repair time.
#[derive(Debug, Clone, PartialEq)]
pub struct IncidentSpec {
    /// Sites failing together.
    pub sites: Vec<usize>,
    /// Mean time between incidents in seconds.
    pub mttf_s: f64,
    /// Mean repair time in seconds.
    pub mttr_s: f64,
    /// Weibull shape of the inter-incident distribution.
    pub shape: f64,
}

/// Partial node loss: a fraction of a site's cores disappears (a rack or a
/// worker-node group), later restored.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeLossSpec {
    /// Targeted site(s).
    pub site: SiteSelector,
    /// Fraction of the site's cores lost, in `(0, 1]`.
    pub fraction: f64,
    /// Mean time to loss in seconds.
    pub mttf_s: f64,
    /// Mean time to restoration in seconds.
    pub mttr_s: f64,
}

/// Storage-media loss: the disks backing a site's storage element fail and
/// every byte held there — staged replicas, cache entries and job
/// checkpoints — is lost, while the site itself keeps computing. Unlike an
/// outage there is no repair event: the loss is instantaneous and the data
/// is simply gone (the replacement hardware comes up empty).
#[derive(Debug, Clone, PartialEq)]
pub struct DiskLossSpec {
    /// Targeted site(s).
    pub site: SiteSelector,
    /// Mean time to disk loss in seconds (exponential).
    pub mttf_s: f64,
}

/// Link bandwidth degradation: the link runs at `factor` of its nominal
/// bandwidth until restored.
#[derive(Debug, Clone, PartialEq)]
pub struct DegradationSpec {
    /// Targeted link(s).
    pub link: LinkSelector,
    /// Remaining bandwidth fraction in `(0, 1)` while degraded.
    pub factor: f64,
    /// Mean time to degradation in seconds.
    pub mttf_s: f64,
    /// Mean time to restoration in seconds.
    pub mttr_s: f64,
    /// Weibull shape of the inter-degradation distribution.
    pub shape: f64,
}

/// Everything the plan generator needs to know about the fault processes.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlanConfig {
    /// Generation horizon in seconds; no fault is scheduled past it.
    pub horizon_s: f64,
    /// Random whole-site outage processes.
    pub outages: Vec<OutageSpec>,
    /// Fixed maintenance windows.
    pub maintenance: Vec<MaintenanceSpec>,
    /// Correlated multi-site incident processes.
    pub incidents: Vec<IncidentSpec>,
    /// Partial node-loss processes.
    pub node_losses: Vec<NodeLossSpec>,
    /// Storage-media loss processes (data loss without a site outage).
    pub disk_losses: Vec<DiskLossSpec>,
    /// Link-degradation processes.
    pub degradations: Vec<DegradationSpec>,
    /// Poisson rate of single-job kills, per simulated hour (0 = none).
    pub kill_rate_per_hour: f64,
}

impl Default for FaultPlanConfig {
    fn default() -> Self {
        FaultPlanConfig {
            horizon_s: DEFAULT_HORIZON_S,
            outages: Vec::new(),
            maintenance: Vec::new(),
            incidents: Vec::new(),
            node_losses: Vec::new(),
            disk_losses: Vec::new(),
            degradations: Vec::new(),
            kill_rate_per_hour: 0.0,
        }
    }
}

impl FaultPlanConfig {
    /// True when the configuration describes no fault process at all (the
    /// generated plan is guaranteed empty).
    pub fn is_empty(&self) -> bool {
        self.outages.is_empty()
            && self.maintenance.is_empty()
            && self.incidents.is_empty()
            && self.node_losses.is_empty()
            && self.disk_losses.is_empty()
            && self.degradations.is_empty()
            && self.kill_rate_per_hour <= 0.0
    }
}

/// The scenario dimensions a plan is generated against.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultTopology {
    /// Number of sites (`SiteId` indices `0..sites`).
    pub sites: usize,
    /// Platform link indices eligible for degradation (typically the WAN
    /// links), in platform order. [`LinkSelector::Index`] indexes this list.
    pub links: Vec<usize>,
    /// Number of jobs in the trace (`KillJob` targets indices `0..jobs`).
    pub jobs: usize,
}

impl FaultTopology {
    /// The topology of a resolved platform running a trace of `jobs` jobs:
    /// every site, with the platform's WAN links (not the generated
    /// site-internal LANs) as the degradation-eligible list. This is the
    /// resolution rule behind the CLI's `link=<i>` selector.
    pub fn for_platform(platform: &cgsim_platform::Platform, jobs: usize) -> Self {
        FaultTopology {
            sites: platform.site_count(),
            links: platform
                .links()
                .iter()
                .filter(|l| !l.is_lan)
                .map(|l| l.id.index())
                .collect(),
            jobs,
        }
    }

    /// Checks that every site and link `config` names by index exists in
    /// this topology. [`FaultPlan::generate`] silently drops such a target;
    /// the CLI and the scenario engine call this first, so a scenario that
    /// names a site or link the platform lacks is an error rather than a
    /// run without that fault.
    pub fn check(&self, config: &FaultPlanConfig) -> Result<(), String> {
        let index = |selector: SiteSelector| match selector {
            SiteSelector::All => None,
            SiteSelector::Index(site) => Some(site),
        };
        let outages = config
            .outages
            .iter()
            .filter_map(|s| Some(("outage", index(s.site)?)));
        let maint = config.maintenance.iter().map(|s| ("maint", s.site));
        let incidents = config
            .incidents
            .iter()
            .flat_map(|s| s.sites.iter().map(|&i| ("incident", i)));
        let losses = config
            .node_losses
            .iter()
            .filter_map(|s| Some(("nodeloss", index(s.site)?)));
        let disks = config
            .disk_losses
            .iter()
            .filter_map(|s| Some(("diskloss", index(s.site)?)));
        let sites = outages
            .chain(maint)
            .chain(incidents)
            .chain(losses)
            .chain(disks);
        let links = config.degradations.iter().filter_map(|s| match s.link {
            LinkSelector::All => None,
            LinkSelector::Index(link) => Some(("degrade", link)),
        });
        let out_of_range = |kind: &str, what: &str, target: usize, count: usize| {
            format!(
                "{kind}: {what} {target} does not exist \
                 (the platform has {count} {what}s, numbered from 0)"
            )
        };
        for (kind, site) in sites {
            if site >= self.sites {
                return Err(out_of_range(kind, "site", site, self.sites));
            }
        }
        for (kind, link) in links {
            if link >= self.links.len() {
                return Err(out_of_range(kind, "WAN link", link, self.links.len()));
            }
        }
        Ok(())
    }
}

/// One scheduled fault, applied by the simulation core at `time_s`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultAction {
    /// The whole site goes down: running jobs are killed, queued jobs are
    /// bounced back to the main server, staged replicas are invalidated.
    SiteDown {
        /// Site index.
        site: usize,
    },
    /// The site recovers and accepts work again.
    SiteUp {
        /// Site index.
        site: usize,
    },
    /// A fraction of the site's cores disappears.
    NodeLoss {
        /// Site index.
        site: usize,
        /// Fraction of total cores lost, in `(0, 1]`.
        fraction: f64,
    },
    /// The most recent outstanding node loss at the site ends and its cores
    /// come back (losses from overlapping processes stack).
    NodeRestore {
        /// Site index.
        site: usize,
    },
    /// The site's storage media fail: staged replicas, cache entries and job
    /// checkpoints held there are lost. The site keeps computing; there is no
    /// matching recovery event (the data is gone, not unavailable).
    DiskLoss {
        /// Site index.
        site: usize,
    },
    /// The link drops to `factor` of its nominal bandwidth; in-flight
    /// transfers are re-rated through the fluid model.
    LinkDegrade {
        /// Platform link index.
        link: usize,
        /// Remaining bandwidth fraction in `(0, 1)`.
        factor: f64,
    },
    /// The link returns to nominal bandwidth.
    LinkRestore {
        /// Platform link index.
        link: usize,
    },
    /// Kill one specific job if it is currently occupying cores.
    KillJob {
        /// Job index into the trace.
        job: usize,
    },
}

/// A fault action bound to its virtual time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// Virtual time of the fault, seconds from simulation start.
    pub time_s: f64,
    /// What happens.
    pub action: FaultAction,
}

impl FaultEvent {
    fn at(time_s: f64, action: FaultAction) -> Self {
        FaultEvent { time_s, action }
    }
}

/// A deterministic, time-sorted schedule of fault events.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Events sorted by `time_s` (ties keep generation order).
    pub events: Vec<FaultEvent>,
}

/// Stream-id salts keeping every fault process on an independent RNG stream.
mod stream {
    pub const OUTAGE: u64 = 1 << 32;
    pub const INCIDENT: u64 = 2 << 32;
    pub const NODELOSS: u64 = 3 << 32;
    pub const DEGRADE: u64 = 4 << 32;
    pub const KILL: u64 = 5 << 32;
    pub const DISKLOSS: u64 = 6 << 32;
}

impl FaultPlan {
    /// A plan with no events (attached to a simulation it is exactly
    /// equivalent to attaching no plan at all).
    pub fn empty() -> Self {
        FaultPlan::default()
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The plan a run of `jobs` jobs on `platform` replays under the
    /// `--faults` spec text `spec` and fault seed `seed`:
    /// [`parse_fault_spec`] → [`FaultTopology::for_platform`] →
    /// [`FaultTopology::check`] → [`FaultPlan::generate`]. This is the one
    /// path from fault input to a plan, which every run takes through
    /// `ScenarioSpec::build_fault_plan`. Returns the plan and the horizon it
    /// was generated to, or `None` when the spec declares no fault process
    /// (`""`, `horizon=1h`): such a spec is no plan. A spec that does not
    /// parse, or that names a site or link the platform lacks, is an error.
    pub fn from_spec(
        spec: &str,
        seed: u64,
        platform: &cgsim_platform::Platform,
        jobs: usize,
    ) -> Result<Option<(Self, f64)>, String> {
        let config = parse_fault_spec(spec)?;
        if config.is_empty() {
            return Ok(None);
        }
        let topology = FaultTopology::for_platform(platform, jobs);
        topology.check(&config)?;
        Ok(Some((
            Self::generate(&config, &topology, seed),
            config.horizon_s,
        )))
    }

    /// Generates the deterministic schedule for `config` against `topo`.
    ///
    /// Every `(spec, target)` pair draws from its own RNG stream derived
    /// *only* from the seed and the pair's identity — never from how many
    /// other streams exist — so adding a spec (or growing the topology)
    /// never perturbs the schedule of another process, and the whole plan
    /// is reproducible from the seed alone.
    pub fn generate(config: &FaultPlanConfig, topo: &FaultTopology, seed: u64) -> Self {
        let horizon = config.horizon_s.max(0.0);
        let mut events: Vec<FaultEvent> = Vec::new();

        // Random whole-site outages.
        for (spec_idx, spec) in config.outages.iter().enumerate() {
            for site in select_sites(spec.site, topo.sites) {
                let rng = stream_rng(seed, stream::OUTAGE | (spec_idx as u64) << 16 | site as u64);
                let scale = weibull_scale(spec.mttf_s, spec.shape);
                let gap = |rng: &mut Rng| rng.weibull(scale, spec.shape);
                renewal(rng, horizon, gap, Some(spec.mttr_s), |_, down, up| {
                    events.push(FaultEvent::at(down, FaultAction::SiteDown { site }));
                    events.push(FaultEvent::at(up, FaultAction::SiteUp { site }));
                });
            }
        }

        // Fixed maintenance windows (no randomness).
        for spec in &config.maintenance {
            if spec.site >= topo.sites || spec.duration_s <= 0.0 {
                continue;
            }
            let site = spec.site;
            let mut start = spec.start_s;
            loop {
                if start > horizon {
                    break;
                }
                let end = start + spec.duration_s;
                events.push(FaultEvent::at(start, FaultAction::SiteDown { site }));
                events.push(FaultEvent::at(end, FaultAction::SiteUp { site }));
                match spec.period_s {
                    Some(period) if period > 0.0 => start += period,
                    _ => break,
                }
            }
        }

        // Correlated multi-site incidents: one stream per spec, all listed
        // sites fail and recover at the same instants.
        for (spec_idx, spec) in config.incidents.iter().enumerate() {
            let sites: Vec<usize> = spec
                .sites
                .iter()
                .copied()
                .filter(|&s| s < topo.sites)
                .collect();
            if sites.is_empty() {
                continue;
            }
            let rng = stream_rng(seed, stream::INCIDENT | spec_idx as u64);
            let scale = weibull_scale(spec.mttf_s, spec.shape);
            let gap = |rng: &mut Rng| rng.weibull(scale, spec.shape);
            renewal(rng, horizon, gap, Some(spec.mttr_s), |_, down, up| {
                for &site in &sites {
                    events.push(FaultEvent::at(down, FaultAction::SiteDown { site }));
                    events.push(FaultEvent::at(up, FaultAction::SiteUp { site }));
                }
            });
        }

        // Partial node losses.
        for (spec_idx, spec) in config.node_losses.iter().enumerate() {
            let fraction = spec.fraction.clamp(0.0, 1.0);
            if fraction <= 0.0 {
                continue;
            }
            for site in select_sites(spec.site, topo.sites) {
                let salt = stream::NODELOSS | (spec_idx as u64) << 16 | site as u64;
                let rng = stream_rng(seed, salt);
                let gap = |rng: &mut Rng| rng.exponential(1.0 / spec.mttf_s.max(1e-9));
                let loss = FaultAction::NodeLoss { site, fraction };
                renewal(rng, horizon, gap, Some(spec.mttr_s), |_, lost, back| {
                    events.push(FaultEvent::at(lost, loss));
                    events.push(FaultEvent::at(back, FaultAction::NodeRestore { site }));
                });
            }
        }

        // Storage-media losses: an exponential process per (spec, site), one
        // event per loss — data loss is instantaneous and unrepaired, so no
        // paired recovery event is generated.
        for (spec_idx, spec) in config.disk_losses.iter().enumerate() {
            for site in select_sites(spec.site, topo.sites) {
                let salt = stream::DISKLOSS | (spec_idx as u64) << 16 | site as u64;
                let rng = stream_rng(seed, salt);
                let gap = |rng: &mut Rng| rng.exponential(1.0 / spec.mttf_s.max(1e-9));
                renewal(rng, horizon, gap, None, |_, t, _| {
                    events.push(FaultEvent::at(t, FaultAction::DiskLoss { site }));
                });
            }
        }

        // Link degradations.
        for (spec_idx, spec) in config.degradations.iter().enumerate() {
            let factor = spec.factor.clamp(1e-6, 1.0);
            let targets: Vec<usize> = match spec.link {
                LinkSelector::All => topo.links.clone(),
                LinkSelector::Index(i) => topo.links.get(i).copied().into_iter().collect(),
            };
            for (pos, link) in targets.into_iter().enumerate() {
                let rng = stream_rng(seed, stream::DEGRADE | (spec_idx as u64) << 16 | pos as u64);
                let scale = weibull_scale(spec.mttf_s, spec.shape);
                let gap = |rng: &mut Rng| rng.weibull(scale, spec.shape);
                let degrade = FaultAction::LinkDegrade { link, factor };
                renewal(rng, horizon, gap, Some(spec.mttr_s), |_, slow, nominal| {
                    events.push(FaultEvent::at(slow, degrade));
                    events.push(FaultEvent::at(nominal, FaultAction::LinkRestore { link }));
                });
            }
        }

        // Single-job kills: a Poisson process over the horizon, each event
        // targeting a uniformly random trace index (a no-op at replay time if
        // that job is not occupying cores at that instant).
        if config.kill_rate_per_hour > 0.0 && topo.jobs > 0 {
            let rate_per_s = config.kill_rate_per_hour / 3600.0;
            let rng = stream_rng(seed, stream::KILL);
            let gap = |rng: &mut Rng| rng.exponential(rate_per_s);
            renewal(rng, horizon, gap, None, |rng, t, _| {
                let job = rng.index(topo.jobs);
                events.push(FaultEvent::at(t, FaultAction::KillJob { job }));
            });
        }

        // Stable sort: equal times keep generation order, which is itself
        // deterministic, so the whole schedule is reproducible.
        events.sort_by(|a, b| {
            a.time_s
                .partial_cmp(&b.time_s)
                .expect("fault times are finite")
        });
        FaultPlan { events }
    }
}

/// One renewal process on its own RNG stream: a fault strikes `gap` after the
/// previous one was repaired, lasts an exponential repair time of mean
/// `mttr_s` (`None`: instantaneous, no draw), and the next gap starts at the
/// repair. `emit(rng, start, end)` records each fault that starts within
/// `horizon`; its recovery may lie beyond it. The draw order per fault — gap,
/// repair, then whatever `emit` draws — is part of the reproducibility
/// contract (`tests/golden_plan.rs`).
fn renewal(
    mut rng: Rng,
    horizon: f64,
    gap: impl Fn(&mut Rng) -> f64,
    mttr_s: Option<f64>,
    mut emit: impl FnMut(&mut Rng, f64, f64),
) {
    let mut t = 0.0;
    loop {
        t += gap(&mut rng);
        if t > horizon {
            break;
        }
        let repair = mttr_s.map_or(0.0, |mttr_s| rng.exponential(1.0 / mttr_s.max(1e-9)));
        emit(&mut rng, t, t + repair);
        t += repair;
    }
}

/// An independent RNG stream for one `(seed, salt)` pair. Pure function of
/// its inputs — unlike `Rng::fork`, which advances the parent and would make
/// every stream depend on the count and order of earlier forks (so adding a
/// spec would reshuffle every later process's schedule).
fn stream_rng(seed: u64, salt: u64) -> Rng {
    Rng::new(seed ^ 0xFA17_5EED ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Resolves a site selector against the topology.
fn select_sites(selector: SiteSelector, sites: usize) -> Vec<usize> {
    match selector {
        SiteSelector::All => (0..sites).collect(),
        SiteSelector::Index(i) if i < sites => vec![i],
        SiteSelector::Index(_) => Vec::new(),
    }
}

/// Weibull scale parameter giving the requested mean for the given shape:
/// `mean = scale * Γ(1 + 1/shape)`.
fn weibull_scale(mean: f64, shape: f64) -> f64 {
    let shape = shape.max(1e-3);
    mean.max(1e-9) / gamma(1.0 + 1.0 / shape)
}

/// Lanczos approximation of the gamma function (positive arguments only; the
/// plan generator calls it with arguments in `(1, 1000]`).
fn gamma(x: f64) -> f64 {
    const G: f64 = 7.0;
    #[allow(clippy::excessive_precision, clippy::inconsistent_digit_grouping)]
    const COEFFS: [f64; 9] = [
        0.999_999_999_999_809_93,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_13,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_571_6e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection formula.
        return std::f64::consts::PI / ((std::f64::consts::PI * x).sin() * gamma(1.0 - x));
    }
    let x = x - 1.0;
    let mut acc = COEFFS[0];
    for (i, &c) in COEFFS.iter().enumerate().skip(1) {
        acc += c / (x + i as f64);
    }
    let t = x + G + 0.5;
    (2.0 * std::f64::consts::PI).sqrt() * t.powf(x + 0.5) * (-t).exp() * acc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topo() -> FaultTopology {
        FaultTopology {
            sites: 4,
            links: vec![4, 5, 6, 7],
            jobs: 100,
        }
    }

    fn outage_config() -> FaultPlanConfig {
        FaultPlanConfig {
            horizon_s: 100_000.0,
            outages: vec![OutageSpec {
                site: SiteSelector::All,
                mttf_s: 10_000.0,
                mttr_s: 1_000.0,
                shape: 1.0,
            }],
            ..FaultPlanConfig::default()
        }
    }

    #[test]
    fn gamma_matches_known_values() {
        assert!((gamma(1.0) - 1.0).abs() < 1e-9);
        assert!((gamma(2.0) - 1.0).abs() < 1e-9);
        assert!((gamma(5.0) - 24.0).abs() < 1e-6);
        assert!((gamma(0.5) - std::f64::consts::PI.sqrt()).abs() < 1e-9);
    }

    #[test]
    fn empty_config_generates_empty_plan() {
        let plan = FaultPlan::generate(&FaultPlanConfig::default(), &topo(), 7);
        assert!(plan.is_empty());
        assert_eq!(plan.len(), 0);
        assert!(FaultPlanConfig::default().is_empty());
        assert!(!outage_config().is_empty());
    }

    #[test]
    fn generation_is_deterministic_in_seed() {
        let a = FaultPlan::generate(&outage_config(), &topo(), 7);
        let b = FaultPlan::generate(&outage_config(), &topo(), 7);
        let c = FaultPlan::generate(&outage_config(), &topo(), 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(!a.is_empty());
    }

    #[test]
    fn streams_are_isolated_across_specs() {
        // Adding a degradation + kill process must not perturb the outage
        // schedule: the outage events of the combined plan are exactly the
        // outage-only plan.
        let outages_only = FaultPlan::generate(&outage_config(), &topo(), 7);
        let mut combined_cfg = outage_config();
        combined_cfg.degradations.push(DegradationSpec {
            link: LinkSelector::All,
            factor: 0.5,
            mttf_s: 5_000.0,
            mttr_s: 500.0,
            shape: 1.0,
        });
        combined_cfg.kill_rate_per_hour = 3.0;
        let combined = FaultPlan::generate(&combined_cfg, &topo(), 7);
        let site_events = |plan: &FaultPlan| {
            plan.events
                .iter()
                .filter(|e| {
                    matches!(
                        e.action,
                        FaultAction::SiteDown { .. } | FaultAction::SiteUp { .. }
                    )
                })
                .copied()
                .collect::<Vec<_>>()
        };
        assert_eq!(site_events(&outages_only), site_events(&combined));
        assert!(combined.len() > outages_only.len());
    }

    fn site_downs(plan: &FaultPlan) -> usize {
        plan.events
            .iter()
            .filter(|e| matches!(e.action, FaultAction::SiteDown { .. }))
            .count()
    }

    #[test]
    fn events_are_time_sorted_and_within_horizon_for_downs() {
        let plan = FaultPlan::generate(&outage_config(), &topo(), 3);
        for pair in plan.events.windows(2) {
            assert!(pair[0].time_s <= pair[1].time_s);
        }
        for e in &plan.events {
            if let FaultAction::SiteDown { site } = e.action {
                assert!(site < 4);
                assert!(e.time_s <= 100_000.0);
            }
        }
    }

    #[test]
    fn downs_and_ups_pair_per_site() {
        let plan = FaultPlan::generate(&outage_config(), &topo(), 11);
        for site in 0..4 {
            let downs = plan
                .events
                .iter()
                .filter(|e| e.action == FaultAction::SiteDown { site })
                .count();
            let ups = plan
                .events
                .iter()
                .filter(|e| e.action == FaultAction::SiteUp { site })
                .count();
            assert_eq!(downs, ups, "site {site}");
        }
    }

    #[test]
    fn outage_rate_tracks_mttf() {
        // With mttf 10_000 s over a 1_000_000 s horizon and ~10% downtime,
        // each site should see roughly horizon / (mttf + mttr) ≈ 90 outages.
        let mut cfg = outage_config();
        cfg.horizon_s = 1_000_000.0;
        let plan = FaultPlan::generate(&cfg, &topo(), 5);
        let downs = site_downs(&plan) as f64 / 4.0;
        assert!(
            (60.0..130.0).contains(&downs),
            "mean outages per site: {downs}"
        );
    }

    #[test]
    fn maintenance_windows_repeat_until_horizon() {
        let cfg = FaultPlanConfig {
            horizon_s: 10_000.0,
            maintenance: vec![MaintenanceSpec {
                site: 1,
                start_s: 1_000.0,
                duration_s: 500.0,
                period_s: Some(3_000.0),
            }],
            ..FaultPlanConfig::default()
        };
        let plan = FaultPlan::generate(&cfg, &topo(), 1);
        // Windows at 1000, 4000, 7000, 10000.
        assert_eq!(site_downs(&plan), 4);
        assert_eq!(plan.events[0].time_s, 1_000.0);
        assert_eq!(plan.events[0].action, FaultAction::SiteDown { site: 1 });
        assert_eq!(plan.events[1].action, FaultAction::SiteUp { site: 1 });
    }

    #[test]
    fn incidents_fail_all_listed_sites_together() {
        let cfg = FaultPlanConfig {
            horizon_s: 50_000.0,
            incidents: vec![IncidentSpec {
                sites: vec![0, 2],
                mttf_s: 10_000.0,
                mttr_s: 500.0,
                shape: 1.5,
            }],
            ..FaultPlanConfig::default()
        };
        let plan = FaultPlan::generate(&cfg, &topo(), 13);
        let downs: Vec<&FaultEvent> = plan
            .events
            .iter()
            .filter(|e| matches!(e.action, FaultAction::SiteDown { .. }))
            .collect();
        assert!(!downs.is_empty());
        // Down events come in same-time pairs covering sites 0 and 2.
        for chunk in downs.chunks(2) {
            assert_eq!(chunk.len(), 2);
            assert_eq!(chunk[0].time_s, chunk[1].time_s);
        }
    }

    #[test]
    fn degradations_target_eligible_links_only() {
        let cfg = FaultPlanConfig {
            horizon_s: 100_000.0,
            degradations: vec![DegradationSpec {
                link: LinkSelector::All,
                factor: 0.25,
                mttf_s: 20_000.0,
                mttr_s: 2_000.0,
                shape: 1.0,
            }],
            ..FaultPlanConfig::default()
        };
        let plan = FaultPlan::generate(&cfg, &topo(), 21);
        let mut saw = false;
        for e in &plan.events {
            if let FaultAction::LinkDegrade { link, factor } = e.action {
                assert!(topo().links.contains(&link));
                assert_eq!(factor, 0.25);
                saw = true;
            }
        }
        assert!(saw);
    }

    #[test]
    fn kills_target_trace_indices() {
        let cfg = FaultPlanConfig {
            horizon_s: 36_000.0,
            kill_rate_per_hour: 2.0,
            ..FaultPlanConfig::default()
        };
        let plan = FaultPlan::generate(&cfg, &topo(), 2);
        let kills = plan
            .events
            .iter()
            .filter_map(|e| match e.action {
                FaultAction::KillJob { job } => Some(job),
                _ => None,
            })
            .collect::<Vec<_>>();
        assert!(!kills.is_empty());
        assert!(kills.iter().all(|&j| j < 100));
        // ~2/hour over 10 hours ≈ 20 kills.
        assert!((5..=60).contains(&kills.len()), "kills: {}", kills.len());
    }

    #[test]
    fn disk_losses_are_unpaired_and_within_horizon() {
        let cfg = FaultPlanConfig {
            horizon_s: 200_000.0,
            disk_losses: vec![DiskLossSpec {
                site: SiteSelector::All,
                mttf_s: 20_000.0,
            }],
            ..FaultPlanConfig::default()
        };
        assert!(!cfg.is_empty());
        let plan = FaultPlan::generate(&cfg, &topo(), 17);
        assert!(!plan.is_empty());
        for e in &plan.events {
            let FaultAction::DiskLoss { site } = e.action else {
                panic!("only disk losses expected, got {:?}", e.action);
            };
            assert!(site < 4);
            assert!(e.time_s <= 200_000.0);
        }
        // ~10 losses per site over 10 MTTFs.
        let per_site = plan.events.len() as f64 / 4.0;
        assert!((4.0..25.0).contains(&per_site), "losses/site: {per_site}");
    }

    #[test]
    fn out_of_range_targets_are_dropped() {
        let cfg = FaultPlanConfig {
            horizon_s: 50_000.0,
            outages: vec![OutageSpec {
                site: SiteSelector::Index(99),
                mttf_s: 1_000.0,
                mttr_s: 100.0,
                shape: 1.0,
            }],
            maintenance: vec![MaintenanceSpec {
                site: 99,
                start_s: 0.0,
                duration_s: 10.0,
                period_s: None,
            }],
            ..FaultPlanConfig::default()
        };
        assert!(FaultPlan::generate(&cfg, &topo(), 1).is_empty());
    }

    #[test]
    fn check_names_the_first_target_outside_the_topology() {
        let parsed = |spec: &str| crate::parse_fault_spec(spec).unwrap();
        let in_range = "outage:site=3,mttf=1h,mttr=1m;maint:site=0,start=0s,duration=1h;\
                        incident:sites=0+3,mttf=1h,mttr=1m;nodeloss:site=all,fraction=0.5,\
                        mttf=1h,mttr=1m;diskloss:site=2,mttf=1h;degrade:link=3,factor=0.5,\
                        mttf=1h,mttr=1m;kill:rate=1";
        assert_eq!(topo().check(&parsed(in_range)), Ok(()));
        for (spec, message) in [
            (
                "outage:site=4,mttf=1h,mttr=1m",
                "outage: site 4 does not exist",
            ),
            (
                "maint:site=9,start=0s,duration=1h",
                "maint: site 9 does not exist",
            ),
            (
                "incident:sites=0+9,mttf=1h,mttr=1m",
                "incident: site 9 does not exist",
            ),
            (
                "nodeloss:site=5,fraction=0.5,mttf=1h,mttr=1m",
                "nodeloss: site 5",
            ),
            ("diskloss:site=4,mttf=1h", "diskloss: site 4"),
            (
                "degrade:link=4,factor=0.5,mttf=1h,mttr=1m",
                "degrade: WAN link 4 does not exist",
            ),
        ] {
            let err = topo().check(&parsed(spec)).unwrap_err();
            assert!(err.starts_with(message), "{spec}: {err}");
        }
        let err = topo()
            .check(&parsed("outage:site=7,mttf=1h,mttr=1m"))
            .unwrap_err();
        assert_eq!(
            err,
            "outage: site 7 does not exist (the platform has 4 sites, numbered from 0)"
        );
    }
}
