//! Scenarios: immutable shared base state + cheap per-run deltas.
//!
//! The ROADMAP's "millions of users" north star reads as many concurrent
//! what-if queries — *which allocation policy? which fault spec? which
//! checkpoint interval? which seed?* — against a handful of shared grid
//! topologies and traces. This module is the evaluation path for that shape:
//!
//! * [`ScenarioBase`] — the expensive, immutable part of a run (platform
//!   spec + workload trace), held behind `Arc` and content-hashed once so a
//!   thousand scenarios share one copy,
//! * [`ScenarioSpec`] — one runnable scenario: a base reference plus the
//!   cheap deltas (execution config, `--faults` spec text and fault seed —
//!   the same fault input the CLI takes),
//! * [`ScenarioDelta`] — the serialisable delta shape used by the JSONL
//!   `cgsim serve` protocol: every field optional, resolved against the
//!   server's base execution config,
//! * [`ScenarioEngine`] — batch evaluation over the self-scheduling worker
//!   pool with exact response memoisation ([`ResponseCache`]),
//! * [`serve`] — the long-running JSONL request/response loop behind
//!   `cgsim serve`.
//!
//! Memoisation is *exact* because every run is bit-for-bit deterministic
//! (pinned by the CI determinism gates): the canonical hash of a spec fully
//! determines the deterministic subset of [`crate::SimulationResults`].
//! Equivalent scenarios must hash identically however they are spelled —
//! see [`hash`] for the canonical form, and [`ScenarioSpec::canonical_hash`]
//! for the fault normalisation (an empty spec string is the same scenario as
//! no faults; the fault seed only matters when a fault spec is present).

pub mod cache;
pub mod engine;
pub mod hash;
pub mod serve;

use std::sync::Arc;

use cgsim_faults::{parse_fault_spec, FaultPlan, FaultTopology};
use cgsim_platform::{Platform, PlatformSpec};
use cgsim_workload::Trace;
use serde::{Deserialize, Serialize};

use crate::config::{CheckpointConfig, ExecutionConfig, RepairConfig};
use crate::simulation::SimulationError;

pub use cache::{Response, ResponseCache};
pub use engine::{ScenarioEngine, ScenarioOutcome, DEFAULT_CACHE_CAPACITY};
pub use serve::{serve_loop, ServeRequest};

/// The fault seed used when none is specified (the CLI's `--fault-seed`
/// default).
pub const DEFAULT_FAULT_SEED: u64 = 7;

/// The immutable, shareable part of a scenario: platform + trace.
///
/// Both components live behind `Arc` — constructing scenarios, fanning a
/// sweep out over worker threads and caching responses all share the same
/// allocation. The content hashes are computed once here so hashing a
/// [`ScenarioSpec`] never re-serialises the (potentially huge) trace.
#[derive(Debug, Clone)]
pub struct ScenarioBase {
    platform: Arc<PlatformSpec>,
    trace: Arc<Trace>,
    platform_hash: u64,
    trace_hash: u64,
}

impl ScenarioBase {
    /// Builds a base from a platform and a trace (owned values or `Arc`s).
    pub fn new(platform: impl Into<Arc<PlatformSpec>>, trace: impl Into<Arc<Trace>>) -> Self {
        let platform = platform.into();
        let trace = trace.into();
        let platform_hash = hash::canonical_hash_of(&*platform);
        let trace_hash = hash::canonical_hash_of(&*trace);
        ScenarioBase {
            platform,
            trace,
            platform_hash,
            trace_hash,
        }
    }

    /// [`ScenarioBase::new`], already wrapped for sharing.
    pub fn shared(
        platform: impl Into<Arc<PlatformSpec>>,
        trace: impl Into<Arc<Trace>>,
    ) -> Arc<Self> {
        Arc::new(ScenarioBase::new(platform, trace))
    }

    /// A base with a different platform but the same trace. Only the
    /// platform hash is recomputed; the trace (and its hash) are reused —
    /// this is the calibration path, which re-evaluates one site's speed
    /// multiplier against a fixed historical trace.
    pub fn with_platform(&self, platform: impl Into<Arc<PlatformSpec>>) -> Self {
        let platform = platform.into();
        let platform_hash = hash::canonical_hash_of(&*platform);
        ScenarioBase {
            platform,
            trace: self.trace.clone(),
            platform_hash,
            trace_hash: self.trace_hash,
        }
    }

    /// The shared platform specification.
    pub fn platform(&self) -> &Arc<PlatformSpec> {
        &self.platform
    }

    /// The shared workload trace.
    pub fn trace(&self) -> &Arc<Trace> {
        &self.trace
    }

    /// Canonical hash of the base content (platform + trace).
    pub fn content_hash(&self) -> u64 {
        let h = hash::fnv1a(0xcbf2_9ce4_8422_2325, &self.platform_hash.to_le_bytes());
        hash::fnv1a(h, &self.trace_hash.to_le_bytes())
    }
}

/// One runnable scenario: a shared base plus its deltas.
#[derive(Debug, Clone)]
pub struct ScenarioSpec {
    /// The shared platform + trace.
    pub base: Arc<ScenarioBase>,
    /// Execution parameters (policy name, seed, checkpoint block, …).
    pub execution: ExecutionConfig,
    /// Optional `--faults` spec text (the CLI grammar); the plan is
    /// generated deterministically from it and [`ScenarioSpec::fault_seed`].
    /// An empty string is the same scenario as no faults at all.
    pub faults: Option<String>,
    /// Seed for fault-plan generation (ignored without a fault spec).
    pub fault_seed: u64,
}

impl ScenarioSpec {
    /// A fault-free scenario of `execution` against `base`.
    pub fn new(base: Arc<ScenarioBase>, execution: ExecutionConfig) -> Self {
        ScenarioSpec {
            base,
            execution,
            faults: None,
            fault_seed: DEFAULT_FAULT_SEED,
        }
    }

    /// Sets the fault spec text (CLI `--faults` grammar).
    pub fn with_faults(mut self, spec: impl Into<String>) -> Self {
        self.faults = Some(spec.into());
        self
    }

    /// Sets the fault-generation seed (CLI `--fault-seed`).
    pub fn with_fault_seed(mut self, seed: u64) -> Self {
        self.fault_seed = seed;
        self
    }

    /// The canonical hash identifying this scenario — the response-cache key.
    ///
    /// Equivalent scenarios hash identically: object key order and
    /// absent-vs-`null` optionals are canonicalised away (see [`hash`]), and
    /// the fault state is normalised so `faults: None` and `faults: Some("")`
    /// — bit-identical runs — share one key, with the fault seed folded in
    /// only when a fault spec is actually present. The tag bytes (`0` no
    /// faults, `2` spec text) are part of every serve cache key;
    /// `canonical_hash_golden` pins them.
    pub fn canonical_hash(&self) -> u64 {
        let mut h = self.base.content_hash();
        let execution = serde_json::to_value(&self.execution).expect("execution config serialises");
        h = hash::hash_value(h, &execution);
        match self.faults.as_deref() {
            Some(spec) if !spec.is_empty() => {
                h = hash::fnv1a(h, &[2]);
                h = hash::fnv1a(h, &(spec.len() as u64).to_le_bytes());
                h = hash::fnv1a(h, spec.as_bytes());
                hash::fnv1a(h, &self.fault_seed.to_le_bytes())
            }
            _ => hash::fnv1a(h, &[0]),
        }
    }

    /// Materialises the fault plan this scenario runs under, generated from
    /// the spec text exactly like the CLI does (`parse_fault_spec` →
    /// `FaultTopology::for_platform` → `check` → `FaultPlan::generate`);
    /// `None` without a fault spec. A spec that does not parse or names a
    /// site or link the platform lacks is `InvalidScenario`.
    pub fn build_fault_plan(&self) -> Result<Option<FaultPlan>, SimulationError> {
        let Some(spec_text) = self.faults.as_deref().filter(|s| !s.is_empty()) else {
            return Ok(None);
        };
        let config = parse_fault_spec(spec_text).map_err(SimulationError::InvalidScenario)?;
        let platform = Platform::build(self.base.platform())
            .map_err(|e| SimulationError::Platform(e.to_string()))?;
        let topology = FaultTopology::for_platform(&platform, self.base.trace().len());
        topology
            .check(&config)
            .map_err(SimulationError::InvalidScenario)?;
        Ok(Some(FaultPlan::generate(
            &config,
            &topology,
            self.fault_seed,
        )))
    }
}

/// The serialisable scenario delta of the `cgsim serve` JSONL protocol.
///
/// Every field is optional; absent (or `null`) fields inherit the server's
/// base execution configuration. Because the canonical hash is computed from
/// the *resolved* [`ScenarioSpec`] — never from the request text — two
/// requests spelling the same scenario differently (field order, explicit
/// `null`s, explicitly restating a default) share one cache entry.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ScenarioDelta {
    /// Allocation policy name (registry key).
    #[serde(default)]
    pub policy: Option<String>,
    /// Master RNG seed.
    #[serde(default)]
    pub seed: Option<u64>,
    /// Fault spec text (CLI `--faults` grammar; empty string = no faults).
    #[serde(default)]
    pub faults: Option<String>,
    /// Fault-generation seed (CLI `--fault-seed`).
    #[serde(default)]
    pub fault_seed: Option<u64>,
    /// Checkpoint/restart policy override.
    #[serde(default)]
    pub checkpoint: Option<CheckpointConfig>,
    /// Fault-aware re-replication (repair planner) override.
    #[serde(default)]
    pub repair: Option<RepairConfig>,
}

impl ScenarioDelta {
    /// Resolves the delta against a shared base and a base execution config.
    pub fn resolve(&self, base: &Arc<ScenarioBase>, execution: &ExecutionConfig) -> ScenarioSpec {
        let mut execution = execution.clone();
        if let Some(policy) = &self.policy {
            execution.allocation_policy = policy.clone();
        }
        if let Some(seed) = self.seed {
            execution.seed = seed;
        }
        if let Some(checkpoint) = &self.checkpoint {
            execution.checkpoint = checkpoint.clone();
        }
        if let Some(repair) = &self.repair {
            execution.repair = repair.clone();
        }
        let mut spec = ScenarioSpec::new(base.clone(), execution);
        spec.faults = self.faults.clone();
        if let Some(fault_seed) = self.fault_seed {
            spec.fault_seed = fault_seed;
        }
        spec
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgsim_platform::presets::example_platform;
    use cgsim_workload::{TraceConfig, TraceGenerator};
    use proptest::prelude::*;
    use serde_json::Value;

    fn base() -> Arc<ScenarioBase> {
        let platform = example_platform();
        let trace = TraceGenerator::new(TraceConfig::with_jobs(40, 5)).generate(&platform);
        ScenarioBase::shared(platform, trace)
    }

    #[test]
    fn base_sharing_is_pointer_cheap() {
        let platform = Arc::new(example_platform());
        let trace =
            Arc::new(TraceGenerator::new(TraceConfig::with_jobs(10, 1)).generate(&platform));
        let base = ScenarioBase::shared(platform.clone(), trace.clone());
        assert_eq!(Arc::strong_count(&platform), 2);
        assert_eq!(Arc::strong_count(&trace), 2);
        // A thousand scenario specs add zero copies of platform or trace.
        let specs: Vec<ScenarioSpec> = (0..1000)
            .map(|seed| {
                let execution = ExecutionConfig {
                    seed,
                    ..ExecutionConfig::default()
                };
                ScenarioSpec::new(base.clone(), execution)
            })
            .collect();
        assert_eq!(Arc::strong_count(&platform), 2);
        assert_eq!(Arc::strong_count(&trace), 2);
        assert_eq!(Arc::strong_count(&base), 1001);
        drop(specs);
        assert_eq!(Arc::strong_count(&base), 1);
    }

    #[test]
    fn with_platform_reuses_the_trace_hash() {
        let base = base();
        let mut modified = (**base.platform()).clone();
        modified.sites[0].speed_multiplier = 2.0;
        let rebased = base.with_platform(modified);
        assert_eq!(rebased.trace_hash, base.trace_hash);
        assert_ne!(rebased.content_hash(), base.content_hash());
        assert!(Arc::ptr_eq(rebased.trace(), base.trace()));
    }

    #[test]
    fn fault_normalisation_collapses_equivalent_spellings() {
        let base = base();
        let plain = ScenarioSpec::new(base.clone(), ExecutionConfig::default());
        let empty_text = plain.clone().with_faults("");
        assert_eq!(plain.canonical_hash(), empty_text.canonical_hash());
        // The fault seed is irrelevant without a fault spec…
        assert_eq!(
            plain.canonical_hash(),
            plain.clone().with_fault_seed(99).canonical_hash()
        );
        // …but distinguishes scenarios once one is present.
        let faulted = plain.clone().with_faults("kill:rate=1");
        assert_ne!(plain.canonical_hash(), faulted.canonical_hash());
        assert_ne!(
            faulted.canonical_hash(),
            faulted.clone().with_fault_seed(99).canonical_hash()
        );
    }

    /// Pins the response-cache key of four spellings, so a refactor of the
    /// fault-input paths provably leaves every serve cache key where it was.
    #[test]
    fn canonical_hash_golden() {
        let base = base();
        let plain = ScenarioSpec::new(base.clone(), ExecutionConfig::default());
        let delta = ScenarioDelta {
            policy: Some("round-robin".into()),
            checkpoint: Some(CheckpointConfig::every(600.0)),
            repair: Some(RepairConfig {
                enabled: true,
                ..RepairConfig::default()
            }),
            ..ScenarioDelta::default()
        };
        let hashes = [
            plain.canonical_hash(),
            plain
                .clone()
                .with_faults("kill:rate=1;horizon=12h")
                .with_fault_seed(3)
                .canonical_hash(),
            plain.clone().with_faults("").canonical_hash(),
            delta
                .resolve(&base, &ExecutionConfig::default())
                .canonical_hash(),
        ];
        assert_eq!(
            hashes,
            [
                13728694417304163428,
                10499893755508755294,
                13728694417304163428,
                10873736596840504284,
            ]
        );
    }

    #[test]
    fn delta_resolution_inherits_the_base_execution() {
        let base = base();
        let execution = ExecutionConfig {
            seed: 11,
            ..ExecutionConfig::default()
        };
        let delta = ScenarioDelta {
            policy: Some("round-robin".into()),
            checkpoint: Some(CheckpointConfig::every(600.0)),
            ..ScenarioDelta::default()
        };
        let spec = delta.resolve(&base, &execution);
        assert_eq!(spec.execution.allocation_policy, "round-robin");
        assert_eq!(spec.execution.seed, 11);
        assert_eq!(spec.execution.checkpoint.interval_s, 600.0);
        assert_eq!(spec.fault_seed, DEFAULT_FAULT_SEED);
        // An empty delta is exactly the base scenario.
        let identity = ScenarioDelta::default().resolve(&base, &execution);
        assert_eq!(
            identity.canonical_hash(),
            ScenarioSpec::new(base.clone(), execution.clone()).canonical_hash()
        );
    }

    #[test]
    fn build_fault_plan_matches_the_cli_pipeline() {
        let base = base();
        let spec = ScenarioSpec::new(base.clone(), ExecutionConfig::default())
            .with_faults("kill:rate=2;horizon=12h")
            .with_fault_seed(7);
        let plan = spec.build_fault_plan().unwrap().expect("plan generated");
        // Same pipeline as src/main.rs build_fault_plan.
        let config = parse_fault_spec("kill:rate=2;horizon=12h").unwrap();
        let platform = Platform::build(base.platform()).unwrap();
        let topology = FaultTopology::for_platform(&platform, base.trace().len());
        assert_eq!(plan, FaultPlan::generate(&config, &topology, 7));

        let bad = ScenarioSpec::new(base, ExecutionConfig::default()).with_faults("bogus:nope");
        assert!(matches!(
            bad.build_fault_plan(),
            Err(SimulationError::InvalidScenario(_))
        ));
    }

    /// Deterministically permutes object key order throughout a value tree
    /// (rotation by `shift` at every object), leaving content untouched.
    fn rotate_keys(value: &Value, shift: usize) -> Value {
        match value {
            Value::Array(items) => {
                Value::Array(items.iter().map(|v| rotate_keys(v, shift)).collect())
            }
            Value::Object(map) => {
                let entries: Vec<(String, Value)> = map
                    .iter()
                    .map(|(k, v)| (k.clone(), rotate_keys(v, shift)))
                    .collect();
                let n = entries.len().max(1);
                let rotated = entries
                    .iter()
                    .cycle()
                    .skip(shift % n)
                    .take(entries.len())
                    .cloned()
                    .collect::<Vec<_>>();
                Value::Object(rotated.into_iter().collect())
            }
            other => other.clone(),
        }
    }

    proptest! {
        /// Satellite: serde round-trips and field-order permutations of an
        /// equivalent scenario hash identically; distinct seeds, policies and
        /// fault specs never collide (64 cases).
        #[test]
        fn canonical_hash_is_permutation_stable_and_collision_free(
            seed in 0u64..1_000_000,
            policy in prop::sample::select(vec!["least-loaded", "round-robin", "random"]),
            faults in prop::sample::select(vec!["", "kill:rate=1", "outage:site=0,mttf=4h,mttr=30m"]),
            fault_seed in 0u64..1_000,
            shift in 1usize..7,
        ) {
            let base = base();
            let mut execution = ExecutionConfig::with_policy(policy);
            execution.seed = seed;
            let spec = ScenarioSpec::new(base.clone(), execution.clone())
                .with_faults(faults)
                .with_fault_seed(fault_seed);
            let reference = spec.canonical_hash();

            // Round-trip the execution config through JSON text and permute
            // its field order: still the same scenario, same hash.
            let tree = serde_json::to_value(&execution).unwrap();
            let rotated = rotate_keys(&tree, shift);
            prop_assert_ne!(
                serde_json::to_string(&tree).unwrap(),
                serde_json::to_string(&rotated).unwrap(),
                "rotation must actually reorder fields"
            );
            let reparsed: ExecutionConfig =
                serde_json::from_str(&serde_json::to_string(&rotated).unwrap()).unwrap();
            let round_tripped = ScenarioSpec::new(base.clone(), reparsed)
                .with_faults(faults)
                .with_fault_seed(fault_seed);
            prop_assert_eq!(reference, round_tripped.canonical_hash());

            // Distinct deltas never collide with the reference scenario.
            let mut other_seed = execution.clone();
            other_seed.seed = seed + 1;
            prop_assert_ne!(
                reference,
                ScenarioSpec::new(base.clone(), other_seed)
                    .with_faults(faults)
                    .with_fault_seed(fault_seed)
                    .canonical_hash()
            );
            let mut other_policy = execution.clone();
            other_policy.allocation_policy = "fastest-available".into();
            prop_assert_ne!(
                reference,
                ScenarioSpec::new(base.clone(), other_policy)
                    .with_faults(faults)
                    .with_fault_seed(fault_seed)
                    .canonical_hash()
            );
            let other_faults = ScenarioSpec::new(base, execution)
                .with_faults("degrade:link=all,factor=0.5,mttf=6h,mttr=15m")
                .with_fault_seed(fault_seed);
            prop_assert_ne!(reference, other_faults.canonical_hash());
        }
    }
}
