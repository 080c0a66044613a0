//! Scenarios: immutable shared base state + cheap per-run deltas.
//!
//! The ROADMAP's "millions of users" north star reads as many concurrent
//! what-if queries — *which allocation policy? which fault spec? which
//! checkpoint interval? which seed?* — against a handful of shared grid
//! topologies and traces. This module is the evaluation path for that shape:
//!
//! * [`ScenarioBase`] — the expensive, immutable part of a run (platform
//!   spec + workload trace), held behind `Arc` and content-hashed at most
//!   once so a thousand scenarios share one copy,
//! * [`ScenarioSpec`] — one runnable scenario: a base reference plus the
//!   cheap deltas (execution config, `--faults` spec text and fault seed —
//!   the same fault input the CLI takes); [`ScenarioSpec::run`] is the one
//!   way a scenario becomes a run, for the CLI, the engine and serve alike,
//! * [`ServeRequest`] — one request of the JSONL `cgsim serve` protocol:
//!   a serialisable delta, every field optional, resolved against the
//!   server's base execution config,
//! * [`ScenarioEngine`] — batch evaluation over the self-scheduling worker
//!   pool with exact response memoisation,
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

mod cache;
pub mod engine;
pub mod hash;
pub mod serve;

use std::sync::{Arc, OnceLock};

use crate::config::ExecutionConfig;
use crate::results::SimulationResults;
use crate::simulation::{build_platform, Simulation, SimulationError};
use cgsim_faults::FaultPlan;
use cgsim_obs::TraceSink;
use cgsim_platform::{Platform, PlatformSpec};
use cgsim_policies::PolicyRegistry;
use cgsim_workload::Trace;

pub use engine::{ScenarioEngine, ScenarioOutcome};
pub use serve::{serve_loop, ServeRequest};

/// The fault seed used when none is specified (the CLI's `--fault-seed`
/// default).
pub(crate) const DEFAULT_FAULT_SEED: u64 = 7;

/// The immutable, shareable part of a scenario: platform + trace.
///
/// Both components live behind `Arc` — constructing scenarios, fanning a
/// sweep out over worker threads and caching responses all share the same
/// allocation. The content hashes are computed on first use and kept, so
/// hashing a [`ScenarioSpec`] never re-serialises the (potentially huge)
/// trace, and a base that is only run (a CLI run) never pays them.
#[derive(Debug, Clone)]
pub struct ScenarioBase {
    platform: Arc<PlatformSpec>,
    trace: Arc<Trace>,
    platform_hash: OnceLock<u64>,
    trace_hash: OnceLock<u64>,
}

impl ScenarioBase {
    /// Builds a base from a platform and a trace (owned values or `Arc`s).
    pub fn new(platform: impl Into<Arc<PlatformSpec>>, trace: impl Into<Arc<Trace>>) -> Self {
        ScenarioBase {
            platform: platform.into(),
            trace: trace.into(),
            platform_hash: OnceLock::new(),
            trace_hash: OnceLock::new(),
        }
    }

    /// [`ScenarioBase::new`], already wrapped for sharing.
    pub fn shared(
        platform: impl Into<Arc<PlatformSpec>>,
        trace: impl Into<Arc<Trace>>,
    ) -> Arc<Self> {
        Arc::new(ScenarioBase::new(platform, trace))
    }

    /// A base with a different platform but the same trace. The trace (and
    /// its hash, computed here if it was not yet) are reused — this is the
    /// calibration path, which re-evaluates one site's speed multiplier
    /// against a fixed historical trace.
    pub fn with_platform(&self, platform: impl Into<Arc<PlatformSpec>>) -> Self {
        ScenarioBase {
            trace_hash: OnceLock::from(self.trace_hash()),
            ..ScenarioBase::new(platform, self.trace.clone())
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

    fn trace_hash(&self) -> u64 {
        *self
            .trace_hash
            .get_or_init(|| hash::canonical_hash_of(&*self.trace))
    }

    /// Canonical hash of the base content (platform + trace).
    pub(crate) fn content_hash(&self) -> u64 {
        let platform_hash = self
            .platform_hash
            .get_or_init(|| hash::canonical_hash_of(&*self.platform));
        let h = hash::fnv1a(0xcbf2_9ce4_8422_2325, &platform_hash.to_le_bytes());
        hash::fnv1a(h, &self.trace_hash().to_le_bytes())
    }
}

/// How a run is observed. Never part of the scenario: it is not hashed, and
/// by the observability determinism contract it never changes the results.
#[derive(Default)]
pub struct Observe {
    /// A structured-trace sink and the categories it keeps (see
    /// [`cgsim_obs::TraceTarget`]).
    pub trace: Option<(Box<dyn TraceSink>, u32)>,
    /// Wall-clock self-profiling into [`SimulationResults::profile`].
    pub profile: bool,
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
    /// A spec that declares no fault process (`""`, `horizon=1h`) is the
    /// same run as no faults at all.
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
    ///
    /// Once the base's content hash is memoised this allocates nothing: the
    /// execution config is hashed field by field ([`hash`]'s direct walk).
    /// Debug builds also hash its value tree and assert the two agree.
    pub fn canonical_hash(&self) -> u64 {
        let base = self.base.content_hash();
        let mut h = hash::hash_execution(base, &self.execution);
        #[cfg(debug_assertions)]
        assert_eq!(
            h,
            hash::hash_value(
                base,
                &serde_json::to_value(&self.execution).expect("execution config serialises")
            ),
            "the direct execution-config hash diverged from its value tree's"
        );
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

    /// Materialises the fault plan this scenario runs under on `platform`
    /// (built from [`ScenarioBase::platform`]) through
    /// [`FaultPlan::from_spec`], with the horizon it was generated to;
    /// `None` without a fault spec or when the spec declares no fault
    /// process. A spec that does not parse or names a site or link the
    /// platform lacks is `InvalidScenario`.
    pub fn build_fault_plan(
        &self,
        platform: &Platform,
    ) -> Result<Option<(FaultPlan, f64)>, SimulationError> {
        let Some(spec_text) = self.faults.as_deref() else {
            return Ok(None);
        };
        let jobs = self.base.trace().len();
        FaultPlan::from_spec(spec_text, self.fault_seed, platform, jobs)
            .map_err(SimulationError::InvalidScenario)
    }

    /// Runs the scenario: validate the execution config, resolve the policy
    /// through `registry`, build the platform, generate the fault plan on
    /// it, attach the observers and run. This is the one path from a
    /// scenario to its results; the CLI, the engine and `cgsim serve` all
    /// take it. Besides the results it returns the fault plan's event count
    /// and horizon, `None` when the spec declares no fault process.
    pub fn run(
        &self,
        registry: &PolicyRegistry,
        observe: Observe,
    ) -> Result<(SimulationResults, Option<(usize, f64)>), SimulationError> {
        self.execution.validate()?;
        let policy = registry
            .create(&self.execution.allocation_policy, self.execution.seed)
            .ok_or_else(|| {
                SimulationError::UnknownPolicy(self.execution.allocation_policy.clone())
            })?;
        let platform = build_platform(self.base.platform())?;
        let fault_plan = self.build_fault_plan(&platform)?;
        let mut builder = Simulation::builder()
            .platform(platform)
            .trace(self.base.trace().clone())
            .policy(policy)
            .execution(self.execution.clone());
        let mut planned = None;
        if let Some((plan, horizon_s)) = fault_plan {
            planned = Some((plan.len(), horizon_s));
            builder = builder.fault_plan(plan);
        }
        if let Some((sink, mask)) = observe.trace {
            builder = builder.trace_sink(sink, mask);
        }
        let results = builder.profile(observe.profile).run()?;
        Ok((results, planned))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CheckpointConfig, RepairConfig};
    use cgsim_faults::{parse_fault_spec, FaultTopology};
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
        assert!(base.trace_hash.get().is_some());
        assert_eq!(rebased.trace_hash.get(), base.trace_hash.get());
        assert!(rebased.platform_hash.get().is_none());
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
        let delta = ServeRequest {
            policy: Some("round-robin".into()),
            checkpoint: Some(CheckpointConfig::every(600.0)),
            repair: Some(RepairConfig {
                enabled: true,
                ..RepairConfig::default()
            }),
            ..ServeRequest::default()
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
                3795320186142470070,
                10127808193134304392,
                3795320186142470070,
                16062320037783044018,
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
        let delta = ServeRequest {
            policy: Some("round-robin".into()),
            checkpoint: Some(CheckpointConfig::every(600.0)),
            ..ServeRequest::default()
        };
        let spec = delta.resolve(&base, &execution);
        assert_eq!(spec.execution.allocation_policy, "round-robin");
        assert_eq!(spec.execution.seed, 11);
        assert_eq!(spec.execution.checkpoint.interval_s, 600.0);
        assert_eq!(spec.fault_seed, DEFAULT_FAULT_SEED);
        // An empty delta is exactly the base scenario.
        let identity = ServeRequest::default().resolve(&base, &execution);
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
        let platform = Platform::build(base.platform()).unwrap();
        let (plan, horizon_s) = spec
            .build_fault_plan(&platform)
            .unwrap()
            .expect("plan generated");
        // The explicit pipeline.
        let config = parse_fault_spec("kill:rate=2;horizon=12h").unwrap();
        let topology = FaultTopology::for_platform(&platform, base.trace().len());
        assert_eq!(plan, FaultPlan::generate(&config, &topology, 7));
        assert_eq!(horizon_s, 12.0 * 3600.0);

        // A spec without a fault process is no plan, whatever its horizon.
        for text in ["", " ; ", "horizon=1h"] {
            let spec = spec.clone().with_faults(text);
            assert!(
                spec.build_fault_plan(&platform).unwrap().is_none(),
                "{text:?}"
            );
        }
        let bad = ScenarioSpec::new(base, ExecutionConfig::default()).with_faults("bogus:nope");
        assert!(matches!(
            bad.build_fault_plan(&platform),
            Err(SimulationError::InvalidScenario(_))
        ));
    }

    /// A run needs no cache key, so running a scenario — faults, trace sink
    /// and profile included — computes neither content hash of its base.
    #[test]
    fn run_leaves_the_base_unhashed() {
        let base = base();
        let spec =
            ScenarioSpec::new(base.clone(), ExecutionConfig::default()).with_faults("kill:rate=2");
        let observe = Observe {
            trace: Some((
                Box::new(cgsim_obs::MemorySink::default()),
                cgsim_obs::MASK_ALL,
            )),
            profile: true,
        };
        let (results, planned) = spec.run(&PolicyRegistry::with_builtins(), observe).unwrap();
        assert_eq!(results.outcomes.len(), base.trace().len());
        assert!(results.profile.is_some());
        assert!(planned.is_some_and(|(events, _)| events > 0));
        assert!(base.platform_hash.get().is_none());
        assert!(base.trace_hash.get().is_none());
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
