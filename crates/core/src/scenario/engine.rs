//! The scenario engine: batch evaluation with memoisation.
//!
//! The engine owns the three shared pieces every evaluation needs — the
//! policy registry, the deterministic response cache and the run counter —
//! and evaluates [`ScenarioSpec`] batches over a self-scheduling worker
//! pool. It is the one batch API: parameter sweeps, policy comparisons, the
//! calibrator and the `cgsim serve` front end all hold one engine and call
//! [`ScenarioEngine::evaluate_batch`] through shared references.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use cgsim_monitor::CacheCounters;
use cgsim_obs::TraceSink;
use cgsim_policies::PolicyRegistry;

use crate::results::SimulationResults;
use crate::scenario::cache::{Response, ResponseCache};
use crate::scenario::{Observe, ScenarioSpec};
use crate::simulation::SimulationError;

/// Default number of responses the engine memoises.
pub(crate) const DEFAULT_CACHE_CAPACITY: usize = 256;

/// The result of evaluating one scenario.
#[derive(Debug, Clone)]
pub struct ScenarioOutcome {
    /// The (possibly shared) simulation results.
    pub results: Arc<SimulationResults>,
    /// The compact deterministic JSON of `results`, encoded once by the run
    /// that produced them and shared by every later answer.
    pub body: Arc<str>,
    /// True when the response was served without running a simulation for
    /// this request (cache hit, or a duplicate within the same batch).
    pub cached: bool,
    /// The canonical scenario hash the response is keyed on.
    pub hash: u64,
}

impl ScenarioOutcome {
    fn new(response: Response, cached: bool, hash: u64) -> Self {
        ScenarioOutcome {
            results: response.results,
            body: response.body,
            cached,
            hash,
        }
    }
}

/// A shared evaluation engine for scenario batches.
pub struct ScenarioEngine {
    registry: PolicyRegistry,
    cache: Option<Mutex<ResponseCache>>,
    simulations_run: AtomicU64,
    bodies_encoded: AtomicU64,
    parallel: bool,
}

impl Default for ScenarioEngine {
    fn default() -> Self {
        ScenarioEngine::new()
    }
}

impl ScenarioEngine {
    /// An engine with the built-in policies, a cache of
    /// `DEFAULT_CACHE_CAPACITY` (256) responses and parallel batch evaluation.
    pub fn new() -> Self {
        ScenarioEngine::with_registry(PolicyRegistry::with_builtins())
    }

    /// An engine resolving policies through `registry` (custom plugins
    /// included). The registry is `Arc`-backed, so this is a cheap clone of
    /// the name table, not of the policies.
    pub(crate) fn with_registry(registry: PolicyRegistry) -> Self {
        ScenarioEngine {
            registry,
            cache: Some(Mutex::new(ResponseCache::new(DEFAULT_CACHE_CAPACITY))),
            simulations_run: AtomicU64::new(0),
            bodies_encoded: AtomicU64::new(0),
            parallel: true,
        }
    }

    /// Replaces the response cache with one holding `capacity` entries.
    pub fn cache_capacity(mut self, capacity: usize) -> Self {
        self.cache = Some(Mutex::new(ResponseCache::new(capacity)));
        self
    }

    /// Disables response caching: every request runs a fresh simulation.
    /// Output is byte-identical either way (determinism is what makes the
    /// cache exact); this exists for verification and for memory-constrained
    /// deployments.
    pub fn no_cache(mut self) -> Self {
        self.cache = None;
        self
    }

    /// Enables or disables the parallel worker pool for batches.
    pub fn parallel(mut self, parallel: bool) -> Self {
        self.parallel = parallel;
        self
    }

    /// Cache counters (all zero when caching is disabled).
    pub fn cache_counters(&self) -> CacheCounters {
        self.cache
            .as_ref()
            .map(|c| c.lock().expect("cache mutex poisoned").counters())
            .unwrap_or_default()
    }

    /// Total simulations actually executed (excludes cache hits).
    pub fn simulations_run(&self) -> u64 {
        self.simulations_run.load(Ordering::Relaxed)
    }

    /// Total reply bodies encoded. One per executed simulation: answers from
    /// the cache reuse the body their run encoded.
    pub(crate) fn bodies_encoded(&self) -> u64 {
        self.bodies_encoded.load(Ordering::Relaxed)
    }

    /// Evaluates one scenario (through the cache).
    pub fn evaluate(&self, spec: &ScenarioSpec) -> Result<ScenarioOutcome, SimulationError> {
        self.evaluate_batch(std::slice::from_ref(spec))
            .pop()
            .expect("batch of one yields one outcome")
    }

    /// Evaluates a batch of scenarios, returning outcomes in input order.
    ///
    /// Cache hits are answered immediately; the remaining *unique* scenarios
    /// run over the self-scheduling worker pool (duplicates within the batch
    /// share a single run and count as cache hits). Per-scenario errors
    /// (unknown policy, invalid fault spec, platform validation) fail only
    /// their own slot and are never cached.
    pub fn evaluate_batch(
        &self,
        specs: &[ScenarioSpec],
    ) -> Vec<Result<ScenarioOutcome, SimulationError>> {
        let hashes: Vec<u64> = specs.iter().map(ScenarioSpec::canonical_hash).collect();
        let mut slots: Vec<Option<Result<ScenarioOutcome, SimulationError>>> =
            (0..specs.len()).map(|_| None).collect();
        // Indices of the first occurrence of each hash that needs a run.
        let mut unique: Vec<usize> = Vec::new();
        // (request index, position in `unique`) of in-batch duplicates.
        let mut followers: Vec<(usize, usize)> = Vec::new();

        match &self.cache {
            Some(cache) => {
                let mut cache = cache.lock().expect("cache mutex poisoned");
                for (i, &hash) in hashes.iter().enumerate() {
                    if let Some(response) = cache.lookup(hash) {
                        slots[i] = Some(Ok(ScenarioOutcome::new(response, true, hash)));
                    } else if let Some(pos) = unique.iter().position(|&j| hashes[j] == hash) {
                        cache.record_shared_hit();
                        followers.push((i, pos));
                    } else {
                        cache.record_miss();
                        unique.push(i);
                    }
                }
            }
            // Without a cache nothing is deduplicated: every request runs.
            None => unique = (0..specs.len()).collect(),
        }

        let to_run: Vec<&ScenarioSpec> = unique.iter().map(|&i| &specs[i]).collect();
        let runs: Vec<Result<Response, SimulationError>> =
            run_self_scheduled(to_run, self.parallel, |spec| {
                self.run_spec(spec, Observe::default())
            });

        if let Some(cache) = &self.cache {
            let mut cache = cache.lock().expect("cache mutex poisoned");
            for (pos, &i) in unique.iter().enumerate() {
                if let Ok(response) = &runs[pos] {
                    cache.insert(hashes[i], response.clone());
                }
            }
        }
        for (pos, &i) in unique.iter().enumerate() {
            let run = runs[pos].clone();
            slots[i] = Some(run.map(|r| ScenarioOutcome::new(r, false, hashes[i])));
        }
        for (i, pos) in followers {
            let run = runs[pos].clone();
            slots[i] = Some(run.map(|r| ScenarioOutcome::new(r, true, hashes[i])));
        }
        slots
            .into_iter()
            .map(|s| s.expect("every request is classified exactly once"))
            .collect()
    }

    /// Evaluates one scenario with a structured-trace sink attached. The
    /// trace must come from a real run, so the cache is bypassed on the way
    /// in; on the way out the fresh results are fed *into* the cache — by
    /// the determinism contract they are byte-identical to untraced ones, so
    /// later untraced duplicates can be answered from memory.
    pub(crate) fn evaluate_traced(
        &self,
        spec: &ScenarioSpec,
        sink: Box<dyn TraceSink>,
        mask: u32,
    ) -> Result<ScenarioOutcome, SimulationError> {
        let hash = spec.canonical_hash();
        let observe = Observe {
            trace: Some((sink, mask)),
            profile: false,
        };
        let response = self.run_spec(spec, observe)?;
        if let Some(cache) = &self.cache {
            let mut cache = cache.lock().expect("cache mutex poisoned");
            cache.record_miss();
            cache.insert(hash, response.clone());
        }
        Ok(ScenarioOutcome::new(response, false, hash))
    }

    /// Runs one scenario unconditionally (no cache involvement) through
    /// [`ScenarioSpec::run`], the CLI's own path.
    fn run_spec(&self, spec: &ScenarioSpec, observe: Observe) -> Result<Response, SimulationError> {
        let (results, _) = spec.run(&self.registry, observe)?;
        self.simulations_run.fetch_add(1, Ordering::Relaxed);
        Ok(self.encode(results))
    }

    /// Wraps fresh results with their reply body — the one place a body is
    /// encoded, which is what [`ScenarioEngine::bodies_encoded`] counts.
    fn encode(&self, results: SimulationResults) -> Response {
        self.bodies_encoded.fetch_add(1, Ordering::Relaxed);
        Response {
            body: results.deterministic_json_compact().into(),
            results: Arc::new(results),
        }
    }
}

/// Runs `run` over every item, self-scheduling the items across
/// `available_parallelism` worker threads when `parallel` is set; results
/// come back in input order either way.
///
/// Workers pull the next unclaimed item off a shared atomic counter.
/// Contiguous chunking would hand every large point of a monotone
/// job-scaling sweep to the same worker (the last chunk), serialising most
/// of the work; with self-scheduling a worker that drew a cheap item simply
/// comes back for another, so the load balances itself whatever the
/// item-size distribution.
pub(crate) fn run_self_scheduled<T, R, F>(items: Vec<T>, parallel: bool, run: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    if !parallel || items.len() <= 1 {
        return items.into_iter().map(run).collect();
    }

    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(items.len());

    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|p| Mutex::new(Some(p))).collect();
    let results: Vec<Mutex<Option<R>>> = (0..slots.len()).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);

    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= slots.len() {
                    break;
                }
                let item = slots[i]
                    .lock()
                    .expect("work item mutex poisoned")
                    .take()
                    .expect("each work item is claimed exactly once");
                let outcome = run(item);
                *results[i].lock().expect("result mutex poisoned") = Some(outcome);
            });
        }
    });

    results
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result mutex poisoned")
                .expect("every work item produced a result")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ExecutionConfig;
    use crate::scenario::ScenarioBase;
    use cgsim_platform::presets::{example_platform, wlcg_platform};
    use cgsim_platform::PlatformSpec;
    use cgsim_workload::{Trace, TraceConfig, TraceGenerator};

    fn spec(platform: PlatformSpec, jobs: usize, seed: u64) -> ScenarioSpec {
        let trace = TraceGenerator::new(TraceConfig::with_jobs(jobs, seed)).generate(&platform);
        ScenarioSpec::new(
            ScenarioBase::shared(platform, trace),
            ExecutionConfig::default(),
        )
    }

    /// Five specs over alternating topologies and growing traces.
    fn mixed_specs() -> Vec<ScenarioSpec> {
        (0..5)
            .map(|i| {
                let platform = if i % 2 == 0 {
                    example_platform()
                } else {
                    wlcg_platform(6, i as u64)
                };
                spec(platform, 60 + 10 * i, i as u64)
            })
            .collect()
    }

    /// Many tiny specs followed by a few large ones: the shape of a monotone
    /// job-scaling sweep, where contiguous chunking would pile every large
    /// spec onto the last worker.
    fn skewed_specs() -> Vec<ScenarioSpec> {
        (0..9)
            .map(|i| spec(example_platform(), if i >= 7 { 400 } else { 20 }, i))
            .collect()
    }

    fn bodies(engine: &ScenarioEngine, specs: &[ScenarioSpec]) -> Vec<Arc<str>> {
        engine
            .evaluate_batch(specs)
            .into_iter()
            .map(|o| o.expect("scenario runs").body)
            .collect()
    }

    #[test]
    fn serial_and_parallel_batches_agree_exactly() {
        for specs in [mixed_specs(), skewed_specs()] {
            let serial = bodies(&ScenarioEngine::new().parallel(false), &specs);
            let parallel = bodies(&ScenarioEngine::new(), &specs);
            assert_eq!(serial.len(), specs.len());
            assert_eq!(serial, parallel);
        }
    }

    #[test]
    fn outcomes_keep_input_order() {
        let specs = skewed_specs();
        let outcomes = ScenarioEngine::new().evaluate_batch(&specs);
        for (spec, outcome) in specs.iter().zip(outcomes) {
            let outcome = outcome.unwrap();
            assert_eq!(outcome.hash, spec.canonical_hash());
            assert_eq!(outcome.results.outcomes.len(), spec.base.trace().len());
        }
    }

    /// A 100-spec batch over one base holds one copy of the platform and
    /// trace: with the specs and the engine gone, the originals are sole
    /// owners again, so the worker path never deep-cloned them.
    #[test]
    fn shared_base_is_not_deep_cloned() {
        let platform = Arc::new(example_platform());
        let trace: Arc<Trace> =
            Arc::new(TraceGenerator::new(TraceConfig::with_jobs(40, 9)).generate(&platform));
        let base = ScenarioBase::shared(platform.clone(), trace.clone());
        let specs: Vec<ScenarioSpec> = (0..100)
            .map(|i| {
                let execution = ExecutionConfig {
                    seed: i + 1,
                    ..ExecutionConfig::default()
                };
                ScenarioSpec::new(base.clone(), execution)
            })
            .collect();
        drop(base);
        let engine = ScenarioEngine::new();
        let outcomes = engine.evaluate_batch(&specs);
        assert!(outcomes.iter().all(Result::is_ok));
        assert_eq!(engine.simulations_run(), 100);
        drop((outcomes, specs, engine));
        assert_eq!(Arc::strong_count(&platform), 1);
        assert_eq!(Arc::strong_count(&trace), 1);
    }

    #[test]
    fn identical_specs_share_one_run_and_later_batches_hit_the_cache() {
        let engine = ScenarioEngine::new();
        let one = spec(example_platform(), 30, 4);
        let outcomes = bodies(&engine, &[one.clone(), one.clone(), one.clone()]);
        assert_eq!(engine.simulations_run(), 1, "identical specs dedupe");
        assert!(outcomes.iter().all(|b| *b == outcomes[0]));
        let again = engine.evaluate_batch(&[one.clone(), one]);
        assert_eq!(engine.simulations_run(), 1);
        assert!(again.iter().all(|o| o.as_ref().unwrap().cached));
        assert_eq!(engine.cache_counters().hits, 4);
    }

    #[test]
    fn an_unknown_policy_fails_only_its_own_slot() {
        let mut specs = mixed_specs();
        specs[1].execution.allocation_policy = "does-not-exist".into();
        let outcomes = ScenarioEngine::new().evaluate_batch(&specs);
        for (i, outcome) in outcomes.iter().enumerate() {
            match i {
                1 => assert!(matches!(outcome, Err(SimulationError::UnknownPolicy(_)))),
                _ => assert!(outcome.is_ok()),
            }
        }
    }

    #[test]
    fn an_empty_batch_is_fine() {
        assert!(ScenarioEngine::new().evaluate_batch(&[]).is_empty());
    }

    #[test]
    fn custom_policies_run_through_the_registry() {
        use cgsim_platform::SiteId;
        use cgsim_policies::{AllocationPolicy, GridView};
        use cgsim_workload::JobRecord;

        struct PinFirst;
        impl AllocationPolicy for PinFirst {
            fn name(&self) -> &str {
                "pin-first"
            }
            fn assign_job(&mut self, _job: &JobRecord, _view: &GridView) -> Option<SiteId> {
                Some(SiteId::new(0))
            }
        }

        let mut registry = PolicyRegistry::with_builtins();
        registry.register("pin-first", |_| Box::new(PinFirst));
        let base = spec(example_platform(), 120, 91).base;
        let specs: Vec<ScenarioSpec> = ["pin-first", "least-loaded", "round-robin"]
            .into_iter()
            .map(|p| ScenarioSpec::new(base.clone(), ExecutionConfig::with_policy(p)))
            .collect();
        let makespans: Vec<f64> = ScenarioEngine::with_registry(registry)
            .evaluate_batch(&specs)
            .into_iter()
            .map(|o| {
                let metrics = &o.expect("policy is registered").results.metrics;
                assert_eq!(metrics.failure_rate, 0.0);
                metrics.makespan_s
            })
            .collect();
        assert!(makespans.iter().all(|&m| m > 0.0));
        // Pinning everything to one site cannot beat load balancing.
        assert!(makespans[0] >= makespans[1]);
    }
}
