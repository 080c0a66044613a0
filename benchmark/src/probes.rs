//! Layer probes: tight loops over each crate's public API, best of five,
//! reported per operation. They give every layer of the simulator a number
//! of its own, so that "which layer got slower" is a diff and an end-to-end
//! change can be held against the layer it claims to have touched.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use cgsim_core::{
    ExecutionConfig, ScenarioBase, ScenarioEngine, ScenarioSpec, ServeRequest, Simulation,
};
use cgsim_data::{LruCache, ReplicaCatalog, SourceSelection};
use cgsim_des::fluid::{ActivityId, FluidModel, ResourceId};
use cgsim_des::{EventQueue, SimTime};
use cgsim_faults::{parse_fault_spec, FaultPlan, FaultTopology};
use cgsim_monitor::{MonitoringCollector, MonitoringConfig};
use cgsim_platform::{wlcg_platform, NodeId, Platform, SiteId};
use cgsim_policies::{GridInfo, GridView, PolicyRegistry, SiteLoad};
use cgsim_workload::{JobId, JobRecord, JobState, TraceConfig, TraceGenerator};
use serde_json::Value;

use crate::host::Xoshiro;
use crate::serve::{encode_reply, request_line};
use crate::sim::bounded_monitoring;
use crate::workloads::{CHURN_SPEC, FAULT_SEED, PLATFORM_SEED};

/// Samples per probe; the best (lowest) is reported. (`probe.platform_200`
/// alone takes two: one sample is most of a second.)
const SAMPLES: usize = 5;

/// One probe's result: host seconds per operation, reported in `unit`.
#[derive(Debug, Clone)]
pub struct Probe {
    pub name: &'static str,
    pub unit: &'static str,
    pub seconds: f64,
}

impl Probe {
    /// The cost per operation in the probe's unit.
    pub fn value(&self) -> f64 {
        let per_second = match self.unit {
            "ns" => 1e9,
            "us" => 1e6,
            "ms" => 1e3,
            other => unreachable!("probe unit {other}"),
        };
        self.seconds * per_second
    }
}

/// Name and unit of every probe, in report order.
pub const PROBES: [(&str, &str); 26] = [
    ("probe.queue_hold_1e3", "ns"),
    ("probe.queue_hold_1e6", "ns"),
    ("probe.fluid_sparse_1k", "ns"),
    ("probe.fluid_sparse_5k", "ns"),
    ("probe.fluid_hub_1k", "ns"),
    ("probe.fluid_hub_5k", "ns"),
    ("probe.fluid_pileup_1k", "us"),
    ("probe.fluid_pileup_5k", "us"),
    ("probe.lru_half", "ns"),
    ("probe.lru_2x", "ns"),
    ("probe.catalog", "ns"),
    ("probe.assign_ll_12", "ns"),
    ("probe.assign_ll_200", "ns"),
    ("probe.assign_da_12", "ns"),
    ("probe.assign_da_200", "ns"),
    ("probe.record_bounded", "ns"),
    ("probe.record_full", "ns"),
    ("probe.export_row", "ns"),
    ("probe.plan", "ms"),
    ("probe.stream", "ns"),
    ("probe.platform_12", "us"),
    ("probe.platform_200", "ms"),
    ("probe.serve_parse", "us"),
    ("probe.serve_hash", "us"),
    ("probe.serve_hit", "us"),
    ("probe.serve_encode", "us"),
];

/// Best of [`SAMPLES`] timings of `sample`, which performs `ops` operations
/// per call; seconds per operation.
fn best_of(ops: usize, mut sample: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..SAMPLES {
        let started = Instant::now();
        sample();
        best = best.min(started.elapsed().as_secs_f64());
    }
    best / ops as f64
}

/// `EventQueue` hold model at a steady `depth`: pop the earliest event,
/// schedule its successor; every tenth hold also schedules and cancels one.
fn queue_hold(depth: usize, ops: usize) -> f64 {
    let mut rng = Xoshiro::new(1);
    let mut queue: EventQueue<u32> = EventQueue::with_capacity(depth);
    for i in 0..depth {
        queue.schedule(SimTime::from_secs(rng.uniform() * depth as f64), i as u32);
    }
    best_of(ops, || {
        for i in 0..ops {
            let event = queue.pop().expect("hold keeps the queue full");
            let next = event.time.as_secs() + rng.uniform() * 2.0 * depth as f64;
            queue.schedule(SimTime::from_secs(next), event.event);
            if i % 10 == 0 {
                let key = queue.schedule(SimTime::from_secs(next + 1.0), 0);
                black_box(queue.cancel(key));
            }
        }
    })
}

/// A fluid topology under churn: one step retires an activity, admits its
/// replacement and asks for the next completion (which recomputes shares),
/// as the event loop does; every 16th step also degrades and restores a
/// link and advances the model a little.
struct FluidChurn {
    model: FluidModel,
    links: Vec<ResourceId>,
    capacity: Vec<f64>,
    ids: Vec<ActivityId>,
    route: fn(&[ResourceId], usize) -> Vec<ResourceId>,
    step: usize,
    done: Vec<ActivityId>,
}

impl FluidChurn {
    fn new(
        capacity: Vec<f64>,
        n: usize,
        route: fn(&[ResourceId], usize) -> Vec<ResourceId>,
    ) -> Self {
        let mut model = FluidModel::new();
        let links: Vec<ResourceId> = capacity.iter().map(|&c| model.add_resource(c)).collect();
        let ids = (0..n)
            .map(|i| model.add_activity(1e15, &route(&links, i)))
            .collect();
        let mut churn = FluidChurn {
            model,
            links,
            capacity,
            ids,
            route,
            step: 0,
            done: Vec::new(),
        };
        churn.run(n.min(256));
        churn
    }

    fn run(&mut self, steps: usize) {
        let n = self.ids.len();
        for _ in 0..steps {
            let step = self.step;
            self.step += 1;
            let slot = step % n;
            self.model.remove_activity(self.ids[slot]);
            self.ids[slot] = self
                .model
                .add_activity(1e15, &(self.route)(&self.links, n + step));
            if step.is_multiple_of(16) {
                let link = (step / 16) % self.links.len();
                self.model
                    .set_capacity(self.links[link], self.capacity[link] * 0.3);
                black_box(self.model.time_to_next_completion());
                self.model
                    .set_capacity(self.links[link], self.capacity[link]);
                self.model
                    .advance_into(SimTime::from_secs(1e-3), &mut self.done);
            }
            black_box(self.model.time_to_next_completion());
        }
    }

    fn solver_stats(&self) -> (u64, u64) {
        self.model.solver_stats()
    }
}

/// Disjoint two-link islands of four activities: a step dirties one island.
fn sparse_churn(n: usize) -> FluidChurn {
    let islands = n / 4;
    let capacity = (0..2 * islands).map(|i| 1e9 + i as f64 * 1e6).collect();
    FluidChurn::new(capacity, n, |links, i| {
        let islands = links.len() / 2;
        let island = i % islands;
        match (i / islands) % 3 {
            0 => vec![links[2 * island]],
            1 => vec![links[2 * island + 1]],
            _ => vec![links[2 * island], links[2 * island + 1]],
        }
    })
}

/// 32 fat uplinks into one thin backbone every activity crosses: a provable
/// single bottleneck, the total-work fast path.
fn hub_churn(n: usize) -> FluidChurn {
    let mut capacity = vec![1e9];
    capacity.extend((0..32).map(|i| 1e12 + i as f64 * 1e9));
    FluidChurn::new(capacity, n, |links, i| vec![links[1 + i % 32], links[0]])
}

/// Sites of the pile-up topology (LAN + WAN each) under one main-server link.
const PILEUP_SITES: usize = 12;

/// The checkpoint pile-up shape: per site a LAN and a WAN link, plus one
/// shared main-server link. A third of the activities stay on their LAN,
/// the rest cross LAN + WAN + main server. Thin WANs saturate first, then
/// the main-server link, then the LANs — three bottleneck levels in one
/// component that no single link is crossed by all of, so every step takes
/// progressive filling (the slow path).
fn pileup_churn(n: usize) -> FluidChurn {
    let mut capacity = vec![4e9]; // main server
    for s in 0..PILEUP_SITES {
        capacity.push(2e9 + s as f64 * 1e8); // LAN of site s
        capacity.push(if s % 3 == 0 { 1e8 } else { 1e9 }); // WAN of site s
    }
    FluidChurn::new(capacity, n, |links, i| {
        let site = i % PILEUP_SITES;
        let (lan, wan) = (links[1 + 2 * site], links[2 + 2 * site]);
        if (i / PILEUP_SITES).is_multiple_of(3) {
            vec![lan]
        } else {
            vec![lan, wan, links[0]]
        }
    })
}

/// Which solver path a fluid probe is named after.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Path {
    /// Small components, whichever path each takes.
    Any,
    /// The total-work fast path: no slow solve at all.
    Fast,
    /// Progressive filling: at least as many slow solves as fast ones.
    Slow,
}

/// Times `steps` churn steps and checks the solver took the path the probe
/// is named after.
fn fluid_probe(mut churn: FluidChurn, steps: usize, path: Path) -> Result<f64, String> {
    let (fast0, slow0) = churn.solver_stats();
    let per_step = best_of(steps, || churn.run(steps));
    let (fast1, slow1) = churn.solver_stats();
    let (fast, slow) = (fast1 - fast0, slow1 - slow0);
    let as_named = match path {
        Path::Any => true,
        Path::Fast => slow == 0,
        Path::Slow => slow >= fast,
    };
    if as_named {
        Ok(per_step)
    } else {
        Err(format!(
            "fluid probe took {fast} fast and {slow} slow solves, named for {path:?}"
        ))
    }
}

/// `LruCache::lookup`, then `insert` on a miss, over a working set of
/// `working_set` equal-size datasets against a cache that holds 1000.
fn lru(working_set: usize, ops: usize) -> f64 {
    const BYTES: u64 = 1_000_000_000;
    let mut rng = Xoshiro::new(2);
    let mut cache = LruCache::new(1_000 * BYTES);
    best_of(ops, || {
        for _ in 0..ops {
            let dataset = rng.index(working_set).into();
            if !cache.lookup(dataset) {
                black_box(cache.insert(dataset, BYTES));
            }
        }
    })
}

/// `ReplicaCatalog`: pick a source for a staging, record the new replica;
/// every 4096th operation a site loses its storage.
fn catalog(platform: &Platform, ops: usize) -> f64 {
    const DATASETS: usize = 4_096;
    let sites = platform.site_count();
    let mut rng = Xoshiro::new(3);
    let mut catalog = ReplicaCatalog::new();
    let ids: Vec<_> = (0..DATASETS)
        .map(|d| {
            catalog.register(
                &format!("task-{d}-input"),
                4,
                6_000_000_000,
                NodeId::MainServer,
            )
        })
        .collect();
    best_of(ops, || {
        for i in 0..ops {
            let dataset = ids[rng.index(DATASETS)];
            let destination = NodeId::Site(SiteId::new(rng.index(sites)));
            black_box(catalog.select_source(
                dataset,
                destination,
                platform,
                SourceSelection::LowestLatency,
            ));
            catalog.add_replica(dataset, destination);
            if i % 4_096 == 4_095 {
                black_box(catalog.evict_node_reporting(destination));
            }
        }
    })
}

/// `AllocationPolicy::assign_job` over a hand-built view of the platform's
/// sites: half-loaded, every seventh site down, every third holding the
/// job's input.
fn assign(
    policy: &str,
    platform: &Platform,
    jobs: &[JobRecord],
    ops: usize,
) -> Result<f64, String> {
    let mut policy = PolicyRegistry::with_builtins()
        .create(policy, 1)
        .ok_or_else(|| format!("no policy '{policy}'"))?;
    policy.get_resource_information(&GridInfo::from_platform(platform));
    let view = GridView {
        now_s: 3_600.0,
        sites: platform
            .sites()
            .iter()
            .enumerate()
            .map(|(i, s)| SiteLoad {
                site: s.id,
                available_cores: s.total_cores / 2 + (i as u64 * 37) % 64,
                queued_jobs: (i as u64 * 13) % 40,
                running_jobs: s.total_cores / 8,
                finished_jobs: 1_000 + i as u64,
                has_input_replica: i % 3 == 0,
                up: i % 7 != 6,
                active_repairs: 0,
            })
            .collect(),
        pending_jobs: 25,
    };
    Ok(best_of(ops, || {
        for i in 0..ops {
            black_box(policy.assign_job(&jobs[i % jobs.len()], &view));
        }
    }))
}

/// `MonitoringCollector::record_transition`, bounded (ring + stride +
/// windows) or full (every row kept).
fn record(config: &MonitoringConfig, site_names: &[String], ops: usize) -> f64 {
    const STATES: [JobState; 5] = [
        JobState::Pending,
        JobState::Assigned,
        JobState::Staging,
        JobState::Running,
        JobState::Finished,
    ];
    best_of(ops, || {
        let mut collector = MonitoringCollector::new(site_names.to_vec(), config.clone());
        for i in 0..ops {
            collector.record_transition(
                i as f64 * 0.5,
                JobId(i as u64 / 5),
                STATES[i % 5],
                Some(i % site_names.len()),
                500,
                12,
            );
        }
        black_box(collector.events().len());
    })
}

/// Runs every probe. `divisor` shrinks the operation counts (`--quick`).
pub fn run_all(divisor: usize) -> Result<Vec<Probe>, String> {
    let ops = |n: usize| (n / divisor.max(1)).max(64);
    let mut values: Vec<f64> = Vec::with_capacity(PROBES.len());

    values.push(queue_hold(1_000, ops(100_000)));
    values.push(queue_hold(1_000_000 / divisor.max(1), ops(100_000)));

    values.push(fluid_probe(sparse_churn(1_000), ops(50_000), Path::Any)?);
    values.push(fluid_probe(sparse_churn(5_000), ops(50_000), Path::Any)?);
    values.push(fluid_probe(hub_churn(1_000), ops(30_000), Path::Fast)?);
    values.push(fluid_probe(hub_churn(5_000), ops(30_000), Path::Fast)?);
    values.push(fluid_probe(pileup_churn(1_000), ops(500), Path::Slow)?);
    values.push(fluid_probe(pileup_churn(5_000), ops(100), Path::Slow)?);

    values.push(lru(500, ops(400_000)));
    values.push(lru(2_000, ops(400_000)));

    let spec12 = wlcg_platform(12, PLATFORM_SEED);
    let spec200 = wlcg_platform(200, PLATFORM_SEED);
    let platform12 = Platform::build(&spec12).map_err(|e| e.to_string())?;
    // A 200-site build takes most of a second (O(sites²) routes), so the one
    // the assign probes need anyway is also the first of its two samples.
    let started = Instant::now();
    let platform200 = Platform::build(&spec200).map_err(|e| e.to_string())?;
    let first_build_200 = started.elapsed().as_secs_f64();
    values.push(catalog(&platform12, ops(100_000)));

    let generator = TraceGenerator::new(TraceConfig::with_jobs(1_024, 42));
    let jobs12: Vec<JobRecord> = generator.stream(&spec12).collect();
    let jobs200: Vec<JobRecord> = generator.stream(&spec200).collect();
    values.push(assign("least-loaded", &platform12, &jobs12, ops(500_000))?);
    values.push(assign(
        "least-loaded",
        &platform200,
        &jobs200,
        ops(100_000),
    )?);
    values.push(assign("data-aware", &platform12, &jobs12, ops(500_000))?);
    values.push(assign("data-aware", &platform200, &jobs200, ops(100_000))?);

    let site_names: Vec<String> = platform12.sites().iter().map(|s| s.name.clone()).collect();
    values.push(record(&bounded_monitoring(), &site_names, ops(500_000)));
    values.push(record(
        &MonitoringConfig::default(),
        &site_names,
        ops(200_000),
    ));

    // Export: rows of the event table rendered the way `--output` does.
    let trace =
        Arc::new(TraceGenerator::new(TraceConfig::with_jobs(ops(10_000), 42)).generate(&spec12));
    let results = Simulation::builder()
        .platform_spec(&spec12)
        .map_err(|e| e.to_string())?
        .trace(trace.clone())
        .run()
        .map_err(|e| e.to_string())?;
    let rows = results.events.len().max(1);
    values.push(best_of(rows, || {
        let store = results.to_table_store();
        black_box(store.get("events").expect("events table").to_csv().len());
    }));

    let fault_config = parse_fault_spec(CHURN_SPEC)?;
    let topology = FaultTopology::for_platform(&platform12, 22_000);
    values.push(best_of(1, || {
        black_box(FaultPlan::generate(&fault_config, &topology, FAULT_SEED).len());
    }));

    let stream_jobs = ops(100_000);
    let generator = TraceGenerator::new(TraceConfig::with_jobs(stream_jobs, 42));
    values.push(best_of(stream_jobs, || {
        black_box(
            generator
                .stream(&spec12)
                .map(|j| j.input_bytes)
                .sum::<u64>(),
        );
    }));

    values.push(best_of(1, || {
        black_box(
            Platform::build(&spec12)
                .expect("platform builds")
                .site_count(),
        );
    }));
    let started = Instant::now();
    black_box(
        Platform::build(&spec200)
            .map_err(|e| e.to_string())?
            .site_count(),
    );
    values.push(first_build_200.min(started.elapsed().as_secs_f64()));

    // Serve stages, on the richest request line (faults + checkpoint block).
    let line = request_line(8);
    let serve_ops = ops(10_000);
    values.push(best_of(serve_ops, || {
        for _ in 0..serve_ops {
            let value: Value = serde_json::from_str(black_box(&line)).expect("request parses");
            black_box(serde_json::from_value::<ServeRequest>(value).expect("request decodes"));
        }
    }));
    let request: ServeRequest = serde_json::from_str(&line).map_err(|e| e.to_string())?;
    let base = ScenarioBase::shared(spec12.clone(), trace);
    let spec: ScenarioSpec = request.delta().resolve(&base, &ExecutionConfig::default());
    values.push(best_of(serve_ops, || {
        for _ in 0..serve_ops {
            black_box(black_box(&spec).canonical_hash());
        }
    }));
    let engine = ScenarioEngine::new().parallel(false);
    let outcome = engine.evaluate(&spec).map_err(|e| e.to_string())?;
    values.push(best_of(serve_ops, || {
        for _ in 0..serve_ops {
            black_box(engine.evaluate(black_box(&spec)).expect("cached").cached);
        }
    }));
    let encode_ops = ops(200);
    values.push(best_of(encode_ops, || {
        for _ in 0..encode_ops {
            black_box(encode_reply(Some("d8"), &outcome.results.deterministic_json()).len());
        }
    }));

    Ok(PROBES
        .iter()
        .zip(values)
        .map(|(&(name, unit), seconds)| Probe {
            name,
            unit,
            seconds,
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fluid_probes_take_the_path_they_are_named_after() {
        assert!(fluid_probe(sparse_churn(256), 200, Path::Any).is_ok());
        assert!(fluid_probe(hub_churn(256), 200, Path::Fast).is_ok());
        assert!(fluid_probe(pileup_churn(256), 50, Path::Slow).is_ok());
        // And the check bites: the hub is not a slow-path topology.
        assert!(fluid_probe(hub_churn(256), 200, Path::Slow).is_err());
    }

    #[test]
    fn every_probe_runs_and_reports_a_positive_cost() {
        let probes = run_all(400).unwrap();
        assert_eq!(probes.len(), PROBES.len());
        for (probe, (name, unit)) in probes.iter().zip(PROBES) {
            assert_eq!((probe.name, probe.unit), (name, unit));
            assert!(probe.value() > 0.0 && probe.value().is_finite(), "{name}");
        }
    }
}
