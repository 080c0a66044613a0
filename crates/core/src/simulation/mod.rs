//! The event-driven grid simulation (main server + site receivers).
//!
//! The module is split along the paper's architecture (§3.1–3.2):
//!
//! * `events` — the `GridEvent` alphabet and the DES event dispatch,
//! * `broker` — the main server's *sender* actor: policy-driven site
//!   selection, the pending list and the per-site FIFO queue with its
//!   pilot/queue-time model,
//! * `job_runtime` — the per-job state machine and the routing of finished
//!   activities to their owner's next step,
//! * `staging` — input/output staging plans, and the one admission /
//!   teardown funnel every fluid activity passes through,
//! * `checkpoint` — segmented execution, checkpoint writes and restores,
//! * `faults` — fault-plan replay and the data-loss audit,
//! * `repair` — the background re-replication planner,
//! * `accounting` — monitoring transitions, job outcomes and dashboard
//!   panels,
//!
//! with this file holding the public façade: [`Simulation`],
//! [`SimulationBuilder`] and [`SimulationError`].
//!
//! There is one lifecycle. A job holds cores, stages its input, runs one or
//! more execution segments (one when checkpointing is off), ships its output
//! and ends; between segments it may write a checkpoint, which is a transfer
//! in a side slot that the job either waits on or overlaps. Everything that
//! consumes fluid capacity — each of those job phases, and each transfer of
//! the repair planner — has a typed owner (`staging::Owner`), one record
//! beside the activity (`staging::Transfer`), and goes in through
//! `admit_transfer` and out through `retire_transfer`.
//!
//! Every job is stored once, in four stores with one owner each:
//!
//! | store | holds | size | written by |
//! |---|---|---|---|
//! | `trace: Arc<Trace>` | the job records | one per job | nobody — borrowed for the run, possibly shared with other runs; a record stream is collected into one at `start` |
//! | `jobs: Vec<JobRuntime>` | state, site, dataset, assign time, run and attempt slot ids (≤ 32 B) | one per job, same index | the lifecycle modules |
//! | `attempts: Slots<AttemptRecord>` | start time, staged bytes, both retry counters, durable checkpoints | one per job that holds or has held cores, until it is terminal | taken in `admit_front`, returned in `finalize_no_restart`, reached through `attempt` / `attempt_mut` |
//! | `running: Slots<RunState>` | timer, activities, running-list links, segment and checkpoint-write progress | one per job *holding cores* | taken in `admit_front`, returned in `release_cores`, reached through `run` / `run_mut` |
//!
//! Site names are a fifth, tiny store: one `Arc<str>` per site in the
//! monitoring collector, cloned into every event row and outcome. Site
//! queues, the pending list and the events address jobs by `u32`, which
//! [`SimulationBuilder::build`] makes sure the trace fits.

mod accounting;
mod broker;
mod checkpoint;
mod events;
mod faults;
mod job_runtime;
mod repair;
mod staging;
#[cfg(test)]
mod tests;

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use cgsim_data::{DatasetId, ReplicaCatalog, StorageElement};
use cgsim_des::fluid::{ActivityId, ActivityMap, FluidModel, ResourceId};
use cgsim_des::rng::Rng;
use cgsim_des::{Engine, EventKey, SimTime};
use cgsim_faults::{FaultEvent, FaultPlan};
use cgsim_monitor::{MetricsReport, MonitoringCollector};
use cgsim_obs::{Profiler, SpanPhase, Subsystem, TraceCategory, TraceSink, Tracer};
use cgsim_platform::{GridAvailability, NodeId, Platform, PlatformSpec, SiteId};
use cgsim_policies::{
    AllocationPolicy, DataMovementPolicy, DataPolicyRegistry, GridInfo, GridView, PolicyRegistry,
};
use cgsim_workload::{JobRecord, Trace};

use crate::config::ExecutionConfig;
use crate::results::SimulationResults;

use broker::SiteState;
use events::GridEvent;
use job_runtime::{AttemptRecord, JobRuntime, Phase, RunState, Slots};
use repair::RepairState;
use staging::{Owner, Transfer};

/// Errors raised while building or running a simulation.
#[derive(Debug, Clone, PartialEq)]
pub enum SimulationError {
    /// The platform specification failed to validate/build.
    Platform(String),
    /// The requested allocation policy is not registered.
    UnknownPolicy(String),
    /// The requested data-movement policy is not registered.
    UnknownDataPolicy(String),
    /// The simulation was built without a required component.
    MissingComponent(&'static str),
    /// A scenario specification could not be resolved into a run (e.g. an
    /// unparseable `--faults` spec submitted through the scenario engine, a
    /// negative checkpoint interval, or a trace too long to index).
    InvalidScenario(String),
}

impl std::fmt::Display for SimulationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimulationError::Platform(msg) => write!(f, "platform error: {msg}"),
            SimulationError::UnknownPolicy(name) => write!(f, "unknown allocation policy: {name}"),
            SimulationError::UnknownDataPolicy(name) => {
                write!(f, "unknown data-movement policy: {name}")
            }
            SimulationError::MissingComponent(what) => {
                write!(f, "simulation builder is missing: {what}")
            }
            SimulationError::InvalidScenario(msg) => {
                write!(f, "invalid scenario: {msg}")
            }
        }
    }
}

impl std::error::Error for SimulationError {}

/// The simulation model driven by the DES engine.
///
/// Behaviour is implemented across the sibling modules; this struct is the
/// shared state they all act on.
struct GridModel {
    platform: Platform,
    execution: ExecutionConfig,
    policy: Box<dyn AllocationPolicy>,
    data_policy: Box<dyn DataMovementPolicy>,
    // The four per-job stores of the module docs.
    trace: Arc<Trace>,
    jobs: Vec<JobRuntime>,
    attempts: Slots<AttemptRecord>,
    running: Slots<RunState>,
    sites: Vec<SiteState>,
    /// Jobs (trace indices) parked at the main server, in arrival order.
    pending: VecDeque<u32>,
    /// The policy-facing mirror of site state, maintained where the state
    /// changes and lent to the policy by [`GridModel::consult_policy`]
    /// (which documents who writes which field).
    view: GridView,
    /// Spare deque `drain_pending` swaps the pending list against.
    pending_scratch: VecDeque<u32>,
    /// Reused buffer for `stage_input`'s replica-source candidates.
    source_scratch: Vec<NodeId>,
    rng: Rng,
    // Fluid model state. The per-activity bookkeeping is slab-parallel to
    // the fluid model's slots (see `cgsim_des::fluid::ActivityMap`): lookups
    // are index arithmetic and stale generation-tagged ids are rejected, so
    // no hashing happens on the per-event hot path.
    fluid: FluidModel,
    link_resources: Vec<ResourceId>,
    cpu_resources: Vec<ResourceId>,
    activity_map: ActivityMap<Transfer>,
    last_fluid_sync: SimTime,
    /// Reused buffer for `FluidModel::advance_into` (no allocation on the
    /// per-event fluid sync).
    fluid_done_scratch: Vec<ActivityId>,
    /// Reused buffer for the records `advance_fluid` returns.
    completed_scratch: Vec<Transfer>,
    /// Reused buffer for staging-route resource lists.
    route_scratch: Vec<ResourceId>,
    // Data management state.
    catalog: ReplicaCatalog,
    /// Per-site storage elements holding durable checkpoint state (indexed
    /// by `SiteId`; the main server's storage is modelled as unbounded).
    storage: Vec<StorageElement>,
    task_datasets: HashMap<u64, DatasetId>,
    // Monitoring.
    collector: MonitoringCollector,
    /// Whether the out-of-range-policy warning has been emitted (log once).
    warned_invalid_policy: bool,
    // Fault injection.
    /// Dynamic per-site/per-link availability (all-up without a fault plan).
    availability: GridAvailability,
    /// The attached fault schedule (empty without a plan).
    fault_plan: Vec<FaultEvent>,
    /// Pending fault-chain event, cancelled when the workload completes.
    fault_key: Option<EventKey>,
    /// Per-node index of the owners whose in-flight activity touches the
    /// node (see [`Transfer::touches`]), indexed by
    /// [`GridModel::node_index`] and written only by `admit_transfer` /
    /// `retire_transfer`. Sorted ascending — jobs by index, then repair
    /// slots — so data-loss replay visits victims in that order without
    /// scanning every job.
    transfer_touch: Vec<Vec<Owner>>,
    /// Per-node index of jobs holding a durable checkpoint at the node
    /// (at most one each — newer writes supersede in place), indexed by
    /// [`GridModel::node_index`], sorted ascending. Lets a site outage or
    /// disk loss invalidate exactly the affected checkpoints instead of
    /// walking every job's stack.
    ckpt_holders: Vec<Vec<usize>>,
    /// Jobs that reached a terminal state so far.
    completed_jobs: usize,
    /// Fault-aware re-replication planner (inert when disabled — no events,
    /// no RNG draws, no allocation).
    repair: RepairState,
    // Observability (see `cgsim_obs`). `None`/disabled adds a single branch
    // per emission site and nothing else — no allocation, no formatting.
    /// Structured trace of simulated behaviour (spans carry sim-time only).
    tracer: Option<Tracer>,
    /// Wall-clock self-profiler (buckets stay empty when disabled).
    profiler: Profiler,
}

impl GridModel {
    #[allow(clippy::too_many_arguments)]
    fn new(
        platform: Platform,
        trace: Arc<Trace>,
        policy: Box<dyn AllocationPolicy>,
        data_policy: Box<dyn DataMovementPolicy>,
        execution: ExecutionConfig,
        fault_plan: Vec<FaultEvent>,
        fault_key: Option<EventKey>,
        tracer: Option<Tracer>,
        profiler: Profiler,
    ) -> Self {
        let mut fluid = FluidModel::new();
        let link_resources: Vec<ResourceId> = platform
            .links()
            .iter()
            .map(|l| fluid.add_resource(l.bandwidth_bps.max(1.0)))
            .collect();
        let cpu_resources: Vec<ResourceId> = platform
            .sites()
            .iter()
            .map(|s| {
                let capacity = (s.total_cores as f64 * platform.effective_speed(s.id)).max(1.0);
                fluid.add_resource(capacity)
            })
            .collect();
        let sites = platform
            .sites()
            .iter()
            .map(|s| SiteState::new(s.total_cores))
            .collect();
        let storage = platform
            .sites()
            .iter()
            .map(|s| StorageElement::new(s.name.clone(), (s.storage_tb * 1e12) as u64))
            .collect();
        let site_names = platform.sites().iter().map(|s| s.name.clone()).collect();
        let mut collector = MonitoringCollector::new(site_names, execution.monitoring.clone());
        collector.reserve_outcomes(trace.jobs.len());

        let availability = GridAvailability::all_up(&platform);
        // One slot per site plus the main server (see `node_index`).
        let node_count = platform.sites().len() + 1;
        let repair = RepairState::new(&execution.repair, execution.seed);

        let mut model = GridModel {
            rng: Rng::new(execution.seed),
            platform,
            execution,
            policy,
            data_policy,
            jobs: vec![JobRuntime::new(); trace.jobs.len()],
            trace,
            attempts: Slots::default(),
            running: Slots::default(),
            sites,
            pending: VecDeque::new(),
            view: GridView::default(),
            pending_scratch: VecDeque::new(),
            source_scratch: Vec::new(),
            fluid,
            link_resources,
            cpu_resources,
            activity_map: ActivityMap::new(),
            last_fluid_sync: SimTime::ZERO,
            fluid_done_scratch: Vec::new(),
            completed_scratch: Vec::new(),
            route_scratch: Vec::new(),
            catalog: ReplicaCatalog::new(),
            storage,
            task_datasets: HashMap::new(),
            collector,
            warned_invalid_policy: false,
            availability,
            fault_plan,
            fault_key,
            transfer_touch: vec![Vec::new(); node_count],
            ckpt_holders: vec![Vec::new(); node_count],
            completed_jobs: 0,
            repair,
            tracer,
            profiler,
        };
        model.view = model.reference_view(0.0, None);
        model
    }

    /// Emits one trace record. A single branch when tracing is off or `cat`
    /// is filtered out; the job id, the site name and `info` are resolved
    /// only past it.
    #[allow(clippy::too_many_arguments)]
    fn trace(
        &mut self,
        time_s: f64,
        cat: TraceCategory,
        ph: SpanPhase,
        kind: &str,
        job: Option<usize>,
        site: Option<SiteId>,
        info: impl FnOnce(&Self) -> Option<String>,
    ) {
        if !self.tracer.as_ref().is_some_and(|t| t.wants(cat)) {
            return;
        }
        let info = info(self);
        let job = job.map(|idx| self.trace.jobs[idx].id.0);
        let site = site.map(|s| self.platform.site(s).name.as_str());
        if let Some(t) = self.tracer.as_mut() {
            t.emit(time_s, cat, ph, kind, job, site, info);
        }
    }

    /// Emits one edge (begin/end) or instant of a job-phase span.
    fn trace_phase(
        &mut self,
        time_s: f64,
        idx: usize,
        phase: Phase,
        ph: SpanPhase,
        info: Option<&str>,
    ) {
        let kind = phase.trace_kind(self.execution.checkpoint.overlap);
        let site = self.jobs[idx].site();
        self.trace(time_s, phase.trace_cat(), ph, kind, Some(idx), site, |_| {
            info.map(str::to_string)
        });
    }
}

/// Where the run's trace comes from: a trace shared between runs as it is,
/// or a record stream collected when the run starts (not when the builder is
/// given it: draining the generator is run time, not set-up).
enum TraceSource {
    Shared(Arc<Trace>),
    Stream(Box<dyn Iterator<Item = JobRecord>>),
}

/// Builder for [`Simulation`].
pub struct SimulationBuilder {
    platform: Option<Platform>,
    trace: Option<TraceSource>,
    policy: Option<Box<dyn AllocationPolicy>>,
    policy_name: Option<String>,
    registry: PolicyRegistry,
    data_policy: Option<Box<dyn DataMovementPolicy>>,
    data_registry: DataPolicyRegistry,
    execution: ExecutionConfig,
    fault_plan: Option<FaultPlan>,
    trace_sink: Option<(Box<dyn TraceSink>, u32)>,
    profile: bool,
}

impl Default for SimulationBuilder {
    fn default() -> Self {
        SimulationBuilder {
            platform: None,
            trace: None,
            policy: None,
            policy_name: None,
            registry: PolicyRegistry::with_builtins(),
            data_policy: None,
            data_registry: DataPolicyRegistry::with_builtins(),
            execution: ExecutionConfig::default(),
            fault_plan: None,
            trace_sink: None,
            profile: false,
        }
    }
}

impl SimulationBuilder {
    /// Uses an already-built platform.
    pub fn platform(mut self, platform: Platform) -> Self {
        self.platform = Some(platform);
        self
    }

    /// Builds the platform from a specification.
    pub fn platform_spec(mut self, spec: &PlatformSpec) -> Result<Self, SimulationError> {
        let platform =
            Platform::build(spec).map_err(|e| SimulationError::Platform(e.to_string()))?;
        self.platform = Some(platform);
        Ok(self)
    }

    /// Sets the workload trace.
    ///
    /// Accepts either an owned [`Trace`] or an `Arc<Trace>`: traces shared
    /// between many simulations (sweeps, scenario batches, a long-running
    /// evaluation service) should be passed as `Arc` clones so every run
    /// reads the same immutable job records instead of deep-copying them.
    pub fn trace(mut self, trace: impl Into<Arc<Trace>>) -> Self {
        self.trace = Some(TraceSource::Shared(trace.into()));
        self
    }

    /// Sets a **streaming** workload source (e.g.
    /// [`TraceGenerator::stream`](cgsim_workload::TraceGenerator::stream)),
    /// drained when the run starts into a trace only this run holds: no
    /// second copy of the records ever exists, and none is sorted.
    ///
    /// Job indices follow stream order. The engine still fires submissions
    /// in `submit_time` order, but *simultaneous* submissions tie break by
    /// stream position rather than by sorted-trace position, so a streamed
    /// run is deterministic (same stream → byte-identical results) yet not
    /// guaranteed byte-identical to the equivalent materialised run.
    ///
    /// # Panics
    /// The run panics if the stream yields more than `u32::MAX` records (a
    /// shared trace that long is refused by [`SimulationBuilder::build`]).
    pub fn trace_stream(mut self, stream: impl Iterator<Item = JobRecord> + 'static) -> Self {
        self.trace = Some(TraceSource::Stream(Box::new(stream)));
        self
    }

    /// Uses a custom allocation-policy instance (a "plugin").
    pub fn policy(mut self, policy: Box<dyn AllocationPolicy>) -> Self {
        self.policy = Some(policy);
        self
    }

    /// Selects an allocation policy by registry name (overrides the name in
    /// the execution config).
    pub fn policy_name(mut self, name: impl Into<String>) -> Self {
        self.policy_name = Some(name.into());
        self
    }

    /// Replaces the policy registry (to expose user-registered plugins).
    pub fn registry(mut self, registry: PolicyRegistry) -> Self {
        self.registry = registry;
        self
    }

    /// Uses a custom data-movement policy instance (replica-source selection
    /// and cache admission).
    pub fn data_policy(mut self, policy: Box<dyn DataMovementPolicy>) -> Self {
        self.data_policy = Some(policy);
        self
    }

    /// Replaces the data-movement policy registry (to expose user-registered
    /// data plugins referenced by name in the execution configuration).
    pub fn data_registry(mut self, registry: DataPolicyRegistry) -> Self {
        self.data_registry = registry;
        self
    }

    /// Sets the execution configuration.
    pub fn execution(mut self, execution: ExecutionConfig) -> Self {
        self.execution = execution;
        self
    }

    /// Attaches a fault-injection plan (site outages, link degradation, job
    /// kills) replayed during the run. An empty plan is bit-for-bit
    /// equivalent to attaching none.
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Attaches a structured-trace sink recording the categories selected by
    /// `mask` (see [`cgsim_obs::parse_filter`]). Tracing never changes the
    /// simulation: the deterministic results are byte-identical with or
    /// without a sink attached.
    pub fn trace_sink(mut self, sink: Box<dyn TraceSink>, mask: u32) -> Self {
        self.trace_sink = Some((sink, mask));
        self
    }

    /// Enables wall-clock self-profiling; the report lands in
    /// [`SimulationResults::profile`].
    pub fn profile(mut self, enabled: bool) -> Self {
        self.profile = enabled;
        self
    }

    /// Builds the simulation.
    pub fn build(self) -> Result<Simulation, SimulationError> {
        let platform = self
            .platform
            .ok_or(SimulationError::MissingComponent("platform"))?;
        let trace = self
            .trace
            .ok_or(SimulationError::MissingComponent("trace"))?;
        let policy = match self.policy {
            Some(p) => p,
            None => {
                let name = self
                    .policy_name
                    .clone()
                    .unwrap_or_else(|| self.execution.allocation_policy.clone());
                self.registry
                    .create(&name, self.execution.seed)
                    .ok_or(SimulationError::UnknownPolicy(name))?
            }
        };
        let data_policy = match self.data_policy {
            Some(p) => p,
            None => {
                let name = self.execution.data_movement_policy.clone();
                self.data_registry
                    .create(&name, self.execution.seed)
                    .ok_or(SimulationError::UnknownDataPolicy(name))?
            }
        };
        if let TraceSource::Shared(trace) = &trace {
            check_indexable("the trace", trace.jobs.len())?;
        }
        if let Some(plan) = &self.fault_plan {
            check_indexable("the fault plan", plan.events.len())?;
        }
        Ok(Simulation {
            platform,
            trace,
            policy,
            data_policy,
            execution: self.execution,
            fault_plan: self.fault_plan,
            trace_sink: self.trace_sink,
            profile: self.profile,
        })
    }

    /// Builds and immediately runs the simulation.
    pub fn run(self) -> Result<SimulationResults, SimulationError> {
        Ok(self.build()?.run())
    }
}

/// Refuses a list of `len` jobs or fault events that the run's `u32`
/// indices cannot address (`u32::MAX` itself means "no job").
fn check_indexable(what: &str, len: usize) -> Result<(), SimulationError> {
    if len > u32::MAX as usize {
        return Err(SimulationError::InvalidScenario(format!(
            "{what} has {len} entries, more than the {} a run can index",
            u32::MAX
        )));
    }
    Ok(())
}

/// A fully configured simulation, ready to run.
pub struct Simulation {
    platform: Platform,
    trace: TraceSource,
    policy: Box<dyn AllocationPolicy>,
    data_policy: Box<dyn DataMovementPolicy>,
    execution: ExecutionConfig,
    fault_plan: Option<FaultPlan>,
    trace_sink: Option<(Box<dyn TraceSink>, u32)>,
    profile: bool,
}

impl Simulation {
    /// Starts building a simulation.
    pub fn builder() -> SimulationBuilder {
        SimulationBuilder::default()
    }

    /// Ingests the workload and builds the engine (submissions and the head
    /// of the fault chain scheduled) and the model it will drive.
    fn start(mut self) -> (Engine<GridEvent>, GridModel) {
        // Hand the static grid description to the policy (the paper's
        // getResourceInformation hook).
        let info = GridInfo::from_platform(&self.platform);
        self.policy.get_resource_information(&info);

        let mut engine: Engine<GridEvent> = Engine::new();
        if let Some(horizon) = self.execution.horizon_s {
            engine = engine.with_horizon(SimTime::from_secs(horizon));
        }
        let trace = match self.trace {
            TraceSource::Shared(trace) => trace,
            TraceSource::Stream(records) => Arc::new(Trace {
                jobs: records.collect(),
                ..Trace::default()
            }),
        };
        // A shared trace was checked by `build`; a stream is known only now.
        if let Err(e) = check_indexable("the trace stream", trace.jobs.len()) {
            panic!("{e}");
        }
        // Submissions are known up front: they go through the engine's
        // sorted lane, never the heap (ties keep job-index order).
        engine.preload(trace.jobs.iter().enumerate().map(|(idx, job)| {
            let submit = GridEvent::Submit(idx as u32);
            (SimTime::from_secs(job.submit_time), submit)
        }));

        // Kick off the fault chain: only the first plan event is scheduled
        // up front; each fault schedules its successor, and the chain is cut
        // when the workload completes. An empty plan (or an empty trace)
        // schedules nothing, keeping such runs bit-identical to plan-free
        // ones.
        let fault_events = self.fault_plan.map(|plan| plan.events).unwrap_or_default();
        let fault_key = match fault_events.first() {
            Some(first) if !trace.is_empty() => {
                Some(engine.schedule_at(SimTime::from_secs(first.time_s), GridEvent::Fault(0)))
            }
            _ => None,
        };

        let tracer = self.trace_sink.map(|(sink, mask)| Tracer::new(sink, mask));
        let profiler = Profiler::new(self.profile);

        let model = GridModel::new(
            self.platform,
            trace,
            self.policy,
            self.data_policy,
            self.execution,
            fault_events,
            fault_key,
            tracer,
            profiler,
        );
        (engine, model)
    }

    /// Executes the simulation to completion and returns the results.
    pub fn run(self) -> SimulationResults {
        let started = std::time::Instant::now();
        let (mut engine, mut model) = self.start();
        let policy_name = model.policy.name().to_string();
        let loop_timer = model.profiler.start();
        let report = engine.run(&mut model);
        model.profiler.stop(Subsystem::EventLoop, loop_timer);

        if let Some(mut tracer) = model.tracer.take() {
            if let Err(e) = tracer.finish() {
                eprintln!("warning: trace sink failed: {e}");
            }
        }
        let profile = if model.profiler.enabled() {
            let (fast, slow) = model.fluid.solver_stats();
            let fluid = model.fluid.solver_counters();
            let queue = engine.queue();
            for (name, value) in [
                ("engine_events", report.events_processed),
                ("fluid_fast_solves", fast),
                ("fluid_slow_solves", slow),
                ("fluid_rerated_slots", fluid.rerated_slots),
                ("fluid_slow_rounds", fluid.slow_rounds),
                ("fluid_bulk_rekeys", fluid.bulk_rekeys),
                ("queue_scheduled", queue.scheduled_total()),
                ("queue_cancelled", queue.cancelled_total()),
                ("queue_heap_peak", queue.heap_peak() as u64),
                ("queue_slab_slots", queue.slab_slots() as u64),
                ("queue_occupied_slots", queue.status_entries() as u64),
                // Each per-job slab's high-water mark and what it still holds.
                ("run_slab_slots", model.running.high_water() as u64),
                ("run_slab_live", model.running.live() as u64),
                ("attempt_slab_slots", model.attempts.high_water() as u64),
                ("attempt_slab_live", model.attempts.live() as u64),
            ] {
                model.profiler.add_counter(name, value);
            }
            Some(model.profiler.report(&policy_name))
        } else {
            None
        };

        let site_panels = model.site_panels();
        // Post-processing builds N-long transients: the model's and the
        // engine's per-job state goes first, only the collector stays.
        let mut collector = { model }.collector;
        drop(engine);
        let grid_counters = collector.grid_counters;
        collector.finish_windows();
        let windows = collector
            .windows()
            .map(|w| w.windows().cloned().collect())
            .unwrap_or_default();
        let (events, outcomes) = collector.into_parts();
        let metrics = MetricsReport::from_outcomes(&outcomes);
        SimulationResults {
            outcomes,
            events,
            metrics,
            makespan_s: report.end_time.as_secs(),
            engine_events: report.events_processed,
            wall_clock_s: started.elapsed().as_secs_f64(),
            site_panels,
            grid_counters,
            policy: policy_name,
            profile,
            windows,
        }
    }
}
