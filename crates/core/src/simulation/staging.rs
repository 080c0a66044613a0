//! Staging-plan execution against the fluid network model and the replica
//! catalog: input stage-in, output stage-out, and the fluid bookkeeping
//! shared by both (and by time-shared execution in `job_runtime`).

use cgsim_data::transfer::plan_staging;
use cgsim_data::DatasetId;
use cgsim_des::fluid::ResourceId;
use cgsim_des::{Context, SimTime};
use cgsim_obs::{SpanPhase, Subsystem, TraceCategory};
use cgsim_platform::{NodeId, SiteId};
use cgsim_workload::JobState;

use super::events::GridEvent;
use super::job_runtime::{Phase, NO_DATASET};
use super::GridModel;

impl GridModel {
    /// The input dataset of a job's task: one map probe per job (the answer
    /// is kept on the job), one registration per task.
    pub(super) fn task_dataset(&mut self, idx: usize) -> DatasetId {
        let job = &self.jobs[idx];
        if job.dataset != NO_DATASET {
            return DatasetId::new(job.dataset as usize);
        }
        let task = job.record.task_id.0;
        let ds = match self.task_datasets.get(&task) {
            Some(&ds) => ds,
            None => {
                let ds = self.catalog.register(
                    &format!("task-{task}-input"),
                    job.record.input_files,
                    job.record.input_bytes,
                    NodeId::MainServer,
                );
                self.task_datasets.insert(task, ds);
                // Task inputs are the re-replication planner's repairable
                // set (checkpoint datasets have their own lifecycle and stay
                // out of it).
                if self.repair.enabled {
                    self.repair.mark_repairable(ds);
                }
                ds
            }
        };
        self.jobs[idx].dataset = u32::try_from(ds.index()).expect("dataset ids fit in u32");
        ds
    }

    /// Advances the fluid model to `now` and returns the (job, phase) pairs
    /// whose activity completed, in the fluid model's deterministic
    /// (slot-ordered) completion order. The `ActivityId` buffer is reused
    /// across calls, so the common no-completion sync allocates nothing.
    pub(super) fn advance_fluid(&mut self, now: SimTime) -> Vec<(usize, Phase)> {
        let timer = self.profiler.start();
        let dt = now.saturating_sub(self.last_fluid_sync);
        self.last_fluid_sync = now;
        let mut finished = std::mem::take(&mut self.fluid_done_scratch);
        self.fluid.advance_into(dt, &mut finished);
        let completed = finished
            .iter()
            .filter_map(|&aid| self.activity_map.remove(aid))
            .collect();
        finished.clear();
        self.fluid_done_scratch = finished;
        self.profiler.stop(Subsystem::Fluid, timer);
        completed
    }

    /// Points the engine's timer at the next fluid completion (or disarms
    /// it when nothing is in flight).
    pub(super) fn reschedule_fluid(&mut self, ctx: &mut Context<'_, GridEvent>) {
        let timer = self.profiler.start();
        match self.fluid.time_to_next_completion() {
            Some(dt) => ctx.arm_timer(dt, GridEvent::FluidAdvance),
            None => ctx.disarm_timer(),
        }
        self.profiler.stop(Subsystem::Fluid, timer);
    }

    /// Starts one fluid activity for a job phase: syncs the model to `now`,
    /// admits the activity, records the (job, phase) bookkeeping, then routes
    /// any completions the sync surfaced and re-arms the completion event.
    /// This is the single admission path shared by input staging, output
    /// stage-out and time-shared execution.
    pub(super) fn start_fluid_activity(
        &mut self,
        idx: usize,
        phase: Phase,
        amount: f64,
        resources: &[ResourceId],
        weight: f64,
        ctx: &mut Context<'_, GridEvent>,
    ) {
        let completed = self.advance_fluid(ctx.now());
        let activity = self.fluid.add_weighted_activity(amount, resources, weight);
        self.activity_map.insert(activity, (idx, phase));
        self.jobs[idx].activity = Some(activity);
        self.index_transfer(idx, phase);
        self.trace_phase(ctx.now().as_secs(), idx, phase, SpanPhase::Begin, None);
        self.handle_completed_activities(completed, ctx);
        self.reschedule_fluid(ctx);
    }

    /// Starts a network transfer phase over the route `from -> to`, reusing
    /// the model-owned route buffer (no per-transfer allocation). Shared by
    /// input staging, output stage-out, checkpoint writes and restores.
    pub(super) fn start_transfer(
        &mut self,
        idx: usize,
        phase: Phase,
        bytes: u64,
        from: NodeId,
        to: NodeId,
        ctx: &mut Context<'_, GridEvent>,
    ) {
        if let Some(t) = self.tracer.as_mut() {
            if t.wants(TraceCategory::Fluid) {
                t.emit(
                    ctx.now().as_secs(),
                    TraceCategory::Fluid,
                    SpanPhase::Instant,
                    "fluid.transfer",
                    Some(self.jobs[idx].record.id.0),
                    None,
                    Some(format!("{from}->{to} bytes={bytes}")),
                );
            }
        }
        let mut route = std::mem::take(&mut self.route_scratch);
        route.clear();
        route.extend(
            self.platform
                .route(from, to)
                .links
                .iter()
                .map(|l| self.link_resources[l.index()]),
        );
        self.start_fluid_activity(idx, phase, bytes as f64, &route, 1.0, ctx);
        self.route_scratch = route;
    }

    /// Begins input staging for a job whose cores were just allocated. Stamps
    /// the attempt's start time, then plans the transfer.
    pub(super) fn start_staging(
        &mut self,
        idx: usize,
        site: SiteId,
        ctx: &mut Context<'_, GridEvent>,
    ) {
        self.jobs[idx].start_time = ctx.now().as_secs();
        self.stage_input(idx, site, ctx);
    }

    /// Plans and starts (or skips) the input transfer for a job already
    /// mid-attempt. Fault repair re-enters here — *not* through
    /// [`GridModel::start_staging`] — so a transfer re-planned after its
    /// source died does not overwrite the attempt's start time and corrupt
    /// the queue-time/walltime metrics.
    pub(super) fn stage_input(
        &mut self,
        idx: usize,
        site: SiteId,
        ctx: &mut Context<'_, GridEvent>,
    ) {
        let now = ctx.now();
        let dataset = self.task_dataset(idx);
        let destination = NodeId::Site(site);

        // Cache lookup counts as a hit even when the catalog also knows about
        // the replica, keeping cache statistics meaningful.
        let cache_hit = self.caches[site.index()].lookup(dataset);
        if cache_hit || self.catalog.has_replica(dataset, destination) {
            self.begin_execution(idx, site, ctx);
            return;
        }

        // The data-movement policy may override the replica source; otherwise
        // the configured source-selection strategy plans the transfer.
        let mut candidates = std::mem::take(&mut self.source_scratch);
        candidates.clear();
        candidates.extend(self.catalog.replicas(dataset));
        let chosen = self
            .data_policy
            .select_source(&self.jobs[idx].record, site, &candidates);
        self.source_scratch = candidates;
        let source = match chosen {
            Some(chosen) if chosen == destination => {
                self.begin_execution(idx, site, ctx);
                return;
            }
            Some(chosen) => chosen,
            None => {
                let plan = plan_staging(
                    &[dataset],
                    destination,
                    &self.catalog,
                    &self.platform,
                    self.execution.source_selection,
                );
                if plan.is_local() {
                    self.begin_execution(idx, site, ctx);
                    return;
                }
                plan.transfers[0].from
            }
        };

        self.jobs[idx].state = JobState::Staging;
        self.record(now, idx, JobState::Staging);
        let bytes = self.jobs[idx].record.input_bytes;
        self.jobs[idx].staged_bytes += bytes;
        // Remember the far end of the transfer: if the source site dies
        // mid-flight while this job survives elsewhere, fault injection
        // cancels the transfer and re-plans from the surviving replicas.
        self.jobs[idx].transfer_peer = Some(source);
        // Latency is added as a constant amount of "extra bytes" at the
        // bottleneck rate; for WAN transfers of GB-scale inputs it is
        // negligible, which matches the fluid approximation of SimGrid.
        self.start_transfer(idx, Phase::Input, bytes, source, destination, ctx);
    }

    /// Ships a finished job's output back to the main server over the fluid
    /// model; completion finalizes the job.
    pub(super) fn start_output_transfer(
        &mut self,
        idx: usize,
        site: SiteId,
        ctx: &mut Context<'_, GridEvent>,
    ) {
        let bytes = self.jobs[idx].record.output_bytes;
        self.start_transfer(
            idx,
            Phase::Output,
            bytes,
            NodeId::Site(site),
            NodeId::MainServer,
            ctx,
        );
    }
}
