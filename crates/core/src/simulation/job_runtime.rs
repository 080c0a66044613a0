//! The per-job state machine: Input/Execute/Output phases, failure draws and
//! retries.

use cgsim_des::fluid::ActivityId;
use cgsim_des::{Context, EventKey};
use cgsim_obs::{SpanPhase, TraceCategory};
use cgsim_platform::{NodeId, SiteId};
use cgsim_policies::CachePolicy;
use cgsim_workload::{ideal_walltime, JobRecord, JobState};

use super::broker::NO_JOB;
use super::checkpoint::JobCheckpoint;
use super::events::GridEvent;
use super::GridModel;
use crate::config::ComputeMode;

/// Which phase of a job an in-flight fluid activity belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Phase {
    Input,
    Execute,
    Output,
    /// A periodic checkpoint write to durable storage (checkpoint/restart).
    Checkpoint,
    /// Re-staging of checkpoint data to the resume site before execution
    /// continues from it.
    Restore,
    /// An *asynchronous* checkpoint write overlapping the next execution
    /// segment (`checkpoint.overlap = true`). Tracked per job in
    /// `ckpt_activity`, never in the job's main `activity` slot.
    CkptAsync,
    /// A background re-replication transfer owned by the repair planner.
    /// Activity-map entries carry the sentinel id `jobs.len() + slot`, not a
    /// job index — completion routing must branch on this phase before any
    /// per-job state is touched.
    Repair,
}

impl Phase {
    /// Trace category a span covering this phase is filed under.
    pub(super) fn trace_cat(self) -> TraceCategory {
        match self {
            Phase::Input | Phase::Execute | Phase::Output => TraceCategory::Job,
            Phase::Checkpoint | Phase::Restore | Phase::CkptAsync => TraceCategory::Ckpt,
            Phase::Repair => TraceCategory::Repair,
        }
    }

    /// Trace span name of this phase.
    pub(super) fn trace_kind(self) -> &'static str {
        match self {
            Phase::Input => "input",
            Phase::Execute => "execute",
            Phase::Output => "output",
            Phase::Checkpoint => "ckpt.write",
            Phase::Restore => "ckpt.restore",
            Phase::CkptAsync => "ckpt.write.async",
            Phase::Repair => "repair.transfer",
        }
    }
}

/// `JobRuntime::dataset` before the job's input dataset has been resolved.
pub(super) const NO_DATASET: u32 = u32::MAX;

/// Mutable per-job simulation state.
#[derive(Debug, Clone)]
pub(super) struct JobRuntime {
    pub(super) record: JobRecord,
    pub(super) state: JobState,
    pub(super) site: Option<SiteId>,
    pub(super) retries: u32,
    /// Resubmissions consumed by fault interruptions (separate budget from
    /// the application-failure `retries`).
    pub(super) fault_retries: u32,
    pub(super) submit_time: f64,
    pub(super) assign_time: f64,
    pub(super) start_time: f64,
    pub(super) end_time: f64,
    pub(super) staged_bytes: u64,
    /// Index of the task's input dataset in the catalog, resolved at the
    /// job's first `task_dataset` call (`NO_DATASET` until then).
    pub(super) dataset: u32,
    /// Pending engine timer (pilot start or dedicated-core completion), kept
    /// so fault injection can cancel the in-flight event when it kills the
    /// job.
    pub(super) timer: Option<EventKey>,
    /// In-flight fluid activity (staging, time-shared execution or output
    /// transfer), kept for the same cancellation purpose.
    pub(super) activity: Option<ActivityId>,
    /// True while the job holds reserved cores at its site (from the queue
    /// pop in `try_start_site` until release).
    pub(super) holds_cores: bool,
    /// Neighbours (job indices, `NO_JOB` at the ends) in the site's
    /// start-ordered running list; meaningful only while `holds_cores`.
    pub(super) run_prev: u32,
    pub(super) run_next: u32,
    /// The *remote* endpoint of the in-flight transfer, if any: the source
    /// of an input-staging or checkpoint-restore transfer, or the target of
    /// a checkpoint write. Fault injection uses it to find transfers whose
    /// far end just died while the job itself survives elsewhere.
    pub(super) transfer_peer: Option<NodeId>,
    /// The nodes the in-flight transfer is registered under in the model's
    /// per-node `transfer_touch` index (remote peer, and destination site
    /// for inbound transfers). Recorded at admission so unindexing removes
    /// exactly what was inserted, regardless of what state the teardown
    /// path has already cleared.
    pub(super) touches: [Option<NodeId>; 2],
    /// Fraction of the job's total work completed in the current attempt
    /// (updated at execution-segment boundaries; seeded from the restored
    /// checkpoint on resume).
    pub(super) frac_done: f64,
    /// Fraction of total work covered by the in-flight execution segment.
    pub(super) seg_fraction: f64,
    /// Virtual time the in-flight execution segment started.
    pub(super) seg_started_s: f64,
    /// Walltime length of the in-flight dedicated-core segment (0 when not
    /// in dedicated execution).
    pub(super) seg_walltime_s: f64,
    /// Fluid amount of the in-flight time-shared segment (0 when not in
    /// time-shared execution).
    pub(super) seg_amount: f64,
    /// Progress fraction carried by the in-flight checkpoint restore.
    pub(super) restore_frac: f64,
    /// Durable checkpoints of this job, at most one per storage node
    /// (newer writes at a node supersede its older checkpoint).
    pub(super) checkpoints: Vec<JobCheckpoint>,
    /// In-flight *asynchronous* checkpoint write, held separately from
    /// `activity` because it overlaps the next execution segment.
    pub(super) ckpt_activity: Option<ActivityId>,
    /// Target node of the in-flight asynchronous write (doubles as its
    /// `transfer_touch` registration record).
    pub(super) ckpt_node: Option<NodeId>,
    /// Progress fraction the in-flight asynchronous write captures — the
    /// `frac_done` snapshot taken when the write started, which becomes the
    /// checkpoint's durable fraction at completion.
    pub(super) ckpt_frac: f64,
    /// True while the job sits at a segment boundary waiting for the
    /// previous asynchronous write to drain (the overlap model's only stall
    /// condition).
    pub(super) ckpt_stalled: bool,
}

impl JobRuntime {
    /// Fresh runtime state for one trace record.
    pub(super) fn new(record: &JobRecord) -> Self {
        Self::from_record(record.clone())
    }

    /// Fresh runtime state taking ownership of the record (the streaming
    /// ingest path: no `Trace` is materialised, so there is nothing to
    /// borrow from and nothing to clone).
    pub(super) fn from_record(record: JobRecord) -> Self {
        JobRuntime {
            submit_time: record.submit_time,
            record,
            state: JobState::Pending,
            site: None,
            retries: 0,
            fault_retries: 0,
            assign_time: 0.0,
            start_time: 0.0,
            end_time: 0.0,
            staged_bytes: 0,
            dataset: NO_DATASET,
            timer: None,
            activity: None,
            holds_cores: false,
            run_prev: NO_JOB,
            run_next: NO_JOB,
            transfer_peer: None,
            touches: [None; 2],
            frac_done: 0.0,
            seg_fraction: 0.0,
            seg_started_s: 0.0,
            seg_walltime_s: 0.0,
            seg_amount: 0.0,
            restore_frac: 0.0,
            checkpoints: Vec::new(),
            ckpt_activity: None,
            ckpt_node: None,
            ckpt_frac: 0.0,
            ckpt_stalled: false,
        }
    }
}

impl GridModel {
    /// Starts the execution phase (cores already held).
    pub(super) fn begin_execution(
        &mut self,
        idx: usize,
        site: SiteId,
        ctx: &mut Context<'_, GridEvent>,
    ) {
        let now = ctx.now();
        self.jobs[idx].state = JobState::Running;
        self.record(now, idx, JobState::Running);

        // Cache / replicate the input at the execution site for later jobs of
        // the same task, subject to the data-movement policy's admission
        // decision.
        if self.execution.cache_datasets
            && self
                .data_policy
                .cache_decision(&self.jobs[idx].record, site)
                == CachePolicy::CacheAtSite
        {
            let dataset = self.task_dataset(idx);
            let bytes = self.catalog.dataset(dataset).bytes;
            self.caches[site.index()].insert(dataset, bytes);
            self.catalog.add_replica(dataset, NodeId::Site(site));
        }

        // Checkpointing splits execution into segments with durable writes
        // between them (and possibly a restore transfer in front). With the
        // policy disabled the original single-shot path below runs unchanged,
        // so zero-checkpoint configurations stay bit-identical to builds
        // without the feature; the extra segment bookkeeping only feeds the
        // work-lost accounting of fault injection.
        if self.execution.checkpoint.enabled() {
            self.begin_restore_or_segment(idx, site, ctx);
            return;
        }
        let work_hs23 = self.jobs[idx].record.work_hs23;
        let cores = self.jobs[idx].record.cores;
        match self.execution.compute_mode {
            ComputeMode::DedicatedCores => {
                let speed = self.platform.effective_speed(site);
                let walltime = ideal_walltime(work_hs23, cores, speed);
                self.jobs[idx].frac_done = 0.0;
                self.jobs[idx].seg_fraction = 1.0;
                self.jobs[idx].seg_started_s = now.as_secs();
                self.jobs[idx].seg_walltime_s = walltime;
                let key = ctx.schedule_in(
                    cgsim_des::SimTime::from_secs(walltime),
                    GridEvent::ExecutionDone(idx),
                );
                self.jobs[idx].timer = Some(key);
                self.trace_phase(now.as_secs(), idx, Phase::Execute, SpanPhase::Begin, None);
            }
            ComputeMode::TimeShared => {
                let resource = self.cpu_resources[site.index()];
                let weight = cores as f64;
                let amount = work_hs23 / cgsim_workload::parallel_efficiency(cores);
                self.jobs[idx].frac_done = 0.0;
                self.jobs[idx].seg_fraction = 1.0;
                self.jobs[idx].seg_started_s = now.as_secs();
                self.jobs[idx].seg_amount = amount;
                self.start_fluid_activity(idx, Phase::Execute, amount, &[resource], weight, ctx);
            }
        }
    }

    /// An execution segment (the whole execution when checkpointing is off)
    /// finished: either the job is done, or it pauses to write a checkpoint
    /// before the next segment.
    pub(super) fn execution_segment_done(&mut self, idx: usize, ctx: &mut Context<'_, GridEvent>) {
        // Closes the span opened at segment admission — the shared funnel for
        // both compute modes (fluid completion or `ExecutionDone` timer).
        self.trace_phase(
            ctx.now().as_secs(),
            idx,
            Phase::Execute,
            SpanPhase::End,
            None,
        );
        if !self.execution.checkpoint.enabled() {
            // Execution is complete: mark the full fraction done so a kill
            // during the output phase accounts the whole discarded execution
            // in `work_lost_s` (bookkeeping only — no behavioural change).
            self.jobs[idx].frac_done = 1.0;
            self.finish_execution(idx, ctx);
            return;
        }
        let site = self.jobs[idx].site.expect("executing job has a site");
        self.jobs[idx].frac_done =
            (self.jobs[idx].frac_done + self.jobs[idx].seg_fraction).min(1.0);
        self.jobs[idx].seg_fraction = 0.0;
        self.jobs[idx].seg_walltime_s = 0.0;
        self.jobs[idx].seg_amount = 0.0;
        // A pending asynchronous write may complete at exactly this boundary;
        // sync the fluid model so the decision below sees its final state.
        if self.jobs[idx].ckpt_activity.is_some() {
            let completed = self.advance_fluid(ctx.now());
            self.handle_completed_activities(completed, ctx);
        }
        if self.jobs[idx].frac_done >= 1.0 - 1e-9 {
            // The run is complete — an overlapping write of an intermediate
            // state has no further value, so it is dropped rather than
            // allowed to delay the job's output phase.
            if self.jobs[idx].ckpt_activity.is_some() {
                self.cancel_async_write(idx, ctx, "job complete");
                self.reschedule_fluid(ctx);
            }
            self.finish_execution(idx, ctx);
        } else if self.execution.checkpoint.overlap {
            if self.jobs[idx].ckpt_activity.is_some() {
                // The previous write is still draining: the job stalls at
                // the boundary (the overlap model's only stall), and the
                // write completion restarts it.
                self.jobs[idx].ckpt_stalled = true;
                self.collector.record_ckpt_stall();
                self.trace_phase(
                    ctx.now().as_secs(),
                    idx,
                    Phase::CkptAsync,
                    SpanPhase::Instant,
                    Some("ckpt.stall"),
                );
            } else {
                let admitted = self.start_async_checkpoint_write(idx, site, ctx);
                self.start_execution_segment(idx, site, ctx);
                if admitted {
                    self.collector.record_ckpt_overlap();
                }
            }
        } else {
            self.start_checkpoint_write(idx, site, ctx);
        }
    }

    /// Handles the end of the execution phase (failure draw, output
    /// stage-out).
    pub(super) fn finish_execution(&mut self, idx: usize, ctx: &mut Context<'_, GridEvent>) {
        let site = self.jobs[idx].site.expect("running job has a site");
        let failed = self.rng.chance(self.execution.failure_probability);
        if failed {
            // An *application* failure invalidates the job's state: its
            // checkpoints led to the failure, so the rerun starts from
            // scratch (unlike fault interruptions, which restore).
            self.discard_checkpoints(idx);
            if self.jobs[idx].retries < self.execution.max_retries {
                // Release resources and resubmit to the main server.
                self.jobs[idx].retries += 1;
                self.release_cores(idx, site);
                let now = ctx.now();
                self.jobs[idx].site = None;
                self.jobs[idx].state = JobState::Pending;
                self.record(now, idx, JobState::Pending);
                self.dispatch(idx, ctx);
                self.after_release(site, ctx);
                return;
            }
            self.finalize(idx, JobState::Failed, ctx);
            return;
        }
        let record = &self.jobs[idx].record;
        if self.execution.enable_output_transfers && record.output_bytes > 0 {
            self.start_output_transfer(idx, site, ctx);
        } else {
            self.finalize(idx, JobState::Finished, ctx);
        }
    }

    /// Routes finished fluid activities to the next phase of their job.
    pub(super) fn handle_completed_activities(
        &mut self,
        completed: Vec<(usize, Phase)>,
        ctx: &mut Context<'_, GridEvent>,
    ) {
        for (idx, phase) in completed {
            // Repair transfers carry sentinel ids (`jobs.len() + slot`) and
            // asynchronous checkpoint writes live outside the job's main
            // activity slot — both must route before any `jobs[idx]` access
            // or main-transfer unindexing.
            if phase == Phase::Repair {
                let slot = idx - self.jobs.len();
                self.finish_repair(slot, ctx);
                continue;
            }
            if phase == Phase::CkptAsync {
                self.finish_async_checkpoint_write(idx, ctx);
                continue;
            }
            self.unindex_transfer(idx);
            self.jobs[idx].activity = None;
            // `Execute` spans close in `execution_segment_done` (shared with
            // the dedicated-core timer path); everything else closes here.
            if phase != Phase::Execute {
                self.trace_phase(ctx.now().as_secs(), idx, phase, SpanPhase::End, None);
            }
            match phase {
                Phase::Input => {
                    self.jobs[idx].transfer_peer = None;
                    let site = self.jobs[idx].site.expect("staging job has a site");
                    self.begin_execution(idx, site, ctx);
                }
                Phase::Execute => {
                    self.execution_segment_done(idx, ctx);
                }
                Phase::Output => {
                    self.finalize(idx, JobState::Finished, ctx);
                }
                Phase::Checkpoint => {
                    self.finish_checkpoint_write(idx, ctx);
                }
                Phase::Restore => {
                    self.finish_restore(idx, ctx);
                }
                Phase::CkptAsync | Phase::Repair => {
                    unreachable!("routed before the per-job teardown above")
                }
            }
        }
    }
}
