//! The per-job state machine: Input/Execute/Output phases, failure draws and
//! retries.
//!
//! One lifecycle, whatever the configuration: cores held → input staged →
//! (checkpoint restored) → one or more execution *segments* → output shipped
//! → terminal; nothing here branches on the compute mode or on whether
//! checkpointing is on (`checkpoint` module). A job keeps at most two fluid
//! activities in flight — its main phase in `activity`, a checkpoint write
//! in `ckpt_activity` — and [`GridModel::handle_completed_activities`] is
//! where a finished activity is routed to its owner's next step.
//!
//! A job's state is split by lifetime: [`JobRuntime`] lasts the run (one per
//! job, beside its record in the shared trace) and is kept to 32 bytes;
//! [`AttemptRecord`] lasts from the job's first tenure of cores to its
//! terminal state and holds what must survive a kill; [`RunState`] lasts one
//! tenure of cores and an attempt's progress dies with it. The last two live
//! in [`Slots`] slabs, so those stores are bounded by the jobs in flight
//! rather than by the trace.

use cgsim_des::fluid::ActivityId;
use cgsim_des::{Context, EventKey};
use cgsim_obs::{SpanPhase, TraceCategory};
use cgsim_platform::{NodeId, SiteId};
use cgsim_policies::CachePolicy;
use cgsim_workload::JobState;

use super::broker::NO_JOB;
use super::checkpoint::JobCheckpoint;
use super::events::GridEvent;
use super::staging::{Owner, Path, Transfer};
use super::GridModel;

/// What an in-flight fluid activity is doing for its owner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Phase {
    Input,
    Execute,
    Output,
    /// Re-staging of checkpoint data to the resume site before execution
    /// continues from it.
    Restore,
    /// A checkpoint write to durable storage. It lives in the job's
    /// `ckpt_activity` side slot, never in the main `activity` slot: the job
    /// either waits on it or overlaps it with the next execution segment.
    CkptWrite,
    /// A background re-replication transfer — the one phase owned by a
    /// repair slot rather than a job.
    Repair,
}

impl Phase {
    /// Trace category a span covering this phase is filed under.
    pub(super) fn trace_cat(self) -> TraceCategory {
        match self {
            Phase::Input | Phase::Execute | Phase::Output => TraceCategory::Job,
            Phase::Restore | Phase::CkptWrite => TraceCategory::Ckpt,
            Phase::Repair => TraceCategory::Repair,
        }
    }

    /// Trace span name of this phase (`overlap`: the configured checkpoint
    /// write mode, which names the write span).
    pub(super) fn trace_kind(self, overlap: bool) -> &'static str {
        match self {
            Phase::Input => "input",
            Phase::Execute => "execute",
            Phase::Output => "output",
            Phase::Restore => "ckpt.restore",
            Phase::CkptWrite if overlap => "ckpt.write.async",
            Phase::CkptWrite => "ckpt.write",
            Phase::Repair => "repair.transfer",
        }
    }
}

/// `JobRuntime::dataset` before the job's input dataset has been resolved.
pub(super) const NO_DATASET: u32 = u32::MAX;

/// `JobRuntime::site` of a job at no site.
const NO_SITE: u32 = u32::MAX;

/// What the simulation keeps for every job from `start` to the end of the
/// run, at the index of its record in `GridModel::trace`. Its submit time is
/// not kept: the engine delivers the job's `Submit` at the record's time (at
/// zero if that is negative).
#[derive(Debug, Clone)]
pub(super) struct JobRuntime {
    pub(super) state: JobState,
    /// The site the job is assigned to, `NO_SITE` at none (read and written
    /// through [`JobRuntime::site`] / [`JobRuntime::set_site`]).
    site: u32,
    /// Index of the task's input dataset in the catalog, resolved at the
    /// job's first `task_dataset` call (`NO_DATASET` until then).
    pub(super) dataset: u32,
    /// The job's running-state slot: taken by `admit_front`, returned by
    /// `release_cores`, [`NO_SLOT`] while the job holds no cores.
    pub(super) slot: SlotId,
    /// The job's attempt record: taken by its first `admit_front`, returned
    /// when it reaches a terminal state, [`NO_SLOT`] outside that span.
    pub(super) attempt: SlotId,
    pub(super) assign_time: f64,
}

impl JobRuntime {
    /// A job that has not been submitted yet.
    pub(super) fn new() -> Self {
        JobRuntime {
            state: JobState::Pending,
            site: NO_SITE,
            dataset: NO_DATASET,
            slot: NO_SLOT,
            attempt: NO_SLOT,
            assign_time: 0.0,
        }
    }

    /// The site the job is assigned to.
    pub(super) fn site(&self) -> Option<SiteId> {
        (self.site != NO_SITE).then(|| SiteId::new(self.site as usize))
    }

    /// Assigns the job to `site` (`None`: back to the main server).
    pub(super) fn set_site(&mut self, site: Option<SiteId>) {
        self.site = site.map_or(NO_SITE, |s| {
            u32::try_from(s.index()).expect("site ids fit in u32")
        });
    }
}

/// What a job that has held cores keeps until it is terminal: across its
/// attempts (a kill or an application failure sends it back to the main
/// server with this record), but not while it waits for its first cores.
#[derive(Debug, Default)]
pub(super) struct AttemptRecord {
    /// Start of the latest attempt (`start_staging`, after its pilot delay).
    pub(super) start_time: f64,
    pub(super) staged_bytes: u64,
    pub(super) retries: u32,
    /// Resubmissions consumed by fault interruptions (separate budget from
    /// the application-failure `retries`).
    pub(super) fault_retries: u32,
    /// Durable checkpoints of this job, at most one per storage node
    /// (newer writes at a node supersede its older checkpoint). They outlive
    /// the attempt that wrote them, hence not part of the run slot.
    pub(super) checkpoints: Vec<JobCheckpoint>,
}

/// State of a job that holds cores, from the queue pop in `try_start_site`
/// until `release_cores`. Every field is first written after `admit_front`.
#[derive(Debug, Clone)]
pub(super) struct RunState {
    /// Pending engine timer (pilot start or dedicated-core completion), kept
    /// so fault injection can cancel the in-flight event when it kills the
    /// job.
    pub(super) timer: Option<EventKey>,
    /// In-flight fluid activity of the job's main phase (staging, restore,
    /// time-shared execution or output transfer), kept for the same
    /// cancellation purpose.
    pub(super) activity: Option<ActivityId>,
    /// In-flight checkpoint write, held separately from `activity` because
    /// it may overlap the next execution segment.
    pub(super) ckpt_activity: Option<ActivityId>,
    /// Neighbours (job indices, `NO_JOB` at the ends) in the site's
    /// start-ordered running list.
    pub(super) run_prev: u32,
    pub(super) run_next: u32,
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
    /// Progress fraction the in-flight write captures — the `frac_done`
    /// snapshot taken when the write started, which becomes the checkpoint's
    /// durable fraction at completion.
    pub(super) ckpt_frac: f64,
    /// True while the job sits at a segment boundary waiting for its
    /// in-flight write to drain: from the start of the write when writes are
    /// synchronous, or — with `checkpoint.overlap` — only when the previous
    /// write is still in flight at the next boundary (a counted stall).
    pub(super) ckpt_stalled: bool,
}

impl Default for RunState {
    /// A tenure that has not started anything and is on no running list.
    fn default() -> Self {
        RunState {
            timer: None,
            activity: None,
            ckpt_activity: None,
            run_prev: NO_JOB,
            run_next: NO_JOB,
            frac_done: 0.0,
            seg_fraction: 0.0,
            seg_started_s: 0.0,
            seg_walltime_s: 0.0,
            seg_amount: 0.0,
            restore_frac: 0.0,
            ckpt_frac: 0.0,
            ckpt_stalled: false,
        }
    }
}

/// Handle of a [`Slots`] slot. Debug builds tag it with the slot's
/// generation, so an id kept past its release misses instead of reading the
/// next tenant's state; release builds carry the index alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) struct SlotId {
    index: u32,
    #[cfg(debug_assertions)]
    generation: u32,
}

/// The id of a job that holds no slot: names no slot, ever.
pub(super) const NO_SLOT: SlotId = SlotId {
    index: u32::MAX,
    #[cfg(debug_assertions)]
    generation: 0,
};

/// A slab of per-job records that only jobs in flight hold, recycled through
/// a free list: as many slots as records have been held at once. Two
/// instances — [`RunState`] per tenure of cores, [`AttemptRecord`] per job
/// from its first cores to its terminal state.
#[derive(Debug)]
pub(super) struct Slots<T> {
    slots: Vec<T>,
    free: Vec<u32>,
    #[cfg(debug_assertions)]
    generations: Vec<u32>,
}

impl<T> Default for Slots<T> {
    fn default() -> Self {
        Slots {
            slots: Vec::new(),
            free: Vec::new(),
            #[cfg(debug_assertions)]
            generations: Vec::new(),
        }
    }
}

impl<T: Default> Slots<T> {
    /// Hands out a slot holding `T::default()` (a returned one if any).
    pub(super) fn take(&mut self) -> SlotId {
        let index = match self.free.pop() {
            Some(index) => {
                self.slots[index as usize] = T::default();
                index
            }
            None => {
                self.slots.push(T::default());
                #[cfg(debug_assertions)]
                self.generations.push(0);
                (self.slots.len() - 1) as u32
            }
        };
        SlotId {
            index,
            #[cfg(debug_assertions)]
            generation: self.generations[index as usize],
        }
    }
}

impl<T> Slots<T> {
    /// Takes a slot back; in debug builds `id` is stale from here on.
    pub(super) fn release(&mut self, id: SlotId) {
        debug_assert!(self.get(id).is_some(), "released a stale slot id");
        #[cfg(debug_assertions)]
        {
            self.generations[id.index as usize] += 1;
        }
        self.free.push(id.index);
    }

    /// The slot `id` names: `None` for [`NO_SLOT`] and, in debug builds, for
    /// an id whose slot has been returned since.
    pub(super) fn get(&self, id: SlotId) -> Option<&T> {
        #[cfg(debug_assertions)]
        {
            if self.generations.get(id.index as usize) != Some(&id.generation) {
                return None;
            }
        }
        self.slots.get(id.index as usize)
    }

    /// Mutable twin of [`Slots::get`].
    pub(super) fn get_mut(&mut self, id: SlotId) -> Option<&mut T> {
        self.get(id)?;
        self.slots.get_mut(id.index as usize)
    }

    /// Slots currently handed out.
    pub(super) fn live(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// The most slots ever handed out at once (the slab never shrinks).
    pub(super) fn high_water(&self) -> usize {
        self.slots.len()
    }
}

impl GridModel {
    /// The running state of job `idx`, which must hold cores.
    pub(super) fn run(&self, idx: usize) -> &RunState {
        let slot = self.jobs[idx].slot;
        self.running.get(slot).expect("the job holds cores")
    }

    /// Mutable twin of [`GridModel::run`].
    pub(super) fn run_mut(&mut self, idx: usize) -> &mut RunState {
        let slot = self.jobs[idx].slot;
        self.running.get_mut(slot).expect("the job holds cores")
    }

    /// The attempt record of job `idx`, which must have held cores and not
    /// be terminal yet.
    pub(super) fn attempt(&self, idx: usize) -> &AttemptRecord {
        let slot = self.jobs[idx].attempt;
        self.attempts.get(slot).expect("the job has held cores")
    }

    /// Mutable twin of [`GridModel::attempt`].
    pub(super) fn attempt_mut(&mut self, idx: usize) -> &mut AttemptRecord {
        let slot = self.jobs[idx].attempt;
        self.attempts.get_mut(slot).expect("the job has held cores")
    }

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

        // Register the input as a replica at the execution site for later
        // jobs of the same task, subject to the data-movement policy's
        // admission decision. It stays until an outage or disk loss there.
        if self.execution.cache_datasets
            && self.data_policy.cache_decision(&self.trace.jobs[idx], site)
                == CachePolicy::CacheAtSite
        {
            let dataset = self.task_dataset(idx);
            self.catalog.add_replica(dataset, NodeId::Site(site));
        }

        self.begin_restore_or_segment(idx, site, ctx);
    }

    /// An execution segment finished (its span is already closed): either
    /// the job is done, or it writes a checkpoint before — or, with
    /// `checkpoint.overlap`, while — running the next segment.
    pub(super) fn execution_segment_done(&mut self, idx: usize, ctx: &mut Context<'_, GridEvent>) {
        let site = self.jobs[idx].site().expect("executing job has a site");
        let run = self.run_mut(idx);
        run.frac_done = (run.frac_done + run.seg_fraction).min(1.0);
        run.seg_fraction = 0.0;
        run.seg_walltime_s = 0.0;
        run.seg_amount = 0.0;
        // An overlapped write may complete at exactly this boundary; sync
        // the fluid model so the decision below sees its final state.
        if run.ckpt_activity.is_some() {
            let completed = self.advance_fluid(ctx.now());
            self.handle_completed_activities(completed, ctx);
        }
        if self.run(idx).frac_done >= 1.0 - 1e-9 {
            // The run is complete — an overlapping write of an intermediate
            // state has no further value, so it is dropped rather than
            // allowed to delay the job's output phase.
            if self.run(idx).ckpt_activity.is_some() {
                self.cancel_checkpoint_write(idx, ctx, "job complete");
                self.reschedule_fluid(ctx);
            }
            self.finish_execution(idx, ctx);
        } else if self.run(idx).ckpt_activity.is_some() {
            // The previous write is still draining: the job stalls at the
            // boundary (the overlap model's only stall), and the write
            // completion restarts it.
            self.run_mut(idx).ckpt_stalled = true;
            self.collector.grid_counters.ckpt_stalls += 1;
            self.trace_phase(
                ctx.now().as_secs(),
                idx,
                Phase::CkptWrite,
                SpanPhase::Instant,
                Some("ckpt.stall"),
            );
        } else {
            self.checkpoint_and_continue(idx, site, ctx);
        }
    }

    /// Handles the end of the execution phase (failure draw, output
    /// stage-out).
    pub(super) fn finish_execution(&mut self, idx: usize, ctx: &mut Context<'_, GridEvent>) {
        let site = self.jobs[idx].site().expect("running job has a site");
        let failed = self.rng.chance(self.execution.failure_probability);
        if failed {
            // An *application* failure invalidates the job's state: its
            // checkpoints led to the failure, so the rerun starts from
            // scratch (unlike fault interruptions, which restore).
            self.discard_checkpoints(idx);
            if self.attempt(idx).retries < self.execution.max_retries {
                // Release resources and resubmit to the main server.
                self.attempt_mut(idx).retries += 1;
                self.release_cores(idx, site);
                let now = ctx.now();
                self.jobs[idx].set_site(None);
                self.jobs[idx].state = JobState::Pending;
                self.record(now, idx, JobState::Pending);
                self.dispatch(idx, ctx);
                self.after_release(site, ctx);
                return;
            }
            self.finalize(idx, JobState::Failed, ctx);
            return;
        }
        let record = &self.trace.jobs[idx];
        if self.execution.enable_output_transfers && record.output_bytes > 0 {
            // Ship the output back to the main server; completion finalizes.
            let bytes = record.output_bytes as f64;
            let path = Path::Net(NodeId::Site(site), NodeId::MainServer);
            self.admit_transfer(Owner::Job(idx), Phase::Output, bytes, path, ctx);
        } else {
            self.finalize(idx, JobState::Finished, ctx);
        }
    }

    /// Routes finished fluid activities to the next step of their owner.
    pub(super) fn handle_completed_activities(
        &mut self,
        mut completed: Vec<Transfer>,
        ctx: &mut Context<'_, GridEvent>,
    ) {
        for done in completed.drain(..) {
            self.retire_transfer(&done);
            let idx = match done.owner {
                Owner::Repair(slot) => {
                    self.finish_repair(slot, ctx);
                    continue;
                }
                Owner::Job(idx) => idx,
            };
            self.trace_phase(ctx.now().as_secs(), idx, done.phase, SpanPhase::End, None);
            match done.phase {
                Phase::Input => {
                    let site = self.jobs[idx].site().expect("staging job has a site");
                    self.begin_execution(idx, site, ctx);
                }
                Phase::Execute => self.execution_segment_done(idx, ctx),
                Phase::Output => self.finalize(idx, JobState::Finished, ctx),
                Phase::Restore => self.finish_restore(idx, ctx),
                Phase::CkptWrite => {
                    let node = done.touches[0].expect("a checkpoint write touches its target");
                    self.finish_checkpoint_write(idx, node, ctx);
                }
                Phase::Repair => unreachable!("repair transfers are owned by repair slots"),
            }
        }
        self.completed_scratch = completed;
    }
}
