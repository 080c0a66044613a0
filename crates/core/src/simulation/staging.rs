//! Input staging plans against the replica catalog, and the one funnel every
//! fluid activity of the simulation passes through.
//!
//! Whatever consumes fluid capacity — a job's staging, time-shared execution,
//! output, checkpoint restore or checkpoint write, or a repair slot's
//! re-replication — is admitted by [`GridModel::admit_transfer`] and leaves
//! through [`GridModel::retire_transfer`] (on completion) or
//! [`GridModel::cancel_transfer`] (which retires after taking the activity
//! out of the model). Each activity has a typed [`Owner`] and one
//! [`Transfer`] record, held in the activity map beside the activity; the
//! record is the only place that says which nodes the activity touches, so
//! the per-node `transfer_touch` index is written by exactly that pair.

use cgsim_data::{DatasetId, SourceSelection};
use cgsim_des::fluid::ActivityId;
use cgsim_des::{Context, SimTime};
use cgsim_obs::{SpanPhase, Subsystem, TraceCategory};
use cgsim_platform::{NodeId, SiteId};
use cgsim_workload::JobState;

use super::events::GridEvent;
use super::job_runtime::{Phase, NO_DATASET};
use super::GridModel;

/// Who owns an in-flight fluid activity. The derived order — jobs by index,
/// then repair slots — is the order data-loss replay visits the victims
/// registered at a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(super) enum Owner {
    /// A job, by index: one of its phases.
    Job(usize),
    /// A slot of the repair planner's bounded slab.
    Repair(usize),
}

/// What an activity consumes.
#[derive(Debug, Clone, Copy)]
pub(super) enum Path {
    /// A share of a site's CPU pool, weighted (time-shared execution).
    Cpu(SiteId, f64),
    /// Bytes over the links of the `from -> to` route at weight 1; equal
    /// endpoints mean a site-local transfer over the site's LAN link.
    Net(NodeId, NodeId),
}

/// The model's record of one in-flight fluid activity.
#[derive(Debug, Clone, Copy)]
pub(super) struct Transfer {
    pub(super) owner: Owner,
    pub(super) phase: Phase,
    /// The nodes whose data loss voids this activity — the entries it holds
    /// in the per-node `transfer_touch` index.
    pub(super) touches: [Option<NodeId>; 2],
}

impl GridModel {
    /// The input dataset of a job's task: one map probe per job (the answer
    /// is kept on the job), one registration per task.
    pub(super) fn task_dataset(&mut self, idx: usize) -> DatasetId {
        let job = &self.jobs[idx];
        if job.dataset != NO_DATASET {
            return DatasetId::new(job.dataset as usize);
        }
        let record = &self.trace.jobs[idx];
        let task = record.task_id.0;
        let ds = match self.task_datasets.get(&task) {
            Some(&ds) => ds,
            None => {
                let ds = self.catalog.register(
                    format!("task-{task}-input"),
                    record.input_files,
                    record.input_bytes,
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

    /// Advances the fluid model to `now` and returns the records of the
    /// activities that completed, in the fluid model's deterministic
    /// (slot-ordered) completion order. Both buffers are reused across
    /// calls (`handle_completed_activities` hands the returned one back), so
    /// a sync allocates nothing.
    pub(super) fn advance_fluid(&mut self, now: SimTime) -> Vec<Transfer> {
        let timer = self.profiler.start();
        let dt = now.saturating_sub(self.last_fluid_sync);
        self.last_fluid_sync = now;
        let mut finished = std::mem::take(&mut self.fluid_done_scratch);
        self.fluid.advance_into(dt, &mut finished);
        let mut completed = std::mem::take(&mut self.completed_scratch);
        completed.extend(
            finished
                .drain(..)
                .filter_map(|aid| self.activity_map.remove(aid)),
        );
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

    /// Where `owner` keeps the id of its in-flight activity of kind `phase`:
    /// a job's checkpoint write has a slot of its own (it may overlap an
    /// execution segment), every other job phase shares the main slot, and a
    /// repair slot holds its one transfer.
    fn activity_slot(&mut self, owner: Owner, phase: Phase) -> &mut Option<ActivityId> {
        match owner {
            Owner::Job(idx) if phase == Phase::CkptWrite => &mut self.run_mut(idx).ckpt_activity,
            Owner::Job(idx) => &mut self.run_mut(idx).activity,
            Owner::Repair(slot) => {
                &mut self.repair.active[slot]
                    .as_mut()
                    .expect("a repair transfer is admitted into an occupied slot")
                    .activity
            }
        }
    }

    /// The one admission path of every fluid activity — job phase, checkpoint
    /// write or repair: syncs the model to `now`, builds the route, admits
    /// the activity, files its [`Transfer`] record, binds it to its owner's
    /// slot and to the per-node touch index, opens the trace span, then
    /// routes the completions the sync surfaced and re-arms the timer.
    pub(super) fn admit_transfer(
        &mut self,
        owner: Owner,
        phase: Phase,
        amount: f64,
        path: Path,
        ctx: &mut Context<'_, GridEvent>,
    ) {
        let now = ctx.now();
        let job = match owner {
            Owner::Job(idx) => Some(idx),
            Owner::Repair(_) => None,
        };
        let mut route = std::mem::take(&mut self.route_scratch);
        route.clear();
        let (weight, touches) = match path {
            Path::Cpu(site, weight) => {
                route.push(self.cpu_resources[site.index()]);
                (weight, [None, None])
            }
            Path::Net(from, to) => {
                self.trace(
                    now.as_secs(),
                    TraceCategory::Fluid,
                    SpanPhase::Instant,
                    "fluid.transfer",
                    job,
                    None,
                    |_| Some(format!("{from}->{to} bytes={}", amount as u64)),
                );
                match from {
                    // A site-local transfer crosses only the site LAN,
                    // contending with staging entering or leaving the site.
                    NodeId::Site(site) if from == to => {
                        let lan = self.platform.site(site).lan_link;
                        route.push(self.link_resources[lan.index()]);
                    }
                    _ => route.extend(
                        self.platform
                            .route(from, to)
                            .links
                            .iter()
                            .map(|l| self.link_resources[l.index()]),
                    ),
                }
                let touches = match phase {
                    // Inbound bytes die with either end: the source going
                    // away, or a disk loss voiding the partially written
                    // destination.
                    Phase::Input | Phase::Restore | Phase::Repair => [Some(from), Some(to)],
                    // A write is lost with its target; its source is the
                    // job's own site, whose death kills the job itself.
                    Phase::CkptWrite => [Some(to), None],
                    // Output ends at the indestructible main server.
                    Phase::Output | Phase::Execute => [None, None],
                };
                (1.0, touches)
            }
        };
        let completed = self.advance_fluid(now);
        let activity = self.fluid.add_weighted_activity(amount, &route, weight);
        self.route_scratch = route;
        let transfer = Transfer {
            owner,
            phase,
            touches,
        };
        self.activity_map.insert(activity, transfer);
        *self.activity_slot(owner, phase) = Some(activity);
        for node in touches.into_iter().flatten() {
            let ni = self.node_index(node);
            let list = &mut self.transfer_touch[ni];
            if let Err(pos) = list.binary_search(&owner) {
                list.insert(pos, owner);
            }
        }
        if let Some(idx) = job {
            self.trace_phase(now.as_secs(), idx, phase, SpanPhase::Begin, None);
        }
        self.handle_completed_activities(completed, ctx);
        self.reschedule_fluid(ctx);
    }

    /// Teardown twin of [`GridModel::admit_transfer`], shared by completion
    /// and cancellation: frees the owner's slot and drops exactly the touch
    /// index entries admission inserted.
    pub(super) fn retire_transfer(&mut self, transfer: &Transfer) {
        *self.activity_slot(transfer.owner, transfer.phase) = None;
        for node in transfer.touches.into_iter().flatten() {
            let ni = self.node_index(node);
            if let Ok(pos) = self.transfer_touch[ni].binary_search(&transfer.owner) {
                self.transfer_touch[ni].remove(pos);
            }
        }
    }

    /// Cancels an in-flight activity: closes a job's span with `info`, takes
    /// the activity out of the fluid model and retires its record. Nothing it
    /// carried becomes durable; the caller re-plans or releases what the
    /// owner had reserved.
    pub(super) fn cancel_transfer(
        &mut self,
        activity: ActivityId,
        time_s: f64,
        info: Option<&str>,
    ) -> Transfer {
        let transfer = self
            .activity_map
            .remove(activity)
            .expect("an owner's slot names a live activity");
        if let Owner::Job(idx) = transfer.owner {
            self.trace_phase(time_s, idx, transfer.phase, SpanPhase::End, info);
        }
        self.fluid.remove_activity(activity);
        self.retire_transfer(&transfer);
        transfer
    }

    /// Whether the in-flight activity `activity` (if any) has an endpoint at
    /// `node`.
    pub(super) fn touches_node(&self, activity: Option<ActivityId>, node: NodeId) -> bool {
        activity
            .and_then(|a| self.activity_map.get(a))
            .is_some_and(|t| t.touches.contains(&Some(node)))
    }

    /// Begins input staging for a job whose cores were just allocated. Stamps
    /// the attempt's start time, then plans the transfer.
    pub(super) fn start_staging(
        &mut self,
        idx: usize,
        site: SiteId,
        ctx: &mut Context<'_, GridEvent>,
    ) {
        self.attempt_mut(idx).start_time = ctx.now().as_secs();
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

        if self.catalog.has_replica(dataset, destination) {
            self.begin_execution(idx, site, ctx);
            return;
        }

        // The data-movement policy picks the replica source; when it
        // declines, the lowest-latency replica serves.
        let mut candidates = std::mem::take(&mut self.source_scratch);
        candidates.clear();
        candidates.extend(self.catalog.replicas(dataset));
        let chosen = self
            .data_policy
            .select_source(&self.trace.jobs[idx], site, &candidates);
        self.source_scratch = candidates;
        let source = match chosen {
            Some(chosen) if chosen == destination => {
                self.begin_execution(idx, site, ctx);
                return;
            }
            Some(chosen) => chosen,
            // No replica at the destination (checked above): one transfer.
            None => self
                .catalog
                .select_source(
                    dataset,
                    destination,
                    &self.platform,
                    SourceSelection::LowestLatency,
                )
                .unwrap_or(NodeId::MainServer),
        };

        self.jobs[idx].state = JobState::Staging;
        self.record(now, idx, JobState::Staging);
        let bytes = self.trace.jobs[idx].input_bytes;
        self.attempt_mut(idx).staged_bytes += bytes;
        // Latency is added as a constant amount of "extra bytes" at the
        // bottleneck rate; for WAN transfers of GB-scale inputs it is
        // negligible, which matches the fluid approximation of SimGrid.
        self.admit_transfer(
            Owner::Job(idx),
            Phase::Input,
            bytes as f64,
            Path::Net(source, destination),
            ctx,
        );
    }
}
