//! Fault-plan replay: applying scheduled infrastructure faults to the live
//! simulation state.
//!
//! The plan itself is generated up front by `cgsim-faults`; this module is
//! the runtime half of the subsystem. Every fault event first synchronises
//! the fluid model to the current instant (so work done at the old rates is
//! credited before capacities change), then mutates availability state:
//!
//! * **site outage** — jobs holding cores are killed (their pending engine
//!   timers cancelled, their fluid activities removed), queued jobs are
//!   bounced back to the main server, and every replica staged at the site
//!   is invalidated (its catalog entries evicted),
//! * **partial node loss** — the lost cores are reclaimed from the free
//!   pool, killing the most recently started jobs if the free pool cannot
//!   cover the loss,
//! * **link degradation** — the link's fluid capacity is rescaled, which
//!   re-rates every in-flight transfer through max-min fairness,
//! * **disk loss** — the site's storage media fail without an outage:
//!   staged replicas and durable checkpoints held there are lost while the
//!   site keeps computing,
//! * **job kill** — one targeted job is killed if it currently holds cores.
//!
//! Killed jobs consume a fault retry (`ExecutionConfig::fault_max_retries`)
//! and are resubmitted through the allocation policy — which hears about
//! every interruption via `AllocationPolicy::on_job_interrupted`, so
//! policies can blacklist flapping sites — or are finalized as failed when
//! the budget is exhausted. A resubmitted job resumes from its newest
//! surviving checkpoint, if it has one (see the `checkpoint` module), and
//! the policy additionally hears `on_job_restored` with the site holding it.
//!
//! **Data-loss audit.** Killing the jobs *at* a lost site is not enough to
//! quiesce its traffic: a transfer can have an end at the dead node while
//! its owner survives elsewhere (input staging from a replica at the dead
//! site, a checkpoint restore reading from it, a checkpoint write or a
//! repair transfer targeting it). `repair_transfers_touching` cancels such
//! in-flight transfers after every data-loss event — through the same
//! `cancel_transfer` teardown an interrupted job uses — and re-plans them
//! from the surviving replicas, instead of letting them keep streaming bytes
//! out of storage that no longer exists. What "storage contents die" means
//! is one helper, `wipe_storage_at`, shared by outage and disk loss.
//!
//! Both data-loss passes are indexed, not scanned: the model maintains a
//! per-node list of the owners ([`Owner`]: a job or a repair slot) whose
//! in-flight activity touches each node (`transfer_touch`, written only by
//! `admit_transfer` / `retire_transfer` from the activity's own record) and
//! of jobs holding a durable checkpoint at each node (`ckpt_holders`, kept
//! by the checkpoint write/discard paths). A fault at a node therefore costs
//! O(transfers + checkpoints actually touching it), not O(jobs); debug
//! builds cross-check every lookup against the full scan it replaced.

use cgsim_des::{Context, SimTime};
use cgsim_faults::FaultAction;
use cgsim_obs::{SpanPhase, Subsystem, TraceCategory};
use cgsim_platform::{LinkId, NodeId, SiteId};
use cgsim_workload::JobState;

use super::events::GridEvent;
use super::job_runtime::{Phase, NO_SLOT};
use super::staging::Owner;
use super::GridModel;

impl GridModel {
    /// Applies fault-plan event `index` and chains the next one.
    pub(super) fn handle_fault(&mut self, index: usize, ctx: &mut Context<'_, GridEvent>) {
        let timer = self.profiler.start();
        self.fault_key = None;
        let now = ctx.now();
        // Credit all in-flight fluid work at the pre-fault rates before any
        // capacity or activity-set change.
        let completed = self.advance_fluid(now);
        self.handle_completed_activities(completed, ctx);

        let action = self.fault_plan[index].action;
        if let Some(t) = self.tracer.as_mut() {
            if t.wants(TraceCategory::Fault) {
                let (kind, info) = match action {
                    FaultAction::SiteDown { site } => ("fault.site_down", format!("site={site}")),
                    FaultAction::SiteUp { site } => ("fault.site_up", format!("site={site}")),
                    FaultAction::NodeLoss { site, fraction } => (
                        "fault.node_loss",
                        format!("site={site} fraction={fraction}"),
                    ),
                    FaultAction::NodeRestore { site } => {
                        ("fault.node_restore", format!("site={site}"))
                    }
                    FaultAction::DiskLoss { site } => ("fault.disk_loss", format!("site={site}")),
                    FaultAction::LinkDegrade { link, factor } => {
                        ("fault.link_degrade", format!("link={link} factor={factor}"))
                    }
                    FaultAction::LinkRestore { link } => {
                        ("fault.link_restore", format!("link={link}"))
                    }
                    FaultAction::KillJob { job } => ("fault.kill_job", format!("job={job}")),
                };
                t.emit(
                    now.as_secs(),
                    TraceCategory::Fault,
                    SpanPhase::Instant,
                    kind,
                    None,
                    None,
                    Some(info),
                );
            }
        }
        match action {
            FaultAction::SiteDown { site } if site < self.sites.len() => {
                let site = SiteId::new(site);
                // Overlapping outage processes nest; only the up -> down
                // transition kills work.
                if self.availability.site_down_begin(site) {
                    self.mirror_site(site);
                    self.collector.grid_counters.site_outages += 1;
                    self.take_site_down(site, ctx);
                }
            }
            FaultAction::SiteUp { site } if site < self.sites.len() => {
                let site = SiteId::new(site);
                if self.availability.site_down_end(site) {
                    self.mirror_site(site);
                    // Back up: reconsider parked work, and give the repair
                    // planner its restored source/destination candidates.
                    self.after_release(site, ctx);
                    self.pump_repairs(ctx);
                }
            }
            FaultAction::NodeLoss { site, fraction } if site < self.sites.len() => {
                self.apply_node_loss(SiteId::new(site), fraction, ctx);
            }
            FaultAction::NodeRestore { site } if site < self.sites.len() => {
                self.apply_node_restore(SiteId::new(site), ctx);
            }
            FaultAction::DiskLoss { site } if site < self.sites.len() => {
                self.apply_disk_loss(SiteId::new(site), ctx);
            }
            FaultAction::LinkDegrade { link, factor } if link < self.link_resources.len() => {
                self.collector.grid_counters.link_degradations += 1;
                self.availability
                    .link_degrade_begin(LinkId::new(link), factor);
                self.apply_link_capacity(link);
            }
            FaultAction::LinkRestore { link } if link < self.link_resources.len() => {
                // Overlapping degradations nest: the link only returns to
                // nominal bandwidth when the last one ends.
                self.availability.link_degrade_end(LinkId::new(link));
                self.apply_link_capacity(link);
            }
            // Only jobs currently occupying cores can be killed; anything
            // else (pending, queued, already terminal) is a no-op.
            FaultAction::KillJob { job }
                if self.jobs.get(job).is_some_and(|j| j.slot != NO_SLOT) =>
            {
                let site = self.jobs[job].site().expect("job holding cores has a site");
                self.interrupt_job(job, ctx);
                self.after_release(site, ctx);
            }
            // A target outside this scenario's topology (plan generated for a
            // different platform/trace): ignore rather than corrupt state.
            _ => {}
        }

        self.reschedule_fluid(ctx);
        self.schedule_next_fault(index + 1, ctx);
        self.profiler.stop(Subsystem::FaultReplay, timer);
    }

    /// Schedules fault-plan event `index`, unless the plan or the workload
    /// is exhausted.
    pub(super) fn schedule_next_fault(&mut self, index: usize, ctx: &mut Context<'_, GridEvent>) {
        if self.completed_jobs >= self.jobs.len() {
            return;
        }
        if let Some(event) = self.fault_plan.get(index) {
            let fault = GridEvent::Fault(index as u32);
            let key = ctx.schedule_at(SimTime::from_secs(event.time_s), fault);
            self.fault_key = Some(key);
        }
    }

    /// A whole site goes dark: wipe its storage, kill holders, bounce the
    /// queue, and re-plan surviving transfers that were reading from it.
    fn take_site_down(&mut self, site: SiteId, ctx: &mut Context<'_, GridEvent>) {
        let now = ctx.now();
        // Storage contents die with the site — *before* the kills, so policy
        // hooks never see a doomed checkpoint advertised as a restore source.
        self.wipe_storage_at(site, now.as_secs());
        // Queued jobs hold no cores; they go back to the main server without
        // consuming a fault retry.
        let queued: Vec<u32> = self.sites[site.index()].queue.drain(..).collect();
        self.mirror_site(site);
        for job in queued {
            let idx = job as usize;
            self.jobs[idx].set_site(None);
            self.jobs[idx].state = JobState::Pending;
            self.record(now, idx, JobState::Pending);
            self.pending.push_back(job);
        }
        // Kill every job holding cores (pilot wait, staging, executing,
        // shipping output), in start order — deterministic.
        let victims: Vec<usize> = self.running_at(site).collect();
        for idx in victims {
            self.interrupt_job(idx, ctx);
        }
        // Transfers whose far end was this site but whose owning job
        // survives elsewhere (staging from a replica here, restoring a
        // checkpoint from here) are cancelled and re-planned.
        self.repair_transfers_touching(NodeId::Site(site), ctx);
        // Bounced and killed jobs re-enter through the allocation policy,
        // which now sees the site as down.
        self.drain_pending(ctx);
        // With the cancellation pass done, the repair planner fills its free
        // slots from the freshly recorded deficits.
        self.pump_repairs(ctx);
    }

    /// Storage-media loss at a site that stays up: every byte held there —
    /// staged replicas and durable checkpoints — is gone, and
    /// in-flight transfers touching the dead storage are re-planned.
    fn apply_disk_loss(&mut self, site: SiteId, ctx: &mut Context<'_, GridEvent>) {
        self.collector.grid_counters.disk_losses += 1;
        self.wipe_storage_at(site, ctx.now().as_secs());
        self.repair_transfers_touching(NodeId::Site(site), ctx);
        self.pump_repairs(ctx);
    }

    /// Every byte stored at `site` is gone: durable checkpoints (counted and
    /// traced as lost) and catalog replicas (with repair enabled, the
    /// planner hears which datasets fell into deficit).
    fn wipe_storage_at(&mut self, site: SiteId, time_s: f64) {
        let node = NodeId::Site(site);
        let lost = self.invalidate_checkpoints_at(node);
        if lost > 0 {
            self.collector.grid_counters.checkpoints_lost += lost;
            self.trace(
                time_s,
                TraceCategory::Ckpt,
                SpanPhase::Instant,
                "ckpt.lost",
                None,
                Some(site),
                |_| Some(format!("count={lost}")),
            );
        }
        let affected = self.catalog.evict_node_reporting(node);
        if self.repair.enabled {
            self.note_repair_deficits(affected);
        }
    }

    /// Dense index of `node` into the per-node fault-repair indexes
    /// (`transfer_touch`, `ckpt_holders`): sites by id, then the main
    /// server.
    pub(super) fn node_index(&self, node: NodeId) -> usize {
        match node {
            NodeId::Site(site) => site.index(),
            NodeId::MainServer => self.sites.len(),
        }
    }

    /// Debug-only: the transfer-touch index must agree exactly with the
    /// scan over every owner's activity slots it replaced, and the slab
    /// holds exactly one slot per job on a running list.
    #[cfg(debug_assertions)]
    fn assert_touch_index_matches_scan(&self, node: NodeId) {
        let running: u64 = self.sites.iter().map(|s| s.running_jobs()).sum();
        debug_assert_eq!(self.running.live() as u64, running, "leaked run slots");
        let jobs = self.jobs.iter().enumerate().filter_map(|(idx, job)| {
            let run = self.running.get(job.slot)?;
            (self.touches_node(run.activity, node) || self.touches_node(run.ckpt_activity, node))
                .then_some(Owner::Job(idx))
        });
        let repairs = (0..self.repair.active.len()).filter_map(|slot| {
            self.touches_node(self.repair.in_flight(slot), node)
                .then_some(Owner::Repair(slot))
        });
        let scan: Vec<Owner> = jobs.chain(repairs).collect();
        debug_assert_eq!(
            self.transfer_touch[self.node_index(node)],
            scan,
            "transfer-touch index diverged from the scan at {node:?}"
        );
    }

    /// Cancels and re-plans every in-flight transfer with an endpoint at
    /// `node`, for owners that are still alive: input staging re-plans from
    /// the surviving replicas, a checkpoint restore falls back to the next
    /// surviving checkpoint (or a scratch rerun), a checkpoint write is
    /// dropped (a job waiting on it computes on and checkpoints again after
    /// the next segment), and a repair transfer is cancelled into backoff.
    /// Jobs *at* a dead site are killed separately by `take_site_down`; this
    /// pass is for the survivors — the regression class where a transfer
    /// kept streaming bytes out of storage that no longer existed. The
    /// victims come from the per-node transfer-touch index — O(transfers
    /// touching the node), not O(jobs) — and the snapshot is sorted: jobs in
    /// index order, then repair slots, so replay stays deterministic.
    fn repair_transfers_touching(&mut self, node: NodeId, ctx: &mut Context<'_, GridEvent>) {
        #[cfg(debug_assertions)]
        self.assert_touch_index_matches_scan(node);
        // Snapshot: each re-plan re-indexes its owner under the new
        // (surviving) endpoints while we iterate, and the completions it
        // routes may refill a repair slot — hence the re-check per victim.
        let victims = self.transfer_touch[self.node_index(node)].clone();
        for owner in victims {
            let idx = match owner {
                Owner::Repair(slot) => {
                    if self.touches_node(self.repair.in_flight(slot), node) {
                        self.cancel_repair_slot(slot, node, ctx);
                    }
                    continue;
                }
                Owner::Job(idx) => idx,
            };
            if self.touches_node(self.run(idx).ckpt_activity, node)
                && self.cancel_checkpoint_write(idx, ctx, "data loss")
            {
                let site = self.jobs[idx].site().expect("checkpointing job has a site");
                self.start_execution_segment(idx, site, ctx);
            }
            // The job's main transfer, if it has an end at the dead storage:
            // cancel it and re-plan through the normal admission funnel.
            let main = self.run(idx).activity;
            let Some(activity) = main.filter(|_| self.touches_node(main, node)) else {
                continue;
            };
            let cancelled = self.cancel_transfer(activity, ctx.now().as_secs(), Some("repair"));
            let site = self.jobs[idx].site().expect("transferring job has a site");
            match cancelled.phase {
                // `stage_input`, not `start_staging`: the attempt's start
                // time must survive the re-plan.
                Phase::Input => self.stage_input(idx, site, ctx),
                Phase::Restore => {
                    // The cancelled restore credited nothing.
                    self.run_mut(idx).restore_frac = 0.0;
                    self.begin_restore_or_segment(idx, site, ctx);
                }
                phase => unreachable!("a {phase:?} activity touches no node through the main slot"),
            }
        }
    }

    /// Partial node loss: reclaim `fraction` of the site's cores. Losses
    /// from overlapping processes stack (capped at the site's core count).
    fn apply_node_loss(&mut self, site: SiteId, fraction: f64, ctx: &mut Context<'_, GridEvent>) {
        let total = self.platform.site(site).total_cores;
        let lost = ((total as f64) * fraction.clamp(0.0, 1.0)).round() as u64;
        let lost = lost.min(total.saturating_sub(self.availability.cores_lost(site)));
        self.availability.node_loss_begin(site, lost);
        self.collector.grid_counters.node_losses += 1;
        let mut need = lost;
        loop {
            let available = self.sites[site.index()].available_cores;
            let take = need.min(available);
            self.sites[site.index()].available_cores -= take;
            self.mirror_site(site);
            need -= take;
            if need == 0 {
                break;
            }
            // Free cores cannot cover the loss: kill the most recently
            // started job (LIFO — deterministic) and reclaim its cores.
            let Some(victim) = self.last_running_at(site) else {
                break;
            };
            self.interrupt_job(victim, ctx);
        }
        self.update_cpu_capacity(site);
        // Capacity bookkeeping is consistent again; let survivors restart.
        self.after_release(site, ctx);
    }

    /// The most recent outstanding node loss at the site ends; its cores
    /// return to the free pool.
    fn apply_node_restore(&mut self, site: SiteId, ctx: &mut Context<'_, GridEvent>) {
        let restored = self.availability.node_loss_end(site);
        self.sites[site.index()].available_cores += restored;
        self.mirror_site(site);
        self.update_cpu_capacity(site);
        self.after_release(site, ctx);
    }

    /// Pushes the current availability-scaled bandwidth of `link` into the
    /// fluid model, re-rating every transfer crossing it.
    fn apply_link_capacity(&mut self, link: usize) {
        let base = self.platform.links()[link].bandwidth_bps.max(1.0);
        let factor = self.availability.link_factor(LinkId::new(link));
        self.fluid
            .set_capacity(self.link_resources[link], base * factor);
    }

    /// Pushes the current availability-scaled compute capacity of `site`
    /// into the fluid model (relevant for time-shared execution).
    fn update_cpu_capacity(&mut self, site: SiteId) {
        let usable = self
            .platform
            .site(site)
            .total_cores
            .saturating_sub(self.availability.cores_lost(site));
        let capacity = (usable as f64 * self.platform.effective_speed(site)).max(1.0);
        self.fluid
            .set_capacity(self.cpu_resources[site.index()], capacity);
    }

    /// Kills one job mid-flight: cancels its pending timer and fluid
    /// activity, releases its cores, accounts the discarded work, notifies
    /// the policy, and either resubmits it (fault-retry budget permitting)
    /// or fails it for good. The resubmitted attempt resumes from the job's
    /// newest surviving checkpoint, if any.
    pub(super) fn interrupt_job(&mut self, idx: usize, ctx: &mut Context<'_, GridEvent>) {
        let now = ctx.now();
        let site = self.jobs[idx].site().expect("interrupted job has a site");

        // Progress past the newest durable checkpoint is recomputation the
        // grid will have to pay for again (all of it, without checkpoints).
        let durable_frac = self
            .best_durable_checkpoint(idx)
            .map(|ck| ck.frac)
            .unwrap_or(0.0);
        let progress = self.attempt_progress_fraction(idx, now);
        let lost_frac = (progress - durable_frac).max(0.0);
        if lost_frac > 0.0 {
            let lost_s = lost_frac * self.nominal_walltime_at(idx, site);
            self.collector.grid_counters.work_lost_s += lost_s;
        }

        if let Some(key) = self.run_mut(idx).timer.take() {
            ctx.cancel(key);
            // A cancelled `ExecutionDone` timer means a dedicated-core
            // execution span is open; close it. (A pending pilot start has
            // no open span.)
            if self.jobs[idx].state == JobState::Running && self.run(idx).seg_walltime_s > 0.0 {
                self.trace_phase(
                    now.as_secs(),
                    idx,
                    Phase::Execute,
                    SpanPhase::End,
                    Some("interrupted"),
                );
            }
        }
        if let Some(activity) = self.run(idx).activity {
            self.cancel_transfer(activity, now.as_secs(), Some("interrupted"));
        }
        // An in-flight checkpoint write dies with the attempt (never
        // durable); the job is leaving the site, so a job waiting on it does
        // not restart a segment here. Its progress goes with the slot.
        self.cancel_checkpoint_write(idx, ctx, "interrupted");
        self.release_cores(idx, site);
        self.collector.record_interruption(site.index());
        self.trace(
            now.as_secs(),
            TraceCategory::Fault,
            SpanPhase::Instant,
            "fault.interrupt",
            Some(idx),
            Some(site),
            |_| None,
        );

        let resubmit = self.attempt(idx).fault_retries < self.execution.fault_max_retries;
        // A resubmission that will resume from a durable checkpoint: the
        // policy also hears where it lives so it can steer the job back to
        // the data (`Some(None)` = the main server holds it).
        let restore_from = (resubmit && self.execution.checkpoint.enabled())
            .then(|| self.best_durable_checkpoint(idx))
            .flatten()
            .map(|ck| match ck.node {
                NodeId::Site(s) => Some(s),
                NodeId::MainServer => None,
            });
        self.consult_policy(now, idx, |policy, job, view| {
            policy.on_job_interrupted(job, site, view);
            if let Some(checkpoint_site) = restore_from {
                policy.on_job_restored(job, checkpoint_site, view);
            }
        });

        if resubmit {
            self.attempt_mut(idx).fault_retries += 1;
            self.collector.grid_counters.fault_retries += 1;
            self.jobs[idx].set_site(None);
            self.jobs[idx].state = JobState::Pending;
            self.record(now, idx, JobState::Pending);
            self.pending.push_back(idx as u32);
        } else {
            // Retry budget exhausted. Terminal bookkeeping only — the caller
            // re-dispatches once its own capacity bookkeeping is consistent.
            self.finalize_no_restart(idx, JobState::Failed, ctx);
        }
    }
}
