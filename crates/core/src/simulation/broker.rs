//! The main server's *sender* actor: policy-driven site selection, the
//! pending list, and the per-site FIFO queue with its pilot/queue-time model.

use std::collections::VecDeque;

use cgsim_data::DatasetId;
use cgsim_des::{Context, SimTime};
use cgsim_obs::{SpanPhase, Subsystem, TraceCategory};
use cgsim_platform::{NodeId, SiteId};
use cgsim_policies::{AllocationPolicy, GridView, SiteLoad};
use cgsim_workload::{JobRecord, JobState};

use super::events::GridEvent;
use super::job_runtime::NO_SLOT;
use super::GridModel;

/// "No job" link of the intrusive running lists.
pub(super) const NO_JOB: u32 = u32::MAX;

/// Mutable per-site simulation state (the receiver actor). Whoever changes
/// it calls [`GridModel::mirror_site`] before returning, which keeps the
/// policy-facing [`GridView`] current — see [`GridModel::consult_policy`].
#[derive(Debug, Clone)]
pub(super) struct SiteState {
    pub(super) available_cores: u64,
    /// Jobs (trace indices) waiting for cores, in arrival order.
    pub(super) queue: VecDeque<u32>,
    /// Jobs holding cores, oldest start first: a doubly linked list threaded
    /// through `RunState::{run_prev, run_next}`, so a release unlinks in
    /// O(1) while outages still kill in start order and node loss still
    /// takes the most recent start.
    running_head: u32,
    running_tail: u32,
    running_len: u64,
}

impl SiteState {
    /// An idle site with `cores` free cores.
    pub(super) fn new(cores: u64) -> Self {
        SiteState {
            available_cores: cores,
            queue: VecDeque::new(),
            running_head: NO_JOB,
            running_tail: NO_JOB,
            running_len: 0,
        }
    }

    /// Number of jobs holding cores at the site.
    pub(super) fn running_jobs(&self) -> u64 {
        self.running_len
    }
}

impl GridModel {
    /// Mirrors `site`'s [`SiteState`] and availability into the policy-facing
    /// view: the one writer of those four fields.
    pub(super) fn mirror_site(&mut self, site: SiteId) {
        let state = &self.sites[site.index()];
        let load = &mut self.view.sites[site.index()];
        load.available_cores = state.available_cores;
        load.queued_jobs = state.queue.len() as u64;
        load.running_jobs = state.running_len;
        load.up = self.availability.site_up(site);
    }

    /// Moves the queue front `idx` onto the running list, reserving its
    /// `cores` and a running-state slot — and, at its first tenure of cores,
    /// the attempt record it keeps until it is terminal.
    pub(super) fn admit_front(&mut self, site: SiteId, idx: usize, cores: u64) {
        let state = &mut self.sites[site.index()];
        state.queue.pop_front();
        state.available_cores -= cores;
        let tail = std::mem::replace(&mut state.running_tail, idx as u32);
        match tail {
            NO_JOB => state.running_head = idx as u32,
            tail => self.run_mut(tail as usize).run_next = idx as u32,
        }
        self.sites[site.index()].running_len += 1;
        self.jobs[idx].slot = self.running.take();
        if self.jobs[idx].attempt == NO_SLOT {
            self.jobs[idx].attempt = self.attempts.take();
        }
        self.run_mut(idx).run_prev = tail;
        self.mirror_site(site);
    }

    /// Returns a job's cores to its site. Idempotent: a job that does not
    /// currently hold cores (already released, or interrupted before its
    /// queue pop) is a no-op, so the fault-injection paths and the normal
    /// lifecycle cannot double-release.
    pub(super) fn release_cores(&mut self, idx: usize, site: SiteId) {
        let slot = std::mem::replace(&mut self.jobs[idx].slot, NO_SLOT);
        let Some(run) = self.running.get(slot) else {
            return;
        };
        let (prev, next) = (run.run_prev, run.run_next);
        self.running.release(slot);
        let state = &mut self.sites[site.index()];
        state.available_cores += self.trace.jobs[idx].cores as u64;
        state.running_len -= 1;
        match prev {
            NO_JOB => state.running_head = next,
            prev => self.run_mut(prev as usize).run_next = next,
        }
        match next {
            NO_JOB => self.sites[site.index()].running_tail = prev,
            next => self.run_mut(next as usize).run_prev = prev,
        }
        self.mirror_site(site);
    }

    /// Jobs holding cores at `site`, oldest start first.
    pub(super) fn running_at(&self, site: SiteId) -> impl Iterator<Item = usize> + '_ {
        let mut cursor = self.sites[site.index()].running_head;
        std::iter::from_fn(move || {
            (cursor != NO_JOB).then(|| {
                let idx = cursor as usize;
                cursor = self.run(idx).run_next;
                idx
            })
        })
    }

    /// The most recently started job still holding cores at `site`.
    pub(super) fn last_running_at(&self, site: SiteId) -> Option<usize> {
        let tail = self.sites[site.index()].running_tail;
        (tail != NO_JOB).then_some(tail as usize)
    }

    /// Sets (or clears) `has_input_replica` at every site holding a replica
    /// of `dataset`: O(holders), no per-site probe. The catalog is the run's
    /// one record of which site holds which dataset.
    fn flag_input_replicas(&mut self, dataset: DatasetId, flag: bool) {
        for node in self.catalog.replicas(dataset) {
            if let NodeId::Site(site) = node {
                self.view.sites[site.index()].has_input_replica = flag;
            }
        }
    }

    /// The single funnel through which the allocation policy sees the grid:
    /// lends it job `idx`'s record and the model's persistent [`GridView`].
    ///
    /// The view is not rebuilt per call. **Maintenance contract** — who
    /// writes which field:
    ///
    /// | field | mirrors | written by |
    /// |---|---|---|
    /// | `available_cores`, `queued_jobs`, `running_jobs`, `up` | [`SiteState`], `GridAvailability::site_up` | [`mirror_site`](Self::mirror_site), called by whoever changed them |
    /// | `finished_jobs` | the collector's per-site counter | `record`, on a `Finished` transition |
    /// | `active_repairs` | in-flight repairs into the site (the view holds the only counter) | `admit_repair` / `retire_repair_slot` |
    /// | `now_s`, `pending_jobs`, `has_input_replica` | the call itself | stamped here; the replica flags are cleared again after the call |
    ///
    /// so a call costs O(replica holders) plus the policy's own work, with
    /// no allocation. Debug builds rebuild the view from scratch
    /// ([`reference_view`](Self::reference_view)) and compare at every call.
    pub(super) fn consult_policy<R>(
        &mut self,
        now: SimTime,
        idx: usize,
        ask: impl FnOnce(&mut dyn AllocationPolicy, &JobRecord, &GridView) -> R,
    ) -> R {
        let timer = self.profiler.start();
        let dataset = self.task_dataset(idx);
        self.view.now_s = now.as_secs();
        self.view.pending_jobs = self.pending.len() as u64;
        self.flag_input_replicas(dataset, true);
        #[cfg(debug_assertions)]
        assert_eq!(
            self.view,
            self.reference_view(self.view.now_s, Some(dataset)),
            "maintained grid view diverged from the from-scratch rebuild"
        );
        let answer = ask(self.policy.as_mut(), &self.trace.jobs[idx], &self.view);
        self.flag_input_replicas(dataset, false);
        self.profiler.stop(Subsystem::Broker, timer);
        answer
    }

    /// The view built from scratch out of the state it mirrors — what every
    /// policy call used to cost. Builds the initial view; after that it is
    /// only the reference twin of the maintained one (debug builds, tests).
    pub(super) fn reference_view(&self, now_s: f64, dataset: Option<DatasetId>) -> GridView {
        let sites = self
            .platform
            .sites()
            .iter()
            .map(|s| {
                let state = &self.sites[s.id.index()];
                let node = NodeId::Site(s.id);
                SiteLoad {
                    site: s.id,
                    available_cores: state.available_cores,
                    queued_jobs: state.queue.len() as u64,
                    running_jobs: state.running_len,
                    finished_jobs: self.collector.site_counters(s.id.index()).finished,
                    has_input_replica: dataset.is_some_and(|d| self.catalog.has_replica(d, node)),
                    up: self.availability.site_up(s.id),
                    active_repairs: self
                        .repair
                        .active
                        .iter()
                        .flatten()
                        .filter(|t| t.dest == s.id)
                        .count() as u64,
                }
            })
            .collect();
        GridView {
            now_s,
            sites,
            pending_jobs: self.pending.len() as u64,
        }
    }

    /// Asks the allocation policy for a site; dispatches or parks the job.
    pub(super) fn dispatch(&mut self, idx: usize, ctx: &mut Context<'_, GridEvent>) {
        let now = ctx.now();
        let decision =
            self.consult_policy(now, idx, |policy, job, view| policy.assign_job(job, view));
        match decision {
            Some(site) if site.index() < self.sites.len() && self.availability.site_up(site) => {
                self.trace(
                    now.as_secs(),
                    TraceCategory::Broker,
                    SpanPhase::Instant,
                    "broker.dispatch",
                    Some(idx),
                    Some(site),
                    |_| None,
                );
                self.jobs[idx].set_site(Some(site));
                self.jobs[idx].state = JobState::Assigned;
                let (available, queued) = self.record(now, idx, JobState::Assigned);
                let job = &mut self.jobs[idx];
                job.available_cores_at_assign =
                    u32::try_from(available).expect("`build` refuses sites past u32 cores");
                job.queue_at_assign =
                    u32::try_from(queued).expect("a site queues fewer jobs than the trace holds");
                self.sites[site.index()].queue.push_back(idx as u32);
                self.mirror_site(site);
                self.try_start_site(site, ctx);
            }
            decision => {
                // An out-of-range site is a policy bug, not congestion: count
                // it in the grid-level monitoring counters (and warn once) so
                // a buggy plugin cannot masquerade as an overloaded grid. A
                // *down* site is legitimate congestion (the policy may not be
                // availability-aware): the job is parked silently and the
                // pending list drains when the site recovers. Either way the
                // job is parked like any undispatchable job.
                if let Some(bad) = decision {
                    if bad.index() >= self.sites.len() {
                        self.collector.grid_counters.invalid_policy_decisions += 1;
                        if !self.warned_invalid_policy {
                            self.warned_invalid_policy = true;
                            eprintln!(
                                "warning: allocation policy '{}' returned out-of-range {bad} \
                                 (platform has {} sites); parking the job — see the monitor's \
                                 invalid_policy_decisions counter",
                                self.policy.name(),
                                self.sites.len()
                            );
                        }
                    }
                }
                self.trace(
                    now.as_secs(),
                    TraceCategory::Broker,
                    SpanPhase::Instant,
                    "broker.park",
                    Some(idx),
                    None,
                    |_| Some("no dispatchable site".to_string()),
                );
                self.jobs[idx].set_site(None);
                self.jobs[idx].state = JobState::Pending;
                self.record(now, idx, JobState::Pending);
                self.pending.push_back(idx as u32);
            }
        }
    }

    /// Re-examines the pending list (called whenever resources free up).
    pub(super) fn drain_pending(&mut self, ctx: &mut Context<'_, GridEvent>) {
        if self.pending.is_empty() {
            return;
        }
        // Swap the list against the (empty) scratch deque instead of
        // collecting it. `dispatch` can re-enter this function through a
        // fluid completion; the inner call then finds the scratch slot empty
        // and falls back to a fresh deque.
        let spare = std::mem::take(&mut self.pending_scratch);
        let mut waiting = std::mem::replace(&mut self.pending, spare);
        while let Some(idx) = waiting.pop_front() {
            self.dispatch(idx as usize, ctx);
        }
        self.pending_scratch = waiting;
    }

    /// Starts queued jobs at `site` while cores are available (FIFO). Each
    /// picked job first pays the site's scheduling/pilot overhead (the
    /// queue-time model of §4.2) with its cores already reserved, then begins
    /// staging its input.
    pub(super) fn try_start_site(&mut self, site: SiteId, ctx: &mut Context<'_, GridEvent>) {
        if !self.availability.site_up(site) {
            return;
        }
        while let Some(&job) = self.sites[site.index()].queue.front() {
            let front = job as usize;
            let needed = self.trace.jobs[front].cores as u64;
            if self.sites[site.index()].available_cores < needed {
                break;
            }
            self.admit_front(site, front, needed);

            // Busy fraction over the cores the site *currently* has (total
            // minus partial node losses).
            let total_cores = self
                .platform
                .site(site)
                .total_cores
                .saturating_sub(self.availability.cores_lost(site))
                .max(1);
            let busy_fraction =
                1.0 - self.sites[site.index()].available_cores as f64 / total_cores as f64;
            let delay = self
                .execution
                .queue_model
                .dispatch_delay(self.sites[site.index()].queue.len() as u64, busy_fraction);
            if delay > 0.0 {
                let key = ctx.schedule_in(SimTime::from_secs(delay), GridEvent::PilotStart(job));
                self.run_mut(front).timer = Some(key);
            } else {
                self.start_staging(front, site, ctx);
            }
        }
    }

    /// Called after any resource release: start queued work and reconsider
    /// the pending list (paper §3.2).
    pub(super) fn after_release(&mut self, site: SiteId, ctx: &mut Context<'_, GridEvent>) {
        self.try_start_site(site, ctx);
        self.drain_pending(ctx);
    }
}
