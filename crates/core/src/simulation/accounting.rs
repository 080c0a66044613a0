//! Monitoring transitions, terminal outcomes and dashboard panels: the glue
//! between the simulation core and the `cgsim-monitor` output layer.

use cgsim_des::{Context, SimTime};
use cgsim_monitor::dashboard::SitePanel;
use cgsim_monitor::{OutcomeRow, TraceIndex};
use cgsim_obs::{SpanPhase, TraceCategory};
use cgsim_platform::SiteId;
use cgsim_workload::JobState;

use super::events::GridEvent;
use super::job_runtime::NO_SLOT;
use super::GridModel;

impl GridModel {
    /// Reports a job state transition to the monitoring collector and the
    /// tracer. Returns the site state the event row records: the cores free
    /// at the job's site and the jobs queued there (at the main server for a
    /// job at no site, with 0 cores).
    pub(super) fn record(&mut self, now: SimTime, idx: usize, state: JobState) -> (u32, u32) {
        let site = self.jobs[idx].site();
        let (avail, queued) = match site {
            Some(site) => (
                self.sites[site.index()].available_cores,
                self.sites[site.index()].queue.len(),
            ),
            None => (0, self.pending.len()),
        };
        // invariant: `build` refuses site core pools past `u32::MAX`, and a
        // queue holds fewer jobs than the trace, which a run refuses past
        // `u32::MAX` jobs.
        let avail = u32::try_from(avail).expect("`build` refuses sites past u32 cores");
        let queued = u32::try_from(queued).expect("a queue holds fewer jobs than the trace");
        let site_index = site.map(SiteId::index);
        let job = TraceIndex(idx as u32);
        self.collector
            .record_transition(now.as_secs(), job, state, site_index, avail, queued);
        if let (JobState::Finished, Some(s)) = (state, site_index) {
            self.view.sites[s].finished_jobs = self.collector.site_counters(s).finished;
        }
        self.trace(
            now.as_secs(),
            TraceCategory::Job,
            SpanPhase::Instant,
            state.trace_kind(),
            Some(idx),
            site,
            |_| None,
        );
        (avail, queued)
    }

    /// Records the terminal state, outcome, and frees resources, then lets
    /// the site pick up queued work.
    pub(super) fn finalize(
        &mut self,
        idx: usize,
        state: JobState,
        ctx: &mut Context<'_, GridEvent>,
    ) {
        let site = self.finalize_no_restart(idx, state, ctx);
        self.after_release(site, ctx);
    }

    /// The restart-free part of [`finalize`]: terminal bookkeeping without
    /// the `after_release` re-dispatch. The fault-injection paths use this
    /// directly so a kill performed while site capacity is being rewritten
    /// cannot immediately resurrect queued work on stale numbers; callers
    /// run `after_release`/`drain_pending` once their bookkeeping is
    /// consistent. Returns the site the job was at.
    pub(super) fn finalize_no_restart(
        &mut self,
        idx: usize,
        state: JobState,
        ctx: &mut Context<'_, GridEvent>,
    ) -> SiteId {
        let now = ctx.now();
        let site = self.jobs[idx].site().expect("terminal job has a site");
        self.release_cores(idx, site);
        // Terminal jobs no longer need their durable checkpoints: free the
        // storage bytes and drop the catalog replicas.
        self.discard_checkpoints(idx);
        self.jobs[idx].state = state;
        self.record(now, idx, state);

        let attempt = std::mem::replace(&mut self.jobs[idx].attempt, NO_SLOT);
        let (start_time, staged_bytes) = {
            let attempt = self
                .attempts
                .get(attempt)
                .expect("a terminal job has held cores");
            (attempt.start_time, attempt.staged_bytes)
        };
        self.attempts.release(attempt);
        // The job's own columns stay in its trace record; the outcome table
        // joins them (and derives walltime and queue time) when read.
        self.collector.record_outcome(OutcomeRow {
            job: idx as u32,
            site: u16::try_from(site.index()).expect("`build` refuses platforms past u16 sites"),
            final_state: state,
            available_cores_at_assign: self.jobs[idx].available_cores_at_assign,
            queue_at_assign: self.jobs[idx].queue_at_assign,
            start_time,
            end_time: now.as_secs(),
            staged_bytes,
        });

        self.consult_policy(now, idx, |policy, job, view| {
            policy.on_job_completed(job, site, view)
        });

        // Once the whole workload is terminal, stop the fault-event chain so
        // an attached fault plan cannot keep the engine (and the makespan)
        // alive past the last job.
        self.completed_jobs += 1;
        if self.completed_jobs == self.jobs.len() {
            debug_assert_eq!(self.running.live(), 0, "a terminal job kept its slot");
            debug_assert_eq!(self.attempts.live(), 0, "a terminal job kept its attempt");
            if let Some(key) = self.fault_key.take() {
                ctx.cancel(key);
            }
            // Same contract for the repair planner: in-flight repairs and
            // backoff timers must not outlive the workload.
            self.shutdown_repairs(ctx);
        }
        site
    }

    /// Builds the final per-site dashboard panels.
    pub(super) fn site_panels(&self) -> Vec<SitePanel> {
        self.platform
            .sites()
            .iter()
            .map(|s| {
                let state = &self.sites[s.id.index()];
                let counters = self.collector.site_counters(s.id.index());
                SitePanel {
                    site: s.name.clone(),
                    total_cores: s.total_cores,
                    busy_cores: s
                        .total_cores
                        .saturating_sub(state.available_cores)
                        .saturating_sub(self.availability.cores_lost(s.id)),
                    queued_jobs: state.queue.len() as u64,
                    running_jobs: state.running_jobs(),
                    finished_jobs: counters.finished,
                    interrupted_jobs: counters.interrupted,
                    checkpoints: counters.checkpoints,
                    repairs: counters.repairs,
                    up: self.availability.site_up(s.id),
                    running_sample: self
                        .running_at(s.id)
                        .take(10)
                        .map(|j| (self.trace.jobs[j].id.0, self.trace.jobs[j].cores))
                        .collect(),
                }
            })
            .collect()
    }
}
