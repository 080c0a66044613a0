//! Segmented execution, checkpoint/restart, and recovery of fault-interrupted
//! jobs from their newest surviving checkpoint.
//!
//! **A run is one or more segments.** Every execution attempt enters through
//! [`GridModel::begin_restore_or_segment`] and advances segment by segment
//! through [`GridModel::start_execution_segment`] — dedicated cores as an
//! engine timer, time-shared as a fluid activity on the site's CPU pool. With
//! a non-zero [`CheckpointConfig::interval_s`](crate::config::CheckpointConfig)
//! a segment covers `interval_s` completed-work seconds; with checkpointing
//! off the interval is infinite and the single segment is the whole run,
//! bit-for-bit what scheduling it in one piece would give.
//!
//! **A write is a side-slot transfer the job may wait on.** At a segment
//! boundary the job's state — sized by the config's byte model — starts
//! moving as a *real fluid transfer* to the configured storage target (the
//! site's own storage element over the site LAN, or the main server over the
//! WAN, contending with staging traffic either way), held in the job's
//! `ckpt_activity` slot beside its main activity. `checkpoint.overlap`
//! decides only *when the job waits*: a synchronous job waits on the write
//! at once and runs its next segment when it lands; an overlapping job runs
//! the next segment concurrently and waits (a counted stall) only if the
//! write is still in flight at the following boundary. Start, completion and
//! cancellation are one code path for both. Only a completed write is
//! durable: it registers the checkpoint as a dataset replica in the
//! [`ReplicaCatalog`](cgsim_data::ReplicaCatalog) at the target node and
//! reserves its bytes in the target's
//! [`StorageElement`](cgsim_data::StorageElement).
//!
//! When fault injection kills the job, the resubmitted attempt resumes from
//! the newest checkpoint whose replica still exists — site outages and disk
//! losses evict replicas, so a checkpoint stored at a dead site is simply
//! gone and recovery falls back to an older checkpoint at another node, or
//! to a scratch rerun. Resuming at a site that does not hold the checkpoint
//! re-stages the checkpoint bytes through the fluid model first.
//!
//! Everything here is a pure function of the simulation state: no RNG is
//! drawn, so checkpointed runs are exactly as reproducible as plain ones.

use cgsim_data::DatasetId;
use cgsim_des::{Context, SimTime};
use cgsim_obs::{SpanPhase, Subsystem, TraceCategory};
use cgsim_platform::{NodeId, SiteId};
use cgsim_workload::ideal_walltime;

use super::events::GridEvent;
use super::job_runtime::Phase;
use super::staging::{Owner, Path};
use super::GridModel;
use crate::config::{CheckpointTarget, ComputeMode};

/// One durable checkpoint of a job: how much of the job it covers and where
/// its bytes live. A job holds at most one checkpoint per storage node (a
/// newer write at the same node supersedes the older one in place).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(super) struct JobCheckpoint {
    /// Fraction of the job's total work completed at checkpoint time.
    pub(super) frac: f64,
    /// Storage node holding the checkpoint bytes.
    pub(super) node: NodeId,
    /// Catalog dataset backing the checkpoint (replica at `node` while the
    /// checkpoint is alive).
    pub(super) dataset: DatasetId,
    /// Checkpoint size in bytes.
    pub(super) bytes: u64,
}

impl GridModel {
    /// The nominal (contention-free) walltime of job `idx` at `site`, used
    /// to convert between progress fractions and execution seconds.
    pub(super) fn nominal_walltime_at(&self, idx: usize, site: SiteId) -> f64 {
        let record = &self.trace.jobs[idx];
        ideal_walltime(
            record.work_hs23,
            record.cores,
            self.platform.effective_speed(site),
        )
    }

    /// The newest surviving checkpoint of job `idx`: the highest-coverage
    /// stack entry whose replica still exists in the catalog (outages and
    /// disk losses evict replicas and eagerly drop stack entries, so the
    /// replica re-check is a cheap safety net, not the primary mechanism).
    pub(super) fn best_durable_checkpoint(&self, idx: usize) -> Option<JobCheckpoint> {
        self.attempt(idx)
            .checkpoints
            .iter()
            .filter(|ck| self.catalog.has_replica(ck.dataset, ck.node))
            .copied()
            .fold(None, |best: Option<JobCheckpoint>, ck| match best {
                Some(b) if b.frac >= ck.frac => Some(b),
                _ => Some(ck),
            })
    }

    /// Entry point of every execution attempt (cores held, input staged):
    /// restore from the best surviving checkpoint — re-staging its bytes when
    /// they live at another endpoint — or start from scratch (always, when
    /// the job has never checkpointed). The slot's progress is still zero.
    pub(super) fn begin_restore_or_segment(
        &mut self,
        idx: usize,
        site: SiteId,
        ctx: &mut Context<'_, GridEvent>,
    ) {
        match self.best_durable_checkpoint(idx) {
            Some(ck) if ck.node == NodeId::Site(site) => {
                // The resume site already holds the checkpoint: restore is a
                // local read, free at this model's resolution.
                self.run_mut(idx).frac_done = ck.frac;
                let saved = ck.frac * self.nominal_walltime_at(idx, site);
                self.collector.record_checkpoint_restore(saved);
                self.trace(
                    ctx.now().as_secs(),
                    TraceCategory::Ckpt,
                    SpanPhase::Instant,
                    "ckpt.restore",
                    Some(idx),
                    Some(site),
                    |_| Some(format!("local frac={:.4}", ck.frac)),
                );
                self.start_execution_segment(idx, site, ctx);
            }
            Some(ck) => {
                // Remote checkpoint: re-stage its bytes through the fluid
                // model before execution continues. Durability is credited
                // only when the transfer lands (`finish_restore`).
                self.run_mut(idx).restore_frac = ck.frac;
                self.attempt_mut(idx).staged_bytes += ck.bytes;
                self.admit_transfer(
                    Owner::Job(idx),
                    Phase::Restore,
                    ck.bytes as f64,
                    Path::Net(ck.node, NodeId::Site(site)),
                    ctx,
                );
            }
            None => self.start_execution_segment(idx, site, ctx),
        }
    }

    /// A checkpoint-restore transfer landed: credit the restored progress
    /// and continue executing from it.
    pub(super) fn finish_restore(&mut self, idx: usize, ctx: &mut Context<'_, GridEvent>) {
        let site = self.jobs[idx].site().expect("restoring job has a site");
        let run = self.run_mut(idx);
        let frac = std::mem::take(&mut run.restore_frac);
        run.frac_done = frac;
        let saved = frac * self.nominal_walltime_at(idx, site);
        self.collector.record_checkpoint_restore(saved);
        self.start_execution_segment(idx, site, ctx);
    }

    /// Schedules the next execution segment: `interval_s` completed-work
    /// seconds, or whatever remains if that is less. Without checkpointing
    /// the interval is infinite, so the one segment is the whole remaining
    /// run — `total * (1.0 - 0.0)` is exact, hence bit-equal to scheduling
    /// the run in one piece.
    pub(super) fn start_execution_segment(
        &mut self,
        idx: usize,
        site: SiteId,
        ctx: &mut Context<'_, GridEvent>,
    ) {
        let now = ctx.now();
        let interval = if self.execution.checkpoint.enabled() {
            self.execution.checkpoint.interval_s
        } else {
            f64::INFINITY
        };
        let total_w = self.nominal_walltime_at(idx, site);
        let frac_done = self.run(idx).frac_done;
        let remaining_w = total_w * (1.0 - frac_done);
        // Degenerate zero-work jobs (a trace is free to contain them) get a
        // single final segment: guard the interval/total_w ratio so the
        // time-shared arm cannot compute `0 * inf = NaN` and poison the
        // fluid model.
        let interval_frac = if total_w > 0.0 {
            interval / total_w
        } else {
            1.0
        };
        match self.execution.compute_mode {
            ComputeMode::DedicatedCores => {
                let (seg_w, seg_frac) = if remaining_w <= interval {
                    (remaining_w, 1.0 - frac_done)
                } else {
                    (interval, interval_frac)
                };
                let done = GridEvent::ExecutionDone(idx as u32);
                let key = ctx.schedule_in(SimTime::from_secs(seg_w), done);
                let run = self.run_mut(idx);
                run.seg_fraction = seg_frac;
                run.seg_started_s = now.as_secs();
                run.seg_walltime_s = seg_w;
                run.timer = Some(key);
                self.trace_phase(now.as_secs(), idx, Phase::Execute, SpanPhase::Begin, None);
            }
            ComputeMode::TimeShared => {
                let record = &self.trace.jobs[idx];
                let cores = record.cores;
                let weight = cores as f64;
                let total_amount = record.work_hs23 / cgsim_workload::parallel_efficiency(cores);
                let remaining_amount = total_amount * (1.0 - frac_done);
                let interval_amount = total_amount * interval_frac;
                let (seg_amount, seg_frac) = if remaining_amount <= interval_amount {
                    (remaining_amount, 1.0 - frac_done)
                } else {
                    (interval_amount, interval_frac)
                };
                let run = self.run_mut(idx);
                run.seg_fraction = seg_frac;
                run.seg_started_s = now.as_secs();
                run.seg_amount = seg_amount;
                self.admit_transfer(
                    Owner::Job(idx),
                    Phase::Execute,
                    seg_amount,
                    Path::Cpu(site, weight),
                    ctx,
                );
            }
        }
    }

    /// Bytes the *wire* has to carry to make the next checkpoint of job
    /// `idx` durable at `target`: the full image by default, or just the
    /// delta accrued since the target's previous checkpoint of this job when
    /// incremental shipping (`delta_bytes_per_s`) is configured and a base
    /// image survives there. The storage reservation is always the full
    /// image — the durable artifact is self-contained either way.
    fn checkpoint_transfer_bytes(&self, idx: usize, site: SiteId, target: NodeId) -> u64 {
        let (frac_done, cores) = (self.run(idx).frac_done, self.trace.jobs[idx].cores);
        let base = self
            .attempt(idx)
            .checkpoints
            .iter()
            .find(|ck| ck.node == target && self.catalog.has_replica(ck.dataset, ck.node));
        let progress_s = base
            .map(|ck| (frac_done - ck.frac).max(0.0) * self.nominal_walltime_at(idx, site))
            .unwrap_or(0.0);
        self.execution
            .checkpoint
            .transfer_bytes_for(cores, progress_s, base.is_some())
    }

    /// At a segment boundary with no write in flight: checkpoint the progress
    /// so far and run the next segment — after the write when writes are
    /// synchronous (the job waits on it from the start), concurrently with it
    /// under `checkpoint.overlap`. A write that was not admitted never holds
    /// the job up.
    pub(super) fn checkpoint_and_continue(
        &mut self,
        idx: usize,
        site: SiteId,
        ctx: &mut Context<'_, GridEvent>,
    ) {
        let admitted = self.start_checkpoint_write(idx, site, ctx);
        if admitted && !self.execution.checkpoint.overlap {
            return;
        }
        self.start_execution_segment(idx, site, ctx);
        if admitted {
            self.collector.grid_counters.ckpt_overlapped += 1;
        }
    }

    /// Starts the durable write of a checkpoint covering the job's progress
    /// so far: a fluid transfer to the configured storage target, held in the
    /// job's `ckpt_activity` side slot. Captures the current progress
    /// fraction — that snapshot, not the progress at completion time, is what
    /// becomes durable — and, when writes are synchronous, marks the job as
    /// waiting on the write. Returns whether the write was admitted: a full
    /// site storage element skips it (the job keeps computing and tries again
    /// after the next segment; the element records the rejection).
    fn start_checkpoint_write(
        &mut self,
        idx: usize,
        site: SiteId,
        ctx: &mut Context<'_, GridEvent>,
    ) -> bool {
        debug_assert!(self.run(idx).ckpt_activity.is_none());
        let timer = self.profiler.start();
        let bytes = self
            .execution
            .checkpoint
            .bytes_for(self.trace.jobs[idx].cores);
        let node = match self.execution.checkpoint.target {
            // The new copy is written before the superseded one is deleted,
            // so both are briefly reserved.
            CheckpointTarget::SiteStorage if !self.storage[site.index()].reserve(bytes) => {
                self.profiler.stop(Subsystem::Checkpoint, timer);
                return false;
            }
            CheckpointTarget::SiteStorage => NodeId::Site(site),
            CheckpointTarget::MainServer => NodeId::MainServer,
        };
        let xfer = self.checkpoint_transfer_bytes(idx, site, node);
        self.collector.grid_counters.ckpt_bytes_shipped += xfer;
        let stalled = !self.execution.checkpoint.overlap;
        let run = self.run_mut(idx);
        run.ckpt_frac = run.frac_done;
        run.ckpt_stalled = stalled;
        self.profiler.stop(Subsystem::Checkpoint, timer);
        self.admit_transfer(
            Owner::Job(idx),
            Phase::CkptWrite,
            xfer as f64,
            Path::Net(NodeId::Site(site), node),
            ctx,
        );
        true
    }

    /// Registers a completed checkpoint write as durable: catalog replica +
    /// stack entry, superseding any older checkpoint of this job at the same
    /// node.
    fn make_checkpoint_durable(
        &mut self,
        idx: usize,
        site: SiteId,
        node: NodeId,
        frac: f64,
        ctx: &mut Context<'_, GridEvent>,
    ) {
        let bytes = self
            .execution
            .checkpoint
            .bytes_for(self.trace.jobs[idx].cores);
        // Field-disjoint from `self.catalog`, which the branches also write.
        let attempt = self.attempts.get_mut(self.jobs[idx].attempt);
        let stack = &mut attempt.expect("the job has held cores").checkpoints;
        if let Some(entry) = stack.iter_mut().find(|c| c.node == node) {
            // Superseded in place, under the dataset the first write at
            // `node` registered (`register` by the same name would return
            // exactly that id): the old copy's bytes are freed now that the
            // new one is durable.
            let old_bytes = entry.bytes;
            entry.frac = frac;
            entry.bytes = bytes;
            self.catalog.add_replica(entry.dataset, node);
            self.release_checkpoint_storage(node, old_bytes);
        } else {
            let name = format!("ckpt-job-{idx}@{node}");
            let dataset = self.catalog.register(name, 1, bytes, node);
            self.attempt_mut(idx).checkpoints.push(JobCheckpoint {
                frac,
                node,
                dataset,
                bytes,
            });
            // First checkpoint of this job at `node`: register it in the
            // per-node holder index (supersedes-in-place keeps membership).
            let ni = self.node_index(node);
            let holders = &mut self.ckpt_holders[ni];
            if let Err(pos) = holders.binary_search(&idx) {
                holders.insert(pos, idx);
            }
        }
        self.collector
            .record_checkpoint_written(site.index(), bytes);
        self.trace(
            ctx.now().as_secs(),
            TraceCategory::Ckpt,
            SpanPhase::Instant,
            "ckpt.durable",
            Some(idx),
            Some(site),
            |_| Some(format!("frac={frac:.4} bytes={bytes} node={node}")),
        );
    }

    /// A checkpoint write to `node` drained: the snapshot it carried becomes
    /// durable, and a job waiting on it runs its next segment — after first
    /// starting a write of the freshly accumulated state when writes overlap
    /// (a synchronous job has nothing new to write: it was waiting).
    pub(super) fn finish_checkpoint_write(
        &mut self,
        idx: usize,
        node: NodeId,
        ctx: &mut Context<'_, GridEvent>,
    ) {
        let timer = self.profiler.start();
        let site = self.jobs[idx].site().expect("checkpointing job has a site");
        let frac = self.run(idx).ckpt_frac;
        self.make_checkpoint_durable(idx, site, node, frac, ctx);
        self.profiler.stop(Subsystem::Checkpoint, timer);
        if std::mem::take(&mut self.run_mut(idx).ckpt_stalled) {
            if self.execution.checkpoint.overlap {
                self.checkpoint_and_continue(idx, site, ctx);
            } else {
                self.start_execution_segment(idx, site, ctx);
            }
        }
    }

    /// Tears down the job's in-flight checkpoint write, if any (job
    /// interrupted, its target lost its data, or the job finished first):
    /// the transfer leaves the fluid model and the reservation is returned —
    /// nothing becomes durable. Returns whether the job was waiting on this
    /// write (the caller then owns restarting its execution segment, unless
    /// the job is leaving the site anyway).
    pub(super) fn cancel_checkpoint_write(
        &mut self,
        idx: usize,
        ctx: &mut Context<'_, GridEvent>,
        info: &str,
    ) -> bool {
        let Some(activity) = self.run(idx).ckpt_activity else {
            return false;
        };
        let write = self.cancel_transfer(activity, ctx.now().as_secs(), Some(info));
        let node = write.touches[0].expect("a checkpoint write touches its target");
        let bytes = self
            .execution
            .checkpoint
            .bytes_for(self.trace.jobs[idx].cores);
        self.release_checkpoint_storage(node, bytes);
        std::mem::take(&mut self.run_mut(idx).ckpt_stalled)
    }

    /// Releases a checkpoint's byte reservation at its storage node. The
    /// main server's storage is modelled as unbounded, so only site elements
    /// keep accounts.
    pub(super) fn release_checkpoint_storage(&mut self, node: NodeId, bytes: u64) {
        if let NodeId::Site(site) = node {
            self.storage[site.index()].release(bytes);
        }
    }

    /// Drops every durable checkpoint of job `idx`, freeing its storage and
    /// catalog replicas (terminal jobs and application failures clean up
    /// after themselves).
    pub(super) fn discard_checkpoints(&mut self, idx: usize) {
        let timer = self.profiler.start();
        let stack = std::mem::take(&mut self.attempt_mut(idx).checkpoints);
        for ck in stack {
            let ni = self.node_index(ck.node);
            if let Ok(pos) = self.ckpt_holders[ni].binary_search(&idx) {
                self.ckpt_holders[ni].remove(pos);
            }
            self.catalog.remove_replica(ck.dataset, ck.node);
            self.release_checkpoint_storage(ck.node, ck.bytes);
        }
        self.profiler.stop(Subsystem::Checkpoint, timer);
    }

    /// Debug-only: the checkpoint-holder index must agree exactly with the
    /// O(jobs) scan it replaced.
    #[cfg(debug_assertions)]
    fn assert_holder_index_matches_scan(&self, node: NodeId) {
        let scan: Vec<usize> = (0..self.jobs.len())
            .filter(|&idx| {
                self.attempts
                    .get(self.jobs[idx].attempt)
                    .is_some_and(|a| a.checkpoints.iter().any(|ck| ck.node == node))
            })
            .collect();
        debug_assert_eq!(
            self.ckpt_holders[self.node_index(node)],
            scan,
            "checkpoint-holder index diverged from the scan at {node:?}"
        );
    }

    /// Invalidates every durable checkpoint held at `node` (a site outage or
    /// disk loss destroyed the storage contents). Returns how many
    /// checkpoints were lost; the catalog replicas are dropped by the
    /// caller's `evict_node_reporting`. The holders come from the per-node
    /// index — O(checkpoints at the node), not O(jobs) — visited in
    /// ascending job order; each job's surviving stack entries keep their
    /// relative order (`best_durable_checkpoint`'s tie-break observes it).
    pub(super) fn invalidate_checkpoints_at(&mut self, node: NodeId) -> u64 {
        let timer = self.profiler.start();
        #[cfg(debug_assertions)]
        self.assert_holder_index_matches_scan(node);
        let ni = self.node_index(node);
        let holders = std::mem::take(&mut self.ckpt_holders[ni]);
        let mut lost = 0u64;
        let mut freed = 0u64;
        for idx in holders {
            self.attempt_mut(idx).checkpoints.retain(|ck| {
                if ck.node == node {
                    lost += 1;
                    freed += ck.bytes;
                    false
                } else {
                    true
                }
            });
        }
        if freed > 0 {
            self.release_checkpoint_storage(node, freed);
        }
        self.profiler.stop(Subsystem::Checkpoint, timer);
        lost
    }

    /// Execution progress of job `idx`'s current attempt, including the
    /// partially completed in-flight segment, as a fraction of total work.
    /// Valid only after the fluid model has been advanced to `now`.
    pub(super) fn attempt_progress_fraction(&self, idx: usize, now: SimTime) -> f64 {
        let (job, run) = (&self.jobs[idx], self.run(idx));
        let mut frac = run.frac_done;
        if let Some(activity) = run.activity {
            // Time-shared segment in flight: read progress off the fluid
            // model's remaining work.
            let executing = self
                .activity_map
                .get(activity)
                .is_some_and(|t| t.phase == Phase::Execute);
            if let (true, Some(remaining)) = (executing, self.fluid.remaining(activity)) {
                if run.seg_amount > 0.0 {
                    let done = 1.0 - (remaining / run.seg_amount).clamp(0.0, 1.0);
                    frac += run.seg_fraction * done;
                }
            }
        } else if run.timer.is_some()
            && job.state == cgsim_workload::JobState::Running
            && run.seg_walltime_s > 0.0
        {
            // Dedicated-core segment in flight: progress is linear in time.
            let elapsed = (now.as_secs() - run.seg_started_s).clamp(0.0, run.seg_walltime_s);
            frac += run.seg_fraction * (elapsed / run.seg_walltime_s);
        }
        frac.clamp(0.0, 1.0)
    }
}
