//! Fault-aware re-replication: the background repair planner.
//!
//! After a site outage or disk loss evicts replicas, affected task-input
//! datasets fall below the configured replication target
//! ([`RepairConfig::target_factor`](crate::config::RepairConfig)). The
//! planner detects those deficits at eviction time (the catalog reports the
//! affected datasets — no scans) and re-establishes replicas as *real* fluid
//! transfers from a surviving replica to a site that lacks one, contending
//! with staging and checkpoint traffic on the same links.
//!
//! Repair traffic is bounded (`max_concurrent` in-flight transfers; a FIFO
//! deficit queue buffers the rest) and deterministic: source and destination
//! are drawn from an RNG stream seeded independently of the simulation's
//! main stream (`seed ^ REPAIR_SEED_SALT`), so enabling repair never
//! perturbs job-level randomness, and a disabled planner draws nothing at
//! all — `repair.enabled = false` stays byte-identical to a build without
//! the feature.
//!
//! When a repair cannot proceed (its source dies mid-transfer, or no
//! eligible source/destination exists), the attempt fails and is retried
//! with exponential backoff (`backoff_s × 2^(attempts−1)`), up to
//! `max_retries` attempts, after which the dataset is *abandoned* — graceful
//! degradation rather than a retry livelock. Replication never overshoots
//! the target: a repair is only planned while the dataset is below target,
//! and the landed replica is dropped if other machinery (site caching)
//! already closed the deficit mid-flight.
//!
//! An in-flight repair is a fluid activity like any other: owned by its slot
//! of the bounded slab ([`Owner::Repair`]), admitted and torn down through
//! the one funnel in `staging`, and registered in the per-node
//! `transfer_touch` index under both endpoints — so the data-loss audit of
//! the faults module covers it exactly like a job's transfer.

use std::collections::VecDeque;

use cgsim_data::DatasetId;
use cgsim_des::fluid::ActivityId;
use cgsim_des::rng::Rng;
use cgsim_des::{Context, EventKey, SimTime};
use cgsim_obs::{SpanPhase, Subsystem, TraceCategory};
use cgsim_platform::{NodeId, SiteId};

use super::events::GridEvent;
use super::job_runtime::Phase;
use super::staging::{Owner, Path};
use super::GridModel;
use crate::config::RepairConfig;

/// Salt XORed into the execution seed for the repair planner's independent
/// RNG stream (so the main stream is untouched whether or not repair runs).
const REPAIR_SEED_SALT: u64 = 0x7265_7061_6972_3031; // "repair01"

/// One in-flight repair transfer (a slot of the bounded active slab).
#[derive(Debug, Clone)]
pub(super) struct RepairTransfer {
    /// Dataset being re-replicated.
    pub(super) dataset: DatasetId,
    /// Surviving replica the bytes stream from.
    pub(super) source: NodeId,
    /// Site receiving the new replica.
    pub(super) dest: SiteId,
    /// The fluid activity carrying the bytes, bound at admission and cleared
    /// when it completes (so `Some` means: still in the fluid model).
    pub(super) activity: Option<ActivityId>,
    /// Dataset size in bytes.
    pub(super) bytes: u64,
}

/// The repair planner's state, owned by the grid model.
#[derive(Debug)]
pub(super) struct RepairState {
    /// Whether the planner runs at all. When false, nothing below is ever
    /// touched (no allocation, no RNG draws, no events).
    pub(super) enabled: bool,
    /// Replicas the planner aims to keep per repairable dataset.
    target_factor: usize,
    max_concurrent: usize,
    backoff_s: f64,
    max_retries: u32,
    /// Independent RNG stream for source/destination selection.
    rng: Rng,
    /// Per-dataset: eligible for repair (task inputs; checkpoint datasets
    /// have their own lifecycle and are never re-replicated). Grown lazily
    /// to the catalog's size.
    repairable: Vec<bool>,
    /// Per-dataset: currently in the deficit queue.
    queued: Vec<bool>,
    /// Per-dataset: consecutive failed attempts (reset on success).
    attempts: Vec<u32>,
    /// Per-dataset: retry budget exhausted; never repaired again.
    abandoned: Vec<bool>,
    /// Per-dataset: pending `RepairRetry` event, cancelled at shutdown.
    retry_keys: Vec<Option<EventKey>>,
    /// FIFO deficit queue (dataset indices).
    queue: VecDeque<usize>,
    /// Bounded slab of in-flight transfers; slot `s` owns its activity as
    /// [`Owner::Repair`]`(s)`.
    pub(super) active: Vec<Option<RepairTransfer>>,
    active_count: usize,
    /// Re-entrancy guard: `pump` can reach itself through fluid-completion
    /// routing; the outer loop picks up anything an inner call would have.
    pumping: bool,
}

impl RepairState {
    /// Builds planner state from the config.
    pub(super) fn new(config: &RepairConfig, seed: u64) -> Self {
        let max_concurrent = (config.max_concurrent as usize).max(1);
        RepairState {
            enabled: config.enabled,
            target_factor: (config.target_factor as usize).max(1),
            max_concurrent,
            backoff_s: config.backoff_s.max(0.0),
            max_retries: config.max_retries,
            rng: Rng::new(seed ^ REPAIR_SEED_SALT),
            repairable: Vec::new(),
            queued: Vec::new(),
            attempts: Vec::new(),
            abandoned: Vec::new(),
            retry_keys: Vec::new(),
            queue: VecDeque::new(),
            active: vec![None; if config.enabled { max_concurrent } else { 0 }],
            active_count: 0,
            pumping: false,
        }
    }

    /// Grows the per-dataset vectors to cover dataset `index`.
    fn ensure(&mut self, index: usize) {
        if index >= self.repairable.len() {
            let len = index + 1;
            self.repairable.resize(len, false);
            self.queued.resize(len, false);
            self.attempts.resize(len, 0);
            self.abandoned.resize(len, false);
            self.retry_keys.resize_with(len, || None);
        }
    }

    /// The activity of slot `slot`'s transfer while it is still in the fluid
    /// model (`None` for a free slot too).
    pub(super) fn in_flight(&self, slot: usize) -> Option<ActivityId> {
        self.active[slot].as_ref().and_then(|t| t.activity)
    }

    /// Marks a dataset as eligible for re-replication (task inputs only).
    pub(super) fn mark_repairable(&mut self, dataset: DatasetId) {
        let index = dataset.index();
        self.ensure(index);
        self.repairable[index] = true;
    }
}

impl GridModel {
    /// Feeds the datasets a data-loss event just evicted into the deficit
    /// queue (the caller pumps once its own cancellation pass is done).
    pub(super) fn note_repair_deficits(&mut self, affected: Vec<DatasetId>) {
        let target = self.repair.target_factor;
        for dataset in affected {
            let index = dataset.index();
            self.repair.ensure(index);
            if !self.repair.repairable[index] || self.repair.abandoned[index] {
                continue;
            }
            if self.catalog.replicas_of(dataset) >= target {
                continue;
            }
            self.enqueue_repair(index);
        }
    }

    /// Appends dataset `index` to the deficit queue (idempotent).
    fn enqueue_repair(&mut self, index: usize) {
        if !self.repair.queued[index] {
            self.repair.queued[index] = true;
            self.repair.queue.push_back(index);
        }
    }

    /// Emits a repair-category trace instant; `info` is only built when the
    /// category is being recorded.
    fn trace_repair(&mut self, time_s: f64, kind: &str, info: impl FnOnce(&Self) -> String) {
        let (cat, ph) = (TraceCategory::Repair, SpanPhase::Instant);
        self.trace(time_s, cat, ph, kind, None, None, |m| Some(info(m)));
    }

    /// Drains the deficit queue into free transfer slots: plans a source and
    /// destination per dataset, admits the fluid transfer, or registers a
    /// failed attempt (backoff/abandon) when no eligible endpoints exist.
    pub(super) fn pump_repairs(&mut self, ctx: &mut Context<'_, GridEvent>) {
        if !self.repair.enabled || self.repair.pumping || self.completed_jobs >= self.jobs.len() {
            return;
        }
        let timer = self.profiler.start();
        self.repair.pumping = true;
        while self.repair.active_count < self.repair.max_concurrent {
            let Some(index) = self.repair.queue.pop_front() else {
                break;
            };
            self.repair.queued[index] = false;
            if self.repair.abandoned[index] {
                continue;
            }
            let dataset = DatasetId::new(index);
            if self.catalog.replicas_of(dataset) >= self.repair.target_factor {
                // Deficit closed by other means while queued.
                self.repair.attempts[index] = 0;
                continue;
            }
            if self
                .repair
                .active
                .iter()
                .flatten()
                .any(|t| t.dataset == dataset)
            {
                // One repair per dataset at a time; completion re-enqueues
                // if the target still is not met.
                continue;
            }
            match self.plan_repair(dataset) {
                Some((source, dest)) => self.admit_repair(dataset, source, dest, ctx),
                None => self.register_failed_repair(index, "no eligible endpoints", ctx),
            }
        }
        self.repair.pumping = false;
        self.profiler.stop(Subsystem::Repair, timer);
    }

    /// Picks a (source, destination) pair for re-replicating `dataset`:
    /// source among surviving replicas at up nodes, destination among up
    /// sites not yet holding one — both drawn from the planner's seeded RNG
    /// over deterministically ordered candidate lists.
    fn plan_repair(&mut self, dataset: DatasetId) -> Option<(NodeId, SiteId)> {
        // `replicas` iterates a BTreeSet: deterministic candidate order.
        let sources: Vec<NodeId> = self
            .catalog
            .replicas(dataset)
            .filter(|node| match node {
                NodeId::MainServer => true,
                NodeId::Site(site) => self.availability.site_up(*site),
            })
            .collect();
        if sources.is_empty() {
            return None;
        }
        let dests: Vec<SiteId> = self
            .platform
            .sites()
            .iter()
            .map(|s| s.id)
            .filter(|&site| {
                self.availability.site_up(site)
                    && !self.catalog.has_replica(dataset, NodeId::Site(site))
            })
            .collect();
        if dests.is_empty() {
            return None;
        }
        let source = sources[self.repair.rng.index(sources.len())];
        let dest = dests[self.repair.rng.index(dests.len())];
        Some((source, dest))
    }

    /// Admits a repair transfer into a free slot: the slot's bookkeeping
    /// first (so the completions the admission routes already see it), then
    /// the `source -> dest` bytes through the shared admission funnel.
    fn admit_repair(
        &mut self,
        dataset: DatasetId,
        source: NodeId,
        dest: SiteId,
        ctx: &mut Context<'_, GridEvent>,
    ) {
        let slot = self
            .repair
            .active
            .iter()
            .position(|t| t.is_none())
            .expect("pump only admits below max_concurrent");
        let bytes = self.catalog.dataset(dataset).bytes.max(1);
        let dest_node = NodeId::Site(dest);
        debug_assert!(
            self.catalog.replicas_of(dataset) < self.repair.target_factor,
            "repair admitted for a dataset already at its replication target"
        );
        debug_assert!(
            !self.catalog.has_replica(dataset, dest_node),
            "repair admitted toward a node that already holds a replica"
        );
        self.repair.active[slot] = Some(RepairTransfer {
            dataset,
            source,
            dest,
            activity: None,
            bytes,
        });
        self.repair.active_count += 1;
        // In-flight repairs *into* each site are counted in the policy view
        // itself (its `active_repairs` signal has no other reader).
        self.view.sites[dest.index()].active_repairs += 1;
        self.collector.grid_counters.repairs_started += 1;
        self.trace_repair(ctx.now().as_secs(), "repair.start", |m| {
            let (name, to) = (
                &m.catalog.dataset(dataset).name,
                &m.platform.site(dest).name,
            );
            format!("dataset={name} {source}->{to} bytes={bytes}")
        });
        self.admit_transfer(
            Owner::Repair(slot),
            Phase::Repair,
            bytes as f64,
            Path::Net(source, dest_node),
            ctx,
        );
    }

    /// Frees slot `slot` and returns what it carried, first cancelling the
    /// transfer if it is still in the fluid model.
    fn retire_repair_slot(&mut self, slot: usize, time_s: f64) -> RepairTransfer {
        if let Some(activity) = self.repair.in_flight(slot) {
            self.cancel_transfer(activity, time_s, None);
        }
        let transfer = self.repair.active[slot]
            .take()
            .expect("retiring an occupied repair slot");
        self.repair.active_count -= 1;
        self.view.sites[transfer.dest.index()].active_repairs -= 1;
        transfer
    }

    /// A repair transfer completed: the new replica becomes durable (unless
    /// other machinery already closed the deficit — replication never
    /// overshoots the target), and the planner pumps the queue.
    pub(super) fn finish_repair(&mut self, slot: usize, ctx: &mut Context<'_, GridEvent>) {
        let timer = self.profiler.start();
        let transfer = self.retire_repair_slot(slot, ctx.now().as_secs());
        let index = transfer.dataset.index();
        let target = self.repair.target_factor;
        let landed = self.catalog.replicas_of(transfer.dataset) < target;
        if landed {
            self.catalog
                .add_replica(transfer.dataset, NodeId::Site(transfer.dest));
        }
        // Site caching may hold more replicas than the target on its own;
        // only a replica this repair landed can be an overshoot.
        debug_assert!(
            !landed || self.catalog.replicas_of(transfer.dataset) <= target,
            "re-replication overshot the replication target"
        );
        self.repair.attempts[index] = 0;
        self.collector
            .record_repair_completed(transfer.dest.index(), transfer.bytes);
        self.trace_repair(ctx.now().as_secs(), "repair.done", |m| {
            format!(
                "dataset={} {}->{} bytes={} landed={landed}",
                m.catalog.dataset(transfer.dataset).name,
                transfer.source,
                m.platform.site(transfer.dest).name,
                transfer.bytes
            )
        });
        if self.catalog.replicas_of(transfer.dataset) < target {
            self.enqueue_repair(index);
        }
        self.profiler.stop(Subsystem::Repair, timer);
        self.pump_repairs(ctx);
    }

    /// Cancels the repair in `slot` because a data-loss event hit one of its
    /// endpoints mid-transfer. Counts as a failed attempt: the dataset goes
    /// into backoff (or is abandoned once the retry budget runs out).
    pub(super) fn cancel_repair_slot(
        &mut self,
        slot: usize,
        node: NodeId,
        ctx: &mut Context<'_, GridEvent>,
    ) {
        let timer = self.profiler.start();
        let transfer = self.retire_repair_slot(slot, ctx.now().as_secs());
        self.collector.grid_counters.repairs_cancelled += 1;
        self.trace_repair(ctx.now().as_secs(), "repair.cancel", |m| {
            let name = &m.catalog.dataset(transfer.dataset).name;
            format!("dataset={name} lost_endpoint={node}")
        });
        self.profiler.stop(Subsystem::Repair, timer);
        self.register_failed_repair(transfer.dataset.index(), "endpoint lost", ctx);
    }

    /// Books a failed repair attempt for dataset `index`: schedules an
    /// exponential-backoff retry, or abandons the dataset once `max_retries`
    /// attempts have failed.
    fn register_failed_repair(
        &mut self,
        index: usize,
        reason: &str,
        ctx: &mut Context<'_, GridEvent>,
    ) {
        self.repair.attempts[index] += 1;
        let attempts = self.repair.attempts[index];
        let dataset = DatasetId::new(index);
        if attempts > self.repair.max_retries {
            self.repair.abandoned[index] = true;
            self.collector.grid_counters.repairs_abandoned += 1;
            self.trace_repair(ctx.now().as_secs(), "repair.abandon", |m| {
                let name = &m.catalog.dataset(dataset).name;
                format!("dataset={name} attempts={attempts} reason={reason}")
            });
            return;
        }
        let delay = self.repair.backoff_s * f64::from(1u32 << (attempts - 1).min(30));
        let event = GridEvent::RepairRetry(u32::try_from(index).expect("dataset ids fit in u32"));
        let key = ctx.schedule_in(SimTime::from_secs(delay), event);
        self.repair.retry_keys[index] = Some(key);
        self.trace_repair(ctx.now().as_secs(), "repair.retry", |m| {
            let name = &m.catalog.dataset(dataset).name;
            format!("dataset={name} attempt={attempts} backoff_s={delay} reason={reason}")
        });
    }

    /// A backoff timer fired: the dataset re-enters the deficit queue if its
    /// deficit still exists.
    pub(super) fn handle_repair_retry(&mut self, index: usize, ctx: &mut Context<'_, GridEvent>) {
        if !self.repair.enabled || index >= self.repair.retry_keys.len() {
            return;
        }
        self.repair.retry_keys[index] = None;
        if self.repair.abandoned[index] {
            return;
        }
        let dataset = DatasetId::new(index);
        if self.catalog.replicas_of(dataset) >= self.repair.target_factor {
            self.repair.attempts[index] = 0;
            return;
        }
        self.enqueue_repair(index);
        self.pump_repairs(ctx);
    }

    /// The workload completed: stop all repair activity so the planner
    /// cannot keep the engine (and the makespan) alive past the last job —
    /// the exact contract the fault chain already follows. At this point
    /// every job is terminal, so the fluid model holds nothing but repair
    /// transfers; removing them needs no progress crediting.
    pub(super) fn shutdown_repairs(&mut self, ctx: &mut Context<'_, GridEvent>) {
        if !self.repair.enabled {
            return;
        }
        for key in self.repair.retry_keys.iter_mut() {
            if let Some(key) = key.take() {
                ctx.cancel(key);
            }
        }
        while let Some(index) = self.repair.queue.pop_front() {
            self.repair.queued[index] = false;
        }
        let mut cancelled = false;
        for slot in 0..self.repair.active.len() {
            if self.repair.active[slot].is_some() {
                let transfer = self.retire_repair_slot(slot, ctx.now().as_secs());
                self.collector.grid_counters.repairs_cancelled += 1;
                self.trace_repair(ctx.now().as_secs(), "repair.cancel", |m| {
                    let name = &m.catalog.dataset(transfer.dataset).name;
                    format!("dataset={name} reason=workload-complete")
                });
                cancelled = true;
            }
        }
        if cancelled {
            self.reschedule_fluid(ctx);
        }
    }
}
