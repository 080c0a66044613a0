//! Fluid resource-sharing model with progressive-filling max-min fairness.
//!
//! SimGrid's accuracy advantage over coarse-grained simulators comes from its
//! *fluid* models: concurrent activities (network transfers, time-shared
//! computations) continuously share resource capacity, and the share of every
//! activity is recomputed whenever an activity starts or finishes. CGSim-RS
//! uses this model for wide-area network transfers (a transfer traverses a
//! multi-link route and is bottlenecked by the most contended link) and,
//! optionally, for time-shared CPU execution.
//!
//! The sharing discipline implemented here is weighted max-min fairness via
//! the classic *progressive filling* algorithm:
//!
//! 1. all unfrozen activities grow their rate at the same speed (scaled by
//!    their weight),
//! 2. the first resource to saturate freezes every activity that crosses it
//!    at the current rate,
//! 3. repeat with the remaining capacity and activities until all activities
//!    are frozen.
//!
//! The result is the unique max-min fair allocation. The model then knows the
//! rate of every activity, so the next completion time is simply
//! `min(remaining_i / rate_i)` — this is what the discrete-event loop uses to
//! schedule the next "transfer finished" event.
//!
//! # Incremental recomputation: components and dirtiness
//!
//! Re-running progressive filling over the *whole* bipartite graph on every
//! admit/retire/re-rate makes each event O(N) in the number of concurrent
//! activities and whole runs O(N²). The model therefore maintains the
//! **connected components** of the constraint graph (resources are connected
//! when a live activity crosses both) and re-solves only the components a
//! change touched:
//!
//! * A union-find over resources records connectivity. Admitting an activity
//!   unions its route; because unions cannot be undone, retires leave the
//!   partition a *conservative over-approximation* (components may stay
//!   merged after the bridging activity left). That is always correct: the
//!   progressive-filling rounds of two disconnected sub-graphs never interact
//!   — running the algorithm on their union performs the exact same
//!   floating-point operations on each side, in the same order, as running it
//!   on each part alone (the global bottleneck, when it lies in part A, is
//!   also A's local bottleneck, and freezing it only touches A's residuals).
//!   The partition is re-tightened by rebuilding the union-find from the live
//!   activity set once retires since the last rebuild exceed the live count.
//! * Every mutation marks the resources it touched **dirty**: an admit marks
//!   its (freshly unioned) route, a retire marks every resource of the
//!   departing activity (so a later rebuild cannot strand a stale
//!   sub-component), a capacity change marks the resource. `ensure_shares`
//!   resolves the dirty components only; untouched components keep their
//!   frozen rates *exactly* — not approximately — because the per-component
//!   solve is bit-for-bit the global pass restricted to that component.
//!
//! # Completion tracking: deferred remaining work and the projection heap
//!
//! The O(N) per-event scans of `advance`/`time_to_next_completion` are
//! replaced by per-activity *projected completion times* kept in an indexed
//! binary min-heap ordered by `(projection, slot)`:
//!
//! * Each activity stores `(remaining, synced_at)` — its remaining work at
//!   the instant its rate last changed — instead of a value decremented on
//!   every advance. Remaining work at the current clock is
//!   `remaining − rate·(clock − synced_at)`, materialised (and `synced_at`
//!   reset) only when a re-solve changes the activity's rate **bitwise**.
//!   Rate-preserving re-solves therefore leave the stored state untouched,
//!   which keeps the materialisation schedule a pure function of the model's
//!   call history — the reproducibility contract.
//! * The projection is `synced_at + remaining/rate` (immediate for zero work
//!   or sub-resolution remnants, absent for zero-rate activities).
//!   `advance(dt)` moves the clock and pops every projection within
//!   [`TIME_RESOLUTION_S`] of it — O(completions·log N) instead of O(N) — and
//!   `time_to_next_completion` is a heap peek.
//! * A solve re-keys the heap for the slots it touched (`rekey`). Pops depend
//!   only on the `(projection, slot)` total order, never on the array layout,
//!   so there are two ways to do it with identical results: sift each slot
//!   (O(touched · log heap)), or write the keys in place and rebuild the heap
//!   once (O(touched + heap); see `completion_heap.rs`). The rule is
//!   `touched · 4 ≥ heap size` → rebuild: a sift costs a few key comparisons
//!   scattered over the slab, the rebuild about two per member, so the
//!   rebuild wins once a solve touches a sizeable fraction of the heap (one
//!   big pile-up component) and loses badly when it does not (a four-activity
//!   island against ten thousand members). The rule reads two lengths the
//!   solver holds anyway; nothing selects the branch from outside.
//!
//! # Single-bottleneck fast path (total-work accounting)
//!
//! Dense contended components — every transfer of a burst crossing one hot
//! backbone link — still cost a full per-slot filling pass per recompute
//! under the incremental solver. For those, the model keeps dslab-style
//! *total-work* accounting (module `total_work`): per-resource running weight
//! sums maintained at admit/retire time. At solve time a component is
//! **classified**:
//!
//! * it qualifies for the fast path when (a) no live route lists a resource
//!   twice, (b) every member resource's running weight sum is provably
//!   bit-identical to the slow path's recomputed sum (all-integer weights —
//!   transfers weigh 1, time-shared execution weighs whole cores — with sums
//!   within 2⁵³), and (c) the progressive-filling argmin over those sums
//!   picks a *hub* resource crossed by every live activity of the component.
//!   Round one of progressive filling then freezes the entire component at
//!   `rate_i = φ·w_i` with `φ = capacity(hub) / Σw(hub)`, so the solve is a
//!   single division. Single-resource components are the trivial case (the
//!   only resource is the hub).
//! * Additionally, the hub's `φ` is cached: when a re-solve computes the same
//!   `φ` **bitwise** (steady churn — an admit replacing an equal-weight
//!   retire), every previously rated slot already holds `φ·w_i`, and only
//!   freshly admitted slots are rated — `ensure_shares` does no per-slot
//!   filling at all, making admit/retire/`set_capacity`/
//!   `time_to_next_completion` O(log n) on such components.
//! * anything else — genuinely multi-constrained components, tainted weight
//!   sums — falls back to the progressive-filling solve, and components
//!   migrate between the two modes automatically as admits/retires change
//!   their topology (classification is stateless per solve; there is no mode
//!   flag to migrate).
//!
//! # What a solve costs
//!
//! With n the component's activities:
//!
//! * **`φ` bitwise stable** (fast path, equal-weight churn): O(log n) — one
//!   division, the fresh slots, their heap inserts.
//! * **`φ` changed** (fast path; any admit or retire that moves the hub's
//!   `Σw`, i.e. every checkpoint write that starts or drains on a shared
//!   link): one linear pass. Every activity's rate changes, and bit-identity
//!   with progressive filling forces one remaining-work fold per activity at
//!   this instant — that is the reproducibility contract above, not an
//!   implementation choice — followed by the re-key.
//! * **Multi-bottleneck or tainted** (slow path): rounds × a pass over the
//!   member resources, plus one visit per activity when it freezes, plus the
//!   re-key of the slots whose rate moved. Where every member's running
//!   weight sum is exact, round one starts from the `total_work` index and
//!   each freeze subtracts its weight along its route (integer arithmetic
//!   below 2⁵³ gives the same bits in any order); tainted components re-sum
//!   every user list every round, in ascending slot order, because for
//!   fractional weights that order *is* the definition of the sum.
//!
//! [`FluidModel::solver_counters`] counts the linear work (slots re-rated,
//! filling rounds, bulk re-keys) next to [`FluidModel::solver_stats`]' solve
//! counts; a debug build re-checks the heap against the slab after
//! `ensure_shares` (every time on a small model, amortised on a large one).
//!
//! The fast path engages **only** where it is provably bit-identical to
//! progressive filling: the same hub the slow argmin would pick (same
//! ascending scan, same `>=`-keeps-earlier tie-break, over bitwise-equal
//! sums), the same `capacity/Σw` division, the same `φ·w_i` products, and
//! the same materialisation rule (remaining work folded only on a bitwise
//! rate change). Rates, remaining work and completion times are therefore
//! indistinguishable from the slow path wherever they are observable.
//!
//! # Slab layout and determinism
//!
//! Activities live in a *slab*: a dense `Vec` of slots addressed by index,
//! with freed slots kept on a LIFO free list and reused. An [`ActivityId`] is
//! a `(slot, generation)` pair packed into a `u64`; every release bumps the
//! slot's generation, so a stale handle held after its activity finished (or
//! after the slot was recycled by a newer activity) is rejected by every
//! lookup instead of silently aliasing the new occupant.
//!
//! Share recomputation iterates a component's resources and slots in strictly
//! ascending index order, and per-resource user lists are kept sorted by slot
//! index. There is no hash map anywhere on the path, so floating-point
//! accumulation order — and therefore every transfer rate, every completion
//! time and ultimately whole simulations — is bit-for-bit identical between
//! two runs of the same scenario. The scratch buffers used by the solver are
//! owned by the model and reused across calls, so steady-state recomputation
//! performs no allocation at all.

use crate::define_id;
use crate::time::SimTime;

mod activity_map;
mod completion_heap;
mod components;
mod total_work;
pub use activity_map::ActivityMap;
use completion_heap::CompletionHeap;
use components::ResourceComponents;
use total_work::TotalWorkIndex;

define_id!(
    /// Identifier of a shared resource (a link, or a time-shared CPU pool).
    ResourceId,
    "resource"
);

/// Generation-tagged handle of a fluid activity (e.g. one file transfer).
///
/// Packs a slab slot index (low 32 bits) and the slot's generation at
/// creation time (high 32 bits). The generation lets the model reject stale
/// handles: once an activity completes or is removed, its slot's generation
/// is bumped, so every later lookup through the old id returns `None` even if
/// the slot has been recycled for a new activity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ActivityId(u64);

impl ActivityId {
    /// Packs a slot index and generation into an id.
    fn pack(slot: u32, generation: u32) -> Self {
        ActivityId((u64::from(generation) << 32) | u64::from(slot))
    }

    /// The slab slot this id points at.
    #[inline]
    pub fn slot(self) -> u32 {
        self.0 as u32
    }

    /// The slot generation this id was created under.
    #[inline]
    pub fn generation(self) -> u32 {
        (self.0 >> 32) as u32
    }
}

impl std::fmt::Display for ActivityId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "activity#{}@{}", self.slot(), self.generation())
    }
}

/// Numerical tolerance used when comparing work/capacity quantities.
pub const EPSILON: f64 = 1e-9;

/// Virtual-time resolution of the fluid model, in seconds. Any activity whose
/// remaining work would finish within this much time at its current rate is
/// considered complete. Without this, floating-point residue after an
/// `advance` (remaining ≈ 10⁻⁷ bytes on a multi-GB transfer) produces a next
/// completion time far below the representable increment of the simulation
/// clock, and the discrete-event loop degenerates into an endless stream of
/// zero-length `FluidAdvance` events at the same timestamp. One microsecond is
/// far below anything the grid model resolves (WAN latencies are milliseconds,
/// walltimes are minutes to hours).
pub const TIME_RESOLUTION_S: f64 = 1e-6;

/// Minimum number of retires before the component partition is rebuilt.
const REBUILD_MIN_RETIRES: usize = 64;

#[derive(Debug, Clone)]
struct ResourceState {
    capacity: f64,
    /// Slots of the activities currently demanding this resource, kept sorted
    /// by slot index so iteration order is independent of insertion history.
    users: Vec<u32>,
}

/// One slab slot. Freed slots keep their `resources` allocation for reuse.
#[derive(Debug, Clone, Default)]
struct ActivitySlot {
    generation: u32,
    live: bool,
    /// Remaining work at virtual time `synced_at` (NOT at the current clock;
    /// see the module docs on deferred remaining work).
    remaining: f64,
    /// Virtual time at which `remaining` was last materialised — the instant
    /// of the activity's most recent bitwise rate change.
    synced_at: f64,
    weight: f64,
    rate: f64,
    /// Projected absolute completion time (meaningful while in the heap).
    proj: f64,
    /// Admitted since the last solve (not yet rated by any solve).
    fresh: bool,
    resources: Vec<ResourceId>,
}

/// True when a route lists the same resource more than once. Routes are a
/// handful of links, so the quadratic scan beats any indexed structure.
fn route_has_duplicates(route: &[ResourceId]) -> bool {
    route
        .iter()
        .enumerate()
        .any(|(i, r)| route[..i].contains(r))
}

/// The fluid sharing model: a bipartite graph of resources and activities.
#[derive(Debug, Clone, Default)]
pub struct FluidModel {
    resources: Vec<ResourceState>,
    slots: Vec<ActivitySlot>,
    /// LIFO free list of released slots (deterministic reuse order).
    free: Vec<u32>,
    live_count: usize,
    /// Total virtual time this model has been advanced by.
    clock: f64,
    // Incremental-solver state.
    comps: ResourceComponents,
    /// Per-resource "marked dirty" flag (dedup for `dirty_list`).
    dirty_flag: Vec<bool>,
    /// Resources marked dirty since the last solve.
    dirty_list: Vec<u32>,
    retired_since_rebuild: usize,
    /// Live slots with a finite projection, ordered by `(slot.proj, slot)`.
    completions: CompletionHeap,
    // Reusable scratch buffers (no steady-state allocation on the hot path).
    scratch_residual: Vec<f64>,
    scratch_weight_sum: Vec<f64>,
    scratch_frozen: Vec<bool>,
    /// Per-slot stamp for O(1) distinct-activity gathering.
    act_stamp: Vec<u64>,
    /// Per-resource stamp for O(1) distinct-root gathering.
    root_stamp: Vec<u64>,
    stamp: u64,
    scratch_comp_res: Vec<u32>,
    scratch_comp_acts: Vec<u32>,
    scratch_old_rates: Vec<f64>,
    scratch_roots: Vec<u32>,
    scratch_finished: Vec<u32>,
    // Single-bottleneck fast-path state (see the module docs and
    // [`total_work`]).
    tw: TotalWorkIndex,
    /// Slots admitted since the last solve (their `fresh` flag is set);
    /// cleared at the end of every `ensure_shares`.
    fresh_slots: Vec<u32>,
    /// Test instrumentation: route every solve down the progressive-filling
    /// slow path (observables are bit-identical either way by construction;
    /// the forced-full-recompute twin probe verifies exactly that).
    fast_path_disabled: bool,
    stat_fast_solves: u64,
    stat_slow_solves: u64,
    counters: SolverCounters,
    /// Solve count at which the heap is next checked against the slab.
    #[cfg(debug_assertions)]
    heap_check_due: u64,
}

/// How much linear work the solver's passes did since the model was created
/// (diagnostics; see [`FluidModel::solver_counters`]). `rerated_slots` and
/// `slow_rounds` are a pure function of the model's call history;
/// `bulk_rekeys` additionally records which way the re-key rule went.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolverCounters {
    /// Slots a solve assigned a rate to: the hub's whole user list when a
    /// fast solve's `φ` changed (only the fresh slots when it did not), the
    /// whole component in a slow solve.
    pub rerated_slots: u64,
    /// Progressive-filling rounds run by slow solves.
    pub slow_rounds: u64,
    /// Solves that re-keyed the completion heap in bulk (unsifted writes plus
    /// one rebuild) rather than slot by slot.
    pub bulk_rekeys: u64,
}

impl FluidModel {
    /// Creates an empty model.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a resource with the given capacity (e.g. link bandwidth in
    /// bytes/s, or host flops/s for a time-shared CPU pool).
    ///
    /// # Panics
    /// Panics if the capacity is not strictly positive and finite.
    pub fn add_resource(&mut self, capacity: f64) -> ResourceId {
        assert!(
            capacity.is_finite() && capacity > 0.0,
            "resource capacity must be positive and finite, got {capacity}"
        );
        let id = ResourceId::new(self.resources.len());
        self.resources.push(ResourceState {
            capacity,
            users: Vec::new(),
        });
        self.comps.push_resource();
        self.tw.push_resource();
        self.dirty_flag.push(false);
        id
    }

    /// Changes the capacity of an existing resource (used to model degraded
    /// links or dynamically resized CPU pools). Setting the capacity a
    /// resource already has is a no-op that does not dirty its component.
    pub fn set_capacity(&mut self, id: ResourceId, capacity: f64) {
        assert!(
            capacity.is_finite() && capacity > 0.0,
            "resource capacity must be positive and finite, got {capacity}"
        );
        if self.resources[id.index()].capacity.to_bits() == capacity.to_bits() {
            return;
        }
        self.resources[id.index()].capacity = capacity;
        self.mark_dirty(id.index() as u32);
    }

    /// Returns the capacity of a resource.
    pub fn capacity(&self, id: ResourceId) -> f64 {
        self.resources[id.index()].capacity
    }

    /// Number of in-flight activities.
    pub fn activity_count(&self) -> usize {
        self.live_count
    }

    /// `(fast, slow)` counts of component solves taken by the
    /// single-bottleneck fast path vs the progressive-filling slow path since
    /// the model was created (diagnostics / tests — e.g. asserting that a
    /// topology change migrates a component between modes).
    pub fn solver_stats(&self) -> (u64, u64) {
        (self.stat_fast_solves, self.stat_slow_solves)
    }

    /// Linear-pass work counters, beside [`FluidModel::solver_stats`].
    pub fn solver_counters(&self) -> SolverCounters {
        self.counters
    }

    /// Test instrumentation: permanently routes every solve of this model
    /// down the progressive-filling slow path. All observable state stays
    /// bit-identical (the fast path only engages where it provably matches),
    /// which is exactly what the forced-full-recompute twin probe checks.
    #[doc(hidden)]
    pub fn disable_fast_path(&mut self) {
        self.fast_path_disabled = true;
    }

    /// Test instrumentation: marks every resource dirty so the next query
    /// re-solves every component from scratch.
    #[doc(hidden)]
    pub fn mark_all_dirty(&mut self) {
        for r in 0..self.resources.len() as u32 {
            self.mark_dirty(r);
        }
    }

    /// Marks a resource's component dirty (dedup'd via `dirty_flag`).
    fn mark_dirty(&mut self, resource: u32) {
        if !self.dirty_flag[resource as usize] {
            self.dirty_flag[resource as usize] = true;
            self.dirty_list.push(resource);
        }
    }

    /// Starts an activity requiring `amount` units of work across the listed
    /// resources with weight 1.
    pub fn add_activity(&mut self, amount: f64, resources: &[ResourceId]) -> ActivityId {
        self.add_weighted_activity(amount, resources, 1.0)
    }

    /// Starts an activity with an explicit fairness weight (a weight of 2
    /// receives twice the rate of a weight-1 activity on a shared bottleneck).
    pub fn add_weighted_activity(
        &mut self,
        amount: f64,
        resources: &[ResourceId],
        weight: f64,
    ) -> ActivityId {
        assert!(
            amount.is_finite() && amount >= 0.0,
            "activity amount must be non-negative, got {amount}"
        );
        assert!(
            weight.is_finite() && weight > 0.0,
            "activity weight must be positive, got {weight}"
        );
        assert!(
            !resources.is_empty(),
            "an activity must use at least one resource"
        );
        let slot_idx = match self.free.pop() {
            Some(idx) => idx,
            None => {
                let idx = self.slots.len();
                assert!(idx < u32::MAX as usize, "fluid slab exhausted");
                self.slots.push(ActivitySlot::default());
                self.completions.push_slot();
                idx as u32
            }
        };
        let clock = self.clock;
        let slot = &mut self.slots[slot_idx as usize];
        slot.live = true;
        slot.remaining = amount;
        slot.synced_at = clock;
        slot.weight = weight;
        slot.rate = 0.0;
        slot.proj = f64::INFINITY;
        slot.fresh = true;
        slot.resources.clear();
        slot.resources.extend_from_slice(resources);
        let generation = slot.generation;
        self.fresh_slots.push(slot_idx);
        for r in resources {
            let users = &mut self.resources[r.index()].users;
            let pos = users.binary_search(&slot_idx).unwrap_or_else(|p| p);
            users.insert(pos, slot_idx);
        }
        // Connect the route in the component index and dirty the (single,
        // freshly merged) component it now belongs to.
        let mut root = self.comps.find(resources[0].index() as u32);
        for r in &resources[1..] {
            root = self.comps.union(root, r.index() as u32);
        }
        self.comps.acts[root as usize] += 1;
        if route_has_duplicates(resources) {
            self.comps.dups[root as usize] += 1;
        }
        for r in resources {
            self.tw.add_weight(r.index(), weight);
        }
        self.mark_dirty(resources[0].index() as u32);
        self.live_count += 1;
        ActivityId::pack(slot_idx, generation)
    }

    /// Resolves an id to its slot index, rejecting stale generations.
    fn slot_of(&self, id: ActivityId) -> Option<usize> {
        let idx = id.slot() as usize;
        let slot = self.slots.get(idx)?;
        (slot.live && slot.generation == id.generation()).then_some(idx)
    }

    /// Unlinks a slot from its resources, bumps its generation (invalidating
    /// every outstanding id) and returns it to the free list. Every resource
    /// of the departing activity is marked dirty — marking just one would
    /// leave a stale sibling sub-component behind if a partition rebuild
    /// splits the component before the next solve.
    fn release_slot(&mut self, slot_idx: u32) {
        if self.completions.contains(slot_idx) {
            self.completions.remove(&self.slots, slot_idx);
        }
        let resources = std::mem::take(&mut self.slots[slot_idx as usize].resources);
        let weight = self.slots[slot_idx as usize].weight;
        for r in &resources {
            let users = &mut self.resources[r.index()].users;
            if let Ok(pos) = users.binary_search(&slot_idx) {
                users.remove(pos);
            }
        }
        let root = self.comps.find(resources[0].index() as u32);
        self.comps.acts[root as usize] -= 1;
        if route_has_duplicates(&resources) {
            self.comps.dups[root as usize] -= 1;
        }
        for r in &resources {
            let now_empty = self.resources[r.index()].users.is_empty();
            self.tw.sub_weight(r.index(), weight, now_empty);
        }
        for r in &resources {
            self.mark_dirty(r.index() as u32);
        }
        let slot = &mut self.slots[slot_idx as usize];
        slot.resources = resources;
        slot.resources.clear();
        slot.live = false;
        slot.generation = slot.generation.wrapping_add(1);
        slot.remaining = 0.0;
        slot.synced_at = 0.0;
        slot.rate = 0.0;
        slot.weight = 0.0;
        slot.proj = f64::INFINITY;
        slot.fresh = false;
        self.free.push(slot_idx);
        self.live_count -= 1;
        self.retired_since_rebuild += 1;
    }

    /// Removes an activity regardless of remaining work (e.g. a cancelled
    /// transfer). Returns the remaining amount at the current virtual time,
    /// if the activity existed.
    pub fn remove_activity(&mut self, id: ActivityId) -> Option<f64> {
        let idx = self.slot_of(id)?;
        let slot = &self.slots[idx];
        let remaining = slot.remaining - slot.rate * (self.clock - slot.synced_at);
        self.release_slot(idx as u32);
        Some(remaining)
    }

    /// Remaining work of an activity at the current virtual time (`None` for
    /// stale/unknown ids).
    pub fn remaining(&self, id: ActivityId) -> Option<f64> {
        self.slot_of(id).map(|idx| {
            let slot = &self.slots[idx];
            slot.remaining - slot.rate * (self.clock - slot.synced_at)
        })
    }

    /// Current max-min fair rate of an activity (`None` for stale ids).
    pub fn rate(&mut self, id: ActivityId) -> Option<f64> {
        self.ensure_shares();
        self.slot_of(id).map(|idx| self.slots[idx].rate)
    }

    /// Re-solves the dirty components, if any. Clean components keep their
    /// frozen rates — bit-identical to what a full recompute would assign.
    fn ensure_shares(&mut self) {
        if self.dirty_list.is_empty() {
            return;
        }
        if self.retired_since_rebuild >= REBUILD_MIN_RETIRES.max(self.live_count) {
            self.rebuild_components();
        }
        let n_res = self.resources.len();
        if self.scratch_residual.len() < n_res {
            self.scratch_residual.resize(n_res, 0.0);
            self.scratch_weight_sum.resize(n_res, 0.0);
            self.root_stamp.resize(n_res, 0);
        }
        let n_slots = self.slots.len();
        if self.scratch_frozen.len() < n_slots {
            self.scratch_frozen.resize(n_slots, false);
            self.act_stamp.resize(n_slots, 0);
        }
        // Collect the distinct dirty component roots, ascending.
        self.stamp += 1;
        let stamp = self.stamp;
        let mut roots = std::mem::take(&mut self.scratch_roots);
        roots.clear();
        for i in 0..self.dirty_list.len() {
            let r = self.dirty_list[i];
            self.dirty_flag[r as usize] = false;
            let root = self.comps.find(r);
            if self.root_stamp[root as usize] != stamp {
                self.root_stamp[root as usize] = stamp;
                roots.push(root);
            }
        }
        self.dirty_list.clear();
        roots.sort_unstable();
        for &root in &roots {
            self.solve_component(root);
        }
        roots.clear();
        self.scratch_roots = roots;
        // Every admit since the previous solve was just rated by its
        // component's solve (fast or slow); drop the fresh markers.
        for i in 0..self.fresh_slots.len() {
            let u = self.fresh_slots[i] as usize;
            self.slots[u].fresh = false;
        }
        self.fresh_slots.clear();
        #[cfg(debug_assertions)]
        self.debug_check_heap();
    }

    /// Re-checks the completion heap against the slab: after every
    /// `ensure_shares` while the slab is small, and on a large one once per
    /// `slots / 64` solves, which holds the O(slots) check to a constant
    /// factor of the solves it follows (checked every time, the 100k-job
    /// debug-build tests take minutes longer).
    #[cfg(debug_assertions)]
    fn debug_check_heap(&mut self) {
        let solves = self.stat_fast_solves + self.stat_slow_solves;
        if solves >= self.heap_check_due {
            self.completions.assert_consistent(&self.slots);
            self.heap_check_due = solves + (self.slots.len() / 64) as u64;
        }
    }

    /// Rebuilds the component partition from the live activity set,
    /// re-tightening the over-approximation left behind by retires. Rates are
    /// unaffected: refining the partition never changes what any solve
    /// computes (see the module docs).
    fn rebuild_components(&mut self) {
        self.comps.reset();
        for idx in 0..self.slots.len() {
            if !self.slots[idx].live {
                continue;
            }
            let mut root = self.comps.find(self.slots[idx].resources[0].index() as u32);
            for k in 1..self.slots[idx].resources.len() {
                root = self
                    .comps
                    .union(root, self.slots[idx].resources[k].index() as u32);
            }
            self.comps.acts[root as usize] += 1;
            if route_has_duplicates(&self.slots[idx].resources) {
                self.comps.dups[root as usize] += 1;
            }
        }
        self.retired_since_rebuild = 0;
    }

    /// Solves one component: classifies it against the total-work index and
    /// routes it to the single-bottleneck fast path when that is provably
    /// bit-identical, or to the progressive-filling slow path otherwise (see
    /// the module docs). Classification is stateless — components migrate
    /// between modes solve-to-solve as their topology changes.
    fn solve_component(&mut self, root: u32) {
        if self.comps.acts[root as usize] == 0 {
            // No live activity crosses this component, so both paths would
            // no-op; skip the solve. (A retire can empty its resources right
            // before a rebuild splits them off as dirty singletons.) Cached
            // hub shares stay valid: every later admit is rated as fresh.
            return;
        }
        let mut comp_res = std::mem::take(&mut self.scratch_comp_res);
        comp_res.clear();
        comp_res.extend_from_slice(&self.comps.members[root as usize]);
        comp_res.sort_unstable();

        let fast = if self.fast_path_disabled {
            None
        } else {
            self.tw.classify(
                &comp_res,
                &self.resources,
                self.comps.acts[root as usize],
                self.comps.dups[root as usize],
            )
        };
        match fast {
            Some((hub, phi)) => self.solve_component_fast(root, &comp_res, hub, phi),
            None => self.solve_component_slow(&comp_res),
        }

        comp_res.clear();
        self.scratch_comp_res = comp_res;
    }

    /// Single-bottleneck solve: the whole component freezes in round one at
    /// `rate_i = φ·w_i`, so no filling rounds run. When the hub's cached `φ`
    /// is unchanged bitwise (steady churn), previously rated slots already
    /// hold exactly `φ·w_i` and only freshly admitted slots are touched — no
    /// per-slot work at all.
    fn solve_component_fast(&mut self, root: u32, comp_res: &[u32], hub: u32, phi: f64) {
        self.stat_fast_solves += 1;
        let stable = self.tw.phi(hub).to_bits() == phi.to_bits();
        for &r in comp_res {
            if r != hub {
                self.tw.invalidate_phi(r);
            }
        }
        self.tw.set_phi(hub, phi);
        if stable {
            let mut rated = std::mem::take(&mut self.scratch_comp_acts);
            rated.clear();
            for i in 0..self.fresh_slots.len() {
                let u = self.fresh_slots[i];
                if !self.slots[u as usize].fresh {
                    continue; // retired again before this solve
                }
                let r0 = self.slots[u as usize].resources[0].index() as u32;
                if self.comps.find(r0) != root {
                    continue; // belongs to a different dirty component
                }
                rated.push(u);
            }
            self.rate_at_phi(&rated, phi);
            self.scratch_comp_acts = rated;
        } else {
            // One sweep over the hub's user list — which is exactly the
            // component's activity set, already in ascending slot order.
            let users = std::mem::take(&mut self.resources[hub as usize].users);
            self.rate_at_phi(&users, phi);
            self.resources[hub as usize].users = users;
        }
    }

    /// Rates `rated` at `φ·w_i` with the slow path's exact materialisation
    /// semantics — remaining work is folded (and `synced_at` reset) only on a
    /// bitwise rate change — then refreshes their completion projections.
    fn rate_at_phi(&mut self, rated: &[u32], phi: f64) {
        self.counters.rerated_slots += rated.len() as u64;
        let clock = self.clock;
        for &u in rated {
            let slot = &mut self.slots[u as usize];
            slot.fresh = false;
            let rate = phi * slot.weight;
            if slot.rate.to_bits() != rate.to_bits() {
                slot.remaining -= slot.rate * (clock - slot.synced_at);
                slot.synced_at = clock;
                slot.rate = rate;
            }
        }
        self.rekey(rated);
    }

    /// Brings the completion heap up to date with the `(remaining, rate,
    /// synced_at)` a solve just left in `touched`. A solve that touches at
    /// least a quarter of the heap's members writes the new projections in
    /// place and restores the heap once — O(touched + heap) — instead of
    /// sifting each one — O(touched · log heap), which is the better deal
    /// only for a small component against a large heap. Either way the heap
    /// holds the same members under the same keys, and that is all a pop
    /// depends on (see [`completion_heap`]).
    fn rekey(&mut self, touched: &[u32]) {
        let bulk = touched.len() * 4 >= self.completions.len();
        for &u in touched {
            let slot = &self.slots[u as usize];
            let proj = projected_completion(slot.remaining, slot.rate, slot.synced_at);
            if bulk {
                self.completions.write_unsifted(&mut self.slots, u, proj);
            } else {
                self.completions.set(&mut self.slots, u, proj);
            }
        }
        if bulk {
            self.completions.rebuild(&self.slots);
            self.counters.bulk_rekeys += 1;
        }
    }

    /// Progressive-filling max-min fairness over one component.
    ///
    /// This is exactly the global algorithm restricted to the component's
    /// resources and activities: every loop walks indices in ascending order,
    /// so the floating-point accumulation order is a pure function of the
    /// component's membership — and therefore identical to what a full
    /// recompute would perform for these activities.
    fn solve_component_slow(&mut self, comp_res: &[u32]) {
        self.stat_slow_solves += 1;
        // Any cached fair share on these resources is stale once the slow
        // path re-rates the component.
        for &r in comp_res {
            self.tw.invalidate_phi(r);
        }

        let mut residual = std::mem::take(&mut self.scratch_residual);
        let mut weight_sum = std::mem::take(&mut self.scratch_weight_sum);
        let mut frozen = std::mem::take(&mut self.scratch_frozen);
        let mut comp_acts = std::mem::take(&mut self.scratch_comp_acts);
        let mut old_rates = std::mem::take(&mut self.scratch_old_rates);
        comp_acts.clear();
        old_rates.clear();

        // Gather the component's distinct activities and reset residuals.
        self.stamp += 1;
        let stamp = self.stamp;
        for &r in comp_res {
            residual[r as usize] = self.resources[r as usize].capacity;
            for &u in &self.resources[r as usize].users {
                if self.act_stamp[u as usize] != stamp {
                    self.act_stamp[u as usize] = stamp;
                    comp_acts.push(u);
                }
            }
        }
        for &u in &comp_acts {
            old_rates.push(self.slots[u as usize].rate);
            self.slots[u as usize].rate = 0.0;
            frozen[u as usize] = false;
        }
        let mut unfrozen = comp_acts.len();
        self.counters.rerated_slots += unfrozen as u64;

        // Weight of unfrozen activities crossing each member resource. Where
        // every member's running sum is exact (integer weights: any order of
        // additions and subtractions gives the same bits), round one starts
        // from the index and each freeze subtracts its weight along its
        // route; otherwise every round re-sums the user lists in ascending
        // slot order, which is what defines the sum for fractional weights.
        let running = comp_res.iter().all(|&r| self.tw.is_exact(r));
        if running {
            for &r in comp_res {
                weight_sum[r as usize] = self.tw.weight_sum(r);
            }
        }

        // Each iteration freezes at least one activity, so at most n rounds.
        while unfrozen > 0 {
            self.counters.slow_rounds += 1;
            if !running {
                for &r in comp_res {
                    let mut sum = 0.0;
                    for &u in &self.resources[r as usize].users {
                        if !frozen[u as usize] {
                            sum += self.slots[u as usize].weight;
                        }
                    }
                    weight_sum[r as usize] = sum;
                }
            }
            // Fair share increment per unit weight = min over member
            // resources of residual / weight_sum (first such resource on
            // ties — ascending order matches the global pass).
            let mut bottleneck: Option<(u32, f64)> = None;
            for &r in comp_res {
                let w = weight_sum[r as usize];
                if w > EPSILON {
                    let share = residual[r as usize] / w;
                    match bottleneck {
                        Some((_, best)) if share >= best => {}
                        _ => bottleneck = Some((r, share)),
                    }
                }
            }
            let Some((bottleneck_idx, fair_rate_per_weight)) = bottleneck else {
                // No unfrozen activity uses any resource with positive
                // weight; freeze the remainder at zero rate.
                break;
            };

            // Freeze every unfrozen activity crossing the bottleneck
            // resource, in ascending slot order.
            let mut froze_any = false;
            let mut cursor = 0;
            while cursor < self.resources[bottleneck_idx as usize].users.len() {
                let slot_idx = self.resources[bottleneck_idx as usize].users[cursor] as usize;
                cursor += 1;
                if frozen[slot_idx] {
                    continue;
                }
                let weight = self.slots[slot_idx].weight;
                let rate = fair_rate_per_weight * weight;
                for r in &self.slots[slot_idx].resources {
                    residual[r.index()] = (residual[r.index()] - rate).max(0.0);
                    if running {
                        weight_sum[r.index()] -= weight;
                    }
                }
                self.slots[slot_idx].rate = rate;
                frozen[slot_idx] = true;
                unfrozen -= 1;
                froze_any = true;
            }
            if !froze_any {
                break;
            }
        }

        // Post-pass: materialise remaining work for activities whose rate
        // changed bitwise, and refresh the completion projections of those
        // and of the fresh ones — any other slot's projection is a function
        // of three values this solve left untouched.
        let clock = self.clock;
        let mut touched = 0;
        for i in 0..comp_acts.len() {
            let u = comp_acts[i];
            let old_rate = old_rates[i];
            let slot = &mut self.slots[u as usize];
            let changed = slot.rate.to_bits() != old_rate.to_bits();
            if changed {
                slot.remaining -= old_rate * (clock - slot.synced_at);
                slot.synced_at = clock;
            }
            if changed || slot.fresh {
                comp_acts[touched] = u;
                touched += 1;
            }
        }
        comp_acts.truncate(touched);
        self.rekey(&comp_acts);

        self.scratch_residual = residual;
        self.scratch_weight_sum = weight_sum;
        self.scratch_frozen = frozen;
        comp_acts.clear();
        self.scratch_comp_acts = comp_acts;
        old_rates.clear();
        self.scratch_old_rates = old_rates;
    }

    // ---- completion queries -----------------------------------------------

    /// Time until the next activity completes at current rates, if any
    /// activity is in flight with a defined completion (zero-work activities
    /// complete immediately; zero-rate activities never do).
    pub fn time_to_next_completion(&mut self) -> Option<SimTime> {
        self.ensure_shares();
        let next = self.completions.peek()?;
        let dt = (self.slots[next as usize].proj - self.clock).max(0.0);
        Some(SimTime::from_secs(dt))
    }

    /// Advances every in-flight activity by `dt` of virtual time and returns
    /// the activities that completed (remaining work reached zero), removing
    /// them from the model. The returned ids are in ascending slot order — a
    /// deterministic order for downstream event scheduling.
    pub fn advance(&mut self, dt: SimTime) -> Vec<ActivityId> {
        let mut finished = Vec::new();
        self.advance_into(dt, &mut finished);
        finished
    }

    /// Allocation-free variant of [`FluidModel::advance`]: clears `out` and
    /// fills it with the completed activities in ascending slot order. Core
    /// loops that advance on every event should hold one buffer and reuse it.
    pub fn advance_into(&mut self, dt: SimTime, out: &mut Vec<ActivityId>) {
        out.clear();
        self.ensure_shares();
        self.clock += dt.as_secs();
        // An activity is done when its projected completion falls within the
        // fluid model's time resolution of the new clock — the tolerance
        // absorbs floating-point residue that would otherwise stall the event
        // loop on sub-resolvable completion times.
        let deadline = self.clock + TIME_RESOLUTION_S;
        let mut finished = std::mem::take(&mut self.scratch_finished);
        finished.clear();
        while let Some(top) = self.completions.peek() {
            if self.slots[top as usize].proj <= deadline {
                self.completions.remove(&self.slots, top);
                finished.push(top);
            } else {
                break;
            }
        }
        finished.sort_unstable();
        for &u in &finished {
            out.push(ActivityId::pack(u, self.slots[u as usize].generation));
        }
        for &u in &finished {
            self.release_slot(u);
        }
        finished.clear();
        self.scratch_finished = finished;
    }

    /// Total allocated rate on a resource (diagnostics / tests).
    pub fn allocated_on(&mut self, resource: ResourceId) -> f64 {
        self.ensure_shares();
        self.slots
            .iter()
            .filter(|s| s.live && s.resources.contains(&resource))
            .map(|s| s.rate)
            .sum()
    }

    /// Current rates of all activities (diagnostics / tests), in ascending
    /// slot order.
    pub fn rates(&mut self) -> Vec<(ActivityId, f64)> {
        let mut out = Vec::new();
        self.rates_into(&mut out);
        out
    }

    /// Allocation-free variant of [`FluidModel::rates`]: clears `out` and
    /// fills it with `(id, rate)` pairs in ascending slot order.
    pub fn rates_into(&mut self, out: &mut Vec<(ActivityId, f64)>) {
        self.ensure_shares();
        out.clear();
        out.extend(
            self.slots
                .iter()
                .enumerate()
                .filter(|(_, s)| s.live)
                .map(|(idx, s)| (ActivityId::pack(idx as u32, s.generation), s.rate)),
        );
    }
}

/// Absolute virtual completion time of an activity with `remaining` work at
/// `synced_at` flowing at `rate`: immediate for zero work or sub-resolution
/// remnants, unreachable (infinite, kept out of the heap) at zero rate.
#[inline]
fn projected_completion(remaining: f64, rate: f64, synced_at: f64) -> f64 {
    if remaining <= EPSILON {
        synced_at
    } else if rate > EPSILON {
        if remaining <= rate * TIME_RESOLUTION_S {
            synced_at
        } else {
            synced_at + remaining / rate
        }
    } else {
        f64::INFINITY
    }
}
#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_activity_gets_full_capacity() {
        let mut m = FluidModel::new();
        let link = m.add_resource(100.0);
        let a = m.add_activity(1000.0, &[link]);
        assert!((m.rate(a).unwrap() - 100.0).abs() < 1e-9);
        assert_eq!(
            m.time_to_next_completion().unwrap(),
            SimTime::from_secs(10.0)
        );
    }

    #[test]
    fn two_activities_share_equally() {
        let mut m = FluidModel::new();
        let link = m.add_resource(100.0);
        let a = m.add_activity(500.0, &[link]);
        let b = m.add_activity(1000.0, &[link]);
        assert!((m.rate(a).unwrap() - 50.0).abs() < 1e-9);
        assert!((m.rate(b).unwrap() - 50.0).abs() < 1e-9);
        // a completes first after 10s.
        let dt = m.time_to_next_completion().unwrap();
        assert!((dt.as_secs() - 10.0).abs() < 1e-9);
        let done = m.advance(dt);
        assert_eq!(done, vec![a]);
        // b now gets the full link.
        assert!((m.rate(b).unwrap() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn weights_bias_the_share() {
        let mut m = FluidModel::new();
        let link = m.add_resource(90.0);
        let heavy = m.add_weighted_activity(1e9, &[link], 2.0);
        let light = m.add_weighted_activity(1e9, &[link], 1.0);
        assert!((m.rate(heavy).unwrap() - 60.0).abs() < 1e-9);
        assert!((m.rate(light).unwrap() - 30.0).abs() < 1e-9);
    }

    #[test]
    fn multi_link_route_bottlenecked_by_slowest() {
        let mut m = FluidModel::new();
        let fast = m.add_resource(1000.0);
        let slow = m.add_resource(10.0);
        let a = m.add_activity(100.0, &[fast, slow]);
        assert!((m.rate(a).unwrap() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn classic_max_min_three_flows() {
        // Two links of capacity 10; flow A uses link1, flow B uses link2,
        // flow C uses both. Both links saturate simultaneously at rate 5, so
        // the max-min allocation is A=B=C=5.
        let mut m = FluidModel::new();
        let l1 = m.add_resource(10.0);
        let l2 = m.add_resource(10.0);
        let a = m.add_activity(1e9, &[l1]);
        let b = m.add_activity(1e9, &[l2]);
        let c = m.add_activity(1e9, &[l1, l2]);
        let ra = m.rate(a).unwrap();
        let rb = m.rate(b).unwrap();
        let rc = m.rate(c).unwrap();
        assert!((ra - 5.0).abs() < 1e-9, "ra={ra}");
        assert!((rb - 5.0).abs() < 1e-9, "rb={rb}");
        assert!((rc - 5.0).abs() < 1e-9, "rc={rc}");
    }

    #[test]
    fn asymmetric_max_min() {
        // link1 cap 10 shared by A and C; link2 cap 100 used by B and C.
        // Progressive filling: bottleneck link1 at rate 5 freezes A and C;
        // B then grows to 95 on link2.
        let mut m = FluidModel::new();
        let l1 = m.add_resource(10.0);
        let l2 = m.add_resource(100.0);
        let a = m.add_activity(1e9, &[l1]);
        let b = m.add_activity(1e9, &[l2]);
        let c = m.add_activity(1e9, &[l1, l2]);
        assert!((m.rate(a).unwrap() - 5.0).abs() < 1e-9);
        assert!((m.rate(c).unwrap() - 5.0).abs() < 1e-9);
        assert!((m.rate(b).unwrap() - 95.0).abs() < 1e-9);
    }

    #[test]
    fn capacity_is_never_exceeded() {
        let mut m = FluidModel::new();
        let links: Vec<_> = (0..5)
            .map(|i| m.add_resource(10.0 * (i + 1) as f64))
            .collect();
        for i in 0..20 {
            let r1 = links[i % 5];
            let r2 = links[(i * 3 + 1) % 5];
            let route = if r1 == r2 { vec![r1] } else { vec![r1, r2] };
            m.add_activity(1e6, &route);
        }
        for (idx, &l) in links.iter().enumerate() {
            let alloc = m.allocated_on(l);
            let cap = 10.0 * (idx + 1) as f64;
            assert!(
                alloc <= cap + 1e-6,
                "resource {idx} over-allocated: {alloc} > {cap}"
            );
        }
    }

    #[test]
    fn removing_activity_restores_capacity() {
        let mut m = FluidModel::new();
        let link = m.add_resource(100.0);
        let a = m.add_activity(1e6, &[link]);
        let b = m.add_activity(1e6, &[link]);
        assert!((m.rate(b).unwrap() - 50.0).abs() < 1e-9);
        let remaining = m.remove_activity(a).unwrap();
        assert!(remaining > 0.0);
        assert!((m.rate(b).unwrap() - 100.0).abs() < 1e-9);
        assert!(m.remove_activity(a).is_none());
    }

    #[test]
    fn zero_work_activity_completes_immediately() {
        let mut m = FluidModel::new();
        let link = m.add_resource(100.0);
        let a = m.add_activity(0.0, &[link]);
        assert_eq!(m.time_to_next_completion().unwrap(), SimTime::ZERO);
        let done = m.advance(SimTime::ZERO);
        assert_eq!(done, vec![a]);
    }

    #[test]
    fn zero_work_activity_completes_even_when_it_is_rated_zero() {
        // A weight below EPSILON never finds a bottleneck, so the slow solve
        // leaves the fresh slot at the rate it was admitted with (zero): its
        // projection must be refreshed all the same.
        let mut m = FluidModel::new();
        let link = m.add_resource(100.0);
        let a = m.add_weighted_activity(0.0, &[link], 1e-10);
        assert_eq!(m.rate(a), Some(0.0));
        assert_eq!(m.time_to_next_completion(), Some(SimTime::ZERO));
        assert_eq!(m.advance(SimTime::ZERO), vec![a]);
    }

    #[test]
    fn set_capacity_changes_rates() {
        let mut m = FluidModel::new();
        let link = m.add_resource(100.0);
        let a = m.add_activity(1e6, &[link]);
        assert!((m.rate(a).unwrap() - 100.0).abs() < 1e-9);
        m.set_capacity(link, 10.0);
        assert!((m.rate(a).unwrap() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn sub_resolution_remnant_completes_with_the_advance_that_produced_it() {
        let mut m = FluidModel::new();
        let link = m.add_resource(1e9);
        let a = m.add_activity(1e9, &[link]);
        // Stop 500 ns short of the analytic completion time: the ~500 bytes
        // left are below the model's time resolution and must complete with
        // this advance rather than generate a separate sub-microsecond event
        // (which the engine could not resolve against the current timestamp).
        let done = m.advance(SimTime::from_secs(1.0 - 5e-7));
        assert_eq!(done, vec![a]);
        assert_eq!(m.activity_count(), 0);
    }

    #[test]
    fn completion_loop_converges_despite_floating_point_residue() {
        // Awkward, non-round capacities and amounts so that remaining work
        // accumulates floating-point residue; the advance-to-next-completion
        // loop must still terminate in a bounded number of steps.
        let mut m = FluidModel::new();
        let shared = m.add_resource(1.234_567_89e9);
        let uplink = m.add_resource(9.871_234_5e8);
        let mut ids = Vec::new();
        for i in 0..13 {
            let amount = 1.0e9 + (i as f64) * 0.123_456_7;
            let route = if i % 2 == 0 {
                vec![shared]
            } else {
                vec![shared, uplink]
            };
            ids.push(m.add_activity(amount, &route));
        }
        let mut steps = 0usize;
        let mut completed = 0usize;
        while let Some(dt) = m.time_to_next_completion() {
            completed += m.advance(dt).len();
            steps += 1;
            assert!(steps < 1_000, "completion loop did not converge");
            if m.activity_count() == 0 {
                break;
            }
        }
        assert_eq!(completed, ids.len());
        assert!(steps <= 2 * ids.len(), "too many advance steps: {steps}");
    }

    #[test]
    fn advance_until_empty_conserves_work() {
        let mut m = FluidModel::new();
        let link = m.add_resource(50.0);
        let work = [100.0, 200.0, 300.0];
        let mut ids = Vec::new();
        for w in work {
            ids.push(m.add_activity(w, &[link]));
        }
        let mut elapsed = 0.0;
        let mut completed = 0;
        while let Some(dt) = m.time_to_next_completion() {
            elapsed += dt.as_secs();
            completed += m.advance(dt).len();
            if completed == work.len() {
                break;
            }
        }
        assert_eq!(completed, 3);
        // Total work 600 through a 50-unit link, always saturated => 12s.
        assert!((elapsed - 12.0).abs() < 1e-6, "elapsed={elapsed}");
    }

    #[test]
    fn slots_are_reused_and_stale_ids_rejected() {
        let mut m = FluidModel::new();
        let link = m.add_resource(100.0);
        let a = m.add_activity(1e6, &[link]);
        assert_eq!(a.slot(), 0);
        assert_eq!(a.generation(), 0);
        m.remove_activity(a).unwrap();

        // The freed slot is recycled under a new generation.
        let b = m.add_activity(2e6, &[link]);
        assert_eq!(b.slot(), 0);
        assert_eq!(b.generation(), 1);
        assert_ne!(a, b);

        // The stale id misses every lookup instead of aliasing b.
        assert_eq!(m.remaining(a), None);
        assert_eq!(m.rate(a), None);
        assert_eq!(m.remove_activity(a), None);
        assert!((m.remaining(b).unwrap() - 2e6).abs() < 1e-9);
        assert_eq!(m.activity_count(), 1);
    }

    #[test]
    fn duplicate_resources_in_route_are_tolerated() {
        // A route listing the same resource twice inserts the slot twice into
        // that resource's user list; release must remove both copies (one per
        // occurrence in the activity's resource list), leaving no dangling
        // slot index behind.
        let mut m = FluidModel::new();
        let link = m.add_resource(100.0);
        let a = m.add_activity(100.0, &[link, link]);
        // The duplicated entry counts the weight twice, halving the rate —
        // same as the pre-slab behaviour.
        assert!((m.rate(a).unwrap() - 50.0).abs() < 1e-9);
        m.remove_activity(a).unwrap();

        // The slot recycles cleanly: a fresh activity not crossing the
        // duplicated entry sees the full capacity, completes, and the model
        // drains to empty (a stale user entry would corrupt the weight sums
        // or panic the freezing loop).
        let b = m.add_activity(100.0, &[link]);
        assert!((m.rate(b).unwrap() - 100.0).abs() < 1e-9);
        let done = m.advance(SimTime::from_secs(1.0));
        assert_eq!(done, vec![b]);
        assert_eq!(m.activity_count(), 0);
        assert!(m.time_to_next_completion().is_none());
    }

    #[test]
    fn completed_activity_id_is_stale_after_advance() {
        let mut m = FluidModel::new();
        let link = m.add_resource(100.0);
        let a = m.add_activity(100.0, &[link]);
        let done = m.advance(SimTime::from_secs(1.0));
        assert_eq!(done, vec![a]);
        assert_eq!(m.remaining(a), None);
        assert_eq!(m.rate(a), None);
    }

    #[test]
    fn rates_are_identical_under_permuted_insertion_order() {
        // Exactly representable capacities and unit weights: the max-min
        // allocation is then order-independent *bit for bit*, so two models
        // holding the same activity set in different slots must agree.
        let build = |order: &[usize]| {
            let mut m = FluidModel::new();
            let l1 = m.add_resource(8.0);
            let l2 = m.add_resource(2.0);
            let l3 = m.add_resource(16.0);
            let routes: [Vec<ResourceId>; 4] = [vec![l1], vec![l1, l2], vec![l2, l3], vec![l3]];
            let mut ids = vec![None; routes.len()];
            for &k in order {
                ids[k] = Some(m.add_activity(1e6, &routes[k]));
            }
            let rates: Vec<f64> = ids
                .into_iter()
                .map(|id| m.rate(id.expect("all inserted")).unwrap())
                .collect();
            rates
        };
        let forward = build(&[0, 1, 2, 3]);
        let reversed = build(&[3, 2, 1, 0]);
        let shuffled = build(&[2, 0, 3, 1]);
        for (i, r) in forward.iter().enumerate() {
            assert_eq!(r.to_bits(), reversed[i].to_bits(), "activity {i}");
            assert_eq!(r.to_bits(), shuffled[i].to_bits(), "activity {i}");
        }
    }

    #[test]
    fn recompute_is_identical_across_independently_built_models() {
        // Same construction sequence → bit-identical rates, including after
        // churn (removals re-sorting the user lists and recycling slots).
        let build = || {
            let mut m = FluidModel::new();
            let links: Vec<_> = (0..6).map(|i| m.add_resource(10.0 + i as f64)).collect();
            let mut ids = Vec::new();
            for i in 0..40 {
                let route = vec![links[i % 6], links[(i * 5 + 2) % 6]];
                ids.push(m.add_activity(1e5 + i as f64, &route));
            }
            for i in (0..40).step_by(3) {
                m.remove_activity(ids[i]);
            }
            for i in 0..10 {
                m.add_activity(5e4 + i as f64, &[links[i % 6]]);
            }
            let rates: Vec<((u32, u32), u64)> = m
                .rates()
                .into_iter()
                .map(|(id, r)| ((id.slot(), id.generation()), r.to_bits()))
                .collect();
            rates
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn activity_id_display_shows_slot_and_generation() {
        let mut m = FluidModel::new();
        let link = m.add_resource(1.0);
        let a = m.add_activity(1.0, &[link]);
        assert_eq!(format!("{a}"), "activity#0@0");
        m.remove_activity(a).unwrap();
        let b = m.add_activity(1.0, &[link]);
        assert_eq!(format!("{b}"), "activity#0@1");
    }

    // ---- incremental-solver specific tests --------------------------------

    #[test]
    fn disjoint_component_rates_are_untouched_by_churn_elsewhere() {
        // Two islands that never share a resource: churn in island B must
        // leave island A's rates bit-identical (its component is never
        // dirtied, so its slots are never rewritten).
        let mut m = FluidModel::new();
        let a1 = m.add_resource(10.0);
        let a2 = m.add_resource(7.0);
        let b1 = m.add_resource(100.0);
        let x = m.add_activity(1e9, &[a1, a2]);
        let y = m.add_activity(1e9, &[a1]);
        let rx = m.rate(x).unwrap();
        let ry = m.rate(y).unwrap();
        let mut others = Vec::new();
        for i in 0..50 {
            others.push(m.add_weighted_activity(1e9, &[b1], 1.0 + i as f64));
            if i % 3 == 0 {
                if let Some(&victim) = others.first() {
                    m.remove_activity(victim);
                    others.remove(0);
                }
            }
            // Query forces a solve of the dirty component (island B only).
            let _ = m.time_to_next_completion();
            assert_eq!(m.rate(x).unwrap().to_bits(), rx.to_bits());
            assert_eq!(m.rate(y).unwrap().to_bits(), ry.to_bits());
        }
    }

    #[test]
    fn incremental_rates_match_a_freshly_built_model_after_heavy_churn() {
        // Drive enough retires through the model to cross the partition
        // rebuild threshold several times, then compare against a fresh model
        // holding the same final activity set: rates must agree bit-for-bit
        // (the decomposition argument, exercised end-to-end).
        let mut m = FluidModel::new();
        let links: Vec<_> = (0..8).map(|i| m.add_resource(50.0 + i as f64)).collect();
        let mut live: Vec<(ActivityId, f64, Vec<ResourceId>, f64)> = Vec::new();
        let mut counter = 0u64;
        for step in 0..600 {
            if step % 3 == 2 && !live.is_empty() {
                let (id, _, _, _) = live.remove(step % live.len());
                m.remove_activity(id).unwrap();
            } else {
                counter += 1;
                let amount = 1e7 + counter as f64;
                let weight = 1.0 + (counter % 5) as f64;
                let r1 = links[(counter as usize) % 8];
                let r2 = links[(counter as usize * 5 + 1) % 8];
                let route = if r1 == r2 { vec![r1] } else { vec![r1, r2] };
                let id = m.add_weighted_activity(amount, &route, weight);
                live.push((id, amount, route, weight));
            }
            let _ = m.time_to_next_completion();
        }
        // Rebuild threshold is max(64, live): 200 retires crossed it.
        let mut fresh = FluidModel::new();
        for i in 0..8 {
            fresh.add_resource(50.0 + i as f64);
        }
        let mut fresh_of = std::collections::HashMap::new();
        for (id, amount, route, weight) in &live {
            fresh_of.insert(*id, fresh.add_weighted_activity(*amount, route, *weight));
        }
        for (id, _, _, _) in &live {
            let incremental = m.rate(*id).unwrap();
            let reference = fresh.rate(fresh_of[id]).unwrap();
            assert_eq!(incremental.to_bits(), reference.to_bits());
        }
    }

    #[test]
    fn re_rate_mid_flight_reprojects_completions() {
        // Two transfers on separate links; degrading one link mid-flight must
        // flip which activity completes next and keep remaining-work
        // accounting consistent.
        let mut m = FluidModel::new();
        let l1 = m.add_resource(100.0);
        let l2 = m.add_resource(100.0);
        let a = m.add_activity(1000.0, &[l1]); // 10s at full rate
        let b = m.add_activity(1500.0, &[l2]); // 15s at full rate
        assert!((m.time_to_next_completion().unwrap().as_secs() - 10.0).abs() < 1e-9);
        m.advance(SimTime::from_secs(5.0)); // a: 500 left, b: 1000 left
        m.set_capacity(l1, 10.0); // a now needs 50 more seconds
        let dt = m.time_to_next_completion().unwrap();
        assert!((dt.as_secs() - 10.0).abs() < 1e-9, "b finishes first now");
        let done = m.advance(dt);
        assert_eq!(done, vec![b]);
        assert!((m.remaining(a).unwrap() - 400.0).abs() < 1e-6);
        let dt = m.time_to_next_completion().unwrap();
        let done = m.advance(dt);
        assert_eq!(done, vec![a]);
        assert_eq!(m.activity_count(), 0);
    }

    #[test]
    fn set_capacity_to_same_value_does_not_dirty() {
        let mut m = FluidModel::new();
        let link = m.add_resource(100.0);
        let a = m.add_activity(1e6, &[link]);
        let r0 = m.rate(a).unwrap();
        m.set_capacity(link, 100.0); // bit-identical capacity: no-op
        assert_eq!(m.rate(a).unwrap().to_bits(), r0.to_bits());
    }

    #[test]
    fn advance_into_reuses_buffer_and_matches_advance() {
        let mut m = FluidModel::new();
        let link = m.add_resource(100.0);
        let a = m.add_activity(100.0, &[link]);
        let b = m.add_activity(100.0, &[link]);
        let mut buf = Vec::with_capacity(8);
        buf.push(ActivityId::pack(99, 99)); // stale content must be cleared
        m.advance_into(SimTime::from_secs(2.0), &mut buf);
        assert_eq!(buf, vec![a, b]);
        m.advance_into(SimTime::from_secs(1.0), &mut buf);
        assert!(buf.is_empty());
    }

    #[test]
    fn rates_into_reuses_buffer() {
        let mut m = FluidModel::new();
        let link = m.add_resource(100.0);
        let a = m.add_activity(1e6, &[link]);
        let mut buf = vec![(ActivityId::pack(7, 7), -1.0)];
        m.rates_into(&mut buf);
        assert_eq!(buf.len(), 1);
        assert_eq!(buf[0].0, a);
        assert!((buf[0].1 - 100.0).abs() < 1e-9);
    }

    // ---- single-bottleneck fast-path tests --------------------------------

    #[test]
    fn single_resource_component_takes_the_fast_path() {
        let mut m = FluidModel::new();
        let link = m.add_resource(100.0);
        let a = m.add_activity(1e6, &[link]);
        let b = m.add_activity(1e6, &[link]);
        assert!((m.rate(a).unwrap() - 50.0).abs() < 1e-9);
        assert!((m.rate(b).unwrap() - 50.0).abs() < 1e-9);
        let (fast, slow) = m.solver_stats();
        assert!(fast >= 1, "single-resource solve must take the fast path");
        assert_eq!(slow, 0);
    }

    #[test]
    fn steady_churn_on_a_stable_hub_skips_per_slot_filling() {
        // Equal-weight churn keeps Σw — and therefore φ — bitwise stable, so
        // after the first sweep every further solve touches only the freshly
        // admitted slot. We can't observe "no per-slot work" directly, but we
        // can pin that every solve stays on the fast path and rates stay
        // bit-identical to a freshly built model.
        let mut m = FluidModel::new();
        let hub = m.add_resource(1e9);
        let uplinks: Vec<_> = (0..4).map(|_| m.add_resource(1e12)).collect();
        let mut live: Vec<ActivityId> = (0..64)
            .map(|i| m.add_activity(1e12, &[uplinks[i % 4], hub]))
            .collect();
        let _ = m.time_to_next_completion();
        for i in 0..200 {
            let victim = live.remove(i % live.len());
            m.remove_activity(victim).unwrap();
            live.push(m.add_activity(1e12 + i as f64, &[uplinks[i % 4], hub]));
            let _ = m.time_to_next_completion();
        }
        let (fast, slow) = m.solver_stats();
        assert!(fast >= 200, "churn solves must stay on the fast path");
        assert_eq!(slow, 0);
        let expected: f64 = 1e9 / 64.0;
        for &id in &live {
            assert_eq!(m.rate(id).unwrap().to_bits(), expected.to_bits());
        }
    }

    #[test]
    fn component_migrates_between_fast_and_slow_modes() {
        // Start single-bottleneck (fast), admit an activity that makes a
        // second resource the binding constraint for part of the component
        // (slow), retire it (fast again) — rates always match a twin model
        // forced down the slow path.
        let mut m = FluidModel::new();
        let mut twin = FluidModel::new();
        twin.disable_fast_path();
        let l1 = m.add_resource(10.0);
        let l2 = m.add_resource(100.0);
        twin.add_resource(10.0);
        twin.add_resource(100.0);
        let check = |m: &mut FluidModel, twin: &mut FluidModel| {
            let rates: Vec<(ActivityId, u64)> = m
                .rates()
                .into_iter()
                .map(|(i, r)| (i, r.to_bits()))
                .collect();
            let twin_rates: Vec<(ActivityId, u64)> = twin
                .rates()
                .into_iter()
                .map(|(i, r)| (i, r.to_bits()))
                .collect();
            assert_eq!(rates, twin_rates);
        };

        // Phase 1: everything crosses l1 and is bottlenecked there.
        let _a = m.add_activity(1e9, &[l1, l2]);
        twin.add_activity(1e9, &[l1, l2]);
        let _c = m.add_activity(1e9, &[l1]);
        twin.add_activity(1e9, &[l1]);
        check(&mut m, &mut twin);
        let fast_after_phase1 = m.solver_stats().0;
        assert!(fast_after_phase1 >= 1, "single-bottleneck phase is fast");

        // Phase 2: an l2-only activity makes the component multi-constrained
        // (l2 users ≠ all activities, and l2 is not everyone's bottleneck).
        let b = m.add_activity(1e9, &[l2]);
        let b_twin = twin.add_activity(1e9, &[l2]);
        check(&mut m, &mut twin);
        let slow_after_phase2 = m.solver_stats().1;
        assert!(slow_after_phase2 >= 1, "multi-constrained phase is slow");

        // Phase 3: retiring the l2-only activity migrates the component back.
        m.remove_activity(b).unwrap();
        twin.remove_activity(b_twin).unwrap();
        check(&mut m, &mut twin);
        let (fast_final, slow_final) = m.solver_stats();
        assert!(fast_final > fast_after_phase1, "fast path re-engages");
        assert_eq!(slow_final, slow_after_phase2, "no further slow solves");
    }

    #[test]
    fn non_integer_weights_gate_the_component_to_the_slow_path() {
        let mut m = FluidModel::new();
        let link = m.add_resource(100.0);
        let a = m.add_weighted_activity(1e9, &[link], 1.5);
        let b = m.add_weighted_activity(1e9, &[link], 1.0);
        assert!((m.rate(a).unwrap() - 60.0).abs() < 1e-9);
        assert!((m.rate(b).unwrap() - 40.0).abs() < 1e-9);
        let (fast, slow) = m.solver_stats();
        assert_eq!(fast, 0, "fractional weights must not take the fast path");
        assert!(slow >= 1);

        // Draining the tainted resource heals it: a fresh integer-weight
        // activity set goes fast again.
        m.remove_activity(a).unwrap();
        m.remove_activity(b).unwrap();
        let _ = m.time_to_next_completion();
        let c = m.add_activity(1e9, &[link]);
        assert!((m.rate(c).unwrap() - 100.0).abs() < 1e-9);
        assert!(m.solver_stats().0 >= 1, "healed resource re-qualifies");
    }

    #[test]
    fn duplicate_route_entries_gate_the_component_to_the_slow_path() {
        let mut m = FluidModel::new();
        let link = m.add_resource(100.0);
        let a = m.add_activity(100.0, &[link, link]);
        assert!((m.rate(a).unwrap() - 50.0).abs() < 1e-9);
        assert_eq!(m.solver_stats().0, 0, "duplicated route must solve slow");
    }

    #[test]
    fn simultaneous_completions_pop_in_slot_order() {
        // Equal work on equal dedicated links: identical projections; the
        // heap's slot tie-break must hand them back in ascending slot order.
        let mut m = FluidModel::new();
        let ids: Vec<_> = (0..5)
            .map(|_| {
                let l = m.add_resource(100.0);
                m.add_activity(1000.0, &[l])
            })
            .collect();
        let done = m.advance(SimTime::from_secs(10.0));
        assert_eq!(done, ids);
    }
}
