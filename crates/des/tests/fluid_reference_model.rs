//! Lockstep equivalence test: the incremental component-based fluid solver
//! against an independent naive reference model.
//!
//! The reference model re-runs the *global* progressive-filling pass over the
//! whole constraint graph on every query — no components, no dirtiness, no
//! heap — with the same floating-point conventions as the production model
//! (ascending resource/slot iteration, remaining-work materialisation only on
//! bitwise rate change, projection-based completion). Random admit / retire /
//! re-rate / weighted-admit / advance sequences must then produce
//! **bit-identical** rates, remaining work, next-completion times and
//! completion ordering at every step; any divergence means the incremental
//! solver's dirty-component bookkeeping skipped (or spuriously re-ordered) a
//! recomputation the global pass would have performed.

use cgsim_des::fluid::{ActivityId, FluidModel, ResourceId, EPSILON, TIME_RESOLUTION_S};
use cgsim_des::{Rng, SimTime};
use proptest::prelude::*;

/// One activity of the reference model, stored at the slot index of the
/// production model's [`ActivityId`] so orderings coincide.
#[derive(Clone, Debug)]
struct RefActivity {
    id: ActivityId,
    route: Vec<usize>,
    weight: f64,
    /// Remaining work at `synced_at` (deferred, like the production model).
    remaining: f64,
    synced_at: f64,
    rate: f64,
}

/// Naive global-recompute reference model.
#[derive(Default)]
struct ReferenceModel {
    capacities: Vec<f64>,
    /// Slot-indexed live activities (mirrors the production slab layout).
    slots: Vec<Option<RefActivity>>,
    clock: f64,
}

impl ReferenceModel {
    fn add_resource(&mut self, capacity: f64) -> usize {
        self.capacities.push(capacity);
        self.capacities.len() - 1
    }

    fn add(&mut self, id: ActivityId, amount: f64, route: Vec<usize>, weight: f64) {
        let slot = id.slot() as usize;
        if slot >= self.slots.len() {
            self.slots.resize_with(slot + 1, || None);
        }
        assert!(self.slots[slot].is_none(), "slot collision");
        self.slots[slot] = Some(RefActivity {
            id,
            route,
            weight,
            remaining: amount,
            synced_at: self.clock,
            rate: 0.0,
        });
    }

    fn remove(&mut self, id: ActivityId) -> Option<f64> {
        let slot = id.slot() as usize;
        let act = self.slots.get_mut(slot)?.take()?;
        Some(act.remaining - act.rate * (self.clock - act.synced_at))
    }

    /// Full global progressive filling with deferred-remaining semantics.
    fn solve(&mut self) {
        let n_res = self.capacities.len();
        let mut residual = self.capacities.clone();
        let mut frozen = vec![false; self.slots.len()];
        let old_rates: Vec<f64> = self
            .slots
            .iter()
            .map(|s| s.as_ref().map_or(0.0, |a| a.rate))
            .collect();
        let mut unfrozen = 0usize;
        for act in self.slots.iter_mut().flatten() {
            act.rate = 0.0;
            unfrozen += 1;
        }
        while unfrozen > 0 {
            // Weight of unfrozen activities crossing each resource, with user
            // lists walked in ascending slot order.
            let mut weight_sum = vec![0.0f64; n_res];
            for (r, sum) in weight_sum.iter_mut().enumerate() {
                for (slot, act) in self.slots.iter().enumerate() {
                    let Some(act) = act else { continue };
                    if frozen[slot] {
                        continue;
                    }
                    for &route_r in &act.route {
                        if route_r == r {
                            *sum += act.weight;
                        }
                    }
                }
            }
            let mut bottleneck: Option<(usize, f64)> = None;
            for (r, &w) in weight_sum.iter().enumerate() {
                if w > EPSILON {
                    let share = residual[r] / w;
                    match bottleneck {
                        Some((_, best)) if share >= best => {}
                        _ => bottleneck = Some((r, share)),
                    }
                }
            }
            let Some((bottleneck_idx, fair)) = bottleneck else {
                break;
            };
            let mut froze_any = false;
            #[allow(clippy::needless_range_loop)] // lockstep with slab index order
            for slot in 0..self.slots.len() {
                let Some(act) = &self.slots[slot] else {
                    continue;
                };
                if frozen[slot] || !act.route.contains(&bottleneck_idx) {
                    continue;
                }
                let rate = fair * act.weight;
                for &r in &self.slots[slot].as_ref().unwrap().route {
                    residual[r] = (residual[r] - rate).max(0.0);
                }
                self.slots[slot].as_mut().unwrap().rate = rate;
                frozen[slot] = true;
                unfrozen -= 1;
                froze_any = true;
            }
            if !froze_any {
                break;
            }
        }
        // Materialise remaining work only where the rate changed bitwise —
        // the production model's reproducibility convention.
        let clock = self.clock;
        for (slot, act) in self.slots.iter_mut().enumerate() {
            let Some(act) = act else { continue };
            if act.rate.to_bits() != old_rates[slot].to_bits() {
                act.remaining -= old_rates[slot] * (clock - act.synced_at);
                act.synced_at = clock;
            }
        }
    }

    fn projection(act: &RefActivity) -> f64 {
        if act.remaining <= EPSILON {
            act.synced_at
        } else if act.rate > EPSILON {
            if act.remaining <= act.rate * TIME_RESOLUTION_S {
                act.synced_at
            } else {
                act.synced_at + act.remaining / act.rate
            }
        } else {
            f64::INFINITY
        }
    }

    fn time_to_next_completion(&mut self) -> Option<SimTime> {
        self.solve();
        let best = self
            .slots
            .iter()
            .flatten()
            .map(Self::projection)
            .filter(|p| p.is_finite())
            .fold(None, |best: Option<f64>, p| match best {
                Some(b) if b <= p => Some(b),
                _ => Some(p),
            })?;
        Some(SimTime::from_secs((best - self.clock).max(0.0)))
    }

    fn advance(&mut self, dt: SimTime) -> Vec<ActivityId> {
        self.solve();
        self.clock += dt.as_secs();
        let deadline = self.clock + TIME_RESOLUTION_S;
        let mut finished = Vec::new();
        for slot in 0..self.slots.len() {
            let Some(act) = &self.slots[slot] else {
                continue;
            };
            if Self::projection(act) <= deadline {
                finished.push(act.id);
                self.slots[slot] = None;
            }
        }
        finished
    }

    fn rates(&mut self) -> Vec<(ActivityId, f64)> {
        self.solve();
        self.slots
            .iter()
            .flatten()
            .map(|act| (act.id, act.rate))
            .collect()
    }

    fn remaining(&self, id: ActivityId) -> Option<f64> {
        let act = self.slots.get(id.slot() as usize)?.as_ref()?;
        Some(act.remaining - act.rate * (self.clock - act.synced_at))
    }
}

/// Which solver branches a run of cases went through, read off the
/// production model's counters after every operation.
#[derive(Debug, Default)]
struct Coverage {
    /// Operations whose solves re-keyed the completion heap in bulk.
    bulk_rekeys: u64,
    /// Operations that re-rated slots without any bulk re-key: every one of
    /// them went through the per-element `set`.
    per_element_rekeys: u64,
    /// Progressive-filling rounds in all-integer cases: every member
    /// resource's running sum is exact, so these start from the index.
    running_sum_rounds: u64,
    /// Rounds in all-fractional cases: every resource in use is tainted, so
    /// these re-sum the user lists.
    resummed_rounds: u64,
}

/// How a case draws its fairness weights.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Weights {
    /// `1 + k`: running sums stay exact, the fast path may engage.
    Integer,
    /// `1.25 + k/2`: every resource in use is tainted.
    Fractional,
    /// Either, per admit: components taint, heal and migrate mid-case.
    Mixed,
}

impl Weights {
    fn of_case(selector: usize) -> Self {
        [Weights::Integer, Weights::Fractional, Weights::Mixed][selector % 3]
    }

    fn draw(self, k: usize) -> f64 {
        let fractional = match self {
            Weights::Integer => false,
            Weights::Fractional => true,
            Weights::Mixed => k % 8 >= 4,
        };
        if fractional {
            1.25 + (k % 4) as f64 * 0.5
        } else {
            1.0 + (k % 4) as f64
        }
    }
}

/// The production model, a twin with the fast path disabled, and the naive
/// reference, driven in lockstep: every mutation is applied to all three and
/// every observable compared bit for bit. The twin pins fast-path/slow-path
/// *migration*: every op that moves a component between modes in `real` is
/// replayed on a model that never leaves the slow path.
struct Lockstep {
    real: FluidModel,
    twin: FluidModel,
    reference: ReferenceModel,
    resources: Vec<ResourceId>,
    /// Route and weight of every live activity, in admission order.
    live: Vec<(ActivityId, Vec<usize>, f64)>,
    weights: Weights,
    seen: cgsim_des::fluid::SolverCounters,
}

impl Lockstep {
    fn new(caps: &[f64], weights: Weights) -> Self {
        let mut real = FluidModel::new();
        let mut twin = FluidModel::new();
        twin.disable_fast_path();
        let mut reference = ReferenceModel::default();
        let resources = caps.iter().map(|&c| real.add_resource(c)).collect();
        for &c in caps {
            twin.add_resource(c);
            reference.add_resource(c);
        }
        Lockstep {
            real,
            twin,
            reference,
            resources,
            live: Vec::new(),
            weights,
            seen: Default::default(),
        }
    }

    fn admit(&mut self, amount: f64, route: Vec<usize>, weight: f64) {
        let ids: Vec<ResourceId> = route.iter().map(|&r| self.resources[r]).collect();
        let id = self.real.add_weighted_activity(amount, &ids, weight);
        assert_eq!(id, self.twin.add_weighted_activity(amount, &ids, weight));
        self.reference.add(id, amount, route.clone(), weight);
        self.live.push((id, route, weight));
    }

    /// Retires the `pick`-th live activity (modulo), returning its route and
    /// weight; `None` when nothing is live.
    fn retire(&mut self, pick: usize) -> Option<(Vec<usize>, f64)> {
        if self.live.is_empty() {
            return None;
        }
        let (id, route, weight) = self.live.remove(pick % self.live.len());
        let want = self.reference.remove(id).map(f64::to_bits);
        assert_eq!(self.real.remove_activity(id).map(f64::to_bits), want);
        assert_eq!(self.twin.remove_activity(id).map(f64::to_bits), want);
        Some((route, weight))
    }

    fn set_capacity(&mut self, r: usize, cap: f64) {
        self.real.set_capacity(self.resources[r], cap);
        self.twin.set_capacity(self.resources[r], cap);
        self.reference.capacities[r] = cap;
    }

    /// Compares the next completion, then advances all three models by
    /// `frac` of it and compares what completed.
    fn advance(&mut self, frac: f64) {
        self.check_next();
        if let Some(dt) = self.real.time_to_next_completion() {
            let dt = SimTime::from_secs(dt.as_secs() * frac);
            let done = self.reference.advance(dt);
            assert_eq!(self.real.advance(dt), done);
            assert_eq!(self.twin.advance(dt), done);
            self.live.retain(|(id, _, _)| !done.contains(id));
        }
    }

    fn check_next(&mut self) {
        let want = self.reference.time_to_next_completion();
        assert_eq!(self.real.time_to_next_completion(), want);
        assert_eq!(self.twin.time_to_next_completion(), want);
    }

    /// Invariants after every operation: rates, remaining work and
    /// next-completion agree bit-for-bit across all three models. Also
    /// books which solver branches the operation's solves took.
    fn check(&mut self, coverage: &mut Coverage) {
        let bits = |rates: Vec<(ActivityId, f64)>| -> Vec<(ActivityId, u64)> {
            rates.into_iter().map(|(id, r)| (id, r.to_bits())).collect()
        };
        let want = bits(self.reference.rates());
        assert_eq!(bits(self.real.rates()), want);
        assert_eq!(bits(self.twin.rates()), want);
        for (id, _, _) in &self.live {
            let want = self.reference.remaining(*id).map(f64::to_bits);
            assert_eq!(self.real.remaining(*id).map(f64::to_bits), want);
            assert_eq!(self.twin.remaining(*id).map(f64::to_bits), want);
        }
        self.check_next();
        assert_eq!(self.real.activity_count(), self.live.len());
        assert_eq!(self.twin.activity_count(), self.live.len());

        let now = self.real.solver_counters();
        let rounds = now.slow_rounds - self.seen.slow_rounds;
        match self.weights {
            Weights::Integer => coverage.running_sum_rounds += rounds,
            Weights::Fractional => coverage.resummed_rounds += rounds,
            Weights::Mixed => {}
        }
        if now.bulk_rekeys > self.seen.bulk_rekeys {
            coverage.bulk_rekeys += 1;
        } else if now.rerated_slots > self.seen.rerated_slots {
            coverage.per_element_rekeys += 1;
        }
        self.seen = now;
    }
}

proptest! {
    /// Random admit/retire/re-rate/advance sequences — including
    /// link-degradation-style `set_capacity` storms that repeatedly re-rate
    /// the same resource (degrade, deepen, restore) between admits and
    /// retires, single-resource topologies that qualify for the
    /// single-bottleneck fast path, retire+admit churn pairs that keep the
    /// hub's fair share bitwise-stable (the fast path's no-per-slot-work
    /// branch), and integer, fractional or mixed weights per case (running
    /// sums, the re-summing fallback, taint and healing): the incremental
    /// solver, a twin with the fast path disabled, and the naive reference
    /// agree bit-for-bit on every observable at every step.
    #[test]
    fn incremental_solver_matches_naive_reference(
        caps in prop::collection::vec(1.0f64..1000.0, 2..6),
        weights in 0usize..3,
        ops in prop::collection::vec(
            (0usize..10, 0usize..64, 0usize..64, 1.0f64..1e6, 0.05f64..0.95),
            1..80,
        ),
    ) {
        let mut m = Lockstep::new(&caps, Weights::of_case(weights));
        let mut coverage = Coverage::default();
        let n = caps.len();

        for &(kind, a, b, amount, frac) in &ops {
            match kind {
                // Weighted admit over a 1- or 2-resource route.
                0 | 1 => {
                    let (r1, r2) = (a % n, b % n);
                    let route = if r1 == r2 { vec![r1] } else { vec![r1, r2] };
                    let weight = if kind == 0 { 1.0 } else { m.weights.draw(b) };
                    m.admit(amount, route, weight);
                }
                2 => {
                    m.retire(a);
                }
                // Re-rate a resource.
                3 => m.set_capacity(a % n, 1.0 + amount % 999.0),
                // Advance exactly to the next completion.
                4 => m.advance(1.0),
                // Partial advance (a fraction of the next completion time).
                5 => m.advance(frac),
                // Degradation-style re-rate: scale one resource to a
                // fraction of its *nominal* capacity (how the simulation
                // core applies `GridAvailability::link_factor`).
                6 => m.set_capacity(a % n, caps[a % n] * frac),
                // Re-rate storm on a single resource: degrade, deepen, then
                // restore to nominal back-to-back — the overlapping
                // begin/begin/end sequences fault replay produces. Each step
                // must keep the dirty-component bookkeeping coherent even
                // though only the final value survives.
                7 => {
                    let r = b % n;
                    for step in [frac, frac * 0.5, 1.0] {
                        m.set_capacity(r, caps[r] * step);
                        // Interleave queries so every intermediate value is
                        // actually observed, not just the last one.
                        m.check_next();
                    }
                }
                // Single-resource admit: the trivially single-bottleneck
                // topology the fast path targets.
                8 => m.admit(amount, vec![a % n], 1.0),
                // Stable-φ churn pair: retire a live activity and admit a
                // replacement with the *same route and weight* before the
                // next query. The hub's weight sum — and therefore its fair
                // share — is bitwise-unchanged across the pair, driving the
                // fast path's only-rate-the-fresh-slot branch (the whole
                // point of the total-work accounting). Mixed with the other
                // kinds, this also produces fast/slow mode migration within
                // one sequence.
                _ => {
                    if let Some((route, weight)) = m.retire(a) {
                        m.admit(amount, route, weight);
                    }
                }
            }
            m.check(&mut coverage);
        }
    }
}

/// The checkpoint pile-up shape in lockstep: one hub link crossed by three
/// routes in four, each through one of six side links (every third one thin
/// enough to saturate before the hub), the rest staying on their side link;
/// 48–64 live activities; every step an admit or a retire that changes the
/// hub's weight sum, with completions, partial advances and hub degradations
/// in between. Components this large re-rate most of the heap per solve (the
/// bulk re-key); a side-link admit that moves nobody else's rate re-keys one
/// slot per element. Across the integer, fractional and mixed cases all four
/// branches must have run — otherwise the comparison above proves less than
/// it claims.
#[test]
fn pileup_shape_matches_naive_reference_on_every_branch() {
    const SIDES: usize = 6;
    let mut caps = vec![400.0];
    caps.extend((0..SIDES).map(|s| if s % 3 == 0 { 10.0 } else { 200.0 + s as f64 }));
    let mut coverage = Coverage::default();
    let mut rng = Rng::new(15);

    for case in 0..9 {
        let mut m = Lockstep::new(&caps, Weights::of_case(case));
        let admit = |m: &mut Lockstep, rng: &mut Rng| {
            let side = 1 + rng.index(SIDES);
            let route = if rng.index(4) == 0 {
                vec![side]
            } else {
                vec![side, 0]
            };
            let weight = m.weights.draw(rng.index(8));
            m.admit(1e4 + rng.index(1000) as f64 * 97.0, route, weight);
        };
        for _ in 0..56 {
            admit(&mut m, &mut rng);
        }
        for step in 0..120 {
            match step % 8 {
                3 => m.advance(1.0),
                5 => m.advance(0.25 + rng.index(50) as f64 / 100.0),
                7 => m.set_capacity(0, caps[0] * if step % 16 == 7 { 0.3 } else { 1.0 }),
                _ => {}
            }
            // Refill what completed, then one admit or retire of this step's
            // own: the hub's weight sum moves and 48..=64 stay live.
            while m.live.len() < 49 {
                admit(&mut m, &mut rng);
            }
            if m.live.len() < 64 && rng.index(2) == 0 {
                admit(&mut m, &mut rng);
            } else {
                m.retire(rng.index(64));
            }
            m.check(&mut coverage);
            assert!((48..=64).contains(&m.live.len()));
        }
    }
    assert!(coverage.bulk_rekeys > 0, "{coverage:?}");
    assert!(coverage.per_element_rekeys > 0, "{coverage:?}");
    assert!(coverage.running_sum_rounds > 0, "{coverage:?}");
    assert!(coverage.resummed_rounds > 0, "{coverage:?}");
}

/// Forced-full-recompute twin probe at scale: 300 dense-churn steps over a
/// single-bottleneck topology at N=5000 (32 uplinks feeding one backbone,
/// equal-weight churn — the shape the fast path's stable-φ branch serves),
/// plus a multi-constrained island sharing the model so both solve modes run
/// side by side. After every step the production model must agree on **every
/// rate** with a twin that (a) has the fast path disabled and (b) is forced
/// to re-solve every component from scratch before each query.
#[test]
fn forced_full_recompute_twin_agrees_at_n5000() {
    let n: usize = 5000;
    let uplink_count = 32;
    let mut real = FluidModel::new();
    let mut twin = FluidModel::new();
    twin.disable_fast_path();

    let backbone = real.add_resource(1e9);
    let uplinks: Vec<ResourceId> = (0..uplink_count)
        .map(|i| real.add_resource(1e12 + i as f64 * 1e9))
        .collect();
    // Multi-constrained island: two cross-coupled links that never qualify
    // for the fast path (no hub is crossed by all of its activities).
    let isl_a = real.add_resource(10.0);
    let isl_b = real.add_resource(100.0);
    twin.add_resource(1e9);
    for i in 0..uplink_count {
        twin.add_resource(1e12 + i as f64 * 1e9);
    }
    twin.add_resource(10.0);
    twin.add_resource(100.0);

    let route = |i: usize| [uplinks[i % uplink_count], backbone];
    let mut live: Vec<ActivityId> = (0..n)
        .map(|i| {
            let id = real.add_activity(1e12 + i as f64, &route(i));
            assert_eq!(id, twin.add_activity(1e12 + i as f64, &route(i)));
            id
        })
        .collect();
    for (amount, r) in [
        (1e9, vec![isl_a]),
        (1e9, vec![isl_a, isl_b]),
        (1e9, vec![isl_b]),
    ] {
        let id = real.add_activity(amount, &r);
        assert_eq!(id, twin.add_activity(amount, &r));
    }

    let mut real_rates = Vec::new();
    let mut twin_rates = Vec::new();
    let mut step_base = 0u64;
    for step in 0..300 {
        let slot = step % live.len();
        let victim = live[slot];
        assert_eq!(
            real.remove_activity(victim).map(f64::to_bits),
            twin.remove_activity(victim).map(f64::to_bits),
            "step {step}: removed remaining diverged"
        );
        step_base += 1;
        let amount = 1e12 + step_base as f64;
        let id = real.add_activity(amount, &route(step));
        assert_eq!(id, twin.add_activity(amount, &route(step)));
        live[slot] = id;

        // Forced full recompute on the twin: every component re-solved from
        // scratch by the slow path before the query.
        twin.mark_all_dirty();
        real.rates_into(&mut real_rates);
        twin.rates_into(&mut twin_rates);
        assert_eq!(real_rates.len(), twin_rates.len());
        for (got, want) in real_rates.iter().zip(&twin_rates) {
            assert_eq!(got.0, want.0, "step {step}: id order diverged");
            assert_eq!(
                got.1.to_bits(),
                want.1.to_bits(),
                "step {step}: rate of {} diverged: {} vs {}",
                got.0,
                got.1,
                want.1
            );
        }
        assert_eq!(
            real.time_to_next_completion(),
            twin.time_to_next_completion(),
            "step {step}: next completion diverged"
        );
    }
    let (fast, slow) = real.solver_stats();
    assert!(fast > 0, "the dense component must use the fast path");
    assert!(slow > 0, "the island must use the slow path");
}
