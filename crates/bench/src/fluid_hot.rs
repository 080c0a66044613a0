//! Fluid-solver hot-path scenarios timed by the CI perf-gate binary
//! (`src/bin/fluid_perf_gate.rs`) against `BENCH_fluid.json`.
//!
//! Three topologies probe the regimes of the incremental max-min solver:
//!
//! * **Sparse** — many independent two-link "islands" of
//!   `ISLAND_ACTS` activities each: one churn step dirties a single
//!   island, so the per-recompute cost is ~component-sized and independent
//!   of the total concurrency N. This is the common production shape (one
//!   transfer finishes, one starts, most of the grid untouched) and the case
//!   the ≥5× @5k speedup target in ISSUE 4 refers to.
//! * **Single-bottleneck** — 32 fat uplinks all feeding one thin backbone
//!   link crossed by every activity (the checkpoint-burst / correlated-storm
//!   shape). The component is one dense graph, but the backbone is a
//!   provable single bottleneck, so the total-work fast path
//!   solves it in O(log n) per churn step: equal-weight churn keeps the
//!   backbone's fair share bitwise-stable and `ensure_shares` only rates the
//!   freshly admitted slot — no per-slot filling at all.
//!   [`hub_resize_churn`] drives the same topology with steps that *change*
//!   the backbone's weight sum, so the fair share moves every time and each
//!   solve re-rates the whole component: the fast path's linear branch.
//! * **Pile-up** — a main-server link under 12 sites with a LAN and a WAN
//!   each; two thirds of the activities cross LAN → WAN → main server, the
//!   rest stay on their LAN (the checkpoint pile-up shape). Thin WANs
//!   saturate first, then the main server, then the LANs: several bottleneck
//!   levels in one component, so every step takes progressive filling and
//!   re-rates most of the completion heap.
//!
//! These are the builders the committed baseline rows were recorded with, so
//! the gate times exactly the scenario those numbers describe.

use cgsim_des::fluid::{ActivityId, FluidModel, ResourceId};

/// A topology builder: the model pre-populated with `n` activities, its
/// links, and the ids of the activities.
pub type Build = fn(usize) -> (FluidModel, Vec<ResourceId>, Vec<ActivityId>);

/// A churn driver: `steps` mutate/recompute cycles on a built topology, with
/// the admission counter carried across calls in `step_base`. Returns an
/// accumulator so the work cannot be optimised away.
pub type Churn = fn(&mut FluidModel, &[ResourceId], &mut [ActivityId], &mut usize, usize) -> f64;

/// Activities per independent island in the sparse topology.
pub(crate) const ISLAND_ACTS: usize = 4;

/// Route of a sparse-island activity: one of the island's two links, or both.
pub(crate) fn sparse_route(links: &[ResourceId], island: usize, variant: usize) -> Vec<ResourceId> {
    let l0 = links[2 * island];
    let l1 = links[2 * island + 1];
    match variant % 3 {
        0 => vec![l0],
        1 => vec![l1],
        _ => vec![l0, l1],
    }
}

/// Builds the sparse topology: `n / ISLAND_ACTS` disjoint two-link islands
/// holding `n` activities in total.
pub fn build_sparse(n: usize) -> (FluidModel, Vec<ResourceId>, Vec<ActivityId>) {
    let islands = (n / ISLAND_ACTS).max(1);
    let mut m = FluidModel::new();
    let links: Vec<ResourceId> = (0..2 * islands)
        .map(|i| m.add_resource(1e9 + (i as f64) * 1e6))
        .collect();
    let ids: Vec<ActivityId> = (0..n)
        .map(|j| {
            let island = j % islands;
            m.add_activity(1e12, &sparse_route(&links, island, j / islands))
        })
        .collect();
    (m, links, ids)
}

/// `steps` sparse churn cycles: each step retires and re-admits one activity
/// inside a single island (1 change per recompute), leaving every other
/// component untouched — the incremental solver's sweet spot.
pub fn sparse_churn(
    m: &mut FluidModel,
    links: &[ResourceId],
    ids: &mut [ActivityId],
    step_base: &mut usize,
    steps: usize,
) -> f64 {
    let n = ids.len();
    let islands = links.len() / 2;
    let mut acc = 0.0;
    for _ in 0..steps {
        let step = *step_base;
        *step_base += 1;
        let victim = step % n;
        let island = victim % islands;
        m.remove_activity(ids[victim]);
        ids[victim] = m.add_activity(
            1e12,
            &sparse_route(links, island, step / n + victim / islands),
        );
        acc += m.time_to_next_completion().map_or(0.0, |t| t.as_secs());
    }
    acc
}

/// Number of fat uplinks feeding the backbone in the single-bottleneck
/// topology.
pub(crate) const BOTTLENECK_UPLINKS: usize = 32;

/// Route of single-bottleneck activity `i`: one fat uplink plus the shared
/// thin backbone (`links[0]`) every activity crosses.
pub(crate) fn single_bottleneck_route(links: &[ResourceId], i: usize) -> Vec<ResourceId> {
    vec![links[1 + i % BOTTLENECK_UPLINKS], links[0]]
}

/// Builds the single-bottleneck topology pre-populated with `n` activities:
/// `links[0]` is the thin backbone (the provable bottleneck), the rest are
/// fat uplinks that never saturate.
pub fn build_single_bottleneck(n: usize) -> (FluidModel, Vec<ResourceId>, Vec<ActivityId>) {
    let mut m = FluidModel::new();
    let mut links = vec![m.add_resource(1e9)];
    links.extend((0..BOTTLENECK_UPLINKS).map(|i| m.add_resource(1e12 + (i as f64) * 1e9)));
    let ids: Vec<ActivityId> = (0..n)
        .map(|i| m.add_activity(1e12, &single_bottleneck_route(&links, i)))
        .collect();
    (m, links, ids)
}

/// `steps` retire/admit/recompute cycles at steady concurrency on the
/// single-bottleneck topology. Equal-weight churn keeps the backbone's
/// weight sum — and therefore its fair share — bitwise-stable, so each
/// recompute takes the fast path's rate-only-the-fresh-slot branch.
pub fn single_bottleneck_churn(
    m: &mut FluidModel,
    links: &[ResourceId],
    ids: &mut [ActivityId],
    step_base: &mut usize,
    steps: usize,
) -> f64 {
    let mut acc = 0.0;
    for _ in 0..steps {
        let step = *step_base;
        *step_base += 1;
        let slot = step % ids.len();
        m.remove_activity(ids[slot]);
        ids[slot] = m.add_activity(1e12, &single_bottleneck_route(links, ids.len() + step));
        acc += m.time_to_next_completion().map_or(0.0, |t| t.as_secs());
    }
    acc
}

/// `steps` (an even number) single mutations on the single-bottleneck
/// topology, alternating a retire with the admit that refills its place.
/// Concurrency swings between `n - 1` and `n`, so the backbone's fair share
/// differs from the cached one at every solve and the fast path re-rates —
/// and re-keys — the whole component each step.
pub fn hub_resize_churn(
    m: &mut FluidModel,
    links: &[ResourceId],
    ids: &mut [ActivityId],
    step_base: &mut usize,
    steps: usize,
) -> f64 {
    let mut acc = 0.0;
    for _ in 0..steps {
        let step = *step_base;
        *step_base += 1;
        let slot = (step / 2) % ids.len();
        if step.is_multiple_of(2) {
            m.remove_activity(ids[slot]);
        } else {
            ids[slot] = m.add_activity(1e12, &single_bottleneck_route(links, ids.len() + step));
        }
        acc += m.time_to_next_completion().map_or(0.0, |t| t.as_secs());
    }
    acc
}

/// Sites of the pile-up topology (a LAN and a WAN link each) under one
/// main-server link (`links[0]`).
pub const PILEUP_SITES: usize = 12;

/// Route of pile-up activity `i`: every third lap of the sites stays on the
/// site's LAN, the others cross LAN → WAN → main server.
pub(crate) fn pileup_route(links: &[ResourceId], i: usize) -> Vec<ResourceId> {
    let site = i % PILEUP_SITES;
    let (lan, wan) = (links[1 + 2 * site], links[2 + 2 * site]);
    if (i / PILEUP_SITES).is_multiple_of(3) {
        vec![lan]
    } else {
        vec![lan, wan, links[0]]
    }
}

/// Builds the pile-up topology pre-populated with `n` activities: a 4 GB/s
/// main server, LANs of 2 GB/s and up, WANs of 1 GB/s with every third site
/// on a thin 100 MB/s one.
pub fn build_pileup(n: usize) -> (FluidModel, Vec<ResourceId>, Vec<ActivityId>) {
    let mut m = FluidModel::new();
    let mut links = vec![m.add_resource(4e9)];
    for s in 0..PILEUP_SITES {
        links.push(m.add_resource(2e9 + s as f64 * 1e8));
        links.push(m.add_resource(if s % 3 == 0 { 1e8 } else { 1e9 }));
    }
    let ids: Vec<ActivityId> = (0..n)
        .map(|i| m.add_activity(1e15, &pileup_route(&links, i)))
        .collect();
    (m, links, ids)
}

/// `steps` retire/admit/recompute cycles at steady concurrency on the
/// pile-up topology: every step is a multi-round progressive-filling solve
/// of the one big component.
pub fn pileup_churn(
    m: &mut FluidModel,
    links: &[ResourceId],
    ids: &mut [ActivityId],
    step_base: &mut usize,
    steps: usize,
) -> f64 {
    let mut acc = 0.0;
    for _ in 0..steps {
        let step = *step_base;
        *step_base += 1;
        let slot = step % ids.len();
        m.remove_activity(ids[slot]);
        ids[slot] = m.add_activity(1e15, &pileup_route(links, ids.len() + step));
        acc += m.time_to_next_completion().map_or(0.0, |t| t.as_secs());
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hub_resize_churn_re_rates_the_component_every_step() {
        let (mut m, links, mut ids) = build_single_bottleneck(256);
        let _ = m.time_to_next_completion();
        let before = m.solver_counters();
        let mut step = 0;
        hub_resize_churn(&mut m, &links, &mut ids, &mut step, 200);
        assert_eq!(m.activity_count(), 256);
        assert_eq!(m.solver_stats().1, 0, "the backbone stays the only hub");
        let after = m.solver_counters();
        // 100 solves over 255 activities, 100 over 256 — never just the
        // fresh slot — and each one a bulk re-key of the whole heap.
        assert_eq!(
            after.rerated_slots - before.rerated_slots,
            100 * (255 + 256)
        );
        assert_eq!(after.bulk_rekeys - before.bulk_rekeys, 200);
    }

    #[test]
    fn pileup_churn_takes_multi_round_progressive_filling() {
        let (mut m, links, mut ids) = build_pileup(240);
        let _ = m.time_to_next_completion();
        let (fast_before, slow_before) = m.solver_stats();
        let rounds_before = m.solver_counters().slow_rounds;
        let mut step = 0;
        pileup_churn(&mut m, &links, &mut ids, &mut step, 100);
        assert_eq!(m.activity_count(), 240);
        let (fast, slow) = m.solver_stats();
        assert_eq!(fast, fast_before, "no link is crossed by every activity");
        assert_eq!(slow - slow_before, 100);
        let rounds = m.solver_counters().slow_rounds - rounds_before;
        assert!(rounds >= 300, "three bottleneck levels at least: {rounds}");
    }

    #[test]
    fn single_bottleneck_churn_stays_on_the_fast_path() {
        let (mut m, links, mut ids) = build_single_bottleneck(256);
        let _ = m.time_to_next_completion();
        let (_, slow_before) = m.solver_stats();
        let mut step = 0;
        single_bottleneck_churn(&mut m, &links, &mut ids, &mut step, 200);
        assert_eq!(m.activity_count(), 256);
        let (fast, slow) = m.solver_stats();
        assert!(fast >= 200, "churn must be served by the fast path: {fast}");
        assert_eq!(slow, slow_before, "churn must never fall back to slow");
    }

    #[test]
    fn sparse_topology_is_island_disjoint() {
        let (mut m, links, ids) = build_sparse(64);
        assert_eq!(links.len(), 2 * (64 / ISLAND_ACTS));
        assert_eq!(ids.len(), 64);
        assert_eq!(m.activity_count(), 64);
        let _ = m.time_to_next_completion();
    }

    #[test]
    fn churn_keeps_concurrency_steady() {
        let (mut m, links, mut ids) = build_sparse(32);
        let mut step = 0;
        sparse_churn(&mut m, &links, &mut ids, &mut step, 100);
        assert_eq!(m.activity_count(), 32);
    }
}
