//! Total-work accounting for the single-bottleneck fluid fast path.
//!
//! dslab's `FairThroughputSharingModel` observes that on a *single* fairly
//! shared resource the whole max-min problem degenerates: every activity's
//! rate is `φ·w_i` with one shared fair-share-per-weight `φ = C / Σw`, so the
//! solver only needs the capacity and the running weight sum — a "total work"
//! metric — instead of a per-activity filling pass. The same collapse happens
//! on any component with a provable single bottleneck: when one resource is
//! crossed by *every* activity of the component and wins the progressive
//! filling argmin, round one freezes everything and the solve is a single
//! division.
//!
//! [`TotalWorkIndex`] maintains, per resource:
//!
//! * the running weight sum over live route occurrences, updated at admit and
//!   retire time (the accounting analogue of dslab's cumulative TW metric);
//! * whether that running sum is **exact** — bit-for-bit what the slow path's
//!   ascending-order summation would produce. Integer-valued weights no
//!   larger than 2⁵³-bounded sums are associative in `f64` (every partial sum
//!   is an exactly representable integer), so the incremental total equals
//!   the recomputed total in any order. A non-integer or oversized weight
//!   taints the resource until its user list drains, and a tainted resource
//!   disqualifies its whole component from the fast path — the slow path is
//!   the semantics, the fast path only engages where it is provably
//!   bit-identical;
//! * the `φ` of the last fast solve that used the resource as its hub (NaN
//!   when no such solve is current). When a re-solve computes the same `φ`
//!   bitwise, every previously rated activity already holds `φ·w_i` and the
//!   solve touches only freshly admitted slots — steady churn on a
//!   single-bottleneck component does no per-slot filling at all.

use super::{ResourceState, EPSILON};

/// Largest weight accepted as exactly summable (2³²). Production weights are
/// far smaller: transfers use 1.0, time-shared execution uses core counts.
const MAX_EXACT_WEIGHT: f64 = 4_294_967_296.0;

/// Largest running sum guaranteed exact for integer addends in `f64` (2⁵³).
const MAX_EXACT_SUM: f64 = 9_007_199_254_740_992.0;

/// Per-resource total-work accounting: running weight sums with exactness
/// tracking, plus the cached fair share of the last single-bottleneck solve.
#[derive(Debug, Clone, Default)]
pub(super) struct TotalWorkIndex {
    /// Running weight sum over live route occurrences of each resource.
    weight_sum: Vec<f64>,
    /// Whether `weight_sum` is provably bit-identical to an ascending-order
    /// recompute (all-integer weights, sum within 2⁵³).
    exact: Vec<bool>,
    /// `φ` of the last fast solve with this resource as hub; NaN = invalid.
    phi: Vec<f64>,
}

impl TotalWorkIndex {
    pub(super) fn push_resource(&mut self) {
        self.weight_sum.push(0.0);
        self.exact.push(true);
        self.phi.push(f64::NAN);
    }

    /// Accounts one route occurrence of weight `w` on resource `r`.
    pub(super) fn add_weight(&mut self, r: usize, w: f64) {
        if w.fract() != 0.0 || w > MAX_EXACT_WEIGHT {
            self.exact[r] = false;
        }
        self.weight_sum[r] += w;
        if self.weight_sum[r] > MAX_EXACT_SUM {
            self.exact[r] = false;
        }
    }

    /// Removes one route occurrence of weight `w` from resource `r`.
    /// `now_empty` — the resource's user list drained with this removal —
    /// heals the running sum (and any accumulated taint) back to zero.
    pub(super) fn sub_weight(&mut self, r: usize, w: f64, now_empty: bool) {
        if now_empty {
            self.weight_sum[r] = 0.0;
            self.exact[r] = true;
        } else {
            self.weight_sum[r] -= w;
        }
    }

    /// Whether resource `r`'s running sum is bit-identical to a recompute.
    pub(super) fn is_exact(&self, r: u32) -> bool {
        self.exact[r as usize]
    }

    /// Running weight sum of resource `r`.
    pub(super) fn weight_sum(&self, r: u32) -> f64 {
        self.weight_sum[r as usize]
    }

    /// Cached fair share of resource `r` (NaN when invalid).
    pub(super) fn phi(&self, r: u32) -> f64 {
        self.phi[r as usize]
    }

    pub(super) fn set_phi(&mut self, r: u32, phi: f64) {
        self.phi[r as usize] = phi;
    }

    pub(super) fn invalidate_phi(&mut self, r: u32) {
        self.phi[r as usize] = f64::NAN;
    }

    /// Decides whether the component over `comp_res` (sorted ascending) is
    /// single-bottleneck-solvable, returning its hub resource and fair share
    /// per weight when it is.
    ///
    /// The rule mirrors the slow path's first round exactly: the hub is the
    /// first resource (ascending) minimising `capacity / Σw` over positive
    /// weight sums — the same argmin, over bitwise-equal sums (`exact` must
    /// hold on every member), with the same `>=`-keeps-earlier tie-break. The
    /// component qualifies when that hub is crossed by every live activity of
    /// the component (then round one freezes everything at `φ·w_i` and later
    /// rounds never run). Routes listing a resource twice (`dups > 0`) would
    /// double-count user-list entries, so they disqualify the component.
    pub(super) fn classify(
        &self,
        comp_res: &[u32],
        resources: &[ResourceState],
        acts: u32,
        dups: u32,
    ) -> Option<(u32, f64)> {
        if dups > 0 {
            return None;
        }
        let mut best: Option<(u32, f64)> = None;
        for &r in comp_res {
            if !self.exact[r as usize] {
                return None;
            }
            let ws = self.weight_sum[r as usize];
            if ws > EPSILON {
                let share = resources[r as usize].capacity / ws;
                match best {
                    Some((_, b)) if share >= b => {}
                    _ => best = Some((r, share)),
                }
            }
        }
        let (hub, phi) = best?;
        (resources[hub as usize].users.len() as u32 == acts).then_some((hub, phi))
    }
}
