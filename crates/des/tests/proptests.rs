//! Property-based tests for the DES substrate.

use cgsim_des::stats::{geometric_mean, mean, percentile_sorted, Summary};
use cgsim_des::{EventQueue, FluidModel, Rng, SimTime};
use proptest::prelude::*;

/// The sort-based `Summary::of` that selection replaced.
fn summary_by_sorting(values: &[f64]) -> Summary {
    let mut sorted = values.to_vec();
    sorted.sort_unstable_by(|a, b| a.partial_cmp(b).expect("NaN in sample"));
    let (mut mean, mut m2) = (0.0, 0.0);
    for (i, &x) in values.iter().enumerate() {
        let delta = x - mean;
        mean += delta / (i + 1) as f64;
        m2 += delta * (x - mean);
    }
    let std_dev = if values.len() < 2 {
        0.0
    } else {
        (m2 / values.len() as f64).sqrt()
    };
    Summary {
        count: values.len(),
        mean,
        std_dev,
        min: sorted[0],
        p50: percentile_sorted(&sorted, 50.0),
        p95: percentile_sorted(&sorted, 95.0),
        p99: percentile_sorted(&sorted, 99.0),
        max: sorted[sorted.len() - 1],
    }
}

proptest! {
    /// Events pop in non-decreasing time order and every live event is
    /// delivered exactly once.
    #[test]
    fn event_queue_orders_and_conserves(times in prop::collection::vec(0.0f64..1e6, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_secs(t), i);
        }
        let mut last = SimTime::ZERO;
        let mut seen = vec![false; times.len()];
        while let Some(ev) = q.pop() {
            prop_assert!(ev.time >= last);
            last = ev.time;
            prop_assert!(!seen[ev.event]);
            seen[ev.event] = true;
        }
        prop_assert!(seen.iter().all(|&s| s));
    }

    /// Cancelled events are never delivered; everything else is.
    #[test]
    fn event_queue_cancellation(times in prop::collection::vec(0.0f64..1e3, 1..100),
                                cancel_mask in prop::collection::vec(any::<bool>(), 1..100)) {
        let mut q = EventQueue::new();
        let mut keys = Vec::new();
        for (i, &t) in times.iter().enumerate() {
            keys.push(q.schedule(SimTime::from_secs(t), i));
        }
        let mut cancelled = std::collections::HashSet::new();
        for (i, &c) in cancel_mask.iter().enumerate() {
            if c && i < keys.len() {
                q.cancel(keys[i]);
                cancelled.insert(i);
            }
        }
        let mut delivered = std::collections::HashSet::new();
        while let Some(ev) = q.pop() {
            delivered.insert(ev.event);
        }
        for i in 0..times.len() {
            if cancelled.contains(&i) {
                prop_assert!(!delivered.contains(&i));
            } else {
                prop_assert!(delivered.contains(&i));
            }
        }
    }

    /// Arbitrary interleavings of pops and (possibly stale) cancels never
    /// corrupt the live count: `len()` always equals scheduled − delivered −
    /// cancelled. Regression property for the cancel-after-delivery bug,
    /// where a consumed key left a permanent tombstone and `len()`
    /// underflowed `usize`.
    #[test]
    fn event_queue_len_is_always_consistent(
        times in prop::collection::vec(0.0f64..1e3, 1..100),
        ops in prop::collection::vec((any::<bool>(), 0usize..100), 1..200),
    ) {
        let mut q = EventQueue::new();
        let mut keys = Vec::new();
        for (i, &t) in times.iter().enumerate() {
            keys.push(q.schedule(SimTime::from_secs(t), i));
        }
        let mut delivered = 0usize;
        let mut cancelled = 0usize;
        for &(do_pop, k) in &ops {
            if do_pop {
                if q.pop().is_some() {
                    delivered += 1;
                }
            } else if q.cancel(keys[k % keys.len()]) {
                cancelled += 1;
            }
        }
        prop_assert_eq!(q.len(), times.len() - delivered - cancelled);
        prop_assert_eq!(q.cancelled_total() as usize, cancelled);
        prop_assert_eq!(q.scheduled_total() as usize, times.len());
    }

    /// Two models built from the same scenario description produce
    /// bit-identical max-min rates — the determinism contract of the
    /// slab-indexed fluid model.
    #[test]
    fn fluid_rates_reproducible_across_rebuilds(
        caps in prop::collection::vec(1.0f64..1000.0, 1..8),
        activities in prop::collection::vec((0usize..8, 0usize..8, 1.0f64..1e6), 1..40),
    ) {
        let build = || {
            let mut m = FluidModel::new();
            let ids: Vec<_> = caps.iter().map(|&c| m.add_resource(c)).collect();
            for &(a, b, work) in &activities {
                let r1 = ids[a % ids.len()];
                let r2 = ids[b % ids.len()];
                let route = if r1 == r2 { vec![r1] } else { vec![r1, r2] };
                m.add_activity(work, &route);
            }
            m.rates()
                .into_iter()
                .map(|(id, r)| (id, r.to_bits()))
                .collect::<Vec<_>>()
        };
        prop_assert_eq!(build(), build());
    }

    /// Max-min sharing never over-allocates any resource and never assigns a
    /// negative rate.
    #[test]
    fn fluid_respects_capacities(
        caps in prop::collection::vec(1.0f64..1000.0, 1..8),
        activities in prop::collection::vec((0usize..8, 0usize..8, 1.0f64..1e6), 1..40),
    ) {
        let mut m = FluidModel::new();
        let ids: Vec<_> = caps.iter().map(|&c| m.add_resource(c)).collect();
        for &(a, b, work) in &activities {
            let r1 = ids[a % ids.len()];
            let r2 = ids[b % ids.len()];
            let route = if r1 == r2 { vec![r1] } else { vec![r1, r2] };
            m.add_activity(work, &route);
        }
        for (i, &r) in ids.iter().enumerate() {
            let alloc = m.allocated_on(r);
            prop_assert!(alloc <= caps[i] * (1.0 + 1e-6) + 1e-9,
                "resource {} over-allocated: {} > {}", i, alloc, caps[i]);
        }
        for (_, rate) in m.rates() {
            prop_assert!(rate >= 0.0);
        }
    }

    /// Advancing the fluid model until all activities finish conserves work:
    /// the saturated single-link case completes in total_work / capacity.
    #[test]
    fn fluid_single_link_work_conservation(
        cap in 1.0f64..500.0,
        works in prop::collection::vec(1.0f64..1e4, 1..20),
    ) {
        let mut m = FluidModel::new();
        let link = m.add_resource(cap);
        for &w in &works {
            m.add_activity(w, &[link]);
        }
        let mut elapsed = 0.0;
        let mut guard = 0;
        while m.activity_count() > 0 {
            let dt = m.time_to_next_completion().expect("in-flight activities");
            elapsed += dt.as_secs();
            m.advance(dt);
            guard += 1;
            prop_assert!(guard < 10_000);
        }
        let expected = works.iter().sum::<f64>() / cap;
        prop_assert!((elapsed - expected).abs() < expected * 1e-6 + 1e-6,
            "elapsed {} vs expected {}", elapsed, expected);
    }

    /// Percentiles stay inside [min, max] and the median of a sorted sample is
    /// monotone in the requested percentile.
    #[test]
    fn percentiles_are_bounded_and_monotone(values in prop::collection::vec(-1e6f64..1e6, 1..200)) {
        let mut sorted = values.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let p10 = percentile_sorted(&sorted, 10.0);
        let p50 = percentile_sorted(&sorted, 50.0);
        let p90 = percentile_sorted(&sorted, 90.0);
        prop_assert!(p10 >= sorted[0] - 1e-9);
        prop_assert!(p90 <= sorted[sorted.len() - 1] + 1e-9);
        prop_assert!(p10 <= p50 + 1e-9);
        prop_assert!(p50 <= p90 + 1e-9);
    }

    /// The geometric mean of positive values never exceeds the arithmetic mean
    /// (AM–GM inequality).
    #[test]
    fn am_gm_inequality(values in prop::collection::vec(1e-3f64..1e6, 1..100)) {
        let gm = geometric_mean(&values);
        let am = mean(&values);
        prop_assert!(gm <= am * (1.0 + 1e-9));
    }

    /// Uniform samples stay in [0,1) and weighted choice never picks an index
    /// whose weight is zero.
    #[test]
    fn rng_uniform_and_weighted(seed in any::<u64>(), weights in prop::collection::vec(0.0f64..10.0, 2..10)) {
        let mut rng = Rng::new(seed);
        for _ in 0..100 {
            let u = rng.uniform();
            prop_assert!((0.0..1.0).contains(&u));
        }
        if weights.iter().sum::<f64>() > 0.0 {
            for _ in 0..100 {
                let idx = rng.weighted_index(&weights);
                prop_assert!(weights[idx] > 0.0);
            }
        }
    }

    /// Summary::of never panics on finite inputs and is internally consistent.
    #[test]
    fn summary_consistency(values in prop::collection::vec(-1e6f64..1e6, 1..300)) {
        let s = Summary::of(&values).unwrap();
        prop_assert_eq!(s.count, values.len());
        prop_assert!(s.min <= s.p50 + 1e-9);
        prop_assert!(s.p50 <= s.max + 1e-9);
        prop_assert!(s.std_dev >= 0.0);
    }

    /// `Summary::of` selects its order statistics; its twin sorts and reads
    /// `percentile_sorted`. Every field agrees bit for bit, on samples full
    /// of duplicates and negatives, and on their prefixes of 1, 2 and 3.
    #[test]
    fn summary_matches_its_sorting_twin(
        values in prop::collection::vec(
            (0usize..3, -1e6f64..1e6).prop_map(|(pick, random)| match pick {
                // `+ 0.0` turns a rounded -0.0 into 0.0: the two compare
                // equal, so which one a sort puts first is unspecified.
                0 => (random / 1e5).round() + 0.0,
                1 => (random / 1e5).round() / 2.0 + 0.0,
                _ => random,
            }),
            1..400,
        ),
    ) {
        for n in [1, 2, 3, values.len()] {
            let sample = &values[..n.min(values.len())];
            let bits = |s: &Summary| {
                [s.mean, s.std_dev, s.min, s.p50, s.p95, s.p99, s.max].map(f64::to_bits)
            };
            let (fast, twin) = (Summary::of(sample).unwrap(), summary_by_sorting(sample));
            prop_assert_eq!(fast.count, twin.count);
            prop_assert_eq!(bits(&fast), bits(&twin), "{:?}", sample);
        }
    }

    /// The engine's clock never runs backwards for arbitrarily interleaved
    /// scheduling patterns.
    #[test]
    fn engine_clock_is_monotone(delays in prop::collection::vec(0.0f64..100.0, 1..100)) {
        use cgsim_des::{Context, Engine, EventHandler};

        struct Model {
            delays: Vec<f64>,
            cursor: usize,
            observed: Vec<f64>,
        }
        impl EventHandler<u32> for Model {
            fn handle(&mut self, ctx: &mut Context<'_, u32>, _event: u32) {
                self.observed.push(ctx.now().as_secs());
                if self.cursor < self.delays.len() {
                    let d = self.delays[self.cursor];
                    self.cursor += 1;
                    ctx.schedule_in(SimTime::from_secs(d), 0);
                }
            }
        }

        let mut engine = Engine::new();
        engine.schedule_at(SimTime::ZERO, 0);
        let mut model = Model { delays, cursor: 0, observed: Vec::new() };
        engine.run(&mut model);
        for pair in model.observed.windows(2) {
            prop_assert!(pair[1] >= pair[0]);
        }
    }
}
