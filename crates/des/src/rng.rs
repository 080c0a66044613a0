//! Deterministic random number generation and distributions.
//!
//! Every source of randomness in CGSim-RS (synthetic trace generation, random
//! allocation policies, failure injection, random-search calibration) flows
//! through this module so that a simulation run is fully reproducible from a
//! single 64-bit seed. The generator is xoshiro256++ seeded through
//! SplitMix64 — the same construction recommended by the xoshiro authors —
//! implemented locally to keep the simulation core free of non-deterministic
//! dependencies.
//!
//! The distribution set covers what the PanDA-like workload model needs:
//! uniform, normal (Box–Muller), log-normal (job walltimes are approximately
//! log-normal in the ATLAS production logs), exponential (inter-arrival
//! times), Poisson (file counts), Pareto (heavy-tailed file sizes), and
//! weighted discrete choice (site assignment skew).

/// A deterministic pseudo-random number generator (xoshiro256++).
#[derive(Debug, Clone)]
pub struct Rng {
    state: [u64; 4],
    /// Cached second normal variate from the Box–Muller transform.
    spare_normal: Option<f64>,
}

#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

#[inline]
fn rotl(x: u64, k: u32) -> u64 {
    x.rotate_left(k)
}

impl Rng {
    /// Creates a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let state = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Rng {
            state,
            spare_normal: None,
        }
    }

    /// Derives an independent child generator (used to give each site or each
    /// calibration worker its own stream without correlation).
    pub fn fork(&mut self, stream: u64) -> Rng {
        let base = self.next_u64() ^ stream.wrapping_mul(0x9E3779B97F4A7C15);
        Rng::new(base)
    }

    /// Next raw 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result =
            rotl(self.state[0].wrapping_add(self.state[3]), 23).wrapping_add(self.state[0]);
        let t = self.state[1] << 17;
        self.state[2] ^= self.state[0];
        self.state[3] ^= self.state[1];
        self.state[1] ^= self.state[2];
        self.state[0] ^= self.state[3];
        self.state[2] ^= t;
        self.state[3] = rotl(self.state[3], 45);
        result
    }

    /// Uniform f64 in `[0, 1)`.
    #[inline]
    pub fn uniform(&mut self) -> f64 {
        // 53 random mantissa bits.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform f64 in `[lo, hi)`.
    #[inline]
    pub fn uniform_range(&mut self, lo: f64, hi: f64) -> f64 {
        debug_assert!(hi >= lo, "uniform_range requires hi >= lo");
        lo + (hi - lo) * self.uniform()
    }

    /// Uniform integer in `[0, n)`. Panics if `n == 0`.
    #[inline]
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "index range must be non-empty");
        // Multiply-shift; bias is negligible for the ranges used here.
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    /// Bernoulli trial with probability `p` of returning `true`.
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.uniform() < p
    }

    /// Standard normal variate via Box–Muller.
    pub(crate) fn normal_std(&mut self) -> f64 {
        if let Some(z) = self.spare_normal.take() {
            return z;
        }
        // Avoid u == 0 to keep ln finite.
        let u = loop {
            let u = self.uniform();
            if u > 1e-300 {
                break u;
            }
        };
        let v = self.uniform();
        let r = (-2.0 * u.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * v;
        self.spare_normal = Some(r * theta.sin());
        r * theta.cos()
    }

    /// Normal variate with the given mean and standard deviation.
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        mean + std_dev * self.normal_std()
    }

    /// Log-normal variate parameterised by the mean and standard deviation of
    /// the *underlying* normal distribution.
    pub fn lognormal(&mut self, mu: f64, sigma: f64) -> f64 {
        self.normal(mu, sigma).exp()
    }

    /// Log-normal variate parameterised by the desired mean and coefficient of
    /// variation of the log-normal itself (convenient for workload models).
    pub fn lognormal_mean_cv(&mut self, mean: f64, cv: f64) -> f64 {
        assert!(mean > 0.0 && cv >= 0.0);
        if cv == 0.0 {
            return mean;
        }
        let sigma2 = (1.0 + cv * cv).ln();
        let mu = mean.ln() - 0.5 * sigma2;
        self.lognormal(mu, sigma2.sqrt())
    }

    /// Exponential variate with the given rate (`1/mean`).
    pub fn exponential(&mut self, rate: f64) -> f64 {
        assert!(rate > 0.0, "exponential rate must be positive");
        let u = loop {
            let u = self.uniform();
            if u > 1e-300 {
                break u;
            }
        };
        -u.ln() / rate
    }

    /// Weibull variate with the given scale and shape, via inversion:
    /// `scale * (-ln(1 - u))^(1/shape)`. Shape 1 reduces to the exponential
    /// distribution with mean `scale`; shape > 1 models wear-out failures,
    /// shape < 1 infant-mortality clustering (reliability modelling for the
    /// fault-injection subsystem).
    pub fn weibull(&mut self, scale: f64, shape: f64) -> f64 {
        assert!(
            scale > 0.0 && shape > 0.0,
            "weibull scale and shape must be positive"
        );
        let u = loop {
            let u = self.uniform();
            if u > 1e-300 {
                break u;
            }
        };
        scale * (-u.ln()).powf(1.0 / shape)
    }

    /// Poisson variate with mean `lambda` (Knuth's algorithm for small lambda,
    /// normal approximation above 30).
    pub fn poisson(&mut self, lambda: f64) -> u64 {
        assert!(lambda >= 0.0);
        if lambda == 0.0 {
            return 0;
        }
        if lambda > 30.0 {
            let v = self.normal(lambda, lambda.sqrt()).round();
            return v.max(0.0) as u64;
        }
        let l = (-lambda).exp();
        let mut k = 0u64;
        let mut p = 1.0;
        loop {
            p *= self.uniform();
            if p <= l {
                return k;
            }
            k += 1;
        }
    }

    /// Pareto variate with scale `x_min` and shape `alpha` (heavy-tailed file
    /// sizes and straggler walltimes).
    pub fn pareto(&mut self, x_min: f64, alpha: f64) -> f64 {
        assert!(x_min > 0.0 && alpha > 0.0);
        let u = loop {
            let u = self.uniform();
            if u > 1e-300 {
                break u;
            }
        };
        x_min / u.powf(1.0 / alpha)
    }

    /// Picks an index in `[0, weights.len())` with probability proportional to
    /// the weights. Panics on an empty or all-zero weight vector.
    pub fn weighted_index(&mut self, weights: &[f64]) -> usize {
        assert!(
            !weights.is_empty(),
            "weighted_index needs at least one weight"
        );
        let total: f64 = weights.iter().sum();
        assert!(total > 0.0, "weighted_index needs a positive total weight");
        let mut x = self.uniform() * total;
        for (i, &w) in weights.iter().enumerate() {
            if x < w {
                return i;
            }
            x -= w;
        }
        weights.len() - 1
    }

    /// Picks a uniformly random element of a slice.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.index(items.len())]
    }

    /// Shuffles a slice in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.index(i + 1);
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = Rng::new(1234);
        let mut b = Rng::new(1234);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Rng::new(1);
        let mut b = Rng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4);
    }

    #[test]
    fn uniform_is_in_unit_interval() {
        let mut rng = Rng::new(7);
        for _ in 0..10_000 {
            let u = rng.uniform();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn uniform_mean_is_half() {
        let mut rng = Rng::new(42);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| rng.uniform()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean={mean}");
    }

    #[test]
    fn normal_moments() {
        let mut rng = Rng::new(99);
        let n = 100_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.normal(10.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.05, "mean={mean}");
        assert!((var - 4.0).abs() < 0.2, "var={var}");
    }

    #[test]
    fn lognormal_mean_cv_matches_target() {
        let mut rng = Rng::new(5);
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.lognormal_mean_cv(100.0, 0.5)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        assert!((mean - 100.0).abs() < 2.0, "mean={mean}");
        assert!(samples.iter().all(|&x| x > 0.0));
    }

    #[test]
    fn exponential_mean() {
        let mut rng = Rng::new(11);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| rng.exponential(0.5)).sum::<f64>() / n as f64;
        assert!((mean - 2.0).abs() < 0.05, "mean={mean}");
    }

    #[test]
    fn poisson_mean_small_and_large_lambda() {
        let mut rng = Rng::new(13);
        for &lambda in &[0.5, 3.0, 50.0] {
            let n = 50_000;
            let mean: f64 = (0..n).map(|_| rng.poisson(lambda) as f64).sum::<f64>() / n as f64;
            assert!(
                (mean - lambda).abs() < lambda.max(1.0) * 0.05,
                "lambda={lambda} mean={mean}"
            );
        }
        assert_eq!(rng.poisson(0.0), 0);
    }

    #[test]
    fn weibull_shape_one_is_exponential() {
        let mut rng = Rng::new(15);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| rng.weibull(2.0, 1.0)).sum::<f64>() / n as f64;
        // Shape 1 => mean equals the scale.
        assert!((mean - 2.0).abs() < 0.05, "mean={mean}");
        // Shape 2 (Rayleigh): mean = scale * Γ(1.5) ≈ 0.8862 * scale.
        let mean2: f64 = (0..n).map(|_| rng.weibull(2.0, 2.0)).sum::<f64>() / n as f64;
        assert!((mean2 - 2.0 * 0.886_226_9).abs() < 0.05, "mean2={mean2}");
        assert!((0..1000).all(|_| rng.weibull(1.0, 0.5) >= 0.0));
    }

    #[test]
    fn pareto_respects_minimum() {
        let mut rng = Rng::new(17);
        for _ in 0..10_000 {
            assert!(rng.pareto(2.0, 1.5) >= 2.0);
        }
    }

    #[test]
    fn weighted_index_follows_weights() {
        let mut rng = Rng::new(23);
        let weights = [1.0, 0.0, 3.0];
        let mut counts = [0usize; 3];
        for _ in 0..40_000 {
            counts[rng.weighted_index(&weights)] += 1;
        }
        assert_eq!(counts[1], 0);
        let ratio = counts[2] as f64 / counts[0] as f64;
        assert!((ratio - 3.0).abs() < 0.3, "ratio={ratio}");
    }

    #[test]
    fn index_covers_range_uniformly() {
        let mut rng = Rng::new(29);
        let mut counts = [0usize; 10];
        for _ in 0..100_000 {
            counts[rng.index(10)] += 1;
        }
        for &c in &counts {
            assert!((c as f64 - 10_000.0).abs() < 600.0, "count={c}");
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = Rng::new(37);
        let mut v: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn fork_streams_are_uncorrelated() {
        let mut parent = Rng::new(41);
        let mut a = parent.fork(0);
        let mut b = parent.fork(1);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4);
    }

    #[test]
    fn chance_extremes() {
        let mut rng = Rng::new(43);
        assert!(!(0..1000).any(|_| rng.chance(0.0)));
        assert!((0..1000).all(|_| rng.chance(1.0)));
    }
}
