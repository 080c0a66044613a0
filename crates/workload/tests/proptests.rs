//! Property-based tests for the synthetic PanDA-like trace generator.

use std::collections::HashMap;

use cgsim_des::rng::Rng;
use cgsim_platform::presets::wlcg_platform;
use cgsim_workload::{JobId, JobKind, JobRecord, TaskId, Trace, TraceConfig, TraceGenerator};
use proptest::prelude::*;

/// Builds an arbitrary trace directly (not through the generator), covering
/// corner cases the generator never produces: zero jobs, single jobs, empty
/// site names, sites with JSON-hostile characters, absent ground truth and
/// extreme numeric values.
fn arbitrary_trace(jobs: usize, seed: u64) -> Trace {
    let mut rng = Rng::new(seed);
    let sites = [
        "",
        "CERN",
        "site with spaces",
        "quote\"backslash\\",
        "tab\tnewline\n",
        "ünïcøde-🛰",
    ];
    let records = (0..jobs)
        .map(|i| {
            let multi = rng.chance(0.4);
            JobRecord {
                id: JobId(rng.next_u64()),
                task_id: TaskId(rng.next_u64() % 1_000),
                kind: if multi {
                    JobKind::MultiCore
                } else {
                    JobKind::SingleCore
                },
                cores: if multi { 8 } else { 1 },
                work_hs23: rng.uniform_range(1e-6, 1e12),
                memory_mb: rng.uniform_range(0.0, 1e6),
                input_files: rng.index(100) as u32,
                input_bytes: rng.next_u64() % (1 << 45),
                output_bytes: rng.next_u64() % (1 << 45),
                submit_time: rng.uniform_range(0.0, 1e7),
                hist_site: sites[rng.index(sites.len())].into(),
                hist_walltime: rng.chance(0.7).then(|| rng.uniform_range(1e-9, 1e7)),
                hist_queue_time: rng.chance(0.7).then(|| rng.uniform_range(0.0, 1e6)),
            }
            .tap(i)
        })
        .collect();
    let mut hidden = HashMap::new();
    for s in sites.iter().filter(|s| !s.is_empty()) {
        if rng.chance(0.5) {
            hidden.insert(s.to_string(), rng.uniform_range(0.1, 3.0));
        }
    }
    Trace {
        jobs: records,
        hidden_site_multipliers: hidden,
    }
}

/// Tiny helper so the closure above stays an expression (keeps ids unique
/// even when the RNG collides).
trait Tap {
    fn tap(self, i: usize) -> Self;
}
impl Tap for JobRecord {
    fn tap(mut self, i: usize) -> Self {
        self.id = JobId(self.id.0 ^ (i as u64) << 1);
        self
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Generated traces always satisfy the structural invariants the
    /// simulator relies on, for arbitrary (bounded) generator settings.
    #[test]
    fn traces_are_well_formed(
        jobs in 1usize..400,
        seed in any::<u64>(),
        sites in 1usize..20,
        multicore_fraction in 0.0f64..1.0,
        window in 0.0f64..86_400.0,
    ) {
        let platform = wlcg_platform(sites, seed ^ 0x5a5a);
        let mut cfg = TraceConfig::with_jobs(jobs, seed);
        cfg.multicore_fraction = multicore_fraction;
        cfg.submission_window_s = window;
        let trace = TraceGenerator::new(cfg).generate(&platform);

        prop_assert_eq!(trace.len(), jobs);
        // Sorted by submission time, inside the window.
        for pair in trace.jobs.windows(2) {
            prop_assert!(pair[0].submit_time <= pair[1].submit_time);
        }
        for job in &trace.jobs {
            prop_assert!(job.submit_time >= 0.0 && job.submit_time <= window + 1e-9);
            prop_assert!(job.work_hs23 > 0.0);
            prop_assert!(job.input_files >= 1);
            prop_assert!(job.input_bytes > 0);
            prop_assert!(job.hist_walltime.unwrap() > 0.0);
            prop_assert!(job.hist_queue_time.unwrap() >= 0.0);
            prop_assert!(!job.hist_site.is_empty());
            match job.kind {
                JobKind::SingleCore => prop_assert_eq!(job.cores, 1),
                JobKind::MultiCore => prop_assert!(job.cores > 1),
            }
        }
        // Job ids are unique.
        let ids: std::collections::HashSet<_> = trace.jobs.iter().map(|j| j.id).collect();
        prop_assert_eq!(ids.len(), jobs);
        // Hidden multipliers cover every referenced site and sit in the range.
        let (lo, hi) = TraceConfig::default().hidden_multiplier_range;
        for job in &trace.jobs {
            let m = trace.hidden_site_multipliers[&*job.hist_site];
            prop_assert!(m >= lo - 1e-9 && m <= hi + 1e-9);
        }
    }

    /// Splitting a trace partitions it: no duplication, no loss, any fraction.
    #[test]
    fn split_is_a_partition(jobs in 1usize..300, seed in any::<u64>(), fraction in 0.0f64..1.0) {
        let platform = wlcg_platform(5, 1);
        let trace = TraceGenerator::new(TraceConfig::with_jobs(jobs, seed)).generate(&platform);
        let (a, b) = trace.split(fraction);
        prop_assert_eq!(a.len() + b.len(), trace.len());
        let mut ids: Vec<_> = a.jobs.iter().chain(&b.jobs).map(|j| j.id).collect();
        ids.sort();
        ids.dedup();
        prop_assert_eq!(ids.len(), trace.len());
    }

    /// CSV export always has exactly one row per job plus the header.
    #[test]
    fn csv_has_one_row_per_job(jobs in 1usize..200, seed in any::<u64>()) {
        let platform = wlcg_platform(3, 9);
        let trace = TraceGenerator::new(TraceConfig::with_jobs(jobs, seed)).generate(&platform);
        prop_assert_eq!(trace.to_csv().lines().count(), jobs + 1);
    }

    /// `save_jsonl`/`load_jsonl` round-trips every field of every job — for
    /// arbitrary traces including the empty trace, single-job traces, absent
    /// ground truth, empty site names and JSON-hostile characters — and the
    /// hidden multiplier header survives byte-exactly.
    #[test]
    fn jsonl_roundtrip_preserves_every_field(jobs in 0usize..40, seed in any::<u64>()) {
        let trace = arbitrary_trace(jobs, seed);
        let path = std::env::temp_dir().join(format!("cgsim-prop-roundtrip-{seed}-{jobs}.jsonl"));
        trace.save_jsonl(&path).unwrap();
        let loaded = Trace::load_jsonl(&path).unwrap();
        std::fs::remove_file(&path).ok();

        prop_assert_eq!(loaded.jobs.len(), trace.jobs.len());
        for (a, b) in trace.jobs.iter().zip(&loaded.jobs) {
            prop_assert_eq!(a.id, b.id);
            prop_assert_eq!(a.task_id, b.task_id);
            prop_assert_eq!(a.kind, b.kind);
            prop_assert_eq!(a.cores, b.cores);
            prop_assert_eq!(a.work_hs23.to_bits(), b.work_hs23.to_bits());
            prop_assert_eq!(a.memory_mb.to_bits(), b.memory_mb.to_bits());
            prop_assert_eq!(a.input_files, b.input_files);
            prop_assert_eq!(a.input_bytes, b.input_bytes);
            prop_assert_eq!(a.output_bytes, b.output_bytes);
            prop_assert_eq!(a.submit_time.to_bits(), b.submit_time.to_bits());
            prop_assert_eq!(&a.hist_site, &b.hist_site);
            prop_assert_eq!(a.hist_walltime.map(f64::to_bits), b.hist_walltime.map(f64::to_bits));
            prop_assert_eq!(a.hist_queue_time.map(f64::to_bits), b.hist_queue_time.map(f64::to_bits));
        }
        prop_assert_eq!(
            trace.hidden_site_multipliers.len(),
            loaded.hidden_site_multipliers.len()
        );
        for (site, mult) in &trace.hidden_site_multipliers {
            let back = loaded.hidden_site_multipliers.get(site);
            prop_assert_eq!(Some(mult.to_bits()), back.map(|m| m.to_bits()), "site {:?}", site);
        }
    }

    /// The streaming iterator and the collecting `generate` are
    /// bit-identical across random configurations: `stream(..).collect()`
    /// plus the stable `submit_time` sort reproduces `generate` exactly
    /// (every field compared on raw bits), and the hidden multipliers agree.
    /// Zero `submission_window_s` puts every job at t = 0, so the sort is
    /// all ties — the stable order itself is under test there.
    #[test]
    fn stream_collects_to_generate(
        jobs in 0usize..300,
        seed in any::<u64>(),
        sites in 1usize..12,
        window_zero in any::<bool>(),
        multicore_fraction in 0.0f64..1.0,
        mean_input_files in 0.0f64..8.0,
    ) {
        let mut cfg = TraceConfig::with_jobs(jobs, seed);
        if window_zero {
            cfg.submission_window_s = 0.0;
        }
        cfg.multicore_fraction = multicore_fraction;
        cfg.mean_input_files = mean_input_files;
        let platform = wlcg_platform(sites, seed % 31);
        let generator = TraceGenerator::new(cfg);

        let trace = generator.generate(&platform);
        let stream = generator.stream(&platform);
        prop_assert_eq!(stream.len(), jobs);
        let hidden = stream.hidden_site_multipliers();
        let mut streamed: Vec<JobRecord> = stream.collect();
        streamed.sort_by(|a, b| a.submit_time.partial_cmp(&b.submit_time).unwrap());

        prop_assert_eq!(streamed.len(), trace.jobs.len());
        for (a, b) in trace.jobs.iter().zip(&streamed) {
            prop_assert_eq!(a.id, b.id);
            prop_assert_eq!(a.task_id, b.task_id);
            prop_assert_eq!(a.kind, b.kind);
            prop_assert_eq!(a.cores, b.cores);
            prop_assert_eq!(a.work_hs23.to_bits(), b.work_hs23.to_bits());
            prop_assert_eq!(a.memory_mb.to_bits(), b.memory_mb.to_bits());
            prop_assert_eq!(a.input_files, b.input_files);
            prop_assert_eq!(a.input_bytes, b.input_bytes);
            prop_assert_eq!(a.output_bytes, b.output_bytes);
            prop_assert_eq!(a.submit_time.to_bits(), b.submit_time.to_bits());
            prop_assert_eq!(&a.hist_site, &b.hist_site);
            prop_assert_eq!(a.hist_walltime.map(f64::to_bits), b.hist_walltime.map(f64::to_bits));
            prop_assert_eq!(a.hist_queue_time.map(f64::to_bits), b.hist_queue_time.map(f64::to_bits));
        }
        prop_assert_eq!(hidden.len(), trace.hidden_site_multipliers.len());
        for (site, mult) in &trace.hidden_site_multipliers {
            let got = hidden.get(site).map(|m| m.to_bits());
            prop_assert_eq!(Some(mult.to_bits()), got, "site {:?}", site);
        }
    }
}
