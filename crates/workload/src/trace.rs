//! Synthetic PanDA-like traces and trace I/O.
//!
//! The generator reproduces the statistical shape of ATLAS production
//! workloads as characterised in the paper and its companion work:
//!
//! * a mix of single-core analysis jobs and 8-core production jobs,
//! * approximately log-normal computational requirements (long right tail),
//! * Poisson input-file counts with heavy-tailed file sizes,
//! * Poisson (optionally bursty) arrivals over the trace window,
//! * historical site assignments skewed towards large sites (PanDA dispatches
//!   proportionally to available capacity),
//! * ground-truth walltimes computed from **hidden** per-site true speeds
//!   plus multiplicative noise — the quantity the calibration experiments
//!   must recover.

use std::borrow::Cow;
use std::collections::{HashMap, HashSet};
use std::io::Write;
use std::path::Path;
use std::sync::Arc;

use cgsim_des::rng::Rng;
use cgsim_des::stats::Summary;
use cgsim_platform::spec::PlatformSpec;
use serde::Serialize;

use crate::job::{ideal_walltime, JobId, JobKind, JobRecord, TaskId};

/// Configuration of the synthetic trace generator.
#[derive(Debug, Clone)]
pub struct TraceConfig {
    /// Number of jobs to generate.
    pub job_count: usize,
    /// RNG seed.
    pub seed: u64,
    /// Length of the submission window in seconds (arrivals are spread over
    /// this window; 0 means all jobs are submitted at t = 0).
    pub submission_window_s: f64,
    /// Fraction of multi-core production jobs (the rest are single-core).
    pub multicore_fraction: f64,
    /// Core count of multi-core jobs (8 in ATLAS production).
    pub multicore_cores: u32,
    /// Mean computational requirement of single-core jobs, in HS23-seconds.
    pub mean_work_single: f64,
    /// Mean computational requirement of multi-core jobs, in HS23-seconds.
    pub mean_work_multi: f64,
    /// Coefficient of variation of the (log-normal) work distribution.
    pub work_cv: f64,
    /// Mean number of input files per job (Poisson).
    pub mean_input_files: f64,
    /// Mean input file size in bytes (Pareto-tailed).
    pub mean_file_bytes: f64,
    /// Output size as a fraction of input size.
    pub output_ratio: f64,
    /// Multiplicative noise (coefficient of variation) applied to the
    /// ground-truth walltime; this is the irreducible calibration error.
    pub truth_noise_cv: f64,
    /// Range of the hidden per-site true-speed multiplier. The simulator is
    /// initialised with multiplier 1.0, so a wide range means a large
    /// pre-calibration error (the paper reports 76 % relative MAE before
    /// calibration).
    pub hidden_multiplier_range: (f64, f64),
    /// Mean ground-truth queue time in seconds (exponential).
    pub mean_queue_time_s: f64,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            job_count: 1_000,
            seed: 0xA71A5,
            submission_window_s: 6.0 * 3600.0,
            multicore_fraction: 0.4,
            multicore_cores: 8,
            mean_work_single: 4.0 * 3600.0 * 10.0, // ~4 h on a 10-HS23 core
            mean_work_multi: 20.0 * 3600.0 * 10.0, // ~2.5 h on 8 such cores
            work_cv: 0.8,
            mean_input_files: 4.0,
            mean_file_bytes: 1.5e9,
            output_ratio: 0.3,
            truth_noise_cv: 0.15,
            hidden_multiplier_range: (0.4, 2.2),
            mean_queue_time_s: 600.0,
        }
    }
}

impl TraceConfig {
    /// Convenience constructor for a trace of `job_count` jobs with the given
    /// seed and defaults for everything else.
    pub fn with_jobs(job_count: usize, seed: u64) -> Self {
        TraceConfig {
            job_count,
            seed,
            ..TraceConfig::default()
        }
    }
}

/// A workload trace: the job records plus the hidden ground-truth site
/// multipliers used to generate them (kept for validation of calibration).
/// Format: none of its own; its value tree is hashed into serve's cache key.
#[derive(Debug, Clone, Serialize, Default)]
pub struct Trace {
    /// Job records, sorted by submission time.
    pub jobs: Vec<JobRecord>,
    /// Hidden true speed multiplier per site name (what calibration should
    /// recover). Empty for traces loaded from external files.
    pub hidden_site_multipliers: HashMap<String, f64>,
}

/// Aggregate statistics of a trace.
#[derive(Debug, Clone)]
pub struct TraceSummary {
    /// Number of jobs.
    pub job_count: usize,
    /// Number of multi-core jobs.
    pub multicore_jobs: usize,
    /// Distinct historical sites.
    pub site_count: usize,
    /// Summary of computational work (HS23-seconds).
    pub work: Summary,
    /// Summary of input sizes (bytes).
    pub input_bytes: Summary,
    /// Summary of ground-truth walltimes (seconds), when present.
    pub hist_walltime: Option<Summary>,
}

impl Trace {
    /// Number of jobs in the trace.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// True if the trace holds no jobs.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Jobs historically assigned to `site`.
    pub fn jobs_for_site<'a>(&'a self, site: &'a str) -> impl Iterator<Item = &'a JobRecord> {
        self.jobs.iter().filter(move |j| &*j.hist_site == site)
    }

    /// Distinct historical site names, sorted.
    pub fn site_names(&self) -> Vec<String> {
        let distinct: HashSet<&str> = self.jobs.iter().map(|j| &*j.hist_site).collect();
        let mut names: Vec<String> = distinct
            .into_iter()
            .filter(|name| !name.is_empty())
            .map(str::to_string)
            .collect();
        names.sort();
        names
    }

    /// Splits into (calibration, validation) sub-traces: the first
    /// `fraction` of each site's jobs go to the calibration part.
    pub fn split(&self, fraction: f64) -> (Trace, Trace) {
        assert!((0.0..=1.0).contains(&fraction));
        let mut per_site: HashMap<&str, Vec<&JobRecord>> = HashMap::new();
        for j in &self.jobs {
            per_site.entry(&j.hist_site).or_default().push(j);
        }
        let mut cal = Vec::new();
        let mut val = Vec::new();
        let mut site_keys: Vec<&&str> = per_site.keys().collect();
        site_keys.sort();
        for site in site_keys {
            let jobs = &per_site[*site];
            let cut = ((jobs.len() as f64) * fraction).round() as usize;
            for (i, j) in jobs.iter().enumerate() {
                if i < cut {
                    cal.push((*j).clone());
                } else {
                    val.push((*j).clone());
                }
            }
        }
        cal.sort_by(|a, b| a.submit_time.partial_cmp(&b.submit_time).unwrap());
        val.sort_by(|a, b| a.submit_time.partial_cmp(&b.submit_time).unwrap());
        (
            Trace {
                jobs: cal,
                hidden_site_multipliers: self.hidden_site_multipliers.clone(),
            },
            Trace {
                jobs: val,
                hidden_site_multipliers: self.hidden_site_multipliers.clone(),
            },
        )
    }

    /// Computes aggregate statistics.
    pub fn summary(&self) -> TraceSummary {
        let work: Vec<f64> = self.jobs.iter().map(|j| j.work_hs23).collect();
        let input: Vec<f64> = self.jobs.iter().map(|j| j.input_bytes as f64).collect();
        let walltimes: Vec<f64> = self.jobs.iter().filter_map(|j| j.hist_walltime).collect();
        TraceSummary {
            job_count: self.jobs.len(),
            multicore_jobs: self
                .jobs
                .iter()
                .filter(|j| j.kind == JobKind::MultiCore)
                .count(),
            site_count: self.site_names().len(),
            work: Summary::of(&work).unwrap_or(Summary {
                count: 0,
                mean: 0.0,
                std_dev: 0.0,
                min: 0.0,
                p50: 0.0,
                p95: 0.0,
                p99: 0.0,
                max: 0.0,
            }),
            input_bytes: Summary::of(&input).unwrap_or(Summary {
                count: 0,
                mean: 0.0,
                std_dev: 0.0,
                min: 0.0,
                p50: 0.0,
                p95: 0.0,
                p99: 0.0,
                max: 0.0,
            }),
            hist_walltime: Summary::of(&walltimes),
        }
    }

    /// Saves the trace as JSON lines (one job per line, plus a header line
    /// holding the hidden multipliers).
    pub fn save_jsonl(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
        let header = serde_json::to_string(&self.hidden_site_multipliers)?;
        writeln!(file, "#meta {header}")?;
        for job in &self.jobs {
            writeln!(file, "{}", serde_json::to_string(job)?)?;
        }
        Ok(())
    }

    /// Loads a trace saved by [`Trace::save_jsonl`]. Site names are
    /// interned: the loaded records of one site share one allocation. A
    /// line that does not decode — a key no field takes included — is an
    /// error naming its line number.
    pub fn load_jsonl(path: impl AsRef<Path>) -> std::io::Result<Trace> {
        let text = std::fs::read_to_string(path)?;
        let mut trace = Trace::default();
        let mut names: HashSet<Arc<str>> = HashSet::new();
        for (index, line) in text.lines().enumerate() {
            if line.is_empty() {
                continue;
            }
            let at_line = |e: serde_json::Error| {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("trace.jsonl line {}: {e}", index + 1),
                )
            };
            if let Some(meta) = line.strip_prefix("#meta ") {
                trace.hidden_site_multipliers = serde_json::from_str(meta).map_err(at_line)?;
            } else {
                let mut job: JobRecord = serde_json::from_str(line).map_err(at_line)?;
                if let Some(shared) = names.get(&*job.hist_site) {
                    job.hist_site = shared.clone();
                } else {
                    names.insert(job.hist_site.clone());
                }
                trace.jobs.push(job);
            }
        }
        Ok(trace)
    }

    /// Exports the jobs as CSV (the output layer's export format).
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "job_id,task_id,kind,cores,work_hs23,memory_mb,input_files,input_bytes,output_bytes,submit_time,hist_site,hist_walltime,hist_queue_time\n",
        );
        for j in &self.jobs {
            out.push_str(&format!(
                "{},{},{},{},{},{},{},{},{},{},{},{},{}\n",
                j.id.0,
                j.task_id.0,
                j.kind.label(),
                j.cores,
                j.work_hs23,
                j.memory_mb,
                j.input_files,
                j.input_bytes,
                j.output_bytes,
                j.submit_time,
                csv_field(&j.hist_site),
                j.hist_walltime.map(|v| v.to_string()).unwrap_or_default(),
                j.hist_queue_time.map(|v| v.to_string()).unwrap_or_default(),
            ));
        }
        out
    }
}

/// `s` as one CSV field: quoted, inner quotes doubled, when it contains a
/// comma, a quote or a line break (RFC 4180), verbatim otherwise.
fn csv_field(s: &str) -> Cow<'_, str> {
    if s.contains([',', '"', '\n', '\r']) {
        Cow::Owned(format!("\"{}\"", s.replace('"', "\"\"")))
    } else {
        Cow::Borrowed(s)
    }
}

/// The synthetic PanDA-like trace generator.
#[derive(Debug, Clone)]
pub struct TraceGenerator {
    config: TraceConfig,
}

impl TraceGenerator {
    /// Creates a generator with the given configuration.
    pub fn new(config: TraceConfig) -> Self {
        TraceGenerator { config }
    }

    /// Generates a trace targeting the sites of `platform`.
    ///
    /// Historical site assignments follow PanDA's capacity-proportional
    /// dispatching: the probability of a job landing on a site is
    /// proportional to that site's core count.
    ///
    /// This is the collecting wrapper around [`TraceGenerator::stream`]: it
    /// materialises every record and sorts them by submission time (a stable
    /// sort, so equal-time jobs keep generation order). For million-job
    /// campaigns prefer `stream`, which holds only O(sites) state.
    pub fn generate(&self, platform: &PlatformSpec) -> Trace {
        let stream = self.stream(platform);
        let hidden = stream.hidden_site_multipliers();
        let mut jobs: Vec<JobRecord> = stream.collect();
        jobs.sort_by(|a, b| a.submit_time.partial_cmp(&b.submit_time).unwrap());

        Trace {
            jobs,
            hidden_site_multipliers: hidden,
        }
    }

    /// Streams job records one at a time, in **generation order** (not sorted
    /// by submission time — [`TraceGenerator::generate`] adds the stable
    /// sort). The iterator holds only O(sites) state, so a million-job
    /// workload can be consumed without ever materialising a `Vec`.
    ///
    /// The draw order per job is identical to the historical materialised
    /// path, so `stream(..).collect()` followed by a stable sort on
    /// `submit_time` is bit-identical to `generate` (pinned by the golden
    /// fingerprints in `tests/golden_trace.rs`).
    pub fn stream(&self, platform: &PlatformSpec) -> TraceStream {
        assert!(!platform.sites.is_empty(), "platform has no sites");
        let cfg = self.config.clone();
        let mut rng = Rng::new(cfg.seed);

        // Hidden true multiplier per site: what the simulator would need to
        // know to predict walltimes exactly (before noise). Indexed by site
        // position — the per-job lookup is a bounds-checked array read, not
        // a `String`-keyed hash probe.
        let mut sites = Vec::with_capacity(platform.sites.len());
        let mut hidden = Vec::with_capacity(platform.sites.len());
        for site in &platform.sites {
            let (lo, hi) = cfg.hidden_multiplier_range;
            hidden.push(rng.uniform_range(lo, hi));
            sites.push((site.name.as_str().into(), site.hosts[0].speed_per_core));
        }

        let site_weights: Vec<f64> = platform
            .sites
            .iter()
            .map(|s| s.total_cores() as f64)
            .collect();

        TraceStream {
            cfg,
            rng,
            sites,
            site_weights,
            hidden,
            next: 0,
        }
    }
}

/// Streaming job-record source created by [`TraceGenerator::stream`].
///
/// Yields records in generation order with O(sites) resident state; the RNG
/// draw sequence per job matches the materialised `generate` path exactly.
#[derive(Debug, Clone)]
pub struct TraceStream {
    cfg: TraceConfig,
    rng: Rng,
    /// Per-site `(name, nominal speed-per-core)`, in platform order. The one
    /// allocation of each name: every record of the site gets a clone.
    sites: Vec<(Arc<str>, f64)>,
    site_weights: Vec<f64>,
    /// Hidden true-speed multiplier per site, indexed by site position.
    hidden: Vec<f64>,
    next: usize,
}

impl TraceStream {
    /// The hidden per-site multipliers as a name-keyed map (the form stored
    /// in [`Trace::hidden_site_multipliers`]).
    pub fn hidden_site_multipliers(&self) -> HashMap<String, f64> {
        self.sites
            .iter()
            .map(|(name, _)| name.to_string())
            .zip(self.hidden.iter().copied())
            .collect()
    }

    /// Jobs remaining to be yielded.
    pub fn remaining(&self) -> usize {
        self.cfg.job_count - self.next
    }
}

impl Iterator for TraceStream {
    type Item = JobRecord;

    fn next(&mut self) -> Option<JobRecord> {
        if self.next >= self.cfg.job_count {
            return None;
        }
        let i = self.next;
        self.next += 1;
        let cfg = &self.cfg;
        let rng = &mut self.rng;

        let is_multi = rng.chance(cfg.multicore_fraction);
        let (kind, cores, mean_work) = if is_multi {
            (JobKind::MultiCore, cfg.multicore_cores, cfg.mean_work_multi)
        } else {
            (JobKind::SingleCore, 1, cfg.mean_work_single)
        };
        let work = rng.lognormal_mean_cv(mean_work, cfg.work_cv).max(1.0);
        let input_files = (rng.poisson(cfg.mean_input_files) as u32).max(1);
        let mut input_bytes = 0.0;
        for _ in 0..input_files {
            input_bytes += rng.pareto(cfg.mean_file_bytes * 0.4, 1.8);
        }
        let output_bytes = input_bytes * cfg.output_ratio;
        let submit_time = if cfg.submission_window_s > 0.0 {
            rng.uniform_range(0.0, cfg.submission_window_s)
        } else {
            0.0
        };

        let site_idx = rng.weighted_index(&self.site_weights);
        let (site_name, nominal_speed) = &self.sites[site_idx];
        let true_speed = nominal_speed * self.hidden[site_idx];
        let noise = rng.lognormal_mean_cv(1.0, cfg.truth_noise_cv);
        let hist_walltime = ideal_walltime(work, cores, true_speed) * noise;
        let hist_queue_time = rng.exponential(1.0 / cfg.mean_queue_time_s);

        Some(JobRecord {
            id: JobId(6_460_000_000 + i as u64),
            task_id: TaskId((i / 50) as u64),
            kind,
            cores,
            work_hs23: work,
            memory_mb: 2_000.0 * cores as f64,
            input_files,
            input_bytes: input_bytes as u64,
            output_bytes: output_bytes as u64,
            submit_time,
            hist_site: site_name.clone(),
            hist_walltime: Some(hist_walltime),
            hist_queue_time: Some(hist_queue_time),
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.remaining();
        (n, Some(n))
    }
}

impl ExactSizeIterator for TraceStream {}

#[cfg(test)]
mod tests {
    use super::*;
    use cgsim_platform::presets::{example_platform, wlcg_platform};

    fn small_trace() -> Trace {
        TraceGenerator::new(TraceConfig::with_jobs(500, 42)).generate(&example_platform())
    }

    #[test]
    fn generates_requested_job_count() {
        let trace = small_trace();
        assert_eq!(trace.len(), 500);
        assert!(!trace.is_empty());
    }

    #[test]
    fn jobs_are_sorted_by_submit_time() {
        let trace = small_trace();
        for pair in trace.jobs.windows(2) {
            assert!(pair[0].submit_time <= pair[1].submit_time);
        }
    }

    #[test]
    fn is_deterministic_in_seed() {
        let platform = example_platform();
        let a = TraceGenerator::new(TraceConfig::with_jobs(200, 7)).generate(&platform);
        let b = TraceGenerator::new(TraceConfig::with_jobs(200, 7)).generate(&platform);
        let c = TraceGenerator::new(TraceConfig::with_jobs(200, 8)).generate(&platform);
        assert_eq!(a.jobs, b.jobs);
        assert_ne!(a.jobs, c.jobs);
    }

    #[test]
    fn multicore_fraction_is_respected() {
        let mut cfg = TraceConfig::with_jobs(2_000, 3);
        cfg.multicore_fraction = 0.4;
        let trace = TraceGenerator::new(cfg).generate(&example_platform());
        let multi = trace
            .jobs
            .iter()
            .filter(|j| j.kind == JobKind::MultiCore)
            .count();
        let frac = multi as f64 / trace.len() as f64;
        assert!((frac - 0.4).abs() < 0.05, "multi-core fraction {frac}");
        assert!(trace
            .jobs
            .iter()
            .filter(|j| j.kind == JobKind::MultiCore)
            .all(|j| j.cores == 8));
    }

    #[test]
    fn ground_truth_fields_are_populated_and_positive() {
        let trace = small_trace();
        for job in &trace.jobs {
            assert!(job.hist_walltime.unwrap() > 0.0);
            assert!(job.hist_queue_time.unwrap() >= 0.0);
            assert!(!job.hist_site.is_empty());
            assert!(job.work_hs23 > 0.0);
            assert!(job.input_bytes > 0);
        }
    }

    #[test]
    fn hidden_multipliers_cover_all_sites() {
        let platform = wlcg_platform(10, 5);
        let trace = TraceGenerator::new(TraceConfig::with_jobs(100, 5)).generate(&platform);
        assert_eq!(trace.hidden_site_multipliers.len(), 10);
        for &m in trace.hidden_site_multipliers.values() {
            assert!(m > 0.0);
        }
    }

    #[test]
    fn site_assignment_skews_towards_large_sites() {
        let platform = example_platform(); // CERN has 2000 cores, LRZ-LMU 400.
        let trace = TraceGenerator::new(TraceConfig::with_jobs(4_000, 9)).generate(&platform);
        let cern = trace.jobs_for_site("CERN").count();
        let lrz = trace.jobs_for_site("LRZ-LMU").count();
        assert!(cern > lrz, "CERN={cern} LRZ={lrz}");
    }

    #[test]
    fn split_partitions_jobs() {
        let trace = small_trace();
        let (cal, val) = trace.split(0.6);
        assert_eq!(cal.len() + val.len(), trace.len());
        assert!(cal.len() > val.len());
        // No job appears in both halves.
        let cal_ids: std::collections::HashSet<_> = cal.jobs.iter().map(|j| j.id).collect();
        assert!(val.jobs.iter().all(|j| !cal_ids.contains(&j.id)));
    }

    #[test]
    fn summary_reports_sane_numbers() {
        let trace = small_trace();
        let s = trace.summary();
        assert_eq!(s.job_count, 500);
        assert_eq!(s.site_count, 4);
        assert!(s.work.mean > 0.0);
        assert!(s.hist_walltime.unwrap().mean > 0.0);
    }

    #[test]
    fn jsonl_roundtrip() {
        let trace = small_trace();
        let path = std::env::temp_dir().join("cgsim-trace-roundtrip.jsonl");
        trace.save_jsonl(&path).unwrap();
        let loaded = Trace::load_jsonl(&path).unwrap();
        assert_eq!(trace.jobs, loaded.jobs);
        // One allocation per distinct site, on both sides of the file.
        for jobs in [&trace.jobs, &loaded.jobs] {
            let allocations: HashSet<*const u8> =
                jobs.iter().map(|j| j.hist_site.as_ptr()).collect();
            assert_eq!(allocations.len(), 4);
        }
        assert_eq!(
            trace.hidden_site_multipliers.len(),
            loaded.hidden_site_multipliers.len()
        );
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn csv_export_has_header_and_rows() {
        let trace = small_trace();
        let csv = trace.to_csv();
        let lines: Vec<_> = csv.lines().collect();
        assert_eq!(lines.len(), trace.len() + 1);
        assert!(lines[0].starts_with("job_id,task_id,kind"));
        assert!(lines[1].contains("646")); // PanDA-style id prefix
    }

    #[test]
    fn csv_export_quotes_site_names_that_need_it() {
        let mut trace = small_trace();
        trace.jobs.truncate(3);
        trace.jobs[0].hist_site = Arc::from("T2,\"rogue\"\nsite");
        trace.jobs[1].hist_site = Arc::from("cr\rsite");
        let csv = trace.to_csv();
        let [a, b, c] = [0, 1, 2].map(|i| &trace.jobs[i]);
        let quoted = format!(",{},\"T2,\"\"rogue\"\"\nsite\",", a.submit_time);
        assert!(csv.contains(&quoted), "{csv}");
        assert!(csv.contains(&format!(",{},\"cr\rsite\",", b.submit_time)));
        let plain = format!(",{},{},", c.submit_time, c.hist_site);
        assert!(csv.contains(&plain), "{csv}");
    }

    #[test]
    fn site_names_lists_distinct_sites() {
        let trace = small_trace();
        let names = trace.site_names();
        assert_eq!(names.len(), 4);
        assert!(names.contains(&"BNL".to_string()));
    }
}
