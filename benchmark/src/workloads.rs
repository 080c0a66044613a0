//! The named workloads and the end-to-end metric table. Names are size-free;
//! the sizes live here and nowhere else. `BENCHMARK.json` mirrors the names,
//! reasons, units and bounds (a unit test holds the two together).

/// Platform seed of every workload: `--seed` varies the jobs and the request
/// order, never the grid, so a run's cost does not jump with the seed.
pub const PLATFORM_SEED: u64 = 42;

/// Fault-plan seed of the faulted workloads, fixed for the same reason (see
/// README "What the seed feeds"): across fault seeds the same scenario's
/// host time moves by ±30 %, far beyond any bound a regression could be held
/// to.
pub const FAULT_SEED: u64 = 7;

/// Site churn for the whole run: every site fails and recovers, every WAN
/// link degrades, two jobs an hour are killed. The horizon is explicit and a
/// check asserts it covers the makespan.
pub const CHURN_SPEC: &str = "outage:site=all,mttf=2h,mttr=20m;\
degrade:link=all,factor=0.3,mttf=4h,mttr=30m;kill:rate=2;horizon=400h";

/// Checkpoint image size of a faulted workload (everything else about its
/// checkpoint policy is shared: 20 min interval, main-server target,
/// overlapped writes, 10 MB/s deltas).
#[derive(Debug, Clone, Copy)]
pub struct CkptSize {
    pub base_bytes: u64,
    pub bytes_per_core: u64,
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Monitoring {
    /// Ring of 10k events, stride 100, 1 h windows: the scale-campaign shape.
    Bounded,
    /// Every transition recorded: the dataset shape.
    Full,
}

/// What "does what its name says" means for a simulation workload, checked
/// at full size only (a 1/50-size run has no pile-up to find).
#[derive(Debug, Clone, Copy)]
pub struct ShapeChecks {
    /// `ckpt_stalls` must be at least this (`None`: not checked).
    pub min_ckpt_stalls: Option<u64>,
    /// `ckpt_stalls` must be at most this share of checkpoints written.
    pub max_stall_share: Option<f64>,
    /// Traced: fluid seconds / event-loop seconds must be at least this.
    pub min_fluid_share: Option<f64>,
    /// Traced: `fluid_slow_solves` must be at least this.
    pub min_slow_solves: Option<u64>,
}

impl ShapeChecks {
    const NONE: ShapeChecks = ShapeChecks {
        min_ckpt_stalls: None,
        max_stall_share: None,
        min_fluid_share: None,
        min_slow_solves: None,
    };
}

#[derive(Debug, Clone, Copy)]
pub struct SimShape {
    pub sites: usize,
    pub jobs: usize,
    /// Hours the submissions are spread over. The generator's default 6 h
    /// burst queues most jobs at once; the faulted workloads spread theirs
    /// over a day or two so that churn acts on a steady load for the whole
    /// run — a burst's cost swings ±30 % with the job seed, a steady load's
    /// does not.
    pub window_h: f64,
    pub policy: &'static str,
    /// `trace_stream` (no trace materialised) or an `Arc<Trace>`.
    pub streamed: bool,
    /// Faulted with [`CHURN_SPEC`] and checkpointing at this image size.
    pub churn: Option<CkptSize>,
    pub monitoring: Monitoring,
    /// Write the full output directory (tables, results, ML dataset) and
    /// count that time into `wall_s`.
    pub dataset_export: bool,
    pub checks: ShapeChecks,
}

#[derive(Debug, Clone, Copy)]
pub struct ServeShape {
    pub sites: usize,
    pub jobs: usize,
    /// Response-cache capacity of the engine.
    pub cache: usize,
    /// Distinct scenario deltas requests are drawn from.
    pub distinct: usize,
    /// Request lines in the timed transcript.
    pub lines: usize,
    /// Send every distinct delta once during set-up, so the timed transcript
    /// starts with a full cache.
    pub primed: bool,
}

#[derive(Debug, Clone, Copy)]
pub enum Shape {
    Sim(SimShape),
    Serve(ServeShape),
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub shape: Shape,
}

const GRID_CLEAN: SimShape = SimShape {
    sites: 12,
    jobs: 200_000,
    window_h: 6.0,
    policy: "least-loaded",
    streamed: true,
    churn: None,
    monitoring: Monitoring::Bounded,
    dataset_export: false,
    checks: ShapeChecks::NONE,
};

pub const WORKLOADS: [Workload; 7] = [
    Workload {
        name: "grid_clean",
        why: "12 sites, streamed jobs, no faults: event queue, dispatch, broker/policy, staging and bounded monitor do the work; memory per job",
        shape: Shape::Sim(GRID_CLEAN),
    },
    Workload {
        name: "grid_wide",
        why: "200 sites: per-dispatch O(sites) scans and O(sites^2) route construction dominate; the paper's hundreds-of-sites claim",
        shape: Shape::Sim(SimShape {
            sites: 200,
            jobs: 60_000,
            ..GRID_CLEAN
        }),
    },
    Workload {
        name: "churn",
        why: "site outages, link degradation, kills and async 1 GB checkpoints over the whole run: fault replay, resubmits, fluid fast path",
        shape: Shape::Sim(SimShape {
            jobs: 30_000,
            window_h: 48.0,
            churn: Some(CkptSize {
                base_bytes: 1_000_000_000,
                bytes_per_core: 0,
            }),
            checks: ShapeChecks {
                max_stall_share: Some(0.001),
                ..ShapeChecks::NONE
            },
            ..GRID_CLEAN
        }),
    },
    Workload {
        name: "ckpt_pileup",
        why: "churn with 8 GB + 1 GB/core checkpoints: long main-server writes pile up into multi-bottleneck fluid components, the slow path",
        shape: Shape::Sim(SimShape {
            jobs: 16_000,
            window_h: 24.0,
            churn: Some(CkptSize {
                base_bytes: 8_000_000_000,
                bytes_per_core: 1_000_000_000,
            }),
            checks: ShapeChecks {
                min_ckpt_stalls: Some(5_000),
                min_fluid_share: Some(0.75),
                min_slow_solves: Some(20_000),
                ..ShapeChecks::NONE
            },
            ..GRID_CLEAN
        }),
    },
    Workload {
        name: "dataset",
        why: "materialised trace, data-aware policy, every transition recorded, then the full output directory written: the paper's ML-dataset use",
        shape: Shape::Sim(SimShape {
            jobs: 150_000,
            policy: "data-aware",
            streamed: false,
            monitoring: Monitoring::Full,
            dataset_export: true,
            ..GRID_CLEAN
        }),
    },
    Workload {
        name: "serve_mixed",
        why: "closed-loop serve transcript, Zipf over 120 deltas against a 64-entry cache: misses, hits and evictions interleave; time is in misses",
        shape: Shape::Serve(ServeShape {
            sites: 12,
            jobs: 1_500,
            cache: 64,
            distinct: 120,
            lines: 1_000,
            primed: false,
        }),
    },
    Workload {
        name: "serve_hot",
        why: "same serve loop, working set of 32 deltas primed into the cache: every timed request is a hit, so parse/hash/lookup/encode set the time",
        shape: Shape::Serve(ServeShape {
            sites: 12,
            jobs: 1_500,
            cache: 64,
            distinct: 32,
            lines: 15_000,
            primed: true,
        }),
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Job count at `1/divisor` size (`--quick` uses 50), never below 200 so a
/// quick run still queues, stages and finishes jobs at every site.
pub fn scaled(count: usize, divisor: usize) -> usize {
    if divisor <= 1 {
        count
    } else {
        (count / divisor).max(200)
    }
}

/// One end-to-end metric: what a user of the simulator sees. Lower is
/// better for all of them.
#[derive(Debug, Clone, Copy)]
pub struct E2eMetric {
    pub name: &'static str,
    pub unit: &'static str,
    /// Share of the baseline median by which the metric may get worse.
    pub bound: f64,
    /// `compare` treats differences and spreads below this many units as
    /// within the bound, whatever share of the median they are: a quarter of
    /// a 0.2 ms set-up is clock noise, not a regression. (The driver knows
    /// only `bound`.)
    pub floor: f64,
}

pub const E2E_METRICS: [E2eMetric; 3] = [
    // Host seconds of the workload's measured operation, set-up excluded:
    // `Simulation::run()`; for `dataset` also writing the output directory;
    // for the serve workloads the whole transcript through `serve_loop`.
    E2eMetric {
        name: "wall_s",
        unit: "s",
        bound: 0.20,
        floor: 0.0,
    },
    // Host seconds from the start of the repetition's process to the end of
    // `SimulationBuilder::build()` (serve: until the engine has answered its
    // first line and, if primed, its working set).
    E2eMetric {
        name: "setup_s",
        unit: "s",
        bound: 0.25,
        floor: 0.05,
    },
    // `VmHWM` of the repetition's process when it ends.
    E2eMetric {
        name: "peak_rss_mb",
        unit: "MB",
        bound: 0.08,
        floor: 0.0,
    },
];

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    /// The listed fields of every object in `list` (which must have exactly
    /// those fields), strings unquoted.
    fn fields(list: &Value, keys: &[&str]) -> Vec<Vec<String>> {
        let plain = |v: &Value| v.as_str().map_or_else(|| v.to_string(), str::to_string);
        list.as_array()
            .unwrap()
            .iter()
            .map(|item| {
                assert_eq!(item.as_object().unwrap().len(), keys.len(), "{item}");
                keys.iter().map(|k| plain(item.get(k).unwrap())).collect()
            })
            .collect()
    }

    /// `BENCHMARK.json` at the repository root is what the driver reads; the
    /// tables in this package are what the program does. They must agree.
    #[test]
    fn benchmark_json_mirrors_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc: Value = serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap();
        let keys: Vec<&String> = doc.as_object().unwrap().keys().collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert_eq!(doc.get("paths").unwrap().to_string(), "[\"benchmark\"]");

        let workloads: Vec<Vec<String>> = WORKLOADS
            .iter()
            .map(|w| vec![w.name.to_string(), w.why.to_string()])
            .collect();
        assert_eq!(
            fields(doc.get("workloads").unwrap(), &["name", "why"]),
            workloads
        );
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }

        let e2e: Vec<Vec<String>> = E2E_METRICS
            .iter()
            .map(|m| {
                vec![
                    m.name.to_string(),
                    m.unit.to_string(),
                    "lower".to_string(),
                    format!("{:?}", m.bound),
                ]
            })
            .collect();
        assert_eq!(
            fields(
                doc.get("end_to_end").unwrap(),
                &["name", "unit", "better", "bound"]
            ),
            e2e
        );
        assert!(E2E_METRICS.iter().all(|m| m.bound <= 0.25));
        let setup = E2E_METRICS.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(E2E_METRICS.iter().all(|m| m.bound <= setup.bound));

        let layers: Vec<Vec<String>> = crate::layers::per_layer_names()
            .iter()
            .map(|(name, unit)| vec![name.to_string(), unit.to_string()])
            .collect();
        let listed: Vec<Vec<String>> =
            fields(doc.get("per_layer").unwrap(), &["name", "unit", "better"])
                .into_iter()
                .map(|mut v| {
                    assert!(v[2] == "lower" || v[2] == "higher");
                    v.truncate(2);
                    v
                })
                .collect();
        assert_eq!(listed, layers);
    }

    #[test]
    fn quick_sizes_shrink_but_keep_a_floor() {
        assert_eq!(scaled(200_000, 1), 200_000);
        assert_eq!(scaled(200_000, 50), 4_000);
        assert_eq!(scaled(1_500, 50), 200);
    }
}
