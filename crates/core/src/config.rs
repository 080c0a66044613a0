//! Execution parameters (the third JSON input file).

use cgsim_monitor::MonitoringConfig;
use serde::{Deserialize, Serialize};

use crate::queue_model::QueueModel;
use crate::simulation::SimulationError;

/// How CPU cores are shared between jobs at a site.
/// Format: `execution.json`'s `compute_mode`, read and written.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum ComputeMode {
    /// Jobs get dedicated cores (PanDA batch-slot semantics); jobs queue when
    /// no cores are free. This is the mode used by all paper experiments.
    #[default]
    DedicatedCores,
    /// Jobs time-share the site's aggregate capacity through the fluid model
    /// (useful for modelling opportunistic/backfill resources).
    TimeShared,
}

/// Where a job's periodic checkpoints are written.
/// Format: `execution.json`'s `checkpoint.target`, read and written.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum CheckpointTarget {
    /// The storage element of the site the job executes at. Writes cross
    /// only the site LAN (cheap), but a site outage or disk loss destroys
    /// the checkpoints together with the site.
    #[default]
    SiteStorage,
    /// The main server's storage. Writes cross the WAN (contending with
    /// staging traffic), but checkpoints survive any site fault.
    MainServer,
}

/// Checkpoint/restart policy: how often executing jobs persist their state,
/// how large that state is, and where it is written.
///
/// Checkpoints are *simulated work*, not free metadata: each write is a
/// fluid-model transfer from the execution site to the target storage,
/// contending with staging traffic. By default checkpointing is synchronous
/// (execution pauses until the write is durable); with `overlap` the write
/// proceeds concurrently with the next execution segment and the job only
/// stalls when the previous write is still in flight at the next boundary.
/// A fault-interrupted job resumes from its newest surviving *durable*
/// checkpoint — re-staging the checkpoint data through the fluid model when
/// it lives at another endpoint — instead of rerunning from scratch.
/// Fields missing from JSON take their [`Default`] values.
/// Format: `checkpoint` in `execution.json` and in serve requests, read and written.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CheckpointConfig {
    /// Checkpoint interval in completed-work seconds: a job writes a
    /// checkpoint each time it finishes another `interval_s` seconds of
    /// execution progress. `0` disables checkpointing entirely (the default;
    /// runs are then bit-identical to builds without the feature).
    #[serde(default)]
    pub interval_s: f64,
    /// Fixed size of a checkpoint in bytes (state independent of core
    /// count).
    #[serde(default = "default_checkpoint_base_bytes")]
    pub base_bytes: u64,
    /// Additional checkpoint bytes per core of the job (per-rank state).
    #[serde(default = "default_checkpoint_bytes_per_core")]
    pub bytes_per_core: u64,
    /// Where checkpoints are written.
    #[serde(default)]
    pub target: CheckpointTarget,
    /// Asynchronous checkpointing: when true, a checkpoint write overlaps
    /// the next execution segment instead of pausing the job. The job only
    /// stalls if the previous write is still in flight when it reaches the
    /// next checkpoint boundary. `false` (the default) keeps the original
    /// synchronous write-then-resume behaviour bit-for-bit.
    #[serde(default)]
    pub overlap: bool,
    /// Incremental checkpointing: bytes of *new* state produced per
    /// completed-work second since the previous checkpoint. When non-zero, a
    /// write whose target already holds an older checkpoint of the job ships
    /// only `delta_bytes_per_s × progress-seconds` (capped at the full image
    /// size); the first write to a target always ships the full image, and
    /// restores always re-stage the full image. `0` (the default) disables
    /// deltas and every write ships the full image.
    #[serde(default)]
    pub delta_bytes_per_s: u64,
}

fn default_checkpoint_base_bytes() -> u64 {
    2_000_000_000 // 2 GB of application state
}

fn default_checkpoint_bytes_per_core() -> u64 {
    250_000_000 // + 250 MB per rank
}

impl Default for CheckpointConfig {
    fn default() -> Self {
        CheckpointConfig {
            interval_s: 0.0,
            base_bytes: default_checkpoint_base_bytes(),
            bytes_per_core: default_checkpoint_bytes_per_core(),
            target: CheckpointTarget::SiteStorage,
            overlap: false,
            delta_bytes_per_s: 0,
        }
    }
}

impl CheckpointConfig {
    /// A checkpoint policy writing every `interval_s` completed-work seconds
    /// with the default size model and target.
    pub fn every(interval_s: f64) -> Self {
        CheckpointConfig {
            interval_s,
            ..CheckpointConfig::default()
        }
    }

    /// True when the policy actually checkpoints.
    pub fn enabled(&self) -> bool {
        self.interval_s > 0.0
    }

    /// Checkpoint size for a job of `cores` cores.
    pub(crate) fn bytes_for(&self, cores: u32) -> u64 {
        self.base_bytes
            .saturating_add(self.bytes_per_core.saturating_mul(cores as u64))
    }

    /// Bytes actually shipped by a checkpoint write for a job of `cores`
    /// cores that made `progress_s` completed-work seconds since the target
    /// last received a checkpoint of this job. `has_base` says whether the
    /// target holds such an older checkpoint (delta writes need a base
    /// image to apply against). Never exceeds the full image size.
    pub(crate) fn transfer_bytes_for(&self, cores: u32, progress_s: f64, has_base: bool) -> u64 {
        let full = self.bytes_for(cores);
        if self.delta_bytes_per_s == 0 || !has_base {
            return full;
        }
        let delta = (self.delta_bytes_per_s as f64 * progress_s.max(0.0)).round() as u64;
        delta.min(full).max(1)
    }
}

/// Fault-aware re-replication policy: after an outage or disk loss evicts
/// replicas, a background repair planner re-establishes them as real fluid
/// transfers (contending with staging and checkpoint traffic on the WAN).
///
/// Disabled by default; a disabled configuration is bit-identical to builds
/// without the feature. Source and destination selection are deterministic
/// (seeded from the master seed), concurrency is bounded, and a repair whose
/// chosen source dies mid-transfer retries with exponential backoff up to
/// `max_retries` times before the deficit is abandoned — graceful
/// degradation, never a livelock.
/// Format: `repair` in `execution.json` and in serve requests, read and written.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RepairConfig {
    /// Master switch. `false` (the default) schedules no repair work at all.
    #[serde(default)]
    pub enabled: bool,
    /// Desired number of replicas per task-input dataset (including the
    /// indestructible main-server copy). Deficits below this target trigger
    /// re-replication.
    #[serde(default = "default_repair_target_factor")]
    pub target_factor: u32,
    /// Maximum number of repair transfers in flight at once.
    #[serde(default = "default_repair_max_concurrent")]
    pub max_concurrent: u32,
    /// Base retry backoff in seconds; attempt `n` waits `backoff_s × 2^(n-1)`.
    #[serde(default = "default_repair_backoff_s")]
    pub backoff_s: f64,
    /// How many times a failed repair of one deficit is retried before the
    /// deficit is abandoned.
    #[serde(default = "default_repair_max_retries")]
    pub max_retries: u32,
}

fn default_repair_target_factor() -> u32 {
    2
}

fn default_repair_max_concurrent() -> u32 {
    4
}

fn default_repair_backoff_s() -> f64 {
    300.0
}

fn default_repair_max_retries() -> u32 {
    5
}

impl Default for RepairConfig {
    fn default() -> Self {
        RepairConfig {
            enabled: false,
            target_factor: default_repair_target_factor(),
            max_concurrent: default_repair_max_concurrent(),
            backoff_s: default_repair_backoff_s(),
            max_retries: default_repair_max_retries(),
        }
    }
}

impl RepairConfig {
    /// A repair policy enabled with the default knobs.
    pub fn enabled() -> Self {
        RepairConfig {
            enabled: true,
            ..RepairConfig::default()
        }
    }
}

/// Execution parameters: everything about a run that is not the platform or
/// the workload.
/// Format: `execution.json`, read and written (and hashed into serve's cache key).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExecutionConfig {
    /// Name of the allocation policy to instantiate from the registry.
    pub allocation_policy: String,
    /// Master RNG seed (failure draws, random policies).
    pub seed: u64,
    /// Probability that a job fails at the end of its execution.
    pub failure_probability: f64,
    /// How many times a failed job is re-submitted before being declared failed.
    pub max_retries: u32,
    /// How many times a fault-interrupted job (site outage, partial node
    /// loss, targeted kill) is resubmitted before being declared failed.
    /// Separate from `max_retries` so operators can study retry budgets for
    /// infrastructure faults independently of application failures.
    #[serde(default = "default_fault_max_retries")]
    pub fault_max_retries: u32,
    /// Checkpoint/restart policy for executing jobs (disabled by default;
    /// absent from configurations written before the feature existed, hence
    /// the serde default).
    #[serde(default)]
    pub checkpoint: CheckpointConfig,
    /// Fault-aware re-replication policy (disabled by default; absent from
    /// configurations written before the feature existed).
    #[serde(default)]
    pub repair: RepairConfig,
    /// Name of the data-movement policy to instantiate from the data-policy
    /// registry: it alone picks the replica a job's input is staged from
    /// (the lowest-latency replica when it declines) and decides whether the
    /// execution site keeps the staged input as a replica, so later jobs of
    /// the same task skip the WAN transfer. Such a replica is kept without a
    /// byte bound and is lost only to an outage or disk loss at the site.
    /// The default policy declines every source choice and keeps every
    /// input; `main-server-source` and `never-cache` change one each.
    #[serde(default = "default_data_movement_policy")]
    pub data_movement_policy: String,
    /// Core sharing mode.
    pub compute_mode: ComputeMode,
    /// Scheduling-overhead / contention model applied when a site picks a job
    /// from its queue (paper §4.2 queue-time modeling). Zero by default.
    #[serde(default)]
    pub queue_model: QueueModel,
    /// Monitoring configuration.
    pub monitoring: MonitoringConfig,
    /// Optional virtual-time horizon (seconds); events after it are dropped.
    pub horizon_s: Option<f64>,
}

fn default_data_movement_policy() -> String {
    "default-data-movement".to_string()
}

fn default_fault_max_retries() -> u32 {
    3
}

impl Default for ExecutionConfig {
    fn default() -> Self {
        ExecutionConfig {
            allocation_policy: "least-loaded".to_string(),
            seed: 1,
            failure_probability: 0.0,
            max_retries: 1,
            fault_max_retries: default_fault_max_retries(),
            checkpoint: CheckpointConfig::default(),
            repair: RepairConfig::default(),
            data_movement_policy: default_data_movement_policy(),
            compute_mode: ComputeMode::DedicatedCores,
            queue_model: QueueModel::default(),
            monitoring: MonitoringConfig::default(),
            horizon_s: None,
        }
    }
}

impl ExecutionConfig {
    /// Convenience constructor selecting a policy by name.
    pub fn with_policy(name: impl Into<String>) -> Self {
        ExecutionConfig {
            allocation_policy: name.into(),
            ..ExecutionConfig::default()
        }
    }

    /// Serialises to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("execution config serialises")
    }

    /// Parses from JSON. A key no field takes — a typo, or a field that no
    /// longer exists — is an error naming its `.`-joined path, not a line
    /// silently ignored; an absent key takes its default.
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(json).map_err(|e| e.found_in("execution.json"))
    }

    /// Applies the rule of the CLI's duration flags — finite and ≥ 0 — to
    /// the durations a JSON file or a serve request can set past them: every
    /// [`KnobField::Seconds`] row of [`KNOBS`].
    pub fn validate(&self) -> Result<(), SimulationError> {
        // The accessors lend `&mut`, so the rows read a copy.
        let mut copy = self.clone();
        for knob in KNOBS.into_iter().flatten() {
            if let KnobField::Seconds(&mut seconds) = (knob.field)(&mut copy) {
                if !seconds.is_finite() || seconds < 0.0 {
                    return Err(SimulationError::InvalidScenario(format!(
                        "{} must be non-negative and finite, got {seconds}",
                        knob.path
                    )));
                }
            }
        }
        Ok(())
    }
}

/// The field a [`Knob`] writes; the variant is the kind of value it parses.
#[derive(Debug)]
pub enum KnobField<'a> {
    /// A duration with an optional `s`/`m`/`h`/`d` suffix, finite and ≥ 0.
    Seconds(&'a mut f64),
    /// A non-negative integer.
    U64(&'a mut u64),
    /// A non-negative 32-bit integer.
    U32(&'a mut u32),
    /// A switch: given without a value, it sets the field to `true`.
    Switch(&'a mut bool),
    /// `site` or `main`.
    Target(&'a mut CheckpointTarget),
}

/// One execution knob: a `cgsim` flag and the field it overrides.
#[derive(Debug)]
pub struct Knob {
    /// The flag name, without its `--`.
    pub flag: &'static str,
    /// The field's path in `execution.json`.
    pub path: &'static str,
    /// One line of `cgsim help`.
    pub doc: &'static str,
    /// The field.
    pub field: for<'a> fn(&'a mut ExecutionConfig) -> KnobField<'a>,
}

impl Knob {
    /// Parses `value` by the knob's kind and writes it into `execution`; a
    /// switch takes only the empty value, so a token after it is refused.
    pub fn apply(&self, execution: &mut ExecutionConfig, value: &str) -> Result<(), String> {
        let flag = self.flag;
        let not = |kind: &str| format!("--{flag} '{value}' is not {kind}");
        match (self.field)(execution) {
            KnobField::Seconds(field) => {
                *field =
                    cgsim_faults::parse_duration(value).map_err(|e| format!("--{flag}: {e}"))?
            }
            KnobField::U64(field) => *field = value.parse().map_err(|_| not("a count"))?,
            KnobField::U32(field) => *field = value.parse().map_err(|_| not("a 32-bit count"))?,
            KnobField::Switch(field) if value.is_empty() => *field = true,
            KnobField::Switch(_) => return Err(not("empty (the flag is a switch)")),
            KnobField::Target(field) if value == "site" => *field = CheckpointTarget::SiteStorage,
            KnobField::Target(field) if value == "main" => *field = CheckpointTarget::MainServer,
            KnobField::Target(_) => return Err(not("site or main")),
        }
        Ok(())
    }
}

/// Every execution knob, one row each, in the three groups of `cgsim`'s help
/// text: the checkpoint, repair and monitoring flags.
#[rustfmt::skip]
pub const KNOBS: [&[Knob]; 3] = {
    use KnobField::*;
    const fn knob(flag: &'static str, path: &'static str, doc: &'static str, field: for<'a> fn(&'a mut ExecutionConfig) -> KnobField<'a>) -> Knob {
        Knob { flag, path, doc, field }
    }
    [
        &[
            knob("checkpoint-interval", "checkpoint.interval_s", "checkpoint every DUR of completed work", |e| Seconds(&mut e.checkpoint.interval_s)),
            knob("checkpoint-bytes", "checkpoint.base_bytes", "fixed checkpoint size in bytes", |e| U64(&mut e.checkpoint.base_bytes)),
            knob("checkpoint-per-core-bytes", "checkpoint.bytes_per_core", "extra bytes per job core", |e| U64(&mut e.checkpoint.bytes_per_core)),
            knob("checkpoint-target", "checkpoint.target", "write to site storage or the main server", |e| Target(&mut e.checkpoint.target)),
            knob("checkpoint-overlap", "checkpoint.overlap", "asynchronous writes: overlap each write with the next execution segment (stall only if the previous write is in flight)", |e| Switch(&mut e.checkpoint.overlap)),
            knob("checkpoint-delta-bytes-per-s", "checkpoint.delta_bytes_per_s", "incremental checkpoints: ship N bytes per second of new progress instead of the full image (0 = full images)", |e| U64(&mut e.checkpoint.delta_bytes_per_s)),
        ],
        &[
            knob("repair", "repair.enabled", "enable background re-replication of task inputs lost to diskloss/outage eviction; without it the other repair flags change nothing", |e| Switch(&mut e.repair.enabled)),
            knob("repair-target", "repair.target_factor", "replicas to maintain per dataset (default 2)", |e| U32(&mut e.repair.target_factor)),
            knob("repair-concurrent", "repair.max_concurrent", "max in-flight repair transfers (default 4)", |e| U32(&mut e.repair.max_concurrent)),
            knob("repair-backoff", "repair.backoff_s", "base retry backoff, doubled per failed attempt (default 300s)", |e| Seconds(&mut e.repair.backoff_s)),
            knob("repair-retries", "repair.max_retries", "failed attempts before a dataset is abandoned (default 5)", |e| U32(&mut e.repair.max_retries)),
        ],
        &[
            knob("max-events", "monitoring.max_events", "cap retained event records (ring of the newest; 0 = unbounded, the default)", |e| U64(&mut e.monitoring.max_events)),
            knob("sample-stride", "monitoring.sample_stride", "keep one of every N event records", |e| U64(&mut e.monitoring.sample_stride)),
            knob("window", "monitoring.window_s", "windowed metrics of this width (e.g. 1h)", |e| Seconds(&mut e.monitoring.window_s)),
        ],
    ]
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let cfg = ExecutionConfig::default();
        assert_eq!(cfg.allocation_policy, "least-loaded");
        assert_eq!(cfg.failure_probability, 0.0);
        assert_eq!(cfg.compute_mode, ComputeMode::DedicatedCores);
        assert_eq!(cfg.data_movement_policy, "default-data-movement");
        assert!(cfg.queue_model.is_zero());
        assert!(!cfg.checkpoint.enabled());
        assert!(!cfg.checkpoint.overlap);
        assert_eq!(cfg.checkpoint.delta_bytes_per_s, 0);
        assert!(!cfg.repair.enabled);
    }

    #[test]
    fn configs_without_queue_model_or_data_policy_still_parse() {
        // Configuration files written before the queue-time model, the
        // data-movement policy, checkpointing or repair existed must keep
        // loading (serde defaults).
        let mut json: serde_json::Value =
            serde_json::from_str(&ExecutionConfig::default().to_json()).unwrap();
        json.as_object_mut().unwrap().remove("queue_model");
        json.as_object_mut().unwrap().remove("data_movement_policy");
        json.as_object_mut().unwrap().remove("fault_max_retries");
        json.as_object_mut().unwrap().remove("checkpoint");
        json.as_object_mut().unwrap().remove("repair");
        let cfg = ExecutionConfig::from_json(&json.to_string()).unwrap();
        assert!(cfg.queue_model.is_zero());
        assert_eq!(cfg.data_movement_policy, "default-data-movement");
        assert_eq!(cfg.fault_max_retries, 3);
        assert_eq!(cfg.checkpoint, CheckpointConfig::default());
        assert!(!cfg.checkpoint.enabled());
        assert_eq!(cfg.repair, RepairConfig::default());
        assert!(!cfg.repair.enabled);
    }

    #[test]
    fn checkpoint_configs_without_async_fields_still_parse() {
        // Checkpoint blocks written before overlap/delta existed keep
        // loading as synchronous full-image checkpointing.
        let json = r#"{"interval_s": 600.0, "base_bytes": 1000,
                       "bytes_per_core": 10, "target": "SiteStorage"}"#;
        let ck: CheckpointConfig = serde_json::from_str(json).unwrap();
        assert!(!ck.overlap);
        assert_eq!(ck.delta_bytes_per_s, 0);
    }

    #[test]
    fn checkpoint_config_roundtrips_and_sizes() {
        let ck = CheckpointConfig {
            interval_s: 1_800.0,
            base_bytes: 1_000,
            bytes_per_core: 10,
            target: CheckpointTarget::MainServer,
            overlap: true,
            delta_bytes_per_s: 5,
        };
        assert!(ck.enabled());
        assert_eq!(ck.bytes_for(8), 1_080);
        assert!(CheckpointConfig::every(600.0).enabled());
        let cfg = ExecutionConfig {
            checkpoint: ck.clone(),
            ..ExecutionConfig::default()
        };
        let back = ExecutionConfig::from_json(&cfg.to_json()).unwrap();
        assert_eq!(back.checkpoint, ck);
    }

    #[test]
    fn delta_checkpoints_cap_at_the_full_image() {
        let ck = CheckpointConfig {
            interval_s: 100.0,
            base_bytes: 1_000,
            bytes_per_core: 0,
            delta_bytes_per_s: 4,
            ..CheckpointConfig::default()
        };
        // No base image at the target -> full image.
        assert_eq!(ck.transfer_bytes_for(1, 100.0, false), 1_000);
        // Base present -> delta bytes, capped at the full image.
        assert_eq!(ck.transfer_bytes_for(1, 100.0, true), 400);
        assert_eq!(ck.transfer_bytes_for(1, 1e9, true), 1_000);
        // Deltas disabled -> always the full image.
        let full = CheckpointConfig {
            delta_bytes_per_s: 0,
            ..ck.clone()
        };
        assert_eq!(full.transfer_bytes_for(1, 100.0, true), 1_000);
    }

    #[test]
    fn repair_config_defaults_and_roundtrip() {
        let off = RepairConfig::default();
        assert!(!off.enabled);
        let on = RepairConfig::enabled();
        assert!(on.enabled);
        assert_eq!(on.target_factor, 2);
        assert_eq!(on.max_concurrent, 4);
        assert_eq!(on.backoff_s, 300.0);
        assert_eq!(on.max_retries, 5);
        let cfg = ExecutionConfig {
            repair: on.clone(),
            ..ExecutionConfig::default()
        };
        let back = ExecutionConfig::from_json(&cfg.to_json()).unwrap();
        assert_eq!(back.repair, on);
        // A bare `{"enabled": true}` block fills the remaining knobs.
        let sparse: RepairConfig = serde_json::from_str(r#"{"enabled": true}"#).unwrap();
        assert_eq!(sparse, on);
    }

    #[test]
    fn execution_config_json_roundtrip() {
        let mut cfg = ExecutionConfig::with_policy("round-robin");
        cfg.failure_probability = 0.05;
        cfg.horizon_s = Some(1e6);
        let json = cfg.to_json();
        let back = ExecutionConfig::from_json(&json).unwrap();
        assert_eq!(back.allocation_policy, "round-robin");
        assert_eq!(back.failure_probability, 0.05);
        assert_eq!(back.horizon_s, Some(1e6));
    }

    #[test]
    fn durations_must_be_finite_and_non_negative() {
        assert_eq!(ExecutionConfig::default().validate(), Ok(()));
        let zero = ExecutionConfig {
            checkpoint: CheckpointConfig::every(-0.0),
            ..ExecutionConfig::default()
        };
        assert_eq!(zero.validate(), Ok(()));
        for bad in [-60.0, f64::INFINITY, f64::NAN] {
            let checkpoint = ExecutionConfig {
                checkpoint: CheckpointConfig::every(bad),
                ..ExecutionConfig::default()
            };
            let repair = ExecutionConfig {
                repair: RepairConfig {
                    backoff_s: bad,
                    ..RepairConfig::enabled()
                },
                ..ExecutionConfig::default()
            };
            let mut window = ExecutionConfig::default();
            window.monitoring.window_s = bad;
            for (config, knob) in [
                (checkpoint, "checkpoint.interval_s"),
                (repair, "repair.backoff_s"),
                (window, "monitoring.window_s"),
            ] {
                let Err(SimulationError::InvalidScenario(msg)) = config.validate() else {
                    panic!("{knob} = {bad} accepted");
                };
                assert!(msg.starts_with(knob), "{msg}");
            }
        }
    }

    /// The `.`-joined paths of the leaves at which `a` and `b` differ.
    fn changed_leaves(a: &serde_json::Value, b: &serde_json::Value, path: &str) -> Vec<String> {
        match (a.as_object(), b.as_object()) {
            (Some(a), Some(b)) => a
                .iter()
                .flat_map(|(key, value)| {
                    let path = if path.is_empty() {
                        key.clone()
                    } else {
                        format!("{path}.{key}")
                    };
                    changed_leaves(value, b.get(key).expect("same shape"), &path)
                })
                .collect(),
            _ if a != b => vec![path.to_string()],
            _ => Vec::new(),
        }
    }

    #[test]
    fn every_knob_parses_its_kind_and_writes_only_its_own_path() {
        assert_eq!(KNOBS.map(<[Knob]>::len), [6, 5, 3]);
        let defaults = serde_json::to_value(&ExecutionConfig::default()).unwrap();
        for knob in KNOBS.into_iter().flatten() {
            // The kind's edge values; the last one differs from the default.
            let u64_max = u64::MAX.to_string();
            let u32_max = u32::MAX.to_string();
            let edges: &[&str] = match (knob.field)(&mut ExecutionConfig::default()) {
                KnobField::Seconds(_) => &["0", "1d"],
                KnobField::U64(_) => &["0", &u64_max],
                KnobField::U32(_) => &["0", &u32_max],
                KnobField::Switch(_) => &[""],
                KnobField::Target(_) => &["site", "main"],
            };
            let mut execution = ExecutionConfig::default();
            for value in edges {
                knob.apply(&mut execution, value)
                    .unwrap_or_else(|e| panic!("--{} {value:?}: {e}", knob.flag));
            }
            let applied = serde_json::to_value(&execution).unwrap();
            assert_eq!(
                changed_leaves(&defaults, &applied, ""),
                [knob.path],
                "--{}",
                knob.flag
            );
            for junk in ["x", "-1", "-1s"] {
                let err = knob
                    .apply(&mut ExecutionConfig::default(), junk)
                    .expect_err(junk);
                assert_eq!(err.lines().count(), 1, "{err}");
                let named = err.split([' ', ':']).next().unwrap();
                assert_eq!(named, format!("--{}", knob.flag), "{err}");
            }
        }
    }

    #[test]
    fn unknown_fields_are_rejected_gracefully() {
        // An unknown key is an error naming it, not a panic or a default.
        let refused = |json: &str, key: &str| {
            let err = ExecutionConfig::from_json(json).expect_err(key);
            assert_eq!(
                err.to_string(),
                format!("unknown key `{key}` in execution.json")
            );
        };
        refused("{\"bogus\": 1}", "bogus");
        let defaults = ExecutionConfig::default().to_json();
        // The retired data-movement fields: their policies replace them.
        for (key, value) in [
            ("source_selection", "\"MainServer\""),
            ("cache_datasets", "false"),
            ("enable_output_transfers", "true"),
        ] {
            refused(
                &defaults.replacen('{', &format!("{{\"{key}\": {value},"), 1),
                key,
            );
        }
        // Typos, at the top level and inside a block.
        for (key, typo, path) in [
            ("allocation_policy", "allocation_polcy", "allocation_polcy"),
            ("interval_s", "intervl_s", "checkpoint.intervl_s"),
            ("window_s", "window", "monitoring.window"),
        ] {
            let quoted = format!("\"{key}\"");
            assert_eq!(defaults.matches(&quoted).count(), 1, "{key}");
            refused(&defaults.replace(&quoted, &format!("\"{typo}\"")), path);
        }
    }
}
