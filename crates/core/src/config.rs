//! Execution parameters (the third JSON input file).

use cgsim_data::SourceSelection;
use cgsim_monitor::MonitoringConfig;
use cgsim_platform::PlatformSpec;
use serde::{Deserialize, Serialize};

use crate::queue_model::QueueModel;
use crate::simulation::SimulationError;

/// How CPU cores are shared between jobs at a site.
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
    pub fn bytes_for(&self, cores: u32) -> u64 {
        self.base_bytes
            .saturating_add(self.bytes_per_core.saturating_mul(cores as u64))
    }

    /// Bytes actually shipped by a checkpoint write for a job of `cores`
    /// cores that made `progress_s` completed-work seconds since the target
    /// last received a checkpoint of this job. `has_base` says whether the
    /// target holds such an older checkpoint (delta writes need a base
    /// image to apply against). Never exceeds the full image size.
    pub fn transfer_bytes_for(&self, cores: u32, progress_s: f64, has_base: bool) -> u64 {
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
    /// Replica-source selection strategy for input staging.
    pub source_selection: SourceSelection,
    /// Name of the data-movement policy to instantiate from the data-policy
    /// registry (replica-source selection and cache admission). The default
    /// policy defers source selection to `source_selection` and admits every
    /// staged input as a site replica.
    #[serde(default = "default_data_movement_policy")]
    pub data_movement_policy: String,
    /// Whether finished jobs ship their output back to the main server.
    pub enable_output_transfers: bool,
    /// Whether staged task datasets are registered as replicas at the
    /// execution site (when the data-movement policy's `cache_decision`
    /// admits them) so later jobs of the same task skip the WAN transfer.
    /// Such a replica is kept without a byte bound and is lost only to an
    /// outage or disk loss at the site.
    pub cache_datasets: bool,
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
            source_selection: SourceSelection::LowestLatency,
            data_movement_policy: default_data_movement_policy(),
            enable_output_transfers: true,
            cache_datasets: true,
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

    /// Parses from JSON.
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(json)
    }

    /// Applies the rule of the CLI's duration flags — finite and ≥ 0 — to
    /// the durations a JSON file or a serve request can set past them:
    /// `checkpoint.interval_s` and `repair.backoff_s`.
    pub fn validate(&self) -> Result<(), SimulationError> {
        for (knob, seconds) in [
            ("checkpoint.interval_s", self.checkpoint.interval_s),
            ("repair.backoff_s", self.repair.backoff_s),
        ] {
            if !seconds.is_finite() || seconds < 0.0 {
                return Err(SimulationError::InvalidScenario(format!(
                    "{knob} must be non-negative and finite, got {seconds}"
                )));
            }
        }
        Ok(())
    }
}

/// The full three-part simulation configuration of the paper's input layer:
/// infrastructure + network (both inside [`PlatformSpec`]) and execution
/// parameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimulationConfig {
    /// Platform (infrastructure + network topology).
    pub platform: PlatformSpec,
    /// Execution parameters.
    pub execution: ExecutionConfig,
}

impl SimulationConfig {
    /// Serialises to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("simulation config serialises")
    }

    /// Parses from JSON.
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(json)
    }

    /// Loads a configuration from two JSON files (platform and execution).
    pub fn load(
        platform_path: impl AsRef<std::path::Path>,
        execution_path: impl AsRef<std::path::Path>,
    ) -> std::io::Result<Self> {
        let platform = PlatformSpec::load(platform_path)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
        let execution: ExecutionConfig =
            serde_json::from_str(&std::fs::read_to_string(execution_path)?)?;
        Ok(SimulationConfig {
            platform,
            execution,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgsim_platform::presets::example_platform;

    #[test]
    fn defaults_are_sane() {
        let cfg = ExecutionConfig::default();
        assert_eq!(cfg.allocation_policy, "least-loaded");
        assert_eq!(cfg.failure_probability, 0.0);
        assert!(cfg.cache_datasets);
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
    fn simulation_config_roundtrip_and_file_load() {
        let config = SimulationConfig {
            platform: example_platform(),
            execution: ExecutionConfig::default(),
        };
        let back = SimulationConfig::from_json(&config.to_json()).unwrap();
        assert_eq!(back.platform.sites.len(), 4);

        let dir = std::env::temp_dir().join("cgsim-config-test");
        std::fs::create_dir_all(&dir).unwrap();
        let platform_path = dir.join("platform.json");
        let exec_path = dir.join("execution.json");
        config.platform.save(&platform_path).unwrap();
        std::fs::write(&exec_path, config.execution.to_json()).unwrap();
        let loaded = SimulationConfig::load(&platform_path, &exec_path).unwrap();
        assert_eq!(loaded.platform.sites.len(), 4);
        assert_eq!(loaded.execution.allocation_policy, "least-loaded");
        std::fs::remove_dir_all(dir).ok();
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
            for (config, knob) in [
                (checkpoint, "checkpoint.interval_s"),
                (repair, "repair.backoff_s"),
            ] {
                let Err(SimulationError::InvalidScenario(msg)) = config.validate() else {
                    panic!("{knob} = {bad} accepted");
                };
                assert!(msg.starts_with(knob), "{msg}");
            }
        }
    }

    #[test]
    fn unknown_fields_are_rejected_gracefully() {
        // Missing required field -> error, not panic.
        assert!(ExecutionConfig::from_json("{\"bogus\": 1}").is_err());
    }
}
