//! The `cgsim` command-line interface.
//!
//! Mirrors the paper's workflow: point the simulator at the JSON input files
//! (platform/infrastructure + execution parameters) and a workload trace,
//! pick an allocation policy, and get the output layer (metrics, CSV tables,
//! event-level dataset, dashboard) written to a directory.
//!
//! ```bash
//! # generate example configuration + trace, then simulate them
//! cgsim init      --dir /tmp/cgsim-run
//! cgsim simulate  --platform /tmp/cgsim-run/platform.json \
//!                 --execution /tmp/cgsim-run/execution.json \
//!                 --trace /tmp/cgsim-run/trace.jsonl \
//!                 --output /tmp/cgsim-run/out
//! # or synthesise everything in one go
//! cgsim demo --sites 20 --jobs 2000 --policy least-loaded
//! ```

use std::collections::HashMap;
use std::num::NonZeroUsize;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;

use cgsim::core::{Knob, Observe, SimulationError, KNOBS};
use cgsim::obs::TraceTarget;
use cgsim::prelude::*;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    type Command = fn(&HashMap<String, String>) -> Result<(), String>;
    let (flags, knobs, run): (&[&str], &[&[Knob]], Command) = match command.as_str() {
        "init" => (INIT_FLAGS, &[], cmd_init),
        "simulate" => (SIMULATE_FLAGS, &KNOBS, cmd_simulate),
        "demo" => (DEMO_FLAGS, &KNOBS, cmd_demo),
        // The checkpoint and repair groups: serve runs unmonitored.
        "serve" => (SERVE_FLAGS, &KNOBS[..2], cmd_serve),
        "trace-check" => (TRACE_CHECK_FLAGS, &[], cmd_trace_check),
        "policies" => (&[], &[], |_| {
            for name in PolicyRegistry::with_builtins().names() {
                println!("{name}");
            }
            Ok(())
        }),
        "--help" | "-h" | "help" => (&[], &[], |_| {
            println!("{USAGE}");
            Ok(())
        }),
        other => {
            eprintln!("error: unknown command: {other}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let result = parse_options(command, &args[1..], flags, knobs).and_then(|options| run(&options));
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "cgsim — simulation framework for large-scale distributed computing

USAGE:
    cgsim init      --dir <DIR> [--sites N] [--jobs N] [--seed N]
    cgsim simulate  --platform <platform.json> --execution <execution.json>
                    --trace <trace.jsonl> [--output <DIR>] [--policy NAME]
                    [--faults SPEC] [--fault-seed N] [CHECKPOINT FLAGS]
                    [REPAIR FLAGS] [MONITORING FLAGS] [OBSERVABILITY FLAGS]
    cgsim demo      [--sites N] [--jobs N] [--policy NAME] [--seed N] [--output DIR]
                    [--faults SPEC] [--fault-seed N] [--stream] [CHECKPOINT FLAGS]
                    [REPAIR FLAGS] [MONITORING FLAGS] [OBSERVABILITY FLAGS]
    cgsim serve     --platform <platform.json> --execution <execution.json>
                    --trace <trace.jsonl> [--listen HOST:PORT]
                    [--cache-capacity N] [--no-cache] [--serial]
                    [CHECKPOINT FLAGS] [REPAIR FLAGS]
    cgsim trace-check  [--jsonl <trace.jsonl>] [--chrome <trace.json>]
                    validate trace files against the record schema (CI gate)
    cgsim policies            list the registered allocation policies

OBSERVABILITY FLAGS (see README \"Observability\"; tracing and profiling never
change simulation results — results.json stays byte-identical either way):
    --trace-out <path>       write a structured execution trace (sim-time
                             spans/events; on demo, --trace works too)
    --trace-format jsonl|chrome   trace file format (default jsonl; chrome
                             loads in Perfetto / chrome://tracing)
    --trace-filter CATS      comma-separated categories to keep, from:
                             job,fault,ckpt,fluid,broker,repair (default: all)
    --profile [path]         print a per-subsystem wall-clock table and write
                             machine-readable profile JSON to <path> (default
                             <output>/profile.json when --output is given)

SERVE (simulation as a service):
    Reads one JSONL request per line from stdin (or, with --listen, from
    sequential TCP connections) and writes one JSON response line per
    request. A line holding an array is a batch: evaluated as one engine
    batch, one response line per element, in order. Repeated scenarios are
    answered from a deterministic response cache; replies are byte-identical
    across server restarts. See README \"Simulation as a service\".

FAULT SPECS (semicolon-separated clauses; durations take s/m/h/d suffixes):
    outage:site=2,mttf=4h,mttr=30m[,shape=1.5]   random outages (site=all for every site)
    maint:site=1,start=6h,duration=1h[,period=24h]
    incident:sites=0+2,mttf=24h,mttr=45m         correlated multi-site incidents
    nodeloss:site=0,fraction=0.25,mttf=8h,mttr=1h
    diskloss:site=1,mttf=24h                      storage-media loss (replicas +
                                                  checkpoints gone, site stays up)
    degrade:link=all,factor=0.3,mttf=6h,mttr=15m  (link=<i> is the i-th WAN link)
    kill:rate=1.5                                 job kills per simulated hour
    horizon=48h                                   fault-generation horizon

MONITORING FLAGS (bound the monitoring state for scale campaigns; see README
\"Scale campaigns\" — demo also takes --stream to feed the generator straight
into the engine without materialising the trace):
    --max-events <n>         cap retained event records (ring of the newest;
                             0 = unbounded, the default)
    --sample-stride <n>      keep one of every n event records
    --window <dur>           windowed metrics of this width (e.g. 1h)

CHECKPOINT FLAGS (override the execution config; interval 0 disables):
    --checkpoint-interval <dur>    checkpoint every <dur> of completed work
    --checkpoint-bytes <n>         fixed checkpoint size in bytes
    --checkpoint-per-core-bytes <n>  extra bytes per job core
    --checkpoint-target site|main  write to site storage or the main server
    --checkpoint-overlap           asynchronous writes: overlap each write
                                   with the next execution segment (stall
                                   only if the previous write is in flight)
    --checkpoint-delta-bytes-per-s <n>  incremental checkpoints: ship n bytes
                                   per second of new progress instead of the
                                   full image (0 = full images)

REPAIR FLAGS (fault-aware re-replication; see README \"Self-healing data
layer\" — only --repair enables the planner, the knob flags alone leave it
off and the results byte-identical):
    --repair                       enable background re-replication of task
                                   inputs lost to diskloss/outage eviction
    --repair-target <n>            replicas to maintain per dataset (default 2)
    --repair-concurrent <n>        max in-flight repair transfers (default 4)
    --repair-backoff <dur>         base retry backoff, doubled per failed
                                   attempt (default 300s)
    --repair-retries <n>           failed attempts before a dataset is
                                   abandoned (default 5)
";

// The flags each command declares besides its execution knobs (`KNOBS`), as
// groups of space-separated names; anything else on its command line is an
// error, not a silently ignored token.
const OBSERVABILITY_FLAGS: &str = "trace-out trace-format trace-filter profile";
const INPUT_FLAGS: &str = "platform execution trace policy";
const RESULT_FLAGS: &str = "output faults fault-seed";
const INIT_FLAGS: &[&str] = &["dir sites jobs seed"];
const SIMULATE_FLAGS: &[&str] = &[INPUT_FLAGS, RESULT_FLAGS, OBSERVABILITY_FLAGS];
const DEMO_FLAGS: &[&str] = &[
    "sites jobs policy seed stream trace",
    RESULT_FLAGS,
    OBSERVABILITY_FLAGS,
];
const SERVE_FLAGS: &[&str] = &[INPUT_FLAGS, "listen cache-capacity no-cache serial"];
const TRACE_CHECK_FLAGS: &[&str] = &["jsonl chrome"];
/// Flags that never take a value, so a bare token after one is stray.
const SWITCHES: &str = "stream no-cache serial";

/// Whether `name` is one of the space-separated names in `group`.
fn names(group: &str, name: &str) -> bool {
    group.split_whitespace().any(|flag| flag == name)
}

/// Splits a command line into `--flag [value]` pairs, rejecting flags the
/// command does not declare and tokens that belong to no flag.
fn parse_options(
    command: &str,
    args: &[String],
    declared: &[&str],
    knobs: &[&[Knob]],
) -> Result<HashMap<String, String>, String> {
    let mut options = HashMap::new();
    let mut iter = args.iter().peekable();
    while let Some(token) = iter.next() {
        let Some(name) = token.strip_prefix("--") else {
            return Err(format!("unexpected argument '{token}'"));
        };
        let knob = |group: &&[Knob]| group.iter().any(|knob| knob.flag == name);
        if !declared.iter().any(|group| names(group, name)) && !knobs.iter().any(knob) {
            return Err(format!("`cgsim {command}` has no flag --{name}"));
        }
        // A following `--token` is the next flag, not this one's value, so
        // an optional value (`--profile [path]`) may be left out.
        let value = match iter.peek() {
            Some(next) if !next.starts_with("--") && !names(SWITCHES, name) => {
                iter.next().cloned().unwrap_or_default()
            }
            _ => String::new(),
        };
        options.insert(name.to_string(), value);
    }
    Ok(options)
}

/// The parsed value of `--key`, if the flag was given; `what` names the
/// expected kind of value in the error.
fn parsed<T: std::str::FromStr>(
    options: &HashMap<String, String>,
    key: &str,
    what: &str,
) -> Result<Option<T>, String> {
    options
        .get(key)
        .map(|v| {
            v.parse()
                .map_err(|_| format!("--{key} '{v}' is not {what}"))
        })
        .transpose()
}

/// The `--policy` name, if the flag was given; a bare `--policy` is an error.
fn policy_flag(options: &HashMap<String, String>) -> Result<Option<&String>, String> {
    match options.get("policy") {
        Some(name) if name.is_empty() => {
            Err("--policy needs a policy name (see `cgsim policies`)".to_string())
        }
        policy => Ok(policy),
    }
}

/// `cgsim init`: write example platform/execution/trace files.
fn cmd_init(options: &HashMap<String, String>) -> Result<(), String> {
    let dir = PathBuf::from(
        options
            .get("dir")
            .cloned()
            .unwrap_or_else(|| "cgsim-run".to_string()),
    );
    let sites = parsed(options, "sites", "a positive number")?.map_or(10, NonZeroUsize::get);
    let jobs: usize = parsed(options, "jobs", "a number")?.unwrap_or(1_000);
    let seed: u64 = parsed(options, "seed", "a number")?.unwrap_or(42);
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;

    let platform = wlcg_platform(sites, seed);
    platform
        .save(dir.join("platform.json"))
        .map_err(|e| e.to_string())?;
    std::fs::write(
        dir.join("execution.json"),
        ExecutionConfig::default().to_json(),
    )
    .map_err(|e| e.to_string())?;
    let trace = TraceGenerator::new(TraceConfig::with_jobs(jobs, seed)).generate(&platform);
    trace
        .save_jsonl(dir.join("trace.jsonl"))
        .map_err(|e| e.to_string())?;
    println!(
        "wrote platform.json ({sites} sites), execution.json and trace.jsonl ({jobs} jobs) to {}",
        dir.display()
    );
    Ok(())
}

/// `execution` with every knob flag on the command line applied, validated.
fn with_knobs(
    options: &HashMap<String, String>,
    mut execution: ExecutionConfig,
) -> Result<ExecutionConfig, String> {
    for knob in KNOBS.into_iter().flatten() {
        if let Some(value) = options.get(knob.flag) {
            knob.apply(&mut execution, value)?;
        }
    }
    execution.validate().map_err(|e| e.to_string())?;
    Ok(execution)
}

/// `cgsim trace-check`: validate trace files for the CI trace gate.
fn cmd_trace_check(options: &HashMap<String, String>) -> Result<(), String> {
    let mut checked = false;
    if let Some(path) = options.get("jsonl").filter(|p| !p.is_empty()) {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let records = cgsim::obs::validate_jsonl(&text).map_err(|e| format!("{path}: {e}"))?;
        println!("{path}: {records} schema-valid JSONL records");
        checked = true;
    }
    if let Some(path) = options.get("chrome").filter(|p| !p.is_empty()) {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let events = cgsim::obs::validate_chrome(&text).map_err(|e| format!("{path}: {e}"))?;
        println!("{path}: {events} well-formed trace_event objects");
        checked = true;
    }
    if !checked {
        return Err("trace-check needs --jsonl <path> and/or --chrome <path>".to_string());
    }
    Ok(())
}

/// Loads the three input files `simulate` and `serve` share into a base;
/// the returned execution config has `--policy` and the knob flags applied
/// and is validated.
fn load_inputs(
    options: &HashMap<String, String>,
) -> Result<(Arc<ScenarioBase>, ExecutionConfig), String> {
    let policy = policy_flag(options)?;
    let path = |key: &str, file: &str| {
        options
            .get(key)
            .ok_or_else(|| format!("missing --{key} <{file}>"))
    };
    let platform_path = path("platform", "platform.json")?;
    let execution_path = path("execution", "execution.json")?;
    let trace_path = path("trace", "trace.jsonl")?;
    let config =
        SimulationConfig::load(platform_path, execution_path).map_err(|e| e.to_string())?;
    let trace = Trace::load_jsonl(trace_path).map_err(|e| e.to_string())?;
    let mut execution = with_knobs(options, config.execution)?;
    if let Some(policy) = policy {
        execution.allocation_policy = policy.clone();
    }
    Ok((ScenarioBase::shared(config.platform, trace), execution))
}

/// `cgsim simulate`: run the three input files through the simulator.
fn cmd_simulate(options: &HashMap<String, String>) -> Result<(), String> {
    let (base, execution) = load_inputs(options)?;
    println!(
        "simulating {} jobs on {} sites with policy '{}'",
        base.trace().len(),
        base.platform().sites.len(),
        execution.allocation_policy
    );
    run_and_report(base, execution, options, &["trace-out"])
}

/// Runs the scenario of `base` under `execution` with the `--faults` spec,
/// the `--fault-seed` and the observability flags, and reports.
/// `trace_keys` lists the flag names that may carry the trace path
/// (`simulate` only honours `--trace-out` because `--trace` is its workload
/// input; `demo` takes both).
fn run_and_report(
    base: Arc<ScenarioBase>,
    execution: ExecutionConfig,
    options: &HashMap<String, String>,
    trace_keys: &[&str],
) -> Result<(), String> {
    let mut spec = ScenarioSpec::new(base, execution);
    spec.faults = options.get("faults").cloned();
    if let Some(fault_seed) = parsed(options, "fault-seed", "a number")? {
        spec.fault_seed = fault_seed;
    }
    let mut observe = Observe {
        trace: None,
        profile: options.contains_key("profile"),
    };
    let path = trace_keys
        .iter()
        .find_map(|k| options.get(*k))
        .filter(|p| !p.is_empty());
    if let Some(path) = path {
        let option = |key: &str| options.get(key).map(String::as_str);
        let target = TraceTarget::new(
            path,
            option("trace-format"),
            option("trace-filter"),
            "--trace-format",
        )?;
        let sink = target
            .open()
            .map_err(|e| format!("cannot create trace file: {e}"))?;
        println!("tracing to {}", target.path.display());
        observe.trace = Some((sink, target.mask));
    }
    let (results, planned) = spec
        .run(&PolicyRegistry::with_builtins(), observe)
        .map_err(|e| match e {
            // A refused fault spec reads as its reason alone:
            // `error: outage: site 7 does not exist`.
            SimulationError::InvalidScenario(reason) => reason,
            e => e.to_string(),
        })?;
    if let Some((events, horizon_s)) = planned {
        println!(
            "fault plan: {events} events over {:.1} h (fault seed {})",
            horizon_s / 3600.0,
            spec.fault_seed
        );
        // The plan was generated before the run, so a run that outlasts it
        // is fault-free from there on, which stdout alone does not show.
        let makespan_s = results.metrics.makespan_s;
        if makespan_s > horizon_s {
            eprintln!(
                "warning: makespan {:.1} h exceeds the {:.1} h fault horizon: no fault was \
                 injected after it; add a `horizon=<time>` clause to --faults that covers the run",
                makespan_s / 3600.0,
                horizon_s / 3600.0
            );
        }
    }
    report(&results, options)
}

/// `cgsim demo`: synthesise a platform + trace and run immediately.
fn cmd_demo(options: &HashMap<String, String>) -> Result<(), String> {
    let sites = parsed(options, "sites", "a positive number")?.map_or(10, NonZeroUsize::get);
    let jobs: usize = parsed(options, "jobs", "a number")?.unwrap_or(1_000);
    let seed: u64 = parsed(options, "seed", "a number")?.unwrap_or(42);
    let policy = policy_flag(options)?.map_or("least-loaded", String::as_str);

    let platform = wlcg_platform(sites, seed);
    let generator = TraceGenerator::new(TraceConfig::with_jobs(jobs, seed));
    let streamed = options.contains_key("stream");
    println!(
        "simulating {jobs} jobs on {sites} sites with policy '{policy}'{}",
        if streamed { " (streamed)" } else { "" }
    );
    let execution = with_knobs(options, ExecutionConfig::with_policy(policy))?;
    // `--stream` keeps the generator's records in generation order, unsorted,
    // as a streamed run always has: jobs submitted at the same instant
    // tie-break in stream order.
    let trace = if streamed {
        Trace {
            jobs: generator.stream(&platform).collect(),
            ..Trace::default()
        }
    } else {
        generator.generate(&platform)
    };
    let base = ScenarioBase::shared(platform, trace);
    run_and_report(base, execution, options, &["trace-out", "trace"])
}

/// `cgsim serve`: long-running JSONL scenario-evaluation service over the
/// loaded platform + trace. stdout (or the TCP stream) carries the protocol;
/// human-readable chatter goes to stderr.
fn cmd_serve(options: &HashMap<String, String>) -> Result<(), String> {
    let capacity = parsed::<NonZeroUsize>(options, "cache-capacity", "a positive number")?;
    let (base, execution) = load_inputs(options)?;

    let mut engine = ScenarioEngine::new();
    let cache_label = if options.contains_key("no-cache") {
        engine = engine.no_cache();
        "off".to_string()
    } else if let Some(capacity) = capacity {
        engine = engine.cache_capacity(capacity.get());
        format!("{capacity} entries")
    } else {
        "256 entries".to_string()
    };
    if options.contains_key("serial") {
        engine = engine.parallel(false);
    }
    eprintln!(
        "cgsim serve: {} jobs on {} sites, base policy '{}', cache {}",
        base.trace().len(),
        base.platform().sites.len(),
        execution.allocation_policy,
        cache_label
    );

    match options.get("listen") {
        Some(addr) if !addr.is_empty() => {
            let listener = std::net::TcpListener::bind(addr)
                .map_err(|e| format!("cannot listen on {addr}: {e}"))?;
            eprintln!("listening on {addr} (one JSONL session per connection)");
            for stream in listener.incoming() {
                let stream = stream.map_err(|e| e.to_string())?;
                let reader =
                    std::io::BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
                let shutdown = serve_loop(&engine, &base, &execution, reader, stream)
                    .map_err(|e| e.to_string())?;
                if shutdown {
                    break;
                }
            }
        }
        _ => {
            let stdin = std::io::stdin();
            let stdout = std::io::stdout();
            serve_loop(&engine, &base, &execution, stdin.lock(), stdout.lock())
                .map_err(|e| e.to_string())?;
        }
    }
    eprintln!("cgsim serve: bye");
    Ok(())
}

/// Prints the run's summary and writes its outputs.
fn report(results: &SimulationResults, options: &HashMap<String, String>) -> Result<(), String> {
    println!("\n{}", results.metrics.text_summary());
    let faults = &results.grid_counters;
    if faults.site_outages + faults.node_losses + faults.link_degradations > 0
        || faults.job_interruptions > 0
    {
        println!(
            "faults: {} site outages, {} node losses, {} link degradations; \
             {} jobs interrupted, {} fault retries",
            faults.site_outages,
            faults.node_losses,
            faults.link_degradations,
            faults.job_interruptions,
            faults.fault_retries
        );
    }
    if faults.checkpoints_written + faults.checkpoint_restores + faults.checkpoints_lost > 0 {
        println!(
            "checkpoints: {} written ({:.2} GB), {} restores saving {:.2} h of recompute, \
             {} lost to faults; {:.2} h of work discarded",
            faults.checkpoints_written,
            faults.checkpoint_bytes as f64 / 1e9,
            faults.checkpoint_restores,
            faults.work_saved_s / 3600.0,
            faults.checkpoints_lost,
            faults.work_lost_s / 3600.0
        );
    }
    if faults.ckpt_overlapped + faults.ckpt_stalls > 0 {
        println!(
            "async checkpoints: {} overlapped with execution, {} stalls on the previous \
             write, {:.2} GB shipped",
            faults.ckpt_overlapped,
            faults.ckpt_stalls,
            faults.ckpt_bytes_shipped as f64 / 1e9
        );
    }
    if faults.repairs_started > 0 {
        println!(
            "repairs: {} started, {} completed ({:.2} GB re-replicated), \
             {} cancelled by faults, {} datasets abandoned",
            faults.repairs_started,
            faults.repairs_completed,
            faults.repair_bytes as f64 / 1e9,
            faults.repairs_cancelled,
            faults.repairs_abandoned
        );
    }
    println!(
        "simulator wall-clock: {:.3}s for {} events",
        results.wall_clock_s, results.engine_events
    );
    if let Some(profile) = &results.profile {
        println!("\n{}", profile.summary_table());
        // `--profile <path>` names the JSON destination explicitly; with a
        // bare `--profile` it lands next to the other outputs when there are
        // any. Wall-clock numbers stay out of results.json either way.
        let dest = options
            .get("profile")
            .filter(|p| !p.is_empty())
            .map(PathBuf::from)
            .or_else(|| {
                options
                    .get("output")
                    .map(|o| PathBuf::from(o).join("profile.json"))
            });
        if let Some(dest) = dest {
            if let Some(parent) = dest.parent() {
                std::fs::create_dir_all(parent).map_err(|e| e.to_string())?;
            }
            std::fs::write(&dest, profile.to_json()).map_err(|e| e.to_string())?;
            println!("profile written to {}", dest.display());
        }
    }
    println!("\n{}", results.ascii_dashboard());
    if let Some(output) = options.get("output") {
        let dir = PathBuf::from(output);
        results.save_output_dir(&dir).map_err(|e| e.to_string())?;
        println!("output written to {}", dir.display());
    }
    Ok(())
}
