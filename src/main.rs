//! The `cgsim` command-line interface.
//!
//! Mirrors the paper's workflow: point the simulator at the JSON input files
//! (platform/infrastructure + execution parameters) and a workload trace,
//! pick an allocation policy, and get the output layer (metrics, CSV tables,
//! event-level dataset, dashboard) written to a directory. Every command is
//! a row of [`COMMANDS`] and every flag a row of [`FLAGS`] or of
//! [`KNOBS`]; the parser reads them and `cgsim help` is rendered from them.

use std::collections::HashMap;
use std::num::NonZeroUsize;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;

use cgsim::core::{Knob, KnobField, Observe, SimulationError, KNOBS};
use cgsim::obs::{TraceTarget, ALL_CATEGORIES};
use cgsim::prelude::*;

/// The flags of one command line, by name; a flag given without a value
/// maps to the empty string.
type Options = HashMap<String, String>;

/// One `cgsim` command.
struct Command {
    name: &'static str,
    /// One line of help.
    about: &'static str,
    /// How many of the `KNOBS` groups, from the first, the command takes.
    knobs: usize,
    run: fn(&Options) -> Result<(), String>,
}

/// One flag of one or more commands, besides the execution knobs (`KNOBS`).
struct Flag {
    /// The name, without its `--`.
    name: &'static str,
    /// The value's placeholder: empty for a switch, which takes no value (a
    /// token after it is stray); in brackets for a value that may be left
    /// out.
    value: &'static str,
    /// One line of help; `{categories}` stands for the trace categories.
    doc: &'static str,
    /// The commands that take it.
    commands: &'static [&'static str],
}

#[rustfmt::skip]
const COMMANDS: [Command; 7] = [
    Command { name: "init", about: "write example platform.json, execution.json and trace.jsonl", knobs: 0, run: cmd_init },
    Command { name: "simulate", about: "run the three input files through the simulator", knobs: 3, run: cmd_simulate },
    Command { name: "demo", about: "synthesise a platform and a trace and run them", knobs: 3, run: cmd_demo },
    // The checkpoint and repair groups: serve runs unmonitored.
    Command { name: "serve", about: "answer scenario requests over the three input files (see SERVE)", knobs: 2, run: cmd_serve },
    Command { name: "trace-check", about: "validate trace files against the record schema (CI gate)", knobs: 0, run: cmd_trace_check },
    Command { name: "policies", about: "list the registered allocation policies", knobs: 0, run: cmd_policies },
    Command { name: "help", about: "print this text (also --help, -h)", knobs: 0, run: cmd_help },
];

#[rustfmt::skip]
const FLAGS: &[Flag] = {
    const INPUTS: &[&str] = &["simulate", "serve"];
    const GENERATED: &[&str] = &["init", "demo"];
    const RUNS: &[&str] = &["simulate", "demo"];
    const fn flag(name: &'static str, value: &'static str, doc: &'static str, commands: &'static [&'static str]) -> Flag {
        Flag { name, value, doc, commands }
    }
    &[
        flag("dir", "DIR", "directory to write to (default cgsim-run)", &["init"]),
        flag("platform", "<platform.json>", "sites, hosts and network links", INPUTS),
        flag("execution", "<execution.json>", "execution parameters", INPUTS),
        flag("trace", "<trace.jsonl>", "the workload, one job record per line", INPUTS),
        flag("sites", "N", "number of generated sites (default 10)", GENERATED),
        flag("jobs", "N", "number of generated jobs (default 1000)", GENERATED),
        flag("seed", "N", "seed of the generated platform and jobs (default 42)", GENERATED),
        flag("policy", "NAME", "allocation policy (see `cgsim policies`)", &["simulate", "demo", "serve"]),
        flag("stream", "", "keep the generated jobs in generation order, unsorted: jobs submitted at the same instant tie-break in that order (the trace is still held in memory)", &["demo"]),
        flag("output", "DIR", "write results.json, the CSV tables, the ML dataset and the dashboard here", RUNS),
        flag("faults", "SPEC", "inject faults (see FAULT SPECS)", RUNS),
        flag("fault-seed", "N", "seed of the fault plan", RUNS),
        flag("trace-out", "PATH", "write a structured execution trace of sim-time spans and events (results.json does not change; see README \"Observability\")", RUNS),
        flag("trace-format", "jsonl|chrome", "trace file format (default jsonl; chrome loads in Perfetto / chrome://tracing)", RUNS),
        flag("trace-filter", "CATS", "comma-separated trace categories to keep, from {categories} (default: all)", RUNS),
        flag("profile", "[PATH]", "print a per-subsystem wall-clock table and write profile JSON to PATH (default <output>/profile.json when there is an output directory); results.json does not change", RUNS),
        flag("listen", "HOST:PORT", "read requests from sequential TCP connections, not stdin", &["serve"]),
        flag("cache-capacity", "N", "response cache entries (default 256)", &["serve"]),
        flag("no-cache", "", "answer every request with a run (not with --cache-capacity)", &["serve"]),
        flag("serial", "", "evaluate a batch's scenarios one after another", &["serve"]),
        flag("jsonl", "<obs-trace.jsonl>", "a JSONL execution trace", &["trace-check"]),
        flag("chrome", "<obs-trace.json>", "a Chrome trace_event file", &["trace-check"]),
    ]
};

/// The `KNOBS` groups' names and one-line notes, in `KNOBS` order.
#[rustfmt::skip]
const KNOB_GROUPS: [(&str, &str); 3] = [
    ("CHECKPOINT", "override the execution config; an interval of 0 disables"),
    ("REPAIR", "fault-aware re-replication; see README \"Self-healing data layer\""),
    ("MONITORING", "bound the monitoring state for scale campaigns; see README \"Scale campaigns\""),
];

/// The help text that documents no flag.
const NOTES: &str = "SERVE (simulation as a service):
    Reads one JSONL request per line from stdin (or from each TCP connection
    in turn) and writes one JSON response line per request. A line holding an
    array is a batch: evaluated as one engine batch, one response line per
    element, in order. Repeated scenarios are answered from a deterministic
    response cache; replies are byte-identical across server restarts. See
    README \"Simulation as a service\".

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
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(given) = args.first() else {
        eprintln!("{}", usage());
        return ExitCode::FAILURE;
    };
    let name = match given.as_str() {
        "--help" | "-h" => "help",
        name => name,
    };
    let Some(command) = COMMANDS.iter().find(|command| command.name == name) else {
        eprintln!("error: unknown command: {given}\n{}", usage());
        return ExitCode::FAILURE;
    };
    match parse_options(command, given, &args[1..]).and_then(|options| (command.run)(&options)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

/// The knob's value placeholder, by the kind of value it parses.
fn knob_value(knob: &Knob) -> &'static str {
    match (knob.field)(&mut ExecutionConfig::default()) {
        KnobField::Seconds(_) => "DUR",
        KnobField::U64(_) | KnobField::U32(_) => "N",
        KnobField::Switch(_) => "",
        KnobField::Target(_) => "site|main",
    }
}

/// The help text: each command with its flags, then each `KNOBS` group,
/// then the notes.
fn usage() -> String {
    let categories: Vec<&str> = ALL_CATEGORIES.iter().map(|c| c.label()).collect();
    let row = |name: &str, value: &str, doc: &str| {
        let left = format!("--{name} {value}");
        let doc = doc.replace("{categories}", &categories.join(","));
        format!("    {:<32}  {doc}\n", left.trim_end())
    };
    let mut out = String::from(
        "cgsim — simulation framework for large-scale distributed computing\n\n\
         USAGE: cgsim <command> [flags]\n",
    );
    for command in &COMMANDS {
        out += &format!("\ncgsim {}: {}\n", command.name, command.about);
        for flag in FLAGS.iter().filter(|f| f.commands.contains(&command.name)) {
            out += &row(flag.name, flag.value, flag.doc);
        }
        for (group, _) in &KNOB_GROUPS[..command.knobs] {
            out += &format!("    [{group} FLAGS]\n");
        }
    }
    for (knobs, (group, note)) in KNOBS.iter().zip(KNOB_GROUPS) {
        out += &format!("\n{group} FLAGS ({note}):\n");
        for knob in *knobs {
            out += &row(knob.flag, knob_value(knob), knob.doc);
        }
    }
    out + "\n" + NOTES
}

/// Splits a command line into `--flag [value]` pairs, rejecting flags the
/// command does not take and tokens that belong to no flag. `given` is the
/// command as spelled.
fn parse_options(command: &Command, given: &str, args: &[String]) -> Result<Options, String> {
    let mut options = HashMap::new();
    let mut iter = args.iter().peekable();
    while let Some(token) = iter.next() {
        let Some(name) = token.strip_prefix("--") else {
            return Err(format!("unexpected argument '{token}'"));
        };
        let mut knobs = KNOBS[..command.knobs].iter().flat_map(|group| *group);
        let switch = match FLAGS
            .iter()
            .find(|f| f.name == name && f.commands.contains(&command.name))
        {
            Some(flag) => flag.value.is_empty(),
            // A knob switch reads a value too, which `Knob::apply` refuses.
            None if knobs.any(|knob| knob.flag == name) => false,
            None => return Err(format!("`cgsim {given}` has no flag --{name}")),
        };
        // A following `--token` is the next flag, not this one's value, so
        // an optional value (`--profile [PATH]`) may be left out.
        let value = iter.next_if(|next| !switch && !next.starts_with("--"));
        options.insert(name.to_string(), value.cloned().unwrap_or_default());
    }
    Ok(options)
}

/// `cgsim policies`: list the registered allocation policies.
fn cmd_policies(_: &Options) -> Result<(), String> {
    for name in PolicyRegistry::with_builtins().names() {
        println!("{name}");
    }
    Ok(())
}

/// `cgsim help`.
fn cmd_help(_: &Options) -> Result<(), String> {
    println!("{}", usage());
    Ok(())
}

/// The parsed value of `--key`, if the flag was given; `what` names the
/// expected kind of value in the error.
fn parsed<T: std::str::FromStr>(
    options: &Options,
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
fn policy_flag(options: &Options) -> Result<Option<&String>, String> {
    match options.get("policy") {
        Some(name) if name.is_empty() => {
            Err("--policy needs a policy name (see `cgsim policies`)".to_string())
        }
        policy => Ok(policy),
    }
}

/// `cgsim init`: write example platform/execution/trace files.
fn cmd_init(options: &Options) -> Result<(), String> {
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
    options: &Options,
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
fn cmd_trace_check(options: &Options) -> Result<(), String> {
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
fn load_inputs(options: &Options) -> Result<(Arc<ScenarioBase>, ExecutionConfig), String> {
    let policy = policy_flag(options)?;
    let path = |key: &str, file: &str| {
        options
            .get(key)
            .ok_or_else(|| format!("missing --{key} <{file}>"))
    };
    let platform_path = path("platform", "platform.json")?;
    let execution_path = path("execution", "execution.json")?;
    let trace_path = path("trace", "trace.jsonl")?;
    let platform = PlatformSpec::load(platform_path).map_err(|e| e.to_string())?;
    let execution = std::fs::read_to_string(execution_path).map_err(|e| e.to_string())?;
    let execution = ExecutionConfig::from_json(&execution).map_err(|e| e.to_string())?;
    let trace = Trace::load_jsonl(trace_path).map_err(|e| e.to_string())?;
    let mut execution = with_knobs(options, execution)?;
    if let Some(policy) = policy {
        execution.allocation_policy = policy.clone();
    }
    Ok((ScenarioBase::shared(platform, trace), execution))
}

/// `cgsim simulate`: run the three input files through the simulator.
fn cmd_simulate(options: &Options) -> Result<(), String> {
    let (base, execution) = load_inputs(options)?;
    println!(
        "simulating {} jobs on {} sites with policy '{}'",
        base.trace().len(),
        base.platform().sites.len(),
        execution.allocation_policy
    );
    run_and_report(base, execution, options)
}

/// Runs the scenario of `base` under `execution` with the `--faults` spec,
/// the `--fault-seed` and the observability flags, and reports.
fn run_and_report(
    base: Arc<ScenarioBase>,
    execution: ExecutionConfig,
    options: &Options,
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
    if let Some(path) = options.get("trace-out").filter(|p| !p.is_empty()) {
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
fn cmd_demo(options: &Options) -> Result<(), String> {
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
    run_and_report(base, execution, options)
}

/// `cgsim serve`: long-running JSONL scenario-evaluation service over the
/// loaded platform + trace. stdout (or the TCP stream) carries the protocol;
/// human-readable chatter goes to stderr.
fn cmd_serve(options: &Options) -> Result<(), String> {
    let capacity = parsed::<NonZeroUsize>(options, "cache-capacity", "a positive number")?;
    let no_cache = options.contains_key("no-cache");
    if no_cache && capacity.is_some() {
        return Err("--no-cache and --cache-capacity contradict each other; give one".into());
    }
    let (base, execution) = load_inputs(options)?;

    let mut engine = ScenarioEngine::new();
    let cache_label = if no_cache {
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
fn report(results: &SimulationResults, options: &Options) -> Result<(), String> {
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
