//! The `cgsim` binary refuses a command line it does not fully understand:
//! an unparsable number, a flag the command does not declare, a token that
//! belongs to no flag, a `--policy` without a name, a fault aimed at a site
//! or link the platform lacks, a platform of more sites than a run can index
//! and an execution file holding a duration the flags would refuse each exit
//! non-zero with a one-line `error:` — the simulator never silently runs
//! something other than what was asked. And when a run outlasts its fault
//! plan, stderr says so; the usage text lists every `--trace-filter` category
//! the parser accepts and every execution knob, and each command's synopsis
//! names the knob groups it takes. The input files `init` writes are pinned
//! byte for byte, and so is what the library writes after reading them back.

use std::process::{Command, Output, Stdio};

use cgsim::core::{ExecutionConfig, Knob, KnobField, KNOBS};

fn cgsim(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_cgsim"))
        .args(args)
        .stdin(Stdio::null())
        .output()
        .expect("the cgsim binary runs")
}

/// Asserts that `args` fail with exactly one `error:` line mentioning `what`.
fn assert_rejected(args: &[&str], what: &str) {
    let out = cgsim(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "{args:?} exited 0");
    assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
    assert!(
        stderr.starts_with("error: ") && stderr.contains(what),
        "{args:?}: {stderr}"
    );
}

#[test]
fn unparsable_numbers_are_errors_not_defaults() {
    assert_rejected(&["demo", "--jobs", "10k"], "--jobs '10k'");
    assert_rejected(&["demo", "--sites", "many"], "--sites 'many'");
    assert_rejected(&["init", "--seed", "-1"], "--seed '-1'");
    // Zero sites is a usage error, not a panic in the platform preset.
    assert_rejected(
        &["demo", "--sites", "0"],
        "--sites '0' is not a positive number",
    );
    let dir = std::env::temp_dir().join(format!("cgsim-cli-zero-{}", std::process::id()));
    assert_rejected(
        &["init", "--dir", &dir.to_string_lossy(), "--sites", "0"],
        "--sites '0' is not a positive number",
    );
    assert!(!dir.exists(), "a rejected init writes nothing");
    // More sites than a run can index is refused before the platform's
    // (sites + 1)² routes are built, not aborted on their allocation.
    assert_rejected(
        &["demo", "--sites", "65536", "--jobs", "1"],
        "the platform has 65536 entries, more than the 65535 a run can index",
    );
    // Checked even without a `--faults` spec to apply it to.
    assert_rejected(
        &["demo", "--jobs", "5", "--fault-seed", "x"],
        "--fault-seed 'x'",
    );
    // A zero-entry cache is not a cache; `--no-cache` turns caching off.
    assert_rejected(
        &["serve", "--cache-capacity", "0"],
        "--cache-capacity '0' is not a positive number",
    );
}

#[test]
fn fault_targets_outside_the_platform_are_errors_not_dropped() {
    fn demo(faults: &str) -> [&str; 7] {
        ["demo", "--sites", "3", "--jobs", "50", "--faults", faults]
    }
    for (faults, what) in [
        (
            "outage:site=7,mttf=1h,mttr=1m",
            "outage: site 7 does not exist",
        ),
        (
            "degrade:link=99,factor=0.5,mttf=1h,mttr=1m",
            "degrade: WAN link 99",
        ),
        (
            "incident:sites=0+9,mttf=1h,mttr=1m",
            "incident: site 9 does not exist",
        ),
    ] {
        assert_rejected(&demo(faults), what);
    }
    // The last site of the platform is still a valid target.
    let out = cgsim(&demo("outage:site=2,mttf=1h,mttr=1m"));
    assert!(out.status.success(), "{out:?}");
}

#[test]
fn undeclared_flags_are_rejected_per_command() {
    assert_rejected(
        &["demo", "--checkpoint-intervall", "30m"],
        "--checkpoint-intervall",
    );
    // Declared by `demo`, not by `init` or `trace-check`.
    assert_rejected(&["init", "--stream"], "--stream");
    assert_rejected(&["trace-check", "--output", "x"], "--output");
    assert_rejected(&["policies", "--sites", "3"], "--sites");
}

#[test]
fn a_bare_policy_flag_is_a_usage_error_before_any_input_is_read() {
    let inputs = [
        "--platform",
        "no.json",
        "--execution",
        "no.json",
        "--trace",
        "no.jsonl",
    ];
    for args in [
        vec!["demo", "--jobs", "5", "--policy"],
        [&["simulate", "--policy"][..], &inputs].concat(),
        [&["serve", "--policy"][..], &inputs].concat(),
    ] {
        assert_rejected(&args, "--policy needs a policy name");
        assert!(cgsim(&args).stdout.is_empty(), "{args:?} ran");
    }
}

#[test]
fn stray_positional_tokens_are_rejected() {
    assert_rejected(&["demo", "extra"], "'extra'");
    // A switch takes no value, so the token after it is stray too.
    assert_rejected(&["demo", "--stream", "500"], "'500'");
    assert_rejected(&["demo", "--repair", "500"], "--repair '500' is not empty");
}

#[test]
fn every_documented_flag_is_still_accepted() {
    let dir = std::env::temp_dir().join(format!("cgsim-cli-test-{}", std::process::id()));
    // Runs one whitespace-split command line, `DIR` standing for the scratch
    // directory.
    let ok = |line: &str| {
        let dir = dir.to_string_lossy();
        let args: Vec<String> = line
            .split_whitespace()
            .map(|arg| arg.replace("DIR", &dir))
            .collect();
        let out = cgsim(&args.iter().map(String::as_str).collect::<Vec<_>>());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{line}: {stderr}");
    };
    let inputs = "--platform DIR/run/platform.json --execution DIR/run/execution.json \
                  --trace DIR/run/trace.jsonl";
    // Every execution knob of the given groups, with one value of its kind.
    let knob_args = |groups: &[&[Knob]]| -> String {
        let mut args = String::new();
        for knob in groups.iter().copied().flatten() {
            let value = match (knob.field)(&mut ExecutionConfig::default()) {
                KnobField::Seconds(_) => " 10m",
                KnobField::U64(_) => " 100",
                KnobField::U32(_) => " 2",
                KnobField::Switch(_) => "",
                KnobField::Target(_) => " main",
            };
            args += &format!(" --{}{value}", knob.flag);
        }
        args
    };
    let knobs = format!(
        "--policy round-robin --faults kill:rate=2 --fault-seed 3 \
         --trace-format jsonl --trace-filter job,ckpt{}",
        knob_args(&KNOBS)
    );
    ok("init --dir DIR/run --sites 3 --jobs 40 --seed 5");
    ok(&format!(
        "simulate {inputs} {knobs} --trace-out DIR/sim.jsonl --output DIR/sim --profile"
    ));
    ok(&format!(
        "demo --sites 3 --jobs 40 --seed 5 --stream {knobs} --trace DIR/demo.jsonl \
         --output DIR/demo --profile DIR/demo-profile.json"
    ));
    ok("trace-check --jsonl DIR/sim.jsonl");
    ok("policies");
    ok("help");
    // `serve` answers an empty stdin session and exits; `--listen` is left
    // out because it would bind a socket and wait. Serve runs unmonitored, so
    // it takes the checkpoint and repair groups only.
    ok(&format!(
        "serve {inputs} --cache-capacity 8 --serial --no-cache{}",
        knob_args(&KNOBS[..2])
    ));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn an_execution_file_is_held_to_the_duration_flags_rule() {
    // `--checkpoint-interval -60` and `--window -1` are refused when parsed;
    // the same values written into execution.json are refused before the run.
    let dir = std::env::temp_dir().join(format!("cgsim-cli-interval-{}", std::process::id()));
    let dir_arg = dir.to_string_lossy().into_owned();
    let init = cgsim(&["init", "--dir", &dir_arg, "--sites", "2", "--jobs", "10"]);
    assert!(init.status.success(), "{init:?}");
    let path = dir.join("execution.json");
    let defaults = std::fs::read_to_string(&path).unwrap();
    let file = |name: &str| dir.join(name).to_string_lossy().into_owned();
    for (field, value, what) in [
        (
            "interval_s",
            "-60",
            "checkpoint.interval_s must be non-negative and finite, got -60",
        ),
        (
            "window_s",
            "-1",
            "monitoring.window_s must be non-negative and finite, got -1",
        ),
        // No finite `f64` is this large: it parses as +inf.
        (
            "window_s",
            "1e309",
            "monitoring.window_s must be non-negative and finite, got inf",
        ),
    ] {
        let default = format!("\"{field}\": 0.0");
        assert_eq!(defaults.matches(&default).count(), 1, "{default}");
        let text = defaults.replace(&default, &format!("\"{field}\": {value}"));
        std::fs::write(&path, text).unwrap();
        assert_rejected(
            &[
                "simulate",
                "--platform",
                &file("platform.json"),
                "--execution",
                &file("execution.json"),
                "--trace",
                &file("trace.jsonl"),
            ],
            what,
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The files of an `--output` directory (it is flat) as sorted `(name, bytes)`.
fn output_files(dir: &std::path::Path) -> Vec<(std::ffi::OsString, Vec<u8>)> {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .expect("output directory is readable")
        .map(|entry| entry.expect("directory entry"))
        .map(|entry| (entry.file_name(), std::fs::read(entry.path()).unwrap()))
        .collect();
    files.sort();
    files
}

#[test]
fn a_run_that_outlasts_its_fault_horizon_warns_on_stderr_only() {
    let dir = std::env::temp_dir().join(format!("cgsim-cli-horizon-{}", std::process::id()));
    // One maintenance window inside both horizons: the two plans, and so the
    // two runs, are the same; only the horizon they were generated to differs.
    let run = |horizon: &str, out: &str| {
        let faults = format!("maint:site=0,start=30m,duration=1h;horizon={horizon}");
        let out_dir = dir.join(out);
        let output = cgsim(&[
            "demo",
            "--sites",
            "3",
            "--jobs",
            "120",
            "--faults",
            &faults,
            "--output",
            &out_dir.to_string_lossy(),
        ]);
        assert!(output.status.success(), "{output:?}");
        // What stdout says about the run, without the lines that name the
        // horizon, the wall-clock and the output directory.
        let stdout: Vec<String> = String::from_utf8_lossy(&output.stdout)
            .lines()
            .filter(|l| {
                !["fault plan:", "simulator wall-clock:", "output written to"]
                    .iter()
                    .any(|prefix| l.starts_with(prefix))
            })
            .map(str::to_string)
            .collect();
        let stderr = String::from_utf8_lossy(&output.stderr).into_owned();
        (stdout, stderr, output_files(&out_dir))
    };
    let (short_stdout, short_stderr, short_files) = run("2h", "short");
    let (long_stdout, long_stderr, long_files) = run("400h", "long");

    assert_eq!(short_stderr.lines().count(), 1, "{short_stderr}");
    assert!(
        short_stderr.starts_with("warning: makespan ")
            && short_stderr.contains("the 2.0 h fault horizon")
            && short_stderr.contains("horizon="),
        "{short_stderr}"
    );
    assert_eq!(long_stderr, "", "a horizon that covers the run is silent");
    assert!(short_stdout.iter().any(|l| l.starts_with("makespan: ")));
    assert_eq!(short_stdout, long_stdout);
    assert!(!short_files.is_empty());
    assert!(short_files == long_files, "output directories differ");
    let _ = std::fs::remove_dir_all(&dir);
}

/// What a run's stdout says about the simulation, without the lines that
/// carry wall-clock time or name the output directory.
fn simulated_lines(output: &Output) -> Vec<String> {
    String::from_utf8_lossy(&output.stdout)
        .lines()
        .filter(|l| {
            !["simulator wall-clock:", "output written to"]
                .iter()
                .any(|prefix| l.starts_with(prefix))
        })
        .map(str::to_string)
        .collect()
}

#[test]
fn a_fault_spec_without_a_fault_process_is_no_plan() {
    let dir = std::env::temp_dir().join(format!("cgsim-cli-noplan-{}", std::process::id()));
    let run = |faults: Option<&str>, out: &str| {
        let out_dir = dir.join(out).to_string_lossy().into_owned();
        let mut args = vec!["demo", "--sites", "2", "--jobs", "40", "--output", &out_dir];
        args.extend(faults.iter().flat_map(|spec| ["--faults", spec]));
        let output = cgsim(&args);
        assert!(output.status.success(), "{output:?}");
        (output, out_dir)
    };
    let (plain, plain_dir) = run(None, "plain");
    // The run lasts well past one hour, so a plan to 1 h would warn.
    for (i, faults) in ["horizon=1h", "", " ; ;horizon=2d"].into_iter().enumerate() {
        let (output, out_dir) = run(Some(faults), &i.to_string());
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(stderr, "", "--faults {faults:?} warned");
        assert_eq!(
            simulated_lines(&output),
            simulated_lines(&plain),
            "{faults:?}"
        );
        assert!(output_files(out_dir.as_ref()) == output_files(plain_dir.as_ref()));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// `demo --stream` is a scenario whose trace is the generator's records in
/// stream order: exactly what the builder's streamed path runs.
#[test]
fn a_streamed_demo_is_the_builders_streamed_run() {
    use cgsim::prelude::*;
    let dir = std::env::temp_dir().join(format!("cgsim-cli-stream-{}", std::process::id()));
    let out_dir = dir.to_string_lossy().into_owned();
    let output = cgsim(&[
        "demo", "--sites", "3", "--jobs", "300", "--seed", "5", "--stream", "--output", &out_dir,
    ]);
    assert!(output.status.success(), "{output:?}");
    let platform = wlcg_platform(3, 5);
    let stream = TraceGenerator::new(TraceConfig::with_jobs(300, 5)).stream(&platform);
    let direct = Simulation::builder()
        .platform_spec(&platform)
        .unwrap()
        .trace_stream(stream)
        .execution(ExecutionConfig::with_policy("least-loaded"))
        .run()
        .unwrap();
    let written = std::fs::read_to_string(dir.join("results.json")).unwrap();
    assert!(
        written == direct.deterministic_json(),
        "results.json differs"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// `cgsim simulate` on `cgsim init` files is the engine's evaluation of the
/// same platform, trace and faults.
#[test]
fn simulate_is_the_engines_evaluation_of_the_same_scenario() {
    use cgsim::prelude::*;
    let dir = std::env::temp_dir().join(format!("cgsim-cli-engine-{}", std::process::id()));
    let file = |name: &str| dir.join(name).to_string_lossy().into_owned();
    let init = cgsim(&["init", "--dir", &file(""), "--sites", "4", "--jobs", "200"]);
    assert!(init.status.success(), "{init:?}");
    let faults = "kill:rate=2;outage:site=all,mttf=6h,mttr=30m";
    let output = cgsim(&[
        "simulate",
        "--platform",
        &file("platform.json"),
        "--execution",
        &file("execution.json"),
        "--trace",
        &file("trace.jsonl"),
        "--faults",
        faults,
        "--fault-seed",
        "3",
        "--output",
        &file("out"),
    ]);
    assert!(output.status.success(), "{output:?}");

    let config = SimulationConfig::load(file("platform.json"), file("execution.json")).unwrap();
    let trace = Trace::load_jsonl(file("trace.jsonl")).unwrap();
    let spec = ScenarioSpec::new(
        ScenarioBase::shared(config.platform, trace),
        config.execution,
    )
    .with_faults(faults)
    .with_fault_seed(3);
    let outcome = ScenarioEngine::new().evaluate(&spec).unwrap();
    assert!(outcome.results.grid_counters.job_interruptions > 0);
    let written = std::fs::read_to_string(dir.join("out").join("results.json")).unwrap();
    assert!(
        written == outcome.results.deterministic_json(),
        "results.json differs"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn the_usage_text_lists_every_trace_category() {
    let out = cgsim(&["help"]);
    assert!(out.status.success(), "{out:?}");
    let labels: Vec<&str> = cgsim::obs::ALL_CATEGORIES
        .iter()
        .map(|c| c.label())
        .collect();
    let list = labels.join(",");
    let usage = String::from_utf8_lossy(&out.stdout);
    assert!(
        usage.contains(&list),
        "`cgsim help` does not list the --trace-filter categories {list}"
    );
    // Every execution knob is documented, and each command's synopsis names
    // exactly the knob groups the command declares.
    for knob in KNOBS.into_iter().flatten() {
        let flag = format!("--{}", knob.flag);
        assert!(
            usage.split_whitespace().any(|word| word == flag),
            "`cgsim help` does not document {flag}"
        );
    }
    // Each command's synopsis: its `cgsim <command>` line and the deeper
    // indented lines that continue it, up to the end of the USAGE block.
    let mut synopses: Vec<(String, String)> = Vec::new();
    for line in usage
        .lines()
        .skip_while(|line| *line != "USAGE:")
        .skip(1)
        .take_while(|line| !line.is_empty())
    {
        match line.trim_start().strip_prefix("cgsim ") {
            Some(rest) if line.starts_with("    cgsim") => {
                let command = rest.split_whitespace().next().unwrap();
                synopses.push((command.to_string(), line.to_string()));
            }
            _ => synopses.last_mut().unwrap().1 += line,
        }
    }
    assert!(synopses.len() >= 6, "{synopses:?}");
    for (command, synopsis) in &synopses {
        // The usage text's names of the three `KNOBS` groups.
        for (group, name) in KNOBS.iter().zip(["CHECKPOINT", "REPAIR", "MONITORING"]) {
            // A command declares a group when the parser takes the group's
            // first flag; the run then fails later, on the value "x".
            let probe = cgsim(&[command, &format!("--{}", group[0].flag), "x"]);
            let stderr = String::from_utf8_lossy(&probe.stderr);
            let declared = !stderr.contains("has no flag");
            let named = synopsis.contains(&format!("[{name} FLAGS]"));
            assert_eq!(
                declared, named,
                "`cgsim {command}` declares {} FLAGS: {declared}, its synopsis names them: \
                 {named}\n{synopsis}",
                name
            );
        }
    }
}

/// Every key path of a JSON document, in first-seen order and joined by
/// spaces: `a.b` for a nested object, `a[].b` for an object inside an array.
fn key_paths(json: &str) -> String {
    fn walk(value: &serde_json::Value, prefix: &str, out: &mut Vec<String>) {
        match value {
            serde_json::Value::Object(map) => {
                for (key, item) in map.iter() {
                    let path = format!("{prefix}{key}");
                    if !out.contains(&path) {
                        out.push(path.clone());
                    }
                    walk(item, &format!("{path}."), out);
                }
            }
            serde_json::Value::Array(items) => {
                let prefix = format!("{}[].", prefix.trim_end_matches('.'));
                items.iter().for_each(|item| walk(item, &prefix, out));
            }
            _ => {}
        }
    }
    let mut out = Vec::new();
    walk(
        &serde_json::from_str(json).expect("valid JSON"),
        "",
        &mut out,
    );
    out.join(" ")
}

/// The input files `init` writes, what the library reads back from them and
/// writes again, the shape of `profile.json` and a fresh server's `stats`
/// reply: every byte the (de)serialisers produce on these paths is pinned.
#[test]
fn init_files_and_json_shapes_are_pinned() {
    use cgsim::core::{scenario::hash::fnv1a, ExecutionConfig};
    use cgsim::platform::PlatformSpec;
    use cgsim::workload::Trace;

    let dir = std::env::temp_dir().join(format!("cgsim-cli-init-golden-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let arg = |name: &str| dir.join(name).to_string_lossy().into_owned();
    let dir_arg = arg("");
    let init = cgsim(&[
        "init", "--sites", "3", "--jobs", "40", "--seed", "5", "--dir", &dir_arg,
    ]);
    assert!(init.status.success(), "{init:?}");
    let read = |name: &str| std::fs::read(dir.join(name)).expect("init wrote the file");
    let [platform, execution, trace] = ["platform.json", "execution.json", "trace.jsonl"].map(read);
    assert_eq!(
        [&platform, &execution, &trace].map(|bytes| fnv1a(0xcbf2_9ce4_8422_2325, bytes)),
        [
            0xe7b1_32da_f76a_927d,
            0x10d5_8580_713a_f3ee,
            0x42c4_d79a_f934_7a52
        ],
        "init's platform.json, execution.json and trace.jsonl moved"
    );

    // Each file reads back and writes out byte for byte.
    let spec = PlatformSpec::load(dir.join("platform.json")).unwrap();
    spec.save(dir.join("platform-again.json")).unwrap();
    assert!(read("platform-again.json") == platform);
    let config = ExecutionConfig::from_json(std::str::from_utf8(&execution).unwrap()).unwrap();
    assert!(config.to_json().as_bytes() == execution.as_slice());
    let jobs = Trace::load_jsonl(dir.join("trace.jsonl")).unwrap();
    jobs.save_jsonl(dir.join("trace-again.jsonl")).unwrap();
    assert!(read("trace-again.jsonl") == trace);

    let [platform, execution, trace, profile] = [
        "platform.json",
        "execution.json",
        "trace.jsonl",
        "profile.json",
    ]
    .map(arg);
    let inputs = [
        "--platform",
        &platform,
        "--execution",
        &execution,
        "--trace",
        &trace,
    ];
    let profiled = cgsim(&[&["simulate", "--profile", &profile], &inputs[..]].concat());
    assert!(profiled.status.success(), "{profiled:?}");
    assert_eq!(
        key_paths(&String::from_utf8(read("profile.json")).unwrap()),
        "bench harness scenario results results[].case results[].wall_s results[].count \
         counters counters[].name counters[].value"
    );

    let mut serve = Command::new(env!("CARGO_BIN_EXE_cgsim"))
        .args([&["serve"], &inputs[..]].concat())
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("the cgsim binary runs");
    std::io::Write::write_all(&mut serve.stdin.take().unwrap(), b"{\"cmd\":\"stats\"}\n").unwrap();
    let served = serve.wait_with_output().unwrap();
    assert!(served.status.success(), "{served:?}");
    assert_eq!(
        String::from_utf8(served.stdout).unwrap(),
        "{\"ok\":true,\"stats\":{\"cache\":{\"hits\":0,\"misses\":0,\"evictions\":0,\"entries\":0},\
         \"simulations_run\":0,\"requests\":0,\"latency_ms\":{\"p50\":0.0,\"p90\":0.0,\"p99\":0.0,\
         \"max\":0.0},\"encodes\":0,\"reply_bytes\":0}}\n"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
