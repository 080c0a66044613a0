//! The `cgsim` binary refuses a command line it does not fully understand:
//! an unparsable number, a flag the command does not declare, two flags that
//! contradict each other, a token that belongs to no flag, a `--policy`
//! without a name, a fault aimed at a site or link the platform lacks, a
//! platform of more sites than a run can index and an execution file holding
//! a duration the flags would refuse or a key it does not know each exit
//! non-zero with a one-line `error:` — the simulator never silently runs
//! something other than what was asked. And when a run outlasts its fault
//! plan, stderr says so; `cgsim help` lists every `--trace-filter` category
//! the parser accepts and every execution knob, and exactly the commands that
//! list a flag take it. The input files `init` writes are pinned byte for
//! byte, and so is what the library writes after reading them back.

use std::collections::BTreeSet;
use std::process::{Command, Output, Stdio};

use cgsim::core::KNOBS;

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
    // A capacity for a cache that is switched off is refused, not dropped.
    assert_rejected(
        &["serve", "--no-cache", "--cache-capacity", "8"],
        "--no-cache and --cache-capacity contradict each other",
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

/// One flag row as `cgsim help` lists it: name (without `--`) and value
/// placeholder, empty for a switch.
type Row = (String, String);

/// `cgsim help` read back into its two tables: each command with the rows it
/// lists, the rows of the `KNOBS` groups it names included, and each group's
/// rows.
struct Help {
    commands: Vec<(String, Vec<Row>)>,
    groups: Vec<(String, Vec<Row>)>,
}

impl Help {
    fn read() -> Help {
        let out = cgsim(&["help"]);
        assert!(out.status.success(), "{out:?}");
        let text = String::from_utf8(out.stdout).unwrap();
        let (mut commands, mut groups) = (Vec::new(), Vec::new());
        // The names of the groups each command takes.
        let mut takes: Vec<Vec<String>> = Vec::new();
        let mut in_group = false;
        for line in text.lines() {
            if let Some((command, _)) = line.strip_prefix("cgsim ").and_then(|l| l.split_once(':'))
            {
                commands.push((command.to_string(), Vec::new()));
                takes.push(Vec::new());
                in_group = false;
            } else if let Some((group, _)) = line.split_once(" FLAGS (") {
                groups.push((group.to_string(), Vec::new()));
                in_group = true;
            } else if let Some(rest) = line.strip_prefix("    --") {
                let left = rest.split("  ").next().unwrap();
                let (name, value) = left.split_once(' ').unwrap_or((left, ""));
                let section = if in_group { &mut groups } else { &mut commands };
                let rows = &mut section.last_mut().unwrap().1;
                rows.push((name.to_string(), value.to_string()));
            } else if let Some(group) = line.strip_prefix("    [") {
                let group = group.trim_end_matches(" FLAGS]").to_string();
                takes.last_mut().unwrap().push(group);
            }
        }
        for ((_, rows), takes) in commands.iter_mut().zip(takes) {
            for group in takes {
                let (_, knobs) = groups.iter().find(|(name, _)| *name == group).unwrap();
                rows.extend(knobs.iter().cloned());
            }
        }
        Help { commands, groups }
    }
}

/// A value of the kind `value` names, for flag `name` of `command`: files
/// the command writes go under `dir`, files it reads are `dir/in/<file>`.
fn sample(value: &str, command: &str, name: &str, dir: &str) -> Option<String> {
    Some(match value {
        "" => return None,
        "N" => "3".to_string(),
        "DUR" => "10m".to_string(),
        "NAME" => "round-robin".to_string(),
        "SPEC" => "kill:rate=2".to_string(),
        "CATS" => "job,ckpt".to_string(),
        "jsonl|chrome" => "jsonl".to_string(),
        "site|main" => "main".to_string(),
        "HOST:PORT" => "127.0.0.1:0".to_string(),
        "DIR" | "PATH" | "[PATH]" => format!("{dir}/{command}-{name}"),
        file => format!("{dir}/in/{}", file.trim_matches(['<', '>'])),
    })
}

#[test]
fn every_flag_row_is_taken_exactly_by_the_commands_that_list_it() {
    let help = Help::read();
    let knobs: Vec<&str> = KNOBS.into_iter().flatten().map(|knob| knob.flag).collect();
    let listed: Vec<&str> = help
        .groups
        .iter()
        .flat_map(|(_, rows)| rows)
        .map(|(name, _)| name.as_str())
        .collect();
    assert_eq!(listed, knobs, "the help's group rows are the KNOBS rows");
    let names: BTreeSet<&str> = help
        .commands
        .iter()
        .flat_map(|(_, rows)| rows)
        .map(|(name, _)| name.as_str())
        .collect();
    // A flag no command takes: listed rows are parsed up to it, and its
    // refusal is the undeclared-flag error.
    let unknown = "checkpoint-intervall";
    for (command, rows) in &help.commands {
        for name in &names {
            let row = rows.iter().find(|(row, _)| row == name);
            let value = row.and_then(|(_, value)| sample(value, command, name, "x"));
            let line = format!(
                "{command} --{name} {} --{unknown}",
                value.unwrap_or_default()
            );
            let out = cgsim(&line.split_whitespace().collect::<Vec<_>>());
            assert!(!out.status.success(), "{line} exited 0");
            let refused = if row.is_some() { unknown } else { name };
            let expected = format!("error: `cgsim {command}` has no flag --{refused}\n");
            assert_eq!(String::from_utf8_lossy(&out.stderr), expected, "{line}");
        }
        // A switch row takes no value, so a token after it is stray. A knob
        // switch reads one and refuses it (`stray_positional_tokens_are_rejected`).
        for (name, _) in rows
            .iter()
            .filter(|(name, value)| value.is_empty() && !knobs.contains(&name.as_str()))
        {
            assert_rejected(
                &[command, &format!("--{name}"), "500"],
                "unexpected argument '500'",
            );
        }
    }
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
    let dir = dir.to_string_lossy();
    // Runs one whitespace-split command line.
    let ok = |line: &str| {
        let out = cgsim(&line.split_whitespace().collect::<Vec<_>>());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{line}: {stderr}");
    };
    // The files the `<file>` placeholders name.
    ok(&format!("init --dir {dir}/in --sites 3 --jobs 40 --seed 5"));
    ok(&format!(
        "demo --jobs 20 --trace-out {dir}/in/obs-trace.jsonl"
    ));
    ok(&format!(
        "demo --jobs 20 --trace-out {dir}/in/obs-trace.json --trace-format chrome"
    ));
    // Each command with every row it lists and one value of each row's kind.
    // `--listen` is left out because it would bind a socket and wait; so
    // `serve` answers an empty stdin session and exits. `serve` refuses
    // `--no-cache` beside `--cache-capacity`, so it runs once without each.
    for (command, rows) in Help::read().commands {
        let left_out: &[&str] = match command.as_str() {
            "serve" => &["no-cache", "cache-capacity"],
            _ => &[""],
        };
        for left_out in left_out {
            let mut line = command.clone();
            for (name, value) in rows
                .iter()
                .filter(|(name, value)| value != "HOST:PORT" && name != left_out)
            {
                line += &format!(" --{name}");
                if let Some(value) = sample(value, &command, name, &dir) {
                    line += &format!(" {value}");
                }
            }
            ok(&line);
        }
    }
    let _ = std::fs::remove_dir_all(&*dir);
}

/// Runs `cgsim simulate --output` on `cgsim init` files whose `input` file
/// has, per case, its first `from` replaced by `to`: each run exits 1 with
/// one `error:` line holding `what`, and writes no output directory.
fn assert_input_edits_rejected(name: &str, input: &str, cases: &[(&str, &str, &str)]) {
    let dir = std::env::temp_dir().join(format!("cgsim-cli-{name}-{}", std::process::id()));
    let file = |name: &str| dir.join(name).to_string_lossy().into_owned();
    let init = cgsim(&["init", "--dir", &file(""), "--sites", "2", "--jobs", "10"]);
    assert!(init.status.success(), "{init:?}");
    let written = std::fs::read_to_string(file(input)).unwrap();
    for (from, to, what) in cases {
        assert!(written.contains(from), "{from}");
        std::fs::write(file(input), written.replacen(from, to, 1)).unwrap();
        let out = cgsim(&[
            "simulate",
            "--platform",
            &file("platform.json"),
            "--execution",
            &file("execution.json"),
            "--trace",
            &file("trace.jsonl"),
            "--output",
            &file("out"),
        ]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{to}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{to}: {stderr}");
        assert!(
            stderr.starts_with("error: ") && stderr.contains(what),
            "{to}: {stderr}"
        );
        assert!(
            !dir.join("out").exists(),
            "{to}: a refused run wrote output"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn an_execution_file_is_held_to_the_duration_flags_rule() {
    // `--checkpoint-interval -60` and `--window -1` are refused when parsed;
    // the same values written into execution.json are refused before the run.
    let bad = "must be non-negative and finite, got";
    assert_input_edits_rejected(
        "interval",
        "execution.json",
        &[
            (
                "\"interval_s\": 0.0",
                "\"interval_s\": -60",
                &format!("checkpoint.interval_s {bad} -60"),
            ),
            (
                "\"window_s\": 0.0",
                "\"window_s\": -1",
                &format!("monitoring.window_s {bad} -1"),
            ),
            // No finite `f64` is this large: it parses as +inf.
            (
                "\"window_s\": 0.0",
                "\"window_s\": 1e309",
                &format!("monitoring.window_s {bad} inf"),
            ),
        ],
    );
}

#[test]
fn an_execution_file_with_an_unknown_key_is_refused_before_the_run() {
    // A retired field or a misspelt one is named and refused, not ignored.
    assert_input_edits_rejected(
        "unknown-key",
        "execution.json",
        &[
            (
                "\"seed\"",
                "\"cache_datasets\": false, \"seed\"",
                "unknown key `cache_datasets` in execution.json",
            ),
            (
                "\"interval_s\"",
                "\"intervl_s\"",
                "unknown key `checkpoint.intervl_s` in execution.json",
            ),
        ],
    );
}

#[test]
fn a_platform_or_trace_file_with_an_unknown_key_is_refused_before_the_run() {
    // The decoders of every input format refuse a key no field takes,
    // naming its path (and, in a trace, its line).
    assert_input_edits_rejected(
        "platform-key",
        "platform.json",
        &[
            (
                "\"sites\": [",
                "\"bogus\": 1, \"sites\": [",
                "unknown key `bogus` in platform.json",
            ),
            (
                "\"name\": \"CERN\",",
                "\"name\": \"CERN\", \"corez\": 5,",
                "unknown key `sites[0].corez` in platform.json",
            ),
            (
                "\"speed_per_core\"",
                "\"speed_per_cor\"",
                "unknown key `sites[0].hosts[0].speed_per_cor` in platform.json",
            ),
        ],
    );
    assert_input_edits_rejected(
        "trace-key",
        "trace.jsonl",
        &[(
            "\"hist_site\"",
            "\"hist_sitee\"",
            "trace.jsonl line 2: unknown key `hist_sitee`",
        )],
    );
}

#[test]
fn demo_writes_its_execution_trace_only_through_trace_out() {
    // `--trace` names the workload input of `simulate` and `serve`; `demo`
    // generates its workload and does not take the flag.
    let path =
        std::env::temp_dir().join(format!("cgsim-cli-demo-trace-{}.jsonl", std::process::id()));
    let path = path.to_string_lossy();
    assert_rejected(
        &["demo", "--jobs", "5", "--trace", &path],
        "`cgsim demo` has no flag --trace",
    );
    assert!(!std::path::Path::new(&*path).exists(), "{path} written");
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

    let platform = PlatformSpec::load(file("platform.json")).unwrap();
    let execution =
        ExecutionConfig::from_json(&std::fs::read_to_string(file("execution.json")).unwrap())
            .unwrap();
    let trace = Trace::load_jsonl(file("trace.jsonl")).unwrap();
    let spec = ScenarioSpec::new(ScenarioBase::shared(platform, trace), execution)
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
            0xd7d2_54d6_3eec_c6cc,
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
