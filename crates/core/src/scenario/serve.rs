//! The `cgsim serve` JSONL request/response loop.
//!
//! One line in = one JSON value: either a single request object or an array
//! of request objects (a *batch*, evaluated together over the engine's
//! worker pool and deduplicated against the response cache). One line out
//! per request, in input order, as compact JSON. The loop is generic over
//! `BufRead`/`Write`, so the CLI drives it over stdin/stdout or a TCP
//! stream and tests/examples drive it in-process.
//!
//! Request fields (all optional; see [`ScenarioDelta`]):
//!
//! ```json
//! {"id": "q1", "policy": "round-robin", "seed": 7,
//!  "faults": "kill:rate=1", "fault_seed": 3,
//!  "checkpoint": {"interval_s": 600.0, "base_bytes": 1000000,
//!                 "bytes_per_core": 0, "target": "SiteStorage"},
//!  "save": "/tmp/out/results.json"}
//! ```
//!
//! Absent fields inherit the server's base execution configuration. `id` is
//! echoed back verbatim. `save` additionally writes the pretty-printed
//! deterministic results (the same bytes `cgsim simulate --output` writes to
//! `results.json`) to the given path on the server side.
//!
//! A request may also ask for a structured execution trace of its run:
//! `"trace"` names a server-side output path, with optional
//! `"trace_format"` (`"jsonl"`, the default, or `"chrome"`) and
//! `"trace_filter"` (the CLI `--trace-filter` grammar). Traced requests
//! always run a fresh simulation (a cached response has no run to trace),
//! and by the observability determinism contract their response line is
//! byte-identical to the untraced one.
//!
//! Control commands (single requests only, never inside a batch):
//! `{"cmd": "stats"}` reports cache counters, the simulation-run counter,
//! the scenario-requests-served counter, client-observed wall-clock
//! latency percentiles (per input line, so batch members share a sample),
//! `encodes` (reply bodies encoded — one per simulation run, never per
//! reply) and `reply_bytes` (bytes written so far);
//! `{"cmd": "shutdown"}` acknowledges and ends the loop. Latency statistics,
//! `requests` and `reply_bytes` are per serve loop (per TCP connection),
//! while cache counters, `simulations_run` and `encodes` live in the engine
//! and span connections.
//!
//! Responses: `{"id": …, "ok": true, "results": {…}}` on success, where
//! `results` is the deterministic subset (policy, makespan, engine events,
//! grid counters, metrics) — never wall-clock time — so equal scenarios get
//! byte-identical response lines whether they were simulated or served from
//! cache, within one server process or across restarts. The `results` text
//! is encoded once, by the run that produced it, and every reply for that
//! scenario is the envelope written around those bytes. Failures reply
//! `{"id": …, "ok": false, "error": "…"}` and fail only their own request.
//! A line nested deeper than the JSON parser's limit (128 levels) is one
//! such failure (`invalid JSON: …`), not a crash.

use std::fmt::Write as _;
use std::io::{BufRead, Write};
use std::sync::Arc;

use serde::{Deserialize, Serialize};
use serde_json::{Map, Value};

use crate::config::{CheckpointConfig, ExecutionConfig, RepairConfig};
use crate::results::SimulationResults;
use crate::scenario::{ScenarioBase, ScenarioDelta, ScenarioEngine, ScenarioOutcome, ScenarioSpec};

/// One JSONL request: a scenario delta plus protocol envelope fields.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ServeRequest {
    /// Client-chosen identifier, echoed back in the response.
    #[serde(default)]
    pub id: Option<String>,
    /// Control command (`"stats"` or `"shutdown"`); mutually exclusive with
    /// scenario fields and only valid as a single (non-batch) request.
    #[serde(default)]
    pub cmd: Option<String>,
    /// Allocation policy name.
    #[serde(default)]
    pub policy: Option<String>,
    /// Master RNG seed.
    #[serde(default)]
    pub seed: Option<u64>,
    /// Fault spec text (CLI `--faults` grammar).
    #[serde(default)]
    pub faults: Option<String>,
    /// Fault-generation seed (CLI `--fault-seed`).
    #[serde(default)]
    pub fault_seed: Option<u64>,
    /// Checkpoint/restart policy override.
    #[serde(default)]
    pub checkpoint: Option<CheckpointConfig>,
    /// Fault-aware re-replication (repair planner) override.
    #[serde(default)]
    pub repair: Option<RepairConfig>,
    /// Server-side path to write the pretty deterministic results to.
    #[serde(default)]
    pub save: Option<String>,
    /// Server-side path for a structured execution trace of this run.
    #[serde(default)]
    pub trace: Option<String>,
    /// Trace file format: `"jsonl"` (default) or `"chrome"`.
    #[serde(default)]
    pub trace_format: Option<String>,
    /// Trace category filter (comma-separated, CLI `--trace-filter` grammar).
    #[serde(default)]
    pub trace_filter: Option<String>,
}

impl ServeRequest {
    /// The scenario delta carried by this request.
    pub fn delta(&self) -> ScenarioDelta {
        ScenarioDelta {
            policy: self.policy.clone(),
            seed: self.seed,
            faults: self.faults.clone(),
            fault_seed: self.fault_seed,
            checkpoint: self.checkpoint.clone(),
            repair: self.repair.clone(),
        }
    }
}

/// Runs `f`, converting a panic into a printable error so one hostile or
/// buggy request cannot take down the whole serve loop (every other request
/// on the line — and every later line — still gets its response).
fn catch_panic<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).map_err(|payload| {
        let message = payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "unknown panic".to_string());
        format!("internal error: simulation panicked: {message}")
    })
}

/// How one parsed request will be answered.
enum Planned {
    /// Evaluate `specs[index]` and reply with its results.
    Scenario { index: usize },
    /// Evaluate `traced[index]` with its trace sink and reply.
    Traced { index: usize },
    /// Reply with an error message.
    Error(String),
    /// Reply with engine statistics.
    Stats,
    /// Acknowledge and end the serve loop.
    Shutdown,
}

/// Per-loop service statistics: scenario requests served, bytes written and
/// client-observed latency samples (one per request, the wall-clock of its
/// whole input line). Samples live in a fixed ring so long-lived servers stay
/// bounded.
struct ServeStats {
    requests: u64,
    reply_bytes: u64,
    latencies_ms: Vec<f64>,
}

const LATENCY_SAMPLE_CAP: usize = 4096;

impl ServeStats {
    fn new() -> Self {
        ServeStats {
            requests: 0,
            reply_bytes: 0,
            latencies_ms: Vec::new(),
        }
    }

    fn record(&mut self, elapsed_ms: f64) {
        if self.latencies_ms.len() < LATENCY_SAMPLE_CAP {
            self.latencies_ms.push(elapsed_ms);
        } else {
            self.latencies_ms[self.requests as usize % LATENCY_SAMPLE_CAP] = elapsed_ms;
        }
        self.requests += 1;
    }

    fn percentile(sorted: &[f64], p: f64) -> f64 {
        if sorted.is_empty() {
            return 0.0;
        }
        let pos = (p / 100.0 * (sorted.len() - 1) as f64).round() as usize;
        sorted[pos.min(sorted.len() - 1)]
    }

    fn latency_value(&self) -> Value {
        let mut sorted = self.latencies_ms.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
        let mut map = Map::new();
        for (label, p) in [("p50", 50.0), ("p90", 90.0), ("p99", 99.0)] {
            map.insert(
                label.into(),
                Value::Number(serde_json::Number::from_f64(Self::percentile(&sorted, p))),
            );
        }
        map.insert(
            "max".into(),
            Value::Number(serde_json::Number::from_f64(
                sorted.last().copied().unwrap_or(0.0),
            )),
        );
        Value::Object(map)
    }
}

/// Runs the request/response loop until end-of-input or a `shutdown`
/// command. Returns `true` when the loop ended because of `shutdown`.
pub fn serve_loop<R: BufRead, W: Write>(
    engine: &ScenarioEngine,
    base: &Arc<ScenarioBase>,
    execution: &ExecutionConfig,
    input: R,
    mut output: W,
) -> std::io::Result<bool> {
    let mut stats = ServeStats::new();
    // One reply line at a time is assembled here and written in one call.
    let mut reply = String::new();
    for line in input.lines() {
        let line = line?;
        let text = line.trim();
        if text.is_empty() {
            continue;
        }
        let (requests, is_batch) = match serde_json::from_str::<Value>(text) {
            Err(e) => {
                push_value(
                    &mut reply,
                    &error_value(&None, &format!("invalid JSON: {e}")),
                );
                send(&mut output, &mut stats, &mut reply)?;
                output.flush()?;
                continue;
            }
            Ok(Value::Array(items)) => (items.into_iter().map(parse_request).collect(), true),
            Ok(value) => (vec![parse_request(value)], false),
        };

        // Plan every request, collecting the scenario specs into one batch.
        // Traced requests are kept aside: each needs its own sink-carrying
        // run, so they cannot share the batch's deduplicated evaluation.
        let mut specs: Vec<ScenarioSpec> = Vec::new();
        let mut traced: Vec<(ScenarioSpec, TraceOptions)> = Vec::new();
        let mut planned: Vec<(Option<String>, Option<String>, Planned)> = Vec::new();
        let mut shutdown = false;
        for request in requests {
            let plan = match &request {
                Err((id, message)) => (id.clone(), None, Planned::Error(message.clone())),
                Ok(req) => {
                    let plan = match req.cmd.as_deref() {
                        Some("stats") if !is_batch => Planned::Stats,
                        Some("shutdown") if !is_batch => {
                            shutdown = true;
                            Planned::Shutdown
                        }
                        Some(cmd) if is_batch => {
                            Planned::Error(format!("cmd '{cmd}' is not allowed inside a batch"))
                        }
                        Some(cmd) => Planned::Error(format!("unknown cmd: {cmd}")),
                        None => match trace_options(req) {
                            Err(message) => Planned::Error(message),
                            Ok(Some(options)) => {
                                traced.push((req.delta().resolve(base, execution), options));
                                Planned::Traced {
                                    index: traced.len() - 1,
                                }
                            }
                            Ok(None) => {
                                specs.push(req.delta().resolve(base, execution));
                                Planned::Scenario {
                                    index: specs.len() - 1,
                                }
                            }
                        },
                    };
                    (req.id.clone(), req.save.clone(), plan)
                }
            };
            planned.push(plan);
        }

        let line_started = std::time::Instant::now();
        let outcomes: Vec<Result<ScenarioOutcome, String>> =
            match catch_panic(|| engine.evaluate_batch(&specs)) {
                Ok(outcomes) => outcomes
                    .into_iter()
                    .map(|r| r.map_err(|e| e.to_string()))
                    .collect(),
                Err(message) => specs.iter().map(|_| Err(message.clone())).collect(),
            };
        let traced_outcomes: Vec<Result<ScenarioOutcome, String>> = traced
            .into_iter()
            .map(|(spec, options)| {
                catch_panic(|| evaluate_traced(engine, &spec, options)).and_then(|r| r)
            })
            .collect();
        let elapsed_ms = line_started.elapsed().as_secs_f64() * 1e3;
        for _ in 0..outcomes.len() + traced_outcomes.len() {
            stats.record(elapsed_ms);
        }

        for (id, save, plan) in planned {
            let answered = match plan {
                Planned::Error(message) => Err(message),
                Planned::Stats => {
                    push_value(&mut reply, &stats_value(engine, &stats));
                    Ok(())
                }
                Planned::Shutdown => {
                    let mut map = Map::new();
                    insert_id(&mut map, &id);
                    map.insert("ok".into(), Value::Bool(true));
                    map.insert("shutdown".into(), Value::Bool(true));
                    push_value(&mut reply, &Value::Object(map));
                    Ok(())
                }
                Planned::Scenario { index } => {
                    push_results(&mut reply, &id, &save, &outcomes[index])
                }
                Planned::Traced { index } => {
                    push_results(&mut reply, &id, &save, &traced_outcomes[index])
                }
            };
            if let Err(message) = answered {
                push_value(&mut reply, &error_value(&id, &message));
            }
            send(&mut output, &mut stats, &mut reply)?;
        }
        output.flush()?;
        if shutdown {
            return Ok(true);
        }
    }
    Ok(false)
}

/// Decodes one request object. A request that fails decoding still has its
/// `id` echoed when the object carries a string one.
fn parse_request(value: Value) -> Result<ServeRequest, (Option<String>, String)> {
    let id = value.get("id").and_then(Value::as_str).map(str::to_string);
    serde_json::from_value::<ServeRequest>(value).map_err(|e| (id, format!("invalid request: {e}")))
}

/// Terminates the assembled reply line, writes it out and empties `reply`
/// for the next one.
fn send<W: Write>(
    output: &mut W,
    stats: &mut ServeStats,
    reply: &mut String,
) -> std::io::Result<()> {
    reply.push('\n');
    stats.reply_bytes += reply.len() as u64;
    output.write_all(reply.as_bytes())?;
    reply.clear();
    Ok(())
}

/// Appends a reply built as a `Value` tree (errors and control commands).
fn push_value(reply: &mut String, value: &Value) {
    reply.push_str(&serde_json::to_string(value).expect("response value serialises"));
}

/// Appends the reply to a scenario request: `{"id":…,"ok":true,"results":`
/// around the body its run encoded — nothing is re-encoded here. `Err` (the
/// run failed, or its `save` did) leaves `reply` untouched.
fn push_results(
    reply: &mut String,
    id: &Option<String>,
    save: &Option<String>,
    outcome: &Result<ScenarioOutcome, String>,
) -> Result<(), String> {
    let outcome = outcome.as_ref().map_err(String::clone)?;
    save_results(save, &outcome.results)?;
    reply.push('{');
    if let Some(id) = id {
        reply.push_str("\"id\":");
        push_json_string(reply, id);
        reply.push(',');
    }
    reply.push_str("\"ok\":true,\"results\":");
    reply.push_str(&outcome.body);
    reply.push('}');
    Ok(())
}

/// Appends `text` as a JSON string literal, escaped as `serde_json` does.
fn push_json_string(out: &mut String, text: &str) {
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                write!(out, "\\u{:04x}", c as u32).expect("writing to a String cannot fail");
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn insert_id(map: &mut Map, id: &Option<String>) {
    if let Some(id) = id {
        map.insert("id".into(), Value::String(id.clone()));
    }
}

fn error_value(id: &Option<String>, message: &str) -> Value {
    let mut map = Map::new();
    insert_id(&mut map, id);
    map.insert("ok".into(), Value::Bool(false));
    map.insert("error".into(), Value::String(message.to_string()));
    Value::Object(map)
}

/// The trace options of a request (`Ok(None)` when untraced; `Err` on a bad
/// format or filter, caught at planning time so no simulation runs).
fn trace_options(req: &ServeRequest) -> Result<Option<TraceOptions>, String> {
    let Some(path) = req.trace.clone().filter(|p| !p.is_empty()) else {
        return Ok(None);
    };
    let chrome = match req.trace_format.as_deref() {
        None | Some("") | Some("jsonl") => false,
        Some("chrome") => true,
        Some(other) => return Err(format!("trace_format must be jsonl or chrome, got {other}")),
    };
    let mask = match req.trace_filter.as_deref() {
        Some(spec) if !spec.is_empty() => cgsim_obs::parse_filter(spec)?,
        _ => cgsim_obs::MASK_ALL,
    };
    Ok(Some(TraceOptions { path, chrome, mask }))
}

/// Where and how a traced request writes its trace.
struct TraceOptions {
    path: String,
    chrome: bool,
    mask: u32,
}

fn evaluate_traced(
    engine: &ScenarioEngine,
    spec: &ScenarioSpec,
    options: TraceOptions,
) -> Result<crate::scenario::ScenarioOutcome, String> {
    let path = std::path::Path::new(&options.path);
    let sink: Box<dyn cgsim_obs::TraceSink> = if options.chrome {
        Box::new(
            cgsim_obs::ChromeSink::create(path)
                .map_err(|e| format!("trace '{}' failed: {e}", options.path))?,
        )
    } else {
        Box::new(
            cgsim_obs::JsonlSink::create(path)
                .map_err(|e| format!("trace '{}' failed: {e}", options.path))?,
        )
    };
    engine
        .evaluate_traced(spec, sink, options.mask)
        .map_err(|e| e.to_string())
}

fn stats_value(engine: &ScenarioEngine, serve_stats: &ServeStats) -> Value {
    let count = |n: u64| Value::Number(serde_json::Number::from_u64(n));
    let mut stats = Map::new();
    stats.insert(
        "cache".into(),
        serde_json::to_value(&engine.cache_counters()).expect("counters serialise"),
    );
    stats.insert("simulations_run".into(), count(engine.simulations_run()));
    stats.insert("requests".into(), count(serve_stats.requests));
    stats.insert("latency_ms".into(), serve_stats.latency_value());
    stats.insert("encodes".into(), count(engine.bodies_encoded()));
    stats.insert("reply_bytes".into(), count(serve_stats.reply_bytes));
    let mut map = Map::new();
    map.insert("ok".into(), Value::Bool(true));
    map.insert("stats".into(), Value::Object(stats));
    Value::Object(map)
}

/// Writes the pretty deterministic results server-side when requested — the
/// same bytes `cgsim simulate --output` puts in `results.json`, so saved
/// responses diff cleanly against direct CLI runs.
fn save_results(save: &Option<String>, results: &SimulationResults) -> Result<(), String> {
    let Some(path) = save else { return Ok(()) };
    if let Some(parent) = std::path::Path::new(path).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).map_err(|e| format!("save '{path}' failed: {e}"))?;
        }
    }
    std::fs::write(path, results.deterministic_json())
        .map_err(|e| format!("save '{path}' failed: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgsim_platform::presets::example_platform;
    use cgsim_workload::{TraceConfig, TraceGenerator};

    fn setup() -> (Arc<ScenarioBase>, ExecutionConfig) {
        let platform = example_platform();
        let trace = TraceGenerator::new(TraceConfig::with_jobs(30, 3)).generate(&platform);
        (
            ScenarioBase::shared(platform, trace),
            ExecutionConfig::default(),
        )
    }

    /// The reply encoder this module used before bodies were encoded once:
    /// pretty-print, parse back into a `Value` tree, re-serialise. Kept as
    /// the reference the direct writer must match byte for byte.
    fn reference_reply(id: &Option<String>, results: &SimulationResults) -> String {
        let mut map = Map::new();
        insert_id(&mut map, id);
        map.insert("ok".into(), Value::Bool(true));
        let deterministic: Value = serde_json::from_str(&results.deterministic_json())
            .expect("deterministic results parse back");
        map.insert("results".into(), deterministic);
        serde_json::to_string(&Value::Object(map)).expect("response value serialises")
    }

    fn drive(input: &str) -> (String, bool) {
        drive_on(&ScenarioEngine::new(), input)
    }

    fn drive_on(engine: &ScenarioEngine, input: &str) -> (String, bool) {
        let (base, execution) = setup();
        let mut output = Vec::new();
        let shutdown = serve_loop(
            engine,
            &base,
            &execution,
            std::io::Cursor::new(input.as_bytes()),
            &mut output,
        )
        .expect("in-memory IO cannot fail");
        (String::from_utf8(output).unwrap(), shutdown)
    }

    #[test]
    fn single_and_batch_requests_answer_in_order() {
        let input = r#"{"id":"a","policy":"round-robin"}
[{"id":"b","policy":"least-loaded"},{"id":"c","seed":9}]
"#;
        let (out, shutdown) = drive(input);
        assert!(!shutdown);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with(r#"{"id":"a","ok":true,"#));
        assert!(lines[1].starts_with(r#"{"id":"b","ok":true,"#));
        assert!(lines[2].starts_with(r#"{"id":"c","ok":true,"#));
        assert!(lines[0].contains(r#""policy":"round-robin""#));
    }

    #[test]
    fn responses_are_byte_identical_across_server_instances() {
        let input = r#"[{"id":"x","policy":"round-robin"},{"id":"y","faults":"kill:rate=1"}]
[{"id":"x","policy":"round-robin"},{"id":"y","faults":"kill:rate=1"}]
"#;
        let (first, _) = drive(input);
        let (second, _) = drive(input);
        assert_eq!(first, second, "restarted server must answer identically");
        // Within one transcript, the repeated batch (answered from cache)
        // is byte-identical to the first (simulated) one.
        let lines: Vec<&str> = first.lines().collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(lines[0], lines[2]);
        assert_eq!(lines[1], lines[3]);
    }

    #[test]
    fn errors_fail_only_their_own_request() {
        let input = r#"[{"id":"ok1"},{"id":"bad","policy":"does-not-exist"},{"id":"ok2","faults":"nope"},{"id":"typed","seed":-1}]
not json
{"id":"single","checkpoint":{"base_bytes":"big"}}
"#;
        let (out, _) = drive(input);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 6);
        assert!(lines[0].contains(r#""ok":true"#));
        assert!(lines[1].contains(r#""ok":false"#));
        assert!(lines[1].contains("unknown allocation policy"));
        assert!(lines[2].contains(r#""ok":false"#));
        // A request that fails decoding still gets its id back.
        assert!(lines[3].starts_with(r#"{"id":"typed","ok":false,"error":"invalid request: "#));
        assert!(lines[4].contains("invalid JSON"));
        assert!(lines[5].starts_with(r#"{"id":"single","ok":false,"error":"invalid request: "#));
    }

    #[test]
    fn a_fault_target_outside_the_platform_is_an_error_line_never_cached() {
        let far = r#"{"id":"far","faults":"outage:site=7,mttf=1h,mttr=1m"}"#;
        let input = format!(
            "{far}\n{far}\n{}\n{{\"cmd\":\"stats\"}}\n",
            r#"{"id":"link","faults":"degrade:link=99,factor=0.5,mttf=1h,mttr=1m"}"#
        );
        let (out, _) = drive(&input);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 4);
        let refused =
            r#"{"id":"far","ok":false,"error":"invalid scenario: outage: site 7 does not exist"#;
        assert!(lines[0].starts_with(refused), "{}", lines[0]);
        assert_eq!(
            lines[0], lines[1],
            "the repeat is refused again, not served"
        );
        assert!(lines[2].contains("degrade: WAN link 99 does not exist"));
        assert!(lines[3].contains(r#""hits":0"#) && lines[3].contains(r#""simulations_run":0"#));
    }

    #[test]
    fn stats_and_shutdown_commands_work() {
        let input = r#"{"id":"q","seed":4}
{"id":"q","seed":4}
{"cmd":"stats"}
{"cmd":"shutdown"}
{"id":"never-reached"}
"#;
        let (out, shutdown) = drive(input);
        assert!(shutdown);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 4, "requests after shutdown are not served");
        assert_eq!(lines[0], lines[1], "cached repeat is byte-identical");
        assert!(lines[2].contains(r#""hits":1"#));
        assert!(lines[2].contains(r#""misses":1"#));
        assert!(lines[2].contains(r#""simulations_run":1"#));
        assert!(lines[2].contains(r#""requests":2"#));
        assert!(lines[2].contains(r#""latency_ms""#));
        assert!(lines[2].contains(r#""p50""#));
        assert!(lines[2].contains(r#""p99""#));
        assert!(lines[3].contains(r#""shutdown":true"#));
    }

    #[test]
    fn traced_requests_answer_identically_and_write_the_trace() {
        let dir = std::env::temp_dir().join("cgsim-serve-trace-test");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let jsonl = dir.join("run.jsonl");
        let chrome = dir.join("run.json");
        let input = format!(
            "{{\"id\":\"plain\",\"faults\":\"kill:rate=1\"}}\n\
             {{\"id\":\"plain\",\"faults\":\"kill:rate=1\",\"trace\":{jsonl:?}}}\n\
             {{\"id\":\"plain\",\"faults\":\"kill:rate=1\",\"trace\":{chrome:?},\
               \"trace_format\":\"chrome\",\"trace_filter\":\"fault,job\"}}\n\
             {{\"id\":\"bad\",\"trace\":\"x\",\"trace_format\":\"xml\"}}\n",
            jsonl = jsonl.to_str().unwrap(),
            chrome = chrome.to_str().unwrap(),
        );
        let (out, _) = drive(&input);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(
            lines[0], lines[1],
            "tracing must not change the response line"
        );
        assert_eq!(lines[0], lines[2]);
        assert!(lines[3].contains("trace_format must be jsonl or chrome"));

        let text = std::fs::read_to_string(&jsonl).unwrap();
        let records = cgsim_obs::validate_jsonl(&text).expect("schema-valid trace");
        assert!(records > 0);
        let chrome_text = std::fs::read_to_string(&chrome).unwrap();
        cgsim_obs::validate_chrome(&chrome_text).expect("well-formed Chrome trace");
        assert!(chrome_text.contains("\"cat\":\"fault\""));
        assert!(!chrome_text.contains("\"cat\":\"broker\""), "filtered out");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn replies_match_the_value_tree_encoder_byte_for_byte() {
        // Misses, hits, in-batch duplicates, `save` and traced requests, with
        // ids that need every kind of JSON escape (and no id at all): each
        // reply must be exactly what the Value-tree encoder produced.
        let dir = std::env::temp_dir().join("cgsim-serve-twin-test");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let path = |name: &str| dir.join(name).to_str().unwrap().to_string();
        let ids: [Option<&str>; 9] = [
            Some("plain"),
            Some(""),
            Some("quote\" back\\slash /"),
            Some("line\nbreak\r\ttab"),
            Some("ctl\u{1}\u{8}\u{c}\u{1f}\u{7f}"),
            Some("unicode é 網 \u{10400}"),
            None,
            Some("saved"),
            Some("traced"),
        ];
        let request = |i: usize, extra: &str| match ids[i] {
            Some(id) => format!("{{\"id\":{}{extra}}}", serde_json::to_string(id).unwrap()),
            None => format!("{{{}}}", extra.trim_start_matches(',')),
        };
        let rr = ",\"policy\":\"round-robin\"";
        let input = [
            request(0, ""), // miss
            request(1, ""), // hit
            format!("[{},{},{}]", request(2, rr), request(3, rr), request(4, "")),
            request(5, rr),
            request(6, rr),
            request(7, &format!(",\"save\":{:?}", path("results.json"))),
            request(8, &format!("{rr},\"trace\":{:?}", path("run.jsonl"))),
        ]
        .join("\n");

        let engine = ScenarioEngine::new();
        let (out, _) = drive_on(&engine, &input);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), ids.len());

        let (base, execution) = setup();
        let results_of = |policy: Option<&str>| {
            let delta = ScenarioDelta {
                policy: policy.map(str::to_string),
                ..ScenarioDelta::default()
            };
            ScenarioEngine::new()
                .evaluate(&delta.resolve(&base, &execution))
                .unwrap()
                .results
        };
        let (plain, round_robin) = (results_of(None), results_of(Some("round-robin")));
        let expected = [
            &plain,
            &plain,
            &round_robin,
            &round_robin,
            &plain,
            &round_robin,
            &round_robin,
            &plain,
            &round_robin,
        ];
        for ((line, id), results) in lines.iter().zip(ids).zip(expected) {
            let id = id.map(str::to_string);
            assert_eq!(*line, reference_reply(&id, results), "id {id:?}");
        }
        // 2 simulations + the traced re-run; everything else reused a body.
        assert_eq!(engine.simulations_run(), 3);
        assert_eq!(engine.bodies_encoded(), 3);
        assert_eq!(
            std::fs::read_to_string(path("results.json")).unwrap(),
            plain.deterministic_json()
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stats_count_one_encode_per_simulation_and_every_reply_byte() {
        let input = r#"{"id":"a","seed":4}
{"id":"b","seed":4}
[{"id":"c","seed":4},{"id":"d","policy":"round-robin"},{"id":"e","policy":"round-robin"}]
{"id":"bad","policy":"does-not-exist"}
{"cmd":"stats"}
"#;
        let (out, _) = drive(input);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 7);
        let stats_line = lines[6];
        assert!(stats_line.starts_with(r#"{"ok":true,"stats":{"cache":"#));
        let reply: Value = serde_json::from_str(stats_line).unwrap();
        let stat = |name: &str| reply.get("stats").unwrap().get(name).unwrap().as_u64();
        assert_eq!(stat("requests"), Some(6));
        assert_eq!(stat("simulations_run"), Some(2));
        assert_eq!(stat("encodes"), Some(2), "hits and duplicates reuse a body");
        let written: usize = lines[..6].iter().map(|l| l.len() + 1).sum();
        assert_eq!(stat("reply_bytes"), Some(written as u64));
    }

    #[test]
    fn a_200k_deep_line_is_refused_and_the_loop_keeps_serving() {
        // Regression: this line used to overflow the parser's stack, which
        // aborts the process past any panic isolation.
        let input = format!("{}\n{{\"id\":\"after\"}}\n", "[".repeat(200_000));
        let (out, _) = drive(&input);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(
            lines[0].starts_with(r#"{"ok":false,"error":"invalid JSON: nesting deeper than 128"#),
            "{}",
            lines[0]
        );
        assert!(lines[1].starts_with(r#"{"id":"after","ok":true,"results":{"#));
    }

    #[test]
    fn catch_panic_reports_str_and_string_payloads() {
        assert_eq!(catch_panic(|| 7), Ok(7));
        let err = catch_panic(|| panic!("boom")).unwrap_err();
        assert!(err.contains("simulation panicked: boom"), "{err}");
        let err = catch_panic(|| panic!("{}", String::from("dynamic"))).unwrap_err();
        assert!(err.contains("simulation panicked: dynamic"), "{err}");
        let err = catch_panic(|| std::panic::panic_any(42_i32)).unwrap_err();
        assert!(err.contains("unknown panic"), "{err}");
    }

    #[test]
    fn hostile_requests_each_get_one_error_line_and_the_loop_survives() {
        // A battery of malformed / hostile inputs: wrong top-level types,
        // type-confused fields, out-of-range numbers, pathological nesting,
        // binary garbage. Every line must produce exactly one JSON response
        // line per request (ok:false for the bad ones), and a well-formed
        // request afterwards must still be served.
        let deep_nest = format!("{}1{}", "[".repeat(200), "]".repeat(200));
        let input = format!(
            r#""just a string"
42
true
{{"seed": -1}}
{{"seed": 1.5}}
{{"policy": 42}}
{{"policy": {{"name": "nested"}}}}
{{"checkpoint": {{"interval_s": "soon"}}}}
{{"repair": {{"enabled": "yes"}}}}
{{"faults": ["not", "a", "string"]}}
{{"faults": "bogus:clause"}}
{{"id": "bad-policy", "policy": "does-not-exist"}}
[1, "two", null]
{deep_nest}
{{"id": "unterminated"
\x00\x01garbage
{{"id": "still-alive", "seed": 3}}
"#
        );
        let (out, shutdown) = drive(&input);
        assert!(!shutdown);
        let lines: Vec<&str> = out.lines().collect();
        // 16 single-value lines + the 3-element array line = 19 responses.
        assert_eq!(lines.len(), 19, "one response per request: {out}");
        for line in &lines {
            let value: Value = serde_json::from_str(line).expect("every response is valid JSON");
            assert!(
                value.get("ok").is_some(),
                "response has an ok field: {line}"
            );
        }
        // Everything except the final good request fails.
        for line in &lines[..lines.len() - 1] {
            assert!(
                line.contains(r#""ok":false"#),
                "hostile line passed: {line}"
            );
        }
        let last = lines.last().unwrap();
        assert!(last.contains(r#""id":"still-alive""#));
        assert!(last.contains(r#""ok":true"#), "loop must survive: {last}");
    }

    #[test]
    fn repair_delta_is_resolved_and_distinguishes_scenarios() {
        let (base, execution) = setup();
        let request: ServeRequest = serde_json::from_str(
            r#"{"repair":{"enabled":true,"target_factor":3,"max_concurrent":2,
                "backoff_s":60.0,"max_retries":3}}"#,
        )
        .unwrap();
        let spec = request.delta().resolve(&base, &execution);
        assert!(spec.execution.repair.enabled);
        assert_eq!(spec.execution.repair.target_factor, 3);
        assert_eq!(spec.execution.repair.backoff_s, 60.0);
        // Partial overrides inherit the remaining knob defaults.
        let partial: ServeRequest = serde_json::from_str(r#"{"repair":{"enabled":true}}"#).unwrap();
        let partial = partial.delta().resolve(&base, &execution);
        assert!(partial.execution.repair.enabled);
        assert_eq!(partial.execution.repair.max_concurrent, 4);
        // The override reaches the cache key: distinct scenario from the base.
        let plain = ServeRequest::default().delta().resolve(&base, &execution);
        assert_ne!(spec.canonical_hash(), plain.canonical_hash());
        assert_ne!(partial.canonical_hash(), plain.canonical_hash());
        // And the serve loop answers a repair-enabled faulted request.
        let input = "{\"id\":\"on\",\"faults\":\"diskloss:site=1,mttf=30m;horizon=24h\",\
                     \"repair\":{\"enabled\":true}}\n";
        let (out, _) = drive(input);
        assert!(out.contains(r#""id":"on","ok":true"#), "{out}");
    }

    #[test]
    fn partial_checkpoint_delta_inherits_the_default_knobs() {
        let (base, execution) = setup();
        let resolve = |line: &str| {
            let request: ServeRequest = serde_json::from_str(line).unwrap();
            request.delta().resolve(&base, &execution)
        };
        let partial = resolve(r#"{"checkpoint":{"interval_s":600}}"#);
        assert_eq!(partial.execution.checkpoint, CheckpointConfig::every(600.0));
        let spelled_out = resolve(
            r#"{"checkpoint":{"interval_s":600,"base_bytes":2000000000,
                "bytes_per_core":250000000,"target":"SiteStorage",
                "overlap":false,"delta_bytes_per_s":0}}"#,
        );
        assert_eq!(partial.canonical_hash(), spelled_out.canonical_hash());
    }

    #[test]
    fn cmd_inside_a_batch_is_rejected() {
        let (out, shutdown) = drive(r#"[{"id":"s"},{"cmd":"shutdown"}]"#);
        assert!(!shutdown, "batched shutdown must not stop the server");
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains(r#""ok":true"#));
        assert!(lines[1].contains("not allowed inside a batch"));
    }

    #[test]
    fn save_writes_the_simulate_results_file() {
        let dir = std::env::temp_dir().join("cgsim-serve-save-test");
        std::fs::remove_dir_all(&dir).ok();
        let path = dir.join("results.json");
        let input = format!("{{\"id\":\"s\",\"save\":{:?}}}\n", path.to_str().unwrap());
        let (out, _) = drive(&input);
        assert!(out.contains(r#""ok":true"#));
        let saved = std::fs::read_to_string(&path).unwrap();

        // The saved file is exactly the engine's pretty deterministic JSON.
        let engine = ScenarioEngine::new();
        let (base, execution) = setup();
        let spec = ScenarioSpec::new(base, execution);
        let direct = engine.evaluate(&spec).unwrap();
        assert_eq!(saved, direct.results.deterministic_json());
        std::fs::remove_dir_all(&dir).ok();
    }
}
