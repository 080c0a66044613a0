//! The CGSim benchmark: named workloads, end-to-end and per-layer metrics,
//! a traced run, and an A/A comparison. See `benchmark/README.md`.
//!
//! One process, one thread. Every repetition of a workload runs in its own
//! re-executed subprocess, so its peak memory (`VmHWM`) and its set-up time
//! are its own.
//!
//! ```text
//! cgsim-benchmark --workload W --seed N --seconds S --trace 0|1   one workload, one JSON line last
//! cgsim-benchmark all [--seed N] [--quick]                        every workload, probes, results.json
//! cgsim-benchmark probes [--quick]                                the layer probes alone
//! cgsim-benchmark compare A.json B.json                           two results.json files, row by row
//! ```

mod compare;
mod host;
mod json;
mod layers;
mod probes;
mod serve;
mod sim;
mod spans;
mod stats;
mod workloads;

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use serde_json::Value;

use host::HostControl;
use json::{float, get_f64, get_str, get_u64, obj, text, uint};
use probes::Probe;
use stats::{median, quartiles};
use workloads::{Shape, Workload, E2E_METRICS, WORKLOADS};

/// Where every output goes, relative to the checkout root the benchmark is
/// run from (ignored by git).
pub const OUT_DIR: &str = "benchmark/out";

/// `--seed` when none is given; 43 is the hold-out seed no size was tuned on.
const DEFAULT_SEED: u64 = 42;
/// Size divisor of `--quick`.
const QUICK_DIVISOR: usize = 50;
/// Timed repetitions a driver run takes at the least, and the fewest calm
/// ones the medians are taken over.
const REPETITIONS: usize = 3;
/// Timed passes of `all`: with seven samples the quartiles sit on the second
/// and sixth, so one noisy repetition on either side leaves them alone.
const ALL_PASSES: usize = 7;
/// How much slower than the session's median the host control may run
/// before the repetition beside it counts as noisy.
const CONTROL_DRIFT: f64 = 0.10;

/// What one repetition subprocess is asked to do.
pub struct RepArgs {
    pub seed: u64,
    pub divisor: usize,
    pub traced: bool,
    pub rep: u32,
}

/// What every repetition measures, whatever its workload.
pub struct Measured {
    pub failures: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    pub setup_s: f64,
    pub wall_s: f64,
    pub run_s: f64,
    pub export_s: f64,
    pub fingerprint: u64,
}

impl RepArgs {
    /// The fields every repetition's row starts with; the workload adds its
    /// own (`exact`, `profile`, `serve`, `spans`) behind them.
    pub fn row(
        &self,
        workload: &Workload,
        m: Measured,
    ) -> Result<Vec<(&'static str, Value)>, String> {
        Ok(vec![
            ("workload", text(workload.name)),
            ("seed", uint(self.seed)),
            ("rep", uint(u64::from(self.rep))),
            ("traced", Value::Bool(self.traced)),
            ("ok", Value::Bool(m.failures.is_empty())),
            (
                "failures",
                Value::Array(m.failures.iter().map(|f| text(f.as_str())).collect()),
            ),
            ("attempted", uint(m.attempted)),
            ("failed", uint(m.failed)),
            ("setup_s", float(m.setup_s)),
            ("wall_s", float(m.wall_s)),
            ("run_s", float(m.run_s)),
            ("export_s", float(m.export_s)),
            ("peak_rss_mb", float(host::peak_rss_mb()?)),
            ("fingerprint", text(format!("{:016x}", m.fingerprint))),
        ])
    }
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("rep") => parse_options(&args[1..]).and_then(|o| cmd_rep(started, &o)),
        Some("all") => parse_options(&args[1..]).and_then(|o| cmd_all(&o)),
        Some("probes") => parse_options(&args[1..]).and_then(|o| cmd_probes(&o)),
        Some("compare") => match &args[1..] {
            [a, b] => compare::run(a, b),
            _ => Err("usage: compare A.json B.json".to_string()),
        },
        Some(flag) if flag.starts_with("--") => parse_options(&args).and_then(|o| cmd_measure(&o)),
        _ => Err(
            "usage: --workload W --seed N --seconds S --trace 0|1 | all [--seed N] [--quick] | \
             probes [--quick] | compare A.json B.json"
                .to_string(),
        ),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::from(2)
        }
    }
}

/// `--key value` pairs; `--quick` takes no value.
fn parse_options(args: &[String]) -> Result<HashMap<String, String>, String> {
    let mut options = HashMap::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let key = arg
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument '{arg}'"))?;
        let value = if key == "quick" {
            String::new()
        } else {
            it.next()
                .ok_or_else(|| format!("--{key} takes a value"))?
                .clone()
        };
        options.insert(key.to_string(), value);
    }
    Ok(options)
}

fn number<T: std::str::FromStr>(
    options: &HashMap<String, String>,
    key: &str,
    default: Option<T>,
) -> Result<T, String> {
    match options.get(key) {
        Some(v) => v
            .parse()
            .map_err(|_| format!("--{key} '{v}' is not a number")),
        None => default.ok_or_else(|| format!("missing --{key}")),
    }
}

fn workload_option(options: &HashMap<String, String>) -> Result<&'static Workload, String> {
    let name = options.get("workload").ok_or("missing --workload")?;
    workloads::find(name).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload '{name}' (have: {})", names.join(", "))
    })
}

fn traced_option(options: &HashMap<String, String>) -> Result<bool, String> {
    match number::<u8>(options, "trace", None)? {
        0 => Ok(false),
        1 => Ok(true),
        other => Err(format!("--trace must be 0 or 1, got {other}")),
    }
}

/// The subprocess side: run one repetition, print its row as one line.
fn cmd_rep(started: Instant, options: &HashMap<String, String>) -> Result<bool, String> {
    let workload = workload_option(options)?;
    let args = RepArgs {
        seed: number(options, "seed", None)?,
        divisor: number(options, "divisor", None)?,
        traced: traced_option(options)?,
        rep: number(options, "rep", None)?,
    };
    let row = match &workload.shape {
        Shape::Sim(shape) => sim::run(started, workload, shape, &args)?,
        Shape::Serve(shape) => serve::run(started, workload, shape, &args)?,
    };
    println!("{}", serde_json::to_string(&row).expect("row serialises"));
    Ok(true)
}

/// Spawns repetitions and keeps the host-noise control beside them.
struct Session {
    exe: PathBuf,
    control: HostControl,
    /// Every control time of the session, in order.
    controls: Vec<f64>,
    next_rep: u32,
    /// Size divisor of every repetition (1, or [`QUICK_DIVISOR`]).
    divisor: usize,
}

impl Session {
    fn new(divisor: usize) -> Result<Self, String> {
        let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
        std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("create {OUT_DIR}: {e}"))?;
        let mut control = HostControl::new();
        let controls = vec![control.run()];
        Ok(Session {
            exe,
            control,
            controls,
            next_rep: 0,
            divisor,
        })
    }

    fn spawn(&mut self, workload: &Workload, seed: u64, traced: bool) -> Result<Value, String> {
        let rep = self.next_rep;
        self.next_rep += 1;
        let output = Command::new(&self.exe)
            .args(["rep", "--workload", workload.name])
            .args(["--seed", &seed.to_string()])
            .args(["--divisor", &self.divisor.to_string()])
            .args(["--trace", if traced { "1" } else { "0" }])
            .args(["--rep", &rep.to_string()])
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("spawn repetition: {e}"))?;
        if !output.status.success() {
            return Err(format!(
                "repetition {rep} of {} ended with {}",
                workload.name, output.status
            ));
        }
        let stdout = String::from_utf8(output.stdout).map_err(|e| e.to_string())?;
        let line = stdout.lines().last().ok_or("repetition printed no row")?;
        serde_json::from_str(line).map_err(|e| format!("repetition row: {e}"))
    }

    /// One repetition with the control timed before it (the previous
    /// control) and after it; the row carries the slower of the two.
    fn rep(&mut self, workload: &Workload, seed: u64, traced: bool) -> Result<Value, String> {
        let before = *self.controls.last().expect("session starts with a control");
        let mut row = self.spawn(workload, seed, traced)?;
        let after = self.control.run();
        self.controls.push(after);
        if !get_str(&row, "workload").is_ok_and(|w| w == workload.name) {
            return Err("repetition row names another workload".to_string());
        }
        let map = row
            .as_object_mut()
            .ok_or("repetition row is not an object")?;
        map.insert("host_control_s".into(), float(before.max(after)));
        Ok(row)
    }

    /// [`Session::rep`], run once more if the host was noisy beside it.
    fn rep_calm(&mut self, workload: &Workload, seed: u64, traced: bool) -> Result<Value, String> {
        let row = self.rep(workload, seed, traced)?;
        if !self.is_noisy(&row) {
            return Ok(row);
        }
        eprintln!(
            "  {}: the host control ran slow beside this repetition; running it once more",
            workload.name
        );
        self.rep(workload, seed, traced)
    }

    /// Whether the control beside a repetition ran more than
    /// [`CONTROL_DRIFT`] slower than the session's median control.
    fn is_noisy(&self, row: &Value) -> bool {
        let typical = median(&self.controls);
        get_f64(row, "host_control_s").is_ok_and(|c| c > (1.0 + CONTROL_DRIFT) * typical)
    }
}

/// The rows of one workload and what they add up to.
#[derive(Default)]
struct Tally {
    timed: Vec<Value>,
    traced: Vec<Value>,
}

impl Tally {
    fn rows(&self) -> impl Iterator<Item = &Value> {
        self.timed.iter().chain(&self.traced)
    }

    /// Sets every row's `noisy` flag against the session's final median.
    fn flag_noisy(&mut self, session: &Session) {
        for row in self.timed.iter_mut().chain(&mut self.traced) {
            let noisy = session.is_noisy(row);
            if let Some(map) = row.as_object_mut() {
                map.insert("noisy".into(), Value::Bool(noisy));
            }
        }
    }

    /// The rows the metrics are taken over: those not flagged noisy, if
    /// there are at least `least` of them; otherwise all.
    fn measured(rows: &[Value], least: usize) -> Vec<&Value> {
        let calm: Vec<&Value> = rows.iter().filter(|r| !is_flagged(r)).collect();
        if calm.len() >= least {
            calm
        } else {
            rows.iter().collect()
        }
    }

    fn samples(&self, metric: &str) -> Result<Vec<f64>, String> {
        Tally::measured(&self.timed, REPETITIONS)
            .into_iter()
            .map(|r| get_f64(r, metric))
            .collect()
    }

    /// Check failures of every row, plus the cross-row check: simulated
    /// statistics repeat exactly, so all repetitions share one fingerprint.
    fn failures(&self) -> Vec<String> {
        let mut out: Vec<String> = self
            .rows()
            .flat_map(|r| {
                r.get("failures")
                    .and_then(Value::as_array)
                    .cloned()
                    .unwrap_or_default()
            })
            .filter_map(|f| f.as_str().map(str::to_string))
            .collect();
        let mut prints: Vec<&str> = self
            .rows()
            .filter_map(|r| get_str(r, "fingerprint").ok())
            .collect();
        prints.sort_unstable();
        prints.dedup();
        if prints.len() > 1 {
            out.push(format!(
                "repetitions disagree on the fingerprint: {}",
                prints.join(" vs ")
            ));
        }
        out
    }

    fn attempted(&self) -> u64 {
        self.rows()
            .filter_map(|r| get_u64(r, "attempted").ok())
            .sum()
    }

    fn failed(&self) -> u64 {
        let in_rows: u64 = self.rows().filter_map(|r| get_u64(r, "failed").ok()).sum();
        let cross = self
            .failures()
            .iter()
            .filter(|f| f.starts_with("repetitions disagree"))
            .count();
        in_rows + cross as u64
    }

    fn noisy(&self) -> usize {
        self.rows().filter(|r| is_flagged(r)).count()
    }

    fn first(&self) -> Option<&Value> {
        self.rows().next()
    }
}

fn is_flagged(row: &Value) -> bool {
    row.get("noisy") == Some(&Value::Bool(true))
}

/// `{"value": …, "unit": …}`: how one metric is reported.
fn metric_value(value: f64, unit: &str) -> Value {
    obj([("value", float(value)), ("unit", text(unit))])
}

fn metric_block(unit: &str, values: &[f64]) -> Value {
    let (q1, q2, q3) = quartiles(values);
    obj([
        ("unit", text(unit)),
        ("median", float(q2)),
        ("q1", float(q1)),
        ("q3", float(q3)),
        (
            "values",
            Value::Array(values.iter().map(|&v| float(v)).collect()),
        ),
    ])
}

/// Diagnostics printed beside the gated metrics: never gated themselves.
fn diagnostics(tally: &Tally) -> Result<Vec<(String, Value)>, String> {
    let rows = Tally::measured(&tally.timed, REPETITIONS);
    let mut out = Vec::new();
    let Some(first) = rows.first() else {
        return Ok(out);
    };
    let med = |key: &str| -> Result<f64, String> { Ok(median(&tally.samples(key)?)) };
    out.push(("run_s".to_string(), float(med("run_s")?)));
    out.push(("export_s".to_string(), float(med("export_s")?)));
    out.push(("host_control_s".to_string(), float(med("host_control_s")?)));
    if let Some(events) = first.get("exact").and_then(|e| e.get("engine_events")) {
        let events = events.as_u64().ok_or("engine_events is not a count")?;
        out.push((
            "us_per_event".to_string(),
            float(med("run_s")? * 1e6 / events as f64),
        ));
    }
    if let Some(serve) = first.get("serve").and_then(Value::as_object) {
        // A tail percentile is null in a repetition that had too few samples
        // beyond it; the median is over the repetitions that had enough.
        for (key, sample) in serve.iter() {
            let values: Vec<f64> = rows
                .iter()
                .filter_map(|r| r.get("serve")?.get(key)?.as_f64())
                .collect();
            let value = match (key.ends_with("_samples"), values.is_empty()) {
                (true, _) => sample.clone(),
                (false, true) => Value::Null,
                (false, false) => float(median(&values)),
            };
            out.push((key.clone(), value));
        }
    }
    Ok(out)
}

fn show(value: &Value) -> String {
    match value {
        Value::Number(_) => match value.as_f64() {
            Some(v) if v.fract() != 0.0 || v.abs() >= 1e15 => format!("{v:.4}"),
            Some(v) => format!("{v:.0}"),
            None => value.to_string(),
        },
        Value::String(s) => s.clone(),
        other => other.to_string(),
    }
}

/// Human-readable block of one workload: every metric by name with its unit.
fn describe(
    workload: &Workload,
    tally: &Tally,
    layers: &[(&str, &str, f64)],
) -> Result<String, String> {
    let mut out = format!("{}\n", workload.name);
    for metric in &E2E_METRICS {
        let values = tally.samples(metric.name)?;
        if values.is_empty() {
            continue;
        }
        let (q1, q2, q3) = quartiles(&values);
        out.push_str(&format!(
            "  {:<22} {q2:>12.4} {:<5} [q1 {q1:.4}, q3 {q3:.4}, n {}] bound {:.0}%\n",
            metric.name,
            metric.unit,
            values.len(),
            metric.bound * 100.0
        ));
    }
    let failed_share = tally.failed() as f64 / tally.attempted().max(1) as f64;
    out.push_str(&format!(
        "  {:<22} {failed_share:>12.4} share [{} failed of {} attempted]; {} noisy repetitions\n",
        "failed_share",
        tally.failed(),
        tally.attempted(),
        tally.noisy()
    ));
    for failure in tally.failures() {
        out.push_str(&format!("  CHECK FAILED: {failure}\n"));
    }
    // Every repetition made, in order: wall_s beside the host control.
    for row in tally.rows() {
        out.push_str(&format!(
            "  repetition {:>3}{} wall_s {:.4}  host control {:.1} ms{}\n",
            get_u64(row, "rep")?,
            if row.get("traced") == Some(&Value::Bool(true)) {
                " (traced)"
            } else {
                ""
            },
            get_f64(row, "wall_s")?,
            get_f64(row, "host_control_s")? * 1e3,
            if is_flagged(row) { "  noisy" } else { "" }
        ));
    }
    for (name, value) in diagnostics(tally)? {
        out.push_str(&format!("  {name:<22} {:>12}\n", show(&value)));
    }
    if let Some(first) = tally.first() {
        out.push_str(&format!(
            "  {:<22} {:>20}\n",
            "fingerprint",
            get_str(first, "fingerprint")?
        ));
        if let Some(exact) = first.get("exact").and_then(Value::as_object) {
            let counts: Vec<String> = exact
                .iter()
                .map(|(k, v)| format!("{k} {}", show(v)))
                .collect();
            out.push_str(&format!("  exact: {}\n", counts.join(", ")));
        }
    }
    if !layers.is_empty() {
        out.push_str("  per layer (traced repetition; shares are of the event loop, the run or the wall as named in README):\n");
        for (name, unit, value) in layers
            .iter()
            .filter(|(name, ..)| !name.starts_with("probe."))
        {
            out.push_str(&format!("    {name:<22} {value:>14.4} {unit}\n"));
        }
    }
    if let Some(row) = tally.traced.last() {
        let table = spans::self_times(&spans::from_value(row.get("spans").ok_or("no spans")?)?);
        out.push_str("  span self-times (last traced repetition):\n");
        for r in table {
            out.push_str(&format!(
                "    {:<12} n {:>6}  total {:>10.6} s  self {:>10.6} s\n",
                r.name, r.count, r.total_s, r.self_s
            ));
        }
    }
    Ok(out)
}

fn describe_probes(probes: &[Probe]) -> String {
    let mut out = String::from("layer probes (best of 5, per operation)\n");
    for p in probes {
        out.push_str(&format!(
            "  {:<24} {:>12.3} {}\n",
            p.name,
            p.value(),
            p.unit
        ));
    }
    out
}

/// Writes the span file of a workload: one process per traced repetition.
fn write_trace(workload: &Workload, tally: &Tally) -> Result<PathBuf, String> {
    let reps: Vec<(u32, Vec<spans::Span>)> = tally
        .traced
        .iter()
        .map(|row| {
            let spans = spans::from_value(row.get("spans").ok_or("traced row without spans")?)?;
            Ok((get_u64(row, "rep")? as u32, spans))
        })
        .collect::<Result<_, String>>()?;
    let path = Path::new(OUT_DIR).join(format!("trace-{}.json", workload.name));
    std::fs::write(&path, spans::chrome_trace(workload.name, &reps))
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok(path)
}

/// The driver's contract: one workload for `--seconds`, one JSON object as
/// the last line of standard output.
fn cmd_measure(options: &HashMap<String, String>) -> Result<bool, String> {
    let workload = workload_option(options)?;
    let seed: u64 = number(options, "seed", None)?;
    let seconds: f64 = number(options, "seconds", None)?;
    let traced = traced_option(options)?;

    let began = Instant::now();
    let mut session = Session::new(1)?;
    let mut tally = Tally::default();
    // A traced run spends the first half of its time on traced repetitions
    // and the rest on the layer probes.
    let budget = if traced { seconds / 2.0 } else { seconds };
    let least = if traced { 1 } else { REPETITIONS };
    loop {
        let rows = if traced { &tally.traced } else { &tally.timed };
        let calm = rows.iter().filter(|r| !session.is_noisy(r)).count();
        let elapsed = began.elapsed().as_secs_f64();
        // Stop once the next repetition would mostly fall outside the
        // window — or, while too few repetitions ran on a calm host, outside
        // twice the window.
        let next_ends = elapsed + 0.5 * elapsed / rows.len().max(1) as f64;
        let window = if calm >= least { budget } else { 2.0 * budget };
        if rows.len() >= least && next_ends >= window {
            break;
        }
        let row = session.rep(workload, seed, traced)?;
        if traced {
            tally.traced.push(row);
        } else {
            tally.timed.push(row);
        }
    }
    tally.flag_noisy(&session);

    let mut metrics = Vec::new();
    let mut layers = Vec::new();
    if traced {
        let path = write_trace(workload, &tally)?;
        let probes = probes::run_all(1)?;
        eprint!("{}", describe_probes(&probes));
        layers = layers::per_layer(workload, &Tally::measured(&tally.traced, 1), &probes)?;
        for &(name, unit, value) in &layers {
            metrics.push((name, metric_value(value, unit)));
        }
        eprintln!("spans written to {}", path.display());
    } else {
        for metric in &E2E_METRICS {
            let value = median(&tally.samples(metric.name)?);
            metrics.push((metric.name, metric_value(value, metric.unit)));
        }
    }
    eprint!("{}", describe(workload, &tally, &layers)?);

    let correct = tally.failed() == 0;
    let line = obj([
        ("correct", Value::Bool(correct)),
        ("attempted", uint(tally.attempted())),
        ("failed", uint(tally.failed())),
        ("metrics", obj(metrics)),
    ]);
    println!(
        "{}",
        serde_json::to_string(&line).expect("result serialises")
    );
    Ok(true)
}

fn cmd_probes(options: &HashMap<String, String>) -> Result<bool, String> {
    let divisor = if options.contains_key("quick") {
        QUICK_DIVISOR
    } else {
        1
    };
    print!("{}", describe_probes(&probes::run_all(divisor)?));
    Ok(true)
}

/// Every workload: timed passes round-robin across workloads (so slow drift
/// of the host lands on all of them alike), one traced pass, the probes;
/// prints every metric and writes `results.json` and the span files.
fn cmd_all(options: &HashMap<String, String>) -> Result<bool, String> {
    let seed: u64 = number(options, "seed", Some(DEFAULT_SEED))?;
    let quick = options.contains_key("quick");
    let (divisor, repetitions) = if quick {
        (QUICK_DIVISOR, 1)
    } else {
        (1, ALL_PASSES)
    };

    let mut session = Session::new(divisor)?;
    let mut tallies: Vec<Tally> = WORKLOADS.iter().map(|_| Tally::default()).collect();
    for pass in 0..repetitions {
        for (workload, tally) in WORKLOADS.iter().zip(&mut tallies) {
            eprintln!("pass {}/{repetitions}: {}", pass + 1, workload.name);
            tally.timed.push(session.rep_calm(workload, seed, false)?);
        }
    }
    for (workload, tally) in WORKLOADS.iter().zip(&mut tallies) {
        eprintln!("traced pass: {}", workload.name);
        tally.traced.push(session.rep_calm(workload, seed, true)?);
    }
    tallies.iter_mut().for_each(|t| t.flag_noisy(&session));
    eprintln!("layer probes");
    let probes = probes::run_all(divisor)?;

    // The one check that spans two workloads: the wide grid must cost at
    // least twice the narrow one per event, or it is not exercising the
    // per-site scans it is named for.
    let us_per_event = |name: &str| -> Result<f64, String> {
        let i = WORKLOADS
            .iter()
            .position(|w| w.name == name)
            .expect("named workload");
        let events = tallies[i]
            .first()
            .and_then(|r| r.get("exact")?.get("engine_events")?.as_u64())
            .ok_or("no engine_events")?;
        Ok(median(&tallies[i].samples("run_s")?) * 1e6 / events as f64)
    };
    let (narrow, wide) = (us_per_event("grid_clean")?, us_per_event("grid_wide")?);
    let wide_enough = quick || wide >= 2.0 * narrow;

    let mut all_ok = wide_enough;
    let mut entries = Vec::new();
    for (workload, tally) in WORKLOADS.iter().zip(&tallies) {
        let layers = layers::per_layer(workload, &Tally::measured(&tally.traced, 1), &probes)?;
        print!("{}", describe(workload, tally, &layers)?);
        let untraced = median(&tally.samples("wall_s")?);
        let traced_wall = layers
            .iter()
            .find(|l| l.0 == "traced_wall_s")
            .map_or(0.0, |l| l.2);
        println!(
            "  {:<22} {:>12.4} ratio (traced wall_s / untraced median)",
            "trace_overhead",
            traced_wall / untraced
        );
        let path = write_trace(workload, tally)?;
        println!("  spans: {}", path.display());
        let mut failures = tally.failures();
        if workload.name == "grid_wide" && !wide_enough {
            failures.push(format!(
                "grid_wide costs {wide:.2} us/event, less than twice grid_clean's {narrow:.2}"
            ));
        }
        all_ok &= tally.failed() == 0 && failures.is_empty();
        let first = tally.first().ok_or("workload without repetitions")?;
        let e2e: Vec<(&str, Value)> = E2E_METRICS
            .iter()
            .map(|m| Ok((m.name, metric_block(m.unit, &tally.samples(m.name)?))))
            .collect::<Result<_, String>>()?;
        entries.push((
            workload.name,
            obj([
                ("why", text(workload.why)),
                ("attempted", uint(tally.attempted())),
                ("failed", uint(tally.failed())),
                (
                    "failed_share",
                    float(tally.failed() as f64 / tally.attempted().max(1) as f64),
                ),
                ("noisy_repetitions", uint(tally.noisy() as u64)),
                (
                    "failures",
                    Value::Array(failures.iter().map(|f| text(f.as_str())).collect()),
                ),
                ("end_to_end", obj(e2e)),
                (
                    "fingerprint",
                    first.get("fingerprint").cloned().unwrap_or(Value::Null),
                ),
                ("exact", first.get("exact").cloned().unwrap_or(Value::Null)),
                ("diagnostics", obj(diagnostics(tally)?)),
                ("trace_overhead", float(traced_wall / untraced)),
                (
                    "per_layer",
                    obj(layers
                        .iter()
                        .filter(|l| !l.0.starts_with("probe."))
                        .map(|&(name, unit, value)| (name, metric_value(value, unit)))),
                ),
            ]),
        ));
    }
    print!("{}", describe_probes(&probes));
    println!(
        "grid_wide {wide:.2} us/event vs grid_clean {narrow:.2} us/event ({:.2}x)",
        wide / narrow
    );

    let results = obj([
        ("benchmark", text("cgsim-benchmark")),
        ("seed", uint(seed)),
        ("quick", Value::Bool(quick)),
        ("repetitions", uint(repetitions as u64)),
        ("nproc", uint(host::nproc() as u64)),
        ("threads_used", uint(1)),
        ("host_control_s", metric_block("s", &session.controls)),
        ("workloads", obj(entries)),
        (
            "probes",
            obj(probes
                .iter()
                .map(|p| (p.name, metric_value(p.value(), p.unit)))),
        ),
        ("claim", Value::Null),
    ]);
    let path = Path::new(OUT_DIR).join("results.json");
    let text = serde_json::to_string_pretty(&results).expect("results serialise");
    std::fs::write(&path, text + "\n").map_err(|e| format!("write {}: {e}", path.display()))?;
    println!(
        "results: {}  ({})",
        path.display(),
        if all_ok {
            "every check passed"
        } else {
            "CHECKS FAILED"
        }
    );
    Ok(all_ok)
}
