//! One repetition of a serve workload: an in-process `serve_loop` driven by
//! a closed loop of one client with zero think time, over reader/writer
//! wrappers that timestamp each line pulled and each reply flushed.

use std::collections::VecDeque;
use std::io::{BufRead, Read, Write};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use cgsim_core::{serve_loop, ExecutionConfig, ScenarioBase, ScenarioEngine, ServeRequest};
use cgsim_platform::wlcg_platform;
use cgsim_workload::{TraceConfig, TraceGenerator};
use serde_json::{Map, Value};

use crate::host::{Fnv, Xoshiro};
use crate::json::{float, obj, uint};
use crate::sim::churn_checkpoint;
use crate::spans::{self, Recorder};
use crate::stats::{median, sorted, tail_percentile};
use crate::workloads::CkptSize;
use crate::workloads::{scaled, ServeShape, Workload, PLATFORM_SEED};
use crate::{Measured, RepArgs};

const POLICIES: [&str; 4] = [
    "least-loaded",
    "round-robin",
    "data-aware",
    "capacity-proportional",
];

/// A light outage process (default 48 h horizon, well past these makespans).
const OUTAGE_SPEC: &str = "outage:site=all,mttf=12h,mttr=20m";

/// The request line of delta `d`: policy × fault variant × seed, so any two
/// deltas differ in canonical hash. The id is the delta's, not the line's,
/// so all replies to one delta must be the same bytes.
pub fn request_line(d: usize) -> String {
    let policy = POLICIES[d % POLICIES.len()];
    let variant = variant(d);
    let seed = 1 + d / (POLICIES.len() * 3);
    let mut line = format!("{{\"id\":\"d{d}\",\"policy\":\"{policy}\",\"seed\":{seed}");
    if variant >= 1 {
        line.push_str(&format!(",\"faults\":\"{OUTAGE_SPEC}\""));
    }
    if variant == 2 {
        let checkpoint = churn_checkpoint(CkptSize {
            base_bytes: 1_000_000_000,
            bytes_per_core: 0,
        });
        let json = serde_json::to_string(&checkpoint).expect("checkpoint config serialises");
        line.push_str(&format!(",\"checkpoint\":{json}"));
    }
    line.push('}');
    line
}

/// Fault variant of delta `d`: 0 none, 1 outages, 2 outages + checkpoints.
fn variant(d: usize) -> usize {
    (d / POLICIES.len()) % 3
}

/// Deltas `d` and `d + COST_CLASSES` share policy and fault variant, which
/// between them set what a miss costs to simulate and a reply to encode.
const COST_CLASSES: usize = POLICIES.len() * 3;

/// Seed of the fixed arrival pattern (see [`transcript`]).
const PATTERN_SEED: u64 = 1;

/// The order requests are sent in: delta index per line.
///
/// The arrival pattern is fixed: popularity rank `r` appears in proportion
/// to `1/(r+1)` (Zipf, exponent 1), every rank at least once, in one fixed
/// shuffled order — so first sights interleave with repeats and evictions
/// force re-misses, identically on every seed. The seed decides which delta
/// holds which rank, permuting deltas within their cost class (same policy,
/// same fault variant). A run's hit, miss and eviction counts and its mix of
/// cheap and costly requests therefore do not move with the seed, while the
/// scenarios behind them (scenario seed, and the base trace) do. Drawing
/// the order itself from the seed moves the miss count by ±5 %, and letting
/// a popular rank change policy moves the reply sizes by 4×; either moves
/// the transcript's cost by more than the bound it is held to.
pub fn transcript(distinct: usize, lines: usize, seed: u64) -> Vec<usize> {
    let harmonic: f64 = (0..distinct).map(|r| 1.0 / (r + 1) as f64).sum();
    let mut counts: Vec<usize> = (0..distinct)
        .map(|r| ((lines as f64 / ((r + 1) as f64 * harmonic)).round() as usize).max(1))
        .collect();
    // Rounding leaves the total a few lines off; the most popular rank
    // absorbs the difference so the line count is exactly what was asked.
    let others: usize = counts[1..].iter().sum();
    counts[0] = lines.saturating_sub(others).max(1);
    let mut ranks: Vec<usize> = counts
        .iter()
        .enumerate()
        .flat_map(|(r, &c)| std::iter::repeat_n(r, c))
        .collect();
    shuffle(&mut ranks, &mut Xoshiro::new(PATTERN_SEED));

    let mut rng = Xoshiro::new(seed);
    let mut delta_of_rank = vec![0; distinct];
    for c in 0..COST_CLASSES.min(distinct) {
        let class: Vec<usize> = (c..distinct).step_by(COST_CLASSES).collect();
        let mut labels = class.clone();
        shuffle(&mut labels, &mut rng);
        for (rank, delta) in class.into_iter().zip(labels) {
            delta_of_rank[rank] = delta;
        }
    }
    ranks.into_iter().map(|r| delta_of_rank[r]).collect()
}

fn shuffle(items: &mut [usize], rng: &mut Xoshiro) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.index(i + 1));
    }
}

/// Replays `order` against an LRU of `capacity` entries that starts holding
/// `resident` (oldest first); `true` marks a hit. This is the benchmark's
/// model of the engine's response cache — the run checks the engine's own
/// `simulations_run` and eviction counters against it.
pub fn lru_replay(order: &[usize], capacity: usize, resident: &[usize]) -> (Vec<bool>, u64) {
    let mut lru: VecDeque<usize> = resident.iter().copied().collect();
    let mut evictions = 0;
    let hits = order
        .iter()
        .map(|&d| {
            if let Some(pos) = lru.iter().position(|&x| x == d) {
                lru.remove(pos);
                lru.push_back(d);
                true
            } else {
                if lru.len() >= capacity {
                    lru.pop_front();
                    evictions += 1;
                }
                lru.push_back(d);
                false
            }
        })
        .collect();
    (hits, evictions)
}

/// Hands `serve_loop` one request line per `fill_buf`, stamping the moment
/// each line is pulled.
struct TimedInput<'a> {
    lines: &'a [Vec<u8>],
    next: usize,
    offset: usize,
    origin: Instant,
    pulled_s: Vec<f64>,
}

impl Read for TimedInput<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let available = self.fill_buf()?;
        let n = available.len().min(buf.len());
        buf[..n].copy_from_slice(&available[..n]);
        self.consume(n);
        Ok(n)
    }
}

impl BufRead for TimedInput<'_> {
    fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
        let Some(line) = self.lines.get(self.next) else {
            return Ok(&[]);
        };
        if self.offset == 0 {
            self.pulled_s.push(self.origin.elapsed().as_secs_f64());
        }
        Ok(&line[self.offset..])
    }

    fn consume(&mut self, amt: usize) {
        // `read_until` consumes 0 bytes after the empty buffer that ends the
        // input; there is no current line then.
        let Some(line) = self.lines.get(self.next) else {
            return;
        };
        self.offset += amt;
        if self.offset >= line.len() {
            self.next += 1;
            self.offset = 0;
        }
    }
}

/// The client's book-keeping: every reply is checked as it arrives and then
/// dropped, so the repetition's peak memory is the server's, not a pile of
/// replies. Kept per delta: the first reply seen, which all later replies
/// to that delta must equal byte for byte (a hit's bytes are its miss
/// twin's).
struct Replies {
    first: Vec<Option<Vec<u8>>>,
    failed: u64,
    hash: Fnv,
}

impl Replies {
    fn new(distinct: usize) -> Self {
        Replies {
            first: vec![None; distinct],
            failed: 0,
            hash: Fnv::new(),
        }
    }

    /// `delta` is what the reply should answer; `None` for the stats line.
    fn accept(&mut self, delta: Option<usize>, reply: &[u8]) {
        self.hash.update(reply);
        let ok = match delta {
            None => reply.starts_with(b"{\"ok\":true,\"stats\":"),
            Some(d) => {
                let prefix = format!("{{\"id\":\"d{d}\",\"ok\":true,");
                let first = self.first[d].get_or_insert_with(|| reply.to_vec());
                reply.starts_with(prefix.as_bytes()) && first.as_slice() == reply
            }
        };
        self.failed += u64::from(!ok);
    }
}

/// Collects each reply, stamps its flush (`serve_loop` flushes once per
/// request line, after the reply is written), then hands it to the checks —
/// after the stamp, so the client's own work is in no latency.
struct TimedOutput<'a> {
    pending: Vec<u8>,
    origin: Instant,
    flushed_s: Vec<f64>,
    /// What each reply should answer, in order, and how many have arrived.
    expected: &'a [Option<usize>],
    answered: usize,
    replies: &'a mut Replies,
}

impl Write for TimedOutput<'_> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.pending.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.flushed_s.push(self.origin.elapsed().as_secs_f64());
        for reply in self
            .pending
            .split(|&b| b == b'\n')
            .filter(|l| !l.is_empty())
        {
            let delta = self.expected.get(self.answered).copied().flatten();
            self.replies.accept(delta, reply);
            self.answered += 1;
        }
        self.pending.clear();
        Ok(())
    }
}

/// The request lines of a conversation: the stats command for `None`.
fn as_lines(expected: &[Option<usize>]) -> Vec<Vec<u8>> {
    expected
        .iter()
        .map(|d| {
            let mut line = d.map_or_else(|| "{\"cmd\":\"stats\"}".to_string(), request_line);
            line.push('\n');
            line.into_bytes()
        })
        .collect()
}

/// Sends `expected` through `serve_loop`; returns each line's latency
/// (pulled → flushed, so parse and encode are inside).
fn drive(
    server: &Server,
    expected: &[Option<usize>],
    replies: &mut Replies,
    origin: Instant,
) -> Result<Vec<f64>, String> {
    let lines = as_lines(expected);
    let mut input = TimedInput {
        lines: &lines,
        next: 0,
        offset: 0,
        origin,
        pulled_s: Vec::with_capacity(lines.len()),
    };
    let mut output = TimedOutput {
        pending: Vec::new(),
        origin,
        flushed_s: Vec::with_capacity(lines.len()),
        expected,
        answered: 0,
        replies,
    };
    serve_loop(
        &server.engine,
        &server.base,
        &server.execution,
        &mut input,
        &mut output,
    )
    .map_err(|e| format!("serve_loop: {e}"))?;
    let (pulled, flushed, answered) = (input.pulled_s, output.flushed_s, output.answered);
    if pulled.len() != lines.len() || flushed.len() != lines.len() || answered != lines.len() {
        return Err(format!(
            "{} lines sent, {} pulled, {} flushed, {answered} answered",
            lines.len(),
            pulled.len(),
            flushed.len()
        ));
    }
    Ok(pulled.iter().zip(&flushed).map(|(p, f)| f - p).collect())
}

/// The reply `serve_loop` writes for a simulated or cached outcome, built
/// from the same public functions.
pub fn encode_reply(id: Option<&str>, deterministic_json: &str) -> String {
    let mut map = Map::new();
    if let Some(id) = id {
        map.insert("id".into(), Value::String(id.to_string()));
    }
    map.insert("ok".into(), Value::Bool(true));
    let results: Value = serde_json::from_str(deterministic_json).expect("results parse back");
    map.insert("results".into(), results);
    serde_json::to_string(&Value::Object(map)).expect("reply serialises")
}

/// The traced twin of [`drive`]: the same requests answered through the
/// public functions `serve_loop` is made of, with a span around each stage.
fn drive_traced(
    server: &Server,
    order: &[usize],
    replies: &mut Replies,
    rec: &mut Recorder,
) -> Result<Vec<f64>, String> {
    let mut latencies = Vec::with_capacity(order.len());
    for &d in order {
        let line = request_line(d);
        let (reply, line_s) = rec.time("line", |rec| -> Result<String, String> {
            let (request, _) = rec.time("parse", |_| {
                let value: Value = serde_json::from_str(&line).map_err(|e| e.to_string())?;
                serde_json::from_value::<ServeRequest>(value).map_err(|e| e.to_string())
            });
            let request = request?;
            let (outcome, _) = rec.time("evaluate", |_| {
                let spec = request.delta().resolve(&server.base, &server.execution);
                server.engine.evaluate(&spec)
            });
            let outcome = outcome.map_err(|e| e.to_string())?;
            let (reply, _) = rec.time("encode", |_| {
                encode_reply(request.id.as_deref(), &outcome.results.deterministic_json())
            });
            Ok(reply)
        });
        replies.accept(Some(d), reply?.as_bytes());
        latencies.push(line_s);
    }
    Ok(latencies)
}

/// What `cgsim serve` holds: the engine, the shared base and the base
/// execution configuration deltas are resolved against.
struct Server {
    engine: ScenarioEngine,
    base: Arc<ScenarioBase>,
    execution: ExecutionConfig,
}

/// Runs one repetition and returns its row.
pub fn run(
    started: Instant,
    workload: &Workload,
    shape: &ServeShape,
    args: &RepArgs,
) -> Result<Value, String> {
    let jobs = scaled(shape.jobs, args.divisor);
    let lines = scaled(shape.lines, args.divisor).max(shape.distinct);
    let mut rec = Recorder::new(started, args.traced);
    let order = transcript(shape.distinct, lines, args.seed);
    let primed: Vec<usize> = if shape.primed {
        (0..shape.distinct).collect()
    } else {
        Vec::new()
    };
    let mut replies = Replies::new(shape.distinct);

    let (server, _) = rec.time("setup", |rec| -> Result<Server, String> {
        let (spec, _) = rec.time("platform", |_| wlcg_platform(shape.sites, PLATFORM_SEED));
        let (trace, _) = rec.time("trace_gen", |_| {
            TraceGenerator::new(TraceConfig::with_jobs(jobs, args.seed)).generate(&spec)
        });
        let (server, _) = rec.time("build", |_| Server {
            engine: ScenarioEngine::new()
                .cache_capacity(shape.cache)
                .parallel(false),
            base: ScenarioBase::shared(spec, trace),
            execution: ExecutionConfig::default(),
        });
        // The server is up once it answers a first line; a primed workload
        // also sends its whole working set once, so that timing starts with
        // the cache full.
        let (warm, _) = rec.time("warm", |_| {
            let mut expected = vec![None];
            expected.extend(primed.iter().map(|&d| Some(d)));
            drive(&server, &expected, &mut replies, started)
        });
        warm?;
        Ok(server)
    });
    let server = server?;
    let setup_s = started.elapsed().as_secs_f64();

    let (latencies, run_s) = rec.time("run", |rec| {
        if args.traced {
            drive_traced(&server, &order, &mut replies, rec)
        } else {
            let expected: Vec<Option<usize>> = order.iter().map(|&d| Some(d)).collect();
            drive(&server, &expected, &mut replies, started)
        }
    });
    let latencies = latencies?;
    // The server's time: what the client waited, line by line. The client's
    // own checking between lines (zero think time otherwise) is left out.
    let wall_s: f64 = latencies.iter().sum();

    // Checks. One attempted operation per request line, plus the repetition.
    let (expected_hit, expected_evictions) = lru_replay(&order, shape.cache, &primed);
    let mut failures: Vec<String> = Vec::new();
    if replies.failed > 0 {
        failures.push(format!(
            "{} replies not ok or differing from their first-seen twin",
            replies.failed
        ));
    }
    let misses = expected_hit.iter().filter(|&&h| !h).count() as u64;
    let hits = expected_hit.len() as u64 - misses;
    let simulated = server.engine.simulations_run();
    if simulated != misses + primed.len() as u64 {
        failures.push(format!(
            "engine ran {simulated} simulations, the LRU replay predicts {}",
            misses + primed.len() as u64
        ));
    }
    let cache = server.engine.cache_counters();
    if cache.evictions != expected_evictions {
        failures.push(format!(
            "engine evicted {}, the LRU replay predicts {expected_evictions}",
            cache.evictions
        ));
    }
    if args.divisor <= 1 {
        // Does what its name says: a mixed transcript has hits, misses and
        // evictions; a hot one has nothing but hits.
        let as_named = if shape.primed {
            misses == 0
        } else {
            hits > 0 && misses > 0 && expected_evictions > 0
        };
        if !as_named {
            failures.push(format!(
                "transcript shape: {hits} hits, {misses} misses, {expected_evictions} evictions"
            ));
        }
    }

    // One reply per distinct delta, for inspection.
    let out_dir = Path::new(crate::OUT_DIR).join(workload.name);
    let (written, export_s) = rec.time("export", |_| {
        std::fs::create_dir_all(&out_dir)?;
        let mut file = std::fs::File::create(out_dir.join("replies.jsonl"))?;
        for reply in replies.first.iter().flatten() {
            file.write_all(reply)?;
            file.write_all(b"\n")?;
        }
        Ok::<(), std::io::Error>(())
    });
    written.map_err(|e| format!("write {}: {e}", out_dir.display()))?;

    let split = |want_hit: bool| -> Vec<f64> {
        latencies
            .iter()
            .zip(&expected_hit)
            .filter(|(_, &h)| h == want_hit)
            .map(|(&l, _)| l)
            .collect()
    };
    let hit_s = sorted(&split(true));
    let miss_s = sorted(&split(false));
    let scaled_tail = |v: &[f64], p: f64, scale: f64| match tail_percentile(v, p) {
        Some(x) => float(x * scale),
        None => Value::Null,
    };

    let attempted = order.len() as u64 + 1;
    let other_failures = failures.len() as u64 - u64::from(replies.failed > 0);
    let failed = replies.failed + other_failures.min(1);
    let mut row = args.row(
        workload,
        Measured {
            failures,
            attempted,
            failed,
            setup_s,
            wall_s,
            run_s,
            export_s,
            fingerprint: replies.hash.finish(),
        },
    )?;
    row.extend([
        (
            "exact",
            obj([
                ("jobs", uint(jobs as u64)),
                ("sites", uint(shape.sites as u64)),
                ("requests", uint(order.len() as u64)),
                ("hits", uint(hits)),
                ("misses", uint(misses)),
                ("evictions", uint(cache.evictions)),
                ("simulations_run", uint(simulated)),
            ]),
        ),
        (
            "serve",
            obj([
                ("scenarios_per_s", float(order.len() as f64 / wall_s)),
                ("hit_ratio", float(hits as f64 / order.len() as f64)),
                ("hit_samples", uint(hit_s.len() as u64)),
                ("hit_p50_us", float(median(&hit_s) * 1e6)),
                ("hit_p99_us", scaled_tail(&hit_s, 99.0, 1e6)),
                ("miss_samples", uint(miss_s.len() as u64)),
                ("miss_p50_ms", float(median(&miss_s) * 1e3)),
                ("miss_p90_ms", scaled_tail(&miss_s, 90.0, 1e3)),
            ]),
        ),
    ]);
    if args.traced {
        row.push(("spans", spans::to_value(&rec.into_spans())));
    }
    Ok(obj(row))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transcript_is_a_function_of_the_seed() {
        let a = transcript(120, 1000, 42);
        let b = transcript(120, 1000, 43);
        assert_eq!(a, transcript(120, 1000, 42));
        assert_ne!(a, b);
        assert_eq!(a.len(), 1000);
        assert_eq!(transcript(32, 15_000, 1).len(), 15_000);
        // Zipf-like: every delta appears, the most popular far more often
        // than the least.
        let mut counts = vec![0usize; 120];
        a.iter().for_each(|&d| counts[d] += 1);
        assert!(counts.iter().all(|&c| c >= 1));
        assert!(counts.iter().max().unwrap() > &(50 * counts.iter().min().unwrap()));
        // The seed relabels, it does not rearrange: line by line the cost
        // class is the same, and so is every "same delta as line j".
        for i in 0..a.len() {
            assert_eq!(a[i] % COST_CLASSES, b[i] % COST_CLASSES);
            let j = a.iter().position(|&d| d == a[i]).unwrap();
            assert_eq!(b.iter().position(|&d| d == b[i]).unwrap(), j);
        }
        // Same seed, same bytes.
        let bytes = |order: &[usize]| order.iter().map(|&d| request_line(d)).collect::<String>();
        assert_eq!(bytes(&a), bytes(&transcript(120, 1000, 42)));
        assert_ne!(bytes(&a), bytes(&b));
    }

    #[test]
    fn request_lines_parse_and_are_pairwise_distinct() {
        let lines: Vec<String> = (0..120).map(request_line).collect();
        for (d, line) in lines.iter().enumerate() {
            let request: ServeRequest = serde_json::from_str(line).unwrap();
            assert_eq!(request.id, Some(format!("d{d}")));
            assert!(request.policy.is_some() && request.seed.is_some());
            assert_eq!(request.checkpoint.is_some(), (d / 4) % 3 == 2);
        }
        let mut bodies: Vec<&str> = lines.iter().map(|l| l.split_once(',').unwrap().1).collect();
        bodies.sort_unstable();
        bodies.dedup();
        assert_eq!(bodies.len(), 120);
    }

    /// An LRU written the obvious way, to hold `lru_replay` against.
    fn naive_misses(order: &[usize], capacity: usize) -> usize {
        let mut stamp: Vec<(usize, usize)> = Vec::new(); // (delta, last use)
        let mut misses = 0;
        for (t, &d) in order.iter().enumerate() {
            if let Some(entry) = stamp.iter_mut().find(|(x, _)| *x == d) {
                entry.1 = t;
                continue;
            }
            misses += 1;
            if stamp.len() >= capacity {
                let oldest = (0..stamp.len()).min_by_key(|&i| stamp[i].1).unwrap();
                stamp.swap_remove(oldest);
            }
            stamp.push((d, t));
        }
        misses
    }

    #[test]
    fn computed_miss_count_matches_an_lru_64_replay() {
        let mut miss_counts = Vec::new();
        for seed in [42, 43, 7] {
            let order = transcript(120, 1000, seed);
            let (hits, evictions) = lru_replay(&order, 64, &[]);
            let misses = hits.iter().filter(|&&h| !h).count();
            assert_eq!(misses, naive_misses(&order, 64));
            assert_eq!(evictions as usize, misses - 64);
            assert!(misses > 120, "evictions must force re-misses: {misses}");
            assert!(misses < order.len() / 2);
            miss_counts.push(misses);
        }
        // The arrival pattern is fixed, so the miss count is seed-free.
        assert!(miss_counts.iter().all(|&m| m == miss_counts[0]));
        // A primed working set smaller than the cache never misses.
        let order = transcript(32, 5000, 42);
        let resident: Vec<usize> = (0..32).collect();
        let (hits, evictions) = lru_replay(&order, 64, &resident);
        assert!(hits.iter().all(|&h| h));
        assert_eq!(evictions, 0);
    }

    #[test]
    fn timed_input_hands_out_whole_lines_once() {
        let lines = vec![b"one\n".to_vec(), b"two\n".to_vec()];
        let input = TimedInput {
            lines: &lines,
            next: 0,
            offset: 0,
            origin: Instant::now(),
            pulled_s: Vec::new(),
        };
        let read: Vec<String> = input.lines().map(Result::unwrap).collect();
        assert_eq!(read, ["one", "two"]);
    }
}
