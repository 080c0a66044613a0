//! The deterministic structured trace: record schema, category filtering,
//! and pluggable sinks (JSONL and Chrome `trace_event` JSON).
//!
//! A trace is a flat sequence of [`TraceRecord`]s. Every record carries the
//! *simulated* time of the thing it describes and a sequence number assigned
//! in emission order — both are pure functions of the scenario, so a trace
//! file is byte-identical across repeated runs of the same scenario (this is
//! asserted by the end-to-end tests and the CI trace gate).

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};

/// What part of the simulated grid a record describes.
///
/// Categories are also the unit of filtering: the tracer holds a bitmask and
/// emission sites test it before building a record, so filtered-out (and
/// fully disabled) categories cost one branch and no allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceCategory {
    /// Job lifecycle spans: input staging, execution segments, output.
    Job,
    /// Fault replay actions: outages, node losses, link degradations, kills.
    Fault,
    /// Checkpoint writes, restores, and invalidations.
    Ckpt,
    /// Fluid-model activity: transfer admissions and completions.
    Fluid,
    /// Allocation-policy decisions at the main server.
    Broker,
    /// Re-replication repair activity: deficit detection, repair transfers,
    /// retries, and abandonments.
    Repair,
}

/// Every category, in bit order.
pub const ALL_CATEGORIES: [TraceCategory; 6] = [
    TraceCategory::Job,
    TraceCategory::Fault,
    TraceCategory::Ckpt,
    TraceCategory::Fluid,
    TraceCategory::Broker,
    TraceCategory::Repair,
];

/// Bitmask enabling every category.
pub const MASK_ALL: u32 = (1 << ALL_CATEGORIES.len()) - 1;

impl TraceCategory {
    /// The category's bit in a filter mask.
    #[inline]
    pub fn bit(self) -> u32 {
        1 << self as u32
    }

    /// The category's stable lowercase label (the `cat` field of the JSONL
    /// schema and the `cat` of Chrome trace events).
    pub fn label(self) -> &'static str {
        match self {
            TraceCategory::Job => "job",
            TraceCategory::Fault => "fault",
            TraceCategory::Ckpt => "ckpt",
            TraceCategory::Fluid => "fluid",
            TraceCategory::Broker => "broker",
            TraceCategory::Repair => "repair",
        }
    }

    /// Parses a label produced by [`TraceCategory::label`].
    pub fn from_label(label: &str) -> Option<Self> {
        ALL_CATEGORIES.into_iter().find(|c| c.label() == label)
    }
}

impl Serialize for TraceCategory {
    fn serialize_value(&self) -> serde::Value {
        serde::Value::String(self.label().to_string())
    }
}

impl Deserialize for TraceCategory {
    fn deserialize(r: &mut serde::Reader<'_>) -> Result<Self, serde::Error> {
        if r.peek() != Some(b'"') {
            return Err(r.unexpected("trace category string"));
        }
        let s = r.string()?;
        TraceCategory::from_label(&s)
            .ok_or_else(|| serde::Error::custom(format!("unknown trace category `{s}`")))
    }
}

/// Parses a `--trace-filter` list (`"job,fault,ckpt"`, or `"all"`) into a
/// category bitmask.
pub fn parse_filter(spec: &str) -> Result<u32, String> {
    let spec = spec.trim();
    if spec.is_empty() || spec == "all" {
        return Ok(MASK_ALL);
    }
    let mut mask = 0;
    for part in spec.split(',') {
        let part = part.trim();
        match TraceCategory::from_label(part) {
            Some(cat) => mask |= cat.bit(),
            None => {
                return Err(format!(
                    "unknown trace category `{part}` (expected one of job, fault, ckpt, fluid, broker, repair, all)"
                ))
            }
        }
    }
    Ok(mask)
}

/// Whether a record opens a span, closes one, or marks a point in time.
///
/// The labels mirror the Chrome `trace_event` phase letters so the two
/// formats describe the same structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanPhase {
    /// Span begin (`"B"`).
    Begin,
    /// Span end (`"E"`).
    End,
    /// Instantaneous event (`"i"`).
    Instant,
}

impl SpanPhase {
    /// The Chrome `ph` letter.
    pub fn label(self) -> &'static str {
        match self {
            SpanPhase::Begin => "B",
            SpanPhase::End => "E",
            SpanPhase::Instant => "i",
        }
    }

    /// Parses a label produced by [`SpanPhase::label`].
    pub fn from_label(label: &str) -> Option<Self> {
        match label {
            "B" => Some(SpanPhase::Begin),
            "E" => Some(SpanPhase::End),
            "i" => Some(SpanPhase::Instant),
            _ => None,
        }
    }
}

impl Serialize for SpanPhase {
    fn serialize_value(&self) -> serde::Value {
        serde::Value::String(self.label().to_string())
    }
}

impl Deserialize for SpanPhase {
    fn deserialize(r: &mut serde::Reader<'_>) -> Result<Self, serde::Error> {
        if r.peek() != Some(b'"') {
            return Err(r.unexpected("span phase string"));
        }
        let s = r.string()?;
        SpanPhase::from_label(&s)
            .ok_or_else(|| serde::Error::custom(format!("unknown span phase `{s}`")))
    }
}

/// One line of the JSONL trace schema.
///
/// Field order is the serialization order. `seq` is assigned in emission
/// order by the tracer; `time_s` is simulated seconds. Neither depends on
/// wall-clock, so records are byte-identical across runs.
/// Format: a JSONL trace line, written by `JsonlSink`, read by `validate_jsonl`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceRecord {
    /// Monotonically increasing sequence number (stable id).
    pub seq: u64,
    /// Simulated time of the event, seconds.
    pub time_s: f64,
    /// Category (also the filter unit).
    pub cat: TraceCategory,
    /// Span begin / span end / instant.
    pub ph: SpanPhase,
    /// What happened, e.g. `"execute"`, `"fault.outage"`, `"ckpt.write"`.
    pub kind: String,
    /// Job the record concerns, if any.
    pub job: Option<u64>,
    /// Site the record concerns, if any.
    pub site: Option<String>,
    /// Free-form detail (bytes staged, chosen policy target, …).
    pub info: Option<String>,
}

impl TraceRecord {
    /// Checks the schema invariants a well-formed record must satisfy.
    pub fn validate(&self) -> Result<(), String> {
        if !self.time_s.is_finite() || self.time_s < 0.0 {
            return Err(format!(
                "record {}: time_s must be finite and non-negative, got {}",
                self.seq, self.time_s
            ));
        }
        if self.kind.is_empty() {
            return Err(format!("record {}: empty kind", self.seq));
        }
        Ok(())
    }
}

/// Where trace records go.
///
/// Sinks are fed records in sequence order and flushed once at the end of
/// the run. A sink must not reorder or drop records: byte-identity of the
/// output across runs is part of the contract.
pub trait TraceSink {
    /// Accepts the next record.
    fn record(&mut self, rec: &TraceRecord);

    /// Flushes and finalizes the output. Returns the first I/O error
    /// encountered at any point, so a full disk is reported rather than
    /// silently producing a truncated trace.
    fn finish(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// A sink that keeps records in memory (tests, and the serve path which
/// renders the trace into the response).
#[derive(Debug, Default)]
pub struct MemorySink {
    /// The records received so far.
    pub records: Vec<TraceRecord>,
}

impl TraceSink for MemorySink {
    fn record(&mut self, rec: &TraceRecord) {
        self.records.push(rec.clone());
    }
}

/// Renders records as JSON Lines: one [`TraceRecord`] object per line.
pub struct JsonlSink<W: Write> {
    out: W,
    err: Option<io::Error>,
}

impl JsonlSink<BufWriter<File>> {
    /// Creates a JSONL sink writing to a new file at `path`.
    pub fn create(path: &Path) -> io::Result<Self> {
        Ok(JsonlSink::new(BufWriter::new(File::create(path)?)))
    }
}

impl<W: Write> JsonlSink<W> {
    /// Creates a JSONL sink over an arbitrary writer.
    pub fn new(out: W) -> Self {
        JsonlSink { out, err: None }
    }

    /// Flushes and returns the underlying writer (surfacing deferred errors).
    pub fn into_inner(mut self) -> io::Result<W> {
        self.finish()?;
        Ok(self.out)
    }
}

impl<W: Write> TraceSink for JsonlSink<W> {
    fn record(&mut self, rec: &TraceRecord) {
        if self.err.is_some() {
            return;
        }
        let line = serde_json::to_string(rec).expect("trace record serializes");
        if let Err(e) = writeln!(self.out, "{line}") {
            self.err = Some(e);
        }
    }

    fn finish(&mut self) -> io::Result<()> {
        if let Some(e) = self.err.take() {
            return Err(e);
        }
        self.out.flush()
    }
}

/// A trace file as a user asks for it: where, in which format, and which
/// categories. [`TraceTarget::new`] is the one place a format name and a
/// filter are checked — the CLI's `--trace-format` / `--trace-filter` and
/// serve's `trace_format` / `trace_filter` both go through it before any
/// run — and [`TraceTarget::open`] is the one place the file is created.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceTarget {
    /// The trace file.
    pub path: PathBuf,
    /// Chrome `trace_event` JSON ([`ChromeSink`]) rather than JSON Lines
    /// ([`JsonlSink`]).
    pub chrome: bool,
    /// The categories kept (see [`parse_filter`]).
    pub mask: u32,
}

impl TraceTarget {
    /// Resolves a format name — `jsonl` (also the meaning of `None` or an
    /// empty name) or `chrome` — and a [`parse_filter`] list (`None` or empty
    /// keeps every category). `format_option` names the format option in the
    /// error, so each front end reports its own spelling of it.
    pub fn new(
        path: impl Into<PathBuf>,
        format: Option<&str>,
        filter: Option<&str>,
        format_option: &str,
    ) -> Result<Self, String> {
        let chrome = match format.unwrap_or_default() {
            "" | "jsonl" => false,
            "chrome" => true,
            other => {
                return Err(format!(
                    "{format_option} must be jsonl or chrome, got {other}"
                ))
            }
        };
        let mask = parse_filter(filter.unwrap_or_default())?;
        Ok(TraceTarget {
            path: path.into(),
            chrome,
            mask,
        })
    }

    /// Creates the trace file and the sink that writes it.
    pub fn open(&self) -> io::Result<Box<dyn TraceSink>> {
        Ok(if self.chrome {
            Box::new(ChromeSink::create(&self.path)?)
        } else {
            Box::new(JsonlSink::create(&self.path)?)
        })
    }
}

/// Renders records in the Chrome `trace_event` JSON format, loadable in
/// Perfetto (<https://ui.perfetto.dev>) and `chrome://tracing`.
///
/// Mapping: `ts` is simulated time in microseconds, `pid` is always 1,
/// `tid` is the job id + 1 (so each job is its own track, with `B`/`E`
/// spans nesting per job) or 0 for grid-level events, and `args` carries
/// the site and detail strings.
pub struct ChromeSink<W: Write> {
    out: W,
    err: Option<io::Error>,
    any: bool,
}

impl ChromeSink<BufWriter<File>> {
    /// Creates a Chrome-format sink writing to a new file at `path`.
    pub fn create(path: &Path) -> io::Result<Self> {
        Ok(ChromeSink::new(BufWriter::new(File::create(path)?)))
    }
}

impl<W: Write> ChromeSink<W> {
    /// Creates a Chrome-format sink over an arbitrary writer.
    pub fn new(out: W) -> Self {
        ChromeSink {
            out,
            err: None,
            any: false,
        }
    }

    /// Converts one record into a `trace_event` object.
    fn event_value(rec: &TraceRecord) -> serde::Value {
        let mut map = serde::Map::new();
        map.insert("name".to_string(), serde::Value::String(rec.kind.clone()));
        map.insert(
            "cat".to_string(),
            serde::Value::String(rec.cat.label().to_string()),
        );
        map.insert(
            "ph".to_string(),
            serde::Value::String(rec.ph.label().to_string()),
        );
        // Microseconds of simulated time; purely a function of the scenario.
        map.insert("ts".to_string(), (rec.time_s * 1e6).serialize_value());
        map.insert("pid".to_string(), 1u64.serialize_value());
        let tid = rec.job.map(|j| j + 1).unwrap_or(0);
        map.insert("tid".to_string(), tid.serialize_value());
        if rec.ph == SpanPhase::Instant {
            map.insert("s".to_string(), serde::Value::String("t".to_string()));
        }
        let mut args = serde::Map::new();
        args.insert("seq".to_string(), rec.seq.serialize_value());
        if let Some(site) = &rec.site {
            args.insert("site".to_string(), serde::Value::String(site.clone()));
        }
        if let Some(info) = &rec.info {
            args.insert("info".to_string(), serde::Value::String(info.clone()));
        }
        map.insert("args".to_string(), serde::Value::Object(args));
        serde::Value::Object(map)
    }
}

impl<W: Write> TraceSink for ChromeSink<W> {
    fn record(&mut self, rec: &TraceRecord) {
        if self.err.is_some() {
            return;
        }
        let result = if self.any {
            self.out.write_all(b",\n")
        } else {
            self.out.write_all(b"{\"traceEvents\":[\n")
        };
        self.any = true;
        let event = serde::format_compact(&Self::event_value(rec));
        if let Err(e) = result.and_then(|()| self.out.write_all(event.as_bytes())) {
            self.err = Some(e);
        }
    }

    fn finish(&mut self) -> io::Result<()> {
        if let Some(e) = self.err.take() {
            return Err(e);
        }
        if self.any {
            self.out.write_all(b"\n]}\n")?;
        } else {
            self.out.write_all(b"{\"traceEvents\":[]}\n")?;
        }
        self.out.flush()
    }
}

/// The tracer the simulation core holds: a category mask, a sequence
/// counter, and the sink.
///
/// The core stores it as `Option<Tracer>` so the fully-off path is a single
/// `None` test; with tracing on but a category filtered out,
/// [`Tracer::wants`] rejects before any record is built.
pub struct Tracer {
    mask: u32,
    seq: u64,
    sink: Box<dyn TraceSink>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("mask", &self.mask)
            .field("seq", &self.seq)
            .finish_non_exhaustive()
    }
}

impl Tracer {
    /// Creates a tracer emitting categories in `mask` to `sink`.
    pub fn new(sink: Box<dyn TraceSink>, mask: u32) -> Self {
        Tracer { mask, seq: 0, sink }
    }

    /// Whether records of `cat` would be emitted. Emission sites that need
    /// to build strings should test this first.
    #[inline]
    pub fn wants(&self, cat: TraceCategory) -> bool {
        self.mask & cat.bit() != 0
    }

    /// Emits a record (no-op if `cat` is filtered out). `info` is taken as
    /// an owned `String` — build it behind a [`Tracer::wants`] test.
    #[allow(clippy::too_many_arguments)]
    pub fn emit(
        &mut self,
        time_s: f64,
        cat: TraceCategory,
        ph: SpanPhase,
        kind: &str,
        job: Option<u64>,
        site: Option<&str>,
        info: Option<String>,
    ) {
        if !self.wants(cat) {
            return;
        }
        let rec = TraceRecord {
            seq: self.seq,
            time_s,
            cat,
            ph,
            kind: kind.to_string(),
            job,
            site: site.map(str::to_string),
            info,
        };
        self.seq += 1;
        self.sink.record(&rec);
    }

    /// Number of records emitted so far.
    pub fn emitted(&self) -> u64 {
        self.seq
    }

    /// Finalizes the sink, surfacing any deferred I/O error.
    pub fn finish(&mut self) -> io::Result<()> {
        self.sink.finish()
    }
}

/// Validates a JSONL trace: every line must parse as a [`TraceRecord`]
/// satisfying the schema invariants, with strictly increasing `seq`.
/// Returns the number of records.
pub fn validate_jsonl(text: &str) -> Result<usize, String> {
    let mut count = 0usize;
    let mut last_seq: Option<u64> = None;
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let rec: TraceRecord =
            serde_json::from_str(line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
        rec.validate()
            .map_err(|e| format!("line {}: {e}", lineno + 1))?;
        if let Some(prev) = last_seq {
            if rec.seq <= prev {
                return Err(format!(
                    "line {}: seq {} not increasing (previous {})",
                    lineno + 1,
                    rec.seq,
                    prev
                ));
            }
        }
        last_seq = Some(rec.seq);
        count += 1;
    }
    Ok(count)
}

/// Validates a Chrome-format trace: the file must be a JSON object whose
/// `traceEvents` array contains well-formed `trace_event` objects (string
/// `name`/`cat`/`ph`, numeric `ts`/`pid`/`tid`). Returns the event count.
pub fn validate_chrome(text: &str) -> Result<usize, String> {
    let value: serde::Value = serde_json::from_str(text).map_err(|e| e.to_string())?;
    let events = value
        .as_object()
        .and_then(|o| o.get("traceEvents"))
        .and_then(|v| v.as_array())
        .ok_or_else(|| "expected top-level object with a traceEvents array".to_string())?;
    for (i, event) in events.iter().enumerate() {
        let obj = event
            .as_object()
            .ok_or_else(|| format!("traceEvents[{i}]: not an object"))?;
        for key in ["name", "cat", "ph"] {
            if !matches!(obj.get(key), Some(serde::Value::String(_))) {
                return Err(format!("traceEvents[{i}]: missing string field `{key}`"));
            }
        }
        for key in ["ts", "pid", "tid"] {
            if obj.get(key).and_then(|v| v.as_number()).is_none() {
                return Err(format!("traceEvents[{i}]: missing numeric field `{key}`"));
            }
        }
        let ph = obj.get("ph").and_then(|v| v.as_str()).unwrap_or("");
        if SpanPhase::from_label(ph).is_none() {
            return Err(format!("traceEvents[{i}]: unknown ph `{ph}`"));
        }
    }
    Ok(events.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_target_accepts_the_two_formats_and_checks_the_filter() {
        let target = |format, filter| TraceTarget::new("t", format, filter, "--trace-format");
        for (format, chrome) in [(None, false), (Some(""), false), (Some("jsonl"), false)]
            .into_iter()
            .chain([(Some("chrome"), true)])
        {
            let resolved = target(format, None).unwrap();
            assert_eq!((resolved.chrome, resolved.mask), (chrome, MASK_ALL));
        }
        assert_eq!(
            target(Some("xml"), None),
            Err("--trace-format must be jsonl or chrome, got xml".to_string())
        );
        assert_eq!(
            target(None, Some("fault,job")).unwrap().mask,
            TraceCategory::Fault.bit() | TraceCategory::Job.bit()
        );
        assert_eq!(target(None, Some("")).unwrap().mask, MASK_ALL);
        let bad = target(None, Some("job,nope")).unwrap_err();
        assert!(bad.starts_with("unknown trace category `nope`"), "{bad}");
    }

    fn record(seq: u64) -> TraceRecord {
        TraceRecord {
            seq,
            time_s: 12.5,
            cat: TraceCategory::Job,
            ph: SpanPhase::Begin,
            kind: "execute".into(),
            job: Some(41),
            site: Some("CERN".into()),
            info: None,
        }
    }

    #[test]
    fn filter_parsing() {
        assert_eq!(parse_filter("all").unwrap(), MASK_ALL);
        assert_eq!(parse_filter("").unwrap(), MASK_ALL);
        assert_eq!(
            parse_filter("job,fault").unwrap(),
            TraceCategory::Job.bit() | TraceCategory::Fault.bit()
        );
        assert_eq!(
            parse_filter(" ckpt , fluid ,broker").unwrap(),
            TraceCategory::Ckpt.bit() | TraceCategory::Fluid.bit() | TraceCategory::Broker.bit()
        );
        assert!(parse_filter("job,nope").is_err());
    }

    #[test]
    fn category_labels_round_trip() {
        for cat in ALL_CATEGORIES {
            assert_eq!(TraceCategory::from_label(cat.label()), Some(cat));
        }
        assert_eq!(TraceCategory::from_label("x"), None);
    }

    #[test]
    fn record_round_trips_through_jsonl() {
        let rec = record(3);
        let line = serde_json::to_string(&rec).unwrap();
        let back: TraceRecord = serde_json::from_str(&line).unwrap();
        assert_eq!(back, rec);
    }

    #[test]
    fn tracer_respects_mask_and_assigns_seq() {
        let mut tracer = Tracer::new(Box::new(MemorySink::default()), TraceCategory::Job.bit());
        assert!(tracer.wants(TraceCategory::Job));
        assert!(!tracer.wants(TraceCategory::Fluid));
        tracer.emit(
            1.0,
            TraceCategory::Job,
            SpanPhase::Begin,
            "execute",
            Some(1),
            None,
            None,
        );
        tracer.emit(
            2.0,
            TraceCategory::Fluid,
            SpanPhase::Instant,
            "transfer",
            None,
            None,
            None,
        );
        tracer.emit(
            3.0,
            TraceCategory::Job,
            SpanPhase::End,
            "execute",
            Some(1),
            None,
            None,
        );
        assert_eq!(tracer.emitted(), 2);
    }

    #[test]
    fn jsonl_sink_and_validator_agree() {
        let mut sink = JsonlSink::new(Vec::new());
        for seq in 0..4 {
            sink.record(&record(seq));
        }
        sink.finish().unwrap();
        let text = String::from_utf8(sink.out).unwrap();
        assert_eq!(validate_jsonl(&text).unwrap(), 4);
    }

    #[test]
    fn jsonl_validator_rejects_bad_input() {
        assert!(validate_jsonl("not json\n").is_err());
        // Non-increasing seq.
        let mut sink = JsonlSink::new(Vec::new());
        sink.record(&record(1));
        sink.record(&record(1));
        sink.finish().unwrap();
        let text = String::from_utf8(sink.out).unwrap();
        assert!(validate_jsonl(&text).unwrap_err().contains("seq"));
        // Negative time.
        let mut bad = record(0);
        bad.time_s = -1.0;
        assert!(bad.validate().is_err());
        let mut empty = record(0);
        empty.kind.clear();
        assert!(empty.validate().is_err());
    }

    #[test]
    fn chrome_sink_produces_wellformed_trace_events() {
        let mut sink = ChromeSink::new(Vec::new());
        let mut begin = record(0);
        begin.info = Some("bytes=100".into());
        sink.record(&begin);
        let mut end = record(1);
        end.ph = SpanPhase::End;
        sink.record(&end);
        let mut instant = record(2);
        instant.ph = SpanPhase::Instant;
        instant.cat = TraceCategory::Fault;
        instant.job = None;
        sink.record(&instant);
        sink.finish().unwrap();
        let text = String::from_utf8(sink.out).unwrap();
        assert_eq!(validate_chrome(&text).unwrap(), 3);
        // tid 0 for grid-level, job+1 otherwise; ts in microseconds.
        assert!(text.contains("\"tid\":42"));
        assert!(text.contains("\"tid\":0"));
        assert!(text.contains("\"ts\":12500000.0"));
        assert!(text.contains("\"s\":\"t\""));
    }

    #[test]
    fn empty_chrome_trace_is_valid() {
        let mut sink = ChromeSink::new(Vec::new());
        sink.finish().unwrap();
        let text = String::from_utf8(sink.out).unwrap();
        assert_eq!(validate_chrome(&text).unwrap(), 0);
    }

    #[test]
    fn chrome_validator_rejects_malformed_events() {
        assert!(validate_chrome("[]").is_err());
        assert!(validate_chrome("{\"traceEvents\":[{\"name\":\"x\"}]}").is_err());
        assert!(validate_chrome(
            "{\"traceEvents\":[{\"name\":\"x\",\"cat\":\"job\",\"ph\":\"Q\",\"ts\":1,\"pid\":1,\"tid\":1}]}"
        )
        .is_err());
    }
}
