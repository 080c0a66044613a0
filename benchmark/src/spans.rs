//! The benchmark's own spans: recorded in memory around the calls into each
//! layer, written out when a run ends. Nothing here is inside the simulator.

use std::time::Instant;

use serde_json::Value;

use crate::json::{float, get_f64, get_str, get_u64, obj, text, uint};

/// One timed interval. `parent` is the span that was open when this one
/// started; all spans of one repetition share that repetition's id.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_s: f64,
    pub end_s: f64,
    pub id: u32,
    pub parent: Option<u32>,
}

impl Span {
    pub fn duration_s(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// Times closures; keeps the spans only when tracing is on, so the untraced
/// (end-to-end) runs pay one clock pair per phase and allocate nothing.
pub struct Recorder {
    origin: Instant,
    keep: bool,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Recorder {
    /// `origin` is the zero of every span's clock (process start).
    pub fn new(origin: Instant, keep: bool) -> Self {
        Recorder {
            origin,
            keep,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Runs `f` inside a span named `name`; returns its result and duration.
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce(&mut Recorder) -> T) -> (T, f64) {
        let start_s = self.origin.elapsed().as_secs_f64();
        let id = self.spans.len() as u32;
        if self.keep {
            self.spans.push(Span {
                name: name.to_string(),
                start_s,
                end_s: start_s,
                id,
                parent: self.open.last().copied(),
            });
            self.open.push(id);
        }
        let out = f(self);
        let end_s = self.origin.elapsed().as_secs_f64();
        if self.keep {
            self.open.pop();
            self.spans[id as usize].end_s = end_s;
        }
        (out, end_s - start_s)
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Per-name totals of a span set.
#[derive(Debug, Clone, PartialEq)]
pub struct SelfTime {
    pub name: String,
    pub count: usize,
    /// Sum of the spans' durations.
    pub total_s: f64,
    /// Sum of each span's duration minus the part its child spans cover.
    pub self_s: f64,
}

/// The self-time table, one row per span name in first-seen order. Children
/// of one span run one after another on one thread, so the part of a span
/// its children cover is the sum of their durations.
pub fn self_times(spans: &[Span]) -> Vec<SelfTime> {
    let mut child_s = vec![0.0; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            child_s[parent as usize] += span.duration_s();
        }
    }
    let mut rows: Vec<SelfTime> = Vec::new();
    for (span, covered) in spans.iter().zip(&child_s) {
        let row = match rows.iter_mut().find(|r| r.name == span.name) {
            Some(row) => row,
            None => {
                rows.push(SelfTime {
                    name: span.name.clone(),
                    count: 0,
                    total_s: 0.0,
                    self_s: 0.0,
                });
                rows.last_mut().expect("just pushed")
            }
        };
        row.count += 1;
        row.total_s += span.duration_s();
        row.self_s += span.duration_s() - covered;
    }
    rows
}

/// Spans as a JSON array (how a repetition hands them to its parent).
pub fn to_value(spans: &[Span]) -> Value {
    let one = |s: &Span| {
        obj([
            ("name", text(s.name.as_str())),
            ("start_s", float(s.start_s)),
            ("end_s", float(s.end_s)),
            ("id", uint(u64::from(s.id))),
        ]
        .into_iter()
        .chain(s.parent.map(|p| ("parent", uint(u64::from(p))))))
    };
    Value::Array(spans.iter().map(one).collect())
}

/// Inverse of [`to_value`].
pub fn from_value(value: &Value) -> Result<Vec<Span>, String> {
    let one = |v: &Value| -> Result<Span, String> {
        Ok(Span {
            name: get_str(v, "name")?.to_string(),
            start_s: get_f64(v, "start_s")?,
            end_s: get_f64(v, "end_s")?,
            id: get_u64(v, "id")? as u32,
            parent: v.get("parent").and_then(Value::as_u64).map(|p| p as u32),
        })
    };
    value
        .as_array()
        .ok_or("spans: not an array")?
        .iter()
        .map(one)
        .collect()
}

/// Chrome trace-event JSON (loads in Perfetto / chrome://tracing): one
/// process per repetition, complete ("X") events in microseconds, with the
/// span and parent ids in `args`.
pub fn chrome_trace(workload: &str, reps: &[(u32, Vec<Span>)]) -> String {
    let mut events = Vec::new();
    for (rep, spans) in reps {
        let pid = uint(u64::from(*rep));
        let process = format!("{workload} repetition {rep}");
        events.push(obj([
            ("name", text("process_name")),
            ("ph", text("M")),
            ("pid", pid.clone()),
            ("args", obj([("name", text(process))])),
        ]));
        for s in spans {
            let ids = [("id", uint(u64::from(s.id)))]
                .into_iter()
                .chain(s.parent.map(|p| ("parent", uint(u64::from(p)))));
            events.push(obj([
                ("name", text(s.name.as_str())),
                ("cat", text(workload)),
                ("ph", text("X")),
                ("ts", float(s.start_s * 1e6)),
                ("dur", float(s.duration_s() * 1e6)),
                ("pid", pid.clone()),
                ("tid", uint(0)),
                ("args", obj(ids)),
            ]));
        }
    }
    let root = obj([
        ("traceEvents", Value::Array(events)),
        ("displayTimeUnit", text("ms")),
    ]);
    serde_json::to_string(&root).expect("trace serialises")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_s: f64, end_s: f64, id: u32, parent: Option<u32>) -> Span {
        Span {
            name: name.into(),
            start_s,
            end_s,
            id,
            parent,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = vec![
            span("rep", 0.0, 10.0, 0, None),
            span("setup", 0.0, 3.0, 1, Some(0)),
            span("platform", 0.5, 1.5, 2, Some(1)),
            span("run", 3.0, 9.0, 3, Some(0)),
            span("platform", 9.0, 9.5, 4, Some(0)),
        ];
        let table = self_times(&spans);
        let row = |name: &str| table.iter().find(|r| r.name == name).unwrap().clone();
        // rep: 10 − (3 + 6 + 0.5); grandchildren are not subtracted twice.
        assert!((row("rep").self_s - 0.5).abs() < 1e-12);
        assert!((row("setup").self_s - 2.0).abs() < 1e-12);
        assert_eq!(row("platform").count, 2);
        assert!((row("platform").total_s - 1.5).abs() < 1e-12);
        assert!((row("platform").self_s - 1.5).abs() < 1e-12);
        assert!((row("run").self_s - 6.0).abs() < 1e-12);
        // Self times partition the root span.
        let total: f64 = table.iter().map(|r| r.self_s).sum();
        assert!((total - 10.0).abs() < 1e-12);
        assert_eq!(table[0].name, "rep");
    }

    #[test]
    fn recorder_nests_and_keeps_only_when_tracing() {
        let mut rec = Recorder::new(Instant::now(), true);
        let (v, outer_s) = rec.time("outer", |rec| {
            let (x, _) = rec.time("inner", |_| 41);
            x + 1
        });
        assert_eq!(v, 42);
        let spans = rec.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[1].start_s >= spans[0].start_s && spans[1].end_s <= spans[0].end_s);
        assert!((spans[0].duration_s() - outer_s).abs() < 1e-12);

        let mut off = Recorder::new(Instant::now(), false);
        let (_, d) = off.time("outer", |_| std::hint::black_box(3));
        assert!(d >= 0.0);
        assert!(off.into_spans().is_empty());
    }

    #[test]
    fn spans_round_trip_and_render_as_chrome_trace() {
        let spans = vec![
            span("run", 1.0, 2.5, 0, None),
            span("export", 1.5, 2.0, 1, Some(0)),
        ];
        assert_eq!(from_value(&to_value(&spans)).unwrap(), spans);
        let text = chrome_trace("grid_clean", &[(3, spans)]);
        let parsed: Value = serde_json::from_str(&text).unwrap();
        let events = parsed.get("traceEvents").unwrap().as_array().unwrap();
        assert_eq!(events.len(), 3);
        let run = &events[1];
        assert_eq!(run.get("ph").unwrap().as_str(), Some("X"));
        assert_eq!(run.get("ts").unwrap().as_f64(), Some(1e6));
        assert_eq!(run.get("dur").unwrap().as_f64(), Some(1.5e6));
        assert_eq!(run.get("pid").unwrap().as_u64(), Some(3));
        assert_eq!(
            events[2]
                .get("args")
                .unwrap()
                .get("parent")
                .unwrap()
                .as_u64(),
            Some(0)
        );
    }
}
