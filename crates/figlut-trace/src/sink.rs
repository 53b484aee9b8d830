//! Trace sinks: in-memory collection, JSONL event logs, and Chrome
//! trace-event JSON (Perfetto-loadable), plus the Chrome-trace validator
//! `repro --trace` and CI run over emitted files.

use crate::json::{escape, Json};
use crate::{Event, TraceSink};
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};

/// An owned copy of one recorded [`Event`], tagged with its run index —
/// what [`CollectSink`] stores and tests assert against.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum OwnedEvent {
    /// See [`Event::Span`].
    Span {
        /// Serve-run index within the session.
        run: u64,
        /// Event name.
        name: &'static str,
        /// Start tick (global — already run-offset).
        ts: u64,
        /// Duration in virtual ticks.
        dur: u64,
        /// Numeric payload.
        args: Vec<(&'static str, u64)>,
    },
    /// See [`Event::Instant`].
    Instant {
        /// Serve-run index within the session.
        run: u64,
        /// Event name.
        name: &'static str,
        /// Tick (global — already run-offset).
        ts: u64,
        /// Numeric payload.
        args: Vec<(&'static str, u64)>,
    },
    /// See [`Event::Counter`].
    Counter {
        /// Serve-run index within the session.
        run: u64,
        /// Track name.
        name: &'static str,
        /// Tick (global — already run-offset).
        ts: u64,
        /// Sampled value.
        value: u64,
    },
}

impl OwnedEvent {
    fn from_event(run: u64, e: &Event<'_>) -> Self {
        match *e {
            Event::Span {
                name,
                ts,
                dur,
                args,
            } => OwnedEvent::Span {
                run,
                name,
                ts,
                dur,
                args: args.to_vec(),
            },
            Event::Instant { name, ts, args } => OwnedEvent::Instant {
                run,
                name,
                ts,
                args: args.to_vec(),
            },
            Event::Counter { name, ts, value } => OwnedEvent::Counter {
                run,
                name,
                ts,
                value,
            },
        }
    }

    /// The event's run index.
    pub fn run(&self) -> u64 {
        match *self {
            OwnedEvent::Span { run, .. }
            | OwnedEvent::Instant { run, .. }
            | OwnedEvent::Counter { run, .. } => run,
        }
    }

    /// The event's name.
    pub fn name(&self) -> &'static str {
        match *self {
            OwnedEvent::Span { name, .. }
            | OwnedEvent::Instant { name, .. }
            | OwnedEvent::Counter { name, .. } => name,
        }
    }

    /// The event's (global) timestamp in virtual ticks.
    pub fn ts(&self) -> u64 {
        match *self {
            OwnedEvent::Span { ts, .. }
            | OwnedEvent::Instant { ts, .. }
            | OwnedEvent::Counter { ts, .. } => ts,
        }
    }

    /// Look up a payload entry by name (`None` for counters).
    pub fn arg(&self, key: &str) -> Option<u64> {
        match self {
            OwnedEvent::Span { args, .. } | OwnedEvent::Instant { args, .. } => {
                args.iter().find(|(k, _)| *k == key).map(|(_, v)| *v)
            }
            OwnedEvent::Counter { .. } => None,
        }
    }
}

/// Collects every event into a shared in-memory vector — the sink tests
/// install. Keep a clone of [`CollectSink::events`] before handing the sink
/// to [`crate::install`]; the events stay readable after the session ends.
#[derive(Clone, Debug, Default)]
pub struct CollectSink {
    events: Arc<Mutex<Vec<OwnedEvent>>>,
}

impl CollectSink {
    /// An empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// The shared event buffer.
    pub fn events(&self) -> Arc<Mutex<Vec<OwnedEvent>>> {
        Arc::clone(&self.events)
    }
}

impl TraceSink for CollectSink {
    fn record(&mut self, run: u64, event: &Event<'_>) {
        self.events
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push(OwnedEvent::from_event(run, event));
    }
}

fn write_args(out: &mut String, args: &[(&'static str, u64)]) {
    out.push('{');
    for (i, (k, v)) in args.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\"{}\":{v}", escape(k)));
    }
    out.push('}');
}

/// Newline-delimited JSON: one self-describing object per event, streamed
/// to the writer as it arrives (constant memory; grep- and jq-friendly).
pub struct JsonlSink {
    out: BufWriter<Box<dyn Write + Send>>,
}

impl JsonlSink {
    /// Stream events to `path` (truncating it).
    pub fn create(path: &Path) -> std::io::Result<Self> {
        Ok(Self::new(Box::new(File::create(path)?)))
    }

    /// Stream events to an arbitrary writer.
    pub fn new(writer: Box<dyn Write + Send>) -> Self {
        Self {
            out: BufWriter::new(writer),
        }
    }

    fn line(run: u64, event: &Event<'_>) -> String {
        let mut s = String::new();
        match *event {
            Event::Span {
                name,
                ts,
                dur,
                args,
            } => {
                s.push_str(&format!(
                    "{{\"type\":\"span\",\"name\":\"{}\",\"run\":{run},\"ts\":{ts},\"dur\":{dur},\"args\":",
                    escape(name)
                ));
                write_args(&mut s, args);
                s.push('}');
            }
            Event::Instant { name, ts, args } => {
                s.push_str(&format!(
                    "{{\"type\":\"instant\",\"name\":\"{}\",\"run\":{run},\"ts\":{ts},\"args\":",
                    escape(name)
                ));
                write_args(&mut s, args);
                s.push('}');
            }
            Event::Counter { name, ts, value } => {
                s.push_str(&format!(
                    "{{\"type\":\"counter\",\"name\":\"{}\",\"run\":{run},\"ts\":{ts},\"value\":{value}}}",
                    escape(name)
                ));
            }
        }
        s
    }
}

impl TraceSink for JsonlSink {
    fn record(&mut self, run: u64, event: &Event<'_>) {
        // I/O errors surface at close() via the buffered writer's flush.
        let _ = writeln!(self.out, "{}", Self::line(run, event));
    }

    fn close(&mut self) -> std::io::Result<()> {
        self.out.flush()
    }
}

/// Chrome trace-event JSON (the `{"traceEvents":[...]}` object form):
/// load the file in Perfetto or `chrome://tracing`. Spans map to complete
/// (`ph:"X"`) events, instants to `ph:"i"`, counter samples to `ph:"C"`;
/// `ts`/`dur` are **virtual ticks** (rendered as microseconds), `pid` is
/// always 1, and each serve run gets its own `tid` lane (`run + 1`).
///
/// Events buffer in memory and are written as one JSON document by
/// [`TraceSink::close`].
pub struct ChromeTraceSink {
    events: Vec<OwnedEvent>,
    out: Option<BufWriter<Box<dyn Write + Send>>>,
}

impl ChromeTraceSink {
    /// Buffer events and write the trace document to `path` on close.
    pub fn create(path: &Path) -> std::io::Result<Self> {
        Ok(Self::new(Box::new(File::create(path)?)))
    }

    /// Buffer events and write the trace document to `writer` on close.
    pub fn new(writer: Box<dyn Write + Send>) -> Self {
        Self {
            events: Vec::new(),
            out: Some(BufWriter::new(writer)),
        }
    }

    fn render_one(e: &OwnedEvent) -> String {
        let (tid, ts) = (e.run() + 1, e.ts());
        let name = escape(e.name());
        match e {
            OwnedEvent::Span { dur, args, .. } => {
                let mut s = format!(
                    "{{\"name\":\"{name}\",\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\"ts\":{ts},\"dur\":{dur},\"args\":"
                );
                write_args(&mut s, args);
                s.push('}');
                s
            }
            OwnedEvent::Instant { args, .. } => {
                let mut s = format!(
                    "{{\"name\":\"{name}\",\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":{tid},\"ts\":{ts},\"args\":"
                );
                write_args(&mut s, args);
                s.push('}');
                s
            }
            OwnedEvent::Counter { value, .. } => format!(
                "{{\"name\":\"{name}\",\"ph\":\"C\",\"pid\":1,\"tid\":{tid},\"ts\":{ts},\"args\":{{\"value\":{value}}}}}"
            ),
        }
    }

    /// Render the buffered events as the complete trace document (what
    /// `close` writes).
    pub fn render(&self) -> String {
        let mut s = String::from("{\"traceEvents\":[\n");
        for (i, e) in self.events.iter().enumerate() {
            s.push_str(&Self::render_one(e));
            if i + 1 < self.events.len() {
                s.push(',');
            }
            s.push('\n');
        }
        s.push_str("]}\n");
        s
    }
}

impl TraceSink for ChromeTraceSink {
    fn record(&mut self, run: u64, event: &Event<'_>) {
        self.events.push(OwnedEvent::from_event(run, event));
    }

    fn close(&mut self) -> std::io::Result<()> {
        let Some(mut out) = self.out.take() else {
            return Ok(());
        };
        out.write_all(self.render().as_bytes())?;
        out.flush()
    }
}

/// Validate `text` as a well-formed Chrome trace-event document of the
/// shape this crate emits: a root object with a non-empty `traceEvents`
/// array whose entries all carry `name`/`ph`/`ts`/`pid`/`tid` (and a
/// numeric `dur` on `ph:"X"` spans), with `ts` non-decreasing in file
/// order (the deterministic virtual clock never goes backwards). Returns
/// the event count.
///
/// # Errors
///
/// Returns a description of the first malformed construct.
pub fn validate_chrome_trace(text: &str) -> Result<usize, String> {
    let doc = Json::parse(text)?;
    let events = doc
        .get("traceEvents")
        .ok_or("missing \"traceEvents\" key")?
        .as_arr()
        .ok_or("\"traceEvents\" is not an array")?;
    if events.is_empty() {
        return Err("empty traceEvents array".into());
    }
    let mut last_ts = f64::NEG_INFINITY;
    for (i, e) in events.iter().enumerate() {
        let field = |key: &str| {
            e.get(key)
                .ok_or_else(|| format!("event {i}: missing \"{key}\""))
        };
        field("name")?
            .as_str()
            .ok_or_else(|| format!("event {i}: \"name\" is not a string"))?;
        let ph = field("ph")?
            .as_str()
            .ok_or_else(|| format!("event {i}: \"ph\" is not a string"))?;
        let num = |key: &str| {
            field(key)?
                .as_num()
                .ok_or_else(|| format!("event {i}: \"{key}\" is not a number"))
        };
        let ts = num("ts")?;
        num("pid")?;
        num("tid")?;
        if ph == "X" {
            field("dur")?
                .as_num()
                .ok_or_else(|| format!("event {i}: span \"dur\" is not a number"))?;
        }
        if ts < last_ts {
            return Err(format!(
                "event {i}: ts {ts} goes backwards (previous {last_ts})"
            ));
        }
        last_ts = ts;
    }
    Ok(events.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_events(sink: &mut dyn TraceSink) {
        sink.record(
            0,
            &Event::Span {
                name: "Prefill",
                ts: 0,
                dur: 16,
                args: &[("rows", 4), ("queue", 2)],
            },
        );
        sink.record(
            0,
            &Event::Instant {
                name: "admit",
                ts: 0,
                args: &[("id", 3)],
            },
        );
        sink.record(
            1,
            &Event::Counter {
                name: "queue_depth",
                ts: 16,
                value: 1,
            },
        );
    }

    #[test]
    fn collect_sink_preserves_order_and_payloads() {
        let mut sink = CollectSink::new();
        let events = sink.events();
        demo_events(&mut sink);
        let evs = events.lock().unwrap();
        assert_eq!(evs.len(), 3);
        assert_eq!(evs[0].name(), "Prefill");
        assert_eq!(evs[0].arg("rows"), Some(4));
        assert_eq!(evs[2].run(), 1);
        assert_eq!(evs[2].ts(), 16);
        assert_eq!(evs[1].arg("missing"), None);
    }

    #[test]
    fn jsonl_lines_parse_back() {
        let line = JsonlSink::line(
            2,
            &Event::Span {
                name: "Mixed",
                ts: 7,
                dur: 3,
                args: &[("decode_rows", 2)],
            },
        );
        let j = Json::parse(&line).unwrap();
        assert_eq!(j.get("type").unwrap().as_str(), Some("span"));
        assert_eq!(j.get("run").unwrap().as_num(), Some(2.0));
        assert_eq!(j.get("dur").unwrap().as_num(), Some(3.0));
        assert_eq!(
            j.get("args").unwrap().get("decode_rows").unwrap().as_num(),
            Some(2.0)
        );
    }

    #[test]
    fn chrome_trace_renders_valid_and_validator_accepts() {
        let mut sink = ChromeTraceSink::new(Box::new(Vec::new()));
        demo_events(&mut sink);
        let doc = sink.render();
        assert_eq!(validate_chrome_trace(&doc), Ok(3));
        // Runs land on distinct thread lanes.
        let j = Json::parse(&doc).unwrap();
        let evs = j.get("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(evs[0].get("tid").unwrap().as_num(), Some(1.0));
        assert_eq!(evs[2].get("tid").unwrap().as_num(), Some(2.0));
    }

    #[test]
    fn validator_rejects_malformed_traces() {
        assert!(validate_chrome_trace("{}").is_err(), "missing array");
        assert!(
            validate_chrome_trace("{\"traceEvents\":[]}").is_err(),
            "empty array"
        );
        assert!(
            validate_chrome_trace(
                "{\"traceEvents\":[{\"name\":\"a\",\"ph\":\"i\",\"ts\":0,\"pid\":1}]}"
            )
            .is_err(),
            "missing tid"
        );
        assert!(
            validate_chrome_trace(
                "{\"traceEvents\":[{\"name\":\"a\",\"ph\":\"X\",\"ts\":0,\"pid\":1,\"tid\":1}]}"
            )
            .is_err(),
            "span without dur"
        );
        let backwards = concat!(
            "{\"traceEvents\":[",
            "{\"name\":\"a\",\"ph\":\"i\",\"ts\":5,\"pid\":1,\"tid\":1},",
            "{\"name\":\"b\",\"ph\":\"i\",\"ts\":4,\"pid\":1,\"tid\":1}",
            "]}"
        );
        assert!(validate_chrome_trace(backwards).is_err(), "non-monotone ts");
    }

    #[test]
    fn file_sinks_write_on_close() {
        let dir = std::env::temp_dir().join("figlut-trace-sink-test");
        std::fs::create_dir_all(&dir).unwrap();
        let chrome = dir.join("t.json");
        let jsonl = dir.join("t.jsonl");
        {
            let mut sink = ChromeTraceSink::create(&chrome).unwrap();
            demo_events(&mut sink);
            sink.close().unwrap();
        }
        {
            let mut sink = JsonlSink::create(&jsonl).unwrap();
            demo_events(&mut sink);
            sink.close().unwrap();
        }
        let doc = std::fs::read_to_string(&chrome).unwrap();
        assert_eq!(validate_chrome_trace(&doc), Ok(3));
        let lines = std::fs::read_to_string(&jsonl).unwrap();
        assert_eq!(lines.lines().count(), 3);
        for line in lines.lines() {
            assert!(Json::parse(line).is_ok());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
