//! Trace sinks — in-memory collection and Chrome trace-event JSON
//! (Perfetto-loadable) — and the one reader of that JSON,
//! [`read_chrome_trace`], which `repro analyze` folds and
//! [`validate_chrome_trace`] checks.

use crate::json::{escape, Json};
use crate::{Event, TraceSink};
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};

/// An owned copy of one recorded [`Event`], tagged with its run index —
/// what [`CollectSink`] stores, [`ChromeTraceSink`] buffers and
/// [`read_chrome_trace`] returns.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum OwnedEvent {
    /// See [`Event::Span`].
    Span {
        /// Serve-run index within the session.
        run: u64,
        /// Event name.
        name: String,
        /// Start tick (global — already run-offset).
        ts: u64,
        /// Duration in virtual ticks.
        dur: u64,
        /// Numeric payload.
        args: Vec<(String, u64)>,
    },
    /// See [`Event::Instant`].
    Instant {
        /// Serve-run index within the session.
        run: u64,
        /// Event name.
        name: String,
        /// Tick (global — already run-offset).
        ts: u64,
        /// Numeric payload.
        args: Vec<(String, u64)>,
    },
    /// See [`Event::Counter`].
    Counter {
        /// Serve-run index within the session.
        run: u64,
        /// Track name.
        name: String,
        /// Tick (global — already run-offset).
        ts: u64,
        /// Sampled value.
        value: u64,
    },
}

impl OwnedEvent {
    fn from_event(run: u64, e: &Event<'_>) -> Self {
        let owned = |args: &[(&str, u64)]| args.iter().map(|&(k, v)| (k.to_owned(), v)).collect();
        match *e {
            Event::Span {
                name,
                ts,
                dur,
                args,
            } => OwnedEvent::Span {
                run,
                name: name.to_owned(),
                ts,
                dur,
                args: owned(args),
            },
            Event::Instant { name, ts, args } => OwnedEvent::Instant {
                run,
                name: name.to_owned(),
                ts,
                args: owned(args),
            },
            Event::Counter { name, ts, value } => OwnedEvent::Counter {
                run,
                name: name.to_owned(),
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
    pub fn name(&self) -> &str {
        match self {
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
                args.iter().find(|(k, _)| k == key).map(|&(_, v)| v)
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

fn write_args(out: &mut String, args: &[(String, u64)]) {
    out.push('{');
    for (i, (k, v)) in args.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\"{}\":{v}", escape(k)));
    }
    out.push('}');
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

fn field<'a>(obj: &'a Json, key: &str, what: &str) -> Result<&'a Json, String> {
    obj.get(key)
        .ok_or_else(|| format!("{what}: missing \"{key}\""))
}

fn num(obj: &Json, key: &str, what: &str) -> Result<u64, String> {
    let v = field(obj, key, what)?
        .as_num()
        .ok_or_else(|| format!("{what}: \"{key}\" is not a number"))?;
    count(v, key, what)
}

/// Every number a trace carries is a non-negative integer, at most 2^53:
/// past it a JSON number (an `f64`) no longer holds every integer, so the
/// value read may not be the value written.
fn count(v: f64, key: &str, what: &str) -> Result<u64, String> {
    if v < 0.0 || v.fract() != 0.0 {
        return Err(format!(
            "{what}: \"{key}\" = {v} is not a non-negative integer"
        ));
    }
    if v > (1u64 << 53) as f64 {
        return Err(format!(
            "{what}: \"{key}\" = {v} exceeds 2^53, the largest integer a JSON number holds exactly"
        ));
    }
    Ok(v as u64)
}

fn string(obj: &Json, key: &str, what: &str) -> Result<String, String> {
    Ok(field(obj, key, what)?
        .as_str()
        .ok_or_else(|| format!("{what}: \"{key}\" is not a string"))?
        .to_string())
}

fn args_of(obj: &Json, what: &str) -> Result<Vec<(String, u64)>, String> {
    match obj.get("args") {
        None => Ok(Vec::new()),
        Some(Json::Obj(fields)) => fields
            .iter()
            .map(|(k, v)| {
                let n = v
                    .as_num()
                    .ok_or_else(|| format!("{what}: arg \"{k}\" is not a number"))?;
                Ok((k.clone(), count(n, k, what)?))
            })
            .collect(),
        Some(_) => Err(format!("{what}: \"args\" is not an object")),
    }
}

/// Parse one Chrome trace event (`ph` X/i/C; `tid` is run + 1).
fn parse_event(obj: &Json, what: &str) -> Result<OwnedEvent, String> {
    let ph = string(obj, "ph", what)?;
    let name = string(obj, "name", what)?;
    let tid = num(obj, "tid", what)?;
    if tid == 0 {
        return Err(format!("{what}: \"tid\" must be >= 1 (it encodes run + 1)"));
    }
    let run = tid - 1;
    let ts = num(obj, "ts", what)?;
    match ph.as_str() {
        "X" => Ok(OwnedEvent::Span {
            run,
            name,
            ts,
            dur: num(obj, "dur", what)?,
            args: args_of(obj, what)?,
        }),
        "i" => Ok(OwnedEvent::Instant {
            run,
            name,
            ts,
            args: args_of(obj, what)?,
        }),
        "C" => {
            let value = args_of(obj, what)?
                .into_iter()
                .find_map(|(k, v)| (k == "value").then_some(v))
                .ok_or_else(|| format!("{what}: counter without args.value"))?;
            Ok(OwnedEvent::Counter {
                run,
                name,
                ts,
                value,
            })
        }
        other => Err(format!("{what}: unknown phase \"{other}\"")),
    }
}

/// Read a Chrome trace-event document of the shape [`ChromeTraceSink`]
/// writes back into the events it recorded: a root object whose
/// `traceEvents` array holds `ph` `X`/`i`/`C` entries with a string
/// `name`, `tid` = run + 1, integer `ts` (and `dur` on spans), integer
/// `args`, and a counter's sample in `args.value`. Every number must be a
/// non-negative integer no larger than 2^53.
///
/// # Errors
///
/// Returns a description of the first malformed construct, naming its
/// event index.
pub fn read_chrome_trace(text: &str) -> Result<Vec<OwnedEvent>, String> {
    if text.trim().is_empty() {
        return Err("empty trace file".into());
    }
    let doc = Json::parse(text).map_err(|e| format!("Chrome trace: {e}"))?;
    field(&doc, "traceEvents", "Chrome trace")?
        .as_arr()
        .ok_or("Chrome trace: \"traceEvents\" is not an array")?
        .iter()
        .enumerate()
        .map(|(i, e)| parse_event(e, &format!("event {i}")))
        .collect()
}

/// Validate `text` as a trace [`read_chrome_trace`] reads, with at least
/// one event and `ts` non-decreasing in file order (the deterministic
/// virtual clock never goes backwards) — the check `repro --trace` and CI
/// run over emitted files. Returns the event count.
///
/// # Errors
///
/// Returns a description of the first malformed construct.
pub fn validate_chrome_trace(text: &str) -> Result<usize, String> {
    let events = read_chrome_trace(text)?;
    if events.is_empty() {
        return Err("empty traceEvents array".into());
    }
    for (i, w) in events.windows(2).enumerate() {
        let (last, ts) = (w[0].ts(), w[1].ts());
        if ts < last {
            return Err(format!(
                "event {}: ts {ts} goes backwards (previous {last})",
                i + 1
            ));
        }
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
        {
            let mut sink = ChromeTraceSink::create(&chrome).unwrap();
            demo_events(&mut sink);
            sink.close().unwrap();
        }
        let doc = std::fs::read_to_string(&chrome).unwrap();
        assert_eq!(validate_chrome_trace(&doc), Ok(3));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
