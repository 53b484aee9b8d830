//! Offline trace analysis: replay an exported `figlut-trace` file into
//! distribution tables.
//!
//! The `repro analyze <trace>` subcommand reads either trace format the
//! sinks write — newline-delimited JSON (`.jsonl`) or Chrome trace-event
//! JSON — normalizes the events, and folds them into the same
//! deterministic [`Hist`] histograms the live report uses (DESIGN.md §9):
//! per-kind span statistics, a merged step-duration distribution, the
//! per-session admission timeline, and a per-run queue-depth/occupancy
//! breakdown. Because the histograms have fixed bucket boundaries, an
//! offline analysis of an exported trace reports the same quantiles as
//! the run that produced it — the trace file is a faithful, replayable
//! record, not a lossy log.
//!
//! Malformed input is a hard error (the CLI exits nonzero): every parse
//! failure names the first offending line or event.

use figlut_trace::fmt::{f3, Table};
use figlut_trace::json::Json;
use figlut_trace::Hist;
use std::collections::BTreeMap;

/// One normalized trace event, format-independent.
#[derive(Clone, Debug, PartialEq)]
enum Ev {
    Span {
        name: String,
        run: u64,
        ts: u64,
        dur: u64,
        args: Vec<(String, u64)>,
    },
    Instant {
        name: String,
        run: u64,
        ts: u64,
        args: Vec<(String, u64)>,
    },
    Counter {
        name: String,
        run: u64,
        ts: u64,
        value: u64,
    },
}

impl Ev {
    fn run(&self) -> u64 {
        match self {
            Ev::Span { run, .. } | Ev::Instant { run, .. } | Ev::Counter { run, .. } => *run,
        }
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

fn arg(args: &[(String, u64)], key: &str) -> Option<u64> {
    args.iter().find(|(k, _)| k == key).map(|&(_, v)| v)
}

/// Parse one JSONL line (a self-describing object with a `type` field).
fn parse_jsonl_event(obj: &Json, what: &str) -> Result<Ev, String> {
    let ty = string(obj, "type", what)?;
    let name = string(obj, "name", what)?;
    let run = num(obj, "run", what)?;
    let ts = num(obj, "ts", what)?;
    match ty.as_str() {
        "span" => Ok(Ev::Span {
            name,
            run,
            ts,
            dur: num(obj, "dur", what)?,
            args: args_of(obj, what)?,
        }),
        "instant" => Ok(Ev::Instant {
            name,
            run,
            ts,
            args: args_of(obj, what)?,
        }),
        "counter" => Ok(Ev::Counter {
            name,
            run,
            ts,
            value: num(obj, "value", what)?,
        }),
        other => Err(format!("{what}: unknown event type \"{other}\"")),
    }
}

/// Parse one Chrome trace event (`ph` X/i/C; `tid` is run + 1).
fn parse_chrome_event(obj: &Json, what: &str) -> Result<Ev, String> {
    let ph = string(obj, "ph", what)?;
    let name = string(obj, "name", what)?;
    let tid = num(obj, "tid", what)?;
    if tid == 0 {
        return Err(format!("{what}: \"tid\" must be >= 1 (it encodes run + 1)"));
    }
    let run = tid - 1;
    let ts = num(obj, "ts", what)?;
    match ph.as_str() {
        "X" => Ok(Ev::Span {
            name,
            run,
            ts,
            dur: num(obj, "dur", what)?,
            args: args_of(obj, what)?,
        }),
        "i" => Ok(Ev::Instant {
            name,
            run,
            ts,
            args: args_of(obj, what)?,
        }),
        "C" => {
            let args = args_of(obj, what)?;
            let value =
                arg(&args, "value").ok_or_else(|| format!("{what}: counter without args.value"))?;
            Ok(Ev::Counter {
                name,
                run,
                ts,
                value,
            })
        }
        other => Err(format!("{what}: unknown phase \"{other}\"")),
    }
}

/// Normalize a trace file of either format into event order.
fn parse_events(text: &str) -> Result<Vec<Ev>, String> {
    let head = text.trim_start();
    if head.is_empty() {
        return Err("empty trace file".into());
    }
    // The Chrome sink always opens with the `traceEvents` envelope; the
    // JSONL sink writes one bare event object per line.
    if head.starts_with("{\"traceEvents\"") {
        let doc = Json::parse(text).map_err(|e| format!("Chrome trace: {e}"))?;
        let events = field(&doc, "traceEvents", "Chrome trace")?
            .as_arr()
            .ok_or_else(|| "Chrome trace: \"traceEvents\" is not an array".to_string())?;
        events
            .iter()
            .enumerate()
            .map(|(i, e)| parse_chrome_event(e, &format!("event {i}")))
            .collect()
    } else {
        text.lines()
            .enumerate()
            .filter(|(_, l)| !l.trim().is_empty())
            .map(|(i, l)| {
                let what = format!("line {}", i + 1);
                let obj = Json::parse(l).map_err(|e| format!("{what}: {e}"))?;
                parse_jsonl_event(&obj, &what)
            })
            .collect()
    }
}

/// Per-run aggregation for the breakdown table.
#[derive(Default)]
struct RunStats {
    steps: u64,
    ticks: u64,
    by_kind: [u64; 3], // prefill / decode / mixed, by span name
    other_spans: u64,
    prefill_rows: u64,
    decode_rows: u64,
    swapped_rows: u64,
    batch_ticks: u64, // Σ batch × dur, for the mean resident batch
    queue_samples: Vec<(u64, u64)>,
}

/// `a + b`, or an error naming the run and the sum that overflowed.
fn add(a: u64, b: Option<u64>, run: u64, sum: &str) -> Result<u64, String> {
    b.and_then(|b| a.checked_add(b))
        .ok_or_else(|| format!("run {run}: {sum} overflows u64"))
}

/// Time-weighted mean of a step-function counter: each sample holds until
/// the next sample's timestamp (the final sample carries no weight, so a
/// single-sample track reports its value directly). The samples are in
/// time order.
fn time_weighted_mean(samples: &[(u64, u64)], run: u64) -> Result<f64, String> {
    if samples.is_empty() {
        return Ok(0.0);
    }
    if samples.len() == 1 {
        return Ok(samples[0].1 as f64);
    }
    let (mut weighted, mut span) = (0u64, 0u64);
    for w in samples.windows(2) {
        let dt = w[1].0 - w[0].0;
        weighted = add(weighted, w[0].1.checked_mul(dt), run, "Σ queue_depth × dt")?;
        span += dt;
    }
    Ok(if span == 0 {
        samples.iter().map(|&(_, v)| v as f64).sum::<f64>() / samples.len() as f64
    } else {
        weighted as f64 / span as f64
    })
}

/// Replay a trace file (either sink format) into analysis tables:
/// per-kind span statistics, the merged step-duration histogram, the
/// admission timeline, and a per-run queue/occupancy breakdown.
///
/// # Errors
///
/// Returns a message naming the first malformed line or event; an empty
/// or event-less trace is an error too (the CLI maps all of these to a
/// nonzero exit).
pub fn analyze_trace(text: &str) -> Result<Vec<Table>, String> {
    let events = parse_events(text)?;
    if events.is_empty() {
        return Err("trace contains no events".into());
    }
    if !events.iter().any(|e| matches!(e, Ev::Span { .. })) {
        return Err("trace contains no spans".into());
    }

    // Per-kind span-duration histograms (deterministic, mergeable).
    let mut by_name: BTreeMap<String, Hist> = BTreeMap::new();
    let mut runs: BTreeMap<u64, RunStats> = BTreeMap::new();
    for e in &events {
        let run = e.run();
        let stats = runs.entry(run).or_default();
        match e {
            Ev::Span {
                name, dur, args, ..
            } => {
                by_name.entry(name.clone()).or_default().record(*dur);
                stats.steps += 1;
                match name.as_str() {
                    "Prefill" => stats.by_kind[0] += 1,
                    "Decode" => stats.by_kind[1] += 1,
                    "Mixed" => stats.by_kind[2] += 1,
                    _ => stats.other_spans += 1,
                }
                let rows = |key| Some(arg(args, key).unwrap_or(0));
                for (sum, term, what) in [
                    (&mut stats.ticks, Some(*dur), "Σ dur"),
                    (
                        &mut stats.prefill_rows,
                        rows("prefill_rows"),
                        "Σ prefill_rows",
                    ),
                    (&mut stats.decode_rows, rows("decode_rows"), "Σ decode_rows"),
                    (
                        &mut stats.swapped_rows,
                        rows("swapped_rows"),
                        "Σ swapped_rows",
                    ),
                    (
                        &mut stats.batch_ticks,
                        arg(args, "batch").unwrap_or(0).checked_mul(*dur),
                        "Σ batch × dur",
                    ),
                ] {
                    *sum = add(*sum, term, run, what)?;
                }
            }
            Ev::Counter {
                name, ts, value, ..
            } if name == "queue_depth" => {
                if let Some(&(prev, _)) =
                    stats.queue_samples.last().filter(|&&(prev, _)| *ts < prev)
                {
                    return Err(format!(
                        "run {run}: queue_depth sample at ts {ts} precedes ts {prev}"
                    ));
                }
                stats.queue_samples.push((*ts, *value));
            }
            _ => {}
        }
    }

    // Table 1: per-kind span statistics, quantiles from the histograms.
    let mut spans = Table::new(
        "span kinds",
        &["kind", "count", "ticks", "mean", "p50", "p99", "max"],
    );
    let mut merged = Hist::new();
    for (name, h) in &by_name {
        merged.merge(h);
        spans.row(vec![
            name.clone(),
            h.count().to_string(),
            (h.mean() * h.count() as f64).round().to_string(),
            f3(h.mean()),
            h.quantile(50.0).to_string(),
            h.quantile(99.0).to_string(),
            h.max().to_string(),
        ]);
    }
    spans.note("durations in virtual ticks; quantiles from log-bucketed histograms (≤3.2% high)");

    // Table 2: the merged step-duration distribution, bucket by bucket.
    let mut dist = Table::new("step duration distribution", &["ticks", "steps"]);
    for (lo, hi, count) in merged.nonzero_buckets() {
        let label = if hi - lo == 1 {
            lo.to_string()
        } else {
            format!("{lo}..{}", hi - 1)
        };
        dist.row(vec![label, count.to_string()]);
    }
    dist.note(format!(
        "{} steps across {} runs; fixed log-linear buckets, so offline merges reproduce live quantiles exactly",
        merged.count(),
        runs.len()
    ));

    // Table 3: per-session admission timeline.
    let mut timeline = Table::new(
        "session timeline",
        &["run", "tick", "request", "queue after admit"],
    );
    for e in &events {
        if let Ev::Instant {
            name,
            run,
            ts,
            args,
        } = e
        {
            if name == "admit" {
                timeline.row(vec![
                    run.to_string(),
                    ts.to_string(),
                    arg(args, "id").map_or("?".into(), |v| v.to_string()),
                    arg(args, "queue").map_or("?".into(), |v| v.to_string()),
                ]);
            }
        }
    }
    if timeline.rows.is_empty() {
        timeline.note("no admit instants in this trace");
    }

    // Table 4: per-run queue-depth / occupancy breakdown.
    let mut breakdown = Table::new(
        "run breakdown",
        &[
            "run",
            "steps",
            "ticks",
            "P/D/M",
            "prefill rows",
            "decode rows",
            "swapped rows",
            "mean batch",
            "queue mean",
            "queue peak",
        ],
    );
    for (run, s) in &runs {
        let mean_batch = if s.ticks == 0 {
            0.0
        } else {
            s.batch_ticks as f64 / s.ticks as f64
        };
        let peak = s.queue_samples.iter().map(|&(_, v)| v).max().unwrap_or(0);
        breakdown.row(vec![
            run.to_string(),
            s.steps.to_string(),
            s.ticks.to_string(),
            format!("{}/{}/{}", s.by_kind[0], s.by_kind[1], s.by_kind[2]),
            s.prefill_rows.to_string(),
            s.decode_rows.to_string(),
            s.swapped_rows.to_string(),
            f3(mean_batch),
            f3(time_weighted_mean(&s.queue_samples, *run)?),
            peak.to_string(),
        ]);
    }
    breakdown.note(
        "mean batch is Σ(batch×dur)/Σdur over spans; queue mean is time-weighted over queue_depth samples",
    );

    Ok(vec![spans, dist, timeline, breakdown])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn jsonl_fixture() -> String {
        [
            r#"{"type":"instant","name":"admit","run":0,"ts":0,"args":{"id":0,"queue":0}}"#,
            r#"{"type":"span","name":"Prefill","run":0,"ts":0,"dur":7,"args":{"queue":0,"batch":1,"prefill_rows":6,"decode_rows":0,"swapped_rows":0}}"#,
            r#"{"type":"counter","name":"queue_depth","run":0,"ts":7,"value":1}"#,
            r#"{"type":"span","name":"Decode","run":0,"ts":7,"dur":2,"args":{"queue":1,"batch":1,"prefill_rows":0,"decode_rows":1,"swapped_rows":0}}"#,
            r#"{"type":"counter","name":"queue_depth","run":0,"ts":9,"value":0}"#,
        ]
        .join("\n")
    }

    #[test]
    fn jsonl_round_trips_into_tables() {
        let tables = analyze_trace(&jsonl_fixture()).unwrap();
        assert_eq!(tables.len(), 4);
        let spans = &tables[0];
        assert_eq!(spans.title, "span kinds");
        assert_eq!(spans.rows.len(), 2, "Prefill and Decode rows");
        let rendered: String = tables.iter().map(|t| t.render()).collect();
        assert!(rendered.contains("Prefill"));
        assert!(rendered.contains("session timeline"));
        assert!(rendered.contains("run breakdown"));
    }

    #[test]
    fn chrome_and_jsonl_agree() {
        let chrome = concat!(
            "{\"traceEvents\":[\n",
            "{\"name\":\"admit\",\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":1,\"ts\":0,\"args\":{\"id\":0,\"queue\":0}},\n",
            "{\"name\":\"Prefill\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":0,\"dur\":7,\"args\":{\"queue\":0,\"batch\":1,\"prefill_rows\":6,\"decode_rows\":0,\"swapped_rows\":0}},\n",
            "{\"name\":\"queue_depth\",\"ph\":\"C\",\"pid\":1,\"tid\":1,\"ts\":7,\"args\":{\"value\":1}},\n",
            "{\"name\":\"Decode\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":7,\"dur\":2,\"args\":{\"queue\":1,\"batch\":1,\"prefill_rows\":0,\"decode_rows\":1,\"swapped_rows\":0}},\n",
            "{\"name\":\"queue_depth\",\"ph\":\"C\",\"pid\":1,\"tid\":1,\"ts\":9,\"args\":{\"value\":0}}\n",
            "]}\n"
        );
        let a = analyze_trace(chrome).unwrap();
        let b = analyze_trace(&jsonl_fixture()).unwrap();
        let render = |ts: &[Table]| ts.iter().map(|t| t.render()).collect::<String>();
        assert_eq!(render(&a), render(&b), "formats must analyze identically");
    }

    #[test]
    fn malformed_input_is_rejected_with_location() {
        let cases: [(&str, &str); 6] = [
            ("", "empty"),
            ("not json", "line 1"),
            (r#"{"type":"span","name":"x","run":0,"ts":0}"#, "dur"),
            (
                r#"{"type":"wat","name":"x","run":0,"ts":0}"#,
                "unknown event type",
            ),
            (
                "{\"traceEvents\":[{\"name\":\"x\",\"ph\":\"Z\",\"tid\":1,\"ts\":0}]}",
                "phase",
            ),
            (
                r#"{"type":"counter","name":"q","run":0,"ts":-3,"value":1}"#,
                "non-negative",
            ),
        ];
        for (text, needle) in cases {
            let err = analyze_trace(text).unwrap_err();
            assert!(
                err.contains(needle),
                "error {err:?} should mention {needle:?}"
            );
        }
    }

    #[test]
    fn counter_only_trace_is_an_error() {
        let err =
            analyze_trace(r#"{"type":"counter","name":"q","run":0,"ts":0,"value":1}"#).unwrap_err();
        assert!(err.contains("no spans"), "{err}");
    }

    #[test]
    fn time_weighted_mean_holds_samples_until_the_next() {
        assert_eq!(time_weighted_mean(&[], 0), Ok(0.0));
        assert_eq!(time_weighted_mean(&[(5, 3)], 0), Ok(3.0));
        // depth 2 for 10 ticks, then 0 for 10 → mean 1.
        assert_eq!(time_weighted_mean(&[(0, 2), (10, 0), (20, 0)], 0), Ok(1.0));
    }
}
