//! `repro analyze` round-trips: the committed sample Chrome trace and a
//! freshly exported one both replay into the analysis tables, and the
//! numbers reconcile against the `ServeReport` that produced them.

use figlut_bench::analyze_trace;
use figlut_model::{Backend, ModelConfig, Transformer};
use figlut_serve::{serve, BatchEngine, Policy, Scenario, ServeConfig};
use figlut_trace::{install, ChromeTraceSink, Event, TraceSink};
use std::io::Write;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::{Arc, Mutex};

/// A `Write` handle the test can read back after the sink is boxed away.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn committed_sample_chrome_trace_analyzes() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/ext_serving_trace.json");
    let text = std::fs::read_to_string(&path).expect("committed sample trace");
    let tables = analyze_trace(&text).expect("committed trace must analyze cleanly");
    assert_eq!(tables.len(), 4);
    let rendered: String = tables.iter().map(|t| t.render()).collect();
    for needle in [
        "span kinds",
        "step duration distribution",
        "session timeline",
        "run breakdown",
        "Prefill",
        "Decode",
    ] {
        assert!(rendered.contains(needle), "missing {needle:?}");
    }
    // Exact per-kind statistics, and one row per distinct step duration.
    assert_eq!(
        tables[0].rows,
        [
            ["Decode", "384", "1039", "2.706", "2", "8", "8"],
            ["Prefill", "80", "630", "7.875", "7", "11", "11"],
        ]
    );
    assert_eq!(
        tables[1].rows,
        [
            ["2", "297"],
            ["3", "14"],
            ["4", "11"],
            ["5", "51"],
            ["6", "15"],
            ["7", "29"],
            ["8", "17"],
            ["9", "5"],
            ["10", "15"],
            ["11", "10"],
        ],
        "one row per distinct step duration"
    );
    // The committed trace records ext-serving's 5 configs × 16 requests.
    let timeline = &tables[2];
    assert_eq!(timeline.title, "session timeline");
    assert_eq!(timeline.rows.len(), 5 * 16, "one admit row per admission");
    let breakdown = &tables[3];
    assert_eq!(breakdown.rows.len(), 5, "one breakdown row per run");
}

#[test]
fn exported_trace_reconciles_with_the_live_report() {
    let model = Transformer::teacher(ModelConfig::tiny(), 21);
    let engine = BatchEngine::new(&model, Backend::Exact);
    let trace = Scenario::Bursty.trace(&model.cfg, 8, 3.0, 17);

    let buf = SharedBuf::default();
    let sink = ChromeTraceSink::new(Box::new(buf.clone()));
    let guard = install(Box::new(sink));
    let report = serve(
        &engine,
        &trace,
        &ServeConfig::new(3, Policy::PrefillPriority).with_prefill_chunk(4),
    );
    guard.finish().unwrap();

    let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
    let tables = analyze_trace(&text).expect("a freshly exported trace must analyze");
    // Span rows across kinds must sum to the report's step count, and the
    // timeline must list every admission.
    let spans = &tables[0];
    let span_count: u64 = spans
        .rows
        .iter()
        .map(|r| r[1].parse::<u64>().unwrap())
        .sum();
    assert_eq!(span_count, report.steps.len() as u64);
    let total_ticks: u64 = spans
        .rows
        .iter()
        .map(|r| r[2].parse::<u64>().unwrap())
        .sum();
    let cost_sum: u64 = report.steps.iter().map(|s| s.cost).sum();
    assert_eq!(
        total_ticks, cost_sum,
        "span ticks reconcile with step costs"
    );
    assert_eq!(tables[2].rows.len(), report.requests.len());
    // No per-kind p99 can exceed the longest step the report recorded.
    let max_cost = report.steps.iter().map(|s| s.cost).max().unwrap();
    let p99: u64 = spans
        .rows
        .iter()
        .map(|r| r[5].parse::<u64>().unwrap())
        .max()
        .unwrap();
    assert!(p99 <= max_cost, "per-kind p99 cannot exceed the global max");
}

#[test]
fn malformed_trace_is_an_error() {
    assert!(analyze_trace("").is_err());
    assert!(analyze_trace("[package]\nname = \"not-a-trace\"").is_err());
    assert!(analyze_trace("{\"traceEvents\":[{\"name\":1}]}").is_err());
}

/// A Chrome span of run 0 with the given `dur` and `args` body.
fn span(ts: u64, dur: &str, args: &str) -> String {
    format!(
        r#"{{"name":"Decode","ph":"X","pid":1,"tid":1,"ts":{ts},"dur":{dur},"args":{{{args}}}}}"#
    )
}

/// A Chrome trace document holding `events`.
fn doc(events: &[String]) -> String {
    format!("{{\"traceEvents\":[\n{}\n]}}\n", events.join(",\n"))
}

#[test]
fn queue_depth_sample_going_back_in_time_is_an_error() {
    let text = doc(&[
        span(0, "4", r#""batch":1"#),
        r#"{"name":"queue_depth","ph":"C","pid":1,"tid":1,"ts":9,"args":{"value":1}}"#.into(),
        r#"{"name":"queue_depth","ph":"C","pid":1,"tid":1,"ts":3,"args":{"value":2}}"#.into(),
    ]);
    let err = analyze_trace(&text).unwrap_err();
    assert_eq!(err, "run 0: queue_depth sample at ts 3 precedes ts 9");
}

#[test]
fn batch_times_dur_overflow_is_an_error() {
    // 2^53 · 2^53: both factors are exact JSON integers, their product is not a u64.
    let text = doc(&[span(0, "9007199254740992", r#""batch":9007199254740992"#)]);
    let err = analyze_trace(&text).unwrap_err();
    assert!(err.contains("Σ batch × dur overflows"), "{err}");
}

#[test]
fn summed_dur_overflow_is_an_error() {
    // 2048 spans of 2^53 ticks each sum to 2^64.
    let spans: Vec<String> = (0..2048)
        .map(|ts| span(ts, "9007199254740992", r#""batch":1"#))
        .collect();
    let err = analyze_trace(&doc(&spans)).unwrap_err();
    assert_eq!(err, "run 0: Σ dur overflows u64");
}

#[test]
fn number_past_2_pow_53_is_an_error() {
    // 2^53 + 2 is the next integer an f64 holds; 1e30 is past u64::MAX.
    for (dur, shown) in [
        ("9007199254740994", "9007199254740994"),
        ("1e30", "1000000000000000000000000000000"),
    ] {
        let err = analyze_trace(&doc(&[span(0, dur, r#""batch":1"#)])).unwrap_err();
        let want = format!(
            "\"dur\" = {shown} exceeds 2^53, the largest integer a JSON number holds exactly"
        );
        assert!(err.ends_with(&want), "{err}");
    }
    let err = analyze_trace(&doc(&[span(0, "4", r#""batch":1e17"#)])).unwrap_err();
    assert!(
        err.contains("\"batch\" = 100000000000000000 exceeds 2^53"),
        "{err}"
    );
    assert!(analyze_trace(&doc(&[span(0, "9007199254740992", r#""batch":1"#)])).is_ok());
}

#[test]
fn fractional_or_negative_arg_is_an_error() {
    let err = analyze_trace(&doc(&[span(0, "4", r#""batch":-7.5"#)])).unwrap_err();
    assert!(
        err.contains("\"batch\" = -7.5 is not a non-negative integer"),
        "{err}"
    );
    let err = analyze_trace(&doc(&[span(0, "4", r#""decode_rows":0.5"#)])).unwrap_err();
    assert!(err.contains("\"decode_rows\" = 0.5"), "{err}");
}

#[test]
fn every_truncation_of_a_rendered_trace_is_an_error_not_a_panic() {
    let mut sink = ChromeTraceSink::new(Box::new(std::io::sink()));
    for step in 0..4 {
        let ts = 10 * step;
        sink.record(
            0,
            &Event::Instant {
                name: "admit",
                ts,
                args: &[("id", step), ("queue", 1)],
            },
        );
        sink.record(
            0,
            &Event::Span {
                name: "Decode",
                ts,
                dur: 10,
                args: &[("batch", 2), ("decode_rows", 2)],
            },
        );
        sink.record(
            0,
            &Event::Counter {
                name: "queue_depth",
                ts: ts + 10,
                value: step,
            },
        );
    }
    let text = sink.render();
    assert!((900..1200).contains(&text.len()), "{} bytes", text.len());
    assert!(analyze_trace(&text).is_ok());
    // Any cut short of the closing brace leaves an unterminated document.
    let whole = text.trim_end().len();
    for (cut, _) in text.char_indices().take_while(|&(i, _)| i < whole) {
        let r = catch_unwind(AssertUnwindSafe(|| analyze_trace(&text[..cut]).is_err()));
        assert_eq!(r.ok(), Some(true), "cut at {cut} panicked or analyzed");
    }
}
