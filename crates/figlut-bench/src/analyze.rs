//! Offline trace analysis: replay an exported `figlut-trace` file into
//! distribution tables.
//!
//! The `repro analyze <trace>` subcommand reads a Chrome trace-event file
//! with [`figlut_trace::read_chrome_trace`] and folds its events into the
//! same exact [`Dist`] distributions the live report uses (DESIGN.md §9):
//! per-kind span statistics, a step-duration distribution with one row per
//! distinct duration, the per-session admission timeline, and a per-run
//! queue-depth/occupancy breakdown. Nothing is bucketed, so an offline
//! analysis of an exported trace reports the same nearest-rank quantiles
//! as the run that produced it — the trace file is a faithful, replayable
//! record, not a lossy log.
//!
//! Malformed input is a hard error (the CLI exits nonzero): every parse
//! failure names the first offending event.

use figlut_serve::Dist;
use figlut_trace::fmt::{f3, Table};
use figlut_trace::{read_chrome_trace, OwnedEvent};
use std::collections::BTreeMap;

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

/// Replay a Chrome trace file into analysis tables:
/// per-kind span statistics, the step-duration distribution, the
/// admission timeline, and a per-run queue/occupancy breakdown.
///
/// # Errors
///
/// Returns a message naming the first malformed event; an empty or
/// event-less trace is an error too (the CLI maps all of these to a
/// nonzero exit).
pub fn analyze_trace(text: &str) -> Result<Vec<Table>, String> {
    let events = read_chrome_trace(text)?;
    if events.is_empty() {
        return Err("trace contains no events".into());
    }
    if !events.iter().any(|e| matches!(e, OwnedEvent::Span { .. })) {
        return Err("trace contains no spans".into());
    }

    // Span durations per kind, and steps per distinct duration.
    let mut by_name: BTreeMap<String, Vec<u64>> = BTreeMap::new();
    let mut by_dur: BTreeMap<u64, u64> = BTreeMap::new();
    let mut runs: BTreeMap<u64, RunStats> = BTreeMap::new();
    for e in &events {
        let run = e.run();
        let stats = runs.entry(run).or_default();
        match e {
            OwnedEvent::Span { name, dur, .. } => {
                by_name.entry(name.clone()).or_default().push(*dur);
                *by_dur.entry(*dur).or_default() += 1;
                stats.steps += 1;
                match name.as_str() {
                    "Prefill" => stats.by_kind[0] += 1,
                    "Decode" => stats.by_kind[1] += 1,
                    "Mixed" => stats.by_kind[2] += 1,
                    _ => stats.other_spans += 1,
                }
                let rows = |key| Some(e.arg(key).unwrap_or(0));
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
                        e.arg("batch").unwrap_or(0).checked_mul(*dur),
                        "Σ batch × dur",
                    ),
                ] {
                    *sum = add(*sum, term, run, what)?;
                }
            }
            OwnedEvent::Counter {
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

    // Table 1: per-kind span statistics, exact nearest-rank quantiles.
    let mut spans = Table::new(
        "span kinds",
        &["kind", "count", "ticks", "mean", "p50", "p99", "max"],
    );
    for (name, durs) in by_name {
        let ticks: u128 = durs.iter().map(|&d| u128::from(d)).sum();
        let d = Dist::from_values(durs);
        spans.row(vec![
            name,
            d.count().to_string(),
            ticks.to_string(),
            f3(ticks as f64 / d.count() as f64),
            d.percentile(50.0).to_string(),
            d.percentile(99.0).to_string(),
            d.max().to_string(),
        ]);
    }
    spans.note("durations in virtual ticks; exact nearest-rank quantiles");

    // Table 2: the step-duration distribution, one row per distinct duration.
    let mut dist = Table::new("step duration distribution", &["ticks", "steps"]);
    for (dur, steps) in &by_dur {
        dist.row(vec![dur.to_string(), steps.to_string()]);
    }
    dist.note(format!(
        "{} steps across {} runs",
        by_dur.values().sum::<u64>(),
        runs.len()
    ));

    // Table 3: per-session admission timeline.
    let mut timeline = Table::new(
        "session timeline",
        &["run", "tick", "request", "queue after admit"],
    );
    for e in &events {
        if let OwnedEvent::Instant { name, run, ts, .. } = e {
            if name == "admit" {
                timeline.row(vec![
                    run.to_string(),
                    ts.to_string(),
                    e.arg("id").map_or("?".into(), |v| v.to_string()),
                    e.arg("queue").map_or("?".into(), |v| v.to_string()),
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

    const FIXTURE: &str = concat!(
        "{\"traceEvents\":[\n",
        "{\"name\":\"admit\",\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":1,\"ts\":0,\"args\":{\"id\":0,\"queue\":0}},\n",
        "{\"name\":\"Prefill\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":0,\"dur\":7,\"args\":{\"queue\":0,\"batch\":1,\"prefill_rows\":6,\"decode_rows\":0,\"swapped_rows\":0}},\n",
        "{\"name\":\"queue_depth\",\"ph\":\"C\",\"pid\":1,\"tid\":1,\"ts\":7,\"args\":{\"value\":1}},\n",
        "{\"name\":\"Decode\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":7,\"dur\":2,\"args\":{\"queue\":1,\"batch\":1,\"prefill_rows\":0,\"decode_rows\":1,\"swapped_rows\":0}},\n",
        "{\"name\":\"queue_depth\",\"ph\":\"C\",\"pid\":1,\"tid\":1,\"ts\":9,\"args\":{\"value\":0}}\n",
        "]}\n"
    );

    /// A one-event Chrome trace holding `event`.
    fn one(event: &str) -> String {
        format!("{{\"traceEvents\":[{event}]}}")
    }

    #[test]
    fn chrome_round_trips_into_tables() {
        let tables = analyze_trace(FIXTURE).unwrap();
        assert_eq!(tables.len(), 4);
        let spans = &tables[0];
        assert_eq!(spans.title, "span kinds");
        assert_eq!(spans.rows.len(), 2, "Prefill and Decode rows");
        let rendered: String = tables.iter().map(|t| t.render()).collect();
        assert!(rendered.contains("Prefill"));
        assert!(rendered.contains("session timeline"));
        assert!(rendered.contains("run breakdown"));
        assert_eq!(tables[2].rows, [["0", "0", "0", "0"]], "one admission");
    }

    #[test]
    fn durations_past_63_ticks_are_exact() {
        let tables = analyze_trace(&format!(
            "{{\"traceEvents\":[{},{}]}}",
            r#"{"name":"Decode","ph":"X","tid":1,"ts":0,"dur":66}"#,
            r#"{"name":"Decode","ph":"X","tid":1,"ts":66,"dur":100}"#,
        ))
        .unwrap();
        assert_eq!(tables[0].rows[0][4], "66", "p50");
        assert_eq!(tables[1].rows, [["66", "1"], ["100", "1"]]);
    }

    #[test]
    fn malformed_input_is_rejected_with_location() {
        let cases = [
            ("".to_string(), "empty"),
            ("not json".into(), "byte 0"),
            (
                one(r#"{"name":"x","ph":"X","tid":1,"ts":0}"#),
                "event 0: missing \"dur\"",
            ),
            (
                one(r#"{"name":"x","ph":"wat","tid":1,"ts":0}"#),
                "unknown phase",
            ),
            (one(r#"{"name":"x","ph":"Z","tid":1,"ts":0}"#), "phase"),
            (
                one(r#"{"name":"q","ph":"C","tid":1,"ts":-3,"args":{"value":1}}"#),
                "non-negative",
            ),
        ];
        for (text, needle) in cases {
            let err = analyze_trace(&text).unwrap_err();
            assert!(
                err.contains(needle),
                "error {err:?} should mention {needle:?}"
            );
        }
    }

    #[test]
    fn counter_only_trace_is_an_error() {
        let err = analyze_trace(&one(
            r#"{"name":"q","ph":"C","tid":1,"ts":0,"args":{"value":1}}"#,
        ))
        .unwrap_err();
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
