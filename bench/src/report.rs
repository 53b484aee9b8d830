//! What a run produces: named metric values, the correctness gate's
//! tally, harness-recorded spans, and the result line the driver reads.

use crate::spec::MetricSpec;
use figlut::trace::json::escape;
use figlut::trace::{ChromeTraceSink, Event, TraceSink};
use std::time::Instant;

/// Metric values by name, in the order they were measured.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(String, f64)>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64) {
        debug_assert!(self.get(name).is_none(), "{name} set twice");
        self.0.push((name.to_owned(), value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    pub fn names(&self) -> impl Iterator<Item = &str> + '_ {
        self.0.iter().map(|(n, _)| n.as_str())
    }
}

/// Tally of the correctness gate. Every bit-identity comparison and every
/// timed operation whose output is verified counts as one attempted
/// operation; `fail_share` is `failed / attempted`.
#[derive(Debug, Default)]
pub struct Gate {
    pub attempted: u64,
    pub failed: u64,
    /// Description of the first few failures, for the operator.
    pub notes: Vec<String>,
}

impl Gate {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 8 {
                self.notes.push(what());
            }
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    pub fn fail_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// One interval recorded by the harness around its own call into a layer.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
}

/// In-memory span log of one run (written out when the run ends).
#[derive(Debug)]
pub struct Spans {
    base: Instant,
    /// Lane of the Chrome trace (one per workload).
    pub workload: u64,
    pub spans: Vec<Span>,
}

impl Spans {
    pub fn new(workload: u64) -> Self {
        Self {
            base: Instant::now(),
            workload,
            spans: Vec::new(),
        }
    }

    /// The instant this log's clock starts at (shared with the `WallSink`).
    pub fn base(&self) -> Instant {
        self.base
    }

    pub fn now_ns(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }

    /// Open a span now; returns its index for `close` and as a parent.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let t = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: t,
            end_ns: t,
            parent,
        });
        self.spans.len() - 1
    }

    /// Close span `id` now; returns its duration in seconds.
    pub fn close(&mut self, id: usize) -> f64 {
        self.spans[id].end_ns = self.now_ns();
        (self.spans[id].end_ns - self.spans[id].start_ns) as f64 / 1e9
    }

    /// Record an interval measured elsewhere (nanoseconds on this log's
    /// clock), e.g. a scheduler step stamped by the `WallSink`.
    pub fn push(&mut self, name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
        });
    }

    /// Run `f` inside a span; returns its result and duration in seconds.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let id = self.open(name, parent);
        let r = f();
        (r, self.close(id))
    }

    /// Median duration in seconds of `n` runs of `timed`, each its own span
    /// under one parent span `name`.
    pub fn sample(&mut self, name: &'static str, n: usize, mut timed: impl FnMut()) -> f64 {
        self.sample_with(name, n, || (), |()| timed())
    }

    /// [`Spans::sample`] with per-run state: `prepare` runs untimed before
    /// each run and hands its result to `timed`.
    pub fn sample_with<S>(
        &mut self,
        name: &'static str,
        n: usize,
        mut prepare: impl FnMut() -> S,
        mut timed: impl FnMut(S),
    ) -> f64 {
        let parent = self.open(name, None);
        let mut secs = Vec::with_capacity(n);
        for _ in 0..n {
            let state = prepare();
            let id = self.open(name, Some(parent));
            timed(state);
            secs.push(self.close(id));
        }
        self.close(parent);
        crate::stats::median(&secs)
    }

    /// The log as Chrome trace-event JSON (`ts`/`dur` in microseconds,
    /// `args.parent` = 1-based index of the enclosing event, 0 for none).
    pub fn chrome(&self) -> String {
        let mut order: Vec<usize> = (0..self.spans.len()).collect();
        order.sort_by_key(|&i| self.spans[i].start_ns);
        let mut place = vec![0u64; self.spans.len()];
        for (pos, &i) in order.iter().enumerate() {
            place[i] = pos as u64 + 1;
        }
        let mut sink = ChromeTraceSink::new(Box::new(std::io::sink()));
        for &i in &order {
            let s = &self.spans[i];
            sink.record(
                self.workload,
                &Event::Span {
                    name: s.name,
                    ts: s.start_ns / 1000,
                    dur: (s.end_ns - s.start_ns) / 1000,
                    args: &[("parent", s.parent.map_or(0, |p| place[p]))],
                },
            );
        }
        sink.render()
    }
}

/// The `"metrics"` object: every metric of `specs`, in order, from
/// `values`.
///
/// # Errors
///
/// Names a metric the registry lists but the run did not produce, or one
/// the run produced that the registry does not list.
pub fn metrics_object(specs: &[MetricSpec], values: &Metrics) -> Result<String, String> {
    if let Some(extra) = values.names().find(|n| !specs.iter().any(|m| m.name == *n)) {
        return Err(format!("metric {extra} is not listed in BENCHMARK.json"));
    }
    let mut fields = Vec::with_capacity(specs.len());
    for m in specs {
        let v = values
            .get(&m.name)
            .ok_or_else(|| format!("metric {} was not produced", m.name))?;
        if !v.is_finite() {
            return Err(format!("metric {} is not finite", m.name));
        }
        fields.push(format!(
            "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
            escape(&m.name),
            escape(&m.unit)
        ));
    }
    Ok(format!("{{{}}}", fields.join(", ")))
}

/// The one-line result object the benchmark contract asks for.
pub fn result_line(specs: &[MetricSpec], values: &Metrics, gate: &Gate) -> Result<String, String> {
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        gate.correct(),
        gate.attempted.max(1),
        gate.failed,
        metrics_object(specs, values)?
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Spec;
    use figlut::trace::json::Json;
    use figlut::trace::validate_chrome_trace;

    #[test]
    fn result_line_parses_and_rejects_drift() {
        let spec = Spec::load();
        let mut m = Metrics::default();
        for (i, s) in spec.end_to_end.iter().enumerate() {
            m.set(&s.name, 1.5 + i as f64);
        }
        let mut gate = Gate::default();
        gate.check(true, String::new);
        let line = result_line(&spec.end_to_end, &m, &gate).unwrap();
        let j = Json::parse(&line).unwrap();
        assert_eq!(j.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(j.get("attempted").and_then(Json::as_num), Some(1.0));
        let setup = j.get("metrics").and_then(|o| o.get("setup_s")).unwrap();
        assert_eq!(setup.get("unit").and_then(Json::as_str), Some("s"));
        assert!(setup.get("value").and_then(Json::as_num).is_some());

        m.set("not.in.registry", 1.0);
        assert!(result_line(&spec.end_to_end, &m, &gate)
            .unwrap_err()
            .contains("not listed"));
        assert!(result_line(&spec.end_to_end, &Metrics::default(), &gate)
            .unwrap_err()
            .contains("not produced"));
    }

    #[test]
    fn gate_counts_failures() {
        let mut g = Gate::default();
        g.check(true, String::new);
        g.check(false, || "row 3 diverged".into());
        assert!(!g.correct());
        assert_eq!((g.attempted, g.failed), (2, 1));
        assert_eq!(g.fail_share(), 0.5);
        assert_eq!(g.notes, ["row 3 diverged"]);
    }

    #[test]
    fn spans_nest_and_render_as_a_valid_chrome_trace() {
        let mut spans = Spans::new(2);
        let med = spans.sample("probe", 3, || {
            std::hint::black_box((0..1000u64).sum::<u64>());
        });
        assert!(med >= 0.0);
        assert_eq!(spans.spans.len(), 4);
        assert!(spans.spans[1..].iter().all(|s| s.parent == Some(0)));
        assert!(spans.spans[0].end_ns >= spans.spans[3].end_ns);
        assert_eq!(validate_chrome_trace(&spans.chrome()), Ok(4));
    }
}
