//! `BENCHMARK.json` is the one registry of workloads, metrics, units and
//! bounds. It is compiled in, every result is emitted by walking it, and a
//! run fails if the code produced a metric it does not list or missed one
//! it does — so the file and the code cannot drift.

use figlut::trace::json::Json;

/// The repository's `BENCHMARK.json`, as committed.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// One metric declaration.
#[derive(Clone, Debug)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Allowed worsening as a share of the base (end-to-end metrics only).
    pub bound: Option<f64>,
}

/// The parsed registry.
#[derive(Clone, Debug)]
pub struct Spec {
    pub run_seconds: f64,
    /// `(name, why)`.
    pub workloads: Vec<(String, String)>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

fn text(j: &Json, key: &str) -> Result<String, String> {
    j.get(key)
        .and_then(Json::as_str)
        .map(str::to_owned)
        .ok_or_else(|| format!("BENCHMARK.json: missing string \"{key}\""))
}

fn list<'a>(j: &'a Json, key: &str) -> Result<&'a [Json], String> {
    j.get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("BENCHMARK.json: missing array \"{key}\""))
}

fn metrics(j: &Json, key: &str) -> Result<Vec<MetricSpec>, String> {
    list(j, key)?
        .iter()
        .map(|m| {
            Ok(MetricSpec {
                name: text(m, "name")?,
                unit: text(m, "unit")?,
                higher_is_better: match text(m, "better")?.as_str() {
                    "higher" => true,
                    "lower" => false,
                    other => return Err(format!("BENCHMARK.json: better = \"{other}\"")),
                },
                bound: m.get("bound").and_then(Json::as_num),
            })
        })
        .collect()
}

impl Spec {
    /// Parse a registry document.
    fn parse(doc: &str) -> Result<Spec, String> {
        let j = Json::parse(doc)?;
        Ok(Spec {
            run_seconds: j
                .get("run_seconds")
                .and_then(Json::as_num)
                .ok_or("BENCHMARK.json: missing run_seconds")?,
            workloads: list(&j, "workloads")?
                .iter()
                .map(|w| Ok((text(w, "name")?, text(w, "why")?)))
                .collect::<Result<_, String>>()?,
            end_to_end: metrics(&j, "end_to_end")?,
            per_layer: metrics(&j, "per_layer")?,
        })
    }

    /// The compiled-in registry.
    ///
    /// # Panics
    ///
    /// Panics if the committed file is malformed (a build-time defect).
    pub fn load() -> Spec {
        Spec::parse(BENCHMARK_JSON).expect("committed BENCHMARK.json parses")
    }

    /// The metric list a run with `--trace <trace>` reports.
    pub fn reported(&self, trace: bool) -> &[MetricSpec] {
        if trace {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }

    /// `list`: workloads, metrics, units, directions and bounds.
    pub fn render(&self) -> String {
        let mut s = format!("run_seconds: {}\n\nworkloads:\n", self.run_seconds);
        for (name, why) in &self.workloads {
            s += &format!("  {name:<18} {why}\n");
        }
        for (title, ms) in [
            ("end-to-end", &self.end_to_end),
            ("per-layer", &self.per_layer),
        ] {
            s += &format!("\n{title} metrics:\n");
            for m in ms {
                let dir = if m.higher_is_better {
                    "higher"
                } else {
                    "lower"
                };
                let bound = m
                    .bound
                    .map(|b| format!("  bound {:.0}%", b * 100.0))
                    .unwrap_or_default();
                s += &format!("  {:<28} {:<10} {dir} is better{bound}\n", m.name, m.unit);
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_registry_meets_the_contract_limits() {
        let spec = Spec::load();
        assert_eq!(
            spec.workloads
                .iter()
                .map(|w| w.0.as_str())
                .collect::<Vec<_>>(),
            crate::WORKLOADS
        );
        assert!(spec
            .end_to_end
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && !m.higher_is_better));
        for m in &spec.end_to_end {
            let b = m.bound.expect("every end-to-end metric has a bound");
            assert!(b > 0.0 && b <= 0.25, "{}: bound {b}", m.name);
        }
        assert!(spec.per_layer.len() <= 128 && spec.per_layer.iter().all(|m| m.bound.is_none()));
        let mut names: Vec<&str> = spec
            .end_to_end
            .iter()
            .chain(&spec.per_layer)
            .map(|m| m.name.as_str())
            .chain(spec.workloads.iter().map(|w| w.0.as_str()))
            .collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        assert!(spec.workloads.iter().all(|w| w.1.len() <= 200));
    }
}
