//! `compare A B`: judge output directory `B` against `A` with the bounds
//! `BENCHMARK.json` fixes — one row per workload and end-to-end metric,
//! every ratio with its base.

use crate::spec::{MetricSpec, Spec};
use crate::stats::rel_iqr;
use crate::WORKLOADS;
use figlut::trace::json::Json;
use std::path::Path;

/// Units whose metrics are counts or virtual-clock results: they repeat
/// exactly between runs of one commit on one host.
const EXACT_UNITS: [&str; 7] = ["count", "ticks", "tok/ktick", "nJ", "rows", "frac", "load"];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Better,
    WithinBound,
    Worse,
    /// The run-to-run spread exceeds the bound and the two sides' runs
    /// overlap: the data cannot tell.
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::WithinBound => "within-bound",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side of a comparison: the median and the runs behind it.
#[derive(Clone, Debug)]
pub struct Side {
    pub value: f64,
    pub runs: Vec<f64>,
}

/// Judge `b` against base `a` for metric `m`. Worsening is measured as a
/// share of the base. With at least four runs a side its spread is the
/// quartile distance over the median; `unresolved` needs a spread beyond
/// the bound *and* overlapping runs (if every run of one side beats every
/// run of the other, the direction is resolved whatever the spread).
pub fn verdict(m: &MetricSpec, a: &Side, b: &Side) -> Verdict {
    let bound = m.bound.unwrap_or(0.0);
    let sign = if m.higher_is_better { -1.0 } else { 1.0 };
    let worse_by = sign * (b.value - a.value) / a.value.abs();
    let spread = rel_iqr(&a.runs)
        .into_iter()
        .chain(rel_iqr(&b.runs))
        .fold(0.0, f64::max);
    let beats = |x: &Side, y: &Side| {
        x.runs
            .iter()
            .all(|&p| y.runs.iter().all(|&q| sign * (p - q) < 0.0))
    };
    let separated = beats(a, b) || beats(b, a);
    if spread > bound && !separated {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -spread.max(bound) {
        Verdict::Better
    } else {
        Verdict::WithinBound
    }
}

fn load(dir: &Path, workload: &str) -> Result<Json, String> {
    let path = dir.join(format!("{workload}.json"));
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn side(doc: &Json, group: &str, name: &str) -> Option<Side> {
    let m = doc.get(group)?.get(name)?;
    let value = m.get("value")?.as_num()?;
    let runs = match m.get("runs").and_then(Json::as_arr) {
        Some(runs) => runs.iter().filter_map(Json::as_num).collect(),
        None => vec![value],
    };
    Some(Side { value, runs })
}

/// Print the table; the exit code is non-zero when any row is `worse` or a
/// directory reports failed checks.
pub fn compare(a: &Path, b: &Path, spec: &Spec) -> Result<u8, String> {
    let mut worse = 0usize;
    let mut drifted = Vec::new();
    println!(
        "{:<18} {:<14} {:>14} {:>14} {:>9}  verdict (bound)",
        "workload", "metric", "A (base)", "B", "B/A"
    );
    for name in WORKLOADS {
        let (da, db) = (load(a, name)?, load(b, name)?);
        for m in &spec.end_to_end {
            let missing = |d: &Path| format!("{}: {name} lacks {}", d.display(), m.name);
            let sa = side(&da, "end_to_end", &m.name).ok_or_else(|| missing(a))?;
            let sb = side(&db, "end_to_end", &m.name).ok_or_else(|| missing(b))?;
            let v = verdict(m, &sa, &sb);
            worse += usize::from(v == Verdict::Worse);
            println!(
                "{name:<18} {:<14} {:>14.4} {:>14.4} {:>9.4}  {} ({:.0}%, {} vs {} runs, {})",
                m.name,
                sa.value,
                sb.value,
                sb.value / sa.value,
                v.name(),
                m.bound.unwrap_or(0.0) * 100.0,
                sa.runs.len(),
                sb.runs.len(),
                m.unit
            );
        }
        for m in spec
            .per_layer
            .iter()
            .filter(|m| EXACT_UNITS.contains(&m.unit.as_str()))
        {
            let (va, vb) = (
                side(&da, "per_layer", &m.name),
                side(&db, "per_layer", &m.name),
            );
            if va.as_ref().map(|s| s.value) != vb.as_ref().map(|s| s.value) {
                drifted.push(format!(
                    "{name} {}: {:?} -> {:?}",
                    m.name,
                    va.map(|s| s.value),
                    vb.map(|s| s.value)
                ));
            }
        }
        for (dir, doc) in [(a, &da), (b, &db)] {
            let failed = doc.get("failed").and_then(Json::as_num).unwrap_or(0.0);
            if failed > 0.0 {
                println!("{name}: {} reports {failed} failed checks", dir.display());
                worse += 1;
            }
        }
    }
    if drifted.is_empty() {
        println!("exact per-layer metrics (counts, ticks, energy): all equal");
    } else {
        println!("exact per-layer metrics that differ:");
        for d in &drifted {
            println!("  {d}");
        }
    }
    Ok(u8::from(worse > 0))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(higher: bool) -> MetricSpec {
        MetricSpec {
            name: "m".into(),
            unit: "u".into(),
            higher_is_better: higher,
            bound: Some(0.10),
        }
    }

    fn side(runs: &[f64]) -> Side {
        Side {
            value: crate::stats::median(runs),
            runs: runs.to_vec(),
        }
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let lower = metric(false);
        let a = side(&[100.0, 101.0, 99.0, 100.0]);
        assert_eq!(
            verdict(&lower, &a, &side(&[104.0, 105.0, 103.0, 104.0])),
            Verdict::WithinBound
        );
        assert_eq!(
            verdict(&lower, &a, &side(&[120.0, 121.0, 119.0, 120.0])),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&lower, &a, &side(&[80.0, 81.0, 79.0, 80.0])),
            Verdict::Better
        );
        // Higher-is-better flips the sign.
        let higher = metric(true);
        assert_eq!(
            verdict(&higher, &a, &side(&[80.0, 81.0, 79.0, 80.0])),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&higher, &a, &side(&[120.0, 121.0, 119.0, 120.0])),
            Verdict::Better
        );
        // Noisy and overlapping: cannot tell.
        let noisy = side(&[80.0, 130.0, 95.0, 125.0]);
        assert_eq!(verdict(&lower, &a, &noisy), Verdict::Unresolved);
        // Noisy but every run worse than every base run: resolved.
        let bad = side(&[150.0, 250.0, 160.0, 240.0]);
        assert_eq!(verdict(&lower, &a, &bad), Verdict::Worse);
        // Single runs carry no spread.
        assert_eq!(
            verdict(&lower, &side(&[100.0]), &side(&[111.0])),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&lower, &side(&[100.0]), &side(&[109.0])),
            Verdict::WithinBound
        );
    }
}
