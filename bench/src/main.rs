//! `figlut-perf` — the repository's benchmark (see `README.md` beside this
//! crate and `BENCHMARK.json` at the repository root).
//!
//! ```text
//! figlut-perf run --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//! figlut-perf run --all [--seed <n>] [--seconds <s>] [--runs <n>] [--quick] --out <dir>
//! figlut-perf compare <dir-a> <dir-b>
//! figlut-perf list
//! ```
//!
//! The first form is what the benchmark driver calls: one workload, one
//! process, the last line of standard output one JSON object. The second
//! runs every workload that way in child processes (so peak memory is per
//! workload) and writes `<dir>/<workload>.json`, `<dir>/<workload>.trace.json`
//! and the combined `<dir>/BENCH.json` snapshot.

mod compare;
mod gemm;
mod host;
mod probe;
mod report;
mod serve;
mod spec;
mod stats;
mod wallsink;

use report::{Gate, Metrics};
use spec::Spec;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

/// The workloads, in registry order (`spec` tests pin this against
/// `BENCHMARK.json`).
pub const WORKLOADS: [&str; 4] = ["gemm-b1", "gemm-b8", "serve-wide", "serve-tiny-paged"];

/// Seed used when none is given; seed 7 is held out (never used while
/// tuning the harness or a change).
const DEFAULT_SEED: u64 = 4242;

/// Settings of one run.
#[derive(Clone, Copy, Debug)]
pub struct RunCfg {
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// `false`: end-to-end metrics, tracing off. `true`: the traced run
    /// and the layer probes.
    pub trace: bool,
    /// Samples behind each probe median.
    pub samples: usize,
    /// Index of the workload (the Chrome trace lane).
    pub lane: u64,
}

/// What a run hands back.
pub struct Outcome {
    pub metrics: Metrics,
    pub gate: Gate,
    /// Harness spans as Chrome trace JSON (traced runs only).
    pub chrome: Option<String>,
}

/// Report as 0 every per-layer metric starting with one of `prefixes` that
/// this workload does not exercise (a layer that did no work spent no time
/// and counted nothing).
pub fn zero_absent(m: &mut Metrics, prefixes: &[&str]) {
    for spec in Spec::load().per_layer {
        if prefixes.iter().any(|p| spec.name.starts_with(p)) && m.get(&spec.name).is_none() {
            m.set(&spec.name, 0.0);
        }
    }
}

/// Process exit code for a finished run: non-zero when any check failed.
pub fn exit_code(gate: &Gate) -> u8 {
    u8::from(!gate.correct())
}

fn run_workload(name: &str, cfg: &RunCfg) -> Option<Outcome> {
    Some(match name {
        "gemm-b1" => gemm::run(&gemm::GemmDef::opt_1_3b(1), cfg),
        "gemm-b8" => gemm::run(&gemm::GemmDef::opt_1_3b(8), cfg),
        "serve-wide" => serve::run(&serve::ServeDef::wide(), cfg),
        "serve-tiny-paged" => serve::run(&serve::ServeDef::tiny_paged(), cfg),
        _ => return None,
    })
}

/// Command-line options after the subcommand.
#[derive(Debug, Default)]
struct Opts {
    workload: Option<String>,
    all: bool,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: bool,
    runs: usize,
    quick: bool,
    out: Option<PathBuf>,
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        runs: 1,
        ..Opts::default()
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        let bad = |v: &str| format!("{flag}: cannot read \"{v}\"");
        match flag.as_str() {
            "--all" => o.all = true,
            "--quick" => o.quick = true,
            "--workload" => o.workload = Some(value()?.to_owned()),
            "--out" => o.out = Some(PathBuf::from(value()?)),
            "--seed" => o.seed = Some(value().and_then(|v| v.parse().map_err(|_| bad(v)))?),
            "--runs" => o.runs = value().and_then(|v| v.parse().map_err(|_| bad(v)))?,
            "--seconds" => {
                let v = value()?;
                let s: f64 = v.parse().map_err(|_| bad(v))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(bad(v));
                }
                o.seconds = Some(s);
            }
            "--trace" => {
                o.trace = match value()? {
                    "0" => false,
                    "1" => true,
                    v => return Err(bad(v)),
                }
            }
            other => return Err(format!("unknown option {other}")),
        }
    }
    if o.runs == 0 {
        return Err("--runs must be at least 1".into());
    }
    Ok(o)
}

/// `run --workload`: one workload in this process.
fn run_one(name: &str, o: &Opts, spec: &Spec) -> Result<u8, String> {
    let lane = WORKLOADS
        .iter()
        .position(|w| *w == name)
        .ok_or_else(|| format!("unknown workload {name}; try `figlut-perf list`"))?;
    let cfg = RunCfg {
        seed: o.seed.unwrap_or(DEFAULT_SEED),
        seconds: o.seconds.unwrap_or(spec.run_seconds),
        trace: o.trace,
        samples: if o.quick { 3 } else { 15 },
        lane: lane as u64,
    };
    let out = run_workload(name, &cfg).expect("the name was checked above");
    let specs = spec.reported(cfg.trace);
    // Build the line first: a drifted registry must not print a result.
    let line = report::result_line(specs, &out.metrics, &out.gate)?;
    if let Some(chrome) = &out.chrome {
        let events = figlut::trace::validate_chrome_trace(chrome)
            .map_err(|e| format!("harness spans are not a valid Chrome trace: {e}"))?;
        println!("# {events} harness spans");
        if let Some(dir) = &o.out {
            let path = dir.join(format!("{name}.trace.json"));
            std::fs::create_dir_all(dir)
                .and_then(|()| std::fs::write(&path, chrome))
                .map_err(|e| format!("{}: {e}", path.display()))?;
        }
    }
    for note in &out.gate.notes {
        println!("# FAILED: {note}");
    }
    println!(
        "{name} seed {} ({}): fail_share = {} ({} of {} checks failed)",
        cfg.seed,
        if cfg.trace {
            "traced run and layer probes"
        } else {
            "tracing off"
        },
        out.gate.fail_share(),
        out.gate.failed,
        out.gate.attempted
    );
    for m in specs {
        let v = out.metrics.get(&m.name).expect("result_line checked it");
        println!("  {:<28} = {v:>16.4} {}", m.name, m.unit);
    }
    println!("{line}");
    Ok(exit_code(&out.gate))
}

/// Run this executable on one workload in a child process and parse the
/// result line it ends with.
fn child(name: &str, o: &Opts, seconds: f64, trace: bool) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["run", "--workload", name])
        .args(["--seed", &o.seed.unwrap_or(DEFAULT_SEED).to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if o.quick {
        cmd.arg("--quick");
    }
    if let (true, Some(dir)) = (trace, &o.out) {
        cmd.arg("--out").arg(dir);
    }
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the child run: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    print!("{text}");
    let line = text.lines().rev().find(|l| !l.trim().is_empty());
    let json = line
        .ok_or_else(|| format!("{name}: the child printed nothing"))
        .and_then(|l| figlut::trace::json::Json::parse(l).map_err(|e| format!("{name}: {e}")))?;
    Ok(ChildResult {
        json,
        ok: out.status.success(),
    })
}

struct ChildResult {
    json: figlut::trace::json::Json,
    ok: bool,
}

impl ChildResult {
    fn number(&self, key: &str) -> f64 {
        self.json
            .get(key)
            .and_then(figlut::trace::json::Json::as_num)
            .unwrap_or(0.0)
    }

    fn metric(&self, name: &str) -> Option<f64> {
        self.json.get("metrics")?.get(name)?.get("value")?.as_num()
    }
}

/// `run --all`: every workload, `--runs` end-to-end runs and one traced run
/// each, in child processes; writes the per-workload files and `BENCH.json`.
fn run_all(o: &Opts, spec: &Spec) -> Result<u8, String> {
    let dir = o.out.as_deref().ok_or("run --all needs --out <dir>")?;
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let seconds = o
        .seconds
        .unwrap_or(if o.quick { 1.0 } else { spec.run_seconds });
    let seed = o.seed.unwrap_or(DEFAULT_SEED);
    let mut failed = false;
    let mut docs = Vec::new();
    for name in WORKLOADS {
        let mut runs: Vec<ChildResult> = Vec::new();
        for _ in 0..o.runs {
            runs.push(child(name, o, seconds, false)?);
        }
        let traced = child(name, o, seconds, true)?;
        let (mut attempted, mut bad) = (traced.number("attempted"), traced.number("failed"));
        for r in &runs {
            attempted += r.number("attempted");
            bad += r.number("failed");
        }
        failed |= bad > 0.0 || !traced.ok || runs.iter().any(|r| !r.ok);

        let mut e2e = Vec::new();
        for m in &spec.end_to_end {
            let values: Vec<f64> = runs.iter().filter_map(|r| r.metric(&m.name)).collect();
            let list: Vec<String> = values.iter().map(f64::to_string).collect();
            e2e.push(format!(
                "    \"{}\": {{\"unit\": \"{}\", \"value\": {}, \"runs\": [{}]}}",
                m.name,
                m.unit,
                stats::median(&values),
                list.join(", ")
            ));
        }
        let mut layers = Vec::new();
        for m in &spec.per_layer {
            let v = traced
                .metric(&m.name)
                .ok_or_else(|| format!("{name}: traced run lacks {}", m.name))?;
            layers.push(format!(
                "    \"{}\": {{\"unit\": \"{}\", \"value\": {v}}}",
                m.name, m.unit
            ));
        }
        let doc = format!(
            "{{\n  \"workload\": \"{name}\", \"seed\": {seed}, \"seconds\": {seconds}, \
             \"attempted\": {attempted}, \"failed\": {bad}, \"fail_share\": {},\n  \
             \"end_to_end\": {{\n{}\n  }},\n  \"per_layer\": {{\n{}\n  }}\n}}",
            bad / attempted.max(1.0),
            e2e.join(",\n"),
            layers.join(",\n")
        );
        write(&dir.join(format!("{name}.json")), &format!("{doc}\n"))?;
        docs.push(format!("\"{name}\": {doc}"));
    }
    let bench = format!(
        "{{\n\"seed\": {seed}, \"seconds\": {seconds}, \"runs\": {},\n\"host\": {{{}}},\n\
         \"workloads\": {{\n{}\n}}\n}}\n",
        o.runs,
        host::fingerprint_fields(),
        docs.join(",\n")
    );
    write(&dir.join("BENCH.json"), &bench)?;
    println!("wrote {}", dir.join("BENCH.json").display());
    Ok(u8::from(failed))
}

fn write(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

fn dispatch(args: &[String]) -> Result<u8, String> {
    let spec = Spec::load();
    match args.first().map(String::as_str) {
        Some("run") => {
            let o = parse_opts(&args[1..])?;
            match (&o.workload, o.all) {
                (Some(name), false) => run_one(name, &o, &spec),
                (None, true) => run_all(&o, &spec),
                _ => Err("run needs exactly one of --workload <name> and --all".into()),
            }
        }
        Some("compare") => match &args[1..] {
            [a, b] => compare::compare(Path::new(a), Path::new(b), &spec),
            _ => Err("compare needs two output directories".into()),
        },
        Some("list") => {
            print!("{}", spec.render());
            Ok(0)
        }
        _ => Err("usage: figlut-perf run|compare|list (see bench/README.md)".into()),
    }
}

fn main() -> ExitCode {
    // Serving runs at the library's own default worker count.
    std::env::remove_var(figlut::exec::parallel::THREADS_ENV);
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(code) => ExitCode::from(code),
        Err(e) => {
            eprintln!("figlut-perf: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(args: &[&str]) -> Result<Opts, String> {
        parse_opts(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn the_drivers_arguments_parse() {
        let o = opts(&[
            "--workload",
            "gemm-b1",
            "--seed",
            "7",
            "--seconds",
            "20",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(o.workload.as_deref(), Some("gemm-b1"));
        assert_eq!((o.seed, o.seconds, o.trace), (Some(7), Some(20.0), true));
        assert!(opts(&["--trace", "2"]).is_err());
        assert!(opts(&["--seconds", "0"]).is_err());
        assert!(opts(&["--seed"]).is_err());
        assert!(opts(&["--frobnicate"]).is_err());
    }

    #[test]
    fn unknown_workloads_and_commands_are_errors_not_panics() {
        let spec = Spec::load();
        assert!(run_one("no-such", &opts(&[]).unwrap(), &spec).is_err());
        assert!(dispatch(&["run".into()]).is_err());
        assert!(dispatch(&["compare".into(), "a".into()]).is_err());
        assert!(dispatch(&[]).is_err());
    }

    #[test]
    fn absent_layers_read_zero() {
        let mut m = Metrics::default();
        m.set("serve.steps", 3.0);
        zero_absent(&mut m, &["serve.", "sim."]);
        assert_eq!(m.get("serve.steps"), Some(3.0));
        assert_eq!(m.get("serve.sheds"), Some(0.0));
        assert_eq!(m.get("sim.price_ms"), Some(0.0));
        assert_eq!(m.get("exec.calls"), None);
    }
}
