#![forbid(unsafe_code)]
//! `repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! repro                          # run everything
//! repro fig16 table5             # run specific experiments
//! repro calibration              # cost-model calibration report
//! repro --out-dir /tmp/r fig16   # write CSVs somewhere else
//! repro --threads 2 ext-serving  # cap the exec kernels' worker count
//! repro --trace t.json ext-serving  # also write a Chrome trace
//! repro analyze t.json           # replay an exported trace offline
//! repro --list                   # list experiment ids
//! ```
//!
//! Output: aligned text tables on stdout, CSVs under `--out-dir` (default
//! `results/`, created if absent). `--threads N` sets the *maximum*
//! `figlut-exec` worker count for the throughput/serving experiments — a
//! step too small to repay a thread spawn uses fewer — and an explicit
//! `FIGLUT_EXEC_THREADS` environment variable still wins (results are
//! bit-identical for every value — thread count only moves the measured
//! rates).
//!
//! `--trace <path>` records the run through `figlut-trace` as Chrome
//! trace-event JSON (open in Perfetto / `chrome://tracing`; timestamps
//! are virtual serving ticks). The file is validated after the run and
//! the process fails if it is malformed. Tracing never changes the tables
//! or CSVs — the serving clock is virtual and the sink is a pure
//! observer.
//!
//! `repro analyze <trace>...` reads previously exported trace files and
//! replays them into distribution tables: per-kind span statistics, the
//! step-duration distribution, the admission timeline, and a per-run
//! queue/occupancy breakdown. Malformed input exits nonzero naming the
//! first bad event.

use figlut_bench::{analyze_trace, run, EXPERIMENTS};
use figlut_exec::parallel::THREADS_ENV;
use figlut_trace::{install, validate_chrome_trace, ChromeTraceSink};
use std::path::PathBuf;

fn main() {
    let mut out_dir = PathBuf::from("results");
    let mut ids: Vec<String> = Vec::new();
    let mut threads: Option<String> = None;
    let mut trace_path: Option<PathBuf> = None;
    // "Pinned" means the env holds a value thread_count() would actually
    // honor (same predicate); a garbage value must not eat the flag.
    let env_pinned =
        std::env::var(THREADS_ENV).is_ok_and(|v| v.trim().parse::<usize>().is_ok_and(|n| n >= 1));
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--list" => {
                for e in EXPERIMENTS {
                    println!("{e}");
                }
                println!("calibration");
                return;
            }
            "--out-dir" => {
                let Some(dir) = args.next() else {
                    eprintln!("error: --out-dir needs a directory argument");
                    std::process::exit(2);
                };
                out_dir = PathBuf::from(dir);
            }
            "--threads" => {
                let Some(n) = args.next() else {
                    eprintln!("error: --threads needs a positive integer argument");
                    std::process::exit(2);
                };
                if !n.parse::<usize>().is_ok_and(|v| v >= 1) {
                    eprintln!("error: --threads needs a positive integer, got '{n}'");
                    std::process::exit(2);
                }
                threads = Some(n);
            }
            "--trace" => {
                let Some(p) = args.next() else {
                    eprintln!("error: --trace needs a file path argument");
                    std::process::exit(2);
                };
                trace_path = Some(PathBuf::from(p));
            }
            other if other.starts_with('-') => {
                eprintln!(
                    "error: unknown flag '{other}' (try --list, --out-dir <dir>, \
                     --threads <n>, or --trace <path>)"
                );
                std::process::exit(2);
            }
            other => ids.push(other.to_string()),
        }
    }
    // `analyze` consumes the remaining positionals as trace files and
    // never runs experiments (so it also ignores --trace/--threads).
    if ids.first().is_some_and(|s| s == "analyze") {
        let paths = &ids[1..];
        if paths.is_empty() {
            eprintln!("error: analyze needs at least one trace file argument");
            std::process::exit(2);
        }
        for p in paths {
            let text = match std::fs::read_to_string(p) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("error: cannot read trace {p}: {e}");
                    std::process::exit(1);
                }
            };
            match analyze_trace(&text) {
                Ok(tables) => {
                    println!("analysis of {p}:");
                    for t in tables {
                        print!("{}", t.render());
                    }
                }
                Err(e) => {
                    eprintln!("error: malformed trace {p}: {e}");
                    std::process::exit(1);
                }
            }
        }
        return;
    }
    // Applied once after the parse (last --threads wins); an environment
    // override present at startup still takes precedence — the flag is a
    // convenience default, not a way to lie to a pinned run.
    if let (Some(n), false) = (&threads, env_pinned) {
        std::env::set_var(THREADS_ENV, n);
    }
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("error: cannot create {}: {e}", out_dir.display());
        std::process::exit(1);
    }
    // The trace is validated below after the sink closes.
    let guard = trace_path
        .as_deref()
        .map(|p| match ChromeTraceSink::create(p) {
            Ok(sink) => install(Box::new(sink)),
            Err(e) => {
                eprintln!("error: cannot create trace file {}: {e}", p.display());
                std::process::exit(1);
            }
        });
    let run_or_die = |id: &str| {
        if let Err(e) = run(id, &out_dir) {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    if ids.is_empty() {
        run_or_die("all");
        run_or_die("calibration");
    } else {
        for a in &ids {
            run_or_die(a);
        }
    }
    if let Some(guard) = guard {
        // audit: allow(panic) — guard is only Some when --trace supplied a path
        let path = trace_path.expect("guard implies path");
        if let Err(e) = guard.finish() {
            eprintln!("error: cannot finish trace {}: {e}", path.display());
            std::process::exit(1);
        }
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            eprintln!("error: cannot read back trace {}: {e}", path.display());
            std::process::exit(1);
        });
        match validate_chrome_trace(&text) {
            Ok(n) => println!(
                "\ntrace: {} ({n} events, Chrome trace JSON)",
                path.display()
            ),
            Err(e) => {
                eprintln!("error: malformed Chrome trace {}: {e}", path.display());
                std::process::exit(1);
            }
        }
    }
}
