//! The step crew: row-panel parallelism over one `std::thread::scope` per
//! step (no external deps; DESIGN.md §5 keeps the workspace registry-free).
//!
//! The kernels parallelize over contiguous panels of *output rows*: every
//! output element is computed start-to-finish by exactly one thread, with a
//! fixed window order and a fixed fold order, so results are bit-identical
//! for every thread count — the determinism contract the tests pin.
//!
//! A [`Crew`] lives for one *step* — a `Transformer::forward_batch`, or one
//! direct [`crate::ExecPlan`] call — and [`Crew::run`] is the crate's one
//! spawn site. Its `size − 1` scoped workers are spawned when the step
//! opens and wait between GEMM phases at a yield-then-park barrier. A phase
//! is staged once by the calling thread (quantize, align, tier); then the
//! concatenated rows of its readers are cut into `size` contiguous parts,
//! each claimed and swept by whichever thread — caller or worker — takes it
//! first, building the part's tables one k-tile at a time. Workers cannot
//! borrow what the step creates after they are spawned, so everything they
//! read sits in slots the crew owns: the stage and reader list behind an
//! `RwLock`, one output panel per part behind a `Mutex`. The caller moves
//! the stage in, and the stage and panels back out when the phase is done.
//!
//! A caller's `threads` is only ever a *maximum*: it can change how fast a
//! step runs, never what it returns. [`crew_size`] lowers it from the
//! step's summed look-ups, so a worker is spawned only when its share
//! outweighs the spawn (DESIGN.md §6, "The step crew").

use crate::plan::{part_rows, scatter, sweep_rows, CallScratch, ExecPlan, Stage};
use crate::PackedBcq;
use figlut_num::Mat;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError, RwLock};
use std::thread::Thread;

/// Environment variable overriding the maximum worker count (`≥ 1`).
pub const THREADS_ENV: &str = "FIGLUT_EXEC_THREADS";

/// Summed table look-ups (output rows × bit-planes × windows × batch
/// columns, over every GEMM of a step) each extra worker must bring. A
/// worker takes half the step's sweep off the caller, so it pays when
/// `L/2 · c` exceeds its spawn: the worst measured spawn (108 µs) over the
/// best measured look-up cost (0.105 ns, a full 8-lane block) gives
/// 2.06 M, rounded to a power of two (derivation and measurements:
/// DESIGN.md §6, "The step crew").
const LOOKUPS_PER_WORKER: usize = 1 << 21;

/// Barrier polls — one `yield_now` each, ≈ 0.23 µs on the reference
/// container — a waiting worker makes before it parks: ≈ 0.5 ms, ten times
/// the longest serial gap between two GEMM phases of a `serve-wide` step
/// (GELU ≈ 42 µs a layer, LM head 45 µs; DESIGN.md §7), so no park and
/// unpark (40–300 µs on that VM) falls inside a step. Yielding rather than
/// spinning hands the core over when there are more threads than cores.
const POLLS_BEFORE_PARK: u32 = 2048;

/// The epoch a closed crew's workers read as "leave".
const CLOSED: usize = usize::MAX;

/// Threads a step of `lookups` summed look-ups runs on when the caller
/// allows at most `threads`: one more per 2²¹ look-ups (the worst measured
/// spawn over the best measured look-up cost, DESIGN.md §6), at least 1,
/// at most `threads`. Speed only — the results are bit-identical for every
/// value.
pub fn crew_size(lookups: usize, threads: usize) -> usize {
    (1 + lookups / LOOKUPS_PER_WORKER).min(threads).max(1)
}

/// Default maximum worker count: [`THREADS_ENV`] if set to a positive
/// integer (re-read on every call), else the machine's available
/// parallelism (read once per process — it parses cgroup files), else 1.
pub fn thread_count() -> usize {
    if let Ok(v) = std::env::var(THREADS_ENV) {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    static HOST: OnceLock<usize> = OnceLock::new();
    *HOST.get_or_init(|| {
        std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1)
    })
}

/// The threads of one step: the caller alone, or the caller and its
/// scoped workers. Handed to the body of [`Crew::run`];
/// GEMMs run on it through [`ExecPlan::exec_i_crew`].
pub struct Crew<'c, 'a> {
    team: Option<Team<'c, 'a>>,
}

/// The workers of a crew of more than one thread, and what they share.
struct Team<'c, 'a> {
    shared: &'c Shared<'a>,
    workers: Vec<Thread>,
}

/// The one GEMM phase in flight: its readers (output rows concatenated in
/// order), the stage they read, and their summed row count.
#[derive(Default)]
struct Job<'a> {
    readers: Vec<(&'a ExecPlan, &'a PackedBcq)>,
    stage: Stage,
    rows: usize,
}

/// The slots a crew's threads share for the whole step. The caller resets
/// `next` and `done` under the write lock and workers claim under the read
/// lock, so a claim always sees its own phase; `epoch` is published with
/// `Release` after the job is in place and read with `Acquire`, and each
/// part's `done` increment (`Release`) is read with `Acquire` before the
/// caller takes the panels back.
struct Shared<'a> {
    job: RwLock<Job<'a>>,
    /// One output panel per part, written by whichever thread claims it.
    panels: Vec<Mutex<Vec<f64>>>,
    /// Phases published so far; [`CLOSED`] once the step is over.
    epoch: AtomicUsize,
    /// The next unclaimed part of the current phase.
    next: AtomicUsize,
    /// Parts of the current phase finished (or abandoned by a panic).
    done: AtomicUsize,
}

/// Counts a claimed part as finished when dropped — on unwind too, so a
/// panicking worker cannot leave the caller waiting; the scope re-raises
/// the panic when the step ends.
struct Finish<'s>(&'s AtomicUsize);

impl Drop for Finish<'_> {
    fn drop(&mut self) {
        self.0.fetch_add(1, Ordering::Release);
    }
}

impl Shared<'_> {
    /// Claim and sweep parts of the current phase until none is left,
    /// building each part's tables tile by tile: every thread sweeps tables
    /// it wrote itself (DESIGN.md §6, "The step crew").
    fn claim(&self) {
        let job = self.job.read().unwrap_or_else(PoisonError::into_inner);
        let parts = self.panels.len();
        loop {
            let p = self.next.fetch_add(1, Ordering::Relaxed);
            if p >= parts {
                return;
            }
            let _finish = Finish(&self.done);
            let rows = part_rows(job.rows, parts, p);
            let readers = job.readers.iter().copied();
            sweep_rows(readers, &job.stage, rows, &mut lock(&self.panels[p]));
        }
    }

    /// A worker's life: wait for a phase, help sweep it, until closed.
    fn work(&self) {
        let mut seen = 0;
        loop {
            let mut polls = 0;
            loop {
                let epoch = self.epoch.load(Ordering::Acquire);
                if epoch != seen {
                    seen = epoch;
                    break;
                }
                if polls < POLLS_BEFORE_PARK {
                    polls += 1;
                    std::thread::yield_now();
                } else {
                    std::thread::park();
                }
            }
            if seen == CLOSED {
                return;
            }
            self.claim();
        }
    }
}

impl Drop for Team<'_, '_> {
    /// Close the step: the workers leave, and the scope joins them.
    fn drop(&mut self) {
        self.shared.epoch.store(CLOSED, Ordering::Release);
        self.workers.iter().for_each(Thread::unpark);
    }
}

impl<'a> Crew<'_, 'a> {
    /// Run `body` — one step — on a crew of `size` threads: the calling
    /// thread plus `size − 1` scoped workers spawned here, each entering
    /// the caller's trace session, and closed when `body` returns (or
    /// unwinds). `size ≤ 1` spawns nothing and opens no scope. Pick `size`
    /// with [`crew_size`].
    pub fn run<T>(size: usize, body: impl FnOnce(&Crew<'_, 'a>) -> T) -> T {
        if size <= 1 {
            return body(&Crew { team: None });
        }
        figlut_trace::counters::bump_exec_crews(1);
        let shared = Shared {
            job: RwLock::default(),
            panels: (0..size).map(|_| Mutex::default()).collect(),
            epoch: AtomicUsize::new(0),
            next: AtomicUsize::new(0),
            done: AtomicUsize::new(0),
        };
        // Membership in a trace session is per thread and never inherited.
        let session = figlut_trace::current();
        std::thread::scope(|s| {
            let workers = (1..size).map(|_| {
                let (shared, session) = (&shared, &session);
                let worker = s.spawn(move || {
                    let _scope = session.as_ref().map(figlut_trace::SessionHandle::enter);
                    shared.work();
                });
                worker.thread().clone()
            });
            let team = Team {
                shared: &shared,
                workers: workers.collect(),
            };
            // Dropped when `body` returns or unwinds, closing the step
            // before the scope joins the workers.
            let crew = Crew { team: Some(team) };
            body(&crew)
        })
    }

    /// One GEMM phase: sweep every reader over the stage in `s` and write
    /// their `batch × m` outputs. Alone, the caller sweeps all rows into
    /// its own scratch; with workers, the stage moves into the shared slot
    /// for the phase and every thread claims row parts until none is left.
    pub(crate) fn sweep(
        &self,
        readers: &mut [(&'a ExecPlan, &'a PackedBcq, &mut Mat<f64>)],
        s: &mut CallScratch,
    ) {
        let rows = readers.iter().map(|(plan, ..)| plan.rows()).sum();
        let batch = s.stage.batch();
        let Some(team) = &self.team else {
            let all = readers.iter().map(|&(plan, w, _)| (plan, w));
            sweep_rows(all, &s.stage, 0..rows, &mut s.yt);
            scatter(readers, 0..rows, batch, &s.yt);
            return;
        };
        let shared = team.shared;
        {
            let mut job = shared.job.write().unwrap_or_else(PoisonError::into_inner);
            job.readers.clear();
            job.readers
                .extend(readers.iter().map(|&(plan, w, _)| (plan, w)));
            job.rows = rows;
            std::mem::swap(&mut job.stage, &mut s.stage);
            shared.done.store(0, Ordering::Relaxed);
            shared.next.store(0, Ordering::Relaxed);
        }
        shared.epoch.fetch_add(1, Ordering::Release);
        team.workers.iter().for_each(Thread::unpark);
        shared.claim();
        let parts = shared.panels.len();
        while shared.done.load(Ordering::Acquire) < parts {
            std::thread::yield_now();
        }
        let mut job = shared.job.write().unwrap_or_else(PoisonError::into_inner);
        std::mem::swap(&mut job.stage, &mut s.stage);
        drop(job);
        for (p, panel) in shared.panels.iter().enumerate() {
            scatter(readers, part_rows(rows, parts, p), batch, &lock(panel));
        }
    }
}

/// Lock a panel. A poisoned lock is recovered: a panel holds no invariant
/// (the panic that poisoned it ends the step when the scope joins).
fn lock(panel: &Mutex<Vec<f64>>) -> MutexGuard<'_, Vec<f64>> {
    panel.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use figlut_gemm::EngineConfig;
    use figlut_quant::bcq::{BcqParams, BcqWeight};

    /// Three readers of 5, 8 and 3 rows over one 3 × 96 input.
    struct Fixture {
        weights: Vec<(PackedBcq, ExecPlan)>,
        x: Mat<f64>,
        cfg: EngineConfig,
    }

    impl Fixture {
        fn new() -> Self {
            let cfg = EngineConfig::paper_default();
            let weights = [5usize, 8, 3].map(|m| {
                let w = Mat::from_fn(m, 96, |r, c| ((r * 96 + c + m) as f64 * 0.17).sin());
                let p = PackedBcq::pack(&BcqWeight::quantize(&w, BcqParams::per_row(3)));
                let plan = ExecPlan::new(&p, &cfg);
                (p, plan)
            });
            let x = Mat::from_fn(3, 96, |b, c| ((b * 96 + c) as f64 * 0.05).cos());
            Self {
                weights: weights.into(),
                x,
                cfg,
            }
        }

        /// Look-ups of one phase over all three readers.
        fn lookups(&self) -> usize {
            self.weights.iter().map(|(_, plan)| plan.lookups(3)).sum()
        }

        /// A step of `phases` shared calls over all three readers on a
        /// crew of `size`: each phase's outputs.
        fn step(&self, size: usize, phases: usize) -> Vec<Vec<Mat<f64>>> {
            Crew::run(size, |crew| {
                let phase = || {
                    let mut outs: Vec<Mat<f64>> = (self.weights.iter())
                        .map(|(p, _)| Mat::from_fn(3, p.rows(), |_, _| f64::NAN))
                        .collect();
                    let mut readers: Vec<_> = (self.weights.iter().zip(&mut outs))
                        .map(|((p, plan), y)| (plan, p, y))
                        .collect();
                    ExecPlan::exec_i_crew(crew, &self.x, &self.cfg, &mut readers);
                    drop(readers);
                    outs
                };
                (0..phases).map(|_| phase()).collect()
            })
        }
    }

    /// The counters `f` leaves in a fresh trace session.
    fn traced<T>(f: impl FnOnce() -> T) -> (T, figlut_trace::Counters) {
        let guard = figlut_trace::install(Box::new(figlut_trace::CollectSink::new()));
        let out = f();
        let counters = figlut_trace::snapshot();
        guard.finish().unwrap();
        (out, counters)
    }

    #[test]
    fn panels_cover_every_row_once() {
        for rows in [0usize, 1, 2, 7, 23, 24] {
            for parts in [1usize, 2, 3, 7, 64] {
                let mut seen = vec![0u32; rows];
                for p in 0..parts {
                    let r = part_rows(rows, parts, p);
                    assert!(
                        r.is_empty() || r.start.is_multiple_of(2),
                        "a part starts on a row pair"
                    );
                    r.for_each(|i| seen[i] += 1);
                }
                assert!(seen.iter().all(|&n| n == 1), "rows={rows} parts={parts}");
            }
        }
    }

    #[test]
    fn strided_panels_split_on_row_boundaries() {
        // The readers' rows concatenate (5 + 8 + 3 = 16), so the parts
        // cut through readers: every split writes each output element
        // once, with the bits of the caller alone.
        let f = Fixture::new();
        let alone = f.step(1, 1).remove(0);
        assert!(alone
            .iter()
            .all(|y| y.as_slice().iter().all(|v| !v.is_nan())));
        for size in [2usize, 3, 7, 64] {
            assert_eq!(f.step(size, 1)[0], alone, "size={size}");
        }
    }

    #[test]
    fn empty_output_is_a_noop() {
        let f = Fixture::new();
        let (p, plan) = &f.weights[0];
        let mut y = Mat::zeros(0, p.rows());
        let empty = Mat::zeros(0, f.x.cols());
        let ((), c) = traced(|| {
            Crew::run(3, |crew| {
                ExecPlan::exec_i_crew(crew, &empty, &f.cfg, &mut [(plan, p, &mut y)]);
            })
        });
        assert_eq!((c.exec_calls, c.exec_lut_builds), (0, 0));
    }

    #[test]
    fn thread_count_is_positive() {
        assert!(thread_count() >= 1);
    }

    #[test]
    fn crew_size_weighs_summed_lookups_per_extra_worker() {
        const T: usize = LOOKUPS_PER_WORKER;
        assert_eq!(crew_size(0, 8), 1, "no work");
        assert_eq!(crew_size(T - 1, 8), 1, "below one worker's worth");
        assert_eq!(crew_size(T, 8), 2, "exactly one worker's worth");
        assert_eq!(crew_size(2 * T - 1, 8), 2, "a second worker too light");
        assert_eq!(crew_size(5 * T, 8), 6);
        assert_eq!(crew_size(usize::MAX, 8), 8, "threads is a maximum");
        assert_eq!(crew_size(usize::MAX, 1), 1);
        assert_eq!(crew_size(usize::MAX, 0), 1, "threads = 0 reads as 1");
    }

    #[test]
    fn one_panel_runs_on_the_calling_thread() {
        // A direct call below the rule: however many threads it may use,
        // its one panel is swept by the caller — no crew, no spawn.
        let f = Fixture::new();
        let (p, plan) = &f.weights[1];
        for threads in [2usize, 3] {
            assert_eq!(plan.fan_out(3, threads), 1);
            let (_, c) = traced(|| plan.exec_i_threads(&f.x, p, &f.cfg, threads));
            assert_eq!((c.exec_crews, c.exec_calls), (0, 1), "threads={threads}");
        }
    }

    #[test]
    fn a_step_below_the_rule_opens_no_scope() {
        // The step-level twin: a two-phase step whose summed look-ups
        // fall below one worker's worth runs every phase on the calling
        // thread, however many threads it may use, and spawns nothing.
        let f = Fixture::new();
        let size = crew_size(2 * f.lookups(), 64);
        assert_eq!(size, 1);
        let (_, c) = traced(|| f.step(size, 2));
        assert_eq!((c.exec_crews, c.exec_calls, c.exec_lut_builds), (0, 6, 2));
    }

    #[test]
    fn a_crew_runs_every_phase_of_its_step_inside_the_session() {
        // Two phases on one crew of three: one crew, one build per phase
        // and one call per reader, every streamed word counted — the
        // workers' sweeps included — and the bits of the caller alone.
        let f = Fixture::new();
        let alone = f.step(1, 1).remove(0);
        let (phases, c) = traced(|| f.step(3, 2));
        assert_eq!((c.exec_crews, c.exec_calls, c.exec_lut_builds), (1, 6, 2));
        let words: u64 = f
            .weights
            .iter()
            .map(|(_, plan)| plan.streamed_words(3))
            .sum();
        assert_eq!(c.exec_streamed_words, 2 * words);
        assert!(phases.iter().all(|outs| *outs == alone));
    }
}
