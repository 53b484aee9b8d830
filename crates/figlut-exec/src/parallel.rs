//! The serve crew: row-panel parallelism over one `std::thread::scope` per
//! serve (no external deps; DESIGN.md §5 keeps the workspace registry-free).
//!
//! The kernels parallelize over contiguous parts of *output rows* (or of
//! units of them): every output element is computed start-to-finish by
//! exactly one thread, with a fixed window order and a fixed fold order,
//! so results are bit-identical for every thread count — the determinism
//! contract the tests pin.
//!
//! [`Crew::open`] is the crate's one spawn site. A crew lives as long as
//! its body: a whole `serve` (figlut-serve opens one per run), one
//! `Transformer::forward_batch`, one direct [`crate::ExecPlan`] call
//! ([`Crew::run`]), or one `Transformer::teacher` (row phases only). Its
//! `size − 1` scoped workers wait between phases — and between the
//! body's steps — at a yield-then-park barrier. Each
//! [`Crew::step`] runs on as many of them as its work repays
//! ([`step_width`]). A step is a sequence of phases:
//!
//! * a GEMM phase is staged once — its activation rows quantized, aligned
//!   and Σx-folded in parts, then concatenated and tiered by the caller —
//!   and then the concatenated rows of its readers are cut into one part
//!   per thread, each claimed and swept by whichever thread — caller or
//!   worker — takes it first, building the part's tables one k-tile at a
//!   time;
//! * a row phase cuts a [`RowWork`]'s units (LayerNorm rows, chunks of a
//!   GELU row, heads of an attention row, blocks of the LM head) into parts
//!   the same way.
//!
//! Workers cannot borrow what a step creates after they are spawned, so
//! everything they read sits in slots the crew owns: the phase behind an
//! `RwLock` — a copy of the activations to stage, the stage and reader
//! list of a GEMM sweep, the [`RowWork`] of a row phase — and one output
//! panel and one partial stage per part behind a `Mutex`. The
//! caller swaps its inputs in, and the inputs and panels back out when the
//! phase is done. A worker that panics mid-part fails the phase: the
//! caller re-raises it as soon as the phase ends, before it reads a panel.
//!
//! A caller's `threads` is only ever a *maximum*: it can change how fast a
//! step runs, never what it returns. [`crew_size`] (the workers a crew
//! opened for one step spawns) and [`step_width`] (the threads a step on an
//! open crew runs on) lower it from the step's summed look-ups, so a worker
//! joins a step only when its share outweighs spawning or waking it
//! (DESIGN.md §6, "The serve crew").

use crate::plan::{part_rows, scatter, sweep_rows, CallScratch, ExecPlan, Stage};
use crate::PackedBcq;
use figlut_gemm::EngineConfig;
use figlut_num::Mat;
use std::num::NonZeroUsize;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError, RwLock, RwLockWriteGuard};
use std::thread::Thread;

/// Environment variable overriding the maximum worker count (`≥ 1`).
pub const THREADS_ENV: &str = "FIGLUT_EXEC_THREADS";

/// Summed table look-ups (output rows × bit-planes × windows × batch
/// columns, over every GEMM of a step) each worker of a crew opened for
/// one step must bring. A worker takes half the step's sweep off the
/// caller, so it pays when `L/2 · c` exceeds its spawn: the worst measured
/// spawn (108 µs) over the best measured look-up cost (0.105 ns, a full
/// 8-lane block) gives 2.06 M, rounded to a power of two (DESIGN.md §6,
/// "The serve crew"). A live crew's further workers keep this price.
const LOOKUPS_PER_WORKER: usize = 1 << 21;

/// Summed look-ups from which a step on a crew that is already open — a
/// serve's — takes its first worker. The worker is already spawned: it
/// costs a wake (4.4 µs at p50, 18 µs at p99 from park, nothing while it
/// polls) and a hand-off per phase (≈ 1.5 µs, ≈ 14 phases in a two-layer
/// step), ≈ 25 µs, over the best measured look-up cost, doubled: 0.48 M,
/// rounded to a power of two. Measured on the reference container, a
/// second thread reads ×0.94 at 0.2 M and ×1.16 at 0.39 M (DESIGN.md §6).
const FIRST_WORKER: usize = 1 << 19;

/// Barrier polls — one `yield_now` each, ≈ 0.25 µs on the reference
/// container — a waiting worker makes before it parks: ≈ 0.5 ms, ten times
/// the longest serial gap between two phases of a `serve-wide` step, and
/// more than the caller's bookkeeping between two steps (≈ 20 µs,
/// DESIGN.md §7), so no park and wake (4–18 µs on that VM) falls inside a
/// busy serve. Yielding rather than spinning hands the core over when
/// there are more threads than cores.
const POLLS_BEFORE_PARK: u32 = 2048;

/// One-thread nanoseconds of work a staging or row phase must hold before
/// the crew cuts it into parts: a hand-off costs ≈ 1.5 µs on the reference
/// container, and a worker's part also moves its inputs and outputs
/// between the cores' caches, so a phase below ≈ 10 µs runs on the caller
/// (DESIGN.md §6, "The serve crew").
const PHASE_NS: usize = 10_000;

/// One-thread nanoseconds to stage one activation (quantize, align,
/// narrow, Σx): ≈ 7 ns measured.
const STAGE_NS: usize = 7;

/// The epoch a closed crew's workers read as "leave".
const CLOSED: usize = usize::MAX;

/// Threads a crew opened for one step of `lookups` summed look-ups spawns
/// when the caller allows at most `threads`: one more per 2²¹ look-ups
/// (a spawn over the best measured look-up cost, DESIGN.md §6), at least
/// 1, at most `threads`. Speed only — the results are bit-identical for
/// every value.
pub fn crew_size(lookups: usize, threads: usize) -> usize {
    (1 + lookups / LOOKUPS_PER_WORKER).min(threads).max(1)
}

/// Threads a step of `lookups` summed look-ups runs on when its crew is
/// already open — a serve's, or one [`crew_size`] opened for it: the
/// first worker joins from 2¹⁹ look-ups (a wake, not a spawn), further
/// ones at [`crew_size`]'s price; at most `threads`. Speed only.
pub fn step_width(lookups: usize, threads: usize) -> usize {
    if lookups < FIRST_WORKER {
        return 1;
    }
    crew_size(lookups, threads).max(2).min(threads.max(1))
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

/// Row-independent work a crew cuts into parts: a phase's units — output
/// rows, or blocks of them — each computed from its own inputs alone.
/// The crew hands it to its threads through a slot it owns, so a type
/// carries its inputs by value and reads only `&` data that outlives the
/// crew.
pub trait RowWork: Send + Sync {
    /// Units the phase is cut into parts over.
    fn units(&self) -> usize;

    /// Estimated one-thread nanoseconds of the whole phase: below
    /// `PHASE_NS` (10 µs) the caller computes it alone.
    fn cost_ns(&self) -> usize;

    /// Append the output of `units`, in unit order, to `out`: the parts'
    /// outputs concatenated in part order are the whole phase's, with the
    /// bits of one call over every unit.
    fn part(&self, units: Range<usize>, out: &mut Vec<f64>);
}

/// No row work: the crews of direct exec calls run GEMM phases only.
impl RowWork for () {
    fn units(&self) -> usize {
        0
    }

    fn cost_ns(&self) -> usize {
        0
    }

    fn part(&self, _: Range<usize>, _: &mut Vec<f64>) {}
}

/// Part `p` of `parts` near-equal contiguous parts of `units`.
fn unit_part(units: usize, parts: usize, p: usize) -> Range<usize> {
    units * p / parts..units * (p + 1) / parts
}

/// The threads of a crew that one step runs on: the caller alone, or the
/// caller and some of the crew's workers. Handed to the bodies of
/// [`Crew::open`] and [`Crew::step`]; GEMM phases run on it through
/// [`ExecPlan::exec_i_crew`], row phases through [`Crew::rows`].
pub struct Crew<'c, 'a, W = ()> {
    shared: Option<&'c Shared<'a, W>>,
    workers: &'c [Thread],
    /// Threads this view's phases run on (1 = the caller alone).
    parts: usize,
}

/// The one GEMM phase in flight: its readers (output rows concatenated in
/// order), the stage they read, and their summed row count; while it is
/// staged, a copy of its activations and the plan and config staging them.
#[derive(Default)]
struct Job<'a> {
    readers: Vec<(&'a ExecPlan, &'a PackedBcq)>,
    stage: Stage,
    rows: usize,
    x: Mat<f64>,
    stager: Option<(&'a ExecPlan, EngineConfig)>,
}

/// What the phase in flight is.
#[derive(Clone, Copy)]
enum Phase {
    /// Staging the activation rows of [`Slot::gemm`], one partial stage
    /// per part.
    Stage,
    /// The GEMM sweep of [`Slot::gemm`].
    Sweep,
    /// The units of [`Slot::rows`].
    Rows,
}

/// The phase in flight, cut into `parts` parts.
struct Slot<'a, W> {
    phase: Phase,
    parts: usize,
    gemm: Job<'a>,
    rows: W,
}

/// The slots a crew's threads share for the crew's life. The caller resets
/// `claimed` and `done` under the write lock and workers claim under the
/// read lock, so a claim always sees its own phase; `epoch` is published with
/// `Release` after the phase is in place and read with `Acquire`, and each
/// part's `done` increment (`Release`) is read with `Acquire` before the
/// caller takes the panels back.
struct Shared<'a, W> {
    slot: RwLock<Slot<'a, W>>,
    /// One output panel per part, written by whichever thread claims it.
    panels: Vec<Mutex<Vec<f64>>>,
    /// One partial stage per part, likewise.
    stages: Vec<Mutex<Stage>>,
    /// Phases published so far; [`CLOSED`] once the crew is over.
    epoch: AtomicUsize,
    /// Which parts of the current phase a thread has claimed.
    claimed: Vec<AtomicBool>,
    /// Parts of the current phase finished (or abandoned by a panic).
    done: AtomicUsize,
    /// A part of a phase panicked: the caller fails that phase.
    panicked: AtomicBool,
}

/// Counts a claimed part as finished when dropped — on unwind too, so a
/// panicking worker cannot leave the caller waiting — and flags the phase
/// failed if it unwinds.
struct Finish<'s>(&'s AtomicUsize, &'s AtomicBool);

impl Drop for Finish<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.1.store(true, Ordering::Relaxed);
        }
        self.0.fetch_add(1, Ordering::Release);
    }
}

impl<'a, W: RowWork> Shared<'a, W> {
    /// Claim and compute parts of the current phase until none is left:
    /// thread `me`'s own part `me` first (the caller's is part 0), then any
    /// other in order. A GEMM part builds its tables tile by tile, so every
    /// thread sweeps tables it wrote itself (DESIGN.md §6, "The serve
    /// crew").
    fn claim(&self, me: usize) {
        let slot = self.slot.read().unwrap_or_else(PoisonError::into_inner);
        let mine = (me < slot.parts).then_some(me);
        for p in mine.into_iter().chain(0..slot.parts) {
            if self.claimed[p].swap(true, Ordering::Relaxed) {
                continue;
            }
            let _finish = Finish(&self.done, &self.panicked);
            let panel = &mut lock(&self.panels[p]);
            match slot.phase {
                Phase::Stage => {
                    let (job, stage) = (&slot.gemm, &mut lock(&self.stages[p]));
                    let Some((plan, cfg)) = job.stager else {
                        continue;
                    };
                    stage.clear();
                    stage.stage_rows(&job.x, unit_part(job.x.rows(), slot.parts, p), &cfg, plan);
                }
                Phase::Sweep => {
                    let (job, rows) = (&slot.gemm, part_rows(slot.gemm.rows, slot.parts, p));
                    sweep_rows(job.readers.iter().copied(), &job.stage, rows, panel);
                }
                Phase::Rows => {
                    let units = unit_part(slot.rows.units(), slot.parts, p);
                    slot.rows.part(units, panel);
                }
            }
        }
    }

    /// Worker `me`'s life: wait for a phase, help compute it, until closed.
    fn work(&self, me: usize) {
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
            self.claim(me);
        }
    }

    /// Set up the next phase of `parts` parts with `set` under the write
    /// lock, publish it, and compute parts with the workers until every
    /// part is done. A part that panicked fails the phase here, on the
    /// caller, before any panel is read.
    fn phase(&self, workers: &[Thread], parts: usize, set: impl FnOnce(&mut Slot<'a, W>)) {
        {
            let mut slot = self.slot_mut();
            slot.parts = parts;
            set(&mut slot);
            self.done.store(0, Ordering::Relaxed);
            (self.claimed.iter()).for_each(|c| c.store(false, Ordering::Relaxed));
        }
        self.epoch.fetch_add(1, Ordering::Release);
        workers.iter().for_each(Thread::unpark);
        self.claim(0);
        while self.done.load(Ordering::Acquire) < parts {
            std::thread::yield_now();
        }
        assert!(
            !self.panicked.load(Ordering::Relaxed),
            "a crew worker panicked mid-phase"
        );
    }

    /// The slot, for the caller between phases.
    fn slot_mut(&self) -> RwLockWriteGuard<'_, Slot<'a, W>> {
        self.slot.write().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Closes a crew when its body returns or unwinds: the workers leave, and
/// the scope joins them.
struct Close<'s, 'a, W>(&'s Shared<'a, W>, &'s [Thread]);

impl<W> Drop for Close<'_, '_, W> {
    fn drop(&mut self) {
        self.0.epoch.store(CLOSED, Ordering::Release);
        self.1.iter().for_each(Thread::unpark);
    }
}

impl<'a> Crew<'_, 'a> {
    /// Run `body` — one step of GEMM phases — on a fresh crew of `size`
    /// threads: [`Crew::open`], then [`Crew::step`] at the full size.
    pub fn run<T>(size: usize, body: impl FnOnce(&Crew<'_, 'a>) -> T) -> T {
        Crew::open(size, |crew| crew.step(size, body))
    }
}

impl<'a, W: RowWork + Default> Crew<'_, 'a, W> {
    /// Run `body` on a crew of `size` threads: the calling thread plus
    /// `size − 1` scoped workers spawned here, each entering the caller's
    /// trace session, and closed when `body` returns (or unwinds, after
    /// which the scope re-raises). `size ≤ 1` spawns nothing and opens no
    /// scope. The body runs its steps with [`Crew::step`]; pick `size` with
    /// [`crew_size`] for the largest step the body can run.
    pub fn open<T>(size: usize, body: impl FnOnce(&Crew<'_, 'a, W>) -> T) -> T {
        if size <= 1 {
            return body(&Crew {
                shared: None,
                workers: &[],
                parts: 1,
            });
        }
        let shared = Shared {
            slot: RwLock::new(Slot {
                phase: Phase::Sweep,
                parts: 0,
                gemm: Job::default(),
                rows: W::default(),
            }),
            panels: (0..size).map(|_| Mutex::default()).collect(),
            stages: (0..size).map(|_| Mutex::default()).collect(),
            epoch: AtomicUsize::new(0),
            claimed: (0..size).map(|_| AtomicBool::new(false)).collect(),
            done: AtomicUsize::new(0),
            panicked: AtomicBool::new(false),
        };
        // Membership in a trace session is per thread and never inherited.
        let session = figlut_trace::current();
        std::thread::scope(|s| {
            let workers: Vec<Thread> = (1..size)
                .map(|me| {
                    let (shared, session) = (&shared, &session);
                    let worker = s.spawn(move || {
                        let _scope = session.as_ref().map(figlut_trace::SessionHandle::enter);
                        shared.work(me);
                    });
                    worker.thread().clone()
                })
                .collect();
            // Dropped when `body` returns or unwinds, closing the crew
            // before the scope joins the workers.
            let _close = Close(&shared, &workers);
            body(&Crew {
                shared: Some(&shared),
                workers: &workers,
                parts: size,
            })
        })
    }

    /// Run `body` — one step — on at most `size` of this crew's threads
    /// (the caller alone at `size ≤ 1`; pick it with [`crew_size`] of the
    /// step's look-ups). A step that runs on more than one thread counts
    /// in the `exec_crews` trace counter.
    pub fn step<T>(&self, size: usize, body: impl FnOnce(&Crew<'_, 'a, W>) -> T) -> T {
        let parts = size.clamp(1, self.parts);
        if parts > 1 {
            figlut_trace::counters::bump_exec_crews(1);
        }
        body(&Crew {
            shared: self.shared.filter(|_| parts > 1),
            workers: self.workers,
            parts,
        })
    }

    /// One row phase: `work`'s units cut into one part per thread, their
    /// outputs appended to `out` in unit order. Alone — or with a single
    /// unit, or below `PHASE_NS` of work — the caller computes every unit
    /// into `out` itself; with workers, `work` moves into the crew's slot
    /// for the phase and back, and so does `out`, as part 0's panel: the
    /// first part is appended in place and only the others are copied.
    pub fn rows(&self, work: &mut W, out: &mut Vec<f64>) {
        let units = work.units();
        let split = units > 1 && work.cost_ns() >= PHASE_NS;
        let Some(shared) = self.shared.filter(|_| split) else {
            work.part(0..units, out);
            return;
        };
        let parts = self.parts;
        let set = |slot: &mut Slot<'a, W>| {
            slot.phase = Phase::Rows;
            std::mem::swap(&mut slot.rows, work);
            (shared.panels[1..parts].iter()).for_each(|panel| lock(panel).clear());
        };
        std::mem::swap(&mut *lock(&shared.panels[0]), out);
        shared.phase(self.workers, parts, set);
        std::mem::swap(&mut *lock(&shared.panels[0]), out);
        std::mem::swap(&mut shared.slot_mut().rows, work);
        for panel in &shared.panels[1..parts] {
            out.extend_from_slice(&lock(panel));
        }
    }

    /// Stage the activations `x` of a GEMM phase into `stage` under
    /// `plan`. Alone — or for a single row, or below `PHASE_NS` of work —
    /// the caller stages every row;
    /// with workers, a copy of `x` moves into the crew's slot, each part's
    /// rows are staged into the part's own stage, and the caller
    /// concatenates them in order and picks the tier: the stage of one
    /// call over every row, bit for bit.
    pub(crate) fn stage(
        &self,
        x: &Mat<f64>,
        cfg: &EngineConfig,
        plan: &'a ExecPlan,
        stage: &mut Stage,
    ) {
        let split = x.rows() > 1 && x.rows() * x.cols() * STAGE_NS >= PHASE_NS;
        let Some(shared) = self.shared.filter(|_| split) else {
            stage.stage_i(x, cfg, plan);
            return;
        };
        let set = |slot: &mut Slot<'a, W>| {
            slot.phase = Phase::Stage;
            let job = &mut slot.gemm;
            let mut copy = std::mem::take(&mut job.x).into_vec();
            copy.clear();
            copy.extend_from_slice(x.as_slice());
            job.x = Mat::from_vec(x.rows(), x.cols(), copy);
            job.stager = Some((plan, *cfg));
        };
        shared.phase(self.workers, self.parts, set);
        stage.clear();
        for part in &shared.stages[..self.parts] {
            stage.append(&lock(part));
        }
        stage.seal(plan);
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
        let Some(shared) = self.shared else {
            let all = readers.iter().map(|&(plan, w, _)| (plan, w));
            sweep_rows(all, &s.stage, 0..rows, &mut s.yt);
            scatter(readers, 0..rows, batch, &s.yt);
            return;
        };
        let parts = self.parts;
        let set = |slot: &mut Slot<'a, W>| {
            slot.phase = Phase::Sweep;
            let job = &mut slot.gemm;
            job.readers.clear();
            job.readers
                .extend(readers.iter().map(|&(plan, w, _)| (plan, w)));
            job.rows = rows;
            std::mem::swap(&mut job.stage, &mut s.stage);
        };
        shared.phase(self.workers, parts, set);
        std::mem::swap(&mut shared.slot_mut().gemm.stage, &mut s.stage);
        for (p, panel) in shared.panels[..parts].iter().enumerate() {
            scatter(readers, part_rows(rows, parts, p), batch, &lock(panel));
        }
    }
}

/// Lock a part's panel or stage. A poisoned lock is recovered: neither
/// holds an invariant (a panic that poisoned it fails its phase before
/// the caller reads it).
fn lock<T>(part: &Mutex<T>) -> MutexGuard<'_, T> {
    part.lock().unwrap_or_else(PoisonError::into_inner)
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
    fn a_live_crew_takes_its_first_worker_from_a_wake_price() {
        const F: usize = FIRST_WORKER;
        const T: usize = LOOKUPS_PER_WORKER;
        assert_eq!(step_width(F - 1, 8), 1, "below a wake's worth");
        assert_eq!(
            step_width(F, 8),
            2,
            "the first worker is woken, not spawned"
        );
        assert_eq!(step_width(2 * T - 1, 8), 2);
        assert_eq!(step_width(5 * T, 8), crew_size(5 * T, 8), "further workers");
        assert_eq!(step_width(usize::MAX, 1), 1, "threads is a maximum");
        assert_eq!(step_width(usize::MAX, 0), 1, "threads = 0 reads as 1");
        for lookups in [0, F, T, 3 * T] {
            assert!(step_width(lookups, 8) >= crew_size(lookups, 8));
        }
    }

    #[test]
    fn one_panel_runs_on_the_calling_thread() {
        // A direct call below the rule: however many threads it may use,
        // its one panel is swept by the caller — no crew, no spawn.
        let f = Fixture::new();
        let (p, plan) = &f.weights[1];
        for threads in [2usize, 3] {
            assert_eq!(crew_size(plan.lookups(3), threads), 1);
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

    /// Row work for the crew's own tests: unit `u` is `[u, u²]`. With
    /// `boom` — the test injection point of a worker panic — every part
    /// but the first panics, and the first waits until another thread has
    /// claimed a part. The caller claims part 0 first, so it is the
    /// caller that waits, and a worker that panics.
    #[derive(Default)]
    struct Squares {
        units: usize,
        boom: bool,
        claimed: AtomicUsize,
    }

    impl RowWork for Squares {
        fn units(&self) -> usize {
            self.units
        }

        fn cost_ns(&self) -> usize {
            PHASE_NS
        }

        fn part(&self, units: Range<usize>, out: &mut Vec<f64>) {
            if self.boom {
                self.claimed.fetch_add(1, Ordering::SeqCst);
                if units.start > 0 {
                    panic!("injected worker panic");
                }
                while self.claimed.load(Ordering::SeqCst) < 2 {
                    std::thread::yield_now();
                }
            }
            out.extend(units.flat_map(|u| [u as f64, (u * u) as f64]));
        }
    }

    #[test]
    fn row_parts_concatenate_to_the_one_thread_output() {
        let want: Vec<f64> = (0..7usize)
            .flat_map(|u| [u as f64, (u * u) as f64])
            .collect();
        for size in [1usize, 2, 3, 8] {
            let got = Crew::open(size, |crew| {
                crew.step(size, |crew| {
                    let mut work = Squares {
                        units: 7,
                        ..Squares::default()
                    };
                    let mut out = Vec::new();
                    crew.rows(&mut work, &mut out);
                    assert_eq!(work.units, 7, "the work comes back out of the slot");
                    out
                })
            });
            assert_eq!(got, want, "size={size}");
        }
    }

    #[test]
    fn one_crew_serves_many_steps_at_their_own_widths() {
        // A crew opened once runs steps of width 1, 3 and 2: only the
        // steps on more than one thread count as crews, and every step
        // has the caller's bits.
        let f = Fixture::new();
        let alone = f.step(1, 1).remove(0);
        let (outs, c) = traced(|| {
            Crew::open(3, |crew: &Crew<'_, '_>| {
                let step = |width| {
                    crew.step(width, |crew| {
                        let mut outs: Vec<Mat<f64>> = (f.weights.iter())
                            .map(|(p, _)| Mat::zeros(3, p.rows()))
                            .collect();
                        let mut readers: Vec<_> = (f.weights.iter().zip(&mut outs))
                            .map(|((p, plan), y)| (plan, p, y))
                            .collect();
                        ExecPlan::exec_i_crew(crew, &f.x, &f.cfg, &mut readers);
                        drop(readers);
                        outs
                    })
                };
                [1, 3, 2].map(step)
            })
        });
        assert_eq!(c.exec_crews, 2);
        assert!(outs.iter().all(|o| *o == alone));
    }

    #[test]
    fn a_worker_panic_fails_its_phase_and_the_next_never_starts() {
        let second = AtomicBool::new(false);
        let run = || {
            Crew::open(2, |crew: &Crew<'_, '_, Squares>| {
                crew.step(2, |crew| {
                    let mut boom = Squares {
                        units: 2,
                        boom: true,
                        ..Squares::default()
                    };
                    crew.rows(&mut boom, &mut Vec::new());
                    second.store(true, Ordering::SeqCst);
                    let mut fine = Squares {
                        units: 2,
                        ..Squares::default()
                    };
                    crew.rows(&mut fine, &mut Vec::new());
                })
            })
        };
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(run))
            .expect_err("the worker's panic reaches the caller");
        let msg = (err.downcast_ref::<&str>().map(|s| s.to_string()))
            .or_else(|| err.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(msg.contains("panicked mid-phase"), "{msg:?}");
        assert!(!second.load(Ordering::SeqCst), "the second phase started");
    }
}
