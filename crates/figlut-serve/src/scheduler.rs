//! Admission, prefill/decode interleaving, and batch assembly on a
//! deterministic virtual clock.
//!
//! The serving loop is an event loop over *steps*, and advances the
//! virtual clock by a deterministic cost per step
//! ([`STEP_OVERHEAD`]` + token-rows processed`) — a linear stand-in for the
//! row-proportional GEMM time of both the packed host kernels and the
//! modeled accelerator at these memory-bound shapes. Because the clock is
//! virtual, every latency and throughput number is bit-reproducible across
//! hosts and runs; `ServeReport::workload` prices the very same step
//! sequence through `figlut-sim` when real energy numbers are wanted.
//!
//! There is one loop, and every step is one fused [`BatchEngine::step`]:
//! a set of decode rows plus the next rows of the one prompt in the
//! prefill slot. [`ServeConfig::prefill_chunk`] only sets how a step is
//! composed. With a budget `c` the scheduler packs **mixed steps** — every
//! running decode row plus up to `c` prompt rows — bounding each running
//! session's inter-token stall by `STEP_OVERHEAD + c + max_batch` ticks.
//! Without one, the budget is the whole prompt and a step that carries a
//! prefill carries no decode rows, so a long prompt stalls every running
//! decode for its full length (head-of-line blocking; the bound becomes
//! `STEP_OVERHEAD + prompt_len + max_batch`) — step for step the
//! pre-chunking scheduler, which the golden-trace test pins.
//!
//! Scheduling changes *when* sessions advance, never *what* they emit:
//! tokens are batch-invariant (see [`crate::engine`]), so policies and
//! chunk budgets are compared on latency/throughput alone with accuracy
//! provably fixed.

use crate::engine::{BatchEngine, FinishReason, SessionState};
use crate::metrics::{PagingStats, RequestMetrics, ResilienceStats, ServeReport, StepRecord};
use crate::request::{Request, Trace};
use figlut_model::rng::Rng;
use figlut_model::transformer::StepCrew;
use figlut_model::{BlockPool, PrefixImage, PrefixRegistry};
use figlut_trace::{counters, Event};
use std::collections::VecDeque;

/// Batch-assembly policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Policy {
    /// Static FCFS batching: fill the batch in arrival order up to
    /// `max_batch`, then run it to completion before admitting anyone else
    /// (the classic pre-continuous-batching baseline).
    Fcfs,
    /// Continuous batching, admission-eager: whenever a slot is free and a
    /// request is waiting, prefill it *now*; decode otherwise. Best TTFT
    /// and occupancy; running sessions stall during each prefill.
    PrefillPriority,
    /// Continuous batching, decode-eager: never delay a decode step while
    /// any session is running; admit only when the running set drains.
    /// Best per-token cadence for admitted sessions, worst admission under
    /// load.
    DecodePriority,
}

impl Policy {
    /// All policies, in display order.
    pub const ALL: [Policy; 3] = [
        Policy::Fcfs,
        Policy::PrefillPriority,
        Policy::DecodePriority,
    ];

    /// Short display name.
    pub fn name(&self) -> &'static str {
        match self {
            Policy::Fcfs => "fcfs-static",
            Policy::PrefillPriority => "prefill-priority",
            Policy::DecodePriority => "decode-priority",
        }
    }
}

/// When the scheduler sheds pending work instead of queueing it forever.
///
/// Applied to the pending queue every loop iteration, right after the
/// arrival drain. A shed request finishes immediately with
/// [`FinishReason::Shed`], zero tokens, and `admitted == first_token ==
/// finish` stamped at the shed tick — so overload degrades into an honest
/// rejection signal instead of unbounded queue delay eating every TTFT
/// (the `ext-overload` collapse). Shedding never touches admitted
/// sessions, so every served token stream stays bit-identical to its solo
/// run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AdmissionPolicy {
    /// Admit everything, however late (the default — byte-identical to the
    /// pre-admission-control scheduler).
    Unbounded,
    /// Shed newest-first whenever more than `depth` requests are pending.
    QueueCap {
        /// Maximum pending requests retained.
        depth: usize,
    },
    /// Token-budget backpressure: shed newest-first while the pending
    /// queue's committed token load (`prompt_len + max_new`, summed)
    /// exceeds `tokens`. The oldest pending request always survives, so
    /// one oversized request cannot wedge the queue.
    TokenBudget {
        /// Maximum committed prompt+generation tokens queued.
        tokens: usize,
    },
    /// SLO-aware shedding: drop any pending request whose time-to-first-
    /// token is already unattainable — `queue wait so far + rows that will
    /// run + STEP_OVERHEAD` is a lower bound on its TTFT no schedule can
    /// beat, so once that exceeds `ttft` the request is dead weight. Under
    /// paging, the rows that will run are `prompt_len − min(m,
    /// prompt_len − 1)` for the shared prefix `m` the request would adopt
    /// now; unpaged, the whole prompt.
    SloShed {
        /// The TTFT bound (ticks) being enforced.
        ttft: u64,
    },
}

impl AdmissionPolicy {
    /// Short display name (CSV/report key).
    pub fn name(&self) -> &'static str {
        match self {
            AdmissionPolicy::Unbounded => "unbounded",
            AdmissionPolicy::QueueCap { .. } => "queue-cap",
            AdmissionPolicy::TokenBudget { .. } => "token-budget",
            AdmissionPolicy::SloShed { .. } => "slo-shed",
        }
    }
}

/// Fixed virtual-clock cost added to every step, on top of one tick per
/// token-row processed (and charged alone for a retried step).
pub const STEP_OVERHEAD: u64 = 1;

/// Scheduler knobs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ServeConfig {
    /// Maximum sessions decoded per step (and held concurrently; a
    /// mid-prefill session occupies one of these slots).
    pub max_batch: usize,
    /// Batch-assembly policy.
    pub policy: Policy,
    /// Chunked-prefill budget. `None` (the default) runs each admitted
    /// prompt as one monolithic prefill step that stalls every running
    /// decode for the prompt's full length. `Some(c)` fuses prefill into
    /// **mixed steps**: every step carries all running decode rows plus up
    /// to `c` prompt rows of the oldest pending prompt, so no running
    /// session ever stalls longer than `STEP_OVERHEAD + c + max_batch`
    /// ticks. The emitted tokens are bit-identical either way; the sweet
    /// spot for the packed host kernels is a step whose rows fill whole
    /// 8-column lane blocks of the exec kernel.
    pub prefill_chunk: Option<usize>,
    /// Paged-KV block size. `None` (the default) gives each session a
    /// private one-block cache
    /// ([`Transformer::new_cache`](figlut_model::Transformer::new_cache)) and no memory
    /// management — the schedule pinned by the golden trace. `Some(b)`
    /// stores K/V in one shared pool's blocks of `b`
    /// positions behind a per-session block table, enabling shared-prefix
    /// storage and preempt/restore. The emitted tokens are bit-identical
    /// either way: paging changes where rows live, never what they hold.
    pub block_size: Option<usize>,
    /// Cap on simultaneously-live KV blocks (requires `block_size`).
    /// `None` leaves the pool unbounded. Under a cap the scheduler frees
    /// memory by evicting shared-prefix registry entries and then
    /// **preempting** sessions to host memory — never by finishing them —
    /// and restores them later with RNG and generated tokens intact.
    pub pool_blocks: Option<usize>,
    /// Admission control over the pending queue
    /// ([`AdmissionPolicy::Unbounded`] by default — every committed trace
    /// predates shedding and must stay byte-identical).
    pub admission: AdmissionPolicy,
}

impl ServeConfig {
    /// A configuration with monolithic (un-chunked) prefill and unmanaged
    /// KV (one private one-block cache per session).
    pub fn new(max_batch: usize, policy: Policy) -> Self {
        assert!(max_batch >= 1, "max_batch must be at least 1");
        Self {
            max_batch,
            policy,
            prefill_chunk: None,
            block_size: None,
            pool_blocks: None,
            admission: AdmissionPolicy::Unbounded,
        }
    }

    /// Enable chunked prefill with a per-step budget of `chunk` prompt
    /// rows.
    pub fn with_prefill_chunk(mut self, chunk: usize) -> Self {
        assert!(chunk >= 1, "prefill_chunk must be at least 1");
        self.prefill_chunk = Some(chunk);
        self
    }

    /// Enable paged KV with blocks of `block_size` positions.
    pub fn with_block_size(mut self, block_size: usize) -> Self {
        assert!(block_size >= 1, "block_size must be at least 1");
        self.block_size = Some(block_size);
        self
    }

    /// Cap the block pool at `pool_blocks` live blocks (paging must be
    /// on). The cap must hold at least one full-context session —
    /// [`serve`] validates this, so a single session can always run to its
    /// context limit no matter how the rest of the batch is preempted.
    pub fn with_pool_blocks(mut self, pool_blocks: usize) -> Self {
        self.pool_blocks = Some(pool_blocks);
        self
    }

    /// Set the admission policy over the pending queue.
    pub fn with_admission(mut self, admission: AdmissionPolicy) -> Self {
        self.admission = admission;
        self
    }
}

/// A deterministic, seeded schedule of injected faults, delivered through
/// [`ServeHooks::fault_plan`]. Every fault class draws from one seeded
/// [`Rng`] at defined scheduler points, so a given `(plan, trace, config)`
/// triple injects the identical fault sequence on every run — which is
/// what lets the property suite assert recovery is *exact* (served token
/// streams bit-identical to the fault-free run) rather than best-effort.
///
/// The plan carries a total fault `budget`; every injected fault consumes
/// one unit and an exhausted plan is quiet, so faulted runs provably
/// terminate (a retry loop cannot be re-failed forever).
///
/// Fault classes (each gated by a per-mille rate, default 0):
///
/// * **Transient step failure** — the scheduled step is abandoned before
///   executing; the scheduler charges [`STEP_OVERHEAD`] ticks and retries.
/// * **Swap-in failure** — a restore attempt is abandoned; the preempted
///   session stays queued and is retried on a later iteration.
/// * **Restore corruption** — the swap-in transfer silently flips one KV
///   bit. A run whose plan sets this rate builds its block pool with the
///   checksum pass on ([`BlockPool::with_checksums`]): the verify pass
///   detects the mismatch, the corrupted blocks are dropped, and the clean
///   host image is re-queued for another restore — the classic
///   detect-and-retransfer recovery.
/// * **Pool-exhaustion spike** — the newest running session is preempted
///   to host as if the pool had momentarily vanished; the existing
///   preempt/restore machinery recovers it. Requires paging.
/// * **Crash** — `panic!` immediately before executing a chosen step
///   index, for checkpoint/resume tests (see [`Checkpoint`]).
#[derive(Clone, Debug)]
pub struct FaultPlan {
    rng: Rng,
    budget: usize,
    step_fail_permille: u32,
    swap_in_fail_permille: u32,
    corrupt_restore_permille: u32,
    pool_spike_permille: u32,
    crash_at_step: Option<usize>,
}

impl FaultPlan {
    /// A quiet plan: seeded, budgeted, all fault rates zero.
    pub fn new(seed: u64, budget: usize) -> Self {
        Self {
            rng: Rng::new(seed),
            budget,
            step_fail_permille: 0,
            swap_in_fail_permille: 0,
            corrupt_restore_permille: 0,
            pool_spike_permille: 0,
            crash_at_step: None,
        }
    }

    /// Fail scheduled steps transiently at `permille`/1000.
    pub fn with_step_failures(mut self, permille: u32) -> Self {
        self.step_fail_permille = permille;
        self
    }

    /// Fail restore attempts at `permille`/1000.
    pub fn with_swap_in_failures(mut self, permille: u32) -> Self {
        self.swap_in_fail_permille = permille;
        self
    }

    /// Corrupt swap-in transfers at `permille`/1000 (a nonzero rate turns
    /// the run's block checksums on — see the type docs).
    pub fn with_restore_corruption(mut self, permille: u32) -> Self {
        self.corrupt_restore_permille = permille;
        self
    }

    /// Inject pool-exhaustion spikes at `permille`/1000 (paging only).
    pub fn with_pool_spikes(mut self, permille: u32) -> Self {
        self.pool_spike_permille = permille;
        self
    }

    /// Panic (a simulated crash) right before executing step `step`.
    pub fn with_crash_at_step(mut self, step: usize) -> Self {
        self.crash_at_step = Some(step);
        self
    }

    /// Injected faults left before the plan goes quiet.
    pub fn remaining_budget(&self) -> usize {
        self.budget
    }

    /// One fault decision at `permille`/1000, consuming budget on a hit.
    fn draw(&mut self, permille: u32) -> bool {
        if self.budget == 0 || permille == 0 {
            return false;
        }
        let hit = self.rng.below(1000) < permille as usize;
        if hit {
            self.budget -= 1;
        }
        hit
    }

    fn draw_step_failure(&mut self) -> bool {
        self.draw(self.step_fail_permille)
    }

    fn draw_swap_in_failure(&mut self) -> bool {
        self.draw(self.swap_in_fail_permille)
    }

    fn draw_pool_spike(&mut self) -> bool {
        self.draw(self.pool_spike_permille)
    }

    /// `Some(salt)` when a restore-corruption fault fires.
    fn draw_restore_corruption(&mut self) -> Option<u64> {
        self.draw(self.corrupt_restore_permille)
            .then(|| self.rng.next_u64())
    }

    fn crashes_at(&self, step: usize) -> bool {
        self.crash_at_step == Some(step)
    }
}

/// A crash-consistent snapshot of a serving run, captured by
/// [`ServeHooks::checkpoint`] at a step boundary (chunked runs: with no
/// prefill in flight) and resumable with [`resume`]. Sessions are stored
/// as host swap images when paging is on (resident clones otherwise, which
/// share their block until the live session's next write copies it),
/// the sampler RNGs and generated tokens ride inside the cloned
/// [`SessionState`]s, the shared-prefix registry rides as host images of
/// its entries, and the virtual clock, queues, finished metrics, and
/// executed steps are carried verbatim. A resumed run re-registers the
/// prefixes, so later admissions adopt (and skip) exactly what they would
/// have: it continues the exact schedule and emits byte-identical tokens,
/// with the final [`ServeReport`]'s requests, steps, and ticks reconciling
/// against the uninterrupted run on an unbounded pool. The resumed pool
/// holds private copies of what the crashed run shared, so its storage
/// accounting (pool peaks, shared rows) may differ, and under a pool cap
/// so may the preemptions and the schedule.
#[derive(Clone, Debug)]
pub struct Checkpoint {
    /// Virtual clock at capture.
    pub clock: u64,
    /// Requests that had not yet arrived, in trace order.
    pub arrivals: Vec<Request>,
    /// Arrived but unadmitted requests, queue order.
    pub pending: Vec<Request>,
    /// Live sessions: the running batch in order, then any preempted
    /// sessions in restore (FIFO) order. Paged sessions are host images.
    pub sessions: Vec<SessionState>,
    /// The shared-prefix registry's entries as host images, in
    /// registration order (empty when paging is off).
    pub prefixes: Vec<PrefixImage>,
    /// Requests already finished, with their metrics.
    pub finished: Vec<RequestMetrics>,
    /// Steps already executed.
    pub steps: Vec<StepRecord>,
    /// Peak resident KV rows so far.
    pub peak_kv_rows: usize,
    /// The FCFS seal flag at capture.
    pub sealed: bool,
    /// Resilience activity up to the capture.
    pub resilience: ResilienceStats,
}

/// Out-of-band instrumentation for [`serve_with_hooks`] — knobs that are
/// closures and therefore cannot live in the `Copy` [`ServeConfig`].
#[derive(Default)]
pub struct ServeHooks<'a> {
    /// Forced-preemption schedule for tests and experiments. Consulted at
    /// most once per step index, just before the step executes, with
    /// `(step_index, running request ids in batch order)`; every returned
    /// id that is currently running is swapped out to host memory before
    /// the step (unknown ids are ignored). Only consulted when paging is
    /// on ([`ServeConfig::block_size`]) — preemption needs a block pool to
    /// return to — and the preempted sessions are restored automatically
    /// as soon as a batch slot and pool capacity allow.
    #[allow(clippy::type_complexity)]
    pub force_preempt: Option<Box<dyn FnMut(usize, &[usize]) -> Vec<usize> + 'a>>,
    /// Deterministic fault injection (`None` = quiet run). See
    /// [`FaultPlan`] for the fault classes and their recovery paths.
    pub fault_plan: Option<FaultPlan>,
    /// Periodic checkpoint capture (`None` = never). See [`Checkpoint`].
    pub checkpoint: Option<CheckpointHook<'a>>,
}

/// Periodic checkpoint capture for [`ServeHooks::checkpoint`].
pub struct CheckpointHook<'a> {
    /// Capture cadence: a snapshot after every `every_steps` executed
    /// steps (chunked runs defer a due capture until no prefill is in
    /// flight). Must be at least 1.
    pub every_steps: usize,
    /// Receives each captured [`Checkpoint`] (e.g. pushes it into a log;
    /// [`resume`] takes the last one).
    pub sink: Box<dyn FnMut(Checkpoint) + 'a>,
}

/// KV-memory runtime of one serving run.
enum Memory {
    /// Paging off: each session's cache has a private, unbounded one-block
    /// pool, so allocation always succeeds and there is nothing to manage.
    /// This path is byte-for-byte the pre-paging scheduler.
    Unmanaged,
    /// Block-table paging: a (possibly bounded) [`BlockPool`], the
    /// shared-prefix registry, and the swapped-out session queue.
    Paged(Box<PagedRt>),
}

/// Mutable paging state threaded through the serving loop.
struct PagedRt {
    pool: BlockPool,
    registry: PrefixRegistry,
    /// Preempted sessions, oldest first — restored in FIFO order so no
    /// session is starved by later preemptions.
    swapped: VecDeque<SessionState>,
    /// Host<->device KV rows copied since the last executed step; drained
    /// into the next [`StepRecord::swapped_rows`] so `workload()` prices
    /// the traffic.
    pending_swap_rows: usize,
    swaps_out: usize,
    swaps_in: usize,
    swapped_rows_total: usize,
    shared_rows: usize,
}

impl Memory {
    /// The runtime `cfg` asks for ([`check_config`] has vetted it). The
    /// pool checksums its blocks exactly when `faults` can corrupt a
    /// restore — the one fault only the verify pass catches.
    fn new(engine: &BatchEngine<'_>, cfg: &ServeConfig, faults: Option<&FaultPlan>) -> Self {
        let Some(bs) = cfg.block_size else {
            return Memory::Unmanaged;
        };
        let pool = BlockPool::for_model(&engine.model().cfg, bs, cfg.pool_blocks)
            .with_checksums(faults.is_some_and(|f| f.corrupt_restore_permille > 0));
        let registry = PrefixRegistry::new(&pool);
        Memory::Paged(Box::new(PagedRt {
            pool,
            registry,
            swapped: VecDeque::new(),
            pending_swap_rows: 0,
            swaps_out: 0,
            swaps_in: 0,
            swapped_rows_total: 0,
            shared_rows: 0,
        }))
    }

    /// `true` when no session is swapped out (the loop may go idle).
    fn idle(&self) -> bool {
        match self {
            Memory::Unmanaged => true,
            Memory::Paged(rt) => rt.swapped.is_empty(),
        }
    }

    /// Open a session for `req`: a private one-block cache when unmanaged,
    /// a cache of the shared pool (adopting the longest registered shared
    /// prefix, whose rows the session's prefill then skips) when paging.
    fn start(&mut self, engine: &BatchEngine<'_>, req: Request) -> SessionState {
        match self {
            Memory::Unmanaged => engine.start(req),
            Memory::Paged(rt) => {
                let mut cache = engine.model().new_paged_cache(&rt.pool);
                rt.shared_rows += rt.registry.adopt_into(&req.prompt, &mut cache);
                engine.start_with_cache(req, cache)
            }
        }
    }

    /// Prompt rows a session started for `prompt` now would skip: the
    /// registry's would-adopt length, less the last row, which always runs
    /// (0 unpaged). Adopts nothing.
    fn skippable(&self, prompt: &[usize]) -> usize {
        match self {
            Memory::Unmanaged => 0,
            Memory::Paged(rt) => rt
                .registry
                .adoptable(prompt)
                .min(prompt.len().saturating_sub(1)),
        }
    }

    /// Offer a freshly-prefilled session's prompt to the prefix registry.
    fn register(&mut self, s: &SessionState) {
        if let Memory::Paged(rt) = self {
            rt.registry.register(&s.request.prompt, s.cache());
        }
    }

    /// Drain the swap traffic accumulated since the last executed step.
    fn take_pending(&mut self) -> usize {
        match self {
            Memory::Unmanaged => 0,
            Memory::Paged(rt) => std::mem::take(&mut rt.pending_swap_rows),
        }
    }
}

impl PagedRt {
    /// Swap `s` out to host memory and queue it for a later restore.
    fn preempt(&mut self, mut s: SessionState) {
        let rows = s.swap_out();
        self.pending_swap_rows += rows;
        self.swapped_rows_total += rows;
        self.swaps_out += 1;
        counters::bump_serve_preemptions(1);
        self.swapped.push_back(s);
    }

    /// Restore the oldest swapped-out session if the pool can hold its
    /// table again, evicting shared-prefix registry entries if that is
    /// what it takes (restores never preempt running sessions — that would
    /// thrash).
    fn try_restore(&mut self) -> Option<SessionState> {
        let need = self.swapped.front()?.restore_blocks();
        while self.pool.available_blocks() < need {
            if !self.registry.evict_oldest() {
                return None;
            }
        }
        // audit: allow(panic) — the `?` on swapped.front() above proves the queue is nonempty
        let mut s = self.swapped.pop_front().expect("front checked above");
        let rows = s.restore();
        self.pending_swap_rows += rows;
        self.swapped_rows_total += rows;
        self.swaps_in += 1;
        counters::bump_serve_restores(1);
        Some(s)
    }

    /// Free blocks until the upcoming step fits: `per_runner_rows` rows
    /// will be appended to every running session, plus whatever `extra`
    /// reports for the prefill side. Evicts registry entries oldest-first,
    /// then preempts running sessions newest-first (never below `floor`
    /// survivors), re-measuring after every release — a refcount drop can
    /// turn a planned copy-on-write into a plain in-place append.
    fn make_room<F: Fn() -> usize>(
        &mut self,
        running: &mut Vec<SessionState>,
        per_runner_rows: usize,
        extra: F,
        floor: usize,
    ) {
        loop {
            let need: usize = running
                .iter()
                .map(|s| s.blocks_needed(per_runner_rows))
                .sum::<usize>()
                + extra();
            if self.pool.available_blocks() >= need {
                return;
            }
            if self.registry.evict_oldest() {
                continue;
            }
            assert!(
                running.len() > floor,
                "block pool too small for the minimal step — \
                 pool_blocks must hold one full-context session"
            );
            // audit: allow(panic) — the assert above guarantees running.len() > floor >= 0
            let victim = running.pop().expect("floor checked above");
            self.preempt(victim);
        }
    }
}

/// Admission bookkeeping: stamp the session's admission tick (queue wait =
/// `admitted - arrival`), bump the trace counter, and emit an instant
/// event when a session is being traced.
fn note_admission(s: &mut SessionState, clock: u64, queue_after: usize) {
    s.admitted = clock;
    counters::bump_serve_admissions(1);
    if !figlut_trace::enabled() {
        return;
    }
    let args = [("id", s.request.id as u64), ("queue", queue_after as u64)];
    figlut_trace::emit(&Event::Instant {
        name: "admit",
        ts: figlut_trace::run_base() + clock,
        args: &args,
    });
}

/// Per-step trace hook, called with each executed step's record: one
/// span per executed scheduler step, stamped with its virtual start
/// tick and cost and carrying queue depth, batch occupancy, the phase row
/// split, and the paging activity since the previous step (`last_swaps`
/// carries the previous step's cumulative swap counts across calls).
fn trace_step(
    clock_after: u64,
    rec: &StepRecord,
    queue: usize,
    batch: usize,
    memory: &Memory,
    last_swaps: &mut (usize, usize),
) {
    counters::bump_serve_steps(1);
    if !figlut_trace::enabled() {
        return;
    }
    let (preempts, restores, live_blocks) = match memory {
        Memory::Unmanaged => (0, 0, 0),
        Memory::Paged(rt) => {
            let d = (rt.swaps_out - last_swaps.0, rt.swaps_in - last_swaps.1);
            *last_swaps = (rt.swaps_out, rt.swaps_in);
            (d.0, d.1, rt.pool.live_blocks())
        }
    };
    let ts = figlut_trace::run_base() + (clock_after - rec.cost);
    let args = [
        ("queue", queue as u64),
        ("batch", batch as u64),
        ("prefill_rows", rec.prefill_rows as u64),
        ("decode_rows", rec.decode_rows as u64),
        ("swapped_rows", rec.swapped_rows as u64),
        ("preempts", preempts as u64),
        ("restores", restores as u64),
        ("live_blocks", live_blocks as u64),
    ];
    figlut_trace::emit(&Event::Span {
        name: rec.kind().name(),
        ts,
        dur: rec.cost,
        args: &args,
    });
    figlut_trace::emit(&Event::Counter {
        name: "queue_depth",
        ts,
        value: queue as u64,
    });
}

/// Close a finished session into its metrics record. A session that
/// finished without emitting (a zero generation budget) gets
/// `first_token == finish` — well-defined, not a panic.
fn metrics_of(s: SessionState, reason: FinishReason, finish: u64) -> RequestMetrics {
    debug_assert_eq!(
        s.token_ticks.len(),
        s.generated.len(),
        "request {}: emission ticks out of sync with tokens",
        s.request.id
    );
    RequestMetrics {
        id: s.request.id,
        arrival: s.request.arrival,
        admitted: s.admitted,
        first_token: s.token_ticks.first().copied().unwrap_or(finish),
        finish,
        prompt_len: s.request.prompt.len(),
        skipped: s.skipped(),
        tokens: s.generated.len(),
        reason,
        generated: s.generated,
        token_ticks: s.token_ticks,
    }
}

/// Close a request that finished without any engine work — a zero-budget
/// admission or an admission-policy shed — into its metrics record:
/// `admitted == first_token == finish == tick`, zero tokens.
fn metrics_without_tokens(req: Request, reason: FinishReason, tick: u64) -> RequestMetrics {
    RequestMetrics {
        id: req.id,
        arrival: req.arrival,
        admitted: tick,
        first_token: tick,
        finish: tick,
        prompt_len: req.prompt.len(),
        skipped: 0,
        tokens: 0,
        reason,
        generated: Vec::new(),
        token_ticks: Vec::new(),
    }
}

/// Apply the admission policy to the pending queue (called right after
/// each arrival drain). Shed requests finish immediately with
/// [`FinishReason::Shed`]; [`AdmissionPolicy::Unbounded`] is a no-op, so
/// the default path is untouched. `memory` prices the prompt rows an
/// adopter would skip.
fn apply_admission(
    policy: AdmissionPolicy,
    pending: &mut VecDeque<Request>,
    clock: u64,
    memory: &Memory,
    finished: &mut Vec<RequestMetrics>,
    resilience: &mut ResilienceStats,
) {
    let mut shed: Vec<Request> = Vec::new();
    match policy {
        AdmissionPolicy::Unbounded => {}
        AdmissionPolicy::QueueCap { depth } => {
            while pending.len() > depth {
                // audit: allow(panic) — the loop condition pending.len() > depth proves nonempty
                shed.push(pending.pop_back().expect("len checked"));
            }
        }
        AdmissionPolicy::TokenBudget { tokens } => {
            let load = |q: &VecDeque<Request>| -> usize {
                q.iter().map(|r| r.prompt.len() + r.max_new).sum()
            };
            while pending.len() > 1 && load(pending) > tokens {
                // audit: allow(panic) — the loop condition pending.len() > 1 proves nonempty (the oldest request is never shed)
                shed.push(pending.pop_back().expect("len checked"));
            }
        }
        AdmissionPolicy::SloShed { ttft } => {
            let blown = |r: &Request| {
                // The best case from here: admitted this very tick, the
                // prompt rows that will run (an adopted prefix's do not)
                // at one tick each, one step overhead. Unattainable TTFT =
                // certain SLO miss = dead weight in the queue.
                let rows = r.prompt.len() - memory.skippable(&r.prompt);
                (clock - r.arrival) + rows as u64 + STEP_OVERHEAD > ttft
            };
            let mut keep = VecDeque::with_capacity(pending.len());
            while let Some(r) = pending.pop_front() {
                if blown(&r) {
                    shed.push(r);
                } else {
                    keep.push_back(r);
                }
            }
            *pending = keep;
        }
    }
    for req in shed {
        counters::bump_serve_sheds(1);
        resilience.shed_requests += 1;
        finished.push(metrics_without_tokens(req, FinishReason::Shed, clock));
    }
}

/// Restore preempted sessions (oldest first) into free batch slots, under
/// injected swap-in failures and transfer corruption: a failed draw
/// abandons this iteration's restores, and a corrupted transfer — caught
/// by the checksum pass — drops the corrupted blocks and re-queues the
/// clean host image for a later retry. With no fault plan this is exactly
/// the pre-resilience restore loop.
fn restore_swapped(
    rt: &mut PagedRt,
    running: &mut Vec<SessionState>,
    slots: usize,
    mut plan: Option<&mut FaultPlan>,
    resilience: &mut ResilienceStats,
) {
    while running.len() < slots && !rt.swapped.is_empty() {
        if let Some(p) = plan.as_deref_mut() {
            if p.draw_swap_in_failure() {
                counters::bump_serve_swap_in_retries(1);
                resilience.swap_in_retries += 1;
                return;
            }
        }
        let salt = plan
            .as_deref_mut()
            .and_then(FaultPlan::draw_restore_corruption);
        // The host image is the clean recovery source: clone it before the
        // (possibly corrupted) transfer.
        // audit: allow(panic) — draw_restore_corruption only fires when a swapped session exists
        let backup = salt.map(|_| rt.swapped.front().expect("checked nonempty").clone());
        let Some(mut s) = rt.try_restore() else {
            return;
        };
        if let Some(salt) = salt {
            let _ = s.corrupt_kv(salt);
            if s.verify_kv().is_err() {
                // Detected: drop the corrupted blocks (s goes out of
                // scope), re-queue the clean image, retry later.
                resilience.checksum_faults += 1;
                counters::bump_serve_swap_in_retries(1);
                resilience.swap_in_retries += 1;
                rt.swapped
                    // audit: allow(panic) — backup is Some on every path where salt is Some
                    .push_front(backup.expect("cloned when the fault was drawn"));
                return;
            }
        }
        running.push(s);
    }
}

/// Preempt the newest running session if a pool-exhaustion spike fires
/// (paging only, and never the last runner — the spike models transient
/// pressure, not a wedged scheduler).
fn maybe_pool_spike(
    rt: &mut PagedRt,
    running: &mut Vec<SessionState>,
    plan: &mut Option<FaultPlan>,
    resilience: &mut ResilienceStats,
) {
    if running.len() < 2 {
        return;
    }
    if let Some(p) = plan.as_mut() {
        if p.draw_pool_spike() {
            counters::bump_serve_pool_spikes(1);
            resilience.pool_spikes += 1;
            // audit: allow(panic) — running.len() >= 2 was checked on entry
            let victim = running.pop().expect("len checked");
            rt.preempt(victim);
        }
    }
}

/// The mutable state the serving loop runs over — built fresh from a
/// trace, or rehydrated from a [`Checkpoint`] by [`resume`].
struct LoopState {
    arrivals: VecDeque<Request>,
    pending: VecDeque<Request>,
    running: Vec<SessionState>,
    /// The single prefill slot: the admitted session whose prompt is
    /// still landing. It holds one of the `max_batch` slots and is never
    /// preempted — it is its step's anchor.
    prefilling: Option<SessionState>,
    finished: Vec<RequestMetrics>,
    steps: Vec<StepRecord>,
    clock: u64,
    peak_kv_rows: usize,
    /// FCFS only: set once a pure-decode step runs; admission reopens
    /// when the batch drains.
    sealed: bool,
    resilience: ResilienceStats,
    /// Step index at which the forced-preemption hook last fired (at most
    /// once per index, or an all-preempted batch would loop forever).
    hook_step: usize,
    /// Cumulative (swaps_out, swaps_in) at the previous step's span, so
    /// each step span carries only its own paging activity.
    last_swaps: (usize, usize),
    /// Executed-step count at the last checkpoint capture.
    last_ckpt: usize,
}

impl LoopState {
    fn fresh(trace: &Trace) -> Self {
        Self {
            arrivals: trace.requests.iter().cloned().collect(),
            pending: VecDeque::new(),
            running: Vec::new(),
            prefilling: None,
            finished: Vec::new(),
            steps: Vec::new(),
            clock: 0,
            peak_kv_rows: 0,
            sealed: false,
            resilience: ResilienceStats::default(),
            hook_step: usize::MAX,
            last_swaps: (0, 0),
            last_ckpt: 0,
        }
    }

    /// Rehydrate from a checkpoint: paged sessions are restored straight
    /// from their host images into a fresh pool (rebind + restore, outside
    /// the swap accounting — in the uninterrupted run they were never
    /// preempted); sessions the pool or batch cannot hold yet queue as
    /// swapped and come back through the normal restore path. Then the
    /// registered prefixes are copied back into the pool, oldest first, as
    /// far as it has room.
    fn from_checkpoint(ck: Checkpoint, memory: &mut Memory, max_batch: usize) -> Self {
        let mut running: Vec<SessionState> = Vec::new();
        match memory {
            Memory::Unmanaged => {
                for s in ck.sessions {
                    assert!(
                        !s.is_swapped(),
                        "request {}: paged checkpoint resumed without paging",
                        s.request.id
                    );
                    running.push(s);
                }
            }
            Memory::Paged(rt) => {
                for mut s in ck.sessions {
                    assert!(
                        s.is_swapped(),
                        "request {}: unpaged checkpoint resumed with paging",
                        s.request.id
                    );
                    s.rebind_pool(&rt.pool);
                    if running.len() < max_batch && rt.pool.available_blocks() >= s.restore_blocks()
                    {
                        let _ = s.restore();
                        running.push(s);
                    } else {
                        rt.swapped.push_back(s);
                    }
                }
                rt.registry.reload(ck.prefixes);
            }
        }
        Self {
            arrivals: ck.arrivals.into(),
            pending: ck.pending.into(),
            running,
            prefilling: None,
            finished: ck.finished,
            last_ckpt: ck.steps.len(),
            steps: ck.steps,
            clock: ck.clock,
            peak_kv_rows: ck.peak_kv_rows,
            sealed: ck.sealed,
            resilience: ck.resilience,
            hook_step: usize::MAX,
            last_swaps: (0, 0),
        }
    }

    /// Token rows the largest step of the rest of this run can carry: a
    /// full decode batch plus a prefill chunk, or — without a chunk budget
    /// — a full decode batch or the longest prompt still to prefill (an
    /// arrival's or a pending request's; the prefill slot is empty at the
    /// start of a run and of a resume). The run's crew is sized for it,
    /// once: no worker is spawned for a run none of whose steps could use
    /// one.
    fn largest_step(&self, cfg: &ServeConfig) -> usize {
        match cfg.prefill_chunk {
            Some(chunk) => cfg.max_batch + chunk,
            None => {
                let prompts = self.arrivals.iter().chain(&self.pending);
                let longest = prompts.map(|r| r.prompt.len()).max().unwrap_or(0);
                cfg.max_batch.max(longest)
            }
        }
    }

    /// Snapshot the loop state as a [`Checkpoint`] (running sessions are
    /// cloned — paged ones as host swap images — so the live run is not
    /// disturbed). Taken only with the prefill slot empty.
    fn capture_checkpoint(&self, memory: &Memory) -> Checkpoint {
        debug_assert!(self.prefilling.is_none(), "checkpoint mid-prefill");
        let mut sessions: Vec<SessionState> = self
            .running
            .iter()
            .map(|s| {
                let mut c = s.clone();
                if matches!(memory, Memory::Paged(_)) {
                    let _ = c.swap_out();
                }
                c
            })
            .collect();
        let prefixes = match memory {
            Memory::Unmanaged => Vec::new(),
            Memory::Paged(rt) => {
                sessions.extend(rt.swapped.iter().cloned());
                rt.registry.images()
            }
        };
        Checkpoint {
            clock: self.clock,
            arrivals: self.arrivals.iter().cloned().collect(),
            pending: self.pending.iter().cloned().collect(),
            sessions,
            prefixes,
            finished: self.finished.clone(),
            steps: self.steps.clone(),
            peak_kv_rows: self.peak_kv_rows,
            sealed: self.sealed,
            resilience: self.resilience,
        }
    }

    /// Close `s` into its metrics if it is done, else keep it running.
    fn retire(&mut self, s: SessionState, max_seq: usize) {
        match s.finish_reason(max_seq) {
            Some(reason) => self.finished.push(metrics_of(s, reason, self.clock)),
            None => self.running.push(s),
        }
    }

    /// The serving loop. One prompt prefills at a time (the oldest
    /// admitted), fused with decode rows into a single
    /// [`BatchEngine::step`]; TTFT stops only when the prompt's last row
    /// samples the first token. Each iteration runs, in this order (the
    /// fixed points every [`FaultPlan`] draw is made at): arrival drain →
    /// admission policy → restore → idle jump → admit into the prefill
    /// slot → crash / step-failure draw → forced preemption → pool spike →
    /// `make_room` → step → retire → checkpoint.
    ///
    /// Policies keep their admission character: prefill-priority admits
    /// into any free slot, decode-priority admits only into an idle engine
    /// (so it never mixes), and FCFS admits until a pure-decode step runs
    /// (the batch is full or the queue is empty — the static-batching
    /// "seal"), then drains.
    fn run<'m>(
        mut self,
        engine: &BatchEngine<'m>,
        crew: &StepCrew<'_, 'm>,
        cfg: &ServeConfig,
        mut memory: Memory,
        mut hooks: ServeHooks<'_>,
    ) -> ServeReport {
        let max_seq = engine.model().cfg.max_seq;
        // The step-composition rule, and the only place `prefill_chunk` is
        // read: without a budget the whole prompt lands in one step, and a
        // step that carries a prefill carries no decode rows.
        let budget = cfg.prefill_chunk.unwrap_or(usize::MAX);
        let mixes = cfg.prefill_chunk.is_some();

        loop {
            while self
                .arrivals
                .front()
                .is_some_and(|r| r.arrival <= self.clock)
            {
                // audit: allow(panic) — the while condition just observed arrivals.front() is Some
                self.pending.push_back(self.arrivals.pop_front().unwrap());
            }
            apply_admission(
                cfg.admission,
                &mut self.pending,
                self.clock,
                &memory,
                &mut self.finished,
                &mut self.resilience,
            );
            // Preempted sessions come back before anything else: restore
            // the oldest into free batch slots as soon as the pool fits
            // them (the prefill slot counts against the batch).
            if let Memory::Paged(rt) = &mut memory {
                let slots = cfg.max_batch - usize::from(self.prefilling.is_some());
                restore_swapped(
                    rt,
                    &mut self.running,
                    slots,
                    hooks.fault_plan.as_mut(),
                    &mut self.resilience,
                );
            }
            let resident = !self.running.is_empty() || self.prefilling.is_some();
            if self.pending.is_empty() && !resident && memory.idle() {
                match self.arrivals.front() {
                    // Idle: jump the clock to the next arrival.
                    Some(r) => {
                        self.clock = r.arrival;
                        continue;
                    }
                    None => break,
                }
            }
            // Admission into the single prefill slot (oldest pending first).
            if self.prefilling.is_none() {
                let has_capacity = self.running.len() < cfg.max_batch;
                let can_admit = has_capacity && !self.pending.is_empty();
                let admit = match cfg.policy {
                    Policy::Fcfs => can_admit && !self.sealed,
                    Policy::PrefillPriority => can_admit,
                    Policy::DecodePriority => can_admit && self.running.is_empty(),
                };
                if admit {
                    // audit: allow(panic) — can_admit requires a nonempty pending queue
                    let req = self.pending.pop_front().unwrap();
                    if req.max_new == 0 {
                        // A zero generation budget never runs: prefilling
                        // it would wrongly emit a first token (the
                        // prompt's last row always samples). Finish at the
                        // admission tick.
                        counters::bump_serve_admissions(1);
                        let m = metrics_without_tokens(req, FinishReason::Completed, self.clock);
                        self.finished.push(m);
                        continue;
                    }
                    let mut s = memory.start(engine, req);
                    note_admission(&mut s, self.clock, self.pending.len());
                    self.prefilling = Some(s);
                }
            }
            if let Some(plan) = hooks.fault_plan.as_mut() {
                if plan.crashes_at(self.steps.len()) {
                    // audit: allow(panic) — deliberate fault injection — the crash-consistency tests require a real panic
                    panic!("injected crash before step {}", self.steps.len());
                }
                if plan.draw_step_failure() {
                    // The scheduled step is abandoned before executing:
                    // charge the fixed overhead and retry (the step index
                    // is unchanged, so per-step hooks do not refire, and
                    // the admitted session, if any, waits out the retry).
                    counters::bump_serve_step_retries(1);
                    self.resilience.step_retries += 1;
                    self.clock += STEP_OVERHEAD;
                    continue;
                }
            }
            // Do the running sessions decode this step, or does the rule
            // reserve it for the prefill? This decides the rows `make_room`
            // reserves per runner, the decode set the engine steps, and
            // who gets an emission stamp — nothing else.
            let decoding = mixes || self.prefilling.is_none();
            if let Memory::Paged(rt) = &mut memory {
                // Forced preemption (tests/experiments), once per step index.
                if let Some(f) = hooks.force_preempt.as_mut() {
                    if self.hook_step != self.steps.len() && !self.running.is_empty() {
                        self.hook_step = self.steps.len();
                        let ids: Vec<usize> = self.running.iter().map(|s| s.request.id).collect();
                        for id in f(self.steps.len(), &ids) {
                            if let Some(i) = self.running.iter().position(|s| s.request.id == id) {
                                rt.preempt(self.running.remove(i));
                            }
                        }
                        if self.running.is_empty() && self.prefilling.is_none() {
                            // An emptied FCFS batch cannot stay sealed: it
                            // is restored alongside fresh admits.
                            self.sealed = false;
                        }
                    }
                }
                maybe_pool_spike(
                    rt,
                    &mut self.running,
                    &mut hooks.fault_plan,
                    &mut self.resilience,
                );
                if self.running.is_empty() && self.prefilling.is_none() {
                    // Everything resident was swapped out: the next
                    // iteration restores (always possible on an
                    // otherwise-empty pool).
                    continue;
                }
                // Make room for every row this step appends: one per
                // decoding runner, plus the prompt rows about to land.
                // Without a prefill at least one runner must survive (the
                // pool provably fits a lone session).
                let pf = &self.prefilling;
                rt.make_room(
                    &mut self.running,
                    usize::from(decoding),
                    || {
                        pf.as_ref()
                            .map_or(0, |s| s.blocks_needed(s.prefill_remaining().min(budget)))
                    },
                    usize::from(pf.is_none()),
                );
            }
            // One fused step: the decode set + the next prompt rows.
            let decode_rows = if decoding { self.running.len() } else { 0 };
            let prefill_pos = self.prefilling.as_ref().map_or(0, |s| s.prefilled);
            let prefill_rows = {
                let mut refs: Vec<&mut SessionState> =
                    self.running.iter_mut().take(decode_rows).collect();
                engine.step_on(crew, &mut refs, self.prefilling.as_mut(), budget)
            };
            debug_assert!(decode_rows + prefill_rows >= 1);
            let cost = STEP_OVERHEAD + (decode_rows + prefill_rows) as u64;
            self.clock += cost;
            let rec = StepRecord {
                prefill_rows,
                prefill_pos,
                decode_rows,
                swapped_rows: memory.take_pending(),
                cost,
            };
            trace_step(
                self.clock,
                &rec,
                self.pending.len(),
                self.running.len() + usize::from(self.prefilling.is_some()),
                &memory,
                &mut self.last_swaps,
            );
            self.steps.push(rec);
            self.peak_kv_rows = self.peak_kv_rows.max(
                self.running
                    .iter()
                    .chain(&self.prefilling)
                    .map(SessionState::positions)
                    .sum(),
            );
            if decode_rows > 0 && prefill_rows == 0 {
                self.sealed = true;
            }
            // Every decoded session emitted one token this step.
            for s in self.running.iter_mut().take(decode_rows) {
                s.token_ticks.push(self.clock);
            }
            // The prompt's last row sampled the first token: TTFT stops
            // here and the session joins the running set (or finishes
            // outright).
            if let Some(mut s) = self.prefilling.take_if(|s| s.is_prefilled()) {
                memory.register(&s);
                s.token_ticks.push(self.clock);
                self.retire(s, max_seq);
            }
            let survivors = Vec::with_capacity(self.running.len());
            for s in std::mem::replace(&mut self.running, survivors) {
                self.retire(s, max_seq);
            }
            if self.running.is_empty() && self.prefilling.is_none() {
                self.sealed = false;
            }
            // A due capture waits for the prefill slot to drain: a
            // checkpoint never holds a half-prefilled session.
            if let (None, Some(hook)) = (&self.prefilling, hooks.checkpoint.as_mut()) {
                if self.steps.len() - self.last_ckpt >= hook.every_steps.max(1) {
                    self.last_ckpt = self.steps.len();
                    counters::bump_serve_checkpoints(1);
                    self.resilience.checkpoints += 1;
                    (hook.sink)(self.capture_checkpoint(&memory));
                }
            }
        }
        self.finished.sort_by_key(|m| m.id);
        let mut report = ServeReport {
            requests: self.finished,
            steps: self.steps,
            ticks: self.clock,
            max_batch: cfg.max_batch,
            peak_kv_rows: self.peak_kv_rows,
            paging: None,
            resilience: self.resilience,
        };
        if let Memory::Paged(rt) = &mut memory {
            debug_assert!(
                rt.swapped.is_empty(),
                "run ended with sessions still swapped out"
            );
            debug_assert_eq!(
                rt.pending_swap_rows, 0,
                "swap traffic left unpriced by any step"
            );
            rt.registry.clear();
            report.paging = Some(PagingStats {
                block_size: rt.pool.block_size(),
                pool_blocks: rt.pool.capacity(),
                peak_live_blocks: rt.pool.peak_live_blocks(),
                final_live_blocks: rt.pool.live_blocks(),
                bytes_per_block: rt.pool.bytes_per_block(),
                swaps_out: rt.swaps_out,
                swaps_in: rt.swaps_in,
                swapped_rows: rt.swapped_rows_total,
                shared_rows: rt.shared_rows,
            });
        }
        // Close the trace run: later serve calls in the same session
        // continue on a globally-monotone timestamp axis.
        figlut_trace::end_run(report.ticks);
        report
    }
}

/// The [`ServeConfig`] preconditions of [`serve_with_hooks`] and
/// [`resume`], checked once before any state is built (the fields are
/// `pub`, so the `with_*` builders' own checks can be bypassed).
fn check_config(cfg: &ServeConfig, max_seq: usize) {
    assert!(
        cfg.prefill_chunk != Some(0),
        "prefill_chunk must be at least 1"
    );
    let Some(bs) = cfg.block_size else {
        assert!(
            cfg.pool_blocks.is_none(),
            "pool_blocks requires block_size (a cap needs a pool to cap)"
        );
        return;
    };
    if let Some(cap) = cfg.pool_blocks {
        // Deadlock freedom: one full-context session (table plus the
        // append that reaches max_seq) must always fit, because
        // preemption can free every block except the last runner's.
        let need = max_seq.div_ceil(bs);
        assert!(
            cap >= need,
            "pool_blocks {cap} cannot hold one full-context session \
             ({need} blocks of {bs} rows for max_seq {max_seq})"
        );
    }
}

/// Serve `trace` to completion and return the full report.
///
/// Requests are admitted in `(arrival, id)` order; the loop runs until
/// every request has finished (completed its budget or exhausted the
/// model's context). The emitted token streams are bit-identical to each
/// request's [`BatchEngine::solo_run`] for **every** policy, `max_batch`,
/// `prefill_chunk` budget, and paged-KV layout (`block_size` ×
/// `pool_blocks`, preemptions included) — the property suite and `repro
/// ext-serving` / `repro ext-chunked-prefill` / `repro ext-paged-kv`
/// assert this before any throughput number is believed.
///
/// # Panics
///
/// Panics, before any request is served, if the trace fails
/// [`Trace::validate`] against the served model, if
/// [`ServeConfig::prefill_chunk`] is `Some(0)`, if
/// [`ServeConfig::pool_blocks`] is set without
/// [`ServeConfig::block_size`], or if that pool cannot hold one
/// full-context session (`max_seq.div_ceil(block_size)` blocks).
pub fn serve(engine: &BatchEngine<'_>, trace: &Trace, cfg: &ServeConfig) -> ServeReport {
    serve_with_hooks(engine, trace, cfg, ServeHooks::default())
}

/// [`serve`] with out-of-band instrumentation: a forced-preemption
/// schedule, a deterministic [`FaultPlan`], and a periodic
/// [`CheckpointHook`]. The paging/preemption and resilience property
/// suites use these to prove that *scheduler-chosen* swap points, injected
/// faults, and kill/resume cycles all leave every token stream
/// bit-identical.
///
/// # Panics
///
/// As [`serve`], plus the injected crash of
/// [`FaultPlan::with_crash_at_step`].
pub fn serve_with_hooks(
    engine: &BatchEngine<'_>,
    trace: &Trace,
    cfg: &ServeConfig,
    hooks: ServeHooks<'_>,
) -> ServeReport {
    let model_cfg = engine.model().cfg;
    check_config(cfg, model_cfg.max_seq);
    trace.validate(&model_cfg);
    let memory = Memory::new(engine, cfg, hooks.fault_plan.as_ref());
    let state = LoopState::fresh(trace);
    engine.open_crew(state.largest_step(cfg), |crew| {
        state.run(engine, crew, cfg, memory, hooks)
    })
}

/// Continue a run from a [`Checkpoint`] captured by
/// [`ServeHooks::checkpoint`]: rebuild the scheduler state (sessions,
/// queues, clock, executed steps, registered prefixes) in a fresh memory
/// runtime and run the remaining schedule to completion. On an unbounded
/// pool the resumed report's requests, steps, and ticks reconcile exactly
/// with the uninterrupted run's. The *storage* accounting (pool peaks,
/// shared rows) may differ, because the resumed pool holds private copies
/// of what the crashed run shared; under a pool cap that can move
/// preemptions, and with them the schedule.
///
/// # Panics
///
/// Panics on the [`ServeConfig`] preconditions of [`serve`], if `cfg`
/// paging disagrees with the checkpoint's session images (a paged
/// checkpoint must resume with paging on, and vice versa), or if the pool
/// shape (`block_size` × model) differs from the captured one.
pub fn resume(
    engine: &BatchEngine<'_>,
    checkpoint: Checkpoint,
    cfg: &ServeConfig,
    hooks: ServeHooks<'_>,
) -> ServeReport {
    check_config(cfg, engine.model().cfg.max_seq);
    counters::bump_serve_resumes(1);
    let mut memory = Memory::new(engine, cfg, hooks.fault_plan.as_ref());
    let state = LoopState::from_checkpoint(checkpoint, &mut memory, cfg.max_batch);
    engine.open_crew(state.largest_step(cfg), |crew| {
        state.run(engine, crew, cfg, memory, hooks)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::StepKind;
    use crate::request::{synthetic_trace, TraceParams};
    use figlut_model::{Backend, ModelConfig, Transformer};

    fn setup() -> (Transformer, crate::request::Trace) {
        let m = Transformer::teacher(ModelConfig::tiny(), 91);
        let trace = synthetic_trace(&m.cfg, &TraceParams::light(5), 17);
        (m, trace)
    }

    #[test]
    fn every_policy_serves_every_request_with_solo_tokens() {
        let (m, trace) = setup();
        let engine = BatchEngine::new(&m, Backend::Exact);
        let solo: Vec<Vec<usize>> = trace.requests.iter().map(|r| engine.solo_run(r)).collect();
        for policy in Policy::ALL {
            for max_batch in [1usize, 2, 4, 8] {
                for chunk in [None, Some(2), Some(5)] {
                    let mut cfg = ServeConfig::new(max_batch, policy);
                    cfg.prefill_chunk = chunk;
                    let report = serve(&engine, &trace, &cfg);
                    assert_eq!(
                        report.requests.len(),
                        trace.len(),
                        "{policy:?} {max_batch} {chunk:?}"
                    );
                    for r in &report.requests {
                        assert_eq!(
                            r.generated, solo[r.id],
                            "{policy:?} max_batch={max_batch} chunk={chunk:?} request {}",
                            r.id
                        );
                        assert!(r.first_token >= r.arrival && r.finish >= r.first_token);
                        assert_eq!(r.token_ticks.len(), r.tokens);
                        assert_eq!(r.token_ticks.first(), Some(&r.first_token));
                        assert_eq!(r.token_ticks.last(), Some(&r.finish));
                    }
                }
            }
        }
    }

    #[test]
    fn decode_batches_never_exceed_max_batch() {
        let (m, trace) = setup();
        let engine = BatchEngine::new(&m, Backend::Exact);
        for policy in Policy::ALL {
            for chunk in [None, Some(3)] {
                let mut cfg = ServeConfig::new(2, policy);
                cfg.prefill_chunk = chunk;
                let report = serve(&engine, &trace, &cfg);
                for s in &report.steps {
                    assert!(s.decode_rows <= 2, "{policy:?}: batch {}", s.decode_rows);
                    if let Some(c) = chunk {
                        assert!(s.prefill_rows <= c, "{policy:?}: chunk {}", s.prefill_rows);
                    }
                }
            }
        }
    }

    #[test]
    fn decode_priority_never_batches_beyond_one() {
        // The decode-eager extreme only admits into an empty running set,
        // so its decode batches are always singletons — and under chunking
        // it never even produces a mixed step.
        let (m, trace) = setup();
        let engine = BatchEngine::new(&m, Backend::Exact);
        let report = serve(
            &engine,
            &trace,
            &ServeConfig::new(8, Policy::DecodePriority),
        );
        assert!(report
            .steps
            .iter()
            .filter(|s| s.kind() == StepKind::Decode)
            .all(|s| s.decode_rows == 1));
        let chunked = serve(
            &engine,
            &trace,
            &ServeConfig::new(8, Policy::DecodePriority).with_prefill_chunk(2),
        );
        assert!(chunked.steps.iter().all(|s| s.kind() != StepKind::Mixed));
    }

    #[test]
    fn fcfs_seals_batches_and_prefill_priority_refills() {
        // Under a tick-0 burst of 4 requests and max_batch 2, FCFS must not
        // admit request 2 until the first pair fully drains, while
        // prefill-priority backfills the slot as soon as one frees.
        let m = Transformer::teacher(ModelConfig::tiny(), 91);
        let p = TraceParams {
            mean_interarrival: 0.0,
            prompt_len: (3, 3),
            new_tokens: (2, 6),
            ..TraceParams::light(4)
        };
        let trace = synthetic_trace(&m.cfg, &p, 23);
        assert!(trace
            .requests
            .iter()
            .any(|a| trace.requests.iter().any(|b| a.max_new != b.max_new)));
        let engine = BatchEngine::new(&m, Backend::Exact);
        let fcfs = serve(&engine, &trace, &ServeConfig::new(2, Policy::Fcfs));
        // FCFS: once sealed, occupancy can only fall; a refilled batch would
        // show rows going 2 → 1 → 2 within one seal window. Verify the
        // decode-row sequence is "sawtooth-free" per window: after the batch
        // shrinks, it never grows until it hits zero (window resets on
        // prefill).
        let mut prev = 0usize;
        for s in &fcfs.steps {
            match s.kind() {
                StepKind::Prefill => prev = 0,
                StepKind::Decode => {
                    if prev > 0 {
                        assert!(
                            s.decode_rows <= prev,
                            "FCFS batch regrew: {} -> {}",
                            prev,
                            s.decode_rows
                        );
                    }
                    prev = s.decode_rows;
                }
                StepKind::Mixed => unreachable!("monolithic prefill emitted a mixed step"),
            }
        }
        // Prefill-priority must beat FCFS on mean TTFT under this burst.
        let pp = serve(
            &engine,
            &trace,
            &ServeConfig::new(2, Policy::PrefillPriority),
        );
        let (pp_ttft, fcfs_ttft) = (
            pp.distributions().ttft.mean(),
            fcfs.distributions().ttft.mean(),
        );
        assert!(
            pp_ttft < fcfs_ttft,
            "prefill-priority TTFT {pp_ttft} !< fcfs {fcfs_ttft}"
        );
    }

    #[test]
    fn over_budget_requests_finish_at_the_context_limit_not_rejected() {
        // A budget that cannot fit in the context is legal: the session is
        // served until the model's position table runs out, then finished —
        // with the same tokens as its solo run (the positional limit
        // depends only on session state; memory pressure is handled by
        // preemption and never finishes anyone).
        use crate::engine::FinishReason;
        use crate::request::{Request, Sampling, Trace};
        let m = Transformer::teacher(ModelConfig::tiny(), 91);
        let over = Request {
            id: 0,
            arrival: 0,
            prompt: (0..30).map(|i| i % m.cfg.vocab).collect(),
            max_new: 20, // 30 + 20 > max_seq 40
            sampling: Sampling::Greedy,
            seed: 5,
        };
        let fits = Request {
            id: 1,
            arrival: 0,
            prompt: vec![0, 3, 9],
            max_new: 4,
            sampling: Sampling::Greedy,
            seed: 6,
        };
        let trace = Trace {
            requests: vec![over.clone(), fits.clone()],
        };
        let engine = BatchEngine::new(&m, Backend::Exact);
        for policy in Policy::ALL {
            let report = serve(&engine, &trace, &ServeConfig::new(2, policy));
            let capped = &report.requests[0];
            assert_eq!(capped.reason, FinishReason::ContextExhausted, "{policy:?}");
            // 30 prompt slots + 10 decodes reach max_seq; 11 tokens out.
            assert_eq!(capped.tokens, 11, "{policy:?}");
            assert_eq!(capped.generated, engine.solo_run(&over), "{policy:?}");
            let completed = &report.requests[1];
            assert_eq!(completed.reason, FinishReason::Completed, "{policy:?}");
            assert_eq!(completed.generated, engine.solo_run(&fits), "{policy:?}");
        }
    }

    #[test]
    fn idle_periods_jump_the_clock() {
        let m = Transformer::teacher(ModelConfig::tiny(), 91);
        let mut trace = synthetic_trace(&m.cfg, &TraceParams::light(2), 31);
        trace.requests[1].arrival = 10_000;
        let engine = BatchEngine::new(&m, Backend::Exact);
        let report = serve(
            &engine,
            &trace,
            &ServeConfig::new(4, Policy::PrefillPriority),
        );
        assert!(report.ticks >= 10_000, "clock must reach the late arrival");
        // No steps were burned spinning through the idle gap.
        let work: u64 = report.steps.iter().map(|s| s.cost).sum();
        assert!(
            work < 1_000,
            "idle gap was busy-waited: {work} ticks of work"
        );
        assert_eq!(
            report.requests[1].ttft(),
            report.requests[1].first_token - 10_000
        );
    }

    #[test]
    fn ticks_equal_total_step_cost_plus_idle() {
        let (m, trace) = setup();
        let engine = BatchEngine::new(&m, Backend::Exact);
        let report = serve(&engine, &trace, &ServeConfig::new(3, Policy::Fcfs));
        let work: u64 = report.steps.iter().map(|s| s.cost).sum();
        assert!(report.ticks >= work);
        let tokens: usize = report.requests.iter().map(|r| r.tokens).sum();
        assert_eq!(tokens, report.total_tokens());
    }

    /// `prefill_chunk: None` is a composition rule of the one serving
    /// loop, not a loop of its own, and this golden trace (packed exec
    /// backend, all three policies) is what keeps the rule honest: it was
    /// captured from the pre-chunking scheduler, and the step sequence,
    /// per-request timings, and final clock must stay byte-identical to it.
    #[test]
    fn monolithic_path_matches_pre_chunking_golden_trace() {
        use crate::request::Sampling;
        use figlut_gemm::EngineConfig;
        use figlut_model::calibrate::{quantize_model, to_packed, Method};
        use figlut_model::corpus::generate;

        let teacher = Transformer::teacher(ModelConfig::tiny(), 55);
        let calib = generate(&teacher, 2, 10, 3);
        let (q, _) = quantize_model(&teacher, &calib, Method::ShiftAdd { bits: 3 });
        let model = to_packed(&q);
        let engine = BatchEngine::new(&model, Backend::Exec(EngineConfig::paper_default()));
        let params = TraceParams {
            requests: 5,
            mean_interarrival: 2.0,
            prompt_len: (2, 8),
            new_tokens: (2, 9),
            sampling: Sampling::Greedy,
        };
        let trace = synthetic_trace(&model.cfg, &params, 77);

        // (kind, rows, cost) per step; (arrival, first, finish, tokens) per
        // request — captured from the pre-chunking scheduler.
        type Golden = (
            u64,
            &'static [(&'static str, usize, u64)],
            &'static [(u64, u64, u64, usize)],
        );
        let golden: [(Policy, Golden); 3] = [
            (
                Policy::Fcfs,
                (
                    66,
                    &[
                        ("P", 5, 6),
                        ("P", 4, 5),
                        ("P", 4, 5),
                        ("D", 3, 4),
                        ("D", 3, 4),
                        ("D", 3, 4),
                        ("D", 3, 4),
                        ("D", 3, 4),
                        ("D", 2, 3),
                        ("D", 2, 3),
                        ("D", 1, 2),
                        ("P", 3, 4),
                        ("P", 3, 4),
                        ("D", 2, 3),
                        ("D", 2, 3),
                        ("D", 2, 3),
                        ("D", 2, 3),
                        ("D", 1, 2),
                    ],
                    &[
                        (0, 6, 44, 9),
                        (2, 11, 42, 8),
                        (5, 16, 36, 6),
                        (8, 48, 64, 5),
                        (9, 52, 66, 6),
                    ],
                ),
            ),
            (
                Policy::PrefillPriority,
                (
                    65,
                    &[
                        ("P", 5, 6),
                        ("P", 4, 5),
                        ("P", 4, 5),
                        ("D", 3, 4),
                        ("D", 3, 4),
                        ("D", 3, 4),
                        ("D", 3, 4),
                        ("D", 3, 4),
                        ("P", 3, 4),
                        ("D", 3, 4),
                        ("D", 3, 4),
                        ("P", 3, 4),
                        ("D", 3, 4),
                        ("D", 2, 3),
                        ("D", 1, 2),
                        ("D", 1, 2),
                        ("D", 1, 2),
                    ],
                    &[
                        (0, 6, 56, 9),
                        (2, 11, 48, 8),
                        (5, 16, 36, 6),
                        (8, 40, 59, 5),
                        (9, 52, 65, 6),
                    ],
                ),
            ),
            (
                Policy::DecodePriority,
                (
                    82,
                    &[
                        ("P", 5, 6),
                        ("D", 1, 2),
                        ("D", 1, 2),
                        ("D", 1, 2),
                        ("D", 1, 2),
                        ("D", 1, 2),
                        ("D", 1, 2),
                        ("D", 1, 2),
                        ("D", 1, 2),
                        ("P", 4, 5),
                        ("D", 1, 2),
                        ("D", 1, 2),
                        ("D", 1, 2),
                        ("D", 1, 2),
                        ("D", 1, 2),
                        ("D", 1, 2),
                        ("D", 1, 2),
                        ("P", 4, 5),
                        ("D", 1, 2),
                        ("D", 1, 2),
                        ("D", 1, 2),
                        ("D", 1, 2),
                        ("D", 1, 2),
                        ("P", 3, 4),
                        ("D", 1, 2),
                        ("D", 1, 2),
                        ("D", 1, 2),
                        ("D", 1, 2),
                        ("P", 3, 4),
                        ("D", 1, 2),
                        ("D", 1, 2),
                        ("D", 1, 2),
                        ("D", 1, 2),
                        ("D", 1, 2),
                    ],
                    &[
                        (0, 6, 22, 9),
                        (2, 27, 41, 8),
                        (5, 46, 56, 6),
                        (8, 60, 68, 5),
                        (9, 72, 82, 6),
                    ],
                ),
            ),
        ];
        for (policy, (ticks, steps, requests)) in golden {
            let r = serve(&engine, &trace, &ServeConfig::new(3, policy));
            assert_eq!(r.ticks, ticks, "{policy:?}");
            assert_eq!(r.steps.len(), steps.len(), "{policy:?}");
            for (got, &(kind, rows, cost)) in r.steps.iter().zip(steps) {
                let want_kind = if kind == "P" {
                    StepKind::Prefill
                } else {
                    StepKind::Decode
                };
                assert_eq!(got.kind(), want_kind, "{policy:?}");
                assert_eq!(got.rows(), rows, "{policy:?}");
                assert_eq!(got.cost, cost, "{policy:?}");
                assert_eq!(got.swapped_rows, 0, "{policy:?}: unbidden swap");
            }
            for (got, &(arrival, first, finish, tokens)) in r.requests.iter().zip(requests) {
                assert_eq!(
                    (got.arrival, got.first_token, got.finish, got.tokens),
                    (arrival, first, finish, tokens),
                    "{policy:?} request {}",
                    got.id
                );
            }
            // Paging with an unbounded pool must be invisible to the
            // golden schedule: same steps, same timings, same clock — only
            // the storage layout (and the paging report) differs.
            let paged = serve(
                &engine,
                &trace,
                &ServeConfig::new(3, policy).with_block_size(64),
            );
            assert_eq!(paged.ticks, r.ticks, "{policy:?} paged");
            assert_eq!(paged.steps, r.steps, "{policy:?} paged");
            assert_eq!(paged.requests, r.requests, "{policy:?} paged");
            let stats = paged.paging.expect("paging stats when paging is on");
            assert_eq!(stats.swaps_out, 0, "{policy:?}: unbidden preemption");
            assert_eq!(stats.final_live_blocks, 0, "{policy:?}: leaked blocks");
        }
    }

    /// Natural (memory-pressure) preemption: a pool too small for the
    /// whole batch forces swap-outs, yet every token stream stays
    /// bit-identical to its solo run, no block leaks, and every swap-out
    /// is matched by a swap-in.
    #[test]
    fn tight_pool_preempts_and_restores_bit_identically() {
        use crate::request::{Request, Sampling, Trace};
        let m = Transformer::teacher(ModelConfig::tiny(), 91);
        let engine = BatchEngine::new(&m, Backend::Exact);
        let mk = |id| Request {
            id,
            arrival: 0,
            prompt: (0..12).map(|i| (i + id) % m.cfg.vocab).collect(),
            max_new: 8,
            sampling: Sampling::Greedy,
            seed: 70 + id as u64,
        };
        let trace = Trace {
            requests: vec![mk(0), mk(1), mk(2)],
        };
        let solo: Vec<Vec<usize>> = trace.requests.iter().map(|r| engine.solo_run(r)).collect();
        // ceil(max_seq 40 / bs 4) = 10 blocks is the legal minimum; three
        // sessions of 12+8 rows want 5 blocks each, so 10 cannot hold the
        // full batch and the scheduler must preempt.
        for chunk in [None, Some(3)] {
            let mut cfg = ServeConfig::new(3, Policy::PrefillPriority)
                .with_block_size(4)
                .with_pool_blocks(10);
            cfg.prefill_chunk = chunk;
            let r = serve(&engine, &trace, &cfg);
            for req in &r.requests {
                assert_eq!(
                    req.generated, solo[req.id],
                    "chunk {chunk:?} req {}",
                    req.id
                );
            }
            let stats = r.paging.expect("paging stats");
            assert!(stats.swaps_out > 0, "chunk {chunk:?}: pool never pressured");
            assert_eq!(stats.swaps_out, stats.swaps_in, "chunk {chunk:?}");
            assert!(stats.peak_live_blocks <= 10, "chunk {chunk:?}: cap broken");
            assert_eq!(stats.final_live_blocks, 0, "chunk {chunk:?}: leak");
            assert!(stats.swapped_rows > 0, "chunk {chunk:?}");
            // The swap traffic is priced into steps, and conserved.
            let step_rows: usize = r.steps.iter().map(|s| s.swapped_rows).sum();
            assert_eq!(step_rows, stats.swapped_rows, "chunk {chunk:?}");
        }
    }

    /// Scheduler-chosen preemption via the hook: swap a victim out before
    /// every third step; streams must still be bit-identical to solo.
    #[test]
    fn forced_preemption_roundtrips_are_invisible_in_the_tokens() {
        let (m, trace) = setup();
        let engine = BatchEngine::new(&m, Backend::Exact);
        let solo: Vec<Vec<usize>> = trace.requests.iter().map(|r| engine.solo_run(r)).collect();
        for chunk in [None, Some(2)] {
            let mut cfg = ServeConfig::new(4, Policy::PrefillPriority).with_block_size(3);
            cfg.prefill_chunk = chunk;
            let hooks = ServeHooks {
                force_preempt: Some(Box::new(|step, ids: &[usize]| {
                    if step % 3 == 0 {
                        ids.first().copied().into_iter().collect()
                    } else {
                        Vec::new()
                    }
                })),
                ..Default::default()
            };
            let r = serve_with_hooks(&engine, &trace, &cfg, hooks);
            assert_eq!(r.requests.len(), trace.len(), "chunk {chunk:?}");
            for req in &r.requests {
                assert_eq!(
                    req.generated, solo[req.id],
                    "chunk {chunk:?} req {}",
                    req.id
                );
            }
            let stats = r.paging.expect("paging stats");
            assert!(stats.swaps_out > 0, "chunk {chunk:?}: hook never fired");
            assert_eq!(stats.swaps_out, stats.swaps_in, "chunk {chunk:?}");
            assert_eq!(stats.final_live_blocks, 0, "chunk {chunk:?}");
        }
    }

    /// Identical prompts admitted back-to-back share their prefix blocks:
    /// the registry hands each later session the earlier session's whole
    /// blocks, copy-on-write keeps divergence private, and the tokens
    /// never notice.
    #[test]
    fn shared_prefixes_are_adopted_and_stay_bit_identical() {
        use crate::request::{Request, Sampling, Trace};
        let m = Transformer::teacher(ModelConfig::tiny(), 91);
        let engine = BatchEngine::new(&m, Backend::Exact);
        let prompt: Vec<usize> = std::iter::once(0)
            .chain((1..17).map(|i| i % m.cfg.vocab))
            .collect();
        let mk = |id| Request {
            id,
            arrival: 0,
            prompt: prompt.clone(),
            max_new: 4,
            sampling: Sampling::Greedy,
            seed: 80 + id as u64,
        };
        let trace = Trace {
            requests: vec![mk(0), mk(1), mk(2)],
        };
        let solo: Vec<Vec<usize>> = trace.requests.iter().map(|r| engine.solo_run(r)).collect();
        let cfg = ServeConfig::new(3, Policy::PrefillPriority).with_block_size(4);
        let r = serve(&engine, &trace, &cfg);
        for req in &r.requests {
            assert_eq!(req.generated, solo[req.id], "req {}", req.id);
        }
        let stats = r.paging.expect("paging stats");
        // 17-token prompt, bs 4: requests 1 and 2 each adopt the 16-row
        // whole-block prefix registered by request 0, and compute only
        // their 17th row.
        assert_eq!(stats.shared_rows, 32);
        let skipped: Vec<usize> = r.requests.iter().map(|m| m.skipped).collect();
        assert_eq!(skipped, [0, 16, 16]);
        let prefill_rows: usize = r.steps.iter().map(|s| s.prefill_rows).sum();
        assert_eq!(prefill_rows, 17 + 1 + 1);
        assert_eq!(stats.final_live_blocks, 0);
        // Shared storage beats private storage at the peak: three private
        // 17-row tables would already hold 15 blocks.
        assert!(
            stats.peak_live_blocks < 15,
            "no sharing at the peak: {} blocks",
            stats.peak_live_blocks
        );
    }

    /// SLO shedding charges only the prompt rows that will run. Request 1
    /// repeats request 0's 17-token prompt one tick later and waits behind
    /// it on a one-slot engine. From tick 18, when request 0's prefill has
    /// registered its 16-row prefix, request 1 would run one row: its best
    /// TTFT is at most 25 ticks, inside the bound. Charging the whole
    /// prompt would put it at 35 and shed it.
    #[test]
    fn slo_shed_admits_a_request_its_adopted_prefix_makes_feasible() {
        use crate::request::{Request, Sampling, Trace};
        let m = Transformer::teacher(ModelConfig::tiny(), 91);
        let engine = BatchEngine::new(&m, Backend::Exact);
        let prompt: Vec<usize> = (0..17).map(|i| (i * 5 + 1) % m.cfg.vocab).collect();
        let mk = |id, arrival| Request {
            id,
            arrival,
            prompt: prompt.clone(),
            max_new: 4,
            sampling: Sampling::Greedy,
            seed: 60 + id as u64,
        };
        let trace = Trace {
            requests: vec![mk(0, 0), mk(1, 1)],
        };
        let cfg = ServeConfig::new(1, Policy::PrefillPriority)
            .with_block_size(4)
            .with_admission(AdmissionPolicy::SloShed { ttft: 30 });
        let r = serve(&engine, &trace, &cfg);
        assert_eq!(r.resilience.shed_requests, 0);
        let late = r.requests.iter().find(|q| q.id == 1).expect("request 1");
        assert_ne!(late.reason, FinishReason::Shed);
        assert_eq!(late.skipped, 16);
        assert!(late.first_token - late.arrival <= 30);
        assert_eq!(late.generated, engine.solo_run(&trace.requests[1]));
    }

    /// With paging on but no preemption, the schedule, timings, and every
    /// step record (swap traffic included) must be byte-identical to the
    /// contiguous run — so `workload()` prices both runs identically.
    #[test]
    fn unpressured_paged_runs_price_like_contiguous() {
        let (m, trace) = setup();
        let engine = BatchEngine::new(&m, Backend::Exact);
        for policy in Policy::ALL {
            for chunk in [None, Some(2)] {
                let mut base = ServeConfig::new(3, policy);
                base.prefill_chunk = chunk;
                let contiguous = serve(&engine, &trace, &base);
                let paged = serve(&engine, &trace, &base.with_block_size(5));
                assert_eq!(paged.steps, contiguous.steps, "{policy:?} {chunk:?}");
                assert_eq!(paged.requests, contiguous.requests, "{policy:?} {chunk:?}");
                assert_eq!(paged.ticks, contiguous.ticks, "{policy:?} {chunk:?}");
                assert_eq!(
                    paged.peak_kv_rows, contiguous.peak_kv_rows,
                    "{policy:?} {chunk:?}"
                );
                let stats = paged.paging.expect("paging stats");
                assert_eq!(stats.swaps_out, 0, "{policy:?} {chunk:?}");
                assert_eq!(stats.swapped_rows, 0, "{policy:?} {chunk:?}");
            }
        }
    }

    /// A long prompt landing on a busy engine: without chunking, every
    /// running session stalls for the whole prompt; with a chunk budget
    /// `c`, no inter-token stall exceeds `STEP_OVERHEAD + c + max_batch`
    /// ticks — and the tokens are bit-identical throughout.
    #[test]
    fn chunked_prefill_bounds_inter_token_stalls() {
        use crate::request::{Request, Sampling, Trace};
        let m = Transformer::teacher(ModelConfig::tiny(), 91);
        let engine = BatchEngine::new(&m, Backend::Exact);
        let mk = |id, arrival, prompt_len, max_new| Request {
            id,
            arrival,
            prompt: (0..prompt_len).map(|i| i % m.cfg.vocab).collect(),
            max_new,
            sampling: Sampling::Greedy,
            seed: 40 + id as u64,
        };
        // Three decode-heavy sessions, then a 30-token prompt mid-stream.
        let trace = Trace {
            requests: vec![
                mk(0, 0, 3, 12),
                mk(1, 0, 3, 12),
                mk(2, 0, 3, 12),
                mk(3, 10, 30, 3),
            ],
        };
        let solo: Vec<Vec<usize>> = trace.requests.iter().map(|r| engine.solo_run(r)).collect();
        let max_batch = 4usize;
        let base = ServeConfig::new(max_batch, Policy::PrefillPriority);
        let mono = serve(&engine, &trace, &base);
        let mono_stall = mono.distributions().stall.max();
        // The monolithic prefill stalls a running session for ≥ the whole
        // 30-row prompt.
        assert!(
            mono_stall >= 30,
            "expected head-of-line blocking, stall {mono_stall}"
        );
        for chunk in [4usize, 8] {
            let r = serve(&engine, &trace, &base.with_prefill_chunk(chunk));
            let bound = STEP_OVERHEAD + (chunk + max_batch) as u64;
            for s in &r.steps {
                assert!(s.cost <= bound, "chunk {chunk}: step cost {}", s.cost);
            }
            let stall = r.distributions().stall.max();
            assert!(
                stall <= bound,
                "chunk {chunk}: stall {stall} > bound {bound}"
            );
            // The long prompt really was chunked into mixed steps.
            assert!(r.steps.iter().any(|s| s.kind() == StepKind::Mixed));
            assert!(r.steps.iter().filter(|s| s.prefill_rows > 0).count() > 4);
            // And not one token moved.
            for req in &r.requests {
                assert_eq!(
                    req.generated, solo[req.id],
                    "chunk {chunk} request {}",
                    req.id
                );
            }
            assert!(stall < mono_stall);
        }
    }

    #[test]
    fn chunked_fcfs_seals_on_pure_decode_and_reopens() {
        // FCFS under chunking: admissions (possibly mixed with decodes)
        // until a pure-decode step runs, then drain to empty before the
        // next admission.
        let m = Transformer::teacher(ModelConfig::tiny(), 91);
        let p = TraceParams {
            mean_interarrival: 0.0,
            prompt_len: (4, 4),
            new_tokens: (2, 6),
            ..TraceParams::light(5)
        };
        let trace = synthetic_trace(&m.cfg, &p, 23);
        let engine = BatchEngine::new(&m, Backend::Exact);
        let r = serve(
            &engine,
            &trace,
            &ServeConfig::new(2, Policy::Fcfs).with_prefill_chunk(2),
        );
        // Once a pure-decode step seals the batch, FCFS admits again only
        // after the batch drains — so the first prefill-carrying step after
        // a sealed stretch must be prefill-only (nothing left running).
        let mut sealed = false;
        for s in &r.steps {
            assert!(s.rows() >= 1, "empty step");
            if s.prefill_rows > 0 {
                if sealed {
                    assert_eq!(s.decode_rows, 0, "FCFS admitted into a sealed batch");
                }
                sealed = false;
            } else if s.decode_rows > 0 {
                sealed = true;
            }
        }
        // The fill phase really did mix decodes with the next admission.
        assert!(r.steps.iter().any(|s| s.kind() == StepKind::Mixed));
        // Tokens still solo-identical.
        for req in &r.requests {
            assert_eq!(req.generated, engine.solo_run(&trace.requests[req.id]));
        }
    }

    /// The `ServeConfig` fields are `pub`, so the builders' checks can be
    /// bypassed; `serve` and `resume` must reject the config up front, by
    /// name, not from deep inside the loop.
    #[test]
    fn bad_configs_are_rejected_before_any_state_is_built() {
        let (m, trace) = setup();
        let engine = BatchEngine::new(&m, Backend::Exact);
        let base = ServeConfig::new(2, Policy::PrefillPriority);
        let zero_chunk = ServeConfig {
            prefill_chunk: Some(0),
            ..base
        };
        let cap_without_pool = base.with_pool_blocks(64);
        // max_seq 40 at 4 rows per block needs 10 blocks.
        let short_pool = base.with_block_size(4).with_pool_blocks(9);
        let empty = || Checkpoint {
            clock: 0,
            arrivals: trace.requests.clone(),
            pending: Vec::new(),
            sessions: Vec::new(),
            prefixes: Vec::new(),
            finished: Vec::new(),
            steps: Vec::new(),
            peak_kv_rows: 0,
            sealed: false,
            resilience: ResilienceStats::default(),
        };
        for (cfg, want) in [
            (zero_chunk, "prefill_chunk must be at least 1"),
            (cap_without_pool, "pool_blocks requires block_size"),
            (short_pool, "cannot hold one full-context session"),
        ] {
            for resumed in [false, true] {
                let run = || {
                    if resumed {
                        resume(&engine, empty(), &cfg, ServeHooks::default())
                    } else {
                        serve(&engine, &trace, &cfg)
                    }
                };
                let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(run))
                    .expect_err("bad config was served");
                let msg = err.downcast_ref::<String>().map_or_else(
                    || err.downcast_ref::<&str>().copied().unwrap_or(""),
                    String::as_str,
                );
                assert!(msg.contains(want), "{cfg:?}: panicked with {msg:?}");
            }
        }
    }

    /// Without a chunk budget a serve's crew is sized for the longest
    /// prompt it can still prefill, not for `max_seq`: the light trace on
    /// the packed tiny model never steps more than 6 rows (124,416
    /// look-ups), which no worker repays, while 40 rows (829,440) would
    /// open a crew of two whose worker no step wakes. A resume sizes for
    /// its checkpoint's arrivals and pending requests.
    #[test]
    fn crew_is_sized_for_the_longest_prompt_left_to_prefill() {
        use figlut_exec::parallel::step_width;
        use figlut_gemm::EngineConfig;
        use figlut_model::calibrate::{quantize_model, to_packed, Method};
        use figlut_model::corpus::generate;

        let teacher = Transformer::teacher(ModelConfig::tiny(), 55);
        let calib = generate(&teacher, 2, 10, 3);
        let (q, _) = quantize_model(&teacher, &calib, Method::ShiftAdd { bits: 3 });
        let model = to_packed(&q);
        let backend = Backend::Exec(EngineConfig::paper_default());
        let trace = synthetic_trace(&model.cfg, &TraceParams::light(4), 7);
        let lens: Vec<usize> = trace.requests.iter().map(|r| r.prompt.len()).collect();
        assert_eq!(lens, [2, 3, 2, 6]);
        let cfg = ServeConfig::new(2, Policy::PrefillPriority);

        let rows = LoopState::fresh(&trace).largest_step(&cfg);
        assert_eq!(rows, 6);
        let lookups = model.step_lookups(rows, &backend);
        assert_eq!(step_width(lookups, 2), 1, "{lookups} look-ups");
        let full = model.step_lookups(model.cfg.max_seq, &backend);
        assert_eq!(step_width(full, 2), 2, "{full} look-ups");

        // Request 3 has finished: the rest prefill at most 3 rows.
        let checkpoint = Checkpoint {
            clock: 0,
            arrivals: trace.requests[1..3].to_vec(),
            pending: trace.requests[..1].to_vec(),
            sessions: Vec::new(),
            prefixes: Vec::new(),
            finished: Vec::new(),
            steps: Vec::new(),
            peak_kv_rows: 0,
            sealed: false,
            resilience: ResilienceStats::default(),
        };
        let state = LoopState::from_checkpoint(checkpoint, &mut Memory::Unmanaged, 2);
        assert_eq!(state.largest_step(&cfg), 3);
        // A chunk budget bounds every step on its own.
        assert_eq!(state.largest_step(&cfg.with_prefill_chunk(5)), 7);
    }
}
