//! Batched execution of live sessions over one shared model.
//!
//! [`BatchEngine`] owns nothing but a reference to the (packed) model and a
//! [`Backend`]; session state — KV cache, sampling RNG, emitted tokens,
//! prefill progress — lives in [`SessionState`] so the scheduler can move
//! sessions in and out of the running batch freely. One
//! [`BatchEngine::step`] call gathers every decode row *and* the current
//! prefill chunk into a single `rows × d` pass through
//! [`Transformer::forward_batch`], so one traversal of the shared packed
//! weights serves every token-row in flight — the software analogue of the
//! paper's weight-traffic amortization across sequences in flight, with
//! prefill no longer segregated into its own blocking step
//! ([`BatchEngine::prefill`] and [`BatchEngine::decode`] are thin wrappers
//! over the same fused step).
//!
//! **Batch-invariance.** Every per-session computation (attention over the
//! session's own cache, LayerNorm, sampling from the session's own RNG) is
//! strictly per-row, and every backend computes GEMM rows independently in
//! a fixed order. Therefore the token stream a session emits is a pure
//! function of its [`Request`] — identical whether the session runs alone
//! ([`BatchEngine::solo_run`]) or inside any batch mix the scheduler
//! assembles. The property suite in `tests/` pins this bit-for-bit.

use crate::request::{Request, Sampling};
use figlut_model::rng::Rng;
use figlut_model::transformer::{KvCache, StepCrew};
use figlut_model::{Backend, Transformer};

/// Why a session left the running set.
///
/// Memory pressure is **not** a finish reason: under pool pressure the
/// scheduler preempts (swaps a session's KV blocks to host and restores
/// them later, bit-identically) instead of killing. Short of its budget a
/// session ends only at the model's positional limit — or before any
/// compute at all, when an admission policy sheds it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FinishReason {
    /// Emitted its full `max_new` budget.
    Completed,
    /// The model's position table (`max_seq`) ran out before the budget
    /// was spent — no backing store can extend a model past its learned
    /// positions, so the session finishes early.
    ContextExhausted,
    /// Shed from the pending queue by the scheduler's admission policy
    /// ([`crate::AdmissionPolicy`]) before any compute ran: zero tokens,
    /// `first_token == finish` stamped at the shed tick. Shed requests are
    /// excluded from goodput — they met no latency contract.
    Shed,
}

/// The live state of one admitted session.
#[derive(Clone, Debug)]
pub struct SessionState {
    /// The originating request.
    pub request: Request,
    /// Tokens emitted so far (the first one is produced by the session's
    /// final prefill chunk).
    pub generated: Vec<usize>,
    /// Virtual-clock tick at which each emitted token appeared (pushed by
    /// the scheduler at the end of the emitting step; `token_ticks[0]` is
    /// the TTFT stamp — set only when the *last* prefill chunk samples the
    /// first token).
    pub token_ticks: Vec<u64>,
    /// Prompt tokens consumed so far: the rows the cache held at start (an
    /// adopted shared prefix), then every prefill chunk.
    pub prefilled: usize,
    /// Virtual-clock tick at which the scheduler admitted the request out
    /// of the pending queue (stamped by the serving loop; 0 until then).
    /// `admitted - arrival` is pure queueing delay, which TTFT alone
    /// conflates with prefill compute time.
    pub admitted: u64,
    /// Prompt rows the cache held at start, which no step computes.
    skipped: usize,
    cache: KvCache,
    rng: Rng,
}

impl SessionState {
    /// Prompt rows the session's cache had already consumed when it
    /// started (an adopted shared prefix; 0 for a fresh cache). Its
    /// prefill computes only the other `prompt.len() − skipped` rows.
    pub fn skipped(&self) -> usize {
        self.skipped
    }

    /// KV-cache positions consumed so far.
    pub fn positions(&self) -> usize {
        self.cache.len()
    }

    /// `true` once the whole prompt has been consumed (the session is
    /// decodable; its first token has been sampled).
    pub fn is_prefilled(&self) -> bool {
        self.prefilled == self.request.prompt.len()
    }

    /// Prompt tokens not yet consumed by a prefill chunk.
    pub fn prefill_remaining(&self) -> usize {
        self.request.prompt.len() - self.prefilled
    }

    /// `true` once the generation budget is spent.
    pub fn is_complete(&self) -> bool {
        self.generated.len() >= self.request.max_new
    }

    /// `true` if the session hit the model's positional limit: budget
    /// unspent but no position left to decode the next token into.
    pub fn is_context_capped(&self, max_seq: usize) -> bool {
        !self.is_complete() && self.cache.len() >= max_seq
    }

    /// The terminal state, if the session is finished either way.
    pub fn finish_reason(&self, max_seq: usize) -> Option<FinishReason> {
        if self.is_complete() {
            Some(FinishReason::Completed)
        } else if self.is_context_capped(max_seq) {
            Some(FinishReason::ContextExhausted)
        } else {
            None
        }
    }

    /// `true` while the session is preempted (KV contents on host, no
    /// blocks held). A swapped session must be [`SessionState::restore`]d
    /// before it can step again.
    pub fn is_swapped(&self) -> bool {
        self.cache.is_swapped()
    }

    /// Preempt: swap the session's KV blocks out to host. Generated
    /// tokens, RNG state, and prefill progress stay in place, so a later
    /// restore resumes bit-identically. Returns the KV positions copied.
    pub fn swap_out(&mut self) -> usize {
        self.cache.swap_out()
    }

    /// Re-admit a preempted session: copy its KV contents back into fresh
    /// pool blocks. Returns the KV positions copied.
    pub fn restore(&mut self) -> usize {
        self.cache.restore()
    }

    /// Pool blocks a restore will allocate (0 when not swapped).
    pub fn restore_blocks(&self) -> usize {
        self.cache.restore_blocks()
    }

    /// Pool blocks that stepping this session by `rows` positions may
    /// allocate.
    pub fn blocks_needed(&self, rows: usize) -> usize {
        self.cache.blocks_needed(rows)
    }

    /// Read access to the session's cache (registration, accounting).
    pub fn cache(&self) -> &KvCache {
        &self.cache
    }

    /// Fault injection: silently flip one stored KV bit, chosen
    /// deterministically from `salt`, without re-stamping the block's
    /// checksum (see [`KvCache::corrupt_row`]). `false` when the session's
    /// cache holds nothing corruptible (swapped out or empty).
    pub fn corrupt_kv(&mut self, salt: u64) -> bool {
        self.cache.corrupt_row(salt)
    }

    /// Verify the session's resident KV blocks against their stored
    /// checksums: `Err(block_index)` names the first corrupted block.
    /// Vacuously `Ok` unless the session's pool was built
    /// [`with_checksums`](figlut_model::BlockPool::with_checksums).
    pub fn verify_kv(&self) -> Result<(), usize> {
        self.cache.verify_checksums()
    }

    /// Re-target a preempted session's host image at `pool`, so a
    /// checkpointed session can be restored into a fresh pool after the
    /// pool that wrote it died with a crashed run (see
    /// [`KvCache::rebind_pool`]).
    ///
    /// # Panics
    ///
    /// Panics if the session is not swapped out or the pool shapes differ.
    pub fn rebind_pool(&mut self, pool: &figlut_model::BlockPool) {
        self.cache.rebind_pool(pool);
    }
}

/// A shared model + backend that executes prefill and batched decode steps.
#[derive(Clone, Debug)]
pub struct BatchEngine<'m> {
    model: &'m Transformer,
    backend: Backend,
}

impl<'m> BatchEngine<'m> {
    /// Wrap a model and an execution backend.
    pub fn new(model: &'m Transformer, backend: Backend) -> Self {
        Self { model, backend }
    }

    /// The model being served.
    pub fn model(&self) -> &Transformer {
        self.model
    }

    /// Run `body` on a crew sized for steps of up to `rows` token rows
    /// ([`Transformer::open_crew`]): a serving run opens one for its
    /// largest possible step and runs every step on it with
    /// [`BatchEngine::step_on`], so no step spawns a thread.
    pub fn open_crew<T>(&self, rows: usize, body: impl FnOnce(&StepCrew<'_, 'm>) -> T) -> T {
        self.model.open_crew(rows, &self.backend, body)
    }

    /// Create the session state for an admitted request (no compute yet),
    /// with a private one-block KV cache ([`Transformer::new_cache`]).
    pub fn start(&self, request: Request) -> SessionState {
        let cache = self.model.new_cache();
        self.start_with_cache(request, cache)
    }

    /// Create the session state for an admitted request over a
    /// caller-provided cache — one from a shared [`BlockPool`] (possibly
    /// pre-loaded with an adopted shared prefix), or a private one-block
    /// cache. The cache choice is invisible to the token stream.
    ///
    /// A session starts at its cache's length: a cache that has consumed
    /// `n` positions must hold the rows of the prompt's first `n` tokens
    /// (what [`PrefixRegistry::adopt_into`] leaves, with `n` below the
    /// prompt length), and prefill feeds the prompt from position `n`. A
    /// fresh cache has length 0, so its prefill runs the whole prompt.
    ///
    /// # Panics
    ///
    /// Panics if the cache already holds the whole prompt: the prompt's
    /// last row must run, because it samples the first token.
    ///
    /// [`BlockPool`]: figlut_model::BlockPool
    /// [`PrefixRegistry::adopt_into`]: figlut_model::PrefixRegistry::adopt_into
    pub fn start_with_cache(&self, request: Request, cache: KvCache) -> SessionState {
        let rng = Rng::new(request.seed);
        let skipped = cache.len();
        assert!(
            skipped == 0 || skipped < request.prompt.len(),
            "request {}: the cache holds {skipped} positions of a {}-token prompt",
            request.id,
            request.prompt.len()
        );
        SessionState {
            request,
            generated: Vec::new(),
            token_ticks: Vec::new(),
            prefilled: skipped,
            admitted: 0,
            skipped,
            cache,
            rng,
        }
    }

    /// Run the session's remaining prompt through the model as one chunk,
    /// sample its first token, and return the number of token-rows
    /// processed (`prompt.len() − skipped` — the step's virtual-clock
    /// weight). Thin wrapper over [`BatchEngine::step`] with no decode rows
    /// and an unbounded chunk budget.
    ///
    /// # Panics
    ///
    /// Panics if the session was already prefilled.
    pub fn prefill(&self, s: &mut SessionState) -> usize {
        let budget = s.request.prompt.len();
        self.step(&mut [], Some(s), budget)
    }

    /// One continuous-batching decode step: every session consumes its last
    /// emitted token and samples the next one. Thin wrapper over
    /// [`BatchEngine::step`] with no prefill chunk.
    ///
    /// # Panics
    ///
    /// Panics on an empty batch or a session that is unprefilled, complete,
    /// swapped out, or past the model's positional limit (each guard names
    /// the offending request id — a preempted session must be restored, and
    /// a context-capped one must leave the running set, before a step).
    pub fn decode(&self, sessions: &mut [&mut SessionState]) {
        assert!(!sessions.is_empty(), "empty decode batch");
        let _ = self.step(sessions, None, 0);
    }

    /// One fused **mixed step**: every `decoding` session consumes its last
    /// emitted token, and `prefilling` (if any) consumes its next prompt
    /// chunk of up to `budget` tokens — all token-rows in a single
    /// [`Transformer::forward_batch`] call, so one traversal of the shared
    /// packed weights serves decode and prefill rows alike. Returns the
    /// number of prompt rows consumed (0 without a prefill part).
    ///
    /// When the chunk is the prompt's last, its final logits row samples the
    /// session's first token — exactly the row a whole-prompt prefill
    /// samples, so chunking never changes the token (the session's RNG is
    /// untouched until then). Intermediate chunks sample nothing.
    ///
    /// # Panics
    ///
    /// Panics on a step with no rows at all, a decode session that is
    /// unprefilled, complete, swapped out, or past the positional limit
    /// (by request id), a prefill session that is already fully prefilled
    /// or swapped out, or a zero `budget` with a prefill session.
    pub fn step(
        &self,
        decoding: &mut [&mut SessionState],
        prefilling: Option<&mut SessionState>,
        budget: usize,
    ) -> usize {
        self.step_with(None, decoding, prefilling, budget)
    }

    /// [`BatchEngine::step`] on a crew opened with
    /// [`BatchEngine::open_crew`] (the serving loop's): the one transformer
    /// body runs on the crew's threads, and sampling stays on the caller.
    /// The tokens are the same on any crew.
    ///
    /// # Panics
    ///
    /// As [`BatchEngine::step`].
    pub fn step_on(
        &self,
        crew: &StepCrew<'_, 'm>,
        decoding: &mut [&mut SessionState],
        prefilling: Option<&mut SessionState>,
        budget: usize,
    ) -> usize {
        self.step_with(Some(crew), decoding, prefilling, budget)
    }

    /// The step, on `crew` or on a crew of its own.
    fn step_with(
        &self,
        crew: Option<&StepCrew<'_, 'm>>,
        decoding: &mut [&mut SessionState],
        mut prefilling: Option<&mut SessionState>,
        budget: usize,
    ) -> usize {
        let max_seq = self.model.cfg.max_seq;
        assert!(
            !decoding.is_empty() || prefilling.is_some(),
            "empty step: no decode rows and no prefill chunk"
        );
        let tokens: Vec<usize> = decoding
            .iter()
            .map(|s| {
                assert!(s.is_prefilled(), "request {}: not prefilled", s.request.id);
                assert!(
                    !s.is_complete(),
                    "request {}: already complete",
                    s.request.id
                );
                // Guards here, where the request is known: deeper layers
                // only know batch indices.
                assert!(
                    !s.is_swapped(),
                    "request {}: stepped while swapped out — restore before decoding",
                    s.request.id
                );
                assert!(
                    s.positions() < max_seq,
                    "request {}: context exhausted ({max_seq} positions) — finish instead of decoding",
                    s.request.id
                );
                // audit: allow(panic) — decoding sessions are prefilled, so generated holds the prompt-final token
                *s.generated.last().unwrap()
            })
            .collect();
        let (start, take) = match &prefilling {
            Some(s) => {
                assert!(budget >= 1, "prefill session with a zero chunk budget");
                assert!(!s.is_prefilled(), "session {} re-prefilled", s.request.id);
                assert!(
                    !s.is_swapped(),
                    "request {}: stepped while swapped out — restore before prefilling",
                    s.request.id
                );
                let start = s.prefilled;
                let take = budget.min(s.prefill_remaining());
                assert!(
                    s.positions() + take <= max_seq,
                    "request {}: prefill chunk overflows the KV cache",
                    s.request.id
                );
                (start, take)
            }
            None => (0, 0),
        };
        let logits = {
            // Every session's cache is lent in place for the step.
            let mut chunks: Vec<&[usize]> = tokens.iter().map(std::slice::from_ref).collect();
            let mut caches: Vec<&mut KvCache> = decoding.iter_mut().map(|s| &mut s.cache).collect();
            if let Some(s) = prefilling.as_deref_mut() {
                chunks.push(&s.request.prompt[start..start + take]);
                caches.push(&mut s.cache);
            }
            match crew {
                Some(crew) => (self.model).forward_on(crew, &chunks, &mut caches, &self.backend),
                None => (self.model).forward_batch(&chunks, &mut caches, &self.backend),
            }
        };
        for (i, s) in decoding.iter_mut().enumerate() {
            let next = sample(logits.row(i), &s.request.sampling, &mut s.rng);
            s.generated.push(next);
        }
        if let Some(s) = prefilling {
            s.prefilled = start + take;
            if s.is_prefilled() {
                // The prompt's last row — bit-identical to the row a
                // whole-prompt prefill samples — emits the first token.
                let first = sample(
                    logits.row(decoding.len() + take - 1),
                    &s.request.sampling,
                    &mut s.rng,
                );
                s.generated.push(first);
            }
        }
        take
    }

    /// The batch-1 reference: run `request` completely alone (fresh state,
    /// prefill, then decode steps until completion or eviction) and return
    /// its emitted tokens. This is the ground truth the scheduler's output
    /// must match token-for-token at every `max_batch` and policy.
    pub fn solo_run(&self, request: &Request) -> Vec<usize> {
        let max_seq = self.model.cfg.max_seq;
        let mut s = self.start(request.clone());
        let _ = self.prefill(&mut s);
        while s.finish_reason(max_seq).is_none() {
            self.decode(&mut [&mut s]);
        }
        s.generated
    }
}

/// Deterministic token selection from one logits row.
///
/// # Panics
///
/// Panics if the row contains a non-finite value: greedy argmax would
/// silently return token 0 on an all-NaN row (`v > row[best]` is false for
/// every comparison), and temperature weights would be NaN-poisoned — a
/// corrupted model must fail loudly, not emit plausible-looking tokens.
fn sample(row: &[f64], sampling: &Sampling, rng: &mut Rng) -> usize {
    assert!(
        row.iter().all(|v| v.is_finite()),
        "non-finite logits row: refusing to sample from a poisoned model"
    );
    match sampling {
        Sampling::Greedy => {
            let mut best = 0usize;
            for (i, &v) in row.iter().enumerate() {
                if v > row[best] {
                    best = i;
                }
            }
            best
        }
        Sampling::Temperature(t) => {
            let max = row.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            let weights: Vec<f64> = row.iter().map(|&l| ((l - max) / t).exp()).collect();
            rng.categorical(&weights)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{synthetic_trace, TraceParams};
    use figlut_model::ModelConfig;

    fn engine_model() -> Transformer {
        Transformer::teacher(ModelConfig::tiny(), 77)
    }

    #[test]
    fn solo_run_is_deterministic_and_within_budget() {
        let m = engine_model();
        let e = BatchEngine::new(&m, Backend::Exact);
        let t = synthetic_trace(&m.cfg, &TraceParams::light(3), 5);
        for r in &t.requests {
            let a = e.solo_run(r);
            let b = e.solo_run(r);
            assert_eq!(a, b);
            assert!(!a.is_empty() && a.len() <= r.max_new);
            assert!(a.iter().all(|&tok| tok < m.cfg.vocab));
        }
    }

    #[test]
    fn batched_decode_matches_solo_tokens() {
        let m = engine_model();
        let e = BatchEngine::new(&m, Backend::Exact);
        let t = synthetic_trace(&m.cfg, &TraceParams::light(4), 11);
        let solo: Vec<Vec<usize>> = t.requests.iter().map(|r| e.solo_run(r)).collect();
        let mut sessions: Vec<SessionState> =
            t.requests.iter().map(|r| e.start(r.clone())).collect();
        for s in &mut sessions {
            let _ = e.prefill(s);
        }
        let max_seq = m.cfg.max_seq;
        loop {
            let mut live: Vec<&mut SessionState> = sessions
                .iter_mut()
                .filter(|s| s.finish_reason(max_seq).is_none())
                .collect();
            if live.is_empty() {
                break;
            }
            e.decode(&mut live);
        }
        for (s, want) in sessions.iter().zip(&solo) {
            assert_eq!(&s.generated, want, "request {}", s.request.id);
        }
    }

    #[test]
    fn temperature_sampling_is_per_session_deterministic() {
        let m = engine_model();
        let e = BatchEngine::new(&m, Backend::Exact);
        let mut t = synthetic_trace(&m.cfg, &TraceParams::light(2), 8);
        for r in &mut t.requests {
            r.sampling = Sampling::Temperature(0.8);
        }
        let solo: Vec<Vec<usize>> = t.requests.iter().map(|r| e.solo_run(r)).collect();
        assert_eq!(solo[0], e.solo_run(&t.requests[0]));
        // Batched pair must reproduce both solo streams: the RNGs are
        // per-session, so co-scheduling cannot perturb the draws.
        let mut a = e.start(t.requests[0].clone());
        let mut b = e.start(t.requests[1].clone());
        let _ = e.prefill(&mut a);
        let _ = e.prefill(&mut b);
        let max_seq = m.cfg.max_seq;
        while a.finish_reason(max_seq).is_none() && b.finish_reason(max_seq).is_none() {
            e.decode(&mut [&mut a, &mut b]);
        }
        for s in [&mut a, &mut b] {
            while s.finish_reason(max_seq).is_none() {
                e.decode(&mut [s]);
            }
        }
        assert_eq!(a.generated, solo[0]);
        assert_eq!(b.generated, solo[1]);
    }

    #[test]
    fn context_exhaustion_fires_at_the_positional_limit() {
        let m = engine_model();
        let e = BatchEngine::new(&m, Backend::Exact);
        // A request whose budget cannot fit: prompt 30 + 20 new > max_seq 40.
        // (Built by hand — synthetic_trace refuses to generate these.)
        let r = Request {
            id: 0,
            arrival: 0,
            prompt: (0..30).map(|i| i % m.cfg.vocab).collect(),
            max_new: 20,
            sampling: Sampling::Greedy,
            seed: 1,
        };
        let mut s = e.start(r.clone());
        let _ = e.prefill(&mut s);
        while s.finish_reason(m.cfg.max_seq).is_none() {
            e.decode(&mut [&mut s]);
        }
        assert_eq!(
            s.finish_reason(m.cfg.max_seq),
            Some(FinishReason::ContextExhausted)
        );
        // 30 prompt positions + 10 decodes exhaust the 40-position table;
        // prefill plus those decodes emitted 11 of the 20 budgeted tokens.
        assert_eq!(s.generated.len(), 11);
        assert_eq!(s.generated, e.solo_run(&r));
    }

    #[test]
    #[should_panic(expected = "re-prefilled")]
    fn double_prefill_panics() {
        let m = engine_model();
        let e = BatchEngine::new(&m, Backend::Exact);
        let t = synthetic_trace(&m.cfg, &TraceParams::light(1), 5);
        let mut s = e.start(t.requests[0].clone());
        let _ = e.prefill(&mut s);
        let _ = e.prefill(&mut s);
    }

    #[test]
    #[should_panic(expected = "request 7: context exhausted")]
    fn decoding_a_context_capped_session_panics_with_the_request_id() {
        // A position-exhausted session handed to a decode step must be
        // caught at the engine layer, where the request id is known — not
        // deep inside decode_batch, which can only name the batch index.
        let m = engine_model();
        let e = BatchEngine::new(&m, Backend::Exact);
        let r = Request {
            id: 7,
            arrival: 0,
            prompt: (0..30).map(|i| i % m.cfg.vocab).collect(),
            max_new: 20, // 30 + 20 > max_seq 40: will exhaust the positions
            sampling: Sampling::Greedy,
            seed: 1,
        };
        let mut s = e.start(r);
        let _ = e.prefill(&mut s);
        while !s.is_context_capped(m.cfg.max_seq) {
            e.decode(&mut [&mut s]);
        }
        e.decode(&mut [&mut s]); // must panic, naming request 7
    }

    #[test]
    #[should_panic(expected = "request 9: stepped while swapped out")]
    fn decoding_a_swapped_session_panics_with_the_request_id() {
        // The preemption-era companion of the guard above: a session the
        // scheduler swapped out must never reach a step un-restored.
        let m = engine_model();
        let e = BatchEngine::new(&m, Backend::Exact);
        let pool = figlut_model::BlockPool::for_model(&m.cfg, 4, None);
        let mut t = synthetic_trace(&m.cfg, &TraceParams::light(1), 5);
        t.requests[0].id = 9;
        let mut s = e.start_with_cache(t.requests[0].clone(), m.new_paged_cache(&pool));
        let _ = e.prefill(&mut s);
        let _ = s.swap_out();
        e.decode(&mut [&mut s]); // must panic, naming request 9
    }

    #[test]
    fn preempt_restore_resumes_the_solo_stream_bit_identically() {
        // Swap a session out mid-generation, restore it, and finish: the
        // emitted tokens must equal the never-preempted solo run.
        let m = engine_model();
        let e = BatchEngine::new(&m, Backend::Exact);
        let pool = figlut_model::BlockPool::for_model(&m.cfg, 2, None);
        let t = synthetic_trace(&m.cfg, &TraceParams::light(2), 13);
        for r in &t.requests {
            let solo = e.solo_run(r);
            let mut s = e.start_with_cache(r.clone(), m.new_paged_cache(&pool));
            let _ = e.prefill(&mut s);
            let mut preempts = 0;
            while s.finish_reason(m.cfg.max_seq).is_none() {
                let rows_out = s.swap_out();
                assert!(s.is_swapped());
                let rows_in = s.restore();
                assert_eq!(rows_out, rows_in);
                preempts += 1;
                e.decode(&mut [&mut s]);
            }
            assert!(preempts >= 1);
            assert_eq!(s.generated, solo, "request {}", r.id);
        }
        assert_eq!(pool.live_blocks(), 0, "sessions returned their blocks");
    }

    #[test]
    #[should_panic(expected = "non-finite logits row")]
    fn sampling_nan_poisoned_logits_panics() {
        // Greedy argmax over all-NaN logits would silently pick token 0
        // (every `v > row[best]` comparison is false); it must panic.
        let mut rng = Rng::new(1);
        let row = vec![f64::NAN; 8];
        let _ = sample(&row, &Sampling::Greedy, &mut rng);
    }

    #[test]
    fn chunked_prefill_emits_the_same_first_token() {
        // Feeding the prompt through `step` in chunks of 1, 2, and 3 must
        // produce the same first token and cache state as the whole-prompt
        // prefill — the last chunk samples the same logits row.
        let m = engine_model();
        let e = BatchEngine::new(&m, Backend::Exact);
        let t = synthetic_trace(&m.cfg, &TraceParams::light(3), 19);
        for r in &t.requests {
            let mut whole = e.start(r.clone());
            let _ = e.prefill(&mut whole);
            for budget in [1usize, 2, 3] {
                let mut s = e.start(r.clone());
                let mut consumed = 0;
                while !s.is_prefilled() {
                    assert!(s.generated.is_empty(), "sampled before the last chunk");
                    consumed += e.step(&mut [], Some(&mut s), budget);
                }
                assert_eq!(consumed, r.prompt.len());
                assert_eq!(s.generated, whole.generated, "budget {budget}");
                assert_eq!(s.positions(), whole.positions());
            }
        }
    }

    #[test]
    fn mixed_step_matches_segregated_phases() {
        // One fused step (decodes + prefill chunk) must leave every session
        // in exactly the state that separate decode and prefill-chunk steps
        // produce — and, transitively, the solo batch-1 state.
        let m = engine_model();
        let e = BatchEngine::new(&m, Backend::Exact);
        let t = synthetic_trace(&m.cfg, &TraceParams::light(4), 23);
        let solo: Vec<Vec<usize>> = t.requests.iter().map(|r| e.solo_run(r)).collect();

        // Two decoding sessions + one session prefilled in chunks of 2,
        // everything fused into mixed steps.
        let mut a = e.start(t.requests[0].clone());
        let mut b = e.start(t.requests[1].clone());
        let mut c = e.start(t.requests[2].clone());
        let _ = e.prefill(&mut a);
        let _ = e.prefill(&mut b);
        let max_seq = m.cfg.max_seq;
        while !c.is_prefilled() {
            let mut decoding: Vec<&mut SessionState> = Vec::new();
            for s in [&mut a, &mut b] {
                if s.finish_reason(max_seq).is_none() {
                    decoding.push(s);
                }
            }
            let _ = e.step(&mut decoding, Some(&mut c), 2);
        }
        for s in [&mut a, &mut b, &mut c] {
            while s.finish_reason(max_seq).is_none() {
                e.decode(&mut [s]);
            }
        }
        assert_eq!(a.generated, solo[0]);
        assert_eq!(b.generated, solo[1]);
        assert_eq!(c.generated, solo[2]);
    }
}
