//! Serving requests and seeded arrival traces.
//!
//! A [`Request`] is one user session: a prompt, a generation budget, a
//! sampling rule, and a per-session seed. A [`Trace`] is a reproducible
//! workload — requests with virtual-clock arrival times — so every
//! throughput or latency number the scheduler reports is measured under a
//! *named*, regenerable load (the "realistic, reproducible workload"
//! requirement benchmarking methodology keeps insisting on).

use figlut_model::rng::Rng;
use figlut_model::ModelConfig;

/// How a session turns next-token logits into a token.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Sampling {
    /// Argmax (ties break toward the lowest token id).
    Greedy,
    /// Softmax sampling at the given temperature, driven by the session's
    /// own seeded RNG — deterministic, and independent of every other
    /// session in the batch.
    Temperature(f64),
}

/// One serving request.
#[derive(Clone, Debug, PartialEq)]
pub struct Request {
    /// Stable identifier (also the tie-breaker for simultaneous arrivals).
    pub id: usize,
    /// Arrival time on the virtual clock (ticks).
    pub arrival: u64,
    /// Prompt token ids (non-empty; first token is conventionally BOS 0).
    pub prompt: Vec<usize>,
    /// Generation budget: the session completes after this many new tokens.
    pub max_new: usize,
    /// Token selection rule.
    pub sampling: Sampling,
    /// Seed of the session's sampling RNG.
    pub seed: u64,
}

/// A reproducible arrival trace: requests sorted by `(arrival, id)`.
#[derive(Clone, Debug, PartialEq)]
pub struct Trace {
    /// The requests, in arrival order.
    pub requests: Vec<Request>,
}

impl Trace {
    /// Number of requests.
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// `true` if the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }

    /// Check the trace against a model: prompts non-empty and in-vocab,
    /// the prompt within `max_seq`, sampling temperatures positive and
    /// finite, arrivals sorted.
    ///
    /// A *zero* generation budget is allowed: the scheduler finishes such
    /// a request at its admission tick with zero tokens and a well-defined
    /// [`RequestMetrics`](crate::metrics::RequestMetrics) (prefilling it
    /// would wrongly emit a first token — the prompt's last row always
    /// samples), so degenerate budgets never panic the serving loop.
    ///
    /// A *budget* exceeding the remaining context is allowed: such a
    /// session is served until the model's position table runs out and then
    /// finishes early
    /// ([`FinishReason::ContextExhausted`](crate::engine::FinishReason)) —
    /// the standard serving behavior at the context limit. (Memory pressure
    /// never finishes a session: the scheduler preempts and restores
    /// instead.) Only prompts that cannot even be prefilled are rejected
    /// (prefill emits the first token, so a fitting prompt always produces
    /// at least one token).
    ///
    /// # Panics
    ///
    /// Panics (with the offending request id) on any violation.
    pub fn validate(&self, cfg: &ModelConfig) {
        let mut last = (0u64, 0usize);
        for r in &self.requests {
            assert!(!r.prompt.is_empty(), "request {}: empty prompt", r.id);
            if let Sampling::Temperature(t) = r.sampling {
                assert!(
                    t > 0.0 && t.is_finite(),
                    "request {}: temperature {t} must be positive and finite",
                    r.id
                );
            }
            for &t in &r.prompt {
                assert!(t < cfg.vocab, "request {}: token {t} out of vocab", r.id);
            }
            assert!(
                r.prompt.len() <= cfg.max_seq,
                "request {}: prompt of {} exceeds max_seq {}",
                r.id,
                r.prompt.len(),
                cfg.max_seq
            );
            assert!(
                (r.arrival, r.id) >= last,
                "request {}: trace not sorted by (arrival, id)",
                r.id
            );
            last = (r.arrival, r.id);
        }
    }
}

/// Knobs of [`synthetic_trace`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TraceParams {
    /// Number of requests.
    pub requests: usize,
    /// Mean inter-arrival gap in ticks (exponential; 0 = all at tick 0).
    pub mean_interarrival: f64,
    /// Inclusive prompt-length range (first token is always BOS 0).
    pub prompt_len: (usize, usize),
    /// Inclusive range of the per-request generation budget.
    pub new_tokens: (usize, usize),
    /// Sampling rule shared by every request.
    pub sampling: Sampling,
}

impl TraceParams {
    /// A light open-loop load: a handful of short-prompt requests.
    pub fn light(requests: usize) -> Self {
        Self {
            requests,
            mean_interarrival: 24.0,
            prompt_len: (2, 6),
            new_tokens: (3, 8),
            sampling: Sampling::Greedy,
        }
    }
}

/// Generate a seeded open-loop arrival trace for a model of shape `cfg`.
///
/// Arrival gaps are exponential with mean `mean_interarrival` (the standard
/// open-loop Poisson arrival model), prompt bodies are uniform over the
/// vocabulary, and each request gets a distinct sampling seed derived from
/// `seed` — everything is a pure function of `(cfg, params, seed)`.
///
/// # Panics
///
/// Panics if a range is inverted or the longest request cannot fit in
/// `cfg.max_seq`.
pub fn synthetic_trace(cfg: &ModelConfig, params: &TraceParams, seed: u64) -> Trace {
    let (prompt, new) = (params.prompt_len, params.new_tokens);
    check_ranges(cfg, prompt, new);
    let mean = params.mean_interarrival;
    request_loop(
        cfg,
        Rng::new(seed),
        params.requests,
        (seed, 0x5e1e_c7ed),
        params.sampling,
        |rng, id| {
            // Unlike the scenario families, a zero mean draws no gap at all.
            let gap = if mean > 0.0 {
                exp_gap(rng, id, mean)
            } else {
                0
            };
            let len = between(rng, prompt);
            (gap, bos_prompt(rng, cfg.vocab, len), between(rng, new))
        },
    )
}

/// Knobs of [`flash_crowd_trace`]: a tight spike of requests that all
/// share one prompt prefix (the "everyone pastes the same article"
/// pattern) with short divergent tails — the scenario paged-KV prefix
/// sharing and admission queues feel the hardest.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FlashCrowdParams {
    /// Number of requests.
    pub requests: usize,
    /// Mean inter-arrival gap in ticks (exponential; small = spike).
    pub mean_interarrival: f64,
    /// Length of the shared prompt prefix (≥ 1; first token is BOS 0).
    pub prefix_len: usize,
    /// Inclusive range of the per-request divergent tail length.
    pub tail_len: (usize, usize),
    /// Inclusive range of the per-request generation budget.
    pub new_tokens: (usize, usize),
    /// Sampling rule shared by every request.
    pub sampling: Sampling,
}

/// Generate a seeded flash-crowd trace: one shared prefix (drawn once
/// from `seed`), per-request divergent tails, arrivals packed into a
/// spike. A pure function of `(cfg, params, seed)`.
///
/// # Panics
///
/// Panics if a range is inverted, `prefix_len` is 0, or the longest
/// request cannot fit in `cfg.max_seq`.
pub fn flash_crowd_trace(cfg: &ModelConfig, params: &FlashCrowdParams, seed: u64) -> Trace {
    let (tail, new, prefix_len) = (params.tail_len, params.new_tokens, params.prefix_len);
    assert!(prefix_len >= 1, "prefix_len must be >= 1");
    check_ranges(cfg, (prefix_len + tail.0, prefix_len + tail.1), new);
    let mean = params.mean_interarrival;
    let mut rng = Rng::new(seed);
    let prefix = bos_prompt(&mut rng, cfg.vocab, prefix_len);
    request_loop(
        cfg,
        rng,
        params.requests,
        (seed, 0xf1a5_c04d),
        params.sampling,
        |rng, id| {
            let gap = exp_gap(rng, id, mean);
            let mut prompt = prefix.clone();
            let len = between(rng, tail);
            prompt.extend((0..len).map(|_| rng.below(cfg.vocab)));
            (gap, prompt, between(rng, new))
        },
    )
}

/// The request loop of every trace family. For each id in turn, `next`
/// draws that request's `(gap, prompt, max_new)` from `rng` in the
/// family's own order; the gaps accumulate into arrival ticks, and each
/// request's sampling seed mixes `seed` with the family's `salt`, so two
/// families at the same top-level seed still produce distinct traces.
/// The finished trace is validated against `cfg`.
fn request_loop(
    cfg: &ModelConfig,
    mut rng: Rng,
    requests: usize,
    (seed, salt): (u64, u64),
    sampling: Sampling,
    mut next: impl FnMut(&mut Rng, usize) -> (u64, Vec<usize>, usize),
) -> Trace {
    let mut clock = 0u64;
    let requests = (0..requests)
        .map(|id| {
            let (gap, prompt, max_new) = next(&mut rng, id);
            clock += gap;
            Request {
                id,
                arrival: clock,
                prompt,
                max_new,
                sampling,
                seed: seed ^ salt.wrapping_add(id as u64).wrapping_mul(0x9e37),
            }
        })
        .collect();
    let trace = Trace { requests };
    trace.validate(cfg);
    trace
}

/// Assert the inclusive prompt-length and budget ranges are ordered and
/// start at 1, and that the longest request fits in `cfg.max_seq`.
fn check_ranges(cfg: &ModelConfig, (pmin, pmax): (usize, usize), (nmin, nmax): (usize, usize)) {
    assert!(pmin >= 1 && pmin <= pmax, "inverted prompt length range");
    assert!(nmin >= 1 && nmin <= nmax, "inverted new_tokens range");
    assert!(
        pmax + nmax <= cfg.max_seq,
        "prompt {pmax} + new {nmax} exceeds max_seq {}",
        cfg.max_seq
    );
}

/// A prompt of `len` tokens: BOS 0, then uniform draws over the vocabulary.
///
/// Grown by `push`, not collected to its exact length: the exact-capacity
/// buffers landed elsewhere in the heap, and glibc then returned a dropped
/// model's pages to the OS between `serve-wide`'s repeated set-ups — twice
/// the page faults, and `setup_s` ×1.14 on a 2-vCPU host.
fn bos_prompt(rng: &mut Rng, vocab: usize, len: usize) -> Vec<usize> {
    let mut prompt = vec![0];
    for _ in 1..len {
        prompt.push(rng.below(vocab));
    }
    prompt
}

/// A uniform draw from the inclusive range `(lo, hi)`.
fn between(rng: &mut Rng, (lo, hi): (usize, usize)) -> usize {
    lo + rng.below(hi - lo + 1)
}

/// Exponential gap before request `id` with the given mean, rounded up to
/// whole ticks; request 0 arrives at tick 0 and draws nothing.
///
/// Every later request consumes exactly one RNG draw — even for a
/// degenerate mean — so scaling a scenario's arrival rate can never shift
/// the draws that shape prompts and budgets: the same `(scenario,
/// requests, seed)` produces the same request *contents* at every load,
/// only the arrival times move.
fn exp_gap(rng: &mut Rng, id: usize, mean: f64) -> u64 {
    if id == 0 {
        return 0;
    }
    let u = rng.uniform();
    if mean <= 0.0 {
        0
    } else {
        (-mean * (1.0 - u).ln()).ceil() as u64
    }
}

/// One draw from a bounded Pareto distribution on `[lo, hi]` with shape
/// `alpha` (inverse-CDF method), floored to an integer and clamped.
fn bounded_pareto(rng: &mut Rng, lo: usize, hi: usize, alpha: f64) -> usize {
    let u = rng.uniform();
    let (l, h) = (lo as f64, hi as f64);
    let (la, ha) = (l.powf(-alpha), h.powf(-alpha));
    let x = (la - u * (la - ha)).powf(-1.0 / alpha);
    (x.floor() as usize).clamp(lo, hi)
}

/// The named trace-scenario library: four seed-deterministic load shapes
/// behind one dial. [`Scenario::trace`] scales each scenario's *arrival
/// rate* by a load multiplier while keeping prompts and budgets fixed —
/// the same `(scenario, requests, seed)` serves the same work at 1× and
/// 10×, so goodput differences are purely scheduling, never workload
/// drift (the `ext-overload` experiment's contract). Gaps below are at
/// load 1; every scenario samples greedily.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scenario {
    /// Open-loop Poisson arrivals (mean gap 12 ticks), uniform prompt
    /// lengths 4–10 and budgets 6–14 ([`synthetic_trace`]).
    Steady,
    /// A two-state on-off (MMPP-style) process with Steady's lengths:
    /// geometric bursts (mean 4 requests) of 4-tick mean gaps, separated
    /// by 48-tick mean quiet gaps.
    Bursty,
    /// Poisson arrivals (mean gap 12 ticks) with bounded-Pareto
    /// (α = 1.1) prompt lengths 2–24 and budgets 2–12: most requests are
    /// short, a few are near the context limit, which is what makes
    /// head-of-line blocking and occupancy collapse visible.
    HeavyTail,
    /// A 3-tick-gap spike sharing one 12-token prompt prefix, tails 1–6
    /// and budgets 4–10 ([`flash_crowd_trace`]).
    FlashCrowd,
}

impl Scenario {
    /// Every scenario, in reporting order.
    pub const ALL: [Scenario; 4] = [
        Scenario::Steady,
        Scenario::Bursty,
        Scenario::HeavyTail,
        Scenario::FlashCrowd,
    ];

    /// Short display name (also the experiment-table row label).
    pub fn name(&self) -> &'static str {
        match self {
            Scenario::Steady => "steady",
            Scenario::Bursty => "bursty",
            Scenario::HeavyTail => "heavy-tail",
            Scenario::FlashCrowd => "flash-crowd",
        }
    }

    /// Generate this scenario's trace at an arrival-rate multiplier of
    /// `load` (1.0 = the scenario's nominal rate; 10.0 = ten times as
    /// fast). Request contents are independent of `load` (see the type
    /// docs); the built-in length ranges fit any model with
    /// `max_seq >= 40` (both repo test shapes).
    ///
    /// # Panics
    ///
    /// Panics if `load` is not positive and finite, or the model's
    /// context is too short for the scenario's ranges.
    pub fn trace(&self, cfg: &ModelConfig, requests: usize, load: f64, seed: u64) -> Trace {
        assert!(
            load > 0.0 && load.is_finite(),
            "load {load} must be positive and finite"
        );
        let greedy = Sampling::Greedy;
        match self {
            Scenario::Steady => synthetic_trace(
                cfg,
                &TraceParams {
                    requests,
                    mean_interarrival: 12.0 / load,
                    prompt_len: (4, 10),
                    new_tokens: (6, 14),
                    sampling: greedy,
                },
                seed,
            ),
            Scenario::Bursty => {
                let (prompt, new) = ((4, 10), (6, 14));
                check_ranges(cfg, prompt, new);
                let mut quiet = false;
                request_loop(
                    cfg,
                    Rng::new(seed),
                    requests,
                    (seed, 0xb7a5_7e11),
                    greedy,
                    |rng, id| {
                        let gap = exp_gap(rng, id, if quiet { 48.0 / load } else { 4.0 / load });
                        // Geometric burst end — drawn for every request so the
                        // stream position is load-independent.
                        quiet = rng.uniform() < 1.0 / 4.0;
                        let len = between(rng, prompt);
                        (gap, bos_prompt(rng, cfg.vocab, len), between(rng, new))
                    },
                )
            }
            Scenario::HeavyTail => {
                check_ranges(cfg, (2, 24), (2, 12));
                request_loop(
                    cfg,
                    Rng::new(seed),
                    requests,
                    (seed, 0x4ea1_7a11),
                    greedy,
                    |rng, id| {
                        let gap = exp_gap(rng, id, 12.0 / load);
                        let len = bounded_pareto(rng, 2, 24, 1.1);
                        let prompt = bos_prompt(rng, cfg.vocab, len);
                        (gap, prompt, bounded_pareto(rng, 2, 12, 1.1))
                    },
                )
            }
            Scenario::FlashCrowd => flash_crowd_trace(
                cfg,
                &FlashCrowdParams {
                    requests,
                    mean_interarrival: 3.0 / load,
                    prefix_len: 12,
                    tail_len: (1, 6),
                    new_tokens: (4, 10),
                    sampling: greedy,
                },
                seed,
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_trace_is_deterministic_and_valid() {
        let cfg = ModelConfig::tiny();
        let p = TraceParams::light(6);
        let a = synthetic_trace(&cfg, &p, 9);
        let b = synthetic_trace(&cfg, &p, 9);
        assert_eq!(a, b);
        assert_eq!(a.len(), 6);
        let c = synthetic_trace(&cfg, &p, 10);
        assert_ne!(a, c);
    }

    #[test]
    fn arrivals_are_sorted_and_spread() {
        let cfg = ModelConfig::tiny();
        let t = synthetic_trace(&cfg, &TraceParams::light(8), 3);
        let arr: Vec<u64> = t.requests.iter().map(|r| r.arrival).collect();
        assert!(arr.windows(2).all(|w| w[0] <= w[1]));
        assert!(arr.last().unwrap() > &0, "gaps should accumulate");
    }

    #[test]
    fn zero_interarrival_means_burst() {
        let cfg = ModelConfig::tiny();
        let p = TraceParams {
            mean_interarrival: 0.0,
            ..TraceParams::light(4)
        };
        let t = synthetic_trace(&cfg, &p, 1);
        assert!(t.requests.iter().all(|r| r.arrival == 0));
    }

    #[test]
    #[should_panic(expected = "exceeds max_seq")]
    fn oversized_requests_rejected() {
        let cfg = ModelConfig::tiny();
        let p = TraceParams {
            prompt_len: (30, 30),
            new_tokens: (20, 20),
            ..TraceParams::light(1)
        };
        let _ = synthetic_trace(&cfg, &p, 0);
    }

    #[test]
    fn seeds_differ_per_request() {
        let cfg = ModelConfig::tiny();
        let t = synthetic_trace(&cfg, &TraceParams::light(5), 2);
        let mut seeds: Vec<u64> = t.requests.iter().map(|r| r.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 5);
    }

    #[test]
    fn scenarios_are_deterministic_and_valid() {
        let cfg = ModelConfig::tiny();
        for sc in Scenario::ALL {
            let a = sc.trace(&cfg, 10, 1.0, 7);
            let b = sc.trace(&cfg, 10, 1.0, 7);
            assert_eq!(a, b, "{} must be a pure function of its seed", sc.name());
            assert_eq!(a.len(), 10, "{}", sc.name());
            a.validate(&cfg);
            let c = sc.trace(&cfg, 10, 1.0, 8);
            assert_ne!(a, c, "{} must vary with the seed", sc.name());
        }
    }

    #[test]
    fn load_moves_arrivals_but_not_request_contents() {
        let cfg = ModelConfig::tiny();
        for sc in Scenario::ALL {
            let light = sc.trace(&cfg, 12, 1.0, 11);
            let crush = sc.trace(&cfg, 12, 10.0, 11);
            let strip = |t: &Trace| {
                t.requests
                    .iter()
                    .map(|r| (r.id, r.prompt.clone(), r.max_new, r.seed))
                    .collect::<Vec<_>>()
            };
            assert_eq!(
                strip(&light),
                strip(&crush),
                "{}: load must only rescale arrivals",
                sc.name()
            );
            let span = |t: &Trace| t.requests.last().unwrap().arrival;
            assert!(
                span(&crush) <= span(&light),
                "{}: 10x load should compress the arrival span ({} vs {})",
                sc.name(),
                span(&crush),
                span(&light)
            );
        }
    }

    #[test]
    fn scenarios_differ_from_each_other_at_the_same_seed() {
        let cfg = ModelConfig::tiny();
        let traces: Vec<Trace> = Scenario::ALL
            .iter()
            .map(|sc| sc.trace(&cfg, 8, 1.0, 3))
            .collect();
        for i in 0..traces.len() {
            for j in i + 1..traces.len() {
                assert_ne!(
                    traces[i],
                    traces[j],
                    "{} vs {} collided",
                    Scenario::ALL[i].name(),
                    Scenario::ALL[j].name()
                );
            }
        }
    }

    #[test]
    fn bursty_trace_has_on_off_structure() {
        let cfg = ModelConfig::tiny();
        let t = Scenario::Bursty.trace(&cfg, 24, 1.0, 5);
        let gaps: Vec<u64> = t
            .requests
            .windows(2)
            .map(|w| w[1].arrival - w[0].arrival)
            .collect();
        // With an off mean 12x the on mean, the trace must show both
        // regimes: tight in-burst gaps and at least one long quiet gap.
        assert!(gaps.iter().any(|&g| g <= 6), "no in-burst gaps: {gaps:?}");
        assert!(gaps.iter().any(|&g| g >= 40), "no quiet gaps: {gaps:?}");
    }

    #[test]
    fn heavy_tail_lengths_stay_in_range_and_skew_short() {
        let cfg = ModelConfig::tiny();
        // Load 3: a 4-tick mean gap.
        let t = Scenario::HeavyTail.trace(&cfg, 64, 3.0, 9);
        let lens: Vec<usize> = t.requests.iter().map(|r| r.prompt.len()).collect();
        assert!(lens.iter().all(|&l| (2..=24).contains(&l)));
        assert!(t.requests.iter().all(|r| (2..=12).contains(&r.max_new)));
        // Heavy tail: the median sits near the floor, the max near the cap.
        let mut sorted = lens.clone();
        sorted.sort_unstable();
        assert!(
            sorted[sorted.len() / 2] <= 6,
            "median too large: {sorted:?}"
        );
        assert!(*sorted.last().unwrap() >= 12, "no tail: {sorted:?}");
    }

    #[test]
    fn flash_crowd_shares_a_prefix_and_diverges() {
        let cfg = ModelConfig::tiny();
        let params = FlashCrowdParams {
            requests: 8,
            mean_interarrival: 2.0,
            prefix_len: 12,
            tail_len: (1, 6),
            new_tokens: (2, 6),
            sampling: Sampling::Greedy,
        };
        let t = flash_crowd_trace(&cfg, &params, 13);
        let prefix = &t.requests[0].prompt[..12];
        for r in &t.requests {
            assert_eq!(&r.prompt[..12], prefix, "request {} lost the prefix", r.id);
            assert!(r.prompt.len() > 12, "request {} has no tail", r.id);
        }
        // Tails diverge somewhere (else prefix sharing is trivial).
        assert!(
            t.requests
                .windows(2)
                .any(|w| w[0].prompt[12..] != w[1].prompt[12..]),
            "all tails identical"
        );
    }
}
