//! Serving metrics: throughput, goodput, TTFT decomposition, latency
//! distributions, occupancy, and cost-model pricing of the served trace.
//!
//! All times are virtual-clock ticks (see [`crate::scheduler`]), so every
//! number here is deterministic. [`ServeReport::workload`] re-expresses the
//! *exact* step sequence the scheduler executed as a `figlut-sim`
//! [`Workload`] at a real OPT shape, which turns a served trace into
//! energy-per-token on the modeled accelerator — the paper's
//! efficiency-under-serving story closed end to end.
//!
//! Beyond scalar aggregates, [`ServeReport::distributions`] materializes
//! TTFT, end-to-end latency, inter-token stalls, and queue wait as full
//! [`Dist`]ributions (exact sorted views paired with deterministic
//! [`Hist`] streaming histograms, DESIGN.md §9), [`RequestMetrics::ttft_split`]
//! decomposes each session's TTFT into queue-wait / prefill / first-sample
//! shares that reconcile tick-exactly against the step sequence, and
//! [`ServeReport::goodput`] counts the tokens that met a configurable
//! TTFT + stall [`Slo`] — the number overload hides when only mean
//! throughput is reported.

use crate::engine::FinishReason;
use figlut_model::workload::{decode_workload, prefill_workload};
use figlut_model::OptConfig;
use figlut_sim::engine::evaluate;
use figlut_sim::mpu::EngineSpec;
use figlut_sim::tech::Tech;
use figlut_sim::Workload;
use figlut_trace::fmt::{f3, Table};
use figlut_trace::Hist;
use std::collections::BTreeMap;

/// What a step did (derived from a [`StepRecord`]'s row counts).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StepKind {
    /// Only prompt rows: a (possibly chunked) prefill with no running
    /// decodes.
    Prefill,
    /// Only decode rows: one batched decode over every running session.
    Decode,
    /// A fused step carrying both running decode rows and a prefill chunk.
    Mixed,
}

impl StepKind {
    /// Short display name (also the trace span name for the step).
    pub fn name(&self) -> &'static str {
        match self {
            StepKind::Prefill => "Prefill",
            StepKind::Decode => "Decode",
            StepKind::Mixed => "Mixed",
        }
    }
}

/// One executed scheduler step: a single fused forward pass whose
/// token-rows are split by phase, because the two phases price differently
/// ([`ServeReport::workload`]) even though they share the GEMM.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StepRecord {
    /// Prompt token-rows processed (0 = no prefill part this step).
    pub prefill_rows: usize,
    /// KV-cache position at which the prefill chunk starts (0 for a
    /// whole-prompt prefill; an adopter's first chunk starts at its skipped
    /// rows, and later chunks of a chunked prefill start deeper, which
    /// matters to the quadratic attention pricing).
    pub prefill_pos: usize,
    /// Decode token-rows processed (the running batch; 0 = prefill-only).
    pub decode_rows: usize,
    /// KV positions moved between pool and host by preemption swaps since
    /// the previous step (swap-outs and swap-ins both count — each is one
    /// full copy of a session's K/V rows). 0 everywhere when paging is off
    /// or no preemption fired, which is what keeps a preemption-free paged
    /// trace priced byte-identically to the contiguous baseline.
    pub swapped_rows: usize,
    /// Virtual-clock cost charged.
    pub cost: u64,
}

impl StepRecord {
    /// Total token-rows the step's fused GEMMs processed.
    pub fn rows(&self) -> usize {
        self.prefill_rows + self.decode_rows
    }

    /// Classify the step by which phases contributed rows.
    ///
    /// The scheduler never emits a row-less record, so a `(0, 0)` record is
    /// a caller bug: debug builds panic on it, release builds classify it
    /// as [`StepKind::Decode`] (the choice that prices to zero everywhere).
    ///
    /// ```
    /// use figlut_serve::{StepKind, StepRecord};
    ///
    /// let bogus = StepRecord {
    ///     prefill_rows: 0,
    ///     prefill_pos: 0,
    ///     decode_rows: 0,
    ///     swapped_rows: 0,
    ///     cost: 1,
    /// };
    /// // Debug builds panic here ("step record with no rows").
    /// if !cfg!(debug_assertions) {
    ///     assert_eq!(bogus.kind(), StepKind::Decode);
    /// }
    /// ```
    pub fn kind(&self) -> StepKind {
        debug_assert!(self.rows() > 0, "step record with no rows");
        match (self.prefill_rows > 0, self.decode_rows > 0) {
            (true, false) => StepKind::Prefill,
            (true, true) => StepKind::Mixed,
            _ => StepKind::Decode,
        }
    }
}

/// Per-request outcome.
#[derive(Clone, Debug, PartialEq)]
pub struct RequestMetrics {
    /// Request id.
    pub id: usize,
    /// Arrival tick.
    pub arrival: u64,
    /// Tick at which the scheduler admitted the request out of the pending
    /// queue (its prefill began). `admitted - arrival` is pure queueing
    /// delay; `first_token - admitted` is the compute side of TTFT.
    pub admitted: u64,
    /// Tick at which the first token was emitted (end of prefill).
    pub first_token: u64,
    /// Tick at which the session finished.
    pub finish: u64,
    /// Prompt length in tokens.
    pub prompt_len: usize,
    /// Prompt rows the session adopted from the shared-prefix registry and
    /// never computed (`min(adopted, prompt_len − 1)`; 0 without paging).
    /// `prompt_len − skipped` is the row count the session's prefill
    /// charged the virtual clock, and the prefill share of
    /// [`RequestMetrics::ttft_split`].
    pub skipped: usize,
    /// Tokens emitted.
    pub tokens: usize,
    /// Why the session ended.
    pub reason: FinishReason,
    /// The emitted token stream (the batch-invariance artifact).
    pub generated: Vec<usize>,
    /// Virtual-clock tick at which each token of `generated` was emitted
    /// (`token_ticks[0] == first_token`). Consecutive differences are the
    /// session's inter-token stalls — the per-token cadence that
    /// head-of-line blocking by long prefills ruins.
    pub token_ticks: Vec<u64>,
}

impl RequestMetrics {
    /// Time to first token, in ticks.
    pub fn ttft(&self) -> u64 {
        self.first_token - self.arrival
    }

    /// End-to-end latency, in ticks.
    pub fn latency(&self) -> u64 {
        self.finish - self.arrival
    }

    /// Ticks spent waiting in the pending queue before admission — the
    /// scheduling share of [`RequestMetrics::ttft`], with the prefill
    /// compute share (`first_token - admitted`) split out.
    pub fn queue_wait(&self) -> u64 {
        self.admitted - self.arrival
    }

    /// Gaps between consecutive emitted tokens, in ticks (empty for a
    /// single-token session).
    pub fn inter_token_stalls(&self) -> impl Iterator<Item = u64> + '_ {
        self.token_ticks.windows(2).map(|w| w[1] - w[0])
    }

    /// Decompose this session's TTFT into where the ticks went (all three
    /// shares sum back to [`RequestMetrics::ttft`]):
    ///
    /// * **queue** — `admitted − arrival`: pure scheduling delay before the
    ///   prefill began.
    /// * **prefill** — `prompt_len − skipped`: the prompt rows the session
    ///   computed (an adopted shared prefix is not), each of which costs
    ///   exactly one tick under the virtual-clock cost model.
    /// * **sample** — the remainder of `first_token − admitted`: step
    ///   overheads plus *foreign* rows (co-scheduled decode batches in the
    ///   fused chunked path) the session's prefill steps carried.
    ///
    /// This split reconciles tick-exactly against the step sequence: the
    /// scheduler runs exactly one prefill at a time and a session's prefill
    /// steps run consecutively from its admission, so the steps ending in
    /// `(admitted, first_token]` cost exactly `first_token − admitted`
    /// ticks and carry exactly `prompt_len − skipped` prefill rows (pinned
    /// by the trace-reconciliation suite).
    pub fn ttft_split(&self) -> TtftSplit {
        let compute = self.first_token - self.admitted;
        let rows = (self.prompt_len - self.skipped) as u64;
        TtftSplit {
            queue: self.queue_wait(),
            prefill: rows.min(compute),
            sample: compute.saturating_sub(rows),
        }
    }
}

/// Where a session's TTFT ticks went (see [`RequestMetrics::ttft_split`]).
/// `queue + prefill + sample == ttft`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TtftSplit {
    /// Ticks queued before admission.
    pub queue: u64,
    /// Ticks charged for the prompt rows the session computed
    /// (`prompt_len − skipped`).
    pub prefill: u64,
    /// Ticks of step overhead and co-scheduled foreign rows between
    /// admission and the first token.
    pub sample: u64,
}

/// A latency distribution: the exact sorted sample paired with a
/// deterministic streaming [`Hist`]ogram over the same values.
///
/// The sorted view answers exact nearest-rank percentiles (sorted **once**
/// at construction — the fix for `Display` re-sorting per percentile); the
/// histogram is the mergeable, fixed-boundary form `repro analyze` renders
/// and cross-run tooling can fold without ever changing a quantile
/// (DESIGN.md §9).
#[derive(Clone, Debug, PartialEq)]
pub struct Dist {
    sorted: Vec<u64>,
    hist: Hist,
}

impl Dist {
    /// Build from an unsorted sample (sorts once, feeds the histogram).
    pub fn from_values(mut values: Vec<u64>) -> Self {
        values.sort_unstable();
        let mut hist = Hist::new();
        for &v in &values {
            hist.record(v);
        }
        Dist {
            sorted: values,
            hist,
        }
    }

    /// Exact nearest-rank percentile (`p` in `(0, 100]`).
    ///
    /// An empty sample returns 0 — not an error — so percentiles over
    /// quantities that can legitimately be absent (inter-token stalls of
    /// single-token sessions, queue waits of an empty run) degrade to 0
    /// instead of panicking. A singleton returns that element at every `p`
    /// (both pinned by `percentile_edge_behavior`).
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    pub fn percentile(&self, p: f64) -> u64 {
        assert!(p > 0.0 && p <= 100.0, "percentile {p} out of (0, 100]");
        if self.sorted.is_empty() {
            return 0;
        }
        let rank = ((p / 100.0) * self.sorted.len() as f64).ceil() as usize;
        self.sorted[rank.saturating_sub(1)]
    }

    /// Number of recorded values.
    pub fn count(&self) -> usize {
        self.sorted.len()
    }

    /// Smallest value (0 when empty).
    pub fn min(&self) -> u64 {
        self.sorted.first().copied().unwrap_or(0)
    }

    /// Largest value (0 when empty).
    pub fn max(&self) -> u64 {
        self.sorted.last().copied().unwrap_or(0)
    }

    /// Arithmetic mean (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        self.sorted.iter().map(|&v| v as f64).sum::<f64>() / self.sorted.len() as f64
    }

    /// The streaming-histogram form of the same sample.
    pub fn hist(&self) -> &Hist {
        &self.hist
    }

    /// The sorted sample itself.
    pub fn values(&self) -> &[u64] {
        &self.sorted
    }
}

/// The four serving latency distributions, each computed exactly once from
/// a [`ServeReport`] (see [`ServeReport::distributions`]).
#[derive(Clone, Debug, PartialEq)]
pub struct ServeDists {
    /// Time to first token, per request.
    pub ttft: Dist,
    /// End-to-end latency, per request.
    pub latency: Dist,
    /// Inter-token stalls, across all requests.
    pub stall: Dist,
    /// Pre-admission queue wait, per request.
    pub queue_wait: Dist,
}

/// A per-request service-level objective over the virtual clock: the
/// request meets the SLO iff its TTFT is at most `ttft` ticks **and**
/// every inter-token stall is at most `stall` ticks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Slo {
    /// Maximum acceptable time to first token, in ticks.
    pub ttft: u64,
    /// Maximum acceptable inter-token stall, in ticks.
    pub stall: u64,
}

impl Default for Slo {
    /// The display default (`ttft: 50, stall: 25`), sized for the light
    /// traces the repo's quickstarts serve so the summary table's goodput
    /// row is meaningful out of the box; experiments pass explicit SLOs.
    fn default() -> Self {
        Slo {
            ttft: 50,
            stall: 25,
        }
    }
}

/// Tokens and requests that met an [`Slo`], reported beside raw
/// throughput (see [`ServeReport::goodput`]). Under overload goodput
/// diverges from throughput: the scheduler still emits tokens at full
/// tilt, but ever fewer of them belong to sessions whose latency contract
/// held — the `ext-overload` experiment's headline.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Goodput {
    /// Requests whose TTFT and every stall met the SLO.
    pub met_requests: usize,
    /// Tokens emitted by those requests.
    pub met_tokens: usize,
    /// SLO-meeting tokens per 1000 virtual ticks — directly comparable to
    /// [`ServeReport::tokens_per_kilotick`].
    pub tokens_per_kilotick: f64,
}

/// Paged-KV accounting for one serving run (present only when
/// [`crate::ServeConfig::block_size`] was set).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PagingStats {
    /// Positions per block.
    pub block_size: usize,
    /// The pool's live-block cap (`None` = unbounded).
    pub pool_blocks: Option<usize>,
    /// High-water mark of live pool blocks over the run — the paged
    /// resident-KV footprint (multiply by `bytes_per_block`).
    pub peak_live_blocks: usize,
    /// Live blocks after the last session finished and the prefix registry
    /// was cleared. Anything nonzero is a refcount leak; the property
    /// suite gates this at 0.
    pub final_live_blocks: usize,
    /// Host bytes of one block's K+V storage.
    pub bytes_per_block: usize,
    /// Preemption swap-outs executed.
    pub swaps_out: usize,
    /// Preemption swap-ins (restores) executed.
    pub swaps_in: usize,
    /// Total KV positions copied by swaps, out and in (the sum of the
    /// per-step [`StepRecord::swapped_rows`]).
    pub swapped_rows: usize,
    /// Prompt positions admitted sessions adopted from the shared-prefix
    /// registry instead of storing privately. All but a wholly shared
    /// prompt's last row are never computed either (Σ
    /// [`RequestMetrics::skipped`]).
    pub shared_rows: usize,
}

/// Fault, recovery, and admission-control activity over one serving run
/// (counted locally by the scheduler, so the numbers survive even with
/// tracing off). All-zero — the `Default` — on a quiet run with
/// [`crate::AdmissionPolicy::Unbounded`] and no fault plan, which is what
/// keeps pre-resilience reports byte-identical.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ResilienceStats {
    /// Scheduled steps abandoned by injected transient failures and
    /// retried (each charged [`crate::STEP_OVERHEAD`] ticks).
    pub step_retries: usize,
    /// Restore attempts abandoned (injected swap-in failures plus
    /// detected-corruption retries) and re-queued.
    pub swap_in_retries: usize,
    /// KV corruptions detected by the block checksum pass during restore.
    pub checksum_faults: usize,
    /// Injected pool-exhaustion spikes (each preempted one session).
    pub pool_spikes: usize,
    /// Requests shed from the pending queue by the admission policy.
    pub shed_requests: usize,
    /// Checkpoints captured by the [`crate::CheckpointHook`].
    pub checkpoints: usize,
}

/// Everything a serving run produced.
#[derive(Clone, Debug, PartialEq)]
pub struct ServeReport {
    /// Per-request outcomes, sorted by request id.
    pub requests: Vec<RequestMetrics>,
    /// Every executed step, in order.
    pub steps: Vec<StepRecord>,
    /// Final virtual-clock value.
    pub ticks: u64,
    /// The scheduler's batch capacity (for occupancy).
    pub max_batch: usize,
    /// High-water mark of logically cached KV positions across all
    /// resident sessions (swapped-out sessions excluded), sampled after
    /// every step. Times `2 × layers × d_model × 8` bytes this is the
    /// resident-KV footprint a *contiguous* cache needs — the baseline the
    /// `ext-paged-kv` experiment compares block-pool residency against.
    pub peak_kv_rows: usize,
    /// Paged-KV accounting, when paging was on.
    pub paging: Option<PagingStats>,
    /// Fault, recovery, and admission-control activity (all zero on a
    /// quiet, unbounded-admission run).
    pub resilience: ResilienceStats,
}

impl ServeReport {
    /// Total tokens emitted across all requests.
    pub fn total_tokens(&self) -> usize {
        self.requests.iter().map(|r| r.tokens).sum()
    }

    /// Serving throughput: tokens per 1000 virtual ticks.
    pub fn tokens_per_kilotick(&self) -> f64 {
        if self.ticks == 0 {
            return 0.0;
        }
        self.total_tokens() as f64 * 1000.0 / self.ticks as f64
    }

    /// Number of steps that advanced at least one decode row.
    pub fn decode_steps(&self) -> usize {
        self.steps.iter().filter(|s| s.decode_rows > 0).count()
    }

    /// Mean decode-batch occupancy in `(0, 1]`: decoded rows over
    /// `decode_steps × max_batch`. 1.0 means every decode-carrying step ran
    /// a full batch.
    pub fn mean_decode_occupancy(&self) -> f64 {
        let steps = self.decode_steps();
        if steps == 0 {
            return 0.0;
        }
        let rows: usize = self.steps.iter().map(|s| s.decode_rows).sum();
        rows as f64 / (steps * self.max_batch) as f64
    }

    /// Materialize the report's four latency distributions — TTFT,
    /// end-to-end latency, inter-token stalls (every gap between
    /// consecutive tokens of one session, across all sessions), queue
    /// wait — each sorted and histogrammed exactly once. These are the
    /// report's only latency aggregates: means, percentiles and maxima are
    /// read off the [`Dist`]s. The stall maximum is the number chunked
    /// prefill bounds: with a chunk budget `c` every step costs at most
    /// `STEP_OVERHEAD + c + max_batch` ticks ([`crate::STEP_OVERHEAD`]).
    pub fn distributions(&self) -> ServeDists {
        ServeDists {
            ttft: Dist::from_values(self.requests.iter().map(RequestMetrics::ttft).collect()),
            latency: Dist::from_values(self.requests.iter().map(RequestMetrics::latency).collect()),
            stall: Dist::from_values(
                self.requests
                    .iter()
                    .flat_map(RequestMetrics::inter_token_stalls)
                    .collect(),
            ),
            queue_wait: Dist::from_values(
                self.requests
                    .iter()
                    .map(RequestMetrics::queue_wait)
                    .collect(),
            ),
        }
    }

    /// Goodput under `slo`: the tokens belonging to requests whose TTFT
    /// and every inter-token stall met the objective, as a rate
    /// comparable to [`ServeReport::tokens_per_kilotick`]. Raw throughput
    /// counts every emitted token; goodput counts only the ones a client
    /// holding this latency contract would accept. Shed requests
    /// ([`FinishReason::Shed`]) are excluded outright — they emitted
    /// nothing and met no contract, and their synthetic `first_token ==
    /// finish` stamps must not leak into the met set.
    pub fn goodput(&self, slo: &Slo) -> Goodput {
        let mut met_requests = 0;
        let mut met_tokens = 0;
        for r in &self.requests {
            if r.reason == FinishReason::Shed {
                continue;
            }
            if r.ttft() <= slo.ttft && r.inter_token_stalls().all(|s| s <= slo.stall) {
                met_requests += 1;
                met_tokens += r.tokens;
            }
        }
        let tokens_per_kilotick = if self.ticks == 0 {
            0.0
        } else {
            met_tokens as f64 * 1000.0 / self.ticks as f64
        };
        Goodput {
            met_requests,
            met_tokens,
            tokens_per_kilotick,
        }
    }

    /// Re-express the executed step sequence as the workload it would be at
    /// a real OPT shape, phase-aware:
    ///
    /// * **GEMMs** run fused — a step's prefill chunk and decode batch ride
    ///   the same weight traversal — so each step contributes one
    ///   [`decode_workload`]-shaped pass at its *combined* row count (steps
    ///   with equal totals merge into the shapes' `repeat`).
    /// * **Non-GEMM flops** split by phase: decode rows carry
    ///   [`decode_workload`]'s linear attention bookkeeping, while a
    ///   prefill chunk spanning positions `[pos, pos + len)` is priced as
    ///   the *increment* of [`prefill_workload`]'s quadratic attention term
    ///   between those depths. The increments telescope, so any chunking of
    ///   a prompt prices exactly like the whole-prompt prefill — chunked
    ///   prefill moves stalls, not energy.
    /// * **Preemption swaps** are honest, not free: every KV position a
    ///   swap moved ([`StepRecord::swapped_rows`]) is priced as non-GEMM
    ///   traffic at one flop per element copied (`2 × layers × d_model`
    ///   elements per position — K and V). A trace with zero preemptions
    ///   therefore prices byte-identically to the same trace on the
    ///   contiguous baseline.
    pub fn workload(&self, opt: &OptConfig) -> Workload {
        let prefill_nongemm_upto = |len: usize| -> f64 {
            if len == 0 {
                0.0
            } else {
                prefill_workload(opt, 1, len).nongemm_flops
            }
        };
        let mut by_rows: BTreeMap<usize, f64> = BTreeMap::new();
        let mut nongemm_flops = 0.0;
        for s in &self.steps {
            *by_rows.entry(s.rows()).or_insert(0.0) += 1.0;
            if s.decode_rows > 0 {
                nongemm_flops += decode_workload(opt, s.decode_rows).nongemm_flops;
            }
            if s.prefill_rows > 0 {
                nongemm_flops += prefill_nongemm_upto(s.prefill_pos + s.prefill_rows)
                    - prefill_nongemm_upto(s.prefill_pos);
            }
            if s.swapped_rows > 0 {
                nongemm_flops += s.swapped_rows as f64 * 2.0 * (opt.layers * opt.d_model) as f64;
            }
        }
        let mut gemms = Vec::with_capacity(3 * by_rows.len());
        for (&rows, &count) in &by_rows {
            let mut pass = decode_workload(opt, rows);
            for g in &mut pass.gemms {
                g.repeat *= count;
            }
            gemms.extend(pass.gemms);
        }
        Workload {
            gemms,
            nongemm_flops,
        }
    }

    /// Price the served trace on the cost model: energy per emitted token
    /// (pJ) for an accelerator `spec` at technology `tech` and average
    /// weight precision `weight_bits`, with the model scaled up to the real
    /// OPT shape `opt`.
    ///
    /// # Panics
    ///
    /// Panics if no tokens were emitted.
    pub fn energy_per_token_pj(
        &self,
        tech: &Tech,
        spec: &EngineSpec,
        opt: &OptConfig,
        weight_bits: f64,
    ) -> f64 {
        let tokens = self.total_tokens();
        assert!(tokens > 0, "no tokens served");
        let report = evaluate(tech, spec, &self.workload(opt), weight_bits);
        report.energy.total_pj() / tokens as f64
    }
}

impl std::fmt::Display for ServeReport {
    /// A human-readable summary table of the run (rendered through the
    /// shared `figlut_trace::fmt` table engine, so `repro` prints reports
    /// and experiment tables in one visual idiom). All values are virtual-
    /// clock ticks; the table is stable enough to snapshot-test but not a
    /// machine interface — use the fields for that.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut by_kind = [0usize; 3];
        for s in &self.steps {
            by_kind[match s.kind() {
                StepKind::Prefill => 0,
                StepKind::Decode => 1,
                StepKind::Mixed => 2,
            }] += 1;
        }
        // One pass over the report: every percentile below reads the same
        // four distributions, sorted exactly once.
        let dists = self.distributions();
        let slo = Slo::default();
        let goodput = self.goodput(&slo);
        let mut t = Table::new("serving summary", &["metric", "value"]);
        let mut row = |k: &str, v: String| t.row(vec![k.to_string(), v]);
        row("requests", self.requests.len().to_string());
        row("tokens", self.total_tokens().to_string());
        row("ticks", self.ticks.to_string());
        row("tokens/kilotick", f3(self.tokens_per_kilotick()));
        row(
            &format!("goodput tok/ktick (slo {}/{})", slo.ttft, slo.stall),
            f3(goodput.tokens_per_kilotick),
        );
        row(
            "slo-met requests",
            format!("{}/{}", goodput.met_requests, self.requests.len()),
        );
        row("mean ttft (ticks)", f3(dists.ttft.mean()));
        row("mean queue wait (ticks)", f3(dists.queue_wait.mean()));
        row(
            "queue wait p50/p99 (ticks)",
            format!(
                "{}/{}",
                dists.queue_wait.percentile(50.0),
                dists.queue_wait.percentile(99.0)
            ),
        );
        if !self.requests.is_empty() {
            row(
                "p50 latency (ticks)",
                dists.latency.percentile(50.0).to_string(),
            );
            row(
                "p99 latency (ticks)",
                dists.latency.percentile(99.0).to_string(),
            );
        }
        row(
            "stall p50/p99/max (ticks)",
            format!(
                "{}/{}/{}",
                dists.stall.percentile(50.0),
                dists.stall.percentile(99.0),
                dists.stall.max()
            ),
        );
        row("decode occupancy", f3(self.mean_decode_occupancy()));
        row(
            "steps (prefill/decode/mixed)",
            format!("{}/{}/{}", by_kind[0], by_kind[1], by_kind[2]),
        );
        row("peak kv rows", self.peak_kv_rows.to_string());
        if let Some(p) = &self.paging {
            row("peak live blocks", p.peak_live_blocks.to_string());
            row("swaps out/in", format!("{}/{}", p.swaps_out, p.swaps_in));
            row("swapped kv rows", p.swapped_rows.to_string());
            row("shared prefix rows", p.shared_rows.to_string());
        }
        let res = &self.resilience;
        if *res != ResilienceStats::default() {
            row("shed requests", res.shed_requests.to_string());
            row(
                "fault retries (step/swap-in/checksum)",
                format!(
                    "{}/{}/{}",
                    res.step_retries, res.swap_in_retries, res.checksum_faults
                ),
            );
            row(
                "pool spikes / checkpoints",
                format!("{}/{}", res.pool_spikes, res.checkpoints),
            );
        }
        f.write_str(&t.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use figlut_model::config::by_name;
    use figlut_num::fp::FpFormat;
    use figlut_sim::mpu::SimEngine;

    fn prefill_step(rows: usize, pos: usize, cost: u64) -> StepRecord {
        StepRecord {
            prefill_rows: rows,
            prefill_pos: pos,
            decode_rows: 0,
            swapped_rows: 0,
            cost,
        }
    }

    fn decode_step(rows: usize, cost: u64) -> StepRecord {
        StepRecord {
            prefill_rows: 0,
            prefill_pos: 0,
            decode_rows: rows,
            swapped_rows: 0,
            cost,
        }
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "step record with no rows")]
    fn row_less_step_record_panics_in_debug_builds() {
        decode_step(0, 1).kind();
    }

    fn demo_report() -> ServeReport {
        let m = |id, arrival, first: u64, finish: u64, tokens: usize| {
            // Emission ticks interpolated so the scheduler's invariants
            // hold: token_ticks[0] == first and token_ticks.last == finish.
            let span = (tokens as u64 - 1).max(1);
            RequestMetrics {
                id,
                arrival,
                admitted: arrival + 2,
                first_token: first,
                finish,
                prompt_len: 2,
                skipped: 0,
                tokens,
                reason: FinishReason::Completed,
                generated: vec![1; tokens],
                token_ticks: (0..tokens as u64)
                    .map(|t| first + t * (finish - first) / span)
                    .collect(),
            }
        };
        ServeReport {
            requests: vec![m(0, 0, 5, 20, 4), m(1, 2, 9, 30, 5), m(2, 10, 16, 26, 3)],
            steps: vec![prefill_step(4, 0, 5), decode_step(2, 3), decode_step(3, 4)],
            ticks: 30,
            max_batch: 4,
            peak_kv_rows: 9,
            paging: None,
            resilience: ResilienceStats::default(),
        }
    }

    #[test]
    fn aggregates() {
        let r = demo_report();
        assert_eq!(r.total_tokens(), 12);
        assert_eq!(r.tokens_per_kilotick(), 400.0);
        assert_eq!(r.distributions().ttft.mean(), (5.0 + 7.0 + 6.0) / 3.0);
        assert_eq!(r.decode_steps(), 2);
        assert_eq!(r.mean_decode_occupancy(), 5.0 / 8.0);
    }

    #[test]
    fn percentiles_nearest_rank() {
        let latency = demo_report().distributions().latency;
        // Latencies: 20, 28, 16 → sorted 16, 20, 28.
        assert_eq!(latency.percentile(50.0), 20);
        assert_eq!(latency.percentile(99.0), 28);
        assert_eq!(latency.percentile(1.0), 16);
    }

    #[test]
    fn workload_counts_all_rows() {
        let r = demo_report();
        let opt = by_name("OPT-1.3B").unwrap();
        let wl = r.workload(opt);
        // ops = 2 × gemm-params × total rows (4 + 2 + 3).
        let want = 2.0 * opt.gemm_params() * 9.0;
        assert!(
            (wl.ops() / want - 1.0).abs() < 1e-12,
            "{} vs {want}",
            wl.ops()
        );
    }

    #[test]
    fn energy_per_token_positive_and_batch_sensitive() {
        let opt = by_name("OPT-1.3B").unwrap();
        let tech = Tech::cmos28();
        let spec = EngineSpec::paper(SimEngine::FiglutI, FpFormat::Fp16);
        let r = demo_report();
        let e = r.energy_per_token_pj(&tech, &spec, opt, 4.0);
        assert!(e > 0.0);
        // The same tokens served at batch 1 (each decode row its own step)
        // must cost more energy per token: weight traffic is re-paid.
        let mut solo = r.clone();
        solo.steps = vec![prefill_step(4, 0, 5)];
        solo.steps.extend((0..5).map(|_| decode_step(1, 2)));
        let e_solo = solo.energy_per_token_pj(&tech, &spec, opt, 4.0);
        assert!(
            e_solo > 1.5 * e,
            "batch-1 serving should be much costlier: {e_solo} vs {e}"
        );
    }

    #[test]
    fn step_records_classify_by_phase_rows() {
        assert_eq!(prefill_step(4, 0, 5).kind(), StepKind::Prefill);
        assert_eq!(decode_step(2, 3).kind(), StepKind::Decode);
        let mixed = StepRecord {
            prefill_rows: 8,
            prefill_pos: 16,
            decode_rows: 3,
            swapped_rows: 0,
            cost: 12,
        };
        assert_eq!(mixed.kind(), StepKind::Mixed);
        assert_eq!(mixed.rows(), 11);
    }

    #[test]
    fn prefill_rows_price_strictly_more_nongemm_than_decode_rows() {
        // The regression the StepKind-blind workload() had: a prefill of L
        // rows was priced as a decode batch of L, dropping the quadratic
        // attention term. Same rows, same GEMMs — strictly more non-GEMM
        // flops on the prefill side.
        let opt = by_name("OPT-1.3B").unwrap();
        let base = demo_report();
        let mut as_prefill = base.clone();
        as_prefill.steps = vec![prefill_step(32, 0, 33)];
        let mut as_decode = base;
        as_decode.steps = vec![decode_step(32, 33)];
        let wp = as_prefill.workload(opt);
        let wd = as_decode.workload(opt);
        assert!(
            (wp.ops() / wd.ops() - 1.0).abs() < 1e-12,
            "same rows must mean the same GEMM inventory"
        );
        assert!(
            wp.nongemm_flops > wd.nongemm_flops,
            "prefill attention is quadratic: {} !> {}",
            wp.nongemm_flops,
            wd.nongemm_flops
        );
        // And it must actually be the prefill_workload increment, not some
        // other constant: one whole-prompt chunk == prefill_workload.
        let want = figlut_model::workload::prefill_workload(opt, 1, 32).nongemm_flops;
        assert!((wp.nongemm_flops / want - 1.0).abs() < 1e-12);
    }

    #[test]
    fn chunked_prefill_pricing_telescopes() {
        // Chunking a 32-token prompt must price (non-GEMM) exactly like the
        // whole-prompt prefill: the per-chunk quadratic increments sum to
        // the full quadratic term.
        let opt = by_name("OPT-1.3B").unwrap();
        let mut whole = demo_report();
        whole.steps = vec![prefill_step(32, 0, 33)];
        let mut chunked = whole.clone();
        chunked.steps = vec![
            prefill_step(8, 0, 9),
            prefill_step(8, 8, 9),
            prefill_step(16, 16, 17),
        ];
        let ww = whole.workload(opt);
        let wc = chunked.workload(opt);
        assert!(
            (wc.nongemm_flops / ww.nongemm_flops - 1.0).abs() < 1e-9,
            "chunking moved attention energy: {} vs {}",
            wc.nongemm_flops,
            ww.nongemm_flops
        );
    }

    #[test]
    fn mixed_steps_price_fused_gemms_and_split_nongemm() {
        // A mixed step's GEMMs run at the combined row count (one weight
        // traversal), while its non-GEMM work is the sum of the phases'.
        let opt = by_name("OPT-1.3B").unwrap();
        let mut mixed = demo_report();
        mixed.steps = vec![StepRecord {
            prefill_rows: 8,
            prefill_pos: 4,
            decode_rows: 3,
            swapped_rows: 0,
            cost: 12,
        }];
        let w = mixed.workload(opt);
        let want_gemm = 2.0 * opt.gemm_params() * 11.0;
        assert!((w.ops() / want_gemm - 1.0).abs() < 1e-12);
        let decode_part = decode_workload(opt, 3).nongemm_flops;
        let prefill_part =
            prefill_workload(opt, 1, 12).nongemm_flops - prefill_workload(opt, 1, 4).nongemm_flops;
        assert!((w.nongemm_flops / (decode_part + prefill_part) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn swap_traffic_prices_as_nongemm_only() {
        // Preemption swaps move bytes, not GEMM work: a report differing
        // only in `swapped_rows` must price the same GEMM inventory plus
        // exactly one flop per copied K/V element.
        let opt = by_name("OPT-1.3B").unwrap();
        let base = demo_report();
        let mut swapped = base.clone();
        swapped.steps[1].swapped_rows = 12;
        let wb = base.workload(opt);
        let ws = swapped.workload(opt);
        assert!(
            (ws.ops() / wb.ops() - 1.0).abs() < 1e-12,
            "swaps must not change the GEMM inventory"
        );
        let delta = ws.nongemm_flops - wb.nongemm_flops;
        let want = 12.0 * 2.0 * (opt.layers * opt.d_model) as f64;
        assert!(
            (delta / want - 1.0).abs() < 1e-12,
            "swap traffic mispriced: {delta} vs {want}"
        );
        // And with zero swapped rows everywhere the workloads are
        // bit-identical — the telescoping guarantee the scheduler-level
        // test pins end to end.
        let zero = base.workload(opt);
        assert_eq!(zero.nongemm_flops.to_bits(), wb.nongemm_flops.to_bits());
    }

    #[test]
    fn stall_metrics_aggregate_token_gaps() {
        let mut r = demo_report();
        // Request 0: ticks 5,10,15,20 → gaps 5,5,5. Request 1: 9,14,19,24,30
        // → gaps 5,5,5,6. Request 2: 16,21,26 → gaps 5,5.
        assert_eq!(r.requests[1].token_ticks, vec![9, 14, 19, 24, 30]);
        let stall = r.distributions().stall;
        assert_eq!(stall.max(), 6);
        assert_eq!(stall.percentile(50.0), 5);
        // Inject a head-of-line blocking spike into request 2.
        r.requests[2].token_ticks = vec![16, 21, 62];
        let stall = r.distributions().stall;
        assert_eq!(stall.max(), 41);
        assert_eq!(stall.percentile(99.0), 41);
        assert_eq!(stall.percentile(50.0), 5);
        let single = RequestMetrics {
            id: 9,
            arrival: 0,
            admitted: 0,
            first_token: 3,
            finish: 3,
            prompt_len: 2,
            skipped: 0,
            tokens: 1,
            reason: FinishReason::Completed,
            generated: vec![1],
            token_ticks: vec![3],
        };
        let lone = ServeReport {
            requests: vec![single],
            steps: vec![prefill_step(2, 0, 3)],
            ticks: 3,
            max_batch: 1,
            peak_kv_rows: 2,
            paging: None,
            resilience: ResilienceStats::default(),
        };
        let stall = lone.distributions().stall;
        assert_eq!(stall.max(), 0);
        assert_eq!(stall.percentile(99.0), 0);
    }

    #[test]
    #[should_panic(expected = "percentile")]
    fn percentile_range_checked() {
        let _ = demo_report().distributions().latency.percentile(0.0);
    }

    #[test]
    fn percentile_edge_behavior() {
        // Empty sample → 0 at every p (not a panic): a report whose
        // sessions all emitted a single token has no inter-token stalls.
        let mut r = demo_report();
        for req in &mut r.requests {
            req.tokens = 1;
            req.generated.truncate(1);
            req.token_ticks.truncate(1);
        }
        let stall = r.distributions().stall;
        for p in [1.0, 50.0, 99.0, 100.0] {
            assert_eq!(stall.percentile(p), 0, "p{p} of empty sample");
        }
        // Single-element sample → that element at every p.
        r.requests[0].tokens = 2;
        r.requests[0].generated.push(1);
        r.requests[0].token_ticks.push(12);
        let stall = r.distributions().stall;
        for p in [1.0, 50.0, 99.0, 100.0] {
            assert_eq!(stall.percentile(p), 7, "p{p} of singleton sample");
        }
    }

    #[test]
    fn queue_wait_splits_ttft() {
        let r = demo_report();
        // demo requests are admitted 2 ticks after arrival.
        assert_eq!(r.requests[0].queue_wait(), 2);
        assert_eq!(r.distributions().queue_wait.mean(), 2.0);
        // queue wait + post-admission compute == TTFT, per request.
        for req in &r.requests {
            assert_eq!(
                req.queue_wait() + (req.first_token - req.admitted),
                req.ttft()
            );
        }
    }

    #[test]
    fn ttft_split_shares_sum_back() {
        let r = demo_report();
        // Request 0: arrival 0, admitted 2, first 5, prompt 2 →
        // queue 2, prefill 2, sample 1.
        let s = r.requests[0].ttft_split();
        assert_eq!(
            s,
            TtftSplit {
                queue: 2,
                prefill: 2,
                sample: 1
            }
        );
        for req in &r.requests {
            let s = req.ttft_split();
            assert_eq!(s.queue + s.prefill + s.sample, req.ttft(), "req {}", req.id);
        }
    }

    #[test]
    fn distributions_match_exact_percentiles() {
        let r = demo_report();
        let d = r.distributions();
        // The sorted views must agree with a nearest-rank pick over the
        // raw per-request values at every probe, and the histogram must
        // hold the same count.
        let nearest_rank = |mut v: Vec<u64>, p: f64| {
            v.sort_unstable();
            v[((p / 100.0) * v.len() as f64).ceil() as usize - 1]
        };
        let latencies: Vec<u64> = r.requests.iter().map(RequestMetrics::latency).collect();
        let stalls: Vec<u64> = r
            .requests
            .iter()
            .flat_map(RequestMetrics::inter_token_stalls)
            .collect();
        for p in [1.0, 25.0, 50.0, 75.0, 99.0, 100.0] {
            assert_eq!(
                d.latency.percentile(p),
                nearest_rank(latencies.clone(), p),
                "p{p}"
            );
            assert_eq!(
                d.stall.percentile(p),
                nearest_rank(stalls.clone(), p),
                "p{p}"
            );
        }
        assert_eq!(d.ttft.count(), r.requests.len());
        assert_eq!(d.ttft.hist().count(), r.requests.len() as u64);
        assert_eq!(d.stall.count(), stalls.len());
        assert_eq!(d.stall.max(), stalls.iter().copied().max().unwrap());
        // Small tick values land in exact unit buckets, so the histogram
        // quantile agrees with the exact one on this report.
        assert_eq!(d.latency.hist().quantile(50.0), d.latency.percentile(50.0));
    }

    #[test]
    fn goodput_counts_only_slo_meeting_tokens() {
        let r = demo_report();
        // TTFTs 5/7/6, stalls ≤ 6 → everything meets a loose SLO.
        let all = r.goodput(&Slo {
            ttft: 10,
            stall: 10,
        });
        assert_eq!(all.met_requests, 3);
        assert_eq!(all.met_tokens, r.total_tokens());
        assert_eq!(all.tokens_per_kilotick, r.tokens_per_kilotick());
        // Tighten TTFT to 6: request 1 (ttft 7) falls out with its 5 tokens.
        let tight = r.goodput(&Slo { ttft: 6, stall: 10 });
        assert_eq!(tight.met_requests, 2);
        assert_eq!(tight.met_tokens, 7);
        assert!(tight.tokens_per_kilotick < all.tokens_per_kilotick);
        // A stall bound below 5 kills every multi-token session.
        let none = r.goodput(&Slo {
            ttft: 100,
            stall: 4,
        });
        assert_eq!(none.met_requests, 0);
        assert_eq!(none.tokens_per_kilotick, 0.0);
    }

    #[test]
    fn display_renders_summary_table() {
        let shown = demo_report().to_string();
        for needle in [
            "serving summary",
            "requests",
            "tokens/kilotick",
            "400.0",
            "mean queue wait (ticks)",
            "queue wait p50/p99 (ticks)",
            "goodput tok/ktick (slo 50/25)",
            "slo-met requests",
            "3/3",
            "stall p50/p99/max (ticks)",
            "steps (prefill/decode/mixed)",
            "1/2/0",
        ] {
            assert!(shown.contains(needle), "missing {needle:?} in:\n{shown}");
        }
        // Paging rows appear only when paging was on.
        assert!(!shown.contains("swaps out/in"));
        let mut paged = demo_report();
        paged.paging = Some(PagingStats {
            block_size: 16,
            pool_blocks: Some(8),
            peak_live_blocks: 6,
            final_live_blocks: 0,
            bytes_per_block: 4096,
            swaps_out: 2,
            swaps_in: 2,
            swapped_rows: 40,
            shared_rows: 12,
        });
        let shown = paged.to_string();
        assert!(shown.contains("swaps out/in"));
        assert!(shown.contains("2/2"));
    }
}
