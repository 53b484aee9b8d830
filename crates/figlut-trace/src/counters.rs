//! The per-session counter registry.
//!
//! Each counter is a relaxed `AtomicU64` owned by one trace session and
//! bumped by an instrumentation site in `figlut-exec`, `figlut-model`, or
//! `figlut-serve`. A bump lands in the session the *calling thread* is in
//! ([`crate::install`], [`crate::SessionHandle::enter`]) and is dropped on a
//! thread in none: the disabled path costs one thread-local read per site,
//! a fresh session starts from zero, and sessions never see each other.
//!
//! Every counter reconciles against an analytical formula the workspace
//! already commits to — that is the design contract, asserted by the
//! `trace_reconcile` test binaries in `figlut-exec` and `figlut-serve`:
//!
//! | counter group | reconciles with |
//! |---|---|
//! | `exec_streamed_words` | `ExecPlan::streamed_words` (the tile-walk formula) |
//! | `exec_calls` / `exec_lut_builds` / tier counters | one build per staged input, one call and one tier pick per reader |
//! | `exec_crews` | the steps the crew rule sizes above one thread (`parallel::crew_size`) |
//! | `model_*_rows` | `Σ StepRecord::rows()` over a serve run |
//! | `kv_swap_*_rows` | `Σ StepRecord.swapped_rows` = `PagingStats.swapped_rows` |
//! | `serve_steps` / `serve_admissions` / … | `ServeReport.steps.len()`, request count, `PagingStats.swaps_out/in` |
//! | `serve_step_retries` / `serve_sheds` / … | `ServeReport.resilience` (injected-fault recoveries and shed requests) |

use std::sync::atomic::{AtomicU64, Ordering};

macro_rules! registry {
    (
        retired { $($(#[$rm:meta])* $old:ident;)* }
        $($(#[$m:meta])* $bump:ident, $field:ident;)+
    ) => {
        #[derive(Default)]
        pub(crate) struct Registry {
            $( $field: AtomicU64, )+
        }

        $(
            $(#[$m])*
            ///
            /// Adds `n` to the calling thread's session (dropped if none).
            #[inline]
            pub fn $bump(n: u64) {
                crate::with_session(|s| s.counters.$field.fetch_add(n, Ordering::Relaxed));
            }
        )+

        /// A point-in-time copy of every counter (see the module table for
        /// what each group reconciles against).
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        #[allow(missing_docs)] // each field documents itself via its bump fn
        pub struct Counters {
            $( pub $field: u64, )+
            $( $(#[$rm])* pub $old: u64, )*
        }

        /// Snapshot the calling thread's session: all zeros on a thread in
        /// none — so snapshot *before* [`crate::TraceGuard::finish`].
        pub fn snapshot() -> Counters {
            crate::with_session(|s| Counters {
                $( $field: s.counters.$field.load(Ordering::Relaxed), )+
                $( $old: 0, )*
            })
            .unwrap_or_default()
        }

        impl Counters {
            /// Per-field difference `self − earlier` — the activity between
            /// two snapshots of the same session.
            ///
            /// # Panics
            ///
            /// Panics (in debug builds, via arithmetic overflow) if
            /// `earlier` is not actually an earlier snapshot.
            #[must_use]
            pub fn since(&self, earlier: &Counters) -> Counters {
                Counters {
                    $( $field: self.$field - earlier.$field, )+
                    $( $old: 0, )*
                }
            }
        }
    };
}

registry! {
    // Fields kept in `Counters` for a reader outside the workspace, always
    // 0: no bump function, nothing counts them.
    retired {
        /// Retired, always 0: the i32-table, i64-accumulator tier folded
        /// into the i64 one. Kept while the benchmark still reports it.
        exec_tier_i32_i64;
    }
    /// Exec kernel calls: one per reader of a non-empty
    /// `ExecPlan::exec_i_crew` phase (`exec_i_into` is a one-phase step of
    /// one reader).
    bump_exec_calls, exec_calls;
    /// `ExecPlan` constructions (calls minus builds = plan reuse).
    bump_exec_plan_builds, exec_plan_builds;
    /// Batched FFLUT (re)builds — one per staged input (a non-empty
    /// `exec_i_crew` phase, however many readers share it), at exactly one
    /// tier. The private
    /// table copy each crew worker builds from that stage is not a stage.
    bump_exec_lut_builds, exec_lut_builds;
    /// Packed weight words streamed by the tile walk, summed over every
    /// (k-tile, bit-plane, output row). Reconciles with
    /// `ExecPlan::streamed_words` per call.
    bump_exec_streamed_words, exec_streamed_words;
    /// K-tile walks: one per (k-tile, output row) of each panel pass.
    bump_exec_ktiles, exec_ktiles;
    /// Calls running the narrowest tier (i32 tables, i32 accumulators).
    bump_exec_tier_i32_i32, exec_tier_i32_i32;
    /// Calls running the widest tier (i64 tables and accumulators).
    bump_exec_tier_i64_i64, exec_tier_i64_i64;
    /// Steps (a `forward_batch`, or one direct exec call) whose summed
    /// look-ups opened a crew of scoped workers (`parallel::crew_size` > 1).
    bump_exec_crews, exec_crews;
    /// `Transformer::forward_batch` invocations.
    bump_model_forward_calls, model_forward_calls;
    /// Token rows from multi-token chunks (prefill-phase rows).
    bump_model_prefill_rows, model_prefill_rows;
    /// Token rows from single-token chunks (decode-phase rows).
    bump_model_decode_rows, model_decode_rows;
    /// Copy-on-write block copies actually performed by the paged KV cache.
    bump_kv_cow_copies, kv_cow_copies;
    /// KV positions copied to host by preemption swap-outs.
    bump_kv_swap_out_rows, kv_swap_out_rows;
    /// KV positions copied back from host by restores.
    bump_kv_swap_in_rows, kv_swap_in_rows;
    /// Scheduler steps executed (= emitted `StepRecord`s).
    bump_serve_steps, serve_steps;
    /// Requests admitted out of the pending queue.
    bump_serve_admissions, serve_admissions;
    /// Sessions preempted to host under pool pressure.
    bump_serve_preemptions, serve_preemptions;
    /// Preempted sessions restored into the running set.
    bump_serve_restores, serve_restores;
    /// KV block checksum mismatches detected by the verify pass.
    bump_kv_checksum_faults, kv_checksum_faults;
    /// Scheduler steps retried after an injected transient failure.
    bump_serve_step_retries, serve_step_retries;
    /// Restore attempts retried after an injected swap-in failure.
    bump_serve_swap_in_retries, serve_swap_in_retries;
    /// Sessions preempted by injected pool-exhaustion spikes.
    bump_serve_pool_spikes, serve_pool_spikes;
    /// Requests shed by the admission policy (`FinishReason::Shed`).
    bump_serve_sheds, serve_sheds;
    /// Scheduler checkpoints captured at tick boundaries.
    bump_serve_checkpoints, serve_checkpoints;
    /// Serve runs resumed from a checkpoint.
    bump_serve_resumes, serve_resumes;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn since_subtracts_fieldwise() {
        let a = Counters {
            exec_calls: 5,
            serve_steps: 2,
            ..Counters::default()
        };
        let b = Counters {
            exec_calls: 9,
            serve_steps: 7,
            ..Counters::default()
        };
        let d = b.since(&a);
        assert_eq!(d.exec_calls, 4);
        assert_eq!(d.serve_steps, 5);
        assert_eq!(d.kv_cow_copies, 0);
    }
}
