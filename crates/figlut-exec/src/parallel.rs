//! Row-panel parallelism over `std::thread::scope` (no external deps;
//! DESIGN.md §5 keeps the workspace registry-free).
//!
//! The kernels parallelize over contiguous panels of *output rows*: every
//! output element is computed start-to-finish by exactly one thread, with a
//! fixed window order and a fixed fold order, so results are bit-identical
//! for every thread count — the determinism contract the tests pin.
//!
//! A caller's `threads` is therefore only ever a *maximum*: it can change
//! how fast a call runs, never what it returns. [`crate::ExecPlan::fan_out`]
//! lowers it per call, so a worker is woken only when its panel outweighs
//! the wake-up (DESIGN.md §6, "fan-out rule").

use std::num::NonZeroUsize;
use std::sync::OnceLock;

/// Environment variable overriding the maximum worker count (`≥ 1`).
pub const THREADS_ENV: &str = "FIGLUT_EXEC_THREADS";

/// Computed table look-ups a row panel must carry to be worth a thread:
/// the worst measured wake-up (108 µs) over the best measured look-up cost
/// (0.105 ns in a full 8-lane block) is 1.03 M, rounded up to a power of
/// two. A second panel also pulls the call's tables into another core's
/// cache, which a look-up count does not see; doubling the constant for
/// that was tried and did not resolve end to end (derivation, the
/// 1-vs-2-thread table and the paired runs: DESIGN.md §6).
const MIN_PANEL_LOOKUPS: usize = 1 << 21;

/// Row panels worth running for a call of `lookups` computed look-ups over
/// `rows` output rows: one per [`MIN_PANEL_LOOKUPS`], at least 1, at most
/// `threads` and `rows`.
pub(crate) fn panel_count(lookups: usize, rows: usize, threads: usize) -> usize {
    (lookups / MIN_PANEL_LOOKUPS).min(threads).min(rows).max(1)
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

/// Split `out` (the `m` outputs of one batch row) into at most `threads`
/// contiguous panels and run `work(first_row, panel)` on each, in parallel.
///
/// `work` must fill `panel[j]` with the value of output row
/// `first_row + j`; because panel boundaries never change *what* is
/// computed per element, the result is independent of `threads`.
pub fn run_row_panels<F>(out: &mut [f64], threads: usize, work: F)
where
    F: Fn(usize, &mut [f64]) + Sync,
{
    run_strided_panels(out, 1, threads, work);
}

/// [`run_row_panels`] for row-major outputs with `stride` values per
/// output row (the batched kernels' `m × batch` transposed output): `out`
/// is split on row boundaries into at most `threads` contiguous panels and
/// `work(first_row, panel)` runs on each, in parallel — the first on the
/// calling thread, the rest on scoped workers. The work is not weighed
/// here: `threads` is the fan-out ([`crate::ExecPlan::fan_out`]'s job).
///
/// `work` must fill `panel[j·stride + s]` with value `s` of output row
/// `first_row + j`. As with [`run_row_panels`], panel boundaries never
/// change *what* is computed per element, so the result is independent of
/// `threads`.
///
/// # Panics
///
/// Panics if `stride` is zero or does not divide `out.len()`.
pub fn run_strided_panels<F>(out: &mut [f64], stride: usize, threads: usize, work: F)
where
    F: Fn(usize, &mut [f64]) + Sync,
{
    assert!(
        stride > 0 && out.len().is_multiple_of(stride),
        "output length {} is not a multiple of the row stride {stride}",
        out.len()
    );
    let m = out.len() / stride;
    if m == 0 {
        return;
    }
    let t = threads.clamp(1, m);
    if t == 1 {
        work(0, out);
        return;
    }
    let chunk = m.div_ceil(t);
    let (first, rest) = out.split_at_mut(chunk * stride);
    // Workers record into the caller's trace session, if it is in one:
    // membership is per thread and never inherited.
    let session = figlut_trace::current();
    std::thread::scope(|s| {
        for (idx, panel) in rest.chunks_mut(chunk * stride).enumerate() {
            let (work, session) = (&work, &session);
            s.spawn(move || {
                let _scope = session.as_ref().map(figlut_trace::SessionHandle::enter);
                work((idx + 1) * chunk, panel);
            });
        }
        work(0, first);
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn panels_cover_every_row_once() {
        for threads in [1usize, 2, 3, 7, 64] {
            let mut out = vec![0.0; 23];
            run_row_panels(&mut out, threads, |r0, panel| {
                for (j, v) in panel.iter_mut().enumerate() {
                    *v += (r0 + j) as f64 + 1.0;
                }
            });
            for (r, &v) in out.iter().enumerate() {
                assert_eq!(v, r as f64 + 1.0, "threads={threads} row {r}");
            }
        }
    }

    #[test]
    fn strided_panels_split_on_row_boundaries() {
        for threads in [1usize, 2, 3, 7, 64] {
            let (m, stride) = (11usize, 3usize);
            let mut out = vec![0.0; m * stride];
            run_strided_panels(&mut out, stride, threads, |r0, panel| {
                assert!(panel.len().is_multiple_of(stride), "ragged panel");
                for (j, row) in panel.chunks_mut(stride).enumerate() {
                    for (s, v) in row.iter_mut().enumerate() {
                        *v += ((r0 + j) * stride + s) as f64 + 1.0;
                    }
                }
            });
            for (i, &v) in out.iter().enumerate() {
                assert_eq!(v, i as f64 + 1.0, "threads={threads} slot {i}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "not a multiple")]
    fn strided_panels_reject_ragged_output() {
        let mut out = vec![0.0; 7];
        run_strided_panels(&mut out, 3, 2, |_, _| {});
    }

    #[test]
    fn empty_output_is_a_noop() {
        let mut out: Vec<f64> = Vec::new();
        run_row_panels(&mut out, 8, |_, _| panic!("must not be called"));
    }

    #[test]
    fn thread_count_is_positive() {
        assert!(thread_count() >= 1);
    }

    #[test]
    fn panel_count_weighs_work_against_the_threshold() {
        const T: usize = MIN_PANEL_LOOKUPS;
        assert_eq!(panel_count(0, 100, 8), 1, "no work");
        assert_eq!(panel_count(T - 1, 100, 8), 1, "below one panel's worth");
        assert_eq!(panel_count(2 * T - 1, 100, 8), 1, "second panel too light");
        assert_eq!(panel_count(2 * T, 100, 8), 2, "exactly two panels' worth");
        assert_eq!(panel_count(5 * T, 100, 8), 5);
        assert_eq!(panel_count(usize::MAX, 100, 1), 1, "threads is a maximum");
        assert_eq!(panel_count(usize::MAX, 100, 0), 1, "threads = 0 reads as 1");
        assert_eq!(
            panel_count(usize::MAX, 3, 64),
            3,
            "never more panels than rows"
        );
        assert_eq!(panel_count(usize::MAX, 0, 64), 1, "empty output");
    }

    #[test]
    fn one_panel_runs_on_the_calling_thread() {
        use std::sync::Mutex;
        // audit: allow(determinism) — which thread runs a panel is what this test observes
        let here = || std::thread::current().id();
        for threads in [2usize, 3] {
            let ids = Mutex::new(Vec::new());
            let mut out = vec![0.0; 12];
            run_row_panels(&mut out, threads, |r0, _| {
                ids.lock().unwrap().push((r0, here()));
            });
            let ids = ids.into_inner().unwrap();
            assert_eq!(ids.len(), threads, "one work call per panel");
            let me = here();
            let mine: Vec<usize> = ids.iter().filter(|p| p.1 == me).map(|p| p.0).collect();
            assert_eq!(mine, [0], "threads={threads}: the caller runs panel 0 only");
        }
    }
}
