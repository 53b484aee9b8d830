//! # figlut-trace — deterministic observability for the FIGLUT workspace
//!
//! A structured event/span/counter layer threaded through the execution
//! (`figlut-exec`), model (`figlut-model`), and serving (`figlut-serve`)
//! hot paths. Because the serving layer runs on a *virtual* clock and every
//! layer below it is bit-deterministic, the traces this crate records are
//! themselves bit-reproducible: the same run always emits the same events
//! with the same timestamps, so a trace diff is a regression signal, not
//! noise (DESIGN.md §8).
//!
//! Three pieces:
//!
//! * **A counter registry** ([`counters`]): per-session atomic counters
//!   bumped by the instrumented layers (packed words streamed, k-tiles
//!   walked, LUT builds, KV copy-on-writes, swap rows, scheduler steps, …).
//!   A bump lands in the session its thread is in, and every
//!   counter *reconciles* against an analytical formula the repo already
//!   commits to (`ExecPlan::streamed_words`, `StepRecord.swapped_rows`,
//!   `ServeReport.steps`) — the trace cross-checks the cost model instead
//!   of keeping parallel books that can drift.
//! * **Trace sinks** ([`sink`]): the [`TraceSink`] trait with two file
//!   sinks — newline-delimited JSON ([`JsonlSink`]) and Chrome trace-event
//!   JSON ([`ChromeTraceSink`], loadable in Perfetto / `chrome://tracing`,
//!   with `ts` measured in virtual ticks) — plus an in-memory
//!   [`CollectSink`] for tests.
//! * **Zero-cost disablement**: on a thread in no session (the default),
//!   every instrumentation site reduces to one thread-local read and
//!   performs **zero heap allocations** (pinned by `tests/alloc.rs` with a
//!   counting global allocator), and instrumented code paths compute
//!   nothing they would not compute anyway — serving output is
//!   byte-identical to the pre-instrumentation golden traces.
//!
//! ```
//! use figlut_trace::{install, CollectSink, Event};
//!
//! let sink = CollectSink::new();
//! let events = sink.events();
//! let guard = install(Box::new(sink));
//! figlut_trace::emit(&Event::Instant { name: "demo", ts: 3, args: &[("k", 7)] });
//! guard.finish().unwrap();
//! assert_eq!(events.lock().unwrap().len(), 1);
//! ```
//!
//! **Ownership and membership.** A session owns everything it records —
//! counters, sink, run index, timestamp base — and a thread records into a
//! session only while it is *in* it: [`install`] enters the calling thread
//! into a fresh session, [`current`] + [`SessionHandle::enter`] carry that
//! membership into a worker by hand, and a thread given neither is silent.
//! Nothing is process-wide, so sessions and untraced work share a process
//! without a lock and without seeing each other (the handle rides in a
//! thread-local: nothing is threaded through the layers' `Copy` configs).
#![warn(missing_docs)]

pub mod counters;
pub mod fmt;
pub mod hist;
pub mod json;
pub mod sink;

pub use counters::{snapshot, Counters};
pub use hist::Hist;
pub use sink::{validate_chrome_trace, ChromeTraceSink, CollectSink, JsonlSink, OwnedEvent};

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// One structured trace event, built on the caller's stack — no allocation
/// is required to construct one, so instrumentation sites can assemble
/// events inside `if figlut_trace::enabled()` blocks without touching the
/// heap when tracing is off.
#[derive(Clone, Copy, Debug)]
pub enum Event<'a> {
    /// A closed interval on the virtual clock (one scheduler step).
    Span {
        /// Static event name (e.g. the step kind).
        name: &'static str,
        /// Start tick (already offset by [`run_base`]).
        ts: u64,
        /// Duration in virtual ticks (the step's cost).
        dur: u64,
        /// Numeric payload, e.g. queue depth or row counts.
        args: &'a [(&'static str, u64)],
    },
    /// A point event (admission, preemption, restore).
    Instant {
        /// Static event name.
        name: &'static str,
        /// Tick (already offset by [`run_base`]).
        ts: u64,
        /// Numeric payload, e.g. the request id.
        args: &'a [(&'static str, u64)],
    },
    /// A sampled counter track (queue depth, live KV blocks).
    Counter {
        /// Static track name.
        name: &'static str,
        /// Tick (already offset by [`run_base`]).
        ts: u64,
        /// The sampled value.
        value: u64,
    },
}

impl Event<'_> {
    /// The event's timestamp in global virtual ticks.
    pub fn ts(&self) -> u64 {
        match *self {
            Event::Span { ts, .. } | Event::Instant { ts, .. } | Event::Counter { ts, .. } => ts,
        }
    }
}

/// Where recorded events go. Implementations receive every event of a
/// session in emission order, tagged with the 0-based serve-run index
/// (Chrome sinks map it to a thread lane).
pub trait TraceSink: Send {
    /// Record one event.
    fn record(&mut self, run: u64, event: &Event<'_>);

    /// Flush buffered output; called once by [`TraceGuard::finish`] (or on
    /// guard drop, with the result discarded).
    fn close(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Everything one trace session records into, shared between the
/// installing thread and the workers it hands a [`SessionHandle`] to.
#[derive(Default)]
struct Session {
    counters: counters::Registry,
    /// Virtual-tick offset ([`run_base`]) and 0-based index of the current run.
    ts_base: AtomicU64,
    run: AtomicU64,
    /// `None` once the guard has flushed it.
    sink: Mutex<Option<Box<dyn TraceSink>>>,
}

impl Session {
    fn sink(&self) -> MutexGuard<'_, Option<Box<dyn TraceSink>>> {
        self.sink
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Flush and drop the sink (idempotent).
    fn close(&self) -> std::io::Result<()> {
        self.sink().take().map_or(Ok(()), |mut sink| sink.close())
    }
}

thread_local! {
    /// The session *this thread* records into, if any.
    static CURRENT: RefCell<Option<Arc<Session>>> = const { RefCell::new(None) };
}

/// Run `f` on the calling thread's session, if it is in one. Every entry
/// point goes through here: the disabled path is this one thread-local read.
#[inline]
pub(crate) fn with_session<R>(f: impl FnOnce(&Session) -> R) -> Option<R> {
    CURRENT.with_borrow(|current| current.as_deref().map(f))
}

/// `true` while the calling thread is in a trace session: the gate every
/// instrumentation site checks before it does anything else.
#[inline]
pub fn enabled() -> bool {
    CURRENT.with_borrow(Option::is_some)
}

/// A thread's session membership as a `Send + Sync` value: take
/// [`current`] before spawning, [`enter`](Self::enter) inside the worker.
#[derive(Clone)]
pub struct SessionHandle(Arc<Session>);

/// The session the calling thread is in; `None` (one thread-local read, no
/// reference count touched) on an untraced thread.
pub fn current() -> Option<SessionHandle> {
    CURRENT.with_borrow(|current| current.clone().map(SessionHandle))
}

impl SessionHandle {
    /// Put the calling thread in this handle's session until the returned
    /// [`Scope`] drops. Scopes and [`TraceGuard`]s of one thread must drop in
    /// reverse order of creation — what `let` bindings do.
    pub fn enter(&self) -> Scope {
        Scope {
            entered: Arc::as_ptr(&self.0),
            previous: CURRENT.replace(Some(Arc::clone(&self.0))),
        }
    }
}

/// Keeps the calling thread in a session ([`SessionHandle::enter`]) and
/// restores its previous membership on drop. `!Send`: it drops where it
/// was created.
#[must_use = "dropping the scope leaves the session"]
pub struct Scope {
    /// Identity of the entered session (compared on drop, never read through).
    entered: *const Session,
    previous: Option<Arc<Session>>,
}

impl Drop for Scope {
    fn drop(&mut self) {
        let left = CURRENT.replace(self.previous.take());
        // An out-of-order drop re-enters a stale session. Not checked while
        // unwinding, where a second panic would abort.
        debug_assert!(
            left.as_ref().map(Arc::as_ptr) == Some(self.entered) || std::thread::panicking(),
            "trace guards dropped out of LIFO order"
        );
    }
}

/// Keeps a trace session alive and the installing thread in it; dropping or
/// [`finish`](Self::finish)ing it flushes the sink and restores the thread's
/// previous membership. `!Send`, and drops in reverse order like a [`Scope`].
#[must_use = "dropping the guard ends the trace session"]
pub struct TraceGuard {
    session: Arc<Session>,
    _scope: Scope,
}

/// Start a fresh session — zeroed counters, run 0, timestamp base 0 —
/// recording into `sink`, and put the calling thread in it. Only this
/// thread and the workers it hands [`current`] to record into it; sessions
/// nest (the guard restores the outer one) and never block each other.
pub fn install(sink: Box<dyn TraceSink>) -> TraceGuard {
    let session = Arc::new(Session {
        sink: Mutex::new(Some(sink)),
        ..Session::default()
    });
    TraceGuard {
        _scope: SessionHandle(Arc::clone(&session)).enter(),
        session,
    }
}

impl TraceGuard {
    /// End the session: flush and drop the sink and return the flush
    /// result (file sinks surface I/O errors here, not silently on drop).
    /// A later [`snapshot`] reads the thread's *previous* session — zeros
    /// if none — so snapshot first.
    pub fn finish(self) -> std::io::Result<()> {
        self.session.close()
    }
}

impl Drop for TraceGuard {
    fn drop(&mut self) {
        let _ = self.session.close();
    }
}

/// Send one event to the calling thread's session sink. A no-op (one
/// thread-local read, no allocation, no lock) on a thread in no session.
pub fn emit(event: &Event<'_>) {
    with_session(|s| {
        if let Some(sink) = s.sink().as_mut() {
            sink.record(s.run.load(Ordering::Relaxed), event);
        }
    });
}

/// The virtual-tick offset of the current run (0 on a thread in no
/// session). A serve run stamps its events `run_base() + local clock`,
/// which keeps `ts` globally monotone across the multiple runs a session
/// records into one trace (each run's local clock restarts at 0).
pub fn run_base() -> u64 {
    with_session(|s| s.ts_base.load(Ordering::Relaxed)).unwrap_or(0)
}

/// Close the current run, whose virtual clock ended at `ticks`: advances
/// the session's timestamp base past the run and bumps the run index (the
/// Chrome sink's thread lane). No-op on a thread in no session.
pub fn end_run(ticks: u64) {
    with_session(|s| {
        s.ts_base.fetch_add(ticks, Ordering::Relaxed);
        s.run.fetch_add(1, Ordering::Relaxed);
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_emit_is_dropped_and_session_scopes_events() {
        assert!(!enabled());
        emit(&Event::Counter {
            name: "ghost",
            ts: 0,
            value: 1,
        });
        let sink = CollectSink::new();
        let events = sink.events();
        let guard = install(Box::new(sink));
        assert!(enabled());
        emit(&Event::Instant {
            name: "a",
            ts: 1,
            args: &[],
        });
        assert_eq!(run_base(), 0);
        end_run(10);
        assert_eq!(run_base(), 10);
        emit(&Event::Instant {
            name: "b",
            ts: run_base() + 2,
            args: &[],
        });
        guard.finish().unwrap();
        assert!(!enabled());
        emit(&Event::Instant {
            name: "after",
            ts: 99,
            args: &[],
        });
        let evs = events.lock().unwrap();
        assert_eq!(evs.len(), 2);
        let (runs, ts): (Vec<u64>, Vec<u64>) = evs.iter().map(|e| (e.run(), e.ts())).unzip();
        assert_eq!(runs, [0, 1], "end_run advances the run index");
        assert_eq!(ts, [1, 12], "second run's ts offset by the first's ticks");
    }

    #[test]
    fn a_fresh_session_starts_from_zero_and_reads_zero_after_finish() {
        let guard = install(Box::new(CollectSink::new()));
        counters::bump_serve_steps(3);
        assert_eq!(snapshot().serve_steps, 3);
        guard.finish().unwrap();
        // No session: bumps are dropped and a snapshot reads zeros.
        counters::bump_serve_steps(5);
        assert_eq!(snapshot(), Counters::default());
        let guard = install(Box::new(CollectSink::new()));
        assert_eq!(snapshot().serve_steps, 0);
        guard.finish().unwrap();
    }

    #[test]
    fn nested_install_restores_the_outer_session() {
        let outer_sink = CollectSink::new();
        let outer_events = outer_sink.events();
        let outer = install(Box::new(outer_sink));
        counters::bump_exec_calls(1);
        end_run(7);
        {
            let inner = install(Box::new(CollectSink::new()));
            assert_eq!((snapshot().exec_calls, run_base()), (0, 0));
            counters::bump_exec_calls(10);
            inner.finish().unwrap();
        }
        assert_eq!((snapshot().exec_calls, run_base()), (1, 7));
        emit(&Event::Counter {
            name: "outer",
            ts: 7,
            value: 1,
        });
        outer.finish().unwrap();
        assert!(!enabled());
        assert_eq!(outer_events.lock().unwrap().len(), 1);
    }

    #[test]
    fn a_spawned_thread_records_only_after_entering() {
        assert!(
            current().is_none(),
            "an untraced thread has nothing to hand on"
        );
        let guard = install(Box::new(CollectSink::new()));
        let session = current().expect("installed above");
        std::thread::scope(|s| {
            s.spawn(|| {
                assert!(!enabled(), "membership is not inherited");
                counters::bump_exec_calls(100);
                assert_eq!(snapshot(), Counters::default());
            });
            s.spawn(|| {
                let _scope = session.enter();
                counters::bump_exec_calls(2);
            });
        });
        assert_eq!(snapshot().exec_calls, 2);
        guard.finish().unwrap();
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "out of LIFO order")]
    fn guards_dropped_out_of_order_are_caught_in_debug_builds() {
        let outer = install(Box::new(CollectSink::new()));
        let _inner = install(Box::new(CollectSink::new()));
        drop(outer);
    }
}
