//! A harness-owned trace sink that stamps wall time.
//!
//! The instrumented crates run on a virtual clock and stay clock-free; the
//! *sink* decides the time axis. This one stamps `Instant::now()` on every
//! scheduler-step span it is handed, so consecutive stamps bound one
//! iteration of the serving loop (step plus bookkeeping).

use figlut::trace::{Event, TraceSink};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One step span as delivered: when, and which kind of step.
#[derive(Clone, Copy, Debug)]
pub struct Stamp {
    /// Nanoseconds since the sink's base instant.
    pub t_ns: u64,
    /// `Prefill`, `Decode` or `Mixed`.
    pub kind: &'static str,
}

/// What the sink saw.
#[derive(Debug, Default)]
pub struct WallLog {
    pub steps: Vec<Stamp>,
    /// Every event delivered (spans, instants, counter samples).
    pub events: u64,
}

pub struct WallSink {
    base: Instant,
    log: Arc<Mutex<WallLog>>,
}

impl WallSink {
    /// A sink stamping relative to `base`, and the shared log it fills.
    pub fn new(base: Instant) -> (Self, Arc<Mutex<WallLog>>) {
        let log = Arc::new(Mutex::new(WallLog::default()));
        (
            Self {
                base,
                log: log.clone(),
            },
            log,
        )
    }
}

impl TraceSink for WallSink {
    fn record(&mut self, _run: u64, event: &Event<'_>) {
        let mut log = self.log.lock().expect("the harness is single-threaded");
        log.events += 1;
        if let Event::Span { name, .. } = *event {
            let t_ns = self.base.elapsed().as_nanos() as u64;
            log.steps.push(Stamp { t_ns, kind: name });
        }
    }
}
