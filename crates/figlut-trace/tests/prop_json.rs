//! Properties of the trace writer and its reader: `read_chrome_trace`
//! gives back exactly the events a `ChromeTraceSink` rendered, and a
//! rendered Chrome trace cut short at any char boundary, or with any one
//! byte overwritten by an ASCII byte, makes `Json::parse` and
//! `validate_chrome_trace` return `Ok` or `Err` — never panic.

use figlut_trace::json::Json;
use figlut_trace::{
    read_chrome_trace, validate_chrome_trace, ChromeTraceSink, CollectSink, Event, TraceSink,
};
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// A name with non-ASCII scalars of every UTF-8 width and characters the
/// writer escapes (quote, backslash, newline, a control character).
const NAME: &str = "préfill→\"q\\k\"\n\u{1}𝛼";

/// Event names and arg keys the round trip draws from.
const NAMES: [&str; 3] = [NAME, "Decode", "queue_depth"];
const KEYS: [&str; 3] = ["rows", "k\"\\ey\t", "value"];

/// A rendered document holding every event kind under [`NAME`].
fn document() -> String {
    let mut sink = ChromeTraceSink::new(Box::new(std::io::sink()));
    let events = [
        Event::Span {
            name: NAME,
            ts: 0,
            dur: 16,
            args: &[("rows", 4), ("queue", 2)],
        },
        Event::Instant {
            name: NAME,
            ts: 16,
            args: &[("id", 3)],
        },
        Event::Counter {
            name: NAME,
            ts: 32,
            value: 7,
        },
    ];
    for e in &events {
        sink.record(0, e);
    }
    sink.render()
}

/// Run both readers on `text`; `Err` names the input if either panics.
fn readers_return(text: &str) -> Result<(), String> {
    catch_unwind(AssertUnwindSafe(|| {
        let _ = Json::parse(text);
        let _ = validate_chrome_trace(text);
    }))
    .map_err(|_| format!("a reader panicked on {text:?}"))
}

#[test]
fn the_intact_document_validates_and_keeps_the_name() {
    let doc = document();
    assert!(doc.contains("\\\"q\\\\k\\\"\\n\\u0001"), "{doc}");
    assert_eq!(validate_chrome_trace(&doc), Ok(3));
    let j = Json::parse(&doc).unwrap();
    let events = j.get("traceEvents").and_then(Json::as_arr).unwrap();
    for e in events {
        assert_eq!(e.get("name").and_then(Json::as_str), Some(NAME));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Each draw is (kind, run, ts step, name, arg count, dur or value, args).
    #[test]
    fn the_reader_returns_what_the_writer_recorded(
        draws in prop::collection::vec(
            (
                0u8..3,
                0u64..4,
                0u64..=3,
                0usize..NAMES.len(),
                0usize..=KEYS.len(),
                0u64..=1 << 53,
                (0u64..=1 << 53, 0u64..=1 << 53, 0u64..=1 << 53),
            ),
            0..40,
        )
    ) {
        let mut collect = CollectSink::new();
        let collected = collect.events();
        let mut chrome = ChromeTraceSink::new(Box::new(std::io::sink()));
        let mut ts = 0;
        for &(kind, run, step, name, n, dur, (a, b, c)) in &draws {
            ts += step;
            let args: Vec<_> = KEYS.into_iter().zip([a, b, c]).take(n).collect();
            let (name, args) = (NAMES[name], &args[..]);
            let event = match kind {
                0 => Event::Span { name, ts, dur, args },
                1 => Event::Instant { name, ts, args },
                _ => Event::Counter { name, ts, value: dur },
            };
            collect.record(run, &event);
            chrome.record(run, &event);
        }
        let read = read_chrome_trace(&chrome.render());
        prop_assert_eq!(read.as_deref(), Ok(&collected.lock().unwrap()[..]));
    }

    #[test]
    fn truncated_documents_never_panic(pick in 0usize..1 << 20) {
        let doc = document();
        let cuts: Vec<usize> = doc.char_indices().map(|(i, _)| i).collect();
        let cut = cuts[pick % cuts.len()];
        let r = readers_return(&doc[..cut]);
        prop_assert!(r.is_ok(), "{}", r.unwrap_err());
    }

    #[test]
    fn one_overwritten_byte_never_panics(pick in 0usize..1 << 20, byte in 0u8..0x80) {
        // Overwriting a byte of a multi-byte scalar leaves invalid UTF-8;
        // the lossy decode turns it into U+FFFD, still a `&str` to read.
        let mut bytes = document().into_bytes();
        let at = pick % bytes.len();
        bytes[at] = byte;
        let text = String::from_utf8_lossy(&bytes);
        let r = readers_return(&text);
        prop_assert!(r.is_ok(), "{}", r.unwrap_err());
    }
}
