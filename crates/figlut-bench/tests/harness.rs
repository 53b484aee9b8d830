//! Smoke tests for the reproduction harness: every cheap experiment must
//! build non-empty tables with self-consistent content. (The perplexity
//! experiments are exercised by the repo-level integration tests; running
//! them here too would double CI time for no coverage gain.)

use figlut_bench::experiments::EXPERIMENTS;
use figlut_bench::fmt::Table;

/// Render a table and sanity-check its shape.
#[allow(dead_code)]
fn check(t: &Table) {
    assert!(!t.headers.is_empty());
    assert!(!t.rows.is_empty(), "{}: empty table", t.title);
    for row in &t.rows {
        assert_eq!(row.len(), t.headers.len(), "{}", t.title);
        for cell in row {
            assert!(!cell.is_empty(), "{}: empty cell", t.title);
        }
    }
    let rendered = t.render();
    assert!(rendered.contains(&t.title));
}

#[test]
fn fast_experiments_produce_tables() {
    let dir = std::env::temp_dir().join("figlut-harness-test");
    for id in [
        "table1", "fig1", "fig2", "table2", "fig6", "fig8", "fig9", "table3", "fig11", "fig14",
        "ext-node",
    ] {
        // `run` prints and writes CSVs; every registered id is known.
        figlut_bench::run(id, &dir).unwrap();
    }
    // CSVs landed.
    assert!(dir.join("table1.csv").exists());
    assert!(dir.join("fig9.csv").exists());
    let csv = std::fs::read_to_string(dir.join("fig11.csv")).unwrap();
    assert!(csv.lines().count() >= 5, "fig11 csv:\n{csv}");
    assert!(csv.contains("42%"), "fig11 must contain the 42% row");
}

#[test]
fn experiment_registry_is_complete() {
    // Every registered id dispatches (checked cheaply via --list parity);
    // unknown ids come back as a named error, not a panic.
    assert!(EXPERIMENTS.contains(&"table5"));
    assert!(EXPERIMENTS.contains(&"fig17"));
    assert!(EXPERIMENTS.contains(&"ext-serving"));
    assert!(EXPERIMENTS.contains(&"ext-chunked-prefill"));
    assert!(EXPERIMENTS.contains(&"ext-paged-kv"));
    assert!(EXPERIMENTS.contains(&"ext-overload"));
    assert!(EXPERIMENTS.contains(&"ext-resilience"));
    assert_eq!(EXPERIMENTS.len(), 26);
    let err = figlut_bench::run("fig99", &std::env::temp_dir()).unwrap_err();
    assert_eq!(err, figlut_bench::UnknownExperiment("fig99".into()));
    let msg = err.to_string();
    assert!(
        msg.contains("unknown experiment 'fig99'") && msg.contains("ext-serving"),
        "{msg}"
    );
}

#[test]
fn table_formatting_roundtrip() {
    let mut t = Table::new("unit", &["a", "b"]);
    t.row(vec!["1".into(), "two,with,commas".into()]);
    t.note("hello");
    let dir = std::env::temp_dir().join("figlut-harness-test-fmt");
    t.write_csv(&dir, "unit").unwrap();
    let csv = std::fs::read_to_string(dir.join("unit.csv")).unwrap();
    assert!(csv.contains("\"two,with,commas\""), "{csv}");
    assert!(t.render().contains("note: hello"));
}
