//! Integration tests for the sweep engine against the real experiment
//! grids: every quick table passes, and the document does not depend on
//! the worker count or (on the shared sweeps) on the storage backend.

use aem_bench::exp;
use aem_bench::sweep::{self, RunOptions, RunReport};
use aem_machine::Backend;

fn render(report: &RunReport) -> String {
    let mut doc = String::new();
    for o in &report.outcomes {
        doc.push_str(
            &o.table
                .as_ref()
                .unwrap_or_else(|| panic!("{} panicked: {:?}", o.id, o.panic))
                .to_markdown(),
        );
    }
    doc
}

/// Every quick experiment on vec: each table has rows and no failed note,
/// and a 4-worker run renders the same bytes as a serial one.
#[test]
fn parallel_is_byte_identical_to_serial() {
    let run = |jobs| {
        let opts = RunOptions {
            jobs,
            ..Default::default()
        };
        sweep::run(&exp::all_sweeps(true, Backend::Vec), &opts).unwrap()
    };
    let serial = run(1);
    assert_eq!(
        serial.outcomes.len(),
        exp::all_sweeps(true, Backend::Vec).len()
    );
    for o in &serial.outcomes {
        let t = o
            .table
            .as_ref()
            .unwrap_or_else(|| panic!("{} panicked: {:?}", o.id, o.panic));
        assert!(!t.rows.is_empty(), "{} has no rows", o.id);
        for n in &t.notes {
            assert!(!n.contains("FAIL"), "{}: {}", o.id, n);
        }
    }
    assert_eq!(render(&serial), render(&run(4)));
}

#[test]
fn ghost_engine_run_is_byte_identical_to_vec_on_shared_sweeps() {
    // The CI smoke in script form: the backend-neutral T8, the
    // payload-oblivious T5N and the constant-key T9G are in every
    // backend's sweep set, keyed and rendered without backend names, so a
    // ghost document must equal the vec document byte for byte.
    let opts = RunOptions {
        only: Some(vec!["T8".into(), "T5N".into(), "T9G".into()]),
        ..Default::default()
    };
    let doc = |backend| render(&sweep::run(&exp::all_sweeps(true, backend), &opts).unwrap());
    let vec_doc = doc(Backend::Vec);
    assert!(vec_doc.contains("### T9G"), "{vec_doc}");
    assert_eq!(vec_doc, doc(Backend::Ghost));
}
