//! The flight recorder must survive a mid-phase fault: when an algorithm
//! panics halfway through a phase, the last `K` I/O events — with their
//! phase attribution — must reach the panic sink during the unwind.
//!
//! The fault is the fuzz crate's own [`OffByOneMachine`] with a tiny
//! read budget, wrapped around a machine carrying the recorder sink: its
//! budget assertion fires deterministically on the (budget+1)-th read,
//! deep inside the §3 mergesort's phase tree.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};

use aem_core::sort::merge_sort;
use aem_fuzz::fault::OffByOneMachine;
use aem_machine::AemConfig;
use aem_obs::InstrumentedMachine;

const CAPACITY: usize = 8;
const BUDGET: u64 = 32;

#[test]
fn flight_recorder_dump_survives_a_mid_phase_panic() {
    let sink = Arc::new(Mutex::new(String::new()));
    let sink_in = sink.clone();

    let result = catch_unwind(AssertUnwindSafe(move || {
        // The machine must be created INSIDE the unwound closure so its
        // drop (and the recorder's dump) happens during the panic.
        let cfg = AemConfig::new(64, 8, 2).unwrap();
        // Stride 1 redirects every read; the budget assertion panics on
        // read 33, mid-phase.
        let mut im: InstrumentedMachine<u64> = InstrumentedMachine::new(cfg);
        let flight = im.sink_mut().flight_mut();
        flight.set_capacity(CAPACITY);
        flight.set_label("sort/aem faulted");
        flight.set_panic_sink(sink_in);
        let mut faulty = OffByOneMachine::with_read_budget(im, 1, BUDGET);
        let input: Vec<u64> = (0..256u64).rev().collect();
        let region = faulty.inner_mut().install(&input);
        let _ = merge_sort(&mut faulty, region);
        unreachable!("the read budget must fire before the sort finishes");
    }));
    assert!(result.is_err(), "the fault must panic");

    let dump = sink.lock().unwrap().clone();
    assert!(
        dump.contains("flight recorder [sort/aem faulted]"),
        "dump header missing:\n{dump}"
    );
    // Exactly the last K events are retained and serialized.
    let event_lines: Vec<&str> = dump.lines().filter(|l| l.contains(" dQ ")).collect();
    assert_eq!(event_lines.len(), CAPACITY, "{dump}");
    assert!(
        dump.contains(&format!("last {CAPACITY} of")),
        "header should state the retained/total split:\n{dump}"
    );
    // The events carry phase attribution from inside the sort — a fault
    // mid-phase means the tail is NOT unattributed.
    assert!(
        event_lines.iter().any(|l| !l.trim_end().ends_with("@ -")),
        "tail events should carry phase names:\n{dump}"
    );
    // The recorder saw reads (dQ 1); the panicking read itself is not
    // recorded (the machine died before the event was observed).
    assert!(event_lines.iter().any(|l| l.contains("dQ 1")), "{dump}");
}

#[test]
fn no_dump_without_a_panic() {
    let sink = Arc::new(Mutex::new(String::new()));
    {
        let cfg = AemConfig::new(64, 8, 2).unwrap();
        // A generous budget: the run completes, nothing panics.
        let mut im: InstrumentedMachine<u64> = InstrumentedMachine::new(cfg);
        im.sink_mut().flight_mut().set_panic_sink(sink.clone());
        let mut faulty = OffByOneMachine::with_read_budget(im, u64::MAX, 1 << 40);
        let input: Vec<u64> = (0..64u64).rev().collect();
        let region = faulty.inner_mut().install(&input);
        merge_sort(&mut faulty, region).unwrap();
    }
    assert!(
        sink.lock().unwrap().is_empty(),
        "a clean run must not dump its flight recorder"
    );
}
