//! The machine's sink contract, checked on every backend.
//!
//! A `MachineCore` hands its `Observer` sink one event after each
//! successful metered operation, one occupancy update after each
//! successful `discard`/`reserve`, and the phase hooks. These tests drive
//! a scripted sequence — single, bulk, borrowed, fused-exchange, in-place
//! update and single-element probe data ops, aux ops and failing ops —
//! through a logging sink that records a `Trace` plus the occupancy after
//! every event, and check:
//!
//! * after every operation, the trace prices exactly what the meter
//!   charged and the last reported occupancy is the ledger's;
//! * bulk runs give the per-block loop's events and occupancies, and
//!   updates and probes those of the reads, writes and discards they
//!   stand for;
//! * a failed operation — a bulk run that fails part-way through its
//!   range and a BadBlock exchange included — emits nothing;
//! * phase hooks reach the sink through the fault-injecting wrapper.

use std::cell::RefCell;
use std::rc::Rc;

use aem_fuzz::fault::OffByOneMachine;
use aem_machine::{
    AemAccess, AemConfig, ArenaMachine, Backend, BlockId, CompiledTrace, Cost, GhostMachine,
    IoEvent, IoRun, Machine, MachineError, Observer, Trace,
};
use aem_obs::instrument::CTR_READS;
use aem_obs::{RunRecorder, WorkloadMeta};

fn cfg() -> AemConfig {
    AemConfig::new(16, 4, 8).unwrap()
}

/// Everything the sink saw.
#[derive(Default)]
struct Log {
    trace: Trace,
    occupancy: Vec<usize>,
    used: usize,
    runs: usize,
    mems: usize,
    phases: Vec<String>,
}

/// A sink the script can read while the machine owns it.
#[derive(Clone, Default)]
struct Shared(Rc<RefCell<Log>>);

impl Observer for Shared {
    fn new_sink(_: AemConfig) -> Self {
        Shared::default()
    }
    fn on_io(&mut self, ev: &IoEvent, internal_used: usize) {
        let mut log = self.0.borrow_mut();
        log.trace.on_io(ev, internal_used);
        log.occupancy.push(internal_used);
        log.used = internal_used;
    }
    fn on_run(&mut self, run: &IoRun<'_>) {
        self.0.borrow_mut().runs += 1;
        for (ev, used) in run.events() {
            self.on_io(&ev, used);
        }
    }
    fn on_mem(&mut self, internal_used: usize) {
        let mut log = self.0.borrow_mut();
        log.used = internal_used;
        log.mems += 1;
    }
    fn on_phase_enter(&mut self, name: &str, _: usize) {
        self.0.borrow_mut().phases.push(format!("+{name}"));
    }
    fn on_phase_exit(&mut self) {
        self.0.borrow_mut().phases.push("-".into());
    }
}

/// Runs `script` on `backend`'s machine carrying a [`Shared`] sink (beside
/// the compiled schedule on the trace backend) and returns what the sink
/// logged.
fn logged(backend: Backend, script: impl FnOnce(&mut dyn AemAccess<u32>, &Shared)) -> Log {
    let (c, sink) = (cfg(), Shared::default());
    match backend {
        Backend::Vec => script(&mut Machine::<u32, _>::with_sink(c, sink.clone()), &sink),
        Backend::Arena => script(
            &mut ArenaMachine::<u32, _>::with_sink(c, sink.clone()),
            &sink,
        ),
        Backend::Ghost => script(
            &mut GhostMachine::<u32, _>::with_sink(c, sink.clone()),
            &sink,
        ),
        Backend::Trace => {
            let sinks = (CompiledTrace::new(c), sink.clone());
            script(&mut Machine::<u32, _>::with_sink(c, sinks), &sink)
        }
    }
    Rc::try_unwrap(sink.0).ok().unwrap().into_inner()
}

/// The sink has seen exactly what the meter and the ledger did.
fn settled(m: &dyn AemAccess<u32>, sink: &Shared) {
    let log = sink.0.borrow();
    assert_eq!(
        log.trace.cost(),
        m.cost(),
        "every metered op reached the sink"
    );
    assert_eq!(log.used, m.internal_used(), "occupancy reached the sink");
}

/// `op` must fail and leave the sink untouched.
fn fails<T: std::fmt::Debug>(
    m: &mut dyn AemAccess<u32>,
    sink: &Shared,
    op: impl FnOnce(&mut dyn AemAccess<u32>) -> Result<T, MachineError>,
) -> MachineError {
    let before = {
        let log = sink.0.borrow();
        (log.trace.len(), log.runs, log.mems, log.used)
    };
    let err = op(m).unwrap_err();
    let log = sink.0.borrow();
    let after = (log.trace.len(), log.runs, log.mems, log.used);
    assert_eq!(before, after, "{err:?} emitted an event");
    err
}

/// The scripted sequence. `bulk` picks bulk runs, in-place updates and
/// probes, or the equivalent per-block loops, reads, writes and discards;
/// everything else is identical.
fn script(m: &mut dyn AemAccess<u32>, sink: &Shared, bulk: bool) {
    fails(m, sink, |m| m.read_block(BlockId(42)));
    let r = m.alloc_region(10);
    let data: Vec<u32> = (50..60).collect();
    m.reserve(data.len()).unwrap();
    settled(m, sink);
    if bulk {
        assert_eq!(m.write_run(r.block(0), &data).unwrap(), 3);
    } else {
        for (i, chunk) in data.chunks(4).enumerate() {
            m.write_block(r.block(i), chunk.to_vec()).unwrap();
        }
    }
    settled(m, sink);
    let mut buf = Vec::new();
    if bulk {
        assert_eq!(m.read_run(r.block(0), 3, &mut buf).unwrap(), 10);
    } else {
        let mut tmp = Vec::new();
        for i in 0..3 {
            m.read_block_into(r.block(i), &mut tmp).unwrap();
            buf.append(&mut tmp);
        }
    }
    settled(m, sink);
    m.discard(buf.len()).unwrap();
    settled(m, sink);

    // Failing bulk runs: part-way past the allocated range, and over the
    // internal budget. Both are validated whole before any charge.
    fails(m, sink, |m| m.read_run(r.block(1), 3, &mut Vec::new()));
    fails(m, sink, |m| m.write_run(r.block(2), &[0; 8]));
    m.reserve(8).unwrap();
    fails(m, sink, |m| m.write_run(r.block(2), &[0; 8]));
    fails(m, sink, |m| m.read_run(r.block(0), 3, &mut Vec::new()));
    m.discard(8).unwrap();
    settled(m, sink);

    // Single, borrowed and fused-exchange reads; a single write.
    let d = m.read_block(r.block(0)).unwrap();
    settled(m, sink);
    let mut lent = Vec::new();
    let len = m
        .read_block_with(r.block(1), &mut |blk| lent = blk.to_vec())
        .unwrap();
    assert_eq!(len, lent.len());
    settled(m, sink);
    let mut held = Vec::new();
    m.read_block_into(r.block(2), &mut held).unwrap();
    m.exchange_block_into(r.block(0), &mut held).unwrap();
    settled(m, sink);
    let err = fails(m, sink, |m| m.exchange_block_into(BlockId(99), &mut held));
    assert!(matches!(err, MachineError::BadBlock { .. }));
    fails(m, sink, |m| m.read_block_with(BlockId(99), &mut |_| {}));
    fails(m, sink, |m| m.write_block(r.block(0), vec![0; 5]));
    m.write_block(r.block(2), d).unwrap();
    settled(m, sink);
    m.discard(held.len() + len).unwrap();
    fails(m, sink, |m| m.discard(1));
    fails(m, sink, |m| m.reserve(17));
    settled(m, sink);

    // In-place updates (one writing back, one not) and a probe.
    for (i, edit) in [(0, true), (1, false)] {
        if bulk {
            let wrote = m
                .update_block_with(r.block(i), &mut |blk| {
                    if edit {
                        blk[0] = 1;
                    }
                    edit
                })
                .unwrap();
            assert_eq!(wrote, edit);
        } else {
            let mut d = m.read_block(r.block(i)).unwrap();
            if edit {
                d[0] = 1;
                m.write_block(r.block(i), d).unwrap();
            } else {
                m.discard(d.len()).unwrap();
            }
        }
        settled(m, sink);
    }
    if bulk {
        m.probe_elem(r.block(2), 1).unwrap();
    } else {
        let d = m.read_block(r.block(2)).unwrap();
        m.discard(d.len()).unwrap();
    }
    settled(m, sink);
    fails(m, sink, |m| m.update_block_with(BlockId(99), &mut |_| true));
    fails(m, sink, |m| m.probe_elem(BlockId(99), 0));
    m.reserve(14).unwrap();
    fails(m, sink, |m| m.update_block_with(r.block(0), &mut |_| true));
    fails(m, sink, |m| m.probe_elem(r.block(0), 0));
    m.discard(14).unwrap();
    settled(m, sink);

    // Aux ops.
    let ar = m.alloc_aux_region(4);
    m.reserve(3).unwrap();
    m.write_aux_block(ar.block(0), vec![7, 8, 9]).unwrap();
    settled(m, sink);
    assert_eq!(m.read_aux_block(ar.block(0)).unwrap(), vec![7, 8, 9]);
    settled(m, sink);
    fails(m, sink, |m| m.read_aux_block(BlockId(99)));
    fails(m, sink, |m| m.write_aux_block(ar.block(0), vec![0; 4]));
    m.discard(3).unwrap();
    settled(m, sink);
}

#[test]
fn every_backend_honours_the_sink_contract() {
    let per_block = logged(Backend::Vec, |m, sink| script(m, sink, false));
    assert_eq!(per_block.runs, 0);
    for backend in Backend::ALL {
        let log = logged(backend, |m, sink| script(m, sink, true));
        assert_eq!(log.runs, 2, "{backend}: each bulk run is one sink call");
        assert_eq!(log.trace, per_block.trace, "{backend}: events");
        assert_eq!(log.occupancy, per_block.occupancy, "{backend}: occupancy");
        assert_eq!(log.mems, per_block.mems, "{backend}: discard/reserve");
    }
    // One event per metered I/O: 3 + 3 writes and reads of the runs, four
    // reads and a write of the single ops, three reads and a write of the
    // updates and the probe, one aux write and one aux read.
    assert_eq!(
        per_block.trace.cost(),
        Cost::new(3 + 4 + 3 + 1, 3 + 1 + 1 + 1)
    );
}

#[test]
fn phase_hooks_reach_the_sink_through_the_fault_wrapper() {
    for backend in Backend::ALL {
        let log = logged(backend, |m, _| {
            // A stride no run reaches: the wrapper forwards unfaulted.
            let mut faulty = OffByOneMachine::new(m, u64::MAX);
            faulty.phase_enter("outer");
            faulty.phase_enter("inner");
            let r = faulty.alloc_region(4);
            faulty.reserve(4).unwrap();
            faulty.write_block(r.block(0), vec![1, 2, 3, 4]).unwrap();
            faulty.phase_exit();
            faulty.phase_exit();
        });
        assert_eq!(log.phases, ["+outer", "+inner", "-", "-"], "{backend}");
        assert_eq!(log.trace.len(), 1, "{backend}");
    }
}

#[test]
fn observers_receive_callbacks() {
    let log = logged(Backend::Vec, |m, _| {
        let r = m.alloc_region(4);
        m.reserve(4).unwrap();
        m.write_block(r.block(0), vec![1, 2, 3, 4]).unwrap();
        let before = m.cost();
        m.phase_enter("p");
        let d = m.read_block(r.block(0)).unwrap();
        m.discard(d.len()).unwrap();
        m.phase_exit();
        assert_eq!(m.cost().since(before), Cost::new(1, 0));
    });
    let ios = log.trace.events().iter().filter(|e| !e.is_write()).count();
    assert_eq!(ios, 1);
    assert_eq!(log.phases.iter().filter(|p| p.starts_with('+')).count(), 1);
}

#[test]
fn borrowed_reads_are_observed_like_copying_reads() {
    let seen = Shared::default();
    let sinks = (RunRecorder::new_sink(cfg()), seen.clone());
    let mut im = Machine::<u32, _>::with_sink(cfg(), sinks);
    let r = im.install(&[1, 2, 3, 4, 5, 6]);
    let mut buf = Vec::new();
    let copied = im.read_block_into(r.block(0), &mut buf).unwrap();
    let mut lent = Vec::new();
    let borrowed = im
        .read_block_with(r.block(0), &mut |blk| lent = blk.to_vec())
        .unwrap();
    assert_eq!((copied, borrowed), (4, 4));
    assert_eq!(lent, buf);
    assert_eq!(im.internal_used(), 8);

    // Errors reach the caller unobserved, BadBlock before overflow.
    let err = im.read_block_with(BlockId(9), &mut |_| unreachable!());
    assert!(matches!(err, Err(MachineError::BadBlock { .. })));
    im.reserve(8).unwrap();
    let err = im.read_block_with(r.block(1), &mut |_| unreachable!());
    assert!(matches!(err, Err(MachineError::InternalOverflow { .. })));
    im.discard(16).unwrap();

    {
        let seen = seen.0.borrow();
        let events = seen.trace.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0], events[1], "same event");
        assert_eq!(
            (seen.occupancy[0], seen.occupancy[1]),
            (4, 8),
            "occupancy after each"
        );
    }
    assert_eq!(im.cost(), Cost::new(2, 0));
    assert_eq!(im.sink().0.metrics().counter(CTR_READS), 2);
    let rec = im
        .into_sink()
        .0
        .into_record(WorkloadMeta::new("test", "borrow", 6));
    assert_eq!(rec.trace.len(), 2);
    assert_eq!(rec.trace.events()[0], rec.trace.events()[1]);
}
