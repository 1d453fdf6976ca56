//! [`InstrumentedMachine`]: the `AemAccess` wrapper that records everything.
//!
//! Wrap any machine (usually the plain [`aem_machine::Machine`]) and run an
//! algorithm against the wrapper; every I/O is forwarded to the inner
//! machine and simultaneously recorded into a trace, a metrics registry and
//! the phase tree. When the run finishes, [`InstrumentedMachine::into_record`]
//! packages the observations as a serializable [`RunRecord`].
//!
//! ```
//! use aem_machine::{AemConfig, Machine};
//! use aem_obs::{InstrumentedMachine, WorkloadMeta};
//!
//! let cfg = AemConfig::new(64, 8, 4).unwrap();
//! let mut im = InstrumentedMachine::new(Machine::<u64>::new(cfg));
//! let region = im.inner_mut().install(&[3, 1, 2, 0, 7, 5, 4, 6]);
//! im.enter("sort");
//! let out = aem_core::sort::merge_sort(&mut im, region).unwrap();
//! im.exit();
//! assert_eq!(im.inner().inspect(out), vec![0, 1, 2, 3, 4, 5, 6, 7]);
//! let record = im.into_record(WorkloadMeta::new("sort", "aem", 8));
//! assert!(record.q() > 0);
//! ```

use std::collections::HashMap;
use std::marker::PhantomData;

use aem_machine::error::Result;
use aem_machine::{AemAccess, AemConfig, BlockId, Cost, IoEvent, Region, Trace};

use crate::flight::FlightRecorder;
use crate::metrics::Metrics;
use crate::observer::Observer;
use crate::phase::PhaseStack;
use crate::record::{RunRecord, WorkloadMeta};

/// Counter name: data-block reads.
pub const CTR_READS: &str = "io.reads";
/// Counter name: data-block writes.
pub const CTR_WRITES: &str = "io.writes";
/// Counter name: auxiliary-block reads.
pub const CTR_AUX_READS: &str = "io.aux_reads";
/// Counter name: auxiliary-block writes.
pub const CTR_AUX_WRITES: &str = "io.aux_writes";
/// Counter name: total elements transferred.
pub const CTR_VOLUME: &str = "io.volume";
/// Gauge name: internal-memory occupancy (elements), with high-water mark.
pub const GAUGE_INTERNAL: &str = "mem.internal_used";
/// Histogram name: block occupancy at read time.
pub const HIST_OCC_READ: &str = "block.occupancy.read";
/// Histogram name: block occupancy at write time.
pub const HIST_OCC_WRITE: &str = "block.occupancy.write";
/// Histogram name: per-block read counts (built when the run finishes).
pub const HIST_REREADS: &str = "block.rereads";

/// Quartile bucket bounds for a block-occupancy histogram on block size `b`.
fn occupancy_bounds(b: usize) -> Vec<u64> {
    let b = b as u64;
    let mut bounds: Vec<u64> = [b / 4, b / 2, (3 * b) / 4, b]
        .into_iter()
        .filter(|&x| x > 0)
        .collect();
    bounds.dedup();
    bounds
}

/// An `AemAccess` wrapper that observes every operation.
///
/// The wrapper charges nothing: cost, capacity and semantics are exactly the
/// inner machine's. It adds a recorded [`Trace`], per-event occupancy
/// samples, built-in [`Metrics`] (see the `CTR_*`/`GAUGE_*`/`HIST_*`
/// constants), a phase tree fed by [`enter`](Self::enter)/[`exit`](Self::exit)
/// (or the `phase_enter`/`phase_exit` hooks algorithms call through
/// `AemAccess`), and fan-out to registered [`Observer`]s.
///
/// ```
/// use aem_machine::{AemAccess, AemConfig, Machine};
/// use aem_obs::{InstrumentedMachine, WorkloadMeta};
///
/// let cfg = AemConfig::new(64, 8, 16).unwrap();
/// let mut im = InstrumentedMachine::new(Machine::<u64>::new(cfg));
/// let r = im.inner_mut().install(&(0..16).collect::<Vec<u64>>());
///
/// im.enter("copy-block");
/// let block = im.read_block(r.block(0)).unwrap();
/// im.write_block(r.block(1), block).unwrap();
/// im.exit();
///
/// // The wrapper charged nothing extra and attributed the I/O to the span.
/// assert_eq!(im.inner().cost().q(cfg.omega), 1 + 16);
/// let rec = im.into_record(WorkloadMeta::new("demo", "copy", 16));
/// assert_eq!(rec.phases.len(), 1);
/// assert_eq!(rec.phases[0].name, "copy-block");
/// assert_eq!((rec.phases[0].cost.reads, rec.phases[0].cost.writes), (1, 1));
/// ```
pub struct InstrumentedMachine<T, A: AemAccess<T>> {
    inner: A,
    trace: Trace,
    occupancy: Vec<u64>,
    phases: PhaseStack,
    metrics: Metrics,
    read_counts: HashMap<(bool, usize), u64>,
    observers: Vec<Box<dyn Observer>>,
    flight: FlightRecorder,
    _elem: PhantomData<fn() -> T>,
}

impl<T, A: AemAccess<T>> InstrumentedMachine<T, A> {
    /// Wrap `inner`, declaring the built-in metrics.
    pub fn new(inner: A) -> Self {
        let block = inner.cfg().block;
        let mut metrics = Metrics::new();
        metrics.histogram_with_bounds(HIST_OCC_READ, occupancy_bounds(block));
        metrics.histogram_with_bounds(HIST_OCC_WRITE, occupancy_bounds(block));
        metrics.gauge_set(GAUGE_INTERNAL, inner.internal_used() as u64);
        Self {
            inner,
            trace: Trace::new(),
            occupancy: Vec::new(),
            phases: PhaseStack::new(),
            metrics,
            read_counts: HashMap::new(),
            observers: Vec::new(),
            flight: FlightRecorder::default(),
            _elem: PhantomData,
        }
    }

    /// The flight recorder: the bounded tail of recent I/O events, dumped
    /// automatically if the run panics (see [`crate::flight`]).
    pub fn flight(&self) -> &FlightRecorder {
        &self.flight
    }

    /// The flight recorder, mutable — for setting capacity, label or a
    /// panic sink before the run.
    pub fn flight_mut(&mut self) -> &mut FlightRecorder {
        &mut self.flight
    }

    /// Attach an observer; it receives callbacks for all subsequent
    /// operations.
    pub fn add_observer(&mut self, observer: Box<dyn Observer>) {
        self.observers.push(observer);
    }

    /// Open a named phase span. Cost incurred until the matching
    /// [`exit`](Self::exit) is attributed to it (inclusively of nested
    /// spans).
    pub fn enter(&mut self, name: &str) {
        let depth = self.phases.depth();
        self.phases.enter(name, self.inner.internal_used() as u64);
        for o in &mut self.observers {
            o.on_phase_enter(name, depth);
        }
    }

    /// Close the innermost phase span.
    pub fn exit(&mut self) {
        if let Some(idx) = self.phases.exit() {
            let depth = self.phases.depth();
            let name = self.phases.nodes()[idx].name.clone();
            for o in &mut self.observers {
                o.on_phase_exit(&name, depth);
            }
        }
    }

    /// The inner machine (read-only). Useful for free inspection helpers
    /// such as [`aem_machine::Machine::inspect`].
    pub fn inner(&self) -> &A {
        &self.inner
    }

    /// The inner machine, mutable. Operations performed directly on the
    /// inner machine bypass instrumentation — use this only for un-metered
    /// setup such as [`aem_machine::Machine::install`].
    pub fn inner_mut(&mut self) -> &mut A {
        &mut self.inner
    }

    /// The metrics registry accumulated so far.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The trace recorded so far.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Finish the run: close any open phases, finalize derived metrics and
    /// return the complete [`RunRecord`].
    pub fn into_record(mut self, workload: WorkloadMeta) -> RunRecord {
        // Per-block re-read counts only make sense once the run is over.
        self.metrics
            .histogram_with_bounds(HIST_REREADS, vec![1, 2, 4, 8, 16]);
        let mut counts: Vec<u64> = self.read_counts.values().copied().collect();
        counts.sort_unstable();
        for c in counts {
            self.metrics.observe(HIST_REREADS, c);
        }
        let final_iu = self.inner.internal_used() as u64;
        self.metrics.gauge_set(GAUGE_INTERNAL, final_iu);
        RunRecord {
            config: self.inner.cfg(),
            workload,
            trace: self.trace,
            occupancy: self.occupancy,
            final_internal_used: final_iu,
            phases: self.phases.finish(),
            metrics: self.metrics,
        }
    }

    /// Discard the observations and return the inner machine.
    pub fn into_inner(self) -> A {
        self.inner
    }

    fn observe_event(&mut self, ev: IoEvent) {
        let iu = self.inner.internal_used() as u64;
        let len = ev.len() as u64;
        let omega = self.inner.cfg().omega;
        self.flight.record(
            self.trace.len() as u64,
            ev.is_write(),
            ev.block().index(),
            ev.len(),
            matches!(
                ev,
                IoEvent::Read { aux: true, .. } | IoEvent::Write { aux: true, .. }
            ),
            self.phases.current_name(),
            if ev.is_write() { omega } else { 1 },
        );
        let (is_write, aux) = match ev {
            IoEvent::Read { block, aux, .. } => {
                self.metrics
                    .inc(if aux { CTR_AUX_READS } else { CTR_READS });
                self.metrics.observe(HIST_OCC_READ, len);
                *self.read_counts.entry((aux, block.index())).or_insert(0) += 1;
                (false, aux)
            }
            IoEvent::Write { aux, .. } => {
                self.metrics
                    .inc(if aux { CTR_AUX_WRITES } else { CTR_WRITES });
                self.metrics.observe(HIST_OCC_WRITE, len);
                (true, aux)
            }
        };
        self.metrics.add(CTR_VOLUME, len);
        self.metrics.gauge_set(GAUGE_INTERNAL, iu);
        self.phases.on_io(is_write, len, aux, iu);
        for o in &mut self.observers {
            o.on_io(&ev, iu as usize);
        }
        self.trace.push(ev);
        self.occupancy.push(iu);
    }

    fn note_mem(&mut self) {
        let iu = self.inner.internal_used() as u64;
        self.metrics.gauge_set(GAUGE_INTERNAL, iu);
        self.phases.note_mem(iu);
    }
}

// Bulk ops (`read_run` / `write_run`) deliberately keep the trait's
// default per-block decomposition here: an instrumented run observes a
// K-block run as K per-block `IoEvent`s, so the flight recorder, phase
// profiles and cost attribution stay block-granular. Metered cost is
// unaffected (the bulk contract in docs/COST_MODEL.md makes the loop and
// the run charge identically); only error timing differs — a mid-run
// failure under instrumentation has already observed the earlier blocks,
// where a raw machine's bulk op validates the whole run up front.
impl<T, A: AemAccess<T>> AemAccess<T> for InstrumentedMachine<T, A> {
    fn cfg(&self) -> AemConfig {
        self.inner.cfg()
    }

    fn read_block(&mut self, id: BlockId) -> Result<Vec<T>> {
        let data = self.inner.read_block(id)?;
        self.observe_event(IoEvent::Read {
            block: id,
            len: data.len(),
            aux: false,
        });
        Ok(data)
    }

    fn read_block_into(&mut self, id: BlockId, buf: &mut Vec<T>) -> Result<usize> {
        let len = self.inner.read_block_into(id, buf)?;
        self.observe_event(IoEvent::Read {
            block: id,
            len,
            aux: false,
        });
        Ok(len)
    }

    fn read_block_with(&mut self, id: BlockId, f: &mut dyn FnMut(&[T])) -> Result<usize> {
        let len = self.inner.read_block_with(id, f)?;
        self.observe_event(IoEvent::Read {
            block: id,
            len,
            aux: false,
        });
        Ok(len)
    }

    fn write_block(&mut self, id: BlockId, data: Vec<T>) -> Result<()> {
        let len = data.len();
        self.inner.write_block(id, data)?;
        self.observe_event(IoEvent::Write {
            block: id,
            len,
            aux: false,
        });
        Ok(())
    }

    fn alloc_block(&mut self) -> BlockId {
        self.inner.alloc_block()
    }

    fn alloc_region(&mut self, elems: usize) -> Region {
        self.inner.alloc_region(elems)
    }

    fn discard(&mut self, k: usize) -> Result<()> {
        self.inner.discard(k)?;
        self.note_mem();
        Ok(())
    }

    fn reserve(&mut self, k: usize) -> Result<()> {
        self.inner.reserve(k)?;
        self.note_mem();
        Ok(())
    }

    fn read_aux_block(&mut self, id: BlockId) -> Result<Vec<u64>> {
        let data = self.inner.read_aux_block(id)?;
        self.observe_event(IoEvent::Read {
            block: id,
            len: data.len(),
            aux: true,
        });
        Ok(data)
    }

    fn write_aux_block(&mut self, id: BlockId, data: Vec<u64>) -> Result<()> {
        let len = data.len();
        self.inner.write_aux_block(id, data)?;
        self.observe_event(IoEvent::Write {
            block: id,
            len,
            aux: true,
        });
        Ok(())
    }

    fn alloc_aux_region(&mut self, words: usize) -> Region {
        self.inner.alloc_aux_region(words)
    }

    fn internal_used(&self) -> usize {
        self.inner.internal_used()
    }

    fn cost(&self) -> Cost {
        self.inner.cost()
    }

    fn phase_enter(&mut self, name: &str) {
        self.enter(name);
    }

    fn phase_exit(&mut self) {
        self.exit();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aem_machine::{Machine, MachineError};

    fn cfg() -> AemConfig {
        AemConfig::new(16, 4, 8).unwrap()
    }

    #[test]
    fn forwards_and_records_io() {
        let mut im = InstrumentedMachine::new(Machine::<u32>::new(cfg()));
        let r = im.inner_mut().install(&[1, 2, 3, 4, 5, 6, 7, 8]);
        im.enter("copy");
        let d = im.read_block(r.block(0)).unwrap();
        let out = im.alloc_block();
        im.write_block(out, d).unwrap();
        im.exit();
        assert_eq!(im.cost(), Cost::new(1, 1));
        assert_eq!(im.trace().len(), 2);
        assert_eq!(im.metrics().counter(CTR_READS), 1);
        assert_eq!(im.metrics().counter(CTR_WRITES), 1);
        assert_eq!(im.metrics().counter(CTR_VOLUME), 8);
        let g = im.metrics().gauge(GAUGE_INTERNAL).unwrap();
        assert_eq!(g.high_water, 4);
        assert_eq!(g.value, 0);
        let rec = im.into_record(WorkloadMeta::new("test", "copy", 8));
        assert_eq!(rec.occupancy, vec![4, 0]);
        assert_eq!(rec.final_internal_used, 0);
        assert_eq!(rec.phases.len(), 1);
        assert_eq!(rec.phases[0].name, "copy");
        assert_eq!(rec.phases[0].cost, Cost::new(1, 1));
    }

    #[test]
    fn aux_io_is_tagged() {
        let mut im = InstrumentedMachine::new(Machine::<u32>::new(cfg()));
        let ar = im.alloc_aux_region(4);
        im.reserve(4).unwrap();
        im.write_aux_block(ar.block(0), vec![9; 4]).unwrap();
        im.read_aux_block(ar.block(0)).unwrap();
        im.discard(4).unwrap();
        assert_eq!(im.metrics().counter(CTR_AUX_WRITES), 1);
        assert_eq!(im.metrics().counter(CTR_AUX_READS), 1);
        assert_eq!(im.metrics().counter(CTR_READS), 0);
        let rec = im.into_record(WorkloadMeta::new("test", "aux", 4));
        let s = rec.trace.stats();
        assert_eq!(s.aux_reads, 1);
        assert_eq!(s.aux_writes, 1);
    }

    #[test]
    fn phase_hooks_reach_the_wrapper_through_aem_access() {
        // An algorithm talking to `dyn`-free generic AemAccess calls
        // phase_enter/phase_exit; the wrapper must turn those into spans.
        fn algo<A: AemAccess<u32>>(m: &mut A, r: Region) {
            m.phase_enter("inner-algo");
            let d = m.read_block(r.block(0)).unwrap();
            m.discard(d.len()).unwrap();
            m.phase_exit();
        }
        let mut im = InstrumentedMachine::new(Machine::<u32>::new(cfg()));
        let r = im.inner_mut().install(&[1, 2, 3, 4]);
        algo(&mut im, r);
        let rec = im.into_record(WorkloadMeta::new("test", "algo", 4));
        assert_eq!(rec.phases.len(), 1);
        assert_eq!(rec.phases[0].name, "inner-algo");
        assert_eq!(rec.phases[0].cost, Cost::new(1, 0));
        assert_eq!(rec.phases[0].high_water, 4);
    }

    #[test]
    fn reread_histogram_counts_per_block_reads() {
        let mut im = InstrumentedMachine::new(Machine::<u32>::new(cfg()));
        let r = im.inner_mut().install(&[1, 2, 3, 4]);
        for _ in 0..3 {
            let d = im.read_block(r.block(0)).unwrap();
            im.discard(d.len()).unwrap();
        }
        let rec = im.into_record(WorkloadMeta::new("test", "reread", 4));
        let h = rec.metrics.histogram(HIST_REREADS).unwrap();
        assert_eq!(h.count, 1); // one distinct block...
        assert_eq!(h.max, 3); // ...read three times
    }

    #[test]
    fn observers_receive_callbacks() {
        use std::cell::RefCell;
        use std::rc::Rc;

        #[derive(Default)]
        struct Log {
            ios: usize,
            phases: usize,
        }
        struct Hook(Rc<RefCell<Log>>);
        impl Observer for Hook {
            fn on_io(&mut self, _ev: &IoEvent, _iu: usize) {
                self.0.borrow_mut().ios += 1;
            }
            fn on_phase_enter(&mut self, _n: &str, _d: usize) {
                self.0.borrow_mut().phases += 1;
            }
        }

        let log = Rc::new(RefCell::new(Log::default()));
        let mut im = InstrumentedMachine::new(Machine::<u32>::new(cfg()));
        im.add_observer(Box::new(Hook(log.clone())));
        let r = im.inner_mut().install(&[1, 2, 3, 4]);
        im.enter("p");
        let d = im.read_block(r.block(0)).unwrap();
        im.discard(d.len()).unwrap();
        im.exit();
        assert_eq!(log.borrow().ios, 1);
        assert_eq!(log.borrow().phases, 1);
    }

    #[test]
    fn borrowed_reads_are_observed_like_copying_reads() {
        use std::cell::RefCell;
        use std::rc::Rc;

        struct Hook(Rc<RefCell<Vec<(IoEvent, usize)>>>);
        impl Observer for Hook {
            fn on_io(&mut self, ev: &IoEvent, iu: usize) {
                self.0.borrow_mut().push((ev.clone(), iu));
            }
        }

        let seen = Rc::new(RefCell::new(Vec::new()));
        let mut im = InstrumentedMachine::new(Machine::<u32>::new(cfg()));
        im.add_observer(Box::new(Hook(seen.clone())));
        let r = im.inner_mut().install(&[1, 2, 3, 4, 5, 6]);
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

        let seen = seen.borrow();
        assert_eq!(seen.len(), 2);
        assert_eq!(seen[0].0, seen[1].0, "same event");
        assert_eq!((seen[0].1, seen[1].1), (4, 8), "occupancy after each");
        assert_eq!(im.cost(), Cost::new(2, 0));
        assert_eq!(im.metrics().counter(CTR_READS), 2);
        let rec = im.into_record(WorkloadMeta::new("test", "borrow", 6));
        assert_eq!(rec.trace.len(), 2);
        assert_eq!(rec.trace.events()[0], rec.trace.events()[1]);
    }

    #[test]
    fn merge_sort_runs_instrumented_and_round_trips() {
        let cfg = AemConfig::new(64, 8, 4).unwrap();
        let mut im = InstrumentedMachine::new(Machine::<u64>::new(cfg));
        let n = 64usize;
        let input: Vec<u64> = (0..n as u64).rev().collect();
        let region = im.inner_mut().install(&input);
        let out = aem_core::sort::merge_sort(&mut im, region).unwrap();
        let sorted = im.inner().inspect(out);
        assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
        let rec = im.into_record(WorkloadMeta::new("sort", "aem", n as u64));
        assert_eq!(rec.final_internal_used, 0);
        assert_eq!(rec.occupancy.len(), rec.trace.len());
        let text = rec.to_jsonl();
        let back = RunRecord::from_jsonl(&text).unwrap();
        assert_eq!(back, rec);
    }

    #[test]
    fn flight_recorder_tracks_phase_and_cost_delta() {
        let mut im = InstrumentedMachine::new(Machine::<u32>::new(cfg()));
        im.flight_mut().set_capacity(2);
        let r = im.inner_mut().install(&[1, 2, 3, 4, 5, 6, 7, 8]);
        im.enter("copy");
        let d = im.read_block(r.block(0)).unwrap();
        im.write_block(r.block(1), d).unwrap();
        let d = im.read_block(r.block(1)).unwrap();
        im.discard(d.len()).unwrap();
        im.exit();
        // Capacity 2: only the write and the second read survive.
        let evs: Vec<_> = im.flight().events().cloned().collect();
        assert_eq!(im.flight().seen(), 3);
        assert_eq!(evs.len(), 2);
        assert!(evs[0].write);
        assert_eq!(evs[0].q_delta, cfg().omega);
        assert_eq!(evs[0].phase, "copy");
        assert!(!evs[1].write);
        assert_eq!(evs[1].q_delta, 1);
        assert_eq!(evs[1].seq, 2);
    }

    #[test]
    fn occupancy_bounds_are_sane() {
        assert_eq!(occupancy_bounds(4), vec![1, 2, 3, 4]);
        assert_eq!(occupancy_bounds(8), vec![2, 4, 6, 8]);
        assert_eq!(occupancy_bounds(1), vec![1]);
        assert_eq!(occupancy_bounds(2), vec![1, 2]);
    }
}
