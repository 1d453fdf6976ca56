//! [`RunRecorder`]: the machine sink that records everything, and
//! [`InstrumentedMachine`], the vec machine carrying it.
//!
//! Give a machine a [`RunRecorder`] sink and run an algorithm on it; every
//! metered I/O is recorded into a trace, a metrics registry and the phase
//! tree as the machine performs it. When the run finishes,
//! [`RunRecorder::into_record`] packages the observations as a
//! serializable [`RunRecord`].
//!
//! ```
//! use aem_machine::{AemAccess, AemConfig};
//! use aem_obs::{InstrumentedMachine, WorkloadMeta};
//!
//! let cfg = AemConfig::new(64, 8, 4).unwrap();
//! let mut im: InstrumentedMachine<u64> = InstrumentedMachine::new(cfg);
//! let region = im.install(&[3, 1, 2, 0, 7, 5, 4, 6]);
//! im.phase_enter("sort");
//! let out = aem_core::sort::merge_sort(&mut im, region).unwrap();
//! im.phase_exit();
//! assert_eq!(im.inspect(out), vec![0, 1, 2, 3, 4, 5, 6, 7]);
//! let record = im.into_sink().into_record(WorkloadMeta::new("sort", "aem", 8));
//! assert!(record.q() > 0);
//! ```

use std::collections::HashMap;

use aem_machine::{AemConfig, IoEvent, Machine, Observer, Trace};

use crate::flight::FlightRecorder;
use crate::metrics::Metrics;
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

/// The vec machine with a [`RunRecorder`] sink.
///
/// The sink charges nothing: cost, capacity and semantics are exactly the
/// plain machine's, and a failed operation (a bulk run included) records
/// nothing.
///
/// ```
/// use aem_machine::{AemAccess, AemConfig};
/// use aem_obs::{InstrumentedMachine, WorkloadMeta};
///
/// let cfg = AemConfig::new(64, 8, 16).unwrap();
/// let mut im: InstrumentedMachine<u64> = InstrumentedMachine::new(cfg);
/// let r = im.install(&(0..16).collect::<Vec<u64>>());
///
/// im.phase_enter("copy-block");
/// let block = im.read_block(r.block(0)).unwrap();
/// im.write_block(r.block(1), block).unwrap();
/// im.phase_exit();
///
/// // Recording charged nothing extra and attributed the I/O to the span.
/// assert_eq!(im.cost().q(cfg.omega), 1 + 16);
/// let rec = im.into_sink().into_record(WorkloadMeta::new("demo", "copy", 16));
/// assert_eq!(rec.phases.len(), 1);
/// assert_eq!(rec.phases[0].name, "copy-block");
/// assert_eq!((rec.phases[0].cost.reads, rec.phases[0].cost.writes), (1, 1));
/// ```
pub type InstrumentedMachine<T> = Machine<T, RunRecorder>;

/// A machine sink that observes every metered operation.
///
/// It records a [`Trace`], per-event occupancy samples, built-in
/// [`Metrics`] (see the `CTR_*`/`GAUGE_*`/`HIST_*` constants), a phase tree
/// fed by the machine's `phase_enter`/`phase_exit` hooks and a
/// [`FlightRecorder`] tail. A bulk run is recorded block by block, so
/// traces, phase profiles and the flight recorder stay block-granular.
pub struct RunRecorder {
    cfg: AemConfig,
    trace: Trace,
    occupancy: Vec<u64>,
    used: u64,
    phases: PhaseStack,
    metrics: Metrics,
    read_counts: HashMap<(bool, usize), u64>,
    flight: FlightRecorder,
}

impl RunRecorder {
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
        RunRecord {
            config: self.cfg,
            workload,
            trace: self.trace,
            occupancy: self.occupancy,
            final_internal_used: self.used,
            phases: self.phases.finish(),
            metrics: self.metrics,
        }
    }
}

impl Observer for RunRecorder {
    fn new_sink(cfg: AemConfig) -> Self {
        let mut metrics = Metrics::new();
        metrics.histogram_with_bounds(HIST_OCC_READ, occupancy_bounds(cfg.block));
        metrics.histogram_with_bounds(HIST_OCC_WRITE, occupancy_bounds(cfg.block));
        metrics.gauge_set(GAUGE_INTERNAL, 0);
        Self {
            cfg,
            trace: Trace::new(),
            occupancy: Vec::new(),
            used: 0,
            phases: PhaseStack::new(),
            metrics,
            read_counts: HashMap::new(),
            flight: FlightRecorder::default(),
        }
    }

    fn on_io(&mut self, ev: &IoEvent, internal_used: usize) {
        let iu = internal_used as u64;
        let len = ev.len() as u64;
        let (is_write, aux) = match *ev {
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
        self.flight.record(
            self.trace.len() as u64,
            is_write,
            ev.block().index(),
            ev.len(),
            aux,
            self.phases.current_name(),
            if is_write { self.cfg.omega } else { 1 },
        );
        self.metrics.add(CTR_VOLUME, len);
        self.phases.on_io(is_write, len, aux, iu);
        self.on_mem(internal_used);
        self.trace.push(ev.clone());
        self.occupancy.push(iu);
    }

    fn on_mem(&mut self, internal_used: usize) {
        self.used = internal_used as u64;
        self.metrics.gauge_set(GAUGE_INTERNAL, self.used);
        self.phases.note_mem(self.used);
    }

    fn on_phase_enter(&mut self, name: &str, internal_used: usize) {
        self.phases.enter(name, internal_used as u64);
    }

    fn on_phase_exit(&mut self) {
        self.phases.exit();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aem_machine::{AemAccess, Cost, Region};

    fn cfg() -> AemConfig {
        AemConfig::new(16, 4, 8).unwrap()
    }

    #[test]
    fn forwards_and_records_io() {
        let mut im: InstrumentedMachine<u32> = InstrumentedMachine::new(cfg());
        let r = im.install(&[1, 2, 3, 4, 5, 6, 7, 8]);
        im.phase_enter("copy");
        let d = im.read_block(r.block(0)).unwrap();
        let out = im.alloc_block();
        im.write_block(out, d).unwrap();
        im.phase_exit();
        assert_eq!(im.cost(), Cost::new(1, 1));
        let rec = im.sink();
        assert_eq!(rec.trace().len(), 2);
        assert_eq!(rec.metrics().counter(CTR_READS), 1);
        assert_eq!(rec.metrics().counter(CTR_WRITES), 1);
        assert_eq!(rec.metrics().counter(CTR_VOLUME), 8);
        let g = rec.metrics().gauge(GAUGE_INTERNAL).unwrap();
        assert_eq!(g.high_water, 4);
        assert_eq!(g.value, 0);
        let rec = im
            .into_sink()
            .into_record(WorkloadMeta::new("test", "copy", 8));
        assert_eq!(rec.occupancy, vec![4, 0]);
        assert_eq!(rec.final_internal_used, 0);
        assert_eq!(rec.phases.len(), 1);
        assert_eq!(rec.phases[0].name, "copy");
        assert_eq!(rec.phases[0].cost, Cost::new(1, 1));
    }

    #[test]
    fn aux_io_is_tagged() {
        let mut im: InstrumentedMachine<u32> = InstrumentedMachine::new(cfg());
        let ar = im.alloc_aux_region(4);
        im.reserve(4).unwrap();
        im.write_aux_block(ar.block(0), vec![9; 4]).unwrap();
        im.read_aux_block(ar.block(0)).unwrap();
        im.discard(4).unwrap();
        let metrics = im.sink().metrics();
        assert_eq!(metrics.counter(CTR_AUX_WRITES), 1);
        assert_eq!(metrics.counter(CTR_AUX_READS), 1);
        assert_eq!(metrics.counter(CTR_READS), 0);
        let rec = im
            .into_sink()
            .into_record(WorkloadMeta::new("test", "aux", 4));
        let s = rec.trace.stats();
        assert_eq!(s.aux_reads, 1);
        assert_eq!(s.aux_writes, 1);
    }

    #[test]
    fn phase_hooks_reach_the_wrapper_through_aem_access() {
        // An algorithm talking to `dyn`-free generic AemAccess calls
        // phase_enter/phase_exit; the machine hands them to the recorder,
        // which turns them into spans.
        fn algo<A: AemAccess<u32>>(m: &mut A, r: Region) {
            m.phase_enter("inner-algo");
            let d = m.read_block(r.block(0)).unwrap();
            m.discard(d.len()).unwrap();
            m.phase_exit();
        }
        let mut im: InstrumentedMachine<u32> = InstrumentedMachine::new(cfg());
        let r = im.install(&[1, 2, 3, 4]);
        algo(&mut im, r);
        let rec = im
            .into_sink()
            .into_record(WorkloadMeta::new("test", "algo", 4));
        assert_eq!(rec.phases.len(), 1);
        assert_eq!(rec.phases[0].name, "inner-algo");
        assert_eq!(rec.phases[0].cost, Cost::new(1, 0));
        assert_eq!(rec.phases[0].high_water, 4);
    }

    #[test]
    fn reread_histogram_counts_per_block_reads() {
        let mut im: InstrumentedMachine<u32> = InstrumentedMachine::new(cfg());
        let r = im.install(&[1, 2, 3, 4]);
        for _ in 0..3 {
            let d = im.read_block(r.block(0)).unwrap();
            im.discard(d.len()).unwrap();
        }
        let rec = im
            .into_sink()
            .into_record(WorkloadMeta::new("test", "reread", 4));
        let h = rec.metrics.histogram(HIST_REREADS).unwrap();
        assert_eq!(h.count, 1); // one distinct block...
        assert_eq!(h.max, 3); // ...read three times
    }

    #[test]
    fn merge_sort_runs_instrumented_and_round_trips() {
        let cfg = AemConfig::new(64, 8, 4).unwrap();
        let mut im: InstrumentedMachine<u64> = InstrumentedMachine::new(cfg);
        let n = 64usize;
        let input: Vec<u64> = (0..n as u64).rev().collect();
        let region = im.install(&input);
        let out = aem_core::sort::merge_sort(&mut im, region).unwrap();
        let sorted = im.inspect(out);
        assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
        let rec = im
            .into_sink()
            .into_record(WorkloadMeta::new("sort", "aem", n as u64));
        assert_eq!(rec.final_internal_used, 0);
        assert_eq!(rec.occupancy.len(), rec.trace.len());
        let text = rec.to_jsonl();
        let back = RunRecord::from_jsonl(&text).unwrap();
        assert_eq!(back, rec);
    }

    #[test]
    fn flight_recorder_tracks_phase_and_cost_delta() {
        let mut im: InstrumentedMachine<u32> = InstrumentedMachine::new(cfg());
        im.sink_mut().flight_mut().set_capacity(2);
        let r = im.install(&[1, 2, 3, 4, 5, 6, 7, 8]);
        im.phase_enter("copy");
        let d = im.read_block(r.block(0)).unwrap();
        im.write_block(r.block(1), d).unwrap();
        let d = im.read_block(r.block(1)).unwrap();
        im.discard(d.len()).unwrap();
        im.phase_exit();
        // Capacity 2: only the write and the second read survive.
        let flight = im.sink().flight();
        let evs: Vec<_> = flight.events().cloned().collect();
        assert_eq!(flight.seen(), 3);
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
