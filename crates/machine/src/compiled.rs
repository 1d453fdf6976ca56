//! Compiled-trace recording and arithmetic replay.
//!
//! A paper-sense *program* is its I/O schedule: which blocks move, in
//! which direction, at what block granularity. Once a deterministic
//! workload has run once, its cost on the same `(M, B, ω)` machine is a
//! pure function of that schedule — no payload needs to move and no
//! per-access dispatch needs to happen to price it again. This module
//! makes that observation executable:
//!
//! * [`TraceMachine`] — a recording machine (the `--backend trace`
//!   selector): a copy-semantics [`Machine`] whose [`CompiledTrace`] sink
//!   compiles every *metered* operation into a [`TraceOp`]. Bulk ops
//!   ([`AemAccess::read_run`] / [`AemAccess::write_run`]) compile to a
//!   **single** op covering the whole run, so the recording is typically
//!   much shorter than the event-level [`crate::Trace`].
//! * [`CompiledTrace`] — the recorded schedule plus a [`replay`]
//!   engine: re-running the cost accounting is a single pass of integer
//!   additions over the ops. Replaying a schedule of `K` ops costs
//!   `O(K)` adds, independent of `N`, `B`, or payload size — an order of
//!   magnitude under even the ghost store, which still dispatches every
//!   block access through the machine.
//!
//! ## When replay is valid
//!
//! A replayed cost equals a live re-run's cost iff the workload's I/O
//! schedule is a function of `(cfg, input shape, seed)` alone — the same
//! determinism contract that makes the experiment tables reproducible
//! byte for byte. Replay prices
//! *the recorded schedule*; it cannot notice that a different input
//! would have scheduled different I/O. `docs/COST_MODEL.md` states the
//! contract precisely; [`MachineCore::verify_replay`] (and a
//! `debug_assert` in [`MachineCore::into_schedule`]) checks the
//! arithmetic against the live meter.
//!
//! [`replay`]: CompiledTrace::replay
//! [`AemAccess::read_run`]: crate::AemAccess::read_run
//! [`AemAccess::write_run`]: crate::AemAccess::write_run

use crate::block::BlockId;
use crate::config::AemConfig;
use crate::cost::Cost;
use crate::machine::{AemAccess, Machine, MachineCore};
use crate::observer::{IoRun, Observer};
use crate::store::BlockStore;
use crate::trace::IoEvent;

/// One metered operation of a recorded schedule: a contiguous run of
/// `blocks` block transfers in one direction. Single-block operations
/// record `blocks == 1`; bulk runs record the whole run as one op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceOp {
    /// `true` for writes (cost `ω` per block), `false` for reads.
    pub write: bool,
    /// `true` if the op hit the auxiliary store.
    pub aux: bool,
    /// First block of the run.
    pub first: BlockId,
    /// Number of block transfers the op performed.
    pub blocks: u64,
    /// Total elements moved (the occupancy sum; informational — replay
    /// prices blocks, not elements).
    pub elems: u64,
}

/// A workload's compiled I/O schedule: the machine configuration it was
/// recorded under plus the ordered [`TraceOp`]s.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledTrace {
    cfg: AemConfig,
    ops: Vec<TraceOp>,
}

impl CompiledTrace {
    /// An empty schedule for a machine configuration.
    pub fn new(cfg: AemConfig) -> Self {
        CompiledTrace {
            cfg,
            ops: Vec::new(),
        }
    }

    /// Append one operation.
    pub fn push(&mut self, op: TraceOp) {
        self.ops.push(op);
    }

    /// The configuration the schedule was recorded under (replayed costs
    /// are only meaningful against the same `(M, B, ω)`).
    pub fn cfg(&self) -> AemConfig {
        self.cfg
    }

    /// The recorded operations, in program order.
    pub fn ops(&self) -> &[TraceOp] {
        &self.ops
    }

    /// Number of recorded operations (bulk runs count once).
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// `true` if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Re-run the cost accounting as pure arithmetic: one pass over the
    /// ops summing block counts per direction. No payload moves, no
    /// bounds check fires, no trait dispatch happens — this is the whole
    /// fast path.
    pub fn replay(&self) -> Cost {
        let mut reads = 0u64;
        let mut writes = 0u64;
        for op in &self.ops {
            if op.write {
                writes += op.blocks;
            } else {
                reads += op.blocks;
            }
        }
        Cost::new(reads, writes)
    }

    /// [`CompiledTrace::replay`] collapsed to the scalar
    /// `Q = Q_r + ω·Q_w` under the recorded `ω`.
    pub fn replay_q(&self) -> u64 {
        self.replay().q(self.cfg.omega)
    }

    /// Total elements moved by the schedule (read + written).
    pub fn volume(&self) -> u64 {
        self.ops.iter().map(|op| op.elems).sum()
    }
}

impl Observer for CompiledTrace {
    fn new_sink(cfg: AemConfig) -> Self {
        CompiledTrace::new(cfg)
    }

    fn on_io(&mut self, ev: &IoEvent, _: usize) {
        let aux = matches!(
            ev,
            IoEvent::Read { aux: true, .. } | IoEvent::Write { aux: true, .. }
        );
        self.push(TraceOp {
            write: ev.is_write(),
            aux,
            first: ev.block(),
            blocks: 1,
            elems: ev.len() as u64,
        });
    }

    fn on_run(&mut self, run: &IoRun<'_>) {
        self.push(TraceOp {
            write: run.write,
            aux: false,
            first: run.first,
            blocks: run.blocks as u64,
            elems: run.elems as u64,
        });
    }

    fn on_reset(&mut self) {
        self.ops.clear();
    }
}

/// The recording machine behind `--backend trace`: the copy-semantics
/// [`Machine`] with a [`CompiledTrace`] sink.
///
/// Payloads, costs, the ledger and every error path are exactly the vec
/// machine's; recording adds one `Vec` push per successful metered
/// operation. Failed operations record nothing — the schedule holds
/// exactly the I/O the meter charged.
///
/// ```
/// use aem_machine::{AemAccess, AemConfig, TraceMachine};
///
/// let cfg = AemConfig::new(64, 8, 16).unwrap();
/// let mut m: TraceMachine<u64> = TraceMachine::new(cfg);
/// let r = m.install(&(0..32).collect::<Vec<u64>>());
/// let mut buf = Vec::new();
/// let n = m.read_run(r.block(0), 4, &mut buf).unwrap(); // one op, 4 reads
/// m.discard(n).unwrap();
/// let schedule = m.into_schedule();
/// assert_eq!(schedule.len(), 1);
/// assert_eq!(schedule.replay().reads, 4);
/// ```
pub type TraceMachine<T> = Machine<T, CompiledTrace>;

impl<T, S, A> MachineCore<T, S, A, CompiledTrace>
where
    T: Clone,
    S: BlockStore<T>,
    A: BlockStore<u64>,
{
    /// `true` iff replaying the compiled schedule reproduces the live
    /// meter exactly — the `(Q_r, Q_w)` tuple, and therefore `Q` for any
    /// `ω`. It compares against the machine's (possibly shared) meter, so
    /// it only holds when this machine is the meter's sole writer. This is
    /// the debug-assert behind [`MachineCore::into_schedule`].
    pub fn verify_replay(&self) -> bool {
        self.sink().replay() == self.cost()
    }

    /// Consume the machine and return the compiled schedule, asserting
    /// (in debug builds) that its arithmetic replay equals the live run's
    /// cost tuple.
    pub fn into_schedule(self) -> CompiledTrace {
        debug_assert!(
            self.verify_replay(),
            "compiled schedule replays to {:?} but the live meter read {:?}",
            self.sink().replay(),
            self.cost()
        );
        self.into_sink()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::Region;
    use crate::error::MachineError;

    fn cfg() -> AemConfig {
        AemConfig::new(16, 4, 8).unwrap()
    }

    #[test]
    fn schedule_replays_to_the_live_cost() {
        let mut m: TraceMachine<u32> = TraceMachine::new(cfg());
        let r = m.install(&(0..12u32).collect::<Vec<_>>());
        let out = m.alloc_region(12);
        let mut buf = Vec::new();
        let total = m.read_run(r.block(0), 3, &mut buf).unwrap();
        assert_eq!(total, 12);
        m.write_run(out.block(0), &buf).unwrap();
        let aux = m.alloc_aux_region(4);
        m.reserve(2).unwrap();
        m.write_aux_block(aux.block(0), vec![1, 2]).unwrap();
        m.read_aux_block(aux.block(0)).unwrap();
        m.discard(2).unwrap();

        let live = m.cost();
        assert_eq!(live, Cost::new(4, 4));
        assert!(m.verify_replay());
        let schedule = m.into_schedule();
        // Bulk runs compile to one op each; the aux ops are single-block.
        assert_eq!(schedule.len(), 4);
        assert_eq!(schedule.replay(), live);
        assert_eq!(schedule.replay_q(), live.q(cfg().omega));
        assert_eq!(schedule.volume(), 12 + 12 + 2 + 2);
    }

    #[test]
    fn failed_operations_record_nothing() {
        let mut m: TraceMachine<u32> = TraceMachine::new(cfg());
        let r = m.install(&[1, 2, 3, 4]);
        assert!(m.read_block(BlockId(9)).is_err());
        assert!(m.write_block(r.block(0), vec![0; 5]).is_err());
        let mut buf = Vec::new();
        assert!(m.read_run(r.block(0), 3, &mut buf).is_err());
        assert!(m.sink().is_empty());
        assert_eq!(m.cost(), Cost::ZERO);
        assert!(m.verify_replay());
    }

    #[test]
    fn trace_machine_matches_vec_machine_exactly() {
        // The same scripted run on Machine and TraceMachine: identical
        // payloads, costs, ledger and errors — trace is vec + recording.
        fn script<M: AemAccess<u32>>(mut m: M, r: Region) -> (Cost, usize, Vec<u32>, MachineError) {
            let out = m.alloc_region(8);
            let mut buf = Vec::new();
            let n = m.read_run(r.block(0), 2, &mut buf).unwrap();
            assert_eq!(n, buf.len());
            let payload = buf.clone();
            m.write_run(out.block(0), &buf).unwrap();
            let err = m.read_block(BlockId(99)).unwrap_err();
            (m.cost(), m.internal_used(), payload, err)
        }
        let mut v: Machine<u32> = Machine::new(cfg());
        let vr = v.install(&(0..8u32).collect::<Vec<_>>());
        let mut t: TraceMachine<u32> = TraceMachine::new(cfg());
        let tr = t.install(&(0..8u32).collect::<Vec<_>>());
        assert_eq!((vr.first, vr.blocks), (tr.first, tr.blocks));
        assert_eq!(script(v, vr), script(t, tr));
    }

    #[test]
    fn borrowed_reads_compile_like_copying_reads() {
        let mut m: TraceMachine<u32> = TraceMachine::new(cfg());
        let r = m.install(&[1, 2, 3, 4, 5]);
        let mut buf = Vec::new();
        let copied = m.read_block_into(r.block(1), &mut buf).unwrap();
        let borrowed = m.read_block_with(r.block(1), &mut |_| {}).unwrap();
        assert_eq!((copied, borrowed), (1, 1));
        assert!(m.read_block_with(BlockId(9), &mut |_| {}).is_err());
        let schedule = m.into_schedule();
        assert_eq!(schedule.len(), 2, "a failed borrow records nothing");
        assert_eq!(schedule.ops()[0], schedule.ops()[1]);
        assert_eq!(schedule.replay(), Cost::new(2, 0));
    }

    #[test]
    fn updates_and_probes_compile_like_their_decomposed_sequences() {
        fn run(fused: bool) -> CompiledTrace {
            let mut m: TraceMachine<u32> = TraceMachine::new(cfg());
            let r = m.install(&[1, 2, 3, 4, 5]);
            for (i, edit) in [(0, true), (1, false)] {
                if fused {
                    let wrote = m
                        .update_block_with(r.block(i), &mut |blk| {
                            blk[0] += u32::from(edit);
                            edit
                        })
                        .unwrap();
                    assert_eq!(wrote, edit);
                } else {
                    let mut d = m.read_block(r.block(i)).unwrap();
                    if edit {
                        d[0] += 1;
                        m.write_block(r.block(i), d).unwrap();
                    } else {
                        m.discard(d.len()).unwrap();
                    }
                }
            }
            let x = if fused {
                m.probe_elem(r.block(0), 0).unwrap()
            } else {
                let d = m.read_block(r.block(0)).unwrap();
                m.discard(d.len()).unwrap();
                d[0]
            };
            assert_eq!(x, 2);
            assert!(m.update_block_with(BlockId(9), &mut |_| true).is_err());
            assert!(m.probe_elem(BlockId(9), 0).is_err());
            m.into_schedule()
        }
        let (fused, spelled) = (run(true), run(false));
        assert_eq!(fused, spelled, "a failed update or probe records nothing");
        assert_eq!(fused.len(), 4);
        assert_eq!(fused.replay(), Cost::new(3, 1));
    }

    #[test]
    fn single_block_ops_compile_to_single_ops() {
        let mut m: TraceMachine<u32> = TraceMachine::new(cfg());
        let r = m.install(&[1, 2, 3, 4, 5]);
        let d = m.read_block(r.block(0)).unwrap();
        let out = m.alloc_block();
        m.write_block(out, d).unwrap();
        let schedule = m.into_schedule();
        assert_eq!(schedule.len(), 2);
        assert_eq!(
            schedule.ops()[0],
            TraceOp {
                write: false,
                aux: false,
                first: BlockId(r.first),
                blocks: 1,
                elems: 4,
            }
        );
        assert!(schedule.ops()[1].write);
    }
}
