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
//!   selector): a copy-semantics [`Machine`] that additionally compiles
//!   every *metered* operation into a [`TraceOp`]. Bulk ops
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
//! contract precisely; [`TraceMachine::verify_replay`] (and a
//! `debug_assert` in [`TraceMachine::into_schedule`]) checks the
//! arithmetic against the live meter.
//!
//! [`replay`]: CompiledTrace::replay
//! [`AemAccess::read_run`]: crate::AemAccess::read_run
//! [`AemAccess::write_run`]: crate::AemAccess::write_run

use crate::block::{BlockId, Region};
use crate::config::AemConfig;
use crate::cost::{Cost, IoCounter};
use crate::error::Result;
use crate::machine::{AemAccess, Machine};
use crate::store::Backend;

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

/// The recording machine behind `--backend trace`: a copy-semantics
/// [`Machine`] that compiles its metered I/O into a [`CompiledTrace`].
///
/// Payloads, costs, the ledger and every error path are exactly the vec
/// machine's (the inner machine *is* one); recording adds one `Vec` push
/// per successful metered operation. Failed operations record nothing —
/// the schedule holds exactly the I/O the meter charged.
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
#[derive(Debug)]
pub struct TraceMachine<T> {
    inner: Machine<T>,
    schedule: CompiledTrace,
}

impl<T: Clone> TraceMachine<T> {
    /// A fresh recording machine.
    pub fn new(cfg: AemConfig) -> Self {
        Self::with_counter(cfg, IoCounter::new())
    }

    /// A fresh recording machine charging an existing (possibly shared)
    /// cost meter. Note [`TraceMachine::verify_replay`] compares the
    /// replayed schedule against that shared meter, so it only holds when
    /// this machine is the meter's sole writer.
    pub fn with_counter(cfg: AemConfig, counter: IoCounter) -> Self {
        TraceMachine {
            inner: Machine::with_counter(cfg, counter),
            schedule: CompiledTrace::new(cfg),
        }
    }

    /// The storage backend selector this machine answers to.
    pub fn backend() -> Backend {
        Backend::Trace
    }

    /// Install an input array without charging I/O (and without recording:
    /// setup is outside the metered computation).
    pub fn install(&mut self, data: &[T]) -> Region {
        self.inner.install(data)
    }

    /// Inspect a region's contents, free of charge.
    pub fn inspect(&self, region: Region) -> Vec<T> {
        self.inner.inspect(region)
    }

    /// Inspect a single block, free of charge.
    pub fn inspect_block(&self, id: BlockId) -> Result<Vec<T>> {
        self.inner.inspect_block(id)
    }

    /// Occupancy of a single data block, free of charge.
    pub fn block_len(&self, id: BlockId) -> Result<usize> {
        self.inner.block_len(id)
    }

    /// Occupancy of a single auxiliary block, free of charge.
    pub fn aux_block_len(&self, id: BlockId) -> Result<usize> {
        self.inner.aux_block_len(id)
    }

    /// Number of data blocks allocated so far.
    pub fn allocated_blocks(&self) -> usize {
        self.inner.allocated_blocks()
    }

    /// Handle to the machine's cost meter.
    pub fn counter(&self) -> IoCounter {
        self.inner.counter()
    }

    /// Begin recording an event-level [`crate::Trace`] on the inner
    /// machine (independent of the always-on compiled schedule).
    pub fn start_trace(&mut self) {
        self.inner.start_trace();
    }

    /// Stop event-level recording and return the trace, if any.
    pub fn take_trace(&mut self) -> Option<crate::Trace> {
        self.inner.take_trace()
    }

    /// The schedule compiled so far.
    pub fn schedule(&self) -> &CompiledTrace {
        &self.schedule
    }

    /// Reset the inner machine ([`crate::MachineCore::reset`], recycling
    /// store buffers) and discard the schedule compiled so far — the next
    /// recording starts from an empty machine and an empty schedule.
    pub fn reset(&mut self) {
        self.inner.reset();
        self.schedule = CompiledTrace::new(self.schedule.cfg());
    }

    /// `true` iff replaying the compiled schedule reproduces the live
    /// meter exactly — the `(Q_r, Q_w)` tuple, and therefore `Q` for any
    /// `ω`. This is the debug-assert behind [`TraceMachine::into_schedule`].
    pub fn verify_replay(&self) -> bool {
        self.schedule.replay() == self.inner.cost()
    }

    /// Consume the machine and return the compiled schedule, asserting
    /// (in debug builds) that its arithmetic replay equals the live run's
    /// cost tuple.
    pub fn into_schedule(self) -> CompiledTrace {
        debug_assert!(
            self.verify_replay(),
            "compiled schedule replays to {:?} but the live meter read {:?}",
            self.schedule.replay(),
            self.inner.cost()
        );
        self.schedule
    }

    fn rec(&mut self, write: bool, aux: bool, first: BlockId, blocks: u64, elems: u64) {
        self.schedule.push(TraceOp {
            write,
            aux,
            first,
            blocks,
            elems,
        });
    }
}

impl<T: Clone> AemAccess<T> for TraceMachine<T> {
    fn cfg(&self) -> AemConfig {
        self.inner.cfg()
    }

    fn read_block(&mut self, id: BlockId) -> Result<Vec<T>> {
        let data = self.inner.read_block(id)?;
        self.rec(false, false, id, 1, data.len() as u64);
        Ok(data)
    }

    fn read_block_into(&mut self, id: BlockId, buf: &mut Vec<T>) -> Result<usize> {
        let len = self.inner.read_block_into(id, buf)?;
        self.rec(false, false, id, 1, len as u64);
        Ok(len)
    }

    fn read_block_with(&mut self, id: BlockId, f: &mut dyn FnMut(&[T])) -> Result<usize> {
        let len = self.inner.read_block_with(id, f)?;
        self.rec(false, false, id, 1, len as u64);
        Ok(len)
    }

    fn exchange_block_into(&mut self, id: BlockId, buf: &mut Vec<T>) -> Result<usize> {
        // The discard half is unmetered, so the compiled op is just the
        // read — identical to what the decomposed pair would record.
        let len = self.inner.exchange_block_into(id, buf)?;
        self.rec(false, false, id, 1, len as u64);
        Ok(len)
    }

    fn write_block(&mut self, id: BlockId, data: Vec<T>) -> Result<()> {
        let len = data.len() as u64;
        self.inner.write_block(id, data)?;
        self.rec(true, false, id, 1, len);
        Ok(())
    }

    fn read_run(&mut self, first: BlockId, count: usize, buf: &mut Vec<T>) -> Result<usize> {
        let total = self.inner.read_run(first, count, buf)?;
        self.rec(false, false, first, count as u64, total as u64);
        Ok(total)
    }

    fn write_run(&mut self, first: BlockId, data: &[T]) -> Result<usize>
    where
        T: Clone,
    {
        let elems = data.len() as u64;
        let blocks = self.inner.write_run(first, data)?;
        self.rec(true, false, first, blocks as u64, elems);
        Ok(blocks)
    }

    fn alloc_block(&mut self) -> BlockId {
        self.inner.alloc_block()
    }

    fn alloc_region(&mut self, elems: usize) -> Region {
        self.inner.alloc_region(elems)
    }

    fn discard(&mut self, k: usize) -> Result<()> {
        self.inner.discard(k)
    }

    fn reserve(&mut self, k: usize) -> Result<()> {
        self.inner.reserve(k)
    }

    fn read_aux_block(&mut self, id: BlockId) -> Result<Vec<u64>> {
        let data = self.inner.read_aux_block(id)?;
        self.rec(false, true, id, 1, data.len() as u64);
        Ok(data)
    }

    fn write_aux_block(&mut self, id: BlockId, data: Vec<u64>) -> Result<()> {
        let len = data.len() as u64;
        self.inner.write_aux_block(id, data)?;
        self.rec(true, true, id, 1, len);
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
}

#[cfg(test)]
mod tests {
    use super::*;
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
        assert!(m.schedule().is_empty());
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
