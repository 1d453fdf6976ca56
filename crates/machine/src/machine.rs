//! The metered AEM machine that algorithms run on.
//!
//! This machine is the work-horse of the workspace: every algorithm in
//! `aem-core` is written against the [`AemAccess`] trait and can therefore
//! run on the plain [`Machine`] or on wrappers that change behaviour, such
//! as [`crate::rounds::RoundBasedMachine`], without modification.
//!
//! The machine itself is [`MachineCore`]: the §2 cost meter and the
//! internal-memory ledger, generic over a [`BlockStore`] that decides what
//! payload movement costs *the simulator* (not the model), and over an
//! [`Observer`] sink that receives the metered event stream. [`Machine`]
//! is the copying default (the arena backend label builds it too);
//! [`GhostMachine`] carries no data payload at all and exists to push cost
//! sweeps to `N` two orders of magnitude larger. Each takes an optional
//! sink type — `Machine<T, Trace>` records every I/O, and
//! [`crate::TraceMachine`] is `Machine<T, CompiledTrace>`.
//!
//! ## Semantics
//!
//! * **Reads** copy a block's contents into internal memory and charge the
//!   internal budget with the number of elements copied. The algorithm must
//!   eventually account for every element it holds: writing elements out
//!   releases budget, and elements dropped without being written must be
//!   released explicitly via [`AemAccess::discard`]. Leaks are conservative —
//!   they can only cause *spurious capacity errors*, never let an algorithm
//!   use more than `M` elements of internal memory unnoticed. A borrowed
//!   read ([`AemAccess::read_block_with`]) is metered identically but lends
//!   the stored block instead of copying it. An in-place update
//!   ([`AemAccess::update_block_with`]) and a one-element probe
//!   ([`AemAccess::probe_elem`]) are metered as the reads, writes and
//!   discards they stand for.
//! * **Writes** store at most `B` elements to a block and release the
//!   internal budget correspondingly.
//! * A separate **auxiliary store** with the same block size carries machine
//!   words (pointers, counters) for algorithms that must spill metadata to
//!   external memory — the crucial case `ω > B` of the §3 merge, where even
//!   the `ωm` run pointers do not fit into internal memory. Auxiliary I/O is
//!   charged to the same cost meter and the same internal budget (one word
//!   counts as one element, the usual I/O-model convention).

use std::marker::PhantomData;

use crate::block::{BlockId, Region};
use crate::config::AemConfig;
use crate::cost::{Cost, IoCounter};
use crate::error::{MachineError, Result};
use crate::external::ExternalMemory;
use crate::observer::{IoRun, Observer};
use crate::store::{Backend, BlockStore, GhostStore};
use crate::trace::IoEvent;

/// Uniform access interface to an AEM machine.
///
/// Algorithms are generic over this trait so that wrappers that change
/// behaviour (round-based execution, fault injectors) can interpose on
/// every operation. Watching a run needs no wrapper: give the machine an
/// [`Observer`] sink instead.
pub trait AemAccess<T> {
    /// The machine's configuration.
    fn cfg(&self) -> AemConfig;

    /// Read a data block into internal memory (cost: 1 read I/O; charges the
    /// internal budget by the block's occupancy).
    fn read_block(&mut self, id: BlockId) -> Result<Vec<T>>;

    /// Read a data block into a caller-supplied buffer, clearing it first
    /// and returning the occupancy. Semantically identical to
    /// [`AemAccess::read_block`] (same cost, same budget charge, same trace
    /// event); machines that can reuse `buf`'s capacity override the
    /// default to skip the per-I/O allocation on the hot path.
    fn read_block_into(&mut self, id: BlockId, buf: &mut Vec<T>) -> Result<usize> {
        *buf = self.read_block(id)?;
        Ok(buf.len())
    }

    /// Read a data block and lend its contents to `f` instead of copying
    /// them out, returning the occupancy. Cost, internal-budget charge,
    /// trace event and error precedence are exactly those of
    /// [`AemAccess::read_block_into`]: the caller owns the charged budget
    /// and releases it with [`AemAccess::discard`] as after any read. `f`
    /// is called once on success and never on error. Probe-and-discard
    /// kernels use this to extract a few elements without a host copy;
    /// the default reads into a temporary, so wrappers that override only
    /// [`AemAccess::read_block`] keep their semantics.
    fn read_block_with(&mut self, id: BlockId, f: &mut dyn FnMut(&[T])) -> Result<usize> {
        let mut tmp = Vec::new();
        let len = self.read_block_into(id, &mut tmp)?;
        f(&tmp);
        Ok(len)
    }

    /// Read a data block and let `f` edit it in place: a read-modify-write
    /// of one block without a host copy. Cost, ledger, events and error
    /// precedence are exactly those of [`AemAccess::read_block_into`]
    /// followed, when `f` returns `true`, by [`AemAccess::write_block`] of
    /// the edited block (1 read, 1 write, the charge released by the
    /// write) and, when it returns `false`, by [`AemAccess::discard`] of
    /// the occupancy (1 read). Returns `f`'s verdict. `f` is called once
    /// on success and never on error, and it cannot change the occupancy.
    ///
    /// `f` must return `true` whenever it edited the block: the machines
    /// edit the stored block itself, so an edit reported as `false` would
    /// persist without a metered write. The default reads into a
    /// temporary and writes it back, so wrappers that override only
    /// [`AemAccess::read_block`] and [`AemAccess::write_block`] keep their
    /// semantics.
    fn update_block_with(
        &mut self,
        id: BlockId,
        f: &mut dyn FnMut(&mut [T]) -> bool,
    ) -> Result<bool> {
        let mut tmp = Vec::new();
        let len = self.read_block_into(id, &mut tmp)?;
        if f(&mut tmp) {
            self.write_block(id, tmp)?;
            Ok(true)
        } else {
            self.discard(len)?;
            Ok(false)
        }
    }

    /// Read a data block, return a clone of its element `i` and release
    /// the charge: [`AemAccess::read_block_into`] followed by
    /// [`AemAccess::discard`] of the occupancy, in cost, ledger, events
    /// and error precedence (1 read). Panics when `i` is not below the
    /// block's occupancy, as indexing the read block would. Kernels that
    /// need one element of a block use this; the default reads into a
    /// temporary, so wrappers that override only
    /// [`AemAccess::read_block`] keep their semantics.
    fn probe_elem(&mut self, id: BlockId, i: usize) -> Result<T>
    where
        T: Clone,
    {
        let mut tmp = Vec::new();
        let len = self.read_block_into(id, &mut tmp)?;
        let elem = tmp[i].clone();
        self.discard(len)?;
        Ok(elem)
    }

    /// Evict the block currently held in `buf` (unmodified, so no
    /// write-back — its `buf.len()` budget is released) and read block
    /// `id` into `buf` in its place. Cost: 1 read I/O, exactly as
    /// [`AemAccess::discard`]`(buf.len())` followed by
    /// [`AemAccess::read_block_into`]; gather kernels that cycle one
    /// resident block per element call this once per reload, and machines
    /// override the default with a single fused store lookup. The fused
    /// override validates `id` *before* touching the ledger, so a failing
    /// exchange leaves the budget unchanged (the decomposed pair would
    /// have already released).
    fn exchange_block_into(&mut self, id: BlockId, buf: &mut Vec<T>) -> Result<usize> {
        self.discard(buf.len())?;
        self.read_block_into(id, buf)
    }

    /// Write `data` (≤ `B` elements) to a data block (cost: 1 write I/O;
    /// releases the internal budget by `data.len()`).
    fn write_block(&mut self, id: BlockId, data: Vec<T>) -> Result<()>;

    /// Bulk read: the `count` consecutive data blocks starting at `first`,
    /// appended in block order into `buf` (cleared first). Returns the
    /// total element count.
    ///
    /// Cost- and ledger-equivalent to `count` successive
    /// [`AemAccess::read_block_into`] calls: `count` read I/Os, one
    /// internal-budget charge for the run's total occupancy, one trace
    /// event per block. The whole run is validated *before* any charge, so
    /// a failing bulk read moves nothing and charges nothing (the
    /// per-block loop could stop half-way); see `docs/COST_MODEL.md`.
    /// Note the budget for the entire run is held at once — a run longer
    /// than `M/B` blocks fails with `InternalOverflow` where an
    /// interleaved read-process-discard loop would not.
    fn read_run(&mut self, first: BlockId, count: usize, buf: &mut Vec<T>) -> Result<usize> {
        buf.clear();
        let mut tmp = Vec::new();
        let mut total = 0;
        for i in 0..count {
            total += self.read_block_into(BlockId(first.index() + i), &mut tmp)?;
            buf.append(&mut tmp);
        }
        Ok(total)
    }

    /// Bulk write: `data` split across the consecutive data blocks starting
    /// at `first` in chunks of exactly `B` (the final block may be
    /// partial). Returns the number of blocks written, `⌈data.len()/B⌉`;
    /// empty `data` writes nothing and costs nothing.
    ///
    /// Cost- and ledger-equivalent to the per-block [`AemAccess::write_block`]
    /// loop over the same chunks: one write I/O and one trace event per
    /// block, one budget release of `data.len()`. The run is validated
    /// before the ledger is touched, so a failing bulk write is a no-op.
    /// The payload is borrowed — callers keep (and typically clear and
    /// refill) their batch buffer, so a flush allocates nothing.
    fn write_run(&mut self, first: BlockId, data: &[T]) -> Result<usize>
    where
        T: Clone,
    {
        let b = self.cfg().block;
        let mut blocks = 0;
        for chunk in data.chunks(b) {
            self.write_block(BlockId(first.index() + blocks), chunk.to_vec())?;
            blocks += 1;
        }
        Ok(blocks)
    }

    /// Allocate a fresh empty data block (free).
    fn alloc_block(&mut self) -> BlockId;

    /// Allocate a region of fresh data blocks able to hold `elems` elements
    /// (free).
    fn alloc_region(&mut self, elems: usize) -> Region;

    /// Release `k` elements of internal budget for data that is dropped
    /// without being written back.
    fn discard(&mut self, k: usize) -> Result<()>;

    /// Charge `k` elements of internal budget for values *computed* in
    /// internal memory (partial sums, pointer tables, …) that will later be
    /// written out or discarded. Computation is free in the model, but the
    /// values still occupy internal memory.
    fn reserve(&mut self, k: usize) -> Result<()>;

    /// Read an auxiliary (machine-word) block (cost: 1 read I/O; charges the
    /// internal budget by its occupancy).
    fn read_aux_block(&mut self, id: BlockId) -> Result<Vec<u64>>;

    /// Write an auxiliary block (cost: 1 write I/O; releases budget).
    fn write_aux_block(&mut self, id: BlockId, data: Vec<u64>) -> Result<()>;

    /// Allocate a region of auxiliary blocks holding `words` words (free).
    fn alloc_aux_region(&mut self, words: usize) -> Region;

    /// Elements currently charged against the internal budget.
    fn internal_used(&self) -> usize;

    /// Cost snapshot (shared across data and auxiliary I/O).
    fn cost(&self) -> Cost;

    /// Enter a named phase ("merge-pass-2", "base-runs", …). Algorithms call
    /// this to label the I/O that follows; the machine hands it to its
    /// sink, and recording sinks (e.g. `aem-obs`'s `RunRecorder`) attribute
    /// cost to the resulting nested span. Phases nest: each `phase_enter`
    /// must be balanced by one [`AemAccess::phase_exit`].
    fn phase_enter(&mut self, name: &str) {
        let _ = name;
    }

    /// Leave the innermost phase entered via [`AemAccess::phase_enter`].
    /// A no-op on machines that do not track phases.
    fn phase_exit(&mut self) {}
}

impl<T, M: AemAccess<T> + ?Sized> AemAccess<T> for &mut M {
    fn cfg(&self) -> AemConfig {
        (**self).cfg()
    }
    fn read_block(&mut self, id: BlockId) -> Result<Vec<T>> {
        (**self).read_block(id)
    }
    fn read_block_into(&mut self, id: BlockId, buf: &mut Vec<T>) -> Result<usize> {
        (**self).read_block_into(id, buf)
    }
    fn read_block_with(&mut self, id: BlockId, f: &mut dyn FnMut(&[T])) -> Result<usize> {
        (**self).read_block_with(id, f)
    }
    fn update_block_with(
        &mut self,
        id: BlockId,
        f: &mut dyn FnMut(&mut [T]) -> bool,
    ) -> Result<bool> {
        (**self).update_block_with(id, f)
    }
    fn probe_elem(&mut self, id: BlockId, i: usize) -> Result<T>
    where
        T: Clone,
    {
        (**self).probe_elem(id, i)
    }
    fn exchange_block_into(&mut self, id: BlockId, buf: &mut Vec<T>) -> Result<usize> {
        (**self).exchange_block_into(id, buf)
    }
    fn write_block(&mut self, id: BlockId, data: Vec<T>) -> Result<()> {
        (**self).write_block(id, data)
    }
    fn read_run(&mut self, first: BlockId, count: usize, buf: &mut Vec<T>) -> Result<usize> {
        (**self).read_run(first, count, buf)
    }
    fn write_run(&mut self, first: BlockId, data: &[T]) -> Result<usize>
    where
        T: Clone,
    {
        (**self).write_run(first, data)
    }
    fn alloc_block(&mut self) -> BlockId {
        (**self).alloc_block()
    }
    fn alloc_region(&mut self, elems: usize) -> Region {
        (**self).alloc_region(elems)
    }
    fn discard(&mut self, k: usize) -> Result<()> {
        (**self).discard(k)
    }
    fn reserve(&mut self, k: usize) -> Result<()> {
        (**self).reserve(k)
    }
    fn read_aux_block(&mut self, id: BlockId) -> Result<Vec<u64>> {
        (**self).read_aux_block(id)
    }
    fn write_aux_block(&mut self, id: BlockId, data: Vec<u64>) -> Result<()> {
        (**self).write_aux_block(id, data)
    }
    fn alloc_aux_region(&mut self, words: usize) -> Region {
        (**self).alloc_aux_region(words)
    }
    fn internal_used(&self) -> usize {
        (**self).internal_used()
    }
    fn cost(&self) -> Cost {
        (**self).cost()
    }
    fn phase_enter(&mut self, name: &str) {
        (**self).phase_enter(name)
    }
    fn phase_exit(&mut self) {
        (**self).phase_exit()
    }
}

/// The `(M, B, ω)`-AEM cost meter, generic over storage backends.
///
/// Implements the §2 cost measure exactly: reading a block charges 1,
/// writing a block charges `ω` (via [`Cost::q`]), and internal memory is
/// capacity-enforced at `M` elements. `S` stores data payloads, `A` stores
/// auxiliary machine words; both default to the copying [`ExternalMemory`]
/// so [`Machine`] behaves exactly as it always has. `K` is the event sink
/// ([`Observer`]): it is called once after each successful metered
/// operation, on `discard`/`reserve` and on the phase hooks. The default
/// `()` ignores every event, so an unobserved machine does no per-event
/// work.
#[derive(Debug)]
pub struct MachineCore<T, S = ExternalMemory<T>, A = ExternalMemory<u64>, K = ()> {
    cfg: AemConfig,
    data: S,
    aux: A,
    internal_used: usize,
    counter: IoCounter,
    sink: K,
    _elem: PhantomData<fn() -> T>,
}

/// The plain copy-semantics AEM machine — [`MachineCore`] over
/// [`crate::VecStore`], the default backend, with an optional sink `K`.
///
/// ```
/// use aem_machine::{AemAccess, AemConfig, Machine};
///
/// let cfg = AemConfig::new(64, 8, 16).unwrap(); // M = 64, B = 8, ω = 16
/// let mut m: Machine<u64> = Machine::new(cfg);
/// let r = m.install(&(0..32).collect::<Vec<u64>>()); // setup is free (§2)
///
/// let block = m.read_block(r.block(0)).unwrap();
/// m.write_block(r.block(1), block).unwrap();
///
/// let c = m.cost();
/// assert_eq!((c.reads, c.writes), (1, 1));
/// assert_eq!(c.q(cfg.omega), 1 + 16); // Q = reads + ω·writes
/// ```
pub type Machine<T, K = ()> = MachineCore<T, ExternalMemory<T>, ExternalMemory<u64>, K>;

/// [`MachineCore`] over a cost-only [`GhostStore`] for data and a *real*
/// [`ExternalMemory`] for auxiliary words.
///
/// Data reads return `T::default()` placeholders; auxiliary words
/// (pointers, counters — addressing metadata by design) stay real so that
/// algorithms which spill metadata keep working. Cost equality with
/// [`Machine`] holds only for payload-oblivious workloads — see
/// [`crate::store`] for the soundness argument.
pub type GhostMachine<T, K = ()> = MachineCore<T, GhostStore<T>, ExternalMemory<u64>, K>;

impl<T, S, A, K> MachineCore<T, S, A, K>
where
    T: Clone,
    S: BlockStore<T>,
    A: BlockStore<u64>,
    K: Observer,
{
    /// A fresh machine with a fresh sink.
    pub fn new(cfg: AemConfig) -> Self {
        Self::with_counter(cfg, IoCounter::new())
    }

    /// A fresh machine charging an existing (possibly shared) cost meter.
    pub fn with_counter(cfg: AemConfig, counter: IoCounter) -> Self {
        Self {
            cfg,
            data: S::new_store(cfg.block),
            aux: A::new_store(cfg.block),
            internal_used: 0,
            counter,
            sink: K::new_sink(cfg),
            _elem: PhantomData,
        }
    }

    /// A fresh machine feeding a prepared sink.
    pub fn with_sink(cfg: AemConfig, sink: K) -> Self {
        Self {
            sink,
            ..Self::new(cfg)
        }
    }

    /// The storage backend of the data store.
    pub fn backend() -> Backend {
        S::BACKEND
    }

    /// The event sink.
    pub fn sink(&self) -> &K {
        &self.sink
    }

    /// The event sink, mutably (to configure it before a run).
    pub fn sink_mut(&mut self) -> &mut K {
        &mut self.sink
    }

    /// Consume the machine and return its sink.
    pub fn into_sink(self) -> K {
        self.sink
    }

    /// Handle to the machine's cost meter.
    pub fn counter(&self) -> IoCounter {
        self.counter.clone()
    }

    /// Install an input array into external memory without charging I/O
    /// (problem setup; the input "is given" in external memory).
    pub fn install(&mut self, data: &[T]) -> Region {
        self.data.install(data)
    }

    /// Inspect a region's contents without charging I/O (result
    /// verification; outside the metered computation). On a ghost backend
    /// the returned values are placeholders — only the length is
    /// meaningful.
    pub fn inspect(&self, region: Region) -> Vec<T> {
        self.data.inspect(region)
    }

    /// Inspect a single block without charging I/O.
    pub fn inspect_block(&self, id: BlockId) -> Result<Vec<T>> {
        self.data.inspect_block(id)
    }

    /// Occupancy of a single block (elements currently stored), free of
    /// charge — used by validators, not by algorithms.
    pub fn block_len(&self, id: BlockId) -> Result<usize> {
        self.data.occupancy(id)
    }

    /// Occupancy of a single auxiliary block, free of charge.
    pub fn aux_block_len(&self, id: BlockId) -> Result<usize> {
        self.aux.occupancy(id)
    }

    /// Number of data blocks allocated so far.
    pub fn allocated_blocks(&self) -> usize {
        self.data.allocated()
    }

    /// Return the machine to its post-construction state — meter at zero,
    /// ledger empty, no blocks allocated, the sink reset
    /// ([`Observer::on_reset`]) — while
    /// *recycling* the stores' buffers ([`BlockStore::wipe`]): repeated
    /// runs on one machine reach an allocation-free steady state, which is
    /// what a sweep harness re-running cells wants. Shared [`IoCounter`]
    /// handles observe the zeroed meter (the cells are zeroed, not
    /// replaced). Regions from before the reset are dead: their ids are
    /// `BadBlock` until re-allocated.
    pub fn reset(&mut self) {
        self.data.wipe();
        self.aux.wipe();
        self.internal_used = 0;
        self.counter.reset();
        self.sink.on_reset();
    }

    /// Charge the internal budget without an I/O (used by in-crate wrappers
    /// to model internal-memory copies, which occupy space but are free of
    /// I/O cost).
    pub(crate) fn charge_internal_free(&mut self, k: usize) -> Result<()> {
        self.charge_internal(k)
    }

    fn charge_internal(&mut self, k: usize) -> Result<()> {
        if self.internal_used + k > self.cfg.memory {
            return Err(MachineError::InternalOverflow {
                used: self.internal_used,
                capacity: self.cfg.memory,
                requested: k,
            });
        }
        self.internal_used += k;
        Ok(())
    }

    fn release_internal(&mut self, k: usize) -> Result<()> {
        if k > self.internal_used {
            return Err(MachineError::InternalUnderflow {
                used: self.internal_used,
                released: k,
            });
        }
        self.internal_used -= k;
        Ok(())
    }

    #[inline]
    fn record(&mut self, ev: IoEvent) {
        self.sink.on_io(&ev, self.internal_used);
    }
}

/// The ledger half of a fused read: charge `k` elements against
/// `capacity`, or fail with `InternalOverflow` leaving `used` unchanged.
fn charge_ledger(used: &mut usize, capacity: usize, k: usize) -> Result<()> {
    if *used + k > capacity {
        return Err(MachineError::InternalOverflow {
            used: *used,
            capacity,
            requested: k,
        });
    }
    *used += k;
    Ok(())
}

impl<T, S, A, K> AemAccess<T> for MachineCore<T, S, A, K>
where
    T: Clone,
    S: BlockStore<T>,
    A: BlockStore<u64>,
    K: Observer,
{
    fn cfg(&self) -> AemConfig {
        self.cfg
    }

    fn read_block(&mut self, id: BlockId) -> Result<Vec<T>> {
        // Validate the target (BadBlock) before the ledger (InternalOverflow)
        // so error precedence matches the pre-backend machine exactly.
        let len = self.data.occupancy(id)?;
        self.charge_internal(len)?;
        let contents = self.data.read(id)?;
        self.counter.charge_read();
        self.record(IoEvent::Read {
            block: id,
            len,
            aux: false,
        });
        Ok(contents)
    }

    fn read_block_into(&mut self, id: BlockId, buf: &mut Vec<T>) -> Result<usize> {
        // Fused store call: one block lookup covers occupancy + payload
        // (this is the hot path of gather-heavy kernels — one call per
        // block reload). The closure charges the ledger between the two,
        // preserving the occupancy → charge → read validation order.
        let (used, capacity) = (&mut self.internal_used, self.cfg.memory);
        let len = self
            .data
            .read_into_charged(id, buf, |k| charge_ledger(used, capacity, k))?;
        self.counter.charge_read();
        self.record(IoEvent::Read {
            block: id,
            len,
            aux: false,
        });
        Ok(len)
    }

    fn read_block_with(&mut self, id: BlockId, f: &mut dyn FnMut(&[T])) -> Result<usize> {
        // The borrowed counterpart of `read_block_into`: the same fused
        // lookup and ledger closure, but the store lends its slice.
        let (used, capacity) = (&mut self.internal_used, self.cfg.memory);
        let len = self
            .data
            .peek_charged(id, |k| charge_ledger(used, capacity, k), f)?;
        self.counter.charge_read();
        self.record(IoEvent::Read {
            block: id,
            len,
            aux: false,
        });
        Ok(len)
    }

    fn update_block_with(
        &mut self,
        id: BlockId,
        f: &mut dyn FnMut(&mut [T]) -> bool,
    ) -> Result<bool> {
        // One fused lookup for the read-modify-write: the store charges
        // the ledger through the closure (BadBlock first, as every read),
        // lends the stored block to `f`, and the machine then meters the
        // read, and the write or the release, as the decomposed sequence
        // would.
        let (used, capacity) = (&mut self.internal_used, self.cfg.memory);
        let (len, wrote) = self
            .data
            .update_charged(id, |k| charge_ledger(used, capacity, k), f)?;
        self.counter.charge_read();
        self.record(IoEvent::Read {
            block: id,
            len,
            aux: false,
        });
        self.internal_used -= len;
        if wrote {
            self.counter.charge_write();
            self.record(IoEvent::Write {
                block: id,
                len,
                aux: false,
            });
        } else {
            self.sink.on_mem(self.internal_used);
        }
        Ok(wrote)
    }

    fn probe_elem(&mut self, id: BlockId, i: usize) -> Result<T>
    where
        T: Clone,
    {
        // A borrowed read and its discard in one store lookup.
        let (used, capacity) = (&mut self.internal_used, self.cfg.memory);
        let (len, elem) = self
            .data
            .probe_charged(id, i, |k| charge_ledger(used, capacity, k))?;
        self.counter.charge_read();
        self.record(IoEvent::Read {
            block: id,
            len,
            aux: false,
        });
        self.internal_used -= len;
        self.sink.on_mem(self.internal_used);
        Ok(elem)
    }

    fn exchange_block_into(&mut self, id: BlockId, buf: &mut Vec<T>) -> Result<usize> {
        // One fused store lookup for the evict-and-load cycle. The ledger
        // closure nets the release of the evicted occupancy against the
        // charge for the incoming one; `id` is validated first (inside
        // `read_into_charged`), so a BadBlock exchange is a ledger no-op —
        // see the trait docs for this deliberate divergence from the
        // decomposed discard + read pair.
        let released = buf.len();
        let used = &mut self.internal_used;
        let capacity = self.cfg.memory;
        let len = self.data.read_into_charged(id, buf, |k| {
            let base = used
                .checked_sub(released)
                .ok_or(MachineError::InternalUnderflow {
                    used: *used,
                    released,
                })?;
            if base + k > capacity {
                return Err(MachineError::InternalOverflow {
                    used: base,
                    capacity,
                    requested: k,
                });
            }
            *used = base + k;
            Ok(())
        })?;
        self.counter.charge_read();
        self.record(IoEvent::Read {
            block: id,
            len,
            aux: false,
        });
        Ok(len)
    }

    fn write_block(&mut self, id: BlockId, data: Vec<T>) -> Result<()> {
        let len = data.len();
        if len > self.cfg.block {
            return Err(MachineError::BlockOverflow {
                len,
                block: self.cfg.block,
            });
        }
        // Validate the target before touching the ledger: a failed write
        // must leave the accounting unchanged.
        self.data.occupancy(id)?;
        self.release_internal(len)?;
        self.data.write(id, data)?;
        self.counter.charge_write();
        self.record(IoEvent::Write {
            block: id,
            len,
            aux: false,
        });
        Ok(())
    }

    fn read_run(&mut self, first: BlockId, count: usize, buf: &mut Vec<T>) -> Result<usize> {
        // Validate the whole run (BadBlock) and total its occupancy before
        // the single ledger charge (InternalOverflow), mirroring the
        // per-read precedence; then one bulk payload move and one bulk
        // meter update for `count` read I/Os.
        let total = self.data.run_occupancy(first, count)?;
        self.charge_internal(total)?;
        self.data.read_run(first, count, buf)?;
        self.counter.charge_reads(count as u64);
        let data = &self.data;
        self.sink.on_run(&IoRun {
            write: false,
            first,
            blocks: count,
            elems: total,
            internal_used: self.internal_used,
            block_len: &|i| {
                data.occupancy(BlockId(first.index() + i))
                    .expect("validated above")
            },
        });
        Ok(total)
    }

    fn write_run(&mut self, first: BlockId, data: &[T]) -> Result<usize>
    where
        T: Clone,
    {
        let blocks = data.len().div_ceil(self.cfg.block);
        // Per-chunk occupancy ≤ B holds by construction; validate the
        // targets before the ledger so a failed bulk write is a no-op.
        self.data.run_occupancy(first, blocks)?;
        self.release_internal(data.len())?;
        let total = data.len();
        self.data.write_run(first, data)?;
        self.counter.charge_writes(blocks as u64);
        let b = self.cfg.block;
        self.sink.on_run(&IoRun {
            write: true,
            first,
            blocks,
            elems: total,
            internal_used: self.internal_used,
            block_len: &|i| (total - i * b).min(b),
        });
        Ok(blocks)
    }

    fn alloc_block(&mut self) -> BlockId {
        self.data.alloc()
    }

    fn alloc_region(&mut self, elems: usize) -> Region {
        self.data.alloc_region(elems)
    }

    fn discard(&mut self, k: usize) -> Result<()> {
        self.release_internal(k)?;
        self.sink.on_mem(self.internal_used);
        Ok(())
    }

    fn reserve(&mut self, k: usize) -> Result<()> {
        self.charge_internal(k)?;
        self.sink.on_mem(self.internal_used);
        Ok(())
    }

    fn read_aux_block(&mut self, id: BlockId) -> Result<Vec<u64>> {
        let len = self.aux.occupancy(id)?;
        self.charge_internal(len)?;
        let contents = self.aux.read(id)?;
        self.counter.charge_read();
        self.record(IoEvent::Read {
            block: id,
            len,
            aux: true,
        });
        Ok(contents)
    }

    fn write_aux_block(&mut self, id: BlockId, data: Vec<u64>) -> Result<()> {
        let len = data.len();
        if len > self.cfg.block {
            return Err(MachineError::BlockOverflow {
                len,
                block: self.cfg.block,
            });
        }
        self.aux.occupancy(id)?;
        self.release_internal(len)?;
        self.aux.write(id, data)?;
        self.counter.charge_write();
        self.record(IoEvent::Write {
            block: id,
            len,
            aux: true,
        });
        Ok(())
    }

    fn alloc_aux_region(&mut self, words: usize) -> Region {
        self.aux.alloc_region(words)
    }

    fn internal_used(&self) -> usize {
        self.internal_used
    }

    fn cost(&self) -> Cost {
        self.counter.snapshot()
    }

    fn phase_enter(&mut self, name: &str) {
        self.sink.on_phase_enter(name, self.internal_used);
    }

    fn phase_exit(&mut self) {
        self.sink.on_phase_exit();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Trace;

    fn cfg() -> AemConfig {
        AemConfig::new(16, 4, 8).unwrap()
    }

    #[test]
    fn read_write_round_trip_and_cost() {
        let mut m: Machine<u32> = Machine::new(cfg());
        let r = m.install(&[1, 2, 3, 4, 5, 6]);
        let b0 = m.read_block(r.block(0)).unwrap();
        assert_eq!(b0, vec![1, 2, 3, 4]);
        assert_eq!(m.internal_used(), 4);
        let out = m.alloc_block();
        m.write_block(out, b0).unwrap();
        assert_eq!(m.internal_used(), 0);
        assert_eq!(m.cost(), Cost::new(1, 1));
        assert_eq!(m.inspect_block(out).unwrap(), vec![1, 2, 3, 4]);
    }

    #[test]
    fn capacity_is_enforced() {
        let mut m: Machine<u32> = Machine::new(cfg());
        let r = m.install(&[0; 24]);
        // M = 16, B = 4: five block reads exceed capacity.
        for i in 0..4 {
            m.read_block(r.block(i)).unwrap();
        }
        let err = m.read_block(r.block(4)).unwrap_err();
        assert!(matches!(
            err,
            MachineError::InternalOverflow {
                used: 16,
                capacity: 16,
                ..
            }
        ));
    }

    #[test]
    fn discard_releases_budget() {
        let mut m: Machine<u32> = Machine::new(cfg());
        let r = m.install(&[0; 16]);
        for i in 0..4 {
            m.read_block(r.block(i)).unwrap();
        }
        m.discard(8).unwrap();
        assert_eq!(m.internal_used(), 8);
        assert!(m.discard(9).is_err());
    }

    #[test]
    fn write_more_than_block_fails() {
        let mut m: Machine<u32> = Machine::new(cfg());
        let r = m.install(&[0; 8]);
        m.read_block(r.block(0)).unwrap();
        m.read_block(r.block(1)).unwrap();
        let out = m.alloc_block();
        let err = m.write_block(out, vec![0; 5]).unwrap_err();
        assert_eq!(err, MachineError::BlockOverflow { len: 5, block: 4 });
    }

    #[test]
    fn aux_io_shares_budget_and_counter() {
        let mut m: Machine<u32> = Machine::new(cfg());
        let ar = m.alloc_aux_region(4);
        // Writing aux data we never "held" underflows the ledger.
        assert!(m.write_aux_block(ar.block(0), vec![7; 4]).is_err());
        // Proper flow: charge by reading an (empty) aux block, then hold data.
        m.read_aux_block(ar.block(0)).unwrap(); // empty: charges 0
                                                // Simulate producing 4 words in memory by charging via a data read.
        let r = m.install(&[1, 2, 3, 4]);
        m.read_block(r.block(0)).unwrap();
        m.write_aux_block(ar.block(0), vec![7; 4]).unwrap();
        assert_eq!(m.cost(), Cost::new(2, 1));
        assert_eq!(m.read_aux_block(ar.block(0)).unwrap(), vec![7; 4]);
    }

    #[test]
    fn trace_records_all_io() {
        let mut m: Machine<u32, Trace> = Machine::new(cfg());
        let r = m.install(&[1, 2, 3, 4]);
        let d = m.read_block(r.block(0)).unwrap();
        let out = m.alloc_block();
        m.write_block(out, d).unwrap();
        assert_eq!(m.sink().len(), 2);
        assert_eq!(m.sink().cost(), Cost::new(1, 1));
        m.reset();
        assert!(m.sink().is_empty());
    }

    #[test]
    fn install_and_inspect_are_free() {
        let mut m: Machine<u32> = Machine::new(cfg());
        let r = m.install(&[9; 12]);
        assert_eq!(m.inspect(r), vec![9; 12]);
        assert_eq!(m.cost(), Cost::ZERO);
        assert_eq!(m.internal_used(), 0);
    }

    #[test]
    fn shared_counter_between_machines() {
        let a: Machine<u32> = Machine::new(cfg());
        let mut b: Machine<u32> = Machine::with_counter(cfg(), a.counter());
        let r = b.install(&[1]);
        b.read_block(r.block(0)).unwrap();
        assert_eq!(a.cost(), Cost::new(1, 0));
    }

    #[test]
    fn read_block_into_matches_read_block() {
        let mut m: Machine<u32, Trace> = Machine::new(cfg());
        let r = m.install(&[1, 2, 3, 4, 5]);
        let mut buf = vec![99; 4];
        let len = m.read_block_into(r.block(1), &mut buf).unwrap();
        assert_eq!((len, buf.as_slice()), (1, &[5][..]));
        assert_eq!(m.internal_used(), 1);
        m.discard(1).unwrap();
        let via_read = m.read_block(r.block(1)).unwrap();
        assert_eq!(via_read, buf);
        let t = m.into_sink();
        assert_eq!(t.len(), 2);
        assert_eq!(t.cost(), Cost::new(2, 0));
    }

    // The same scripted workload on every backend: costs, ledger and error
    // sites must agree exactly; payloads must agree on the payload-carrying
    // backends.
    fn scripted<M>(mut m: M) -> (Cost, usize, Vec<MachineError>, Vec<u32>)
    where
        M: AemAccess<u32>,
    {
        let mut errs = Vec::new();
        let r = m.alloc_region(10);
        errs.push(m.read_block(BlockId(42)).unwrap_err());
        for (i, chunk) in [vec![1u32, 2, 3, 4], vec![5, 6, 7, 8], vec![9, 10]]
            .into_iter()
            .enumerate()
        {
            m.reserve(chunk.len()).unwrap();
            m.write_block(r.block(i), chunk).unwrap();
        }
        errs.push(m.write_block(r.block(0), vec![0; 5]).unwrap_err());
        let out = m.alloc_region(10);
        let mut payload = Vec::new();
        let mut buf = Vec::new();
        for i in 0..3 {
            let len = m.read_block_into(r.block(i), &mut buf).unwrap();
            payload.extend_from_slice(&buf);
            m.write_block(out.block(i), std::mem::take(&mut buf))
                .unwrap();
            assert!(len <= 4);
        }
        errs.push(
            m.read_block_with(BlockId(42), &mut |_| unreachable!())
                .unwrap_err(),
        );
        for i in 0..3 {
            let len = m
                .read_block_with(out.block(i), &mut |blk| payload.extend_from_slice(blk))
                .unwrap();
            m.discard(len).unwrap();
        }
        errs.push(m.discard(1).unwrap_err());
        (m.cost(), m.internal_used(), errs, payload)
    }

    #[test]
    fn backends_agree_on_cost_ledger_and_errors() {
        let c = cfg();
        let vec_run = scripted(Machine::<u32>::new(c));
        let ghost_run = scripted(GhostMachine::<u32>::new(c));
        assert_eq!(vec_run.0, ghost_run.0);
        assert_eq!(vec_run.1, ghost_run.1);
        assert_eq!(vec_run.2, ghost_run.2);
        // Ghost reads placeholders: only the payload's length must match.
        assert_eq!(vec_run.3.len(), ghost_run.3.len());
    }

    // Runs `script` on `backend`'s machine with a `Trace` sink (composed
    // with the compiled schedule on the trace backend) and returns the
    // script's result plus the recorded events.
    fn traced<R>(
        backend: Backend,
        script: impl FnOnce(&mut dyn AemAccess<u32>) -> R,
    ) -> (R, Vec<IoEvent>) {
        fn go<M: AemAccess<u32>, R>(
            mut m: M,
            script: impl FnOnce(&mut dyn AemAccess<u32>) -> R,
            trace: impl FnOnce(M) -> Trace,
        ) -> (R, Vec<IoEvent>) {
            let out = script(&mut m);
            (out, trace(m).events().to_vec())
        }
        let c = cfg();
        match backend {
            Backend::Vec | Backend::Arena => {
                go(Machine::<u32, Trace>::new(c), script, |m| m.into_sink())
            }
            Backend::Ghost => go(GhostMachine::<u32, Trace>::new(c), script, |m| {
                m.into_sink()
            }),
            Backend::Trace => go(
                Machine::<u32, (crate::CompiledTrace, Trace)>::new(c),
                script,
                |m| m.into_sink().1,
            ),
        }
    }

    // The same bulk-run workload on one machine type: returns everything
    // the per-block loop must agree on.
    fn run_bulk(m: &mut dyn AemAccess<u32>, bulk: bool) -> (Cost, usize, Vec<u32>) {
        let r = m.alloc_region(10);
        let data: Vec<u32> = (50..60).collect();
        m.reserve(data.len()).unwrap();
        let written = if bulk {
            m.write_run(r.block(0), &data).unwrap()
        } else {
            let mut iter = data.into_iter().peekable();
            let mut blk = 0;
            while iter.peek().is_some() {
                let chunk: Vec<u32> = iter.by_ref().take(4).collect();
                m.write_block(r.block(blk), chunk).unwrap();
                blk += 1;
            }
            blk
        };
        assert_eq!(written, 3);
        let mut buf = Vec::new();
        let total = if bulk {
            m.read_run(r.block(0), 3, &mut buf).unwrap()
        } else {
            let mut tmp = Vec::new();
            let mut total = 0;
            for i in 0..3 {
                total += m.read_block_into(r.block(i), &mut tmp).unwrap();
                buf.append(&mut tmp);
            }
            total
        };
        assert_eq!(total, 10);
        let used = m.internal_used();
        m.discard(total).unwrap();
        (m.cost(), used, buf)
    }

    #[test]
    fn bulk_runs_match_per_block_loops_on_cost_ledger_payload_and_trace() {
        let (per_block, loop_events) = traced(Backend::Vec, |m| run_bulk(m, false));
        for backend in Backend::ALL {
            let (bulk, events) = traced(backend, |m| run_bulk(m, true));
            assert_eq!(per_block.0, bulk.0, "{backend}: cost");
            assert_eq!(per_block.1, bulk.1, "{backend}: ledger");
            if backend.carries_payload() {
                assert_eq!(per_block.2, bulk.2, "{backend}: payload");
            } else {
                assert_eq!(per_block.2.len(), bulk.2.len(), "{backend}: length");
            }
            assert_eq!(loop_events, events, "{backend}: trace events");
        }
    }

    // A borrowed read and a copying read of the same blocks on one machine
    // type: cost, ledger, trace event, the lent slice and the errors must
    // agree.
    fn borrowed_matches_copied(m: &mut dyn AemAccess<u32>, backend: Backend) {
        let r = m.alloc_region(10);
        m.reserve(10).unwrap();
        m.write_run(r.block(0), &(50..60).collect::<Vec<u32>>())
            .unwrap();
        let mut buf = Vec::new();
        for i in 0..3 {
            let before = m.cost();
            let copied = m.read_block_into(r.block(i), &mut buf).unwrap();
            let (copy_cost, copy_used) = (m.cost(), m.internal_used());
            m.discard(copied).unwrap();
            let (mut lent, mut calls) = (Vec::new(), 0);
            let borrowed = m
                .read_block_with(r.block(i), &mut |blk| {
                    calls += 1;
                    lent = blk.to_vec();
                })
                .unwrap();
            assert_eq!((borrowed, calls), (copied, 1), "{backend}: occupancy");
            assert_eq!(lent.len(), borrowed, "{backend}: lent length");
            if backend.carries_payload() {
                assert_eq!(lent, buf, "{backend}: lent payload");
            } else {
                assert!(lent.iter().all(|&x| x == 0), "{backend}: placeholders");
            }
            assert_eq!(m.internal_used(), copy_used, "{backend}: ledger");
            let step = |a: Cost, b: Cost| (b.reads - a.reads, b.writes - a.writes);
            assert_eq!(
                step(copy_cost, m.cost()),
                step(before, copy_cost),
                "{backend}"
            );
            m.discard(borrowed).unwrap();
        }

        // Errors: BadBlock before InternalOverflow, exactly as the copying
        // read reports them; a failed borrow never calls `f` and moves
        // neither the meter nor the ledger.
        m.reserve(cfg().memory - m.internal_used()).unwrap();
        let (cost, used) = (m.cost(), m.internal_used());
        for id in [BlockId(99), r.block(0)] {
            let mut called = false;
            let err = m.read_block_with(id, &mut |_| called = true).unwrap_err();
            assert_eq!(err, m.read_block_into(id, &mut buf).unwrap_err());
            let overflow = matches!(err, MachineError::InternalOverflow { .. });
            assert_eq!(overflow, id == r.block(0), "{backend}: {err:?}");
            assert!(!called, "{backend}: f called on error");
            assert_eq!((m.cost(), m.internal_used()), (cost, used), "{backend}");
        }
    }

    #[test]
    fn borrowed_reads_match_copying_reads_on_every_backend() {
        for backend in Backend::ALL {
            let (_, events) = traced(backend, |m| borrowed_matches_copied(m, backend));
            // After the setup writes: one event per successful read.
            let events: Vec<&IoEvent> = events.iter().filter(|e| !e.is_write()).collect();
            assert_eq!(events.len(), 6, "{backend}: one event per read");
            for pair in events.chunks(2) {
                assert_eq!(pair[0], pair[1], "{backend}: trace event");
            }
        }
    }

    // Read-modify-writes and single-element probes, either fused or spelled
    // out as the reads, writes and discards they stand for. Returns the
    // cost and ledger after each step, the probed elements and the stored
    // blocks, read back the same way on both paths.
    type Steps = (Vec<(Cost, usize)>, Vec<u32>, Vec<u32>);

    fn updates_and_probes(m: &mut dyn AemAccess<u32>, fused: bool) -> Steps {
        let r = m.alloc_region(10);
        m.reserve(10).unwrap();
        m.write_run(r.block(0), &(50..60).collect::<Vec<u32>>())
            .unwrap();
        let mut steps = Vec::new();
        for (i, edit) in [(0, true), (1, false), (2, true), (0, true), (2, false)] {
            let mut bump = |blk: &mut [u32]| {
                if edit {
                    blk[blk.len() - 1] += 100;
                }
                edit
            };
            let wrote = if fused {
                m.update_block_with(r.block(i), &mut bump).unwrap()
            } else {
                let mut tmp = Vec::new();
                let len = m.read_block_into(r.block(i), &mut tmp).unwrap();
                if bump(&mut tmp) {
                    m.write_block(r.block(i), tmp).unwrap();
                    true
                } else {
                    m.discard(len).unwrap();
                    false
                }
            };
            assert_eq!(wrote, edit);
            steps.push((m.cost(), m.internal_used()));
        }
        let mut probed = Vec::new();
        for (i, j) in [(0, 3), (2, 1), (1, 0), (0, 3)] {
            let x = if fused {
                m.probe_elem(r.block(i), j).unwrap()
            } else {
                let mut tmp = Vec::new();
                let len = m.read_block_into(r.block(i), &mut tmp).unwrap();
                let x = tmp[j];
                m.discard(len).unwrap();
                x
            };
            probed.push(x);
            steps.push((m.cost(), m.internal_used()));
        }
        let mut stored = Vec::new();
        let total = m.read_run(r.block(0), 3, &mut stored).unwrap();
        m.discard(total).unwrap();
        (steps, probed, stored)
    }

    #[test]
    fn updates_and_probes_match_their_decomposed_sequences_on_every_backend() {
        for backend in Backend::ALL {
            let (spelled, spelled_events) = traced(backend, |m| updates_and_probes(m, false));
            let (fused, events) = traced(backend, |m| updates_and_probes(m, true));
            assert_eq!(fused.0, spelled.0, "{backend}: cost and ledger per step");
            assert_eq!(events, spelled_events, "{backend}: trace events");
            assert_eq!(fused.1, spelled.1, "{backend}: probed elements");
            assert_eq!(fused.2, spelled.2, "{backend}: stored blocks");
            if backend.carries_payload() {
                assert_eq!(fused.1, [253, 159, 54, 253], "{backend}");
                let mut want: Vec<u32> = (50..60).collect();
                want[3] += 200;
                want[9] += 100;
                assert_eq!(fused.2, want, "{backend}");
            } else {
                assert!(fused.1.iter().chain(&fused.2).all(|&x| x == 0));
            }
            // Before the read-back: the setup run's three writes, then
            // nine reads and the three edits' writes.
            let (cost, used) = *fused.0.last().unwrap();
            assert_eq!((cost, used), (Cost::new(9, 3 + 3), 0), "{backend}");
        }
    }

    #[test]
    fn failed_updates_and_probes_change_nothing() {
        for backend in Backend::ALL {
            let (_, events) = traced(backend, |m| {
                let r = m.alloc_region(8);
                m.reserve(8).unwrap();
                m.write_run(r.block(0), &(1..9).collect::<Vec<u32>>())
                    .unwrap();
                // Room for less than a block: the in-range id overflows.
                m.reserve(cfg().memory - 2).unwrap();
                let (cost, used) = (m.cost(), m.internal_used());
                let mut buf = Vec::new();
                for id in [BlockId(99), r.block(0)] {
                    let want = m.read_block_into(id, &mut buf).unwrap_err();
                    let overflow = matches!(want, MachineError::InternalOverflow { .. });
                    assert_eq!(overflow, id == r.block(0), "{backend}: {want:?}");
                    let mut called = false;
                    let err = m
                        .update_block_with(id, &mut |_| {
                            called = true;
                            true
                        })
                        .unwrap_err();
                    assert_eq!(err, want, "{backend}: update");
                    assert!(!called, "{backend}: f called on error");
                    assert_eq!(m.probe_elem(id, 0).unwrap_err(), want, "{backend}");
                    assert_eq!((m.cost(), m.internal_used()), (cost, used), "{backend}");
                }
            });
            assert_eq!(events.len(), 2, "{backend}: only the setup writes");
        }
    }

    #[test]
    #[should_panic]
    fn probing_past_the_occupancy_panics() {
        let mut m: Machine<u32> = Machine::new(cfg());
        let r = m.install(&[1, 2, 3, 4, 5]);
        let _ = m.probe_elem(r.block(1), 1);
    }

    #[test]
    fn failing_bulk_ops_are_atomic() {
        let mut m: Machine<u32> = Machine::new(cfg());
        let r = m.install(&[7; 20]); // 5 blocks of 4 > M = 16
        let mut buf = Vec::new();
        let err = m.read_run(r.block(0), 5, &mut buf).unwrap_err();
        assert!(matches!(err, MachineError::InternalOverflow { .. }));
        assert_eq!(m.cost(), Cost::ZERO);
        assert_eq!(m.internal_used(), 0);
        // A run past the allocated range fails without charging either.
        assert!(m.read_run(r.block(3), 4, &mut buf).is_err());
        assert_eq!(m.cost(), Cost::ZERO);
        m.reserve(8).unwrap();
        let err = m
            .write_run(BlockId(r.first + 4), &(0..8u32).collect::<Vec<u32>>())
            .unwrap_err();
        assert!(matches!(err, MachineError::BadBlock { .. }));
        assert_eq!(m.cost(), Cost::ZERO);
        assert_eq!(m.internal_used(), 8);
    }

    #[test]
    fn empty_write_run_is_free() {
        let mut m: Machine<u32> = Machine::new(cfg());
        let r = m.install(&[1, 2, 3]);
        assert_eq!(m.write_run(r.block(0), &[]).unwrap(), 0);
        assert_eq!(m.cost(), Cost::ZERO);
        assert_eq!(m.block_len(r.block(0)).unwrap(), 3, "target untouched");
    }

    #[test]
    fn ghost_aux_store_carries_real_words() {
        let mut m: GhostMachine<u32> = GhostMachine::new(cfg());
        let ar = m.alloc_aux_region(4);
        m.reserve(3).unwrap();
        m.write_aux_block(ar.block(0), vec![7, 8, 9]).unwrap();
        assert_eq!(m.read_aux_block(ar.block(0)).unwrap(), vec![7, 8, 9]);
        assert_eq!(GhostMachine::<u32>::backend(), Backend::Ghost);
        assert_eq!(Machine::<u32>::backend(), Backend::Vec);
    }

    #[test]
    fn exchange_matches_discard_plus_read() {
        // The fused evict-and-load equals the decomposed pair in cost,
        // ledger and payload.
        let input: Vec<u32> = (0..16).collect();
        let mut fused: Machine<u32> = Machine::new(cfg());
        let fr = fused.install(&input);
        let mut pair: Machine<u32> = Machine::new(cfg());
        let pr = pair.install(&input);
        let (mut fbuf, mut pbuf) = (Vec::new(), Vec::new());
        for i in [0usize, 3, 1, 3] {
            let flen = fused.exchange_block_into(fr.block(i), &mut fbuf).unwrap();
            if !pbuf.is_empty() {
                pair.discard(pbuf.len()).unwrap();
            }
            let plen = pair.read_block_into(pr.block(i), &mut pbuf).unwrap();
            assert_eq!(flen, plen);
            assert_eq!(fbuf, pbuf);
            assert_eq!(fused.cost(), pair.cost());
            assert_eq!(fused.internal_used(), pair.internal_used());
        }
    }

    #[test]
    fn failed_exchange_leaves_the_ledger_untouched() {
        // Unlike the decomposed discard + read (which releases before the
        // read can fail), a BadBlock exchange is atomic: the evicted
        // block's budget stays charged.
        let mut m: Machine<u32> = Machine::new(cfg());
        let r = m.install(&[0; 8]);
        let mut buf = Vec::new();
        m.read_block_into(r.block(0), &mut buf).unwrap();
        let used = m.internal_used();
        let err = m.exchange_block_into(BlockId(99), &mut buf).unwrap_err();
        assert!(matches!(err, MachineError::BadBlock { .. }));
        assert_eq!(m.internal_used(), used);
        assert_eq!(m.cost(), Cost::new(1, 0));
    }

    #[test]
    fn reset_returns_the_machine_to_fresh_state() {
        let mut m: Machine<u32> = Machine::new(cfg());
        let r = m.install(&(0..16u32).collect::<Vec<_>>());
        let d = m.read_block(r.block(0)).unwrap();
        m.write_block(r.block(1), d).unwrap();
        assert_ne!(m.cost(), Cost::ZERO);
        let shared = m.counter();

        m.reset();
        assert_eq!(m.cost(), Cost::ZERO);
        assert_eq!(m.internal_used(), 0);
        assert_eq!(m.allocated_blocks(), 0);
        // Shared counter handles observe the zeroed meter in place.
        assert_eq!(shared.snapshot(), Cost::ZERO);
        // Pre-reset regions are dead until re-allocated.
        assert!(matches!(
            m.read_block(r.block(0)),
            Err(MachineError::BadBlock { .. })
        ));

        // The machine is fully usable again, with identical metering.
        let r2 = m.install(&(0..16u32).collect::<Vec<_>>());
        let d = m.read_block(r2.block(0)).unwrap();
        assert_eq!(d, vec![0, 1, 2, 3]);
        m.write_block(r2.block(1), d).unwrap();
        assert_eq!(m.cost(), Cost::new(1, 1));
    }

    #[test]
    fn reset_recycles_buffers_across_runs() {
        // Steady state: the second run reuses the first run's retired
        // slots, so the store's high-water mark stops growing.
        fn run(m: &mut Machine<u32>) {
            let r = m.install(&(0..16u32).collect::<Vec<_>>());
            let out = m.alloc_region(16);
            for i in 0..4 {
                let d = m.read_block(r.block(i)).unwrap();
                m.write_block(out.block(i), d).unwrap();
            }
        }
        let mut m: Machine<u32> = Machine::new(cfg());
        run(&mut m);
        let high_water = m.allocated_blocks();
        m.reset();
        run(&mut m);
        assert_eq!(m.allocated_blocks(), high_water);
    }
}
