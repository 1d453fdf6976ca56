//! Pluggable block-storage backends for the AEM machine.
//!
//! [`crate::MachineCore`] separates *cost accounting* (the §2 meter, the
//! internal-memory ledger, trace recording) from *payload movement* (what a
//! block read or write physically does). The former is the model; the
//! latter is an implementation detail this trait abstracts over:
//!
//! * [`VecStore`] — today's copying semantics (an alias for
//!   [`ExternalMemory`]): every read clones the block into a fresh `Vec`.
//!   The default, and the reference behavior every other backend is
//!   differentially tested against.
//! * [`ArenaStore`] — identical semantics, but recycled buffers: writes
//!   move the incoming `Vec` into the block slot and push the displaced
//!   buffer onto a free list, reads pop a pooled buffer instead of
//!   allocating. In steady state the read→write cycle of a streaming
//!   algorithm allocates nothing.
//! * [`GhostStore`] — cost-only: tracks each block's *occupancy* but
//!   carries no payload, so sweeps that only need `Q_r`/`Q_w` run at `N`
//!   two orders of magnitude beyond what the copying stores afford. Reads
//!   return `T::default()` placeholders of the correct length; every
//!   error path (`BadBlock`, `BlockOverflow`) fires exactly where
//!   [`VecStore`]'s does.
//!
//! ## Ghost soundness
//!
//! A ghost run reports the true cost of an algorithm iff the algorithm is
//! *data-oblivious in its payload*: no value read from the **data** store
//! may influence which I/Os happen. Structural workloads (scans, naive
//! permutation, tiled transpose) qualify; the §3 merge does **not** — it
//! compares keys read from data blocks to decide which block to load next.
//! Note the asymmetry: [`crate::GhostMachine`] pairs a ghost *data* store
//! with a real [`VecStore`] *aux* store, because auxiliary words are
//! addressing metadata (run pointers, counters) by design and ghosting
//! them would corrupt control flow rather than merely payloads.

use crate::block::{BlockId, Region};
use crate::error::{MachineError, Result};
use crate::external::ExternalMemory;

/// The storage backend a machine runs on — the user-facing selector behind
/// `--backend {vec,arena,ghost,trace}`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Backend {
    /// Copying semantics ([`VecStore`]); the default.
    #[default]
    Vec,
    /// Buffer-recycling semantics ([`ArenaStore`]).
    Arena,
    /// Cost-only semantics ([`GhostStore`]).
    Ghost,
    /// Copying semantics plus schedule recording
    /// ([`crate::TraceMachine`]): a vec-backed run that compiles its I/O
    /// schedule into a [`crate::CompiledTrace`] for arithmetic replay.
    Trace,
}

impl Backend {
    /// All backends, in canonical order.
    pub const ALL: [Backend; 4] = [Backend::Vec, Backend::Arena, Backend::Ghost, Backend::Trace];

    /// The stable lowercase name used in CLI flags and cache keys.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Vec => "vec",
            Backend::Arena => "arena",
            Backend::Ghost => "ghost",
            Backend::Trace => "trace",
        }
    }

    /// Parse a CLI flag value.
    pub fn from_name(name: &str) -> std::result::Result<Self, String> {
        match name {
            "vec" => Ok(Backend::Vec),
            "arena" => Ok(Backend::Arena),
            "ghost" => Ok(Backend::Ghost),
            "trace" => Ok(Backend::Trace),
            other => Err(format!(
                "unknown backend '{other}' (expected vec, arena, ghost or trace)"
            )),
        }
    }

    /// `true` for backends whose reads return the actual stored payload
    /// (vec, arena, trace) rather than placeholders (ghost).
    /// Output-equality assertions must be gated on this.
    pub fn carries_payload(self) -> bool {
        !matches!(self, Backend::Ghost)
    }
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// What a block store must provide for [`crate::MachineCore`] to meter it.
///
/// The store enforces *addressing* invariants (block existence, `≤ B`
/// occupancy); the machine layers the cost meter and the internal-memory
/// ledger on top. All backends must agree exactly on which operations fail
/// and with which [`MachineError`] variant — that contract is what makes
/// backend-differential testing (and ghost cost-equality) meaningful.
pub trait BlockStore<T> {
    /// Which backend this store implements.
    const BACKEND: Backend;

    /// An empty store with the given block size `B ≥ 1`.
    fn new_store(block_size: usize) -> Self
    where
        Self: Sized;

    /// Block size `B`.
    fn block_size(&self) -> usize;

    /// Number of blocks allocated so far.
    fn allocated(&self) -> usize;

    /// Allocate one fresh (empty) block — free of I/O cost.
    fn alloc(&mut self) -> BlockId;

    /// Allocate consecutive fresh blocks able to hold `elems` elements.
    fn alloc_region(&mut self, elems: usize) -> Region;

    /// Occupancy (stored element count) of a block, or `BadBlock`.
    fn occupancy(&self, id: BlockId) -> Result<usize>;

    /// Read a block's contents into a fresh `Vec`.
    fn read(&mut self, id: BlockId) -> Result<Vec<T>>;

    /// Read a block's contents into `buf` (cleared first), returning the
    /// occupancy. The buffer-reuse counterpart of [`BlockStore::read`].
    fn read_into(&mut self, id: BlockId, buf: &mut Vec<T>) -> Result<usize>;

    /// Overwrite a block. Enforces `data.len() ≤ B` and block existence.
    fn write(&mut self, id: BlockId, data: Vec<T>) -> Result<()>;

    /// Retire every allocated block, recycling buffers where the backend
    /// supports it: after a wipe the store is observably empty
    /// (`allocated() == 0`, every old id is `BadBlock`) but subsequent
    /// allocations reuse retired capacity instead of touching the
    /// allocator. The storage half of [`crate::MachineCore::reset`].
    fn wipe(&mut self);

    /// Install an array into freshly allocated blocks (problem setup,
    /// outside the metered computation).
    fn install(&mut self, data: &[T]) -> Region;

    /// Read an entire region back out, free of charge (result inspection).
    fn inspect(&self, region: Region) -> Vec<T>;

    /// Read one block, free of charge (result inspection).
    fn inspect_block(&self, id: BlockId) -> Result<Vec<T>>;

    /// Total elements currently resident across all blocks.
    fn resident_elems(&self) -> usize;

    /// Bulk read: the `count` consecutive blocks starting at `first`, their
    /// payloads appended in block order into `buf` (cleared first). Returns
    /// the total element count. Payload- and occupancy-equivalent to
    /// `count` successive [`BlockStore::read_into`] calls; backends
    /// override the default loop with a single bounds check and
    /// `copy_from_slice`-style movement (see `docs/COST_MODEL.md` for the
    /// contract bulk ops must preserve). On error, nothing is moved.
    fn read_run(&mut self, first: BlockId, count: usize, buf: &mut Vec<T>) -> Result<usize> {
        buf.clear();
        let mut tmp = Vec::new();
        let mut total = 0;
        for i in 0..count {
            total += self.read_into(BlockId(first.index() + i), &mut tmp)?;
            buf.append(&mut tmp);
        }
        Ok(total)
    }

    /// Bulk write: `data` split across the consecutive blocks starting at
    /// `first` in chunks of exactly `B` (the final block may be partial).
    /// Returns the number of blocks written, `⌈data.len()/B⌉` — zero for
    /// empty `data`, which touches no block. Occupancy-equivalent to the
    /// per-block [`BlockStore::write`] loop over the same chunks; `≤ B`
    /// per-block occupancy holds by construction. On error, nothing is
    /// moved.
    fn write_run(&mut self, first: BlockId, data: &[T]) -> Result<usize>
    where
        T: Clone,
    {
        // Validate the whole run up front so the bulk op is atomic (the
        // per-block loop could stop half-way through).
        let blocks = data.len().div_ceil(self.block_size());
        for i in 0..blocks {
            self.occupancy(BlockId(first.index() + i))?;
        }
        for (i, chunk) in data.chunks(self.block_size()).enumerate() {
            self.write(BlockId(first.index() + i), chunk.to_vec())?;
        }
        Ok(blocks)
    }

    /// Occupancy sum of the `count` consecutive blocks starting at
    /// `first` — the single validation-and-ledger sweep bulk reads charge
    /// from. Error-equivalent to `count` successive
    /// [`BlockStore::occupancy`] calls; backends override the loop with
    /// one bounds check and a slice sum.
    fn run_occupancy(&self, first: BlockId, count: usize) -> Result<usize> {
        let mut total = 0;
        for i in 0..count {
            total += self.occupancy(BlockId(first.index() + i))?;
        }
        Ok(total)
    }

    /// Fused metered read: validate `id`, gate its occupancy through
    /// `charge` (the machine's ledger update — if it errors, no payload
    /// moves), then copy the payload into `buf`. Behaviorally identical
    /// to [`BlockStore::occupancy`] + `charge` + [`BlockStore::read_into`];
    /// backends override the pair of lookups with a single one — this is
    /// the hot path of gather-heavy kernels (one call per block reload).
    fn read_into_charged<F>(&mut self, id: BlockId, buf: &mut Vec<T>, charge: F) -> Result<usize>
    where
        F: FnOnce(usize) -> Result<()>,
        Self: Sized,
    {
        let len = self.occupancy(id)?;
        charge(len)?;
        self.read_into(id, buf)
    }

    /// Fused metered borrow: validate `id`, gate its occupancy through
    /// `charge` exactly as [`BlockStore::read_into_charged`] does, then
    /// lend the stored payload to `f` instead of copying it. `f` is never
    /// called when validation or `charge` fails. Ghost stores lend
    /// `occupancy` placeholders.
    fn peek_charged<F>(&self, id: BlockId, charge: F, f: &mut dyn FnMut(&[T])) -> Result<usize>
    where
        F: FnOnce(usize) -> Result<()>,
        Self: Sized;

    /// Fused metered read-modify-write: validate `id` and gate its
    /// occupancy through `charge` as [`BlockStore::peek_charged`] does,
    /// then lend the stored payload to `f` mutably. Returns the occupancy
    /// and `f`'s verdict; the block keeps whatever `f` left in it. `f` is
    /// never called when validation or `charge` fails. Ghost stores lend
    /// `occupancy` placeholders and keep nothing.
    fn update_charged<F>(
        &mut self,
        id: BlockId,
        charge: F,
        f: &mut dyn FnMut(&mut [T]) -> bool,
    ) -> Result<(usize, bool)>
    where
        F: FnOnce(usize) -> Result<()>,
        Self: Sized;

    /// Fused metered probe: validate `id` and gate its occupancy through
    /// `charge` as [`BlockStore::peek_charged`] does, then clone element
    /// `i` of the stored payload (a placeholder on ghost stores). Returns
    /// the occupancy and the element; panics when `i` is not below the
    /// occupancy.
    fn probe_charged<F>(&self, id: BlockId, i: usize, charge: F) -> Result<(usize, T)>
    where
        F: FnOnce(usize) -> Result<()>,
        Self: Sized;
}

/// The default copying backend: an alias for [`ExternalMemory`].
pub type VecStore<T> = ExternalMemory<T>;

impl<T: Clone> BlockStore<T> for ExternalMemory<T> {
    const BACKEND: Backend = Backend::Vec;

    fn new_store(block_size: usize) -> Self {
        ExternalMemory::new(block_size)
    }
    fn block_size(&self) -> usize {
        ExternalMemory::block_size(self)
    }
    fn allocated(&self) -> usize {
        ExternalMemory::allocated(self)
    }
    fn alloc(&mut self) -> BlockId {
        ExternalMemory::alloc(self)
    }
    fn alloc_region(&mut self, elems: usize) -> Region {
        ExternalMemory::alloc_region(self, elems)
    }
    fn occupancy(&self, id: BlockId) -> Result<usize> {
        Ok(self.get(id)?.len())
    }
    fn read(&mut self, id: BlockId) -> Result<Vec<T>> {
        Ok(self.get(id)?.to_vec())
    }
    fn read_into(&mut self, id: BlockId, buf: &mut Vec<T>) -> Result<usize> {
        let block = self.get(id)?;
        buf.clear();
        buf.extend_from_slice(block.as_slice());
        Ok(buf.len())
    }
    fn write(&mut self, id: BlockId, data: Vec<T>) -> Result<()> {
        self.put(id, data)
    }
    fn wipe(&mut self) {
        ExternalMemory::wipe(self)
    }
    fn install(&mut self, data: &[T]) -> Region {
        ExternalMemory::install(self, data)
    }
    fn inspect(&self, region: Region) -> Vec<T> {
        ExternalMemory::inspect(self, region)
    }
    fn inspect_block(&self, id: BlockId) -> Result<Vec<T>> {
        Ok(self.get(id)?.to_vec())
    }
    fn resident_elems(&self) -> usize {
        ExternalMemory::resident_elems(self)
    }
    fn read_run(&mut self, first: BlockId, count: usize, buf: &mut Vec<T>) -> Result<usize> {
        buf.clear();
        for block in self.run(first, count)? {
            buf.extend_from_slice(block.as_slice());
        }
        Ok(buf.len())
    }
    fn write_run(&mut self, first: BlockId, data: &[T]) -> Result<usize> {
        let blocks = data.len().div_ceil(ExternalMemory::block_size(self));
        check_run(first, blocks, ExternalMemory::allocated(self))?;
        // Bulk writes reuse each slot's buffer (clear + copy) instead of
        // allocating a fresh `Vec` per chunk as the per-block loop does.
        for (i, chunk) in data.chunks(ExternalMemory::block_size(self)).enumerate() {
            self.put_slice(BlockId(first.index() + i), chunk)?;
        }
        Ok(blocks)
    }
    fn run_occupancy(&self, first: BlockId, count: usize) -> Result<usize> {
        Ok(self.run(first, count)?.iter().map(|b| b.len()).sum())
    }
    fn read_into_charged<F>(&mut self, id: BlockId, buf: &mut Vec<T>, charge: F) -> Result<usize>
    where
        F: FnOnce(usize) -> Result<()>,
    {
        let block = self.get(id)?;
        charge(block.len())?;
        buf.clear();
        buf.extend_from_slice(block.as_slice());
        Ok(block.len())
    }
    fn peek_charged<F>(&self, id: BlockId, charge: F, f: &mut dyn FnMut(&[T])) -> Result<usize>
    where
        F: FnOnce(usize) -> Result<()>,
    {
        let block = self.get(id)?;
        charge(block.len())?;
        f(block.as_slice());
        Ok(block.len())
    }
    fn update_charged<F>(
        &mut self,
        id: BlockId,
        charge: F,
        f: &mut dyn FnMut(&mut [T]) -> bool,
    ) -> Result<(usize, bool)>
    where
        F: FnOnce(usize) -> Result<()>,
    {
        let block = self.get_mut(id)?;
        charge(block.len())?;
        Ok((block.len(), f(block.as_mut_slice())))
    }
    fn probe_charged<F>(&self, id: BlockId, i: usize, charge: F) -> Result<(usize, T)>
    where
        F: FnOnce(usize) -> Result<()>,
    {
        let block = self.get(id)?;
        charge(block.len())?;
        Ok((block.len(), block.as_slice()[i].clone()))
    }
}

/// One bounds check for a whole contiguous run: block ids are allocated
/// densely from zero, so the run `first..first+count` exists iff its last
/// id does. The reported offender matches what the per-block loop would
/// hit first.
fn check_run(first: BlockId, count: usize, allocated: usize) -> Result<()> {
    if count > 0 && first.index() + count > allocated {
        return Err(MachineError::BadBlock {
            block: first.index().max(allocated),
            allocated,
        });
    }
    Ok(())
}

/// Buffer-recycling backend: same observable semantics as [`VecStore`],
/// zero per-I/O allocation in steady state.
///
/// A write *moves* the caller's `Vec` into the block slot and pushes the
/// displaced buffer (cleared, capacity kept) onto a free list; a read pops
/// a pooled buffer and copies the block into it. Streaming algorithms that
/// alternate reads and writes therefore cycle a fixed set of buffers. The
/// free list holds only buffers whose contents have been dropped — the
/// `arena_freelist_never_aliases_live_blocks` property test audits (by
/// pointer identity) that no pooled buffer is ever also a live block.
#[derive(Debug, Clone)]
pub struct ArenaStore<T> {
    block_size: usize,
    blocks: Vec<Vec<T>>,
    pool: Vec<Vec<T>>,
}

impl<T> ArenaStore<T> {
    fn check(&self, id: BlockId) -> Result<()> {
        if id.index() >= self.blocks.len() {
            Err(MachineError::BadBlock {
                block: id.index(),
                allocated: self.blocks.len(),
            })
        } else {
            Ok(())
        }
    }

    fn pooled_buf(&mut self) -> Vec<T> {
        self.pool.pop().unwrap_or_default()
    }

    /// Buffers currently parked on the free list (test/bench telemetry).
    pub fn free_buffers(&self) -> usize {
        self.pool.len()
    }

    /// Pointer-identity audit access: the backing buffer of every live
    /// block, for the no-aliasing property test.
    pub fn block_ptrs(&self) -> Vec<*const T> {
        self.blocks.iter().map(|b| b.as_ptr()).collect()
    }

    /// Pointer-identity audit access: every pooled (free) buffer.
    pub fn pool_ptrs(&self) -> Vec<*const T> {
        self.pool.iter().map(|b| b.as_ptr()).collect()
    }

    /// Capacities of pooled buffers, aligned with [`ArenaStore::pool_ptrs`]
    /// (capacity-0 buffers share the dangling pointer and must be exempt
    /// from identity checks).
    pub fn pool_capacities(&self) -> Vec<usize> {
        self.pool.iter().map(|b| b.capacity()).collect()
    }

    /// Capacities of live block buffers, aligned with
    /// [`ArenaStore::block_ptrs`].
    pub fn block_capacities(&self) -> Vec<usize> {
        self.blocks.iter().map(|b| b.capacity()).collect()
    }
}

impl<T: Clone> BlockStore<T> for ArenaStore<T> {
    const BACKEND: Backend = Backend::Arena;

    fn new_store(block_size: usize) -> Self {
        assert!(block_size >= 1, "block size must be at least 1");
        ArenaStore {
            block_size,
            blocks: Vec::new(),
            pool: Vec::new(),
        }
    }
    fn block_size(&self) -> usize {
        self.block_size
    }
    fn allocated(&self) -> usize {
        self.blocks.len()
    }
    fn alloc(&mut self) -> BlockId {
        let buf = self.pooled_buf();
        self.blocks.push(buf);
        BlockId(self.blocks.len() - 1)
    }
    fn alloc_region(&mut self, elems: usize) -> Region {
        let nblocks = elems.div_ceil(self.block_size);
        let first = self.blocks.len();
        for _ in 0..nblocks {
            let buf = self.pooled_buf();
            self.blocks.push(buf);
        }
        Region {
            first,
            blocks: nblocks,
            elems,
        }
    }
    fn occupancy(&self, id: BlockId) -> Result<usize> {
        self.check(id)?;
        Ok(self.blocks[id.index()].len())
    }
    fn read(&mut self, id: BlockId) -> Result<Vec<T>> {
        self.check(id)?;
        let mut buf = self.pooled_buf();
        buf.extend_from_slice(&self.blocks[id.index()]);
        Ok(buf)
    }
    fn read_into(&mut self, id: BlockId, buf: &mut Vec<T>) -> Result<usize> {
        self.check(id)?;
        buf.clear();
        buf.extend_from_slice(&self.blocks[id.index()]);
        Ok(buf.len())
    }
    fn write(&mut self, id: BlockId, data: Vec<T>) -> Result<()> {
        if data.len() > self.block_size {
            return Err(MachineError::BlockOverflow {
                len: data.len(),
                block: self.block_size,
            });
        }
        self.check(id)?;
        let mut old = std::mem::replace(&mut self.blocks[id.index()], data);
        old.clear();
        self.pool.push(old);
        Ok(())
    }
    fn wipe(&mut self) {
        // Every live buffer goes back on the free list cleared, preserving
        // the no-aliasing invariant the property test audits.
        for mut buf in self.blocks.drain(..) {
            buf.clear();
            self.pool.push(buf);
        }
    }
    fn install(&mut self, data: &[T]) -> Region {
        let region = self.alloc_region(data.len());
        for (i, chunk) in data.chunks(self.block_size).enumerate() {
            let slot = &mut self.blocks[region.first + i];
            slot.clear();
            slot.extend_from_slice(chunk);
        }
        region
    }
    fn inspect(&self, region: Region) -> Vec<T> {
        let mut out = Vec::with_capacity(region.elems);
        for id in region.iter() {
            out.extend_from_slice(&self.blocks[id.index()]);
        }
        out
    }
    fn inspect_block(&self, id: BlockId) -> Result<Vec<T>> {
        self.check(id)?;
        Ok(self.blocks[id.index()].clone())
    }
    fn resident_elems(&self) -> usize {
        self.blocks.iter().map(|b| b.len()).sum()
    }
    fn read_run(&mut self, first: BlockId, count: usize, buf: &mut Vec<T>) -> Result<usize> {
        check_run(first, count, self.blocks.len())?;
        buf.clear();
        for block in &self.blocks[first.index()..first.index() + count] {
            buf.extend_from_slice(block);
        }
        Ok(buf.len())
    }
    fn write_run(&mut self, first: BlockId, data: &[T]) -> Result<usize> {
        let blocks = data.len().div_ceil(self.block_size);
        check_run(first, blocks, self.blocks.len())?;
        // Bulk writes reuse each slot's buffer in place (clear + copy):
        // same observable payload and occupancy as the per-block write
        // loop, without cycling buffers through the free list.
        for (i, chunk) in data.chunks(self.block_size).enumerate() {
            let slot = &mut self.blocks[first.index() + i];
            slot.clear();
            slot.extend_from_slice(chunk);
        }
        Ok(blocks)
    }
    fn run_occupancy(&self, first: BlockId, count: usize) -> Result<usize> {
        check_run(first, count, self.blocks.len())?;
        Ok(self.blocks[first.index()..first.index() + count]
            .iter()
            .map(|b| b.len())
            .sum())
    }
    fn read_into_charged<F>(&mut self, id: BlockId, buf: &mut Vec<T>, charge: F) -> Result<usize>
    where
        F: FnOnce(usize) -> Result<()>,
    {
        self.check(id)?;
        let block = &self.blocks[id.index()];
        charge(block.len())?;
        buf.clear();
        buf.extend_from_slice(block);
        Ok(block.len())
    }
    fn peek_charged<F>(&self, id: BlockId, charge: F, f: &mut dyn FnMut(&[T])) -> Result<usize>
    where
        F: FnOnce(usize) -> Result<()>,
    {
        self.check(id)?;
        let block = &self.blocks[id.index()];
        charge(block.len())?;
        f(block);
        Ok(block.len())
    }
    fn update_charged<F>(
        &mut self,
        id: BlockId,
        charge: F,
        f: &mut dyn FnMut(&mut [T]) -> bool,
    ) -> Result<(usize, bool)>
    where
        F: FnOnce(usize) -> Result<()>,
    {
        self.check(id)?;
        let block = &mut self.blocks[id.index()];
        charge(block.len())?;
        Ok((block.len(), f(block)))
    }
    fn probe_charged<F>(&self, id: BlockId, i: usize, charge: F) -> Result<(usize, T)>
    where
        F: FnOnce(usize) -> Result<()>,
    {
        self.check(id)?;
        let block = &self.blocks[id.index()];
        charge(block.len())?;
        Ok((block.len(), block[i].clone()))
    }
}

/// Cost-only backend: per-block occupancy, no payload.
///
/// Reads return `vec![T::default(); occupancy]` so element *counts* (and
/// therefore every internal-budget charge, every capacity error, every
/// `Q_r`/`Q_w` increment) match [`VecStore`] exactly; the *values* are
/// placeholders. Borrowed reads, probes and in-place updates lend a prefix
/// of one block of placeholders the store allocates once. Sound only for
/// payload-oblivious workloads — see the module docs.
#[derive(Debug, Clone)]
pub struct GhostStore<T> {
    block_size: usize,
    lens: Vec<usize>,
    zeros: Vec<T>,
}

impl<T> GhostStore<T> {
    fn check(&self, id: BlockId) -> Result<()> {
        if id.index() >= self.lens.len() {
            Err(MachineError::BadBlock {
                block: id.index(),
                allocated: self.lens.len(),
            })
        } else {
            Ok(())
        }
    }
}

impl<T: Clone + Default> BlockStore<T> for GhostStore<T> {
    const BACKEND: Backend = Backend::Ghost;

    fn new_store(block_size: usize) -> Self {
        assert!(block_size >= 1, "block size must be at least 1");
        GhostStore {
            block_size,
            lens: Vec::new(),
            zeros: vec![T::default(); block_size],
        }
    }
    fn block_size(&self) -> usize {
        self.block_size
    }
    fn allocated(&self) -> usize {
        self.lens.len()
    }
    fn alloc(&mut self) -> BlockId {
        self.lens.push(0);
        BlockId(self.lens.len() - 1)
    }
    fn alloc_region(&mut self, elems: usize) -> Region {
        let nblocks = elems.div_ceil(self.block_size);
        let first = self.lens.len();
        self.lens.extend(std::iter::repeat(0).take(nblocks));
        Region {
            first,
            blocks: nblocks,
            elems,
        }
    }
    fn occupancy(&self, id: BlockId) -> Result<usize> {
        self.check(id)?;
        Ok(self.lens[id.index()])
    }
    fn read(&mut self, id: BlockId) -> Result<Vec<T>> {
        self.check(id)?;
        Ok(vec![T::default(); self.lens[id.index()]])
    }
    fn read_into(&mut self, id: BlockId, buf: &mut Vec<T>) -> Result<usize> {
        self.check(id)?;
        let len = self.lens[id.index()];
        buf.clear();
        buf.resize(len, T::default());
        Ok(len)
    }
    fn write(&mut self, id: BlockId, data: Vec<T>) -> Result<()> {
        if data.len() > self.block_size {
            return Err(MachineError::BlockOverflow {
                len: data.len(),
                block: self.block_size,
            });
        }
        self.check(id)?;
        self.lens[id.index()] = data.len();
        Ok(())
    }
    fn wipe(&mut self) {
        self.lens.clear();
    }
    fn install(&mut self, data: &[T]) -> Region {
        let region = self.alloc_region(data.len());
        let mut remaining = data.len();
        for i in 0..region.blocks {
            let here = remaining.min(self.block_size);
            self.lens[region.first + i] = here;
            remaining -= here;
        }
        region
    }
    fn inspect(&self, region: Region) -> Vec<T> {
        let total: usize = region.iter().map(|id| self.lens[id.index()]).sum();
        vec![T::default(); total]
    }
    fn inspect_block(&self, id: BlockId) -> Result<Vec<T>> {
        self.check(id)?;
        Ok(vec![T::default(); self.lens[id.index()]])
    }
    fn resident_elems(&self) -> usize {
        self.lens.iter().sum()
    }
    fn read_run(&mut self, first: BlockId, count: usize, buf: &mut Vec<T>) -> Result<usize> {
        check_run(first, count, self.lens.len())?;
        let total: usize = (0..count).map(|i| self.lens[first.index() + i]).sum();
        buf.clear();
        buf.resize(total, T::default());
        Ok(total)
    }
    fn write_run(&mut self, first: BlockId, data: &[T]) -> Result<usize> {
        let blocks = data.len().div_ceil(self.block_size);
        check_run(first, blocks, self.lens.len())?;
        for (i, chunk) in data.chunks(self.block_size).enumerate() {
            self.lens[first.index() + i] = chunk.len();
        }
        Ok(blocks)
    }
    fn run_occupancy(&self, first: BlockId, count: usize) -> Result<usize> {
        check_run(first, count, self.lens.len())?;
        Ok(self.lens[first.index()..first.index() + count].iter().sum())
    }
    fn read_into_charged<F>(&mut self, id: BlockId, buf: &mut Vec<T>, charge: F) -> Result<usize>
    where
        F: FnOnce(usize) -> Result<()>,
    {
        self.check(id)?;
        let len = self.lens[id.index()];
        charge(len)?;
        buf.clear();
        buf.resize(len, T::default());
        Ok(len)
    }
    fn peek_charged<F>(&self, id: BlockId, charge: F, f: &mut dyn FnMut(&[T])) -> Result<usize>
    where
        F: FnOnce(usize) -> Result<()>,
    {
        self.check(id)?;
        let len = self.lens[id.index()];
        charge(len)?;
        f(&self.zeros[..len]);
        Ok(len)
    }
    fn update_charged<F>(
        &mut self,
        id: BlockId,
        charge: F,
        f: &mut dyn FnMut(&mut [T]) -> bool,
    ) -> Result<(usize, bool)>
    where
        F: FnOnce(usize) -> Result<()>,
    {
        self.check(id)?;
        let len = self.lens[id.index()];
        charge(len)?;
        // `f` may scribble on the placeholders it borrows; reset them so
        // the next loan sees defaults again.
        let lent = &mut self.zeros[..len];
        let wrote = f(lent);
        lent.fill(T::default());
        Ok((len, wrote))
    }
    fn probe_charged<F>(&self, id: BlockId, i: usize, charge: F) -> Result<(usize, T)>
    where
        F: FnOnce(usize) -> Result<()>,
    {
        self.check(id)?;
        let len = self.lens[id.index()];
        charge(len)?;
        Ok((len, self.zeros[..len][i].clone()))
    }
}

/// Run `$body` with `$M` bound to the concrete machine type for `$backend`
/// over element type `$t` — the three-way monomorphizing dispatch used by
/// benches, fuzz targets and sweep cells.
///
/// ```
/// use aem_machine::{AemAccess, AemConfig, Backend};
///
/// let cfg = AemConfig::new(64, 8, 16).unwrap();
/// let cost = aem_machine::with_backend_machine!(Backend::Ghost, u64, |M| {
///     let mut m = M::new(cfg);
///     let r = m.install(&vec![0u64; 32]);
///     let b = m.read_block(r.block(0)).unwrap();
///     m.write_block(r.block(1), b).unwrap();
///     m.cost()
/// });
/// assert_eq!((cost.reads, cost.writes), (1, 1));
/// ```
#[macro_export]
macro_rules! with_backend_machine {
    ($backend:expr, $t:ty, |$M:ident| $body:expr) => {
        match $backend {
            $crate::Backend::Vec => {
                #[allow(non_camel_case_types)]
                type $M = $crate::Machine<$t>;
                $body
            }
            $crate::Backend::Arena => {
                #[allow(non_camel_case_types)]
                type $M = $crate::ArenaMachine<$t>;
                $body
            }
            $crate::Backend::Ghost => {
                #[allow(non_camel_case_types)]
                type $M = $crate::GhostMachine<$t>;
                $body
            }
            $crate::Backend::Trace => {
                #[allow(non_camel_case_types)]
                type $M = $crate::TraceMachine<$t>;
                $body
            }
        }
    };
}

/// Like [`with_backend_machine!`] but only for the payload-carrying
/// backends (vec, arena, trace); the ghost arm evaluates `$ghost` instead.
/// Use when the element type has no `Default` or the workload is not
/// payload-oblivious.
#[macro_export]
macro_rules! with_payload_machine {
    ($backend:expr, $t:ty, |$M:ident| $body:expr, ghost => $ghost:expr) => {
        match $backend {
            $crate::Backend::Vec => {
                #[allow(non_camel_case_types)]
                type $M = $crate::Machine<$t>;
                $body
            }
            $crate::Backend::Arena => {
                #[allow(non_camel_case_types)]
                type $M = $crate::ArenaMachine<$t>;
                $body
            }
            $crate::Backend::Ghost => $ghost,
            $crate::Backend::Trace => {
                #[allow(non_camel_case_types)]
                type $M = $crate::TraceMachine<$t>;
                $body
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drive<S: BlockStore<u32>>() -> (Vec<u32>, usize, Vec<MachineError>) {
        let mut s = S::new_store(4);
        let r = s.install(&[1, 2, 3, 4, 5, 6]);
        let errs = vec![
            s.occupancy(BlockId(99)).unwrap_err(),
            s.write(r.block(0), vec![0; 5]).unwrap_err(),
            s.read(BlockId(7)).unwrap_err(),
        ];
        let b0 = s.read(r.block(0)).unwrap();
        let extra = s.alloc();
        s.write(extra, b0).unwrap();
        let mut buf = Vec::new();
        let len = s.read_into(r.block(1), &mut buf).unwrap();
        assert_eq!(len, buf.len());
        s.write(r.block(1), buf).unwrap();
        (s.inspect(r), s.resident_elems(), errs)
    }

    #[test]
    fn vec_and_arena_agree_on_contents() {
        let (vec_out, vec_res, vec_errs) = drive::<VecStore<u32>>();
        let (arena_out, arena_res, arena_errs) = drive::<ArenaStore<u32>>();
        assert_eq!(vec_out, arena_out);
        assert_eq!(vec_res, arena_res);
        assert_eq!(vec_errs, arena_errs);
    }

    #[test]
    fn ghost_agrees_on_shape_and_errors() {
        let (vec_out, vec_res, vec_errs) = drive::<VecStore<u32>>();
        let (ghost_out, ghost_res, ghost_errs) = drive::<GhostStore<u32>>();
        assert_eq!(vec_out.len(), ghost_out.len());
        assert_eq!(vec_res, ghost_res);
        assert_eq!(vec_errs, ghost_errs);
    }

    #[test]
    fn arena_write_recycles_the_displaced_buffer() {
        let mut s: ArenaStore<u32> = BlockStore::new_store(4);
        let r = s.install(&[1, 2, 3, 4]);
        assert_eq!(s.free_buffers(), 0);
        let buf = BlockStore::read(&mut s, r.block(0)).unwrap();
        s.write(r.block(0), buf).unwrap();
        // The displaced original buffer is now pooled, cleared.
        assert_eq!(s.free_buffers(), 1);
        let next = BlockStore::read(&mut s, r.block(0)).unwrap();
        assert_eq!(next, vec![1, 2, 3, 4]);
        assert_eq!(s.free_buffers(), 0);
    }

    #[test]
    fn backend_names_round_trip() {
        for b in Backend::ALL {
            assert_eq!(Backend::from_name(b.name()), Ok(b));
        }
        assert!(Backend::from_name("slab").is_err());
        assert!(Backend::Vec.carries_payload());
        assert!(Backend::Arena.carries_payload());
        assert!(!Backend::Ghost.carries_payload());
        assert!(Backend::Trace.carries_payload());
    }

    /// Bulk ops vs the per-block loop, on every store: same payload (by
    /// occupancy on ghost), same occupancies, same bad-run error.
    fn drive_bulk<S: BlockStore<u32>>() -> (Vec<u32>, Vec<usize>, MachineError) {
        let mut s = S::new_store(4);
        let r = s.install(&[0u32; 11]);
        let data: Vec<u32> = (10..21).collect();
        let blocks = s.write_run(r.block(0), &data).unwrap();
        assert_eq!(blocks, 3);
        assert_eq!(s.write_run(r.block(1), &[]).unwrap(), 0);
        let mut buf = vec![99u32];
        let total = s.read_run(r.block(0), 3, &mut buf).unwrap();
        assert_eq!(total, 11);
        assert_eq!(buf.len(), 11);
        let err = s.read_run(r.block(1), 3, &mut buf).unwrap_err();
        let occ: Vec<usize> = r.iter().map(|id| s.occupancy(id).unwrap()).collect();
        (s.inspect(r), occ, err)
    }

    #[test]
    fn bulk_runs_match_per_block_loops_across_stores() {
        let (vec_out, vec_occ, vec_err) = drive_bulk::<VecStore<u32>>();
        let (arena_out, arena_occ, arena_err) = drive_bulk::<ArenaStore<u32>>();
        let (ghost_out, ghost_occ, ghost_err) = drive_bulk::<GhostStore<u32>>();
        assert_eq!(vec_out, (10..21).collect::<Vec<u32>>());
        assert_eq!(vec_out, arena_out);
        assert_eq!(vec_out.len(), ghost_out.len());
        assert_eq!(vec_occ, vec![4, 4, 3]);
        assert_eq!(vec_occ, arena_occ);
        assert_eq!(vec_occ, ghost_occ);
        // The run 1..4 exceeds the 3 allocated blocks; the offender the
        // per-block loop would hit first is block 3.
        for err in [vec_err, arena_err, ghost_err] {
            assert_eq!(
                err,
                MachineError::BadBlock {
                    block: 3,
                    allocated: 3
                }
            );
        }
    }

    /// Wipe on every store: observably empty afterwards, old ids dead,
    /// re-allocation works from a clean slate.
    fn drive_wipe<S: BlockStore<u32>>() {
        let mut s = S::new_store(4);
        let r = s.install(&[1, 2, 3, 4, 5]);
        s.wipe();
        assert_eq!(s.allocated(), 0);
        assert_eq!(s.resident_elems(), 0);
        assert!(s.occupancy(r.block(0)).is_err());
        let r2 = s.install(&[7, 8]);
        assert_eq!(r2.first, 0);
        assert_eq!(s.occupancy(r2.block(0)).unwrap(), 2);
    }

    #[test]
    fn wipe_empties_every_store() {
        drive_wipe::<VecStore<u32>>();
        drive_wipe::<ArenaStore<u32>>();
        drive_wipe::<GhostStore<u32>>();
    }

    #[test]
    fn arena_wipe_pools_the_retired_buffers() {
        let mut s: ArenaStore<u32> = BlockStore::new_store(4);
        s.install(&[1, 2, 3, 4, 5, 6, 7, 8]);
        s.wipe();
        assert_eq!(s.free_buffers(), 2, "both live buffers retired cleared");
        s.install(&[9; 8]);
        assert_eq!(s.free_buffers(), 0, "re-install drains the pool");
    }

    #[test]
    fn ghost_partial_tail_block_occupancy() {
        let mut s: GhostStore<u32> = BlockStore::new_store(4);
        let r = s.install(&[0; 10]);
        assert_eq!(s.occupancy(r.block(0)).unwrap(), 4);
        assert_eq!(s.occupancy(r.block(2)).unwrap(), 2);
        assert_eq!(s.resident_elems(), 10);
        assert_eq!(BlockStore::<u32>::inspect(&s, r).len(), 10);
    }
}
