//! The multiway-buffered priority queue with external consumption pointers.
//!
//! [`BufferedPq`] batches both directions of the queue:
//!
//! * **Inserts** accumulate in an internal buffer of `M/4` elements and
//!   are flushed as one sorted run (plus the current delete buffer — see
//!   below). A push only appends; the first pop after a run of pushes
//!   heapifies them (or adds them to the heap a previous pop built), so a
//!   pop finds the buffer's minimum without a scan and a stream of pushes
//!   pays no heap order it never reads.
//! * **Deletes** are served from an internal *delete buffer* holding the
//!   `M/4` globally smallest external elements. When it drains, one
//!   **refill round** — structured like a round of the §3.1 merge — scans
//!   every live run and moves the next `M/4` smallest elements in. The
//!   round buffer is the merge's `RunSelector`; a run's scan stops once
//!   the buffer is full and a block's last element lies above the buffer
//!   maximum. As in the merge, each run's members form one ascending
//!   stretch, which gives the run's consumption directly, and the
//!   stretches merge into the delete buffer in one stable sort.
//!
//! The per-run consumption state follows the §3 mergesort discipline
//! exactly:
//!
//! * each run's **block pointer** `b[i]` (first block that may still hold
//!   unconsumed elements) lives in an **external auxiliary array**,
//!   streamed one block at a time during a refill and **rewritten only
//!   when a block of the run was consumed**, so pointer writes stay `O(n)`
//!   overall and nothing per-run-persistent needs to fit in memory;
//! * the mid-block cut is carried by a per-run *boundary* — the largest
//!   `(key, run, position)` tag moved to the delete buffer so far — the
//!   same one-element-per-run slack the §3.1 merge keeps for its runs.
//!
//! Runs are organized in levels: two runs on the same level merge into the
//! next level via [`crate::sort::merge_runs()`] (the §3.1 merge, so every
//! reorganization may fan up to `ωm` ways without assuming `ω < B`), and a
//! global cap of [`PqParams::max_runs`] live runs triggers a compaction of
//! the `fan_in/2` smallest runs — small-first, so no element is re-merged
//! more than a logarithmic number of times.
//!
//! **Flush invariant.** A flush folds the current delete buffer into the
//! new run. This keeps the delete buffer a *prefix of the global external
//! order* at all times — a freshly flushed run can never undercut it — at
//! a cost of `≤ M/4` re-written elements per flush (`O(n/B)` block writes
//! overall), which is what makes interleaved `push`/`pop` correct.
//!
//! Budget contract: as for [`crate::pq::ExternalPq`] — `push` charges one
//! internal slot, `pop` returns the element still charged.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use aem_machine::{AemAccess, AemConfig, MachineError, Region, Result};

use crate::sort::merge::{advance_pointers, pointer_after};
use crate::sort::{merge_runs, RunSelector};

/// Tagged element `(key, run id, position within run)`: a strict total
/// order consistent with the key order, shared with the §3.1 merge.
type Tagged<T> = (T, u32, u64);

/// Sizing of a [`BufferedPq`], derived from the machine configuration.
///
/// Public so that the cost predictor ([`crate::bounds::predict`]) and the
/// experiments can mirror the queue's schedule without re-deriving it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PqParams {
    /// Insert-buffer capacity (block-rounded `M/4`).
    pub insert_cap: usize,
    /// Delete-buffer capacity, also the refill batch size (block-rounded
    /// `M/4`).
    pub delete_cap: usize,
    /// Cap on live external runs; exceeding it triggers a compaction of
    /// the smallest runs. Bounds the per-refill scan work (each live run
    /// is probed every refill), so it tracks `m`, not the merge fan-in.
    pub max_runs: usize,
}

impl PqParams {
    /// Derive the queue sizing for `cfg`. Requires `M ≥ 8B`: two quarters
    /// of memory for the buffers, the rest for refill and merge workspace.
    pub fn for_config(cfg: AemConfig) -> Result<Self> {
        if cfg.memory < 8 * cfg.block {
            return Err(MachineError::InvalidConfig("BufferedPq requires M >= 8B"));
        }
        let cap = ((cfg.memory / 4) / cfg.block).max(1) * cfg.block;
        Ok(Self {
            insert_cap: cap,
            delete_cap: cap,
            max_runs: cfg.m().max(4),
        })
    }
}

/// One live external run: an immutable sorted region, its identity tag,
/// the slot of its external block pointer, and the consumption boundary.
#[derive(Debug)]
struct PqRun<T> {
    region: Region,
    /// Globally unique id, used in element tags.
    id: u32,
    /// Word index of this run's block pointer in the external pointer array.
    slot: usize,
    /// Merge level (flushes create level 0; equal levels merge upward).
    level: u32,
    /// Largest tag consumed from this run — the §3.1 per-run slack element
    /// that makes the mid-block cut exact.
    boundary: Option<Tagged<T>>,
    /// Unconsumed elements left in the run.
    remaining: usize,
}

/// The multiway-buffered external priority queue. Like
/// [`crate::pq::ExternalPq`], the queue is a structure *on* a machine: the
/// machine is passed per operation.
///
/// # Example
///
/// ```
/// use aem_core::pq::BufferedPq;
/// use aem_machine::{AemAccess, AemConfig, Machine};
///
/// let cfg = AemConfig::new(64, 8, 16).unwrap();
/// let mut machine: Machine<u64> = Machine::new(cfg);
/// let mut pq = BufferedPq::new(cfg).unwrap();
///
/// for x in [41u64, 7, 29, 7, 3] {
///     pq.push(&mut machine, x).unwrap();
/// }
/// let mut out = Vec::new();
/// while let Some(x) = pq.pop(&mut machine).unwrap() {
///     out.push(x);
///     machine.discard(1).unwrap(); // the caller releases popped elements
/// }
/// assert_eq!(out, vec![3, 7, 7, 29, 41]);
/// assert_eq!(machine.internal_used(), 0);
/// ```
#[derive(Debug)]
pub struct BufferedPq<T> {
    /// Pushed elements not yet flushed, in push order, until a pop needs
    /// their minimum.
    insert_buf: Vec<T>,
    /// Pushed elements not yet flushed that a pop has ordered: a min-heap.
    insert_heap: BinaryHeap<Reverse<T>>,
    /// Sorted ascending; always a prefix of the global external order.
    delete_buf: VecDeque<T>,
    runs: Vec<PqRun<T>>,
    /// External pointer array (`max_runs + 1` words; the extra slot covers
    /// the transient run that exists while a cascade is in flight).
    ptrs: Option<Region>,
    /// Slot occupancy map (program metadata, like the run regions).
    slots: Vec<bool>,
    params: PqParams,
    next_id: u32,
    len: usize,
}

impl<T: Ord + Clone> BufferedPq<T> {
    /// Create a queue for the given machine configuration (`M ≥ 8B`).
    pub fn new(cfg: AemConfig) -> Result<Self> {
        let params = PqParams::for_config(cfg)?;
        Ok(Self {
            insert_buf: Vec::new(),
            insert_heap: BinaryHeap::new(),
            delete_buf: VecDeque::new(),
            runs: Vec::new(),
            ptrs: None,
            slots: vec![false; params.max_runs + 1],
            params,
            next_id: 0,
            len: 0,
        })
    }

    /// The sizing parameters the queue runs with.
    pub fn params(&self) -> PqParams {
        self.params
    }

    /// Number of elements in the queue.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of live external runs (exposed for tests and experiments).
    pub fn live_runs(&self) -> usize {
        self.runs.len()
    }

    /// Insert an element (charges one internal slot until flushed).
    pub fn push<A: AemAccess<T>>(&mut self, machine: &mut A, x: T) -> Result<()> {
        machine.reserve(1)?;
        self.insert_buf.push(x);
        self.len += 1;
        if self.insert_buf.len() + self.insert_heap.len() >= self.params.insert_cap {
            self.flush(machine)?;
        }
        Ok(())
    }

    /// Remove and return the minimum, or `None` when empty. The returned
    /// element stays charged to the internal budget (see module docs).
    pub fn pop<A: AemAccess<T>>(&mut self, machine: &mut A) -> Result<Option<T>> {
        if self.len == 0 {
            return Ok(None);
        }
        if self.delete_buf.is_empty() && self.external_remaining() > 0 {
            self.refill(machine)?;
        }
        // Order the pushes since the last pop (`extend` heapifies them in
        // one pass when they outnumber the heap).
        self.insert_heap
            .extend(self.insert_buf.drain(..).map(Reverse));
        let take_insert = match (self.insert_heap.peek(), self.delete_buf.front()) {
            (Some(Reverse(im)), Some(dm)) => im <= dm,
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => unreachable!("len > 0 but both buffers empty after refill"),
        };
        let x = if take_insert {
            // Charged at push time; the slot moves to the caller.
            self.insert_heap.pop().expect("non-empty").0
        } else {
            // Charged since its refill round; the slot moves to the caller.
            self.delete_buf.pop_front().expect("non-empty")
        };
        self.len -= 1;
        Ok(Some(x))
    }

    /// Elements living in external runs (not in either internal buffer).
    fn external_remaining(&self) -> usize {
        self.runs.iter().map(|r| r.remaining).sum()
    }

    /// Flush the insert buffer — folded with the delete buffer, preserving
    /// the prefix invariant — into a fresh level-0 run, then restructure.
    fn flush<A: AemAccess<T>>(&mut self, machine: &mut A) -> Result<()> {
        let mut data = std::mem::take(&mut self.insert_buf);
        data.extend(self.insert_heap.drain().map(|Reverse(x)| x));
        data.extend(self.delete_buf.drain(..));
        if data.is_empty() {
            return Ok(());
        }
        // Elements equal under `Ord` are interchangeable in the queue, so
        // their order within the run is free.
        data.sort_unstable();
        let region = machine.alloc_region(data.len());
        // Bulk write of the sorted buffer into the fresh run: identical
        // cost to the former per-block loop, one ledger release.
        machine.write_run(region.block(0), &data)?;
        self.add_run(machine, region, 0)?;
        self.maintain(machine)
    }

    /// Register `region` as a live run at `level`, assigning it a pointer
    /// slot whose external word is reset to zero.
    fn add_run<A: AemAccess<T>>(
        &mut self,
        machine: &mut A,
        region: Region,
        level: u32,
    ) -> Result<()> {
        let b = machine.cfg().block;
        let ptrs = match self.ptrs {
            Some(r) => r,
            None => {
                // First run ever: allocate and zero-initialize the pointer
                // array (the O(⌈k/B⌉) setup writes of §3.1).
                let r = machine.alloc_aux_region(self.slots.len());
                for pb in 0..r.blocks {
                    let words = r.elems_in_block(pb, b);
                    machine.reserve(words)?;
                    machine.write_aux_block(r.block(pb), vec![0u64; words])?;
                }
                self.ptrs = Some(r);
                r
            }
        };
        let slot = self
            .slots
            .iter()
            .position(|used| !used)
            .expect("slot map sized max_runs + 1");
        self.slots[slot] = true;
        // Reset the slot's external word (read–modify–write one aux block).
        let pb = slot / b;
        let mut words = machine.read_aux_block(ptrs.block(pb))?;
        words[slot % b] = 0;
        machine.write_aux_block(ptrs.block(pb), words)?;
        self.runs.push(PqRun {
            region,
            id: self.next_id,
            slot,
            level,
            boundary: None,
            remaining: region.elems,
        });
        self.next_id += 1;
        Ok(())
    }

    /// Restructure after a flush: equal-level runs merge upward (lowest
    /// duplicated level first, smallest runs first — a deterministic rule
    /// the cost predictor replays); if the live-run cap is then still
    /// exceeded, compact the `fan_in/2` *smallest* runs. Merging small
    /// runs keeps each element's merge count logarithmic — compacting
    /// everything would re-merge the big top run over and over.
    fn maintain<A: AemAccess<T>>(&mut self, machine: &mut A) -> Result<()> {
        loop {
            let lvl = self
                .runs
                .iter()
                .map(|r| r.level)
                .filter(|&l| self.runs.iter().filter(|r| r.level == l).count() >= 2)
                .min();
            let Some(l) = lvl else { break };
            let mut idx: Vec<usize> = (0..self.runs.len())
                .filter(|&i| self.runs[i].level == l)
                .collect();
            idx.sort_by_key(|&i| self.runs[i].remaining);
            idx.truncate(2);
            self.merge_into(machine, idx, l + 1)?;
        }
        while self.runs.len() > self.params.max_runs {
            // ≤ 2 regions per run keeps the compaction within the §3.1
            // merge's ωm fan-in; fan_in ≥ m ≥ 8 whenever M ≥ 8B.
            let k = (machine.cfg().fan_in() / 2).max(2).min(self.runs.len());
            let mut idx: Vec<usize> = (0..self.runs.len()).collect();
            idx.sort_by_key(|&i| (self.runs[i].remaining, self.runs[i].level));
            idx.truncate(k);
            let top = idx.iter().map(|&i| self.runs[i].level).max().unwrap_or(0) + 1;
            self.merge_into(machine, idx, top)?;
        }
        Ok(())
    }

    /// Merge the runs at `indices` (live suffixes only) into one new run
    /// at `level`, via the §3.1 merge.
    fn merge_into<A: AemAccess<T>>(
        &mut self,
        machine: &mut A,
        mut indices: Vec<usize>,
        level: u32,
    ) -> Result<()> {
        indices.sort_unstable_by(|a, b| b.cmp(a));
        let mut regions: Vec<Region> = Vec::new();
        for i in indices {
            let run = self.runs.swap_remove(i);
            regions.extend(self.live_regions(machine, run)?);
        }
        regions.retain(|r| r.elems > 0);
        let merged = match regions.len() {
            0 => return Ok(()),
            1 => regions[0],
            _ => merge_runs(machine, &regions)?.0,
        };
        self.add_run(machine, merged, level)
    }

    /// Extract the live suffix of a dying run as mergeable regions: the
    /// partially consumed block's unconsumed remainder becomes a stub run,
    /// the untouched tail aliases the original region. Frees the slot.
    fn live_regions<A: AemAccess<T>>(
        &mut self,
        machine: &mut A,
        run: PqRun<T>,
    ) -> Result<Vec<Region>> {
        let b = machine.cfg().block;
        let ptrs = self.ptrs.expect("live run implies pointer array");
        let p = {
            let words = machine.read_aux_block(ptrs.block(run.slot / b))?;
            let p = words[run.slot % b] as usize;
            machine.discard(words.len())?;
            p
        };
        self.slots[run.slot] = false;
        if run.remaining == 0 {
            return Ok(Vec::new());
        }
        let mut out = Vec::with_capacity(2);
        let mut suffix_from = p;
        if p < run.region.blocks {
            let data = machine.read_block(run.region.block(p))?;
            let len = data.len();
            let keep: Vec<T> = data
                .into_iter()
                .enumerate()
                .filter(|(off, x)| {
                    let tag = (x.clone(), run.id, (p * b + off) as u64);
                    run.boundary.as_ref().map(|bd| tag > *bd).unwrap_or(true)
                })
                .map(|(_, x)| x)
                .collect();
            if keep.len() < len {
                // Partially consumed head block: its live remainder is
                // resident — write it to a stub run.
                machine.discard(len - keep.len())?;
                if !keep.is_empty() {
                    let stub = machine.alloc_region(keep.len());
                    machine.write_block(stub.block(0), keep)?;
                    out.push(stub);
                }
                suffix_from = p + 1;
            } else {
                // Untouched: release; the merge re-reads it from the tail.
                machine.discard(len)?;
            }
        }
        let tail = run.region.suffix(suffix_from, b);
        if tail.elems > 0 {
            out.push(tail);
        }
        Ok(out)
    }

    /// One refill round: stream the external pointer array, scan each live
    /// run from its block pointer (skipping elements at or below its
    /// boundary), and keep the `delete_cap` smallest candidates. Then
    /// advance boundaries and rewrite only the pointer words whose run had
    /// a block consumed — the §3 discipline.
    fn refill<A: AemAccess<T>>(&mut self, machine: &mut A) -> Result<()> {
        debug_assert!(self.delete_buf.is_empty());
        let b = machine.cfg().block;
        let cap = self.params.delete_cap;
        let ptrs = match self.ptrs {
            Some(r) => r,
            None => return Ok(()),
        };
        // The live run holding each pointer slot, if any.
        let mut at_slot: Vec<Option<usize>> = vec![None; self.slots.len()];
        for (i, run) in self.runs.iter().enumerate() {
            if run.remaining > 0 {
                at_slot[run.slot] = Some(i);
            }
        }
        let mut sel: RunSelector<T> = RunSelector::new(cap, self.runs.len());
        for pb in 0..ptrs.blocks {
            let words = machine.read_aux_block(ptrs.block(pb))?;
            for (&p, at) in words.iter().zip(&at_slot[pb * b..]) {
                if let Some(i) = *at {
                    scan_run(machine, &self.runs[i], i, p as usize, &mut sel)?;
                }
            }
            machine.discard(words.len())?;
        }
        debug_assert!(
            (sel.len() == 0) == (self.external_remaining() == 0),
            "a refill makes progress whenever external elements remain"
        );
        // Per-run consumption: the round's members of run i are the
        // consecutive positions of its stretch (the selection keeps the
        // globally smallest, and runs are sorted), so the last one fixes
        // the new boundary and block pointer.
        let mut ptr_updates: Vec<(usize, u64)> = Vec::new();
        for span in sel.spans() {
            let run = &mut self.runs[span.slot];
            let pos = span.last_pos();
            run.remaining -= span.len;
            let new_ptr = pointer_after(pos as usize, run.region.elems, b);
            run.boundary = Some((span.last.clone(), span.run, pos));
            if run.remaining > 0 {
                // Exhausted runs are dropped below; their pointer word is
                // left stale and reset when the slot is reused.
                ptr_updates.push((run.slot, new_ptr));
            }
        }
        let batch = sel.take_sorted();
        ptr_updates.sort_unstable();
        advance_pointers(machine, ptrs, &ptr_updates)?;
        // Drop exhausted runs (their external blocks are simply abandoned;
        // external memory is unbounded in the model).
        let slots = &mut self.slots;
        self.runs.retain(|r| {
            if r.remaining == 0 {
                slots[r.slot] = false;
                false
            } else {
                true
            }
        });
        self.delete_buf = VecDeque::from(batch);
        Ok(())
    }
}

/// Scan one run from `first_blk`, merging unconsumed elements into the
/// round buffer. Stops as soon as the buffer is full and the last block's
/// maximum exceeds its cut — later blocks only hold larger elements.
fn scan_run<T, A>(
    machine: &mut A,
    run: &PqRun<T>,
    slot: usize,
    first_blk: usize,
    sel: &mut RunSelector<T>,
) -> Result<()>
where
    T: Ord + Clone,
    A: AemAccess<T>,
{
    let b = machine.cfg().block;
    for blk in first_blk..run.region.blocks {
        let first = (blk * b) as u64;
        let (mut kept, mut past_cut) = (0, false);
        let len = machine.read_block_with(run.region.block(blk), &mut |data| {
            kept = sel.offer(data, slot, run.id, first, run.boundary.as_ref());
            // The block's maximum is its last element.
            if let (Some(x), Some(max)) = (data.last(), sel.full_max()) {
                past_cut = (x, run.id, first + data.len() as u64 - 1) > max;
            }
        })?;
        machine.discard(len - kept)?;
        if past_cut {
            break;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use aem_machine::{AemConfig, Machine};
    use aem_workloads::KeyDist;

    fn cfg() -> AemConfig {
        AemConfig::new(64, 8, 8).unwrap()
    }

    fn drain(m: &mut Machine<u64>, pq: &mut BufferedPq<u64>) -> Vec<u64> {
        let mut out = Vec::new();
        while let Some(x) = pq.pop(m).unwrap() {
            out.push(x);
            m.discard(1).unwrap();
        }
        out
    }

    #[test]
    fn push_pop_sorted_order() {
        let mut m: Machine<u64> = Machine::new(cfg());
        let mut pq = BufferedPq::new(cfg()).unwrap();
        let input = KeyDist::Uniform { seed: 1 }.generate(500);
        for &x in &input {
            pq.push(&mut m, x).unwrap();
        }
        assert_eq!(pq.len(), 500);
        let out = drain(&mut m, &mut pq);
        let mut want = input;
        want.sort();
        assert_eq!(out, want);
        assert_eq!(m.internal_used(), 0, "no leaked budget");
    }

    #[test]
    fn interleaved_operations_match_binary_heap() {
        let mut m: Machine<u64> = Machine::new(cfg());
        let mut pq = BufferedPq::new(cfg()).unwrap();
        let mut reference = std::collections::BinaryHeap::new();
        let keys = KeyDist::Uniform { seed: 2 }.generate(600);
        for (i, &x) in keys.iter().enumerate() {
            pq.push(&mut m, x).unwrap();
            reference.push(std::cmp::Reverse(x));
            if i % 3 == 2 {
                let got = pq.pop(&mut m).unwrap().unwrap();
                m.discard(1).unwrap();
                assert_eq!(got, reference.pop().unwrap().0, "at step {i}");
            }
        }
        while let Some(std::cmp::Reverse(want)) = reference.pop() {
            let got = pq.pop(&mut m).unwrap().unwrap();
            m.discard(1).unwrap();
            assert_eq!(got, want);
        }
        assert!(pq.is_empty());
        assert_eq!(m.internal_used(), 0);
    }

    #[test]
    fn duplicates_and_empty_pops() {
        let mut m: Machine<u64> = Machine::new(cfg());
        let mut pq = BufferedPq::new(cfg()).unwrap();
        assert_eq!(pq.pop(&mut m).unwrap(), None);
        for _ in 0..300 {
            pq.push(&mut m, 7).unwrap();
        }
        for _ in 0..300 {
            assert_eq!(pq.pop(&mut m).unwrap(), Some(7));
            m.discard(1).unwrap();
        }
        assert_eq!(pq.pop(&mut m).unwrap(), None);
        assert_eq!(m.internal_used(), 0);
    }

    #[test]
    fn rejects_tiny_memory() {
        assert!(BufferedPq::<u64>::new(AemConfig::new(16, 4, 2).unwrap()).is_err());
    }

    #[test]
    fn large_volume_respects_run_cap() {
        let mut m: Machine<u64> = Machine::new(cfg());
        let mut pq = BufferedPq::new(cfg()).unwrap();
        let params = pq.params();
        let input = KeyDist::Uniform { seed: 3 }.generate(5000);
        for &x in &input {
            pq.push(&mut m, x).unwrap();
            assert!(pq.live_runs() <= params.max_runs, "run cap violated");
        }
        let out = drain(&mut m, &mut pq);
        let mut want = input;
        want.sort();
        assert_eq!(out, want);
        assert_eq!(m.internal_used(), 0);
    }

    #[test]
    fn omega_above_block_works() {
        // The headline regime of the paper: ω > B. The external pointer
        // array and the ωm-way merges must carry the structure.
        let cfg = AemConfig::new(64, 8, 128).unwrap();
        let mut m: Machine<u64> = Machine::new(cfg);
        let mut pq = BufferedPq::new(cfg).unwrap();
        let input = KeyDist::FewDistinct {
            distinct: 17,
            seed: 4,
        }
        .generate(3000);
        for &x in &input {
            pq.push(&mut m, x).unwrap();
        }
        let out = drain(&mut m, &mut pq);
        let mut want = input;
        want.sort();
        assert_eq!(out, want);
        assert_eq!(m.internal_used(), 0);
        // Write-lean: reads dominate writes, as for the §3 sorters.
        let cost = m.cost();
        assert!(cost.reads > cost.writes);
    }

    #[test]
    fn descending_stream_interleaved() {
        // Every push undercuts the delete buffer: exercises the fold-back
        // flush invariant hard.
        let mut m: Machine<u64> = Machine::new(cfg());
        let mut pq = BufferedPq::new(cfg()).unwrap();
        let n = 800u64;
        for (i, x) in (0..n).rev().enumerate() {
            pq.push(&mut m, x).unwrap();
            if i % 5 == 4 {
                let got = pq.pop(&mut m).unwrap().unwrap();
                m.discard(1).unwrap();
                assert_eq!(got, x, "minimum is always the latest pushed");
            }
        }
        let out = drain(&mut m, &mut pq);
        assert!(out.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(m.internal_used(), 0);
    }
}
