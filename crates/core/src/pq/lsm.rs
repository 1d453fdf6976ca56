//! The LSM-style external priority queue (cursor-per-level deletes).
//!
//! The paper lists *heapsort* among the AEM sorters of Blelloch et al.
//! that achieve `O(ω n log_{ωm} n)`; the underlying structure is an
//! external priority queue whose reorganizations are merges. This module
//! provides such a queue in LSM style:
//!
//! * an **insertion buffer** of `M/4` elements in internal memory (sorted
//!   for free on flush). A push only appends; the first pop after a run of
//!   pushes heapifies them (or adds them to the heap a previous pop
//!   built), so a pop reads the buffer's minimum without a scan;
//! * external **levels** `0, 1, 2, …`, each holding at most one sorted
//!   run; flushing into an occupied level triggers a cascading merge using
//!   [`crate::sort::merge_runs()`] — the §3.1 write-efficient merge, so
//!   every reorganization inherits its `O(ω(n+m))`-reads/`O(n+m)`-writes
//!   profile;
//! * **lazy deletion**: runs are immutable; each level keeps a cursor and
//!   one resident head block, so `pop` streams (one read per `B` pops per
//!   level) and merges only carry the live suffixes.
//!
//! Each element takes part in at most `⌈log₂(N/(M/4))⌉` merges, giving
//! amortized `O((1 + ω)·log(n)/B)`-ish I/O per operation — and because
//! the merges are the paper's, the write count per level is `O(n+m)`
//! regardless of `ω`.
//!
//! Budget contract: `push` charges one internal slot per element; `pop`
//! returns the element *still charged* — the caller releases it by
//! writing it out (as [`crate::sort::heap_sort()`] does) or via
//! [`AemAccess::discard`].

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use aem_machine::{AemAccess, MachineError, Region, Result};

use crate::sort::merge_runs;

/// Cursor over an immutable sorted run: the resident head block plus the
/// position of the next unconsumed element.
#[derive(Debug)]
struct RunCursor<T> {
    region: Region,
    /// Index (within the region, in elements) of the next element.
    next: usize,
    /// The resident block holding `next` (loaded lazily).
    head: Vec<T>,
    /// Block index of `head` within the region.
    head_blk: usize,
}

impl<T: Ord + Clone> RunCursor<T> {
    fn new(region: Region) -> Self {
        Self {
            region,
            next: 0,
            head: Vec::new(),
            head_blk: usize::MAX,
        }
    }

    fn remaining(&self) -> usize {
        self.region.elems - self.next
    }

    /// Ensure the block containing `next` is resident; returns the current
    /// minimum without consuming it.
    fn peek<A: AemAccess<T>>(&mut self, machine: &mut A) -> Result<Option<&T>> {
        if self.remaining() == 0 {
            return Ok(None);
        }
        let b = machine.cfg().block;
        let want = self.next / b;
        if self.head_blk != want {
            if !self.head.is_empty() {
                machine.discard(self.head.len())?;
            }
            self.head = machine.read_block(self.region.block(want))?;
            self.head_blk = want;
        }
        Ok(Some(&self.head[self.next % b]))
    }

    /// Consume the current minimum. The element's budget slot transfers to
    /// the caller (it came from the resident head's read charge).
    fn pop<A: AemAccess<T>>(&mut self, machine: &mut A) -> Result<T> {
        let b = machine.cfg().block;
        self.peek(machine)?;
        let x = self.head[self.next % b].clone();
        self.next += 1;
        // The popped element's slot moves to the caller; account the swap
        // by reserving one (caller's element) — the original stays charged
        // until the whole head block is released below.
        if self.next % b == 0 || self.remaining() == 0 {
            // Head block fully consumed: release it (minus the element the
            // caller now holds, which we re-charge explicitly).
            machine.discard(self.head.len())?;
            self.head.clear();
            self.head_blk = usize::MAX;
        }
        machine.reserve(1)?;
        Ok(x)
    }

    /// Release any resident head (when the cursor is merged away).
    fn retire<A: AemAccess<T>>(self, machine: &mut A) -> Result<()> {
        if !self.head.is_empty() {
            machine.discard(self.head.len())?;
        }
        Ok(())
    }

    /// The live suffix as mergeable regions: the partially consumed block's
    /// remaining elements are written to a stub run (they are resident),
    /// and the untouched full-block suffix aliases the original region.
    fn into_regions<A: AemAccess<T>>(self, machine: &mut A) -> Result<Vec<Region>> {
        let b = machine.cfg().block;
        let mut out = Vec::with_capacity(2);
        let mut first_untouched_blk = self.next / b;
        if self.next % b != 0 {
            // Stub run from the resident head's remainder.
            debug_assert_eq!(self.head_blk, self.next / b);
            let rest: Vec<T> = self.head[self.next % b..].to_vec();
            machine.discard(self.next % b)?; // consumed prefix of the head
            let stub = machine.alloc_region(rest.len());
            machine.write_block(stub.block(0), rest)?;
            out.push(stub);
            first_untouched_blk += 1;
        } else if !self.head.is_empty() {
            // Head resident but fully unconsumed-aligned: release; the
            // suffix region below re-reads it during the merge.
            machine.discard(self.head.len())?;
        }
        let tail = self.region.suffix(first_untouched_blk, b);
        if tail.elems > 0 {
            out.push(tail);
        }
        Ok(out)
    }
}

/// The external priority queue. Generic over the machine, which is passed
/// per operation (the queue is a data structure *on* the machine, not an
/// owner of it).
///
/// # Example
///
/// ```
/// use aem_core::pq::ExternalPq;
/// use aem_machine::{AemAccess, AemConfig, Machine};
///
/// let cfg = AemConfig::new(64, 8, 16).unwrap();
/// let mut machine: Machine<u64> = Machine::new(cfg);
/// let mut pq = ExternalPq::new(cfg).unwrap();
///
/// for x in [5u64, 1, 4, 1, 3] {
///     pq.push(&mut machine, x).unwrap();
/// }
/// let mut out = Vec::new();
/// while let Some(x) = pq.pop(&mut machine).unwrap() {
///     out.push(x);
///     machine.discard(1).unwrap(); // the caller releases popped elements
/// }
/// assert_eq!(out, vec![1, 1, 3, 4, 5]);
/// ```
#[derive(Debug)]
pub struct ExternalPq<T> {
    levels: Vec<Option<RunCursor<T>>>,
    /// Pushed elements not yet flushed, in push order, until a pop needs
    /// their minimum.
    insert_buf: Vec<T>,
    /// Pushed elements not yet flushed that a pop has ordered: a min-heap.
    insert_heap: BinaryHeap<Reverse<T>>,
    buf_cap: usize,
    len: usize,
}

impl<T: Ord + Clone> ExternalPq<T> {
    /// Create a queue for the given machine configuration. Requires
    /// `M ≥ 8B` (insertion buffer, resident heads, and merge workspace).
    pub fn new(cfg: aem_machine::AemConfig) -> Result<Self> {
        if cfg.memory < 8 * cfg.block {
            return Err(MachineError::InvalidConfig("ExternalPq requires M >= 8B"));
        }
        Ok(Self {
            levels: Vec::new(),
            insert_buf: Vec::new(),
            insert_heap: BinaryHeap::new(),
            buf_cap: (cfg.memory / 4).max(1),
            len: 0,
        })
    }

    /// Number of elements in the queue.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Insert an element (charges one internal slot until flushed).
    pub fn push<A: AemAccess<T>>(&mut self, machine: &mut A, x: T) -> Result<()> {
        machine.reserve(1)?;
        self.insert_buf.push(x);
        self.len += 1;
        if self.insert_buf.len() + self.insert_heap.len() >= self.buf_cap {
            self.flush(machine)?;
        }
        Ok(())
    }

    /// Flush the insertion buffer into level 0, cascading merges.
    fn flush<A: AemAccess<T>>(&mut self, machine: &mut A) -> Result<()> {
        let mut data = std::mem::take(&mut self.insert_buf);
        data.extend(self.insert_heap.drain().map(|Reverse(x)| x));
        if data.is_empty() {
            return Ok(());
        }
        let b = machine.cfg().block;
        // Elements equal under `Ord` are interchangeable in the queue, so
        // their order within the run is free.
        data.sort_unstable();
        let run = machine.alloc_region(data.len());
        let mut blk = 0usize;
        let mut iter = data.into_iter().peekable();
        while iter.peek().is_some() {
            let chunk: Vec<T> = iter.by_ref().take(b).collect();
            machine.write_block(run.block(blk), chunk)?;
            blk += 1;
        }
        let mut cursor = RunCursor::new(run);

        // Each level keeps one resident head block during pops, so the
        // level count is capped at M/(2B) blocks of head space; reaching
        // the cap triggers a full compaction into the top level.
        let b_sz = machine.cfg().block;
        let l_max = (machine.cfg().memory / (2 * b_sz)).saturating_sub(1).max(2);

        // Cascade: merge into the first free level, absorbing occupied ones.
        for lvl in 0.. {
            if lvl + 1 >= l_max {
                // Full compaction: absorb every remaining level.
                let mut regions = cursor.into_regions(machine)?;
                for slot in self.levels.iter_mut() {
                    if let Some(c) = slot.take() {
                        regions.extend(c.into_regions(machine)?);
                    }
                }
                regions.retain(|r| r.elems > 0);
                let merged = if regions.len() == 1 {
                    regions[0]
                } else {
                    merge_runs(machine, &regions)?.0
                };
                while self.levels.len() < l_max {
                    self.levels.push(None);
                }
                self.levels[l_max - 1] = Some(RunCursor::new(merged));
                break;
            }
            if lvl == self.levels.len() {
                self.levels.push(Some(cursor));
                break;
            }
            match self.levels[lvl].take() {
                None => {
                    self.levels[lvl] = Some(cursor);
                    break;
                }
                Some(existing) => {
                    let mut regions = existing.into_regions(machine)?;
                    regions.extend(cursor.into_regions(machine)?);
                    regions.retain(|r| r.elems > 0);
                    let merged = if regions.len() == 1 {
                        regions[0]
                    } else {
                        merge_runs(machine, &regions)?.0
                    };
                    cursor = RunCursor::new(merged);
                }
            }
        }
        Ok(())
    }

    /// Remove and return the minimum, or `None` when empty. The returned
    /// element stays charged to the internal budget (see module docs).
    pub fn pop<A: AemAccess<T>>(&mut self, machine: &mut A) -> Result<Option<T>> {
        if self.len == 0 {
            return Ok(None);
        }
        // Find the smallest among the insertion buffer and the level heads
        // (heads are resident after peeking; comparing clones keeps the
        // borrows simple — internal computation is free in the model).
        let mut best: Option<(usize, T)> = None;
        for i in 0..self.levels.len() {
            let head = match self.levels[i].as_mut() {
                Some(cur) => cur.peek(machine)?.cloned(),
                None => None,
            };
            if let Some(h) = head {
                let better = best.as_ref().map(|(_, b)| h < *b).unwrap_or(true);
                if better {
                    best = Some((i, h));
                }
            }
        }
        // Order the pushes since the last pop (`extend` heapifies them in
        // one pass when they outnumber the heap).
        self.insert_heap
            .extend(self.insert_buf.drain(..).map(Reverse));
        let from_buf = match (self.insert_heap.peek(), &best) {
            (Some(Reverse(bm)), Some((_, bh))) => bm <= bh,
            (Some(_), None) => true,
            (None, _) => false,
        };
        let best_level = best.map(|(i, _)| i);

        let x = if from_buf {
            // The buffered element was charged at push time; it keeps its
            // slot as it moves to the caller.
            self.insert_heap.pop().expect("non-empty buffer").0
        } else {
            let j = best_level.expect("some source is non-empty");
            let cur = self.levels[j].as_mut().expect("occupied");
            let x = cur.pop(machine)?;
            if cur.remaining() == 0 {
                let spent = self.levels[j].take().expect("occupied");
                spent.retire(machine)?;
            }
            x
        };
        self.len -= 1;
        Ok(Some(x))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aem_machine::{AemConfig, Machine};
    use aem_workloads::KeyDist;

    fn cfg() -> AemConfig {
        AemConfig::new(64, 8, 8).unwrap()
    }

    #[test]
    fn push_pop_sorted_order() {
        let mut m: Machine<u64> = Machine::new(cfg());
        let mut pq = ExternalPq::new(cfg()).unwrap();
        let input = KeyDist::Uniform { seed: 1 }.generate(500);
        for &x in &input {
            pq.push(&mut m, x).unwrap();
        }
        assert_eq!(pq.len(), 500);
        let mut out = Vec::new();
        while let Some(x) = pq.pop(&mut m).unwrap() {
            out.push(x);
            m.discard(1).unwrap(); // caller releases the popped element
        }
        let mut want = input;
        want.sort();
        assert_eq!(out, want);
        assert_eq!(m.internal_used(), 0, "no leaked budget");
    }

    #[test]
    fn interleaved_operations() {
        let mut m: Machine<u64> = Machine::new(cfg());
        let mut pq = ExternalPq::new(cfg()).unwrap();
        let mut reference = std::collections::BinaryHeap::new();
        let keys = KeyDist::Uniform { seed: 2 }.generate(600);
        for (i, &x) in keys.iter().enumerate() {
            pq.push(&mut m, x).unwrap();
            reference.push(std::cmp::Reverse(x));
            if i % 3 == 2 {
                let got = pq.pop(&mut m).unwrap().unwrap();
                m.discard(1).unwrap();
                let want = reference.pop().unwrap().0;
                assert_eq!(got, want, "at step {i}");
            }
        }
        while let Some(std::cmp::Reverse(want)) = reference.pop() {
            let got = pq.pop(&mut m).unwrap().unwrap();
            m.discard(1).unwrap();
            assert_eq!(got, want);
        }
        assert!(pq.is_empty());
    }

    #[test]
    fn duplicates_and_empty_pops() {
        let mut m: Machine<u64> = Machine::new(cfg());
        let mut pq = ExternalPq::new(cfg()).unwrap();
        assert_eq!(pq.pop(&mut m).unwrap(), None);
        for _ in 0..300 {
            pq.push(&mut m, 7).unwrap();
        }
        for _ in 0..300 {
            assert_eq!(pq.pop(&mut m).unwrap(), Some(7));
            m.discard(1).unwrap();
        }
        assert_eq!(pq.pop(&mut m).unwrap(), None);
    }

    #[test]
    fn rejects_tiny_memory() {
        assert!(ExternalPq::<u64>::new(AemConfig::new(16, 4, 2).unwrap()).is_err());
    }

    #[test]
    fn large_volume_exercises_cascades() {
        let mut m: Machine<u64> = Machine::new(cfg());
        let mut pq = ExternalPq::new(cfg()).unwrap();
        let input = KeyDist::Uniform { seed: 3 }.generate(5000);
        for &x in &input {
            pq.push(&mut m, x).unwrap();
        }
        // Several cascading merges must have happened: cost is non-trivial
        // but write count stays near n per level.
        let cost = m.cost();
        assert!(cost.writes > 0);
        let mut prev = 0u64;
        let mut count = 0;
        while let Some(x) = pq.pop(&mut m).unwrap() {
            assert!(x >= prev);
            prev = x;
            count += 1;
            m.discard(1).unwrap();
        }
        assert_eq!(count, 5000);
    }
}
