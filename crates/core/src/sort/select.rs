//! The round buffer of the §3 sort family: the `cap` smallest of a stream
//! of distinct tagged candidates.
//!
//! [`small_sort`](crate::sort::small_sort), the §3.1 merge
//! ([`merge_runs`](crate::sort::merge_runs)) and its resident-cursor
//! ablation, and the buffered priority queue's refill
//! ([`BufferedPq`](crate::pq::BufferedPq)) all keep, per round, the `cap`
//! smallest candidates above the previous round's boundary. In the model that set is what internal memory holds, and the
//! ledger is charged `min(cap, candidates seen)` for it. The model does not
//! charge internal computation, so a [`Selector`] is free to compute the
//! set with more host scratch than `cap`, as long as every quantity the
//! algorithms read back — [`len`](Selector::len), the buffer maximum
//! ([`full_max`](Selector::full_max)) and the final set — is exactly that
//! of the `cap`-smallest set (see `docs/COST_MODEL.md` §7). There are two
//! ingest paths:
//!
//! * [`offer_unsorted`](Selector::offer_unsorted) — for blocks in no
//!   particular order, lent by the machine and tagged by position.
//!   Candidates below a running cut are cloned and appended; when the
//!   pool reaches `2·cap` it is compacted to the `cap` smallest with
//!   `select_nth_unstable`, which lowers the cut. `O(1)` amortised work
//!   per element, and no copy of an element that is not a candidate.
//! * [`offer_sorted`](Selector::offer_sorted) — for blocks of sorted runs,
//!   lent by the machine and tagged by run and position. The prefix at or
//!   below the boundary is skipped by binary search, and every test
//!   compares borrowed tags, so only an element that enters is cloned.
//!   Until the buffer is full its members are collected unordered (nothing
//!   reads the order before then: [`full_max`](Selector::full_max) is
//!   `None`), and the `cap`-th member heapifies them once. From then on
//!   better candidates replace the maximum of the capped max-heap in place,
//!   and the scan stops at the first candidate that cannot enter the
//!   buffer: every later element of the block is larger still. Only
//!   elements that enter a full buffer cost a heap operation.
//!
//! A selector is fed through one path only. [`into_sorted`](Selector::into_sorted)
//! drains it with `sort_unstable`; tags are distinct, so the order equals
//! a stable sort's. [`into_members`](Selector::into_members) drains it
//! unordered, for the §3.1 merge, which orders its round by run.

use std::collections::BinaryHeap;

/// The `cap` smallest distinct candidates offered so far (see the module
/// docs).
#[derive(Debug)]
pub(crate) struct Selector<K> {
    cap: usize,
    /// Candidates above the boundary offered so far.
    seen: usize,
    /// Sorted path: the members while fewer than `cap`, in arrival order.
    filling: Vec<K>,
    /// Sorted path: the `cap` smallest, as a max-heap, once full.
    heap: BinaryHeap<K>,
    /// Unsorted path: every candidate below `cut` (a superset of the kept
    /// set), at most `2·cap` long.
    pool: Vec<K>,
    /// Unsorted path: the largest kept candidate at the last compaction.
    cut: Option<K>,
}

impl<K: Ord + Clone> Selector<K> {
    /// An empty selector keeping at most `cap ≥ 1` candidates.
    pub(crate) fn new(cap: usize) -> Self {
        assert!(cap >= 1, "a selector keeps at least one candidate");
        Self {
            cap,
            seen: 0,
            filling: Vec::new(),
            heap: BinaryHeap::new(),
            pool: Vec::new(),
            cut: None,
        }
    }

    /// Number of candidates the model holds: `min(cap, seen)`.
    pub(crate) fn len(&self) -> usize {
        self.seen.min(self.cap)
    }

    /// The largest kept candidate once the buffer is full, else `None`.
    /// Sorted path only.
    pub(crate) fn full_max(&self) -> Option<&K> {
        debug_assert!(self.pool.is_empty(), "full_max needs the sorted path");
        self.heap.peek()
    }

    /// The kept candidates in ascending order.
    pub(crate) fn into_sorted(self) -> Vec<K> {
        let mut kept = self.into_members();
        kept.sort_unstable();
        kept
    }

    /// The kept candidates in no particular order, for callers that know
    /// more about their structure than `Ord` does.
    pub(crate) fn into_members(mut self) -> Vec<K> {
        if !self.pool.is_empty() {
            self.compact();
            self.pool
        } else if self.heap.is_empty() {
            self.filling
        } else {
            self.heap.into_vec()
        }
    }

    /// Shrink the pool to its `cap` smallest and lower the cut to their
    /// maximum.
    fn compact(&mut self) {
        if self.pool.len() > self.cap {
            self.pool.select_nth_unstable(self.cap - 1);
            self.pool.truncate(self.cap);
            // `select_nth_unstable` left the largest survivor at the end.
            self.cut = self.pool.last().cloned();
        }
    }
}

impl<T: Ord + Clone> Selector<(T, u32, u64)> {
    /// Offer one block of sorted run `run`, borrowed from the machine: the
    /// block's `i`-th element `x` is the candidate `(x, run, first + i)`.
    /// Tags at or below `boundary` are not candidates. Every test compares
    /// through references, so an element is cloned only when it enters
    /// the buffer. Returns how many members the buffer gained.
    pub(crate) fn offer_sorted(
        &mut self,
        block: &[T],
        run: u32,
        first: u64,
        boundary: Option<&(T, u32, u64)>,
    ) -> usize {
        debug_assert!(self.pool.is_empty(), "a selector is fed one way");
        debug_assert!(
            block.windows(2).all(|w| w[0] <= w[1]),
            "offer_sorted needs a sorted block"
        );
        let before = self.len();
        let tag = |i: usize| (&block[i], run, first + i as u64);
        // Candidates start after the prefix at or below the boundary.
        let (mut start, mut hi) = (0, block.len());
        if let Some((bx, br, bp)) = boundary {
            while start < hi {
                let mid = (start + hi) / 2;
                if tag(mid) <= (bx, *br, *bp) {
                    start = mid + 1;
                } else {
                    hi = mid;
                }
            }
        }
        self.seen += block.len() - start;
        let mut rest = start..block.len();
        if self.heap.is_empty() {
            for i in rest.by_ref() {
                self.filling.push((block[i].clone(), run, first + i as u64));
                if self.filling.len() == self.cap {
                    self.heap = BinaryHeap::from(std::mem::take(&mut self.filling));
                    break;
                }
            }
        }
        // Anything left is offered to a full buffer.
        for i in rest {
            let mut top = self.heap.peek_mut().expect("the buffer is full");
            if tag(i) >= (&top.0, top.1, top.2) {
                break; // the rest of the block is larger still
            }
            *top = (block[i].clone(), run, first + i as u64);
        }
        self.len() - before
    }
}

impl<T: Ord + Clone> Selector<(T, u64)> {
    /// Offer one block whose elements arrive in no particular order,
    /// borrowed from the machine: the block's `i`-th element `x` is the
    /// candidate `(x, first + i)`. Tags at or below `boundary` are not
    /// candidates. The boundary and cut tests compare through references,
    /// so an element is cloned only when it enters the pool. Returns how many members
    /// the buffer gained (`len()` after minus before).
    pub(crate) fn offer_unsorted(
        &mut self,
        block: &[T],
        first: u64,
        boundary: Option<&(T, u64)>,
    ) -> usize {
        debug_assert!(
            self.heap.is_empty() && self.filling.is_empty(),
            "a selector is fed one way"
        );
        let before = self.len();
        for (x, pos) in block.iter().zip(first..) {
            if boundary.is_some_and(|(bx, bp)| (x, pos) <= (bx, *bp)) {
                continue;
            }
            self.seen += 1;
            if self
                .cut
                .as_ref()
                .map_or(true, |(cx, cp)| (x, pos) < (cx, *cp))
            {
                self.pool.push((x.clone(), pos));
                if self.pool.len() >= 2 * self.cap {
                    self.compact();
                }
            }
        }
        self.len() - before
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aem_workloads::SplitMix64;

    /// Tag `(key, run, position)`, as in the merge and the queue.
    type Tag = (u64, u32, u64);

    /// The same tag shaped as the unsorted path's `(element, position)`
    /// candidates, which orders the same way.
    fn nest((k, run, pos): Tag) -> ((u64, u32), u64) {
        ((k, run), pos)
    }

    const B: usize = 8;

    /// `blocks` blocks of tags over `runs` sorted runs, in a shuffled block
    /// order; `distinct` bounds the key alphabet (small = duplicate-heavy).
    fn stream(rng: &mut SplitMix64, runs: u32, blocks: usize, distinct: u64) -> Vec<Vec<Tag>> {
        let mut out = Vec::new();
        for run in 0..runs {
            let len = blocks * B / runs as usize;
            let mut keys: Vec<u64> = (0..len).map(|_| rng.next_below(distinct)).collect();
            keys.sort_unstable();
            for (blk, chunk) in keys.chunks(B).enumerate() {
                let block = chunk
                    .iter()
                    .enumerate()
                    .map(|(off, &k)| (k, run, (blk * B + off) as u64))
                    .collect();
                out.push(block);
            }
        }
        rng.shuffle(&mut out);
        out
    }

    /// The `cap` smallest tags above `boundary` among `offered`.
    fn reference(offered: &[Tag], boundary: Option<&Tag>, cap: usize) -> Vec<Tag> {
        let mut want: Vec<Tag> = offered
            .iter()
            .filter(|t| boundary.map_or(true, |bd| *t > bd))
            .copied()
            .collect();
        want.sort_unstable();
        want.truncate(cap);
        want
    }

    /// Feed every case through `offer`, checking the invariants after each
    /// block; returns the number of cases run and the number of blocks
    /// that filled a buffer of more than `B` with candidates to spare.
    fn check_path(sorted: bool) -> (usize, usize) {
        let mut rng = SplitMix64::seed_from_u64(if sorted { 0x5e1 } else { 0x5e2 });
        let (mut cases, mut mid_block_fills) = (0, 0);
        for distinct in [1u64, 3, 1 << 40] {
            // 37 = 4B + 5 fills the buffer part-way through a block.
            for cap in [1, B, 37, 1000] {
                for _ in 0..6 {
                    let runs = 1 + rng.next_below(6) as u32;
                    let blocks = stream(&mut rng, runs, 24, distinct);
                    let all: Vec<Tag> = blocks.iter().flatten().copied().collect();
                    let boundary = match rng.next_below(3) {
                        0 => None,
                        _ => Some(all[rng.next_below_usize(all.len())]),
                    };
                    // A case feeds one of the two.
                    let mut sel = Selector::<Tag>::new(cap);
                    let mut pos_sel = Selector::new(cap);
                    let len = |sel: &Selector<_>, pos_sel: &Selector<_>| {
                        if sorted {
                            sel.len()
                        } else {
                            pos_sel.len()
                        }
                    };
                    let mut offered: Vec<Tag> = Vec::new();
                    for block in blocks {
                        let before = len(&sel, &pos_sel);
                        let fresh = reference(&block, boundary.as_ref(), B).len();
                        if cap > B && before < cap && before + fresh > cap {
                            mid_block_fills += 1;
                        }
                        offered.extend(&block);
                        let want = reference(&offered, boundary.as_ref(), cap);
                        // A block holds one run at consecutive positions.
                        let (run, first) = (block[0].1, block[0].2);
                        let gained = if sorted {
                            let keys: Vec<u64> = block.iter().map(|t| t.0).collect();
                            sel.offer_sorted(&keys, run, first, boundary.as_ref())
                        } else {
                            let elems: Vec<(u64, u32)> = block.iter().map(|t| (t.0, t.1)).collect();
                            pos_sel.offer_unsorted(&elems, first, boundary.map(nest).as_ref())
                        };
                        let after = len(&sel, &pos_sel);
                        assert_eq!(after, want.len(), "len == min(cap, seen)");
                        assert_eq!(gained, after - before);
                        if sorted {
                            let full = want.len() == cap;
                            assert_eq!(sel.full_max(), want.last().filter(|_| full));
                        }
                    }
                    let want = reference(&offered, boundary.as_ref(), cap);
                    let kept = if sorted {
                        sel.into_sorted()
                    } else {
                        let kept = pos_sel.into_sorted();
                        kept.into_iter()
                            .map(|((k, run), pos)| (k, run, pos))
                            .collect()
                    };
                    assert_eq!(kept, want, "kept set is the cap smallest");
                    cases += 1;
                }
            }
        }
        (cases, mid_block_fills)
    }

    #[test]
    fn sorted_path_keeps_the_cap_smallest() {
        let (cases, mid_block_fills) = check_path(true);
        assert_eq!(cases, 72);
        // The fill-to-heap switch happens inside a block, not only at a
        // block boundary.
        assert!(mid_block_fills > 0);
    }

    #[test]
    fn unsorted_path_keeps_the_cap_smallest() {
        assert_eq!(check_path(false).0, 72);
    }

    #[test]
    fn early_stop_follows_a_replacement() {
        // A full buffer {1, 2}; the block's 0 enters, its 5 stops the scan
        // and the 3 behind it would not have entered either.
        let mut sel = Selector::new(2);
        sel.offer_sorted(&[1u64, 2], 0, 0, None);
        assert_eq!(sel.offer_sorted(&[0u64, 5, 9], 1, 0, None), 0);
        assert_eq!(sel.full_max(), Some(&(1, 0, 0)));
        assert_eq!(sel.into_sorted(), vec![(0, 1, 0), (1, 0, 0)]);
    }

    #[test]
    fn boundary_prefix_is_not_counted() {
        let mut sel = Selector::new(4);
        let gained = sel.offer_sorted(&[1u64, 2, 3, 4, 5], 0, 0, Some(&(3, 0, 2)));
        assert_eq!(gained, 2);
        let gained = Selector::new(4).offer_unsorted(&[5u64, 1, 4, 2, 3], 0, Some(&(3, 9)));
        assert_eq!(gained, 2);
    }

    #[test]
    #[should_panic(expected = "sorted block")]
    #[cfg(debug_assertions)]
    fn sorted_path_rejects_unsorted_blocks() {
        Selector::new(2).offer_sorted(&[2u64, 1], 0, 0, None);
    }
}
