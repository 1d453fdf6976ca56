//! The head selector of the streaming `k`-way merges: one resident block
//! per run and a loser tree over the runs' current elements.
//!
//! [`em_merge_sort`](crate::sort::em_merge_sort) and spmv's merge-add
//! both emit the smallest head by `(key, run)` — the run index breaks
//! ties, so the merge is stable and the order is a strict total one. A
//! loser tree finds it with one comparison per tree level,
//! `⌈log₂ k⌉` per element, where scanning every head costs `k − 1`.
//! Exhausted runs lose to every live one, so the tree never shrinks.
//!
//! The selector reads block 0 of every non-empty run in run order when it
//! opens, and a run's next block when its resident block is used up, so
//! the I/O schedule is fixed by the emission order alone. A caller that
//! must write before that read takes the element with
//! [`pop`](MergeHeads::pop) and lets the next `pop` do the read; a caller
//! that reads first calls [`advance`](MergeHeads::advance) in between.

use std::cmp::Ordering;
use std::vec;

use aem_machine::{AemAccess, Region, Result};

/// A run's current head — `None` once the run is exhausted — in a tree
/// node. Heads live in the tree itself, so a match compares two nodes
/// without following a pointer into the run's block.
struct Node<T> {
    head: Option<T>,
    run: usize,
}

/// Merge heads over `runs`, ordered by `cmp` on the elements and then by
/// run index (see the module docs).
pub(crate) struct MergeHeads<'r, T, F> {
    runs: &'r [Region],
    /// Per run: the index of its resident block and that block's elements
    /// behind the head.
    blocks: Vec<(usize, vec::IntoIter<T>)>,
    /// `tree[0]` holds the winner; `tree[i]` for `1 ≤ i < k` the node that
    /// lost at internal node `i`. Leaf `k + r` stands for run `r`.
    tree: Vec<Node<T>>,
    cmp: F,
    /// The winner's head was taken and the tree not yet replayed.
    pending: bool,
}

impl<'r, T, F> MergeHeads<'r, T, F>
where
    F: FnMut(&T, &T) -> Ordering,
{
    /// Read the first block of every non-empty run, in run order, and
    /// build the tree.
    pub(crate) fn open<A: AemAccess<T>>(
        machine: &mut A,
        runs: &'r [Region],
        cmp: F,
    ) -> Result<Self> {
        let k = runs.len();
        let empty = || Node { head: None, run: 0 };
        let mut blocks = Vec::with_capacity(k);
        // `win[i]` is the winner at node i; the leaves come first.
        let mut win: Vec<Node<T>> = (0..k).map(|_| empty()).collect();
        for (run, r) in runs.iter().enumerate() {
            let data = if r.elems > 0 {
                machine.read_block(r.block(0))?
            } else {
                Vec::new()
            };
            let mut rest = data.into_iter();
            win.push(Node {
                head: rest.next(),
                run,
            });
            blocks.push((0, rest));
        }
        // Play every match bottom-up, leaving each loser at its node.
        let mut cmp = cmp;
        let mut tree: Vec<Node<T>> = (0..k).map(|_| empty()).collect();
        for i in (1..k).rev() {
            let b = std::mem::replace(&mut win[2 * i + 1], empty());
            let a = std::mem::replace(&mut win[2 * i], empty());
            let (w, l) = if beats(&mut cmp, &a, &b) {
                (a, b)
            } else {
                (b, a)
            };
            win[i] = w;
            tree[i] = l;
        }
        if k > 0 {
            tree[0] = std::mem::replace(&mut win[1], empty());
        }
        Ok(Self {
            runs,
            blocks,
            tree,
            cmp,
            pending: false,
        })
    }

    /// Take the smallest head, or `None` once every run is exhausted. A
    /// pending [`advance`](Self::advance) runs first.
    pub(crate) fn pop<A: AemAccess<T>>(&mut self, machine: &mut A) -> Result<Option<T>> {
        self.advance(machine)?;
        let head = self.tree.first_mut().and_then(|w| w.head.take());
        self.pending = head.is_some();
        Ok(head)
    }

    /// Move past the element the last [`pop`](Self::pop) took: read its
    /// run's next block if the resident one is used up (or retire the
    /// run), then replay the winner's path. A no-op when nothing is
    /// pending.
    pub(crate) fn advance<A: AemAccess<T>>(&mut self, machine: &mut A) -> Result<()> {
        if !std::mem::take(&mut self.pending) {
            return Ok(());
        }
        let w = self.tree[0].run;
        let (blk, rest) = &mut self.blocks[w];
        let mut head = rest.next();
        if head.is_none() && *blk + 1 < self.runs[w].blocks {
            *blk += 1;
            *rest = machine.read_block(self.runs[w].block(*blk))?.into_iter();
            head = rest.next();
        }
        let mut cur = Node { head, run: w };
        let mut node = (self.runs.len() + w) / 2;
        while node > 0 {
            if beats(&mut self.cmp, &self.tree[node], &cur) {
                std::mem::swap(&mut self.tree[node], &mut cur);
            }
            node /= 2;
        }
        self.tree[0] = cur;
        Ok(())
    }
}

/// Whether node `a` precedes node `b`: live before exhausted, then by
/// `cmp`, then by run index.
fn beats<T>(cmp: &mut impl FnMut(&T, &T) -> Ordering, a: &Node<T>, b: &Node<T>) -> bool {
    match (&a.head, &b.head) {
        (Some(x), Some(y)) => match cmp(x, y) {
            Ordering::Less => true,
            Ordering::Greater => false,
            Ordering::Equal => a.run < b.run,
        },
        (Some(_), None) => true,
        (None, Some(_)) => false,
        (None, None) => a.run < b.run,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aem_machine::{AemConfig, Machine};
    use aem_workloads::SplitMix64;

    /// Pop every element of `runs` (sorted by key) through the heads and
    /// compare with a stable sort of `(key, run)` pairs.
    fn check(runs: &[Vec<(u64, u32)>], b: usize) {
        // One resident block per run must fit: M = 16B holds k ≤ 16.
        let mut m: Machine<(u64, u32)> = Machine::new(AemConfig::new(16 * b, b, 2).unwrap());
        let regions: Vec<Region> = runs.iter().map(|r| m.install(r)).collect();
        let mut heads = MergeHeads::open(&mut m, &regions, |x, y| x.0.cmp(&y.0)).unwrap();
        let mut got = Vec::new();
        while let Some(x) = heads.pop(&mut m).unwrap() {
            got.push(x);
            m.discard(1).unwrap();
        }
        let mut want: Vec<(u64, u32)> = runs.concat();
        want.sort_by_key(|&(key, run)| (key, run));
        assert_eq!(got, want);
        assert_eq!(
            m.cost().reads,
            regions.iter().map(|r| r.blocks as u64).sum()
        );
    }

    #[test]
    fn emits_by_key_then_run() {
        let mut rng = SplitMix64::seed_from_u64(0x4ead);
        for k in [1usize, 2, 3, 5, 8, 13] {
            for distinct in [1u64, 4, 1 << 30] {
                let runs: Vec<Vec<(u64, u32)>> = (0..k)
                    .map(|r| {
                        let len = rng.next_below_usize(20);
                        let mut keys: Vec<u64> =
                            (0..len).map(|_| rng.next_below(distinct)).collect();
                        keys.sort_unstable();
                        keys.into_iter().map(|x| (x, r as u32)).collect()
                    })
                    .collect();
                check(&runs, 4);
                check(&runs, 1);
            }
        }
    }

    #[test]
    fn no_runs_and_empty_runs() {
        check(&[], 4);
        check(&[vec![], vec![], vec![]], 4);
    }
}
