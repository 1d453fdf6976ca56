//! Blocks, block identifiers, and contiguous regions of external memory.

/// Identifier of one external-memory block.
///
/// Block ids are stable for the lifetime of a machine; external memory is
/// unbounded, so ids are handed out by a bump allocator and never reused.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId(pub usize);

impl BlockId {
    /// Raw index into the machine's block table.
    #[inline]
    pub fn index(self) -> usize {
        self.0
    }
}

impl std::fmt::Display for BlockId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// A contiguous range of blocks, used to address arrays laid out in external
/// memory (the input and output of the algorithms in this workspace).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Region {
    /// First block of the region.
    pub first: usize,
    /// Number of blocks in the region.
    pub blocks: usize,
    /// Number of elements the region holds (`≤ blocks · B`; the final block
    /// may be partially filled).
    pub elems: usize,
}

impl Region {
    /// An empty region.
    pub const EMPTY: Region = Region {
        first: 0,
        blocks: 0,
        elems: 0,
    };

    /// The `i`-th block of the region. Panics if `i` is out of range; regions
    /// are algorithm-internal so an out-of-range access is a bug, not input
    /// error.
    #[inline]
    pub fn block(&self, i: usize) -> BlockId {
        assert!(i < self.blocks, "region block {i} out of {}", self.blocks);
        BlockId(self.first + i)
    }

    /// Iterate over the block ids of the region in order.
    pub fn iter(&self) -> impl Iterator<Item = BlockId> + '_ {
        (self.first..self.first + self.blocks).map(BlockId)
    }

    /// Number of elements stored in block `i` of the region, given block
    /// size `b`: `b` for all but possibly the last block.
    pub fn elems_in_block(&self, i: usize, b: usize) -> usize {
        debug_assert!(i < self.blocks);
        let before = i * b;
        b.min(self.elems.saturating_sub(before))
    }

    /// The sub-region that skips the first `skip` blocks, given block size
    /// `b`. The result aliases the same external blocks — no data moves.
    ///
    /// Used by the priority queues to hand the *untouched suffix* of a
    /// partially consumed run to the §3.1 merge: the consumed prefix is
    /// dropped at block granularity and only the remainder is re-merged.
    pub fn suffix(&self, skip: usize, b: usize) -> Region {
        if skip >= self.blocks {
            return Region::EMPTY;
        }
        Region {
            first: self.first + skip,
            blocks: self.blocks - skip,
            elems: self.elems.saturating_sub(skip * b),
        }
    }

    /// Split the region into `parts` consecutive sub-regions of as equal
    /// element counts as possible, each aligned to block boundaries.
    ///
    /// Used by the mergesort driver to form the `d = ωm` subarrays of §3.
    pub fn split_blockwise(&self, parts: usize, b: usize) -> Vec<Region> {
        assert!(parts >= 1);
        let mut out = Vec::with_capacity(parts.min(self.blocks.max(1)));
        let per = self.blocks.div_ceil(parts.max(1));
        let mut blk = 0usize;
        while blk < self.blocks {
            let take = per.min(self.blocks - blk);
            let first_elem = blk * b;
            let elems = (take * b).min(self.elems.saturating_sub(first_elem));
            out.push(Region {
                first: self.first + blk,
                blocks: take,
                elems,
            });
            blk += take;
        }
        if out.is_empty() {
            out.push(Region {
                first: self.first,
                blocks: 0,
                elems: 0,
            });
        }
        out
    }
}

/// A single external-memory block: up to `B` elements.
///
/// Copy-semantics machines store plain values; a block may be partially
/// filled (e.g. the tail block of an array, or an output block flushed at
/// end of input).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Block<T> {
    data: Vec<T>,
}

impl<T> Block<T> {
    /// An empty block.
    pub fn empty() -> Self {
        Self { data: Vec::new() }
    }

    /// Build a block from `data`; the caller has checked `data.len() ≤ B`.
    pub fn from_vec(data: Vec<T>) -> Self {
        Self { data }
    }

    /// Elements currently stored.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` when no element is stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrow the contents.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Borrow the contents mutably (an in-place read-modify-write; the
    /// occupancy cannot change).
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Take the contents, leaving the block empty.
    pub fn take(&mut self) -> Vec<T> {
        std::mem::take(&mut self.data)
    }

    /// Replace the contents.
    pub fn set(&mut self, data: Vec<T>) {
        self.data = data;
    }

    /// Empty the block, keeping its buffer capacity for reuse (the wipe /
    /// slot-recycling path).
    pub fn clear(&mut self) {
        self.data.clear();
    }
}

impl<T: Clone> Block<T> {
    /// Clone the contents out (a read under copy semantics).
    pub fn to_vec(&self) -> Vec<T> {
        self.data.clone()
    }

    /// Overwrite the contents from a slice, reusing the block's existing
    /// buffer capacity (the allocation-free write path bulk runs use).
    /// The caller has checked `data.len() ≤ B`.
    pub fn set_from_slice(&mut self, data: &[T]) {
        self.data.clear();
        self.data.extend_from_slice(data);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn region_blocks_iterate_in_order() {
        let r = Region {
            first: 5,
            blocks: 3,
            elems: 20,
        };
        let ids: Vec<usize> = r.iter().map(|b| b.index()).collect();
        assert_eq!(ids, vec![5, 6, 7]);
        assert_eq!(r.block(2), BlockId(7));
    }

    #[test]
    #[should_panic]
    fn region_block_out_of_range_panics() {
        let r = Region {
            first: 0,
            blocks: 2,
            elems: 10,
        };
        let _ = r.block(2);
    }

    #[test]
    fn last_block_may_be_partial() {
        let r = Region {
            first: 0,
            blocks: 3,
            elems: 20,
        };
        assert_eq!(r.elems_in_block(0, 8), 8);
        assert_eq!(r.elems_in_block(1, 8), 8);
        assert_eq!(r.elems_in_block(2, 8), 4);
    }

    #[test]
    fn split_blockwise_covers_everything() {
        let r = Region {
            first: 2,
            blocks: 10,
            elems: 77,
        };
        let parts = r.split_blockwise(4, 8);
        let total_blocks: usize = parts.iter().map(|p| p.blocks).sum();
        let total_elems: usize = parts.iter().map(|p| p.elems).sum();
        assert_eq!(total_blocks, 10);
        assert_eq!(total_elems, 77);
        // Consecutive and disjoint.
        for w in parts.windows(2) {
            assert_eq!(w[0].first + w[0].blocks, w[1].first);
        }
    }

    #[test]
    fn split_blockwise_more_parts_than_blocks() {
        let r = Region {
            first: 0,
            blocks: 2,
            elems: 9,
        };
        let parts = r.split_blockwise(8, 8);
        assert!(parts.len() <= 2);
        assert_eq!(parts.iter().map(|p| p.elems).sum::<usize>(), 9);
    }

    #[test]
    fn suffix_aliases_the_tail() {
        let r = Region {
            first: 4,
            blocks: 3,
            elems: 20,
        };
        let s = r.suffix(1, 8);
        assert_eq!((s.first, s.blocks, s.elems), (5, 2, 12));
        assert_eq!(r.suffix(0, 8), r);
        assert_eq!(r.suffix(3, 8), Region::EMPTY);
        assert_eq!(r.suffix(7, 8), Region::EMPTY);
    }

    #[test]
    fn block_take_empties() {
        let mut b = Block::from_vec(vec![1, 2, 3]);
        assert_eq!(b.len(), 3);
        let v = b.take();
        assert_eq!(v, vec![1, 2, 3]);
        assert!(b.is_empty());
    }
}
