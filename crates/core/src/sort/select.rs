//! The round buffers of the §3 sort family: the `cap` smallest of a stream
//! of distinct tagged candidates.
//!
//! [`small_sort`](crate::sort::small_sort), the §3.1 merge
//! ([`merge_runs`](crate::sort::merge_runs)) and its resident-cursor
//! ablation, and the buffered priority queue's refill
//! ([`BufferedPq`](crate::pq::BufferedPq)) all keep, per round, the `cap`
//! smallest candidates above the previous round's boundary. In the model
//! that set is what internal memory holds, and the ledger is charged
//! `min(cap, candidates seen)` for it. The model does not charge internal
//! computation, so the buffers are free to compute the set with other host
//! structures, as long as every quantity the algorithms read back — the
//! member count (`len`), the buffer maximum (`full_max`) and the final set
//! — is exactly that of the `cap`-smallest set (see `docs/COST_MODEL.md`
//! §7). There are two buffers, one per way the blocks arrive:
//!
//! * [`Selector`] — for blocks in no particular order, lent by the machine
//!   and tagged by position (`small_sort`'s scans). Each block is
//!   classified 64 elements at a time into bit masks: one comparison per
//!   element against the boundary, one more for the elements above it
//!   against a running cut. The masks are built without a branch per
//!   element, and only the elements under the cut are cloned into a pool.
//!   When the pool reaches `2·cap` it is compacted to the `cap` smallest
//!   with `select_nth_unstable`, which lowers the cut. `O(1)` amortised
//!   work per element, and no copy of an element that is not a candidate.
//! * [`RunSelector`] — for blocks of sorted runs, lent by the machine and
//!   tagged by run and position (the §3.1 merge, its ablation and the
//!   queue's refill). A run's members are always consecutive positions of
//!   that run: candidates of a run arrive in position order, and once an
//!   element of a run cannot enter the buffer no later one can. So the
//!   buffer is kept as one ascending *stretch* per contributing run. Until
//!   it is full a block's candidates are appended to their stretch in one
//!   slice copy. From then on the buffer maximum is the largest stretch
//!   end, found through a max-heap over the stretches (not over the
//!   members) whose entries hold the ends themselves, so sifting compares
//!   without following a stretch. Each entering element drops that end,
//!   `O(log k′)` for `k′` contributing runs; the scan stops at the first
//!   element that cannot enter, and the block's entering elements join
//!   their stretch in one copy. Draining it merges the stretches, already
//!   sorted, with no tags attached. One selector serves every round of a
//!   merge, and keeps emptied member buffers (room for at most
//!   `cap + 8·slots` elements) for the next round's stretches.

/// Candidates tagged by position: the unsorted path's `(element, position)`.
type Pos<T> = (T, u64);

/// The `cap` smallest distinct `(element, position)` candidates offered
/// so far, from blocks in no particular order (see the module docs).
#[derive(Debug)]
pub(crate) struct Selector<T> {
    cap: usize,
    /// Candidates above the boundary offered so far.
    seen: usize,
    /// Every candidate below `cut` (a superset of the kept set): under
    /// `2·cap` between blocks, plus at most one block's worth.
    pool: Vec<Pos<T>>,
    /// The largest kept candidate at the last compaction.
    cut: Option<Pos<T>>,
    /// Elements at or below the boundary, and above the cut, counted since
    /// the cut was set: they pick which test runs first.
    below: u64,
    over: u64,
    /// Test against the cut before the boundary.
    under_first: bool,
}

/// The bits of `mask` whose element of `chunk` (tagged from `base` on)
/// passes `test`, tested one set bit at a time; the result is built
/// without a branch per element.
fn refine<T>(
    chunk: &[T],
    base: u64,
    mut mask: u64,
    mut test: impl FnMut((&T, u64)) -> bool,
) -> u64 {
    let mut out = 0;
    while mask != 0 {
        let i = mask.trailing_zeros();
        mask &= mask - 1;
        out |= u64::from(test((&chunk[i as usize], base + u64::from(i)))) << i;
    }
    out
}

impl<T: Ord + Clone> Selector<T> {
    /// An empty selector keeping at most `cap ≥ 1` candidates.
    pub(crate) fn new(cap: usize) -> Self {
        assert!(cap >= 1, "a selector keeps at least one candidate");
        Self {
            cap,
            seen: 0,
            pool: Vec::new(),
            cut: None,
            below: 0,
            over: 0,
            under_first: false,
        }
    }

    /// Number of candidates the model holds: `min(cap, seen)`.
    pub(crate) fn len(&self) -> usize {
        self.seen.min(self.cap)
    }

    /// Offer one block whose elements arrive in no particular order,
    /// borrowed from the machine: the block's `i`-th element `x` is the
    /// candidate `(x, first + i)`. Tags at or below `boundary` are not
    /// candidates. Every test compares through references, so an element
    /// is cloned only when it enters the pool. Returns how many members
    /// the buffer gained (`len()` after minus before).
    pub(crate) fn offer(&mut self, block: &[T], first: u64, boundary: Option<&Pos<T>>) -> usize {
        let before = self.len();
        for (chunk, base) in block.chunks(64).zip((first..).step_by(64)) {
            let all = u64::MAX >> (64 - chunk.len());
            let above = |m| match boundary {
                None => m,
                Some((bx, bp)) => refine(chunk, base, m, |t| t > (bx, *bp)),
            };
            // Bit `i` of `enter`: element `i` is a candidate under the cut.
            let enter = match &self.cut {
                None => {
                    let enter = above(all);
                    self.seen += enter.count_ones() as usize;
                    enter
                }
                // A cut exists only after a compaction, so `seen ≥ 2·cap`
                // and `len()` is `cap` whatever `seen` becomes: the tests
                // may run in the cheaper order, and `seen` is not kept.
                Some((cx, cp)) => {
                    let under = |m| refine(chunk, base, m, |t| t < (cx, *cp));
                    let (first_pass, enter) = if self.under_first {
                        let u = under(all);
                        (u, above(u))
                    } else {
                        let a = above(all);
                        (a, under(a))
                    };
                    // Count the non-candidates the first test rejects and
                    // the second would have: test first against the side
                    // that rejects more.
                    let rejected = (chunk.len() - first_pass.count_ones() as usize) as u64;
                    let passed_over = u64::from((first_pass & !enter).count_ones());
                    let (below, over) = if self.under_first {
                        (passed_over, rejected)
                    } else {
                        (rejected, passed_over)
                    };
                    self.below += below;
                    self.over += over;
                    self.under_first = self.over > self.below;
                    enter
                }
            };
            let mut enter = enter;
            while enter != 0 {
                let i = enter.trailing_zeros();
                enter &= enter - 1;
                self.pool
                    .push((chunk[i as usize].clone(), base + u64::from(i)));
            }
        }
        if self.pool.len() >= 2 * self.cap {
            self.compact();
        }
        self.len() - before
    }

    /// The kept candidates in ascending order. Tags are distinct, so the
    /// order equals a stable sort's.
    pub(crate) fn into_sorted(mut self) -> Vec<Pos<T>> {
        self.compact();
        self.pool.sort_unstable();
        self.pool
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

/// Candidates tagged by run and position: `(element, run, position)`.
type RunTag<T> = (T, u32, u64);

/// No stretch at this slot, or no heap entry for this stretch.
const ABSENT: usize = usize::MAX;

/// One contributing run's members: consecutive positions from `first` on,
/// in ascending order. While the stretch is heaped its largest member is
/// held by its heap entry instead.
#[derive(Debug)]
struct Stretch<T> {
    /// The caller's dense index of the run.
    slot: usize,
    /// The run's tag.
    run: u32,
    /// Position of the first member.
    first: u64,
    members: Vec<T>,
    /// Index of the heap entry once the buffer is full (`ABSENT` when
    /// empty).
    heap_at: usize,
}

/// A heaped stretch's largest member and its tag, kept in the heap itself
/// so that sifting compares without following the stretch.
#[derive(Debug)]
struct End<T> {
    x: T,
    run: u32,
    pos: u64,
    /// Index of the stretch.
    stretch: usize,
}

impl<T: Ord> End<T> {
    fn tag(&self) -> (&T, u32, u64) {
        (&self.x, self.run, self.pos)
    }

    /// `true` when this end lies above `other` (they are of distinct runs).
    fn above(&self, other: &Self) -> bool {
        (&self.x, self.run) > (&other.x, other.run)
    }
}

/// One contributing run's share of a round buffer, from
/// [`RunSelector::spans`].
#[derive(Debug)]
pub(crate) struct Span<'a, T> {
    /// The caller's slot of the run.
    pub(crate) slot: usize,
    /// The run's tag.
    pub(crate) run: u32,
    /// Position of the run's first member.
    pub(crate) first: u64,
    /// Number of members.
    pub(crate) len: usize,
    /// The largest member.
    pub(crate) last: &'a T,
}

impl<T> Span<'_, T> {
    /// Position of the largest member.
    pub(crate) fn last_pos(&self) -> u64 {
        self.first + self.len as u64 - 1
    }
}

/// The `cap` smallest distinct `(element, run, position)` candidates
/// offered in a round, from the blocks of sorted runs (see the module
/// docs). One selector serves every round of a merge.
#[derive(Debug)]
pub(crate) struct RunSelector<T> {
    cap: usize,
    /// Candidates above the boundary offered so far.
    seen: usize,
    /// Members held: `min(cap, seen)`.
    held: usize,
    /// Stretches in the order their runs first contributed.
    stretches: Vec<Stretch<T>>,
    /// Stretch index by the caller's run slot, `ABSENT` if none.
    at: Vec<usize>,
    /// Once full: the ends of the non-empty stretches, as a max-heap.
    heap: Vec<End<T>>,
    /// Emptied member buffers for later rounds' stretches, holding room
    /// for at most `cap + 8·slots` elements together.
    spare: Vec<Vec<T>>,
}

impl<T: Ord + Clone> RunSelector<T> {
    /// An empty buffer keeping at most `cap ≥ 1` candidates per round from
    /// runs the caller numbers `0..slots`.
    pub(crate) fn new(cap: usize, slots: usize) -> Self {
        assert!(cap >= 1, "a selector keeps at least one candidate");
        Self {
            cap,
            seen: 0,
            held: 0,
            stretches: Vec::new(),
            at: vec![ABSENT; slots],
            heap: Vec::new(),
            spare: Vec::new(),
        }
    }

    /// Number of candidates the model holds: `min(cap, seen)`.
    pub(crate) fn len(&self) -> usize {
        self.held
    }

    /// The largest member once the buffer is full, else `None`.
    pub(crate) fn full_max(&self) -> Option<(&T, u32, u64)> {
        if self.held < self.cap {
            return None;
        }
        self.heap.first().map(End::tag)
    }

    /// The largest member, full or not (the round's new boundary).
    pub(crate) fn max_member(&self) -> Option<(&T, u32, u64)> {
        self.spans().map(|s| (s.last, s.run, s.last_pos())).max()
    }

    /// Each contributing run's members, in the order the runs first
    /// contributed.
    pub(crate) fn spans(&self) -> impl Iterator<Item = Span<'_, T>> {
        self.stretches.iter().filter_map(|s| {
            let (len, last) = match s.heap_at {
                ABSENT => (s.members.len(), s.members.last()?),
                h => (s.members.len() + 1, &self.heap[h].x),
            };
            Some(Span {
                slot: s.slot,
                run: s.run,
                first: s.first,
                len,
                last,
            })
        })
    }

    /// Offer one block of the sorted run `run` (the caller's slot `slot`),
    /// borrowed from the machine: the block's `i`-th element `x` is the
    /// candidate `(x, run, first + i)`. Tags at or below `boundary` are not
    /// candidates. Every test compares through references, so an element
    /// is cloned only when it enters the buffer. Returns how many members
    /// the buffer gained.
    pub(crate) fn offer(
        &mut self,
        block: &[T],
        slot: usize,
        run: u32,
        first: u64,
        boundary: Option<&RunTag<T>>,
    ) -> usize {
        debug_assert!(
            block.windows(2).all(|w| w[0] <= w[1]),
            "offer needs a sorted block"
        );
        let before = self.held;
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
        // Until the buffer is full every candidate enters, in one copy.
        let fill = (self.cap - self.held).min(block.len() - start);
        if fill > 0 {
            let s = self.stretch(slot, run, first + start as u64);
            self.stretches[s]
                .members
                .extend_from_slice(&block[start..start + fill]);
            self.held += fill;
            if self.held == self.cap {
                self.heapify();
            }
        }
        // Anything left is offered to a full buffer. Each entering element
        // drops the maximum of the other stretches: this run's own members
        // lie below the rest of its block, so its stretch is never the
        // maximum an element of the block beats, and the entering elements
        // join it in one copy after the scan.
        let (rest, mut end) = (start + fill, start + fill);
        while end < block.len() {
            match self.heap.first() {
                Some(max) if tag(end) < max.tag() => {}
                _ => break, // the rest of the block is larger still
            }
            self.drop_max();
            end += 1;
        }
        if end > rest {
            let s = self.stretch(slot, run, first + rest as u64);
            let (x, pos) = (block[end - 1].clone(), first + end as u64 - 1);
            let stretch = &mut self.stretches[s];
            match stretch.heap_at {
                ABSENT => {
                    stretch.members.extend_from_slice(&block[rest..end - 1]);
                    self.heap.push(End {
                        x,
                        run,
                        pos,
                        stretch: s,
                    });
                    self.sift_up(self.heap.len() - 1);
                }
                h => {
                    // The stretch's old end steps down into its members.
                    let old = std::mem::replace(&mut self.heap[h].x, x);
                    stretch.members.push(old);
                    stretch.members.extend_from_slice(&block[rest..end - 1]);
                    self.heap[h].pos = pos;
                    self.sift_up(h);
                }
            }
        }
        self.held - before
    }

    /// The kept candidates in ascending order, untagged, leaving the
    /// buffer empty for the next round. The stretches are laid out by run
    /// and, when there are several, merged by a stable sort, which finds
    /// them as ascending runs and orders equal elements by run and then by
    /// position, as the tags do. The member buffers are kept, within a
    /// bound, for the next round's stretches.
    pub(crate) fn take_sorted(&mut self) -> Vec<T> {
        for end in self.heap.drain(..) {
            self.stretches[end.stretch].members.push(end.x);
        }
        let mut by_run: Vec<(u32, usize)> = (self.stretches.iter().enumerate())
            .filter(|(_, s)| !s.members.is_empty())
            .map(|(i, s)| (s.run, i))
            .collect();
        by_run.sort_unstable();
        let mut out = Vec::with_capacity(self.held);
        for &(_, i) in &by_run {
            out.append(&mut self.stretches[i].members);
        }
        if by_run.len() > 1 {
            out.sort();
        }
        let mut room = self.cap + 8 * self.at.len();
        room -= self
            .spare
            .iter()
            .map(Vec::capacity)
            .sum::<usize>()
            .min(room);
        for s in self.stretches.drain(..) {
            self.at[s.slot] = ABSENT;
            if s.members.capacity() <= room {
                room -= s.members.capacity();
                self.spare.push(s.members);
            }
        }
        (self.seen, self.held) = (0, 0);
        out
    }

    /// The stretch of `slot`, created with its first member at `pos` if
    /// the run has none yet.
    fn stretch(&mut self, slot: usize, run: u32, pos: u64) -> usize {
        if self.at[slot] == ABSENT {
            self.at[slot] = self.stretches.len();
            self.stretches.push(Stretch {
                slot,
                run,
                first: pos,
                members: self.spare.pop().unwrap_or_default(),
                heap_at: ABSENT,
            });
        }
        let s = self.at[slot];
        let st = &self.stretches[s];
        debug_assert_eq!(
            st.first + st.members.len() as u64 + u64::from(st.heap_at != ABSENT),
            pos,
            "a run's members are consecutive positions"
        );
        s
    }

    /// Move each non-empty stretch's largest member into a heap entry and
    /// order the entries.
    fn heapify(&mut self) {
        for (s, st) in self.stretches.iter_mut().enumerate() {
            if let Some(x) = st.members.pop() {
                st.heap_at = self.heap.len();
                self.heap.push(End {
                    x,
                    run: st.run,
                    pos: st.first + st.members.len() as u64,
                    stretch: s,
                });
            }
        }
        for h in (0..self.heap.len() / 2).rev() {
            self.sift_down(h);
        }
    }

    /// Drop the buffer maximum: its stretch's next member becomes the
    /// stretch's end, or the emptied stretch leaves the heap.
    fn drop_max(&mut self) {
        let s = self.heap[0].stretch;
        match self.stretches[s].members.pop() {
            Some(x) => {
                self.heap[0].x = x;
                self.heap[0].pos -= 1;
            }
            None => {
                self.stretches[s].heap_at = ABSENT;
                self.heap.swap_remove(0);
                if self.heap.is_empty() {
                    return;
                }
            }
        }
        self.sift_down(0);
    }

    /// Record where heap entry `h` sits.
    fn place(&mut self, h: usize) {
        self.stretches[self.heap[h].stretch].heap_at = h;
    }

    fn sift_up(&mut self, mut h: usize) {
        while h > 0 {
            let parent = (h - 1) / 2;
            if !self.heap[h].above(&self.heap[parent]) {
                break;
            }
            self.heap.swap(h, parent);
            self.place(h);
            h = parent;
        }
        self.place(h);
    }

    fn sift_down(&mut self, mut h: usize) {
        loop {
            let (l, r) = (2 * h + 1, 2 * h + 2);
            let mut top = h;
            if l < self.heap.len() && self.heap[l].above(&self.heap[top]) {
                top = l;
            }
            if r < self.heap.len() && self.heap[r].above(&self.heap[top]) {
                top = r;
            }
            if top == h {
                break;
            }
            self.heap.swap(h, top);
            self.place(h);
            h = top;
        }
        self.place(h);
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

    /// `blocks` blocks of tags over `runs` sorted runs. The unsorted path
    /// gets them in a shuffled block order; the sorted path in a random
    /// interleaving of the runs that keeps each run's blocks in order, as
    /// the merge and the refill read them. `distinct` bounds the key
    /// alphabet (small = duplicate-heavy).
    fn stream(
        rng: &mut SplitMix64,
        runs: u32,
        blocks: usize,
        distinct: u64,
        sorted: bool,
    ) -> Vec<Vec<Tag>> {
        let mut per_run: Vec<Vec<Vec<Tag>>> = Vec::new();
        for run in 0..runs {
            let len = blocks * B / runs as usize;
            let mut keys: Vec<u64> = (0..len).map(|_| rng.next_below(distinct)).collect();
            keys.sort_unstable();
            let run_blocks = keys
                .chunks(B)
                .enumerate()
                .map(|(blk, chunk)| {
                    chunk
                        .iter()
                        .enumerate()
                        .map(|(off, &k)| (k, run, (blk * B + off) as u64))
                        .collect()
                })
                .collect();
            per_run.push(run_blocks);
        }
        let mut out: Vec<Vec<Tag>> = Vec::new();
        if sorted {
            for r in &mut per_run {
                r.reverse();
            }
            while per_run.iter().any(|r| !r.is_empty()) {
                let r = rng.next_below_usize(per_run.len());
                if let Some(block) = per_run[r].pop() {
                    out.push(block);
                }
            }
        } else {
            out = per_run.into_iter().flatten().collect();
            rng.shuffle(&mut out);
        }
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

    /// Feed every case through one path, checking the invariants after
    /// each block; returns the number of cases run and the number of
    /// blocks that filled a buffer of more than `B` with candidates to
    /// spare.
    fn check_path(sorted: bool) -> (usize, usize) {
        let mut rng = SplitMix64::seed_from_u64(if sorted { 0x5e1 } else { 0x5e2 });
        let (mut cases, mut mid_block_fills) = (0, 0);
        for distinct in [1u64, 3, 1 << 40] {
            // 37 = 4B + 5 fills the buffer part-way through a block.
            for cap in [1, B, 37, 1000] {
                for _ in 0..6 {
                    let runs = 1 + rng.next_below(6) as u32;
                    let blocks = stream(&mut rng, runs, 24, distinct, sorted);
                    let all: Vec<Tag> = blocks.iter().flatten().copied().collect();
                    let boundary = match rng.next_below(3) {
                        0 => None,
                        _ => Some(all[rng.next_below_usize(all.len())]),
                    };
                    // A case feeds one of the two.
                    let mut run_sel = RunSelector::<u64>::new(cap, runs as usize);
                    let mut pos_sel = Selector::new(cap);
                    let mut offered: Vec<Tag> = Vec::new();
                    for block in blocks {
                        let before = if sorted { run_sel.len() } else { pos_sel.len() };
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
                            run_sel.offer(&keys, run as usize, run, first, boundary.as_ref())
                        } else {
                            let elems: Vec<(u64, u32)> = block.iter().map(|t| (t.0, t.1)).collect();
                            pos_sel.offer(&elems, first, boundary.map(nest).as_ref())
                        };
                        let after = if sorted { run_sel.len() } else { pos_sel.len() };
                        assert_eq!(after, want.len(), "len == min(cap, seen)");
                        assert_eq!(gained, after - before);
                        if sorted {
                            let full = want.len() == cap;
                            let max = want.last().filter(|_| full).map(|t| (&t.0, t.1, t.2));
                            assert_eq!(run_sel.full_max(), max);
                        }
                    }
                    let want = reference(&offered, boundary.as_ref(), cap);
                    if sorted {
                        let max = want.last().map(|t| (&t.0, t.1, t.2));
                        assert_eq!(run_sel.max_member(), max);
                        // Each run's kept members are consecutive positions:
                        // the spans give their first position, count and
                        // largest key.
                        let mut spans: Vec<(u32, u64, usize, u64)> = run_sel
                            .spans()
                            .map(|s| {
                                assert_eq!(s.slot, s.run as usize);
                                (s.run, s.first, s.len, *s.last)
                            })
                            .collect();
                        spans.sort_unstable();
                        let mut by_run = want.clone();
                        by_run.sort_unstable_by_key(|t| (t.1, t.2));
                        let mut want_spans: Vec<(u32, u64, usize, u64)> = Vec::new();
                        for (k, run, pos) in by_run {
                            match want_spans.last_mut() {
                                Some(sp) if sp.0 == run => {
                                    assert_eq!(sp.1 + sp.2 as u64, pos, "consecutive");
                                    (sp.2, sp.3) = (sp.2 + 1, k);
                                }
                                _ => want_spans.push((run, pos, 1, k)),
                            }
                        }
                        assert_eq!(spans, want_spans, "the spans are the kept set");
                        let keys: Vec<u64> = want.iter().map(|t| t.0).collect();
                        assert_eq!(run_sel.take_sorted(), keys, "kept set in order");
                        assert_eq!((run_sel.len(), run_sel.max_member()), (0, None));
                    } else {
                        let kept: Vec<Tag> = pos_sel
                            .into_sorted()
                            .into_iter()
                            .map(|((k, run), pos)| (k, run, pos))
                            .collect();
                        assert_eq!(kept, want, "kept set is the cap smallest");
                    }
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
        // The buffer fills inside a block, not only at a block boundary.
        assert!(mid_block_fills > 0);
    }

    #[test]
    fn unsorted_path_keeps_the_cap_smallest() {
        assert_eq!(check_path(false).0, 72);
    }

    #[test]
    fn unsorted_path_masks_blocks_of_any_length() {
        // Blocks of 1 to 200 elements cross the 64-element mask chunks at
        // every offset; each scan keeps the cap smallest above a boundary.
        let mut rng = SplitMix64::seed_from_u64(0x5e3);
        for len in [1usize, 63, 64, 65, 127, 128, 129, 200] {
            for cap in [1, 50, 300] {
                let keys: Vec<u64> = (0..4 * len).map(|_| rng.next_below(97)).collect();
                let tags: Vec<(u64, u64)> = keys.iter().copied().zip(0..).collect();
                let boundary = tags[rng.next_below_usize(tags.len())];
                let mut sel = Selector::new(cap);
                for (blk, block) in keys.chunks(len).enumerate() {
                    sel.offer(block, (blk * len) as u64, Some(&boundary));
                }
                let mut want: Vec<(u64, u64)> =
                    tags.iter().copied().filter(|t| *t > boundary).collect();
                want.sort_unstable();
                let seen = want.len();
                want.truncate(cap);
                assert_eq!(sel.len(), seen.min(cap), "len={len} cap={cap}");
                assert_eq!(sel.into_sorted(), want, "len={len} cap={cap}");
            }
        }
    }

    #[test]
    fn early_stop_follows_a_replacement() {
        // A full buffer {1, 2}; the block's 0 enters, its 5 stops the scan
        // and the 3 behind it would not have entered either.
        let mut sel = RunSelector::new(2, 2);
        sel.offer(&[1u64, 2], 0, 0, 0, None);
        assert_eq!(sel.offer(&[0u64, 5, 9], 1, 1, 0, None), 0);
        assert_eq!(sel.full_max(), Some((&1, 0, 0)));
        assert_eq!(sel.take_sorted(), vec![0, 1]);
        // The next round starts empty, with the same runs.
        sel.offer(&[5u64, 9], 0, 0, 2, Some(&(2, 0, 1)));
        assert_eq!(sel.offer(&[5u64, 6], 1, 1, 1, None), 0);
        assert_eq!(sel.full_max(), Some((&5, 1, 1)));
        assert_eq!(sel.take_sorted(), vec![5, 5]);
    }

    #[test]
    fn boundary_prefix_is_not_counted() {
        let mut sel = RunSelector::new(4, 1);
        let gained = sel.offer(&[1u64, 2, 3, 4, 5], 0, 0, 0, Some(&(3, 0, 2)));
        assert_eq!(gained, 2);
        let gained = Selector::new(4).offer(&[5u64, 1, 4, 2, 3], 0, Some(&(3, 9)));
        assert_eq!(gained, 2);
    }

    #[test]
    #[should_panic(expected = "sorted block")]
    #[cfg(debug_assertions)]
    fn sorted_path_rejects_unsorted_blocks() {
        RunSelector::new(2, 1).offer(&[2u64, 1], 0, 0, 0, None);
    }
}
