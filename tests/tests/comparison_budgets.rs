//! Host-work budgets for the sort family, counted rather than timed.
//!
//! The AEM model charges block transfers only, so the comparisons a
//! kernel makes are free in its cost and invisible to the cost gate. An
//! I/O-optimal sort should still do `O(n log n)` internal work (Arge &
//! Thorup, "RAM-Efficient External Memory Sorting"). Wall clock is too
//! noisy to gate on; comparison counts are integers, so this test holds
//! each kernel to a committed budget `count ≤ c·n·log₂ n` exactly.
//!
//! The element type is [`Counted`], a `u64` whose every `Ord`,
//! `PartialOrd` and `PartialEq` call bumps a thread-local counter. The
//! kernels compare their tagged round-buffer entries `(key, run, pos)`
//! key first, so each tuple comparison counts once, whether or not the
//! tags decide it. Debug builds also count the kernels' `debug_assert!`
//! sortedness checks; the budgets hold in both profiles.

use std::cell::Cell;
use std::cmp::Ordering;

use aem_core::sort::{em_merge_sort, merge_sort, sort_via_pq};
use aem_machine::{AemConfig, Machine, Region, Result};
use aem_workloads::KeyDist;

thread_local! {
    static COMPARISONS: Cell<u64> = const { Cell::new(0) };
}

/// A key that counts the comparisons made on it.
#[derive(Debug, Clone)]
struct Counted<T>(T);

fn tick() {
    COMPARISONS.with(|c| c.set(c.get() + 1));
}

impl<T: PartialEq> PartialEq for Counted<T> {
    fn eq(&self, other: &Self) -> bool {
        tick();
        self.0 == other.0
    }
}

impl<T: Eq> Eq for Counted<T> {}

impl<T: Ord> PartialOrd for Counted<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T: Ord> Ord for Counted<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        tick();
        self.0.cmp(&other.0)
    }
}

type Sorter = fn(&mut Machine<Counted<u64>>, Region) -> Result<Region>;

/// Sort `n` keys of `dist` on `(mem, b, omega)`, check the output and
/// return the comparisons made by the sort alone.
fn comparisons(
    sorter: Sorter,
    (mem, b, omega): (usize, usize, u64),
    dist: KeyDist,
    n: usize,
) -> u64 {
    let keys = dist.generate(n);
    let mut m: Machine<Counted<u64>> = Machine::new(AemConfig::new(mem, b, omega).unwrap());
    let input: Vec<Counted<u64>> = keys.iter().copied().map(Counted).collect();
    let r = m.install(&input);
    let before = COMPARISONS.with(Cell::get);
    let out = sorter(&mut m, r).unwrap();
    let count = COMPARISONS.with(Cell::get) - before;
    let got: Vec<u64> = m.inspect(out).into_iter().map(|c| c.0).collect();
    let mut want = keys;
    want.sort_unstable();
    assert!(got == want, "output is not the sorted input");
    count
}

/// The gate machine of `cost_gate` with room for two merge levels.
const GATE: (usize, usize, u64) = (64, 8, 16);
/// The sim-large machine `(M, B, ω) = (2^16, 2^8, 16)`.
const LARGE: (usize, usize, u64) = (1 << 16, 1 << 8, 16);

/// One budget row `(machine, n, c)`: at most `c·n·log₂ n` comparisons on
/// `n` uniform keys. Each `c` sits within 10% above the count a debug
/// build measures (release builds skip the sortedness asserts and count
/// less). The comments give the debug count over `n·log₂ n` before the
/// loser-tree heads, the heapify-once round buffer, the by-run round
/// order of the §3.1 merge and the heap-ordered insert buffer.
type Budget = ((usize, usize, u64), usize, f64);

fn check_budgets(name: &str, sorter: Sorter, rows: &[Budget]) {
    let mut over = Vec::new();
    for &(shape, n, c) in rows {
        let count = comparisons(sorter, shape, KeyDist::Uniform { seed: 7 }, n);
        let nlogn = n as f64 * (n as f64).log2();
        let budget = (c * nlogn) as u64;
        eprintln!(
            "{name} {shape:?} n={n}: {count} comparisons = {:.3}·n·log₂ n (budget c = {c})",
            count as f64 / nlogn
        );
        if count > budget {
            over.push(format!("{name} {shape:?} n={n}: {count} > {budget}"));
        }
    }
    assert!(over.is_empty(), "over budget:\n{}", over.join("\n"));
}

#[test]
fn em_merge_sort_within_comparison_budget() {
    check_budgets(
        "em_merge_sort",
        em_merge_sort,
        &[
            (GATE, 2048, 1.15),     // was 1.45
            (LARGE, 1 << 20, 1.15), // was 1.59: a 16-way scan per element
        ],
    );
}

#[test]
fn merge_sort_within_comparison_budget() {
    check_budgets(
        "merge_sort",
        merge_sort,
        &[
            (GATE, 2048, 4.2),     // was 4.10
            (LARGE, 1 << 20, 2.3), // was 3.23
        ],
    );
}

#[test]
fn sort_via_pq_within_comparison_budget() {
    check_budgets(
        "sort_via_pq",
        sort_via_pq,
        &[
            (GATE, 2048, 5.9),           // was 7.96
            (GATE, 2047, 5.5),           // was 7.62
            (LARGE, 1 << 16, 3.05),      // was 6.11
            (LARGE, (1 << 16) - 1, 2.6), // was 517: every pop scanned the insert buffer
        ],
    );
}
