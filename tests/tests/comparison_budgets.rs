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
//!
//! Copies are host work too: every `Clone` of a [`Counted`] bumps a second
//! counter, the machine's copying reads and writes included. An element
//! crosses the host boundary about once per element of each block moved,
//! so copy budgets are `c′·(Q_r + Q_w)·B` for the run's own metered cost.

use std::cell::Cell;
use std::cmp::Ordering;

use aem_core::sort::{distribution_sort, em_merge_sort, merge_sort, sort_via_pq};
use aem_machine::{AemAccess, AemConfig, Cost, Machine, Region, Result};
use aem_workloads::KeyDist;

thread_local! {
    static COMPARISONS: Cell<u64> = const { Cell::new(0) };
    static CLONES: Cell<u64> = const { Cell::new(0) };
}

/// A key that counts the comparisons and copies made of it.
#[derive(Debug)]
struct Counted<T>(T);

fn tick() {
    COMPARISONS.with(|c| c.set(c.get() + 1));
}

impl<T: Clone> Clone for Counted<T> {
    fn clone(&self) -> Self {
        CLONES.with(|c| c.set(c.get() + 1));
        Counted(self.0.clone())
    }
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

/// The host work of one sort: comparisons, clones and the metered cost.
struct Work {
    comparisons: u64,
    clones: u64,
    cost: Cost,
}

/// Sort `n` uniform keys on `(mem, b, omega)`, check the output and
/// return the work done by the sort alone.
fn work(sorter: Sorter, (mem, b, omega): (usize, usize, u64), n: usize) -> Work {
    let keys = KeyDist::Uniform { seed: 7 }.generate(n);
    let mut m: Machine<Counted<u64>> = Machine::new(AemConfig::new(mem, b, omega).unwrap());
    let input: Vec<Counted<u64>> = keys.iter().copied().map(Counted).collect();
    let r = m.install(&input);
    let before = (COMPARISONS.with(Cell::get), CLONES.with(Cell::get));
    let out = sorter(&mut m, r).unwrap();
    let comparisons = COMPARISONS.with(Cell::get) - before.0;
    let clones = CLONES.with(Cell::get) - before.1;
    let got: Vec<u64> = m.inspect(out).into_iter().map(|c| c.0).collect();
    let mut want = keys;
    want.sort_unstable();
    assert!(got == want, "output is not the sorted input");
    Work {
        comparisons,
        clones,
        cost: m.cost(),
    }
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
/// order of the §3.1 merge and the heap-ordered insert buffer; a bare
/// figure is the count the row was added at, and `a → b` the count before
/// and after the masked selection scans, the per-run stretches of the
/// merge's round buffer and the append-only insert buffer.
type Budget = ((usize, usize, u64), usize, f64);

fn check_budgets(name: &str, sorter: Sorter, rows: &[Budget]) {
    let mut over = Vec::new();
    for &(shape, n, c) in rows {
        let count = work(sorter, shape, n).comparisons;
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
            (GATE, 2048, 3.85),     // was 4.10; 3.853 → 3.532
            (LARGE, 1 << 20, 2.15), // was 3.23; 2.085 → 1.957
            (LARGE, 1 << 19, 2.05), // one small_sort of nine passes: 1.922 → 1.900
        ],
    );
}

#[test]
fn distribution_sort_within_comparison_budget() {
    check_budgets(
        "distribution_sort",
        distribution_sort,
        &[
            (GATE, 2048, 1.65),    // 1.519
            (LARGE, 1 << 20, 1.2), // 1.098
        ],
    );
}

#[test]
fn sort_via_pq_within_comparison_budget() {
    check_budgets(
        "sort_via_pq",
        sort_via_pq,
        &[
            (GATE, 2048, 4.0),            // was 7.96; 4.894 → 3.667
            (GATE, 2047, 4.05),           // was 7.62; 4.809 → 3.688
            (LARGE, 1 << 16, 1.45),       // was 6.11; 1.953 → 1.345
            (LARGE, (1 << 16) - 1, 1.35), // was 517 (every pop scanned the insert buffer); 1.775 → 1.236
        ],
    );
}

/// One copy-budget row `(machine, n, c′)`: at most `c′·(Q_r + Q_w)·B`
/// clones on `n` uniform keys. Each `c′` sits within 10% above the
/// measured count; the comments give the count before `small_sort`
/// scanned borrowed blocks and cloned only the elements entering its pool,
/// then (second figure) before the §3.1 merge and the queue's refill scans
/// did the same; a bare figure is the count the row was added at.
type CloneBudget = ((usize, usize, u64), usize, f64);

fn check_clone_budgets(name: &str, sorter: Sorter, rows: &[CloneBudget]) {
    let mut over = Vec::new();
    for &(shape, n, c) in rows {
        let w = work(sorter, shape, n);
        let moved = (w.cost.reads + w.cost.writes) as f64 * shape.1 as f64;
        let budget = (c * moved) as u64;
        eprintln!(
            "{name} {shape:?} n={n}: {} clones = {:.3}·(Q_r + Q_w)·B (budget c′ = {c})",
            w.clones,
            w.clones as f64 / moved
        );
        if w.clones > budget {
            over.push(format!("{name} {shape:?} n={n}: {} > {budget}", w.clones));
        }
    }
    assert!(over.is_empty(), "over budget:\n{}", over.join("\n"));
}

#[test]
fn em_merge_sort_within_clone_budget() {
    check_clone_budgets(
        "em_merge_sort",
        em_merge_sort,
        &[
            (GATE, 2048, 0.55),     // was 0.500
            (LARGE, 1 << 20, 0.55), // was 0.500
        ],
    );
}

#[test]
fn merge_sort_within_clone_budget() {
    // The base runs are `small_sort`'s scans.
    check_clone_budgets(
        "merge_sort",
        merge_sort,
        &[
            (GATE, 2048, 0.40),     // was 0.903, 0.470
            (LARGE, 1 << 20, 0.44), // was 0.916, 0.409
            (LARGE, 1 << 19, 0.31), // 0.288: one small_sort of nine passes
        ],
    );
}

#[test]
fn distribution_sort_within_clone_budget() {
    check_clone_budgets(
        "distribution_sort",
        distribution_sort,
        &[
            (GATE, 2048, 0.58),     // 0.531
            (LARGE, 1 << 20, 0.56), // 0.510
        ],
    );
}

#[test]
fn sort_via_pq_within_clone_budget() {
    check_clone_budgets(
        "sort_via_pq",
        sort_via_pq,
        &[
            (GATE, 2048, 0.61),     // was 0.743, 0.743
            (LARGE, 1 << 16, 0.93), // was 0.859, 0.859
        ],
    );
}
