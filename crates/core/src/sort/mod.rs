//! Sorting in the `(M, B, ω)`-AEM model (§3 of the paper).
//!
//! The centerpiece is [`merge_sort()`]: the paper's `ωm`-way mergesort that
//! achieves `O(ω n log_{ωm} n)` read I/Os and `O(n log_{ωm} n)` write I/Os
//! **without the `ω < B` assumption** that the earlier mergesort of
//! Blelloch et al. (SPAA '15) required. The trick (§3.1) is to keep the
//! per-run block pointers `b[i]` in *external* memory — when `ω > B` even
//! the `ωm` pointers do not fit into internal memory — and to update each
//! pointer at most once per consumed block, so pointer maintenance costs
//! only `O(n)` extra writes overall.
//!
//! Module layout:
//!
//! * [`small`] — the base case: sorting `N' ≤ ω·M/2` elements with
//!   `O(ω n')` reads and `O(n')` writes by repeated selection (Lemma 4.2 of
//!   Blelloch et al., as used by the paper's recurrence).
//! * [`merge`] — the §3.1 round-based `ωm`-way merge: `O(ω(n + m))` reads
//!   and `O(n + m)` writes for merging up to `ωm` sorted runs of `N` total
//!   elements (Theorem 3.2).
//! * `select` — the round buffers both share with the buffered priority
//!   queue: the `cap` smallest tagged candidates of a round, from unsorted
//!   blocks by masked scans, from sorted runs as one stretch per run.
//! * [`merge_sort()`] — the recursion of §3 driven bottom-up.
//! * [`em_sort`] — the classical `m`-way EM mergesort baseline, oblivious
//!   to `ω`: it pays `(1 + ω)·n` per level over `log_m n` levels, which is
//!   how the experiments exhibit the `log m` vs `log ωm` separation.
//! * `heads` — the loser tree over resident run blocks that picks the next
//!   element of the streaming merges (the baseline's and spmv's
//!   merge-add) in `⌈log₂ k⌉` comparisons.

pub mod em_sort;
pub(crate) mod heads;
pub mod heap;
pub mod merge;
pub mod merge_sort;
pub mod resident;
pub mod sample;
pub(crate) mod select;
pub mod small;
pub mod via_pq;

pub use em_sort::em_merge_sort;
pub use heap::heap_sort;
pub use merge::{merge_runs, MergeStats};
pub use merge_sort::{merge_sort, merge_sort_with_fan_in};
pub use resident::merge_runs_resident;
pub use sample::distribution_sort;
pub(crate) use select::{RunSelector, Selector};
pub use small::small_sort;
pub use via_pq::sort_via_pq;
