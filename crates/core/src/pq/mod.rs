//! Priority queues and run generation in the `(M, B, ω)`-AEM model.
//!
//! Sorting and priority queues are cost-equivalent in external memory
//! (Wei–Yi, see `PAPERS.md`), so a reproduction of the paper's sorting
//! bounds is incomplete without the *dynamic* side of the story. This
//! module provides it two ways:
//!
//! * [`BufferedPq`] — the **multiway-buffered** queue: an internal insert
//!   buffer and an internal *delete buffer* of `M/4` elements each, over
//!   external sorted runs whose consumption pointers live in an **external
//!   auxiliary array** exactly like the `b[i]` array of the §3 mergesort
//!   (streamed on every refill, rewritten only when a block of the run is
//!   consumed). Deletes are batched: one §3.1-style *refill round* moves
//!   the `M/4` globally smallest external elements into the delete buffer.
//!   No run keeps a resident block, so the structure never assumes
//!   `ω < B`-sized pointer state fits in memory.
//! * [`run_gen`] — replacement selection producing the initial sorted runs
//!   for mergesort under the AEM cost measure: one read pass, one write
//!   pass, runs of expected length `2(M − B)` on random inputs.
//!
//! The queue shares the budget contract of the §3.1 merge: `push` charges
//! one internal slot per element, `pop` returns the element *still
//! charged* — the caller releases it by writing it out or via
//! [`aem_machine::AemAccess::discard`].

mod buffered;
pub mod run_gen;

pub use buffered::{BufferedPq, PqParams};
pub use run_gen::{replacement_select, RunGenStats};
