//! Fault injection must reach borrowed reads, in-place updates and
//! single-element probes.
//!
//! The probe kernels read through `AemAccess::read_block_with`, and bfs
//! mark through `probe_elem` and `update_block_with`.
//! [`OffByOneMachine`] overrides only `read_block`, so its faults reach
//! those reads through the trait's default methods. These runs go through
//! the registry (`run_workload`) on a faulty machine and check two
//! things: faults were injected at the stride's rate, borrowed reads,
//! updates and probes included, and the registry's own output check
//! rejected the run. A wrapper that later overrides one of those methods
//! without faulting it makes the first check fail.
//!
//! `run_workload` runs its kernels monomorphized only on a bare vec or
//! ghost machine; the wrapper keeps `WorkloadMachine::as_any_mut`'s
//! default, so every kernel on it runs through the trait object and meets
//! the fault.
//!
//! The runs at `n ≥ 2^16` take the registry's other verification path,
//! with the oracle on a helper thread beside the kernel: a fault there is
//! still rejected, and a kernel that fails mid-run (an error, or the
//! wrapper's read-budget panic) still comes back to the caller.

use std::panic::{catch_unwind, AssertUnwindSafe};

use aem_core::workload::{
    run_workload, Body, Harness, Payload, RunCtx, Verified, WorkloadError, WorkloadKind,
};
use aem_fuzz::fault::{OffByOneMachine, READ_BUDGET};
use aem_machine::{AemAccess, AemConfig, Machine, MachineError};

/// Runs each body on a fresh [`OffByOneMachine`] over the vec machine and
/// remembers how many reads it metered and how many it redirected. A body
/// that panics (the wrapper's read budget ran out) comes back as a
/// `Check` error naming the panic, as the fuzz runner reports it.
struct Faulty {
    stride: u64,
    budget: u64,
    reads: u64,
    faults: u64,
}

impl Faulty {
    fn new(stride: u64) -> Faulty {
        Faulty {
            stride,
            budget: READ_BUDGET,
            reads: 0,
            faults: 0,
        }
    }
}

impl Harness for Faulty {
    type Out = Verified;
    fn run<T: Payload>(
        &mut self,
        ctx: &RunCtx,
        body: Body<'_, T>,
    ) -> Result<Verified, WorkloadError> {
        let mut m =
            OffByOneMachine::with_read_budget(Machine::<T>::new(ctx.cfg), self.stride, self.budget);
        let out = catch_unwind(AssertUnwindSafe(|| body(&mut m)));
        self.reads = m.cost().reads;
        self.faults = m.faults_injected;
        out.unwrap_or_else(|p| {
            let msg = p
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| p.downcast_ref::<&str>().copied())
                .unwrap_or("");
            Err(WorkloadError::Check(format!("panicked: {msg}")))
        })
    }
}

fn faulted_run(
    cfg: AemConfig,
    kind: WorkloadKind,
    algo: &str,
    n: usize,
    delta: usize,
    stride: u64,
) {
    let ctx = RunCtx::new(kind, algo, cfg, n, delta, 1).unwrap();

    // The same run on an unfaulted machine passes its check.
    let mut clean = Faulty::new(u64::MAX);
    assert!(run_workload(&ctx, &mut clean).unwrap().verified);
    assert_eq!(clean.faults, 0);

    let mut h = Faulty::new(stride);
    let res = run_workload(&ctx, &mut h);
    // Every `stride`-th read is redirected unless it would fall off the
    // end of storage; most of these kernels' reads are borrowed, so a
    // borrowed path that skipped the fault would leave far fewer.
    assert!(
        2 * h.faults * stride >= h.reads,
        "{kind}/{algo}: only {} of {} reads faulted at stride {stride}",
        h.faults,
        h.reads
    );
    match res {
        Err(WorkloadError::Check(msg)) => {
            assert!(msg.contains("verification failed"), "{kind}/{algo}: {msg}")
        }
        other => panic!("{kind}/{algo}: the output check must reject the run, got {other:?}"),
    }
}

#[test]
fn bfs_mark_faults_are_caught_by_the_output_check() {
    // Stride 1 would fault the first frontier read, a copying read, and
    // end the traversal before any borrowed read; many other strides let
    // the traversal index past a corrupted block and panic before the
    // check runs. Stride 9 reaches the check on this instance.
    faulted_run(small(), WorkloadKind::Bfs, "mark", 200, 3, 9);
}

#[test]
fn faults_reach_updates_and_probes_through_the_defaults() {
    // Stride 2 redirects every second read of block 0 to block 1.
    let mut m = OffByOneMachine::new(Machine::<u64>::new(small()), 2);
    let r = m.inner_mut().install(&(0..16).collect::<Vec<u64>>());
    let probed: Vec<u64> = (0..4)
        .map(|_| m.probe_elem(r.block(0), 3).unwrap())
        .collect();
    assert_eq!(probed, [3, 11, 3, 11]);
    assert_eq!(m.faults_injected, 2);
    // A faulted update edits block 1's contents and writes them back
    // over block 0, as the spelled-out read and write would.
    for _ in 0..2 {
        m.update_block_with(r.block(0), &mut |blk| {
            blk[0] += 100;
            true
        })
        .unwrap();
    }
    assert_eq!(m.faults_injected, 3);
    assert_eq!(m.inner().inspect(r)[..8], [108, 9, 10, 11, 12, 13, 14, 15]);
    assert_eq!(m.cost().reads, 6);
    assert_eq!(m.internal_used(), 0);
}

#[test]
fn search_btree_faults_are_caught_by_the_output_check() {
    faulted_run(small(), WorkloadKind::Search, "btree", 700, 60, 5);
}

#[test]
fn faults_reach_the_kernels_the_registry_runs_monomorphized() {
    // Search btree at its large gate shape (the ω-priced build and 1024
    // descents), binary search's borrowed probes, and the tiled matmul's
    // tile reads.
    faulted_run(small(), WorkloadKind::Search, "btree", 2048, 1024, 5);
    faulted_run(small(), WorkloadKind::Search, "binary", 700, 60, 7);
    faulted_run(small(), WorkloadKind::Matmul, "tiled", 400, 0, 7);
}

fn small() -> AemConfig {
    AemConfig::new(64, 8, 4).unwrap()
}

fn large() -> AemConfig {
    AemConfig::new(1024, 64, 16).unwrap()
}

#[test]
fn faults_beside_the_oracle_thread_are_caught_by_the_output_check() {
    // As on the small instances, these strides let the corrupted lookups
    // and prefix queries run to the check rather than panic first.
    faulted_run(large(), WorkloadKind::Search, "btree", 1 << 16, 256, 3);
    faulted_run(large(), WorkloadKind::Scan, "tree", 1 << 16, 64, 5);
}

#[test]
fn kernel_failures_beside_the_oracle_thread_come_back_as_err() {
    // A kernel error: marking BFS refuses M < 4B before its first I/O,
    // while the oracle traverses 2^16 vertices.
    let cfg = AemConfig::new(16, 8, 4).unwrap();
    let ctx = RunCtx::new(WorkloadKind::Bfs, "mark", cfg, 1 << 16, 3, 1).unwrap();
    let res = run_workload(&ctx, &mut Faulty::new(u64::MAX));
    assert!(
        matches!(
            res,
            Err(WorkloadError::Machine(MachineError::InvalidConfig(_)))
        ),
        "{res:?}"
    );

    // A kernel that dies mid-run: the read budget runs out partway
    // through the sort, and the panic reaches the harness.
    let ctx = RunCtx::new(WorkloadKind::Sort, "aem", large(), 1 << 16, 0, 1).unwrap();
    let mut h = Faulty {
        budget: 1000,
        ..Faulty::new(u64::MAX)
    };
    match run_workload(&ctx, &mut h) {
        Err(WorkloadError::Check(msg)) => assert!(msg.contains("read budget"), "{msg}"),
        other => panic!("the read-budget panic must come back as Err, got {other:?}"),
    }
    assert_eq!(h.reads, 1000);
}
