//! Fault injection must reach borrowed reads.
//!
//! The probe kernels read through `AemAccess::read_block_with`.
//! [`OffByOneMachine`] overrides only `read_block`, so its faults reach
//! those reads through the trait's default method. These runs go through
//! the registry (`run_workload`) on a faulty machine and check two
//! things: faults were injected at the stride's rate, borrowed reads
//! included, and the registry's own output check rejected the run. A
//! wrapper that later overrides `read_block_with` without faulting it
//! makes the first check fail.

use aem_core::workload::{
    run_workload, Body, Harness, Payload, RunCtx, Verified, WorkloadError, WorkloadKind,
};
use aem_fuzz::fault::OffByOneMachine;
use aem_machine::{AemAccess, AemConfig, Machine};

/// Runs each body on a fresh [`OffByOneMachine`] over the vec machine and
/// remembers how many reads it metered and how many it redirected.
struct Faulty {
    stride: u64,
    reads: u64,
    faults: u64,
}

impl Harness for Faulty {
    type Out = Verified;
    fn run<T: Payload>(
        &mut self,
        ctx: &RunCtx,
        body: Body<'_, T>,
    ) -> Result<Verified, WorkloadError> {
        let mut m = OffByOneMachine::new(Machine::<T>::new(ctx.cfg), self.stride);
        let out = body(&mut m);
        self.reads = m.cost().reads;
        self.faults = m.faults_injected;
        out
    }
}

fn faulted_run(kind: WorkloadKind, algo: &str, n: usize, delta: usize, stride: u64) {
    let cfg = AemConfig::new(64, 8, 4).unwrap();
    let ctx = RunCtx::new(kind, algo, cfg, n, delta, 1).unwrap();

    // The same run on an unfaulted machine passes its check.
    let mut clean = Faulty {
        stride: u64::MAX,
        reads: 0,
        faults: 0,
    };
    assert!(run_workload(&ctx, &mut clean).unwrap().verified);
    assert_eq!(clean.faults, 0);

    let mut h = Faulty {
        stride,
        reads: 0,
        faults: 0,
    };
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
    faulted_run(WorkloadKind::Bfs, "mark", 200, 3, 9);
}

#[test]
fn search_btree_faults_are_caught_by_the_output_check() {
    faulted_run(WorkloadKind::Search, "btree", 700, 60, 5);
}
