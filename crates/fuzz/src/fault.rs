//! Fault injection: deliberately broken machines for validating the
//! harness itself.
//!
//! A fuzzer that has never caught a bug is indistinguishable from one
//! that cannot. [`OffByOneMachine`] wraps any [`AemAccess`] machine and
//! silently redirects every `stride`-th data-block read to the *next*
//! block id — the classic off-by-one block-pointer bug. Running a
//! correct algorithm on it must make the differential check fail, and
//! the shrinker must reduce the failure to a minimal case; the
//! `broken_merge` integration test pins both properties.

use aem_core::spmv::InstallExt;
use aem_core::workload::WorkloadMachine;
use aem_machine::{AemAccess, AemConfig, BlockId, Cost, MachineError, Region};

type Result<T> = std::result::Result<T, MachineError>;

/// Read budget before the wrapper panics. Corrupted block contents can
/// send an otherwise-correct algorithm into a livelock (a merge cursor
/// that never reaches its end), and no differential check fires on a run
/// that never finishes — so after this many reads the wrapper panics,
/// which the harness already converts into a failure. Orders of
/// magnitude above any legitimate run at fuzz-sized `n`.
pub const READ_BUDGET: u64 = 1_000_000;

/// A machine whose every `stride`-th data-block read fetches the block
/// *after* the requested one. Reads that would fall off the end of
/// allocated storage (or otherwise error) fall back to the true block,
/// so the fault corrupts data instead of crashing the run. Panics after
/// [`READ_BUDGET`] reads so a corruption-induced livelock still
/// surfaces as a (panic) failure.
#[derive(Debug)]
pub struct OffByOneMachine<A> {
    inner: A,
    stride: u64,
    budget: u64,
    reads_seen: u64,
    /// Number of reads actually redirected.
    pub faults_injected: u64,
}

impl<A> OffByOneMachine<A> {
    /// Wrap `inner`, redirecting every `stride`-th data read (`stride ≥ 1`).
    pub fn new(inner: A, stride: u64) -> Self {
        Self::with_read_budget(inner, stride, READ_BUDGET)
    }

    /// Like [`OffByOneMachine::new`] but with an explicit read budget —
    /// tests that want a deterministic mid-phase panic (the flight
    /// recorder's dump-on-panic test) set a budget far below
    /// [`READ_BUDGET`].
    pub fn with_read_budget(inner: A, stride: u64, budget: u64) -> Self {
        OffByOneMachine {
            inner,
            stride: stride.max(1),
            budget: budget.max(1),
            reads_seen: 0,
            faults_injected: 0,
        }
    }

    /// The wrapped machine.
    pub fn inner(&self) -> &A {
        &self.inner
    }

    /// The wrapped machine, mutably (for `install`).
    pub fn inner_mut(&mut self) -> &mut A {
        &mut self.inner
    }
}

impl<T, A: AemAccess<T>> AemAccess<T> for OffByOneMachine<A> {
    fn cfg(&self) -> AemConfig {
        self.inner.cfg()
    }

    fn read_block(&mut self, id: BlockId) -> Result<Vec<T>> {
        self.reads_seen += 1;
        assert!(
            self.reads_seen <= self.budget,
            "OffByOneMachine: read budget exhausted ({} reads) — \
             the injected corruption livelocked the algorithm",
            self.budget
        );
        if self.reads_seen % self.stride == 0 {
            if let Ok(data) = self.inner.read_block(BlockId(id.0 + 1)) {
                self.faults_injected += 1;
                return Ok(data);
            }
        }
        self.inner.read_block(id)
    }

    fn write_block(&mut self, id: BlockId, data: Vec<T>) -> Result<()> {
        self.inner.write_block(id, data)
    }

    fn alloc_block(&mut self) -> BlockId {
        self.inner.alloc_block()
    }

    fn alloc_region(&mut self, elems: usize) -> Region {
        self.inner.alloc_region(elems)
    }

    fn discard(&mut self, k: usize) -> Result<()> {
        self.inner.discard(k)
    }

    fn reserve(&mut self, k: usize) -> Result<()> {
        self.inner.reserve(k)
    }

    fn read_aux_block(&mut self, id: BlockId) -> Result<Vec<u64>> {
        self.inner.read_aux_block(id)
    }

    fn write_aux_block(&mut self, id: BlockId, data: Vec<u64>) -> Result<()> {
        self.inner.write_aux_block(id, data)
    }

    fn alloc_aux_region(&mut self, words: usize) -> Region {
        self.inner.alloc_aux_region(words)
    }

    fn internal_used(&self) -> usize {
        self.inner.internal_used()
    }

    fn cost(&self) -> Cost {
        self.inner.cost()
    }

    fn phase_enter(&mut self, name: &str) {
        self.inner.phase_enter(name)
    }

    fn phase_exit(&mut self) {
        self.inner.phase_exit()
    }
}

// Registry bodies run through `&mut dyn WorkloadMachine<T>`, so the
// wrapper is one too: installation and inspection go straight to the
// wrapped machine (they are free and unfaulted), every metered read
// passes through the fault. It keeps `as_any_mut`'s default `None`:
// `run_workload` runs its kernels monomorphized only on a bare vec or
// ghost machine it can downcast to, so on the wrapper they stay on the
// trait object and no read can skip the fault by reaching the machine
// inside.
impl<T, A: InstallExt<T>> InstallExt<T> for OffByOneMachine<A> {
    fn install_atoms(&mut self, data: &[T]) -> Region {
        self.inner.install_atoms(data)
    }
}

impl<T, A: WorkloadMachine<T>> WorkloadMachine<T> for OffByOneMachine<A> {
    fn inspect_region(&self, r: Region) -> Vec<T> {
        self.inner.inspect_region(r)
    }
    fn payload_real(&self) -> bool {
        self.inner.payload_real()
    }
}

/// Differential check of `merge_sort` running on an [`OffByOneMachine`]
/// (every data read redirected). Correct harness behaviour is for this
/// to [`Outcome::Fail`](crate::targets::Outcome::Fail) on any case large enough to read data blocks.
pub fn broken_merge_check(case: &crate::case::FuzzCase) -> crate::targets::Outcome {
    use crate::targets::Outcome;
    use aem_core::oracle;
    use aem_core::sort::merge_sort;
    use aem_machine::Machine;

    let cfg = match case.cfg() {
        Ok(cfg) => cfg,
        Err(e) => return Outcome::Skip(format!("config: {e}")),
    };
    let input = case.keys();
    let want = oracle::sorted_reference(&input);
    let mut m = OffByOneMachine::new(Machine::<u64>::new(cfg), 1);
    let region = m.inner_mut().install(&input);
    let out = match merge_sort(&mut m, region) {
        Ok(out) => out,
        Err(e) => return Outcome::Fail(format!("broken merge: machine error: {e}")),
    };
    let got = m.inner().inspect(out);
    if got != want {
        return Outcome::Fail(format!(
            "broken merge: output diverges from oracle ({} faults injected)",
            m.faults_injected
        ));
    }
    Outcome::Pass
}

#[cfg(test)]
mod tests {
    use super::*;
    use aem_machine::Machine;

    #[test]
    fn redirects_reads_and_counts_faults() {
        let cfg = AemConfig::new(16, 4, 2).unwrap();
        let mut m = OffByOneMachine::new(Machine::<u64>::new(cfg), 1);
        let r = m.inner_mut().install(&(0..8).collect::<Vec<u64>>());
        // Reading block 0 with stride 1 fetches block 1's contents.
        let data = m.read_block(r.block(0)).unwrap();
        assert_eq!(data, vec![4, 5, 6, 7]);
        assert_eq!(m.faults_injected, 1);
        m.discard(data.len()).unwrap();
    }

    #[test]
    fn the_wrapper_never_resolves_to_the_machine_inside() {
        let cfg = AemConfig::new(16, 4, 2).unwrap();
        let mut bare = Machine::<u64>::new(cfg);
        let any = WorkloadMachine::<u64>::as_any_mut(&mut bare).unwrap();
        assert!(any.downcast_mut::<Machine<u64>>().is_some());
        let mut wrapped = OffByOneMachine::new(Machine::<u64>::new(cfg), 1);
        assert!(WorkloadMachine::<u64>::as_any_mut(&mut wrapped).is_none());
    }

    #[test]
    fn falls_back_when_past_the_end() {
        let cfg = AemConfig::new(16, 4, 2).unwrap();
        let mut m = OffByOneMachine::new(Machine::<u64>::new(cfg), 1);
        let r = m.inner_mut().install(&(0..4).collect::<Vec<u64>>());
        // Block 1 does not exist; the faulty read falls back to block 0.
        let data = m.read_block(r.block(0)).unwrap();
        assert_eq!(data, vec![0, 1, 2, 3]);
        assert_eq!(m.faults_injected, 0);
        m.discard(data.len()).unwrap();
    }
}
