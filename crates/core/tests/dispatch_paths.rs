//! `run_workload` runs each kernel on the concrete vec or ghost machine
//! when `WorkloadMachine::as_any_mut` resolves it, and through the trait
//! object otherwise. Both paths must meter, account and answer alike. The
//! arena backend builds the vec machine, so its runs take the vec path.

use aem_core::permute::DestTagged;
use aem_core::spmv::InstallExt;
use aem_core::workload::{
    run_workload, visit_backend, Body, Harness, LiveHarness, MachineVisitor, Payload, RunCtx,
    WorkloadError, WorkloadKind, WorkloadMachine,
};
use aem_machine::{AemAccess, AemConfig, Backend, BlockId, Cost, GhostMachine, Machine, Region};

type Result<T> = std::result::Result<T, aem_machine::MachineError>;

/// Forwards every call to the machine it wraps and keeps the hook's
/// default, so a body run on it takes the trait-object path.
struct Thin<M>(M);

impl<T, M: AemAccess<T>> AemAccess<T> for Thin<M> {
    fn cfg(&self) -> AemConfig {
        self.0.cfg()
    }
    fn read_block(&mut self, id: BlockId) -> Result<Vec<T>> {
        self.0.read_block(id)
    }
    fn read_block_into(&mut self, id: BlockId, buf: &mut Vec<T>) -> Result<usize> {
        self.0.read_block_into(id, buf)
    }
    fn read_block_with(&mut self, id: BlockId, f: &mut dyn FnMut(&[T])) -> Result<usize> {
        self.0.read_block_with(id, f)
    }
    fn update_block_with(
        &mut self,
        id: BlockId,
        f: &mut dyn FnMut(&mut [T]) -> bool,
    ) -> Result<bool> {
        self.0.update_block_with(id, f)
    }
    fn probe_elem(&mut self, id: BlockId, i: usize) -> Result<T>
    where
        T: Clone,
    {
        self.0.probe_elem(id, i)
    }
    fn exchange_block_into(&mut self, id: BlockId, buf: &mut Vec<T>) -> Result<usize> {
        self.0.exchange_block_into(id, buf)
    }
    fn write_block(&mut self, id: BlockId, data: Vec<T>) -> Result<()> {
        self.0.write_block(id, data)
    }
    fn read_run(&mut self, first: BlockId, count: usize, buf: &mut Vec<T>) -> Result<usize> {
        self.0.read_run(first, count, buf)
    }
    fn write_run(&mut self, first: BlockId, data: &[T]) -> Result<usize>
    where
        T: Clone,
    {
        self.0.write_run(first, data)
    }
    fn alloc_block(&mut self) -> BlockId {
        self.0.alloc_block()
    }
    fn alloc_region(&mut self, elems: usize) -> Region {
        self.0.alloc_region(elems)
    }
    fn discard(&mut self, k: usize) -> Result<()> {
        self.0.discard(k)
    }
    fn reserve(&mut self, k: usize) -> Result<()> {
        self.0.reserve(k)
    }
    fn read_aux_block(&mut self, id: BlockId) -> Result<Vec<u64>> {
        self.0.read_aux_block(id)
    }
    fn write_aux_block(&mut self, id: BlockId, data: Vec<u64>) -> Result<()> {
        self.0.write_aux_block(id, data)
    }
    fn alloc_aux_region(&mut self, words: usize) -> Region {
        self.0.alloc_aux_region(words)
    }
    fn internal_used(&self) -> usize {
        self.0.internal_used()
    }
    fn cost(&self) -> Cost {
        self.0.cost()
    }
    fn phase_enter(&mut self, name: &str) {
        self.0.phase_enter(name)
    }
    fn phase_exit(&mut self) {
        self.0.phase_exit()
    }
}

impl<T, M: InstallExt<T>> InstallExt<T> for Thin<M> {
    fn install_atoms(&mut self, data: &[T]) -> Region {
        self.0.install_atoms(data)
    }
}

impl<T, M: WorkloadMachine<T>> WorkloadMachine<T> for Thin<M> {
    fn inspect_region(&self, r: Region) -> Vec<T> {
        self.0.inspect_region(r)
    }
    fn payload_real(&self) -> bool {
        self.0.payload_real()
    }
}

/// Runs a body on `backend`'s machine, bare or inside [`Thin`], and
/// yields the cost, the internal-memory ledger after the run and the
/// checksum. Unlike [`LiveHarness`] it admits ghost for every
/// ghost-runnable algorithm.
struct On {
    backend: Backend,
    thin: bool,
}

impl Harness for On {
    type Out = (Cost, usize, u64);
    fn run<T: Payload>(
        &mut self,
        ctx: &RunCtx,
        body: Body<'_, T>,
    ) -> std::result::Result<Self::Out, WorkloadError> {
        struct Visit<'a, T>(Body<'a, T>, bool);
        impl<T: Payload> MachineVisitor<T> for Visit<'_, T> {
            type Out = std::result::Result<(Cost, usize, u64), WorkloadError>;
            fn visit<M: WorkloadMachine<T>>(self, m: M) -> Self::Out {
                fn go<T, W: WorkloadMachine<T>>(
                    body: Body<'_, T>,
                    mut m: W,
                ) -> std::result::Result<(Cost, usize, u64), WorkloadError> {
                    let v = body(&mut m)?;
                    Ok((m.cost(), m.internal_used(), v.checksum))
                }
                if self.1 {
                    go(self.0, Thin(m))
                } else {
                    go(self.0, m)
                }
            }
        }
        visit_backend(self.backend, ctx.cfg, Visit(body, self.thin))
    }
}

#[test]
fn concrete_and_dynamic_paths_agree_on_every_registered_run() {
    let mut runs = 0;
    for (mem, block, omega) in [(1024, 64, 16), (64, 8, 16)] {
        let cfg = AemConfig::new(mem, block, omega).unwrap();
        for kind in WorkloadKind::ALL {
            let w = kind.descriptor();
            for (&(n, delta), a) in w
                .gate_shapes
                .iter()
                .flat_map(|s| w.algos.iter().map(move |a| (s, a)))
            {
                let ctx = RunCtx::new(kind, a.name, cfg, n, delta, 3).unwrap();
                let backends = if a.ghost_runnable {
                    &[Backend::Vec, Backend::Ghost][..]
                } else {
                    &[Backend::Vec][..]
                };
                for &backend in backends {
                    let at = format!("{kind}/{} n={n} delta={delta} {cfg:?} {backend:?}", a.name);
                    let run = |thin| run_workload(&ctx, &mut On { backend, thin });
                    let direct = run(false).unwrap_or_else(|e| panic!("{at}: {e}"));
                    let thin = run(true).unwrap_or_else(|e| panic!("{at}: {e}"));
                    assert_eq!(direct, thin, "{at}: (cost, ledger, checksum)");
                    // The registry's own live harness takes the concrete
                    // path wherever it admits the run (ghost-sound only).
                    if let Ok(live) = run_workload(&ctx, &mut LiveHarness { backend }) {
                        assert_eq!(live, (direct.0, direct.2), "{at}: LiveHarness");
                    }
                    runs += 1;
                }
            }
        }
    }
    // 25 (algo, gate shape) pairs on vec and the 18 ghost-runnable ones
    // on ghost, on both configs.
    assert_eq!(runs, 86);
}

#[test]
fn vec_and_ghost_resolve_through_the_hook_and_the_other_backends_do_not() {
    struct Resolves;
    impl MachineVisitor<u64> for Resolves {
        type Out = (bool, bool);
        fn visit<M: WorkloadMachine<u64>>(self, mut m: M) -> Self::Out {
            let any = m.as_any_mut().expect("a bare machine returns itself");
            (
                any.downcast_mut::<Machine<u64>>().is_some(),
                any.downcast_mut::<GhostMachine<u64>>().is_some(),
            )
        }
    }
    let cfg = AemConfig::new(64, 8, 16).unwrap();
    let resolved = |b| visit_backend(b, cfg, Resolves);
    assert_eq!(resolved(Backend::Vec), (true, false));
    assert_eq!(resolved(Backend::Ghost), (false, true));
    // Arena is the vec machine under its own name.
    assert_eq!(resolved(Backend::Arena), (true, false));
    assert_eq!(resolved(Backend::Trace), (false, false));
    assert!(Thin(Machine::<u64>::new(cfg)).as_any_mut().is_none());
}

#[test]
fn arena_visits_the_vec_machine_for_every_payload() {
    // Whatever the element type, `visit_backend` hands an arena visitor
    // the bare `Machine<T>`, so arena jobs run the kernels `run_workload`
    // compiles for vec rather than the trait-object copies.
    struct IsVec;
    impl<T: Payload> MachineVisitor<T> for IsVec {
        type Out = bool;
        fn visit<M: WorkloadMachine<T>>(self, mut m: M) -> bool {
            m.as_any_mut().is_some_and(|any| any.is::<Machine<T>>())
        }
    }
    let cfg = AemConfig::new(64, 8, 16).unwrap();
    assert!(visit_backend::<u64, _>(Backend::Arena, cfg, IsVec));
    assert!(visit_backend::<DestTagged<u64>, _>(
        Backend::Arena,
        cfg,
        IsVec
    ));
    assert!(visit_backend::<(u64, u64), _>(Backend::Arena, cfg, IsVec));
    assert!(!visit_backend::<u64, _>(Backend::Trace, cfg, IsVec));
}
