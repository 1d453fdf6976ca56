//! sim-large: every registered kind through `aem_core::workload::run_workload`
//! at one large machine shape, in process, on one thread.

use crate::spans::Tracer;
use aem_core::workload::{
    run_workload, visit_backend, AlgoSpec, Body, Harness, MachineVisitor, Payload, RunCtx,
    WorkloadError, WorkloadKind, WorkloadMachine,
};
use aem_machine::{AemConfig, Backend, Cost};
use aem_workloads::SplitMix64;
use std::time::Instant;

/// The sim-large machine `(M, B, ω)`.
pub const SHAPE: (usize, usize, u64) = (1 << 16, 1 << 8, 16);

/// Per kind `(n, δ)` at [`SHAPE`]: working sets of 1–8 MiB of payload,
/// far beyond the serve shapes, sized so each run takes 50–250 ms of
/// host time; search and scan get enough lookups and queries that their
/// query phase is real work.
const SIZES: [(WorkloadKind, usize, usize); 8] = [
    (WorkloadKind::Sort, 1 << 20, 0),
    (WorkloadKind::Permute, 1 << 19, 0),
    (WorkloadKind::Spmv, 1 << 17, 4),
    (WorkloadKind::Pq, 1 << 18, 0),
    (WorkloadKind::Search, 1 << 20, 1 << 17),
    (WorkloadKind::Scan, 1 << 20, 512),
    (WorkloadKind::Matmul, 384 * 384, 0),
    (WorkloadKind::Bfs, 1 << 18, 4),
];

/// Instance seeds `19 + 60·x` select uniform sort keys, random graphs and
/// random scan values.
const RESIDUE: u64 = 19;

pub fn cfg() -> AemConfig {
    AemConfig::new(SHAPE.0, SHAPE.1, SHAPE.2).expect("sim-large shape is valid")
}

/// One kind at the sim-large shape, run with the planner's choice: the
/// registry's cheapest algorithm there.
#[derive(Debug, Clone, Copy)]
pub struct Cell {
    pub kind: WorkloadKind,
    pub algo: &'static AlgoSpec,
    pub n: usize,
    pub delta: usize,
}

impl Cell {
    /// Backends of the timed passes: vec, plus ghost where the algorithm
    /// runs on ghost placeholders.
    pub fn timed_backends(&self) -> Vec<Backend> {
        let mut b = vec![Backend::Vec];
        if self.algo.ghost_runnable {
            b.push(Backend::Ghost);
        }
        b
    }

    /// Every backend a traced run reports for this cell.
    pub fn backends(&self) -> Vec<Backend> {
        let mut b = self.timed_backends();
        b.push(Backend::Trace);
        b
    }

    pub fn predicted(&self) -> Cost {
        (self.algo.predict)(cfg(), self.n, self.delta).expect("cheapest algorithm is priced")
    }
}

pub fn cells() -> Vec<Cell> {
    SIZES
        .iter()
        .map(|&(kind, n, delta)| {
            let w = kind.descriptor();
            let (name, _) = w
                .cheapest(cfg(), n, delta)
                .expect("every kind has a priced algorithm at the sim-large shape");
            Cell {
                kind,
                algo: w.algo(name).expect("menu names resolve"),
                n,
                delta,
            }
        })
        .collect()
}

/// The fixed instance seed of cell `i`.
pub fn instance_seed(i: usize) -> u64 {
    RESIDUE + 60 * (1 + i as u64)
}

/// The order in which a pass runs the cells: the only thing `--seed`
/// changes, so every seed runs the same work.
pub fn order(seed: u64) -> Vec<usize> {
    let mut o: Vec<usize> = (0..SIZES.len()).collect();
    SplitMix64::seed_from_u64(seed ^ 0x51A1_0000_0000_0003).shuffle(&mut o);
    o
}

/// The registry context that runs `c`, the cell at index `i`.
pub fn ctx(c: &Cell, i: usize) -> Result<RunCtx, String> {
    RunCtx::new(c.kind, c.algo.name, cfg(), c.n, c.delta, instance_seed(i))
}

/// Runs a body on any backend, ghost included for every ghost-runnable
/// algorithm (the registry's own live harness admits only ghost-sound
/// ones, whose ghost cost is exact).
struct On(Backend);

impl Harness for On {
    type Out = (Cost, u64);
    fn run<T: Payload>(
        &mut self,
        ctx: &RunCtx,
        body: Body<'_, T>,
    ) -> Result<Self::Out, WorkloadError> {
        struct Visit<'a, T>(Body<'a, T>);
        impl<T: Payload> MachineVisitor<T> for Visit<'_, T> {
            type Out = Result<(Cost, u64), WorkloadError>;
            fn visit<M: WorkloadMachine<T>>(self, mut m: M) -> Self::Out {
                let v = (self.0)(&mut m)?;
                Ok((m.cost(), v.checksum))
            }
        }
        visit_backend(self.0, ctx.cfg, Visit(body))
    }
}

/// One registry run.
#[derive(Debug, Clone, Copy)]
pub struct Run {
    pub cell: usize,
    pub backend: Backend,
    pub cost: Cost,
    pub checksum: u64,
}

/// Run cell `i` on `backend` with a span around the call.
pub fn run_cell(
    cells: &[Cell],
    i: usize,
    backend: Backend,
    tr: &mut Tracer,
    req: u64,
) -> Result<Run, String> {
    let c = cells[i];
    let ctx = ctx(&c, i)?;
    let s = tr.enter("core.run_workload", req);
    let r = run_workload(&ctx, &mut On(backend));
    let ios = r.as_ref().map_or(0, |(c, _)| c.total_ios());
    tr.exit_exec(s, c.kind.name(), backend.name(), ios);
    let (cost, checksum) =
        r.map_err(|e| format!("{}/{} on {}: {e}", c.kind, c.algo.name, backend.name()))?;
    Ok(Run {
        cell: i,
        backend,
        cost,
        checksum,
    })
}

/// Returns without running the body: `run_workload` has built the seeded
/// instance and its oracle answer by the time it hands the body over.
struct BuildOnly;

impl Harness for BuildOnly {
    type Out = ();
    fn run<T: Payload>(&mut self, _: &RunCtx, _: Body<'_, T>) -> Result<(), WorkloadError> {
        Ok(())
    }
}

/// Host ns `run_workload` spends on `ctx` before the machine runs: the
/// workload generator and the RAM oracle.
pub fn build_ns(ctx: &RunCtx) -> Result<u64, String> {
    let t = Instant::now();
    run_workload(ctx, &mut BuildOnly).map_err(|e| e.to_string())?;
    Ok(t.elapsed().as_nanos() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cells_cover_every_kind_with_a_fixed_menu_choice() {
        let cs = cells();
        assert_eq!(cs.len(), WorkloadKind::ALL.len());
        for (c, k) in cs.iter().zip(WorkloadKind::ALL) {
            assert_eq!(c.kind, k);
            assert!(c.kind.descriptor().validate(c.n, c.delta).is_ok());
        }
        assert!(cs.iter().any(|c| c.algo.ghost_runnable));
        assert_eq!(order(4), order(4));
        assert_ne!(order(4), order(5));
        let mut sorted = order(4);
        sorted.sort();
        assert_eq!(sorted, (0..cs.len()).collect::<Vec<_>>());
    }
}
