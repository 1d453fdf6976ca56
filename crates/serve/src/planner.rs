//! Pricing and plan selection.
//!
//! Every job is priced *before* execution by the paper's closed-form
//! predictors: the planner asks the workload registry
//! ([`aem_core::workload`]) for its kind's candidate menu, picks the
//! algorithm with the least predicted `Q = Q_r + ω·Q_w`, and then chooses
//! a backend under the soundness rules established in
//! `docs/COST_MODEL.md`:
//!
//! * **ghost** only for payload-oblivious plans (the naive permuter's
//!   schedule never depends on payloads; the sorters' do);
//! * **trace** for other cost-only jobs, so a repeated `(kind, algo,
//!   config, n, seed)` cell can be re-priced by compiled-trace replay
//!   instead of a fresh simulation — replay cost equals live cost by
//!   contract, which keeps metering deterministic under cache races;
//! * **vec** for payload-carrying jobs, labelled **arena** from
//!   [`ARENA_THRESHOLD`] elements up. Both names build the vec machine;
//!   the arena label only tags the job's spans and answers.

use crate::protocol::{JobKind, JobSpec};
use aem_machine::{AemConfig, Backend, Cost};

/// Payload-carrying jobs at or above this size are labelled with the arena
/// backend (which runs the vec machine).
pub const ARENA_THRESHOLD: usize = 4096;

/// Where the service refuses to simulate: an element count above this is
/// priceable (quotes are pure arithmetic) but not executable.
pub const MAX_EXEC_ELEMS: usize = 1 << 22;

/// A priced execution plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Plan {
    /// Validated machine shape.
    pub cfg: AemConfig,
    /// The chosen algorithm (a key understood by [`crate::exec`]).
    pub algo: &'static str,
    /// The chosen backend.
    pub backend: Backend,
    /// Predicted component costs for the chosen algorithm.
    pub predicted: Cost,
    /// `predicted` collapsed under the job's ω (saturating).
    pub q: u64,
}

/// A candidate menu: each eligible algorithm with its predicted cost.
pub type Menu = Vec<(&'static str, Cost)>;

/// Validate a spec and price it: the candidate menu plus the cheapest
/// entry. Pure arithmetic — no simulation, no allocation proportional to
/// `n` — so quoting is effectively free.
pub fn price(spec: &JobSpec) -> Result<(AemConfig, Menu), String> {
    let cfg = AemConfig::new(spec.mem, spec.block, spec.omega).map_err(|e| e.to_string())?;
    let w = spec.kind.descriptor();
    w.validate(spec.n, spec.delta)?;
    let menu = w.menu(cfg, spec.n, spec.delta);
    if menu.is_empty() {
        return Err(format!("no eligible algorithm for '{}' on {cfg}", w.name));
    }
    Ok((cfg, menu))
}

/// `true` when a ghost (cost-only occupancy) store prices `algo` exactly —
/// straight from the registry's per-algorithm flag, so the planner, the
/// CLI, and the fuzz backend matrix cannot drift apart.
pub fn ghost_sound(kind: JobKind, algo: &str) -> bool {
    kind.descriptor().algo(algo).is_some_and(|a| a.ghost_sound)
}

/// Pick the cheapest eligible algorithm and a sound backend for `spec`.
pub fn plan(spec: &JobSpec) -> Result<Plan, String> {
    let (cfg, menu) = price(spec)?;
    // Exact prices, earliest entry on ties, as `Workload::cheapest`.
    let (algo, predicted) = menu
        .into_iter()
        .min_by_key(|(_, c)| c.q_exact(spec.omega))
        .expect("menu is non-empty");
    let backend = match spec.backend.as_deref() {
        Some(name) => {
            let b = Backend::from_name(name)?;
            if b == Backend::Ghost && (spec.payload || !ghost_sound(spec.kind, algo)) {
                return Err(format!(
                    "ghost is unsound for {}/{algo} (payload-routed schedule)",
                    spec.kind.name()
                ));
            }
            b
        }
        None if !spec.payload && ghost_sound(spec.kind, algo) => Backend::Ghost,
        None if !spec.payload => Backend::Trace,
        None if spec.n >= ARENA_THRESHOLD => Backend::Arena,
        None => Backend::Vec,
    };
    Ok(Plan {
        cfg,
        algo,
        backend,
        predicted,
        q: predicted.q(spec.omega),
    })
}

/// `true` when the plan is executable (quotes have no such limit).
pub fn executable(spec: &JobSpec) -> Result<(), String> {
    if spec.n > MAX_EXEC_ELEMS {
        return Err(format!(
            "n={} exceeds the execution limit {MAX_EXEC_ELEMS}; use a quote",
            spec.n
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(kind: JobKind, n: usize, payload: bool) -> JobSpec {
        JobSpec {
            id: 1,
            kind,
            n,
            mem: 1024,
            block: 64,
            omega: 16,
            delta: 4,
            seed: 7,
            payload,
            backend: None,
        }
    }

    #[test]
    fn planner_is_deterministic_and_priced_by_the_menu_minimum() {
        let s = spec(JobKind::Sort, 4096, true);
        let p1 = plan(&s).unwrap();
        let p2 = plan(&s).unwrap();
        assert_eq!(p1, p2);
        let (_, menu) = price(&s).unwrap();
        assert_eq!(p1.q, menu.iter().map(|(_, c)| c.q(16)).min().unwrap());
    }

    #[test]
    fn cost_only_routing_respects_ghost_soundness() {
        // Naive-permute territory (huge n): ghost. Sort: never ghost.
        let mut perm = spec(JobKind::Permute, 1 << 20, false);
        assert_eq!(plan(&perm).unwrap().backend, Backend::Ghost);
        assert_eq!(plan(&perm).unwrap().algo, "naive");
        let sort = spec(JobKind::Sort, 4096, false);
        assert_eq!(plan(&sort).unwrap().backend, Backend::Trace);
        // Forcing ghost where the schedule is payload-routed is refused.
        perm.backend = Some("ghost".into());
        perm.n = 4096; // by-sort wins here, which is payload-routed
        assert!(plan(&perm).is_err());
    }

    #[test]
    fn payload_jobs_split_vec_arena_on_size() {
        assert_eq!(
            plan(&spec(JobKind::Sort, 256, true)).unwrap().backend,
            Backend::Vec
        );
        assert_eq!(
            plan(&spec(JobKind::Sort, ARENA_THRESHOLD, true))
                .unwrap()
                .backend,
            Backend::Arena
        );
    }

    #[test]
    fn invalid_specs_are_errors_not_panics() {
        let mut s = spec(JobKind::Sort, 0, true);
        assert!(plan(&s).is_err()); // n = 0
        s.n = 64;
        s.mem = 4;
        s.block = 64;
        assert!(plan(&s).is_err()); // M < 2B
        let mut sp = spec(JobKind::Spmv, 64, true);
        sp.delta = 0;
        assert!(plan(&sp).is_err());
        let mut pq = spec(JobKind::Pq, 64, true);
        pq.mem = 16;
        pq.block = 4;
        pq.omega = 2;
        assert!(plan(&pq).is_err()); // M < 8B: no eligible algorithm
    }
}
