//! Fuzz targets: one differential check per registered algorithm, plus
//! the harness-level specials no single workload owns.
//!
//! The table is *generated from the workload registry*
//! ([`aem_core::workload::WorkloadKind::ALL`]): every
//! [`AlgoSpec`](aem_core::workload::AlgoSpec) contributes one target
//! named by its stable `fuzz_target` field (corpus seed files reference
//! these names). A registry target runs the kind's seeded instance
//! through [`run_workload`] on an instrumented machine
//! ([`aem_obs::ProfileHarness`]) and checks three layers:
//!
//! 1. **Differential correctness** — the workload body verifies the
//!    machine output against the in-memory oracle exactly (sorted order
//!    for sorters, the gathered permutation, semiring output equality
//!    for SpMxV per Theorem 5.1, lookup answers for the search family).
//! 2. **Predictor upper bound** — the metered cost may never exceed the
//!    algorithm's closed-form menu price (`AlgoSpec::predict`), the
//!    Theorem 3.2 / Theorem 4.5-upper-branch contract the planner
//!    quotes from.
//! 3. **Paper invariants on the record** — for algorithms flagged
//!    `invariants`: the `aem-obs` checkers (§3 pointer-rewrite
//!    discipline, Lemma 4.1 round structure, the cost sandwich) plus
//!    exact round-cost conservation
//!    ([`aem_machine::rounds::rounds_cost`] must equal `Q`).
//!
//! Three specials ride alongside: `pq_ops` (interleaved queue schedule
//! vs `BinaryHeap`), `flash_lemma43` (the Lemma 4.3 flash-volume
//! reduction), and `backend_diff` (one program, every backend,
//! identical metered cost). Registering a new workload kind adds its
//! fuzz targets here without touching this file.
//!
//! A target never panics by design; the runner additionally wraps every
//! call in `catch_unwind` so that a panicking algorithm is reported as an
//! ordinary failure with a shrunk repro, not a harness crash.

use aem_core::permute::permute_naive_on;
use aem_core::pq::BufferedPq;
use aem_core::sort::merge_sort;
use aem_core::workload::{run_workload, RunCtx, WorkloadError, WorkloadKind};
use aem_flash::driver::naive_atom_permutation;
use aem_flash::verify_lemma_4_3;
use aem_machine::rounds::{round_decompose, rounds_cost};
use aem_machine::{
    with_backend_machine, with_payload_machine, AemAccess, AemConfig, Backend, Cost, MachineError,
};
use aem_obs::{first_failure, tail_from_record, ProfileHarness, RunRecord};
use aem_workloads::PermKind;

use crate::case::FuzzCase;

/// Outcome of one target on one case.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// All checks held.
    Pass,
    /// The case cannot run on this target (e.g. the config is outside the
    /// algorithm's declared parameter range). Not a failure.
    Skip(String),
    /// A check failed; the message says which and with what numbers.
    Fail(String),
}

impl Outcome {
    /// `true` for [`Outcome::Fail`].
    pub fn is_fail(&self) -> bool {
        matches!(self, Outcome::Fail(_))
    }
}

/// What a target actually runs.
#[derive(Clone, Copy)]
enum Check {
    /// A registry algorithm: the kind's seeded instance through
    /// [`run_workload`] with differential + predictor + invariant checks.
    Registry(WorkloadKind, &'static str),
    /// A hand-written harness check (queue schedules, flash reduction,
    /// cross-backend diff).
    Special(SpecialCheck),
}

/// A hand-written check's function signature.
type SpecialCheck = fn(&FuzzCase, Backend) -> Outcome;

/// A named fuzz target.
#[derive(Clone, Copy)]
pub struct Target {
    /// Stable name, used by `--target` filters, seed files and replay
    /// commands. For registry targets this is
    /// [`AlgoSpec::fuzz_target`](aem_core::workload::AlgoSpec::fuzz_target).
    pub name: &'static str,
    check: Check,
}

impl Target {
    /// Run the target's check against one storage backend. Targets whose
    /// algorithm is not ghost-sound return [`Outcome::Skip`] on the ghost
    /// backend rather than comparing placeholder data to the oracle.
    pub fn run(&self, case: &FuzzCase, backend: Backend) -> Outcome {
        match self.check {
            Check::Registry(kind, algo) => registry_check(kind, algo, case, backend),
            Check::Special(f) => f(case, backend),
        }
    }
}

impl std::fmt::Debug for Target {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Target").field("name", &self.name).finish()
    }
}

/// Every built-in target, in report order: the registry's algorithms in
/// canonical kind order (deduplicated on `fuzz_target` — the buffered PQ
/// backs both the `sort/pq` candidate and the `pq` kind), then the
/// specials.
pub fn all_targets() -> Vec<Target> {
    let mut out: Vec<Target> = Vec::new();
    for kind in WorkloadKind::ALL {
        for algo in kind.descriptor().algos {
            if out.iter().any(|t| t.name == algo.fuzz_target) {
                continue;
            }
            out.push(Target {
                name: algo.fuzz_target,
                check: Check::Registry(kind, algo.name),
            });
        }
    }
    let specials: [(&'static str, SpecialCheck); 3] = [
        ("pq_ops", pq_ops_check),
        ("flash_lemma43", flash_check),
        ("backend_diff", backend_diff_check),
    ];
    for (name, f) in specials {
        out.push(Target {
            name,
            check: Check::Special(f),
        });
    }
    out
}

/// Resolve `--target` filter patterns (exact names or prefixes, comma
/// logic handled by the caller) to targets. Unknown patterns are an
/// error listing the valid names.
pub fn select_targets(patterns: Option<&[String]>) -> Result<Vec<Target>, String> {
    let all = all_targets();
    let Some(pats) = patterns else { return Ok(all) };
    let mut out: Vec<Target> = Vec::new();
    for p in pats {
        let matched: Vec<&Target> = all
            .iter()
            .filter(|t| t.name.len() >= p.len() && t.name[..p.len()].eq_ignore_ascii_case(p))
            .collect();
        if matched.is_empty() {
            let names: Vec<&str> = all.iter().map(|t| t.name).collect();
            return Err(format!(
                "unknown fuzz target '{p}'; valid targets: {}",
                names.join(", ")
            ));
        }
        for t in matched {
            if !out.iter().any(|o| o.name == t.name) {
                out.push(*t);
            }
        }
    }
    Ok(out)
}

/// Classify a machine error: configs an algorithm explicitly rejects are
/// skips, everything else (overflow, underflow, malformed traces) is the
/// kind of bug the fuzzer exists to find.
fn machine_error(context: &str, e: MachineError) -> Outcome {
    match e {
        MachineError::InvalidConfig(_) => Outcome::Skip(format!("{context}: {e}")),
        other => Outcome::Fail(format!("{context}: machine error: {other}")),
    }
}

/// Shared invariant suite on an instrumented record: the obs checkers
/// (pointer rewrites, Lemma 4.1 round structure, cost sandwich) plus
/// exact round-cost conservation.
fn record_invariants(rec: &RunRecord) -> Result<(), String> {
    if let Some(c) = first_failure(rec) {
        return Err(format!("invariant {}: {}", c.name, c.detail));
    }
    let cfg = rec.config;
    let q = rec.trace.cost().q(cfg.omega);
    let split = rounds_cost(&round_decompose(&rec.trace, cfg));
    if split != q {
        return Err(format!(
            "Lemma 4.1 conservation: round costs sum to {split}, trace Q = {q}"
        ));
    }
    Ok(())
}

/// One registry algorithm on one case: the kind's seeded instance
/// through [`run_workload`] on an instrumented machine. The workload
/// body performs the differential check (exact oracle equality); this
/// wrapper adds the predictor upper bound (equality for an
/// [`exact`](aem_core::workload::AlgoSpec::exact) predictor) and, for
/// `invariants` algorithms, the record invariant suite.
fn registry_check(
    kind: WorkloadKind,
    algo_name: &'static str,
    case: &FuzzCase,
    backend: Backend,
) -> Outcome {
    let cfg = match case.cfg() {
        Ok(cfg) => cfg,
        Err(e) => return Outcome::Skip(format!("config: {e}")),
    };
    let algo = kind
        .descriptor()
        .algo(algo_name)
        .expect("target table names a registered algorithm");
    if !backend.carries_payload() && !algo.ghost_sound {
        let why = if algo.ghost_note.is_empty() {
            "schedule is payload-routed"
        } else {
            algo.ghost_note
        };
        return Outcome::Skip(format!("{algo_name}: {why}; ghost backend skipped"));
    }
    // The registry's validity predicate decides which shapes this kind
    // accepts (n = 0, delta constraints); rejected shapes are skips.
    let ctx = match RunCtx::new(kind, algo_name, cfg, case.n, case.delta, case.case_seed) {
        Ok(ctx) => ctx,
        Err(e) => return Outcome::Skip(format!("{algo_name}: {e}")),
    };
    let profiled = match run_workload(&ctx, &mut ProfileHarness { backend }) {
        Ok(p) => p,
        Err(WorkloadError::Machine(e)) => return machine_error(algo_name, e),
        Err(WorkloadError::Check(msg)) => {
            return Outcome::Fail(format!("{}/{algo_name}: {msg}", kind.name()))
        }
    };
    // Thm 3.2 / closed-form upper branch: the metered Q may never exceed
    // the menu price the planner quotes for this algorithm, and an
    // exact-schedule predictor must meet the metered cost exactly.
    if let Some(bound) = (algo.predict)(cfg, ctx.n, ctx.delta) {
        let measured = profiled.record.trace.cost();
        if algo.exact && measured != bound {
            return Outcome::Fail(format!(
                "{}/{algo_name}: measured {measured:?} differs from exact predictor {bound:?} \
                 (n={}, delta={})\n{}",
                kind.name(),
                ctx.n,
                ctx.delta,
                tail_from_record(&profiled.record, 16)
            ));
        }
        let q = measured.q(cfg.omega);
        let b = bound.q(cfg.omega);
        if q > b {
            return Outcome::Fail(format!(
                "{}/{algo_name}: measured Q {q} exceeds predictor {b} (n={}, delta={})\n{}",
                kind.name(),
                ctx.n,
                ctx.delta,
                tail_from_record(&profiled.record, 16)
            ));
        }
    }
    if algo.invariants {
        if let Err(msg) = record_invariants(&profiled.record) {
            return Outcome::Fail(format!(
                "{algo_name}: {msg}\n{}",
                tail_from_record(&profiled.record, 16)
            ));
        }
    }
    Outcome::Pass
}

/// Interleaved `push`/`pop` schedule differential: the multiway-buffered
/// queue against `std::collections::BinaryHeap` as the in-memory oracle.
///
/// The schedule is a pure function of the case seed (roughly one pop per
/// three pushes, plus a full drain), so every divergence replays exactly.
/// Beyond value equality, the target checks the budget contract: after the
/// drain every internal slot must be released (`internal_used() == 0`).
fn pq_ops_check(case: &FuzzCase, backend: Backend) -> Outcome {
    let cfg = match case.cfg() {
        Ok(cfg) => cfg,
        Err(e) => return Outcome::Skip(format!("config: {e}")),
    };
    if !backend.carries_payload() {
        return Outcome::Skip("pq_ops: the queue compares keys; ghost backend skipped".into());
    }
    let keys = case.keys();

    with_payload_machine!(backend, u64, |M| {
        let mut m = M::new(cfg);
        let mut pq = match BufferedPq::new(cfg) {
            Ok(pq) => pq,
            Err(e) => return machine_error("pq_ops", e),
        };
        let mut reference = std::collections::BinaryHeap::new();
        let step = |m: &mut M, pq: &mut BufferedPq<u64>, reference: &mut std::collections::BinaryHeap<std::cmp::Reverse<u64>>| -> Result<Option<String>, MachineError> {
            let got = pq.pop(m)?;
            if got.is_some() {
                m.discard(1)?;
            }
            let want = reference.pop().map(|std::cmp::Reverse(x)| x);
            if got != want {
                return Ok(Some(format!("pop returned {got:?}, oracle says {want:?}")));
            }
            Ok(None)
        };
        for (i, &x) in keys.iter().enumerate() {
            if let Err(e) = pq.push(&mut m, x) {
                return machine_error("pq_ops push", e);
            }
            reference.push(std::cmp::Reverse(x));
            // Seed-derived schedule: pop after roughly every third push.
            let roll = case
                .case_seed
                .wrapping_add(i as u64)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                >> 33;
            if roll % 3 == 0 {
                match step(&mut m, &mut pq, &mut reference) {
                    Ok(None) => {}
                    Ok(Some(msg)) => return Outcome::Fail(format!("pq_ops at step {i}: {msg}")),
                    Err(e) => return machine_error("pq_ops pop", e),
                }
            }
        }
        while !reference.is_empty() || !pq.is_empty() {
            match step(&mut m, &mut pq, &mut reference) {
                Ok(None) => {}
                Ok(Some(msg)) => return Outcome::Fail(format!("pq_ops drain: {msg}")),
                Err(e) => return machine_error("pq_ops drain", e),
            }
        }
        if m.internal_used() != 0 {
            return Outcome::Fail(format!(
                "pq_ops: queue leaked {} internal slots after drain",
                m.internal_used()
            ));
        }
        Outcome::Pass
    }, ghost => unreachable!("skipped above"))
}

/// Run the naive permuter for a case on one backend; returns
/// `(output, cost)`. Payload-oblivious, so `backend_diff` runs it on the
/// ghost backend too — where the returned output holds placeholders.
fn naive_permute_on_backend(
    backend: Backend,
    cfg: AemConfig,
    values: &[u64],
    pi: &[usize],
) -> Result<(Vec<u64>, Cost), MachineError> {
    with_backend_machine!(backend, u64, |M| {
        let mut m = M::new(cfg);
        let r = m.install(values);
        let out = permute_naive_on(&mut m, r, pi)?;
        Ok((m.inspect(out), m.cost()))
    })
}

/// Derive a flash-compatible configuration from a case: Lemma 4.3 needs
/// `B > ω` and `ω | B`, so the target keeps the case's block size (raised
/// to 2 if needed), sets `ω` to its largest proper divisor, and gives the
/// gather driver the `M ≥ B` it requires.
pub fn flash_config(case: &FuzzCase) -> AemConfig {
    let block = case.block.max(2);
    let omega = (1..block as u64)
        .rev()
        .find(|d| block as u64 % d == 0)
        .unwrap_or(1);
    let mem = case.mem.max(2 * block);
    AemConfig::new(mem, block, omega).expect("derived flash config is valid")
}

/// Backend-neutral: the flash reduction records and replays programs on
/// the move-semantics atom machine, which stores no payloads at all.
fn flash_check(case: &FuzzCase, _backend: Backend) -> Outcome {
    let cfg = flash_config(case);
    // Compilation walks every recorded event with hash maps; cap the
    // instance so a full fuzz session stays inside the smoke budget.
    let n = case.n.min(512);
    let pi = PermKind::Random {
        seed: case.case_seed,
    }
    .generate(n);
    let (prog, _) = match naive_atom_permutation(cfg, &pi) {
        Ok(p) => p,
        Err(e) => return machine_error("flash driver", e),
    };
    if !prog.realizes(&pi) {
        return Outcome::Fail("flash driver: atom program does not realize π".into());
    }
    let report = match verify_lemma_4_3(&prog.program, cfg) {
        Ok(r) => r,
        Err(e) => return Outcome::Fail(format!("lemma 4.3 compile/replay: {e}")),
    };
    if !report.bound_holds() {
        return Outcome::Fail(format!(
            "lemma 4.3: flash volume {} exceeds 2N + 2QB/ω = {} (N = {n}, Q = {})",
            report.flash_volume, report.volume_bound, report.aem_q
        ));
    }
    Outcome::Pass
}

/// The tentpole invariant of the pluggable-store refactor, fuzzed: one
/// program, every backend, identical metered [`Cost`] — and identical
/// output wherever the store actually carries payloads. Two program
/// families per case: the §3 mergesort across the payload-carrying
/// backends (vec, arena, trace), and the payload-oblivious naive
/// permuter across all four (including ghost). The trace backend
/// additionally checks the compiled-schedule invariant: replaying the
/// recorded schedule as pure arithmetic must reproduce the live meter
/// exactly. This target ignores the session's `--backend`; it *is* the
/// cross-backend comparison.
fn backend_diff_check(case: &FuzzCase, _backend: Backend) -> Outcome {
    let cfg = match case.cfg() {
        Ok(cfg) => cfg,
        Err(e) => return Outcome::Skip(format!("config: {e}")),
    };

    // Mergesort: vec vs arena vs trace, cost and output.
    let input = case.keys();
    let mut sort_runs: Vec<(Backend, Vec<u64>, Cost)> = Vec::new();
    for b in [Backend::Vec, Backend::Arena, Backend::Trace] {
        let run = with_payload_machine!(b, u64, |M| {
            let mut m = M::new(cfg);
            let r = m.install(&input);
            merge_sort(&mut m, r).map(|out| (m.inspect(out), m.cost()))
        }, ghost => unreachable!("loop covers payload backends only"));
        match run {
            Ok((out, cost)) => sort_runs.push((b, out, cost)),
            Err(e) => return machine_error("backend_diff/merge_sort", e),
        }
    }
    let (_, vec_out, vec_cost) = &sort_runs[0];
    let vec_sort_cost = *vec_cost;
    for (b, out, cost) in &sort_runs[1..] {
        if cost != vec_cost {
            return Outcome::Fail(format!(
                "backend_diff: merge_sort cost diverges — vec {vec_cost:?} vs {} {cost:?}",
                b.name()
            ));
        }
        if out != vec_out {
            return Outcome::Fail(format!(
                "backend_diff: merge_sort output diverges between vec and {}",
                b.name()
            ));
        }
    }

    // Naive permute: all backends must meter the identical cost;
    // the payload-carrying runs must agree on output too.
    let pi = PermKind::Random {
        seed: case.case_seed,
    }
    .generate(case.n);
    let values: Vec<u64> = (0..case.n as u64).collect();
    let mut perm_runs: Vec<(Backend, Vec<u64>, Cost)> = Vec::new();
    for b in Backend::ALL {
        match naive_permute_on_backend(b, cfg, &values, &pi) {
            Ok((out, cost)) => perm_runs.push((b, out, cost)),
            Err(e) => return machine_error("backend_diff/permute_naive", e),
        }
    }
    let (_, vec_out, vec_cost) = &perm_runs[0];
    for (b, out, cost) in &perm_runs[1..] {
        if cost != vec_cost {
            return Outcome::Fail(format!(
                "backend_diff: permute_naive cost diverges — vec {vec_cost:?} vs {} {cost:?}",
                b.name()
            ));
        }
        if b.carries_payload() && out != vec_out {
            return Outcome::Fail(format!(
                "backend_diff: permute_naive output diverges between vec and {}",
                b.name()
            ));
        }
    }

    // Compiled-trace replay: record the mergesort schedule once, then
    // re-evaluate its cost as pure arithmetic. The replayed tuple must be
    // byte-equal to the live vec meter (which sort_runs[0] holds).
    let mut tm: aem_machine::TraceMachine<u64> = aem_machine::TraceMachine::new(cfg);
    let r = tm.install(&input);
    if let Err(e) = merge_sort(&mut tm, r) {
        return machine_error("backend_diff/trace_record", e);
    }
    let live = tm.cost();
    let schedule = tm.into_schedule();
    let replayed = schedule.replay();
    if replayed != live || replayed != vec_sort_cost {
        return Outcome::Fail(format!(
            "backend_diff: replayed schedule cost {replayed:?} diverges from live {live:?} / vec {vec_sort_cost:?}"
        ));
    }
    Outcome::Pass
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::case::DistKind;

    fn tame_case() -> FuzzCase {
        FuzzCase {
            mem: 64,
            block: 8,
            omega: 16,
            n: 300,
            case_seed: 5,
            dist: DistKind::Uniform,
            delta: 3,
        }
    }

    #[test]
    fn target_table_mirrors_the_registry() {
        // One target per registered fuzz_target (names are corpus-stable),
        // registry kinds in canonical order, the specials last. The
        // buffered PQ backs both sort/pq and the pq kind — one target.
        let names: Vec<&str> = all_targets().iter().map(|t| t.name).collect();
        assert_eq!(
            names,
            vec![
                "merge_sort",
                "em_sort",
                "pq_sort",
                "dist_sort",
                "permute_naive",
                "permute_by_sort",
                "spmv_direct",
                "spmv_sorted",
                "search_binary",
                "search_btree",
                "search_eytzinger",
                "scan_materialize",
                "scan_tree",
                "scan_rescan",
                "matmul_tiled",
                "matmul_stream",
                "bfs_mark",
                "bfs_rescan",
                "pq_ops",
                "flash_lemma43",
                "backend_diff",
            ]
        );
        for kind in WorkloadKind::ALL {
            for algo in kind.descriptor().algos {
                assert!(
                    names.contains(&algo.fuzz_target),
                    "{kind}/{} has no fuzz target",
                    algo.name
                );
            }
        }
    }

    #[test]
    fn all_targets_pass_on_a_tame_case() {
        let case = tame_case();
        for t in all_targets() {
            let outcome = t.run(&case, Backend::Vec);
            assert_eq!(outcome, Outcome::Pass, "{}: {:?}", t.name, outcome);
        }
    }

    #[test]
    fn all_targets_pass_on_the_arena_backend() {
        let case = tame_case();
        for t in all_targets() {
            let outcome = t.run(&case, Backend::Arena);
            assert_eq!(outcome, Outcome::Pass, "{}: {:?}", t.name, outcome);
        }
    }

    #[test]
    fn ghost_backend_skips_payload_targets_and_passes_the_rest() {
        let case = tame_case();
        for t in all_targets() {
            let outcome = t.run(&case, Backend::Ghost);
            match t.name {
                // Ghost-sound registry algorithms (naive permute, the
                // fixed-schedule search descents, the position-routed
                // scan and matmul families) and the machine-free /
                // backend-neutral specials must still run.
                "permute_naive" | "search_binary" | "search_btree" | "scan_materialize"
                | "scan_tree" | "scan_rescan" | "matmul_tiled" | "matmul_stream"
                | "flash_lemma43" | "backend_diff" => {
                    assert_eq!(outcome, Outcome::Pass, "{}: {:?}", t.name, outcome)
                }
                _ => assert!(
                    matches!(outcome, Outcome::Skip(_)),
                    "{} must skip on ghost: {:?}",
                    t.name,
                    outcome
                ),
            }
        }
    }

    #[test]
    fn all_targets_pass_on_empty_and_singleton_inputs() {
        for n in [0usize, 1] {
            let case = FuzzCase { n, ..tame_case() };
            for t in all_targets() {
                let outcome = t.run(&case, Backend::Vec);
                assert!(!outcome.is_fail(), "{} at n={n}: {:?}", t.name, outcome);
            }
        }
    }

    #[test]
    fn target_selection_by_prefix_and_unknown_error() {
        let sel = select_targets(Some(&["spmv".to_string()])).unwrap();
        let names: Vec<&str> = sel.iter().map(|t| t.name).collect();
        assert_eq!(names, vec!["spmv_direct", "spmv_sorted"]);
        let err = select_targets(Some(&["bogus".to_string()])).unwrap_err();
        assert!(err.contains("valid targets"), "{err}");
        assert!(err.contains("merge_sort"), "{err}");
        assert_eq!(select_targets(None).unwrap().len(), all_targets().len());
    }

    #[test]
    fn flash_config_always_satisfies_lemma_preconditions() {
        for block in [1usize, 2, 3, 4, 5, 8, 16] {
            let case = FuzzCase {
                block,
                ..tame_case()
            };
            let cfg = flash_config(&case);
            assert!(
                cfg.block as u64 > cfg.omega,
                "B={} ω={}",
                cfg.block,
                cfg.omega
            );
            assert_eq!(cfg.block as u64 % cfg.omega, 0);
        }
    }
}
