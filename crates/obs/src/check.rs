//! Paper-invariant checkers.
//!
//! Each checker takes a [`RunRecord`] and verifies one claim of the paper
//! against the *measured* execution, returning a [`CheckResult`] with a
//! human-readable account of the numbers involved:
//!
//! * [`check_pointer_rewrites`] — §3's pointer-maintenance discipline:
//!   auxiliary (pointer) blocks are rewritten at most once per consumed
//!   data block, so the total number of aux *re*writes cannot exceed the
//!   number of distinct data blocks read.
//! * [`check_round_structure`] — Lemma 4.1's round decomposition: the
//!   greedy split is a partition with every round within the `ωm` budget
//!   (interior rounds nearly full), internal memory never exceeds `M`, the
//!   run ends with internal memory empty, and the round-based re-execution
//!   costs at most `4·Q`.
//! * [`check_cost_sandwich`] — the measured cost sits between the §4
//!   counting lower bound (Theorem 4.5) and the closed-form upper-bound
//!   predictor for the algorithm that ran (Theorem 3.2 for the `ωm`-way
//!   merge sort), when one exists.

use aem_core::workload::WorkloadKind;
use aem_machine::rounds::{round_based_cost, round_decompose};
use aem_machine::Cost;

use crate::record::RunRecord;

/// Outcome of one invariant check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckResult {
    /// Short machine-friendly name (`"pointer-rewrites"`, …).
    pub name: String,
    /// `true` if the invariant held.
    pub passed: bool,
    /// The numbers behind the verdict, for the report.
    pub detail: String,
}

impl CheckResult {
    fn new(name: &str, passed: bool, detail: String) -> Self {
        Self {
            name: name.to_string(),
            passed,
            detail,
        }
    }

    /// `"PASS"` or `"FAIL"`.
    pub fn verdict(&self) -> &'static str {
        if self.passed {
            "PASS"
        } else {
            "FAIL"
        }
    }
}

/// §3 pointer-maintenance bound: auxiliary blocks are rewritten at most
/// once per consumed data block.
///
/// The §3 merge keeps, per run, one external pointer block that is rewritten
/// only when a data block of that run is consumed; summed over the whole
/// execution, aux rewrites (writes beyond each aux block's first) can never
/// exceed the number of distinct data blocks read. Runs that perform no
/// auxiliary I/O at all satisfy the bound trivially.
pub fn check_pointer_rewrites(rec: &RunRecord) -> CheckResult {
    use std::collections::HashMap;
    let mut aux_writes_per_block: HashMap<usize, u64> = HashMap::new();
    let mut data_blocks_read = std::collections::HashSet::new();
    for ev in &rec.trace {
        match *ev {
            aem_machine::IoEvent::Write {
                block, aux: true, ..
            } => {
                *aux_writes_per_block.entry(block.index()).or_insert(0) += 1;
            }
            aem_machine::IoEvent::Read {
                block, aux: false, ..
            } => {
                data_blocks_read.insert(block.index());
            }
            _ => {}
        }
    }
    let rewrites: u64 = aux_writes_per_block.values().map(|&w| w - 1).sum();
    let budget = data_blocks_read.len() as u64;
    let passed = rewrites <= budget;
    CheckResult::new(
        "pointer-rewrites",
        passed,
        format!(
            "{rewrites} aux rewrites across {} aux blocks vs {budget} distinct data blocks read",
            aux_writes_per_block.len()
        ),
    )
}

/// Lemma 4.1 round structure on the recorded program.
///
/// Verifies four things the round-based conversion relies on: the greedy
/// decomposition partitions the trace with every round's cost at most the
/// `ωm` budget and every interior round strictly above `ωm − ω`; internal
/// memory never exceeds `M` during the run; internal memory is empty when
/// the run ends (so rounds can snapshot/restore); and the converted
/// program's cost `round_based_cost` is at most `4·Q` — the constant of the
/// lemma's 2M-machine simulation.
pub fn check_round_structure(rec: &RunRecord) -> CheckResult {
    let cfg = rec.config;
    let budget = cfg.round_budget();
    let rounds = round_decompose(&rec.trace, cfg);
    let mut problems = Vec::new();

    // Partition: contiguous, covering, in order.
    let mut cursor = 0usize;
    for r in &rounds {
        if r.start != cursor || r.end <= r.start {
            problems.push(format!(
                "round [{},{}) breaks the partition",
                r.start, r.end
            ));
            break;
        }
        cursor = r.end;
    }
    if !rec.trace.is_empty() && cursor != rec.trace.len() {
        problems.push(format!(
            "rounds cover {cursor} of {} events",
            rec.trace.len()
        ));
    }
    for r in &rounds {
        if r.cost > budget {
            problems.push(format!(
                "round [{},{}) costs {} > budget {budget}",
                r.start, r.end, r.cost
            ));
        }
    }
    for r in rounds.iter().take(rounds.len().saturating_sub(1)) {
        if r.cost + cfg.omega <= budget {
            problems.push(format!(
                "interior round [{},{}) costs only {} (≤ {} − ω)",
                r.start, r.end, r.cost, budget
            ));
        }
    }

    // Memory discipline.
    if let Some(&peak) = rec.occupancy.iter().max() {
        if peak > cfg.memory as u64 {
            problems.push(format!(
                "internal memory peaked at {peak} > M = {}",
                cfg.memory
            ));
        }
    }
    if rec.final_internal_used != 0 {
        problems.push(format!(
            "run ended with {} elements still in internal memory",
            rec.final_internal_used
        ));
    }

    // Lemma 4.1 cost bound: converted cost ≤ 4·Q.
    let q = rec.trace.cost().q(cfg.omega);
    let q_rounds = round_based_cost(&rec.trace, cfg).q(cfg.omega);
    if q > 0 && q_rounds > 4 * q {
        problems.push(format!("round-based cost {q_rounds} > 4·Q = {}", 4 * q));
    }

    let passed = problems.is_empty();
    let detail = if passed {
        format!(
            "{} rounds, budget {budget}, round-based Q {q_rounds} ≤ 4·Q = {}, final memory empty",
            rounds.len(),
            4 * q.max(1)
        )
    } else {
        problems.join("; ")
    };
    CheckResult::new("round-structure", passed, detail)
}

/// The closed-form upper-bound predictor for a workload, if one exists.
///
/// Resolved through the workload registry (record kind/algo strings are
/// parsed with the registry's alias table, so older records spelled
/// `sort/merge` or `permute/by_sort` still price). Returns `None` for
/// algorithms without a predictor (distribution sort, heap sort, …) —
/// the sandwich check then verifies the lower bound only.
/// Also the basis of the profile layer's predictor-residual gauges
/// (measured ÷ predicted per run, [`crate::profile`]).
pub fn predicted_cost(rec: &RunRecord) -> Option<Cost> {
    let kind = WorkloadKind::from_name(&rec.workload.kind).ok()?;
    let algo = kind.descriptor().algo(&rec.workload.algo)?;
    (algo.predict)(
        rec.config,
        rec.workload.n as usize,
        rec.workload.delta as usize,
    )
}

/// Sandwich the measured cost between the paper's lower and upper bounds.
///
/// Lower: the registry's `Workload::lower_bound`, Theorem 4.5's counting
/// bound for the sorting and permuting kinds.
/// Upper: the algorithm's closed-form predictor (e.g. Theorem 3.2's
/// `O(n/B · log_{ωm} n)` merge-sort cost), when one exists. Workloads with
/// neither bound pass vacuously, with a note saying so.
pub fn check_cost_sandwich(rec: &RunRecord) -> CheckResult {
    let q = rec.q() as f64;
    let mut parts = Vec::new();
    let mut passed = true;

    let lower_bound = WorkloadKind::from_name(&rec.workload.kind)
        .ok()
        .and_then(|kind| {
            kind.descriptor()
                .lower_bound(rec.config, rec.workload.n as usize)
        });
    match lower_bound {
        Some(lb) => {
            // The lower bound is over *any* program for the worst-case
            // permutation; a measured run on one input must not beat it.
            if q < lb {
                passed = false;
                parts.push(format!("measured Q {q:.0} BEATS lower bound {lb:.1}"));
            } else {
                parts.push(format!("lower bound {lb:.1} ≤ measured Q {q:.0}"));
            }
        }
        None => parts.push(format!(
            "no §4 lower bound for kind {:?}",
            rec.workload.kind
        )),
    }

    match predicted_cost(rec) {
        Some(ub) => {
            let ub_q = ub.q(rec.config.omega) as f64;
            if q > ub_q {
                passed = false;
                parts.push(format!("measured Q {q:.0} EXCEEDS predictor {ub_q:.0}"));
            } else {
                parts.push(format!("measured Q {q:.0} ≤ predicted {ub_q:.0}"));
            }
        }
        None => parts.push(format!(
            "no predictor for {}/{}",
            rec.workload.kind, rec.workload.algo
        )),
    }

    CheckResult::new("cost-sandwich", passed, parts.join("; "))
}

/// Run all checkers on a record, in report order.
pub fn run_all(rec: &RunRecord) -> Vec<CheckResult> {
    vec![
        check_pointer_rewrites(rec),
        check_round_structure(rec),
        check_cost_sandwich(rec),
    ]
}

/// Run all checkers and return the first failing one, if any.
///
/// The convenience used by gates that need a verdict plus one message —
/// the fuzzing harness turns the returned check into a `Failure` and the
/// CI smoke steps into an exit code — without rendering a full report.
pub fn first_failure(rec: &RunRecord) -> Option<CheckResult> {
    run_all(rec).into_iter().find(|c| !c.passed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instrument::InstrumentedMachine;
    use crate::record::WorkloadMeta;
    use aem_machine::{AemConfig, BlockId, IoEvent, Trace};

    fn sorted_run(n: usize, cfg: AemConfig) -> RunRecord {
        let mut im: InstrumentedMachine<u64> = InstrumentedMachine::new(cfg);
        let input: Vec<u64> = (0..n as u64).rev().collect();
        let region = im.install(&input);
        let out = aem_core::sort::merge_sort(&mut im, region).unwrap();
        assert!(im.inspect(out).windows(2).all(|w| w[0] <= w[1]));
        im.into_sink()
            .into_record(WorkloadMeta::new("sort", "aem", n as u64))
    }

    #[test]
    fn all_checks_pass_on_a_real_merge_sort() {
        let cfg = AemConfig::new(64, 8, 16).unwrap();
        let rec = sorted_run(512, cfg);
        for check in run_all(&rec) {
            assert!(check.passed, "{}: {}", check.name, check.detail);
        }
    }

    #[test]
    fn pointer_check_fails_on_rewrite_heavy_aux_traffic() {
        let cfg = AemConfig::new(16, 4, 8).unwrap();
        let mut trace = Trace::new();
        trace.push(IoEvent::Read {
            block: BlockId(0),
            len: 4,
            aux: false,
        });
        for _ in 0..5 {
            trace.push(IoEvent::Write {
                block: BlockId(0),
                len: 4,
                aux: true,
            });
        }
        let rec = RunRecord {
            config: cfg,
            workload: WorkloadMeta::new("synthetic", "x", 4),
            trace,
            occupancy: vec![4; 6],
            final_internal_used: 0,
            phases: vec![],
            metrics: crate::metrics::Metrics::new(),
        };
        let check = check_pointer_rewrites(&rec);
        assert!(!check.passed);
        assert!(check.detail.contains("4 aux rewrites"));
    }

    #[test]
    fn round_check_fails_when_memory_is_not_empty_at_end() {
        let cfg = AemConfig::new(16, 4, 8).unwrap();
        let mut trace = Trace::new();
        trace.push(IoEvent::Read {
            block: BlockId(0),
            len: 4,
            aux: false,
        });
        let rec = RunRecord {
            config: cfg,
            workload: WorkloadMeta::new("synthetic", "x", 4),
            trace,
            occupancy: vec![4],
            final_internal_used: 4,
            phases: vec![],
            metrics: crate::metrics::Metrics::new(),
        };
        let check = check_round_structure(&rec);
        assert!(!check.passed);
        assert!(check.detail.contains("still in internal memory"));
    }

    #[test]
    fn round_check_fails_when_occupancy_exceeds_capacity() {
        let cfg = AemConfig::new(16, 4, 8).unwrap();
        let mut trace = Trace::new();
        trace.push(IoEvent::Read {
            block: BlockId(0),
            len: 4,
            aux: false,
        });
        let rec = RunRecord {
            config: cfg,
            workload: WorkloadMeta::new("synthetic", "x", 4),
            trace,
            occupancy: vec![99],
            final_internal_used: 0,
            phases: vec![],
            metrics: crate::metrics::Metrics::new(),
        };
        let check = check_round_structure(&rec);
        assert!(!check.passed);
        assert!(check.detail.contains("peaked"));
    }

    #[test]
    fn sandwich_detects_an_impossibly_cheap_run() {
        let cfg = AemConfig::new(16, 4, 8).unwrap();
        // A large "sort" that claims to have done almost no I/O must beat
        // the counting lower bound and fail.
        let mut trace = Trace::new();
        trace.push(IoEvent::Read {
            block: BlockId(0),
            len: 4,
            aux: false,
        });
        let rec = RunRecord {
            config: cfg,
            workload: WorkloadMeta::new("sort", "custom", 1 << 16),
            trace,
            occupancy: vec![4],
            final_internal_used: 0,
            phases: vec![],
            metrics: crate::metrics::Metrics::new(),
        };
        let check = check_cost_sandwich(&rec);
        assert!(!check.passed);
        assert!(check.detail.contains("BEATS"));
    }

    #[test]
    fn sandwich_is_vacuous_without_any_bound() {
        let cfg = AemConfig::new(16, 4, 8).unwrap();
        let rec = RunRecord {
            config: cfg,
            workload: WorkloadMeta::new("synthetic", "x", 4),
            trace: Trace::new(),
            occupancy: vec![],
            final_internal_used: 0,
            phases: vec![],
            metrics: crate::metrics::Metrics::new(),
        };
        let check = check_cost_sandwich(&rec);
        assert!(check.passed);
        assert!(check.detail.contains("no §4 lower bound"));
        assert!(check.detail.contains("no predictor"));
    }

    #[test]
    fn em_sort_passes_with_its_own_predictor() {
        let cfg = AemConfig::new(64, 8, 16).unwrap();
        let mut im: InstrumentedMachine<u64> = InstrumentedMachine::new(cfg);
        let n = 256usize;
        let input: Vec<u64> = (0..n as u64).rev().collect();
        let region = im.install(&input);
        let out = aem_core::sort::em_merge_sort(&mut im, region).unwrap();
        assert!(im.inspect(out).windows(2).all(|w| w[0] <= w[1]));
        let rec = im
            .into_sink()
            .into_record(WorkloadMeta::new("sort", "em", n as u64));
        for check in run_all(&rec) {
            assert!(check.passed, "{}: {}", check.name, check.detail);
        }
    }

    #[test]
    fn pq_sort_passes_with_its_own_predictor() {
        // The buffered-PQ sorter follows the §3 pointer discipline, so all
        // three checkers — including the sandwich against its own
        // predictor — must hold on a real run.
        let cfg = AemConfig::new(64, 8, 16).unwrap();
        let mut im: InstrumentedMachine<u64> = InstrumentedMachine::new(cfg);
        let n = 700usize;
        let input: Vec<u64> = (0..n as u64).rev().collect();
        let region = im.install(&input);
        let out = aem_core::sort::sort_via_pq(&mut im, region).unwrap();
        assert!(im.inspect(out).windows(2).all(|w| w[0] <= w[1]));
        let rec = im
            .into_sink()
            .into_record(WorkloadMeta::new("sort", "pq", n as u64));
        assert!(
            rec.phases.iter().any(|p| p.name == "pq-build")
                && rec.phases.iter().any(|p| p.name == "pq-drain"),
            "sorter phases are annotated"
        );
        for check in run_all(&rec) {
            assert!(check.passed, "{}: {}", check.name, check.detail);
        }
    }

    #[test]
    fn verdict_strings() {
        let ok = CheckResult::new("x", true, String::new());
        let bad = CheckResult::new("x", false, String::new());
        assert_eq!(ok.verdict(), "PASS");
        assert_eq!(bad.verdict(), "FAIL");
    }
}
