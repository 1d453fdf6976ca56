//! Trace-level validation: record real algorithm executions and check the
//! *structural* claims of the analyses — not just totals.

use aem_core::sort::{em_merge_sort, merge_sort};
use aem_machine::rounds::{round_based_cost, round_decompose};
use aem_machine::{AemAccess, AemConfig, BlockId, IoEvent, Machine, Trace};
use aem_obs::{Gauge, Histogram, Metrics, PhaseNode, RunRecord, WorkloadMeta};
use aem_workloads::{KeyDist, SplitMix64};

fn record_merge_sort(cfg: AemConfig, n: usize) -> (aem_machine::Trace, u64) {
    let input = KeyDist::Uniform { seed: 11 }.generate(n);
    let mut m: Machine<u64, Trace> = Machine::new(cfg);
    let r = m.install(&input);
    merge_sort(&mut m, r).unwrap();
    let q = m.cost().q(cfg.omega);
    (m.into_sink(), q)
}

#[test]
fn trace_cost_matches_counter() {
    // The recorded program and the live meter must agree exactly.
    let cfg = AemConfig::new(64, 8, 16).unwrap();
    let (trace, q) = record_merge_sort(cfg, 4096);
    assert_eq!(trace.cost().q(cfg.omega), q);
}

#[test]
fn pointer_maintenance_is_cheap() {
    // §3.1's claim: pointer (aux) writes total O(n) over the whole merge
    // — they must be a small fraction of the data writes, and the aux
    // share of all I/O must be small.
    let cfg = AemConfig::new(64, 8, 64).unwrap(); // ω > B: pointers external
    let (trace, _) = record_merge_sort(cfg, 16384);
    let s = trace.stats();
    assert!(
        s.aux_writes > 0,
        "external pointers must actually be used at ω > B"
    );
    assert!(
        s.aux_writes <= s.data_writes,
        "pointer writes ({}) must not dominate data writes ({})",
        s.aux_writes,
        s.data_writes
    );
    assert!(s.aux_fraction() < 0.25, "aux share {}", s.aux_fraction());
}

#[test]
fn round_decomposition_is_well_formed_on_real_traces() {
    let cfg = AemConfig::new(64, 8, 8).unwrap();
    let (trace, _) = record_merge_sort(cfg, 4096);
    let rounds = round_decompose(&trace, cfg);
    assert!(!rounds.is_empty());
    let budget = cfg.round_budget();
    let omega = cfg.omega;
    // Every round within budget; all but the last above ω(m−1); spans
    // partition the trace.
    let mut next = 0usize;
    for (i, r) in rounds.iter().enumerate() {
        assert_eq!(r.start, next);
        next = r.end;
        assert!(
            r.cost <= budget,
            "round {i} cost {} > budget {budget}",
            r.cost
        );
        if i + 1 < rounds.len() {
            assert!(
                r.cost >= omega * (cfg.m() as u64 - 1),
                "interior round {i} cost {} too small",
                r.cost
            );
        }
    }
    assert_eq!(next, trace.len());
}

#[test]
fn lemma_4_1_trace_conversion_bounded_on_real_programs() {
    for omega in [1u64, 8, 64] {
        let cfg = AemConfig::new(64, 8, omega).unwrap();
        let (trace, q) = record_merge_sort(cfg, 4096);
        let q2 = round_based_cost(&trace, cfg).q(omega);
        assert!(q2 >= q);
        assert!(
            q2 <= 4 * q,
            "omega={omega}: converted cost {q2} vs original {q}"
        );
    }
}

#[test]
fn em_sort_trace_has_no_aux_io_and_no_rereads_within_level() {
    let cfg = AemConfig::new(64, 8, 4).unwrap();
    let input = KeyDist::Uniform { seed: 12 }.generate(4096);
    let mut m: Machine<u64, Trace> = Machine::new(cfg);
    let r = m.install(&input);
    em_merge_sort(&mut m, r).unwrap();
    let s = m.sink().stats();
    assert_eq!(
        s.aux_reads + s.aux_writes,
        0,
        "the EM sorter needs no external metadata"
    );
    // Streaming merges read every block exactly once.
    assert_eq!(s.max_rereads, 1);
}

/// A pseudo-random but structurally valid [`RunRecord`]: random events and
/// occupancy, a random phase forest (parents always precede children),
/// random metrics. Exercises the JSONL encoder/decoder far from the shapes
/// real algorithms produce.
fn random_record(rng: &mut SplitMix64) -> RunRecord {
    let config = AemConfig::new(
        64 << rng.next_below(4),
        8 << rng.next_below(2),
        1 + rng.next_below(128),
    )
    .unwrap();

    let n_events = rng.next_below_usize(200);
    let mut trace = Trace::new();
    let mut occupancy = Vec::with_capacity(n_events);
    for _ in 0..n_events {
        let block = BlockId(rng.next_below_usize(50));
        let len = rng.next_below_usize(config.block) + 1;
        let aux = rng.next_bool();
        trace.push(if rng.next_bool() {
            IoEvent::Read { block, len, aux }
        } else {
            IoEvent::Write { block, len, aux }
        });
        occupancy.push(rng.next_below(config.memory as u64 + 1));
    }

    let n_phases = rng.next_below_usize(12);
    let mut phases = Vec::with_capacity(n_phases);
    for i in 0..n_phases {
        phases.push(PhaseNode {
            name: format!("phase-{}", rng.next_below(1000)),
            parent: if i > 0 && rng.next_bool() {
                Some(rng.next_below_usize(i))
            } else {
                None
            },
            cost: aem_machine::Cost {
                reads: rng.next_below(10_000),
                writes: rng.next_below(10_000),
            },
            volume: rng.next_u64() >> 16,
            aux_reads: rng.next_below(1000),
            aux_writes: rng.next_below(1000),
            events: rng.next_below(10_000),
            high_water: rng.next_below(config.memory as u64 + 1),
        });
    }

    let mut metrics = Metrics::default();
    for _ in 0..rng.next_below_usize(6) {
        metrics.add(&format!("ctr.{}", rng.next_below(100)), rng.next_u64() >> 8);
    }
    for _ in 0..rng.next_below_usize(4) {
        let mut g = Gauge::default();
        g.set(rng.next_u64() >> 12);
        g.set(rng.next_u64() >> 12);
        metrics.insert_gauge(&format!("gauge.{}", rng.next_below(100)), g);
    }
    for _ in 0..rng.next_below_usize(4) {
        let mut bounds: Vec<u64> = (0..rng.next_below_usize(5) + 1)
            .map(|_| rng.next_below(1 << 20) + 1)
            .collect();
        bounds.sort_unstable();
        bounds.dedup();
        let mut h = Histogram::new(bounds);
        for _ in 0..rng.next_below_usize(50) {
            h.observe(rng.next_below(1 << 21));
        }
        metrics.insert_histogram(&format!("hist.{}", rng.next_below(100)), h);
    }

    RunRecord {
        config,
        workload: WorkloadMeta::with_delta(
            &format!("kind-{}", rng.next_below(10)),
            &format!("algo-{}", rng.next_below(10)),
            rng.next_u64() >> 4,
            rng.next_below(64),
        ),
        trace,
        occupancy,
        final_internal_used: rng.next_below(config.memory as u64 + 1),
        phases,
        metrics,
    }
}

#[test]
fn jsonl_round_trips_random_records() {
    // Property: for any structurally valid record, decode(encode(r)) == r,
    // field for field. 200 seeded shapes cover empty traces, phase
    // forests, overflow-bucket histograms and large u64 values.
    let mut rng = SplitMix64::seed_from_u64(0xA3_1337);
    for case in 0..200 {
        let rec = random_record(&mut rng);
        let text = rec.to_jsonl();
        let back = RunRecord::from_jsonl(&text).unwrap_or_else(|e| {
            panic!("case {case}: decode failed: {e}\n{text}");
        });
        assert_eq!(back, rec, "case {case} did not round-trip");
        // Encoding is deterministic: re-encoding the decoded record is
        // byte-identical.
        assert_eq!(back.to_jsonl(), text, "case {case} re-encode differs");
    }
}

#[test]
fn jsonl_rejects_corrupted_lines() {
    let mut rng = SplitMix64::seed_from_u64(7);
    let rec = random_record(&mut rng);
    let text = rec.to_jsonl();
    // Truncating or corrupting any single line must fail cleanly, never
    // panic or silently misparse.
    let lines: Vec<&str> = text.lines().collect();
    for i in 0..lines.len().min(20) {
        let mut bad: Vec<String> = lines.iter().map(|s| s.to_string()).collect();
        bad[i] = bad[i][..bad[i].len() / 2].to_string();
        let joined = bad.join("\n");
        assert!(RunRecord::from_jsonl(&joined).is_err(), "line {i}");
    }
}

#[test]
fn merge_sort_rereads_are_the_price_of_write_avoidance() {
    // The §3 merge re-reads blocks across rounds (seeding + activation);
    // the re-read factor grows with ω while writes shrink — the trade the
    // algorithm is built on, visible directly in the traces.
    let n = 8192;
    let (t1, _) = record_merge_sort(AemConfig::new(64, 8, 1).unwrap(), n);
    let (t64, _) = record_merge_sort(AemConfig::new(64, 8, 64).unwrap(), n);
    let (s1, s64) = (t1.stats(), t64.stats());
    assert!(s64.data_writes < s1.data_writes, "higher ω must write less");
    assert!(
        s64.data_reads + s64.aux_reads > s1.data_reads + s1.aux_reads,
        "…paid for with more reads"
    );
}
