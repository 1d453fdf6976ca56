//! The sim-large workload: timed registry runs, their checks, and the
//! traced per-kind breakdown.

use crate::calib;
use crate::catalog::{Report, IO_BACKENDS};
use crate::golden::{self, Totals};
use crate::sim::{self, Cell, Run};
use crate::spans::Tracer;
use crate::stats::{median, peak_rss_mb};
use crate::Ctx;
use aem_core::workload::WorkloadKind;
use aem_machine::{Backend, Cost};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Set-ups (warm-up passes) per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;

/// One pass's outcome: the runs that completed, how many failed, and
/// their summed host time, raw and scaled to the reference host speed.
struct Pass {
    runs: Vec<Run>,
    failed: u64,
    raw_s: f64,
    scaled_s: f64,
}

/// Every cell in the seeded `order`, on each of its `backends`, each run
/// right after a measurement of the host's speed.
fn pass(
    cells: &[Cell],
    order: &[usize],
    backends: &dyn Fn(&Cell) -> Vec<Backend>,
    tr: &mut Tracer,
) -> Pass {
    let mut p = Pass {
        runs: Vec::new(),
        failed: 0,
        raw_s: 0.0,
        scaled_s: 0.0,
    };
    for &i in order {
        for b in backends(&cells[i]) {
            let slowdown = calib::slowdown(1);
            let t = Instant::now();
            let r = sim::run_cell(cells, i, b, tr, p.runs.len() as u64);
            let secs = t.elapsed().as_secs_f64();
            p.raw_s += secs;
            p.scaled_s += secs / slowdown;
            match r {
                Ok(r) => p.runs.push(r),
                Err(e) => {
                    eprintln!("FAILED: {e}");
                    p.failed += 1;
                }
            }
        }
    }
    p
}

/// Checks that need no second pass: a vec run's payload was verified by
/// the registry (its checksum is non-zero), and a ghost run of a
/// ghost-sound algorithm prices exactly what vec measured.
fn check_pass(cells: &[Cell], p: &Pass) -> u64 {
    let vec_cost: BTreeMap<usize, Cost> = p
        .runs
        .iter()
        .filter(|r| r.backend == Backend::Vec)
        .map(|r| (r.cell, r.cost))
        .collect();
    p.runs
        .iter()
        .filter(|r| match r.backend {
            Backend::Ghost => {
                cells[r.cell].algo.ghost_sound && vec_cost.get(&r.cell) != Some(&r.cost)
            }
            Backend::Vec | Backend::Trace => r.checksum == 0,
            Backend::Arena => false,
        })
        .inspect(|r| {
            eprintln!(
                "FAILED: {} on {}: output check",
                cells[r.cell].kind,
                r.backend.name()
            )
        })
        .count() as u64
}

type Outcome = (usize, &'static str, Cost, u64);

/// A pass's outcomes, whatever order it ran the cells in.
fn outcomes(p: &Pass) -> Vec<Outcome> {
    let mut o: Vec<Outcome> = p
        .runs
        .iter()
        .map(|r| (r.cell, r.backend.name(), r.cost, r.checksum))
        .collect();
    o.sort_by_key(|o| (o.0, o.1));
    o
}

fn pass_totals(p: &Pass) -> Totals {
    let (reads, writes) = p
        .runs
        .iter()
        .fold((0, 0), |(r, w), x| (r + x.cost.reads, w + x.cost.writes));
    Totals {
        reads,
        writes,
        ..Totals::default()
    }
}

/// Exact per-pass totals (one untimed pass; every seed runs the same work).
pub fn pinned_totals() -> Result<Totals, String> {
    let cells = sim::cells();
    let p = pass(
        &cells,
        &sim::order(0),
        &Cell::timed_backends,
        &mut Tracer::new(false),
    );
    if p.failed > 0 || check_pass(&cells, &p) > 0 {
        return Err("sim-large: a run failed its check".into());
    }
    Ok(pass_totals(&p))
}

pub fn run(cx: &Ctx) -> Result<Report, String> {
    let cells = sim::cells();
    let order = sim::order(cx.seed);
    let timed_backends = &Cell::timed_backends;
    let mut off = Tracer::new(false);
    let mut drift = Vec::new();

    // Set-up: untimed warm-up passes in the registry's order, the same for
    // every seed, so that the peak memory read after them is too; the
    // first fixes the reference outcome every later pass must repeat.
    let setups = if cx.traced { 1 } else { SETUPS };
    let registry_order: Vec<usize> = (0..cells.len()).collect();
    let mut setup_s = Vec::new();
    let mut reference = None;
    let mut setup_failed = 0;
    for _ in 0..setups {
        let p = pass(&cells, &registry_order, timed_backends, &mut off);
        setup_s.push(p.scaled_s);
        setup_failed += p.failed + check_pass(&cells, &p);
        match &reference {
            None => reference = Some((outcomes(&p), pass_totals(&p))),
            Some((o, _)) if *o != outcomes(&p) => drift.push("warm-up passes differ".to_string()),
            Some(_) => {}
        }
    }
    let (ref_outcomes, ref_totals) = reference.expect("at least one set-up");
    let rss_mb = peak_rss_mb(std::process::id())?;
    if setup_failed > 0 {
        drift.push(format!("{setup_failed} warm-up runs failed"));
    }

    let deadline = Duration::from_secs(cx.seconds);
    let mut report = Report::default();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut check = |p: &Pass, drift: &mut Vec<String>| {
        attempted += p.runs.len() as u64 + p.failed;
        failed += p.failed + check_pass(&cells, p);
        if outcomes(p) != ref_outcomes {
            drift.push("a timed pass measured other costs or checksums than the warm-up".into());
        }
    };
    if cx.traced {
        let mut tr = Tracer::new(true);
        let (mut plain, mut traced) = (Vec::new(), Vec::new());
        let start = Instant::now();
        while plain.is_empty() || start.elapsed() < deadline {
            let p = pass(&cells, &order, timed_backends, &mut off);
            plain.push(p.scaled_s);
            check(&p, &mut drift);
            let p = pass(&cells, &order, timed_backends, &mut tr);
            traced.push(p.scaled_s);
            check(&p, &mut drift);
        }
        // The trace backend once: same payload semantics as vec, plus the
        // schedule recording.
        let p = pass(&cells, &order, &|_| vec![Backend::Trace], &mut tr);
        attempted += p.runs.len() as u64 + p.failed;
        failed += p.failed + check_pass(&cells, &p);
        for r in &p.runs {
            let vec = ref_outcomes.iter().find(|o| o.0 == r.cell && o.1 == "vec");
            if vec.map(|o| (o.2, o.3)) != Some((r.cost, r.checksum)) {
                failed += 1;
                eprintln!("FAILED: {} on trace differs from vec", cells[r.cell].kind);
            }
        }
        let overhead_pct = (median(&traced) - median(&plain)) / median(&plain) * 100.0;
        layers(
            cx,
            &cells,
            &tr,
            &ref_outcomes,
            &ref_totals,
            overhead_pct,
            &mut report,
        )?;
    } else {
        // Every pass does the same work (checked above), so one timing
        // statistic carries all the rates: the median scaled pass time,
        // which a stall of the shared host during part of the run moves
        // little.
        let (mut raw, mut scaled) = (Vec::new(), Vec::new());
        let start = Instant::now();
        while raw.is_empty() || start.elapsed() < deadline {
            let p = pass(&cells, &order, timed_backends, &mut off);
            raw.push(p.raw_s);
            scaled.push(p.scaled_s);
            check(&p, &mut drift);
        }
        let secs = median(&scaled);
        let runs = ref_outcomes.len() as f64;
        let ios = (ref_totals.reads + ref_totals.writes) as f64;
        eprintln!(
            "sim-large: {} passes of {runs} registry runs in {:.3} s; median pass {secs:.4} s \
             scaled, {:.4} s raw (host slowdown {:.3})",
            raw.len(),
            start.elapsed().as_secs_f64(),
            median(&raw),
            median(&raw) / secs,
        );
        report.set("setup_s", median(&setup_s));
        report.set("jobs_per_s", runs / secs);
        report.set("ios_per_s", ios / secs);
        // No requests here: these three copy the registry-run figures
        // (`requests_per_s` = `jobs_per_s`; both latencies = mean host ms
        // per registry run), since every workload prints every metric.
        report.set("requests_per_s", runs / secs);
        report.set("latency_p50_ms", secs / runs * 1e3);
        report.set("latency_p99_ms", secs / runs * 1e3);
        report.set("peak_rss_mb", rss_mb);
    }

    match golden::check(&cx.pinned, "sim-large", &ref_totals) {
        Ok(()) => eprintln!("simulated statistics: {ref_totals} (pinned, equal)"),
        Err(e) => drift.push(e),
    }
    for d in &drift {
        eprintln!("DRIFT: {d}");
    }
    report.correct = failed == 0 && drift.is_empty();
    report.attempted = attempted;
    report.failed = failed;
    Ok(report)
}

fn layers(
    cx: &Ctx,
    cells: &[Cell],
    tr: &Tracer,
    reference: &[Outcome],
    totals: &Totals,
    overhead_pct: f64,
    report: &mut Report,
) -> Result<(), String> {
    // (kind, backend) → (Σ ns, Σ I/Os, runs).
    let mut acc: BTreeMap<(&str, &str), (f64, u64, u64)> = BTreeMap::new();
    for s in tr.spans().iter().filter(|s| s.name == "core.run_workload") {
        let e = acc
            .entry((s.kind.unwrap_or("?"), s.backend.unwrap_or("?")))
            .or_default();
        e.0 += s.dur_ns() as f64;
        e.1 += s.ios;
        e.2 += 1;
    }
    let per_io = |ns: f64, ios: u64| if ios == 0 { 0.0 } else { ns / ios as f64 };
    for c in cells {
        for b in c.backends() {
            let ms = acc
                .get(&(c.kind.name(), b.name()))
                .map_or(0.0, |&(ns, _, n)| ns / n as f64 / 1e6);
            report.set(format!("core.run_ms.{}.{}", c.kind.name(), b.name()), ms);
        }
        let (ns, ios, _) = acc
            .get(&(c.kind.name(), "vec"))
            .copied()
            .unwrap_or_default();
        report.set(format!("core.ns_per_io.{}", c.kind.name()), per_io(ns, ios));
    }
    for b in IO_BACKENDS {
        let (ns, ios) = acc
            .iter()
            .filter(|((_, be), _)| *be == b.name())
            .fold((0.0, 0), |(n, i), (_, &(ns, ios, _))| (n + ns, i + ios));
        report.set(format!("machine.ns_per_io.{}", b.name()), per_io(ns, ios));
    }
    for (i, c) in cells.iter().enumerate() {
        report.set(
            format!("workloads.gen_ms.{}", c.kind.name()),
            sim::build_ns(&sim::ctx(c, i)?)? as f64 / 1e6,
        );
    }
    // Σ measured Q over Σ predicted Q of the vec runs.
    let omega = sim::SHAPE.2;
    let measured: u64 = reference
        .iter()
        .filter(|o| o.1 == Backend::Vec.name())
        .map(|o| o.2.q_saturating(omega))
        .sum();
    let predicted: u64 = cells
        .iter()
        .map(|c| c.predicted().q_saturating(omega))
        .sum();
    report.set("machine.reads", totals.reads as f64);
    report.set("machine.writes", totals.writes as f64);
    report.set("planner.residual", measured as f64 / predicted as f64);
    report.set("trace.overhead_pct", overhead_pct);
    for name in [
        "protocol.decode_us",
        "protocol.encode_us",
        "protocol.frame_bytes",
        "planner.plan_us",
        "admission.admit_us",
        "metering.record_us",
        "exec.replay_us",
        "machine.replay_ns_per_io",
        "server.overhead_us",
        "admission.accepted",
        "admission.queued",
        "admission.drained",
        "admission.rejected",
        "exec.replay_hit_ratio",
    ] {
        report.set(name, 0.0);
    }
    for k in WorkloadKind::ALL {
        report.set(format!("exec.execute_ms.{}", k.name()), 0.0);
    }

    eprintln!(
        "\nsim-large host time per metered I/O at (M, B, ω) = {:?}",
        sim::SHAPE
    );
    eprintln!("| kind | algo | vec ms | vec ns/IO | ghost ns/IO | vs vec | trace ns/IO | vs vec |");
    eprintln!("|---|---|---|---|---|---|---|---|");
    let vec_total: f64 = acc
        .iter()
        .filter(|((_, b), _)| *b == "vec")
        .map(|(_, v)| v.0 / v.2 as f64)
        .sum();
    let mut largest = ("", 0.0);
    for c in cells {
        let get = |b: &str| acc.get(&(c.kind.name(), b)).copied();
        let (vns, vios, vn) = get("vec").unwrap_or_default();
        let vec_per = per_io(vns, vios);
        let cmp = |b: &str| match get(b) {
            Some((ns, ios, _)) => {
                let p = per_io(ns, ios);
                (format!("{p:.1}"), format!("{:.2}x", p / vec_per))
            }
            None => ("—".into(), "—".into()),
        };
        let (g, gv) = cmp("ghost");
        let (t, tv) = cmp("trace");
        let ms = vns / vn.max(1) as f64 / 1e6;
        if ms > largest.1 {
            largest = (c.kind.name(), ms);
        }
        eprintln!(
            "| {} | {} | {ms:.1} | {vec_per:.1} | {g} | {gv} | {t} | {tv} |",
            c.kind, c.algo.name
        );
    }
    eprintln!(
        "largest share: {} ({:.1}% of a vec pass)",
        largest.0,
        largest.1 / (vec_total / 1e6) * 100.0
    );
    eprintln!("tracing overhead: {overhead_pct:+.1}% (median traced vs untraced pass)\n");
    tr.write_jsonl(
        &cx.out
            .join(format!("spans-sim-large-seed{}.jsonl", cx.seed)),
    )?;
    Ok(())
}
