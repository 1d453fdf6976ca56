//! serve-payload and serve-priced: the real `aemsim serve` process driven
//! over TCP by two closed-loop tenants.

use crate::calib;
use crate::catalog::Report;
use crate::golden::{self, Totals};
use crate::inproc::{self, mismatches, PassStats, Pipeline};
use crate::sequence::{self, Serving, TenantPlan};
use crate::server::{concurrent_passes, prom_sum, Client, PassLog, Script, Server, WORKERS};
use crate::sim;
use crate::spans::Tracer;
use crate::stats::{median, peak_rss_mb, summarize, Segment};
use crate::Ctx;
use aem_core::workload::{
    run_workload, Body, Harness, LiveHarness, Payload, RunCtx, WorkloadError,
};
use aem_machine::{Backend, CompiledTrace, TraceMachine};
use aem_serve::planner;
use aem_serve::protocol::{JobSpec, Response};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 15;

/// Fewest latency samples per reporting window: p99 then leaves at least
/// ten beyond it.
const WINDOW_SAMPLES: usize = 1000;

/// Cores the serving workloads keep busy: the host's speed is measured on
/// as many threads.
const CORES: usize = WORKERS;

/// Passes per tenant in one timed segment, about a second of work; the
/// host's speed is measured after each segment.
fn segment_passes(w: Serving) -> usize {
    match w {
        Serving::Payload => 8,
        Serving::Priced => 500,
    }
}

/// Traced runs alternate untraced and traced in-process passes: at least
/// this many pairs, and pairs for at least `INPROC_MIN`.
const INPROC_PAIRS: usize = 3;
const INPROC_MIN: Duration = Duration::from_secs(2);

fn total(v: &[PassStats]) -> PassStats {
    v.iter().fold(PassStats::default(), |mut a, b| {
        a += *b;
        a
    })
}

fn totals(s: &PassStats) -> Totals {
    Totals {
        reads: s.reads,
        writes: s.writes,
        accepted: s.accepted,
        queued: s.queued,
        drained: s.drained,
        rejected: s.rejected,
        replays: s.replays,
    }
}

/// The in-process expectation: each tenant's responses to one steady
/// pass and its totals, after the set-up hellos and a warm-up pass.
struct Expected {
    responses: Vec<Vec<Response>>,
    stats: Vec<PassStats>,
    pipe: Pipeline,
    warm_matches: bool,
}

fn expect(plans: &[TenantPlan], frames: &[Vec<Vec<u8>>]) -> Expected {
    let pipe = Pipeline::default();
    inproc::hellos(&pipe, plans);
    let mut off = Tracer::new(false);
    let (warm, _) = inproc::run_pass(&pipe, plans, frames, &mut off, 0);
    let (responses, stats) = inproc::run_pass(&pipe, plans, frames, &mut off, 0);
    let warm_matches = warm
        .iter()
        .zip(&responses)
        .all(|(a, b)| a.len() == b.len() && a.iter().zip(b).all(|(x, y)| mismatches(x, y) == 0));
    Expected {
        responses,
        stats,
        pipe,
        warm_matches,
    }
}

/// Exact per-pass totals for `seed`, computed in process. They do not
/// depend on the seed, which only reorders the pass.
pub fn pinned_totals(w: Serving, seed: u64) -> Totals {
    let plans = sequence::plans(w, seed);
    let frames: Vec<_> = plans.iter().map(TenantPlan::frames).collect();
    totals(&total(&expect(&plans, &frames).stats))
}

pub fn run(w: Serving, cx: &Ctx) -> Result<Report, String> {
    let plans = sequence::plans(w, cx.seed);
    let frames: Vec<Vec<Vec<u8>>> = plans.iter().map(TenantPlan::frames).collect();
    // The expected responses, computed in process before anything is timed.
    let exp = expect(&plans, &frames);
    let scripts: Vec<Script> = plans
        .iter()
        .zip(&frames)
        .zip(&exp.responses)
        .map(|((plan, frames), want)| Script { plan, frames, want })
        .collect();
    let mut drift = Vec::new();
    if !exp.warm_matches {
        drift.push("in-process passes do not repeat".to_string());
    }

    // Set-up: boot, hellos, one untimed warm-up pass. Untraced runs set up
    // several servers and keep the last.
    let setups = if cx.traced { 1 } else { SETUPS };
    let (mut setup_s, mut rss_mb) = (Vec::new(), Vec::new());
    let mut kept = None;
    for i in 0..setups {
        let t = Instant::now();
        let server = Server::boot(&cx.aemsim, &cx.out, &format!("{}-{i}", w.name()))?;
        let mut clients = plans
            .iter()
            .map(|p| Client::open(&server, p))
            .collect::<Result<Vec<_>, _>>()?;
        let (warm, _) = concurrent_passes(&mut clients, &scripts, 1)?;
        setup_s.push(t.elapsed().as_secs_f64() / calib::slowdown(CORES));
        // Peak memory after a fixed amount of work, so that it does not
        // grow with throughput (the admission log keeps every decision).
        rss_mb.push(peak_rss_mb(server.pid())?);
        let bad: u64 = warm.iter().flatten().map(|l| l.failed).sum();
        if bad > 0 {
            drift.push(format!("{bad} warm-up operations differ from the expected"));
        }
        if i + 1 == setups {
            kept = Some((server, clients));
        } else {
            drop(clients);
            server.shutdown()?;
        }
    }
    let (server, mut clients) = kept.expect("at least one set-up");
    let rss_mb = median(&rss_mb);
    eprintln!("set-ups (scaled s): {setup_s:.4?}");

    // Timed phase: segments of whole passes until `--seconds` have elapsed.
    let before = clients[0].metrics()?;
    let deadline = Duration::from_secs(cx.seconds);
    let mut timed: Vec<Vec<PassLog>> = plans.iter().map(|_| Vec::new()).collect();
    let mut segments = Vec::new();
    let start = Instant::now();
    while segments.is_empty() || start.elapsed() < deadline {
        let (logs, secs) = concurrent_passes(&mut clients, &scripts, segment_passes(w))?;
        let mut seg = Segment {
            secs: secs.as_secs_f64(),
            slowdown: calib::slowdown(CORES),
            samples: Vec::new(),
        };
        for (t, logs) in logs.into_iter().enumerate() {
            for mut log in logs {
                seg.samples.append(&mut log.samples);
                timed[t].push(log);
            }
        }
        segments.push(seg);
    }
    let elapsed = start.elapsed();
    let after = clients[0].metrics()?;
    eprintln!(
        "server peak RSS: {rss_mb:.1} MB after set-up (median), {:.1} MB after the timed phase",
        peak_rss_mb(server.pid())?
    );
    drop(clients);
    server.shutdown()?;

    // Totals check, outside the timed window.
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut seen = PassStats::default();
    for (t, p) in plans.iter().enumerate() {
        // Replays are not visible in a response; the server's counter is
        // checked below.
        let want = Totals {
            replays: 0,
            ..totals(&exp.stats[t])
        };
        for log in &timed[t] {
            attempted += p.operations();
            failed += log.failed;
            if totals(&log.stats) != want {
                drift.push(format!(
                    "{}: a timed pass measured {} instead of {want}",
                    p.name,
                    totals(&log.stats),
                ));
            }
            seen += log.stats;
        }
    }
    // The server's own counters over the timed phase.
    let passes: Vec<u64> = timed.iter().map(|l| l.len() as u64).collect();
    let per_run = |f: fn(&PassStats) -> u64| -> u64 {
        passes.iter().zip(&exp.stats).map(|(n, s)| n * f(s)).sum()
    };
    let counter = |name| prom_sum(&after, name) - prom_sum(&before, name);
    let replays = counter("aem_serve_replays_total");
    if replays != per_run(|s| s.replays) {
        drift.push(format!(
            "server replayed {replays} jobs in the timed phase, expected {}",
            per_run(|s| s.replays)
        ));
    }
    let jobs_done = counter("aem_serve_jobs_done_total");
    if jobs_done != seen.accepted + seen.drained {
        drift.push(format!(
            "server completed {jobs_done} jobs, clients saw {}",
            seen.accepted + seen.drained
        ));
    }
    let pass_totals = totals(&total(&exp.stats));
    match golden::check(&cx.pinned, w.name(), &pass_totals) {
        Ok(()) => eprintln!("simulated statistics per pass: {pass_totals} (pinned, equal)"),
        Err(e) => drift.push(e),
    }
    for d in &drift {
        eprintln!("DRIFT: {d}");
    }

    let sum = summarize(&segments, WINDOW_SAMPLES);
    let requests: usize = segments.iter().map(|s| s.samples.len()).sum();
    let raw_secs: f64 = segments.iter().map(|s| s.secs).sum();
    let slowdowns: Vec<f64> = segments.iter().map(|s| s.slowdown).collect();
    eprintln!(
        "{}: {} segments of {} passes per tenant, {requests} requests in {:.3} s \
         ({raw_secs:.3} s timed; {:.0} requests/s raw, median host slowdown {:.3}); \
         {} windows of >= {WINDOW_SAMPLES} latency samples, >= {} beyond p99 in each",
        w.name(),
        segments.len(),
        segment_passes(w),
        elapsed.as_secs_f64(),
        requests as f64 / raw_secs,
        median(&slowdowns),
        sum.windows,
        sum.min_beyond_p99,
    );
    let mut report = Report {
        correct: failed == 0 && drift.is_empty(),
        attempted,
        failed,
        ..Report::default()
    };
    if cx.traced {
        let rtt_ms = segments
            .iter()
            .flat_map(|s| &s.samples)
            .map(|s| s.rtt_ms)
            .sum::<f64>()
            / requests.max(1) as f64;
        layers(w, cx, &plans, &frames, &exp, rtt_ms, &mut report)?;
        let cost_only = per_run(|s| s.cost_only);
        report.set(
            "exec.replay_hit_ratio",
            if cost_only == 0 {
                0.0
            } else {
                replays as f64 / cost_only as f64
            },
        );
    } else {
        report.set("setup_s", median(&setup_s));
        report.set("requests_per_s", sum.requests_per_s);
        report.set("jobs_per_s", sum.jobs_per_s);
        report.set("ios_per_s", sum.ios_per_s);
        report.set("latency_p50_ms", sum.p50_ms);
        report.set("latency_p99_ms", sum.p99_ms);
        report.set("peak_rss_mb", rss_mb);
    }
    Ok(report)
}

/// Distinct job specs of the plans (ids aside).
fn distinct_jobs(plans: &[TenantPlan]) -> Vec<JobSpec> {
    let mut seen = BTreeMap::new();
    for s in plans.iter().flat_map(TenantPlan::jobs) {
        seen.entry((s.kind, s.n, s.mem, s.block, s.omega, s.delta, s.seed))
            .or_insert_with(|| s.clone());
    }
    seen.into_values().collect()
}

/// Records the compiled schedule of a run.
struct Compile;

impl Harness for Compile {
    type Out = CompiledTrace;
    fn run<T: Payload>(
        &mut self,
        ctx: &RunCtx,
        body: Body<'_, T>,
    ) -> Result<CompiledTrace, WorkloadError> {
        let mut m = TraceMachine::<T>::new(ctx.cfg);
        body(&mut m)?;
        Ok(m.into_schedule())
    }
}

fn ctx_for(spec: &JobSpec) -> Result<RunCtx, String> {
    let plan = planner::plan(spec)?;
    RunCtx::new(
        spec.kind, plan.algo, plan.cfg, spec.n, spec.delta, spec.seed,
    )
}

/// Host ns the server's workers save over running each request's jobs one
/// after another: per request, the summed execution spans minus their
/// makespan when each job in turn takes the first free worker.
fn parallel_saving_ns(tr: &Tracer) -> f64 {
    let mut by_req: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    for s in tr.spans().iter().filter(|s| s.name == "exec.execute") {
        by_req.entry(s.req).or_default().push(s.dur_ns());
    }
    by_req
        .values()
        .map(|jobs| {
            let mut free = [0u64; WORKERS];
            for &d in jobs {
                *free.iter_mut().min().expect("at least one worker") += d;
            }
            (jobs.iter().sum::<u64>() - free.iter().max().expect("at least one worker")) as f64
        })
        .sum()
}

/// The traced run's per-layer metrics and breakdown tables.
fn layers(
    w: Serving,
    cx: &Ctx,
    plans: &[TenantPlan],
    frames: &[Vec<Vec<u8>>],
    exp: &Expected,
    rtt_ms: f64,
    report: &mut Report,
) -> Result<(), String> {
    // Alternate untraced and traced in-process passes on the warm pipeline.
    let per_pass: u64 = frames.iter().map(|f| f.len() as u64).sum();
    let mut tr = Tracer::new(true);
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while plain.len() < INPROC_PAIRS || start.elapsed() < INPROC_MIN {
        let mut off = Tracer::new(false);
        let t = Instant::now();
        inproc::run_pass(&exp.pipe, plans, frames, &mut off, 0);
        plain.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        inproc::run_pass(
            &exp.pipe,
            plans,
            frames,
            &mut tr,
            traced.len() as u64 * per_pass,
        );
        traced.push(t.elapsed().as_secs_f64());
    }
    let requests = (traced.len() as u64 * per_pass) as f64;
    let selfs = tr.self_ns();
    let us = |name: &str| selfs.get(name).copied().unwrap_or(0) as f64 / requests / 1e3;
    let inproc_us: f64 = tr
        .spans()
        .iter()
        .filter(|s| s.name == "request")
        .map(|s| s.dur_ns() as f64)
        .sum::<f64>()
        / requests
        / 1e3;
    let rtt_us = rtt_ms * 1e3;
    // The server runs the jobs of a batch (or of a top-up's drain) on its
    // workers at once, the in-process pipeline one after another: the
    // difference is the server's saving, not part of the residual.
    let overlap_us = parallel_saving_ns(&tr) / requests / 1e3;
    let overhead_us = rtt_us - (inproc_us - overlap_us);

    // Execution spans by kind and by backend.
    let mut by_kind: BTreeMap<&str, (f64, u64)> = BTreeMap::new();
    let mut by_backend: BTreeMap<&str, (f64, u64, u64)> = BTreeMap::new();
    for s in tr.spans().iter().filter(|s| s.name == "exec.execute") {
        let (k, b) = (s.kind.unwrap_or("?"), s.backend.unwrap_or("?"));
        let e = by_kind.entry(k).or_default();
        e.0 += s.dur_ns() as f64;
        e.1 += 1;
        let e = by_backend.entry(b).or_default();
        e.0 += s.dur_ns() as f64;
        e.1 += s.ios;
        e.2 += 1;
    }
    let ns_per_io = |b: &str| {
        by_backend.get(b).map_or(
            0.0,
            |&(ns, ios, _)| if ios == 0 { 0.0 } else { ns / ios as f64 },
        )
    };

    // The same jobs forced onto vec and arena, and the machine-level
    // replay of the trace-routed cells' schedules.
    let jobs = distinct_jobs(plans);
    let mut forced: BTreeMap<&str, (f64, u64)> = BTreeMap::new();
    for b in [Backend::Vec, Backend::Arena] {
        for spec in &jobs {
            let ctx = ctx_for(spec)?;
            let t = Instant::now();
            let (cost, _) = run_workload(&ctx, &mut LiveHarness { backend: b })
                .map_err(|e| format!("{} forced to {}: {e}", spec.kind, b.name()))?;
            let e = forced.entry(b.name()).or_default();
            e.0 += t.elapsed().as_nanos() as f64;
            e.1 += cost.total_ios();
        }
    }
    let mut schedules = Vec::new();
    for spec in jobs
        .iter()
        .filter(|s| planner::plan(s).is_ok_and(|p| p.backend == Backend::Trace))
    {
        schedules.push(run_workload(&ctx_for(spec)?, &mut Compile).map_err(|e| e.to_string())?);
    }
    let replay_ns_per_io = if schedules.is_empty() {
        0.0
    } else {
        let mut ios = 0u64;
        let t = Instant::now();
        while t.elapsed() < Duration::from_millis(50) {
            for s in &schedules {
                ios += black_box(s.replay()).total_ios();
            }
        }
        t.elapsed().as_nanos() as f64 / ios as f64
    };

    // Instance and oracle build time of the jobs that rebuild their
    // instance in a steady pass (everything but replay hits).
    let mut gen: BTreeMap<&str, (f64, u64)> = BTreeMap::new();
    for spec in jobs
        .iter()
        .filter(|s| planner::plan(s).is_ok_and(|p| p.backend != Backend::Trace))
    {
        let ns = sim::build_ns(&ctx_for(spec)?)?;
        let e = gen.entry(spec.kind.name()).or_default();
        e.0 += ns as f64;
        e.1 += 1;
    }

    let st = total(&exp.stats);
    let overhead_pct = (median(&traced) - median(&plain)) / median(&plain) * 100.0;
    for (name, v) in [
        ("protocol.decode_us", us("protocol.decode")),
        ("protocol.encode_us", us("protocol.encode")),
        ("protocol.frame_bytes", st.frame_bytes as f64),
        ("planner.plan_us", us("planner.plan")),
        ("admission.admit_us", us("admission.admit")),
        ("metering.record_us", us("metering.record")),
        (
            "exec.replay_us",
            by_backend
                .get("replay")
                .map_or(0.0, |&(ns, _, n)| ns / n as f64 / 1e3),
        ),
        ("machine.replay_ns_per_io", replay_ns_per_io),
        ("server.overhead_us", overhead_us),
        ("machine.reads", st.reads as f64),
        ("machine.writes", st.writes as f64),
        ("admission.accepted", st.accepted as f64),
        ("admission.queued", st.queued as f64),
        ("admission.drained", st.drained as f64),
        ("admission.rejected", st.rejected as f64),
        (
            "planner.residual",
            st.measured_q as f64 / st.predicted_q.max(1) as f64,
        ),
        ("trace.overhead_pct", overhead_pct),
    ] {
        report.set(name, v);
    }
    for k in aem_core::workload::WorkloadKind::ALL {
        let mean_ms = |m: &BTreeMap<&str, (f64, u64)>| {
            m.get(k.name()).map_or(0.0, |&(ns, n)| ns / n as f64 / 1e6)
        };
        report.set(format!("exec.execute_ms.{}", k.name()), mean_ms(&by_kind));
        report.set(format!("workloads.gen_ms.{}", k.name()), mean_ms(&gen));
        report.set(format!("core.ns_per_io.{}", k.name()), 0.0);
    }
    for cell in sim::cells() {
        for b in cell.backends() {
            report.set(
                format!("core.run_ms.{}.{}", cell.kind.name(), b.name()),
                0.0,
            );
        }
    }
    let forced_ns = |b: &str| {
        forced
            .get(b)
            .map_or(0.0, |&(ns, ios)| ns / ios.max(1) as f64)
    };
    report.set("machine.ns_per_io.vec", forced_ns("vec"));
    report.set("machine.ns_per_io.arena", forced_ns("arena"));
    report.set("machine.ns_per_io.ghost", ns_per_io("ghost"));
    report.set("machine.ns_per_io.trace", 0.0);

    // Breakdown: self time per request, summing to the client round trip.
    let rows = [
        ("protocol.decode", us("protocol.decode")),
        ("planner.plan", us("planner.plan")),
        ("admission.admit", us("admission.admit")),
        ("exec.execute", us("exec.execute")),
        ("metering.record", us("metering.record")),
        ("protocol.encode", us("protocol.encode")),
        ("request glue (in-process loop)", us("request")),
        (
            "exec.execute run in parallel (batch jobs on the workers)",
            -overlap_us,
        ),
        (
            "server.overhead (residual: socket, handoff, queue wait)",
            overhead_us,
        ),
    ];
    eprintln!(
        "\n{} per-layer self time, µs per request (traced in-process passes; client round trip {rtt_us:.2} µs)",
        w.name()
    );
    eprintln!("| layer | self µs/request | share |\n|---|---|---|");
    for (name, v) in rows {
        eprintln!("| {name} | {v:.3} | {:.1}% |", v / rtt_us * 100.0);
    }
    eprintln!("| total = client round trip | {rtt_us:.3} | 100.0% |");
    let (top, top_v) = rows.iter().fold(
        ("", f64::MIN),
        |a, &(n, v)| if v > a.1 { (n, v) } else { a },
    );
    eprintln!(
        "largest share: {top} ({:.1}% of the round trip)",
        top_v / rtt_us * 100.0
    );
    let (gen_ns, gen_jobs) = gen
        .values()
        .fold((0.0, 0), |a, &(ns, n)| (a.0 + ns, a.1 + n));
    eprintln!(
        "(exec.execute includes instance and oracle build: {:.1} µs per building job, measured apart)",
        gen_ns / gen_jobs.max(1) as f64 / 1e3
    );
    let vec = forced_ns("vec");
    eprintln!("\n| execution backend | calls | ns per I/O | vs vec |\n|---|---|---|---|");
    for (b, &(ns, ios, n)) in &by_backend {
        let per = if ios == 0 { 0.0 } else { ns / ios as f64 };
        eprintln!("| {b} | {n} | {per:.1} | {:.2}x |", per / vec);
    }
    for b in ["vec", "arena"] {
        eprintln!(
            "| {b} (forced, same jobs) | {} | {:.1} | {:.2}x |",
            jobs.len(),
            forced_ns(b),
            forced_ns(b) / vec
        );
    }
    eprintln!(
        "tracing overhead: {overhead_pct:+.1}% (median traced vs untraced in-process pass, {} each)\n",
        traced.len()
    );
    tr.write_jsonl(
        &cx.out
            .join(format!("spans-{}-seed{}.jsonl", w.name(), cx.seed)),
    )?;
    Ok(())
}
