//! `aemsim` subcommand implementations. Each returns its report as a
//! `String` so the handlers are unit-testable without capturing stdout.

use aem_core::bounds::{flash as fbounds, permute as pbounds, spmv as sbounds};
use aem_core::workload::{run_workload, LiveHarness, RunCtx, WorkloadKind};
use aem_flash::driver::naive_atom_permutation;
use aem_flash::verify_lemma_4_3;
use aem_fuzz::{DistKind, FuzzCase, FuzzOptions};
use aem_machine::{AemConfig, Backend};
use aem_obs::{
    render_markdown, render_text, run_all, tail_from_record, Profile, ProfileHarness, RunRecord,
};
use aem_serve::{install_shutdown_signals, run_load, serve, LoadOptions, ServeOptions};
use aem_workloads::PermKind;

use crate::args::Args;

/// Write `record` as JSONL to `path` and return the lines to append to the
/// command's report: the export note plus the paper-invariant verdicts.
fn export_record(path: &str, record: &RunRecord) -> Result<String, String> {
    std::fs::write(path, record.to_jsonl()).map_err(|e| format!("cannot write {path}: {e}"))?;
    let mut out = format!(
        "\ntrace record: {} events, {} phases -> {path}\n",
        record.trace.len(),
        record.phases.len()
    );
    for c in run_all(record) {
        out.push_str(&format!("  [{}] {}: {}\n", c.verdict(), c.name, c.detail));
    }
    Ok(out)
}

/// Parse the shared machine options (`--mem --block --omega`).
pub fn machine_config(args: &Args) -> Result<AemConfig, String> {
    let mem = args.get_or("mem", 1024usize)?;
    let block = args.get_or("block", 64usize)?;
    let omega = args.get_or("omega", 16u64)?;
    AemConfig::new(mem, block, omega).map_err(|e| e.to_string())
}

/// The input-shape options of the per-kind commands that `run --input`
/// replaced; an unread one gets a pointer to `--input`.
const FOLDED_INTO_INPUT: [&str; 6] = ["dist", "kind", "rows", "shape", "bandwidth", "mblock"];

/// Fail on any `--key` or `--flag` the command has not read. Every command
/// calls this once it has read all of its options and before it does any
/// work, so a misspelt option never runs, writes or binds anything.
fn reject_unread(args: &Args) -> Result<(), String> {
    let unread = args.unread();
    if !unread.is_empty() {
        let cmd = args.command.as_deref().unwrap_or("aemsim");
        let names: Vec<String> = unread.iter().map(|k| format!("--{k}")).collect();
        let mut msg = format!("{cmd} does not take {}", names.join(", "));
        if matches!(cmd, "run" | "profile") && unread.iter().any(|k| FOLDED_INTO_INPUT.contains(k))
        {
            msg.push_str(
                "; name the instance with --input NAME (`aemsim --help` lists each kind's inputs)",
            );
        }
        return Err(msg);
    }
    #[cfg(test)]
    if args.dry_run {
        return Err(DRY_RUN.into());
    }
    Ok(())
}

/// What [`reject_unread`] returns under [`Args::dry_run`].
#[cfg(test)]
const DRY_RUN: &str = "dry run: options accepted";

/// `aemsim bounds` — print every bound value for a parameter point.
pub fn cmd_bounds(args: &Args) -> Result<String, String> {
    let cfg = machine_config(args)?;
    let n = args.get_or("n", 1u64 << 20)?;
    let delta = args.get_or("delta", 8u64)?;
    reject_unread(args)?;
    let cb = pbounds::counting_rounds(n, cfg);
    let mut out = format!("machine: {cfg}, N = {n}\n\n");
    out.push_str(&format!(
        "permuting/sorting (Thm 4.5):\n  counting rounds R ≥ {} (target ln = {:.1}, per-round ln = {:.1})\n  cost ≥ {:.0} (round-based, this config); ≥ {:.0} (any program)\n  asymptotic form min{{N, ωn·log_ωm n}} = {:.0} (branch: {:?})\n",
        cb.rounds,
        cb.target_ln,
        cb.per_round_ln,
        cb.cost,
        pbounds::permute_cost_lower_bound(n, cfg),
        pbounds::permute_lower_bound_asymptotic(n, cfg),
        pbounds::active_branch(n, cfg),
    ));
    let fl = fbounds::flash_reduction_cost_bound(n, cfg);
    out.push_str(&format!(
        "\nflash reduction (Cor 4.4): {}\n",
        if fl > 0.0 {
            format!("{fl:.0}")
        } else {
            "vacuous here (needs B > ω)".into()
        }
    ));
    out.push_str(&format!(
        "\nSpMxV (Thm 5.1) at δ = {delta}:\n  numeric bound = {:.0}\n  asymptotic min{{H, ωh·log_ωm N/max{{δ,B}}}} = {:.0}\n  parameter range ωδMB ≤ N^0.95: {}\n",
        sbounds::spmv_cost_lower_bound(n, delta, cfg),
        sbounds::spmv_lower_bound_asymptotic(n, delta, cfg),
        sbounds::theorem_applies(n, delta, cfg, 0.05),
    ));
    Ok(out)
}

/// `aemsim lemma43` — run the flash-model reduction end to end.
pub fn cmd_lemma43(args: &Args) -> Result<String, String> {
    let cfg = machine_config(args)?;
    let n = args.get_or("n", 4096usize)?;
    let seed = args.get_or("seed", 1u64)?;
    reject_unread(args)?;
    let pi = PermKind::Random { seed }.generate(n);
    let (prog, _) = naive_atom_permutation(cfg, &pi).map_err(|e| e.to_string())?;
    if !prog.realizes(&pi) {
        return Err("atom program failed to realize pi".into());
    }
    let report = verify_lemma_4_3(&prog.program, cfg).map_err(|e| e.to_string())?;
    Ok(format!(
        "machine: {cfg}\nAEM program: Q = {} ({} reads, {} writes)\nflash program: {} sector reads, {} big writes\nvolume = {} ≤ bound 2N + 2QB/ω = {}  ({:.0}% of bound)\nlayout verified against the AEM program ✓\n",
        report.aem_q,
        report.aem_cost.reads,
        report.aem_cost.writes,
        report.sector_reads,
        report.big_writes,
        report.flash_volume,
        report.volume_bound,
        100.0 * report.flash_volume as f64 / report.volume_bound as f64,
    ))
}

/// Parse the `--backend {vec,arena,ghost,trace}` option (default: vec).
fn parse_backend(args: &Args) -> Result<Backend, String> {
    match args.get("backend") {
        None => Ok(Backend::Vec),
        Some(name) => Backend::from_name(name),
    }
}

/// Render the result of replaying one fuzz case.
fn render_fuzz_replay(
    target: &str,
    case: &FuzzCase,
    outcome: aem_fuzz::Outcome,
) -> Result<String, String> {
    let head = format!("replay: target '{target}' on {case}\n");
    match outcome {
        aem_fuzz::Outcome::Pass => Ok(format!("{head}result: PASS\n")),
        aem_fuzz::Outcome::Skip(why) => Ok(format!("{head}result: SKIP ({why})\n")),
        aem_fuzz::Outcome::Fail(msg) => Err(format!("{head}result: FAIL\n  {msg}\n")),
    }
}

/// `aemsim fuzz` — deterministic differential fuzzing of every algorithm
/// against the in-memory oracles and the paper's theorem bounds.
///
/// Three modes:
/// * generative (default): sample `--iters` corner-biased cases from
///   `--seed` and run them through every (or `--target`-filtered) check;
/// * seed-file replay: `--replay FILE` re-runs one corpus/repro JSON;
/// * inline replay: the `--target … --case-seed …` shape that failure
///   reports emit as their one-line repro command.
pub fn cmd_fuzz(args: &Args) -> Result<String, String> {
    if let Some(path) = args.get("replay") {
        reject_unread(args)?;
        let entry = aem_fuzz::corpus::load_file(std::path::Path::new(path))?;
        let outcome = aem_fuzz::corpus::replay(&entry)?;
        return render_fuzz_replay(&entry.target, &entry.case, outcome);
    }

    if args.get("case-seed").is_some() {
        let target = args
            .get("target")
            .ok_or("inline replay requires --target (alongside --case-seed)")?;
        let dist = DistKind::from_name(
            args.get("dist").unwrap_or("uniform"),
            args.get_or("distinct", 1u64)?,
        )?;
        let case = FuzzCase {
            mem: args.get_or("mem", 1024usize)?,
            block: args.get_or("block", 64usize)?,
            omega: args.get_or("omega", 16u64)?,
            n: args.get_or("n", 100usize)?,
            case_seed: args.get_or("case-seed", 0u64)?,
            dist,
            delta: args.get_or("delta", 4usize)?,
        };
        let backend = parse_backend(args)?;
        reject_unread(args)?;
        let outcome = aem_fuzz::runner::replay_on(target, &case, backend)?;
        return render_fuzz_replay(target, &case, outcome);
    }

    let opts = FuzzOptions {
        backend: parse_backend(args)?,
        seed: args.get_or("seed", 42u64)?,
        iters: args.get_or("iters", 200u64)?,
        time_budget_secs: match args.get("time-budget-secs") {
            None => None,
            Some(v) => Some(
                v.parse()
                    .map_err(|_| format!("invalid value for --time-budget-secs: '{v}'"))?,
            ),
        },
        targets: args.get("target").map(|s| {
            s.split(',')
                .filter(|p| !p.is_empty())
                .map(str::to_string)
                .collect()
        }),
    };
    let repro_out = args.get("repro-out");
    reject_unread(args)?;
    let report = aem_fuzz::run(&opts)?;
    if let Some(f) = &report.failure {
        if let Some(path) = repro_out {
            std::fs::write(path, format!("{}\n", f.repro_json()))
                .map_err(|e| format!("cannot write {path}: {e}"))?;
        }
        return Err(report.render());
    }
    Ok(report.render())
}

/// `aemsim report` — load a JSONL run record, re-check the paper
/// invariants, and render the phase-attributed cost report. Exits
/// nonzero (an `Err`) when any paper-invariant checker fails, naming the
/// failing checker and attaching the I/O tail, so the command is usable
/// as a CI gate over exported traces.
pub fn cmd_report(args: &Args) -> Result<String, String> {
    let path = args
        .get("in")
        .ok_or("report requires --in FILE (a --trace-out export)")?;
    let render = match args.get("format").unwrap_or("text") {
        "text" => render_text,
        "md" | "markdown" => render_markdown,
        other => return Err(format!("unknown --format '{other}' (text|md)")),
    };
    reject_unread(args)?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let rec = RunRecord::from_jsonl(&text).map_err(|e| format!("{path}: {e}"))?;
    let checks = run_all(&rec);
    let rendered = render(&rec, &checks);
    if let Some(bad) = checks.iter().find(|c| !c.passed) {
        return Err(format!(
            "{rendered}\npaper-invariant checker FAILED: {} — {}\n{}",
            bad.name,
            bad.detail,
            tail_from_record(&rec, aem_obs::DEFAULT_FLIGHT_CAPACITY),
        ));
    }
    Ok(rendered)
}

/// The `kind1|kind2|…` operand menu, straight from the registry.
fn workload_names() -> String {
    WorkloadKind::ALL
        .iter()
        .map(|k| k.name())
        .collect::<Vec<_>>()
        .join("|")
}

/// Resolve the shared registry options (`--n --delta --algo --seed
/// --input`) for one workload operand into a validated run context.
/// Defaults come from the kind's descriptor, so each registered kind
/// names its own canonical shape and default input.
fn registry_ctx(args: &Args) -> Result<RunCtx, String> {
    let cmd = args.command.as_deref().unwrap_or("run");
    let workload = args.operand.as_deref().ok_or_else(|| {
        format!(
            "{cmd} requires a workload operand: aemsim {cmd} {} [--algo --n --delta --input --backend ...]",
            workload_names()
        )
    })?;
    let kind = WorkloadKind::from_name(workload)?;
    let w = kind.descriptor();
    let cfg = machine_config(args)?;
    let n = args.get_or("n", w.profile_n)?;
    let delta = args.get_or("delta", w.default_delta)?;
    let seed = args.get_or("seed", 1u64)?;
    let algo = args.get("algo").unwrap_or(w.default_algo);
    let ctx = RunCtx::new(kind, algo, cfg, n, delta, seed)?;
    match args.get("input") {
        Some(name) => ctx.with_input(name),
        None => Ok(ctx),
    }
}

/// `aemsim run <workload>` — execute a registered workload on the input
/// `--input` names and report the measured cost, Theorem 4.5's lower
/// bound where it applies, and the registry's priced candidate menu
/// (every predictor that accepts this config, cheapest flagged). With
/// `--trace-out FILE` the run is instrumented and its record exported.
pub fn cmd_run(args: &Args) -> Result<String, String> {
    let backend = parse_backend(args)?;
    let ctx = registry_ctx(args)?;
    let trace_out = args.get("trace-out");
    reject_unread(args)?;
    let w = ctx.kind.descriptor();
    let omega = ctx.cfg.omega;
    let (cost, checksum, export) = match trace_out {
        None => {
            let (cost, checksum) =
                run_workload(&ctx, &mut LiveHarness { backend }).map_err(|e| e.to_string())?;
            (cost, checksum, String::new())
        }
        Some(path) => {
            ctx.check_ghost(backend).map_err(|e| e.to_string())?;
            let p =
                run_workload(&ctx, &mut ProfileHarness { backend }).map_err(|e| e.to_string())?;
            (
                p.record.trace.cost(),
                p.checksum,
                export_record(path, &p.record)?,
            )
        }
    };

    let delta_note = if w.requires_delta {
        format!(", {} = {}", w.delta_name, ctx.delta)
    } else {
        String::new()
    };
    let mut out = format!(
        "machine: {}\nworkload: {}/{} N={}{delta_note} input={} backend={}\n\n",
        ctx.cfg,
        w.name,
        ctx.algo.name,
        ctx.n,
        ctx.input,
        backend.name(),
    );
    out.push_str(&format!(
        "measured                 {: >10} reads  {: >10} writes  Q = {}\n",
        cost.reads,
        cost.writes,
        cost.q(omega)
    ));
    if let Some(lb) = w.lower_bound(ctx.cfg, ctx.n) {
        out.push_str(&format!(
            "Thm 4.5 lower bound: {lb:.0} (measured/bound = {:.2})\n",
            // In f64, so a Q that saturates u64 still compares truthfully.
            (cost.reads as f64 + omega as f64 * cost.writes as f64) / lb.max(1.0)
        ));
    }
    if backend.carries_payload() {
        out.push_str(&format!("output checksum: {checksum:#018x}\n"));
    } else {
        out.push_str("output checksum: none (cost-only backend)\n");
    }
    let menu = w.menu(ctx.cfg, ctx.n, ctx.delta);
    if menu.is_empty() {
        out.push_str("\ncandidate menu: no predictor accepts this config\n");
    } else {
        let best = w.cheapest(ctx.cfg, ctx.n, ctx.delta).map(|(name, _)| name);
        out.push_str(
            "\ncandidate menu (predicted Q: exact = exact schedule, bound = certified upper bound):\n",
        );
        for (name, c) in &menu {
            let exact = w.algo(name).is_some_and(|a| a.exact);
            let label = if exact { "exact" } else { "bound" };
            let mut marks = String::new();
            if *name == ctx.algo.name {
                marks.push_str("  ← ran");
            }
            if Some(*name) == best {
                marks.push_str("  (cheapest)");
            }
            out.push_str(&format!(
                "  {name:<12} {label}  Q = {}{marks}\n",
                c.q(omega)
            ));
        }
    }
    out.push_str(&export);
    Ok(out)
}

/// `aemsim profile <workload>` — run a workload on an instrumented
/// machine and write its cost-attribution profile: folded stacks
/// (flamegraph input), the per-block access heatmap, a Prometheus-style
/// text exposition, and the flight-recorder tail. The summary printed to
/// stdout carries the predictor-residual gauges and the heatmap.
///
/// Fully registry-driven: the kind name, algorithm menu, shape defaults,
/// inputs and ghost policy all come from the `Workload` descriptor, so a
/// newly registered kind is profilable with zero edits here.
pub fn cmd_profile(args: &Args) -> Result<String, String> {
    let backend = parse_backend(args)?;
    let ctx = registry_ctx(args)?;
    let prefix = args.get("out").unwrap_or("aemsim-profile");
    reject_unread(args)?;
    // The cost-only backend carries no payloads: algorithms whose
    // schedule routes on data refuse it (the registry says which).
    if !backend.carries_payload() && !ctx.algo.ghost_runnable {
        return Err(format!(
            "profile {}/{} {}; use --backend vec|arena",
            ctx.kind.name(),
            ctx.algo.name,
            ctx.algo.ghost_note
        ));
    }
    let run = run_workload(&ctx, &mut ProfileHarness { backend }).map_err(|e| e.to_string())?;
    let (rec, flight_jsonl) = (run.record, run.flight_jsonl);
    let profile = Profile::build(&rec, &[("backend", backend.name())]);

    for (suffix, content) in [
        (".folded", profile.folded.as_str()),
        (".prom", profile.prometheus.as_str()),
        (".flight.jsonl", flight_jsonl.as_str()),
    ] {
        let path = format!("{prefix}{suffix}");
        std::fs::write(&path, content).map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    let heat_text = profile.heatmap.render();
    let heat_path = format!("{prefix}.heatmap.txt");
    std::fs::write(&heat_path, &heat_text).map_err(|e| format!("cannot write {heat_path}: {e}"))?;

    let cost = rec.trace.cost();
    let mut out = format!(
        "machine: {}\nworkload: {}/{} N={} input={} backend={}\n\nQ = {} ({} reads, {} writes)\n",
        ctx.cfg,
        rec.workload.kind,
        rec.workload.algo,
        rec.workload.n,
        ctx.input,
        backend.name(),
        rec.q(),
        cost.reads,
        cost.writes,
    );
    if profile.residuals.is_empty() {
        out.push_str("\npredictor residuals: no closed-form predictor for this workload\n");
    } else {
        out.push_str("\npredictor residuals (measured / predicted Q):\n");
        for r in &profile.residuals {
            out.push_str(&format!(
                "  {:<16} {:>6.3}  ({} / {})\n",
                r.scope,
                r.ratio(),
                r.measured_q,
                r.predicted_q
            ));
        }
    }
    out.push('\n');
    out.push_str(&heat_text);
    out.push_str(&format!(
        "\nprofile artifacts (ω-weighted cost attribution):\n  {prefix}.folded        folded stacks, {} frames (flamegraph.pl/inferno input)\n  {prefix}.heatmap.txt   the heatmap above\n  {prefix}.prom          Prometheus text exposition, {} samples\n  {prefix}.flight.jsonl  flight-recorder tail, last {} of {} I/O events\n",
        profile.folded.lines().count(),
        profile
            .prometheus
            .lines()
            .filter(|l| !l.starts_with('#'))
            .count(),
        flight_jsonl.lines().count(),
        rec.trace.len(),
    ));
    Ok(out)
}

/// `aemsim serve`: boot the cost-metered multi-tenant job service and
/// block until SIGTERM/SIGINT (or a client `shutdown` frame) drains it.
pub fn cmd_serve(args: &Args) -> Result<String, String> {
    let opts = ServeOptions {
        addr: args.get("addr").unwrap_or("127.0.0.1:7979").to_string(),
        workers: args.get_or("workers", 4usize)?,
        queue_over_budget: !args.flag("no-queue"),
        admission_log: args.get("admission-log").map(str::to_string),
        metering_out: args.get("metering-out").map(str::to_string),
        prom_out: args.get("prom-out").map(str::to_string),
        addr_file: args.get("addr-file").map(str::to_string),
    };
    reject_unread(args)?;
    let shutdown = install_shutdown_signals();
    serve(&opts, shutdown)
}

/// `aemsim serve-load`: seeded synthetic multi-tenant traffic against a
/// running server. Same seed, same server state ⇒ byte-identical report
/// (the determinism contract the CI serve job checks with `cmp`).
pub fn cmd_serve_load(args: &Args) -> Result<String, String> {
    let opts = LoadOptions {
        addr: args.get("addr").unwrap_or("127.0.0.1:7979").to_string(),
        tenants: args.get_or("tenants", 8usize)?,
        jobs: args.get_or("jobs", 12usize)?,
        seed: args.get_or("seed", 1u64)?,
    };
    reject_unread(args)?;
    run_load(&opts)
}

/// Usage text. The workload, fuzz-target and backend lists are
/// enumerated from the registries (`WorkloadKind::ALL`,
/// `aem_fuzz::targets::all_targets`, `Backend::ALL`) so the help can
/// never drift from what the binary actually accepts.
pub fn usage() -> String {
    let backends = Backend::ALL
        .iter()
        .map(|b| b.name())
        .collect::<Vec<_>>()
        .join("|");
    let targets = aem_fuzz::targets::all_targets()
        .iter()
        .map(|t| t.name)
        .collect::<Vec<_>>()
        .join(", ");
    let workloads = workload_names();
    let mut workload_lines = String::new();
    for kind in WorkloadKind::ALL {
        let w = kind.descriptor();
        let algos = w.algos.iter().map(|a| a.name).collect::<Vec<_>>().join("|");
        workload_lines.push_str(&format!(
            "  {:<8} {}\n           --algo {algos}\n           --input {}\n",
            w.name,
            w.summary,
            w.inputs.join("|")
        ));
    }
    format!(
        "aemsim — the (M, B, ω)-Asymmetric External Memory simulator
(reproduction of Jacob & Sitchinava, SPAA 2017)

USAGE: aemsim <command> [--key value]...

COMMANDS
  run       registry run       <workload> = {workloads}
                               [--backend {backends} --n --algo --delta
                                --input NAME --trace-out FILE]
                               runs a registered workload on a named
                               input and prints the measured cost, the
                               Thm 4.5 lower bound where it applies, and
                               the priced candidate menu (cheapest
                               flagged)
  profile   cost attribution   <workload> = {workloads}
                               [--backend {backends} --out PREFIX
                                --n --algo --delta --input NAME]
                               writes PREFIX.folded (flamegraph input),
                               PREFIX.heatmap.txt, PREFIX.prom,
                               PREFIX.flight.jsonl; prints predictor
                               residuals + the per-block heatmap
  report    render a trace     --in FILE [--format text|md]
                               (exits nonzero if a paper-invariant
                               checker fails, with the I/O tail)
  bounds    evaluate bounds    --n --delta
  lemma43   flash reduction    --n
  serve     job service        [--addr HOST:PORT --workers N --no-queue
                                --admission-log FILE --metering-out FILE
                                --prom-out FILE --addr-file FILE]
                               long-lived TCP server; every job is priced
                               by the predictor before it runs, per-tenant
                               budgets gate admission, SIGTERM drains and
                               writes the admission log + metering reports;
                               --workers caps payload runs and first-time
                               trace compiles (cost-only replay hits and
                               ghost jobs run on the connection's thread)
  serve-load seeded load gen   [--addr HOST:PORT --tenants N --jobs N
                                --seed S]
                               deterministic synthetic tenants; same seed
                               ⇒ byte-identical report
  fuzz      differential fuzz  [--seed S --iters N --target NAMES
                                --time-budget-secs T --repro-out FILE
                                --backend {backends}]
                               or --replay FILE, or the inline
                               --target/--case-seed repro shape failure
                               reports print

WORKLOADS (the registry behind run, profile, serve and fuzz)
{workload_lines}
FUZZ TARGETS (--target takes exact names, prefixes, or comma lists)
  {targets}

MACHINE OPTIONS (run, profile, bounds, lemma43)
  --mem M      internal memory in elements   (default 1024)
  --block B    block size in elements        (default 64)
  --omega W    write/read cost ratio         (default 16)
  --seed S     workload seed, not for bounds (default 1)

OBSERVABILITY
  run accepts --trace-out FILE: the workload runs once on an
  instrumented machine and the full run record (config, I/O events,
  phase spans, metrics) is exported as JSONL. The paper invariants
  (§3 pointer rewrites, Lemma 4.1 rounds, cost sandwich) are checked on
  export and again by `report`, which renders the phase-attributed cost
  breakdown. Options use --key value or --key=value; a command fails on
  any option it does not take.
"
    )
}

/// Dispatch a parsed command line.
pub fn dispatch(args: &Args) -> Result<String, String> {
    if args.flag("help") {
        return Ok(usage());
    }
    match args.command.as_deref() {
        Some("bounds") => cmd_bounds(args),
        Some("lemma43") => cmd_lemma43(args),
        Some("report") => cmd_report(args),
        Some("run") => cmd_run(args),
        Some("profile") => cmd_profile(args),
        Some("serve") => cmd_serve(args),
        Some("serve-load") => cmd_serve_load(args),
        Some("fuzz") => cmd_fuzz(args),
        Some(other) => Err(format!("unknown command '{other}'\n\n{}", usage())),
        None => Ok(usage()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(line: &str) -> Result<String, String> {
        let args = Args::parse(line.split_whitespace().map(String::from)).expect("parse");
        dispatch(&args)
    }

    #[test]
    fn huge_omega_keeps_menus_and_bounds_ordered() {
        // Any ω ≥ 1 is a valid machine. Up to u64::MAX, every menu's
        // `cheapest` mark must sit on its smallest shown price (Q
        // saturates rather than wraps), and the Thm 4.5 bound must not
        // fall as ω rises along powers of two.
        let omegas: Vec<u64> = (0..64).step_by(7).map(|k| 1u64 << k).collect();
        let omegas = omegas.into_iter().chain([1 << 63, u64::MAX]);
        let mut first_listed_loses = false;
        for (kind, n) in [
            ("sort", 8192),
            ("sort", 20000),
            ("permute", 8192),
            ("pq", 8192),
        ] {
            let mut last_bound = 0.0f64;
            for omega in omegas.clone() {
                let out = run(&format!("run {kind} --n {n} --omega {omega}")).unwrap();
                let field = |line: &str, key: &str| {
                    let rest = &line[line.find(key).unwrap() + key.len()..];
                    rest.split_whitespace().next().unwrap().to_string()
                };
                let bound: f64 = out
                    .lines()
                    .find(|l| l.starts_with("Thm 4.5 lower bound: "))
                    .map(|l| field(l, "bound: ").parse().unwrap())
                    .unwrap();
                assert!(bound >= last_bound, "{kind} n={n} ω={omega}: {out}");
                last_bound = bound;
                let menu: Vec<(&str, u64, bool)> = out
                    .lines()
                    .skip_while(|l| !l.starts_with("candidate menu"))
                    .filter(|l| l.contains(" Q = "))
                    .map(|l| {
                        let name = l.split_whitespace().next().unwrap();
                        let q = field(l, " Q = ").parse().unwrap();
                        (name, q, l.contains("(cheapest)"))
                    })
                    .collect();
                let min = menu.iter().map(|m| m.1).min().unwrap();
                let marked: Vec<u64> = menu.iter().filter(|m| m.2).map(|m| m.1).collect();
                assert_eq!(marked, [min], "{kind} n={n} ω={omega}: {out}");
                if omega == u64::MAX {
                    // Every price saturates here, so the mark must fall
                    // on the fewest writes (then the fewest reads), not on
                    // the first entry listed.
                    let cfg = AemConfig::new(1024, 64, omega).unwrap();
                    let w = WorkloadKind::from_name(kind).unwrap().descriptor();
                    let priced = w.menu(cfg, n, 0);
                    let fewest = priced.iter().min_by_key(|(_, c)| (c.writes, c.reads));
                    let fewest = fewest.unwrap().0;
                    let marked: Vec<&str> = menu.iter().filter(|m| m.2).map(|m| m.0).collect();
                    assert_eq!(marked, [fewest], "{kind} n={n}: {out}");
                    first_listed_loses |= fewest != priced[0].0;
                }
            }
        }
        assert!(
            first_listed_loses,
            "no case tells the true minimum from the first entry"
        );
    }

    #[test]
    fn sort_all_small() {
        let out = run("run sort --n 2000 --mem 64 --block 8 --omega 8").unwrap();
        assert!(out.contains("sort/aem"), "{out}");
        assert!(out.contains("input=seeded"), "{out}");
        assert!(out.contains("Thm 4.5 lower bound:"), "{out}");
        assert!(out.contains("(measured/bound = "), "{out}");
        for a in ["aem", "em", "dist", "heap", "pq"] {
            let out = run(&format!("run sort --n 1000 --mem 64 --block 8 --algo {a}")).unwrap();
            assert!(out.contains(&format!("sort/{a} ")), "{out}");
        }
    }

    #[test]
    fn sort_single_algo_and_dists() {
        for d in [
            "uniform",
            "sorted",
            "reversed",
            "few-distinct",
            "organ-pipe",
        ] {
            let out = run(&format!(
                "run sort --n 500 --mem 64 --block 8 --algo aem --input {d}"
            ))
            .unwrap();
            assert!(out.contains("Q ="), "{d}");
            assert!(out.contains(&format!("input={d} ")), "{out}");
        }
        assert!(run("run sort --algo nope --n 10 --mem 64 --block 8").is_err());
        let err = run("run sort --input nope --n 10 --mem 64 --block 8").unwrap_err();
        assert!(err.contains("seeded|uniform"), "{err}");
    }

    #[test]
    fn pq_command_and_sort_algo() {
        let out = run("run pq --n 2000 --mem 64 --block 8 --omega 16").unwrap();
        assert!(out.contains("pq/pq"), "{out}");
        assert!(out.contains("candidate menu (predicted Q: exact"), "{out}");
        // The buffered queue's predictor is a certified bound.
        assert!(out.contains("  pq           bound  Q = "), "{out}");
        assert!(out.contains("Thm 4.5 lower bound:"), "{out}");
        let search = run("run search --n 2048 --delta 3 --mem 64 --block 8").unwrap();
        for row in [
            "binary       exact",
            "btree        exact",
            "eytzinger    bound",
        ] {
            assert!(search.contains(row), "{row}: {search}");
        }
        let out = run("run sort --n 1000 --mem 64 --block 8 --algo pq").unwrap();
        assert!(out.contains("Q ="), "{out}");
        let path = tmp_path("sort-pq.jsonl");
        let out = run(&format!(
            "run sort --n 1024 --mem 64 --block 8 --algo pq --trace-out {}",
            path.display()
        ))
        .unwrap();
        assert!(out.contains("rounds, budget"), "{out}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn pq_trace_export_checks_pass() {
        let path = tmp_path("pq.jsonl");
        let p = path.to_str().unwrap();
        let out = run(&format!(
            "run pq --n 2048 --mem 64 --block 8 --omega 16 --trace-out {p}"
        ))
        .unwrap();
        assert_eq!(out.matches("[PASS]").count(), 3, "{out}");
        assert!(!out.contains("[FAIL]"), "{out}");
        let text = std::fs::read_to_string(&path).unwrap();
        let rec = RunRecord::from_jsonl(&text).unwrap();
        assert_eq!(rec.workload.algo, "pq");
        assert!(rec.phases.iter().any(|ph| ph.name == "pq-drain"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn usage_enumerates_registries() {
        // The help text is generated from the fuzz-target and backend
        // registries, so every registered name must appear verbatim.
        let out = usage();
        for t in aem_fuzz::targets::all_targets() {
            assert!(out.contains(t.name), "usage missing target {}", t.name);
        }
        for b in Backend::ALL {
            assert!(out.contains(b.name()), "usage missing backend {}", b.name());
        }
    }

    #[test]
    fn registry_completeness_across_every_surface() {
        // Every registered kind must be reachable from every consumer
        // layer: a priced menu, a live `aemsim run`, a fuzz target per
        // algorithm, a strict-gate cell in COSTS.json, the help text,
        // and the docs/WORKLOADS.md catalog. A kind that registers but
        // misses a surface fails here.
        let cfg = AemConfig::new(1024, 64, 16).unwrap();
        let usage_text = usage();
        let costs =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../COSTS.json"))
                .expect("COSTS.json at the repo root");
        let catalog = std::fs::read_to_string(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../docs/WORKLOADS.md"
        ))
        .expect("docs/WORKLOADS.md at the repo root");
        let fuzz_names: Vec<&str> = aem_fuzz::targets::all_targets()
            .iter()
            .map(|t| t.name)
            .collect();
        for kind in WorkloadKind::ALL {
            let w = kind.descriptor();
            let (n, d) = w.gate_shapes[0];
            assert!(
                !w.menu(cfg, n, d).is_empty(),
                "{}: empty menu on the canonical gate shape",
                w.name
            );
            let out = run(&format!("run {} --n 300 --mem 64 --block 8", w.name)).unwrap();
            assert!(out.contains("measured"), "{}: {out}", w.name);
            assert!(out.contains("candidate menu"), "{}: {out}", w.name);
            for a in w.algos {
                assert!(
                    fuzz_names.contains(&a.fuzz_target),
                    "{}/{}: fuzz target '{}' not registered",
                    w.name,
                    a.name,
                    a.fuzz_target
                );
            }
            assert!(
                costs.contains(&format!("\"{}/", w.name)),
                "{}: no strict-gate cell in COSTS.json",
                w.name
            );
            assert!(usage_text.contains(w.name), "{}: not in usage", w.name);
            // The catalog page documents every kind as a section and
            // every algorithm and alias as a literal `code` token, so
            // registering something new without cataloguing it fails.
            assert!(
                catalog.contains(&format!("\n## {} — ", w.name)),
                "{}: no section in docs/WORKLOADS.md",
                w.name
            );
            // Each algorithm's table row in the kind's section says
            // "exact schedule" exactly when the registry marks it exact.
            let section = catalog
                .split(&format!("\n## {} — ", w.name))
                .nth(1)
                .and_then(|rest| rest.split("\n## ").next())
                .unwrap_or("");
            for a in w.algos {
                let row = section
                    .lines()
                    .find(|l| l.starts_with(&format!("| `{}`", a.name)))
                    .unwrap_or_else(|| panic!("{}/{}: no table row", w.name, a.name));
                assert_eq!(
                    row.contains("| exact schedule"),
                    a.exact,
                    "{}/{}: registry `exact` disagrees with docs/WORKLOADS.md: {row}",
                    w.name,
                    a.name
                );
            }
            for a in w.algos {
                for token in std::iter::once(&a.name).chain(a.aliases) {
                    assert!(
                        catalog.contains(&format!("`{token}`")),
                        "{}/{}: `{token}` missing from docs/WORKLOADS.md",
                        w.name,
                        a.name
                    );
                }
                assert!(
                    catalog.contains(&format!("`{}`", a.fuzz_target)),
                    "{}/{}: fuzz target `{}` missing from docs/WORKLOADS.md",
                    w.name,
                    a.name,
                    a.fuzz_target
                );
            }
            for input in w.inputs {
                assert!(
                    catalog.contains(&format!("`{input}`")),
                    "{}: input `{input}` missing from docs/WORKLOADS.md",
                    w.name
                );
                assert!(
                    usage_text.contains(input),
                    "{}: input {input} not in usage",
                    w.name
                );
            }
        }
    }

    #[test]
    fn trace_out_holds_every_check_on_every_registered_input() {
        // Every (kind, algo, input) the registry accepts at this shape
        // exports a record whose paper-invariant checks all pass.
        let path = tmp_path("every-input.jsonl");
        let p = path.to_str().unwrap();
        let mut runs = 0;
        for kind in WorkloadKind::ALL {
            let w = kind.descriptor();
            let delta = w.default_delta.min(8);
            for a in w.algos {
                for input in w.inputs {
                    let out = run(&format!(
                        "run {} --algo {} --input {input} --n 256 --delta {delta} \
                         --mem 64 --block 8 --omega 16 --trace-out {p}",
                        w.name, a.name
                    ))
                    .unwrap_or_else(|e| panic!("{}/{}/{input}: {e}", w.name, a.name));
                    assert_eq!(out.matches("[PASS]").count(), 3, "{out}");
                    let report = run(&format!("report --in {p}"))
                        .unwrap_or_else(|e| panic!("{}/{}/{input}: {e}", w.name, a.name));
                    assert!(report.contains(&format!("workload: {}/{}", w.name, a.name)));
                    runs += 1;
                }
            }
        }
        assert_eq!(runs, 5 * 6 + 2 * 5 + 2 * 3 + 6 + 3 + 3 + 2 + 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn commands_reject_options_they_do_not_read() {
        // The per-kind commands' input options are gone: `run` refuses
        // them by name and points at --input.
        for old in [
            "--dist reversed",
            "--kind transpose",
            "--rows 32",
            "--shape banded",
            "--bandwidth 8",
            "--mblock 8",
        ] {
            let err = run(&format!("run sort --n 64 --mem 64 --block 8 {old}")).unwrap_err();
            let name = old.split(' ').next().unwrap();
            assert!(err.contains(&format!("run does not take {name}")), "{err}");
            assert!(err.contains("--input"), "{err}");
        }
        // A typo'd option stops `serve` before it binds: nothing listens
        // and no address file appears.
        let addr_file = tmp_path("typo.addr");
        let err = run(&format!(
            "serve --adress 127.0.0.1:0 --addr-file {}",
            addr_file.display()
        ))
        .unwrap_err();
        assert!(err.contains("serve does not take --adress"), "{err}");
        assert!(!addr_file.exists());
        // Flags count too, and the check runs before any work: `fuzz`
        // runs no case, `report` opens no file.
        let err = run("fuzz --seed 1 --iters 1 --quik").unwrap_err();
        assert_eq!(err, "fuzz does not take --quik");
        let err = run("report --in /nonexistent.jsonl --fromat md").unwrap_err();
        assert_eq!(err, "report does not take --fromat");
        // Options a command reads only in another mode are refused too.
        let err = run("fuzz --seed 1 --iters 1 --dist uniform").unwrap_err();
        assert_eq!(err, "fuzz does not take --dist");
    }

    /// The `aemsim` command lines in the fenced blocks of `text` (a
    /// markdown page or a workflow file): lines that start with the
    /// binary or its `cargo run` and hold no `<placeholder>` or `…`,
    /// continuation lines joined, quotes dropped, cut at the first shell
    /// operator or comment.
    fn command_lines(text: &str) -> Vec<String> {
        let joined = text.replace("\\\n", " ");
        let mut fenced = !text.contains("```");
        let mut out = Vec::new();
        for line in joined.lines().map(str::trim_start) {
            if line.starts_with("```") {
                fenced = !fenced;
                continue;
            }
            let rest = [
                "cargo run --release -p aem-cli -- ",
                "cargo run -p aem-cli -- ",
                "./target/release/aemsim ",
                "aemsim ",
            ]
            .iter()
            .find_map(|prefix| line.strip_prefix(prefix));
            let Some(rest) = rest.filter(|r| fenced && !r.contains(['<', '…'])) else {
                continue;
            };
            let end = rest.find(['#', '|', '>', '&', ';']).unwrap_or(rest.len());
            out.push(rest[..end].replace('"', "").trim().to_string());
        }
        out
    }

    #[test]
    fn documented_command_lines_parse() {
        // Every aemsim line in CI, the README and the docs reaches its
        // command's option check and passes it (stopping there, before
        // any work), as does the line hostbench boots the server with.
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
        let mut files = vec![
            format!("{root}/.github/workflows/ci.yml"),
            format!("{root}/README.md"),
        ];
        for entry in std::fs::read_dir(format!("{root}/docs")).unwrap() {
            let path = entry.unwrap().path();
            if path.extension().is_some_and(|e| e == "md") {
                files.push(path.display().to_string());
            }
        }
        let mut lines = vec!["serve --addr 127.0.0.1:0 --workers 4 --addr-file addr".to_string()];
        for f in &files {
            lines.extend(command_lines(&std::fs::read_to_string(f).unwrap()));
        }
        assert!(lines.len() > 30, "{lines:?}");
        assert!(lines
            .iter()
            .any(|l| l.starts_with("run sort --n 4096 --algo aem --trace-out")));
        for kernel in [
            "run permute --n 524288 --mem 65536 --block 256 --omega 16",
            "run spmv --n 131072 --delta 4 --mem 65536 --block 256 --omega 16",
            "run pq --n 262144 --mem 65536 --block 256 --omega 16",
            "run bfs --algo mark --n 4096 --delta 3 --mem 1024 --block 64 --backend arena --trace-out bfs-arena.jsonl",
            "run pq --algo pq --n 16384 --mem 64 --block 8 --backend arena --trace-out pq-arena.jsonl",
            "run bfs --algo mark --n 4096 --delta 3 --mem 1024 --block 64 --backend vec",
            "run search --n 4096 --delta 512 --mem 1024 --block 64 --backend vec --trace-out search-vec.jsonl",
            "run search --n 4096 --delta 512 --mem 1024 --block 64 --backend ghost",
            "run search --n 4096 --delta 512 --mem 1024 --block 64 --backend ghost --trace-out search-ghost.jsonl",
        ] {
            assert!(lines.iter().any(|l| l == kernel), "CI runs `{kernel}`");
        }
        for line in &lines {
            let mut args = Args::parse(line.split_whitespace().map(String::from)).expect(line);
            args.dry_run = true;
            let got = dispatch(&args).unwrap_or_else(|e| e);
            assert_eq!(got.lines().next(), Some(DRY_RUN), "`{line}`");
        }
    }

    #[test]
    fn run_command_reports_cost_and_menu() {
        let out = run("run search --n 512 --delta 32 --mem 64 --block 8").unwrap();
        assert!(out.contains("search/btree"), "{out}");
        assert!(out.contains("← ran"), "{out}");
        assert!(out.contains("(cheapest)"), "{out}");
        assert!(out.contains("output checksum: 0x"), "{out}");
        // Algo aliases resolve through the registry.
        let alias = run("run permute --algo by_sort --n 256 --mem 64 --block 8").unwrap();
        assert!(alias.contains("permute/by-sort"), "{alias}");
        // Ghost runs price but don't verify; payload-routed algorithms
        // refuse the cost-only backend outright.
        let ghost =
            run("run permute --algo naive --n 256 --mem 64 --block 8 --backend ghost").unwrap();
        assert!(ghost.contains("cost-only backend"), "{ghost}");
        assert!(
            run("run permute --algo by-sort --n 256 --mem 64 --block 8 --backend ghost").is_err()
        );
        // Shape validity comes from the registry predicate.
        assert!(run("run spmv --n 16 --delta 32 --mem 64 --block 8").is_err());
        assert!(run("run search --n 100 --delta 0 --mem 64 --block 8").is_err());
        assert!(run("run bogus --n 10").is_err());
        assert!(run("run").is_err());
    }

    #[test]
    fn profile_search_via_registry() {
        let prefix = tmp_path("prof-search");
        let p = prefix.to_str().unwrap();
        let out = run(&format!(
            "profile search --n 512 --delta 16 --mem 64 --block 8 --out {p}"
        ))
        .unwrap();
        assert!(out.contains("search/btree"), "{out}");
        assert!(out.contains("profile artifacts"), "{out}");
        let folded = std::fs::read_to_string(format!("{p}.folded")).unwrap();
        assert!(folded.contains("search/btree;"), "{folded}");
        for suffix in [".folded", ".heatmap.txt", ".prom", ".flight.jsonl"] {
            std::fs::remove_file(format!("{p}{suffix}")).ok();
        }
        // Key-routed descent refuses the ghost backend; the oblivious
        // layouts accept it.
        assert!(
            run("profile search --algo eytzinger --n 256 --mem 64 --block 8 --backend ghost")
                .is_err()
        );
        let prefix = tmp_path("prof-search-ghost");
        let p = prefix.to_str().unwrap();
        let out = run(&format!(
            "profile search --algo binary --n 256 --mem 64 --block 8 --backend ghost --out {p}"
        ))
        .unwrap();
        assert!(out.contains("search/binary"), "{out}");
        for suffix in [".folded", ".heatmap.txt", ".prom", ".flight.jsonl"] {
            std::fs::remove_file(format!("{p}{suffix}")).ok();
        }
    }

    #[test]
    fn permute_kinds() {
        for k in ["random", "identity", "reverse"] {
            let out = run(&format!(
                "run permute --n 1024 --mem 64 --block 8 --input {k}"
            ))
            .unwrap();
            assert!(out.contains("Thm 4.5 lower bound:"), "{k}");
        }
        let out = run("run permute --n 1024 --mem 64 --block 8 --input bit-reversal").unwrap();
        assert!(out.contains("bit-reversal"));
        let out = run("run permute --n 1024 --mem 64 --block 8 --input transpose").unwrap();
        assert!(out.contains("transpose"));
        let err = run("run permute --n 1000 --mem 64 --block 8 --input bit-reversal").unwrap_err();
        assert!(err.contains("power of two"), "{err}");
    }

    #[test]
    fn spmv_shapes() {
        for s in ["random", "banded", "block-diagonal"] {
            let out = run(&format!(
                "run spmv --n 128 --delta 2 --mem 64 --block 8 --input {s}"
            ))
            .unwrap();
            assert!(out.contains(&format!("input={s} ")), "{out}");
            // SpMxV has no Thm 4.5 line; its Thm 5.1 bound lives in `bounds`.
            assert!(!out.contains("Thm 4.5"), "{out}");
        }
        let out = run("bounds --n 128 --delta 2 --mem 64 --block 8").unwrap();
        assert!(out.contains("Thm 5.1"), "{out}");
        assert!(
            run("run spmv --n 19 --delta 4 --mem 64 --block 8 --input block-diagonal").is_err()
        );
    }

    #[test]
    fn bounds_report() {
        let out = run("bounds --n 1048576 --mem 1024 --block 64 --omega 32").unwrap();
        assert!(out.contains("counting rounds"));
        assert!(out.contains("Thm 5.1"));
    }

    #[test]
    fn trace_report() {
        let path = tmp_path("rounds.jsonl");
        let p = path.to_str().unwrap();
        let out = run(&format!(
            "run sort --n 2048 --mem 64 --block 8 --omega 32 --algo aem --trace-out {p}"
        ))
        .unwrap();
        assert!(out.contains("rounds, budget"), "{out}");
        assert!(out.contains("round-based Q"), "{out}");
        let report = run(&format!("report --in {p}")).unwrap();
        assert!(report.contains("aux I/O:"), "{report}");
        assert!(report.contains("max re-reads of one block"), "{report}");
        std::fs::remove_file(&path).ok();
        assert!(run(&format!(
            "run sort --algo nope --n 10 --mem 64 --block 8 --trace-out {p}"
        ))
        .is_err());
        assert!(!path.exists(), "a refused run must not write its record");
    }

    #[test]
    fn lemma43_report() {
        let out = run("lemma43 --n 512 --mem 64 --block 16 --omega 4").unwrap();
        assert!(out.contains("layout verified"));
        assert!(out.contains("% of bound"));
    }

    #[test]
    fn fuzz_generative_is_deterministic_and_passes() {
        let a = run("fuzz --seed 42 --iters 20").unwrap();
        let b = run("fuzz --seed 42 --iters 20").unwrap();
        assert_eq!(a, b);
        assert!(a.contains("result: PASS"), "{a}");
        assert!(a.contains("seed 42"), "{a}");
        let c = run("fuzz --seed 43 --iters 20").unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn fuzz_target_filter_and_unknown_target() {
        let out = run("fuzz --seed 1 --iters 5 --target spmv").unwrap();
        assert!(out.contains("targets: spmv_direct, spmv_sorted"), "{out}");
        let err = run("fuzz --seed 1 --iters 5 --target bogus").unwrap_err();
        assert!(err.contains("valid targets"), "{err}");
    }

    #[test]
    fn fuzz_inline_replay_shape() {
        let out = run(
            "fuzz --target merge_sort --mem 8 --block 4 --omega 64 --n 33 \
             --case-seed 11 --dist uniform --distinct 1 --delta 4",
        )
        .unwrap();
        assert!(out.contains("result: PASS"), "{out}");
        assert!(run("fuzz --case-seed 1 --n 5").is_err()); // missing --target
    }

    #[test]
    fn fuzz_replay_corpus_file() {
        // The corpus lives in the fuzz crate; resolve it relative to this
        // crate's manifest so the test runs from any working directory.
        let corpus = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../fuzz/corpus/omega_ge_block_merge_sort.json");
        let out = run(&format!("fuzz --replay {}", corpus.display())).unwrap();
        assert!(out.contains("result: PASS"), "{out}");
        assert!(run("fuzz --replay /nonexistent.json").is_err());
    }

    #[test]
    fn no_command_prints_usage() {
        let out = run("").unwrap();
        assert!(out.contains("USAGE"));
        assert!(run("bogus").is_err());
    }

    fn tmp_path(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("aemsim-test-{}-{name}", std::process::id()))
    }

    #[test]
    fn sort_trace_export_then_report() {
        let path = tmp_path("sort.jsonl");
        let p = path.to_str().unwrap();
        let out = run(&format!(
            "run sort --n 2048 --mem 64 --block 8 --algo aem --trace-out {p}"
        ))
        .unwrap();
        assert_eq!(out.matches("[PASS]").count(), 3, "{out}");
        assert!(!out.contains("[FAIL]"), "{out}");

        let report = run(&format!("report --in {p}")).unwrap();
        assert!(report.contains("Phases"), "{report}");
        assert!(report.contains("merge-level-1"), "{report}");
        assert_eq!(report.matches("PASS").count(), 3, "{report}");

        let md = run(&format!("report --in {p} --format md")).unwrap();
        assert!(md.contains("| phase | Q |"), "{md}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn permute_and_spmv_trace_export() {
        let path = tmp_path("permute.jsonl");
        let p = path.to_str().unwrap();
        let out = run(&format!(
            "run permute --n 1024 --mem 64 --block 8 --trace-out {p}"
        ))
        .unwrap();
        assert_eq!(out.matches("[PASS]").count(), 3, "{out}");
        let report = run(&format!("report --in {p}")).unwrap();
        assert!(report.contains("permute-tag-sort"), "{report}");
        std::fs::remove_file(&path).ok();

        let path = tmp_path("spmv.jsonl");
        let p = path.to_str().unwrap();
        let out = run(&format!(
            "run spmv --n 128 --delta 2 --mem 64 --block 8 --trace-out {p}"
        ))
        .unwrap();
        assert_eq!(out.matches("[PASS]").count(), 3, "{out}");
        let report = run(&format!("report --in {p}")).unwrap();
        assert!(report.contains("merge-add"), "{report}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn trace_command_export_roundtrips() {
        let path = tmp_path("trace.jsonl");
        let p = path.to_str().unwrap();
        let out = run(&format!(
            "run sort --n 2048 --mem 64 --block 8 --algo heap --trace-out {p}"
        ))
        .unwrap();
        assert!(out.contains("trace record:"), "{out}");
        let text = std::fs::read_to_string(&path).unwrap();
        let rec = RunRecord::from_jsonl(&text).unwrap();
        assert_eq!(rec.workload.algo, "heap");
        assert!(rec.phases.iter().any(|ph| ph.name == "pq-extract"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn profile_sort_writes_artifacts_per_backend() {
        for b in Backend::ALL {
            let prefix = tmp_path(&format!("prof-{}", b.name()));
            let p = prefix.to_str().unwrap();
            let out = run(&format!(
                "profile sort --n 2048 --mem 64 --block 8 --omega 16 --backend {} --out {p}",
                b.name()
            ))
            .unwrap();
            assert!(out.contains("predictor residuals"), "{out}");
            assert!(out.contains("run"), "{out}");
            assert!(out.contains("per-block heatmap"), "{out}");
            let folded = std::fs::read_to_string(format!("{p}.folded")).unwrap();
            assert!(folded.contains("sort/aem;"), "{folded}");
            assert!(
                folded.contains(";read ") || folded.contains(";write "),
                "{folded}"
            );
            let prom = std::fs::read_to_string(format!("{p}.prom")).unwrap();
            assert!(prom.contains("# TYPE aem_run_q gauge"), "{prom}");
            assert!(
                prom.contains(&format!("backend=\"{}\"", b.name())),
                "{prom}"
            );
            let flight = std::fs::read_to_string(format!("{p}.flight.jsonl")).unwrap();
            assert!(flight.lines().count() <= aem_obs::DEFAULT_FLIGHT_CAPACITY);
            assert!(flight.contains("\"t\":\"flight\""), "{flight}");
            assert!(std::fs::read_to_string(format!("{p}.heatmap.txt"))
                .unwrap()
                .contains("reads  |"));
            for suffix in [".folded", ".heatmap.txt", ".prom", ".flight.jsonl"] {
                std::fs::remove_file(format!("{p}{suffix}")).ok();
            }
        }
    }

    #[test]
    fn profile_other_workloads_and_ghost_rejection() {
        let prefix = tmp_path("prof-misc");
        let p = prefix.to_str().unwrap();
        for w in ["pq", "permute", "spmv"] {
            let out = run(&format!("profile {w} --n 512 --mem 64 --block 8 --out {p}")).unwrap();
            assert!(out.contains("profile artifacts"), "{w}: {out}");
        }
        for suffix in [".folded", ".heatmap.txt", ".prom", ".flight.jsonl"] {
            std::fs::remove_file(format!("{p}{suffix}")).ok();
        }
        // Payload-dependent workloads refuse the cost-only backend.
        assert!(run("profile permute --n 512 --mem 64 --block 8 --backend ghost").is_err());
        assert!(run("profile spmv --n 128 --mem 64 --block 8 --backend ghost").is_err());
        // Missing/unknown operand.
        assert!(run("profile").is_err());
        assert!(run("profile bogus --n 64 --mem 64 --block 8").is_err());
    }

    #[test]
    fn report_fails_nonzero_on_checker_violation() {
        let path = tmp_path("tampered.jsonl");
        let p = path.to_str().unwrap();
        run(&format!(
            "run sort --n 2048 --mem 64 --block 8 --algo aem --trace-out {p}"
        ))
        .unwrap();
        // Shrink the recorded workload size: the Thm 3.2 predictor upper
        // bound for N=64 is far below the measured N=2048 cost, so the
        // cost-sandwich checker must fail.
        let text = std::fs::read_to_string(&path).unwrap();
        let tampered = text.replace("\"n\":2048", "\"n\":64");
        assert_ne!(text, tampered, "workload line not found to tamper");
        std::fs::write(&path, tampered).unwrap();
        let err = run(&format!("report --in {p}")).unwrap_err();
        assert!(err.contains("paper-invariant checker FAILED"), "{err}");
        assert!(err.contains("cost-sandwich"), "{err}");
        assert!(err.contains("flight recorder"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn report_errors() {
        assert!(run("report").is_err());
        assert!(run("report --in /nonexistent/x.jsonl").is_err());
        let path = tmp_path("bad.jsonl");
        std::fs::write(&path, "not json\n").unwrap();
        let p = path.to_str().unwrap();
        assert!(run(&format!("report --in {p}")).is_err());
        assert!(run(&format!("report --in {p} --format bogus")).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn usage_lists_the_serving_commands() {
        let out = usage();
        assert!(out.contains("serve "), "{out}");
        assert!(out.contains("serve-load"), "{out}");
    }

    #[test]
    fn serve_rejects_an_unbindable_addr() {
        let err = run("serve --addr not-an-address").unwrap_err();
        assert!(err.contains("not-an-address"), "{err}");
    }

    /// Boot `aemsim serve` in a thread, drive it with `aemsim serve-load`,
    /// then drain it through the shared SIGTERM flag. Returns the load
    /// report and the admission log.
    fn serve_cycle(tag: &str, seed: u64) -> (String, String) {
        use std::sync::atomic::Ordering;
        // This helper is only called from one test, sequentially, so the
        // process-wide flag can be reset between cycles.
        aem_serve::SHUTDOWN.store(false, Ordering::SeqCst);
        let addr_file = tmp_path(&format!("serve-{tag}.addr"));
        let log_file = tmp_path(&format!("serve-{tag}.admission.jsonl"));
        let _ = std::fs::remove_file(&addr_file);
        let line = format!(
            "serve --addr 127.0.0.1:0 --workers 2 --addr-file {} --admission-log {}",
            addr_file.display(),
            log_file.display()
        );
        let server = std::thread::spawn(move || run(&line));
        let addr = {
            let mut tries = 0;
            loop {
                if let Ok(s) = std::fs::read_to_string(&addr_file) {
                    if s.trim().contains(':') {
                        break s.trim().to_string();
                    }
                }
                tries += 1;
                assert!(tries < 200, "serve never wrote its address file");
                std::thread::sleep(std::time::Duration::from_millis(25));
            }
        };
        let report = run(&format!(
            "serve-load --addr {addr} --tenants 2 --jobs 4 --seed {seed}"
        ))
        .unwrap();
        aem_serve::SHUTDOWN.store(true, Ordering::SeqCst);
        let summary = server.join().unwrap().unwrap();
        assert!(summary.contains("drained cleanly"), "{summary}");
        let log = std::fs::read_to_string(&log_file).unwrap();
        std::fs::remove_file(&addr_file).ok();
        std::fs::remove_file(&log_file).ok();
        (report, log)
    }

    #[test]
    fn serve_and_serve_load_cycles_are_deterministic() {
        let (report1, log1) = serve_cycle("det1", 7);
        let (report2, log2) = serve_cycle("det2", 7);
        assert_eq!(report1, report2, "same-seed reports must be identical");
        assert_eq!(log1, log2, "same-seed admission logs must be identical");
        assert!(log1.contains("\"decision\""), "{log1}");
        assert!(report1.contains("stats"), "{report1}");
    }
}
