//! Regenerate every experiment table (the data behind EXPERIMENTS.md) on
//! the parallel sweep engine — the one front end over
//! [`aem_bench::exp::all_sweeps`].
//!
//! ```text
//! cargo run --release -p aem-bench --bin run_all -- [FLAGS]
//! ```
//!
//! `run_all --help` prints the flag list. The markdown/CSV document on
//! stdout is deterministic: byte-identical for any `--jobs` value.
//! Timings, the per-experiment PASS/FAIL/PANIC summary and engine
//! statistics go to stderr. A cell or renderer panic is contained to its
//! experiment (the rest still run and print); the exit code is nonzero if
//! any experiment did not PASS, but only after all of them have run.

use std::process::ExitCode;

use aem_bench::sweep::{self, RunOptions};
use aem_machine::Backend;

/// The flag list `--help` prints.
const USAGE: &str = "\
usage: run_all [FLAGS]

  --quick         shrink every grid (the test-suite sizes)
  --csv           emit CSV instead of markdown
  --jobs N        worker threads (default: all cores; 1 = serial)
  --only IDS      comma-separated experiment-id prefixes (e.g. t1,f5)
  --stats         print the engine's timing/utilization table (stderr)
  --backend NAME  storage backend: vec (default), arena, ghost or trace
  --help          print this flag list
";

/// The parsed command line.
#[derive(Default)]
struct Flags {
    quick: bool,
    csv: bool,
    stats: bool,
    help: bool,
    backend: Backend,
    opts: RunOptions,
}

fn parse(args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags::default();
    let mut i = 0;
    while i < args.len() {
        let (flag, inline) = match args[i].split_once('=') {
            Some((f, v)) => (f, Some(v.to_string())),
            None => (args[i].as_str(), None),
        };
        let mut value = |name: &str| -> Result<String, String> {
            if let Some(v) = inline.clone() {
                return Ok(v);
            }
            i += 1;
            args.get(i)
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag {
            "--quick" => flags.quick = true,
            "--csv" => flags.csv = true,
            "--stats" => flags.stats = true,
            "--help" | "-h" => flags.help = true,
            "--jobs" => {
                flags.opts.jobs = value("--jobs")?
                    .parse()
                    .map_err(|e| format!("--jobs: {e}"))?
            }
            "--backend" => {
                flags.backend = Backend::from_name(&value("--backend")?)
                    .map_err(|e| format!("--backend: {e}"))?
            }
            "--only" => {
                flags.opts.only = Some(
                    value("--only")?
                        .split(',')
                        .filter(|s| !s.is_empty())
                        .map(str::to_string)
                        .collect(),
                )
            }
            other => return Err(format!("unknown flag {other}")),
        }
        i += 1;
    }
    Ok(flags)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flags = match parse(&args) {
        Ok(flags) => flags,
        Err(e) => {
            eprintln!("run_all: {e} (`run_all --help` lists the flags)");
            return ExitCode::from(2);
        }
    };
    if flags.help {
        print!("{USAGE}");
        return ExitCode::SUCCESS;
    }

    let sweeps = aem_bench::exp::all_sweeps(flags.quick, flags.backend);
    let report = match sweep::run(&sweeps, &flags.opts) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("run_all: {e}");
            return ExitCode::from(2);
        }
    };

    if flags.csv {
        for o in &report.outcomes {
            if let Some(t) = &o.table {
                print!("{}", t.to_csv());
                println!();
            }
        }
    } else {
        println!("# AEM reproduction — experiment tables\n");
        println!(
            "Generated by `cargo run --release -p aem-bench --bin run_all{}`.\n",
            if flags.quick { " -- --quick" } else { "" }
        );
        for o in &report.outcomes {
            if let Some(t) = &o.table {
                t.print();
            }
        }
    }

    // Diagnostics on stderr, never in the deterministic document.
    for o in &report.outcomes {
        match &o.panic {
            Some(msg) => eprintln!("run_all: {:5} PANIC  {}", o.id, msg),
            None => eprintln!("run_all: {:5} {}", o.id, o.verdict()),
        }
    }
    let not_pass = report
        .outcomes
        .iter()
        .filter(|o| o.verdict() != "PASS")
        .count();
    eprintln!(
        "run_all: {} experiments, {} cells simulated, {} not passing",
        report.outcomes.len(),
        report.executed,
        not_pass
    );
    if flags.stats {
        eprint!("{}", report.stats_table().to_markdown());
    }

    if not_pass > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
