//! `cost_gate` — meter the canonical workload/backend cells and compare
//! the exact `(Q_r, Q_w)` integers against the committed `COSTS.json`.
//!
//! ```text
//! cargo run -p aem-bench --bin cost_gate                # report
//! cargo run -p aem-bench --bin cost_gate -- --strict    # CI: fail on drift
//! cargo run -p aem-bench --bin cost_gate -- --write     # refresh snapshot
//! ```
//!
//! There is no tolerance: the simulator is deterministic and a
//! single-I/O drift is a cost-model change. Pass
//! `--costs FILE` to override the snapshot path (default `COSTS.json` in
//! the working directory). `--write` re-meters and overwrites the
//! snapshot — only for deliberate, reviewed refreshes.

use std::path::Path;

use aem_bench::costgate::{measure, run_cost_gate};

fn arg_value(args: &[String], key: &str) -> Option<String> {
    let eq = format!("{key}=");
    let mut i = 0;
    while i < args.len() {
        if let Some(v) = args[i].strip_prefix(&eq) {
            return Some(v.to_string());
        }
        if args[i] == key {
            return args.get(i + 1).cloned();
        }
        i += 1;
    }
    None
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let costs = arg_value(&args, "--costs").unwrap_or_else(|| "COSTS.json".to_string());
    let strict = args.iter().any(|a| a == "--strict");
    let write = args.iter().any(|a| a == "--write");

    if write {
        match measure() {
            Ok(doc) => {
                let mut text = doc.to_string_compact();
                text.push('\n');
                if let Err(e) = std::fs::write(&costs, &text) {
                    eprintln!("cost_gate: cannot write {costs}: {e}");
                    std::process::exit(2);
                }
                println!("cost_gate: wrote {costs}");
            }
            Err(e) => {
                eprintln!("cost_gate: {e}");
                std::process::exit(2);
            }
        }
        return;
    }

    match run_cost_gate(Path::new(&costs)) {
        Ok(report) => {
            print!("{}", report.render());
            if strict && !report.drifts().is_empty() {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("cost_gate: {e}");
            std::process::exit(2);
        }
    }
}
