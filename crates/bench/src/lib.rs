//! # `aem-bench` — the experiment harness
//!
//! The paper proves bounds instead of plotting measurements, so the
//! "tables and figures" this harness regenerates are the quantitative
//! claims of its theorems (see DESIGN.md §3 for the experiment index):
//!
//! | Id | Claim | Module |
//! |----|-------|--------|
//! | T1/F1 | Thm 3.2 sorting cost; AEM vs EM separation | [`exp::sorting`] |
//! | T2 | Thm 3.2 merging cost | [`exp::merge`] |
//! | T3 | Lemma 4.1 round-based overhead | [`exp::rounds`] |
//! | T4 | Lemma 4.3 flash simulation volume | [`exp::flash`] |
//! | T5/F2 | Thm 4.5 permuting bound & branch crossover | [`exp::permute`] |
//! | T6/T7 | §5 SpMxV upper bounds & Thm 5.1 | [`exp::spmv`] |
//! | F3 | ARAM ≡ (M,1,ω)-AEM | [`exp::model`] |
//!
//! Every experiment is deterministic (seeded workloads, exact I/O
//! metering), so the emitted tables are reproducible bit-for-bit. Each
//! also has a binary (`cargo run --release --bin exp_*`) and `run_all`
//! regenerates the data behind `EXPERIMENTS.md`.
//!
//! Experiments are declared as [`sweep::Sweep`]s — grids of independent,
//! cached, keyed cells — and executed either serially
//! ([`sweep::Sweep::run_serial`]) or on the parallel resumable engine
//! ([`sweep::run`]); `run_all --jobs N --cache FILE` drives the latter.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod costgate;
pub mod exp;
pub mod perfgate;
pub mod sweep;
pub mod table;
pub mod timing;

pub use table::Table;

/// Parse `--backend NAME` / `--backend=NAME` from a CLI argument list
/// (shared by the `exp_*` binaries and `run_all`). Defaults to the vec
/// backend; exits with a diagnostic on an unknown name.
pub fn backend_from_args(args: &[String]) -> aem_machine::Backend {
    let mut i = 0;
    while i < args.len() {
        let name = if let Some(v) = args[i].strip_prefix("--backend=") {
            Some(v.to_string())
        } else if args[i] == "--backend" {
            i += 1;
            args.get(i).cloned()
        } else {
            None
        };
        if let Some(name) = name {
            match aem_machine::Backend::from_name(&name) {
                Ok(b) => return b,
                Err(e) => {
                    eprintln!("{e}");
                    std::process::exit(2);
                }
            }
        }
        i += 1;
    }
    aem_machine::Backend::Vec
}
