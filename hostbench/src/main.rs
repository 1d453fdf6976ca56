//! Host-time benchmark of the aem workspace: the `aemsim serve` job service
//! driven over TCP (serve-payload, serve-priced) and the simulator at a
//! large machine shape in process (sim-large).
//!
//! ```text
//! hostbench --workload <serve-payload|serve-priced|sim-large> --seed N
//!           --seconds S --trace <0|1> --aemsim PATH [--out DIR]
//!           [--expected FILE] [--commit REV] [--rustc VERSION]
//! hostbench --write-expected FILE
//! ```
//!
//! The last line of standard output is the result object; tables and host
//! details go to standard error. `run.py` beside this package builds both
//! binaries and supplies the paths. See `NOTES.md` for the design.

mod calib;
mod catalog;
mod golden;
mod inproc;
mod sequence;
mod server;
mod serving;
mod sim;
mod simlarge;
mod spans;
mod stats;

use sequence::Serving;
use std::path::PathBuf;
use std::process::ExitCode;

/// Everything a workload run needs to know.
pub struct Ctx {
    pub aemsim: PathBuf,
    pub out: PathBuf,
    pub seed: u64,
    pub seconds: u64,
    pub traced: bool,
    pub pinned: golden::Pinned,
}

const WORKLOADS: [&str; 3] = ["serve-payload", "serve-priced", "sim-large"];

fn value<'a>(args: &'a [String], key: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == key)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parsed<T: std::str::FromStr>(args: &[String], key: &str) -> Result<T, String> {
    let v = value(args, key).ok_or_else(|| format!("missing {key}"))?;
    v.parse()
        .map_err(|_| format!("invalid value for {key}: '{v}'"))
}

fn write_expected(args: &[String]) -> Result<(), String> {
    let path = PathBuf::from(value(args, "--write-expected").expect("checked by caller"));
    let mut pinned = golden::Pinned::new();
    for w in [Serving::Payload, Serving::Priced] {
        pinned.insert(w.name().to_string(), serving::pinned_totals(w, 0));
    }
    pinned.insert("sim-large".to_string(), simlarge::pinned_totals()?);
    std::fs::write(&path, golden::render(&pinned))
        .map_err(|e| format!("write {}: {e}", path.display()))
}

fn run(args: &[String]) -> Result<bool, String> {
    if value(args, "--write-expected").is_some() {
        write_expected(args)?;
        return Ok(true);
    }
    let workload = value(args, "--workload").ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload) {
        return Err(format!(
            "unknown workload '{workload}' ({})",
            WORKLOADS.join("|")
        ));
    }
    let trace: u8 = parsed(args, "--trace")?;
    let seconds: u64 = parsed(args, "--seconds")?;
    if trace > 1 || seconds == 0 {
        return Err("--trace takes 0 or 1, --seconds a positive integer".into());
    }
    let out = PathBuf::from(value(args, "--out").unwrap_or(".bench_out"));
    std::fs::create_dir_all(&out).map_err(|e| format!("create {}: {e}", out.display()))?;
    let cx = Ctx {
        aemsim: PathBuf::from(value(args, "--aemsim").unwrap_or("aemsim")),
        out,
        seed: parsed(args, "--seed")?,
        seconds,
        traced: trace == 1,
        pinned: match value(args, "--expected") {
            Some(p) => golden::load(std::path::Path::new(p))?,
            None => golden::Pinned::new(),
        },
    };
    eprintln!(
        "host: nproc={} commit={} rustc={}; workload={workload} seed={} seconds={} trace={trace}",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        value(args, "--commit").unwrap_or("unknown"),
        value(args, "--rustc").unwrap_or("unknown"),
        cx.seed,
        cx.seconds,
    );
    let report = match workload {
        "serve-payload" => serving::run(Serving::Payload, &cx)?,
        "serve-priced" => serving::run(Serving::Priced, &cx)?,
        _ => simlarge::run(&cx)?,
    };
    println!("{}", report.to_line(cx.traced)?);
    Ok(report.correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("hostbench: output mismatch or simulated-statistics drift (see above)");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("hostbench: {e}");
            ExitCode::from(2)
        }
    }
}
