//! Raw simulator overhead: block transfers per second, plain vs
//! round-based machines, the flash replay path — and, since the
//! pluggable-store refactor, the same block-I/O loops per storage
//! backend (vec vs arena vs ghost), which is where the ghost store's
//! payload elision shows up as wall-clock. Arena builds the vec machine,
//! so its rows time the same code as vec's.
//!
//! `--json PATH` additionally writes the backend comparison (ops/sec per
//! backend plus the quick-sweep wall time per backend) as a JSON
//! document; `BENCH_PR4.json`, `BENCH_PR6.json` and `BENCH_PR7.json` at
//! the repo root are committed snapshots (PR6 adds the PQ-sort row; PR7
//! moves the scan and the permuter's output path onto the bulk
//! `read_run`/`write_run` API and adds the trace backend plus the
//! repeat-cell re-pricing row), and
//! `cargo run -p aem-bench --bin perf_gate` compares a fresh run against
//! the newest committed baseline (see README, "Bench baselines").

use std::time::Instant;

use aem_bench::timing::{bench, bench_with_elems, Measurement};
use aem_core::permute::permute_naive_on;
use aem_core::sort::{merge_sort, sort_via_pq};
use aem_flash::driver::naive_atom_permutation;
use aem_flash::verify_lemma_4_3;
use aem_machine::{
    with_backend_machine, AemAccess, AemConfig, Backend, GhostMachine, Machine, RoundBasedMachine,
    TraceMachine,
};
use aem_obs::json::{obj, Json};
use aem_workloads::{KeyDist, PermKind};

/// Block-scan copy (read every block, write every block) on one backend,
/// streamed through the bulk API in runs of `m = M/B` blocks: one
/// ledger/meter update and one bounds sweep per run instead of per block.
///
/// Since PR7 the machine is set up (and the input installed) outside the
/// timed loop: `machine_io` rows measure the *metered I/O path* — the
/// thing the bulk API optimizes — not problem setup, which under copy
/// semantics allocates one `Vec` per block and used to dominate the row.
fn scan_copy_backend(backend: Backend, cfg: AemConfig, data: &[u64]) -> Measurement {
    let run = (cfg.memory / cfg.block).max(1);
    with_backend_machine!(backend, u64, |M| {
        let mut m = M::new(cfg);
        let r = m.install(data);
        let out = m.alloc_region(r.elems);
        let mut buf: Vec<u64> = Vec::new();
        bench_with_elems(
            &format!("machine_io/scan_copy_{}", backend.name()),
            data.len() as u64,
            || {
                let mut i = 0;
                while i < r.blocks {
                    let count = run.min(r.blocks - i);
                    m.read_run(r.block(i), count, &mut buf).unwrap();
                    m.write_run(out.block(i), &buf).unwrap();
                    i += count;
                }
            },
        )
    })
}

/// Re-pricing a sweep cell that has already been run once — the
/// situation a cached sweep repeat or an `ω`-rescan hits. The ghost
/// backend re-executes the whole block-dispatch loop every time; the
/// trace backend records the schedule once and re-prices it as one
/// arithmetic pass over the compiled ops ([`CompiledTrace::replay`]).
/// Rows exist only for those two backends.
///
/// [`CompiledTrace::replay`]: aem_machine::CompiledTrace::replay
fn repeat_cell_backend(backend: Backend, cfg: AemConfig, n: usize) -> Option<Measurement> {
    let pi = PermKind::Random { seed: 9 }.generate(n);
    let values: Vec<u64> = (0..n as u64).collect();
    match backend {
        Backend::Ghost => Some(bench_with_elems("repeat_cell/ghost", n as u64, || {
            let mut m: GhostMachine<u64> = GhostMachine::new(cfg);
            let r = m.install(&values);
            permute_naive_on(&mut m, r, &pi).unwrap();
        })),
        Backend::Trace => {
            let mut m: TraceMachine<u64> = TraceMachine::new(cfg);
            let r = m.install(&values);
            permute_naive_on(&mut m, r, &pi).unwrap();
            let expected = m.cost();
            let schedule = m.into_schedule();
            Some(bench_with_elems("repeat_cell/trace", n as u64, || {
                assert_eq!(schedule.replay(), expected);
            }))
        }
        _ => None,
    }
}

/// The payload-oblivious naive permuter on one backend (the workload the
/// ghost frontier sweep T5X runs at scale). Each iteration is a complete
/// run — reset, install, gather — on one long-lived machine: `reset`
/// recycles the store's block buffers, so steady-state iterations touch
/// the allocator not at all and the row measures the simulator's metered
/// path rather than malloc churn.
fn permute_backend(backend: Backend, cfg: AemConfig, n: usize) -> Measurement {
    let pi = PermKind::Random { seed: 9 }.generate(n);
    let values: Vec<u64> = (0..n as u64).collect();
    with_backend_machine!(backend, u64, |M| {
        let mut m = M::new(cfg);
        bench_with_elems(
            &format!("permute_naive/{}", backend.name()),
            n as u64,
            || {
                m.reset();
                let r = m.install(&values);
                permute_naive_on(&mut m, r, &pi).unwrap()
            },
        )
    })
}

/// The PQ-backed sorter on one backend. Sound on the ghost store too:
/// placeholder payloads mean constant keys, and the buffered queue's
/// merges resolve ties positionally (the T9G experiment runs the same
/// degenerate workload), so the schedule is well-defined and the cost
/// is the structural cost of the queue machinery.
fn pq_sort_backend(backend: Backend, cfg: AemConfig, n: usize) -> Measurement {
    let input = KeyDist::Uniform { seed: 5 }.generate(n);
    with_backend_machine!(backend, u64, |M| {
        bench_with_elems(&format!("pq_sort/{}", backend.name()), n as u64, || {
            let mut m = M::new(cfg);
            let r = m.install(&input);
            sort_via_pq(&mut m, r).unwrap()
        })
    })
}

/// One full quick-grid sweep run for a backend, timed once (seconds).
fn quick_sweep_secs(backend: Backend) -> f64 {
    let sweeps = aem_bench::exp::all_sweeps(true, backend);
    let t0 = Instant::now();
    let report = aem_bench::sweep::run(&sweeps, &Default::default()).unwrap();
    let secs = t0.elapsed().as_secs_f64();
    assert!(report.executed > 0);
    secs
}

fn json_f64(v: f64) -> Json {
    // The obs JSON writer keeps floats verbatim; round to keep the
    // committed artifact diff-friendly.
    Json::Num((v * 1000.0).round() / 1000.0)
}

/// A one-level pretty printer (the obs writer is compact-only), so the
/// committed BENCH_PR4.json diffs line-by-line across refreshes.
fn pretty(doc: &Json) -> String {
    let Json::Obj(members) = doc else {
        return doc.to_string_compact();
    };
    let mut out = String::from("{\n");
    for (i, (k, v)) in members.iter().enumerate() {
        let body = match v {
            Json::Obj(inner) => {
                let rows: Vec<String> = inner
                    .iter()
                    .map(|(ik, iv)| format!("    {:?}: {}", ik, iv.to_string_compact()))
                    .collect();
                format!("{{\n{}\n  }}", rows.join(",\n"))
            }
            other => other.to_string_compact(),
        };
        out.push_str(&format!(
            "  {:?}: {}{}\n",
            k,
            body,
            if i + 1 < members.len() { "," } else { "" }
        ));
    }
    out.push_str("}\n");
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let json_path = args
        .iter()
        .position(|a| a == "--json")
        .and_then(|i| args.get(i + 1).cloned())
        .or_else(|| {
            args.iter()
                .find_map(|a| a.strip_prefix("--json=").map(str::to_string))
        });

    let cfg = AemConfig::new(64, 8, 8).unwrap();
    let data: Vec<u64> = (0..1u64 << 13).collect();
    {
        // The per-block reference loop, warm machine (setup outside the
        // timed body, like the per-backend scan rows) — the bulk rows'
        // speedup over this row is the bulk API's win.
        let mut m: Machine<u64> = Machine::new(cfg);
        let r = m.install(&data);
        let out = m.alloc_region(r.elems);
        bench_with_elems("machine_io/scan_copy_plain", data.len() as u64, || {
            for i in 0..r.blocks {
                let d = m.read_block(r.block(i)).unwrap();
                m.write_block(out.block(i), d).unwrap();
            }
        });
    }
    bench_with_elems(
        "machine_io/scan_copy_round_based",
        data.len() as u64,
        || {
            let mut m: RoundBasedMachine<u64> = RoundBasedMachine::new(cfg);
            let r = m.install(&data);
            let out = m.alloc_region(r.elems);
            for i in 0..r.blocks {
                let d = m.read_block(r.block(i)).unwrap();
                m.write_block(out.block(i), d).unwrap();
            }
            m.finish().unwrap()
        },
    );

    // The backend comparison: identical loops, different stores.
    let mut backend_json: Vec<(&str, Json)> = Vec::new();
    for backend in Backend::ALL {
        let scan = scan_copy_backend(backend, cfg, &data);
        let perm = permute_backend(backend, cfg, 1 << 13);
        let pq = pq_sort_backend(backend, cfg, 1 << 13);
        let repeat = repeat_cell_backend(backend, cfg, 1 << 13);
        let sweep_secs = quick_sweep_secs(backend);
        println!(
            "{:<44} {:>12.3}s  (full quick grid)",
            format!("quick_sweep/{}", backend.name()),
            sweep_secs
        );
        let mut row = vec![
            (
                "scan_copy_elems_per_sec",
                json_f64(scan.throughput().unwrap_or(0.0)),
            ),
            (
                "permute_naive_elems_per_sec",
                json_f64(perm.throughput().unwrap_or(0.0)),
            ),
            (
                "pq_sort_elems_per_sec",
                json_f64(pq.throughput().unwrap_or(0.0)),
            ),
            ("quick_sweep_secs", json_f64(sweep_secs)),
        ];
        if let Some(repeat) = repeat {
            row.push((
                "repeat_cell_elems_per_sec",
                json_f64(repeat.throughput().unwrap_or(0.0)),
            ));
        }
        backend_json.push((backend.name(), obj(row)));
    }

    let input = KeyDist::Uniform { seed: 1 }.generate(1 << 12);
    bench("merge_sort_round_based", || {
        let mut m: RoundBasedMachine<u64> = RoundBasedMachine::new(cfg);
        let r = m.install(&input);
        merge_sort(&mut m, r).unwrap();
        m.finish().unwrap()
    });

    let flash_cfg = AemConfig::new(64, 16, 4).unwrap();
    let pi = PermKind::Random { seed: 2 }.generate(1 << 11);
    bench("lemma_4_3_full_chain", || {
        let (prog, _) = naive_atom_permutation(flash_cfg, &pi).unwrap();
        verify_lemma_4_3(&prog.program, flash_cfg).unwrap()
    });

    if let Some(path) = json_path {
        let doc = obj(vec![
            ("bench", Json::Str("backend-comparison".to_string())),
            (
                "config",
                obj(vec![
                    ("mem", Json::UInt(64)),
                    ("block", Json::UInt(8)),
                    ("omega", Json::UInt(8)),
                    ("scan_elems", Json::UInt(1 << 13)),
                    ("permute_elems", Json::UInt(1 << 13)),
                    ("pq_elems", Json::UInt(1 << 13)),
                ]),
            ),
            ("backends", obj(backend_json)),
        ]);
        std::fs::write(&path, pretty(&doc)).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        println!("wrote {path}");
    }
}
