//! Registry pins: every registered algorithm's metered cost and verified
//! output through `run_workload`.
//!
//! Each case runs the kind's default input at `(M, B, ω) = (1024, 64, 16)`
//! on the vec backend, once at `n = 4096` and once at `n = 2^16`, and
//! pins `(Q_r, Q_w, checksum)`. The two sizes sit on either side of
//! `ORACLE_BESIDE_MIN_N` (2^16): the smaller run checks its oracle after
//! the kernel, the larger one runs the oracle on a helper thread beside
//! it, and both must keep the metered cost and the verified digest.
//!
//! One more case pins bfs mark at the size and on the machine the
//! benchmark runs it: `n = 2^18`, `δ = 4`, `(2^16, 2^8, 16)`, instance
//! seed 499 (a random graph).

use aem_core::workload::{run_workload, LiveHarness, RunCtx, WorkloadKind, ORACLE_BESIDE_MIN_N};
use aem_machine::{AemConfig, Backend};

/// Instance seed; `9 % 5 == 4` gives the sort kinds uniform keys.
const SEED: u64 = 9;

/// Problem sizes: one below the helper-thread cut-off, one at it.
const SIZES: [usize; 2] = [4096, 1 << 16];

/// `(kind/algo/n, reads, writes, checksum)`.
type Pin = (&'static str, u64, u64, u64);

fn registry_runs() -> Vec<(String, u64, u64, u64)> {
    let cfg = AemConfig::new(1024, 64, 16).unwrap();
    let mut h = LiveHarness {
        backend: Backend::Vec,
    };
    let mut rows = Vec::new();
    for kind in WorkloadKind::ALL {
        let w = kind.descriptor();
        for a in w.algos {
            for n in SIZES {
                // The re-scan traversal pays one full pass per BFS level;
                // at 2^16 vertices that is ~67M reads, a minute even in a
                // release build, so it is pinned below the cut-off only.
                if (kind, a.name, n) == (WorkloadKind::Bfs, "rescan", 1 << 16) {
                    continue;
                }
                let ctx = RunCtx::new(kind, a.name, cfg, n, w.default_delta, SEED).unwrap();
                let (cost, checksum) = run_workload(&ctx, &mut h)
                    .unwrap_or_else(|e| panic!("{kind}/{}/n={n}: {e}", a.name));
                rows.push((
                    format!("{kind}/{}/n={n}", a.name),
                    cost.reads,
                    cost.writes,
                    checksum,
                ));
            }
        }
    }
    rows
}

/// Recorded while every run still computed its oracle after the kernel.
const PINNED: &[Pin] = &[
    ("sort/aem/n=4096", 320, 64, 0x79f4d8b4c76f345f),
    ("sort/aem/n=65536", 12715, 2177, 0x30bd1b5d305af3d8),
    ("sort/em/n=4096", 128, 128, 0x79f4d8b4c76f345f),
    ("sort/em/n=65536", 3072, 3072, 0x30bd1b5d305af3d8),
    ("sort/pq/n=4096", 715, 478, 0x79f4d8b4c76f345f),
    ("sort/pq/n=65536", 19195, 12286, 0x30bd1b5d305af3d8),
    ("sort/dist/n=4096", 264, 208, 0x79f4d8b4c76f345f),
    ("sort/dist/n=65536", 6294, 5462, 0x30bd1b5d305af3d8),
    ("permute/naive/n=4096", 4034, 64, 0xbf854d2891ceb399),
    ("permute/naive/n=65536", 65469, 1024, 0x360cf5ad544a4e45),
    ("permute/by-sort/n=4096", 320, 64, 0xbf854d2891ceb399),
    ("permute/by-sort/n=65536", 12710, 2177, 0x360cf5ad544a4e45),
    ("spmv/direct/n=4096", 32135, 64, 0x48f2b434f800f65d),
    ("spmv/direct/n=65536", 523647, 1024, 0x85585381c1a723c8),
    ("spmv/sorted/n=4096", 1919, 639, 0x48f2b434f800f65d),
    ("spmv/sorted/n=65536", 61109, 14834, 0x85585381c1a723c8),
    ("pq/pq/n=4096", 715, 478, 0x79f4d8b4c76f345f),
    ("pq/pq/n=65536", 19195, 12286, 0x30bd1b5d305af3d8),
    ("search/binary/n=4096", 1792, 0, 0x7d573ec383c4e9ed),
    ("search/binary/n=65536", 2816, 0, 0x22a2f214a87f9c0d),
    ("search/btree/n=4096", 576, 1, 0x7d573ec383c4e9ed),
    ("search/btree/n=65536", 1808, 17, 0x22a2f214a87f9c0d),
    ("search/eytzinger/n=4096", 5767, 64, 0x7d573ec383c4e9ed),
    ("search/eytzinger/n=65536", 68239, 1024, 0x22a2f214a87f9c0d),
    ("scan/materialize/n=4096", 128, 64, 0x63ce86e379945585),
    ("scan/materialize/n=65536", 1088, 1024, 0x7eb892fe2ef4e6a7),
    ("scan/tree/n=4096", 192, 1, 0x63ce86e379945585),
    ("scan/tree/n=65536", 1232, 17, 0x7eb892fe2ef4e6a7),
    ("scan/rescan/n=4096", 2304, 0, 0x63ce86e379945585),
    ("scan/rescan/n=65536", 36375, 0, 0x7eb892fe2ef4e6a7),
    ("matmul/tiled/n=4096", 640, 80, 0xd91b924d2c674233),
    ("matmul/tiled/n=65536", 40960, 1280, 0x0268c2e1a218cbb1),
    ("matmul/stream/n=4096", 896, 448, 0xd91b924d2c674233),
    ("matmul/stream/n=65536", 30758, 15379, 0x0268c2e1a218cbb1),
    ("bfs/mark/n=4096", 41024, 8255, 0x34815615f489cb25),
    ("bfs/mark/n=65536", 656384, 132095, 0xfd127f3e4145bb25),
    ("bfs/rescan/n=4096", 266496, 64, 0x34815615f489cb25),
];

#[test]
fn registry_costs_and_checksums_are_pinned() {
    assert!(SIZES[0] < ORACLE_BESIDE_MIN_N && SIZES[1] >= ORACLE_BESIDE_MIN_N);
    let got = registry_runs();
    let table: String = got
        .iter()
        .map(|(k, r, w, c)| format!("    (\"{k}\", {r}, {w}, 0x{c:016x}),\n"))
        .collect();
    assert_eq!(got.len(), PINNED.len(), "case list changed; got:\n{table}");
    let moved: Vec<&str> = got
        .iter()
        .zip(PINNED)
        .filter(|((k, r, w, c), (pk, pr, pw, pc))| (k.as_str(), r, w, c) != (*pk, pr, pw, pc))
        .map(|((k, ..), _)| k.as_str())
        .collect();
    assert!(moved.is_empty(), "runs moved: {moved:?}\ngot:\n{table}");
}

/// Recorded while each discovery copied its distance block out and back.
const PINNED_LARGE_BFS: Pin = ("bfs/mark/n=262144", 2312928, 258803, 0x106b9a06ef7db171);

#[test]
fn sim_large_bfs_mark_is_pinned() {
    let cfg = AemConfig::new(1 << 16, 1 << 8, 16).unwrap();
    let n = 1 << 18;
    let ctx = RunCtx::new(WorkloadKind::Bfs, "mark", cfg, n, 4, 499).unwrap();
    let mut h = LiveHarness {
        backend: Backend::Vec,
    };
    let (cost, checksum) = run_workload(&ctx, &mut h).unwrap();
    let got = (format!("bfs/mark/n={n}"), cost.reads, cost.writes, checksum);
    let (k, r, w, c) = PINNED_LARGE_BFS;
    assert_eq!(
        (got.0.as_str(), got.1, got.2, got.3),
        (k, r, w, c),
        "got (\"{}\", {}, {}, 0x{:016x})",
        got.0,
        got.1,
        got.2,
        got.3
    );
}
