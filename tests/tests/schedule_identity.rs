//! Schedule identity: host-side work may change, the metered program may
//! not.
//!
//! Seven families are pinned:
//!
//! * the §3 sort family — `small_sort`, `merge_runs`, the resident-cursor
//!   merge ablation, `merge_sort` and the buffered priority queue (through
//!   `sort_via_pq`) — whose hashes were recorded before the round buffers
//!   were rewritten;
//! * the streaming `k`-way merges — `em_merge_sort` and spmv `sorted`
//!   (whose merge-add phase is one) on the random, banded and
//!   block-diagonal matrices — whose hashes were recorded while both
//!   picked the next head by a linear scan;
//! * the probe-and-discard kernels — bfs mark and rescan (path, random and
//!   star graphs), search binary, btree and eytzinger (build plus lookups)
//!   and the three scan strategies — whose hashes were recorded while
//!   every probe still copied its block (`read_block_into`), before the
//!   kernels moved to borrowed reads (`read_block_with`);
//! * the dense kernels — matmul tiled and stream, on shapes whose tile
//!   sides cover every residue mod 4, and permute by-sort — whose hashes
//!   were recorded while the tile product indexed both tiles per
//!   multiply-add and `small_sort` copied every block it scanned;
//! * the §3 family at the sizes the benchmark runs — permute by-sort,
//!   spmv sorted and the buffered queue on the sim-large machine, and
//!   serve's two costliest spmv jobs — whose hashes were recorded before
//!   the selection scans, the merge's round output and the queue's insert
//!   path were rewritten;
//! * bfs mark at the benchmark's size on the sim-large machine, whose hash
//!   was recorded while every discovery copied its distance block out and
//!   wrote the copy back, and every adjacency probe was a borrowed read
//!   followed by a separate `discard`;
//! * the baselines — `distribution_sort`, permute naive and spmv direct —
//!   on the gate machine and the `ω > B`, `B = 1` and `M = 4B` shapes,
//!   whose hashes were recorded as their first pins.
//!
//! Every case runs on a seeded input on an `InstrumentedMachine`. Each
//! run's I/O program — every event's `(op, block, len, aux)` plus the
//! internal-memory occupancy after it — is folded into one FNV-1a hash and
//! compared with the pinned hash. Any change to a read, a write, the order
//! of I/Os or a single ledger charge moves the hash. See
//! `docs/COST_MODEL.md` §7 for the clauses this test enforces.

use aem_core::matmul::{extract, matmul_stream, matmul_tiled, tile_side};
use aem_core::oracle::{bfs_reference, lookup_reference, matmul_reference, prefix_reference};
use aem_core::permute::{permute_by_sort_on, permute_naive_on, DestTagged};
use aem_core::sort::{
    distribution_sort, em_merge_sort, merge_runs, merge_runs_resident, merge_sort, small_sort,
    sort_via_pq, MergeStats,
};
use aem_core::spmv::{
    install_instance, reference_multiply, spmv_direct_on, spmv_sorted_on, MatEntry, SpmvInstance,
    U64Ring,
};
use aem_core::workload::fnv1a;
use aem_core::{bfs, scan, search};
use aem_machine::{AemConfig, IoEvent, Region, Result};
use aem_obs::{InstrumentedMachine, WorkloadMeta};
use aem_workloads::perm::{self, PermKind};
use aem_workloads::{
    graph_instance, matmul_instance, scan_instance, search_instance, Conformation, KeyDist,
    MatrixShape, SplitMix64,
};

type Im = InstrumentedMachine<u64>;
type Merger = fn(&mut Im, &[Region]) -> Result<(Region, MergeStats)>;

/// The machine shapes: a plain one, `ω > B`, `B = 1` and `M = 4B`.
const SHAPES: [(&str, usize, usize, u64); 4] = [
    ("plain", 64, 8, 4),
    ("omega>B", 64, 8, 32),
    ("B=1", 16, 1, 4),
    ("M=4B", 32, 8, 4),
];

/// The probe kernels' schedules depend on `B` alone (`ω` never steers
/// them and `M` only gates bfs mark at `M >= 4B`), so their shapes vary
/// the block size: a plain one, `B = 1`, an odd `B` that leaves ragged
/// blocks, and `M = 4B`.
const PROBE_SHAPES: [(&str, usize, usize, u64); 4] = [
    ("B=8", 64, 8, 4),
    ("B=1", 16, 1, 4),
    ("B=5", 40, 5, 16),
    ("M=4B", 64, 16, 4),
];

const DISTS: [&str; 5] = ["uniform", "sorted", "reversed", "few-distinct", "all-equal"];

fn keys(dist: &str, n: usize, seed: u64) -> Vec<u64> {
    match dist {
        "uniform" => KeyDist::Uniform { seed }.generate(n),
        "sorted" => KeyDist::Sorted.generate(n),
        "reversed" => KeyDist::Reversed.generate(n),
        "few-distinct" => KeyDist::FewDistinct { distinct: 5, seed }.generate(n),
        "all-equal" => vec![7; n],
        _ => unreachable!("unknown distribution {dist}"),
    }
}

/// Hash of one run's I/O program and occupancy profile, plus `extra`
/// (per-algorithm statistics that must not move either).
fn program_hash<T: Clone>(im: InstrumentedMachine<T>, extra: &[u64]) -> u64 {
    let rec = im
        .into_sink()
        .into_record(WorkloadMeta::new("schedule", "identity", 0));
    let events = rec.trace.events().iter().zip(&rec.occupancy);
    let words = events.flat_map(|(ev, &iu)| {
        let (op, aux) = match *ev {
            IoEvent::Read { aux, .. } => (0, aux),
            IoEvent::Write { aux, .. } => (1, aux),
        };
        [
            op,
            ev.block().index() as u64,
            ev.len() as u64,
            aux as u64,
            iu,
        ]
    });
    fnv1a(
        words
            .chain([rec.final_internal_used])
            .chain(extra.iter().copied()),
    )
}

fn machine<T: Clone>(shape: (&str, usize, usize, u64)) -> InstrumentedMachine<T> {
    let (_, mem, b, omega) = shape;
    InstrumentedMachine::new(AemConfig::new(mem, b, omega).unwrap())
}

fn checked_sort(
    shape: (&str, usize, usize, u64),
    input: &[u64],
    sorter: fn(&mut Im, Region) -> Result<Region>,
) -> u64 {
    let mut im = machine(shape);
    let r = im.install(input);
    let out = sorter(&mut im, r).unwrap();
    let mut want = input.to_vec();
    want.sort();
    assert_eq!(im.inspect(out), want);
    program_hash(im, &[])
}

fn checked_merge(shape: (&str, usize, usize, u64), runs: &[Vec<u64>], merger: Merger) -> u64 {
    let mut im = machine(shape);
    let regions: Vec<Region> = runs.iter().map(|r| im.install(r)).collect();
    let (merged, stats) = merger(&mut im, &regions).unwrap();
    let mut want: Vec<u64> = runs.concat();
    want.sort();
    assert_eq!(im.inspect(merged), want);
    let extra = [
        stats.rounds,
        stats.elems as u64,
        stats.max_active as u64,
        stats.active_bound as u64,
    ];
    program_hash(im, &extra)
}

/// Every case's hash, keyed `algorithm/shape/distribution`.
fn all_hashes() -> Vec<(String, u64)> {
    let mut out = Vec::new();
    for (si, &shape) in SHAPES.iter().enumerate() {
        let (name, mem, b, omega) = shape;
        let cfg = AemConfig::new(mem, b, omega).unwrap();
        for (di, &dist) in DISTS.iter().enumerate() {
            let seed = 0x5c4e_d000 + (si * 16 + di) as u64;
            let key = |algo: &str| format!("{algo}/{name}/{dist}");

            // small_sort at its size limit ω·M, minus a ragged tail.
            let n = (omega as usize * mem).min(2048) - 3;
            let input = keys(dist, n, seed);
            out.push((key("small_sort"), checked_sort(shape, &input, small_sort)));

            // merge_runs over the full fan-in (capped), ragged run lengths
            // including empty runs.
            let mut rng = SplitMix64::seed_from_u64(seed);
            let k = cfg.fan_in().min(256);
            let runs: Vec<Vec<u64>> = (0..k)
                .map(|i| {
                    let len = rng.next_below_usize(5 * b + 1);
                    let mut v = keys(dist, len, seed ^ ((i as u64 + 1) << 20));
                    v.sort();
                    v
                })
                .collect();
            out.push((key("merge_runs"), checked_merge(shape, &runs, merge_runs)));

            // The resident-cursor ablation, at a fan-in that leaves its
            // cursor table room beside the round buffer.
            let k = (mem - 3 * b) / 2;
            let resident = checked_merge(shape, &runs[..k], merge_runs_resident);
            out.push((key("merge_runs_resident"), resident));

            // merge_sort with at least one merge level.
            let input = keys(dist, 1500, seed);
            out.push((key("merge_sort"), checked_sort(shape, &input, merge_sort)));

            // The buffered PQ needs M ≥ 8B, which the M = 4B shape lacks.
            if mem >= 8 * b {
                let input = keys(dist, 1200, seed);
                out.push((key("sort_via_pq"), checked_sort(shape, &input, sort_via_pq)));
            }
        }
    }
    out
}

/// Hashes recorded with the capped-`BinaryHeap` round buffers the sort
/// family used before the shared selector replaced them.
const PINNED: &[(&str, u64)] = &[
    ("small_sort/plain/uniform", 0xcacba56610740d2a),
    ("merge_runs/plain/uniform", 0x12505abc72da52b6),
    ("merge_runs_resident/plain/uniform", 0xa87445e2a1a46c44),
    ("merge_sort/plain/uniform", 0x1597bed79811b5d8),
    ("sort_via_pq/plain/uniform", 0x0dc176ed2c39b4a5),
    ("small_sort/plain/sorted", 0x7336e7fc032eab45),
    ("merge_runs/plain/sorted", 0x33df68010b4f04b9),
    ("merge_runs_resident/plain/sorted", 0xe13d2b731f663b8a),
    ("merge_sort/plain/sorted", 0xac39b2f43f967e1f),
    ("sort_via_pq/plain/sorted", 0xa94bf8e443c9b34d),
    ("small_sort/plain/reversed", 0x11a2adbd23308b3f),
    ("merge_runs/plain/reversed", 0x430bce87ec31647e),
    ("merge_runs_resident/plain/reversed", 0x188815547d9a6c5c),
    ("merge_sort/plain/reversed", 0x96fafde252877102),
    ("sort_via_pq/plain/reversed", 0x118f1399e524f46e),
    ("small_sort/plain/few-distinct", 0x02295857a3e778f3),
    ("merge_runs/plain/few-distinct", 0xc2bd7045b21c909e),
    ("merge_runs_resident/plain/few-distinct", 0xba9410f316f7fb22),
    ("merge_sort/plain/few-distinct", 0xd93615e0a8156f8b),
    ("sort_via_pq/plain/few-distinct", 0x4b5347e566d040ef),
    ("small_sort/plain/all-equal", 0x7336e7fc032eab45),
    ("merge_runs/plain/all-equal", 0x14a5b83784cccfec),
    ("merge_runs_resident/plain/all-equal", 0xd64cfcc9cefe687e),
    ("merge_sort/plain/all-equal", 0xac39b2f43f967e1f),
    ("sort_via_pq/plain/all-equal", 0x512e7670bc4ead92),
    ("small_sort/omega>B/uniform", 0x7a9203100a66ef13),
    ("merge_runs/omega>B/uniform", 0xf651755f80b5b99f),
    ("merge_runs_resident/omega>B/uniform", 0x23382e2ffdf8de5e),
    ("merge_sort/omega>B/uniform", 0x4ad102ed8e8d3698),
    ("sort_via_pq/omega>B/uniform", 0xfbe660cf097f5c94),
    ("small_sort/omega>B/sorted", 0x87d8744761e17a7d),
    ("merge_runs/omega>B/sorted", 0xa2a952791715d8a5),
    ("merge_runs_resident/omega>B/sorted", 0x1b5f919121d248db),
    ("merge_sort/omega>B/sorted", 0x5b16fb446d4dda6e),
    ("sort_via_pq/omega>B/sorted", 0xa94bf8e443c9b34d),
    ("small_sort/omega>B/reversed", 0x2d25c78fae54ec0f),
    ("merge_runs/omega>B/reversed", 0xf765a7e320ad17f6),
    ("merge_runs_resident/omega>B/reversed", 0xcb05e9cf810cab92),
    ("merge_sort/omega>B/reversed", 0x4940269e6944a797),
    ("sort_via_pq/omega>B/reversed", 0x118f1399e524f46e),
    ("small_sort/omega>B/few-distinct", 0x4ad6c671fa227947),
    ("merge_runs/omega>B/few-distinct", 0x601b7d29b5868329),
    (
        "merge_runs_resident/omega>B/few-distinct",
        0x2d3b6a7e5df9bbac,
    ),
    ("merge_sort/omega>B/few-distinct", 0x47015ded4cea3ccc),
    ("sort_via_pq/omega>B/few-distinct", 0x2ed5d466a423a9e5),
    ("small_sort/omega>B/all-equal", 0x87d8744761e17a7d),
    ("merge_runs/omega>B/all-equal", 0x291a9b59871444e5),
    ("merge_runs_resident/omega>B/all-equal", 0x2bce575bdcee66f8),
    ("merge_sort/omega>B/all-equal", 0x5b16fb446d4dda6e),
    ("sort_via_pq/omega>B/all-equal", 0x512e7670bc4ead92),
    ("small_sort/B=1/uniform", 0xe8a748f8cbda010b),
    ("merge_runs/B=1/uniform", 0x55f81a0c96997e24),
    ("merge_runs_resident/B=1/uniform", 0x160d44ed99844c6d),
    ("merge_sort/B=1/uniform", 0xda35b4243f82a32f),
    ("sort_via_pq/B=1/uniform", 0x88068147f3f264b2),
    ("small_sort/B=1/sorted", 0x40ef4ed32548ce24),
    ("merge_runs/B=1/sorted", 0x4a2051b34a3b7e54),
    ("merge_runs_resident/B=1/sorted", 0x83f407e22765b96d),
    ("merge_sort/B=1/sorted", 0x890a0222ee049785),
    ("sort_via_pq/B=1/sorted", 0x8a9967c9fbb30750),
    ("small_sort/B=1/reversed", 0x2c68bafaa5210324),
    ("merge_runs/B=1/reversed", 0x0a654e744073ec33),
    ("merge_runs_resident/B=1/reversed", 0xdb2c12a086af2d4c),
    ("merge_sort/B=1/reversed", 0x442d96abdcdde4fe),
    ("sort_via_pq/B=1/reversed", 0xdfd390085984d94f),
    ("small_sort/B=1/few-distinct", 0x098be7a4b958566a),
    ("merge_runs/B=1/few-distinct", 0x388ae1cafd470177),
    ("merge_runs_resident/B=1/few-distinct", 0x998414d71808f1c5),
    ("merge_sort/B=1/few-distinct", 0x0fc230c5c63da233),
    ("sort_via_pq/B=1/few-distinct", 0xbdfbe28dfb2eb951),
    ("small_sort/B=1/all-equal", 0x40ef4ed32548ce24),
    ("merge_runs/B=1/all-equal", 0xc982032d682d5adc),
    ("merge_runs_resident/B=1/all-equal", 0x0f57c02192c48a53),
    ("merge_sort/B=1/all-equal", 0x890a0222ee049785),
    ("sort_via_pq/B=1/all-equal", 0x957cd29290f5522f),
    ("small_sort/M=4B/uniform", 0xdb313c12e9f3b5f0),
    ("merge_runs/M=4B/uniform", 0x0dfe75ac7ec1517a),
    ("merge_runs_resident/M=4B/uniform", 0x5d1abbcbbf8f3033),
    ("merge_sort/M=4B/uniform", 0xadf281c03b81af5e),
    ("small_sort/M=4B/sorted", 0x649ccd8c2a47cbc0),
    ("merge_runs/M=4B/sorted", 0x62527dff1e1ada88),
    ("merge_runs_resident/M=4B/sorted", 0x6ce8c9c143f39358),
    ("merge_sort/M=4B/sorted", 0x58cbafb1ea3fbdd8),
    ("small_sort/M=4B/reversed", 0xede4d80d6f841bcf),
    ("merge_runs/M=4B/reversed", 0xf583e2c28eefd16b),
    ("merge_runs_resident/M=4B/reversed", 0x2d66c985d16cdd04),
    ("merge_sort/M=4B/reversed", 0x5cb8b2d0b4fddc68),
    ("small_sort/M=4B/few-distinct", 0x43eea3bd77c35380),
    ("merge_runs/M=4B/few-distinct", 0xafc03a3f55202ec9),
    ("merge_runs_resident/M=4B/few-distinct", 0x4c22905062b23776),
    ("merge_sort/M=4B/few-distinct", 0x96dbd01996018e04),
    ("small_sort/M=4B/all-equal", 0x649ccd8c2a47cbc0),
    ("merge_runs/M=4B/all-equal", 0x705bff1dd14a4bc1),
    ("merge_runs_resident/M=4B/all-equal", 0xb65e5c39d9d0688d),
    ("merge_sort/M=4B/all-equal", 0x58cbafb1ea3fbdd8),
];

/// Every streaming-merge case's hash, keyed `algorithm/shape/input`.
fn stream_merge_hashes() -> Vec<(String, u64)> {
    let mut out = Vec::new();
    for (si, &shape) in SHAPES.iter().enumerate() {
        let name = shape.0;
        // em_merge_sort on merge_sort's inputs: at least one merge level
        // on every shape.
        for (di, &dist) in DISTS.iter().enumerate() {
            let input = keys(dist, 1500, 0x5c4e_d000 + (si * 16 + di) as u64);
            let hash = checked_sort(shape, &input, em_merge_sort);
            out.push((format!("em_merge_sort/{name}/{dist}"), hash));
        }
        // spmv sorted: δ = 16 meta-columns take two merge-add levels at
        // fan-in m − 2 = 6 and four at M = 4B (fan-in 2).
        let (n, delta) = (128, 16);
        for input in ["random", "banded", "block-diagonal"] {
            let seed = 0x5b_a77e + si as u64;
            let hash = spmv_hash(shape, n, delta, input, seed, spmv_sorted_on);
            out.push((format!("spmv_sorted/{name}/{input}"), hash));
        }
    }
    out
}

type SpmvKernel = fn(&mut Spmv, &Conformation, Region, Region) -> Result<Region>;
type Spmv = InstrumentedMachine<MatEntry<U64Ring>>;

/// Hash of `kernel` on a seeded `n × n` matrix of shape `input` with
/// `delta` non-zeros per column, checked against the reference product.
fn spmv_hash(
    shape: (&str, usize, usize, u64),
    n: usize,
    delta: usize,
    input: &str,
    seed: u64,
    kernel: SpmvKernel,
) -> u64 {
    let conf = Conformation::generate(
        MatrixShape::from_label(input, n, delta, seed).unwrap(),
        n,
        delta,
    );
    let a: Vec<U64Ring> = (0..conf.nnz())
        .map(|i| U64Ring((i as u64 * 37 + 1) % 97))
        .collect();
    let x: Vec<U64Ring> = (0..n).map(|j| U64Ring((j as u64 * 13 + 5) % 89)).collect();
    let inst = SpmvInstance {
        conf: &conf,
        a_vals: &a,
        x: &x,
    };
    let mut im: Spmv = machine(shape);
    let (ar, xr) = install_instance(&mut im, &inst);
    let y = kernel(&mut im, &conf, ar, xr).unwrap();
    let got: Vec<U64Ring> = im.inspect(y).into_iter().map(|e| e.val).collect();
    let name = shape.0;
    assert_eq!(
        got,
        reference_multiply(&conf, &a, &x),
        "spmv/{name}/{input}"
    );
    program_hash(im, &[])
}

/// Hashes recorded while `em_merge_sort` and spmv's merge-add scanned
/// every head for the smallest.
const PINNED_STREAM_MERGES: &[(&str, u64)] = &[
    ("em_merge_sort/plain/uniform", 0xa2d37bc69ab836fd),
    ("em_merge_sort/plain/sorted", 0xe859a9ff51f59d3d),
    ("em_merge_sort/plain/reversed", 0x9f8ccaee665f5231),
    ("em_merge_sort/plain/few-distinct", 0x5669dca13666c369),
    ("em_merge_sort/plain/all-equal", 0xe859a9ff51f59d3d),
    ("spmv_sorted/plain/random", 0x89abf9195d82fa13),
    ("spmv_sorted/plain/banded", 0xda67786f02c2b078),
    ("spmv_sorted/plain/block-diagonal", 0x5fe5ffa86446952a),
    ("em_merge_sort/omega>B/uniform", 0x946e6ded0ba299ed),
    ("em_merge_sort/omega>B/sorted", 0xe859a9ff51f59d3d),
    ("em_merge_sort/omega>B/reversed", 0x9f8ccaee665f5231),
    ("em_merge_sort/omega>B/few-distinct", 0x0ca80ac6a746b02d),
    ("em_merge_sort/omega>B/all-equal", 0xe859a9ff51f59d3d),
    ("spmv_sorted/omega>B/random", 0x673e431194f3ff24),
    ("spmv_sorted/omega>B/banded", 0xf0cb9ef45c2e0913),
    ("spmv_sorted/omega>B/block-diagonal", 0x0ade4d556368b4e3),
    ("em_merge_sort/B=1/uniform", 0xa1fc579f3111caa7),
    ("em_merge_sort/B=1/sorted", 0xdaf8871f362cb79b),
    ("em_merge_sort/B=1/reversed", 0x0a32d8c414ffafe3),
    ("em_merge_sort/B=1/few-distinct", 0xa6ecbf67cad208a7),
    ("em_merge_sort/B=1/all-equal", 0xdaf8871f362cb79b),
    ("spmv_sorted/B=1/random", 0x9dbbf6619932c034),
    ("spmv_sorted/B=1/banded", 0xbeab92bd612fb6ee),
    ("spmv_sorted/B=1/block-diagonal", 0x8892607e22721b3e),
    ("em_merge_sort/M=4B/uniform", 0xa280bd423e3477b1),
    ("em_merge_sort/M=4B/sorted", 0x3b2673d755416f09),
    ("em_merge_sort/M=4B/reversed", 0x7335bbc7eedc1089),
    ("em_merge_sort/M=4B/few-distinct", 0xae0304f06b01b409),
    ("em_merge_sort/M=4B/all-equal", 0x3b2673d755416f09),
    ("spmv_sorted/M=4B/random", 0x1eb4c90a898c3879),
    ("spmv_sorted/M=4B/banded", 0xb38a80cb52576351),
    ("spmv_sorted/M=4B/block-diagonal", 0xa190876753714c74),
];

/// Every probe-kernel case's hash, keyed `kind/algorithm/shape/instance`.
/// Each run is checked against its RAM-model oracle before it is hashed.
fn probe_hashes() -> Vec<(String, u64)> {
    let mut out = Vec::new();
    for &shape in &PROBE_SHAPES {
        let (name, _, b, _) = shape;

        // bfs: seeds 0, 1, 2 pick the path, random and star graphs.
        let (n, delta) = (200, 3);
        for (seed, graph) in [(0u64, "path"), (1, "random"), (2, "star")] {
            let g = graph_instance(n, delta, seed);
            let want = bfs_reference(n, &g.offs, &g.adj);
            type Traversal = fn(&mut Im, usize, &[u64], &[u64]) -> Result<Region>;
            let algos: [(&str, Traversal); 2] = [
                ("mark", |m, n, o, a| bfs::bfs_mark(m, n, o, a)),
                ("rescan", |m, n, o, a| bfs::bfs_rescan(m, n, o, a)),
            ];
            for (algo, run) in algos {
                let mut im = machine(shape);
                let dist = run(&mut im, n, &g.offs, &g.adj).unwrap();
                assert_eq!(im.inspect(dist), want, "bfs/{algo}/{name}/{graph}");
                out.push((format!("bfs/{algo}/{name}/{graph}"), program_hash(im, &[])));
            }
        }

        // search: build plus a lookup batch with hits and misses. The
        // btree needs fan-out B >= 2.
        let inst = search_instance(700, 60, 0x5ea4c4 + b as u64);
        let want = lookup_reference(&inst.keys, &inst.queries);
        type Build = fn(&mut Im, &[u64]) -> Result<search::SearchIndex>;
        let builds: [(&str, Build); 3] = [
            ("binary", |m, k| search::build_binary(m, k)),
            ("btree", |m, k| search::build_btree(m, k)),
            ("eytzinger", |m, k| search::build_eytzinger(m, k)),
        ];
        for (algo, build) in builds {
            if algo == "btree" && b < 2 {
                continue;
            }
            let mut im = machine(shape);
            let idx = build(&mut im, &inst.keys).unwrap();
            let got = search::lookup_batch(&mut im, &idx, &inst.queries).unwrap();
            assert_eq!(got, want, "search/{algo}/{name}");
            out.push((format!("search/{algo}/{name}"), program_hash(im, &[])));
        }

        // scan: every strategy over the same values and query positions.
        // The sum tree needs fan-out B >= 2.
        let inst = scan_instance(700, 40, 0x5ca4 + b as u64);
        let want = prefix_reference(&inst.values, &inst.queries);
        for algo in ["materialize", "tree", "rescan"] {
            if algo == "tree" && b < 2 {
                continue;
            }
            let mut im = machine(shape);
            let r = im.install(&inst.values);
            let got = match algo {
                "materialize" => scan::scan_materialize(&mut im, r, &inst.queries),
                "rescan" => scan::scan_rescan(&mut im, r, &inst.queries),
                _ => scan::build_sum_tree(&mut im, r)
                    .and_then(|t| scan::query_tree(&mut im, &t, &inst.queries)),
            }
            .unwrap();
            assert_eq!(got, want, "scan/{algo}/{name}");
            out.push((format!("scan/{algo}/{name}"), program_hash(im, &[])));
        }
    }
    out
}

/// Hashes recorded while every bfs, search and scan probe copied its
/// block into a caller buffer.
const PINNED_PROBES: &[(&str, u64)] = &[
    ("bfs/mark/B=8/path", 0xa6385d99965260e2),
    ("bfs/rescan/B=8/path", 0xf2d2bd35db07f7cc),
    ("bfs/mark/B=8/random", 0x5ca8949976b8519f),
    ("bfs/rescan/B=8/random", 0x8e079a4bb175e962),
    ("bfs/mark/B=8/star", 0x83fa18d811cc63e5),
    ("bfs/rescan/B=8/star", 0xfe5e8a55d84dba1f),
    ("search/binary/B=8", 0xd08381f98ce9a87d),
    ("search/btree/B=8", 0x52f8875482917418),
    ("search/eytzinger/B=8", 0x7a4f9502b1ab7ae2),
    ("scan/materialize/B=8", 0x98a3232086c08b47),
    ("scan/tree/B=8", 0x9d0a3e34fb1fdfd4),
    ("scan/rescan/B=8", 0x493e529817a1157a),
    ("bfs/mark/B=1/path", 0x2b518aaf4b93031d),
    ("bfs/rescan/B=1/path", 0x86a0a860020811f4),
    ("bfs/mark/B=1/random", 0x4cd535ccf7429ba7),
    ("bfs/rescan/B=1/random", 0xc1e9b8a9017a345a),
    ("bfs/mark/B=1/star", 0xd8afea06f30e6a37),
    ("bfs/rescan/B=1/star", 0xd1415dd4d94a877d),
    ("search/binary/B=1", 0xa44d5a4a6a6aa8cd),
    ("search/eytzinger/B=1", 0x09ba1e3f3d843dbe),
    ("scan/materialize/B=1", 0x57e715db52c4224b),
    ("scan/rescan/B=1", 0x2dea78c1540e5134),
    ("bfs/mark/B=5/path", 0xdb28bb1a56e840dc),
    ("bfs/rescan/B=5/path", 0x2ab839ee2410e68a),
    ("bfs/mark/B=5/random", 0x662d698db1718536),
    ("bfs/rescan/B=5/random", 0x862c5241a16c1488),
    ("bfs/mark/B=5/star", 0xd5c5b6ad70d56339),
    ("bfs/rescan/B=5/star", 0x7435de57d2bbf63e),
    ("search/binary/B=5", 0x5fed70cb745def9a),
    ("search/btree/B=5", 0x4dc76ed4c0a7b414),
    ("search/eytzinger/B=5", 0xd5d7736ad053ed39),
    ("scan/materialize/B=5", 0xa7982d1f746ad429),
    ("scan/tree/B=5", 0x1314a1b905cab6a5),
    ("scan/rescan/B=5", 0x2836fee2f3e783cd),
    ("bfs/mark/M=4B/path", 0xea8dd25786aede26),
    ("bfs/rescan/M=4B/path", 0x63d12e6379c76920),
    ("bfs/mark/M=4B/random", 0x61d8a4581971f277),
    ("bfs/rescan/M=4B/random", 0xa6fff81995aa9723),
    ("bfs/mark/M=4B/star", 0x0dc61bc83b6c5acd),
    ("bfs/rescan/M=4B/star", 0xde9423e52f0396b8),
    ("search/binary/M=4B", 0x26c04069f310e46c),
    ("search/btree/M=4B", 0x98a571a35cc06917),
    ("search/eytzinger/M=4B", 0xc752d37ef4cccb04),
    ("scan/materialize/M=4B", 0xcabd434f7e8e6529),
    ("scan/tree/M=4B", 0xaf1c36652393e6f6),
    ("scan/rescan/M=4B", 0xe2de6ab7ee33bd4f),
];

/// The dense kernels' shapes: the two `cost_gate` configs and `M = 3B`
/// ones. The write-avoiding tile sides are 17, 4, 2, 3, 6 and 7 (every
/// residue mod 4, and sides below 4); the streaming ones 21, 4, 2, 3, 6
/// and 7.
const DENSE_SHAPES: [(&str, usize, usize, u64); 6] = [
    ("gate", 1024, 64, 16),
    ("gate-small", 64, 8, 16),
    ("M=3B", 24, 8, 16),
    ("M=3B,B=9", 27, 9, 16),
    ("M=3B,B=36", 108, 36, 16),
    ("M=3B,B=49", 147, 49, 16),
];

/// Every dense-kernel case's hash, keyed `algorithm/shape/size/instance`.
fn dense_hashes() -> Vec<(String, u64)> {
    let mut out = Vec::new();
    for &shape in &DENSE_SHAPES {
        let (name, mem, b, omega) = shape;
        let cfg = AemConfig::new(mem, b, omega).unwrap();

        // matmul at the gate's n = 1764 (d = 42).
        type Tiling = fn(&mut Im, usize, &[u64], &[u64]) -> Result<(Region, usize)>;
        let tilings: [(&str, Tiling, usize, usize); 2] = [
            ("tiled", |m, d, a, b| matmul_tiled(m, d, a, b), 3, 0),
            ("stream", |m, d, a, b| matmul_stream(m, d, a, b), 2, b),
        ];
        for (algo, run, ways, extra) in tilings {
            let side = tile_side(cfg, ways, extra).unwrap().min(42);
            let inst = matmul_instance(1764, 1);
            let mut im = machine(shape);
            let (cr, t) = run(&mut im, inst.d, &inst.a, &inst.b).unwrap();
            assert_eq!(t, side, "matmul/{algo}/{name}");
            let got = extract(inst.d, t, b, &im.inspect(cr));
            let want = matmul_reference(inst.d, &inst.a, &inst.b);
            assert_eq!(got, want, "matmul/{algo}/{name}");
            out.push((
                format!("{algo}/{name}/t={t}"),
                program_hash(im, &[t as u64]),
            ));
        }

        // permute by-sort at the gate's n = 2048; the merge needs
        // M >= 4B, so the M = 3B shapes sort one base run of
        // ω·max(M/2, B) elements, in `small_sort` alone.
        let n = if mem >= 4 * b {
            2048
        } else {
            omega as usize * (mem / 2).max(b)
        };
        for input in ["random", "reverse", "transpose"] {
            let hash = by_sort_hash(shape, n, input);
            out.push((format!("by-sort/{name}/n={n}/{input}"), hash));
        }
    }
    out
}

/// Hash of permute by-sort on `n` values under the seeded permutation
/// `input`, checked against the permutation applied in RAM.
fn by_sort_hash(shape: (&str, usize, usize, u64), n: usize, input: &str) -> u64 {
    let pi = PermKind::from_label(input, n, 1).unwrap().generate(n);
    let values: Vec<u64> = (0..n as u64).collect();
    let tagged: Vec<DestTagged<u64>> = values
        .iter()
        .zip(&pi)
        .map(|(&value, &d)| DestTagged {
            dest: d as u64,
            value,
        })
        .collect();
    let mut im = machine::<DestTagged<u64>>(shape);
    let r = im.install(&tagged);
    let out_r = permute_by_sort_on(&mut im, r).unwrap();
    let got: Vec<u64> = im.inspect(out_r).into_iter().map(|t| t.value).collect();
    let name = shape.0;
    assert_eq!(got, perm::apply(&pi, &values), "by-sort/{name}/{input}");
    program_hash(im, &[])
}

/// Hashes recorded while the tile product indexed both tiles per
/// multiply-add and `small_sort` scanned owned copies of its blocks.
const PINNED_DENSE: &[(&str, u64)] = &[
    ("tiled/gate/t=17", 0x2692ea18737a4433),
    ("stream/gate/t=21", 0xecc8aafae436bdf1),
    ("by-sort/gate/n=2048/random", 0x3d87a16883e9fadf),
    ("by-sort/gate/n=2048/reverse", 0x34368c1c42eda841),
    ("by-sort/gate/n=2048/transpose", 0xda50705772ac2cb7),
    ("tiled/gate-small/t=4", 0xef7055be9ea59ef8),
    ("stream/gate-small/t=4", 0x0805cb3fc49f6e98),
    ("by-sort/gate-small/n=2048/random", 0x8efb793576dee0a0),
    ("by-sort/gate-small/n=2048/reverse", 0x1988ff4226c9a201),
    ("by-sort/gate-small/n=2048/transpose", 0x00fc65397d060731),
    ("tiled/M=3B/t=2", 0x112f41a6d5ce1dca),
    ("stream/M=3B/t=2", 0xcd0e05e7be3a336e),
    ("by-sort/M=3B/n=192/random", 0xaa0ba662a2c435ed),
    ("by-sort/M=3B/n=192/reverse", 0x8fa88f38da645cc5),
    ("by-sort/M=3B/n=192/transpose", 0x8ec1508da5c177b3),
    ("tiled/M=3B,B=9/t=3", 0xecf3635af8de500f),
    ("stream/M=3B,B=9/t=3", 0xbb22f96cff8c2845),
    ("by-sort/M=3B,B=9/n=208/random", 0x4cb2f01924181c8f),
    ("by-sort/M=3B,B=9/n=208/reverse", 0x887d58b67a0677d5),
    ("by-sort/M=3B,B=9/n=208/transpose", 0xa371404624cde51f),
    ("tiled/M=3B,B=36/t=6", 0xc407fb2794281159),
    ("stream/M=3B,B=36/t=6", 0xeab6d9b6e0221eb1),
    ("by-sort/M=3B,B=36/n=864/random", 0xd740e52c4cb9a59b),
    ("by-sort/M=3B,B=36/n=864/reverse", 0x79e0ea432441fcc5),
    ("by-sort/M=3B,B=36/n=864/transpose", 0x7fa380d525cdd6a1),
    ("tiled/M=3B,B=49/t=7", 0x641dd1438c77a4f3),
    ("stream/M=3B,B=49/t=7", 0xca12036d21a04751),
    ("by-sort/M=3B,B=49/n=1168/random", 0xf0953f127c447c64),
    ("by-sort/M=3B,B=49/n=1168/reverse", 0x094e8992a0a58255),
    ("by-sort/M=3B,B=49/n=1168/transpose", 0xd940c7db78cd31bd),
];

/// The sim-large machine.
const LARGE: (&str, usize, usize, u64) = ("large", 1 << 16, 1 << 8, 16);

/// The §3 family at the sizes the benchmark runs it: sim-large's permute
/// by-sort (one `small_sort` of nine selection passes), spmv sorted and
/// pq, and serve-payload's two costliest spmv jobs.
fn large_hashes() -> Vec<(String, u64)> {
    let mut out = Vec::new();
    let n = 1 << 19;
    out.push((
        format!("by-sort/large/n={n}/random"),
        by_sort_hash(LARGE, n, "random"),
    ));
    let spmv_rows = [
        (LARGE, 1 << 17),
        (("serve", 1024, 64, 16), 16384),
        (("serve-small", 512, 32, 4), 16384),
    ];
    for (shape, n) in spmv_rows {
        let hash = spmv_hash(shape, n, 4, "random", 1, spmv_sorted_on);
        out.push((format!("spmv_sorted/{}/n={n}/random", shape.0), hash));
    }
    let n = 1 << 18;
    let input = KeyDist::Uniform { seed: 1 }.generate(n);
    out.push((
        format!("sort_via_pq/large/n={n}/uniform"),
        checked_sort(LARGE, &input, sort_via_pq),
    ));
    out
}

/// Hashes recorded on the sort family's heap-based selection scans, before
/// `small_sort`, the §3.1 merge's round output and the queue's insert
/// path were rewritten.
const PINNED_LARGE: &[(&str, u64)] = &[
    ("by-sort/large/n=524288/random", 0x13989c67de8290e1),
    ("spmv_sorted/large/n=131072/random", 0xef767fc1f0b40b8b),
    ("spmv_sorted/serve/n=16384/random", 0xb53acea3aa0aeabe),
    ("spmv_sorted/serve-small/n=16384/random", 0x87b44e755189aecd),
    ("sort_via_pq/large/n=262144/uniform", 0x35f4c87fbea4204b),
];

/// bfs mark on the sim-large machine at the benchmark's size: a random
/// graph (instance seed 499, as the benchmark runs it) of 2^18 vertices
/// and out-degree 4.
fn large_bfs_hashes() -> Vec<(String, u64)> {
    let (n, delta, seed) = (1 << 18, 4, 499);
    let g = graph_instance(n, delta, seed);
    let mut im = machine(LARGE);
    let dist = bfs::bfs_mark(&mut im, n, &g.offs, &g.adj).unwrap();
    assert_eq!(im.inspect(dist), bfs_reference(n, &g.offs, &g.adj));
    vec![(
        format!("bfs/mark/large/n={n}/random"),
        program_hash(im, &[]),
    )]
}

/// Recorded while each discovery copied its distance block out and back.
const PINNED_LARGE_BFS: &[(&str, u64)] = &[("bfs/mark/large/n=262144/random", 0x2b649934682643a6)];

/// The gate machine of `cost_gate`.
const GATE: (&str, usize, usize, u64) = ("gate", 64, 8, 16);

/// The gate machine and the adversarial shapes of [`SHAPES`]: `ω > B`,
/// `B = 1` and `M = 4B`.
const BASELINE_SHAPES: [(&str, usize, usize, u64); 4] = [GATE, SHAPES[1], SHAPES[2], SHAPES[3]];

/// The baselines the paper's algorithms are measured against —
/// `distribution_sort`, permute naive and spmv direct — keyed
/// `algorithm/shape/input`, each on seeded inputs.
fn baseline_hashes() -> Vec<(String, u64)> {
    let mut out = Vec::new();
    for (si, &shape) in BASELINE_SHAPES.iter().enumerate() {
        let name = shape.0;
        for (di, &dist) in DISTS.iter().enumerate() {
            let input = keys(dist, 1500, 0xd157_0000 + (si * 16 + di) as u64);
            let hash = checked_sort(shape, &input, distribution_sort);
            out.push((format!("distribution_sort/{name}/{dist}"), hash));
        }
        for input in ["random", "reverse", "transpose"] {
            let hash = naive_hash(shape, 2048, input, 0x9a1e + si as u64);
            out.push((format!("permute_naive/{name}/{input}"), hash));
        }
        for input in ["random", "banded", "block-diagonal"] {
            let hash = spmv_hash(shape, 128, 16, input, 0xd1 + si as u64, spmv_direct_on);
            out.push((format!("spmv_direct/{name}/{input}"), hash));
        }
    }
    out
}

/// Hash of permute naive on `n` values under the permutation `input`
/// seeded with `seed`, checked against the permutation applied in RAM.
fn naive_hash(shape: (&str, usize, usize, u64), n: usize, input: &str, seed: u64) -> u64 {
    let pi = PermKind::from_label(input, n, seed).unwrap().generate(n);
    let values: Vec<u64> = (0..n as u64).map(|v| v * 7 + 3).collect();
    let mut im = machine(shape);
    let r = im.install(&values);
    let out_r = permute_naive_on(&mut im, r, &pi).unwrap();
    let name = shape.0;
    let got = im.inspect(out_r);
    assert_eq!(got, perm::apply(&pi, &values), "naive/{name}/{input}");
    program_hash(im, &[])
}

/// The baselines' first pins, recorded on the kernels as they stood when
/// every other registered algorithm already had a schedule pin.
const PINNED_BASELINES: &[(&str, u64)] = &[
    ("distribution_sort/gate/uniform", 0x80fb72658c39b817),
    ("distribution_sort/gate/sorted", 0x0321aa1f35d2fc37),
    ("distribution_sort/gate/reversed", 0x60b0b78d0a452c61),
    ("distribution_sort/gate/few-distinct", 0xdd2fd83c8a3257d2),
    ("distribution_sort/gate/all-equal", 0xa8b7e56877b2d11b),
    ("permute_naive/gate/random", 0x10f4f61415649045),
    ("permute_naive/gate/reverse", 0x617a4d38cd96e5f9),
    ("permute_naive/gate/transpose", 0x87c61d9c28addc25),
    ("spmv_direct/gate/random", 0x37fcf431cf2fe2b4),
    ("spmv_direct/gate/banded", 0x0a39cb46feeab54e),
    ("spmv_direct/gate/block-diagonal", 0x479f1b07abc5c09a),
    ("distribution_sort/omega>B/uniform", 0xfec37c54d343c11f),
    ("distribution_sort/omega>B/sorted", 0x0321aa1f35d2fc37),
    ("distribution_sort/omega>B/reversed", 0x60b0b78d0a452c61),
    ("distribution_sort/omega>B/few-distinct", 0xe4426fce8c6e09f6),
    ("distribution_sort/omega>B/all-equal", 0xa8b7e56877b2d11b),
    ("permute_naive/omega>B/random", 0x56d74d745a8dc1f2),
    ("permute_naive/omega>B/reverse", 0x617a4d38cd96e5f9),
    ("permute_naive/omega>B/transpose", 0x87c61d9c28addc25),
    ("spmv_direct/omega>B/random", 0x38dd7b7ab6123a09),
    ("spmv_direct/omega>B/banded", 0xd8993d1717667795),
    ("spmv_direct/omega>B/block-diagonal", 0x70da0729d034206c),
    ("distribution_sort/B=1/uniform", 0x69751fe51b22fd8f),
    ("distribution_sort/B=1/sorted", 0x24140eda2afcfaca),
    ("distribution_sort/B=1/reversed", 0x096c07f3439dad6d),
    ("distribution_sort/B=1/few-distinct", 0x76c49e6b4c31e7c7),
    ("distribution_sort/B=1/all-equal", 0x142d6797cf702bd0),
    ("permute_naive/B=1/random", 0x2a7a2cbaa5e01e41),
    ("permute_naive/B=1/reverse", 0x21bf4513256c8195),
    ("permute_naive/B=1/transpose", 0xbccf69c336206e4d),
    ("spmv_direct/B=1/random", 0x353afe83a37397ea),
    ("spmv_direct/B=1/banded", 0xceca20f0192b3c06),
    ("spmv_direct/B=1/block-diagonal", 0x5cd8b5fbdf58ad16),
    ("distribution_sort/M=4B/uniform", 0xdbe0fa747fce212d),
    ("distribution_sort/M=4B/sorted", 0x79ce884b3508d7d1),
    ("distribution_sort/M=4B/reversed", 0x22d16ba9d77be395),
    ("distribution_sort/M=4B/few-distinct", 0xab4150bd39c11cb5),
    ("distribution_sort/M=4B/all-equal", 0x68a5973f9c656aa0),
    ("permute_naive/M=4B/random", 0x5441daff8e8bf107),
    ("permute_naive/M=4B/reverse", 0xb282db7ed52fcf39),
    ("permute_naive/M=4B/transpose", 0xfb51bf0d0568a35d),
    ("spmv_direct/M=4B/random", 0x3b986bdb45edefa4),
    ("spmv_direct/M=4B/banded", 0x13aaead51d7d9693),
    ("spmv_direct/M=4B/block-diagonal", 0x1251bcc210d96ca4),
];

fn assert_pinned(got: &[(String, u64)], pinned: &[(&str, u64)]) {
    let table: String = got
        .iter()
        .map(|(k, h)| format!("    (\"{k}\", 0x{h:016x}),\n"))
        .collect();
    assert_eq!(got.len(), pinned.len(), "case list changed; got:\n{table}");
    let moved: Vec<&str> = got
        .iter()
        .zip(pinned)
        .filter(|((k, h), (pk, ph))| k != pk || h != ph)
        .map(|((k, _), _)| k.as_str())
        .collect();
    assert!(
        moved.is_empty(),
        "schedules moved: {moved:?}\ngot:\n{table}"
    );
}

#[test]
fn sort_family_schedules_are_pinned() {
    assert_pinned(&all_hashes(), PINNED);
}

#[test]
fn stream_merge_schedules_are_pinned() {
    assert_pinned(&stream_merge_hashes(), PINNED_STREAM_MERGES);
}

#[test]
fn probe_kernel_schedules_are_pinned() {
    assert_pinned(&probe_hashes(), PINNED_PROBES);
}

#[test]
fn dense_kernel_schedules_are_pinned() {
    assert_pinned(&dense_hashes(), PINNED_DENSE);
}

#[test]
fn large_shape_schedules_are_pinned() {
    assert_pinned(&large_hashes(), PINNED_LARGE);
}

#[test]
fn large_bfs_schedule_is_pinned() {
    assert_pinned(&large_bfs_hashes(), PINNED_LARGE_BFS);
}

#[test]
fn baseline_schedules_are_pinned() {
    assert_pinned(&baseline_hashes(), PINNED_BASELINES);
}
