//! The workload registry: one descriptor per workload kind, consumed by
//! every layer.
//!
//! Before this module, *what a workload is* — its wire name, candidate
//! algorithms, predictors, ghost flags, valid shapes, seeded instance —
//! was duplicated as string matches and enum arms across seven crates.
//! Now each kind is a single [`Workload`] descriptor and the consumers
//! iterate the registry:
//!
//! * `aem-serve`'s planner prices [`Workload::menu`] and routes backends
//!   by [`AlgoSpec::ghost_sound`]; its executor and the cost gate run
//!   jobs through [`run_workload`] with their own [`Harness`] (live
//!   backends, trace compilation);
//! * `aem-obs` resolves predictors and [`Workload::lower_bound`] from
//!   the descriptor when checking records;
//! * `aem-fuzz` generates one differential target per
//!   [`AlgoSpec::fuzz_target`];
//! * the CLI builds its usage text, run/profile defaults, named
//!   [`Workload::inputs`], and ghost gating from the same fields.
//!
//! Registering a new kind (the search family was the first to land this
//! way) reaches serve, profile, fuzz, and the strict cost gate without
//! touching any of those crates.

use std::any::Any;
use std::fmt;

use aem_machine::{
    AemAccess, AemConfig, Backend, BlockStore, Cost, GhostMachine, Machine, MachineCore,
    MachineError, Observer, Region, TraceMachine,
};
use aem_workloads::{
    graph_instance, matmul_instance, perm, scan_instance, search_instance, Conformation, KeyDist,
    MatrixShape, PermKind,
};

use crate::bfs;
use crate::bounds::permute::permute_cost_lower_bound;
use crate::bounds::predict;
use crate::matmul;
use crate::oracle;
use crate::permute::{permute_by_sort_on, permute_naive_on, DestTagged};
use crate::pq::PqParams;
use crate::scan;
use crate::search;
use crate::sort::{distribution_sort, em_merge_sort, heap_sort, merge_sort, sort_via_pq};
use crate::spmv::{
    install_instance, reference_multiply, spmv_direct_on, spmv_sorted_on, InstallExt, MatEntry,
    SpmvInstance, U64Ring,
};

/// Every workload kind the workspace serves, fuzzes, profiles, and gates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum WorkloadKind {
    /// Sort `n` seeded keys (§3 family: AEM/EM mergesorts, sorters via
    /// distribution, heaps, and the buffered PQ).
    Sort,
    /// Apply a seeded permutation to `0..n` (§4: naive vs by-sort).
    Permute,
    /// Sparse matrix × vector over a semiring, `δ` non-zeros per column
    /// (§5).
    Spmv,
    /// The buffered priority queue exercised as a sorter (§3.2).
    Pq,
    /// Build a static index over `n` keys, then run `δ` lookups (T11:
    /// ω-priced build vs read-only queries).
    Search,
    /// Prefix-sum a value file and answer `δ` prefix queries (T12:
    /// materialized scan vs reduction tree vs recompute-from-reads).
    Scan,
    /// Tiled dense `d×d` matrix multiply, `n = d²` (T13: write-avoiding
    /// vs streaming tiling).
    Matmul,
    /// Level-synchronous BFS from vertex 0 over a CSR graph with
    /// out-degree `δ` (T14: write-marking vs frontier re-derivation).
    Bfs,
}

impl WorkloadKind {
    /// Every registered kind, in canonical order.
    pub const ALL: [WorkloadKind; 8] = [
        WorkloadKind::Sort,
        WorkloadKind::Permute,
        WorkloadKind::Spmv,
        WorkloadKind::Pq,
        WorkloadKind::Search,
        WorkloadKind::Scan,
        WorkloadKind::Matmul,
        WorkloadKind::Bfs,
    ];

    /// Stable wire name.
    pub fn name(self) -> &'static str {
        self.descriptor().name
    }

    /// Parse a wire name.
    pub fn from_name(s: &str) -> Result<WorkloadKind, String> {
        WorkloadKind::ALL
            .into_iter()
            .find(|k| k.name() == s)
            .ok_or_else(|| {
                let names: Vec<&str> = WorkloadKind::ALL.iter().map(|k| k.name()).collect();
                format!("unknown job kind '{s}' ({})", names.join("|"))
            })
    }

    /// The kind's registry entry.
    pub fn descriptor(self) -> &'static Workload {
        match self {
            WorkloadKind::Sort => &SORT,
            WorkloadKind::Permute => &PERMUTE,
            WorkloadKind::Spmv => &SPMV,
            WorkloadKind::Pq => &PQ,
            WorkloadKind::Search => &SEARCH,
            WorkloadKind::Scan => &SCAN,
            WorkloadKind::Matmul => &MATMUL,
            WorkloadKind::Bfs => &BFS,
        }
    }
}

impl fmt::Display for WorkloadKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One candidate algorithm of a workload kind.
#[derive(Debug)]
pub struct AlgoSpec {
    /// Canonical algorithm name (the planner/exec/record key).
    pub name: &'static str,
    /// Accepted spellings from older records and CLI shorthands.
    pub aliases: &'static [&'static str],
    /// `true` when a ghost (cost-only occupancy) store prices the
    /// algorithm *exactly* — its I/O count never depends on payload
    /// values — so the planner may route or accept forced ghost.
    pub ghost_sound: bool,
    /// `true` when the algorithm at least *runs* on ghost placeholders
    /// with a representative schedule (profiling allows it); a subset
    /// of these are also [`AlgoSpec::ghost_sound`].
    pub ghost_runnable: bool,
    /// Why ghost is refused, for `!ghost_runnable` algorithms.
    pub ghost_note: &'static str,
    /// Name of the differential fuzz target generated for this
    /// algorithm. Stable: corpus files reference it.
    pub fuzz_target: &'static str,
    /// Run the `aem-obs` record invariants (cost conservation, phase
    /// tree, cost sandwich) on fuzzed executions.
    pub invariants: bool,
    /// `true` when [`AlgoSpec::predict`] is an exact-schedule predictor:
    /// wherever it prices a shape, the measured cost equals it. `false`
    /// for certified bounds (measured `≤` predicted componentwise) and
    /// for unpriced algorithms. `docs/WORKLOADS.md` lists the verdicts.
    pub exact: bool,
    /// Worst-case schedule predictor; `None` when the config rejects
    /// the algorithm (it then stays off every menu) or no closed form
    /// is priced.
    pub predict: fn(AemConfig, usize, usize) -> Option<Cost>,
    /// Per-phase decomposition of the predictor, when one exists.
    pub predict_phases: Option<PhasePredictor>,
}

/// Per-phase decomposition of an exact-schedule predictor:
/// `(cfg, n, delta) -> [(phase label, phase cost)]`.
pub type PhasePredictor = fn(AemConfig, usize, usize) -> Vec<(String, Cost)>;

/// A workload kind's registry entry.
#[derive(Debug)]
pub struct Workload {
    /// The kind this entry describes.
    pub kind: WorkloadKind,
    /// Stable wire name (`sort`, `permute`, `spmv`, `pq`, `search`,
    /// `scan`, `matmul`, `bfs`).
    pub name: &'static str,
    /// One-line description for usage text.
    pub summary: &'static str,
    /// What the `delta` field means for this kind (empty when unused).
    pub delta_name: &'static str,
    /// `true` when `delta == 0` is an invalid shape.
    pub requires_delta: bool,
    /// The algorithm `aemsim run` and `aemsim profile` use when none is
    /// named.
    pub default_algo: &'static str,
    /// Default `n` for `aemsim run` and `aemsim profile`.
    pub profile_n: usize,
    /// Default `delta` for `aemsim run` and `aemsim profile`.
    pub default_delta: usize,
    /// Named instance generators, default first: [`RunCtx::new`] picks
    /// the first, [`RunCtx::with_input`] any other. Every executor that
    /// does not name an input (serve, fuzz, the sweeps, the cost gate)
    /// runs the default.
    pub inputs: &'static [&'static str],
    /// Candidate algorithms in canonical (menu) order.
    pub algos: &'static [AlgoSpec],
    /// Canonical `(n, delta)` shapes metered by the strict cost gate.
    pub gate_shapes: &'static [(usize, usize)],
}

impl Workload {
    /// Resolve an algorithm by canonical name or alias (`-`/`_` are
    /// interchangeable).
    pub fn algo(&self, name: &str) -> Option<&'static AlgoSpec> {
        let eq = |a: &str| a.replace('-', "_") == name.replace('-', "_");
        self.algos
            .iter()
            .find(|a| eq(a.name) || a.aliases.iter().any(|&al| eq(al)))
    }

    /// The priced candidate menu on a shape: every algorithm whose
    /// predictor accepts the config, in canonical order.
    pub fn menu(&self, cfg: AemConfig, n: usize, delta: usize) -> Vec<(&'static str, Cost)> {
        self.algos
            .iter()
            .filter_map(|a| (a.predict)(cfg, n, delta).map(|c| (a.name, c)))
            .collect()
    }

    /// The cheapest menu entry under the exact `Q = Q_r + ω·Q_w` (ties
    /// resolve to the earliest candidate, keeping planner output
    /// deterministic). Prices compare unsaturated, so at a huge `ω` the
    /// fewest-writes entry wins even where every `Cost::q` is `u64::MAX`.
    pub fn cheapest(&self, cfg: AemConfig, n: usize, delta: usize) -> Option<(&'static str, Cost)> {
        self.menu(cfg, n, delta)
            .into_iter()
            .min_by_key(|(_, c)| c.q_exact(cfg.omega))
    }

    /// Theorem 4.5's lower bound on the cost `Q` of any program for this
    /// kind at size `n`: sorting, permuting and the PQ sorter must realize
    /// a permutation, so the counting bound applies. `None` for the other
    /// kinds (SpMxV's Theorem 5.1 bound has its own parameter range).
    pub fn lower_bound(&self, cfg: AemConfig, n: usize) -> Option<f64> {
        match self.kind {
            WorkloadKind::Sort | WorkloadKind::Permute | WorkloadKind::Pq => {
                Some(permute_cost_lower_bound(n as u64, cfg))
            }
            _ => None,
        }
    }

    /// The kind's shape-validity predicate: every layer (CLI, planner,
    /// fuzz sampler) rejects invalid shapes through this one function.
    pub fn validate(&self, n: usize, delta: usize) -> Result<(), String> {
        if n == 0 {
            return Err("n must be positive".into());
        }
        if self.requires_delta && delta == 0 {
            return Err(format!(
                "{} requires delta >= 1 ({})",
                self.name, self.delta_name
            ));
        }
        if self.kind == WorkloadKind::Spmv && delta > n {
            return Err(format!(
                "spmv requires delta <= n (a column holds at most n distinct rows; got delta={delta}, n={n})"
            ));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Predictor adapters (the registry's `fn` fields must be plain items).
// ---------------------------------------------------------------------

fn predict_aem(cfg: AemConfig, n: usize, _d: usize) -> Option<Cost> {
    Some(predict::merge_sort_cost(cfg, n))
}
fn predict_em(cfg: AemConfig, n: usize, _d: usize) -> Option<Cost> {
    Some(predict::em_sort_cost(cfg, n))
}
fn predict_pq(cfg: AemConfig, n: usize, _d: usize) -> Option<Cost> {
    if PqParams::for_config(cfg).is_err() {
        return None;
    }
    Some(predict::pq_sort_cost(cfg, n))
}
fn predict_unpriced(_cfg: AemConfig, _n: usize, _d: usize) -> Option<Cost> {
    None
}
fn predict_naive(cfg: AemConfig, n: usize, _d: usize) -> Option<Cost> {
    Some(predict::permute_naive_cost(cfg, n))
}
fn predict_by_sort(cfg: AemConfig, n: usize, _d: usize) -> Option<Cost> {
    Some(predict::permute_by_sort_cost(cfg, n))
}
fn predict_spmv_direct(cfg: AemConfig, n: usize, d: usize) -> Option<Cost> {
    Some(predict::spmv_direct_cost(cfg, n, d))
}
fn predict_spmv_sorted(cfg: AemConfig, n: usize, d: usize) -> Option<Cost> {
    Some(predict::spmv_sorted_cost(cfg, n, d))
}
fn predict_search_binary(cfg: AemConfig, n: usize, d: usize) -> Option<Cost> {
    Some(search::binary_cost(cfg, n, d))
}
fn predict_search_btree(cfg: AemConfig, n: usize, d: usize) -> Option<Cost> {
    // Fan-out is B: a one-element block cannot form a tree, so the layout
    // stays off the menu (and `build_btree` rejects the config).
    if cfg.block < 2 {
        return None;
    }
    Some(search::btree_cost(cfg, n, d))
}
fn predict_search_eytzinger(cfg: AemConfig, n: usize, d: usize) -> Option<Cost> {
    Some(search::eytzinger_cost(cfg, n, d))
}
fn predict_scan_materialize(cfg: AemConfig, n: usize, d: usize) -> Option<Cost> {
    Some(scan::materialize_cost(cfg, n, d))
}
fn predict_scan_tree(cfg: AemConfig, n: usize, d: usize) -> Option<Cost> {
    // Fan-out is B, same contraction argument as the search B-tree.
    if cfg.block < 2 {
        return None;
    }
    Some(scan::tree_cost(cfg, n, d))
}
fn predict_scan_rescan(cfg: AemConfig, n: usize, d: usize) -> Option<Cost> {
    Some(scan::rescan_cost(cfg, n, d))
}
fn phases_merge_sort(cfg: AemConfig, n: usize, _d: usize) -> Vec<(String, Cost)> {
    predict::merge_sort_cost_phases(cfg, n, cfg.fan_in())
}

/// Inputs of the sort and pq kinds: the seed-derived default, then each
/// [`KeyDist`] by label.
const KEY_INPUTS: &[&str] = &[
    "seeded",
    "uniform",
    "sorted",
    "reversed",
    "organ-pipe",
    "few-distinct",
];

/// Inputs of the kinds whose instance only the seed chooses.
const SEEDED: &[&str] = &["seeded"];

const fn sorter(
    name: &'static str,
    aliases: &'static [&'static str],
    fuzz_target: &'static str,
    predict: fn(AemConfig, usize, usize) -> Option<Cost>,
    predict_phases: Option<PhasePredictor>,
) -> AlgoSpec {
    AlgoSpec {
        name,
        aliases,
        ghost_sound: false,
        ghost_runnable: true,
        ghost_note: "",
        fuzz_target,
        invariants: true,
        exact: false,
        predict,
        predict_phases,
    }
}

/// An algorithm outside the sort family, without record invariants or a
/// phase predictor, priced by a certified bound: ghost-sound when
/// `ghost_note` is empty, otherwise neither sound nor runnable on ghost,
/// for the reason the note gives. `exact` marks the exact-schedule
/// ones.
const fn algo(
    name: &'static str,
    aliases: &'static [&'static str],
    fuzz_target: &'static str,
    predict: fn(AemConfig, usize, usize) -> Option<Cost>,
    ghost_note: &'static str,
) -> AlgoSpec {
    AlgoSpec {
        name,
        aliases,
        ghost_sound: ghost_note.is_empty(),
        ghost_runnable: ghost_note.is_empty(),
        ghost_note,
        fuzz_target,
        invariants: false,
        exact: false,
        predict,
        predict_phases: None,
    }
}

/// `spec` with an exact-schedule predictor.
const fn exact(spec: AlgoSpec) -> AlgoSpec {
    AlgoSpec {
        exact: true,
        ..spec
    }
}

static SORT: Workload = Workload {
    kind: WorkloadKind::Sort,
    name: "sort",
    summary: "sort n seeded keys (§3 mergesorts and friends)",
    delta_name: "",
    requires_delta: false,
    default_algo: "aem",
    profile_n: 8192,
    default_delta: 0,
    inputs: KEY_INPUTS,
    algos: &[
        sorter(
            "aem",
            &["merge"],
            "merge_sort",
            predict_aem,
            Some(phases_merge_sort),
        ),
        sorter("em", &[], "em_sort", predict_em, None),
        sorter("pq", &[], "pq_sort", predict_pq, None),
        sorter("dist", &[], "dist_sort", predict_unpriced, None),
        sorter("heap", &[], "heap_sort", predict_unpriced, None),
    ],
    gate_shapes: &[(2048, 3)],
};

static PERMUTE: Workload = Workload {
    kind: WorkloadKind::Permute,
    name: "permute",
    summary: "apply a seeded permutation to 0..n (§4 bound)",
    delta_name: "",
    requires_delta: false,
    default_algo: "by-sort",
    profile_n: 8192,
    default_delta: 0,
    inputs: &["random", "identity", "reverse", "bit-reversal", "transpose"],
    algos: &[
        algo("naive", &[], "permute_naive", predict_naive, ""),
        AlgoSpec {
            invariants: true,
            ..algo(
                "by-sort",
                &["by_sort", "sort"],
                "permute_by_sort",
                predict_by_sort,
                "routes on destination tags",
            )
        },
    ],
    gate_shapes: &[(2048, 3)],
};

static SPMV: Workload = Workload {
    kind: WorkloadKind::Spmv,
    name: "spmv",
    summary: "sparse matrix x vector, delta non-zeros per column (§5)",
    delta_name: "non-zeros per column",
    requires_delta: true,
    default_algo: "sorted",
    profile_n: 1024,
    default_delta: 4,
    inputs: &["random", "banded", "block-diagonal"],
    algos: &[
        algo(
            "direct",
            &[],
            "spmv_direct",
            predict_spmv_direct,
            "moves semiring atoms",
        ),
        algo(
            "sorted",
            &[],
            "spmv_sorted",
            predict_spmv_sorted,
            "moves semiring atoms",
        ),
    ],
    gate_shapes: &[(2048, 3)],
};

static PQ: Workload = Workload {
    kind: WorkloadKind::Pq,
    name: "pq",
    summary: "the buffered priority queue run as a sorter (§3.2)",
    delta_name: "",
    requires_delta: false,
    default_algo: "pq",
    profile_n: 8192,
    default_delta: 0,
    inputs: KEY_INPUTS,
    algos: &[sorter("pq", &[], "pq_sort", predict_pq, None)],
    gate_shapes: &[(2048, 3)],
};

static SEARCH: Workload = Workload {
    kind: WorkloadKind::Search,
    name: "search",
    summary: "build a static index over n keys, run delta lookups (T11)",
    delta_name: "lookups",
    requires_delta: true,
    default_algo: "btree",
    profile_n: 8192,
    default_delta: 256,
    inputs: SEEDED,
    algos: &[
        exact(algo(
            "binary",
            &[],
            "search_binary",
            predict_search_binary,
            "",
        )),
        exact(algo("btree", &[], "search_btree", predict_search_btree, "")),
        algo(
            "eytzinger",
            &[],
            "search_eytzinger",
            predict_search_eytzinger,
            "descent depth is key-dependent",
        ),
    ],
    // Two canonical shapes so both sides of the build-vs-query trade
    // land in COSTS.json: few lookups (binary wins — the build is free)
    // and a large batch (the ω-priced B-tree build amortizes).
    gate_shapes: &[(2048, 3), (2048, 1024)],
};

static SCAN: Workload = Workload {
    kind: WorkloadKind::Scan,
    name: "scan",
    summary: "prefix-sum a value file, answer delta prefix queries (T12)",
    delta_name: "prefix queries",
    requires_delta: true,
    default_algo: "tree",
    profile_n: 8192,
    default_delta: 64,
    inputs: SEEDED,
    algos: &[
        exact(algo(
            "materialize",
            &["classic"],
            "scan_materialize",
            predict_scan_materialize,
            "",
        )),
        exact(algo(
            "tree",
            &["sum-tree"],
            "scan_tree",
            predict_scan_tree,
            "",
        )),
        algo("rescan", &[], "scan_rescan", predict_scan_rescan, ""),
    ],
    // Small batches (rescan territory at high ω) and a large batch
    // (where the materialize↔tree crossover lives).
    gate_shapes: &[(2048, 3), (2048, 1024)],
};

static MATMUL: Workload = Workload {
    kind: WorkloadKind::Matmul,
    name: "matmul",
    summary: "tiled dense d x d multiply over n = d^2 elements (T13)",
    delta_name: "",
    requires_delta: false,
    default_algo: "tiled",
    profile_n: 1764,
    default_delta: 0,
    inputs: SEEDED,
    algos: &[
        exact(algo(
            "tiled",
            &["write-avoiding"],
            "matmul_tiled",
            matmul::tiled_cost,
            "",
        )),
        exact(algo(
            "stream",
            &["streaming"],
            "matmul_stream",
            matmul::stream_cost,
            "",
        )),
    ],
    gate_shapes: &[(1764, 0)],
};

static BFS: Workload = Workload {
    kind: WorkloadKind::Bfs,
    name: "bfs",
    summary: "level-synchronous BFS from vertex 0, out-degree delta (T14)",
    delta_name: "out-degree per vertex",
    requires_delta: true,
    default_algo: "mark",
    profile_n: 2048,
    default_delta: 4,
    inputs: SEEDED,
    algos: &[
        algo(
            "mark",
            &[],
            "bfs_mark",
            bfs::mark_cost,
            "traversal order and queue flushes derive from adjacency payloads",
        ),
        algo(
            "rescan",
            &[],
            "bfs_rescan",
            bfs::rescan_cost,
            "round count is the BFS depth, an adjacency-payload property",
        ),
    ],
    gate_shapes: &[(2048, 3)],
};

// ---------------------------------------------------------------------
// The generic runner: one kind dispatch, shared by every executor.
// ---------------------------------------------------------------------

/// Element bound every workload payload satisfies (the `Default` is what
/// lets the ghost store fabricate placeholders).
pub trait Payload: Clone + Default + fmt::Debug + 'static {}
impl<T: Clone + Default + fmt::Debug + 'static> Payload for T {}

/// The machine capabilities a workload body needs, object-safe so one
/// boxed body serves every backend: metered access, free installation,
/// free inspection, and whether inspected values are real.
///
/// A body receives `&mut dyn WorkloadMachine<T>`, but its metered kernel
/// does not run through the vtable on the machines the hot paths use:
/// [`run_workload`] downcasts through [`WorkloadMachine::as_any_mut`] once
/// per run and runs the kernel compiled for the concrete vec machine
/// ([`Machine<T>`]) and, for kinds with a ghost-sound algorithm, the
/// ghost machine ([`GhostMachine<T>`]), so each metered call inlines its
/// store access. The arena backend builds the vec machine, so its runs take
/// the vec path. Every other machine (trace, an observed machine, any
/// wrapper) runs the same kernel source through the trait object.
pub trait WorkloadMachine<T>: AemAccess<T> + InstallExt<T> {
    /// Inspect a region without charging I/O (verification only).
    fn inspect_region(&self, r: Region) -> Vec<T>;
    /// `false` on ghost stores, whose inspected values are placeholders.
    fn payload_real(&self) -> bool;
    /// The machine itself, for [`run_workload`] to downcast to a concrete
    /// machine type; `None` keeps every call on the trait object. Only
    /// the bare machine returns itself: a wrapper keeps this default, so
    /// a fault it injects (or a count it keeps) can never be bypassed by
    /// downcasting to the machine inside it.
    fn as_any_mut(&mut self) -> Option<&mut dyn Any> {
        None
    }
}

impl<T, S, A, K> WorkloadMachine<T> for MachineCore<T, S, A, K>
where
    T: Clone + 'static,
    S: BlockStore<T> + 'static,
    A: BlockStore<u64> + 'static,
    K: Observer + 'static,
{
    fn inspect_region(&self, r: Region) -> Vec<T> {
        self.inspect(r)
    }
    fn payload_real(&self) -> bool {
        S::BACKEND.carries_payload()
    }
    fn as_any_mut(&mut self) -> Option<&mut dyn Any> {
        Some(self)
    }
}

/// How a workload execution failed.
#[derive(Debug)]
pub enum WorkloadError {
    /// The machine rejected an operation (config, capacity, …).
    Machine(MachineError),
    /// The output failed differential verification, or the shape/algo
    /// was invalid.
    Check(String),
}

impl fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkloadError::Machine(e) => write!(f, "{e}"),
            WorkloadError::Check(msg) => f.write_str(msg),
        }
    }
}

impl From<MachineError> for WorkloadError {
    fn from(e: MachineError) -> Self {
        WorkloadError::Machine(e)
    }
}

/// Outcome of a workload body: an output digest plus whether it was
/// actually verified against the oracle (ghost placeholders are not).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Verified {
    /// FNV-1a digest of the verified output (0 when unverified).
    pub checksum: u64,
    /// `true` when the output matched the RAM-model oracle.
    pub verified: bool,
}

impl Verified {
    fn hashed(checksum: u64) -> Verified {
        Verified {
            checksum,
            verified: true,
        }
    }
    fn unverified() -> Verified {
        Verified {
            checksum: 0,
            verified: false,
        }
    }
}

/// A boxed workload body, runnable on any [`WorkloadMachine`]. The box
/// and the trait object cost one indirect call per run: the body's
/// metered kernel downcasts a bare vec (or, where listed, ghost) machine
/// through [`WorkloadMachine::as_any_mut`] and runs monomorphized on it,
/// and runs through the trait object on every other machine.
pub type Body<'a, T> =
    Box<dyn FnOnce(&mut dyn WorkloadMachine<T>) -> Result<Verified, WorkloadError> + 'a>;

/// A resolved execution context: kind, algorithm, shape, input, seed.
#[derive(Debug, Clone, Copy)]
pub struct RunCtx {
    /// The workload kind.
    pub kind: WorkloadKind,
    /// The resolved algorithm entry.
    pub algo: &'static AlgoSpec,
    /// Validated machine shape.
    pub cfg: AemConfig,
    /// Problem size.
    pub n: usize,
    /// Kind-specific parameter (see [`Workload::delta_name`]).
    pub delta: usize,
    /// Instance seed.
    pub seed: u64,
    /// The named input (one of [`Workload::inputs`]) the instance is
    /// generated from.
    pub input: &'static str,
}

impl RunCtx {
    /// Validate a shape and resolve an algorithm name into a context on
    /// the kind's default input.
    pub fn new(
        kind: WorkloadKind,
        algo: &str,
        cfg: AemConfig,
        n: usize,
        delta: usize,
        seed: u64,
    ) -> Result<RunCtx, String> {
        let w = kind.descriptor();
        w.validate(n, delta)?;
        let algo = w.algo(algo).ok_or_else(|| {
            let names: Vec<&str> = w.algos.iter().map(|a| a.name).collect();
            format!(
                "unknown {} algorithm '{algo}' ({})",
                w.name,
                names.join("|")
            )
        })?;
        Ok(RunCtx {
            kind,
            algo,
            cfg,
            n,
            delta,
            seed,
            input: w.inputs[0],
        })
    }

    /// The same context on the input `name`, which must be one of the
    /// kind's [`Workload::inputs`] and valid at this shape (`bit-reversal`
    /// needs a power-of-two `n`, for one), so [`run_workload`] can always
    /// generate it.
    pub fn with_input(mut self, name: &str) -> Result<RunCtx, String> {
        let w = self.kind.descriptor();
        self.input =
            w.inputs.iter().find(|&&i| i == name).ok_or_else(|| {
                format!("unknown {} input '{name}' ({})", w.name, w.inputs.join("|"))
            })?;
        match self.kind {
            WorkloadKind::Permute => {
                PermKind::from_label(name, self.n, self.seed)?;
            }
            WorkloadKind::Spmv => {
                MatrixShape::from_label(name, self.n, self.delta, self.seed)?;
            }
            _ => {}
        }
        Ok(self)
    }

    /// Refuse the cost-only ghost backend for an algorithm it does not
    /// price exactly ([`AlgoSpec::ghost_sound`]).
    pub fn check_ghost(&self, backend: Backend) -> Result<(), WorkloadError> {
        if backend == Backend::Ghost && !self.algo.ghost_sound {
            return Err(WorkloadError::Check(format!(
                "ghost is unsound for {}/{} (payload-routed schedule)",
                self.kind, self.algo.name
            )));
        }
        Ok(())
    }
}

/// An execution environment: given a context and the kind's body, pick a
/// machine, run the body, and return whatever the layer cares about
/// (cost + checksum, a compiled trace, an instrumented record, …).
pub trait Harness {
    /// What running one workload yields in this environment.
    type Out;
    /// Run `body` on a machine of the harness's choosing.
    fn run<T: Payload>(
        &mut self,
        ctx: &RunCtx,
        body: Body<'_, T>,
    ) -> Result<Self::Out, WorkloadError>;
}

/// FNV-1a over a stream of `u64`s — the workspace's output digest.
pub fn fnv1a(values: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in values {
        for b in v.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn check(ok: bool, msg: &str) -> Result<(), WorkloadError> {
    if ok {
        Ok(())
    } else {
        Err(WorkloadError::Check(msg.into()))
    }
}

/// Sort instance of the named input. On the default `seeded` input the
/// distribution *shape* is seed-derived too, so any executor sweeping
/// seeds (the fuzzer in particular) also sweeps the degenerate corners the
/// paper's tie handling must survive: presorted, reversed,
/// duplicate-heavy and organ-pipe inputs, not just uniform keys.
fn sort_keys(input: &str, n: usize, seed: u64) -> Result<Vec<u64>, String> {
    let dist = match (input, seed % 5) {
        ("seeded", 0) => KeyDist::Sorted,
        ("seeded", 1) => KeyDist::Reversed,
        ("seeded", 2) => KeyDist::FewDistinct {
            distinct: 2 + (seed / 5) % 7,
            seed,
        },
        ("seeded", 3) => KeyDist::OrganPipe,
        ("seeded", _) => KeyDist::Uniform { seed },
        (label, _) => KeyDist::from_label(label, seed)?,
    };
    Ok(dist.generate(n))
}

fn run_sorter<M: WorkloadMachine<u64> + ?Sized>(
    algo: &str,
    mut m: &mut M,
    r: Region,
) -> Result<Region, MachineError> {
    match algo {
        "aem" => merge_sort(&mut m, r),
        "em" => em_merge_sort(&mut m, r),
        "dist" => distribution_sort(&mut m, r),
        "heap" => heap_sort(&mut m, r),
        "pq" => sort_via_pq(&mut m, r),
        other => unreachable!("unregistered sorter {other}"),
    }
}

/// A `verify` kernel for payload `$t`: `$body`, with `$m` bound to the
/// machine, compiled once per listed concrete machine type (`Machine`,
/// `GhostMachine`) and once against the trait object. One
/// [`WorkloadMachine::as_any_mut`] downcast per run picks the copy, so on
/// the listed machines every metered call in the kernel is a direct,
/// inlinable call. The arena backend builds `Machine` too, so its runs
/// take the vec copy; any other machine, wrappers included, runs the same
/// source through the vtable. `$m` is a `&mut` to the machine in every
/// copy, so a body passes `&mut $m` to the generic kernels. Each copy is
/// code the binary carries, so ghost is listed only where the body has a
/// ghost-sound algorithm, the runs serve's cost-only path makes on ghost.
/// The sorters are runnable on ghost but never sound there, and their
/// ghost copy cost 209 KB of text and ran em's merge 6% slower.
macro_rules! kernel {
    ($t:ty, [$($mach:ident),+], |$m:ident| $body:expr) => {
        |dm: &mut dyn WorkloadMachine<$t>| {
            if let Some(any) = dm.as_any_mut() {
                $(
                    if let Some(cm) = any.downcast_mut::<$mach<$t>>() {
                        #[allow(unused_mut)]
                        let mut $m = cm;
                        return $body;
                    }
                )+
            }
            #[allow(unused_mut)]
            let mut $m = dm;
            $body
        }
    };
}

/// Smallest `n` at which [`run_workload`] runs a body's RAM oracle on a
/// helper thread beside the metered kernel instead of after it. A scoped
/// spawn and join costs ~70–80 µs on a 2-vCPU host: at `2^16` elements
/// that is under 1% of any registered run (sort at `(1024, 64, 16)` takes
/// ~20 ms there), while below it the spawn is a visible share of a small
/// job, and a server whose workers already fill every core lost 8% of its
/// request rate to it. The cut-off keeps every serve-sized job on one
/// thread.
pub const ORACLE_BESIDE_MIN_N: usize = 1 << 16;

/// Run `kernel` on `m`, read its answer back with `output`, and check it
/// against `oracle`; `what` names the failure. `kernel` takes the trait
/// object: the registry builds each one with `kernel!`, which resolves a
/// bare vec (or ghost) machine behind it and runs the copy compiled for
/// that type, so `verify` itself stays one copy per payload type.
///
/// On a real payload at `n ≥` [`ORACLE_BESIDE_MIN_N`] the oracle and the
/// FNV-1a of its answer run on a scoped helper thread while the kernel
/// and `output` run on the calling thread; the digest is then the
/// oracle's, which equals the output's once the two compare equal.
/// Otherwise everything runs on the calling thread in order — kernel,
/// read-back, oracle, compare, hash — and a ghost run stops after the
/// kernel, never computing the oracle. A kernel error waits for the
/// helper and wins over anything the oracle did; an oracle panic is
/// re-raised.
fn verify<T, R>(
    m: &mut dyn WorkloadMachine<T>,
    n: usize,
    kernel: impl FnOnce(&mut dyn WorkloadMachine<T>) -> Result<R, MachineError>,
    output: impl FnOnce(&dyn WorkloadMachine<T>, R) -> Vec<u64>,
    oracle: impl FnOnce() -> Vec<u64> + Send,
    what: &str,
) -> Result<Verified, WorkloadError> {
    if m.payload_real() && n >= ORACLE_BESIDE_MIN_N {
        return std::thread::scope(|s| {
            let helper = s.spawn(|| {
                let want = oracle();
                let hash = fnv1a(want.iter().copied());
                (want, hash)
            });
            let got = kernel(&mut *m).map(|r| output(&*m, r));
            let joined = helper.join();
            let got = got?;
            let (want, hash) = joined.unwrap_or_else(|p| std::panic::resume_unwind(p));
            check(got == want, what)?;
            Ok(Verified::hashed(hash))
        });
    }
    let r = kernel(&mut *m)?;
    if !m.payload_real() {
        return Ok(Verified::unverified());
    }
    let got = output(&*m, r);
    let want = oracle();
    check(got == want, what)?;
    Ok(Verified::hashed(fnv1a(got)))
}

/// Generate this kind's instance of `ctx.input` and run it under `h`. The single
/// place that matches on [`WorkloadKind`] to pick payload types, oracle,
/// and verification — every executor (serve live/trace, fuzz, profile,
/// the cost gate) goes through here. Every body verifies through one
/// helper: from [`ORACLE_BESIDE_MIN_N`] elements up its RAM oracle runs on
/// a helper thread beside the metered run, below that after the run on
/// the calling thread. Only real payloads are checked: ghost runs return
/// unverified without paying for a reference they would throw away.
pub fn run_workload<H: Harness>(ctx: &RunCtx, h: &mut H) -> Result<H::Out, WorkloadError> {
    let algo = ctx.algo.name;
    let (n, delta, seed) = (ctx.n, ctx.delta, ctx.seed);
    match ctx.kind {
        WorkloadKind::Sort | WorkloadKind::Pq => {
            let input = sort_keys(ctx.input, n, seed).map_err(WorkloadError::Check)?;
            h.run::<u64>(
                ctx,
                Box::new(move |m| {
                    verify(
                        m,
                        n,
                        kernel!(u64, [Machine], |m| {
                            let r = m.install_atoms(&input);
                            run_sorter(algo, m, r)
                        }),
                        |m, out| m.inspect_region(out),
                        || oracle::sorted_reference(&input),
                        "sort: output diverges from the oracle",
                    )
                }),
            )
        }
        WorkloadKind::Permute => {
            let values: Vec<u64> = (0..n as u64).collect();
            let pi = PermKind::from_label(ctx.input, n, seed)
                .map_err(WorkloadError::Check)?
                .generate(n);
            match algo {
                "naive" => h.run::<u64>(
                    ctx,
                    Box::new(move |m| {
                        verify(
                            m,
                            n,
                            kernel!(u64, [Machine, GhostMachine], |m| {
                                let r = m.install_atoms(&values);
                                permute_naive_on(&mut m, r, &pi)
                            }),
                            |m, out| m.inspect_region(out),
                            || perm::apply(&pi, &values),
                            "naive permute: verification failed",
                        )
                    }),
                ),
                _ => {
                    let tagged: Vec<DestTagged<u64>> = values
                        .iter()
                        .zip(pi.iter())
                        .map(|(v, &d)| DestTagged {
                            dest: d as u64,
                            value: *v,
                        })
                        .collect();
                    h.run::<DestTagged<u64>>(
                        ctx,
                        Box::new(move |m| {
                            verify(
                                m,
                                n,
                                kernel!(DestTagged<u64>, [Machine], |m| {
                                    let r = m.install_atoms(&tagged);
                                    permute_by_sort_on(&mut m, r)
                                }),
                                |m, out| {
                                    m.inspect_region(out).into_iter().map(|t| t.value).collect()
                                },
                                || perm::apply(&pi, &values),
                                "by-sort permute: verification failed",
                            )
                        }),
                    )
                }
            }
        }
        WorkloadKind::Spmv => {
            let shape =
                MatrixShape::from_label(ctx.input, n, delta, seed).map_err(WorkloadError::Check)?;
            let conf = Conformation::generate(shape, n, delta);
            let a: Vec<U64Ring> = (0..conf.nnz())
                .map(|i| U64Ring((i as u64 * 37 + 1) % 97))
                .collect();
            let x: Vec<U64Ring> = (0..n).map(|j| U64Ring((j as u64 * 13 + 5) % 89)).collect();
            h.run::<MatEntry<U64Ring>>(
                ctx,
                Box::new(move |m| {
                    verify(
                        m,
                        n,
                        kernel!(MatEntry<U64Ring>, [Machine], |m| {
                            let inst = SpmvInstance {
                                conf: &conf,
                                a_vals: &a,
                                x: &x,
                            };
                            let (ar, xr) = install_instance(&mut m, &inst);
                            match algo {
                                "direct" => spmv_direct_on(&mut m, &conf, ar, xr),
                                _ => spmv_sorted_on(&mut m, &conf, ar, xr),
                            }
                        }),
                        |m, y| m.inspect_region(y).into_iter().map(|e| e.val.0).collect(),
                        || {
                            reference_multiply(&conf, &a, &x)
                                .into_iter()
                                .map(|v| v.0)
                                .collect()
                        },
                        "spmv: verification failed",
                    )
                }),
            )
        }
        WorkloadKind::Search => {
            let inst = search_instance(n, delta, seed);
            h.run::<u64>(
                ctx,
                Box::new(move |m| {
                    verify(
                        m,
                        n,
                        kernel!(u64, [Machine, GhostMachine], |m| {
                            let idx = match algo {
                                "binary" => search::build_binary(&mut m, &inst.keys)?,
                                "eytzinger" => search::build_eytzinger(&mut m, &inst.keys)?,
                                _ => search::build_btree(&mut m, &inst.keys)?,
                            };
                            search::lookup_batch(&mut m, &idx, &inst.queries)
                        }),
                        |_, got| got,
                        || oracle::lookup_reference(&inst.keys, &inst.queries),
                        "search: lookup verification failed",
                    )
                }),
            )
        }
        WorkloadKind::Scan => {
            let inst = scan_instance(n, delta, seed);
            h.run::<u64>(
                ctx,
                Box::new(move |m| {
                    verify(
                        m,
                        n,
                        kernel!(u64, [Machine, GhostMachine], |m| {
                            let r = m.install_atoms(&inst.values);
                            match algo {
                                "materialize" => scan::scan_materialize(&mut m, r, &inst.queries),
                                "rescan" => scan::scan_rescan(&mut m, r, &inst.queries),
                                _ => {
                                    let t = scan::build_sum_tree(&mut m, r)?;
                                    scan::query_tree(&mut m, &t, &inst.queries)
                                }
                            }
                        }),
                        |_, got| got,
                        || oracle::prefix_reference(&inst.values, &inst.queries),
                        "scan: prefix verification failed",
                    )
                }),
            )
        }
        WorkloadKind::Matmul => {
            let inst = matmul_instance(n, seed);
            h.run::<u64>(
                ctx,
                Box::new(move |m| {
                    verify(
                        m,
                        n,
                        kernel!(u64, [Machine, GhostMachine], |m| match algo {
                            "stream" => matmul::matmul_stream(&mut m, inst.d, &inst.a, &inst.b),
                            _ => matmul::matmul_tiled(&mut m, inst.d, &inst.a, &inst.b),
                        }),
                        |m, (cr, t)| {
                            matmul::extract(inst.d, t, m.cfg().block, &m.inspect_region(cr))
                        },
                        || oracle::matmul_reference(inst.d, &inst.a, &inst.b),
                        "matmul: verification failed",
                    )
                }),
            )
        }
        WorkloadKind::Bfs => {
            let g = graph_instance(n, delta, seed);
            h.run::<u64>(
                ctx,
                Box::new(move |m| {
                    verify(
                        m,
                        n,
                        kernel!(u64, [Machine], |m| match algo {
                            "rescan" => bfs::bfs_rescan(&mut m, n, &g.offs, &g.adj),
                            _ => bfs::bfs_mark(&mut m, n, &g.offs, &g.adj),
                        }),
                        |m, dist| m.inspect_region(dist),
                        || oracle::bfs_reference(n, &g.offs, &g.adj),
                        "bfs: distance verification failed",
                    )
                }),
            )
        }
    }
}

/// A visitor over the machine type a [`Backend`] selects. The dispatch
/// macros in `aem-machine` only work with concrete payload types; this
/// is their generic counterpart, usable from code that is itself generic
/// over `T` (every [`Harness`] implementation).
pub trait MachineVisitor<T: Payload> {
    /// What visiting the machine yields.
    type Out;
    /// Receive the freshly constructed machine.
    fn visit<M: WorkloadMachine<T>>(self, m: M) -> Self::Out;
}

/// Construct `backend`'s machine for payload `T` and hand it to `v`.
pub fn visit_backend<T: Payload, V: MachineVisitor<T>>(
    backend: Backend,
    cfg: AemConfig,
    v: V,
) -> V::Out {
    match backend {
        Backend::Vec | Backend::Arena => v.visit(Machine::<T>::new(cfg)),
        Backend::Ghost => v.visit(GhostMachine::<T>::new(cfg)),
        Backend::Trace => v.visit(TraceMachine::<T>::new(cfg)),
    }
}

/// A ready-made live harness: runs the body on the given backend's
/// machine and yields `(cost, checksum)` — what serve's executor and the
/// CLI `run` command need.
#[derive(Debug, Clone, Copy)]
pub struct LiveHarness {
    /// The storage backend to run on.
    pub backend: Backend,
}

impl Harness for LiveHarness {
    type Out = (Cost, u64);
    fn run<T: Payload>(
        &mut self,
        ctx: &RunCtx,
        body: Body<'_, T>,
    ) -> Result<Self::Out, WorkloadError> {
        ctx.check_ghost(self.backend)?;
        struct Visit<'a, T>(Body<'a, T>);
        impl<T: Payload> MachineVisitor<T> for Visit<'_, T> {
            type Out = Result<(Cost, u64), WorkloadError>;
            fn visit<M: WorkloadMachine<T>>(self, mut m: M) -> Self::Out {
                let v = (self.0)(&mut m)?;
                Ok((m.cost(), v.checksum))
            }
        }
        visit_backend(self.backend, ctx.cfg, Visit(body))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_kind_has_a_wellformed_descriptor() {
        let cfg = AemConfig::new(1024, 64, 16).unwrap();
        for kind in WorkloadKind::ALL {
            let w = kind.descriptor();
            assert_eq!(w.kind, kind);
            assert_eq!(WorkloadKind::from_name(w.name).unwrap(), kind);
            assert!(!w.algos.is_empty(), "{kind}: no algorithms");
            assert!(w.algo(w.default_algo).is_some(), "{kind}: bad default");
            assert!(!w.gate_shapes.is_empty(), "{kind}: no gate shapes");
            let (n, d) = w.gate_shapes[0];
            assert!(w.validate(n, d).is_ok());
            assert!(!w.menu(cfg, n, d).is_empty(), "{kind}: empty menu");
            for a in w.algos {
                assert!(a.ghost_runnable || !a.ghost_sound, "{kind}/{}", a.name);
                assert!(
                    a.ghost_runnable || !a.ghost_note.is_empty(),
                    "{kind}/{}: refusal needs a note",
                    a.name
                );
            }
        }
        assert!(WorkloadKind::from_name("nope").is_err());
    }

    #[test]
    fn menus_match_the_historical_candidate_lists() {
        let cfg = AemConfig::new(1024, 64, 16).unwrap();
        let names = |k: WorkloadKind| -> Vec<&'static str> {
            k.descriptor()
                .menu(cfg, 2048, 3)
                .into_iter()
                .map(|(n, _)| n)
                .collect()
        };
        assert_eq!(names(WorkloadKind::Sort), vec!["aem", "em", "pq"]);
        assert_eq!(names(WorkloadKind::Permute), vec!["naive", "by-sort"]);
        assert_eq!(names(WorkloadKind::Spmv), vec!["direct", "sorted"]);
        assert_eq!(names(WorkloadKind::Pq), vec!["pq"]);
        assert_eq!(
            names(WorkloadKind::Search),
            vec!["binary", "btree", "eytzinger"]
        );
        assert_eq!(
            names(WorkloadKind::Scan),
            vec!["materialize", "tree", "rescan"]
        );
        assert_eq!(names(WorkloadKind::Matmul), vec!["tiled", "stream"]);
        assert_eq!(names(WorkloadKind::Bfs), vec!["mark", "rescan"]);
        // The PQ sorter leaves the menu when the config rejects it.
        let tiny = AemConfig::new(16, 4, 2).unwrap();
        assert!(!SORT
            .menu(tiny, 2048, 3)
            .iter()
            .any(|&(name, _)| name == "pq"));
        // Marking BFS needs M >= 4B; at M = 2B only the re-scan remains.
        let twob = AemConfig::new(16, 8, 2).unwrap();
        let bfs_menu = BFS.menu(twob, 2048, 3);
        assert_eq!(bfs_menu.len(), 1);
        assert_eq!(bfs_menu[0].0, "rescan");
    }

    #[test]
    fn aliases_resolve_old_record_spellings() {
        assert_eq!(SORT.algo("merge").unwrap().name, "aem");
        assert_eq!(PERMUTE.algo("by_sort").unwrap().name, "by-sort");
        assert_eq!(PERMUTE.algo("sort").unwrap().name, "by-sort");
        assert_eq!(SCAN.algo("classic").unwrap().name, "materialize");
        assert_eq!(SCAN.algo("sum_tree").unwrap().name, "tree");
        assert_eq!(MATMUL.algo("write_avoiding").unwrap().name, "tiled");
        assert_eq!(MATMUL.algo("streaming").unwrap().name, "stream");
        assert!(SORT.algo("quick").is_none());
    }

    #[test]
    fn validity_is_centralized() {
        assert!(SPMV.validate(64, 0).is_err());
        assert!(SEARCH.validate(64, 0).is_err());
        assert!(SCAN.validate(64, 0).is_err());
        assert!(BFS.validate(64, 0).is_err());
        assert!(MATMUL.validate(64, 0).is_ok());
        assert!(SORT.validate(64, 0).is_ok());
        assert!(SORT.validate(0, 3).is_err());
    }

    #[test]
    fn live_harness_runs_every_kind_and_verifies() {
        for kind in WorkloadKind::ALL {
            let w = kind.descriptor();
            let cfg = AemConfig::new(64, 8, 16).unwrap();
            let ctx =
                RunCtx::new(kind, w.default_algo, cfg, 300, w.default_delta.max(3), 5).unwrap();
            let mut h = LiveHarness {
                backend: Backend::Vec,
            };
            let (cost, checksum) = run_workload(&ctx, &mut h).unwrap();
            assert!(cost.total_ios() > 0, "{kind}");
            assert_ne!(checksum, 0, "{kind}");
        }
    }

    #[test]
    fn the_oracle_runs_beside_the_kernel_from_the_cut_off_up_and_never_on_ghost() {
        use std::sync::Mutex;
        use std::thread::{self, ThreadId};
        let cfg = AemConfig::new(64, 8, 16).unwrap();
        let here = thread::current().id();
        // The outcome, and the thread the oracle ran on (`None`: never).
        let probe = |m: &mut dyn WorkloadMachine<u64>, n: usize| {
            let ran: Mutex<Option<ThreadId>> = Mutex::new(None);
            let res = verify(
                m,
                n,
                |m| Ok(m.install_atoms(&[1, 2, 3])),
                |m, r| m.inspect_region(r),
                || {
                    *ran.lock().unwrap() = Some(thread::current().id());
                    vec![1, 2, 3]
                },
                "probe",
            );
            (res.unwrap(), ran.into_inner().unwrap())
        };
        let hashed = Verified::hashed(fnv1a([1, 2, 3]));
        for n in [1, ORACLE_BESIDE_MIN_N - 1] {
            let (v, ran) = probe(&mut Machine::<u64>::new(cfg), n);
            assert_eq!((v, ran), (hashed, Some(here)), "n = {n}");
        }
        for n in [ORACLE_BESIDE_MIN_N, 1 << 20] {
            let (v, ran) = probe(&mut Machine::<u64>::new(cfg), n);
            assert_eq!(v, hashed, "n = {n}");
            assert!(ran.is_some() && ran != Some(here), "n = {n}: {ran:?}");
        }
        for n in [1, ORACLE_BESIDE_MIN_N] {
            let (v, ran) = probe(&mut GhostMachine::<u64>::new(cfg), n);
            assert_eq!((v, ran), (Verified::unverified(), None), "n = {n}");
        }
    }

    #[test]
    fn both_verify_paths_fail_alike() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let cfg = AemConfig::new(64, 8, 16).unwrap();
        for n in [1, ORACLE_BESIDE_MIN_N] {
            let mut m = Machine::<u64>::new(cfg);
            // A kernel error wins, even over an oracle that panicked
            // beside it.
            let res = verify(
                &mut m,
                n,
                |_| Err::<Region, _>(MachineError::InvalidConfig("probe")),
                |m, r| m.inspect_region(r),
                || panic!("oracle beside a failed kernel"),
                "probe",
            );
            assert!(
                matches!(
                    res,
                    Err(WorkloadError::Machine(MachineError::InvalidConfig("probe")))
                ),
                "n = {n}: {res:?}"
            );
            let res = verify(
                &mut m,
                n,
                |m| Ok(m.install_atoms(&[1])),
                |m, r| m.inspect_region(r),
                || vec![2],
                "probe: mismatch",
            );
            assert!(
                matches!(&res, Err(WorkloadError::Check(msg)) if msg == "probe: mismatch"),
                "n = {n}: {res:?}"
            );
            let panicked = catch_unwind(AssertUnwindSafe(|| {
                verify(
                    &mut m,
                    n,
                    |m| Ok(m.install_atoms(&[1])),
                    |m, r| m.inspect_region(r),
                    || panic!("oracle probe"),
                    "probe",
                )
            }))
            .unwrap_err();
            assert_eq!(panicked.downcast_ref::<&str>(), Some(&"oracle probe"));
        }
    }

    #[test]
    fn ghost_soundness_is_enforced_by_the_live_harness() {
        let cfg = AemConfig::new(64, 8, 16).unwrap();
        let mut ghost = LiveHarness {
            backend: Backend::Ghost,
        };
        let sort = RunCtx::new(WorkloadKind::Sort, "aem", cfg, 128, 0, 1).unwrap();
        assert!(matches!(
            run_workload(&sort, &mut ghost),
            Err(WorkloadError::Check(_))
        ));
        // Data-routed BFS refuses ghost in both directions.
        let bfs = RunCtx::new(WorkloadKind::Bfs, "mark", cfg, 128, 3, 1).unwrap();
        assert!(matches!(
            run_workload(&bfs, &mut ghost),
            Err(WorkloadError::Check(_))
        ));
        // Ghost-sound algorithms price exactly on ghost, on every input:
        // naive permute, the fixed-schedule search layouts, the whole scan
        // family, and both matmul tilings (position-routed schedules).
        let mut vec = LiveHarness {
            backend: Backend::Vec,
        };
        let mut pairs = 0;
        for kind in WorkloadKind::ALL {
            let w = kind.descriptor();
            for a in w.algos.iter().filter(|a| a.ghost_sound) {
                for input in w.inputs {
                    let ctx = RunCtx::new(kind, a.name, cfg, 256, w.default_delta.min(16), 1)
                        .and_then(|c| c.with_input(input))
                        .unwrap();
                    let (gcost, gsum) = run_workload(&ctx, &mut ghost).unwrap();
                    let (vcost, _) = run_workload(&ctx, &mut vec).unwrap();
                    let at = format!("{kind}/{}/{input}", a.name);
                    assert_eq!(gcost, vcost, "{at}: ghost must price exactly");
                    assert_eq!(gsum, 0, "{at}: ghost output is unverified");
                    pairs += 1;
                }
            }
        }
        // permute/naive on its five inputs; search x2, scan x3 and
        // matmul x2 on their one input each.
        assert_eq!(pairs, 5 + 2 + 3 + 2);
    }

    #[test]
    fn inputs_resolve_default_first_and_refuse_invalid_shapes() {
        let cfg = AemConfig::new(64, 8, 16).unwrap();
        for kind in WorkloadKind::ALL {
            let w = kind.descriptor();
            let ctx =
                RunCtx::new(kind, w.default_algo, cfg, 256, w.default_delta.max(1), 1).unwrap();
            assert_eq!(ctx.input, w.inputs[0], "{kind}");
            for input in w.inputs {
                assert_eq!(ctx.with_input(input).unwrap().input, *input);
            }
            assert!(ctx.with_input("nope").is_err(), "{kind}");
        }
        let permute = RunCtx::new(WorkloadKind::Permute, "naive", cfg, 1000, 0, 1).unwrap();
        let err = permute.with_input("bit-reversal").unwrap_err();
        assert!(err.contains("power of two"), "{err}");
        assert!(permute.with_input("transpose").is_ok());
        let spmv = RunCtx::new(WorkloadKind::Spmv, "direct", cfg, 19, 4, 1).unwrap();
        assert!(spmv.with_input("block-diagonal").is_err());
        assert!(spmv.with_input("banded").is_ok());
    }

    #[test]
    fn lower_bound_is_theorem_4_5_for_the_permuting_kinds_only() {
        let cfg = AemConfig::new(64, 8, 16).unwrap();
        for kind in WorkloadKind::ALL {
            let lb = kind.descriptor().lower_bound(cfg, 4096);
            match kind {
                WorkloadKind::Sort | WorkloadKind::Permute | WorkloadKind::Pq => {
                    assert_eq!(lb, Some(permute_cost_lower_bound(4096, cfg)), "{kind}")
                }
                _ => assert_eq!(lb, None, "{kind}"),
            }
        }
    }

    #[test]
    fn predictors_are_monotone_in_n_and_omega_on_gate_shapes() {
        // Sanity properties every registered predictor must satisfy on
        // its own gate shapes: (a) pricing a fixed predicted schedule at
        // a higher ω never gets cheaper; (b) predictors whose schedule
        // is ω-oblivious (the same (reads, writes) at every ω — all of
        // scan, matmul, bfs, search, permute) are fully monotone in ω
        // (plain cross-ω monotonicity is false for ω-adaptive schedules
        // like the ωm-way mergesort, whose fan-in grows with ω); (c)
        // doubling n never shrinks the bound.
        for kind in WorkloadKind::ALL {
            let w = kind.descriptor();
            for &(n, d) in w.gate_shapes {
                for a in w.algos {
                    for &(mem, block) in &[(1024usize, 64usize), (64, 8)] {
                        let at = |omega: u64, n: usize| {
                            (a.predict)(AemConfig::new(mem, block, omega).unwrap(), n, d)
                        };
                        let omegas = [1u64, 4, 16, 64, 256];
                        for pair in omegas.windows(2) {
                            let (wl, wh) = (pair[0], pair[1]);
                            if let (Some(lo), Some(hi)) = (at(wl, n), at(wh, n)) {
                                assert!(
                                    lo.q(wh) >= lo.q(wl),
                                    "{kind}/{}: repricing at higher omega got cheaper",
                                    a.name,
                                );
                                if lo == hi {
                                    assert!(
                                        hi.q(wh) >= lo.q(wl),
                                        "{kind}/{}: Q must be monotone in omega for an \
                                         omega-oblivious schedule",
                                        a.name,
                                    );
                                }
                            }
                        }
                        if let (Some(small), Some(big)) = (at(16, n), at(16, 2 * n)) {
                            assert!(
                                big.q(16) >= small.q(16),
                                "{kind}/{}: Q must be monotone in n",
                                a.name,
                            );
                        }
                    }
                }
            }
        }
    }
}
