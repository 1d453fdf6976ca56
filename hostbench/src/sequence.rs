//! Seeded request sequences for the two serving workloads.
//!
//! Each of the two tenants sends one fixed *pass* of requests, repeated
//! for the whole run. The pass is a pure function of `--seed` and the
//! tenant index, so the tail percentile always falls on the same jobs.
//!
//! The seed changes only the order of the requests, never the jobs
//! themselves: every job's instance seed is fixed by its tenant, kind and
//! size. A pass therefore holds the same work under every seed, host time
//! compares across seeds, and the simulated totals of a pass (which do
//! not depend on the order) are one pinned row per workload.

use aem_core::workload::WorkloadKind as JobKind;
use aem_serve::planner;
use aem_serve::protocol::{encode_frame, JobSpec, Request};
use aem_workloads::SplitMix64;

/// Tenant names, one connection each.
pub const TENANTS: [&str; 2] = ["t0", "t1"];

/// The load generator's machine shapes `(M, B, ω)`.
pub const SERVE_CONFIGS: [(usize, usize, u64); 3] = [(1024, 64, 16), (64, 8, 16), (512, 32, 4)];

/// serve-payload sizes: 3072 runs on vec, the rest reach
/// `planner::ARENA_THRESHOLD` (4096) and run on arena.
pub const PAYLOAD_SIZES: [usize; 4] = [3072, 4096, 8192, 16384];

/// serve-priced sizes (`n ≤ 1024`).
pub const PRICED_SIZES: [usize; 3] = [256, 512, 1024];

/// Instance seeds `r + 60·x` with `r ≡ 7 (mod 12)` give random graphs and
/// random scan values; `r mod 5` picks the sort-key family.
const RESIDUES: [u64; 5] = [7, 19, 31, 43, 55];

/// The fixed instance seed of a job: one per (tenant, kind, size), so no
/// two tenants share a cell.
fn instance_seed(t: usize, kind: usize, size: usize, residue: u64) -> u64 {
    residue + 60 * (1 + (t * 64 + kind * 8 + size) as u64)
}

/// serve-payload request grouping: 1 = a `job`, k > 1 = a `batch` of k.
const PAYLOAD_GROUPS: [usize; 5] = [1, 1, 2, 1, 3];

/// One repeat unit of a serve-priced pass (`J` job, `Q` quote, `2`/`3`
/// batch of that many jobs): 16 jobs in 13 requests.
const PRICED_UNIT: &[u8] = b"J2QJJ3QJ2JQ3J";

/// Index (among the pass's requests) of the second budget top-up.
const PRICED_TOPUP_AT: usize = 21;

/// A serving workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Serving {
    Payload,
    Priced,
}

impl Serving {
    pub fn name(self) -> &'static str {
        match self {
            Serving::Payload => "serve-payload",
            Serving::Priced => "serve-priced",
        }
    }
}

/// One tenant's script: the set-up hello, then the repeated pass.
#[derive(Debug, Clone)]
pub struct TenantPlan {
    pub name: &'static str,
    pub setup_budget: u64,
    pub pass: Vec<Request>,
}

impl TenantPlan {
    pub fn hello(&self) -> Request {
        Request::Hello {
            tenant: self.name.to_string(),
            budget: self.setup_budget,
        }
    }

    /// The pass as wire frames, in order.
    pub fn frames(&self) -> Vec<Vec<u8>> {
        self.pass
            .iter()
            .map(|r| encode_frame(&r.to_json()))
            .collect()
    }

    /// Every job spec the pass submits, in submission order.
    pub fn jobs(&self) -> impl Iterator<Item = &JobSpec> {
        self.pass.iter().flat_map(|r| match r {
            Request::Job(s) => std::slice::from_ref(s),
            Request::Batch(v) => v.as_slice(),
            _ => &[],
        })
    }

    /// Operations one pass attempts: every job, quote and hello.
    pub fn operations(&self) -> u64 {
        self.pass
            .iter()
            .map(|r| match r {
                Request::Batch(v) => v.len() as u64,
                _ => 1,
            })
            .sum()
    }
}

fn tenant_rng(seed: u64, salt: u64, tenant: usize) -> SplitMix64 {
    SplitMix64::seed_from_u64(
        seed ^ salt ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(tenant as u64 + 1),
    )
}

/// Both tenants' scripts for `w` under `seed`.
pub fn plans(w: Serving, seed: u64) -> Vec<TenantPlan> {
    (0..TENANTS.len())
        .map(|t| match w {
            Serving::Payload => payload_plan(seed, t),
            Serving::Priced => priced_plan(seed, t),
        })
        .collect()
}

fn payload_plan(seed: u64, t: usize) -> TenantPlan {
    let mut jobs = Vec::new();
    for (k, &kind) in JobKind::ALL.iter().enumerate() {
        for (s, &n) in PAYLOAD_SIZES.iter().enumerate() {
            let (mem, block, omega) = SERVE_CONFIGS[(k + s + t) % SERVE_CONFIGS.len()];
            jobs.push(JobSpec {
                id: 0,
                kind,
                n,
                mem,
                block,
                omega,
                delta: 2 + (k + s) % 3,
                seed: instance_seed(t, k, s, RESIDUES[(s + t) % RESIDUES.len()]),
                payload: true,
                backend: None,
            });
        }
    }
    // Which jobs share a batch decides how long the other tenant's jobs
    // wait for a worker, so the grouping is the same for every seed; the
    // seed orders the requests.
    tenant_rng(0, 0x5E2F_0000_0000_0003, t).shuffle(&mut jobs);
    let mut pass = Vec::new();
    let mut rest = jobs.as_slice();
    for &g in PAYLOAD_GROUPS.iter().cycle() {
        if rest.is_empty() {
            break;
        }
        let (head, tail) = rest.split_at(g.min(rest.len()));
        pass.push(if head.len() == 1 {
            Request::Job(head[0].clone())
        } else {
            Request::Batch(head.to_vec())
        });
        rest = tail;
    }
    tenant_rng(seed, 0x5E2F_0000_0000_0001, t).shuffle(&mut pass);
    let mut id = 0;
    for r in &mut pass {
        let specs = match r {
            Request::Job(s) => std::slice::from_mut(s),
            Request::Batch(v) => v.as_mut_slice(),
            _ => &mut [],
        };
        for s in specs {
            id += 1;
            s.id = id;
        }
    }
    TenantPlan {
        name: TENANTS[t],
        // Ample: a pass debits well under 2^32, so no run comes near it.
        setup_budget: 1 << 60,
        pass,
    }
}

fn priced_plan(seed: u64, t: usize) -> TenantPlan {
    let mut rng = tenant_rng(seed, 0x5E2F_0000_0000_0002, t);
    // One cell per kind; the two tenants' instance seeds differ, so they
    // never race to compile the same replay cell.
    let cells: Vec<JobSpec> = JobKind::ALL
        .iter()
        .enumerate()
        .map(|(k, &kind)| {
            let (mem, block, omega) = SERVE_CONFIGS[(k + 2 * t) % SERVE_CONFIGS.len()];
            JobSpec {
                id: 0,
                kind,
                n: PRICED_SIZES[(k + t) % PRICED_SIZES.len()],
                mem,
                block,
                omega,
                delta: 2 + k % 3,
                seed: instance_seed(t, k, 0, RESIDUES[(k + t) % RESIDUES.len()]),
                payload: false,
                backend: None,
            }
        })
        .collect();
    // Every cell four times per pass, in seeded order.
    let mut slots: Vec<usize> = (0..4 * cells.len()).map(|i| i % cells.len()).collect();
    rng.shuffle(&mut slots);
    let mut next_id = 1u64;
    let mut spec = |cell: usize| {
        let mut s = cells[cell].clone();
        s.id = next_id;
        next_id += 1;
        s
    };
    let mut body = Vec::new();
    let mut slot = slots.into_iter();
    for &c in PRICED_UNIT.iter().chain(PRICED_UNIT) {
        body.push(match c {
            b'J' => Request::Job(spec(slot.next().expect("32 job slots"))),
            b'Q' => Request::Quote(spec(rng.next_below_usize(cells.len()))),
            k => {
                let k = (k - b'0') as usize;
                Request::Batch(
                    (0..k)
                        .map(|_| spec(slot.next().expect("32 job slots")))
                        .collect(),
                )
            }
        });
    }
    // Budget: the opening top-up covers the first half of the jobs sent
    // before the second top-up, so the rest of them queue (FIFO: the first
    // unaffordable job blocks the ones behind it); the second top-up
    // covers the pass in full and drains the queue. Each pass thus spends
    // exactly what it grants and the next starts from the same state, and
    // the decision counts do not depend on the seeded order.
    let q = |s: &JobSpec| planner::plan(s).expect("sequence specs are valid").q;
    let body_jobs = |reqs: &[Request]| -> Vec<u64> {
        reqs.iter()
            .flat_map(|r| match r {
                Request::Job(s) => vec![q(s)],
                Request::Batch(v) => v.iter().map(q).collect(),
                _ => vec![],
            })
            .collect()
    };
    let before = body_jobs(&body[..PRICED_TOPUP_AT - 1]);
    let total: u64 = body_jobs(&body).iter().sum();
    let first: u64 = before[..before.len() / 2].iter().sum();
    let hello = |budget| Request::Hello {
        tenant: TENANTS[t].to_string(),
        budget,
    };
    let mut pass = vec![hello(first)];
    pass.extend(body);
    pass.insert(PRICED_TOPUP_AT, hello(total - first));
    TenantPlan {
        name: TENANTS[t],
        setup_budget: 0,
        pass,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aem_machine::Backend;
    use std::collections::BTreeSet;

    fn bytes(w: Serving, seed: u64) -> Vec<u8> {
        plans(w, seed)
            .iter()
            .flat_map(|p| {
                let mut all = encode_frame(&p.hello().to_json());
                all.extend(p.frames().concat());
                all
            })
            .collect()
    }

    #[test]
    fn sequences_are_byte_identical_for_equal_seeds_and_differ_otherwise() {
        for w in [Serving::Payload, Serving::Priced] {
            assert_eq!(bytes(w, 7), bytes(w, 7), "{}", w.name());
            assert_ne!(bytes(w, 7), bytes(w, 8), "{}", w.name());
        }
    }

    #[test]
    fn passes_hold_the_same_jobs_for_every_seed() {
        let jobs = |w, seed| {
            plans(w, seed)
                .iter()
                .map(|p| {
                    let mut v: Vec<_> = p
                        .jobs()
                        .map(|s| (s.kind, s.n, s.mem, s.block, s.omega, s.delta, s.seed))
                        .collect();
                    v.sort();
                    (p.pass.len(), p.operations(), v)
                })
                .collect::<Vec<_>>()
        };
        for w in [Serving::Payload, Serving::Priced] {
            assert_eq!(jobs(w, 1), jobs(w, 99), "{}", w.name());
        }
        // serve-payload's batches hold the same jobs under every seed.
        let requests = |seed| {
            let mut v: Vec<Vec<_>> = plans(Serving::Payload, seed)
                .iter()
                .flat_map(|p| p.pass.iter())
                .map(|r| {
                    let mut specs: Vec<JobSpec> = match r {
                        Request::Job(s) => vec![s.clone()],
                        Request::Batch(v) => v.clone(),
                        _ => vec![],
                    };
                    specs.iter_mut().for_each(|s| s.id = 0);
                    specs
                        .into_iter()
                        .map(|s| Request::Job(s).to_json().to_string_compact())
                        .collect()
                })
                .collect();
            v.sort();
            v
        };
        assert_eq!(requests(1), requests(99));
    }

    #[test]
    fn serve_payload_covers_every_kind_on_both_sides_of_the_arena_threshold() {
        for seed in [0, 1, 2, 1234] {
            for p in plans(Serving::Payload, seed) {
                let kinds: BTreeSet<_> = p.jobs().map(|s| s.kind).collect();
                assert_eq!(kinds.len(), JobKind::ALL.len());
                let backends: BTreeSet<_> = p
                    .jobs()
                    .map(|s| planner::plan(s).unwrap().backend.name())
                    .collect();
                assert!(backends.contains(Backend::Vec.name()), "{backends:?}");
                assert!(backends.contains(Backend::Arena.name()), "{backends:?}");
                assert!(p.jobs().all(|s| s.payload));
                assert!(p.jobs().any(|s| s.n < planner::ARENA_THRESHOLD));
                assert!(p.jobs().any(|s| s.n >= planner::ARENA_THRESHOLD));
            }
        }
    }

    #[test]
    fn serve_priced_tenants_never_share_a_cell() {
        let cells = |p: &TenantPlan| -> BTreeSet<_> {
            p.jobs()
                .map(|s| (s.kind, s.n, s.mem, s.block, s.omega, s.delta, s.seed))
                .collect()
        };
        let ps = plans(Serving::Priced, 5);
        assert!(cells(&ps[0]).is_disjoint(&cells(&ps[1])));
        assert!(ps
            .iter()
            .all(|p| p.jobs().all(|s| !s.payload && s.n <= 1024)));
    }
}
