//! Per-tenant budget admission control.
//!
//! Every job arrives priced (the planner's predicted `Q`); admission
//! debits the *predicted* cost against the tenant's budget before
//! execution — predicted costs are deterministic integers, so the
//! accept/reject/queue stream for a tenant depends only on that tenant's
//! own request order, never on scheduling. That is what makes the
//! admission log reproducible: each decision carries a per-tenant
//! sequence number, and [`Admission::log_jsonl`] emits the log sorted by
//! `(tenant, seq)`, so two same-seed load runs produce byte-identical
//! files no matter how the OS interleaved the connections.

use crate::protocol::JobSpec;
use aem_obs::json::Field;
use aem_obs::json_table;
use std::collections::BTreeMap;
use std::sync::Mutex;

json_table! {
    /// What the controller decided for one priced job.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Decision: "decision" {
        /// Budget covers it: debited and dispatched.
        Accept = "accept",
        /// Budget does not cover it and queueing is off (or the spec was
        /// invalid, see the entry's reason).
        Reject = "reject",
        /// Parked until a top-up covers it (FIFO per tenant).
        Queue = "queue",
        /// A previously queued job admitted by a top-up.
        Drain = "drain",
    }
}

json_table! {
    /// One admission-log record.
    #[derive(Debug, Clone)]
    pub struct LogEntry {
        /// Tenant name.
        pub tenant: String,
        /// Per-tenant decision sequence number (0, 1, 2, ...).
        pub seq: u64,
        /// The job id the decision is about (or 0 for hello records).
        pub job_id: u64,
        /// `"hello"` or the job kind.
        pub kind: String,
        /// Input size (0 for hello records).
        pub n: u64,
        /// The decision (hello records use `Accept`).
        pub decision: Decision = flat,
        /// Why, when not simply affordable (`""`, `"over_budget"`,
        /// `"bad_request: ..."`).
        pub reason: String,
        /// The priced `Q` (for hello: the budget added).
        pub q: u64,
        /// Budget minus spend after this decision.
        pub remaining: u64,
    }
}

/// A job parked until the tenant can afford it.
#[derive(Debug, Clone)]
pub struct QueuedJob {
    /// The original spec (re-planned at drain; planning is deterministic).
    pub spec: JobSpec,
    /// Its priced `Q`.
    pub q: u64,
}

#[derive(Debug, Default)]
struct TenantState {
    budget: u64,
    spent: u64,
    seq: u64,
    accepted: u64,
    rejected: u64,
    queued: Vec<QueuedJob>,
}

/// A tenant's admission counters, as exposed by stats responses.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TenantSnapshot {
    /// Cumulative budget granted.
    pub budget: u64,
    /// Predicted `Q` debited so far.
    pub spent: u64,
    /// Jobs accepted (including drained).
    pub accepted: u64,
    /// Jobs rejected.
    pub rejected: u64,
    /// Jobs currently parked.
    pub queued: u64,
}

/// The admission controller: budgets, the parked-job queues and the log.
#[derive(Debug, Default)]
pub struct Admission {
    queue_over_budget: bool,
    tenants: Mutex<BTreeMap<String, TenantState>>,
    log: Mutex<Vec<LogEntry>>,
}

impl Admission {
    /// A controller. With `queue_over_budget`, unaffordable jobs park in
    /// a per-tenant FIFO instead of being rejected.
    pub fn new(queue_over_budget: bool) -> Self {
        Admission {
            queue_over_budget,
            ..Admission::default()
        }
    }

    /// Register or top up `tenant` by `budget` units, then drain every
    /// parked job the new budget covers (FIFO — an unaffordable head
    /// blocks the tail, which keeps per-tenant order deterministic).
    /// Returns the cumulative budget and the drained jobs to execute.
    pub fn hello(&self, tenant: &str, budget: u64) -> (u64, Vec<QueuedJob>) {
        let mut tenants = self.tenants.lock().expect("admission poisoned");
        let st = tenants.entry(tenant.to_string()).or_default();
        st.budget = st.budget.saturating_add(budget);
        let seq = st.seq;
        st.seq += 1;
        let mut entries = vec![LogEntry {
            tenant: tenant.to_string(),
            seq,
            job_id: 0,
            kind: "hello".into(),
            n: 0,
            decision: Decision::Accept,
            reason: String::new(),
            q: budget,
            remaining: st.budget - st.spent.min(st.budget),
        }];
        let mut drained = Vec::new();
        while let Some(front) = st.queued.first() {
            if st.spent.saturating_add(front.q) > st.budget {
                break;
            }
            let job = st.queued.remove(0);
            st.spent += job.q;
            st.accepted += 1;
            let seq = st.seq;
            st.seq += 1;
            entries.push(LogEntry {
                tenant: tenant.to_string(),
                seq,
                job_id: job.spec.id,
                kind: job.spec.kind.name().into(),
                n: job.spec.n as u64,
                decision: Decision::Drain,
                reason: String::new(),
                q: job.q,
                remaining: st.budget - st.spent,
            });
            drained.push(job);
        }
        let total = st.budget;
        drop(tenants);
        self.log
            .lock()
            .expect("admission log poisoned")
            .extend(entries);
        (total, drained)
    }

    /// Decide one priced job. On `Accept` the budget is debited before
    /// this returns, so concurrent admits can never jointly overspend.
    /// While jobs are parked, new affordable jobs queue *behind* them —
    /// strict per-tenant FIFO, no jumping the line. Returns the decision
    /// and the tenant's remaining budget.
    pub fn admit(&self, tenant: &str, spec: &JobSpec, q: u64) -> (Decision, u64) {
        let mut tenants = self.tenants.lock().expect("admission poisoned");
        let st = tenants.entry(tenant.to_string()).or_default();
        let affordable = st.spent.saturating_add(q) <= st.budget;
        let decision = if st.queued.is_empty() && affordable {
            st.spent += q;
            st.accepted += 1;
            Decision::Accept
        } else if self.queue_over_budget {
            st.queued.push(QueuedJob {
                spec: spec.clone(),
                q,
            });
            Decision::Queue
        } else {
            st.rejected += 1;
            Decision::Reject
        };
        let remaining = st.budget.saturating_sub(st.spent);
        let entry = LogEntry {
            tenant: tenant.to_string(),
            seq: st.seq,
            job_id: spec.id,
            kind: spec.kind.name().into(),
            n: spec.n as u64,
            decision,
            reason: if decision == Decision::Accept {
                String::new()
            } else if affordable {
                "behind_queue".into()
            } else {
                "over_budget".into()
            },
            q,
            remaining,
        };
        st.seq += 1;
        drop(tenants);
        self.log.lock().expect("admission log poisoned").push(entry);
        (decision, remaining)
    }

    /// Record the rejection of a job whose spec could not even be priced.
    pub fn reject_invalid(&self, tenant: &str, spec: &JobSpec, reason: &str) -> u64 {
        let mut tenants = self.tenants.lock().expect("admission poisoned");
        let st = tenants.entry(tenant.to_string()).or_default();
        st.rejected += 1;
        let remaining = st.budget.saturating_sub(st.spent);
        let entry = LogEntry {
            tenant: tenant.to_string(),
            seq: st.seq,
            job_id: spec.id,
            kind: spec.kind.name().into(),
            n: spec.n as u64,
            decision: Decision::Reject,
            reason: format!("bad_request: {reason}"),
            q: 0,
            remaining,
        };
        st.seq += 1;
        drop(tenants);
        self.log.lock().expect("admission log poisoned").push(entry);
        remaining
    }

    /// This tenant's admission counters.
    pub fn snapshot(&self, tenant: &str) -> TenantSnapshot {
        let tenants = self.tenants.lock().expect("admission poisoned");
        tenants
            .get(tenant)
            .map(|st| TenantSnapshot {
                budget: st.budget,
                spent: st.spent,
                accepted: st.accepted,
                rejected: st.rejected,
                queued: st.queued.len() as u64,
            })
            .unwrap_or_default()
    }

    /// The canonical admission log: JSONL sorted by `(tenant, seq)`.
    /// Byte-identical across same-seed runs regardless of scheduling.
    pub fn log_jsonl(&self) -> String {
        let mut entries = self.log.lock().expect("admission log poisoned").clone();
        entries.sort_by(|a, b| (a.tenant.as_str(), a.seq).cmp(&(b.tenant.as_str(), b.seq)));
        let mut out = String::new();
        for e in &entries {
            out.push_str(&e.to_json().to_string_compact());
            out.push('\n');
        }
        out
    }

    /// Number of decisions logged so far.
    pub fn decisions(&self) -> usize {
        self.log.lock().expect("admission log poisoned").len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::JobKind;

    fn spec(id: u64) -> JobSpec {
        JobSpec {
            id,
            kind: JobKind::Sort,
            n: 64,
            mem: 64,
            block: 8,
            omega: 16,
            delta: 0,
            seed: 1,
            payload: false,
            backend: None,
        }
    }

    #[test]
    fn accept_debits_and_reject_does_not() {
        let adm = Admission::new(false);
        adm.hello("t", 100);
        let (d1, rem1) = adm.admit("t", &spec(1), 60);
        assert_eq!((d1, rem1), (Decision::Accept, 40));
        let (d2, rem2) = adm.admit("t", &spec(2), 41);
        assert_eq!((d2, rem2), (Decision::Reject, 40));
        let snap = adm.snapshot("t");
        assert_eq!((snap.spent, snap.accepted, snap.rejected), (60, 1, 1));
    }

    #[test]
    fn queue_then_topup_drains_fifo() {
        let adm = Admission::new(true);
        adm.hello("t", 50);
        assert_eq!(adm.admit("t", &spec(1), 40).0, Decision::Accept);
        assert_eq!(adm.admit("t", &spec(2), 30).0, Decision::Queue);
        assert_eq!(adm.admit("t", &spec(3), 5).0, Decision::Queue); // behind the head
        let (total, drained) = adm.hello("t", 100);
        assert_eq!(total, 150);
        let ids: Vec<u64> = drained.iter().map(|j| j.spec.id).collect();
        assert_eq!(ids, vec![2, 3], "FIFO drain order");
        assert_eq!(adm.snapshot("t").spent, 75);
    }

    #[test]
    fn unregistered_tenant_has_zero_budget() {
        let adm = Admission::new(false);
        let (d, rem) = adm.admit("ghost-tenant", &spec(1), 1);
        assert_eq!((d, rem), (Decision::Reject, 0));
    }

    #[test]
    fn log_is_sorted_by_tenant_then_seq() {
        let adm = Admission::new(false);
        adm.hello("b", 100);
        adm.hello("a", 100);
        adm.admit("b", &spec(1), 10);
        adm.admit("a", &spec(1), 10);
        adm.reject_invalid("a", &spec(2), "n must be positive");
        let log = adm.log_jsonl();
        let tenants: Vec<&str> = log
            .lines()
            .map(|l| {
                let j = aem_obs::json::parse(l).unwrap();
                if j.get("tenant").and_then(aem_obs::json::Json::as_str) == Some("a") {
                    "a"
                } else {
                    "b"
                }
            })
            .collect();
        assert_eq!(tenants, vec!["a", "a", "a", "b", "b"]);
        assert!(log.contains("bad_request: n must be positive"));
    }
}
