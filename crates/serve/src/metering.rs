//! Per-tenant metering: measured I/O, spend and job counters, exported as
//! JSONL (one record per tenant, sorted) and as a Prometheus text
//! exposition through [`aem_obs::promtext`].

use aem_machine::Cost;
use aem_obs::json::{Json, Table};
use aem_obs::json_table;
use aem_obs::promtext::PromText;
use std::collections::BTreeMap;
use std::sync::Mutex;

json_table! {
    /// One tenant's meters.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct TenantMeter {
        /// Jobs executed to completion.
        pub jobs_done: u64,
        /// Jobs whose cost came from compiled-trace replay.
        pub replays: u64,
        /// Quotes served.
        pub quotes: u64,
        /// Measured read I/Os summed over completed jobs.
        pub reads: u64,
        /// Measured write I/Os summed over completed jobs.
        pub writes: u64,
        /// Measured `Q` summed under each job's own ω.
        pub q: u64,
    }
}

/// The metering registry. Tenant order is canonical (`BTreeMap`), so the
/// report is deterministic given deterministic per-tenant contents.
#[derive(Debug, Default)]
pub struct Metering {
    tenants: Mutex<BTreeMap<String, TenantMeter>>,
}

impl Metering {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one completed job.
    pub fn record_done(&self, tenant: &str, measured: Cost, q: u64, via_replay: bool) {
        let mut m = self.tenants.lock().expect("metering poisoned");
        let t = m.entry(tenant.to_string()).or_default();
        t.jobs_done += 1;
        t.replays += via_replay as u64;
        t.reads += measured.reads;
        t.writes += measured.writes;
        t.q = t.q.saturating_add(q);
    }

    /// Record one served quote.
    pub fn record_quote(&self, tenant: &str) {
        let mut m = self.tenants.lock().expect("metering poisoned");
        m.entry(tenant.to_string()).or_default().quotes += 1;
    }

    /// This tenant's meters (zeroes if never seen).
    pub fn snapshot(&self, tenant: &str) -> TenantMeter {
        self.tenants
            .lock()
            .expect("metering poisoned")
            .get(tenant)
            .copied()
            .unwrap_or_default()
    }

    /// JSONL metering report: one record per tenant, tenant-sorted.
    pub fn jsonl_report(&self) -> String {
        let tenants = self.tenants.lock().expect("metering poisoned");
        let mut out = String::new();
        for (name, t) in tenants.iter() {
            let rec = t.to_json_after("tenant", Json::Str(name.clone()));
            out.push_str(&rec.to_string_compact());
            out.push('\n');
        }
        out
    }

    /// Prometheus text exposition with a `tenant` label on every sample.
    pub fn prometheus_text(&self) -> String {
        let tenants = self.tenants.lock().expect("metering poisoned");
        let mut w = PromText::new(&[]);
        w.head("aem_serve_jobs_done_total", "counter", "Jobs executed");
        for (name, t) in tenants.iter() {
            w.gauge_u64(
                "aem_serve_jobs_done_total",
                &[("tenant", name.clone())],
                t.jobs_done,
            );
        }
        w.head(
            "aem_serve_replays_total",
            "counter",
            "Jobs priced by compiled-trace replay",
        );
        for (name, t) in tenants.iter() {
            w.gauge_u64(
                "aem_serve_replays_total",
                &[("tenant", name.clone())],
                t.replays,
            );
        }
        w.head("aem_serve_quotes_total", "counter", "Quotes served");
        for (name, t) in tenants.iter() {
            w.gauge_u64(
                "aem_serve_quotes_total",
                &[("tenant", name.clone())],
                t.quotes,
            );
        }
        w.head(
            "aem_serve_io_total",
            "counter",
            "Measured block I/Os by direction",
        );
        for (name, t) in tenants.iter() {
            w.gauge_u64(
                "aem_serve_io_total",
                &[("tenant", name.clone()), ("op", "read".to_string())],
                t.reads,
            );
            w.gauge_u64(
                "aem_serve_io_total",
                &[("tenant", name.clone()), ("op", "write".to_string())],
                t.writes,
            );
        }
        w.head(
            "aem_serve_q_total",
            "counter",
            "Measured cost Q = Q_r + omega*Q_w, summed per tenant",
        );
        for (name, t) in tenants.iter() {
            w.gauge_u64("aem_serve_q_total", &[("tenant", name.clone())], t.q);
        }
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reports_are_tenant_sorted_and_labelled() {
        let m = Metering::new();
        m.record_done("zeta", Cost::new(10, 2), 42, false);
        m.record_done("alpha", Cost::new(5, 1), 21, true);
        m.record_quote("alpha");
        let jsonl = m.jsonl_report();
        let first = jsonl.lines().next().unwrap();
        assert!(first.contains("\"alpha\""), "alpha sorts first: {first}");
        assert_eq!(jsonl.lines().count(), 2);
        let prom = m.prometheus_text();
        assert!(prom.contains("aem_serve_q_total{tenant=\"alpha\"} 21"));
        assert!(prom.contains("aem_serve_io_total{tenant=\"zeta\",op=\"write\"} 2"));
        assert!(prom.contains("aem_serve_replays_total{tenant=\"alpha\"} 1"));
        let snap = m.snapshot("alpha");
        assert_eq!((snap.jobs_done, snap.quotes, snap.q), (1, 1, 21));
        assert_eq!(m.snapshot("nobody"), TenantMeter::default());
    }
}
