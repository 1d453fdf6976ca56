//! The metric catalog: every metric the benchmark can print, with its
//! unit and direction, and the result line built from it.
//!
//! `BENCHMARK.json` at the repository root declares the same metrics; a
//! test keeps the two in step, and [`Report::to_line`] refuses to print a
//! metric the catalog does not name or to omit one it does.

use crate::sim;
use aem_core::workload::WorkloadKind;
use aem_machine::Backend;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One catalog entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub better: &'static str,
}

fn m(name: impl Into<String>, unit: &'static str, better: &'static str) -> Metric {
    Metric {
        name: name.into(),
        unit,
        better,
    }
}

/// End-to-end metrics, printed by every untraced run.
pub fn end_to_end() -> Vec<Metric> {
    vec![
        m("setup_s", "s", "lower"),
        m("requests_per_s", "1/s", "higher"),
        m("jobs_per_s", "1/s", "higher"),
        m("ios_per_s", "1/s", "higher"),
        m("latency_p50_ms", "ms", "lower"),
        m("latency_p99_ms", "ms", "lower"),
        m("peak_rss_mb", "MB", "lower"),
    ]
}

/// Backends whose host time per metered I/O is reported.
pub const IO_BACKENDS: [Backend; 4] =
    [Backend::Vec, Backend::Arena, Backend::Ghost, Backend::Trace];

/// Per-layer metrics, printed by every traced run. A layer a workload
/// does not exercise reads 0 on that workload.
pub fn per_layer() -> Vec<Metric> {
    let mut out = vec![
        m("protocol.decode_us", "us", "lower"),
        m("protocol.encode_us", "us", "lower"),
        m("protocol.frame_bytes", "count", "lower"),
        m("planner.plan_us", "us", "lower"),
        m("admission.admit_us", "us", "lower"),
        m("metering.record_us", "us", "lower"),
        m("exec.replay_us", "us", "lower"),
        m("machine.replay_ns_per_io", "ns", "lower"),
        m("server.overhead_us", "us", "lower"),
    ];
    for k in WorkloadKind::ALL {
        out.push(m(format!("exec.execute_ms.{}", k.name()), "ms", "lower"));
    }
    for k in WorkloadKind::ALL {
        out.push(m(format!("workloads.gen_ms.{}", k.name()), "ms", "lower"));
    }
    for b in IO_BACKENDS {
        out.push(m(format!("machine.ns_per_io.{}", b.name()), "ns", "lower"));
    }
    for cell in sim::cells() {
        for b in cell.backends() {
            out.push(m(
                format!("core.run_ms.{}.{}", cell.kind.name(), b.name()),
                "ms",
                "lower",
            ));
        }
    }
    for k in WorkloadKind::ALL {
        out.push(m(format!("core.ns_per_io.{}", k.name()), "ns", "lower"));
    }
    out.extend([
        m("machine.reads", "count", "lower"),
        m("machine.writes", "count", "lower"),
        m("admission.accepted", "count", "higher"),
        m("admission.queued", "count", "lower"),
        m("admission.drained", "count", "higher"),
        m("admission.rejected", "count", "lower"),
        m("exec.replay_hit_ratio", "ratio", "higher"),
        m("planner.residual", "ratio", "higher"),
        m("trace.overhead_pct", "%", "lower"),
    ]);
    out
}

/// One run's result.
#[derive(Debug, Default)]
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<String, f64>,
}

impl Report {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.insert(name.into(), value);
    }

    /// The contract's result line: exactly the catalog's metrics for the
    /// run's mode, each with its unit, in catalog order.
    pub fn to_line(&self, traced: bool) -> Result<String, String> {
        let catalog = if traced { per_layer() } else { end_to_end() };
        if let Some(extra) = self
            .metrics
            .keys()
            .find(|k| !catalog.iter().any(|c| &c.name == *k))
        {
            return Err(format!("metric '{extra}' is not in the catalog"));
        }
        let mut body = String::new();
        for (i, c) in catalog.iter().enumerate() {
            let v = *self
                .metrics
                .get(&c.name)
                .ok_or_else(|| format!("metric '{}' was not measured", c.name))?;
            if !v.is_finite() {
                return Err(format!("metric '{}' is not finite: {v}", c.name));
            }
            if i > 0 {
                body.push(',');
            }
            let _ = write!(
                body,
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                c.name,
                number(v),
                c.unit
            );
        }
        Ok(format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{body}}}}}",
            self.correct, self.attempted, self.failed
        ))
    }
}

/// A JSON number with every digit Rust's shortest round-trip form gives.
fn number(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aem_obs::json::{parse, Json};

    fn declared(section: &str) -> Vec<Metric> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let json = parse(&text).expect("BENCHMARK.json parses");
        json.get(section)
            .and_then(Json::as_array)
            .expect("section is an array")
            .iter()
            .map(|e| {
                let s = |k: &str| e.get(k).and_then(Json::as_str).expect(k).to_string();
                let unit = s("unit");
                let better = s("better");
                Metric {
                    name: s("name"),
                    unit: Box::leak(unit.into_boxed_str()),
                    better: Box::leak(better.into_boxed_str()),
                }
            })
            .collect()
    }

    #[test]
    fn every_printed_metric_is_declared_in_benchmark_json_with_its_unit() {
        assert_eq!(declared("end_to_end"), end_to_end());
        assert_eq!(declared("per_layer"), per_layer());
    }

    #[test]
    fn result_line_refuses_unknown_and_missing_metrics() {
        let mut r = Report {
            correct: true,
            attempted: 1,
            ..Report::default()
        };
        for c in end_to_end() {
            r.set(c.name, 1.5);
        }
        let line = r.to_line(false).unwrap();
        assert!(line.starts_with("{\"correct\":true,\"attempted\":1,\"failed\":0,"));
        assert!(parse(&line).is_ok(), "{line}");
        r.set("bogus", 1.0);
        assert!(r.to_line(false).is_err());
        r.metrics.remove("bogus");
        r.metrics.remove("setup_s");
        assert!(r.to_line(false).is_err());
    }
}
