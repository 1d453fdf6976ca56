//! Cost-attribution profiles: where the ω-weighted cost of a run went.
//!
//! The paper's bounds are statements about *where* cost accrues — per
//! round, per phase of the §3 merge schedule, per touched block. This
//! module turns a finished [`RunRecord`] into three attribution views:
//!
//! * a per-block **[`Heatmap`]** — spatially bucketed read/write counts
//!   over the data-block address space, exposing locality (a sequential
//!   merge pass lights up evenly; a pointer-chasing schedule leaves hot
//!   spots);
//! * a **folded-stack profile** ([`folded_stacks`]) — per-phase
//!   *exclusive* cost split into read/write components, in the
//!   `frame;frame;frame value` format every flamegraph renderer accepts
//!   (values are in `Q` units, so a frame's width is its ω-weighted
//!   cost: writes are ω× wider than reads);
//! * **predictor residuals** ([`residuals`]) — measured ÷ predicted `Q`,
//!   for the whole run against the workload's closed-form predictor
//!   (Theorem 3.2 / `pq_sort_cost` / `spmv_sorted_cost`, via
//!   [`crate::check::predicted_cost`]) and per phase where the
//!   registry's algorithm entry carries a `predict_phases` decomposition
//!   (the §3 mergesort's base/merge-level schedule).
//!
//! [`prometheus_text`] serializes all of it — run totals, per-phase
//! splits, residual gauges, heatmap buckets, metric histograms — as a
//! std-only Prometheus text exposition, the format a long-lived
//! `aem-serve` can expose on a `/metrics` endpoint and scrape per tenant.

use std::collections::BTreeMap;

use aem_machine::{Cost, IoEvent};

use crate::check::predicted_cost;
use crate::record::RunRecord;

/// Default number of spatial buckets in a heatmap.
pub const DEFAULT_HEAT_BUCKETS: usize = 32;

/// Intensity ramp for the text rendering, blank = untouched.
const HEAT_RAMP: &[u8] = b" .:-=+*#%@";

/// Per-block access counts, spatially bucketed over the data-block
/// address space.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Heatmap {
    /// Block ids per bucket (≥ 1).
    pub bucket_width: usize,
    /// Highest data-block id touched (0 when no data I/O happened).
    pub max_block: usize,
    /// Read count per bucket.
    pub reads: Vec<u64>,
    /// Write count per bucket.
    pub writes: Vec<u64>,
}

impl Heatmap {
    /// Bucket the record's data-block accesses into at most `max_buckets`
    /// spatial buckets. Auxiliary (pointer) blocks live in their own id
    /// space and are excluded.
    pub fn from_record(rec: &RunRecord, max_buckets: usize) -> Self {
        let max_buckets = max_buckets.max(1);
        let mut max_block = 0usize;
        let mut any = false;
        for ev in rec.trace.events() {
            let (block, aux) = match *ev {
                IoEvent::Read { block, aux, .. } | IoEvent::Write { block, aux, .. } => {
                    (block, aux)
                }
            };
            if !aux {
                any = true;
                max_block = max_block.max(block.index());
            }
        }
        let span = if any { max_block + 1 } else { 1 };
        let bucket_width = span.div_ceil(max_buckets).max(1);
        let n_buckets = span.div_ceil(bucket_width);
        let mut reads = vec![0u64; n_buckets];
        let mut writes = vec![0u64; n_buckets];
        for ev in rec.trace.events() {
            match *ev {
                IoEvent::Read {
                    block, aux: false, ..
                } => reads[block.index() / bucket_width] += 1,
                IoEvent::Write {
                    block, aux: false, ..
                } => writes[block.index() / bucket_width] += 1,
                _ => {}
            }
        }
        Heatmap {
            bucket_width,
            max_block,
            reads,
            writes,
        }
    }

    /// Largest single-bucket count on either side.
    pub fn peak(&self) -> u64 {
        self.reads
            .iter()
            .chain(self.writes.iter())
            .copied()
            .max()
            .unwrap_or(0)
    }

    fn ramp_row(counts: &[u64], peak: u64) -> String {
        counts
            .iter()
            .map(|&c| {
                if c == 0 || peak == 0 {
                    ' '
                } else {
                    // Nonzero counts never render blank: index 1..=9.
                    let idx = 1 + (c - 1) as usize * (HEAT_RAMP.len() - 2) / peak as usize;
                    HEAT_RAMP[idx.min(HEAT_RAMP.len() - 1)] as char
                }
            })
            .collect()
    }

    /// Two-row text rendering (reads over writes) with an intensity ramp.
    pub fn render(&self) -> String {
        let peak = self.peak();
        format!(
            "per-block heatmap: data blocks 0..={}, {} id(s)/bucket, peak bucket {} I/Os\n  reads  |{}|\n  writes |{}|\n  ramp   '{}' (blank = untouched)\n",
            self.max_block,
            self.bucket_width,
            peak,
            Self::ramp_row(&self.reads, peak),
            Self::ramp_row(&self.writes, peak),
            String::from_utf8_lossy(HEAT_RAMP),
        )
    }
}

/// Exclusive (self) cost per phase path, aggregated over same-named
/// paths: `path -> (reads, writes, high_water)`. The path is the phase
/// names from root to node joined with `;` — already the folded-stack
/// frame syntax.
fn exclusive_by_path(rec: &RunRecord) -> BTreeMap<String, (u64, u64, u64)> {
    let phases = &rec.phases;
    // Inclusive minus the sum of direct children = exclusive.
    let mut child_sums = vec![Cost::ZERO; phases.len()];
    for p in phases {
        if let Some(parent) = p.parent {
            child_sums[parent] += p.cost;
        }
    }
    let mut paths: Vec<String> = Vec::with_capacity(phases.len());
    let mut out: BTreeMap<String, (u64, u64, u64)> = BTreeMap::new();
    for (i, p) in phases.iter().enumerate() {
        let path = match p.parent {
            Some(parent) => format!("{};{}", paths[parent], p.name),
            None => p.name.clone(),
        };
        paths.push(path.clone());
        let excl = p.cost.since(child_sums[i]);
        let slot = out.entry(path).or_insert((0, 0, 0));
        slot.0 += excl.reads;
        slot.1 += excl.writes;
        slot.2 = slot.2.max(p.high_water);
    }
    out
}

/// The run's root frame name: `kind/algo`.
fn root_frame(rec: &RunRecord) -> String {
    format!("{}/{}", rec.workload.kind, rec.workload.algo)
}

/// Render the per-phase exclusive cost as folded stacks, one line per
/// `(phase path, component)` with nonzero cost. Values are in `Q` units
/// (`reads·1`, `writes·ω`), so a flamegraph of this file shows the
/// ω-weighted composition of the run; the `read`/`write` leaf frames
/// split every phase into its components. Cost outside any phase appears
/// under `(unattributed)`.
pub fn folded_stacks(rec: &RunRecord) -> String {
    let omega = rec.config.omega;
    let root = root_frame(rec);
    let mut out = String::new();
    let mut push = |path: &str, reads: u64, writes: u64| {
        if reads > 0 {
            out.push_str(&format!("{root};{path};read {reads}\n"));
        }
        if writes > 0 {
            out.push_str(&format!("{root};{path};write {}\n", writes * omega));
        }
    };
    for (path, (reads, writes, _)) in exclusive_by_path(rec) {
        push(&path, reads, writes);
    }
    // Whatever the phase tree does not cover (I/O before the first
    // enter, between top-level spans, after the last exit).
    let total = rec.trace.cost();
    let mut covered = Cost::ZERO;
    for p in rec.phases.iter().filter(|p| p.parent.is_none()) {
        covered += p.cost;
    }
    let stray = total.since(covered);
    push("(unattributed)", stray.reads, stray.writes);
    out
}

/// One predictor residual: measured vs predicted `Q` for a scope.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Residual {
    /// `"run"` or a top-level phase name.
    pub scope: String,
    /// Measured cost in `Q` units.
    pub measured_q: u64,
    /// Predicted cost in `Q` units.
    pub predicted_q: u64,
}

impl Residual {
    /// Measured ÷ predicted (`> 1` means the predictor was beaten by
    /// reality — for the worst-case predictors that is a soundness bug).
    pub fn ratio(&self) -> f64 {
        self.measured_q as f64 / self.predicted_q.max(1) as f64
    }
}

/// Predictor residuals for a record: the run-level residual against the
/// workload's closed-form predictor (when one exists), plus per-phase
/// residuals where the predictor decomposes (the §3 mergesort's
/// base/merge-level schedule, Theorem 3.2). Workloads without a
/// predictor return an empty list.
pub fn residuals(rec: &RunRecord) -> Vec<Residual> {
    let omega = rec.config.omega;
    let mut out = Vec::new();
    if let Some(pred) = predicted_cost(rec) {
        out.push(Residual {
            scope: "run".to_string(),
            measured_q: rec.q(),
            predicted_q: pred.q(omega),
        });
    }
    // Per-phase decomposition, where the registry's algorithm entry has
    // one (today: the §3 mergesort's base/merge-level schedule).
    let per_phase_fn = aem_core::workload::WorkloadKind::from_name(&rec.workload.kind)
        .ok()
        .and_then(|k| k.descriptor().algo(&rec.workload.algo))
        .and_then(|a| a.predict_phases);
    if let Some(f) = per_phase_fn {
        let per_phase = f(
            rec.config,
            rec.workload.n as usize,
            rec.workload.delta as usize,
        );
        // Measured inclusive Q per top-level phase name (summed over
        // repeats, which the mergesort does not produce but the format
        // allows).
        let mut measured: BTreeMap<&str, u64> = BTreeMap::new();
        for p in rec.phases.iter().filter(|p| p.parent.is_none()) {
            *measured.entry(p.name.as_str()).or_insert(0) += p.q(omega);
        }
        for (name, pred) in per_phase {
            if let Some(&m) = measured.get(name.as_str()) {
                out.push(Residual {
                    scope: name,
                    measured_q: m,
                    predicted_q: pred.q(omega),
                });
            }
        }
    }
    out
}

use crate::promtext::{prom_name, PromText as PromWriter};

/// Serialize a record's totals, phase splits, predictor residuals,
/// heatmap buckets and metric histograms as a Prometheus text
/// exposition. `extra_labels` (e.g. `[("backend", "vec")]`) are attached
/// to every sample alongside the workload identity.
pub fn prometheus_text(rec: &RunRecord, extra_labels: &[(&str, &str)]) -> String {
    let omega = rec.config.omega;
    let n = rec.workload.n.to_string();
    let mut base: Vec<(&str, &str)> = vec![
        ("kind", rec.workload.kind.as_str()),
        ("algo", rec.workload.algo.as_str()),
        ("n", n.as_str()),
    ];
    base.extend_from_slice(extra_labels);
    let mut w = PromWriter::new(&base);

    let stats = rec.trace.stats();
    w.head(
        "aem_run_q",
        "gauge",
        "Total measured cost Q = reads + omega*writes",
    );
    w.gauge_u64("aem_run_q", &[], rec.q());
    w.head(
        "aem_io_total",
        "counter",
        "Block I/Os by direction and space",
    );
    for (op, space, v) in [
        ("read", "data", stats.data_reads),
        ("write", "data", stats.data_writes),
        ("read", "aux", stats.aux_reads),
        ("write", "aux", stats.aux_writes),
    ] {
        w.gauge_u64(
            "aem_io_total",
            &[("op", op.to_string()), ("space", space.to_string())],
            v,
        );
    }
    w.head(
        "aem_io_volume_elems_total",
        "counter",
        "Elements transferred",
    );
    w.gauge_u64("aem_io_volume_elems_total", &[], stats.volume);
    w.head("aem_config", "gauge", "Machine parameters (M, B, omega)");
    for (param, v) in [
        ("memory", rec.config.memory as u64),
        ("block", rec.config.block as u64),
        ("omega", omega),
    ] {
        w.gauge_u64("aem_config", &[("param", param.to_string())], v);
    }
    if let Some(g) = rec.metrics.gauge(crate::instrument::GAUGE_INTERNAL) {
        w.head(
            "aem_internal_high_water_elems",
            "gauge",
            "Peak internal-memory occupancy",
        );
        w.gauge_u64("aem_internal_high_water_elems", &[], g.high_water);
    }

    // Per-phase exclusive cost, split into read/write Q components.
    w.head(
        "aem_phase_q",
        "gauge",
        "Exclusive per-phase cost in Q units, split by component (write = omega per I/O)",
    );
    for (path, (reads, writes, _)) in exclusive_by_path(rec) {
        if reads > 0 {
            w.gauge_u64(
                "aem_phase_q",
                &[("phase", path.clone()), ("component", "read".to_string())],
                reads,
            );
        }
        if writes > 0 {
            w.gauge_u64(
                "aem_phase_q",
                &[("phase", path.clone()), ("component", "write".to_string())],
                writes * omega,
            );
        }
    }

    // Predictor residuals (measured / predicted).
    let res = residuals(rec);
    if !res.is_empty() {
        w.head(
            "aem_predictor_residual",
            "gauge",
            "Measured Q divided by the closed-form predicted Q",
        );
        for r in &res {
            let v = format!("{:.6}", r.ratio());
            w.sample("aem_predictor_residual", &[("scope", r.scope.clone())], &v);
        }
    }

    // Heatmap buckets.
    let heat = Heatmap::from_record(rec, DEFAULT_HEAT_BUCKETS);
    w.head(
        "aem_heatmap_io_total",
        "counter",
        "Data-block I/Os per spatial bucket of the block address space",
    );
    for (i, (&r, &wr)) in heat.reads.iter().zip(heat.writes.iter()).enumerate() {
        let bucket = i.to_string();
        w.gauge_u64(
            "aem_heatmap_io_total",
            &[("bucket", bucket.clone()), ("op", "read".to_string())],
            r,
        );
        w.gauge_u64(
            "aem_heatmap_io_total",
            &[("bucket", bucket), ("op", "write".to_string())],
            wr,
        );
    }

    // Metric histograms in native Prometheus histogram form.
    for (name, h) in rec.metrics.histograms() {
        let base_name = format!("aem_hist_{}", prom_name(name));
        w.head(&base_name, "histogram", "Registry histogram");
        let mut cum = 0u64;
        for (i, &c) in h.counts.iter().enumerate() {
            cum += c;
            let le = match h.bounds.get(i) {
                Some(&b) => b.to_string(),
                None => "+Inf".to_string(),
            };
            w.gauge_u64(&format!("{base_name}_bucket"), &[("le", le)], cum);
        }
        w.gauge_u64(&format!("{base_name}_sum"), &[], h.sum);
        w.gauge_u64(&format!("{base_name}_count"), &[], h.count);
    }

    w.finish()
}

/// Everything `aemsim profile` (and later `aem-serve`) emits for one run,
/// built in one pass over the record.
#[derive(Debug, Clone)]
pub struct Profile {
    /// Folded-stack lines ([`folded_stacks`]).
    pub folded: String,
    /// The spatial access heatmap.
    pub heatmap: Heatmap,
    /// Predictor residuals, run scope first.
    pub residuals: Vec<Residual>,
    /// Prometheus text exposition.
    pub prometheus: String,
}

impl Profile {
    /// Build all attribution views for a record.
    pub fn build(rec: &RunRecord, extra_labels: &[(&str, &str)]) -> Profile {
        Profile {
            folded: folded_stacks(rec),
            heatmap: Heatmap::from_record(rec, DEFAULT_HEAT_BUCKETS),
            residuals: residuals(rec),
            prometheus: prometheus_text(rec, extra_labels),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instrument::InstrumentedMachine;
    use crate::record::WorkloadMeta;
    use aem_machine::AemConfig;

    fn sorted_record(n: usize) -> RunRecord {
        let cfg = AemConfig::new(64, 8, 16).unwrap();
        let mut im: InstrumentedMachine<u64> = InstrumentedMachine::new(cfg);
        let input: Vec<u64> = (0..n as u64).rev().collect();
        let region = im.install(&input);
        let out = aem_core::sort::merge_sort(&mut im, region).unwrap();
        assert!(im.inspect(out).windows(2).all(|w| w[0] <= w[1]));
        im.into_sink()
            .into_record(WorkloadMeta::new("sort", "aem", n as u64))
    }

    #[test]
    fn heatmap_buckets_cover_all_data_io() {
        let rec = sorted_record(512);
        let heat = Heatmap::from_record(&rec, 16);
        let stats = rec.trace.stats();
        assert_eq!(heat.reads.iter().sum::<u64>(), stats.data_reads);
        assert_eq!(heat.writes.iter().sum::<u64>(), stats.data_writes);
        assert!(heat.reads.len() <= 16);
        let text = heat.render();
        assert!(text.contains("reads  |"), "{text}");
        assert!(text.contains("writes |"), "{text}");
        // Every bucket with traffic renders a non-blank cell.
        let row: Vec<char> = text
            .lines()
            .find(|l| l.contains("reads"))
            .unwrap()
            .chars()
            .collect();
        assert!(row.iter().any(|&c| c != ' '));
    }

    #[test]
    fn heatmap_of_empty_trace_is_single_empty_bucket() {
        let rec = RunRecord {
            config: AemConfig::new(16, 4, 8).unwrap(),
            workload: WorkloadMeta::new("x", "y", 0),
            trace: aem_machine::Trace::new(),
            occupancy: vec![],
            final_internal_used: 0,
            phases: vec![],
            metrics: crate::metrics::Metrics::new(),
        };
        let heat = Heatmap::from_record(&rec, 8);
        assert_eq!(heat.peak(), 0);
        assert_eq!(heat.reads, vec![0]);
    }

    #[test]
    fn folded_stacks_sum_to_total_q() {
        let rec = sorted_record(512);
        let total: u64 = folded_stacks(&rec)
            .lines()
            .map(|l| l.rsplit(' ').next().unwrap().parse::<u64>().unwrap())
            .sum();
        assert_eq!(total, rec.q());
    }

    #[test]
    fn folded_stacks_have_root_phase_component_shape() {
        // Large enough to clear the small-sort base case (omega*M/2 elems).
        let rec = sorted_record(2048);
        let folded = folded_stacks(&rec);
        assert!(folded.contains("sort/aem;base-runs;read "), "{folded}");
        assert!(folded.contains("sort/aem;base-runs;write "), "{folded}");
        assert!(folded.contains(";merge-level-1;"), "{folded}");
        for line in folded.lines() {
            let (frames, value) = line.rsplit_once(' ').unwrap();
            assert!(value.parse::<u64>().unwrap() > 0, "{line}");
            assert!(frames.starts_with("sort/aem;"), "{line}");
            assert!(
                frames.ends_with(";read") || frames.ends_with(";write"),
                "{line}"
            );
        }
    }

    #[test]
    fn residuals_cover_run_and_merge_phases_and_stay_sound() {
        let rec = sorted_record(2048);
        let res = residuals(&rec);
        assert_eq!(res[0].scope, "run");
        assert!(
            res.iter().any(|r| r.scope == "base-runs"),
            "per-phase residuals present: {res:?}"
        );
        assert!(res.iter().any(|r| r.scope.starts_with("merge-level-")));
        for r in &res {
            assert!(r.measured_q > 0, "{r:?}");
            assert!(
                r.ratio() <= 1.0 + 1e-9,
                "worst-case predictor beaten at {}: {r:?}",
                r.scope
            );
        }
    }

    #[test]
    fn residuals_empty_without_a_predictor() {
        let mut rec = sorted_record(64);
        rec.workload.algo = "mystery".into();
        assert!(residuals(&rec).is_empty());
    }

    #[test]
    fn prometheus_exposition_is_well_formed() {
        let rec = sorted_record(512);
        let text = prometheus_text(&rec, &[("backend", "vec")]);
        assert!(text.contains("# TYPE aem_run_q gauge"), "{text}");
        assert!(
            text.contains(&format!(
                "aem_run_q{{kind=\"sort\",algo=\"aem\",n=\"512\",backend=\"vec\"}} {}",
                rec.q()
            )),
            "{text}"
        );
        assert!(text.contains("aem_phase_q{"), "{text}");
        assert!(text.contains("component=\"write\""), "{text}");
        assert!(text.contains("aem_predictor_residual{"), "{text}");
        assert!(text.contains("scope=\"run\""), "{text}");
        assert!(text.contains("aem_heatmap_io_total{"), "{text}");
        assert!(
            text.contains("aem_hist_block_occupancy_read_bucket"),
            "{text}"
        );
        assert!(text.contains("le=\"+Inf\""), "{text}");
        // Every non-comment line is `name{labels} value` with a numeric value.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let (_, value) = line.rsplit_once(' ').unwrap();
            assert!(value.parse::<f64>().is_ok(), "{line}");
        }
    }

    #[test]
    fn profile_bundle_builds_all_views() {
        let rec = sorted_record(512);
        let p = Profile::build(&rec, &[("backend", "vec")]);
        assert!(!p.folded.is_empty());
        assert!(p.heatmap.peak() > 0);
        assert!(!p.residuals.is_empty());
        assert!(p.prometheus.contains("aem_run_q"));
    }
}
