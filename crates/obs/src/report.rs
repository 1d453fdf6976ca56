//! Human-readable rendering of a [`RunRecord`] and its check results.
//!
//! Two renderers share the same content: [`render_text`] for terminals and
//! [`render_markdown`] for inclusion in experiment write-ups. Phase costs
//! are inclusive (a parent covers its children), shown indented by nesting
//! depth.

use crate::check::CheckResult;
use crate::phase::node_depth;
use crate::record::RunRecord;

/// One rendered phase row: (indented name, Q, reads, writes, volume,
/// aux I/Os, high-water, events).
type PhaseRow = (String, String, u64, u64, u64, u64, u64, u64);

fn phase_rows(rec: &RunRecord) -> Vec<PhaseRow> {
    let omega = rec.config.omega;
    rec.phases
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let indent = "  ".repeat(node_depth(&rec.phases, i));
            (
                format!("{indent}{}", p.name),
                format!("{}", p.q(omega)),
                p.cost.reads,
                p.cost.writes,
                p.volume,
                p.aux_reads + p.aux_writes,
                p.high_water,
                p.events,
            )
        })
        .collect()
}

fn summary_lines(rec: &RunRecord) -> Vec<String> {
    let cfg = rec.config;
    let cost = rec.trace.cost();
    let stats = rec.trace.stats();
    let mem_high = rec
        .metrics
        .gauge(crate::instrument::GAUGE_INTERNAL)
        .map(|g| g.high_water)
        .unwrap_or_else(|| rec.occupancy.iter().copied().max().unwrap_or(0));
    let mut lines = vec![
        format!(
            "workload: {}/{}, n = {}{}",
            rec.workload.kind,
            rec.workload.algo,
            rec.workload.n,
            if rec.workload.delta > 0 {
                format!(", delta = {}", rec.workload.delta)
            } else {
                String::new()
            }
        ),
        format!(
            "config:   M = {}, B = {}, omega = {} (m = {}, fan-in = {})",
            cfg.memory,
            cfg.block,
            cfg.omega,
            cfg.m(),
            cfg.fan_in()
        ),
        format!(
            "cost:     Q = {} ({} reads + {} x {} writes), volume {} elems",
            rec.q(),
            cost.reads,
            cfg.omega,
            cost.writes,
            stats.volume
        ),
        format!(
            "blocks:   {} distinct read, max re-reads of one block {}",
            stats.distinct_blocks_read, stats.max_rereads
        ),
        format!(
            "memory:   high-water {mem_high} / {}, final {}",
            cfg.memory, rec.final_internal_used
        ),
    ];
    if stats.aux_reads + stats.aux_writes > 0 {
        lines.push(format!(
            "aux I/O:  {} reads, {} writes ({:.1}% of I/Os)",
            stats.aux_reads,
            stats.aux_writes,
            stats.aux_fraction() * 100.0
        ));
    }
    lines
}

/// Render one histogram as `name: n=.. mean=.. max=.. [buckets]`,
/// normalized against the metrics.rs layout (`counts.len() ==
/// bounds.len() + 1`, final entry = overflow): zero buckets are elided,
/// the overflow count is read from its own slot — never re-read from the
/// last bounded bucket when a foreign record ships short `counts` — and
/// a histogram with no bounds labels its single catch-all bucket `all`
/// rather than the misleading `>0`.
fn histogram_line(name: &str, h: &crate::metrics::Histogram) -> String {
    let mut buckets: Vec<String> = h
        .bounds
        .iter()
        .zip(&h.counts)
        .filter(|&(_, &c)| c > 0)
        .map(|(b, c)| format!("<={b}:{c}"))
        .collect();
    match (h.bounds.last(), h.counts.get(h.bounds.len())) {
        (Some(last), Some(&over)) if over > 0 => buckets.push(format!(">{last}:{over}")),
        (None, Some(&over)) if over > 0 => buckets.push(format!("all:{over}")),
        _ => {}
    }
    if buckets.is_empty() {
        buckets.push("empty".into());
    }
    format!(
        "{name}: n={} mean={:.2} max={} [{}]",
        h.count,
        h.mean(),
        h.max,
        buckets.join(" ")
    )
}

/// Render a plain-text report.
pub fn render_text(rec: &RunRecord, checks: &[CheckResult]) -> String {
    let mut out = String::new();
    out.push_str("AEM run report\n");
    for line in summary_lines(rec) {
        out.push_str("  ");
        out.push_str(&line);
        out.push('\n');
    }

    if !rec.phases.is_empty() {
        out.push_str("\nPhases (inclusive):\n");
        let rows = phase_rows(rec);
        let name_w = rows
            .iter()
            .map(|r| r.0.len())
            .chain(std::iter::once("phase".len()))
            .max()
            .unwrap();
        out.push_str(&format!(
            "  {:<name_w$}  {:>10}  {:>8}  {:>8}  {:>10}  {:>6}  {:>10}\n",
            "phase", "Q", "reads", "writes", "volume", "aux", "high-water"
        ));
        for (name, q, reads, writes, volume, aux, hw, _events) in &rows {
            out.push_str(&format!(
                "  {name:<name_w$}  {q:>10}  {reads:>8}  {writes:>8}  {volume:>10}  {aux:>6}  {hw:>10}\n"
            ));
        }
    }

    let counters: Vec<_> = rec.metrics.counters().collect();
    if !counters.is_empty() {
        out.push_str("\nCounters:\n");
        for (name, value) in counters {
            out.push_str(&format!("  {name} = {value}\n"));
        }
    }
    let hists: Vec<_> = rec.metrics.histograms().collect();
    if hists.iter().any(|(_, h)| h.count > 0) {
        out.push_str("\nHistograms:\n");
        for (name, h) in hists {
            if h.count > 0 {
                out.push_str("  ");
                out.push_str(&histogram_line(name, h));
                out.push('\n');
            }
        }
    }

    if !checks.is_empty() {
        out.push_str("\nPaper-invariant checks:\n");
        for c in checks {
            out.push_str(&format!("  [{}] {}: {}\n", c.verdict(), c.name, c.detail));
        }
    }
    out
}

/// Render a GitHub-flavoured-markdown report.
pub fn render_markdown(rec: &RunRecord, checks: &[CheckResult]) -> String {
    let mut out = String::new();
    out.push_str("# AEM run report\n\n");
    for line in summary_lines(rec) {
        out.push_str(&format!("- {}\n", line.replace("  ", " ")));
    }

    if !rec.phases.is_empty() {
        out.push_str("\n## Phases (inclusive)\n\n");
        out.push_str("| phase | Q | reads | writes | volume | aux | high-water |\n");
        out.push_str("|---|---:|---:|---:|---:|---:|---:|\n");
        for (name, q, reads, writes, volume, aux, hw, _events) in phase_rows(rec) {
            // Markdown collapses leading spaces; use nbsp-ish middle dots
            // for visual nesting instead.
            let name = name.replace("  ", "· ");
            out.push_str(&format!(
                "| {name} | {q} | {reads} | {writes} | {volume} | {aux} | {hw} |\n"
            ));
        }
    }

    let counters: Vec<_> = rec.metrics.counters().collect();
    if !counters.is_empty() {
        out.push_str("\n## Counters\n\n| counter | value |\n|---|---:|\n");
        for (name, value) in counters {
            out.push_str(&format!("| {name} | {value} |\n"));
        }
    }
    let hists: Vec<_> = rec.metrics.histograms().collect();
    if hists.iter().any(|(_, h)| h.count > 0) {
        out.push_str("\n## Histograms\n\n");
        for (name, h) in hists {
            if h.count > 0 {
                out.push_str(&format!("- {}\n", histogram_line(name, h)));
            }
        }
    }

    if !checks.is_empty() {
        out.push_str("\n## Paper-invariant checks\n\n");
        for c in checks {
            let mark = if c.passed { "✅" } else { "❌" };
            out.push_str(&format!(
                "- {mark} **{}** ({}): {}\n",
                c.name,
                c.verdict(),
                c.detail
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::run_all;
    use crate::instrument::InstrumentedMachine;
    use crate::record::WorkloadMeta;
    use aem_machine::{AemAccess, AemConfig};

    fn sample() -> RunRecord {
        let cfg = AemConfig::new(64, 8, 16).unwrap();
        let mut im: InstrumentedMachine<u64> = InstrumentedMachine::new(cfg);
        let input: Vec<u64> = (0..128u64).rev().collect();
        let region = im.install(&input);
        im.phase_enter("whole-sort");
        let _ = aem_core::sort::merge_sort(&mut im, region).unwrap();
        im.phase_exit();
        im.into_sink()
            .into_record(WorkloadMeta::new("sort", "aem", 128))
    }

    #[test]
    fn text_report_contains_all_sections() {
        let rec = sample();
        let checks = run_all(&rec);
        let text = render_text(&rec, &checks);
        assert!(text.contains("AEM run report"));
        assert!(text.contains("workload: sort/aem, n = 128"));
        let stats = rec.trace.stats();
        assert!(stats.distinct_blocks_read > 0 && stats.max_rereads > 0);
        assert!(text.contains(&format!(
            "blocks:   {} distinct read, max re-reads of one block {}",
            stats.distinct_blocks_read, stats.max_rereads
        )));
        assert!(text.contains("Phases (inclusive):"));
        assert!(text.contains("whole-sort"));
        assert!(text.contains("io.reads"));
        assert!(text.contains("block.occupancy.read"));
        assert!(text.contains("[PASS] pointer-rewrites"));
        assert!(text.contains("[PASS] round-structure"));
        assert!(text.contains("[PASS] cost-sandwich"));
    }

    #[test]
    fn markdown_report_renders_tables_and_verdicts() {
        let rec = sample();
        let checks = run_all(&rec);
        let md = render_markdown(&rec, &checks);
        assert!(md.starts_with("# AEM run report"));
        assert!(md.contains("| phase | Q |"));
        assert!(md.contains("✅ **cost-sandwich**"));
    }

    #[test]
    fn histogram_line_golden() {
        use crate::metrics::Histogram;
        // Normal shape: zero buckets elided, overflow from its own slot.
        let mut h = Histogram::new(vec![1, 4, 16]);
        for s in [0u64, 1, 5, 9, 1000] {
            h.observe(s);
        }
        assert_eq!(
            histogram_line("occ", &h),
            "occ: n=5 mean=203.00 max=1000 [<=1:2 <=16:2 >16:1]"
        );
        // No bounds: everything lands in the catch-all bucket, which must
        // not be labeled ">0" (a 0-valued sample lands there too).
        let mut all = Histogram::new(vec![]);
        all.observe(0);
        all.observe(7);
        assert_eq!(
            histogram_line("free", &all),
            "free: n=2 mean=3.50 max=7 [all:2]"
        );
        // No samples at all.
        let empty = Histogram::new(vec![8, 64]);
        assert_eq!(
            histogram_line("idle", &empty),
            "idle: n=0 mean=0.00 max=0 [empty]"
        );
        // A foreign record with a short `counts` (no overflow slot): the
        // last bounded count must not be re-printed as overflow.
        let short = Histogram {
            bounds: vec![8],
            counts: vec![2],
            count: 2,
            sum: 6,
            max: 5,
        };
        assert_eq!(
            histogram_line("short", &short),
            "short: n=2 mean=3.00 max=5 [<=8:2]"
        );
    }

    #[test]
    fn reports_without_phases_or_checks_still_render() {
        let mut rec = sample();
        rec.phases.clear();
        let text = render_text(&rec, &[]);
        assert!(!text.contains("Phases"));
        assert!(!text.contains("checks"));
        let md = render_markdown(&rec, &[]);
        assert!(!md.contains("## Phases"));
    }
}
