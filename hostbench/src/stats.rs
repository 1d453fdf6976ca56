//! Order statistics over timing samples, and host facts.

/// Median of `xs` (mean of the two middle values for even counts).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len().is_multiple_of(2) {
        (v[mid - 1] + v[mid]) / 2.0
    } else {
        v[mid]
    }
}

/// Nearest-rank percentile `p` (0–100) of `xs`, with the number of samples
/// strictly beyond it.
pub fn percentile(xs: &[f64], p: f64) -> (f64, usize) {
    if xs.is_empty() {
        return (0.0, 0);
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil().max(1.0) as usize;
    (v[rank - 1], v.len() - rank)
}

/// One completed request of a timed phase.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub rtt_ms: f64,
    /// Jobs the response completed.
    pub jobs: u64,
    /// Metered I/Os of those jobs.
    pub ios: u64,
}

/// One stretch of a timed phase: the same number of passes per tenant,
/// its host time, and the host's slowdown measured right after it.
#[derive(Debug, Clone, Default)]
pub struct Segment {
    pub secs: f64,
    pub slowdown: f64,
    pub samples: Vec<Sample>,
}

/// Rates and latency percentiles of a timed phase, scaled to the reference
/// host speed, each the median over segments (rates) or over windows of
/// consecutive segments (percentiles), so that a stall of the shared host
/// during part of the run moves few of them and not the reported value.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub requests_per_s: f64,
    pub jobs_per_s: f64,
    pub ios_per_s: f64,
    pub p50_ms: f64,
    pub p99_ms: f64,
    /// Windows the percentiles were taken over.
    pub windows: usize,
    /// Fewest samples beyond p99 in any of them.
    pub min_beyond_p99: usize,
}

/// Rates per segment; percentiles per window of consecutive segments that
/// holds at least `min_per_window` samples (a short tail joins the last
/// window).
pub fn summarize(segs: &[Segment], min_per_window: usize) -> Summary {
    let mut rates: [Vec<f64>; 3] = Default::default();
    let mut windows: Vec<Vec<f64>> = Vec::new();
    let mut open: Vec<f64> = Vec::new();
    for s in segs {
        let per_s = s.slowdown / s.secs;
        rates[0].push(s.samples.len() as f64 * per_s);
        rates[1].push(s.samples.iter().map(|x| x.jobs).sum::<u64>() as f64 * per_s);
        rates[2].push(s.samples.iter().map(|x| x.ios).sum::<u64>() as f64 * per_s);
        open.extend(s.samples.iter().map(|x| x.rtt_ms / s.slowdown));
        if open.len() >= min_per_window {
            windows.push(std::mem::take(&mut open));
        }
    }
    match windows.last_mut() {
        Some(last) => last.append(&mut open),
        None => windows.push(open),
    }
    let (mut p50, mut p99) = (Vec::new(), Vec::new());
    let mut min_beyond = usize::MAX;
    for w in &windows {
        let (v, beyond) = percentile(w, 99.0);
        min_beyond = min_beyond.min(beyond);
        p50.push(percentile(w, 50.0).0);
        p99.push(v);
    }
    Summary {
        requests_per_s: median(&rates[0]),
        jobs_per_s: median(&rates[1]),
        ios_per_s: median(&rates[2]),
        p50_ms: median(&p50),
        p99_ms: median(&p99),
        windows: windows.len(),
        min_beyond_p99: min_beyond,
    }
}

/// Peak resident set size of process `pid` in MB (`VmHWM`), from procfs.
pub fn peak_rss_mb(pid: u32) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let status = std::fs::read_to_string(&path).map_err(|e| format!("read {path}: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| format!("no VmHWM line in {path}"))?;
    Ok(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_counts_the_samples_beyond() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&xs, 99.0), (990.0, 10));
        assert_eq!(percentile(&xs, 50.0), (500.0, 500));
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.5);
    }

    #[test]
    fn segments_report_the_median_scaled_to_the_reference_speed() {
        // Four segments of 1 s and 1000 responses; the second is a stall
        // that completes no jobs and answers in 10 ms instead of 1 ms, the
        // fourth ran on a host twice as slow as the reference.
        let seg = |stall: bool, slowdown: f64| Segment {
            secs: slowdown,
            slowdown,
            samples: vec![
                Sample {
                    rtt_ms: if stall { 10.0 } else { slowdown },
                    jobs: if stall { 0 } else { 2 },
                    ios: 10,
                };
                1000
            ],
        };
        let segs = [
            seg(false, 1.0),
            seg(true, 1.0),
            seg(false, 1.0),
            seg(false, 2.0),
        ];
        let r = summarize(&segs, 1000);
        assert_eq!(r.windows, 4);
        assert_eq!(r.requests_per_s, 1000.0);
        assert_eq!(r.jobs_per_s, 2000.0);
        assert_eq!(r.p99_ms, 1.0);
        assert_eq!(r.min_beyond_p99, 10);
        // Too few samples per segment: windows span segments, and a short
        // tail joins the last window.
        assert_eq!(summarize(&segs, 1500).windows, 2);
        assert_eq!(summarize(&segs[..3], 1500).windows, 1);
    }
}
