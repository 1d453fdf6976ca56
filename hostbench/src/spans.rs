//! In-memory span recorder for the traced runs.
//!
//! A span is a named interval around one call into a layer's public
//! function, tagged with the request it served and the span that caused
//! it. Spans stay in memory and are written out as JSONL when the run
//! ends; a layer's self time is its span's duration minus what its child
//! spans cover. A disabled tracer records nothing, so the same code path
//! gives the untraced timing that the tracing overhead is measured
//! against.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub req: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Workload kind, for execution spans.
    pub kind: Option<&'static str>,
    /// Backend the execution ran on (`replay` for trace-cache hits).
    pub backend: Option<&'static str>,
    /// Metered block transfers the execution performed.
    pub ios: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle of an open span (`None` when tracing is off).
pub type Open = Option<usize>;

#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: &'static str, req: u64) -> Open {
        if !self.on {
            return None;
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            req,
            parent: self.stack.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
            kind: None,
            backend: None,
            ios: 0,
        });
        self.stack.push(idx);
        Some(idx)
    }

    pub fn exit(&mut self, open: Open) {
        if let Some(idx) = open {
            self.spans[idx].end_ns = self.now_ns();
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(idx), "spans close in stack order");
        }
    }

    /// Close an execution span with what it ran.
    pub fn exit_exec(&mut self, open: Open, kind: &'static str, backend: &'static str, ios: u64) {
        if let Some(idx) = open {
            let s = &mut self.spans[idx];
            s.kind = Some(kind);
            s.backend = Some(backend);
            s.ios = ios;
        }
        self.exit(open);
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Σ self time in ns per span name.
    pub fn self_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.dur_ns();
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            *out.entry(s.name).or_insert(0) += s.dur_ns().saturating_sub(child[i]);
        }
        out
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> Result<(), String> {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let _ = write!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"req\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{}",
                s.name,
                s.req,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.start_ns,
                s.end_ns
            );
            if let (Some(k), Some(b)) = (s.kind, s.backend) {
                let _ = write!(
                    out,
                    ",\"kind\":\"{k}\",\"backend\":\"{b}\",\"ios\":{}",
                    s.ios
                );
            }
            out.push_str("}\n");
        }
        std::fs::write(path, out).map_err(|e| format!("write {}: {e}", path.display()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_off_records_nothing() {
        let mut t = Tracer::new(true);
        let root = t.enter("request", 1);
        let child = t.enter("planner.plan", 1);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.exit(child);
        t.exit(root);
        let total = t.spans()[0].dur_ns();
        let selfs = t.self_ns();
        assert_eq!(selfs["request"] + selfs["planner.plan"], total);
        assert_eq!(t.spans()[1].parent, Some(0));
        let mut off = Tracer::new(false);
        let o = off.enter("request", 1);
        off.exit(o);
        assert!(off.spans().is_empty());
    }
}
