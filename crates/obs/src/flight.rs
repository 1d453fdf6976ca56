//! The I/O flight recorder: a bounded ring buffer of the most recent
//! block transfers, dumped automatically when a run dies.
//!
//! A full [`aem_machine::Trace`] can hold millions of events; the flight
//! recorder keeps only the last `K` (default
//! [`DEFAULT_FLIGHT_CAPACITY`]), each tagged with the innermost open
//! phase and its ω-weighted cost contribution. The [`RunRecorder`] sink
//! feeds it on every I/O, so when an algorithm panics mid-phase —
//! fuzz-injected fault, checker-violating schedule, plain bug — the tail
//! of the I/O program that led up to the fault survives the unwind:
//! [`FlightRecorder`] implements `Drop` and, when dropped *while
//! panicking*, prints its contents to stderr (and into the optional
//! [`panic sink`](FlightRecorder::set_panic_sink), which is how the
//! dump-on-panic test observes it through `catch_unwind`).
//!
//! [`RunRecorder`]: crate::RunRecorder

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

use crate::json::{Json, Table};
use crate::record::Op;

/// Default ring capacity: enough tail to see the faulting access pattern
/// (a merge round, a pointer-block rewrite cycle) without drowning a
/// terminal in output.
pub const DEFAULT_FLIGHT_CAPACITY: usize = 64;

crate::json_table! {
    /// One recorded I/O event, as the flight recorder saw it.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct FlightEvent {
        /// Global 0-based index of the event within the run.
        pub seq: u64,
        /// `true` for a write, `false` for a read.
        pub write: bool = (via Op),
        /// Block id touched.
        pub block: usize as "blk",
        /// Elements transferred.
        pub len: usize,
        /// `true` if the block is an auxiliary (pointer) block.
        pub aux: bool,
        /// Innermost open phase when the event happened (`"-"` outside any).
        pub phase: String,
        /// Cost contribution in the `Q` metric: `1` for a read, `ω` for a
        /// write.
        pub q_delta: u64 as "dq",
    }
}

impl FlightEvent {
    /// One self-describing JSON line (`{"t":"flight",...}`), matching the
    /// style of the RunRecord JSONL format.
    pub fn to_json_line(&self) -> String {
        self.to_json_after("t", Json::Str("flight".into()))
            .to_string_compact()
    }

    fn render_line(&self) -> String {
        format!(
            "  #{:<8} {}{} blk {:<6} len {:<5} dQ {:<6} @ {}",
            self.seq,
            if self.write { 'w' } else { 'r' },
            if self.aux { "*" } else { " " },
            self.block,
            self.len,
            self.q_delta,
            self.phase
        )
    }
}

/// A bounded ring buffer of the last `K` I/O events, with dump-on-panic.
///
/// ```
/// use aem_obs::flight::FlightRecorder;
///
/// let mut fr = FlightRecorder::new(2);
/// for seq in 0..5 {
///     fr.record(seq, false, seq as usize, 8, false, Some("scan"), 1);
/// }
/// assert_eq!(fr.seen(), 5);
/// let tail: Vec<u64> = fr.events().map(|e| e.seq).collect();
/// assert_eq!(tail, vec![3, 4]); // only the last K=2 survive
/// ```
#[derive(Debug)]
pub struct FlightRecorder {
    cap: usize,
    seen: u64,
    events: VecDeque<FlightEvent>,
    label: String,
    panic_sink: Option<Arc<Mutex<String>>>,
}

impl FlightRecorder {
    /// A recorder keeping the last `cap` events (`cap ≥ 1`).
    pub fn new(cap: usize) -> Self {
        FlightRecorder {
            cap: cap.max(1),
            seen: 0,
            events: VecDeque::new(),
            label: String::new(),
            panic_sink: None,
        }
    }

    /// The ring capacity `K`.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Resize the ring, keeping the newest events that still fit.
    pub fn set_capacity(&mut self, cap: usize) {
        self.cap = cap.max(1);
        while self.events.len() > self.cap {
            self.events.pop_front();
        }
    }

    /// Attach a label (workload/backend identity) shown in the dump header.
    pub fn set_label(&mut self, label: &str) {
        self.label = label.to_string();
    }

    /// Install a sink that additionally receives the dump text when the
    /// recorder is dropped during a panic. This is how callers that
    /// `catch_unwind` an algorithm (the fuzz harness, tests) retrieve the
    /// I/O tail after the machine itself is gone.
    pub fn set_panic_sink(&mut self, sink: Arc<Mutex<String>>) {
        self.panic_sink = Some(sink);
    }

    /// Record one event. `phase` is the innermost open phase, if any.
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &mut self,
        seq: u64,
        write: bool,
        block: usize,
        len: usize,
        aux: bool,
        phase: Option<&str>,
        q_delta: u64,
    ) {
        if self.events.len() == self.cap {
            self.events.pop_front();
        }
        self.events.push_back(FlightEvent {
            seq,
            write,
            block,
            len,
            aux,
            phase: phase.unwrap_or("-").to_string(),
            q_delta,
        });
        self.seen = self.seen.max(seq + 1);
    }

    /// Total events ever observed (≥ the number retained).
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// The retained tail, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &FlightEvent> + '_ {
        self.events.iter()
    }

    /// `true` if nothing was ever recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Human-readable dump: header plus one line per retained event
    /// (`*` marks auxiliary blocks).
    pub fn render(&self) -> String {
        let mut out = format!(
            "flight recorder{}: last {} of {} I/O events (capacity {})\n",
            if self.label.is_empty() {
                String::new()
            } else {
                format!(" [{}]", self.label)
            },
            self.events.len(),
            self.seen,
            self.cap
        );
        for ev in &self.events {
            out.push_str(&ev.render_line());
            out.push('\n');
        }
        out
    }

    /// The retained tail as JSON lines, one event per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for ev in &self.events {
            out.push_str(&ev.to_json_line());
            out.push('\n');
        }
        out
    }
}

impl Default for FlightRecorder {
    fn default() -> Self {
        Self::new(DEFAULT_FLIGHT_CAPACITY)
    }
}

impl Drop for FlightRecorder {
    fn drop(&mut self) {
        if std::thread::panicking() && !self.events.is_empty() {
            let dump = self.render();
            eprintln!("[aem-obs] panic while a run was in flight; I/O tail:\n{dump}");
            if let Some(sink) = &self.panic_sink {
                if let Ok(mut s) = sink.lock() {
                    s.push_str(&dump);
                }
            }
        }
    }
}

/// Reconstruct a flight-recorder-style tail from an already-serialized
/// [`RunRecord`](crate::RunRecord)'s trace: the last `k` events, with cost
/// deltas from the record's ω but no phase attribution (the event→phase
/// mapping is not part of the wire format). Used to attach an I/O tail to
/// invariant-checker failures on records loaded from disk.
pub fn tail_from_record(rec: &crate::RunRecord, k: usize) -> String {
    let omega = rec.config.omega;
    let total = rec.trace.len();
    let mut fr = FlightRecorder::new(k.max(1));
    fr.set_label(&format!("{}/{}", rec.workload.kind, rec.workload.algo));
    for (i, ev) in rec
        .trace
        .events()
        .iter()
        .enumerate()
        .skip(total.saturating_sub(k))
    {
        let (write, block, len, aux) = match *ev {
            aem_machine::IoEvent::Read { block, len, aux } => (false, block, len, aux),
            aem_machine::IoEvent::Write { block, len, aux } => (true, block, len, aux),
        };
        fr.record(
            i as u64,
            write,
            block.index(),
            len,
            aux,
            None,
            if write { omega } else { 1 },
        );
    }
    // `seen` tracked only the recorded suffix; report the real total.
    fr.seen = total as u64;
    fr.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_keeps_only_the_tail() {
        let mut fr = FlightRecorder::new(3);
        for i in 0..10u64 {
            fr.record(i, i % 2 == 0, i as usize, 4, false, Some("p"), 1);
        }
        assert_eq!(fr.seen(), 10);
        let seqs: Vec<u64> = fr.events().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![7, 8, 9]);
    }

    #[test]
    fn capacity_shrink_drops_oldest() {
        let mut fr = FlightRecorder::new(8);
        for i in 0..5u64 {
            fr.record(i, false, 0, 1, false, None, 1);
        }
        fr.set_capacity(2);
        let seqs: Vec<u64> = fr.events().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![3, 4]);
        assert_eq!(fr.capacity(), 2);
    }

    #[test]
    fn render_and_jsonl_are_line_per_event() {
        let mut fr = FlightRecorder::new(4);
        fr.set_label("sort/aem");
        fr.record(0, false, 7, 8, false, Some("base-runs"), 1);
        fr.record(1, true, 9, 8, true, None, 16);
        let text = fr.render();
        assert!(text.starts_with("flight recorder [sort/aem]: last 2 of 2"));
        assert!(text.contains("r  blk 7"), "{text}");
        assert!(text.contains("w* blk 9"), "{text}");
        assert!(text.contains("@ base-runs"), "{text}");
        assert!(text.contains("@ -"), "{text}");
        let jsonl = fr.to_jsonl();
        assert_eq!(jsonl.lines().count(), 2);
        assert!(jsonl.contains("\"t\":\"flight\""));
        assert!(jsonl.contains("\"dq\":16"));
        // Every line parses back through the obs JSON reader.
        for line in jsonl.lines() {
            let v = crate::json::parse(line).unwrap();
            assert_eq!(v.get("t").and_then(|t| t.as_str()), Some("flight"));
        }
    }

    #[test]
    fn no_dump_on_clean_drop() {
        // A recorder dropped outside a panic must not touch its sink.
        let sink = Arc::new(Mutex::new(String::new()));
        {
            let mut fr = FlightRecorder::new(2);
            fr.set_panic_sink(sink.clone());
            fr.record(0, false, 0, 1, false, None, 1);
        }
        assert!(sink.lock().unwrap().is_empty());
    }

    #[test]
    fn panic_dump_reaches_the_sink() {
        let sink = Arc::new(Mutex::new(String::new()));
        let sink2 = sink.clone();
        let result = std::panic::catch_unwind(move || {
            let mut fr = FlightRecorder::new(2);
            fr.set_panic_sink(sink2);
            fr.record(0, false, 3, 4, false, Some("p"), 1);
            fr.record(1, true, 5, 4, false, Some("p"), 8);
            panic!("boom");
        });
        assert!(result.is_err());
        let dump = sink.lock().unwrap().clone();
        assert!(dump.contains("last 2 of 2"), "{dump}");
        assert!(dump.contains("blk 5"), "{dump}");
    }
}
