//! Phase spans: attributing cost to named, nested sections of an algorithm.
//!
//! Algorithms annotate their structure via the `phase_enter`/`phase_exit`
//! hooks on `AemAccess`, which the machine hands to a
//! [`crate::RunRecorder`] sink. Each entered span snapshots the machine's cumulative counters; on exit the
//! difference (the [`aem_machine::Cost::since`] pattern) is attributed to the
//! span, producing a tree of [`PhaseNode`]s whose costs are *inclusive* —
//! a parent's cost covers its children's.

use aem_machine::Cost;

crate::json_table! {
    /// One node of the phase tree, holding inclusive totals for its span.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct PhaseNode {
        /// Index of the parent phase in the tree's node list, or `None` for
        /// top-level phases.
        pub parent: Option<usize>,
        /// Phase name as passed to `enter` ("merge-level-2", "base-runs", …).
        pub name: String,
        /// I/O cost incurred while the span was open (inclusive of children).
        pub cost: Cost = flat,
        /// Elements transferred while the span was open.
        pub volume: u64,
        /// Auxiliary-block reads while the span was open.
        pub aux_reads: u64,
        /// Auxiliary-block writes while the span was open.
        pub aux_writes: u64,
        /// Number of I/O events while the span was open.
        pub events: u64,
        /// Peak internal-memory occupancy (elements) observed during the span.
        pub high_water: u64,
    }
}

impl PhaseNode {
    /// Cost in the `Q = Q_r + ω·Q_w` metric.
    pub fn q(&self, omega: u64) -> u64 {
        self.cost.q(omega)
    }
}

/// Running totals snapshotted when a span opens.
#[derive(Debug, Clone, Copy, Default)]
struct Totals {
    cost: Cost,
    volume: u64,
    aux_reads: u64,
    aux_writes: u64,
    events: u64,
}

#[derive(Debug)]
struct OpenSpan {
    node: usize,
    at_open: Totals,
    high_water: u64,
}

/// Builds the phase tree as spans open and close around observed I/O.
#[derive(Debug, Default)]
pub struct PhaseStack {
    nodes: Vec<PhaseNode>,
    open: Vec<OpenSpan>,
    totals: Totals,
}

impl PhaseStack {
    /// An empty stack.
    pub fn new() -> Self {
        Self::default()
    }

    /// Open a new span nested under the currently innermost one.
    pub fn enter(&mut self, name: &str, internal_used: u64) {
        let parent = self.open.last().map(|s| s.node);
        let node = self.nodes.len();
        self.nodes.push(PhaseNode {
            name: name.to_string(),
            parent,
            cost: Cost::ZERO,
            volume: 0,
            aux_reads: 0,
            aux_writes: 0,
            events: 0,
            high_water: internal_used,
        });
        self.open.push(OpenSpan {
            node,
            at_open: self.totals,
            high_water: internal_used,
        });
    }

    /// Close the innermost span, attributing everything observed since its
    /// `enter`, and return the index of the closed node. Unbalanced `exit`s
    /// (more exits than enters) are ignored and return `None`.
    pub fn exit(&mut self) -> Option<usize> {
        let span = self.open.pop()?;
        let node = &mut self.nodes[span.node];
        node.cost = self.totals.cost.since(span.at_open.cost);
        node.volume = self.totals.volume - span.at_open.volume;
        node.aux_reads = self.totals.aux_reads - span.at_open.aux_reads;
        node.aux_writes = self.totals.aux_writes - span.at_open.aux_writes;
        node.events = self.totals.events - span.at_open.events;
        node.high_water = span.high_water;
        Some(span.node)
    }

    /// Record one observed I/O against all currently open spans.
    pub fn on_io(&mut self, is_write: bool, len: u64, aux: bool, internal_used: u64) {
        if is_write {
            self.totals.cost.writes += 1;
        } else {
            self.totals.cost.reads += 1;
        }
        self.totals.volume += len;
        if aux {
            if is_write {
                self.totals.aux_writes += 1;
            } else {
                self.totals.aux_reads += 1;
            }
        }
        self.totals.events += 1;
        self.note_mem(internal_used);
    }

    /// Update the high-water mark of every open span with the current
    /// internal-memory occupancy. Used for occupancy changes that are not
    /// I/O events (`reserve`, `discard`).
    pub fn note_mem(&mut self, internal_used: u64) {
        for span in &mut self.open {
            if internal_used > span.high_water {
                span.high_water = internal_used;
            }
        }
    }

    /// Depth of currently open spans.
    pub fn depth(&self) -> usize {
        self.open.len()
    }

    /// Name of the innermost open span, if any.
    pub fn current_name(&self) -> Option<&str> {
        self.open.last().map(|s| self.nodes[s.node].name.as_str())
    }

    /// Close any spans still open (algorithms that early-return may leave
    /// spans unbalanced) and return the finished tree in creation order —
    /// parents always precede children.
    pub fn finish(mut self) -> Vec<PhaseNode> {
        while !self.open.is_empty() {
            self.exit();
        }
        self.nodes
    }

    /// The nodes built so far (closed spans have final totals; open spans
    /// still show zeros).
    pub fn nodes(&self) -> &[PhaseNode] {
        &self.nodes
    }
}

/// Depth of a node within `nodes` (0 for top-level), following parent links.
pub fn node_depth(nodes: &[PhaseNode], mut idx: usize) -> usize {
    let mut d = 0;
    while let Some(p) = nodes[idx].parent {
        d += 1;
        idx = p;
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sibling_phases_attribute_disjoint_cost() {
        let mut ps = PhaseStack::new();
        ps.enter("a", 0);
        ps.on_io(false, 8, false, 8);
        ps.on_io(true, 8, false, 0);
        ps.exit();
        ps.enter("b", 0);
        ps.on_io(false, 4, true, 4);
        ps.exit();
        let nodes = ps.finish();
        assert_eq!(nodes.len(), 2);
        assert_eq!(nodes[0].cost, Cost::new(1, 1));
        assert_eq!(nodes[0].volume, 16);
        assert_eq!(nodes[0].aux_reads, 0);
        assert_eq!(nodes[1].cost, Cost::new(1, 0));
        assert_eq!(nodes[1].aux_reads, 1);
        assert!(nodes.iter().all(|n| n.parent.is_none()));
    }

    #[test]
    fn nested_phases_are_inclusive() {
        let mut ps = PhaseStack::new();
        ps.enter("outer", 0);
        ps.on_io(false, 2, false, 2);
        ps.enter("inner", 2);
        ps.on_io(true, 2, false, 0);
        ps.exit();
        ps.on_io(false, 2, false, 2);
        ps.exit();
        let nodes = ps.finish();
        assert_eq!(nodes[0].name, "outer");
        assert_eq!(nodes[0].cost, Cost::new(2, 1)); // includes inner's write
        assert_eq!(nodes[1].name, "inner");
        assert_eq!(nodes[1].parent, Some(0));
        assert_eq!(nodes[1].cost, Cost::new(0, 1));
        assert_eq!(node_depth(&nodes, 1), 1);
        assert_eq!(node_depth(&nodes, 0), 0);
    }

    #[test]
    fn high_water_tracks_peak_within_span() {
        let mut ps = PhaseStack::new();
        ps.enter("p", 3);
        ps.on_io(false, 8, false, 11);
        ps.on_io(true, 8, false, 3);
        ps.exit();
        let nodes = ps.finish();
        assert_eq!(nodes[0].high_water, 11);
    }

    #[test]
    fn finish_closes_unbalanced_spans() {
        let mut ps = PhaseStack::new();
        ps.enter("open-forever", 0);
        ps.on_io(false, 1, false, 1);
        let nodes = ps.finish();
        assert_eq!(nodes[0].cost, Cost::new(1, 0));
    }

    #[test]
    fn extra_exits_are_ignored() {
        let mut ps = PhaseStack::new();
        ps.exit();
        ps.enter("a", 0);
        ps.exit();
        ps.exit();
        assert_eq!(ps.depth(), 0);
        assert_eq!(ps.finish().len(), 1);
    }

    #[test]
    fn io_outside_any_phase_is_unattributed() {
        let mut ps = PhaseStack::new();
        ps.on_io(false, 8, false, 8);
        ps.enter("a", 0);
        ps.exit();
        let nodes = ps.finish();
        assert_eq!(nodes[0].cost, Cost::ZERO);
    }
}
