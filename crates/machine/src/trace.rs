//! Recorded I/O programs.
//!
//! §2 of the paper distinguishes an *algorithm* (handles arbitrary inputs,
//! has control flow) from a *program* (a fixed straight-line sequence of I/O
//! operations implementing one particular permutation or matrix
//! conformation). Lower bounds are proved about programs; running one of our
//! algorithms on one concrete input and recording every I/O yields exactly
//! such a program. This module is the recording side; analysis lives in
//! [`crate::rounds`] and in the `aem-flash` crate.

use crate::block::BlockId;
use crate::config::AemConfig;
use crate::cost::Cost;
use crate::observer::Observer;

/// One I/O operation of a recorded program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IoEvent {
    /// A block was read from external memory into internal memory.
    Read {
        /// Source block.
        block: BlockId,
        /// Number of elements the block held at read time.
        len: usize,
        /// `true` if this was auxiliary (pointer/metadata) I/O rather than
        /// data I/O. Both are charged identically; the flag only aids
        /// analysis and pretty-printing.
        aux: bool,
    },
    /// A block was written from internal memory to external memory.
    Write {
        /// Destination block.
        block: BlockId,
        /// Number of elements written.
        len: usize,
        /// Auxiliary-I/O flag, as for reads.
        aux: bool,
    },
}

impl IoEvent {
    /// AEM cost of this single operation.
    #[inline]
    pub fn cost(&self, omega: u64) -> u64 {
        match self {
            IoEvent::Read { .. } => 1,
            IoEvent::Write { .. } => omega,
        }
    }

    /// `true` for write events.
    #[inline]
    pub fn is_write(&self) -> bool {
        matches!(self, IoEvent::Write { .. })
    }

    /// The block the operation touches.
    #[inline]
    pub fn block(&self) -> BlockId {
        match *self {
            IoEvent::Read { block, .. } | IoEvent::Write { block, .. } => block,
        }
    }

    /// Number of elements moved by the operation.
    #[inline]
    pub fn len(&self) -> usize {
        match *self {
            IoEvent::Read { len, .. } | IoEvent::Write { len, .. } => len,
        }
    }

    /// `true` when the operation moved no elements (e.g. a read of an
    /// empty block).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A straight-line I/O program: the sequence of I/Os one algorithm execution
/// performed, in order. As a machine's sink (`Machine<T, Trace>`) it
/// records one event per block transfer, bulk runs included.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trace {
    events: Vec<IoEvent>,
}

impl Observer for Trace {
    fn new_sink(_: AemConfig) -> Self {
        Trace::new()
    }
    fn on_io(&mut self, ev: &IoEvent, _: usize) {
        self.events.push(ev.clone());
    }
    fn on_reset(&mut self) {
        self.events.clear();
    }
}

impl Trace {
    /// An empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append an event.
    pub fn push(&mut self, ev: IoEvent) {
        self.events.push(ev);
    }

    /// The recorded events in program order.
    pub fn events(&self) -> &[IoEvent] {
        &self.events
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Total cost of the program: `Q = Q_r + ω·Q_w`.
    pub fn cost(&self) -> Cost {
        let mut c = Cost::ZERO;
        for ev in &self.events {
            match ev {
                IoEvent::Read { .. } => c.reads += 1,
                IoEvent::Write { .. } => c.writes += 1,
            }
        }
        c
    }

    /// Total number of elements moved (the *I/O volume*, the quantity the
    /// unit-cost flash model of §4.1 charges for).
    pub fn volume(&self) -> u64 {
        self.events.iter().map(|e| e.len() as u64).sum()
    }

    /// Aggregate statistics over the program: the numbers one looks at
    /// when judging whether an algorithm behaves as its analysis claims
    /// (e.g. §3's "each pointer block is rewritten at most once per
    /// consumed data block" shows up as a low aux-write count here).
    pub fn stats(&self) -> TraceStats {
        use std::collections::HashMap;
        let mut per_block_reads: HashMap<(bool, usize), u64> = HashMap::new();
        let mut per_block_writes: HashMap<(bool, usize), u64> = HashMap::new();
        let mut s = TraceStats::default();
        for ev in &self.events {
            match ev {
                IoEvent::Read { block, aux, .. } => {
                    if *aux {
                        s.aux_reads += 1;
                    } else {
                        s.data_reads += 1;
                    }
                    *per_block_reads.entry((*aux, block.index())).or_insert(0) += 1;
                }
                IoEvent::Write { block, aux, .. } => {
                    if *aux {
                        s.aux_writes += 1;
                    } else {
                        s.data_writes += 1;
                    }
                    *per_block_writes.entry((*aux, block.index())).or_insert(0) += 1;
                }
            }
        }
        s.distinct_blocks_read = per_block_reads.len() as u64;
        s.max_rereads = per_block_reads.values().copied().max().unwrap_or(0);
        s.distinct_blocks_written = per_block_writes.len() as u64;
        // A block's first write initializes it; only writes beyond the first
        // are *rewrites* — the quantity §3 bounds for pointer blocks.
        s.max_rewrites = per_block_writes.values().map(|&w| w - 1).max().unwrap_or(0);
        s.volume = self.volume();
        s
    }
}

/// Aggregate trace statistics; see [`Trace::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceStats {
    /// Reads of data blocks.
    pub data_reads: u64,
    /// Writes of data blocks.
    pub data_writes: u64,
    /// Reads of auxiliary (pointer/metadata) blocks.
    pub aux_reads: u64,
    /// Writes of auxiliary blocks.
    pub aux_writes: u64,
    /// Number of distinct blocks read at least once.
    pub distinct_blocks_read: u64,
    /// Maximum number of times any single block was read (re-read factor).
    pub max_rereads: u64,
    /// Number of distinct blocks written at least once.
    pub distinct_blocks_written: u64,
    /// Maximum number of times any single block was written *beyond its
    /// first write* (re-write factor). The §3 pointer-maintenance invariant
    /// — "each run's pointer block is rewritten at most once per consumed
    /// data block" — is a statement about this quantity, not about reads.
    pub max_rewrites: u64,
    /// Total elements transferred.
    pub volume: u64,
}

impl TraceStats {
    /// Share of the total I/O spent on auxiliary (metadata) blocks.
    pub fn aux_fraction(&self) -> f64 {
        let aux = (self.aux_reads + self.aux_writes) as f64;
        let total = aux + (self.data_reads + self.data_writes) as f64;
        if total == 0.0 {
            0.0
        } else {
            aux / total
        }
    }
}

impl std::ops::Index<usize> for Trace {
    type Output = IoEvent;
    fn index(&self, i: usize) -> &IoEvent {
        &self.events[i]
    }
}

impl<'a> IntoIterator for &'a Trace {
    type Item = &'a IoEvent;
    type IntoIter = std::slice::Iter<'a, IoEvent>;
    fn into_iter(self) -> Self::IntoIter {
        self.events.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Trace {
        let mut t = Trace::new();
        t.push(IoEvent::Read {
            block: BlockId(0),
            len: 8,
            aux: false,
        });
        t.push(IoEvent::Read {
            block: BlockId(1),
            len: 8,
            aux: false,
        });
        t.push(IoEvent::Write {
            block: BlockId(2),
            len: 6,
            aux: false,
        });
        t.push(IoEvent::Write {
            block: BlockId(3),
            len: 2,
            aux: true,
        });
        t
    }

    #[test]
    fn cost_counts_reads_and_writes() {
        let t = sample();
        assert_eq!(t.cost(), Cost::new(2, 2));
        assert_eq!(t.cost().q(16), 2 + 32);
    }

    #[test]
    fn volume_sums_lengths() {
        assert_eq!(sample().volume(), 8 + 8 + 6 + 2);
    }

    #[test]
    fn events_preserve_order() {
        let t = sample();
        assert_eq!(t.len(), 4);
        assert!(!t[0].is_write());
        assert!(t[2].is_write());
        assert_eq!(t[2].block(), BlockId(2));
        assert_eq!(t[2].len(), 6);
        let writes = t.into_iter().filter(|e| e.is_write()).count();
        assert_eq!(writes, 2);
    }

    #[test]
    fn stats_aggregate_correctly() {
        let t = sample();
        let s = t.stats();
        assert_eq!(s.data_reads, 2);
        assert_eq!(s.data_writes, 1);
        assert_eq!(s.aux_writes, 1);
        assert_eq!(s.aux_reads, 0);
        assert_eq!(s.distinct_blocks_read, 2);
        assert_eq!(s.max_rereads, 1);
        assert_eq!(s.distinct_blocks_written, 2);
        assert_eq!(s.max_rewrites, 0);
        assert_eq!(s.volume, 24);
        assert!((s.aux_fraction() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn stats_count_rereads() {
        let mut t = Trace::new();
        for _ in 0..3 {
            t.push(IoEvent::Read {
                block: BlockId(7),
                len: 4,
                aux: false,
            });
        }
        let s = t.stats();
        assert_eq!(s.distinct_blocks_read, 1);
        assert_eq!(s.max_rereads, 3);
    }

    #[test]
    fn stats_count_rewrites() {
        // Three writes to block 7 = two rewrites; one write to block 8 = none.
        let mut t = Trace::new();
        for _ in 0..3 {
            t.push(IoEvent::Write {
                block: BlockId(7),
                len: 4,
                aux: false,
            });
        }
        t.push(IoEvent::Write {
            block: BlockId(8),
            len: 4,
            aux: false,
        });
        let s = t.stats();
        assert_eq!(s.distinct_blocks_written, 2);
        assert_eq!(s.max_rewrites, 2);
        assert_eq!(s.data_writes, 4);
    }

    #[test]
    fn aux_and_data_blocks_are_distinct_write_keys() {
        // Same index, different address spaces: two distinct blocks, and a
        // second write to each address space's block is one rewrite.
        let mut t = Trace::new();
        for aux in [false, true] {
            t.push(IoEvent::Write {
                block: BlockId(3),
                len: 1,
                aux,
            });
        }
        assert_eq!(t.stats().distinct_blocks_written, 2);
        assert_eq!(t.stats().max_rewrites, 0);
        t.push(IoEvent::Write {
            block: BlockId(3),
            len: 1,
            aux: true,
        });
        assert_eq!(t.stats().distinct_blocks_written, 2);
        assert_eq!(t.stats().max_rewrites, 1);
    }

    #[test]
    fn empty_trace_stats() {
        let s = Trace::new().stats();
        assert_eq!(s, TraceStats::default());
        assert_eq!(s.aux_fraction(), 0.0);
    }

    #[test]
    fn event_cost_weighting() {
        let r = IoEvent::Read {
            block: BlockId(0),
            len: 1,
            aux: false,
        };
        let w = IoEvent::Write {
            block: BlockId(0),
            len: 1,
            aux: false,
        };
        assert_eq!(r.cost(9), 1);
        assert_eq!(w.cost(9), 9);
    }
}
