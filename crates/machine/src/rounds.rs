//! Rounds and the executable form of **Lemma 4.1**.
//!
//! §4 of the paper defines an *`ωm`-round* as a maximal sequence of
//! operations of cost at most `ωm`; all but the last round must cost at
//! least `ω(m − 1)`. A program is *round-based* if it computes in rounds and
//! the internal memory is empty at every round boundary.
//!
//! **Lemma 4.1.** Any program `P` on the `(M, B, ω)`-AEM with cost `Q` can be
//! implemented as a round-based program `P'` on the `(2M, B, ω)`-AEM with
//! cost `O(Q)`.
//!
//! This module makes the lemma executable in two complementary ways:
//!
//! 1. [`round_decompose`] / [`round_based_cost`] analyze a recorded
//!    [`Trace`], splitting it into rounds and computing the exact cost of
//!    the Lemma 4.1 conversion (original cost plus, per interior round
//!    boundary, at most `m` snapshot writes and `m` restore reads).
//! 2. [`RoundBasedMachine`] *runs* the conversion: it wraps a machine with
//!    internal memory `2M`, presents an `M`-machine interface to the
//!    algorithm, buffers every write of the current round in the second
//!    memory half `M''` (serving re-reads from the buffer, as `P'` does),
//!    flushes `M''` and charges the `M'` snapshot/restore cost at each round
//!    boundary. Output equality with plain execution is asserted in tests
//!    for every algorithm in the workspace.

use std::collections::HashMap;

use crate::block::{BlockId, Region};
use crate::config::AemConfig;
use crate::cost::Cost;
use crate::error::{MachineError, Result};
use crate::external::ExternalMemory;
#[cfg(test)]
use crate::machine::Machine;
use crate::machine::{AemAccess, MachineCore};
use crate::store::BlockStore;
#[cfg(test)]
use crate::trace::IoEvent;
use crate::trace::Trace;

/// A single round of a decomposed trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoundSpan {
    /// Index of the first event of the round.
    pub start: usize,
    /// One past the last event of the round.
    pub end: usize,
    /// Cost of the round (`r + ωw`).
    pub cost: u64,
}

/// Split a trace into `ωm`-rounds greedily.
///
/// Greedy packing yields exactly the structure §4 requires: every round has
/// cost at most `ωm`, and every round except the last has cost strictly
/// greater than `ωm − ω ≥ ω(m − 1)` (the next operation, of cost at most
/// `ω`, did not fit).
pub fn round_decompose(trace: &Trace, cfg: AemConfig) -> Vec<RoundSpan> {
    let budget = cfg.round_budget();
    let mut rounds = Vec::new();
    let mut start = 0usize;
    let mut cost = 0u64;
    for (i, ev) in trace.events().iter().enumerate() {
        let c = ev.cost(cfg.omega);
        debug_assert!(c <= budget, "single op exceeds round budget");
        if cost + c > budget {
            rounds.push(RoundSpan {
                start,
                end: i,
                cost,
            });
            start = i;
            cost = 0;
        }
        cost += c;
    }
    if (start < trace.len() || trace.is_empty()) && cost > 0 {
        rounds.push(RoundSpan {
            start,
            end: trace.len(),
            cost,
        });
    }
    rounds
}

/// Summed cost of a round decomposition.
///
/// Because [`round_decompose`] partitions the trace, this sum must equal
/// the trace's total `Q = Q_r + ω·Q_w` exactly — the conservation half of
/// Lemma 4.1 that the fuzzing harness asserts on every sampled config
/// (splitting into rounds re-labels the cost, it never creates or
/// destroys any).
pub fn rounds_cost(rounds: &[RoundSpan]) -> u64 {
    rounds.iter().map(|r| r.cost).sum()
}

/// Exact cost of the Lemma 4.1 round-based conversion of `trace`, assuming
/// worst-case `M'` occupancy (a full internal memory snapshot of `m` blocks
/// at every interior round boundary).
///
/// The conversion `P'` performs: all operations of `P` (reads served from
/// `M''` can only become cheaper, so this is an upper bound, which is the
/// direction the lower-bound argument needs), plus per interior boundary at
/// most `m` snapshot writes and `m` restore reads.
pub fn round_based_cost(trace: &Trace, cfg: AemConfig) -> Cost {
    let rounds = round_decompose(trace, cfg);
    let boundaries = rounds.len().saturating_sub(1) as u64;
    let m = cfg.m() as u64;
    let base = trace.cost();
    Cost {
        reads: base.reads + boundaries * m,
        writes: base.writes + boundaries * m,
    }
}

/// Statistics reported by [`RoundBasedMachine::finish`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoundStats {
    /// Number of completed rounds (including the final partial round).
    pub rounds: u64,
    /// Cost of the wrapped (round-based) execution, including snapshot and
    /// restore overhead.
    pub cost: Cost,
}

/// Executable Lemma 4.1: run any algorithm as a round-based program.
///
/// The wrapper presents the *original* `(M, B, ω)` configuration to the
/// algorithm while running on an inner machine with internal memory `2M`
/// (`M'` for the algorithm's data, `M''` for the write buffer), exactly as
/// in the lemma's proof. See the module docs for the full behavior.
///
/// Generic over the same storage backends as [`MachineCore`] (defaulting
/// to the copying store), so Lemma 4.1 measurements run unchanged on the
/// ghost backend.
#[derive(Debug)]
pub struct RoundBasedMachine<T, S = ExternalMemory<T>, A = ExternalMemory<u64>> {
    /// The algorithm-visible configuration (`M`).
    algo_cfg: AemConfig,
    inner: MachineCore<T, S, A>,
    /// Buffered data-block writes of the current round (`M''`).
    buf_data: HashMap<usize, Vec<T>>,
    /// Buffered auxiliary-block writes of the current round (also `M''`).
    buf_aux: HashMap<usize, Vec<u64>>,
    /// Total elements currently buffered.
    buffered: usize,
    /// Cost accumulated in the current round.
    round_cost: u64,
    /// Completed rounds.
    rounds: u64,
}

impl<T, S, A> RoundBasedMachine<T, S, A>
where
    T: Clone,
    S: BlockStore<T>,
    A: BlockStore<u64>,
{
    /// Wrap a fresh machine; the algorithm sees `cfg`, the inner machine has
    /// `2M` internal memory as granted by Lemma 4.1.
    pub fn new(cfg: AemConfig) -> Self {
        let inner_cfg = AemConfig {
            memory: cfg.memory * 2,
            ..cfg
        };
        Self {
            algo_cfg: cfg,
            inner: MachineCore::new(inner_cfg),
            buf_data: HashMap::new(),
            buf_aux: HashMap::new(),
            buffered: 0,
            round_cost: 0,
            rounds: 0,
        }
    }

    /// Install an input array (free; see [`MachineCore::install`]).
    pub fn install(&mut self, data: &[T]) -> Region {
        self.inner.install(data)
    }

    /// Elements the *algorithm* currently holds (`M'` occupancy): the inner
    /// machine's ledger minus the write buffer (`M''`).
    fn algo_used(&self) -> usize {
        self.inner.internal_used() - self.buffered
    }

    /// Account `c` units of round cost, closing the round first if `c` no
    /// longer fits within the `ωm` budget.
    fn account(&mut self, c: u64) -> Result<()> {
        if self.round_cost + c > self.algo_cfg.round_budget() {
            self.close_round(true)?;
        }
        self.round_cost += c;
        Ok(())
    }

    /// Close the current round: flush `M''` to external memory and, when the
    /// program continues (`interior`), charge the `M'` snapshot writes and
    /// restore reads of Lemma 4.1. Snapshot/restore is pure data movement
    /// to/from dedicated scratch blocks and back, so it is modeled as cost
    /// (the data itself stays in place — observationally identical).
    fn close_round(&mut self, interior: bool) -> Result<()> {
        let b = self.algo_cfg.block;
        // Flush deferred writes (these are P's own writes, whose ω-cost was
        // already accounted when the algorithm issued them).
        let mut data: Vec<(usize, Vec<T>)> = self.buf_data.drain().collect();
        data.sort_by_key(|(id, _)| *id);
        for (id, payload) in data {
            self.buffered -= payload.len();
            self.inner.write_block(BlockId(id), payload)?;
        }
        let mut aux: Vec<(usize, Vec<u64>)> = self.buf_aux.drain().collect();
        aux.sort_by_key(|(id, _)| *id);
        for (id, payload) in aux {
            self.buffered -= payload.len();
            self.inner.write_aux_block(BlockId(id), payload)?;
        }
        debug_assert_eq!(self.buffered, 0);
        if interior {
            // Snapshot M' at round end, restore at next round start.
            let snapshot_blocks = self.algo_used().div_ceil(b) as u64;
            self.inner.counter().charge_writes(snapshot_blocks);
            self.inner.counter().charge_reads(snapshot_blocks);
        }
        self.rounds += 1;
        self.round_cost = 0;
        Ok(())
    }

    /// Finish execution: flush the final round and report statistics.
    /// Must be called before inspecting results.
    pub fn finish(&mut self) -> Result<RoundStats> {
        if self.round_cost > 0 || self.buffered > 0 {
            self.close_round(false)?;
        }
        Ok(RoundStats {
            rounds: self.rounds,
            cost: self.inner.cost(),
        })
    }

    /// Inspect a region (free). Only meaningful after [`Self::finish`].
    pub fn inspect(&self, region: Region) -> Vec<T> {
        assert!(
            self.buffered == 0,
            "inspect called before finish(): writes still buffered"
        );
        self.inner.inspect(region)
    }

    /// Completed rounds so far.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }
}

impl<T, S, A> AemAccess<T> for RoundBasedMachine<T, S, A>
where
    T: Clone,
    S: BlockStore<T>,
    A: BlockStore<u64>,
{
    fn cfg(&self) -> AemConfig {
        self.algo_cfg
    }

    fn read_block(&mut self, id: BlockId) -> Result<Vec<T>> {
        // Pre-check the algorithm's budget so a rejected read leaves both
        // the ledger and the cost meter unchanged (matching Machine).
        let incoming = match self.buf_data.get(&id.index()) {
            Some(buffered) => buffered.len(),
            None => self.inner.block_len(id)?,
        };
        self.enforce_algo_budget(incoming)?;
        self.account(1)?;
        if let Some(buffered) = self.buf_data.get(&id.index()) {
            // P' copies the block from M'' instead of reading external
            // memory; the copy occupies M' space but costs no I/O. The
            // original read cost of P was still accounted above (upper
            // bound; P' can only be cheaper, but we charge P's cost so the
            // measured overhead is conservative).
            let copy = buffered.clone();
            self.inner.charge_internal_free(copy.len())?;
            self.inner.counter().charge_read();
            self.enforce_algo_budget(0)?;
            return Ok(copy);
        }
        let data = self.inner.read_block(id)?;
        self.enforce_algo_budget(0)?;
        Ok(data)
    }

    fn write_block(&mut self, id: BlockId, data: Vec<T>) -> Result<()> {
        if data.len() > self.algo_cfg.block {
            return Err(MachineError::BlockOverflow {
                len: data.len(),
                block: self.algo_cfg.block,
            });
        }
        // The algorithm must actually hold what it writes, exactly as on
        // the plain machine (otherwise algo_used would underflow).
        if self.algo_used() < data.len() {
            return Err(MachineError::InternalUnderflow {
                used: self.algo_used(),
                released: data.len(),
            });
        }
        self.account(self.algo_cfg.omega)?;
        // The write I/O is charged when the buffer is flushed at the round
        // boundary (charging here as well would double-count).
        // Re-writing a block already buffered this round replaces the
        // buffered payload.
        if let Some(old) = self.buf_data.insert(id.index(), data) {
            self.buffered -= old.len();
            self.inner.discard(old.len())?;
        }
        self.buffered += self.buf_data[&id.index()].len();
        Ok(())
    }

    fn alloc_block(&mut self) -> BlockId {
        self.inner.alloc_block()
    }

    fn alloc_region(&mut self, elems: usize) -> Region {
        self.inner.alloc_region(elems)
    }

    fn discard(&mut self, k: usize) -> Result<()> {
        self.inner.discard(k)
    }

    fn reserve(&mut self, k: usize) -> Result<()> {
        self.enforce_algo_budget(k)?;
        self.inner.charge_internal_free(k)
    }

    fn read_aux_block(&mut self, id: BlockId) -> Result<Vec<u64>> {
        let incoming = match self.buf_aux.get(&id.index()) {
            Some(buffered) => buffered.len(),
            None => self.inner.aux_block_len(id)?,
        };
        self.enforce_algo_budget(incoming)?;
        self.account(1)?;
        if let Some(buffered) = self.buf_aux.get(&id.index()) {
            let copy = buffered.clone();
            self.inner.charge_internal_free(copy.len())?;
            self.inner.counter().charge_read();
            self.enforce_algo_budget(0)?;
            return Ok(copy);
        }
        let data = self.inner.read_aux_block(id)?;
        self.enforce_algo_budget(0)?;
        Ok(data)
    }

    fn write_aux_block(&mut self, id: BlockId, data: Vec<u64>) -> Result<()> {
        if data.len() > self.algo_cfg.block {
            return Err(MachineError::BlockOverflow {
                len: data.len(),
                block: self.algo_cfg.block,
            });
        }
        if self.algo_used() < data.len() {
            return Err(MachineError::InternalUnderflow {
                used: self.algo_used(),
                released: data.len(),
            });
        }
        self.account(self.algo_cfg.omega)?;
        if let Some(old) = self.buf_aux.insert(id.index(), data) {
            self.buffered -= old.len();
            self.inner.discard(old.len())?;
        }
        self.buffered += self.buf_aux[&id.index()].len();
        Ok(())
    }

    fn alloc_aux_region(&mut self, words: usize) -> Region {
        self.inner.alloc_aux_region(words)
    }

    fn internal_used(&self) -> usize {
        self.algo_used()
    }

    fn cost(&self) -> Cost {
        self.inner.cost()
    }
}

impl<T, S, A> RoundBasedMachine<T, S, A>
where
    T: Clone,
    S: BlockStore<T>,
    A: BlockStore<u64>,
{
    /// The algorithm's own footprint must respect the *original* capacity
    /// `M`: Lemma 4.1 grants the doubled memory to the simulation (`M''`),
    /// not to the algorithm.
    fn enforce_algo_budget(&self, extra: usize) -> Result<()> {
        let used = self.algo_used() + extra;
        if used > self.algo_cfg.memory {
            return Err(MachineError::InternalOverflow {
                used: self.algo_used(),
                capacity: self.algo_cfg.memory,
                requested: extra,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
impl<T: Clone> RoundBasedMachine<T> {
    fn inspect_region_block(&self, id: BlockId) -> Vec<T> {
        self.inner.inspect_block(id).unwrap()
    }
}

#[cfg(test)]
mod backend_tests {
    use super::*;
    use crate::store::GhostStore;

    /// Block-reversal workload; structural, so both backends must agree on
    /// cost and round count.
    fn reverse_blocks<T2, S, A>(rb: &mut RoundBasedMachine<T2, S, A>, input: &[T2]) -> RoundStats
    where
        T2: Clone,
        S: BlockStore<T2>,
        A: BlockStore<u64>,
    {
        let rin = rb.install(input);
        let rout = rb.alloc_region(input.len());
        for i in 0..rin.blocks {
            let mut d = rb.read_block(rin.block(i)).unwrap();
            d.reverse();
            rb.write_block(rout.block(i), d).unwrap();
        }
        rb.finish().unwrap()
    }

    #[test]
    fn round_based_machine_is_backend_generic() {
        let c = AemConfig::new(16, 4, 4).unwrap();
        let input: Vec<u32> = (0..32).rev().collect();
        let mut on_vec: RoundBasedMachine<u32> = RoundBasedMachine::new(c);
        let mut on_ghost: RoundBasedMachine<u32, GhostStore<u32>, ExternalMemory<u64>> =
            RoundBasedMachine::new(c);
        let sv = reverse_blocks(&mut on_vec, &input);
        let sg = reverse_blocks(&mut on_ghost, &input);
        assert_eq!(sv, sg);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> AemConfig {
        AemConfig::new(16, 4, 4).unwrap() // m = 4, round budget = 16
    }

    fn mk_trace(ops: &[(bool, usize)]) -> Trace {
        // (is_write, block)
        let mut t = Trace::new();
        for &(w, b) in ops {
            if w {
                t.push(IoEvent::Write {
                    block: BlockId(b),
                    len: 4,
                    aux: false,
                });
            } else {
                t.push(IoEvent::Read {
                    block: BlockId(b),
                    len: 4,
                    aux: false,
                });
            }
        }
        t
    }

    #[test]
    fn decompose_respects_budget() {
        // Budget 16; ops: w(4) w(4) w(4) w(4) r r ... each write costs 4.
        let t = mk_trace(&[
            (true, 0),
            (true, 1),
            (true, 2),
            (true, 3),
            (false, 0),
            (false, 1),
        ]);
        let rounds = round_decompose(&t, cfg());
        assert_eq!(rounds.len(), 2);
        assert_eq!(rounds[0].cost, 16);
        assert_eq!(rounds[1].cost, 2);
        // Interior rounds cost at least ω(m−1) = 12.
        for r in &rounds[..rounds.len() - 1] {
            assert!(r.cost >= 12);
        }
    }

    #[test]
    fn decompose_empty_trace() {
        let t = Trace::new();
        assert!(round_decompose(&t, cfg()).is_empty());
    }

    #[test]
    fn conversion_cost_is_linear_overhead() {
        let ops: Vec<(bool, usize)> = (0..40).map(|i| (i % 2 == 0, i)).collect();
        let t = mk_trace(&ops);
        let q = t.cost().q(cfg().omega);
        let q2 = round_based_cost(&t, cfg()).q(cfg().omega);
        // Per interior boundary the conversion adds at most (1+ω)m = 20 and
        // each interior round costs more than ω(m−1) = 12; overall a small
        // constant factor.
        assert!(q2 >= q);
        assert!(q2 <= 3 * q + 20, "q={q} q2={q2}");
    }

    #[test]
    fn wrapper_produces_same_output_as_plain_machine() {
        let c = cfg();
        let input: Vec<u32> = (0..32).rev().collect();

        // Plain run: reverse each block.
        let mut plain: Machine<u32> = Machine::new(c);
        let rin = plain.install(&input);
        let rout = plain.alloc_region(input.len());
        for i in 0..rin.blocks {
            let mut d = plain.read_block(rin.block(i)).unwrap();
            d.reverse();
            plain.write_block(rout.block(i), d).unwrap();
        }
        let expect = plain.inspect(rout);

        // Round-based run of the same algorithm.
        let mut rb: RoundBasedMachine<u32> = RoundBasedMachine::new(c);
        let rin = rb.install(&input);
        let rout = rb.alloc_region(input.len());
        for i in 0..rin.blocks {
            let mut d = rb.read_block(rin.block(i)).unwrap();
            d.reverse();
            rb.write_block(rout.block(i), d).unwrap();
        }
        let stats = rb.finish().unwrap();
        assert_eq!(rb.inspect(rout), expect);

        // Constant-factor overhead (Lemma 4.1).
        let q_plain = plain.cost().q(c.omega);
        let q_rb = stats.cost.q(c.omega);
        assert!(q_rb >= q_plain);
        assert!(q_rb <= 4 * q_plain, "q={q_plain} q'={q_rb}");
        assert!(stats.rounds >= 1);
    }

    #[test]
    fn wrapper_serves_rereads_from_buffer() {
        let c = AemConfig::new(64, 4, 2).unwrap(); // big budget: one round
        let mut rb: RoundBasedMachine<u32> = RoundBasedMachine::new(c);
        let r = rb.install(&[1, 2, 3, 4]);
        let d = rb.read_block(r.block(0)).unwrap();
        let out = rb.alloc_block();
        rb.write_block(out, d).unwrap();
        // Read back the block we just wrote: must see the buffered payload
        // even though it has not reached external memory yet.
        let again = rb.read_block(out).unwrap();
        assert_eq!(again, vec![1, 2, 3, 4]);
        rb.discard(4).unwrap();
        rb.finish().unwrap();
        assert_eq!(rb.inspect(r), vec![1, 2, 3, 4]);
    }

    #[test]
    fn wrapper_enforces_original_capacity() {
        let c = cfg(); // M = 16
        let mut rb: RoundBasedMachine<u32> = RoundBasedMachine::new(c);
        let r = rb.install(&[0u32; 24]);
        for i in 0..4 {
            rb.read_block(r.block(i)).unwrap();
        }
        // 16 elements held; a fifth block must not fit even though the inner
        // machine has 32.
        assert!(rb.read_block(r.block(4)).is_err());
    }

    #[test]
    fn updates_and_probes_take_the_buffered_default_path() {
        // The wrapper overrides neither method: an update is its read (of
        // the buffered payload, if any) and its buffered write, a probe its
        // read and discard, with the same rounds as the spelled-out calls.
        fn run(fused: bool) -> (RoundStats, Vec<u32>, Vec<u32>) {
            let mut rb: RoundBasedMachine<u32> = RoundBasedMachine::new(cfg());
            let r = rb.install(&(0..16).collect::<Vec<u32>>());
            let mut probed = Vec::new();
            for i in [0usize, 1, 0, 3, 0, 2] {
                if fused {
                    rb.update_block_with(r.block(i), &mut |blk| {
                        blk[1] += 10;
                        true
                    })
                    .unwrap();
                    probed.push(rb.probe_elem(r.block(i), 1).unwrap());
                } else {
                    let mut d = rb.read_block(r.block(i)).unwrap();
                    d[1] += 10;
                    rb.write_block(r.block(i), d).unwrap();
                    let d = rb.read_block(r.block(i)).unwrap();
                    rb.discard(d.len()).unwrap();
                    probed.push(d[1]);
                }
                assert_eq!(rb.internal_used(), 0);
            }
            let stats = rb.finish().unwrap();
            (stats, probed, rb.inspect(r))
        }
        let (fused, spelled) = (run(true), run(false));
        assert_eq!(fused, spelled);
        assert_eq!(fused.1, [11, 15, 21, 23, 31, 19]);
        assert!(fused.0.rounds > 1, "the run crosses round boundaries");
    }

    #[test]
    fn rewrite_same_block_in_round_replaces_buffer() {
        let c = AemConfig::new(64, 4, 2).unwrap();
        let mut rb: RoundBasedMachine<u32> = RoundBasedMachine::new(c);
        let r = rb.install(&[1, 2, 3, 4, 5, 6, 7, 8]);
        let d1 = rb.read_block(r.block(0)).unwrap();
        let d2 = rb.read_block(r.block(1)).unwrap();
        let out = rb.alloc_block();
        rb.write_block(out, d1).unwrap();
        rb.write_block(out, d2).unwrap();
        rb.finish().unwrap();
        assert_eq!(rb.inspect_region_block(out), vec![5, 6, 7, 8]);
    }
}
