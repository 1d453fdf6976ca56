//! Model parameters of the `(M, B, ω)`-AEM machine and derived quantities.
//!
//! Notation follows §2 of the paper:
//!
//! * `N` — input size (elements),
//! * `M` — internal (symmetric) memory size in elements,
//! * `B` — block size in elements,
//! * `m = ⌈M/B⌉` — internal memory size in blocks,
//! * `n = ⌈N/B⌉` — input size in blocks,
//! * `ω` — ratio between the cost of a write and a read I/O.

use crate::error::{MachineError, Result};

/// Parameters of an `(M, B, ω)`-AEM machine.
///
/// Invariants (checked by [`AemConfig::new`]):
///
/// * `block ≥ 1` — a block holds at least one element;
/// * `memory ≥ 2 · block` — internal memory holds at least two blocks, the
///   minimum for any non-trivial block algorithm (one input buffer and one
///   output buffer); the paper's theorems all assume `M ≥ cB` for small `c`;
/// * `omega ≥ 1` — writes are at least as expensive as reads (the defining
///   property of the asymmetric model; `ω = 1` is the classical EM model).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AemConfig {
    /// Internal (symmetric) memory capacity `M`, in elements.
    pub memory: usize,
    /// Block size `B`, in elements.
    pub block: usize,
    /// Write/read cost ratio `ω`.
    pub omega: u64,
}

impl AemConfig {
    /// Create a validated configuration.
    ///
    /// # Errors
    ///
    /// Returns [`MachineError::InvalidConfig`] if the invariants documented
    /// on the type are violated.
    pub fn new(memory: usize, block: usize, omega: u64) -> Result<Self> {
        if block == 0 {
            return Err(MachineError::InvalidConfig("block size B must be >= 1"));
        }
        if memory < 2 * block {
            return Err(MachineError::InvalidConfig(
                "internal memory M must hold at least two blocks (M >= 2B)",
            ));
        }
        if omega == 0 {
            return Err(MachineError::InvalidConfig("omega must be >= 1"));
        }
        Ok(Self {
            memory,
            block,
            omega,
        })
    }

    /// The `(M, ω)`-ARAM model of Blelloch et al., which the paper notes is
    /// exactly the `(M, 1, ω)`-AEM model.
    pub fn aram(memory: usize, omega: u64) -> Result<Self> {
        Self::new(memory, 1, omega)
    }

    /// The classical symmetric EM model of Aggarwal–Vitter: `ω = 1`.
    pub fn symmetric(memory: usize, block: usize) -> Result<Self> {
        Self::new(memory, block, 1)
    }

    /// `m = ⌈M/B⌉`: internal memory size measured in blocks.
    #[inline]
    pub fn m(&self) -> usize {
        self.memory.div_ceil(self.block)
    }

    /// `n = ⌈N/B⌉`: number of blocks needed to store `n_elems` elements.
    #[inline]
    pub fn blocks_for(&self, n_elems: usize) -> usize {
        n_elems.div_ceil(self.block)
    }

    /// The round budget `ωm` of §4: a round is a maximal sequence of
    /// operations of cost at most `ωm` (and, for all but the last round, at
    /// least `ω(m − 1)`). Saturates at `u64::MAX` for absurd `ω`.
    #[inline]
    pub fn round_budget(&self) -> u64 {
        self.omega.saturating_mul(self.m() as u64)
    }

    /// The merge/recursion fan-in `d = ωm` used by the §3 mergesort.
    ///
    /// Saturates at `usize::MAX` for absurd `ω`; callers clamp the fan-in to
    /// the number of runs anyway.
    #[inline]
    pub fn fan_in(&self) -> usize {
        usize::try_from(self.omega)
            .unwrap_or(usize::MAX)
            .saturating_mul(self.m())
    }

    /// Size threshold `ωM` below which the base-case "small sort" of
    /// Blelloch et al. (Lemma 4.2 of SPAA '15) applies: `N' ≤ ωM` elements
    /// can be sorted with `O(ωn')` reads and `O(n')` writes.
    #[inline]
    pub fn small_sort_threshold(&self) -> usize {
        usize::try_from(self.omega)
            .unwrap_or(usize::MAX)
            .saturating_mul(self.memory)
    }

    /// `log_{ωm}(x)` with the conventions used in cost formulas: the base is
    /// clamped to at least 2 and the result to at least 1, mirroring the
    /// `⌈log⌉ ≥ 1` convention of I/O-complexity statements.
    pub fn log_fan_in(&self, x: f64) -> f64 {
        let base = (self.omega as f64 * self.m() as f64).max(2.0);
        (x.max(2.0).ln() / base.ln()).max(1.0)
    }
}

impl std::fmt::Display for AemConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "(M={}, B={}, ω={})-AEM [m={}, round budget={}]",
            self.memory,
            self.block,
            self.omega,
            self.m(),
            self.round_budget()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valid_config() {
        let cfg = AemConfig::new(64, 8, 16).unwrap();
        assert_eq!(cfg.m(), 8);
        assert_eq!(cfg.round_budget(), 128);
        assert_eq!(cfg.fan_in(), 128);
        assert_eq!(cfg.small_sort_threshold(), 1024);
        let huge = AemConfig::new(64, 8, u64::MAX).unwrap();
        assert_eq!(huge.round_budget(), u64::MAX);
    }

    #[test]
    fn m_rounds_up() {
        let cfg = AemConfig::new(65, 8, 1).unwrap();
        assert_eq!(cfg.m(), 9);
    }

    #[test]
    fn blocks_for_rounds_up() {
        let cfg = AemConfig::new(64, 8, 1).unwrap();
        assert_eq!(cfg.blocks_for(0), 0);
        assert_eq!(cfg.blocks_for(1), 1);
        assert_eq!(cfg.blocks_for(8), 1);
        assert_eq!(cfg.blocks_for(9), 2);
    }

    #[test]
    fn rejects_zero_block() {
        assert!(AemConfig::new(64, 0, 1).is_err());
    }

    #[test]
    fn rejects_tiny_memory() {
        assert!(AemConfig::new(8, 8, 1).is_err());
        assert!(AemConfig::new(15, 8, 1).is_err());
        assert!(AemConfig::new(16, 8, 1).is_ok());
    }

    #[test]
    fn rejects_zero_omega() {
        assert!(AemConfig::new(64, 8, 0).is_err());
    }

    #[test]
    fn aram_is_block_one() {
        let cfg = AemConfig::aram(64, 7).unwrap();
        assert_eq!(cfg.block, 1);
        assert_eq!(cfg.m(), 64);
    }

    #[test]
    fn symmetric_is_omega_one() {
        let cfg = AemConfig::symmetric(64, 8).unwrap();
        assert_eq!(cfg.omega, 1);
    }

    #[test]
    fn log_fan_in_is_clamped() {
        let cfg = AemConfig::new(64, 8, 2).unwrap();
        // log of a tiny argument still reports at least 1.
        assert_eq!(cfg.log_fan_in(1.0), 1.0);
        // Monotone in x.
        assert!(cfg.log_fan_in((1u64 << 20) as f64) >= cfg.log_fan_in(256.0));
    }

    #[test]
    fn display_mentions_all_parameters() {
        let cfg = AemConfig::new(64, 8, 16).unwrap();
        let s = cfg.to_string();
        assert!(s.contains("M=64") && s.contains("B=8") && s.contains("ω=16"));
    }
}
