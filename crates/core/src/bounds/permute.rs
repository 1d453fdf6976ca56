//! Theorem 4.5: the permuting lower bound via counting (§4.2), evaluated
//! numerically.
//!
//! The argument: a round-based program on the `(M, B, ω)`-AEM can, per
//! `ωm`-round, multiply the number of reachable permutations by at most
//!
//! ```text
//! F = C(N, ωM/B) · C(ωM, M) · 2^M · M!/B!^{M/B} · (3N)^{M/B}     (1)
//! ```
//!
//! (choose which blocks to read; which of the `ωM` read atoms to keep;
//! keep-or-drop per kept atom; arrange up to `M` atoms modulo intra-block
//! order; choose destinations). Since all `N!/B!^{N/B}` block-order
//! equivalence classes of permutations must be reachable,
//! `R ≥ ln(N!/B!^{N/B}) / ln F`, and every round but the last costs at
//! least `ω(m − 1)`.
//!
//! [`counting_rounds`] evaluates this chain in log-space with sound
//! rounding (capability up, requirement down). [`permute_cost_lower_bound`]
//! then converts it into a bound valid for **any** program (not just
//! round-based ones) via the explicit Lemma 4.1 constant: a program of cost
//! `Q` on `(M, B, ω)` yields a round-based program of cost at most `4Q` on
//! `(2M, B, ω)` (derivation in the function docs), so
//! `Q ≥ CountingCost(2M) / 4`. The test suite asserts that no implemented
//! permuting or sorting algorithm ever beats this number.

use aem_machine::AemConfig;

use super::math::{ln_binomial_cap, ln_binomial_up, ln_factorial_down, ln_factorial_up};

/// Result of evaluating the counting argument.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CountingBound {
    /// Minimal number of `ωm`-rounds any round-based program needs.
    pub rounds: u64,
    /// Induced cost lower bound `(R − 1)·ω(m − 1)` for round-based
    /// programs on this configuration.
    pub cost: f64,
    /// `ln` of the per-round multiplicative factor `F` (capability side).
    pub per_round_ln: f64,
    /// `ln(N!/B!^{N/B})` (requirement side).
    pub target_ln: f64,
}

/// Evaluate inequality (1) for a **round-based** program permuting
/// `n_elems` atoms on `cfg`.
pub fn counting_rounds(n_elems: u64, cfg: AemConfig) -> CountingBound {
    let n = n_elems;
    let mem = cfg.memory as u64;
    let b = cfg.block as u64;
    let omega = cfg.omega;
    let m = cfg.m() as u64;

    // Requirement: ln(N!) − (N/B)·ln(B!), rounded down.
    let target_ln = (ln_factorial_down(n) - (n as f64 / b as f64) * ln_factorial_up(b)).max(0.0);

    // Capability: the five factors of (1), rounded up.
    let read_blocks = omega.saturating_mul(m).min(n); // ωM/B block choices, ≤ N non-empty
    let f_blocks = ln_binomial_up(n, read_blocks);
    let f_keep = match omega.checked_mul(mem) {
        Some(pool) => ln_binomial_up(pool, mem),
        None => ln_binomial_cap(omega as f64 * mem as f64, mem),
    };
    let f_drop = mem as f64 * std::f64::consts::LN_2;
    let f_arrange = ln_factorial_up(mem) - (mem as f64 / b as f64) * ln_factorial_down(b);
    let f_dest = (mem as f64 / b as f64) * (3.0 * n as f64).max(2.0).ln();
    let per_round_ln = (f_blocks + f_keep + f_drop + f_arrange + f_dest).max(f64::MIN_POSITIVE);

    let rounds = if target_ln <= 0.0 {
        0
    } else {
        (target_ln / per_round_ln).ceil() as u64
    };
    let cost = rounds.saturating_sub(1) as f64 * (omega as f64) * ((m - 1).max(1) as f64);
    CountingBound {
        rounds,
        cost,
        per_round_ln,
        target_ln,
    }
}

/// Lower bound on the cost of **any** program permuting `n_elems` atoms on
/// `cfg` (Theorem 4.5 made numeric).
///
/// Soundness chain: a program of cost `Q` on `(M, B, ω)` becomes, by
/// Lemma 4.1, a round-based program on `(2M, B, ω)` of cost
/// `Q' ≤ Q·(1 + (1 + 1/ω)·m₂/(m₂−1)) ≤ 4Q` (with `m₂ = 2m ≥ 4`): the
/// conversion adds, per interior round of cost ≥ `ω(m₂−1)`, at most `m₂`
/// snapshot writes and `m₂` restore reads. Hence
/// `Q ≥ counting_rounds(N, 2M-config).cost / 4`.
///
/// A program's cost `Q_r + ω·Q_w` never falls as `ω` rises, so a bound
/// at any `ω' < ω` also holds at `ω`. Once a single round can generate
/// every permutation (`R ≤ 2`), the count collapses towards 0 as `ω`
/// grows; the bound then takes the best value over the powers of two
/// below `ω`, so along `ω = 2^k` it never falls.
pub fn permute_cost_lower_bound(n_elems: u64, cfg: AemConfig) -> f64 {
    let at = |omega: u64| {
        let doubled = AemConfig {
            memory: cfg.memory * 2,
            omega,
            ..cfg
        };
        counting_rounds(n_elems, doubled)
    };
    let here = at(cfg.omega);
    if here.rounds > 2 {
        return here.cost / 4.0;
    }
    (0..u64::BITS)
        .map(|k| 1u64 << k)
        .take_while(|&w| w < cfg.omega)
        .map(|w| at(w).cost)
        .fold(here.cost, f64::max)
        / 4.0
}

/// The asymptotic form of Theorem 4.5: `min{N, ω n log_{ωm} n}` (the raw
/// expression inside the Ω; no hidden constant).
pub fn permute_lower_bound_asymptotic(n_elems: u64, cfg: AemConfig) -> f64 {
    if n_elems == 0 {
        return 0.0;
    }
    let n_blocks = cfg.blocks_for(n_elems as usize) as f64;
    let sortish = cfg.omega as f64 * n_blocks * cfg.log_fan_in(n_blocks);
    (n_elems as f64).min(sortish)
}

/// Which branch of the `min{·,·}` is active for these parameters — the
/// case split the paper phrases as `B ≷ c·ω·log N / log(3eωm)` (experiment
/// F2 maps it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoundBranch {
    /// The linear branch `N` (moving atoms one at a time is unavoidable
    /// and sufficient).
    Linear,
    /// The sorting branch `ω n log_{ωm} n`.
    Sorting,
}

/// Report the active branch of the asymptotic bound.
pub fn active_branch(n_elems: u64, cfg: AemConfig) -> BoundBranch {
    let n_blocks = cfg.blocks_for(n_elems as usize) as f64;
    let sortish = cfg.omega as f64 * n_blocks * cfg.log_fan_in(n_blocks);
    if (n_elems as f64) <= sortish {
        BoundBranch::Linear
    } else {
        BoundBranch::Sorting
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(mem: usize, b: usize, omega: u64) -> AemConfig {
        AemConfig::new(mem, b, omega).unwrap()
    }

    #[test]
    fn rounds_times_factor_cover_target() {
        let c = cfg(64, 8, 16);
        let cb = counting_rounds(1 << 16, c);
        assert!(cb.rounds > 0);
        assert!(cb.rounds as f64 * cb.per_round_ln >= cb.target_ln);
        // One round fewer must NOT cover the target (minimality).
        assert!((cb.rounds - 1) as f64 * cb.per_round_ln < cb.target_ln);
    }

    #[test]
    fn bound_monotone_in_n() {
        let c = cfg(64, 8, 16);
        let mut prev = 0.0;
        for exp in [10u32, 12, 14, 16, 18, 20] {
            let lb = permute_cost_lower_bound(1u64 << exp, c);
            assert!(lb >= prev, "bound must grow with N");
            prev = lb;
        }
    }

    #[test]
    fn bound_is_positive_for_nontrivial_instances() {
        assert!(permute_cost_lower_bound(1 << 16, cfg(64, 8, 16)) > 0.0);
        assert!(permute_cost_lower_bound(1 << 20, cfg(1 << 10, 1 << 6, 4)) > 0.0);
    }

    #[test]
    fn tiny_inputs_need_no_rounds() {
        // Everything fits in memory: N ≤ B means the target (block-order
        // classes) is trivial.
        let c = cfg(64, 8, 2);
        let cb = counting_rounds(8, c);
        assert_eq!(cb.rounds, 0);
        assert_eq!(cb.cost, 0.0);
    }

    #[test]
    fn bound_below_naive_upper_bound() {
        // Sanity: the lower bound can never exceed the naive algorithm's
        // worst-case cost N + ωn (otherwise it would be false).
        for omega in [1u64, 8, 64, 1024] {
            let c = cfg(64, 8, omega);
            for exp in [12u32, 16, 20] {
                let n = 1u64 << exp;
                let naive = n as f64 + omega as f64 * (n / 8) as f64;
                let lb = permute_cost_lower_bound(n, c);
                assert!(
                    lb <= naive,
                    "omega={omega} N={n}: lb {lb} exceeds naive upper bound {naive}"
                );
            }
        }
    }

    #[test]
    fn asymptotic_branches() {
        // Huge ω on small blocks → linear branch; ω = 1 with large blocks →
        // sorting branch.
        assert_eq!(
            active_branch(1 << 20, cfg(64, 8, 1 << 30)),
            BoundBranch::Linear
        );
        assert_eq!(
            active_branch(1 << 20, cfg(1 << 12, 1 << 8, 1)),
            BoundBranch::Sorting
        );
    }

    #[test]
    fn asymptotic_value_is_min_of_branches() {
        let c = cfg(64, 8, 4);
        let n = 1u64 << 18;
        let v = permute_lower_bound_asymptotic(n, c);
        assert!(v <= n as f64 + 1e-9);
        let n_blocks = (n / 8) as f64;
        assert!(v <= 4.0 * n_blocks * c.log_fan_in(n_blocks) + 1e-9);
    }

    #[test]
    fn more_memory_does_not_strengthen_the_bound_much() {
        // The cost bound ≈ target · ω(m−1) / ln F is *roughly* independent
        // of M (both scale with m up to the log factors), so a 64×-larger
        // memory may shift it only within a modest band — a machine with
        // more memory can never be forced to pay much more.
        let n = 1u64 << 18;
        let small = permute_cost_lower_bound(n, cfg(64, 8, 8));
        let large = permute_cost_lower_bound(n, cfg(1 << 12, 8, 8));
        assert!(
            large <= 2.0 * small,
            "large-M bound {large} vs small-M {small}"
        );
    }
}
