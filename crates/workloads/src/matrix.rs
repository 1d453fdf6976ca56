//! Sparse matrix *conformations* for the SpMxV experiments (§5).
//!
//! §5 of the paper fixes the structure of the sparse matrix: an `N × N`
//! matrix with **exactly `δ ≥ 1` non-zero entries per column** (so
//! `H = δN` non-zeros in total), stored in **column-major order**: for each
//! column in increasing order, its non-zero entries are listed with
//! increasing row index, as triples `(i, j, a_ij)`.
//!
//! A [`Conformation`] captures exactly the structural information the
//! lower-bound argument fixes per program: the positions, not the values.

use crate::rng::SplitMix64;

/// One non-zero position `(row, col)` of the matrix. Values are supplied
/// separately when a multiplication is performed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Triple {
    /// Row index `i` (`0 ≤ i < n`).
    pub row: usize,
    /// Column index `j` (`0 ≤ j < n`).
    pub col: usize,
}

/// Families of conformations used by the experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MatrixShape {
    /// Each column's `δ` rows are drawn uniformly without replacement — the
    /// "almost all conformations are hard" regime of Theorem 5.1.
    Random {
        /// RNG seed.
        seed: u64,
    },
    /// Entries clustered near the diagonal within the given half-bandwidth
    /// (easy locality: the direct algorithm shines here).
    Banded {
        /// Maximum distance of an entry from the diagonal.
        bandwidth: usize,
        /// RNG seed.
        seed: u64,
    },
    /// Rows of each column drawn within the column's diagonal block of the
    /// given size (block-diagonal locality).
    BlockDiagonal {
        /// Side length of each diagonal block (must be ≥ δ).
        block: usize,
        /// RNG seed.
        seed: u64,
    },
}

/// A fixed sparse-matrix structure: `n`, `δ`, and the non-zero positions in
/// column-major order.
#[derive(Debug, Clone)]
pub struct Conformation {
    /// Matrix dimension `N`.
    pub n: usize,
    /// Non-zeros per column `δ`.
    pub delta: usize,
    /// The `H = δ·N` positions, sorted by `(col, row)`.
    pub triples: Vec<Triple>,
}

impl MatrixShape {
    /// Short label for tables.
    pub fn label(self) -> &'static str {
        match self {
            MatrixShape::Random { .. } => "random",
            MatrixShape::Banded { .. } => "banded",
            MatrixShape::BlockDiagonal { .. } => "block-diagonal",
        }
    }

    /// Inverse of [`MatrixShape::label`] for an `n × n` conformation with
    /// `delta` entries per column, seeded with `seed`. `banded` has
    /// half-bandwidth `4δ` and `block-diagonal` blocks of side
    /// `max(2δ, 8)`; the structural checks [`Conformation::generate`]
    /// would panic on are made here instead.
    pub fn from_label(
        label: &str,
        n: usize,
        delta: usize,
        seed: u64,
    ) -> Result<MatrixShape, String> {
        Ok(match label {
            "random" => MatrixShape::Random { seed },
            "banded" => MatrixShape::Banded {
                bandwidth: 4 * delta,
                seed,
            },
            "block-diagonal" => {
                let block = (2 * delta).max(8);
                let tail = n % block;
                if tail != 0 && tail < delta {
                    return Err(format!(
                        "block-diagonal: the tail block ({tail} = n mod {block}) cannot hold delta = {delta} rows"
                    ));
                }
                MatrixShape::BlockDiagonal { block, seed }
            }
            other => return Err(format!("no matrix shape is labelled '{other}'")),
        })
    }
}

impl Conformation {
    /// Generate a conformation with exactly `delta` entries per column.
    ///
    /// # Panics
    ///
    /// Panics if `delta > n` (a column cannot hold more distinct rows) or if
    /// a shape's structural parameter is infeasible.
    pub fn generate(shape: MatrixShape, n: usize, delta: usize) -> Self {
        assert!(delta >= 1 && delta <= n, "need 1 <= delta <= n");
        let mut triples = Vec::with_capacity(n * delta);
        match shape {
            MatrixShape::Random { seed } => {
                let mut rng = SplitMix64::seed_from_u64(seed);
                for col in 0..n {
                    let rows = sample_distinct(&mut rng, n, delta, 0);
                    triples.extend(rows.into_iter().map(|row| Triple { row, col }));
                }
            }
            MatrixShape::Banded { bandwidth, seed } => {
                let mut rng = SplitMix64::seed_from_u64(seed);
                for col in 0..n {
                    let lo = col.saturating_sub(bandwidth);
                    let hi = (col + bandwidth + 1).min(n);
                    assert!(hi - lo >= delta, "band too narrow for delta");
                    let rows = sample_distinct(&mut rng, hi - lo, delta, lo);
                    triples.extend(rows.into_iter().map(|row| Triple { row, col }));
                }
            }
            MatrixShape::BlockDiagonal { block, seed } => {
                assert!(block >= delta, "block must be >= delta");
                let mut rng = SplitMix64::seed_from_u64(seed);
                for col in 0..n {
                    let base = (col / block) * block;
                    let width = block.min(n - base);
                    assert!(width >= delta, "tail block too small for delta");
                    let rows = sample_distinct(&mut rng, width, delta, base);
                    triples.extend(rows.into_iter().map(|row| Triple { row, col }));
                }
            }
        }
        let c = Self { n, delta, triples };
        debug_assert!(c.validate().is_ok());
        c
    }

    /// Total number of non-zeros `H = δ·N`.
    pub fn nnz(&self) -> usize {
        self.triples.len()
    }

    /// Check all structural invariants: column-major order, increasing rows
    /// within each column, exactly `δ` entries per column, indices in range.
    pub fn validate(&self) -> Result<(), String> {
        if self.triples.len() != self.n * self.delta {
            return Err(format!(
                "expected {} triples, found {}",
                self.n * self.delta,
                self.triples.len()
            ));
        }
        let mut per_col = vec![0usize; self.n];
        for w in self.triples.windows(2) {
            let (a, b) = (w[0], w[1]);
            if (b.col, b.row) <= (a.col, a.row) {
                return Err(format!(
                    "triples not in column-major order at {:?} -> {:?}",
                    a, b
                ));
            }
        }
        for t in &self.triples {
            if t.row >= self.n || t.col >= self.n {
                return Err(format!("triple {:?} out of range n={}", t, self.n));
            }
            per_col[t.col] += 1;
        }
        if let Some(col) = per_col.iter().position(|&c| c != self.delta) {
            return Err(format!(
                "column {col} has {} entries, want {}",
                per_col[col], self.delta
            ));
        }
        Ok(())
    }

    /// Dense reference multiply over `f64`-like addition on `u64` values is
    /// deliberately *not* provided here; the `aem-core` SpMxV module defines
    /// the semiring and the reference product. This helper only exposes the
    /// per-column row lists for reference computations.
    pub fn rows_of_column(&self, col: usize) -> &[Triple] {
        let start = col * self.delta;
        &self.triples[start..start + self.delta]
    }
}

/// Sample `k` distinct values from `offset..offset+range`, returned sorted.
fn sample_distinct(rng: &mut SplitMix64, range: usize, k: usize, offset: usize) -> Vec<usize> {
    debug_assert!(k <= range);
    // For small ranges shuffle; for large, rejection-sample.
    let mut rows: Vec<usize> = if range <= 4 * k {
        let mut all: Vec<usize> = (0..range).collect();
        rng.shuffle(&mut all);
        all.truncate(k);
        all
    } else {
        let mut seen = std::collections::HashSet::with_capacity(k * 2);
        while seen.len() < k {
            seen.insert(rng.next_below_usize(range));
        }
        seen.into_iter().collect()
    };
    rows.sort_unstable();
    rows.iter_mut().for_each(|r| *r += offset);
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_conformation_is_valid() {
        let c = Conformation::generate(MatrixShape::Random { seed: 1 }, 64, 4);
        assert_eq!(c.nnz(), 256);
        c.validate().unwrap();
    }

    #[test]
    fn banded_stays_in_band() {
        let c = Conformation::generate(
            MatrixShape::Banded {
                bandwidth: 6,
                seed: 2,
            },
            100,
            3,
        );
        c.validate().unwrap();
        for t in &c.triples {
            assert!(t.row.abs_diff(t.col) <= 6);
        }
    }

    #[test]
    fn block_diagonal_stays_in_block() {
        let c = Conformation::generate(MatrixShape::BlockDiagonal { block: 8, seed: 3 }, 64, 4);
        c.validate().unwrap();
        for t in &c.triples {
            assert_eq!(t.row / 8, t.col / 8);
        }
    }

    #[test]
    fn from_label_inverts_label_and_checks_the_tail_block() {
        for label in ["random", "banded", "block-diagonal"] {
            let shape = MatrixShape::from_label(label, 100, 3, 1).unwrap();
            assert_eq!(shape.label(), label);
            Conformation::generate(shape, 100, 3).validate().unwrap();
        }
        assert_eq!(
            MatrixShape::from_label("block-diagonal", 64, 4, 2).unwrap(),
            MatrixShape::BlockDiagonal { block: 8, seed: 2 }
        );
        // n = 19, block 8: the tail block has 3 < 4 rows.
        assert!(MatrixShape::from_label("block-diagonal", 19, 4, 1).is_err());
        assert!(MatrixShape::from_label("clustered", 64, 4, 1).is_err());
    }

    #[test]
    fn generation_is_deterministic() {
        let a = Conformation::generate(MatrixShape::Random { seed: 9 }, 32, 2);
        let b = Conformation::generate(MatrixShape::Random { seed: 9 }, 32, 2);
        assert_eq!(a.triples, b.triples);
    }

    #[test]
    fn rows_of_column_slices_correctly() {
        let c = Conformation::generate(MatrixShape::Random { seed: 4 }, 16, 3);
        for col in 0..16 {
            let rows = c.rows_of_column(col);
            assert_eq!(rows.len(), 3);
            assert!(rows.iter().all(|t| t.col == col));
            assert!(rows.windows(2).all(|w| w[0].row < w[1].row));
        }
    }

    #[test]
    fn delta_equals_n_is_dense_column() {
        let c = Conformation::generate(MatrixShape::Random { seed: 5 }, 8, 8);
        c.validate().unwrap();
        for col in 0..8 {
            let rows: Vec<usize> = c.rows_of_column(col).iter().map(|t| t.row).collect();
            assert_eq!(rows, (0..8).collect::<Vec<_>>());
        }
    }

    #[test]
    fn validate_catches_corruption() {
        let mut c = Conformation::generate(MatrixShape::Random { seed: 6 }, 16, 2);
        c.triples.swap(0, 1);
        assert!(c.validate().is_err());
    }
}
