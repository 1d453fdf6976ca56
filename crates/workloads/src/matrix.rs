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
        let mut rows = Vec::with_capacity(delta);
        match shape {
            MatrixShape::Random { seed } => {
                let mut rng = SplitMix64::seed_from_u64(seed);
                for col in 0..n {
                    sample_distinct(&mut rng, n, delta, 0, &mut rows);
                    triples.extend(rows.iter().map(|&row| Triple { row, col }));
                }
            }
            MatrixShape::Banded { bandwidth, seed } => {
                let mut rng = SplitMix64::seed_from_u64(seed);
                for col in 0..n {
                    let lo = col.saturating_sub(bandwidth);
                    let hi = (col + bandwidth + 1).min(n);
                    assert!(hi - lo >= delta, "band too narrow for delta");
                    sample_distinct(&mut rng, hi - lo, delta, lo, &mut rows);
                    triples.extend(rows.iter().map(|&row| Triple { row, col }));
                }
            }
            MatrixShape::BlockDiagonal { block, seed } => {
                assert!(block >= delta, "block must be >= delta");
                let mut rng = SplitMix64::seed_from_u64(seed);
                for col in 0..n {
                    let base = (col / block) * block;
                    let width = block.min(n - base);
                    assert!(width >= delta, "tail block too small for delta");
                    sample_distinct(&mut rng, width, delta, base, &mut rows);
                    triples.extend(rows.iter().map(|&row| Triple { row, col }));
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

/// Sample `k` distinct values from `offset..offset+range` into `rows`
/// (cleared first), sorted. Large ranges rejection-sample against the
/// at most `k` rows drawn so far, so a column costs no allocation once
/// `rows` has grown to `k`.
fn sample_distinct(
    rng: &mut SplitMix64,
    range: usize,
    k: usize,
    offset: usize,
    rows: &mut Vec<usize>,
) {
    debug_assert!(k <= range);
    rows.clear();
    // For small ranges shuffle; for large, rejection-sample.
    if range <= 4 * k {
        rows.extend(0..range);
        rng.shuffle(rows);
        rows.truncate(k);
    } else {
        while rows.len() < k {
            let r = rng.next_below_usize(range);
            if !rows.contains(&r) {
                rows.push(r);
            }
        }
    }
    rows.sort_unstable();
    rows.iter_mut().for_each(|r| *r += offset);
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
    fn generated_triples_are_pinned() {
        // FNV-1a over every (row, col), recorded while each column's rows
        // were drawn through a `HashSet`. Banded with bandwidth 4δ and
        // block-diagonal at δ = 1 rejection-sample; block-diagonal at
        // δ ≥ 4, the narrow band and random at 4δ ≥ n shuffle.
        let fnv = |c: &Conformation| {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for t in &c.triples {
                for v in [t.row as u64, t.col as u64] {
                    for b in v.to_le_bytes() {
                        h ^= b as u64;
                        h = h.wrapping_mul(0x0000_0100_0000_01b3);
                    }
                }
            }
            h
        };
        let cases: [(&str, usize, usize, u64, u64); 10] = [
            ("random", 1000, 3, 1, 0xaa8ebfa6a8f5035f),
            ("random", 4096, 4, 7, 0xffdbc6f459285ea8),
            ("random", 200, 60, 2, 0x2f8c59ae1bd0de88),
            ("random", 64, 64, 3, 0x450dbbf97864a325),
            ("banded", 1000, 3, 1, 0xe7d87354bfdb33b3),
            ("banded", 4096, 4, 7, 0x25699ca2b156aa95),
            ("block-diagonal", 1000, 4, 1, 0x7127d09d3d7a8ed1),
            ("block-diagonal", 4096, 1, 7, 0xb47e2da7136589b2),
            ("block-diagonal", 1008, 16, 5, 0x11fa3f06a716c843),
            ("narrow-band", 500, 5, 3, 0xc7cc1773cbc8f5fe),
        ];
        let got: Vec<u64> = cases
            .iter()
            .map(|&(label, n, delta, seed, _)| {
                let shape = match label {
                    "narrow-band" => MatrixShape::Banded {
                        bandwidth: delta,
                        seed,
                    },
                    _ => MatrixShape::from_label(label, n, delta, seed).unwrap(),
                };
                fnv(&Conformation::generate(shape, n, delta))
            })
            .collect();
        let want: Vec<u64> = cases.iter().map(|c| c.4).collect();
        assert_eq!(got, want, "got {got:#018x?}");
    }

    #[test]
    fn validate_catches_corruption() {
        let mut c = Conformation::generate(MatrixShape::Random { seed: 6 }, 16, 2);
        c.triples.swap(0, 1);
        assert!(c.validate().is_err());
    }
}
