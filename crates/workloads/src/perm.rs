//! Permutation generators.
//!
//! A permutation workload is a vector `pi` of length `N` with
//! `pi[i] = j` meaning "the element at input position `i` must end up at
//! output position `j`". The §4 lower bound holds for *worst-case*
//! permutations; random permutations are the standard stand-in (almost all
//! permutations are hard in the counting sense), while the structured
//! families (transpose, bit-reversal) are classical hard instances from the
//! external-memory literature.

use crate::rng::SplitMix64;

/// The permutation families used by tests and experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PermKind {
    /// The identity permutation (easy case; lower bound trivial).
    Identity,
    /// Reversal: `pi[i] = N − 1 − i` (still streamable).
    Reverse,
    /// A uniformly random permutation (the hard case of Thm 4.5).
    Random {
        /// RNG seed.
        seed: u64,
    },
    /// Matrix transpose of an `r × c` matrix stored row-major: element
    /// `(i, j)` moves to `(j, i)`. Requires `r·c = N`.
    Transpose {
        /// Number of rows `r`.
        rows: usize,
    },
    /// Bit reversal of the index (requires `N` a power of two): the FFT
    /// shuffle, a classical worst case for blocked memories.
    BitReversal,
    /// Stride permutation: `pi[i] = (i·s) mod N` with `gcd(s, N) = 1`.
    Stride {
        /// The stride `s`.
        stride: usize,
    },
}

impl PermKind {
    /// Generate the permutation vector for `n` elements.
    ///
    /// # Panics
    ///
    /// Panics if the family's structural requirement is violated
    /// (`Transpose` needs `rows | n`; `BitReversal` needs `n` a power of
    /// two; `Stride` needs `gcd(s, n) = 1`).
    pub fn generate(self, n: usize) -> Vec<usize> {
        match self {
            PermKind::Identity => (0..n).collect(),
            PermKind::Reverse => (0..n).map(|i| n - 1 - i).collect(),
            PermKind::Random { seed } => {
                let mut pi: Vec<usize> = (0..n).collect();
                let mut rng = SplitMix64::seed_from_u64(seed);
                rng.shuffle(&mut pi);
                pi
            }
            PermKind::Transpose { rows } => {
                assert!(rows > 0 && n % rows == 0, "transpose needs rows | n");
                let cols = n / rows;
                (0..n)
                    .map(|i| {
                        let (r, c) = (i / cols, i % cols);
                        c * rows + r
                    })
                    .collect()
            }
            PermKind::BitReversal => {
                assert!(n.is_power_of_two(), "bit reversal needs a power of two");
                let bits = n.trailing_zeros();
                (0..n).map(|i| reverse_low_bits(i, bits)).collect()
            }
            PermKind::Stride { stride } => {
                assert!(gcd(stride, n) == 1, "stride must be coprime with n");
                (0..n).map(|i| (i * stride) % n).collect()
            }
        }
    }

    /// Short label for tables.
    pub fn label(self) -> &'static str {
        match self {
            PermKind::Identity => "identity",
            PermKind::Reverse => "reverse",
            PermKind::Random { .. } => "random",
            PermKind::Transpose { .. } => "transpose",
            PermKind::BitReversal => "bit-reversal",
            PermKind::Stride { .. } => "stride",
        }
    }

    /// Inverse of [`PermKind::label`] for an `n`-element permutation,
    /// checking the family's structural requirement so that
    /// [`PermKind::generate`] cannot panic on the result. `random` is
    /// seeded with `seed`; `transpose` takes the most nearly square shape,
    /// rows = the largest divisor of `n` that is at most `√n`. `stride`
    /// needs a stride a label cannot carry and is not nameable.
    pub fn from_label(label: &str, n: usize, seed: u64) -> Result<PermKind, String> {
        Ok(match label {
            "identity" => PermKind::Identity,
            "reverse" => PermKind::Reverse,
            "random" => PermKind::Random { seed },
            "transpose" => {
                let rows = (1..=n)
                    .take_while(|&r| r <= n / r)
                    .filter(|r| n % r == 0)
                    .last();
                PermKind::Transpose {
                    rows: rows.ok_or("transpose needs n >= 1")?,
                }
            }
            "bit-reversal" if n.is_power_of_two() => PermKind::BitReversal,
            "bit-reversal" => return Err(format!("bit-reversal needs n a power of two (n = {n})")),
            other => return Err(format!("no permutation family is labelled '{other}'")),
        })
    }
}

fn reverse_low_bits(x: usize, bits: u32) -> usize {
    let mut y = 0usize;
    for b in 0..bits {
        if x & (1 << b) != 0 {
            y |= 1 << (bits - 1 - b);
        }
    }
    y
}

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// Check that `pi` is a permutation of `0..pi.len()`.
pub fn is_permutation(pi: &[usize]) -> bool {
    let n = pi.len();
    let mut seen = vec![false; n];
    for &p in pi {
        if p >= n || seen[p] {
            return false;
        }
        seen[p] = true;
    }
    true
}

/// Invert a permutation: `inv[pi[i]] = i`.
pub fn invert(pi: &[usize]) -> Vec<usize> {
    let mut inv = vec![0usize; pi.len()];
    for (i, &p) in pi.iter().enumerate() {
        inv[p] = i;
    }
    inv
}

/// Apply `pi` to `data` directly (reference implementation used to verify
/// the AEM permutation algorithms): output position `pi[i]` receives
/// `data[i]`.
pub fn apply<T: Clone>(pi: &[usize], data: &[T]) -> Vec<T> {
    assert_eq!(pi.len(), data.len());
    let mut out: Vec<Option<T>> = vec![None; data.len()];
    for (i, &p) in pi.iter().enumerate() {
        out[p] = Some(data[i].clone());
    }
    out.into_iter()
        .map(|x| x.expect("pi is a permutation"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_kinds_generate_valid_permutations() {
        let kinds = [
            PermKind::Identity,
            PermKind::Reverse,
            PermKind::Random { seed: 42 },
            PermKind::Transpose { rows: 8 },
            PermKind::BitReversal,
            PermKind::Stride { stride: 5 },
        ];
        for k in kinds {
            let pi = k.generate(64);
            assert!(is_permutation(&pi), "{:?} not a permutation", k);
        }
    }

    #[test]
    fn random_is_seed_deterministic() {
        let a = PermKind::Random { seed: 7 }.generate(100);
        let b = PermKind::Random { seed: 7 }.generate(100);
        let c = PermKind::Random { seed: 8 }.generate(100);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn transpose_round_trips() {
        // Transposing an r×c matrix then a c×r matrix is the identity.
        let n = 24;
        let t1 = PermKind::Transpose { rows: 4 }.generate(n);
        let t2 = PermKind::Transpose { rows: 6 }.generate(n);
        let composed: Vec<usize> = (0..n).map(|i| t2[t1[i]]).collect();
        assert_eq!(composed, (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn bit_reversal_is_involution() {
        let pi = PermKind::BitReversal.generate(64);
        for i in 0..64 {
            assert_eq!(pi[pi[i]], i);
        }
    }

    #[test]
    fn from_label_inverts_label_and_checks_n() {
        for label in ["identity", "reverse", "random", "transpose", "bit-reversal"] {
            let k = PermKind::from_label(label, 64, 1).unwrap();
            assert_eq!(k.label(), label);
            assert!(is_permutation(&k.generate(64)));
        }
        // The most nearly square shape: 64 = 8 x 8, 2048 = 32 x 64, 1000 = 25 x 40.
        for (n, rows) in [(64, 8), (2048, 32), (1000, 25), (7, 1), (1, 1)] {
            assert_eq!(
                PermKind::from_label("transpose", n, 1).unwrap(),
                PermKind::Transpose { rows }
            );
        }
        assert!(PermKind::from_label("transpose", 0, 1).is_err());
        assert!(PermKind::from_label("bit-reversal", 1000, 1).is_err());
        assert!(PermKind::from_label("stride", 64, 1).is_err());
    }

    #[test]
    fn invert_really_inverts() {
        let pi = PermKind::Random { seed: 3 }.generate(50);
        let inv = invert(&pi);
        for i in 0..50 {
            assert_eq!(inv[pi[i]], i);
        }
    }

    #[test]
    fn apply_reference_semantics() {
        // pi = [2,0,1]: element 0 -> pos 2, element 1 -> pos 0, elem 2 -> pos 1.
        let out = apply(&[2, 0, 1], &['a', 'b', 'c']);
        assert_eq!(out, vec!['b', 'c', 'a']);
    }

    #[test]
    #[should_panic]
    fn stride_requires_coprime() {
        let _ = PermKind::Stride { stride: 4 }.generate(64);
    }

    #[test]
    fn is_permutation_rejects_duplicates_and_range() {
        assert!(!is_permutation(&[0, 0, 1]));
        assert!(!is_permutation(&[0, 3, 1]));
        assert!(is_permutation(&[2, 0, 1]));
    }
}
