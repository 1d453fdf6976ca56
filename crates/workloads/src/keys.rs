//! Key-array generators for the sorting experiments (§3 of the paper).
//!
//! Sorting algorithms in the comparison model are input-oblivious in their
//! *worst-case* I/O cost, but measured costs still vary with duplicates and
//! presortedness; the distributions here cover the usual corners.

use crate::rng::SplitMix64;

/// Key distributions for sorting inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeyDist {
    /// Uniform random `u64` keys.
    Uniform {
        /// RNG seed.
        seed: u64,
    },
    /// Already sorted ascending (best case for adaptive algorithms; ours are
    /// not adaptive, so costs should match Uniform).
    Sorted,
    /// Sorted descending.
    Reversed,
    /// Only `distinct` different key values, uniformly assigned.
    FewDistinct {
        /// Number of distinct key values.
        distinct: u64,
        /// RNG seed.
        seed: u64,
    },
    /// Ascending then descending ("organ pipe").
    OrganPipe,
    /// Zipf-distributed keys over `distinct` values with exponent `s_x10 / 10`
    /// (the exponent is passed premultiplied by ten so the enum stays `Eq`).
    /// Heavy skew: value `k` has probability ∝ `1/k^s`. The distribution of
    /// choice for join/group-by skew experiments.
    Zipf {
        /// Number of distinct values.
        distinct: u64,
        /// Exponent times ten (e.g. `12` means `s = 1.2`).
        s_x10: u32,
        /// RNG seed.
        seed: u64,
    },
}

impl KeyDist {
    /// Generate `n` keys.
    pub fn generate(self, n: usize) -> Vec<u64> {
        match self {
            KeyDist::Uniform { seed } => {
                let mut rng = SplitMix64::seed_from_u64(seed);
                (0..n).map(|_| rng.next_u64()).collect()
            }
            KeyDist::Sorted => (0..n as u64).collect(),
            KeyDist::Reversed => (0..n as u64).rev().collect(),
            KeyDist::FewDistinct { distinct, seed } => {
                let mut rng = SplitMix64::seed_from_u64(seed);
                let d = distinct.max(1);
                (0..n).map(|_| rng.next_below(d)).collect()
            }
            KeyDist::OrganPipe => {
                let half = n / 2;
                let mut v: Vec<u64> = (0..half as u64).collect();
                v.extend((0..(n - half) as u64).rev());
                v
            }
            KeyDist::Zipf {
                distinct,
                s_x10,
                seed,
            } => {
                let d = distinct.max(1) as usize;
                let s = s_x10 as f64 / 10.0;
                // Cumulative weights for inverse-CDF sampling.
                let mut cdf = Vec::with_capacity(d);
                let mut acc = 0.0f64;
                for k in 1..=d {
                    acc += 1.0 / (k as f64).powf(s);
                    cdf.push(acc);
                }
                let total = acc;
                let mut rng = SplitMix64::seed_from_u64(seed);
                (0..n)
                    .map(|_| {
                        let u: f64 = rng.next_f64() * total;
                        cdf.partition_point(|&c| c < u) as u64
                    })
                    .collect()
            }
        }
    }

    /// Short label for tables.
    pub fn label(self) -> &'static str {
        match self {
            KeyDist::Uniform { .. } => "uniform",
            KeyDist::Sorted => "sorted",
            KeyDist::Reversed => "reversed",
            KeyDist::FewDistinct { .. } => "few-distinct",
            KeyDist::OrganPipe => "organ-pipe",
            KeyDist::Zipf { .. } => "zipf",
        }
    }

    /// Inverse of [`KeyDist::label`]: the distribution a label names,
    /// seeded with `seed`. `few-distinct` draws from 16 keys; `zipf` has an
    /// exponent a label cannot carry and is not nameable.
    pub fn from_label(label: &str, seed: u64) -> Result<KeyDist, String> {
        Ok(match label {
            "uniform" => KeyDist::Uniform { seed },
            "sorted" => KeyDist::Sorted,
            "reversed" => KeyDist::Reversed,
            "few-distinct" => KeyDist::FewDistinct { distinct: 16, seed },
            "organ-pipe" => KeyDist::OrganPipe,
            other => return Err(format!("no key distribution is labelled '{other}'")),
        })
    }
}

/// `true` if `v` is sorted ascending (validation helper).
pub fn is_sorted<T: Ord>(v: &[T]) -> bool {
    v.windows(2).all(|w| w[0] <= w[1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_produce_requested_length() {
        for d in [
            KeyDist::Uniform { seed: 1 },
            KeyDist::Sorted,
            KeyDist::Reversed,
            KeyDist::FewDistinct {
                distinct: 3,
                seed: 1,
            },
            KeyDist::OrganPipe,
        ] {
            assert_eq!(d.generate(37).len(), 37, "{:?}", d);
        }
    }

    #[test]
    fn uniform_is_deterministic_per_seed() {
        assert_eq!(
            KeyDist::Uniform { seed: 5 }.generate(20),
            KeyDist::Uniform { seed: 5 }.generate(20)
        );
        assert_ne!(
            KeyDist::Uniform { seed: 5 }.generate(20),
            KeyDist::Uniform { seed: 6 }.generate(20)
        );
    }

    #[test]
    fn sorted_and_reversed_shapes() {
        assert!(is_sorted(&KeyDist::Sorted.generate(10)));
        let mut r = KeyDist::Reversed.generate(10);
        r.reverse();
        assert!(is_sorted(&r));
    }

    #[test]
    fn few_distinct_respects_bound() {
        let v = KeyDist::FewDistinct {
            distinct: 4,
            seed: 2,
        }
        .generate(100);
        assert!(v.iter().all(|&k| k < 4));
    }

    #[test]
    fn zipf_is_skewed_and_bounded() {
        let v = KeyDist::Zipf {
            distinct: 100,
            s_x10: 12,
            seed: 3,
        }
        .generate(10_000);
        assert_eq!(v.len(), 10_000);
        assert!(v.iter().all(|&k| k < 100));
        // Skew: the most frequent value dominates any mid-range value.
        let count = |x: u64| v.iter().filter(|&&k| k == x).count();
        assert!(count(0) > 5 * count(50).max(1));
        // Deterministic per seed.
        assert_eq!(
            v,
            KeyDist::Zipf {
                distinct: 100,
                s_x10: 12,
                seed: 3
            }
            .generate(10_000)
        );
    }

    #[test]
    fn from_label_inverts_label() {
        for label in [
            "uniform",
            "sorted",
            "reversed",
            "few-distinct",
            "organ-pipe",
        ] {
            assert_eq!(KeyDist::from_label(label, 3).unwrap().label(), label);
        }
        assert_eq!(
            KeyDist::from_label("few-distinct", 3).unwrap(),
            KeyDist::FewDistinct {
                distinct: 16,
                seed: 3
            }
        );
        assert!(KeyDist::from_label("zipf", 3).is_err());
        assert!(KeyDist::from_label("nope", 3).is_err());
    }

    #[test]
    fn organ_pipe_peaks_in_middle() {
        let v = KeyDist::OrganPipe.generate(10);
        assert!(is_sorted(&v[..5]));
        let mut tail = v[5..].to_vec();
        tail.reverse();
        assert!(is_sorted(&tail));
    }
}
