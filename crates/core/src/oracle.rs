//! In-memory reference oracles for differential testing.
//!
//! Every algorithm in this crate computes something that also has a
//! trivial RAM-model implementation: sorting is `sort_unstable`, permuting
//! is an index gather, SpMxV is a dense accumulation loop
//! ([`crate::spmv::reference_multiply`]). The fuzzing and property-test
//! harnesses run the external-memory algorithms *differentially* against
//! these oracles: the metered machine execution must produce exactly the
//! oracle's output, on every `(M, B, ω, n)` point the generator samples.
//!
//! The oracles deliberately share no code with the algorithms under test
//! (no machine, no blocks, no cost accounting) so that a bug in the block
//! layer cannot cancel out of the comparison.

pub use crate::spmv::reference_multiply;

/// The sorted copy of `input` — the oracle for every sorter in
/// [`crate::sort`].
pub fn sorted_reference(input: &[u64]) -> Vec<u64> {
    // Equal `u64`s are indistinguishable, so the unstable sort's output
    // is the stable sort's.
    let mut out = input.to_vec();
    out.sort_unstable();
    out
}

/// Apply permutation `pi` to `values`: output position `pi[i]` receives
/// `values[i]` — the oracle for every permuter in [`crate::permute`].
///
/// This is the same destination convention the permuting algorithms use
/// (`π` maps source index to destination index).
pub fn permuted_reference<T: Clone>(pi: &[usize], values: &[T]) -> Vec<T> {
    assert_eq!(
        pi.len(),
        values.len(),
        "pi and values must have equal length"
    );
    let mut out: Vec<Option<T>> = vec![None; values.len()];
    for (i, &dest) in pi.iter().enumerate() {
        assert!(out[dest].is_none(), "pi is not a permutation");
        out[dest] = Some(values[i].clone());
    }
    out.into_iter()
        .map(|v| v.expect("pi covers range"))
        .collect()
}

/// RAM-model prefix sums: for each query position `p`, the wrapping
/// inclusive sum `values[0] + … + values[p]` — the oracle for every
/// algorithm in [`crate::scan`].
pub fn prefix_reference(values: &[u64], queries: &[usize]) -> Vec<u64> {
    // One running sum, visiting the queries in position order: O(n + q log q)
    // instead of re-folding a prefix per query.
    let mut order: Vec<usize> = (0..queries.len()).collect();
    order.sort_unstable_by_key(|&i| queries[i]);
    let mut out = vec![0u64; queries.len()];
    // `sum` is the wrapping sum of `values[..upto]`.
    let (mut sum, mut upto) = (0u64, 0usize);
    for i in order {
        let p = queries[i];
        sum = values[upto..=p]
            .iter()
            .fold(sum, |acc, &v| acc.wrapping_add(v));
        upto = p + 1;
        out[i] = sum;
    }
    out
}

/// RAM-model dense multiply: `d × d` row-major wrapping product — the
/// oracle for every tiling in [`crate::matmul`].
pub fn matmul_reference(d: usize, a: &[u64], b: &[u64]) -> Vec<u64> {
    assert_eq!(a.len(), d * d);
    assert_eq!(b.len(), d * d);
    let mut c = vec![0u64; d * d];
    if d == 0 {
        return c;
    }
    // Row i of C gathers four rank-1 updates per pass, rows k..k+4 of B,
    // then one per leftover row. Wrapping sums are exact mod 2^64, so
    // the grouping gives the same product as the plain i-k-j loop.
    let fours = b.chunks_exact(4 * d);
    let rest = fours.remainder();
    for (ai, ci) in a.chunks_exact(d).zip(c.chunks_exact_mut(d)) {
        let a4 = ai.chunks_exact(4);
        let a1 = a4.remainder();
        for (wxyz, bk) in a4.zip(fours.clone()) {
            let (w, x, y, z) = (wxyz[0], wxyz[1], wxyz[2], wxyz[3]);
            let (b0, bk) = bk.split_at(d);
            let (b1, bk) = bk.split_at(d);
            let (b2, b3) = bk.split_at(d);
            let cols = b0.iter().zip(b1).zip(b2).zip(b3);
            for (cij, (((&p, &q), &r), &s)) in ci.iter_mut().zip(cols) {
                *cij = cij
                    .wrapping_add(w.wrapping_mul(p))
                    .wrapping_add(x.wrapping_mul(q))
                    .wrapping_add(y.wrapping_mul(r))
                    .wrapping_add(z.wrapping_mul(s));
            }
        }
        for (&aik, bk) in a1.iter().zip(rest.chunks_exact(d)) {
            for (cij, &bkj) in ci.iter_mut().zip(bk) {
                *cij = cij.wrapping_add(aik.wrapping_mul(bkj));
            }
        }
    }
    c
}

/// RAM-model BFS levels from vertex 0 over a CSR graph: `dist[v]` is the
/// hop count, or [`crate::search::MISS`] when `v` is unreachable — the
/// oracle for every traversal in [`crate::bfs`].
pub fn bfs_reference(n: usize, offs: &[u64], adj: &[u64]) -> Vec<u64> {
    let mut dist = vec![crate::search::MISS; n];
    if n == 0 {
        return dist;
    }
    dist[0] = 0;
    let mut frontier = vec![0usize];
    let mut level = 0u64;
    while !frontier.is_empty() {
        level += 1;
        let mut next = Vec::new();
        for &v in &frontier {
            for &ww in &adj[offs[v] as usize..offs[v + 1] as usize] {
                let w = ww as usize;
                if dist[w] == crate::search::MISS {
                    dist[w] = level;
                    next.push(w);
                }
            }
        }
        frontier = next;
    }
    dist
}

/// RAM-model batched lookup: for each query, the key itself when present
/// in (sorted) `keys`, else [`crate::search::MISS`] — the oracle for every
/// layout in [`crate::search`].
pub fn lookup_reference(keys: &[u64], queries: &[u64]) -> Vec<u64> {
    // One sequential walk over the keys, visiting the queries in key
    // order: O(n + q log q), and no cache-missing bisection per query.
    let mut order: Vec<(u64, usize)> = queries.iter().copied().zip(0..).collect();
    order.sort_unstable();
    let mut out = vec![crate::search::MISS; queries.len()];
    let mut k = 0;
    for (q, i) in order {
        while k < keys.len() && keys[k] < q {
            k += 1;
        }
        if keys.get(k) == Some(&q) {
            out[i] = q;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sorted_reference_sorts() {
        assert_eq!(sorted_reference(&[3u64, 1, 2]), vec![1, 2, 3]);
        assert_eq!(sorted_reference(&[]), Vec::<u64>::new());
    }

    #[test]
    fn permuted_reference_matches_workloads_apply() {
        let pi = vec![2usize, 0, 1, 3];
        let vals = vec![10u64, 20, 30, 40];
        let want = aem_workloads::perm::apply(&pi, &vals);
        assert_eq!(permuted_reference(&pi, &vals), want);
    }

    #[test]
    #[should_panic]
    fn permuted_reference_rejects_non_permutations() {
        permuted_reference(&[0usize, 0], &[1u64, 2]);
    }

    #[test]
    fn prefix_reference_wraps() {
        assert_eq!(prefix_reference(&[1, 2, 3], &[0, 2, 1]), vec![1, 6, 3]);
        assert_eq!(prefix_reference(&[u64::MAX, 2], &[1]), vec![1]);
    }

    #[test]
    fn prefix_reference_matches_the_naive_fold() {
        let mut rng = aem_workloads::SplitMix64::seed_from_u64(0x9f1);
        for _ in 0..200 {
            let n = 1 + rng.next_below_usize(40);
            let values: Vec<u64> = (0..n).map(|_| rng.next_u64()).collect();
            let q = rng.next_below_usize(20);
            let queries: Vec<usize> = (0..q).map(|_| rng.next_below_usize(n)).collect();
            let naive: Vec<u64> = queries
                .iter()
                .map(|&p| values[..=p].iter().fold(0u64, |a, &v| a.wrapping_add(v)))
                .collect();
            assert_eq!(prefix_reference(&values, &queries), naive);
        }
    }

    #[test]
    fn lookup_reference_matches_per_query_bisection() {
        let mut rng = aem_workloads::SplitMix64::seed_from_u64(0x10c);
        for _ in 0..200 {
            // Duplicate-heavy sorted keys; queries hit, miss, and fall
            // below and above the key range.
            let mut keys: Vec<u64> = (0..rng.next_below_usize(40))
                .map(|_| 10 + rng.next_below(30))
                .collect();
            keys.sort_unstable();
            let queries: Vec<u64> = (0..rng.next_below_usize(20))
                .map(|_| rng.next_below(50))
                .collect();
            let naive: Vec<u64> = queries
                .iter()
                .map(|q| match keys.binary_search(q) {
                    Ok(_) => *q,
                    Err(_) => crate::search::MISS,
                })
                .collect();
            assert_eq!(lookup_reference(&keys, &queries), naive);
        }
    }

    #[test]
    fn matmul_reference_small_identity() {
        // [[1,0],[0,1]] * [[5,6],[7,8]]
        let c = matmul_reference(2, &[1, 0, 0, 1], &[5, 6, 7, 8]);
        assert_eq!(c, vec![5, 6, 7, 8]);
        assert_eq!(matmul_reference(0, &[], &[]), Vec::<u64>::new());
    }

    #[test]
    fn matmul_reference_matches_the_naive_triple_loop() {
        let mut rng = aem_workloads::SplitMix64::seed_from_u64(0x3a7);
        for d in 1..=11usize {
            let a: Vec<u64> = (0..d * d).map(|_| rng.next_u64()).collect();
            let b: Vec<u64> = (0..d * d).map(|_| rng.next_u64()).collect();
            let mut want = vec![0u64; d * d];
            for i in 0..d {
                for j in 0..d {
                    for k in 0..d {
                        let p = a[i * d + k].wrapping_mul(b[k * d + j]);
                        want[i * d + j] = want[i * d + j].wrapping_add(p);
                    }
                }
            }
            assert_eq!(matmul_reference(d, &a, &b), want, "d={d}");
        }
    }

    #[test]
    fn bfs_reference_levels_and_misses() {
        // 0 → 1 → 2, vertex 3 unreachable.
        let offs = vec![0u64, 1, 2, 2, 2];
        let adj = vec![1u64, 2];
        assert_eq!(
            bfs_reference(4, &offs, &adj),
            vec![0, 1, 2, crate::search::MISS]
        );
    }
}
