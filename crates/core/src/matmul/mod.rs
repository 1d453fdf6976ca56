//! Tiled dense matrix multiply under asymmetric read/write costs (T13).
//!
//! The Blelloch et al. §5 observation, reproduced on the metered
//! machine: classic cache-efficient tilings balance reads and writes,
//! but under `ω`-priced writes the optimal tile geometry changes — it
//! pays to keep the *output* tile resident (writing each `C` tile
//! exactly once) even though squeezing three tiles into memory shrinks
//! the tile side and inflates the read term. Two tilings bracket the
//! trade, over the same block-major padded-tile layout:
//!
//! * [`matmul_tiled`] — the write-avoiding tiling: `C(i,j)` accumulates
//!   in internal memory across the whole `k` loop and is written once.
//!   Three tiles must fit (`3·⌈t²/B⌉·B ≤ M`), so the tile side `t` is
//!   smaller: reads `2H³·bt`, writes `H²·bt` (`H = ⌈d/t⌉` tiles per
//!   side, `bt = ⌈t²/B⌉` blocks per tile).
//! * [`matmul_stream`] — the standard streaming tiling: only `A` and
//!   `B` tiles stay resident (plus one `C` block), so `t` is larger and
//!   the read term smaller — but `C` is read-modified-written once per
//!   `k` step: reads `2H³·bt`, writes `H³·bt`.
//!
//! Both schedules are pure functions of `(d, t)` — never of the matrix
//! entries — so both tilings are ghost-sound with *exact*-schedule
//! predictors ([`tiled_cost`], [`stream_cost`]). Configs too small to
//! hold the working set (`M < 3B` resp. `M < 2B + B`) are rejected and
//! priced off the menu.
//!
//! Matrices are laid out tile-major: tile `(I,J)` occupies blocks
//! `[(I·H+J)·bt, …)`, each tile row-major `t×t` zero-padded to `bt·B`
//! elements so tiles align to block boundaries. [`pad_tiles`] /
//! [`extract`] convert to and from the plain row-major form the oracle
//! speaks.

use aem_machine::{AemAccess, AemConfig, Cost, Region, Result};
use aem_workloads::matmul::isqrt;

use crate::spmv::InstallExt;

/// Largest tile side `t ≥ 1` whose working set fits internal memory:
/// `ways` padded tiles plus `extra` elements, i.e.
/// `ways·⌈t²/B⌉·B + extra ≤ M`. `None` when even `t = 1` overflows.
pub fn tile_side(cfg: AemConfig, ways: usize, extra: usize) -> Option<usize> {
    let fits = |t: usize| ways * (t * t).div_ceil(cfg.block) * cfg.block + extra <= cfg.memory;
    if !fits(1) {
        return None;
    }
    let mut t = 1;
    while fits(t + 1) {
        t += 1;
    }
    Some(t)
}

/// Re-shape a `d×d` row-major matrix into the padded tile-major layout
/// for tile side `t`: `H²` tiles of `bt·B` elements each, tile `(I,J)`
/// row-major with zeros outside the matrix and after `t²`.
pub fn pad_tiles(d: usize, t: usize, b: usize, rowmajor: &[u64]) -> Vec<u64> {
    assert_eq!(rowmajor.len(), d * d);
    let h = d.div_ceil(t);
    let bt = (t * t).div_ceil(b);
    let mut out = vec![0u64; h * h * bt * b];
    for (idx, &v) in rowmajor.iter().enumerate() {
        let (row, col) = (idx / d, idx % d);
        let (ti, tj) = (row / t, col / t);
        let (x, y) = (row % t, col % t);
        out[(ti * h + tj) * bt * b + x * t + y] = v;
    }
    out
}

/// Inverse of [`pad_tiles`]: recover the `d×d` row-major matrix from a
/// padded tile-major image.
pub fn extract(d: usize, t: usize, b: usize, padded: &[u64]) -> Vec<u64> {
    let h = d.div_ceil(t);
    let bt = (t * t).div_ceil(b);
    let mut out = vec![0u64; d * d];
    for row in 0..d {
        for col in 0..d {
            let (ti, tj) = (row / t, col / t);
            let (x, y) = (row % t, col % t);
            out[row * d + col] = padded[(ti * h + tj) * bt * b + x * t + y];
        }
    }
    out
}

/// Evict whatever tile `buf` holds and read tile `idx` of `mat` in its
/// place (`bt` block reads; the previous occupancy is discarded first).
fn load_tile<A>(m: &mut A, mat: Region, idx: usize, bt: usize, buf: &mut Vec<u64>) -> Result<()>
where
    A: AemAccess<u64> + ?Sized,
{
    if !buf.is_empty() {
        m.discard(buf.len())?;
    }
    m.read_run(mat.block(idx * bt), bt, buf)?;
    Ok(())
}

/// `c += a·b` over a run of the product of row-major `t×t` tiles, in
/// wrapping `u64` arithmetic: `c` holds the product's elements
/// `lo..lo + c.len()` (a whole tile at `lo = 0`, one block of it in the
/// streaming tiling), and `a` and `b` hold at least `t²` elements. Each
/// row segment of the run takes four rank-1 updates per pass, one per
/// row of `b` in the group `z..z+4` (sliced to the segment's columns),
/// so each `c` element is loaded and stored once per four multiply-adds;
/// a group whose four `a[x][z]` are all zero is skipped (ghost tiles are
/// all zeros). Wrapping arithmetic is exact mod 2^64, so neither the
/// grouping nor the cut into segments changes the product.
fn tile_product(t: usize, lo: usize, a: &[u64], b: &[u64], c: &mut [u64]) {
    let (mut idx, mut rest) = (lo, c);
    while !rest.is_empty() {
        let (x, y) = (idx / t, idx % t);
        let len = (t - y).min(rest.len());
        let (seg, tail) = std::mem::take(&mut rest).split_at_mut(len);
        let brow = |z: usize| &b[z * t + y..z * t + y + len];
        let agroups = a[x * t..(x + 1) * t].chunks_exact(4);
        let arest = agroups.remainder();
        for (q, ag) in agroups.enumerate() {
            let (a0, a1, a2, a3) = (ag[0], ag[1], ag[2], ag[3]);
            if a0 | a1 | a2 | a3 == 0 {
                continue;
            }
            let z = 4 * q;
            let rows = brow(z)
                .iter()
                .zip(brow(z + 1))
                .zip(brow(z + 2))
                .zip(brow(z + 3));
            for (cv, (((&x0, &x1), &x2), &x3)) in seg.iter_mut().zip(rows) {
                *cv = cv
                    .wrapping_add(a0.wrapping_mul(x0))
                    .wrapping_add(a1.wrapping_mul(x1))
                    .wrapping_add(a2.wrapping_mul(x2))
                    .wrapping_add(a3.wrapping_mul(x3));
            }
        }
        for (z, &av) in (t - arest.len()..t).zip(arest) {
            if av != 0 {
                for (cv, &x) in seg.iter_mut().zip(brow(z)) {
                    *cv = cv.wrapping_add(av.wrapping_mul(x));
                }
            }
        }
        (idx, rest) = (idx + len, tail);
    }
}

/// The write-avoiding tiling: `C(i,j)` stays resident across the `k`
/// loop and is written exactly once. Returns the padded tile-major
/// product region and the tile side used (feed it to [`extract`]).
/// Exactly [`tiled_cost`].
pub fn matmul_tiled<A>(m: &mut A, d: usize, a: &[u64], b: &[u64]) -> Result<(Region, usize)>
where
    A: AemAccess<u64> + InstallExt<u64> + ?Sized,
{
    let cfg = m.cfg();
    let t = tile_side(cfg, 3, 0)
        .ok_or(aem_machine::MachineError::InvalidConfig(
            "write-avoiding tiling needs three tiles resident (M >= 3B)",
        ))?
        .min(d);
    let (blk, bt, h) = (cfg.block, (t * t).div_ceil(cfg.block), d.div_ceil(t));
    let ar = m.install_atoms(&pad_tiles(d, t, blk, a));
    let br = m.install_atoms(&pad_tiles(d, t, blk, b));
    let cr = m.alloc_region(h * h * bt * blk);
    let (mut abuf, mut bbuf) = (Vec::new(), Vec::new());
    m.phase_enter("multiply");
    for i in 0..h {
        for j in 0..h {
            m.reserve(bt * blk)?;
            let mut ctile = vec![0u64; bt * blk];
            for k in 0..h {
                load_tile(m, ar, i * h + k, bt, &mut abuf)?;
                load_tile(m, br, k * h + j, bt, &mut bbuf)?;
                tile_product(t, 0, &abuf, &bbuf, &mut ctile[..t * t]);
            }
            m.write_run(cr.block((i * h + j) * bt), &ctile)?;
        }
    }
    m.discard(abuf.len())?;
    m.discard(bbuf.len())?;
    m.phase_exit();
    Ok((cr, t))
}

/// The standard streaming tiling: larger tiles (only `A`, `B` and one
/// `C` block resident), with `C` read-modified-written once per `k`
/// step. Exactly [`stream_cost`].
pub fn matmul_stream<A>(m: &mut A, d: usize, a: &[u64], b: &[u64]) -> Result<(Region, usize)>
where
    A: AemAccess<u64> + InstallExt<u64> + ?Sized,
{
    let cfg = m.cfg();
    let t = tile_side(cfg, 2, cfg.block)
        .ok_or(aem_machine::MachineError::InvalidConfig(
            "streaming tiling needs two tiles plus a block resident (M >= 3B)",
        ))?
        .min(d);
    let (blk, bt, h) = (cfg.block, (t * t).div_ceil(cfg.block), d.div_ceil(t));
    let ar = m.install_atoms(&pad_tiles(d, t, blk, a));
    let br = m.install_atoms(&pad_tiles(d, t, blk, b));
    let cr = m.alloc_region(h * h * bt * blk);
    let (mut abuf, mut bbuf, mut cbuf) = (Vec::new(), Vec::new(), Vec::new());
    m.phase_enter("multiply");
    for k in 0..h {
        for i in 0..h {
            load_tile(m, ar, i * h + k, bt, &mut abuf)?;
            for j in 0..h {
                load_tile(m, br, k * h + j, bt, &mut bbuf)?;
                let base = (i * h + j) * bt;
                for cb in 0..bt {
                    if k == 0 {
                        m.reserve(blk)?;
                        cbuf.clear();
                        cbuf.resize(blk, 0);
                    } else {
                        m.read_block_into(cr.block(base + cb), &mut cbuf)?;
                    }
                    let (lo, hi) = (cb * blk, ((cb + 1) * blk).min(t * t));
                    tile_product(t, lo, &abuf, &bbuf, &mut cbuf[..hi - lo]);
                    m.write_block(cr.block(base + cb), std::mem::take(&mut cbuf))?;
                }
            }
        }
    }
    m.discard(abuf.len())?;
    m.discard(bbuf.len())?;
    m.phase_exit();
    Ok((cr, t))
}

/// Exact schedule cost of [`matmul_tiled`]: with `t` from
/// [`tile_side`]`(cfg, 3, 0)` capped at `d`, `H = ⌈d/t⌉`,
/// `bt = ⌈t²/B⌉`: reads `2H³·bt`, writes `H²·bt`. `None` when no tile
/// fits (`M < 3B`).
pub fn tiled_cost(cfg: AemConfig, n: usize, _delta: usize) -> Option<Cost> {
    let d = isqrt(n).max(1);
    let t = tile_side(cfg, 3, 0)?.min(d);
    let bt = (t * t).div_ceil(cfg.block) as u64;
    let h = d.div_ceil(t) as u64;
    Some(Cost {
        reads: 2 * h * h * h * bt,
        writes: h * h * bt,
    })
}

/// Exact schedule cost of [`matmul_stream`]: with `t` from
/// [`tile_side`]`(cfg, 2, B)` capped at `d`: reads `2H³·bt` (A tiles
/// `H²`, B tiles `H³`, C re-reads `(H−1)H²`), writes `H³·bt`. `None`
/// when no tile fits.
pub fn stream_cost(cfg: AemConfig, n: usize, _delta: usize) -> Option<Cost> {
    let d = isqrt(n).max(1);
    let t = tile_side(cfg, 2, cfg.block)?.min(d);
    let bt = (t * t).div_ceil(cfg.block) as u64;
    let h = d.div_ceil(t) as u64;
    Some(Cost {
        reads: 2 * h * h * h * bt,
        writes: h * h * h * bt,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::matmul_reference;
    use aem_machine::Machine;
    use aem_workloads::matmul_instance;

    fn cfg(mem: usize, block: usize, omega: u64) -> AemConfig {
        AemConfig::new(mem, block, omega).unwrap()
    }

    #[test]
    fn pad_and_extract_round_trip() {
        for (d, t, b) in [(5usize, 2usize, 4usize), (7, 7, 8), (1, 3, 2), (42, 17, 64)] {
            let m: Vec<u64> = (0..d as u64 * d as u64).collect();
            assert_eq!(extract(d, t.min(d), b, &pad_tiles(d, t.min(d), b, &m)), m);
        }
    }

    #[test]
    fn tile_product_matches_a_triple_loop() {
        let mut rng = aem_workloads::SplitMix64::seed_from_u64(0x711e);
        for t in 1..=13usize {
            // Padding after t² must survive untouched.
            let pad = 3;
            let mut tile = |zeros: bool| -> Vec<u64> {
                (0..t * t + pad)
                    .map(|i| {
                        if zeros && (i / t) % 3 == 1 {
                            0
                        } else {
                            rng.next_u64()
                        }
                    })
                    .collect()
            };
            for zeros in [false, true] {
                let (a, b, c0) = (tile(zeros), tile(false), tile(false));
                let mut want = c0.clone();
                for x in 0..t {
                    for y in 0..t {
                        for z in 0..t {
                            let p = a[x * t + z].wrapping_mul(b[z * t + y]);
                            want[x * t + y] = want[x * t + y].wrapping_add(p);
                        }
                    }
                }
                // A whole tile, then the streaming kernel's runs of one
                // block: rows split across runs and runs spanning rows.
                for blk in [t * t, 1, 3, 4, t, t + 5] {
                    let mut got = c0.clone();
                    for (cb, run) in got[..t * t].chunks_mut(blk).enumerate() {
                        tile_product(t, cb * blk, &a, &b, run);
                    }
                    assert_eq!(got, want, "t={t} zeros={zeros} blk={blk}");
                }
            }
        }
    }

    #[test]
    fn both_tilings_match_the_oracle() {
        // Tile sides (tiled / stream): 17/17 (capped at d), 4/4 and 1/1,
        // then 2/2, 3/3, 6/6 and 7/7 at M = 3B, and 19/24 on the larger
        // matrix. Seeds 2 and 5 give instances whose A rows are all zero
        // but one.
        let shapes = [
            (1024usize, 64usize, 300usize),
            (64, 8, 300),
            (64, 8, 1),
            (24, 8, 300),
            (27, 9, 300),
            (108, 36, 300),
            (147, 49, 300),
            (1216, 64, 1764),
        ];
        let (mut residues, mut small) = ([[false; 4]; 2], [false; 2]);
        for seed in [0u64, 1, 2, 5] {
            for &(mem, block, n) in &shapes {
                let inst = matmul_instance(n, seed);
                let want = matmul_reference(inst.d, &inst.a, &inst.b);
                for stream in [false, true] {
                    let c = cfg(mem, block, 16);
                    let mut m = Machine::<u64>::new(c);
                    let (cr, t) = if stream {
                        matmul_stream(&mut m, inst.d, &inst.a, &inst.b).unwrap()
                    } else {
                        matmul_tiled(&mut m, inst.d, &inst.a, &inst.b).unwrap()
                    };
                    let got = extract(inst.d, t, c.block, &m.inspect(cr));
                    assert_eq!(got, want, "stream={stream} n={n} seed={seed}");
                    assert_eq!(m.internal_used(), 0, "leaked budget");
                    residues[usize::from(stream)][t % 4] = true;
                    small[usize::from(stream)] |= t < 4;
                }
            }
        }
        assert_eq!(residues, [[true; 4]; 2], "every tile side mod 4");
        assert_eq!(small, [true; 2], "a tile side below 4");
    }

    #[test]
    fn costs_are_exact_schedules() {
        for &(mem, block, n) in &[(1024usize, 64usize, 1764usize), (64, 8, 300), (32, 4, 50)] {
            let c = cfg(mem, block, 16);
            let inst = matmul_instance(n, 3);
            for stream in [false, true] {
                let mut m = Machine::<u64>::new(c);
                if stream {
                    matmul_stream(&mut m, inst.d, &inst.a, &inst.b).unwrap();
                } else {
                    matmul_tiled(&mut m, inst.d, &inst.a, &inst.b).unwrap();
                }
                let predict = if stream { stream_cost } else { tiled_cost }(c, n, 0).unwrap();
                assert_eq!(m.cost(), predict, "stream={stream} n={n}");
            }
        }
    }

    #[test]
    fn tiny_memory_rejects_both_tilings() {
        // M = 2B cannot hold even a 1×1 tile working set.
        let c = cfg(16, 8, 4);
        assert!(tiled_cost(c, 100, 0).is_none());
        assert!(stream_cost(c, 100, 0).is_none());
        let inst = matmul_instance(100, 0);
        let mut m = Machine::<u64>::new(c);
        assert!(matmul_tiled(&mut m, inst.d, &inst.a, &inst.b).is_err());
    }

    #[test]
    fn crossover_tiled_vs_stream_in_omega() {
        // d=42 at (M=1024, B=64): the stream tiling affords t=21 (H=2)
        // vs the write-avoiding t=17 (H=3), so it reads less (112 vs
        // 270 blocks) but writes more (56 vs 45). The Q lines cross
        // near ω* ≈ 14.4.
        let q = |k: fn(AemConfig, usize, usize) -> Option<Cost>, omega: u64| {
            k(cfg(1024, 64, omega), 1764, 0).unwrap().q(omega)
        };
        assert!(q(stream_cost, 1) < q(tiled_cost, 1));
        assert!(q(stream_cost, 8) < q(tiled_cost, 8));
        assert!(q(tiled_cost, 16) < q(stream_cost, 16));
        assert!(q(tiled_cost, 64) < q(stream_cost, 64));
    }
}
