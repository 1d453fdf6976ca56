use aem_core::spmv::direct::spmv_direct_on;
use aem_core::spmv::layout::{install_instance, MatEntry, SpmvInstance};
use aem_core::spmv::semiring::U64Ring;
use aem_core::spmv::sorted::spmv_sorted_on;
use aem_machine::{AemAccess, AemConfig, Machine};
use aem_workloads::{Conformation, MatrixShape};

#[test]
fn spmv_ledgers_balanced() {
    for (n, delta, seed) in [
        (16usize, 1usize, 1u64),
        (32, 2, 2),
        (64, 4, 3),
        (48, 48, 4),
        (64, 16, 5),
    ] {
        let conf = Conformation::generate(MatrixShape::Random { seed }, n, delta);
        let a: Vec<U64Ring> = (0..conf.nnz()).map(|i| U64Ring(i as u64 % 19)).collect();
        let x: Vec<U64Ring> = (0..n).map(|j| U64Ring(j as u64 % 7)).collect();
        let inst = SpmvInstance {
            conf: &conf,
            a_vals: &a,
            x: &x,
        };

        let cfg = AemConfig::new(16, 4, 4).unwrap();
        let mut mac: Machine<MatEntry<U64Ring>> = Machine::new(cfg);
        let (ra, rx) = install_instance(&mut mac, &inst);
        spmv_sorted_on::<U64Ring, _>(&mut mac, &conf, ra, rx).unwrap();
        assert_eq!(
            mac.internal_used(),
            0,
            "spmv_sorted leaked n={n} delta={delta}"
        );

        let mut mac2: Machine<MatEntry<U64Ring>> = Machine::new(cfg);
        let (ra, rx) = install_instance(&mut mac2, &inst);
        spmv_direct_on::<U64Ring, _>(&mut mac2, &conf, ra, rx).unwrap();
        assert_eq!(
            mac2.internal_used(),
            0,
            "spmv_direct leaked n={n} delta={delta}"
        );
    }
}

#[test]
fn transpose_ledger_balanced() {
    use aem_core::permute::transpose::transpose_tiled;
    let cfg = AemConfig::new(32, 4, 8).unwrap();
    for (r, c) in [(4usize, 4usize), (8, 4), (4, 12), (16, 8)] {
        let values: Vec<u64> = (0..(r * c) as u64).collect();
        let mut m: Machine<u64> = Machine::new(cfg);
        let reg = m.install(&values);
        transpose_tiled(&mut m, reg, r, c).unwrap();
        assert_eq!(m.internal_used(), 0, "transpose leaked {r}x{c}");
    }
}

#[test]
fn permute_naive_ledger() {
    use aem_core::permute::naive::permute_naive_on;
    use aem_workloads::perm::PermKind;
    let cfg = AemConfig::new(16, 4, 4).unwrap();
    for n in [13usize, 64, 256] {
        let pi = PermKind::Random { seed: 9 }.generate(n);
        let values: Vec<u64> = (0..n as u64).collect();
        let mut m: Machine<u64> = Machine::new(cfg);
        let reg = m.install(&values);
        permute_naive_on(&mut m, reg, &pi).unwrap();
        assert_eq!(m.internal_used(), 0, "permute_naive leaked n={n}");
    }
}
