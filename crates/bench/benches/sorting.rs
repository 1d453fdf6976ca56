//! Wall-clock throughput of the sorting stack on the simulator.
//!
//! The I/O-cost tables are exact and deterministic (see `run_all`);
//! these benches cover the orthogonal question of how fast the simulator
//! itself executes — the number a user adopting the library for
//! experimentation cares about.

use aem_bench::timing::bench_with_elems;
use aem_core::sort::{em_merge_sort, merge_sort};
use aem_machine::{AemConfig, Machine};
use aem_workloads::KeyDist;

fn main() {
    for &n in &[1usize << 12, 1 << 14, 1 << 16] {
        let input = KeyDist::Uniform { seed: 1 }.generate(n);
        let cfg = AemConfig::new(256, 16, 16).unwrap();
        bench_with_elems(&format!("merge_sort/aem_w16/{n}"), n as u64, || {
            let mut m: Machine<u64> = Machine::new(cfg);
            let r = m.install(&input);
            merge_sort(&mut m, r).unwrap()
        });
        bench_with_elems(&format!("merge_sort/em_baseline/{n}"), n as u64, || {
            let mut m: Machine<u64> = Machine::new(cfg);
            let r = m.install(&input);
            em_merge_sort(&mut m, r).unwrap()
        });
    }

    let n = 1usize << 14;
    let input = KeyDist::Uniform { seed: 2 }.generate(n);
    for &omega in &[1u64, 16, 256] {
        let cfg = AemConfig::new(64, 8, omega).unwrap();
        bench_with_elems(&format!("merge_sort_omega/{omega}"), n as u64, || {
            let mut m: Machine<u64> = Machine::new(cfg);
            let r = m.install(&input);
            merge_sort(&mut m, r).unwrap()
        });
    }
}
