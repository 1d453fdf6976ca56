//! External-memory layout of SpMxV instances.
//!
//! The paper's input convention (§5): the non-zero entries of `A` are
//! stored column-major as triples `(i, j, a_ij)`; the structure (the
//! *conformation*) is fixed per program, so row/column indices are program
//! knowledge — but the semiring **atoms** (`a_ij`, `x_j`, and all partial
//! sums) physically live in external memory and must be moved through the
//! machine. A [`MatEntry`] is one such atom together with its row tag
//! (the analysis traces atoms by the row they belong to, see the proof of
//! Theorem 5.1: "it is sufficient to trace the program by marking for each
//! atom the row it belongs to").

use aem_machine::{AemAccess, Region};
use aem_workloads::Conformation;

use super::semiring::Semiring;

/// One semiring atom tagged with the row it belongs to.
///
/// Ordering compares the row tag only: the sorting-based algorithm sorts
/// atoms by row, and the `(run, position)` tags of the §3 merge break the
/// ties, so equal rows never need a value comparison (values of a general
/// semiring are not ordered).
#[derive(Debug, Clone, Default)]
pub struct MatEntry<S> {
    /// Row index `i` of the atom.
    pub row: u64,
    /// The semiring value (an input `a_ij`, an input `x_j` — tagged with
    /// its index — or a partial sum of row `i`).
    pub val: S,
}

impl<S> PartialEq for MatEntry<S> {
    fn eq(&self, other: &Self) -> bool {
        self.row == other.row
    }
}
impl<S> Eq for MatEntry<S> {}
impl<S> PartialOrd for MatEntry<S> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<S> Ord for MatEntry<S> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.row.cmp(&other.row)
    }
}

/// A complete SpMxV problem instance: structure plus values.
#[derive(Debug, Clone)]
pub struct SpmvInstance<'a, S> {
    /// The fixed matrix structure (column-major, `δ` per column).
    pub conf: &'a Conformation,
    /// Values `a_ij` in the conformation's (column-major) triple order.
    pub a_vals: &'a [S],
    /// The dense input vector `x`.
    pub x: &'a [S],
}

impl<'a, S: Semiring> SpmvInstance<'a, S> {
    /// Validate dimensions.
    pub fn validate(&self) -> Result<(), String> {
        if self.a_vals.len() != self.conf.nnz() {
            return Err(format!(
                "a_vals has {} entries, conformation has {}",
                self.a_vals.len(),
                self.conf.nnz()
            ));
        }
        if self.x.len() != self.conf.n {
            return Err(format!(
                "x has {} entries, n = {}",
                self.x.len(),
                self.conf.n
            ));
        }
        Ok(())
    }
}

/// Install an instance into a machine (free: problem setup). Returns the
/// regions of `A` (column-major entry atoms) and `x` (index-tagged atoms).
pub fn install_instance<S, A>(machine: &mut A, inst: &SpmvInstance<'_, S>) -> (Region, Region)
where
    S: Semiring,
    A: AemAccess<MatEntry<S>> + InstallExt<MatEntry<S>>,
{
    let a_atoms: Vec<MatEntry<S>> = inst
        .conf
        .triples
        .iter()
        .zip(inst.a_vals.iter())
        .map(|(t, v)| MatEntry {
            row: t.row as u64,
            val: v.clone(),
        })
        .collect();
    let x_atoms: Vec<MatEntry<S>> = inst
        .x
        .iter()
        .enumerate()
        .map(|(j, v)| MatEntry {
            row: j as u64,
            val: v.clone(),
        })
        .collect();
    (
        machine.install_atoms(&a_atoms),
        machine.install_atoms(&x_atoms),
    )
}

/// Free installation hook implemented by both machine flavours, so the
/// SpMxV drivers are generic over [`AemAccess`] implementations.
pub trait InstallExt<T> {
    /// Install `data` into fresh external blocks without charging I/O.
    fn install_atoms(&mut self, data: &[T]) -> Region;
}

impl<T, A: InstallExt<T> + ?Sized> InstallExt<T> for &mut A {
    fn install_atoms(&mut self, data: &[T]) -> Region {
        (**self).install_atoms(data)
    }
}

impl<T, S, A, K> InstallExt<T> for aem_machine::MachineCore<T, S, A, K>
where
    T: Clone,
    S: aem_machine::BlockStore<T>,
    A: aem_machine::BlockStore<u64>,
    K: aem_machine::Observer,
{
    fn install_atoms(&mut self, data: &[T]) -> Region {
        self.install(data)
    }
}

impl<T, S, A> InstallExt<T> for aem_machine::RoundBasedMachine<T, S, A>
where
    T: Clone,
    S: aem_machine::BlockStore<T>,
    A: aem_machine::BlockStore<u64>,
{
    fn install_atoms(&mut self, data: &[T]) -> Region {
        self.install(data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spmv::semiring::U64Ring;
    use aem_machine::{AemConfig, Machine};
    use aem_workloads::MatrixShape;

    #[test]
    fn install_round_trips() {
        let conf = Conformation::generate(MatrixShape::Random { seed: 1 }, 16, 2);
        let a_vals: Vec<U64Ring> = (0..32).map(U64Ring).collect();
        let x: Vec<U64Ring> = (0..16).map(U64Ring).collect();
        let inst = SpmvInstance {
            conf: &conf,
            a_vals: &a_vals,
            x: &x,
        };
        inst.validate().unwrap();

        let mut m: Machine<MatEntry<U64Ring>> = Machine::new(AemConfig::new(16, 4, 2).unwrap());
        let (ra, rx) = install_instance(&mut m, &inst);
        assert_eq!(ra.elems, 32);
        assert_eq!(rx.elems, 16);
        let back = m.inspect(ra);
        assert_eq!(back[0].row, conf.triples[0].row as u64);
        assert_eq!(back[5].val, U64Ring(5));
    }

    #[test]
    fn validate_catches_mismatches() {
        let conf = Conformation::generate(MatrixShape::Random { seed: 2 }, 8, 2);
        let short: Vec<U64Ring> = vec![U64Ring(1); 3];
        let x: Vec<U64Ring> = vec![U64Ring(1); 8];
        assert!(SpmvInstance {
            conf: &conf,
            a_vals: &short,
            x: &x
        }
        .validate()
        .is_err());
        let a: Vec<U64Ring> = vec![U64Ring(1); 16];
        let bad_x: Vec<U64Ring> = vec![U64Ring(1); 9];
        assert!(SpmvInstance {
            conf: &conf,
            a_vals: &a,
            x: &bad_x
        }
        .validate()
        .is_err());
    }

    #[test]
    fn entry_ordering_is_by_row() {
        let a = MatEntry {
            row: 3,
            val: U64Ring(100),
        };
        let b = MatEntry {
            row: 5,
            val: U64Ring(1),
        };
        let c = MatEntry {
            row: 3,
            val: U64Ring(999),
        };
        assert!(a < b);
        assert_eq!(a, c);
    }
}
