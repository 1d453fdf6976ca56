//! I/O cost accounting.
//!
//! The AEM cost of a computation performing `Q_r` read I/Os and `Q_w` write
//! I/Os is `Q = Q_r + ω·Q_w`. The simulators meter every block transfer
//! through an [`IoCounter`]; several memories (e.g. the data store and the
//! auxiliary pointer store used by the §3 merge) can share one counter so
//! that *all* I/O an algorithm performs is charged to a single budget.

use std::cell::Cell;
use std::rc::Rc;

/// An immutable snapshot of I/O counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Cost {
    /// Number of read I/Os (`Q_r`).
    pub reads: u64,
    /// Number of write I/Os (`Q_w`).
    pub writes: u64,
}

impl Cost {
    /// A zero cost.
    pub const ZERO: Cost = Cost {
        reads: 0,
        writes: 0,
    };

    /// Construct from explicit counts.
    pub fn new(reads: u64, writes: u64) -> Self {
        Self { reads, writes }
    }

    /// The AEM cost `Q = Q_r + ω·Q_w`, saturating at `u64::MAX`: a huge
    /// `ω` (any `ω ≥ 1` is a valid configuration) or a huge hypothetical
    /// write count prices as "unaffordable", never as a wrapped small Q.
    #[inline]
    pub fn q(&self, omega: u64) -> u64 {
        self.reads.saturating_add(omega.saturating_mul(self.writes))
    }

    /// The AEM cost `Q = Q_r + ω·Q_w` exactly: `u128` holds it for every
    /// `u64` count and `ω`, so prices that [`Cost::q`] saturates to the
    /// same `u64::MAX` still compare by their true size.
    #[inline]
    pub fn q_exact(&self, omega: u64) -> u128 {
        self.reads as u128 + omega as u128 * self.writes as u128
    }

    /// Total number of I/Os regardless of direction (the symmetric EM cost).
    #[inline]
    pub fn total_ios(&self) -> u64 {
        self.reads + self.writes
    }

    /// Alias of [`Cost::q`], which saturates.
    #[inline]
    pub fn q_saturating(&self, omega: u64) -> u64 {
        self.q(omega)
    }

    /// Component-wise difference; saturates at zero (used to attribute cost
    /// to phases by snapshotting before/after).
    pub fn since(&self, earlier: Cost) -> Cost {
        Cost {
            reads: self.reads.saturating_sub(earlier.reads),
            writes: self.writes.saturating_sub(earlier.writes),
        }
    }
}

impl std::ops::Add for Cost {
    type Output = Cost;
    fn add(self, rhs: Cost) -> Cost {
        Cost {
            reads: self.reads + rhs.reads,
            writes: self.writes + rhs.writes,
        }
    }
}

impl std::ops::AddAssign for Cost {
    fn add_assign(&mut self, rhs: Cost) {
        self.reads += rhs.reads;
        self.writes += rhs.writes;
    }
}

impl std::iter::Sum for Cost {
    fn sum<I: Iterator<Item = Cost>>(iter: I) -> Cost {
        iter.fold(Cost::ZERO, |a, b| a + b)
    }
}

impl std::fmt::Display for Cost {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} reads + {} writes", self.reads, self.writes)
    }
}

/// A shared, cloneable I/O meter.
///
/// Cloning an `IoCounter` yields a handle to the *same* underlying counts:
/// the data memory, the auxiliary pointer memory and any instrumentation
/// wrapper all charge the same budget. The counter is single-threaded by
/// design (machines are per-thread; parameter sweeps parallelize at the
/// machine granularity).
#[derive(Debug, Clone, Default)]
pub struct IoCounter {
    reads: Rc<Cell<u64>>,
    writes: Rc<Cell<u64>>,
}

impl IoCounter {
    /// A fresh counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Charge one read I/O.
    #[inline]
    pub fn charge_read(&self) {
        self.reads.set(self.reads.get() + 1);
    }

    /// Charge one write I/O.
    #[inline]
    pub fn charge_write(&self) {
        self.writes.set(self.writes.get() + 1);
    }

    /// Charge several reads at once.
    #[inline]
    pub fn charge_reads(&self, k: u64) {
        self.reads.set(self.reads.get() + k);
    }

    /// Charge several writes at once.
    #[inline]
    pub fn charge_writes(&self, k: u64) {
        self.writes.set(self.writes.get() + k);
    }

    /// Snapshot the current counts.
    pub fn snapshot(&self) -> Cost {
        Cost {
            reads: self.reads.get(),
            writes: self.writes.get(),
        }
    }

    /// Reset both counts to zero.
    pub fn reset(&self) {
        self.reads.set(0);
        self.writes.set(0);
    }

    /// `true` if this handle shares state with `other`.
    pub fn shares_with(&self, other: &IoCounter) -> bool {
        Rc::ptr_eq(&self.reads, &other.reads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn q_weights_writes_by_omega() {
        let c = Cost::new(10, 3);
        assert_eq!(c.q(1), 13);
        assert_eq!(c.q(16), 10 + 48);
        assert_eq!(c.total_ios(), 13);
    }

    #[test]
    fn q_saturating_matches_q_then_clamps() {
        let c = Cost::new(10, 3);
        assert_eq!(c.q_saturating(16), c.q(16));
        // ω·writes alone overflows; the sum clamps instead of wrapping.
        let huge = Cost::new(7, u64::MAX / 2);
        assert_eq!(huge.q_saturating(u64::MAX), u64::MAX);
        assert_eq!(Cost::new(u64::MAX, 1).q_saturating(2), u64::MAX);
        assert_eq!(huge.q(u64::MAX), u64::MAX);
        assert_eq!(Cost::new(u64::MAX, 1).q(2), u64::MAX);
    }

    #[test]
    fn q_exact_orders_prices_that_saturate() {
        assert_eq!(Cost::new(10, 3).q_exact(16), 58);
        let (few_writes, many_writes) = (Cost::new(1000, 2), Cost::new(0, 3));
        assert_eq!(few_writes.q(u64::MAX), many_writes.q(u64::MAX));
        assert!(few_writes.q_exact(u64::MAX) < many_writes.q_exact(u64::MAX));
        let max = Cost::new(u64::MAX, u64::MAX).q_exact(u64::MAX);
        assert_eq!(max, u128::from(u64::MAX) << 64);
    }

    #[test]
    fn shared_handles_see_each_other() {
        let a = IoCounter::new();
        let b = a.clone();
        a.charge_read();
        b.charge_write();
        b.charge_writes(2);
        assert_eq!(a.snapshot(), Cost::new(1, 3));
        assert!(a.shares_with(&b));
        let c = IoCounter::new();
        assert!(!a.shares_with(&c));
    }

    #[test]
    fn since_attributes_phases() {
        let ctr = IoCounter::new();
        ctr.charge_reads(5);
        let before = ctr.snapshot();
        ctr.charge_reads(2);
        ctr.charge_write();
        assert_eq!(ctr.snapshot().since(before), Cost::new(2, 1));
    }

    #[test]
    fn cost_sums() {
        let total: Cost = [Cost::new(1, 2), Cost::new(3, 4)].into_iter().sum();
        assert_eq!(total, Cost::new(4, 6));
        let mut t = Cost::ZERO;
        t += Cost::new(1, 1);
        assert_eq!(t, Cost::new(1, 1));
    }

    #[test]
    fn reset_zeroes() {
        let ctr = IoCounter::new();
        ctr.charge_read();
        ctr.reset();
        assert_eq!(ctr.snapshot(), Cost::ZERO);
    }
}
