//! Operation-count accounting.
//!
//! Every "computational cost" number in the MOPED evaluation (Figs 3, 6, 8,
//! 10, 14, 16, 19) is a count of arithmetic work. This module defines the
//! single ledger type all kernels charge into, so algorithm variants can be
//! compared on exactly the same basis, and so the hardware model can map
//! counted work onto its 168-MAC datapath.

use std::fmt;
use std::ops::{Add, AddAssign, Mul, Sub};

/// An additive ledger of primitive operations.
///
/// # Example
///
/// ```
/// use moped_geometry::OpCount;
/// let mut a = OpCount::default();
/// a.mul += 10;
/// a.add += 5;
/// assert_eq!(a.mac_equiv(), 15);
/// ```
#[derive(Clone, Copy, Default, PartialEq, Eq)]
pub struct OpCount {
    /// Multiplications.
    pub mul: u64,
    /// Additions / subtractions.
    pub add: u64,
    /// Comparisons (including min/max selections).
    pub cmp: u64,
    /// Square roots.
    pub sqrt: u64,
    /// Number of configuration-space distance calculations performed
    /// (the neighbor-search workload metric).
    pub dist_calcs: u64,
    /// Number of SAT collision-check queries issued (any granularity).
    pub sat_queries: u64,
    /// 16-bit-word memory traffic attributed to this work (reads+writes);
    /// the hardware model converts this into SRAM access energy.
    pub mem_words: u64,
}

impl OpCount {
    /// A ledger with all counters at zero.
    pub const ZERO: OpCount = OpCount {
        mul: 0,
        add: 0,
        cmp: 0,
        sqrt: 0,
        dist_calcs: 0,
        sat_queries: 0,
        mem_words: 0,
    };

    /// Total work expressed in 16-bit MAC-array-slot equivalents.
    ///
    /// A multiply and an add each occupy one MAC slot; a comparison is a
    /// subtract (one slot); a square root is iterated on the MAC array and
    /// is charged a fixed 8 slots (Newton–Raphson on 16-bit operands).
    #[inline]
    pub fn mac_equiv(&self) -> u64 {
        self.mul + self.add + self.cmp + 8 * self.sqrt
    }

    /// Resets every counter to zero.
    pub fn reset(&mut self) {
        *self = OpCount::ZERO;
    }

    /// Saturating difference, useful for "cost since checkpoint" deltas.
    pub fn saturating_sub(&self, rhs: &OpCount) -> OpCount {
        OpCount {
            mul: self.mul.saturating_sub(rhs.mul),
            add: self.add.saturating_sub(rhs.add),
            cmp: self.cmp.saturating_sub(rhs.cmp),
            sqrt: self.sqrt.saturating_sub(rhs.sqrt),
            dist_calcs: self.dist_calcs.saturating_sub(rhs.dist_calcs),
            sat_queries: self.sat_queries.saturating_sub(rhs.sat_queries),
            mem_words: self.mem_words.saturating_sub(rhs.mem_words),
        }
    }
}

impl Add for OpCount {
    type Output = OpCount;
    fn add(self, rhs: OpCount) -> OpCount {
        OpCount {
            mul: self.mul + rhs.mul,
            add: self.add + rhs.add,
            cmp: self.cmp + rhs.cmp,
            sqrt: self.sqrt + rhs.sqrt,
            dist_calcs: self.dist_calcs + rhs.dist_calcs,
            sat_queries: self.sat_queries + rhs.sat_queries,
            mem_words: self.mem_words + rhs.mem_words,
        }
    }
}

impl AddAssign for OpCount {
    fn add_assign(&mut self, rhs: OpCount) {
        *self = *self + rhs;
    }
}

impl Mul<u64> for OpCount {
    type Output = OpCount;
    /// The ledger of `n` repetitions of this work.
    fn mul(self, n: u64) -> OpCount {
        OpCount {
            mul: self.mul * n,
            add: self.add * n,
            cmp: self.cmp * n,
            sqrt: self.sqrt * n,
            dist_calcs: self.dist_calcs * n,
            sat_queries: self.sat_queries * n,
            mem_words: self.mem_words * n,
        }
    }
}

impl Sub for OpCount {
    type Output = OpCount;
    fn sub(self, rhs: OpCount) -> OpCount {
        self.saturating_sub(&rhs)
    }
}

impl fmt::Debug for OpCount {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "OpCount {{ mul: {}, add: {}, cmp: {}, sqrt: {}, dist: {}, sat: {}, mem: {}, mac_equiv: {} }}",
            self.mul, self.add, self.cmp, self.sqrt, self.dist_calcs, self.sat_queries,
            self.mem_words, self.mac_equiv()
        )
    }
}

impl fmt::Display for OpCount {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} MAC-equiv ops", self.mac_equiv())
    }
}

impl std::iter::Sum for OpCount {
    fn sum<I: Iterator<Item = OpCount>>(iter: I) -> OpCount {
        iter.fold(OpCount::ZERO, |a, b| a + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_has_zero_mac_equiv() {
        assert_eq!(OpCount::ZERO.mac_equiv(), 0);
    }

    #[test]
    fn mac_equiv_weights() {
        let c = OpCount {
            mul: 1,
            add: 2,
            cmp: 3,
            sqrt: 1,
            ..OpCount::ZERO
        };
        assert_eq!(c.mac_equiv(), 1 + 2 + 3 + 8);
    }

    #[test]
    fn addition_is_componentwise() {
        let a = OpCount {
            mul: 1,
            add: 2,
            cmp: 3,
            sqrt: 4,
            dist_calcs: 5,
            sat_queries: 6,
            mem_words: 7,
        };
        let s = a + a;
        assert_eq!(s.mul, 2);
        assert_eq!(s.mem_words, 14);
    }

    #[test]
    fn scaling_repeats_the_ledger() {
        let a = OpCount {
            mul: 1,
            add: 2,
            cmp: 3,
            sqrt: 4,
            dist_calcs: 5,
            sat_queries: 6,
            mem_words: 7,
        };
        assert_eq!(a * 3, a + a + a);
    }

    #[test]
    fn subtraction_saturates() {
        let a = OpCount {
            mul: 1,
            ..OpCount::ZERO
        };
        let b = OpCount {
            mul: 5,
            ..OpCount::ZERO
        };
        assert_eq!((a - b).mul, 0);
        assert_eq!((b - a).mul, 4);
    }

    #[test]
    fn sum_over_iterator() {
        let parts = vec![
            OpCount {
                mul: 1,
                ..OpCount::ZERO
            },
            OpCount {
                mul: 2,
                ..OpCount::ZERO
            },
            OpCount {
                mul: 3,
                ..OpCount::ZERO
            },
        ];
        let total: OpCount = parts.into_iter().sum();
        assert_eq!(total.mul, 6);
    }

    #[test]
    fn reset_clears() {
        let mut a = OpCount {
            mul: 9,
            sqrt: 9,
            ..OpCount::ZERO
        };
        a.reset();
        assert_eq!(a, OpCount::ZERO);
    }

    #[test]
    fn debug_is_nonempty() {
        assert!(!format!("{:?}", OpCount::ZERO).is_empty());
    }
}
