//! d-dimensional minimum bounding rectangles (MBRs) in configuration space.

use std::fmt;

use crate::{Config, OpCount, MAX_DOF};

/// A d-dimensional axis-aligned minimum bounding rectangle over
/// configuration-space points.
///
/// MBRs are the node payload of both MOPED trees: obstacle R-tree nodes
/// bound workspace boxes, while SI-MBR-Tree nodes bound exploration-tree
/// configurations. The paper stores each MBR as `2d` 16-bit values
/// (`d` minimum coordinates followed by `d` maximum coordinates); this type
/// is the double-precision algorithm-level equivalent.
///
/// # Example
///
/// ```
/// use moped_geometry::{Config, Rect};
/// let r = Rect::from_point(&Config::new(&[1.0, 1.0]));
/// let r = r.union_point(&Config::new(&[3.0, 0.0]));
/// assert_eq!(r.mindist_sq(&Config::new(&[2.0, 0.5]), &mut Default::default()), 0.0);
/// ```
#[derive(Clone, Copy, PartialEq)]
pub struct Rect {
    lo: Config,
    hi: Config,
}

impl Rect {
    /// A degenerate rectangle covering exactly one point.
    pub fn from_point(p: &Config) -> Self {
        Rect { lo: *p, hi: *p }
    }

    /// Creates a rectangle from explicit corners.
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ or any `lo` coordinate exceeds `hi`.
    pub fn new(lo: Config, hi: Config) -> Self {
        assert_eq!(lo.dim(), hi.dim(), "dimension mismatch");
        for i in 0..lo.dim() {
            assert!(lo[i] <= hi[i], "inverted rect on axis {i}");
        }
        Rect { lo, hi }
    }

    /// Dimensionality.
    #[inline]
    pub fn dim(&self) -> usize {
        self.lo.dim()
    }

    /// Lower corner.
    #[inline]
    pub fn lo(&self) -> &Config {
        &self.lo
    }

    /// Upper corner.
    #[inline]
    pub fn hi(&self) -> &Config {
        &self.hi
    }

    /// Center point.
    pub fn center(&self) -> Config {
        self.lo.lerp(&self.hi, 0.5)
    }

    /// Smallest rectangle containing `self` and the point `p`.
    pub fn union_point(&self, p: &Config) -> Rect {
        debug_assert_eq!(self.dim(), p.dim());
        let mut lo = self.lo;
        let mut hi = self.hi;
        for i in 0..self.dim() {
            lo.as_mut_slice()[i] = lo[i].min(p[i]);
            hi.as_mut_slice()[i] = hi[i].max(p[i]);
        }
        Rect { lo, hi }
    }

    /// Smallest rectangle containing both rectangles.
    pub fn union(&self, other: &Rect) -> Rect {
        debug_assert_eq!(self.dim(), other.dim());
        let mut lo = self.lo;
        let mut hi = self.hi;
        for i in 0..self.dim() {
            lo.as_mut_slice()[i] = lo[i].min(other.lo[i]);
            hi.as_mut_slice()[i] = hi[i].max(other.hi[i]);
        }
        Rect { lo, hi }
    }

    /// Generalized d-volume ("area" in the paper's insertion rule).
    pub fn measure(&self) -> f64 {
        let mut m = 1.0;
        for i in 0..self.dim() {
            m *= self.hi[i] - self.lo[i];
        }
        m
    }

    /// Sum of side lengths (margin), a common R-tree split tie-breaker.
    pub fn margin(&self) -> f64 {
        (0..self.dim()).map(|i| self.hi[i] - self.lo[i]).sum()
    }

    /// Point containment (boundary inclusive).
    pub fn contains_point(&self, p: &Config) -> bool {
        debug_assert_eq!(self.dim(), p.dim());
        (0..self.dim()).all(|i| p[i] >= self.lo[i] && p[i] <= self.hi[i])
    }

    /// Returns `true` if `other` lies entirely within `self`.
    pub fn contains_rect(&self, other: &Rect) -> bool {
        self.contains_point(&other.lo) && self.contains_point(&other.hi)
    }

    /// Rectangle overlap test.
    pub fn intersects(&self, other: &Rect) -> bool {
        debug_assert_eq!(self.dim(), other.dim());
        (0..self.dim()).all(|i| self.lo[i] <= other.hi[i] && self.hi[i] >= other.lo[i])
    }

    /// MINDIST²: squared minimum distance from point `q` to any point of
    /// the rectangle (Cheung & Fu 1998). Zero when `q` is inside.
    ///
    /// This is the branch-and-bound lower bound that lets SI-MBR-Tree
    /// search skip whole subtrees (§III-B): every leaf under an MBR is at
    /// least `MINDIST` away from the query.
    ///
    /// Charges per-axis clamp comparisons plus the squared-sum arithmetic.
    pub fn mindist_sq(&self, q: &Config, ops: &mut OpCount) -> f64 {
        debug_assert_eq!(self.dim(), q.dim());
        let d = self.dim();
        ops.cmp += 2 * d as u64;
        ops.mul += d as u64;
        ops.add += (2 * d - 1) as u64;
        let mut acc = 0.0;
        for i in 0..d {
            let v = q[i];
            let excess = if v < self.lo[i] {
                self.lo[i] - v
            } else if v > self.hi[i] {
                v - self.hi[i]
            } else {
                0.0
            };
            acc += excess * excess;
        }
        acc
    }

    /// MINDIST² computed directly over SoA rect planes: `lo`/`hi` are the
    /// per-axis slices of a flat arena layout, so no `Rect` value has to be
    /// materialized on the search hot path. Op charges are identical to
    /// [`Rect::mindist_sq`], and so is the result, to the bit.
    ///
    /// Each axis's excess is computed without a branch as
    /// `(lo − v).max(0) + (v − hi).max(0)`: because `lo ≤ hi`, at most one
    /// term is positive, and adding an exact zero to it changes nothing, so
    /// the sum equals the `if`/`else if` clamp of [`Rect::mindist_sq`].
    #[inline]
    pub fn mindist_sq_planes(lo: &[f64], hi: &[f64], q: &Config, ops: &mut OpCount) -> f64 {
        let d = q.dim();
        debug_assert_eq!(lo.len(), d);
        debug_assert_eq!(hi.len(), d);
        ops.cmp += 2 * d as u64;
        ops.mul += d as u64;
        ops.add += (2 * d - 1) as u64;
        let mut acc = 0.0;
        for ((&l, &h), &v) in lo.iter().zip(hi).zip(q.as_slice()) {
            let excess = (l - v).max(0.0) + (v - h).max(0.0);
            acc += excess * excess;
        }
        acc
    }

    /// Number of 16-bit words in the paper's on-chip MBR encoding (`2d`).
    pub fn encoded_words(&self) -> u64 {
        2 * self.dim() as u64
    }
}

impl fmt::Debug for Rect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Rect[{:?}..{:?}]",
            self.lo.as_slice(),
            self.hi.as_slice()
        )
    }
}

/// Builds the smallest rectangle covering an iterator of points.
///
/// Returns `None` on an empty iterator.
pub(crate) fn bounding_rect<'a, I: IntoIterator<Item = &'a Config>>(points: I) -> Option<Rect> {
    let mut it = points.into_iter();
    let first = it.next()?;
    let mut r = Rect::from_point(first);
    for p in it {
        r = r.union_point(p);
    }
    Some(r)
}

impl FromIterator<Config> for Rect {
    /// Collects points into their bounding rectangle.
    ///
    /// # Panics
    ///
    /// Panics on an empty iterator; use [`Rect::from_point`] plus unions
    /// when emptiness is possible.
    fn from_iter<I: IntoIterator<Item = Config>>(iter: I) -> Rect {
        let pts: Vec<Config> = iter.into_iter().collect();
        bounding_rect(pts.iter()).expect("cannot bound an empty point set")
    }
}

// Keep MAX_DOF referenced so the rect encoding cap is explicit.
const _: () = assert!(MAX_DOF <= 16, "MBR 16-bit encoding assumes small DoF");

#[cfg(test)]
mod tests {
    use super::*;

    fn c2(x: f64, y: f64) -> Config {
        Config::new(&[x, y])
    }

    #[test]
    fn union_point_expands() {
        let r = Rect::from_point(&c2(0.0, 0.0)).union_point(&c2(2.0, -1.0));
        assert_eq!(r.lo().as_slice(), &[0.0, -1.0]);
        assert_eq!(r.hi().as_slice(), &[2.0, 0.0]);
        assert_eq!(r.measure(), 2.0);
        assert_eq!(r.margin(), 3.0);
    }

    #[test]
    fn mindist_zero_inside() {
        let r = Rect::new(c2(0.0, 0.0), c2(2.0, 2.0));
        let mut ops = OpCount::default();
        assert_eq!(r.mindist_sq(&c2(1.0, 1.0), &mut ops), 0.0);
        assert!(ops.cmp > 0);
    }

    #[test]
    fn mindist_matches_corner_distance() {
        let r = Rect::new(c2(0.0, 0.0), c2(1.0, 1.0));
        let mut ops = OpCount::default();
        let d2 = r.mindist_sq(&c2(4.0, 5.0), &mut ops);
        assert!((d2 - (9.0 + 16.0)).abs() < 1e-12);
    }

    #[test]
    fn mindist_matches_face_distance() {
        let r = Rect::new(c2(0.0, 0.0), c2(1.0, 1.0));
        let mut ops = OpCount::default();
        let d2 = r.mindist_sq(&c2(0.5, 3.0), &mut ops);
        assert!((d2 - 4.0).abs() < 1e-12);
    }

    #[test]
    fn mindist_is_lower_bound_for_contained_points() {
        // Any point inside the rect is at least MINDIST from the query.
        let pts = [c2(0.2, 0.8), c2(0.9, 0.1), c2(0.5, 0.5)];
        let r: Rect = pts.iter().copied().collect();
        let q = c2(3.0, -2.0);
        let mut ops = OpCount::default();
        let lower = r.mindist_sq(&q, &mut ops);
        for p in &pts {
            assert!(p.distance_sq(&q) + 1e-12 >= lower);
        }
    }

    #[test]
    fn contains_and_intersects() {
        let a = Rect::new(c2(0.0, 0.0), c2(4.0, 4.0));
        let b = Rect::new(c2(1.0, 1.0), c2(2.0, 2.0));
        let c = Rect::new(c2(5.0, 5.0), c2(6.0, 6.0));
        assert!(a.contains_rect(&b));
        assert!(a.intersects(&b));
        assert!(!a.intersects(&c));
        assert!(!a.contains_rect(&c));
    }

    #[test]
    fn collect_points_into_rect() {
        let r: Rect = vec![c2(1.0, 5.0), c2(-1.0, 2.0), c2(0.0, 7.0)]
            .into_iter()
            .collect();
        assert_eq!(r.lo().as_slice(), &[-1.0, 2.0]);
        assert_eq!(r.hi().as_slice(), &[1.0, 7.0]);
    }

    #[test]
    #[should_panic(expected = "inverted rect")]
    fn inverted_rect_rejected() {
        let _ = Rect::new(c2(1.0, 0.0), c2(0.0, 1.0));
    }

    #[test]
    fn encoded_words_is_2d() {
        let r = Rect::from_point(&Config::zeros(7));
        assert_eq!(r.encoded_words(), 14);
    }

    #[test]
    fn center_is_midpoint() {
        let r = Rect::new(c2(0.0, 2.0), c2(4.0, 6.0));
        assert_eq!(r.center().as_slice(), &[2.0, 4.0]);
    }
}
