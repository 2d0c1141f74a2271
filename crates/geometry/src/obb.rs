//! Oriented bounding boxes in the workspace.

use std::fmt;

use crate::{Aabb, Mat3, OpCount, Vec3};

/// An oriented bounding box (OBB) in 3D workspace coordinates.
///
/// OBBs are the tight-fitting representation MOPED uses for robot bodies
/// everywhere, and for obstacles in the exact *second* collision stage.
/// The paper encodes a 3D OBB as 15 values (center 3, halfwidths 3,
/// rotation 9) and a 2D OBB as 8 values (center 2, halfwidths 2, rotation
/// 4); the [`Obb::planar`] flag records which encoding (and hence which SAT
/// cost) applies.
///
/// # Example
///
/// ```
/// use moped_geometry::{Obb, Vec3};
/// let a = Obb::axis_aligned(Vec3::ZERO, Vec3::splat(1.0));
/// let b = Obb::from_euler(Vec3::new(1.0, 1.0, 0.0), Vec3::splat(1.0), 0.5, 0.0, 0.0);
/// assert!(a.intersects(&b));
/// ```
#[derive(Clone, Copy, PartialEq)]
pub struct Obb {
    center: Vec3,
    half: Vec3,
    rot: Mat3,
    planar: bool,
}

impl Obb {
    /// Creates an OBB from center, positive halfwidth extents, and a
    /// rotation whose columns are the box's local axes.
    ///
    /// # Panics
    ///
    /// Panics if any halfwidth is negative.
    #[inline]
    pub fn new(center: Vec3, half: Vec3, rot: Mat3) -> Self {
        assert!(
            half.x >= 0.0 && half.y >= 0.0 && half.z >= 0.0,
            "negative halfwidth"
        );
        Obb {
            center,
            half,
            rot,
            planar: false,
        }
    }

    /// Creates an axis-aligned OBB (identity rotation).
    pub fn axis_aligned(center: Vec3, half: Vec3) -> Self {
        Obb::new(center, half, Mat3::IDENTITY)
    }

    /// Creates an OBB oriented by Z-Y-X Euler angles (yaw, pitch, roll).
    pub fn from_euler(center: Vec3, half: Vec3, yaw: f64, pitch: f64, roll: f64) -> Self {
        Obb::new(center, half, Mat3::from_euler(yaw, pitch, roll))
    }

    /// Creates a planar (2D) OBB: a rectangle in the `z = center.z` plane
    /// rotated by `theta` about Z. Planar boxes use the 4-axis 2D SAT and
    /// are charged the paper's 8-value 2D encoding cost.
    pub fn planar(center: Vec3, half_x: f64, half_y: f64, theta: f64) -> Self {
        let mut obb = Obb::new(
            center,
            Vec3::new(half_x, half_y, 0.5),
            Mat3::rotation_z(theta),
        );
        obb.planar = true;
        obb
    }

    /// Center point.
    #[inline]
    pub fn center(&self) -> Vec3 {
        self.center
    }

    /// Positive halfwidth extents along the local axes.
    #[inline]
    pub fn half_extents(&self) -> Vec3 {
        self.half
    }

    /// Orientation matrix; column `i` is local axis `i` in world frame.
    #[inline]
    pub fn rotation(&self) -> Mat3 {
        self.rot
    }

    /// Whether this box uses the planar (2D) encoding.
    #[inline]
    pub fn is_planar(&self) -> bool {
        self.planar
    }

    /// Local axis `i` (unit length for proper rotations).
    ///
    /// # Panics
    ///
    /// Panics if `i >= 3`.
    #[inline]
    pub fn axis(&self, i: usize) -> Vec3 {
        self.rot.col(i)
    }

    /// Returns a copy translated so its center is `center`.
    pub fn at_center(&self, center: Vec3) -> Obb {
        Obb { center, ..*self }
    }

    /// Returns a copy with orientation `rot` (clears nothing else).
    pub fn with_rotation(&self, rot: Mat3) -> Obb {
        Obb {
            rot,
            planar: self.planar,
            ..*self
        }
    }

    /// The 8 world-space corners.
    pub fn corners(&self) -> [Vec3; 8] {
        let ax = self.axis(0) * self.half.x;
        let ay = self.axis(1) * self.half.y;
        let az = self.axis(2) * self.half.z;
        let c = self.center;
        [
            c + ax + ay + az,
            c + ax + ay - az,
            c + ax - ay + az,
            c + ax - ay - az,
            c - ax + ay + az,
            c - ax + ay - az,
            c - ax - ay + az,
            c - ax - ay - az,
        ]
    }

    /// The tight enclosing AABB (delegates to [`Aabb::from_obb`]).
    pub fn aabb(&self) -> Aabb {
        Aabb::from_obb(self)
    }

    /// Volume of the box.
    pub fn volume(&self) -> f64 {
        8.0 * self.half.x * self.half.y * self.half.z
    }

    /// Exact point containment: transforms `p` into the local frame and
    /// compares against the halfwidths.
    pub fn contains_point(&self, p: Vec3) -> bool {
        let d = p - self.center;
        d.dot(self.axis(0)).abs() <= self.half.x + 1e-12
            && d.dot(self.axis(1)).abs() <= self.half.y + 1e-12
            && d.dot(self.axis(2)).abs() <= self.half.z + 1e-12
    }

    /// Exact OBB–OBB intersection via the Separating Axis Theorem.
    ///
    /// Convenience wrapper over [`crate::sat::obb_obb`] that discards the
    /// operation count.
    pub fn intersects(&self, other: &Obb) -> bool {
        let mut scratch = OpCount::default();
        crate::sat::obb_obb(self, other, &mut scratch)
    }

    /// Number of 16-bit words in the paper's on-chip encoding of this box
    /// (15 for 3D, 8 for 2D).
    pub fn encoded_words(&self) -> u64 {
        if self.planar {
            8
        } else {
            15
        }
    }
}

impl fmt::Debug for Obb {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Obb{{ c: {:?}, h: {:?}, planar: {} }}",
            self.center, self.half, self.planar
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corners_of_unit_box() {
        let obb = Obb::axis_aligned(Vec3::ZERO, Vec3::splat(1.0));
        let cs = obb.corners();
        assert_eq!(cs.len(), 8);
        for c in cs {
            assert_eq!(c.abs(), Vec3::splat(1.0));
        }
    }

    #[test]
    fn contains_center_and_rejects_far_point() {
        let obb = Obb::from_euler(Vec3::splat(1.0), Vec3::splat(0.5), 0.3, 0.2, 0.1);
        assert!(obb.contains_point(obb.center()));
        assert!(!obb.contains_point(Vec3::splat(10.0)));
    }

    #[test]
    fn rotated_box_contains_rotated_corner() {
        let rot = Mat3::rotation_z(std::f64::consts::FRAC_PI_4);
        let obb = Obb::new(Vec3::ZERO, Vec3::new(1.0, 1.0, 1.0), rot);
        // The rotated local corner (1,1,1) sits at rot * (1,1,1).
        let corner = rot * Vec3::splat(1.0);
        assert!(obb.contains_point(corner * 0.999));
        assert!(!obb.contains_point(corner * 1.01));
    }

    #[test]
    fn volume_is_product_of_extents() {
        let obb = Obb::axis_aligned(Vec3::ZERO, Vec3::new(1.0, 2.0, 3.0));
        assert_eq!(obb.volume(), 48.0);
    }

    #[test]
    fn encoded_words_match_paper() {
        let o3 = Obb::axis_aligned(Vec3::ZERO, Vec3::splat(1.0));
        let o2 = Obb::planar(Vec3::ZERO, 1.0, 1.0, 0.0);
        assert_eq!(o3.encoded_words(), 15);
        assert_eq!(o2.encoded_words(), 8);
    }

    #[test]
    fn planar_flag_set_only_by_planar_ctor() {
        assert!(Obb::planar(Vec3::ZERO, 1.0, 1.0, 0.3).is_planar());
        assert!(!Obb::axis_aligned(Vec3::ZERO, Vec3::splat(1.0)).is_planar());
    }

    #[test]
    fn at_center_preserves_shape() {
        let o = Obb::from_euler(Vec3::ZERO, Vec3::new(1.0, 2.0, 3.0), 0.1, 0.2, 0.3);
        let moved = o.at_center(Vec3::splat(5.0));
        assert_eq!(moved.half_extents(), o.half_extents());
        assert_eq!(moved.rotation(), o.rotation());
        assert_eq!(moved.center(), Vec3::splat(5.0));
    }

    #[test]
    #[should_panic(expected = "negative halfwidth")]
    fn negative_halfwidth_rejected() {
        let _ = Obb::axis_aligned(Vec3::ZERO, Vec3::new(-1.0, 1.0, 1.0));
    }

    #[test]
    fn intersects_self() {
        let o = Obb::from_euler(Vec3::ZERO, Vec3::splat(1.0), 0.5, 0.5, 0.5);
        assert!(o.intersects(&o));
    }
}
