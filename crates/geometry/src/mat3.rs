//! 3×3 rotation matrices.

use std::fmt;
use std::ops::Mul;

use crate::Vec3;

/// A 3×3 matrix, stored row-major, used for OBB orientations.
///
/// The paper encodes each 3D OBB's orientation as a 9-value rotation matrix
/// (4 values for 2D); this type is that encoding.
///
/// # Example
///
/// ```
/// use moped_geometry::{Mat3, Vec3};
/// let r = Mat3::rotation_z(std::f64::consts::FRAC_PI_2);
/// let v = r * Vec3::X;
/// assert!((v - Vec3::Y).norm() < 1e-12);
/// ```
#[derive(Clone, Copy, PartialEq)]
pub struct Mat3 {
    /// Row-major elements: `m[row][col]`.
    pub m: [[f64; 3]; 3],
}

impl Mat3 {
    /// The identity matrix.
    pub const IDENTITY: Mat3 = Mat3 {
        m: [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
    };

    /// Creates a matrix from rows.
    #[inline]
    pub const fn from_rows(r0: [f64; 3], r1: [f64; 3], r2: [f64; 3]) -> Self {
        Mat3 { m: [r0, r1, r2] }
    }

    /// Rotation about the Z axis by `theta` radians (the 2D rotation used
    /// by the planar mobile-robot workloads).
    pub fn rotation_z(theta: f64) -> Self {
        let (s, c) = theta.sin_cos();
        Mat3::from_rows([c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0])
    }

    /// Rotation about the Y axis by `theta` radians.
    pub fn rotation_y(theta: f64) -> Self {
        let (s, c) = theta.sin_cos();
        Mat3::from_rows([c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c])
    }

    /// Rotation about the X axis by `theta` radians.
    pub fn rotation_x(theta: f64) -> Self {
        let (s, c) = theta.sin_cos();
        Mat3::from_rows([1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c])
    }

    /// Z-Y-X (yaw, pitch, roll) Euler-angle rotation, the convention used
    /// for the 6-DoF drone model.
    pub fn from_euler(yaw: f64, pitch: f64, roll: f64) -> Self {
        let mut m = Mat3::rotation_z(yaw);
        m.post_rotate(1, pitch);
        m.post_rotate(0, roll);
        m
    }

    /// `self ← self · R` for `R` the rotation by `theta` about axis
    /// `axis` (0 = X, 1 = Y, 2 = Z), bit-identical to
    /// `self * Mat3::rotation_{x,y,z}(theta)` but without the full
    /// 27-product matrix multiply.
    ///
    /// With `(u, v)` the other two axes in cyclic order, the product's
    /// columns `u` and `v` are two-term dots plus a `m_a·0` term, and
    /// column `a` is `m_a·1` plus two `·0` terms. A `·0` product is a
    /// signed zero, and adding a signed zero changes a sum only when the
    /// sum is itself zero, where it decides the zero's sign, in whatever
    /// order the terms are added. So each entry keeps its sign-carrying
    /// zero term and drops only the multiplications by one, which are
    /// exact. Serial-arm forward kinematics chains one of these per joint.
    ///
    /// # Panics
    ///
    /// Panics if `axis >= 3`.
    #[inline(always)]
    pub fn post_rotate(&mut self, axis: usize, theta: f64) {
        let (s, c) = theta.sin_cos();
        // One arm per axis so every index is a constant: the matrix can
        // then stay in registers across a chain of updates.
        match axis {
            0 => self.rotate_columns::<1, 2, 0>(s, c),
            1 => self.rotate_columns::<2, 0, 1>(s, c),
            2 => self.rotate_columns::<0, 1, 2>(s, c),
            _ => panic!("rotation axis {axis} out of range"),
        }
    }

    /// Columns `U`, `V` ← the rotation by `(s, c)` about axis `A`; see
    /// [`Mat3::post_rotate`].
    #[inline(always)]
    fn rotate_columns<const U: usize, const V: usize, const A: usize>(&mut self, s: f64, c: f64) {
        for row in &mut self.m {
            let (mu, mv, ma) = (row[U], row[V], row[A]);
            let za = ma * 0.0;
            row[U] = (mu * c + mv * s) + za;
            row[V] = (mu * -s + mv * c) + za;
            row[A] = ma + mu * 0.0 + mv * 0.0;
        }
    }

    /// The `i`-th column as a vector. Columns of an OBB rotation are the
    /// box's local axes expressed in world coordinates.
    ///
    /// # Panics
    ///
    /// Panics if `i >= 3`.
    #[inline]
    pub fn col(&self, i: usize) -> Vec3 {
        Vec3::new(self.m[0][i], self.m[1][i], self.m[2][i])
    }

    /// The `i`-th row as a vector.
    ///
    /// # Panics
    ///
    /// Panics if `i >= 3`.
    #[inline]
    pub fn row(&self, i: usize) -> Vec3 {
        Vec3::new(self.m[i][0], self.m[i][1], self.m[i][2])
    }

    /// Matrix transpose (the inverse, for rotations).
    pub fn transpose(&self) -> Mat3 {
        let m = &self.m;
        Mat3::from_rows(
            [m[0][0], m[1][0], m[2][0]],
            [m[0][1], m[1][1], m[2][1]],
            [m[0][2], m[1][2], m[2][2]],
        )
    }

    /// Component-wise absolute value, used by the SAT fast paths.
    pub fn abs(&self) -> Mat3 {
        let mut out = self.m;
        for row in &mut out {
            for v in row.iter_mut() {
                *v = v.abs();
            }
        }
        Mat3 { m: out }
    }

    /// Returns `true` if `self` is orthonormal with determinant +1 within
    /// tolerance `eps` — i.e. a proper rotation.
    pub fn is_rotation(&self, eps: f64) -> bool {
        let t = *self * self.transpose();
        let mut ortho = true;
        for r in 0..3 {
            for c in 0..3 {
                let expect = if r == c { 1.0 } else { 0.0 };
                ortho &= (t.m[r][c] - expect).abs() <= eps;
            }
        }
        ortho && (self.determinant() - 1.0).abs() <= eps
    }

    /// Matrix determinant.
    pub fn determinant(&self) -> f64 {
        let m = &self.m;
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    }
}

impl Default for Mat3 {
    fn default() -> Self {
        Mat3::IDENTITY
    }
}

impl Mul<Vec3> for Mat3 {
    type Output = Vec3;
    #[inline]
    fn mul(self, v: Vec3) -> Vec3 {
        Vec3::new(
            self.m[0][0] * v.x + self.m[0][1] * v.y + self.m[0][2] * v.z,
            self.m[1][0] * v.x + self.m[1][1] * v.y + self.m[1][2] * v.z,
            self.m[2][0] * v.x + self.m[2][1] * v.y + self.m[2][2] * v.z,
        )
    }
}

impl Mul for Mat3 {
    type Output = Mat3;
    fn mul(self, rhs: Mat3) -> Mat3 {
        let mut out = [[0.0; 3]; 3];
        for (r, row) in out.iter_mut().enumerate() {
            for (c, v) in row.iter_mut().enumerate() {
                *v = (0..3).map(|k| self.m[r][k] * rhs.m[k][c]).sum();
            }
        }
        Mat3 { m: out }
    }
}

impl fmt::Debug for Mat3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "[{:?}", self.m[0])?;
        writeln!(f, " {:?}", self.m[1])?;
        write!(f, " {:?}]", self.m[2])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::{FRAC_PI_2, PI};

    #[test]
    fn identity_is_rotation() {
        assert!(Mat3::IDENTITY.is_rotation(1e-12));
    }

    #[test]
    fn rotation_z_quarter_turn() {
        let r = Mat3::rotation_z(FRAC_PI_2);
        assert!((r * Vec3::X - Vec3::Y).norm() < 1e-12);
        assert!((r * Vec3::Y + Vec3::X).norm() < 1e-12);
        assert!(r.is_rotation(1e-12));
    }

    #[test]
    fn euler_composition_is_rotation() {
        let r = Mat3::from_euler(0.3, -1.1, 2.5);
        assert!(r.is_rotation(1e-9));
    }

    #[test]
    fn transpose_is_inverse_for_rotations() {
        let r = Mat3::from_euler(0.7, 0.2, -0.4);
        let t = r * r.transpose();
        for i in 0..3 {
            for j in 0..3 {
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((t.m[i][j] - expect).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn rotation_pi_flips_in_plane() {
        let r = Mat3::rotation_z(PI);
        assert!((r * Vec3::X + Vec3::X).norm() < 1e-12);
    }

    #[test]
    fn cols_and_rows_agree_with_layout() {
        let m = Mat3::from_rows([1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 9.0]);
        assert_eq!(m.row(0), Vec3::new(1.0, 2.0, 3.0));
        assert_eq!(m.col(0), Vec3::new(1.0, 4.0, 7.0));
        assert_eq!(m.determinant(), 0.0);
    }
}
