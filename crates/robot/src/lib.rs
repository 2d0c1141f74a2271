//! Robot models for the MOPED evaluation.
//!
//! The paper evaluates five robots spanning 3–7 degrees of freedom and
//! 1–7 body bounding boxes (§V):
//!
//! | Model       | DoF | Bodies | Configuration space                    |
//! |-------------|-----|--------|----------------------------------------|
//! | 2D Mobile   | 3   | 1 × 2D OBB | (x, y, θ)                          |
//! | 3D Drone    | 6   | 1 × 3D OBB | (x, y, z, yaw, pitch, roll)        |
//! | ViperX 300  | 5   | 3 × 3D OBB | five joint angles                  |
//! | ROZUM       | 6   | 4 × 3D OBB | six joint angles                   |
//! | xArm-7      | 7   | 7 × 3D OBB | seven joint angles                 |
//!
//! Arms are modelled as serial kinematic chains (joint axes and link
//! lengths approximated from public spec sheets, scaled into the 300-unit
//! evaluation workspace); the planner only ever sees the resulting body
//! OBBs, so what matters for the reproduced cost curves — DoF count and
//! body-box count — matches the paper exactly.
//!
//! # Example
//!
//! ```
//! use moped_robot::Robot;
//!
//! let arm = Robot::xarm7();
//! assert_eq!(arm.dof(), 7);
//! let home = arm.config_from_unit(&[0.5; 7]);
//! assert_eq!(arm.body_obbs(&home).len(), 7);
//! ```

#![deny(missing_docs)]

use std::f64::consts::PI;
use std::fmt;

use moped_geometry::{Aabb, Config, Mat3, Obb, Vec3, MAX_DOF};

/// Side length of the simulated cubic workspace (§V: 300×300×300, or
/// 300×300 for the planar robot).
pub const WORKSPACE_EXTENT: f64 = 300.0;

/// Half-extents of the drone's body box (6×6×2 half-widths).
const DRONE_HALF: Vec3 = Vec3::new(6.0, 6.0, 2.0);

/// Half-extents of the mobile robot's footprint rectangle (its `z`
/// half-extent is the planar box's fixed 0.5).
const MOBILE_HALF: Vec3 = Vec3::new(8.0, 5.0, 0.5);

/// The five evaluated robot models.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RobotModel {
    /// 3-DoF planar mobile robot: two translations plus heading.
    Mobile2d,
    /// 6-DoF free-flying drone: three translations, three rotations.
    Drone3d,
    /// 5-DoF ViperX 300 manipulator (3 body boxes).
    ViperX300,
    /// 6-DoF ROZUM Pulse manipulator (4 body boxes).
    Rozum,
    /// 7-DoF UFACTORY xArm-7 manipulator (7 body boxes).
    XArm7,
}

impl fmt::Display for RobotModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            RobotModel::Mobile2d => "2D Mobile",
            RobotModel::Drone3d => "3D Drone",
            RobotModel::ViperX300 => "ViperX 300",
            RobotModel::Rozum => "ROZUM",
            RobotModel::XArm7 => "xArm-7",
        })
    }
}

/// One joint of a serial arm: rotation axis plus the rigid link that
/// follows it (links with zero length contribute no body box, letting a
/// model have fewer bodies than joints, as the ViperX does).
#[derive(Clone, Copy, Debug)]
struct JointSpec {
    /// 0 = X, 1 = Y, 2 = Z rotation axis in the parent frame (see
    /// [`Mat3::post_rotate`]).
    axis: usize,
    /// Link length along the local +X after the joint.
    link_len: f64,
    /// Link half-thickness (box half extents are `(len/2, w, w)`).
    half_width: f64,
}

/// A robot: its configuration space and the map from configurations to
/// workspace body boxes (forward kinematics).
#[derive(Clone, Debug)]
pub struct Robot {
    model: RobotModel,
    bounds: Vec<(f64, f64)>,
    joints: Vec<JointSpec>,
    base: Vec3,
    step: f64,
}

impl Robot {
    /// The 3-DoF planar mobile robot: an 8×5 footprint rectangle at
    /// `(x, y)` with heading `θ`.
    pub fn mobile_2d() -> Robot {
        Robot {
            model: RobotModel::Mobile2d,
            bounds: vec![(0.0, WORKSPACE_EXTENT), (0.0, WORKSPACE_EXTENT), (-PI, PI)],
            joints: Vec::new(),
            base: Vec3::ZERO,
            step: 8.0,
        }
    }

    /// The 6-DoF drone: a 6×6×2 body box with full attitude freedom
    /// (pitch limited to ±π/2 to keep yaw-pitch-roll unambiguous).
    pub fn drone_3d() -> Robot {
        Robot {
            model: RobotModel::Drone3d,
            bounds: vec![
                (0.0, WORKSPACE_EXTENT),
                (0.0, WORKSPACE_EXTENT),
                (0.0, WORKSPACE_EXTENT),
                (-PI, PI),
                (-PI / 2.0, PI / 2.0),
                (-PI, PI),
            ],
            joints: Vec::new(),
            base: Vec3::ZERO,
            step: 8.0,
        }
    }

    /// The 5-DoF ViperX 300 arm: waist / shoulder / elbow / wrist-angle /
    /// wrist-rotate joints, three link boxes, ~115-unit reach from a base
    /// at the workspace-floor center.
    pub fn viperx_300() -> Robot {
        Robot {
            model: RobotModel::ViperX300,
            bounds: vec![(-PI, PI); 5],
            joints: vec![
                JointSpec {
                    axis: 2,
                    link_len: 0.0,
                    half_width: 0.0,
                }, // waist
                JointSpec {
                    axis: 1,
                    link_len: 45.0,
                    half_width: 4.0,
                }, // shoulder→elbow
                JointSpec {
                    axis: 1,
                    link_len: 40.0,
                    half_width: 3.5,
                }, // elbow→wrist
                JointSpec {
                    axis: 1,
                    link_len: 30.0,
                    half_width: 3.0,
                }, // wrist→gripper
                JointSpec {
                    axis: 0,
                    link_len: 0.0,
                    half_width: 0.0,
                }, // wrist rotate
            ],
            base: Vec3::new(WORKSPACE_EXTENT / 2.0, WORKSPACE_EXTENT / 2.0, 0.0),
            step: 0.35,
        }
    }

    /// The 6-DoF ROZUM Pulse arm: four link boxes, ~115-unit reach.
    pub fn rozum() -> Robot {
        Robot {
            model: RobotModel::Rozum,
            bounds: vec![(-PI, PI); 6],
            joints: vec![
                JointSpec {
                    axis: 2,
                    link_len: 0.0,
                    half_width: 0.0,
                },
                JointSpec {
                    axis: 1,
                    link_len: 40.0,
                    half_width: 4.0,
                },
                JointSpec {
                    axis: 1,
                    link_len: 35.0,
                    half_width: 3.5,
                },
                JointSpec {
                    axis: 1,
                    link_len: 25.0,
                    half_width: 3.0,
                },
                JointSpec {
                    axis: 0,
                    link_len: 15.0,
                    half_width: 2.5,
                },
                JointSpec {
                    axis: 2,
                    link_len: 0.0,
                    half_width: 0.0,
                },
            ],
            base: Vec3::new(WORKSPACE_EXTENT / 2.0, WORKSPACE_EXTENT / 2.0, 0.0),
            step: 0.35,
        }
    }

    /// The 7-DoF xArm-7: seven link boxes, ~127-unit reach.
    pub fn xarm7() -> Robot {
        Robot {
            model: RobotModel::XArm7,
            bounds: vec![(-PI, PI); 7],
            joints: vec![
                JointSpec {
                    axis: 2,
                    link_len: 20.0,
                    half_width: 4.0,
                },
                JointSpec {
                    axis: 1,
                    link_len: 25.0,
                    half_width: 4.0,
                },
                JointSpec {
                    axis: 2,
                    link_len: 20.0,
                    half_width: 3.5,
                },
                JointSpec {
                    axis: 1,
                    link_len: 25.0,
                    half_width: 3.5,
                },
                JointSpec {
                    axis: 2,
                    link_len: 15.0,
                    half_width: 3.0,
                },
                JointSpec {
                    axis: 1,
                    link_len: 12.0,
                    half_width: 2.5,
                },
                JointSpec {
                    axis: 0,
                    link_len: 10.0,
                    half_width: 2.0,
                },
            ],
            base: Vec3::new(WORKSPACE_EXTENT / 2.0, WORKSPACE_EXTENT / 2.0, 0.0),
            step: 0.35,
        }
    }

    /// Constructs the model by enum tag.
    pub fn from_model(model: RobotModel) -> Robot {
        match model {
            RobotModel::Mobile2d => Robot::mobile_2d(),
            RobotModel::Drone3d => Robot::drone_3d(),
            RobotModel::ViperX300 => Robot::viperx_300(),
            RobotModel::Rozum => Robot::rozum(),
            RobotModel::XArm7 => Robot::xarm7(),
        }
    }

    /// All five evaluation robots, in the paper's presentation order.
    pub fn all_models() -> Vec<Robot> {
        vec![
            Robot::mobile_2d(),
            Robot::drone_3d(),
            Robot::viperx_300(),
            Robot::rozum(),
            Robot::xarm7(),
        ]
    }

    /// Which model this robot is.
    pub fn model(&self) -> RobotModel {
        self.model
    }

    /// Human-readable model name.
    pub fn name(&self) -> String {
        self.model.to_string()
    }

    /// Degrees of freedom (configuration-space dimension).
    pub fn dof(&self) -> usize {
        self.bounds.len()
    }

    /// Number of body bounding boxes produced by forward kinematics.
    pub fn num_bodies(&self) -> usize {
        match self.model {
            RobotModel::Mobile2d | RobotModel::Drone3d => 1,
            _ => self.joints.iter().filter(|j| j.link_len > 0.0).count(),
        }
    }

    /// Returns `true` for the planar workload (2D workspace, 2D SAT).
    pub fn workspace_is_2d(&self) -> bool {
        self.model == RobotModel::Mobile2d
    }

    /// Per-axis configuration bounds `(lo, hi)`.
    pub fn config_bounds(&self) -> &[(f64, f64)] {
        &self.bounds
    }

    /// Default steering step size in configuration-space units (the
    /// per-sample movement limit the steering operation enforces).
    pub fn steering_step(&self) -> f64 {
        self.step
    }

    /// Maps a unit-cube sample (each component in `[0, 1]`) to a
    /// configuration within bounds — the bridge between any RNG (LFSR or
    /// software) and the configuration space.
    ///
    /// # Panics
    ///
    /// Panics if `unit.len() != self.dof()`.
    pub fn config_from_unit(&self, unit: &[f64]) -> Config {
        assert_eq!(unit.len(), self.dof(), "unit sample has wrong dimension");
        let mut coords = [0.0; MAX_DOF];
        let coords = &mut coords[..unit.len()];
        for ((c, u), (lo, hi)) in coords.iter_mut().zip(unit).zip(&self.bounds) {
            *c = lo + u.clamp(0.0, 1.0) * (hi - lo);
        }
        Config::new(coords)
    }

    /// Returns `true` if every coordinate lies within bounds.
    pub fn in_bounds(&self, q: &Config) -> bool {
        q.dim() == self.dof()
            && q.as_slice()
                .iter()
                .zip(&self.bounds)
                .all(|(v, (lo, hi))| *v >= *lo - 1e-9 && *v <= *hi + 1e-9)
    }

    /// Forward kinematics: the body OBBs occupied at configuration `q`.
    ///
    /// * Mobile: one planar OBB at `(x, y)` with heading `θ`.
    /// * Drone: one 3D OBB at `(x, y, z)` with yaw-pitch-roll attitude.
    /// * Arms: one OBB per non-degenerate link of the serial chain rooted
    ///   at the model's base.
    ///
    /// # Panics
    ///
    /// Panics if `q.dim() != self.dof()`.
    pub fn body_obbs(&self, q: &Config) -> Vec<Obb> {
        let mut out = Vec::with_capacity(self.num_bodies());
        self.body_obbs_into(q, &mut out);
        out
    }

    /// Allocation-free forward kinematics: clears `out` and fills it with
    /// the body OBBs at `q`. Planner collision loops call this once per
    /// checked pose, so reusing the buffer matters.
    ///
    /// # Panics
    ///
    /// Panics if `q.dim() != self.dof()`.
    pub fn body_obbs_into(&self, q: &Config, out: &mut Vec<Obb>) {
        assert_eq!(q.dim(), self.dof(), "configuration has wrong dimension");
        out.clear();
        match self.model {
            RobotModel::Mobile2d => {
                let center = Vec3::new(q[0], q[1], 0.0);
                out.push(Obb::planar(center, MOBILE_HALF.x, MOBILE_HALF.y, q[2]));
            }
            RobotModel::Drone3d => {
                out.push(Obb::new(
                    Vec3::new(q[0], q[1], q[2]),
                    DRONE_HALF,
                    Mat3::from_euler(q[3], q[4], q[5]),
                ));
            }
            _ => self.arm_fk(q, out),
        }
    }

    /// The body of every pose on the straight motion `from → to`, for the
    /// robots with one rigid body centered at the configuration's
    /// translation (the drone and the mobile robot): the box that holds
    /// every pose's body center, and the body's half-extents.
    ///
    /// A pose `from + t·(to − from)`, `t ∈ [0, 1]`, puts the body center
    /// between the endpoints' translations on every axis, up to the
    /// rounding of that interpolation; its rotation is whatever the
    /// pose's angles give. `None` for the arms, whose link boxes move with
    /// every joint, and whenever a coordinate or an endpoint difference is
    /// not finite.
    pub fn center_hull(&self, from: &Config, to: &Config) -> Option<(Aabb, Vec3)> {
        let (half, drone) = match self.model {
            RobotModel::Mobile2d => (MOBILE_HALF, false),
            RobotModel::Drone3d => (DRONE_HALF, true),
            _ => return None,
        };
        let (a, b) = (from.as_slice(), to.as_slice());
        // A finite difference implies both coordinates are finite.
        let finite = a.iter().zip(b).all(|(x, y)| (y - x).is_finite());
        if a.len() != self.dof() || b.len() != self.dof() || !finite {
            return None;
        }
        let center = |q: &[f64]| Vec3::new(q[0], q[1], if drone { q[2] } else { 0.0 });
        let (p, q) = (center(a), center(b));
        Some((Aabb::new(p.min(q), p.max(q)), half))
    }

    fn arm_fk(&self, q: &Config, bodies: &mut Vec<Obb>) {
        let mut pos = self.base;
        let mut rot = Mat3::IDENTITY;
        for (i, joint) in self.joints.iter().enumerate() {
            rot.post_rotate(joint.axis, q[i]);
            if joint.link_len > 0.0 {
                let dir = rot.col(0);
                let center = pos + dir * (joint.link_len / 2.0);
                bodies.push(Obb::new(
                    center,
                    Vec3::new(joint.link_len / 2.0, joint.half_width, joint.half_width),
                    rot,
                ));
                pos += dir * joint.link_len;
            }
        }
    }

    /// End-effector position for arms / body center otherwise — handy for
    /// sanity-checking kinematics and for goal-region definitions.
    pub fn end_effector(&self, q: &Config) -> Vec3 {
        match self.model {
            RobotModel::Mobile2d => Vec3::new(q[0], q[1], 0.0),
            RobotModel::Drone3d => Vec3::new(q[0], q[1], q[2]),
            _ => {
                let mut pos = self.base;
                let mut rot = Mat3::IDENTITY;
                for (i, joint) in self.joints.iter().enumerate() {
                    rot.post_rotate(joint.axis, q[i]);
                    pos += rot.col(0) * joint.link_len;
                }
                pos
            }
        }
    }

    /// Maximum reach from the base (sum of link lengths), or the body
    /// diagonal for free-flying robots.
    pub fn reach(&self) -> f64 {
        match self.model {
            RobotModel::Mobile2d => (8.0f64 * 8.0 + 5.0 * 5.0).sqrt(),
            RobotModel::Drone3d => (6.0f64 * 6.0 + 6.0 * 6.0 + 2.0 * 2.0).sqrt(),
            _ => self.joints.iter().map(|j| j.link_len).sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_table_matches_paper() {
        let expect = [
            (RobotModel::Mobile2d, 3, 1),
            (RobotModel::Drone3d, 6, 1),
            (RobotModel::ViperX300, 5, 3),
            (RobotModel::Rozum, 6, 4),
            (RobotModel::XArm7, 7, 7),
        ];
        for (model, dof, bodies) in expect {
            let r = Robot::from_model(model);
            assert_eq!(r.dof(), dof, "{model} DoF");
            assert_eq!(r.num_bodies(), bodies, "{model} bodies");
            let q = r.config_from_unit(&vec![0.5; dof]);
            assert_eq!(r.body_obbs(&q).len(), bodies, "{model} FK bodies");
        }
    }

    #[test]
    fn all_models_returns_five() {
        assert_eq!(Robot::all_models().len(), 5);
    }

    #[test]
    fn mobile_body_is_planar() {
        let r = Robot::mobile_2d();
        let q = Config::new(&[100.0, 120.0, 0.7]);
        let bodies = r.body_obbs(&q);
        assert!(bodies[0].is_planar());
        assert_eq!(bodies[0].center(), Vec3::new(100.0, 120.0, 0.0));
        assert!(r.workspace_is_2d());
    }

    #[test]
    fn drone_body_follows_attitude() {
        let r = Robot::drone_3d();
        let q = Config::new(&[10.0, 20.0, 30.0, 0.5, 0.2, -0.3]);
        let bodies = r.body_obbs(&q);
        assert_eq!(bodies[0].center(), Vec3::new(10.0, 20.0, 30.0));
        assert!(bodies[0].rotation().is_rotation(1e-9));
        assert!(!r.workspace_is_2d());
    }

    #[test]
    fn arm_links_form_connected_chain() {
        for r in [Robot::viperx_300(), Robot::rozum(), Robot::xarm7()] {
            let q = r.config_from_unit(&vec![0.3; r.dof()]);
            let bodies = r.body_obbs(&q);
            // Consecutive link boxes must touch: the end of link i is the
            // start of link i+1.
            for w in bodies.windows(2) {
                let end_of_prev = w[0].center() + w[0].rotation().col(0) * w[0].half_extents().x;
                let start_of_next = w[1].center() - w[1].rotation().col(0) * w[1].half_extents().x;
                assert!(
                    (end_of_prev - start_of_next).norm() < 1e-9,
                    "{}: chain gap {:?}",
                    r.name(),
                    (end_of_prev - start_of_next).norm()
                );
            }
        }
    }

    #[test]
    fn end_effector_within_reach() {
        for r in Robot::all_models() {
            for t in [0.0, 0.25, 0.5, 0.75, 1.0] {
                let q = r.config_from_unit(&vec![t; r.dof()]);
                let ee = r.end_effector(&q);
                if !matches!(r.model(), RobotModel::Mobile2d | RobotModel::Drone3d) {
                    let base = Vec3::new(WORKSPACE_EXTENT / 2.0, WORKSPACE_EXTENT / 2.0, 0.0);
                    assert!(
                        (ee - base).norm() <= r.reach() + 1e-9,
                        "{} exceeded reach",
                        r.name()
                    );
                }
            }
        }
    }

    #[test]
    fn zero_config_arm_points_along_x() {
        let r = Robot::xarm7();
        let q = Config::zeros(7);
        let ee = r.end_effector(&q);
        let base = Vec3::new(WORKSPACE_EXTENT / 2.0, WORKSPACE_EXTENT / 2.0, 0.0);
        assert!((ee - (base + Vec3::X * r.reach())).norm() < 1e-9);
    }

    #[test]
    fn config_from_unit_respects_bounds() {
        for r in Robot::all_models() {
            let lo = r.config_from_unit(&vec![0.0; r.dof()]);
            let hi = r.config_from_unit(&vec![1.0; r.dof()]);
            for i in 0..r.dof() {
                let (blo, bhi) = r.config_bounds()[i];
                assert_eq!(lo[i], blo);
                assert_eq!(hi[i], bhi);
            }
            assert!(r.in_bounds(&lo) && r.in_bounds(&hi));
        }
    }

    #[test]
    fn fk_is_continuous_in_q() {
        // A small joint perturbation moves every body center by a small
        // amount — guards against axis/order bugs in the chain math.
        for r in [Robot::viperx_300(), Robot::rozum(), Robot::xarm7()] {
            let q0 = r.config_from_unit(&vec![0.4; r.dof()]);
            let mut q1 = q0;
            q1.as_mut_slice()[1] += 1e-4;
            let b0 = r.body_obbs(&q0);
            let b1 = r.body_obbs(&q1);
            for (a, b) in b0.iter().zip(&b1) {
                assert!((a.center() - b.center()).norm() < 0.1);
            }
        }
    }

    /// Forward kinematics as written before the axis-specialised
    /// rotation update: a full `Mat3` product per joint.
    fn reference_body_obbs(r: &Robot, q: &Config) -> Vec<Obb> {
        let rotation = |axis: usize, theta: f64| match axis {
            0 => Mat3::rotation_x(theta),
            1 => Mat3::rotation_y(theta),
            _ => Mat3::rotation_z(theta),
        };
        match r.model {
            RobotModel::Mobile2d => vec![Obb::planar(Vec3::new(q[0], q[1], 0.0), 8.0, 5.0, q[2])],
            RobotModel::Drone3d => vec![Obb::new(
                Vec3::new(q[0], q[1], q[2]),
                Vec3::new(6.0, 6.0, 2.0),
                rotation(2, q[3]) * rotation(1, q[4]) * rotation(0, q[5]),
            )],
            _ => {
                let mut bodies = Vec::new();
                let mut pos = r.base;
                let mut rot = Mat3::IDENTITY;
                for (i, joint) in r.joints.iter().enumerate() {
                    rot = rot * rotation(joint.axis, q[i]);
                    if joint.link_len > 0.0 {
                        let dir = rot.col(0);
                        let center = pos + dir * (joint.link_len / 2.0);
                        let half =
                            Vec3::new(joint.link_len / 2.0, joint.half_width, joint.half_width);
                        bodies.push(Obb::new(center, half, rot));
                        pos += dir * joint.link_len;
                    }
                }
                bodies
            }
        }
    }

    fn obb_bits(o: &Obb) -> Vec<u64> {
        let (c, h) = (o.center(), o.half_extents());
        let mut bits: Vec<u64> = [c.x, c.y, c.z, h.x, h.y, h.z].map(f64::to_bits).to_vec();
        bits.extend(o.rotation().m.iter().flatten().map(|v| v.to_bits()));
        bits.push(u64::from(o.is_planar()));
        bits
    }

    #[test]
    fn fk_is_bit_identical_to_full_matrix_products() {
        use std::f64::consts::{FRAC_PI_2, PI};
        let mut state = 0x0f0e_1d2c_3b4a_5968u64;
        let mut unit = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        // Signed zeros and quarter turns make exact zeros in the chain,
        // where only the sign-carrying zero terms decide the result bits.
        let special = [0.0, -0.0, PI, -PI, FRAC_PI_2, -FRAC_PI_2, 1e-300];
        for r in Robot::all_models() {
            let dof = r.dof();
            let mut configs: Vec<Vec<f64>> = (0..4000)
                .map(|_| (0..dof).map(|_| unit() * 8.0 - 4.0).collect())
                .collect();
            for &s in &special {
                configs.push(vec![s; dof]);
                for k in 0..dof {
                    let mut q = vec![0.3; dof];
                    q[k] = s;
                    configs.push(q);
                    let mut q = vec![s; dof];
                    q[k] = -0.7;
                    configs.push(q);
                }
            }
            for q in configs {
                let q = Config::new(&q);
                let got: Vec<Vec<u64>> = r.body_obbs(&q).iter().map(obb_bits).collect();
                let want: Vec<Vec<u64>> =
                    reference_body_obbs(&r, &q).iter().map(obb_bits).collect();
                assert_eq!(got, want, "{} FK differs at {q:?}", r.name());
            }
        }
    }

    #[test]
    fn post_rotate_is_bit_identical_to_the_product() {
        let mut m = Mat3::from_euler(0.3, -1.2, 2.0);
        for (k, theta) in [0.0, -0.0, 0.7, -2.9, std::f64::consts::PI]
            .into_iter()
            .enumerate()
        {
            for axis in 0..3 {
                let r = [Mat3::rotation_x, Mat3::rotation_y, Mat3::rotation_z][axis](theta);
                for start in [Mat3::IDENTITY, m] {
                    let mut fast = start;
                    fast.post_rotate(axis, theta);
                    let bits = |x: &Mat3| x.m.map(|row| row.map(f64::to_bits));
                    assert_eq!(
                        bits(&fast),
                        bits(&(start * r)),
                        "axis {axis}, theta {theta}"
                    );
                }
            }
            m.post_rotate(k % 3, 0.37);
        }
    }

    #[test]
    #[should_panic(expected = "wrong dimension")]
    fn wrong_dim_config_rejected() {
        let r = Robot::xarm7();
        let _ = r.body_obbs(&Config::zeros(3));
    }

    #[test]
    fn steering_steps_are_positive() {
        for r in Robot::all_models() {
            assert!(r.steering_step() > 0.0);
        }
    }

    #[test]
    fn display_names_are_distinct() {
        let names: std::collections::HashSet<String> =
            Robot::all_models().iter().map(|r| r.name()).collect();
        assert_eq!(names.len(), 5);
    }
}
