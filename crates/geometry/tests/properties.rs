//! Property-based tests for the geometric kernels.
//!
//! These encode the soundness invariants DESIGN.md §5 calls out:
//! SAT agrees with a sampling oracle and the AABB first stage is
//! conservative. (MINDIST's lower bound is tested next to its kernel in
//! `moped-simbr`.)

use moped_geometry::{sat, Aabb, Config, InterpolationSteps, Mat3, Obb, OpCount, Vec3};
use proptest::prelude::*;
use proptest::TestCaseError;

fn arb_vec3(range: f64) -> impl Strategy<Value = Vec3> {
    (-range..range, -range..range, -range..range).prop_map(|(x, y, z)| Vec3::new(x, y, z))
}

fn arb_half() -> impl Strategy<Value = Vec3> {
    (0.2..3.0, 0.2..3.0, 0.2..3.0).prop_map(|(x, y, z)| Vec3::new(x, y, z))
}

fn arb_obb() -> impl Strategy<Value = Obb> {
    (
        arb_vec3(6.0),
        arb_half(),
        -3.2..3.2f64,
        -1.5..1.5f64,
        -3.2..3.2f64,
    )
        .prop_map(|(c, h, yaw, pitch, roll)| Obb::new(c, h, Mat3::from_euler(yaw, pitch, roll)))
}

fn arb_config(dim: usize) -> impl Strategy<Value = Config> {
    prop::collection::vec(-50.0..50.0f64, dim).prop_map(|v| Config::new(&v))
}

/// Interpolated motion poses from `a` to `b` all lie within the
/// segment's bounding box and end exactly at `b`.
fn check_interpolation(a: &Config, b: &Config) -> Result<(), TestCaseError> {
    let poses = InterpolationSteps::with_resolution(1.0).poses(a, b);
    let mut last = *a;
    for p in poses {
        // Floating-point lerp may drift a hair outside the exact
        // bounding box: sum the squared per-axis excess over it.
        let drift: f64 = (0..a.dim())
            .map(|i| {
                let (lo, hi) = (a[i].min(b[i]), a[i].max(b[i]));
                let excess = (lo - p[i]).max(0.0) + (p[i] - hi).max(0.0);
                excess * excess
            })
            .sum();
        prop_assert!(drift < 1e-12, "{p:?} drifts {drift} off {a:?}..{b:?}");
        last = p;
    }
    prop_assert_eq!(&last, b);
    Ok(())
}

/// A 4-D pair the property's shrinker once reduced a failure to.
#[test]
fn interpolation_stays_on_segment_saved_pair() {
    let a = Config::new(&[0.0, 0.0, 0.0, -15.847438163728032]);
    let b = Config::new(&[0.0, 0.0, 0.0, -3.015231526524699]);
    check_interpolation(&a, &b).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The sampling oracle never finds an overlap SAT denies: SAT has no
    /// false negatives (it is an exact test; the oracle is sound).
    #[test]
    fn sat_never_misses_oracle_overlap(a in arb_obb(), b in arb_obb()) {
        let mut ops = OpCount::default();
        let sat_hit = sat::obb_obb(&a, &b, &mut ops);
        if sat::sampling_oracle(&a, &b, 8) {
            prop_assert!(sat_hit, "oracle found contact SAT missed: {a:?} vs {b:?}");
        }
    }

    /// SAT is symmetric in its arguments.
    #[test]
    fn sat_symmetric(a in arb_obb(), b in arb_obb()) {
        let mut ops = OpCount::default();
        prop_assert_eq!(sat::obb_obb(&a, &b, &mut ops), sat::obb_obb(&b, &a, &mut ops));
    }

    /// Conservativeness of the first stage: if the obstacle's AABB
    /// relaxation reports FREE against the robot OBB, the exact OBB-OBB
    /// check on the original obstacle must also report FREE. (This is what
    /// makes skipping second-stage checks safe — §III-A.)
    #[test]
    fn aabb_stage_is_conservative(obstacle in arb_obb(), robot in arb_obb()) {
        let relax = obstacle.aabb();
        let mut ops = OpCount::default();
        if !sat::aabb_obb(&relax, &robot, &mut ops) {
            prop_assert!(
                !sat::obb_obb(&obstacle, &robot, &mut ops),
                "first stage said free but exact check collides"
            );
        }
    }

    /// An OBB's AABB contains all eight corners.
    #[test]
    fn obb_aabb_contains_corners(o in arb_obb()) {
        let bb = o.aabb();
        for c in o.corners() {
            prop_assert!(bb.inflated(1e-9).contains_point(c));
        }
    }

    /// A box always intersects itself and any translate closer than the
    /// smallest halfwidth.
    #[test]
    fn sat_self_intersection(o in arb_obb(), dx in -0.1..0.1f64) {
        let shifted = o.at_center(o.center() + Vec3::new(dx, 0.0, 0.0));
        let mut ops = OpCount::default();
        prop_assert!(sat::obb_obb(&o, &shifted, &mut ops));
    }

    /// Steering never overshoots the step and lands on the segment.
    #[test]
    fn steer_respects_step(a in arb_config(6), b in arb_config(6), step in 0.1..10.0f64) {
        let s = a.steer_toward(&b, step);
        prop_assert!(a.distance(&s) <= step + 1e-9);
        // Collinearity: distance(a,s) + distance(s,b) == distance(a,b).
        let total = a.distance(&s) + s.distance(&b);
        prop_assert!((total - a.distance(&b)).abs() < 1e-6);
    }

    /// AABB-AABB intersection is symmetric and union-monotone.
    #[test]
    fn aabb_union_monotone(a in arb_obb(), b in arb_obb()) {
        let (ba, bb) = (a.aabb(), b.aabb());
        prop_assert_eq!(ba.intersects_aabb(&bb), bb.intersects_aabb(&ba));
        let u = ba.union(&bb);
        prop_assert!(u.contains_aabb(&ba) && u.contains_aabb(&bb));
    }

    /// Interpolated motion poses stay on the segment (see
    /// [`check_interpolation`]).
    #[test]
    fn interpolation_stays_on_segment(a in arb_config(4), b in arb_config(4)) {
        check_interpolation(&a, &b)?;
    }

    /// Planar SAT and 3D SAT agree for z-aligned planar geometry.
    #[test]
    fn planar_and_3d_sat_agree(
        (ax, ay) in (-5.0..5.0f64, -5.0..5.0f64),
        (bx, by) in (-5.0..5.0f64, -5.0..5.0f64),
        ta in -3.2..3.2f64,
        tb in -3.2..3.2f64,
        (hax, hay) in (0.3..2.0f64, 0.3..2.0f64),
        (hbx, hby) in (0.3..2.0f64, 0.3..2.0f64),
    ) {
        let p1 = Obb::planar(Vec3::new(ax, ay, 0.0), hax, hay, ta);
        let p2 = Obb::planar(Vec3::new(bx, by, 0.0), hbx, hby, tb);
        let o1 = Obb::new(Vec3::new(ax, ay, 0.0), Vec3::new(hax, hay, 0.5), Mat3::rotation_z(ta));
        let o2 = Obb::new(Vec3::new(bx, by, 0.0), Vec3::new(hbx, hby, 0.5), Mat3::rotation_z(tb));
        let mut ops = OpCount::default();
        prop_assert_eq!(sat::obb_obb(&p1, &p2, &mut ops), sat::obb_obb(&o1, &o2, &mut ops));
    }

    /// GJK and SAT agree on intersection for every pair away from
    /// grazing contact — two independent exact algorithms cross-checking
    /// each other.
    #[test]
    fn gjk_agrees_with_sat(a in arb_obb(), b in arb_obb()) {
        let mut ops = OpCount::default();
        let sat_hit = sat::obb_obb(&a, &b, &mut ops);
        let g = moped_geometry::gjk::distance(&a, &b, &mut ops);
        if g.distance > 1e-6 {
            prop_assert_eq!(sat_hit, g.intersecting,
                "SAT {} vs GJK {} at clearance {}", sat_hit, g.intersecting, g.distance);
        }
    }

    /// GJK distance lower-bounds the center distance minus both
    /// circumradii and is zero exactly when SAT reports contact (modulo
    /// the grazing shell).
    #[test]
    fn gjk_distance_bounds(a in arb_obb(), b in arb_obb()) {
        let mut ops = OpCount::default();
        let g = moped_geometry::gjk::distance(&a, &b, &mut ops);
        let centers = (a.center() - b.center()).norm();
        let circum = a.half_extents().norm() + b.half_extents().norm();
        prop_assert!(g.distance <= centers + 1e-6);
        if centers > circum {
            prop_assert!(g.distance >= centers - circum - 1e-6);
            prop_assert!(!g.intersecting);
        }
    }

    /// AABB–OBB equals OBB–OBB when the first box is axis-aligned.
    #[test]
    fn aabb_obb_equals_obb_obb_for_aligned_box(c in arb_vec3(6.0), h in arb_half(), o in arb_obb()) {
        let aabb = Aabb::from_center_half(c, h);
        let as_obb = Obb::axis_aligned(c, h);
        let mut ops = OpCount::default();
        prop_assert_eq!(sat::aabb_obb(&aabb, &o, &mut ops), sat::obb_obb(&as_obb, &o, &mut ops));
    }
}
