//! The prepared-body AABB–OBB test ([`sat::AabbObbBody`], with its
//! fast accept) against a transcription of the from-scratch test it
//! replaced: identical verdicts and identical modelled op charges, over
//! random boxes and hand-picked degenerate ones.

use moped_geometry::{sat, Aabb, Mat3, Obb, OpCount, Vec3};

/// The from-scratch AABB–OBB SAT as it was before bodies were prepared:
/// every test recomputes `|R| + ε` and all body radii, and charges the
/// axes it evaluates.
#[allow(clippy::needless_range_loop)] // transcribed as written
fn reference_aabb_obb(a: &Aabb, b: &Obb, ops: &mut OpCount) -> bool {
    const SAT_EPS: f64 = 1e-9;
    ops.sat_queries += 1;
    if b.is_planar() {
        return reference_aabb_obb_2d(a, b, ops);
    }
    let ha = a.half_extents();
    let hb = b.half_extents();
    let r = b.rotation();
    let t = b.center() - a.center();
    ops.add += 3;

    let mut abs_r = [[0.0; 3]; 3];
    for i in 0..3 {
        for j in 0..3 {
            abs_r[i][j] = r.m[i][j].abs() + SAT_EPS;
        }
    }
    ops.add += 9;

    let ta = [t.x, t.y, t.z];
    let haa = [ha.x, ha.y, ha.z];
    let hba = [hb.x, hb.y, hb.z];

    for i in 0..3 {
        let ra = haa[i];
        let rb = hba[0] * abs_r[i][0] + hba[1] * abs_r[i][1] + hba[2] * abs_r[i][2];
        ops.mul += 3;
        ops.add += 3;
        ops.cmp += 1;
        if ta[i].abs() > ra + rb {
            return false;
        }
    }
    for j in 0..3 {
        let ra = haa[0] * abs_r[0][j] + haa[1] * abs_r[1][j] + haa[2] * abs_r[2][j];
        let rb = hba[j];
        let tp = ta[0] * r.m[0][j] + ta[1] * r.m[1][j] + ta[2] * r.m[2][j];
        ops.mul += 6;
        ops.add += 5;
        ops.cmp += 1;
        if tp.abs() > ra + rb {
            return false;
        }
    }
    for i in 0..3 {
        let (u, v) = ((i + 1) % 3, (i + 2) % 3);
        for j in 0..3 {
            let (p, q) = ((j + 1) % 3, (j + 2) % 3);
            let ra = haa[u] * abs_r[v][j] + haa[v] * abs_r[u][j];
            let rb = hba[p] * abs_r[i][q] + hba[q] * abs_r[i][p];
            let tp = ta[v] * r.m[u][j] - ta[u] * r.m[v][j];
            ops.mul += 6;
            ops.add += 4;
            ops.cmp += 1;
            if tp.abs() > ra + rb {
                return false;
            }
        }
    }
    true
}

#[allow(clippy::needless_range_loop)] // transcribed as written
fn reference_aabb_obb_2d(a: &Aabb, b: &Obb, ops: &mut OpCount) -> bool {
    const SAT_EPS: f64 = 1e-9;
    let ha = [a.half_extents().x, a.half_extents().y];
    let hb = [b.half_extents().x, b.half_extents().y];
    let bx = b.axis(0);
    let by = b.axis(1);
    let r = [[bx.x, by.x], [bx.y, by.y]];
    let tw = b.center() - a.center();
    let t = [tw.x, tw.y];
    ops.add += 2;

    let mut abs_r = [[0.0; 2]; 2];
    for i in 0..2 {
        for j in 0..2 {
            abs_r[i][j] = r[i][j].abs() + SAT_EPS;
        }
    }
    ops.add += 4;

    for i in 0..2 {
        let ra = ha[i];
        let rb = hb[0] * abs_r[i][0] + hb[1] * abs_r[i][1];
        ops.mul += 2;
        ops.add += 2;
        ops.cmp += 1;
        if t[i].abs() > ra + rb {
            return false;
        }
    }
    for j in 0..2 {
        let ra = ha[0] * abs_r[0][j] + ha[1] * abs_r[1][j];
        let rb = hb[j];
        let tp = t[0] * r[0][j] + t[1] * r[1][j];
        ops.mul += 4;
        ops.add += 3;
        ops.cmp += 1;
        if tp.abs() > ra + rb {
            return false;
        }
    }
    true
}

/// xorshift64 in `[0, 1)`.
struct Rng(u64);

impl Rng {
    fn unit(&mut self) -> f64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 >> 11) as f64 / (1u64 << 53) as f64
    }

    fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    fn vec(&mut self, lo: f64, hi: f64) -> Vec3 {
        Vec3::new(self.range(lo, hi), self.range(lo, hi), self.range(lo, hi))
    }
}

/// Checks one pair through the prepared body (alone and after other
/// tests on the same body) against the reference; returns the verdict.
fn check(a: &Aabb, b: &Obb) -> bool {
    let mut want = OpCount::default();
    let expected = reference_aabb_obb(a, b, &mut want);

    let mut got = OpCount::default();
    assert_eq!(
        sat::aabb_obb(a, b, &mut got),
        expected,
        "verdict: {a:?} vs {b:?}"
    );
    assert_eq!(got, want, "op charge: {a:?} vs {b:?}");

    // A prepared body reused across tests charges the same in total.
    let mut body = sat::AabbObbBody::new(b);
    let mut batched = OpCount::default();
    for _ in 0..3 {
        assert_eq!(body.overlaps(a.center(), a.half_extents()), expected);
    }
    body.charge(&mut batched);
    assert_eq!(
        batched,
        want + want + want,
        "batched charge: {a:?} vs {b:?}"
    );
    expected
}

#[test]
fn prepared_test_matches_reference_on_random_pairs() {
    let mut rng = Rng(0x5eed_aabb_0bb5_u64);
    let (mut overlaps, mut inside, mut separated) = (0, 0, 0);
    for case in 0..120_000 {
        // Node-like boxes of widely varying size, bodies placed near them
        // so every separating axis and the fast accept all occur.
        let node_c = rng.vec(-50.0, 50.0);
        let node_h = Vec3::new(
            rng.range(0.0, 20.0),
            rng.range(0.0, 20.0),
            rng.range(0.0, 20.0),
        );
        let a = Aabb::from_center_half(node_c, node_h);
        let spread = node_h.x.max(node_h.y).max(node_h.z) + 15.0;
        let mut near_face = |h: f64| {
            let side = if rng.unit() < 0.5 { -1.0 } else { 1.0 };
            side * (h + rng.range(-1.0, 1.0))
        };
        let body_c = if case % 3 == 1 {
            // Straddling the fast-accept boundary: near the box's faces.
            node_c
                + Vec3::new(
                    near_face(node_h.x),
                    near_face(node_h.y),
                    near_face(node_h.z),
                )
        } else {
            node_c + rng.vec(-spread, spread)
        };
        let body_h = Vec3::new(
            rng.range(0.0, 12.0),
            rng.range(0.0, 4.0),
            rng.range(0.0, 4.0),
        );
        let b = if case % 10 == 0 {
            Obb::planar(body_c, body_h.x, body_h.y, rng.range(-4.0, 4.0))
        } else {
            Obb::from_euler(
                body_c,
                body_h,
                rng.range(-4.0, 4.0),
                rng.range(-2.0, 2.0),
                rng.range(-4.0, 4.0),
            )
        };
        if check(&a, &b) {
            overlaps += 1;
            if a.contains_point(b.center()) {
                inside += 1;
            }
        } else {
            separated += 1;
        }
    }
    // The sample covers both verdicts and the fast-accept region.
    assert!(
        overlaps > 10_000 && separated > 10_000,
        "{overlaps} / {separated}"
    );
    assert!(inside > 1_000, "fast accept exercised {inside} times");
}

#[test]
fn prepared_test_matches_reference_on_degenerate_pairs() {
    let unit = Aabb::new(Vec3::ZERO, Vec3::splat(2.0));
    let point = Aabb::new(Vec3::splat(1.0), Vec3::splat(1.0));
    let flat = Aabb::new(Vec3::new(0.0, 0.0, 1.0), Vec3::new(2.0, 2.0, 1.0));
    let tilted = Mat3::from_euler(0.7, -0.3, 1.1);
    let mut bodies = Vec::new();
    for center in [
        Vec3::splat(1.0),          // at the box center
        Vec3::new(2.0, 1.0, 1.0),  // exactly on a face
        Vec3::new(2.0, 2.0, 2.0),  // exactly on a corner
        Vec3::new(0.0, 0.0, 0.0),  // the opposite corner
        Vec3::new(-0.5, 1.0, 1.0), // just outside a face
        Vec3::new(1.0, 1.0, f64::NAN),
        Vec3::splat(f64::NAN),
    ] {
        for half in [Vec3::ZERO, Vec3::splat(0.5), Vec3::new(3.0, 0.0, 0.1)] {
            bodies.push(Obb::axis_aligned(center, half));
            bodies.push(Obb::new(center, half, tilted));
            bodies.push(Obb::new(
                center,
                half,
                Mat3::rotation_z(std::f64::consts::FRAC_PI_2),
            ));
            bodies.push(Obb::planar(center, half.x, half.y, 0.4));
        }
    }
    for a in [unit, point, flat] {
        for b in &bodies {
            check(&a, b);
        }
    }
    // A zero-extent body at a zero-extent box's own center overlaps via
    // the fast accept; one a hair away separates.
    assert!(check(
        &point,
        &Obb::new(Vec3::splat(1.0), Vec3::ZERO, tilted)
    ));
    assert!(!check(
        &point,
        &Obb::new(Vec3::new(1.0, 1.0, 1.0 + 1e-6), Vec3::ZERO, tilted)
    ));
}
