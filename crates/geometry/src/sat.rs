//! Separating-Axis-Theorem intersection tests.
//!
//! The paper's collision-check unit cost analysis (§II-C, Fig 11) hinges on
//! three SAT variants with very different prices:
//!
//! * **OBB–OBB, 3D**: 15 candidate axes (3 + 3 face axes, 9 edge cross
//!   products), each verified with dot products — the expensive exact check
//!   used only in the second stage. [`obb_obb`] is the one exact test: the
//!   all-pairs baseline and the two-stage checker's survivors both run it,
//!   and it stops (and stops charging) at the first separating axis.
//! * **OBB–OBB, 2D**: 4 candidate axes — used by the planar mobile-robot
//!   workload.
//! * **AABB–OBB**: one box is axis-aligned, so the axis set simplifies
//!   (face axes need no change of basis and the 9 cross products have only
//!   two non-zero components each) — the cheap first-stage check run
//!   against R-tree nodes.
//!
//! Every function charges its arithmetic to an [`OpCount`] ledger so the
//! evaluation figures can be regenerated from real counted work.
//!
//! All tests are *inclusive* (touching boxes intersect) and use a small
//! epsilon on the absolute rotation entries to stay robust when edges are
//! near-parallel (Ericson, *Real-Time Collision Detection*, §4.4.1).

use crate::{Aabb, Obb, OpCount, Vec3};

/// Robustness epsilon added to |R| entries before cross-axis tests.
const SAT_EPS: f64 = 1e-9;

/// Exact OBB–OBB intersection test.
///
/// Dispatches to the 4-axis 2D SAT when *both* boxes are flagged planar,
/// otherwise runs the full 15-axis 3D SAT. Increments `ops.sat_queries`.
///
/// # Example
///
/// ```
/// use moped_geometry::{sat, Obb, OpCount, Vec3};
/// let a = Obb::axis_aligned(Vec3::ZERO, Vec3::splat(1.0));
/// let b = Obb::axis_aligned(Vec3::new(3.0, 0.0, 0.0), Vec3::splat(1.0));
/// assert!(!sat::obb_obb(&a, &b, &mut OpCount::default()));
/// ```
pub fn obb_obb(a: &Obb, b: &Obb, ops: &mut OpCount) -> bool {
    ops.sat_queries += 1;
    if a.is_planar() && b.is_planar() {
        obb_obb_2d(a, b, ops)
    } else {
        obb_obb_3d(a, b, ops)
    }
}

/// First-stage AABB–OBB intersection test.
///
/// The AABB plays the role of an R-tree node (obstacle group or single
/// obstacle relaxed to its AABB); the OBB is the robot body. This is
/// [`AabbObbBody`] prepared for a single test: callers that test one body
/// against many boxes (the R-tree filter, the all-pairs AABB baseline)
/// prepare the body once instead. Increments `ops.sat_queries`.
pub fn aabb_obb(a: &Aabb, b: &Obb, ops: &mut OpCount) -> bool {
    let mut body = AabbObbBody::new(b);
    let hit = body.overlaps(a.center(), a.half_extents());
    body.charge(ops);
    hit
}

/// Exit codes of one AABB–OBB test: 0 (overlap) or the 1-based
/// separating axis, at most 15.
const EXITS: usize = 16;
static COST_3D: [[u64; 4]; EXITS] = exit_costs(false);
static COST_2D: [[u64; 4]; EXITS] = exit_costs(true);

/// Modelled `[mul, add, cmp]` of evaluating 1-based `axis`: world axes
/// need a 3-term (2D: 2-term) body radius; box axes two dots; cross axes
/// two 2-element dots per radius plus the projection.
const fn axis_cost(planar: bool, axis: usize) -> [u64; 3] {
    match (planar, axis) {
        (true, 1..=2) => [2, 2, 1],
        (true, _) => [4, 3, 1],
        (false, 1..=3) => [3, 3, 1],
        (false, 4..=6) => [6, 5, 1],
        (false, _) => [6, 4, 1],
    }
}

/// Modelled `[sat_queries, mul, add, cmp]` charge of one AABB–OBB test,
/// indexed by its exit (see [`AabbObbBody::overlaps`]): the setup adds
/// (`t`, then `|R| + ε`) plus every axis evaluated up to and including
/// the separating one, or all axes for an overlap.
const fn exit_costs(planar: bool) -> [[u64; 4]; EXITS] {
    let (axes, setup_add) = if planar { (4, 2 + 4) } else { (15, 3 + 9) };
    let mut table = [[0u64; 4]; EXITS];
    let mut exit = 0;
    while exit < EXITS {
        let evaluated = if exit == 0 || exit > axes { axes } else { exit };
        let mut cost = [1, 0, setup_add, 0];
        let mut axis = 1;
        while axis <= evaluated {
            let c = axis_cost(planar, axis);
            cost[1] += c[0];
            cost[2] += c[1];
            cost[3] += c[2];
            axis += 1;
        }
        table[exit] = cost;
        exit += 1;
    }
    table
}

/// A robot body prepared once for first-stage AABB–OBB tests against
/// many boxes.
///
/// Because the AABB's frame is the world frame, the relative rotation
/// *is* the body's rotation — no change-of-basis product is paid — and
/// each of the nine cross-product axes reduces to a two-component test.
/// Everything that depends on the body alone is computed here, once, with
/// the same expressions a single test would use: `|R| + ε`, the three
/// world-axis body radii and the nine cross-axis body radii. Each test
/// then computes only the box-dependent terms, so verdicts are
/// bit-identical to testing each box from scratch.
///
/// The modelled op charge is the test-from-scratch charge, which depends
/// only on the test's exit axis: each test adds its exit's row of a
/// per-exit table to a running total, and [`AabbObbBody::charge`] moves
/// the total into [`OpCount`] in one step.
#[derive(Clone, Copy, Debug)]
pub struct AabbObbBody {
    planar: bool,
    center: [f64; 3],
    half: [f64; 3],
    /// `rot[i][j]`: component `i` of body axis `j`.
    rot: [[f64; 3]; 3],
    /// `|rot[i][j]| + ε`.
    abs_r: [[f64; 3]; 3],
    /// Body radius along world axis `i`.
    world_rb: [f64; 3],
    /// Body radius along cross axis `e_i × b_j`.
    cross_rb: [[f64; 3]; 3],
    charges: ExitCharges,
}

/// The modelled charges of the tests a prepared body has run: each test
/// records its exit, and [`ExitCharges::charge`] moves the total into
/// [`OpCount`] in one step.
#[derive(Clone, Copy, Debug)]
struct ExitCharges {
    /// Per-exit charges of one test (3D or planar).
    costs: &'static [[u64; 4]; EXITS],
    /// `[sat_queries, mul, add, cmp]` recorded since the last charge.
    owed: [u64; 4],
}

impl ExitCharges {
    #[inline(always)]
    fn new(planar: bool) -> Self {
        ExitCharges {
            costs: if planar { &COST_2D } else { &COST_3D },
            owed: [0; 4],
        }
    }

    /// Records one test that exited at `exit`.
    #[inline(always)]
    fn record(&mut self, exit: usize) {
        for (owed, c) in self.owed.iter_mut().zip(&self.costs[exit]) {
            *owed += c;
        }
    }

    #[inline(always)]
    fn charge(&mut self, ops: &mut OpCount) {
        let [sat_queries, mul, add, cmp] = std::mem::take(&mut self.owed);
        ops.sat_queries += sat_queries;
        ops.mul += mul;
        ops.add += add;
        ops.cmp += cmp;
    }
}

impl AabbObbBody {
    /// Prepares `body` (planar bodies get the 4-axis 2D test).
    // Indexed loops keep the i/j axis pairing of the per-axis SAT tables.
    #[allow(clippy::needless_range_loop)]
    #[inline(always)]
    pub fn new(body: &Obb) -> Self {
        let planar = body.is_planar();
        let c = body.center();
        let h = body.half_extents();
        let hb = [h.x, h.y, h.z];
        let rot = body.rotation().m;
        let mut abs_r = [[0.0; 3]; 3];
        for i in 0..3 {
            for j in 0..3 {
                abs_r[i][j] = rot[i][j].abs() + SAT_EPS;
            }
        }
        let mut world_rb = [0.0; 3];
        let mut cross_rb = [[0.0; 3]; 3];
        if planar {
            for i in 0..2 {
                world_rb[i] = hb[0] * abs_r[i][0] + hb[1] * abs_r[i][1];
            }
        } else {
            for i in 0..3 {
                world_rb[i] = hb[0] * abs_r[i][0] + hb[1] * abs_r[i][1] + hb[2] * abs_r[i][2];
                for j in 0..3 {
                    let (p, q) = ((j + 1) % 3, (j + 2) % 3);
                    cross_rb[i][j] = hb[p] * abs_r[i][q] + hb[q] * abs_r[i][p];
                }
            }
        }
        AabbObbBody {
            planar,
            center: [c.x, c.y, c.z],
            half: hb,
            rot,
            abs_r,
            world_rb,
            cross_rb,
            charges: ExitCharges::new(planar),
        }
    }

    /// Tests the body against the AABB with the given center and
    /// half-extents (inclusive: touching boxes overlap) and records the
    /// test for [`AabbObbBody::charge`].
    #[inline(always)]
    pub fn overlaps(&mut self, center: Vec3, half: Vec3) -> bool {
        let (center, half) = ([center.x, center.y, center.z], [half.x, half.y, half.z]);
        let exit = if self.planar {
            self.exit_2d(&center, &half)
        } else {
            self.exit_3d(&center, &half)
        };
        self.charges.record(exit);
        exit == 0
    }

    /// Charges every test recorded since the last charge to `ops` and
    /// clears the record.
    #[inline(always)]
    pub fn charge(&mut self, ops: &mut OpCount) {
        self.charges.charge(ops);
    }

    /// 15-axis test: 0 if no axis separates, else the 1-based separating
    /// axis (1–3 world, 4–6 body, 7–15 cross).
    ///
    /// **Fast accept.** Once the world axes pass, a body center inside
    /// the box (`|t_i| ≤ ha_i`) is an overlap without testing axes 4–15.
    /// This is exact, not approximate: on every remaining axis `|tp|` and
    /// `ra` are sums of the same number of products in the same order, and
    /// each product in `|tp|` is bounded termwise by one in `ra`
    /// (`|t_i| ≤ ha_i`, `|R| ≤ |R| + ε`). IEEE rounding is monotone and
    /// sign-symmetric, so the computed `|tp|` never exceeds the computed
    /// `ra`, and `ra + rb ≥ ra` since `rb ≥ 0`. None of axes 4–15 can
    /// separate, whatever the magnitudes (zero extents included). A NaN
    /// fails the containment comparison and takes the full path.
    // Indexed loops keep the i/j axis pairing of the per-axis SAT tables.
    #[allow(clippy::needless_range_loop)]
    #[inline(always)]
    fn exit_3d(&self, center: &[f64; 3], ha: &[f64; 3]) -> usize {
        let ta = [
            self.center[0] - center[0],
            self.center[1] - center[1],
            self.center[2] - center[2],
        ];

        // Axes L = world axis i: ra is the box half-extent, rb prepared.
        // All three are compared and the first separating one is read off
        // a bit mask, so the common early exit costs one branch.
        let sep = (ta[0].abs() > ha[0] + self.world_rb[0]) as u32
            | ((ta[1].abs() > ha[1] + self.world_rb[1]) as u32) << 1
            | ((ta[2].abs() > ha[2] + self.world_rb[2]) as u32) << 2;
        if sep != 0 {
            return sep.trailing_zeros() as usize + 1;
        }
        let inside = (ta[0].abs() <= ha[0]) & (ta[1].abs() <= ha[1]) & (ta[2].abs() <= ha[2]);
        if inside {
            return 0;
        }

        // Axes L = body axis j: ra needs a 3-term dot over an |R| column,
        // t must be projected onto the body axis (3-term dot).
        let (r, abs_r) = (&self.rot, &self.abs_r);
        for j in 0..3 {
            let ra = ha[0] * abs_r[0][j] + ha[1] * abs_r[1][j] + ha[2] * abs_r[2][j];
            let tp = ta[0] * r[0][j] + ta[1] * r[1][j] + ta[2] * r[2][j];
            if tp.abs() > ra + self.half[j] {
                return 4 + j;
            }
        }

        // Cross axes L = e_i × b_j. With e_i a world axis the cross
        // product has exactly two non-zero components, so every term is a
        // 2-element dot.
        for i in 0..3 {
            let (u, v) = ((i + 1) % 3, (i + 2) % 3);
            for j in 0..3 {
                let ra = ha[u] * abs_r[v][j] + ha[v] * abs_r[u][j];
                let tp = ta[v] * r[u][j] - ta[u] * r[v][j];
                if tp.abs() > ra + self.cross_rb[i][j] {
                    return 7 + 3 * i + j;
                }
            }
        }
        0
    }

    /// 4-axis planar test: the box's axes are the world axes, so the
    /// relative rotation is the body's own 2×2 block. Returns 0 or the
    /// 1-based separating axis (1–2 world, 3–4 body).
    // Indexed loops keep the i/j axis pairing of the per-axis SAT tables.
    #[allow(clippy::needless_range_loop)]
    #[inline(always)]
    fn exit_2d(&self, center: &[f64; 3], ha: &[f64; 3]) -> usize {
        let t = [self.center[0] - center[0], self.center[1] - center[1]];
        for i in 0..2 {
            if t[i].abs() > ha[i] + self.world_rb[i] {
                return i + 1;
            }
        }
        let (r, abs_r) = (&self.rot, &self.abs_r);
        for j in 0..2 {
            let ra = ha[0] * abs_r[0][j] + ha[1] * abs_r[1][j];
            let tp = t[0] * r[0][j] + t[1] * r[1][j];
            if tp.abs() > ra + self.half[j] {
                return 3 + j;
            }
        }
        0
    }
}

/// Relative margin of [`SweptAabbObbBody`]'s classification, scaled by
/// the magnitudes a test combines.
///
/// Every quantity a per-pose test compares is a handful of IEEE
/// operations on values no larger than that scale (the pose center, the
/// box center and half-extent, the body radius), and a pose's center and
/// rotation rows are themselves a few rounded operations away from the
/// bounds the swept body assumes. The whole discrepancy is a small
/// multiple of the unit roundoff `2⁻⁵³ ≈ 1.1e-16` times the scale; this
/// margin exceeds it by more than five orders of magnitude.
const SWEPT_MARGIN: f64 = 1e-9;

/// A rigid body over every pose of a motion, prepared to run first-stage
/// AABB–OBB tests for all poses at once.
///
/// The poses are known only by bounds: each pose's body center lies in a
/// box of centers, and its body is a box with fixed half-extents `h` in
/// some rotation. Every row of a rotation is a unit vector, so each
/// world-axis body radius [`AabbObbBody`] computes,
/// `Σⱼ hⱼ (|Rᵢⱼ| + ε)`, lies in `[min h, |h|₂ + ε|h|₁]` (the lower bound
/// from `|row|₁ ≥ |row|₂ = 1`, the upper one by Cauchy–Schwarz).
///
/// [`SweptAabbObbBody::classify`] decides a test for every pose, or
/// declines. It only uses world axes, where the pose's rotation enters
/// through that radius alone:
///
/// * *exit at world axis `k`* when axis `k` separates on every pose and
///   every earlier world axis separates on none, so every pose's test
///   exits at `k`;
/// * *overlap* when the center is inside the box on every pose: the 3D
///   test fast-accepts there, and the planar test, which has no fast
///   accept, still finds no separating body axis by the same termwise
///   bound (see [`AabbObbBody`]'s 15-axis test), so every pose exits at 0;
/// * *unknown* otherwise, including whenever a bound is NaN.
///
/// Each classified test records its exit's row of the per-exit charge
/// table that [`AabbObbBody`] uses, so after `n` poses' worth of
/// classified tests the charge equals `n` times what one pose's tests
/// charge.
#[derive(Clone, Copy, Debug)]
pub struct SweptAabbObbBody {
    planar: bool,
    /// Lowest and highest body center per world axis.
    lo: [f64; 3],
    hi: [f64; 3],
    /// Bounds on every pose's world-axis body radius.
    rb_lo: f64,
    rb_hi: f64,
    /// Magnitude of the body's own coordinates, for the margin.
    scale: f64,
    charges: ExitCharges,
}

impl SweptAabbObbBody {
    /// Prepares a body with half-extents `half` whose center lies in
    /// `centers` on every pose (planar bodies use the 4-axis 2D test and
    /// only their `x` and `y` extents).
    pub fn new(centers: &Aabb, half: Vec3, planar: bool) -> Self {
        let (lo, hi) = (centers.min(), centers.max());
        let h = half;
        let (h_min, l2_sq, l1) = if planar {
            (h.x.min(h.y), h.x * h.x + h.y * h.y, h.x + h.y)
        } else {
            (h.x.min(h.y).min(h.z), h.norm_sq(), h.x + h.y + h.z)
        };
        let rb_hi = l2_sq.sqrt() + SAT_EPS * l1;
        let reach = lo.abs().max(hi.abs());
        SweptAabbObbBody {
            planar,
            lo: [lo.x, lo.y, lo.z],
            hi: [hi.x, hi.y, hi.z],
            rb_lo: h_min,
            rb_hi,
            scale: reach.x.max(reach.y).max(reach.z) + rb_hi,
            charges: ExitCharges::new(planar),
        }
    }

    /// Whether the body uses the planar (2D) test.
    pub fn is_planar(&self) -> bool {
        self.planar
    }

    /// Classifies the test against the AABB with the given center and
    /// half-extents for every pose: `Some(true)` if every pose's test
    /// overlaps, `Some(false)` if every pose's test separates at the same
    /// world axis, `None` if the poses' tests are not provably alike.
    /// A classified test is recorded for [`SweptAabbObbBody::charge`].
    #[inline(always)]
    pub fn classify(&mut self, center: Vec3, half: Vec3) -> Option<bool> {
        let (c, ha) = ([center.x, center.y, center.z], [half.x, half.y, half.z]);
        let axes = if self.planar { 2 } else { 3 };
        let mut inside = true;
        for i in 0..axes {
            // Nearest and farthest |pose center − box center| on axis i.
            let (below, above) = (c[i] - self.lo[i], self.hi[i] - c[i]);
            let near = (-below).max(-above).max(0.0);
            let far = below.max(above);
            let m = SWEPT_MARGIN * (self.scale + c[i].abs() + ha[i]);
            if near - m > ha[i] + self.rb_hi {
                self.charges.record(i + 1);
                return Some(false);
            }
            // No pose separates on this axis (false on any NaN).
            let never_separates = far + m < ha[i] + self.rb_lo;
            if !never_separates {
                return None;
            }
            inside &= far + m < ha[i];
        }
        if inside {
            self.charges.record(0);
            Some(true)
        } else {
            None
        }
    }

    /// Charges every test classified since the last charge, once (one
    /// pose's worth), to `ops` and clears the record.
    pub fn charge(&mut self, ops: &mut OpCount) {
        self.charges.charge(ops);
    }
}

/// Full 15-axis 3D OBB–OBB SAT (Ericson §4.4.1).
// Indexed loops keep the i/j axis indices aligned with Ericson's tables.
#[allow(clippy::needless_range_loop)]
fn obb_obb_3d(a: &Obb, b: &Obb, ops: &mut OpCount) -> bool {
    let ha = [a.half_extents().x, a.half_extents().y, a.half_extents().z];
    let hb = [b.half_extents().x, b.half_extents().y, b.half_extents().z];

    // R[i][j] = a_i · b_j : express B in A's frame (9 three-term dots).
    let mut r = [[0.0; 3]; 3];
    for i in 0..3 {
        for j in 0..3 {
            r[i][j] = a.axis(i).dot(b.axis(j));
        }
    }
    ops.mul += 27;
    ops.add += 18;

    // Translation in A's frame (3 dots after the world-frame subtract).
    let tw = b.center() - a.center();
    let t = [tw.dot(a.axis(0)), tw.dot(a.axis(1)), tw.dot(a.axis(2))];
    ops.mul += 9;
    ops.add += 9;

    let mut abs_r = [[0.0; 3]; 3];
    for i in 0..3 {
        for j in 0..3 {
            abs_r[i][j] = r[i][j].abs() + SAT_EPS;
        }
    }
    ops.add += 9;

    // Axes L = A_i.
    for i in 0..3 {
        let ra = ha[i];
        let rb = hb[0] * abs_r[i][0] + hb[1] * abs_r[i][1] + hb[2] * abs_r[i][2];
        ops.mul += 3;
        ops.add += 3;
        ops.cmp += 1;
        if t[i].abs() > ra + rb {
            return false;
        }
    }

    // Axes L = B_j.
    for j in 0..3 {
        let ra = ha[0] * abs_r[0][j] + ha[1] * abs_r[1][j] + ha[2] * abs_r[2][j];
        let rb = hb[j];
        let tp = t[0] * r[0][j] + t[1] * r[1][j] + t[2] * r[2][j];
        ops.mul += 6;
        ops.add += 5;
        ops.cmp += 1;
        if tp.abs() > ra + rb {
            return false;
        }
    }

    // Cross axes L = A_i × B_j.
    for i in 0..3 {
        let (u, v) = ((i + 1) % 3, (i + 2) % 3);
        for j in 0..3 {
            let (p, q) = ((j + 1) % 3, (j + 2) % 3);
            let ra = ha[u] * abs_r[v][j] + ha[v] * abs_r[u][j];
            let rb = hb[p] * abs_r[i][q] + hb[q] * abs_r[i][p];
            let tp = t[v] * r[u][j] - t[u] * r[v][j];
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

/// 4-axis 2D OBB–OBB SAT for planar boxes (ignores z entirely).
fn obb_obb_2d(a: &Obb, b: &Obb, ops: &mut OpCount) -> bool {
    // 2x2 relative rotation r[i][j] = a_i · b_j over the plane.
    let axes_a = [a.axis(0), a.axis(1)];
    let axes_b = [b.axis(0), b.axis(1)];
    let ha = [a.half_extents().x, a.half_extents().y];
    let hb = [b.half_extents().x, b.half_extents().y];
    let mut r = [[0.0; 2]; 2];
    for i in 0..2 {
        for j in 0..2 {
            r[i][j] = axes_a[i].x * axes_b[j].x + axes_a[i].y * axes_b[j].y;
        }
    }
    ops.mul += 8;
    ops.add += 4;

    let tw = b.center() - a.center();
    ops.add += 2;
    let t = [
        tw.x * axes_a[0].x + tw.y * axes_a[0].y,
        tw.x * axes_a[1].x + tw.y * axes_a[1].y,
    ];
    ops.mul += 4;
    ops.add += 2;

    let mut abs_r = [[0.0; 2]; 2];
    for i in 0..2 {
        for j in 0..2 {
            abs_r[i][j] = r[i][j].abs() + SAT_EPS;
        }
    }
    ops.add += 4;

    // Axes L = A_i.
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

    // Axes L = B_j.
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

/// Brute-force intersection oracle for testing: samples a dense lattice of
/// points inside `a` and reports whether any falls inside `b`, then vice
/// versa, and finally checks segment-level corner containment. This is a
/// *sound but incomplete* detector (it can miss razor-thin overlaps), so
/// tests use it one-directionally: `oracle ⇒ SAT must agree`.
pub fn sampling_oracle(a: &Obb, b: &Obb, per_axis: usize) -> bool {
    let n = per_axis.max(2);
    let probe = |src: &Obb, dst: &Obb| -> bool {
        let h = src.half_extents();
        for ix in 0..n {
            for iy in 0..n {
                for iz in 0..n {
                    let fx = -1.0 + 2.0 * ix as f64 / (n - 1) as f64;
                    let fy = -1.0 + 2.0 * iy as f64 / (n - 1) as f64;
                    let fz = -1.0 + 2.0 * iz as f64 / (n - 1) as f64;
                    let local = Vec3::new(fx * h.x, fy * h.y, fz * h.z);
                    let world = src.center() + src.rotation() * local;
                    if dst.contains_point(world) {
                        return true;
                    }
                }
            }
        }
        false
    };
    probe(a, b) || probe(b, a)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Mat3;

    fn unit_at(x: f64) -> Obb {
        Obb::axis_aligned(Vec3::new(x, 0.0, 0.0), Vec3::splat(1.0))
    }

    #[test]
    fn separated_boxes_disjoint() {
        let mut ops = OpCount::default();
        assert!(!obb_obb(&unit_at(0.0), &unit_at(3.0), &mut ops));
        assert_eq!(ops.sat_queries, 1);
    }

    #[test]
    fn overlapping_boxes_intersect() {
        let mut ops = OpCount::default();
        assert!(obb_obb(&unit_at(0.0), &unit_at(1.5), &mut ops));
    }

    #[test]
    fn touching_boxes_intersect_inclusively() {
        let mut ops = OpCount::default();
        assert!(obb_obb(&unit_at(0.0), &unit_at(2.0), &mut ops));
    }

    #[test]
    fn rotated_diamond_fits_in_gap() {
        // A unit square rotated 45° has x-radius sqrt(2); place it just
        // beyond so the face-axis test passes but cross-axis style
        // reasoning matters.
        let a = unit_at(0.0);
        let b = Obb::new(
            Vec3::new(2.0 + 2f64.sqrt() + 0.01, 0.0, 0.0),
            Vec3::splat(1.0),
            Mat3::rotation_z(std::f64::consts::FRAC_PI_4),
        );
        let mut ops = OpCount::default();
        assert!(!obb_obb(&a, &b, &mut ops));
        let c = b.at_center(Vec3::new(1.0 + 2f64.sqrt() - 0.01, 0.0, 0.0));
        assert!(obb_obb(&a, &c, &mut ops));
    }

    #[test]
    fn edge_edge_separation_needs_cross_axes() {
        // Classic case where only a cross-product axis separates:
        // two long thin boxes skewed in 3D.
        let a = Obb::new(Vec3::ZERO, Vec3::new(10.0, 0.1, 0.1), Mat3::IDENTITY);
        let b = Obb::new(
            Vec3::new(0.0, 0.5, 0.5),
            Vec3::new(10.0, 0.1, 0.1),
            Mat3::rotation_z(std::f64::consts::FRAC_PI_2)
                * Mat3::rotation_x(std::f64::consts::FRAC_PI_4),
        );
        let mut ops = OpCount::default();
        let hit = obb_obb(&a, &b, &mut ops);
        // Verify against the oracle rather than hand-solving.
        assert_eq!(hit, sampling_oracle(&a, &b, 24) || hit);
    }

    #[test]
    fn aabb_obb_agrees_with_full_sat_on_identity() {
        // When the OBB is axis-aligned, AABB–OBB must behave exactly like
        // AABB–AABB overlap.
        let a = Aabb::new(Vec3::ZERO, Vec3::splat(2.0));
        let near = Obb::axis_aligned(Vec3::splat(2.5), Vec3::splat(1.0));
        let far = Obb::axis_aligned(Vec3::splat(4.0), Vec3::splat(0.5));
        let mut ops = OpCount::default();
        assert!(aabb_obb(&a, &near, &mut ops));
        assert!(!aabb_obb(&a, &far, &mut ops));
    }

    #[test]
    fn aabb_obb_is_cheaper_than_obb_obb() {
        let a = Aabb::new(Vec3::ZERO, Vec3::splat(2.0));
        let a_as_obb = Obb::axis_aligned(a.center(), a.half_extents());
        let b = Obb::from_euler(Vec3::splat(1.0), Vec3::splat(1.0), 0.4, 0.3, 0.2);
        let mut cheap = OpCount::default();
        let mut full = OpCount::default();
        let r1 = aabb_obb(&a, &b, &mut cheap);
        let r2 = obb_obb(&a_as_obb, &b, &mut full);
        assert_eq!(r1, r2);
        assert!(
            cheap.mac_equiv() < full.mac_equiv(),
            "first-stage check must be cheaper: {} vs {}",
            cheap.mac_equiv(),
            full.mac_equiv()
        );
    }

    #[test]
    fn planar_sat_is_cheaper_than_3d() {
        let a2 = Obb::planar(Vec3::ZERO, 1.0, 1.0, 0.2);
        let b2 = Obb::planar(Vec3::new(1.0, 1.0, 0.0), 1.0, 1.0, -0.3);
        let a3 = Obb::from_euler(Vec3::ZERO, Vec3::splat(1.0), 0.2, 0.0, 0.0);
        let b3 = Obb::from_euler(Vec3::new(1.0, 1.0, 0.0), Vec3::splat(1.0), -0.3, 0.0, 0.0);
        let mut c2 = OpCount::default();
        let mut c3 = OpCount::default();
        assert!(obb_obb(&a2, &b2, &mut c2));
        assert!(obb_obb(&a3, &b3, &mut c3));
        assert!(c2.mac_equiv() < c3.mac_equiv());
    }

    #[test]
    fn planar_rotation_separates_in_2d() {
        // Two planar unit squares: rotated one slips past at distance
        // beyond sqrt(2)+1.
        let a = Obb::planar(Vec3::ZERO, 1.0, 1.0, 0.0);
        let sep = 1.0 + 2f64.sqrt();
        let b = Obb::planar(
            Vec3::new(sep + 0.01, 0.0, 0.0),
            1.0,
            1.0,
            std::f64::consts::FRAC_PI_4,
        );
        let c = Obb::planar(
            Vec3::new(sep - 0.01, 0.0, 0.0),
            1.0,
            1.0,
            std::f64::consts::FRAC_PI_4,
        );
        let mut ops = OpCount::default();
        assert!(!obb_obb(&a, &b, &mut ops));
        assert!(obb_obb(&a, &c, &mut ops));
    }

    #[test]
    fn symmetry_of_sat() {
        let a = Obb::from_euler(Vec3::ZERO, Vec3::new(2.0, 1.0, 0.5), 0.3, 0.6, -0.2);
        let b = Obb::from_euler(
            Vec3::new(1.5, 1.0, 0.2),
            Vec3::new(0.5, 1.5, 1.0),
            -0.7,
            0.1,
            0.9,
        );
        let mut ops = OpCount::default();
        assert_eq!(obb_obb(&a, &b, &mut ops), obb_obb(&b, &a, &mut ops));
    }

    #[test]
    fn aabb_obb_conservative_wrt_exact() {
        // If AABB-stage says free, the exact OBB-OBB on the *enclosed*
        // obstacle must also be free. Model: obstacle OBB inside its AABB.
        let obstacle = Obb::from_euler(
            Vec3::new(5.0, 5.0, 5.0),
            Vec3::new(2.0, 1.0, 1.0),
            0.7,
            0.2,
            0.1,
        );
        let relax = obstacle.aabb();
        let robot = Obb::from_euler(Vec3::new(9.5, 5.0, 5.0), Vec3::splat(1.0), 0.1, 0.0, 0.0);
        let mut ops = OpCount::default();
        if !aabb_obb(&relax, &robot, &mut ops) {
            assert!(!obb_obb(&obstacle, &robot, &mut ops));
        }
    }
}
