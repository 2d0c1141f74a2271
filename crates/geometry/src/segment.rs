//! Configuration-space segment interpolation.
//!
//! RRT\* must verify that the *entire movement course* between two
//! configurations is collision free (§II-C), so motions are discretized
//! into intermediate configurations at a fixed resolution and each pose is
//! collision checked.

use crate::Config;

/// Resolution policy for discretizing a straight configuration-space
/// motion into collision-check poses.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct InterpolationSteps {
    /// Maximum configuration-space distance between consecutive checked
    /// poses.
    pub resolution: f64,
    /// Hard cap on the number of intermediate poses (guards against
    /// degenerate long motions).
    pub max_steps: usize,
}

impl InterpolationSteps {
    /// Creates a policy with the given resolution and a 64-pose cap.
    ///
    /// # Panics
    ///
    /// Panics if `resolution` is not strictly positive.
    pub fn with_resolution(resolution: f64) -> Self {
        assert!(resolution > 0.0, "resolution must be positive");
        InterpolationSteps {
            resolution,
            max_steps: 64,
        }
    }

    /// Number of poses (including the endpoint, excluding the start) that
    /// a motion of length `dist` is split into.
    pub fn count(&self, dist: f64) -> usize {
        if dist <= f64::EPSILON {
            return 1;
        }
        ((dist / self.resolution).ceil() as usize).clamp(1, self.max_steps)
    }

    /// The checked poses of the straight motion `from → to`, generated in
    /// place: [`InterpolationSteps::count`] evenly spaced poses ending
    /// exactly at `to` (the start pose is assumed already validated when
    /// its node entered the tree). This is the one definition of a
    /// motion's pose sequence; it never allocates.
    pub fn poses(&self, from: &Config, to: &Config) -> Poses {
        Poses {
            from: *from,
            to: *to,
            next: 1,
            n: self.count(from.distance(to)),
        }
    }
}

/// Iterator over a motion's checked poses; see
/// [`InterpolationSteps::poses`].
#[derive(Clone, Debug)]
pub struct Poses {
    from: Config,
    to: Config,
    /// 1-based index of the next pose.
    next: usize,
    n: usize,
}

impl Iterator for Poses {
    type Item = Config;

    #[inline]
    fn next(&mut self) -> Option<Config> {
        let i = self.next;
        if i > self.n {
            return None;
        }
        self.next += 1;
        // Emit the endpoint exactly rather than via lerp(.., 1.0), which
        // can differ by an ULP and would make the planner store a drifted
        // node.
        Some(if i == self.n {
            self.to
        } else {
            self.from.lerp(&self.to, i as f64 / self.n as f64)
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.n + 1 - self.next;
        (left, Some(left))
    }
}

impl ExactSizeIterator for Poses {}

impl Default for InterpolationSteps {
    /// One pose per 2.0 configuration-space units, matching the evaluation
    /// workspace scale (300-unit extents, ~5-unit steering steps).
    fn default() -> Self {
        InterpolationSteps::with_resolution(2.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_length_motion_has_single_pose() {
        let a = Config::new(&[1.0, 1.0]);
        let poses: Vec<Config> = InterpolationSteps::default().poses(&a, &a).collect();
        assert_eq!(poses, vec![a]);
    }

    #[test]
    fn last_pose_is_exact_target() {
        let a = Config::new(&[0.0, 0.0, 0.0]);
        let b = Config::new(&[3.7, -1.2, 0.4]);
        let poses = InterpolationSteps::with_resolution(0.5).poses(&a, &b);
        assert_eq!(poses.last(), Some(b));
    }

    #[test]
    fn spacing_respects_resolution() {
        let a = Config::new(&[0.0, 0.0]);
        let b = Config::new(&[10.0, 0.0]);
        let policy = InterpolationSteps::with_resolution(1.0);
        let poses = policy.poses(&a, &b);
        assert_eq!(poses.len(), 10);
        let mut prev = a;
        for p in poses {
            assert!(prev.distance(&p) <= 1.0 + 1e-9);
            prev = p;
        }
    }

    #[test]
    fn max_steps_caps_pose_count() {
        let a = Config::new(&[0.0]);
        let b = Config::new(&[1e9]);
        let policy = InterpolationSteps {
            resolution: 1.0,
            max_steps: 16,
        };
        assert_eq!(policy.poses(&a, &b).len(), 16);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_resolution_rejected() {
        let _ = InterpolationSteps::with_resolution(0.0);
    }

    #[test]
    fn poses_report_their_remaining_length() {
        let a = Config::new(&[0.0, 0.0]);
        let b = Config::new(&[10.0, 0.0]);
        let policy = InterpolationSteps::with_resolution(3.0);
        let mut poses = policy.poses(&a, &b);
        assert_eq!(poses.len(), policy.count(a.distance(&b)));
        assert_eq!(poses.len(), 4);
        poses.next();
        assert_eq!(poses.len(), 3);
        assert_eq!(poses.last(), Some(b));
    }

    #[test]
    fn count_of_short_motion_is_one() {
        let policy = InterpolationSteps::with_resolution(2.0);
        assert_eq!(policy.count(0.5), 1);
        assert_eq!(policy.count(2.0), 1);
        assert_eq!(policy.count(2.1), 2);
    }
}
