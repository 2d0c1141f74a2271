//! Path-clearance metrics.
//!
//! Path *cost* is the paper's headline quality metric; practitioners also
//! care how much margin a path keeps from obstacles (a path that grazes
//! every corner is cheap but fragile under tracking error). With the GJK
//! distance kernel available, clearance is directly measurable: the
//! minimum obstacle distance over every checked pose of every body box.

use moped_env::Scenario;
use moped_geometry::{gjk, Config, InterpolationSteps, OpCount};

/// Clearance profile of a path through a scenario.
#[derive(Clone, Debug, PartialEq)]
pub struct ClearanceProfile {
    /// Minimum clearance over the whole path (0 on contact).
    pub min: f64,
    /// Mean of the per-pose minimum clearances.
    pub mean: f64,
    /// Per-pose minimum clearances in path order.
    pub per_pose: Vec<f64>,
}

/// Measures the clearance of `path` against the scenario's obstacles at
/// the given interpolation resolution.
///
/// Returns `None` for paths with fewer than two waypoints.
pub fn measure(
    scenario: &Scenario,
    path: &[Config],
    steps: &InterpolationSteps,
) -> Option<ClearanceProfile> {
    if path.len() < 2 {
        return None;
    }
    let mut ops = OpCount::default();
    let mut per_pose = Vec::new();
    for w in path.windows(2) {
        for pose in steps.poses(&w[0], &w[1]) {
            let mut pose_min = f64::INFINITY;
            for body in scenario.robot.body_obbs(&pose) {
                for obs in &scenario.obstacles {
                    let d = gjk::distance(obs, &body, &mut ops).distance;
                    pose_min = pose_min.min(d);
                }
            }
            if pose_min.is_finite() {
                per_pose.push(pose_min);
            }
        }
    }
    if per_pose.is_empty() {
        // No obstacles: clearance is unbounded; report infinity once.
        return Some(ClearanceProfile {
            min: f64::INFINITY,
            mean: f64::INFINITY,
            per_pose,
        });
    }
    let min = per_pose.iter().copied().fold(f64::INFINITY, f64::min);
    let mean = per_pose.iter().sum::<f64>() / per_pose.len() as f64;
    Some(ClearanceProfile {
        min,
        mean,
        per_pose,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use moped_core::{PlannerParams, Variant};
    use moped_env::ScenarioParams;
    use moped_robot::Robot;

    #[test]
    fn planned_paths_have_positive_clearance() {
        let s = Scenario::generate(Robot::mobile_2d(), &ScenarioParams::with_obstacles(16), 33);
        let params = PlannerParams {
            max_samples: 800,
            seed: 2,
            ..PlannerParams::default()
        };
        let r = Variant::V4Lci.profile().plan(&s, &params);
        if let Some(path) = &r.path {
            let steps = InterpolationSteps::with_resolution(2.0);
            let profile = measure(&s, path, &steps).expect("non-trivial path");
            assert!(
                profile.min >= 0.0,
                "collision-free paths cannot have negative clearance"
            );
            assert!(profile.mean >= profile.min);
            assert!(!profile.per_pose.is_empty());
        }
    }

    #[test]
    fn empty_world_reports_unbounded_clearance() {
        let mut s = Scenario::generate(Robot::mobile_2d(), &ScenarioParams::with_obstacles(8), 1);
        s.obstacles.clear();
        let path = vec![s.start, s.goal];
        let steps = InterpolationSteps::with_resolution(10.0);
        let profile = measure(&s, &path, &steps).unwrap();
        assert_eq!(profile.min, f64::INFINITY);
    }

    #[test]
    fn degenerate_path_returns_none() {
        let s = Scenario::generate(Robot::mobile_2d(), &ScenarioParams::with_obstacles(8), 2);
        let steps = InterpolationSteps::default();
        assert!(measure(&s, &[s.start], &steps).is_none());
    }

    #[test]
    fn clearance_shrinks_in_narrow_passage() {
        let open = Scenario::generate(Robot::mobile_2d(), &ScenarioParams::with_obstacles(4), 3);
        let narrow = Scenario::narrow_passage(Robot::mobile_2d(), 30.0, 0.0);
        let params = PlannerParams {
            max_samples: 2000,
            seed: 6,
            ..PlannerParams::default()
        };
        let ro = Variant::V4Lci.profile().plan(&open, &params);
        let rn = Variant::V4Lci.profile().plan(&narrow, &params);
        if let (Some(po), Some(pn)) = (&ro.path, &rn.path) {
            let steps = InterpolationSteps::with_resolution(2.0);
            let co = measure(&open, po, &steps).unwrap();
            let cn = measure(&narrow, pn, &steps).unwrap();
            assert!(
                cn.min < co.min + 20.0,
                "threading a 30-unit slot should not leave huge margins: {} vs {}",
                cn.min,
                co.min
            );
        }
    }
}
