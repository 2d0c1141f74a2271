//! Planning across the named-scene catalog: every scene is solvable by
//! the full MOPED stack for the free-flying robots, and the scenes
//! actually exercise the behaviours they are named for.

use moped::core::{PlannerParams, Variant};
use moped::env::catalog::{build, NamedScene};
use moped::robot::Robot;

fn params(samples: usize) -> PlannerParams {
    PlannerParams {
        max_samples: samples,
        seed: 11,
        ..PlannerParams::default()
    }
}

#[test]
fn mobile_robot_solves_every_catalog_scene() {
    for scene in NamedScene::ALL {
        let s = build(scene, Robot::mobile_2d());
        let r = Variant::V4Lci.profile().plan(&s, &params(4000));
        assert!(
            r.solved(),
            "{} should be solvable for the mobile robot",
            scene.name()
        );
        assert!(r.path_cost.is_finite());
    }
}

#[test]
fn open_meadow_is_cheap_and_slalom_is_expensive() {
    let meadow = build(NamedScene::OpenMeadow, Robot::mobile_2d());
    let slalom = build(NamedScene::SlalomCorridor, Robot::mobile_2d());
    let rm = Variant::V4Lci.profile().plan(&meadow, &params(4000));
    let rs = Variant::V4Lci.profile().plan(&slalom, &params(4000));
    if rm.solved() && rs.solved() {
        // The slalom forces a detour: its path must be meaningfully
        // longer than the meadow's near-straight line.
        assert!(
            rs.path_cost > rm.path_cost * 1.05,
            "slalom {:.1} should exceed meadow {:.1}",
            rs.path_cost,
            rm.path_cost
        );
    }
}

#[test]
fn drone_threads_the_pillar_forest() {
    let s = build(NamedScene::PillarForest, Robot::drone_3d());
    let r = Variant::V4Lci.profile().plan(&s, &params(4000));
    assert!(r.solved(), "drone should thread the pillar forest");
}

#[test]
fn arm_scenes_have_interference() {
    // The scaled scenes must actually interfere with the arm workspace —
    // otherwise they test nothing. At least one catalog scene must reject
    // some random arm configuration.
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut any_interference = false;
    for scene in NamedScene::ALL {
        let s = build(scene, Robot::xarm7());
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..200 {
            let unit: Vec<f64> = (0..7).map(|_| rng.gen::<f64>()).collect();
            let q = s.robot.config_from_unit(&unit);
            if s.config_collides(&q) {
                any_interference = true;
                break;
            }
        }
    }
    assert!(
        any_interference,
        "catalog scenes must interfere with the arm workspace"
    );
}
