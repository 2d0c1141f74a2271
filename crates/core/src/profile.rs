//! The [`PlannerProfile`]: one complete planner stack, and the one path
//! ([`PlannerProfile::planner`]) that assembles it.

use moped_collision::{CollisionChecker, NaiveChecker, TwoStageChecker};
use moped_env::Scenario;

use crate::{AnyIndex, Engine, NeighborIndex, NnBackend, PlanResult, PlannerParams, RrtStar};

/// Which collision checker the stack plans with.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CollisionStage {
    /// Every body against every obstacle, exact OBB–OBB SAT (the paper's
    /// baseline, V0).
    Naive,
    /// The Two-Stage Processing Scheme: R-tree broad phase, then SAT on
    /// the survivors (TSPS, V1 and up).
    TwoStage,
}

impl CollisionStage {
    /// Stable wire name.
    pub fn name(self) -> &'static str {
        match self {
            CollisionStage::Naive => "naive",
            CollisionStage::TwoStage => "two-stage",
        }
    }

    /// Parses [`CollisionStage::name`] output.
    pub fn parse(s: &str) -> Option<CollisionStage> {
        match s {
            "naive" => Some(CollisionStage::Naive),
            "two-stage" => Some(CollisionStage::TwoStage),
            _ => None,
        }
    }
}

/// One complete planner stack: the engine, the collision stage, and the
/// NN backend with its SIAS and LCI switches.
///
/// The paper's ablation rungs are presets ([`crate::Variant::profile`]);
/// the tuner selects and serializes profiles. Profiles are plain values
/// with a stable comma-delimited wire form (the workspace has no
/// serialization dependency). [`PlannerProfile::planner`] is the one
/// place a stack is assembled. Determinism contract: a profile never
/// carries wall-clock or host-dependent state, so (profile, scenario,
/// params) fixes the plan bit-for-bit.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PlannerProfile {
    /// Planner engine (RRT\* or RRT-Connect).
    pub engine: Engine,
    /// Collision checker.
    pub collision: CollisionStage,
    /// Neighbor-index backend.
    pub nn_backend: NnBackend,
    /// Steering-informed approximated search (SI-MBR backend only).
    pub sias: bool,
    /// Low-cost O(1) insertion (SI-MBR backend only).
    pub lci: bool,
}

impl PlannerProfile {
    /// The full MOPED stack (V4): RRT\* over two-stage collision checks
    /// and the SI-MBR tree with SIAS and LCI.
    pub fn static_default() -> PlannerProfile {
        PlannerProfile {
            engine: Engine::RrtStar,
            collision: CollisionStage::TwoStage,
            nn_backend: NnBackend::SiMbr,
            sias: true,
            lci: true,
        }
    }

    /// Human/bench label, e.g. `rrt-connect/si-mbr+sias+lci`.
    pub fn label(&self) -> String {
        format!("{}/{}", self.engine.name(), self.build_index(3).name())
    }

    /// Builds the neighbor index this profile prescribes for a
    /// `dim`-dimensional configuration space. `sias` and `lci` only
    /// affect the SI-MBR backend.
    pub fn build_index(&self, dim: usize) -> AnyIndex {
        self.nn_backend.build(dim, self.sias, self.lci)
    }

    /// The planner parameters this stack runs `base` with: `base`
    /// unchanged, since a profile carries no parameter policy. Kept
    /// because the wall-clock benchmark (`wallbench/src/stack.rs`)
    /// assembles its timed stacks by hand from [`build_index`],
    /// [`engine`] and this.
    ///
    /// [`build_index`]: PlannerProfile::build_index
    /// [`engine`]: PlannerProfile::engine
    pub fn apply(&self, base: &PlannerParams) -> PlannerParams {
        base.clone()
    }

    /// Assembles this stack's planner over `scenario`: the profile's
    /// index and engine over a caller-built `checker` and `params`.
    /// [`PlannerProfile::plan`] passes the checker
    /// [`PlannerProfile::collision`] names; the Fig 5/18 ablations pass
    /// their own AABB-relaxed one. Callers add a stop hook, journal
    /// recording or replay before running it.
    pub fn planner<'a>(
        &self,
        scenario: &'a Scenario,
        checker: &'a dyn CollisionChecker,
        params: &PlannerParams,
    ) -> RrtStar<'a, AnyIndex> {
        RrtStar::new(
            scenario,
            checker,
            self.build_index(scenario.robot.dof()),
            params.clone(),
        )
        .with_engine(self.engine)
    }

    /// Plans `scenario` on this stack: builds the checker
    /// [`PlannerProfile::collision`] names and runs
    /// [`PlannerProfile::planner`] to its budget.
    pub fn plan(&self, scenario: &Scenario, params: &PlannerParams) -> PlanResult {
        let obstacles = scenario.obstacles.clone();
        let checker: Box<dyn CollisionChecker> = match self.collision {
            CollisionStage::Naive => Box::new(NaiveChecker::new(obstacles)),
            CollisionStage::TwoStage => Box::new(TwoStageChecker::moped(obstacles)),
        };
        let result = self.planner(scenario, checker.as_ref(), params).plan();
        result
    }

    /// Stable wire form: `engine,collision,nn,sias,lci`.
    pub fn serialize(&self) -> String {
        format!(
            "{},{},{},{},{}",
            self.engine.name(),
            self.collision.name(),
            self.nn_backend.name(),
            u8::from(self.sias),
            u8::from(self.lci),
        )
    }

    /// Parses [`PlannerProfile::serialize`] output.
    pub fn parse(s: &str) -> Result<PlannerProfile, String> {
        let fields: Vec<&str> = s.split(',').collect();
        if fields.len() != 5 {
            return Err(format!("profile `{s}`: expected 5 fields"));
        }
        let flag = |name: &str, field: &str| match field {
            "1" => Ok(true),
            "0" => Ok(false),
            other => Err(format!("profile `{s}`: bad {name} flag `{other}`")),
        };
        let engine = Engine::all()
            .into_iter()
            .find(|e| e.name() == fields[0])
            .ok_or_else(|| format!("profile `{s}`: unknown engine `{}`", fields[0]))?;
        let collision = CollisionStage::parse(fields[1])
            .ok_or_else(|| format!("profile `{s}`: unknown collision stage `{}`", fields[1]))?;
        let nn_backend = NnBackend::parse(fields[2])
            .ok_or_else(|| format!("profile `{s}`: unknown backend `{}`", fields[2]))?;
        let sias = flag("sias", fields[3])?;
        let lci = flag("lci", fields[4])?;
        Ok(PlannerProfile {
            engine,
            collision,
            nn_backend,
            sias,
            lci,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_round_trips_every_field_combination() {
        for engine in Engine::all() {
            for collision in [CollisionStage::Naive, CollisionStage::TwoStage] {
                for nn_backend in NnBackend::ALL {
                    for (sias, lci) in [(false, false), (false, true), (true, false), (true, true)]
                    {
                        let p = PlannerProfile {
                            engine,
                            collision,
                            nn_backend,
                            sias,
                            lci,
                        };
                        assert_eq!(PlannerProfile::parse(&p.serialize()), Ok(p));
                    }
                }
            }
        }
    }

    #[test]
    fn parse_rejects_malformed_wire() {
        for bad in [
            "",
            "rrt-star,two-stage,si-mbr,1",
            "rrt-star,si-mbr,1,1",
            // The 7-field v2 wire, with its radius and budget policies.
            "rrt-star,two-stage,si-mbr,1,1,default,inherit",
            "warp-drive,two-stage,si-mbr,1,1",
            // An engine that no longer exists.
            "multi-tree,two-stage,si-mbr,1,1",
            "rrt-star,three-stage,si-mbr,1,1",
            "rrt-star,two-stage,hash-grid,1,1",
            "rrt-star,two-stage,si-mbr,2,1",
            "rrt-star,two-stage,si-mbr,1,yes",
        ] {
            assert!(PlannerProfile::parse(bad).is_err(), "accepted `{bad}`");
        }
    }

    #[test]
    fn static_default_is_the_v4_stack() {
        let p = PlannerProfile::static_default();
        assert_eq!(p.engine, Engine::RrtStar);
        assert_eq!(p.collision, CollisionStage::TwoStage);
        assert_eq!(p.build_index(4).name(), "si-mbr+sias+lci");
        assert_eq!(p.label(), "rrt-star/si-mbr+sias+lci");
    }

    #[test]
    fn build_index_honours_lci() {
        let p = PlannerProfile {
            lci: false,
            ..PlannerProfile::static_default()
        };
        assert_eq!(p.build_index(4).name(), "si-mbr+sias");
    }
}
