//! The [`PlannerProfile`]: one complete planner stack, and the only place
//! one is assembled.

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

/// Neighborhood-radius policy: a multiplier on the RRT\* rewiring-radius
/// scale `gamma` (the radius itself stays clamped by the planner).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RadiusPolicy {
    /// Leave the caller's `rewire_gamma` untouched.
    Default,
    /// Halve `gamma`: smaller neighborhoods, cheaper rewiring, for
    /// NN-bound workloads.
    Tight,
    /// Double `gamma`: wider neighborhoods, better paths, for scenes
    /// where collision checks are cheap.
    Wide,
}

impl RadiusPolicy {
    /// Stable wire name.
    pub fn name(self) -> &'static str {
        match self {
            RadiusPolicy::Default => "default",
            RadiusPolicy::Tight => "tight",
            RadiusPolicy::Wide => "wide",
        }
    }

    /// Parses [`RadiusPolicy::name`] output.
    pub fn parse(s: &str) -> Option<RadiusPolicy> {
        match s {
            "default" => Some(RadiusPolicy::Default),
            "tight" => Some(RadiusPolicy::Tight),
            "wide" => Some(RadiusPolicy::Wide),
            _ => None,
        }
    }

    /// The `gamma` multiplier this policy applies.
    pub fn scale(self) -> f64 {
        match self {
            RadiusPolicy::Default => 1.0,
            RadiusPolicy::Tight => 0.5,
            RadiusPolicy::Wide => 2.0,
        }
    }
}

/// Sample-budget policy: whether the profile caps the caller's budget.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BudgetPolicy {
    /// Use the caller's `max_samples` unchanged.
    Inherit,
    /// Cap `max_samples` at this value (never raises it).
    Cap(u32),
}

impl BudgetPolicy {
    /// Stable wire form: `inherit` or `cap:N`.
    pub fn wire(self) -> String {
        match self {
            BudgetPolicy::Inherit => "inherit".to_string(),
            BudgetPolicy::Cap(n) => format!("cap:{n}"),
        }
    }

    /// Parses [`BudgetPolicy::wire`] output.
    pub fn parse(s: &str) -> Option<BudgetPolicy> {
        if s == "inherit" {
            return Some(BudgetPolicy::Inherit);
        }
        s.strip_prefix("cap:")
            .and_then(|n| n.parse().ok())
            .map(BudgetPolicy::Cap)
    }
}

/// One complete planner stack: the engine, the collision stage, the NN
/// backend with its SIAS and LCI switches, the neighborhood-radius policy,
/// and the sample budget.
///
/// The paper's ablation rungs are presets ([`crate::Variant::profile`]);
/// the tuner selects, serializes and applies profiles. Profiles are plain
/// values with a stable comma-delimited wire form (the workspace has no
/// serialization dependency). [`PlannerProfile::planner`] is the one
/// place a stack is assembled. Determinism contract: a profile never
/// carries wall-clock or host-dependent state, so (profile, scenario,
/// params) fixes the plan bit-for-bit.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PlannerProfile {
    /// Planner engine (RRT\*, RRT-Connect, multi-tree).
    pub engine: Engine,
    /// Collision checker.
    pub collision: CollisionStage,
    /// Neighbor-index backend.
    pub nn_backend: NnBackend,
    /// Steering-informed approximated search (SI-MBR backend only).
    pub sias: bool,
    /// Low-cost O(1) insertion (SI-MBR backend only).
    pub lci: bool,
    /// Rewiring-radius policy.
    pub radius: RadiusPolicy,
    /// Sample-budget policy.
    pub budget: BudgetPolicy,
}

impl PlannerProfile {
    /// The full MOPED stack (V4): RRT\* over two-stage collision checks
    /// and the SI-MBR tree with SIAS and LCI, caller parameters unchanged.
    pub fn static_default() -> PlannerProfile {
        PlannerProfile {
            engine: Engine::RrtStar,
            collision: CollisionStage::TwoStage,
            nn_backend: NnBackend::SiMbr,
            sias: true,
            lci: true,
            radius: RadiusPolicy::Default,
            budget: BudgetPolicy::Inherit,
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

    /// Applies the radius and budget policies to caller-supplied planner
    /// parameters; everything else passes through untouched.
    pub fn apply(&self, base: &PlannerParams) -> PlannerParams {
        let mut p = base.clone();
        p.rewire_gamma = base.rewire_gamma * self.radius.scale();
        if let BudgetPolicy::Cap(n) = self.budget {
            p.max_samples = p.max_samples.min(n as usize);
        }
        p
    }

    /// Assembles this stack's planner over `scenario` with a caller-built
    /// `checker` (which must be the one [`PlannerProfile::collision`]
    /// names): the profile's index and engine, with its parameter
    /// policies applied over `params`. Callers add a stop hook, journal
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
            self.apply(params),
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

    /// Stable wire form: `engine,collision,nn,sias,lci,radius,budget`.
    pub fn serialize(&self) -> String {
        format!(
            "{},{},{},{},{},{},{}",
            self.engine.name(),
            self.collision.name(),
            self.nn_backend.name(),
            u8::from(self.sias),
            u8::from(self.lci),
            self.radius.name(),
            self.budget.wire()
        )
    }

    /// Parses [`PlannerProfile::serialize`] output.
    pub fn parse(s: &str) -> Result<PlannerProfile, String> {
        let fields: Vec<&str> = s.split(',').collect();
        if fields.len() != 7 {
            return Err(format!("profile `{s}`: expected 7 fields"));
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
        let radius = RadiusPolicy::parse(fields[5])
            .ok_or_else(|| format!("profile `{s}`: unknown radius policy `{}`", fields[5]))?;
        let budget = BudgetPolicy::parse(fields[6])
            .ok_or_else(|| format!("profile `{s}`: bad budget `{}`", fields[6]))?;
        Ok(PlannerProfile {
            engine,
            collision,
            nn_backend,
            sias,
            lci,
            radius,
            budget,
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
                        for radius in [
                            RadiusPolicy::Default,
                            RadiusPolicy::Tight,
                            RadiusPolicy::Wide,
                        ] {
                            for budget in [BudgetPolicy::Inherit, BudgetPolicy::Cap(400)] {
                                let p = PlannerProfile {
                                    engine,
                                    collision,
                                    nn_backend,
                                    sias,
                                    lci,
                                    radius,
                                    budget,
                                };
                                assert_eq!(PlannerProfile::parse(&p.serialize()), Ok(p));
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn parse_rejects_malformed_wire() {
        for bad in [
            "",
            "rrt-star,two-stage,si-mbr,1,1,default",
            "rrt-star,si-mbr,1,default,inherit",
            "warp-drive,two-stage,si-mbr,1,1,default,inherit",
            "rrt-star,three-stage,si-mbr,1,1,default,inherit",
            "rrt-star,two-stage,hash-grid,1,1,default,inherit",
            "rrt-star,two-stage,si-mbr,2,1,default,inherit",
            "rrt-star,two-stage,si-mbr,1,yes,default,inherit",
            "rrt-star,two-stage,si-mbr,1,1,galactic,inherit",
            "rrt-star,two-stage,si-mbr,1,1,default,cap:x",
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

    #[test]
    fn apply_scales_gamma_and_caps_budget() {
        let base = PlannerParams {
            max_samples: 1000,
            rewire_gamma: 40.0,
            ..PlannerParams::default()
        };
        let mut p = PlannerProfile::static_default();
        p.radius = RadiusPolicy::Wide;
        p.budget = BudgetPolicy::Cap(300);
        let applied = p.apply(&base);
        assert_eq!(applied.rewire_gamma, 80.0);
        assert_eq!(applied.max_samples, 300);
        // A cap larger than the caller's budget never raises it.
        p.budget = BudgetPolicy::Cap(5000);
        assert_eq!(p.apply(&base).max_samples, 1000);
    }
}
