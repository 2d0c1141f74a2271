//! Evaluation-suite runner and summary statistics.
//!
//! The paper's methodology (§V) averages every metric over 50 random
//! planning tasks per environment configuration. This crate packages that
//! methodology: seeded task suites, per-variant runs, and the summary
//! statistics (mean, standard deviation, success rate, pairwise ratios)
//! the figures report — so experiments, tests, and downstream users share
//! one implementation instead of ad-hoc loops.
//!
//! # Example
//!
//! ```
//! use moped_core::{PlannerParams, Variant};
//! use moped_eval::{Suite, SuiteConfig};
//! use moped_robot::Robot;
//!
//! let suite = Suite::generate(Robot::mobile_2d(), &SuiteConfig {
//!     tasks: 2, obstacles: 8, base_seed: 5,
//! });
//! let params = PlannerParams { max_samples: 200, ..PlannerParams::default() };
//! let summary = suite.run(Variant::V4Lci, &params);
//! assert_eq!(summary.runs, 2);
//! ```

#![deny(missing_docs)]

pub mod clearance;
pub mod corpus;

use moped_core::{PlanResult, PlannerParams, Variant};
use moped_env::{Scenario, ScenarioParams};
use moped_robot::Robot;

/// Online mean/variance accumulator (Welford).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Stat {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Stat {
    /// An empty accumulator.
    pub fn new() -> Stat {
        Stat {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds an observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Sample standard deviation (0 for fewer than two observations).
    pub fn stddev(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            (self.m2 / (self.n - 1) as f64).sqrt()
        }
    }

    /// Smallest observation (`+inf` when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (`-inf` when empty).
    pub fn max(&self) -> f64 {
        self.max
    }
}

impl std::iter::FromIterator<f64> for Stat {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Stat {
        let mut s = Stat::new();
        for x in iter {
            s.push(x);
        }
        s
    }
}

/// Suite generation parameters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SuiteConfig {
    /// Number of random tasks (the paper uses 50).
    pub tasks: usize,
    /// Obstacles per task.
    pub obstacles: usize,
    /// Base seed; task `i` uses `base_seed * 1000 + i`.
    pub base_seed: u64,
}

/// A fixed set of seeded planning tasks for one robot/environment cell.
#[derive(Clone, Debug)]
pub struct Suite {
    scenarios: Vec<Scenario>,
}

impl Suite {
    /// Generates the task set deterministically.
    pub fn generate(robot: Robot, cfg: &SuiteConfig) -> Suite {
        let scenarios = (0..cfg.tasks)
            .map(|i| {
                Scenario::generate(
                    robot.clone(),
                    &ScenarioParams::with_obstacles(cfg.obstacles),
                    cfg.base_seed * 1000 + i as u64,
                )
            })
            .collect();
        Suite { scenarios }
    }

    /// The tasks in the suite.
    pub fn scenarios(&self) -> &[Scenario] {
        &self.scenarios
    }

    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.scenarios.len()
    }

    /// Returns `true` for an empty suite.
    pub fn is_empty(&self) -> bool {
        self.scenarios.is_empty()
    }

    /// Runs one variant over every task, aggregating the §V metrics.
    pub fn run(&self, variant: Variant, params: &PlannerParams) -> Summary {
        let mut summary = Summary {
            variant,
            ..Summary::default()
        };
        for (i, s) in self.scenarios.iter().enumerate() {
            let p = PlannerParams {
                seed: params.seed + i as u64,
                ..params.clone()
            };
            let r = variant.profile().plan(s, &p);
            summary.absorb(&r);
        }
        summary
    }

    /// Runs two variants over the same tasks and seeds, returning both
    /// summaries plus paired ratios (the apples-to-apples comparison the
    /// figures use).
    pub fn compare(
        &self,
        baseline: Variant,
        candidate: Variant,
        params: &PlannerParams,
    ) -> PairedComparison {
        let mut pc = PairedComparison {
            baseline: Summary {
                variant: baseline,
                ..Summary::default()
            },
            candidate: Summary {
                variant: candidate,
                ..Summary::default()
            },
            ops_ratio: Stat::new(),
            cost_ratio: Stat::new(),
        };
        for (i, s) in self.scenarios.iter().enumerate() {
            let p = PlannerParams {
                seed: params.seed + i as u64,
                ..params.clone()
            };
            let rb = baseline.profile().plan(s, &p);
            let rc = candidate.profile().plan(s, &p);
            let ops_b = rb.stats.total_ops().mac_equiv().max(1) as f64;
            let ops_c = rc.stats.total_ops().mac_equiv().max(1) as f64;
            pc.ops_ratio.push(ops_b / ops_c);
            if rb.solved() && rc.solved() {
                pc.cost_ratio.push(rc.path_cost / rb.path_cost);
            }
            pc.baseline.absorb(&rb);
            pc.candidate.absorb(&rc);
        }
        pc
    }
}

/// Aggregated metrics of one variant over a suite.
#[derive(Clone, Debug)]
pub struct Summary {
    /// The variant that produced these numbers.
    pub variant: Variant,
    /// Tasks executed.
    pub runs: usize,
    /// Tasks where a path was found.
    pub solved: usize,
    /// Path cost over solved tasks.
    pub path_cost: Stat,
    /// Total MAC-equivalent ops per task.
    pub total_macs: Stat,
    /// Neighbor-search MACs per task.
    pub ns_macs: Stat,
    /// Collision MACs per task.
    pub cc_macs: Stat,
}

impl Default for Summary {
    fn default() -> Self {
        Summary {
            variant: Variant::V0Baseline,
            runs: 0,
            solved: 0,
            path_cost: Stat::new(),
            total_macs: Stat::new(),
            ns_macs: Stat::new(),
            cc_macs: Stat::new(),
        }
    }
}

impl Summary {
    /// Folds one planning result into the aggregate.
    pub fn absorb(&mut self, r: &PlanResult) {
        self.runs += 1;
        if r.solved() {
            self.solved += 1;
            self.path_cost.push(r.path_cost);
        }
        self.total_macs.push(r.stats.total_ops().mac_equiv() as f64);
        self.ns_macs.push(r.stats.ns_ops.mac_equiv() as f64);
        self.cc_macs
            .push(r.stats.collision.total_ops().mac_equiv() as f64);
    }

    /// Fraction of tasks solved.
    pub fn success_rate(&self) -> f64 {
        if self.runs == 0 {
            0.0
        } else {
            self.solved as f64 / self.runs as f64
        }
    }
}

/// Paired two-variant comparison over identical tasks/seeds.
#[derive(Clone, Debug)]
pub struct PairedComparison {
    /// Baseline aggregate.
    pub baseline: Summary,
    /// Candidate aggregate.
    pub candidate: Summary,
    /// Per-task `baseline_ops / candidate_ops` (speed-equivalent saving).
    pub ops_ratio: Stat,
    /// Per-task `candidate_cost / baseline_cost` on jointly solved tasks
    /// (1.0 = parity; below 1 = candidate better).
    pub cost_ratio: Stat,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_mean_and_stddev() {
        let s: Stat = vec![2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]
            .into_iter()
            .collect();
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.stddev() - 2.138089935299395).abs() < 1e-9);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
        assert_eq!(s.count(), 8);
    }

    #[test]
    fn empty_stat_is_safe() {
        let s = Stat::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.stddev(), 0.0);
        assert_eq!(s.count(), 0);
    }

    #[test]
    fn suite_generation_is_deterministic() {
        let cfg = SuiteConfig {
            tasks: 3,
            obstacles: 8,
            base_seed: 2,
        };
        let a = Suite::generate(Robot::mobile_2d(), &cfg);
        let b = Suite::generate(Robot::mobile_2d(), &cfg);
        for (x, y) in a.scenarios().iter().zip(b.scenarios()) {
            assert_eq!(x.start, y.start);
            assert_eq!(x.goal, y.goal);
        }
    }

    #[test]
    fn run_aggregates_all_tasks() {
        let cfg = SuiteConfig {
            tasks: 3,
            obstacles: 8,
            base_seed: 4,
        };
        let suite = Suite::generate(Robot::mobile_2d(), &cfg);
        let params = PlannerParams {
            max_samples: 250,
            ..PlannerParams::default()
        };
        let summary = suite.run(Variant::V4Lci, &params);
        assert_eq!(summary.runs, 3);
        assert_eq!(summary.total_macs.count(), 3);
        assert!(summary.total_macs.mean() > 0.0);
        assert!(summary.success_rate() >= 0.0 && summary.success_rate() <= 1.0);
    }

    #[test]
    fn paired_comparison_shows_moped_saving() {
        let cfg = SuiteConfig {
            tasks: 3,
            obstacles: 16,
            base_seed: 9,
        };
        let suite = Suite::generate(Robot::mobile_2d(), &cfg);
        let params = PlannerParams {
            max_samples: 500,
            ..PlannerParams::default()
        };
        let pc = suite.compare(Variant::V0Baseline, Variant::V4Lci, &params);
        assert!(
            pc.ops_ratio.mean() > 2.0,
            "expected >2x mean saving: {}",
            pc.ops_ratio.mean()
        );
        if pc.cost_ratio.count() > 0 {
            assert!(
                pc.cost_ratio.mean() < 1.3,
                "path quality must stay comparable: {}",
                pc.cost_ratio.mean()
            );
        }
    }
}
