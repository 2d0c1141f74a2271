//! The speculate-and-repair (S&R) pipeline model (§IV-B).
//!
//! RRT\*'s inter-sampling data dependency forces the neighbor search of
//! round *i+1* to wait for round *i*'s insertion in a serial design. The
//! S&R unit breaks that dependency: the NS unit starts the next round's
//! sampling + search speculatively against the not-yet-updated tree; once
//! the current round's collision check commits, a repair comparison
//! against the tiny Missing Neighbors Buffer restores the exact result.
//!
//! Two pieces live here:
//!
//! * [`simulate`] — a discrete-event replay of a planner round trace
//!   through the two-unit (NS / CC+refine) machine, reporting serial vs
//!   speculative latency and FIFO / MNB occupancy, and
//! * [`verify_equivalence`] — an algorithm-level re-execution that runs
//!   the speculative search against a one-round-stale SI-MBR tree, applies
//!   the repair rule, and checks the repaired nearest equals the serial
//!   planner's — the paper's functional-equivalence claim.

use moped_core::PlannerParams;
use moped_env::Scenario;
use moped_geometry::{Config, OpCount};
use moped_simbr::SiMbrTree;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::params;

/// Cycle cost of one planner round, per functional unit.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RoundCycles {
    /// Sampling + neighbor search (+ SI-MBR insertion) on the NS unit.
    pub ns: u64,
    /// Collision check + refinement on the checker units.
    pub cc: u64,
}

/// Converts a planner MAC trace into per-round unit cycles using the lane
/// allocation of [`params::lanes`].
pub fn rounds_from_trace(trace: &[moped_core::RoundTrace]) -> Vec<RoundCycles> {
    trace
        .iter()
        .map(|r| RoundCycles {
            ns: params::overhead::SAMPLE_CYCLES
                + div_ceil(r.ns_macs, params::lanes::NS as u64)
                + div_ceil(r.insert_macs, params::lanes::TREE_OP as u64),
            cc: div_ceil(r.cc_macs, params::lanes::CC as u64)
                + div_ceil(r.refine_macs, params::lanes::REFINE as u64),
        })
        .collect()
}

fn div_ceil(a: u64, b: u64) -> u64 {
    a.div_ceil(b)
}

/// Result of a pipeline replay.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PipelineReport {
    /// End-to-end cycles with the strictly serial schedule.
    pub serial_cycles: u64,
    /// End-to-end cycles with speculate-and-repair overlap.
    pub speculative_cycles: u64,
    /// Maximum FIFO occupancy observed (must stay ≤ depth 20).
    pub max_fifo_occupancy: usize,
    /// Maximum Missing-Neighbors-Buffer occupancy observed (≤ 5).
    pub max_missing_neighbors: usize,
    /// Rounds whose speculative NS needed repair (informational).
    pub stall_cycles: u64,
}

impl PipelineReport {
    /// Latency reduction factor from S&R.
    pub fn speedup(&self) -> f64 {
        self.serial_cycles as f64 / self.speculative_cycles.max(1) as f64
    }
}

/// Replays the round trace through the serial and the S&R schedules.
///
/// Serial: `Σ (ns_i + cc_i)` — every phase waits for its predecessor.
///
/// S&R: the NS unit and CC unit run concurrently. NS of round *i+1* may
/// start as soon as the NS unit is free and the FIFO (which holds
/// NS results awaiting collision check) has space; CC of round *i* starts
/// once its NS result is available and the CC unit is free. Each round
/// additionally pays the small repair comparison on the NS unit.
///
/// The FIFO high-water mark and the number of collision-check completions
/// within one NS interval (the MNB occupancy) are tracked so the §IV-B
/// sizing claims (20-deep FIFO, 5-entry MNB) can be checked.
// Cycle-indexed loops mirror the pipeline diagram; enumerate() chains
// would hide which stage owns which cycle offset.
#[allow(clippy::needless_range_loop)]
pub fn simulate(rounds: &[RoundCycles]) -> PipelineReport {
    let mut report = PipelineReport {
        serial_cycles: rounds.iter().map(|r| r.ns + r.cc).sum(),
        ..PipelineReport::default()
    };
    if rounds.is_empty() {
        return report;
    }

    let cap = params::FIFO_DEPTH;
    let n = rounds.len();
    // Entry i occupies the FIFO from ns_end[i] (result produced) until
    // cc_start[i] (result consumed by the checker).
    let mut ns_end = vec![0u64; n];
    let mut cc_start = vec![0u64; n];
    let mut ns_free: u64 = 0;
    let mut cc_free: u64 = 0;

    for (i, r) in rounds.iter().enumerate() {
        // Backpressure: with `cap` results outstanding, the NS unit may
        // not start another round until the oldest enters the checker.
        let mut start = ns_free;
        if i >= cap {
            let gate = cc_start[i - cap];
            report.stall_cycles += gate.saturating_sub(start);
            start = start.max(gate);
        }
        let end = start + r.ns + params::overhead::REPAIR_CYCLES;
        ns_free = end;
        ns_end[i] = end;

        let cs = end.max(cc_free);
        cc_start[i] = cs;
        cc_free = cs + r.cc;
    }
    report.speculative_cycles = ns_free.max(cc_free);

    // FIFO high-water mark: when entry i is produced, how many earlier
    // entries (within the last `cap`) have not yet entered the checker.
    for i in 0..n {
        let lo = i.saturating_sub(cap);
        let pending = (lo..=i).filter(|&j| cc_start[j] > ns_end[i]).count() + 1;
        report.max_fifo_occupancy = report.max_fifo_occupancy.max(pending.min(cap));
    }

    // MNB high-water mark: collision-check commits landing inside one NS
    // interval (those nodes are invisible to that speculative search and
    // must sit in the Missing Neighbors Buffer for the repair step).
    let mut max_mnb = 0usize;
    let mut ns_lo = 0u64;
    let mut cursor = 0usize; // first cc completion not yet before ns_lo
    for i in 0..n {
        let hi = ns_end[i];
        while cursor < n && cc_start[cursor] + rounds[cursor].cc <= ns_lo {
            cursor += 1;
        }
        let mut count = 0usize;
        let mut j = cursor;
        while j < n {
            let done = cc_start[j] + rounds[j].cc;
            if done > hi {
                break;
            }
            count += 1;
            j += 1;
        }
        max_mnb = max_mnb.max(count);
        ns_lo = hi;
    }
    report.max_missing_neighbors = max_mnb;
    report
}

/// Statistics from the algorithm-level S&R equivalence run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EquivalenceReport {
    /// Rounds simulated.
    pub rounds: usize,
    /// Rounds where the speculative result was already correct.
    pub speculation_correct: usize,
    /// Rounds where the repair comparison fixed the result.
    pub repairs: usize,
    /// Maximum number of missing neighbors consulted in one repair.
    pub max_missing_considered: usize,
    /// Whether every repaired result matched the serial ground truth.
    pub equivalent: bool,
}

/// Re-executes the sampling/NS sequence of a planning run with the S&R
/// discipline at the algorithm level and checks functional equivalence.
///
/// Serial ground truth: nearest over the fully up-to-date SI-MBR tree.
/// Speculative: nearest over the tree *missing the last `lag` inserted
/// nodes* (in flight in the pipeline), then repaired by comparing against
/// those pending nodes — exactly the §IV-B rule. The two must agree on
/// every round.
pub fn verify_equivalence(
    scenario: &Scenario,
    params_: &PlannerParams,
    lag: usize,
) -> EquivalenceReport {
    let dof = scenario.robot.dof();
    let mut rng = StdRng::seed_from_u64(params_.seed);
    let mut tree = SiMbrTree::new(dof, 6);
    let mut ops = OpCount::default();
    let mut report = EquivalenceReport {
        equivalent: true,
        ..Default::default()
    };

    // Pending nodes: inserted into the "architectural" tree but not yet
    // visible to the speculative searcher.
    let mut pending: Vec<(u64, Config)> = Vec::new();
    let mut stale = tree.clone();

    tree.insert_conventional(0, scenario.start, &mut ops);
    stale.insert_conventional(0, scenario.start, &mut ops);
    let mut next_id = 1u64;
    let step = params_
        .steering_step
        .unwrap_or_else(|| scenario.robot.steering_step());

    for _ in 0..params_.max_samples {
        report.rounds += 1;
        let x_rand = if rng.gen::<f64>() < params_.goal_bias {
            scenario.goal
        } else {
            scenario.sample_any(&mut rng)
        };

        // Ground truth (serial machine).
        let (true_id, true_d) = tree.nearest(&x_rand, &mut ops).expect("non-empty");

        // Speculative search on the stale tree + repair from the MNB.
        let (mut spec_id, mut spec_d) = stale.nearest(&x_rand, &mut ops).expect("non-empty");
        report.max_missing_considered = report.max_missing_considered.max(pending.len());
        let mut repaired = false;
        for (pid, pq) in &pending {
            let d = pq.distance(&x_rand);
            if d < spec_d {
                spec_d = d;
                spec_id = *pid;
                repaired = true;
            }
        }
        if repaired {
            report.repairs += 1;
        } else {
            report.speculation_correct += 1;
        }
        if spec_id != true_id && (spec_d - true_d).abs() > 1e-12 {
            report.equivalent = false;
        }

        // Commit: steer, "collision check always passes" abstraction
        // (collision rejections only shrink the MNB, so accepting every
        // sample is the adversarial worst case for equivalence).
        let anchor_q = tree
            .iter()
            .find(|e| e.id == true_id)
            .map(|e| e.point)
            .expect("anchor exists");
        let x_new = anchor_q.steer_toward(&x_rand, step);
        if x_new == anchor_q {
            continue;
        }
        tree.insert_near(next_id, x_new, true_id, &mut ops);
        pending.push((next_id, x_new));
        next_id += 1;

        // The pipeline drains: insertions older than `lag` rounds become
        // visible to the speculative searcher.
        while pending.len() > lag {
            let (pid, pq) = pending.remove(0);
            // The stale tree anchors on the nearest visible entry (the
            // hardware inserts with the anchor recorded at commit time;
            // nearest-visible is equivalent for structure soundness).
            let (vis_anchor, _) = stale.nearest(&pq, &mut ops).expect("non-empty");
            stale.insert_near(pid, pq, vis_anchor, &mut ops);
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use moped_env::ScenarioParams;
    use moped_robot::Robot;

    fn uniform_rounds(n: usize, ns: u64, cc: u64) -> Vec<RoundCycles> {
        vec![RoundCycles { ns, cc }; n]
    }

    #[test]
    fn empty_trace_is_zero() {
        let r = simulate(&[]);
        assert_eq!(r.serial_cycles, 0);
        assert_eq!(r.speculative_cycles, 0);
    }

    #[test]
    fn balanced_stages_give_near_2x() {
        // When NS and CC cost the same, overlapping them should approach
        // 2x (§IV-B's reported ~2x on the 2D mobile workload).
        let rounds = uniform_rounds(5000, 200, 200);
        let r = simulate(&rounds);
        assert!(
            r.speedup() > 1.7 && r.speedup() <= 2.0,
            "expected ~2x, got {:.2} (serial {}, spec {})",
            r.speedup(),
            r.serial_cycles,
            r.speculative_cycles
        );
    }

    #[test]
    fn imbalanced_stages_limit_speedup() {
        // Speedup is bounded by (ns+cc)/max(ns,cc).
        let rounds = uniform_rounds(2000, 100, 400);
        let r = simulate(&rounds);
        let bound = (100.0 + 400.0) / 400.0;
        assert!(r.speedup() <= bound + 0.05);
        assert!(r.speedup() > bound * 0.85);
    }

    #[test]
    fn speculative_never_slower_than_serial_minus_overhead() {
        let rounds = uniform_rounds(100, 50, 10);
        let r = simulate(&rounds);
        // Repair overhead is small relative to stage work.
        assert!(r.speculative_cycles <= r.serial_cycles + 100 * params::overhead::REPAIR_CYCLES);
    }

    #[test]
    fn fifo_occupancy_stays_within_depth() {
        // Even with CC much slower than NS, backpressure keeps occupancy
        // below the architected depth.
        let rounds = uniform_rounds(1000, 10, 500);
        let r = simulate(&rounds);
        assert!(r.max_fifo_occupancy <= params::FIFO_DEPTH);
    }

    #[test]
    fn mnb_occupancy_within_capacity() {
        let rounds = uniform_rounds(1000, 300, 100);
        let r = simulate(&rounds);
        assert!(r.max_missing_neighbors <= params::MISSING_NEIGHBOR_CAPACITY);
    }

    #[test]
    fn rounds_from_trace_charges_all_phases() {
        let trace = vec![moped_core::RoundTrace {
            ns_macs: 480,
            cc_macs: 640,
            refine_macs: 400,
            insert_macs: 160,
            accepted: true,
            near_count: 4,
        }];
        let rounds = rounds_from_trace(&trace);
        assert_eq!(rounds.len(), 1);
        assert_eq!(
            rounds[0].ns,
            params::overhead::SAMPLE_CYCLES + 480 / 48 + 160 / 16
        );
        assert_eq!(rounds[0].cc, 640 / 64 + 400 / 40);
    }

    #[test]
    fn equivalence_holds_across_lags_and_models() {
        for robot in [Robot::mobile_2d(), Robot::drone_3d()] {
            let s = Scenario::generate(robot, &ScenarioParams::with_obstacles(8), 77);
            for lag in [1usize, 2, 5] {
                let p = PlannerParams {
                    max_samples: 250,
                    seed: 11,
                    ..PlannerParams::default()
                };
                let rep = verify_equivalence(&s, &p, lag);
                assert!(
                    rep.equivalent,
                    "{} lag {lag}: speculation+repair diverged from serial",
                    s.robot.name()
                );
                assert!(rep.rounds > 0);
                assert!(rep.max_missing_considered <= lag);
            }
        }
    }

    #[test]
    fn repairs_actually_occur() {
        // With steering pulling new nodes toward random targets, the
        // just-inserted node is regularly the true nearest — the repair
        // path must trigger.
        let s = Scenario::generate(Robot::mobile_2d(), &ScenarioParams::with_obstacles(8), 5);
        let p = PlannerParams {
            max_samples: 300,
            seed: 3,
            ..PlannerParams::default()
        };
        let rep = verify_equivalence(&s, &p, 1);
        assert!(rep.repairs > 0, "expected some repaired rounds: {rep:?}");
        assert!(rep.speculation_correct > 0);
    }
}
