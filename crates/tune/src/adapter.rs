//! The online adapter: consumes quantized stage-profile snapshots at
//! epoch boundaries and rewrites the profile table with hysteresis.
//!
//! Decisions are pure integer functions of (class, current profile,
//! quantized bottleneck streak); the adapter never reads the clock and
//! holds no float state, so replaying the same observation sequence
//! reproduces the same switch sequence exactly.

use std::collections::BTreeMap;

use moped_core::{Engine, NnBackend};
use moped_obs::Bottleneck;

use crate::table::ProfileTable;
use crate::PlannerProfile;

/// Which side of the collision-vs-NN split dominates a snapshot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Regime {
    /// Collision stages dominate (arms in clutter — the Fig 3 left side).
    CollisionBound,
    /// Neighbor-search stages dominate (mobile/drone — Fig 3 right side).
    NnBound,
    /// Neither side crosses the threshold.
    Balanced,
}

/// A side must claim at least this many 1/256ths of instrumented self
/// time to count as dominating (154 ≈ 60%). The thresholds are integers
/// so decisions cannot drift with float formatting.
const DOMINANCE_Q256: u16 = 154;
/// Consecutive epochs a regime must persist before a switch (the
/// hysteresis rule).
const EPOCHS_TO_SWITCH: u32 = 2;
/// Snapshots with fewer instrumented ticks than this are ignored — too
/// little evidence to steer on.
const MIN_INSTRUMENTED_TICKS: u64 = 1024;

/// Classifies one quantized snapshot.
pub fn regime(b: &Bottleneck) -> Regime {
    if b.collision_q256 >= DOMINANCE_Q256 {
        Regime::CollisionBound
    } else if b.nn_q256 >= DOMINANCE_Q256 {
        Regime::NnBound
    } else {
        Regime::Balanced
    }
}

/// A profile switch the adapter committed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProfileSwitch {
    /// The class whose entry was rewritten.
    pub class_id: String,
    /// The profile before the switch.
    pub from: PlannerProfile,
    /// The profile now installed.
    pub to: PlannerProfile,
    /// Human-readable cause (recorded in metrics and responses).
    pub reason: String,
}

/// Per-class hysteresis state machine over regime observations.
#[derive(Clone, Debug, Default)]
pub struct Adapter {
    /// class id → (last regime seen, consecutive epochs seen).
    streaks: BTreeMap<String, (Regime, u32)>,
}

impl Adapter {
    /// Feeds one epoch-boundary snapshot for `class_id`. When the same
    /// dominating regime has persisted for two consecutive
    /// observations *and* the class's current profile mismatches that
    /// regime, rewrites the table entry and reports the switch. The
    /// streak resets after a switch, so flapping inputs cannot flap the
    /// table faster than the hysteresis window.
    pub fn observe(
        &mut self,
        table: &mut ProfileTable,
        class_id: &str,
        b: &Bottleneck,
    ) -> Option<ProfileSwitch> {
        if b.instrumented_ticks < MIN_INSTRUMENTED_TICKS {
            return None;
        }
        let r = regime(b);
        let streak = match self.streaks.get_mut(class_id) {
            Some(entry) => {
                if entry.0 == r {
                    entry.1 = entry.1.saturating_add(1);
                } else {
                    *entry = (r, 1);
                }
                entry.1
            }
            None => {
                self.streaks.insert(class_id.to_string(), (r, 1));
                1
            }
        };
        if streak < EPOCHS_TO_SWITCH {
            return None;
        }
        let current = table.resolve(class_id).profile;
        let (to, why) = adapted(&current, r)?;
        let reason = format!(
            "adapter: {why} ({streak} epochs, collision {}/256, nn {}/256)",
            b.collision_q256, b.nn_q256
        );
        table.insert(class_id, to.clone(), &reason);
        if let Some(entry) = self.streaks.get_mut(class_id) {
            entry.1 = 0;
        }
        Some(ProfileSwitch {
            class_id: class_id.to_string(),
            from: current,
            to,
            reason,
        })
    }
}

/// The regime→profile rewrite rule. Returns `None` when the current
/// profile already suits the regime (or the regime is balanced).
fn adapted(current: &PlannerProfile, r: Regime) -> Option<(PlannerProfile, &'static str)> {
    match r {
        Regime::CollisionBound if current.engine == Engine::RrtStar => Some((
            PlannerProfile {
                engine: Engine::RrtConnect,
                ..current.clone()
            },
            "collision-bound: rrt-connect reaches the goal in fewer edge checks",
        )),
        Regime::NnBound if !(current.nn_backend == NnBackend::SiMbr && current.sias) => Some((
            PlannerProfile {
                nn_backend: NnBackend::SiMbr,
                sias: true,
                ..current.clone()
            },
            "nn-bound: si-mbr+sias collapses the neighborhood query cost",
        )),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(collision_q256: u16, nn_q256: u16, ticks: u64) -> Bottleneck {
        Bottleneck {
            collision_q256,
            nn_q256,
            instrumented_ticks: ticks,
        }
    }

    #[test]
    fn regime_thresholds() {
        assert_eq!(regime(&snap(200, 30, 9999)), Regime::CollisionBound);
        assert_eq!(regime(&snap(30, 200, 9999)), Regime::NnBound);
        assert_eq!(regime(&snap(120, 120, 9999)), Regime::Balanced);
    }

    #[test]
    fn switch_requires_consecutive_epochs() {
        let mut adapter = Adapter::default();
        let mut table = ProfileTable::static_default();
        let class = "xarm7/d7/o-many/v-mid";
        // First collision-bound epoch: no switch yet.
        assert!(adapter
            .observe(&mut table, class, &snap(220, 10, 5000))
            .is_none());
        // An interleaved balanced epoch resets the streak.
        assert!(adapter
            .observe(&mut table, class, &snap(100, 100, 5000))
            .is_none());
        assert!(adapter
            .observe(&mut table, class, &snap(220, 10, 5000))
            .is_none());
        // Second consecutive collision-bound epoch: switch fires.
        let s = adapter
            .observe(&mut table, class, &snap(220, 10, 5000))
            .expect("switch after 2 consecutive epochs");
        assert_eq!(s.to.engine, Engine::RrtConnect);
        assert!(table.resolve(class).from_table);
        assert!(table.resolve(class).reason.starts_with("adapter: "));
        // Already adapted: further collision-bound epochs are no-ops.
        assert!(adapter
            .observe(&mut table, class, &snap(220, 10, 5000))
            .is_none());
        assert!(adapter
            .observe(&mut table, class, &snap(220, 10, 5000))
            .is_none());
    }

    #[test]
    fn thin_evidence_is_ignored() {
        let mut adapter = Adapter::default();
        let mut table = ProfileTable::static_default();
        for _ in 0..10 {
            assert!(adapter
                .observe(&mut table, "c", &snap(256, 0, 10))
                .is_none());
        }
        assert!(table.is_empty());
    }

    #[test]
    fn nn_bound_restores_sias_backend() {
        let mut adapter = Adapter::default();
        let mut table = ProfileTable::static_default();
        let mut exact = PlannerProfile::static_default();
        exact.nn_backend = NnBackend::Kd;
        exact.sias = false;
        table.insert("m/d3/o-few/v-thin", exact, "pinned exact");
        for _ in 0..2 {
            let _ = adapter.observe(&mut table, "m/d3/o-few/v-thin", &snap(10, 220, 5000));
        }
        let res = table.resolve("m/d3/o-few/v-thin");
        assert_eq!(res.profile.nn_backend, NnBackend::SiMbr);
        assert!(res.profile.sias);
    }

    #[test]
    fn observation_sequence_is_replayable() {
        let seq = [
            snap(220, 10, 5000),
            snap(220, 10, 5000),
            snap(10, 220, 5000),
            snap(10, 220, 5000),
        ];
        let run = || {
            let mut adapter = Adapter::default();
            let mut table = ProfileTable::static_default();
            let mut switches = Vec::new();
            for b in &seq {
                if let Some(s) = adapter.observe(&mut table, "c", b) {
                    switches.push(s);
                }
            }
            (table.serialize(), switches)
        };
        assert_eq!(run(), run());
    }
}
