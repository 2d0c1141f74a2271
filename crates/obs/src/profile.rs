//! The stage profiler: merged per-stage tables with exclusive-time
//! accounting, plus the text and JSON renderers.

use crate::Stage;

/// Aggregated measurements for one stage.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StageProfile {
    /// The stage.
    pub stage: Stage,
    /// Closed spans recorded.
    pub count: u64,
    /// Exclusive (self) ticks: span time minus direct-child span time.
    /// Summing this column across stages never double-counts nesting.
    pub self_ticks: u64,
    /// Inclusive ticks (children included).
    pub total_ticks: u64,
    /// Smallest single-span self time.
    pub min: u64,
    /// Largest single-span self time.
    pub max: u64,
    /// Estimated median single-span self time (log2-bucket upper bound).
    pub p50: u64,
    /// Estimated 99th-percentile single-span self time.
    pub p99: u64,
}

impl StageProfile {
    /// Mean self ticks per span (zero when empty).
    pub fn mean(&self) -> u64 {
        self.self_ticks.checked_div(self.count).unwrap_or(0)
    }
}

/// The merged profile across all flushed threads.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Profile {
    /// Stages with at least one recorded span, in [`Stage::ALL`] order.
    pub stages: Vec<StageProfile>,
    /// Tick unit label at snapshot time ("ticks" or "ns").
    pub unit: &'static str,
}

impl Profile {
    /// The row for `stage`, if it recorded anything.
    pub fn stage(&self, stage: Stage) -> Option<&StageProfile> {
        self.stages.iter().find(|s| s.stage == stage)
    }

    /// Fraction of instrumented iteration time attributed to named
    /// sub-stages: `1 - round_self / round_total`, i.e. how little of the
    /// planner's per-round envelope is left *unattributed* after carving
    /// out every instrumented child. `None` when no rounds were recorded.
    ///
    /// This is the acceptance metric for "the stage table explains where
    /// iterations go": 0.95 means at most 5% of round time ran outside
    /// any named stage span.
    pub fn attributed_fraction(&self) -> Option<f64> {
        let round = self.stage(Stage::Round)?;
        if round.total_ticks == 0 {
            return None;
        }
        Some(1.0 - round.self_ticks as f64 / round.total_ticks as f64)
    }

    /// Sum of self ticks over every stage except the round envelope —
    /// the instrumented work the table distributes.
    pub fn instrumented_self_ticks(&self) -> u64 {
        self.stages
            .iter()
            .filter(|s| s.stage != Stage::Round)
            .map(|s| s.self_ticks)
            .sum()
    }

    /// Renders the aligned human-readable table (one row per stage, a
    /// `self%` column over non-round self time, percentiles of per-span
    /// self time).
    pub fn render_text(&self) -> String {
        let denom = self.instrumented_self_ticks().max(1) as f64;
        let mut out = String::new();
        out.push_str(&format!(
            "{:<12} {:>10} {:>14} {:>14} {:>6} {:>10} {:>10} {:>10}  [{}]\n",
            "stage", "count", "self", "total", "self%", "p50", "p99", "max", self.unit
        ));
        for s in &self.stages {
            let share = if s.stage == Stage::Round {
                "-".to_string()
            } else {
                format!("{:.1}", 100.0 * s.self_ticks as f64 / denom)
            };
            out.push_str(&format!(
                "{:<12} {:>10} {:>14} {:>14} {:>6} {:>10} {:>10} {:>10}\n",
                s.stage.name(),
                s.count,
                s.self_ticks,
                s.total_ticks,
                share,
                s.p50,
                s.p99,
                s.max
            ));
        }
        if let Some(f) = self.attributed_fraction() {
            out.push_str(&format!(
                "attributed   {:.1}% of round time to named stages\n",
                100.0 * f
            ));
        }
        out
    }

    /// Renders the machine-readable JSON object (hand-rolled: the
    /// workspace deliberately has no serialization dependency).
    pub fn to_json(&self) -> String {
        let rows = self
            .stages
            .iter()
            .map(|s| {
                format!(
                    "{{\"stage\":\"{}\",\"count\":{},\"self\":{},\"total\":{},\
                     \"min\":{},\"max\":{},\"p50\":{},\"p99\":{}}}",
                    s.stage.name(),
                    s.count,
                    s.self_ticks,
                    s.total_ticks,
                    s.min,
                    s.max,
                    s.p50,
                    s.p99
                )
            })
            .collect::<Vec<_>>()
            .join(",");
        let attributed = self
            .attributed_fraction()
            .map_or("null".to_string(), |f| format!("{f:.6}"));
        format!(
            "{{\"unit\":\"{}\",\"attributed_fraction\":{attributed},\
             \"stages\":[{rows}]}}",
            self.unit
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(stage: Stage, count: u64, self_ticks: u64, total_ticks: u64) -> StageProfile {
        StageProfile {
            stage,
            count,
            self_ticks,
            total_ticks,
            min: 1,
            max: self_ticks.max(1),
            p50: 1,
            p99: self_ticks.max(1),
        }
    }

    fn sample_profile() -> Profile {
        Profile {
            stages: vec![
                row(Stage::Round, 10, 50, 1000),
                row(Stage::Sample, 10, 100, 100),
                row(Stage::Nearest, 10, 450, 450),
                row(Stage::Collision, 40, 400, 400),
            ],
            unit: "ticks",
        }
    }

    #[test]
    fn attribution_is_one_minus_round_self_share() {
        let p = sample_profile();
        let f = p.attributed_fraction().expect("round present");
        assert!((f - 0.95).abs() < 1e-12);
    }

    #[test]
    fn attribution_absent_without_round() {
        let p = Profile {
            stages: vec![row(Stage::Sample, 1, 5, 5)],
            unit: "ticks",
        };
        assert!(p.attributed_fraction().is_none());
    }

    #[test]
    fn text_table_lists_every_stage_and_the_attribution_line() {
        let p = sample_profile();
        let text = p.render_text();
        for s in [
            Stage::Round,
            Stage::Sample,
            Stage::Nearest,
            Stage::Collision,
        ] {
            assert!(text.contains(s.name()), "missing {}", s.name());
        }
        assert!(text.contains("attributed"));
        assert!(text.contains("95.0%"));
    }

    #[test]
    fn json_is_flat_and_contains_rows() {
        let p = sample_profile();
        let json = p.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"stage\":\"nearest\""));
        assert!(json.contains("\"attributed_fraction\":0.95"));
        crate::export::validate_json(&json).expect("profile JSON must be well-formed");
    }

    #[test]
    fn mean_handles_empty() {
        assert_eq!(row(Stage::Sample, 0, 0, 0).mean(), 0);
        assert_eq!(row(Stage::Sample, 4, 100, 100).mean(), 25);
    }
}
