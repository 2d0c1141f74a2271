//! The deterministic event journal: a bit-exact record of one planning
//! run that can be serialized, diffed, and replayed.
//!
//! The planner records one [`JournalEvent::Sample`] per sampling round —
//! the drawn `x_rand` coordinates, goal-bias draws included — plus the
//! accept/reject/rewire/goal outcomes, and each deferred parent edge
//! RRT\*'s lazy refinement checks and each repair. Because everything
//! downstream of the sample stream (nearest, steering, collision,
//! rewiring, path extraction) is a pure function of the scenario and the
//! tree, replaying the sample stream
//! through `moped-core` reproduces the run bit-identically: same tree,
//! same node count, same path cost to the last mantissa bit.
//!
//! # Wire format
//!
//! Line-oriented text, one event per line, `f64`s as 16-hex-digit IEEE-754
//! bit patterns (exact round-trip by construction):
//!
//! ```text
//! moped-journal v1
//! seed 42
//! dof 3
//! s 4049000000000000 4035000000000000 3fe0000000000000
//! a 1 0 401199999999999a
//! r collision
//! w 3 5 4020000000000000
//! g 7 4059000000000000
//! d 5 free
//! d 3 collision
//! p 3 1 4022000000000000
//! end
//! ```

use std::fmt::Write as _;

/// Why a sampling round produced no new node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RejectReason {
    /// Steering collapsed onto the nearest node (degenerate draw).
    Degenerate,
    /// The extension edge failed the collision check.
    Collision,
}

impl RejectReason {
    fn token(self) -> &'static str {
        match self {
            RejectReason::Degenerate => "degenerate",
            RejectReason::Collision => "collision",
        }
    }
}

/// One recorded planning event.
#[derive(Clone, Debug, PartialEq)]
pub enum JournalEvent {
    /// A drawn sample (`x_rand`), one per round.
    Sample {
        /// Configuration coordinates, `dof` values.
        coords: Vec<f64>,
    },
    /// A sample was accepted: node `node` entered the tree under
    /// `parent` at path cost `cost`.
    Accept {
        /// New node id.
        node: u64,
        /// Chosen parent id.
        parent: u64,
        /// Cost-to-come of the new node.
        cost: f64,
    },
    /// The round produced no node.
    Reject {
        /// Why.
        reason: RejectReason,
    },
    /// Rewiring moved `node` under `new_parent` at cost `cost`.
    Rewire {
        /// Rewired node id.
        node: u64,
        /// Its new parent id.
        new_parent: u64,
        /// Its new cost-to-come.
        cost: f64,
    },
    /// A new best goal connection through `node` with total path cost
    /// `total_cost`.
    Goal {
        /// Tree node the goal connects through.
        node: u64,
        /// Total start-to-goal cost at that moment.
        total_cost: f64,
    },
    /// Two exploration trees were bridged: node `from` (in the extending
    /// tree) met node `to` (in the connected tree). Recorded once, when
    /// the bidirectional RRT-Connect engine closes its path; the
    /// single-tree RRT\* engine never emits it.
    Link {
        /// Bridge node in the tree that was being extended.
        from: u64,
        /// Bridge node in the tree that was connected to.
        to: u64,
    },
    /// RRT\* checked the deferred edge from `node`'s parent to `node`:
    /// the parent choice attaches without a check, and an edge is checked
    /// only when the returned path or a rewire hangs from it.
    Deferred {
        /// Node whose parent edge was checked.
        node: u64,
        /// Whether the edge is collision free.
        free: bool,
    },
    /// A deferred edge collided, and `node` moved onto its fallback
    /// parent `new_parent` (the extension's verified edge) at cost
    /// `cost`.
    Repair {
        /// Repaired node id.
        node: u64,
        /// Its fallback parent id.
        new_parent: u64,
        /// Its new cost-to-come.
        cost: f64,
    },
}

/// A planning run's event journal.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct Journal {
    seed: u64,
    dof: usize,
    events: Vec<JournalEvent>,
}

impl Journal {
    /// Creates an empty journal for a run seeded with `seed` in a
    /// `dof`-dimensional configuration space.
    pub fn new(seed: u64, dof: usize) -> Self {
        Journal {
            seed,
            dof,
            events: Vec::new(),
        }
    }

    /// The recorded sampler seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The recorded configuration-space dimension.
    pub fn dof(&self) -> usize {
        self.dof
    }

    /// All recorded events, in order.
    pub fn events(&self) -> &[JournalEvent] {
        &self.events
    }

    /// Number of recorded sampling rounds (one `Sample` each).
    pub fn rounds(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, JournalEvent::Sample { .. }))
            .count()
    }

    /// Number of accepted samples (tree insertions).
    pub fn accepts(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, JournalEvent::Accept { .. }))
            .count()
    }

    /// Iterates the recorded sample coordinate rows, in round order —
    /// the stream a replaying planner consumes instead of its RNG.
    pub fn sample_rows(&self) -> impl Iterator<Item = &[f64]> {
        self.events.iter().filter_map(|e| match e {
            JournalEvent::Sample { coords } => Some(coords.as_slice()),
            _ => None,
        })
    }

    /// Records a drawn sample.
    pub fn record_sample(&mut self, coords: &[f64]) {
        debug_assert_eq!(coords.len(), self.dof, "sample dimension mismatch");
        self.events.push(JournalEvent::Sample {
            coords: coords.to_vec(),
        });
    }

    /// Records an accepted node.
    pub fn record_accept(&mut self, node: u64, parent: u64, cost: f64) {
        self.events
            .push(JournalEvent::Accept { node, parent, cost });
    }

    /// Records a rejected round.
    pub fn record_reject(&mut self, reason: RejectReason) {
        self.events.push(JournalEvent::Reject { reason });
    }

    /// Records a rewire.
    pub fn record_rewire(&mut self, node: u64, new_parent: u64, cost: f64) {
        self.events.push(JournalEvent::Rewire {
            node,
            new_parent,
            cost,
        });
    }

    /// Records an improved goal connection.
    pub fn record_goal(&mut self, node: u64, total_cost: f64) {
        self.events.push(JournalEvent::Goal { node, total_cost });
    }

    /// Records a tree-to-tree bridge (RRT-Connect engine).
    pub fn record_link(&mut self, from: u64, to: u64) {
        self.events.push(JournalEvent::Link { from, to });
    }

    /// Records the verdict on a deferred edge (RRT\* lazy refinement).
    pub fn record_deferred(&mut self, node: u64, free: bool) {
        self.events.push(JournalEvent::Deferred { node, free });
    }

    /// Records a repair onto a fallback parent (RRT\* lazy refinement).
    pub fn record_repair(&mut self, node: u64, new_parent: u64, cost: f64) {
        self.events.push(JournalEvent::Repair {
            node,
            new_parent,
            cost,
        });
    }

    /// Number of recorded tree bridges.
    pub fn links(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, JournalEvent::Link { .. }))
            .count()
    }

    /// Serializes to the line-oriented wire format (see module docs).
    pub fn serialize(&self) -> String {
        let mut out = String::new();
        out.push_str("moped-journal v1\n");
        let _ = writeln!(out, "seed {}", self.seed);
        let _ = writeln!(out, "dof {}", self.dof);
        for e in &self.events {
            match e {
                JournalEvent::Sample { coords } => {
                    out.push('s');
                    for c in coords {
                        let _ = write!(out, " {}", f64_hex(*c));
                    }
                    out.push('\n');
                }
                JournalEvent::Accept { node, parent, cost } => {
                    let _ = writeln!(out, "a {node} {parent} {}", f64_hex(*cost));
                }
                JournalEvent::Reject { reason } => {
                    let _ = writeln!(out, "r {}", reason.token());
                }
                JournalEvent::Rewire {
                    node,
                    new_parent,
                    cost,
                } => {
                    let _ = writeln!(out, "w {node} {new_parent} {}", f64_hex(*cost));
                }
                JournalEvent::Goal { node, total_cost } => {
                    let _ = writeln!(out, "g {node} {}", f64_hex(*total_cost));
                }
                JournalEvent::Link { from, to } => {
                    let _ = writeln!(out, "l {from} {to}");
                }
                JournalEvent::Deferred { node, free } => {
                    let verdict = if *free { "free" } else { "collision" };
                    let _ = writeln!(out, "d {node} {verdict}");
                }
                JournalEvent::Repair {
                    node,
                    new_parent,
                    cost,
                } => {
                    let _ = writeln!(out, "p {node} {new_parent} {}", f64_hex(*cost));
                }
            }
        }
        out.push_str("end\n");
        out
    }

    /// Parses the wire format back into a journal. Errors carry the
    /// offending 1-based line number.
    pub fn parse(text: &str) -> Result<Journal, String> {
        let mut lines = text.lines().enumerate();
        let (_, header) = lines.next().ok_or("empty journal")?;
        if header.trim() != "moped-journal v1" {
            return Err(format!("bad header: {header:?}"));
        }
        let mut journal = Journal::default();
        let mut saw_end = false;
        for (idx, line) in lines {
            let lineno = idx + 1;
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            if saw_end {
                return Err(format!("line {lineno}: content after `end`"));
            }
            let mut parts = line.split_ascii_whitespace();
            let tag = parts.next().unwrap_or_default();
            let fields: Vec<&str> = parts.collect();
            match tag {
                "seed" => journal.seed = parse_u64(&fields, 0, lineno)?,
                "dof" => journal.dof = parse_u64(&fields, 0, lineno)? as usize,
                "s" => {
                    let coords = fields.iter().map(|f| hex_f64(f, lineno)).collect::<Result<
                        Vec<f64>,
                        String,
                    >>(
                    )?;
                    if journal.dof != 0 && coords.len() != journal.dof {
                        return Err(format!(
                            "line {lineno}: sample has {} coords, journal dof is {}",
                            coords.len(),
                            journal.dof
                        ));
                    }
                    journal.events.push(JournalEvent::Sample { coords });
                }
                "a" => journal.events.push(JournalEvent::Accept {
                    node: parse_u64(&fields, 0, lineno)?,
                    parent: parse_u64(&fields, 1, lineno)?,
                    cost: hex_f64(field(&fields, 2, lineno)?, lineno)?,
                }),
                "r" => {
                    let reason = match field(&fields, 0, lineno)? {
                        "degenerate" => RejectReason::Degenerate,
                        "collision" => RejectReason::Collision,
                        other => return Err(format!("line {lineno}: unknown reject {other:?}")),
                    };
                    journal.events.push(JournalEvent::Reject { reason });
                }
                "w" => journal.events.push(JournalEvent::Rewire {
                    node: parse_u64(&fields, 0, lineno)?,
                    new_parent: parse_u64(&fields, 1, lineno)?,
                    cost: hex_f64(field(&fields, 2, lineno)?, lineno)?,
                }),
                "g" => journal.events.push(JournalEvent::Goal {
                    node: parse_u64(&fields, 0, lineno)?,
                    total_cost: hex_f64(field(&fields, 1, lineno)?, lineno)?,
                }),
                "l" => journal.events.push(JournalEvent::Link {
                    from: parse_u64(&fields, 0, lineno)?,
                    to: parse_u64(&fields, 1, lineno)?,
                }),
                "d" => {
                    let free = match field(&fields, 1, lineno)? {
                        "free" => true,
                        "collision" => false,
                        other => return Err(format!("line {lineno}: unknown verdict {other:?}")),
                    };
                    journal.events.push(JournalEvent::Deferred {
                        node: parse_u64(&fields, 0, lineno)?,
                        free,
                    });
                }
                "p" => journal.events.push(JournalEvent::Repair {
                    node: parse_u64(&fields, 0, lineno)?,
                    new_parent: parse_u64(&fields, 1, lineno)?,
                    cost: hex_f64(field(&fields, 2, lineno)?, lineno)?,
                }),
                "end" => saw_end = true,
                other => return Err(format!("line {lineno}: unknown tag {other:?}")),
            }
        }
        if !saw_end {
            return Err("journal truncated: missing `end`".to_string());
        }
        Ok(journal)
    }
}

/// An `f64` as its 16-hex-digit IEEE-754 bit pattern (exact round-trip).
fn f64_hex(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

fn hex_f64(s: &str, lineno: usize) -> Result<f64, String> {
    u64::from_str_radix(s, 16)
        .map(f64::from_bits)
        .map_err(|e| format!("line {lineno}: bad f64 hex {s:?}: {e}"))
}

fn field<'a>(fields: &[&'a str], i: usize, lineno: usize) -> Result<&'a str, String> {
    fields
        .get(i)
        .copied()
        .ok_or_else(|| format!("line {lineno}: missing field {i}"))
}

fn parse_u64(fields: &[&str], i: usize, lineno: usize) -> Result<u64, String> {
    let f = field(fields, i, lineno)?;
    f.parse()
        .map_err(|e| format!("line {lineno}: bad integer {f:?}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_journal() -> Journal {
        let mut j = Journal::new(17, 3);
        j.record_sample(&[1.5, -2.25, 0.1]);
        j.record_accept(1, 0, 2.75);
        j.record_sample(&[std::f64::consts::PI, 0.0, -0.0]);
        j.record_reject(RejectReason::Collision);
        j.record_sample(&[4.0, 4.0, 4.0]);
        j.record_reject(RejectReason::Degenerate);
        j.record_rewire(1, 2, 2.5);
        j.record_link(2, 1);
        j.record_goal(2, 9.125);
        j.record_deferred(2, true);
        j.record_deferred(1, false);
        j.record_repair(1, 0, 3.0625);
        j
    }

    #[test]
    fn round_trips_bit_exactly() {
        let j = sample_journal();
        let text = j.serialize();
        let back = Journal::parse(&text).expect("parse");
        assert_eq!(back.seed(), 17);
        assert_eq!(back.dof(), 3);
        assert_eq!(back.events().len(), j.events().len());
        assert_eq!(back, j);
        // Bit-exactness of the tricky values, explicitly.
        let rows: Vec<&[f64]> = back.sample_rows().collect();
        assert_eq!(rows[1][0].to_bits(), std::f64::consts::PI.to_bits());
        assert_eq!(rows[1][2].to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn lazy_refinement_tags_round_trip() {
        let j = sample_journal();
        let text = j.serialize();
        assert!(text.contains("\nd 2 free\nd 1 collision\np 1 0 4008800000000000\n"));
        let back = Journal::parse(&text).expect("parse");
        assert_eq!(
            &back.events()[back.events().len() - 3..],
            [
                JournalEvent::Deferred {
                    node: 2,
                    free: true
                },
                JournalEvent::Deferred {
                    node: 1,
                    free: false
                },
                JournalEvent::Repair {
                    node: 1,
                    new_parent: 0,
                    cost: 3.0625
                },
            ]
        );
        assert!(Journal::parse("moped-journal v1\nd 4 maybe\nend\n").is_err());
        assert!(Journal::parse("moped-journal v1\nd 4\nend\n").is_err());
        assert!(Journal::parse("moped-journal v1\np 4 1\nend\n").is_err());
    }

    #[test]
    fn counts_rounds_and_accepts() {
        let j = sample_journal();
        assert_eq!(j.rounds(), 3);
        assert_eq!(j.accepts(), 1);
        assert_eq!(j.links(), 1);
        assert_eq!(j.sample_rows().count(), 3);
    }

    #[test]
    fn infinity_and_nan_round_trip() {
        let mut j = Journal::new(0, 1);
        j.record_sample(&[f64::INFINITY]);
        j.record_goal(0, f64::NAN);
        let back = Journal::parse(&j.serialize()).expect("parse");
        let rows: Vec<&[f64]> = back.sample_rows().collect();
        assert_eq!(rows[0][0], f64::INFINITY);
        let Some(JournalEvent::Goal { total_cost, .. }) = back.events().last() else {
            panic!("expected goal event");
        };
        assert_eq!(total_cost.to_bits(), f64::NAN.to_bits());
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(Journal::parse("").is_err());
        assert!(Journal::parse("not-a-journal\n").is_err());
        assert!(Journal::parse("moped-journal v1\nseed 1\ndof 1\n").is_err()); // no end
        assert!(Journal::parse("moped-journal v1\nq zzz\nend\n").is_err()); // bad tag
        assert!(Journal::parse("moped-journal v1\na 1\nend\n").is_err()); // short accept
        assert!(Journal::parse("moped-journal v1\nr sideways\nend\n").is_err());
        assert!(Journal::parse("moped-journal v1\ns zz\nend\n").is_err()); // bad hex
        assert!(Journal::parse("moped-journal v1\nend\nseed 3\n").is_err()); // after end
                                                                             // Dimension guard: dof 2 but a 1-coordinate sample.
        assert!(Journal::parse("moped-journal v1\ndof 2\ns 3ff0000000000000\nend\n").is_err());
    }

    #[test]
    fn empty_journal_round_trips() {
        let j = Journal::new(5, 7);
        let back = Journal::parse(&j.serialize()).expect("parse");
        assert_eq!(back, j);
        assert_eq!(back.rounds(), 0);
    }
}
