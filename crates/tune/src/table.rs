//! The [`ProfileTable`]: the class→profile map the service resolves per
//! request, with a stable line-based wire form so a table can be pinned,
//! shipped, and diffed.

use std::collections::BTreeMap;

use crate::PlannerProfile;

/// Wire-format header line (versioned so future fields can be added
/// without breaking pinned tables).
const HEADER: &str = "moped-profile-table v3";

/// The outcome of resolving one request class against a table.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Resolution {
    /// The class id that was looked up.
    pub class_id: String,
    /// The profile to plan with.
    pub profile: PlannerProfile,
    /// Why this profile: the reason stored with the table entry (the
    /// calibration verdict, or a hand-pinned note) for table hits,
    /// `"default"` for misses.
    pub reason: String,
    /// Whether the class had a table entry (false → default profile).
    pub from_table: bool,
}

/// Class-keyed profile map plus the fallback default. Entries are stored
/// in a `BTreeMap`, so iteration, serialization, and diffs are all in
/// stable class-id order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProfileTable {
    default: PlannerProfile,
    entries: BTreeMap<String, (PlannerProfile, String)>,
}

impl ProfileTable {
    /// An empty table resolving everything to `default`.
    pub fn new(default: PlannerProfile) -> ProfileTable {
        ProfileTable {
            default,
            entries: BTreeMap::new(),
        }
    }

    /// An empty table over the static default profile.
    pub fn static_default() -> ProfileTable {
        ProfileTable::new(PlannerProfile::static_default())
    }

    /// Installs (or replaces) the entry for `class_id`.
    pub fn insert(&mut self, class_id: &str, profile: PlannerProfile, reason: &str) {
        self.entries
            .insert(class_id.to_string(), (profile, reason.to_string()));
    }

    /// Looks `class_id` up, falling back to the default profile.
    pub fn resolve(&self, class_id: &str) -> Resolution {
        match self.entries.get(class_id) {
            Some((profile, reason)) => Resolution {
                class_id: class_id.to_string(),
                profile: profile.clone(),
                reason: reason.clone(),
                from_table: true,
            },
            None => Resolution {
                class_id: class_id.to_string(),
                profile: self.default.clone(),
                reason: "default".to_string(),
                from_table: false,
            },
        }
    }

    /// Number of class entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table has no class entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates entries in class-id order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &PlannerProfile, &str)> {
        self.entries
            .iter()
            .map(|(k, (p, r))| (k.as_str(), p, r.as_str()))
    }

    /// Stable line-based wire form:
    ///
    /// ```text
    /// moped-profile-table v3
    /// default|rrt-star,two-stage,si-mbr,1,1
    /// class|mobile_2d/d3/o-few/v-thin|rrt-connect,two-stage,si-mbr,1,1|probe: ...
    /// ```
    pub fn serialize(&self) -> String {
        let mut out = String::new();
        out.push_str(HEADER);
        out.push('\n');
        out.push_str("default|");
        out.push_str(&self.default.serialize());
        out.push('\n');
        for (class, (profile, reason)) in &self.entries {
            out.push_str("class|");
            out.push_str(class);
            out.push('|');
            out.push_str(&profile.serialize());
            out.push('|');
            // Reasons are free text from this crate; strip the two wire
            // metacharacters so the line stays parseable.
            out.push_str(&reason.replace(['|', '\n'], " "));
            out.push('\n');
        }
        out
    }

    /// Parses [`ProfileTable::serialize`] output.
    pub fn parse(s: &str) -> Result<ProfileTable, String> {
        let mut lines = s.lines();
        match lines.next() {
            Some(h) if h == HEADER => {}
            other => return Err(format!("bad header: {other:?}")),
        }
        let default = match lines.next().and_then(|l| l.strip_prefix("default|")) {
            Some(wire) => PlannerProfile::parse(wire)?,
            None => return Err("missing default line".to_string()),
        };
        let mut table = ProfileTable::new(default);
        for line in lines {
            if line.is_empty() {
                continue;
            }
            let body = line
                .strip_prefix("class|")
                .ok_or_else(|| format!("bad line `{line}`"))?;
            let mut fields = body.splitn(3, '|');
            let class = fields.next().unwrap_or_default();
            let wire = fields
                .next()
                .ok_or_else(|| format!("line `{line}`: missing profile"))?;
            let reason = fields.next().unwrap_or_default();
            if class.is_empty() {
                return Err(format!("line `{line}`: empty class id"));
            }
            if table.entries.contains_key(class) {
                return Err(format!("duplicate entry for class `{class}`"));
            }
            table.insert(class, PlannerProfile::parse(wire)?, reason);
        }
        Ok(table)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moped_core::Engine;

    fn connect_profile() -> PlannerProfile {
        PlannerProfile {
            engine: Engine::RrtConnect,
            ..PlannerProfile::static_default()
        }
    }

    #[test]
    fn resolve_hits_entries_and_falls_back() {
        let mut t = ProfileTable::static_default();
        t.insert("mobile_2d/d3/o-few/v-thin", connect_profile(), "probe won");
        let hit = t.resolve("mobile_2d/d3/o-few/v-thin");
        assert!(hit.from_table);
        assert_eq!(hit.profile, connect_profile());
        assert_eq!(hit.reason, "probe won");
        let miss = t.resolve("xarm7/d7/o-many/v-dense");
        assert!(!miss.from_table);
        assert_eq!(miss.profile, PlannerProfile::static_default());
        assert_eq!(miss.reason, "default");
    }

    #[test]
    fn wire_round_trips_and_is_order_stable() {
        let mut t = ProfileTable::static_default();
        t.insert("z/late", connect_profile(), "second");
        t.insert("a/early", connect_profile(), "first | with pipe");
        let wire = t.serialize();
        // Entries serialize in class order regardless of insert order,
        // and reasons are sanitized.
        let a = wire.find("class|a/early").unwrap();
        let z = wire.find("class|z/late").unwrap();
        assert!(a < z);
        assert!(wire.contains("first   with pipe") || wire.contains("first  with pipe"));
        let parsed = ProfileTable::parse(&wire).expect("round trip");
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed.resolve("z/late").reason, "second");
        assert_eq!(parsed.serialize(), wire);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(ProfileTable::parse("").is_err());
        assert!(ProfileTable::parse("moped-profile-table v3\n").is_err());
        assert!(ProfileTable::parse("moped-profile-table v3\ndefault|nope").is_err());
        // A v2 table (7-field profiles with radius and budget policies).
        let v2 = HEADER.replace("v3", "v2");
        assert!(ProfileTable::parse(&format!(
            "{v2}\ndefault|rrt-star,two-stage,si-mbr,1,1,default,inherit\n"
        ))
        .is_err());
        let good = ProfileTable::static_default().serialize();
        assert!(ProfileTable::parse(&format!("{good}mystery|x\n")).is_err());
        assert!(
            ProfileTable::parse(&format!("{good}class||rrt-star,two-stage,si-mbr,1,1|r\n"))
                .is_err()
        );
        // A repeated class line would otherwise let the last one win
        // silently, so the table would resolve unlike how it reads.
        let entry = "class|a/b|rrt-star,two-stage,si-mbr,1,1|r\n";
        let dup = ProfileTable::parse(&format!("{good}{entry}{entry}"));
        assert!(dup.unwrap_err().contains("`a/b`"));
    }
}
