//! Profiles: the artifact handed from the profiling build to the final one.

use std::collections::BTreeSet;
use std::fmt;
use std::path::Path;

use crate::allocid::AllocId;
use crate::json::{self, JsonValue};

/// Errors from profile (de)serialization.
#[derive(Debug)]
pub enum ProfileError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// Malformed profile contents.
    Parse(String),
}

impl fmt::Display for ProfileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProfileError::Io(e) => write!(f, "profile I/O error: {e}"),
            ProfileError::Parse(e) => write!(f, "profile parse error: {e}"),
        }
    }
}

impl std::error::Error for ProfileError {}

/// A recorded profile: the set of trusted allocation sites whose objects
/// were observed crossing into the untrusted compartment.
///
/// Sites in the profile are rewritten by the enforcement build to allocate
/// from `M_U`; everything else stays in `M_T`. The set is deduplicated —
/// the fault handler records each site at most once (§4.3.2) — and profiles
/// from separate runs merge with plain set union, which is how a profiling
/// *corpus* accumulates.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Profile {
    shared_sites: BTreeSet<AllocId>,
    /// Total pkey faults serviced while profiling (including repeats on
    /// already-recorded sites); a coverage diagnostic, not policy input.
    pub faults_observed: u64,
}

impl Profile {
    /// Creates an empty profile.
    pub fn new() -> Profile {
        Profile::default()
    }

    /// Records a site; returns `true` if it was not already present.
    pub fn record(&mut self, id: AllocId) -> bool {
        self.shared_sites.insert(id)
    }

    /// Whether `id` was observed crossing the boundary.
    pub fn contains(&self, id: AllocId) -> bool {
        self.shared_sites.contains(&id)
    }

    /// Number of distinct shared sites.
    pub fn len(&self) -> usize {
        self.shared_sites.len()
    }

    /// Whether no site was recorded.
    pub fn is_empty(&self) -> bool {
        self.shared_sites.is_empty()
    }

    /// Iterates the recorded sites in sorted order.
    pub fn sites(&self) -> impl Iterator<Item = AllocId> + '_ {
        self.shared_sites.iter().copied()
    }

    /// Absorbs the sites resolved from a serve-time audit log: every site
    /// that violated the boundary under `audit` policy joins the shared
    /// set, so an identical re-run allocates it from `M_U` and runs
    /// violation-free. Returns how many sites were newly added.
    ///
    /// This closes the compile–profile–recompile loop at runtime — the
    /// audit log is a profiling run that happened in production.
    pub fn absorb_audit(&mut self, sites: impl IntoIterator<Item = AllocId>) -> usize {
        let mut added = 0;
        for id in sites {
            self.faults_observed += 1;
            if self.record(id) {
                added += 1;
            }
        }
        added
    }

    /// Unions `other` into `self` (merging a profiling corpus).
    pub fn merge(&mut self, other: &Profile) {
        self.shared_sites.extend(other.shared_sites.iter().copied());
        self.faults_observed += other.faults_observed;
    }

    /// Serializes to JSON.
    ///
    /// The schema is shared by dynamic and static profiles:
    /// `{"shared_sites":[{"func":F,"block":B,"site":S},...],
    /// "faults_observed":N}`.
    pub fn to_json(&self) -> String {
        json::render(|w| {
            w.object(|w| {
                w.key("shared_sites").array(&self.shared_sites, |w, id| id.write_json(w));
                w.field("faults_observed", self.faults_observed);
            });
        })
    }

    /// Parses a profile from JSON.
    pub fn from_json(text: &str) -> Result<Profile, ProfileError> {
        let parse_error = |m: &str| ProfileError::Parse(m.to_string());
        let doc = json::parse(text).map_err(|e| ProfileError::Parse(e.to_string()))?;
        let sites = doc
            .get("shared_sites")
            .and_then(JsonValue::as_array)
            .ok_or_else(|| parse_error("missing \"shared_sites\" array"))?;
        let mut profile = Profile::new();
        for site in sites {
            let field = |key: &str| {
                site.get(key)
                    .and_then(JsonValue::as_u64)
                    .and_then(|n| u32::try_from(n).ok())
                    .ok_or_else(|| ProfileError::Parse(format!("bad site field {key:?}")))
            };
            profile.record(AllocId::new(field("func")?, field("block")?, field("site")?));
        }
        profile.faults_observed = doc
            .get("faults_observed")
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| parse_error("missing \"faults_observed\""))?;
        Ok(profile)
    }

    /// Writes the profile to `path` as JSON.
    pub fn save(&self, path: &Path) -> Result<(), ProfileError> {
        std::fs::write(path, self.to_json()).map_err(ProfileError::Io)
    }

    /// Loads a profile from `path`.
    pub fn load(path: &Path) -> Result<Profile, ProfileError> {
        let text = std::fs::read_to_string(path).map_err(ProfileError::Io)?;
        Profile::from_json(&text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_deduplicates() {
        let mut p = Profile::new();
        assert!(p.record(AllocId::new(1, 0, 0)));
        assert!(!p.record(AllocId::new(1, 0, 0)));
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn json_roundtrip() {
        let mut p = Profile::new();
        p.record(AllocId::new(1, 2, 3));
        p.record(AllocId::new(4, 5, 6));
        p.faults_observed = 42;
        let q = Profile::from_json(&p.to_json()).unwrap();
        assert_eq!(p, q);
    }

    #[test]
    fn absorb_audit_records_and_counts_new_sites() {
        let mut p = Profile::new();
        p.record(AllocId::new(1, 0, 0));
        let audited = [AllocId::new(1, 0, 0), AllocId::new(2, 0, 0), AllocId::new(2, 0, 0)];
        assert_eq!(p.absorb_audit(audited), 1, "only the unseen site is new");
        assert!(p.contains(AllocId::new(2, 0, 0)));
        assert_eq!(p.faults_observed, 3, "every audited violation counts as a fault");
    }

    #[test]
    fn merge_is_union() {
        let mut a = Profile::new();
        a.record(AllocId::new(1, 0, 0));
        let mut b = Profile::new();
        b.record(AllocId::new(1, 0, 0));
        b.record(AllocId::new(2, 0, 0));
        a.merge(&b);
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn malformed_json_is_an_error() {
        assert!(Profile::from_json("not json").is_err());
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("pkru_safe_profile_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("p.json");
        let mut p = Profile::new();
        p.record(AllocId::new(9, 9, 9));
        p.save(&path).unwrap();
        assert_eq!(Profile::load(&path).unwrap(), p);
        std::fs::remove_file(&path).ok();
    }
}
