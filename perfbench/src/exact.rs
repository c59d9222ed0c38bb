//! The exact-count determinism guard.
//!
//! Simulated statistics, job signatures, artifact digests and IR/code sizes
//! are pure functions of the code and the inputs. Each run stores the ones
//! it saw in a file keyed by the executable's digest; a later run of the
//! same build (any seed) that sees a different value under the same key
//! reports a failure, not noise.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use repro_util::Json;

/// Exact values a run observed, by key.
#[derive(Debug, Default)]
pub struct Counts {
    values: BTreeMap<String, String>,
    /// Keys seen twice in one run with different values.
    pub conflicts: Vec<String>,
}

impl Counts {
    pub fn record(&mut self, key: impl Into<String>, value: impl ToString) {
        let key = key.into();
        let value = value.to_string();
        match self.values.get(&key) {
            Some(old) if *old != value => self
                .conflicts
                .push(format!("{key}: {old} then {value} in one run")),
            Some(_) => {}
            None => {
                self.values.insert(key, value);
            }
        }
    }

    /// Digest of every key and value, for the result record.
    pub fn digest(&self) -> String {
        let mut buf = Vec::new();
        for (k, v) in &self.values {
            buf.extend_from_slice(k.as_bytes());
            buf.push(b'=');
            buf.extend_from_slice(v.as_bytes());
            buf.push(b'\n');
        }
        format!("{:016x}", repro_cache::wire::fnv1a(&buf))
    }

    pub fn to_json(&self) -> Json {
        Json::Object(
            self.values
                .iter()
                .map(|(k, v)| (k.clone(), Json::Str(v.clone())))
                .collect(),
        )
    }
}

fn store_path(dir: &Path, exe_digest: &str, workload: &str) -> PathBuf {
    dir.join(format!("{workload}-{exe_digest}.json"))
}

/// Compare `counts` with what earlier runs of this build stored, then add
/// the new keys. Returns one message per disagreement (including
/// disagreements inside this run).
pub fn check_and_store(
    dir: &Path,
    exe_digest: &str,
    workload: &str,
    counts: &Counts,
) -> std::io::Result<Vec<String>> {
    let path = store_path(dir, exe_digest, workload);
    let mut stored: BTreeMap<String, String> = match std::fs::read_to_string(&path) {
        Ok(text) => match Json::parse(&text) {
            Ok(Json::Object(fields)) => fields
                .into_iter()
                .filter_map(|(k, v)| v.as_str().map(|s| (k, s.to_string())))
                .collect(),
            _ => BTreeMap::new(),
        },
        Err(_) => BTreeMap::new(),
    };
    let mut mismatches = counts.conflicts.clone();
    for (k, v) in &counts.values {
        match stored.get(k) {
            Some(old) if old != v => {
                mismatches.push(format!("{k}: earlier run saw {old}, this run {v}"))
            }
            Some(_) => {}
            None => {
                stored.insert(k.clone(), v.clone());
            }
        }
    }
    std::fs::create_dir_all(dir)?;
    let tmp = path.with_extension(format!("tmp{}", std::process::id()));
    let json = Json::Object(stored.into_iter().map(|(k, v)| (k, Json::Str(v))).collect());
    std::fs::write(&tmp, json.to_compact())?;
    std::fs::rename(&tmp, &path)?;
    Ok(mismatches)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> PathBuf {
        let d = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../.perfbench/selftest")
            .join(format!("exact-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn second_run_with_a_different_count_is_a_failure() {
        let dir = scratch("diff");
        let mut a = Counts::default();
        a.record("cell/4w4t", 100);
        a.record("cell/8w8t", 200);
        assert!(check_and_store(&dir, "exe", "w", &a).unwrap().is_empty());
        let mut b = Counts::default();
        b.record("cell/4w4t", 100);
        b.record("cell/16w16t", 300);
        assert!(check_and_store(&dir, "exe", "w", &b).unwrap().is_empty());
        let mut c = Counts::default();
        c.record("cell/8w8t", 201);
        let m = check_and_store(&dir, "exe", "w", &c).unwrap();
        assert_eq!(m.len(), 1, "{m:?}");
        // Another build starts a fresh store.
        assert!(check_and_store(&dir, "other", "w", &c).unwrap().is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn one_run_disagreeing_with_itself_is_a_failure() {
        let mut a = Counts::default();
        a.record("k", 1);
        a.record("k", 1);
        assert!(a.conflicts.is_empty());
        a.record("k", 2);
        assert_eq!(a.conflicts.len(), 1);
        assert_eq!(a.values.len(), 1);
    }
}
