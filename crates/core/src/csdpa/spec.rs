//! Pattern specs and generation-stamped snapshots: one parsed,
//! compiled-once description of a pattern set, from which a
//! [`PatternRegistry`] can be built or *delta-patched*.
//!
//! A [`PatternSpec`] is the in-memory form of a `--patterns` file: every
//! entry carries the pattern id, a content fingerprint, and the pattern
//! as a sealed **binary artifact** (`ID REGEX` lines are compiled once at
//! parse time and serialized; `ID @FILE.rida` lines are read and
//! validated). Building a registry from a spec is therefore always a
//! *load*, never a powerset construction, and a reload re-loads only
//! the entries whose source changed.
//!
//! [`RegistrySnapshot`] is the publication cell for hot reload: a spec
//! watcher re-parses the pattern file, [`publish`](RegistrySnapshot::publish)es
//! the new spec under a bumped generation, and the serve loop notices
//! the generation change between ticks and applies the insert/evict
//! delta ([`PatternSpec::apply_to`]) without dropping a connection.
//! In-flight incremental scans on a replaced pattern fail typed
//! ([`RegistryError::PatternReloaded`]),
//! never with a wrong verdict.

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use ridfa_automata::nfa::glushkov;
use ridfa_automata::{regex, ConstructionBudget};

use crate::ridfa::{ridfa_from_bytes, ridfa_to_bytes, RiDfa};

use super::registry::{PatternRegistry, RegistryConfig, RegistryError};

/// A pattern-spec parse/compile failure, with the 1-based line of the
/// offending entry (0 when the failure is not line-specific).
#[derive(Debug, Clone)]
pub struct SpecError {
    /// 1-based line number in the spec text, 0 if not line-specific.
    pub line: usize,
    /// What went wrong (syntax, construction budget, artifact I/O…).
    pub message: String,
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "pattern spec: {}", self.message)
        } else {
            write!(f, "pattern spec line {}: {}", self.line, self.message)
        }
    }
}

impl std::error::Error for SpecError {}

/// One compiled pattern of a [`PatternSpec`].
#[derive(Debug, Clone)]
pub struct SpecEntry {
    /// The pattern id requests name.
    pub id: String,
    /// Fingerprint of the entry's *source* (regex text or artifact
    /// bytes), used to compute reload deltas.
    pub fingerprint: u64,
    /// The pattern as a sealed RI-DFA artifact, shared between spec
    /// generations that leave it unchanged.
    pub artifact: Arc<Vec<u8>>,
}

/// A parsed, compiled pattern set — see the [module docs](self).
#[derive(Debug, Clone, Default)]
pub struct PatternSpec {
    entries: Vec<SpecEntry>,
}

/// FNV-1a over `data`, seeded so id and payload cannot alias.
fn fnv1a(seed: u64, data: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64 ^ seed;
    for &b in data {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

impl PatternSpec {
    /// Parses pattern-file `text` (one `ID REGEX` or `ID @FILE.rida` per
    /// line; blank lines and `#` comments skipped), compiling each regex
    /// through `budget` and sealing it as an artifact. When `prev` is
    /// given, entries whose id *and* source are unchanged reuse the
    /// previous spec's compiled artifact — a reload re-compiles only
    /// what actually changed.
    pub fn parse(
        text: &str,
        budget: &ConstructionBudget,
        prev: Option<&PatternSpec>,
    ) -> Result<PatternSpec, SpecError> {
        let mut entries: Vec<SpecEntry> = Vec::new();
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let err = |message: String| SpecError {
                line: lineno + 1,
                message,
            };
            let Some((id, source)) = line.split_once(char::is_whitespace) else {
                return Err(err("expected `ID REGEX` or `ID @ARTIFACT`".into()));
            };
            let source = source.trim();
            if id.is_empty() || id.len() > 255 {
                return Err(err(format!("pattern id must be 1..=255 bytes, got {id:?}")));
            }
            if entries.iter().any(|e| e.id == id) {
                return Err(err(format!("duplicate pattern id {id:?}")));
            }
            let entry = match source.strip_prefix('@') {
                Some(path) => {
                    let bytes = std::fs::read(path).map_err(|e| err(format!("{path}: {e}")))?;
                    let fingerprint = fnv1a(fnv1a(1, id.as_bytes()), &bytes);
                    if let Some(reused) = Self::reusable(prev, id, fingerprint) {
                        reused
                    } else {
                        // Validate now so a bad artifact is a parse error,
                        // not an insert error later.
                        ridfa_from_bytes(&bytes).map_err(|e| err(format!("{path}: {e}")))?;
                        SpecEntry {
                            id: id.to_string(),
                            fingerprint,
                            artifact: Arc::new(bytes),
                        }
                    }
                }
                None => {
                    let fingerprint = fnv1a(fnv1a(2, id.as_bytes()), source.as_bytes());
                    if let Some(reused) = Self::reusable(prev, id, fingerprint) {
                        reused
                    } else {
                        let ast = regex::parse(source).map_err(|e| err(e.to_string()))?;
                        let nfa = glushkov::build(&ast).map_err(|e| err(e.to_string()))?;
                        let rid = RiDfa::from_nfa_budgeted(&nfa, budget)
                            .map_err(|e| err(e.to_string()))?
                            .minimized();
                        SpecEntry {
                            id: id.to_string(),
                            fingerprint,
                            artifact: Arc::new(ridfa_to_bytes(&rid)),
                        }
                    }
                }
            };
            entries.push(entry);
        }
        if entries.is_empty() {
            return Err(SpecError {
                line: 0,
                message: "no patterns defined".into(),
            });
        }
        Ok(PatternSpec { entries })
    }

    fn reusable(prev: Option<&PatternSpec>, id: &str, fingerprint: u64) -> Option<SpecEntry> {
        prev?
            .entries
            .iter()
            .find(|e| e.id == id && e.fingerprint == fingerprint)
            .cloned()
    }

    /// The spec's entries, in file order.
    pub fn entries(&self) -> &[SpecEntry] {
        &self.entries
    }

    /// The pattern ids, in file order.
    pub fn ids(&self) -> impl Iterator<Item = &str> {
        self.entries.iter().map(|e| e.id.as_str())
    }

    /// Number of patterns in the spec.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the spec holds no patterns.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Order-sensitive fingerprint of the whole spec — equal fingerprints
    /// mean a reload has nothing to publish.
    pub fn fingerprint(&self) -> u64 {
        let mut hash = fnv1a(3, &[]);
        for e in &self.entries {
            hash = fnv1a(hash, e.id.as_bytes());
            hash = fnv1a(hash, &e.fingerprint.to_le_bytes());
        }
        hash
    }

    /// Builds a fresh registry replica holding exactly this spec's
    /// patterns — pure artifact loads, no construction.
    pub fn build_registry(&self, config: RegistryConfig) -> Result<PatternRegistry, RegistryError> {
        let mut registry = PatternRegistry::new(config);
        for e in &self.entries {
            registry.insert_artifact(&e.id, &e.artifact)?;
        }
        Ok(registry)
    }

    /// Patches `registry` to hold exactly this spec's patterns, evicting
    /// ids no longer in the spec, re-inserting ids whose source changed
    /// (per `applied`, the id → fingerprint map of what the registry
    /// currently holds — updated in place), and inserting new ids.
    /// Entries that fail to insert (e.g. over the residency cap) are
    /// counted, not fatal: the rest of the delta still lands.
    pub fn apply_to(
        &self,
        registry: &mut PatternRegistry,
        applied: &mut HashMap<String, u64>,
    ) -> ReloadDelta {
        let mut delta = ReloadDelta::default();
        let stale: Vec<String> = registry
            .ids()
            .filter(|id| !self.entries.iter().any(|e| e.id == *id))
            .map(str::to_string)
            .collect();
        for id in stale {
            registry.remove(&id);
            applied.remove(&id);
            delta.evicted += 1;
        }
        for e in &self.entries {
            let unchanged = registry.contains(&e.id) && applied.get(&e.id) == Some(&e.fingerprint);
            if unchanged {
                continue;
            }
            if registry.remove(&e.id) {
                delta.evicted += 1;
            }
            match registry.insert_artifact(&e.id, &e.artifact) {
                Ok(()) => {
                    applied.insert(e.id.clone(), e.fingerprint);
                    delta.inserted += 1;
                }
                Err(_) => {
                    applied.remove(&e.id);
                    delta.failed += 1;
                }
            }
        }
        delta
    }

    /// The id → fingerprint map of this spec, the initial `applied` state
    /// of a registry built with [`build_registry`](PatternSpec::build_registry).
    pub fn fingerprints(&self) -> HashMap<String, u64> {
        self.entries
            .iter()
            .map(|e| (e.id.clone(), e.fingerprint))
            .collect()
    }
}

/// What one [`PatternSpec::apply_to`] delta did to a registry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReloadDelta {
    /// Patterns inserted (new id, or re-inserted with changed source).
    pub inserted: u64,
    /// Patterns removed (dropped from the spec, or replaced).
    pub evicted: u64,
    /// Patterns that failed to insert (counted, not fatal).
    pub failed: u64,
}

/// A generation-stamped [`PatternSpec`] publication cell: one writer
/// (the spec watcher) publishes, readers (the serve loop) poll the
/// generation cheaply each tick and load the spec only when it changed.
pub struct RegistrySnapshot {
    generation: AtomicU64,
    spec: Mutex<Arc<PatternSpec>>,
}

impl RegistrySnapshot {
    /// A snapshot cell starting at generation 1 with `spec`.
    pub fn new(spec: Arc<PatternSpec>) -> RegistrySnapshot {
        RegistrySnapshot {
            generation: AtomicU64::new(1),
            spec: Mutex::new(spec),
        }
    }

    /// The current generation (cheap; lock-free).
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// Publishes a new spec, bumping the generation. Returns the new
    /// generation.
    pub fn publish(&self, spec: Arc<PatternSpec>) -> u64 {
        let mut slot = self.spec.lock().unwrap();
        *slot = spec;
        self.generation.fetch_add(1, Ordering::Release) + 1
    }

    /// The current (generation, spec) pair, read consistently.
    pub fn load(&self) -> (u64, Arc<PatternSpec>) {
        let slot = self.spec.lock().unwrap();
        (self.generation.load(Ordering::Acquire), Arc::clone(&slot))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(text: &str) -> PatternSpec {
        PatternSpec::parse(text, &ConstructionBudget::UNLIMITED, None).unwrap()
    }

    #[test]
    fn parses_compiles_and_builds_a_registry() {
        let s = spec("abb (a|b)*abb\n# comment\n\ndigits [0-9]+\n");
        assert_eq!(s.len(), 2);
        assert_eq!(s.ids().collect::<Vec<_>>(), ["abb", "digits"]);
        let mut reg = s
            .build_registry(RegistryConfig {
                num_workers: 1,
                ..RegistryConfig::default()
            })
            .unwrap();
        assert!(reg.recognize("abb", b"bababb", 0).unwrap().accepted);
        assert!(!reg.recognize("digits", b"12a", 0).unwrap().accepted);
    }

    #[test]
    fn parse_errors_carry_the_line() {
        let e = PatternSpec::parse("ok [0-9]+\nbad ((", &ConstructionBudget::UNLIMITED, None)
            .unwrap_err();
        assert_eq!(e.line, 2);
        let e =
            PatternSpec::parse("dup a\ndup b", &ConstructionBudget::UNLIMITED, None).unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("duplicate"));
        let e = PatternSpec::parse("# only comments\n", &ConstructionBudget::UNLIMITED, None)
            .unwrap_err();
        assert_eq!(e.line, 0);
    }

    #[test]
    fn reparse_reuses_unchanged_artifacts() {
        let v1 = spec("abb (a|b)*abb\ndigits [0-9]+\n");
        let v2 = PatternSpec::parse(
            "abb (a|b)*abb\ndigits [0-9]{2}\n",
            &ConstructionBudget::UNLIMITED,
            Some(&v1),
        )
        .unwrap();
        // Unchanged entry: same Arc. Changed entry: recompiled.
        assert!(Arc::ptr_eq(
            &v1.entries()[0].artifact,
            &v2.entries()[0].artifact
        ));
        assert_ne!(v1.entries()[1].fingerprint, v2.entries()[1].fingerprint);
        assert_ne!(v1.fingerprint(), v2.fingerprint());
    }

    #[test]
    fn apply_to_patches_the_delta() {
        let v1 = spec("a [0-9]+\nb [a-z]+\n");
        let mut reg = v1
            .build_registry(RegistryConfig {
                num_workers: 1,
                ..RegistryConfig::default()
            })
            .unwrap();
        let mut applied = v1.fingerprints();

        // b changes, c appears, a disappears.
        let v2 = PatternSpec::parse(
            "b [a-z]{3}\nc (a|b)*abb\n",
            &ConstructionBudget::UNLIMITED,
            Some(&v1),
        )
        .unwrap();
        let delta = v2.apply_to(&mut reg, &mut applied);
        assert_eq!(delta.inserted, 2, "changed b + new c");
        assert_eq!(delta.evicted, 2, "dropped a + replaced b");
        assert_eq!(delta.failed, 0);
        assert!(!reg.contains("a"));
        assert!(reg.recognize("b", b"xyz", 0).unwrap().accepted);
        assert!(!reg.recognize("b", b"xy", 0).unwrap().accepted);
        assert!(reg.recognize("c", b"abb", 0).unwrap().accepted);

        // Applying the same spec again is a no-op.
        let delta = v2.apply_to(&mut reg, &mut applied);
        assert_eq!(delta, ReloadDelta::default());
    }

    #[test]
    fn snapshot_publication_is_generation_stamped() {
        let cell = RegistrySnapshot::new(Arc::new(spec("a [0-9]+\n")));
        assert_eq!(cell.generation(), 1);
        let (gen1, s1) = cell.load();
        assert_eq!(gen1, 1);
        assert_eq!(s1.len(), 1);
        let gen2 = cell.publish(Arc::new(spec("a [0-9]+\nb [a-z]+\n")));
        assert_eq!(gen2, 2);
        let (gen, s2) = cell.load();
        assert_eq!(gen, 2);
        assert_eq!(s2.len(), 2);
    }
}
