//! First-class workload identity: synthetic profile or external trace.
//!
//! Every layer above this crate — the trace store, `SimSession`, the
//! experiment registry's cell keys and manifests, the CLI — used to
//! assume a workload *is* a synthetic `(profile, seed, len)` triple.
//! [`WorkloadSource`] makes the identity explicit: a workload is either
//! a [`WorkloadProfile`] to synthesize or an ingested [`ExternalTrace`]
//! file, and every keyed structure derives its identity from
//! [`WorkloadSource::key_json`].
//!
//! Key compatibility is load-bearing: for synthetic sources,
//! `key_json()` is byte-for-byte the profile's JSON rendering — exactly
//! the string the pre-source code embedded in trace-store and cell-
//! cache keys — so every committed cache entry and store file stays
//! valid. External sources key on the FNV-1a digest of the raw file
//! bytes, so a renamed or moved trace file hits the same entries and a
//! modified one can never alias them.

use crate::ingest::ExternalTrace;
use crate::profile::{ProfileTrace, WorkloadProfile};
use crate::store::TraceStoreKey;
use crate::{Trace, TraceInstr};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use zbp_support::json;

/// One workload the simulator can replay: a synthetic profile or an
/// ingested external trace.
///
/// Cloning is cheap — external traces are shared behind an [`Arc`], so
/// a grid fan-out never duplicates the event stream.
#[derive(Debug, Clone)]
pub enum WorkloadSource {
    /// A synthetic workload generated from a [`WorkloadProfile`].
    Synthetic(WorkloadProfile),
    /// An ingested external trace file.
    External(ExternalSource),
}

/// An external trace plus the provenance needed for display.
#[derive(Debug, Clone)]
pub struct ExternalSource {
    /// Path the trace was ingested from (display only — identity comes
    /// from the content digest).
    pub path: PathBuf,
    trace: Arc<ExternalTrace>,
}

impl WorkloadSource {
    /// Wraps an already-parsed external trace.
    pub fn external(path: impl Into<PathBuf>, trace: ExternalTrace) -> Self {
        Self::External(ExternalSource { path: path.into(), trace: Arc::new(trace) })
    }

    /// Ingests an external trace file.
    ///
    /// # Errors
    ///
    /// Returns any [`crate::ingest::IngestError`] from reading or
    /// parsing, rendered as a string naming the path.
    pub fn ingest(path: impl AsRef<Path>) -> Result<Self, String> {
        let path = path.as_ref();
        let trace =
            ExternalTrace::read_file(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(Self::external(path, trace))
    }

    /// Workload name for grids and reports.
    pub fn name(&self) -> &str {
        match self {
            Self::Synthetic(p) => &p.name,
            Self::External(e) => e.trace.name(),
        }
    }

    /// Default dynamic length: the profile's default, or the external
    /// trace's full instruction count.
    pub fn default_len(&self) -> u64 {
        match self {
            Self::Synthetic(p) => p.default_len,
            Self::External(e) => e.trace.len(),
        }
    }

    /// Published unique-branch-site target (Table 4), `0` for external
    /// traces (no published target to validate against).
    pub fn unique_branches(&self) -> u32 {
        match self {
            Self::Synthetic(p) => p.unique_branches(),
            Self::External(_) => 0,
        }
    }

    /// Published unique-taken target, `0` for external traces.
    pub fn unique_taken(&self) -> u32 {
        match self {
            Self::Synthetic(p) => p.unique_taken(),
            Self::External(_) => 0,
        }
    }

    /// The identity string embedded in every trace-store and cell-cache
    /// key.
    ///
    /// Synthetic sources render exactly as `json::to_string(profile)` —
    /// byte-identical to the pre-source key layout, keeping every
    /// committed cache entry and store file valid. External sources
    /// render as a distinct object keyed on the content digest, which
    /// can never collide with a profile rendering (profiles always
    /// start with a `name` field).
    pub fn key_json(&self) -> String {
        match self {
            Self::Synthetic(p) => json::to_string(p),
            Self::External(e) => format!(
                "{{\"external\":{{\"content_fnv\":\"{:016x}\",\"len\":{}}}}}",
                e.trace.content_fnv(),
                e.trace.len()
            ),
        }
    }

    /// One-line provenance descriptor stamped into manifests.
    pub fn describe(&self) -> String {
        match self {
            Self::Synthetic(p) => format!("synthetic:{}", p.name),
            Self::External(e) => {
                format!("external:{}@fnv={:016x}", e.trace.name(), e.trace.content_fnv())
            }
        }
    }

    /// Trace-store key for this source at `(seed, len)`. Synthetic
    /// sources keep the exact pre-source key rendering; external
    /// sources use a seed-free namespace (replay does not depend on the
    /// synthesis seed).
    pub fn store_key(&self, seed: u64, len: u64) -> TraceStoreKey {
        match self {
            Self::Synthetic(p) => TraceStoreKey::workload(&json::to_string(p), seed, len),
            Self::External(e) => TraceStoreKey::external(e.trace.content_fnv(), len),
        }
    }

    /// Builds the replayable stream, capped at `len` dynamic
    /// instructions. Synthetic sources synthesize from `seed`; external
    /// sources replay their recorded stream (the seed is ignored — the
    /// stream is fixed).
    pub fn build_with_len(&self, seed: u64, len: u64) -> SourceTrace<'_> {
        match self {
            Self::Synthetic(p) => SourceTrace::Synthetic(p.build_with_len(seed, len)),
            Self::External(e) => {
                SourceTrace::External { trace: &e.trace, len: len.min(e.trace.len()) }
            }
        }
    }
}

impl From<WorkloadProfile> for WorkloadSource {
    fn from(p: WorkloadProfile) -> Self {
        Self::Synthetic(p)
    }
}

// Identity comparison: two sources are the same workload exactly when
// their key renderings match (same profile, or same external bytes).
impl PartialEq for WorkloadSource {
    fn eq(&self, other: &Self) -> bool {
        self.key_json() == other.key_json()
    }
}

impl Eq for WorkloadSource {}

/// The replayable stream of one [`WorkloadSource`]: a generated
/// [`ProfileTrace`] or a borrowed, length-capped external stream.
#[derive(Debug)]
pub enum SourceTrace<'a> {
    /// Synthesized stream.
    Synthetic(ProfileTrace),
    /// Borrowed external stream capped at `len` instructions.
    External {
        /// The shared ingested trace.
        trace: &'a ExternalTrace,
        /// Effective replay length.
        len: u64,
    },
}

impl Trace for SourceTrace<'_> {
    type Iter<'b>
        = SourceIter<'b>
    where
        Self: 'b;

    fn iter(&self) -> SourceIter<'_> {
        match self {
            Self::Synthetic(t) => SourceIter::Synthetic(t.iter()),
            Self::External { trace, len } => SourceIter::External(trace.iter().take(*len as usize)),
        }
    }

    fn name(&self) -> &str {
        match self {
            Self::Synthetic(t) => t.name(),
            Self::External { trace, .. } => trace.name(),
        }
    }

    fn len(&self) -> u64 {
        match self {
            Self::Synthetic(t) => t.len(),
            Self::External { len, .. } => *len,
        }
    }
}

/// Iterator over a [`SourceTrace`].
pub enum SourceIter<'a> {
    /// Synthesized stream.
    Synthetic(<ProfileTrace as Trace>::Iter<'a>),
    /// Length-capped external stream.
    External(std::iter::Take<crate::ingest::ExternalIter<'a>>),
}

impl Iterator for SourceIter<'_> {
    type Item = TraceInstr;

    fn next(&mut self) -> Option<TraceInstr> {
        match self {
            Self::Synthetic(it) => it.next(),
            Self::External(it) => it.next(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::branch::BranchKind;
    use crate::ingest::{write_external, ExtSite, EVENT_TAKEN};

    fn external() -> WorkloadSource {
        let sites = vec![
            ExtSite { addr: 0x1010, target: 0x1000, len: 4, kind: BranchKind::Conditional },
            ExtSite { addr: 0x1020, target: 0x1000, len: 4, kind: BranchKind::Unconditional },
        ];
        let events = vec![EVENT_TAKEN, 0, 1 | EVENT_TAKEN, EVENT_TAKEN];
        let mut buf = Vec::new();
        write_external("ext-test", 0x1000, &sites, &events, &mut buf).unwrap();
        WorkloadSource::external("/tmp/ext-test.zbxt", ExternalTrace::parse(&buf).unwrap())
    }

    #[test]
    fn synthetic_key_json_matches_profile_rendering_exactly() {
        // Load-bearing: this exact string is embedded in committed
        // cache entries and store files from pre-source runs.
        let p = WorkloadProfile::tpf_airline();
        let s = WorkloadSource::from(p.clone());
        assert_eq!(s.key_json(), json::to_string(&p));
        assert_eq!(s.name(), p.name);
        assert_eq!(s.default_len(), p.default_len);
        assert_eq!(s.unique_branches(), p.unique_branches());
        let key = s.store_key(7, 1000);
        let direct = TraceStoreKey::workload(&json::to_string(&p), 7, 1000);
        assert_eq!(key.rendered(), direct.rendered());
    }

    #[test]
    fn synthetic_build_matches_profile_build() {
        let p = WorkloadProfile::tpf_airline();
        let s = WorkloadSource::from(p.clone());
        let a: Vec<TraceInstr> = s.build_with_len(3, 2_000).iter().collect();
        let b: Vec<TraceInstr> = p.build_with_len(3, 2_000).iter().collect();
        assert_eq!(a, b);
    }

    #[test]
    fn external_key_ignores_seed_and_path() {
        let s = external();
        assert_eq!(s.store_key(1, 100).rendered(), s.store_key(2, 100).rendered());
        assert_ne!(s.store_key(1, 100).rendered(), s.store_key(1, 101).rendered());
        assert!(s.key_json().starts_with("{\"external\":"));
        assert!(s.describe().starts_with("external:ext-test@fnv="));
        let WorkloadSource::External(e) = &s else { panic!("external") };
        assert_eq!(e.path, PathBuf::from("/tmp/ext-test.zbxt"));
    }

    #[test]
    fn external_build_caps_length_and_ignores_seed() {
        let s = external();
        let full = s.default_len();
        assert!(full > 4, "gaps expand");
        let a: Vec<TraceInstr> = s.build_with_len(1, u64::MAX).iter().collect();
        let b: Vec<TraceInstr> = s.build_with_len(99, u64::MAX).iter().collect();
        assert_eq!(a, b, "seed must not matter");
        assert_eq!(a.len() as u64, full);
        let capped = s.build_with_len(1, 3);
        assert_eq!(capped.len(), 3);
        assert_eq!(capped.iter().count(), 3);
        assert_eq!(capped.name(), "ext-test");
    }

    #[test]
    fn equality_is_content_identity() {
        let a = external();
        let b = external();
        assert_eq!(a, b);
        let p = WorkloadSource::from(WorkloadProfile::tpf_airline());
        assert_ne!(a, p);
        assert_eq!(p, WorkloadSource::from(WorkloadProfile::tpf_airline()));
    }
}
