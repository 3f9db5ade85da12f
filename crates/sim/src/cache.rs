//! Content-addressed per-cell result cache.
//!
//! A *cell* is one unit of experiment work: simulating one workload
//! under one configuration, or collecting trace statistics for one
//! workload. Each cell's result is cached on disk under a digest of its
//! full input description — workload profile, synthesis seed, effective
//! trace length, predictor + front-end configuration, and the
//! [`SCHEMA_VERSION`] of the code that produced it — so a killed grid
//! run resumes from the cells it already finished, and a stale entry
//! (different inputs, different code schema) can never be mistaken for
//! a fresh one.
//!
//! Cache files are written atomically (temp file in the same directory,
//! then rename), embed the full key string for collision detection, and
//! hold the cell result as JSON. Results read back from the cache are
//! bit-identical to fresh ones because every cell result is read out of
//! the bytes a cache file holds: a hit decodes the value [`CellCache::load`]
//! parsed from the file, and a freshly computed cell is rendered and
//! parsed back before use (the JSON writer uses shortest-round-trip float
//! rendering, and all cell counters are integers well below 2^53).

use std::hash::{Hash, Hasher};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;
use zbp_support::hash::{digest_hex, fnv1a_64};
use zbp_support::json::{Json, ToJson};

/// Version of the artifact/cache schema: the shape of cached cell
/// results, artifact manifests, and the simulation behavior behind
/// them. Bump whenever simulator semantics or the serialized layout
/// change — old cache entries and artifacts are then rejected instead
/// of silently reused.
pub const SCHEMA_VERSION: u32 = 1;

/// Identity of one cacheable cell, rendered as a canonical key string.
///
/// The key embeds everything that determines the cell's result; two
/// cells with equal key strings are interchangeable across experiments
/// (a sweep's "24k" variant and Figure 2's "BTB2 enabled" column share
/// one cache entry when their configurations match).
///
/// The key's FNV-1a digest is computed once, when the key is built: it
/// names the entry's file and is all [`Hash`] feeds a hasher, while
/// equality compares the full key string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellKey {
    digest: u64,
    text: String,
}

impl Hash for CellKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.digest);
    }
}

impl CellKey {
    fn new(text: String) -> Self {
        Self { digest: fnv1a_64(text.as_bytes()), text }
    }

    /// Key for a simulation cell. `profile_json` must be the full
    /// serialized workload profile (name, footprint parts, slice
    /// length); `predictor_json` / `uarch_json` the serialized
    /// configuration *without* its display name, so renamed but
    /// otherwise identical configurations share entries.
    pub fn sim(
        profile_json: &str,
        seed: u64,
        len: u64,
        predictor_json: &str,
        uarch_json: &str,
    ) -> Self {
        Self::new(format!(
            "zbp-cell-v{SCHEMA_VERSION}|sim|profile={profile_json}|seed={seed}|len={len}|predictor={predictor_json}|uarch={uarch_json}"
        ))
    }

    /// Key for a trace-statistics cell (Table 4 footprint validation).
    pub fn stats(profile_json: &str, seed: u64, len: u64) -> Self {
        Self::new(format!(
            "zbp-cell-v{SCHEMA_VERSION}|stats|profile={profile_json}|seed={seed}|len={len}"
        ))
    }

    /// Key for a SimPoint weighted-replay cell. `source_json` is the
    /// workload source's key rendering, `spec_json` the full SimPoint
    /// parameters (interval length, cluster count, warmup, BBV
    /// dimensions) and `predictor_json`/`uarch_json` the configuration
    /// measured — everything the weighted estimate depends on.
    pub fn simpoint(
        source_json: &str,
        seed: u64,
        len: u64,
        spec_json: &str,
        predictor_json: &str,
        uarch_json: &str,
    ) -> Self {
        Self::new(format!(
            "zbp-cell-v{SCHEMA_VERSION}|simpoint|profile={source_json}|seed={seed}|len={len}|spec={spec_json}|predictor={predictor_json}|uarch={uarch_json}"
        ))
    }

    /// The canonical key string.
    pub fn as_str(&self) -> &str {
        &self.text
    }

    /// Filename-safe digest of the key:
    /// [`fnv1a_64_hex`](zbp_support::hash::fnv1a_64_hex) of
    /// [`Self::as_str`], rendered from the digest computed with the key.
    pub fn digest(&self) -> String {
        digest_hex(self.digest)
    }
}

/// Default [`CellCache::claim_ttl`]: how long an advisory claim file
/// stays authoritative before waiters treat the claimant as dead and
/// recompute the cell themselves.
pub const DEFAULT_CLAIM_TTL: Duration = Duration::from_secs(60);

/// An advisory hold on one cell, taken with [`CellCache::try_claim`].
///
/// Dropping the guard releases the claim: the claim file is deleted
/// only if it still holds this guard's unique token. A holder that
/// outlives its TTL may have its claim *broken* by a contender who
/// claims afresh — the late holder's drop then finds the contender's
/// token and leaves the file alone, rather than deleting a claim it no
/// longer owns (which would invite a third claimant to duplicate the
/// work again). Claims are purely advisory — they coordinate *work*,
/// never correctness: a claim left behind by a killed process expires
/// after the cache's TTL and any waiter simply recomputes the
/// (deterministic, bit-identical) cell.
#[derive(Debug)]
pub struct ClaimGuard {
    path: Option<PathBuf>,
    token: String,
}

/// Distinguishes claims taken by one process: pid alone is not unique
/// across a claim broken and re-taken by two threads of one daemon.
static CLAIM_NONCE: AtomicU64 = AtomicU64::new(0);

impl Drop for ClaimGuard {
    fn drop(&mut self) {
        if let Some(path) = self.path.take() {
            let ours =
                std::fs::read_to_string(&path).is_ok_and(|text| text.trim_end() == self.token);
            if ours {
                let _ = std::fs::remove_file(path);
            }
        }
    }
}

/// On-disk cell cache with atomic writes.
///
/// `CellCache::disabled()` is a null cache: loads always miss, stores
/// are dropped. The cached execution path treats it exactly like a real
/// cache (each computed result is still rendered and parsed back, as it
/// would be read by a later hit), so fresh and resumed runs produce
/// bit-identical artifacts.
#[derive(Debug)]
pub struct CellCache {
    dir: Option<PathBuf>,
    read: bool,
    reads: AtomicU64,
    stores: AtomicU64,
    abort_after: Option<u64>,
    claim_ttl: Duration,
}

impl CellCache {
    /// A cache rooted at `dir` (created lazily on first store).
    pub fn at(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: Some(dir.into()),
            read: true,
            reads: AtomicU64::new(0),
            stores: AtomicU64::new(0),
            abort_after: None,
            claim_ttl: DEFAULT_CLAIM_TTL,
        }
    }

    /// A cache that writes to `dir` but never reads — `--fresh` runs
    /// recompute every cell while still leaving a warm cache behind.
    pub fn write_only(dir: impl Into<PathBuf>) -> Self {
        Self { read: false, ..Self::at(dir) }
    }

    /// The null cache: every load misses, every store is dropped.
    pub fn disabled() -> Self {
        Self {
            dir: None,
            read: false,
            reads: AtomicU64::new(0),
            stores: AtomicU64::new(0),
            abort_after: None,
            claim_ttl: DEFAULT_CLAIM_TTL,
        }
    }

    /// Overrides the stale-claim expiry (default
    /// [`DEFAULT_CLAIM_TTL`]). A claim older than the TTL is treated as
    /// abandoned: [`Self::try_claim`] breaks it and [`Self::wait_for`]
    /// stops waiting on it.
    #[must_use]
    pub fn claim_ttl(mut self, ttl: Duration) -> Self {
        self.claim_ttl = ttl;
        self
    }

    /// Whether this cache persists anything.
    pub fn is_enabled(&self) -> bool {
        self.dir.is_some()
    }

    /// The cache directory, if any.
    pub fn dir(&self) -> Option<&Path> {
        self.dir.as_deref()
    }

    /// Entries this cache has read from disk: every [`Self::load`] that
    /// found a file, whether or not the entry then proved usable. Misses
    /// on absent files are not reads.
    pub fn reads(&self) -> u64 {
        self.reads.load(Ordering::Relaxed)
    }

    /// Test hook: panic on the `n+1`-th store, simulating a grid run
    /// killed mid-sweep. Cells stored before the abort stay on disk
    /// (each store is atomic), so a follow-up run resumes from them.
    #[doc(hidden)]
    #[must_use]
    pub fn abort_after_stores(mut self, n: u64) -> Self {
        self.abort_after = Some(n);
        self
    }

    fn path_for(&self, key: &CellKey) -> Option<PathBuf> {
        self.dir.as_ref().map(|d| d.join(format!("{}.json", key.digest())))
    }

    /// Loads the cached result for `key`, or `None` on a miss.
    ///
    /// Unreadable or unparseable entries (truncated by a crashed writer
    /// bypassing the atomic rename, bit-rotted on disk) are reported to
    /// stderr and **deleted**: left in place they would half-parse on
    /// every resume of every experiment touching the cell, forever. The
    /// warning is only emitted when *this* process removed the file —
    /// when the delete finds it already gone, a concurrent reader
    /// recovered the same damaged entry first (or the writer's atomic
    /// rename replaced it mid-read) and the miss stays silent instead
    /// of double-reporting a problem that is already fixed. An entry
    /// whose embedded key string does not match `key` is a digest
    /// collision — it belongs to a different cell and is left for its
    /// owner; the load is a silent miss.
    pub fn load(&self, key: &CellKey) -> Option<Json> {
        if !self.read {
            return None;
        }
        let path = self.path_for(key)?;
        let text = match std::fs::read_to_string(&path) {
            Ok(text) => {
                self.reads.fetch_add(1, Ordering::Relaxed);
                text
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return None,
            Err(e) => {
                if remove_damaged(&path) {
                    eprintln!(
                        "warning: removing unreadable cache entry {}: {e}; the cell will be \
                         recomputed",
                        path.display()
                    );
                }
                return None;
            }
        };
        let entry = match Json::parse(&text) {
            Ok(entry) => entry,
            Err(e) => {
                if remove_damaged(&path) {
                    eprintln!(
                        "warning: removing corrupt cache entry {}: {e}; the cell will be \
                         recomputed",
                        path.display()
                    );
                }
                return None;
            }
        };
        match entry.get("key") {
            Some(Json::Str(k)) if k == key.as_str() => entry.get("result").cloned(),
            _ => None,
        }
    }

    fn claim_path_for(&self, key: &CellKey) -> Option<PathBuf> {
        self.dir.as_ref().map(|d| d.join(format!("{}.claim", key.digest())))
    }

    /// Takes an advisory cross-process claim on `key`, or `None` when
    /// another process already holds a fresh one.
    ///
    /// The claim is a `<digest>.claim` file created with `O_EXCL`; the
    /// winner computes the cell and releases the claim (drops the
    /// guard) after storing the result. A claim older than
    /// [`Self::claim_ttl`] is presumed abandoned by a killed process:
    /// the next contender silently breaks it and claims afresh.
    ///
    /// Claims never gate correctness: a `disabled` or `write_only`
    /// cache — where no other process could observe our result anyway —
    /// always "wins", as does any filesystem error while claiming.
    /// Losers either [`Self::wait_for`] the winner's entry or recompute
    /// the cell; every path yields bit-identical results.
    pub fn try_claim(&self, key: &CellKey) -> Option<ClaimGuard> {
        let (Some(dir), Some(path), true) =
            (self.dir.as_ref(), self.claim_path_for(key), self.read)
        else {
            return Some(ClaimGuard { path: None, token: String::new() });
        };
        if std::fs::create_dir_all(dir).is_err() {
            return Some(ClaimGuard { path: None, token: String::new() });
        }
        // Two attempts: the first may find a stale claim, break it, and
        // race other contenders for the replacement; losing that second
        // race means a live claimant exists, which is a plain loss.
        for _ in 0..2 {
            match std::fs::OpenOptions::new().write(true).create_new(true).open(&path) {
                Ok(file) => {
                    use std::io::Write;
                    let mut file = file;
                    // The token identifies *this* guard: Drop releases
                    // the claim only while the file still holds it, so
                    // a contender who broke our stale claim keeps its
                    // replacement. (If this write fails the token won't
                    // match and the file simply expires via the TTL.)
                    let token = format!(
                        "pid={} nonce={} cell={}",
                        std::process::id(),
                        CLAIM_NONCE.fetch_add(1, Ordering::Relaxed),
                        key.digest()
                    );
                    let _ = writeln!(file, "{token}");
                    return Some(ClaimGuard { path: Some(path), token });
                }
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                    if !self.claim_is_stale(&path) {
                        return None;
                    }
                    let _ = std::fs::remove_file(&path);
                }
                Err(_) => return Some(ClaimGuard { path: None, token: String::new() }),
            }
        }
        None
    }

    /// Whether the claim file at `path` is older than the TTL (or
    /// vanished / is unreadable, both of which mean it no longer binds).
    fn claim_is_stale(&self, path: &Path) -> bool {
        match std::fs::metadata(path).and_then(|m| m.modified()) {
            // A modification time the clock says is in the future
            // (elapsed() errs) also reads as stale, so a skewed claim
            // can never wedge contenders.
            Ok(t) => t.elapsed().map_or(true, |e| e > self.claim_ttl),
            Err(_) => true,
        }
    }

    /// Waits for the claim holder of `key` to publish its entry.
    ///
    /// Polls the cache until the entry appears (returns it), or the
    /// claim is released / expires without one — the holder died before
    /// storing, or its store failed — in which case one final load is
    /// attempted and `None` tells the caller to recompute. Never blocks
    /// longer than the claim TTL past the claim's last touch.
    pub fn wait_for(&self, key: &CellKey) -> Option<Json> {
        let claim = self.claim_path_for(key).filter(|_| self.read)?;
        loop {
            if let Some(entry) = self.load(key) {
                return Some(entry);
            }
            if self.claim_is_stale(&claim) {
                // Released or expired: the store (if any) happened
                // before the release, so look once more.
                return self.load(key);
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    /// Stores `result` for `key` atomically: the entry is written to a
    /// temp file in the cache directory and renamed into place, so a
    /// reader (or a resumed run) only ever sees complete entries.
    ///
    /// Failures are reported to stderr but non-fatal — a cell that
    /// cannot be cached is simply recomputed next time.
    pub fn store(&self, key: &CellKey, result: &Json) {
        let Some(path) = self.path_for(key) else { return };
        let n = self.stores.fetch_add(1, Ordering::SeqCst);
        if let Some(limit) = self.abort_after {
            assert!(n < limit, "cell cache: simulated interruption after {limit} stores");
        }
        let dir = self.dir.as_ref().expect("path_for implies dir");
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("warning: cannot create cache dir {}: {e}", dir.display());
            return;
        }
        let entry = Json::Obj(vec![
            ("key".into(), Json::Str(key.as_str().to_string())),
            ("schema_version".into(), SCHEMA_VERSION.to_json()),
            ("result".into(), result.clone()),
        ]);
        let tmp = dir.join(format!(".{}.tmp-{}-{n}", key.digest(), std::process::id()));
        let write =
            std::fs::write(&tmp, entry.render_pretty()).and_then(|()| std::fs::rename(&tmp, &path));
        if let Err(e) = write {
            let _ = std::fs::remove_file(&tmp);
            eprintln!("warning: cannot write cache entry {}: {e}", path.display());
        }
    }
}

/// Deletes a damaged cache entry, reporting whether *this* process
/// removed it. `false` means the file had already vanished — a
/// concurrent reader recovered it between our read and our delete — so
/// the caller must not warn about an entry someone else already
/// handled. Any other delete failure still returns `true`: the damaged
/// entry remains on disk and is worth reporting.
fn remove_damaged(path: &Path) -> bool {
    match std::fs::remove_file(path) {
        Ok(()) => true,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => false,
        Err(_) => true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("zbp-cache-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn key(n: u64) -> CellKey {
        CellKey::sim("{\"name\":\"p\"}", n, 1000, "{\"btb\":1}", "{\"core\":1}")
    }

    #[test]
    fn round_trips_an_entry() {
        let dir = tmpdir("roundtrip");
        let cache = CellCache::at(&dir);
        let k = key(1);
        assert!(cache.load(&k).is_none(), "cold cache misses");
        let v = Json::Obj(vec![("cycles".into(), Json::Num(42.0))]);
        cache.store(&k, &v);
        assert_eq!(cache.load(&k), Some(v));
        assert!(cache.load(&key(2)).is_none(), "different seed, different cell");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn mismatched_embedded_key_is_a_miss() {
        let dir = tmpdir("collide");
        let cache = CellCache::at(&dir);
        let (a, b) = (key(1), key(2));
        // Forge a digest collision: b's entry stored under a's filename.
        cache.store(&b, &Json::Num(1.0));
        let forged = dir.join(format!("{}.json", b.digest()));
        std::fs::rename(forged, dir.join(format!("{}.json", a.digest()))).unwrap();
        assert!(cache.load(&a).is_none(), "embedded key must match exactly");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn disabled_cache_never_hits() {
        let cache = CellCache::disabled();
        cache.store(&key(1), &Json::Num(1.0));
        assert!(cache.load(&key(1)).is_none());
        assert!(!cache.is_enabled());
    }

    #[test]
    fn write_only_cache_stores_but_does_not_read() {
        let dir = tmpdir("writeonly");
        let k = key(3);
        let fresh = CellCache::write_only(&dir);
        fresh.store(&k, &Json::Num(7.0));
        assert!(fresh.load(&k).is_none(), "--fresh semantics: no reads");
        assert_eq!(CellCache::at(&dir).load(&k), Some(Json::Num(7.0)), "but the entry landed");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn abort_hook_panics_after_n_stores_leaving_them_on_disk() {
        let dir = tmpdir("abort");
        let cache = CellCache::at(&dir).abort_after_stores(2);
        cache.store(&key(1), &Json::Num(1.0));
        cache.store(&key(2), &Json::Num(2.0));
        let died = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cache.store(&key(3), &Json::Num(3.0));
        }));
        assert!(died.is_err(), "third store must simulate the kill");
        let resumed = CellCache::at(&dir);
        assert!(resumed.load(&key(1)).is_some());
        assert!(resumed.load(&key(2)).is_some());
        assert!(resumed.load(&key(3)).is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_entry_warns_and_is_deleted() {
        let dir = tmpdir("truncated");
        let cache = CellCache::at(&dir);
        let k = key(9);
        cache.store(&k, &Json::Num(9.0));
        // Truncate the entry mid-file, as a crashed writer that bypassed
        // the atomic rename (or disk corruption) would leave it.
        let path = dir.join(format!("{}.json", k.digest()));
        let full = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &full[..full.len() / 2]).unwrap();
        assert!(cache.load(&k).is_none(), "corrupt entry must read as a miss");
        assert!(!path.exists(), "corrupt entry must be deleted, not half-parsed forever");
        // The next run recomputes and re-stores cleanly.
        cache.store(&k, &Json::Num(9.0));
        assert_eq!(cache.load(&k), Some(Json::Num(9.0)));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn collision_survivor_is_not_deleted() {
        // A digest collision's entry belongs to the colliding owner:
        // loading the other cell must miss WITHOUT destroying it.
        let dir = tmpdir("keepowner");
        let cache = CellCache::at(&dir);
        let (a, b) = (key(1), key(2));
        cache.store(&b, &Json::Num(2.0));
        let forged = dir.join(format!("{}.json", b.digest()));
        let as_a = dir.join(format!("{}.json", a.digest()));
        std::fs::rename(forged, &as_a).unwrap();
        assert!(cache.load(&a).is_none());
        assert!(as_a.exists(), "the owner's entry must survive the collision miss");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn vanished_damaged_entry_is_recovered_silently_by_the_loser() {
        // Two processes racing corrupt-entry recovery: the first delete
        // wins (and warns), the second finds the file gone and must stay
        // silent. remove_damaged reports which side of the race we are.
        let dir = tmpdir("vanish");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("entry.json");
        std::fs::write(&path, "{ definitely not json").unwrap();
        assert!(remove_damaged(&path), "first recovery deletes and reports");
        assert!(!remove_damaged(&path), "second recovery finds it gone and stays silent");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn claim_wins_once_until_released() {
        let dir = tmpdir("claim");
        let cache = CellCache::at(&dir);
        let k = key(1);
        let guard = cache.try_claim(&k).expect("first claim wins");
        assert!(cache.try_claim(&k).is_none(), "a held claim blocks contenders");
        assert!(cache.try_claim(&key(2)).is_some(), "claims are per-cell");
        drop(guard);
        assert!(cache.try_claim(&k).is_some(), "a released claim is reclaimable");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_late_holders_drop_leaves_the_contenders_claim_alone() {
        let dir = tmpdir("claimtoken");
        let cache = CellCache::at(&dir).claim_ttl(Duration::ZERO);
        let k = key(1);
        let claim_path = dir.join(format!("{}.claim", k.digest()));
        // The original holder outlives its (zero) TTL; a contender
        // breaks the stale claim and claims afresh.
        let original = cache.try_claim(&k).expect("first claim wins");
        std::thread::sleep(Duration::from_millis(20));
        let contender = cache.try_claim(&k).expect("stale claim must be breakable");
        assert!(claim_path.exists());
        // The late holder finishing now must not delete a claim it no
        // longer owns — that would invite a third duplicate claimant.
        drop(original);
        assert!(claim_path.exists(), "the contender's claim survives the late drop");
        drop(contender);
        assert!(!claim_path.exists(), "the owner's drop releases its own claim");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stale_claim_is_broken_and_reclaimed() {
        let dir = tmpdir("staleclaim");
        let cache = CellCache::at(&dir).claim_ttl(Duration::ZERO);
        let k = key(1);
        // Leak the first claim, as a SIGKILLed claimant would.
        let abandoned = cache.try_claim(&k).expect("first claim wins");
        std::mem::forget(abandoned);
        std::thread::sleep(Duration::from_millis(20));
        let g = cache.try_claim(&k);
        assert!(g.is_some(), "an expired claim must not block forever");
        drop(g);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn disabled_and_write_only_caches_always_win_claims() {
        // No other process can observe their results, so there is
        // nothing to coordinate; both sides of a "race" may proceed.
        let disabled = CellCache::disabled();
        assert!(disabled.try_claim(&key(1)).is_some());
        assert!(disabled.try_claim(&key(1)).is_some());
        let dir = tmpdir("claimfresh");
        let fresh = CellCache::write_only(&dir);
        assert!(fresh.try_claim(&key(1)).is_some());
        assert!(fresh.try_claim(&key(1)).is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn wait_for_returns_the_entry_the_claim_holder_stores() {
        let dir = tmpdir("waitfor");
        let cache = CellCache::at(&dir);
        let k = key(1);
        let guard = cache.try_claim(&k).expect("claim wins");
        let publisher = {
            let dir = dir.clone();
            let k = k.clone();
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(40));
                CellCache::at(&dir).store(&k, &Json::Num(11.0));
                drop(guard); // release after the store, like run_cached
            })
        };
        let waiter = CellCache::at(&dir);
        assert_eq!(waiter.wait_for(&k), Some(Json::Num(11.0)));
        publisher.join().unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn wait_for_gives_up_when_the_claim_dies_without_an_entry() {
        let dir = tmpdir("waitdead");
        let cache = CellCache::at(&dir);
        let k = key(1);
        drop(cache.try_claim(&k).expect("claim wins")); // released, nothing stored
        assert!(cache.wait_for(&k).is_none(), "no claim + no entry = recompute");
        // An abandoned (never-released) claim expires via the TTL.
        let short = CellCache::at(&dir).claim_ttl(Duration::from_millis(30));
        std::mem::forget(short.try_claim(&k).expect("claim wins"));
        let t = std::time::Instant::now();
        assert!(short.wait_for(&k).is_none());
        assert!(t.elapsed() < Duration::from_secs(5), "expiry must bound the wait");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn digests_are_the_fnv1a_hex_of_the_key_text() {
        // The digest names the entry's file: it must stay what
        // `fnv1a_64_hex` gives for the key string, or entries written
        // before would no longer be found.
        for k in [
            key(1),
            CellKey::stats("{\"name\":\"p\"}", 2, 500),
            CellKey::simpoint("{\"name\":\"p\"}", 3, 900, "{\"k\":4}", "{\"btb\":1}", "{}"),
        ] {
            assert_eq!(k.digest(), zbp_support::hash::fnv1a_64_hex(k.as_str()), "{}", k.as_str());
        }
        assert_eq!(
            CellKey::stats("p", 1, 100).digest(),
            zbp_support::hash::fnv1a_64_hex("zbp-cell-v1|stats|profile=p|seed=1|len=100")
        );
    }

    #[test]
    fn keys_ignore_nothing_that_matters() {
        let a = CellKey::sim("p", 1, 100, "x", "y");
        for other in [
            CellKey::sim("q", 1, 100, "x", "y"),
            CellKey::sim("p", 2, 100, "x", "y"),
            CellKey::sim("p", 1, 101, "x", "y"),
            CellKey::sim("p", 1, 100, "z", "y"),
            CellKey::sim("p", 1, 100, "x", "z"),
            CellKey::stats("p", 1, 100),
        ] {
            assert_ne!(a, other);
            assert_ne!(a.digest(), other.digest());
        }
    }
}
