//! Multi-tenant model registry: lazy load, LRU eviction, hot reload.
//!
//! The registry maps building ids onto [`FittedModel`]s backed by a
//! model directory: the artifact for building `hq` lives at
//! `<dir>/hq.json` (exactly what `fis-one fit --out` writes). Models are
//! loaded lazily on first request and cached under a configurable budget:
//!
//! - **LRU eviction** — when loading a model would exceed
//!   [`RegistryConfig::max_models`] or [`RegistryConfig::max_bytes`]
//!   (artifact bytes on disk as the memory proxy), the least recently
//!   used other model is dropped first. The model being served is never
//!   evicted to make room for itself.
//! - **Hot reload** — every access re-stats the artifact; if its
//!   `(mtime, len)` changed since load, the model is reloaded before
//!   serving. Swapping a new artifact into the directory takes effect on
//!   the next request, no restart. [`FittedModel::save`] writes
//!   atomically (temp file + rename), so refitting over a live serving
//!   directory never exposes a half-written artifact; other writers
//!   should do the same.
//! - **Racy-clean verification** — a rewrite that keeps both mtime and
//!   byte length identical (possible within the filesystem's mtime
//!   granularity) is invisible to the stat fingerprint — the classic
//!   stat-cache race. Each entry therefore keeps the FNV-1a hash of its
//!   artifact bytes: while the artifact's mtime is close enough to the
//!   last verification that a same-fingerprint rewrite is possible
//!   (within [`MTIME_GRANULARITY`]), a fingerprint "hit" re-reads the
//!   file and compares hashes, reloading on mismatch. Once the mtime is
//!   safely older than a verification, hits go back to stat-only — the
//!   hash check self-retires, so steady-state serving never re-reads.
//!   Conversely, a fingerprint *change* with an unchanged hash (e.g. a
//!   `touch`) just refreshes the fingerprint instead of reloading, so
//!   answer caches survive metadata-only rewrites.
//! - **Deletion detection** — if the artifact vanished after load, the
//!   cached model is dropped and the request fails with a typed `model`
//!   error rather than serving from a file that no longer exists.
//!
//! Eviction history cannot change responses: artifacts load
//! byte-identically and [`FittedModel::assign`] is deterministic in
//! `(model, scan)` alone, so evict → reload → assign is bit-identical to
//! assign on the original load. `tests/serve_determinism.rs` enforces
//! this against the golden fixtures.
//!
//! # Assign answer cache
//!
//! With [`RegistryConfig::assign_cache`] > 0, every cached model carries
//! a bounded scan-content → floor answer cache, served through
//! [`SharedRegistry::assign_batch`]. The determinism contract is what
//! makes this *exact* rather than approximate: an assignment is a pure
//! function of `(model, scan content)` — the per-scan inference RNG is
//! seeded from content alone — so replaying a cached answer is
//! bit-identical to recomputing it.
//! Three design points keep that airtight:
//!
//! - **Collision-proof keys** — [`ScanKey`] hashes by the FNV-1a of the
//!   scan's readings but compares by the *full* content, so two scans
//!   that collide on the 64-bit hash can never alias each other's
//!   answers.
//! - **Per-entry lifetime** — the cache lives inside the registry
//!   `Entry` next to its model, so eviction, hot reload, and deletion
//!   detection drop it automatically: a cached answer can never outlive
//!   the exact artifact generation that produced it.
//! - **Bounded FIFO** — at most `assign_cache` answers per model,
//!   oldest-inserted dropped first (deterministic, no clock). Only
//!   successful answers are cached; errors are recomputed (and are
//!   deterministic anyway).
//!
//! Counters accumulate registry-lifetime in
//! [`RegistryStats::assign_cache`] (a [`fis_metrics::CacheCounters`])
//! and surface through the daemon's `stats` op.

use std::collections::{HashMap, VecDeque};
use std::hash::{Hash, Hasher};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::SystemTime;

use fis_core::{FisError, FittedModel};
use fis_metrics::CacheCounters;
use fis_obs::{self as obs, Level};
use fis_types::{FloorId, SignalSample};

use crate::error::ServeError;

/// Registry configuration.
#[derive(Debug, Clone)]
pub struct RegistryConfig {
    /// Directory holding `<building>.json` artifacts.
    pub dir: PathBuf,
    /// Maximum cached models (`0` = unlimited).
    pub max_models: usize,
    /// Maximum total artifact bytes cached (`0` = unlimited).
    pub max_bytes: u64,
    /// Per-model assign answer-cache capacity (`0` = cache disabled).
    pub assign_cache: usize,
}

impl RegistryConfig {
    /// A registry over `dir` with no cache budget and the answer cache
    /// disabled.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            max_models: 0,
            max_bytes: 0,
            assign_cache: 0,
        }
    }

    /// Caps the cached model count (`0` = unlimited).
    pub fn max_models(mut self, n: usize) -> Self {
        self.max_models = n;
        self
    }

    /// Caps the cached artifact bytes (`0` = unlimited).
    pub fn max_bytes(mut self, n: u64) -> Self {
        self.max_bytes = n;
        self
    }

    /// Sets the per-model assign answer-cache capacity (`0` = disabled).
    pub fn assign_cache(mut self, n: usize) -> Self {
        self.assign_cache = n;
        self
    }
}

/// Content identity of one scan for answer-cache keying.
///
/// Hashes by the 64-bit FNV-1a of the readings (cheap bucketing) but
/// compares by the full `(MAC, RSSI-bits)` sequence, so a hash collision
/// degrades to a cache miss — never to a wrong answer. The sample *id*
/// is deliberately excluded: the inference seed (`scan_seed`) is derived
/// from the readings alone, so two scans with identical readings receive
/// bit-identical answers regardless of id.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScanKey {
    fnv: u64,
    /// `(mac.to_u64(), rssi.dbm().to_bits())` per reading, in the
    /// sample's canonical (MAC-sorted) iteration order.
    readings: Arc<[(u64, u64)]>,
}

impl ScanKey {
    /// Derives the key from a scan's content.
    pub fn of(scan: &SignalSample) -> Self {
        const PRIME: u64 = 0x100_0000_01b3;
        let readings: Vec<(u64, u64)> = scan
            .iter()
            .map(|(mac, rssi)| (mac.to_u64(), rssi.dbm().to_bits()))
            .collect();
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for &(mac, rssi) in &readings {
            for b in mac.to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(PRIME);
            }
            for b in rssi.to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(PRIME);
            }
        }
        Self {
            fnv: h,
            readings: readings.into(),
        }
    }

    /// The FNV-1a content hash (the `Hash` value).
    pub fn fnv(&self) -> u64 {
        self.fnv
    }
}

impl Hash for ScanKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // The precomputed content hash alone; `Eq` still compares the
        // full readings, so colliding keys land in one bucket but never
        // alias.
        state.write_u64(self.fnv);
    }
}

/// A bounded FIFO scan-content → floor cache for one model generation.
/// See the [module docs](self) for why replaying answers is exact.
#[derive(Debug)]
pub struct AssignCache {
    capacity: usize,
    map: HashMap<ScanKey, FloorId>,
    /// Insertion order; the front is the next FIFO victim.
    order: VecDeque<ScanKey>,
}

impl AssignCache {
    /// An empty cache holding at most `capacity` answers (`0` = always
    /// empty).
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            map: HashMap::new(),
            order: VecDeque::new(),
        }
    }

    /// The capacity bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Cached answers right now.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether no answers are cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Looks up the answer for a scan key.
    pub fn get(&self, key: &ScanKey) -> Option<FloorId> {
        self.map.get(key).copied()
    }

    /// Stores an answer, evicting the oldest insertion if over capacity.
    /// Re-inserting a cached key is a no-op (the answer cannot differ).
    pub fn insert(&mut self, key: ScanKey, floor: FloorId, counters: &mut CacheCounters) {
        if self.capacity == 0 || self.map.contains_key(&key) {
            return;
        }
        self.map.insert(key.clone(), floor);
        self.order.push_back(key);
        counters.insertion();
        while self.map.len() > self.capacity {
            if let Some(victim) = self.order.pop_front() {
                self.map.remove(&victim);
                counters.eviction();
            }
        }
    }
}

/// Cache counters, exact over the registry's lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RegistryStats {
    /// Requests served from the cache.
    pub hits: u64,
    /// Requests that had to load from disk.
    pub misses: u64,
    /// Models dropped by the LRU budget or an explicit `evict`.
    pub evictions: u64,
    /// Models reloaded because the artifact changed on disk.
    pub reloads: u64,
    /// Loads that failed (missing, corrupt, or mismatched artifacts).
    pub load_failures: u64,
    /// Assign answer-cache counters, summed across all tenants.
    pub assign_cache: CacheCounters,
}

/// The coarsest artifact-mtime granularity the registry defends
/// against: a rewrite within this window of the last content
/// verification can leave the `(mtime, len)` fingerprint unchanged, so
/// fingerprint hits inside the window are re-verified by content hash.
pub const MTIME_GRANULARITY: std::time::Duration = std::time::Duration::from_secs(2);

#[derive(Debug)]
struct Entry {
    model: Arc<FittedModel>,
    /// Artifact size on disk: the byte-budget proxy, and — together
    /// with `mtime` — the change-detection fingerprint.
    bytes: u64,
    mtime: Option<SystemTime>,
    /// FNV-1a over the artifact bytes as loaded: the ground truth the
    /// fingerprint is only a proxy for.
    content_hash: u64,
    /// When the cached model was last proven to match the file content
    /// (load, reload, or an explicit hash check). A fingerprint hit is
    /// trusted without re-reading only once the artifact's mtime is at
    /// least [`MTIME_GRANULARITY`] older than this.
    verified_at: SystemTime,
    last_used: u64,
    /// Answers for exactly this model generation; dropped with the
    /// entry on evict/reload, so invalidation is structural.
    cache: AssignCache,
}

/// A cached, loaded model plus how it got there (for metrics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fetch {
    /// Served from the cache.
    Hit,
    /// Loaded from disk for the first time (or after an eviction).
    Miss,
    /// Reloaded because the artifact changed on disk.
    Reload,
}

/// The lazy, budgeted, hot-reloading model cache. See the
/// [module docs](self).
#[derive(Debug)]
pub struct ModelRegistry {
    config: RegistryConfig,
    entries: HashMap<String, Entry>,
    tick: u64,
    stats: RegistryStats,
}

impl ModelRegistry {
    /// Creates an empty registry over the configured model directory.
    pub fn new(config: RegistryConfig) -> Self {
        Self {
            config,
            entries: HashMap::new(),
            tick: 0,
            stats: RegistryStats::default(),
        }
    }

    /// The registry's configuration.
    pub fn config(&self) -> &RegistryConfig {
        &self.config
    }

    /// Lifetime cache counters.
    pub fn stats(&self) -> RegistryStats {
        self.stats
    }

    /// Number of models currently cached.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total artifact bytes currently cached.
    pub fn total_bytes(&self) -> u64 {
        self.entries.values().map(|e| e.bytes).sum()
    }

    /// The cached building ids with their artifact sizes, sorted by id
    /// (deterministic for the `stats` op).
    pub fn loaded(&self) -> Vec<(String, u64)> {
        let mut v: Vec<(String, u64)> = self
            .entries
            .iter()
            .map(|(k, e)| (k.clone(), e.bytes))
            .collect();
        v.sort();
        v
    }

    /// The artifact path for a building id.
    pub fn artifact_path(&self, building: &str) -> PathBuf {
        self.config.dir.join(format!("{building}.json"))
    }

    /// Fetches the model for `building`, loading/reloading as needed.
    /// Returns the model and whether this was a hit, miss, or reload.
    ///
    /// # Errors
    ///
    /// - [`ServeError::Protocol`] for ids that cannot name an artifact
    ///   (path separators, `.` / `..`),
    /// - [`ServeError::UnknownBuilding`] when no artifact exists,
    /// - [`ServeError::Model`] when the artifact vanished after load, is
    ///   corrupt, or was fitted for a different building id.
    pub fn get(&mut self, building: &str) -> Result<(Arc<FittedModel>, Fetch), ServeError> {
        validate_building_id(building)?;
        let path = self.artifact_path(building);
        let meta = match std::fs::metadata(&path) {
            Ok(m) => m,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Err(self.missing_artifact(building, &path))
            }
            Err(e) => {
                return Err(ServeError::Model(format!(
                    "stat {} failed: {e}",
                    path.display()
                )))
            }
        };
        let mtime = meta.modified().ok();
        let bytes = meta.len();

        self.tick += 1;
        // Stat-only fast path: the fingerprint matches AND the artifact
        // mtime is old enough that a same-fingerprint rewrite since the
        // last content verification is impossible.
        let fresh_hit = match self.entries.get(building) {
            Some(entry) if entry.mtime == mtime && entry.bytes == bytes => match mtime {
                Some(m) => m
                    .checked_add(MTIME_GRANULARITY)
                    .is_some_and(|edge| edge < entry.verified_at),
                // No readable mtime: the fingerprint is length alone,
                // too weak to ever trust without a hash check.
                None => false,
            },
            _ => false,
        };
        if fresh_hit {
            let entry = self.entries.get_mut(building).expect("checked fresh above");
            entry.last_used = self.tick;
            self.stats.hits += 1;
            return Ok((Arc::clone(&entry.model), Fetch::Hit));
        }

        // Anything else needs the file content: first load, changed
        // fingerprint, or a fingerprint hit still inside the racy
        // window. One read serves both the hash check and the parse.
        let cached = self.entries.contains_key(building);
        let text = match std::fs::read_to_string(&path) {
            Ok(text) => text,
            // Vanished between stat and read: same handling as a missing
            // artifact at stat time.
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Err(self.missing_artifact(building, &path))
            }
            Err(e) => {
                return Err(ServeError::Model(format!(
                    "read {} failed: {e}",
                    path.display()
                )))
            }
        };
        let content_hash = fnv1a(text.as_bytes());
        if let Some(entry) = self.entries.get_mut(building) {
            if entry.content_hash == content_hash {
                // Content unchanged — either a racy-window verification
                // or a metadata-only rewrite (e.g. touch). Refresh the
                // fingerprint and keep the model and its answer cache.
                entry.mtime = mtime;
                entry.bytes = bytes;
                entry.verified_at = SystemTime::now();
                entry.last_used = self.tick;
                self.stats.hits += 1;
                return Ok((Arc::clone(&entry.model), Fetch::Hit));
            }
        }

        // Cache miss, or the artifact content really changed (hot
        // reload — including a same-fingerprint rewrite the stat cache
        // alone would have missed). A failed reload drops the stale
        // entry — serving the old model after the artifact was replaced
        // would silently violate the hot-reload contract.
        let fetch = if cached { Fetch::Reload } else { Fetch::Miss };
        let model = match self.load_artifact(building, &path, &text) {
            Ok(model) => Arc::new(model),
            Err(e) => {
                if self.entries.remove(building).is_some() {
                    self.stats.evictions += 1;
                }
                return Err(e);
            }
        };
        match fetch {
            Fetch::Reload => self.stats.reloads += 1,
            _ => self.stats.misses += 1,
        }
        self.entries.insert(
            building.to_owned(),
            Entry {
                model: Arc::clone(&model),
                bytes,
                mtime,
                content_hash,
                verified_at: SystemTime::now(),
                last_used: self.tick,
                cache: AssignCache::new(self.config.assign_cache),
            },
        );
        self.enforce_budget(building);
        Ok((model, fetch))
    }

    /// Answers cached across all resident models right now.
    pub fn assign_cache_entries(&self) -> usize {
        self.entries.values().map(|e| e.cache.len()).sum()
    }

    /// Peeks the answer cache without touching the counters. Used by
    /// [`SharedRegistry`], which holds the registry lock only around the
    /// lookup and accounts for hits/misses itself.
    fn cached_answer(&self, building: &str, key: &ScanKey) -> Option<FloorId> {
        self.entries
            .get(building)
            .and_then(|entry| entry.cache.get(key))
    }

    /// The assign answer-cache counters, for [`SharedRegistry`], which
    /// replays and dedupes answers outside the registry.
    fn assign_counters_mut(&mut self) -> &mut CacheCounters {
        &mut self.stats.assign_cache
    }

    /// Stores an answer that was computed *outside* the registry lock —
    /// but only if the cached entry still holds exactly the model that
    /// produced it. If the entry was evicted or hot-reloaded in the
    /// meantime, the answer is silently dropped: caching it against a
    /// different model generation could serve a stale floor after the
    /// artifact changed.
    fn store_answer(
        &mut self,
        building: &str,
        model: &Arc<FittedModel>,
        key: ScanKey,
        floor: FloorId,
    ) {
        if let Some(entry) = self.entries.get_mut(building) {
            if Arc::ptr_eq(&entry.model, model) {
                entry.cache.insert(key, floor, &mut self.stats.assign_cache);
            }
        }
    }

    /// The error for a missing artifact. If the building was loaded
    /// earlier, its artifact was deleted since: the entry is dropped and
    /// the request fails loudly instead of serving a model whose backing
    /// file is gone. Otherwise the building is simply unknown.
    fn missing_artifact(&mut self, building: &str, path: &Path) -> ServeError {
        if self.entries.remove(building).is_some() {
            self.stats.evictions += 1;
            return ServeError::Model(format!(
                "artifact {} was deleted after load; evicted `{building}`",
                path.display()
            ));
        }
        ServeError::UnknownBuilding(format!(
            "no artifact for `{building}` (expected {})",
            path.display()
        ))
    }

    /// Drops a cached model; returns whether it was cached. The artifact
    /// stays on disk and the next request reloads it.
    pub fn evict(&mut self, building: &str) -> bool {
        let evicted = self.entries.remove(building).is_some();
        if evicted {
            self.stats.evictions += 1;
        }
        evicted
    }

    /// Parses an artifact from its already-read text (the caller reads
    /// the file once for both hashing and parsing) and validates the
    /// building-id pairing.
    fn load_artifact(
        &mut self,
        building: &str,
        path: &Path,
        text: &str,
    ) -> Result<FittedModel, ServeError> {
        let model = FittedModel::from_json_str(text.trim_end_matches('\n')).map_err(|e| {
            self.stats.load_failures += 1;
            ServeError::from(e)
        })?;
        if model.building() != building {
            self.stats.load_failures += 1;
            return Err(ServeError::Model(format!(
                "artifact {} was fitted for building `{}`, not `{building}`; \
                 registry files must be named after the building they serve",
                path.display(),
                model.building()
            )));
        }
        Ok(model)
    }

    /// Evicts least-recently-used models until the budget holds, never
    /// touching `keep` (the model being served right now).
    fn enforce_budget(&mut self, keep: &str) {
        loop {
            let over_count =
                self.config.max_models > 0 && self.entries.len() > self.config.max_models;
            let over_bytes =
                self.config.max_bytes > 0 && self.total_bytes() > self.config.max_bytes;
            if !over_count && !over_bytes {
                return;
            }
            let victim = self
                .entries
                .iter()
                .filter(|(k, _)| k.as_str() != keep)
                // Tie-break on the id so eviction order is deterministic
                // even if two entries share a tick (they cannot today).
                .min_by_key(|(k, e)| (e.last_used, (*k).clone()))
                .map(|(k, _)| k.clone());
            match victim {
                Some(k) => {
                    self.entries.remove(&k);
                    self.stats.evictions += 1;
                }
                // Only the active model is left; keep serving it even if
                // it alone exceeds the byte budget.
                None => return,
            }
        }
    }
}

/// A thread-safe handle over one [`ModelRegistry`], cheap to clone.
///
/// The registry itself stays single-threaded behind a mutex; what makes
/// this scale is that the lock is held only for *bookkeeping* — fetching
/// the `Arc<FittedModel>`, consulting the answer cache, storing results —
/// while the actual inference ([`FittedModel::assign_stream`]) always
/// runs **outside** the lock. Many connections can therefore label scans
/// concurrently against the same or different models; they serialize
/// only on cache lookups and disk loads.
///
/// Determinism is unaffected by any interleaving: an assignment is a
/// pure function of `(model, scan content)`, so the lock acquisition
/// order can reorder *when* answers are computed or cached, never *what*
/// they are. The one race that could matter — caching an answer after
/// the model it came from was hot-reloaded — is closed by a same-`Arc`
/// guard when the answer is stored.
#[derive(Debug, Clone)]
pub struct SharedRegistry {
    inner: Arc<std::sync::Mutex<ModelRegistry>>,
    /// Copied out of the (immutable) config so the hot path can check it
    /// without taking the lock.
    assign_cache: usize,
}

impl SharedRegistry {
    /// Wraps a fresh registry over the configured model directory.
    pub fn new(config: RegistryConfig) -> Self {
        let assign_cache = config.assign_cache;
        Self {
            inner: Arc::new(std::sync::Mutex::new(ModelRegistry::new(config))),
            assign_cache,
        }
    }

    /// Runs `f` under the registry lock. Keep the closure short — every
    /// connection serializes on this lock — and never run inference
    /// inside it.
    pub fn with<R>(&self, f: impl FnOnce(&mut ModelRegistry) -> R) -> R {
        let mut guard = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        f(&mut guard)
    }

    /// Fetches the model for `building` (see [`ModelRegistry::get`]).
    ///
    /// # Errors
    ///
    /// The [`ModelRegistry::get`] errors.
    pub fn get(&self, building: &str) -> Result<(Arc<FittedModel>, Fetch), ServeError> {
        let result = self.with(|reg| reg.get(building));
        // Recorded on the request thread, after the lock: cache hits at
        // trace, disk traffic at info, failures at warn — each event
        // inherits the enclosing request/assign span.
        match &result {
            Ok((_, Fetch::Hit)) => obs::event(Level::Trace, "registry", "load")
                .str("building", building)
                .str("fetch", "hit")
                .emit(),
            Ok((_, fetch)) => obs::event(Level::Info, "registry", "load")
                .str("building", building)
                .str(
                    "fetch",
                    match fetch {
                        Fetch::Reload => "reload",
                        _ => "miss",
                    },
                )
                .emit(),
            Err(e) => obs::event(Level::Warn, "registry", "load_error")
                .str("building", building)
                .str("kind", e.kind())
                .emit(),
        }
        result
    }

    /// Labels a batch through the answer cache, preserving
    /// [`FittedModel::assign_stream`] semantics: results in input order,
    /// per-scan failures in their slot. A content hit replays the stored
    /// floor (bit-identical to recomputing, see the [module docs](self));
    /// cached and in-batch-duplicate scans are counted as hits and skip
    /// recomputation; only the unique missing scans fan out over
    /// `threads` workers, outside the registry lock, so concurrent
    /// batches against different models overlap fully. Only successful
    /// answers are cached. With the cache disabled this is exactly
    /// [`SharedRegistry::get`] followed by `assign_stream`.
    ///
    /// # Errors
    ///
    /// Only the [`ModelRegistry::get`] errors; per-scan failures land in
    /// their result slot.
    #[allow(clippy::type_complexity)]
    pub fn assign_batch(
        &self,
        building: &str,
        scans: &[SignalSample],
        threads: usize,
    ) -> Result<Vec<Result<FloorId, FisError>>, ServeError> {
        if self.assign_cache == 0 {
            let (model, _) = self.get(building)?;
            return Ok(model.assign_stream(scans, threads));
        }
        let keys: Vec<ScanKey> = scans.iter().map(ScanKey::of).collect();
        let mut results: Vec<Option<Result<FloorId, FisError>>> = vec![None; scans.len()];
        let mut first_of: HashMap<&ScanKey, usize> = HashMap::new();
        let mut missing: Vec<usize> = Vec::new();
        // One lock hold for the whole lookup phase: model fetch plus the
        // per-scan cache peek (hits fill their slots, the first
        // occurrence of each missing content queues for compute).
        let model = self.with(|reg| -> Result<_, ServeError> {
            let (model, _) = reg.get(building)?;
            for (i, key) in keys.iter().enumerate() {
                if let Some(floor) = reg.cached_answer(building, key) {
                    reg.assign_counters_mut().hit();
                    results[i] = Some(Ok(floor));
                } else if first_of.contains_key(key) {
                    reg.assign_counters_mut().hit();
                } else {
                    reg.assign_counters_mut().miss();
                    first_of.insert(key, i);
                    missing.push(i);
                }
            }
            Ok(model)
        })?;
        obs::event(Level::Trace, "registry", "cache_lookup")
            .str("building", building)
            .num("scans", scans.len() as f64)
            .num("hits", (scans.len() - missing.len()) as f64)
            .num("computed", missing.len() as f64)
            .emit();
        let subset: Vec<SignalSample> = missing.iter().map(|&i| scans[i].clone()).collect();
        let computed = model.assign_stream(&subset, threads);
        self.with(|reg| {
            for (&i, result) in missing.iter().zip(&computed) {
                if let Ok(floor) = result {
                    reg.store_answer(building, &model, keys[i].clone(), *floor);
                }
            }
        });
        for (&i, result) in missing.iter().zip(computed) {
            results[i] = Some(result);
        }
        // In-batch duplicates replay the first occurrence's answer (same
        // content ⇒ same answer, ok or error); the first occurrence is
        // always at a lower index, so its slot is already filled.
        for i in 0..results.len() {
            if results[i].is_none() {
                let first = first_of[&keys[i]];
                results[i] = results[first].clone();
            }
        }
        Ok(results
            .into_iter()
            .map(|slot| slot.expect("every slot resolved"))
            .collect())
    }

    /// Drops a cached model (see [`ModelRegistry::evict`]).
    pub fn evict(&self, building: &str) -> bool {
        let evicted = self.with(|reg| reg.evict(building));
        obs::event(Level::Info, "registry", "evict")
            .str("building", building)
            .field("evicted", fis_types::json::Json::Bool(evicted))
            .emit();
        evicted
    }

    /// Lifetime cache counters.
    pub fn stats(&self) -> RegistryStats {
        self.with(|reg| reg.stats())
    }

    /// Number of models currently cached.
    pub fn len(&self) -> usize {
        self.with(|reg| reg.len())
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.with(|reg| reg.is_empty())
    }

    /// Answers cached across all resident models right now.
    pub fn assign_cache_entries(&self) -> usize {
        self.with(|reg| reg.assign_cache_entries())
    }
}

/// FNV-1a over a byte slice, used as the artifact content hash for
/// racy-clean verification (same constants as [`ScanKey`]'s reading
/// hash).
fn fnv1a(bytes: &[u8]) -> u64 {
    const PRIME: u64 = 0x100_0000_01b3;
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(PRIME);
    }
    h
}

fn validate_building_id(building: &str) -> Result<(), ServeError> {
    if building.is_empty()
        || building == "."
        || building == ".."
        || building.contains('/')
        || building.contains('\\')
        || building.contains('\0')
    {
        return Err(ServeError::Protocol(format!(
            "building id `{}` cannot name an artifact file",
            building.escape_default()
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use fis_core::{FisOne, FisOneConfig};
    use fis_synth::BuildingConfig;

    fn quick_model(name: &str, samples: usize, seed: u64) -> FittedModel {
        let b = BuildingConfig::new(name, 3)
            .samples_per_floor(samples)
            .aps_per_floor(8)
            .atrium_aps(0)
            .seed(seed)
            .generate();
        FisOne::new(FisOneConfig::quick(seed))
            .fit(
                b.name(),
                b.samples(),
                b.floors(),
                b.bottom_anchor().unwrap(),
            )
            .unwrap()
    }

    /// One scan through the batch path, which is how the daemon serves
    /// a single `assign`.
    fn batch_of_one(reg: &SharedRegistry, building: &str, scan: &SignalSample) -> FloorId {
        let mut results = reg
            .assign_batch(building, std::slice::from_ref(scan), 1)
            .unwrap();
        assert_eq!(results.len(), 1);
        results.pop().unwrap().unwrap()
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("fis_registry_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn lazy_load_then_hit() {
        let dir = temp_dir("lazy");
        let model = quick_model("alpha", 15, 1);
        model.save(dir.join("alpha.json")).unwrap();
        let mut reg = ModelRegistry::new(RegistryConfig::new(&dir));
        let (m1, f1) = reg.get("alpha").unwrap();
        assert_eq!(f1, Fetch::Miss);
        let (m2, f2) = reg.get("alpha").unwrap();
        assert_eq!(f2, Fetch::Hit);
        assert!(Arc::ptr_eq(&m1, &m2));
        assert_eq!(reg.stats().hits, 1);
        assert_eq!(reg.stats().misses, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unknown_building_is_typed() {
        let dir = temp_dir("unknown");
        let mut reg = ModelRegistry::new(RegistryConfig::new(&dir));
        let err = reg.get("ghost").unwrap_err();
        assert_eq!(err.kind(), "unknown_building");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn hostile_ids_are_rejected_before_touching_disk() {
        let dir = temp_dir("hostile");
        let mut reg = ModelRegistry::new(RegistryConfig::new(&dir));
        for id in ["", ".", "..", "../etc/passwd", "a/b", "a\\b", "nul\0"] {
            assert_eq!(reg.get(id).unwrap_err().kind(), "protocol", "id {id:?}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mismatched_artifact_name_is_model_error() {
        let dir = temp_dir("mismatch");
        quick_model("real-name", 15, 2)
            .save(dir.join("wrong-name.json"))
            .unwrap();
        let mut reg = ModelRegistry::new(RegistryConfig::new(&dir));
        let err = reg.get("wrong-name").unwrap_err();
        assert_eq!(err.kind(), "model");
        assert!(err.message().contains("real-name"));
        assert_eq!(reg.stats().load_failures, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_artifact_is_model_error() {
        let dir = temp_dir("corrupt");
        std::fs::write(dir.join("bad.json"), "{\"schema\": \"nope\"").unwrap();
        let mut reg = ModelRegistry::new(RegistryConfig::new(&dir));
        assert_eq!(reg.get("bad").unwrap_err().kind(), "model");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn deleted_artifact_evicts_and_errors() {
        let dir = temp_dir("deleted");
        let path = dir.join("gone.json");
        quick_model("gone", 15, 3).save(&path).unwrap();
        let mut reg = ModelRegistry::new(RegistryConfig::new(&dir));
        reg.get("gone").unwrap();
        std::fs::remove_file(&path).unwrap();
        let err = reg.get("gone").unwrap_err();
        assert_eq!(err.kind(), "model");
        assert!(err.message().contains("deleted"));
        assert_eq!(reg.len(), 0);
        // A later request (still missing) is a plain unknown building.
        assert_eq!(reg.get("gone").unwrap_err().kind(), "unknown_building");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn lru_eviction_under_model_budget() {
        let dir = temp_dir("lru");
        for (name, seed) in [("a", 4), ("b", 5), ("c", 6)] {
            quick_model(name, 15, seed)
                .save(dir.join(format!("{name}.json")))
                .unwrap();
        }
        let mut reg = ModelRegistry::new(RegistryConfig::new(&dir).max_models(2));
        reg.get("a").unwrap();
        reg.get("b").unwrap();
        reg.get("a").unwrap(); // a is now more recent than b
        reg.get("c").unwrap(); // evicts b (LRU)
        let loaded: Vec<String> = reg.loaded().into_iter().map(|(k, _)| k).collect();
        assert_eq!(loaded, ["a", "c"]);
        assert_eq!(reg.stats().evictions, 1);
        // b reloads on demand — a fresh miss, identical model.
        let (_, fetch) = reg.get("b").unwrap();
        assert_eq!(fetch, Fetch::Miss);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn byte_budget_never_evicts_the_active_model() {
        let dir = temp_dir("bytes");
        quick_model("solo", 15, 7)
            .save(dir.join("solo.json"))
            .unwrap();
        // 1-byte budget: the lone active model still serves.
        let mut reg = ModelRegistry::new(RegistryConfig::new(&dir).max_bytes(1));
        let (model, _) = reg.get("solo").unwrap();
        assert_eq!(model.building(), "solo");
        assert_eq!(reg.len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn hot_reload_on_artifact_change() {
        let dir = temp_dir("reload");
        let path = dir.join("hot.json");
        quick_model("hot", 15, 8).save(&path).unwrap();
        let mut reg = ModelRegistry::new(RegistryConfig::new(&dir));
        let (old, _) = reg.get("hot").unwrap();
        // Replace with a differently sized artifact (more scans), so the
        // (mtime, len) check trips even on coarse-mtime filesystems.
        quick_model("hot", 20, 9).save(&path).unwrap();
        let (new, fetch) = reg.get("hot").unwrap();
        assert_eq!(fetch, Fetch::Reload);
        assert_eq!(reg.stats().reloads, 1);
        assert_ne!(old.samples().len(), new.samples().len());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn same_length_same_mtime_rewrite_is_caught_by_content_hash() {
        let dir = temp_dir("racy");
        let path = dir.join("racy.json");
        quick_model("racy", 15, 30).save(&path).unwrap();
        let mut reg = ModelRegistry::new(RegistryConfig::new(&dir));
        reg.get("racy").unwrap();
        let mtime = std::fs::metadata(&path).unwrap().modified().unwrap();
        // Rewrite with identical byte length, then pin the mtime back to
        // the original — the same fingerprint a same-tick rewrite leaves
        // on a coarse-mtime filesystem. The stale stat cache used to
        // serve the old model here; the content hash must notice.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[0] = b'X';
        std::fs::write(&path, &bytes).unwrap();
        std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap()
            .set_modified(mtime)
            .unwrap();
        let err = reg.get("racy").unwrap_err();
        assert_eq!(
            err.kind(),
            "model",
            "a same-fingerprint rewrite must never serve the stale model"
        );
        assert_eq!(reg.stats().load_failures, 1);
        assert_eq!(reg.len(), 0, "the stale entry was dropped");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn metadata_only_rewrite_keeps_model_and_answer_cache() {
        let dir = temp_dir("touch");
        let path = dir.join("touch.json");
        let model = quick_model("touch", 15, 31);
        model.save(&path).unwrap();
        let reg = SharedRegistry::new(RegistryConfig::new(&dir).assign_cache(8));
        let scan = model.samples()[0].clone();
        batch_of_one(&reg, "touch", &scan);
        assert_eq!(reg.assign_cache_entries(), 1);
        // A fingerprint change with identical content (a `touch`) must
        // refresh the fingerprint, not reload: the answer cache and the
        // loaded generation survive.
        std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap()
            .set_modified(SystemTime::now() - std::time::Duration::from_secs(30))
            .unwrap();
        let (_, fetch) = reg.get("touch").unwrap();
        assert_eq!(fetch, Fetch::Hit);
        assert_eq!(reg.stats().reloads, 0);
        assert_eq!(reg.assign_cache_entries(), 1, "answer cache survived");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn scan_key_ignores_id_but_not_content() {
        let model = quick_model("keys", 15, 20);
        let scan = &model.samples()[0];
        let twin = {
            let mut b = fis_types::SignalSample::builder(9999);
            for (mac, rssi) in scan.iter() {
                b = b.reading(mac, rssi);
            }
            b.build()
        };
        assert_eq!(
            ScanKey::of(scan),
            ScanKey::of(&twin),
            "identical readings under a different id must share a key"
        );
        assert_ne!(ScanKey::of(scan), ScanKey::of(&model.samples()[1]));
    }

    #[test]
    fn answer_cache_replays_hits_identically() {
        let dir = temp_dir("ans_hit");
        let model = quick_model("hits", 15, 21);
        model.save(dir.join("hits.json")).unwrap();
        let reg = SharedRegistry::new(RegistryConfig::new(&dir).assign_cache(64));
        let scan = model.samples()[0].clone();
        let direct = model.assign(&scan).unwrap();
        let first = batch_of_one(&reg, "hits", &scan);
        let second = batch_of_one(&reg, "hits", &scan);
        assert_eq!(first, direct);
        assert_eq!(second, direct);
        let c = reg.stats().assign_cache;
        assert_eq!((c.hits, c.misses, c.insertions), (1, 1, 1));
        assert_eq!(reg.assign_cache_entries(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn answer_cache_capacity_zero_disables_caching() {
        let dir = temp_dir("ans_zero");
        let model = quick_model("zero", 15, 22);
        model.save(dir.join("zero.json")).unwrap();
        let reg = SharedRegistry::new(RegistryConfig::new(&dir));
        let scan = model.samples()[0].clone();
        for _ in 0..3 {
            assert_eq!(
                batch_of_one(&reg, "zero", &scan),
                model.assign(&scan).unwrap()
            );
        }
        assert_eq!(reg.stats().assign_cache, CacheCounters::default());
        assert_eq!(reg.assign_cache_entries(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn answer_cache_fifo_eviction_at_capacity_one() {
        let dir = temp_dir("ans_fifo");
        let model = quick_model("fifo", 15, 23);
        model.save(dir.join("fifo.json")).unwrap();
        let reg = SharedRegistry::new(RegistryConfig::new(&dir).assign_cache(1));
        let a = model.samples()[0].clone();
        let b = model.samples()[1].clone();
        // a miss, b miss (evicts a), a miss (evicts b), a hit.
        batch_of_one(&reg, "fifo", &a);
        batch_of_one(&reg, "fifo", &b);
        batch_of_one(&reg, "fifo", &a);
        batch_of_one(&reg, "fifo", &a);
        let c = reg.stats().assign_cache;
        assert_eq!((c.hits, c.misses), (1, 3));
        assert_eq!((c.insertions, c.evictions), (3, 2));
        assert_eq!(reg.assign_cache_entries(), 1);
        // Every answer — cached or not — matches the direct path.
        assert_eq!(batch_of_one(&reg, "fifo", &b), model.assign(&b).unwrap());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn answer_cache_dropped_on_evict_and_reload() {
        let dir = temp_dir("ans_inval");
        let path = dir.join("inv.json");
        let model = quick_model("inv", 15, 24);
        model.save(&path).unwrap();
        let reg = SharedRegistry::new(RegistryConfig::new(&dir).assign_cache(64));
        let scan = model.samples()[0].clone();
        batch_of_one(&reg, "inv", &scan);
        assert_eq!(reg.assign_cache_entries(), 1);
        // Explicit evict drops the answers with the model.
        reg.evict("inv");
        assert_eq!(reg.assign_cache_entries(), 0);
        batch_of_one(&reg, "inv", &scan);
        assert_eq!(
            reg.stats().assign_cache.misses,
            2,
            "evict forced a recompute"
        );
        // Hot reload (differently sized artifact) drops them too.
        quick_model("inv", 20, 25).save(&path).unwrap();
        let (_, fetch) = reg.get("inv").unwrap();
        assert_eq!(fetch, Fetch::Reload);
        assert_eq!(reg.assign_cache_entries(), 0, "reload kept stale answers");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn assign_batch_dedupes_and_matches_uncached_fanout() {
        let dir = temp_dir("ans_batch");
        let model = quick_model("batch", 15, 26);
        model.save(dir.join("batch.json")).unwrap();
        let reg = SharedRegistry::new(RegistryConfig::new(&dir).assign_cache(64));
        // Batch with an in-batch duplicate and an alien (error) scan.
        let alien = fis_types::SignalSample::builder(777)
            .reading(
                fis_types::MacAddr::from_u64(0xFFFF_FFFF_FF02),
                fis_types::Rssi::new(-44.0).unwrap(),
            )
            .build();
        let scans = vec![
            model.samples()[0].clone(),
            model.samples()[1].clone(),
            model.samples()[0].clone(), // duplicate of slot 0
            alien,
        ];
        let cached = reg.assign_batch("batch", &scans, 2).unwrap();
        let uncached = model.assign_stream(&scans, 2);
        assert_eq!(cached.len(), uncached.len());
        for (c, u) in cached.iter().zip(&uncached) {
            match (c, u) {
                (Ok(a), Ok(b)) => assert_eq!(a, b),
                (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string()),
                other => panic!("outcomes diverged: {other:?}"),
            }
        }
        let c = reg.stats().assign_cache;
        assert_eq!(c.hits, 1, "the in-batch duplicate is a hit");
        assert_eq!(c.misses, 3);
        assert_eq!(c.insertions, 2, "the error answer is not cached");
        // Replaying the whole batch is now all hits except the error.
        let replay = reg.assign_batch("batch", &scans, 2).unwrap();
        for (r, u) in replay.iter().zip(&uncached) {
            assert_eq!(r.is_ok(), u.is_ok());
        }
        assert_eq!(reg.stats().assign_cache.hits, 1 + 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn evict_then_reload_is_bit_identical() {
        let dir = temp_dir("roundtrip");
        quick_model("rt", 15, 10).save(dir.join("rt.json")).unwrap();
        let mut reg = ModelRegistry::new(RegistryConfig::new(&dir));
        let (first, _) = reg.get("rt").unwrap();
        assert!(reg.evict("rt"));
        assert!(!reg.evict("rt"));
        let (second, fetch) = reg.get("rt").unwrap();
        assert_eq!(fetch, Fetch::Miss);
        assert_eq!(first.to_json_string(), second.to_json_string());
        std::fs::remove_dir_all(&dir).ok();
    }
}
