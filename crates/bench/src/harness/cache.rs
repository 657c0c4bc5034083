//! The run store: [`RunCache`], the one persistent memo of sweep cells.
//!
//! It plays two roles. Opened with a capacity, it is the
//! content-addressed cross-sweep cache behind `Sweep::with_cache` /
//! `sigma_cli --cache`: heavy DSE traffic repeats the same cells across
//! sweeps and CLI invocations, and the cache answers a repeated cell in
//! one map lookup instead of a simulation — the Benes `RouteCache` idea
//! lifted to whole-run granularity. Opened with an unbounded capacity,
//! it is the write-ahead journal behind
//! [`Sweep::resume`](crate::harness::Sweep::resume), which memoizes every
//! cell of one sweep, whatever its status, so a killed sweep resumes
//! where it stopped.
//!
//! # Keying
//!
//! Cells are addressed by [`CellKey`], a versioned canonical string over
//! the *full* cell identity — key-layout revision, [`RECORD_SCHEMA`],
//! engine slug, [`Engine::fingerprint`] (every result-affecting
//! `SigmaConfig` knob), the fault plan, workload name + shape + exact
//! density bit patterns, and the materialized seed — digested to 128
//! bits as two independently-salted FNV-1a 64 halves (hand-rolled, and
//! deliberately *not* `std::collections`' `RandomState`, which the D1
//! determinism lints ban). The digest indexes an in-memory `BTreeMap`;
//! the canonical string is stored *alongside* every entry and compared
//! on hit, so an FNV collision degrades to a miss, never a silently
//! aliased record.
//!
//! # Line format and crash model
//!
//! Every inserted cell is appended as one canonical JSON line,
//! `{"schema": 3, "key": "<32 hex>", "cell": "<canonical>", "sum":
//! "<16 hex>", "record": {…}}`, where `sum` is the FNV-1a 64 digest of
//! the rendered record, and fsynced before the insert returns.
//!
//! * **Appends** are followed by `sync_data`, so a SIGKILL can lose at
//!   most the line being written — which then survives as a *truncated
//!   final line*, skipped with a warning; every earlier line is durable.
//! * **Replay** rebuilds each line's key digest from its stored `cell`,
//!   its record digest from the parsed record, and the whole line from
//!   both; a line that differs in any of them, that does not parse, that
//!   repeats an earlier key, or that carries another schema is skipped
//!   with one warning, and its cell simply runs again. One bad line never
//!   poisons the rest of the store.
//! * **Compaction** rewrites the whole store to exactly the resident
//!   entries through a sibling temp file, fsyncs it, and atomically
//!   renames it over the store ([`write_atomic`]) — a crash mid-compaction
//!   leaves either the old or the new file, never a torn one. This is the
//!   only non-append write path, and the sigma-lint D6 rule holds the
//!   harness to it.
//!
//! # Coalescing
//!
//! Concurrent requests for the same key are deduplicated: the first
//! caller's [`Lookup::Miss`] lease makes it the executor, and later
//! callers block on a condvar until the lease is fulfilled (they wake to
//! a hit, counted separately as *coalesced*) or abandoned (one waiter
//! inherits the lease). Identical in-flight cells execute exactly once.
//!
//! # Eviction
//!
//! The index is capped: inserting beyond `capacity` evicts the
//! least-recently-used entry (a generation counter bumped on every hit),
//! and once a capacity's worth of appends has landed the store is
//! compacted, bounding the file to ~2x capacity lines. An unbounded
//! store never evicts and never compacts on its own.
//!
//! [`Engine::fingerprint`]: sigma_core::Engine::fingerprint
//! [`RECORD_SCHEMA`]: crate::harness::record::RECORD_SCHEMA

use crate::harness::record::{RunRecord, RECORD_SCHEMA};
use crate::harness::sweep::WorkloadSpec;
use sigma_core::{Engine, FaultPlan};
use sigma_telemetry::json::{self, quote, Json};
use sigma_telemetry::{FlightRecorder, Stage};
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::{Condvar, Mutex, MutexGuard};

/// Revision of the [`CellKey`] canonical layout itself. Bumping it (when
/// a segment is added, removed, or re-rendered) changes every key, so
/// entries written by older layouts can never replay as hits.
pub const CELL_KEY_REVISION: u32 = 1;

/// Version stamped into every store line; replay skips other versions
/// with a `stale schema` warning and their cells run again.
///
/// v2 widened the key to 128 bits and added the stored `"cell"`
/// canonical identity; v3 added the `"sum"` record digest, without which
/// a flipped digit inside a record replayed as a wrong row.
pub const STORE_SCHEMA: u32 = 3;

/// Salt prefixed to the canonical string for the low digest half, so the
/// two FNV-1a 64 halves of the 128-bit key are independent functions.
const LO_DIGEST_SALT: &str = "sigma-cellkey-lo|";

/// FNV-1a 64-bit over `bytes` — deterministic across platforms and runs.
#[must_use]
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Atomically replaces the file at `path` with `bytes`: write a
/// `.tmp`-suffixed sibling, fsync it, rename it over `path`, then
/// best-effort fsync the parent directory so the rename itself is
/// durable. A crash at any point leaves either the old file or the new
/// one, never a torn mix — this is the one non-append write primitive
/// the sigma-lint D6 rule holds harness persistence code to, shared by
/// store compaction, figure CSV/JSON emission, and the flight
/// recorder's event log.
///
/// # Errors
///
/// Propagates the I/O error when the temp write or rename fails.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let mut tmp_name = path.as_os_str().to_os_string();
    tmp_name.push(".tmp");
    let tmp = PathBuf::from(tmp_name);
    {
        let mut tmp_file = File::create(&tmp)?;
        tmp_file.write_all(bytes)?;
        tmp_file.sync_data()?;
    }
    std::fs::rename(&tmp, path)?;
    if let Some(parent) = path.parent() {
        if let Ok(dir) = File::open(parent) {
            let _ = dir.sync_all();
        }
    }
    Ok(())
}

/// The full content identity of one sweep cell, canonicalized and
/// digested.
///
/// Equality (and store hits) compare the *canonical string*, not the
/// digest — the digest only indexes. See the module docs for what the
/// canonical string covers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellKey {
    hi: u64,
    lo: u64,
    canonical: String,
}

impl CellKey {
    /// Keys one cell: `engine_slug` is the grid coordinate (two slugs
    /// may front identical engines and must still key apart — the
    /// record's `engine_slug` column differs), `fingerprint` is the
    /// engine's [`fingerprint`](sigma_core::Engine::fingerprint), and
    /// `seed` is the workload's *materialized* seed (already derived
    /// from the sweep seed and workload index).
    #[must_use]
    pub fn new(engine_slug: &str, fingerprint: &str, workload: &WorkloadSpec, seed: u64) -> Self {
        Self::with_faults(engine_slug, fingerprint, &FaultPlan::none(), workload, seed)
    }

    /// [`CellKey::new`] with an explicit fault plan folded into the
    /// identity (sweeps inject no faults, so [`CellKey::new`] uses the
    /// empty plan; fault campaigns that memoize must key their plans).
    #[must_use]
    pub fn with_faults(
        engine_slug: &str,
        fingerprint: &str,
        faults: &FaultPlan,
        workload: &WorkloadSpec,
        seed: u64,
    ) -> Self {
        let p = &workload.problem;
        let canonical = format!(
            "k{CELL_KEY_REVISION}|rec{RECORD_SCHEMA}|{engine_slug}|{fingerprint}|{}|{}|{}x{}x{}|da={:016x}|db={:016x}|seed={seed:016x}",
            faults.canonical_key(),
            workload.name,
            p.shape.m,
            p.shape.n,
            p.shape.k,
            p.density_a.to_bits(),
            p.density_b.to_bits(),
        );
        Self::from_canonical(canonical)
    }

    /// Convenience for harness call sites holding an engine: keys the
    /// cell with the engine's own fingerprint and no faults.
    #[must_use]
    pub fn for_engine(
        engine_slug: &str,
        engine: &dyn Engine,
        workload: &WorkloadSpec,
        seed: u64,
    ) -> Self {
        Self::new(engine_slug, &engine.fingerprint(), workload, seed)
    }

    /// Rebuilds a key from a canonical string (store replay); the digest
    /// is always recomputed, never trusted from disk.
    #[must_use]
    pub fn from_canonical(canonical: String) -> Self {
        let hi = fnv1a_64(canonical.as_bytes());
        let lo = fnv1a_64(format!("{LO_DIGEST_SALT}{canonical}").as_bytes());
        Self { hi, lo, canonical }
    }

    /// The canonical identity string.
    #[must_use]
    pub fn canonical(&self) -> &str {
        &self.canonical
    }

    /// The 128-bit digest as an ordered pair (index key).
    #[must_use]
    pub fn digest(&self) -> (u64, u64) {
        (self.hi, self.lo)
    }

    /// The digest as 32 lowercase hex digits (the on-disk `"key"` field).
    #[must_use]
    pub fn hex(&self) -> String {
        format!("{:016x}{:016x}", self.hi, self.lo)
    }
}

/// Renders one store line, without its newline, from a key and the
/// record's [`RunRecord::to_json`] text.
fn render_line(key: &CellKey, record_json: &str) -> String {
    format!(
        "{{\"schema\": {STORE_SCHEMA}, \"key\": \"{}\", \"cell\": {}, \"sum\": \"{:016x}\", \"record\": {record_json}}}",
        key.hex(),
        quote(key.canonical()),
        fnv1a_64(record_json.as_bytes())
    )
}

/// Outcome of parsing one syntactically valid store line.
enum Parsed {
    /// A current-schema entry.
    Entry(CellKey, Box<RunRecord>),
    /// A line from a different schema version — its layout may not match
    /// ours, so it is reported without attempting to read it.
    StaleSchema(u32),
}

/// Parses and verifies one store line: the key digest must match the
/// stored canonical identity, the record digest the parsed record, and
/// the line must be exactly what [`render_line`] writes for both — so
/// any damaged byte is corruption, never an entry.
fn parse_line(line: &str) -> Result<Parsed, String> {
    let value = json::parse(line)?;
    let schema =
        value.get("schema").and_then(Json::number::<u32>).ok_or("schema is not an integer")?;
    if schema != STORE_SCHEMA {
        return Ok(Parsed::StaleSchema(schema));
    }
    let text = |name: &str| {
        value.get(name).and_then(Json::as_str).ok_or_else(|| format!("{name} is not a string"))
    };
    let stored_hex = text("key")?;
    let key = CellKey::from_canonical(text("cell")?.to_string());
    if key.hex() != stored_hex {
        return Err(format!(
            "key {stored_hex} does not match the digest of the stored cell identity"
        ));
    }
    let record = RunRecord::from_json(value.get("record").ok_or("missing field \"record\"")?)?;
    let record_json = record.to_json();
    if text("sum")? != format!("{:016x}", fnv1a_64(record_json.as_bytes())) {
        return Err(format!("record digest mismatch for key {stored_hex}"));
    }
    if render_line(&key, &record_json) != line {
        return Err("line is not in canonical form".to_string());
    }
    Ok(Parsed::Entry(key, Box::new(record)))
}

/// Observable cache traffic since the cache was opened (monotonic; the
/// loaded-entry count is a level, not a counter).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the index.
    pub hits: u64,
    /// Lookups that leased execution to the caller.
    pub misses: u64,
    /// Lookups that blocked on an in-flight duplicate and woke to its
    /// result (counted instead of, not in addition to, `hits`).
    pub coalesced: u64,
    /// Entries evicted to stay within capacity.
    pub evictions: u64,
    /// Completed cells appended to the store by this process.
    pub insertions: u64,
    /// Entries currently resident in the index.
    pub entries: u64,
}

/// One resident cache entry.
#[derive(Debug)]
struct Slot {
    key: CellKey,
    record: RunRecord,
    /// Generation stamp of the last hit/insert; smallest evicts first.
    last_used: u64,
}

/// Digest-indexed entries; the key inside each slot carries the
/// authoritative canonical identity.
type Index = BTreeMap<(u64, u64), Slot>;

/// Replays store text, oldest line first, into an index whose
/// generation stamps follow file order. The first occurrence of each key
/// wins; every other non-blank line leaves exactly one warning.
fn replay(text: &str) -> (Index, Vec<String>) {
    let mut index = Index::new();
    let mut warnings = Vec::new();
    let lines: Vec<&str> = text.split('\n').collect();
    for (i, line) in lines.iter().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        // Only the final fragment can lack its newline: a torn append.
        let torn = i + 1 == lines.len();
        let warning = match parse_line(line) {
            Ok(Parsed::Entry(key, record)) => {
                let last_used = index.len() as u64 + 1;
                match index.entry(key.digest()) {
                    Entry::Vacant(slot) => {
                        slot.insert(Slot { key, record: *record, last_used });
                        continue;
                    }
                    Entry::Occupied(held) if held.get().key == key => {
                        format!("duplicate key {}; keeping the first occurrence", key.hex())
                    }
                    Entry::Occupied(_) => {
                        format!("digest collision on {}; keeping the first occurrence", key.hex())
                    }
                }
            }
            Ok(Parsed::StaleSchema(schema)) => {
                format!("stale schema version {schema} (want {STORE_SCHEMA}); skipped")
            }
            Err(_) if torn => "truncated final line (crash mid-append); skipped".to_string(),
            Err(why) => format!("{why}; skipped"),
        };
        warnings.push(format!("store line {}: {warning}", i + 1));
    }
    (index, warnings)
}

#[derive(Debug)]
struct CacheState {
    index: Index,
    /// Digests currently leased to an executor.
    pending: BTreeMap<(u64, u64), ()>,
    generation: u64,
    stats: CacheStats,
}

/// The durable half of the cache, behind its own mutex (the designated
/// I/O lock, registered in sigma-lint's `D8_IO_LOCK_ALLOWLIST`): the
/// fsynced append and the compaction serialize here, so no disk wait
/// ever happens under the index lock and coalesced waiters wake as soon
/// as the in-memory insert lands.
///
/// Lock order: `store` may take `state` briefly (compaction snapshots
/// the resident index); `state` never takes `store`.
#[derive(Debug)]
struct StoreState {
    file: File,
    appends_since_compaction: u64,
    io_warnings: Vec<String>,
}

/// A persistent, capacity-bounded, coalescing result store. See the
/// module docs; share one instance across sweeps via `Arc`.
#[derive(Debug)]
pub struct RunCache {
    state: Mutex<CacheState>,
    store: Mutex<StoreState>,
    cond: Condvar,
    capacity: usize,
    path: PathBuf,
    load_warnings: Vec<String>,
    recorder: FlightRecorder,
}

/// What [`RunCache::lookup`] resolved to.
#[derive(Debug)]
pub enum Lookup<'a> {
    /// The cell is cached (or an in-flight duplicate just completed);
    /// here is its record.
    Hit(Box<RunRecord>),
    /// The cell is absent and *this caller* holds the execution lease:
    /// run the cell and [`fulfill`](CellLease::fulfill) the lease (or
    /// drop it to let a waiting duplicate take over).
    Miss(CellLease<'a>),
}

/// An execution lease on one absent cell. Exactly one lease per key
/// exists at a time; concurrent lookups for the same key block until the
/// holder fulfills (they wake to a hit) or drops it (one waiter inherits
/// the lease).
#[derive(Debug)]
pub struct CellLease<'a> {
    cache: &'a RunCache,
    key: CellKey,
    fulfilled: bool,
}

impl CellLease<'_> {
    /// The key this lease is for.
    #[must_use]
    pub fn key(&self) -> &CellKey {
        &self.key
    }

    /// Publishes the executed cell: inserts it into the index, wakes
    /// every coalesced waiter, then appends it durably to the store —
    /// the line is fsynced before this returns.
    ///
    /// An I/O failure on the append degrades to a warning (see
    /// [`RunCache::warnings`]): the entry still serves from memory for
    /// this process, it just won't survive a restart.
    pub fn fulfill(mut self, record: &RunRecord) {
        self.fulfilled = true;
        self.cache.insert(&self.key, record);
    }
}

impl Drop for CellLease<'_> {
    fn drop(&mut self) {
        if !self.fulfilled {
            let mut state = self.cache.lock();
            state.pending.remove(&self.key.digest());
            drop(state);
            self.cache.cond.notify_all();
        }
    }
}

impl RunCache {
    /// Opens (or creates) the store persisted at `path`, holding at most
    /// `capacity` entries (clamped to at least 1; `usize::MAX` never
    /// evicts). Corrupt store content never errors: damaged lines are
    /// skipped into [`RunCache::warnings`] and their cells simply miss.
    /// When the store holds more than `capacity` entries, the oldest
    /// (earliest-written) are dropped.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors opening the store file (a *missing* file is
    /// a fresh store, not an error).
    pub fn open(path: &Path, capacity: usize) -> std::io::Result<Self> {
        let capacity = capacity.max(1);
        let raw = match std::fs::read(path) {
            Ok(raw) => raw,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e),
        };
        // Invalid UTF-8 (binary garbage) must degrade per line, not fail
        // the whole replay: convert lossily.
        let text = String::from_utf8_lossy(&raw);
        let (mut index, warnings) = replay(&text);
        let generation = index.len() as u64;
        while index.len() > capacity {
            if let Some(oldest) = min_generation_digest(&index) {
                index.remove(&oldest);
            }
        }
        let entries = index.len() as u64;
        let mut file = OpenOptions::new().create(true).append(true).open(path)?;
        if !text.is_empty() && !text.ends_with('\n') {
            // Close a torn tail, so the next append starts a line of its
            // own instead of extending the damaged one.
            file.write_all(b"\n")?;
        }
        Ok(Self {
            state: Mutex::new(CacheState {
                index,
                pending: BTreeMap::new(),
                generation,
                stats: CacheStats { entries, ..CacheStats::default() },
            }),
            store: Mutex::new(StoreState {
                file,
                appends_since_compaction: 0,
                io_warnings: Vec::new(),
            }),
            cond: Condvar::new(),
            capacity,
            path: path.to_path_buf(),
            load_warnings: warnings,
            recorder: FlightRecorder::off(),
        })
    }

    /// Attaches a flight recorder (builder-style, before sharing the
    /// cache via `Arc`): every [`RunCache::lookup`] lands a
    /// [`Stage::CacheProbe`] span (labelled hit / miss / coalesced, and
    /// covering any in-flight coalescing wait), every insert a
    /// [`Stage::CacheInsert`] span, and within it the durable append and
    /// its fsync [`Stage::JournalAppend`] / [`Stage::JournalFsync`] spans.
    #[must_use]
    pub fn with_flight_recorder(mut self, recorder: FlightRecorder) -> Self {
        self.recorder = recorder;
        self
    }

    /// The store path.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The entry capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Warnings accumulated loading the store plus any append/compaction
    /// I/O failures since (each degrades durability, never correctness).
    #[must_use]
    pub fn warnings(&self) -> Vec<String> {
        let store = self.lock_store();
        let mut all = self.load_warnings.clone();
        all.extend(store.io_warnings.iter().cloned());
        all
    }

    /// A snapshot of the traffic counters.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.lock().stats
    }

    /// Resolves `key`: a verified hit returns the record; an absent key
    /// returns the execution lease; an in-flight key blocks until its
    /// executor finishes. See [`Lookup`].
    #[must_use]
    pub fn lookup(&self, key: &CellKey) -> Lookup<'_> {
        let t0 = self.recorder.now_us();
        let digest = key.digest();
        let mut state = self.lock();
        let mut waited = false;
        loop {
            state.generation += 1;
            let generation = state.generation;
            if let Some(slot) = state.index.get_mut(&digest) {
                // The canonical comparison is the hit condition; a digest
                // collision (different canonical) falls through as a miss
                // and can never alias.
                if slot.key.canonical == key.canonical {
                    slot.last_used = generation;
                    let record = Box::new(slot.record.clone());
                    if waited {
                        state.stats.coalesced += 1;
                    } else {
                        state.stats.hits += 1;
                    }
                    let label = if waited { "coalesced" } else { "hit" };
                    self.recorder.span_since(Stage::CacheProbe, label, t0);
                    return Lookup::Hit(record);
                }
            }
            if state.pending.contains_key(&digest) {
                state = match self.cond.wait(state) {
                    Ok(s) => s,
                    Err(poisoned) => poisoned.into_inner(),
                };
                waited = true;
                continue;
            }
            state.pending.insert(digest, ());
            state.stats.misses += 1;
            self.recorder.span_since(Stage::CacheProbe, "miss", t0);
            return Lookup::Miss(CellLease { cache: self, key: key.clone(), fulfilled: false });
        }
    }

    /// Probes without leasing: a verified hit returns the record (and
    /// refreshes its generation), anything else — absent or in flight —
    /// returns `None` without blocking or counting a miss.
    #[cfg(test)]
    #[must_use]
    pub(crate) fn probe(&self, key: &CellKey) -> Option<Box<RunRecord>> {
        let mut state = self.lock();
        state.generation += 1;
        let generation = state.generation;
        let slot = state.index.get_mut(&key.digest())?;
        (slot.key.canonical == key.canonical).then(|| {
            slot.last_used = generation;
            Box::new(slot.record.clone())
        })
    }

    /// Atomically rewrites the store to exactly the resident entries,
    /// least recently used first (so a reopen restores their recency):
    /// damaged, duplicate, stale-schema and torn lines, and the lines of
    /// evicted entries, are all dropped. A crash mid-compaction leaves
    /// the old store or the new one, never a torn mix.
    ///
    /// # Errors
    ///
    /// Propagates the I/O error when the rewrite or the reopen for
    /// appending fails.
    pub fn compact(&self) -> std::io::Result<()> {
        let mut store = self.lock_store();
        self.compact_store(&mut store)
    }

    /// Inserts a fulfilled cell, evicts beyond capacity, wakes waiters,
    /// then appends to the store and compacts amortized.
    ///
    /// The in-memory publish (index insert + lease release + notify)
    /// completes entirely under the index lock, *before* any disk I/O:
    /// coalesced waiters wake to a hit while the fsync is still in
    /// flight, and a slow disk can never stall a lookup.
    fn insert(&self, key: &CellKey, record: &RunRecord) {
        let t0 = self.recorder.now_us();
        let mut state = self.lock();
        state.pending.remove(&key.digest());
        state.generation += 1;
        let generation = state.generation;
        state.index.insert(
            key.digest(),
            Slot { key: key.clone(), record: record.clone(), last_used: generation },
        );
        while state.index.len() > self.capacity {
            if let Some(oldest) = min_generation_digest(&state.index) {
                state.index.remove(&oldest);
                state.stats.evictions += 1;
            }
        }
        state.stats.insertions += 1;
        state.stats.entries = state.index.len() as u64;
        drop(state);
        self.cond.notify_all();

        let mut line = render_line(key, &record.to_json());
        line.push('\n');
        // Durable half, serialized by the designated I/O lock only.
        let mut store = self.lock_store();
        if let Err(e) = self.append(&mut store, &line, &record.workload) {
            store.io_warnings.push(format!("store append failed for {}: {e}", key.hex()));
        } else {
            store.appends_since_compaction += 1;
        }
        // Amortized compaction: evicted and superseded lines pile up
        // append-only; once a capacity's worth has landed, rewrite the
        // file to exactly the resident index.
        if store.appends_since_compaction >= self.capacity as u64 {
            store.appends_since_compaction = 0;
            if let Err(e) = self.compact_store(&mut store) {
                store.io_warnings.push(format!("store compaction failed: {e}"));
            }
        }
        drop(store);
        self.recorder.span_since(Stage::CacheInsert, &record.workload, t0);
    }

    /// Writes one rendered line and fsyncs it. Spans are recorded before
    /// either error propagates (sigma-lint D9): a failed write still
    /// lands its timing, so the Perfetto timeline never loses the span
    /// that explains the failure.
    fn append(&self, store: &mut StoreState, line: &str, label: &str) -> std::io::Result<()> {
        let t0 = self.recorder.now_us();
        let wrote = store.file.write_all(line.as_bytes());
        self.recorder.span_since(Stage::JournalAppend, label, t0);
        wrote?;
        let t1 = self.recorder.now_us();
        let synced = store.file.sync_data();
        self.recorder.span_since(Stage::JournalFsync, label, t1);
        synced
    }

    /// [`RunCache::compact`] under an already-held store lock. The index
    /// is snapshotted under a brief `state` reacquisition — store ->
    /// state nesting only, never the reverse — and rendered outside it.
    fn compact_store(&self, store: &mut StoreState) -> std::io::Result<()> {
        let mut entries: Vec<(u64, CellKey, RunRecord)> = {
            let state = self.lock();
            state
                .index
                .values()
                .map(|slot| (slot.last_used, slot.key.clone(), slot.record.clone()))
                .collect()
        };
        entries.sort_by_key(|(last_used, _, _)| *last_used);
        let mut content = String::new();
        for (_, key, record) in &entries {
            content.push_str(&render_line(key, &record.to_json()));
            content.push('\n');
        }
        write_atomic(&self.path, content.as_bytes())?;
        // Re-open so later appends land after the rewritten content.
        store.file = OpenOptions::new().create(true).append(true).open(&self.path)?;
        Ok(())
    }

    /// Locks the index state, recovering from a poisoned mutex (a
    /// panicking cache user must not wedge every other sweep thread).
    fn lock(&self) -> MutexGuard<'_, CacheState> {
        match self.state.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Locks the durable store half, with the same poison recovery.
    fn lock_store(&self) -> MutexGuard<'_, StoreState> {
        match self.store.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }
}

/// The digest of the entry with the smallest generation stamp.
fn min_generation_digest(index: &Index) -> Option<(u64, u64)> {
    index.iter().min_by_key(|(_, slot)| slot.last_used).map(|(digest, _)| *digest)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::record::RunStatus;
    use sigma_core::model::GemmProblem;
    use sigma_core::{CycleStats, EngineRun};
    use sigma_matrix::{GemmShape, Matrix};

    fn workload() -> WorkloadSpec {
        WorkloadSpec::new("wl", GemmProblem::sparse(GemmShape::new(4, 5, 6), 0.5, 0.25))
    }

    fn sample(slug: &str) -> RunRecord {
        let p = workload().problem;
        let run = EngineRun::new(
            Matrix::zeros(4, 5),
            CycleStats { streaming_cycles: 10, pes: 8, ..CycleStats::default() },
        );
        RunRecord::from_run(slug, "Engine", 8, "wl", &p, 7, &run, 1e-6, true, 0)
    }

    fn key(tag: &str) -> CellKey {
        CellKey::new(tag, "fp", &workload(), 7)
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("sigma_store_tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}_{}.cache", std::process::id()))
    }

    fn fresh(name: &str, capacity: usize) -> RunCache {
        let path = tmp(name);
        let _ = std::fs::remove_file(&path);
        RunCache::open(&path, capacity).unwrap()
    }

    #[test]
    fn cell_keys_separate_every_identity_dimension() {
        let w = workload();
        let base = CellKey::new("sigma", "fp-a", &w, 7);
        let other_shape =
            WorkloadSpec::new("wl", GemmProblem::sparse(GemmShape::new(4, 5, 7), 0.5, 0.25));
        let other_density =
            WorkloadSpec::new("wl", GemmProblem::sparse(GemmShape::new(4, 5, 6), 0.5, 0.26));
        let faulted = CellKey::with_faults(
            "sigma",
            "fp-a",
            &FaultPlan::single(
                sigma_core::FaultSite::BitmapWord { word: 0 },
                sigma_core::FaultKind::CorruptWord { mask: 1 },
            ),
            &w,
            7,
        );
        let variants = [
            base.clone(),
            CellKey::new("eie", "fp-a", &w, 7),
            CellKey::new("sigma", "fp-b", &w, 7),
            CellKey::new("sigma", "fp-a", &w, 8),
            CellKey::new("sigma", "fp-a", &other_shape, 7),
            CellKey::new("sigma", "fp-a", &other_density, 7),
            faulted,
        ];
        let mut canonicals: Vec<&str> = variants.iter().map(CellKey::canonical).collect();
        canonicals.sort_unstable();
        canonicals.dedup();
        assert_eq!(canonicals.len(), variants.len(), "every dimension perturbs the key");
        let mut digests: Vec<(u64, u64)> = variants.iter().map(CellKey::digest).collect();
        digests.sort_unstable();
        digests.dedup();
        assert_eq!(digests.len(), variants.len());
        assert_eq!(base, CellKey::new("sigma", "fp-a", &w, 7), "keys are deterministic");
        assert_eq!(base.hex().len(), 32);
        assert_eq!(CellKey::from_canonical(base.canonical().to_string()), base);
    }

    /// Satellite 1 regression (staleness bug): the key layout revision
    /// and the record schema are part of the identity, so bumping either
    /// changes every key and stale persisted entries can never replay as
    /// hits. The canonical prefix pins both.
    #[test]
    fn key_canonical_pins_layout_and_record_schema() {
        let k = key("sigma");
        let expected = format!("k{CELL_KEY_REVISION}|rec{RECORD_SCHEMA}|sigma|fp|f1;|wl|");
        assert!(
            k.canonical().starts_with(&expected),
            "canonical {:?} must open with {expected:?}",
            k.canonical()
        );
        // A simulated schema bump (what the canonical would become)
        // yields a different digest — the persisted entry misses.
        let bumped = CellKey::from_canonical(k.canonical().replacen(
            &format!("rec{RECORD_SCHEMA}|"),
            "rec999|",
            1,
        ));
        assert_ne!(bumped.digest(), k.digest());
        // Likewise an engine config revision: same slug, new fingerprint.
        let reconfigured = CellKey::new("sigma", "fp-v2", &workload(), 7);
        assert_ne!(reconfigured.digest(), k.digest());
    }

    #[test]
    fn miss_fulfill_hit_round_trips_the_record() {
        let cache = fresh("round_trip", 8);
        let k = key("a");
        match cache.lookup(&k) {
            Lookup::Hit(_) => panic!("fresh cache cannot hit"),
            Lookup::Miss(lease) => {
                assert_eq!(lease.key(), &k);
                lease.fulfill(&sample("a"));
            }
        }
        match cache.lookup(&k) {
            Lookup::Hit(record) => assert_eq!(*record, sample("a")),
            Lookup::Miss(_) => panic!("fulfilled cell must hit"),
        }
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.insertions), (1, 1, 1));
        assert_eq!(stats.entries, 1);
        assert!(cache.warnings().is_empty(), "{:?}", cache.warnings());
        let _ = std::fs::remove_file(cache.path());
    }

    #[test]
    fn cache_persists_across_reopen() {
        let path = tmp("persist");
        let _ = std::fs::remove_file(&path);
        {
            let cache = RunCache::open(&path, 8).unwrap();
            if let Lookup::Miss(lease) = cache.lookup(&key("a")) {
                lease.fulfill(&sample("a"));
            }
            if let Lookup::Miss(lease) = cache.lookup(&key("b")) {
                lease.fulfill(&sample("b"));
            };
        }
        let reopened = RunCache::open(&path, 8).unwrap();
        assert!(reopened.warnings().is_empty(), "{:?}", reopened.warnings());
        assert_eq!(reopened.stats().entries, 2);
        match reopened.lookup(&key("a")) {
            Lookup::Hit(record) => {
                assert_eq!(*record, sample("a"), "records replay bit-exactly");
                assert_eq!(record.to_json(), sample("a").to_json());
            }
            Lookup::Miss(_) => panic!("persisted cell must hit after reopen"),
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn hit_verifies_the_canonical_string_not_just_the_digest() {
        let cache = fresh("collision", 8);
        let k = key("a");
        if let Lookup::Miss(lease) = cache.lookup(&k) {
            lease.fulfill(&sample("a"));
        }
        // Forge a key with the same digest but a different canonical —
        // exactly what an FNV collision would present.
        let forged =
            CellKey { hi: k.digest().0, lo: k.digest().1, canonical: "someone else".into() };
        match cache.lookup(&forged) {
            Lookup::Hit(_) => panic!("a digest collision must never alias"),
            Lookup::Miss(lease) => drop(lease),
        }
        let _ = std::fs::remove_file(cache.path());
    }

    #[test]
    fn capacity_evicts_least_recently_used() {
        let cache = fresh("eviction", 2);
        for tag in ["a", "b"] {
            if let Lookup::Miss(lease) = cache.lookup(&key(tag)) {
                lease.fulfill(&sample(tag));
            }
        }
        // Touch "a" so "b" is the LRU entry, then insert "c".
        assert!(matches!(cache.lookup(&key("a")), Lookup::Hit(_)));
        if let Lookup::Miss(lease) = cache.lookup(&key("c")) {
            lease.fulfill(&sample("c"));
        }
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.stats().entries, 2);
        assert!(matches!(cache.lookup(&key("a")), Lookup::Hit(_)), "recently used survives");
        assert!(matches!(cache.lookup(&key("c")), Lookup::Hit(_)));
        match cache.lookup(&key("b")) {
            Lookup::Miss(lease) => drop(lease),
            Lookup::Hit(_) => panic!("LRU entry must have been evicted"),
        }
        let _ = std::fs::remove_file(cache.path());
    }

    #[test]
    fn store_stays_bounded_via_amortized_compaction() {
        let path = tmp("compaction");
        let _ = std::fs::remove_file(&path);
        let cache = RunCache::open(&path, 4).unwrap();
        // 64 distinct cells through a 4-entry cache: without compaction
        // the store would hold 64 lines.
        for i in 0..64 {
            let k = CellKey::new(&format!("slug{i}"), "fp", &workload(), 7);
            if let Lookup::Miss(lease) = cache.lookup(&k) {
                lease.fulfill(&sample("x"));
            }
        }
        assert!(cache.warnings().is_empty(), "{:?}", cache.warnings());
        let lines = std::fs::read_to_string(&path).unwrap().lines().count();
        assert!(lines <= 8, "store must stay within ~2x capacity, got {lines} lines");
        // And the survivors still replay.
        drop(cache);
        let reopened = RunCache::open(&path, 4).unwrap();
        assert_eq!(reopened.stats().entries, 4);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn reopen_with_smaller_capacity_drops_oldest_entries() {
        let path = tmp("shrink");
        let _ = std::fs::remove_file(&path);
        {
            let cache = RunCache::open(&path, 8).unwrap();
            for tag in ["a", "b", "c"] {
                if let Lookup::Miss(lease) = cache.lookup(&key(tag)) {
                    lease.fulfill(&sample(tag));
                }
            }
        }
        let small = RunCache::open(&path, 1).unwrap();
        assert_eq!(small.stats().entries, 1);
        assert!(matches!(small.lookup(&key("c")), Lookup::Hit(_)), "newest entry survives");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupt_store_lines_degrade_to_warnings_and_misses() {
        use std::io::Write;
        let path = tmp("corrupt");
        let _ = std::fs::remove_file(&path);
        {
            let cache = RunCache::open(&path, 8).unwrap();
            if let Lookup::Miss(lease) = cache.lookup(&key("a")) {
                lease.fulfill(&sample("a"));
            };
        }
        let mut f = std::fs::OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"\xff\xfegarbage\n").unwrap();
        drop(f);
        let cache = RunCache::open(&path, 8).unwrap();
        assert_eq!(cache.warnings().len(), 1, "{:?}", cache.warnings());
        assert!(matches!(cache.lookup(&key("a")), Lookup::Hit(_)), "intact line still replays");
        let _ = std::fs::remove_file(&path);
    }

    /// Tentpole acceptance (coalescing): N threads looking up the same
    /// absent key produce exactly one lease; the others block and wake
    /// to the executor's record. A barrier proves they overlap.
    #[test]
    fn inflight_duplicates_execute_exactly_once() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Barrier;
        let cache = fresh("coalesce", 8);
        let k = key("shared");
        let executions = AtomicUsize::new(0);
        let start = Barrier::new(4);
        let results: Vec<RunRecord> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        match cache.lookup(&k) {
                            Lookup::Hit(record) => *record,
                            Lookup::Miss(lease) => {
                                executions.fetch_add(1, Ordering::SeqCst);
                                // Hold the lease long enough that the
                                // other threads demonstrably block.
                                std::thread::sleep(std::time::Duration::from_millis(50));
                                let record = sample("shared");
                                lease.fulfill(&record);
                                record
                            }
                        }
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(executions.load(Ordering::SeqCst), 1, "exactly one executor");
        assert!(results.iter().all(|r| r == &sample("shared")));
        let stats = cache.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.coalesced, 3, "the three duplicates coalesced");
        assert_eq!(stats.insertions, 1);
        let _ = std::fs::remove_file(cache.path());
    }

    /// An executor that dies (drops its lease without fulfilling) must
    /// not wedge the waiters: one of them inherits the lease.
    #[test]
    fn abandoned_lease_hands_over_to_a_waiter() {
        use std::sync::Barrier;
        let cache = fresh("abandon", 8);
        let k = key("fragile");
        let start = Barrier::new(2);
        let outcome: Vec<bool> = std::thread::scope(|s| {
            let abandoner = s.spawn(|| {
                let lookup = cache.lookup(&k);
                start.wait();
                match lookup {
                    // Simulated executor death: drop without fulfilling.
                    Lookup::Miss(lease) => {
                        std::thread::sleep(std::time::Duration::from_millis(50));
                        drop(lease);
                        false
                    }
                    Lookup::Hit(_) => true,
                }
            });
            let waiter = s.spawn(|| {
                start.wait();
                match cache.lookup(&k) {
                    Lookup::Hit(_) => true,
                    Lookup::Miss(lease) => {
                        lease.fulfill(&sample("fragile"));
                        false
                    }
                }
            });
            vec![abandoner.join().unwrap(), waiter.join().unwrap()]
        });
        assert_eq!(outcome, vec![false, false], "waiter inherited the lease after abandonment");
        assert!(matches!(cache.lookup(&k), Lookup::Hit(_)), "the inherited lease was fulfilled");
        let _ = std::fs::remove_file(cache.path());
    }

    #[test]
    fn recorder_times_probes_and_inserts_with_reconciling_counts() {
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;
        let ticks = Arc::new(AtomicU64::new(0));
        let rec = FlightRecorder::with_clock(64, move || ticks.fetch_add(3, Ordering::Relaxed));
        let cache = fresh("recorder", 8).with_flight_recorder(rec.clone());
        if let Lookup::Miss(lease) = cache.lookup(&key("a")) {
            lease.fulfill(&sample("a"));
        }
        assert!(matches!(cache.lookup(&key("a")), Lookup::Hit(_)));
        let snap = rec.snapshot();
        let stats = cache.stats();
        // Probe spans reconcile with the traffic counters exactly.
        assert_eq!(
            snap.stage("cache_probe").unwrap().count,
            stats.hits + stats.misses + stats.coalesced
        );
        assert_eq!(snap.stage("cache_insert").unwrap().count, stats.insertions);
        assert!(snap.spans.iter().any(|s| s.label == "hit"));
        assert!(snap.spans.iter().any(|s| s.label == "miss"));
        let _ = std::fs::remove_file(cache.path());
    }

    #[test]
    fn probe_reads_without_leasing() {
        let cache = fresh("probe", 8);
        let k = key("a");
        assert!(cache.probe(&k).is_none());
        assert_eq!(cache.stats().misses, 0, "probe never counts a miss");
        if let Lookup::Miss(lease) = cache.lookup(&k) {
            lease.fulfill(&sample("a"));
        }
        assert_eq!(*cache.probe(&k).unwrap(), sample("a"));
        let _ = std::fs::remove_file(cache.path());
    }

    /// Fulfills `key` with `record` through the public lease path.
    fn put(cache: &RunCache, key: &CellKey, record: &RunRecord) {
        match cache.lookup(key) {
            Lookup::Miss(lease) => lease.fulfill(record),
            Lookup::Hit(_) => panic!("{} is already stored", key.hex()),
        }
    }

    /// A store at `name` holding `cells`, written through a fresh cache
    /// that is closed again before returning.
    fn store_with(name: &str, cells: &[(CellKey, RunRecord)]) -> PathBuf {
        let path = tmp(name);
        let _ = std::fs::remove_file(&path);
        let cache = RunCache::open(&path, 8).unwrap();
        for (k, r) in cells {
            put(&cache, k, r);
        }
        path
    }

    fn failure() -> RunRecord {
        RunRecord::from_failure(
            "e",
            "E \"quoted\"\nnamé",
            1,
            "w",
            &workload().problem,
            0,
            RunStatus::Error,
            "engine configuration error: too large".to_string(),
            0,
        )
    }

    fn panicked() -> RunRecord {
        let p = workload().problem;
        let why = "chaos: deliberate panic".to_string();
        RunRecord::from_failure("boom", "Chaos", 1, "wl", &p, 7, RunStatus::Panic, why, 96)
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        assert_eq!(fnv1a_64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a_64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a_64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn write_atomic_replaces_content_and_cleans_temp() {
        let path = tmp("write_atomic");
        let _ = std::fs::remove_file(&path);
        write_atomic(&path, b"first").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"first");
        write_atomic(&path, b"second, longer content").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second, longer content");
        let mut tmp_name = path.as_os_str().to_os_string();
        tmp_name.push(".tmp");
        assert!(!PathBuf::from(tmp_name).exists(), "temp sibling cleaned up");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn missing_store_opens_empty() {
        let cache = fresh("never_written", 8);
        assert_eq!(cache.stats().entries, 0);
        assert!(cache.warnings().is_empty());
        let _ = std::fs::remove_file(cache.path());
    }

    /// Every status round-trips byte-exactly through a reopen, including
    /// a failure record's quoted, multi-line, non-ASCII engine name and
    /// its infinite `max_abs_err`.
    #[test]
    fn records_of_every_status_round_trip_exactly() {
        let cells = [(key("a"), sample("a")), (key("boom"), panicked()), (key("fail"), failure())];
        let path = store_with("round_trip_all", &cells);
        let cache = RunCache::open(&path, 8).unwrap();
        assert!(cache.warnings().is_empty(), "{:?}", cache.warnings());
        for (k, r) in &cells {
            let got = cache.probe(k).unwrap();
            assert_eq!(&*got, r);
            assert_eq!(got.to_json(), r.to_json());
            assert_eq!(got.row(), r.row());
        }
        let _ = std::fs::remove_file(&path);
    }

    /// A canonical identity whose stored digest no longer matches (the
    /// on-disk shape of a stale or tampered key) is corruption — it must
    /// warn and rerun, never replay as a hit.
    #[test]
    fn mismatched_key_digest_is_rejected_as_corruption() {
        let path = store_with("digest_mismatch", &[(key("a"), sample("a"))]);
        let text = std::fs::read_to_string(&path).unwrap();
        let good = key("a").hex();
        let flipped = if good.as_bytes()[0] == b'0' { '1' } else { '0' };
        let bad = format!("{flipped}{}", &good[1..]);
        std::fs::write(&path, text.replacen(&good, &bad, 1)).unwrap();
        let cache = RunCache::open(&path, 8).unwrap();
        assert!(cache.probe(&key("a")).is_none(), "tampered line must not replay");
        assert_eq!(cache.warnings().len(), 1);
        assert!(cache.warnings()[0].contains("does not match"), "{:?}", cache.warnings());
        let _ = std::fs::remove_file(&path);
    }

    /// A flipped digit inside the record — a well-formed line with a
    /// wrong value — is caught by the record digest and reruns.
    #[test]
    fn a_flipped_record_digit_fails_the_record_digest() {
        let path = store_with("record_digest", &[(key("a"), sample("a")), (key("b"), sample("b"))]);
        let text = std::fs::read_to_string(&path).unwrap();
        let cycles = format!("\"total_cycles\": {}", sample("a").total_cycles);
        let bumped = format!("\"total_cycles\": {}", sample("a").total_cycles + 1);
        std::fs::write(&path, text.replacen(&cycles, &bumped, 1)).unwrap();
        let cache = RunCache::open(&path, 8).unwrap();
        assert!(cache.probe(&key("a")).is_none(), "a wrong row must never be served");
        assert_eq!(*cache.probe(&key("b")).unwrap(), sample("b"));
        assert_eq!(cache.warnings().len(), 1);
        assert!(cache.warnings()[0].contains("record digest mismatch"), "{:?}", cache.warnings());
        let _ = std::fs::remove_file(&path);
    }

    /// A line that parses to the very record it was written for, but is
    /// not spelled the way the store writes it (here an upper-case
    /// exponent), is damage all the same: it warns and reruns.
    #[test]
    fn a_non_canonical_spelling_is_rejected() {
        let path = store_with("canonical", &[(key("a"), sample("a"))]);
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"max_abs_err\": 1e-6"), "{text}");
        std::fs::write(&path, text.replacen("1e-6", "1E-6", 1)).unwrap();
        let cache = RunCache::open(&path, 8).unwrap();
        assert!(cache.probe(&key("a")).is_none());
        assert_eq!(cache.warnings().len(), 1);
        assert!(cache.warnings()[0].contains("not in canonical form"), "{:?}", cache.warnings());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn truncated_final_line_is_skipped_with_a_warning() {
        let path = store_with("torn_tail", &[(key("a"), sample("a")), (key("b"), sample("b"))]);
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &text[..text.len() - 25]).unwrap();
        let cache = RunCache::open(&path, 8).unwrap();
        assert!(cache.probe(&key("a")).is_some());
        assert!(cache.probe(&key("b")).is_none());
        assert_eq!(cache.warnings().len(), 1);
        assert!(cache.warnings()[0].contains("truncated final line"), "{:?}", cache.warnings());
        // The torn tail is closed on open: a fresh append lands on a line
        // of its own and survives the next reopen.
        put(&cache, &key("b"), &sample("b"));
        drop(cache);
        let reopened = RunCache::open(&path, 8).unwrap();
        assert_eq!(*reopened.probe(&key("b")).unwrap(), sample("b"));
        assert_eq!(reopened.warnings().len(), 1, "only the torn line still warns");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn garbage_duplicates_and_stale_schema_are_skipped_with_warnings() {
        use std::io::Write;
        let path = store_with("corruption", &[(key("a"), sample("a"))]);
        let text = std::fs::read_to_string(&path).unwrap();
        // A well-formed line of the previous schema (no record digest).
        let v2 = text.replacen(&format!("\"schema\": {STORE_SCHEMA}"), "\"schema\": 2", 1);
        let mut f = std::fs::OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"\xff\xfenot json at all\n").unwrap();
        f.write_all(v2.as_bytes()).unwrap();
        // A duplicate of the first key with different content, then a
        // fresh key.
        let dup = render_line(&key("a"), &sample("dup").to_json());
        f.write_all(format!("{dup}\n").as_bytes()).unwrap();
        f.write_all(format!("{}\n", render_line(&key("b"), &sample("b").to_json())).as_bytes())
            .unwrap();
        drop(f);
        let cache = RunCache::open(&path, 8).unwrap();
        assert_eq!(cache.stats().entries, 2);
        assert_eq!(cache.probe(&key("a")).unwrap().engine_slug, "a", "first occurrence wins");
        assert!(cache.probe(&key("b")).is_some());
        let warnings = cache.warnings();
        assert_eq!(warnings.len(), 3, "{warnings:?}");
        assert!(warnings.iter().any(|w| w.contains("stale schema version 2")));
        assert!(warnings.iter().any(|w| w.contains("duplicate key")));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn compaction_rewrites_atomically_and_preserves_appendability() {
        use std::io::Write;
        let path = store_with("compaction_scrub", &[(key("a"), sample("a"))]);
        let mut f = std::fs::OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(format!("{}\n", render_line(&key("a"), &sample("dup").to_json())).as_bytes())
            .unwrap();
        f.write_all(b"garbage\n").unwrap();
        f.write_all(format!("{}\n", render_line(&key("b"), &sample("b").to_json())).as_bytes())
            .unwrap();
        drop(f);
        let cache = RunCache::open(&path, usize::MAX).unwrap();
        assert_eq!(cache.warnings().len(), 2);
        cache.compact().unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap().lines().count(), 2);
        // The store keeps appending after the rewrite.
        put(&cache, &key("c"), &sample("c"));
        drop(cache);
        let after = RunCache::open(&path, usize::MAX).unwrap();
        assert!(after.warnings().is_empty(), "{:?}", after.warnings());
        assert_eq!(after.stats().entries, 3);
        let mut tmp_name = path.as_os_str().to_os_string();
        tmp_name.push(".tmp");
        assert!(!PathBuf::from(tmp_name).exists(), "temp file cleaned up");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn recorder_times_appends_and_fsyncs() {
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;
        let ticks = Arc::new(AtomicU64::new(0));
        let rec = FlightRecorder::with_clock(64, move || ticks.fetch_add(5, Ordering::Relaxed));
        let cache = fresh("recorder_io", 8).with_flight_recorder(rec.clone());
        put(&cache, &key("a"), &sample("a"));
        put(&cache, &key("b"), &sample("b"));
        let snap = rec.snapshot();
        assert_eq!(snap.stage("journal_append").unwrap().count, 2);
        assert_eq!(snap.stage("journal_fsync").unwrap().count, 2);
        // Two probes, two inserts, and an append and an fsync per insert.
        assert_eq!(snap.spans.len(), 8);
        let _ = std::fs::remove_file(cache.path());
    }

    /// One seeded corruption fuzzer over the single store format. At
    /// every byte offset of a three-line store it truncates there, flips
    /// a seeded bit of that byte, and duplicates the line holding it.
    /// No reopen may panic or serve a record other than the one written
    /// for its key; a cell is served exactly when its line survives
    /// intact, and every other non-blank line of the damaged file warns
    /// exactly once.
    #[test]
    fn corruption_at_every_byte_warns_and_reruns_never_a_wrong_row() {
        let cells = [(key("a"), sample("a")), (key("boom"), panicked()), (key("fail"), failure())];
        let path = store_with("fuzz", &cells);
        let clean = std::fs::read(&path).unwrap();
        let lines: Vec<&[u8]> = clean.split_inclusive(|&b| b == b'\n').collect();
        assert_eq!(lines.len(), cells.len());
        let bodies: Vec<String> =
            lines.iter().map(|l| String::from_utf8(l[..l.len() - 1].to_vec()).unwrap()).collect();

        let check = |damaged: &[u8], what: &str| -> Vec<String> {
            std::fs::write(&path, damaged).unwrap();
            let cache = RunCache::open(&path, 8).unwrap();
            let text = String::from_utf8_lossy(damaged);
            let fragments: Vec<&str> = text.split('\n').collect();
            let mut seen = vec![false; bodies.len()];
            let mut expected_warnings = 0;
            for fragment in fragments.iter().filter(|f| !f.trim().is_empty()) {
                match bodies.iter().position(|b| b == fragment) {
                    Some(i) if !seen[i] => seen[i] = true,
                    _ => expected_warnings += 1,
                }
            }
            for ((k, r), intact) in cells.iter().zip(&seen) {
                match cache.probe(k) {
                    Some(got) => {
                        assert_eq!(&*got, r, "{what}: wrong row for {}", k.hex());
                        assert!(intact, "{what}: served {} from a damaged line", k.hex());
                    }
                    None => assert!(!intact, "{what}: intact line for {} not served", k.hex()),
                }
            }
            let warnings = cache.warnings();
            assert_eq!(warnings.len(), expected_warnings, "{what}: {warnings:?}");
            warnings
        };

        let mut state = 0x2545_f491_4f6c_dd1d_u64;
        for at in 0..clean.len() {
            let line = clean[..at].iter().filter(|&&b| b == b'\n').count();
            let line_start = lines[..line].iter().map(|l| l.len()).sum::<usize>();

            let warnings = check(&clean[..at], &format!("truncate at {at}"));
            if at > line_start && at + 1 < line_start + lines[line].len() {
                assert!(warnings[0].contains("truncated final line"), "{warnings:?}");
            }

            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let mut flipped = clean.clone();
            flipped[at] ^= 1 << (state % 8);
            check(&flipped, &format!("flip bit {} of byte {at}", state % 8));

            let mut doubled = clean[..line_start + lines[line].len()].to_vec();
            doubled.extend_from_slice(&clean[line_start..]);
            let warnings = check(&doubled, &format!("duplicate line {line}"));
            assert!(warnings[0].contains("duplicate key"), "{warnings:?}");
        }
        let _ = std::fs::remove_file(&path);
    }
}
