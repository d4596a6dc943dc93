//! Persistent content-addressed result store: append-only CRC-checked
//! segments on disk, fronting the in-memory LRU.
//!
//! The disk layer makes the cache survive restarts: because results are
//! deterministic functions of their canonical spec (see [`crate::cache`]),
//! a body read back from disk is byte-identical to the cold run that wrote
//! it, so a freshly booted server serves the same bytes the previous
//! process did.
//!
//! # On-disk format
//!
//! A store directory holds numbered segment files `seg-<n>.log`, each an
//! append-only sequence of records:
//!
//! ```text
//! [magic u32][key_len u32][body_len u32][crc32 u32]  -- 16-byte header, LE
//! [key bytes][body bytes]
//! ```
//!
//! The CRC covers `key || body`. There is no in-place mutation and no
//! separate index file: the in-memory index is rebuilt by scanning the
//! segments in id order at startup. A crash mid-append leaves a truncated
//! or CRC-failing tail record; recovery truncates the segment at the last
//! valid record and carries on — losing at most the record being written,
//! never an earlier one.
//!
//! The store is write-once. Keys are digests of canonical strings and
//! bodies are deterministic, so [`DiskStore::insert`] of a key already
//! indexed appends nothing, and no record is ever superseded, rewritten or
//! deleted. Data directories written by older builds may hold a key twice
//! (they appended again when an identical submission raced a finishing
//! job); the scan keeps the last record, and the bodies are equal anyway.

use std::collections::HashMap;
use std::fs::{self, File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

/// Record-header magic: `"DSR1"` little-endian.
const MAGIC: u32 = 0x3152_5344;
/// Fixed record-header size (magic, key length, body length, CRC).
const HEADER_BYTES: usize = 16;
/// Segment rotation threshold: a new record opens a fresh segment once the
/// active one holds this many bytes, so a segment holds many sweep records
/// without any one file growing without bound.
const MAX_SEGMENT_BYTES: u64 = 8 * 1024 * 1024;
/// Keys are digests (32 hex chars today); cap generously so a scan never
/// mistakes a corrupt length field for a gigantic allocation.
const MAX_KEY_BYTES: u32 = 1024;
/// Bodies are rendered JSON records; same defensive cap (64 MiB).
const MAX_BODY_BYTES: u32 = 64 * 1024 * 1024;

/// IEEE CRC-32 (reflected, polynomial `0xEDB88320`), table-driven.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    static TABLE: OnceLock<[u32; 256]> = OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut table = [0u32; 256];
        for (i, slot) in table.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 == 1 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *slot = c;
        }
        table
    });
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc = table[usize::from((crc as u8) ^ b)] ^ (crc >> 8);
    }
    !crc
}

/// Where a record's body lives.
#[derive(Debug, Clone, Copy)]
struct RecordLoc {
    segment: u64,
    /// Byte offset of the body within the segment file.
    body_offset: u64,
    body_len: u32,
}

#[derive(Debug)]
struct StoreInner {
    /// key -> the record holding it.
    index: HashMap<String, RecordLoc>,
    /// Ids of all segment files on disk, ascending.
    segments: Vec<u64>,
    /// Append handle for the newest segment.
    active: File,
    active_id: u64,
    active_bytes: u64,
    /// Total bytes across all segment files.
    total_bytes: u64,
}

/// Point-in-time store gauges for `/metrics`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreStats {
    /// Segment files on disk.
    pub segments: u64,
    /// Total bytes across segment files.
    pub bytes: u64,
    /// Addressable records (distinct keys).
    pub records: u64,
}

/// The append-only segment store. All operations take the store lock; the
/// workload is one insert per *cold simulated sweep*, so contention is
/// negligible next to the compute being cached.
#[derive(Debug)]
pub struct DiskStore {
    dir: PathBuf,
    max_segment_bytes: u64,
    inner: Mutex<StoreInner>,
}

impl DiskStore {
    /// Opens (or creates) a store at `dir`, rebuilding the index by
    /// scanning every segment. Torn or corrupt tails are truncated away.
    ///
    /// # Errors
    ///
    /// Fails if the directory cannot be created or a segment cannot be
    /// read/repaired.
    pub fn open(dir: &Path) -> std::io::Result<Self> {
        Self::open_with_segment_cap(dir, MAX_SEGMENT_BYTES)
    }

    /// [`Self::open`] with a custom rotation threshold (tests use tiny
    /// segments to exercise rotation cheaply).
    ///
    /// # Errors
    ///
    /// Same failure modes as [`Self::open`].
    pub fn open_with_segment_cap(dir: &Path, max_segment_bytes: u64) -> std::io::Result<Self> {
        fs::create_dir_all(dir)?;
        let mut ids: Vec<u64> = fs::read_dir(dir)?
            .filter_map(|entry| {
                let name = entry.ok()?.file_name();
                let name = name.to_str()?;
                let id = name.strip_prefix("seg-")?.strip_suffix(".log")?;
                id.parse::<u64>().ok()
            })
            .collect();
        ids.sort_unstable();

        let mut index: HashMap<String, RecordLoc> = HashMap::new();
        let mut total_bytes = 0u64;
        for &id in &ids {
            let path = segment_path(dir, id);
            let valid = scan_segment(&path, id, &mut index)?;
            // Repair: drop any torn/corrupt tail so the segment ends on a
            // record boundary and future appends can't interleave with
            // garbage.
            let on_disk = fs::metadata(&path)?.len();
            if on_disk != valid {
                let f = OpenOptions::new().write(true).open(&path)?;
                f.set_len(valid)?;
            }
            total_bytes += valid;
        }

        let active_id = ids.last().copied().unwrap_or(0);
        if ids.is_empty() {
            ids.push(active_id);
        }
        let active_path = segment_path(dir, active_id);
        let active = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&active_path)?;
        let active_bytes = active.metadata()?.len();

        Ok(Self {
            dir: dir.to_path_buf(),
            max_segment_bytes,
            inner: Mutex::new(StoreInner {
                index,
                segments: ids,
                active,
                active_id,
                active_bytes,
                total_bytes,
            }),
        })
    }

    /// Reads the body stored under `key`, if any.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<Vec<u8>> {
        let loc = {
            let inner = self.inner.lock().expect("store lock poisoned");
            *inner.index.get(key)?
        };
        // Reads go straight to the segment file outside the lock: records
        // are immutable once written and segments are never deleted.
        let mut f = File::open(segment_path(&self.dir, loc.segment)).ok()?;
        f.seek(SeekFrom::Start(loc.body_offset)).ok()?;
        let mut body = vec![0u8; loc.body_len as usize];
        f.read_exact(&mut body).ok()?;
        Some(body)
    }

    /// Appends `body` under `key` unless `key` is already indexed: the
    /// store is write-once (see the module docs), so a second insert of a
    /// key leaves the segments untouched.
    ///
    /// # Errors
    ///
    /// Propagates segment I/O failures (the in-memory index is only
    /// updated after a successful append + flush).
    pub fn insert(&self, key: &str, body: &[u8]) -> std::io::Result<()> {
        assert!(key.len() <= MAX_KEY_BYTES as usize, "oversized store key");
        assert!(
            body.len() <= MAX_BODY_BYTES as usize,
            "oversized store body"
        );
        let mut inner = self.inner.lock().expect("store lock poisoned");
        if inner.index.contains_key(key) {
            return Ok(());
        }
        let record_len = (HEADER_BYTES + key.len() + body.len()) as u64;
        // The append handle writes at the segment's end, which a failed
        // earlier write may have moved past the records indexed so far:
        // offsets and byte counts follow the file, not this process.
        let on_disk = inner.active.metadata()?.len();
        inner.total_bytes = inner.total_bytes - inner.active_bytes + on_disk;
        inner.active_bytes = on_disk;
        // Rotate before the write so a single record never straddles the
        // cap by more than its own size.
        if inner.active_bytes > 0 && inner.active_bytes + record_len > self.max_segment_bytes {
            let next_id = inner.active_id + 1;
            let f = OpenOptions::new()
                .create(true)
                .append(true)
                .open(segment_path(&self.dir, next_id))?;
            inner.active = f;
            inner.active_id = next_id;
            inner.active_bytes = 0;
            inner.segments.push(next_id);
        }
        let mut record = Vec::with_capacity(record_len as usize);
        record.extend_from_slice(&MAGIC.to_le_bytes());
        record.extend_from_slice(&(key.len() as u32).to_le_bytes());
        record.extend_from_slice(&(body.len() as u32).to_le_bytes());
        let mut crc_input = Vec::with_capacity(key.len() + body.len());
        crc_input.extend_from_slice(key.as_bytes());
        crc_input.extend_from_slice(body);
        record.extend_from_slice(&crc32(&crc_input).to_le_bytes());
        record.extend_from_slice(&crc_input);
        inner.active.write_all(&record)?;
        inner.active.flush()?;
        let loc = RecordLoc {
            segment: inner.active_id,
            body_offset: inner.active_bytes + (HEADER_BYTES + key.len()) as u64,
            body_len: body.len() as u32,
        };
        inner.active_bytes += record_len;
        inner.total_bytes += record_len;
        inner.index.insert(key.to_owned(), loc);
        Ok(())
    }

    /// Current store gauges.
    #[must_use]
    pub fn stats(&self) -> StoreStats {
        let inner = self.inner.lock().expect("store lock poisoned");
        StoreStats {
            segments: inner.segments.len() as u64,
            bytes: inner.total_bytes,
            records: inner.index.len() as u64,
        }
    }
}

fn segment_path(dir: &Path, id: u64) -> PathBuf {
    dir.join(format!("seg-{id}.log"))
}

/// Scans one segment, folding its valid records into `index` (a key that
/// an older build wrote twice keeps its last record). Returns the byte
/// offset of the first invalid position — the length the file should be
/// truncated to.
fn scan_segment(
    path: &Path,
    segment: u64,
    index: &mut HashMap<String, RecordLoc>,
) -> std::io::Result<u64> {
    let mut data = Vec::new();
    File::open(path)?.read_to_end(&mut data)?;
    let mut offset = 0usize;
    // `data.get` bounds-checks every slice: a clean EOF, a torn header, or
    // a torn payload all end the scan at the last fully-valid record.
    while let Some(header) = data.get(offset..offset + HEADER_BYTES) {
        let magic = u32::from_le_bytes(header[0..4].try_into().expect("sliced"));
        let key_len = u32::from_le_bytes(header[4..8].try_into().expect("sliced"));
        let body_len = u32::from_le_bytes(header[8..12].try_into().expect("sliced"));
        let crc = u32::from_le_bytes(header[12..16].try_into().expect("sliced"));
        if magic != MAGIC || key_len > MAX_KEY_BYTES || body_len > MAX_BODY_BYTES {
            break; // corrupt header
        }
        let payload_start = offset + HEADER_BYTES;
        let payload_len = key_len as usize + body_len as usize;
        let Some(payload) = data.get(payload_start..payload_start + payload_len) else {
            break; // torn payload
        };
        if crc32(payload) != crc {
            break; // bit rot or torn write detected by checksum
        }
        let Ok(key) = std::str::from_utf8(&payload[..key_len as usize]) else {
            break;
        };
        let loc = RecordLoc {
            segment,
            body_offset: (payload_start + key_len as usize) as u64,
            body_len,
        };
        index.insert(key.to_owned(), loc);
        offset = payload_start + payload_len;
    }
    Ok(offset as u64)
}

/// A memory-tier entry: the body and the tick of its last use.
#[derive(Debug)]
struct Entry {
    body: Arc<String>,
    last_used: u64,
}

/// The memory tier: entries plus the use counter that orders them.
#[derive(Debug, Default)]
struct Lru {
    map: HashMap<String, Entry>,
    tick: u64,
}

/// The in-memory LRU fronting an optional [`DiskStore`]: the cache layer
/// the server actually talks to.
///
/// * `get` — LRU first; on miss, the disk store (promoting hits back into
///   the LRU so hot digests stay memory-resident).
/// * `insert` — writes through to both tiers.
///
/// Hit/miss accounting lives here (a disk hit is a cache hit), so
/// `/metrics` reports the fleet-visible ratio, not per-tier internals.
#[derive(Debug)]
pub struct TieredCache {
    capacity: usize,
    lru: Mutex<Lru>,
    disk: Option<DiskStore>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl TieredCache {
    /// A tiered cache holding at most `capacity` bodies in memory (0
    /// disables the memory tier) over an optional disk tier.
    #[must_use]
    pub fn new(capacity: usize, disk: Option<DiskStore>) -> Self {
        Self {
            capacity,
            lru: Mutex::new(Lru::default()),
            disk,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Looks up `key` across both tiers, refreshing its recency on a memory
    /// hit.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<Arc<String>> {
        if let Some(body) = self.memory_get(key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Some(body);
        }
        if let Some(disk) = &self.disk {
            if let Some(bytes) = disk.get(key) {
                if let Ok(text) = String::from_utf8(bytes) {
                    let body = Arc::new(text);
                    self.memory_insert(key.to_owned(), body.clone());
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return Some(body);
                }
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// Writes `body` through both tiers. Disk failures are reported on
    /// stderr but never fail the request: the result was computed and can
    /// be served; only its persistence is degraded.
    pub fn insert(&self, key: String, body: Arc<String>) {
        if let Some(disk) = &self.disk {
            if let Err(e) = disk.insert(&key, body.as_bytes()) {
                eprintln!("dante-serve: disk cache write failed for {key}: {e}");
            }
        }
        self.memory_insert(key, body);
    }

    /// `(hits, misses)` across both tiers since startup.
    #[must_use]
    pub fn stats(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    /// Entries resident in the memory tier.
    #[must_use]
    pub fn memory_len(&self) -> usize {
        self.memory().map.len()
    }

    /// Disk-tier gauges (zeroes when no disk tier is configured).
    #[must_use]
    pub fn disk_stats(&self) -> StoreStats {
        self.disk.as_ref().map(DiskStore::stats).unwrap_or_default()
    }

    fn memory(&self) -> MutexGuard<'_, Lru> {
        self.lru.lock().expect("cache lock poisoned")
    }

    fn memory_get(&self, key: &str) -> Option<Arc<String>> {
        let mut lru = self.memory();
        lru.tick += 1;
        let tick = lru.tick;
        let entry = lru.map.get_mut(key)?;
        entry.last_used = tick;
        Some(entry.body.clone())
    }

    /// Inserts into the memory tier, evicting the least-recently-used
    /// entries while over capacity.
    fn memory_insert(&self, key: String, body: Arc<String>) {
        if self.capacity == 0 {
            return;
        }
        let mut lru = self.memory();
        lru.tick += 1;
        let last_used = lru.tick;
        lru.map.insert(key, Entry { body, last_used });
        while lru.map.len() > self.capacity {
            // O(n) eviction scan: capacities are small (tens to hundreds)
            // and inserts happen once per *simulated sweep*, so a linked
            // list would be complexity without payoff.
            let Some(oldest) = lru
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            else {
                break;
            };
            lru.map.remove(&oldest);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    /// A fresh per-test directory under the system temp dir (std-only; no
    /// tempfile crate). Unique per process + per call.
    fn scratch_dir(tag: &str) -> PathBuf {
        static N: AtomicU32 = AtomicU32::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("dante-store-{tag}-{}-{n}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC-32 check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn round_trips_and_survives_reopen() {
        let dir = scratch_dir("reopen");
        {
            let store = DiskStore::open(&dir).unwrap();
            store.insert("k1", b"hello").unwrap();
            store.insert("k2", b"world").unwrap();
            assert_eq!(store.get("k1").unwrap(), b"hello");
            assert_eq!(store.stats().records, 2);
        }
        let store = DiskStore::open(&dir).unwrap();
        assert_eq!(store.get("k1").unwrap(), b"hello");
        assert_eq!(store.get("k2").unwrap(), b"world");
        assert!(store.get("k3").is_none());
        assert_eq!(store.stats().records, 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_tail_record_is_discarded_on_reopen() {
        let dir = scratch_dir("torn");
        {
            let store = DiskStore::open(&dir).unwrap();
            store.insert("keep", b"intact-body").unwrap();
            store.insert("torn", b"this-record-gets-cut").unwrap();
        }
        // Simulate a crash mid-append: chop bytes off the segment tail.
        let seg = segment_path(&dir, 0);
        let len = fs::metadata(&seg).unwrap().len();
        let f = OpenOptions::new().write(true).open(&seg).unwrap();
        f.set_len(len - 7).unwrap();
        drop(f);

        let store = DiskStore::open(&dir).unwrap();
        assert_eq!(
            store.get("keep").unwrap(),
            b"intact-body",
            "earlier record intact"
        );
        assert!(store.get("torn").is_none(), "torn tail dropped");
        assert_eq!(store.stats().records, 1);
        // The repair truncated the file to the valid prefix, so appends
        // continue cleanly.
        store.insert("torn", b"rewritten").unwrap();
        assert_eq!(store.get("torn").unwrap(), b"rewritten");
        let reopened = DiskStore::open(&dir).unwrap();
        assert_eq!(reopened.get("torn").unwrap(), b"rewritten");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn crc_corruption_is_detected_and_later_records_dropped() {
        let dir = scratch_dir("crc");
        {
            let store = DiskStore::open(&dir).unwrap();
            store.insert("first", b"aaaa").unwrap();
            store.insert("second", b"bbbb").unwrap();
        }
        // Flip one payload bit inside the *first* record's body.
        let seg = segment_path(&dir, 0);
        let mut data = fs::read(&seg).unwrap();
        let body_offset = HEADER_BYTES + "first".len();
        data[body_offset] ^= 0x01;
        fs::write(&seg, &data).unwrap();

        let store = DiskStore::open(&dir).unwrap();
        // The scan cannot trust anything at or after the corruption: both
        // records are gone, and the segment was truncated to offset 0.
        assert!(
            store.get("first").is_none(),
            "corrupt record rejected by CRC"
        );
        assert!(
            store.get("second").is_none(),
            "records after corruption are unreachable"
        );
        assert_eq!(store.stats().records, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn records_stay_readable_across_rotated_segments_and_reopen() {
        let dir = scratch_dir("rotate");
        let expected: Vec<(String, String)> = (0..10)
            .map(|i| {
                (
                    format!("digest-{i:02}"),
                    format!("payload-{i}-{}", "x".repeat(i)),
                )
            })
            .collect();
        {
            let store = DiskStore::open_with_segment_cap(&dir, 128).unwrap();
            for (key, body) in &expected {
                store.insert(key, body.as_bytes()).unwrap();
            }
            assert!(store.stats().segments > 1, "tiny cap forces rotation");
            for (key, body) in &expected {
                assert_eq!(store.get(key).unwrap(), body.as_bytes());
            }
        }
        let reopened = DiskStore::open_with_segment_cap(&dir, 128).unwrap();
        for (key, body) in &expected {
            assert_eq!(reopened.get(key).unwrap(), body.as_bytes());
        }
        assert_eq!(reopened.stats().records, 10);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn reinserting_a_key_appends_nothing() {
        let dir = scratch_dir("once");
        let store = DiskStore::open(&dir).unwrap();
        store.insert("digest", b"body").unwrap();
        let seg = segment_path(&dir, 0);
        let len = fs::metadata(&seg).unwrap().len();
        store.insert("digest", b"body").unwrap();
        assert_eq!(fs::metadata(&seg).unwrap().len(), len);
        assert_eq!(store.stats().bytes, len);
        assert_eq!(store.stats().records, 1);
        assert_eq!(store.get("digest").unwrap(), b"body");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn records_after_a_torn_append_are_indexed_where_they_landed() {
        // A failed write (say ENOSPC mid-record) leaves bytes the store
        // never indexed; the next append lands after them. With a 32-char
        // digest key and at most 32 torn bytes, an offset counted from the
        // indexed records alone reads the key's tail plus a cut body: valid
        // UTF-8 that the tiered cache would serve as a hit.
        let dir = scratch_dir("torn-append");
        let key = "0123456789abcdef0123456789abcdef";
        let store = DiskStore::open(&dir).unwrap();
        store.insert("a", b"first body").unwrap();
        let seg = segment_path(&dir, 0);
        let mut file = OpenOptions::new().append(true).open(&seg).unwrap();
        file.write_all(b"torn").unwrap();
        drop(file);
        store.insert(key, b"second body").unwrap();
        assert_eq!(store.get(key).unwrap(), b"second body");
        assert_eq!(store.stats().bytes, fs::metadata(&seg).unwrap().len());
        drop(store);

        let store = DiskStore::open(&dir).unwrap();
        assert_eq!(store.get("a").unwrap(), b"first body");
        if let Some(body) = store.get(key) {
            assert_eq!(body, b"second body");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_key_written_twice_by_an_older_build_opens_as_one_record() {
        let dir = scratch_dir("dup");
        fs::create_dir_all(&dir).unwrap();
        let record = |key: &str, body: &[u8]| {
            let payload = [key.as_bytes(), body].concat();
            let mut record = MAGIC.to_le_bytes().to_vec();
            record.extend_from_slice(&(key.len() as u32).to_le_bytes());
            record.extend_from_slice(&(body.len() as u32).to_le_bytes());
            record.extend_from_slice(&crc32(&payload).to_le_bytes());
            record.extend_from_slice(&payload);
            record
        };
        let segment = [record("digest", b"first"), record("digest", b"last")].concat();
        fs::write(segment_path(&dir, 0), &segment).unwrap();
        let store = DiskStore::open(&dir).unwrap();
        assert_eq!(store.stats().records, 1);
        assert_eq!(store.stats().bytes, segment.len() as u64);
        assert_eq!(store.get("digest").unwrap(), b"last", "last record wins");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn tiered_cache_promotes_disk_hits_and_counts_once() {
        let dir = scratch_dir("tiered");
        let store = DiskStore::open(&dir).unwrap();
        store.insert("cold", b"persisted-body").unwrap();
        let cache = TieredCache::new(4, Some(store));
        assert_eq!(cache.memory_len(), 0);
        // Disk hit: served, promoted, counted as a hit.
        assert_eq!(cache.get("cold").unwrap().as_str(), "persisted-body");
        assert_eq!(cache.memory_len(), 1);
        // Second get is a pure LRU hit.
        assert_eq!(cache.get("cold").unwrap().as_str(), "persisted-body");
        assert!(cache.get("absent").is_none());
        assert_eq!(cache.stats(), (2, 1));
        assert_eq!(cache.disk_stats().records, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn tiered_cache_without_disk_degrades_to_lru() {
        let cache = TieredCache::new(2, None);
        cache.insert("a".into(), Arc::new("A".into()));
        assert_eq!(cache.get("a").unwrap().as_str(), "A");
        assert!(cache.get("b").is_none());
        assert_eq!(cache.stats(), (1, 1));
        assert_eq!(cache.disk_stats(), StoreStats::default());
    }

    #[test]
    fn lru_evicts_oldest_first() {
        let cache = TieredCache::new(2, None);
        cache.insert("a".into(), Arc::new("A".into()));
        cache.insert("b".into(), Arc::new("B".into()));
        // Touch "a" so "b" becomes the LRU entry.
        assert_eq!(cache.get("a").unwrap().as_str(), "A");
        cache.insert("c".into(), Arc::new("C".into()));
        assert_eq!(cache.memory_len(), 2);
        assert!(cache.get("b").is_none(), "b was evicted");
        assert!(cache.get("a").is_some());
        assert!(cache.get("c").is_some());
        assert_eq!(cache.stats(), (3, 1));
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let cache = TieredCache::new(0, None);
        cache.insert("a".into(), Arc::new("A".into()));
        assert!(cache.get("a").is_none());
        assert_eq!(cache.memory_len(), 0);
    }
}
