//! Content-addressed result cache: the PR 7 resume journal promoted to a
//! first-class service-facing store.
//!
//! The on-disk format is exactly the journal's (`noclat-journal v1` header,
//! checksummed `r <key> <checksum> <payload>` records, valid-prefix crash
//! recovery), so every existing `--resume` file *is* a valid cache. On top
//! of it this module adds the two things a long-running service needs:
//!
//! * **read-through lookup** — [`ResultCache::get`] answers from the
//!   in-memory map loaded at open (plus everything inserted since), and
//!   [`read_snapshot`] gives lock-free readers the current valid prefix of
//!   a cache file someone else is writing;
//! * **a single-writer guard** — at most one [`ResultCache`] may have a
//!   cache file open for writing, enforced by a sidecar `<path>.lock` file
//!   created atomically and holding the writer's PID. A second writer gets
//!   the typed [`CacheError::Busy`], never silent interleaving. A lock
//!   whose holder died (SIGKILL included) is detected as stale via the
//!   PID and reclaimed.

use std::collections::HashMap;
use std::fs::OpenOptions;
use std::io::Write;
use std::path::{Path, PathBuf};

use noclat_sim::error::{JournalError, SimError};
use noclat_sim::journal::{self, fnv1a64, Journal};

/// Fingerprint pinned by `sweepd`-managed cache files. Unlike a sweep
/// journal (whose fingerprint digests the sweep arguments), a service cache
/// holds cells of *many* argument sets; each cell's key digests its full
/// request instead, and the file-level fingerprint only guards against
/// pointing the daemon at an unrelated journal.
#[must_use]
pub fn sweepd_cache_fingerprint() -> u64 {
    fnv1a64(b"sweepd v1")
}

/// Why a cache could not be opened or written.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CacheError {
    /// Another live process holds the write lock.
    Busy {
        /// The lock file that is in the way.
        lock: PathBuf,
        /// PID recorded in the lock file, when it parsed.
        holder: Option<u32>,
    },
    /// The underlying journal failed (bad header, fingerprint mismatch, IO).
    Journal(JournalError),
    /// Lock-file manipulation failed.
    Io(String),
}

impl std::fmt::Display for CacheError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CacheError::Busy { lock, holder } => match holder {
                Some(pid) => write!(
                    f,
                    "result cache is busy: {} held by live pid {pid}",
                    lock.display()
                ),
                None => write!(f, "result cache is busy: {} exists", lock.display()),
            },
            CacheError::Journal(e) => write!(f, "{e}"),
            CacheError::Io(msg) => write!(f, "cache lock: {msg}"),
        }
    }
}

impl std::error::Error for CacheError {}

impl From<JournalError> for CacheError {
    fn from(e: JournalError) -> CacheError {
        CacheError::Journal(e)
    }
}

/// A `--resume` journal is a cache with one writer: a busy or unlockable
/// file is a journal problem of the sweep (a usage error), like a
/// fingerprint mismatch.
impl From<CacheError> for SimError {
    fn from(e: CacheError) -> SimError {
        SimError::Journal(match e {
            CacheError::Journal(e) => e,
            busy_or_io => JournalError::Io(busy_or_io.to_string()),
        })
    }
}

/// The sidecar lock path of a cache file.
#[must_use]
pub fn lock_path(cache: &Path) -> PathBuf {
    let mut os = cache.as_os_str().to_os_string();
    os.push(".lock");
    PathBuf::from(os)
}

/// Whether the PID recorded in a lock file still names a live process.
/// Conservative: unparseable contents or an unsupported platform count as
/// live, so we never steal a lock we cannot prove stale.
fn holder_is_live(holder: Option<u32>) -> bool {
    let Some(pid) = holder else { return true };
    if cfg!(target_os = "linux") {
        Path::new(&format!("/proc/{pid}")).exists()
    } else {
        true
    }
}

/// Tries to create the lock file atomically, claiming it for this process.
/// A stale lock (holder provably dead) is removed and the claim retried
/// once; a live holder is reported as [`CacheError::Busy`].
fn acquire_lock(lock: &Path) -> Result<(), CacheError> {
    for attempt in 0..2 {
        match OpenOptions::new().write(true).create_new(true).open(lock) {
            Ok(mut f) => {
                // Best-effort: a lock file without a PID is still a lock
                // (it just can never be detected as stale).
                let _ = writeln!(f, "{}", std::process::id());
                let _ = f.flush();
                return Ok(());
            }
            Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                let holder = std::fs::read_to_string(lock)
                    .ok()
                    .and_then(|s| s.trim().parse::<u32>().ok());
                if attempt == 0 && !holder_is_live(holder) {
                    // Stale: the writer died without cleanup. Reclaim and
                    // retry the atomic create (racing reclaimers are fine —
                    // exactly one create_new wins).
                    let _ = std::fs::remove_file(lock);
                    continue;
                }
                return Err(CacheError::Busy {
                    lock: lock.to_path_buf(),
                    holder,
                });
            }
            Err(e) => {
                return Err(CacheError::Io(format!("{}: {e}", lock.display())));
            }
        }
    }
    unreachable!("second attempt either creates the lock or returns Busy");
}

/// A writable result cache: an open journal, its records indexed by key,
/// and the single-writer lock (released on drop).
#[derive(Debug)]
pub struct ResultCache {
    journal: Journal,
    lock: PathBuf,
    map: HashMap<u64, String>,
}

impl ResultCache {
    /// Opens (or creates) the cache at `path` for writing.
    ///
    /// # Errors
    ///
    /// [`CacheError::Busy`] when another live process holds the write lock,
    /// [`CacheError::Journal`] for fingerprint/format/IO problems with the
    /// cache file itself.
    pub fn open(path: &Path, fingerprint: u64) -> Result<ResultCache, CacheError> {
        let lock = lock_path(path);
        acquire_lock(&lock)?;
        match Journal::open(path, fingerprint) {
            Ok((journal, records)) => Ok(ResultCache {
                journal,
                lock,
                map: journal::as_map(records),
            }),
            Err(e) => {
                // Don't hold the lock for a cache we failed to open.
                let _ = std::fs::remove_file(&lock);
                Err(e.into())
            }
        }
    }

    /// Read-through lookup: the stored payload of `key`, if any.
    #[must_use]
    pub fn get(&self, key: u64) -> Option<&str> {
        self.map.get(&key).map(String::as_str)
    }

    /// Stores `payload` under `key`, durably (appended and flushed before
    /// returning) and visibly to subsequent [`ResultCache::get`] calls.
    ///
    /// # Errors
    ///
    /// [`CacheError::Journal`] on write failures; the in-memory entry is
    /// still updated so this process keeps serving the result it computed.
    pub fn insert(&mut self, key: u64, payload: &str) -> Result<(), CacheError> {
        let result = self.journal.append(key, payload).map_err(CacheError::from);
        self.map.insert(key, payload.to_string());
        result
    }

    /// Number of cached cells.
    #[must_use]
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing is cached.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The cache file's path.
    #[must_use]
    pub fn path(&self) -> &Path {
        self.journal.path()
    }
}

impl Drop for ResultCache {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.lock);
    }
}

/// Lock-free read-only snapshot of a cache file: the `key → payload` map of
/// its current valid prefix. A concurrent writer's torn final record is
/// dropped exactly as journal crash recovery drops it — readers only ever
/// see checksummed-complete records. A missing file is an empty cache.
///
/// # Errors
///
/// [`CacheError::Journal`] when the file exists but is not a journal or
/// pins a different fingerprint, [`CacheError::Io`] on read failures.
pub fn read_snapshot(path: &Path, fingerprint: u64) -> Result<HashMap<u64, String>, CacheError> {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(HashMap::new()),
        Err(e) => return Err(CacheError::Io(format!("{}: {e}", path.display()))),
    };
    if text.is_empty() {
        // A writer that just created the file may not have flushed the
        // header yet; an empty file is an empty cache, not corruption.
        return Ok(HashMap::new());
    }
    let scanned = journal::scan(&text)?;
    if scanned.fingerprint != fingerprint {
        return Err(CacheError::Journal(JournalError::FingerprintMismatch {
            expected: fingerprint,
            found: scanned.fingerprint,
        }));
    }
    Ok(journal::as_map(scanned.records))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("noclat-cache-test-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("cache.nj")
    }

    #[test]
    fn cache_roundtrips_and_rereads() {
        let path = tmp("roundtrip");
        let fp = sweepd_cache_fingerprint();
        {
            let mut cache = ResultCache::open(&path, fp).unwrap();
            assert!(cache.is_empty());
            assert_eq!(cache.get(7), None);
            cache.insert(7, "[1,2]").unwrap();
            cache.insert(9, "[3]").unwrap();
            assert_eq!(cache.get(7), Some("[1,2]"));
            assert_eq!(cache.len(), 2);
        }
        // Lock released on drop; reopening sees the same records.
        let cache = ResultCache::open(&path, fp).unwrap();
        assert_eq!(cache.get(7), Some("[1,2]"));
        assert_eq!(cache.get(9), Some("[3]"));
    }

    #[test]
    fn second_writer_gets_typed_busy() {
        let path = tmp("busy");
        let fp = sweepd_cache_fingerprint();
        let _first = ResultCache::open(&path, fp).unwrap();
        match ResultCache::open(&path, fp) {
            Err(CacheError::Busy { lock, holder }) => {
                assert_eq!(lock, lock_path(&path));
                assert_eq!(holder, Some(std::process::id()));
            }
            other => panic!("expected Busy, got {other:?}"),
        }
    }

    #[test]
    fn stale_lock_is_reclaimed() {
        let path = tmp("stale");
        let fp = sweepd_cache_fingerprint();
        // A lock whose holder is provably dead: PIDs cycle, but u32::MAX is
        // beyond the default pid_max on any Linux.
        std::fs::write(lock_path(&path), format!("{}\n", u32::MAX)).unwrap();
        let cache = ResultCache::open(&path, fp);
        assert!(cache.is_ok(), "stale lock must be reclaimed: {cache:?}");
    }

    #[test]
    fn snapshot_reads_valid_prefix_only() {
        let path = tmp("snapshot");
        let fp = sweepd_cache_fingerprint();
        {
            let mut cache = ResultCache::open(&path, fp).unwrap();
            cache.insert(1, "[10]").unwrap();
            cache.insert(2, "[20]").unwrap();
        }
        // Simulate a concurrent writer's torn final record.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(b"r 00000000000000ff 0000");
        std::fs::write(&path, &bytes).unwrap();
        let map = read_snapshot(&path, fp).unwrap();
        assert_eq!(map.len(), 2);
        assert_eq!(map.get(&1).map(String::as_str), Some("[10]"));
        // Missing file: empty cache.
        assert!(read_snapshot(Path::new("/nonexistent/cache.nj"), fp)
            .unwrap()
            .is_empty());
        // Wrong fingerprint: typed rejection.
        assert!(matches!(
            read_snapshot(&path, fp ^ 1),
            Err(CacheError::Journal(
                JournalError::FingerprintMismatch { .. }
            ))
        ));
    }
}
