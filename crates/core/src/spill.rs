//! Disk-backed spill store for session checkpoints.
//!
//! A [`CheckpointStore`] is a directory of `KGSN` records, one file per
//! session id (`session-<id>.kgsn`). It is the persistence substrate of
//! the registry's fault-tolerance features:
//!
//! * **TTL/LRU eviction** — idle sessions are checkpointed here and
//!   dropped from memory; the next request revives them transparently.
//! * **Graceful drain** — shutdown checkpoints every live session so a
//!   restarted process recovers the full tenant set.
//! * **Write-through** — under [`crate::session::LifecyclePolicy`]
//!   `write_through`, every mutating request persists before returning,
//!   so an abrupt kill between requests loses nothing.
//!
//! The store itself is deliberately dumb: it moves opaque bytes. All
//! structural validation happens in the `KGSN` decoder when a record is
//! revived, so a torn or corrupted file surfaces as a typed
//! [`kg_stats::codec::CodecError`] — never a panic, never a partial
//! session. Writes go through [`kg_stats::atomicfile::write_atomic`]
//! (temp + rename), so a crash mid-save leaves the previous complete
//! record in place, plus an orphaned `<record>.<pid>.tmp` file that
//! [`CheckpointStore::remove_orphaned_temps`] deletes at recovery.

use std::fmt;
use std::io;
use std::path::{Path, PathBuf};

/// Typed failures of the spill layer. Decode failures are *not* here —
/// the store returns raw bytes and the session decoder owns structural
/// validation.
#[derive(Debug)]
pub enum SpillError {
    /// No spill file for the requested session id.
    Missing(u64),
    /// Filesystem failure (permissions, disk full, vanished directory).
    Io(io::Error),
}

impl fmt::Display for SpillError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpillError::Missing(id) => write!(f, "no spill record for session {id}"),
            SpillError::Io(e) => write!(f, "spill io: {e}"),
        }
    }
}

impl std::error::Error for SpillError {}

impl From<io::Error> for SpillError {
    fn from(e: io::Error) -> Self {
        SpillError::Io(e)
    }
}

/// A directory of per-session `KGSN` spill files with atomic writes.
#[derive(Debug)]
pub struct CheckpointStore {
    dir: PathBuf,
}

impl CheckpointStore {
    /// Open (creating if necessary) a spill directory.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(CheckpointStore { dir })
    }

    /// The backing directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Path of a session's spill file.
    pub fn path_for(&self, id: u64) -> PathBuf {
        self.dir.join(format!("session-{id}.kgsn"))
    }

    /// Persist a session's checkpoint bytes atomically.
    pub fn save(&self, id: u64, bytes: &[u8]) -> io::Result<()> {
        kg_stats::atomicfile::write_atomic(self.path_for(id), bytes)
    }

    /// Load a session's checkpoint bytes.
    pub fn load(&self, id: u64) -> Result<Vec<u8>, SpillError> {
        match std::fs::read(self.path_for(id)) {
            Ok(bytes) => Ok(bytes),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Err(SpillError::Missing(id)),
            Err(e) => Err(SpillError::Io(e)),
        }
    }

    /// Whether a spill record exists for `id`.
    pub fn contains(&self, id: u64) -> bool {
        self.path_for(id).is_file()
    }

    /// Delete a session's spill record, returning whether it existed.
    pub fn remove(&self, id: u64) -> io::Result<bool> {
        match std::fs::remove_file(self.path_for(id)) {
            Ok(()) => Ok(true),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(false),
            Err(e) => Err(e),
        }
    }

    /// Persist the id floor: the lowest session id a registry over this
    /// store may mint next. Written before a freshly minted id is handed
    /// out, so ids stay unique across crash/restart even when the spill
    /// records that would witness them are torn or deleted — a stale
    /// client handle must never alias a different tenant's session.
    pub fn record_id_floor(&self, floor: u64) -> io::Result<()> {
        kg_stats::atomicfile::write_atomic(self.dir.join("next-id"), floor.to_string().as_bytes())
    }

    /// The persisted id floor, if any. A missing or unparseable file is
    /// `None` — callers combine the floor with the scanned record ids, so
    /// absence degrades to the legacy scan-only behaviour.
    pub fn id_floor(&self) -> Option<u64> {
        let bytes = std::fs::read(self.dir.join("next-id")).ok()?;
        std::str::from_utf8(&bytes).ok()?.trim().parse().ok()
    }

    /// Session ids with a spill record, ascending. Ignores files that do
    /// not match the `session-<id>.kgsn` shape (editor droppings, temp
    /// files from an interrupted save).
    pub fn ids(&self) -> io::Result<Vec<u64>> {
        let mut out = Vec::new();
        for entry in std::fs::read_dir(&self.dir)? {
            let name = entry?.file_name();
            let Some(name) = name.to_str() else { continue };
            let Some(stem) = name
                .strip_prefix("session-")
                .and_then(|s| s.strip_suffix(".kgsn"))
            else {
                continue;
            };
            if let Ok(id) = stem.parse::<u64>() {
                out.push(id);
            }
        }
        out.sort_unstable();
        Ok(out)
    }

    /// Delete the temp files that saves interrupted by a crash left behind
    /// (`session-<id>.kgsn.<pid>.tmp` and `next-id.<pid>.tmp`), returning
    /// how many were removed. Temp files of the calling process are kept:
    /// they may belong to a save in flight. Call it only while no other
    /// process writes to the directory, as recovery does. A file that
    /// cannot be removed is skipped.
    pub fn remove_orphaned_temps(&self) -> io::Result<usize> {
        let own = std::process::id().to_string();
        let mut removed = 0;
        for entry in std::fs::read_dir(&self.dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let Some((target, pid)) = name
                .to_str()
                .and_then(|n| n.strip_suffix(".tmp"))
                .and_then(|n| n.rsplit_once('.'))
            else {
                continue;
            };
            let is_record = target
                .strip_prefix("session-")
                .and_then(|s| s.strip_suffix(".kgsn"))
                .is_some_and(|id| id.parse::<u64>().is_ok());
            if (is_record || target == "next-id")
                && pid.parse::<u32>().is_ok()
                && pid != own
                && std::fs::remove_file(entry.path()).is_ok()
            {
                removed += 1;
            }
        }
        Ok(removed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("kg-spill-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn save_load_remove_round_trip() {
        let dir = scratch("roundtrip");
        let store = CheckpointStore::open(&dir).unwrap();
        assert!(store.ids().unwrap().is_empty());
        store.save(7, b"KGSN-payload").unwrap();
        store.save(3, b"other").unwrap();
        assert_eq!(store.ids().unwrap(), vec![3, 7]);
        assert!(store.contains(7));
        assert_eq!(store.load(7).unwrap(), b"KGSN-payload");
        // Overwrite replaces in place.
        store.save(7, b"v2").unwrap();
        assert_eq!(store.load(7).unwrap(), b"v2");
        assert!(store.remove(7).unwrap());
        assert!(!store.remove(7).unwrap());
        assert!(matches!(store.load(7), Err(SpillError::Missing(7))));
        assert_eq!(store.ids().unwrap(), vec![3]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn id_floor_round_trips_and_tolerates_garbage() {
        let dir = scratch("idfloor");
        let store = CheckpointStore::open(&dir).unwrap();
        assert_eq!(store.id_floor(), None);
        store.record_id_floor(42).unwrap();
        assert_eq!(store.id_floor(), Some(42));
        store.record_id_floor(1000).unwrap();
        assert_eq!(store.id_floor(), Some(1000));
        // The floor file is not a session record.
        assert!(store.ids().unwrap().is_empty());
        // A torn/garbage floor degrades to absent, never an error.
        std::fs::write(dir.join("next-id"), b"\xFF\xFEnot a number").unwrap();
        assert_eq!(store.id_floor(), None);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn ids_ignore_foreign_and_temp_files() {
        let dir = scratch("foreign");
        let store = CheckpointStore::open(&dir).unwrap();
        store.save(12, b"x").unwrap();
        std::fs::write(dir.join("session-9.kgsn.1234.tmp"), b"torn").unwrap();
        std::fs::write(dir.join("notes.txt"), b"hi").unwrap();
        std::fs::write(dir.join("session-bogus.kgsn"), b"hi").unwrap();
        assert_eq!(store.ids().unwrap(), vec![12]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn orphaned_temps_are_removed_and_everything_else_kept() {
        let dir = scratch("orphans");
        let store = CheckpointStore::open(&dir).unwrap();
        store.save(4, b"record").unwrap();
        store.record_id_floor(5).unwrap();
        let other = std::process::id().wrapping_add(1);
        let own = std::process::id();
        let orphans = [
            format!("session-4.kgsn.{other}.tmp"),
            format!("session-17.kgsn.{other}.tmp"),
            format!("next-id.{other}.tmp"),
        ];
        let kept = [
            format!("session-4.kgsn.{own}.tmp"),
            "session-4.kgsn.notapid.tmp".to_string(),
            format!("notes.{other}.tmp"),
            "notes.txt".to_string(),
        ];
        for name in orphans.iter().chain(&kept) {
            std::fs::write(dir.join(name), b"torn").unwrap();
        }
        assert_eq!(store.remove_orphaned_temps().unwrap(), orphans.len());
        for name in &orphans {
            assert!(!dir.join(name).exists(), "{name} survived");
        }
        for name in &kept {
            assert!(dir.join(name).exists(), "{name} was removed");
        }
        assert_eq!(store.load(4).unwrap(), b"record");
        assert_eq!(store.id_floor(), Some(5));
        assert_eq!(store.remove_orphaned_temps().unwrap(), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
