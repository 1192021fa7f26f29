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
//! session.
//!
//! # Saves rotate a retained spare
//!
//! Creating and freeing an inode costs several times more than writing a
//! record's bytes, so a save creates no file once a record exists. Each
//! record keeps one *spare* file under one of two alternating names,
//! `<record>.a` or `<record>.b`. A save of `<record>`:
//!
//! 1. overwrites the spare in place from offset 0, first cutting it to
//!    the record's length when it is longer, so no stale tail survives;
//! 2. hard-links the current record's inode to the other spare name;
//! 3. renames the spare over `<record>`.
//!
//! The old record's inode is then the next save's spare, so a spilled
//! session costs two files on disk. `rename` within one directory is
//! atomic, so [`CheckpointStore::path_for`] names a complete record at
//! every step, and a process killed mid-save leaves the previous
//! complete record in place. A kill leaves one of three states, each
//! safe to save over and cleaned up by
//! [`CheckpointStore::settle_spares`] at recovery:
//!
//! * a torn spare (killed in step 1): the next save overwrites it whole;
//! * both spare names present, one of them another name of the record's
//!   inode (killed between steps 2 and 3): a save never writes into a
//!   spare that has a second name, it unlinks that name instead;
//! * a spare with no record (killed before a first save's rename).
//!
//! Nothing is fsynced: a kill of the process loses no acknowledged save,
//! but a machine crash may. Saves of one record must not overlap; the
//! registry serialises them under the session's mutex. The id floor
//! (`next-id`) rotates the same way. Directories written by older builds
//! may hold `<record>.<pid>.tmp` files of interrupted temp-file saves;
//! [`CheckpointStore::remove_orphaned_temps`] deletes them at recovery.

use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
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

/// A directory of per-session `KGSN` spill files with atomic saves.
#[derive(Debug)]
pub struct CheckpointStore {
    dir: PathBuf,
}

/// Suffixes of a record's two alternating spare names.
const SPARES: [&str; 2] = ["a", "b"];

/// Name of the persisted id floor.
const ID_FLOOR: &str = "next-id";

/// The two spare paths of a record: `<record>.a` and `<record>.b`.
fn spare_paths(record: &Path) -> [PathBuf; 2] {
    SPARES.map(|suffix| {
        let mut name = record.as_os_str().to_os_string();
        name.push(".");
        name.push(suffix);
        PathBuf::from(name)
    })
}

/// Whether `name` is a record this store writes (`session-<id>.kgsn` or
/// the id floor).
fn is_record_name(name: &str) -> bool {
    name == ID_FLOOR || session_id(name).is_some()
}

/// The session id of a `session-<id>.kgsn` file name.
fn session_id(name: &str) -> Option<u64> {
    name.strip_prefix("session-")?
        .strip_suffix(".kgsn")?
        .parse()
        .ok()
}

/// Number of names of a file's inode. Where the platform does not report
/// it, every spare counts as shared, so saves recreate it.
#[cfg(unix)]
fn link_count(meta: &fs::Metadata) -> u64 {
    std::os::unix::fs::MetadataExt::nlink(meta)
}

#[cfg(not(unix))]
fn link_count(_meta: &fs::Metadata) -> u64 {
    u64::MAX
}

/// Remove a file, returning whether it existed.
fn remove_if_present(path: &Path) -> io::Result<bool> {
    match fs::remove_file(path) {
        Ok(()) => Ok(true),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(false),
        Err(e) => Err(e),
    }
}

/// Open a spare for overwriting, with its current length; `None` if it
/// does not exist. A spare with a second name — the record's inode after a
/// kill between link and rename — is unlinked and reported absent, since
/// writing into it would tear the record in place.
fn open_spare(path: &Path) -> io::Result<Option<(File, u64)>> {
    let file = match OpenOptions::new().write(true).open(path) {
        Ok(file) => file,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    };
    let meta = file.metadata()?;
    if link_count(&meta) == 1 {
        return Ok(Some((file, meta.len())));
    }
    fs::remove_file(path)?;
    Ok(None)
}

/// Replace `record` with `bytes` by rotating its spare (see the module
/// docs). `record` names the old complete file, or none, until the final
/// rename names the new one.
fn rotate_in(record: &Path, bytes: &[u8]) -> io::Result<()> {
    let [a, b] = spare_paths(record);
    let (mut file, len, spare, other) = match open_spare(&a)? {
        Some((file, len)) => (file, len, a, b),
        None => match open_spare(&b)? {
            Some((file, len)) => (file, len, b, a),
            None => (File::create(&a)?, 0, a, b),
        },
    };
    // Only a longer old spare needs cutting: a write extends a shorter one.
    if len > bytes.len() as u64 {
        file.set_len(bytes.len() as u64)?;
    }
    file.write_all(bytes)?;
    drop(file);
    match fs::hard_link(record, &other) {
        Ok(()) => {}
        // A first save: there is no record to keep as the next spare.
        Err(e) if e.kind() == io::ErrorKind::NotFound => {}
        // Left by a kill between link and rename, or a failed rename.
        Err(e) if e.kind() == io::ErrorKind::AlreadyExists => {
            fs::remove_file(&other)?;
            fs::hard_link(record, &other)?;
        }
        Err(e) => return Err(e),
    }
    fs::rename(&spare, record)
}

impl CheckpointStore {
    /// Open (creating if necessary) a spill directory.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(CheckpointStore { dir })
    }

    /// The backing directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Path of a session's spill file. It names a complete record, or
    /// none, at every step of a save.
    pub fn path_for(&self, id: u64) -> PathBuf {
        self.dir.join(format!("session-{id}.kgsn"))
    }

    /// Persist a session's checkpoint bytes atomically, by rotating the
    /// record's spare file (see the module docs). Saves of one id must
    /// not overlap.
    pub fn save(&self, id: u64, bytes: &[u8]) -> io::Result<()> {
        rotate_in(&self.path_for(id), bytes)
    }

    /// Load a session's checkpoint bytes.
    pub fn load(&self, id: u64) -> Result<Vec<u8>, SpillError> {
        match fs::read(self.path_for(id)) {
            Ok(bytes) => Ok(bytes),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Err(SpillError::Missing(id)),
            Err(e) => Err(SpillError::Io(e)),
        }
    }

    /// Whether a spill record exists for `id`.
    pub fn contains(&self, id: u64) -> bool {
        self.path_for(id).is_file()
    }

    /// Delete a session's spill record and its spare files, returning
    /// whether the record existed.
    pub fn remove(&self, id: u64) -> io::Result<bool> {
        let record = self.path_for(id);
        let existed = remove_if_present(&record)?;
        for spare in spare_paths(&record) {
            remove_if_present(&spare)?;
        }
        Ok(existed)
    }

    /// Persist the id floor: the lowest session id a registry over this
    /// store may mint next. Written before a freshly minted id is handed
    /// out, so ids stay unique across crash/restart even when the spill
    /// records that would witness them are torn or deleted — a stale
    /// client handle must never alias a different tenant's session. Saves
    /// of the floor must not overlap.
    pub fn record_id_floor(&self, floor: u64) -> io::Result<()> {
        rotate_in(&self.dir.join(ID_FLOOR), floor.to_string().as_bytes())
    }

    /// The persisted id floor, if any. A missing or unparseable file is
    /// `None` — callers combine the floor with the scanned record ids, so
    /// absence degrades to the legacy scan-only behaviour.
    pub fn id_floor(&self) -> Option<u64> {
        let bytes = fs::read(self.dir.join(ID_FLOOR)).ok()?;
        std::str::from_utf8(&bytes).ok()?.trim().parse().ok()
    }

    /// Session ids with a spill record, ascending. Ignores files that do
    /// not match the `session-<id>.kgsn` shape (editor droppings, spare
    /// files, temp files from an interrupted save).
    pub fn ids(&self) -> io::Result<Vec<u64>> {
        let mut out = Vec::new();
        for entry in fs::read_dir(&self.dir)? {
            if let Some(id) = entry?.file_name().to_str().and_then(session_id) {
                out.push(id);
            }
        }
        out.sort_unstable();
        Ok(out)
    }

    /// Resolve the spare files that saves killed part-way left behind,
    /// returning how many were removed: a spare whose record is gone, a
    /// spare that shares its inode with another name (a kill between link
    /// and rename), and the `.b` spare while a `.a` one remains. Each
    /// record is left with at most one spare, holding no other file's
    /// data. Call it only while no other process writes to the
    /// directory, as recovery does. A file that cannot be removed is
    /// skipped.
    pub fn settle_spares(&self) -> io::Result<usize> {
        let mut spares = Vec::new();
        for entry in fs::read_dir(&self.dir)? {
            let name = entry?.file_name();
            let Some((record, suffix)) = name.to_str().and_then(|n| n.rsplit_once('.')) else {
                continue;
            };
            if SPARES.contains(&suffix) && is_record_name(record) {
                spares.push((record.to_string(), suffix.to_string()));
            }
        }
        // `.a` before `.b` of the same record.
        spares.sort_unstable();
        let mut removed = 0;
        for (record, suffix) in spares {
            let record = self.dir.join(record);
            let [a, b] = spare_paths(&record);
            let (spare, rival) = if suffix == SPARES[0] {
                (a, None)
            } else {
                (b, Some(a))
            };
            let stale = !record.is_file()
                || !fs::metadata(&spare).is_ok_and(|meta| link_count(&meta) == 1)
                || rival.is_some_and(|a| a.exists());
            if stale && fs::remove_file(&spare).is_ok() {
                removed += 1;
            }
        }
        Ok(removed)
    }

    /// Delete the temp files that older builds' temp-file saves left
    /// behind when a crash interrupted them (`session-<id>.kgsn.<pid>.tmp`
    /// and `next-id.<pid>.tmp`), returning how many were removed. Temp
    /// files named with the calling process's pid are kept. Call it only
    /// while no other process writes to the directory, as recovery does.
    /// A file that cannot be removed is skipped.
    pub fn remove_orphaned_temps(&self) -> io::Result<usize> {
        let own = std::process::id().to_string();
        let mut removed = 0;
        for entry in fs::read_dir(&self.dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let Some((target, pid)) = name
                .to_str()
                .and_then(|n| n.strip_suffix(".tmp"))
                .and_then(|n| n.rsplit_once('.'))
            else {
                continue;
            };
            if is_record_name(target)
                && pid.parse::<u32>().is_ok()
                && pid != own
                && fs::remove_file(entry.path()).is_ok()
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

    /// Names of the files in `dir` that belong to session `id`, sorted.
    fn files_of(dir: &Path, id: u64) -> Vec<String> {
        let record = format!("session-{id}.kgsn");
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .filter(|n| n.starts_with(&record))
            .collect();
        names.sort();
        names
    }

    /// A save that crashed between hard-linking the record to `linked`
    /// and renaming `written`, which holds `unsaved`, over the record.
    fn plant_link_crash(store: &CheckpointStore, id: u64, written: usize, unsaved: &[u8]) {
        let record = store.path_for(id);
        let spares = spare_paths(&record);
        for spare in &spares {
            let _ = std::fs::remove_file(spare);
        }
        std::fs::write(&spares[written], unsaved).unwrap();
        std::fs::hard_link(&record, &spares[1 - written]).unwrap();
    }

    #[test]
    fn saves_rotate_two_inodes_and_keep_one_spare() {
        let dir = scratch("rotate");
        let store = CheckpointStore::open(&dir).unwrap();
        store.save(8, b"first").unwrap();
        assert_eq!(files_of(&dir, 8), vec!["session-8.kgsn"]);
        for round in 0..6u8 {
            store.save(8, &[round; 40]).unwrap();
            assert_eq!(store.load(8).unwrap(), vec![round; 40]);
            assert_eq!(files_of(&dir, 8).len(), 2, "record plus one spare");
            assert!(files_of(&dir, 8).contains(&"session-8.kgsn".to_string()));
        }
        #[cfg(unix)]
        {
            use std::os::unix::fs::MetadataExt;
            let ino = || std::fs::metadata(store.path_for(8)).unwrap().ino();
            let first = ino();
            store.save(8, b"x").unwrap();
            let second = ino();
            store.save(8, b"y").unwrap();
            assert_ne!(first, second);
            assert_eq!(ino(), first, "a save reuses the spare's inode");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn shorter_and_longer_records_load_byte_exact() {
        let dir = scratch("lengths");
        let store = CheckpointStore::open(&dir).unwrap();
        let payloads: [Vec<u8>; 6] = [
            vec![1; 4096],
            vec![2; 4096],
            vec![3; 7],
            vec![],
            vec![5; 9000],
            b"tail".to_vec(),
        ];
        for payload in &payloads {
            store.save(2, payload).unwrap();
            assert_eq!(&store.load(2).unwrap(), payload);
        }
        store.record_id_floor(123456).unwrap();
        store.record_id_floor(7).unwrap();
        assert_eq!(store.id_floor(), Some(7), "no stale digits survive");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_torn_spare_is_overwritten_whole() {
        let dir = scratch("torn-spare");
        let store = CheckpointStore::open(&dir).unwrap();
        store.save(3, b"old record").unwrap();
        store.save(3, b"complete record").unwrap();
        // Killed while writing the spare: a prefix of a longer record.
        let [a, b] = spare_paths(&store.path_for(3));
        let spare = if a.exists() { a } else { b };
        std::fs::write(&spare, vec![0xEE; 100]).unwrap();
        assert_eq!(store.load(3).unwrap(), b"complete record");
        assert_eq!(store.ids().unwrap(), vec![3]);
        store.save(3, b"next").unwrap();
        assert_eq!(store.load(3).unwrap(), b"next");
        store.save(3, b"after").unwrap();
        assert_eq!(store.load(3).unwrap(), b"after");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_kill_between_link_and_rename_leaves_the_record_intact() {
        for written in 0..2 {
            let dir = scratch(&format!("doubled-{written}"));
            let store = CheckpointStore::open(&dir).unwrap();
            store.save(6, b"acknowledged").unwrap();
            store.save(6, b"acknowledged twice").unwrap();
            plant_link_crash(&store, 6, written, b"never acknowledged");
            assert_eq!(files_of(&dir, 6).len(), 3);
            assert_eq!(store.load(6).unwrap(), b"acknowledged twice");
            assert_eq!(store.ids().unwrap(), vec![6]);
            // The next saves must not write through the spare name that
            // shares the record's inode.
            for payload in [&b"resumed"[..], b"resumed again", b"and again"] {
                store.save(6, payload).unwrap();
                assert_eq!(store.load(6).unwrap(), payload);
                assert_eq!(files_of(&dir, 6).len(), 2);
            }
            // Settling the same state instead leaves one unshared spare.
            plant_link_crash(&store, 6, written, b"never acknowledged");
            assert_eq!(store.settle_spares().unwrap(), 1);
            assert_eq!(files_of(&dir, 6).len(), 2);
            assert_eq!(store.load(6).unwrap(), b"and again");
            store.save(6, b"settled").unwrap();
            assert_eq!(store.load(6).unwrap(), b"settled");
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn a_spare_without_a_record_is_ignored_then_settled() {
        let dir = scratch("lone-spare");
        let store = CheckpointStore::open(&dir).unwrap();
        // Killed before a first save's rename, for a session and the floor.
        std::fs::write(dir.join("session-9.kgsn.a"), b"unsaved").unwrap();
        std::fs::write(dir.join("next-id.b"), b"99").unwrap();
        assert!(matches!(store.load(9), Err(SpillError::Missing(9))));
        assert!(!store.contains(9));
        assert!(store.ids().unwrap().is_empty());
        assert_eq!(store.id_floor(), None);
        // The next save still succeeds, reusing the spare.
        store.save(9, b"first").unwrap();
        assert_eq!(store.load(9).unwrap(), b"first");
        assert_eq!(files_of(&dir, 9), vec!["session-9.kgsn"]);
        // Recovery deletes spares whose record is gone.
        std::fs::write(dir.join("session-10.kgsn.b"), b"unsaved").unwrap();
        std::fs::write(dir.join("session-11.kgsn.a"), b"unsaved").unwrap();
        std::fs::write(dir.join("notes.a"), b"foreign").unwrap();
        assert_eq!(store.settle_spares().unwrap(), 3);
        assert!(files_of(&dir, 10).is_empty() && files_of(&dir, 11).is_empty());
        assert!(!dir.join("next-id.b").exists());
        assert!(dir.join("notes.a").exists());
        assert_eq!(store.load(9).unwrap(), b"first");
        assert_eq!(store.settle_spares().unwrap(), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn doubled_unshared_spares_settle_to_one() {
        let dir = scratch("two-spares");
        let store = CheckpointStore::open(&dir).unwrap();
        store.save(4, b"record").unwrap();
        let [a, b] = spare_paths(&store.path_for(4));
        std::fs::write(&a, b"spare a").unwrap();
        std::fs::write(&b, b"spare b").unwrap();
        store.record_id_floor(3).unwrap();
        store.record_id_floor(4).unwrap();
        assert_eq!(store.settle_spares().unwrap(), 1);
        assert!(a.exists() && !b.exists());
        assert_eq!(store.load(4).unwrap(), b"record");
        assert_eq!(store.id_floor(), Some(4));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn remove_leaves_no_file_of_the_id() {
        let dir = scratch("remove-spares");
        let store = CheckpointStore::open(&dir).unwrap();
        for payload in [&b"one"[..], b"two", b"three"] {
            store.save(5, payload).unwrap();
        }
        store.save(15, b"other").unwrap();
        plant_link_crash(&store, 5, 0, b"unsaved");
        assert!(store.remove(5).unwrap());
        assert!(files_of(&dir, 5).is_empty());
        assert_eq!(store.load(15).unwrap(), b"other");
        // Spares alone are removed too, and the record reported absent.
        std::fs::write(dir.join("session-5.kgsn.b"), b"unsaved").unwrap();
        assert!(!store.remove(5).unwrap());
        assert!(files_of(&dir, 5).is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
