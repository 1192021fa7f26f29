//! Disk-backed spill store for session checkpoints.
//!
//! A [`CheckpointStore`] is a directory of `KGSN` records, one per session
//! id. It is the persistence substrate of the registry's fault-tolerance
//! features:
//!
//! * **TTL/LRU eviction** — idle sessions are checkpointed here and
//!   dropped from memory; the next request revives them transparently.
//! * **Graceful drain** — shutdown checkpoints every live session so a
//!   restarted process recovers the full tenant set.
//! * **Write-through** — under [`crate::session::LifecyclePolicy`]
//!   `write_through`, every mutating request persists before returning,
//!   so an abrupt kill between requests loses nothing.
//!
//! The store moves opaque bytes. All structural validation happens in the
//! `KGSN` decoder when a record is revived, so a torn or corrupted record
//! surfaces as a typed [`kg_stats::codec::CodecError`] — never a panic,
//! never a partial session.
//!
//! # Two slots, rewritten in place
//!
//! Creating, linking or renaming a file costs several times more than
//! writing a record's bytes, so a save does none of them once a record
//! exists. A record lives in two *slot* files, `session-<id>.kgsn` and
//! `session-<id>.kgsn.1`. Each slot is a 28-byte header followed by the
//! record's bytes:
//!
//! | bytes  | field                                              |
//! |--------|----------------------------------------------------|
//! | 0..4   | magic `KGSL`                                       |
//! | 4..12  | sequence number, LE u64 (0 marks an empty slot)    |
//! | 12..20 | record length, LE u64                              |
//! | 20..28 | checksum of sequence, length and bytes, LE u64     |
//!
//! A save overwrites the slot that does not hold the newest valid
//! record, in place: first the record's bytes after the header, then the
//! header with the next sequence number. Bytes past a header's length are
//! ignored, so a slot file keeps the largest length it ever had. A load
//! takes the highest-sequence slot whose length fits the file and whose
//! checksum matches; a length is checked against the file's size before
//! anything is allocated. A record with no such slot reports
//! [`SpillError::Corrupt`]. The record exists while
//! [`CheckpointStore::path_for`] does: a second slot without it is not a
//! record.
//!
//! The store remembers which slot of each record it last saved or loaded
//! whole, so a later save or load of that record opens one slot file, not
//! both. A remembered slot that no longer passes its checks sends the
//! load back to reading both headers. Files rewritten by another process
//! while the store is open are otherwise not noticed: one process owns a
//! spill directory.
//!
//! # Crash semantics
//!
//! The newest header's slot is never written, so a process killed at any
//! step of a save leaves that slot whole: a load returns the previous
//! record until the new header lands, and the new one after. A process
//! kill therefore loses no acknowledged save. Nothing is fsynced, so a
//! machine crash may lose the last save: a load then falls back to the
//! older slot, or fails typed when neither slot survived. Saves and
//! loads of one record must not overlap; the registry serialises them
//! under the session's mutex. The id floor (`next-id`) is saved the same
//! way.
//!
//! # Older directories
//!
//! Older builds kept a bare `KGSN` record (or the floor's digits) at the
//! record's name, with `.a`/`.b` spare files or `.<pid>.tmp` temp files
//! beside it. A file at the record's name that does not start with the
//! slot magic is such a record and is loaded whole. The first save over
//! it writes the second slot, then stamps an empty slot header over the
//! old record's first bytes, which commits the new slot.
//! [`CheckpointStore::remove_orphaned_temps`] deletes the spares and temp
//! files at recovery.

use kg_stats::codec::CodecError;
use std::collections::HashMap;
use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Typed failures of the spill layer. Decode failures of the record
/// itself are *not* here — the store returns raw bytes and the session
/// decoder owns structural validation.
#[derive(Debug)]
pub enum SpillError {
    /// No spill file for the requested session id.
    Missing(u64),
    /// No slot of the record passes its length and checksum checks (a
    /// torn or tampered record).
    Corrupt(CodecError),
    /// Filesystem failure (permissions, disk full, vanished directory).
    Io(io::Error),
}

impl fmt::Display for SpillError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpillError::Missing(id) => write!(f, "no spill record for session {id}"),
            SpillError::Corrupt(e) => write!(f, "spill record: {e}"),
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

/// A directory of per-session `KGSN` spill records, each in two slot
/// files saved in place (see the module docs).
#[derive(Debug)]
pub struct CheckpointStore {
    dir: PathBuf,
    /// The newest valid slot of each record this store saved or loaded,
    /// so later saves and loads of it open one slot file, not both.
    newest: Mutex<HashMap<u64, Newest>>,
}

/// Name of the persisted id floor.
const ID_FLOOR: &str = "next-id";

/// Suffix of a record's second slot file.
const SECOND_SLOT: &str = "1";

/// Suffixes of the spare files older builds kept beside a record.
const LEGACY_SPARES: [&str; 2] = ["a", "b"];

/// Magic of a slot header; a bare `KGSN` record never starts with it.
const SLOT_MAGIC: [u8; 4] = *b"KGSL";

/// Bytes of a slot header: magic, sequence number, length, checksum.
const HEADER_LEN: usize = 28;

/// `path` with `.suffix` appended to its file name.
fn with_suffix(path: &Path, suffix: &str) -> PathBuf {
    let mut name = path.as_os_str().to_os_string();
    name.push(".");
    name.push(suffix);
    PathBuf::from(name)
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

/// Remove a file, returning whether it existed.
fn remove_if_present(path: &Path) -> io::Result<bool> {
    match fs::remove_file(path) {
        Ok(()) => Ok(true),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(false),
        Err(e) => Err(e),
    }
}

/// 64-bit checksum of a slot's sequence number and bytes. Four
/// independent multiply-rotate lanes over 32-byte blocks keep it near
/// memory speed; the length is folded into the seed, so zero padding of
/// the last block cannot alias a longer record.
fn checksum(seq: u64, bytes: &[u8]) -> u64 {
    const K: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut lanes = [seq, bytes.len() as u64, K, !K];
    let mut mix = |block: &[u8]| {
        for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            let word = u64::from_le_bytes(word.try_into().expect("8-byte chunk"));
            *lane = (*lane ^ word).wrapping_mul(K).rotate_left(31);
        }
    };
    let mut blocks = bytes.chunks_exact(32);
    for block in &mut blocks {
        mix(block);
    }
    let mut last = [0u8; 32];
    last[..blocks.remainder().len()].copy_from_slice(blocks.remainder());
    mix(&last);
    lanes.iter().fold(K, |h, &lane| {
        let h = (h ^ lane).wrapping_mul(K);
        h ^ (h >> 29)
    })
}

/// The header of a slot holding `bytes` under sequence number `seq`.
fn header(seq: u64, bytes: &[u8]) -> [u8; HEADER_LEN] {
    let mut out = [0u8; HEADER_LEN];
    out[..4].copy_from_slice(&SLOT_MAGIC);
    out[4..12].copy_from_slice(&seq.to_le_bytes());
    out[12..20].copy_from_slice(&(bytes.len() as u64).to_le_bytes());
    out[20..].copy_from_slice(&checksum(seq, bytes).to_le_bytes());
    out
}

/// The first bytes of an open slot file, up to a header's worth.
struct Head {
    bytes: [u8; HEADER_LEN],
    len: usize,
}

impl Head {
    fn read(file: &mut File) -> io::Result<Head> {
        let mut head = Head {
            bytes: [0; HEADER_LEN],
            len: 0,
        };
        while head.len < HEADER_LEN {
            match file.read(&mut head.bytes[head.len..]) {
                Ok(0) => break,
                Ok(n) => head.len += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(head)
    }

    /// Whether the file holds a bare record of an older build: bytes that
    /// do not start with the slot magic.
    fn is_legacy(&self) -> bool {
        self.len > 0 && (self.len < 4 || self.bytes[..4] != SLOT_MAGIC)
    }

    /// `(sequence, length, checksum)` of a complete slot header with a
    /// nonzero sequence number.
    fn fields(&self) -> Option<(u64, u64, u64)> {
        if self.len < HEADER_LEN || self.bytes[..4] != SLOT_MAGIC {
            return None;
        }
        let word = |at: usize| u64::from_le_bytes(self.bytes[at..at + 8].try_into().expect("8"));
        let seq = word(4);
        (seq != 0).then(|| (seq, word(12), word(20)))
    }

    /// Sequence number of the header, 0 for none.
    fn seq(&self) -> u64 {
        self.fields().map_or(0, |(seq, _, _)| seq)
    }
}

/// Open a file for reading and writing; `None` if it does not exist.
fn open_existing(path: &Path) -> io::Result<Option<File>> {
    match OpenOptions::new().read(true).write(true).open(path) {
        Ok(file) => Ok(Some(file)),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(e),
    }
}

/// Overwrite a slot in place: `bytes` after the header, then the header
/// that commits them.
fn write_slot(file: &mut File, seq: u64, bytes: &[u8]) -> io::Result<()> {
    file.seek(SeekFrom::Start(HEADER_LEN as u64))?;
    file.write_all(bytes)?;
    file.seek(SeekFrom::Start(0))?;
    file.write_all(&header(seq, bytes))
}

/// A record's two slot files: its own name and `<record>.1`.
fn slot_files(record: &Path) -> [PathBuf; 2] {
    [record.to_path_buf(), with_suffix(record, SECOND_SLOT)]
}

/// The newest valid slot of a record: its index in [`slot_files`] and its
/// sequence number.
type Newest = (usize, u64);

/// Where the next save of a record goes (see the module docs).
struct SaveTarget {
    /// The slot to overwrite.
    file: File,
    /// Its index in [`slot_files`].
    slot: usize,
    /// Its new sequence number.
    seq: u64,
    /// The record's first file, when it holds an older build's bare
    /// record: an empty slot header stamped over it commits the save.
    legacy: Option<File>,
}

impl SaveTarget {
    /// The target of a save when nothing is known about the record: the
    /// slot without the newest header, found by reading both headers.
    fn of(record: &Path) -> io::Result<SaveTarget> {
        let [first_path, second_path] = slot_files(record);
        let mut first = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(first_path)?;
        let head = Head::read(&mut first)?;
        let (second, second_seq) = match open_existing(&second_path)? {
            Some(mut file) => {
                let seq = Head::read(&mut file)?.seq();
                (Some(file), seq)
            }
            None => (None, 0),
        };
        let seq = head.seq().max(second_seq).saturating_add(1);
        let legacy = head.is_legacy();
        if !legacy && head.seq() <= second_seq {
            return Ok(SaveTarget {
                file: first,
                slot: 0,
                seq,
                legacy: None,
            });
        }
        let file = match second {
            Some(file) => file,
            None => File::create(&second_path)?,
        };
        Ok(SaveTarget {
            file,
            slot: 1,
            seq,
            legacy: legacy.then_some(first),
        })
    }

    /// The target of a save of a record whose newest valid slot is known:
    /// the other slot.
    fn after(record: &Path, (slot, seq): Newest) -> io::Result<SaveTarget> {
        let slot = 1 - slot;
        let file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(false)
            .open(&slot_files(record)[slot])?;
        Ok(SaveTarget {
            file,
            slot,
            seq: seq.saturating_add(1),
            legacy: None,
        })
    }

    fn write(mut self, bytes: &[u8]) -> io::Result<Newest> {
        write_slot(&mut self.file, self.seq, bytes)?;
        if let Some(mut first) = self.legacy {
            first.seek(SeekFrom::Start(0))?;
            first.write_all(&header(0, &[]))?;
        }
        Ok((self.slot, self.seq))
    }
}

/// A slot's sequence number and bytes, or `None` if its header's length
/// does not fit the file or its checksum does not match.
fn read_slot(file: &mut File, head: &Head) -> io::Result<Option<(u64, Vec<u8>)>> {
    let Some((seq, len, sum)) = head.fields() else {
        return Ok(None);
    };
    let room = file.metadata()?.len().saturating_sub(HEADER_LEN as u64);
    if len > room {
        return Ok(None);
    }
    let mut bytes = Vec::with_capacity(
        usize::try_from(len).expect("a length no larger than the file fits in memory"),
    );
    file.seek(SeekFrom::Start(HEADER_LEN as u64))?;
    file.take(len).read_to_end(&mut bytes)?;
    let valid = bytes.len() as u64 == len && checksum(seq, &bytes) == sum;
    Ok(valid.then_some((seq, bytes)))
}

/// A loaded record's bytes, with its newest slot unless it was an older
/// build's bare record.
type Loaded = (Option<Newest>, Vec<u8>);

/// Load `record`: the newest valid slot, or an older build's bare record
/// (see the module docs). `NotFound` when the record's first file is
/// absent.
fn load_record(record: &Path) -> io::Result<Result<Loaded, CodecError>> {
    let [first_path, second_path] = slot_files(record);
    let mut first = File::open(first_path)?;
    let head = Head::read(&mut first)?;
    if head.is_legacy() {
        let mut bytes = head.bytes[..head.len].to_vec();
        first.read_to_end(&mut bytes)?;
        return Ok(Ok((None, bytes)));
    }
    let mut slots = vec![(0, head, first)];
    match File::open(second_path) {
        Ok(mut second) => slots.push((1, Head::read(&mut second)?, second)),
        Err(e) if e.kind() == io::ErrorKind::NotFound => {}
        Err(e) => return Err(e),
    }
    slots.sort_by_key(|(_, head, _)| std::cmp::Reverse(head.seq()));
    for (slot, head, mut file) in slots {
        if let Some((seq, bytes)) = read_slot(&mut file, &head)? {
            return Ok(Ok((Some((slot, seq)), bytes)));
        }
    }
    Ok(Err(CodecError::Invalid {
        what: "no spill slot passes its length and checksum checks",
    }))
}

/// The bytes of slot `slot` of `record` if it is valid and still holds
/// sequence number `seq`.
fn load_known(record: &Path, (slot, seq): Newest) -> io::Result<Option<Vec<u8>>> {
    let mut file = File::open(&slot_files(record)[slot])?;
    let head = Head::read(&mut file)?;
    Ok(read_slot(&mut file, &head)?
        .filter(|(found, _)| *found == seq)
        .map(|(_, bytes)| bytes))
}

impl CheckpointStore {
    /// Open (creating if necessary) a spill directory.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(CheckpointStore {
            dir,
            newest: Mutex::new(HashMap::new()),
        })
    }

    /// The backing directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Path of a session's first slot file. The record exists while this
    /// file does.
    pub fn path_for(&self, id: u64) -> PathBuf {
        self.dir.join(format!("session-{id}.kgsn"))
    }

    /// Both slot files of a session's record, first slot first.
    pub fn slot_paths(&self, id: u64) -> [PathBuf; 2] {
        slot_files(&self.path_for(id))
    }

    fn known(&self, id: u64) -> Option<Newest> {
        let newest = self.newest.lock().expect("no store operation panics");
        newest.get(&id).copied()
    }

    fn remember(&self, id: u64, known: Option<Newest>) {
        let mut newest = self.newest.lock().expect("no store operation panics");
        match known {
            Some(known) => newest.insert(id, known),
            None => newest.remove(&id),
        };
    }

    /// Persist a session's checkpoint bytes by rewriting the record's
    /// older slot in place (see the module docs). Saves of one id must
    /// not overlap.
    pub fn save(&self, id: u64, bytes: &[u8]) -> io::Result<()> {
        let newest = self.target(id)?.write(bytes)?;
        self.remember(id, Some(newest));
        Ok(())
    }

    fn target(&self, id: u64) -> io::Result<SaveTarget> {
        let record = self.path_for(id);
        match self.known(id) {
            Some(known) => SaveTarget::after(&record, known),
            None => SaveTarget::of(&record),
        }
    }

    /// Load a session's checkpoint bytes from its newest valid slot.
    pub fn load(&self, id: u64) -> Result<Vec<u8>, SpillError> {
        let record = self.path_for(id);
        let loaded = match self.known(id) {
            Some(known) => match load_known(&record, known) {
                Ok(Some(bytes)) => return Ok(bytes),
                Ok(None) => load_record(&record),
                Err(e) => Err(e),
            },
            None => load_record(&record),
        };
        match loaded {
            Ok(Ok((known, bytes))) => {
                self.remember(id, known);
                Ok(bytes)
            }
            Ok(Err(e)) => {
                self.remember(id, None);
                Err(SpillError::Corrupt(e))
            }
            Err(e) => {
                self.remember(id, None);
                Err(match e.kind() {
                    io::ErrorKind::NotFound => SpillError::Missing(id),
                    _ => SpillError::Io(e),
                })
            }
        }
    }

    /// Whether a spill record exists for `id`.
    pub fn contains(&self, id: u64) -> bool {
        self.path_for(id).is_file()
    }

    /// Delete a session's spill record — both slots, and any spare files
    /// of older builds — returning whether the record existed.
    pub fn remove(&self, id: u64) -> io::Result<bool> {
        self.remember(id, None);
        let record = self.path_for(id);
        let existed = remove_if_present(&record)?;
        for suffix in LEGACY_SPARES.iter().chain([&SECOND_SLOT]) {
            remove_if_present(&with_suffix(&record, suffix))?;
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
        SaveTarget::of(&self.dir.join(ID_FLOOR))?.write(floor.to_string().as_bytes())?;
        Ok(())
    }

    /// The persisted id floor, if any. A missing, torn or unparseable
    /// floor is `None` — callers combine the floor with the scanned record
    /// ids, so absence degrades to the legacy scan-only behaviour.
    pub fn id_floor(&self) -> Option<u64> {
        let (_, bytes) = load_record(&self.dir.join(ID_FLOOR)).ok()?.ok()?;
        std::str::from_utf8(&bytes).ok()?.trim().parse().ok()
    }

    /// Session ids with a spill record, ascending. Ignores files that do
    /// not match the `session-<id>.kgsn` shape (second slots, editor
    /// droppings, older builds' spare and temp files).
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

    /// Delete the files that older builds' saves left beside records,
    /// returning how many were removed: spares (`session-<id>.kgsn.a`,
    /// `.b`, and the same for `next-id`) and the temp files of
    /// interrupted temp-file saves (`session-<id>.kgsn.<pid>.tmp` and
    /// `next-id.<pid>.tmp`). Temp files named with the calling process's
    /// pid are kept. Call it only while no other process writes to the
    /// directory, as recovery does. A file that cannot be removed is
    /// skipped.
    pub fn remove_orphaned_temps(&self) -> io::Result<usize> {
        let own = std::process::id().to_string();
        let mut removed = 0;
        for entry in fs::read_dir(&self.dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let orphan = match name.strip_suffix(".tmp").and_then(|n| n.rsplit_once('.')) {
                Some((target, pid)) => {
                    is_record_name(target) && pid.parse::<u32>().is_ok() && pid != own
                }
                None => name.rsplit_once('.').is_some_and(|(record, suffix)| {
                    LEGACY_SPARES.contains(&suffix) && is_record_name(record)
                }),
            };
            if orphan && fs::remove_file(entry.path()).is_ok() {
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

    /// A save of an older build that crashed between hard-linking the
    /// record to one spare name and renaming `written`, the other spare
    /// holding `unsaved`, over the record.
    fn plant_link_crash(store: &CheckpointStore, id: u64, written: usize, unsaved: &[u8]) {
        let record = store.path_for(id);
        let spares = LEGACY_SPARES.map(|suffix| with_suffix(&record, suffix));
        for spare in &spares {
            let _ = std::fs::remove_file(spare);
        }
        std::fs::write(&spares[written], unsaved).unwrap();
        std::fs::hard_link(&record, &spares[1 - written]).unwrap();
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

    /// How far a save got before its process was killed.
    #[derive(Debug, Clone, Copy)]
    enum Kill {
        /// The record's bytes cut after this many, the old header in place.
        Body(usize),
        /// All bytes written, no header.
        BeforeHeader,
        /// The header written; for a save over an older build's bare
        /// record, its commit stamp not yet.
        BeforeStamp,
        /// The whole save.
        Never,
    }

    /// Run a save of `bytes` as session 1 up to `kill`; returns whether it
    /// committed.
    fn save_until(store: &CheckpointStore, bytes: &[u8], kill: Kill) -> bool {
        let mut target = store.target(1).unwrap();
        let legacy = target.legacy.is_some();
        let file = &mut target.file;
        file.seek(SeekFrom::Start(HEADER_LEN as u64)).unwrap();
        match kill {
            Kill::Body(cut) => {
                file.write_all(&bytes[..cut.min(bytes.len())]).unwrap();
                false
            }
            Kill::BeforeHeader => {
                file.write_all(bytes).unwrap();
                false
            }
            Kill::BeforeStamp => {
                write_slot(file, target.seq, bytes).unwrap();
                !legacy
            }
            Kill::Never => {
                drop(target);
                store.save(1, bytes).unwrap();
                true
            }
        }
    }

    fn kill_from(step: u8, cut: usize) -> Kill {
        match step % 4 {
            0 => Kill::Body(cut),
            1 => Kill::BeforeHeader,
            2 => Kill::BeforeStamp,
            _ => Kill::Never,
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// A process killed at any step of a save leaves exactly the
        /// previous record or exactly the new one, and the next save
        /// completes over whatever the kill left — from slots or from an
        /// older build's bare record.
        #[test]
        fn a_kill_at_any_step_of_a_save_leaves_the_old_or_the_new_record(
            first in proptest::collection::vec(proptest::prelude::any::<u8>(), 1..300),
            legacy in proptest::prelude::any::<bool>(),
            saves in proptest::collection::vec(
                (
                    proptest::collection::vec(proptest::prelude::any::<u8>(), 0..300),
                    proptest::prelude::any::<u8>(),
                    proptest::prelude::any::<usize>(),
                ),
                1..12,
            ),
        ) {
            static CASE: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
            let case = CASE.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            let dir = scratch(&format!("kill-{case}"));
            let mut store = CheckpointStore::open(&dir).unwrap();
            if legacy {
                std::fs::write(store.path_for(1), &first).unwrap();
            } else {
                store.save(1, &first).unwrap();
            }
            let mut current = first;
            for (bytes, step, cut) in saves {
                let kill = kill_from(step, cut % (bytes.len() + 1));
                let committed = save_until(&store, &bytes, kill);
                if !matches!(kill, Kill::Never) {
                    // The killed process's successor opens the store afresh.
                    store = CheckpointStore::open(&dir).unwrap();
                }
                let loaded = store.load(1).unwrap();
                let want = if committed { &bytes } else { &current };
                proptest::prop_assert_eq!(&loaded, want, "after {:?}", kill);
                if !committed {
                    // The restarted process saves the same request again.
                    store.save(1, &bytes).unwrap();
                    proptest::prop_assert_eq!(store.load(1).unwrap(), bytes.clone());
                }
                current = bytes;
            }
            proptest::prop_assert_eq!(files_of(&dir, 1).len(), 2);
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn a_torn_newest_slot_falls_back_to_the_older_one() {
        let dir = scratch("torn-newest");
        let store = CheckpointStore::open(&dir).unwrap();
        let [first, second] = store.slot_paths(3);
        store.save(3, &[1; 500]).unwrap();
        store.save(3, &[2; 500]).unwrap();
        // A machine crash lost part of the newest slot's bytes.
        let mut torn = std::fs::read(&second).unwrap();
        torn[HEADER_LEN + 100] ^= 0xFF;
        std::fs::write(&second, &torn).unwrap();
        assert_eq!(store.load(3).unwrap(), vec![1; 500]);
        // Or cut it short of its header's length.
        std::fs::write(&second, &torn[..HEADER_LEN + 499]).unwrap();
        assert_eq!(store.load(3).unwrap(), vec![1; 500]);
        // The next save rewrites the torn slot and keeps the valid one.
        let valid = std::fs::read(&first).unwrap();
        store.save(3, &[3; 20]).unwrap();
        assert_eq!(store.load(3).unwrap(), vec![3; 20]);
        assert_eq!(std::fs::read(&first).unwrap(), valid);
        assert_eq!(
            CheckpointStore::open(&dir).unwrap().load(3).unwrap(),
            vec![3; 20]
        );
        // A restarted store finds the valid slot by the headers, then
        // saves past the torn one alike.
        let fresh = CheckpointStore::open(&dir).unwrap();
        std::fs::write(&second, &std::fs::read(&second).unwrap()[..HEADER_LEN + 10]).unwrap();
        assert_eq!(fresh.load(3).unwrap(), vec![1; 500]);
        fresh.save(3, &[4; 30]).unwrap();
        assert_eq!(std::fs::read(&first).unwrap(), valid);
        assert_eq!(fresh.load(3).unwrap(), vec![4; 30]);
        assert_eq!(
            CheckpointStore::open(&dir).unwrap().load(3).unwrap(),
            vec![4; 30]
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn both_torn_slots_fail_typed() {
        let dir = scratch("both-torn");
        let store = CheckpointStore::open(&dir).unwrap();
        store.save(4, b"older record").unwrap();
        store.save(4, b"newer record").unwrap();
        for slot in store.slot_paths(4) {
            let bytes = std::fs::read(&slot).unwrap();
            std::fs::write(&slot, &bytes[..bytes.len() - 3]).unwrap();
        }
        assert!(matches!(
            store.load(4),
            Err(SpillError::Corrupt(CodecError::Invalid { .. }))
        ));
        // Torn headers too: the magic survives, the rest does not.
        for slot in store.slot_paths(4) {
            std::fs::write(&slot, SLOT_MAGIC).unwrap();
        }
        assert!(matches!(store.load(4), Err(SpillError::Corrupt(_))));
        assert!(store.contains(4));
        assert!(store.remove(4).unwrap());
        assert!(files_of(&dir, 4).is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn header_lengths_past_the_file_fail_typed_without_allocating() {
        let dir = scratch("huge-length");
        let store = CheckpointStore::open(&dir).unwrap();
        let record = store.path_for(5);
        let body = [7u8; 64];
        for claimed in [u64::MAX, u64::MAX - HEADER_LEN as u64, 1 << 40, 65] {
            let mut slot = header(9, &body).to_vec();
            slot[12..20].copy_from_slice(&claimed.to_le_bytes());
            slot.extend_from_slice(&body);
            std::fs::write(&record, &slot).unwrap();
            assert!(
                matches!(store.load(5), Err(SpillError::Corrupt(_))),
                "length {claimed}"
            );
        }
        // The same slot with its true length loads.
        let mut slot = header(9, &body).to_vec();
        slot.extend_from_slice(&body);
        std::fs::write(&record, &slot).unwrap();
        assert_eq!(store.load(5).unwrap(), body);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_hundred_saves_rewrite_the_same_two_files() {
        let dir = scratch("hundred");
        let store = CheckpointStore::open(&dir).unwrap();
        store.save(8, b"first").unwrap();
        assert_eq!(files_of(&dir, 8), vec!["session-8.kgsn"]);
        store.save(8, b"second").unwrap();
        let names = vec!["session-8.kgsn".to_string(), "session-8.kgsn.1".to_string()];
        assert_eq!(files_of(&dir, 8), names);
        #[cfg(unix)]
        let inodes = || {
            use std::os::unix::fs::MetadataExt;
            store
                .slot_paths(8)
                .map(|slot| std::fs::metadata(slot).unwrap().ino())
        };
        #[cfg(unix)]
        let before = inodes();
        for round in 0..100usize {
            // Lengths grow, shrink and grow again.
            let payload = vec![round as u8; (round * 37) % 1500];
            store.save(8, &payload).unwrap();
            assert_eq!(store.load(8).unwrap(), payload);
        }
        assert_eq!(files_of(&dir, 8), names);
        let all: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
        assert_eq!(all.len(), 2, "no other file appears");
        #[cfg(unix)]
        assert_eq!(inodes(), before, "saves keep both slot inodes");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn an_older_builds_directory_loads_and_its_leftovers_are_swept() {
        let dir = scratch("legacy");
        std::fs::create_dir_all(&dir).unwrap();
        // Bare records, a bare floor, spares from killed rotations and a
        // killed temp-file save.
        std::fs::write(dir.join("session-2.kgsn"), b"KGSN bare two").unwrap();
        std::fs::write(dir.join("session-2.kgsn.a"), b"KGSN stale spare").unwrap();
        std::fs::write(dir.join("session-3.kgsn"), b"KGSN bare three").unwrap();
        std::fs::hard_link(dir.join("session-3.kgsn"), dir.join("session-3.kgsn.b")).unwrap();
        std::fs::write(dir.join("session-4.kgsn.a"), b"KGSN never saved").unwrap();
        std::fs::write(dir.join("next-id"), b"40").unwrap();
        std::fs::write(dir.join("next-id.b"), b"39").unwrap();
        let other = std::process::id().wrapping_add(1);
        std::fs::write(dir.join(format!("session-2.kgsn.{other}.tmp")), b"KGSN").unwrap();
        let store = CheckpointStore::open(&dir).unwrap();
        assert_eq!(store.ids().unwrap(), vec![2, 3]);
        assert_eq!(store.load(2).unwrap(), b"KGSN bare two");
        assert_eq!(store.load(3).unwrap(), b"KGSN bare three");
        assert_eq!(store.id_floor(), Some(40));
        assert_eq!(store.remove_orphaned_temps().unwrap(), 5);
        assert_eq!(files_of(&dir, 2), vec!["session-2.kgsn"]);
        assert_eq!(files_of(&dir, 3), vec!["session-3.kgsn"]);
        assert!(files_of(&dir, 4).is_empty());
        assert_eq!(store.load(3).unwrap(), b"KGSN bare three");
        // Saves over bare records move them into slots.
        for round in 0..3u8 {
            store.save(2, &[round; 9]).unwrap();
            assert_eq!(store.load(2).unwrap(), [round; 9]);
            store.record_id_floor(41 + u64::from(round)).unwrap();
            assert_eq!(store.id_floor(), Some(41 + u64::from(round)));
        }
        assert_eq!(files_of(&dir, 2).len(), 2);
        assert_eq!(store.load(3).unwrap(), b"KGSN bare three");
        assert_eq!(store.remove_orphaned_temps().unwrap(), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_spare_without_a_record_is_ignored_then_settled() {
        let dir = scratch("lone-spare");
        let store = CheckpointStore::open(&dir).unwrap();
        // An older build killed before a first save's rename, for a
        // session and the floor.
        std::fs::write(dir.join("session-9.kgsn.a"), b"unsaved").unwrap();
        std::fs::write(dir.join("next-id.b"), b"99").unwrap();
        assert!(matches!(store.load(9), Err(SpillError::Missing(9))));
        assert!(!store.contains(9));
        assert!(store.ids().unwrap().is_empty());
        assert_eq!(store.id_floor(), None);
        // The next save still succeeds and leaves the spare alone.
        store.save(9, b"first").unwrap();
        assert_eq!(store.load(9).unwrap(), b"first");
        assert_eq!(
            files_of(&dir, 9),
            vec!["session-9.kgsn", "session-9.kgsn.a"]
        );
        // Recovery deletes spares, with or without a record; foreign
        // files with a spare-like suffix stay.
        std::fs::write(dir.join("session-10.kgsn.b"), b"unsaved").unwrap();
        std::fs::write(dir.join("session-11.kgsn.a"), b"unsaved").unwrap();
        std::fs::write(dir.join("notes.a"), b"foreign").unwrap();
        assert_eq!(store.remove_orphaned_temps().unwrap(), 4);
        assert_eq!(files_of(&dir, 9), vec!["session-9.kgsn"]);
        assert!(files_of(&dir, 10).is_empty() && files_of(&dir, 11).is_empty());
        assert!(!dir.join("next-id.b").exists());
        assert!(dir.join("notes.a").exists());
        assert_eq!(store.load(9).unwrap(), b"first");
        assert_eq!(store.remove_orphaned_temps().unwrap(), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn doubled_unshared_spares_settle_to_one() {
        let dir = scratch("two-spares");
        let store = CheckpointStore::open(&dir).unwrap();
        store.save(4, b"record").unwrap();
        let record = store.path_for(4);
        let [a, b] = LEGACY_SPARES.map(|suffix| with_suffix(&record, suffix));
        std::fs::write(&a, b"spare a").unwrap();
        std::fs::write(&b, b"spare b").unwrap();
        store.record_id_floor(3).unwrap();
        store.record_id_floor(4).unwrap();
        // Both spares go; the record's one slot is all that is left.
        assert_eq!(store.remove_orphaned_temps().unwrap(), 2);
        assert_eq!(files_of(&dir, 4), vec!["session-4.kgsn"]);
        assert_eq!(store.load(4).unwrap(), b"record");
        assert_eq!(store.id_floor(), Some(4));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
