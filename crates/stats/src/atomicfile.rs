//! Atomic file writes (temp + rename).
//!
//! Benchmark artifacts (`BENCH_*.json`, read by CI diffs) must never be
//! observed torn. [`write_atomic`] writes the payload to a process-unique
//! temp file in the target's directory and renames it over the
//! destination — on every platform we run, `rename` within one
//! filesystem replaces the target atomically, so readers observe either
//! the old file or the complete new one, never a prefix.
//!
//! Each call creates a file and frees the old one's inode, which costs
//! several times more than writing a small payload. Session spill
//! records, saved on every eviction, therefore do not use it: `kg_eval`'s
//! `CheckpointStore` rewrites one of two checksummed slot files per record
//! in place. Neither fsyncs.

use std::io;
use std::path::{Path, PathBuf};

/// Write `contents` to `path` atomically (temp file + rename). The temp
/// file lives next to the target (same filesystem, `.<pid>.tmp` suffix)
/// and is cleaned up if the rename fails.
pub fn write_atomic(path: impl AsRef<Path>, contents: impl AsRef<[u8]>) -> io::Result<()> {
    let path = path.as_ref();
    let mut tmp_name = path.as_os_str().to_os_string();
    tmp_name.push(format!(".{}.tmp", std::process::id()));
    let tmp = PathBuf::from(tmp_name);
    std::fs::write(&tmp, contents)?;
    std::fs::rename(&tmp, path).inspect_err(|_| {
        let _ = std::fs::remove_file(&tmp);
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("kg-stats-atomic-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn writes_and_replaces_without_leaving_temp_files() {
        let dir = scratch_dir("replace");
        let target = dir.join("BENCH_test.json");
        write_atomic(&target, "{\"v\": 1}\n").unwrap();
        assert_eq!(std::fs::read_to_string(&target).unwrap(), "{\"v\": 1}\n");
        // Overwrite an existing file, including binary payloads.
        write_atomic(&target, [0u8, 159, 146, 150]).unwrap();
        assert_eq!(std::fs::read(&target).unwrap(), vec![0u8, 159, 146, 150]);
        // No stray temp files remain.
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .filter(|n| n != "BENCH_test.json")
            .collect();
        assert!(leftovers.is_empty(), "leftovers: {leftovers:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failed_rename_cleans_up_and_preserves_the_old_file() {
        let dir = scratch_dir("fail");
        let target = dir.join("BENCH_old.json");
        write_atomic(&target, "old\n").unwrap();
        // A temp file that cannot be created: the parent is a file.
        let bad = target.join("nested.json");
        assert!(write_atomic(&bad, "new\n").is_err());
        assert_eq!(std::fs::read_to_string(&target).unwrap(), "old\n");
        // A rename that fails after the temp write: the target is a
        // directory. The temp file must be cleaned up.
        let blocked = dir.join("occupied");
        std::fs::create_dir(&blocked).unwrap();
        assert!(write_atomic(&blocked, "new\n").is_err());
        let mut entries: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        entries.sort();
        assert_eq!(
            entries,
            vec!["BENCH_old.json".to_string(), "occupied".to_string()]
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
