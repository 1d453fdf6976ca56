//! The resumable result cache: JSONL records keyed by a stable hash.
//!
//! Each completed cell is appended to the cache file as one self-contained
//! JSON line `{"v", "key", "exp", "cell", "salt", "out"}`. The lookup key
//! is an FNV-1a hash of `(experiment id, cell key, code-version salt)`:
//!
//! * the **experiment id** and **cell key** pin the record to one grid
//!   point of one table;
//! * the **salt** is derived at build time from the source of every
//!   experiment and sweep module (see `build.rs`), so editing any
//!   experiment automatically invalidates the whole cache — stale results
//!   can never leak into a regenerated table.
//!
//! Appends happen as each cell finishes (under a file lock), so an
//! interrupted `run_all` resumes from exactly the cells it completed.
//! Unparseable or foreign lines are skipped on load, which makes the file
//! safe to share between `--quick` and full-size runs (their cell keys
//! differ) and across code versions (their salts differ).

use std::collections::HashMap;
use std::io::Write as _;
use std::path::Path;

use aem_machine::Backend;
use aem_obs::json::{parse, Field};
use aem_obs::json_table;

use super::value::CellOut;

/// Cache line format version. Version 2 stores a cell's fields as one JSON
/// object (floats as `{:?}` strings) in place of version 1's
/// `[name, tag, value]` triples.
const CACHE_VERSION: u64 = 2;

json_table! {
    /// One cache line.
    struct Line {
        v: u64,
        key: String,
        exp: String,
        cell: String,
        backend: String,
        salt: String,
        out: CellOut,
    }
}

/// The build-time code-version salt: a hash of every `src/exp/*` and
/// `src/sweep/*` source file, computed by `build.rs`. Editing any
/// experiment changes the salt and therefore invalidates every cached
/// cell.
pub fn code_salt() -> &'static str {
    env!("AEM_SWEEP_SALT")
}

/// The stable cache key of a cell: FNV-1a over
/// `(experiment id, cell key, storage backend, salt)`, hex-encoded. The
/// backend is part of the key because the build-time salt only covers the
/// bench sources: a ghost run must never be served a cell simulated on the
/// payload-carrying `vec` backend (or vice versa), even though their cell
/// keys and grids coincide.
pub fn cell_hash(exp_id: &str, cell_key: &str, backend: Backend, salt: &str) -> String {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for chunk in [
        exp_id.as_bytes(),
        b"\x00",
        cell_key.as_bytes(),
        b"\x00",
        backend.name().as_bytes(),
        b"\x00",
        salt.as_bytes(),
    ] {
        for &b in chunk {
            h ^= b as u64;
            h = h.wrapping_mul(PRIME);
        }
    }
    format!("{h:016x}")
}

/// An in-memory view of a cache file: hash → cached cell output.
#[derive(Debug, Default)]
pub struct Cache {
    entries: HashMap<String, CellOut>,
}

impl Cache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Load a cache file, skipping lines that fail to parse (partial
    /// writes from an interrupted run, records from other versions). A
    /// missing file loads as an empty cache.
    pub fn load(path: &Path) -> Self {
        let mut cache = Cache::new();
        let Ok(text) = std::fs::read_to_string(path) else {
            return cache;
        };
        for line in text.lines() {
            // Blank and torn lines fail to parse and are skipped with the rest.
            let line = parse(line).map_err(|e| e.to_string());
            if let Ok(l) = line.and_then(|j| Line::from_json(&j)) {
                if l.v == CACHE_VERSION {
                    cache.entries.insert(l.key, l.out);
                }
            }
        }
        cache
    }

    /// Look up a cell by its hash.
    pub fn get(&self, hash: &str) -> Option<&CellOut> {
        self.entries.get(hash)
    }

    /// Number of cached cells.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if no cells are cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Render one cache line (no trailing newline).
pub fn record_line(
    exp_id: &str,
    cell_key: &str,
    backend: Backend,
    salt: &str,
    out: &CellOut,
) -> String {
    Line {
        v: CACHE_VERSION,
        key: cell_hash(exp_id, cell_key, backend, salt),
        exp: exp_id.to_string(),
        cell: cell_key.to_string(),
        backend: backend.name().to_string(),
        salt: salt.to_string(),
        out: out.clone(),
    }
    .to_json()
    .to_string_compact()
}

/// An append handle on a cache file; each append is one flushed line, so
/// an interrupted run leaves at most one torn record (which `load` skips).
#[derive(Debug)]
pub struct CacheWriter {
    file: std::fs::File,
}

impl CacheWriter {
    /// Open (creating parent directories as needed) for appending. With
    /// `fresh`, the file is truncated first — the `--fresh` invalidation.
    pub fn open(path: &Path, fresh: bool) -> std::io::Result<Self> {
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(!fresh)
            .write(true)
            .truncate(fresh)
            .open(path)?;
        Ok(Self { file })
    }

    /// Append one completed cell.
    pub fn append(
        &mut self,
        exp_id: &str,
        cell_key: &str,
        backend: Backend,
        salt: &str,
        out: &CellOut,
    ) -> std::io::Result<()> {
        let mut line = record_line(exp_id, cell_key, backend, salt, out);
        line.push('\n');
        self.file.write_all(line.as_bytes())?;
        self.file.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("aem-sweep-cache-{}-{name}", std::process::id()))
    }

    #[test]
    fn hash_is_stable_and_sensitive() {
        let h = cell_hash("T1a", "n=4096", Backend::Vec, "salt-1");
        assert_eq!(h, cell_hash("T1a", "n=4096", Backend::Vec, "salt-1"));
        assert_ne!(h, cell_hash("T1b", "n=4096", Backend::Vec, "salt-1"));
        assert_ne!(h, cell_hash("T1a", "n=8192", Backend::Vec, "salt-1"));
        assert_ne!(h, cell_hash("T1a", "n=4096", Backend::Vec, "salt-2"));
        // The separator prevents concatenation collisions.
        assert_ne!(
            cell_hash("ab", "c", Backend::Vec, "s"),
            cell_hash("a", "bc", Backend::Vec, "s")
        );
    }

    #[test]
    fn hash_is_backend_sensitive() {
        // A ghost run must never be served a cached vec cell: every pair of
        // distinct backends keys to a distinct hash for the same cell.
        for a in Backend::ALL {
            for b in Backend::ALL {
                let ha = cell_hash("T5N", "n=1024", a, "s");
                let hb = cell_hash("T5N", "n=1024", b, "s");
                assert_eq!(a == b, ha == hb, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn append_then_load_round_trips() {
        let path = tmp("roundtrip.jsonl");
        std::fs::remove_file(&path).ok();
        let out = CellOut::new().with_u64("q", 42).with_f64("norm", 1.5);
        let mut w = CacheWriter::open(&path, false).unwrap();
        w.append("T1a", "n=4096", Backend::Vec, "s", &out).unwrap();
        drop(w);
        let cache = Cache::load(&path);
        assert_eq!(cache.len(), 1);
        assert_eq!(
            cache.get(&cell_hash("T1a", "n=4096", Backend::Vec, "s")),
            Some(&out)
        );
        assert!(cache
            .get(&cell_hash("T1a", "n=4096", Backend::Vec, "other"))
            .is_none());
        assert!(cache
            .get(&cell_hash("T1a", "n=4096", Backend::Ghost, "s"))
            .is_none());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn fresh_truncates_and_torn_lines_are_skipped() {
        let path = tmp("fresh.jsonl");
        std::fs::remove_file(&path).ok();
        let out = CellOut::new().with_u64("q", 1);
        let mut w = CacheWriter::open(&path, false).unwrap();
        w.append("T", "a", Backend::Vec, "s", &out).unwrap();
        drop(w);
        // Simulate a torn write from an interrupted run.
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("{\"v\":1,\"key\":\"torn");
        std::fs::write(&path, &text).unwrap();
        let cache = Cache::load(&path);
        assert_eq!(cache.len(), 1);

        let w = CacheWriter::open(&path, true).unwrap();
        drop(w);
        assert!(Cache::load(&path).is_empty());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_empty() {
        assert!(Cache::load(&tmp("never-created.jsonl")).is_empty());
    }
}
