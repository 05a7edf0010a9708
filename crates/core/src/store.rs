//! Versioned on-disk persistence for the sweep-result cache.
//!
//! A resident `dae-serve` should not lose its warm cache to a restart:
//! with `--cache-dir` the session's [`SweepCache`](crate::SweepSession)
//! entries — keyed by the structural
//! [`TraceHash`](dae_trace::TraceHash), so they are meaningful in any
//! process — are appended to a log here as points finish and reloaded on
//! startup, letting a relaunched server answer a previously-served grid
//! without simulating a single point.
//!
//! ## Format
//!
//! One file, `sweep-cache.log`, inside the configured directory:
//!
//! ```text
//! header:  "DAECACHE" (8 bytes) · version u32 LE · endianness tag u32 LE
//! records: 8 × u64 LE each —
//!          hash_hi · hash_lo · machine · window · md · cycles ·
//!          cost_nanos · checksum
//! ```
//!
//! `machine` is 0/1/2 (DM / SWSM / scalar), `window` is the entry count or
//! `u64::MAX` for an unlimited window, and `checksum` is the Fx hash of
//! the record's first seven words.  Records are fixed-size and
//! self-checking, so loading is a single forward scan.
//!
//! ## Failure policy
//!
//! Loading never panics and never refuses to start the server.  A
//! missing file is an empty store; an unrecognized header (wrong magic,
//! version or endianness) abandons the file's contents; a record that
//! fails its checksum — a torn append, a truncated tail, flipped bits —
//! abandons the suffix from that record on.  Every abandonment is counted
//! (surfaced as `corrupt_records` in
//! [`CacheStats`](crate::CacheStats)) and the file is rewritten to the
//! valid prefix so subsequent appends land on a clean boundary.  This
//! module is designated in `dae-lint`'s panic-path rule: `.unwrap()`,
//! `.expect(…)`, `panic!` and `unreachable!` are banned here outright.

use crate::{Machine, WindowSpec};
use dae_isa::Cycle;
use dae_mem::FxHasher;
use dae_trace::TraceHash;
use std::fs::{self, File, OpenOptions};
use std::hash::Hasher;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// File magic: identifies a sweep-cache log.
const MAGIC: [u8; 8] = *b"DAECACHE";
/// Schema version; bumped on any layout change.  A mismatch abandons the
/// file (old figures are cheap to recompute; silent misreads are not).
const VERSION: u32 = 1;
/// Endianness canary: written little-endian, so a file produced on (or
/// mangled into) a different byte order fails the header check instead of
/// yielding garbage records.
const ENDIAN_TAG: u32 = 0x0102_0304;
const HEADER_LEN: usize = 16;
const RECORD_WORDS: usize = 8;
const RECORD_LEN: usize = RECORD_WORDS * 8;
/// The `window` word for [`WindowSpec::Unlimited`].
const WINDOW_UNLIMITED: u64 = u64::MAX;
/// The log's file name inside the store directory.
const STORE_FILE: &str = "sweep-cache.log";

/// One persisted cache entry: the structural key, the figure, and the
/// measured simulation cost the eviction policy weighs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreRecord {
    /// Structural content hash of the lowering.
    pub hash: TraceHash,
    /// The simulated machine.
    pub machine: Machine,
    /// The window configuration.
    pub window: WindowSpec,
    /// The memory differential.
    pub md: Cycle,
    /// The cached execution time.
    pub cycles: Cycle,
    /// Measured simulation time of the entry in nanoseconds (the
    /// cost-aware eviction weight).
    pub cost_nanos: u64,
}

impl StoreRecord {
    /// The record's canonical word encoding, checksum included.
    fn words(&self) -> [u64; RECORD_WORDS] {
        let (hash_hi, hash_lo) = self.hash.words();
        let machine = match self.machine {
            Machine::Decoupled => 0,
            Machine::Superscalar => 1,
            Machine::Scalar => 2,
        };
        let window = match self.window {
            WindowSpec::Entries(n) => n as u64,
            WindowSpec::Unlimited => WINDOW_UNLIMITED,
        };
        let mut words = [
            hash_hi,
            hash_lo,
            machine,
            window,
            self.md,
            self.cycles,
            self.cost_nanos,
            0,
        ];
        words[RECORD_WORDS - 1] = checksum(&words[..RECORD_WORDS - 1]);
        words
    }

    /// Decodes a record, rejecting checksum mismatches and out-of-range
    /// discriminants.
    fn from_words(words: &[u64; RECORD_WORDS]) -> Option<StoreRecord> {
        if checksum(&words[..RECORD_WORDS - 1]) != words[RECORD_WORDS - 1] {
            return None;
        }
        let machine = match words[2] {
            0 => Machine::Decoupled,
            1 => Machine::Superscalar,
            2 => Machine::Scalar,
            _ => return None,
        };
        let window = if words[3] == WINDOW_UNLIMITED {
            WindowSpec::Unlimited
        } else {
            WindowSpec::Entries(usize::try_from(words[3]).ok()?)
        };
        Some(StoreRecord {
            hash: TraceHash::from_words(words[0], words[1]),
            machine,
            window,
            md: words[4],
            cycles: words[5],
            cost_nanos: words[6],
        })
    }
}

/// What [`CacheStore::open`] recovered from disk.
#[derive(Debug)]
pub struct StoreLoad {
    /// Every intact record, in append order (later records for the same
    /// key supersede earlier ones when replayed into a map).
    pub records: Vec<StoreRecord>,
    /// Abandoned segments: 1 for an unrecognized header, plus 1 for a
    /// corrupt or truncated record suffix.  Zero on a clean load.
    pub corrupt_records: u64,
}

/// An open, append-positioned sweep-cache log.
#[derive(Debug)]
pub struct CacheStore {
    path: PathBuf,
    file: File,
}

impl CacheStore {
    /// The on-disk location of the log for a store rooted at `dir`
    /// (exposed so tests and tooling can inspect — or corrupt — it).
    #[must_use]
    pub fn location(dir: &Path) -> PathBuf {
        dir.join(STORE_FILE)
    }

    /// Opens the store in `dir` (creating the directory and an empty log
    /// as needed), returning the handle and everything intact on disk.
    ///
    /// If the file carried a corrupt suffix or an unrecognized header it
    /// is rewritten to the valid prefix, so the returned handle always
    /// appends on a clean record boundary.
    pub fn open(dir: &Path) -> io::Result<(CacheStore, StoreLoad)> {
        fs::create_dir_all(dir)?;
        let path = CacheStore::location(dir);
        let (load, clean) = match fs::read(&path) {
            Ok(bytes) => parse(&bytes),
            Err(error) if error.kind() == io::ErrorKind::NotFound => (
                StoreLoad {
                    records: Vec::new(),
                    corrupt_records: 0,
                },
                false,
            ),
            Err(error) => return Err(error),
        };
        let file = if clean {
            OpenOptions::new().append(true).open(&path)?
        } else {
            rewrite(&path, &load.records)?
        };
        Ok((CacheStore { path, file }, load))
    }

    /// Appends one record to the log.
    pub fn append(&mut self, record: &StoreRecord) -> io::Result<()> {
        let mut bytes = Vec::with_capacity(RECORD_LEN);
        encode_into(record, &mut bytes);
        self.file.write_all(&bytes)
    }

    /// Rewrites the log to exactly `records` (tmp file + rename, so a
    /// crash mid-compaction leaves the previous log intact).  Called with
    /// the resident set on shutdown — dropping entries that were
    /// superseded or evicted — and with an empty set on `clear`.
    pub(crate) fn compact(&mut self, records: &[StoreRecord]) -> io::Result<()> {
        self.file = rewrite(&self.path, records)?;
        Ok(())
    }
}

/// Fx checksum over a record's payload words.
fn checksum(words: &[u64]) -> u64 {
    let mut hasher = FxHasher::default();
    for &word in words {
        hasher.write_u64(word);
    }
    hasher.finish()
}

/// Serializes one record onto the end of `out`.
fn encode_into(record: &StoreRecord, out: &mut Vec<u8>) {
    for word in record.words() {
        out.extend_from_slice(&word.to_le_bytes());
    }
}

/// Reads the little-endian u64 at word `index` of `chunk` (zero-padded;
/// callers only pass full records).
fn word_at(chunk: &[u8], index: usize) -> u64 {
    let mut bytes = [0u8; 8];
    for (offset, byte) in bytes.iter_mut().enumerate() {
        *byte = match chunk.get(index * 8 + offset) {
            Some(&value) => value,
            None => 0,
        };
    }
    u64::from_le_bytes(bytes)
}

/// Parses a log image.  Returns the recovered load and whether the file
/// was wholly clean (header valid, no abandoned suffix) — if not, the
/// caller rewrites the file to the valid prefix.
fn parse(bytes: &[u8]) -> (StoreLoad, bool) {
    let header_ok = bytes.len() >= HEADER_LEN
        && bytes[..8] == MAGIC
        && word_at(&bytes[8..12], 0) as u32 == VERSION
        && word_at(&bytes[12..16], 0) as u32 == ENDIAN_TAG;
    if !header_ok {
        return (
            StoreLoad {
                records: Vec::new(),
                corrupt_records: 1,
            },
            false,
        );
    }
    let body = &bytes[HEADER_LEN..];
    let mut records = Vec::with_capacity(body.len() / RECORD_LEN);
    let mut corrupt_records = 0u64;
    let mut offset = 0;
    while offset + RECORD_LEN <= body.len() {
        let chunk = &body[offset..offset + RECORD_LEN];
        let mut words = [0u64; RECORD_WORDS];
        for (index, word) in words.iter_mut().enumerate() {
            *word = word_at(chunk, index);
        }
        match StoreRecord::from_words(&words) {
            Some(record) => records.push(record),
            // A failed checksum means the suffix cannot be trusted:
            // abandon it (counted once) rather than resynchronize.
            None => {
                corrupt_records += 1;
                offset = body.len();
                break;
            }
        }
        offset += RECORD_LEN;
    }
    if offset < body.len() {
        // Truncated tail: a partial record from an interrupted append.
        corrupt_records += 1;
    }
    let clean = corrupt_records == 0;
    (
        StoreLoad {
            records,
            corrupt_records,
        },
        clean,
    )
}

/// Writes `header + records` to a temporary file and renames it over
/// `path`, returning an append-positioned handle to the new file.
fn rewrite(path: &Path, records: &[StoreRecord]) -> io::Result<File> {
    let tmp = path.with_extension("log.tmp");
    let mut bytes = Vec::with_capacity(HEADER_LEN + records.len() * RECORD_LEN);
    bytes.extend_from_slice(&MAGIC);
    bytes.extend_from_slice(&VERSION.to_le_bytes());
    bytes.extend_from_slice(&ENDIAN_TAG.to_le_bytes());
    for record in records {
        encode_into(record, &mut bytes);
    }
    fs::write(&tmp, &bytes)?;
    fs::rename(&tmp, path)?;
    OpenOptions::new().append(true).open(path)
}
