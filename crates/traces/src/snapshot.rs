//! Versioned framed binary snapshots of predictor (and harness) state.
//!
//! The trace format of [`crate::format`] freezes *workloads*; this module
//! freezes *machines*. A snapshot is a self-describing byte string:
//!
//! ```text
//! magic "TAGS" (4) | version u32 LE (4) | spec digest u64 LE (8)
//! | sections… | checksum u64 LE (8)
//! ```
//!
//! where each section is a `u32 LE` length prefix followed by exactly that
//! many payload bytes, and the trailing checksum is the [`fnv1a64`] hash of
//! every preceding byte. The *spec digest* pins the snapshot to one exact
//! predictor shape (implementation name + every structural configuration
//! field), so restoring a gshare image into a perceptron — or into a gshare
//! of a different geometry — is rejected before any state is touched.
//!
//! Decoding mirrors [`crate::format::FormatError`]: every failure carries
//! the byte offset at which it was detected, and validation runs in a fixed
//! order (truncation → magic → version → spec digest → checksum → section
//! structure) so each corruption mode reports its own precise error.
//! Restores built on [`SnapshotReader`] are all-or-nothing by construction:
//! the reader borrows the bytes and hands out decoded values, and callers
//! commit them to live state only after the final [`SnapshotReader::finish`]
//! succeeds.
//!
//! Every file the workspace persists — campaign cells, warm-state
//! checkpoints, the daemon's journal — lives in a [`KeyedFiles`]
//! directory and goes to disk through its one atomic write.

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;
use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

/// Magic bytes opening every snapshot ("TAGe Snapshot").
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"TAGS";

/// Current snapshot format version.
pub const SNAPSHOT_VERSION: u32 = 1;

/// Byte length of the fixed header (magic + version + spec digest).
pub const SNAPSHOT_HEADER_BYTES: usize = 16;

/// Byte length of the trailing checksum.
pub const SNAPSHOT_CHECKSUM_BYTES: usize = 8;

const FNV_OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// The 64-bit FNV-1a hash of `bytes` — the workspace's standard digest for
/// snapshot checksums, predictor spec digests and warm-cache keys.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_extend(FNV_OFFSET_BASIS, bytes)
}

/// Extends the FNV-1a hash `hash` by `bytes`: `fnv1a64_extend(fnv1a64(a),
/// b)` equals `fnv1a64` of `a` followed by `b`, so a stream hashes chunk
/// by chunk.
pub fn fnv1a64_extend(mut hash: u64, bytes: &[u8]) -> u64 {
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// Atomically replaces `path` with `bytes`: they go to a process-unique
/// temp file in the same directory (`.<file name>.<pid>.<seq>.tmp`), are
/// written and synced, and the temp file is renamed into place. Readers
/// therefore see the old file or the complete new one, never a torn one,
/// and concurrent writers of the same path are harmless. On error the temp
/// file is removed.
///
/// # Errors
///
/// The first [`io::Error`] from creating, writing, syncing or renaming.
fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    static TEMP_SEQ: AtomicU64 = AtomicU64::new(0);
    let name = path.file_name().unwrap_or_default().to_string_lossy();
    let temp = path.with_file_name(format!(
        ".{name}.{}.{}.tmp",
        std::process::id(),
        TEMP_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let result = fs::File::create(&temp)
        .and_then(|mut file| {
            file.write_all(bytes)?;
            file.sync_all()
        })
        .and_then(|()| fs::rename(&temp, path));
    if result.is_err() {
        let _ = fs::remove_file(&temp);
    }
    result
}

/// A directory of files named `<key as 16 hex digits>.<extension>`, each
/// replaced whole (written to a synced temp file, then renamed into
/// place), with counters of the loads that found a usable file (hits) and
/// of those that did not (misses). Readers therefore see a file's old
/// bytes or its new ones, never a torn file, and concurrent writers of one
/// key are harmless. Each user keeps only its own framing and checks; see
/// [`KeyedFiles::load`].
#[derive(Debug)]
pub struct KeyedFiles {
    dir: PathBuf,
    extension: &'static str,
    /// Hits, then misses.
    loads: [AtomicU64; 2],
}

/// Hits and misses of every [`KeyedFiles`] this process loaded from, per
/// extension.
static LOADS: Mutex<BTreeMap<&'static str, [u64; 2]>> = Mutex::new(BTreeMap::new());

impl KeyedFiles {
    /// Opens (creating if needed) the directory `dir` of `.<extension>`
    /// files.
    ///
    /// # Errors
    ///
    /// The [`io::Error`] from creating the directory.
    pub fn new(dir: impl Into<PathBuf>, extension: &'static str) -> io::Result<KeyedFiles> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(KeyedFiles {
            dir,
            extension,
            loads: [AtomicU64::new(0), AtomicU64::new(0)],
        })
    }

    /// The directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The path of the file under `key`.
    pub fn path(&self, key: u64) -> PathBuf {
        self.dir.join(format!("{key:016x}.{}", self.extension))
    }

    /// Reads the file under `key` and hands its bytes to `decode`, which
    /// checks them and returns what they hold. A hit when the file was
    /// read and `decode` returned a value, a miss otherwise.
    pub fn load<T>(&self, key: u64, decode: impl FnOnce(Vec<u8>) -> Option<T>) -> Option<T> {
        let loaded = fs::read(self.path(key)).ok().and_then(decode);
        let outcome = usize::from(loaded.is_none());
        self.loads[outcome].fetch_add(1, Ordering::Relaxed);
        // Every update is one increment, so a poisoned map is still valid.
        let mut totals = LOADS.lock().unwrap_or_else(PoisonError::into_inner);
        totals.entry(self.extension).or_default()[outcome] += 1;
        loaded
    }

    /// Atomically replaces the file under `key` with `bytes`.
    ///
    /// # Errors
    ///
    /// The first [`io::Error`] from creating, writing, syncing or renaming
    /// the temp file, which is then removed.
    pub fn store(&self, key: u64, bytes: &[u8]) -> io::Result<()> {
        write_atomic(&self.path(key), bytes)
    }

    /// The keys of the directory's files, in ascending order. Names that
    /// [`KeyedFiles::path`] would not give (another extension, upper-case
    /// hex, a temp file) are not keys and are left out.
    ///
    /// # Errors
    ///
    /// The [`io::Error`] from reading the directory.
    pub fn keys(&self) -> io::Result<Vec<u64>> {
        let suffix = format!(".{}", self.extension);
        let mut keys: Vec<u64> = fs::read_dir(&self.dir)?
            .filter_map(|entry| {
                let name = entry.ok()?.file_name().into_string().ok()?;
                let key = u64::from_str_radix(name.strip_suffix(&suffix)?, 16).ok()?;
                (name == format!("{key:016x}{suffix}")).then_some(key)
            })
            .collect();
        keys.sort_unstable();
        Ok(keys)
    }

    /// Loads that found a usable file so far.
    pub fn hits(&self) -> u64 {
        self.loads[0].load(Ordering::Relaxed)
    }

    /// Loads that found no usable file so far.
    pub fn misses(&self) -> u64 {
        self.loads[1].load(Ordering::Relaxed)
    }

    /// `(hits, misses)` summed over every directory of `.<extension>`
    /// files this process has loaded from.
    pub fn process_counters(extension: &str) -> (u64, u64) {
        let totals = LOADS.lock().unwrap_or_else(PoisonError::into_inner);
        let [hits, misses] = totals.get(extension).copied().unwrap_or_default();
        (hits, misses)
    }
}

/// Everything that can go wrong decoding a snapshot. Every variant other
/// than `Io`, `BadMagic` and `UnsupportedVersion` carries the byte offset at
/// which the problem was detected.
#[derive(Debug)]
pub enum SnapshotError {
    /// The underlying reader or writer failed.
    Io(io::Error),
    /// The snapshot ended before the decoder was done: `offset` is where the
    /// bytes ran out.
    Truncated {
        /// Byte offset at which the snapshot ended prematurely.
        offset: usize,
    },
    /// The first four bytes are not [`SNAPSHOT_MAGIC`].
    BadMagic([u8; 4]),
    /// The header declares a version this build does not understand.
    UnsupportedVersion(u32),
    /// The snapshot was taken from a different predictor specification.
    SpecMismatch {
        /// Digest the restoring predictor expected.
        expected: u64,
        /// Digest found in the snapshot header.
        found: u64,
        /// Byte offset of the digest field (always 8).
        offset: usize,
    },
    /// The trailing checksum does not match the snapshot contents.
    BadChecksum {
        /// Checksum recomputed over the snapshot bytes.
        expected: u64,
        /// Checksum stored in the trailer.
        found: u64,
        /// Byte offset of the stored checksum.
        offset: usize,
    },
    /// A section's contents disagree with the shape the spec digest pinned.
    MalformedSection {
        /// Byte offset at which the mismatch was detected.
        offset: usize,
        /// Human-readable description of the mismatch.
        reason: String,
    },
    /// Decoding finished but payload bytes remain.
    TrailingBytes {
        /// Byte offset of the first unconsumed payload byte.
        offset: usize,
    },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(err) => write!(f, "snapshot I/O error: {err}"),
            SnapshotError::Truncated { offset } => {
                write!(f, "snapshot truncated at byte offset {offset}")
            }
            SnapshotError::BadMagic(magic) => {
                write!(f, "bad magic bytes {magic:?}, expected {SNAPSHOT_MAGIC:?}")
            }
            SnapshotError::UnsupportedVersion(version) => {
                write!(
                    f,
                    "unsupported snapshot version {version}, expected {SNAPSHOT_VERSION}"
                )
            }
            SnapshotError::SpecMismatch {
                expected,
                found,
                offset,
            } => write!(
                f,
                "snapshot was taken from a different predictor spec: expected digest \
                 {expected:#018x}, found {found:#018x} at byte offset {offset}"
            ),
            SnapshotError::BadChecksum {
                expected,
                found,
                offset,
            } => write!(
                f,
                "snapshot checksum mismatch at byte offset {offset}: computed {expected:#018x}, \
                 stored {found:#018x}"
            ),
            SnapshotError::MalformedSection { offset, reason } => {
                write!(
                    f,
                    "malformed snapshot section at byte offset {offset}: {reason}"
                )
            }
            SnapshotError::TrailingBytes { offset } => {
                write!(
                    f,
                    "snapshot holds unexpected trailing bytes at offset {offset}"
                )
            }
        }
    }
}

impl Error for SnapshotError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SnapshotError::Io(err) => Some(err),
            _ => None,
        }
    }
}

impl From<io::Error> for SnapshotError {
    fn from(err: io::Error) -> Self {
        SnapshotError::Io(err)
    }
}

/// Builds a snapshot byte string: header, length-prefixed sections, trailing
/// checksum.
///
/// # Example
///
/// ```
/// use tage_traces::snapshot::{fnv1a64, SnapshotReader, SnapshotWriter};
///
/// let digest = fnv1a64(b"toy spec v1");
/// let mut writer = SnapshotWriter::new(digest);
/// writer.begin_section();
/// writer.write_u64(0xDEAD_BEEF);
/// writer.write_i8(-3);
/// writer.end_section();
/// let bytes = writer.finish();
///
/// let mut reader = SnapshotReader::new(&bytes, digest).unwrap();
/// reader.begin_section().unwrap();
/// assert_eq!(reader.read_u64().unwrap(), 0xDEAD_BEEF);
/// assert_eq!(reader.read_i8().unwrap(), -3);
/// reader.end_section().unwrap();
/// reader.finish().unwrap();
/// ```
#[derive(Debug)]
pub struct SnapshotWriter {
    buf: Vec<u8>,
    /// Offset of the current section's length prefix, when one is open.
    section_start: Option<usize>,
}

impl SnapshotWriter {
    /// Starts a snapshot pinned to `spec_digest`.
    pub fn new(spec_digest: u64) -> Self {
        let mut buf = Vec::with_capacity(256);
        buf.extend_from_slice(&SNAPSHOT_MAGIC);
        buf.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        buf.extend_from_slice(&spec_digest.to_le_bytes());
        SnapshotWriter {
            buf,
            section_start: None,
        }
    }

    /// Opens a length-prefixed section. Sections do not nest.
    ///
    /// # Panics
    ///
    /// Panics if a section is already open.
    pub fn begin_section(&mut self) {
        assert!(
            self.section_start.is_none(),
            "snapshot sections do not nest"
        );
        self.section_start = Some(self.buf.len());
        self.buf.extend_from_slice(&0u32.to_le_bytes());
    }

    /// Closes the current section, patching its length prefix.
    ///
    /// # Panics
    ///
    /// Panics if no section is open or the section exceeds `u32::MAX` bytes.
    pub fn end_section(&mut self) {
        let start = self
            .section_start
            .take()
            .expect("end_section without begin_section");
        let len = self.buf.len() - start - 4;
        let len = u32::try_from(len).expect("snapshot section exceeds u32::MAX bytes");
        self.buf[start..start + 4].copy_from_slice(&len.to_le_bytes());
    }

    /// Appends a `u8`.
    pub fn write_u8(&mut self, value: u8) {
        self.buf.push(value);
    }

    /// Appends an `i8`.
    pub fn write_i8(&mut self, value: i8) {
        self.buf.push(value as u8);
    }

    /// Appends a `u16` (little endian).
    pub fn write_u16(&mut self, value: u16) {
        self.buf.extend_from_slice(&value.to_le_bytes());
    }

    /// Appends an `i16` (little endian).
    pub fn write_i16(&mut self, value: i16) {
        self.buf.extend_from_slice(&value.to_le_bytes());
    }

    /// Appends a `u32` (little endian).
    pub fn write_u32(&mut self, value: u32) {
        self.buf.extend_from_slice(&value.to_le_bytes());
    }

    /// Appends a `u64` (little endian).
    pub fn write_u64(&mut self, value: u64) {
        self.buf.extend_from_slice(&value.to_le_bytes());
    }

    /// Appends a `bool` as one byte.
    pub fn write_bool(&mut self, value: bool) {
        self.buf.push(u8::from(value));
    }

    /// Appends raw bytes with a `u32` length prefix.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` exceeds `u32::MAX` in length.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        let len = u32::try_from(bytes.len()).expect("snapshot blob exceeds u32::MAX bytes");
        self.write_u32(len);
        self.buf.extend_from_slice(bytes);
    }

    /// Seals the snapshot: appends the checksum and returns the bytes.
    ///
    /// # Panics
    ///
    /// Panics if a section is still open.
    pub fn finish(self) -> Vec<u8> {
        assert!(
            self.section_start.is_none(),
            "snapshot finished with an open section"
        );
        let mut buf = self.buf;
        let checksum = fnv1a64(&buf);
        buf.extend_from_slice(&checksum.to_le_bytes());
        buf
    }
}

/// Decodes a snapshot produced by [`SnapshotWriter`].
///
/// Construction validates, in order: overall truncation, magic, version,
/// spec digest, checksum. Per-value reads then walk the payload;
/// [`SnapshotReader::finish`] asserts every payload byte was consumed.
#[derive(Debug)]
pub struct SnapshotReader<'a> {
    bytes: &'a [u8],
    /// Next read position.
    pos: usize,
    /// End of the payload (exclusive of the checksum trailer).
    payload_end: usize,
    /// End of the open section, when one is open.
    section_end: Option<usize>,
}

impl<'a> SnapshotReader<'a> {
    /// Validates the framing of `bytes` against `expected_spec` and positions
    /// the reader at the first section.
    ///
    /// # Errors
    ///
    /// See [`SnapshotError`]; validation order is truncation → magic →
    /// version → spec digest → checksum.
    pub fn new(bytes: &'a [u8], expected_spec: u64) -> Result<Self, SnapshotError> {
        if bytes.len() < 4 {
            return Err(SnapshotError::Truncated {
                offset: bytes.len(),
            });
        }
        let magic: [u8; 4] = bytes[0..4].try_into().expect("4-byte slice");
        if magic != SNAPSHOT_MAGIC {
            return Err(SnapshotError::BadMagic(magic));
        }
        if bytes.len() < 8 {
            return Err(SnapshotError::Truncated {
                offset: bytes.len(),
            });
        }
        let version = u32::from_le_bytes(bytes[4..8].try_into().expect("4-byte slice"));
        if version != SNAPSHOT_VERSION {
            return Err(SnapshotError::UnsupportedVersion(version));
        }
        if bytes.len() < SNAPSHOT_HEADER_BYTES {
            return Err(SnapshotError::Truncated {
                offset: bytes.len(),
            });
        }
        let found = u64::from_le_bytes(bytes[8..16].try_into().expect("8-byte slice"));
        if found != expected_spec {
            return Err(SnapshotError::SpecMismatch {
                expected: expected_spec,
                found,
                offset: 8,
            });
        }
        if bytes.len() < SNAPSHOT_HEADER_BYTES + SNAPSHOT_CHECKSUM_BYTES {
            return Err(SnapshotError::Truncated {
                offset: bytes.len(),
            });
        }
        let payload_end = bytes.len() - SNAPSHOT_CHECKSUM_BYTES;
        let stored = u64::from_le_bytes(bytes[payload_end..].try_into().expect("8-byte slice"));
        let computed = fnv1a64(&bytes[..payload_end]);
        if stored != computed {
            return Err(SnapshotError::BadChecksum {
                expected: computed,
                found: stored,
                offset: payload_end,
            });
        }
        Ok(SnapshotReader {
            bytes,
            pos: SNAPSHOT_HEADER_BYTES,
            payload_end,
            section_end: None,
        })
    }

    /// The current read offset, for error reporting.
    pub fn offset(&self) -> usize {
        self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        let end = match self.section_end {
            Some(end) => end,
            None => self.payload_end,
        };
        if self.pos + n > end {
            return Err(SnapshotError::Truncated { offset: end });
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Opens the next length-prefixed section.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`] when no complete section remains, or
    /// [`SnapshotError::MalformedSection`] when a section is already open or
    /// the declared length runs past the payload.
    pub fn begin_section(&mut self) -> Result<(), SnapshotError> {
        if self.section_end.is_some() {
            return Err(SnapshotError::MalformedSection {
                offset: self.pos,
                reason: "section opened while another is still open".to_string(),
            });
        }
        if self.pos + 4 > self.payload_end {
            return Err(SnapshotError::Truncated {
                offset: self.payload_end,
            });
        }
        let len = u32::from_le_bytes(
            self.bytes[self.pos..self.pos + 4]
                .try_into()
                .expect("4-byte slice"),
        ) as usize;
        self.pos += 4;
        if self.pos + len > self.payload_end {
            return Err(SnapshotError::MalformedSection {
                offset: self.pos - 4,
                reason: format!("section length {len} runs past the snapshot payload"),
            });
        }
        self.section_end = Some(self.pos + len);
        Ok(())
    }

    /// Closes the current section, verifying it was consumed exactly.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::MalformedSection`] when no section is open or bytes
    /// remain unconsumed.
    pub fn end_section(&mut self) -> Result<(), SnapshotError> {
        let end = self
            .section_end
            .take()
            .ok_or(SnapshotError::MalformedSection {
                offset: self.pos,
                reason: "section closed while none is open".to_string(),
            })?;
        if self.pos != end {
            return Err(SnapshotError::MalformedSection {
                offset: self.pos,
                reason: format!("{} section bytes left unconsumed", end - self.pos),
            });
        }
        Ok(())
    }

    /// Reads a `u8`.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`] when the payload or section ends first.
    pub fn read_u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    /// Reads an `i8`.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`] when the payload or section ends first.
    pub fn read_i8(&mut self) -> Result<i8, SnapshotError> {
        Ok(self.take(1)?[0] as i8)
    }

    /// Reads a `u16` (little endian).
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`] when the payload or section ends first.
    pub fn read_u16(&mut self) -> Result<u16, SnapshotError> {
        Ok(u16::from_le_bytes(
            self.take(2)?.try_into().expect("2 bytes"),
        ))
    }

    /// Reads an `i16` (little endian).
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`] when the payload or section ends first.
    pub fn read_i16(&mut self) -> Result<i16, SnapshotError> {
        Ok(i16::from_le_bytes(
            self.take(2)?.try_into().expect("2 bytes"),
        ))
    }

    /// Reads a `u32` (little endian).
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`] when the payload or section ends first.
    pub fn read_u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    /// Reads a `u64` (little endian).
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`] when the payload or section ends first.
    pub fn read_u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Reads a `bool` encoded as one byte.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`] on exhaustion, or
    /// [`SnapshotError::MalformedSection`] when the byte is not 0 or 1.
    pub fn read_bool(&mut self) -> Result<bool, SnapshotError> {
        let offset = self.pos;
        match self.take(1)?[0] {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(SnapshotError::MalformedSection {
                offset,
                reason: format!("invalid bool byte {other:#04x}"),
            }),
        }
    }

    /// Reads a `u32`-length-prefixed byte blob written by
    /// [`SnapshotWriter::write_bytes`].
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`] when the payload or section ends first.
    pub fn read_bytes(&mut self) -> Result<&'a [u8], SnapshotError> {
        let len = self.read_u32()? as usize;
        self.take(len)
    }

    /// Finishes decoding, verifying the whole payload was consumed.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::MalformedSection`] when a section is still open, or
    /// [`SnapshotError::TrailingBytes`] when payload bytes remain.
    pub fn finish(self) -> Result<(), SnapshotError> {
        if self.section_end.is_some() {
            return Err(SnapshotError::MalformedSection {
                offset: self.pos,
                reason: "snapshot finished with an open section".to_string(),
            });
        }
        if self.pos != self.payload_end {
            return Err(SnapshotError::TrailingBytes { offset: self.pos });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(spec: u64) -> Vec<u8> {
        let mut w = SnapshotWriter::new(spec);
        w.begin_section();
        w.write_u64(0x0123_4567_89AB_CDEF);
        w.write_i8(-7);
        w.write_u16(513);
        w.end_section();
        w.begin_section();
        w.write_bool(true);
        w.write_bytes(b"blob");
        w.end_section();
        w.finish()
    }

    #[test]
    fn round_trip_reads_back_every_value() {
        let bytes = sample(42);
        let mut r = SnapshotReader::new(&bytes, 42).unwrap();
        r.begin_section().unwrap();
        assert_eq!(r.read_u64().unwrap(), 0x0123_4567_89AB_CDEF);
        assert_eq!(r.read_i8().unwrap(), -7);
        assert_eq!(r.read_u16().unwrap(), 513);
        r.end_section().unwrap();
        r.begin_section().unwrap();
        assert!(r.read_bool().unwrap());
        assert_eq!(r.read_bytes().unwrap(), b"blob");
        r.end_section().unwrap();
        r.finish().unwrap();
    }

    #[test]
    fn truncation_reports_the_cut_offset() {
        let bytes = sample(42);
        for cut in [0, 3, 7, 12, 20, bytes.len() - 1] {
            let err = SnapshotReader::new(&bytes[..cut], 42).unwrap_err();
            match err {
                SnapshotError::Truncated { offset } => assert!(offset <= cut, "cut {cut}"),
                SnapshotError::BadChecksum { .. } if cut > SNAPSHOT_HEADER_BYTES => {}
                other => panic!("cut {cut}: unexpected error {other:?}"),
            }
        }
    }

    #[test]
    fn bad_magic_is_detected_before_anything_else() {
        let mut bytes = sample(42);
        bytes[0] = b'X';
        assert!(matches!(
            SnapshotReader::new(&bytes, 42).unwrap_err(),
            SnapshotError::BadMagic([b'X', b'A', b'G', b'S'])
        ));
    }

    #[test]
    fn flipped_version_is_reported_as_version_not_checksum() {
        let mut bytes = sample(42);
        bytes[4] = 9;
        assert!(matches!(
            SnapshotReader::new(&bytes, 42).unwrap_err(),
            SnapshotError::UnsupportedVersion(9)
        ));
    }

    #[test]
    fn spec_mismatch_is_reported_at_offset_8() {
        let bytes = sample(42);
        let err = SnapshotReader::new(&bytes, 43).unwrap_err();
        assert!(matches!(
            err,
            SnapshotError::SpecMismatch {
                expected: 43,
                found: 42,
                offset: 8
            }
        ));
    }

    #[test]
    fn payload_corruption_is_a_checksum_error_at_the_trailer() {
        let mut bytes = sample(42);
        let victim = SNAPSHOT_HEADER_BYTES + 5;
        bytes[victim] ^= 0xFF;
        let trailer = bytes.len() - SNAPSHOT_CHECKSUM_BYTES;
        match SnapshotReader::new(&bytes, 42).unwrap_err() {
            SnapshotError::BadChecksum { offset, .. } => assert_eq!(offset, trailer),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn section_over_and_under_reads_are_structured_errors() {
        let bytes = sample(42);
        let mut r = SnapshotReader::new(&bytes, 42).unwrap();
        r.begin_section().unwrap();
        // Under-read: close with bytes left.
        assert!(matches!(
            r.end_section().unwrap_err(),
            SnapshotError::MalformedSection { .. }
        ));

        let mut r = SnapshotReader::new(&bytes, 42).unwrap();
        r.begin_section().unwrap();
        r.read_u64().unwrap();
        r.read_i8().unwrap();
        r.read_u16().unwrap();
        // Over-read: the section boundary stops the read.
        assert!(matches!(
            r.read_u64().unwrap_err(),
            SnapshotError::Truncated { .. }
        ));
    }

    #[test]
    fn finish_rejects_unconsumed_payload() {
        let bytes = sample(42);
        let mut r = SnapshotReader::new(&bytes, 42).unwrap();
        r.begin_section().unwrap();
        r.read_u64().unwrap();
        r.read_i8().unwrap();
        r.read_u16().unwrap();
        r.end_section().unwrap();
        assert!(matches!(
            r.finish().unwrap_err(),
            SnapshotError::TrailingBytes { .. }
        ));
    }

    #[test]
    fn write_atomic_replaces_files_and_cleans_up_on_error() {
        let dir = std::env::temp_dir().join(format!("tage-write-atomic-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("entry.cell");
        write_atomic(&path, b"first").unwrap();
        write_atomic(&path, b"second").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"second");
        let names = |dir: &Path| -> Vec<String> {
            fs::read_dir(dir)
                .unwrap()
                .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
                .collect()
        };
        assert_eq!(names(&dir), vec!["entry.cell".to_string()], "no temp left");
        // A rename onto a directory fails; the temp file must not linger.
        fs::create_dir(dir.join("blocked")).unwrap();
        assert!(write_atomic(&dir.join("blocked"), b"x").is_err());
        let mut left = names(&dir);
        left.sort();
        assert_eq!(left, vec!["blocked".to_string(), "entry.cell".to_string()]);
        // A vanished directory is an error, not a panic.
        fs::remove_dir_all(&dir).unwrap();
        assert!(write_atomic(&path, b"x").is_err());
    }

    #[test]
    fn keyed_files_store_load_count_and_list_only_keys() {
        let dir = std::env::temp_dir().join(format!("tage-keyed-files-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let files = KeyedFiles::new(dir.join("store"), "keyed-test").unwrap();
        assert_eq!(files.dir(), dir.join("store"));
        assert_eq!(
            files.path(7),
            dir.join("store").join("0000000000000007.keyed-test")
        );
        assert_eq!(files.load(7, Some), None);
        files.store(7, b"seven").unwrap();
        files.store(0xabc, b"x").unwrap();
        assert_eq!(files.load(7, Some).as_deref(), Some(&b"seven"[..]));
        // A file `decode` rejects is a miss.
        assert_eq!(files.load(7, |_| None::<()>), None);
        assert_eq!((files.hits(), files.misses()), (1, 2));
        assert_eq!(KeyedFiles::process_counters("keyed-test"), (1, 2));
        assert_eq!(KeyedFiles::process_counters("never-loaded"), (0, 0));
        // Only names `path` gives are keys.
        for name in [
            "00000000000000AB.keyed-test",
            "+000000000000007.keyed-test",
            "000000000000000007.keyed-test",
            "notes.keyed-test",
            "0000000000000009.other",
        ] {
            fs::write(dir.join("store").join(name), b"").unwrap();
        }
        assert_eq!(files.keys().unwrap(), vec![7, 0xabc]);
        fs::remove_dir_all(&dir).unwrap();
        assert!(files.keys().is_err());
        assert!(files.store(7, b"x").is_err());
    }

    #[test]
    fn fnv1a64_matches_reference_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
        assert_eq!(fnv1a64_extend(fnv1a64(b"foo"), b"bar"), fnv1a64(b"foobar"));
    }

    #[test]
    fn errors_display_their_offsets() {
        let text = format!("{}", SnapshotError::Truncated { offset: 17 });
        assert!(text.contains("17"));
        let text = format!(
            "{}",
            SnapshotError::BadChecksum {
                expected: 1,
                found: 2,
                offset: 99
            }
        );
        assert!(text.contains("99"));
    }
}
