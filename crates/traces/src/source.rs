//! Streaming branch-record sources: out-of-core trace ingestion.
//!
//! The simulation stack used to demand a fully materialized
//! [`Trace`] (`Vec<BranchRecord>`) before a single prediction ran, which
//! caps the workload size at available memory. [`BranchSource`] replaces
//! that contract with a chunked pull API — [`BranchSource::next_batch`]
//! fills a caller-provided buffer and returns how many records it wrote —
//! so the engine only ever holds one bounded batch of records at a time.
//!
//! Three production sources cover the workload spectrum:
//!
//! * [`SliceSource`] — zero-copy adapter over an existing in-memory trace
//!   (this is what `SimEngine::run(&Trace)` wraps);
//! * [`BinaryFileSource`] — buffered chunked reader over the on-disk binary
//!   format of [`crate::writer::TraceWriter`], holding exactly one
//!   fixed-size chunk in memory regardless of file size, with corrupt and
//!   truncated records reported at their byte offset;
//! * [`SyntheticSource`] — generates a [`crate::suites::TraceSpec`]-style
//!   workload on the fly through [`crate::synthetic::StreamCursor`], bit-
//!   identical to the materialized generator but without the up-front
//!   `Vec<Trace>`.
//!
//! [`Take`] bounds any source to a record budget (the building block of
//! phase-sampled slices and gap replays), and [`SourceSpec`] / [`SourceSuite`]
//! describe *how to open* sources so suite and campaign runners can re-open
//! independent streams per worker.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{ErrorKind, Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, PoisonError};
use std::time::SystemTime;

use crate::decoder::{self, DecodedSource};
use crate::format::{decode_record, FormatError, RECORD_BYTES};
use crate::reader::read_binary_header;
use crate::record::BranchRecord;
use crate::snapshot::{fnv1a64, fnv1a64_extend};
use crate::suites::{Suite, TraceSpec};
use crate::synthetic::{StreamCursor, SyntheticProgram, WorkloadProfile};
use crate::trace::Trace;

/// A stream of [`BranchRecord`]s consumed in caller-sized batches.
///
/// Implementations hand out records strictly in trace order;
/// [`next_batch`](BranchSource::next_batch) returning `Ok(0)` (with a
/// non-empty buffer) signals the end of the stream.
/// [`reset`](BranchSource::reset) rewinds to the first record, so one
/// source can drive several runs.
///
/// # Example
///
/// ```
/// use tage_traces::source::{BranchSource, SliceSource};
/// use tage_traces::{BranchRecord, Trace};
///
/// let trace = Trace::from_records(
///     "toy",
///     (0..10u64).map(|i| BranchRecord::conditional(0x1000 + 4 * i, i % 2 == 0)),
/// );
/// let mut source = SliceSource::from_trace(&trace);
/// assert_eq!(source.len_hint(), Some(10));
///
/// let mut batch = [BranchRecord::default(); 4];
/// let mut total = 0;
/// loop {
///     let filled = source.next_batch(&mut batch).unwrap();
///     if filled == 0 {
///         break;
///     }
///     total += filled;
/// }
/// assert_eq!(total, 10);
///
/// source.reset().unwrap();
/// assert_eq!(source.next_batch(&mut batch).unwrap(), 4);
/// ```
pub trait BranchSource {
    /// A stable name for the stream (trace name, file header name, ...).
    fn name(&self) -> &str;

    /// Fills the front of `buf` with the next records of the stream and
    /// returns how many were written. `Ok(0)` means the stream is exhausted
    /// (provided `buf` is non-empty).
    ///
    /// # Errors
    ///
    /// Returns a [`FormatError`] when the backing store fails or holds a
    /// corrupt record; in-memory and synthetic sources never fail.
    fn next_batch(&mut self, buf: &mut [BranchRecord]) -> Result<usize, FormatError>;

    /// Rewinds the stream to its first record.
    ///
    /// # Errors
    ///
    /// Returns a [`FormatError`] when the backing store cannot seek.
    fn reset(&mut self) -> Result<(), FormatError>;

    /// Total number of records the stream will yield, when cheaply known.
    fn len_hint(&self) -> Option<u64> {
        None
    }

    /// Skips up to `n` records, returning how many were actually skipped
    /// (less than `n` only when the stream ends first). The default pulls
    /// and discards batches; seekable sources override this with O(1)
    /// repositioning.
    ///
    /// # Errors
    ///
    /// Returns a [`FormatError`] when the underlying pulls fail.
    fn skip_records(&mut self, n: u64) -> Result<u64, FormatError> {
        let mut scratch = [BranchRecord::default(); 128];
        let mut skipped = 0u64;
        while skipped < n {
            let want = ((n - skipped).min(scratch.len() as u64)) as usize;
            let got = self.next_batch(&mut scratch[..want])?;
            if got == 0 {
                break;
            }
            skipped += got as u64;
        }
        Ok(skipped)
    }
}

impl<S: BranchSource + ?Sized> BranchSource for &mut S {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn next_batch(&mut self, buf: &mut [BranchRecord]) -> Result<usize, FormatError> {
        (**self).next_batch(buf)
    }

    fn reset(&mut self) -> Result<(), FormatError> {
        (**self).reset()
    }

    fn len_hint(&self) -> Option<u64> {
        (**self).len_hint()
    }

    fn skip_records(&mut self, n: u64) -> Result<u64, FormatError> {
        (**self).skip_records(n)
    }
}

/// Zero-copy [`BranchSource`] over records that are already in memory.
///
/// Batches are memcpy'd out of the borrowed slice; the source itself
/// allocates nothing and never fails.
#[derive(Debug, Clone)]
pub struct SliceSource<'a> {
    name: &'a str,
    records: &'a [BranchRecord],
    position: usize,
}

impl<'a> SliceSource<'a> {
    /// A source over a named record slice.
    pub fn new(name: &'a str, records: &'a [BranchRecord]) -> Self {
        SliceSource {
            name,
            records,
            position: 0,
        }
    }

    /// A source over an existing trace (borrowing its name and records).
    pub fn from_trace(trace: &'a Trace) -> Self {
        SliceSource::new(trace.name(), trace.records())
    }
}

impl BranchSource for SliceSource<'_> {
    fn name(&self) -> &str {
        self.name
    }

    fn next_batch(&mut self, buf: &mut [BranchRecord]) -> Result<usize, FormatError> {
        let remaining = &self.records[self.position..];
        let n = remaining.len().min(buf.len());
        buf[..n].copy_from_slice(&remaining[..n]);
        self.position += n;
        Ok(n)
    }

    fn reset(&mut self) -> Result<(), FormatError> {
        self.position = 0;
        Ok(())
    }

    fn len_hint(&self) -> Option<u64> {
        Some(self.records.len() as u64)
    }

    fn skip_records(&mut self, n: u64) -> Result<u64, FormatError> {
        let remaining = (self.records.len() - self.position) as u64;
        let skip = n.min(remaining);
        self.position += skip as usize;
        Ok(skip)
    }
}

/// Default number of records a [`BinaryFileSource`] holds in its chunk
/// buffer (≈ 84 KiB at 21 bytes per record).
pub const DEFAULT_CHUNK_RECORDS: usize = 4096;

/// Chunked [`BranchSource`] over a binary trace file.
///
/// The file is read through one fixed-size byte buffer allocated at open
/// time; resident trace memory is therefore bounded by the chunk size no
/// matter how large the file grows. Works with both counted traces
/// ([`crate::writer::TraceWriter`]) and streaming traces
/// ([`crate::writer::StreamingTraceWriter`]); corrupt kind bytes and
/// truncated tails surface as [`FormatError`]s carrying the byte offset of
/// the offending record.
#[derive(Debug)]
pub struct BinaryFileSource {
    file: File,
    path: PathBuf,
    name: String,
    data_offset: u64,
    declared_records: Option<u64>,
    file_len: u64,
    /// Records handed out so far.
    position: u64,
    /// The fixed chunk buffer (the only per-source allocation).
    chunk: Vec<u8>,
    /// Sticky corruption state: once a bad record is reported the stream is
    /// poisoned — further pulls re-report the same error instead of
    /// resyncing wrongly or pretending the stream ended cleanly.
    poison: Option<Poison>,
}

/// A remembered corruption error (see [`BinaryFileSource::next_batch`]).
#[derive(Debug, Clone, Copy)]
enum Poison {
    Truncated { offset: u64 },
    InvalidKind { byte: u8, offset: u64 },
}

impl Poison {
    fn to_error(self) -> FormatError {
        match self {
            Poison::Truncated { offset } => FormatError::TruncatedRecord { offset },
            Poison::InvalidKind { byte, offset } => FormatError::InvalidKind { byte, offset },
        }
    }
}

impl BinaryFileSource {
    /// Opens a binary trace file with the [`DEFAULT_CHUNK_RECORDS`] chunk.
    ///
    /// # Errors
    ///
    /// Returns a [`FormatError`] if the file cannot be opened or its header
    /// is not a valid binary trace header.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, FormatError> {
        Self::open_with_chunk_records(path, DEFAULT_CHUNK_RECORDS)
    }

    /// Opens a binary trace file holding at most `chunk_records` records in
    /// memory at a time (clamped to at least one).
    ///
    /// # Errors
    ///
    /// Returns a [`FormatError`] if the file cannot be opened or its header
    /// is not a valid binary trace header.
    pub fn open_with_chunk_records(
        path: impl AsRef<Path>,
        chunk_records: usize,
    ) -> Result<Self, FormatError> {
        let path = path.as_ref().to_path_buf();
        let mut file = File::open(&path)?;
        let file_len = file.metadata()?.len();
        let header = read_binary_header(&mut file)?;
        Ok(BinaryFileSource {
            file,
            path,
            name: header.name,
            data_offset: header.data_offset,
            declared_records: header.declared_records,
            file_len,
            position: 0,
            chunk: vec![0u8; chunk_records.max(1) * RECORD_BYTES],
            poison: None,
        })
    }

    /// The path this source reads from.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Number of records the chunk buffer holds.
    pub fn chunk_records(&self) -> usize {
        self.chunk.len() / RECORD_BYTES
    }

    /// Whole records available in the file (bounded by the declared count
    /// for counted traces, by the byte size for streaming traces).
    fn records_in_file(&self) -> u64 {
        let by_size = self.file_len.saturating_sub(self.data_offset) / RECORD_BYTES as u64;
        match self.declared_records {
            Some(declared) => declared.min(by_size),
            None => by_size,
        }
    }
}

impl BranchSource for BinaryFileSource {
    fn name(&self) -> &str {
        &self.name
    }

    fn next_batch(&mut self, buf: &mut [BranchRecord]) -> Result<usize, FormatError> {
        if let Some(poison) = self.poison {
            return Err(poison.to_error());
        }
        if buf.is_empty() {
            return Ok(0);
        }
        let mut want = buf.len().min(self.chunk_records());
        if let Some(declared) = self.declared_records {
            want = want.min(declared.saturating_sub(self.position) as usize);
        }
        if want == 0 {
            return Ok(0);
        }
        let batch_offset = self.data_offset + self.position * RECORD_BYTES as u64;
        let target = want * RECORD_BYTES;
        let mut filled = 0usize;
        while filled < target {
            let n = self.file.read(&mut self.chunk[filled..target])?;
            if n == 0 {
                break;
            }
            filled += n;
        }
        let full = filled / RECORD_BYTES;
        if !filled.is_multiple_of(RECORD_BYTES) {
            let poison = Poison::Truncated {
                offset: batch_offset + (full * RECORD_BYTES) as u64,
            };
            self.poison = Some(poison);
            return Err(poison.to_error());
        }
        if full == 0 {
            // Clean EOF at a record boundary — but a counted trace promised
            // more records than the file holds.
            if self.declared_records.is_some() {
                let poison = Poison::Truncated {
                    offset: batch_offset,
                };
                self.poison = Some(poison);
                return Err(poison.to_error());
            }
            return Ok(0);
        }
        for (i, slot) in buf.iter_mut().enumerate().take(full) {
            let bytes = &self.chunk[i * RECORD_BYTES..(i + 1) * RECORD_BYTES];
            let offset = batch_offset + (i * RECORD_BYTES) as u64;
            match decode_record(bytes, offset) {
                Ok(record) => *slot = record,
                Err(error) => {
                    let poison = Poison::InvalidKind {
                        byte: bytes[16] & 0x7F,
                        offset,
                    };
                    self.poison = Some(poison);
                    return Err(error);
                }
            }
        }
        self.position += full as u64;
        Ok(full)
    }

    fn reset(&mut self) -> Result<(), FormatError> {
        self.file.seek(SeekFrom::Start(self.data_offset))?;
        self.position = 0;
        self.poison = None;
        Ok(())
    }

    fn len_hint(&self) -> Option<u64> {
        Some(self.records_in_file())
    }

    fn skip_records(&mut self, n: u64) -> Result<u64, FormatError> {
        if let Some(poison) = self.poison {
            return Err(poison.to_error());
        }
        let available = self.records_in_file().saturating_sub(self.position);
        let skip = n.min(available);
        if skip > 0 {
            self.position += skip;
            self.file.seek(SeekFrom::Start(
                self.data_offset + self.position * RECORD_BYTES as u64,
            ))?;
        }
        Ok(skip)
    }
}

/// On-the-fly synthetic [`BranchSource`]: the record stream of a
/// `(profile, seed, length)` triple without the materialized `Trace`.
///
/// Built on [`StreamCursor`], the records are bit-identical to
/// [`TraceSpec::generate`] with the same parameters, at any batch size, so
/// streamed suite runs reproduce materialized runs exactly.
#[derive(Debug, Clone)]
pub struct SyntheticSource {
    name: String,
    profile: WorkloadProfile,
    conditional_branches: usize,
    program: SyntheticProgram,
    cursor: StreamCursor,
}

impl SyntheticSource {
    /// A source generating `conditional_branches` conditional records (plus
    /// the call/return records the profile asks for).
    ///
    /// # Panics
    ///
    /// Panics if the profile does not pass
    /// [`WorkloadProfile::validate`].
    pub fn new(
        name: impl Into<String>,
        profile: WorkloadProfile,
        seed: u64,
        conditional_branches: usize,
    ) -> Self {
        let program = SyntheticProgram::from_profile(&profile, seed);
        SyntheticSource {
            name: name.into(),
            profile,
            conditional_branches,
            program,
            cursor: StreamCursor::new(conditional_branches),
        }
    }

    /// A source streaming the workload a suite trace specification names.
    pub fn from_spec(spec: &TraceSpec, conditional_branches: usize) -> Self {
        SyntheticSource::new(
            spec.name().to_string(),
            spec.profile().clone(),
            spec.seed(),
            conditional_branches,
        )
    }
}

impl BranchSource for SyntheticSource {
    fn name(&self) -> &str {
        &self.name
    }

    fn next_batch(&mut self, buf: &mut [BranchRecord]) -> Result<usize, FormatError> {
        Ok(self.cursor.next_batch(&mut self.program, buf))
    }

    fn reset(&mut self) -> Result<(), FormatError> {
        // In-place, allocation-free rewind: suite scratch buffers rerun the
        // same source many times without touching the heap.
        self.program.rewind();
        self.cursor = StreamCursor::new(self.conditional_branches);
        Ok(())
    }

    fn len_hint(&self) -> Option<u64> {
        // Without call/return records the stream length is exactly the
        // conditional target; with them it is only known after generation.
        (!self.profile.emit_calls).then_some(self.conditional_branches as u64)
    }
}

/// Bounds an inner source to at most `records` records — the windowing
/// primitive behind phase-sampled slices and gap replays (`tage_sim::phase`).
#[derive(Debug)]
pub struct Take<S> {
    inner: S,
    limit: u64,
    remaining: u64,
}

impl<S: BranchSource> Take<S> {
    /// Wraps `inner`, passing through at most `records` records from its
    /// *current* position.
    pub fn new(inner: S, records: u64) -> Self {
        Take {
            inner,
            limit: records,
            remaining: records,
        }
    }

    /// Unwraps the inner source at its current position.
    pub fn into_inner(self) -> S {
        self.inner
    }
}

impl<S: BranchSource> BranchSource for Take<S> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn next_batch(&mut self, buf: &mut [BranchRecord]) -> Result<usize, FormatError> {
        let cap = (buf.len() as u64).min(self.remaining) as usize;
        if cap == 0 {
            return Ok(0);
        }
        let n = self.inner.next_batch(&mut buf[..cap])?;
        self.remaining -= n as u64;
        Ok(n)
    }

    /// Rewinds the *inner source to its own start* and restores the full
    /// record budget; for a `Take` opened mid-stream this does not return to
    /// the wrapping position.
    fn reset(&mut self) -> Result<(), FormatError> {
        self.inner.reset()?;
        self.remaining = self.limit;
        Ok(())
    }

    fn len_hint(&self) -> Option<u64> {
        self.inner.len_hint().map(|n| n.min(self.remaining))
    }

    fn skip_records(&mut self, n: u64) -> Result<u64, FormatError> {
        let skipped = self.inner.skip_records(n.min(self.remaining))?;
        self.remaining -= skipped;
        Ok(skipped)
    }
}

/// A recipe for opening a fresh [`BranchSource`] stream.
///
/// Suite and campaign runners deal in *specifications* rather than open
/// sources so that every worker can open its own independent stream.
#[derive(Debug, Clone)]
pub enum SourceSpec {
    /// Generate a synthetic workload on the fly.
    Synthetic(TraceSpec),
    /// Stream a binary trace file from disk.
    BinaryFile(PathBuf),
    /// Decode a non-native trace file (compressed native, CBP-style text
    /// or binary — see [`crate::decoder`]) into memory at open time.
    DecodedFile(PathBuf),
}

impl SourceSpec {
    /// The stable label naming this source in reports (the trace name, or
    /// the file stem for file-backed sources).
    pub fn label(&self) -> String {
        match self {
            SourceSpec::Synthetic(spec) => spec.name().to_string(),
            SourceSpec::BinaryFile(path) => path
                .file_stem()
                .map(|stem| stem.to_string_lossy().into_owned())
                .unwrap_or_else(|| path.display().to_string()),
            SourceSpec::DecodedFile(path) => match decoder::detect(path) {
                Some((_, suffix)) => decoder::default_trace_name(path, suffix),
                None => path.display().to_string(),
            },
        }
    }

    /// A stable digest identifying the exact record stream this spec opens
    /// with `conditional_branches` — the source half of a warm-state cache
    /// key (see `tage_sim`'s warm cache).
    ///
    /// Synthetic sources hash their full generation recipe (name, seed,
    /// profile, record budget), so two specs digest equal exactly when they
    /// stream identical records. File-backed sources hash their format, the
    /// file name (which names the label and a decoded file's decoder), the
    /// byte length and the [`fnv1a64`] of the bytes. The directory is left
    /// out, so one file digests alike however its directory is spelled.
    ///
    /// A process reads each file once, and again only when its length or
    /// modification time changes. Its one blind spot: a rewrite to the
    /// same length within one filesystem timestamp tick of the previous
    /// write, in a process that has already hashed the file, keeps the old
    /// digest.
    pub fn digest(&self, conditional_branches: usize) -> u64 {
        let (format, path) = match self {
            SourceSpec::Synthetic(spec) => {
                return fnv1a64(
                    format!(
                        "synthetic|{}|seed={}|{:?}|branches={conditional_branches}",
                        spec.name(),
                        spec.seed(),
                        spec.profile()
                    )
                    .as_bytes(),
                )
            }
            SourceSpec::BinaryFile(path) => ("file", path),
            SourceSpec::DecodedFile(path) => ("decoded", path),
        };
        let name = path.file_name().unwrap_or_default().to_string_lossy();
        let (len, content) = file_content(path);
        fnv1a64(format!("{format}|{name}|len={len}|content={content:016x}").as_bytes())
    }

    /// Opens a fresh stream.
    ///
    /// `conditional_branches` sizes synthetic sources; file-backed sources
    /// yield whatever the file holds and ignore it.
    ///
    /// # Errors
    ///
    /// Returns a [`FormatError`] when a file-backed source cannot be opened.
    pub fn open(&self, conditional_branches: usize) -> Result<AnySource, FormatError> {
        match self {
            SourceSpec::Synthetic(spec) => Ok(AnySource::Synthetic(Box::new(
                SyntheticSource::from_spec(spec, conditional_branches),
            ))),
            SourceSpec::BinaryFile(path) => Ok(AnySource::File(BinaryFileSource::open(path)?)),
            SourceSpec::DecodedFile(path) => {
                Ok(AnySource::Decoded(Box::new(decoder::decode_file(path)?)))
            }
        }
    }
}

/// The byte length of the file at `path` and the [`fnv1a64`] of its bytes,
/// read through a fixed-size buffer; `(0, 0)` when the file is missing and
/// a zero hash when it cannot be read. Memoized on the canonical path,
/// length and modification time (see [`SourceSpec::digest`]).
fn file_content(path: &Path) -> (u64, u64) {
    static HASHED: Mutex<BTreeMap<PathBuf, (u64, SystemTime, u64)>> = Mutex::new(BTreeMap::new());
    let Ok(metadata) = std::fs::metadata(path) else {
        return (0, 0);
    };
    let (len, modified) = (metadata.len(), metadata.modified().ok());
    let key = std::fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    // Held while hashing, so concurrent callers hash a file once. Every
    // update is one insert, so a poisoned map is still valid.
    let mut hashed = HASHED.lock().unwrap_or_else(PoisonError::into_inner);
    if let Some(&(seen_len, seen_modified, hash)) = hashed.get(&key) {
        if seen_len == len && Some(seen_modified) == modified {
            return (len, hash);
        }
    }
    let hash = File::open(path).and_then(|mut file| {
        let mut buffer = vec![0u8; 1 << 16];
        let mut hash = fnv1a64(b"");
        loop {
            match file.read(&mut buffer) {
                Ok(0) => return Ok(hash),
                Ok(filled) => hash = fnv1a64_extend(hash, &buffer[..filled]),
                Err(error) if error.kind() == ErrorKind::Interrupted => {}
                Err(error) => return Err(error),
            }
        }
    });
    let Ok(hash) = hash else {
        return (len, 0);
    };
    if let Some(modified) = modified {
        hashed.insert(key, (len, modified, hash));
    }
    (len, hash)
}

/// An opened [`SourceSpec`] stream (closed enum so suite runners stay free
/// of trait objects). The synthetic variant is boxed: a generator carries
/// its whole program state, which would otherwise bloat every file-backed
/// source by hundreds of bytes.
#[derive(Debug)]
pub enum AnySource {
    /// An on-the-fly synthetic stream.
    Synthetic(Box<SyntheticSource>),
    /// A chunked binary file stream.
    File(BinaryFileSource),
    /// A fully decoded (compressed or CBP-style) trace held in memory.
    Decoded(Box<DecodedSource>),
}

impl BranchSource for AnySource {
    fn name(&self) -> &str {
        match self {
            AnySource::Synthetic(s) => s.name(),
            AnySource::File(s) => s.name(),
            AnySource::Decoded(s) => s.name(),
        }
    }

    fn next_batch(&mut self, buf: &mut [BranchRecord]) -> Result<usize, FormatError> {
        match self {
            AnySource::Synthetic(s) => s.next_batch(buf),
            AnySource::File(s) => s.next_batch(buf),
            AnySource::Decoded(s) => s.next_batch(buf),
        }
    }

    fn reset(&mut self) -> Result<(), FormatError> {
        match self {
            AnySource::Synthetic(s) => s.reset(),
            AnySource::File(s) => s.reset(),
            AnySource::Decoded(s) => s.reset(),
        }
    }

    fn len_hint(&self) -> Option<u64> {
        match self {
            AnySource::Synthetic(s) => s.len_hint(),
            AnySource::File(s) => s.len_hint(),
            AnySource::Decoded(s) => s.len_hint(),
        }
    }

    fn skip_records(&mut self, n: u64) -> Result<u64, FormatError> {
        match self {
            AnySource::Synthetic(s) => s.skip_records(n),
            AnySource::File(s) => s.skip_records(n),
            AnySource::Decoded(s) => s.skip_records(n),
        }
    }
}

/// A deterministic phase-sampling plan attached to a [`SourceSuite`]:
/// slice each stream into `interval`-record slices, cluster the slices
/// into at most `k` phases (seeded k-means over branch signatures, see
/// `tage_sim::phase`), simulate one representative slice per phase and
/// reconstruct whole-trace metrics as weighted sums.
///
/// The plan is part of cell identity everywhere it travels: the canonical
/// suite token [`SamplingSpec::suite_token`] embeds it, sampled suites are
/// renamed to that token, and the campaign cell store keys on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SamplingSpec {
    /// Records per slice (phase-analysis granularity).
    pub interval: u64,
    /// Maximum number of representative slices to simulate.
    pub k: usize,
    /// Seed of the deterministic k-means clustering.
    pub seed: u64,
}

impl SamplingSpec {
    /// Default slice size when a `sample:` token omits it.
    pub const DEFAULT_INTERVAL: u64 = 2_500;
    /// Default cluster count when a `sample:` token omits it.
    pub const DEFAULT_K: usize = 8;
    /// Default clustering seed when a `sample:` token omits it.
    pub const DEFAULT_SEED: u64 = 1;

    /// The spec with all defaults.
    pub fn default_plan() -> Self {
        SamplingSpec {
            interval: Self::DEFAULT_INTERVAL,
            k: Self::DEFAULT_K,
            seed: Self::DEFAULT_SEED,
        }
    }

    /// The canonical suite token for sampling `suite_name` under this
    /// plan: `sample:<suite>:<interval>:<k>:<seed>`. Parsing the token
    /// back yields the same name and plan.
    pub fn suite_token(&self, suite_name: &str) -> String {
        format!(
            "sample:{suite_name}:{}:{}:{}",
            self.interval, self.k, self.seed
        )
    }

    /// Parses a `sample:<suite>[:<interval>[:<k>[:<seed>]]]` token into
    /// the inner suite name and the (default-filled) plan. Returns `None`
    /// for tokens without the `sample:` prefix or with malformed numeric
    /// fields; `interval` and `k` must be nonzero.
    pub fn parse_token(token: &str) -> Option<(&str, SamplingSpec)> {
        let rest = token.strip_prefix("sample:")?;
        // The suite name is the first field; registry names contain no
        // colons, so everything after the next ':' is plan numbers.
        let (name, numbers) = match rest.split_once(':') {
            Some((name, numbers)) => (name, Some(numbers)),
            None => (rest, None),
        };
        if name.is_empty() {
            return None;
        }
        let mut spec = SamplingSpec::default_plan();
        if let Some(numbers) = numbers {
            let mut fields = numbers.split(':');
            if let Some(interval) = fields.next() {
                spec.interval = interval.parse().ok().filter(|&i| i > 0)?;
            }
            if let Some(k) = fields.next() {
                spec.k = k.parse().ok().filter(|&k| k > 0)?;
            }
            if let Some(seed) = fields.next() {
                spec.seed = seed.parse().ok()?;
            }
            if fields.next().is_some() {
                return None;
            }
        }
        Some((name, spec))
    }

    /// The identity fragment folded into campaign-cell cache keys.
    pub fn identity(&self) -> String {
        format!("interval:{},k:{},seed:{}", self.interval, self.k, self.seed)
    }
}

/// A named collection of [`SourceSpec`]s — the streaming counterpart of
/// [`Suite`], the suite axis of `tage_sim::point::SweepPoint` and so of
/// every campaign cell.
#[derive(Debug, Clone)]
pub struct SourceSuite {
    name: String,
    sources: Vec<SourceSpec>,
    sampling: Option<SamplingSpec>,
}

impl SourceSuite {
    /// Creates a suite from parts.
    pub fn new(name: impl Into<String>, sources: Vec<SourceSpec>) -> Self {
        SourceSuite {
            name: name.into(),
            sources,
            sampling: None,
        }
    }

    /// A streaming view of a synthetic suite: every trace specification
    /// becomes an on-the-fly [`SourceSpec::Synthetic`] source.
    pub fn from_suite(suite: &Suite) -> Self {
        SourceSuite {
            name: suite.name().to_string(),
            sources: suite
                .traces()
                .iter()
                .cloned()
                .map(SourceSpec::Synthetic)
                .collect(),
            sampling: None,
        }
    }

    /// A file-backed suite over explicit binary trace paths.
    pub fn from_files(name: impl Into<String>, paths: Vec<PathBuf>) -> Self {
        SourceSuite {
            name: name.into(),
            sources: paths.into_iter().map(SourceSpec::BinaryFile).collect(),
            sampling: None,
        }
    }

    /// A file-backed suite over every trace file in `dir`, in sorted
    /// (deterministic) file-name order, named after the directory.
    ///
    /// Native `*.trace` files stream chunked through
    /// [`SourceSpec::BinaryFile`]; every suffix a [`crate::decoder`]
    /// adapter claims (`.trace.gz`, `.tracez`, `.cbp`, `.cbpb`) becomes a
    /// [`SourceSpec::DecodedFile`], so mixed-format directories work.
    /// Files with unknown extensions are skipped with a warning on stderr
    /// instead of failing the whole suite; subdirectories are ignored
    /// silently.
    ///
    /// # Errors
    ///
    /// Returns a [`FormatError::Io`] when the directory cannot be read, and
    /// an [`std::io::ErrorKind::NotFound`]-flavoured error when it holds no
    /// trace files in any recognized format.
    pub fn from_dir(dir: impl AsRef<Path>) -> Result<Self, FormatError> {
        let dir = dir.as_ref();
        let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
            .collect::<Result<Vec<_>, _>>()?
            .into_iter()
            .map(|entry| entry.path())
            .collect();
        entries.sort();
        let mut sources = Vec::new();
        for path in entries {
            if path.is_dir() {
                continue;
            }
            if path.extension().is_some_and(|ext| ext == "trace") {
                sources.push(SourceSpec::BinaryFile(path));
            } else if decoder::detect(&path).is_some() {
                sources.push(SourceSpec::DecodedFile(path));
            } else {
                eprintln!(
                    "warning: skipping {} (no trace format claims this extension)",
                    path.display()
                );
            }
        }
        if sources.is_empty() {
            return Err(FormatError::Io(std::io::Error::new(
                std::io::ErrorKind::NotFound,
                format!("no trace files in a recognized format in {}", dir.display()),
            )));
        }
        let name = dir
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| dir.display().to_string());
        Ok(SourceSuite {
            name,
            sources,
            sampling: None,
        })
    }

    /// Attaches a phase-sampling plan, renaming the suite to the canonical
    /// `sample:<name>:<interval>:<k>:<seed>` token so sampled and full
    /// cells can never collide in reports, caches or campaign ids. Calling
    /// it on an already sampled suite replaces the plan (the name keeps a
    /// single `sample:` prefix).
    pub fn with_sampling(mut self, spec: SamplingSpec) -> Self {
        let base = match SamplingSpec::parse_token(&self.name) {
            Some((inner, _)) => inner.to_string(),
            None => self.name,
        };
        self.name = spec.suite_token(&base);
        self.sampling = Some(spec);
        self
    }

    /// The phase-sampling plan, when one is attached.
    pub fn sampling(&self) -> Option<SamplingSpec> {
        self.sampling
    }

    /// The suite name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The source specifications, in suite order.
    pub fn sources(&self) -> &[SourceSpec] {
        &self.sources
    }

    /// Looks a specification up by label.
    pub fn source(&self, label: &str) -> Option<&SourceSpec> {
        self.sources.iter().find(|s| s.label() == label)
    }

    /// A stable digest of the whole suite's content identity: the suite
    /// name folded with every member's [`SourceSpec::digest`], in suite
    /// order — the suite half of a campaign-cell cache key (see
    /// `tage_bench`'s cell store). Two suites digest equal exactly when
    /// they would stream the same named record sets.
    pub fn digest(&self, conditional_branches: usize) -> u64 {
        let mut identity = format!("suite|{}", self.name);
        for source in &self.sources {
            identity.push_str(&format!(
                "|{}={:016x}",
                source.label(),
                source.digest(conditional_branches)
            ));
        }
        fnv1a64(identity.as_bytes())
    }
}

impl From<&Suite> for SourceSuite {
    fn from(suite: &Suite) -> Self {
        SourceSuite::from_suite(suite)
    }
}

impl From<Suite> for SourceSuite {
    fn from(suite: Suite) -> Self {
        SourceSuite::from_suite(&suite)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suites;
    use crate::writer::{StreamingTraceWriter, TraceWriter};

    fn drain(source: &mut impl BranchSource, batch: usize) -> Vec<BranchRecord> {
        let mut buf = vec![BranchRecord::default(); batch];
        let mut all = Vec::new();
        loop {
            let n = source.next_batch(&mut buf).expect("source reads");
            if n == 0 {
                return all;
            }
            all.extend_from_slice(&buf[..n]);
        }
    }

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "tage-source-test-{}-{tag}.trace",
            std::process::id()
        ))
    }

    #[test]
    fn slice_source_yields_everything_and_resets() {
        let trace = suites::cbp1_like().trace("INT-1").unwrap().generate(1_000);
        let mut source = SliceSource::from_trace(&trace);
        assert_eq!(source.name(), "INT-1");
        assert_eq!(source.len_hint(), Some(trace.len() as u64));
        let first = drain(&mut source, 7);
        assert_eq!(first, trace.records());
        assert_eq!(
            source.next_batch(&mut [BranchRecord::default()]).unwrap(),
            0
        );
        source.reset().unwrap();
        assert_eq!(drain(&mut source, 1024), trace.records());
    }

    #[test]
    fn slice_source_skips_in_constant_time_semantics() {
        let trace = suites::cbp1_like().trace("FP-1").unwrap().generate(100);
        let mut source = SliceSource::from_trace(&trace);
        assert_eq!(source.skip_records(30).unwrap(), 30);
        let rest = drain(&mut source, 16);
        assert_eq!(rest, &trace.records()[30..]);
        assert_eq!(source.skip_records(5).unwrap(), 0, "exhausted");
        source.reset().unwrap();
        assert_eq!(source.skip_records(u64::MAX).unwrap(), trace.len() as u64);
    }

    #[test]
    fn file_source_round_trips_counted_traces_at_any_chunk_size() {
        let trace = suites::cbp1_like().trace("MM-5").unwrap().generate(2_000);
        let path = temp_path("counted");
        std::fs::write(&path, TraceWriter::to_binary_bytes(&trace)).unwrap();
        for chunk in [1, 7, 256, 100_000] {
            let mut source = BinaryFileSource::open_with_chunk_records(&path, chunk).unwrap();
            assert_eq!(source.name(), "MM-5");
            assert_eq!(source.len_hint(), Some(trace.len() as u64));
            assert_eq!(drain(&mut source, 33), trace.records(), "chunk {chunk}");
            source.reset().unwrap();
            assert_eq!(drain(&mut source, 4096).len(), trace.len());
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn file_source_round_trips_streaming_traces() {
        let trace = suites::cbp1_like().trace("SERV-2").unwrap().generate(500);
        let path = temp_path("streaming");
        let mut writer =
            StreamingTraceWriter::new(std::fs::File::create(&path).unwrap(), "SERV-2").unwrap();
        for record in trace.iter() {
            writer.push(record).unwrap();
        }
        writer.finish().unwrap();
        let mut source = BinaryFileSource::open(&path).unwrap();
        assert_eq!(source.len_hint(), Some(trace.len() as u64));
        assert_eq!(drain(&mut source, 100), trace.records());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn file_source_skip_seeks_and_resumes() {
        let trace = suites::cbp1_like().trace("INT-2").unwrap().generate(300);
        let path = temp_path("skip");
        std::fs::write(&path, TraceWriter::to_binary_bytes(&trace)).unwrap();
        let mut source = BinaryFileSource::open_with_chunk_records(&path, 16).unwrap();
        assert_eq!(source.skip_records(100).unwrap(), 100);
        assert_eq!(drain(&mut source, 64), &trace.records()[100..]);
        source.reset().unwrap();
        assert_eq!(
            source.skip_records(u64::MAX).unwrap(),
            trace.len() as u64,
            "skip clamps at the end of the file"
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn file_source_skip_is_a_byte_offset_seek_not_a_read_through() {
        // Corrupt a record *inside* the skipped range: a seek never decodes
        // those bytes, so the skip must succeed and the stream resume
        // cleanly past the damage — a read-through implementation would
        // error. This pins the phase-sampling gap jump as an O(1) seek.
        let trace = suites::cbp1_like().trace("MM-5").unwrap().generate(200);
        let path = temp_path("skip-seek");
        let mut bytes = TraceWriter::to_binary_bytes(&trace);
        let data_offset = bytes.len() - trace.len() * RECORD_BYTES;
        // Poison record 50's kind byte (offset 16 within the record).
        let poison_at = data_offset + 50 * RECORD_BYTES + 16;
        bytes[poison_at] = 0x7F;
        std::fs::write(&path, &bytes).unwrap();

        let mut source = BinaryFileSource::open_with_chunk_records(&path, 16).unwrap();
        assert_eq!(source.skip_records(120).unwrap(), 120);
        assert_eq!(
            drain(&mut source, 32),
            &trace.records()[120..],
            "the stream resumes at the exact byte offset of record 120"
        );

        // The corruption is real: reading from the start does hit it.
        source.reset().unwrap();
        let mut buf = [BranchRecord::default(); 16];
        let err = loop {
            match source.next_batch(&mut buf) {
                Ok(0) => panic!("corrupt record must error on a read-through"),
                Ok(_) => continue,
                Err(err) => break err,
            }
        };
        assert!(
            matches!(
                err,
                FormatError::InvalidKind { offset, .. }
                    if offset == data_offset as u64 + 50 * RECORD_BYTES as u64
            ),
            "unexpected error: {err:?}"
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn file_source_reports_truncation_offset() {
        let trace = suites::cbp1_like().trace("FP-2").unwrap().generate(50);
        let path = temp_path("truncated");
        let mut bytes = TraceWriter::to_binary_bytes(&trace);
        bytes.truncate(bytes.len() - 3);
        std::fs::write(&path, &bytes).unwrap();
        let mut source = BinaryFileSource::open_with_chunk_records(&path, 8).unwrap();
        let mut buf = [BranchRecord::default(); 8];
        let err = loop {
            match source.next_batch(&mut buf) {
                Ok(0) => panic!("truncated file must error, not end cleanly"),
                Ok(_) => continue,
                Err(err) => break err,
            }
        };
        // The partial record starts at the last whole-record boundary.
        let full_records = (bytes.len() as u64 - source.data_offset) / RECORD_BYTES as u64;
        let expected = source.data_offset + full_records * RECORD_BYTES as u64;
        assert!(
            matches!(err, FormatError::TruncatedRecord { offset } if offset == expected),
            "unexpected error {err:?}"
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corruption_errors_are_sticky_until_reset() {
        // A truncated *streaming* trace must keep erroring on further pulls
        // — without the poison state the pull after the error would see the
        // (uncounted) EOF and report a clean end of stream.
        let trace = suites::cbp1_like().trace("INT-1").unwrap().generate(40);
        let path = temp_path("sticky");
        let mut writer =
            StreamingTraceWriter::new(std::fs::File::create(&path).unwrap(), "s").unwrap();
        for record in trace.iter() {
            writer.push(record).unwrap();
        }
        writer.finish().unwrap();
        let len = std::fs::metadata(&path).unwrap().len();
        std::fs::File::options()
            .write(true)
            .open(&path)
            .unwrap()
            .set_len(len - 4)
            .unwrap();

        let mut source = BinaryFileSource::open_with_chunk_records(&path, 8).unwrap();
        let mut buf = [BranchRecord::default(); 8];
        let first = loop {
            match source.next_batch(&mut buf) {
                Ok(0) => panic!("truncated streaming file must error"),
                Ok(_) => continue,
                Err(err) => break err,
            }
        };
        let offset = match first {
            FormatError::TruncatedRecord { offset } => offset,
            other => panic!("unexpected error {other:?}"),
        };
        for _ in 0..3 {
            let again = source.next_batch(&mut buf).unwrap_err();
            assert!(
                matches!(again, FormatError::TruncatedRecord { offset: o } if o == offset),
                "repeat pulls must re-report the same corruption, got {again:?}"
            );
        }
        assert!(source.skip_records(1).is_err(), "skip is poisoned too");
        // reset() clears the poison and the stream is readable again up to
        // the damage.
        source.reset().unwrap();
        assert_eq!(source.next_batch(&mut buf).unwrap(), 8);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn file_source_reports_corrupt_kind_offset() {
        let trace = suites::cbp1_like().trace("FP-1").unwrap().generate(20);
        let path = temp_path("corrupt");
        let mut bytes = TraceWriter::to_binary_bytes(&trace);
        let data_offset = bytes.len() - 20 * RECORD_BYTES;
        let corrupt_record = 13;
        bytes[data_offset + corrupt_record * RECORD_BYTES + 16] = 0x33;
        std::fs::write(&path, &bytes).unwrap();
        let mut source = BinaryFileSource::open_with_chunk_records(&path, 4).unwrap();
        let mut buf = [BranchRecord::default(); 4];
        let err = loop {
            match source.next_batch(&mut buf) {
                Ok(0) => panic!("corrupt file must error"),
                Ok(_) => continue,
                Err(err) => break err,
            }
        };
        let expected = (data_offset + corrupt_record * RECORD_BYTES) as u64;
        assert!(
            matches!(err, FormatError::InvalidKind { byte: 0x33, offset } if offset == expected),
            "unexpected error {err:?}"
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn synthetic_source_is_bit_identical_to_materialized_generation() {
        let suite = suites::cbp1_like();
        for name in ["INT-1", "SERV-2"] {
            let spec = suite.trace(name).unwrap();
            let trace = spec.generate(3_000);
            let mut source = SyntheticSource::from_spec(spec, 3_000);
            assert_eq!(source.name(), name);
            assert_eq!(drain(&mut source, 61), trace.records(), "{name}");
            source.reset().unwrap();
            assert_eq!(drain(&mut source, 4096), trace.records(), "{name} reset");
        }
    }

    #[test]
    fn take_bounds_a_source_to_a_record_budget() {
        let trace = suites::cbp1_like().trace("INT-1").unwrap().generate(200);
        let mut inner = SliceSource::from_trace(&trace);
        inner.skip_records(50).unwrap();
        let mut window = Take::new(&mut inner, 30);
        assert_eq!(window.len_hint(), Some(30));
        let got = drain(&mut window, 8);
        assert_eq!(got, &trace.records()[50..80]);
        // The inner source resumes right after the window.
        let rest = drain(&mut inner, 64);
        assert_eq!(rest, &trace.records()[80..]);
    }

    #[test]
    fn source_specs_open_and_label() {
        let suite = suites::cbp1_mini();
        let spec = SourceSpec::Synthetic(suite.traces()[0].clone());
        assert_eq!(spec.label(), "FP-1");
        let mut opened = spec.open(100).unwrap();
        assert_eq!(opened.name(), "FP-1");
        assert_eq!(drain(&mut opened, 16).len() as u64, {
            let trace = suite.traces()[0].generate(100);
            trace.len() as u64
        });

        let trace = suite.traces()[1].generate(50);
        let path = temp_path("spec");
        std::fs::write(&path, TraceWriter::to_binary_bytes(&trace)).unwrap();
        let spec = SourceSpec::BinaryFile(path.clone());
        assert!(spec.label().starts_with("tage-source-test"));
        let mut opened = spec.open(0).unwrap();
        assert_eq!(opened.name(), "INT-2");
        assert_eq!(drain(&mut opened, 16), trace.records());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn source_suite_mirrors_synthetic_suites_and_scans_directories() {
        let suite = suites::cbp1_mini();
        let sources = SourceSuite::from_suite(&suite);
        assert_eq!(sources.name(), suite.name());
        assert_eq!(sources.sources().len(), suite.traces().len());
        assert!(sources.source("FP-1").is_some());
        assert!(sources.source("nope").is_none());
        let converted: SourceSuite = (&suite).into();
        assert_eq!(converted.sources().len(), sources.sources().len());

        let dir = std::env::temp_dir().join(format!("tage-source-dir-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for name in ["b", "a"] {
            let trace = suite.traces()[0].generate(10);
            std::fs::write(
                dir.join(format!("{name}.trace")),
                TraceWriter::to_binary_bytes(&trace),
            )
            .unwrap();
        }
        // A compressed native trace and a CBP text trace join the suite; an
        // unknown extension is skipped with a warning instead of erroring.
        let trace = suite.traces()[1].generate(10);
        std::fs::write(
            dir.join("c.trace.gz"),
            crate::inflate::gzip_compress(&TraceWriter::to_binary_bytes(&trace)),
        )
        .unwrap();
        std::fs::write(dir.join("d.cbp"), b"1000 1\n2000 0\n").unwrap();
        std::fs::write(dir.join("ignored.txt"), b"not a trace").unwrap();
        let scanned = SourceSuite::from_dir(&dir).unwrap();
        let labels: Vec<String> = scanned.sources().iter().map(SourceSpec::label).collect();
        assert_eq!(
            labels,
            vec![
                "a".to_string(),
                "b".to_string(),
                "c".to_string(),
                "d".to_string()
            ]
        );
        assert!(matches!(scanned.sources()[2], SourceSpec::DecodedFile(_)));
        let mut opened = scanned.sources()[2].open(0).unwrap();
        assert_eq!(opened.name(), trace.name());
        assert_eq!(drain(&mut opened, 16), trace.records());
        std::fs::remove_dir_all(&dir).unwrap();

        let empty = std::env::temp_dir().join(format!("tage-source-empty-{}", std::process::id()));
        std::fs::create_dir_all(&empty).unwrap();
        assert!(SourceSuite::from_dir(&empty).is_err());
        std::fs::remove_dir_all(&empty).unwrap();
    }

    #[test]
    fn sampling_tokens_parse_render_and_rename_suites() {
        let spec = SamplingSpec {
            interval: 2_500,
            k: 8,
            seed: 1,
        };
        assert_eq!(spec.suite_token("cbp1-mini"), "sample:cbp1-mini:2500:8:1");
        let (name, parsed) = SamplingSpec::parse_token("sample:cbp1-mini:2500:8:1").unwrap();
        assert_eq!(name, "cbp1-mini");
        assert_eq!(parsed, spec);

        // Shorter forms fill defaults left to right.
        let (name, parsed) = SamplingSpec::parse_token("sample:cbp1").unwrap();
        assert_eq!(name, "cbp1");
        assert_eq!(parsed, SamplingSpec::default_plan());
        let (_, parsed) = SamplingSpec::parse_token("sample:cbp1:1000").unwrap();
        assert_eq!(parsed.interval, 1_000);
        assert_eq!(parsed.k, SamplingSpec::DEFAULT_K);
        let (_, parsed) = SamplingSpec::parse_token("sample:cbp1:1000:4").unwrap();
        assert_eq!(parsed.k, 4);
        assert_eq!(parsed.seed, SamplingSpec::DEFAULT_SEED);

        for bad in [
            "cbp1",
            "sample:",
            "sample:cbp1:0",       // zero interval
            "sample:cbp1:10:0",    // zero k
            "sample:cbp1:x",       // non-numeric
            "sample:cbp1:1:2:3:4", // too many fields
        ] {
            assert!(SamplingSpec::parse_token(bad).is_none(), "{bad}");
        }

        // with_sampling renames to the canonical token, idempotently.
        let suite = SourceSuite::from_suite(&suites::cbp1_mini());
        assert!(suite.sampling().is_none());
        let base_name = suite.name().to_string();
        let sampled = suite.with_sampling(spec);
        assert_eq!(sampled.name(), format!("sample:{base_name}:2500:8:1"));
        assert_eq!(sampled.sampling(), Some(spec));
        let resampled = sampled.with_sampling(SamplingSpec {
            interval: 500,
            k: 2,
            seed: 7,
        });
        assert_eq!(resampled.name(), format!("sample:{base_name}:500:2:7"));
    }
}
