//! Format-agnostic trace decoding: the [`TraceDecoder`] abstraction and the
//! built-in adapters behind [`crate::source::SourceSpec`] auto-detection.
//!
//! A decoder turns the raw bytes of a trace file into an in-memory record
//! stream. Three adapters ship with the crate:
//!
//! | extension   | format                                                 |
//! |-------------|--------------------------------------------------------|
//! | `.trace.gz`, `.tracez` | gzip-compressed native binary trace ([`crate::format`]) |
//! | `.cbp`      | CBP-style text: `"<pc-hex> <0\|1\|T\|N>"` per line      |
//! | `.cbpb`     | CBP-style binary: 9-byte records (u64 LE pc + outcome) |
//!
//! The native uncompressed `.trace` format is *not* decoded through this
//! module — [`crate::source::BinaryFileSource`] streams it chunked and
//! out-of-core. Decoders materialize the whole record set (compressed
//! frames cannot be record-seeked anyway), which keeps them simple and
//! makes [`DecodedSource`] trivially seekable for sampled runs.
//!
//! Errors follow the repo-wide discipline: every corruption is a
//! [`FormatError`] carrying the byte offset (or line number) at which the
//! input stopped making sense, and garbage input never panics.

use std::path::Path;

use crate::format::{decode_record, FormatError, RECORD_BYTES};
use crate::inflate::gunzip;
use crate::reader::read_binary_header;
use crate::record::BranchRecord;
use crate::source::BranchSource;

/// A decoded trace: the records plus the best available name (from the
/// container when the format carries one, else the caller's default).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodedTrace {
    /// Trace name for reports.
    pub name: String,
    /// The full record stream, in trace order.
    pub records: Vec<BranchRecord>,
}

/// Decodes one on-disk trace format into branch records.
///
/// Implementations are stateless unit structs registered in [`REGISTRY`];
/// [`detect`] picks one by file-name suffix.
pub trait TraceDecoder: Sync {
    /// Short human-readable format name (shown by `tage-bench --list`).
    fn format_name(&self) -> &'static str;

    /// File-name suffixes this decoder claims, without the leading dot
    /// (e.g. `"trace.gz"`). Matched case-sensitively against the end of
    /// the file name.
    fn extensions(&self) -> &'static [&'static str];

    /// One-line description of the format (shown by `tage-bench --list`).
    fn description(&self) -> &'static str;

    /// Decodes the raw file bytes. `default_name` names the trace when the
    /// format itself carries no name (CBP-style formats).
    ///
    /// # Errors
    ///
    /// A [`FormatError`] locating the corruption by byte offset or line
    /// number.
    fn decode(&self, bytes: &[u8], default_name: &str) -> Result<DecodedTrace, FormatError>;
}

/// Gzip-compressed native binary traces (`.trace.gz` / `.tracez`):
/// the [`crate::format`] byte layout inside an RFC 1952 container,
/// decompressed by the std-only [`crate::inflate`] module. Error offsets
/// locate container/DEFLATE corruption in the *compressed* stream and
/// record corruption in the *decompressed* stream.
#[derive(Debug, Clone, Copy, Default)]
pub struct GzipNativeDecoder;

impl TraceDecoder for GzipNativeDecoder {
    fn format_name(&self) -> &'static str {
        "gzip-native"
    }

    fn extensions(&self) -> &'static [&'static str] {
        &["trace.gz", "tracez"]
    }

    fn description(&self) -> &'static str {
        "gzip-compressed native binary trace (TAGT inside RFC 1952)"
    }

    fn decode(&self, bytes: &[u8], _default_name: &str) -> Result<DecodedTrace, FormatError> {
        let raw = gunzip(bytes)?;
        let mut cursor: &[u8] = &raw;
        let header = read_binary_header(&mut cursor)?;
        let data = &raw[header.data_offset as usize..];
        let whole = data.len() / RECORD_BYTES;
        let available = match header.declared_records {
            Some(declared) if declared > whole as u64 => {
                return Err(FormatError::TruncatedRecord {
                    offset: header.data_offset + (whole * RECORD_BYTES) as u64,
                })
            }
            Some(declared) => declared as usize,
            None => {
                if !data.len().is_multiple_of(RECORD_BYTES) {
                    return Err(FormatError::TruncatedRecord {
                        offset: header.data_offset + (whole * RECORD_BYTES) as u64,
                    });
                }
                whole
            }
        };
        let mut records = Vec::with_capacity(available);
        for index in 0..available {
            let start = index * RECORD_BYTES;
            let offset = header.data_offset + start as u64;
            records.push(decode_record(&data[start..start + RECORD_BYTES], offset)?);
        }
        Ok(DecodedTrace {
            name: header.name,
            records,
        })
    }
}

/// CBP-style text traces (`.cbp`): one branch per line, `"<pc-hex>
/// <outcome>"` where the outcome is `0`/`N` (not taken) or `1`/`T`
/// (taken). Blank lines and `#` comments are skipped. Every record is a
/// conditional branch with a zero instruction gap (championship traces
/// carry branches only), so per-kilo-instruction metrics degenerate to
/// per-kilo-branch — exactly how CBP scored.
#[derive(Debug, Clone, Copy, Default)]
pub struct CbpTextDecoder;

impl TraceDecoder for CbpTextDecoder {
    fn format_name(&self) -> &'static str {
        "cbp-text"
    }

    fn extensions(&self) -> &'static [&'static str] {
        &["cbp"]
    }

    fn description(&self) -> &'static str {
        "CBP-style text: \"<pc-hex> <0|1|T|N>\" per line, # comments"
    }

    fn decode(&self, bytes: &[u8], default_name: &str) -> Result<DecodedTrace, FormatError> {
        let text = String::from_utf8_lossy(bytes);
        let mut records = Vec::new();
        for (idx, raw_line) in text.lines().enumerate() {
            let line_no = idx + 1;
            let malformed = |reason: &str| FormatError::MalformedLine {
                line: line_no,
                reason: reason.to_string(),
            };
            let line = raw_line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.split_whitespace();
            let pc = parts.next().ok_or_else(|| malformed("missing pc"))?;
            let pc = u64::from_str_radix(pc, 16).map_err(|_| malformed("pc is not hex"))?;
            let outcome = parts.next().ok_or_else(|| malformed("missing outcome"))?;
            let taken = match outcome {
                "1" | "T" => true,
                "0" | "N" => false,
                _ => return Err(malformed("outcome must be 0, 1, T or N")),
            };
            if parts.next().is_some() {
                return Err(malformed("trailing tokens"));
            }
            records.push(BranchRecord::conditional(pc, taken));
        }
        Ok(DecodedTrace {
            name: default_name.to_string(),
            records,
        })
    }
}

/// Size of one CBP-style binary record: u64 LE pc + one outcome byte.
pub const CBP_RECORD_BYTES: usize = 9;

/// CBP-style binary traces (`.cbpb`): headerless streams of 9-byte
/// records — a u64 little-endian branch pc followed by one outcome byte
/// (`0` not taken, `1` taken). Every record is a conditional branch with a
/// zero instruction gap.
#[derive(Debug, Clone, Copy, Default)]
pub struct CbpBinaryDecoder;

impl TraceDecoder for CbpBinaryDecoder {
    fn format_name(&self) -> &'static str {
        "cbp-binary"
    }

    fn extensions(&self) -> &'static [&'static str] {
        &["cbpb"]
    }

    fn description(&self) -> &'static str {
        "CBP-style binary: 9-byte records (u64 LE pc + outcome byte)"
    }

    fn decode(&self, bytes: &[u8], default_name: &str) -> Result<DecodedTrace, FormatError> {
        if !bytes.len().is_multiple_of(CBP_RECORD_BYTES) {
            let whole = bytes.len() / CBP_RECORD_BYTES;
            return Err(FormatError::TruncatedRecord {
                offset: (whole * CBP_RECORD_BYTES) as u64,
            });
        }
        let mut records = Vec::with_capacity(bytes.len() / CBP_RECORD_BYTES);
        for (index, chunk) in bytes.chunks_exact(CBP_RECORD_BYTES).enumerate() {
            let offset = (index * CBP_RECORD_BYTES) as u64;
            let pc = u64::from_le_bytes(chunk[..8].try_into().expect("slice length"));
            let taken = match chunk[8] {
                0 => false,
                1 => true,
                byte => {
                    return Err(FormatError::InvalidOutcome { byte, offset });
                }
            };
            records.push(BranchRecord::conditional(pc, taken));
        }
        Ok(DecodedTrace {
            name: default_name.to_string(),
            records,
        })
    }
}

/// Every built-in decoder, in detection order.
pub static REGISTRY: [&dyn TraceDecoder; 3] =
    [&GzipNativeDecoder, &CbpTextDecoder, &CbpBinaryDecoder];

/// Picks the decoder whose suffix matches `path`'s file name, along with
/// the matched suffix (useful for stripping it off report labels).
/// Longest match wins, so `foo.trace.gz` resolves to the gzip decoder and
/// not to any shorter suffix.
pub fn detect(path: &Path) -> Option<(&'static dyn TraceDecoder, &'static str)> {
    let file_name = path.file_name()?.to_string_lossy();
    let mut best: Option<(&'static dyn TraceDecoder, &'static str)> = None;
    for &decoder in REGISTRY.iter() {
        for &suffix in decoder.extensions() {
            let dotted = format!(".{suffix}");
            if file_name.ends_with(&dotted) && file_name.len() > dotted.len() {
                match best {
                    Some((_, current)) if current.len() >= suffix.len() => {}
                    _ => best = Some((decoder, suffix)),
                }
            }
        }
    }
    best
}

/// Reads and decodes a trace file through the decoder its suffix names.
/// The default trace name (for formats that carry none) is the file name
/// with the format suffix stripped.
///
/// # Errors
///
/// [`FormatError::Io`] when the file has no decoder suffix or cannot be
/// read, or the decoder's error for corrupt content.
pub fn decode_file(path: impl AsRef<Path>) -> Result<DecodedSource, FormatError> {
    let path = path.as_ref();
    let Some((decoder, suffix)) = detect(path) else {
        return Err(FormatError::Io(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!("no trace decoder claims {}", path.display()),
        )));
    };
    let bytes = std::fs::read(path)?;
    let default_name = default_trace_name(path, suffix);
    let decoded = decoder.decode(&bytes, &default_name)?;
    Ok(DecodedSource::new(decoded))
}

/// The file name with the decoder suffix (and its dot) stripped — the
/// stable report label of a decoded file.
pub fn default_trace_name(path: &Path, suffix: &str) -> String {
    let file_name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| path.display().to_string());
    file_name
        .strip_suffix(&format!(".{suffix}"))
        .map(str::to_string)
        .unwrap_or(file_name)
}

/// A [`BranchSource`] over a fully decoded trace: owned records, a cursor,
/// O(1) skip and reset. Decoded formats cannot be streamed out-of-core
/// (compressed frames are not record-seekable), so the memory cost is the
/// whole record set — fine for the CBP-scale traces these formats carry.
#[derive(Debug, Clone)]
pub struct DecodedSource {
    name: String,
    records: Vec<BranchRecord>,
    position: usize,
}

impl DecodedSource {
    /// Wraps a decoded trace as a source positioned at its first record.
    pub fn new(decoded: DecodedTrace) -> Self {
        DecodedSource {
            name: decoded.name,
            records: decoded.records,
            position: 0,
        }
    }

    /// The decoded records (all of them, independent of the cursor).
    pub fn records(&self) -> &[BranchRecord] {
        &self.records
    }
}

impl BranchSource for DecodedSource {
    fn name(&self) -> &str {
        &self.name
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inflate::gzip_compress;
    use crate::rng::SplitMix64;
    use crate::suites;
    use crate::trace::Trace;
    use crate::writer::TraceWriter;
    use std::path::PathBuf;

    #[test]
    fn gzip_native_round_trips_a_real_trace() {
        let trace = suites::cbp1_mini().traces()[0].generate(2_000);
        let packed = gzip_compress(&TraceWriter::to_binary_bytes(&trace));
        let decoded = GzipNativeDecoder.decode(&packed, "fallback").unwrap();
        assert_eq!(decoded.name, trace.name());
        assert_eq!(decoded.records, trace.records());
    }

    #[test]
    fn gzip_native_reports_truncation_in_decompressed_offsets() {
        let trace = Trace::from_records(
            "t",
            vec![
                BranchRecord::conditional(1, true),
                BranchRecord::conditional(2, false),
            ],
        );
        let mut raw = TraceWriter::to_binary_bytes(&trace);
        raw.truncate(raw.len() - 5);
        let packed = gzip_compress(&raw);
        let err = GzipNativeDecoder.decode(&packed, "t").unwrap_err();
        let header_len = (4 + 4 + 4 + 1 + 8) as u64;
        assert!(
            matches!(err, FormatError::TruncatedRecord { offset } if offset == header_len + RECORD_BYTES as u64),
            "unexpected error {err:?}"
        );
    }

    #[test]
    fn gzip_native_rejects_corrupt_container() {
        let trace = suites::cbp1_mini().traces()[0].generate(100);
        let mut packed = gzip_compress(&TraceWriter::to_binary_bytes(&trace));
        let trailer_at = packed.len() - 8;
        packed[trailer_at] ^= 0x01; // CRC byte
        let err = GzipNativeDecoder.decode(&packed, "t").unwrap_err();
        assert!(
            matches!(err, FormatError::CorruptFrame { .. }),
            "unexpected error {err:?}"
        );
    }

    #[test]
    fn cbp_text_parses_outcome_spellings_and_comments() {
        let text = "# a comment\n\n1000 1\nffff T\nbeef 0\n 20 N \n";
        let decoded = CbpTextDecoder.decode(text.as_bytes(), "mytrace").unwrap();
        assert_eq!(decoded.name, "mytrace");
        let outcomes: Vec<(u64, bool)> = decoded.records.iter().map(|r| (r.pc, r.taken)).collect();
        assert_eq!(
            outcomes,
            vec![
                (0x1000, true),
                (0xffff, true),
                (0xbeef, false),
                (0x20, false)
            ]
        );
        assert!(decoded.records.iter().all(|r| r.kind.is_conditional()));
    }

    #[test]
    fn cbp_text_rejects_malformed_lines_with_line_numbers() {
        for (text, bad_line) in [
            ("1000 1\nzz T\n", 2),
            ("1000 2\n", 1),
            ("1000\n", 1),
            ("# ok\n1000 1 extra\n", 2),
        ] {
            let err = CbpTextDecoder.decode(text.as_bytes(), "t").unwrap_err();
            assert!(
                matches!(err, FormatError::MalformedLine { line, .. } if line == bad_line),
                "{text:?} -> {err:?}"
            );
        }
    }

    #[test]
    fn cbp_binary_round_trips_and_reports_corruption_offsets() {
        let mut bytes = Vec::new();
        for (pc, taken) in [(0x4000u64, 1u8), (0x4010, 0), (0x4000, 1)] {
            bytes.extend_from_slice(&pc.to_le_bytes());
            bytes.push(taken);
        }
        let decoded = CbpBinaryDecoder.decode(&bytes, "bin").unwrap();
        assert_eq!(decoded.records.len(), 3);
        assert_eq!(decoded.records[0].pc, 0x4000);
        assert!(decoded.records[0].taken);
        assert!(!decoded.records[1].taken);

        // Bad outcome byte in the second record.
        let mut bad = bytes.clone();
        bad[CBP_RECORD_BYTES + 8] = 7;
        let err = CbpBinaryDecoder.decode(&bad, "bin").unwrap_err();
        assert!(
            matches!(
                err,
                FormatError::InvalidOutcome { byte: 7, offset } if offset == CBP_RECORD_BYTES as u64
            ),
            "unexpected error {err:?}"
        );

        // Truncated tail.
        let truncated = &bytes[..bytes.len() - 4];
        let err = CbpBinaryDecoder.decode(truncated, "bin").unwrap_err();
        assert!(
            matches!(
                err,
                FormatError::TruncatedRecord { offset } if offset == (2 * CBP_RECORD_BYTES) as u64
            ),
            "unexpected error {err:?}"
        );
    }

    #[test]
    fn detection_matches_longest_suffix() {
        let gz = detect(Path::new("dir/foo.trace.gz")).expect("gz detected");
        assert_eq!(gz.0.format_name(), "gzip-native");
        assert_eq!(gz.1, "trace.gz");
        let tz = detect(Path::new("foo.tracez")).expect("tracez detected");
        assert_eq!(tz.0.format_name(), "gzip-native");
        let cbp = detect(Path::new("foo.cbp")).expect("cbp detected");
        assert_eq!(cbp.0.format_name(), "cbp-text");
        let cbpb = detect(Path::new("foo.cbpb")).expect("cbpb detected");
        assert_eq!(cbpb.0.format_name(), "cbp-binary");
        assert!(
            detect(Path::new("foo.trace")).is_none(),
            "native stays streamed"
        );
        assert!(detect(Path::new("foo.txt")).is_none());
        assert!(
            detect(Path::new(".cbp")).is_none(),
            "bare suffix is not a trace"
        );
    }

    #[test]
    fn default_names_strip_the_format_suffix() {
        assert_eq!(
            default_trace_name(Path::new("a/b/run-1.trace.gz"), "trace.gz"),
            "run-1"
        );
        assert_eq!(default_trace_name(Path::new("x.cbp"), "cbp"), "x");
    }

    #[test]
    fn decode_file_streams_through_decoded_source() {
        let trace = suites::cbp1_mini().traces()[1].generate(500);
        let dir = std::env::temp_dir();
        let path = dir.join(format!("tage-decoder-test-{}.trace.gz", std::process::id()));
        std::fs::write(&path, gzip_compress(&TraceWriter::to_binary_bytes(&trace))).unwrap();
        let mut source = decode_file(&path).unwrap();
        assert_eq!(source.name(), trace.name());
        assert_eq!(source.len_hint(), Some(trace.len() as u64));
        assert_eq!(source.skip_records(10).unwrap(), 10);
        let mut buf = vec![BranchRecord::default(); 64];
        let mut rest = Vec::new();
        loop {
            let n = source.next_batch(&mut buf).unwrap();
            if n == 0 {
                break;
            }
            rest.extend_from_slice(&buf[..n]);
        }
        assert_eq!(rest, &trace.records()[10..]);
        source.reset().unwrap();
        assert_eq!(source.skip_records(u64::MAX).unwrap(), trace.len() as u64);
        std::fs::remove_file(&path).unwrap();

        let orphan = PathBuf::from("/no/decoder/for/this.txt");
        assert!(decode_file(&orphan).is_err());
    }

    #[test]
    fn garbage_never_panics_in_any_decoder() {
        let mut rng = SplitMix64::new(0xDEC0DE);
        for _ in 0..500 {
            let len = (rng.next_u64() % 128) as usize;
            let data: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
            for decoder in REGISTRY.iter() {
                let _ = decoder.decode(&data, "fuzz"); // must return, never panic
            }
        }
    }
}
