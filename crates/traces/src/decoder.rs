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
///
/// Lines are parsed from the bytes. A plain-ASCII line — at most 16 hex
/// pc digits, ASCII whitespace and one outcome byte, or a blank or comment
/// line — takes a byte-level fast path. Any other line goes to the
/// per-line parser over its (lossily decoded) text, which splits on
/// Unicode whitespace, accepts what [`u64::from_str_radix`] accepts and
/// names each [`FormatError::MalformedLine`], so both paths give the same
/// records and errors.
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
        let mut records = Vec::new();
        for (idx, line) in bytes.split(|&byte| byte == b'\n').enumerate() {
            let record = match parse_plain_cbp_line(line) {
                Some(record) => record,
                None => parse_cbp_line(idx + 1, &String::from_utf8_lossy(line))?,
            };
            records.extend(record);
        }
        Ok(DecodedTrace {
            name: default_name.to_string(),
            records,
        })
    }
}

/// Whether `byte` is an ASCII character [`char::is_whitespace`] accepts:
/// space, tab, line feed, vertical tab, form feed or carriage return.
fn is_cbp_space(byte: u8) -> bool {
    matches!(byte, b' ' | b'\t'..=b'\r')
}

/// The fast path of [`CbpTextDecoder`]: one line (without its `\n`) in the
/// plain form `[ws] <1-16 hex digits> ws <0|1|T|N> [ws]`, or blank, or a
/// `#` comment after ASCII whitespace. `Some(None)` skips the line, and
/// `None` hands anything else to [`parse_cbp_line`], which locates errors.
fn parse_plain_cbp_line(line: &[u8]) -> Option<Option<BranchRecord>> {
    let skip_spaces = |mut at: usize| {
        while line.get(at).copied().is_some_and(is_cbp_space) {
            at += 1;
        }
        at
    };
    let start = skip_spaces(0);
    if matches!(line.get(start), None | Some(b'#')) {
        return Some(None);
    }
    let mut pc = 0u64;
    let mut at = start;
    while let Some(digit) = line.get(at).and_then(|&byte| (byte as char).to_digit(16)) {
        pc = pc << 4 | u64::from(digit);
        at += 1;
    }
    if !(1..=16).contains(&(at - start)) {
        return None;
    }
    let outcome_at = skip_spaces(at);
    if outcome_at == at {
        return None;
    }
    let taken = match line.get(outcome_at)? {
        b'1' | b'T' => true,
        b'0' | b'N' => false,
        _ => return None,
    };
    (skip_spaces(outcome_at + 1) == line.len())
        .then_some(Some(BranchRecord::conditional(pc, taken)))
}

/// The per-line parser of [`CbpTextDecoder`]: one line of text, trimmed and
/// split on Unicode whitespace. `Ok(None)` for a blank or comment line.
fn parse_cbp_line(line_no: usize, line: &str) -> Result<Option<BranchRecord>, FormatError> {
    let malformed = |reason: &str| FormatError::MalformedLine {
        line: line_no,
        reason: reason.to_string(),
    };
    let line = line.trim();
    if line.is_empty() || line.starts_with('#') {
        return Ok(None);
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
    Ok(Some(BranchRecord::conditional(pc, taken)))
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

    /// The whole-text decode the fast path sits in front of: every line of
    /// the lossily decoded text through the per-line parser.
    fn decode_per_line(bytes: &[u8]) -> Result<Vec<BranchRecord>, FormatError> {
        let text = String::from_utf8_lossy(bytes);
        let mut records = Vec::new();
        for (idx, line) in text.lines().enumerate() {
            records.extend(parse_cbp_line(idx + 1, line)?);
        }
        Ok(records)
    }

    #[test]
    fn cbp_fast_path_whitespace_is_unicode_whitespace() {
        for byte in 0..128u8 {
            assert_eq!(
                is_cbp_space(byte),
                char::from(byte).is_whitespace(),
                "byte {byte:#04x}"
            );
        }
    }

    #[test]
    fn cbp_fast_path_matches_the_per_line_parser_fuzz() {
        let pick = |rng: &mut SplitMix64, options: &[&'static str]| {
            options[(rng.next_u64() % options.len() as u64) as usize]
        };
        let spaces = [
            " ", " ", "\t", "  ", "\r", "\x0B", "\x0C", "\u{A0}", "\u{3000}", "\x1C", "\u{85}",
        ];
        let outcomes = [
            "0", "1", "T", "N", "0", "1", "2", "t", "10", "", "é", "\u{FF}",
        ];
        let tails = [
            "", "", "", " ", "\r", "\t ", " extra", "\u{A0}", "#", "\x0B",
        ];
        let mut rng = SplitMix64::new(0xCB7E);
        for round in 0..2_000 {
            let mut bytes = Vec::new();
            for _ in 0..1 + rng.next_u64() % 12 {
                let roll = rng.next_u64() % 100;
                match roll {
                    0..=4 => bytes
                        .extend_from_slice(pick(&mut rng, &["# note é", "#", "  # x"]).as_bytes()),
                    5..=7 => bytes.extend_from_slice(
                        pick(&mut rng, &["", "   ", "\t\x0C", "\u{A0}"]).as_bytes(),
                    ),
                    8..=9 => bytes.extend_from_slice(&[0xFF, b'1', b' ', 0xC3]),
                    10..=11 => bytes.extend(
                        (0..rng.next_u64() % 12).map(|_| rng.next_u64() as u8 & 0x7F | 0x20),
                    ),
                    _ => {
                        let leading = if roll.is_multiple_of(4) {
                            pick(&mut rng, &spaces)
                        } else {
                            ""
                        };
                        let digits = match roll % 13 {
                            0 => 17,
                            1 => 0,
                            _ => 1 + rng.next_u64() % 16,
                        };
                        let mut pc: String = (0..digits)
                            .map(|_| pick(&mut rng, &["0", "7", "a", "F", "c", "9", "e", "B"]))
                            .collect();
                        match roll % 17 {
                            0 => pc.insert(0, '+'),
                            1 => pc.insert(0, '-'),
                            2 => pc.push('g'),
                            3 => pc.push('\u{E9}'),
                            _ => {}
                        }
                        let separator = if roll.is_multiple_of(19) {
                            ""
                        } else {
                            pick(&mut rng, &spaces)
                        };
                        let outcome = pick(&mut rng, &outcomes);
                        let tail = if roll.is_multiple_of(3) {
                            pick(&mut rng, &tails)
                        } else {
                            ""
                        };
                        bytes.extend_from_slice(
                            format!("{leading}{pc}{separator}{outcome}{tail}").as_bytes(),
                        );
                        if roll.is_multiple_of(23) {
                            bytes.push(0xFE); // invalid UTF-8 inside a record line
                        }
                    }
                }
                bytes.extend_from_slice(pick(&mut rng, &["\n", "\n", "\r\n"]).as_bytes());
            }
            if round % 5 == 0 {
                bytes.pop(); // no final line ending
            }
            let fast = CbpTextDecoder
                .decode(&bytes, "t")
                .map(|decoded| decoded.records);
            assert_eq!(
                format!("{fast:?}"),
                format!("{:?}", decode_per_line(&bytes)),
                "round {round}: {:?}",
                String::from_utf8_lossy(&bytes)
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
