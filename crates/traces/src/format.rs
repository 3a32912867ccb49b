//! On-disk trace format definitions shared by the reader and the writer.
//!
//! Two encodings are supported:
//!
//! * a compact **binary** format (magic `b"TAGT"`), 21 bytes per record, and
//! * a human-readable **text** format, one record per line:
//!   `"<pc-hex> <kind-letter> <T|N> <target-hex> <gap>"`, with `#`-prefixed
//!   comment lines and a `! name <trace-name>` header line.
//!
//! Real CBP-style traces can be converted to either encoding by an external
//! tool and then consumed by the simulation harness exactly like the
//! synthetic suites.

use std::error::Error;
use std::fmt;
use std::io;

use crate::record::{BranchKind, BranchRecord};

/// Magic bytes identifying the binary trace format.
pub const MAGIC: [u8; 4] = *b"TAGT";

/// Current binary format version.
pub const VERSION: u32 = 1;

/// Size in bytes of one encoded record in the binary format.
pub const RECORD_BYTES: usize = 8 + 8 + 1 + 4;

/// Encodes a branch kind as a single byte for the binary format.
pub fn kind_to_byte(kind: BranchKind) -> u8 {
    match kind {
        BranchKind::Conditional => 0,
        BranchKind::Unconditional => 1,
        BranchKind::Call => 2,
        BranchKind::Return => 3,
        BranchKind::Indirect => 4,
    }
}

/// Decodes a branch kind from its binary encoding. Returns `None` for bytes
/// that encode no kind; readers turn that into a
/// [`FormatError::InvalidKind`] carrying the byte offset of the corrupt
/// record.
pub fn kind_from_byte(byte: u8) -> Option<BranchKind> {
    match byte {
        0 => Some(BranchKind::Conditional),
        1 => Some(BranchKind::Unconditional),
        2 => Some(BranchKind::Call),
        3 => Some(BranchKind::Return),
        4 => Some(BranchKind::Indirect),
        _ => None,
    }
}

/// Decodes one binary-format record from exactly [`RECORD_BYTES`] bytes.
///
/// `offset` is the byte offset of the record's first byte in the underlying
/// stream; it is only used to report *where* a corrupt record sits.
///
/// # Errors
///
/// Returns [`FormatError::InvalidKind`] (with `offset`) when the flag byte
/// encodes no branch kind.
///
/// # Panics
///
/// Panics if `bytes` is not exactly [`RECORD_BYTES`] long.
pub fn decode_record(bytes: &[u8], offset: u64) -> Result<BranchRecord, FormatError> {
    assert_eq!(bytes.len(), RECORD_BYTES, "one encoded record expected");
    let pc = u64::from_le_bytes(bytes[0..8].try_into().expect("slice length"));
    let target = u64::from_le_bytes(bytes[8..16].try_into().expect("slice length"));
    let flags = bytes[16];
    let gap = u32::from_le_bytes(bytes[17..21].try_into().expect("slice length"));
    let kind = kind_from_byte(flags & 0x7F).ok_or(FormatError::InvalidKind {
        byte: flags & 0x7F,
        offset,
    })?;
    Ok(BranchRecord {
        pc,
        target,
        taken: flags & 0x80 != 0,
        kind,
        gap,
    })
}

/// Encodes a branch kind as the single letter used by the text format.
pub fn kind_to_letter(kind: BranchKind) -> char {
    match kind {
        BranchKind::Conditional => 'C',
        BranchKind::Unconditional => 'J',
        BranchKind::Call => 'L',
        BranchKind::Return => 'R',
        BranchKind::Indirect => 'I',
    }
}

/// Decodes a branch kind from its text-format letter.
pub fn kind_from_letter(letter: char) -> Result<BranchKind, FormatError> {
    match letter {
        'C' => Ok(BranchKind::Conditional),
        'J' => Ok(BranchKind::Unconditional),
        'L' => Ok(BranchKind::Call),
        'R' => Ok(BranchKind::Return),
        'I' => Ok(BranchKind::Indirect),
        other => Err(FormatError::InvalidKindLetter(other)),
    }
}

/// Errors produced while reading or writing traces.
#[derive(Debug)]
pub enum FormatError {
    /// An underlying IO error.
    Io(io::Error),
    /// The file does not start with the expected magic bytes.
    BadMagic([u8; 4]),
    /// The file uses an unsupported format version.
    UnsupportedVersion(u32),
    /// An invalid branch-kind byte was encountered in a binary trace.
    InvalidKind {
        /// The offending kind byte.
        byte: u8,
        /// Byte offset of the corrupt record in the stream.
        offset: u64,
    },
    /// An invalid branch-kind letter was encountered in a text trace.
    InvalidKindLetter(char),
    /// A malformed line was encountered in a text trace.
    MalformedLine {
        /// 1-based line number.
        line: usize,
        /// Description of what was wrong.
        reason: String,
    },
    /// The trace ended in the middle of a record (or before its declared
    /// record count).
    TruncatedRecord {
        /// Byte offset where the incomplete record starts.
        offset: u64,
    },
    /// A compressed frame (gzip/DEFLATE) is corrupt: bad container header,
    /// malformed Huffman data, or a failed integrity check.
    CorruptFrame {
        /// Byte offset in the *compressed* stream where the corruption was
        /// detected.
        offset: u64,
        /// Description of what was wrong.
        reason: String,
    },
    /// An invalid branch-outcome byte was encountered in a CBP-style binary
    /// trace (only `0` and `1` encode outcomes).
    InvalidOutcome {
        /// The offending outcome byte.
        byte: u8,
        /// Byte offset of the corrupt record in the stream.
        offset: u64,
    },
}

impl fmt::Display for FormatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FormatError::Io(e) => write!(f, "io error: {e}"),
            FormatError::BadMagic(m) => write!(f, "bad magic bytes {m:?}, expected {MAGIC:?}"),
            FormatError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported trace format version {v}, expected {VERSION}"
                )
            }
            FormatError::InvalidKind { byte, offset } => {
                write!(f, "invalid branch kind byte {byte} at byte offset {offset}")
            }
            FormatError::InvalidKindLetter(c) => write!(f, "invalid branch kind letter '{c}'"),
            FormatError::MalformedLine { line, reason } => {
                write!(f, "malformed line {line}: {reason}")
            }
            FormatError::TruncatedRecord { offset } => write!(
                f,
                "trace ended in the middle of a record at byte offset {offset}"
            ),
            FormatError::CorruptFrame { offset, reason } => write!(
                f,
                "corrupt compressed frame at byte offset {offset}: {reason}"
            ),
            FormatError::InvalidOutcome { byte, offset } => write!(
                f,
                "invalid branch outcome byte {byte} at byte offset {offset}"
            ),
        }
    }
}

impl Error for FormatError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            FormatError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for FormatError {
    fn from(e: io::Error) -> Self {
        FormatError::Io(e)
    }
}

/// A copy renders the same message, so one source failure can fail every
/// run that read the source. An IO error is copied as its kind and message;
/// the message already names the OS error code.
impl Clone for FormatError {
    fn clone(&self) -> Self {
        match self {
            FormatError::Io(e) => FormatError::Io(io::Error::new(e.kind(), e.to_string())),
            FormatError::BadMagic(magic) => FormatError::BadMagic(*magic),
            FormatError::UnsupportedVersion(version) => FormatError::UnsupportedVersion(*version),
            FormatError::InvalidKind { byte, offset } => FormatError::InvalidKind {
                byte: *byte,
                offset: *offset,
            },
            FormatError::InvalidKindLetter(letter) => FormatError::InvalidKindLetter(*letter),
            FormatError::MalformedLine { line, reason } => FormatError::MalformedLine {
                line: *line,
                reason: reason.clone(),
            },
            FormatError::TruncatedRecord { offset } => {
                FormatError::TruncatedRecord { offset: *offset }
            }
            FormatError::CorruptFrame { offset, reason } => FormatError::CorruptFrame {
                offset: *offset,
                reason: reason.clone(),
            },
            FormatError::InvalidOutcome { byte, offset } => FormatError::InvalidOutcome {
                byte: *byte,
                offset: *offset,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_render_the_same_message() {
        let errors = [
            FormatError::Io(io::Error::from_raw_os_error(2)),
            FormatError::BadMagic(*b"NOPE"),
            FormatError::UnsupportedVersion(9),
            FormatError::InvalidKind {
                byte: 7,
                offset: 42,
            },
            FormatError::InvalidKindLetter('q'),
            FormatError::MalformedLine {
                line: 3,
                reason: "no pc".to_string(),
            },
            FormatError::TruncatedRecord { offset: 21 },
            FormatError::CorruptFrame {
                offset: 5,
                reason: "bad header".to_string(),
            },
            FormatError::InvalidOutcome { byte: 2, offset: 8 },
        ];
        for error in &errors {
            assert_eq!(error.clone().to_string(), error.to_string());
        }
        let FormatError::Io(copy) = errors[0].clone() else {
            unreachable!("an IO error clones to an IO error")
        };
        assert_eq!(copy.kind(), io::ErrorKind::NotFound);
    }

    #[test]
    fn kind_byte_round_trips() {
        for kind in [
            BranchKind::Conditional,
            BranchKind::Unconditional,
            BranchKind::Call,
            BranchKind::Return,
            BranchKind::Indirect,
        ] {
            assert_eq!(kind_from_byte(kind_to_byte(kind)).unwrap(), kind);
        }
    }

    #[test]
    fn kind_letter_round_trips() {
        for kind in [
            BranchKind::Conditional,
            BranchKind::Unconditional,
            BranchKind::Call,
            BranchKind::Return,
            BranchKind::Indirect,
        ] {
            assert_eq!(kind_from_letter(kind_to_letter(kind)).unwrap(), kind);
        }
    }

    #[test]
    fn invalid_encodings_are_rejected() {
        assert_eq!(kind_from_byte(42), None);
        assert!(matches!(
            kind_from_letter('x'),
            Err(FormatError::InvalidKindLetter('x'))
        ));
    }

    #[test]
    fn decode_record_reports_corruption_offset() {
        let mut bytes = [0u8; RECORD_BYTES];
        bytes[16] = 0x80 | 2; // taken call
        let record = decode_record(&bytes, 99).unwrap();
        assert!(record.taken);
        assert_eq!(record.kind, BranchKind::Call);
        bytes[16] = 0x7F; // no such kind
        let err = decode_record(&bytes, 1234).unwrap_err();
        assert!(matches!(
            err,
            FormatError::InvalidKind {
                byte: 0x7F,
                offset: 1234
            }
        ));
        assert!(format!("{err}").contains("1234"));
    }

    #[test]
    fn errors_format_and_expose_sources() {
        let io_err = FormatError::from(io::Error::other("boom"));
        assert!(format!("{io_err}").contains("boom"));
        assert!(Error::source(&io_err).is_some());
        let other = FormatError::BadMagic(*b"NOPE");
        assert!(Error::source(&other).is_none());
        assert!(!format!("{other}").is_empty());
    }
}
