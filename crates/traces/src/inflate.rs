//! A std-only DEFLATE (RFC 1951) decompressor and gzip (RFC 1952) framing,
//! plus a matching stored-block gzip compressor for trace export.
//!
//! The workspace carries no external dependencies, so compressed trace
//! files are handled by this from-scratch implementation. It mirrors the
//! error discipline of the binary trace reader: every failure is a
//! [`FormatError::CorruptFrame`] carrying the byte offset in the
//! *compressed* stream at which the corruption was detected, and garbage
//! input never panics (see the fuzz test below).
//!
//! The decompressor is table-driven: a 64-bit bit buffer refilled a word
//! at a time, one lookup of the next 10 bits per Huffman symbol (the
//! canonical walk only for longer codes), bulk copies of matches that
//! do not overlap themselves and a slice-by-8 CRC-32. Its results, error
//! reasons and error offsets are exactly those of the bit-at-a-time
//! decoder it replaced, which the tests keep as an oracle
//! (`inflate/reference.rs`): the buffer reads ahead, so offsets count the
//! bits consumed, not the bytes loaded.
//!
//! The compressor emits only *stored* (uncompressed) DEFLATE blocks — a
//! valid, universally readable gzip stream without implementing Huffman
//! encoding. `gzip -d`, zlib and this module's own [`gunzip`] all accept
//! it; the decompressor conversely accepts streams from any conforming
//! compressor (fixed and dynamic Huffman blocks included).

use crate::format::FormatError;

#[cfg(test)]
mod reference;

/// Maximum bits of a DEFLATE Huffman code.
const MAX_BITS: usize = 15;
/// Code bits resolved by one table lookup; longer codes take the canonical
/// walk.
const FAST_BITS: u32 = 10;
/// Number of literal/length symbols (0..=287, 286/287 never occur in data).
const MAX_LIT_SYMBOLS: usize = 288;
/// Number of distance symbols.
const MAX_DIST_SYMBOLS: usize = 30;

/// Base match lengths for length symbols 257..=285.
const LENGTH_BASE: [u16; 29] = [
    3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 15, 17, 19, 23, 27, 31, 35, 43, 51, 59, 67, 83, 99, 115, 131,
    163, 195, 227, 258,
];
/// Extra bits for length symbols 257..=285.
const LENGTH_EXTRA: [u8; 29] = [
    0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 0,
];
/// Base match distances for distance symbols 0..=29.
const DIST_BASE: [u16; 30] = [
    1, 2, 3, 4, 5, 7, 9, 13, 17, 25, 33, 49, 65, 97, 129, 193, 257, 385, 513, 769, 1025, 1537,
    2049, 3073, 4097, 6145, 8193, 12289, 16385, 24577,
];
/// Extra bits for distance symbols 0..=29.
const DIST_EXTRA: [u8; 30] = [
    0, 0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9, 10, 10, 11, 11, 12, 12, 13,
    13,
];
/// The order in which code-length code lengths are stored (RFC 1951 §3.2.7).
const CLEN_ORDER: [usize; 19] = [
    16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15,
];

/// The standard CRC-32 (IEEE 802.3) tables for slice-by-8, computed at
/// compile time. `CRC_TABLES[0]` is the classic byte-at-a-time table;
/// `CRC_TABLES[k][n]` is the CRC of byte `n` followed by `k` zero bytes.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut n = 0;
    while n < 256 {
        let mut c = n as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][n] = c;
        n += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut n = 0;
        while n < 256 {
            let previous = tables[k - 1][n];
            tables[k][n] = (previous >> 8) ^ tables[0][(previous & 0xFF) as usize];
            n += 1;
        }
        k += 1;
    }
    tables
};

/// The CRC-32 checksum gzip trailers carry (IEEE polynomial, reflected),
/// eight bytes per step (slice-by-8).
pub fn crc32(bytes: &[u8]) -> u32 {
    let [t0, t1, t2, t3, t4, t5, t6, t7] = &CRC_TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        let low = c ^ u32::from_le_bytes([word[0], word[1], word[2], word[3]]);
        c = t7[(low & 0xFF) as usize]
            ^ t6[((low >> 8) & 0xFF) as usize]
            ^ t5[((low >> 16) & 0xFF) as usize]
            ^ t4[(low >> 24) as usize]
            ^ t3[word[4] as usize]
            ^ t2[word[5] as usize]
            ^ t1[word[6] as usize]
            ^ t0[word[7] as usize];
    }
    for &byte in words.remainder() {
        c = t0[((c ^ byte as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// LSB-first bit reader over a byte slice: a 64-bit buffer refilled a word
/// at a time. It loads ahead of what it consumes, so error offsets are
/// derived from the consumed bit count, never from the load position.
struct BitReader<'a> {
    data: &'a [u8],
    /// Index of the next byte not yet counted into `buf`.
    pos: usize,
    /// Unconsumed bits, LSB first. The low `count` bits are loaded; bits
    /// above them are either zero or the true bits that follow.
    buf: u64,
    count: u32,
    /// Offset of `data[0]` in the enclosing stream, for error messages.
    base_offset: u64,
}

impl<'a> BitReader<'a> {
    fn new(data: &'a [u8], base_offset: u64) -> Self {
        BitReader {
            data,
            pos: 0,
            buf: 0,
            count: 0,
            base_offset,
        }
    }

    /// Bytes holding at least one consumed bit.
    fn consumed_bytes(&self) -> usize {
        self.pos - (self.count / 8) as usize
    }

    /// Byte offset (in the enclosing stream) reported by errors raised
    /// here: one past the byte that holds the last consumed bit.
    fn offset(&self) -> u64 {
        self.base_offset + self.consumed_bytes() as u64
    }

    fn corrupt(&self, reason: &str) -> FormatError {
        FormatError::CorruptFrame {
            offset: self.offset(),
            reason: reason.to_string(),
        }
    }

    /// The error for a read past the last byte, located at the stream end.
    fn end_of_data(&self) -> FormatError {
        FormatError::CorruptFrame {
            offset: self.base_offset + self.data.len() as u64,
            reason: "unexpected end of compressed data".to_string(),
        }
    }

    /// Tops the buffer up to more than 56 bits, or to every bit left.
    #[inline]
    fn refill(&mut self) {
        if self.count > 56 {
            return;
        }
        if let Some(word) = self.data.get(self.pos..self.pos + 8) {
            let word = u64::from_le_bytes(word.try_into().expect("an 8-byte slice"));
            self.buf |= word << self.count;
            let whole = (63 - self.count) / 8;
            self.pos += whole as usize;
            self.count += whole * 8;
        } else {
            while self.count <= 56 {
                let Some(&byte) = self.data.get(self.pos) else {
                    break;
                };
                self.buf |= u64::from(byte) << self.count;
                self.pos += 1;
                self.count += 8;
            }
        }
    }

    #[inline]
    fn consume(&mut self, count: u32) {
        self.buf >>= count;
        self.count -= count;
    }

    /// Reads `count` bits (0..=16), LSB first.
    #[inline]
    fn bits(&mut self, count: u32) -> Result<u32, FormatError> {
        if self.count < count {
            self.refill();
            if self.count < count {
                return Err(self.end_of_data());
            }
        }
        let value = (self.buf & ((1u64 << count) - 1)) as u32;
        self.consume(count);
        Ok(value)
    }

    /// Discards partial bits and returns to a byte boundary.
    fn align(&mut self) {
        self.consume(self.count % 8);
    }

    /// Reads `count` whole bytes after aligning (used by stored blocks).
    fn bytes(&mut self, count: usize) -> Result<&'a [u8], FormatError> {
        self.align();
        let start = self.consumed_bytes();
        self.pos = start;
        self.buf = 0;
        self.count = 0;
        let Some(end) = start.checked_add(count).filter(|&e| e <= self.data.len()) else {
            return Err(self.corrupt("stored block overruns the compressed data"));
        };
        self.pos = end;
        Ok(&self.data[start..end])
    }
}

/// A canonical Huffman decoding table. Codes of at most [`FAST_BITS`] bits
/// decode by one lookup of the next bits; longer ones by the canonical walk
/// over the symbol counts per code length and the symbols sorted by
/// (length, symbol).
struct Huffman {
    /// Indexed by the next [`FAST_BITS`] stream bits: `symbol << 4 |
    /// length` of the code they start with, or 0 when that code is longer
    /// or unassigned.
    fast: [u16; 1 << FAST_BITS],
    counts: [u16; MAX_BITS + 1],
    symbols: Vec<u16>,
}

impl Huffman {
    /// Builds the table from per-symbol code lengths. Over-subscribed
    /// length sets are rejected; incomplete sets are allowed (they error at
    /// decode time if an unassigned code appears), matching zlib.
    fn from_lengths(lengths: &[u8], reader: &BitReader<'_>) -> Result<Huffman, FormatError> {
        let mut counts = [0u16; MAX_BITS + 1];
        for &len in lengths {
            counts[len as usize] += 1;
        }
        if counts[0] as usize == lengths.len() {
            return Err(reader.corrupt("Huffman code with no symbols"));
        }
        let mut left = 1i32;
        for &count in &counts[1..] {
            left = (left << 1) - count as i32;
            if left < 0 {
                return Err(reader.corrupt("over-subscribed Huffman code"));
            }
        }
        let mut offsets = [0u16; MAX_BITS + 2];
        // The first canonical code of each length (RFC 1951 §3.2.2).
        let mut next_code = [0u16; MAX_BITS + 1];
        for len in 1..=MAX_BITS {
            offsets[len + 1] = offsets[len] + counts[len];
            if len > 1 {
                next_code[len] = (next_code[len - 1] + counts[len - 1]) << 1;
            }
        }
        let mut symbols = vec![0u16; lengths.len()];
        let mut fast = [0u16; 1 << FAST_BITS];
        for (symbol, &len) in lengths.iter().enumerate() {
            let len = len as usize;
            if len == 0 {
                continue;
            }
            symbols[offsets[len] as usize] = symbol as u16;
            offsets[len] += 1;
            let code = next_code[len];
            next_code[len] += 1;
            if len <= FAST_BITS as usize {
                // Codes are sent MSB first into an LSB-first stream.
                let first = (code.reverse_bits() >> (16 - len)) as usize;
                let entry = (symbol as u16) << 4 | len as u16;
                for slot in fast.iter_mut().skip(first).step_by(1 << len) {
                    *slot = entry;
                }
            }
        }
        Ok(Huffman {
            fast,
            counts,
            symbols,
        })
    }

    /// Decodes one symbol: a table lookup for short codes, the canonical
    /// walk otherwise.
    #[inline]
    fn decode(&self, reader: &mut BitReader<'_>) -> Result<u16, FormatError> {
        if reader.count < MAX_BITS as u32 {
            reader.refill();
        }
        let entry = self.fast[(reader.buf & ((1 << FAST_BITS) - 1)) as usize];
        let len = u32::from(entry & 0xF);
        if entry != 0 && len <= reader.count {
            reader.consume(len);
            return Ok(entry >> 4);
        }
        self.decode_slow(reader)
    }

    /// The canonical walk over the buffered bits, one code length at a
    /// time: a long code, an unassigned one or one cut off by the end of
    /// the data. The buffer holds at least [`MAX_BITS`] bits unless the
    /// data has run out, so a walk that outruns it has reached the end.
    #[cold]
    fn decode_slow(&self, reader: &mut BitReader<'_>) -> Result<u16, FormatError> {
        let mut code = 0i32;
        let mut first = 0i32;
        let mut index = 0i32;
        for len in 1..=MAX_BITS as u32 {
            if len > reader.count {
                return Err(reader.end_of_data());
            }
            code |= ((reader.buf >> (len - 1)) & 1) as i32;
            let count = self.counts[len as usize] as i32;
            if code - first < count {
                reader.consume(len);
                return Ok(self.symbols[(index + (code - first)) as usize]);
            }
            index += count;
            first = (first + count) << 1;
            code <<= 1;
        }
        reader.consume(MAX_BITS as u32);
        Err(reader.corrupt("invalid Huffman code"))
    }
}

/// The fixed literal/length table of BTYPE=01 blocks.
fn fixed_literal_table(reader: &BitReader<'_>) -> Result<Huffman, FormatError> {
    let mut lengths = [0u8; MAX_LIT_SYMBOLS];
    for (symbol, len) in lengths.iter_mut().enumerate() {
        *len = match symbol {
            0..=143 => 8,
            144..=255 => 9,
            256..=279 => 7,
            _ => 8,
        };
    }
    Huffman::from_lengths(&lengths, reader)
}

/// The fixed distance table of BTYPE=01 blocks.
fn fixed_distance_table(reader: &BitReader<'_>) -> Result<Huffman, FormatError> {
    let lengths = [5u8; MAX_DIST_SYMBOLS];
    Huffman::from_lengths(&lengths, reader)
}

/// Reads the dynamic code-length descriptor of a BTYPE=10 block and builds
/// its literal/length and distance tables.
fn dynamic_tables(reader: &mut BitReader<'_>) -> Result<(Huffman, Huffman), FormatError> {
    let hlit = reader.bits(5)? as usize + 257;
    let hdist = reader.bits(5)? as usize + 1;
    let hclen = reader.bits(4)? as usize + 4;
    if hlit > MAX_LIT_SYMBOLS || hdist > MAX_DIST_SYMBOLS + 2 {
        return Err(reader.corrupt("dynamic block declares too many symbols"));
    }
    let mut clen_lengths = [0u8; 19];
    for &slot in CLEN_ORDER.iter().take(hclen) {
        clen_lengths[slot] = reader.bits(3)? as u8;
    }
    let clen_table = Huffman::from_lengths(&clen_lengths, reader)?;

    let mut lengths = vec![0u8; hlit + hdist];
    let mut index = 0;
    while index < lengths.len() {
        let symbol = clen_table.decode(reader)?;
        match symbol {
            0..=15 => {
                lengths[index] = symbol as u8;
                index += 1;
            }
            16 => {
                if index == 0 {
                    return Err(reader.corrupt("length repeat with no previous length"));
                }
                let previous = lengths[index - 1];
                let repeat = 3 + reader.bits(2)? as usize;
                if index + repeat > lengths.len() {
                    return Err(reader.corrupt("length repeat overflows the symbol count"));
                }
                lengths[index..index + repeat].fill(previous);
                index += repeat;
            }
            17 | 18 => {
                let repeat = if symbol == 17 {
                    3 + reader.bits(3)? as usize
                } else {
                    11 + reader.bits(7)? as usize
                };
                if index + repeat > lengths.len() {
                    return Err(reader.corrupt("zero-length repeat overflows the symbol count"));
                }
                index += repeat;
            }
            _ => return Err(reader.corrupt("invalid code-length symbol")),
        }
    }
    if lengths[256] == 0 {
        return Err(reader.corrupt("dynamic block has no end-of-block code"));
    }
    let literal = Huffman::from_lengths(&lengths[..hlit], reader)?;
    let distance = Huffman::from_lengths(&lengths[hlit..], reader)?;
    Ok((literal, distance))
}

/// Decodes the compressed payload of one Huffman block into `out`.
fn inflate_block(
    reader: &mut BitReader<'_>,
    literal: &Huffman,
    distance: &Huffman,
    out: &mut Vec<u8>,
) -> Result<(), FormatError> {
    loop {
        let symbol = literal.decode(reader)?;
        match symbol {
            0..=255 => out.push(symbol as u8),
            256 => return Ok(()),
            257..=285 => {
                let slot = symbol as usize - 257;
                let length =
                    LENGTH_BASE[slot] as usize + reader.bits(LENGTH_EXTRA[slot] as u32)? as usize;
                let dist_symbol = distance.decode(reader)? as usize;
                if dist_symbol >= MAX_DIST_SYMBOLS {
                    return Err(reader.corrupt("invalid distance symbol"));
                }
                let dist = DIST_BASE[dist_symbol] as usize
                    + reader.bits(DIST_EXTRA[dist_symbol] as u32)? as usize;
                if dist > out.len() {
                    return Err(reader.corrupt("match distance reaches before stream start"));
                }
                let start = out.len() - dist;
                if length <= dist {
                    out.extend_from_within(start..start + length);
                } else {
                    // The match overlaps the bytes it writes.
                    for i in start..start + length {
                        let byte = out[i];
                        out.push(byte);
                    }
                }
            }
            _ => return Err(reader.corrupt("invalid literal/length symbol")),
        }
    }
}

/// Decompresses a raw DEFLATE stream starting at `data[start]`.
///
/// Returns the decompressed bytes and the index one past the last
/// compressed byte consumed (gzip framing reads its trailer from there).
/// `base_offset` is added to every reported error offset, so callers can
/// report positions in the enclosing file.
///
/// # Errors
///
/// [`FormatError::CorruptFrame`] with the byte offset at which the stream
/// stopped making sense.
pub fn inflate_from(
    data: &[u8],
    start: usize,
    base_offset: u64,
) -> Result<(Vec<u8>, usize), FormatError> {
    let mut reader = BitReader::new(&data[start.min(data.len())..], base_offset + start as u64);
    let mut out = Vec::new();
    loop {
        let final_block = reader.bits(1)? == 1;
        let block_type = reader.bits(2)?;
        match block_type {
            0 => {
                let header = reader.bytes(4)?;
                let len = u16::from_le_bytes([header[0], header[1]]);
                let nlen = u16::from_le_bytes([header[2], header[3]]);
                if len != !nlen {
                    return Err(FormatError::CorruptFrame {
                        offset: reader.offset() - 4,
                        reason: "stored block length check failed".to_string(),
                    });
                }
                let bytes = reader.bytes(len as usize)?;
                out.extend_from_slice(bytes);
            }
            1 => {
                let literal = fixed_literal_table(&reader)?;
                let distance = fixed_distance_table(&reader)?;
                inflate_block(&mut reader, &literal, &distance, &mut out)?;
            }
            2 => {
                let (literal, distance) = dynamic_tables(&mut reader)?;
                inflate_block(&mut reader, &literal, &distance, &mut out)?;
            }
            _ => return Err(reader.corrupt("reserved DEFLATE block type")),
        }
        if final_block {
            break;
        }
    }
    reader.align();
    Ok((out, start + reader.consumed_bytes()))
}

/// Decompresses a complete raw DEFLATE stream.
///
/// # Errors
///
/// [`FormatError::CorruptFrame`] with the byte offset of the corruption.
pub fn inflate(data: &[u8]) -> Result<Vec<u8>, FormatError> {
    inflate_from(data, 0, 0).map(|(out, _)| out)
}

fn corrupt_at(offset: u64, reason: &str) -> FormatError {
    FormatError::CorruptFrame {
        offset,
        reason: reason.to_string(),
    }
}

/// Decompresses a gzip (RFC 1952) file: container header, DEFLATE payload,
/// and the CRC-32 / length trailer, both of which are verified.
///
/// # Errors
///
/// [`FormatError::CorruptFrame`] with the byte offset of the corruption —
/// a bad magic/method byte, a truncated optional field, corrupt DEFLATE
/// data, trailing garbage, or a failed CRC / length check.
pub fn gunzip(data: &[u8]) -> Result<Vec<u8>, FormatError> {
    if data.len() < 10 {
        return Err(corrupt_at(data.len() as u64, "truncated gzip header"));
    }
    if data[0] != 0x1F || data[1] != 0x8B {
        return Err(corrupt_at(0, "bad gzip magic bytes"));
    }
    if data[2] != 8 {
        return Err(corrupt_at(2, "unsupported gzip compression method"));
    }
    let flags = data[3];
    if flags & 0xE0 != 0 {
        return Err(corrupt_at(3, "reserved gzip flag bits set"));
    }
    // MTIME (4), XFL, OS are informational.
    let mut pos = 10usize;
    if flags & 0x04 != 0 {
        // FEXTRA
        if pos + 2 > data.len() {
            return Err(corrupt_at(pos as u64, "truncated gzip extra-field length"));
        }
        let xlen = u16::from_le_bytes([data[pos], data[pos + 1]]) as usize;
        pos += 2;
        if pos + xlen > data.len() {
            return Err(corrupt_at(pos as u64, "truncated gzip extra field"));
        }
        pos += xlen;
    }
    for (bit, what) in [(0x08u8, "file name"), (0x10u8, "comment")] {
        if flags & bit != 0 {
            match data[pos..].iter().position(|&b| b == 0) {
                Some(nul) => pos += nul + 1,
                None => {
                    return Err(corrupt_at(
                        data.len() as u64,
                        &format!("unterminated gzip {what}"),
                    ))
                }
            }
        }
    }
    if flags & 0x02 != 0 {
        // FHCRC: 16-bit header checksum, skipped (not part of the payload
        // integrity contract; the full CRC-32 below is verified).
        if pos + 2 > data.len() {
            return Err(corrupt_at(pos as u64, "truncated gzip header checksum"));
        }
        pos += 2;
    }

    let (out, end) = inflate_from(data, pos, 0)?;
    if end + 8 > data.len() {
        return Err(corrupt_at(end as u64, "truncated gzip trailer"));
    }
    if end + 8 < data.len() {
        return Err(corrupt_at(
            (end + 8) as u64,
            "trailing garbage after gzip trailer",
        ));
    }
    let expected_crc = u32::from_le_bytes(data[end..end + 4].try_into().expect("slice length"));
    let expected_len = u32::from_le_bytes(data[end + 4..end + 8].try_into().expect("slice length"));
    let actual_crc = crc32(&out);
    if actual_crc != expected_crc {
        return Err(corrupt_at(end as u64, "gzip CRC-32 mismatch"));
    }
    if expected_len != out.len() as u32 {
        return Err(corrupt_at((end + 4) as u64, "gzip length (ISIZE) mismatch"));
    }
    Ok(out)
}

/// Compresses `data` into a gzip file using stored (uncompressed) DEFLATE
/// blocks: a valid RFC 1952 stream any gzip implementation reads, produced
/// without a Huffman encoder. The size overhead is 5 bytes per 64 KiB
/// block plus the 18-byte container.
pub fn gzip_compress(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len() + 18 + data.len() / 65_535 * 5 + 5);
    // Header: magic, method=deflate, no flags, zero mtime, no extra flags,
    // "unknown" OS.
    out.extend_from_slice(&[0x1F, 0x8B, 8, 0, 0, 0, 0, 0, 0, 0xFF]);
    let mut chunks = data.chunks(65_535).peekable();
    if data.is_empty() {
        // An empty stream still needs one final stored block.
        out.extend_from_slice(&[0x01, 0, 0, 0xFF, 0xFF]);
    }
    while let Some(chunk) = chunks.next() {
        let bfinal = if chunks.peek().is_none() { 1u8 } else { 0u8 };
        out.push(bfinal); // BTYPE=00 in bits 1-2.
        let len = chunk.len() as u16;
        out.extend_from_slice(&len.to_le_bytes());
        out.extend_from_slice(&(!len).to_le_bytes());
        out.extend_from_slice(chunk);
    }
    out.extend_from_slice(&crc32(data).to_le_bytes());
    out.extend_from_slice(&(data.len() as u32).to_le_bytes());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decoder::{GzipNativeDecoder, TraceDecoder};
    use crate::rng::SplitMix64;

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn stored_round_trip_through_own_compressor() {
        for len in [0usize, 1, 100, 65_535, 65_536, 200_000] {
            let mut rng = SplitMix64::new(len as u64 + 1);
            let data: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
            let packed = gzip_compress(&data);
            let back = gunzip(&packed).unwrap_or_else(|e| panic!("len {len}: {e}"));
            assert_eq!(back, data, "len {len}");
        }
    }

    /// A fixed-Huffman stream compressed by an external conforming
    /// implementation (`zlib.compress(b"hello hello hello hello", 9)` raw
    /// deflate payload): exercises the fixed tables and match copies.
    #[test]
    fn fixed_huffman_stream_with_matches_decodes() {
        // Raw DEFLATE: literal "hello " then matches; hand-assembled
        // fixed-Huffman block: literals 'a'..'f' then end-of-block.
        // Build programmatically instead: BFINAL=1, BTYPE=01, then 8-bit
        // codes for 0x30+byte (bytes 0..=143 map to codes 0x30..0xBF,
        // emitted MSB-first within the code).
        let mut bits: Vec<bool> = vec![true, true, false]; // BFINAL=1, BTYPE=01 (LSB first)
        let push_code = |bits: &mut Vec<bool>, code: u16, len: u32| {
            for i in (0..len).rev() {
                bits.push(code & (1 << i) != 0);
            }
        };
        for &byte in b"abcdef" {
            push_code(&mut bits, 0x30 + byte as u16, 8);
        }
        push_code(&mut bits, 0, 7); // end-of-block (symbol 256, code 0000000)
        let mut data = vec![0u8; bits.len().div_ceil(8)];
        for (i, &bit) in bits.iter().enumerate() {
            if bit {
                data[i / 8] |= 1 << (i % 8);
            }
        }
        let out = inflate(&data).expect("fixed-Huffman stream decodes");
        assert_eq!(out, b"abcdef");
    }

    #[test]
    fn match_copies_replicate_overlapping_history() {
        // Fixed-Huffman: literal 'x', then a length-6 match at distance 1
        // ("xxxxxxx" total), then end-of-block.
        let mut bits: Vec<bool> = vec![true, true, false]; // BFINAL=1, BTYPE=01
        let push_code = |bits: &mut Vec<bool>, code: u16, len: u32| {
            for i in (0..len).rev() {
                bits.push(code & (1 << i) != 0);
            }
        };
        push_code(&mut bits, 0x30 + b'x' as u16, 8);
        // Length symbol 260 (base 6, no extra): codes 256..=279 are 7-bit
        // values 0..=23, so symbol 260 is code 4.
        push_code(&mut bits, 4, 7);
        // Distance symbol 0 (distance 1): 5-bit code 0.
        push_code(&mut bits, 0, 5);
        push_code(&mut bits, 0, 7); // end of block
        let mut data = vec![0u8; bits.len().div_ceil(8)];
        for (i, &bit) in bits.iter().enumerate() {
            if bit {
                data[i / 8] |= 1 << (i % 8);
            }
        }
        let out = inflate(&data).expect("overlapping match decodes");
        assert_eq!(out, b"xxxxxxx");
    }

    #[test]
    fn corrupt_streams_report_offsets_not_panics() {
        let packed = gzip_compress(b"the quick brown fox jumps over the lazy dog");

        // Bad magic.
        let mut bad = packed.clone();
        bad[0] = 0x00;
        assert!(matches!(
            gunzip(&bad),
            Err(FormatError::CorruptFrame { offset: 0, .. })
        ));

        // Bad method byte.
        let mut bad = packed.clone();
        bad[2] = 7;
        assert!(matches!(
            gunzip(&bad),
            Err(FormatError::CorruptFrame { offset: 2, .. })
        ));

        // Flipped payload byte: the stored-block copy survives (stored
        // blocks have no redundancy) but the CRC check catches it.
        let mut bad = packed.clone();
        let payload_at = 15; // inside the stored block data
        bad[payload_at] ^= 0xFF;
        let err = gunzip(&bad).unwrap_err();
        assert!(
            matches!(err, FormatError::CorruptFrame { .. }),
            "unexpected {err:?}"
        );
        assert!(err.to_string().contains("CRC"), "{err}");

        // Truncated trailer.
        let truncated = &packed[..packed.len() - 3];
        let err = gunzip(truncated).unwrap_err();
        assert!(err.to_string().contains("trailer"), "{err}");

        // Trailing garbage.
        let mut padded = packed.clone();
        padded.push(0x55);
        let err = gunzip(&padded).unwrap_err();
        assert!(err.to_string().contains("garbage"), "{err}");

        // Corrupt stored-block length complement.
        let mut bad = packed.clone();
        bad[12] ^= 0xFF; // NLEN byte of the first stored block
        let err = gunzip(&bad).unwrap_err();
        assert!(err.to_string().contains("length check"), "{err}");
    }

    #[test]
    fn reserved_block_type_is_rejected() {
        // BFINAL=1, BTYPE=11 (reserved).
        let err = inflate(&[0b0000_0111]).unwrap_err();
        assert!(err.to_string().contains("reserved"), "{err}");
    }

    #[test]
    fn garbage_never_panics_fuzz() {
        let mut rng = SplitMix64::new(0x1F8B);
        for round in 0..2_000 {
            let len = (rng.next_u64() % 192) as usize;
            let mut data: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
            // Half the rounds start from a valid prefix to reach deeper
            // code paths (header parsing alone rejects pure noise).
            if round % 2 == 0 && data.len() > 10 {
                data[0] = 0x1F;
                data[1] = 0x8B;
                data[2] = 8;
                data[3] &= 0x1F;
            }
            let _ = gunzip(&data); // must return, never panic
            let [fast, oracle] = both(&data, 0, 0);
            assert_eq!(fast, oracle, "round {round}");
        }
    }

    #[test]
    fn dynamic_huffman_stream_decodes() {
        // A minimal dynamic-Huffman block encoding "aab": HLIT=257+2 isn't
        // needed — assemble one with two literal symbols ('a', 'b') plus
        // end-of-block, all code length 2, via the code-length alphabet.
        let mut bits: Vec<bool> = Vec::new();
        let push = |bits: &mut Vec<bool>, value: u32, len: u32| {
            for i in 0..len {
                bits.push(value & (1 << i) != 0);
            }
        };
        // Header: BFINAL=1, BTYPE=10.
        push(&mut bits, 1, 1);
        push(&mut bits, 2, 2);
        // HLIT = 257 (0), HDIST = 1 (0), HCLEN = 19 (15).
        push(&mut bits, 0, 5);
        push(&mut bits, 0, 5);
        push(&mut bits, 15, 4);
        // Code-length code lengths, in CLEN_ORDER
        // [16,17,18,0,8,7,9,6,10,5,11,4,12,3,13,2,14,1,15]:
        // we need: symbol 18 -> len 2 (zero runs), 0 -> len 2,
        // 2 -> len 2 (the literal code lengths), 1 -> len 2 (unused dist).
        // Everything else 0.
        let clen_lengths: [u32; 19] = [0, 0, 2, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 0, 2, 0];
        for v in clen_lengths {
            push(&mut bits, v, 3);
        }
        // Canonical codes for the clen alphabet {0:2, 1:2, 2:2, 18:2}:
        // symbol 0 -> 00, 1 -> 01, 2 -> 10, 18 -> 11 (MSB-first).
        let clen_code = |bits: &mut Vec<bool>, code: u32| {
            bits.push(code & 2 != 0);
            bits.push(code & 1 != 0);
        };
        // Literal lengths: 97 zeros ('a' is symbol 97), then len 2 for 'a',
        // len 2 for 'b', zeros up to 255, len 2 for 256 (EOB).
        // 97 zeros: 18 with repeat 88 (11+extra 77? max 138) — use 18 with
        // extra bits: repeat = 11 + 7-bit extra. 97 = 11 + 86.
        clen_code(&mut bits, 3); // symbol 18
        push(&mut bits, 86, 7);
        clen_code(&mut bits, 2); // 'a' -> len 2
        clen_code(&mut bits, 2); // 'b' -> len 2
                                 // Zeros from 99 to 255: 157 zeros = 138 + 19.
        clen_code(&mut bits, 3);
        push(&mut bits, 127, 7); // 138 zeros
        clen_code(&mut bits, 3);
        push(&mut bits, 8, 7); // 19 zeros
        clen_code(&mut bits, 2); // symbol 256 -> len 2
                                 // One distance symbol, length 1 (symbol 0): code-length 1 via
                                 // clen symbol 1.
        clen_code(&mut bits, 1);
        // Literal canonical codes: {97:2, 98:2, 256:2} -> 'a'=00, 'b'=01,
        // 256=10 (MSB-first).
        let lit = |bits: &mut Vec<bool>, code: u32| {
            bits.push(code & 2 != 0);
            bits.push(code & 1 != 0);
        };
        lit(&mut bits, 0); // 'a'
        lit(&mut bits, 0); // 'a'
        lit(&mut bits, 1); // 'b'
        lit(&mut bits, 2); // end of block
        let mut data = vec![0u8; bits.len().div_ceil(8)];
        for (i, &bit) in bits.iter().enumerate() {
            if bit {
                data[i / 8] |= 1 << (i % 8);
            }
        }
        let out = inflate(&data).expect("dynamic-Huffman stream decodes");
        assert_eq!(out, b"aab");
    }

    /// `gzip -9 -n --rsyncable` (GNU gzip 1.12) output for the native
    /// bytes of `suites::cbp1_mini().traces()[0].generate(FIXTURE_BRANCHES)`.
    /// `--rsyncable` ends a block every few KiB of input (plain `-9` would
    /// fill 32 Ki symbols first, one block at this size), so the fixture
    /// holds many dynamic blocks, a fixed one and the empty stored blocks
    /// that byte-align each flush.
    const FIXTURE: &[u8] = include_bytes!("../testdata/cbp1-mini-0.trace.gz");
    const FIXTURE_BRANCHES: usize = 10_000;
    /// The fixture's gzip header: no optional fields.
    const FIXTURE_PAYLOAD: usize = 10;

    /// Both decoders' results in one comparable form.
    fn both(data: &[u8], start: usize, base: u64) -> [String; 2] {
        [
            format!("{:?}", inflate_from(data, start, base)),
            format!("{:?}", reference::inflate_from(data, start, base)),
        ]
    }

    #[test]
    fn real_gzip_fixture_decodes_to_the_generated_trace() {
        let trace = crate::suites::cbp1_mini().traces()[0].generate(FIXTURE_BRANCHES);
        let decoded = GzipNativeDecoder
            .decode(FIXTURE, "fallback")
            .expect("the fixture decodes");
        assert_eq!(decoded.name, trace.name());
        assert_eq!(decoded.records, trace.records());
        let mut blocks = Vec::new();
        reference::inflate_logged(FIXTURE, FIXTURE_PAYLOAD, 0, &mut blocks).unwrap();
        let dynamic = blocks.iter().filter(|&&btype| btype == 2).count();
        assert!(
            dynamic >= 3 && blocks.contains(&1) && blocks.contains(&0),
            "the fixture should hold several dynamic blocks, a fixed and a stored one: {blocks:?}"
        );
    }

    #[test]
    fn table_decoder_matches_the_bit_at_a_time_oracle() {
        let [fast, oracle] = both(FIXTURE, FIXTURE_PAYLOAD, 0);
        assert!(fast.starts_with("Ok("));
        assert_eq!(fast, oracle);
        let mut rng = SplitMix64::new(0x0DEF_1A7E);
        let past_header = FIXTURE.len() - FIXTURE_PAYLOAD;
        for round in 0..96 {
            let mut data = FIXTURE.to_vec();
            let case = if round % 3 == 2 {
                let cut = FIXTURE_PAYLOAD + (rng.next_u64() as usize) % past_header;
                data.truncate(cut);
                format!("cut at {cut}")
            } else {
                let flips: Vec<usize> = (0..1 + round % 3)
                    .map(|_| FIXTURE_PAYLOAD * 8 + (rng.next_u64() as usize) % (past_header * 8))
                    .collect();
                for &bit in &flips {
                    data[bit / 8] ^= 1 << (bit % 8);
                }
                format!("bits {flips:?} flipped")
            };
            let base = rng.next_u64() % 1_000;
            let [fast, oracle] = both(&data, FIXTURE_PAYLOAD, base);
            assert_eq!(fast, oracle, "{case}");
            let _ = gunzip(&data);
        }
    }

    /// LSB-first bit writer for hand-built DEFLATE streams.
    #[derive(Default)]
    struct BitWriter {
        bytes: Vec<u8>,
        bits: usize,
    }

    impl BitWriter {
        /// Appends `len` bits of `value`, LSB first (header fields, extra
        /// bits).
        fn push(&mut self, value: u32, len: u32) {
            for i in 0..len {
                if self.bits.is_multiple_of(8) {
                    self.bytes.push(0);
                }
                if value & (1 << i) != 0 {
                    *self.bytes.last_mut().unwrap() |= 1 << (self.bits % 8);
                }
                self.bits += 1;
            }
        }

        /// Appends a Huffman code, MSB first.
        fn code(&mut self, codes: &[(u16, u8)], symbol: usize) {
            let (code, len) = codes[symbol];
            assert!(len > 0, "symbol {symbol} has no code");
            for i in (0..len).rev() {
                self.push(u32::from(code >> i) & 1, 1);
            }
        }
    }

    /// The canonical `(code, length)` of every symbol (RFC 1951 §3.2.2).
    fn canonical(lengths: &[u8]) -> Vec<(u16, u8)> {
        let mut counts = [0u16; MAX_BITS + 1];
        for &len in lengths.iter().filter(|&&len| len > 0) {
            counts[len as usize] += 1;
        }
        let mut next = [0u16; MAX_BITS + 1];
        for len in 2..=MAX_BITS {
            next[len] = (next[len - 1] + counts[len - 1]) << 1;
        }
        lengths
            .iter()
            .map(|&len| {
                let code = next[len as usize];
                next[len as usize] += u16::from(len > 0);
                (code, len)
            })
            .collect()
    }

    #[test]
    fn dynamic_block_with_codes_of_every_length_decodes() {
        // Lengths 1..=14 once and 15 twice: a complete code of 16 symbols.
        let spread: Vec<u8> = (1..=15).chain([15]).collect();
        let mut literal_lengths = [0u8; 258];
        for (i, &len) in spread[..14].iter().enumerate() {
            literal_lengths[b'A' as usize + i] = len;
        }
        literal_lengths[256] = 15; // end of block
        literal_lengths[257] = 15; // match length 3
        let distance_lengths = &spread[..];
        let (literal, distance) = (canonical(&literal_lengths), canonical(distance_lengths));
        // Code-length code: symbols 0..=15 at 4 bits each.
        let mut clen_lengths = [4u8; 19];
        clen_lengths[16..].fill(0);
        let clen = canonical(&clen_lengths);

        let mut w = BitWriter::default();
        w.push(1, 1); // BFINAL
        w.push(2, 2); // BTYPE=10
        w.push(258 - 257, 5);
        w.push(16 - 1, 5);
        w.push(19 - 4, 4);
        for slot in CLEN_ORDER {
            w.push(u32::from(clen_lengths[slot]), 3);
        }
        for &len in literal_lengths.iter().chain(distance_lengths) {
            w.code(&clen, len as usize);
        }
        let mut expected = Vec::new();
        for _ in 0..20 {
            for i in 0..14 {
                w.code(&literal, b'A' as usize + i);
                expected.push(b'A' + i as u8);
            }
        }
        for (symbol, &base) in DIST_BASE.iter().enumerate().take(16) {
            w.code(&literal, 257);
            w.code(&distance, symbol);
            w.push(0, u32::from(DIST_EXTRA[symbol]));
            let from = expected.len() - base as usize;
            for i in 0..3 {
                expected.push(expected[from + i]);
            }
        }
        w.code(&literal, 256);
        let stream = w.bytes;

        assert_eq!(
            inflate(&stream).expect("every code length decodes"),
            expected
        );
        assert_eq!(reference::inflate_from(&stream, 0, 0).unwrap().0, expected);
        // Every cut of the stream ends where the oracle's does.
        for cut in 0..stream.len() {
            let [fast, oracle] = both(&stream[..cut], 0, 0);
            assert_eq!(fast, oracle, "cut at {cut}");
        }
    }

    #[test]
    fn crc32_matches_the_bytewise_table() {
        let bytewise = |bytes: &[u8]| {
            let mut c = 0xFFFF_FFFFu32;
            for &byte in bytes {
                c = CRC_TABLES[0][((c ^ byte as u32) & 0xFF) as usize] ^ (c >> 8);
            }
            c ^ 0xFFFF_FFFF
        };
        let mut rng = SplitMix64::new(0xC3C3);
        let data: Vec<u8> = (0..72).map(|_| rng.next_u64() as u8).collect();
        for start in 0..8 {
            for len in 0..=64 {
                let slice = &data[start..start + len];
                assert_eq!(crc32(slice), bytewise(slice), "start {start} len {len}");
            }
        }
    }
}
