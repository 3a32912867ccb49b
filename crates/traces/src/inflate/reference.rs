//! The bit-at-a-time canonical DEFLATE decoder the table-driven one
//! replaced, kept as a test oracle (as `tage::reference` is for TAGE).
//!
//! It reads every bit through a `Result`-returning call and walks the
//! canonical code one length at a time, so its records, error reasons and
//! error offsets are the contract the fast decoder's differential tests
//! hold it to.

use super::{CLEN_ORDER, DIST_BASE, DIST_EXTRA, LENGTH_BASE, LENGTH_EXTRA, MAX_BITS};
use super::{MAX_DIST_SYMBOLS, MAX_LIT_SYMBOLS};
use crate::format::FormatError;

/// LSB-first bit reader that loads one byte at a time.
struct BitReader<'a> {
    data: &'a [u8],
    /// Index of the next unread byte.
    pos: usize,
    bag: u32,
    bag_bits: u32,
    base_offset: u64,
}

impl<'a> BitReader<'a> {
    fn offset(&self) -> u64 {
        self.base_offset + self.pos as u64
    }

    fn corrupt(&self, reason: &str) -> FormatError {
        FormatError::CorruptFrame {
            offset: self.offset(),
            reason: reason.to_string(),
        }
    }

    fn bits(&mut self, count: u32) -> Result<u32, FormatError> {
        while self.bag_bits < count {
            let Some(&byte) = self.data.get(self.pos) else {
                return Err(self.corrupt("unexpected end of compressed data"));
            };
            self.bag |= (byte as u32) << self.bag_bits;
            self.bag_bits += 8;
            self.pos += 1;
        }
        let value = self.bag & ((1u32 << count) - 1);
        self.bag >>= count;
        self.bag_bits -= count;
        Ok(value)
    }

    fn align(&mut self) {
        self.bag = 0;
        self.bag_bits = 0;
    }

    fn bytes(&mut self, count: usize) -> Result<&'a [u8], FormatError> {
        self.align();
        let end = self
            .pos
            .checked_add(count)
            .filter(|&e| e <= self.data.len());
        let Some(end) = end else {
            return Err(self.corrupt("stored block overruns the compressed data"));
        };
        let slice = &self.data[self.pos..end];
        self.pos = end;
        Ok(slice)
    }
}

/// Symbol counts per code length plus the symbols in canonical order.
struct Huffman {
    counts: [u16; MAX_BITS + 1],
    symbols: Vec<u16>,
}

impl Huffman {
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
        for len in 1..=MAX_BITS {
            offsets[len + 1] = offsets[len] + counts[len];
        }
        let mut symbols = vec![0u16; lengths.len()];
        for (symbol, &len) in lengths.iter().enumerate() {
            if len != 0 {
                symbols[offsets[len as usize] as usize] = symbol as u16;
                offsets[len as usize] += 1;
            }
        }
        Ok(Huffman { counts, symbols })
    }

    fn decode(&self, reader: &mut BitReader<'_>) -> Result<u16, FormatError> {
        let mut code = 0i32;
        let mut first = 0i32;
        let mut index = 0i32;
        for len in 1..=MAX_BITS {
            code |= reader.bits(1)? as i32;
            let count = self.counts[len] as i32;
            if code - first < count {
                return Ok(self.symbols[(index + (code - first)) as usize]);
            }
            index += count;
            first = (first + count) << 1;
            code <<= 1;
        }
        Err(reader.corrupt("invalid Huffman code"))
    }
}

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
                for i in 0..length {
                    let byte = out[start + i];
                    out.push(byte);
                }
            }
            _ => return Err(reader.corrupt("invalid literal/length symbol")),
        }
    }
}

/// The oracle's [`super::inflate_from`]: same arguments, same results.
pub(super) fn inflate_from(
    data: &[u8],
    start: usize,
    base_offset: u64,
) -> Result<(Vec<u8>, usize), FormatError> {
    inflate_logged(data, start, base_offset, &mut Vec::new())
}

/// [`inflate_from`] that also appends each block's BTYPE to `blocks`.
pub(super) fn inflate_logged(
    data: &[u8],
    start: usize,
    base_offset: u64,
    blocks: &mut Vec<u32>,
) -> Result<(Vec<u8>, usize), FormatError> {
    let mut reader = BitReader {
        data: &data[start.min(data.len())..],
        pos: 0,
        bag: 0,
        bag_bits: 0,
        base_offset: base_offset + start as u64,
    };
    let mut out = Vec::new();
    loop {
        let final_block = reader.bits(1)? == 1;
        let block_type = reader.bits(2)?;
        blocks.push(block_type);
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
                out.extend_from_slice(reader.bytes(len as usize)?);
            }
            1 => {
                let mut lengths = [8u8; MAX_LIT_SYMBOLS];
                lengths[144..256].fill(9);
                lengths[256..280].fill(7);
                let literal = Huffman::from_lengths(&lengths, &reader)?;
                let distance = Huffman::from_lengths(&[5u8; MAX_DIST_SYMBOLS], &reader)?;
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
    Ok((out, start + reader.pos))
}
