//! RFC 1951 DEFLATE decompressor (stored, fixed-Huffman and dynamic-Huffman
//! blocks).

use crate::bits::BitReader;
use crate::deflate::CLC_ORDER;
use crate::huffman::HuffmanDecoder;
use crate::ZipError;
use std::sync::OnceLock;
use vbadet_faultpoint::{faultpoint, Budget};
use vbadet_metrics::Counter;

/// Safety valve against decompression bombs in malformed containers.
const MAX_OUTPUT: usize = 1 << 30;

/// One budget fuel unit per this many output bytes. Coarse on purpose:
/// the budget charge must stay invisible next to the symbol decode loop.
const BYTES_PER_FUEL: usize = 1024;

/// Decompresses a raw DEFLATE stream.
///
/// # Errors
///
/// Returns [`ZipError::InvalidDeflate`] for malformed input: truncated
/// streams, invalid block types, bad Huffman codes, or out-of-window
/// distances; output exceeding the 1 GiB safety limit returns
/// [`ZipError::LimitExceeded`].
///
/// ```
/// use vbadet_zip::{deflate, inflate, BlockStyle};
/// let packed = deflate(b"data", BlockStyle::Fixed);
/// assert_eq!(inflate(&packed)?, b"data");
/// # Ok::<(), vbadet_zip::ZipError>(())
/// ```
pub fn inflate(data: &[u8]) -> Result<Vec<u8>, ZipError> {
    inflate_budgeted(data, MAX_OUTPUT, &Budget::unlimited())
}

/// Like [`inflate`] but with a caller-provided output cap, and charging
/// decompression work against a cooperative scan [`Budget`] (roughly one
/// fuel unit per KiB of output plus one per block).
///
/// # Errors
///
/// As [`inflate`], with [`ZipError::LimitExceeded`] past `limit` output
/// bytes, plus [`ZipError::DeadlineExceeded`] when the budget trips.
pub fn inflate_budgeted(data: &[u8], limit: usize, budget: &Budget) -> Result<Vec<u8>, ZipError> {
    faultpoint!(
        "zip::inflate",
        Err(ZipError::InvalidDeflate("injected fault"))
    );
    let mut reader = BitReader::new(data);
    let mut out: Vec<u8> = Vec::new();
    loop {
        budget.charge(1)?;
        budget.metrics().count(Counter::ZipInflateBlocks, 1);
        let last = reader.bit()? == 1;
        match reader.bits(2)? {
            0b00 => inflate_stored(&mut reader, &mut out, limit, budget)?,
            0b01 => {
                let (lit, dist) = fixed_decoders();
                inflate_block(&mut reader, &mut out, lit, dist, limit, budget)?;
            }
            0b10 => {
                let (lit, dist) = read_dynamic_header(&mut reader)?;
                inflate_block(&mut reader, &mut out, &lit, &dist, limit, budget)?;
            }
            _ => return Err(ZipError::InvalidDeflate("reserved block type 11")),
        }
        if last {
            return Ok(out);
        }
    }
}

fn inflate_stored(
    reader: &mut BitReader<'_>,
    out: &mut Vec<u8>,
    limit: usize,
    budget: &Budget,
) -> Result<(), ZipError> {
    reader.align_to_byte();
    let header = reader.bytes(4)?;
    let len = u16::from_le_bytes([header[0], header[1]]) as usize;
    let nlen = u16::from_le_bytes([header[2], header[3]]);
    if nlen != !(len as u16) {
        return Err(ZipError::InvalidDeflate("stored block LEN/NLEN mismatch"));
    }
    if out.len() + len > limit {
        return Err(ZipError::LimitExceeded {
            what: "inflated member",
            limit,
        });
    }
    budget.charge((len / BYTES_PER_FUEL) as u64 + 1)?;
    out.extend_from_slice(reader.bytes(len)?);
    Ok(())
}

/// The fixed-Huffman literal/length and distance decoders, built once.
fn fixed_decoders() -> &'static (HuffmanDecoder, HuffmanDecoder) {
    static FIXED: OnceLock<(HuffmanDecoder, HuffmanDecoder)> = OnceLock::new();
    FIXED.get_or_init(|| {
        let lit = HuffmanDecoder::from_lengths(&crate::deflate::fixed_literal_lengths())
            .expect("fixed literal code is valid");
        let dist = HuffmanDecoder::from_lengths(&crate::deflate::fixed_distance_lengths())
            .expect("fixed distance code is valid");
        (lit, dist)
    })
}

fn read_dynamic_header(
    reader: &mut BitReader<'_>,
) -> Result<(HuffmanDecoder, HuffmanDecoder), ZipError> {
    let hlit = reader.bits(5)? as usize + 257;
    let hdist = reader.bits(5)? as usize + 1;
    let hclen = reader.bits(4)? as usize + 4;
    if hlit > 286 || hdist > 30 {
        return Err(ZipError::InvalidDeflate(
            "dynamic header counts out of range",
        ));
    }

    let mut clc_lengths = [0u8; 19];
    for &sym in CLC_ORDER.iter().take(hclen) {
        clc_lengths[sym] = reader.bits(3)? as u8;
    }
    let clc = HuffmanDecoder::from_lengths(&clc_lengths)?;

    let mut lengths = Vec::with_capacity(hlit + hdist);
    while lengths.len() < hlit + hdist {
        match clc.decode(reader)? {
            sym @ 0..=15 => lengths.push(sym as u8),
            16 => {
                let &prev = lengths
                    .last()
                    .ok_or(ZipError::InvalidDeflate("repeat with no previous length"))?;
                let count = reader.bits(2)? + 3;
                for _ in 0..count {
                    lengths.push(prev);
                }
            }
            17 => {
                let count = reader.bits(3)? + 3;
                lengths.extend(std::iter::repeat_n(0, count as usize));
            }
            18 => {
                let count = reader.bits(7)? + 11;
                lengths.extend(std::iter::repeat_n(0, count as usize));
            }
            _ => return Err(ZipError::InvalidDeflate("invalid code length symbol")),
        }
    }
    if lengths.len() != hlit + hdist {
        return Err(ZipError::InvalidDeflate(
            "code length runs overflow header counts",
        ));
    }
    if lengths[256] == 0 {
        return Err(ZipError::InvalidDeflate("end-of-block symbol has no code"));
    }

    let lit = HuffmanDecoder::from_lengths(&lengths[..hlit])?;
    let dist = HuffmanDecoder::from_lengths(&lengths[hlit..])?;
    Ok((lit, dist))
}

fn inflate_block(
    reader: &mut BitReader<'_>,
    out: &mut Vec<u8>,
    lit: &HuffmanDecoder,
    dist: &HuffmanDecoder,
    limit: usize,
    budget: &Budget,
) -> Result<(), ZipError> {
    let length_table = crate::deflate::length_table();
    let dist_table = crate::deflate::dist_table();
    // Charge per KiB of output rather than per symbol: `next_toll` is the
    // output length at which the next fuel unit is due.
    let mut next_toll = out.len() + BYTES_PER_FUEL;
    loop {
        if out.len() >= next_toll {
            budget.charge(1)?;
            next_toll = out.len() + BYTES_PER_FUEL;
        }
        let sym = lit.decode(reader)?;
        match sym {
            0..=255 => {
                if out.len() >= limit {
                    return Err(ZipError::LimitExceeded {
                        what: "inflated member",
                        limit,
                    });
                }
                out.push(sym as u8);
            }
            256 => return Ok(()),
            257..=285 => {
                let (base, extra_bits) = length_table[(sym - 257) as usize];
                let len = base as usize + reader.bits(extra_bits as u32)? as usize;

                let dsym = dist.decode(reader)?;
                if dsym >= 30 {
                    return Err(ZipError::InvalidDeflate("invalid distance code"));
                }
                let (dbase, dextra_bits) = dist_table[dsym as usize];
                let distance = dbase as usize + reader.bits(dextra_bits as u32)? as usize;
                if distance > out.len() {
                    return Err(ZipError::InvalidDeflate("distance beyond output start"));
                }
                if out.len() + len > limit {
                    return Err(ZipError::LimitExceeded {
                        what: "inflated member",
                        limit,
                    });
                }
                let start = out.len() - distance;
                if distance >= len {
                    out.extend_from_within(start..start + len);
                } else {
                    // Overlapping copy: each byte repeats one just written.
                    for k in 0..len {
                        let byte = out[start + k];
                        out.push(byte);
                    }
                }
            }
            _ => return Err(ZipError::InvalidDeflate("invalid literal/length symbol")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deflate::{deflate, BlockStyle};

    #[test]
    fn known_zlib_fixture() {
        // Raw deflate of "hello hello hello hello" produced by zlib
        // (fixed-Huffman block with a back-reference).
        let packed = [0xCB, 0x48, 0xCD, 0xC9, 0xC9, 0x57, 0xC8, 0x40, 0x27, 0x01];
        assert_eq!(inflate(&packed).unwrap(), b"hello hello hello hello");
    }

    #[test]
    fn known_stored_fixture() {
        // Stored block: BFINAL=1, BTYPE=00, LEN=3, NLEN=!3, "abc".
        let packed = [0x01, 0x03, 0x00, 0xFC, 0xFF, b'a', b'b', b'c'];
        assert_eq!(inflate(&packed).unwrap(), b"abc");
    }

    #[test]
    fn reserved_block_type_rejected() {
        // BFINAL=1, BTYPE=11.
        assert!(matches!(
            inflate(&[0b0000_0111]),
            Err(ZipError::InvalidDeflate(_))
        ));
    }

    #[test]
    fn truncated_stream_rejected() {
        let packed = deflate(b"some data to compress", BlockStyle::Dynamic);
        for cut in 0..packed.len() {
            // Every strict prefix must fail (never panic, never succeed with
            // full output).
            if let Ok(out) = inflate(&packed[..cut]) {
                assert_ne!(out, b"some data to compress");
            }
        }
    }

    #[test]
    fn stored_block_after_huffman_block_at_every_bit_offset() {
        // A fixed block of `short` 8-bit and `long` 9-bit literals, then a
        // stored block: `long` walks the stored header through every bit
        // offset, `short` through every byte offset of the 64-bit refill.
        let lengths = crate::deflate::fixed_literal_lengths();
        let codes = crate::huffman::canonical_codes(&lengths);
        let stored = b"stored bytes, read from the byte after the block";
        for short in 0..16u8 {
            for long in 0..8u8 {
                let mut w = crate::bits::BitWriter::new();
                w.bits(0, 1);
                w.bits(0b01, 2);
                let literals: Vec<u8> = (0..short).chain(200..200 + long).collect();
                for &b in &literals {
                    w.huffman_code(codes[b as usize], lengths[b as usize] as u32);
                }
                w.huffman_code(codes[256], lengths[256] as u32);
                w.bits(1, 1);
                w.bits(0b00, 2);
                w.align_to_byte();
                let len = stored.len() as u16;
                w.bytes(&len.to_le_bytes());
                w.bytes(&(!len).to_le_bytes());
                w.bytes(stored);
                let mut expected = literals;
                expected.extend_from_slice(stored);
                assert_eq!(
                    inflate(&w.finish()).unwrap(),
                    expected,
                    "{short} short, {long} long literals"
                );
            }
        }
    }

    #[test]
    fn stored_len_nlen_mismatch_rejected() {
        let packed = [0x01, 0x03, 0x00, 0x00, 0x00, b'a', b'b', b'c'];
        assert!(inflate(&packed).is_err());
    }

    #[test]
    fn distance_before_start_rejected() {
        // Fixed block: immediately emit a length/distance pair with empty
        // output. Symbol 257 (len 3) has fixed code 7 bits: 0000001;
        // distance code 0 is 5 bits 00000.
        let mut w = crate::bits::BitWriter::new();
        w.bits(1, 1);
        w.bits(0b01, 2);
        w.huffman_code(0b0000001, 7);
        w.huffman_code(0, 5);
        let bytes = w.finish();
        assert!(matches!(inflate(&bytes), Err(ZipError::InvalidDeflate(_))));
    }

    #[test]
    fn output_limit_is_enforced() {
        let data = vec![7u8; 4096];
        let packed = deflate(&data, BlockStyle::Dynamic);
        let unlimited = Budget::unlimited();
        assert!(inflate_budgeted(&packed, 4095, &unlimited).is_err());
        assert_eq!(inflate_budgeted(&packed, 4096, &unlimited).unwrap(), data);
    }

    #[test]
    fn overlapping_copy_semantics() {
        // "aaaaaaaa...": matches with distance 1 must replicate.
        let data = vec![b'a'; 1000];
        let packed = deflate(&data, BlockStyle::Fixed);
        assert_eq!(inflate(&packed).unwrap(), data);
    }

    #[test]
    fn multi_block_streams() {
        // Force multiple dynamic blocks by exceeding BLOCK_SYMBOLS literals.
        let mut state = 1u64;
        let data: Vec<u8> = (0..200_000)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 33) as u8
            })
            .collect();
        let packed = deflate(&data, BlockStyle::Dynamic);
        assert_eq!(inflate(&packed).unwrap(), data);
    }

    #[test]
    fn garbage_never_panics() {
        let mut state = 0xDEAD_BEEFu64;
        for len in [0usize, 1, 2, 7, 64, 512] {
            for _ in 0..50 {
                let data: Vec<u8> = (0..len)
                    .map(|_| {
                        state ^= state << 13;
                        state ^= state >> 7;
                        state ^= state << 17;
                        state as u8
                    })
                    .collect();
                let _ = inflate(&data); // must not panic
            }
        }
    }
}
