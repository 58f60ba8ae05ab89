//! MS-OVBA §2.4.1 *CompressedContainer* codec.
//!
//! The container is a 0x01 signature byte followed by chunks. Each chunk
//! encodes up to 4096 decompressed bytes and is decompressed independently
//! (copy tokens never reach back past the chunk start). Chunk data is a
//! series of token sequences: one flag byte followed by eight tokens, where a
//! clear flag bit means a literal byte and a set bit a 16-bit copy token
//! whose offset/length split depends on how far into the chunk the output
//! position is.

use crate::OvbaError;
use vbadet_faultpoint::{faultpoint, Budget};
use vbadet_metrics::Counter;

/// Decompressed bytes per chunk.
const CHUNK: usize = 4096;
/// Maximum value of the 12-bit chunk-size field.
const MAX_SIZE_FIELD: usize = 0x0FFF;

/// Computes the copy-token bit split at decompressed chunk offset `d`:
/// returns `(offset_bit_count, length_mask, offset_mask)`.
fn copy_token_split(d: usize) -> (u32, u16, u16) {
    debug_assert!(d >= 1);
    // Smallest b with 2^b >= d, clamped to 4..=12.
    let bit_count = (usize::BITS - (d - 1).leading_zeros()).clamp(4, 12);
    let length_mask = 0xFFFFu16 >> bit_count;
    let offset_mask = !length_mask;
    (bit_count, length_mask, offset_mask)
}

/// Decompresses an MS-OVBA compressed container.
///
/// # Errors
///
/// Returns an error when the signature byte, a chunk header, or a copy token
/// is malformed, or when the container is truncated.
///
/// ```
/// use vbadet_ovba::{compress, decompress};
/// let data = b"Attribute VB_Name = \"Module1\"\r\nSub A()\r\nEnd Sub\r\n";
/// assert_eq!(decompress(&compress(data)).unwrap(), data);
/// ```
pub fn decompress(container: &[u8]) -> Result<Vec<u8>, OvbaError> {
    decompress_budgeted(container, DEFAULT_MAX_DECOMPRESSED, &Budget::unlimited())
}

/// Default output cap for [`decompress`]: far above any real macro source,
/// low enough that a crafted container cannot exhaust memory.
pub const DEFAULT_MAX_DECOMPRESSED: usize = 1 << 28;

/// Like [`decompress`] but with a caller-provided output cap, and charging
/// decompression work against a cooperative scan [`Budget`] (one fuel unit
/// per chunk).
///
/// # Errors
///
/// As [`decompress`], plus [`OvbaError::LimitExceeded`] past `limit` output
/// bytes and [`OvbaError::DeadlineExceeded`] when the budget trips.
pub fn decompress_budgeted(
    container: &[u8],
    limit: usize,
    budget: &Budget,
) -> Result<Vec<u8>, OvbaError> {
    faultpoint!("ovba::decompress", Err(OvbaError::TruncatedContainer));
    let (&sig, mut rest) = container
        .split_first()
        .ok_or(OvbaError::TruncatedContainer)?;
    if sig != 0x01 {
        return Err(OvbaError::BadContainerSignature(sig));
    }
    budget.metrics().count(Counter::OvbaDecompressCalls, 1);
    let mut out = Vec::new();
    while !rest.is_empty() {
        budget.charge(1)?;
        budget.metrics().count(Counter::OvbaChunks, 1);
        if rest.len() < 2 {
            return Err(OvbaError::TruncatedContainer);
        }
        let header = u16::from_le_bytes([rest[0], rest[1]]);
        let size_field = (header & 0x0FFF) as usize;
        let compressed = header & 0x8000 != 0;
        if (header >> 12) & 0b111 != 0b011 {
            return Err(OvbaError::BadChunkSignature(header));
        }
        let data_len = size_field + 3 - 2; // total chunk = field + 3 incl. header
        if rest.len() < 2 + data_len {
            return Err(OvbaError::TruncatedContainer);
        }
        let data = &rest[2..2 + data_len];
        rest = &rest[2 + data_len..];

        let chunk_start = out.len();
        if !compressed {
            // Raw chunk: 4096 literal bytes.
            out.extend_from_slice(data);
        } else {
            decompress_chunk(data, &mut out, chunk_start)?;
        }
        if out.len() - chunk_start > CHUNK {
            return Err(OvbaError::ChunkOverflow);
        }
        if out.len() > limit {
            return Err(OvbaError::LimitExceeded {
                what: "decompressed container",
                limit,
            });
        }
    }
    budget
        .metrics()
        .count(Counter::OvbaBytesOut, out.len() as u64);
    Ok(out)
}

/// Best-effort decompression for salvage mode: decodes chunks from the start
/// of `container` until the data ends or a chunk fails to decode, returning
/// whatever decompressed cleanly plus the number of input bytes consumed (or
/// `None` when nothing decoded). Unlike [`decompress`], trailing garbage
/// after valid chunks is not an error — exactly the situation when a
/// compressed container is found embedded at an arbitrary offset of a
/// damaged stream. Charges one fuel unit per decoded chunk against a
/// cooperative scan [`Budget`].
///
/// # Errors
///
/// Returns [`OvbaError::DeadlineExceeded`] when the budget trips; all other
/// decode problems end the salvage quietly (`Ok(None)` / a short prefix).
pub fn decompress_salvage_budgeted(
    container: &[u8],
    limit: usize,
    budget: &Budget,
) -> Result<Option<(Vec<u8>, usize)>, OvbaError> {
    let Some((&sig, _)) = container.split_first() else {
        return Ok(None);
    };
    if sig != 0x01 {
        return Ok(None);
    }
    let mut consumed = 1usize;
    let mut out = Vec::new();
    while container.len() - consumed >= 2 {
        budget.charge(1)?;
        budget.metrics().count(Counter::OvbaChunks, 1);
        let rest = &container[consumed..];
        let header = u16::from_le_bytes([rest[0], rest[1]]);
        if (header >> 12) & 0b111 != 0b011 {
            break;
        }
        let size_field = (header & 0x0FFF) as usize;
        let compressed = header & 0x8000 != 0;
        let data_len = size_field + 1;
        if rest.len() < 2 + data_len {
            break;
        }
        let data = &rest[2..2 + data_len];
        let chunk_start = out.len();
        if !compressed {
            out.extend_from_slice(data);
        } else if decompress_chunk(data, &mut out, chunk_start).is_err() {
            out.truncate(chunk_start);
            break;
        }
        if out.len() - chunk_start > CHUNK || out.len() > limit {
            out.truncate(chunk_start);
            break;
        }
        consumed += 2 + data_len;
    }
    if out.is_empty() {
        Ok(None)
    } else {
        Ok(Some((out, consumed)))
    }
}

fn decompress_chunk(
    mut data: &[u8],
    out: &mut Vec<u8>,
    chunk_start: usize,
) -> Result<(), OvbaError> {
    while !data.is_empty() {
        let (&flags, rest) = data.split_first().expect("checked non-empty");
        data = rest;
        for bit in 0..8 {
            if data.is_empty() {
                return Ok(());
            }
            if out.len() - chunk_start >= CHUNK {
                // Fully decoded; remaining bytes would overflow the chunk.
                return if data.is_empty() {
                    Ok(())
                } else {
                    Err(OvbaError::ChunkOverflow)
                };
            }
            if flags & (1 << bit) == 0 {
                out.push(data[0]);
                data = &data[1..];
            } else {
                if data.len() < 2 {
                    return Err(OvbaError::TruncatedContainer);
                }
                let token = u16::from_le_bytes([data[0], data[1]]);
                data = &data[2..];
                let d = out.len() - chunk_start;
                if d == 0 {
                    return Err(OvbaError::BadCopyToken {
                        offset: 0,
                        position: out.len(),
                    });
                }
                let (bit_count, length_mask, offset_mask) = copy_token_split(d);
                let length = (token & length_mask) as usize + 3;
                let offset = ((token & offset_mask) >> (16 - bit_count)) as usize + 1;
                if offset > out.len() {
                    return Err(OvbaError::BadCopyToken {
                        offset,
                        position: out.len(),
                    });
                }
                if out.len() - chunk_start + length > CHUNK {
                    return Err(OvbaError::ChunkOverflow);
                }
                let src = out.len() - offset;
                if offset >= length {
                    out.extend_from_within(src..src + length);
                } else {
                    // Overlapping copy: each byte repeats one just written.
                    for k in 0..length {
                        let byte = out[src + k];
                        out.push(byte);
                    }
                }
            }
        }
    }
    Ok(())
}

/// Compresses `data` into an MS-OVBA compressed container.
///
/// Each 4096-byte input chunk is LZ77-coded; if the coded form would exceed
/// the chunk-size field's capacity, a full chunk falls back to a raw chunk
/// and a partial (final) chunk is split in half and retried.
pub fn compress(data: &[u8]) -> Vec<u8> {
    let mut out = vec![0x01u8];
    if data.is_empty() {
        return out;
    }
    let mut start = 0usize;
    while start < data.len() {
        let end = (start + CHUNK).min(data.len());
        emit_chunk(&data[start..end], &mut out);
        start = end;
    }
    out
}

fn emit_chunk(chunk: &[u8], out: &mut Vec<u8>) {
    let coded = compress_chunk(chunk);
    // Header-allowed maximum data length: field 0x0FFF -> 4096 data bytes.
    let max_data = MAX_SIZE_FIELD + 3 - 2;
    if coded.len() <= max_data {
        let size_field = (coded.len() + 2 - 3) as u16;
        let header = 0x8000 | 0x3000 | size_field;
        out.extend_from_slice(&header.to_le_bytes());
        out.extend_from_slice(&coded);
    } else if chunk.len() == CHUNK {
        // Raw chunk: exactly 4096 literal bytes, flag bit clear.
        let header = 0x3000 | (MAX_SIZE_FIELD as u16);
        out.extend_from_slice(&header.to_le_bytes());
        out.extend_from_slice(chunk);
    } else {
        // Incompressible partial chunk whose token form does not fit: split
        // it so each piece's worst-case coded size fits the header field.
        let mid = chunk.len() / 2;
        emit_chunk(&chunk[..mid], out);
        emit_chunk(&chunk[mid..], out);
    }
}

/// LZ77-codes a single chunk (without the header).
fn compress_chunk(chunk: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(chunk.len() + chunk.len() / 8 + 2);
    // Positions of 3-byte sequences seen so far, chained (most recent first).
    const HASH_BITS: usize = 12;
    const HASH_SIZE: usize = 1 << HASH_BITS;
    const MAX_CHAIN: usize = 64;
    let hash = |i: usize| -> usize {
        let h = (chunk[i] as u32) | ((chunk[i + 1] as u32) << 8) | ((chunk[i + 2] as u32) << 16);
        (h.wrapping_mul(0x9E37_79B1) >> (32 - HASH_BITS as u32)) as usize
    };
    let mut head = vec![usize::MAX; HASH_SIZE];
    let mut prev = vec![usize::MAX; chunk.len()];

    let mut i = 0usize;
    while i < chunk.len() {
        let mut flags = 0u8;
        let flag_pos = out.len();
        out.push(0);
        for bit in 0..8 {
            if i >= chunk.len() {
                break;
            }
            // Current split given d = i bytes already decoded.
            let (mut best_len, mut best_off) = (0usize, 0usize);
            if i >= 1 && i + 3 <= chunk.len() {
                let (_, length_mask, _) = copy_token_split(i);
                let max_len = ((length_mask as usize) + 3).min(chunk.len() - i);
                let mut cand = head[hash(i)];
                let mut steps = 0usize;
                while cand != usize::MAX && steps < MAX_CHAIN {
                    let off = i - cand;
                    // Offset must be encodable: <= d (cannot reach before
                    // chunk start) — always true since cand >= 0.
                    let mut len = 0usize;
                    while len < max_len && chunk[cand + len] == chunk[i + len] {
                        len += 1;
                    }
                    if len > best_len {
                        best_len = len;
                        best_off = off;
                        if len == max_len {
                            break;
                        }
                    }
                    cand = prev[cand];
                    steps += 1;
                }
            }
            if best_len >= 3 {
                let (bit_count, length_mask, _) = copy_token_split(i);
                let token = (((best_off - 1) as u16) << (16 - bit_count))
                    | ((best_len - 3) as u16 & length_mask);
                flags |= 1 << bit;
                out.extend_from_slice(&token.to_le_bytes());
                let end = (i + best_len).min(chunk.len().saturating_sub(2));
                for j in i..end {
                    prev[j] = head[hash(j)];
                    head[hash(j)] = j;
                }
                i += best_len;
            } else {
                if i + 3 <= chunk.len() {
                    prev[i] = head[hash(i)];
                    head[hash(i)] = i;
                }
                out.push(chunk[i]);
                i += 1;
            }
        }
        out[flag_pos] = flags;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(data: &[u8]) {
        let packed = compress(data);
        let unpacked = decompress(&packed)
            .unwrap_or_else(|e| panic!("decompress failed for {} bytes: {e}", data.len()));
        assert_eq!(unpacked, data);
    }

    #[test]
    fn hand_assembled_container_decodes() {
        // Container built by hand from the wire format rules:
        // input "abcabcabc" = literals a,b,c then a copy token at d=3
        // (bit_count 4): offset 3 -> high nibble (3-1)<<12, length 6 -> 6-3.
        // Token 0x2003 LE = 03 20; flag byte 0b0000_1000 marks token #3.
        // Coded data is 6 bytes; size field = 6 + 2 - 3 = 5; header
        // 0x8000|0x3000|5 = 0xB005 LE = 05 B0.
        let container = [0x01, 0x05, 0xB0, 0x08, 0x61, 0x62, 0x63, 0x03, 0x20];
        assert_eq!(decompress(&container).unwrap(), b"abcabcabc");
        roundtrip(b"abcabcabc");
        roundtrip(b"#aaabcdefaaaaghijaaaaaklaaamnopqaaaaaaaaaaaarstuvwxyzaaaaaaaaaaaa");
    }

    #[test]
    fn empty_input() {
        assert_eq!(compress(b""), vec![0x01]);
        assert_eq!(decompress(&[0x01]).unwrap(), b"");
    }

    #[test]
    fn small_inputs() {
        roundtrip(b"a");
        roundtrip(b"ab");
        roundtrip(b"abc");
        roundtrip(b"aaaa");
        roundtrip(b"Sub Test()\r\nEnd Sub\r\n");
    }

    #[test]
    fn chunk_boundary_sizes() {
        for size in [4095usize, 4096, 4097, 8191, 8192, 8193] {
            let data: Vec<u8> = (0..size).map(|i| ((i / 3) % 251) as u8).collect();
            roundtrip(&data);
        }
    }

    #[test]
    fn vba_like_text() {
        let module = "Attribute VB_Name = \"Module1\"\r\n".to_string()
            + &"Sub Process()\r\n    Dim x As Integer\r\n    x = x + 1\r\nEnd Sub\r\n".repeat(400);
        roundtrip(module.as_bytes());
        // Text compresses well.
        let packed = compress(module.as_bytes());
        assert!(packed.len() * 3 < module.len());
    }

    #[test]
    fn incompressible_full_chunks_fall_back_to_raw() {
        let mut state = 0xACE1u64;
        let data: Vec<u8> = (0..CHUNK * 3)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state as u8
            })
            .collect();
        let packed = compress(&data);
        assert_eq!(decompress(&packed).unwrap(), data);
        // Raw fallback bounds expansion to header overhead.
        assert!(packed.len() <= data.len() + 1 + 3 * 2 + 16);
    }

    #[test]
    fn incompressible_partial_final_chunk() {
        // 3641..4095 incompressible bytes cannot fit one coded chunk; the
        // encoder must split rather than pad.
        let mut state = 77u64;
        for size in [3000usize, 3641, 3900, 4095] {
            let data: Vec<u8> = (0..size)
                .map(|_| {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                    (state >> 33) as u8
                })
                .collect();
            roundtrip(&data);
        }
    }

    #[test]
    fn long_runs_use_copy_tokens() {
        let data = vec![b'x'; 4000];
        let packed = compress(&data);
        assert!(
            packed.len() < 64,
            "run-length data should be tiny, got {}",
            packed.len()
        );
        assert_eq!(decompress(&packed).unwrap(), data);
    }

    #[test]
    fn bad_signature_rejected() {
        assert!(matches!(
            decompress(&[0x02]),
            Err(OvbaError::BadContainerSignature(0x02))
        ));
        assert!(matches!(
            decompress(&[]),
            Err(OvbaError::TruncatedContainer)
        ));
    }

    #[test]
    fn bad_chunk_signature_rejected() {
        // Header with signature bits 0b000.
        let container = [0x01, 0x05, 0x80, 0, 0, 0];
        assert!(matches!(
            decompress(&container),
            Err(OvbaError::BadChunkSignature(_))
        ));
    }

    #[test]
    fn truncated_chunk_rejected() {
        let mut packed = compress(b"some data worth compressing, repeated repeated");
        packed.truncate(packed.len() - 3);
        assert!(decompress(&packed).is_err());
    }

    #[test]
    fn copy_token_before_start_rejected() {
        // Chunk whose first token is a copy (flag bit 0 set) — no history.
        // Data = flag byte + 2-byte token = 3 bytes; size field = 3+2-3 = 2.
        let container = [0x01, 0x02, 0xB0, 0x01, 0x00, 0x00];
        assert!(matches!(
            decompress(&container),
            Err(OvbaError::BadCopyToken { .. })
        ));
    }

    #[test]
    fn garbage_never_panics() {
        let mut state = 424242u64;
        for len in [1usize, 2, 3, 8, 64, 300] {
            for _ in 0..100 {
                let mut data: Vec<u8> = (0..len)
                    .map(|_| {
                        state ^= state << 13;
                        state ^= state >> 7;
                        state ^= state << 17;
                        state as u8
                    })
                    .collect();
                data[0] = 0x01; // valid signature, garbage body
                let _ = decompress(&data);
            }
        }
    }

    #[test]
    fn split_boundaries_match_spec_table() {
        // MS-OVBA §2.4.1.3.19.3: difference -> bit count.
        for (d, expect) in [
            (1usize, 4u32),
            (16, 4),
            (17, 5),
            (32, 5),
            (33, 6),
            (1024, 10),
            (2048, 11),
            (4096, 12),
        ] {
            assert_eq!(copy_token_split(d).0, expect, "d={d}");
        }
    }
}
