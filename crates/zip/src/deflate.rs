//! RFC 1951 DEFLATE compressor.
//!
//! Supports all three block styles. LZ77 matching uses a hash-chain matcher
//! over a 32 KiB window with greedy match selection, which is sufficient for
//! container round-trips and for exercising every decoder path (stored,
//! fixed-Huffman and dynamic-Huffman blocks).

use crate::bits::BitWriter;
use crate::huffman::{build_code_lengths, canonical_codes};

/// Which DEFLATE block style to emit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BlockStyle {
    /// Uncompressed (BTYPE=00) blocks.
    Stored,
    /// Fixed Huffman tables (BTYPE=01).
    Fixed,
    /// Per-block Huffman tables (BTYPE=10), built from symbol frequencies.
    #[default]
    Dynamic,
}

const WINDOW_SIZE: usize = 32 * 1024;
const MIN_MATCH: usize = 3;
const MAX_MATCH: usize = 258;
const HASH_BITS: usize = 15;
const HASH_SIZE: usize = 1 << HASH_BITS;
/// Symbols per emitted block; keeps dynamic-table overhead amortized.
const BLOCK_SYMBOLS: usize = 64 * 1024;
const END_OF_BLOCK: u16 = 256;

/// (base length, extra bits) for length codes 257..=285 (RFC 1951 §3.2.5).
const LENGTH_TABLE: [(u16, u8); 29] = [
    (3, 0),
    (4, 0),
    (5, 0),
    (6, 0),
    (7, 0),
    (8, 0),
    (9, 0),
    (10, 0),
    (11, 1),
    (13, 1),
    (15, 1),
    (17, 1),
    (19, 2),
    (23, 2),
    (27, 2),
    (31, 2),
    (35, 3),
    (43, 3),
    (51, 3),
    (59, 3),
    (67, 4),
    (83, 4),
    (99, 4),
    (115, 4),
    (131, 5),
    (163, 5),
    (195, 5),
    (227, 5),
    (258, 0),
];

/// (base distance, extra bits) for distance codes 0..=29.
const DIST_TABLE: [(u16, u8); 30] = [
    (1, 0),
    (2, 0),
    (3, 0),
    (4, 0),
    (5, 1),
    (7, 1),
    (9, 2),
    (13, 2),
    (17, 3),
    (25, 3),
    (33, 4),
    (49, 4),
    (65, 5),
    (97, 5),
    (129, 6),
    (193, 6),
    (257, 7),
    (385, 7),
    (513, 8),
    (769, 8),
    (1025, 9),
    (1537, 9),
    (2049, 10),
    (3073, 10),
    (4097, 11),
    (6145, 11),
    (8193, 12),
    (12289, 12),
    (16385, 13),
    (24577, 13),
];

/// Order in which code-length-code lengths are stored in a dynamic header.
pub(crate) const CLC_ORDER: [usize; 19] = [
    16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15,
];

pub(crate) fn length_table() -> &'static [(u16, u8); 29] {
    &LENGTH_TABLE
}

pub(crate) fn dist_table() -> &'static [(u16, u8); 30] {
    &DIST_TABLE
}

/// One LZ77 output item.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Symbol {
    Literal(u8),
    /// Back-reference: (length 3..=258, distance 1..=32768).
    Match {
        len: u16,
        dist: u16,
    },
}

/// Compresses `data` into a raw DEFLATE stream using the given block style.
///
/// ```
/// use vbadet_zip::{deflate, inflate, BlockStyle};
/// let data = b"abcabcabcabcabc".repeat(10);
/// let packed = deflate(&data, BlockStyle::Dynamic);
/// assert_eq!(inflate(&packed).unwrap(), data);
/// assert!(packed.len() < data.len());
/// ```
pub fn deflate(data: &[u8], style: BlockStyle) -> Vec<u8> {
    let mut writer = BitWriter::new();
    match style {
        BlockStyle::Stored => emit_stored(&mut writer, data),
        BlockStyle::Fixed | BlockStyle::Dynamic => {
            let symbols = lz77(data);
            let mut start = 0;
            while start < symbols.len() || symbols.is_empty() {
                let end = (start + BLOCK_SYMBOLS).min(symbols.len());
                let last = end == symbols.len();
                let block = &symbols[start..end];
                match style {
                    BlockStyle::Fixed => emit_fixed_block(&mut writer, block, last),
                    BlockStyle::Dynamic => emit_dynamic_block(&mut writer, block, last),
                    BlockStyle::Stored => unreachable!(),
                }
                start = end;
                if symbols.is_empty() {
                    break;
                }
            }
        }
    }
    writer.finish()
}

fn emit_stored(writer: &mut BitWriter, data: &[u8]) {
    const MAX_STORED: usize = 0xFFFF;
    let mut chunks = data.chunks(MAX_STORED).peekable();
    if data.is_empty() {
        // A single empty stored block terminates the stream.
        writer.bits(1, 1); // BFINAL
        writer.bits(0b00, 2); // BTYPE=stored
        writer.align_to_byte();
        writer.bytes(&[0, 0, 0xFF, 0xFF]); // LEN=0, NLEN
        return;
    }
    while let Some(chunk) = chunks.next() {
        let last = chunks.peek().is_none();
        writer.bits(last as u32, 1);
        writer.bits(0b00, 2);
        writer.align_to_byte();
        let len = chunk.len() as u16;
        writer.bytes(&len.to_le_bytes());
        writer.bytes(&(!len).to_le_bytes());
        writer.bytes(chunk);
    }
}

/// Maps a match length to (code, extra bits, extra value).
fn length_code(len: u16) -> (u16, u8, u16) {
    debug_assert!((MIN_MATCH as u16..=MAX_MATCH as u16).contains(&len));
    // Linear scan is fine: the table has 29 entries and this is cold relative
    // to matching.
    let mut idx = LENGTH_TABLE.len() - 1;
    for (i, &(base, _)) in LENGTH_TABLE.iter().enumerate() {
        if base > len {
            idx = i - 1;
            break;
        }
        if i == LENGTH_TABLE.len() - 1 {
            idx = i;
        }
    }
    let (base, extra) = LENGTH_TABLE[idx];
    (257 + idx as u16, extra, len - base)
}

/// Maps a match distance to (code, extra bits, extra value).
fn dist_code(dist: u16) -> (u16, u8, u16) {
    debug_assert!(dist >= 1);
    let mut idx = DIST_TABLE.len() - 1;
    for (i, &(base, _)) in DIST_TABLE.iter().enumerate() {
        if base > dist {
            idx = i - 1;
            break;
        }
        if i == DIST_TABLE.len() - 1 {
            idx = i;
        }
    }
    let (base, extra) = DIST_TABLE[idx];
    (idx as u16, extra, dist - base)
}

/// Greedy hash-chain LZ77.
fn lz77(data: &[u8]) -> Vec<Symbol> {
    let mut out = Vec::with_capacity(data.len() / 2 + 16);
    if data.len() < MIN_MATCH {
        out.extend(data.iter().map(|&b| Symbol::Literal(b)));
        return out;
    }
    let hash = |i: usize| -> usize {
        let h = (data[i] as u32) | ((data[i + 1] as u32) << 8) | ((data[i + 2] as u32) << 16);
        (h.wrapping_mul(0x9E37_79B1) >> (32 - HASH_BITS as u32)) as usize & (HASH_SIZE - 1)
    };
    // head[h] = most recent position with hash h; prev[i & mask] = previous
    // position in the chain.
    let mut head = vec![usize::MAX; HASH_SIZE];
    let mut prev = vec![usize::MAX; WINDOW_SIZE];
    const MAX_CHAIN: usize = 128;

    let mut i = 0usize;
    while i < data.len() {
        if i + MIN_MATCH > data.len() {
            out.push(Symbol::Literal(data[i]));
            i += 1;
            continue;
        }
        let h = hash(i);
        let mut candidate = head[h];
        let mut best_len = 0usize;
        let mut best_dist = 0usize;
        let mut chain = 0usize;
        while candidate != usize::MAX && chain < MAX_CHAIN {
            let dist = i - candidate;
            if dist > WINDOW_SIZE {
                break;
            }
            let limit = (data.len() - i).min(MAX_MATCH);
            let mut len = 0usize;
            while len < limit && data[candidate + len] == data[i + len] {
                len += 1;
            }
            if len > best_len {
                best_len = len;
                best_dist = dist;
                if len == MAX_MATCH {
                    break;
                }
            }
            candidate = prev[candidate % WINDOW_SIZE];
            chain += 1;
        }

        if best_len >= MIN_MATCH {
            out.push(Symbol::Match {
                len: best_len as u16,
                dist: best_dist as u16,
            });
            // Insert every covered position into the hash chains.
            let end = (i + best_len).min(data.len().saturating_sub(MIN_MATCH - 1));
            for j in i..end {
                let hj = hash(j);
                prev[j % WINDOW_SIZE] = head[hj];
                head[hj] = j;
            }
            i += best_len;
        } else {
            prev[i % WINDOW_SIZE] = head[h];
            head[h] = i;
            out.push(Symbol::Literal(data[i]));
            i += 1;
        }
    }
    out
}

/// Fixed literal/length code lengths (RFC 1951 §3.2.6).
pub(crate) fn fixed_literal_lengths() -> [u8; 288] {
    let mut lengths = [0u8; 288];
    for (sym, len) in lengths.iter_mut().enumerate() {
        *len = match sym {
            0..=143 => 8,
            144..=255 => 9,
            256..=279 => 7,
            _ => 8,
        };
    }
    lengths
}

pub(crate) fn fixed_distance_lengths() -> [u8; 32] {
    // All 32 codes participate in the fixed tree; 30 and 31 never occur in
    // valid streams but are required for the code to be complete.
    [5u8; 32]
}

fn emit_symbols(
    writer: &mut BitWriter,
    block: &[Symbol],
    lit_codes: &[u32],
    lit_lengths: &[u8],
    dist_codes: &[u32],
    dist_lengths: &[u8],
) {
    for &sym in block {
        match sym {
            Symbol::Literal(b) => {
                writer.huffman_code(lit_codes[b as usize], lit_lengths[b as usize] as u32);
            }
            Symbol::Match { len, dist } => {
                let (lcode, lextra_bits, lextra) = length_code(len);
                writer.huffman_code(
                    lit_codes[lcode as usize],
                    lit_lengths[lcode as usize] as u32,
                );
                writer.bits(lextra as u32, lextra_bits as u32);
                let (dcode, dextra_bits, dextra) = dist_code(dist);
                writer.huffman_code(
                    dist_codes[dcode as usize],
                    dist_lengths[dcode as usize] as u32,
                );
                writer.bits(dextra as u32, dextra_bits as u32);
            }
        }
    }
    writer.huffman_code(
        lit_codes[END_OF_BLOCK as usize],
        lit_lengths[END_OF_BLOCK as usize] as u32,
    );
}

fn emit_fixed_block(writer: &mut BitWriter, block: &[Symbol], last: bool) {
    writer.bits(last as u32, 1);
    writer.bits(0b01, 2);
    let lit_lengths = fixed_literal_lengths();
    let dist_lengths = fixed_distance_lengths();
    let lit_codes = canonical_codes(&lit_lengths);
    let dist_codes = canonical_codes(&dist_lengths);
    emit_symbols(
        writer,
        block,
        &lit_codes,
        &lit_lengths,
        &dist_codes,
        &dist_lengths,
    );
}

fn emit_dynamic_block(writer: &mut BitWriter, block: &[Symbol], last: bool) {
    // Collect symbol frequencies.
    let mut lit_freq = [0u32; 288];
    let mut dist_freq = [0u32; 30];
    for &sym in block {
        match sym {
            Symbol::Literal(b) => lit_freq[b as usize] += 1,
            Symbol::Match { len, dist } => {
                lit_freq[length_code(len).0 as usize] += 1;
                dist_freq[dist_code(dist).0 as usize] += 1;
            }
        }
    }
    lit_freq[END_OF_BLOCK as usize] += 1;

    let lit_lengths = build_code_lengths(&lit_freq, 15);
    let mut dist_lengths = build_code_lengths(&dist_freq, 15);
    // DEFLATE requires HDIST >= 1; if no distances are used, declare one
    // dummy 1-bit distance code (explicitly allowed by the RFC).
    if dist_lengths.iter().all(|&l| l == 0) {
        dist_lengths[0] = 1;
    }

    let hlit = 257.max(
        lit_lengths
            .iter()
            .rposition(|&l| l != 0)
            .map_or(257, |p| p + 1),
    );
    let hdist = 1.max(
        dist_lengths
            .iter()
            .rposition(|&l| l != 0)
            .map_or(1, |p| p + 1),
    );

    // Encode the two length arrays with the code-length code (symbols 0..18,
    // 16=repeat prev, 17=run of zeros 3-10, 18=run of zeros 11-138).
    let mut clc_symbols: Vec<(u8, u8)> = Vec::new(); // (symbol, extra value)
    {
        let all: Vec<u8> = lit_lengths[..hlit]
            .iter()
            .chain(dist_lengths[..hdist].iter())
            .copied()
            .collect();
        let mut i = 0usize;
        while i < all.len() {
            let v = all[i];
            let mut run = 1usize;
            while i + run < all.len() && all[i + run] == v {
                run += 1;
            }
            if v == 0 {
                let mut remaining = run;
                while remaining >= 11 {
                    let take = remaining.min(138);
                    clc_symbols.push((18, (take - 11) as u8));
                    remaining -= take;
                }
                if remaining >= 3 {
                    clc_symbols.push((17, (remaining - 3) as u8));
                    remaining = 0;
                }
                for _ in 0..remaining {
                    clc_symbols.push((0, 0));
                }
            } else {
                clc_symbols.push((v, 0));
                let mut remaining = run - 1;
                while remaining >= 3 {
                    let take = remaining.min(6);
                    clc_symbols.push((16, (take - 3) as u8));
                    remaining -= take;
                }
                for _ in 0..remaining {
                    clc_symbols.push((v, 0));
                }
            }
            i += run;
        }
    }

    let mut clc_freq = [0u32; 19];
    for &(sym, _) in &clc_symbols {
        clc_freq[sym as usize] += 1;
    }
    let clc_lengths = build_code_lengths(&clc_freq, 7);
    let clc_codes = canonical_codes(&clc_lengths);
    let hclen = CLC_ORDER
        .iter()
        .rposition(|&sym| clc_lengths[sym] != 0)
        .map_or(4, |p| (p + 1).max(4));

    writer.bits(last as u32, 1);
    writer.bits(0b10, 2);
    writer.bits((hlit - 257) as u32, 5);
    writer.bits((hdist - 1) as u32, 5);
    writer.bits((hclen - 4) as u32, 4);
    for &sym in CLC_ORDER.iter().take(hclen) {
        writer.bits(clc_lengths[sym] as u32, 3);
    }
    for &(sym, extra) in &clc_symbols {
        writer.huffman_code(clc_codes[sym as usize], clc_lengths[sym as usize] as u32);
        match sym {
            16 => writer.bits(extra as u32, 2),
            17 => writer.bits(extra as u32, 3),
            18 => writer.bits(extra as u32, 7),
            _ => {}
        }
    }

    let lit_codes = canonical_codes(&lit_lengths);
    let dist_codes = canonical_codes(&dist_lengths);
    emit_symbols(
        writer,
        block,
        &lit_codes,
        &lit_lengths,
        &dist_codes,
        &dist_lengths,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inflate::inflate;

    fn roundtrip(data: &[u8], style: BlockStyle) {
        let packed = deflate(data, style);
        let unpacked = inflate(&packed).unwrap_or_else(|e| {
            panic!(
                "inflate failed for {style:?} over {} bytes: {e}",
                data.len()
            )
        });
        assert_eq!(unpacked, data, "roundtrip mismatch ({style:?})");
    }

    fn all_styles(data: &[u8]) {
        for style in [BlockStyle::Stored, BlockStyle::Fixed, BlockStyle::Dynamic] {
            roundtrip(data, style);
        }
    }

    #[test]
    fn empty_input() {
        all_styles(b"");
    }

    #[test]
    fn single_byte() {
        all_styles(b"x");
    }

    #[test]
    fn short_text() {
        all_styles(b"hello, world");
    }

    #[test]
    fn highly_repetitive() {
        all_styles(&b"ab".repeat(5000));
        all_styles(&[0u8; 100_000]);
    }

    #[test]
    fn all_byte_values() {
        let data: Vec<u8> = (0..=255u8).cycle().take(4096).collect();
        all_styles(&data);
    }

    #[test]
    fn pseudo_random_data_is_preserved() {
        // xorshift noise: nearly incompressible, stresses literal paths.
        let mut state = 0x1234_5678_9ABC_DEF0u64;
        let data: Vec<u8> = (0..70_000)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state & 0xFF) as u8
            })
            .collect();
        all_styles(&data);
    }

    #[test]
    fn long_matches_compress_well() {
        let data = b"The quick brown fox jumps over the lazy dog. ".repeat(500);
        let packed = deflate(&data, BlockStyle::Dynamic);
        assert!(packed.len() * 10 < data.len(), "expected >10x compression");
        roundtrip(&data, BlockStyle::Dynamic);
    }

    #[test]
    fn stored_block_boundary_sizes() {
        for size in [0xFFFEusize, 0xFFFF, 0x10000, 0x10001] {
            let data: Vec<u8> = (0..size).map(|i| (i % 251) as u8).collect();
            roundtrip(&data, BlockStyle::Stored);
        }
    }

    #[test]
    fn dynamic_block_with_long_codes_roundtrips() {
        // Fibonacci frequencies make the Huffman tree as deep as possible:
        // literal codes reach 13 bits and distance codes the 15-bit cap,
        // so decoding leaves the lookup table for the counting path.
        let fib: Vec<u32> = (0..24)
            .scan((1u32, 1u32), |(a, b), _| {
                let f = *a;
                *a = *b;
                *b += f;
                Some(f)
            })
            .collect();
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move |n: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % n as u64) as usize
        };
        // Literals 0..24 in Fibonacci counts, shuffled.
        let mut block: Vec<Symbol> = (0..24u8)
            .flat_map(|b| std::iter::repeat_n(Symbol::Literal(b), fib[b as usize] as usize))
            .collect();
        for i in (1..block.len()).rev() {
            block.swap(i, next(i + 1));
        }
        // Then 3-byte matches over the first 18 distance codes, also in
        // Fibonacci counts; the output is long enough for every distance.
        let mut matches: Vec<Symbol> = (0..18usize)
            .flat_map(|code| {
                let (base, _) = DIST_TABLE[code];
                std::iter::repeat_n(Symbol::Match { len: 3, dist: base }, fib[code] as usize)
            })
            .collect();
        for i in (1..matches.len()).rev() {
            matches.swap(i, next(i + 1));
        }
        block.extend(matches);

        let mut expected = Vec::new();
        for &sym in &block {
            match sym {
                Symbol::Literal(b) => expected.push(b),
                Symbol::Match { len, dist } => {
                    let start = expected.len() - dist as usize;
                    for k in 0..len as usize {
                        expected.push(expected[start + k]);
                    }
                }
            }
        }
        let mut lit_freq = [0u32; 288];
        lit_freq[..24].copy_from_slice(&fib);
        lit_freq[257] = fib[..18].iter().sum();
        lit_freq[END_OF_BLOCK as usize] = 1;
        let mut dist_freq = [0u32; 30];
        dist_freq[..18].copy_from_slice(&fib[..18]);
        let lit_max = *build_code_lengths(&lit_freq, 15).iter().max().unwrap();
        let dist_max = *build_code_lengths(&dist_freq, 15).iter().max().unwrap();
        assert!(
            lit_max >= 13 && dist_max == 15,
            "codes must pass the 10-bit lookup table: {lit_max}, {dist_max}"
        );

        let mut writer = BitWriter::new();
        emit_dynamic_block(&mut writer, &block, true);
        assert_eq!(inflate(&writer.finish()).unwrap(), expected);
    }

    #[test]
    fn length_code_covers_all_lengths() {
        for len in MIN_MATCH as u16..=MAX_MATCH as u16 {
            let (code, extra_bits, extra) = length_code(len);
            assert!((257..=285).contains(&code), "len {len} -> code {code}");
            let (base, eb) = LENGTH_TABLE[(code - 257) as usize];
            assert_eq!(eb, extra_bits);
            assert_eq!(base + extra, len);
        }
    }

    #[test]
    fn dist_code_covers_all_distances() {
        for dist in 1u16..=32767 {
            let (code, extra_bits, extra) = dist_code(dist);
            assert!((0..=29).contains(&code));
            let (base, eb) = DIST_TABLE[code as usize];
            assert_eq!(eb, extra_bits);
            assert_eq!(base + extra, dist);
        }
    }
}
