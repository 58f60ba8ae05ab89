//! Canonical Huffman coding shared by the DEFLATE encoder and decoder.

use crate::bits::BitReader;
use crate::ZipError;

pub const MAX_BITS: usize = 15;

/// Index width of the primary lookup table. Longer codes, and the rare
/// table hit that runs past the end of input, take the counting path.
const TABLE_BITS: u32 = 10;

/// Decoder for one canonical Huffman code, built from code lengths
/// (the representation DEFLATE streams carry).
///
/// A `TABLE_BITS`-bit lookup table, indexed by the next input bits,
/// resolves every code of up to `TABLE_BITS` bits in one probe. The
/// counting scheme from Mark Adler's `puff` (for each code length, how
/// many codes exist and the first code value) decodes everything else one
/// bit at a time, so both paths agree on every symbol and every error.
#[derive(Debug, Clone)]
pub struct HuffmanDecoder {
    /// `count[len]` = number of symbols with code length `len`.
    count: [u16; MAX_BITS + 1],
    /// Symbols sorted by (code length, symbol value).
    symbols: Vec<u16>,
    /// Entry `len << 12 | symbol` for every `TABLE_BITS`-bit input whose
    /// low bits are a code of `len <= TABLE_BITS`; 0 where no code fits.
    table: Box<[u16; 1 << TABLE_BITS]>,
}

impl HuffmanDecoder {
    /// Builds a decoder from per-symbol code lengths (0 = unused symbol).
    ///
    /// # Errors
    ///
    /// Returns an error when the lengths describe an over-subscribed code
    /// (more codes than the tree can hold) or an incomplete code with more
    /// than one symbol, both of which are invalid in DEFLATE.
    pub fn from_lengths(lengths: &[u8]) -> Result<Self, ZipError> {
        let mut count = [0u16; MAX_BITS + 1];
        for &len in lengths {
            if len as usize > MAX_BITS {
                return Err(ZipError::InvalidDeflate("code length exceeds 15"));
            }
            count[len as usize] += 1;
        }
        if count[0] as usize == lengths.len() {
            return Err(ZipError::InvalidDeflate("no symbols in huffman code"));
        }

        // Check the code for validity (neither over- nor under-subscribed,
        // except the special case of a single symbol which DEFLATE permits
        // for distance codes).
        let mut left = 1i32;
        for &n in &count[1..=MAX_BITS] {
            left <<= 1;
            left -= n as i32;
            if left < 0 {
                return Err(ZipError::InvalidDeflate("over-subscribed huffman code"));
            }
        }
        let used: u16 = count[1..].iter().sum();
        if left > 0 && used > 1 {
            return Err(ZipError::InvalidDeflate("incomplete huffman code"));
        }

        // offset[len] = index of first symbol of that length in `symbols`.
        let mut offset = [0usize; MAX_BITS + 1];
        for len in 1..MAX_BITS {
            offset[len + 1] = offset[len] + count[len] as usize;
        }
        let mut symbols = vec![0u16; used as usize];
        for (sym, &len) in lengths.iter().enumerate() {
            if len != 0 {
                symbols[offset[len as usize]] = sym as u16;
                offset[len as usize] += 1;
            }
        }

        // Codes arrive MSB first, so a code's table slots are its
        // bit-reversed value plus every setting of the bits above it.
        let mut table = Box::new([0u16; 1 << TABLE_BITS]);
        for (sym, (&len, code)) in lengths.iter().zip(canonical_codes(lengths)).enumerate() {
            let len = len as u32;
            if len == 0 || len > TABLE_BITS {
                continue;
            }
            let reversed = code.reverse_bits() >> (32 - len);
            let entry = (len << 12) as u16 | sym as u16;
            for slot in (reversed as usize..1 << TABLE_BITS).step_by(1 << len) {
                table[slot] = entry;
            }
        }
        Ok(HuffmanDecoder {
            count,
            symbols,
            table,
        })
    }

    /// Decodes one symbol from the bit reader.
    #[inline]
    pub fn decode(&self, reader: &mut BitReader<'_>) -> Result<u16, ZipError> {
        let entry = self.table[reader.peek(TABLE_BITS) as usize];
        let len = (entry >> 12) as u32;
        if len != 0 && len <= reader.available() {
            reader.consume(len);
            return Ok(entry & 0x0FFF);
        }
        self.decode_counting(reader)
    }

    /// The bit-serial decoder: codes longer than the table, unused codes
    /// of a one-symbol code, and codes cut by the end of input.
    #[cold]
    fn decode_counting(&self, reader: &mut BitReader<'_>) -> Result<u16, ZipError> {
        let mut code = 0i32;
        let mut first = 0i32;
        let mut index = 0i32;
        for len in 1..=MAX_BITS {
            code |= reader.bit()? as i32;
            let count = self.count[len] as i32;
            if code - first < count {
                return Ok(self.symbols[(index + (code - first)) as usize]);
            }
            index += count;
            first = (first + count) << 1;
            code <<= 1;
        }
        Err(ZipError::InvalidDeflate("invalid huffman code in stream"))
    }
}

/// Computes canonical code values from code lengths (RFC 1951 §3.2.2).
/// Returns `codes[symbol]`, valid only where `lengths[symbol] != 0`.
pub fn canonical_codes(lengths: &[u8]) -> Vec<u32> {
    let mut bl_count = [0u32; MAX_BITS + 1];
    for &len in lengths {
        bl_count[len as usize] += 1;
    }
    bl_count[0] = 0;
    let mut next_code = [0u32; MAX_BITS + 1];
    let mut code = 0u32;
    for bits in 1..=MAX_BITS {
        code = (code + bl_count[bits - 1]) << 1;
        next_code[bits] = code;
    }
    let mut codes = vec![0u32; lengths.len()];
    for (sym, &len) in lengths.iter().enumerate() {
        if len != 0 {
            codes[sym] = next_code[len as usize];
            next_code[len as usize] += 1;
        }
    }
    codes
}

/// Builds length-limited Huffman code lengths from symbol frequencies using
/// the package-merge algorithm (Larmore & Hirschberg), which is exact: the
/// result is an optimal *complete* prefix code with no length above
/// `max_bits`.
///
/// # Panics
///
/// Panics if `max_bits > 15` or if more than `2^max_bits` symbols have
/// non-zero frequency (no such code exists).
pub fn build_code_lengths(freqs: &[u32], max_bits: usize) -> Vec<u8> {
    assert!(max_bits <= MAX_BITS);
    let mut lengths = vec![0u8; freqs.len()];
    let used: Vec<usize> = (0..freqs.len()).filter(|&i| freqs[i] > 0).collect();
    match used.len() {
        0 => return lengths,
        1 => {
            lengths[used[0]] = 1;
            return lengths;
        }
        _ => {}
    }
    assert!(
        used.len() <= (1usize << max_bits),
        "cannot code {} symbols in {} bits",
        used.len(),
        max_bits
    );

    // Arena of nodes: a leaf carries an index into `used`; a package points
    // at two nodes of the previous level.
    enum Kind {
        Leaf(usize),
        Package(usize, usize),
    }
    let mut weights: Vec<u64> = Vec::new();
    let mut kinds: Vec<Kind> = Vec::new();
    let push = |weights: &mut Vec<u64>, kinds: &mut Vec<Kind>, w: u64, k: Kind| -> usize {
        weights.push(w);
        kinds.push(k);
        weights.len() - 1
    };

    // Leaves sorted by (weight, symbol) once; re-instantiated at each level.
    let mut sorted_used: Vec<usize> = (0..used.len()).collect();
    sorted_used.sort_by_key(|&leaf| (freqs[used[leaf]], used[leaf]));

    // `level` holds node ids of the current list, ascending by weight.
    let mut level: Vec<usize> = Vec::new();
    for _ in 0..max_bits {
        // Package pairs from the previous list.
        let mut packages: Vec<usize> = Vec::new();
        for pair in level.chunks(2) {
            if let [a, b] = *pair {
                let w = weights[a] + weights[b];
                let id = push(&mut weights, &mut kinds, w, Kind::Package(a, b));
                packages.push(id);
            }
        }
        // Merge fresh leaves with the packages, ascending by weight.
        let mut merged: Vec<usize> = Vec::with_capacity(sorted_used.len() + packages.len());
        let (mut li, mut pi) = (0usize, 0usize);
        while li < sorted_used.len() || pi < packages.len() {
            let take_leaf = match (sorted_used.get(li), packages.get(pi)) {
                (Some(&leaf), Some(&pkg)) => freqs[used[leaf]] as u64 <= weights[pkg],
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => unreachable!(),
            };
            if take_leaf {
                let leaf = sorted_used[li];
                let id = push(
                    &mut weights,
                    &mut kinds,
                    freqs[used[leaf]] as u64,
                    Kind::Leaf(leaf),
                );
                merged.push(id);
                li += 1;
            } else {
                merged.push(packages[pi]);
                pi += 1;
            }
        }
        level = merged;
    }

    // Select the 2n-2 cheapest items of the final list; each leaf occurrence
    // adds one to that symbol's code length.
    let mut leaf_lengths = vec![0u32; used.len()];
    fn count(kinds: &[Kind], id: usize, leaf_lengths: &mut [u32]) {
        match kinds[id] {
            Kind::Leaf(leaf) => leaf_lengths[leaf] += 1,
            Kind::Package(a, b) => {
                count(kinds, a, leaf_lengths);
                count(kinds, b, leaf_lengths);
            }
        }
    }
    for &id in level.iter().take(2 * used.len() - 2) {
        count(&kinds, id, &mut leaf_lengths);
    }

    for (leaf, &sym) in used.iter().enumerate() {
        debug_assert!(leaf_lengths[leaf] as usize <= max_bits && leaf_lengths[leaf] > 0);
        lengths[sym] = leaf_lengths[leaf] as u8;
    }
    lengths
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bits::BitWriter;

    fn roundtrip_symbols(lengths: &[u8], symbols: &[u16]) {
        let codes = canonical_codes(lengths);
        let mut w = BitWriter::new();
        for &s in symbols {
            w.huffman_code(codes[s as usize], lengths[s as usize] as u32);
        }
        let bytes = w.finish();
        let decoder = HuffmanDecoder::from_lengths(lengths).unwrap();
        let mut r = BitReader::new(&bytes);
        for &s in symbols {
            assert_eq!(decoder.decode(&mut r).unwrap(), s);
        }
    }

    #[test]
    fn rfc_example_codes() {
        // RFC 1951 §3.2.2 example: lengths (3,3,3,3,3,2,4,4) give codes
        // 010..111, 00, 1110, 1111.
        let lengths = [3u8, 3, 3, 3, 3, 2, 4, 4];
        let codes = canonical_codes(&lengths);
        assert_eq!(
            codes,
            vec![0b010, 0b011, 0b100, 0b101, 0b110, 0b00, 0b1110, 0b1111]
        );
    }

    #[test]
    fn encode_decode_roundtrip() {
        let lengths = [3u8, 3, 3, 3, 3, 2, 4, 4];
        roundtrip_symbols(&lengths, &[0, 5, 7, 6, 1, 2, 3, 4, 5, 5, 0]);
    }

    #[test]
    fn over_subscribed_code_rejected() {
        assert!(HuffmanDecoder::from_lengths(&[1, 1, 1]).is_err());
    }

    #[test]
    fn incomplete_code_rejected() {
        assert!(HuffmanDecoder::from_lengths(&[2, 2, 2]).is_err());
    }

    #[test]
    fn single_symbol_code_allowed() {
        // DEFLATE permits a one-symbol distance code.
        let d = HuffmanDecoder::from_lengths(&[0, 1, 0]).unwrap();
        let mut w = BitWriter::new();
        w.bits(0, 1);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(d.decode(&mut r).unwrap(), 1);
    }

    /// Decodes `bytes` to exhaustion with `decode`, returning every symbol
    /// and the error that ended the stream.
    fn decode_all(
        bytes: &[u8],
        skip: u32,
        decode: impl Fn(&mut BitReader<'_>) -> Result<u16, ZipError>,
    ) -> (Vec<u16>, ZipError) {
        let mut r = BitReader::new(bytes);
        r.bits(skip).unwrap();
        let mut symbols = Vec::new();
        loop {
            match decode(&mut r) {
                Ok(s) => symbols.push(s),
                Err(e) => return (symbols, e),
            }
        }
    }

    #[test]
    fn table_decode_matches_counting_decode_everywhere() {
        // Random complete codes of every depth limit, plus the one-symbol
        // code whose unused bit pattern is an error in the stream.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move |n: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % n
        };
        let mut length_sets = vec![vec![0u8, 1, 0]];
        for max_bits in [7usize, 9, 10, 11, 13, 15, 15, 15] {
            for _ in 0..3 {
                // Frequencies spread over 2^0..2^15 reach the depth limit.
                let n = 2 + next(286.min((1 << max_bits) - 2)) as usize;
                let mut freqs: Vec<u32> =
                    (0..n).map(|_| (1 << next(16)) * next(2) as u32).collect();
                freqs[0] += 1;
                freqs[n - 1] += 1;
                length_sets.push(build_code_lengths(&freqs, max_bits));
            }
        }
        assert!(length_sets
            .iter()
            .any(|l| l.iter().any(|&b| b as u32 > TABLE_BITS + 3)));
        for lengths in &length_sets {
            let decoder = HuffmanDecoder::from_lengths(lengths).unwrap();
            let codes = canonical_codes(lengths);
            let used: Vec<usize> = (0..lengths.len()).filter(|&s| lengths[s] != 0).collect();
            for skip in 0..=16u32 {
                let mut w = BitWriter::new();
                w.bits(next(1 << 16) as u32 & ((1 << skip) - 1), skip);
                for _ in 0..40 {
                    let s = used[next(used.len() as u64) as usize];
                    w.huffman_code(codes[s], lengths[s] as u32);
                }
                // Trailing noise: past the symbols, both decoders read it
                // as more codes until the input runs out.
                w.bits(next(1 << 16) as u32, 16);
                let bytes = w.finish();
                for cut in 0..=bytes.len() {
                    let prefix = &bytes[..cut];
                    if (cut * 8) < skip as usize {
                        continue;
                    }
                    assert_eq!(
                        decode_all(prefix, skip, |r| decoder.decode(r)),
                        decode_all(prefix, skip, |r| decoder.decode_counting(r)),
                        "lengths {lengths:?}, skip {skip}, cut {cut}"
                    );
                }
            }
        }
    }

    #[test]
    fn build_lengths_kraft_inequality_holds() {
        let freqs = [100u32, 50, 20, 10, 5, 2, 1, 1, 0, 3];
        let lengths = build_code_lengths(&freqs, MAX_BITS);
        let kraft: f64 = lengths
            .iter()
            .filter(|&&l| l > 0)
            .map(|&l| 2f64.powi(-(l as i32)))
            .sum();
        assert!(
            (kraft - 1.0).abs() < 1e-9,
            "code must be complete, kraft={kraft}"
        );
        // Unused symbol has no code.
        assert_eq!(lengths[8], 0);
        // Most frequent symbol has the (weakly) shortest code.
        assert!(lengths[0] <= *lengths.iter().filter(|&&l| l > 0).max().unwrap());
    }

    #[test]
    fn build_lengths_respects_limit() {
        // Fibonacci-like frequencies force deep unrestricted trees.
        let mut freqs = vec![0u32; 20];
        let (mut a, mut b) = (1u32, 1u32);
        for f in freqs.iter_mut() {
            *f = a;
            let c = a + b;
            a = b;
            b = c;
        }
        for limit in [7usize, 9, 15] {
            let lengths = build_code_lengths(&freqs, limit);
            assert!(lengths.iter().all(|&l| (l as usize) <= limit));
            let kraft: f64 = lengths
                .iter()
                .filter(|&&l| l > 0)
                .map(|&l| 2f64.powi(-(l as i32)))
                .sum();
            assert!((kraft - 1.0).abs() < 1e-9, "limit {limit}: kraft={kraft}");
            // The resulting code must be decodable.
            HuffmanDecoder::from_lengths(&lengths).unwrap();
        }
    }

    #[test]
    fn build_lengths_degenerate_cases() {
        assert!(build_code_lengths(&[0, 0, 0], MAX_BITS)
            .iter()
            .all(|&l| l == 0));
        let single = build_code_lengths(&[0, 7, 0], MAX_BITS);
        assert_eq!(single, vec![0, 1, 0]);
    }
}
