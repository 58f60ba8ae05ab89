//! CRC-32 (IEEE 802.3, polynomial `0xEDB88320`) as used by ZIP, computed
//! eight bytes at a time (slicing-by-8).

/// Slicing-by-8 tables: `TABLES[0]` is the byte-at-a-time table, and
/// `TABLES[k][n]` is the CRC of byte `n` followed by `k` zero bytes, so
/// eight table lookups advance the checksum by eight input bytes.
const fn build_tables() -> [[u32; 256]; 8] {
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
    let mut n = 0;
    while n < 256 {
        let mut k = 1;
        while k < 8 {
            let prev = tables[k - 1][n];
            tables[k][n] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            k += 1;
        }
        n += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 8] = build_tables();

/// Computes the CRC-32 of `data` in one call.
///
/// ```
/// // The classic check value for "123456789".
/// assert_eq!(vbadet_zip::crc32::crc32(b"123456789"), 0xCBF4_3926);
/// ```
pub fn crc32(data: &[u8]) -> u32 {
    Hasher::new().update(data).finalize()
}

/// Incremental CRC-32 hasher for streaming input.
///
/// ```
/// use vbadet_zip::crc32::{crc32, Hasher};
/// let mut h = Hasher::new();
/// h.update(b"1234").update(b"56789");
/// assert_eq!(h.finalize(), crc32(b"123456789"));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hasher {
    state: u32,
}

impl Hasher {
    /// Creates a hasher with the standard initial state.
    pub fn new() -> Self {
        Hasher { state: 0xFFFF_FFFF }
    }

    /// Feeds `data` into the checksum.
    pub fn update(&mut self, data: &[u8]) -> &mut Self {
        let t = &TABLES;
        let mut c = self.state;
        let mut words = data.chunks_exact(8);
        for word in &mut words {
            let lo = c ^ u32::from_le_bytes([word[0], word[1], word[2], word[3]]);
            let hi = u32::from_le_bytes([word[4], word[5], word[6], word[7]]);
            c = t[7][(lo & 0xFF) as usize]
                ^ t[6][((lo >> 8) & 0xFF) as usize]
                ^ t[5][((lo >> 16) & 0xFF) as usize]
                ^ t[4][(lo >> 24) as usize]
                ^ t[3][(hi & 0xFF) as usize]
                ^ t[2][((hi >> 8) & 0xFF) as usize]
                ^ t[1][((hi >> 16) & 0xFF) as usize]
                ^ t[0][(hi >> 24) as usize];
        }
        for &b in words.remainder() {
            c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        self.state = c;
        self
    }

    /// Returns the final checksum value.
    pub fn finalize(&self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

impl Default for Hasher {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
        assert_eq!(crc32(&[0u8; 32]), 0x190A_55AD);
        assert_eq!(crc32(&[0xFFu8; 32]), 0xFF6C_AB0B);
    }

    #[test]
    fn incremental_matches_one_shot() {
        let data: Vec<u8> = (0..=255).collect();
        for split in [0, 1, 7, 128, 255, 256] {
            let mut h = Hasher::new();
            h.update(&data[..split]).update(&data[split..]);
            assert_eq!(h.finalize(), crc32(&data), "split at {split}");
        }
    }

    /// Bit-at-a-time reference: the polynomial division itself.
    fn crc32_bitwise(data: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in data {
            c ^= b as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
        }
        c ^ 0xFFFF_FFFF
    }

    #[test]
    fn split_updates_match_one_shot_at_every_offset() {
        // Lengths that are not multiples of 8 leave a remainder on both
        // sides of the split, so word and byte steps interleave.
        let data: Vec<u8> = (0..61u32).map(|i| (i * 37 + 11) as u8).collect();
        for len in [1usize, 7, 9, 15, 17, 23, 33, 61] {
            let whole = crc32(&data[..len]);
            assert_eq!(whole, crc32_bitwise(&data[..len]), "len {len}");
            for split in 0..=17.min(len) {
                let mut h = Hasher::new();
                h.update(&data[..split]).update(&data[split..len]);
                assert_eq!(h.finalize(), whole, "len {len}, split at {split}");
            }
        }
    }

    #[test]
    fn single_byte_difference_changes_crc() {
        let a = vec![0u8; 64];
        let mut b = a.clone();
        b[40] = 1;
        assert_ne!(crc32(&a), crc32(&b));
    }
}
