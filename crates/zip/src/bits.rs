//! LSB-first bit I/O shared by the DEFLATE encoder and decoder.

use crate::ZipError;

/// Reads bits least-significant-bit first from a byte slice, as required by
/// RFC 1951.
///
/// Bits are buffered 64 at a time: while eight input bytes remain, a refill
/// loads one little-endian word; near the end it loads byte by byte. Bits
/// of the buffer above `count` are either zero or the stream's own next
/// bits (a word refill overlaps the byte it stops inside), so OR-ing the
/// next load in at `count` is exact either way.
#[derive(Debug)]
pub struct BitReader<'a> {
    data: &'a [u8],
    /// Next byte index to load from.
    pos: usize,
    /// Bit buffer; the low `count` bits are valid.
    buf: u64,
    count: u32,
}

impl<'a> BitReader<'a> {
    pub fn new(data: &'a [u8]) -> Self {
        BitReader {
            data,
            pos: 0,
            buf: 0,
            count: 0,
        }
    }

    /// Tops the buffer up to at least 56 valid bits, or to every bit left
    /// in the input.
    #[inline]
    fn refill(&mut self) {
        if let Some(word) = self.data.get(self.pos..self.pos + 8) {
            let word = u64::from_le_bytes(word.try_into().expect("8-byte slice"));
            self.buf |= word << self.count;
            // Whole bytes that fit: `count` lands in 56..=63.
            self.pos += ((63 - self.count) >> 3) as usize;
            self.count |= 56;
        } else {
            while self.count <= 56 && self.pos < self.data.len() {
                self.buf |= (self.data[self.pos] as u64) << self.count;
                self.pos += 1;
                self.count += 8;
            }
        }
    }

    /// The next `n` bits (0..=16) without consuming them, refilling first
    /// when fewer are buffered. Near the end of input fewer than `n` may be
    /// valid ([`available`](Self::available)); the missing high bits read
    /// as zero.
    #[inline]
    pub fn peek(&mut self, n: u32) -> u32 {
        debug_assert!(n <= 16);
        if self.count < n {
            self.refill();
        }
        (self.buf & ((1u64 << n) - 1)) as u32
    }

    /// Number of valid buffered bits.
    #[inline]
    pub fn available(&self) -> u32 {
        self.count
    }

    /// Drops `n` buffered bits; `n` must not exceed [`available`](Self::available).
    #[inline]
    pub fn consume(&mut self, n: u32) {
        debug_assert!(n <= self.count);
        self.buf >>= n;
        self.count -= n;
    }

    /// Reads `n` bits (0..=16), LSB first.
    #[inline]
    pub fn bits(&mut self, n: u32) -> Result<u32, ZipError> {
        let value = self.peek(n);
        if self.count < n {
            return Err(ZipError::InvalidDeflate("unexpected end of stream"));
        }
        self.consume(n);
        Ok(value)
    }

    /// Reads a single bit.
    pub fn bit(&mut self) -> Result<u32, ZipError> {
        self.bits(1)
    }

    /// Discards the bits of a partial byte to realign on a byte boundary
    /// (used before stored blocks). Whole buffered bytes go back to the
    /// input, so [`bytes`](Self::bytes) reads on from the right offset.
    pub fn align_to_byte(&mut self) {
        self.pos -= (self.count / 8) as usize;
        self.buf = 0;
        self.count = 0;
    }

    /// Copies `len` raw bytes (must be byte-aligned).
    pub fn bytes(&mut self, len: usize) -> Result<&'a [u8], ZipError> {
        debug_assert_eq!(self.count, 0, "bytes() requires byte alignment");
        let end = self
            .pos
            .checked_add(len)
            .filter(|&e| e <= self.data.len())
            .ok_or(ZipError::InvalidDeflate("stored block overruns input"))?;
        let slice = &self.data[self.pos..end];
        self.pos = end;
        Ok(slice)
    }
}

/// Writes bits least-significant-bit first into a growing byte buffer.
#[derive(Debug, Default)]
pub struct BitWriter {
    out: Vec<u8>,
    acc: u32,
    count: u32,
}

impl BitWriter {
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends the low `n` bits of `value`, LSB first.
    pub fn bits(&mut self, value: u32, n: u32) {
        debug_assert!(n <= 16);
        debug_assert!(n == 32 || value < (1u32 << n.max(1)) || n == 0);
        self.acc |= value << self.count;
        self.count += n;
        while self.count >= 8 {
            self.out.push((self.acc & 0xFF) as u8);
            self.acc >>= 8;
            self.count -= 8;
        }
    }

    /// Appends a Huffman code, which RFC 1951 packs MSB first.
    pub fn huffman_code(&mut self, code: u32, len: u32) {
        // Reverse the `len` low bits so that emitting LSB-first yields the
        // code MSB-first on the wire.
        let mut reversed = 0u32;
        for i in 0..len {
            if code & (1 << i) != 0 {
                reversed |= 1 << (len - 1 - i);
            }
        }
        self.bits(reversed, len);
    }

    /// Pads to a byte boundary with zero bits.
    pub fn align_to_byte(&mut self) {
        if self.count > 0 {
            self.out.push((self.acc & 0xFF) as u8);
            self.acc = 0;
            self.count = 0;
        }
    }

    /// Appends raw bytes (caller must be byte-aligned).
    pub fn bytes(&mut self, data: &[u8]) {
        debug_assert_eq!(self.count, 0, "bytes() requires byte alignment");
        self.out.extend_from_slice(data);
    }

    /// Finishes the stream, padding the final partial byte with zeros.
    pub fn finish(mut self) -> Vec<u8> {
        self.align_to_byte();
        self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_bit_patterns() {
        let mut w = BitWriter::new();
        w.bits(0b101, 3);
        w.bits(0b1, 1);
        w.bits(0xABC, 12);
        w.bits(0, 0);
        w.bits(0x3FFF, 14);
        let bytes = w.finish();

        let mut r = BitReader::new(&bytes);
        assert_eq!(r.bits(3).unwrap(), 0b101);
        assert_eq!(r.bits(1).unwrap(), 0b1);
        assert_eq!(r.bits(12).unwrap(), 0xABC);
        assert_eq!(r.bits(0).unwrap(), 0);
        assert_eq!(r.bits(14).unwrap(), 0x3FFF);
    }

    #[test]
    fn alignment_and_raw_bytes() {
        let mut w = BitWriter::new();
        w.bits(0b11, 2);
        w.align_to_byte();
        w.bytes(&[0xDE, 0xAD]);
        let bytes = w.finish();

        let mut r = BitReader::new(&bytes);
        assert_eq!(r.bits(2).unwrap(), 0b11);
        r.align_to_byte();
        assert_eq!(r.bytes(2).unwrap(), &[0xDE, 0xAD]);
    }

    #[test]
    fn reader_reports_end_of_stream() {
        let mut r = BitReader::new(&[0xFF]);
        assert!(r.bits(8).is_ok());
        assert!(r.bits(1).is_err());
    }

    #[test]
    fn huffman_code_is_msb_first() {
        // Code 0b011 of length 3 must appear on the wire as bits 0,1,1
        // (MSB first) i.e. LSB-first emission order 0, 1, 1.
        let mut w = BitWriter::new();
        w.huffman_code(0b011, 3);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.bit().unwrap(), 0);
        assert_eq!(r.bit().unwrap(), 1);
        assert_eq!(r.bit().unwrap(), 1);
    }
}
