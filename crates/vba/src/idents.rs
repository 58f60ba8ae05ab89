//! The distinct-identifier set the lexer fills for V14/V15.
//!
//! V14/V15 need the character length of every distinct user identifier,
//! compared case-insensitively over ASCII, in first-occurrence order (the
//! semantics of [`MacroAnalysis::identifiers`](crate::MacroAnalysis::identifiers)).
//! The lexer inserts each non-built-in identifier span into an
//! [`IdentSet`] as it emits the token; a new name pushes its length to
//! [`SourceStats::ident_lengths`](crate::SourceStats::ident_lengths), so
//! no later pass walks the tokens or hashes a name again.
//!
//! The set is an open-addressing table with linear probing that keeps at
//! most half its slots full and grows by rehash. Its hash mixes every
//! byte of the name: a hash of a few sampled bytes (like the word table's
//! probe) would let crafted names that share them pile into one probe
//! chain. Clearing touches only the slots that names filled, so one huge
//! module does not slow every later one that reuses the table.

use crate::words::{fold_ascii, load8, short_word};

/// Slots of a table's first allocation.
const FIRST_SLOTS: usize = 256;

/// The distinct names of one source, kept as spans of it.
#[derive(Debug, Default)]
pub(crate) struct IdentSet {
    /// A power-of-two number of slots: 0 for an empty one, else 1 + the
    /// index of a name in `names`.
    slots: Vec<usize>,
    /// The distinct names, in first-occurrence order.
    names: Vec<Name>,
}

#[derive(Debug, Clone, Copy)]
struct Name {
    hash: u64,
    start: usize,
    end: usize,
    /// The slot that holds this name.
    slot: usize,
}

impl IdentSet {
    /// Empties the set for the next source, keeping its allocations.
    pub(crate) fn clear(&mut self) {
        for n in &self.names {
            self.slots[n.slot] = 0;
        }
        self.names.clear();
    }

    /// Adds the name `src[start..end]`; true when no earlier name equals
    /// it, ignoring ASCII case.
    #[inline]
    pub(crate) fn insert(&mut self, src: &[u8], start: usize, end: usize) -> bool {
        if 2 * (self.names.len() + 1) > self.slots.len() {
            self.grow();
        }
        let name = &src[start..end];
        let hash = hash(src, start, end);
        let mask = self.slots.len() - 1;
        let mut i = hash as usize & mask;
        loop {
            match self.slots[i] {
                0 => {
                    self.names.push(Name {
                        hash,
                        start,
                        end,
                        slot: i,
                    });
                    self.slots[i] = self.names.len();
                    return true;
                }
                k => {
                    let n = &self.names[k - 1];
                    if n.hash == hash && src[n.start..n.end].eq_ignore_ascii_case(name) {
                        return false;
                    }
                }
            }
            i = (i + 1) & mask;
        }
    }

    /// Doubles the table and re-places every name.
    #[cold]
    fn grow(&mut self) {
        let len = (2 * self.slots.len()).max(FIRST_SLOTS);
        self.slots.clear();
        self.slots.resize(len, 0);
        let mask = len - 1;
        for (k, n) in self.names.iter_mut().enumerate() {
            let mut i = n.hash as usize & mask;
            while self.slots[i] != 0 {
                i = (i + 1) & mask;
            }
            self.slots[i] = k + 1;
            n.slot = i;
        }
    }
}

/// Hashes every byte of `src[start..end]`, ASCII case folded, eight at a
/// time; the last partial word is read like the word table's. Each step
/// is a bijection of the state for a fixed input word and of the input
/// word for a fixed state, so names of one length that differ in a single
/// eight-byte word never share a hash; the set still compares the bytes
/// of names whose hashes match.
#[inline]
fn hash(src: &[u8], start: usize, end: usize) -> u64 {
    const K: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut h = ((end - start) as u64).wrapping_mul(K);
    let mut step = |w: u64| {
        h = (h ^ fold_ascii(w)).wrapping_mul(K);
        h ^= h >> 32;
    };
    let mut at = start;
    while end - at >= 8 {
        step(load8(src, at));
        at += 8;
    }
    if at < end {
        step(short_word(src, at, end - at));
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dedups_ignoring_ascii_case_only() {
        let src = b"Alpha ALPHA alpha$ alpha caf\xc3\xa9 CAF\xc3\xa9 caf\xc3\x89";
        let spans = [
            (0, 5),
            (6, 11),
            (12, 18),
            (19, 24),
            (25, 30),
            (31, 36),
            (37, 42),
        ];
        let mut set = IdentSet::default();
        let fresh: Vec<bool> = spans.iter().map(|&(s, e)| set.insert(src, s, e)).collect();
        // `café` and `CAFé` fold to one name; `cafÉ` differs (non-ASCII).
        assert_eq!(fresh, [true, false, true, false, true, false, true]);
    }

    #[test]
    fn grows_and_clears_only_filled_slots() {
        let names: Vec<String> = (0..1000).map(|i| format!("n{i}")).collect();
        let src = names.join(" ");
        let mut set = IdentSet::default();
        let mut at = 0;
        for (round, name) in names.iter().enumerate() {
            assert!(set.insert(src.as_bytes(), at, at + name.len()), "{round}");
            at += name.len() + 1;
        }
        assert!(set.slots.len() >= 2 * names.len());
        assert!(!set.insert(src.as_bytes(), 0, 2), "n0 again");
        let slots = set.slots.len();
        set.clear();
        assert!(set.slots.iter().all(|&s| s == 0));
        assert_eq!(set.slots.len(), slots, "clearing keeps the table");
        assert!(set.insert(src.as_bytes(), 0, 2), "n0 after clear");
    }

    #[test]
    fn names_sharing_their_ends_spread_over_the_table() {
        // One length, one first and last eight bytes, distinct middles.
        let names: Vec<String> = (0..4096)
            .map(|i| format!("prefix00{i:04}suffix00"))
            .collect();
        let mut hashes: Vec<u64> = names
            .iter()
            .map(|n| hash(n.as_bytes(), 0, n.len()))
            .collect();
        hashes.sort_unstable();
        hashes.dedup();
        assert_eq!(hashes.len(), names.len());
        let mask = 8191;
        let mut buckets = vec![0u32; mask + 1];
        for h in &hashes {
            buckets[*h as usize & mask] += 1;
        }
        assert!(
            buckets.iter().all(|&b| b <= 8),
            "{:?}",
            buckets.iter().max()
        );
    }
}
