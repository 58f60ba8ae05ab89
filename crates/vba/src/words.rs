//! The word table: one static lookup that answers every question the
//! lexer and the feature passes ask about a word.
//!
//! Features V8–V12 and V14/V15 (paper §IV.C) need to know, for each word,
//! whether it is a reserved word, a user identifier or a built-in, and for
//! built-ins which of the five function categories it belongs to. The call
//! site and procedure-body passes also need the identity of a few keywords
//! (`Sub`, `Function`, `Declare`, `End`, `Exit`, and the keywords that
//! precede a declared name). All of that is one [`WordClass`], decided by
//! one probe of a perfect-hash table built at compile time from
//! [`KEYWORDS`] and the public `*_FUNCTIONS` tables. The lexer classifies
//! each word once and stores the class on its token; nothing downstream
//! looks a word up again.
//!
//! Matching folds ASCII letters only, so a non-ASCII lookalike (`ſhell`
//! with U+017F, `Kill` spelled with the Kelvin sign U+212A) is never a
//! built-in.

use crate::functions::{
    FunctionCategory, ARITHMETIC_FUNCTIONS, CONVERSION_FUNCTIONS, FINANCIAL_FUNCTIONS,
    RICH_FUNCTIONS, TEXT_FUNCTIONS,
};

/// VBA reserved words (MS-VBAL §3.3.5), lowercase.
pub(crate) const KEYWORDS: &[&str] = &[
    "addressof",
    "alias",
    "and",
    "as",
    "attribute",
    "base",
    "boolean",
    "byref",
    "byte",
    "byval",
    "call",
    "case",
    "cdecl",
    "compare",
    "const",
    "currency",
    "date",
    "decimal",
    "declare",
    "defbool",
    "defbyte",
    "defcur",
    "defdate",
    "defdbl",
    "defint",
    "deflng",
    "defobj",
    "defsng",
    "defstr",
    "defvar",
    "dim",
    "do",
    "double",
    "each",
    "else",
    "elseif",
    "empty",
    "end",
    "enum",
    "eqv",
    "erase",
    "error",
    "event",
    "exit",
    "explicit",
    "false",
    "for",
    "friend",
    "function",
    "get",
    "gosub",
    "goto",
    "if",
    "imp",
    "implements",
    "in",
    "integer",
    "is",
    "let",
    "lib",
    "like",
    "line",
    "lock",
    "long",
    "longlong",
    "longptr",
    "loop",
    "lset",
    "mod",
    "new",
    "next",
    "not",
    "nothing",
    "null",
    "object",
    "on",
    "option",
    "optional",
    "or",
    "paramarray",
    "preserve",
    "print",
    "private",
    "property",
    "public",
    "put",
    "raiseevent",
    "randomize",
    "redim",
    "resume",
    "return",
    "rset",
    "seek",
    "select",
    "set",
    "single",
    "static",
    "step",
    "stop",
    "string",
    "sub",
    "then",
    "to",
    "true",
    "type",
    "typeof",
    "until",
    "variant",
    "wend",
    "while",
    "with",
    "withevents",
    "write",
    "xor",
];

/// Keywords that open (or, after `End`, close) a procedure body.
const PROCEDURE_KEYWORDS: &[&str] = &["sub", "function"];
/// Other keywords whose next identifier is a declared name, not a call.
const DECLARATION_KEYWORDS: &[&str] = &["property", "dim", "const", "as"];

/// What the word table knows about one word. The default is a plain user
/// identifier: not reserved, not a built-in, no keyword role.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct WordClass(u8);

// Bit layout: category code in bits 0–2 (0 = none, else the 1-based
// V8–V12 index), the reserved-word flag in bit 3, the role in bits 4–6.
const CATEGORY_MASK: u8 = 0b111;
const KEYWORD: u8 = 1 << 3;
const ROLE_SHIFT: u32 = 4;
const ROLE_PROCEDURE: u8 = 1 << ROLE_SHIFT;
const ROLE_DECLARATION: u8 = 2 << ROLE_SHIFT;
const ROLE_DECLARE: u8 = 3 << ROLE_SHIFT;
const ROLE_END: u8 = 4 << ROLE_SHIFT;
const ROLE_EXIT: u8 = 5 << ROLE_SHIFT;
const ROLE_REM: u8 = 6 << ROLE_SHIFT;
const ROLE_MASK: u8 = 0b111 << ROLE_SHIFT;

impl WordClass {
    /// A VBA reserved word (the lexer emits a keyword token).
    pub fn is_keyword(self) -> bool {
        self.0 & KEYWORD != 0
    }

    /// The V8–V12 category of a built-in function.
    pub fn category(self) -> Option<FunctionCategory> {
        match self.0 & CATEGORY_MASK {
            1 => Some(FunctionCategory::Text),
            2 => Some(FunctionCategory::Arithmetic),
            3 => Some(FunctionCategory::TypeConversion),
            4 => Some(FunctionCategory::Financial),
            5 => Some(FunctionCategory::Rich),
            _ => None,
        }
    }

    /// The 0-based V8–V12 index of a built-in's category.
    pub fn category_index(self) -> Option<usize> {
        match self.0 & CATEGORY_MASK {
            0 => None,
            code => Some(code as usize - 1),
        }
    }

    /// Any known built-in function.
    pub fn is_builtin(self) -> bool {
        self.0 & CATEGORY_MASK != 0
    }

    /// `Sub` or `Function`: opens a procedure body, or closes one after
    /// `End`.
    pub fn opens_procedure(self) -> bool {
        self.0 & ROLE_MASK == ROLE_PROCEDURE
    }

    /// A keyword whose next identifier is a declared name, not a call:
    /// `Sub`, `Function`, `Property`, `Dim`, `Const`, `As`.
    pub fn names_declaration(self) -> bool {
        matches!(self.0 & ROLE_MASK, ROLE_PROCEDURE | ROLE_DECLARATION)
    }

    /// `Declare` (a `Declare Function` is a prototype, not a body).
    pub fn is_declare(self) -> bool {
        self.0 & ROLE_MASK == ROLE_DECLARE
    }

    /// `End`.
    pub fn is_end(self) -> bool {
        self.0 & ROLE_MASK == ROLE_END
    }

    /// `Exit`.
    pub fn is_exit(self) -> bool {
        self.0 & ROLE_MASK == ROLE_EXIT
    }

    /// `Rem`, which starts a comment (it is not a reserved-word token).
    pub(crate) fn is_rem(self) -> bool {
        self.0 & ROLE_MASK == ROLE_REM
    }
}

/// Classifies `word`, case-insensitively over ASCII, ignoring trailing
/// type-suffix characters (`$ % & ! # @`).
///
/// ```
/// use vbadet_vba::{words, FunctionCategory};
/// assert_eq!(words::classify("Chr$").category(), Some(FunctionCategory::Text));
/// assert!(words::classify("DIM").is_keyword());
/// assert_eq!(words::classify("MyHelper"), words::WordClass::default());
/// ```
pub fn classify(word: &str) -> WordClass {
    let mut w = word.as_bytes();
    while let [rest @ .., b'$' | b'%' | b'&' | b'!' | b'#' | b'@'] = w {
        w = rest;
    }
    if w.len() > MAX_WORD {
        return WordClass::default();
    }
    let (lo, hi) = pack(w);
    probe(lo, hi, w)
}

/// Classifies the word `src[start..end]` for the lexer: the same answer
/// as [`classify`] on that span, read with two unaligned 8-byte loads
/// (the first eight bytes, masked below eight, and the last eight). Only
/// a short word within eight bytes of the end of `src` takes the byte
/// path ([`short_word`]).
#[inline]
pub(crate) fn classify_span(src: &[u8], start: usize, end: usize) -> WordClass {
    let len = end - start;
    if len > MAX_WORD {
        return WordClass::default();
    }
    let (lo, hi) = if len >= 8 {
        (load8(src, start), load8(src, end - 8))
    } else {
        (short_word(src, start, len), 0)
    };
    probe(lo, hi, &src[start..end])
}

/// The eight bytes of `src` at `at`, as a little-endian word.
#[inline]
pub(crate) fn load8(src: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(src[at..at + 8].try_into().expect("8-byte slice"))
}

/// The `len` (< 8) bytes of `src` at `at`, zero-padded to a little-endian
/// word: one masked load when eight bytes remain in `src`, else a byte
/// path.
#[inline]
pub(crate) fn short_word(src: &[u8], at: usize, len: usize) -> u64 {
    if at + 8 <= src.len() {
        load8(src, at) & ((1u64 << (8 * len)) - 1)
    } else {
        pack(&src[at..at + len]).0
    }
}

/// One probe: hash the folded first and last eight bytes to a slot and
/// compare its one entry. `lo`/`hi` are [`pack`]ed from `word`.
#[inline]
fn probe(lo: u64, hi: u64, word: &[u8]) -> WordClass {
    let (lo, hi) = (fold_ascii(lo), fold_ascii(hi));
    match TABLE.slots[slot(TABLE.seed, lo, hi, word.len())] {
        0 => WordClass::default(),
        i => {
            let e = &TABLE.entries[i as usize - 1];
            // The two words cover every byte up to 16; longer words also
            // compare the middle bytes the loads skipped.
            let same = e.len as usize == word.len()
                && e.lo == lo
                && e.hi == hi
                && (word.len() <= 16 || word.eq_ignore_ascii_case(&e.key[..word.len()]));
            if same {
                e.class
            } else {
                WordClass::default()
            }
        }
    }
}

/// The first eight bytes of `word` (zero-padded below eight) and, from
/// eight bytes on, the last eight, as little-endian words; 0 for the
/// last eight of a shorter word.
const fn pack(word: &[u8]) -> (u64, u64) {
    let n = word.len();
    let (mut lo, mut hi) = (0u64, 0u64);
    let mut i = 0;
    while i < 8 {
        if i < n {
            lo |= (word[i] as u64) << (8 * i);
        }
        if n >= 8 {
            hi |= (word[n - 8 + i] as u64) << (8 * i);
        }
        i += 1;
    }
    (lo, hi)
}

/// ASCII-lowercases the eight bytes of `x` at once (SWAR): each byte in
/// `A..=Z` gains `0x20`; every other byte, including each byte of a
/// non-ASCII character, is unchanged.
pub(crate) const fn fold_ascii(x: u64) -> u64 {
    const LOW7: u64 = 0x7f7f_7f7f_7f7f_7f7f;
    const HIGH: u64 = 0x8080_8080_8080_8080;
    let low = x & LOW7;
    // High bit of each byte: its low seven bits are >= b'A' (0x41), and
    // >= b'Z' + 1 (0x5b). No byte carries into the next.
    let ge_a = low + 0x3f3f_3f3f_3f3f_3f3f;
    let gt_z = low + 0x2525_2525_2525_2525;
    let upper = ge_a & !gt_z & !x & HIGH;
    x | (upper >> 2)
}

/// Longest word in any table (`urldownloadtofilea`).
const MAX_WORD: usize = 18;
/// Slot-index width: 2^13 slots keep ~220 words collision-free for a
/// seed found within a few dozen tries.
const SLOT_BITS: u32 = 13;
const MAX_ENTRIES: usize = u8::MAX as usize;

#[derive(Clone, Copy)]
struct Entry {
    key: [u8; MAX_WORD],
    len: u8,
    /// The word's folded [`pack`] words.
    lo: u64,
    hi: u64,
    class: WordClass,
}

struct Table {
    seed: u64,
    /// 1-based index into `entries`, 0 for an empty slot.
    slots: [u8; 1 << SLOT_BITS],
    entries: [Entry; MAX_ENTRIES],
}

/// Mixes the folded first and last eight bytes with the length and the
/// seed; the top `SLOT_BITS` bits pick the slot.
#[inline]
const fn slot(seed: u64, lo: u64, hi: u64, len: usize) -> usize {
    let h = (lo ^ seed).wrapping_mul(0x9e37_79b9_7f4a_7c15)
        ^ (hi ^ len as u64).wrapping_mul(0xc2b2_ae3d_27d4_eb4f);
    ((h ^ (h >> 29)).wrapping_mul(0x1656_67b1_9e37_79f9) >> (64 - SLOT_BITS)) as usize
}

/// Every source list and the bits it contributes; a word in several
/// lists (`randomize` is a keyword and `Arithmetic`, `sub` is a keyword
/// with a role) gets the union.
const SOURCES: &[(&[&str], u8)] = &[
    (KEYWORDS, KEYWORD),
    (TEXT_FUNCTIONS, 1),
    (ARITHMETIC_FUNCTIONS, 2),
    (CONVERSION_FUNCTIONS, 3),
    (FINANCIAL_FUNCTIONS, 4),
    (RICH_FUNCTIONS, 5),
    (PROCEDURE_KEYWORDS, ROLE_PROCEDURE),
    (DECLARATION_KEYWORDS, ROLE_DECLARATION),
    (&["declare"], ROLE_DECLARE),
    (&["end"], ROLE_END),
    (&["exit"], ROLE_EXIT),
    (&["rem"], ROLE_REM),
];

const fn same_word(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut i = 0;
    while i < a.len() {
        if a[i] != b[i] {
            return false;
        }
        i += 1;
    }
    true
}

/// Inserts every word with `seed`; `None` when two distinct words share a
/// slot.
const fn try_build(seed: u64) -> Option<Table> {
    const EMPTY: Entry = Entry {
        key: [0; MAX_WORD],
        len: 0,
        lo: 0,
        hi: 0,
        class: WordClass(0),
    };
    let mut t = Table {
        seed,
        slots: [0; 1 << SLOT_BITS],
        entries: [EMPTY; MAX_ENTRIES],
    };
    let mut used = 0;
    let mut s = 0;
    while s < SOURCES.len() {
        let (list, bits) = SOURCES[s];
        let mut w = 0;
        while w < list.len() {
            let word = list[w].as_bytes();
            assert!(
                !word.is_empty() && word.len() <= MAX_WORD,
                "word table: word length out of range"
            );
            let mut k = 0;
            while k < word.len() {
                assert!(
                    !word[k].is_ascii_uppercase() && word[k].is_ascii(),
                    "word table: words must be lowercase ASCII"
                );
                k += 1;
            }
            let (lo, hi) = pack(word);
            let at = slot(seed, lo, hi, word.len());
            if t.slots[at] == 0 {
                assert!(used < MAX_ENTRIES, "word table: too many words");
                let mut key = [0u8; MAX_WORD];
                let mut k = 0;
                while k < word.len() {
                    key[k] = word[k];
                    k += 1;
                }
                t.entries[used] = Entry {
                    key,
                    len: word.len() as u8,
                    lo,
                    hi,
                    class: WordClass(bits),
                };
                used += 1;
                t.slots[at] = used as u8;
            } else {
                let e = &mut t.entries[t.slots[at] as usize - 1];
                if !same_word(e.key.split_at(e.len as usize).0, word) {
                    return None;
                }
                let (old, new) = (e.class.0, bits);
                assert!(
                    (old & CATEGORY_MASK == 0 || new & CATEGORY_MASK == 0)
                        && (old & ROLE_MASK == 0 || new & ROLE_MASK == 0),
                    "word table: a word has two categories or two roles"
                );
                e.class = WordClass(e.class.0 | bits);
            }
            w += 1;
        }
        s += 1;
    }
    Some(t)
}

/// The first seed that places every word in its own slot. With ~220
/// words in 2^13 slots about one seed in twenty works; the bound turns a
/// table that outgrows the slot count into a compile error, not a hang.
const fn build() -> Table {
    let mut seed = 0;
    while seed < 4096 {
        if let Some(t) = try_build(seed) {
            return t;
        }
        seed += 1;
    }
    panic!("word table: no collision-free seed; raise SLOT_BITS");
}

static TABLE: Table = build();

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{tokenize, TokenKind};

    /// The naive answer: strip the suffixes, lowercase, search the lists.
    fn oracle(word: &str) -> (bool, Option<FunctionCategory>) {
        let lower = word
            .trim_end_matches(['$', '%', '&', '!', '#', '@'])
            .to_ascii_lowercase();
        let keyword = KEYWORDS.contains(&lower.as_str());
        let category = [
            (TEXT_FUNCTIONS, FunctionCategory::Text),
            (ARITHMETIC_FUNCTIONS, FunctionCategory::Arithmetic),
            (CONVERSION_FUNCTIONS, FunctionCategory::TypeConversion),
            (FINANCIAL_FUNCTIONS, FunctionCategory::Financial),
            (RICH_FUNCTIONS, FunctionCategory::Rich),
        ]
        .into_iter()
        .find(|(table, _)| table.contains(&lower.as_str()))
        .map(|(_, cat)| cat);
        (keyword, category)
    }

    fn check(word: &str) {
        let class = classify(word);
        assert_eq!(
            (class.is_keyword(), class.category()),
            oracle(word),
            "{word:?}"
        );
        assert_eq!(class.is_builtin(), class.category().is_some(), "{word:?}");
        assert_eq!(
            class.category_index(),
            class.category().map(|c| c as usize),
            "{word:?}"
        );
        assert_eq!(
            crate::functions::categorize(word),
            oracle(word).1,
            "{word:?}"
        );
    }

    fn mixed(word: &str) -> String {
        word.chars()
            .enumerate()
            .map(|(i, c)| {
                if i % 2 == 0 {
                    c.to_ascii_uppercase()
                } else {
                    c
                }
            })
            .collect()
    }

    #[test]
    fn table_matches_the_naive_lists() {
        let all = SOURCES.iter().flat_map(|(list, _)| list.iter());
        for word in all {
            for form in [word.to_string(), word.to_ascii_uppercase(), mixed(word)] {
                check(&form);
                for suffix in ['$', '%', '&', '!', '#', '@'] {
                    check(&format!("{form}{suffix}"));
                }
            }
        }
    }

    /// The class the lexer stored on the first token of `src`.
    fn lexed_class(src: &str) -> WordClass {
        match crate::MacroAnalysis::new(src).tokens()[0].kind {
            crate::SpanKind::Identifier(c) | crate::SpanKind::Keyword(c) => c,
            crate::SpanKind::Comment(_) => classify("rem"),
            other => panic!("{src:?} lexed to {other:?}"),
        }
    }

    #[test]
    fn the_lexer_probe_matches_classify_mid_buffer_and_at_the_end() {
        let all = SOURCES.iter().flat_map(|(list, _)| list.iter());
        for word in all {
            for form in [word.to_string(), word.to_ascii_uppercase(), mixed(word)] {
                let suffixed = ['$', '%', '&', '!', '#', '@'].map(|s| format!("{form}{s}"));
                for w in std::iter::once(&form).chain(&suffixed) {
                    let want = classify(w);
                    assert_eq!((want.is_keyword(), want.category()), oracle(w), "{w:?}");
                    // Mid-buffer: the 8-byte loads reach past the word.
                    assert_eq!(
                        lexed_class(&format!("{w} + y\r\n")),
                        want,
                        "{w:?} mid-buffer"
                    );
                    // The last bytes of the source: no room for a load.
                    assert_eq!(lexed_class(w), want, "{w:?} at the end");
                }
            }
        }
        // 17- and 18-byte words: the two loads skip the middle bytes, so a
        // word that differs only there must not match.
        let long = "urldownloadtofilea";
        assert_eq!(lexed_class(long).category(), Some(FunctionCategory::Rich));
        for w in [
            "urldownlXXdtofilea",
            "urldownloaXtofilea",
            "urldownl\u{e9}dtofilea",
        ] {
            assert_eq!(lexed_class(w), WordClass::default(), "{w:?}");
            assert_eq!(
                lexed_class(&format!("{w} + y")),
                WordClass::default(),
                "{w:?}"
            );
            assert_eq!(classify(w), WordClass::default(), "{w:?}");
        }
    }

    #[test]
    fn fold_ascii_lowercases_exactly_the_ascii_capitals() {
        for b in 0..=255u8 {
            for lane in 0..8 {
                let mut bytes = *b"@AZ[`az{";
                bytes[lane] = b;
                let want = u64::from_le_bytes(bytes.map(|c| c.to_ascii_lowercase()));
                assert_eq!(
                    fold_ascii(u64::from_le_bytes(bytes)),
                    want,
                    "byte {b:#x} in lane {lane}"
                );
            }
        }
    }

    #[test]
    fn near_misses_and_lookalikes_are_plain_identifiers() {
        let long = "urldownloadtofileaa";
        assert_eq!(long.len(), 19);
        for word in [
            "",
            "c",
            "ch",
            "chrr",
            "shel",
            "shells",
            long,
            "$",
            "x$$",
            "_",
            "dim_",
            "1dim",
            "\u{17f}hell",
            "\u{212a}ill",
            "\u{17f}ub",
            "caf\u{e9}",
        ] {
            check(word);
            assert_eq!(classify(word), WordClass::default(), "{word:?}");
        }
    }

    #[test]
    fn randomize_is_a_keyword_token_and_an_arithmetic_function() {
        let class = classify("Randomize");
        assert!(class.is_keyword());
        assert_eq!(class.category(), Some(FunctionCategory::Arithmetic));
        assert_eq!(
            crate::functions::categorize("RANDOMIZE"),
            Some(FunctionCategory::Arithmetic)
        );
        let tokens = tokenize("Randomize\r\nrandomize 5");
        assert!(matches!(&tokens[0].kind, TokenKind::Keyword(k) if k == "Randomize"));
        assert!(matches!(&tokens[2].kind, TokenKind::Keyword(k) if k == "randomize"));
    }

    #[test]
    fn roles_name_exactly_their_keywords() {
        for word in SOURCES.iter().flat_map(|(list, _)| list.iter()) {
            let c = classify(word);
            assert_eq!(
                c.opens_procedure(),
                PROCEDURE_KEYWORDS.contains(word),
                "{word}"
            );
            assert_eq!(
                c.names_declaration(),
                PROCEDURE_KEYWORDS.contains(word) || DECLARATION_KEYWORDS.contains(word),
                "{word}"
            );
            assert_eq!(c.is_declare(), *word == "declare", "{word}");
            assert_eq!(c.is_end(), *word == "end", "{word}");
            assert_eq!(c.is_exit(), *word == "exit", "{word}");
            assert_eq!(c.is_rem(), *word == "rem", "{word}");
        }
        assert!(classify("REM").is_rem() && !classify("Rem").is_keyword());
    }
}
