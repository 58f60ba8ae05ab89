//! Sources shared by the feature-extraction integration tests: the
//! bases, the word-table cases, and the seeded mutator whose stream the
//! equivalence test and the feature golden fixture both replay.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;

/// Base sources covering every token family the lexer knows: keywords,
/// identifiers (ASCII and not), numbers (`&H`, `&O`, exponents, type
/// suffixes), strings with `""` escapes, `'` and `Rem` comments, line
/// continuations, and mixed line endings.
pub const BASES: &[&str] = &[
    "Sub Alpha()\r\n    Dim x As Integer\r\n    x = Chr(65) & \"he\"\"llo\" + Mid(s, 1, 2)\r\n\
     \x20   ' a comment with words\r\n    Rem another one\r\nEnd Sub\r\n",
    "Function F(a, b)\r\n    F = a + b * &HFF - &O77 + 1.5E-3# \r\nEnd Function\r\n",
    "Attribute VB_Name = \"Module1\"\nPrivate Declare Function Beep Lib \"kernel32\" ()\n\
     Sub Go()\n    Call Helper(1, \"two\", 3.0)\nEnd Sub\n",
    "x = \"unterminated\r\ny = 'trailing comment no newline",
    "Sub S()\r\n    v = Array(1, _\r\n        2, _\r\n        3)\r\n    Exit Sub\r\nEnd Sub\r\n",
    "1Rem fused\r\ncaf\u{e9} = caf\u{c9} + \u{2603}\r\nIf x Then y = Asc(\"\u{e9}\") End If\r\n",
    "",
];

/// Word-table cases: type suffixes, mixed case, `Randomize` (a keyword
/// that is also an arithmetic built-in), declaration keywords, and
/// non-ASCII lookalikes (U+017F long s, U+212A Kelvin sign) that ASCII
/// folding must not match. Checked after the bases and before the
/// mutants, so the seeded mutant stream is unchanged.
pub const WORD_CASES: &[&str] = &[
    "x = CHR$(65) & cHr(66) & Chr$$(67) & hex%(1)\r\n",
    "sHeLl \"x\", 1\r\nSHELL$ \"y\"\r\n",
    "Randomize\r\nrandomize 5\r\nx = RANDOMIZE(3) + Rnd\r\n",
    "Declare Function URLDownloadToFileA Lib \"urlmon\" ()\r\nPrivate Declare Sub Sleep Lib \"k\" ()\r\n",
    "\u{17f}hell(1)\r\n\u{212a}ill \"f\"\r\nKill \"f\"\r\n",
    "Dim Shell As Long\r\nConst Chr = 1\r\nFunction Mid(a)\r\nEnd Function\r\nSub x: End Sub\r\n",
    "END SUB\r\nExit Function\r\nPROPERTY Get Val()\r\nEnd Property\r\nREM x\r\n",
];

/// Snippets spliced into mutants to provoke state-machine boundaries.
const HOSTILE: &[&str] = &[
    "\"", "'", "\r", "\n", "\r\n", " _\r\n", "_", "Rem ", "rem", "&H", "&", "\"\"", "E+", "#",
    "Sub ", "End Sub", "Function", "Declare ", "Exit ", "(", ")", ",", "\t", "\u{0}", "\u{e9}",
    "\u{2028}", "0", ".5", "=",
];

/// One seeded mutant: a base with 1–5 edits, each a hostile snippet, a
/// truncation, a tail of another base, or a repeat of the next few chars.
pub fn mutate(rng: &mut StdRng) -> String {
    let mut s = String::from(*BASES.choose(rng).unwrap());
    for _ in 0..rng.gen_range(1..6) {
        // Any char boundary, including the very end.
        let boundaries: Vec<usize> = s.char_indices().map(|(i, _)| i).chain([s.len()]).collect();
        let at = *boundaries.choose(rng).unwrap();
        match rng.gen_range(0..4u32) {
            0 => s.insert_str(at, HOSTILE.choose(rng).unwrap()),
            1 => s.truncate(at),
            2 => {
                let other = *BASES.choose(rng).unwrap();
                let cut: Vec<usize> = other
                    .char_indices()
                    .map(|(i, _)| i)
                    .chain([other.len()])
                    .collect();
                let from = *cut.choose(rng).unwrap();
                s.insert_str(at, &other[from..]);
            }
            _ => {
                let tail: String = s[at..].chars().take(7).collect();
                s.insert_str(at, &tail);
            }
        }
    }
    s
}
