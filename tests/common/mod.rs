//! Sources shared by the feature-extraction integration tests.

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
