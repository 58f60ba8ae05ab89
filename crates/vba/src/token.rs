//! Token types produced by the lexer.

use crate::words::WordClass;

/// Kind and payload of a lexical token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokenKind {
    /// An identifier (variable, procedure or builtin name). A trailing type
    /// suffix character (`$ % & ! # @`) is absorbed into the identifier,
    /// matching VBA's declaration syntax (`name$`).
    Identifier(String),
    /// A reserved word (`Sub`, `Dim`, `If`, …), stored as written.
    Keyword(String),
    /// A string literal, without quotes; embedded `""` pairs are decoded.
    StringLit(String),
    /// A numeric literal (decimal, float, `&H` hex or `&O` octal), as written.
    Number(String),
    /// A comment introduced by `'` or `Rem`, without the marker.
    Comment(String),
    /// An operator or punctuation mark (`&`, `+`, `<=`, `(`, …).
    Operator(&'static str),
    /// A physical end of line (line continuations are spliced, so a
    /// continued logical line yields no `Newline`).
    Newline,
}

/// One token with its byte span in the source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// What was recognized.
    pub kind: TokenKind,
    /// Byte offset of the first byte of the token.
    pub start: usize,
    /// Byte offset one past the last byte.
    pub end: usize,
}

impl Token {
    /// The token's source length in bytes.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the token covers no bytes (never true for lexer output).
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

/// Payload-free token tag for the borrowed span lexer backing
/// [`MacroAnalysis`](crate::MacroAnalysis): the text of a token is the
/// source slice at its span, so no owned `String` is materialized.
/// String-literal values and trimmed comment bodies (the two cases where
/// the payload is not the exact span) live in side tables indexed here.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// An identifier; the span includes any absorbed type suffix. The
    /// class (built-in category, if any) was looked up once by the lexer.
    Identifier(WordClass),
    /// A reserved word, exactly as written in the span, with its class.
    Keyword(WordClass),
    /// A numeric literal, exactly as written in the span.
    Number,
    /// A string literal; payload index into the analysis string table.
    StringLit(u32),
    /// A comment; payload index into the analysis comment table.
    Comment(u32),
    /// An operator or punctuation mark.
    Operator(&'static str),
    /// A physical end of line (continuations are spliced).
    Newline,
}

/// One span token: kind tag plus byte *and* character positions, so
/// consumers can count characters of any token-bounded region (procedure
/// bodies, identifiers, comment spans) without re-walking the source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanToken {
    /// What was recognized.
    pub kind: SpanKind,
    /// Byte offset of the first byte of the token.
    pub start: usize,
    /// Byte offset one past the last byte.
    pub end: usize,
    /// Character offset of the first character.
    pub char_start: usize,
    /// Character offset one past the last character.
    pub char_end: usize,
}

impl SpanToken {
    /// The token's source length in characters.
    pub fn char_len(&self) -> usize {
        self.char_end - self.char_start
    }
}
