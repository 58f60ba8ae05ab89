//! Lexical analysis of VBA macro source code.
//!
//! The paper's 15 proposed features (V1–V15) and the 20 comparison features
//! (J1–J20) are all *lexical*: identifier lengths, string statistics,
//! operator frequencies, function-call category ratios, comment/code splits.
//! This crate provides the tokenizer and token-stream views those extractors
//! are built on, plus the VBA built-in-function category tables from the
//! language specification (used by features V8–V12), merged with the
//! reserved words into one word table ([`words`]) that the lexer reads
//! once per word.
//!
//! # Examples
//!
//! ```
//! use vbadet_vba::{tokenize, TokenKind};
//!
//! let tokens = tokenize("Sub Go()\r\n    x = Chr(65) & \"BC\" 'comment\r\nEnd Sub");
//! assert!(tokens.iter().any(|t| matches!(&t.kind, TokenKind::StringLit(s) if s == "BC")));
//! assert!(tokens.iter().any(|t| matches!(&t.kind, TokenKind::Comment(c) if c == "comment")));
//! ```

pub mod analysis;
mod calls;
pub mod functions;
mod idents;
mod lexer;
mod stats;
mod token;
pub mod words;

pub use analysis::{LexScratch, MacroAnalysis};
pub use calls::TokenCounts;
pub use functions::FunctionCategory;
#[cfg(any(test, feature = "reference"))]
pub use lexer::reference_tokenize;
pub use lexer::tokenize;
pub use stats::SourceStats;
pub use token::{SpanKind, SpanToken, Token, TokenKind};
pub use words::WordClass;
