//! The call-site, string-operator and procedure-body machine the lexer
//! feeds each token as it emits it.
//!
//! V5 counts the string-building operators, V8–V12 (and J7) count call
//! sites by built-in category, and J18–J20 measure procedure bodies. All
//! three read the token stream in order and keep only a few words of
//! state, so they run inside the lex pass instead of re-walking a token
//! slice afterwards. The results are the streaming equivalents of the
//! [`call_sites`](crate::MacroAnalysis::call_sites),
//! [`string_operator_count`](crate::MacroAnalysis::string_operator_count)
//! and [`procedure_body_spans`](crate::MacroAnalysis::procedure_body_spans)
//! views, read off the word class the lexer stored for each word.
//!
//! Comments and newlines are significant to none of them and are never
//! operators, so the lexer does not feed them.

use crate::words::WordClass;

/// What the token machine counted over one source.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TokenCounts {
    /// Call sites (V8–V12 denominator, J7): identifiers followed by `(`
    /// and built-ins in statement position, declared names excluded.
    pub call_count: usize,
    /// Call sites per built-in category, in V8–V12 order.
    pub cat_counts: [f64; 5],
    /// `&`, `+` and `=` operator tokens (V5).
    pub string_ops: usize,
    /// Closed procedure bodies (J18/J20). Only the full mode fills it.
    pub body_count: usize,
    /// Characters across closed bodies, summed in body order (J18/J19).
    /// Only the full mode fills it; it starts from `-0.0`, the identity
    /// `iter::Sum for f64` folds from, so a source without bodies keeps
    /// the sign bit J19 carries.
    pub body_chars: f64,
}

impl Default for TokenCounts {
    fn default() -> Self {
        TokenCounts {
            call_count: 0,
            cat_counts: [0.0; 5],
            string_ops: 0,
            body_count: 0,
            body_chars: -0.0,
        }
    }
}

/// The machine's state between tokens.
#[derive(Debug, Default)]
pub(crate) struct TokenMachine {
    counts: TokenCounts,
    /// An identifier waits for the next significant token to decide
    /// between a paren call and a statement-position built-in.
    pending: Option<WordClass>,
    /// The class of the previous significant token when it is a keyword,
    /// else a plain word (no role).
    prev_kw: WordClass,
    /// Character offset of the keyword that opened the current body.
    open_body: Option<usize>,
}

impl TokenMachine {
    /// Decides a pending identifier: a call when `paren` (the token that
    /// follows it is `(`) or when it names a built-in.
    #[inline]
    fn settle(&mut self, paren: bool) {
        if let Some(class) = self.pending.take() {
            if paren || class.is_builtin() {
                self.counts.call_count += 1;
                if let Some(idx) = class.category_index() {
                    self.counts.cat_counts[idx] += 1.0;
                }
            }
        }
    }

    /// An operator or punctuation token.
    #[inline]
    pub(crate) fn operator(&mut self, op: &str) {
        self.counts.string_ops += usize::from(matches!(op, "&" | "+" | "="));
        self.settle(op == "(");
        self.prev_kw = WordClass::default();
    }

    /// A number or string literal.
    #[inline]
    pub(crate) fn literal(&mut self) {
        self.settle(false);
        self.prev_kw = WordClass::default();
    }

    /// An identifier; a declared name (after `Sub`, `Dim`, `As`, …) is
    /// never a call.
    #[inline]
    pub(crate) fn identifier(&mut self, class: WordClass) {
        self.settle(false);
        if !self.prev_kw.names_declaration() {
            self.pending = Some(class);
        }
        self.prev_kw = WordClass::default();
    }

    /// A reserved word spanning characters `char_start..char_end`. In the
    /// full mode `Sub`/`Function` also drive the procedure-body machine.
    #[inline]
    pub(crate) fn keyword<const FULL: bool>(
        &mut self,
        class: WordClass,
        char_start: usize,
        char_end: usize,
    ) {
        self.settle(false);
        if FULL && class.opens_procedure() {
            let prev = self.prev_kw;
            if prev.is_declare() {
                // Prototype, not a body.
            } else if prev.is_end() {
                if let Some(start) = self.open_body.take() {
                    self.counts.body_count += 1;
                    self.counts.body_chars += (char_end - start) as f64;
                }
            } else if prev.is_exit() {
                // `Exit Sub` keeps the procedure open.
            } else if self.open_body.is_none() {
                self.open_body = Some(char_start);
            }
        }
        self.prev_kw = class;
    }

    /// Settles the last identifier and returns the counts.
    pub(crate) fn finish(mut self) -> TokenCounts {
        self.settle(false);
        self.counts
    }
}
