//! Error type for the policy language.

use std::fmt;

/// A byte range of the policy source text.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Span {
    /// Offset of the first byte.
    pub start: usize,
    /// Offset one past the last byte.
    pub end: usize,
}

/// The store could not answer a lookup the evaluation needed (a drive
/// fault, an unreadable record). Not an absence: an evaluation that meets
/// one has no decision.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ViewFault(pub String);

impl fmt::Display for ViewFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "object lookup failed: {}", self.0)
    }
}

impl std::error::Error for ViewFault {}

/// Errors raised while lexing, parsing, compiling or evaluating policies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PolicyError {
    /// The lexer met an unexpected character (`position` is a byte offset).
    LexError { position: usize, message: String },
    /// The parser met an unexpected token.
    ParseError { position: usize, message: String },
    /// An unknown predicate name was used.
    UnknownPredicate(String),
    /// A predicate was called with the wrong number of arguments.
    WrongArity {
        predicate: String,
        expected: &'static str,
        got: usize,
    },
    /// A conjunction needs the value of `variable` in `predicate` (a
    /// relational operand, arithmetic, an object key) before the request
    /// context or any earlier predicate can have bound it, so it could never
    /// hold. `span` is the predicate call in the source text (empty for a
    /// policy loaded from its binary form).
    UnboundVariable {
        variable: String,
        predicate: String,
        span: Span,
    },
    /// A compiled policy blob could not be decoded.
    CorruptBinary(String),
}

impl fmt::Display for PolicyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PolicyError::LexError { position, message } => {
                write!(f, "lex error at {position}: {message}")
            }
            PolicyError::ParseError { position, message } => {
                write!(f, "parse error at token {position}: {message}")
            }
            PolicyError::UnknownPredicate(name) => write!(f, "unknown predicate {name:?}"),
            PolicyError::WrongArity {
                predicate,
                expected,
                got,
            } => write!(
                f,
                "predicate {predicate:?} expects {expected} arguments, got {got}"
            ),
            PolicyError::UnboundVariable {
                variable,
                predicate,
                span,
            } => write!(
                f,
                "variable {variable:?} is needed by {predicate} at bytes {}..{} before anything binds it",
                span.start, span.end
            ),
            PolicyError::CorruptBinary(msg) => write!(f, "corrupt policy binary: {msg}"),
        }
    }
}

impl std::error::Error for PolicyError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert!(PolicyError::UnknownPredicate("x".into())
            .to_string()
            .contains("x"));
        assert!(PolicyError::WrongArity {
            predicate: "eq".into(),
            expected: "2",
            got: 3
        }
        .to_string()
        .contains("eq"));
        let unbound = PolicyError::UnboundVariable {
            variable: "T".into(),
            predicate: "Le".into(),
            span: Span { start: 8, end: 18 },
        }
        .to_string();
        assert!(unbound.contains("\"T\"") && unbound.contains("8..18"));
        assert!(ViewFault("drive offline".into())
            .to_string()
            .contains("drive offline"));
    }
}
