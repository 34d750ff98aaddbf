//! Error type shared by the wire-format modules.

use std::fmt;

/// Errors produced while encoding or decoding wire formats.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The input ended before a complete value could be decoded.
    UnexpectedEof,
    /// A varint was longer than the 10-byte maximum.
    VarintOverflow,
    /// An unknown or unsupported wire type was encountered.
    InvalidWireType(u8),
    /// A length prefix exceeded the remaining input or a sanity bound.
    LengthOutOfBounds { length: u64, remaining: usize },
    /// A REST parameter had an invalid value.
    InvalidParameter(String),
    /// A field that must be UTF-8 was not.
    InvalidUtf8,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::UnexpectedEof => write!(f, "unexpected end of input"),
            WireError::VarintOverflow => write!(f, "varint overflow"),
            WireError::InvalidWireType(t) => write!(f, "invalid wire type {t}"),
            WireError::LengthOutOfBounds { length, remaining } => {
                write!(f, "length {length} exceeds remaining {remaining} bytes")
            }
            WireError::InvalidParameter(msg) => write!(f, "invalid parameter: {msg}"),
            WireError::InvalidUtf8 => write!(f, "invalid UTF-8"),
        }
    }
}

impl std::error::Error for WireError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_covers_variants() {
        let cases: Vec<WireError> = vec![
            WireError::UnexpectedEof,
            WireError::VarintOverflow,
            WireError::InvalidWireType(7),
            WireError::LengthOutOfBounds {
                length: 10,
                remaining: 5,
            },
            WireError::InvalidParameter("y".into()),
            WireError::InvalidUtf8,
        ];
        for c in cases {
            assert!(!c.to_string().is_empty());
        }
    }
}
