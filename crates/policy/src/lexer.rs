//! Lexer for the policy language.
//!
//! The original prototype uses Flex for lexical analysis; this hand-written
//! scanner covers the same token set: permission keywords, predicate and
//! tuple identifiers, variables (identifiers starting with an uppercase
//! letter), integer and string literals, the `:-` rule separator, logical
//! connectives in both ASCII (`and`, `or`, `&`, `|`) and Unicode (`∧`, `∨`)
//! spellings, parentheses, commas and `+` for version arithmetic.

use crate::error::{PolicyError, Span};

/// A lexical token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Token {
    /// A lowercase-initial identifier (predicate or tuple name, or keyword).
    Ident(String),
    /// An uppercase-initial identifier: a variable.
    Variable(String),
    /// An integer literal.
    Int(i64),
    /// A string literal (single or double quoted).
    Str(String),
    /// `:-`
    Turnstile,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `,`
    Comma,
    /// `+`
    Plus,
    /// Conjunction (`and`, `&`, `∧`).
    And,
    /// Disjunction (`or`, `|`, `∨`).
    Or,
}

/// Tokenizes policy text.
pub fn tokenize(input: &str) -> Result<Vec<Token>, PolicyError> {
    Ok(tokenize_spanned(input)?
        .into_iter()
        .map(|(token, _)| token)
        .collect())
}

/// Tokenizes policy text, keeping each token's byte range so that a later
/// stage can point at the source.
pub fn tokenize_spanned(input: &str) -> Result<Vec<(Token, Span)>, PolicyError> {
    let mut tokens = Vec::new();
    let mut rest = input;
    // The offset of `rest` in `input`. Every cut below is at an offset
    // `find` reported or one character's own length, so none splits a
    // character.
    let at = |rest: &str| input.len() - rest.len();

    while let Some(c) = rest.chars().next() {
        let start = at(rest);
        // How many bytes of `rest` the token takes, and the token (none for
        // whitespace and comments).
        let (len, token) = match c {
            ' ' | '\t' | '\r' | '\n' => (1, None),
            '%' | '#' => (rest.find('\n').unwrap_or(rest.len()), None),
            '(' => (1, Some(Token::LParen)),
            ')' => (1, Some(Token::RParen)),
            ',' => (1, Some(Token::Comma)),
            '+' => (1, Some(Token::Plus)),
            '&' => (leading(rest, |c| c == '&').min(2), Some(Token::And)),
            '|' => (leading(rest, |c| c == '|').min(2), Some(Token::Or)),
            '∧' => (c.len_utf8(), Some(Token::And)),
            '∨' => (c.len_utf8(), Some(Token::Or)),
            ':' if rest.starts_with(":-") => (2, Some(Token::Turnstile)),
            ':' => {
                return Err(PolicyError::LexError {
                    position: start,
                    message: "expected ':-'".to_string(),
                })
            }
            '"' | '\'' => {
                let body = rest.get(1..).unwrap_or_default();
                let close = body.find(c).ok_or_else(|| PolicyError::LexError {
                    position: start,
                    message: "unterminated string literal".to_string(),
                })?;
                let text = body.get(..close).unwrap_or_default();
                (close + 2, Some(Token::Str(text.to_string())))
            }
            '-' | '0'..='9' => {
                let sign = usize::from(c == '-');
                let digits = leading(rest.get(sign..).unwrap_or_default(), |c| c.is_ascii_digit());
                let text = rest.get(..sign + digits).unwrap_or_default();
                let value = text.parse::<i64>().map_err(|_| PolicyError::LexError {
                    position: start,
                    message: format!("invalid integer {text:?}"),
                })?;
                (text.len(), Some(Token::Int(value)))
            }
            c if c.is_alphabetic() || c == '_' => {
                let len = leading(rest, |c| c.is_alphanumeric() || c == '_' || c == '-');
                let word = rest.get(..len).unwrap_or_default();
                let token = match word.to_ascii_lowercase().as_str() {
                    "and" => Token::And,
                    "or" => Token::Or,
                    _ if c.is_uppercase() => Token::Variable(word.to_string()),
                    _ => Token::Ident(word.to_string()),
                };
                (len, Some(token))
            }
            other => {
                return Err(PolicyError::LexError {
                    position: start,
                    message: format!("unexpected character {other:?}"),
                })
            }
        };
        if let Some(token) = token {
            tokens.push((
                token,
                Span {
                    start,
                    end: start + len,
                },
            ));
        }
        rest = rest.get(len..).unwrap_or_default();
    }
    Ok(tokens)
}

/// Length in bytes of the longest prefix of `text` whose characters all
/// satisfy `keep`.
fn leading(text: &str, keep: impl Fn(char) -> bool) -> usize {
    text.find(|c| !keep(c)).unwrap_or(text.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokenizes_simple_policy() {
        let tokens = tokenize("read :- sessionKeyIs(Kalice)").unwrap();
        assert_eq!(
            tokens,
            vec![
                Token::Ident("read".into()),
                Token::Turnstile,
                Token::Ident("sessionKeyIs".into()),
                Token::LParen,
                Token::Variable("Kalice".into()),
                Token::RParen,
            ]
        );
    }

    #[test]
    fn tokenizes_connectives_in_all_spellings() {
        for text in [
            "a(X) and b(Y) or c(Z)",
            "a(X) & b(Y) | c(Z)",
            "a(X) && b(Y) || c(Z)",
            "a(X) ∧ b(Y) ∨ c(Z)",
        ] {
            let tokens = tokenize(text).unwrap();
            assert!(tokens.contains(&Token::And), "{text}");
            assert!(tokens.contains(&Token::Or), "{text}");
        }
    }

    #[test]
    fn tokenizes_literals() {
        let tokens =
            tokenize("eq(X, 42) and eq(Y, -7) and eq(Z, \"hello\") and eq(W, 'hi')").unwrap();
        assert!(tokens.contains(&Token::Int(42)));
        assert!(tokens.contains(&Token::Int(-7)));
        assert!(tokens.contains(&Token::Str("hello".into())));
        assert!(tokens.contains(&Token::Str("hi".into())));
    }

    #[test]
    fn tokenizes_version_arithmetic() {
        let tokens = tokenize("nextVersion(CV + 1)").unwrap();
        assert_eq!(
            tokens,
            vec![
                Token::Ident("nextVersion".into()),
                Token::LParen,
                Token::Variable("CV".into()),
                Token::Plus,
                Token::Int(1),
                Token::RParen,
            ]
        );
    }

    #[test]
    fn skips_comments_and_whitespace() {
        let tokens = tokenize("% a comment line\nread :- eq(1, 1) # trailing\n").unwrap();
        assert_eq!(tokens[0], Token::Ident("read".into()));
        assert_eq!(tokens.len(), 8);
    }

    #[test]
    fn rejects_bad_input() {
        assert!(tokenize("read : eq(1,1)").is_err());
        assert!(tokenize("eq(\"unterminated)").is_err());
        assert!(tokenize("eq(1, 2) @").is_err());
    }

    #[test]
    fn variables_versus_identifiers() {
        let tokens = tokenize("objId(THIS, o)").unwrap();
        assert_eq!(tokens[2], Token::Variable("THIS".into()));
        assert_eq!(tokens[4], Token::Ident("o".into()));
    }

    #[test]
    fn spans_are_byte_ranges_of_the_source() {
        let source = "read :- eq(X, \"é\") ∧ ge(N, -12) % done";
        let spanned = tokenize_spanned(source).unwrap();
        let text: Vec<_> = spanned
            .iter()
            .map(|(_, span)| &source[span.start..span.end])
            .collect();
        assert_eq!(
            text,
            [
                "read", ":-", "eq", "(", "X", ",", "\"é\"", ")", "∧", "ge", "(", "N", ",", "-12",
                ")"
            ]
        );
        assert_eq!(
            tokenize("a(X) &&& b(Y)")
                .unwrap()
                .iter()
                .filter(|t| **t == Token::And)
                .count(),
            2
        );
        assert!(matches!(
            tokenize("eq(1, 2) @"),
            Err(PolicyError::LexError { position: 9, .. })
        ));
    }
}
