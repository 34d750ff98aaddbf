//! Value types of the policy language.
//!
//! The language supports five value types (paper §3.3): integers, strings,
//! hashes, public keys and tuples. `Null` is added to represent "no such
//! object" so that policies like the versioned store's
//! `objId(this, NULL) ∧ nextVersion(0)` can express object creation.

use std::fmt;

/// A tuple value: a name and arguments, e.g. `write("obj", 3, "alice")`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Tuple {
    /// Tuple name.
    pub name: String,
    /// Tuple arguments.
    pub args: Vec<Value>,
}

impl Tuple {
    /// Creates a tuple.
    pub fn new(name: impl Into<String>, args: Vec<Value>) -> Self {
        Tuple {
            name: name.into(),
            args,
        }
    }

    /// Parses a tuple from its textual form `name(arg, arg, ...)`.
    ///
    /// Arguments are parsed as integers when possible and strings otherwise;
    /// nested tuples are not supported in the textual form. This is the
    /// format Pesos expects for the content of `objSays` log objects; the
    /// grammar itself is [`TupleText`]'s, this only copies what it found.
    pub fn parse(text: &str) -> Option<Tuple> {
        let text = TupleText::parse(text)?;
        Some(Tuple::new(
            text.name,
            text.args().map(ValueRef::to_value).collect(),
        ))
    }

    /// Renders the tuple in the textual log format accepted by
    /// [`Tuple::parse`].
    pub fn render(&self) -> String {
        let args: Vec<String> = self
            .args
            .iter()
            .map(|a| match a {
                Value::Int(i) => i.to_string(),
                Value::Str(s) => format!("\"{s}\""),
                Value::Hash(h) => format!("\"{}\"", pesos_crypto::hex_encode(h)),
                Value::PubKey(k) => format!("\"{k}\""),
                Value::Null => "null".to_string(),
                Value::Tuple(t) => t.render(),
            })
            .collect();
        format!("{}({})", self.name, args.join(","))
    }
}

/// One line of a log object, split in place: the tuple's name and its
/// argument list as slices of the line. `objSays` compares a pattern against
/// this without building a [`Tuple`]; nothing is allocated until a value is
/// captured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TupleText<'a> {
    /// Tuple name.
    pub name: &'a str,
    /// The text between the outermost parentheses.
    inner: &'a str,
}

impl<'a> TupleText<'a> {
    /// Splits `name(arg, arg, ...)`; `None` for a line that is not a tuple.
    pub fn parse(line: &'a str) -> Option<Self> {
        let (name, rest) = cut(trim(line), b'(')?;
        let inner = rest.strip_suffix(')')?;
        let name = trim(name);
        (!name.is_empty()).then_some(TupleText { name, inner })
    }

    /// The text of each argument, untrimmed.
    fn fields(&self) -> Fields<'a> {
        Fields((!trim(self.inner).is_empty()).then_some(self.inner))
    }

    /// Number of arguments.
    pub fn arity(&self) -> usize {
        match trim(self.inner) {
            "" => 0,
            inner => 1 + inner.bytes().filter(|b| *b == b',').count(),
        }
    }

    /// The arguments in order: a quoted field is a string, a field that
    /// reads as an integer is one, anything else is a string as written.
    pub fn args(&self) -> impl Iterator<Item = ValueRef<'a>> {
        self.fields().map(|field| {
            let field = trim(field);
            let unquoted = field
                .strip_prefix('"')
                .and_then(|s| s.strip_suffix('"'))
                .or_else(|| field.strip_prefix('\'').and_then(|s| s.strip_suffix('\'')));
            match unquoted {
                Some(text) => ValueRef::Str(text),
                None => field.parse().map_or(ValueRef::Str(field), ValueRef::Int),
            }
        })
    }
}

/// [`str::trim`], which walks in from both ends by character; nearly every
/// line, name and field this sees has nothing to trim, and two byte tests
/// tell.
fn trim(text: &str) -> &str {
    let bytes = text.as_bytes();
    match (bytes.first(), bytes.last()) {
        (Some(first), Some(last)) if first.is_ascii_graphic() && last.is_ascii_graphic() => text,
        _ => text.trim(),
    }
}

/// `text` before and after the first `at` (an ASCII byte, so both cuts fall
/// on character boundaries). The lines this runs over are a few dozen bytes:
/// a plain byte loop, not a searcher set up per call.
fn cut(text: &str, at: u8) -> Option<(&str, &str)> {
    let index = text.bytes().position(|b| b == at)?;
    Some((text.get(..index)?, text.get(index + 1..)?))
}

/// The comma-separated fields of a tuple's argument text.
struct Fields<'a>(Option<&'a str>);

impl<'a> Iterator for Fields<'a> {
    type Item = &'a str;

    fn next(&mut self) -> Option<&'a str> {
        let rest = self.0?;
        let (field, rest) = match cut(rest, b',') {
            Some((field, rest)) => (field, Some(rest)),
            None => (rest, None),
        };
        self.0 = rest;
        Some(field)
    }
}

/// A policy-language value.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Value {
    /// A 64-bit signed integer.
    Int(i64),
    /// A string.
    Str(String),
    /// A 32-byte hash.
    Hash(Vec<u8>),
    /// A public key, stored as its hex fingerprint.
    PubKey(String),
    /// A tuple.
    Tuple(Box<Tuple>),
    /// The absent value (e.g. `objId` of a non-existent object).
    Null,
}

impl Value {
    /// A borrowed view of the value.
    pub fn as_ref(&self) -> ValueRef<'_> {
        match self {
            Value::Int(i) => ValueRef::Int(*i),
            Value::Str(s) => ValueRef::Str(s),
            Value::Hash(h) => ValueRef::Hash(h),
            Value::PubKey(k) => ValueRef::PubKey(k),
            Value::Tuple(t) => ValueRef::Tuple(t),
            Value::Null => ValueRef::Null,
        }
    }

    /// Attempts to view the value as an integer, coercing numeric strings.
    pub fn as_int(&self) -> Option<i64> {
        self.as_ref().as_int()
    }

    /// Attempts to view the value as a string slice (strings and keys).
    pub fn as_str(&self) -> Option<&str> {
        self.as_ref().as_str()
    }

    /// True if this is [`Value::Null`].
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Loose equality used by unification; see [`ValueRef::loosely_equals`].
    pub fn loosely_equals(&self, other: &Value) -> bool {
        self.as_ref().loosely_equals(other.as_ref())
    }
}

/// A [`Value`] that borrows its text and bytes: what the evaluator compares
/// and keeps in its binding slots, so a session key, an object key, a policy
/// literal or a field of a log line is looked at where it already lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValueRef<'a> {
    /// A 64-bit signed integer.
    Int(i64),
    /// A string.
    Str(&'a str),
    /// A hash.
    Hash(&'a [u8]),
    /// A public key, as its hex fingerprint.
    PubKey(&'a str),
    /// A tuple.
    Tuple(&'a Tuple),
    /// The absent value.
    Null,
}

impl<'a> ValueRef<'a> {
    /// An owned copy.
    pub fn to_value(self) -> Value {
        match self {
            ValueRef::Int(i) => Value::Int(i),
            ValueRef::Str(s) => Value::Str(s.to_string()),
            ValueRef::Hash(h) => Value::Hash(h.to_vec()),
            ValueRef::PubKey(k) => Value::PubKey(k.to_string()),
            ValueRef::Tuple(t) => Value::Tuple(Box::new(t.clone())),
            ValueRef::Null => Value::Null,
        }
    }

    /// Attempts to view the value as an integer, coercing numeric strings.
    pub fn as_int(self) -> Option<i64> {
        match self {
            ValueRef::Int(i) => Some(i),
            ValueRef::Str(s) => s.trim().parse().ok(),
            _ => None,
        }
    }

    /// Attempts to view the value as a string slice (strings and keys).
    pub fn as_str(self) -> Option<&'a str> {
        match self {
            ValueRef::Str(s) | ValueRef::PubKey(s) => Some(s),
            _ => None,
        }
    }

    /// Loose equality used by unification: integers compare with numeric
    /// strings, public keys compare with equal strings, a hash compares
    /// with its lowercase hex spelling, everything else requires identical
    /// variants.
    pub fn loosely_equals(self, other: ValueRef<'_>) -> bool {
        if self == other {
            return true;
        }
        match (self, other) {
            (ValueRef::Int(_), ValueRef::Str(_)) | (ValueRef::Str(_), ValueRef::Int(_)) => {
                matches!((self.as_int(), other.as_int()), (Some(a), Some(b)) if a == b)
            }
            (ValueRef::PubKey(a), ValueRef::Str(b)) | (ValueRef::Str(b), ValueRef::PubKey(a)) => {
                a == b
            }
            (ValueRef::Hash(h), ValueRef::Str(s)) | (ValueRef::Str(s), ValueRef::Hash(h)) => {
                is_hex_of(s, h)
            }
            _ => false,
        }
    }
}

/// Whether `text` is the lowercase hex spelling of `bytes`, compared in
/// place.
fn is_hex_of(text: &str, bytes: &[u8]) -> bool {
    let nibbles = bytes.iter().flat_map(|b| [b >> 4, b & 0x0f]);
    text.len() == bytes.len() * 2
        && text
            .chars()
            .zip(nibbles)
            .all(|(c, nibble)| char::from_digit(nibble.into(), 16) == Some(c))
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(i) => write!(f, "{i}"),
            Value::Str(s) => write!(f, "\"{s}\""),
            Value::Hash(h) => write!(f, "#{}", pesos_crypto::hex_encode(h)),
            Value::PubKey(k) => write!(f, "key:{k}"),
            Value::Tuple(t) => write!(f, "{}", t.render()),
            Value::Null => write!(f, "null"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tuple_parse_and_render_round_trip() {
        let t = Tuple::new(
            "write",
            vec![
                Value::Str("obj-1".into()),
                Value::Int(4),
                Value::Str("alice".into()),
            ],
        );
        let rendered = t.render();
        assert_eq!(rendered, "write(\"obj-1\",4,\"alice\")");
        assert_eq!(Tuple::parse(&rendered).unwrap(), t);
    }

    #[test]
    fn tuple_parse_plain_and_quoted() {
        let t = Tuple::parse("read(obj, 3, 'bob')").unwrap();
        assert_eq!(t.name, "read");
        assert_eq!(t.args[0], Value::Str("obj".into()));
        assert_eq!(t.args[1], Value::Int(3));
        assert_eq!(t.args[2], Value::Str("bob".into()));
        assert_eq!(Tuple::parse("empty()").unwrap().args.len(), 0);
    }

    #[test]
    fn tuple_parse_rejects_garbage() {
        assert!(Tuple::parse("no-parens").is_none());
        assert!(Tuple::parse("(just args)").is_none());
        assert!(Tuple::parse("unterminated(1,2").is_none());
    }

    #[test]
    fn int_coercion() {
        assert_eq!(Value::Str(" 42 ".into()).as_int(), Some(42));
        assert_eq!(Value::Int(7).as_int(), Some(7));
        assert_eq!(Value::Str("abc".into()).as_int(), None);
        assert_eq!(Value::Null.as_int(), None);
    }

    #[test]
    fn loose_equality() {
        assert!(Value::Int(5).loosely_equals(&Value::Str("5".into())));
        assert!(!Value::Int(5).loosely_equals(&Value::Str("6".into())));
        assert!(Value::PubKey("abcd".into()).loosely_equals(&Value::Str("abcd".into())));
        assert!(Value::Hash(vec![0xab, 0xcd]).loosely_equals(&Value::Str("abcd".into())));
        assert!(!Value::Null.loosely_equals(&Value::Int(0)));
        assert!(Value::Null.loosely_equals(&Value::Null));
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::Int(3).to_string(), "3");
        assert_eq!(Value::Str("x".into()).to_string(), "\"x\"");
        assert_eq!(Value::Null.to_string(), "null");
        assert!(Value::Hash(vec![1, 2]).to_string().starts_with('#'));
    }

    #[test]
    fn tuple_text_splits_a_line_in_place() {
        let line = "  write ( \"obj-1\" , 4, 'al,ice', plain , -7 )  ";
        let text = TupleText::parse(line).unwrap();
        assert_eq!(text.name, "write");
        // The split is on every comma, quoted or not, as it always was.
        assert_eq!(text.arity(), 6);
        let args: Vec<_> = text.args().collect();
        assert_eq!(
            args,
            vec![
                ValueRef::Str("obj-1"),
                ValueRef::Int(4),
                ValueRef::Str("'al"),
                ValueRef::Str("ice'"),
                ValueRef::Str("plain"),
                ValueRef::Int(-7),
            ]
        );
        // Every string borrows from the line.
        let within = |s: &str| line.as_bytes().as_ptr_range().contains(&s.as_ptr());
        assert!(within(text.name));
        assert!(args.iter().filter_map(|a| a.as_str()).all(within));

        for (line, arity) in [
            ("empty()", 0),
            ("blank(  )", 0),
            ("one(,)", 2),
            ("t(\u{a0}x\u{a0})", 1),
        ] {
            let text = TupleText::parse(line).unwrap();
            assert_eq!(text.arity(), arity, "{line}");
            assert_eq!(text.args().count(), arity, "{line}");
        }
        assert_eq!(
            TupleText::parse("t(\u{a0}x\u{a0})").unwrap().args().next(),
            Some(ValueRef::Str("x"))
        );
        for garbage in ["", "no-parens", "(just args)", "open(1,2", ")(", "a)("] {
            assert_eq!(TupleText::parse(garbage), None, "{garbage:?}");
        }
    }

    #[test]
    fn borrowed_values_compare_like_owned_ones() {
        let values = [
            Value::Int(5),
            Value::Str("5".into()),
            Value::Str(" 5 ".into()),
            Value::Str("abcd".into()),
            Value::Str("ABCD".into()),
            Value::PubKey("abcd".into()),
            Value::Hash(vec![0xab, 0xcd]),
            Value::Hash(vec![]),
            Value::Str(String::new()),
            Value::Tuple(Box::new(Tuple::new("t", vec![Value::Int(5)]))),
            Value::Tuple(Box::new(Tuple::new("t", vec![Value::Str("5".into())]))),
            Value::Null,
        ];
        for a in &values {
            assert_eq!(a.as_ref().to_value(), *a);
            for b in &values {
                // A hash equals exactly its lowercase hex spelling.
                let expected = match (a, b) {
                    (Value::Hash(h), Value::Str(s)) | (Value::Str(s), Value::Hash(h)) => {
                        pesos_crypto::hex_encode(h) == *s
                    }
                    _ => a.loosely_equals(b),
                };
                assert_eq!(a.as_ref().loosely_equals(b.as_ref()), expected, "{a} ~ {b}");
                assert_eq!(a.loosely_equals(b), b.loosely_equals(a), "{a} ~ {b}");
            }
        }
        assert!(Value::Hash(vec![0xab, 0xcd]).loosely_equals(&Value::Str("abcd".into())));
        assert!(!Value::Hash(vec![0xab, 0xcd]).loosely_equals(&Value::Str("ABCD".into())));
        assert!(Value::Hash(vec![]).loosely_equals(&Value::Str(String::new())));
    }
}
