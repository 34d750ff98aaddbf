//! Protobuf-compatible field encoding.
//!
//! The Kinetic drive protocol is defined as a Google Protocol Buffers schema
//! carried over a simple length-prefixed framing. This module implements the
//! subset of the protobuf wire format that the Kinetic substrate needs:
//! varints, 64-bit zigzag, length-delimited fields and field tags. Messages
//! are written with [`FieldWriter`] and read back with [`FieldReader`];
//! unknown fields are skipped, as the protobuf spec requires, which keeps the
//! codec forward compatible.

use crate::error::WireError;

/// Protobuf wire types (the subset we use).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireType {
    /// Varint-encoded integer.
    Varint = 0,
    /// 64-bit little-endian fixed integer.
    Fixed64 = 1,
    /// Length-delimited bytes / string / nested message.
    LengthDelimited = 2,
    /// 32-bit little-endian fixed integer.
    Fixed32 = 5,
}

impl WireType {
    /// Converts the low three bits of a tag into a wire type.
    pub fn from_bits(bits: u8) -> Result<Self, WireError> {
        match bits {
            0 => Ok(WireType::Varint),
            1 => Ok(WireType::Fixed64),
            2 => Ok(WireType::LengthDelimited),
            5 => Ok(WireType::Fixed32),
            other => Err(WireError::InvalidWireType(other)),
        }
    }
}

/// Encodes an unsigned integer as a protobuf varint, appending to `out`.
pub fn write_varint(out: &mut Vec<u8>, mut value: u64) {
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Decodes a varint from the front of `input`, returning the value and the
/// number of bytes consumed.
pub fn read_varint(input: &[u8]) -> Result<(u64, usize), WireError> {
    let mut value: u64 = 0;
    let mut shift = 0u32;
    for (i, &byte) in input.iter().enumerate() {
        if i >= 10 {
            return Err(WireError::VarintOverflow);
        }
        let part = (byte & 0x7f) as u64;
        value |= part.checked_shl(shift).ok_or(WireError::VarintOverflow)?;
        if byte & 0x80 == 0 {
            return Ok((value, i + 1));
        }
        shift += 7;
        if shift >= 64 {
            return Err(WireError::VarintOverflow);
        }
    }
    Err(WireError::UnexpectedEof)
}

/// The number of bytes [`write_varint`] spends on `value`.
pub fn varint_len(value: u64) -> usize {
    (64 - (value | 1).leading_zeros() as usize).div_ceil(7)
}

/// Zigzag-encodes a signed integer (protobuf `sint64`).
pub fn zigzag_encode(value: i64) -> u64 {
    ((value << 1) ^ (value >> 63)) as u64
}

/// Zigzag-decodes a `sint64`.
pub fn zigzag_decode(value: u64) -> i64 {
    ((value >> 1) as i64) ^ -((value & 1) as i64)
}

/// Serializes protobuf-style fields into a byte buffer.
#[derive(Default, Debug)]
pub struct FieldWriter {
    buf: Vec<u8>,
}

impl FieldWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        FieldWriter { buf: Vec::new() }
    }

    /// Creates a writer with pre-allocated capacity.
    pub fn with_capacity(cap: usize) -> Self {
        FieldWriter {
            buf: Vec::with_capacity(cap),
        }
    }

    fn tag(&mut self, field: u32, wire_type: WireType) {
        write_varint(&mut self.buf, ((field as u64) << 3) | wire_type as u64);
    }

    /// Writes a varint field.
    pub fn uint64(&mut self, field: u32, value: u64) -> &mut Self {
        self.tag(field, WireType::Varint);
        write_varint(&mut self.buf, value);
        self
    }

    /// Writes a signed (zigzag) field.
    pub fn sint64(&mut self, field: u32, value: i64) -> &mut Self {
        self.uint64(field, zigzag_encode(value));
        self
    }

    /// Writes a boolean field as a varint.
    pub fn boolean(&mut self, field: u32, value: bool) -> &mut Self {
        self.uint64(field, value as u64)
    }

    /// Writes a fixed 64-bit field.
    pub fn fixed64(&mut self, field: u32, value: u64) -> &mut Self {
        self.tag(field, WireType::Fixed64);
        self.buf.extend_from_slice(&value.to_le_bytes());
        self
    }

    /// Writes a fixed 32-bit field.
    pub fn fixed32(&mut self, field: u32, value: u32) -> &mut Self {
        self.tag(field, WireType::Fixed32);
        self.buf.extend_from_slice(&value.to_le_bytes());
        self
    }

    /// Writes a length-delimited bytes field.
    pub fn bytes(&mut self, field: u32, value: &[u8]) -> &mut Self {
        self.tag(field, WireType::LengthDelimited);
        write_varint(&mut self.buf, value.len() as u64);
        self.buf.extend_from_slice(value);
        self
    }

    /// Writes a length-delimited bytes field gathered from several parts.
    ///
    /// The encoding is identical to [`FieldWriter::bytes`] over the
    /// concatenation of `parts`, but the caller never has to materialize
    /// that concatenation: each part is copied straight into the output
    /// buffer. This is the scatter-gather primitive the vectored Kinetic
    /// frame writer uses to keep the payload out of intermediate buffers.
    pub fn bytes_from_parts(&mut self, field: u32, parts: &[&[u8]]) -> &mut Self {
        self.tag(field, WireType::LengthDelimited);
        let total: usize = parts.iter().map(|p| p.len()).sum();
        write_varint(&mut self.buf, total as u64);
        self.buf.reserve(total);
        for part in parts {
            self.buf.extend_from_slice(part);
        }
        self
    }

    /// Writes a length-delimited string field.
    pub fn string(&mut self, field: u32, value: &str) -> &mut Self {
        self.bytes(field, value.as_bytes())
    }

    /// Writes a nested message field.
    pub fn message(&mut self, field: u32, inner: &FieldWriter) -> &mut Self {
        self.bytes(field, &inner.buf)
    }

    /// Writes a nested message field of `len` bytes in place: `write`
    /// appends the inner fields straight to this writer's buffer, so the
    /// encoding equals [`FieldWriter::message`]'s without building the
    /// inner message in a writer of its own. `len` must be exactly what
    /// `write` appends: a wrong length would be stored as a message that
    /// decodes as something else, so a mismatch is a bug and panics.
    pub fn message_in_place(
        &mut self,
        field: u32,
        len: usize,
        write: impl FnOnce(&mut Self),
    ) -> &mut Self {
        self.tag(field, WireType::LengthDelimited);
        write_varint(&mut self.buf, len as u64);
        let start = self.buf.len();
        write(self);
        assert_eq!(self.buf.len() - start, len, "nested length mismatch");
        self
    }

    /// Consumes the writer and returns the encoded bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Current encoded length.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Borrows the encoded bytes without consuming the writer.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }
}

/// A decoded field: number, wire type and raw payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Field<'a> {
    /// The field number.
    pub number: u32,
    /// The wire type.
    pub wire_type: WireType,
    /// Varint or fixed value (zero for length-delimited fields).
    pub value: u64,
    /// Payload for length-delimited fields (empty otherwise).
    pub data: &'a [u8],
}

impl<'a> Field<'a> {
    /// Interprets the field as a UTF-8 string.
    pub fn as_str(&self) -> Result<&'a str, WireError> {
        std::str::from_utf8(self.data).map_err(|_| WireError::InvalidUtf8)
    }

    /// Interprets the field as a zigzag-encoded signed integer.
    pub fn as_sint64(&self) -> i64 {
        zigzag_decode(self.value)
    }

    /// Interprets the field as a boolean.
    pub fn as_bool(&self) -> bool {
        self.value != 0
    }
}

/// Iterates over the fields of an encoded message.
#[derive(Debug, Clone)]
pub struct FieldReader<'a> {
    input: &'a [u8],
    offset: usize,
}

impl<'a> FieldReader<'a> {
    /// Creates a reader over `input`.
    pub fn new(input: &'a [u8]) -> Self {
        FieldReader { input, offset: 0 }
    }

    /// True if all input has been consumed.
    pub fn is_done(&self) -> bool {
        self.offset >= self.input.len()
    }

    /// Reads the next field, or `Ok(None)` at end of input.
    pub fn next_field(&mut self) -> Result<Option<Field<'a>>, WireError> {
        if self.is_done() {
            return Ok(None);
        }
        let (tag, n) = read_varint(&self.input[self.offset..])?;
        self.offset += n;
        let number = (tag >> 3) as u32;
        let wire_type = WireType::from_bits((tag & 0x7) as u8)?;
        match wire_type {
            WireType::Varint => {
                let (value, n) = read_varint(&self.input[self.offset..])?;
                self.offset += n;
                Ok(Some(Field {
                    number,
                    wire_type,
                    value,
                    data: &[],
                }))
            }
            WireType::Fixed64 => {
                let remaining = &self.input[self.offset..];
                if remaining.len() < 8 {
                    return Err(WireError::UnexpectedEof);
                }
                let mut b = [0u8; 8];
                b.copy_from_slice(&remaining[..8]);
                self.offset += 8;
                Ok(Some(Field {
                    number,
                    wire_type,
                    value: u64::from_le_bytes(b),
                    data: &[],
                }))
            }
            WireType::Fixed32 => {
                let remaining = &self.input[self.offset..];
                if remaining.len() < 4 {
                    return Err(WireError::UnexpectedEof);
                }
                let mut b = [0u8; 4];
                b.copy_from_slice(&remaining[..4]);
                self.offset += 4;
                Ok(Some(Field {
                    number,
                    wire_type,
                    value: u32::from_le_bytes(b) as u64,
                    data: &[],
                }))
            }
            WireType::LengthDelimited => {
                let (len, n) = read_varint(&self.input[self.offset..])?;
                self.offset += n;
                let remaining = self.input.len() - self.offset;
                if len as usize > remaining {
                    return Err(WireError::LengthOutOfBounds {
                        length: len,
                        remaining,
                    });
                }
                let data = &self.input[self.offset..self.offset + len as usize];
                self.offset += len as usize;
                Ok(Some(Field {
                    number,
                    wire_type,
                    value: 0,
                    data,
                }))
            }
        }
    }

    /// Collects all fields into a vector (convenience for small messages).
    pub fn collect_fields(self) -> Result<Vec<Field<'a>>, WireError> {
        self.collect()
    }
}

/// The fields in order, then `None`; a malformed field is yielded as the
/// last item, as an error.
impl<'a> Iterator for FieldReader<'a> {
    type Item = Result<Field<'a>, WireError>;

    fn next(&mut self) -> Option<Self::Item> {
        let next = self.next_field().transpose();
        if matches!(next, Some(Err(_))) {
            self.offset = self.input.len();
        }
        next
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_round_trip() {
        for v in [
            0u64,
            1,
            127,
            128,
            300,
            16383,
            16384,
            u32::MAX as u64,
            u64::MAX,
        ] {
            let mut buf = Vec::new();
            write_varint(&mut buf, v);
            let (decoded, n) = read_varint(&buf).unwrap();
            assert_eq!(decoded, v);
            assert_eq!(n, buf.len());
        }
    }

    #[test]
    fn varint_known_encodings() {
        let mut buf = Vec::new();
        write_varint(&mut buf, 300);
        assert_eq!(buf, vec![0xac, 0x02]);
    }

    #[test]
    fn varint_overflow_rejected() {
        let buf = vec![0xff; 11];
        assert!(read_varint(&buf).is_err());
    }

    #[test]
    fn varint_truncated_rejected() {
        assert_eq!(read_varint(&[0x80]), Err(WireError::UnexpectedEof));
        assert_eq!(read_varint(&[]), Err(WireError::UnexpectedEof));
    }

    #[test]
    fn zigzag_round_trip() {
        for v in [0i64, -1, 1, -2, 2, i64::MAX, i64::MIN, -123456789] {
            assert_eq!(zigzag_decode(zigzag_encode(v)), v);
        }
        assert_eq!(zigzag_encode(-1), 1);
        assert_eq!(zigzag_encode(1), 2);
    }

    #[test]
    fn field_round_trip() {
        let mut w = FieldWriter::new();
        w.uint64(1, 42)
            .string(2, "hello")
            .bytes(3, &[1, 2, 3])
            .sint64(4, -77)
            .fixed64(5, 0xdead_beef)
            .fixed32(6, 99)
            .boolean(7, true);
        let encoded = w.finish();

        let fields = FieldReader::new(&encoded).collect_fields().unwrap();
        assert_eq!(fields.len(), 7);
        assert_eq!(fields[0].number, 1);
        assert_eq!(fields[0].value, 42);
        assert_eq!(fields[1].as_str().unwrap(), "hello");
        assert_eq!(fields[2].data, &[1, 2, 3]);
        assert_eq!(fields[3].as_sint64(), -77);
        assert_eq!(fields[4].value, 0xdead_beef);
        assert_eq!(fields[5].value, 99);
        assert!(fields[6].as_bool());
    }

    #[test]
    fn bytes_from_parts_matches_contiguous_bytes() {
        for parts in [
            vec![&b"abc"[..], &b"defgh"[..], &b""[..]],
            vec![&b""[..]],
            vec![&b""[..], &b""[..], &b""[..]],
            vec![&b"one contiguous run of payload bytes"[..]],
        ] {
            let joined: Vec<u8> = parts.concat();
            let mut gathered = FieldWriter::new();
            gathered
                .uint64(1, 7)
                .bytes_from_parts(2, &parts)
                .uint64(3, 9);
            let mut contiguous = FieldWriter::new();
            contiguous.uint64(1, 7).bytes(2, &joined).uint64(3, 9);
            assert_eq!(gathered.finish(), contiguous.finish(), "{parts:?}");
        }
    }

    #[test]
    fn nested_message_round_trip() {
        let mut inner = FieldWriter::new();
        inner.string(1, "nested").uint64(2, 7);
        let mut outer = FieldWriter::new();
        outer.message(1, &inner).uint64(2, 10);
        let encoded = outer.finish();

        let fields = FieldReader::new(&encoded).collect_fields().unwrap();
        assert_eq!(fields.len(), 2);
        let inner_fields = FieldReader::new(fields[0].data).collect_fields().unwrap();
        assert_eq!(inner_fields[0].as_str().unwrap(), "nested");
        assert_eq!(inner_fields[1].value, 7);
    }

    #[test]
    fn varint_len_matches_the_encoding() {
        for shift in 0..64 {
            for v in [(1u64 << shift) - 1, 1u64 << shift, (1u64 << shift) + 1] {
                let mut buf = Vec::new();
                write_varint(&mut buf, v);
                assert_eq!(varint_len(v), buf.len(), "{v}");
            }
        }
        assert_eq!(varint_len(u64::MAX), 10);
    }

    #[test]
    fn message_in_place_matches_a_nested_writer() {
        let mut inner = FieldWriter::new();
        inner.string(1, "nested").uint64(2, 300);
        let mut nested = FieldWriter::new();
        nested.message(4, &inner).uint64(5, 1);
        let mut in_place = FieldWriter::new();
        in_place
            .message_in_place(4, inner.len(), |w| {
                w.string(1, "nested").uint64(2, 300);
            })
            .uint64(5, 1);
        assert_eq!(in_place.finish(), nested.finish());
    }

    #[test]
    fn reader_iterates_and_stops_after_an_error() {
        let mut w = FieldWriter::new();
        w.uint64(1, 7).bytes(2, &[1, 2, 3]);
        let mut encoded = w.finish();
        encoded.push(0x0b); // wire type 3
        encoded.push(0x08);
        let items: Vec<_> = FieldReader::new(&encoded).collect();
        assert_eq!(items.len(), 3);
        assert_eq!(items[1].as_ref().unwrap().data, &[1, 2, 3]);
        assert_eq!(items[2], Err(WireError::InvalidWireType(3)));
    }

    #[test]
    fn truncated_length_delimited_rejected() {
        let mut w = FieldWriter::new();
        w.bytes(1, &[1, 2, 3, 4, 5]);
        let mut encoded = w.finish();
        encoded.truncate(encoded.len() - 2);
        let mut r = FieldReader::new(&encoded);
        assert!(matches!(
            r.next_field(),
            Err(WireError::LengthOutOfBounds { .. })
        ));
    }

    #[test]
    fn invalid_wire_type_rejected() {
        // Tag with wire type 3 (start group, unsupported).
        let encoded = vec![0x0b];
        let mut r = FieldReader::new(&encoded);
        assert_eq!(r.next_field(), Err(WireError::InvalidWireType(3)));
    }
}
