//! Typed, tag-checked Binder parcels.
//!
//! Real parcels are raw byte streams; reading with the wrong type silently
//! misinterprets data. We keep a per-value type tag so that marshaling
//! mismatches — the bread and butter of HAL fuzzing — surface as explicit
//! [`ReadParcelError`]s rather than undefined behaviour, while the wire
//! *shape* (ordered, positional values) matches Binder.

use std::fmt;

/// Type tag of one parcel slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ValueKind {
    /// 32-bit signed integer.
    I32,
    /// 64-bit signed integer.
    I64,
    /// UTF-16 string (stored as UTF-8 here).
    String16,
    /// Raw byte blob.
    Blob,
    /// File-descriptor token.
    FileDescriptor,
}

impl fmt::Display for ValueKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ValueKind::I32 => "i32",
            ValueKind::I64 => "i64",
            ValueKind::String16 => "string16",
            ValueKind::Blob => "blob",
            ValueKind::FileDescriptor => "fd",
        };
        f.write_str(s)
    }
}

/// One parcel slot. Strings and blobs are byte ranges into the parcel's
/// text and byte arenas, so writing one copies into storage the parcel
/// keeps across [`Parcel::clear`] instead of allocating per value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Value {
    I32(i32),
    I64(i64),
    String16(u32, u32),
    Blob(u32, u32),
    FileDescriptor(u32),
}

impl Value {
    fn kind(&self) -> ValueKind {
        match self {
            Value::I32(_) => ValueKind::I32,
            Value::I64(_) => ValueKind::I64,
            Value::String16(..) => ValueKind::String16,
            Value::Blob(..) => ValueKind::Blob,
            Value::FileDescriptor(_) => ValueKind::FileDescriptor,
        }
    }
}

/// Error reading from a parcel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadParcelError {
    /// Read past the last value.
    UnexpectedEnd,
    /// Value at the cursor has a different type.
    TypeMismatch {
        /// Type the reader asked for.
        expected: ValueKind,
        /// Type actually stored.
        found: ValueKind,
    },
}

impl fmt::Display for ReadParcelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReadParcelError::UnexpectedEnd => f.write_str(UNEXPECTED_END),
            ReadParcelError::TypeMismatch { expected, found } => {
                write!(f, "parcel type mismatch: expected {expected}, found {found}")
            }
        }
    }
}

impl std::error::Error for ReadParcelError {}

const UNEXPECTED_END: &str = "unexpected end of parcel";

impl ReadParcelError {
    /// The error's display text, borrowed when it is static.
    pub(crate) fn text(self) -> std::borrow::Cow<'static, str> {
        match self {
            ReadParcelError::UnexpectedEnd => UNEXPECTED_END.into(),
            mismatch => mismatch.to_string().into(),
        }
    }
}

/// An ordered sequence of typed values exchanged over a Binder transaction.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Parcel {
    values: Vec<Value>,
    text: String,
    bytes: Vec<u8>,
}

/// Narrows an arena range to the `u32` pair a string or blob slot stores.
fn span(start: usize, end: usize) -> (u32, u32) {
    let narrow = |n: usize| u32::try_from(n).expect("parcel arena exceeds 4 GiB");
    (narrow(start), narrow(end))
}

impl Parcel {
    /// Creates an empty parcel.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a 32-bit integer.
    pub fn write_i32(&mut self, v: i32) -> &mut Self {
        self.values.push(Value::I32(v));
        self
    }

    /// Appends a 64-bit integer.
    pub fn write_i64(&mut self, v: i64) -> &mut Self {
        self.values.push(Value::I64(v));
        self
    }

    /// Appends a string.
    pub fn write_string16(&mut self, v: impl AsRef<str>) -> &mut Self {
        let start = self.text.len();
        self.text.push_str(v.as_ref());
        let (start, end) = span(start, self.text.len());
        self.values.push(Value::String16(start, end));
        self
    }

    /// Appends a byte blob.
    pub fn write_blob(&mut self, v: impl AsRef<[u8]>) -> &mut Self {
        let start = self.bytes.len();
        self.bytes.extend_from_slice(v.as_ref());
        let (start, end) = span(start, self.bytes.len());
        self.values.push(Value::Blob(start, end));
        self
    }

    /// Removes every value, keeping the parcel's storage for reuse.
    pub fn clear(&mut self) {
        self.values.clear();
        self.text.clear();
        self.bytes.clear();
    }

    /// Appends a file-descriptor token.
    pub fn write_fd(&mut self, raw: u32) -> &mut Self {
        self.values.push(Value::FileDescriptor(raw));
        self
    }

    /// Number of values in the parcel.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the parcel holds no values.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Type tags of the values, in order (the marshaling *shape*).
    pub fn shape(&self) -> Vec<ValueKind> {
        self.values.iter().map(Value::kind).collect()
    }

    /// Approximate serialized size in bytes, as libbinder would count it.
    pub fn wire_size(&self) -> usize {
        self.values
            .iter()
            .map(|v| match v {
                Value::I32(_) | Value::FileDescriptor(_) => 4,
                Value::I64(_) => 8,
                Value::String16(start, end) => 4 + (end - start) as usize * 2,
                Value::Blob(start, end) => 4 + (end - start) as usize,
            })
            .sum()
    }

    /// Starts reading the parcel from the beginning.
    pub fn reader(&self) -> ParcelReader<'_> {
        ParcelReader { parcel: self, pos: 0 }
    }
}

/// Cursor over a [`Parcel`]'s values.
#[derive(Debug, Clone)]
pub struct ParcelReader<'a> {
    parcel: &'a Parcel,
    pos: usize,
}

impl<'a> ParcelReader<'a> {
    fn next(&mut self, expected: ValueKind) -> Result<Value, ReadParcelError> {
        let value = *self
            .parcel
            .values
            .get(self.pos)
            .ok_or(ReadParcelError::UnexpectedEnd)?;
        if value.kind() != expected {
            return Err(ReadParcelError::TypeMismatch { expected, found: value.kind() });
        }
        self.pos += 1;
        Ok(value)
    }

    /// Reads a 32-bit integer.
    ///
    /// # Errors
    ///
    /// [`ReadParcelError`] on end-of-parcel or type mismatch; the cursor
    /// does not advance on error.
    pub fn read_i32(&mut self) -> Result<i32, ReadParcelError> {
        match self.next(ValueKind::I32)? {
            Value::I32(v) => Ok(v),
            _ => unreachable!("tag checked"),
        }
    }

    /// Reads a 64-bit integer.
    ///
    /// # Errors
    ///
    /// See [`read_i32`](Self::read_i32).
    pub fn read_i64(&mut self) -> Result<i64, ReadParcelError> {
        match self.next(ValueKind::I64)? {
            Value::I64(v) => Ok(v),
            _ => unreachable!("tag checked"),
        }
    }

    /// Reads a string.
    ///
    /// # Errors
    ///
    /// See [`read_i32`](Self::read_i32).
    pub fn read_string16(&mut self) -> Result<&'a str, ReadParcelError> {
        match self.next(ValueKind::String16)? {
            Value::String16(start, end) => Ok(&self.parcel.text[start as usize..end as usize]),
            _ => unreachable!("tag checked"),
        }
    }

    /// Reads a byte blob.
    ///
    /// # Errors
    ///
    /// See [`read_i32`](Self::read_i32).
    pub fn read_blob(&mut self) -> Result<&'a [u8], ReadParcelError> {
        match self.next(ValueKind::Blob)? {
            Value::Blob(start, end) => Ok(&self.parcel.bytes[start as usize..end as usize]),
            _ => unreachable!("tag checked"),
        }
    }

    /// Reads a file-descriptor token.
    ///
    /// # Errors
    ///
    /// See [`read_i32`](Self::read_i32).
    pub fn read_fd(&mut self) -> Result<u32, ReadParcelError> {
        match self.next(ValueKind::FileDescriptor)? {
            Value::FileDescriptor(v) => Ok(v),
            _ => unreachable!("tag checked"),
        }
    }

    /// Values remaining to read.
    pub fn remaining(&self) -> usize {
        self.parcel.values.len() - self.pos
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_kinds() {
        let mut p = Parcel::new();
        p.write_i32(-7)
            .write_i64(1 << 40)
            .write_string16("camera")
            .write_blob(vec![1, 2, 3])
            .write_fd(42);
        let mut r = p.reader();
        assert_eq!(r.read_i32().unwrap(), -7);
        assert_eq!(r.read_i64().unwrap(), 1 << 40);
        assert_eq!(r.read_string16().unwrap(), "camera");
        assert_eq!(r.read_blob().unwrap(), &[1, 2, 3]);
        assert_eq!(r.read_fd().unwrap(), 42);
        assert_eq!(r.remaining(), 0);
        assert_eq!(r.read_i32().unwrap_err(), ReadParcelError::UnexpectedEnd);
    }

    #[test]
    fn type_mismatch_reports_both_kinds_and_does_not_advance() {
        let mut p = Parcel::new();
        p.write_string16("x");
        let mut r = p.reader();
        assert_eq!(
            r.read_i32().unwrap_err(),
            ReadParcelError::TypeMismatch {
                expected: ValueKind::I32,
                found: ValueKind::String16
            }
        );
        // Cursor did not move; the value is still readable.
        assert_eq!(r.read_string16().unwrap(), "x");
    }

    #[test]
    fn shape_reflects_write_order() {
        let mut p = Parcel::new();
        p.write_i32(1).write_blob(vec![]).write_i32(2);
        assert_eq!(
            p.shape(),
            vec![ValueKind::I32, ValueKind::Blob, ValueKind::I32]
        );
    }

    #[test]
    fn wire_size_counts_payloads() {
        let mut p = Parcel::new();
        p.write_i32(1).write_string16("ab").write_blob(vec![0; 10]);
        assert_eq!(p.wire_size(), 4 + (4 + 4) + (4 + 10));
    }
}
