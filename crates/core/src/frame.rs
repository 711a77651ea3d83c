//! The record framing shared by the write-ahead journal and the wire:
//!
//! ```text
//! rec <seq> <len> <crc32 hex>
//! <len payload bytes>
//! ```
//!
//! Every frame carries its own CRC-32 ([`crc32`]) and ends in a newline,
//! so a captured net stream audits with the same machinery as a WAL.
//! What to do about a bad frame stays with the owner: the journal scan
//! keeps the longest valid prefix and checks sequence continuity, the
//! wire maps each [`FrameError`] to a typed `NetError` and leaves
//! duplicate and ordering policy to its session layer.

use crate::store::crc32;

/// Why the bytes at a frame position are not a valid frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The bytes end before the header line does.
    TruncatedHeader,
    /// The header line is not UTF-8.
    NonUtf8Header,
    /// The header line is not `rec <seq> <len> <crc32 hex>`.
    BadHeader(String),
    /// The declared payload length exceeds the caller's bound.
    Oversized(usize),
    /// The bytes end before the declared payload and its terminator.
    TruncatedPayload {
        /// Declared payload length.
        declared: usize,
        /// Bytes present after the header line.
        have: usize,
    },
    /// The payload failed its CRC-32 check.
    Crc {
        /// Checksum the header declared.
        expected: u32,
        /// Checksum of the payload as received.
        found: u32,
    },
    /// The payload is not followed by a newline.
    MissingTerminator,
}

/// One validated frame, borrowed from the bytes it was decoded from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Frame<'a> {
    /// Sequence number from the header (returned, not checked).
    pub seq: u64,
    /// The checksummed payload.
    pub payload: &'a [u8],
    /// Bytes the frame occupies, header and terminator included.
    pub len: usize,
}

/// Frames `payload` as record `seq`.
pub fn encode(seq: u64, payload: &[u8]) -> Vec<u8> {
    let mut frame = Vec::with_capacity(payload.len() + 32);
    encode_into(&mut frame, seq, payload);
    frame
}

/// Appends the frame of `payload` as record `seq` to `out`.
pub fn encode_into(out: &mut Vec<u8>, seq: u64, payload: &[u8]) {
    use std::io::Write;
    writeln!(out, "rec {seq} {} {:08x}", payload.len(), crc32(payload)).expect("write to Vec");
    out.extend_from_slice(payload);
    out.push(b'\n');
}

/// Parses a header line (without its newline) into `(seq, len, crc)`.
pub fn parse_header(line: &str) -> Option<(u64, usize, u32)> {
    let mut parts = line.split(' ');
    if parts.next() != Some("rec") {
        return None;
    }
    let seq = parts.next()?.parse().ok()?;
    let len = parts.next()?.parse().ok()?;
    let crc = u32::from_str_radix(parts.next()?, 16).ok()?;
    if parts.next().is_some() {
        return None;
    }
    Some((seq, len, crc))
}

/// Validates the frame at the start of `bytes`, refusing declared
/// payloads longer than `max_len` before looking at them.
pub fn decode(bytes: &[u8], max_len: usize) -> Result<Frame<'_>, FrameError> {
    let line_end =
        bytes.iter().position(|&b| b == b'\n').ok_or(FrameError::TruncatedHeader)?;
    let line = std::str::from_utf8(&bytes[..line_end]).map_err(|_| FrameError::NonUtf8Header)?;
    let (seq, len, crc) =
        parse_header(line).ok_or_else(|| FrameError::BadHeader(line.to_owned()))?;
    if len > max_len {
        return Err(FrameError::Oversized(len));
    }
    let payload_start = line_end + 1;
    let payload_end = payload_start
        .checked_add(len)
        .filter(|&end| end < bytes.len())
        .ok_or(FrameError::TruncatedPayload {
            declared: len,
            have: bytes.len() - payload_start,
        })?;
    let payload = &bytes[payload_start..payload_end];
    let found = crc32(payload);
    if found != crc {
        return Err(FrameError::Crc { expected: crc, found });
    }
    if bytes[payload_end] != b'\n' {
        return Err(FrameError::MissingTerminator);
    }
    Ok(Frame { seq, payload, len: payload_end + 1 })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn framed_record_bytes_are_pinned() {
        let frame = encode(7, b"learns 3");
        assert_eq!(frame, format!("rec 7 8 {:08x}\nlearns 3\n", crc32(b"learns 3")).as_bytes());
        assert_eq!(encode(0, b""), b"rec 0 0 00000000\n\n");
        let decoded = decode(&frame, usize::MAX).unwrap();
        assert_eq!((decoded.seq, decoded.payload, decoded.len), (7, &b"learns 3"[..], frame.len()));
    }

    #[test]
    fn each_defect_has_its_own_error() {
        let good = encode(1, b"payload");
        assert_eq!(decode(b"rec 1 7", 64), Err(FrameError::TruncatedHeader));
        assert_eq!(decode(&[0xFF, b'\n'], 64), Err(FrameError::NonUtf8Header));
        assert_eq!(decode(b"rex 1\n", 64), Err(FrameError::BadHeader("rex 1".into())));
        assert_eq!(decode(&good, 3), Err(FrameError::Oversized(7)));
        assert_eq!(
            decode(&good[..good.len() - 1], 64),
            Err(FrameError::TruncatedPayload { declared: 7, have: 7 })
        );
        let mut flipped = good.clone();
        flipped[good.len() - 2] ^= 1;
        assert!(matches!(decode(&flipped, 64), Err(FrameError::Crc { .. })));
        let mut unterminated = good.clone();
        *unterminated.last_mut().unwrap() = b'x';
        assert_eq!(decode(&unterminated, 64), Err(FrameError::MissingTerminator));
        let huge = format!("rec 0 {} 00000000\n", usize::MAX);
        assert!(matches!(
            decode(huge.as_bytes(), usize::MAX),
            Err(FrameError::TruncatedPayload { .. })
        ));
    }
}
