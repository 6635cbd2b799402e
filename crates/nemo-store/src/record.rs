//! Frame codec: `[len: u32 LE][crc32(payload): u32 LE][payload]`.
//!
//! A frame is the unit of both WAL records and snapshot documents. Decoding
//! a byte buffer classifies every position into exactly one of three
//! outcomes, and the distinction is the heart of crash recovery:
//!
//! * **Complete** — the full frame is present and the payload matches its
//!   CRC.
//! * **Torn** — the buffer ends before the frame does (mid-header or
//!   mid-payload). Only a crash while appending produces this, and only at
//!   the very end of the newest file, so recovery truncates it and
//!   continues.
//! * **Corrupt** — the full frame is present but the CRC does not match.
//!   No crash produces this (appends never rewrite earlier bytes), so
//!   recovery fails loudly.

use crate::crc32::crc32;
use crate::error::StoreError;

/// Bytes of frame overhead before the payload (length + checksum).
pub const FRAME_HEADER_BYTES: usize = 8;

/// Encodes one payload as a frame, copying it behind its header. Payloads
/// must be non-empty: an empty frame is `8` zero bytes (`crc32("") == 0`),
/// which is exactly what a zero-filled crash tail looks like — see
/// [`decode_frame`].
pub fn encode_frame(payload: &[u8]) -> Vec<u8> {
    debug_assert!(
        !payload.is_empty(),
        "empty frames are reserved for tear detection"
    );
    Framed::copy(payload).0
}

/// A frame built where its payload was written: the payload's producer
/// reserves [`FRAME_HEADER_BYTES`] bytes ahead of it, and sealing fills in
/// the header, so a large payload (a snapshot document) reaches its one
/// write without being copied. The bytes are those of [`encode_frame`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Framed(Vec<u8>);

impl Framed {
    /// Seals `buf`, whose first [`FRAME_HEADER_BYTES`] bytes are reserved
    /// for the header (they are overwritten) and whose rest is the payload.
    pub fn seal(mut buf: Vec<u8>) -> Framed {
        assert!(
            buf.len() >= FRAME_HEADER_BYTES,
            "a frame reserves its header"
        );
        let (header, payload) = buf.split_at_mut(FRAME_HEADER_BYTES);
        header[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
        header[4..].copy_from_slice(&crc32(payload).to_le_bytes());
        Framed(buf)
    }

    /// Frames a copy of `payload`.
    pub fn copy(payload: &[u8]) -> Framed {
        let mut buf = Vec::with_capacity(FRAME_HEADER_BYTES + payload.len());
        buf.extend_from_slice(&[0; FRAME_HEADER_BYTES]);
        buf.extend_from_slice(payload);
        Framed::seal(buf)
    }

    /// The payload.
    pub fn payload(&self) -> &[u8] {
        &self.0[FRAME_HEADER_BYTES..]
    }

    /// The whole frame, header first.
    pub fn bytes(&self) -> &[u8] {
        &self.0
    }
}

/// One decoded frame: its payload and the byte range it occupied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Offset of the frame's first header byte within the scanned buffer.
    pub offset: usize,
    /// Total frame length (header + payload).
    pub len: usize,
    /// The verified payload.
    pub payload: Vec<u8>,
}

/// Result of decoding the frame starting at `offset`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Decoded {
    /// A complete, checksum-verified frame.
    Complete(Frame),
    /// The buffer ends inside this frame: a crash tail. `offset` is where
    /// the torn frame starts (the truncation point).
    Torn {
        /// Start of the incomplete frame.
        offset: usize,
    },
    /// A complete frame whose checksum does not match.
    Corrupt {
        /// Start of the damaged frame.
        offset: usize,
        /// Checksum stored in the frame header.
        stored: u32,
        /// Checksum computed over the payload actually present.
        computed: u32,
    },
}

/// Decodes the frame starting at `offset`, or `None` at end of buffer.
pub fn decode_frame(buf: &[u8], offset: usize) -> Option<Decoded> {
    if offset >= buf.len() {
        return None;
    }
    let rest = &buf[offset..];
    if rest.len() < FRAME_HEADER_BYTES {
        return Some(Decoded::Torn { offset });
    }
    let len = u32::from_le_bytes(rest[0..4].try_into().expect("4 bytes")) as usize;
    let stored = u32::from_le_bytes(rest[4..8].try_into().expect("4 bytes"));
    // A zero length field marks a tear, not a record: writers never emit
    // empty payloads, but a crash can persist a file-size extension before
    // the data blocks land, leaving a zero-filled tail whose first 8 zero
    // bytes would otherwise parse as a checksum-valid empty frame
    // (`crc32("") == 0`) and turn phantom padding into phantom records.
    if len == 0 {
        return Some(Decoded::Torn { offset });
    }
    if rest.len() < FRAME_HEADER_BYTES + len {
        return Some(Decoded::Torn { offset });
    }
    let payload = &rest[FRAME_HEADER_BYTES..FRAME_HEADER_BYTES + len];
    let computed = crc32(payload);
    if computed != stored {
        return Some(Decoded::Corrupt {
            offset,
            stored,
            computed,
        });
    }
    Some(Decoded::Complete(Frame {
        offset,
        len: FRAME_HEADER_BYTES + len,
        payload: payload.to_vec(),
    }))
}

/// Everything learned from scanning a whole buffer of frames.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Scan {
    /// Complete frames, in order.
    pub frames: Vec<Frame>,
    /// Offset of a torn tail, if the buffer ends mid-frame.
    pub torn_at: Option<usize>,
}

/// Scans `buf` into complete frames plus an optional torn tail.
///
/// A corrupt (complete but checksum-failing) frame is an error: appends
/// never rewrite earlier bytes, so a crash cannot explain it. `context`
/// names the file for the error message.
pub fn scan_frames(buf: &[u8], context: &str) -> Result<Scan, StoreError> {
    let mut scan = Scan::default();
    let mut offset = 0;
    while let Some(decoded) = decode_frame(buf, offset) {
        match decoded {
            Decoded::Complete(frame) => {
                offset = frame.offset + frame.len;
                scan.frames.push(frame);
            }
            Decoded::Torn { offset } => {
                scan.torn_at = Some(offset);
                return Ok(scan);
            }
            Decoded::Corrupt {
                offset,
                stored,
                computed,
            } => {
                return Err(StoreError::Corrupt(format!(
                    "{context}: frame at byte {offset} fails its checksum \
                     (stored {stored:#010x}, computed {computed:#010x})"
                )));
            }
        }
    }
    Ok(scan)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_frame_sealed_in_place_is_the_encoded_frame() {
        for payload in [b"x".as_slice(), b"a longer payload \xff\x00"] {
            let mut buf = vec![0xAA; FRAME_HEADER_BYTES];
            buf.extend_from_slice(payload);
            let framed = Framed::seal(buf);
            assert_eq!(framed.bytes(), encode_frame(payload));
            assert_eq!(framed.payload(), payload);
            assert_eq!(Framed::copy(payload), framed);
        }
    }

    #[test]
    fn round_trip_and_scan() {
        let mut buf = Vec::new();
        for payload in [b"alpha".as_slice(), b"b", b"gamma-longer-payload"] {
            buf.extend_from_slice(&encode_frame(payload));
        }
        let scan = scan_frames(&buf, "test").unwrap();
        assert_eq!(scan.frames.len(), 3);
        assert_eq!(scan.frames[0].payload, b"alpha");
        assert_eq!(scan.frames[1].payload, b"b");
        assert_eq!(scan.frames[2].payload, b"gamma-longer-payload");
        assert_eq!(scan.torn_at, None);
        // Frames tile the buffer exactly.
        let end = scan.frames.last().map(|f| f.offset + f.len).unwrap();
        assert_eq!(end, buf.len());
    }

    #[test]
    fn zero_filled_tails_are_torn_not_phantom_records() {
        // A crash can persist a file-size extension before the data blocks
        // flush, leaving zeros; those must read as a tear (truncate and
        // continue), never as checksum-valid empty records.
        let mut buf = encode_frame(b"real record");
        let valid = buf.len();
        buf.extend_from_slice(&[0u8; 64]);
        let scan = scan_frames(&buf, "test").unwrap();
        assert_eq!(scan.frames.len(), 1);
        assert_eq!(scan.torn_at, Some(valid));
    }

    #[test]
    fn every_truncation_is_torn_never_corrupt() {
        let mut buf = encode_frame(b"first");
        buf.extend_from_slice(&encode_frame(b"second record"));
        for cut in 0..buf.len() {
            let scan = scan_frames(&buf[..cut], "test").unwrap();
            // The surviving frames are exactly those wholly below the cut.
            let expect = [b"first".len() + FRAME_HEADER_BYTES]
                .iter()
                .filter(|&&end| end <= cut)
                .count()
                + usize::from(cut == buf.len());
            assert_eq!(scan.frames.len(), expect, "cut at {cut}");
            // Anything partial is reported torn, at a frame boundary.
            if cut == 0 || cut == 13 || cut == buf.len() {
                assert_eq!(scan.torn_at, None, "cut at {cut}");
            } else {
                assert!(scan.torn_at.is_some(), "cut at {cut}");
            }
        }
    }

    #[test]
    fn payload_and_crc_flips_are_corrupt_not_torn() {
        let buf = encode_frame(b"payload-under-test");
        // Flip every bit of the CRC field and the payload; all must be
        // reported as corruption (the frame is complete).
        for byte in 4..buf.len() {
            for bit in 0..8 {
                let mut damaged = buf.clone();
                damaged[byte] ^= 1 << bit;
                match scan_frames(&damaged, "test") {
                    Err(StoreError::Corrupt(_)) => {}
                    other => panic!("flip at byte {byte} bit {bit}: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn length_field_growth_reads_as_torn() {
        // A bit flip that enlarges the length field is indistinguishable
        // from a tear (the "payload" now extends past end of file); the
        // store treats it as a torn tail on the newest segment and as
        // corruption anywhere else. Document the classification here.
        let buf = encode_frame(b"x");
        let mut damaged = buf.clone();
        damaged[2] ^= 0x10; // len 1 -> len 0x100001
        match decode_frame(&damaged, 0) {
            Some(Decoded::Torn { offset: 0 }) => {}
            other => panic!("expected torn, got {other:?}"),
        }
        // A flip that shrinks the length leaves a complete frame whose CRC
        // fails: corrupt.
        let mut buf2 = encode_frame(b"a longer payload so shrinking stays in range");
        buf2[0] ^= 0x08;
        assert!(matches!(
            decode_frame(&buf2, 0),
            Some(Decoded::Corrupt { .. })
        ));
    }
}
