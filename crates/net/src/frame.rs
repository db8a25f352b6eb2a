//! Length-prefixed binary framing with per-frame CRC.
//!
//! Every message crossing a GRM socket (and every record in the durable
//! journal) travels inside one frame:
//!
//! ```text
//! ┌───────┬─────────────┬──────────────┬─────────────┐
//! │ magic │ len: u32 LE │ payload      │ crc: u32 LE │
//! │ A6 4D │ (payload)   │ (len bytes)  │ (payload)   │
//! └───────┴─────────────┴──────────────┴─────────────┘
//! ```
//!
//! The CRC is CRC-32 (IEEE 802.3, reflected) over the payload only; the
//! magic and length are validated structurally. [`crc32`] folds 64 bytes
//! per step with a carry-less multiply (`PCLMULQDQ`) on x86_64 CPUs that
//! have one, and uses slicing-by-16 tables for inputs under 64 bytes and
//! everywhere else; both give the same bits, so a frame's bytes never
//! depend on the machine that wrote it.
//!
//! `len` is bounded by [`MAX_FRAME_LEN`], so a corrupt length prefix can
//! never make the decoder buffer unbounded garbage — it is rejected
//! immediately and the decoder *resyncs*: it scans forward for the next magic candidate and
//! keeps decoding, so one torn or corrupted frame costs one error, not
//! the connection. (A candidate inside surviving payload bytes is
//! possible; the CRC rejects it and the scan continues.)
//!
//! Encoding and decoding are byte-deterministic: the same payload always
//! produces the same frame, which is what lets the journal's recovery
//! fingerprints and the federation's decision-sequence comparison work
//! byte-for-byte.

use std::fmt;

mod crc;

pub use crc::crc32;

/// Frame preamble: resync marker for the scanning decoder.
pub const MAGIC: [u8; 2] = [0xA6, 0x4D];

/// Upper bound on one *wire* frame's payload. Large enough for a
/// 1000-principal availability snapshot (~8 KiB) with two orders of
/// magnitude to spare; small enough that a corrupt length prefix cannot
/// stall the decoder waiting on gigabytes that will never arrive.
///
/// The durable journal uses the same framing with a larger limit
/// ([`crate::journal::MAX_JOURNAL_FRAME_LEN`]): its snapshot records
/// carry the full n×n agreement matrix, which passes 1 MiB near
/// n ≈ 360, and a local file cannot be stalled by a slow sender anyway.
pub const MAX_FRAME_LEN: usize = 1 << 20;

/// Bytes of envelope around a payload: magic (2) + len (4) + crc (4).
pub const FRAME_OVERHEAD: usize = 10;

/// Why a frame failed to decode. The decoder has already resynced when
/// one of these is returned — calling [`FrameDecoder::next_frame`] again
/// continues from the next magic candidate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The bytes at the decode position did not start with [`MAGIC`].
    BadMagic,
    /// The length prefix exceeded [`MAX_FRAME_LEN`].
    Oversized {
        /// The rejected length.
        len: usize,
    },
    /// The payload did not match its CRC.
    CrcMismatch,
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::BadMagic => write!(f, "bad frame magic"),
            FrameError::Oversized { len } => {
                write!(f, "frame length {len} exceeds the frame limit")
            }
            FrameError::CrcMismatch => write!(f, "frame CRC mismatch"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Append one encoded frame carrying `payload` to `out`. Fails only when
/// the payload exceeds [`MAX_FRAME_LEN`] — a frame the decoder would be
/// obliged to reject, so it must never be sent.
pub fn encode_frame(payload: &[u8], out: &mut Vec<u8>) -> Result<(), FrameError> {
    encode_frame_limited(payload, out, MAX_FRAME_LEN)
}

/// [`encode_frame`] under a caller-chosen payload limit. Encoder and
/// decoder limits must agree per channel: the journal writes and
/// recovers with [`crate::journal::MAX_JOURNAL_FRAME_LEN`], the sockets
/// with [`MAX_FRAME_LEN`].
pub fn encode_frame_limited(
    payload: &[u8],
    out: &mut Vec<u8>,
    max_len: usize,
) -> Result<(), FrameError> {
    if payload.len() > max_len {
        return Err(FrameError::Oversized { len: payload.len() });
    }
    out.reserve(FRAME_OVERHEAD + payload.len());
    encode_frame_with(out, max_len, |out| out.extend_from_slice(payload))
}

/// Append one frame whose payload `fill` writes straight onto the end of
/// `out`: the header is reserved first, then the length is patched in
/// and the CRC taken over the payload where it lies — no intermediate
/// payload buffer. On an oversized payload `out` is restored and
/// nothing is appended.
pub(crate) fn encode_frame_with(
    out: &mut Vec<u8>,
    max_len: usize,
    fill: impl FnOnce(&mut Vec<u8>),
) -> Result<(), FrameError> {
    let start = out.len();
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&[0; 4]);
    fill(out);
    let len = out.len() - start - 6;
    if len > max_len || len > u32::MAX as usize {
        out.truncate(start);
        return Err(FrameError::Oversized { len });
    }
    out[start + 2..start + 6].copy_from_slice(&(len as u32).to_le_bytes());
    let crc = crc32(&out[start + 6..]);
    out.extend_from_slice(&crc.to_le_bytes());
    Ok(())
}

/// Total encoded size of a frame carrying `payload_len` payload bytes.
pub fn frame_len(payload_len: usize) -> usize {
    FRAME_OVERHEAD + payload_len
}

/// Incremental frame decoder over an arbitrary byte stream.
///
/// Feed bytes with [`push`](FrameDecoder::push) as they arrive; pull
/// frames with [`next_frame`](FrameDecoder::next_frame) until it returns
/// `Ok(None)` ("need more bytes"). Errors report a corrupted frame *and
/// leave the decoder usable*: it has already skipped forward to the next
/// magic candidate. Sockets only: journal recovery finds its frames in
/// place and stops at the first damage instead of resyncing
/// ([`crate::journal`]).
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    /// Index of the first unconsumed byte in `buf`.
    start: usize,
    /// Corrupt frames skipped since construction (telemetry hook).
    corrupt: u64,
}

impl FrameDecoder {
    /// A decoder with empty buffer and the wire limit [`MAX_FRAME_LEN`].
    pub fn new() -> Self {
        FrameDecoder::default()
    }

    /// Feed raw bytes from the stream.
    pub fn push(&mut self, bytes: &[u8]) {
        // Compact lazily: once the consumed prefix dominates, shift the
        // tail down so the buffer does not grow without bound.
        if self.start > 4096 && self.start * 2 > self.buf.len() {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Unconsumed bytes buffered (a non-zero value at EOF means the
    /// stream ended inside a frame — a truncated write or torn tail).
    pub fn pending(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Corrupt frames skipped so far.
    pub fn corrupt_frames(&self) -> u64 {
        self.corrupt
    }

    /// Decode the next frame. `Ok(Some(payload))` yields one complete,
    /// CRC-verified payload; `Ok(None)` means the buffer holds no
    /// complete frame yet; `Err` reports a corrupted frame that has been
    /// skipped (call again to continue after the resync point).
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, FrameError> {
        let avail = self.buf.len() - self.start;
        if avail < 2 {
            // Not enough even for the magic; but a lone non-magic byte
            // can be rejected already so a stray tail never pins `pending`.
            if avail == 1 && self.buf[self.start] != MAGIC[0] {
                self.resync(1);
                self.corrupt += 1;
                return Err(FrameError::BadMagic);
            }
            return Ok(None);
        }
        let s = self.start;
        if self.buf[s] != MAGIC[0] || self.buf[s + 1] != MAGIC[1] {
            self.resync(1);
            self.corrupt += 1;
            return Err(FrameError::BadMagic);
        }
        if avail < 6 {
            return Ok(None);
        }
        let len = u32::from_le_bytes([
            self.buf[s + 2],
            self.buf[s + 3],
            self.buf[s + 4],
            self.buf[s + 5],
        ]) as usize;
        if len > MAX_FRAME_LEN {
            // Corrupt length prefix: discard the magic and scan forward.
            self.resync(2);
            self.corrupt += 1;
            return Err(FrameError::Oversized { len });
        }
        if avail < FRAME_OVERHEAD + len {
            return Ok(None);
        }
        let payload_start = s + 6;
        let payload_end = payload_start + len;
        let want = u32::from_le_bytes([
            self.buf[payload_end],
            self.buf[payload_end + 1],
            self.buf[payload_end + 2],
            self.buf[payload_end + 3],
        ]);
        let payload = &self.buf[payload_start..payload_end];
        if crc32(payload) != want {
            self.resync(2);
            self.corrupt += 1;
            return Err(FrameError::CrcMismatch);
        }
        let out = payload.to_vec();
        self.start = payload_end + 4;
        Ok(Some(out))
    }

    /// Skip `skip` bytes, then advance to the next byte that could start
    /// a magic sequence (leaving final validation to the next decode).
    fn resync(&mut self, skip: usize) {
        self.start = (self.start + skip).min(self.buf.len());
        while self.start < self.buf.len() && self.buf[self.start] != MAGIC[0] {
            self.start += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_place_frame_encoding_matches_the_copying_encoder() {
        let payload: Vec<u8> = (0..300u32).map(|i| (i * 7) as u8).collect();
        let mut copied = vec![0xEE];
        encode_frame(&payload, &mut copied).unwrap();
        let mut in_place = vec![0xEE];
        encode_frame_with(&mut in_place, MAX_FRAME_LEN, |out| out.extend_from_slice(&payload))
            .unwrap();
        assert_eq!(in_place, copied);
        // Oversized: the buffer is handed back as it was.
        let err = encode_frame_with(&mut in_place, 4, |out| out.extend_from_slice(&payload));
        assert_eq!(err, Err(FrameError::Oversized { len: 300 }));
        assert_eq!(in_place, copied);
    }

    #[test]
    fn round_trip_single_frame() {
        let mut wire = Vec::new();
        encode_frame(b"hello agreements", &mut wire).unwrap();
        assert_eq!(wire.len(), frame_len(16));
        let mut dec = FrameDecoder::new();
        dec.push(&wire);
        assert_eq!(dec.next_frame().unwrap().unwrap(), b"hello agreements");
        assert_eq!(dec.pending(), 0);
    }

    #[test]
    fn byte_at_a_time_delivery() {
        let mut wire = Vec::new();
        encode_frame(b"a", &mut wire).unwrap();
        encode_frame(b"", &mut wire).unwrap();
        encode_frame(&[0xA6; 64], &mut wire).unwrap(); // payload full of magic bytes
        let mut dec = FrameDecoder::new();
        let mut got = Vec::new();
        for &b in &wire {
            dec.push(&[b]);
            while let Some(p) = dec.next_frame().unwrap() {
                got.push(p);
            }
        }
        assert_eq!(got, vec![b"a".to_vec(), Vec::new(), vec![0xA6; 64]]);
    }

    #[test]
    fn oversized_encode_is_rejected() {
        let mut out = Vec::new();
        let too_big = vec![0u8; MAX_FRAME_LEN + 1];
        assert_eq!(
            encode_frame(&too_big, &mut out),
            Err(FrameError::Oversized { len: MAX_FRAME_LEN + 1 })
        );
        assert!(out.is_empty(), "nothing written on rejection");
    }

    #[test]
    fn corrupt_length_prefix_resyncs_to_next_frame() {
        let mut wire = Vec::new();
        encode_frame(b"first", &mut wire).unwrap();
        encode_frame(b"second", &mut wire).unwrap();
        wire[5] = 0xFF; // high byte of frame 1's length: now > MAX_FRAME_LEN
        let mut dec = FrameDecoder::new();
        dec.push(&wire);
        assert!(matches!(dec.next_frame(), Err(FrameError::Oversized { .. })));
        // The scan walks frame 1's wreckage (no magic bytes in "first")
        // and lands on frame 2 intact.
        assert_eq!(dec.next_frame().unwrap().unwrap(), b"second");
        assert_eq!(dec.corrupt_frames(), 1);
    }

    #[test]
    fn corrupt_payload_fails_crc_then_resyncs() {
        let mut wire = Vec::new();
        encode_frame(b"damaged", &mut wire).unwrap();
        encode_frame(b"survivor", &mut wire).unwrap();
        wire[8] ^= 0x01; // flip one payload bit of frame 1
        let mut dec = FrameDecoder::new();
        dec.push(&wire);
        assert_eq!(dec.next_frame(), Err(FrameError::CrcMismatch));
        assert_eq!(dec.next_frame().unwrap().unwrap(), b"survivor");
    }

    #[test]
    fn truncated_frame_waits_instead_of_yielding() {
        let mut wire = Vec::new();
        encode_frame(b"whole frame body", &mut wire).unwrap();
        let cut = wire.len() - 3;
        let mut dec = FrameDecoder::new();
        dec.push(&wire[..cut]);
        assert_eq!(dec.next_frame(), Ok(None));
        assert!(dec.pending() > 0, "truncation is visible at EOF");
        dec.push(&wire[cut..]);
        assert_eq!(dec.next_frame().unwrap().unwrap(), b"whole frame body");
    }

    #[test]
    fn garbage_prefix_is_skipped() {
        let mut wire = vec![0x00, 0x13, 0x37];
        encode_frame(b"after noise", &mut wire).unwrap();
        let mut dec = FrameDecoder::new();
        dec.push(&wire);
        let mut errors = 0;
        loop {
            match dec.next_frame() {
                Ok(Some(p)) => {
                    assert_eq!(p, b"after noise");
                    break;
                }
                Ok(None) => panic!("frame should be reachable"),
                Err(_) => errors += 1,
            }
        }
        assert!(errors >= 1);
    }
}
