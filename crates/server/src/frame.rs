//! The wire framing: length-prefixed, checksummed frames over any byte
//! stream, mirroring the storage WAL's journal-frame idiom
//! (`cods_storage::wal`) — the same defensive posture, applied to a
//! network peer instead of a crashed process, and the same checksum
//! function ([`cods_storage::wal::checksum`], a word at a time).
//!
//! ```text
//! connection preamble (server → client, once):
//!   magic   u32 LE   0xC0D5_7C9A
//!   version u16 LE   wire-protocol version (3; a peer that announces
//!                    any other is refused before a frame is read)
//!
//! frame (either direction):
//!   kind    u8       message discriminant (see `proto`)
//!   len     u32 LE   payload length in bytes
//!   payload [u8; len]
//!   check   u64 LE   wal::checksum(kind ‖ len ‖ payload)
//! ```
//!
//! A reader treats any violation as fatal for the connection and tells the
//! caller *which* violation:
//!
//! * [`FrameError::Eof`] — clean end of stream *between* frames (the peer
//!   hung up politely);
//! * [`FrameError::Torn`] — end of stream *inside* a frame (crashed or
//!   truncated peer — the WAL's torn-frame case);
//! * [`FrameError::Corrupt`] — checksum mismatch (bit rot, desync, or a
//!   non-protocol peer);
//! * [`FrameError::TooLarge`] — declared length above the negotiated cap,
//!   rejected *before* allocating.

use cods_storage::wal::checksum;
use std::io::{self, Read, Write};
use std::net::TcpStream;

/// Connection preamble magic (`C0DS-7C9A`, "serve").
pub const SERVE_MAGIC: u32 = 0xC0D5_7C9A;
/// Wire-protocol version carried in the preamble. Version 2 changed the
/// body of a `Rows` reply (column-major, a dictionary per batch — see
/// [`crate::proto`]); version 3 changed every frame's check field from a
/// byte-wise FNV-1a to the storage frame checksum. Frame layout and every
/// message body are those of 2.
pub const PROTO_VERSION: u16 = 3;
/// Default cap on a single frame's payload, generous enough for a
/// segment-sized row batch yet small enough to bound a malicious peer.
pub const DEFAULT_MAX_FRAME_BYTES: u32 = 32 * 1024 * 1024;

/// Errors surfaced by [`read_frame`] / [`write_frame`].
#[derive(Debug)]
pub enum FrameError {
    /// Clean end of stream between frames.
    Eof,
    /// End of stream in the middle of a frame (torn write).
    Torn,
    /// Checksum mismatch: the frame arrived but its bytes are wrong.
    Corrupt,
    /// Declared payload length exceeds the configured cap.
    TooLarge {
        /// Length the frame header declared.
        declared: u32,
        /// The enforced cap.
        cap: u32,
    },
    /// Underlying transport error.
    Io(io::Error),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Eof => write!(f, "end of stream"),
            FrameError::Torn => write!(f, "torn frame: stream ended mid-frame"),
            FrameError::Corrupt => write!(f, "corrupt frame: checksum mismatch"),
            FrameError::TooLarge { declared, cap } => {
                write!(f, "frame of {declared} bytes exceeds the {cap}-byte cap")
            }
            FrameError::Io(e) => write!(f, "transport error: {e}"),
        }
    }
}

impl std::error::Error for FrameError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FrameError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            FrameError::Torn
        } else {
            FrameError::Io(e)
        }
    }
}

/// Turns Nagle's algorithm off (`TCP_NODELAY`) on a protocol socket. Both
/// ends call this, the server on accept and the client on connect: each
/// side already hands the socket whole frames or whole windows, and with
/// Nagle on, a second small segment waits for the peer's delayed ACK
/// (≈ 40 ms on loopback) before it leaves.
pub fn disable_nagle(stream: &TcpStream) -> io::Result<()> {
    stream.set_nodelay(true)
}

/// Writes the connection preamble (server side, once per connection).
pub fn write_preamble(w: &mut impl Write) -> Result<(), FrameError> {
    w.write_all(&SERVE_MAGIC.to_le_bytes())?;
    w.write_all(&PROTO_VERSION.to_le_bytes())?;
    Ok(())
}

/// Reads and validates the connection preamble (client side). A wrong
/// magic or version is reported as [`FrameError::Corrupt`] — the peer is
/// not speaking this protocol.
pub fn read_preamble(r: &mut impl Read) -> Result<u16, FrameError> {
    let mut buf = [0u8; 6];
    // No bytes at all is a hang-up; a partial preamble is a torn stream.
    read_exact_or(r, &mut buf[..1], FrameError::Eof)?;
    read_exact_or(r, &mut buf[1..], FrameError::Torn)?;
    let magic = u32::from_le_bytes(buf[0..4].try_into().unwrap());
    let version = u16::from_le_bytes(buf[4..6].try_into().unwrap());
    if magic != SERVE_MAGIC || version != PROTO_VERSION {
        return Err(FrameError::Corrupt);
    }
    Ok(version)
}

/// Writes one `kind` frame carrying `payload`, checksummed. The frame is
/// assembled into one buffer first so the transport sees a single write —
/// interleaving-safe if the caller serializes writers.
pub fn write_frame(w: &mut impl Write, kind: u8, payload: &[u8]) -> Result<u64, FrameError> {
    let mut buf = Vec::with_capacity(5 + payload.len() + 8);
    buf.push(kind);
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    buf.extend_from_slice(payload);
    let check = checksum(&[&buf[..5], payload]);
    buf.extend_from_slice(&check.to_le_bytes());
    w.write_all(&buf)?;
    Ok(buf.len() as u64)
}

/// Reads one frame, enforcing `max_payload` before allocating and the
/// checksum after. Returns `(kind, payload)`.
pub fn read_frame(r: &mut impl Read, max_payload: u32) -> Result<(u8, Vec<u8>), FrameError> {
    let mut head = [0u8; 5];
    // A clean EOF before the first header byte is a polite hang-up; EOF
    // anywhere later is a torn frame.
    read_exact_or(r, &mut head[..1], FrameError::Eof)?;
    read_exact_or(r, &mut head[1..], FrameError::Torn)?;
    let kind = head[0];
    let len = u32::from_le_bytes(head[1..5].try_into().unwrap());
    if len > max_payload {
        return Err(FrameError::TooLarge {
            declared: len,
            cap: max_payload,
        });
    }
    let mut payload = vec![0u8; len as usize];
    read_exact_or(r, &mut payload, FrameError::Torn)?;
    let mut check = [0u8; 8];
    read_exact_or(r, &mut check, FrameError::Torn)?;
    if u64::from_le_bytes(check) != checksum(&[&head, &payload]) {
        return Err(FrameError::Corrupt);
    }
    Ok((kind, payload))
}

/// `read_exact` that maps an immediate EOF to `on_eof` instead of a bare
/// io error, so callers can tell "peer left" from "peer died mid-frame".
fn read_exact_or(r: &mut impl Read, buf: &mut [u8], on_eof: FrameError) -> Result<(), FrameError> {
    match r.read_exact(buf) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => Err(on_eof),
        Err(e) => Err(FrameError::Io(e)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn round_trip(kind: u8, payload: &[u8]) -> Vec<u8> {
        let mut buf = Vec::new();
        write_frame(&mut buf, kind, payload).unwrap();
        buf
    }

    #[test]
    fn frames_round_trip() {
        for payload in [&b""[..], b"x", &[0u8; 1000][..]] {
            let buf = round_trip(7, payload);
            let (kind, got) = read_frame(&mut Cursor::new(&buf), 1 << 20).unwrap();
            assert_eq!(kind, 7);
            assert_eq!(got, payload);
        }
    }

    #[test]
    fn check_field_is_the_storage_checksum_of_kind_len_payload() {
        let payload: Vec<u8> = (0..1_001u32).map(|i| (i * 31 % 251) as u8).collect();
        let buf = round_trip(0x88, &payload);
        let (body, check) = buf.split_at(buf.len() - 8);
        let mut kind_len = vec![0x88];
        kind_len.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        let expected = checksum(&[&kind_len, &payload]);
        assert_eq!(u64::from_le_bytes(check.try_into().unwrap()), expected);
        // However the same bytes are cut into chunks, the sum is the same.
        for cut in 0..=body.len() {
            let (a, b) = body.split_at(cut);
            assert_eq!(checksum(&[a, b]), expected, "split at {cut}");
        }
        for width in [1, 3, 7, 8, 13] {
            let chunks: Vec<&[u8]> = body.chunks(width).collect();
            assert_eq!(checksum(&chunks), expected, "chunks of {width}");
        }
    }

    #[test]
    fn preamble_round_trips_and_rejects_garbage() {
        let mut buf = Vec::new();
        write_preamble(&mut buf).unwrap();
        assert_eq!(
            read_preamble(&mut Cursor::new(&buf)).unwrap(),
            PROTO_VERSION
        );
        let mut bad = buf.clone();
        bad[0] ^= 0xFF;
        assert!(matches!(
            read_preamble(&mut Cursor::new(&bad)),
            Err(FrameError::Corrupt)
        ));
        assert!(matches!(
            read_preamble(&mut Cursor::new(&buf[..3])),
            Err(FrameError::Torn)
        ));
    }

    #[test]
    fn truncation_is_torn_at_every_boundary() {
        // Mirrors the WAL torn-frame sweep: cutting the stream at any
        // byte inside the frame must read as Torn, never as Corrupt or a
        // phantom frame.
        let buf = round_trip(3, b"hello frame");
        for cut in 1..buf.len() {
            let err = read_frame(&mut Cursor::new(&buf[..cut]), 1 << 20).unwrap_err();
            assert!(matches!(err, FrameError::Torn), "cut at {cut}: {err:?}");
        }
        assert!(matches!(
            read_frame(&mut Cursor::new(&[][..]), 1 << 20),
            Err(FrameError::Eof)
        ));
    }

    #[test]
    fn corruption_is_detected_at_every_byte() {
        let buf = round_trip(3, b"hello frame");
        for i in 0..buf.len() {
            let mut bad = buf.clone();
            bad[i] ^= 0x40;
            match read_frame(&mut Cursor::new(&bad), 1 << 20) {
                // Flips in the length field may declare an over-cap or
                // torn-looking frame; anything that parses must fail the
                // checksum. Silent acceptance is the only wrong answer.
                Err(FrameError::Corrupt | FrameError::Torn | FrameError::TooLarge { .. }) => {}
                other => panic!("byte {i}: corruption not caught: {other:?}"),
            }
        }
    }

    #[test]
    fn oversized_frames_are_rejected_before_allocation() {
        let buf = round_trip(1, &vec![9u8; 4096]);
        let err = read_frame(&mut Cursor::new(&buf), 100).unwrap_err();
        assert!(matches!(
            err,
            FrameError::TooLarge {
                declared: 4096,
                cap: 100
            }
        ));
    }

    #[test]
    fn back_to_back_frames_then_clean_eof() {
        let mut buf = Vec::new();
        write_frame(&mut buf, 1, b"a").unwrap();
        write_frame(&mut buf, 2, b"bb").unwrap();
        let mut cur = Cursor::new(&buf);
        assert_eq!(read_frame(&mut cur, 1 << 20).unwrap(), (1, b"a".to_vec()));
        assert_eq!(read_frame(&mut cur, 1 << 20).unwrap(), (2, b"bb".to_vec()));
        assert!(matches!(
            read_frame(&mut cur, 1 << 20),
            Err(FrameError::Eof)
        ));
    }
}
