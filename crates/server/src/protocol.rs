//! The wire protocol: length-prefixed frames with a one-byte status.
//!
//! Every message in either direction is one *frame*:
//!
//! ```text
//! [len: u32 LE] [payload: len bytes]
//! ```
//!
//! A request payload is a UTF-8 command line (the same syntax as the
//! `vdbsh` REPL — see [`vdb_store::shell`]) **or** a binary streaming
//! message (see below). A response payload is a status byte (`+` ok, `-`
//! error) followed by UTF-8 text. Frames larger than the receiver's
//! configured maximum are a protocol violation: the receiver reports an
//! error and closes the connection, because the byte stream cannot be
//! resynchronized without trusting the bogus length.
//!
//! # Streaming-ingest messages
//!
//! A request payload whose first byte is [`STREAM_MAGIC`] (`0xF5` — an
//! invalid UTF-8 lead byte, so it can never collide with a command line)
//! is a binary [`StreamRequest`]:
//!
//! ```text
//! [0xF5] [op: u8] [session: u32 LE] [seq: u32 LE] [body...]
//! ```
//!
//! * `OPEN` (op 1): body is `[width: u32][height: u32][fps_milli: u32]`
//!   followed by the UTF-8 video name; `session`/`seq` are zero. The ok
//!   response text is `session=<id> credits=<window>` — the server grants
//!   a fixed window of in-flight frames (credit-based flow control).
//! * `FRAME` (op 2): body is exactly `width*height*3` bytes of raw RGB24.
//!   `seq` starts at 0 and increments by one per frame. The ok response
//!   (`seq=<n> credits=<free>`) is the credit grant: a client may have at
//!   most `window` unacknowledged frames outstanding.
//! * `COMMIT` (op 3): close the session and make the video durable. The
//!   ok response is `video=<id> shots=<k> frames=<n> durable=<bool>`,
//!   sent only after the journal write barrier.
//! * `ABORT` (op 4): discard the session.
//!
//! Stream errors (bad sequence, wrong body size, dimension mismatch) are
//! ordinary `-` responses that *poison the session*, not the connection —
//! the same TCP connection can keep serving commands and other sessions.

use std::io::{self, IoSlice, Read, Write};

/// Default upper bound on a frame payload (1 MiB). Command lines and
/// rendered scene trees are orders of magnitude smaller; anything bigger
/// is a corrupt or hostile length prefix.
pub const DEFAULT_MAX_FRAME: usize = 1 << 20;

/// Response status byte for success.
pub const STATUS_OK: u8 = b'+';
/// Response status byte for an error.
pub const STATUS_ERR: u8 = b'-';

/// First payload byte of a binary streaming-ingest message. `0xF5` is an
/// invalid UTF-8 lead byte, so stream messages can never be confused with
/// text command lines.
pub const STREAM_MAGIC: u8 = 0xF5;

/// Bytes of framing before a stream message's body (magic, op, session,
/// seq). An RGB24 frame message is exactly `STREAM_HEADER + w*h*3` bytes
/// of payload.
pub const STREAM_HEADER: usize = 1 + 1 + 4 + 4;

const OP_OPEN: u8 = 1;
const OP_FRAME: u8 = 2;
const OP_COMMIT: u8 = 3;
const OP_ABORT: u8 = 4;

/// A decoded streaming-ingest request (see the module docs for the wire
/// layout and response texts).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StreamRequest<'a> {
    /// Open a session: declare the video's name, dimensions, and frame
    /// rate (millifps — 30_000 = 30 fps).
    Open {
        /// Video name for the catalog row.
        name: &'a str,
        /// Frame width in pixels.
        width: u32,
        /// Frame height in pixels.
        height: u32,
        /// Frame rate in millihertz (fps × 1000).
        fps_milli: u32,
    },
    /// Push one raw RGB24 frame into an open session.
    Frame {
        /// The session id from the open response.
        session: u32,
        /// Zero-based frame sequence number.
        seq: u32,
        /// Exactly `width*height*3` bytes, row-major RGB.
        data: &'a [u8],
    },
    /// Finalize the session's analysis and commit the video durably.
    Commit {
        /// The session id.
        session: u32,
    },
    /// Discard the session without committing.
    Abort {
        /// The session id.
        session: u32,
    },
}

/// Whether a request payload is a binary stream message (as opposed to a
/// UTF-8 command line).
pub fn is_stream_request(payload: &[u8]) -> bool {
    payload.first() == Some(&STREAM_MAGIC)
}

/// Encode a stream request into a frame payload.
pub fn encode_stream_request(req: &StreamRequest<'_>) -> Vec<u8> {
    let (op, session, seq, body_len) = match req {
        StreamRequest::Open { name, .. } => (OP_OPEN, 0, 0, 12 + name.len()),
        StreamRequest::Frame {
            session, seq, data, ..
        } => (OP_FRAME, *session, *seq, data.len()),
        StreamRequest::Commit { session } => (OP_COMMIT, *session, 0, 0),
        StreamRequest::Abort { session } => (OP_ABORT, *session, 0, 0),
    };
    let mut out = Vec::with_capacity(STREAM_HEADER + body_len);
    out.extend_from_slice(&stream_header(op, session, seq));
    match req {
        StreamRequest::Open {
            name,
            width,
            height,
            fps_milli,
        } => {
            out.extend_from_slice(&width.to_le_bytes());
            out.extend_from_slice(&height.to_le_bytes());
            out.extend_from_slice(&fps_milli.to_le_bytes());
            out.extend_from_slice(name.as_bytes());
        }
        StreamRequest::Frame { data, .. } => out.extend_from_slice(data),
        StreamRequest::Commit { .. } | StreamRequest::Abort { .. } => {}
    }
    out
}

/// The fixed header of a stream message: magic, op, session, seq.
fn stream_header(op: u8, session: u32, seq: u32) -> [u8; STREAM_HEADER] {
    let mut header = [0u8; STREAM_HEADER];
    header[0] = STREAM_MAGIC;
    header[1] = op;
    header[2..6].copy_from_slice(&session.to_le_bytes());
    header[6..10].copy_from_slice(&seq.to_le_bytes());
    header
}

/// The header of a `FRAME` message; the message payload is this header
/// followed by the frame's RGB24 bytes. Lets a sender write a frame with
/// [`write_frame_parts`] without first copying the pixels into one
/// payload buffer.
pub fn frame_message_header(session: u32, seq: u32) -> [u8; STREAM_HEADER] {
    stream_header(OP_FRAME, session, seq)
}

/// Decode a stream request from a frame payload (which must start with
/// [`STREAM_MAGIC`] — check [`is_stream_request`] first).
pub fn decode_stream_request(payload: &[u8]) -> Result<StreamRequest<'_>, FrameError> {
    if payload.len() < STREAM_HEADER || payload[0] != STREAM_MAGIC {
        return Err(FrameError::Malformed("truncated stream message"));
    }
    let op = payload[1];
    let session = u32::from_le_bytes(payload[2..6].try_into().unwrap());
    let seq = u32::from_le_bytes(payload[6..10].try_into().unwrap());
    let body = &payload[STREAM_HEADER..];
    match op {
        OP_OPEN => {
            if body.len() < 12 {
                return Err(FrameError::Malformed("stream open body too short"));
            }
            let width = u32::from_le_bytes(body[0..4].try_into().unwrap());
            let height = u32::from_le_bytes(body[4..8].try_into().unwrap());
            let fps_milli = u32::from_le_bytes(body[8..12].try_into().unwrap());
            let name = std::str::from_utf8(&body[12..])
                .map_err(|_| FrameError::Malformed("stream name is not UTF-8"))?;
            if name.is_empty() {
                return Err(FrameError::Malformed("stream name is empty"));
            }
            Ok(StreamRequest::Open {
                name,
                width,
                height,
                fps_milli,
            })
        }
        OP_FRAME => Ok(StreamRequest::Frame {
            session,
            seq,
            data: body,
        }),
        OP_COMMIT => Ok(StreamRequest::Commit { session }),
        OP_ABORT => Ok(StreamRequest::Abort { session }),
        _ => Err(FrameError::Malformed("unknown stream opcode")),
    }
}

/// A decoded response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Whether the command succeeded.
    pub ok: bool,
    /// The command output (or error message).
    pub text: String,
}

/// Why reading a frame failed.
#[derive(Debug)]
pub enum FrameError {
    /// The declared payload length exceeds the receiver's maximum.
    TooLarge {
        /// The declared payload length.
        declared: u32,
        /// The receiver's limit.
        max: usize,
    },
    /// The peer closed the stream mid-frame.
    Torn,
    /// The payload was not a valid message (e.g. an empty response).
    Malformed(&'static str),
    /// Underlying socket error.
    Io(io::Error),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::TooLarge { declared, max } => {
                write!(f, "frame of {declared} bytes exceeds the {max}-byte limit")
            }
            FrameError::Torn => write!(f, "connection closed mid-frame"),
            FrameError::Malformed(what) => write!(f, "malformed frame: {what}"),
            FrameError::Io(e) => write!(f, "socket error: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// Write one frame (length prefix + payload).
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> io::Result<()> {
    write_frame_parts(w, &[payload])
}

/// Write one frame whose payload is the concatenation of `parts`, without
/// joining them first: the length prefix and every part go out through
/// `write_vectored`, so a whole message usually costs one system call.
/// Partial writes and `Interrupted` are retried as `write_all` does.
pub fn write_frame_parts<W: Write>(w: &mut W, parts: &[&[u8]]) -> io::Result<()> {
    let len: usize = parts.iter().map(|p| p.len()).sum();
    let prefix = (len as u32).to_le_bytes();
    let mut rest: Vec<&[u8]> = Vec::with_capacity(1 + parts.len());
    rest.push(&prefix);
    rest.extend_from_slice(parts);
    // `rest[done..]` is what is left to write.
    let mut done = 0;
    while done < rest.len() {
        let slices: Vec<IoSlice<'_>> = rest[done..].iter().map(|b| IoSlice::new(b)).collect();
        match w.write_vectored(&slices) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::WriteZero,
                    "failed to write whole frame",
                ))
            }
            Ok(mut n) => {
                while done < rest.len() && n >= rest[done].len() {
                    n -= rest[done].len();
                    done += 1;
                }
                if n > 0 {
                    rest[done] = &rest[done][n..];
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    w.flush()
}

/// Encode a response payload.
pub fn encode_response(ok: bool, text: &str) -> Vec<u8> {
    let mut payload = Vec::with_capacity(1 + text.len());
    payload.push(if ok { STATUS_OK } else { STATUS_ERR });
    payload.extend_from_slice(text.as_bytes());
    payload
}

/// Decode a response payload.
pub fn decode_response(payload: &[u8]) -> Result<Response, FrameError> {
    let (&status, text) = payload
        .split_first()
        .ok_or(FrameError::Malformed("empty response"))?;
    let ok = match status {
        STATUS_OK => true,
        STATUS_ERR => false,
        _ => return Err(FrameError::Malformed("bad status byte")),
    };
    let text = std::str::from_utf8(text)
        .map_err(|_| FrameError::Malformed("response is not UTF-8"))?
        .to_string();
    Ok(Response { ok, text })
}

/// Read one frame, blocking until it is complete. Returns `Ok(None)` on a
/// clean end-of-stream at a frame boundary. (The server uses its own
/// deadline-aware reader; this one serves clients, which wait on exactly
/// one in-flight response.)
pub fn read_frame<R: Read>(r: &mut R, max: usize) -> Result<Option<Vec<u8>>, FrameError> {
    let mut header = [0u8; 4];
    let mut got = 0;
    while got < header.len() {
        match r.read(&mut header[got..]) {
            Ok(0) => {
                return if got == 0 {
                    Ok(None)
                } else {
                    Err(FrameError::Torn)
                }
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    let declared = u32::from_le_bytes(header);
    if declared as usize > max {
        return Err(FrameError::TooLarge { declared, max });
    }
    let mut payload = vec![0u8; declared as usize];
    let mut filled = 0;
    while filled < payload.len() {
        match r.read(&mut payload[filled..]) {
            Ok(0) => return Err(FrameError::Torn),
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    Ok(Some(payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"stats").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r, 64).unwrap().unwrap(), b"stats");
        assert_eq!(read_frame(&mut r, 64).unwrap().unwrap(), b"");
        assert!(read_frame(&mut r, 64).unwrap().is_none(), "clean EOF");
    }

    /// A writer that counts calls and, when `max` is set, accepts at most
    /// `max` bytes per call and fails every other call with `Interrupted`.
    #[derive(Default)]
    struct MockWriter {
        out: Vec<u8>,
        max: Option<usize>,
        writes: usize,
        vectored: usize,
    }

    impl Write for MockWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.accept(&[IoSlice::new(buf)], self.writes)
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            self.vectored += 1;
            self.accept(bufs, self.vectored)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    impl MockWriter {
        fn trickle(max: usize) -> Self {
            MockWriter {
                max: Some(max),
                ..MockWriter::default()
            }
        }

        fn accept(&mut self, bufs: &[IoSlice<'_>], call: usize) -> io::Result<usize> {
            let Some(max) = self.max else {
                let n = bufs.iter().map(|b| b.len()).sum();
                bufs.iter().for_each(|b| self.out.extend_from_slice(b));
                return Ok(n);
            };
            if call % 2 == 1 {
                return Err(io::ErrorKind::Interrupted.into());
            }
            let mut n = 0;
            for b in bufs {
                let take = b.len().min(max - n);
                self.out.extend_from_slice(&b[..take]);
                n += take;
                if n == max {
                    break;
                }
            }
            Ok(n)
        }
    }

    /// The bytes a frame has always had on the wire: the LE length, then
    /// the payload.
    fn reference_frame(payload: &[u8]) -> Vec<u8> {
        let mut out = (payload.len() as u32).to_le_bytes().to_vec();
        out.extend_from_slice(payload);
        out
    }

    #[test]
    fn a_frame_message_is_one_vectored_write() {
        let data = vec![9u8; 160 * 120 * 3];
        let mut w = MockWriter::default();
        write_frame_parts(&mut w, &[&frame_message_header(4, 5), &data]).unwrap();
        assert_eq!((w.vectored, w.writes), (1, 0));
        let mut w = MockWriter::default();
        write_frame(&mut w, b"stats").unwrap();
        assert_eq!((w.vectored, w.writes), (1, 0));
    }

    #[test]
    fn partial_and_interrupted_writes_keep_the_wire_bytes() {
        let pixels: Vec<u8> = (0..4 * 3 * 3).map(|i| (i * 7) as u8).collect();
        for payload in [&b""[..], b"q", b"query ba=10 oa=50 limit=3"] {
            let mut w = MockWriter::trickle(3);
            write_frame(&mut w, payload).unwrap();
            assert_eq!(w.out, reference_frame(payload));
        }
        for (session, seq) in [(1, 0), (7, 41), (u32::MAX, u32::MAX)] {
            let encoded = encode_stream_request(&StreamRequest::Frame {
                session,
                seq,
                data: &pixels,
            });
            let mut w = MockWriter::trickle(3);
            write_frame_parts(&mut w, &[&frame_message_header(session, seq), &pixels]).unwrap();
            assert_eq!(w.out, reference_frame(&encoded));
        }
        // A writer that takes nothing is an error, not a spin.
        let mut w = MockWriter::trickle(0);
        let err = write_frame(&mut w, b"x").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WriteZero);
    }

    #[test]
    fn oversized_and_torn_frames() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &[0u8; 100]).unwrap();
        assert!(matches!(
            read_frame(&mut &buf[..], 10),
            Err(FrameError::TooLarge { declared: 100, .. })
        ));
        // Truncated payload.
        assert!(matches!(
            read_frame(&mut &buf[..50], 200),
            Err(FrameError::Torn)
        ));
        // Truncated header.
        assert!(matches!(
            read_frame(&mut &buf[..2], 200),
            Err(FrameError::Torn)
        ));
    }

    #[test]
    fn response_roundtrip() {
        let ok = encode_response(true, "hello\nworld");
        assert_eq!(
            decode_response(&ok).unwrap(),
            Response {
                ok: true,
                text: "hello\nworld".into()
            }
        );
        let err = encode_response(false, "nope");
        assert!(!decode_response(&err).unwrap().ok);
        assert!(decode_response(&[]).is_err());
        assert!(decode_response(b"?x").is_err());
        assert!(decode_response(&[STATUS_OK, 0xff, 0xfe]).is_err());
    }

    #[test]
    fn stream_request_roundtrip() {
        let frame_data = vec![7u8; 48];
        let reqs = [
            StreamRequest::Open {
                name: "clip",
                width: 4,
                height: 4,
                fps_milli: 29_970,
            },
            StreamRequest::Frame {
                session: 3,
                seq: 17,
                data: &frame_data,
            },
            StreamRequest::Commit { session: 3 },
            StreamRequest::Abort { session: 9 },
        ];
        for req in &reqs {
            let wire = encode_stream_request(req);
            assert!(is_stream_request(&wire));
            assert_eq!(&decode_stream_request(&wire).unwrap(), req);
        }
        assert!(!is_stream_request(b"ping"));
        assert!(!is_stream_request(b""));
    }

    #[test]
    fn malformed_stream_requests_are_rejected() {
        // Too short for the fixed header.
        assert!(decode_stream_request(&[STREAM_MAGIC, OP_COMMIT]).is_err());
        // Unknown opcode.
        let mut wire = encode_stream_request(&StreamRequest::Commit { session: 1 });
        wire[1] = 99;
        assert!(decode_stream_request(&wire).is_err());
        // Open body too short / bad name.
        let open = encode_stream_request(&StreamRequest::Open {
            name: "x",
            width: 2,
            height: 2,
            fps_milli: 1000,
        });
        assert!(decode_stream_request(&open[..open.len() - 2]).is_err());
        let mut bad_name = open.clone();
        let last = bad_name.len() - 1;
        bad_name[last] = 0xff;
        assert!(decode_stream_request(&bad_name).is_err());
        let empty_name = &open[..open.len() - 1];
        assert!(decode_stream_request(empty_name).is_err());
    }
}
