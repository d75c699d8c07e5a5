//! The line layer: newline-delimited frames over any byte stream.
//!
//! One request or response per `\n`-terminated line. [`LineReader`] owns
//! the read buffering, so frames reassemble correctly however the transport
//! splits them, and it enforces [`MAX_LINE`] by *consuming* an oversized
//! line while reporting it — the connection survives, the offending frame
//! yields a structured protocol error and nothing is half-applied.

use std::io::{ErrorKind, Read};

/// Longest accepted frame (bytes, newline excluded). Long enough for a
/// many-thousand-update batch, short enough that a garbage firehose cannot
/// balloon the connection buffer.
pub const MAX_LINE: usize = 4 * 1024 * 1024;

/// One read frame, or why there isn't one.
#[derive(Debug, PartialEq, Eq)]
pub enum Frame {
    /// A complete line (newline stripped, `\r\n` tolerated).
    Line(String),
    /// A line longer than [`MAX_LINE`]; the excess has been consumed up to
    /// and including its newline. Carries the number of bytes discarded.
    Oversized(usize),
    /// A complete line that is not valid UTF-8.
    NotUtf8,
    /// Clean end of stream (peer closed between frames).
    Eof,
}

/// Buffered newline-delimited frame reader over any [`Read`].
///
/// Tolerates arbitrary read fragmentation (the round-trip proptest drives
/// it with 1-byte reads) and interprets read timeouts — `WouldBlock` /
/// `TimedOut` — as "no frame yet", surfaced via [`LineReader::read_frame`]
/// returning `Ok(None)` so callers can poll a shutdown flag between reads.
pub struct LineReader<R> {
    inner: R,
    buf: Vec<u8>,
    /// Filled prefix of `buf` not yet consumed into frames.
    start: usize,
    end: usize,
    /// Bytes of the current oversized line discarded so far, when inside
    /// one (we stream the excess to the floor instead of buffering it).
    skipping: Option<usize>,
}

impl<R: Read> LineReader<R> {
    /// Wrap a transport.
    pub fn new(inner: R) -> Self {
        LineReader {
            inner,
            buf: vec![0; 64 * 1024],
            start: 0,
            end: 0,
            skipping: None,
        }
    }

    /// Pull the next frame. `Ok(None)` means the read timed out (or would
    /// block) with no complete frame buffered — poll again. A peer that
    /// closed mid-line is an [`ErrorKind::UnexpectedEof`] error; any other
    /// transport failure is passed on.
    pub fn read_frame(&mut self) -> std::io::Result<Option<Frame>> {
        loop {
            // a buffered complete line wins before any further read
            if let Some(frame) = self.take_buffered() {
                return Ok(Some(frame));
            }
            // compact, grow if the pending line still fits under the cap
            if self.start > 0 {
                self.buf.copy_within(self.start..self.end, 0);
                self.end -= self.start;
                self.start = 0;
            }
            if self.end == self.buf.len() {
                if self.buf.len() >= MAX_LINE {
                    // pending line exceeds the cap: discard what we have
                    // and switch to skip mode until its newline shows up
                    let dropped = self.end;
                    self.end = 0;
                    self.skipping = Some(self.skipping.take().unwrap_or(0) + dropped);
                } else {
                    self.buf.resize((self.buf.len() * 2).min(MAX_LINE), 0);
                }
            }
            match self.inner.read(&mut self.buf[self.end..]) {
                Ok(0) => {
                    return if self.end > self.start || self.skipping.is_some() {
                        Err(ErrorKind::UnexpectedEof.into())
                    } else {
                        Ok(Some(Frame::Eof))
                    };
                }
                Ok(n) => self.end += n,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                    return Ok(None);
                }
                Err(e) => return Err(e),
            }
        }
    }

    fn take_buffered(&mut self) -> Option<Frame> {
        let nl = self.buf[self.start..self.end]
            .iter()
            .position(|&b| b == b'\n')?;
        let line_end = self.start + nl;
        let frame = if let Some(dropped) = self.skipping.take() {
            // the tail of an oversized line: count it, report, move on
            Some(Frame::Oversized(dropped + nl))
        } else {
            let mut bytes = &self.buf[self.start..line_end];
            if bytes.last() == Some(&b'\r') {
                bytes = &bytes[..bytes.len() - 1];
            }
            match std::str::from_utf8(bytes) {
                Ok(s) => Some(Frame::Line(s.to_string())),
                Err(_) => Some(Frame::NotUtf8),
            }
        };
        self.start = line_end + 1;
        if self.start == self.end {
            self.start = 0;
            self.end = 0;
        }
        frame
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A reader that hands out the input in fixed-size fragments.
    struct Chunked {
        data: Vec<u8>,
        pos: usize,
        chunk: usize,
    }

    impl Read for Chunked {
        fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
            let n = self.chunk.min(out.len()).min(self.data.len() - self.pos);
            out[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    fn frames(data: &[u8], chunk: usize) -> Vec<Frame> {
        let mut r = LineReader::new(Chunked {
            data: data.to_vec(),
            pos: 0,
            chunk,
        });
        let mut out = Vec::new();
        loop {
            match r
                .read_frame()
                .unwrap()
                .expect("chunked reader never blocks")
            {
                Frame::Eof => return out,
                f => out.push(f),
            }
        }
    }

    #[test]
    fn split_reads_reassemble() {
        let data = b"{\"cmd\":\"ping\"}\r\nsecond line\n";
        for chunk in [1, 2, 3, 7, 1024] {
            assert_eq!(
                frames(data, chunk),
                vec![
                    Frame::Line("{\"cmd\":\"ping\"}".into()),
                    Frame::Line("second line".into()),
                ],
                "chunk={chunk}"
            );
        }
    }

    #[test]
    fn oversized_line_is_skipped_not_fatal() {
        let mut data = vec![b'x'; MAX_LINE + 10];
        data.push(b'\n');
        data.extend_from_slice(b"after\n");
        let got = frames(&data, 1 << 16);
        assert_eq!(got.len(), 2);
        assert!(matches!(got[0], Frame::Oversized(n) if n == MAX_LINE + 10));
        assert_eq!(got[1], Frame::Line("after".into()));
    }

    #[test]
    fn invalid_utf8_is_reported_per_line() {
        let got = frames(b"ok\n\xff\xfe\nstill ok\n", 5);
        assert_eq!(
            got,
            vec![
                Frame::Line("ok".into()),
                Frame::NotUtf8,
                Frame::Line("still ok".into()),
            ]
        );
    }

    #[test]
    fn eof_mid_line_is_truncation() {
        let mut r = LineReader::new(Chunked {
            data: b"no newline".to_vec(),
            pos: 0,
            chunk: 3,
        });
        assert_eq!(r.read_frame().unwrap_err().kind(), ErrorKind::UnexpectedEof);
    }

    #[test]
    fn empty_lines_come_through() {
        assert_eq!(
            frames(b"\n\na\n", 2),
            vec![
                Frame::Line(String::new()),
                Frame::Line(String::new()),
                Frame::Line("a".into()),
            ]
        );
    }
}
