//! The serving session loop: JSONL lines in, JSONL lines out.
//!
//! [`run_session`] drives a [`Server`] from any `BufRead`/`Write` pair —
//! the `fedoo serve` binary passes stdin/stdout; tests and the traffic
//! bench use [`Loopback`], which runs the same loop on a thread over
//! in-process channels (the "no network deps" harness: byte-faithful to
//! the real session, minus the pipes).
//!
//! Exit-code contract: `0` for a clean session, `3` when
//! [`SessionOpts::fail_on_shed`] is set and admission shed at least one
//! request — distinct from the query CLI's `1` (rejected) and `2`
//! (degraded past policy) so CI can tell refusal modes apart.

use crate::server::Server;
use std::io::{BufRead, Read, Write};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;

/// Session behaviour knobs.
#[derive(Debug, Clone, Copy, Default)]
pub struct SessionOpts {
    /// Exit with code 3 if any request was shed.
    pub fail_on_shed: bool,
}

/// What a finished session did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionSummary {
    pub requests: u64,
    pub sheds: u64,
    /// Protocol-level failures (`"ok":false` responses).
    pub errors: u64,
    /// Process exit code implied by the session (`0` or `3`).
    pub exit: u8,
}

/// Longest request line a session reads, newline excluded. A longer line
/// is answered with a `parse` error and skipped, so one hostile line cannot
/// grow the session's buffer without bound; no request this protocol
/// defines comes near it.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// Read the next line of `input` into `buf`: `None` at end of input, the
/// line's text, or why it cannot be a request (too long, not UTF-8).
fn read_line<'b>(
    input: &mut impl BufRead,
    buf: &'b mut Vec<u8>,
) -> std::io::Result<Option<Result<&'b str, String>>> {
    buf.clear();
    let read = Read::take(&mut *input, MAX_LINE_BYTES as u64 + 1).read_until(b'\n', buf)?;
    if read == 0 {
        return Ok(None);
    }
    if buf.last() == Some(&b'\n') {
        buf.pop();
    } else if buf.len() > MAX_LINE_BYTES {
        skip_line(input)?;
        return Ok(Some(Err(format!(
            "request line longer than {MAX_LINE_BYTES} bytes"
        ))));
    }
    Ok(Some(std::str::from_utf8(buf).map_err(|e| {
        format!(
            "request line is not valid UTF-8 (at byte {})",
            e.valid_up_to()
        )
    })))
}

/// Discard the rest of the current line, newline included.
fn skip_line(input: &mut impl BufRead) -> std::io::Result<()> {
    loop {
        let chunk = input.fill_buf()?;
        if chunk.is_empty() {
            return Ok(());
        }
        match chunk.iter().position(|&b| b == b'\n') {
            Some(at) => {
                input.consume(at + 1);
                return Ok(());
            }
            None => {
                let n = chunk.len();
                input.consume(n);
            }
        }
    }
}

/// Run one serving session to end-of-input (or a `shutdown` request).
/// Blank lines and `#` comment lines are skipped, so recorded sessions
/// can be annotated. A line longer than [`MAX_LINE_BYTES`] or not valid
/// UTF-8 gets a `parse` error and the session goes on.
pub fn run_session(
    server: &Server,
    mut input: impl BufRead,
    mut output: impl Write,
    opts: SessionOpts,
) -> std::io::Result<SessionSummary> {
    let mut summary = SessionSummary::default();
    let mut buf = Vec::new();
    while let Some(line) = read_line(&mut input, &mut buf)? {
        let handled = match line {
            Ok(line) => {
                let line = line.trim();
                if line.is_empty() || line.starts_with('#') {
                    continue;
                }
                server.handle_line(line)
            }
            Err(problem) => server.parse_error(&problem),
        };
        summary.requests += 1;
        summary.sheds += u64::from(handled.shed);
        summary.errors += u64::from(handled.response.starts_with("{\"ok\":false"));
        output.write_all(handled.response.as_bytes())?;
        output.write_all(b"\n")?;
        output.flush()?;
        if handled.shutdown {
            break;
        }
    }
    if opts.fail_on_shed && summary.sheds > 0 {
        summary.exit = 3;
    }
    Ok(summary)
}

/// An in-process client connected to a server session running on its
/// own thread — request lines go down a channel, response lines come
/// back on another, through the very same [`run_session`] loop the
/// binary uses.
pub struct Loopback {
    tx: Option<Sender<String>>,
    rx: Receiver<String>,
    session: Option<std::thread::JoinHandle<std::io::Result<SessionSummary>>>,
}

struct ChannelInput {
    rx: Receiver<String>,
    buf: Vec<u8>,
    pos: usize,
}

impl std::io::Read for ChannelInput {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        if self.pos >= self.buf.len() {
            match self.rx.recv() {
                Ok(mut line) => {
                    line.push('\n');
                    self.buf = line.into_bytes();
                    self.pos = 0;
                }
                Err(_) => return Ok(0), // client hung up: EOF
            }
        }
        let n = out.len().min(self.buf.len() - self.pos);
        out[..n].copy_from_slice(&self.buf[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

struct ChannelOutput {
    tx: Sender<String>,
    pending: Vec<u8>,
}

impl std::io::Write for ChannelOutput {
    fn write(&mut self, bytes: &[u8]) -> std::io::Result<usize> {
        self.pending.extend_from_slice(bytes);
        while let Some(nl) = self.pending.iter().position(|b| *b == b'\n') {
            let line: Vec<u8> = self.pending.drain(..=nl).collect();
            let line = String::from_utf8_lossy(&line[..line.len() - 1]).into_owned();
            // A closed receiver just means the client stopped reading.
            let _ = self.tx.send(line);
        }
        Ok(bytes.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

impl Loopback {
    /// Start a session thread over `server`.
    pub fn start(server: Arc<Server>, opts: SessionOpts) -> Self {
        let (req_tx, req_rx) = std::sync::mpsc::channel::<String>();
        let (resp_tx, resp_rx) = std::sync::mpsc::channel::<String>();
        let session = std::thread::spawn(move || {
            let input = std::io::BufReader::new(ChannelInput {
                rx: req_rx,
                buf: Vec::new(),
                pos: 0,
            });
            let output = ChannelOutput {
                tx: resp_tx,
                pending: Vec::new(),
            };
            run_session(&server, input, output, opts)
        });
        Loopback {
            tx: Some(req_tx),
            rx: resp_rx,
            session: Some(session),
        }
    }

    /// Send one request line and wait for its response line.
    pub fn request(&self, line: &str) -> String {
        self.tx
            .as_ref()
            .expect("session still open")
            .send(line.to_string())
            .expect("session thread alive");
        self.rx.recv().expect("session produced a response")
    }

    /// Close the client side and collect the session summary.
    pub fn finish(mut self) -> SessionSummary {
        self.tx.take(); // drop sender: session sees EOF
        self.session
            .take()
            .expect("not yet finished")
            .join()
            .expect("session thread panicked")
            .expect("session I/O is infallible in-process")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::ServeConfig;
    use crate::test_fixtures::library_server;

    #[test]
    fn session_loop_replays_lines_and_honours_shutdown() {
        let server = library_server(ServeConfig::default());
        let input = "\n# a comment\n{\"op\":\"ping\"}\n{\"op\":\"shutdown\"}\n{\"op\":\"ping\"}\n";
        let mut out = Vec::new();
        let summary = run_session(
            &server,
            std::io::BufReader::new(input.as_bytes()),
            &mut out,
            SessionOpts::default(),
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(summary.requests, 2, "shutdown stops the loop");
        assert_eq!(summary.exit, 0);
        assert_eq!(
            text,
            "{\"ok\":true,\"request_id\":\"r1\",\"op\":\"ping\",\"generation\":0}\n\
             {\"ok\":true,\"request_id\":\"r2\",\"op\":\"shutdown\"}\n"
        );
    }

    /// Replay raw `input` bytes through a session; the response lines.
    fn replay(input: &[u8]) -> Vec<String> {
        let server = library_server(ServeConfig::default());
        let mut out = Vec::new();
        run_session(&server, input, &mut out, SessionOpts::default()).unwrap();
        String::from_utf8(out)
            .unwrap()
            .lines()
            .map(str::to_string)
            .collect()
    }

    #[test]
    fn overlong_line_gets_a_parse_error_and_the_session_goes_on() {
        let mut input = vec![b'x'; 2 << 20];
        input.extend_from_slice(b"\n{\"op\":\"ping\"}\n");
        let lines = replay(&input);
        assert_eq!(lines.len(), 2, "{lines:?}");
        assert_eq!(
            lines[0],
            format!(
                "{{\"ok\":false,\"request_id\":\"r1\",\"code\":\"parse\",\
                 \"error\":\"request line longer than {MAX_LINE_BYTES} bytes\"}}"
            )
        );
        assert_eq!(
            lines[1],
            "{\"ok\":true,\"request_id\":\"r2\",\"op\":\"ping\",\"generation\":0}"
        );
        // A line of exactly the bound is read whole (and fails to parse
        // as JSON, not as a line).
        let mut input = vec![b' '; MAX_LINE_BYTES - 2];
        input.extend_from_slice(b"{}\n{\"op\":\"ping\"}");
        let lines = replay(&input);
        assert!(!lines[0].contains("longer than"), "{}", lines[0]);
        assert!(lines[1].contains("\"op\":\"ping\""), "{}", lines[1]);
    }

    #[test]
    fn invalid_utf8_line_gets_a_parse_error_and_the_session_goes_on() {
        let lines = replay(b"{\"op\":\xff}\n{\"op\":\"ping\"}\n");
        assert_eq!(lines.len(), 2, "{lines:?}");
        assert!(
            lines[0].starts_with("{\"ok\":false,\"request_id\":\"r1\",\"code\":\"parse\""),
            "{}",
            lines[0]
        );
        assert!(lines[0].contains("not valid UTF-8"), "{}", lines[0]);
        assert_eq!(
            lines[1],
            "{\"ok\":true,\"request_id\":\"r2\",\"op\":\"ping\",\"generation\":0}"
        );
    }

    #[test]
    fn loopback_round_trips_and_reports_sheds() {
        let server = Arc::new(library_server(ServeConfig {
            admission: crate::admission::AdmissionConfig {
                max_inflight_per_tenant: 1,
                max_queue: 0,
            },
            ..ServeConfig::default()
        }));
        let client = Loopback::start(Arc::clone(&server), SessionOpts { fail_on_shed: true });
        let pong = client.request("{\"op\":\"ping\"}");
        assert!(pong.contains("\"ok\":true"), "{pong}");
        client.request("{\"op\":\"hold\",\"tenant\":\"t1\",\"slots\":1}");
        let shed = client
            .request("{\"op\":\"query\",\"tenant\":\"t1\",\"q\":\"?- <X: book | title: T>.\"}");
        assert!(shed.contains("\"code\":\"shed\""), "{shed}");
        let summary = client.finish();
        assert_eq!(summary.sheds, 1);
        assert_eq!(summary.exit, 3, "--fail-on-shed maps sheds to exit 3");
    }
}
