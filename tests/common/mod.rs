//! Shared line-protocol test client for the serve suites: a blocking
//! newline-delimited JSON client over TCP, plus response accessors.

#![allow(dead_code)] // each integration test uses a different subset

use ebc_serve::json::{self, Value};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One protocol connection. Requests and responses are 1:1 and ordered on
/// an unsubscribed connection; [`Client::recv`] reads exactly one line.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connect with a generous read timeout so a server bug fails the
    /// test instead of hanging the suite.
    pub fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect to serve frontend");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("set read timeout");
        stream.set_nodelay(true).ok();
        Client {
            reader: BufReader::new(stream.try_clone().expect("clone stream")),
            writer: stream,
        }
    }

    /// Send one request line.
    pub fn send(&mut self, line: &str) {
        writeln!(self.writer, "{line}").expect("send request line");
    }

    /// Send to a possibly-dead peer (post-crash probes): a pipe error just
    /// means the close already reached us, which the following
    /// [`Client::recv_line`] will report as `None`.
    pub fn send_lossy(&mut self, line: &str) {
        let _ = writeln!(self.writer, "{line}");
    }

    /// Read one response/event line; `None` when the server closed (or
    /// reset — an aborting process does not FIN politely) the connection.
    pub fn recv_line(&mut self) -> Option<String> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => None,
            Ok(_) => Some(line.trim_end().to_string()),
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::ConnectionReset | std::io::ErrorKind::BrokenPipe
                ) =>
            {
                None
            }
            Err(e) => panic!("recv failed: {e}"),
        }
    }

    /// Read one line and parse it.
    pub fn recv(&mut self) -> Value {
        let line = self.recv_line().expect("server closed the connection");
        json::parse(&line).unwrap_or_else(|e| panic!("bad response {line:?}: {e}"))
    }

    /// One full round trip.
    pub fn request(&mut self, line: &str) -> Value {
        self.send(line);
        self.recv()
    }

    /// Round trip that must come back `"ok":true`.
    pub fn request_ok(&mut self, line: &str) -> Value {
        let resp = self.request(line);
        assert!(is_ok(&resp), "request {line:?} failed: {}", resp.to_json());
        resp
    }
}

/// The canonical `apply` request line the serve suites send: `id` and the
/// encoded update batch.
pub fn apply_line(id: u64, batch: &[streaming_bc::Update]) -> String {
    let mut fields = std::collections::BTreeMap::new();
    fields.insert("id".to_string(), Value::from(id));
    fields.insert("cmd".to_string(), Value::from("apply"));
    fields.insert(
        "updates".to_string(),
        Value::Arr(batch.iter().map(ebc_serve::encode_update).collect()),
    );
    Value::Obj(fields).to_json()
}

/// `"ok":true`?
pub fn is_ok(v: &Value) -> bool {
    v.get("ok").and_then(Value::as_bool) == Some(true)
}

/// The `error.kind` string of a failed response.
pub fn error_kind(v: &Value) -> &str {
    v.get("error")
        .and_then(|e| e.get("kind"))
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("no error.kind in {}", v.to_json()))
}

/// A required non-negative integer field.
pub fn u64_field(v: &Value, key: &str) -> u64 {
    v.get(key)
        .and_then(Value::as_u64)
        .unwrap_or_else(|| panic!("no u64 field {key:?} in {}", v.to_json()))
}

/// A float-array field as raw bits (the bitwise-equality currency of the
/// serve suites).
pub fn bits_field(v: &Value, key: &str) -> Vec<u64> {
    v.get(key)
        .and_then(Value::as_arr)
        .unwrap_or_else(|| panic!("no array field {key:?} in {}", v.to_json()))
        .iter()
        .map(|x| x.as_f64().expect("score is a number").to_bits())
        .collect()
}

/// The `top` field of a `top_k` response or event: `(id, score bits)` in
/// rank order.
pub fn top_field(v: &Value) -> Vec<(u32, u64)> {
    v.get("top")
        .and_then(Value::as_arr)
        .unwrap_or_else(|| panic!("no `top` array in {}", v.to_json()))
        .iter()
        .map(|entry| {
            let pair = entry.as_arr().expect("[id, score]");
            (
                pair[0].as_u64().expect("vertex id") as u32,
                pair[1].as_f64().expect("score is a number").to_bits(),
            )
        })
        .collect()
}

/// Slice of `f64` to bits, for comparing library-side scores to the wire.
pub fn to_bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// Fresh scratch directory under the system temp dir.
pub fn tmpdir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir()
        .join("sbc_serve_tests")
        .join(format!("{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The first `count` vertex pairs that are not edges of `g`, as additions
/// — always a valid update stream against `g`.
pub fn non_edge_adds(g: &streaming_bc::graph::Graph, count: usize) -> Vec<streaming_bc::Update> {
    let n = g.n() as u32;
    let mut out = Vec::new();
    for u in 0..n {
        for v in (u + 1)..n {
            if !g.has_edge(u, v) {
                out.push(streaming_bc::Update::add(u, v));
                if out.len() == count {
                    return out;
                }
            }
        }
    }
    panic!("graph too dense for {count} non-edges");
}

/// Write a whitespace edgelist the `sbc` binary (and the oracle, through
/// the same loader) can read back.
pub fn write_edgelist(g: &streaming_bc::graph::Graph, path: &std::path::Path) {
    use std::fmt::Write as _;
    let mut text = String::new();
    for (key, _) in g.edges() {
        let (u, v) = key.endpoints();
        writeln!(text, "{u} {v}").unwrap();
    }
    std::fs::write(path, text).expect("write edgelist");
}

/// A spawned `sbc` child process (any line-protocol subcommand: `serve`,
/// `node`, `coord`), already past its `ready` line.
pub struct SbcChild {
    pub child: std::process::Child,
    pub addr: SocketAddr,
    pub stdout: BufReader<std::process::ChildStdout>,
}

/// The serve suites' historical name for [`SbcChild`].
pub type ServeChild = SbcChild;

impl SbcChild {
    /// Launch `sbc serve <args>` on an ephemeral TCP port and wait for
    /// the `ready` handshake, capturing the bound address.
    pub fn spawn(args: &[&str], envs: &[(&str, &str)]) -> SbcChild {
        SbcChild::spawn_cmd("serve", args, envs)
    }

    /// Launch `sbc <subcommand> <args>` on an ephemeral TCP port and wait
    /// for the `ready` handshake, capturing the bound address. Every
    /// network-facing subcommand prints the same `listening tcp=<addr>` /
    /// `ready` lines, so one spawner serves all suites.
    pub fn spawn_cmd(subcommand: &str, args: &[&str], envs: &[(&str, &str)]) -> SbcChild {
        let mut cmd = std::process::Command::new(env!("CARGO_BIN_EXE_sbc"));
        cmd.arg(subcommand)
            .args(args)
            .args(["--tcp", "127.0.0.1:0"])
            .stdout(std::process::Stdio::piped())
            .stderr(std::process::Stdio::null());
        for (k, v) in envs {
            cmd.env(k, v);
        }
        let mut child = cmd.spawn().expect("spawn sbc child");
        let mut stdout = BufReader::new(child.stdout.take().expect("child stdout"));
        let mut addr = None;
        loop {
            let mut line = String::new();
            if stdout.read_line(&mut line).expect("read child stdout") == 0 {
                panic!("sbc {subcommand} exited before becoming ready");
            }
            if let Some(rest) = line.trim().strip_prefix("listening tcp=") {
                addr = Some(rest.parse().expect("parse bound address"));
            }
            if line.trim() == "ready" {
                break;
            }
        }
        SbcChild {
            child,
            addr: addr.expect("child reported no tcp address"),
            stdout,
        }
    }

    /// Deliver a signal (e.g. `TERM`) through the shell's `kill`.
    pub fn signal(&self, sig: &str) {
        let status = std::process::Command::new("sh")
            .arg("-c")
            .arg(format!("kill -{sig} {}", self.child.id()))
            .status()
            .expect("run kill");
        assert!(status.success(), "kill -{sig} failed");
    }

    /// Wait for exit, collecting the rest of stdout.
    pub fn wait(mut self) -> (std::process::ExitStatus, String) {
        let mut rest = String::new();
        std::io::Read::read_to_string(&mut self.stdout, &mut rest).expect("drain child stdout");
        let status = self.child.wait().expect("wait for child");
        (status, rest)
    }
}
