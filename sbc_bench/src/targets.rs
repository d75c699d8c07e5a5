//! The five embodiments under test, each behind the same three calls - one
//! closed-loop step, the exact reduction, tear-down - and all of them built
//! from the repository's public API only.

use crate::stats::median;
use ebc_serve::json::{self, Value};
use ebc_serve::{encode_update, Server, ServerConfig, ServerHandle};
use std::io::{BufRead, BufReader, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::time::Instant;
use streaming_bc::cluster::{SimBuilder, SimCluster};
use streaming_bc::core::Scores;
use streaming_bc::graph::Graph;
use streaming_bc::serve::ServedSession;
use streaming_bc::{Backend, Checkpoint, CompactionConfig, Session, Update};

/// `do_durable` seals its history WAL at this size: 37 bytes a record, so
/// one seal every ~110 updates, several per round and ~20 per run - the
/// seals are the write path's periodic background work and belong in the
/// tail.
pub const LIVE_WAL_BYTES: u64 = 4 << 10;
/// `Session::open` takes ~10 ms; a single call does not repeat within a
/// tenth, the median of this many does.
const REOPEN_REPS: usize = 5;

pub type Bits = (Vec<u64>, Vec<u64>);

pub fn bits(s: &Scores) -> Bits {
    let b = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect();
    (b(&s.vbc), b(&s.ebc))
}

/// A directory inside the checkout for everything a run writes, removed
/// when the run ends.
pub struct Scratch {
    root: PathBuf,
    next: usize,
}

impl Scratch {
    pub fn new() -> std::io::Result<Self> {
        let root = PathBuf::from(".bench_out").join(format!("run-{}", std::process::id()));
        std::fs::create_dir_all(&root)?;
        Ok(Scratch { root, next: 0 })
    }

    /// A fresh, not yet created, sub-directory path.
    pub fn dir(&mut self, label: &str) -> PathBuf {
        self.next += 1;
        self.root.join(format!("{label}-{}", self.next))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

pub trait Target {
    /// Apply `batch` the way this workload's caller does, returning when the
    /// caller would see it done.
    fn step(&mut self, batch: &[Update]) -> Result<(), String>;
    /// The partition-invariant exact scores.
    fn exact(&mut self) -> Result<Scores, String>;
    /// Checks and timings that follow the window; tears the target down.
    /// Returns workload-specific metrics by name.
    fn finish(self: Box<Self>) -> Result<Vec<(&'static str, f64)>, String>;
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// `mo_stream`, `par_batch` and `do_durable`: a `Session` called directly.
pub struct SessionTarget {
    pub session: Session,
    /// `par_batch` reads the scores after each batch; the others apply one
    /// update per call.
    pub batched: bool,
}

impl SessionTarget {
    pub fn memory(g: &Graph, workers: usize) -> Result<Self, String> {
        let session = Session::builder()
            .backend(Backend::Memory)
            .workers(workers)
            .build(g)
            .map_err(err)?;
        Ok(SessionTarget {
            session,
            batched: workers > 1,
        })
    }

    pub fn disk(g: &Graph, dir: &Path, checkpoint: Checkpoint) -> Result<Self, String> {
        let session = Session::builder()
            .backend(Backend::Disk(dir.to_path_buf()))
            .checkpoint(checkpoint)
            .compaction(CompactionConfig {
                keep_history: true,
                max_live_wal_bytes: LIVE_WAL_BYTES,
            })
            .build(g)
            .map_err(err)?;
        Ok(SessionTarget {
            session,
            batched: false,
        })
    }
}

impl Target for SessionTarget {
    fn step(&mut self, batch: &[Update]) -> Result<(), String> {
        if self.batched {
            self.session.apply_stream(batch).map_err(err)?;
            std::hint::black_box(self.session.scores().map_err(err)?);
            Ok(())
        } else {
            batch
                .iter()
                .try_for_each(|&u| self.session.apply(u).map_err(err))
        }
    }

    fn exact(&mut self) -> Result<Scores, String> {
        Ok(self.session.reduce_exact().map_err(err)?.scores)
    }

    /// A durable session is replayed to mid-history, dropped and reopened:
    /// the reopened scores must equal the pre-drop bits without a Brandes
    /// iteration.
    fn finish(mut self: Box<Self>) -> Result<Vec<(&'static str, f64)>, String> {
        let Some(dir) = self.session.dir().map(Path::to_path_buf) else {
            return Ok(Vec::new());
        };
        let before = bits(&self.exact()?);
        let seq = self.session.seq();
        let t0 = Instant::now();
        std::hint::black_box(self.session.replay_to(seq / 2).map_err(err)?);
        let replay_mid_s = t0.elapsed().as_secs_f64();
        drop(self);
        let mut opens = Vec::new();
        for _ in 0..REOPEN_REPS {
            let t0 = Instant::now();
            let mut reopened = Session::open(&dir).map_err(err)?;
            opens.push(t0.elapsed().as_secs_f64());
            if reopened.seq() != seq {
                return Err(format!("reopened at seq {}, not {seq}", reopened.seq()));
            }
            if reopened.brandes_runs().unwrap_or(0) != 0 {
                return Err("reopen re-ran the Brandes bootstrap".into());
            }
            let after = bits(&reopened.reduce_exact().map_err(err)?.scores);
            if after != before {
                return Err("reopened scores differ from the pre-drop bits".into());
            }
        }
        Ok(vec![
            ("reopen_s", median(&opens)),
            ("replay_mid_s", replay_mid_s),
        ])
    }
}

/// One blocking protocol connection to the serve frontend.
pub struct Wire {
    pub reader: BufReader<TcpStream>,
    pub writer: TcpStream,
}

impl Wire {
    pub fn connect(addr: SocketAddr) -> Result<Wire, String> {
        let stream = TcpStream::connect(addr).map_err(err)?;
        stream.set_nodelay(true).map_err(err)?;
        Ok(Wire {
            reader: BufReader::new(stream.try_clone().map_err(err)?),
            writer: stream,
        })
    }

    pub fn send(&mut self, line: &str) -> Result<(), String> {
        writeln!(self.writer, "{line}").map_err(err)
    }

    pub fn roundtrip(&mut self, line: &str) -> Result<String, String> {
        self.send(line)?;
        recv_line(&mut self.reader)
    }
}

/// The next response line; an error unless the server answered `ok`.
pub fn recv_line(reader: &mut BufReader<TcpStream>) -> Result<String, String> {
    let mut resp = String::new();
    if reader.read_line(&mut resp).map_err(err)? == 0 {
        return Err("connection closed".into());
    }
    if resp.contains("\"ok\":true") {
        Ok(resp)
    } else {
        Err(format!("request failed: {}", resp.trim_end()))
    }
}

/// The `apply` frame for `batch`, as a client puts it on the wire.
pub fn apply_line(batch: &[Update]) -> String {
    json::obj([
        ("cmd", Value::from("apply")),
        (
            "updates",
            Value::Arr(batch.iter().map(encode_update).collect()),
        ),
    ])
    .to_json()
}

pub const TOP_K_LINE: &str = r#"{"cmd":"top_k","k":10}"#;

/// `serve_online`: an in-process server over TCP loopback on a memory
/// session, driven through one writer connection.
pub struct ServeTarget {
    handle: ServerHandle,
    pub writer: Wire,
}

impl ServeTarget {
    /// The served target and a second connection for the reader. Drop the
    /// reader before [`Target::finish`]: the server drains its connections.
    pub fn spawn(g: &Graph) -> Result<(Self, Wire), String> {
        let session = SessionTarget::memory(g, 1)?.session;
        let handle =
            Server::spawn(ServedSession::new(session), ServerConfig::default()).map_err(err)?;
        let addr = handle.tcp_addr().ok_or("server has no tcp address")?;
        let writer = Wire::connect(addr)?;
        Ok((ServeTarget { handle, writer }, Wire::connect(addr)?))
    }
}

impl Target for ServeTarget {
    fn step(&mut self, batch: &[Update]) -> Result<(), String> {
        self.writer.roundtrip(&apply_line(batch)).map(drop)
    }

    fn exact(&mut self) -> Result<Scores, String> {
        let resp = self.writer.roundtrip(r#"{"cmd":"reduce_exact"}"#)?;
        let value = json::parse(&resp).map_err(err)?;
        let floats = |key: &str| -> Result<Vec<f64>, String> {
            let items = value.get(key).and_then(Value::as_arr);
            let items = items.ok_or_else(|| format!("reduce_exact reply has no `{key}`"))?;
            let parsed = items.iter().map(|v| v.as_f64());
            parsed
                .collect::<Option<_>>()
                .ok_or_else(|| format!("`{key}` holds a non-number"))
        };
        Ok(Scores {
            vbc: floats("vbc")?,
            ebc: floats("ebc")?,
        })
    }

    fn finish(self: Box<Self>) -> Result<Vec<(&'static str, f64)>, String> {
        let ServeTarget { handle, writer } = *self;
        handle.shutdown();
        drop(writer);
        handle.join();
        Ok(Vec::new())
    }
}

/// `fleet_repl`: two shards with one follower each on the simulated
/// network (real serialized frames, one OS thread per node).
pub struct FleetTarget(pub SimCluster);

impl FleetTarget {
    pub fn launch(builder: SimBuilder, g: &Graph) -> Result<Self, String> {
        builder.launch(g).map(FleetTarget).map_err(err)
    }
}

impl Target for FleetTarget {
    fn step(&mut self, batch: &[Update]) -> Result<(), String> {
        batch
            .iter()
            .try_for_each(|&u| self.0.coord.apply(u).map(drop).map_err(err))
    }

    fn exact(&mut self) -> Result<Scores, String> {
        self.0.coord.reduce_exact().map_err(err)
    }

    fn finish(self: Box<Self>) -> Result<Vec<(&'static str, f64)>, String> {
        self.0.shutdown();
        Ok(Vec::new())
    }
}
