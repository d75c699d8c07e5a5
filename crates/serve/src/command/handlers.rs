//! Command execution: route a parsed [`Command`] to the snapshot read
//! path or the writer task, and render the response line.
//!
//! Runs on the connection's reader thread. Reads (`ping`, `scores`,
//! `top_k`, `stats`) answer from the latest published [`Snapshot`] without
//! ever touching the engine; everything else becomes a `Job` on the
//! bounded writer queue — the submit can block (that is the backpressure)
//! but the reply always arrives because the writer answers every job it
//! dequeues, and a disconnected queue maps to a `shutting_down` error.

use super::{encode_error, parser, Command, Request, WireError};
use crate::engine::MoveReport;
use crate::json::{obj, Value};
use crate::server::{Job, Shared, Snapshot, Subscription};
use ebc_core::{Error, ErrorKind};
use std::sync::atomic::Ordering;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::Arc;

/// Everything a connection needs to execute commands.
pub(crate) struct ConnCtx {
    pub(crate) shared: Arc<Shared>,
    /// This connection's outbound line queue (responses + events).
    pub(crate) out: SyncSender<String>,
    /// Job-sender clone taken at accept time; `None` once the server
    /// started draining.
    pub(crate) jobs: Option<SyncSender<Job>>,
}

impl ConnCtx {
    /// Execute one raw request line, sending the response (and any
    /// subscription ack) through the outbound queue. Returns `false` when
    /// the connection should close (outbound queue gone).
    pub(crate) fn handle_line(&mut self, line: &str) -> bool {
        if line.trim().is_empty() {
            return true; // blank keep-alive lines are fine
        }
        let response = match parser::parse_request(line) {
            Ok(req) => self.dispatch(req),
            Err(err) => Some(wire_error_response(&err)),
        };
        match response {
            Some(line) => self.out.send(line).is_ok(),
            // the writer task already delivered the line (subscribe ack)
            None => true,
        }
    }

    /// Render a transport-level frame problem (oversized, not UTF-8) as a
    /// structured error. The connection survives.
    pub(crate) fn handle_bad_frame(&mut self, err: WireError) -> bool {
        self.out.send(wire_error_response(&err)).is_ok()
    }

    /// Returns the response line to send, or `None` when the writer task
    /// already enqueued it (the subscribe ack travels with the job so the
    /// client never sees a pushed event before its ack).
    fn dispatch(&mut self, req: Request) -> Option<String> {
        let Request { id, cmd } = req;
        // a degraded server (unresumable session directory) answers every
        // command except ping with its typed opening error
        if let Some(err) = &self.shared.unavailable {
            if !matches!(cmd, Command::Ping) {
                return Some(error_response(id, err));
            }
        }
        Some(match cmd {
            Command::Ping => ok_response(id, [("pong", Value::Bool(true))].into()),
            Command::Scores => {
                let snap = self.snapshot();
                ok_response(
                    id,
                    vec![
                        ("seq", Value::from(snap.seq)),
                        ("epoch", Value::from(snap.epoch)),
                        (
                            "vbc",
                            Value::Arr(snap.index.scores_iter().map(Value::Num).collect()),
                        ),
                    ],
                )
            }
            Command::TopK { k } => {
                // O(k + log n) walk of the published index — no re-sort
                let snap = self.snapshot();
                ok_response(
                    id,
                    vec![
                        ("seq", Value::from(snap.seq)),
                        ("epoch", Value::from(snap.epoch)),
                        ("top", top_array(&snap.index.top_entries(k))),
                    ],
                )
            }
            Command::RankOf { v } => {
                let snap = self.snapshot();
                match snap.index.rank_of(v) {
                    Some(rank) => ok_response(
                        id,
                        vec![
                            ("seq", Value::from(snap.seq)),
                            ("epoch", Value::from(snap.epoch)),
                            ("v", Value::from(v as u64)),
                            ("rank", Value::from(rank)),
                            (
                                "percentile",
                                Value::Num(snap.index.percentile(v).unwrap_or(0.0)),
                            ),
                            ("score", Value::Num(snap.index.score(v).unwrap_or(f64::NAN))),
                        ],
                    ),
                    None => {
                        error_response(id, &Error::invalid(format!("vertex {v} is not indexed")))
                    }
                }
            }
            Command::Stats => {
                let snap = self.snapshot();
                let shared = &self.shared;
                let mut fields = vec![
                    ("seq", Value::from(snap.seq)),
                    ("epoch", Value::from(snap.epoch)),
                    ("n", Value::from(snap.info.n)),
                    ("m", Value::from(snap.info.m)),
                    ("workers", Value::from(snap.info.workers)),
                    ("backend", Value::from(snap.info.backend.clone())),
                    (
                        "connections",
                        Value::from(shared.connections.load(Ordering::SeqCst)),
                    ),
                    (
                        "subscribers",
                        Value::from(shared.subscribers.load(Ordering::SeqCst)),
                    ),
                    (
                        "accepted",
                        Value::from(shared.accepted.load(Ordering::SeqCst)),
                    ),
                ];
                if let Some(v) = snap.info.map_version {
                    fields.push(("map_version", Value::from(v)));
                }
                if let Some(v) = snap.info.live_wal_bytes {
                    fields.push(("live_wal_bytes", Value::from(v)));
                }
                if let Some(v) = snap.info.sealed_history_bytes {
                    fields.push(("sealed_history_bytes", Value::from(v)));
                }
                if let Some(v) = snap.info.last_compaction_seq {
                    fields.push(("last_compaction_seq", Value::from(v)));
                }
                ok_response(id, fields)
            }
            Command::Apply { updates } => {
                let applied = updates.len();
                match self.roundtrip(|reply| Job::Apply { updates, reply }) {
                    Ok((first, last)) => ok_response(
                        id,
                        vec![
                            ("applied", Value::from(applied)),
                            ("seq_first", Value::from(first)),
                            ("seq_last", Value::from(last)),
                        ],
                    ),
                    Err(err) => error_response(id, &err),
                }
            }
            Command::ReduceExact => match self.roundtrip(|reply| Job::ReduceExact { reply }) {
                Ok((vbc, ebc, wall)) => ok_response(
                    id,
                    vec![
                        ("vbc", float_array(&vbc)),
                        ("ebc", float_array(&ebc)),
                        ("wall_us", Value::from(wall.as_micros() as u64)),
                    ],
                ),
                Err(err) => error_response(id, &err),
            },
            Command::Checkpoint => match self.roundtrip(|reply| Job::Checkpoint { reply }) {
                Ok(()) => ok_response(id, vec![("checkpointed", Value::Bool(true))]),
                Err(err) => error_response(id, &err),
            },
            Command::Handoff { source, to } => {
                match self.roundtrip(|reply| Job::Handoff { source, to, reply }) {
                    Ok(report) => ok_response(id, move_fields(&report)),
                    Err(err) => error_response(id, &err),
                }
            }
            Command::Rebalance { threshold } => {
                match self.roundtrip(|reply| Job::Rebalance { threshold, reply }) {
                    Ok(report) => ok_response(id, move_fields(&report)),
                    Err(err) => error_response(id, &err),
                }
            }
            Command::Subscribe { k } => {
                let sub = Subscription {
                    k,
                    out: self.out.clone(),
                    last: Vec::new(),
                };
                let ack = ok_response(
                    id.clone(),
                    vec![("subscribed", Value::from("top_k")), ("k", Value::from(k))],
                );
                match self.roundtrip(|reply| Job::Subscribe { sub, ack, reply }) {
                    Ok(()) => return None, // ack sent by the writer task
                    Err(err) => error_response(id, &err),
                }
            }
            Command::Shutdown => {
                self.shared.trigger_shutdown();
                ok_response(id, vec![("draining", Value::Bool(true))])
            }
        })
    }

    fn snapshot(&self) -> Arc<Snapshot> {
        Arc::clone(&self.shared.snapshot.read().expect("snapshot lock"))
    }

    /// Submit a job to the writer task and wait for its reply. Blocking on
    /// a full queue is the designed backpressure; a gone writer (drain
    /// finished) maps to `ShuttingDown`.
    fn roundtrip<T>(
        &mut self,
        job: impl FnOnce(SyncSender<Result<T, Error>>) -> Job,
    ) -> Result<T, Error> {
        let draining = || Error::new(ErrorKind::ShuttingDown, "server is shutting down");
        if self.shared.shutdown.load(Ordering::SeqCst) {
            self.jobs = None;
            return Err(draining());
        }
        let sender = self.jobs.as_ref().ok_or_else(draining)?;
        let (reply_tx, reply_rx): (_, Receiver<Result<T, Error>>) = sync_channel(1);
        if sender.send(job(reply_tx)).is_err() {
            self.jobs = None;
            return Err(draining());
        }
        // a reply dropped unanswered means the writer aborted or panicked:
        // nothing trustworthy remains
        reply_rx
            .recv()
            .unwrap_or_else(|_| Err(Error::lost("writer task is gone")))
    }
}

/// `{"id":...,"ok":true, ...fields}`
fn ok_response(id: Value, fields: Vec<(&str, Value)>) -> String {
    let mut pairs = vec![("id", id), ("ok", Value::Bool(true))];
    pairs.extend(fields);
    Value::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect()).to_json()
}

/// `{"id":...,"ok":false,"error":{"kind":...,"message":...,...}}`: the
/// engine's error as [`encode_error`] writes it.
fn error_response(id: Value, err: &Error) -> String {
    let error = encode_error(err);
    obj([("id", id), ("ok", Value::Bool(false)), ("error", error)]).to_json()
}

/// A request that never reached the engine (no `id` could be read).
fn wire_error_response(err: &WireError) -> String {
    let error = obj([
        ("kind", Value::from(err.kind)),
        ("message", Value::from(err.message.clone())),
    ]);
    obj([
        ("id", Value::Null),
        ("ok", Value::Bool(false)),
        ("error", error),
    ])
    .to_json()
}

/// The pushed `top_k` event line (see the subscription docs in
/// [`crate::server`]).
pub(crate) fn top_k_event(
    seq: u64,
    epoch: u64,
    entries: &[(u32, f64)],
    entered: &[u32],
    left: &[u32],
) -> String {
    obj([
        ("event", Value::from("top_k")),
        ("seq", Value::from(seq)),
        ("epoch", Value::from(epoch)),
        ("top", top_array(entries)),
        (
            "entered",
            Value::Arr(entered.iter().map(|&v| Value::from(v as u64)).collect()),
        ),
        (
            "left",
            Value::Arr(left.iter().map(|&v| Value::from(v as u64)).collect()),
        ),
    ])
    .to_json()
}

fn float_array(xs: &[f64]) -> Value {
    Value::Arr(xs.iter().map(|&x| Value::Num(x)).collect())
}

fn top_array(entries: &[(u32, f64)]) -> Value {
    Value::Arr(
        entries
            .iter()
            .map(|&(v, s)| Value::Arr(vec![Value::from(v as u64), Value::Num(s)]))
            .collect(),
    )
}

fn move_fields(report: &MoveReport) -> Vec<(&'static str, Value)> {
    vec![
        (
            "moves",
            Value::Arr(
                report
                    .moves
                    .iter()
                    .map(|&(s, from, to)| {
                        Value::Arr(vec![
                            Value::from(s as u64),
                            Value::from(from),
                            Value::from(to),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("map_version", Value::from(report.map_version)),
    ]
}
