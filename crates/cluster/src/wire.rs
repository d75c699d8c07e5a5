//! The shard-node wire protocol: typed messages ⇄ newline-delimited JSON.
//!
//! Frames ride the exact stack PR 7 built for the serve frontend — one JSON
//! object per line, framed by [`ebc_serve::proto::LineReader`] on stream
//! transports, values rendered by [`ebc_serve::json`]'s canonical
//! shortest-round-trip serializer — so every guarantee the serve codec pins
//! (lossless finite `f64`, fragmentation tolerance, typed rejection of
//! garbage) carries over to node-to-node traffic unchanged.
//!
//! Exactness rules:
//!
//! * `f64` payloads (δ arrays, scores) use JSON numbers: the serializer is
//!   shortest-round-trip, so finite values survive bitwise. Non-finite
//!   scores never occur (betweenness terms are finite by construction).
//! * `u64` payloads (σ counts, wal indexes, seq/version counters) are JSON
//!   numbers only up to `2^53`, the last exactly-representable integer;
//!   larger values are encoded as decimal **strings** and either form is
//!   accepted on decode ([`u64_value`]/[`u64_of`]). σ on dense graphs
//!   overflows `2^53` easily, and a rounded σ would silently break the
//!   bitwise-replication contract. The `i128` fixed-point values of an
//!   [`ExactSum`] follow the same rule, signed.
//! * structural graph snapshots travel as hex-encoded
//!   [`Graph::snapshot_bytes`](ebc_graph::Graph::snapshot_bytes) — the
//!   checksummed byte-exact format restarts already rely on, so a
//!   bootstrapped replica walks neighbours in the same order as the
//!   coordinator's replica (adjacency order is part of the bitwise
//!   contract).
//!
//! A refusal travels as the node's own [`Error`], encoded by the serve
//! crate's [`encode_error`] — the same object a serve client sees, so a
//! kind reads the same on both wires.
//!
//! Decoding never panics: every malformed frame — garbage bytes, valid JSON
//! of the wrong shape, out-of-range ids, truncated hex — is a `Corrupt`
//! [`Error`].

use ebc_core::bd::ExportedRecord;
use ebc_core::exact::ExactSum;
use ebc_core::scores::Scores;
use ebc_core::state::Update;
use ebc_core::Error;
use ebc_graph::{EdgeOp, VertexId};
use ebc_serve::json::{self, obj, Value};
use ebc_serve::{decode_error, encode_error};
use std::fmt;

/// Identifies one process in the cluster: the coordinator is always
/// [`COORD`], shard nodes get ids `≥ 1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

/// The coordinator's well-known node id.
pub const COORD: NodeId = NodeId(0);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A node's current role in its shard's replication group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// No shard state (fresh, or demoted/fenced).
    Idle,
    /// Serves its shard: applies ops and ships them to its follower.
    Leader,
    /// Replays the leader's op stream; promotable.
    Follower,
}

impl Role {
    fn tag(self) -> &'static str {
        match self {
            Role::Idle => "idle",
            Role::Leader => "leader",
            Role::Follower => "follower",
        }
    }

    fn from_tag(s: &str) -> Option<Role> {
        Some(match s {
            "idle" => Role::Idle,
            "leader" => Role::Leader,
            "follower" => Role::Follower,
            _ => return None,
        })
    }
}

/// One replicated state transition of a shard — the unit of the per-shard
/// op stream. Op `i` a follower replays is the op its leader ran at index
/// `i`, and replaying ops in index order reproduces the leader's state
/// bitwise.
#[derive(Debug, Clone, PartialEq)]
pub enum ShardOp {
    /// Entry 0: the shard's birth — structural snapshot plus the owned
    /// source set to Brandes-bootstrap.
    Init {
        /// Shard index in the coordinator's map.
        shard: u32,
        /// `Graph::snapshot_bytes` of the bootstrap graph.
        snapshot: Vec<u8>,
        /// Sources this shard owns at bootstrap.
        sources: Vec<VertexId>,
    },
    /// One edge update (the map task), with an optional adoption of a
    /// newly arrived source by this shard.
    Apply {
        /// The edge update.
        update: Update,
        /// New source this shard adopts, if the map assigned it here.
        adopt: Option<VertexId>,
    },
    /// Donor half of a handoff: stop owning `source`, keeping its record
    /// until the matching [`ShardOp::Retire`].
    Export {
        /// The source leaving this shard.
        source: VertexId,
    },
    /// Recipient half of a handoff: install a record exported elsewhere.
    Import {
        /// The full `BD[·]` record being installed.
        record: ExportedRecord,
    },
    /// After the handoff committed: drop the record the export kept.
    Retire {
        /// The source handed off.
        source: VertexId,
    },
}

/// Coordinator → node commands (always wrapped in [`NodeMsg::Request`]).
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Become leader of `shard`: build the graph replica, Brandes-bootstrap
    /// the sources and replicate that `Init` (op 0) to `follower` (if any).
    Bootstrap {
        /// Shard index.
        shard: u32,
        /// `Graph::snapshot_bytes` of the bootstrap graph.
        snapshot: Vec<u8>,
        /// Owned source set.
        sources: Vec<VertexId>,
        /// Follower to ship ops to, with an optional dial hint for
        /// stream transports.
        follower: Option<NodeId>,
        /// Transport address of the follower (TCP embodiment only).
        follower_hint: Option<String>,
    },
    /// Apply one update as WAL entry `index` (exactly-once by index:
    /// `index < wal_len` answers the cached outcome without re-applying).
    Apply {
        /// Expected WAL position of this op.
        index: u64,
        /// The edge update.
        update: Update,
        /// Source this shard adopts, if any.
        adopt: Option<VertexId>,
    },
    /// Read the shard's incrementally maintained partial scores (the fast
    /// reduce term).
    Partials,
    /// Sum the owned sources' exact contributions.
    ExactSum,
    /// Donor half of a handoff as WAL entry `index`, exactly-once like
    /// `Apply`: a deduplicated export answers with the record it kept.
    Export {
        /// Expected WAL position of this op.
        index: u64,
        /// Source to export.
        source: VertexId,
    },
    /// Recipient half of a handoff as WAL entry `index`.
    Import {
        /// Expected WAL position of this op.
        index: u64,
        /// Record to install.
        record: ExportedRecord,
    },
    /// Drop the record an export kept, as WAL entry `index` (the handoff
    /// committed).
    Retire {
        /// Expected WAL position of this op.
        index: u64,
        /// Source handed off.
        source: VertexId,
    },
    /// Follower → leader promotion (failover), carrying the raised fencing
    /// token.
    Promote,
    /// Fence and reset: drop shard state, become idle at the carried
    /// version. Sent to a stale leader after a partition heals.
    Demote,
    /// Introspection (never fenced, never bumps the version).
    Status,
    /// Drain and exit.
    Shutdown,
}

impl Request {
    /// Requests that bypass fencing and do not raise the node's version.
    pub fn is_unfenced(&self) -> bool {
        matches!(self, Request::Status | Request::Shutdown)
    }
}

/// Successful reply payloads.
#[derive(Debug, Clone, PartialEq)]
pub enum ReplyBody {
    /// Generic acknowledgement.
    Done {
        /// Node's op count after the op.
        wal_len: u64,
        /// True when the op's index was already counted (duplicate
        /// delivery was absorbed without re-applying).
        deduped: bool,
        /// True when the node serves without a live follower (replication
        /// gave up mid-op, or none was ever assigned).
        degraded: bool,
    },
    /// Bootstrap acknowledgement.
    Bootstrapped {
        /// Op count (1: the `Init` op).
        wal_len: u64,
        /// Brandes iterations run locally (the follower runs its own).
        brandes: u64,
    },
    /// The shard's partial scores.
    Partials {
        /// Accumulated partial scores.
        scores: Scores,
        /// Vertices whose partial `vbc` changed since the previous
        /// `Partials` reply (the rank-index feed).
        dirty: Vec<VertexId>,
    },
    /// The shard's term of the exact reduce.
    ExactSum {
        /// The owned sources' exact sum, with its source count.
        sum: ExactSum,
    },
    /// The exported record (donor handoff half).
    Exported {
        /// The record that left the store.
        record: ExportedRecord,
        /// Op count after the export.
        wal_len: u64,
        /// As in [`ReplyBody::Done`].
        degraded: bool,
    },
    /// Introspection snapshot.
    Status {
        /// Current role.
        role: Role,
        /// Highest fencing token seen.
        version: u64,
        /// Shard index, when shard state exists.
        shard: Option<u32>,
        /// Op count.
        wal_len: u64,
        /// Owned sources.
        sources: u64,
        /// Requests rejected by the fencing rule since birth.
        fenced: u64,
    },
}

/// A node's answer to a [`NodeMsg::Request`].
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// Success.
    Ok(ReplyBody),
    /// Refusal: a request under an older fencing token is `Fenced`, one the
    /// node's role or op count cannot take is `Invalid`, and a failure of the
    /// shard state is whatever kind the shard raised.
    Err(Error),
}

/// Every frame of the node protocol.
#[derive(Debug, Clone, PartialEq)]
pub enum NodeMsg {
    /// Coordinator → node command. `version` is the fencing token: nodes
    /// reject versioned requests older than the highest they have seen.
    Request {
        /// Per-link monotone sequence number (duplicate delivery is
        /// answered from the reply cache).
        seq: u64,
        /// The coordinator's fencing token (map version plus failovers).
        version: u64,
        /// The command.
        req: Request,
    },
    /// Node → coordinator answer, correlated by `seq`.
    Reply {
        /// Echo of the request's sequence number.
        seq: u64,
        /// Outcome.
        reply: Reply,
    },
    /// Leader → follower shipment of the op at `index`.
    Replicate {
        /// Index of this op.
        index: u64,
        /// The replicated op.
        op: ShardOp,
    },
    /// Follower → leader shipment acknowledgement: the follower's op count
    /// after absorbing (or deduplicating) the op.
    RepAck {
        /// Follower's op count.
        wal_len: u64,
    },
    /// Stream-transport handshake: names the dialing peer, optionally
    /// assigning the accepting node its cluster id (coordinator → node).
    Hello {
        /// The dialing peer's node id.
        from: NodeId,
        /// Id the accepting node should adopt, if the dialer is the
        /// coordinator introducing itself.
        assign: Option<NodeId>,
    },
}

/// A frame of the wrong shape (missing or mistyped field, unknown tag,
/// out-of-range integer, bad hex): `Corrupt`.
fn schema(msg: impl fmt::Display) -> Error {
    Error::corrupt(format!("bad frame schema: {msg}"))
}

/// Largest integer JSON numbers carry exactly.
const MAX_SAFE: u64 = 1 << 53;

/// Encode a `u64` exactly: a number when representable, a decimal string
/// beyond `2^53`.
pub fn u64_value(x: u64) -> Value {
    if x <= MAX_SAFE {
        Value::from(x)
    } else {
        Value::Str(x.to_string())
    }
}

/// Decode a `u64` from either encoding of [`u64_value`].
pub fn u64_of(v: &Value) -> Option<u64> {
    match v {
        Value::Str(s) => s.parse().ok(),
        other => other.as_u64(),
    }
}

/// Encode an `i128` exactly: a number when `|x| ≤ 2^53`, a decimal string
/// beyond.
fn i128_value(x: i128) -> Value {
    if x.unsigned_abs() <= u128::from(MAX_SAFE) {
        Value::Num(x as i64 as f64)
    } else {
        Value::Str(x.to_string())
    }
}

/// Decode an `i128` from either encoding of [`i128_value`].
fn i128_of(v: &Value) -> Option<i128> {
    match v {
        Value::Str(s) => s.parse().ok(),
        Value::Num(x) if x.fract() == 0.0 && x.abs() <= MAX_SAFE as f64 => Some(*x as i64 as i128),
        _ => None,
    }
}

fn hex_encode(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        out.push_str(&format!("{b:02x}"));
    }
    out
}

fn hex_decode(s: &str) -> Result<Vec<u8>, Error> {
    if !s.len().is_multiple_of(2) {
        return Err(schema("odd-length hex payload"));
    }
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(s.len() / 2);
    for pair in bytes.chunks_exact(2) {
        let hi = (pair[0] as char)
            .to_digit(16)
            .ok_or_else(|| schema("non-hex digit"))?;
        let lo = (pair[1] as char)
            .to_digit(16)
            .ok_or_else(|| schema("non-hex digit"))?;
        out.push((hi * 16 + lo) as u8);
    }
    Ok(out)
}

// ---- field accessors -------------------------------------------------------

fn field<'a>(v: &'a Value, key: &str) -> Result<&'a Value, Error> {
    v.get(key)
        .ok_or_else(|| schema(format!("missing field {key:?}")))
}

fn u64_field(v: &Value, key: &str) -> Result<u64, Error> {
    u64_of(field(v, key)?).ok_or_else(|| schema(format!("field {key:?} is not a u64")))
}

fn u32_field(v: &Value, key: &str) -> Result<u32, Error> {
    let x = u64_field(v, key)?;
    u32::try_from(x).map_err(|_| schema(format!("field {key:?} exceeds u32")))
}

fn str_field<'a>(v: &'a Value, key: &str) -> Result<&'a str, Error> {
    field(v, key)?
        .as_str()
        .ok_or_else(|| schema(format!("field {key:?} is not a string")))
}

fn bool_field(v: &Value, key: &str) -> Result<bool, Error> {
    field(v, key)?
        .as_bool()
        .ok_or_else(|| schema(format!("field {key:?} is not a bool")))
}

fn opt_u32_field(v: &Value, key: &str) -> Result<Option<u32>, Error> {
    match v.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(x) => u64_of(x)
            .and_then(|x| u32::try_from(x).ok())
            .map(Some)
            .ok_or_else(|| schema(format!("field {key:?} is not a u32"))),
    }
}

fn f64_arr(v: &Value, key: &str) -> Result<Vec<f64>, Error> {
    field(v, key)?
        .as_arr()
        .ok_or_else(|| schema(format!("field {key:?} is not an array")))?
        .iter()
        .map(|x| {
            x.as_f64()
                .ok_or_else(|| schema(format!("{key:?} holds a non-number")))
        })
        .collect()
}

fn u64_arr(v: &Value, key: &str) -> Result<Vec<u64>, Error> {
    field(v, key)?
        .as_arr()
        .ok_or_else(|| schema(format!("field {key:?} is not an array")))?
        .iter()
        .map(|x| u64_of(x).ok_or_else(|| schema(format!("{key:?} holds a non-u64"))))
        .collect()
}

fn u32_arr(v: &Value, key: &str) -> Result<Vec<u32>, Error> {
    u64_arr(v, key)?
        .into_iter()
        .map(|x| u32::try_from(x).map_err(|_| schema(format!("{key:?} holds a value beyond u32"))))
        .collect()
}

fn i128_arr(v: &Value, key: &str) -> Result<Vec<i128>, Error> {
    field(v, key)?
        .as_arr()
        .ok_or_else(|| schema(format!("field {key:?} is not an array")))?
        .iter()
        .map(|x| i128_of(x).ok_or_else(|| schema(format!("{key:?} holds a non-i128"))))
        .collect()
}

fn f64_values(xs: &[f64]) -> Value {
    Value::Arr(xs.iter().map(|&x| Value::from(x)).collect())
}

fn u64_values(xs: &[u64]) -> Value {
    Value::Arr(xs.iter().map(|&x| u64_value(x)).collect())
}

fn i128_values(xs: &[i128]) -> Value {
    Value::Arr(xs.iter().map(|&x| i128_value(x)).collect())
}

fn u32_values(xs: &[u32]) -> Value {
    Value::Arr(xs.iter().map(|&x| Value::from(u64::from(x))).collect())
}

// ---- payload codecs --------------------------------------------------------

fn encode_update(u: &Update) -> Value {
    obj([
        (
            "op",
            Value::from(match u.op {
                EdgeOp::Add => "add",
                EdgeOp::Remove => "remove",
            }),
        ),
        ("u", Value::from(u64::from(u.u))),
        ("v", Value::from(u64::from(u.v))),
    ])
}

fn decode_update(v: &Value) -> Result<Update, Error> {
    let op = match str_field(v, "op")? {
        "add" => EdgeOp::Add,
        "remove" => EdgeOp::Remove,
        other => return Err(schema(format!("unknown update op {other:?}"))),
    };
    let (u, vv) = (u32_field(v, "u")?, u32_field(v, "v")?);
    Ok(match op {
        EdgeOp::Add => Update::add(u, vv),
        EdgeOp::Remove => Update::remove(u, vv),
    })
}

fn encode_record(r: &ExportedRecord) -> Value {
    obj([
        ("source", Value::from(u64::from(r.source))),
        ("d", u32_values(&r.d)),
        ("sigma", u64_values(&r.sigma)),
        ("delta", f64_values(&r.delta)),
    ])
}

fn decode_record(v: &Value) -> Result<ExportedRecord, Error> {
    Ok(ExportedRecord {
        source: u32_field(v, "source")?,
        d: u32_arr(v, "d")?,
        sigma: u64_arr(v, "sigma")?,
        delta: f64_arr(v, "delta")?,
    })
}

fn encode_scores(s: &Scores) -> [(&'static str, Value); 2] {
    [("vbc", f64_values(&s.vbc)), ("ebc", f64_values(&s.ebc))]
}

fn decode_scores(v: &Value) -> Result<Scores, Error> {
    Ok(Scores {
        vbc: f64_arr(v, "vbc")?,
        ebc: f64_arr(v, "ebc")?,
    })
}

fn encode_op(op: &ShardOp) -> Value {
    match op {
        ShardOp::Init {
            shard,
            snapshot,
            sources,
        } => obj([
            ("k", Value::from("init")),
            ("shard", Value::from(u64::from(*shard))),
            ("snapshot", Value::from(hex_encode(snapshot))),
            ("sources", u32_values(sources)),
        ]),
        ShardOp::Apply { update, adopt } => obj([
            ("k", Value::from("apply")),
            ("update", encode_update(update)),
            (
                "adopt",
                adopt.map_or(Value::Null, |a| Value::from(u64::from(a))),
            ),
        ]),
        ShardOp::Export { source } => obj([
            ("k", Value::from("export")),
            ("source", Value::from(u64::from(*source))),
        ]),
        ShardOp::Import { record } => obj([
            ("k", Value::from("import")),
            ("record", encode_record(record)),
        ]),
        ShardOp::Retire { source } => obj([
            ("k", Value::from("retire")),
            ("source", Value::from(u64::from(*source))),
        ]),
    }
}

/// Decode one [`ShardOp`] object (public so WAL dumps can be inspected).
pub fn decode_op(v: &Value) -> Result<ShardOp, Error> {
    Ok(match str_field(v, "k")? {
        "init" => ShardOp::Init {
            shard: u32_field(v, "shard")?,
            snapshot: hex_decode(str_field(v, "snapshot")?)?,
            sources: u32_arr(v, "sources")?,
        },
        "apply" => ShardOp::Apply {
            update: decode_update(field(v, "update")?)?,
            adopt: opt_u32_field(v, "adopt")?,
        },
        "export" => ShardOp::Export {
            source: u32_field(v, "source")?,
        },
        "import" => ShardOp::Import {
            record: decode_record(field(v, "record")?)?,
        },
        "retire" => ShardOp::Retire {
            source: u32_field(v, "source")?,
        },
        other => return Err(schema(format!("unknown op kind {other:?}"))),
    })
}

fn encode_request(req: &Request) -> Value {
    match req {
        Request::Bootstrap {
            shard,
            snapshot,
            sources,
            follower,
            follower_hint,
        } => obj([
            ("cmd", Value::from("bootstrap")),
            ("shard", Value::from(u64::from(*shard))),
            ("snapshot", Value::from(hex_encode(snapshot))),
            ("sources", u32_values(sources)),
            (
                "follower",
                follower.map_or(Value::Null, |f| Value::from(u64::from(f.0))),
            ),
            (
                "follower_hint",
                follower_hint.as_deref().map_or(Value::Null, Value::from),
            ),
        ]),
        Request::Apply {
            index,
            update,
            adopt,
        } => obj([
            ("cmd", Value::from("apply")),
            ("index", u64_value(*index)),
            ("update", encode_update(update)),
            (
                "adopt",
                adopt.map_or(Value::Null, |a| Value::from(u64::from(a))),
            ),
        ]),
        Request::Partials => obj([("cmd", Value::from("partials"))]),
        Request::ExactSum => obj([("cmd", Value::from("exact_sum"))]),
        Request::Export { index, source } => obj([
            ("cmd", Value::from("export")),
            ("index", u64_value(*index)),
            ("source", Value::from(u64::from(*source))),
        ]),
        Request::Import { index, record } => obj([
            ("cmd", Value::from("import")),
            ("index", u64_value(*index)),
            ("record", encode_record(record)),
        ]),
        Request::Retire { index, source } => obj([
            ("cmd", Value::from("retire")),
            ("index", u64_value(*index)),
            ("source", Value::from(u64::from(*source))),
        ]),
        Request::Promote => obj([("cmd", Value::from("promote"))]),
        Request::Demote => obj([("cmd", Value::from("demote"))]),
        Request::Status => obj([("cmd", Value::from("status"))]),
        Request::Shutdown => obj([("cmd", Value::from("shutdown"))]),
    }
}

fn decode_request(v: &Value) -> Result<Request, Error> {
    Ok(match str_field(v, "cmd")? {
        "bootstrap" => Request::Bootstrap {
            shard: u32_field(v, "shard")?,
            snapshot: hex_decode(str_field(v, "snapshot")?)?,
            sources: u32_arr(v, "sources")?,
            follower: opt_u32_field(v, "follower")?.map(NodeId),
            follower_hint: match v.get("follower_hint") {
                None | Some(Value::Null) => None,
                Some(x) => Some(
                    x.as_str()
                        .ok_or_else(|| schema("follower_hint is not a string"))?
                        .to_string(),
                ),
            },
        },
        "apply" => Request::Apply {
            index: u64_field(v, "index")?,
            update: decode_update(field(v, "update")?)?,
            adopt: opt_u32_field(v, "adopt")?,
        },
        "partials" => Request::Partials,
        "exact_sum" => Request::ExactSum,
        "export" => Request::Export {
            index: u64_field(v, "index")?,
            source: u32_field(v, "source")?,
        },
        "import" => Request::Import {
            index: u64_field(v, "index")?,
            record: decode_record(field(v, "record")?)?,
        },
        "retire" => Request::Retire {
            index: u64_field(v, "index")?,
            source: u32_field(v, "source")?,
        },
        "promote" => Request::Promote,
        "demote" => Request::Demote,
        "status" => Request::Status,
        "shutdown" => Request::Shutdown,
        other => return Err(schema(format!("unknown command {other:?}"))),
    })
}

fn encode_reply(reply: &Reply) -> Vec<(&'static str, Value)> {
    match reply {
        Reply::Ok(body) => {
            let mut fields = vec![("ok", Value::from(true))];
            match body {
                ReplyBody::Done {
                    wal_len,
                    deduped,
                    degraded,
                } => {
                    fields.push(("body", Value::from("done")));
                    fields.push(("wal_len", u64_value(*wal_len)));
                    fields.push(("deduped", Value::from(*deduped)));
                    fields.push(("degraded", Value::from(*degraded)));
                }
                ReplyBody::Bootstrapped { wal_len, brandes } => {
                    fields.push(("body", Value::from("bootstrapped")));
                    fields.push(("wal_len", u64_value(*wal_len)));
                    fields.push(("brandes", u64_value(*brandes)));
                }
                ReplyBody::Partials { scores, dirty } => {
                    fields.push(("body", Value::from("partials")));
                    let [vbc, ebc] = encode_scores(scores);
                    fields.push(vbc);
                    fields.push(ebc);
                    fields.push(("dirty", u32_values(dirty)));
                }
                ReplyBody::ExactSum { sum } => {
                    fields.push(("body", Value::from("exact_sum")));
                    fields.push(("sources", u64_value(sum.sources)));
                    fields.push(("vbc", i128_values(&sum.vbc)));
                    fields.push(("ebc", i128_values(&sum.ebc)));
                }
                ReplyBody::Exported {
                    record,
                    wal_len,
                    degraded,
                } => {
                    fields.push(("body", Value::from("exported")));
                    fields.push(("record", encode_record(record)));
                    fields.push(("wal_len", u64_value(*wal_len)));
                    fields.push(("degraded", Value::from(*degraded)));
                }
                ReplyBody::Status {
                    role,
                    version,
                    shard,
                    wal_len,
                    sources,
                    fenced,
                } => {
                    fields.push(("body", Value::from("status")));
                    fields.push(("role", Value::from(role.tag())));
                    fields.push(("version", u64_value(*version)));
                    fields.push((
                        "shard",
                        shard.map_or(Value::Null, |s| Value::from(u64::from(s))),
                    ));
                    fields.push(("wal_len", u64_value(*wal_len)));
                    fields.push(("sources", u64_value(*sources)));
                    fields.push(("fenced", u64_value(*fenced)));
                }
            }
            fields
        }
        Reply::Err(e) => vec![("ok", Value::from(false)), ("error", encode_error(e))],
    }
}

fn decode_reply(v: &Value) -> Result<Reply, Error> {
    if !bool_field(v, "ok")? {
        let error = decode_error(field(v, "error")?).ok_or_else(|| schema("bad error object"))?;
        return Ok(Reply::Err(error));
    }
    let body = match str_field(v, "body")? {
        "done" => ReplyBody::Done {
            wal_len: u64_field(v, "wal_len")?,
            deduped: bool_field(v, "deduped")?,
            degraded: bool_field(v, "degraded")?,
        },
        "bootstrapped" => ReplyBody::Bootstrapped {
            wal_len: u64_field(v, "wal_len")?,
            brandes: u64_field(v, "brandes")?,
        },
        "partials" => ReplyBody::Partials {
            scores: decode_scores(v)?,
            dirty: u32_arr(v, "dirty")?,
        },
        "exact_sum" => ReplyBody::ExactSum {
            sum: ExactSum {
                vbc: i128_arr(v, "vbc")?,
                ebc: i128_arr(v, "ebc")?,
                sources: u64_field(v, "sources")?,
            },
        },
        "exported" => ReplyBody::Exported {
            record: decode_record(field(v, "record")?)?,
            wal_len: u64_field(v, "wal_len")?,
            degraded: bool_field(v, "degraded")?,
        },
        "status" => ReplyBody::Status {
            role: Role::from_tag(str_field(v, "role")?).ok_or_else(|| schema("unknown role"))?,
            version: u64_field(v, "version")?,
            shard: opt_u32_field(v, "shard")?,
            wal_len: u64_field(v, "wal_len")?,
            sources: u64_field(v, "sources")?,
            fenced: u64_field(v, "fenced")?,
        },
        other => return Err(schema(format!("unknown reply body {other:?}"))),
    };
    Ok(Reply::Ok(body))
}

/// Serialize one frame as a single JSON line (no trailing newline).
pub fn encode(msg: &NodeMsg) -> String {
    let value = match msg {
        NodeMsg::Request { seq, version, req } => {
            let Value::Obj(mut fields) = encode_request(req) else {
                unreachable!("requests encode as objects")
            };
            fields.insert("t".into(), Value::from("req"));
            fields.insert("seq".into(), u64_value(*seq));
            fields.insert("v".into(), u64_value(*version));
            Value::Obj(fields)
        }
        NodeMsg::Reply { seq, reply } => {
            let mut fields = vec![("t", Value::from("rep")), ("seq", u64_value(*seq))];
            fields.extend(encode_reply(reply));
            Value::Obj(
                fields
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), v))
                    .collect(),
            )
        }
        NodeMsg::Replicate { index, op } => obj([
            ("t", Value::from("wal")),
            ("index", u64_value(*index)),
            ("op", encode_op(op)),
        ]),
        NodeMsg::RepAck { wal_len } => {
            obj([("t", Value::from("ack")), ("wal_len", u64_value(*wal_len))])
        }
        NodeMsg::Hello { from, assign } => obj([
            ("t", Value::from("hello")),
            ("from", Value::from(u64::from(from.0))),
            (
                "assign",
                assign.map_or(Value::Null, |a| Value::from(u64::from(a.0))),
            ),
        ]),
    };
    value.to_json()
}

/// Parse one frame. Never panics: garbage, and valid JSON of the wrong
/// shape, are `Corrupt`.
pub fn decode(line: &str) -> Result<NodeMsg, Error> {
    let v = json::parse(line).map_err(|e| Error::corrupt(format!("bad frame json: {e}")))?;
    Ok(match str_field(&v, "t")? {
        "req" => NodeMsg::Request {
            seq: u64_field(&v, "seq")?,
            version: u64_field(&v, "v")?,
            req: decode_request(&v)?,
        },
        "rep" => NodeMsg::Reply {
            seq: u64_field(&v, "seq")?,
            reply: decode_reply(&v)?,
        },
        "wal" => NodeMsg::Replicate {
            index: u64_field(&v, "index")?,
            op: decode_op(field(&v, "op")?)?,
        },
        "ack" => NodeMsg::RepAck {
            wal_len: u64_field(&v, "wal_len")?,
        },
        "hello" => NodeMsg::Hello {
            from: NodeId(u32_field(&v, "from")?),
            assign: opt_u32_field(&v, "assign")?.map(NodeId),
        },
        other => return Err(schema(format!("unknown frame type {other:?}"))),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sigma_beyond_2_53_survives_exactly() {
        let rec = ExportedRecord {
            source: 3,
            d: vec![0, 1, u32::MAX],
            sigma: vec![1, (1 << 53) + 1, u64::MAX],
            delta: vec![0.0, -0.0, 1.0 / 3.0],
        };
        let msg = NodeMsg::Request {
            seq: 9,
            version: 2,
            req: Request::Import {
                index: 4,
                record: rec.clone(),
            },
        };
        let back = decode(&encode(&msg)).unwrap();
        let NodeMsg::Request {
            req: Request::Import { record, .. },
            ..
        } = back
        else {
            panic!("wrong shape")
        };
        assert_eq!(record.sigma, rec.sigma);
        assert_eq!(
            record.delta.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            rec.delta.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn garbage_is_typed_not_a_panic() {
        for bad in [
            "",
            "nonsense",
            "{}",
            r#"{"t":"zorp"}"#,
            r#"{"t":"req","seq":1}"#,
            r#"{"t":"req","seq":1,"v":0,"cmd":"apply","index":0}"#,
            r#"{"t":"wal","index":0,"op":{"k":"init","shard":0,"snapshot":"zz","sources":[]}}"#,
        ] {
            assert!(decode(bad).is_err(), "{bad:?} should fail to decode");
        }
    }

    #[test]
    fn snapshot_hex_round_trips_structurally() {
        let mut g = ebc_graph::Graph::with_vertices(5);
        for (u, v) in [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)] {
            g.add_edge(u, v).unwrap();
        }
        g.remove_edge(1, 2).unwrap();
        g.add_edge(2, 4).unwrap();
        let msg = NodeMsg::Request {
            seq: 1,
            version: 0,
            req: Request::Bootstrap {
                shard: 0,
                snapshot: g.snapshot_bytes(),
                sources: vec![0, 1, 2],
                follower: Some(NodeId(4)),
                follower_hint: None,
            },
        };
        let NodeMsg::Request {
            req: Request::Bootstrap { snapshot, .. },
            ..
        } = decode(&encode(&msg)).unwrap()
        else {
            panic!("wrong shape")
        };
        let g2 = ebc_graph::Graph::from_snapshot_bytes(&snapshot).unwrap();
        assert!(g.structural_eq(&g2));
    }
}
