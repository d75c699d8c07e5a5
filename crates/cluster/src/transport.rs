//! Frame delivery between cluster processes, behind the [`Transport`] trait.
//!
//! Two embodiments:
//!
//! * [`TestNet`] — an in-process fabric for the fault-injection harness:
//!   every "node" is a thread with a [`Mailbox`], frames are real serialized
//!   wire lines, and each directed link can be partitioned, held, or
//!   subjected to seed-driven drop/duplicate/delay injection whose fate is
//!   a pure function of `(seed, link, send index)` — rerunning a failing
//!   seed replays the exact same fault schedule.
//! * [`TcpTransport`] — real sockets for `sbc node` / `sbc coord`, using
//!   the serve crate's [`ebc_serve::proto::LineReader`] for
//!   framing and a [`NodeMsg::Hello`] handshake to name the dialing peer.
//!
//! Delivery is at-most-once per send with no ordering guarantee across
//! faults; the node protocol's seq/index dedup layers exactly-once
//! semantics on top (DESIGN.md §12).

use crate::wire::{self, NodeId, NodeMsg};
use ebc_core::Error;
use ebc_serve::proto::{Frame, LineReader};
use std::collections::{HashMap, VecDeque};
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// One delivered frame: who sent it, and the raw line.
#[derive(Debug, Clone)]
pub struct Envelope {
    /// The sending node.
    pub from: NodeId,
    /// The serialized [`NodeMsg`] line (no trailing newline).
    pub frame: String,
}

/// A node's single inbound queue; all peers' frames multiplex into it.
pub struct Mailbox {
    rx: Receiver<Envelope>,
}

impl Mailbox {
    /// Wait up to `timeout` for the next frame; `None` on timeout or when
    /// every sender is gone.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<Envelope> {
        match self.rx.recv_timeout(timeout) {
            Ok(env) => Some(env),
            Err(RecvTimeoutError::Timeout) | Err(RecvTimeoutError::Disconnected) => None,
        }
    }

    /// Non-blocking poll.
    pub fn try_recv(&self) -> Option<Envelope> {
        self.rx.try_recv().ok()
    }
}

/// A mailbox plus the sender that feeds it (for transports that pump frames
/// from their own reader threads).
pub fn mailbox() -> (Sender<Envelope>, Mailbox) {
    let (tx, rx) = mpsc::channel();
    (tx, Mailbox { rx })
}

/// The peer is gone (mailbox dropped / connection closed) and no dial hint
/// can reach it: `Lost`.
fn closed(to: NodeId) -> Error {
    Error::lost(format!("peer {to} closed"))
}

/// A node's outbound half: sends one serialized frame to a peer.
///
/// `hint` is a transport address (e.g. `host:port`) used to dial peers not
/// yet connected — stream transports use it, the in-process fabric ignores
/// it. Implementations own whatever connection caching they need.
pub trait Transport: Send {
    /// Deliver `frame` to `to`. An `Err` means the peer is unreachable
    /// *now*: `Lost` when it is dead or unresolvable, `Io` when a stream
    /// failed in a way a retry may get past. A dropped/held frame on a
    /// faulty link is still `Ok` — loss is indistinguishable from delay on
    /// a real network, and detecting it is the protocol's job, not the
    /// fabric's.
    fn send(&mut self, to: NodeId, hint: Option<&str>, frame: &str) -> Result<(), Error>;
}

// ---- in-process fabric -----------------------------------------------------

/// Per-directed-link fault mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum LinkMode {
    /// Frames flow (subject to seeded faults).
    #[default]
    Open,
    /// Frames vanish silently.
    Partitioned,
    /// Frames queue until [`TestNet::release`].
    Held,
}

/// Seed-driven fault rates, in permille of sends, applied per directed
/// link. Fate is a pure function of `(seed, from, to, send index)`:
/// the same seed replays the same schedule.
#[derive(Debug, Clone, Copy)]
pub struct FaultSpec {
    /// Seed printed alongside failures so runs can be replayed.
    pub seed: u64,
    /// ‰ of sends silently dropped.
    pub drop_pm: u32,
    /// ‰ of sends delivered twice back-to-back.
    pub dup_pm: u32,
    /// ‰ of sends delayed: the frame is parked and delivered after the
    /// link's *next* delivered frame (reordering). A parked frame with no
    /// successor degrades to a drop — acceptable, since the protocol
    /// already tolerates loss.
    pub delay_pm: u32,
}

#[derive(Default)]
struct LinkState {
    mode: LinkMode,
    held: VecDeque<String>,
    sent: u64,
}

struct NetState {
    inboxes: HashMap<NodeId, Sender<Envelope>>,
    links: HashMap<(NodeId, NodeId), LinkState>,
    faults: Option<FaultSpec>,
}

/// splitmix64 finalizer over the link coordinates — deterministic fate.
fn fate(seed: u64, from: NodeId, to: NodeId, index: u64) -> u64 {
    let mut x = seed
        ^ (u64::from(from.0) << 40)
        ^ (u64::from(to.0) << 20)
        ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The in-process test fabric. Cheap to clone; all clones share state.
#[derive(Clone)]
pub struct TestNet {
    state: Arc<Mutex<NetState>>,
}

impl Default for TestNet {
    fn default() -> Self {
        Self::new()
    }
}

impl TestNet {
    /// A fabric with no nodes and no faults.
    pub fn new() -> Self {
        TestNet {
            state: Arc::new(Mutex::new(NetState {
                inboxes: HashMap::new(),
                links: HashMap::new(),
                faults: None,
            })),
        }
    }

    /// Register a node, returning its mailbox. Dropping the mailbox (a
    /// node thread exiting) makes subsequent sends to it fail — that is
    /// how peers observe a crash.
    pub fn add_node(&self, id: NodeId) -> Mailbox {
        let (tx, mb) = mailbox();
        self.state.lock().unwrap().inboxes.insert(id, tx);
        mb
    }

    /// A [`Transport`] handle sending *as* `from`.
    pub fn transport(&self, from: NodeId) -> TestTransport {
        TestTransport {
            net: self.clone(),
            from,
        }
    }

    /// Install (or clear) seeded fault injection on every open link.
    pub fn set_faults(&self, faults: Option<FaultSpec>) {
        self.state.lock().unwrap().faults = faults;
    }

    /// Sever both directions between `a` and `b`: frames vanish silently
    /// (the partitioned sender still sees `Ok`).
    pub fn partition(&self, a: NodeId, b: NodeId) {
        let mut st = self.state.lock().unwrap();
        st.links.entry((a, b)).or_default().mode = LinkMode::Partitioned;
        st.links.entry((b, a)).or_default().mode = LinkMode::Partitioned;
    }

    /// Reopen both directions between `a` and `b`. Frames dropped while
    /// partitioned stay dropped.
    pub fn heal(&self, a: NodeId, b: NodeId) {
        let mut st = self.state.lock().unwrap();
        st.links.entry((a, b)).or_default().mode = LinkMode::Open;
        st.links.entry((b, a)).or_default().mode = LinkMode::Open;
    }

    /// Park every subsequent `from → to` frame until [`TestNet::release`]
    /// — the deterministic building block for "the frame arrives *later*,
    /// after the world has moved on" scenarios (stale-leader fencing).
    pub fn hold(&self, from: NodeId, to: NodeId) {
        let mut st = self.state.lock().unwrap();
        st.links.entry((from, to)).or_default().mode = LinkMode::Held;
    }

    /// Reopen `from → to` and deliver everything parked on it, in order.
    pub fn release(&self, from: NodeId, to: NodeId) {
        let mut st = self.state.lock().unwrap();
        let held: Vec<String> = {
            let link = st.links.entry((from, to)).or_default();
            link.mode = LinkMode::Open;
            link.held.drain(..).collect()
        };
        for frame in held {
            let _ = st.deliver(from, to, frame);
        }
    }

    /// Drop all faults and partitions and flush every held frame — used
    /// before shutdown so drains cannot wedge.
    pub fn heal_all(&self) {
        let mut st = self.state.lock().unwrap();
        st.faults = None;
        let keys: Vec<(NodeId, NodeId)> = st.links.keys().copied().collect();
        for key in keys {
            let held: Vec<String> = {
                let link = st.links.get_mut(&key).unwrap();
                link.mode = LinkMode::Open;
                link.held.drain(..).collect()
            };
            for frame in held {
                let _ = st.deliver(key.0, key.1, frame);
            }
        }
    }
}

impl NetState {
    fn deliver(&mut self, from: NodeId, to: NodeId, frame: String) -> Result<(), Error> {
        let tx = self.inboxes.get(&to).ok_or_else(|| closed(to))?;
        tx.send(Envelope { from, frame }).map_err(|_| closed(to))
    }
}

/// [`Transport`] over a [`TestNet`], bound to a sending node.
pub struct TestTransport {
    net: TestNet,
    from: NodeId,
}

impl Transport for TestTransport {
    fn send(&mut self, to: NodeId, _hint: Option<&str>, frame: &str) -> Result<(), Error> {
        let mut st = self.net.state.lock().unwrap();
        if !st.inboxes.contains_key(&to) {
            return Err(closed(to));
        }
        let faults = st.faults;
        let link = st.links.entry((self.from, to)).or_default();
        let index = link.sent;
        link.sent += 1;
        match link.mode {
            LinkMode::Partitioned => return Ok(()), // silent loss
            LinkMode::Held => {
                link.held.push_back(frame.to_string());
                return Ok(());
            }
            LinkMode::Open => {}
        }
        let mut copies = 1u32;
        let mut parked = Vec::new();
        if let Some(f) = faults {
            let roll = fate(f.seed, self.from, to, index) % 1000;
            if roll < u64::from(f.drop_pm) {
                copies = 0;
            } else if roll < u64::from(f.drop_pm + f.dup_pm) {
                copies = 2;
            } else if roll < u64::from(f.drop_pm + f.dup_pm + f.delay_pm) {
                link.held.push_back(frame.to_string());
                copies = 0;
            }
        }
        if copies > 0 {
            // a delivered frame flushes anything delay-parked behind it,
            // *after* itself — that is the reordering
            parked.extend(link.held.drain(..));
        }
        for _ in 0..copies {
            st.deliver(self.from, to, frame.to_string())?;
        }
        for p in parked {
            let _ = st.deliver(self.from, to, p);
        }
        Ok(())
    }
}

// ---- tcp fabric ------------------------------------------------------------

/// [`Transport`] over real sockets, shared by `sbc node` and `sbc coord`.
///
/// Cheap to clone (all clones share the peer registry). Incoming
/// connections are identified by their [`NodeMsg::Hello`] first frame;
/// outbound dials send one. Each connection gets a reader thread pumping
/// complete lines into the owner's mailbox; a closed or garbled stream
/// unregisters the peer, so the next `send` reports it `Lost` (or re-dials
/// when a hint is supplied). A peer that connected again since keeps its
/// newer connection: each registered stream carries a connection id, and
/// only the stream that is still registered unregisters.
#[derive(Clone)]
pub struct TcpTransport {
    me: NodeId,
    inbox: Sender<Envelope>,
    peers: Arc<Mutex<HashMap<NodeId, (u64, TcpStream)>>>,
    /// The next connection id (`Relaxed`: an id publishes no other data).
    conns: Arc<AtomicU64>,
}

impl TcpTransport {
    /// A transport identifying as `me`, delivering inbound frames to
    /// `inbox` (pair it with [`mailbox`]).
    pub fn new(me: NodeId, inbox: Sender<Envelope>) -> Self {
        TcpTransport {
            me,
            inbox,
            peers: Arc::new(Mutex::new(HashMap::new())),
            conns: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Make `stream` the connection to `peer`, returning its id.
    fn register(&self, peer: NodeId, stream: TcpStream) -> u64 {
        let conn = self.conns.fetch_add(1, Ordering::Relaxed);
        self.peers.lock().unwrap().insert(peer, (conn, stream));
        conn
    }

    /// Forget the connection to `peer` if it is still connection `conn`.
    fn unregister(&self, peer: NodeId, conn: u64) {
        let mut peers = self.peers.lock().unwrap();
        if peers
            .get(&peer)
            .is_some_and(|(registered, _)| *registered == conn)
        {
            peers.remove(&peer);
        }
    }

    /// Accept connections on `listener` forever (spawns a daemon thread).
    pub fn listen(&self, listener: TcpListener) {
        let this = self.clone();
        std::thread::spawn(move || {
            for conn in listener.incoming() {
                let Ok(stream) = conn else { continue };
                let this = this.clone();
                std::thread::spawn(move || this.absorb(stream, None));
            }
        });
    }

    /// Read frames from `stream` until EOF, then unregister it. An inbound
    /// stream registers the peer its hello names; a dialed one comes as
    /// `known`, the peer and connection id [`TcpTransport::dial`]
    /// registered.
    fn absorb(&self, stream: TcpStream, known: Option<(NodeId, u64)>) {
        let mut reader = match stream.try_clone() {
            Ok(s) => LineReader::new(s),
            Err(_) => return,
        };
        let (peer, conn) = match known {
            Some(known) => known,
            None => {
                // inbound: first frame must be a hello naming the dialer
                loop {
                    match reader.read_frame() {
                        Ok(Some(Frame::Line(line))) => match wire::decode(&line) {
                            Ok(NodeMsg::Hello { from, .. }) => {
                                break (from, self.register(from, stream))
                            }
                            _ => return,
                        },
                        Ok(None) => continue,
                        _ => return,
                    }
                }
            }
        };
        loop {
            match reader.read_frame() {
                Ok(Some(Frame::Line(line))) => {
                    if self
                        .inbox
                        .send(Envelope {
                            from: peer,
                            frame: line,
                        })
                        .is_err()
                    {
                        break; // owner gone
                    }
                }
                Ok(Some(Frame::Oversized(_))) | Ok(Some(Frame::NotUtf8)) | Ok(None) => continue,
                Ok(Some(Frame::Eof)) | Err(_) => break,
            }
        }
        self.unregister(peer, conn);
    }

    fn dial(&self, to: NodeId, addr: &str) -> Result<(), Error> {
        let mut stream = TcpStream::connect(addr)?;
        let hello = wire::encode(&NodeMsg::Hello {
            from: self.me,
            assign: None,
        });
        stream.write_all(format!("{hello}\n").as_bytes())?;
        let reader_stream = stream.try_clone()?;
        let conn = self.register(to, stream);
        let this = self.clone();
        std::thread::spawn(move || this.absorb(reader_stream, Some((to, conn))));
        Ok(())
    }
}

impl Transport for TcpTransport {
    fn send(&mut self, to: NodeId, hint: Option<&str>, frame: &str) -> Result<(), Error> {
        let connected = self.peers.lock().unwrap().contains_key(&to);
        if !connected {
            let addr = hint.ok_or_else(|| closed(to))?;
            self.dial(to, addr)?;
        }
        let (conn, mut stream) = match self.peers.lock().unwrap().get(&to) {
            Some((conn, s)) => (*conn, s.try_clone()?),
            None => return Err(closed(to)),
        };
        if stream.write_all(format!("{frame}\n").as_bytes()).is_err() {
            self.unregister(to, conn);
            return Err(closed(to));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ebc_core::ErrorKind;

    const A: NodeId = NodeId(1);
    const B: NodeId = NodeId(2);

    #[test]
    fn open_link_delivers_in_order() {
        let net = TestNet::new();
        let mb = net.add_node(B);
        let mut t = net.transport(A);
        t.send(B, None, "one").unwrap();
        t.send(B, None, "two").unwrap();
        let got: Vec<String> = (0..2)
            .map(|_| mb.recv_timeout(Duration::from_secs(1)).unwrap().frame)
            .collect();
        assert_eq!(got, vec!["one", "two"]);
        assert!(mb.try_recv().is_none());
    }

    #[test]
    fn dead_mailbox_fails_fast() {
        let net = TestNet::new();
        let mb = net.add_node(B);
        drop(mb);
        let mut t = net.transport(A);
        let mut lost = |to| t.send(to, None, "x").unwrap_err().kind();
        assert_eq!(lost(B), ErrorKind::Lost);
        assert_eq!(
            lost(NodeId(9)),
            ErrorKind::Lost,
            "unknown node is closed too"
        );
    }

    #[test]
    fn partition_is_silent_and_heals() {
        let net = TestNet::new();
        let mb = net.add_node(B);
        let mut t = net.transport(A);
        net.partition(A, B);
        t.send(B, None, "lost").unwrap(); // silent loss, not an error
        assert!(mb.recv_timeout(Duration::from_millis(20)).is_none());
        net.heal(A, B);
        t.send(B, None, "through").unwrap();
        assert_eq!(
            mb.recv_timeout(Duration::from_secs(1)).unwrap().frame,
            "through"
        );
    }

    #[test]
    fn hold_parks_and_release_replays_in_order() {
        let net = TestNet::new();
        let mb = net.add_node(B);
        let mut t = net.transport(A);
        net.hold(A, B);
        t.send(B, None, "first").unwrap();
        t.send(B, None, "second").unwrap();
        assert!(mb.recv_timeout(Duration::from_millis(20)).is_none());
        net.release(A, B);
        let got: Vec<String> = (0..2)
            .map(|_| mb.recv_timeout(Duration::from_secs(1)).unwrap().frame)
            .collect();
        assert_eq!(got, vec!["first", "second"]);
    }

    #[test]
    fn seeded_faults_replay_identically() {
        let run = |seed: u64| -> Vec<String> {
            let net = TestNet::new();
            let mb = net.add_node(B);
            net.set_faults(Some(FaultSpec {
                seed,
                drop_pm: 250,
                dup_pm: 250,
                delay_pm: 250,
            }));
            let mut t = net.transport(A);
            for i in 0..64 {
                t.send(B, None, &format!("m{i}")).unwrap();
            }
            net.heal_all(); // flush trailing delayed frames
            let mut got = Vec::new();
            while let Some(env) = mb.try_recv() {
                got.push(env.frame);
            }
            got
        };
        let first = run(42);
        assert_eq!(first, run(42), "same seed, same schedule");
        assert_ne!(first, run(43), "different seed differs");
        // with 25% drop, some frames are missing and some duplicated
        assert!(first.len() < 64 + 16);
        assert!(first.len() > 16);
    }

    #[test]
    fn tcp_round_trip_with_hello() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();

        // "server" side: node B listening
        let (tx_b, mb_b) = mailbox();
        let server = TcpTransport::new(B, tx_b);
        server.listen(listener);

        // "client" side: node A dials with a hint
        let (tx_a, mb_a) = mailbox();
        let mut client = TcpTransport::new(A, tx_a);
        client
            .send(
                B,
                Some(&addr),
                &wire::encode(&NodeMsg::RepAck { wal_len: 7 }),
            )
            .unwrap();

        let env = mb_b
            .recv_timeout(Duration::from_secs(5))
            .expect("b hears a");
        assert_eq!(env.from, A);
        assert!(matches!(
            wire::decode(&env.frame),
            Ok(NodeMsg::RepAck { wal_len: 7 })
        ));

        // B replies over the registered stream — no hint needed
        let mut server_t = server.clone();
        server_t
            .send(A, None, &wire::encode(&NodeMsg::RepAck { wal_len: 8 }))
            .unwrap();
        let env = mb_a
            .recv_timeout(Duration::from_secs(5))
            .expect("a hears b");
        assert_eq!(env.from, B);
        assert!(matches!(
            wire::decode(&env.frame),
            Ok(NodeMsg::RepAck { wal_len: 8 })
        ));
    }

    /// A peer that connected again keeps its newer connection when the
    /// older one closes: replies to it still go through, with no dial hint
    /// (a node's only way back to the coordinator).
    #[test]
    fn a_second_connection_survives_the_first_closing() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (tx_b, mb_b) = mailbox();
        let server = TcpTransport::new(B, tx_b);
        // connect as A, and hand the accepted stream to a reader thread
        // once A's first frame proves it registered
        let connect = |nth: u64| {
            let mut client = TcpStream::connect(addr).unwrap();
            let hello = wire::encode(&NodeMsg::Hello {
                from: A,
                assign: None,
            });
            let ack = wire::encode(&NodeMsg::RepAck { wal_len: nth });
            client
                .write_all(format!("{hello}\n{ack}\n").as_bytes())
                .unwrap();
            let (accepted, _) = listener.accept().unwrap();
            let this = server.clone();
            let reader = std::thread::spawn(move || this.absorb(accepted, None));
            let env = mb_b
                .recv_timeout(Duration::from_secs(5))
                .expect("b hears a");
            assert_eq!((env.from, env.frame), (A, ack));
            (client, reader)
        };
        let (first, first_reader) = connect(1);
        let (second, _second_reader) = connect(2);
        drop(first);
        first_reader.join().unwrap(); // the first stream has unregistered

        let mut reply = server.clone();
        let frame = wire::encode(&NodeMsg::RepAck { wal_len: 3 });
        reply.send(A, None, &frame).unwrap();
        let mut lines = LineReader::new(second);
        match lines.read_frame() {
            Ok(Some(Frame::Line(line))) => assert_eq!(line, frame),
            other => panic!("the second connection heard nothing: {other:?}"),
        }
    }
}
