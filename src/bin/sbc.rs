//! `sbc` — streaming betweenness centrality command-line tool.
//!
//! ```text
//! sbc stats   <edgelist>                       graph statistics (Table 2 columns)
//! sbc exact   <edgelist> [--top k]             exact VBC/EBC via Brandes
//! sbc stream  <edgelist> <updates> [--top k]   bootstrap + incremental replay
//! sbc gn      <edgelist> [--removals k]        Girvan–Newman communities
//! sbc replay  --dir D [--at seq|all] [--top k] scores-as-of-seq from history
//! sbc serve   (--edgelist F | --open DIR) ...  network frontend (README "Serving")
//! sbc node    --id N [--tcp ADDR]              cluster shard node (DESIGN.md §12)
//! sbc coord   --edgelist F --leaders L ...     cluster coordinator, batch driver
//! sbc coord   ... --serve [--tcp ADDR]         coordinator behind the JSON frontend
//! sbc coord   ... --dir D                      durable control plane (restartable)
//! ```
//!
//! `sbc replay` reconstructs the exact scores a session reported at any
//! history seq by replaying its sealed history segments (README "Replay &
//! retention"); `sbc coord --dir` persists the coordinator's shard map and
//! journal so a killed coordinator resumes command of its running fleet.
//!
//! Edge lists are whitespace-separated `u v` lines (`#`/`%` comments).
//! Update files contain `+ u v` / `- u v` lines applied in order.
//!
//! Each subcommand refuses a `--flag` it does not take, and a flag whose
//! value is missing or is the next `--flag`: a typo never falls back to a
//! default.
//!
//! `sbc serve` owns one `Session` and speaks the newline-delimited JSON
//! command protocol of DESIGN.md §11 over TCP (`--tcp ADDR`, default
//! `127.0.0.1:7878`, port 0 for ephemeral) and/or a unix socket
//! (`--unix PATH`). It drains gracefully on SIGTERM / ctrl-c / the
//! `shutdown` command: queued batches finish, the session checkpoints,
//! new connections are refused.

use std::process::ExitCode;
use streaming_bc::core::ranking::top_k;
use streaming_bc::core::{brandes, Update};
use streaming_bc::gn::girvan_newman_incremental;
use streaming_bc::graph::io::load_graph;
use streaming_bc::graph::stats::GraphStats;
use streaming_bc::graph::Graph;
use streaming_bc::serve::{ServedCluster, ServedSession, Server, ServerConfig, ServerHandle};
use streaming_bc::{Backend, ErrorKind, Session};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("sbc: {msg}");
            eprintln!();
            eprintln!("usage:");
            eprintln!("  sbc stats  <edgelist>");
            eprintln!("  sbc exact  <edgelist> [--top k]");
            eprintln!("  sbc stream <edgelist> <updates-file> [--top k]");
            eprintln!("  sbc gn     <edgelist> [--removals k]");
            eprintln!("  sbc replay --dir DIR [--at seq|all] [--top k]");
            eprintln!("  sbc serve  (--edgelist F | --open DIR) [--tcp ADDR] [--unix PATH]");
            eprintln!("             [--workers p] [--dir DIR] [--queue n]");
            eprintln!("  sbc node   --id N [--tcp ADDR]");
            eprintln!("  sbc coord  --edgelist F --leaders id@addr,.. [--followers id@addr,..]");
            eprintln!(
                "             [--updates FILE] [--top k] [--serve [--tcp ADDR] [--unix PATH]]"
            );
            eprintln!("             [--dir DIR]   (resumes from DIR when a snapshot exists)");
            ExitCode::FAILURE
        }
    }
}

/// The value of numeric flag `name`: `None` when the flag is absent, and
/// an error naming it when its value is missing or not a non-negative
/// integer (a typo must not fall back to the default).
fn flag(args: &[String], name: &str) -> Result<Option<usize>, String> {
    let Some(i) = args.iter().position(|a| a == name) else {
        return Ok(None);
    };
    match args.get(i + 1) {
        Some(v) => v
            .parse()
            .map(Some)
            .map_err(|_| format!("{name} needs a non-negative integer, got {v:?}")),
        None => Err(format!("{name} needs a value")),
    }
}

/// The value of string flag `name`: `None` when the flag is absent, and an
/// error naming it when nothing follows it or the next word is itself a
/// `--flag` (a missing value must not fall back to the default).
fn str_flag<'a>(args: &'a [String], name: &str) -> Result<Option<&'a str>, String> {
    let Some(i) = args.iter().position(|a| a == name) else {
        return Ok(None);
    };
    match args.get(i + 1) {
        Some(v) if !v.starts_with("--") => Ok(Some(v)),
        _ => Err(format!("{name} needs a value")),
    }
}

/// The `--flag`s each subcommand takes; any other is refused, so a typo'd
/// flag is an error rather than silently ignored.
fn flags_of(cmd: &str) -> Result<&'static [&'static str], String> {
    Ok(match cmd {
        "stats" => &[],
        "exact" | "stream" => &["--top"],
        "gn" => &["--removals"],
        "replay" => &["--dir", "--at", "--top"],
        "serve" => &[
            "--edgelist",
            "--open",
            "--tcp",
            "--unix",
            "--workers",
            "--dir",
            "--queue",
        ],
        "node" => &["--id", "--tcp"],
        "coord" => &[
            "--edgelist",
            "--leaders",
            "--followers",
            "--updates",
            "--top",
            "--dir",
            "--serve",
            "--tcp",
            "--unix",
            "--queue",
        ],
        other => return Err(format!("unknown subcommand {other:?}")),
    })
}

fn run(args: &[String]) -> Result<(), String> {
    let cmd = args.first().ok_or("missing subcommand")?;
    let takes = flags_of(cmd)?;
    if let Some(f) = args
        .iter()
        .find(|a| a.starts_with("--") && !takes.contains(&a.as_str()))
    {
        return Err(format!("{cmd} does not take {f}"));
    }
    match cmd.as_str() {
        "stats" => {
            let g = load(args.get(1).map(String::as_str))?;
            let s = GraphStats::compute(&g, 64);
            println!("n={} m={} avg_degree={:.2}", s.n, s.m, s.avg_degree);
            println!(
                "clustering={:.4} effective_diameter={:.2}",
                s.clustering_coefficient, s.effective_diameter
            );
            Ok(())
        }
        "exact" => {
            let g = load(args.get(1).map(String::as_str))?;
            let scores = brandes(&g);
            print_top(&g, &scores.vbc, &scores, flag(args, "--top")?.unwrap_or(10));
            Ok(())
        }
        "stream" => {
            let g = load(args.get(1).map(String::as_str))?;
            let updates = load_updates(args.get(2).map(String::as_str))?;
            let mut session = Session::builder()
                .backend(Backend::Memory)
                .build(&g)
                .map_err(|e| format!("bootstrap failed: {e}"))?;
            let t0 = std::time::Instant::now();
            let total = updates.len();
            session
                .apply_stream(&updates)
                .map_err(|e| format!("stream failed: {e}"))?;
            println!(
                "# applied {total} updates in {:.3}s",
                t0.elapsed().as_secs_f64(),
            );
            let scores = session
                .scores()
                .map_err(|e| format!("reduce failed: {e}"))?
                .scores;
            print_top(
                session.graph(),
                &scores.vbc,
                &scores,
                flag(args, "--top")?.unwrap_or(10),
            );
            Ok(())
        }
        "gn" => {
            let g = load(args.get(1).map(String::as_str))?;
            let k = flag(args, "--removals")?.unwrap_or(g.m().min(200));
            let dg = girvan_newman_incremental(&g, k);
            println!(
                "# peeled {} edges; best modularity {:.4}",
                dg.steps.len(),
                dg.best_modularity
            );
            let labels = &dg.best_partition;
            let communities = labels.iter().copied().max().map_or(0, |x| x + 1);
            println!("# {communities} communities at the best cut");
            for (v, label) in labels.iter().enumerate() {
                println!("{v} {label}");
            }
            Ok(())
        }
        "replay" => replay(args),
        "serve" => serve(args),
        "node" => node(args),
        "coord" => coord(args),
        other => unreachable!("flags_of admits no subcommand {other:?}"),
    }
}

/// `sbc replay`: temporal analytics over a session directory's sealed
/// history — reconstruct the exact scores the session reported at seq
/// `--at` (or the newest seq with `--at all`, the default) and print them
/// with full `f64` round-trip precision, like `sbc coord` batch output.
/// A directory with a sealed-segment gap is refused with the typed
/// missing range.
fn replay(args: &[String]) -> Result<(), String> {
    let dir = str_flag(args, "--dir")?.ok_or("replay needs --dir DIR")?;
    let at = match str_flag(args, "--at")? {
        None | Some("all") => None,
        Some(s) => Some(
            s.parse::<u64>()
                .map_err(|_| format!("bad --at {s:?} (want a seq or 'all')"))?,
        ),
    };
    let replayed = Session::replay_dir(dir, at).map_err(|e| format!("replay {dir}: {e}"))?;
    let scores = &replayed.reduced.scores;
    println!(
        "# replayed {dir} to seq={} in {:.3}s",
        replayed.seq,
        replayed.reduced.wall.as_secs_f64()
    );
    // `{}` on f64 is shortest-round-trip: these lines parse back bitwise
    for (v, x) in scores.vbc.iter().enumerate() {
        println!("v {v} {x}");
    }
    for (key, x) in scores.ebc_entries(&replayed.graph) {
        let (u, v) = key.endpoints();
        println!("e {u} {v} {x}");
    }
    if let Some(k) = flag(args, "--top")? {
        print_top(&replayed.graph, &scores.vbc, scores, k);
    }
    Ok(())
}

/// `sbc serve`: build or reopen a session, then hand it to the frontend.
///
/// A session directory that holds a session but cannot be resumed — its
/// records are ahead of its manifest, or its history has a gap — still
/// yields a *running* server: every command is answered with the typed
/// `records_ahead` or `history_gap` error, so operators and clients see the
/// census instead of a crash loop or a silent hang.
fn serve(args: &[String]) -> Result<(), String> {
    let cfg = ServerConfig {
        // test-only crash injection for the restart-under-traffic suite
        crash_after: std::env::var("SBC_SERVE_CRASH_AFTER")
            .ok()
            .and_then(|v| v.parse().ok()),
        ..server_config(args, "serve")?
    };

    let handle = if let Some(dir) = str_flag(args, "--open")? {
        match Session::open(dir) {
            Ok(session) => Server::spawn(ServedSession::new(session), cfg),
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::RecordsAhead { .. } | ErrorKind::HistoryGap { .. }
                ) =>
            {
                eprintln!("sbc serve: cannot resume {dir}: {e}");
                eprintln!(
                    "sbc serve: serving in degraded mode (typed {} errors)",
                    e.kind().tag()
                );
                Server::spawn_unavailable(e, cfg)
            }
            Err(e) => return Err(format!("open {dir}: {e}")),
        }
    } else {
        let workers = flag(args, "--workers")?.unwrap_or(1);
        let g = load(str_flag(args, "--edgelist")?)?;
        let backend = match str_flag(args, "--dir")? {
            Some(dir) => Backend::Disk(dir.into()),
            None => Backend::Memory,
        };
        let session = Session::builder()
            .backend(backend)
            .workers(workers)
            .build(&g)
            .map_err(|e| format!("bootstrap failed: {e}"))?;
        Server::spawn(ServedSession::new(session), cfg)
    }
    .map_err(|e| format!("bind failed: {e}"))?;
    serve_until_drained(handle, "serve");
    println!("drained");
    Ok(())
}

/// The frontend settings `sbc serve` and `sbc coord --serve` share:
/// `--tcp ADDR` (default `127.0.0.1:7878`, `none` to disable), `--unix
/// PATH` and `--queue n` (default 64); at least one listener is required.
fn server_config(args: &[String], cmd: &str) -> Result<ServerConfig, String> {
    let cfg = ServerConfig {
        tcp: match str_flag(args, "--tcp")? {
            Some("none") => None,
            Some(addr) => Some(addr.to_string()),
            None => Some("127.0.0.1:7878".to_string()),
        },
        unix: str_flag(args, "--unix")?.map(Into::into),
        queue_depth: flag(args, "--queue")?.unwrap_or(64),
        crash_after: None,
    };
    if cfg.tcp.is_none() && cfg.unix.is_none() {
        return Err(format!("{cmd} needs at least one of --tcp, --unix"));
    }
    Ok(cfg)
}

/// Announce the bound listeners and `ready`, then serve until SIGTERM,
/// ctrl-c or a `shutdown` command, and drain the frontend.
fn serve_until_drained(handle: ServerHandle, cmd: &str) {
    if let Some(addr) = handle.tcp_addr() {
        println!("listening tcp={addr}");
    }
    if let Some(path) = handle.unix_path() {
        println!("listening unix={}", path.display());
    }
    println!("ready");
    use std::io::Write;
    let _ = std::io::stdout().flush();

    if !ebc_serve::signal::install_shutdown_handler() {
        eprintln!("sbc {cmd}: warning: could not install SIGTERM/SIGINT handler");
    }
    while !ebc_serve::signal::shutdown_requested() && !handle.is_shutting_down() {
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    handle.shutdown();
    handle.join();
}

/// `sbc node`: one cluster shard node over TCP. Prints the same
/// `listening tcp=` / `ready` handshake as `sbc serve`, then speaks the
/// DESIGN.md §12 node protocol until a `shutdown` frame drains it.
fn node(args: &[String]) -> Result<(), String> {
    use streaming_bc::cluster::{transport, NodeConfig, NodeId, ShardNode, TcpTransport};
    let id = u32::try_from(flag(args, "--id")?.ok_or("node needs --id N")?)
        .map_err(|_| "node id out of range")?;
    if id == 0 {
        return Err("node id 0 is reserved for the coordinator".into());
    }
    let addr = str_flag(args, "--tcp")?.unwrap_or("127.0.0.1:0");
    let listener = std::net::TcpListener::bind(addr).map_err(|e| format!("bind {addr}: {e}"))?;
    let bound = listener
        .local_addr()
        .map_err(|e| format!("bind {addr}: {e}"))?;

    let (tx, mb) = transport::mailbox();
    let t = TcpTransport::new(NodeId(id), tx);
    t.listen(listener);

    println!("listening tcp={bound}");
    println!("ready");
    use std::io::Write;
    let _ = std::io::stdout().flush();

    ShardNode::new(NodeId(id), t, mb, NodeConfig::default()).run();
    println!("drained");
    Ok(())
}

/// Parse `id@addr,id@addr,...` peer lists.
fn parse_peers(spec: &str) -> Result<Vec<(u32, String)>, String> {
    spec.split(',')
        .filter(|s| !s.is_empty())
        .map(|part| {
            let (id, addr) = part
                .split_once('@')
                .ok_or(format!("bad peer {part:?} (want id@addr)"))?;
            let id: u32 = id.parse().map_err(|_| format!("bad node id {id:?}"))?;
            Ok((id, addr.to_string()))
        })
        .collect()
}

/// `sbc coord`: batch cluster driver. Bootstraps the listed shard nodes
/// over the edge list, streams an update file through the map/reduce
/// fan-out (failing over to followers if a leader dies), prints the exact
/// scores with full `f64` round-trip precision, and drains the cluster.
fn coord(args: &[String]) -> Result<(), String> {
    use streaming_bc::cluster::{
        transport, CoordJournal, Coordinator, CoordinatorConfig, NodeId, ShardSpec, TcpTransport,
        COORD,
    };
    let dir = str_flag(args, "--dir")?;
    let top = flag(args, "--top")?;
    let updates = match str_flag(args, "--updates")? {
        Some(path) => load_updates(Some(path))?,
        None => Vec::new(),
    };

    let (tx, mb) = transport::mailbox();
    let t = TcpTransport::new(COORD, tx);
    let mut coord = if let Some(dir) = dir.filter(|d| CoordJournal::exists(d)) {
        // a previous incarnation left durable control state: resume
        // command of the running fleet instead of re-bootstrapping
        eprintln!("sbc coord: resuming from {dir}");
        Coordinator::resume(t, mb, CoordinatorConfig::default(), dir)
            .map_err(|e| format!("resume {dir}: {e}"))?
    } else {
        let g = load(str_flag(args, "--edgelist")?)?;
        let leaders = parse_peers(str_flag(args, "--leaders")?.ok_or("coord needs --leaders")?)?;
        let followers = match str_flag(args, "--followers")? {
            Some(spec) => parse_peers(spec)?,
            None => Vec::new(),
        };
        if leaders.is_empty() {
            return Err("coord needs at least one leader".into());
        }
        if !followers.is_empty() && followers.len() != leaders.len() {
            return Err("--followers must list one follower per leader".into());
        }
        let specs: Vec<ShardSpec> = leaders
            .iter()
            .enumerate()
            .map(|(k, (id, addr))| ShardSpec {
                leader: NodeId(*id),
                leader_hint: Some(addr.clone()),
                follower: followers.get(k).map(|(id, _)| NodeId(*id)),
                follower_hint: followers.get(k).map(|(_, addr)| addr.clone()),
            })
            .collect();
        let mut coord = Coordinator::new(t, mb, CoordinatorConfig::default());
        if let Some(dir) = dir {
            coord
                .persist_to(dir)
                .map_err(|e| format!("persist to {dir}: {e}"))?;
        }
        coord
            .bootstrap(&g, specs)
            .map_err(|e| format!("bootstrap failed: {e}"))?;
        coord
    };
    let total = updates.len();
    for u in updates {
        coord.apply(u).map_err(|e| format!("apply failed: {e}"))?;
    }
    if args.iter().any(|a| a == "--serve") {
        return coord_serve(args, coord, total);
    }
    let scores = coord
        .reduce_exact()
        .map_err(|e| format!("reduce failed: {e}"))?;
    println!(
        "# applied {total} updates across {} shards (failovers={})",
        coord.num_shards(),
        coord.failovers()
    );
    // `{}` on f64 is shortest-round-trip: these lines parse back bitwise
    for (v, x) in scores.vbc.iter().enumerate() {
        println!("v {v} {x}");
    }
    for (key, x) in scores.ebc_entries(coord.graph()) {
        let (u, v) = key.endpoints();
        println!("e {u} {v} {x}");
    }
    if let Some(k) = top {
        print_top(coord.graph(), &scores.vbc, &scores, k);
    }
    coord.shutdown();
    Ok(())
}

/// `sbc coord --serve`: the bootstrapped cluster behind the same JSON-line
/// frontend `sbc serve` offers. Clients apply updates and reduce through
/// the DESIGN.md §11 protocol without knowing a fleet of `sbc node`
/// processes answers; on drain the coordinator is reclaimed and the whole
/// fleet is shut down before `drained` is printed.
fn coord_serve(
    args: &[String],
    coord: streaming_bc::cluster::Coordinator<streaming_bc::cluster::TcpTransport>,
    preloaded: usize,
) -> Result<(), String> {
    let cfg = server_config(args, "coord --serve")?;
    if preloaded > 0 {
        eprintln!("sbc coord: preloaded {preloaded} updates before serving");
    }

    let served = ServedCluster::new(coord);
    let keeper = served.clone();
    let handle = Server::spawn(served, cfg).map_err(|e| format!("bind failed: {e}"))?;
    serve_until_drained(handle, "coord");
    // the frontend is drained; reclaim the coordinator and drain the fleet
    if let Some(coord) = keeper.take() {
        coord.shutdown();
    }
    println!("drained");
    Ok(())
}

fn load(path: Option<&str>) -> Result<Graph, String> {
    let path = path.ok_or("missing edge-list path")?;
    load_graph(path).map_err(|e| format!("{path}: {e}"))
}

fn load_updates(path: Option<&str>) -> Result<Vec<Update>, String> {
    let path = path.ok_or("missing updates path")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut out = Vec::new();
    for (no, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut it = line.split_whitespace();
        let (op, u, v) = (it.next(), it.next(), it.next());
        let parse = |t: Option<&str>| -> Result<u32, String> {
            t.and_then(|x| x.parse().ok())
                .ok_or(format!("{path}:{}: malformed update line {line:?}", no + 1))
        };
        match op {
            Some("+") => out.push(Update::add(parse(u)?, parse(v)?)),
            Some("-") => out.push(Update::remove(parse(u)?, parse(v)?)),
            _ => return Err(format!("{path}:{}: expected '+ u v' or '- u v'", no + 1)),
        }
    }
    Ok(out)
}

fn print_top(g: &Graph, vbc: &[f64], scores: &streaming_bc::core::Scores, k: usize) {
    println!("# top-{k} vertices by betweenness (ordered-pair convention)");
    for v in top_k(vbc, k) {
        println!("v {v} {:.4}", vbc[v as usize]);
    }
    let mut edges = scores.ebc_entries(g);
    // total_cmp never panics on NaN (unlike partial_cmp), and the endpoint
    // tie-break makes equal-score output order deterministic
    edges.sort_by(|a, b| {
        b.1.total_cmp(&a.1)
            .then_with(|| a.0.endpoints().cmp(&b.0.endpoints()))
    });
    println!("# top-{k} edges");
    for (key, score) in edges.into_iter().take(k) {
        let (u, v) = key.endpoints();
        println!("e {u} {v} {score:.4}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn a_numeric_flag_is_absent_parsed_or_an_error_naming_it() {
        let a = args("serve --workers 3 --queue x --top");
        assert_eq!(flag(&a, "--workers"), Ok(Some(3)));
        assert_eq!(flag(&a, "--id"), Ok(None));
        let bad = flag(&a, "--queue").unwrap_err();
        assert!(bad.contains("--queue") && bad.contains("\"x\""), "{bad}");
        assert!(flag(&a, "--top").unwrap_err().contains("--top"));
        let two = run(&args("serve --edgelist g.txt --workers two")).unwrap_err();
        assert!(two.contains("--workers"), "{two}");
    }

    #[test]
    fn serve_and_coord_share_one_frontend_config() {
        let cfg = server_config(&args("serve --unix /tmp/s.sock --queue 8"), "serve").unwrap();
        assert_eq!(cfg.tcp.as_deref(), Some("127.0.0.1:7878"));
        assert_eq!(cfg.queue_depth, 8);
        assert!(cfg.unix.is_some());
        assert!(server_config(&args("serve --queue x"), "serve")
            .unwrap_err()
            .contains("--queue"));
        let none = server_config(&args("coord --serve --tcp none"), "coord --serve").unwrap_err();
        assert!(none.starts_with("coord --serve needs"), "{none}");
    }

    /// Run `sbc coord --edgelist <triangle> <rest>`, where every `ADDR` in
    /// `rest` is one listener that must never see a dial, and return the
    /// error the command was refused with.
    fn coord_dialing_no_one(tag: &str, rest: &str) -> String {
        let dir = std::env::temp_dir().join(format!("sbc_coord_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let edges = dir.join("g.txt");
        std::fs::write(&edges, "0 1\n1 2\n2 0\n").unwrap();
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let addr = format!("127.0.0.1:{}", listener.local_addr().unwrap().port());
        let line = format!(
            "coord --edgelist {} {}",
            edges.display(),
            rest.replace("ADDR", &addr)
        );
        let err = run(&args(&line)).unwrap_err();
        let dialed = listener.accept();
        assert!(
            matches!(&dialed, Err(e) if e.kind() == std::io::ErrorKind::WouldBlock),
            "{dialed:?}"
        );
        std::fs::remove_dir_all(&dir).ok();
        err
    }

    #[test]
    fn coord_refuses_a_node_named_twice_and_dials_no_one() {
        let err = coord_dialing_no_one("twice", "--leaders 1@ADDR,1@ADDR");
        assert!(err.contains("node id 1"), "{err}");
    }

    #[test]
    fn a_missing_string_value_or_unknown_flag_is_refused_before_any_dial() {
        // a trailing `--dir` must not run the fleet without a journal
        let err = coord_dialing_no_one("dir", "--leaders 1@ADDR --dir");
        assert_eq!(err, "--dir needs a value");
        // nor may `--dir --serve` persist into a directory named `--serve`
        let err = coord_dialing_no_one("serve", "--leaders 1@ADDR --dir --serve");
        assert_eq!(err, "--dir needs a value");
        // a typo'd flag is refused, not ignored
        let err = coord_dialing_no_one("typo", "--leaders 1@ADDR --worker 4");
        assert_eq!(err, "coord does not take --worker");
        assert_eq!(
            str_flag(&args("serve --tcp"), "--tcp"),
            Err("--tcp needs a value".into())
        );
        assert_eq!(str_flag(&args("serve --unix s"), "--unix"), Ok(Some("s")));
        assert_eq!(str_flag(&args("serve"), "--unix"), Ok(None));
    }
}
