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
//! Each subcommand refuses a `--flag` it does not take, a flag whose value
//! is missing or is the next `--flag`, and a missing or extra positional
//! argument, wherever the flags sit: a typo never falls back to a default
//! or is read as a path. Only these usage errors print the usage block.
//!
//! `sbc serve` owns one `Session` and speaks the newline-delimited JSON
//! command protocol of DESIGN.md §11 over TCP (`--tcp ADDR`, default
//! `127.0.0.1:7878`, port 0 for ephemeral) and/or a unix socket
//! (`--unix PATH`). It drains gracefully on SIGTERM / ctrl-c / the
//! `shutdown` command: queued batches finish, the session checkpoints,
//! new connections are refused.

use std::process::ExitCode;
use streaming_bc::core::ranking::top_k;
use streaming_bc::core::{brandes, Scores, Update};
use streaming_bc::gn::girvan_newman_incremental;
use streaming_bc::graph::io::load_graph;
use streaming_bc::graph::stats::GraphStats;
use streaming_bc::graph::Graph;
use streaming_bc::serve::{ServedCluster, ServedSession, Server, ServerConfig, ServerHandle};
use streaming_bc::{Backend, ErrorKind, Session};

/// What each subcommand takes, printed after a usage error.
const USAGE: &str = "  sbc stats  <edgelist>
  sbc exact  <edgelist> [--top k]
  sbc stream <edgelist> <updates-file> [--top k]
  sbc gn     <edgelist> [--removals k]
  sbc replay --dir DIR [--at seq|all] [--top k]
  sbc serve  (--edgelist F | --open DIR) [--tcp ADDR] [--unix PATH]
             [--workers p] [--dir DIR] [--queue n]
  sbc node   --id N [--tcp ADDR]
  sbc coord  --edgelist F --leaders id@addr,.. [--followers id@addr,..]
             [--updates FILE] [--top k]
             [--serve [--tcp ADDR] [--unix PATH] [--queue n]]
             [--dir DIR]   (resumes from DIR when a snapshot exists)";

/// Each subcommand, the positionals it takes in order, and the `--flags`
/// it takes, each list space-separated. Any other word is refused, so a
/// typo is an error rather than silently ignored or read as a path.
const COMMANDS: &[(&str, &str, &str)] = &[
    ("stats", "<edgelist>", ""),
    ("exact", "<edgelist>", "--top"),
    ("stream", "<edgelist> <updates-file>", "--top"),
    ("gn", "<edgelist>", "--removals"),
    ("replay", "", "--dir --at --top"),
    (
        "serve",
        "",
        "--edgelist --open --tcp --unix --workers --dir --queue",
    ),
    ("node", "", "--id --tcp"),
    (
        "coord",
        "",
        "--edgelist --leaders --followers --updates --top --dir --tcp --unix --queue --serve",
    ),
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Err(failure) = run(&args) else {
        return ExitCode::SUCCESS;
    };
    eprintln!("sbc: {}", failure.msg);
    if failure.usage {
        eprintln!("\nusage:\n{USAGE}");
    }
    ExitCode::FAILURE
}

/// Why a run failed. `main` prints the usage block after a usage error —
/// a subcommand, flag or positional it does not take, or a flag value it
/// cannot read — and the message alone after a runtime failure.
#[derive(Debug, PartialEq)]
struct Failure {
    msg: String,
    usage: bool,
}

/// A usage error saying `msg`.
fn usage(msg: impl Into<String>) -> Failure {
    let msg = msg.into();
    Failure { msg, usage: true }
}

impl From<String> for Failure {
    fn from(msg: String) -> Self {
        Failure { msg, usage: false }
    }
}

/// The words after the subcommand, split by [`parse`]: each `--flag` with
/// its value (empty for `--serve`), and the positionals in order.
#[derive(Default)]
struct Cli<'a> {
    flags: Vec<(&'a str, &'a str)>,
    positionals: Vec<&'a str>,
}

/// The value of numeric flag `name`: `None` when the flag is absent, and
/// a usage error naming it when its value is not a non-negative integer (a
/// typo must not fall back to the default).
fn flag(cli: &Cli, name: &str) -> Result<Option<usize>, Failure> {
    let parse = |v: &str| {
        v.parse()
            .map_err(|_| usage(format!("{name} needs a non-negative integer, got {v:?}")))
    };
    str_flag(cli, name).map(parse).transpose()
}

/// The value of string flag `name`, `None` when the flag is absent.
fn str_flag<'a>(cli: &Cli<'a>, name: &str) -> Option<&'a str> {
    cli.flags.iter().find(|(f, _)| *f == name).map(|&(_, v)| v)
}

/// Split the words after subcommand `cmd` against its [`COMMANDS`] entry.
/// Every flag takes the next word as its value except `coord`'s
/// `--serve`; a value that is missing or is itself a `--flag` is refused,
/// as is a missing or extra positional.
fn parse<'a>(cmd: &str, words: &'a [String]) -> Result<Cli<'a>, Failure> {
    let &(_, names, takes) = COMMANDS
        .iter()
        .find(|(name, ..)| *name == cmd)
        .ok_or_else(|| usage(format!("unknown subcommand {cmd:?}")))?;
    let mut cli = Cli::default();
    let mut words = words.iter().map(String::as_str);
    while let Some(word) = words.next() {
        if !word.starts_with("--") {
            cli.positionals.push(word);
        } else if !takes.split_whitespace().any(|f| f == word) {
            return Err(usage(format!("{cmd} does not take {word}")));
        } else if word == "--serve" {
            cli.flags.push((word, ""));
        } else {
            match words.next() {
                Some(v) if !v.starts_with("--") => cli.flags.push((word, v)),
                _ => return Err(usage(format!("{word} needs a value"))),
            }
        }
    }
    if let Some(extra) = cli.positionals.get(names.split_whitespace().count()) {
        return Err(usage(format!("{cmd} does not take {extra}")));
    }
    if let Some(missing) = names.split_whitespace().nth(cli.positionals.len()) {
        return Err(usage(format!("{cmd} needs {missing}")));
    }
    Ok(cli)
}

fn run(args: &[String]) -> Result<(), Failure> {
    let (cmd, words) = args
        .split_first()
        .ok_or_else(|| usage("missing subcommand"))?;
    let cli = parse(cmd, words)?;
    let top = || flag(&cli, "--top").map(|k| k.unwrap_or(10));
    match cmd.as_str() {
        "stats" => {
            let g = load(cli.positionals[0])?;
            let s = GraphStats::compute(&g, 64);
            println!("n={} m={} avg_degree={:.2}", s.n, s.m, s.avg_degree);
            println!(
                "clustering={:.4} effective_diameter={:.2}",
                s.clustering_coefficient, s.effective_diameter
            );
            Ok(())
        }
        "exact" => {
            let k = top()?;
            let g = load(cli.positionals[0])?;
            let scores = brandes(&g);
            print_top(&g, &scores, k);
            Ok(())
        }
        "stream" => {
            let k = top()?;
            let g = load(cli.positionals[0])?;
            let updates = load_updates(cli.positionals[1])?;
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
            print_top(session.graph(), &scores, k);
            Ok(())
        }
        "gn" => {
            let removals = flag(&cli, "--removals")?;
            let g = load(cli.positionals[0])?;
            let k = removals.unwrap_or(g.m().min(200));
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
        "replay" => replay(&cli),
        "serve" => serve(&cli),
        "node" => node(&cli),
        "coord" => coord(&cli),
        other => unreachable!("COMMANDS lists no subcommand {other:?}"),
    }
}

/// `sbc replay`: temporal analytics over a session directory's sealed
/// history — reconstruct the exact scores the session reported at seq
/// `--at` (or the newest seq with `--at all`, the default) and print them
/// with full `f64` round-trip precision, like `sbc coord` batch output.
/// A directory with a sealed-segment gap is refused with the typed
/// missing range.
fn replay(cli: &Cli) -> Result<(), Failure> {
    let dir = str_flag(cli, "--dir").ok_or_else(|| usage("replay needs --dir DIR"))?;
    let at = match str_flag(cli, "--at") {
        None | Some("all") => None,
        Some(s) => Some(
            s.parse::<u64>()
                .map_err(|_| usage(format!("bad --at {s:?} (want a seq or 'all')")))?,
        ),
    };
    let top = flag(cli, "--top")?;
    let replayed = Session::replay_dir(dir, at).map_err(|e| format!("replay {dir}: {e}"))?;
    println!(
        "# replayed {dir} to seq={} in {:.3}s",
        replayed.seq,
        replayed.reduced.wall.as_secs_f64()
    );
    print_exact(&replayed.graph, &replayed.reduced.scores, top);
    Ok(())
}

/// `sbc serve`: build or reopen a session, then hand it to the frontend.
///
/// A session directory that holds a session but cannot be resumed — its
/// records are ahead of its manifest, or its history has a gap — still
/// yields a *running* server: every command is answered with the typed
/// `records_ahead` or `history_gap` error, so operators and clients see the
/// census instead of a crash loop or a silent hang.
fn serve(cli: &Cli) -> Result<(), Failure> {
    let cfg = ServerConfig {
        // test-only crash injection for the restart-under-traffic suite
        crash_after: std::env::var("SBC_SERVE_CRASH_AFTER")
            .ok()
            .and_then(|v| v.parse().ok()),
        ..server_config(cli, "serve")?
    };

    let handle = if let Some(dir) = str_flag(cli, "--open") {
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
            Err(e) => return Err(format!("open {dir}: {e}").into()),
        }
    } else {
        let workers = flag(cli, "--workers")?.unwrap_or(1);
        let edgelist = str_flag(cli, "--edgelist")
            .ok_or_else(|| usage("serve needs --edgelist F or --open DIR"))?;
        let g = load(edgelist)?;
        let backend = match str_flag(cli, "--dir") {
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
fn server_config(cli: &Cli, cmd: &str) -> Result<ServerConfig, Failure> {
    let cfg = ServerConfig {
        tcp: match str_flag(cli, "--tcp") {
            Some("none") => None,
            Some(addr) => Some(addr.to_string()),
            None => Some("127.0.0.1:7878".to_string()),
        },
        unix: str_flag(cli, "--unix").map(Into::into),
        queue_depth: flag(cli, "--queue")?.unwrap_or(64),
        crash_after: None,
    };
    if cfg.tcp.is_none() && cfg.unix.is_none() {
        return Err(usage(format!("{cmd} needs at least one of --tcp, --unix")));
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
fn node(cli: &Cli) -> Result<(), Failure> {
    use streaming_bc::cluster::{transport, NodeConfig, NodeId, ShardNode, TcpTransport};
    let id = flag(cli, "--id")?.ok_or_else(|| usage("node needs --id N"))?;
    let id = u32::try_from(id).map_err(|_| usage("node id out of range"))?;
    if id == 0 {
        return Err(usage("node id 0 is reserved for the coordinator"));
    }
    let addr = str_flag(cli, "--tcp").unwrap_or("127.0.0.1:0");
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
fn coord(cli: &Cli) -> Result<(), Failure> {
    use streaming_bc::cluster::{
        transport, CoordJournal, Coordinator, CoordinatorConfig, NodeId, ShardSpec, TcpTransport,
        COORD,
    };
    let dir = str_flag(cli, "--dir");
    let top = flag(cli, "--top")?;
    let updates = match str_flag(cli, "--updates") {
        Some(path) => load_updates(path)?,
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
        let edgelist =
            str_flag(cli, "--edgelist").ok_or_else(|| usage("coord needs --edgelist F"))?;
        let leaders = str_flag(cli, "--leaders").ok_or_else(|| usage("coord needs --leaders"))?;
        let leaders = parse_peers(leaders).map_err(usage)?;
        let followers = parse_peers(str_flag(cli, "--followers").unwrap_or("")).map_err(usage)?;
        if leaders.is_empty() {
            return Err(usage("coord needs at least one leader"));
        }
        if !followers.is_empty() && followers.len() != leaders.len() {
            return Err(usage("--followers must list one follower per leader"));
        }
        let g = load(edgelist)?;
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
    if str_flag(cli, "--serve").is_some() {
        return coord_serve(cli, coord, total);
    }
    let scores = coord
        .reduce_exact()
        .map_err(|e| format!("reduce failed: {e}"))?;
    println!(
        "# applied {total} updates across {} shards (failovers={})",
        coord.num_shards(),
        coord.failovers()
    );
    print_exact(coord.graph(), &scores, top);
    coord.shutdown();
    Ok(())
}

/// `sbc coord --serve`: the bootstrapped cluster behind the same JSON-line
/// frontend `sbc serve` offers. Clients apply updates and reduce through
/// the DESIGN.md §11 protocol without knowing a fleet of `sbc node`
/// processes answers; on drain the coordinator is reclaimed and the whole
/// fleet is shut down before `drained` is printed.
fn coord_serve(
    cli: &Cli,
    coord: streaming_bc::cluster::Coordinator<streaming_bc::cluster::TcpTransport>,
    preloaded: usize,
) -> Result<(), Failure> {
    let cfg = server_config(cli, "coord --serve")?;
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

fn load(path: &str) -> Result<Graph, String> {
    load_graph(path).map_err(|e| format!("{path}: {e}"))
}

fn load_updates(path: &str) -> Result<Vec<Update>, String> {
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

/// Every vertex and edge score with full `f64` precision (`{}` on f64 is
/// shortest-round-trip: the lines parse back bitwise), then the top `k`
/// when asked.
fn print_exact(g: &Graph, scores: &Scores, top: Option<usize>) {
    for (v, x) in scores.vbc.iter().enumerate() {
        println!("v {v} {x}");
    }
    for (key, x) in scores.ebc_entries(g) {
        let (u, v) = key.endpoints();
        println!("e {u} {v} {x}");
    }
    if let Some(k) = top {
        print_top(g, scores, k);
    }
}

fn print_top(g: &Graph, scores: &Scores, k: usize) {
    let vbc = &scores.vbc;
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

    /// `run`'s error message for `line`.
    fn refusal(line: &str) -> String {
        run(&args(line)).unwrap_err().msg
    }

    #[test]
    fn a_numeric_flag_is_absent_parsed_or_an_error_naming_it() {
        let words = args("--workers 3 --queue x");
        let cli = parse("serve", &words).unwrap();
        assert_eq!(flag(&cli, "--workers"), Ok(Some(3)));
        assert_eq!(flag(&cli, "--id"), Ok(None));
        let bad = flag(&cli, "--queue").unwrap_err();
        assert!(
            bad.msg.contains("--queue") && bad.msg.contains("\"x\""),
            "{bad:?}"
        );
        assert!(refusal("exact g.txt --top").contains("--top"));
        let two = refusal("serve --edgelist g.txt --workers two");
        assert!(two.contains("--workers"), "{two}");
    }

    #[test]
    fn serve_and_coord_share_one_frontend_config() {
        let words = args("--unix /tmp/s.sock --queue 8");
        let cfg = server_config(&parse("serve", &words).unwrap(), "serve").unwrap();
        assert_eq!(cfg.tcp.as_deref(), Some("127.0.0.1:7878"));
        assert_eq!(cfg.queue_depth, 8);
        assert!(cfg.unix.is_some());
        assert!(refusal("serve --queue x").contains("--queue"));
        let words = args("--serve --queue 8 --leaders 1@a");
        let cfg = server_config(&parse("coord", &words).unwrap(), "coord --serve").unwrap();
        assert_eq!(cfg.queue_depth, 8);
        let words = args("--serve --tcp none");
        let none = server_config(&parse("coord", &words).unwrap(), "coord --serve").unwrap_err();
        assert!(none.msg.starts_with("coord --serve needs"), "{none:?}");
    }

    #[test]
    fn the_usage_block_shows_exactly_what_each_subcommand_takes() {
        for &(cmd, names, flags) in COMMANDS {
            let entry = USAGE
                .split("  sbc ")
                .find(|e| e.split_whitespace().next() == Some(cmd))
                .unwrap_or_else(|| panic!("USAGE has no {cmd} entry"));
            let mut shown: Vec<_> = entry
                .split(|c: char| c.is_whitespace() || "[]()|".contains(c))
                .filter(|w| w.starts_with("--") || w.starts_with('<'))
                .collect();
            let mut takes: Vec<_> = names
                .split_whitespace()
                .chain(flags.split_whitespace())
                .collect();
            takes.sort_unstable();
            shown.sort_unstable();
            shown.dedup();
            assert_eq!(shown, takes, "USAGE's {cmd} entry against COMMANDS");
        }
    }

    /// A scratch directory holding `files`, removed by the caller.
    fn scratch(tag: &str, files: &[(&str, &str)]) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("sbc_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for (name, text) in files {
            std::fs::write(dir.join(name), text).unwrap();
        }
        dir
    }

    #[test]
    fn positionals_are_counted_wherever_the_flags_sit() {
        let dir = scratch("positionals", &[("g.txt", "0 1\n1 2\n2 0\n2 3\n")]);
        let g = dir.join("g.txt").display().to_string();
        // a flag before the edge list is still a flag, not a path
        run(&args(&format!("exact --top 2 {g}"))).unwrap();
        let extra = refusal(&format!("exact {g} extra.txt"));
        assert_eq!(extra, "exact does not take extra.txt");
        assert_eq!(refusal("stream g.txt"), "stream needs <updates-file>");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn only_usage_errors_ask_for_the_usage_block() {
        let dir = scratch("usage", &[("g.txt", "0 1\n1 2\n"), ("ups.txt", "+ 1 5\n")]);
        let (g, ups) = (dir.join("g.txt"), dir.join("ups.txt"));
        let line = format!("stream {} {}", g.display(), ups.display());
        let skips = run(&args(&line)).unwrap_err();
        assert!(!skips.usage && skips.msg.contains("skips ids"), "{skips:?}");
        let typo = run(&args(&format!("exact {} --topp 3", g.display())));
        assert_eq!(typo, Err(usage("exact does not take --topp")));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Run `sbc coord --edgelist <triangle> <rest>`, where every `ADDR` in
    /// `rest` is one listener that must never see a dial, and return the
    /// error the command was refused with.
    fn coord_dialing_no_one(tag: &str, rest: &str) -> String {
        let dir = scratch(&format!("coord_{tag}"), &[("g.txt", "0 1\n1 2\n2 0\n")]);
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let addr = format!("127.0.0.1:{}", listener.local_addr().unwrap().port());
        let line = format!(
            "coord --edgelist {} {}",
            dir.join("g.txt").display(),
            rest.replace("ADDR", &addr)
        );
        let err = refusal(&line);
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
        assert_eq!(refusal("serve --tcp"), "--tcp needs a value");
        let words = args("--unix s");
        let cli = parse("serve", &words).unwrap();
        assert_eq!(str_flag(&cli, "--unix"), Some("s"));
        assert_eq!(str_flag(&cli, "--tcp"), None);
    }
}
