//! The TCP front-end over real sockets: N concurrent clients must get
//! byte-identical answers to the stdin protocol, a disconnecting or
//! panicking client must not disturb any other connection, the data plane
//! must refuse admin verbs, and an `update` must hot-swap generations with
//! zero downtime under load.

use simrankpp_core::{Method, MethodKind, Rewriter, RewriterConfig, SimrankConfig};
use simrankpp_graph::fixtures::figure3_graph;
use simrankpp_graph::WeightKind;
use simrankpp_serve::{
    serve_session, IngestMetrics, NetConfig, NetServer, RewriteIndex, ServeState, ServerMetrics,
    ShutdownSignal, UpdateContext, MAX_REQUEST_LINE_BYTES,
};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

/// Deterministic figure-3 build: every call yields a byte-identical state,
/// so a fresh copy can stand in for "what stdin would have answered".
fn fig3_state() -> ServeState {
    let g = figure3_graph();
    let cfg = SimrankConfig::default().with_weight_kind(WeightKind::Clicks);
    let method = Method::compute(MethodKind::WeightedSimrank, &g, &cfg);
    let rewriter = Rewriter::new(&g, method, RewriterConfig::default());
    let index = RewriteIndex::build(&rewriter, None, 1);
    ServeState::updatable(
        index,
        UpdateContext {
            graph: Arc::new(g),
            config: cfg,
            rewriter: RewriterConfig::default(),
        },
    )
}

/// Runs `input` through the stdin session loop on a fresh identical state.
fn stdin_answers(input: &str) -> String {
    let state = fig3_state();
    let mut out = Vec::new();
    serve_session(&state, input.as_bytes(), &mut out).unwrap();
    String::from_utf8(out).unwrap()
}

struct TestServer {
    addr: SocketAddr,
    admin: SocketAddr,
    metrics: Arc<ServerMetrics>,
    signal: Arc<ShutdownSignal>,
    join: thread::JoinHandle<std::io::Result<()>>,
}

impl TestServer {
    fn start(state: ServeState, mut config: NetConfig) -> TestServer {
        config.addr = "127.0.0.1:0".to_string();
        config.admin_addr = Some("127.0.0.1:0".to_string());
        let server = NetServer::bind(Arc::new(state), config).unwrap();
        let addr = server.local_addr().unwrap();
        let admin = server.admin_addr().unwrap().unwrap();
        let metrics = server.metrics();
        let signal = server.shutdown_signal();
        let join = thread::spawn(move || server.serve());
        TestServer {
            addr,
            admin,
            metrics,
            signal,
            join,
        }
    }

    fn stop(self) {
        self.signal.trigger();
        self.join.join().unwrap().unwrap();
    }
}

/// Sends `input`, half-closes, and reads the whole response stream.
fn roundtrip(addr: SocketAddr, input: &str) -> String {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(input.as_bytes()).unwrap();
    stream.shutdown(Shutdown::Write).unwrap();
    let mut out = String::new();
    BufReader::new(stream).read_to_string(&mut out).unwrap();
    out
}

#[test]
fn eight_concurrent_clients_match_the_stdin_protocol_byte_for_byte() {
    let input = "rewrite camera\nrewrite pc\nrewrite flower\nrewrite zzz\nrewrite digital camera\n";
    let expected = stdin_answers(input);
    let ts = TestServer::start(fig3_state(), NetConfig::default());
    let answers: Vec<String> = thread::scope(|s| {
        let handles: Vec<_> = (0..8)
            .map(|_| s.spawn(|| roundtrip(ts.addr, input)))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for a in &answers {
        assert_eq!(a, &expected, "TCP answer diverged from the stdin protocol");
    }
    assert_eq!(ts.metrics.accepted.load(Ordering::Relaxed), 8);
    ts.stop();
}

#[test]
fn mid_line_disconnect_leaves_the_server_serving() {
    let ts = TestServer::start(fig3_state(), NetConfig::default());
    {
        // Half a request, no newline — then the peer vanishes.
        let mut stream = TcpStream::connect(ts.addr).unwrap();
        stream.write_all(b"rewrite cam").unwrap();
    }
    // The listener and the shared state must be unharmed.
    let out = roundtrip(ts.addr, "rewrite camera\n");
    assert!(out.starts_with("ok\tcamera\t"), "{out}");
    ts.stop();
}

#[test]
fn panicking_handler_does_not_drop_other_connections() {
    let config = NetConfig {
        debug_verbs: true,
        ..NetConfig::default()
    };
    let ts = TestServer::start(fig3_state(), config);

    // A long-lived client, mid-session before the panic…
    let victim = TcpStream::connect(ts.addr).unwrap();
    let mut victim_reader = BufReader::new(victim.try_clone().unwrap());
    let mut victim_writer = victim;
    victim_writer.write_all(b"rewrite camera\n").unwrap();
    let mut line = String::new();
    victim_reader.read_line(&mut line).unwrap();
    assert!(line.starts_with("ok\tcamera\t"), "{line}");

    // …while another connection's handler thread dies panicking.
    let out = roundtrip(ts.addr, "debug-panic\n");
    assert!(out.starts_with("ok\tdebug-panic\t"), "{out}");

    // The victim's next request must still be answered: before the poison
    // recovery in AtomicHandle, the dead handler's lock would have turned
    // this load() into a panic cascade across every connection.
    victim_writer.write_all(b"rewrite pc\n").unwrap();
    line.clear();
    victim_reader.read_line(&mut line).unwrap();
    assert!(line.starts_with("ok\tpc\t"), "{line}");
    // Close *both* halves (reader is a try_clone'd fd): the handler must
    // see EOF, or stop()'s drain would wait out the full read timeout.
    drop(victim_reader);
    drop(victim_writer);

    // The counter bumps during the dead thread's unwind, which races the
    // client's EOF — poll briefly instead of asserting the instant.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while ts.metrics.panicked.load(Ordering::Relaxed) != 1 {
        assert!(
            std::time::Instant::now() < deadline,
            "panicked counter never reached 1"
        );
        thread::sleep(Duration::from_millis(5));
    }
    ts.stop();
}

#[test]
fn data_plane_refuses_admin_verbs_and_admin_plane_serves_them() {
    let ts = TestServer::start(fig3_state(), NetConfig::default());
    let out = roundtrip(ts.addr, "batch /etc/passwd\nupdate x.tsv\ninfo\nshutdown\n");
    let lines: Vec<&str> = out.lines().collect();
    assert!(lines[0].starts_with("err\tbatch not permitted\t"), "{out}");
    assert!(lines[1].starts_with("err\tupdate not permitted\t"), "{out}");
    assert!(lines[2].starts_with("err\tinfo not permitted\t"), "{out}");
    assert!(
        lines[3].starts_with("err\tshutdown not permitted\t"),
        "{out}"
    );

    // The admin plane keeps the full surface, and its `info` carries the
    // shared net counters — including the four errors counted above.
    let out = roundtrip(ts.admin, "info\n");
    assert!(out.starts_with("info\t"), "{out}");
    assert!(out.contains("net_accepted=2"), "{out}");
    assert!(out.contains("net_errors=4"), "{out}");
    ts.stop();
}

#[test]
fn update_hot_swaps_generations_under_concurrent_load() {
    // Expected before/after bytes from identical offline states.
    let delta_path = std::env::temp_dir().join("simrankpp_net_update_delta.tsv");
    std::fs::write(&delta_path, "+\tpc\thp.com\t100\t80\t0.8\n").unwrap();
    let before = stdin_answers("rewrite camera\n");
    let before = before.trim_end().to_string();
    let after_session = stdin_answers(&format!(
        "update {}\nrewrite camera\n",
        delta_path.display()
    ));
    let after = after_session.lines().nth(1).unwrap().to_string();
    assert_ne!(before, after, "delta must change camera's answer");

    let ts = TestServer::start(fig3_state(), NetConfig::default());
    let updated = Arc::new(AtomicBool::new(false));
    let transcripts: Vec<Vec<String>> = thread::scope(|s| {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let updated = Arc::clone(&updated);
                let addr = ts.addr;
                s.spawn(move || {
                    let stream = TcpStream::connect(addr).unwrap();
                    let mut reader = BufReader::new(stream.try_clone().unwrap());
                    let mut writer = stream;
                    let mut lines = Vec::new();
                    // Keep load on until the swap has landed, then take a
                    // few more answers that must be the new generation.
                    let mut post_update = 0;
                    while post_update < 3 {
                        writer.write_all(b"rewrite camera\n").unwrap();
                        let mut line = String::new();
                        reader.read_line(&mut line).unwrap();
                        lines.push(line.trim_end().to_string());
                        if updated.load(Ordering::SeqCst) {
                            post_update += 1;
                        }
                    }
                    lines
                })
            })
            .collect();
        // Let every client get at least one pre-update answer in flight,
        // then hot-swap through the admin plane mid-load.
        thread::sleep(Duration::from_millis(20));
        let out = roundtrip(ts.admin, &format!("update {}\n", delta_path.display()));
        assert!(out.starts_with("updated\t"), "{out}");
        updated.store(true, Ordering::SeqCst);
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    std::fs::remove_file(&delta_path).ok();

    for lines in &transcripts {
        for line in lines {
            assert!(
                line == &before || line == &after,
                "mid-swap answer is neither generation: {line:?}"
            );
        }
        // Zero downtime, and the swap is visible: once the update verb has
        // returned, every subsequent answer is the new generation.
        assert_eq!(lines.last().unwrap(), &after, "swap never became visible");
    }
    ts.stop();
}

#[test]
fn graceful_shutdown_drains_in_flight_sessions() {
    let ts = TestServer::start(fig3_state(), NetConfig::default());

    // An in-flight session, mid-conversation…
    let stream = TcpStream::connect(ts.addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    writer.write_all(b"rewrite camera\n").unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(line.starts_with("ok\tcamera\t"), "{line}");

    // …when the admin plane orders shutdown.
    let out = roundtrip(ts.admin, "shutdown\n");
    assert_eq!(out, "bye\tdraining\n");

    // The in-flight session is drained, not severed: its next request gets
    // the farewell and a clean close.
    writer.write_all(b"rewrite pc\n").unwrap();
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert_eq!(line, "bye\tdraining\n");
    line.clear();
    assert_eq!(reader.read_line(&mut line).unwrap(), 0, "clean EOF");
    drop(writer);

    // serve() returns only after every handler joined; the listener is gone.
    ts.join.join().unwrap().unwrap();
    assert!(
        TcpStream::connect(ts.addr).is_err(),
        "listener must be closed after drain"
    );
}

#[test]
fn full_pool_rejects_excess_connections_with_busy() {
    let config = NetConfig {
        max_connections: 1,
        ..NetConfig::default()
    };
    let ts = TestServer::start(fig3_state(), config);

    // Occupy the single slot (round-trip proves the handler is live).
    let stream = TcpStream::connect(ts.addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    writer.write_all(b"rewrite camera\n").unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(line.starts_with("ok\tcamera\t"), "{line}");

    // The refusal is written immediately on accept — read it without
    // sending anything (unread client bytes would turn the server's close
    // into an RST that could discard the busy line).
    let mut out = String::new();
    BufReader::new(TcpStream::connect(ts.addr).unwrap())
        .read_to_string(&mut out)
        .unwrap();
    assert_eq!(out, "err\tserver busy\tconnection limit reached\n");
    assert_eq!(ts.metrics.rejected.load(Ordering::Relaxed), 1);

    // The admin plane is exempt from the data-plane bound: `shutdown` must
    // stay reachable exactly when the data plane is saturated.
    let admin_out = roundtrip(ts.admin, "info\n");
    assert!(admin_out.starts_with("info\t"), "{admin_out}");

    // Close both halves so the handler sees EOF and drain is immediate.
    drop(reader);
    drop(writer);
    ts.stop();
}

#[test]
fn read_timeout_frees_a_stalled_connection() {
    let config = NetConfig {
        read_timeout: Some(Duration::from_millis(150)),
        ..NetConfig::default()
    };
    let ts = TestServer::start(fig3_state(), config);

    // Connect and go silent: the server must close the session itself.
    let stream = TcpStream::connect(ts.addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut out = String::new();
    reader.read_to_string(&mut out).unwrap();
    assert_eq!(out, "err\tread timeout\tclosing stalled connection\n");
    assert_eq!(ts.metrics.timeouts.load(Ordering::Relaxed), 1);
    ts.stop();
}

#[test]
fn overlong_request_line_is_refused_and_the_connection_closed() {
    let ts = TestServer::start(fig3_state(), NetConfig::default());

    // 1 MiB and never a newline. The server stops reading at its limit,
    // answers and closes, so the tail of the write may fail — and the close
    // may surface as a reset after the answer instead of a clean EOF.
    let stream = TcpStream::connect(ts.addr).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let sender = thread::spawn(move || {
        let _ = writer.write_all(&vec![b'a'; 1 << 20]);
    });
    let mut out = Vec::new();
    let _ = BufReader::new(&stream).read_to_end(&mut out);
    sender.join().unwrap();
    assert_eq!(
        String::from_utf8(out).unwrap(),
        format!("err\tline too long\t{MAX_REQUEST_LINE_BYTES}\n")
    );
    assert_eq!(ts.metrics.errors.load(Ordering::Relaxed), 1);

    // A line of exactly the limit is still a request, and other clients
    // are unaffected.
    let at_limit = format!("rewrite {}\n", "a".repeat(MAX_REQUEST_LINE_BYTES - 8));
    assert!(roundtrip(ts.addr, &at_limit).starts_with("err\tunknown query\taaa"));
    let out = roundtrip(ts.addr, "rewrite camera\n");
    assert!(out.starts_with("ok\tcamera\t"), "{out}");
    ts.stop();
}

#[test]
fn health_is_answered_on_every_plane_and_reports_ready() {
    let ts = TestServer::start(fig3_state(), NetConfig::default());
    // Unlike the rest of the admin surface, `health` must be reachable
    // wherever a supervisor can connect — including the data plane.
    let out = roundtrip(ts.addr, "health\n");
    assert_eq!(out, "health\tstate=ready\n");
    let out = roundtrip(ts.admin, "health\n");
    assert_eq!(out, "health\tstate=ready\n");
    ts.stop();
}

#[test]
fn health_reports_ingest_state_and_checkpoint_age() {
    let g = figure3_graph();
    let cfg = SimrankConfig::default().with_weight_kind(WeightKind::Clicks);
    let method = Method::compute(MethodKind::WeightedSimrank, &g, &cfg);
    let rewriter = Rewriter::new(&g, method, RewriterConfig::default());
    let index = RewriteIndex::build(&rewriter, None, 1);
    let metrics = Arc::new(IngestMetrics::default());
    metrics.epoch.store(7, Ordering::Relaxed);
    metrics.refreshes.store(3, Ordering::Relaxed);
    let ts = TestServer::start(
        ServeState::ingesting(index, Arc::clone(&metrics)),
        NetConfig::default(),
    );

    // No checkpoint committed yet: the supervisor must be able to tell
    // "checkpointing disabled/never happened" from "checkpoint is stale".
    let out = roundtrip(ts.addr, "health\n");
    assert_eq!(
        out,
        "health\tstate=ingesting\tingest_epoch=7\tingest_refreshes=3\tlast_checkpoint_age_ms=none\n"
    );

    metrics.mark_checkpoint();
    let out = roundtrip(ts.addr, "health\n");
    let age = out
        .trim_end()
        .rsplit_once("last_checkpoint_age_ms=")
        .expect("age field present")
        .1
        .parse::<u64>()
        .expect("age is numeric after a commit");
    assert!(
        age < 60_000,
        "checkpoint age {age} ms is absurd for a fresh mark"
    );
    ts.stop();
}

#[test]
fn health_is_answered_while_draining() {
    let ts = TestServer::start(fig3_state(), NetConfig::default());

    // An in-flight session…
    let stream = TcpStream::connect(ts.addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    writer.write_all(b"rewrite camera\n").unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(line.starts_with("ok\tcamera\t"), "{line}");

    // …outlives the shutdown order, and its health probe still gets the
    // structured draining state (then a clean close), not a bare farewell
    // indistinguishable from the shutdown verb's own reply.
    let out = roundtrip(ts.admin, "shutdown\n");
    assert_eq!(out, "bye\tdraining\n");
    writer.write_all(b"health\n").unwrap();
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert_eq!(line, "health\tstate=draining\n");
    line.clear();
    assert_eq!(reader.read_line(&mut line).unwrap(), 0, "clean EOF");
    drop(writer);
    ts.join.join().unwrap().unwrap();
}
