//! Kill-anywhere chaos suite: crash the real `serve ingest` process at
//! every registered failpoint site (plus a raw SIGKILL), restart it with
//! `--resume`, and differentially assert the recovered server's answers
//! are byte-identical — ids and score text alike — to an uninterrupted
//! oracle run over the same click log.
//!
//! Requires the `failpoints` feature (declared via `required-features` in
//! Cargo.toml), so plain tier-1 `cargo test` skips this file; CI runs it
//! as the `crash-smoke` job under `--release`.
//!
//! The harness is deliberately crash-agnostic: a site that never fires on
//! the ingest path (e.g. `snapshot-save`, which belongs to `serve update`)
//! degrades to a SIGKILL mid-run — still a valid crash, still required to
//! recover bit-identically. That keeps the suite correct-by-construction
//! when new sites are added: discovery greps the source tree, so an
//! unregistered site cannot silently escape the kill-anywhere invariant.

use std::collections::BTreeSet;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const BIN: &str = env!("CARGO_BIN_EXE_serve");

/// Epochs 0–2: enough history that `--window 3` retires epoch 0 once the
/// appended tail closes epoch 4, exercising the retired-name universe.
const BACKLOG: &str = "+\t0\tretired-query\tad-old\t50\t5\t0.10\n\
@\t1\n\
+\t1\tcamera\tad-cam\t100\t10\t0.12\n\
+\t1\tdigital camera\tad-cam\t80\t8\t0.15\n\
@\t2\n\
+\t2\tflights\tad-fly\t50\t5\t0.20\n\
+\t2\tcheap flights\tad-fly\t60\t6\t0.18\n\
@\t3\n";

/// Appended while the victim is live: closes epoch 4, so the surviving
/// window is epochs 2–4 with non-trivial rewrites on both components.
const TAIL: &str = "+\t3\tcamera\tad-cam2\t60\t6\t0.30\n\
+\t3\tdigital camera\tad-cam2\t40\t4\t0.25\n\
+\t3\thotels\tad-hot\t20\t2\t0.10\n\
@\t4\n";

/// Every name the final log ever saw, plus one it never did: the oracle
/// and the recovered server must agree byte-for-byte on all of them —
/// including `ok\t…\t0` for retired queries (universe preservation) and
/// the error shape for the unknown one.
const QUERIES: &[&str] = &[
    "retired-query",
    "camera",
    "digital camera",
    "flights",
    "cheap flights",
    "hotels",
    "no-such-query",
];

struct ServeProc {
    child: Child,
    stderr: Arc<Mutex<Vec<String>>>,
}

impl ServeProc {
    fn spawn(dir: &Path, args: &[&str], failpoints: Option<&str>) -> ServeProc {
        let mut cmd = Command::new(BIN);
        cmd.args(args)
            .current_dir(dir)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .env_remove("SIMRANKPP_FAILPOINTS");
        if let Some(spec) = failpoints {
            cmd.env("SIMRANKPP_FAILPOINTS", spec);
        }
        let mut child = cmd.spawn().expect("spawn serve");
        let stderr = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&stderr);
        let pipe = child.stderr.take().expect("stderr piped");
        std::thread::spawn(move || {
            for line in BufReader::new(pipe).lines().map_while(Result::ok) {
                sink.lock().unwrap().push(line);
            }
        });
        ServeProc { child, stderr }
    }

    fn stderr_text(&self) -> String {
        self.stderr.lock().unwrap().join("\n")
    }

    /// First stderr line containing `pat`, polled until `timeout`; None if
    /// the process exits first without ever printing it.
    fn wait_for_line(&mut self, pat: &str, timeout: Duration) -> Option<String> {
        let t0 = Instant::now();
        loop {
            if let Some(l) = self.stderr.lock().unwrap().iter().find(|l| l.contains(pat)) {
                return Some(l.clone());
            }
            if self.child.try_wait().expect("try_wait").is_some() {
                // One last scan: the reader thread may still be draining.
                std::thread::sleep(Duration::from_millis(50));
                return self
                    .stderr
                    .lock()
                    .unwrap()
                    .iter()
                    .find(|l| l.contains(pat))
                    .cloned();
            }
            if t0.elapsed() > timeout {
                return None;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    fn wait_for_exit(&mut self, timeout: Duration) -> bool {
        let t0 = Instant::now();
        while t0.elapsed() < timeout {
            if self.child.try_wait().expect("try_wait").is_some() {
                return true;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        false
    }

    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for ServeProc {
    fn drop(&mut self) {
        self.kill();
    }
}

fn addr_of(line: &str) -> String {
    line.split_whitespace()
        .find(|w| w.contains(':') && w.rsplit(':').next().unwrap().parse::<u16>().is_ok())
        .unwrap_or_else(|| panic!("no addr in {line:?}"))
        .to_owned()
}

/// One connection, all queries, full transcript (including the final
/// `bye`) — the unit of the differential comparison.
fn query_transcript(addr: &str) -> String {
    let mut conn = TcpStream::connect(addr).expect("connect data plane");
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut req = String::new();
    for q in QUERIES {
        req.push_str(&format!("rewrite {q}\n"));
    }
    req.push_str("quit\n");
    conn.write_all(req.as_bytes()).expect("send queries");
    let mut out = String::new();
    conn.read_to_string(&mut out).expect("read transcript");
    out
}

fn shutdown_via(admin: &str) {
    if let Ok(mut conn) = TcpStream::connect(admin) {
        let _ = conn.write_all(b"shutdown\n");
        let _ = conn.set_read_timeout(Some(Duration::from_secs(5)));
        let mut buf = String::new();
        let _ = conn.read_to_string(&mut buf);
    }
}

fn ingest_args(ck: Option<&str>, resume: bool) -> Vec<&str> {
    let mut v = vec![
        "ingest",
        "click.log",
        "--window",
        "3",
        "--poll-ms",
        "10",
        "--addr",
        "127.0.0.1:0",
        "--admin",
        "127.0.0.1:0",
    ];
    if let Some(ck) = ck {
        v.push("--checkpoint");
        v.push(ck);
    }
    if resume {
        v.push("--resume");
    }
    v
}

fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("simrankpp_crash_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn append_tail(dir: &Path) {
    let mut f = std::fs::OpenOptions::new()
        .append(true)
        .open(dir.join("click.log"))
        .unwrap();
    f.write_all(TAIL.as_bytes()).unwrap();
    f.flush().unwrap();
}

/// Serve the final log uninterrupted and capture the answer transcript —
/// the ground truth every crashed-and-recovered run must reproduce.
fn oracle_transcript() -> String {
    let dir = fresh_dir("oracle");
    std::fs::write(dir.join("click.log"), format!("{BACKLOG}{TAIL}")).unwrap();
    let mut p = ServeProc::spawn(&dir, &ingest_args(None, false), None);
    let data = addr_of(
        &p.wait_for_line("data plane listening", Duration::from_secs(20))
            .expect("oracle serves"),
    );
    let admin = addr_of(
        &p.wait_for_line("admin plane listening", Duration::from_secs(5))
            .unwrap(),
    );
    let transcript = query_transcript(&data);
    shutdown_via(&admin);
    p.wait_for_exit(Duration::from_secs(10));
    transcript
}

/// Crash one `serve ingest` run (abort failpoint if the site fires on the
/// ingest path, SIGKILL otherwise), restart with `--resume`, and return
/// the recovered transcript plus whether the restart took the warm path.
fn crash_and_recover(site: &str, spec: Option<&str>) -> (String, bool) {
    let dir = fresh_dir(&site.replace('-', "_"));
    std::fs::write(dir.join("click.log"), BACKLOG).unwrap();

    let mut victim = ServeProc::spawn(&dir, &ingest_args(Some("ck.bin"), false), spec);
    // The victim may die during catch-up (checkpoint-path sites) before it
    // ever listens; both outcomes are valid crash points.
    let listening = victim.wait_for_line("data plane listening", Duration::from_secs(20));
    append_tail(&dir);
    if let Some(ref line) = listening {
        // Poke the data plane once so connection-scoped sites (net-handler)
        // get their chance to fire; ignore errors — the victim may be dead.
        if let Ok(mut conn) = TcpStream::connect(addr_of(line)) {
            let _ = conn.write_all(b"rewrite camera\nquit\n");
            let _ = conn.set_read_timeout(Some(Duration::from_millis(500)));
            let mut buf = String::new();
            let _ = conn.read_to_string(&mut buf);
        }
    }
    if !victim.wait_for_exit(Duration::from_secs(3)) {
        // Site never fired mid-ingest: fall back to the ultimate failpoint.
        victim.kill();
    }

    let had_checkpoint = dir.join("ck.bin").exists();
    let mut rec = ServeProc::spawn(&dir, &ingest_args(Some("ck.bin"), true), None);
    let data = addr_of(
        &rec.wait_for_line("data plane listening", Duration::from_secs(20))
            .unwrap_or_else(|| {
                panic!(
                    "[{site}] recovery never served; stderr:\n{}",
                    rec.stderr_text()
                )
            }),
    );
    let admin = addr_of(
        &rec.wait_for_line("admin plane listening", Duration::from_secs(5))
            .unwrap(),
    );
    let transcript = query_transcript(&data);
    let resumed = rec.stderr_text().contains("resumed from checkpoint");
    if had_checkpoint {
        assert!(
            resumed,
            "[{site}] a committed checkpoint existed but recovery cold-started; stderr:\n{}",
            rec.stderr_text()
        );
    }
    shutdown_via(&admin);
    rec.wait_for_exit(Duration::from_secs(10));
    (transcript, resumed)
}

/// Greps the workspace source for registered failpoint sites so a newly
/// added site is automatically pulled into the kill-anywhere sweep.
fn discover_sites() -> Vec<String> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut files = Vec::new();
    let mut stack = vec![root.join("crates")];
    while let Some(d) = stack.pop() {
        for entry in std::fs::read_dir(&d).expect("read_dir").flatten() {
            let p = entry.path();
            if p.is_dir() {
                stack.push(p);
            } else if p.extension().is_some_and(|e| e == "rs")
                && p.components().any(|c| c.as_os_str() == "src")
            {
                files.push(p);
            }
        }
    }
    let mut sites = BTreeSet::new();
    for f in files {
        let text = std::fs::read_to_string(&f).unwrap_or_default();
        for marker in ["fail_point!(\"", "eval(\""] {
            let mut rest = text.as_str();
            while let Some(i) = rest.find(marker) {
                rest = &rest[i + marker.len()..];
                if let Some(end) = rest.find('"') {
                    let site = &rest[..end];
                    if !site.is_empty() && !site.starts_with("fp-test-") {
                        sites.insert(site.to_owned());
                    }
                }
            }
        }
    }
    let sites: Vec<String> = sites.into_iter().collect();
    assert!(
        sites.len() >= 10,
        "site discovery broke (found only {sites:?})"
    );
    sites
}

/// The tentpole invariant: abort at EVERY registered site, resume, and the
/// served answers are identical to the uninterrupted oracle. One test (not
/// one per site) so the oracle is computed once.
#[test]
fn kill_anywhere_recovery_is_bit_identical() {
    let oracle = oracle_transcript();
    assert!(
        oracle.contains("ok\tcamera") && oracle.contains("digital camera"),
        "oracle transcript looks wrong:\n{oracle}"
    );
    let mut any_resumed = false;
    for site in discover_sites() {
        let (transcript, resumed) = crash_and_recover(&site, Some(&format!("{site}=abort")));
        any_resumed |= resumed;
        assert_eq!(
            transcript, oracle,
            "[{site}] recovered answers diverge from the uninterrupted oracle"
        );
    }
    // The catch-up build is published like every later generation, so
    // `ingest-publish=abort` above dies before any checkpoint exists. Its
    // second hit is the mid-tail publish, with a committed checkpoint.
    let (transcript, resumed) =
        crash_and_recover("ingest-publish-tail", Some("ingest-publish=2*abort"));
    assert!(resumed, "[ingest-publish=2*abort] recovery cold-started");
    assert_eq!(
        transcript, oracle,
        "[ingest-publish=2*abort] recovered answers diverge from the uninterrupted oracle"
    );
    assert!(
        any_resumed,
        "no site run ever took the warm --resume path; the checkpoint machinery is dead code"
    );
}

/// A raw SIGKILL (no failpoint cooperation at all) mid-ingest must recover
/// just the same.
#[test]
fn sigkill_mid_ingest_recovers_bit_identical() {
    let oracle = oracle_transcript();
    let (transcript, _) = crash_and_recover("sigkill", None);
    assert_eq!(
        transcript, oracle,
        "SIGKILL recovery diverges from the uninterrupted oracle"
    );
}

/// A corrupt checkpoint is refused with a structured error and moved to
/// `.corrupt` quarantine — never a panic, never a silent zero-offset
/// restart that would lie about resuming.
#[test]
fn corrupt_checkpoint_is_refused_and_quarantined() {
    let dir = fresh_dir("corrupt_ck");
    std::fs::write(dir.join("click.log"), format!("{BACKLOG}{TAIL}")).unwrap();
    std::fs::write(
        dir.join("ck.bin"),
        b"SRPPCKPT but then garbage garbage garbage",
    )
    .unwrap();

    let mut p = ServeProc::spawn(&dir, &ingest_args(Some("ck.bin"), true), None);
    assert!(
        p.wait_for_exit(Duration::from_secs(20)),
        "a corrupt checkpoint must fail fast, not serve"
    );
    let status = p.child.wait().expect("wait");
    assert!(!status.success(), "corrupt checkpoint must exit non-zero");
    let err = p.stderr_text();
    assert!(
        err.contains("refused") && err.contains("quarantined"),
        "structured refusal missing from stderr:\n{err}"
    );
    assert!(
        dir.join("ck.bin.corrupt").exists(),
        "corrupt checkpoint was not quarantined"
    );
    assert!(
        !dir.join("ck.bin").exists(),
        "corrupt checkpoint left in place would crash-loop a supervisor"
    );
}

/// The in-process member of the suite: an `update` of a live single-source
/// server stopped at `live-rebuild-built` — the next engine is built, nothing
/// is committed. (The only test here that arms this process's own registry;
/// every other one arms a child's through its environment.)
mod live_update {
    use simrankpp_core::{MethodKind, RewriterConfig, SimrankConfig};
    use simrankpp_graph::fixtures::figure3_graph;
    use simrankpp_graph::WeightKind;
    use simrankpp_serve::{serve_session, IndexMeta, LiveContext, RewriteIndex, ServeState};
    use simrankpp_util::failpoint::{self, Action};
    use std::sync::{mpsc, Arc, Mutex};
    use std::time::Duration;

    const SITE: &str = "live-rebuild-built";

    fn session(state: &ServeState, input: &str) -> String {
        let mut out = Vec::new();
        serve_session(state, input.as_bytes(), &mut out).unwrap();
        String::from_utf8(out).unwrap()
    }

    #[test]
    fn update_stopped_after_the_build_never_blocked_or_changed_an_answer() {
        let config = SimrankConfig::default().with_weight_kind(WeightKind::Clicks);
        let live = LiveContext::new(
            figure3_graph(),
            MethodKind::WeightedSimrank,
            config,
            RewriterConfig::default(),
        )
        .unwrap();
        let meta = IndexMeta {
            method: MethodKind::WeightedSimrank,
            max_rewrites: 5,
            bid_filtered: false,
            approx_sharding: false,
            kernel: config.kernel,
            segments: 0,
        };
        let state = Arc::new(ServeState::fixed(RewriteIndex::empty(meta)).with_live(live, 64));
        let delta = super::fresh_dir("live_update").join("delta.tsv");
        std::fs::write(&delta, "+\tpc\thp.com\t100\t80\t0.8\n").unwrap();
        let update = format!("update {}\n", delta.display());

        // Both rows are cached from here on.
        let before = session(&state, "rewrite camera\nrewrite flower\n");
        assert_eq!(before.matches("ok\t").count(), 2, "{before}");

        // At the site the update is in flight: the engine over the new graph
        // exists, the commit has not happened. A reader on another thread
        // must be answered — from the cache, by the old generation — while
        // the updater waits here for it; were the context lock held across
        // the precompute, the reader would block and the wait time out.
        let mid_flight = Arc::new(Mutex::new(None));
        failpoint::set_hook(SITE, {
            let (state, mid_flight) = (Arc::clone(&state), Arc::clone(&mid_flight));
            move || {
                let (tx, rx) = mpsc::channel();
                let reader = std::thread::spawn({
                    let state = Arc::clone(&state);
                    move || {
                        let hits = state.cache_stats().unwrap().hits;
                        let line = session(&state, "rewrite camera\n");
                        tx.send((line, state.cache_stats().unwrap().hits - hits))
                    }
                });
                let answer = rx
                    .recv_timeout(Duration::from_secs(30))
                    .expect("a cached query blocked behind an in-flight update");
                reader.join().unwrap().unwrap();
                *mid_flight.lock().unwrap() = Some(answer);
            }
        });
        failpoint::set(SITE, Action::ReturnError, 1);
        let refused = session(&state, &update);
        failpoint::clear(SITE);
        failpoint::clear_hook(SITE);

        assert!(refused.starts_with("err\t"), "{refused}");
        assert!(refused.contains(SITE), "{refused}");
        let (line, cache_hits) = mid_flight
            .lock()
            .unwrap()
            .take()
            .expect("site never reached");
        assert_eq!(line, before.lines().next().unwrap().to_owned() + "\n");
        assert_eq!(cache_hits, 1, "the mid-flight answer must be a cache hit");
        // Nothing was committed: same bytes, and still from the cache.
        assert_eq!(session(&state, "rewrite camera\nrewrite flower\n"), before);
        assert_eq!(state.cache_stats().unwrap().generation, 0);

        // Disarmed, the same update goes through and moves the dirty answer.
        let applied = session(&state, &update);
        assert!(applied.starts_with("updated\t"), "{applied}");
        let after = session(&state, "rewrite camera\nrewrite flower\n");
        assert_ne!(after.lines().next(), before.lines().next());
        assert_eq!(after.lines().nth(1), before.lines().nth(1));
    }
}
