//! The `serve` binary against the library, differentially: `serve update`
//! writes the generation an in-process server's protocol `update` publishes,
//! byte for byte, and every subcommand refuses arguments it does not take.

use simrankpp_core::{Method, MethodKind, Rewriter, RewriterConfig, SimrankConfig};
use simrankpp_graph::fixtures::figure3_graph;
use simrankpp_graph::WeightKind;
use simrankpp_serve::{serve_session, RewriteIndex, ServeState, UpdateContext};
use simrankpp_util::fnv1a;
use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

const BIN: &str = env!("CARGO_BIN_EXE_serve");

/// The one-edge delta of the CI update smoke: it dirties pc's component
/// of Figure 3 and leaves flower's clean.
const DELTA: &str = "+\tpc\thp.com\t100\t80\t0.8\n";

fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("simrankpp_cli_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs the binary in `dir` on the space-separated `args` with stdin
/// closed, killing it after 60 s so a subcommand that wrongly starts
/// serving fails the test instead of hanging it.
fn serve(dir: &Path, args: &str) -> Output {
    let mut child = Command::new(BIN)
        .args(args.split(' '))
        .current_dir(dir)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .env_remove("SIMRANKPP_FAILPOINTS")
        .spawn()
        .expect("spawn serve");
    let t0 = Instant::now();
    while child.try_wait().expect("try_wait").is_none() {
        if t0.elapsed() > Duration::from_secs(60) {
            let _ = child.kill();
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    child.wait_with_output().expect("collect serve output")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn serve_update_writes_the_protocol_update_generation() {
    let dir = fresh_dir("update");
    std::fs::write(dir.join("delta.tsv"), DELTA).unwrap();
    let built = serve(&dir, "build --fixture fig3 fig3.idx");
    assert!(built.status.success(), "{}", stderr(&built));
    let updated = serve(&dir, "update fig3.idx delta.tsv --fixture fig3 after.idx");
    assert!(updated.status.success(), "{}", stderr(&updated));
    let written = std::fs::read(dir.join("after.idx")).unwrap();

    // The same graph and config in process, updated through the protocol.
    let g = figure3_graph();
    let config = SimrankConfig::default().with_weight_kind(WeightKind::Clicks);
    let method = Method::compute(MethodKind::WeightedSimrank, &g, &config);
    let index = RewriteIndex::build(
        &Rewriter::new(&g, method, RewriterConfig::default()),
        None,
        1,
    );
    let state = ServeState::updatable(
        index,
        UpdateContext {
            graph: Arc::new(g),
            config,
            rewriter: RewriterConfig::default(),
        },
    );
    let request = format!("update {}\n", dir.join("delta.tsv").display());
    let mut response = Vec::new();
    serve_session(&state, request.as_bytes(), &mut response).unwrap();
    let response = String::from_utf8(response).unwrap();
    assert_eq!(response, "updated\t5\t4\t1\t1\t1\n");
    assert_eq!(written, state.handle().load().as_bytes());

    // Length and FNV-1a of the bytes the binary wrote before `serve update`
    // became the protocol verb.
    assert_eq!(
        (written.len(), fnv1a(&written)),
        (584, 0xfc37_57d2_3dc4_3930)
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn every_subcommand_refuses_arguments_it_does_not_take() {
    let dir = fresh_dir("refuse");
    std::fs::write(dir.join("delta.tsv"), DELTA).unwrap();
    let built = serve(&dir, "build --fixture fig3 fig3.idx");
    assert!(built.status.success(), "{}", stderr(&built));
    let rows = [
        ("build a.seg out.idx weighted extra", "usage:"),
        ("build --fixture fig3 out.idx --window 3", "\"--window\""),
        ("segment a.tsv out.seg 4 extra", "usage:"),
        ("run fig3.idx --window 3", "\"--window\""),
        ("run fig3.idx extra", "usage:"),
        ("listen fig3.idx extra --addr 127.0.0.1:0", "usage:"),
        (
            "update fig3.idx delta.tsv out.idx extra --fixture fig3",
            "usage:",
        ),
        ("info fig3.idx extra", "usage:"),
        ("ingest click.log weighted extra", "usage:"),
        ("ingest click.log --mode all-pairs", "\"--mode\""),
    ];
    for (args, says) in rows {
        let out = serve(&dir, args);
        let err = stderr(&out);
        assert!(!out.status.success(), "{args:?} was accepted: {err}");
        assert!(err.contains(says), "{args:?}: {err}");
        assert!(
            err.contains("usage:"),
            "{args:?} without the usage text: {err}"
        );
    }
    assert!(
        !dir.join("out.idx").exists(),
        "a refused command wrote output"
    );
    std::fs::remove_dir_all(&dir).ok();
}
