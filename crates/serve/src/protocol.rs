//! The line protocol spoken by the `serve` binary over stdin/stdout and by
//! every TCP connection of [`crate::net`]: one session loop, so a network
//! answer is byte-identical to the pipe's by construction. Rows come from
//! the server's state ([`crate::state`]); this module reads requests and
//! writes responses.
//!
//! Requests, one per line:
//!
//! * `rewrite <query>` — serve the rewrites of one query;
//! * `batch <path>` — serve every query listed in `<path>` (one per line,
//!   blank lines and `#` comments skipped), then a `done` summary;
//! * `update <delta.tsv>` — apply a click-graph delta and hot-swap the next
//!   generation in ([`ServeState::apply_update`]);
//! * `info` — one line of index metadata (`backing=mmap` for an opened
//!   snapshot, `heap` for a loaded, built or updated generation, and
//!   `snapshot_bytes`, the size `save` would write) plus, on a live
//!   single-source server, the row-cache statistics (capacity, entries,
//!   hit/miss counters, invalidation generation);
//! * `health` — liveness state (see `health_line`);
//! * `quit` — clean shutdown (EOF works too).
//!
//! Responses are single tab-separated lines. TSV-loaded graphs cannot carry
//! tabs in names (`write_tsv` rejects them), but programmatically built
//! graphs and arbitrary client input can — every echoed field is therefore
//! sanitized (tabs/newlines become spaces) so one response is always exactly
//! one line with intact framing:
//!
//! * `ok\t<query>\t<k>[\t<name>\t<score>]...` — `k` rewrites in ranking
//!   order; an unnamed rewrite target prints as `#<id>`, and a score with
//!   six decimals, correctly rounded half to even (the bytes of `{:.6}`);
//! * `err\t<reason>\t<detail>` — unknown query / command / unreadable file;
//! * `done\t<count>` — closes a `batch` response block (always emitted, even
//!   when the batch file fails mid-read);
//! * `updated\t<queries>\t<refreshed>\t<copied>\t<dirty>\t<clean>` —
//!   acknowledges a hot-swapped `update` (totals, refreshed vs copied rows —
//!   on a live server, queries whose correction was recomputed vs
//!   copied — and dirty vs clean components);
//! * `bye` — acknowledges `quit`.
//!
//! Framing guarantee: responses are buffered and flushed in one place after
//! every answered request, and once more on every way out of the session —
//! EOF, `quit`, a drain, a refused line and mid-read I/O errors (a truncated
//! stdin) — so the peer never observes a half-written response line.
//!
//! ## Transports and the permission boundary
//!
//! What differs per [`Transport`] is the *verb surface*:
//!
//! * [`Transport::Stdin`] — the operator's own shell: every verb except
//!   `shutdown` (there is no listener to stop);
//! * [`Transport::NetData`] — untrusted remote clients: `rewrite` and
//!   `quit` only. `batch <path>` names a **server-side** file — over TCP
//!   that verb would echo any readable file (`/etc/passwd`, snapshots,
//!   delta logs) back through `err` lines, so it answers
//!   `err\tbatch not permitted`. `update`/`info`/`shutdown` are admin
//!   plane;
//! * [`Transport::NetAdmin`] — the separately-bound (typically
//!   loopback-only) admin listener: the full surface plus `shutdown`,
//!   which drains and stops the whole server.
//!
//! Sessions carry optional [`ServerMetrics`] (requests/errors/timeouts are
//! counted here, connection lifecycle in `net`) and an optional
//! [`ShutdownSignal`]; a draining server answers the next request of every
//! open session with `bye\tdraining` and closes it.

use crate::net::{ServerMetrics, ShutdownSignal};
use crate::state::{respond, ServeState};
use simrankpp_graph::QueryId;
use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Writes an echoed field with each frame-breaking byte (tab, newline,
/// carriage return) replaced by a space, so a response stays one line with
/// intact framing.
fn write_clean<W: Write>(out: &mut W, field: &[u8]) -> io::Result<()> {
    let frame_breaking = |b: &u8| matches!(b, b'\t' | b'\n' | b'\r');
    if !field.iter().any(frame_breaking) {
        return out.write_all(field);
    }
    let spaced: Vec<u8> = field
        .iter()
        .map(|b| if frame_breaking(b) { b' ' } else { *b })
        .collect();
    out.write_all(&spaced)
}

/// Which transport a session speaks — the protocol's permission boundary
/// (see the module docs for the verb surface of each).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Transport {
    /// The local stdin/stdout pipe: the operator's own shell.
    #[default]
    Stdin,
    /// A network data-plane connection: untrusted remote clients.
    NetData,
    /// The network admin plane: operator verbs, including `shutdown`.
    NetAdmin,
}

impl Transport {
    /// Whether `verb` may run on this transport. Unknown verbs pass — they
    /// fall through to the regular unknown-command error.
    fn permits(self, verb: &str) -> bool {
        match verb {
            "batch" | "update" | "info" | "shutdown" => !matches!(self, Transport::NetData),
            _ => true,
        }
    }
}

/// Per-session policy and instrumentation: which transport the peer speaks,
/// where to count traffic, and which shutdown signal to watch (and, for the
/// admin plane, to trigger).
#[derive(Debug, Clone, Default)]
pub struct SessionOptions {
    /// The permission boundary this session runs under.
    pub transport: Transport,
    /// Request/error/timeout counters, shared with every other session of
    /// the same server and reported by the `info` verb.
    pub metrics: Option<Arc<ServerMetrics>>,
    /// When present: the session answers `bye\tdraining` and closes as soon
    /// as it observes the signal, and (admin plane only) the `shutdown`
    /// verb triggers it.
    pub shutdown: Option<Arc<ShutdownSignal>>,
    /// Enables the `debug-panic` verb, which panics the handler thread
    /// mid-request — the test hook behind the panic-survival suite. Never
    /// set outside tests.
    pub debug_verbs: bool,
}

impl SessionOptions {
    /// The historical stdin/stdout pipe: full verb surface, no counters.
    pub fn stdin() -> SessionOptions {
        SessionOptions::default()
    }
}

/// Drives the line protocol over any reader/writer pair until EOF or `quit`,
/// with the full stdin verb surface and no instrumentation — the historical
/// single-client entry point, now a thin wrapper over
/// [`serve_session_with`].
pub fn serve_session<R: BufRead, W: Write>(state: &ServeState, input: R, out: W) -> io::Result<()> {
    serve_session_with(state, input, out, &SessionOptions::stdin())
}

/// Longest request line a session reads, terminator excluded: a peer that
/// never sends `\n` must not grow the line buffer without bound.
pub const MAX_REQUEST_LINE_BYTES: usize = 64 * 1024;

/// Writes one `err` response line, its detail sanitized, counting it when
/// metrics are wired.
pub(crate) fn err_line<W: Write>(
    out: &mut W,
    metrics: Option<&ServerMetrics>,
    reason: &str,
    detail: &str,
) -> io::Result<()> {
    if let Some(m) = metrics {
        m.errors.fetch_add(1, Ordering::Relaxed);
    }
    write!(out, "err\t{reason}\t")?;
    write_clean(out, detail.as_bytes())?;
    writeln!(out)
}

/// Renders the `health` response: liveness state plus, in ingest mode, the
/// window epoch, refresh count, and the age of the last durable checkpoint
/// — the fields an external supervisor needs to tell a wedged process from
/// a slow epoch. Permitted on every transport (a supervisor probes the
/// data port), and answered even while draining.
///
/// `health\tstate=ready|ingesting|draining[\tingest_epoch=N]`
/// `[\tingest_refreshes=N][\tlast_checkpoint_age_ms=N|none]`
fn health_line(state: &ServeState, draining: bool) -> String {
    let mut line = String::from("health\tstate=");
    line.push_str(if draining {
        "draining"
    } else if state.ingest_metrics().is_some() {
        "ingesting"
    } else {
        "ready"
    });
    if let Some(ing) = state.ingest_metrics() {
        use std::fmt::Write as _;
        let _ = write!(
            line,
            "\tingest_epoch={}\tingest_refreshes={}\tlast_checkpoint_age_ms={}",
            ing.epoch.load(Ordering::Relaxed),
            ing.refreshes.load(Ordering::Relaxed),
            ing.checkpoint_age_ms()
                .map_or("none".to_string(), |ms| ms.to_string())
        );
    }
    line
}

/// Drives the line protocol over any reader/writer pair until EOF, `quit`,
/// a read timeout, or server drain — under the permission boundary and
/// instrumentation of `opts`. Output is flushed after every answered
/// request and once on every way out, `Ok` or `Err` — so interactive pipes
/// and sockets see responses immediately and a truncated input never leaves
/// a half-written response line.
///
/// A read timeout (`ErrorKind::TimedOut`/`WouldBlock`, produced by a socket
/// with `set_read_timeout`) is a *clean* exit: the peer stalled, gets a
/// best-effort `err\tread timeout` line, and the session returns `Ok` — the
/// connection thread is freed instead of pinned forever. A request line over
/// [`MAX_REQUEST_LINE_BYTES`] gets `err\tline too long\t<limit>` and a close.
pub fn serve_session_with<R: BufRead, W: Write>(
    state: &ServeState,
    input: R,
    out: W,
    opts: &SessionOptions,
) -> io::Result<()> {
    let mut out = BufWriter::new(out);
    let ended = answer_lines(state, input, &mut out, opts);
    if let Ok(Ending::Stalled) = ended {
        // Free the thread. Best-effort farewell — the peer may be gone
        // entirely, which must not turn a clean timeout close into a session
        // error.
        if let Some(m) = opts.metrics.as_deref() {
            m.timeouts.fetch_add(1, Ordering::Relaxed);
        }
        let _ = writeln!(out, "err\tread timeout\tclosing stalled connection");
        let _ = out.flush();
        return Ok(());
    }
    // Every way out ends here: even a failing input delivers each complete
    // response written so far before its error surfaces.
    let flushed = out.flush();
    ended.and(flushed)
}

/// How a session's request loop ended.
enum Ending {
    /// EOF, `quit`, `shutdown`, a drain or an over-long line.
    Closed,
    /// The read timed out: the peer stalled.
    Stalled,
}

/// The session loop: reads one request line at a time and answers it,
/// flushing after each answer that does not end the session. The caller
/// flushes on the way out.
fn answer_lines<R: BufRead, W: Write>(
    state: &ServeState,
    mut input: R,
    out: &mut W,
    opts: &SessionOptions,
) -> io::Result<Ending> {
    let metrics = opts.metrics.as_deref();
    let mut buf = Vec::new();
    loop {
        buf.clear();
        // `take` bounds what one request can make `buf` hold, newline or not.
        let read = (&mut input)
            .take(MAX_REQUEST_LINE_BYTES as u64 + 1)
            .read_until(b'\n', &mut buf);
        match read {
            Ok(0) => return Ok(Ending::Closed),
            Ok(_) => {}
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock
                ) =>
            {
                return Ok(Ending::Stalled)
            }
            Err(e) => return Err(e),
        }
        if buf.len() > MAX_REQUEST_LINE_BYTES && buf.last() != Some(&b'\n') {
            // The rest is unread and may never end: answer and close.
            let limit = MAX_REQUEST_LINE_BYTES.to_string();
            err_line(out, metrics, "line too long", &limit)?;
            return Ok(Ending::Closed);
        }
        let Ok(line) = std::str::from_utf8(&buf) else {
            return Err(io::ErrorKind::InvalidData.into());
        };
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        // A draining server finishes nothing new: the current request is
        // answered with the farewell and the session closes, letting the
        // accept loop's join complete. The one exception is `health` — a
        // supervisor probing a draining server must get the structured
        // state, not a bare farewell it can't tell from a shutdown verb's.
        if opts.shutdown.as_ref().is_some_and(|s| s.is_draining()) {
            if line == "health" || line.starts_with("health ") {
                writeln!(out, "{}", health_line(state, true))?;
            } else {
                writeln!(out, "bye\tdraining")?;
            }
            return Ok(Ending::Closed);
        }
        let (cmd, arg) = match line.split_once(' ') {
            Some((c, a)) => (c, a.trim()),
            None => (line, ""),
        };
        if let Some(m) = metrics {
            m.served.fetch_add(1, Ordering::Relaxed);
        }
        match cmd {
            _ if !opts.transport.permits(cmd) => {
                // The data plane's whole surface is rewrite/quit. `batch` in
                // particular names a *server-side* file: permitted over TCP
                // it would echo any readable file back through err lines — a
                // remote file-disclosure primitive, not a protocol verb.
                let scope = if cmd == "shutdown" {
                    "admin transport only"
                } else {
                    "admin or stdin transport only"
                };
                err_line(out, metrics, &format!("{cmd} not permitted"), scope)?;
            }
            "rewrite" => respond(state, &state.handle().load(), arg, out, metrics)?,
            "batch" => match File::open(arg) {
                Err(e) => err_line(
                    out,
                    metrics,
                    "cannot read batch file",
                    &format!("{arg}: {e}"),
                )?,
                Ok(f) => {
                    // One generation serves the whole batch: a mid-batch
                    // hot swap cannot mix generations within the block.
                    let index = state.handle().load();
                    let mut served = 0usize;
                    for q in BufReader::new(f).lines() {
                        // A mid-file read error must not kill the serve loop
                        // or leave the response block without its `done`
                        // terminator — report it and close the batch.
                        let q = match q {
                            Ok(q) => q,
                            Err(e) => {
                                let detail = format!("{arg}: {e}");
                                err_line(out, metrics, "batch read failed", &detail)?;
                                break;
                            }
                        };
                        let q = q.trim();
                        if q.is_empty() || q.starts_with('#') {
                            continue;
                        }
                        respond(state, &index, q, out, metrics)?;
                        served += 1;
                    }
                    writeln!(out, "done\t{served}")?;
                }
            },
            "update" => match state.apply_update(arg) {
                Ok(s) => writeln!(
                    out,
                    "updated\t{}\t{}\t{}\t{}\t{}",
                    s.refreshed_queries + s.copied_queries,
                    s.refreshed_queries,
                    s.copied_queries,
                    s.n_dirty_components,
                    s.n_clean_components
                )?,
                Err(e) => err_line(out, metrics, "update failed", &e)?,
            },
            "info" => {
                let index = state.handle().load();
                write!(
                    out,
                    "info\tmethod={}\tqueries={}\tentries={}\tkernel={:?}\tbacking={}\
                     \tsnapshot_bytes={}",
                    index.meta().method.name(),
                    index.n_queries(),
                    index.n_entries(),
                    index.meta().kernel,
                    index.backing(),
                    index.as_bytes().len()
                )?;
                if index.meta().segments > 0 {
                    write!(out, "\tsegments={}", index.meta().segments)?;
                }
                if let Some(m) = metrics {
                    write!(out, "\t{m}")?;
                }
                if let Some(ing) = state.ingest_metrics() {
                    write!(out, "\t{ing}")?;
                }
                match state.cache_stats() {
                    Some(s) => writeln!(
                        out,
                        "\trowcache=on\tcache_capacity={}\tcache_entries={}\tcache_hits={}\
                         \tcache_misses={}\tcache_generation={}",
                        s.capacity, s.entries, s.hits, s.misses, s.generation
                    )?,
                    None => writeln!(out, "\trowcache=off")?,
                }
            }
            "shutdown" => match opts.shutdown.as_ref() {
                Some(signal) => {
                    // Acknowledge first (trigger wakes the accept loops,
                    // which may tear things down immediately after).
                    writeln!(out, "bye\tdraining")?;
                    out.flush()?;
                    signal.trigger();
                    return Ok(Ending::Closed);
                }
                None => err_line(
                    out,
                    metrics,
                    "shutdown not available",
                    "no network listener on this session",
                )?,
            },
            "health" => writeln!(out, "{}", health_line(state, false))?,
            "quit" => {
                writeln!(out, "bye")?;
                return Ok(Ending::Closed);
            }
            "debug-panic" if opts.debug_verbs => {
                // Test hook: a handler thread dying mid-request, with the
                // response flushed first so the peer can observe the abrupt
                // close that follows.
                writeln!(out, "ok\tdebug-panic\tpanicking this handler")?;
                out.flush()?;
                panic!("debug-panic verb");
            }
            _ => err_line(out, metrics, "unknown command", cmd)?,
        }
        out.flush()?;
    }
}

/// Writes one `ok` line — `ok\t<query>\t<k>[\t<name>\t<score>]...` — for
/// every row kind: `row` is `(target, score)` in ranking order, and a
/// target `name` cannot spell prints as `#<id>`.
pub(crate) fn write_row<'a, W: Write>(
    out: &mut W,
    query: &str,
    row: impl ExactSizeIterator<Item = (QueryId, f64)>,
    name: impl Fn(QueryId) -> Option<&'a [u8]>,
) -> io::Result<()> {
    out.write_all(b"ok\t")?;
    write_clean(out, query.as_bytes())?;
    write!(out, "\t{}", row.len())?;
    for (id, score) in row {
        out.write_all(b"\t")?;
        match name(id) {
            Some(name) => write_clean(out, name)?,
            None => write!(out, "#{}", id.0)?,
        }
        write_score(out, score)?;
    }
    writeln!(out)
}

/// `\t` and `score` with six decimals: the bytes of `{score:.6}` without
/// `core::fmt`. A score in `[0, 2^32)` is `m · 2^-shift` with `m < 2^53` and
/// `shift ≥ 21`, so `m · 10^6` fits a `u128` (below 2^73), and shifting it
/// right while rounding the dropped bits half to even is the correctly
/// rounded `score · 10^6`. Anything else (a set sign bit, NaN, ±∞, `2^32`
/// and up) takes the `format!` path.
fn write_score<W: Write>(out: &mut W, score: f64) -> io::Result<()> {
    const TWO_POW_32: u64 = 0x41F0_0000_0000_0000; // (2^32 as f64).to_bits()
    let bits = score.to_bits();
    if bits >= TWO_POW_32 {
        return write_score_fallback(out, score);
    }
    let biased = (bits >> 52) as u32; // 0 for zero and subnormals
    let m = bits & ((1 << 52) - 1) | u64::from(biased != 0) << 52;
    let shift = 1075 - biased.max(1);
    let micros = if shift >= 128 {
        0 // m · 10^6 < 2^73 < 2^(shift - 1): under half a millionth
    } else {
        let scaled = u128::from(m) * 1_000_000;
        let (q, dropped) = (scaled >> shift, scaled & ((1 << shift) - 1));
        let half = 1 << (shift - 1);
        (q + u128::from(dropped > half || (dropped == half && q & 1 == 1))) as u64
    }; // ≤ 2^32 · 10^6
    let mut buf = [0u8; 18]; // `\t`, ten integer digits, `.`, six decimals
    let mut at = buf.len();
    let (mut int, mut frac) = (micros / 1_000_000, micros % 1_000_000);
    for _ in 0..6 {
        at -= 1;
        buf[at] = b'0' + (frac % 10) as u8;
        frac /= 10;
    }
    at -= 1;
    buf[at] = b'.';
    loop {
        at -= 1;
        buf[at] = b'0' + (int % 10) as u8;
        int /= 10;
        if int == 0 {
            break;
        }
    }
    at -= 1;
    buf[at] = b'\t';
    out.write_all(&buf[at..])
}

#[cold]
#[inline(never)]
fn write_score_fallback<W: Write>(out: &mut W, score: f64) -> io::Result<()> {
    write!(out, "\t{score:.6}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::tests::{empty_meta, fig3_index, fig3_state, run, run_on};
    use crate::state::LiveContext;
    use crate::RewriteIndex;
    use simrankpp_core::{Method, MethodKind, Rewriter, RewriterConfig, SimrankConfig};
    use simrankpp_graph::WeightKind;
    use std::sync::atomic::Ordering;

    #[test]
    fn rewrite_command_serves_ranked_names() {
        let out = run("rewrite camera\n");
        let line = out.lines().next().unwrap();
        let fields: Vec<&str> = line.split('\t').collect();
        assert_eq!(fields[0], "ok");
        assert_eq!(fields[1], "camera");
        let k: usize = fields[2].parse().unwrap();
        assert!(k >= 1);
        assert_eq!(fields[3], "digital camera");
        assert_eq!(fields.len(), 3 + 2 * k);
    }

    #[test]
    fn unknown_query_and_command_report_errors() {
        let out = run("rewrite zzz\nfrobnicate\n");
        let lines: Vec<&str> = out.lines().collect();
        assert!(lines[0].starts_with("err\tunknown query\tzzz"));
        assert!(lines[1].starts_with("err\tunknown command\tfrobnicate"));
    }

    #[test]
    fn empty_depth_is_ok_zero() {
        // flower is indexed but has no rewrites: ok with k = 0, not an error.
        let out = run("rewrite flower\n");
        assert_eq!(out.lines().next().unwrap(), "ok\tflower\t0");
    }

    #[test]
    fn multiword_queries_reach_the_index() {
        let out = run("rewrite digital camera\n");
        assert!(out.starts_with("ok\tdigital camera\t"));
    }

    #[test]
    fn quit_acknowledged_and_stops() {
        let out = run("quit\nrewrite camera\n");
        assert_eq!(out, "bye\n");
    }

    #[test]
    fn batch_mode_serves_file() {
        let path = std::env::temp_dir().join("simrankpp_serve_batch_test.txt");
        std::fs::write(&path, "camera\n# comment\n\npc\nzzz\n").unwrap();
        let out = run(&format!("batch {}\n", path.display()));
        std::fs::remove_file(&path).ok();
        let lines: Vec<&str> = out.lines().collect();
        assert!(lines[0].starts_with("ok\tcamera\t"));
        assert!(lines[1].starts_with("ok\tpc\t"));
        assert!(lines[2].starts_with("err\tunknown query\tzzz"));
        assert_eq!(lines[3], "done\t3");
    }

    #[test]
    fn missing_batch_file_is_an_error_line() {
        let out = run("batch /no/such/file\n");
        assert!(out.starts_with("err\tcannot read batch file\t"));
    }

    #[test]
    fn tab_in_request_cannot_break_framing() {
        // A query containing a tab is echoed sanitized: the err response
        // stays exactly 3 tab-separated fields on one line.
        let out = run("rewrite a\tb\n");
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 1);
        assert_eq!(
            lines[0].split('\t').collect::<Vec<_>>(),
            vec!["err", "unknown query", "a b"]
        );
    }

    /// A reader that yields `prefix` and then fails — a truncated stdin.
    struct TruncatedInput<'a> {
        prefix: &'a [u8],
        pos: usize,
    }

    impl io::Read for TruncatedInput<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.pos < self.prefix.len() {
                let n = buf.len().min(self.prefix.len() - self.pos);
                buf[..n].copy_from_slice(&self.prefix[self.pos..self.pos + n]);
                self.pos += n;
                Ok(n)
            } else {
                Err(io::Error::new(
                    io::ErrorKind::ConnectionReset,
                    "stdin truncated",
                ))
            }
        }
    }

    impl BufRead for TruncatedInput<'_> {
        fn fill_buf(&mut self) -> io::Result<&[u8]> {
            if self.pos < self.prefix.len() {
                Ok(&self.prefix[self.pos..])
            } else {
                Err(io::Error::new(
                    io::ErrorKind::ConnectionReset,
                    "stdin truncated",
                ))
            }
        }
        fn consume(&mut self, amt: usize) {
            self.pos += amt;
        }
    }

    /// A writer that only exposes bytes an explicit `flush` pushed through,
    /// so the test observes exactly what a pipe's reader would see: one
    /// entry per flush, holding the bytes it pushed.
    struct FlushTrackingWriter {
        flushes: std::rc::Rc<std::cell::RefCell<Vec<Vec<u8>>>>,
        pending: Vec<u8>,
    }

    impl Write for FlushTrackingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.pending.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            let pushed = std::mem::take(&mut self.pending);
            self.flushes.borrow_mut().push(pushed);
            Ok(())
        }
    }

    #[test]
    fn every_way_a_session_ends_flushes_exactly_its_complete_responses() {
        // One row per way out of the session loop: what the peer sent, the
        // session's options, what it returns, every response it must have
        // seen, and the flushes that carried them: one per answer that
        // leaves the session open, one on the way out (`shutdown` also
        // flushes its farewell before it triggers the signal; a read
        // timeout's farewell flush is the way out). The writer exposes only
        // flushed bytes, so a response left in the buffer on any exit path
        // shows up as a missing line.
        let draining = Arc::new(crate::net::ShutdownSignal::new());
        draining.trigger();
        let unheard = Arc::new(crate::net::ShutdownSignal::new());
        let mut over_long = b"rewrite flower\n".to_vec();
        over_long.resize(over_long.len() + MAX_REQUEST_LINE_BYTES + 8, b'x');
        let stdin = SessionOptions::stdin();
        let admin = SessionOptions {
            transport: Transport::NetAdmin,
            shutdown: Some(Arc::clone(&unheard)),
            ..SessionOptions::stdin()
        };
        let drain = SessionOptions {
            shutdown: Some(draining),
            ..SessionOptions::stdin()
        };
        let (ok, flower) = (None, "ok\tflower\t0\n");
        let cases: Vec<(_, Box<dyn BufRead>, _, _, String, _)> = vec![
            (
                "eof",
                Box::new(&b"rewrite flower\n\nrewrite zzz\n"[..]),
                &stdin,
                ok,
                format!("{flower}err\tunknown query\tzzz\n"),
                3,
            ),
            (
                "quit",
                Box::new(&b"rewrite flower\nquit\nrewrite flower\n"[..]),
                &stdin,
                ok,
                format!("{flower}bye\n"),
                2,
            ),
            (
                "shutdown",
                Box::new(&b"rewrite flower\nshutdown\nrewrite flower\n"[..]),
                &admin,
                ok,
                format!("{flower}bye\tdraining\n"),
                3,
            ),
            (
                "draining",
                Box::new(&b"rewrite flower\nrewrite flower\n"[..]),
                &drain,
                ok,
                "bye\tdraining\n".to_string(),
                1,
            ),
            (
                "over-long line",
                Box::new(&over_long[..]),
                &stdin,
                ok,
                format!("{flower}err\tline too long\t{MAX_REQUEST_LINE_BYTES}\n"),
                2,
            ),
            (
                "invalid utf-8",
                Box::new(&b"rewrite flower\n\xff\nrewrite flower\n"[..]),
                &stdin,
                Some(io::ErrorKind::InvalidData),
                flower.to_string(),
                2,
            ),
            (
                "truncated input",
                Box::new(TruncatedInput {
                    prefix: b"rewrite flower\nrewrite zzz\n",
                    pos: 0,
                }),
                &stdin,
                Some(io::ErrorKind::ConnectionReset),
                format!("{flower}err\tunknown query\tzzz\n"),
                3,
            ),
            (
                "read timeout",
                Box::new(StallingInput {
                    prefix: b"rewrite flower\n",
                    pos: 0,
                }),
                &stdin,
                ok,
                format!("{flower}err\tread timeout\tclosing stalled connection\n"),
                2,
            ),
        ];
        let state = ServeState::fixed(fig3_index());
        for (case, input, opts, want_err, want, want_flushes) in cases {
            let flushes = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
            let writer = FlushTrackingWriter {
                flushes: flushes.clone(),
                pending: Vec::new(),
            };
            let ended = serve_session_with(&state, input, writer, opts);
            assert_eq!(ended.map_err(|e| e.kind()).err(), want_err, "{case}");
            let seen = String::from_utf8(flushes.borrow().concat()).unwrap();
            assert_eq!(seen, want, "{case}");
            assert!(seen.ends_with('\n'), "{case}: flushed output ends mid-line");
            assert_eq!(flushes.borrow().len(), want_flushes, "{case}");
        }
        assert!(
            unheard.is_draining(),
            "the shutdown verb triggers its signal"
        );
    }

    #[test]
    fn info_reports_rowcache_off_in_snapshot_mode() {
        let out = run("info\n");
        let line = out.lines().next().unwrap();
        assert!(
            line.starts_with("info\tmethod=weighted Simrank\t"),
            "{line}"
        );
        assert!(line.contains("\tqueries=5\t"), "{line}");
        assert!(line.ends_with("rowcache=off"), "{line}");
    }

    #[test]
    fn tab_in_indexed_name_is_sanitized_on_output() {
        // Programmatically built graphs (not passing through write_tsv) can
        // carry tabs in names; the protocol must still frame correctly.
        use simrankpp_graph::{ClickGraphBuilder, EdgeData};
        let mut b = ClickGraphBuilder::new();
        b.add_named("x\ty", "ad", EdgeData::from_clicks(3));
        b.add_named("z", "ad", EdgeData::from_clicks(2));
        let g = b.build();
        let cfg = SimrankConfig::default().with_weight_kind(WeightKind::Clicks);
        let method = Method::compute(MethodKind::Simrank, &g, &cfg);
        let rewriter = Rewriter::new(&g, method, RewriterConfig::default());
        let index = RewriteIndex::build(&rewriter, None, 1);
        let out = run_on(&ServeState::fixed(index), "rewrite z\n");
        let fields: Vec<&str> = out.trim_end().split('\t').collect();
        assert_eq!(fields[..3], ["ok", "z", "1"]);
        assert_eq!(fields[3], "x y");
        assert_eq!(fields.len(), 5);

        // The same graph served live: the miss frames the same way, and the
        // cache hit that follows is the miss byte for byte.
        let live = LiveContext::new(g, MethodKind::Simrank, cfg, RewriterConfig::default());
        let state =
            ServeState::fixed(RewriteIndex::empty(empty_meta())).with_live(live.unwrap(), 4);
        let out = run_on(&state, "rewrite z\nrewrite z\n");
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 2, "{out:?}");
        let fields: Vec<&str> = lines[0].split('\t').collect();
        assert_eq!(fields[..4], ["ok", "z", "1", "x y"], "{out:?}");
        assert_eq!(fields.len(), 5);
        assert_eq!(lines[1], lines[0]);
        assert_eq!(
            state.cache_stats().map(|s| (s.hits, s.misses)),
            Some((1, 1))
        );
    }

    fn run_with(state: &ServeState, input: &str, opts: &SessionOptions) -> String {
        let mut out = Vec::new();
        serve_session_with(state, input.as_bytes(), &mut out, opts).unwrap();
        String::from_utf8(out).unwrap()
    }

    #[test]
    fn network_data_plane_rejects_restricted_verbs() {
        // Over the data plane, `batch` is a remote file-disclosure
        // primitive (it opens a *server-side* file named by the client) and
        // update/info/shutdown are management surface — all must be
        // refused, and the refusal must not close the session.
        let state = fig3_state();
        let opts = SessionOptions {
            transport: Transport::NetData,
            ..SessionOptions::default()
        };
        let out = run_with(
            &state,
            "batch /etc/passwd\nupdate x.tsv\ninfo\nshutdown\nrewrite camera\n",
            &opts,
        );
        let lines: Vec<&str> = out.lines().collect();
        assert!(lines[0].starts_with("err\tbatch not permitted\t"), "{out}");
        assert!(lines[1].starts_with("err\tupdate not permitted\t"), "{out}");
        assert!(lines[2].starts_with("err\tinfo not permitted\t"), "{out}");
        assert!(
            lines[3].starts_with("err\tshutdown not permitted\t"),
            "{out}"
        );
        assert!(lines[4].starts_with("ok\tcamera\t"), "{out}");
    }

    #[test]
    fn admin_transport_keeps_the_full_verb_surface() {
        let state = fig3_state();
        let opts = SessionOptions {
            transport: Transport::NetAdmin,
            ..SessionOptions::default()
        };
        let path = std::env::temp_dir().join("simrankpp_admin_batch_test.txt");
        std::fs::write(&path, "camera\n").unwrap();
        let out = run_with(&state, &format!("batch {}\ninfo\n", path.display()), &opts);
        std::fs::remove_file(&path).ok();
        let lines: Vec<&str> = out.lines().collect();
        assert!(lines[0].starts_with("ok\tcamera\t"), "{out}");
        assert_eq!(lines[1], "done\t1");
        assert!(lines[2].starts_with("info\t"), "{out}");
    }

    #[test]
    fn stdin_shutdown_without_listener_reports_unavailable() {
        // Stdin permits the verb (it's the operator), but with no network
        // listener there is nothing to drain.
        let out = run("shutdown\nrewrite camera\n");
        let lines: Vec<&str> = out.lines().collect();
        assert!(
            lines[0].starts_with("err\tshutdown not available\t"),
            "{out}"
        );
        assert!(lines[1].starts_with("ok\tcamera\t"), "{out}");
    }

    #[test]
    fn debug_panic_verb_is_gated() {
        let state = fig3_state();
        // Off by default: an unknown command, not a panic.
        let out = run_on(&state, "debug-panic\n");
        assert!(out.starts_with("err\tunknown command\t"), "{out}");
        // Enabled: panics after flushing its acknowledgement.
        let opts = SessionOptions {
            debug_verbs: true,
            ..SessionOptions::default()
        };
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_with(&state, "debug-panic\n", &opts)
        }));
        assert!(err.is_err(), "debug-panic must panic when enabled");
    }

    /// A reader that times out (as a socket with `set_read_timeout` does)
    /// after yielding its prefix.
    struct StallingInput<'a> {
        prefix: &'a [u8],
        pos: usize,
    }

    impl io::Read for StallingInput<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.pos < self.prefix.len() {
                let n = buf.len().min(self.prefix.len() - self.pos);
                buf[..n].copy_from_slice(&self.prefix[self.pos..self.pos + n]);
                self.pos += n;
                Ok(n)
            } else {
                Err(io::Error::new(io::ErrorKind::WouldBlock, "read timed out"))
            }
        }
    }

    impl BufRead for StallingInput<'_> {
        fn fill_buf(&mut self) -> io::Result<&[u8]> {
            if self.pos < self.prefix.len() {
                Ok(&self.prefix[self.pos..])
            } else {
                Err(io::Error::new(io::ErrorKind::WouldBlock, "read timed out"))
            }
        }
        fn consume(&mut self, amt: usize) {
            self.pos += amt;
        }
    }

    #[test]
    fn fuzzed_sessions_end_cleanly_with_tagged_counted_lines() {
        // A seeded xorshift64 concatenates protocol fragments, stray tabs and
        // newlines, an over-long line, NUL bytes and invalid UTF-8. Every
        // session must end `Ok` or `InvalidData` (never by panic), every
        // response line must carry a protocol tag, and the `errors` counter
        // must equal the number of `err` lines. No fragment names a file, so
        // `batch`/`update` only ever miss.
        const PIECES: &[&[u8]] = &[
            b"rewrite ",
            b"rewrite camera\n",
            b"camera",
            b"digital camera",
            b"flower",
            b"zzz",
            b"batch ",
            b"update ",
            b"info",
            b"health",
            b"shutdown",
            b"debug-panic",
            b"quit",
            b" ",
            b"\t",
            b"\n",
            b"\r\n",
            b"\0",
            b"\xff",
            b"\xc3",
            "é".as_bytes(),
        ];
        const TAGS: [&str; 7] = ["ok", "err", "info", "health", "done", "bye", "updated"];
        let state = ServeState::fixed(fig3_index());
        let mut rng = 0x2545_f491_4f6c_dd1d_u64;
        let mut below = |n: usize| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            (rng % n as u64) as usize
        };
        let (mut clean, mut invalid) = (0usize, 0usize);
        for _ in 0..20_000 {
            let mut input = Vec::new();
            for _ in 0..below(12) {
                match below(60) {
                    0 => input.resize(input.len() + MAX_REQUEST_LINE_BYTES + below(64), b'x'),
                    _ => input.extend_from_slice(PIECES[below(PIECES.len())]),
                }
            }
            let metrics = Arc::new(crate::net::ServerMetrics::default());
            let opts = SessionOptions {
                metrics: Some(Arc::clone(&metrics)),
                ..SessionOptions::stdin()
            };
            let mut out = Vec::new();
            match serve_session_with(&state, input.as_slice(), &mut out, &opts) {
                Ok(()) => clean += 1,
                Err(e) => {
                    assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{e}");
                    invalid += 1;
                }
            }
            let out = String::from_utf8(out).expect("responses are UTF-8");
            let mut err_lines = 0u64;
            for line in out.lines() {
                let tag = line.split('\t').next().unwrap();
                assert!(TAGS.contains(&tag), "untagged line {line:?}");
                err_lines += u64::from(tag == "err");
            }
            assert_eq!(metrics.errors.load(Ordering::Relaxed), err_lines, "{out}");
        }
        assert!(clean > 0 && invalid > 0, "{clean} clean, {invalid} invalid");
    }

    /// `write_score`'s bytes against its oracle, `{:.6}`.
    fn assert_score_matches_format(x: f64) {
        let mut got = Vec::new();
        write_score(&mut got, x).unwrap();
        let want = format!("\t{x:.6}");
        assert_eq!(got, want.as_bytes(), "{x:e} (bits {:#018x})", x.to_bits());
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(20_000))]

        // Every bit pattern: about half take the fallback (sign, NaN, ∞,
        // 2^32 and up), the rest span subnormals to just below 2^32.
        #[test]
        fn score_writer_equals_format_on_any_bits(hi in 0u64..1 << 32, lo in 0u64..1 << 32) {
            assert_score_matches_format(f64::from_bits(hi << 32 | lo));
        }

        #[test]
        fn score_writer_equals_format_on_unit_scores(x in 0.0f64..1.0) {
            assert_score_matches_format(x);
        }

        // The only scores that tie at six decimals are odd multiples of
        // 1/128 (x · 10^6 = n + 1/2 needs 5^6 | 2n + 1): half to even.
        #[test]
        fn score_writer_rounds_dyadic_ties_to_even(int in 0u64..1 << 32, k in 0u64..128) {
            assert_score_matches_format(int as f64 + k as f64 / 128.0);
        }
    }

    #[test]
    fn score_writer_equals_format_on_edge_cases() {
        let below_two_pow_32 = f64::from_bits((4_294_967_296f64).to_bits() - 1);
        for x in [
            0.0,
            -0.0,
            0.0078125,
            0.0234375,
            0.9999995,
            0.0000005,
            0.00000049999999999999,
            f64::from_bits(1),
            f64::from_bits((1 << 52) - 1),
            f64::MIN_POSITIVE,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            below_two_pow_32,
            4_294_967_296.0,
            1e300,
            -0.306801,
        ] {
            assert_score_matches_format(x);
        }
        for k in 0..128 * 64 {
            assert_score_matches_format(k as f64 / 128.0);
        }
    }

    #[test]
    fn read_timeout_is_a_clean_close_not_an_error() {
        let state = fig3_state();
        let metrics = Arc::new(crate::net::ServerMetrics::default());
        let opts = SessionOptions {
            metrics: Some(Arc::clone(&metrics)),
            ..SessionOptions::default()
        };
        let mut out = Vec::new();
        let input = StallingInput {
            prefix: b"rewrite camera\n",
            pos: 0,
        };
        serve_session_with(&state, input, &mut out, &opts).unwrap();
        let out = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert!(lines[0].starts_with("ok\tcamera\t"), "{out}");
        assert_eq!(lines[1], "err\tread timeout\tclosing stalled connection");
        assert_eq!(metrics.timeouts.load(Ordering::Relaxed), 1);
        assert_eq!(metrics.served.load(Ordering::Relaxed), 1);
    }
}
