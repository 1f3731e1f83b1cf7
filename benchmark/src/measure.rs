//! Measuring from outside the program: order statistics, the timed
//! in-memory transport, the scaling guard for direct-call loops, and the
//! process's peak memory.

use simrankpp_serve::ServeState;
use std::hint::black_box;
use std::io::{self, Write};
use std::time::{Duration, Instant};

/// Nearest-rank quantile of an ascending slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Five-number summary of a set of timings.
#[derive(Debug, Clone)]
pub struct Summary {
    sorted: Vec<f64>,
}

impl Summary {
    pub fn new(mut samples: Vec<f64>) -> Summary {
        samples.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
        Summary { sorted: samples }
    }

    pub fn n(&self) -> usize {
        self.sorted.len()
    }

    pub fn q(&self, q: f64) -> f64 {
        quantile(&self.sorted, q)
    }

    pub fn median(&self) -> f64 {
        let n = self.sorted.len();
        assert!(n > 0, "median of no samples");
        if n % 2 == 1 {
            self.sorted[n / 2]
        } else {
            (self.sorted[n / 2 - 1] + self.sorted[n / 2]) / 2.0
        }
    }

    /// `min / q1 / median / q3 / max (n)`, printed beside every reported
    /// median.
    pub fn describe(&self, unit: &str) -> String {
        format!(
            "min {:.4} q1 {:.4} median {:.4} q3 {:.4} max {:.4} {unit} (n={})",
            self.sorted[0],
            self.q(0.25),
            self.median(),
            self.q(0.75),
            self.sorted[self.sorted.len() - 1],
            self.n()
        )
    }
}

/// Nearest-rank quantile of unsorted nanosecond stamps, by selection.
pub fn quantile_ns(samples: &mut [u32], q: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of no samples");
    let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len()) - 1;
    let (_, v, _) = samples.select_nth_unstable(rank);
    f64::from(*v)
}

/// The in-memory transport `serve_session_with` writes to. The session
/// flushes after every request, so one clock read per `flush` stamps each
/// request's service time; the response's first byte tells `ok` from `err`.
pub struct Sink<'a> {
    line: Vec<u8>,
    last: Instant,
    /// Service time per answered request, in ns.
    pub service_ns: Vec<u32>,
    pub responses: u64,
    pub errs: u64,
    pub bytes: u64,
    /// Every response byte, when kept for a byte-for-byte check.
    pub transcript: Option<Vec<u8>>,
    /// Traced `serve_live` runs only: the state whose row-cache miss
    /// counter classifies each request as a hit or a miss.
    live: Option<&'a ServeState>,
    last_misses: u64,
    /// Per request, whether the miss counter moved (with `live` only).
    pub missed: Vec<bool>,
}

impl<'a> Sink<'a> {
    pub fn new(expected: usize) -> Sink<'a> {
        Sink {
            line: Vec::with_capacity(512),
            last: Instant::now(),
            service_ns: Vec::with_capacity(expected),
            responses: 0,
            errs: 0,
            bytes: 0,
            transcript: None,
            live: None,
            last_misses: 0,
            missed: Vec::new(),
        }
    }

    pub fn keeping_transcript(mut self) -> Sink<'a> {
        self.transcript = Some(Vec::new());
        self
    }

    pub fn classifying_misses(mut self, state: &'a ServeState) -> Sink<'a> {
        self.last_misses = state.cache_stats().map_or(0, |s| s.misses);
        self.live = Some(state);
        self
    }

    /// Restarts the service-time clock; call right before the session.
    pub fn start(&mut self) {
        self.last = Instant::now();
    }
}

impl Write for Sink<'_> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.line.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        if self.line.is_empty() {
            return Ok(());
        }
        let now = Instant::now();
        let ns = now.duration_since(self.last).as_nanos();
        self.last = now;
        self.service_ns.push(u32::try_from(ns).unwrap_or(u32::MAX));
        self.responses += 1;
        self.errs += u64::from(self.line.starts_with(b"err"));
        self.bytes += self.line.len() as u64;
        if let Some(state) = self.live {
            let misses = state.cache_stats().map_or(0, |s| s.misses);
            self.missed.push(misses != self.last_misses);
            self.last_misses = misses;
        }
        if let Some(t) = self.transcript.as_mut() {
            t.extend_from_slice(&self.line);
        }
        self.line.clear();
        Ok(())
    }
}

/// Times a direct-call loop and refuses a number the compiler could have
/// made up: `body(n)` must take 1.6–2.4× as long at twice the iteration
/// count. Returns ns per iteration at the larger count. A shared box can
/// stretch one timing, so each size is the best of three and the whole
/// comparison is retried before it fails.
pub fn guarded_ns_per_iter(
    name: &str,
    iters: usize,
    mut body: impl FnMut(usize) -> u64,
) -> Result<f64, String> {
    let mut best_of_3 = |n: usize| {
        (0..3)
            .map(|_| {
                let t = Instant::now();
                black_box(body(black_box(n)));
                t.elapsed()
            })
            .min()
            .unwrap_or(Duration::ZERO)
    };
    let mut last = 0.0;
    for _ in 0..3 {
        let once = best_of_3(iters).as_secs_f64();
        let twice = best_of_3(2 * iters).as_secs_f64();
        last = twice / once.max(f64::MIN_POSITIVE);
        if (1.6..=2.4).contains(&last) {
            return Ok(twice * 1e9 / (2 * iters) as f64);
        }
    }
    Err(format!(
        "{name}: doubling the iteration count took {last:.2}x as long (want 1.6-2.4x); \
         the loop is not measuring its body"
    ))
}

/// `VmHWM` of this process, in MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_nearest_rank() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 5.0);
        assert_eq!(quantile(&v, 0.95), 10.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        let s = Summary::new(vec![4.0, 1.0, 3.0, 2.0]);
        assert_eq!(s.median(), 2.5);
        let mut ns: Vec<u32> = (1..=100).rev().collect();
        assert_eq!(quantile_ns(&mut ns, 0.99), 99.0);
    }

    #[test]
    fn the_sink_stamps_one_response_per_flush_and_tells_err_from_ok() {
        let mut sink = Sink::new(4).keeping_transcript();
        sink.start();
        sink.write_all(b"ok\tcamera\t0\n").unwrap();
        sink.flush().unwrap();
        sink.write_all(b"err\tunknown query\t").unwrap();
        sink.write_all(b"zzz\n").unwrap();
        sink.flush().unwrap();
        sink.flush().unwrap(); // the session's closing flush carries nothing
        assert_eq!(
            (sink.responses, sink.errs, sink.service_ns.len()),
            (2, 1, 2)
        );
        assert_eq!(sink.bytes, 12 + 22);
        assert_eq!(
            sink.transcript.as_deref(),
            Some(&b"ok\tcamera\t0\nerr\tunknown query\tzzz\n"[..])
        );
    }

    #[test]
    fn the_guard_refuses_a_loop_that_does_not_scale() {
        // A body that ignores its iteration count: what a loop the compiler
        // deleted looks like from outside.
        let flat = guarded_ns_per_iter("flat", 1_000, |_| {
            std::thread::sleep(Duration::from_millis(2));
            0
        });
        assert!(flat.unwrap_err().contains("not measuring its body"));

        let real = guarded_ns_per_iter("real", 4_000_000, |n| {
            (0..n as u64).fold(0u64, |acc, i| {
                black_box(acc.wrapping_mul(31).wrapping_add(i))
            })
        });
        assert!(real.expect("a real loop scales") > 0.0);
    }
}
