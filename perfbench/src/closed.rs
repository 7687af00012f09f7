//! The closed-loop client: each connection keeps `depth` `DecideBatch`
//! lines in flight and sends the next line only when a reply frees a
//! slot, so a slower server receives less load.

use crate::stats::{median, Tail};
use abp::RequestOutcome;
use abpd::protocol::{DecisionRequest, ServerMessage};
use abpd::{wire, Client};
use std::collections::VecDeque;
use std::time::Instant;

/// Judges the answers of one workload.
pub trait Oracle: Sync {
    /// A token recorded with each line when it is sent (the fleet
    /// workload stamps the whitelist revision live at that moment).
    fn stamp(&self) -> u32 {
        0
    }

    /// Whether `got` answers position `pos` of connection `conn`'s
    /// stream correctly, for a line sent under `stamp`.
    fn check(&self, conn: usize, pos: usize, got: &RequestOutcome, stamp: u32) -> bool;
}

/// Answers that never change during a run: one reference outcome per
/// stream position.
pub struct Fixed<'a>(pub &'a [Vec<RequestOutcome>]);

impl Oracle for Fixed<'_> {
    fn check(&self, conn: usize, pos: usize, got: &RequestOutcome, _: u32) -> bool {
        self.0[conn][pos] == *got
    }
}

/// Load shape of a closed-loop workload.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub batch: usize,
    pub depth: usize,
    /// Time the client's encode and decode of every line (the traced
    /// run); off, the loop takes only the send and receive timestamps.
    pub trace: bool,
}

/// One answered line. Times are nanoseconds since the run's epoch.
#[derive(Debug, Clone, Copy)]
pub struct LineRec {
    pub send_ns: u64,
    pub recv_ns: u64,
    /// Requests of the line answered correctly.
    pub ok: u32,
    /// Client-side `write_decide_batch` time.
    pub encode_ns: u32,
    /// Client-side `parse_server_message` time.
    pub decode_ns: u32,
}

/// What one connection did.
#[derive(Debug, Default)]
pub struct ConnRun {
    pub lines: Vec<LineRec>,
    pub attempted: u64,
    pub failed: u64,
    pub error: Option<String>,
}

pub fn ns_since(epoch: Instant) -> u64 {
    epoch.elapsed().as_nanos() as u64
}

/// Decode one reply line and judge it: the number of correct answers,
/// or `None` when the line is not a well-formed `Batch` of `n`.
pub fn judge(
    text: &[u8],
    n: usize,
    mut check: impl FnMut(usize, &RequestOutcome) -> bool,
) -> Option<usize> {
    let msg = std::str::from_utf8(text)
        .ok()
        .and_then(|t| wire::parse_server_message(t).ok())?;
    match msg {
        ServerMessage::Batch(b) if b.len() == n => Some(
            b.iter()
                .enumerate()
                .filter(|(i, r)| check(*i, &r.outcome))
                .count(),
        ),
        _ => None,
    }
}

/// Drive one connection until `until`, cycling through `stream` in
/// lines of `shape.batch` requests, then drain what is in flight.
pub fn drive_conn(
    conn: usize,
    addr: &str,
    stream: &[DecisionRequest],
    oracle: &dyn Oracle,
    shape: Shape,
    epoch: Instant,
    until: Instant,
) -> ConnRun {
    let mut run = ConnRun::default();
    let mut client = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            run.error = Some(format!("connect {addr}: {e}"));
            return run;
        }
    };
    let batch = shape.batch.min(stream.len()).max(1);
    // (first position, requests, send time, encode time, stamp)
    let mut inflight: VecDeque<(usize, usize, u64, u32, u32)> = VecDeque::new();
    let mut pos = 0usize;
    let mut buf = Vec::with_capacity(64 * 1024);
    loop {
        while Instant::now() < until && inflight.len() < shape.depth {
            if pos + batch > stream.len() {
                pos = 0;
            }
            buf.clear();
            let t0 = if shape.trace { ns_since(epoch) } else { 0 };
            wire::write_decide_batch(&stream[pos..pos + batch], &mut buf);
            let t1 = ns_since(epoch);
            let stamp = oracle.stamp();
            if let Err(e) = client.send_raw(&buf) {
                run.error = Some(format!("send: {e}"));
                break;
            }
            run.attempted += batch as u64;
            let encode_ns = if shape.trace { (t1 - t0) as u32 } else { 0 };
            inflight.push_back((pos, batch, t1, encode_ns, stamp));
            pos += batch;
        }
        let Some(&(first, n, send_ns, encode_ns, stamp)) = inflight.front() else {
            break;
        };
        if run.error.is_some() {
            break;
        }
        let reply = match client.read_reply_raw() {
            Ok(r) => r,
            Err(e) => {
                run.error = Some(format!("read: {e}"));
                break;
            }
        };
        let recv_ns = ns_since(epoch);
        let ok = judge(reply, n, |i, got| oracle.check(conn, first + i, got, stamp));
        let done_ns = if shape.trace {
            ns_since(epoch)
        } else {
            recv_ns
        };
        inflight.pop_front();
        let ok = ok.unwrap_or(0);
        run.failed += (n - ok) as u64;
        run.lines.push(LineRec {
            send_ns,
            recv_ns,
            ok: ok as u32,
            encode_ns,
            decode_ns: (done_ns - recv_ns) as u32,
        });
    }
    // Whatever is still in flight after a transport error is lost.
    run.failed += inflight.iter().map(|l| l.1 as u64).sum::<u64>();
    run
}

/// Drive one thread per stream against `addr` until `until`. The
/// calling thread only samples the servers' CPU time at `from` and at
/// `until`; the difference is returned with the connections' runs.
pub fn drive(
    addr: &str,
    streams: &[Vec<DecisionRequest>],
    oracle: &dyn Oracle,
    shape: Shape,
    epoch: Instant,
    window: (Instant, Instant),
) -> (Vec<ConnRun>, u64) {
    let (from, until) = window;
    std::thread::scope(|s| {
        let handles: Vec<_> = streams
            .iter()
            .enumerate()
            .map(|(c, stream)| {
                s.spawn(move || drive_conn(c, addr, stream, oracle, shape, epoch, until))
            })
            .collect();
        let cpu = server_cpu_between(from, until);
        let runs = handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect();
        (runs, cpu)
    })
}

/// Sleep to `from`, then to `until`, and return the servers' CPU time
/// spent in between (ns).
pub fn server_cpu_between(from: Instant, until: Instant) -> u64 {
    std::thread::sleep(from.saturating_duration_since(Instant::now()));
    let before = crate::fixture::thread_cpu_ns("abpd");
    std::thread::sleep(until.saturating_duration_since(Instant::now()));
    crate::fixture::thread_cpu_ns("abpd").saturating_sub(before)
}

/// End-to-end numbers of a closed-loop window `[from, to)` (ns since
/// epoch).
pub struct Window {
    /// Median over one-second sub-windows of the rate of correct
    /// decisions, so one stalled moment of the shared host's virtual
    /// CPUs moves it less than it moves a mean.
    pub rate: f64,
    /// Correct decisions in the window.
    pub ok: u64,
    /// Per-line round trip in ms.
    pub rtt: Tail,
}

pub fn window_stats(runs: &[ConnRun], from: u64, to: u64) -> Window {
    let span = (to - from).max(1);
    let chunks = (span / 1_000_000_000).max(1);
    let mut ok = vec![0u64; chunks as usize];
    let mut rtt = Vec::new();
    for l in runs.iter().flat_map(|r| &r.lines) {
        if l.recv_ns < from || l.recv_ns >= to {
            continue;
        }
        ok[((l.recv_ns - from) * chunks / span) as usize] += l.ok as u64;
        rtt.push((l.recv_ns - l.send_ns) as f64 / 1e6);
    }
    let chunk_s = span as f64 / 1e9 / chunks as f64;
    let mut rates: Vec<f64> = ok.iter().map(|&n| n as f64 / chunk_s).collect();
    Window {
        rate: median(&mut rates),
        ok: ok.iter().sum(),
        rtt: Tail::of(&mut rtt, 0.99),
    }
}
