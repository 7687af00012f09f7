//! The `pages` workload: open loop. Each `websim` page visit becomes
//! one `DecideBatch` line, sent at Poisson arrival times over two
//! connections whatever the server's progress, up a fixed doubling
//! ladder of page rates. A page's latency runs from the time it was
//! due, so a stall also charges the pages queued behind it.
//!
//! A step is sustained when nothing failed and its backlog did not
//! grow: from the middle to the end of the step, the pages due but
//! unanswered may rise by no more than the step's rate allows in flight
//! at the limit. It meets the limit when it is sustained and its page
//! p99 is at most [`LIMIT_MS`]. The ladder climbs through the reference
//! rate and on until a step is not sustained; `max_pages_per_s` is the
//! highest rate up to which every step met the limit, and
//! `sustained_pages_per_s` the highest up to which every step was
//! sustained.

use crate::closed::{self, judge};
use crate::fixture::{self, Rng};
use crate::single::{self, setup_median};
use crate::stats::{quantile, ratio, Tail};
use crate::trace::{self, Spans, ROOT};
use crate::{Ctx, Outcome};
use abp::{Engine, RequestOutcome};
use abpd::poll::{self, Poller};
use abpd::protocol::DecisionRequest;
use abpd::{wire, Server};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};
use websim::traffic::TrafficGen;

/// Page rates tried, in pages per second, lowest first.
pub const LADDER: [f64; 7] = [500.0, 1000.0, 2000.0, 4000.0, 8000.0, 16000.0, 32000.0];
/// The rate at which page latency is reported.
pub const REFERENCE_RATE: f64 = 1000.0;
/// The latency limit on page p99.
pub const LIMIT_MS: f64 = 5.0;
const CONNECTIONS: usize = 2;
/// Every full-size step sends at least this many pages, so its p99 has
/// ten pages beyond it.
const MIN_STEP_PAGES: f64 = 1000.0;
/// How long a step may take to drain after its last send.
const DRAIN_LIMIT: Duration = Duration::from_secs(5);
/// Pages replayed through the layers in the traced run.
const REPLAY_PAGES: usize = 800;

/// Share of `--seconds` a step runs for.
fn step_length(ctx: &Ctx, rate: f64) -> Duration {
    let share = if rate == REFERENCE_RATE { 0.5 } else { 0.08 };
    let min = if ctx.quick {
        0.0
    } else {
        MIN_STEP_PAGES / rate
    };
    Duration::from_secs_f64((ctx.seconds * share).max(min))
}

/// One page visit as a ready-to-send line.
pub struct Page {
    pub reqs: Vec<DecisionRequest>,
    pub want: Vec<RequestOutcome>,
    /// The `DecideBatch` line, newline included.
    line: Vec<u8>,
}

/// The next `count` page visits of a connection's traffic generator.
fn next_pages(gen: &mut TrafficGen, engine: &Engine, count: usize) -> Vec<Page> {
    let visits: Vec<Vec<DecisionRequest>> = (0..count)
        .map(|_| {
            gen.next_visit()
                .samples
                .iter()
                .map(abpd::request_of_sample)
                .collect()
        })
        .collect();
    fixture::par_map(&visits, |reqs| {
        let mut line = Vec::new();
        wire::write_decide_batch(reqs, &mut line);
        line.push(b'\n');
        Page {
            want: reqs
                .iter()
                .map(|r| fixture::outcome_of(engine, r))
                .collect(),
            reqs: reqs.clone(),
            line,
        }
    })
}

/// Poisson arrivals at `rate` pages/s split over the connections: each
/// connection's due offsets in ns from the step's start.
fn arrivals(rng: &mut Rng, rate: f64, length: Duration) -> Vec<Vec<u64>> {
    (0..CONNECTIONS)
        .map(|_| {
            let mut t = 0.0;
            let mut due = Vec::new();
            loop {
                t += rng.exp_gap_s(rate / CONNECTIONS as f64);
                if t >= length.as_secs_f64() {
                    break due;
                }
                due.push((t * 1e9) as u64);
            }
        })
        .collect()
}

/// A client connection with its partial-reply buffer.
struct Conn {
    sock: TcpStream,
    rbuf: Vec<u8>,
}

/// One answered page; ns since the trace epoch.
#[derive(Debug, Clone, Copy)]
struct PageRec {
    due: u64,
    sent: u64,
    recv: u64,
    decode_ns: u64,
}

/// One step's merged result.
struct Step {
    rate: f64,
    length: Duration,
    page_ms: Tail,
    p90_ms: f64,
    rtt_ms: Tail,
    lag_ms: Tail,
    backlog_mid: u64,
    backlog_end: u64,
    ok: u64,
    /// Nothing failed and the backlog did not grow.
    sustained: bool,
    /// Sustained, and page p99 within the limit.
    passed: bool,
    recs: Vec<PageRec>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

/// Add a step's counts to the run's totals.
fn absorb(out: &mut Outcome, step: &Step) {
    out.attempted += step.attempted;
    out.failed += step.failed;
    out.problems.extend(step.problems.iter().cloned());
}

/// The step's pages, one list per connection.
type StepPages = Vec<Vec<Page>>;

fn prepare(
    rng: &mut Rng,
    gens: &mut [TrafficGen],
    engine: &Engine,
    rate: f64,
    length: Duration,
) -> (Vec<Vec<u64>>, StepPages) {
    let due = arrivals(rng, rate, length);
    let pages = gens
        .iter_mut()
        .zip(&due)
        .map(|(g, d)| next_pages(g, engine, d.len()))
        .collect();
    (due, pages)
}

/// Send every page at its due time on its connection, from one thread
/// that sleeps between sends. `sent[c][i]` gets the send time.
fn send_all(
    conns: &[TcpStream],
    order: &[(u64, usize, usize)],
    pages: &StepPages,
    sent: &[Vec<AtomicU64>],
    epoch: Instant,
    start: Instant,
) -> Result<(), String> {
    let mut writers: Vec<&TcpStream> = conns.iter().collect();
    for &(off, c, i) in order {
        let due = start + Duration::from_nanos(off);
        std::thread::sleep(due.saturating_duration_since(Instant::now()));
        sent[c][i].store(closed::ns_since(epoch), Ordering::SeqCst);
        writers[c]
            .write_all(&pages[c][i].line)
            .map_err(|e| format!("send: {e}"))?;
    }
    Ok(())
}

/// Read replies from both connections as they arrive until every page
/// is answered or the drain limit passes.
#[allow(clippy::too_many_arguments)]
fn receive_all(
    conns: &mut [Conn],
    due: &[Vec<u64>],
    pages: &StepPages,
    sent: &[Vec<AtomicU64>],
    epoch: Instant,
    start: Instant,
    deadline: Instant,
    traced: bool,
    step: &mut Step,
) {
    let poller = match Poller::new() {
        Ok(p) => p,
        Err(e) => {
            step.problems.push(format!("epoll: {e}"));
            return;
        }
    };
    for (c, conn) in conns.iter().enumerate() {
        if let Err(e) = poller.add(poll::raw_fd(&conn.sock), c as u64, true, false) {
            step.problems.push(format!("epoll add: {e}"));
            return;
        }
    }
    let start_ns = (start - epoch).as_nanos() as u64;
    let mut next = vec![0usize; conns.len()];
    let total: usize = pages.iter().map(Vec::len).sum();
    let mut answered = 0usize;
    let mut events = Vec::new();
    let mut tmp = vec![0u8; 64 * 1024];
    while answered < total {
        if Instant::now() > deadline {
            for (c, list) in pages.iter().enumerate() {
                step.failed += list[next[c]..]
                    .iter()
                    .map(|p| p.reqs.len() as u64)
                    .sum::<u64>();
            }
            step.problems.push(format!(
                "{} pages unanswered after the drain",
                total - answered
            ));
            // Unblock a sender stuck on a full socket.
            for conn in conns.iter() {
                let _ = conn.sock.shutdown(std::net::Shutdown::Both);
            }
            return;
        }
        if let Err(e) = poller.wait(&mut events, 20) {
            step.problems.push(format!("epoll wait: {e}"));
            return;
        }
        for ev in &events {
            let c = ev.token as usize;
            let conn = &mut conns[c];
            let got = match conn.sock.read(&mut tmp) {
                Ok(0) => {
                    step.problems
                        .push("server closed the connection".to_string());
                    return;
                }
                Ok(k) => k,
                Err(e) => {
                    step.problems.push(format!("read: {e}"));
                    return;
                }
            };
            let recv = closed::ns_since(epoch);
            conn.rbuf.extend_from_slice(&tmp[..got]);
            let mut used = 0;
            while let Some(nl) = conn.rbuf[used..].iter().position(|&b| b == b'\n') {
                let i = next[c];
                let Some(page) = pages[c].get(i) else {
                    step.problems
                        .push("reply with no page in flight".to_string());
                    return;
                };
                let t0 = if traced { closed::ns_since(epoch) } else { 0 };
                let line = &conn.rbuf[used..used + nl];
                let ok = judge(line, page.want.len(), |j, got| page.want[j] == *got).unwrap_or(0);
                let decode_ns = if traced {
                    closed::ns_since(epoch) - t0
                } else {
                    0
                };
                step.ok += ok as u64;
                step.failed += (page.want.len() - ok) as u64;
                step.recs.push(PageRec {
                    due: start_ns + due[c][i],
                    sent: sent[c][i].load(Ordering::SeqCst),
                    recv,
                    decode_ns,
                });
                next[c] += 1;
                answered += 1;
                used += nl + 1;
            }
            conn.rbuf.drain(..used);
        }
    }
}

/// Pages due but unanswered at `t`.
fn backlog_at(recs: &[PageRec], t: u64) -> u64 {
    recs.iter().filter(|r| r.due <= t && r.recv > t).count() as u64
}

fn run_step(
    conns: &mut [Conn],
    due: &[Vec<u64>],
    pages: &StepPages,
    epoch: Instant,
    rate: f64,
    length: Duration,
    traced: bool,
) -> Step {
    let start = Instant::now() + Duration::from_millis(2);
    let mut order: Vec<(u64, usize, usize)> = due
        .iter()
        .enumerate()
        .flat_map(|(c, d)| d.iter().enumerate().map(move |(i, &off)| (off, c, i)))
        .collect();
    order.sort_unstable();
    let sent: Vec<Vec<AtomicU64>> = due
        .iter()
        .map(|d| d.iter().map(|_| AtomicU64::new(0)).collect())
        .collect();
    let mut step = Step {
        rate,
        length,
        page_ms: Tail::of(&mut [], 0.99),
        p90_ms: 0.0,
        rtt_ms: Tail::of(&mut [], 0.99),
        lag_ms: Tail::of(&mut [], 0.99),
        backlog_mid: 0,
        backlog_end: 0,
        ok: 0,
        sustained: false,
        passed: false,
        recs: Vec::new(),
        attempted: pages.iter().flatten().map(|p| p.reqs.len() as u64).sum(),
        failed: 0,
        problems: Vec::new(),
    };
    let writers: Vec<TcpStream> = conns
        .iter()
        .map(|c| c.sock.try_clone())
        .collect::<Result<_, _>>()
        .unwrap_or_default();
    if writers.len() != conns.len() {
        step.problems
            .push("cannot clone connection for sending".to_string());
        return step;
    }
    let deadline = start + length + DRAIN_LIMIT;
    let sent_ref = &sent;
    let sender = std::thread::scope(|s| {
        let sender = s.spawn(|| send_all(&writers, &order, pages, sent_ref, epoch, start));
        receive_all(
            conns, due, pages, sent_ref, epoch, start, deadline, traced, &mut step,
        );
        sender.join().expect("page sender panicked")
    });
    if let Err(e) = sender {
        step.problems.push(format!("pages at {rate}/s: {e}"));
    }
    let (mut page, mut rtt, mut lag) = (Vec::new(), Vec::new(), Vec::new());
    for r in &step.recs {
        page.push((r.recv - r.due) as f64 / 1e6);
        rtt.push(r.recv.saturating_sub(r.sent) as f64 / 1e6);
        lag.push(r.sent.saturating_sub(r.due) as f64 / 1e6);
    }
    let start_ns = (start - epoch).as_nanos() as u64;
    let len_ns = length.as_nanos() as u64;
    step.backlog_mid = backlog_at(&step.recs, start_ns + len_ns / 2);
    step.backlog_end = backlog_at(&step.recs, start_ns + len_ns);
    step.page_ms = Tail::of(&mut page, 0.99);
    step.p90_ms = quantile(&page, 0.9);
    step.rtt_ms = Tail::of(&mut rtt, 0.99);
    step.lag_ms = Tail::of(&mut lag, 0.99);
    let in_flight_at_limit = (rate * LIMIT_MS / 1e3).ceil() as u64;
    step.sustained = step.failed == 0
        && step.problems.is_empty()
        && step.backlog_end <= step.backlog_mid + in_flight_at_limit;
    step.passed = step.sustained && step.page_ms.tail <= LIMIT_MS;
    step
}

fn connect(addr: &str) -> Result<Vec<Conn>, String> {
    (0..CONNECTIONS)
        .map(|_| {
            let sock = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
            sock.set_nodelay(true).map_err(|e| e.to_string())?;
            Ok(Conn {
                sock,
                rbuf: Vec::new(),
            })
        })
        .collect()
}

fn put_step(out: &mut Outcome, s: &Step) {
    let tag = format!("step_{}", s.rate);
    out.sheet
        .put(&format!("{tag}.page_p50_ms"), s.page_ms.p50, "ms");
    out.sheet.put(&format!("{tag}.page_p90_ms"), s.p90_ms, "ms");
    out.sheet
        .put(&format!("{tag}.page_p99_ms"), s.page_ms.tail, "ms");
    out.sheet
        .put(&format!("{tag}.gen_lag_p99_ms"), s.lag_ms.tail, "ms");
    out.sheet
        .put(&format!("{tag}.backlog_mid"), s.backlog_mid as f64, "pages");
    out.sheet
        .put(&format!("{tag}.backlog_end"), s.backlog_end as f64, "pages");
    out.sheet
        .put(&format!("{tag}.pages"), s.page_ms.n as f64, "count");
    out.sheet
        .put(&format!("{tag}.met_limit"), s.passed as u8 as f64, "bool");
}

/// Record the client-side spans of answered pages.
fn push_page_spans(spans: &mut Spans, recs: &[PageRec]) {
    for r in recs {
        let req = spans.load_id();
        let end = r.recv + r.decode_ns;
        let p = spans.push("load.page", r.due, end, ROOT, req);
        spans.push("load.gen.lag", r.due, r.sent, p, req);
        spans.push("load.server.rtt", r.sent, r.recv, p, req);
        spans.push("load.client.decode", r.recv, end, p, req);
    }
}

pub fn pages(ctx: &Ctx) -> Result<Outcome, String> {
    let lists = fixture::head_lists(ctx.seed);
    let engine = fixture::compile(&lists);
    let first = fixture::traffic(ctx.seed, 0, 256, false);
    let first_want = fixture::expected(&engine, &first);
    fixture::reset_peak_rss();
    let (setup_s, server) = setup_median(
        single::setup_repeats(ctx),
        || single::start_checked(fixture::head_lists(ctx.seed), &first, &first_want),
        Server::shutdown,
    )?;
    let mut out = Outcome::default();
    out.attempted += first.len() as u64;
    out.sheet.put("setup_s", setup_s, "s");
    let addr = server.local_addr().to_string();
    let result = ladder(ctx, &mut out, &addr, &engine);
    let stats = single::server_stats(&addr);
    server.shutdown();
    let (mut spans, pages) = result?;
    let requests: Vec<DecisionRequest> =
        pages.iter().flat_map(|p| p.reqs.iter().cloned()).collect();
    let sizes: Vec<usize> = pages.iter().map(|p| p.reqs.len()).collect();
    single::put_props(&mut out, ctx, &[requests], &sizes);
    single::put_server_props(&mut out, &stats?);
    if ctx.trace {
        let lines: Vec<trace::Line<'_>> = pages
            .iter()
            .take(if ctx.quick { 8 } else { REPLAY_PAGES })
            .map(|p| (p.reqs.as_slice(), p.want.as_slice()))
            .collect();
        trace::layers(ctx, &mut out, &mut spans, &lists, &lines)?;
        trace::finish(&mut out, &spans, "pages");
        out.sheet.put("peak_rss_mb", fixture::peak_rss_mb(), "MB");
    }
    Ok(out)
}

/// Warm up, then climb the ladder (untraced run) or alternate traced
/// and untraced reference-rate chunks (traced run). Returns the spans
/// and the reference pages for the traced run's replay.
fn ladder(
    ctx: &Ctx,
    out: &mut Outcome,
    addr: &str,
    engine: &Engine,
) -> Result<(Spans, Vec<Page>), String> {
    let mut rng = Rng::new(ctx.seed);
    let mut gens: Vec<TrafficGen> = (0..CONNECTIONS)
        .map(|c| TrafficGen::new(ctx.seed.wrapping_add(c as u64)))
        .collect();
    let mut conns = connect(addr)?;
    let mut spans = Spans::new();
    let epoch = spans.epoch;
    let mut pages_of =
        |rate: f64, length: Duration| prepare(&mut rng, &mut gens, engine, rate, length);

    let warm = single::warmup(ctx);
    let (due, pages) = pages_of(REFERENCE_RATE, warm);
    absorb(
        out,
        &run_step(&mut conns, &due, &pages, epoch, REFERENCE_RATE, warm, false),
    );
    let mut replay = Vec::new();

    if ctx.trace {
        let mut steps = Vec::new();
        trace::overhead(ctx, out, |traced, length| {
            let (due, pages) = pages_of(REFERENCE_RATE, length);
            let step = run_step(
                &mut conns,
                &due,
                &pages,
                epoch,
                REFERENCE_RATE,
                length,
                traced,
            );
            if traced {
                push_page_spans(&mut spans, &step.recs);
            }
            replay.extend(pages.into_iter().flatten());
            let rate = step.ok as f64 / length.as_secs_f64();
            steps.push(step);
            Ok(rate)
        })?;
        for step in &steps {
            absorb(out, step);
        }
        return Ok((spans, replay));
    }

    // Climb until a step saturates (its backlog grows), and at least
    // through the reference rate.
    let (mut best, mut sustained) = (0.0, 0.0);
    let (mut within_limit, mut saturated) = (true, false);
    let mut reference = None;
    for rate in LADDER {
        if saturated && rate > REFERENCE_RATE {
            break;
        }
        let length = step_length(ctx, rate);
        let (due, pages) = pages_of(rate, length);
        let cpu_before = fixture::thread_cpu_ns("abpd");
        let step = run_step(&mut conns, &due, &pages, epoch, rate, length, false);
        let cpu_ns = fixture::thread_cpu_ns("abpd").saturating_sub(cpu_before);
        absorb(out, &step);
        put_step(out, &step);
        if rate == REFERENCE_RATE {
            out.sheet.put(
                "server_cpu_us_per_decision",
                ratio(cpu_ns as f64 / 1e3, step.ok as f64),
                "us",
            );
            reference = Some((
                step.ok as f64 / step.length.as_secs_f64(),
                step.page_ms,
                step.rtt_ms,
                step.lag_ms,
            ));
            // Steps above the reference run only until one saturates and
            // their inputs grow with the rate; the peak is taken here so
            // it does not depend on how far the ladder climbs.
            out.sheet.put("peak_rss_mb", fixture::peak_rss_mb(), "MB");
            replay.extend(pages.into_iter().flatten());
        }
        within_limit &= step.passed;
        if within_limit {
            best = rate;
        }
        saturated |= !step.sustained;
        if !saturated {
            sustained = rate;
        }
        if ctx.quick && rate >= 2.0 * REFERENCE_RATE {
            break;
        }
    }
    let (rate, page_ms, rtt_ms, lag_ms) =
        reference.ok_or("the ladder stopped before its reference rate")?;
    out.sheet.put("decisions_per_s", rate, "1/s");
    out.sheet.put_tail("page", &page_ms, "ms");
    out.sheet.put_tail("batch", &rtt_ms, "ms");
    out.sheet.put("gen.lag_p99_ms", lag_ms.tail, "ms");
    out.sheet.put("max_pages_per_s", best, "1/s");
    out.sheet.put("sustained_pages_per_s", sustained, "1/s");
    Ok((spans, replay))
}
