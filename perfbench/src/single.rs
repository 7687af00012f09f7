//! The single-server closed-loop workloads, `browse` and `tenant`: two
//! connections, `DecideBatch` of 256, pipeline depth 8, one default
//! server. `tenant` stamps each request with the mask of a different
//! user of a million-user population, which defeats the decision cache.

use crate::closed::{self, ConnRun, Fixed, Shape};
use crate::fixture;
use crate::stats::{median, quantile, ratio};
use crate::{trace, Ctx, Outcome};
use abp::RequestOutcome;
use abpd::protocol::{DecisionRequest, ReloadList, StatsReport};
use abpd::{Client, Server, ServerConfig};
use std::time::{Duration, Instant};

/// Requests per connection stream; the loop cycles through it.
const STREAM_LEN: usize = 1 << 17;
const QUICK_STREAM_LEN: usize = 4096;

pub const SHAPE: Shape = Shape {
    batch: 256,
    depth: 8,
    trace: false,
};
pub const CONNECTIONS: usize = 2;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;

/// Serving before the measured window, so caches fill and lazy set-up
/// finishes first.
pub fn warmup(ctx: &Ctx) -> Duration {
    Duration::from_secs_f64(if ctx.quick { 0.2 } else { 1.0 })
}

pub fn window(ctx: &Ctx) -> Duration {
    Duration::from_secs_f64(ctx.seconds)
}

pub fn setup_repeats(ctx: &Ctx) -> usize {
    if ctx.quick {
        1
    } else {
        SETUP_REPEATS
    }
}

/// Time `once` (a full set-up ending in a checked first answer)
/// `repeats` times; return the median seconds and the last set-up,
/// stopping the others as soon as they are timed.
pub fn setup_median<T>(
    repeats: usize,
    mut once: impl FnMut() -> Result<T, String>,
    mut stop: impl FnMut(T),
) -> Result<(f64, T), String> {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..repeats.max(1) {
        if let Some(prev) = last.take() {
            stop(prev);
        }
        let t0 = Instant::now();
        let got = once()?;
        times.push(t0.elapsed().as_secs_f64());
        last = Some(got);
    }
    Ok((median(&mut times), last.expect("at least one set-up")))
}

/// Send `first` as one batch and check the answers against `want`.
pub fn first_answer(
    addr: &str,
    first: &[DecisionRequest],
    want: &[RequestOutcome],
) -> Result<(), String> {
    let mut client = Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let got = client
        .decide_batch(first)
        .map_err(|e| format!("first batch: {e}"))?;
    if got.iter().map(|r| &r.outcome).eq(want.iter()) {
        Ok(())
    } else {
        Err("first batch answered wrongly".to_string())
    }
}

/// Start a default server on `lists` and wait for a correct answer.
pub fn start_checked(
    lists: Vec<ReloadList>,
    first: &[DecisionRequest],
    want: &[RequestOutcome],
) -> Result<Server, String> {
    let server = Server::start_with_lists(lists, &ServerConfig::default())
        .map_err(|e| format!("start server: {e}"))?;
    match first_answer(&server.local_addr().to_string(), first, want) {
        Ok(()) => Ok(server),
        Err(e) => {
            server.shutdown();
            Err(e)
        }
    }
}

/// Add the connections' counts to the run's totals.
pub fn tally(out: &mut Outcome, runs: &[ConnRun]) {
    for r in runs {
        out.attempted += r.attempted;
        out.failed += r.failed;
        if let Some(e) = &r.error {
            out.problems.push(e.clone());
        }
    }
}

/// The served-path numbers of a closed-loop window, under both the
/// benchmark's gated names and the per-workload names.
/// `cpu_ns` is the servers' CPU time over the window.
pub fn put_window(out: &mut Outcome, runs: &[ConnRun], from: u64, to: u64, cpu_ns: u64) {
    let w = closed::window_stats(runs, from, to);
    out.sheet.put("decisions_per_s", w.rate, "1/s");
    out.sheet.put(
        "server_cpu_us_per_decision",
        ratio(cpu_ns as f64 / 1e3, w.ok as f64),
        "us",
    );
    out.sheet.put_tail("batch", &w.rtt, "ms");
}

/// The input-shape half of the workload-property report; `sizes` are
/// the requests per line the workload sends.
pub fn put_props(out: &mut Outcome, ctx: &Ctx, streams: &[Vec<DecisionRequest>], sizes: &[usize]) {
    let mut sizes: Vec<f64> = sizes.iter().map(|&n| n as f64).collect();
    sizes.sort_by(f64::total_cmp);
    out.props
        .push(("batch_size_p50", format!("{}", quantile(&sizes, 0.5))));
    out.props
        .push(("batch_size_p99", format!("{}", quantile(&sizes, 0.99))));
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    out.props.push(("seed", ctx.seed.to_string()));
    out.props.push(("nproc", nproc.to_string()));
    out.props.push(("transport", "\"loopback\"".to_string()));
    out.props.push((
        "repeat_share",
        format!("{:.4}", fixture::repeat_share(streams)),
    ));
    out.props.push((
        "distinct_tenant_masks",
        fixture::distinct_tenants(streams).to_string(),
    ));
}

/// The server-side half: cache-hit share and tenant estimate.
pub fn put_server_props(out: &mut Outcome, stats: &StatsReport) {
    let hits = ratio(stats.cache_hits as f64, stats.requests as f64);
    out.props
        .push(("server_cache_hit_share", format!("{hits:.4}")));
    out.sheet.put("cache.hit_ratio", hits, "ratio");
    out.props.push((
        "server_distinct_tenants",
        stats.distinct_tenants.to_string(),
    ));
    out.sheet
        .put("server.stats_p50_us", stats.p50_us as f64, "us");
    out.sheet
        .put("server.stats_p99_us", stats.p99_us as f64, "us");
}

pub fn server_stats(addr: &str) -> Result<StatsReport, String> {
    Client::connect(addr)
        .and_then(|mut c| c.stats())
        .map_err(|e| format!("stats from {addr}: {e}"))
}

pub fn closed_loop(ctx: &Ctx, tenants: bool) -> Result<Outcome, String> {
    let len = if ctx.quick {
        QUICK_STREAM_LEN
    } else {
        STREAM_LEN
    };
    let streams: Vec<Vec<DecisionRequest>> = (0..CONNECTIONS)
        .map(|c| fixture::traffic(ctx.seed, c, len, tenants))
        .collect();
    let lists = fixture::head_lists(ctx.seed);
    let reference = fixture::compile(&lists);
    let expected: Vec<Vec<RequestOutcome>> = streams
        .iter()
        .map(|s| fixture::expected(&reference, s))
        .collect();
    let first = &streams[0][..SHAPE.batch];
    fixture::reset_peak_rss();
    let (setup_s, server) = setup_median(
        setup_repeats(ctx),
        || {
            start_checked(
                fixture::head_lists(ctx.seed),
                first,
                &expected[0][..first.len()],
            )
        },
        Server::shutdown,
    )?;
    let mut out = Outcome::default();
    out.attempted += first.len() as u64;
    out.sheet.put("setup_s", setup_s, "s");
    put_props(&mut out, ctx, &streams, &[SHAPE.batch]);
    let addr = server.local_addr().to_string();
    let oracle = Fixed(&expected);
    let mut spans = trace::Spans::new();
    let epoch = spans.epoch;
    let runs = if ctx.trace {
        trace::closed_overhead(ctx, &mut out, &mut spans, SHAPE, |shape, from, until| {
            closed::drive(&addr, &streams, &oracle, shape, epoch, (from, until)).0
        })?
    } else {
        let from = epoch + warmup(ctx);
        let until = from + window(ctx);
        let (runs, cpu_ns) = closed::drive(&addr, &streams, &oracle, SHAPE, epoch, (from, until));
        put_window(
            &mut out,
            &runs,
            (from - epoch).as_nanos() as u64,
            (until - epoch).as_nanos() as u64,
            cpu_ns,
        );
        runs
    };
    tally(&mut out, &runs);
    let stats = server_stats(&addr);
    server.shutdown();
    put_server_props(&mut out, &stats?);
    if ctx.trace {
        let lines = trace::lines_of(
            &streams[0],
            &expected[0],
            SHAPE.batch,
            trace::replay_lines(ctx),
        );
        trace::layers(ctx, &mut out, &mut spans, &lists, &lines)?;
        trace::finish(&mut out, &spans, if tenants { "tenant" } else { "browse" });
    }
    out.sheet.put("peak_rss_mb", fixture::peak_rss_mb(), "MB");
    Ok(out)
}
