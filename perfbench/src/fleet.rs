//! The `fleet_reload` workload and the traced run's fleet layers.
//!
//! Three default shards sit behind `abpd-proxy`. One connection drives
//! browsing traffic through the router (batch 256, depth 4) while a
//! second thread ships consecutive whitelist revisions from a fixed
//! window of `corpus::build_history` as `ReloadDelta` lines through the
//! same router, one every [`RELOAD_INTERVAL`].
//!
//! Answers may legitimately change while revisions go live. A request
//! no changing whitelist line can match has one right answer for the
//! whole window and is checked at once; the rest are checked after the
//! window against every revision that could have served them (from the
//! one acknowledged when the line was sent to the one shipped when its
//! reply came back).

use crate::closed::{self, Oracle, Shape};
use crate::fixture;
use crate::single::{self, setup_median};
use crate::stats::{median, ratio, Tail};
use crate::trace::{self, Line, Spans, ROOT};
use crate::{Ctx, Outcome};
use abp::{Engine, FilterList, ListSource, RequestOutcome};
use abpd::protocol::{DecisionRequest, ReloadDeltaList, ReloadList, ServerMessage};
use abpd::{serving_checksum, wire, Client, Server, ServerConfig, Service, ServiceConfig};
use abpd_proxy::{Proxy, ProxyConfig};
use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

pub const SHARDS: usize = 3;
/// First whitelist revision of the reload window; shards boot on it.
pub const WINDOW_START: u32 = 900;
/// Revisions in the window after the first; shipping stops once they
/// are all live (after 32 s at the interval below).
pub const WINDOW_REVS: usize = 64;
pub const RELOAD_INTERVAL: Duration = Duration::from_millis(500);
const SHAPE: Shape = Shape {
    batch: 256,
    depth: 4,
    trace: false,
};
const STREAM_LEN: usize = 1 << 17;
const QUICK_STREAM_LEN: usize = 4096;

/// A window of consecutive whitelist revisions and the `ReloadDelta`
/// lines that move a fleet from each one to the next.
pub struct Revisions {
    pub easylist: String,
    /// `texts[k]` is revision `WINDOW_START + k`.
    pub texts: Vec<String>,
    /// `deltas[k]` moves `texts[k]` to `texts[k + 1]`.
    pub deltas: Vec<abpdelta::Delta>,
    /// `deltas[k]` as a wire line (without its newline).
    pub lines: Vec<Vec<u8>>,
}

/// The corpus, its whitelist history, and the lists revision
/// `WINDOW_START + k` serves.
fn window_texts(seed: u64, count: usize) -> Result<(String, Vec<String>), String> {
    let corpus = corpus::Corpus::generate(seed);
    let history = corpus::build_history(seed, &corpus.final_whitelist);
    let texts = (0..=count as u32)
        .map(|k| {
            history
                .rev(WINDOW_START + k)
                .map(|r| r.content.clone())
                .ok_or_else(|| format!("history has no revision {}", WINDOW_START + k))
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok((corpus.easylist.to_text(), texts))
}

impl Revisions {
    pub fn new(seed: u64, count: usize) -> Result<Revisions, String> {
        let (easylist, texts) = window_texts(seed, count)?;
        let deltas: Vec<abpdelta::Delta> = texts
            .windows(2)
            .map(|w| abpdelta::encode(&w[0], &w[1]))
            .collect();
        let lines = deltas
            .iter()
            .map(|d| {
                let mut line = Vec::new();
                wire::write_reload_delta(&[update(d.clone())], &mut line);
                line
            })
            .collect();
        Ok(Revisions {
            easylist,
            texts,
            deltas,
            lines,
        })
    }

    pub fn lists(&self, k: usize) -> Vec<ReloadList> {
        fixture::lists_of(&self.easylist, &self.texts[k])
    }

    /// An engine that reports an activation exactly when some whitelist
    /// line whose presence (or multiplicity) changes inside the window
    /// matches a request. Lines are exception filters, and the engine
    /// records exception activations even when nothing blocks.
    fn changing_lines(&self) -> Engine {
        fn counts(text: &str) -> HashMap<&str, u32> {
            let mut m = HashMap::new();
            for line in text.lines().map(str::trim) {
                if !line.is_empty() && !line.starts_with('!') && !line.starts_with('[') {
                    *m.entry(line).or_insert(0) += 1;
                }
            }
            m
        }
        // A line changes somewhere in the window iff its count differs
        // between two consecutive revisions.
        let mut changing = BTreeSet::new();
        let mut prev = counts(&self.texts[0]);
        for text in &self.texts[1..] {
            let next = counts(text);
            for line in prev.keys().chain(next.keys()) {
                if prev.get(line) != next.get(line) {
                    changing.insert(*line);
                }
            }
            prev = next;
        }
        let text: String = changing.into_iter().flat_map(|l| [l, "\n"]).collect();
        Engine::from_lists([&FilterList::parse(ListSource::AcceptableAds, &text)])
    }
}

fn update(delta: abpdelta::Delta) -> ReloadDeltaList {
    ReloadDeltaList {
        source: ListSource::AcceptableAds,
        delta,
    }
}

/// Shards plus the router in front of them, all default configuration.
pub struct Fleet {
    pub shards: Vec<Server>,
    pub proxy: Proxy,
}

impl Fleet {
    pub fn start(lists: &[ReloadList]) -> Result<Fleet, String> {
        let shards = (0..SHARDS)
            .map(|_| Server::start_with_lists(lists.to_vec(), &ServerConfig::default()))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("start shard: {e}"))?;
        let proxy = Proxy::start(&ProxyConfig {
            backends: shards.iter().map(|s| s.local_addr().to_string()).collect(),
            ..ProxyConfig::default()
        })
        .map_err(|e| format!("start router: {e}"))?;
        Ok(Fleet { shards, proxy })
    }

    pub fn addr(&self) -> String {
        self.proxy.local_addr().to_string()
    }

    /// Router first (it holds connections to the shards), then shards.
    pub fn shutdown(self) {
        self.proxy.shutdown();
        for s in self.shards {
            s.shutdown();
        }
    }

    /// Hedged decisions and the busiest shard's share over the mean.
    fn routing(&self) -> (f64, f64) {
        let report = self.proxy.backend_report();
        let hedged: u64 = report.iter().map(|b| b.hedged_away).sum();
        let mut forwarded: Vec<f64> = report.iter().map(|b| b.forwarded as f64).collect();
        let mean = forwarded.iter().sum::<f64>() / forwarded.len().max(1) as f64;
        forwarded.sort_by(f64::total_cmp);
        let max = forwarded.last().copied().unwrap_or(0.0);
        (hedged as f64, ratio(max, mean))
    }
}

/// Send one pre-encoded reload line and wait for the converged reply.
fn reload_once(client: &mut Client, line: &[u8]) -> Result<(), String> {
    client
        .send_raw(line)
        .map_err(|e| format!("reload send: {e}"))?;
    let raw = client
        .read_reply_raw()
        .map_err(|e| format!("reload reply: {e}"))?;
    match std::str::from_utf8(raw).map(wire::parse_server_message) {
        Ok(Ok(ServerMessage::Reloaded(_))) => Ok(()),
        other => Err(format!("reload answered {other:?}")),
    }
}

/// An answer to check after the window: connection position, the
/// revision range that could have served it, and what came back.
type Deferred = (usize, u32, u32, RequestOutcome);

struct ReloadOracle<'a> {
    expected: &'a [RequestOutcome],
    changing: &'a [bool],
    acked: &'a AtomicU32,
    shipped: &'a AtomicU32,
    deferred: Mutex<Vec<Deferred>>,
}

impl Oracle for ReloadOracle<'_> {
    fn stamp(&self) -> u32 {
        self.acked.load(Ordering::SeqCst)
    }

    fn check(&self, _conn: usize, pos: usize, got: &RequestOutcome, stamp: u32) -> bool {
        if !self.changing[pos] {
            return self.expected[pos] == *got;
        }
        let hi = self.shipped.load(Ordering::SeqCst);
        self.deferred
            .lock()
            .expect("deferred list poisoned")
            .push((pos, stamp, hi, got.clone()));
        true
    }
}

/// What the reload thread measured.
#[derive(Default)]
struct Shipped {
    live_ms: Vec<f64>,
    bytes: Vec<f64>,
}

/// Ship revision `k` at `from + (k - 1) * RELOAD_INTERVAL` until `until`.
fn ship(
    addr: &str,
    revs: &Revisions,
    from: Instant,
    until: Instant,
    acked: &AtomicU32,
    shipped: &AtomicU32,
) -> Result<Shipped, String> {
    let mut client = Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let mut out = Shipped::default();
    for (i, line) in revs.lines.iter().enumerate() {
        let due = from + RELOAD_INTERVAL * i as u32;
        if due >= until {
            break;
        }
        std::thread::sleep(due.saturating_duration_since(Instant::now()));
        let k = i as u32 + 1;
        shipped.store(k, Ordering::SeqCst);
        let t0 = Instant::now();
        reload_once(&mut client, line)?;
        out.live_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        acked.store(k, Ordering::SeqCst);
        out.bytes.push(line.len() as f64 + 1.0);
    }
    Ok(out)
}

/// Check deferred answers against every revision that could have
/// served them, one revision's engine at a time; returns how many no
/// revision explains.
fn settle(revs: &Revisions, deferred: &[Deferred], stream: &[DecisionRequest]) -> u64 {
    let needed: BTreeSet<u32> = deferred.iter().flat_map(|d| d.1..=d.2).collect();
    let mut explained = vec![false; deferred.len()];
    for k in needed {
        let engine = fixture::compile(&revs.lists(k as usize));
        for (done, (pos, lo, hi, got)) in explained.iter_mut().zip(deferred) {
            if !*done && (*lo..=*hi).contains(&k) {
                *done = fixture::outcome_of(&engine, &stream[*pos]) == *got;
            }
        }
    }
    explained.iter().filter(|done| !**done).count() as u64
}

/// After the last reload: every shard serves the expected lists, and a
/// sample of decisions through the router matches the head engine.
fn check_converged(
    fleet: &Fleet,
    revs: &Revisions,
    head: usize,
    stream: &[DecisionRequest],
    out: &mut Outcome,
) {
    let want = serving_checksum(&revs.lists(head));
    for (slot, s) in fleet.shards.iter().enumerate() {
        match Client::connect(s.local_addr()).and_then(|mut c| c.health()) {
            Ok(h) if h.list_checksum == want => {}
            Ok(h) => out.problems.push(format!(
                "shard {slot} serves checksum {:016x}, expected {want:016x}",
                h.list_checksum
            )),
            Err(e) => out.problems.push(format!("shard {slot} health: {e}")),
        }
    }
    let engine = fixture::compile(&revs.lists(head));
    let sample = &stream[..stream.len().min(2 * SHAPE.batch)];
    let want: Vec<RequestOutcome> = sample
        .iter()
        .map(|r| fixture::outcome_of(&engine, r))
        .collect();
    out.attempted += sample.len() as u64;
    if let Err(e) = single::first_answer(&fleet.addr(), sample, &want) {
        out.failed += sample.len() as u64;
        out.problems
            .push(format!("head sample through the router: {e}"));
    }
}

/// Summed server statistics of the shards.
fn fleet_stats(fleet: &Fleet) -> Result<abpd::StatsReport, String> {
    let mut sum = abpd::StatsReport::default();
    for s in &fleet.shards {
        let st = single::server_stats(&s.local_addr().to_string())?;
        sum.requests += st.requests;
        sum.cache_hits += st.cache_hits;
        sum.p50_us = sum.p50_us.max(st.p50_us);
        sum.p99_us = sum.p99_us.max(st.p99_us);
        sum.distinct_tenants = sum.distinct_tenants.max(st.distinct_tenants);
    }
    Ok(sum)
}

pub fn fleet_reload(ctx: &Ctx) -> Result<Outcome, String> {
    let count = if ctx.quick { 4 } else { WINDOW_REVS };
    let len = if ctx.quick {
        QUICK_STREAM_LEN
    } else {
        STREAM_LEN
    };
    let revs = Revisions::new(ctx.seed, count)?;
    let stream = fixture::traffic(ctx.seed, 0, len, false);
    let base = revs.lists(0);
    let expected = fixture::expected(&fixture::compile(&base), &stream);
    let changing_engine = revs.changing_lines();
    let changing: Vec<bool> = fixture::par_map(&stream, |r| {
        !fixture::outcome_of(&changing_engine, r)
            .activations
            .is_empty()
    });
    let first = &stream[..SHAPE.batch];
    fixture::reset_peak_rss();
    // A deployment fetches the revision it boots on; generating the
    // whole history is input preparation, so set-up starts from the
    // revision's text (plus a freshly generated EasyList).
    let (setup_s, fleet) = setup_median(
        single::setup_repeats(ctx),
        || {
            let easylist = corpus::Corpus::generate(ctx.seed).easylist.to_text();
            let fleet = Fleet::start(&fixture::lists_of(&easylist, &revs.texts[0]))?;
            match single::first_answer(&fleet.addr(), first, &expected[..first.len()]) {
                Ok(()) => Ok(fleet),
                Err(e) => {
                    fleet.shutdown();
                    Err(e)
                }
            }
        },
        Fleet::shutdown,
    )?;
    let mut out = Outcome::default();
    out.attempted += first.len() as u64;
    out.sheet.put("setup_s", setup_s, "s");
    let streams = [stream];
    let stream = &streams[0];
    single::put_props(&mut out, ctx, &streams, &[SHAPE.batch]);
    out.props.push((
        "changing_answer_share",
        format!(
            "{:.4}",
            ratio(
                changing.iter().filter(|c| **c).count() as f64,
                changing.len() as f64
            )
        ),
    ));
    let addr = fleet.addr();
    let acked = AtomicU32::new(0);
    let shipped = AtomicU32::new(0);
    let oracle = ReloadOracle {
        expected: &expected,
        changing: &changing,
        acked: &acked,
        shipped: &shipped,
        deferred: Mutex::new(Vec::new()),
    };
    let mut spans = Spans::new();
    let epoch = spans.epoch;
    let result = if ctx.trace {
        // The traced run measures reloads in its own phase; the served
        // phase here is the router path alone.
        trace::closed_overhead(ctx, &mut out, &mut spans, SHAPE, |shape, _, until| {
            vec![closed::drive_conn(
                0, &addr, stream, &oracle, shape, epoch, until,
            )]
        })
        .map(|runs| (runs, Shipped::default()))
    } else {
        let from = epoch + single::warmup(ctx);
        let until = from + single::window(ctx);
        std::thread::scope(|s| {
            let reloads = s.spawn(|| ship(&addr, &revs, from, until, &acked, &shipped));
            let load =
                s.spawn(|| closed::drive_conn(0, &addr, stream, &oracle, SHAPE, epoch, until));
            let cpu_ns = closed::server_cpu_between(from, until);
            let reloads = reloads.join().expect("reload thread panicked");
            let runs = vec![load.join().expect("load thread panicked")];
            single::put_window(
                &mut out,
                &runs,
                (from - epoch).as_nanos() as u64,
                (until - epoch).as_nanos() as u64,
                cpu_ns,
            );
            reloads.map(|r| (runs, r))
        })
    };
    let (runs, reloads) = match result {
        Ok(v) => v,
        Err(e) => {
            fleet.shutdown();
            return Err(e);
        }
    };
    single::tally(&mut out, &runs);
    // Before the post-window checks, which compile engines of their own.
    out.sheet.put("peak_rss_mb", fixture::peak_rss_mb(), "MB");
    let head = acked.load(Ordering::SeqCst) as usize;
    let deferred = oracle
        .deferred
        .into_inner()
        .expect("deferred list poisoned");
    out.failed += settle(&revs, &deferred, stream);
    out.props
        .push(("deferred_checks", deferred.len().to_string()));
    check_converged(&fleet, &revs, head, stream, &mut out);
    let stats = fleet_stats(&fleet);
    let (hedged, balance) = fleet.routing();
    fleet.shutdown();
    single::put_server_props(&mut out, &stats?);
    if !ctx.trace {
        let mut live = reloads.live_ms;
        out.sheet
            .put_tail("reload_live", &Tail::of(&mut live, 0.9), "ms");
        out.sheet.put(
            "reload_bytes_per_rev",
            reloads.bytes.iter().sum::<f64>() / reloads.bytes.len().max(1) as f64,
            "B",
        );
        out.sheet.put("proxy.hedged", hedged, "count");
        out.sheet.put("proxy.shard_balance", balance, "ratio");
    }
    if ctx.trace {
        let lines = trace::lines_of(stream, &expected, SHAPE.batch, trace::replay_lines(ctx));
        trace::layers(ctx, &mut out, &mut spans, &base, &lines)?;
        trace::finish(&mut out, &spans, "fleet_reload");
    }
    Ok(out)
}

/// Lines of one replay pass, alternating router and one shard directly,
/// timed per line in ms.
fn hop_pass(
    spans: &mut Spans,
    router: &mut Client,
    direct: &mut Client,
    lines: &[(Vec<u8>, &[RequestOutcome])],
    timed: bool,
) -> Result<(Vec<f64>, Vec<f64>, u64), String> {
    let (mut via, mut straight, mut wrong) = (Vec::new(), Vec::new(), 0u64);
    for (i, (line, want)) in lines.iter().enumerate() {
        for (through, client) in [(true, &mut *router), (false, &mut *direct)] {
            let t0 = spans.now();
            client
                .send_raw(line)
                .map_err(|e| format!("hop send: {e}"))?;
            let raw = client
                .read_reply_raw()
                .map_err(|e| format!("hop read: {e}"))?;
            let t1 = spans.now();
            let ok = closed::judge(raw, want.len(), |j, got| want[j] == *got).unwrap_or(0);
            wrong += (want.len() - ok) as u64;
            if timed {
                let name = if through { "proxy.line" } else { "direct.line" };
                spans.push(name, t0, t1, ROOT, i as u32);
                let ms = (t1 - t0) as f64 / 1e6;
                if through {
                    via.push(ms)
                } else {
                    straight.push(ms)
                }
            }
        }
    }
    Ok((via, straight, wrong))
}

/// The traced run's fleet and delta-codec layers: `delta.*`,
/// `service.reload_delta_ms`, `proxy.*`, all on the seed's revision
/// window and the workload's own replay lines.
pub fn layer_metrics(
    ctx: &Ctx,
    out: &mut Outcome,
    spans: &mut Spans,
    lines: &[Line<'_>],
) -> Result<(), String> {
    let count = if ctx.quick { 3 } else { 16 };
    let revs = Revisions::new(ctx.seed, count)?;

    let (mut encode_ms, mut apply_ms) = (Vec::new(), Vec::new());
    let (mut delta_bytes, mut full_bytes) = (0.0, 0.0);
    let mut buf = Vec::new();
    for k in 0..count {
        let t0 = spans.now();
        let delta = abpdelta::encode(&revs.texts[k], &revs.texts[k + 1]);
        let t1 = spans.now();
        let body =
            abpdelta::apply(&revs.texts[k], &delta).map_err(|e| format!("delta apply: {e}"))?;
        let t2 = spans.now();
        if body != revs.texts[k + 1] {
            return Err(format!("delta {k} does not reproduce its target"));
        }
        spans.push("delta.encode", t0, t1, ROOT, k as u32);
        spans.push("delta.apply", t1, t2, ROOT, k as u32);
        encode_ms.push((t1 - t0) as f64 / 1e6);
        apply_ms.push((t2 - t1) as f64 / 1e6);
        delta_bytes += revs.lines[k].len() as f64 + 1.0;
        buf.clear();
        wire::write_reload(
            &[ReloadList {
                source: ListSource::AcceptableAds,
                content: revs.texts[k + 1].clone(),
            }],
            &mut buf,
        );
        full_bytes += buf.len() as f64 + 1.0;
    }
    out.sheet
        .put("delta.encode_ms", median(&mut encode_ms), "ms");
    out.sheet.put("delta.apply_ms", median(&mut apply_ms), "ms");
    out.sheet
        .put("delta.ratio", ratio(delta_bytes, full_bytes), "ratio");

    let svc = Service::start_with_lists(revs.lists(0), &ServiceConfig::default())?;
    let mut service_ms = Vec::new();
    for (k, delta) in revs.deltas.iter().enumerate() {
        let t0 = spans.now();
        svc.reload_delta(&[update(delta.clone())])
            .map_err(|e| format!("reload_delta: {e}"))?;
        let t1 = spans.now();
        spans.push("service.reload_delta", t0, t1, ROOT, k as u32);
        service_ms.push((t1 - t0) as f64 / 1e6);
    }
    svc.shutdown();
    let service_ms = median(&mut service_ms);
    out.sheet.put("service.reload_delta_ms", service_ms, "ms");

    let fleet = Fleet::start(&revs.lists(0))?;
    let result = fleet_layers(ctx, out, spans, &fleet, &revs, lines, service_ms);
    let (hedged, balance) = fleet.routing();
    fleet.shutdown();
    out.sheet.put("proxy.hedged", hedged, "count");
    out.sheet.put("proxy.shard_balance", balance, "ratio");
    result
}

fn fleet_layers(
    ctx: &Ctx,
    out: &mut Outcome,
    spans: &mut Spans,
    fleet: &Fleet,
    revs: &Revisions,
    lines: &[Line<'_>],
    service_ms: f64,
) -> Result<(), String> {
    let mut router = Client::connect(fleet.addr()).map_err(|e| format!("connect router: {e}"))?;
    let mut live_ms = Vec::new();
    for (k, line) in revs.lines.iter().enumerate() {
        let t0 = spans.now();
        reload_once(&mut router, line)?;
        let t1 = spans.now();
        spans.push("proxy.reload", t0, t1, ROOT, k as u32);
        live_ms.push((t1 - t0) as f64 / 1e6);
    }
    out.sheet.put(
        "proxy.reload_fanout_ms",
        median(&mut live_ms) - service_ms,
        "ms",
    );

    // Router hop: the same lines through the router and straight to one
    // shard, after a warm pass on each so both answer from a warm cache.
    let engine = fixture::compile(&revs.lists(revs.texts.len() - 1));
    let hop_count = if ctx.quick { 4 } else { 50 };
    let wants: Vec<Vec<RequestOutcome>> = lines
        .iter()
        .take(hop_count)
        .map(|(reqs, _)| {
            reqs.iter()
                .map(|r| fixture::outcome_of(&engine, r))
                .collect()
        })
        .collect();
    let encoded: Vec<(Vec<u8>, &[RequestOutcome])> = lines
        .iter()
        .zip(&wants)
        .map(|((reqs, _), want)| {
            let mut line = Vec::new();
            wire::write_decide_batch(reqs, &mut line);
            (line, want.as_slice())
        })
        .collect();
    let shard = fleet.shards[0].local_addr();
    let mut direct = Client::connect(shard).map_err(|e| format!("connect shard: {e}"))?;
    let (_, _, warm_wrong) = hop_pass(spans, &mut router, &mut direct, &encoded, false)?;
    let (mut via, mut straight, wrong) = hop_pass(spans, &mut router, &mut direct, &encoded, true)?;
    let n: u64 = encoded.iter().map(|l| l.1.len() as u64).sum();
    out.attempted += 4 * n;
    out.failed += warm_wrong + wrong;
    out.sheet.put(
        "proxy.hop_us",
        (median(&mut via) - median(&mut straight)) * 1e3,
        "us",
    );
    Ok(())
}
