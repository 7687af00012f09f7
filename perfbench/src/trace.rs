//! The traced run: spans recorded around calls into each layer's public
//! functions, replaying the workload's own request lines.
//!
//! A span is (name, start, end, parent, request id); the request id is
//! the replayed line's index, so every span one line caused shares it.
//! Spans stay in memory and are written to `.bench_out/` at the end. A
//! layer's self time is its span time minus what its child spans cover.
//!
//! Phases, in order:
//! * served, workload shape: untraced and traced chunks alternate; the
//!   ratio of their decision rates is the tracing overhead;
//! * served, lockstep: the replay lines one at a time against a fresh
//!   default server: `line` = `client.encode` + `server.rtt` +
//!   `client.decode`, then one `Ping` (`server.ping`, the bare round
//!   trip that is the transport floor);
//! * in process, the same lines: `wire.decode`, `service.pool`
//!   (`decide_batch_into`), `wire.encode`; `service.local`
//!   (`decide_batch_local`); and the service's steps one request at a
//!   time (`cache.lookup`, `request.build`, `engine.match`,
//!   `cache.insert`) on the benchmark's own cache and engine;
//! * compile, delta codec, reload and router hop (see
//!   [`crate::fleet::layer_metrics`]).

use crate::closed::{self, ConnRun, LineRec};
use crate::fixture;
use crate::stats::{median, ratio};
use crate::{fleet, Ctx, Outcome};
use abp::{Engine, FilterList, Request, RequestOutcome};
use abpd::cache::{request_key_hash, DecisionCache, StoredKey};
use abpd::metrics::ReactorMetrics;
use abpd::protocol::{DecisionRequest, ReloadList, ServerMessage};
use abpd::wire::{self, ClientMessageRef};
use abpd::{Client, Server, ServerConfig, Service, ServiceConfig};
use std::collections::HashMap;
use std::io::Write;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Parent of a root span.
pub const ROOT: u32 = u32::MAX;
/// Request ids of served-load lines start here; replayed lines are
/// numbered from 0.
const LOAD_IDS: u32 = 1 << 24;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the trace's epoch.
    pub start: u64,
    pub end: u64,
    pub parent: u32,
    pub req: u32,
}

/// The in-memory span store of one traced run.
pub struct Spans {
    pub epoch: Instant,
    pub spans: Vec<Span>,
    load_lines: u32,
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            epoch: Instant::now(),
            spans: Vec::new(),
            load_lines: 0,
        }
    }

    /// A fresh request id for one served-load line.
    pub fn load_id(&mut self) -> u32 {
        self.load_lines += 1;
        LOAD_IDS + self.load_lines
    }

    pub fn now(&self) -> u64 {
        closed::ns_since(self.epoch)
    }

    pub fn push(&mut self, name: &'static str, start: u64, end: u64, parent: u32, req: u32) -> u32 {
        self.spans.push(Span {
            name,
            start,
            end,
            parent,
            req,
        });
        (self.spans.len() - 1) as u32
    }

    /// Summed duration of the spans called `name`.
    pub fn total_ns(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end - s.start) as f64)
            .sum()
    }

    /// Self time per span name: duration minus the children's.
    pub fn self_ns(&self) -> HashMap<&'static str, f64> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != ROOT {
                covered[s.parent as usize] += s.end - s.start;
            }
        }
        let mut by_name = HashMap::new();
        for (s, c) in self.spans.iter().zip(covered) {
            *by_name.entry(s.name).or_insert(0.0) += (s.end - s.start) as f64 - c as f64;
        }
        by_name
    }

    /// Write the spans as JSON lines to `path`.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = if s.parent == ROOT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                w,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{}}}",
                s.name, s.start, s.end, s.req
            )?;
        }
        w.flush()
    }
}

/// Lines replayed through the layers (`pages` uses pages, not lines).
pub fn replay_lines(ctx: &Ctx) -> usize {
    if ctx.quick {
        4
    } else {
        100
    }
}

/// One replayed line: its requests and their reference answers.
pub type Line<'a> = (&'a [DecisionRequest], &'a [RequestOutcome]);

/// The first `count` lines of `batch` requests of a stream.
pub fn lines_of<'a>(
    stream: &'a [DecisionRequest],
    want: &'a [RequestOutcome],
    batch: usize,
    count: usize,
) -> Vec<Line<'a>> {
    stream
        .chunks(batch)
        .zip(want.chunks(batch))
        .take(count)
        .collect()
}

/// Served phase in the workload's shape: `measure(traced, length)`
/// runs one chunk and returns its decision rate. Untraced and traced
/// chunks alternate so drift on a shared host hits both alike.
pub fn overhead(
    ctx: &Ctx,
    out: &mut Outcome,
    mut measure: impl FnMut(bool, Duration) -> Result<f64, String>,
) -> Result<(), String> {
    const CHUNKS: u32 = 6;
    let chunk = Duration::from_secs_f64(ctx.seconds) / CHUNKS;
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    for i in 0..CHUNKS {
        let on = i % 2 == 1;
        let rate = measure(on, chunk)?;
        if on {
            traced.push(rate);
        } else {
            plain.push(rate);
        }
    }
    let (plain, traced) = (median(&mut plain), median(&mut traced));
    out.sheet
        .put("trace.untraced_decisions_per_s", plain, "1/s");
    out.sheet.put("trace.traced_decisions_per_s", traced, "1/s");
    out.sheet
        .put("trace.overhead_ratio", ratio(plain, traced), "ratio");
    Ok(())
}

/// Record the client-side spans of served lines.
pub fn push_load_spans(spans: &mut Spans, runs: &[ConnRun]) {
    for l in runs.iter().flat_map(|r| &r.lines) {
        let req = spans.load_id();
        let LineRec {
            send_ns,
            recv_ns,
            encode_ns,
            decode_ns,
            ..
        } = *l;
        let start = send_ns - encode_ns as u64;
        let end = recv_ns + decode_ns as u64;
        let p = spans.push("load.line", start, end, ROOT, req);
        spans.push("load.client.encode", start, send_ns, p, req);
        spans.push("load.server.rtt", send_ns, recv_ns, p, req);
        spans.push("load.client.decode", recv_ns, end, p, req);
    }
}

/// Closed-loop served phase: a warm-up, then alternating chunks;
/// `drive(shape, from, until)` serves one of them.
pub fn closed_overhead(
    ctx: &Ctx,
    out: &mut Outcome,
    spans: &mut Spans,
    shape: closed::Shape,
    mut drive: impl FnMut(closed::Shape, Instant, Instant) -> Vec<ConnRun>,
) -> Result<Vec<ConnRun>, String> {
    let now = Instant::now();
    let mut all = drive(shape, now, now + crate::single::warmup(ctx));
    overhead(ctx, out, |traced, length| {
        let from = Instant::now();
        let until = from + length;
        let shape = closed::Shape {
            trace: traced,
            ..shape
        };
        let runs = drive(shape, from, until);
        let rate = closed::window_stats(
            &runs,
            (from - spans.epoch).as_nanos() as u64,
            (until - spans.epoch).as_nanos() as u64,
        )
        .rate;
        if traced {
            push_load_spans(spans, &runs);
        }
        all.extend(runs);
        Ok(rate)
    })?;
    Ok(all)
}

fn parse_reply(raw: &[u8]) -> Option<Vec<RequestOutcome>> {
    match wire::parse_server_message(std::str::from_utf8(raw).ok()?).ok()? {
        ServerMessage::Batch(b) => Some(b.into_iter().map(|r| r.outcome).collect()),
        _ => None,
    }
}

/// Answers in `got` that differ from `want` (all of them when the
/// counts differ).
fn wrong<'a>(
    got: impl ExactSizeIterator<Item = &'a RequestOutcome>,
    want: &[RequestOutcome],
) -> u64 {
    if got.len() != want.len() {
        return want.len() as u64;
    }
    got.zip(want).filter(|(g, w)| g != w).count() as u64
}

/// The service's own evaluation steps for one request, replayed on the
/// benchmark's cache and engine with a span around each call.
fn replay_request(
    spans: &mut Spans,
    cache: &DecisionCache,
    engine: &Engine,
    r: &DecisionRequest,
    parent: u32,
    req: u32,
) -> RequestOutcome {
    let tenant = r.tenant.unwrap_or(u64::MAX);
    let sitekey = r.sitekey.as_deref();
    let a = spans.now();
    let hash = request_key_hash(&r.url, &r.document, r.resource_type, sitekey, tenant);
    let shard = cache.shard_of(hash);
    let hit = cache.get(
        shard,
        hash,
        0,
        &r.url,
        &r.document,
        r.resource_type,
        sitekey,
        tenant,
    );
    let b = spans.now();
    spans.push("cache.lookup", a, b, parent, req);
    if let Some(hit) = hit {
        return hit;
    }
    let c = spans.now();
    let built = Request::new(&r.url, &r.document, r.resource_type).expect("generated URLs parse");
    let built = match sitekey {
        Some(k) => built.with_sitekey(k),
        None => built,
    };
    let d = spans.now();
    spans.push("request.build", c, d, parent, req);
    let outcome = engine.match_request_masked(&built, tenant);
    let e = spans.now();
    spans.push("engine.match", d, e, parent, req);
    let key = StoredKey::new(&r.url, &r.document, r.resource_type, sitekey, tenant);
    cache.insert(shard, hash, key, 0, outcome.clone());
    let f = spans.now();
    spans.push("cache.insert", e, f, parent, req);
    outcome
}

/// Every traced phase after the served one; fills the per-layer
/// metrics into `out`. Servers here are fresh default ones on `lists`,
/// so the lockstep and in-process replays see the same cold cache.
pub fn layers(
    ctx: &Ctx,
    out: &mut Outcome,
    spans: &mut Spans,
    lists: &[ReloadList],
    lines: &[Line<'_>],
) -> Result<(), String> {
    let n: f64 = lines.iter().map(|l| l.0.len() as f64).sum();
    let mut failed = 0u64;

    // Served, lockstep: one line in flight on one connection.
    let server = Server::start_with_lists(lists.to_vec(), &ServerConfig::default())
        .map_err(|e| format!("start server: {e}"))?;
    let addr = server.local_addr().to_string();
    let mut client = Client::connect(&addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let mut texts = Vec::with_capacity(lines.len());
    let mut buf = Vec::new();
    for (i, (reqs, want)) in lines.iter().enumerate() {
        let i = i as u32;
        buf.clear();
        let t0 = spans.now();
        wire::write_decide_batch(reqs, &mut buf);
        let t1 = spans.now();
        client
            .send_raw(&buf)
            .map_err(|e| format!("lockstep send: {e}"))?;
        let raw = client
            .read_reply_raw()
            .map_err(|e| format!("lockstep read: {e}"))?;
        let t2 = spans.now();
        let got = parse_reply(raw);
        let t3 = spans.now();
        let p = spans.push("line", t0, t3, ROOT, i);
        spans.push("client.encode", t0, t1, p, i);
        spans.push("server.rtt", t1, t2, p, i);
        spans.push("client.decode", t2, t3, p, i);
        failed += got.map_or(want.len() as u64, |g| wrong(g.iter(), want));
        // The bare round trip of the smallest line: the transport floor.
        let t4 = spans.now();
        client.ping().map_err(|e| format!("lockstep ping: {e}"))?;
        spans.push("server.ping", t4, spans.now(), ROOT, i);
        texts.push(String::from_utf8(buf.clone()).expect("wire output is UTF-8"));
    }
    drop(client);
    server.shutdown();

    // In process, the pool path the blocking server takes.
    let config = ServiceConfig::default();
    let pool = Service::start_with_lists(lists.to_vec(), &config)?;
    let mut scratch = pool.scratch();
    let mut reply = Vec::new();
    for (i, text) in texts.iter().enumerate() {
        let i = i as u32;
        let t0 = spans.now();
        let Ok(ClientMessageRef::DecideBatch(reqs)) = wire::parse_client_message(text) else {
            return Err(format!("replay line {i} does not parse"));
        };
        let t1 = spans.now();
        pool.decide_batch_into(&reqs, &mut scratch)
            .map_err(|e| format!("decide_batch_into: {e}"))?;
        let t2 = spans.now();
        reply.clear();
        wire::write_batch_reply(scratch.responses(), &mut reply);
        let t3 = spans.now();
        let p = spans.push("replay.line", t0, t3, ROOT, i);
        spans.push("wire.decode", t0, t1, p, i);
        spans.push("service.pool", t1, t2, p, i);
        spans.push("wire.encode", t2, t3, p, i);
        failed += wrong(
            scratch.responses().iter().map(|r| &r.outcome),
            lines[i as usize].1,
        );
    }
    pool.shutdown();

    // In process, the inline path the event-mode reactors take.
    let svc = Service::start_with_lists(lists.to_vec(), &config)?;
    let mut local = svc.local_eval(
        0,
        config.cache_capacity,
        ServerConfig::default().inline_batch_max,
        Arc::new(ReactorMetrics::default()),
    );
    let mut scratch = svc.scratch();
    for (i, text) in texts.iter().enumerate() {
        let Ok(ClientMessageRef::DecideBatch(reqs)) = wire::parse_client_message(text) else {
            return Err(format!("replay line {i} does not parse"));
        };
        let t0 = spans.now();
        svc.decide_batch_local(&reqs, &mut scratch, &mut local)
            .map_err(|e| format!("decide_batch_local: {e}"))?;
        let t1 = spans.now();
        spans.push("service.local", t0, t1, ROOT, i as u32);
        failed += wrong(scratch.responses().iter().map(|r| &r.outcome), lines[i].1);
    }
    svc.shutdown();

    // The service's steps one at a time, on a fresh engine so its
    // prefilter counters cover exactly this replay.
    let engine = fixture::compile(lists);
    let cache = DecisionCache::new(config.shards, config.cache_capacity);
    for (i, (reqs, want)) in lines.iter().enumerate() {
        let i = i as u32;
        let t0 = spans.now();
        let p = spans.push("service.steps", t0, t0, ROOT, i);
        let got: Vec<RequestOutcome> = reqs
            .iter()
            .map(|r| replay_request(spans, &cache, &engine, r, p, i))
            .collect();
        spans.spans[p as usize].end = spans.now();
        failed += wrong(got.iter(), want);
    }
    let tail = engine.tail_stats();
    out.sheet.put(
        "engine.prefilter_checked",
        tail.prefilter_checked as f64,
        "count",
    );
    out.sheet.put(
        "engine.prefilter_reject_ratio",
        ratio(
            tail.prefilter_rejected as f64,
            tail.prefilter_checked as f64,
        ),
        "ratio",
    );

    // Compile alone: parsing is outside the timed call.
    let parsed: Vec<FilterList> = lists
        .iter()
        .map(|l| FilterList::parse(l.source, &l.content))
        .collect();
    let mut compile_ms = Vec::new();
    for _ in 0..3 {
        let t0 = spans.now();
        let e = Engine::from_lists(parsed.iter());
        let t1 = spans.now();
        std::hint::black_box(e);
        spans.push("engine.compile", t0, t1, ROOT, 0);
        compile_ms.push((t1 - t0) as f64 / 1e6);
    }
    out.sheet
        .put("engine.compile_ms", median(&mut compile_ms), "ms");

    out.attempted += 4 * n as u64;
    out.failed += failed;
    put_stage_split(out, spans, n);
    fleet::layer_metrics(ctx, out, spans, lines)
}

/// Per-request layer costs and the stage sum, from the spans. The
/// traced per-request cost is the lockstep `line` span; the stages are
/// the client and server codecs, the service's steps, its remainder
/// terms (`service.bookkeeping` = local − steps, `service.pool_handoff`
/// = pool − local) and the transport floor; the residual is the cost
/// minus their sum.
fn put_stage_split(out: &mut Outcome, spans: &Spans, n: f64) {
    let own = spans.self_ns();
    let per = |name: &str| own.get(name).copied().unwrap_or(0.0) / n;
    let total = |name: &str| spans.total_ns(name) / n;
    let lookup = total("cache.lookup");
    let build = total("request.build");
    let matching = total("engine.match");
    let insert = total("cache.insert");
    let local = total("service.local");
    let pool = per("service.pool");
    let (wire_decode, wire_encode) = (per("wire.decode"), per("wire.encode"));
    let (client_encode, client_decode) = (per("client.encode"), per("client.decode"));
    let bookkeeping = local - (lookup + build + matching + insert);
    let handoff = pool - local;
    // The remainder of the round trip once the server's codec and
    // service are taken out; the stage sum uses the measured bare Ping
    // round trip instead, so the residual shows what no traced layer
    // explains (per-byte socket and line handling, among others).
    let transport = per("server.rtt") - (wire_decode + pool + wire_encode);
    let ping = total("server.ping");
    let request = total("line");
    let stages = [
        ("client.encode_ns", client_encode),
        ("wire.decode_ns", wire_decode),
        ("cache.lookup_ns", lookup),
        ("request.build_ns", build),
        ("engine.match_ns", matching),
        ("cache.insert_ns", insert),
        ("service.bookkeeping_ns", bookkeeping),
        ("service.pool_handoff_ns", handoff),
        ("wire.encode_ns", wire_encode),
        ("server.ping_ns", ping),
        ("client.decode_ns", client_decode),
    ];
    let sum: f64 = stages.iter().map(|s| s.1).sum();
    for (name, v) in stages {
        out.sheet.put(name, v, "ns");
    }
    out.sheet.put("server.transport_ns", transport, "ns");
    out.sheet.put("service.local_ns", local, "ns");
    out.sheet.put("service.pool_ns", pool, "ns");
    out.sheet.put("trace.request_ns", request, "ns");
    out.sheet.put("trace.stage_sum_ns", sum, "ns");
    out.sheet
        .put("trace.stage_residual_ns", request - sum, "ns");
    let spans_per = spans.spans.len() as f64;
    out.sheet.put("trace.spans", spans_per, "count");
}

/// Write the spans out and note where they went.
pub fn finish(out: &mut Outcome, spans: &Spans, workload: &str) {
    let path = std::path::PathBuf::from(".bench_out").join(format!("trace-{workload}.jsonl"));
    match spans.write(&path) {
        Ok(()) => out
            .props
            .push(("trace_file", format!("\"{}\"", path.display()))),
        Err(e) => out
            .problems
            .push(format!("writing {}: {e}", path.display())),
    }
}
