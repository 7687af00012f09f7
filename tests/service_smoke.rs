//! End-to-end smoke test: a real abpd server over localhost TCP,
//! driven through the client library with synthesized browsing
//! traffic, checked against direct engine evaluation.
//!
//! Every scenario runs twice — once against the blocking
//! thread-per-connection wire path and once against the event-driven
//! reactor path — asserting the two modes are observably equivalent
//! (on targets without epoll the event run exercises the fallback,
//! which *is* the blocking path).

use abp::{Engine, FilterList, ListSource, Request, ResourceType};
use abpd::{Client, DecisionRequest, Server, ServerConfig, ServerMode, ServiceConfig};

fn test_engine() -> Engine {
    let bl = FilterList::parse(
        ListSource::EasyList,
        "||doubleclick.net^\n||adzerk.net^$third-party\n/banner/ads/*\n",
    );
    let wl = FilterList::parse(
        ListSource::AcceptableAds,
        "@@||adzerk.net/reddit/$subdocument,domain=reddit.com\n",
    );
    Engine::from_lists([&bl, &wl])
}

fn start_server(mode: ServerMode) -> Server {
    let config = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        max_line_bytes: 1024 * 1024,
        mode,
        io_threads: 2,
        service: ServiceConfig {
            shards: 2,
            cache_capacity: 1024,
            ..ServiceConfig::default()
        },
        ..ServerConfig::default()
    };
    Server::start(test_engine(), &config).expect("bind server")
}

/// Whether `mode` actually gets the reactor path on this target.
fn is_event(mode: ServerMode) -> bool {
    mode == ServerMode::Event && abpd::poll::supported()
}

fn dr(url: &str, doc: &str, rt: ResourceType) -> DecisionRequest {
    DecisionRequest {
        url: url.into(),
        document: doc.into(),
        resource_type: rt,
        sitekey: None,
        tenant: None,
    }
}

fn single_decisions_over_tcp(mode: ServerMode) {
    let server = start_server(mode);
    let mut client = Client::connect(server.local_addr()).expect("connect");
    client.ping().expect("ping");

    let engine = test_engine();
    let cases = [
        dr(
            "http://ad.doubleclick.net/x.js",
            "example.com",
            ResourceType::Script,
        ),
        dr(
            "http://static.adzerk.net/reddit/ads.html",
            "www.reddit.com",
            ResourceType::Subdocument,
        ),
        dr(
            "http://example.com/logo.png",
            "example.com",
            ResourceType::Image,
        ),
    ];
    for case in &cases {
        let resp = client.decide(case).expect("decide");
        let direct = engine
            .match_request(&Request::new(&case.url, &case.document, case.resource_type).unwrap());
        assert_eq!(resp.outcome, direct);
        assert!(!resp.cached);
    }
    // Replays hit the cache with identical outcomes, in both modes.
    for case in &cases {
        let resp = client.decide(case).expect("decide again");
        assert!(resp.cached);
    }
    drop(client);
    server.shutdown();
}

#[test]
fn single_decisions_over_tcp_blocking() {
    single_decisions_over_tcp(ServerMode::Blocking);
}

#[test]
fn single_decisions_over_tcp_event() {
    single_decisions_over_tcp(ServerMode::Event);
}

fn batches_preserve_order_and_feed_stats(mode: ServerMode) {
    let server = start_server(mode);
    let mut client = Client::connect(server.local_addr()).expect("connect");

    let batch: Vec<DecisionRequest> = (0..40)
        .map(|i| {
            dr(
                &format!("http://host{i}.doubleclick.net/unit{i}.js"),
                "news.example",
                ResourceType::Script,
            )
        })
        .collect();
    let resps = client.decide_batch(&batch).expect("batch");
    assert_eq!(resps.len(), batch.len());
    let engine = test_engine();
    for (req, resp) in batch.iter().zip(&resps) {
        let direct = engine
            .match_request(&Request::new(&req.url, &req.document, req.resource_type).unwrap());
        assert_eq!(resp.outcome, direct, "order preserved for {}", req.url);
    }

    let resps2 = client.decide_batch(&batch).expect("batch again");
    assert!(resps2.iter().all(|r| r.cached));

    // Totals are identical in both modes; the event path just reports
    // its two reactor metric entries after the two blocking-mode slots.
    let stats = client.stats().expect("stats");
    assert_eq!(stats.requests, 2 * batch.len() as u64);
    assert_eq!(stats.cache_hits, batch.len() as u64);
    assert_eq!(stats.blocks, 2 * batch.len() as u64);
    let expected_shards = if is_event(mode) { 2 + 2 } else { 2 };
    assert_eq!(stats.shards.len(), expected_shards);
    assert_eq!(
        stats.requests,
        stats.shards.iter().map(|s| s.requests).sum::<u64>()
    );

    // A batch of more than a thousand requests is decided whole on the
    // reading thread, in order, with repeats inside the batch answered
    // from the cache.
    let big: Vec<DecisionRequest> = (0..1_200)
        .map(|i| {
            dr(
                &format!("http://host{}.adzerk.net/reddit/f{}.html", i % 8, i % 400),
                ["www.reddit.com", "news.example"][i % 2],
                ResourceType::Subdocument,
            )
        })
        .collect();
    let resps = client.decide_batch(&big).expect("big batch");
    assert_eq!(resps.len(), big.len());
    for (req, resp) in big.iter().zip(&resps) {
        let direct = engine
            .match_request(&Request::new(&req.url, &req.document, req.resource_type).unwrap());
        assert_eq!(resp.outcome, direct, "order preserved for {}", req.url);
    }
    // 400 distinct keys, each seen three times: two of three hit.
    assert_eq!(resps.iter().filter(|r| r.cached).count(), 800);
    let stats = client.stats().expect("stats after the big batch");
    assert_eq!(stats.requests, 2 * batch.len() as u64 + big.len() as u64);
    drop(client);
    server.shutdown();
}

#[test]
fn batches_preserve_order_and_feed_stats_blocking() {
    batches_preserve_order_and_feed_stats(ServerMode::Blocking);
}

#[test]
fn batches_preserve_order_and_feed_stats_event() {
    batches_preserve_order_and_feed_stats(ServerMode::Event);
}

fn malformed_lines_get_error_replies(mode: ServerMode) {
    use std::io::{BufRead, BufReader, Write};

    let server = start_server(mode);
    let stream = std::net::TcpStream::connect(server.local_addr()).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;

    writeln!(writer, "this is not json").unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(line.contains("Error"), "got: {line}");

    // The connection survives the error.
    writeln!(writer, "\"Ping\"").unwrap();
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert!(line.contains("Pong"), "got: {line}");
    drop((reader, writer));
    server.shutdown();
}

#[test]
fn malformed_lines_get_error_replies_blocking() {
    malformed_lines_get_error_replies(ServerMode::Blocking);
}

#[test]
fn malformed_lines_get_error_replies_event() {
    malformed_lines_get_error_replies(ServerMode::Event);
}

fn pipelined_decisions_match_lockstep(mode: ServerMode) {
    let server = start_server(mode);
    let engine = test_engine();
    let reqs: Vec<DecisionRequest> = (0..60)
        .map(|i| {
            dr(
                &format!("http://host{}.doubleclick.net/u{i}.js", i % 5),
                "news.example",
                ResourceType::Script,
            )
        })
        .collect();

    let mut lockstep = Client::connect(server.local_addr()).expect("connect");
    let expected: Vec<_> = reqs
        .iter()
        .map(|r| lockstep.decide(r).expect("lockstep decide"))
        .collect();

    let mut piped = Client::connect(server.local_addr()).expect("connect");
    let got = piped.decide_pipelined(&reqs, 16).expect("pipelined");
    assert_eq!(got.len(), expected.len());
    for ((req, e), g) in reqs.iter().zip(&expected).zip(&got) {
        assert_eq!(e.outcome, g.outcome, "order preserved for {}", req.url);
        let direct = engine
            .match_request(&Request::new(&req.url, &req.document, req.resource_type).unwrap());
        assert_eq!(g.outcome, direct);
    }

    let batched = piped
        .decide_batch_pipelined(&reqs, 7, 4)
        .expect("batch pipelined");
    assert_eq!(batched.len(), reqs.len());
    for (e, g) in expected.iter().zip(&batched) {
        assert_eq!(e.outcome, g.outcome);
    }
    drop((lockstep, piped));
    server.shutdown();
}

#[test]
fn pipelined_decisions_match_lockstep_blocking() {
    pipelined_decisions_match_lockstep(ServerMode::Blocking);
}

#[test]
fn pipelined_decisions_match_lockstep_event() {
    pipelined_decisions_match_lockstep(ServerMode::Event);
}

fn oversized_lines_get_bounded_error_and_resync(mode: ServerMode) {
    use std::io::{BufRead, BufReader, Write};

    let config = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        max_line_bytes: 256,
        mode,
        service: ServiceConfig {
            shards: 1,
            cache_capacity: 64,
            ..ServiceConfig::default()
        },
        ..ServerConfig::default()
    };
    let server = Server::start(test_engine(), &config).expect("bind server");
    let stream = std::net::TcpStream::connect(server.local_addr()).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;

    let huge = "x".repeat(5000);
    writeln!(writer, "{huge}").unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(line.contains("Error"), "got: {line}");
    assert!(line.contains("5000"), "error names the byte count: {line}");

    // The stream resynchronized at the newline; the connection lives.
    writeln!(writer, "\"Ping\"").unwrap();
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert!(line.contains("Pong"), "got: {line}");
    drop((reader, writer));
    server.shutdown();
}

#[test]
fn oversized_lines_get_bounded_error_and_resync_blocking() {
    oversized_lines_get_bounded_error_and_resync(ServerMode::Blocking);
}

#[test]
fn oversized_lines_get_bounded_error_and_resync_event() {
    oversized_lines_get_bounded_error_and_resync(ServerMode::Event);
}

fn shutdown_verb_stops_the_server(mode: ServerMode) {
    let server = start_server(mode);
    let addr = server.local_addr();
    let mut client = Client::connect(addr).expect("connect");
    client
        .decide(&dr(
            "http://ad.doubleclick.net/x.js",
            "example.com",
            ResourceType::Script,
        ))
        .expect("decide");
    client.shutdown_server().expect("shutdown verb");
    drop(client);
    server.join(); // returns only because the verb stopped the acceptor

    // New connections are refused (or at least never answered).
    match Client::connect(addr) {
        Err(_) => {}
        Ok(mut c) => assert!(c.ping().is_err(), "server should be gone"),
    }
}

#[test]
fn shutdown_verb_stops_the_server_blocking() {
    shutdown_verb_stops_the_server(ServerMode::Blocking);
}

#[test]
fn shutdown_verb_stops_the_server_event() {
    shutdown_verb_stops_the_server(ServerMode::Event);
}

fn synthesized_traffic_round_trips(mode: ServerMode) {
    let server = start_server(mode);
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let reqs: Vec<DecisionRequest> = websim::traffic::TrafficGen::new(2015)
        .samples()
        .take(300)
        .map(|s| abpd::request_of_sample(&s))
        .collect();
    let engine = test_engine();
    for chunk in reqs.chunks(50) {
        let resps = client.decide_batch(chunk).expect("traffic batch");
        for (req, resp) in chunk.iter().zip(&resps) {
            let direct = engine
                .match_request(&Request::new(&req.url, &req.document, req.resource_type).unwrap());
            assert_eq!(resp.outcome, direct);
        }
    }
    let stats = client.stats().expect("stats");
    assert_eq!(stats.requests, reqs.len() as u64);
    drop(client);
    server.shutdown();
}

#[test]
fn synthesized_traffic_round_trips_blocking() {
    synthesized_traffic_round_trips(ServerMode::Blocking);
}

#[test]
fn synthesized_traffic_round_trips_event() {
    synthesized_traffic_round_trips(ServerMode::Event);
}
