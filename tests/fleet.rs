//! Fleet integration: a real router in front of real shards over
//! localhost TCP. Covers router-vs-direct-engine equivalence, delta
//! reloads converging across the fleet, stale-delta base mismatch with
//! the full-reload fallback, and abrupt shard death with hedging plus
//! respawn via [`Proxy::update_backend`].

use abp::{Decision, Engine, FilterList, ListSource, Request, ResourceType};
use abpd::protocol::{ReloadDeltaList, ReloadList};
use abpd::{Client, DecisionRequest, ReloadDeltaOutcome, Server, ServerConfig, ServiceConfig};
use abpd_proxy::{Proxy, ProxyConfig};
use std::time::Duration;

const EASYLIST: &str = "||doubleclick.net^\n||adzerk.net^$third-party\n/banner/ads/*\n";
const WHITELIST_V1: &str = "@@||adzerk.net/reddit/$subdocument,domain=reddit.com\n";
const WHITELIST_V2: &str = "@@||adzerk.net/reddit/$subdocument,domain=reddit.com\n\
                            @@||doubleclick.net^$script,domain=ok.example\n";

fn lists(wl: &str) -> Vec<ReloadList> {
    vec![
        ReloadList {
            source: ListSource::EasyList,
            content: EASYLIST.to_string(),
        },
        ReloadList {
            source: ListSource::AcceptableAds,
            content: wl.to_string(),
        },
    ]
}

fn shard_config() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        max_line_bytes: 1024 * 1024,
        service: ServiceConfig {
            shards: 2,
            cache_capacity: 256,
            ..ServiceConfig::default()
        },
        ..ServerConfig::default()
    }
}

/// N shards serving `wl` plus a router in front of them. Shards sit in
/// `Option`s so tests can take one out and kill it.
fn start_fleet(n: usize, wl: &str) -> (Vec<Option<Server>>, Proxy) {
    start_fleet_cfg(n, wl, |_| {})
}

/// Like [`start_fleet`], but lets the test turn the router's knobs
/// (breaker threshold, hedge budget, probe cadence) before it starts.
fn start_fleet_cfg(
    n: usize,
    wl: &str,
    tweak: impl Fn(&mut ProxyConfig),
) -> (Vec<Option<Server>>, Proxy) {
    let shards: Vec<Option<Server>> = (0..n)
        .map(|_| Some(Server::start_with_lists(lists(wl), &shard_config()).expect("start shard")))
        .collect();
    let mut config = ProxyConfig {
        addr: "127.0.0.1:0".to_string(),
        backends: shards
            .iter()
            .map(|s| s.as_ref().unwrap().local_addr().to_string())
            .collect(),
        probe_interval: Duration::from_millis(50),
        reply_timeout: Duration::from_secs(5),
        ..ProxyConfig::default()
    };
    tweak(&mut config);
    let proxy = Proxy::start(&config).expect("start proxy");
    (shards, proxy)
}

/// Poll `cond` for up to five seconds; panic with `what` on timeout.
fn wait_until(mut cond: impl FnMut() -> bool, what: &str) {
    for _ in 0..200 {
        if cond() {
            return;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    panic!("timed out waiting for {what}");
}

/// `Shutdown` through the router fans out to every shard; joining
/// everything proves nothing wedges on teardown.
fn shutdown_fleet(mut shards: Vec<Option<Server>>, proxy: Proxy, mut client: Client) {
    client.shutdown_server().expect("shutdown fleet");
    drop(client);
    proxy.join();
    for s in shards.iter_mut() {
        if let Some(s) = s.take() {
            s.join();
        }
    }
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

/// A spread of requests whose routing keys land on every slot of a
/// small ring with overwhelming probability.
fn sample_requests() -> Vec<DecisionRequest> {
    let hosts = [
        "ad.doubleclick.net",
        "static.adzerk.net",
        "cdn.example.com",
        "img.example.org",
    ];
    let docs = [
        "example.com",
        "www.reddit.com",
        "news.example",
        "ok.example",
    ];
    let paths = [
        "x.js",
        "reddit/ads.html",
        "banner/ads/a.gif",
        "logo.png",
        "frame.html",
    ];
    let types = [
        ResourceType::Script,
        ResourceType::Subdocument,
        ResourceType::Image,
        ResourceType::Other,
    ];
    let mut reqs = Vec::new();
    for (i, h) in hosts.iter().enumerate() {
        for d in docs {
            for (j, p) in paths.iter().enumerate() {
                reqs.push(dr(
                    &format!("http://{h}/{p}"),
                    d,
                    types[(i + j) % types.len()],
                ));
            }
        }
    }
    reqs
}

#[test]
fn router_matches_direct_engine() {
    let (shards, proxy) = start_fleet(3, WHITELIST_V1);
    let mut client = Client::connect(proxy.local_addr()).expect("connect");
    client.ping().expect("ping");

    let engine = Engine::from_lists([
        &FilterList::parse(ListSource::EasyList, EASYLIST),
        &FilterList::parse(ListSource::AcceptableAds, WHITELIST_V1),
    ]);
    let reqs = sample_requests();

    // Singles route one key at a time.
    for req in &reqs {
        let resp = client.decide(req).expect("decide");
        let direct = engine
            .match_request(&Request::new(&req.url, &req.document, req.resource_type).unwrap());
        assert_eq!(resp.outcome, direct, "router diverges for {}", req.url);
    }

    // One batch scatters across shards and must merge back in order.
    let batch = client.decide_batch(&reqs).expect("batch");
    assert_eq!(batch.len(), reqs.len());
    for (req, resp) in reqs.iter().zip(&batch) {
        let direct = engine
            .match_request(&Request::new(&req.url, &req.document, req.resource_type).unwrap());
        assert_eq!(resp.outcome, direct, "batch diverges for {}", req.url);
    }

    // The ring spread the keys: every shard answered something.
    for (slot, b) in proxy.backend_report().iter().enumerate() {
        assert!(b.forwarded > 0, "shard {slot} answered nothing");
    }
    shutdown_fleet(shards, proxy, client);
}

#[test]
fn delta_reload_converges_and_flips_decisions() {
    let (shards, proxy) = start_fleet(3, WHITELIST_V1);
    let mut client = Client::connect(proxy.local_addr()).expect("connect");

    let probe = dr(
        "http://ad.doubleclick.net/x.js",
        "ok.example",
        ResourceType::Script,
    );
    assert_eq!(
        client.decide(&probe).expect("decide").outcome.decision,
        Decision::Block,
        "v1 must block the probe"
    );

    // Ship v1 -> v2 as a delta; the router fans it out to every shard.
    let update = [ReloadDeltaList {
        source: ListSource::AcceptableAds,
        delta: abpdelta::encode(WHITELIST_V1, WHITELIST_V2),
    }];
    match client.reload_delta(&update).expect("delta reload") {
        ReloadDeltaOutcome::Applied(report) => assert!(report.generation >= 1),
        ReloadDeltaOutcome::BaseMismatch(m) => panic!("unexpected base mismatch: {m:?}"),
    }

    // Aggregated health only reports a nonzero checksum when every
    // shard serves the same bodies — i.e. the fleet converged.
    let expected = abpd::serving_checksum(&lists(WHITELIST_V2));
    let health = client.health().expect("health");
    assert_ne!(expected, 0);
    assert_eq!(
        health.list_checksum, expected,
        "fleet diverged after delta reload"
    );

    // And the patched exception is live on whichever shard answers.
    assert_eq!(
        client
            .decide(&probe)
            .expect("decide after reload")
            .outcome
            .decision,
        Decision::AllowedByException,
        "v2 exception must be serving"
    );
    shutdown_fleet(shards, proxy, client);
}

#[test]
fn stale_delta_reports_base_mismatch_and_full_reload_resyncs() {
    let (shards, proxy) = start_fleet(2, WHITELIST_V2);
    let mut client = Client::connect(proxy.local_addr()).expect("connect");

    // Encoded against v1, but the fleet serves v2: must be refused
    // whole with the serving checksum, never half-applied.
    let stale = [ReloadDeltaList {
        source: ListSource::AcceptableAds,
        delta: abpdelta::encode(WHITELIST_V1, "@@||example.org^\n"),
    }];
    match client.reload_delta(&stale).expect("delta reload") {
        ReloadDeltaOutcome::BaseMismatch(m) => {
            assert_eq!(m.source, ListSource::AcceptableAds);
            assert_eq!(m.serving_check, abpdelta::strong_checksum(WHITELIST_V2));
        }
        ReloadDeltaOutcome::Applied(r) => panic!("stale delta applied: {r:?}"),
    }

    // Fleet state is untouched by the refused delta...
    let health = client.health().expect("health");
    assert_eq!(
        health.list_checksum,
        abpd::serving_checksum(&lists(WHITELIST_V2))
    );

    // ...and the documented fallback — one full reload — resyncs.
    client
        .reload(&lists(WHITELIST_V1))
        .expect("fallback reload");
    let health = client.health().expect("health");
    assert_eq!(
        health.list_checksum,
        abpd::serving_checksum(&lists(WHITELIST_V1))
    );
    shutdown_fleet(shards, proxy, client);
}

#[test]
fn killed_shard_hedges_and_respawned_shard_rejoins() {
    let (mut shards, proxy) = start_fleet(3, WHITELIST_V1);
    let mut client = Client::connect(proxy.local_addr()).expect("connect");
    let reqs = sample_requests();
    for req in &reqs {
        client.decide(req).expect("decide with full fleet");
    }

    // Abrupt death: the shard's sockets die mid-conversation, exactly
    // like a killed process. Every request must still be answered —
    // the router hedges slot 1's keys to their walk successors.
    shards[1].take().unwrap().kill();
    for req in &reqs {
        client.decide(req).expect("decide with a dead shard");
    }
    let report = proxy.backend_report();
    assert!(!report[1].healthy, "dead shard still marked healthy");
    assert!(
        report[1].hedged_away > 0,
        "no request was hedged off the dead shard"
    );

    // Respawn on a fresh port; the slot keeps its keyspace, so after
    // `update_backend` the ring sends its old keys straight back.
    let replacement =
        Server::start_with_lists(lists(WHITELIST_V1), &shard_config()).expect("respawn shard");
    let new_addr = replacement.local_addr().to_string();
    shards[1] = Some(replacement);
    proxy.update_backend(1, new_addr);
    let report = proxy.backend_report();
    assert!(report[1].healthy, "respawned shard not probed healthy");

    let before = report[1].forwarded;
    for req in &reqs {
        client.decide(req).expect("decide after respawn");
    }
    let report = proxy.backend_report();
    assert!(
        report[1].forwarded > before,
        "respawned shard gets no traffic"
    );

    // The respawn rejoined at the same serving state: aggregated
    // health converges on the common checksum again.
    let health = client.health().expect("health");
    assert_eq!(
        health.list_checksum,
        abpd::serving_checksum(&lists(WHITELIST_V1))
    );
    shutdown_fleet(shards, proxy, client);
}

#[test]
fn breaker_opens_on_dead_shard_and_recloses_on_recovery() {
    let (mut shards, proxy) = start_fleet(3, WHITELIST_V1);
    let mut client = Client::connect(proxy.local_addr()).expect("connect");
    let reqs = sample_requests();

    // The 50ms prober hammers the dead socket; five consecutive
    // failures trip the default breaker with zero client traffic.
    // Poll the transition *counter*, not the `breaker_open` flag —
    // the flag legitimately flickers false during half-open trials.
    shards[1].take().unwrap().kill();
    wait_until(
        || proxy.backend_report()[1].breaker_opens >= 1,
        "the dead shard's breaker to open",
    );

    // An open breaker is routed around for free: every request is
    // still answered, and none of them had to fail first.
    for req in &reqs {
        client.decide(req).expect("decide with breaker open");
    }
    let report = proxy.backend_report();
    assert!(!report[1].healthy, "dead shard still marked healthy");
    assert!(report[1].breaker_opens >= 1);

    // Respawn on a fresh port. `update_backend` probes synchronously,
    // and a single successful exchange fully recloses the breaker —
    // no cooldown to wait out.
    let replacement =
        Server::start_with_lists(lists(WHITELIST_V1), &shard_config()).expect("respawn shard");
    let new_addr = replacement.local_addr().to_string();
    shards[1] = Some(replacement);
    proxy.update_backend(1, new_addr);
    let report = proxy.backend_report();
    assert!(report[1].healthy, "respawned shard not probed healthy");
    assert!(
        !report[1].breaker_open,
        "breaker still open after a successful probe"
    );

    let before = report[1].forwarded;
    for req in &reqs {
        client.decide(req).expect("decide after breaker reclosed");
    }
    assert!(
        proxy.backend_report()[1].forwarded > before,
        "reclosed slot gets no traffic"
    );
    shutdown_fleet(shards, proxy, client);
}

#[test]
fn exhausted_hedge_budget_sheds_load_as_typed_overload() {
    let (mut shards, proxy) = start_fleet_cfg(2, WHITELIST_V1, |c| {
        // Freeze every adaptive layer: the prober never notices the
        // death, the breaker never opens, and the hedge budget is dry
        // from the start. Each failure must then surface as a typed
        // overload instead of fueling a retry storm.
        c.probe_interval = Duration::from_secs(3600);
        c.breaker_failure_threshold = 1_000_000;
        c.hedge_budget_per_sec = 0.0;
        c.hedge_budget_burst = 0.0;
    });
    let mut client = Client::connect(proxy.local_addr()).expect("connect");
    client.ping().expect("ping");

    shards[1].take().unwrap().kill();
    let (mut served, mut shed) = (0usize, 0usize);
    for req in &sample_requests() {
        match client.decide(req) {
            Ok(_) => served += 1,
            Err(e) => {
                assert!(
                    abpd::client::is_overloaded(&e),
                    "budget denial must be a typed overload, got: {e}"
                );
                shed += 1;
            }
        }
    }
    assert!(served > 0, "the live shard's keys must still be served");
    assert!(shed > 0, "the dead shard's keys must be shed");
    assert!(
        proxy.hedge_denied() > 0,
        "denied hedges must be accounted for"
    );

    // Shard 1 is gone and never respawned, so tear down by hand:
    // stop the router, then shut the survivor down directly.
    drop(client);
    proxy.shutdown();
    let mut direct =
        Client::connect(shards[0].as_ref().unwrap().local_addr()).expect("connect survivor");
    direct.shutdown_server().expect("shutdown survivor");
    drop(direct);
    shards[0].take().unwrap().join();
}

#[test]
fn stale_respawn_rejoins_via_delta_catch_up() {
    let (mut shards, proxy) = start_fleet(3, WHITELIST_V1);
    let mut client = Client::connect(proxy.local_addr()).expect("connect");

    // Teach the router the serving bodies: an idempotent full reload
    // of the state the fleet already serves.
    client.reload(&lists(WHITELIST_V1)).expect("prime reload");

    // Kill shard 1 and wait for the prober to notice so the next
    // reload legitimately skips it.
    shards[1].take().unwrap().kill();
    wait_until(
        || !proxy.backend_report()[1].healthy,
        "the prober to mark the dead shard",
    );

    // The fleet moves to v2 without the dead shard.
    client.reload(&lists(WHITELIST_V2)).expect("reload v2");

    // The respawn comes back serving *stale* v1 — exactly what a
    // snapshot-recovered shard looks like after missing a reload. The
    // synchronous probe in `update_backend` must spot the checksum
    // drift and catch it up with a delta, not a full-body reload.
    let replacement =
        Server::start_with_lists(lists(WHITELIST_V1), &shard_config()).expect("respawn shard");
    let new_addr = replacement.local_addr().to_string();
    shards[1] = Some(replacement);
    proxy.update_backend(1, new_addr);

    let v2 = abpd::serving_checksum(&lists(WHITELIST_V2));
    let report = proxy.backend_report();
    assert!(report[1].healthy, "respawned shard not probed healthy");
    assert!(
        report[1].rejoin_delta_bytes > 0,
        "catch-up must ship a delta"
    );
    assert_eq!(
        report[1].rejoin_full_bytes, 0,
        "catch-up fell back to a full reload although v1 is retained"
    );
    assert_eq!(
        report[1].last_checksum, v2,
        "shard did not land on the fleet's serving state"
    );

    // The shard really serves v2 now — ask it directly, not via the
    // router, so a hedge can't mask a stale answer.
    let mut direct =
        Client::connect(shards[1].as_ref().unwrap().local_addr()).expect("connect respawn");
    assert_eq!(
        direct
            .decide(&dr(
                "http://ad.doubleclick.net/x.js",
                "ok.example",
                ResourceType::Script,
            ))
            .expect("direct decide")
            .outcome
            .decision,
        Decision::AllowedByException,
        "respawned shard still serves stale v1"
    );
    drop(direct);

    // And aggregated health converges on v2 across the whole fleet.
    let health = client.health().expect("health");
    assert_eq!(health.list_checksum, v2, "fleet did not converge on v2");
    shutdown_fleet(shards, proxy, client);
}
