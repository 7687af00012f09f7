//! Seeded inputs and the reference answers they are checked against.
//!
//! Everything here is a pure function of the workload seed: the filter
//! lists come from `corpus`, the traffic from `websim::traffic`. The
//! servers only ever see the request lines built from these streams.

use abp::{Engine, FilterList, ListSource, Request, RequestOutcome};
use abpd::protocol::{DecisionRequest, ReloadList};
use websim::traffic::{TenantPopulation, TrafficGen};

/// Users in the `tenant` workload's population.
pub const TENANT_USERS: u64 = 1_000_000;

/// The two subscriptions every server in the benchmark serves.
pub fn lists_of(easylist: &str, whitelist: &str) -> Vec<ReloadList> {
    vec![
        ReloadList {
            source: ListSource::EasyList,
            content: easylist.to_string(),
        },
        ReloadList {
            source: ListSource::AcceptableAds,
            content: whitelist.to_string(),
        },
    ]
}

/// The head lists for `seed`: generated EasyList plus the final
/// Acceptable Ads whitelist.
pub fn head_lists(seed: u64) -> Vec<ReloadList> {
    let corpus = corpus::Corpus::generate(seed);
    lists_of(&corpus.easylist.to_text(), &corpus.whitelist.to_text())
}

/// Compile lists exactly as the service does: parse each body under
/// its slot, then one engine in slot order (slot i owns tenant bit i).
pub fn compile(lists: &[ReloadList]) -> Engine {
    let parsed: Vec<FilterList> = lists
        .iter()
        .map(|l| FilterList::parse(l.source, &l.content))
        .collect();
    Engine::from_lists(parsed.iter())
}

/// The reference answer for one wire request.
pub fn outcome_of(engine: &Engine, req: &DecisionRequest) -> RequestOutcome {
    let built = Request::new(&req.url, &req.document, req.resource_type)
        .expect("generated traffic URLs parse");
    let built = match &req.sitekey {
        Some(k) => built.with_sitekey(k.clone()),
        None => built,
    };
    engine.match_request_masked(&built, req.tenant.unwrap_or(u64::MAX))
}

/// `f` over `items` on two threads, in order.
pub fn par_map<T: Sync, U: Send>(items: &[T], f: impl Fn(&T) -> U + Sync) -> Vec<U> {
    let half = items.len().div_ceil(2).max(1);
    let f = &f;
    std::thread::scope(|s| {
        let parts: Vec<_> = items
            .chunks(half)
            .map(|part| s.spawn(move || part.iter().map(f).collect::<Vec<U>>()))
            .collect();
        parts
            .into_iter()
            .flat_map(|h| h.join().expect("worker thread panicked"))
            .collect()
    })
}

/// Reference answers for a stream.
pub fn expected(engine: &Engine, reqs: &[DecisionRequest]) -> Vec<RequestOutcome> {
    par_map(reqs, |r| outcome_of(engine, r))
}

/// One connection's closed-loop request stream: `len` requests of
/// Alexa-stratified browsing traffic, optionally stamped with the mask
/// of a different user of a [`TenantPopulation`] each.
pub fn traffic(seed: u64, conn: usize, len: usize, tenants: bool) -> Vec<DecisionRequest> {
    let pop = TenantPopulation::new(seed, TENANT_USERS);
    TrafficGen::new(seed.wrapping_add(conn as u64))
        .samples()
        .take(len)
        .enumerate()
        .map(|(i, s)| {
            let mut req = abpd::request_of_sample(&s);
            if tenants {
                req.tenant = Some(pop.mask_for((conn * len + i) as u64));
            }
            req
        })
        .collect()
}

/// Share of requests whose cache key already appeared earlier in the
/// streams, taking the connections' streams in interleaved order.
pub fn repeat_share(streams: &[Vec<DecisionRequest>]) -> f64 {
    let mut seen = std::collections::HashSet::new();
    let (mut total, mut repeats) = (0usize, 0usize);
    let longest = streams.iter().map(Vec::len).max().unwrap_or(0);
    for i in 0..longest {
        for s in streams {
            if let Some(r) = s.get(i) {
                total += 1;
                let key = (
                    r.url.as_str(),
                    r.document.as_str(),
                    r.resource_type as u8,
                    r.tenant,
                );
                if !seen.insert(key) {
                    repeats += 1;
                }
            }
        }
    }
    crate::stats::ratio(repeats as f64, total as f64)
}

/// Distinct tenant masks in the streams (1 when no request carries one:
/// every request is then the union view).
pub fn distinct_tenants(streams: &[Vec<DecisionRequest>]) -> usize {
    let masks: std::collections::HashSet<Option<u64>> =
        streams.iter().flatten().map(|r| r.tenant).collect();
    masks.len()
}

/// SplitMix64: the benchmark's own seeded generator (arrival times).
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5eed_be7c_0ffe_e123)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in (0, 1].
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    /// Exponential inter-arrival gap for a Poisson process at `rate`/s.
    pub fn exp_gap_s(&mut self, rate: f64) -> f64 {
        -self.unit().ln() / rate
    }
}

/// Restart the peak-RSS count, so `peak_rss_mb` covers set-up and
/// serving rather than the one-off generation of the benchmark's own
/// inputs. Best effort: where the kernel refuses, the peak keeps
/// counting from process start.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set of this process (servers included: they run
/// in-process), from `/proc/self/status`.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU time, in ns, that this process's threads named `prefix*` have
/// run so far (from `/proc/self/task/*/schedstat`). The servers run
/// in-process and name every thread `abpd…`, so `thread_cpu_ns("abpd")`
/// is the servers' CPU time; time the host steals from the virtual CPU
/// is not in it. Threads that have already exited are not counted.
pub fn thread_cpu_ns(prefix: &str) -> u64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .flatten()
        .filter(|t| {
            std::fs::read_to_string(t.path().join("comm")).is_ok_and(|c| c.starts_with(prefix))
        })
        .filter_map(|t| std::fs::read_to_string(t.path().join("schedstat")).ok())
        .filter_map(|s| s.split_whitespace().next()?.parse::<u64>().ok())
        .sum()
}
