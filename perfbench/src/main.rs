//! perfbench — the served-path benchmark.
//!
//! ```text
//! perfbench --workload browse|tenant|pages|fleet_reload|all
//!           --seed N --seconds S --trace 0|1
//! perfbench --self-test
//! ```
//!
//! Each workload starts in-process servers through the public
//! `Server::start_with_lists` / `Proxy::start` (default configuration),
//! drives them over loopback from at most two client threads and two
//! connections, checks every answer against `Engine::match_request_masked`
//! on an engine compiled here from the same lists, and prints every
//! metric by name and unit. The last stdout line is one JSON object:
//! `correct`, `attempted`, `failed`, and the end-to-end metrics
//! (`--trace 0`) or the per-layer metrics of the traced run (`--trace 1`).

mod closed;
mod fixture;
mod fleet;
mod open;
mod single;
mod stats;
mod trace;

use stats::Sheet;
use std::process::ExitCode;

/// The benchmark's workloads, in the order `all` runs them.
const WORKLOADS: [&str; 4] = ["browse", "tenant", "pages", "fleet_reload"];

/// Metrics the untraced run reports for every workload. Wall-clock
/// rates and latencies are printed too but not gated: on a host whose
/// virtual CPUs are preempted they swing between runs by more than any
/// useful bound, while CPU time per decision does not.
const END_TO_END: [(&str, &str); 3] = [
    ("server_cpu_us_per_decision", "us"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// Metrics the traced run reports for every workload.
const PER_LAYER: [(&str, &str); 27] = [
    ("wire.decode_ns", "ns"),
    ("wire.encode_ns", "ns"),
    ("request.build_ns", "ns"),
    ("cache.lookup_ns", "ns"),
    ("cache.insert_ns", "ns"),
    ("cache.hit_ratio", "ratio"),
    ("engine.match_ns", "ns"),
    ("engine.compile_ms", "ms"),
    ("engine.prefilter_reject_ratio", "ratio"),
    ("service.local_ns", "ns"),
    ("service.pool_ns", "ns"),
    ("service.pool_handoff_ns", "ns"),
    ("service.bookkeeping_ns", "ns"),
    ("service.reload_delta_ms", "ms"),
    ("server.transport_ns", "ns"),
    ("client.encode_ns", "ns"),
    ("client.decode_ns", "ns"),
    ("delta.encode_ms", "ms"),
    ("delta.apply_ms", "ms"),
    ("delta.ratio", "ratio"),
    ("proxy.hop_us", "us"),
    ("proxy.reload_fanout_ms", "ms"),
    ("proxy.hedged", "count"),
    ("proxy.shard_balance", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.request_ns", "ns"),
    ("trace.stage_residual_ns", "ns"),
];

/// One run's settings.
#[derive(Debug, Clone, Copy)]
pub struct Ctx {
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    pub trace: bool,
    /// Tiny inputs for the self-test.
    pub quick: bool,
}

/// What one workload run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    pub sheet: Sheet,
    /// The workload-property report: input shape and measured shares.
    pub props: Vec<(&'static str, String)>,
    pub attempted: u64,
    pub failed: u64,
    /// Failures that are not per-decision (fleet divergence, ...).
    pub problems: Vec<String>,
}

fn run(workload: &str, ctx: &Ctx) -> Result<Outcome, String> {
    match workload {
        "browse" => single::closed_loop(ctx, false),
        "tenant" => single::closed_loop(ctx, true),
        "pages" => open::pages(ctx),
        "fleet_reload" => fleet::fleet_reload(ctx),
        other => Err(format!("unknown workload {other:?}")),
    }
}

/// The declared metric set of a run mode.
fn declared(trace: bool) -> &'static [(&'static str, &'static str)] {
    if trace {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Print the full report of one run and return its result line.
fn report(workload: &str, ctx: &Ctx, out: &Outcome) -> Result<String, String> {
    for m in &out.sheet.metrics {
        println!(
            "perfbench: {workload} {} = {} {}",
            m.name,
            json_num(m.value),
            m.unit
        );
    }
    let props: Vec<String> = out
        .props
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    println!("perfbench: {workload} properties {{{}}}", props.join(", "));
    println!(
        "perfbench: {workload} error_share = {} ratio",
        stats::ratio(out.failed as f64, out.attempted as f64)
    );
    for p in &out.problems {
        println!("perfbench: {workload} PROBLEM {p}");
    }
    let mut fields = Vec::new();
    for (name, unit) in declared(ctx.trace) {
        let m = out
            .sheet
            .get(name)
            .ok_or_else(|| format!("{workload}: metric {name} was not measured"))?;
        if m.unit != *unit || !m.value.is_finite() {
            return Err(format!(
                "{workload}: metric {name} is {} {}",
                m.value, m.unit
            ));
        }
        fields.push(format!(
            "{}: {{\"value\": {}, \"unit\": {}}}",
            json_str(name),
            json_num(m.value),
            json_str(unit)
        ));
    }
    let correct = out.failed == 0 && out.problems.is_empty() && out.attempted > 0;
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        fields.join(", ")
    ))
}

/// Run every workload at a tiny size in both modes and check that each
/// declared metric is present with its unit and that nothing failed.
fn self_test() -> Result<(), String> {
    for workload in WORKLOADS {
        for trace in [false, true] {
            let ctx = Ctx {
                seed: 7,
                seconds: 1.0,
                trace,
                quick: true,
            };
            let out = run(workload, &ctx)?;
            report(workload, &ctx, &out)?;
            if out.failed > 0 || !out.problems.is_empty() || out.attempted == 0 {
                return Err(format!(
                    "{workload} (trace {trace}): {} of {} failed; {:?}",
                    out.failed, out.attempted, out.problems
                ));
            }
            eprintln!("perfbench: self-test {workload} trace={} ok", trace as u8);
        }
    }
    Ok(())
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    let i = args.iter().position(|a| a == name)?;
    args.get(i + 1).map(String::as_str)
}

fn parse_args(args: &[String]) -> Result<(String, Ctx), String> {
    let workload = flag(args, "--workload").ok_or("--workload is required")?;
    let num = |name: &str, default: &str| -> Result<f64, String> {
        flag(args, name)
            .unwrap_or(default)
            .parse::<f64>()
            .map_err(|e| format!("{name}: {e}"))
    };
    let seed = flag(args, "--seed")
        .unwrap_or("1")
        .parse::<u64>()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds = num("--seconds", "10")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} is out of range"));
    }
    let trace = match flag(args, "--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    if workload != "all" && !WORKLOADS.contains(&workload) {
        return Err(format!("unknown workload {workload:?}"));
    }
    Ok((
        workload.to_string(),
        Ctx {
            seed,
            seconds,
            trace,
            quick: false,
        },
    ))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--self-test") {
        return match self_test() {
            Ok(()) => {
                println!("perfbench: self-test passed");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench: self-test FAILED: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let (workload, ctx) = match parse_args(&args) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let list: Vec<&str> = if workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![workload.as_str()]
    };
    let mut lines = Vec::new();
    for w in list {
        let line = run(w, &ctx).and_then(|out| report(w, &ctx, &out));
        match line {
            Ok(l) => lines.push(l),
            Err(e) => {
                eprintln!("perfbench: {w}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    for l in lines {
        println!("{l}");
    }
    ExitCode::SUCCESS
}
