//! Load generator for `branchlabd`: drives the sweep endpoint with
//! keep-alive client threads and writes `BENCH_serve.json` recording
//! throughput, latency percentiles, and how much of the load was
//! absorbed by coalescing and the result cache.
//!
//! By default it boots the server in-process on an ephemeral port (so
//! the benchmark is hermetic); `--url HOST:PORT` points it at an
//! already-running daemon instead — that is what the CI smoke uses,
//! together with `--probe`, which only checks `/healthz`, polls
//! `/readyz`, and fetches `/v1/benchmarks` + `/metrics` before
//! exiting.
//!
//! `serve_bench --help` lists the flags. Exit status: 0 on success, 2
//! on a usage error; a failed probe or a load run with request errors
//! panics (exit 101).
//!
//! The request mix cycles through `--distinct K` distinct sweep bodies
//! across `--benches`; with K smaller than the total request count the
//! later duplicates exercise the cache, and concurrent duplicates
//! exercise coalescing. Latency percentiles are exact (computed from
//! the full sorted sample set, not histogram buckets).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use branchlab::server::client::Client;
use branchlab::server::{Server, ServerConfig, ServerHandle};
use branchlab::telemetry::cli::{self, CliError, Flag};
use branchlab::telemetry::{json, JsonValue};
use branchlab::workloads::{benchmark, Benchmark, Scale};
use branchlab_bench::benches_flag;

struct Args {
    url: Option<String>,
    probe: bool,
    connections: usize,
    requests: usize,
    distinct: usize,
    benches: Vec<&'static Benchmark>,
    scale: Scale,
    seed: u64,
    workers: usize,
    out: std::path::PathBuf,
}

const FLAGS: &[Flag] = &[
    ("--url", "HOST:PORT"),
    ("--probe", ""),
    ("--connections", "N"),
    ("--requests", "N"),
    ("--distinct", "K"),
    ("--benches", "A,B,..."),
    ("--scale", Scale::NAMES),
    ("--seed", "N"),
    ("--workers", "N"),
    ("--out", "FILE"),
];

fn parse_args(args: &mut cli::Args) -> Result<Args, CliError> {
    let mut a = Args {
        url: None,
        probe: false,
        connections: 4,
        requests: 200,
        distinct: 12,
        benches: ["wc", "cmp", "grep"]
            .map(|n| benchmark(n).expect("ships with the suite"))
            .to_vec(),
        scale: Scale::Test,
        seed: 1989,
        workers: 2,
        out: "BENCH_serve.json".into(),
    };
    while let Some(flag) = args.next_flag()? {
        match flag {
            "--url" => a.url = Some(args.value()?),
            "--probe" => a.probe = true,
            "--connections" => a.connections = args.value()?,
            "--requests" => a.requests = args.value()?,
            "--distinct" => a.distinct = args.value::<usize>()?.max(1),
            "--benches" => a.benches = benches_flag(args)?,
            "--scale" => a.scale = args.value()?,
            "--seed" => a.seed = args.value()?,
            "--workers" => a.workers = args.value()?,
            "--out" => a.out = args.value()?,
            other => return Err(CliError::Unknown(other.into())),
        }
    }
    Ok(a)
}

/// The K distinct sweep bodies the load cycles through.
fn request_mix(args: &Args) -> Vec<String> {
    (0..args.distinct)
        .map(|i| {
            let bench = args.benches[i % args.benches.len()].name;
            let entries = 32 << (i % 4);
            format!(
                "{{\"bench\": \"{bench}\", \"predictors\": [\
                 {{\"kind\": \"cbtb\", \"entries\": {entries}}}, \
                 {{\"kind\": \"sbtb\", \"entries\": {entries}}}, \
                 {{\"kind\": \"btfn\"}}], \"ras\": [8]}}"
            )
        })
        .collect()
}

fn wait_ready(addr: &str) {
    let deadline = Instant::now() + std::time::Duration::from_secs(300);
    loop {
        if let Ok(mut c) = Client::connect(addr) {
            if c.get("/readyz").map(|r| r.status).ok() == Some(200) {
                return;
            }
        }
        assert!(
            Instant::now() < deadline,
            "server at {addr} never became ready"
        );
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
}

/// `--probe`: health + readiness + benchmark list + metrics, then out.
fn probe(addr: &str) {
    let mut client = Client::connect(addr).expect("connect");
    let health = client.get("/healthz").expect("healthz");
    assert_eq!(health.status, 200, "healthz: {}", health.text());
    wait_ready(addr);
    let benches = client.get("/v1/benchmarks").expect("benchmarks");
    assert_eq!(benches.status, 200);
    let v = json::parse(&benches.text()).expect("benchmarks JSON");
    let n = v
        .get("benchmarks")
        .and_then(|b| b.as_arr())
        .map_or(0, <[JsonValue]>::len);
    assert!(n > 0, "benchmark list is empty");
    let metrics = client.get("/metrics").expect("metrics");
    assert_eq!(metrics.status, 200);
    assert!(
        metrics.text().contains("server_requests"),
        "metrics exposition is missing server counters"
    );
    eprintln!("serve_bench: probe ok ({n} benchmarks listed)");
}

#[derive(Clone, Copy, Default)]
struct Tally {
    ok: usize,
    errors: usize,
    computed: usize,
    cached: usize,
    coalesced: usize,
}

fn percentile(sorted_us: &[u64], p: f64) -> u64 {
    if sorted_us.is_empty() {
        return 0;
    }
    let rank = ((sorted_us.len() as f64) * p).ceil() as usize;
    sorted_us[rank.clamp(1, sorted_us.len()) - 1]
}

fn scrape_counters(addr: &str) -> Vec<(String, f64)> {
    let Ok(mut client) = Client::connect(addr) else {
        return Vec::new();
    };
    let Ok(resp) = client.get("/metrics") else {
        return Vec::new();
    };
    resp.text()
        .lines()
        .filter(|l| l.starts_with("server_") && !l.contains('{'))
        .filter_map(|l| {
            let (name, value) = l.split_once(' ')?;
            Some((name.to_string(), value.parse().ok()?))
        })
        .collect()
}

fn main() {
    let args = cli::parse_env("serve_bench", FLAGS, parse_args);

    // Either target an external daemon or boot one in-process.
    let mut local: Option<ServerHandle> = None;
    let addr = match &args.url {
        Some(url) => url.clone(),
        None => {
            let mut config = ServerConfig {
                addr: "127.0.0.1:0".to_string(),
                workers: args.workers,
                warm_benches: args.benches.iter().map(|b| b.name.to_string()).collect(),
                ..ServerConfig::default()
            };
            config.experiment.scale = args.scale;
            config.experiment.seed = args.seed;
            let handle = Server::start(config).expect("start in-process server");
            let addr = handle.addr().to_string();
            local = Some(handle);
            addr
        }
    };

    if args.probe {
        probe(&addr);
        if let Some(mut handle) = local {
            handle.shutdown_and_join();
        }
        return;
    }

    wait_ready(&addr);
    let mix = Arc::new(request_mix(&args));
    let next = Arc::new(AtomicUsize::new(0));

    eprintln!(
        "serve_bench: {} requests over {} connections against {addr} ({} distinct bodies)",
        args.requests,
        args.connections,
        mix.len()
    );
    let t0 = Instant::now();
    let workers: Vec<_> = (0..args.connections.max(1))
        .map(|_| {
            let addr = addr.clone();
            let mix = Arc::clone(&mix);
            let next = Arc::clone(&next);
            let total = args.requests;
            std::thread::spawn(move || {
                let mut client = Client::connect(&addr).expect("connect");
                let mut tally = Tally::default();
                let mut latencies_us = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= total {
                        break;
                    }
                    let body = &mix[i % mix.len()];
                    let sent = Instant::now();
                    match client.post_json("/v1/sweep", body) {
                        Ok(resp) if resp.status == 200 => {
                            tally.ok += 1;
                            match resp.header("x-branchlab-source") {
                                Some("cache") => tally.cached += 1,
                                Some("coalesced") => tally.coalesced += 1,
                                _ => tally.computed += 1,
                            }
                        }
                        Ok(_) | Err(_) => tally.errors += 1,
                    }
                    latencies_us
                        .push(u64::try_from(sent.elapsed().as_micros()).unwrap_or(u64::MAX));
                }
                (tally, latencies_us)
            })
        })
        .collect();

    let mut tally = Tally::default();
    let mut latencies = Vec::new();
    for worker in workers {
        let (t, mut l) = worker.join().expect("worker thread");
        tally.ok += t.ok;
        tally.errors += t.errors;
        tally.computed += t.computed;
        tally.cached += t.cached;
        tally.coalesced += t.coalesced;
        latencies.append(&mut l);
    }
    let wall_us = u64::try_from(t0.elapsed().as_micros()).unwrap_or(u64::MAX);
    latencies.sort_unstable();

    let served = tally.ok.max(1) as f64;
    let counters = scrape_counters(&addr);
    let report = JsonValue::obj(vec![
        ("tool", "serve_bench".into()),
        ("scale", args.scale.name().into()),
        ("seed", args.seed.into()),
        ("connections", args.connections.into()),
        ("requests", args.requests.into()),
        ("distinct_bodies", mix.len().into()),
        (
            "benches",
            JsonValue::Arr(args.benches.iter().map(|b| b.name.into()).collect()),
        ),
        ("ok", tally.ok.into()),
        ("errors", tally.errors.into()),
        ("wall_us", wall_us.into()),
        (
            "throughput_rps",
            (tally.ok as f64 / (wall_us.max(1) as f64 / 1e6)).into(),
        ),
        (
            "latency_us",
            JsonValue::obj(vec![
                ("p50", percentile(&latencies, 0.50).into()),
                ("p90", percentile(&latencies, 0.90).into()),
                ("p99", percentile(&latencies, 0.99).into()),
                ("max", latencies.last().copied().unwrap_or(0).into()),
                (
                    "mean",
                    (latencies.iter().sum::<u64>() as f64 / latencies.len().max(1) as f64).into(),
                ),
            ]),
        ),
        (
            "sources",
            JsonValue::obj(vec![
                ("computed", tally.computed.into()),
                ("cache", tally.cached.into()),
                ("coalesced", tally.coalesced.into()),
            ]),
        ),
        ("coalescing_ratio", (tally.coalesced as f64 / served).into()),
        ("cache_hit_ratio", (tally.cached as f64 / served).into()),
        (
            "server_counters",
            JsonValue::Obj(
                counters
                    .into_iter()
                    .map(|(name, value)| (name, value.into()))
                    .collect(),
            ),
        ),
        (
            "available_parallelism",
            std::thread::available_parallelism()
                .map(usize::from)
                .unwrap_or(1)
                .into(),
        ),
    ]);
    std::fs::write(&args.out, report.to_json_pretty()).expect("write report");
    eprintln!(
        "serve_bench: {} ok / {} errors in {:.2}s → {}",
        tally.ok,
        tally.errors,
        wall_us as f64 / 1e6,
        args.out.display()
    );

    if let Some(mut handle) = local {
        handle.shutdown_and_join();
    }
    assert_eq!(tally.errors, 0, "load run saw request errors");
}
