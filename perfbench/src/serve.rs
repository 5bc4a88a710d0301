//! `serve`: an in-process `branchlabd` over all fourteen benchmarks at
//! test scale. The only workload for the server layers.
//!
//! The measured run saturates the daemon. Two client connections send
//! back-to-back: each sends its next request as soon as its previous one
//! has answered, so the daemon never idles and never holds more than two
//! requests, and no backlog can build. The capacity figure is the number
//! of requests answered `200` within [`LIMIT_MS`] per second (a failed,
//! shed or slower request does not count), the median over [`SLICES`]
//! equal slices of the run.
//!
//! The traced run drives the same mix open-loop at [`REFERENCE_RPS`]
//! instead. Each request is due at a fixed offset and is timed from that
//! due time, so a stall is charged to every request it delays; the
//! generator also reports how late it sent.
//!
//! The mix (shares are assumptions, not measured traffic; the measured
//! shares are reported):
//!
//! * hot: a fixed set of repeated bodies, which the LRU answers;
//! * fresh: seeded, never-repeated bodies with 1–6 sbtb/cbtb/mlbtb/gshare
//!   points, which compute;
//! * burst: two identical fresh bodies drawn together, which coalesce, or
//!   hit the cache when one answers before the other is sent.
//!
//! Every response is byte-compared with `evaluate_direct` for its body.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use branchlab::experiments::trace_replay::clear_cache;
use branchlab::experiments::ExperimentConfig;
use branchlab::server::api::SweepRequest;
use branchlab::server::client::Client;
use branchlab::server::{evaluate_direct, Server, ServerConfig, ServerHandle};
use branchlab::telemetry::{json, JsonValue, Rng, SpanLink, TraceContext, TraceId};
use branchlab::workloads::{all_benchmarks, Scale};

use crate::ledger::{self, LayerSet};
use crate::report::{check_digest, fnv1a, median, percentile, secs, Outcome, RssSampler};
use crate::{counters, spans, Ctx};

/// Daemon boots per set-up measurement.
const SETUP_REPS: usize = 5;
/// Repeated bodies in the hot set.
const HOT_BODIES: usize = 16;
/// Planned request shares: hot, then fresh; the rest are bursts.
const SHARE_HOT: f64 = 0.25;
const SHARE_FRESH: f64 = 0.6;
/// The latency limit, in ms.
const LIMIT_MS: f64 = 50.0;
/// Slices of the saturated run. Each slice's responses are checked and
/// dropped before the next slice starts.
const SLICES: usize = 10;
/// An open-loop generator this far behind schedule abandons its run.
const ABANDON_S: f64 = 1.0;
/// The traced run's open-loop offered rate, requests/s.
const REFERENCE_RPS: f64 = 100.0;

/// Where a response came from (`X-Branchlab-Source`).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum Source {
    Computed,
    Cache,
    Coalesced,
    None,
}

#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum Class {
    Hot,
    Fresh,
    Burst,
}

/// One scheduled request. `id` names the body: equal ids, equal bodies.
#[derive(Clone, Debug)]
struct Planned {
    due_s: f64,
    id: usize,
    body: Arc<str>,
    class: Class,
}

/// One sent request's outcome.
struct Sent {
    late_s: f64,
    latency_s: f64,
    status: u16,
    source: Source,
    response: Vec<u8>,
    trace_id: Option<String>,
}

/// The seeded request-body generator.
struct Mix {
    rng: Rng,
    benches: Vec<&'static str>,
    /// Digests of every body drawn so far, so fresh bodies never repeat.
    seen: HashSet<u64>,
    next_id: usize,
    hot: Vec<(usize, Arc<str>)>,
}

fn pow2(rng: &mut Rng, lo: u32, hi: u32) -> u32 {
    1 << rng.gen_range(lo..=hi)
}

fn random_spec(rng: &mut Rng) -> String {
    match rng.gen_range(0..4u32) {
        0 => {
            let entries = pow2(rng, 4, 11);
            let ways = if rng.gen_bool(0.5) {
                entries
            } else {
                pow2(rng, 0, 2)
            };
            format!(r#"{{"kind":"sbtb","entries":{entries},"ways":{ways}}}"#)
        }
        1 => {
            let entries = pow2(rng, 4, 11);
            let ways = if rng.gen_bool(0.5) {
                entries
            } else {
                pow2(rng, 0, 2)
            };
            let bits = rng.gen_range(1..=3u32);
            let threshold = rng.gen_range(1..(1u32 << bits));
            format!(
                r#"{{"kind":"cbtb","entries":{entries},"ways":{ways},"counter_bits":{bits},"threshold":{threshold}}}"#
            )
        }
        2 => {
            let policy = if rng.gen_bool(0.5) { "l1" } else { "staged" };
            format!(
                r#"{{"kind":"mlbtb","l1_entries":{},"l1_ways":{},"l2_entries":{},"l2_ways":{},"policy":"{policy}"}}"#,
                pow2(rng, 4, 7),
                pow2(rng, 0, 2),
                pow2(rng, 9, 11),
                pow2(rng, 1, 3)
            )
        }
        _ => format!(
            r#"{{"kind":"gshare","table_bits":{},"history_bits":{}}}"#,
            rng.gen_range(8..=14u32),
            rng.gen_range(2..=8u32)
        ),
    }
}

impl Mix {
    fn new(seed: u64, benches: Vec<&'static str>) -> Self {
        let mut mix = Mix {
            rng: Rng::seed_from_u64(seed ^ 0x5e77_e0ad),
            benches,
            seen: HashSet::new(),
            next_id: 0,
            hot: Vec::new(),
        };
        mix.hot = (0..HOT_BODIES).map(|_| mix.fresh()).collect();
        mix
    }

    /// A body never drawn before, with its id.
    fn fresh(&mut self) -> (usize, Arc<str>) {
        loop {
            let bench = self.benches[self.rng.gen_range(0..self.benches.len())];
            let specs: Vec<String> = (0..self.rng.gen_range(1..=6usize))
                .map(|_| random_spec(&mut self.rng))
                .collect();
            let body = format!(
                r#"{{"bench":"{bench}","predictors":[{}]}}"#,
                specs.join(",")
            );
            if self.seen.insert(fnv1a(body.as_bytes())) {
                self.next_id += 1;
                return (self.next_id - 1, body.into());
            }
        }
    }

    /// Whether body `id` belongs to the hot set (drawn first, by `new`).
    fn is_hot(&self, id: usize) -> bool {
        id < self.hot.len()
    }

    /// One draw, due at `due_s`: a hot or a fresh request, or a burst
    /// pair.
    fn draw(&mut self, due_s: f64) -> Vec<Planned> {
        let draw = self.rng.gen_range(0..1_000_000u32) as f64 / 1e6;
        let (class, (id, body)) = if draw < SHARE_HOT {
            let hot = self.hot[self.rng.gen_range(0..self.hot.len())].clone();
            (Class::Hot, hot)
        } else if draw < SHARE_HOT + SHARE_FRESH {
            (Class::Fresh, self.fresh())
        } else {
            (Class::Burst, self.fresh())
        };
        let planned = Planned {
            due_s,
            id,
            body,
            class,
        };
        if class == Class::Burst {
            vec![planned.clone(), planned]
        } else {
            vec![planned]
        }
    }

    /// `rate × seconds` requests due at uniform spacing.
    fn schedule(&mut self, rate: f64, seconds: f64) -> Vec<Planned> {
        let n = (rate * seconds).round().max(1.0) as usize;
        let mut plan = Vec::with_capacity(n + 1);
        while plan.len() < n {
            let due_s = plan.len() as f64 / rate;
            plan.extend(self.draw(due_s));
        }
        plan
    }
}

fn connect(addr: &str) -> Result<Client, String> {
    Client::connect(addr).map_err(|e| format!("connect: {e}"))
}

/// POST `body` to `/v1/sweep`, pinning a fresh trace id when `pin`, and
/// time the answer from `from`. A request whose connection broke is
/// recorded with status 0, and `client` is replaced by a new connection.
fn post(
    client: &mut Client,
    addr: &str,
    body: &str,
    pin: bool,
    from: Instant,
    late_s: f64,
) -> Result<Sent, String> {
    let trace_id = pin.then(|| TraceId::fresh().to_string());
    let headers: Vec<(&str, &str)> = trace_id
        .iter()
        .map(|id| ("X-Branchlab-Trace-Id", id.as_str()))
        .collect();
    let resp = client.request_with("POST", "/v1/sweep", &headers, Some(body.as_bytes()));
    let latency_s = Instant::now().saturating_duration_since(from).as_secs_f64();
    let (status, source, response) = match resp {
        Ok(r) => {
            let source = match r.header("x-branchlab-source") {
                Some("computed") => Source::Computed,
                Some("cache") => Source::Cache,
                Some("coalesced") => Source::Coalesced,
                _ => Source::None,
            };
            (r.status, source, r.body)
        }
        Err(e) => {
            eprintln!("perfbench: serve: request failed: {e}");
            *client = connect(addr)?;
            (0, Source::None, Vec::new())
        }
    };
    Ok(Sent {
        late_s,
        latency_s,
        status,
        source,
        response,
        trace_id,
    })
}

/// What one sender thread returns: its requests' plan indices and
/// outcomes.
type Sender = std::thread::Result<Result<Vec<(usize, Sent)>, String>>;

/// Join sender threads and place each outcome at its plan index; `None`
/// marks a planned request that was never sent.
fn collect(planned: usize, senders: Vec<Sender>) -> Result<Vec<Option<Sent>>, String> {
    let mut out: Vec<Option<Sent>> = (0..planned).map(|_| None).collect();
    for sender in senders {
        for (i, sent) in sender.map_err(|_| "sender thread panicked".to_string())?? {
            out[i] = Some(sent);
        }
    }
    Ok(out)
}

/// Send `plan` open-loop over `conns` keep-alive connections, each
/// request timed from its due time. A generator that falls [`ABANDON_S`]
/// behind sends nothing more.
fn drive(
    addr: &str,
    plan: &[Planned],
    conns: usize,
    pin: bool,
) -> Result<Vec<Option<Sent>>, String> {
    let next = AtomicUsize::new(0);
    let abandoned = AtomicBool::new(false);
    let start = Instant::now() + Duration::from_millis(100);
    let send = || -> Result<Vec<(usize, Sent)>, String> {
        let mut client = connect(addr)?;
        let mut mine = Vec::new();
        while !abandoned.load(Ordering::Relaxed) {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(p) = plan.get(i) else { break };
            let due = start + Duration::from_secs_f64(p.due_s);
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            let late_s = Instant::now().saturating_duration_since(due).as_secs_f64();
            if late_s > ABANDON_S {
                abandoned.store(true, Ordering::Relaxed);
                break;
            }
            mine.push((i, post(&mut client, addr, &p.body, pin, due, late_s)?));
        }
        Ok(mine)
    };
    let senders = std::thread::scope(|s| {
        let handles: Vec<_> = (0..conns).map(|_| s.spawn(send)).collect();
        handles.into_iter().map(|h| h.join()).collect()
    });
    collect(plan.len(), senders)
}

/// Requests drawn for a saturated slice, and the next one to send.
struct Pending<'a> {
    mix: &'a mut Mix,
    plan: Vec<Planned>,
    next: usize,
}

/// A saturated slice: the plan, each request's outcome, and the seconds
/// until the last answer.
type Slice = (Vec<Planned>, Vec<Option<Sent>>, f64);

/// Send back-to-back over `conns` keep-alive connections for `seconds`,
/// each request timed from when it was sent. Bodies are drawn as they
/// are needed.
fn saturate(addr: &str, mix: &mut Mix, conns: usize, seconds: f64) -> Result<Slice, String> {
    let pending = Mutex::new(Pending {
        mix,
        plan: Vec::new(),
        next: 0,
    });
    let take = || {
        let mut p = pending.lock().expect("plan lock");
        if p.next == p.plan.len() {
            let drawn = p.mix.draw(0.0);
            p.plan.extend(drawn);
        }
        p.next += 1;
        (p.next - 1, Arc::clone(&p.plan[p.next - 1].body))
    };
    let started = Instant::now();
    let stop = started + Duration::from_secs_f64(seconds);
    let send = || -> Result<Vec<(usize, Sent)>, String> {
        let mut client = connect(addr)?;
        let mut mine = Vec::new();
        while Instant::now() < stop {
            let (i, body) = take();
            mine.push((
                i,
                post(&mut client, addr, &body, false, Instant::now(), 0.0)?,
            ));
        }
        Ok(mine)
    };
    let senders = std::thread::scope(|s| {
        let handles: Vec<_> = (0..conns).map(|_| s.spawn(send)).collect();
        handles.into_iter().map(|h| h.join()).collect()
    });
    let elapsed = secs(started);
    let plan = pending.into_inner().expect("plan lock").plan;
    let sent = collect(plan.len(), senders)?;
    Ok((plan, sent, elapsed))
}

/// Latency and lateness summary of an open-loop load.
#[derive(Clone, Debug)]
struct Load {
    requests: usize,
    p50_ms: f64,
    p99_ms: f64,
    late_p99_ms: f64,
}

/// Summarise an open-loop load. A request that was never sent, failed,
/// or was shed counts as infinitely slow.
fn summarize(sent: &[Option<Sent>]) -> Load {
    let latencies: Vec<f64> = sent
        .iter()
        .map(|s| match s {
            Some(s) if s.status == 200 => s.latency_s * 1e3,
            _ => f64::INFINITY,
        })
        .collect();
    let late: Vec<f64> = sent.iter().flatten().map(|s| s.late_s * 1e3).collect();
    Load {
        requests: latencies.len(),
        p50_ms: median(&latencies),
        p99_ms: percentile(&latencies, 0.99),
        late_p99_ms: percentile(&late, 0.99),
    }
}

/// Boot a daemon and wait for `/readyz`; returns the handle and the
/// boot-to-ready seconds.
fn boot(config: &ServerConfig) -> Result<(ServerHandle, f64), String> {
    clear_cache();
    let started = Instant::now();
    let mut handle = Server::start(config.clone()).map_err(|e| format!("start: {e}"))?;
    let addr = handle.addr().to_string();
    let ready = (|| {
        let mut client = connect(&addr)?;
        while started.elapsed() < Duration::from_secs(60) {
            if client
                .get("/readyz")
                .map_err(|e| format!("readyz: {e}"))?
                .status
                == 200
            {
                return Ok(secs(started));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Err("daemon never became ready".to_string())
    })();
    match ready {
        Ok(s) => Ok((handle, s)),
        Err(e) => {
            handle.shutdown_and_join();
            Err(e)
        }
    }
}

/// The daemon's configuration: defaults, with 2 workers and the given
/// programs warmed. A traced run keeps enough traces in the flight
/// recorder to look up every pinned request afterwards; the measured run
/// keeps the default, so the recorder's size stops growing early.
fn server_config(seed: u64, benches: &[&'static str], traced: bool) -> ServerConfig {
    let mut config = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: crate::threads(),
        warm_benches: benches.iter().map(ToString::to_string).collect(),
        ..ServerConfig::default()
    };
    if traced {
        config.flight_recorder_cap = 4096;
    }
    config.experiment.seed = seed;
    config
}

/// One body id with its `evaluate_direct` result.
type Evaluated = (usize, Result<Arc<str>, String>);

/// Expected response bodies by body id, from `evaluate_direct` on the
/// daemon's own base configuration. Bodies are evaluated on the
/// benchmark's threads while the daemon idles.
#[derive(Default)]
struct Expected {
    want: HashMap<usize, Arc<str>>,
}

impl Expected {
    /// Evaluate every body of `bodies` not evaluated yet.
    fn add(&mut self, bodies: &[(usize, Arc<str>)], base: &ExperimentConfig, out: &mut Outcome) {
        let mut todo: Vec<&(usize, Arc<str>)> = bodies
            .iter()
            .filter(|(id, _)| !self.want.contains_key(id))
            .collect();
        todo.sort_unstable_by_key(|(id, _)| *id);
        todo.dedup_by_key(|(id, _)| *id);
        let next = AtomicUsize::new(0);
        let done: Mutex<Vec<Evaluated>> = Mutex::new(Vec::new());
        std::thread::scope(|s| {
            for _ in 0..crate::threads() {
                s.spawn(|| {
                    while let Some((id, body)) = todo.get(next.fetch_add(1, Ordering::Relaxed)) {
                        let r = SweepRequest::parse(body.as_bytes(), base)
                            .and_then(|req| evaluate_direct(&req, base))
                            .map_err(|e| e.message());
                        done.lock().expect("expected-body lock").push((*id, r));
                    }
                });
            }
        });
        for (id, r) in done.into_inner().expect("expected-body lock") {
            if let Some(body) = out.try_op("evaluate_direct", r) {
                self.want.insert(id, body);
            }
        }
    }

    /// Evaluate the bodies of every request of `plan` that was sent.
    fn add_sent(
        &mut self,
        plan: &[Planned],
        sent: &[Option<Sent>],
        base: &ExperimentConfig,
        out: &mut Outcome,
    ) {
        let used: Vec<(usize, Arc<str>)> = plan
            .iter()
            .zip(sent)
            .filter(|(_, s)| s.is_some())
            .map(|(p, _)| (p.id, Arc::clone(&p.body)))
            .collect();
        self.add(&used, base, out);
    }
}

/// Double computes tolerated among `n` requests of a class: 5%, and at
/// least 2. The daemon looks up its cache and registers an in-flight
/// computation under two separate locks, so a duplicate that misses the
/// cache just before its twin's result lands, and registers just after
/// the twin retires, computes again. Hot bodies also recompute after the
/// LRU evicts them. With coalescing switched off, about half the burst
/// bodies of a saturated run compute twice, so the check still fails.
fn slack(n: usize) -> usize {
    (n / 20).max(2)
}

/// Where each class's `200` responses came from, over a whole run.
#[derive(Default)]
struct Provenance {
    /// Responses by source, indexed by `Source as usize`.
    by_source: [usize; 4],
    /// Sent requests by class, indexed by `Class as usize`.
    by_class: [usize; 3],
    /// Fresh responses that did not compute.
    fresh_uncomputed: usize,
    /// Computed responses per burst body.
    burst_computes: HashMap<usize, usize>,
    /// Hot bodies answered at least once, and hot responses computed.
    hot_touched: HashSet<usize>,
    hot_computed: usize,
}

impl Provenance {
    /// Byte-compare every response with its expected body (one op
    /// each), and tally where the `200` responses came from.
    fn verify(
        &mut self,
        plan: &[Planned],
        sent: &[Option<Sent>],
        expected: &Expected,
        out: &mut Outcome,
    ) {
        for (p, s) in plan.iter().zip(sent) {
            let Some(s) = s else { continue };
            self.by_class[p.class as usize] += 1;
            let ok = s.status == 200
                && expected
                    .want
                    .get(&p.id)
                    .is_some_and(|w| w.as_bytes() == s.response.as_slice());
            out.op(ok, || {
                format!(
                    "status {} or response bytes differ from evaluate_direct for {}",
                    s.status, p.body
                )
            });
            if s.status != 200 {
                continue;
            }
            self.by_source[s.source as usize] += 1;
            let computed = usize::from(s.source == Source::Computed);
            match p.class {
                Class::Fresh => self.fresh_uncomputed += 1 - computed,
                Class::Burst => *self.burst_computes.entry(p.id).or_default() += computed,
                Class::Hot => {
                    self.hot_touched.insert(p.id);
                    self.hot_computed += computed;
                }
            }
        }
    }

    /// Check the tallies against the planned mix (three ops), which
    /// catches a collapse of distinct bodies as in `serve_bench`, and
    /// report planned and measured shares.
    fn check(&self, out: &mut Outcome) {
        out.op(self.fresh_uncomputed == 0, || {
            format!(
                "{} never-repeated bodies were answered without computing",
                self.fresh_uncomputed
            )
        });
        let bursts = self.burst_computes.len();
        let uncomputed = self.burst_computes.values().filter(|&&c| c == 0).count();
        let twice = self.burst_computes.values().filter(|&&c| c > 1).count();
        out.op(uncomputed == 0 && twice <= slack(bursts), || {
            format!(
                "of {bursts} burst bodies, {uncomputed} never computed and {twice} computed \
                 more than once (at most {} may)",
                slack(bursts)
            )
        });
        let hot = self.by_class[Class::Hot as usize];
        let allowed = self.hot_touched.len() + slack(hot);
        out.op(self.hot_computed <= allowed, || {
            format!(
                "{} of {hot} hot requests computed; at most {allowed} may",
                self.hot_computed
            )
        });
        let total = self.by_source.iter().sum::<usize>().max(1) as f64;
        let share = |n: usize| format!("{:.3}", n as f64 / total);
        out.fact(
            "planned_share_hot/fresh/burst",
            self.by_class.map(share).join("/"),
        );
        out.fact(
            "measured_share_computed/cache/coalesced",
            self.by_source[..3]
                .iter()
                .map(|&n| share(n))
                .collect::<Vec<_>>()
                .join("/"),
        );
        out.fact("burst_bodies_computed_twice", twice);
    }
}

/// Run the workload.
///
/// # Errors
/// The daemon fails to start or to become ready.
pub fn run(ctx: &Ctx, out: &mut Outcome) -> Result<(), String> {
    let benches: Vec<&'static str> = all_benchmarks().map(|b| b.name).collect();
    let config = server_config(ctx.seed, &benches, ctx.trace);
    let base = config.experiment.clone();

    // Set-up: boot to ready. The first daemon serves the load, and a
    // measured run's later boots follow it, so the load starts on a heap
    // only one daemon has used. Only boot-to-ready is timed.
    let (mut handle, first_boot) = boot(&config)?;
    let addr = handle.addr().to_string();
    let mut mix = Mix::new(ctx.seed, benches.clone());

    // Committed digest: the hot set's responses, independent of timing.
    let mut expected = Expected::default();
    expected.add(&mix.hot, &base, out);
    let digest_text: String = mix
        .hot
        .iter()
        .filter_map(|(id, _)| expected.want.get(id))
        .map(|b| format!("{b}\n"))
        .collect();
    check_digest(out, "serve", ctx.seed, ctx.smoke, &digest_text);

    let result = if ctx.trace {
        traced(ctx, &addr, &mut mix, &base, &mut expected, out)
    } else {
        saturated(ctx, &addr, &mut mix, &base, &mut expected, out)
    };
    handle.shutdown_and_join();
    result?;
    let mut boots = vec![first_boot];
    if !ctx.trace {
        while boots.len() < SETUP_REPS {
            let (mut later, boot_s) = boot(&config)?;
            later.shutdown_and_join();
            boots.push(boot_s);
        }
        out.metric("setup_s", median(&boots), "s", boots.len());
    }
    out.ok_ops(boots.len() as u64);
    Ok(())
}

/// The measured run: [`SLICES`] saturated slices, each checked between
/// slices while the daemon idles.
fn saturated(
    ctx: &Ctx,
    addr: &str,
    mix: &mut Mix,
    base: &ExperimentConfig,
    expected: &mut Expected,
    out: &mut Outcome,
) -> Result<(), String> {
    let (mut provenance, mut goodput, mut latencies) = (Provenance::default(), vec![], vec![]);
    let mut rss = RssSampler::start();
    for _ in 0..SLICES {
        let (plan, sent, elapsed) =
            saturate(addr, mix, crate::threads(), ctx.seconds / SLICES as f64)?;
        rss.mark();
        let answered: Vec<f64> = sent
            .iter()
            .flatten()
            .map(|s| {
                if s.status == 200 {
                    s.latency_s * 1e3
                } else {
                    f64::INFINITY
                }
            })
            .collect();
        let good = answered.iter().filter(|&&ms| ms <= LIMIT_MS).count();
        goodput.push(good as f64 / elapsed);
        latencies.extend(answered);
        expected.add_sent(&plan, &sent, base, out);
        provenance.verify(&plan, &sent, expected, out);
        // Only the hot set's expected bodies are needed again.
        expected.want.retain(|&id, _| mix.is_hot(id));
    }
    rss.finish(out);
    provenance.check(out);
    out.throughput("serve_max_rps", median(&goodput), "1/s", goodput.len());
    out.metric("request_p50_ms", median(&latencies), "ms", latencies.len());
    out.metric(
        "request_p99_ms",
        percentile(&latencies, 0.99),
        "ms",
        latencies.len(),
    );
    Ok(())
}

/// The server-layer metrics of a pinned load: span durations from
/// `/debug/traces/<pinned-id>` and ratios from `/metrics`.
fn server_layers(
    addr: &str,
    sent: &[Option<Sent>],
    load: &Load,
    out: &mut Outcome,
) -> Result<(), String> {
    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let mut by_name: HashMap<String, Vec<f64>> = HashMap::new();
    for id in sent.iter().flatten().filter_map(|s| s.trace_id.as_deref()) {
        let resp = client
            .get(&format!("/debug/traces/{id}"))
            .map_err(|e| format!("debug trace: {e}"))?;
        let spans = json::parse(&resp.text())
            .ok()
            .filter(|_| resp.status == 200)
            .and_then(|v| {
                v.get("spans")
                    .and_then(JsonValue::as_arr)
                    .map(<[JsonValue]>::to_vec)
            });
        let Some(spans) = out.try_op(
            "pinned trace lookup",
            spans.ok_or(format!("trace {id} not retained")),
        ) else {
            continue;
        };
        for span in spans {
            if let (Some(name), Some(dur)) = (
                span.get("name").and_then(JsonValue::as_str),
                span.get("dur_us").and_then(JsonValue::as_int),
            ) {
                by_name
                    .entry(name.to_string())
                    .or_default()
                    .push(dur as f64);
            }
        }
    }
    let durs = |name: &str| by_name.get(name).cloned().unwrap_or_default();
    for (metric, span) in [
        ("server.parse_us", "parse"),
        ("server.cache_lookup_us", "cache_lookup"),
        ("server.render_us", "render"),
    ] {
        let d = durs(span);
        out.metric(metric, median(&d), "us", d.len());
    }
    let wait = durs("queue_wait");
    out.metric("server.queue_wait_us.p50", median(&wait), "us", wait.len());
    out.metric(
        "server.queue_wait_us.p99",
        percentile(&wait, 0.99),
        "us",
        wait.len(),
    );
    let compute: Vec<f64> = durs("compute").iter().map(|us| us / 1e3).collect();
    out.metric(
        "server.compute_ms.p50",
        median(&compute),
        "ms",
        compute.len(),
    );
    out.metric(
        "server.compute_ms.p99",
        percentile(&compute, 0.99),
        "ms",
        compute.len(),
    );

    let text = client
        .get("/metrics")
        .map_err(|e| format!("metrics: {e}"))?
        .text();
    let counter = |name: &str| {
        text.lines()
            .find_map(|l| {
                l.strip_prefix(name)?
                    .strip_prefix(' ')?
                    .trim()
                    .parse::<f64>()
                    .ok()
            })
            .unwrap_or(0.0)
    };
    let requests = counter("server_sweep_requests").max(1.0);
    out.metric(
        "server.cache_hit_ratio",
        counter("server_cache_hits") / requests,
        "ratio",
        requests as usize,
    );
    out.metric(
        "server.coalesce_ratio",
        counter("server_coalesce_hits") / requests,
        "ratio",
        requests as usize,
    );
    let shed = counter("server_queue_rejected") + counter("server_admission_rejected");
    out.metric(
        "server.shed_ratio",
        shed / requests,
        "ratio",
        requests as usize,
    );
    out.metric("serve.gen_late_ms", load.late_p99_ms, "ms", load.requests);
    Ok(())
}

/// The traced run: the open-loop load untraced, then again with every
/// request's trace id pinned (the overhead), the server layers from
/// those traces, then the ledger on the fourteen test-scale programs.
fn traced(
    ctx: &Ctx,
    addr: &str,
    mix: &mut Mix,
    base: &ExperimentConfig,
    expected: &mut Expected,
    out: &mut Outcome,
) -> Result<(), String> {
    let trace = TraceContext::new();
    trace.set_label("serve");
    let root = trace.root("perfbench.serve");
    let link = root.link();
    let seconds = ctx.seconds / 2.0;
    let (mut provenance, mut p50) = (Provenance::default(), [0.0; 2]);
    for (i, pin) in [false, true].into_iter().enumerate() {
        let plan = mix.schedule(REFERENCE_RPS, seconds);
        let sent = {
            let _s = spans::child(pin.then_some(&link), "server.load");
            drive(addr, &plan, crate::threads(), pin)?
        };
        let load = summarize(&sent);
        p50[i] = load.p50_ms;
        if pin {
            server_layers(addr, &sent, &load, out)?;
        } else {
            out.metric("serve.p50_ms", load.p50_ms, "ms", load.requests);
            out.metric("serve.p99_ms", load.p99_ms, "ms", load.requests);
        }
        expected.add_sent(&plan, &sent, base, out);
        provenance.verify(&plan, &sent, expected, out);
    }
    out.metric("trace.overhead_ms", p50[1] - p50[0], "ms", 2);
    provenance.check(out);

    let set = LayerSet::new(&mix.benches, Scale::Test, ctx.seed);
    ledger::front_end(&set, &link, out);
    ledger::trace_and_predict(&set, &link, out);
    let before = counters::read();
    let wall_us = ledger::sweep_probe(&set, crate::threads(), &link, out);
    ledger::experiments_metrics(
        &counters::read().since(&before),
        wall_us,
        crate::threads(),
        0,
        out,
    );
    drop(root);
    let finished = trace.finish();
    ledger::span_metrics(&finished, out);
    out.try_op(
        "chrome trace",
        spans::write_chrome(&ctx.out_file(".trace.json"), finished),
    );
    Ok(())
}

/// The server-layer metrics for workloads that do not serve: a short
/// pinned open-loop load against a small daemon (two programs at test
/// scale).
pub fn layer_probe(ctx: &Ctx, parent: &SpanLink, out: &mut Outcome) {
    let _span = parent.child("server.probe");
    let benches = vec!["wc", "cmp"];
    let config = server_config(ctx.seed, &benches, true);
    let (mut handle, _) = match boot(&config) {
        Ok(h) => h,
        Err(e) => {
            out.op(false, || format!("server probe: {e}"));
            return;
        }
    };
    let addr = handle.addr().to_string();
    let mut mix = Mix::new(ctx.seed, benches);
    let plan = mix.schedule(REFERENCE_RPS, 1.0f64.min(ctx.seconds));
    let probed = drive(&addr, &plan, crate::threads(), true).and_then(|sent| {
        let load = summarize(&sent);
        out.metric("serve.p50_ms", load.p50_ms, "ms", load.requests);
        out.metric("serve.p99_ms", load.p99_ms, "ms", load.requests);
        server_layers(&addr, &sent, &load, out)
    });
    out.try_op("server probe", probed);
    handle.shutdown_and_join();
}
