//! `serve-fresh` and `serve-aging`: open-loop offers over one loopback
//! TCP connection to a `wisedb-serve` server running the default
//! `OnlineConfig` (250 ms age quantum, AcceptAll).
//!
//! The generator is open loop on one connection: offer `i` is due at
//! `start + i / wall_rate`, whatever happened before. The connection is
//! lockstep, so an offer whose predecessor answers late is sent late, and
//! its latency is measured from when it was *due*: a stall is charged to
//! every offer it delays. The generator sleeps until shortly before each
//! due time and spins the rest, so its own lateness stays out of the
//! program's numbers; what remains shows in `loadgen.lag_p99_us`.

use std::time::{Duration, Instant};

use wisedb_bench::scaling::fingerprint;
use wisedb_core::{ArrivingQuery, GoalKind, PerformanceGoal, TenantId, WorkloadSpec};
use wisedb_runtime::{
    generate_stream, OfferOutcome, PoissonProcess, RuntimeConfig, TemplateMix, WorkloadService,
};
use wisedb_serve::{Client, ServeConfig, Server, ServerHandle};

use crate::profile::{at_three_levels, layer_metrics, Context};
use crate::report::{median, percentile, ratio, sorted, Outcome};
use crate::Seeds;

/// One serve workload's arrival shape.
pub struct Shape {
    /// Poisson arrival rate on the virtual clock the server schedules by.
    pub virtual_qps: f64,
    /// Offers sent per second of wall time.
    pub wall_qps: f64,
    /// Untimed offers sent first, back to back.
    pub warmup: usize,
    /// Replays per untraced run, each on a freshly set-up server with
    /// threads of its own.
    pub replays: usize,
}

/// Fresh arrivals: almost no batch ages, so an offer is framing, thread
/// hand-offs, admission, tree inference and cluster bookkeeping. The
/// warm-up fills the Shift-model cache, so in-path retrains after it are
/// rare (a handful per run). At 100 offers per second the fleet, which
/// grows by about one VM per offer, stays under 1 500 VMs per replay; at
/// 500 per second in one replay it reached 11 000 and the median offer
/// rose by half from the first seconds of a run to the last. How the host
/// places a server's threads beside the client's is drawn once per
/// server: one server's median offer read from 151 to 204 µs within a
/// run, so the offers are spread over eight servers.
pub const FRESH: Shape = Shape {
    virtual_qps: 32.0,
    wall_qps: 100.0,
    warmup: 1_000,
    replays: 8,
};

/// Sparse arrivals against minutes-long queries: batches queue behind
/// open VMs and age past the quantum, so a share of offers retrain a
/// model synchronously inside the round trip. No warm-up: from a fresh
/// server, about 35-40% of the first 400 offers retrain, a share that
/// keeps the median on the fast path and the 90th percentile on the
/// retrain. The 50 ms gap outlasts a retrain, so the tail measures the
/// decision, not a queue the generator built. One replay, so the share of
/// offers that retrain is that of one server's first minute.
pub const AGING: Shape = Shape {
    virtual_qps: 0.5,
    wall_qps: 20.0,
    warmup: 0,
    replays: 1,
};

/// Set-ups timed per untraced run besides the replays' own, spread over
/// the settle time; `setup_s` is the median of all of them. One set-up
/// varied from 19 to 44 ms within a run.
const SETUPS: usize = 36;

/// How long before a due time the generator stops sleeping and spins.
const SPIN: Duration = Duration::from_micros(300);

/// Idle time before anything is timed, in which the untraced run's set-ups
/// are spread. On the 2-vCPU VM this benchmark was tuned on, round trips
/// measured in the first seconds after a CPU-heavy process (another
/// workload, or the build) ran 40-70% slower for about 5 s.
const SETTLE: Duration = Duration::from_secs(5);

struct Live {
    handle: ServerHandle,
    client: Client,
}

impl Live {
    fn close(mut self) {
        let _ = self.client.shutdown();
        self.handle.join();
    }
}

/// Trains the base model and opens the service with every setting at its
/// default — `RuntimeConfig::default()`, so `OnlineConfig::default()`
/// (250 ms age quantum, AcceptAll, `ModelConfig::fast()` training with its
/// fixed seed) — then spawns the server and connects. The workload seed
/// drives the arrivals only, so set-up does the same work for every seed.
/// Returns the live server, the set-up seconds and the training seconds.
fn set_up(spec: &WorkloadSpec, goal: &PerformanceGoal) -> Result<(Live, f64, f64), String> {
    let started = Instant::now();
    let service = WorkloadService::train(spec.clone(), goal.clone(), RuntimeConfig::default())
        .map_err(|e| format!("base-model training failed: {e}"))?;
    let train_s = started.elapsed().as_secs_f64();
    let handle = Server::spawn(service, ServeConfig::default())
        .map_err(|e| format!("server spawn failed: {e}"))?;
    let client = Client::connect(handle.addr()).map_err(|e| format!("connect failed: {e}"))?;
    Ok((
        Live { handle, client },
        started.elapsed().as_secs_f64(),
        train_s,
    ))
}

/// The deterministic outputs of one replay: equal for every pass of a
/// seed, whatever the trace level.
#[derive(Debug, Default, PartialEq)]
struct Outputs {
    admitted: u64,
    shed: u64,
    completed: u64,
    violations: u64,
    vms_provisioned: u64,
    cost_cents: f64,
    completions: u64,
    /// (Reuse, Shift, augmented-view) model-cache sizes after the run:
    /// what in-path training left behind.
    model_caches: (usize, usize, usize),
}

#[derive(Default)]
struct Pass {
    /// Timed offers: due → reply (a failed offer counts as infinite).
    from_due_us: Vec<f64>,
    /// Timed offers: send → reply.
    service_us: Vec<f64>,
    /// Every offer: send → reply.
    rtt_us: Vec<f64>,
    /// Every offer: how late it was sent beyond both its due time and
    /// the previous reply.
    lag_us: Vec<f64>,
    attempted: u64,
    failed: u64,
    outputs: Outputs,
}

fn pace_until(due: Instant) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > SPIN {
            std::thread::sleep(left - SPIN);
        } else {
            std::hint::spin_loop();
        }
    }
}

fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Sends the stream on its open-loop schedule, then drains the service
/// and checks the answers against the server's books.
fn replay(live: Live, stream: &[ArrivingQuery], shape: &Shape, out: &mut Outcome) -> Pass {
    let Live { handle, mut client } = live;
    let mut pass = Pass::default();
    let gap = Duration::from_secs_f64(1.0 / shape.wall_qps);
    let mut start = Instant::now();
    let mut previous_reply = start;
    let mut first_error = None;
    for (i, q) in stream.iter().enumerate() {
        // Warm-up offers go back to back; the schedule starts after them.
        let due = match i.checked_sub(shape.warmup) {
            None => Instant::now(),
            Some(0) => {
                start = Instant::now() + gap;
                previous_reply = start;
                start
            }
            Some(k) => start + gap.mul_f64(k as f64),
        };
        pace_until(due);
        let sent = Instant::now();
        let answer = {
            let _span = wisedb_obs::span("bench.offer");
            client.offer(q.class, q.template, q.arrival)
        };
        let replied = Instant::now();
        pass.attempted += 1;
        pass.lag_us.push(micros(
            sent.saturating_duration_since(due.max(previous_reply)),
        ));
        pass.rtt_us.push(micros(replied - sent));
        previous_reply = replied;
        let ok = match answer {
            Ok(OfferOutcome::Admitted) => {
                pass.outputs.admitted += 1;
                true
            }
            Ok(OfferOutcome::Shed) => {
                pass.outputs.shed += 1;
                false
            }
            Err(err) => {
                first_error.get_or_insert_with(|| format!("offer {i}: {err}"));
                false
            }
        };
        if !ok {
            pass.failed += 1;
        }
        if i >= shape.warmup {
            pass.from_due_us.push(if ok {
                micros(replied - due)
            } else {
                f64::INFINITY
            });
            pass.service_us.push(micros(replied - sent));
        }
    }
    if let Some(err) = first_error {
        out.check(false, || format!("transport or remote error: {err}"));
    }

    match client.metrics() {
        Ok(books) => out.check(
            books.admitted == pass.outputs.admitted && books.rejected == pass.outputs.shed,
            || {
                format!(
                    "client saw {} admitted / {} shed, server booked {} / {}",
                    pass.outputs.admitted, pass.outputs.shed, books.admitted, books.rejected
                )
            },
        ),
        Err(err) => out.check(false, || format!("metrics request failed: {err}")),
    }
    if let Err(err) = client.shutdown() {
        out.check(false, || format!("shutdown request failed: {err}"));
    }
    let Some(mut service) = handle.join() else {
        out.check(false, || {
            "the scheduler thread did not return the service".to_string()
        });
        return pass;
    };
    {
        let _span = wisedb_obs::span("bench.drain");
        service.drain();
    }
    let books = service.snapshot();
    let o = &mut pass.outputs;
    o.completed = books.completed;
    o.violations = books.sla_violations;
    o.vms_provisioned = books.vms_provisioned;
    o.cost_cents = books.total_cost().as_cents();
    o.completions = fingerprint(service.completions());
    o.model_caches = service
        .scheduler(TenantId::DEFAULT)
        .map(|s| s.cache_sizes())
        .unwrap_or_default();
    out.check(
        books.completed == o.admitted && service.completions().len() as u64 == o.admitted,
        || {
            format!(
                "{} admitted but {} completed after drain",
                o.admitted, books.completed
            )
        },
    );
    pass
}

pub fn run(shape: &Shape, seeds: Seeds, seconds: f64, trace: bool) -> Outcome {
    let mut out = Outcome::default();
    let spec = wisedb_sim::catalog::tpch_like(10);
    let goal = PerformanceGoal::paper_default(GoalKind::MaxLatency, &spec)
        .expect("the catalog spec admits default goals");
    // The run measures for `seconds` either way: a traced run replays
    // three times, an untraced one `shape.replays` times.
    let replay_secs = seconds / if trace { 3 } else { shape.replays } as f64;
    let timed = ((shape.wall_qps * replay_secs).round() as usize).max(1);
    let mut arrivals = PoissonProcess::per_second(
        shape.virtual_qps,
        TemplateMix::uniform(spec.num_templates()),
    );
    let stream = generate_stream(&mut arrivals, shape.warmup + timed, seeds.trace);

    if trace {
        std::thread::sleep(SETTLE);
        let levels = at_three_levels(
            &mut out,
            |out| match set_up(&spec, &goal) {
                Ok((live, _, _)) => Some(live),
                Err(err) => {
                    out.check(false, || err);
                    None
                }
            },
            |live, out| replay(live, &stream, shape, out),
            |a, b| a.outputs == b.outputs,
        );
        let Some(([off, counters, spans], profile)) = levels else {
            return out;
        };
        out.attempted = off.attempted + counters.attempted + spans.attempted;
        out.failed = off.failed + counters.failed + spans.failed;
        // Overhead on the fast path: the median offer, which no in-path
        // retrain reaches.
        let p50 = |p: &Pass| percentile(&sorted(&p.service_us), 50.0);
        let cx = Context {
            loadgen_sent: spans.attempted,
            loadgen_lag_p99_us: percentile(&sorted(&spans.lag_us), 99.0),
            client_rtt_mean_us: ratio(spans.rtt_us.iter().sum(), spans.rtt_us.len() as f64),
            overhead_pct: 100.0 * ratio(p50(&spans) - p50(&off), p50(&off)),
            coverage: profile.coverage(),
            ..Context::default()
        };
        layer_metrics(&mut out, &profile, &cx);
        return out;
    }

    // Set-ups spread over the settle time, so that their median samples
    // seconds of the host rather than one burst of it; then each replay on
    // a server of its own, set up just before it.
    let mut setups = Vec::with_capacity(SETUPS + shape.replays);
    let mut trains = Vec::with_capacity(SETUPS + shape.replays);
    let mut passes = Vec::with_capacity(shape.replays);
    for i in 0..SETUPS + shape.replays {
        if i < SETUPS {
            std::thread::sleep(SETTLE / SETUPS as u32);
        }
        let live = match set_up(&spec, &goal) {
            Ok((live, setup_s, train_s)) => {
                setups.push(setup_s);
                trains.push(train_s);
                live
            }
            Err(err) => {
                out.check(false, || err);
                return out;
            }
        };
        if i < SETUPS {
            live.close();
            continue;
        }
        let pass = replay(live, &stream, shape, &mut out);
        if let Some(first) = passes.first() {
            let first: &Pass = first;
            out.check(first.outputs == pass.outputs, || {
                "two replays of the same stream gave different outputs".to_string()
            });
        }
        passes.push(pass);
    }
    let pooled = |part: fn(&Pass) -> &Vec<f64>| -> Vec<f64> {
        passes
            .iter()
            .flat_map(|p| part(p).iter().copied())
            .collect()
    };
    let from_due = pooled(|p| &p.from_due_us);
    let lag = pooled(|p| &p.lag_us);
    out.attempted = passes.iter().map(|p| p.attempted).sum();
    out.failed = passes.iter().map(|p| p.failed).sum();
    let due = sorted(&from_due);
    let o = &passes[0].outputs;
    // Capacity in a typical second: the median over one-second windows of
    // the timed offers, so that a rare in-path retrain (tens of ms against
    // ~0.2 ms offers) moves one window only.
    let window = (shape.wall_qps as usize).max(1);
    let capacities: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.service_us.chunks(window))
        .map(|w| ratio(w.len() as f64, w.iter().sum::<f64>() / 1e6))
        .collect();
    out.metric("setup_s", "s", median(&setups), setups.len());
    out.metric("p50_us", "us", percentile(&due, 50.0), due.len());
    out.metric("queries_per_s", "1/s", median(&capacities), due.len());
    out.metric(
        "cost_cents_per_query",
        "cents",
        ratio(o.cost_cents, o.completed as f64),
        o.completed as usize,
    );
    out.metric("peak_rss_mb", "MB", crate::peak_rss_mb(), 1);
    out.info("p90_us", "us", percentile(&due, 90.0), due.len());
    out.info("train_s", "s", median(&trains), trains.len());
    out.info("p99_us", "us", percentile(&due, 99.0), due.len());
    out.info(
        "error_rate",
        "ratio",
        ratio(out.failed as f64, out.attempted as f64),
        out.attempted as usize,
    );
    out.info(
        "violation_rate",
        "ratio",
        ratio(o.violations as f64, o.completed as f64),
        o.completed as usize,
    );
    out.info(
        "loadgen.lag_p99_us",
        "us",
        percentile(&sorted(&lag), 99.0),
        lag.len(),
    );
    out
}
