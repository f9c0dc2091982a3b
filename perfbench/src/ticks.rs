//! `multiclass-ticks`: in-process sharded planning of four-class traces
//! with `ShardedService::run_ticked`, on 2 shards, at the `scaling` bench's
//! quick shape (four classes, 2 000 queries, ticks of 32). The only
//! workload on `runtime/shard.rs` and `advisor/multi.rs`.
//!
//! One operation is one `run_ticked` replay of a whole trace on a fresh
//! service built from the same trained models. A round replays each of
//! four traces drawn from the workload seed: the cost and the in-path
//! training a trace causes vary from one trace to the next, and four
//! traces halve that variance across seeds. Rounds repeat until the run's
//! time is up, and every replay of a trace must give identical books and
//! completions.

use std::time::Instant;

use wisedb_advisor::{DecisionModel, TrainingArtifacts};
use wisedb_bench::scaling::{build_service, classes, fingerprint, scrub, train_models};
use wisedb_bench::Scale;
use wisedb_core::{ArrivingQuery, MetricsSnapshot, SlaClass, TenantId, WorkloadSpec};
use wisedb_runtime::{PoissonProcess, TemplateMix};

use crate::profile::{at_three_levels, layer_metrics, Context};
use crate::report::{best_quartile, median, percentile, ratio, sorted, Outcome};
use crate::Seeds;

const CLASSES: usize = 4;
const TRACES: u64 = 4;
const QUERIES: usize = 2_000;
const TICK: usize = 32;
const SHARDS: usize = 2;
/// Set-ups timed per untraced run; `setup_s` is their median. One set-up
/// takes about 0.1 s, so the median of 25 spans a few seconds.
const SETUPS: usize = 25;

type Trained = Vec<(DecisionModel, TrainingArtifacts)>;

/// Trains one model per class with the `scaling` bench's quick training
/// (`train_models`, with its fixed seed: the workload seed drives the
/// trace only) and opens the sharded service. Returns the trained models,
/// the set-up seconds and the training seconds.
fn set_up(spec: &WorkloadSpec, class_set: &[SlaClass]) -> (Trained, f64, f64) {
    let started = Instant::now();
    let trained = train_models(spec, class_set, Scale::Quick);
    let train_s = started.elapsed().as_secs_f64();
    std::hint::black_box(build_service(class_set, &trained, SHARDS));
    (trained, started.elapsed().as_secs_f64(), train_s)
}

/// The four classes' merged trace: one sparse Poisson stream per class
/// (the `scaling` bench's rates), seeded from the workload seed.
fn trace(seed: u64) -> Vec<ArrivingQuery> {
    let streams = (0..CLASSES)
        .map(|c| {
            let mut process = PoissonProcess::per_second(
                1.0 / (250.0 + 25.0 * c as f64),
                TemplateMix::uniform(10),
            );
            wisedb_runtime::generate_class_stream(
                &mut process,
                QUERIES / CLASSES,
                seed.wrapping_add(c as u64),
                TenantId(c as u32),
            )
        })
        .collect();
    wisedb_runtime::merge_streams(streams)
}

#[derive(Debug, PartialEq)]
struct Outputs {
    books: MetricsSnapshot,
    completions: u64,
    decisions: u64,
    merged_plans: u64,
    rebalances: u64,
}

struct Pass {
    wall_us: f64,
    outputs: Option<Outputs>,
}

/// One `run_ticked` replay on a fresh service.
fn pass(
    class_set: &[SlaClass],
    trained: &Trained,
    stream: &[ArrivingQuery],
    out: &mut Outcome,
) -> Pass {
    let mut service = build_service(class_set, trained, SHARDS);
    let started = Instant::now();
    let report = {
        let _span = wisedb_obs::span("bench.run_ticked");
        service.run_ticked(stream, TICK)
    };
    let wall_us = started.elapsed().as_secs_f64() * 1e6;
    let outputs = match report {
        Ok(report) => {
            let stats = service.stats();
            let books = scrub(report.last);
            out.check(
                books.admitted == stream.len() as u64 && books.completed == books.admitted,
                || {
                    format!(
                        "{} offered, {} admitted, {} completed after drain",
                        stream.len(),
                        books.admitted,
                        books.completed
                    )
                },
            );
            Some(Outputs {
                books,
                completions: fingerprint(&report.completions),
                decisions: stats.decisions,
                merged_plans: stats.merged_plans,
                rebalances: stats.rebalances,
            })
        }
        Err(err) => {
            out.check(false, || format!("run_ticked failed: {err}"));
            None
        }
    };
    Pass { wall_us, outputs }
}

/// One replay of every trace, in order.
fn round(
    class_set: &[SlaClass],
    trained: &Trained,
    streams: &[Vec<ArrivingQuery>],
    out: &mut Outcome,
) -> Vec<Pass> {
    streams
        .iter()
        .map(|stream| pass(class_set, trained, stream, out))
        .collect()
}

fn same(a: &[Pass], b: &[Pass]) -> bool {
    a.iter()
        .map(|p| &p.outputs)
        .eq(b.iter().map(|p| &p.outputs))
}

fn wall_us(round: &[Pass]) -> f64 {
    round.iter().map(|p| p.wall_us).sum()
}

pub fn run(seeds: Seeds, seconds: f64, trace_on: bool) -> Outcome {
    let mut out = Outcome::default();
    let spec = wisedb_sim::catalog::tpch_like(10);
    let class_set = classes(&spec, CLASSES);
    let streams: Vec<Vec<ArrivingQuery>> = (0..TRACES)
        .map(|t| trace(seeds.trace.wrapping_add(1_000 * t)))
        .collect();
    let queries: usize = streams.iter().map(Vec::len).sum();

    let setups = if trace_on { 1 } else { SETUPS };
    let mut setup_s = Vec::with_capacity(setups);
    let mut train_s = Vec::with_capacity(setups);
    let mut trained = None;
    for _ in 0..setups {
        let (t, setup, train) = set_up(&spec, &class_set);
        setup_s.push(setup);
        train_s.push(train);
        trained = Some(t);
    }
    let trained = trained.expect("at least one set-up");

    if !trace_on {
        let started = Instant::now();
        let mut rounds: Vec<Vec<Pass>> = Vec::new();
        while rounds.is_empty() || started.elapsed().as_secs_f64() < seconds {
            let r = round(&class_set, &trained, &streams, &mut out);
            if let Some(first) = rounds.first() {
                out.check(same(first, &r), || {
                    "two replays of the same trace gave different books".to_string()
                });
            }
            rounds.push(r);
        }
        out.attempted = (queries * rounds.len()) as u64;
        out.failed = rounds
            .iter()
            .flatten()
            .zip(streams.iter().cycle())
            .filter(|(p, _)| p.outputs.is_none())
            .map(|(_, s)| s.len() as u64)
            .sum();
        // Each trace is read in its better-quartile round: `p50_us` is the
        // median of those replay times over the traces, and
        // `queries_per_s` every trace's queries over their sum.
        let best_walls: Vec<f64> = (0..streams.len())
            .map(|t| {
                let walls: Vec<f64> = rounds.iter().map(|r| r[t].wall_us).collect();
                best_quartile(&walls, true)
            })
            .collect();
        let walls: Vec<f64> = rounds.iter().flatten().map(|p| p.wall_us).collect();
        let wall = sorted(&walls);
        out.metric("setup_s", "s", median(&setup_s), setup_s.len());
        out.metric("p50_us", "us", median(&best_walls), wall.len());
        out.metric(
            "queries_per_s",
            "1/s",
            ratio(queries as f64, best_walls.iter().sum::<f64>() / 1e6),
            rounds.len(),
        );
        let books: Vec<&MetricsSnapshot> = rounds[0]
            .iter()
            .filter_map(|p| p.outputs.as_ref().map(|o| &o.books))
            .collect();
        let completed: u64 = books.iter().map(|b| b.completed).sum();
        let cost: f64 = books.iter().map(|b| b.total_cost().as_cents()).sum();
        let violations: u64 = books.iter().map(|b| b.sla_violations).sum();
        out.metric(
            "cost_cents_per_query",
            "cents",
            ratio(cost, completed as f64),
            completed as usize,
        );
        out.metric("peak_rss_mb", "MB", crate::peak_rss_mb(), 1);
        out.info("p50_all_us", "us", percentile(&wall, 50.0), wall.len());
        out.info("p90_us", "us", percentile(&wall, 90.0), wall.len());
        out.info("train_s", "s", median(&train_s), train_s.len());
        out.info(
            "violation_rate",
            "ratio",
            ratio(violations as f64, completed as f64),
            completed as usize,
        );
        return out;
    }

    let levels = at_three_levels(
        &mut out,
        |_| Some(()),
        |(), out| round(&class_set, &trained, &streams, out),
        |a, b| same(a, b),
    );
    let Some(([off, _, spans], profile)) = levels else {
        return out;
    };
    out.attempted = 3 * queries as u64;
    let cx = Context {
        replay_wall_us: wall_us(&spans),
        shards: SHARDS,
        overhead_pct: 100.0 * ratio(wall_us(&spans) - wall_us(&off), wall_us(&off)),
        coverage: profile.coverage(),
        ..Context::default()
    };
    layer_metrics(&mut out, &profile, &cx);
    out
}
