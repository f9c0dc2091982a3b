//! `train-adapt`: the paper's batch mode, offline, with no serve or
//! runtime layer. Set-up trains the base models — a cold
//! `train_with_artifacts` for each goal kind and each of two training
//! seeds — as an advisor does before it can schedule. One pass then adapts
//! every base model with a §5 `retrain_tightened` to its goal tightened by
//! 20% of the gap to the strictest feasible one, and runs `schedule_batch`
//! of held-out workloads under both models. Search and learn do nearly all
//! the work.

use std::time::Instant;

use wisedb_advisor::{DecisionModel, ModelConfig, ModelGenerator, TrainingArtifacts};
use wisedb_core::{total_cost, GoalKind, PerformanceGoal, Schedule, Workload, WorkloadSpec};

use crate::profile::{at_three_levels, layer_metrics, Context, KIND_NAMES};
use crate::report::{best_quartile, median, percentile, ratio, sorted, Outcome};
use crate::Seeds;

const KINDS: [GoalKind; 4] = [
    GoalKind::PerQuery,
    GoalKind::AverageLatency,
    GoalKind::MaxLatency,
    GoalKind::Percentile,
];
/// Training samples per model, and queries per sample (percentile
/// models take smaller samples: their searches are far larger).
const SAMPLES: usize = 400;
const SAMPLE_SIZE: usize = 12;
const PERCENTILE_SAMPLE_SIZE: usize = 9;
/// The §5 tightening: 20% of the gap to the strictest feasible goal.
const TIGHTEN: f64 = 0.2;
/// Models trained per goal kind, each from its own training seed: how
/// good one model turns out varies with its seed, and the schedule cost
/// with it, so the cost averages over two.
const SEEDS_PER_KIND: u64 = 2;
/// Held-out workloads, their size, and how often each is scheduled per
/// model and pass (repeats are timed too, and must give the same plan).
const HELD_OUT: usize = 100;
const BATCH: usize = 30;
const REPEATS: usize = 2;
/// Set-ups timed per untraced run; `setup_s` is their median. Each trains
/// all eight base models (about 4 s on two vCPUs).
const SETUPS: usize = 3;

struct Kind {
    name: &'static str,
    base: PerformanceGoal,
    tight: PerformanceGoal,
    config: ModelConfig,
}

struct Inputs {
    spec: WorkloadSpec,
    kinds: Vec<Kind>,
    held_out: Vec<Workload>,
}

fn inputs(seeds: Seeds) -> Inputs {
    let spec = wisedb_sim::catalog::tpch_like(10);
    let kinds = KINDS
        .iter()
        .zip(KIND_NAMES)
        .flat_map(|(&kind, name)| (0..SEEDS_PER_KIND).map(move |i| (kind, name, i)))
        .map(|(kind, name, i)| {
            let base = PerformanceGoal::paper_default(kind, &spec)
                .expect("the catalog spec admits defaults");
            let tight = base.tighten_pct(&spec, TIGHTEN);
            let sample_size = if kind == GoalKind::Percentile {
                PERCENTILE_SAMPLE_SIZE
            } else {
                SAMPLE_SIZE
            };
            let config = ModelConfig {
                num_samples: SAMPLES,
                sample_size,
                seed: seeds.training.wrapping_add(i),
                ..ModelConfig::fast()
            };
            Kind {
                name,
                base,
                tight,
                config,
            }
        })
        .collect();
    let held_out = (0..HELD_OUT as u64)
        .map(|i| {
            wisedb_sim::generator::uniform_workload(&spec, BATCH, seeds.held_out.wrapping_add(i))
        })
        .collect();
    Inputs {
        spec,
        kinds,
        held_out,
    }
}

impl Kind {
    fn generator(&self, spec: &WorkloadSpec) -> ModelGenerator {
        ModelGenerator::new(spec.clone(), self.base.clone(), self.config.clone())
    }
}

/// A trained base model, the artifacts its tightened retrains start
/// from, and the seconds its cold training took.
struct Base {
    model: DecisionModel,
    artifacts: TrainingArtifacts,
    cold_s: f64,
}

/// Cold-trains one base model per kind and training seed, or records the
/// failure and returns `None`.
fn train_bases(inputs: &Inputs, out: &mut Outcome) -> Option<Vec<Base>> {
    let mut bases = Vec::with_capacity(inputs.kinds.len());
    for kind in &inputs.kinds {
        let generator = kind.generator(&inputs.spec);
        let started = Instant::now();
        let trained = {
            let _span = wisedb_obs::span("bench.train");
            generator.train_with_artifacts()
        };
        let cold_s = started.elapsed().as_secs_f64();
        match trained {
            Ok((model, artifacts)) => bases.push(Base {
                model,
                artifacts,
                cold_s,
            }),
            Err(err) => {
                out.check(false, || {
                    format!("{} cold training failed: {err}", kind.name)
                });
                return None;
            }
        }
    }
    Some(bases)
}

/// The deterministic outputs of one pass.
#[derive(Debug, Default, PartialEq)]
struct Outputs {
    /// Per model (base, then tightened, for each kind): tree size and
    /// every held-out schedule.
    tree_nodes: Vec<usize>,
    schedules: Vec<Schedule>,
    cost_cents: f64,
    queries: u64,
}

#[derive(Default)]
struct Pass {
    /// Per model: (kind name, cold-train seconds of its base model,
    /// tightened-retrain seconds).
    kind_secs: Vec<(&'static str, f64, f64)>,
    schedule_us: Vec<f64>,
    /// Per model (base, then tightened, for each kind): its median
    /// `schedule_batch` call in this pass.
    model_p50_us: Vec<f64>,
    attempted: u64,
    failed: u64,
    outputs: Outputs,
}

impl Pass {
    fn tighten_s(&self) -> f64 {
        self.kind_secs.iter().map(|(_, _, tight)| tight).sum()
    }

    fn busy_us(&self) -> f64 {
        let train_s: f64 = self
            .kind_secs
            .iter()
            .map(|(_, cold, tight)| cold + tight)
            .sum();
        train_s * 1e6 + self.schedule_us.iter().sum::<f64>()
    }
}

/// Adapts every base model to its tightened goal, from a copy of its
/// artifacts so that every pass starts from the same state, and schedules
/// the held-out workloads under both models.
fn pass(inputs: &Inputs, bases: &[Base], out: &mut Outcome) -> Pass {
    let mut pass = Pass::default();
    for (kind, base) in inputs.kinds.iter().zip(bases) {
        let generator = kind.generator(&inputs.spec);
        let mut artifacts = base.artifacts.clone();
        pass.attempted += 1;
        let started = Instant::now();
        let tightened = {
            let _span = wisedb_obs::span("bench.tighten");
            generator.retrain_tightened(&kind.tight, &mut artifacts)
        };
        let tight_s = started.elapsed().as_secs_f64();
        pass.kind_secs.push((kind.name, base.cold_s, tight_s));
        let tight = match tightened {
            Ok(model) => model,
            Err(err) => {
                pass.failed += 1;
                out.check(false, || {
                    format!("{} tightened retrain failed: {err}", kind.name)
                });
                continue;
            }
        };

        for (model, goal) in [(&base.model, &kind.base), (&tight, &kind.tight)] {
            pass.outputs.tree_nodes.push(model.tree().num_nodes());
            let first_call = pass.schedule_us.len();
            for workload in &inputs.held_out {
                let mut first: Option<Schedule> = None;
                for _ in 0..REPEATS {
                    pass.attempted += 1;
                    let started = Instant::now();
                    let scheduled = {
                        let _span = wisedb_obs::span("bench.schedule_batch");
                        model.schedule_batch(workload)
                    };
                    pass.schedule_us.push(started.elapsed().as_secs_f64() * 1e6);
                    let schedule = match scheduled {
                        Ok(schedule) => schedule,
                        Err(err) => {
                            pass.failed += 1;
                            out.check(false, || {
                                format!("{} schedule_batch failed: {err}", kind.name)
                            });
                            continue;
                        }
                    };
                    match &first {
                        Some(previous) => out.check(previous == &schedule, || {
                            format!("{} schedule_batch is not repeatable", kind.name)
                        }),
                        None => {
                            out.check(schedule.validate_complete(workload).is_ok(), || {
                                format!("{} schedule misses or repeats a query", kind.name)
                            });
                            match total_cost(&inputs.spec, goal, &schedule) {
                                Ok(cost) => pass.outputs.cost_cents += cost.as_cents(),
                                Err(err) => out.check(false, || format!("cost failed: {err}")),
                            }
                            pass.outputs.queries += workload.len() as u64;
                            first = Some(schedule);
                        }
                    }
                }
                if let Some(schedule) = first {
                    pass.outputs.schedules.push(schedule);
                }
            }
            pass.model_p50_us
                .push(median(&pass.schedule_us[first_call..]));
        }
    }
    pass
}

pub fn run(seeds: Seeds, seconds: f64, trace: bool) -> Outcome {
    let mut out = Outcome::default();

    if !trace {
        // Set-up: generate the inputs and cold-train the base models, several
        // times; every set-up must train the same trees.
        let mut setups = Vec::with_capacity(SETUPS);
        let mut colds = Vec::with_capacity(SETUPS);
        let mut ready: Option<(Inputs, Vec<Base>)> = None;
        let mut trees: Option<Vec<_>> = None;
        for _ in 0..SETUPS {
            // Release the previous set-up's models before training again,
            // so that peak memory holds one set of base models.
            drop(ready.take());
            let started = Instant::now();
            let inputs = inputs(seeds);
            out.attempted += inputs.kinds.len() as u64;
            let Some(bases) = train_bases(&inputs, &mut out) else {
                out.failed += 1;
                return out;
            };
            setups.push(started.elapsed().as_secs_f64());
            colds.push(bases.iter().map(|b| b.cold_s).sum::<f64>());
            let these: Vec<_> = bases.iter().map(|b| b.model.tree().clone()).collect();
            if let Some(previous) = &trees {
                out.check(previous == &these, || {
                    "two set-ups trained different base models".to_string()
                });
            }
            trees = Some(these);
            ready = Some((inputs, bases));
        }
        let (inputs, bases) = ready.expect("SETUPS > 0");

        let started = Instant::now();
        let mut passes: Vec<Pass> = Vec::new();
        while passes.is_empty() || started.elapsed().as_secs_f64() < seconds {
            let p = pass(&inputs, &bases, &mut out);
            if let Some(first) = passes.first() {
                out.check(first.outputs == p.outputs, || {
                    "two passes over the same inputs gave different models or schedules".to_string()
                });
            }
            passes.push(p);
        }
        out.attempted += passes.iter().map(|p| p.attempted).sum::<u64>();
        out.failed += passes.iter().map(|p| p.failed).sum::<u64>();
        let schedule_us: Vec<f64> = passes
            .iter()
            .flat_map(|p| p.schedule_us.iter().copied())
            .collect();
        let latency = sorted(&schedule_us);
        let o = &passes[0].outputs;
        let tightens: Vec<f64> = passes.iter().map(Pass::tighten_s).collect();
        // Each model is read in its better-quartile pass: its median
        // `schedule_batch` call, and the seconds of its tightened retrain.
        // `p50_us` is the median over the sixteen models; `queries_per_s`
        // is the adaptation throughput — the queries of every training
        // sample, each solved again under the tightened goal, per second of
        // the eight tightened retrains.
        let best = |reading: &dyn Fn(&Pass) -> Option<f64>| {
            let readings: Vec<f64> = passes.iter().filter_map(reading).collect();
            best_quartile(&readings, true)
        };
        let model_p50s: Vec<f64> = (0..2 * inputs.kinds.len())
            .map(|m| best(&|p: &Pass| p.model_p50_us.get(m).copied()))
            .collect();
        let best_tighten_s: f64 = (0..inputs.kinds.len())
            .map(|k| best(&|p: &Pass| p.kind_secs.get(k).map(|secs| secs.2)))
            .sum();
        let adapted: usize = inputs
            .kinds
            .iter()
            .map(|k| k.config.num_samples * k.config.sample_size)
            .sum();
        out.metric("setup_s", "s", median(&setups), setups.len());
        out.metric("p50_us", "us", median(&model_p50s), latency.len());
        out.metric(
            "queries_per_s",
            "1/s",
            ratio(adapted as f64, best_tighten_s),
            passes.len(),
        );
        out.metric(
            "cost_cents_per_query",
            "cents",
            ratio(o.cost_cents, o.queries as f64),
            o.queries as usize,
        );
        out.metric("peak_rss_mb", "MB", crate::peak_rss_mb(), 1);
        out.info(
            "p50_all_us",
            "us",
            percentile(&latency, 50.0),
            latency.len(),
        );
        out.info("p90_us", "us", percentile(&latency, 90.0), latency.len());
        out.info("train_s", "s", median(&colds), colds.len());
        out.info("tighten_s", "s", median(&tightens), tightens.len());
        return out;
    }

    // Traced: each pass cold-trains the base models too, so the trace
    // covers training as well as adaptation and scheduling.
    let inputs = inputs(seeds);
    let levels = at_three_levels(
        &mut out,
        |_| Some(()),
        |(), out| match train_bases(&inputs, out) {
            Some(bases) => {
                let mut p = pass(&inputs, &bases, out);
                p.attempted += bases.len() as u64;
                p
            }
            None => Pass {
                attempted: 1,
                failed: 1,
                ..Pass::default()
            },
        },
        |a, b| a.outputs == b.outputs,
    );
    let Some(([off, counters, spans], profile)) = levels else {
        return out;
    };
    out.attempted = off.attempted + counters.attempted + spans.attempted;
    out.failed = off.failed + counters.failed + spans.failed;
    let cx = Context {
        kind_secs: spans.kind_secs.clone(),
        overhead_pct: 100.0 * ratio(spans.busy_us() - off.busy_us(), off.busy_us()),
        coverage: profile.coverage(),
        ..Context::default()
    };
    layer_metrics(&mut out, &profile, &cx);
    out
}
