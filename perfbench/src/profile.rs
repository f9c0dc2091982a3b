//! Per-layer accounting over a `wisedb-obs` trace.
//!
//! `Trace::span_totals` gives inclusive sums only, and spans on the two
//! training threads then add up to more than the wall time. Here every
//! thread's Begin/End events are replayed on a span stack of its own, so
//! each span also gets its *self* time: its duration minus the time its
//! child spans on the same thread cover. Work fanned out to other threads
//! is reported as busy time beside the wall time of the span that waited
//! for it (`advisor.train_busy_ratio`, `shard.busy_ratio`).
//!
//! The benchmark wraps its own calls into the program in `bench.*` spans;
//! everything else in the trace is emitted by the program itself.

use std::collections::BTreeMap;

use wisedb_obs::{AttrValue, Level, Phase, RegistrySnapshot, Trace};

use crate::report::{ratio, Outcome};

/// Aggregate of one span name.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SpanStat {
    pub count: u64,
    pub total_us: u64,
    pub self_us: u64,
}

impl SpanStat {
    fn add(&mut self, total_us: u64, self_us: u64) {
        self.count += 1;
        self.total_us += total_us;
        self.self_us += self_us;
    }
}

/// Everything the per-layer metrics are computed from.
#[derive(Debug, Default)]
pub struct Profile {
    pub spans: BTreeMap<&'static str, SpanStat>,
    pub counters: BTreeMap<String, u64>,
    /// Trees fitted inside a `runtime.plan` or `shard.plan` span of the
    /// same thread: models trained on the request path (a cold train and
    /// a §5 tightened retrain both end in exactly one fit).
    pub inpath_fits: u64,
    /// The plan spans that fitted at least one tree.
    pub training_plans: SpanStat,
    /// Sum of the `nodes` attribute of every `learn.fit_tree` span.
    pub tree_nodes: u64,
    /// Wall intervals of the benchmark's own spans, and of every program
    /// span on any thread.
    bench: Vec<(u64, u64)>,
    program: Vec<(u64, u64)>,
}

struct Open {
    name: &'static str,
    begin_us: u64,
    child_us: u64,
    fitted: bool,
}

fn is_plan(name: &str) -> bool {
    name == "runtime.plan" || name == "shard.plan"
}

impl Profile {
    pub fn new(trace: &Trace, registry: &RegistrySnapshot) -> Profile {
        let mut profile = Profile {
            counters: registry.counters.iter().cloned().collect(),
            ..Profile::default()
        };
        let mut stacks: BTreeMap<u64, Vec<Open>> = BTreeMap::new();
        for event in &trace.events {
            match event.phase {
                Phase::Begin => stacks.entry(event.tid).or_default().push(Open {
                    name: event.name,
                    begin_us: event.wall_us,
                    child_us: 0,
                    fitted: false,
                }),
                Phase::End => {
                    let Some(stack) = stacks.get_mut(&event.tid) else {
                        continue;
                    };
                    let Some(pos) = stack.iter().rposition(|o| o.name == event.name) else {
                        continue;
                    };
                    // Guards drop in LIFO order, so `pos` is the top; any
                    // unbalanced frame above it is discarded.
                    stack.truncate(pos + 1);
                    let open = stack.pop().expect("the frame at pos exists");
                    let total = event.wall_us.saturating_sub(open.begin_us);
                    let own = total.saturating_sub(open.child_us);
                    profile.spans.entry(open.name).or_default().add(total, own);
                    if let Some(parent) = stack.last_mut() {
                        parent.child_us += total;
                    }
                    let interval = (open.begin_us, event.wall_us);
                    if open.name.starts_with("bench.") {
                        profile.bench.push(interval);
                    } else {
                        profile.program.push(interval);
                    }
                    if open.name == "learn.fit_tree" {
                        profile.tree_nodes += attr_u64(&event.attrs, "nodes");
                        if let Some(plan) = stack.iter_mut().rev().find(|o| is_plan(o.name)) {
                            plan.fitted = true;
                            profile.inpath_fits += 1;
                        }
                    }
                    if is_plan(open.name) && open.fitted {
                        profile.training_plans.add(total, own);
                    }
                }
                Phase::Complete { dur_us } => {
                    profile
                        .spans
                        .entry(event.name)
                        .or_default()
                        .add(dur_us, dur_us);
                    profile
                        .program
                        .push((event.wall_us, event.wall_us + dur_us));
                }
                Phase::Instant => {}
            }
        }
        profile
    }

    pub fn span(&self, name: &str) -> SpanStat {
        self.spans.get(name).copied().unwrap_or_default()
    }

    /// Mean inclusive µs per span of `name`.
    pub fn mean_us(&self, name: &str) -> f64 {
        let s = self.span(name);
        ratio(s.total_us as f64, s.count as f64)
    }

    /// Mean self µs per span of `name`.
    pub fn self_mean_us(&self, name: &str) -> f64 {
        let s = self.span(name);
        ratio(s.self_us as f64, s.count as f64)
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Share of the wall time inside the benchmark's own `bench.*` spans
    /// during which at least one program span was open, on any thread.
    pub fn coverage(&self) -> f64 {
        let mut program = self.program.clone();
        program.sort_unstable();
        let mut union: Vec<(u64, u64)> = Vec::with_capacity(program.len());
        for (begin, end) in program {
            match union.last_mut() {
                Some(last) if begin <= last.1 => last.1 = last.1.max(end),
                _ => union.push((begin, end)),
            }
        }
        let (mut covered, mut total) = (0u64, 0u64);
        for &(begin, end) in &self.bench {
            total += end - begin;
            let first = union.partition_point(|&(_, e)| e <= begin);
            for &(b, e) in union[first..].iter().take_while(|&&(b, _)| b < end) {
                covered += e.min(end).saturating_sub(b.max(begin));
            }
        }
        ratio(covered as f64, total as f64)
    }

    /// The program's counters that must not change with the trace level.
    pub fn deterministic_counters(&self) -> Vec<(&str, u64)> {
        const DETERMINISTIC: [&str; 7] = [
            "wisedb_search_",
            "wisedb_train_",
            "wisedb_cluster_",
            "wisedb_runtime_admitted",
            "wisedb_runtime_shed",
            "wisedb_shard_decisions",
            "wisedb_shard_merged",
        ];
        self.counters
            .iter()
            .filter(|(name, _)| DETERMINISTIC.iter().any(|p| name.starts_with(p)))
            .map(|(name, &v)| (name.as_str(), v))
            .collect()
    }
}

fn attr_u64(attrs: &[(&'static str, AttrValue)], key: &str) -> u64 {
    attrs
        .iter()
        .find_map(|(k, v)| match v {
            AttrValue::U64(n) if *k == key => Some(*n),
            _ => None,
        })
        .unwrap_or(0)
}

/// A traced run: the same work three times — counters only, tracing off,
/// full spans. The counters-only pass goes first so that it, not the
/// untraced pass the overhead is measured against, pays for the process's
/// cold start (a first `train-adapt` pass ran a third slower than the
/// next). `prepare` runs untraced before each pass; `measure` is the
/// traced part. Checks that every pass gives the same outputs (`same`)
/// and that the program's counters agree between the counters-only and
/// the full-span pass. Returns the passes as (off, counters, spans) and
/// the full-span profile, or `None` if a preparation failed.
pub fn at_three_levels<S, P>(
    out: &mut Outcome,
    mut prepare: impl FnMut(&mut Outcome) -> Option<S>,
    mut measure: impl FnMut(S, &mut Outcome) -> P,
    same: impl Fn(&P, &P) -> bool,
) -> Option<([P; 3], Profile)> {
    let mut passes = Vec::with_capacity(3);
    let mut profiles = Vec::with_capacity(2);
    for level in [Level::Counters, Level::Off, Level::Spans] {
        let state = prepare(out)?;
        let collector = (level != Level::Off).then(|| wisedb_obs::install(level));
        passes.push(measure(state, out));
        if let Some(collector) = collector {
            let trace = collector.finish();
            profiles.push(Profile::new(&trace, &wisedb_obs::snapshot_metrics()));
        }
    }
    let [counters, off, spans]: [P; 3] = passes.try_into().ok()?;
    let passes = [off, counters, spans];
    let [counted, profile]: [Profile; 2] = profiles.try_into().ok()?;
    out.check(
        same(&passes[0], &passes[1]) && same(&passes[0], &passes[2]),
        || "outputs differ between the untraced, counters-only and full-span passes".to_string(),
    );
    out.check(
        counted.deterministic_counters() == profile.deterministic_counters(),
        || {
            format!(
                "counters differ between counters-only and full spans: {:?} vs {:?}",
                counted.deterministic_counters(),
                profile.deterministic_counters()
            )
        },
    );
    Some((passes, profile))
}

/// The workload-side readings the per-layer metrics need besides the
/// trace. Fields a workload has no use for stay 0.
#[derive(Debug, Default)]
pub struct Context {
    /// Offers the open-loop generator sent, and the p99 of how late it
    /// sent them beyond what the previous reply allowed.
    pub loadgen_sent: u64,
    pub loadgen_lag_p99_us: f64,
    /// Mean client round trip of an offer.
    pub client_rtt_mean_us: f64,
    /// Per model: its goal kind and the wall seconds of its cold train and
    /// its tightened retrain (train-adapt only); summed per kind.
    pub kind_secs: Vec<(&'static str, f64, f64)>,
    /// Wall time of the sharded replay and its shard count.
    pub replay_wall_us: f64,
    pub shards: usize,
    /// Busy-time change from the untraced to the traced pass, in percent.
    pub overhead_pct: f64,
    /// Share of the measured end-to-end time the program's spans explain.
    pub coverage: f64,
}

/// The goal kinds as named in per-layer metrics.
pub const KIND_NAMES: [&str; 4] = ["PerQuery", "Average", "Max", "Percentile"];

/// Appends every per-layer metric. Each workload reports the full set; a
/// layer the workload bypasses reads 0.
pub fn layer_metrics(out: &mut Outcome, p: &Profile, cx: &Context) {
    let n = |s: &str| p.span(s).count as usize;
    let counter = |out: &mut Outcome, name: &str, counter: &str| {
        out.metric(name, "count", p.counter(counter) as f64, 1);
    };

    // loadgen — the benchmark's own client.
    out.metric("loadgen.sent", "count", cx.loadgen_sent as f64, 1);
    out.metric(
        "loadgen.lag_p99_us",
        "us",
        cx.loadgen_lag_p99_us,
        cx.loadgen_sent as usize,
    );

    // serve
    // What an offer's dispatch spends neither queued nor planning: the
    // scheduler's wake-up and the reply's hand-back.
    let dispatch = p.span("serve.dispatch");
    let handoff = dispatch.total_us as f64
        - p.span("serve.queue_wait").total_us as f64
        - p.span("serve.plan").total_us as f64;
    out.metric(
        "serve.decode_us",
        "us",
        p.mean_us("serve.decode"),
        n("serve.decode"),
    );
    out.metric(
        "serve.dispatch_self_us",
        "us",
        ratio(handoff.max(0.0), dispatch.count as f64),
        dispatch.count as usize,
    );
    out.metric(
        "serve.queue_wait_us",
        "us",
        p.mean_us("serve.queue_wait"),
        n("serve.queue_wait"),
    );
    let tick = p.span("serve.tick");
    out.metric(
        "serve.tick_self_us",
        "us",
        ratio(
            (tick.self_us + p.span("serve.plan").self_us) as f64,
            tick.count as f64,
        ),
        tick.count as usize,
    );
    out.metric(
        "serve.encode_us",
        "us",
        p.mean_us("serve.encode"),
        n("serve.encode"),
    );
    let server_us =
        p.mean_us("serve.decode") + p.mean_us("serve.dispatch") + p.mean_us("serve.encode");
    let transit = if cx.client_rtt_mean_us > 0.0 {
        (cx.client_rtt_mean_us - server_us).max(0.0)
    } else {
        0.0
    };
    out.metric("serve.transit_us", "us", transit, cx.loadgen_sent as usize);
    counter(out, "serve.errors", "wisedb_serve_request_errors_total");
    counter(out, "serve.queue_shed", "wisedb_serve_queue_shed_total");

    // runtime
    out.metric(
        "runtime.offer_self_us",
        "us",
        p.self_mean_us("runtime.offer_batch"),
        n("runtime.offer_batch"),
    );
    out.metric(
        "runtime.plan_us",
        "us",
        p.mean_us("runtime.plan"),
        n("runtime.plan"),
    );
    out.metric(
        "runtime.recalled_per_offer",
        "ratio",
        ratio(
            p.counter("wisedb_cluster_recalled_total") as f64,
            p.counter("wisedb_runtime_admitted_total") as f64,
        ),
        1,
    );
    counter(out, "runtime.admitted", "wisedb_runtime_admitted_total");
    counter(out, "runtime.shed", "wisedb_runtime_shed_total");

    // sim
    counter(
        out,
        "sim.vms_provisioned",
        "wisedb_cluster_vms_provisioned_total",
    );
    out.metric(
        "sim.drain_ms",
        "ms",
        p.span("bench.drain").total_us as f64 / 1e3,
        n("bench.drain"),
    );

    // advisor
    let training = p.training_plans;
    out.metric("advisor.inpath_trains", "count", p.inpath_fits as f64, 1);
    out.metric(
        "advisor.inpath_train_us",
        "us",
        ratio(training.total_us as f64, training.count as f64),
        training.count as usize,
    );
    out.metric(
        "advisor.train_self_us",
        "us",
        p.self_mean_us("train.model"),
        n("train.model"),
    );
    // Solver and fit time on every thread, over the wall time of the calls
    // that trained: the benchmark's own training calls, and the plan calls
    // that trained in the path.
    let training_wall_us =
        p.span("bench.train").total_us + p.span("bench.tighten").total_us + training.total_us;
    out.metric(
        "advisor.train_busy_ratio",
        "ratio",
        ratio(
            (p.span("search.solve").total_us + p.span("learn.fit_tree").total_us) as f64,
            training_wall_us as f64,
        ),
        n("bench.train") + n("bench.tighten") + training.count as usize,
    );
    out.metric(
        "advisor.cache_hit_ratio",
        "ratio",
        ratio(
            p.counter("wisedb_train_cache_hits_total") as f64,
            p.counter("wisedb_train_samples_total") as f64,
        ),
        1,
    );
    for kind in KIND_NAMES {
        let (cold, tight) = cx
            .kind_secs
            .iter()
            .filter(|(k, _, _)| *k == kind)
            .fold((0.0, 0.0), |(c, t), (_, cold, tight)| (c + cold, t + tight));
        out.metric(&format!("advisor.train_s.{kind}"), "s", cold, 1);
        out.metric(&format!("advisor.tighten_s.{kind}"), "s", tight, 1);
    }
    out.metric(
        "advisor.schedule_batch_us",
        "us",
        p.mean_us("bench.schedule_batch"),
        n("bench.schedule_batch"),
    );

    // search
    let solves = p.counter("wisedb_search_solves_total");
    let expanded = p.counter("wisedb_search_expanded_total");
    counter(out, "search.solves", "wisedb_search_solves_total");
    counter(out, "search.expanded", "wisedb_search_expanded_total");
    counter(
        out,
        "search.reexpansions",
        "wisedb_search_reexpansions_total",
    );
    out.metric(
        "search.expanded_per_solve",
        "count",
        ratio(expanded as f64, solves as f64),
        solves as usize,
    );
    out.metric(
        "search.solve_self_us",
        "us",
        p.self_mean_us("search.solve"),
        n("search.solve"),
    );

    // learn
    let fits = p.span("learn.fit_tree").count;
    out.metric("learn.fits", "count", fits as f64, 1);
    out.metric(
        "learn.fit_tree_us",
        "us",
        p.mean_us("learn.fit_tree"),
        fits as usize,
    );
    out.metric(
        "learn.tree_nodes",
        "count",
        ratio(p.tree_nodes as f64, fits as f64),
        fits as usize,
    );

    // shard
    out.metric(
        "shard.plan_us",
        "us",
        p.mean_us("shard.plan"),
        n("shard.plan"),
    );
    out.metric(
        "shard.merge_us",
        "us",
        p.mean_us("shard.merge"),
        n("shard.merge"),
    );
    counter(out, "shard.decisions", "wisedb_shard_decisions_total");
    counter(out, "shard.merged_plans", "wisedb_shard_merged_plans_total");
    counter(out, "shard.rebalances", "wisedb_shard_rebalances_total");
    out.metric(
        "shard.busy_ratio",
        "ratio",
        ratio(
            p.span("shard.plan").total_us as f64,
            cx.replay_wall_us * cx.shards as f64,
        ),
        n("shard.plan"),
    );

    // obs
    out.metric("obs.overhead_pct", "%", cx.overhead_pct, 2);
    out.metric("trace.coverage", "ratio", cx.coverage, 1);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_same_thread_children_only() {
        let _hold = wisedb_obs::testing::hold();
        let collector = wisedb_obs::install(wisedb_obs::Level::Spans);
        {
            let _outer = wisedb_obs::span("bench.outer");
            std::thread::sleep(std::time::Duration::from_millis(2));
            let _plan = wisedb_obs::span("runtime.plan");
            {
                let _fit = wisedb_obs::span("learn.fit_tree");
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            std::thread::scope(|s| {
                s.spawn(|| {
                    let _solve = wisedb_obs::span("search.solve");
                    std::thread::sleep(std::time::Duration::from_millis(2));
                });
            });
        }
        {
            let _fit = wisedb_obs::span("learn.fit_tree");
        }
        let trace = collector.finish();
        let p = Profile::new(&trace, &wisedb_obs::snapshot_metrics());
        let plan = p.span("runtime.plan");
        let fit = p.span("learn.fit_tree");
        assert_eq!((plan.count, fit.count), (1, 2));
        assert_eq!(
            p.inpath_fits, 1,
            "only the nested fit is on the request path"
        );
        assert_eq!(p.training_plans, plan);
        // The other thread's solve is not the plan's child: its time stays
        // the plan's self time, and only the same-thread fit is subtracted.
        assert!(plan.self_us >= 2_000);
        assert!(plan.self_us + fit.total_us >= plan.total_us);
        assert_eq!(p.span("search.solve").count, 1);
        // The outer span slept 2 ms before any program span opened.
        let coverage = p.coverage();
        assert!(coverage > 0.0 && coverage < 1.0, "coverage {coverage}");
    }
}
