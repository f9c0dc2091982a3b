//! Multi-class scheduling ticks: tenant classes planned in parallel
//! against one epoch view of the cluster.
//!
//! [`WorkloadService`] owns one `MultiScheduler`, one `LiveCluster` and one
//! set of books. The seam that lets it use more than one core is that
//! **classes are independent at plan time**: each tenant class's batch is
//! planned by its own `OnlineScheduler` against a read-only view of the
//! fleet, so the plan calls — the expensive part of the loop — can run on
//! parallel threads while the cluster, billing, and metrics stay with
//! the calling thread.
//!
//! A scheduling **tick** ([`WorkloadService::offer_tick`]) processes a set
//! of per-class arrival groups in three phases:
//!
//! 1. **Admit (serial)** — in tick order, each group's arrivals advance
//!    the virtual clock and pass admission individually, with newcomers
//!    admitted by earlier groups of the same tick folded into the load
//!    signals; admitted newcomers get stream ids and the class's
//!    unstarted work is recalled. A class may appear in at most one group
//!    per tick.
//! 2. **Plan (parallel)** — one [`ClusterView`] is taken (the tick's
//!    *epoch*), and each group is planned by its class's scheduler on the
//!    shard that owns the class: shard 0's groups on the calling thread,
//!    each other shard's on one scoped thread that borrows its classes'
//!    schedulers for the tick. Planning never touches the live cluster.
//! 3. **Merge (serial)** — plans are validated and applied to the one
//!    `LiveCluster` in **tick order** (the order the groups were given,
//!    *not* shard order), so billing, completions, and metrics come out
//!    identical no matter how classes are spread over shards.
//!
//! A one-group tick skips the epoch and plans inline through
//! [`WorkloadService::offer_batch_as`]. A one-shard service therefore
//! never spawns a thread.
//!
//! ## Determinism
//!
//! A group's plan depends only on the epoch view, the group's batch, and
//! its class's scheduler state — none of which depend on the shard count
//! or the class→shard assignment. The merge applies plans in tick order,
//! which is also assignment-independent. Hence a tick produces
//! **bit-identical** verdicts, completions, bills, and metrics for *any*
//! shard count. It also means the greedy load-skew **rebalancer** (which
//! moves hot classes between shards on a wall-clock EMA, an inherently
//! nondeterministic signal) can never perturb outputs: it only changes
//! *where* a plan is computed.

use std::time::Instant;

use wisedb_advisor::online::{ArrivalPlan, ClusterView, OnlineScheduler};
use wisedb_core::{ArrivingQuery, CoreError, CoreResult, Millis, TemplateId, TenantId};

use crate::service::{OfferOutcome, Prepared, StreamReport, WorkloadService};

/// The load signal the rebalancer ranks shards and classes by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadSignal {
    /// Wall-clock planning time per tick (microseconds) — the honest
    /// production signal, but machine-dependent.
    PlanTime,
    /// Planned batch size per tick — a deterministic proxy for plan cost,
    /// used where reproducible rebalance counts matter (tests, the
    /// regress harness).
    BatchSize,
}

/// How a [`WorkloadService`] spreads multi-class ticks over planning
/// threads; the `shards` field of
/// [`RuntimeConfig`](crate::RuntimeConfig).
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// Number of scheduler shards. `0` is treated as `1`; one shard plans
    /// every tick on the calling thread.
    pub shards: usize,
    /// Check for load skew every this many ticks (`0` disables
    /// rebalancing entirely).
    pub rebalance_every: u64,
    /// Rebalance when the hottest shard's load EMA exceeds the coldest's
    /// by this factor (and the hot shard has at least two classes).
    pub skew_threshold: f64,
    /// What "load" means; see [`LoadSignal`].
    pub signal: LoadSignal,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig {
            shards: 1,
            rebalance_every: 64,
            skew_threshold: 2.0,
            signal: LoadSignal::PlanTime,
        }
    }
}

impl ShardConfig {
    /// A config with `shards` shards and everything else default.
    pub fn with_shards(shards: usize) -> Self {
        ShardConfig {
            shards,
            ..ShardConfig::default()
        }
    }

    /// One plan's load under the configured signal.
    pub(crate) fn load(&self, plan_secs: f64, batch_len: usize) -> f64 {
        match self.signal {
            LoadSignal::PlanTime => plan_secs * 1e6,
            LoadSignal::BatchSize => batch_len as f64,
        }
    }
}

/// EMA smoothing factor for the per-shard and per-class load averages.
const EMA_ALPHA: f64 = 0.2;

/// One class group of a scheduling tick: the class plus its arrivals
/// (`(template, at)` pairs in non-decreasing `at` order; groups must also
/// be tick-ordered by their first arrival).
pub type TickGroup = (TenantId, Vec<(TemplateId, Millis)>);

/// Aggregate tick counters of a service; see
/// [`stats`](WorkloadService::stats).
#[derive(Debug, Clone, PartialEq)]
pub struct ShardStats {
    /// Configured shard count.
    pub shards: usize,
    /// Scheduling ticks processed (lone bursts count as one-group ticks).
    pub ticks: u64,
    /// Epochs taken — multi-group ticks that reached the plan phase.
    pub epochs: u64,
    /// Plan calls issued across all shards (deterministic for a fixed
    /// trace and tick structure).
    pub decisions: u64,
    /// Plans validated and applied by the merge step (deterministic).
    pub merged_plans: u64,
    /// Greedy class moves the rebalancer performed.
    pub rebalances: u64,
    /// Per-shard lanes, indexed by shard id.
    pub per_shard: Vec<ShardLaneStats>,
}

/// One shard's slice of [`ShardStats`].
#[derive(Debug, Clone, PartialEq)]
pub struct ShardLaneStats {
    /// Classes currently assigned to this shard.
    pub classes: Vec<TenantId>,
    /// Plan calls this shard has executed.
    pub decisions: u64,
    /// The shard's current load EMA (microseconds or batch size,
    /// depending on [`ShardConfig::signal`]).
    pub load_ema: f64,
}

/// The service's shard books: class → shard assignment, tick counters,
/// and the load averages the rebalancer reads.
pub(crate) struct ShardState {
    /// Class → shard, rewritten by the rebalancer.
    assignment: Vec<usize>,
    epochs: u64,
    ticks: u64,
    decisions: u64,
    merged_plans: u64,
    rebalances: u64,
    /// Per-shard load EMA under the configured signal.
    shard_ema: Vec<f64>,
    /// Per-shard plan-call counters.
    shard_decisions: Vec<u64>,
    /// Per-class load EMA (what the rebalancer moves by).
    class_ema: Vec<f64>,
}

/// One group's plan as its shard returns it: the group's position in the
/// tick's prepared list, the plan, and the wall seconds it took.
type Planned = (usize, CoreResult<ArrivalPlan>, f64);

impl ShardState {
    pub(crate) fn new(classes: usize, shards: usize) -> Self {
        ShardState {
            // Round-robin start; the rebalancer refines it under load.
            assignment: (0..classes).map(|c| c % shards).collect(),
            epochs: 0,
            ticks: 0,
            decisions: 0,
            merged_plans: 0,
            rebalances: 0,
            shard_ema: vec![0.0; shards],
            shard_decisions: vec![0; shards],
            class_ema: vec![0.0; classes],
        }
    }

    /// Counts one inline plan call of `class` (merged if `merged`) and
    /// folds its load.
    pub(crate) fn record_plan(&mut self, class: TenantId, merged: bool, load: f64) {
        let shard = self.assignment[class.index()];
        self.decisions += 1;
        self.shard_decisions[shard] += 1;
        wisedb_obs::counter_add("wisedb_shard_decisions_total", 1);
        if merged {
            self.merged_plans += 1;
            wisedb_obs::counter_add("wisedb_shard_merged_plans_total", 1);
        }
        self.fold_load(&[(shard, class, load)]);
    }

    /// Ends one tick: counts it, then gives the rebalancer its turn.
    pub(crate) fn end_tick(&mut self, config: &ShardConfig, now: Millis) {
        self.ticks += 1;
        self.maybe_rebalance(config, now);
    }

    /// Folds one tick's per-(shard, class) load observations into the
    /// EMAs. Every shard decays each tick — idle shards drift toward
    /// zero, so a shard whose classes went quiet eventually reads cold.
    fn fold_load(&mut self, loads: &[(usize, TenantId, f64)]) {
        let mut shard_load = vec![0.0f64; self.shard_ema.len()];
        let mut class_load = vec![0.0f64; self.class_ema.len()];
        for &(shard, class, load) in loads {
            shard_load[shard] += load;
            class_load[class.index()] += load;
        }
        for (ema, load) in self.shard_ema.iter_mut().zip(&shard_load) {
            *ema = EMA_ALPHA * load + (1.0 - EMA_ALPHA) * *ema;
        }
        for (ema, load) in self.class_ema.iter_mut().zip(&class_load) {
            *ema = EMA_ALPHA * load + (1.0 - EMA_ALPHA) * *ema;
        }
    }

    /// Greedy load-skew rebalancing: every `rebalance_every` ticks, if
    /// the hottest shard's EMA exceeds the coldest's by the skew
    /// threshold and the hot shard has at least two classes, move its
    /// hottest class to the coldest shard. Because plans are a function
    /// of (epoch view, batch, class scheduler) and merges run in tick
    /// order, moving a class never changes any output — only where its
    /// plans are computed.
    fn maybe_rebalance(&mut self, config: &ShardConfig, now: Millis) {
        let every = config.rebalance_every;
        let shards = self.shard_ema.len();
        if shards < 2 || every == 0 || self.ticks % every != 0 {
            return;
        }
        let (mut hot, mut cold) = (0usize, 0usize);
        for s in 1..shards {
            if self.shard_ema[s] > self.shard_ema[hot] {
                hot = s;
            }
            if self.shard_ema[s] < self.shard_ema[cold] {
                cold = s;
            }
        }
        if hot == cold || self.shard_ema[hot] <= config.skew_threshold * self.shard_ema[cold] {
            return;
        }
        let mover = (0..self.assignment.len())
            .filter(|&c| self.assignment[c] == hot)
            .max_by(|&a, &b| {
                self.class_ema[a]
                    .partial_cmp(&self.class_ema[b])
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
        let hot_classes = self.assignment.iter().filter(|&&s| s == hot).count();
        let Some(mover) = mover else { return };
        if hot_classes < 2 {
            return;
        }
        self.assignment[mover] = cold;
        self.rebalances += 1;
        wisedb_obs::counter_add("wisedb_shard_rebalances_total", 1);
        wisedb_obs::instant("shard.rebalance")
            .virt(now)
            .attr_u64("class", mover as u64)
            .attr_u64("from", hot as u64)
            .attr_u64("to", cold as u64)
            .emit();
    }
}

/// Plans one shard's groups in order against the epoch view.
fn plan_lane(
    shard: usize,
    epoch: u64,
    view: &ClusterView,
    prepared: &[(usize, Prepared)],
    lane: Vec<(usize, &mut OnlineScheduler)>,
) -> Vec<Planned> {
    let mut span = wisedb_obs::span("shard.plan");
    if span.recording() {
        span.attr_u64("shard", shard as u64);
        span.attr_u64("epoch", epoch);
        span.attr_u64("groups", lane.len() as u64);
    }
    let started = Instant::now();
    let planned = lane
        .into_iter()
        .map(|(i, scheduler)| {
            let group = &prepared[i].1;
            let t0 = Instant::now();
            let result = scheduler.plan_arrivals(view, &group.batch, group.planned_at);
            (i, result, t0.elapsed().as_secs_f64())
        })
        .collect();
    drop(span);
    wisedb_obs::observe_us("wisedb_shard_plan_us", started.elapsed().as_micros() as u64);
    planned
}

/// Plans every lane of one tick: shard 0's on the calling thread, each
/// other non-empty lane on a scoped thread of its own. Each thread is
/// joined explicitly; a lane whose thread panicked answers each of its
/// groups with a typed error instead.
fn plan_tick(
    epoch: u64,
    view: &ClusterView,
    prepared: &[(usize, Prepared)],
    lanes: Vec<Vec<(usize, &mut OnlineScheduler)>>,
) -> Vec<Planned> {
    std::thread::scope(|scope| {
        let mut lanes = lanes.into_iter().enumerate();
        let home = lanes.next();
        let spawned: Vec<_> = lanes
            .filter(|(_, lane)| !lane.is_empty())
            .map(|(shard, lane)| {
                let groups: Vec<usize> = lane.iter().map(|&(i, _)| i).collect();
                let handle = scope.spawn(move || plan_lane(shard, epoch, view, prepared, lane));
                (shard, groups, handle)
            })
            .collect();
        let mut planned = match home {
            Some((shard, lane)) if !lane.is_empty() => {
                plan_lane(shard, epoch, view, prepared, lane)
            }
            _ => Vec::new(),
        };
        for (shard, groups, handle) in spawned {
            match handle.join() {
                Ok(lane) => planned.extend(lane),
                Err(_) => planned.extend(groups.into_iter().map(|i| {
                    let err = CoreError::InconsistentPlan {
                        detail: format!("shard {shard}'s planning thread panicked"),
                    };
                    (i, Err(err), 0.0)
                })),
            }
        }
        planned
    })
}

impl WorkloadService {
    /// Processes one scheduling tick: admit every group in tick order,
    /// take one epoch view of the cluster, plan the groups on their
    /// classes' shards, and merge the plans back in tick order. Returns
    /// one verdict list per input group, aligned with `groups`. A group
    /// whose class is unknown or already appeared earlier in the tick,
    /// whose template falls outside the class subset, or whose plan fails
    /// gets an `Err`; the other groups proceed (a failed group rolls back
    /// its recall, like a failed lone burst). A planning thread that
    /// panics fails its shard's groups the same way.
    ///
    /// Groups should be tick-ordered (non-decreasing first-arrival
    /// times), with each class in at most one group. A one-group tick is
    /// exactly [`offer_batch_as`](Self::offer_batch_as).
    pub fn offer_tick(&mut self, groups: &[TickGroup]) -> Vec<CoreResult<Vec<OfferOutcome>>> {
        if let [(class, arrivals)] = groups {
            return vec![self.offer_batch_as(*class, arrivals)];
        }
        if groups.is_empty() {
            return Vec::new();
        }
        let mut results: Vec<CoreResult<Vec<OfferOutcome>>> =
            groups.iter().map(|_| Ok(Vec::new())).collect();

        // Phase 1 — admit serially in tick order. Newcomers admitted by
        // earlier groups are folded into later groups' admission signals,
        // mirroring how one serial burst's own earlier arrivals gate its
        // later ones.
        let mut seen = vec![false; self.scheduler.num_classes()];
        let mut prepared: Vec<(usize, Prepared)> = Vec::new();
        let mut carried = 0usize;
        for (seq, (class, arrivals)) in groups.iter().enumerate() {
            let class = *class;
            let sla = match self.scheduler.class(class) {
                Ok(sla) => sla,
                Err(err) => {
                    results[seq] = Err(err);
                    continue;
                }
            };
            if std::mem::replace(&mut seen[class.index()], true) {
                results[seq] = Err(CoreError::RepeatedTickClass { class });
                continue;
            }
            if let Some(&(template, _)) = arrivals.iter().find(|&&(t, _)| !sla.allows(t)) {
                results[seq] = Err(CoreError::TemplateNotInClass { template, class });
                continue;
            }
            let (outcomes, admitted) =
                self.core
                    .admit_burst(class, sla.priority, arrivals, carried);
            if admitted.is_empty() {
                results[seq] = Ok(outcomes);
                continue;
            }
            carried += admitted.len();
            prepared.push((seq, self.core.prepare_batch(class, outcomes, &admitted)));
        }
        if !prepared.is_empty() {
            self.plan_and_merge(prepared, &mut results);
        }
        self.shard
            .end_tick(&self.core.config.shards, self.core.cluster.now());
        results
    }

    /// Phases 2 and 3 of [`offer_tick`](Self::offer_tick) for the groups
    /// that admitted at least one arrival.
    fn plan_and_merge(
        &mut self,
        prepared: Vec<(usize, Prepared)>,
        results: &mut [CoreResult<Vec<OfferOutcome>>],
    ) {
        // Phase 2 — one epoch view; each class's scheduler joins the lane
        // of the shard that owns it (each class has at most one group).
        self.shard.epochs += 1;
        let epoch = self.shard.epochs;
        let view = self.core.planning_view();
        let mut group_of = vec![None; self.scheduler.num_classes()];
        for (i, (_, group)) in prepared.iter().enumerate() {
            group_of[group.class.index()] = Some(i);
        }
        let mut lanes: Vec<Vec<(usize, &mut OnlineScheduler)>> =
            (0..self.core.config.shards.shards)
                .map(|_| Vec::new())
                .collect();
        for (class, scheduler) in self.scheduler.schedulers_mut().iter_mut().enumerate() {
            if let Some(i) = group_of[class] {
                lanes[self.shard.assignment[class]].push((i, scheduler));
            }
        }
        for (shard, lane) in lanes.iter().enumerate() {
            self.shard.shard_decisions[shard] += lane.len() as u64;
        }
        self.shard.decisions += prepared.len() as u64;
        wisedb_obs::counter_add("wisedb_shard_decisions_total", prepared.len() as u64);

        // Every group sits in exactly one lane, so sorting by position
        // lines the plans up with `prepared`.
        let mut plans = plan_tick(epoch, &view.cluster, &prepared, lanes);
        plans.sort_by_key(|&(i, ..)| i);

        // Phase 3 — merge in tick order: validate + apply each plan
        // against the live cluster; assignments before a plan's first
        // provision target the epoch's open VM.
        let mut merge_span = wisedb_obs::span("shard.merge");
        if merge_span.recording() {
            merge_span.attr_u64("epoch", epoch);
            merge_span.attr_u64("plans", prepared.len() as u64);
            merge_span.virt(self.core.cluster.now());
        }
        let mut loads = Vec::with_capacity(prepared.len());
        for ((seq, group), (_, planned, secs)) in prepared.into_iter().zip(plans) {
            let class = group.class;
            let load = self.core.config.shards.load(secs, group.batch.len());
            loads.push((self.shard.assignment[class.index()], class, load));
            let result = self.core.settle(group, planned, secs, &view);
            if result.is_ok() {
                self.shard.merged_plans += 1;
                wisedb_obs::counter_add("wisedb_shard_merged_plans_total", 1);
            }
            results[seq] = result;
        }
        drop(merge_span);
        self.shard.fold_load(&loads);
    }

    /// Replays a class-tagged arrival stream in ticks of up to
    /// `tick_size` arrivals: each chunk is grouped by class (one group
    /// per class, first-appearance order) and processed as one
    /// [`offer_tick`](Self::offer_tick), then the cluster drains. With
    /// `tick_size <= 1` every arrival is its own one-group tick, which is
    /// bit-identical to [`run_stream`](Self::run_stream).
    pub fn run_ticked(
        &mut self,
        stream: &[ArrivingQuery],
        tick_size: usize,
    ) -> CoreResult<StreamReport> {
        for chunk in stream.chunks(tick_size.max(1)) {
            let mut groups: Vec<TickGroup> = Vec::new();
            for q in chunk {
                match groups.iter_mut().find(|(c, _)| *c == q.class) {
                    Some((_, arrivals)) => arrivals.push((q.template, q.arrival)),
                    None => groups.push((q.class, vec![(q.template, q.arrival)])),
                }
            }
            for result in self.offer_tick(&groups) {
                result?;
            }
        }
        Ok(self.finish(Vec::new()))
    }

    /// Current class → shard assignment, indexed by [`TenantId`].
    pub fn assignment(&self) -> &[usize] {
        &self.shard.assignment
    }

    /// Aggregate tick counters: ticks, epochs, plan calls, merges,
    /// rebalances, and per-shard lanes. `decisions` and `merged_plans`
    /// are deterministic for a fixed trace and tick structure;
    /// `rebalances` is too under [`LoadSignal::BatchSize`].
    pub fn stats(&self) -> ShardStats {
        let s = &self.shard;
        let per_shard = (0..s.shard_ema.len())
            .map(|shard| ShardLaneStats {
                classes: (0..s.assignment.len())
                    .filter(|&c| s.assignment[c] == shard)
                    .map(|c| TenantId(c as u32))
                    .collect(),
                decisions: s.shard_decisions[shard],
                load_ema: s.shard_ema[shard],
            })
            .collect();
        ShardStats {
            shards: s.shard_ema.len(),
            ticks: s.ticks,
            epochs: s.epochs,
            decisions: s.decisions,
            merged_plans: s.merged_plans,
            rebalances: s.rebalances,
            per_shard,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrivals::{generate_class_stream, merge_streams, PoissonProcess, TemplateMix};
    use crate::service::RuntimeConfig;
    use wisedb_advisor::{ModelConfig, OnlineConfig};
    use wisedb_core::{GoalKind, MetricsSnapshot, PerformanceGoal, SlaClass, VmType, WorkloadSpec};

    fn spec() -> WorkloadSpec {
        WorkloadSpec::single_vm(
            vec![("T1", Millis::from_mins(2)), ("T2", Millis::from_mins(1))],
            VmType::t2_medium(),
        )
        .unwrap()
    }

    fn config() -> RuntimeConfig {
        RuntimeConfig {
            online: OnlineConfig {
                training: ModelConfig {
                    num_samples: 40,
                    sample_size: 5,
                    seed: 3,
                    ..ModelConfig::fast()
                },
                ..OnlineConfig::default()
            },
            ..RuntimeConfig::default()
        }
    }

    fn sharded(shards: ShardConfig) -> RuntimeConfig {
        RuntimeConfig { shards, ..config() }
    }

    fn three_class_service(shards: ShardConfig) -> WorkloadService {
        let spec = spec();
        let classes = three_classes(&spec);
        WorkloadService::train_classes(spec, classes, sharded(shards)).unwrap()
    }

    fn three_classes(spec: &WorkloadSpec) -> Vec<SlaClass> {
        vec![
            SlaClass::new(
                "gold",
                PerformanceGoal::paper_default(GoalKind::PerQuery, spec).unwrap(),
            )
            .with_priority(2),
            SlaClass::new(
                "silver",
                PerformanceGoal::paper_default(GoalKind::MaxLatency, spec).unwrap(),
            )
            .with_priority(1),
            SlaClass::new(
                "bronze",
                PerformanceGoal::paper_default(GoalKind::AverageLatency, spec).unwrap(),
            ),
        ]
    }

    fn tagged_stream(n_per_class: usize) -> Vec<ArrivingQuery> {
        let streams = (0..3)
            .map(|c| {
                let mut process =
                    PoissonProcess::per_second(0.02 + 0.01 * c as f64, TemplateMix::uniform(2));
                generate_class_stream(&mut process, n_per_class, 100 + c as u64, TenantId(c))
            })
            .collect();
        merge_streams(streams)
    }

    /// Decision latency is wall-clock (reported, never steering), so it is
    /// the one legitimately nondeterministic snapshot field.
    fn scrub(mut s: MetricsSnapshot) -> MetricsSnapshot {
        s.mean_decision_secs = 0.0;
        s.p95_decision_secs = 0.0;
        s
    }

    #[test]
    fn one_shard_stream_is_bit_identical_to_unsharded() {
        let spec = spec();
        let goal = PerformanceGoal::paper_default(GoalKind::MaxLatency, &spec).unwrap();
        let mut process = PoissonProcess::per_second(0.05, TemplateMix::uniform(2));
        let stream = crate::arrivals::generate_stream(&mut process, 20, 77);

        let mut plain = WorkloadService::train(spec.clone(), goal.clone(), config()).unwrap();
        let plain_report = plain.run_stream(&stream).unwrap();

        let mut ticked = WorkloadService::train(spec, goal, config()).unwrap();
        let ticked_report = ticked.run_ticked(&stream, 1).unwrap();

        assert_eq!(plain_report.completions, ticked_report.completions);
        assert_eq!(scrub(plain_report.last), scrub(ticked_report.last));
        let stats = ticked.stats();
        assert_eq!(stats.shards, 1);
        assert_eq!(stats.ticks, 20);
        assert_eq!(stats.decisions, 20);
        assert_eq!(stats.merged_plans, 20);
        assert_eq!(stats.epochs, 0, "one-group ticks plan inline");
    }

    #[test]
    fn multi_group_ticks_are_deterministic_across_shard_counts() {
        let spec = spec();
        let classes = three_classes(&spec);
        let stream = tagged_stream(8);

        let mut reports = Vec::new();
        let mut stats = Vec::new();
        for shards in [1usize, 2, 3] {
            let mut svc = WorkloadService::train_classes(
                spec.clone(),
                classes.clone(),
                sharded(ShardConfig::with_shards(shards)),
            )
            .unwrap();
            reports.push(svc.run_ticked(&stream, 4).unwrap());
            stats.push(svc.stats());
        }
        let last = scrub(reports[0].last.clone());
        for report in &reports[1..] {
            assert_eq!(reports[0].completions, report.completions);
            assert_eq!(last, scrub(report.last.clone()));
        }
        // The tick structure (and hence the plan-call count) is also
        // independent of the shard count.
        assert_eq!(stats[0].decisions, stats[1].decisions);
        assert_eq!(stats[1].decisions, stats[2].decisions);
        assert_eq!(stats[0].merged_plans, stats[2].merged_plans);
        assert_eq!(last.completed, 24);
    }

    #[test]
    fn ticked_replay_matches_per_arrival_replay_for_singleton_ticks() {
        let spec = spec();
        let classes = three_classes(&spec);
        let stream = tagged_stream(5);

        let mut plain =
            WorkloadService::train_classes(spec.clone(), classes.clone(), config()).unwrap();
        let plain_report = plain.run_stream(&stream).unwrap();

        let mut two =
            WorkloadService::train_classes(spec, classes, sharded(ShardConfig::with_shards(2)))
                .unwrap();
        let two_report = two.run_ticked(&stream, 1).unwrap();

        assert_eq!(plain_report.completions, two_report.completions);
        assert_eq!(scrub(plain_report.last), scrub(two_report.last));
    }

    #[test]
    fn rebalancer_moves_classes_without_perturbing_outputs() {
        let spec = spec();
        let classes = three_classes(&spec);
        let stream = tagged_stream(10);
        let run = |shard_config: ShardConfig| {
            let mut svc = WorkloadService::train_classes(
                spec.clone(),
                classes.clone(),
                sharded(shard_config),
            )
            .unwrap();
            let report = svc.run_ticked(&stream, 3).unwrap();
            (report, svc.stats())
        };

        // BatchSize is the deterministic signal; an aggressive cadence and
        // threshold force moves on the skewed per-class tick sizes.
        let eager = ShardConfig {
            shards: 2,
            rebalance_every: 2,
            skew_threshold: 1.01,
            signal: LoadSignal::BatchSize,
        };
        let frozen = ShardConfig {
            rebalance_every: 0,
            ..eager.clone()
        };
        let (moved, moved_stats) = run(eager);
        let (still, still_stats) = run(frozen);

        assert!(moved_stats.rebalances > 0, "the skewed trace forces a move");
        assert_eq!(still_stats.rebalances, 0);
        assert_eq!(moved.completions, still.completions);
        assert_eq!(scrub(moved.last), scrub(still.last));
        assert_eq!(moved_stats.decisions, still_stats.decisions);
    }

    #[test]
    fn tick_groups_fail_independently() {
        let mut svc = three_class_service(ShardConfig::with_shards(2));
        let at = Millis::from_secs(5);
        let results = svc.offer_tick(&[
            (TenantId(0), vec![(TemplateId(0), at)]),
            (TenantId(9), vec![(TemplateId(0), at)]),
            (TenantId(1), vec![(TemplateId(1), at)]),
        ]);
        assert_eq!(results.len(), 3);
        assert_eq!(results[0].as_ref().unwrap(), &vec![OfferOutcome::Admitted]);
        assert!(matches!(
            results[1],
            Err(CoreError::UnknownTenantClass { class: TenantId(9) })
        ));
        assert_eq!(results[2].as_ref().unwrap(), &vec![OfferOutcome::Admitted]);
        svc.drain();
        assert_eq!(svc.snapshot().completed, 2);
    }

    #[test]
    fn a_repeated_class_fails_its_later_group_only() {
        // A class may plan at most once per tick: its second group is
        // rejected before anything of it is admitted, on any shard count.
        for shards in [1usize, 2] {
            let mut svc = three_class_service(ShardConfig::with_shards(shards));
            let at = Millis::from_secs(5);
            let results = svc.offer_tick(&[
                (TenantId(0), vec![(TemplateId(0), at)]),
                (TenantId(1), vec![(TemplateId(1), at)]),
                (TenantId(0), vec![(TemplateId(1), at), (TemplateId(0), at)]),
            ]);
            assert_eq!(results.len(), 3);
            assert_eq!(results[0].as_ref().unwrap(), &vec![OfferOutcome::Admitted]);
            assert_eq!(results[1].as_ref().unwrap(), &vec![OfferOutcome::Admitted]);
            assert!(matches!(
                results[2],
                Err(CoreError::RepeatedTickClass { class: TenantId(0) })
            ));
            let stats = svc.stats();
            assert_eq!(
                (stats.epochs, stats.decisions, stats.merged_plans),
                (1, 2, 2)
            );
            svc.drain();
            let last = svc.snapshot();
            assert_eq!((last.admitted, last.rejected, last.completed), (2, 0, 2));
        }
    }

    #[test]
    fn a_panicking_planning_thread_fails_only_its_own_groups() {
        // Class 0 plans on shard 0 (the calling thread), class 1 on a
        // scoped thread whose batch names a template outside the spec, so
        // its planner panics. The join turns that into a typed error for
        // class 1's group alone.
        let mut svc = three_class_service(ShardConfig::with_shards(2));
        let group = |class: u32, template: u32| Prepared {
            class: TenantId(class),
            outcomes: vec![OfferOutcome::Admitted],
            admitted: 1,
            planned_at: Millis::from_secs(1),
            first_id: class as usize,
            batch: vec![wisedb_advisor::online::PendingArrival {
                id: wisedb_core::QueryId(class),
                template: TemplateId(template),
                arrival: Millis::from_secs(1),
            }],
            recalled: Vec::new(),
        };
        let prepared = vec![(0, group(0, 0)), (1, group(1, 99))];
        let (home, away) = svc.scheduler.schedulers_mut().split_at_mut(1);
        let lanes = vec![vec![(0, &mut home[0])], vec![(1, &mut away[0])]];
        let view = ClusterView::default();
        let mut planned = plan_tick(1, &view, &prepared, lanes);
        planned.sort_by_key(|&(i, ..)| i);
        assert_eq!(planned.len(), 2);
        assert!(planned[0].1.is_ok(), "shard 0's group plans normally");
        assert!(matches!(
            &planned[1].1,
            Err(CoreError::InconsistentPlan { detail }) if detail.contains("panicked")
        ));
    }

    #[test]
    fn swap_model_rejects_mismatches_and_applies_matches() {
        let mut svc = three_class_service(ShardConfig::with_shards(2));

        // A model trained for class 1's goal fits class 1, not class 0.
        let goal = svc.classes()[1].goal.clone();
        let generator = wisedb_advisor::ModelGenerator::new(
            svc.scheduler(TenantId(1))
                .unwrap()
                .base_model()
                .spec_handle()
                .clone(),
            goal,
            ModelConfig {
                num_samples: 40,
                sample_size: 5,
                seed: 9,
                ..ModelConfig::fast()
            },
        );
        let (model, artifacts) = generator.train_with_artifacts().unwrap();
        assert!(matches!(
            svc.swap_model(TenantId(0), model.clone(), artifacts.clone()),
            Err(CoreError::ModelMismatch { .. })
        ));
        assert!(matches!(
            svc.swap_model(TenantId(9), model.clone(), artifacts.clone()),
            Err(CoreError::UnknownTenantClass { .. })
        ));
        svc.swap_model(TenantId(1), model, artifacts).unwrap();
        assert!(svc
            .offer_as(TemplateId(0), TenantId(1), Millis::from_secs(1))
            .unwrap());
    }
}
