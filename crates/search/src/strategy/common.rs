//! Machinery shared by every search strategy.
//!
//! The strategies differ only in *which* vertex they expand next and
//! *when* they stop; everything else — state pricing, the dense state-id
//! interner, flat id-indexed tables, heap ordering, greedy completion,
//! path reconstruction, and budget accounting — lives here so exact, beam,
//! and anytime searches intern, price, and report identically.

use std::cmp::Ordering;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::time::Instant;

use wisedb_core::{Money, PerformanceGoal, WorkloadSpec};

use crate::canonical::CanonicalOrder;
use crate::decision::Decision;
use crate::heuristic::HeuristicTable;
use crate::state::{SearchState, StateKey};

use super::{
    DecisionStep, ExploredStates, HeuristicMemo, SearchConfig, SearchOutcome, SearchStats,
};

/// Float slack when comparing path costs, in dollars.
pub(crate) const G_EPS: f64 = 1e-12;

/// How many expansions pass between wall-clock checks when a time budget
/// is configured — coarse enough to keep `Instant::now` off the hot path.
pub(crate) const TIME_CHECK_MASK: u64 = 0x0FFF;

/// The shared pricing/enumeration context one [`super::Solver`] hands to
/// its strategy: the (spec, goal) pair, the configuration, the admissible
/// heuristic (base table plus optional adaptive memo), and the canonical
/// placement-order reduction when the goal admits it.
pub struct SearchCx<'a> {
    pub(crate) spec: &'a WorkloadSpec,
    pub(crate) goal: &'a PerformanceGoal,
    pub(crate) config: &'a SearchConfig,
    pub(crate) table: &'a HeuristicTable,
    pub(crate) memo: Option<&'a HeuristicMemo>,
    pub(crate) canonical: Option<&'a CanonicalOrder>,
}

impl<'a> SearchCx<'a> {
    pub(crate) fn new(
        spec: &'a WorkloadSpec,
        goal: &'a PerformanceGoal,
        config: &'a SearchConfig,
        table: &'a HeuristicTable,
        memo: Option<&'a HeuristicMemo>,
        canonical: Option<&'a CanonicalOrder>,
    ) -> Self {
        SearchCx {
            spec,
            goal,
            config,
            table,
            memo,
            canonical,
        }
    }

    /// The workload specification being scheduled.
    pub fn spec(&self) -> &WorkloadSpec {
        self.spec
    }

    /// The performance goal pricing the edges.
    pub fn goal(&self) -> &PerformanceGoal {
        self.goal
    }

    /// The active search configuration.
    pub fn config(&self) -> &SearchConfig {
        self.config
    }

    /// The admissible heuristic for a vertex, memo-combined (§5).
    ///
    /// At goal vertices the remaining cost is exactly zero; returning
    /// anything below that would let a costly goal pop before cheaper
    /// open paths (the optimality argument needs `f(goal) = g(goal)`).
    pub fn h(&self, state: &SearchState, key: &StateKey) -> f64 {
        if state.is_goal() {
            return 0.0;
        }
        let base = self.table.estimate(self.goal, state).as_dollars();
        match self.memo.and_then(|m| m.get(key)) {
            Some(extra) => base.max(extra),
            None => base,
        }
    }

    /// Whether the canonical-SPT reduction allows this placement out of
    /// `state` (always true when the reduction is disabled).
    pub fn allows(&self, state: &SearchState, decision: Decision) -> bool {
        match (decision, self.canonical) {
            (Decision::Place(t), Some(canonical)) => canonical.allows(state, t),
            _ => true,
        }
    }

    /// One-step-greedy completion: the cheapest out-edge at every vertex,
    /// comparing placements (Eq. 2) against renting plus the fresh VM's
    /// cheapest first placement. Always reaches a goal vertex, so every
    /// strategy has a complete-schedule fallback and an upper bound.
    pub fn greedy_completion(&self, initial: &SearchState, stats: SearchStats) -> SearchOutcome {
        let mut state = initial.clone();
        let mut steps = Vec::new();
        let mut cost = Money::ZERO;
        while !state.is_goal() {
            let mut best: Option<(Decision, Money)> = None;
            let consider = |d: Decision, w: Money, best: &mut Option<(Decision, Money)>| {
                if best
                    .as_ref()
                    .map(|&(_, bw)| w.total_cmp(&bw).is_lt())
                    .unwrap_or(true)
                {
                    *best = Some((d, w));
                }
            };
            for d in state.successors(self.spec) {
                match d {
                    Decision::Place(_) => {
                        if let Some(w) = state.edge_weight(self.spec, self.goal, d) {
                            consider(d, w, &mut best);
                        }
                    }
                    Decision::CreateVm(_) => {
                        // Price renting by the fee plus the cheapest first
                        // placement the fresh VM would then offer, so a
                        // penalized stack loses to opening a new VM.
                        let Some((fresh, startup)) = state.apply(self.spec, self.goal, d) else {
                            continue;
                        };
                        let next_best = self
                            .spec
                            .template_ids()
                            .filter_map(|t| {
                                fresh.edge_weight(self.spec, self.goal, Decision::Place(t))
                            })
                            .min_by(Money::total_cmp)
                            .unwrap_or(Money::ZERO);
                        consider(d, startup + next_best, &mut best);
                    }
                }
            }
            let (decision, _) = best.expect("validated spec always offers a decision");
            let (next, w) = state
                .apply(self.spec, self.goal, decision)
                .expect("successor decisions are applicable");
            steps.push(DecisionStep {
                state: state.clone(),
                decision,
            });
            cost += w;
            state = next;
        }
        SearchOutcome { steps, cost, stats }
    }

    /// The wall-clock deadline, if a time budget is configured.
    pub(crate) fn deadline(&self) -> Option<Instant> {
        self.config
            .time_limit_ms
            .map(|ms| Instant::now() + std::time::Duration::from_millis(ms))
    }
}

/// The per-search mutable tables every strategy shares: the node arena,
/// the state-id interner, and the flat id-indexed best-g / cached-h /
/// explored-g vectors.
pub(crate) struct Tables {
    pub(crate) arena: Vec<Node>,
    pub(crate) interner: Interner,
    pub(crate) best_g: Vec<f64>,
    pub(crate) h_cache: Vec<f64>,
    /// Settle-order g per id (last write wins on reopening); ids double
    /// as the index, so no hashing on the expansion path.
    pub(crate) explored_g: Vec<f64>,
}

impl Tables {
    /// Seats `initial` as the root (arena index 0) and returns its
    /// interned id and heuristic value.
    pub(crate) fn init(cx: &SearchCx<'_>, initial: &SearchState) -> (Self, u32, f64) {
        let mut t = Tables {
            arena: Vec::with_capacity(1024),
            interner: Interner::default(),
            best_g: Vec::with_capacity(1024),
            h_cache: Vec::with_capacity(1024),
            explored_g: Vec::new(),
        };
        let sid0 = t.interner.intern(initial.key(cx.spec.num_templates()));
        let h0 = cx.h(initial, &t.interner.keys[sid0 as usize]);
        *ensure_slot(&mut t.best_g, sid0, f64::INFINITY) = 0.0;
        *ensure_slot(&mut t.h_cache, sid0, f64::NAN) = h0;
        t.arena.push(Node {
            state: initial.clone(),
            parent: None,
            decision: None,
            sid: sid0,
        });
        (t, sid0, h0)
    }

    /// Records the settle-order g of an expanded vertex (adaptive reuse).
    pub(crate) fn record_explored(&mut self, sid: u32, g: f64) {
        *ensure_slot(&mut self.explored_g, sid, f64::NAN) = g;
    }
}

/// How generated successors are pruned against the strategy's current
/// upper bound on useful cost.
#[derive(Clone, Copy)]
pub(crate) enum PruneRule {
    /// Drop successors with `g + h > cutoff` (the cutoff already carries
    /// any slack): exact/beam pruning against a static or slackened bound.
    Above(f64),
    /// Drop successors with `g + h ≥ cutoff − G_EPS`: anytime's pruning —
    /// only paths that can *strictly* beat the incumbent survive.
    MustBeat(f64),
}

impl PruneRule {
    fn drops(self, f: f64) -> bool {
        match self {
            PruneRule::Above(cutoff) => f > cutoff,
            PruneRule::MustBeat(cutoff) => f >= cutoff - G_EPS,
        }
    }
}

/// One surviving successor of [`generate_successors`].
pub(crate) struct Successor {
    /// Arena index of the new vertex.
    pub(crate) idx: usize,
    /// Path cost to it.
    pub(crate) g: f64,
    /// Its (uninflated, memo-combined) heuristic value.
    pub(crate) h: f64,
    /// Whether it is a goal vertex.
    pub(crate) is_goal: bool,
}

/// Expands one vertex into the shared tables: enumerates decisions,
/// applies the canonical-order filter, prices edges, interns and dedups
/// against best-known g (counting reopenings), caches h per distinct
/// vertex, and prunes against `rule`. This is the one implementation all
/// strategies share — they differ only in what they do with the
/// survivors (exact pushes everything including goals onto its open
/// list; beam and anytime route goals straight to the incumbent).
pub(crate) fn generate_successors(
    cx: &SearchCx<'_>,
    t: &mut Tables,
    stats: &mut super::SearchStats,
    node_state: &SearchState,
    parent_idx: usize,
    parent_g: f64,
    rule: PruneRule,
) -> Vec<Successor> {
    let nt = cx.spec.num_templates();
    let mut out = Vec::new();
    for decision in node_state.successors(cx.spec) {
        if !cx.allows(node_state, decision) {
            continue;
        }
        let Some((next, weight)) = node_state.apply(cx.spec, cx.goal, decision) else {
            continue;
        };
        stats.generated += 1;
        let g2 = parent_g + weight.as_dollars();
        let sid2 = t.interner.intern(next.key(nt));
        let known_g = ensure_slot(&mut t.best_g, sid2, f64::INFINITY);
        if known_g.is_finite() {
            if g2 >= *known_g - G_EPS {
                continue;
            }
            stats.reopened += 1;
        }
        *known_g = g2;
        let h_slot = ensure_slot(&mut t.h_cache, sid2, f64::NAN);
        let h2 = if h_slot.is_nan() {
            let h = cx.h(&next, &t.interner.keys[sid2 as usize]);
            *h_slot = h;
            h
        } else {
            *h_slot
        };
        if rule.drops(g2 + h2) {
            continue;
        }
        let is_goal = next.is_goal();
        t.arena.push(Node {
            state: next,
            parent: Some(parent_idx),
            decision: Some(decision),
            sid: sid2,
        });
        out.push(Successor {
            idx: t.arena.len() - 1,
            g: g2,
            h: h2,
            is_goal,
        });
    }
    out
}

/// The Fx multiply-rotate hash (as in `rustc-hash`), for maps keyed by
/// [`StateKey`]s: one multiply per word instead of SipHash's rounds.
///
/// It is not resistant to chosen-key collisions, and needs not be: every
/// `StateKey` is derived inside the program from search states (template
/// counts, the open VM's type/wait/tail, the penalty digest), never from
/// raw client bytes. It cannot change any result either: the interner
/// hands out ids in first-seen order and the memo is only looked up, so
/// neither map is ever iterated.
#[derive(Default, Clone, Copy)]
pub(crate) struct FxHasher {
    hash: u64,
}

/// The multiplier of `rustc-hash`'s Fx hash.
const FX_SEED: u64 = 0xf135_7aea_2e62_a9c5;

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = self.hash.wrapping_add(word).wrapping_mul(FX_SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(word) ^ ((rest.len() as u64) << 59));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_u128(&mut self, i: u128) {
        self.add(i as u64);
        self.add((i >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    /// The multiply leaves its best-mixed bits at the top, while the hash
    /// table indexes buckets by the low bits: rotate them down.
    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }
}

/// Builds [`FxHasher`]s for `StateKey`-keyed maps.
pub(crate) type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// Dense state-id interner: each distinct [`StateKey`] gets a `u32` on
/// first sight. Keys are Arc-backed, so storing them twice (map + by-id
/// vector) costs reference bumps, not vector copies.
#[derive(Default)]
pub(crate) struct Interner {
    ids: HashMap<StateKey, u32, FxBuildHasher>,
    pub(crate) keys: Vec<StateKey>,
}

impl Interner {
    /// Returns the id for `key`, allocating one if unseen.
    pub(crate) fn intern(&mut self, key: StateKey) -> u32 {
        let Interner { ids, keys } = self;
        match ids.entry(key) {
            Entry::Occupied(e) => *e.get(),
            Entry::Vacant(e) => {
                let id = keys.len() as u32;
                keys.push(e.key().clone());
                e.insert(id);
                id
            }
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.keys.len()
    }
}

/// Grows `table` with `fill` so that `id` is addressable.
pub(crate) fn ensure_slot(table: &mut Vec<f64>, id: u32, fill: f64) -> &mut f64 {
    let idx = id as usize;
    if table.len() <= idx {
        table.resize(idx + 1, fill);
    }
    &mut table[idx]
}

/// One generated vertex in the search arena.
pub(crate) struct Node {
    pub(crate) state: SearchState,
    pub(crate) parent: Option<usize>,
    pub(crate) decision: Option<Decision>,
    /// Interned id of `state`'s key.
    pub(crate) sid: u32,
}

/// A priority-queue entry: `f` is whatever the strategy orders by (plain
/// `g + h` for exact, `g + w·h` for anytime), `g` the path cost, `idx` the
/// arena index.
pub(crate) struct HeapEntry {
    pub(crate) f: f64,
    pub(crate) g: f64,
    pub(crate) idx: usize,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.f == other.f && self.g == other.g && self.idx == other.idx
    }
}
impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap: invert f (smallest first); on ties,
        // prefer the deeper node (largest g), then the most recently
        // generated node (LIFO) — together these make exploration of an
        // f-plateau depth-first, reaching goal vertices quickly.
        other
            .f
            .total_cmp(&self.f)
            .then_with(|| self.g.total_cmp(&other.g))
            .then_with(|| self.idx.cmp(&other.idx))
    }
}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Walks parent links from `goal_idx` back to the root, returning the
/// decision path in application order.
pub(crate) fn reconstruct(arena: &[Node], goal_idx: usize) -> Vec<DecisionStep> {
    let mut steps = Vec::new();
    let mut idx = goal_idx;
    while let (Some(parent), Some(decision)) = (arena[idx].parent, arena[idx].decision) {
        steps.push(DecisionStep {
            state: arena[parent].state.clone(),
            decision,
        });
        idx = parent;
    }
    steps.reverse();
    steps
}

/// Converts the id-indexed settle table back to keyed pairs, in id order.
/// Keys come out of the interner by reference bump, not by copy.
pub(crate) fn finish_explored(interner: Interner, explored_g: Vec<f64>) -> ExploredStates {
    explored_g
        .into_iter()
        .enumerate()
        .filter(|(_, g)| !g.is_nan())
        .map(|(id, g)| (interner.keys[id].clone(), g))
        .collect()
}
