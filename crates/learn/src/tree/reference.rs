//! The reference split search: the builder as it was before screening —
//! row-index orders only, and the exact `entropy`-based gain ratio of every
//! candidate boundary. The oracle tests below train both builders on the
//! same data and require identical flat trees.

use proptest::prelude::*;
use wisedb_core::{
    Millis, PenaltyRate, PerformanceGoal, QueryTemplate, VmType, Workload, WorkloadSpec,
};
use wisedb_search::AStarSearcher;

use super::*;
use crate::features::FeatureSchema;

/// Trains with the reference builder.
pub(super) fn train(dataset: &Dataset, params: &TreeParams) -> DecisionTree {
    assert!(!dataset.is_empty(), "cannot train on an empty dataset");
    let n = dataset.len();
    let num_features = dataset.schema.num_features();
    let mut indices: Vec<usize> = (0..n).collect();
    let orders: Vec<Vec<u32>> = (0..num_features)
        .map(|f| {
            let mut order: Vec<u32> = (0..n as u32).collect();
            order.sort_unstable_by(|&a, &b| {
                dataset.rows[a as usize][f].total_cmp(&dataset.rows[b as usize][f])
            });
            order
        })
        .collect();
    let mut builder = Reference {
        dataset,
        params,
        tree: DecisionTree {
            feature: Vec::new(),
            threshold: Vec::new(),
            right: Vec::new(),
            samples: Vec::new(),
            errors: Vec::new(),
            num_features,
            num_labels: dataset.schema.num_labels(),
        },
        orders,
        in_left: vec![false; n],
        scratch: vec![0u32; n],
    };
    builder.build(&mut indices, 0, 0);
    builder.tree
}

struct Reference<'a> {
    dataset: &'a Dataset,
    params: &'a TreeParams,
    tree: DecisionTree,
    orders: Vec<Vec<u32>>,
    in_left: Vec<bool>,
    scratch: Vec<u32>,
}

struct Choice {
    feature: usize,
    threshold: f64,
    gain_ratio: f64,
}

impl Reference<'_> {
    fn build(&mut self, idx: &mut [usize], lo: usize, depth: usize) -> f64 {
        let counts = label_counts(
            &idx.iter()
                .map(|&i| self.dataset.labels[i])
                .collect::<Vec<_>>(),
            self.dataset.schema.num_labels(),
        );
        let (majority, majority_count) = argmax(&counts);
        let errors = idx.len() - majority_count;
        let leaf_errs =
            errors as f64 + add_errs(idx.len() as f64, errors as f64, self.params.confidence);
        let at = self.tree.feature.len();
        if errors == 0 || idx.len() < self.params.min_split || depth >= self.params.max_depth {
            self.tree.push_leaf(majority, idx.len(), errors);
            return leaf_errs;
        }
        let Some(split) = self.best_split(lo, idx.len(), &counts) else {
            self.tree.push_leaf(majority, idx.len(), errors);
            return leaf_errs;
        };
        let mut mid = 0;
        for i in 0..idx.len() {
            if self.dataset.rows[idx[i]][split.feature] < split.threshold {
                idx.swap(i, mid);
                mid += 1;
            }
        }
        for &r in &idx[..mid] {
            self.in_left[r] = true;
        }
        let n = idx.len();
        for order in &mut self.orders {
            let span = &mut order[lo..lo + n];
            let mut keep = 0usize;
            let mut spill = 0usize;
            for i in 0..n {
                let r = span[i];
                if self.in_left[r as usize] {
                    span[keep] = r;
                    keep += 1;
                } else {
                    self.scratch[spill] = r;
                    spill += 1;
                }
            }
            span[keep..].copy_from_slice(&self.scratch[..spill]);
        }
        for &r in &idx[..mid] {
            self.in_left[r] = false;
        }
        self.tree
            .push_split(split.feature, split.threshold, idx.len());
        let (left_idx, right_idx) = idx.split_at_mut(mid);
        let left_errs = self.build(left_idx, lo, depth + 1);
        let right_at = self.tree.feature.len();
        let right_errs = self.build(right_idx, lo + mid, depth + 1);
        self.tree.right[at] = right_at as u32;
        let subtree_errs = left_errs + right_errs;
        if self.params.prune && leaf_errs <= subtree_errs + 0.1 {
            self.tree.truncate(at);
            self.tree.push_leaf(majority, idx.len(), errors);
            return leaf_errs;
        }
        subtree_errs
    }

    fn best_split(&self, lo: usize, len: usize, counts: &[usize]) -> Option<Choice> {
        let n = len as f64;
        let base_entropy = entropy(counts, len);
        let mut best: Option<Choice> = None;
        let mut left_counts = vec![0usize; counts.len()];
        let mut right_counts = vec![0usize; counts.len()];
        for feature in 0..self.dataset.schema.num_features() {
            let order = &self.orders[feature][lo..lo + len];
            left_counts.iter_mut().for_each(|c| *c = 0);
            right_counts.copy_from_slice(counts);
            let mut left_n = 0usize;
            for w in 0..order.len() - 1 {
                let row = order[w] as usize;
                let label = self.dataset.labels[row];
                left_counts[label] += 1;
                right_counts[label] -= 1;
                left_n += 1;
                let v = self.dataset.rows[row][feature];
                let v_next = self.dataset.rows[order[w + 1] as usize][feature];
                if v_next <= v {
                    continue;
                }
                let right_n = len - left_n;
                if left_n < self.params.min_leaf || right_n < self.params.min_leaf {
                    continue;
                }
                let h_left = entropy(&left_counts, left_n);
                let h_right = entropy(&right_counts, right_n);
                let gain =
                    base_entropy - (left_n as f64 / n) * h_left - (right_n as f64 / n) * h_right;
                if gain <= 1e-12 {
                    continue;
                }
                let pl = left_n as f64 / n;
                let pr = right_n as f64 / n;
                let split_info = -(pl * pl.log2() + pr * pr.log2());
                if split_info <= 1e-12 {
                    continue;
                }
                let gain_ratio = gain / split_info;
                let better = match &best {
                    None => true,
                    Some(b) => {
                        gain_ratio > b.gain_ratio + 1e-12
                            || (gain_ratio > b.gain_ratio - 1e-12 && feature < b.feature)
                    }
                };
                if better {
                    best = Some(Choice {
                        feature,
                        threshold: midpoint(v, v_next),
                        gain_ratio,
                    });
                }
            }
        }
        best
    }
}

// ---------------------------------------------------------------------------
// Oracle tests
// ---------------------------------------------------------------------------

/// Bit-level tree identity: `f64` fields compared by bits, so even a
/// threshold differing in the last place fails.
fn assert_same(screened: &DecisionTree, reference: &DecisionTree) {
    let bits = |t: &DecisionTree| t.threshold.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(screened.feature, reference.feature, "split features");
    assert_eq!(bits(screened), bits(reference), "thresholds");
    assert_eq!(screened, reference);
}

fn assert_oracle(dataset: &Dataset, params: &TreeParams) {
    assert_same(
        &DecisionTree::train(dataset, params),
        &train(dataset, params),
    );
}

/// SplitMix64: a tiny deterministic generator for the random datasets.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// A random dataset over `templates` (so `1 + 4·templates` columns and
/// `templates + 1` labels). Columns draw from few distinct values (heavy
/// ties), mix in ±∞, ±NaN and −0, and labels follow a column with noise,
/// so trees grow deep enough to exercise many nodes.
fn random_dataset(seed: u64, rows: usize, templates: usize) -> Dataset {
    let mut rng = Mix(seed);
    let schema = FeatureSchema {
        num_templates: templates,
        num_vm_types: 1,
    };
    let nf = schema.num_features();
    let nl = schema.num_labels() as u64;
    let distinct: Vec<u64> = (0..nf).map(|_| 1 + rng.below(12)).collect();
    let mut data = Dataset::new(schema);
    for _ in 0..rows {
        let row: Vec<f64> = distinct
            .iter()
            .map(|&d| match rng.below(40) {
                0 | 1 => f64::INFINITY,
                2 | 3 => f64::NEG_INFINITY,
                4 => f64::NAN,
                5 => -f64::NAN,
                6 => -0.0,
                _ => rng.below(d) as f64 * 0.5,
            })
            .collect();
        let signal = row[(seed as usize) % nf];
        let label = if rng.below(4) == 0 || !signal.is_finite() {
            rng.below(nl)
        } else {
            (signal * 2.0) as u64 % nl
        };
        data.rows.push(row);
        data.labels.push(label as usize);
    }
    data
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    #[test]
    fn screened_trees_match_the_reference(
        seed in 0u64..u64::MAX,
        rows in 1usize..400,
        templates in 1usize..24,
        (min_leaf, min_split) in (0usize..5, 0usize..8),
        max_depth in 0usize..12,
        prune in 0u8..2,
    ) {
        let dataset = random_dataset(seed, rows, templates);
        let params = TreeParams {
            max_depth: if max_depth == 11 { 40 } else { max_depth },
            min_leaf,
            min_split,
            prune: prune == 1,
            ..TreeParams::default()
        };
        assert_oracle(&dataset, &params);
    }
}

/// Mirror-image splits have equal gain ratios in real arithmetic but not
/// in floating point: of a 12/20 node, `(11, 15 | 1, 5)` and
/// `(1, 5 | 11, 15)` differ by about `1e-17`, far inside `TIE_EPS`. The
/// later feature's candidate must reach the exact path (and lose the tie);
/// it is only one of two candidates, so the root node runs exactly two
/// exact evaluations.
#[test]
fn a_near_tie_reaches_the_exact_path() {
    let mut rows = Vec::new();
    let mut labels = Vec::new();
    for (label, total, f0_left, f1_left) in [(0usize, 12, 11, 1), (1, 20, 15, 5)] {
        for i in 0..total {
            let f0 = if i < f0_left { 0.0 } else { 1.0 };
            let f1 = if i < f1_left { 0.0 } else { 1.0 };
            rows.push(vec![f0, f1]);
            labels.push(label);
        }
    }
    let schema = FeatureSchema {
        num_templates: 2,
        num_vm_types: 0,
    };
    for r in &mut rows {
        r.resize(schema.num_features(), 0.0);
    }
    let dataset = Dataset {
        schema,
        rows,
        labels,
    };
    let exact = |left: [usize; 2]| {
        let counts = [12usize, 20];
        let right = [counts[0] - left[0], counts[1] - left[1]];
        let (ln, rn) = (left[0] + left[1], right[0] + right[1]);
        let n = 32.0;
        let gain = entropy(&counts, 32)
            - (ln as f64 / n) * entropy(&left, ln)
            - (rn as f64 / n) * entropy(&right, rn);
        let (pl, pr) = (ln as f64 / n, rn as f64 / n);
        gain / -(pl * pl.log2() + pr * pr.log2())
    };
    let (first, second) = (exact([11, 15]), exact([1, 5]));
    assert_ne!(
        first, second,
        "the two gain ratios differ in floating point"
    );
    assert!((first - second).abs() < TIE_EPS, "…but only within TIE_EPS");

    let params = TreeParams {
        max_depth: 1,
        prune: false,
        ..TreeParams::default()
    };
    let mut builder = Builder::new(&dataset, &params);
    let features: Vec<u32> = (0..schema.num_features() as u32).collect();
    builder.build(0, 32, vec![12, 20], &features, 0);
    assert_eq!(builder.exact_evals, 2, "both candidates evaluated exactly");
    assert_eq!(builder.tree.root_split().map(|(f, _)| f), Some(0));
    assert_same(&builder.tree, &train(&dataset, &params));
}

/// A TPC-H-like spec: `n` templates of 2–6 minutes on one VM type.
fn tpch_like(n: usize) -> WorkloadSpec {
    let templates = (0..n)
        .map(|i| {
            let secs = 120 + 240 * i as u64 / (n as u64 - 1);
            (format!("T{i}"), Millis::from_secs(secs))
        })
        .collect::<Vec<_>>();
    let borrowed: Vec<(&str, Millis)> = templates.iter().map(|(s, m)| (s.as_str(), *m)).collect();
    WorkloadSpec::single_vm(borrowed, VmType::t2_medium()).unwrap()
}

/// A real training set: `samples` random `queries`-query workloads solved
/// optimally by A*, one row per decision along each optimal path.
fn real_dataset(
    spec: &WorkloadSpec,
    goal: &PerformanceGoal,
    samples: usize,
    queries: usize,
) -> Dataset {
    let mut rng = Mix(0x5EED_0013);
    let solver = AStarSearcher::new(spec, goal);
    let paths: Vec<_> = (0..samples)
        .map(|_| {
            let mut counts = vec![0u32; spec.num_templates()];
            for _ in 0..queries {
                counts[rng.below(spec.num_templates() as u64) as usize] += 1;
            }
            solver.solve(&Workload::from_counts(&counts)).unwrap()
        })
        .collect();
    Dataset::from_paths(spec, goal, &paths)
}

/// Fixed real training sets: every goal kind on the TPC-H-like spec, plus
/// an Average goal on a spec augmented with aged template variants (the
/// online scheduler's Reuse retrains), under default and unpruned
/// parameters.
#[test]
fn real_training_sets_match_the_reference() {
    let spec = tpch_like(6);
    let rate = PenaltyRate::CENT_PER_SECOND;
    let goals = [
        PerformanceGoal::PerQuery {
            deadlines: spec
                .templates()
                .iter()
                .map(|t| Millis::from_millis(t.latencies[0].unwrap().as_millis() * 3))
                .collect(),
            rate,
        },
        PerformanceGoal::MaxLatency {
            deadline: Millis::from_mins(12),
            rate,
        },
        PerformanceGoal::AverageLatency {
            target: Millis::from_mins(8),
            rate,
        },
        PerformanceGoal::Percentile {
            percent: 80.0,
            deadline: Millis::from_mins(10),
            rate,
        },
    ];
    let mut aged = spec.clone();
    for (base, wait) in [(1usize, 30u64), (4, 60)] {
        let t = &spec.templates()[base];
        let wait = Millis::from_secs(wait);
        aged = aged
            .with_extra_template(QueryTemplate {
                name: format!("{}+{}", t.name, wait),
                latencies: t.latencies.iter().map(|l| l.map(|l| l + wait)).collect(),
            })
            .unwrap();
    }
    let average = goals[2].clone();
    let cases = goals
        .iter()
        .map(|g| (&spec, g))
        .chain(std::iter::once((&aged, &average)));
    for (spec, goal) in cases {
        let dataset = real_dataset(spec, goal, 40, 7);
        assert!(dataset.len() > 200, "{} rows", dataset.len());
        for params in [
            TreeParams::default(),
            TreeParams {
                prune: false,
                min_leaf: 1,
                min_split: 2,
                ..TreeParams::default()
            },
        ] {
            assert_oracle(&dataset, &params);
        }
    }
}
