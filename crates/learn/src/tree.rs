//! A hand-rolled C4.5/J48-style decision-tree learner.
//!
//! The paper trains its workload-management models with Weka's J48 (§7.1),
//! i.e. C4.5: top-down induction with gain-ratio split selection and
//! confidence-based (pessimistic) error pruning. No adequate Rust crate
//! exists for this, so the learner is implemented here from scratch:
//!
//! * binary splits `feature < threshold` on numeric columns (booleans are
//!   encoded 0/1, infinities — the `cost-of-X = ∞` case — sort after every
//!   finite value and split off naturally);
//! * split selection by **gain ratio** (information gain normalized by split
//!   entropy), C4.5's guard against many-valued features;
//! * **pessimistic pruning** with the Wilson-style upper confidence bound on
//!   the leaf error rate (J48's `addErrs`, default CF = 0.25), applied
//!   bottom-up during induction (subtree replacement; subtree raising is not
//!   implemented).
//!
//! Induction presorts each feature column once at the root and keeps every
//! node's rows contiguous and value-sorted in per-feature columns (row ids
//! and value ranks) by stably partitioning the node's span at each split, so
//! split search is a linear scan instead of an `O(n log n)` per-node,
//! per-feature sort. Candidate thresholds sit between distinct values and
//! their prefix label counts are tie-order independent, so this picks
//! exactly the splits the sort-per-node builder picked. Each candidate is
//! screened in O(1) with exact fixed-point sums of `c·log₂c`, and only the
//! few the screen cannot rule out are evaluated with the exact entropy
//! arithmetic — see [`SCREEN_MARGIN`] for why no split choice can change.
//!
//! The trained tree is stored **flat**: a structure-of-arrays in preorder,
//! with the left child of node `i` implicitly at `i + 1` and the right child
//! index stored explicitly. `predict` — which sits on the per-arrival hot
//! path of `WorkloadService`/`MultiScheduler` — is a tight iterative loop
//! over three contiguous arrays with no recursion or pointer chasing.

use serde::{Deserialize, Serialize, Value};

use crate::dataset::Dataset;

/// Induction and pruning parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TreeParams {
    /// Maximum tree depth (root = 0).
    pub max_depth: usize,
    /// Minimum number of training examples in each child of a split
    /// (J48's `minNumObj`, default 2).
    pub min_leaf: usize,
    /// Minimum number of examples at a node to attempt a split.
    pub min_split: usize,
    /// Whether to apply pessimistic pruning.
    pub prune: bool,
    /// Pruning confidence factor (J48's `CF`, default 0.25; smaller prunes
    /// more aggressively).
    pub confidence: f64,
}

impl Default for TreeParams {
    fn default() -> Self {
        TreeParams {
            max_depth: 40,
            min_leaf: 2,
            min_split: 4,
            prune: true,
            confidence: 0.25,
        }
    }
}

/// Sentinel in the `feature` array marking a leaf node.
const LEAF: u32 = u32::MAX;

/// A trained decision tree mapping feature vectors to decision labels.
///
/// Nodes live in preorder in parallel arrays: node `i` is a leaf iff
/// `feature[i] == u32::MAX`, in which case `right[i]` holds its label;
/// otherwise `feature[i]`/`threshold[i]` encode the test
/// `features[feature] < threshold`, the left (`<`) child is at `i + 1` and
/// the right child at `right[i]`. `samples`/`errors` carry the per-leaf
/// training statistics shown by [`DecisionTree::render`] (splits store their
/// sample count and zero errors by convention, so trees rebuilt from the
/// legacy recursive JSON form compare equal to freshly trained ones).
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionTree {
    feature: Vec<u32>,
    threshold: Vec<f64>,
    right: Vec<u32>,
    samples: Vec<u32>,
    errors: Vec<u32>,
    num_features: usize,
    num_labels: usize,
}

impl DecisionTree {
    /// Trains a tree on `dataset`.
    ///
    /// # Panics
    /// Panics if the dataset is empty (there is nothing to learn from).
    pub fn train(dataset: &Dataset, params: &TreeParams) -> DecisionTree {
        assert!(!dataset.is_empty(), "cannot train on an empty dataset");
        let mut span = wisedb_obs::span("learn.fit_tree");
        let mut builder = Builder::new(dataset, params);
        let counts = label_counts(&dataset.labels, dataset.schema.num_labels());
        let features: Vec<u32> = (0..dataset.schema.num_features() as u32).collect();
        builder.build(0, dataset.len(), counts, &features, 0);
        let tree = builder.tree;
        if span.recording() {
            span.attr_u64("rows", dataset.len() as u64);
            span.attr_u64("nodes", tree.num_nodes() as u64);
            span.attr_u64("depth", tree.depth() as u64);
        }
        tree
    }

    /// Predicts the decision label for a feature vector.
    ///
    /// # Panics
    /// Panics if `features` is shorter than the training schema.
    #[inline]
    pub fn predict(&self, features: &[f64]) -> usize {
        assert!(
            features.len() >= self.num_features,
            "feature vector has {} columns, tree expects {}",
            features.len(),
            self.num_features
        );
        let mut i = 0usize;
        loop {
            let f = self.feature[i];
            if f == LEAF {
                return self.right[i] as usize;
            }
            i = if features[f as usize] < self.threshold[i] {
                i + 1
            } else {
                self.right[i] as usize
            };
        }
    }

    /// Fraction of `dataset` rows the tree classifies correctly.
    pub fn accuracy(&self, dataset: &Dataset) -> f64 {
        if dataset.is_empty() {
            return 1.0;
        }
        let correct = dataset
            .rows
            .iter()
            .zip(&dataset.labels)
            .filter(|(row, &label)| self.predict(row) == label)
            .count();
        correct as f64 / dataset.len() as f64
    }

    /// Height of the tree (a lone leaf has depth 0). The paper observes its
    /// trees stay shallow (h < 30), which bounds scheduling to `O(h·n)`.
    pub fn depth(&self) -> usize {
        let mut max = 0usize;
        let mut stack = vec![(0u32, 0usize)];
        while let Some((i, d)) = stack.pop() {
            let i = i as usize;
            if self.feature[i] == LEAF {
                max = max.max(d);
            } else {
                stack.push((i as u32 + 1, d + 1));
                stack.push((self.right[i], d + 1));
            }
        }
        max
    }

    /// Number of leaves.
    pub fn num_leaves(&self) -> usize {
        self.feature.iter().filter(|&&f| f == LEAF).count()
    }

    /// Total number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.feature.len()
    }

    /// Number of decision labels the tree can emit.
    pub fn num_labels(&self) -> usize {
        self.num_labels
    }

    /// The `(feature, threshold)` tested at the root, or `None` if the tree
    /// is a single leaf. Inspection hook for tests and tools now that the
    /// recursive node form is gone.
    pub fn root_split(&self) -> Option<(usize, f64)> {
        if self.feature[0] == LEAF {
            None
        } else {
            Some((self.feature[0] as usize, self.threshold[0]))
        }
    }

    /// Renders the tree as indented text, in the spirit of Figure 6.
    pub fn render(
        &self,
        feature_name: &dyn Fn(usize) -> String,
        label_name: &dyn Fn(usize) -> String,
    ) -> String {
        enum Item {
            Node(usize, usize),
            Text(usize, &'static str),
        }
        let mut out = String::new();
        let mut stack = vec![Item::Node(0, 0)];
        while let Some(item) = stack.pop() {
            match item {
                Item::Text(indent, text) => {
                    out.push_str(&format!("{}{text}\n", "  ".repeat(indent)));
                }
                Item::Node(i, indent) => {
                    let pad = "  ".repeat(indent);
                    if self.feature[i] == LEAF {
                        out.push_str(&format!(
                            "{pad}=> {} ({} samples, {} errors)\n",
                            label_name(self.right[i] as usize),
                            self.samples[i],
                            self.errors[i],
                        ));
                    } else {
                        out.push_str(&format!(
                            "{pad}{} < {:.6}?\n",
                            feature_name(self.feature[i] as usize),
                            self.threshold[i]
                        ));
                        // Preorder via LIFO: push in reverse emission order.
                        stack.push(Item::Node(self.right[i] as usize, indent + 1));
                        stack.push(Item::Text(indent, "no:"));
                        stack.push(Item::Node(i + 1, indent + 1));
                        stack.push(Item::Text(indent, "yes:"));
                    }
                }
            }
        }
        out
    }

    fn push_leaf(&mut self, label: usize, samples: usize, errors: usize) {
        self.feature.push(LEAF);
        self.threshold.push(0.0);
        self.right.push(label as u32);
        self.samples.push(samples as u32);
        self.errors.push(errors as u32);
    }

    fn push_split(&mut self, feature: usize, threshold: f64, samples: usize) -> usize {
        let at = self.feature.len();
        self.feature.push(feature as u32);
        self.threshold.push(threshold);
        self.right.push(0); // patched once the right subtree is placed
        self.samples.push(samples as u32);
        self.errors.push(0);
        at
    }

    /// Drops every node from `at` onward (the tail of the arrays is always a
    /// whole preorder subtree during construction — this is how pruning
    /// replaces a built subtree with a leaf).
    fn truncate(&mut self, at: usize) {
        self.feature.truncate(at);
        self.threshold.truncate(at);
        self.right.truncate(at);
        self.samples.truncate(at);
        self.errors.truncate(at);
    }

    /// Structural sanity for trees built from untrusted (deserialized) data:
    /// equal array lengths, labels/features in range, and every right-child
    /// index pointing strictly forward (which also guarantees `predict`
    /// terminates).
    fn validate(&self) -> Result<(), serde::Error> {
        let n = self.feature.len();
        if n == 0 {
            return Err(serde::Error::custom("decision tree has no nodes"));
        }
        if [
            self.threshold.len(),
            self.right.len(),
            self.samples.len(),
            self.errors.len(),
        ]
        .iter()
        .any(|&l| l != n)
        {
            return Err(serde::Error::custom(
                "decision tree arrays disagree on length",
            ));
        }
        for i in 0..n {
            if self.feature[i] == LEAF {
                if (self.right[i] as usize) >= self.num_labels {
                    return Err(serde::Error::custom(format!(
                        "leaf {i} label {} out of range",
                        self.right[i]
                    )));
                }
            } else {
                if (self.feature[i] as usize) >= self.num_features {
                    return Err(serde::Error::custom(format!(
                        "split {i} feature {} out of range",
                        self.feature[i]
                    )));
                }
                let r = self.right[i] as usize;
                if r <= i + 1 || r >= n {
                    return Err(serde::Error::custom(format!(
                        "split {i} right child {r} out of range"
                    )));
                }
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Serde: flat format out, flat *or* legacy recursive format in
// ---------------------------------------------------------------------------

impl Serialize for DecisionTree {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("num_features".to_owned(), self.num_features.to_value()),
            ("num_labels".to_owned(), self.num_labels.to_value()),
            ("feature".to_owned(), self.feature.to_value()),
            ("threshold".to_owned(), self.threshold.to_value()),
            ("right".to_owned(), self.right.to_value()),
            ("samples".to_owned(), self.samples.to_value()),
            ("errors".to_owned(), self.errors.to_value()),
        ])
    }
}

impl Deserialize for DecisionTree {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        let field = |name: &str| {
            v.get(name)
                .ok_or_else(|| serde::Error::custom(format!("decision tree missing `{name}`")))
        };
        let num_features = usize::from_value(field("num_features")?)?;
        let num_labels = usize::from_value(field("num_labels")?)?;
        let mut tree = DecisionTree {
            feature: Vec::new(),
            threshold: Vec::new(),
            right: Vec::new(),
            samples: Vec::new(),
            errors: Vec::new(),
            num_features,
            num_labels,
        };
        if let Some(root) = v.get("root") {
            // Legacy recursive format: `{"root": {"Split"|"Leaf": {..}}, ..}`
            // as written by models serialized before the flat representation.
            flatten_legacy(root, &mut tree)?;
        } else {
            tree.feature = Vec::from_value(field("feature")?)?;
            tree.threshold = Vec::from_value(field("threshold")?)?;
            tree.right = Vec::from_value(field("right")?)?;
            tree.samples = Vec::from_value(field("samples")?)?;
            tree.errors = Vec::from_value(field("errors")?)?;
        }
        tree.validate()?;
        Ok(tree)
    }
}

/// Rebuilds the flat preorder arrays from a legacy externally-tagged
/// `TreeNode` value (`{"Leaf": {...}}` / `{"Split": {...}}`). Split nodes
/// recover their sample count as the sum of the children's (identical to
/// what training records) and store zero errors, matching the convention in
/// [`DecisionTree::push_split`].
fn flatten_legacy(node: &Value, tree: &mut DecisionTree) -> Result<(), serde::Error> {
    let field = |obj: &Value, name: &str| -> Result<Value, serde::Error> {
        obj.get(name)
            .cloned()
            .ok_or_else(|| serde::Error::custom(format!("legacy tree node missing `{name}`")))
    };
    if let Some(leaf) = node.get("Leaf") {
        let label = usize::from_value(&field(leaf, "label")?)?;
        let samples = usize::from_value(&field(leaf, "samples")?)?;
        let errors = usize::from_value(&field(leaf, "errors")?)?;
        tree.push_leaf(label, samples, errors);
        Ok(())
    } else if let Some(split) = node.get("Split") {
        let feature = usize::from_value(&field(split, "feature")?)?;
        let threshold = f64::from_value(&field(split, "threshold")?)?;
        let at = tree.push_split(feature, threshold, 0);
        flatten_legacy(&field(split, "left")?, tree)?;
        let right = tree.feature.len();
        flatten_legacy(&field(split, "right")?, tree)?;
        tree.right[at] = right as u32;
        tree.samples[at] = tree.samples[at + 1] + tree.samples[right];
        Ok(())
    } else {
        Err(serde::Error::custom(
            "legacy tree node is neither `Leaf` nor `Split`",
        ))
    }
}

// ---------------------------------------------------------------------------
// Induction
// ---------------------------------------------------------------------------

/// Slack of the exact split comparisons: the gain floor, the split-info
/// floor and the gain-ratio improvement test.
const TIE_EPS: f64 = 1e-12;

/// Margin δ of the split screen, in bits of gain.
///
/// `best_split` evaluates every candidate boundary first with the screen
/// (`g_s`, `s_s` below) and runs the exact arithmetic (`g_e`, `s_e`: the
/// `entropy`-based gain and split info — the only path that may change the
/// chosen split) only when the screen cannot rule the candidate out. It is
/// ruled out when `g_s + δ ≤ T·s_s` with `T = fl(best + TIE_EPS)`, or, with
/// no incumbent yet, when `g_s + δ ≤ TIE_EPS`. Either test implies the
/// exact path would reject the candidate, so trees are bit-identical to
/// exact evaluation of every candidate:
///
/// Notation: `u = 2⁻⁵³`; a node has `n < 2³²` rows (row ids are `u32`)
/// and `L ≤ SCREEN_MAX_LABELS = 2¹²` labels, so every entropy is at most
/// `log₂L ≤ 12` bits and `log₂n < 32`. `H` is the node entropy as
/// `entropy` computes it, shared by both paths; `g = H − (true
/// conditional entropy)` and `s` is the true split info.
///
/// 1. *Exact path.* Each term `−p·log₂p` of `entropy` over `m ≤ L`
///    nonzero counts is off by at most `4u·p·|log₂p| + 1.45u·p` (rounding
///    `p`, a `log2` within one ulp, one product), and recursive summation
///    adds `(m−1)u·log₂m`: a child entropy is within `(L+3)·12u + 2u`. The
///    weights, products and subtractions add `72u`, so
///    `|g_e − g| ≤ 49 300u < 5.5·10⁻¹²`. `s_e` is a two-term entropy:
///    `|s_e − s| ≤ 10u`.
/// 2. *Screen.* Per node, `c·log₂c` is put on a fixed-point grid of step
///    `2⁻ᶠ ≤ 2⁻⁶⁰·n·log₂n` (the finest for which the entries fit `i64`
///    sums); an entry is within `3.1u·c·log₂c` (`log2`, product) plus one
///    step of the real value. The scan keeps `S = Σ c·log₂c` per side as
///    an **exact** integer sum of entries, so nothing accumulates along
///    the scan. The numerator of `g_s` combines at most `2L + 2` entries
///    of total magnitude `≤ 2n·log₂n`; divided by `n`, the entries
///    contribute `≤ 6.2u·32 + (2L+2)·32·2⁻⁶⁰ < 2.5·10⁻¹³`, the conversion
///    to `f64`, the scale `k = 2⁻ᶠ/n` and the product `36u`, the
///    subtraction from `H` `12u`: `|g_s − g| < 3·10⁻¹³`. Likewise
///    `s_s = log₂n − (grid[n_l] + grid[n_r])·k` is within
///    `64u + 200u + 96u + u < 5·10⁻¹⁴` of `s`.
/// 3. *Smallest split info.* A binary split's information gain cannot
///    exceed its split entropy, so a true gain ratio is at most 1. A
///    computed one exceeds 1 by at most `1.2·10⁻¹¹/s_min`, where `s_min`,
///    the split info of a one-row child (`min_leaf ≤ 1`) of a node of
///    `n < 2³²` rows, is `≥ log₂n/n > 7.4·10⁻⁹`. So every incumbent, and
///    `T`, stay below 1.002 (less than 2).
/// 4. *The test.* Rounding `g_s + δ` and `T·s_s` costs `< 16u`. If the
///    screen rules a candidate out, then `g_e ≤ g_s + 5.8·10⁻¹² ≤
///    T·s_s − δ + 16u + 5.8·10⁻¹² ≤ T·s_e + (2·5·10⁻¹⁴ + 16u +
///    5.8·10⁻¹² − δ) < T·s_e` for any `δ > 6·10⁻¹²`; where `s_e > TIE_EPS`
///    (the exact path's own floor) that gives `fl(g_e/s_e) ≤ T`, which
///    the exact path rejects. Without an incumbent,
///    `g_e ≤ TIE_EPS − δ + 5.8·10⁻¹² < TIE_EPS` likewise.
///
/// `δ = 10⁻⁹` leaves a 160× cushion over the bound (say, for a `log2`
/// further than one ulp off) and costs nothing measurable: candidates
/// within δ of the incumbent are nearly all exact ties, which must reach
/// the exact path anyway. Nodes with more than `SCREEN_MAX_LABELS` labels,
/// outside the bound's premises, evaluate every candidate exactly.
const SCREEN_MARGIN: f64 = 1e-9;

/// The label count up to which [`SCREEN_MARGIN`] is proven sufficient.
const SCREEN_MAX_LABELS: usize = 1 << 12;

/// The induction workspace. Invariant: for every feature still *active*
/// at a node (not constant over its rows), the node's rows occupy the same
/// contiguous span `[lo, lo + len)` of that feature's `orders` and `ranks`
/// columns, sorted by value — maintained by stably partitioning the span
/// at every split, so `best_split` never sorts. A feature constant at a
/// node stays constant below it, so its columns are neither scanned nor
/// partitioned again. Split choice is unaffected by tie order among equal values
/// (candidate boundaries sit between *distinct* values and the prefix
/// label counts there are order-independent), so this evaluates the exact
/// same candidates with the exact same arithmetic as a per-node sort.
struct Builder<'a> {
    dataset: &'a Dataset,
    params: &'a TreeParams,
    tree: DecisionTree,
    /// Per feature: row ids, sorted by that feature within each span.
    orders: Vec<Vec<u32>>,
    /// Per feature: `ranks[f][i]` is the dense rank of row `orders[f][i]`'s
    /// value in the root's sort order, counting up wherever the next value
    /// differs (`!=`, which along a `total_cmp` order is `!(next <=
    /// value)`). Any two entries of a sorted span then have equal ranks iff
    /// the reference scan's `next <= value` holds between them (±0 share a
    /// rank, every NaN gets its own), at half the bytes of the values.
    ranks: Vec<Vec<u32>>,
    /// `c·log₂c` for `c = 0..=rows`.
    xlogx: Vec<f64>,
    /// Scratch: the current node's fixed-point `xlogx` (see
    /// [`SCREEN_MARGIN`]).
    grid: Vec<i64>,
    /// Scratch: `in_left[row]` during a split's partition step, else false.
    in_left: Vec<bool>,
    /// Scratch for the stable partition (a span's right-side entries).
    spill_rows: Vec<u32>,
    spill_ranks: Vec<u32>,
    /// Candidates that reached the exact path.
    #[cfg(test)]
    exact_evals: usize,
}

struct SplitChoice {
    feature: usize,
    threshold: f64,
}

impl<'a> Builder<'a> {
    fn new(dataset: &'a Dataset, params: &'a TreeParams) -> Self {
        let n = dataset.len();
        let num_features = dataset.schema.num_features();
        let num_labels = dataset.schema.num_labels();
        let mut orders = Vec::with_capacity(num_features);
        let mut ranks = Vec::with_capacity(num_features);
        for f in 0..num_features {
            let mut order: Vec<u32> = (0..n as u32).collect();
            order.sort_unstable_by(|&a, &b| {
                dataset.rows[a as usize][f].total_cmp(&dataset.rows[b as usize][f])
            });
            let mut col = Vec::with_capacity(n);
            let mut rank = 0u32;
            let mut prev = f64::NAN;
            for &r in &order {
                let v = dataset.rows[r as usize][f];
                rank += u32::from(!col.is_empty() && v != prev);
                col.push(rank);
                prev = v;
            }
            ranks.push(col);
            orders.push(order);
        }
        Builder {
            dataset,
            params,
            tree: DecisionTree {
                feature: Vec::new(),
                threshold: Vec::new(),
                right: Vec::new(),
                samples: Vec::new(),
                errors: Vec::new(),
                num_features,
                num_labels,
            },
            orders,
            ranks,
            xlogx: (0..=n)
                .map(|c| {
                    if c < 2 {
                        0.0
                    } else {
                        c as f64 * (c as f64).log2()
                    }
                })
                .collect(),
            grid: vec![0; n + 1],
            in_left: vec![false; n],
            spill_rows: vec![0; n],
            spill_ranks: vec![0; n],
            #[cfg(test)]
            exact_evals: 0,
        }
    }

    /// Appends the subtree for the node occupying span `[lo, lo + len)`
    /// (label histogram `counts`; `active` lists, ascending, the features
    /// not yet known to be constant there) to the flat arrays and returns
    /// its pessimistic error estimate (per-leaf observed errors plus the
    /// confidence correction, summed bottom-up in tree order — the same
    /// quantity the recursive builder recomputed by walking each subtree).
    fn build(
        &mut self,
        lo: usize,
        len: usize,
        counts: Vec<usize>,
        active: &[u32],
        depth: usize,
    ) -> f64 {
        let (majority, majority_count) = argmax(&counts);
        let errors = len - majority_count;
        let leaf_errs = errors as f64 + add_errs(len as f64, errors as f64, self.params.confidence);
        let at = self.tree.feature.len();
        if errors == 0 || len < self.params.min_split || depth >= self.params.max_depth {
            self.tree.push_leaf(majority, len, errors);
            return leaf_errs;
        }
        // A sorted span is constant iff its ends share a rank.
        let active: Vec<u32> = active
            .iter()
            .copied()
            .filter(|&f| {
                let r = &self.ranks[f as usize];
                r[lo] != r[lo + len - 1]
            })
            .collect();
        let Some(split) = self.best_split(lo, len, &counts, &active) else {
            self.tree.push_leaf(majority, len, errors);
            return leaf_errs;
        };
        // Left = `value < threshold`, the test `predict` applies. (That is
        // the scanned prefix of the split feature's span unless the
        // boundary involves a NaN, which compares false either way.)
        let mut mid = 0;
        let mut left_counts = vec![0usize; counts.len()];
        for &row in &self.orders[split.feature][lo..lo + len] {
            let row = row as usize;
            if self.dataset.rows[row][split.feature] < split.threshold {
                self.in_left[row] = true;
                left_counts[self.dataset.labels[row]] += 1;
                mid += 1;
            }
        }
        let right_counts = counts
            .iter()
            .zip(&left_counts)
            .map(|(c, l)| c - l)
            .collect();
        for &f in &active {
            self.partition(f as usize, lo, len);
        }
        // The split feature is active, so its span now starts with the
        // left rows.
        for &row in &self.orders[split.feature][lo..lo + mid] {
            self.in_left[row as usize] = false;
        }
        self.tree.push_split(split.feature, split.threshold, len);
        let left_errs = self.build(lo, mid, left_counts, &active, depth + 1);
        let right_at = self.tree.feature.len();
        let right_errs = self.build(lo + mid, len - mid, right_counts, &active, depth + 1);
        self.tree.right[at] = right_at as u32;
        let subtree_errs = left_errs + right_errs;
        if self.params.prune {
            // J48's subtree-replacement rule (with its 0.1 slack). The whole
            // subtree sits at the tail of the arrays, so replacement is a
            // truncation.
            if leaf_errs <= subtree_errs + 0.1 {
                self.tree.truncate(at);
                self.tree.push_leaf(majority, len, errors);
                return leaf_errs;
            }
        }
        subtree_errs
    }

    /// Stably partitions feature `f`'s span `[lo, lo + len)` — rows and
    /// ranks alike — into its `in_left` rows, then the rest.
    fn partition(&mut self, f: usize, lo: usize, len: usize) {
        let rows = &mut self.orders[f][lo..lo + len];
        let ranks = &mut self.ranks[f][lo..lo + len];
        let mut keep = 0usize;
        let mut spill = 0usize;
        for i in 0..len {
            let r = rows[i];
            if self.in_left[r as usize] {
                rows[keep] = r;
                ranks[keep] = ranks[i];
                keep += 1;
            } else {
                self.spill_rows[spill] = r;
                self.spill_ranks[spill] = ranks[i];
                spill += 1;
            }
        }
        rows[keep..].copy_from_slice(&self.spill_rows[..spill]);
        ranks[keep..].copy_from_slice(&self.spill_ranks[..spill]);
    }

    /// Finds the best gain-ratio split of the node occupying span
    /// `[lo, lo + len)` over its `active` features (ascending): every
    /// candidate boundary is screened in O(1) and only those the screen
    /// cannot rule out are evaluated exactly — see [`SCREEN_MARGIN`].
    fn best_split(
        &mut self,
        lo: usize,
        len: usize,
        counts: &[usize],
        active: &[u32],
    ) -> Option<SplitChoice> {
        let n = len as f64;
        // The node's grid: the largest power-of-two scale with
        // `n·log₂n·scale ≤ 2⁶¹`, so two entries sum without overflow.
        let top = n * n.max(2.0).log2();
        let scale = 2f64.powi(61 - top.log2().ceil() as i32);
        for (g, &x) in self.grid[..=len].iter_mut().zip(&self.xlogx) {
            *g = (x * scale) as i64;
        }
        let grid = &self.grid;
        let k = 1.0 / scale / n;
        let base_entropy = entropy(counts, len);
        let log2_n = n.log2();
        let node_s: i64 = counts.iter().map(|&c| grid[c]).sum();
        let min_leaf = self.params.min_leaf;
        // Past `SCREEN_MAX_LABELS` the bound's premises fail: an infinite
        // margin sends every candidate to the exact path.
        let margin = if counts.len() <= SCREEN_MAX_LABELS {
            SCREEN_MARGIN
        } else {
            f64::INFINITY
        };
        let mut best: Option<SplitChoice> = None;
        // `fl(best gain ratio + TIE_EPS)`: what an exact candidate must
        // beat. Unused until there is an incumbent.
        let mut bar = f64::INFINITY;

        let labels = &self.dataset.labels;
        let mut left_counts = vec![0usize; counts.len()];
        let mut right_counts = vec![0usize; counts.len()];
        for &feature in active {
            let feature = feature as usize;
            let rows = &self.orders[feature][lo..lo + len];
            let ranks = &self.ranks[feature][lo..lo + len];
            left_counts.iter_mut().for_each(|c| *c = 0);
            right_counts.copy_from_slice(counts);
            // Σ grid[count] over each side's labels.
            let mut left_s = 0i64;
            let mut right_s = node_s;
            for w in 0..len - 1 {
                let label = labels[rows[w] as usize];
                let c = left_counts[label];
                left_s += grid[c + 1] - grid[c];
                left_counts[label] = c + 1;
                let c = right_counts[label];
                right_s -= grid[c] - grid[c - 1];
                right_counts[label] = c - 1;
                if ranks[w + 1] == ranks[w] {
                    continue; // not a boundary between distinct values
                }
                let left_n = w + 1;
                let right_n = len - left_n;
                if left_n < min_leaf || right_n < min_leaf {
                    continue;
                }
                // Screen. n × conditional entropy = Σ_side (n_side·log₂n_side − S_side).
                let cond = (grid[left_n] - left_s) + (grid[right_n] - right_s);
                let gain_s = base_entropy - cond as f64 * k;
                let ruled_out = if best.is_some() {
                    let split_info_s = log2_n - (grid[left_n] + grid[right_n]) as f64 * k;
                    gain_s + margin <= bar * split_info_s
                } else {
                    gain_s + margin <= TIE_EPS
                };
                if ruled_out {
                    continue;
                }
                #[cfg(test)]
                {
                    self.exact_evals += 1;
                }
                let h_left = entropy(&left_counts, left_n);
                let h_right = entropy(&right_counts, right_n);
                let gain =
                    base_entropy - (left_n as f64 / n) * h_left - (right_n as f64 / n) * h_right;
                if gain <= TIE_EPS {
                    continue;
                }
                let pl = left_n as f64 / n;
                let pr = right_n as f64 / n;
                let split_info = -(pl * pl.log2() + pr * pr.log2());
                if split_info <= TIE_EPS {
                    continue;
                }
                let gain_ratio = gain / split_info;
                // Features are scanned in ascending order, so a near-tie
                // never favours the current (later) feature.
                if best.is_none() || gain_ratio > bar {
                    bar = gain_ratio + TIE_EPS;
                    let value = |i: usize| self.dataset.rows[rows[i] as usize][feature];
                    best = Some(SplitChoice {
                        feature,
                        threshold: midpoint(value(w), value(w + 1)),
                    });
                }
            }
        }
        best
    }
}

fn label_counts(labels: &[usize], num_labels: usize) -> Vec<usize> {
    let mut counts = vec![0usize; num_labels];
    for &l in labels {
        counts[l] += 1;
    }
    counts
}

fn argmax(counts: &[usize]) -> (usize, usize) {
    let mut best = (0usize, 0usize);
    for (i, &c) in counts.iter().enumerate() {
        if c > best.1 {
            best = (i, c);
        }
    }
    best
}

/// Shannon entropy (bits) of a label distribution.
fn entropy(counts: &[usize], total: usize) -> f64 {
    if total == 0 {
        return 0.0;
    }
    let n = total as f64;
    counts
        .iter()
        .filter(|&&c| c > 0)
        .map(|&c| {
            let p = c as f64 / n;
            -p * p.log2()
        })
        .sum()
}

/// Midpoint threshold between two consecutive distinct values, robust to
/// infinities (`cost-of-X = ∞`) and float rounding. Splits are `value < t`.
fn midpoint(lo: f64, hi: f64) -> f64 {
    if !hi.is_finite() {
        // Everything finite goes left, infinite right.
        return f64::MAX;
    }
    let mid = lo + (hi - lo) / 2.0;
    if mid > lo {
        mid
    } else {
        hi
    }
}

/// J48's `addErrs`: the expected number of *additional* errors at a leaf of
/// `n` examples with `e` observed errors, at confidence factor `cf`, using
/// the upper bound of the binomial confidence interval (normal
/// approximation with continuity correction).
fn add_errs(n: f64, e: f64, cf: f64) -> f64 {
    if cf > 0.5 {
        return 0.0;
    }
    if e == 0.0 {
        return n * (1.0 - cf.powf(1.0 / n));
    }
    if e < 1.0 {
        let base = n * (1.0 - cf.powf(1.0 / n));
        return base + e * (add_errs(n, 1.0, cf) - base);
    }
    if e + 0.5 >= n {
        return (n - e).max(0.0);
    }
    let z = normal_inverse(1.0 - cf);
    let f = (e + 0.5) / n;
    let r = (f + z * z / (2.0 * n) + z * (f / n - f * f / n + z * z / (4.0 * n * n)).sqrt())
        / (1.0 + z * z / n);
    (r * n) - e
}

/// Inverse of the standard normal CDF (Acklam's rational approximation,
/// relative error < 1.15e-9 over (0, 1)).
fn normal_inverse(p: f64) -> f64 {
    assert!(p > 0.0 && p < 1.0, "normal_inverse domain is (0, 1)");
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.383577518672690e+02,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;
    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    }
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::FeatureSchema;

    /// A dataset with a hand-built schema (bypassing feature extraction) so
    /// learner behaviour can be tested in isolation.
    fn synthetic(rows: Vec<Vec<f64>>, labels: Vec<usize>, num_labels_hint: usize) -> Dataset {
        // Schema sized so num_features/num_labels are large enough.
        let num_features = rows.first().map(|r| r.len()).unwrap_or(1);
        // num_features = 1 + 4t  =>  t = (f-1)/4; ensure at least hint labels.
        let t = ((num_features.saturating_sub(1)) / 4).max(num_labels_hint);
        let schema = FeatureSchema {
            num_templates: t,
            num_vm_types: 1,
        };
        let mut padded = rows;
        for r in &mut padded {
            r.resize(schema.num_features(), 0.0);
        }
        Dataset {
            schema,
            rows: padded,
            labels,
        }
    }

    #[test]
    fn learns_a_single_threshold() {
        // label = value >= 5.
        let rows: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64]).collect();
        let labels: Vec<usize> = (0..10).map(|i| usize::from(i >= 5)).collect();
        let ds = synthetic(rows, labels, 2);
        let tree = DecisionTree::train(&ds, &TreeParams::default());
        assert_eq!(tree.accuracy(&ds), 1.0);
        assert_eq!(tree.predict(&vec![3.0; ds.schema.num_features()]), 0);
        assert_eq!(tree.predict(&vec![7.0; ds.schema.num_features()]), 1);
        assert!(tree.depth() >= 1);
    }

    #[test]
    fn picks_the_informative_feature() {
        // Feature 0 is noise; feature 1 decides the label.
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..40 {
            let noise = (i * 7 % 11) as f64;
            let signal = if i % 2 == 0 { 0.0 } else { 10.0 };
            rows.push(vec![noise, signal]);
            labels.push(i % 2);
        }
        let ds = synthetic(rows, labels, 2);
        let tree = DecisionTree::train(&ds, &TreeParams::default());
        assert_eq!(tree.accuracy(&ds), 1.0);
        match tree.root_split() {
            Some((feature, _)) => assert_eq!(feature, 1),
            None => panic!("expected a split at the root"),
        }
    }

    #[test]
    fn handles_infinite_feature_values() {
        // cost-like feature: finite => label 0, infinite => label 1.
        let rows = vec![
            vec![1.0],
            vec![2.0],
            vec![3.0],
            vec![f64::INFINITY],
            vec![f64::INFINITY],
            vec![f64::INFINITY],
        ];
        let labels = vec![0, 0, 0, 1, 1, 1];
        let ds = synthetic(rows, labels, 2);
        let tree = DecisionTree::train(
            &ds,
            &TreeParams {
                min_split: 2,
                min_leaf: 1,
                ..TreeParams::default()
            },
        );
        assert_eq!(tree.accuracy(&ds), 1.0);
        let nf = ds.schema.num_features();
        assert_eq!(tree.predict(&vec![100.0; nf]), 0);
        assert_eq!(tree.predict(&vec![f64::INFINITY; nf]), 1);
    }

    #[test]
    fn pruning_collapses_noise_splits() {
        // Labels are pure noise: an unpruned tree might split; a pruned one
        // should collapse to (or stay) a single leaf.
        let rows: Vec<Vec<f64>> = (0..50).map(|i| vec![(i % 7) as f64]).collect();
        let labels: Vec<usize> = (0..50).map(|i| (i * 13 + 5) % 2).collect();
        let ds = synthetic(rows, labels, 2);
        let pruned = DecisionTree::train(&ds, &TreeParams::default());
        let unpruned = DecisionTree::train(
            &ds,
            &TreeParams {
                prune: false,
                min_leaf: 1,
                min_split: 2,
                ..TreeParams::default()
            },
        );
        assert!(pruned.num_nodes() <= unpruned.num_nodes());
        assert!(pruned.num_leaves() <= 3, "noise should prune hard");
    }

    #[test]
    fn max_depth_and_min_leaf_are_respected() {
        let rows: Vec<Vec<f64>> = (0..64).map(|i| vec![i as f64]).collect();
        let labels: Vec<usize> = (0..64).map(|i| (i / 8) % 2).collect();
        let ds = synthetic(rows, labels, 2);
        let tree = DecisionTree::train(
            &ds,
            &TreeParams {
                max_depth: 2,
                prune: false,
                ..TreeParams::default()
            },
        );
        assert!(tree.depth() <= 2);

        let stump = DecisionTree::train(
            &ds,
            &TreeParams {
                max_depth: 0,
                ..TreeParams::default()
            },
        );
        assert_eq!(stump.depth(), 0);
        assert_eq!(stump.num_leaves(), 1);
        assert!(stump.root_split().is_none());
    }

    #[test]
    fn multiclass_labels() {
        // Three bands -> three labels.
        let rows: Vec<Vec<f64>> = (0..30).map(|i| vec![i as f64]).collect();
        let labels: Vec<usize> = (0..30).map(|i| i / 10).collect();
        let ds = synthetic(rows, labels, 3);
        let tree = DecisionTree::train(&ds, &TreeParams::default());
        assert_eq!(tree.accuracy(&ds), 1.0);
        let nf = ds.schema.num_features();
        assert_eq!(tree.predict(&vec![5.0; nf]), 0);
        assert_eq!(tree.predict(&vec![15.0; nf]), 1);
        assert_eq!(tree.predict(&vec![25.0; nf]), 2);
    }

    #[test]
    fn flat_preorder_invariants() {
        let rows: Vec<Vec<f64>> = (0..64).map(|i| vec![i as f64, (i % 5) as f64]).collect();
        let labels: Vec<usize> = (0..64).map(|i| (i / 8) % 2).collect();
        let ds = synthetic(rows, labels, 2);
        let tree = DecisionTree::train(
            &ds,
            &TreeParams {
                prune: false,
                ..TreeParams::default()
            },
        );
        assert!(tree.validate().is_ok());
        assert_eq!(tree.num_nodes(), 2 * tree.num_leaves() - 1);
    }

    #[test]
    fn serde_round_trip() {
        let rows: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64]).collect();
        let labels: Vec<usize> = (0..20).map(|i| usize::from(i >= 10)).collect();
        let ds = synthetic(rows, labels, 2);
        let tree = DecisionTree::train(&ds, &TreeParams::default());
        let json = serde_json::to_string(&tree).unwrap();
        let back: DecisionTree = serde_json::from_str(&json).unwrap();
        assert_eq!(back, tree);
        let nf = ds.schema.num_features();
        assert_eq!(back.predict(&vec![3.0; nf]), tree.predict(&vec![3.0; nf]));
    }

    #[test]
    fn legacy_recursive_json_still_loads() {
        // A model serialized by the pre-flat representation: recursive
        // externally-tagged nodes under `root`.
        let legacy = r#"{
            "root": {"Split": {
                "feature": 0,
                "threshold": 4.5,
                "left": {"Leaf": {"label": 0, "samples": 5, "errors": 0}},
                "right": {"Split": {
                    "feature": 1,
                    "threshold": 2.0,
                    "left": {"Leaf": {"label": 1, "samples": 3, "errors": 1}},
                    "right": {"Leaf": {"label": 2, "samples": 4, "errors": 0}}
                }}
            }},
            "num_features": 9,
            "num_labels": 3
        }"#;
        let tree: DecisionTree = serde_json::from_str(legacy).unwrap();
        assert_eq!(tree.num_nodes(), 5);
        assert_eq!(tree.num_leaves(), 3);
        assert_eq!(tree.depth(), 2);
        assert_eq!(tree.root_split(), Some((0, 4.5)));
        let nf = tree.num_features;
        let mut row = vec![0.0; nf];
        assert_eq!(tree.predict(&row), 0);
        row[0] = 5.0;
        row[1] = 1.0;
        assert_eq!(tree.predict(&row), 1);
        row[1] = 3.0;
        assert_eq!(tree.predict(&row), 2);
        // Legacy loads re-serialize in the flat format and round-trip.
        let json = serde_json::to_string(&tree).unwrap();
        let back: DecisionTree = serde_json::from_str(&json).unwrap();
        assert_eq!(back, tree);
        // Render shows per-leaf stats preserved from the legacy form.
        let text = tree.render(&|f| format!("f{f}"), &|l| format!("a{l}"));
        assert!(text.contains("(3 samples, 1 errors)"));
    }

    #[test]
    fn malformed_trees_are_rejected() {
        // Right child pointing backwards must not deserialize (it would make
        // `predict` loop forever).
        let bad = r#"{
            "num_features": 2, "num_labels": 2,
            "feature": [0, 4294967295, 4294967295],
            "threshold": [1.0, 0.0, 0.0],
            "right": [0, 0, 1],
            "samples": [2, 1, 1],
            "errors": [0, 0, 0]
        }"#;
        assert!(serde_json::from_str::<DecisionTree>(bad).is_err());
        // Mismatched array lengths are rejected too.
        let ragged = r#"{
            "num_features": 2, "num_labels": 2,
            "feature": [4294967295],
            "threshold": [],
            "right": [0],
            "samples": [1],
            "errors": [0]
        }"#;
        assert!(serde_json::from_str::<DecisionTree>(ragged).is_err());
    }

    #[test]
    fn entropy_basics() {
        assert_eq!(entropy(&[10, 0], 10), 0.0);
        assert!((entropy(&[5, 5], 10) - 1.0).abs() < 1e-12);
        assert!(entropy(&[9, 1], 10) < 1.0);
        assert_eq!(entropy(&[], 0), 0.0);
    }

    #[test]
    fn normal_inverse_known_values() {
        assert!((normal_inverse(0.5)).abs() < 1e-9);
        assert!((normal_inverse(0.75) - 0.674_489_750_196_081_7).abs() < 1e-7);
        assert!((normal_inverse(0.975) - 1.959_963_984_540_054).abs() < 1e-7);
        assert!((normal_inverse(0.025) + 1.959_963_984_540_054).abs() < 1e-7);
    }

    #[test]
    fn add_errs_matches_j48_semantics() {
        // Zero observed errors still get a positive correction.
        assert!(add_errs(10.0, 0.0, 0.25) > 0.0);
        // More data, same error rate => smaller correction rate.
        let small = add_errs(10.0, 1.0, 0.25) / 10.0;
        let large = add_errs(1000.0, 100.0, 0.25) / 1000.0;
        assert!(large < small);
        // CF above 0.5 disables the correction.
        assert_eq!(add_errs(10.0, 3.0, 0.6), 0.0);
        // Nearly-all-errors leaf caps at n - e.
        assert!(add_errs(10.0, 9.6, 0.25) <= 0.4 + 1e-12);
    }

    #[test]
    fn midpoint_is_strictly_between() {
        let m = midpoint(1.0, 2.0);
        assert!(m > 1.0 && m <= 2.0);
        assert_eq!(midpoint(1.0, f64::INFINITY), f64::MAX);
        // Adjacent floats degrade gracefully to the upper value.
        let lo = 1.0f64;
        let hi = f64::from_bits(lo.to_bits() + 1);
        let m = midpoint(lo, hi);
        assert!(m > lo && m <= hi);
    }

    #[test]
    fn render_mentions_features_and_labels() {
        let rows: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64]).collect();
        let labels: Vec<usize> = (0..10).map(|i| usize::from(i >= 5)).collect();
        let ds = synthetic(rows, labels, 2);
        let tree = DecisionTree::train(&ds, &TreeParams::default());
        let text = tree.render(&|f| format!("f{f}"), &|l| format!("action{l}"));
        assert!(text.contains("f0 <"));
        assert!(text.contains("action0"));
        assert!(text.contains("action1"));
    }
}
