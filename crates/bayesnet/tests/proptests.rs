//! Property-based tests for the Bayesian network crate.

use bclean_bayesnet::{
    edit_similarity, learn_structure, levenshtein, numeric_similarity, BayesianNetwork, CompiledCpt,
    CompiledNetwork, Cpt, Dag, Factor, NodeCounts, StructureConfig,
};
use bclean_data::{dataset_from, Dataset, EncodedDataset, Value};
use proptest::prelude::*;

fn word() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[a-z0-9]{0,10}").unwrap()
}

proptest! {
    /// Levenshtein is a metric: identity, symmetry, triangle inequality.
    #[test]
    fn levenshtein_is_a_metric(a in word(), b in word(), c in word()) {
        prop_assert_eq!(levenshtein(&a, &a), 0);
        prop_assert_eq!(levenshtein(&a, &b), levenshtein(&b, &a));
        prop_assert!(levenshtein(&a, &c) <= levenshtein(&a, &b) + levenshtein(&b, &c));
        // Bounded by the longer string's length.
        prop_assert!(levenshtein(&a, &b) <= a.chars().count().max(b.chars().count()));
    }

    /// Edit and numeric similarities always fall in [0, 1] and are symmetric.
    #[test]
    fn similarities_bounded_and_symmetric(a in word(), b in word(), x in -1e6f64..1e6, y in -1e6f64..1e6) {
        let s = edit_similarity(&a, &b);
        prop_assert!((0.0..=1.0).contains(&s));
        prop_assert_eq!(s, edit_similarity(&b, &a));
        prop_assert_eq!(edit_similarity(&a, &a), 1.0);
        let ns = numeric_similarity(x, y);
        prop_assert!((0.0..=1.0).contains(&ns));
        prop_assert!((ns - numeric_similarity(y, x)).abs() < 1e-12);
    }

    /// Random edge insertions never produce a cyclic graph, and the
    /// topological order is always consistent with the edges.
    #[test]
    fn dag_stays_acyclic(edges in proptest::collection::vec((0usize..6, 0usize..6), 0..30)) {
        let mut dag = Dag::new(6);
        for (from, to) in edges {
            let _ = dag.add_edge(from, to); // errors (cycles, self-loops) are allowed
        }
        prop_assert!(dag.is_acyclic());
        let order = dag.topological_order();
        let mut pos = [0usize; 6];
        for (i, &n) in order.iter().enumerate() { pos[n] = i; }
        for (from, to) in dag.edges() {
            prop_assert!(pos[from] < pos[to]);
        }
    }

    /// CPT probabilities are valid probabilities and conditional
    /// distributions over observed support sum to ≤ 1 + ε.
    #[test]
    fn cpt_probabilities_valid(
        rows in proptest::collection::vec((0usize..3, 0usize..3), 2..30),
        alpha in 0.01f64..2.0,
    ) {
        let raw: Vec<Vec<String>> = rows.iter().map(|(a, b)| vec![format!("a{a}"), format!("b{b}")]).collect();
        let refs: Vec<Vec<&str>> = raw.iter().map(|r| r.iter().map(|s| s.as_str()).collect()).collect();
        let data = dataset_from(&["x", "y"], &refs);
        let mut dag = Dag::new(2);
        dag.add_edge(0, 1).unwrap();
        let bn = BayesianNetwork::learn(&data, dag, alpha);
        for row in data.rows() {
            let p = bn.cpt(1).prob_given_row(&row[1], row);
            prop_assert!(p > 0.0 && p <= 1.0 + 1e-9);
            let joint = bn.log_joint(row);
            prop_assert!(joint.is_finite());
            prop_assert!(joint <= 1e-9);
        }
        // Conditional distribution over candidates is a probability vector.
        let candidates: Vec<Value> = (0..3).map(|b| Value::text(format!("b{b}"))).collect();
        let row = data.row(0).unwrap();
        let dist = bn.conditional_distribution(row, 1, &candidates);
        let sum: f64 = dist.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-6);
        prop_assert!(dist.iter().all(|p| *p >= 0.0));
    }

    /// Structure learning always yields an acyclic graph whose node count
    /// matches the dataset's attribute count, regardless of data content.
    #[test]
    fn learned_structure_is_well_formed(
        rows in proptest::collection::vec((0usize..4, 0usize..4, 0usize..2), 2..40),
    ) {
        let raw: Vec<Vec<String>> = rows
            .iter()
            .map(|(a, b, c)| vec![format!("z{a}"), format!("s{b}"), format!("n{c}")])
            .collect();
        let refs: Vec<Vec<&str>> = raw.iter().map(|r| r.iter().map(|s| s.as_str()).collect()).collect();
        let data = dataset_from(&["Zip", "State", "Noise"], &refs);
        let learned = learn_structure(&data, StructureConfig::default());
        prop_assert_eq!(learned.dag.num_nodes(), 3);
        prop_assert!(learned.dag.is_acyclic());
        for node in 0..3 {
            prop_assert!(learned.dag.parents(node).len() <= 3);
        }
    }
}

/// A small deterministic generator for the table contents of one case.
struct Lcg(u64);

impl Lcg {
    fn below(&mut self, bound: usize) -> usize {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((self.0 >> 33) % bound as u64) as usize
    }
}

/// A table whose last column has `parents` parent columns before it. Wide
/// tables give every parent enough distinct values that the configuration
/// space exceeds 2^16 (for two or three parents); narrow ones draw from a
/// handful of values, so configurations repeat and runs hold several codes.
/// About one cell in eight is null.
fn random_table(parents: usize, wide: bool, seed: u64) -> Dataset {
    let mut rng = Lcg(seed);
    let cards: Vec<usize> = (0..parents)
        .map(|_| match (wide, parents) {
            (false, _) => 1 + rng.below(8),
            (true, 1) => 100 + rng.below(100),
            (true, 2) => 256 + rng.below(40),
            (true, _) => 41 + rng.below(20),
        })
        .collect();
    let child_card = 1 + rng.below(6);
    let rows = cards.iter().copied().max().unwrap_or(0) + 20 + rng.below(60);
    let cell = |rng: &mut Lcg, prefix: &str, card: usize| {
        if rng.below(8) == 0 {
            String::new()
        } else {
            format!("{prefix}{}", rng.below(card))
        }
    };
    let raw: Vec<Vec<String>> = (0..rows)
        .map(|r| {
            let mut row: Vec<String> = cards
                .iter()
                .enumerate()
                .map(|(j, &card)| match wide && r < card {
                    // The first `card` rows cover every value of a wide column.
                    true => format!("p{j}-{r}"),
                    false => cell(&mut rng, &format!("p{j}-"), card),
                })
                .collect();
            row.push(cell(&mut rng, "c", child_card));
            row
        })
        .collect();
    let names: Vec<String> = (0..=parents).map(|j| format!("col{j}")).collect();
    let names: Vec<&str> = names.iter().map(|n| n.as_str()).collect();
    let refs: Vec<Vec<&str>> = raw.iter().map(|r| r.iter().map(|s| s.as_str()).collect()).collect();
    dataset_from(&names, &refs)
}

/// The factors of `node`'s blanket in the code row `codes`: its own, then
/// its children's in DAG order.
fn blanket_factors<'a>(net: &'a CompiledNetwork, codes: &[u32], node: usize) -> Vec<Factor<'a>> {
    let mut factors = vec![net.own_factor(codes, node)];
    factors.extend(net.children(node).iter().map(|&child| net.child_factor(codes, child, node)));
    factors
}

/// Rows `range` of `data` as a dataset of their own.
fn slice(data: &Dataset, range: std::ops::Range<usize>) -> Dataset {
    let mut out = Dataset::new(data.schema().clone());
    for r in range {
        out.push_row(data.row(r).unwrap().to_vec()).unwrap();
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Counts accumulated in one shot, and by absorbing random batch splits
    /// into dictionaries that grow between batches, are equal snapshot for
    /// snapshot and round-trip through `from_snapshot`; compiled, they score
    /// every code (null and unseen included) exactly like the `Value`-path
    /// CPT compiled against the same dictionaries, through every
    /// one-candidate scorer and every factor of a node's blanket, also with
    /// unseen parent codes; the factors sum to the blanket score.
    #[test]
    fn counted_tables_match_value_learning(
        parents in 1usize..4,
        wide in any::<bool>(),
        seed in 0u64..u64::MAX,
        alpha in 0.05f64..2.0,
    ) {
        let data = random_table(parents, wide, seed);
        let n = data.num_rows();
        let m = parents + 1;
        let child = parents;
        let mut rng = Lcg(seed ^ 0x5eed);
        let mut cuts: Vec<usize> = (0..1 + rng.below(4)).map(|_| rng.below(n + 1)).collect();
        cuts.push(0);
        cuts.push(n);
        cuts.sort_unstable();
        let mut encoded = EncodedDataset::from_dataset(&slice(&data, 0..cuts[1]));
        let mut dag = Dag::new(m);
        for p in 0..parents {
            dag.add_edge(p, child).unwrap();
        }
        let mut split: Vec<NodeCounts> =
            (0..m).map(|node| NodeCounts::accumulate(&encoded, node, &dag.parents(node))).collect();
        for batch in cuts[1..].windows(2) {
            let rows = encoded.append_batch(&slice(&data, batch[0]..batch[1]));
            for counts in &mut split {
                counts.absorb(&encoded, rows.clone());
            }
        }
        let dicts = encoded.dicts();
        let configs: u128 = (0..parents).map(|p| dicts[p].code_space() as u128).product();
        if wide && parents > 1 {
            prop_assert!(configs > 1 << 16, "{configs} configurations");
        }
        if !wide || parents == 1 {
            prop_assert!(configs <= 1 << 16, "{configs} configurations");
        }
        for (node, counts) in split.iter().enumerate() {
            let oneshot = NodeCounts::accumulate(&encoded, node, &dag.parents(node));
            prop_assert_eq!(counts.snapshot(), oneshot.snapshot());
            prop_assert_eq!(counts.rows_absorbed(), n);
            let restored = NodeCounts::from_snapshot(counts.snapshot()).unwrap();
            prop_assert_eq!(restored.snapshot(), counts.snapshot());
        }

        let counted = CompiledNetwork::from_parts(
            split.iter().map(|counts| CompiledCpt::from_counts(counts, alpha)).collect(),
            &dag,
        );
        let learned = CompiledNetwork::from_parts(
            (0..m).map(|node| CompiledCpt::compile(&Cpt::learn(&data, node, &dag.parents(node), alpha), dicts)).collect(),
            &dag,
        );
        let (mut got, mut want) = (Vec::new(), Vec::new());
        for r in (0..n).step_by(1 + n / 24) {
            let codes: Vec<u32> = data.row(r).unwrap().iter().zip(dicts).map(|(v, d)| d.encode(v).unwrap()).collect();
            let mut probes = vec![codes.clone()];
            for p in 0..parents {
                let mut patched = codes.clone();
                patched[p] = dicts[p].unseen_code();
                probes.push(patched);
            }
            for codes in &probes {
                for (node, dict) in dicts.iter().enumerate() {
                    let candidates: Vec<u32> = (0..=dict.unseen_code()).collect();
                    for &c in &candidates {
                        prop_assert_eq!(
                            counted.node(node).log_prob_row(codes, c).to_bits(),
                            learned.node(node).log_prob_row(codes, c).to_bits(),
                            "node {} row {} code {}", node, r, c
                        );
                        prop_assert_eq!(counted.log_marginal(node, c).to_bits(), learned.log_marginal(node, c).to_bits());
                    }
                    for (a, b) in blanket_factors(&counted, codes, node).iter().zip(blanket_factors(&learned, codes, node)) {
                        got.clear();
                        want.clear();
                        a.log_probs(&candidates, &mut got);
                        b.log_probs(&candidates, &mut want);
                        prop_assert!(got.iter().map(|s| s.to_bits()).eq(want.iter().map(|s| s.to_bits())));
                    }
                    got = candidates.iter().map(|&c| counted.blanket_log_score(codes, node, c)).collect();
                    want = candidates.iter().map(|&c| learned.blanket_log_score(codes, node, c)).collect();
                    prop_assert!(got.iter().map(|s| s.to_bits()).eq(want.iter().map(|s| s.to_bits())));
                    got = candidates.iter().map(|&c| counted.children_log_likelihood(codes, node, c)).collect();
                    want = candidates.iter().map(|&c| learned.children_log_likelihood(codes, node, c)).collect();
                    prop_assert!(got.iter().map(|s| s.to_bits()).eq(want.iter().map(|s| s.to_bits())));
                    got = candidates.iter().map(|&c| counted.log_joint_with(codes, node, c)).collect();
                    want = candidates.iter().map(|&c| learned.log_joint_with(codes, node, c)).collect();
                    prop_assert!(got.iter().map(|s| s.to_bits()).eq(want.iter().map(|s| s.to_bits())));
                    let blanket = blanket_factors(&counted, codes, node);
                    for &c in &candidates {
                        let mut score = blanket[0].log_prob(c);
                        for child in &blanket[1..] {
                            score += child.log_prob(c);
                        }
                        prop_assert_eq!(score.to_bits(), counted.blanket_log_score(codes, node, c).to_bits());
                    }
                }
            }
        }
    }
}
