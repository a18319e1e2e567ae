//! Property-based tests for the BClean cleaner: structural invariants that
//! must hold for any input data, any corruption and any variant.

use std::collections::{HashMap, HashSet};

use bclean_core::{
    repairs_to_csv, BClean, BCleanConfig, BCleanModel, CompensatoryModel, CompensatoryParams, ConstraintSet,
    ParallelExecutor, UserConstraint, Variant,
};
use bclean_data::{dataset_from, Dataset, EncodedDataset, Value};
use proptest::prelude::*;

/// Random FD-shaped tables: `zip` determines `state` and `city`; a free
/// `note` column carries unconstrained noise. A fraction of cells is then
/// corrupted (typo / null / swap), mimicking the paper's error injection.
#[derive(Debug, Clone)]
struct Corruption {
    row: usize,
    col: usize,
    kind: u8,
}

fn table_strategy() -> impl Strategy<Value = (Vec<(usize, usize)>, Vec<Corruption>)> {
    let rows = proptest::collection::vec((0usize..3, 0usize..4), 12..48);
    rows.prop_flat_map(|rows| {
        let n = rows.len();
        let corruptions = proptest::collection::vec(
            (0..n, 0usize..3, 0u8..3).prop_map(|(row, col, kind)| Corruption { row, col, kind }),
            0..6,
        );
        (Just(rows), corruptions)
    })
}

fn build(rows: &[(usize, usize)], corruptions: &[Corruption]) -> Dataset {
    let zips = ["35150", "35960", "80204"];
    let states = ["CA", "KT", "CO"];
    let cities = ["sylacauga", "centre", "denver"];
    let raw: Vec<Vec<String>> = rows
        .iter()
        .map(|(entity, note)| {
            vec![
                zips[*entity].to_string(),
                states[*entity].to_string(),
                cities[*entity].to_string(),
                format!("n{note}"),
            ]
        })
        .collect();
    let mut refs: Vec<Vec<String>> = raw;
    for c in corruptions {
        let cell = &mut refs[c.row][c.col.min(2)];
        match c.kind {
            0 => cell.push('x'),             // typo
            1 => cell.clear(),               // missing value
            _ => *cell = "ZZ99".to_string(), // out-of-domain junk
        }
    }
    let borrowed: Vec<Vec<&str>> = refs.iter().map(|r| r.iter().map(|s| s.as_str()).collect()).collect();
    dataset_from(&["zip", "state", "city", "note"], &borrowed)
}

fn constraints() -> ConstraintSet {
    let mut ucs = ConstraintSet::new();
    ucs.add("zip", UserConstraint::pattern("[0-9]{5}").unwrap());
    ucs.add("state", UserConstraint::MaxLength(2));
    ucs.add("state", UserConstraint::expression("upper(value) == value").unwrap());
    ucs.add("city", UserConstraint::MinLength(3));
    ucs
}

/// Three code columns for the co-occurrence index: a cardinality per
/// column (two of them large enough that their pair passes 2^14 cells),
/// rows of value indices where the cardinality itself stands for null, and
/// the row offsets where absorbed batches split off.
fn tally_strategy() -> impl Strategy<Value = (Vec<[usize; 3]>, [usize; 3], Vec<usize>)> {
    (1usize..180, 1usize..180, 1usize..12, 1usize..220).prop_flat_map(|(c0, c1, c2, n)| {
        let rows = proptest::collection::vec((0..=c0, 0..=c1, 0..=c2).prop_map(|(a, b, c)| [a, b, c]), n);
        (rows, Just([c0, c1, c2]), proptest::collection::vec(0..n, 0..4))
    })
}

fn text_dataset(names: &[&str], rows: &[Vec<String>]) -> Dataset {
    let borrowed: Vec<Vec<&str>> = rows.iter().map(|r| r.iter().map(|s| s.as_str()).collect()).collect();
    dataset_from(names, &borrowed)
}

/// Split off the first `rows` rows of a dataset, and the rest.
fn split_rows(data: &Dataset, rows: usize) -> (Dataset, Dataset) {
    let part = |range: std::ops::Range<usize>| {
        let mut part = Dataset::new(data.schema().clone());
        for r in range {
            part.push_row(data.row(r).unwrap().to_vec()).unwrap();
        }
        part
    };
    (part(0..rows), part(rows..data.num_rows()))
}

/// What `score_candidates` must return for one cell of a BCleanPI model,
/// built from the one-candidate oracles: the anchor re-derived from the
/// FD-confidence matrix, the candidates of a whole-domain walk in sorted
/// value order that satisfy the constraints and, for an anchored cell,
/// co-occur with the anchor value at least once, then the observed value
/// where the walk met it or at the end. Each candidate scores
/// `blanket_log_score` (or `children_log_likelihood` for a root) plus
/// `log_score_codes`, and the list sorts stably by decreasing score.
fn oracle_ranking(model: &BCleanModel, ucs: &ConstraintSet, row: &[Value], col: usize) -> Vec<(Value, f64)> {
    let (comp, net, dicts, config) = (model.compensatory(), model.compiled(), model.dicts(), model.config());
    let codes: Vec<u32> = row.iter().zip(dicts).map(|(v, d)| d.encode_lossy(v)).collect();
    let fd = comp.fd_confidence_matrix();
    let anchor = (0..row.len())
        .filter(|&k| k != col && !row[k].is_null() && fd[k][col] >= config.anchor_min_confidence)
        .filter(|&k| comp.value_count_code(k, codes[k]) >= 2)
        .min_by_key(|&k| comp.value_count_code(k, codes[k]));
    let dict = &dicts[col];
    let walk: Vec<u32> = match dict.code_order() {
        Some(order) => order.to_vec(),
        None => (0..dict.cardinality() as u32).collect(),
    };
    let name = &model.attribute_names()[col];
    let mut ranked: Vec<u32> = walk
        .into_iter()
        .filter(|&c| ucs.check(name, dict.decode(c)))
        .filter(|&c| anchor.is_none_or(|k| comp.pair_count_codes(col, c, k, codes[k]) >= 1))
        .collect();
    if !row[col].is_null() && !ranked.contains(&codes[col]) {
        ranked.push(codes[col]);
    }
    let score = |c: u32| {
        let bn = if net.has_parents(col) {
            net.blanket_log_score(&codes, col, c)
        } else {
            net.children_log_likelihood(&codes, col, c)
        };
        bn + comp.log_score_codes(&codes, col, c)
    };
    let mut scored: Vec<(Value, f64)> = ranked
        .into_iter()
        .map(|c| (if c == codes[col] { row[col].clone() } else { dict.decode(c).clone() }, score(c)))
        .collect();
    if row[col].is_null() {
        scored.push((Value::Null, score(codes[col])));
    }
    scored.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
    scored
}

/// FD-shaped rows whose minority values tie: each zip has one main city in
/// 14 of its 20 rows, a share of 0.7 that makes the zip an anchor of the
/// city, and two minor cities in 3 rows each, with the zip's state and note
/// throughout. The minor cities score bit for bit alike in every cell, so
/// only their enumeration order ranks them. The rows are shuffled by `keys`.
fn tied_table(zips: usize, keys: &[u32]) -> Dataset {
    let mut rows: Vec<Vec<String>> = Vec::new();
    for z in 0..zips {
        for (city, times) in [("main", 14), ("alpha", 3), ("beta", 3)] {
            for _ in 0..times {
                rows.push(vec![
                    format!("3515{z}"),
                    ["CA", "KT", "CO"][z].to_string(),
                    format!("{city}{z}"),
                    format!("n{z}"),
                ]);
            }
        }
    }
    let mut order: Vec<usize> = (0..rows.len()).collect();
    order.sort_by_key(|&r| keys[r % keys.len()]);
    let shuffled: Vec<Vec<String>> = order.into_iter().map(|r| rows[r].clone()).collect();
    text_dataset(&["zip", "state", "city", "note"], &shuffled)
}

/// Fit a BCleanPI model on the first `cut` share of `dirty` and ingest the
/// rest, whose new values land out of sorted order in the appended
/// dictionaries; then, on every cell of `dirty`, `score_candidates` of the
/// grown model and of the first rows' model alone (which meets unseen
/// values) must equal [`oracle_ranking`] bit for bit.
fn assert_scores_match_oracles(dirty: &Dataset, cut: f64) {
    let (head, tail) = split_rows(dirty, ((dirty.num_rows() as f64 * cut) as usize).max(2));
    let ucs = constraints();
    let mut artifact = BClean::new(Variant::PartitionedInference.config().with_threads(1))
        .with_constraints(ucs.clone())
        .fit_artifact(&head);
    let head_model = artifact.compile();
    artifact.ingest_batch(&tail).unwrap();
    let grown_model = artifact.compile();
    let bits = |list: &[(Value, f64)]| -> Vec<(Value, u64)> {
        list.iter().map(|(v, s)| (v.clone(), s.to_bits())).collect()
    };
    for model in [&grown_model, &head_model] {
        for (r, row) in dirty.rows().enumerate() {
            for col in 0..dirty.num_columns() {
                let actual = model.score_candidates(dirty, r, col);
                prop_assert_eq!(
                    bits(&actual),
                    bits(&oracle_ranking(model, &ucs, row, col)),
                    "row {} col {}",
                    r,
                    col
                );
            }
        }
    }
}

/// What `score_candidates` must return for one cell of a model of any
/// variant, from the one-candidate oracles: [`oracle_ranking`]'s
/// enumeration, with the constraints checked only when the variant uses
/// them, each tuple rule that names the column checked on the row with the
/// candidate substituted, BCleanPIP's TF-IDF top-k over the column's joint
/// set, and each variant's BN score (the blanket, or the whole joint less
/// a root's own prior).
fn variant_ranking(
    model: &BCleanModel,
    ucs: &ConstraintSet,
    schema: &bclean_data::Schema,
    row: &[Value],
    col: usize,
) -> Vec<(Value, f64)> {
    let (comp, net, dicts, config) = (model.compensatory(), model.compiled(), model.dicts(), model.config());
    let codes: Vec<u32> = row.iter().zip(dicts).map(|(v, d)| d.encode_lossy(v)).collect();
    let fd = comp.fd_confidence_matrix();
    let anchor = (0..row.len())
        .filter(|&k| k != col && !row[k].is_null() && fd[k][col] >= config.anchor_min_confidence)
        .filter(|&k| comp.value_count_code(k, codes[k]) >= 2)
        .min_by_key(|&k| comp.value_count_code(k, codes[k]));
    let dict = &dicts[col];
    let walk: Vec<u32> = match dict.code_order() {
        Some(order) => order.to_vec(),
        None => (0..dict.cardinality() as u32).collect(),
    };
    let name = &model.attribute_names()[col];
    let rules: Vec<_> = ucs
        .row_rules()
        .iter()
        .filter(|rule| rule.referenced_attributes().iter().any(|a| a.eq_ignore_ascii_case(name)))
        .collect();
    let allowed = |c: u32| {
        let mut substituted = row.to_vec();
        substituted[col] = dict.decode(c).clone();
        ucs.check(name, dict.decode(c)) && rules.iter().all(|rule| rule.check_row(schema, &substituted))
    };
    let mut ranked: Vec<u32> = walk
        .into_iter()
        .filter(|&c| !config.use_constraints || allowed(c))
        .filter(|&c| anchor.is_none_or(|k| comp.pair_count_codes(col, c, k, codes[k]) >= 1))
        .collect();
    if config.domain_pruning && ranked.len() > config.domain_top_k {
        let mut context = model.dag().joint_set(col);
        if context.len() <= 1 {
            context = (0..row.len()).collect();
        }
        let mut by_tfidf: Vec<(f64, u32)> =
            ranked.iter().map(|&c| (comp.tfidf_score_codes(&codes, col, c, &context), c)).collect();
        by_tfidf.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));
        ranked = by_tfidf.into_iter().take(config.domain_top_k).map(|(_, c)| c).collect();
    }
    if !row[col].is_null() && !ranked.contains(&codes[col]) {
        ranked.push(codes[col]);
    }
    let score = |c: u32| {
        let bn = match (config.partitioned_inference, net.has_parents(col)) {
            (true, true) => net.blanket_log_score(&codes, col, c),
            (true, false) => net.children_log_likelihood(&codes, col, c),
            (false, true) => net.log_joint_with(&codes, col, c),
            (false, false) => net.log_joint_with(&codes, col, c) - net.log_marginal(col, c),
        };
        bn + if config.use_compensatory { comp.log_score_codes(&codes, col, c) } else { 0.0 }
    };
    let mut scored: Vec<(Value, f64)> = ranked
        .into_iter()
        .map(|c| (if c == codes[col] { row[col].clone() } else { dict.decode(c).clone() }, score(c)))
        .collect();
    if row[col].is_null() {
        scored.push((Value::Null, score(codes[col])));
    }
    scored.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
    scored
}

/// Rows that share an anchor value and most context values: zip `z`
/// determines its state and main city, and its rows repeat the main row but
/// for one or two edited cells — a minor city, another note, a null city or
/// state, or (for `unseen`) values no fitted row holds. Many rows therefore
/// share a zip's candidate lists and most of their context.
fn near_duplicates(rows: &[(usize, u8, u8)], unseen: bool) -> Vec<Vec<Value>> {
    rows.iter()
        .map(|&(z, first, second)| {
            let mut row = vec![
                Value::parse(&format!("3515{z}")),
                Value::text(["CA", "KT", "CO"][z]),
                Value::text(format!("main{z}")),
                Value::text(format!("n{z}")),
            ];
            for edit in [first, second] {
                match edit {
                    1 => row[2] = Value::text(format!("alpha{z}")),
                    2 => row[2] = Value::text(format!("beta{z}")),
                    3 => row[3] = Value::text(format!("n{}", (z + 1) % 3)),
                    4 => row[2] = Value::Null,
                    5 => row[1] = Value::Null,
                    6 if unseen => row[2] = Value::text("zz-unseen"),
                    7 if unseen => row[1] = Value::text("QQ"),
                    _ => {}
                }
            }
            row
        })
        .collect()
}

/// Clean `dirty` with every variant at 1 and 2 threads, fitting on the
/// first `cut` rows of `train` and ingesting the rest, and check that the
/// whole clean equals cleaning each row alone (repairs with their `from`,
/// and the four counters), and that every cell's `score_candidates` equals
/// [`variant_ranking`] bit for bit.
fn assert_shared_terms_clean_like_single_rows(
    train: &Dataset,
    dirty: &Dataset,
    cut: usize,
    ucs: &ConstraintSet,
) {
    let (head, tail) = split_rows(train, cut);
    for variant in Variant::all() {
        let mut artifact = BClean::new(variant.config()).with_constraints(ucs.clone()).fit_artifact(&head);
        artifact.ingest_batch(&tail).unwrap();
        for threads in [1usize, 2] {
            artifact.set_threads(threads);
            let model = artifact.compile();
            let result = model.clean(dirty);
            let (mut expected, mut counters) = (Vec::new(), [0usize; 4]);
            for (r, row) in dirty.rows().enumerate() {
                let mut single = Dataset::new(dirty.schema().clone());
                single.push_row(row.to_vec()).unwrap();
                let one = model.clean(&single);
                let stats = &one.stats;
                for (total, count) in counters.iter_mut().zip([
                    stats.cells_examined,
                    stats.cells_skipped,
                    stats.candidates_evaluated,
                    stats.repairs,
                ]) {
                    *total += count;
                }
                expected.extend(one.repairs.into_iter().map(|mut repair| {
                    repair.at.row = r;
                    repair
                }));
            }
            let context = format!("{variant:?} at {threads} threads");
            prop_assert_eq!(&result.repairs, &expected, "{}", &context);
            let stats = &result.stats;
            prop_assert_eq!(
                [stats.cells_examined, stats.cells_skipped, stats.candidates_evaluated, stats.repairs],
                counters,
                "{}",
                &context
            );
            let bits = |list: &[(Value, f64)]| -> Vec<(Value, u64)> {
                list.iter().map(|(v, s)| (v.clone(), s.to_bits())).collect()
            };
            for (r, row) in dirty.rows().enumerate() {
                for col in 0..dirty.num_columns() {
                    prop_assert_eq!(
                        bits(&model.score_candidates(dirty, r, col)),
                        bits(&variant_ranking(&model, ucs, dirty.schema(), row, col)),
                        "{} row {} col {}",
                        &context,
                        r,
                        col
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The batched kernel behind `score_candidates` and `clean` equals the
    /// one-candidate oracles bit for bit: the same candidates (an anchored
    /// cell's read from the anchor value's posting list), in the same
    /// sorted-value order, with the same scores. Checked on the FD-shaped
    /// tables and on tables whose tied candidates only enumeration order
    /// ranks, each split into a fit and an ingest.
    #[test]
    fn score_candidates_match_one_candidate_oracles(
        (rows, corruptions) in table_strategy(),
        zips in 1usize..4,
        keys in proptest::collection::vec(any::<u32>(), 60),
        cut in 0.2f64..0.8,
    ) {
        assert_scores_match_oracles(&build(&rows, &corruptions), cut);
        assert_scores_match_oracles(&tied_table(zips, &keys), cut);
    }

    /// The co-occurrence index answers every point query, keyed by either
    /// column of a pair, with the tally a `HashMap` counts from the rows —
    /// after a pair-parallel fit of the first batch and absorbs of the rest
    /// into appended dictionaries. Codes outside a code space count 0, and
    /// the FD-confidence matrix matches the `Value` grouping.
    #[test]
    fn pair_index_matches_naive_tally((rows, cards, splits) in tally_strategy()) {
        let names = ["a", "b", "c"];
        let text: Vec<Vec<String>> = rows
            .iter()
            .map(|r| (0..3).map(|c| if r[c] == cards[c] { String::new() } else { format!("{}{}", names[c], r[c]) }).collect())
            .collect();
        let data = text_dataset(&names, &text);
        let mut ucs = ConstraintSet::new();
        ucs.add("b", UserConstraint::MaxLength(2));
        let params = CompensatoryParams { lambda: 1.0, beta: 0.3, tau: 0.5 };
        let mut bounds = splits.clone();
        bounds.extend([0, rows.len()]);
        bounds.sort_unstable();
        bounds.dedup();
        let first = text_dataset(&names, &text[..bounds[1]]);
        let mut encoded = EncodedDataset::from_dataset(&first);
        let mut model =
            CompensatoryModel::build_parallel(&first, &encoded, &ucs, params, &ParallelExecutor::new(2));
        for span in bounds[1..].windows(2) {
            let batch = text_dataset(&names, &text[span[0]..span[1]]);
            let appended = encoded.append_batch(&batch);
            model = model.absorbed(&batch, &ucs, &encoded, appended);
        }

        let dicts = model.dicts();
        let mut tally: HashMap<(usize, u32, usize, u32), (u32, u32)> = HashMap::new();
        let mut value_counts: HashMap<(usize, u32), usize> = HashMap::new();
        for row in data.rows() {
            let positive = ucs.tuple_confidence(data.schema(), row, params.lambda) >= params.tau;
            let codes: Vec<u32> = row.iter().zip(dicts).map(|(v, d)| d.encode(v).expect("value in the grown dictionary")).collect();
            for j in 0..3 {
                *value_counts.entry((j, codes[j])).or_default() += 1;
                for k in (0..3).filter(|&k| k != j) {
                    let slot = tally.entry((j, codes[j], k, codes[k])).or_default();
                    if positive { slot.0 += 1 } else { slot.1 += 1 }
                }
            }
        }
        let n = data.num_rows() as f64;
        for j in 0..3 {
            // The query range runs past the code space: the unseen and the
            // candidate sentinels co-occur with nothing.
            for a in 0..dicts[j].code_space() as u32 + 2 {
                prop_assert_eq!(model.value_count_code(j, a), value_counts.get(&(j, a)).copied().unwrap_or(0));
                prop_assert_eq!(model.pair_count_codes(j, a, j, a), 0);
                for k in (0..3).filter(|&k| k != j) {
                    for b in 0..dicts[k].code_space() as u32 + 1 {
                        let (pos, neg) = tally.get(&(j, a, k, b)).copied().unwrap_or_default();
                        prop_assert_eq!(model.pair_count_codes(j, a, k, b), (pos + neg) as usize, "({}, {}, {}, {})", j, a, k, b);
                        let corr = if pos + neg == 0 { 0.0 } else { (pos as f64 - params.beta * neg as f64) / n };
                        prop_assert_eq!(model.corr_codes(j, a, k, b).to_bits(), corr.to_bits());
                    }
                    prop_assert_eq!(model.pair_count_codes(j, a, k, u32::MAX), 0);
                    prop_assert_eq!(model.pair_count_codes(j, u32::MAX, k, a), 0);
                }
            }
        }

        let matrix = model.fd_confidence_matrix();
        for k in 0..3 {
            let mut groups: HashMap<&Value, Vec<&[Value]>> = HashMap::new();
            for row in data.rows().filter(|row| !row[k].is_null()) {
                groups.entry(&row[k]).or_default().push(row);
            }
            for j in (0..3).filter(|&j| j != k) {
                let (mut consistent, mut total) = (0usize, 0usize);
                for members in groups.values().filter(|members| members.len() >= 2) {
                    let mut counts: HashMap<&Value, usize> = HashMap::new();
                    for row in members.iter().filter(|row| !row[j].is_null()) {
                        *counts.entry(&row[j]).or_default() += 1;
                    }
                    consistent += counts.values().copied().max().unwrap_or(0);
                    total += counts.values().sum::<usize>();
                }
                let expected = if total == 0 { 0.0 } else { consistent as f64 / total as f64 };
                prop_assert_eq!(matrix[k][j].to_bits(), expected.to_bits(), "fd ({}, {})", k, j);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Cleaning never changes the dataset's shape, only repairs cells it
    /// reports, and every repaired value is drawn from the column's observed
    /// domain and satisfies the column's user constraints.
    #[test]
    fn cleaning_invariants((rows, corruptions) in table_strategy(), variant in prop_oneof![
        Just(Variant::Basic),
        Just(Variant::PartitionedInference),
        Just(Variant::PartitionedInferencePruning),
    ]) {
        let dirty = build(&rows, &corruptions);
        let ucs = constraints();
        let model = BClean::new(variant.config()).with_constraints(ucs.clone()).fit(&dirty);
        let result = model.clean(&dirty);

        prop_assert_eq!(result.cleaned.num_rows(), dirty.num_rows());
        prop_assert_eq!(result.cleaned.num_columns(), dirty.num_columns());

        // Cells not listed in `repairs` are untouched; repaired cells hold the
        // reported value.
        for (r, (dirty_row, clean_row)) in dirty.rows().zip(result.cleaned.rows()).enumerate() {
            for c in 0..dirty.num_columns() {
                match result.repairs.iter().find(|rep| rep.at.row == r && rep.at.col == c) {
                    None => prop_assert_eq!(&dirty_row[c], &clean_row[c]),
                    Some(rep) => {
                        prop_assert_eq!(&rep.from, &dirty_row[c]);
                        prop_assert_eq!(&rep.to, &clean_row[c]);
                        prop_assert_ne!(&rep.from, &rep.to);
                    }
                }
            }
        }

        // Repaired values come from the observed column domain and satisfy
        // the attribute's constraints.
        for rep in &result.repairs {
            let observed: Vec<&Value> = dirty.column(rep.at.col).unwrap();
            prop_assert!(observed.contains(&&rep.to), "repair {:?} not in column domain", rep);
            prop_assert!(ucs.check(&rep.attribute, &rep.to), "repair {:?} violates constraints", rep);
        }

        // Statistics are consistent with the repair list.
        prop_assert_eq!(result.stats.repairs, result.repairs.len());
        prop_assert!(result.stats.cells_examined <= dirty.num_cells());
    }

    /// Parallel and single-threaded cleaning produce identical outputs.
    #[test]
    fn parallel_cleaning_matches_serial((rows, corruptions) in table_strategy()) {
        let dirty = build(&rows, &corruptions);
        let serial_cfg = BCleanConfig { num_threads: 1, ..Variant::PartitionedInference.config() };
        let parallel_cfg = BCleanConfig { num_threads: 4, ..Variant::PartitionedInference.config() };
        let serial = BClean::new(serial_cfg).with_constraints(constraints()).fit(&dirty).clean(&dirty);
        let parallel = BClean::new(parallel_cfg).with_constraints(constraints()).fit(&dirty).clean(&dirty);
        prop_assert_eq!(serial.cleaned, parallel.cleaned);
        prop_assert_eq!(serial.repairs.len(), parallel.repairs.len());
    }

    /// Tuple confidence stays in [0, 1] for any λ ≥ 0 and any row, and the
    /// compensatory score is always finite.
    #[test]
    fn confidence_and_scores_are_bounded(
        (rows, corruptions) in table_strategy(),
        lambda in 0.0f64..8.0,
    ) {
        let dirty = build(&rows, &corruptions);
        let ucs = constraints();
        for row in dirty.rows() {
            let conf = ucs.tuple_confidence(dirty.schema(), row, lambda);
            prop_assert!((0.0..=1.0 + 1e-12).contains(&conf), "confidence {conf}");
        }
        let comp = CompensatoryModel::build(&dirty, &ucs, CompensatoryParams::default());
        for (r, row) in dirty.rows().enumerate().take(8) {
            for c in 0..dirty.num_columns() {
                let score = comp.log_score(row, c, &row[c]);
                prop_assert!(score.is_finite(), "non-finite compensatory score at ({r}, {c})");
            }
        }
    }

    /// The score_candidates API ranks candidates consistently with the repair
    /// decision: the cleaner never repairs a cell to a value that
    /// score_candidates ranks below the observed value.
    #[test]
    fn repairs_agree_with_candidate_ranking((rows, corruptions) in table_strategy()) {
        let dirty = build(&rows, &corruptions);
        let model = BClean::new(Variant::PartitionedInference.config())
            .with_constraints(constraints())
            .fit(&dirty);
        let result = model.clean(&dirty);
        for rep in result.repairs.iter().take(6) {
            if rep.score_gain.is_infinite() {
                // The observed value violated its constraints: the cleaner
                // overrides the ranking for such cells (Eq. 1's UC filter).
                continue;
            }
            let ranked = model.score_candidates(&dirty, rep.at.row, rep.at.col);
            let repair_rank = ranked.iter().position(|(v, _)| v == &rep.to);
            let original_rank = ranked.iter().position(|(v, _)| v == &rep.from);
            prop_assert!(repair_rank.is_some());
            if let (Some(rr), Some(or)) = (repair_rank, original_rank) {
                prop_assert!(rr <= or, "repair ranked below original: {rep:?}");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Cleaning a table whose rows repeat equals cleaning each row as a
    /// one-row dataset: the same repairs, `from` included, and the same
    /// counters, for every variant at 1 and 2 threads, while the kernel
    /// scores one row per group of identical rows. The rows come from the
    /// fitted table, with nulls and unseen values written over some cells;
    /// two rows differ only in the unseen value of one column, which one
    /// code stands for, so only values tell them apart ("QQ" satisfies the
    /// `state` constraints and "qqq" breaks them).
    #[test]
    fn duplicate_rows_clean_like_single_rows(
        (rows, corruptions) in table_strategy(),
        picks in proptest::collection::vec(0usize..1000, 8..40),
        edits in proptest::collection::vec((0usize..1000, 0usize..4, 0u8..3), 0..6),
    ) {
        let train = build(&rows, &corruptions);
        let mut table: Vec<Vec<Value>> =
            picks.iter().map(|&p| train.row(p % train.num_rows()).unwrap().to_vec()).collect();
        for &(row, col, kind) in &edits {
            let n = table.len();
            table[row % n][col] = match kind {
                0 => Value::Null,
                1 => Value::text("QQ"),
                _ => Value::text("qqq"),
            };
        }
        let mut twin = table[0].clone();
        for unseen in ["QQ", "qqq"] {
            twin[1] = Value::text(unseen);
            table.push(twin.clone());
        }
        let mut dirty = Dataset::new(train.schema().clone());
        for row in &table {
            dirty.push_row(row.clone()).unwrap();
        }

        for variant in Variant::all() {
            let mut artifact = BClean::new(variant.config()).with_constraints(constraints()).fit_artifact(&train);
            for threads in [1usize, 2] {
                artifact.set_threads(threads);
                let model = artifact.compile();
                let result = model.clean(&dirty);
                let mut expected = Vec::new();
                let mut cleaned = Vec::new();
                let mut counters = [0usize; 4];
                for (r, row) in table.iter().enumerate() {
                    let mut single = Dataset::new(train.schema().clone());
                    single.push_row(row.clone()).unwrap();
                    let one = model.clean(&single);
                    let stats = &one.stats;
                    for (total, count) in counters.iter_mut().zip([
                        stats.cells_examined,
                        stats.cells_skipped,
                        stats.candidates_evaluated,
                        stats.repairs,
                    ]) {
                        *total += count;
                    }
                    cleaned.push(one.cleaned.row(0).unwrap().to_vec());
                    expected.extend(one.repairs.into_iter().map(|mut repair| {
                        repair.at.row = r;
                        repair
                    }));
                }
                let context = format!("{variant:?} at {threads} threads");
                prop_assert_eq!(repairs_to_csv(&result.repairs), repairs_to_csv(&expected), "{}", &context);
                prop_assert_eq!(&result.repairs, &expected, "{}", &context);
                prop_assert!(result.cleaned.rows().eq(cleaned.iter().map(|row| row.as_slice())), "{}", &context);
                let stats = &result.stats;
                prop_assert_eq!(
                    [stats.cells_examined, stats.cells_skipped, stats.candidates_evaluated, stats.repairs],
                    counters,
                    "{}",
                    &context
                );
                // One scored row per group: rows with an unseen code alone,
                // the others by their codes.
                let dicts = model.dicts();
                let mut groups = HashSet::new();
                let mut alone = 0;
                for row in &table {
                    let codes: Vec<u32> = row.iter().zip(dicts).map(|(v, d)| d.encode_lossy(v)).collect();
                    if codes.iter().zip(dicts).any(|(&c, d)| c == d.unseen_code()) {
                        alone += 1;
                    } else {
                        groups.insert(codes);
                    }
                }
                prop_assert_eq!(stats.rows_scored, groups.len() + alone, "{}", &context);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Cells that share a candidate list share their terms: a BN factor
    /// per distinct key, a context column's run per distinct value. Cleaning
    /// a table of near-duplicate rows (many rows share a zip, the anchor of
    /// their city, and most context values, but differ in one or two cells,
    /// nulls and unseen values included) equals cleaning each row alone,
    /// for every variant at 1 and 2 threads, and `score_candidates` equals
    /// the one-candidate oracles on every cell. The model is grown by
    /// `ingest_batch`, so its appended dictionaries make enumeration follow
    /// sort rank, and a tuple rule forbids one minor city beside one note,
    /// which splits that zip's candidate lists for the city.
    #[test]
    fn shared_terms_clean_like_single_rows(
        rows in proptest::collection::vec((0usize..3, 0u8..8, 0u8..8), 24..64),
        dirty_rows in proptest::collection::vec((0usize..3, 0u8..8, 0u8..8), 8..24),
        cut in 0.3f64..0.8,
    ) {
        let names = ["zip", "state", "city", "note"];
        let schema = bclean_data::Schema::from_names(&names).unwrap();
        let table = |rows: Vec<Vec<Value>>| {
            let mut data = Dataset::new(schema.clone());
            for row in rows {
                data.push_row(row).unwrap();
            }
            data
        };
        let train = table(near_duplicates(&rows, false));
        let mut dirty_table = near_duplicates(&rows, false);
        dirty_table.extend(near_duplicates(&dirty_rows, true));
        let dirty = table(dirty_table);
        let ucs = constraints().with_row_rule("!(city == 'beta0' && note == 'n1')").unwrap();
        let cut = ((train.num_rows() as f64 * cut) as usize).max(2);
        assert_shared_terms_clean_like_single_rows(&train, &dirty, cut, &ucs);
    }
}
