//! Persistent model artifacts: `ModelArtifact::{save, load}` over the
//! `.bclean` container format of `bclean-store`.
//!
//! # What is stored
//!
//! The container carries exactly the state [`ModelArtifact`] +
//! [`ModelArtifact::compile`] need — the fit products, none of the
//! derived tables:
//!
//! | section        | contents                                                    |
//! |----------------|-------------------------------------------------------------|
//! | `schema`       | attribute names + coarse types + 64-bit schema hash         |
//! | `config`       | the full [`BCleanConfig`] (params, structure, pruning, …)   |
//! | `constraints`  | the effective [`ConstraintSet`] as canonical spec text      |
//! | `dicts`        | per-column [`bclean_data::ColumnDict`] layouts (code space) |
//! | `structure`    | the learned DAG                                             |
//! | `node_counts`  | per-node sufficient statistics ([`bclean_bayesnet::NodeCounts`]) |
//! | `compensatory` | value counts, row count, confidence sum, one CSR co-occurrence index per column pair |
//!
//! Compiled CPTs, the per-column UC verdict tables and the observed
//! domains are *derived* state: `compile` rebuilds them deterministically
//! from the persisted counts, dictionaries and constraints, so
//! `load(save(a)).compile().clean(d)` is bit-identical to
//! `a.compile().clean(d)` at every thread count (guarded by
//! `tests/artifact_roundtrip.rs` and CI's golden-artifact gate).
//!
//! # Schema guard
//!
//! An artifact refuses ([`ModelArtifact::check_schema`]) to clean or
//! ingest a dataset whose header names or coarse types differ from the
//! schema it was fit on; `bclean inspect` prints the stored
//! [`ModelArtifact::schema_hash`] so deployments can index artifacts by
//! schema.

use std::path::Path;

use bclean_bayesnet::StructureConfig;
use bclean_data::{Dataset, EncodedDataset, Schema};
use bclean_store::{
    read_dag, read_dicts, read_schema, write_dag, write_dicts, write_schema, ByteReader, ByteWriter,
    ContainerReader, ContainerWriter, SchemaMeta, SectionId, StoreError,
};

use crate::artifact::ModelArtifact;
use crate::compensatory::{column_pairs, CompensatoryModel, CompensatoryParams, PairEntry, PairIndex};
use crate::config::BCleanConfig;
use crate::constraints::ConstraintSet;

impl ModelArtifact {
    /// Serialize the artifact to `.bclean` container bytes. Equal artifact
    /// state always produces equal bytes (sections sort their members), so
    /// byte equality is a valid drift check. Fails with
    /// [`StoreError::Unsupported`] when the constraints contain
    /// closure-backed customs.
    pub fn to_bytes(&self) -> Result<Vec<u8>, StoreError> {
        let mut container = ContainerWriter::new();

        let mut schema = ByteWriter::new();
        write_schema(
            &mut schema,
            &SchemaMeta { names: self.attribute_names.clone(), types: self.attribute_types.clone() },
        );
        container.section(SectionId::Schema, schema);

        let mut config = ByteWriter::new();
        write_config(&mut config, &self.config);
        container.section(SectionId::Config, config);

        let mut constraints = ByteWriter::new();
        constraints.string(&self.constraints.to_spec_text().map_err(StoreError::Unsupported)?);
        container.section(SectionId::Constraints, constraints);

        let mut dicts = ByteWriter::new();
        write_dicts(&mut dicts, self.compensatory.dicts());
        container.section(SectionId::Dicts, dicts);

        let mut structure = ByteWriter::new();
        write_dag(&mut structure, &self.dag);
        container.section(SectionId::Structure, structure);

        let mut counts = ByteWriter::new();
        counts.usize(self.node_counts.len());
        for node in &self.node_counts {
            bclean_store::write_counts(&mut counts, &node.snapshot());
        }
        container.section(SectionId::NodeCounts, counts);

        let mut compensatory = ByteWriter::new();
        write_compensatory(&mut compensatory, &self.compensatory);
        container.section(SectionId::Compensatory, compensatory);

        Ok(container.into_bytes())
    }

    /// Reconstruct an artifact from container bytes, validating every
    /// cross-section invariant (arities, code spaces, parent sets against
    /// the structure) so a corrupted-but-CRC-valid file can never produce a
    /// silently wrong model.
    pub fn from_bytes(bytes: &[u8]) -> Result<ModelArtifact, StoreError> {
        let container = ContainerReader::parse(bytes)?;

        let mut r = container.section(SectionId::Schema)?;
        let schema = read_schema(&mut r)?;
        r.finish()?;
        let arity = schema.names.len();

        let mut r = container.section(SectionId::Config)?;
        let config = read_config(&mut r)?;
        r.finish()?;

        let mut r = container.section(SectionId::Constraints)?;
        let spec_text = r.string()?;
        r.finish()?;
        let constraints = ConstraintSet::from_spec_text(&spec_text)
            .map_err(|e| StoreError::Corrupt(format!("constraints section: {e}")))?;

        let mut r = container.section(SectionId::Dicts)?;
        let dicts = read_dicts(&mut r)?;
        r.finish()?;
        if dicts.len() != arity {
            return Err(StoreError::Corrupt(format!("{} dictionaries for {arity} attributes", dicts.len())));
        }

        let mut r = container.section(SectionId::Structure)?;
        let dag = read_dag(&mut r)?;
        r.finish()?;
        if dag.num_nodes() != arity {
            return Err(StoreError::Corrupt(format!(
                "structure over {} nodes for {arity} attributes",
                dag.num_nodes()
            )));
        }

        let mut r = container.section(SectionId::NodeCounts)?;
        let count = r.bounded_len(arity, "node count list")?;
        if count != arity {
            return Err(StoreError::Corrupt(format!("{count} node-count records for {arity} attributes")));
        }
        let mut node_counts = Vec::with_capacity(count);
        for node in 0..count {
            let counts = bclean_store::read_counts(&mut r)?;
            if counts.node() != node {
                return Err(StoreError::Corrupt(format!(
                    "node-count record {node} describes node {}",
                    counts.node()
                )));
            }
            if counts.parents() != dag.parents(node).as_slice() {
                return Err(StoreError::Corrupt(format!(
                    "node {node} counted parents {:?} but the structure says {:?}",
                    counts.parents(),
                    dag.parents(node)
                )));
            }
            node_counts.push(counts);
        }
        r.finish()?;
        for counts in &node_counts {
            if counts.value_slots() != dicts[counts.node()].code_space() {
                return Err(StoreError::Corrupt(format!(
                    "node {} counts {} value slots but its dictionary has {}",
                    counts.node(),
                    counts.value_slots(),
                    dicts[counts.node()].code_space()
                )));
            }
            for (i, &parent) in counts.parents().iter().enumerate() {
                if parent >= arity || counts.radices()[i] as usize != dicts[parent].code_space() {
                    return Err(StoreError::Corrupt(format!(
                        "node {} radix {i} does not match parent {parent}'s code space",
                        counts.node()
                    )));
                }
            }
        }

        let mut r = container.section(SectionId::Compensatory)?;
        let compensatory = read_compensatory(&mut r, dicts)?;
        r.finish()?;

        Ok(ModelArtifact::from_parts(
            config,
            constraints,
            schema.names,
            schema.types,
            dag,
            node_counts,
            compensatory,
        ))
    }

    /// Save the artifact to a `.bclean` file. The write is atomic-rename:
    /// the bytes land in a sibling temp file first, so a crash or full
    /// disk mid-write can never truncate an existing model in place
    /// (`bclean ingest` updates its model file through this).
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), StoreError> {
        let path = path.as_ref();
        let bytes = self.to_bytes()?;
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(format!(".tmp.{}", std::process::id()));
        let tmp = std::path::PathBuf::from(tmp);
        std::fs::write(&tmp, bytes).map_err(|e| StoreError::io(tmp.display().to_string(), e))?;
        std::fs::rename(&tmp, path).map_err(|e| {
            std::fs::remove_file(&tmp).ok();
            StoreError::io(path.display().to_string(), e)
        })
    }

    /// Load an artifact from a `.bclean` file.
    pub fn load(path: impl AsRef<Path>) -> Result<ModelArtifact, StoreError> {
        let bytes = std::fs::read(path.as_ref())
            .map_err(|e| StoreError::io(path.as_ref().display().to_string(), e))?;
        ModelArtifact::from_bytes(&bytes)
    }

    /// The 64-bit hash of the fitting schema (names + coarse types) — what
    /// `bclean inspect` prints and [`ModelArtifact::check_schema`] guards.
    pub fn schema_hash(&self) -> u64 {
        SchemaMeta { names: self.attribute_names.clone(), types: self.attribute_types.clone() }.hash()
    }

    /// Refuse datasets whose header or coarse types differ from the schema
    /// the artifact was fit on. Cleaning a mismatched CSV would silently
    /// score every cell against the wrong columns' statistics; this guard
    /// turns that into a typed [`StoreError::SchemaMismatch`].
    pub fn check_schema(&self, schema: &Schema) -> Result<(), StoreError> {
        if schema.arity() != self.attribute_names.len() {
            return Err(StoreError::SchemaMismatch {
                detail: format!(
                    "dataset has {} columns, artifact was fit on {}",
                    schema.arity(),
                    self.attribute_names.len()
                ),
            });
        }
        for (col, (name, ty)) in self.attribute_names.iter().zip(&self.attribute_types).enumerate() {
            let attr = schema.attribute(col).expect("column in range");
            if attr.name != *name {
                return Err(StoreError::SchemaMismatch {
                    detail: format!("column {col} is named {:?}, artifact expects {name:?}", attr.name),
                });
            }
            if attr.ty != *ty {
                return Err(StoreError::SchemaMismatch {
                    detail: format!("column {col} ({name:?}) has type {}, artifact expects {ty}", attr.ty),
                });
            }
        }
        Ok(())
    }

    /// Grow the model by one batch: the one ingest path, behind
    /// `bclean ingest`, the daemon's `/ingest` and in-process callers alike.
    /// The batch is absorbed into the artifact's sufficient statistics
    /// without the historical rows: only the batch is encoded, against the
    /// persisted dictionaries grown with fresh tail codes
    /// ([`EncodedDataset::with_dicts`]), and the absorbs read its rows
    /// `0..batch`. The structure is kept as-is, so
    /// [`ModelArtifact::compile`] afterwards equals
    /// [`crate::BClean::fit_with_structure`] over all rows with this
    /// structure; relearning the structure needs the full dataset and a new
    /// fit. An empty batch leaves the artifact unchanged. Returns the new
    /// total row count.
    pub fn ingest_batch(&mut self, batch: &Dataset) -> Result<usize, StoreError> {
        self.check_schema(batch.schema())?;
        let mut encoded = EncodedDataset::with_dicts(self.compensatory.dicts().to_vec(), self.num_rows());
        let rows = encoded.append_batch(batch);
        self.absorb(batch, &encoded, rows);
        Ok(self.num_rows())
    }
}

/// Encode the full [`BCleanConfig`], field for field.
fn write_config(w: &mut ByteWriter, config: &BCleanConfig) {
    w.f64(config.params.lambda);
    w.f64(config.params.beta);
    w.f64(config.params.tau);
    w.f64(config.alpha);
    w.usize(config.structure.fdx.max_pairs_per_attribute);
    w.f64(config.structure.glasso.rho);
    w.usize(config.structure.glasso.max_iter);
    w.f64(config.structure.glasso.tol);
    w.usize(config.structure.glasso.inner.max_iter);
    w.f64(config.structure.glasso.inner.tol);
    w.f64(config.structure.weight_threshold);
    w.usize(config.structure.max_parents);
    w.f64(config.structure.min_fd_lift);
    w.bool(config.use_constraints);
    w.bool(config.use_compensatory);
    w.bool(config.partitioned_inference);
    w.bool(config.tuple_pruning);
    w.bool(config.domain_pruning);
    w.f64(config.tau_clean);
    w.usize(config.domain_top_k);
    w.f64(config.repair_margin);
    w.bool(config.anchored_candidates);
    w.f64(config.anchor_min_confidence);
    w.f64(config.no_anchor_margin);
    w.usize(config.num_threads);
}

/// Decode a [`BCleanConfig`].
fn read_config(r: &mut ByteReader<'_>) -> Result<BCleanConfig, StoreError> {
    let params = CompensatoryParams { lambda: r.f64()?, beta: r.f64()?, tau: r.f64()? };
    let alpha = r.f64()?;
    let mut structure = StructureConfig::default();
    structure.fdx.max_pairs_per_attribute = r.usize()?;
    structure.glasso.rho = r.f64()?;
    structure.glasso.max_iter = r.usize()?;
    structure.glasso.tol = r.f64()?;
    structure.glasso.inner.max_iter = r.usize()?;
    structure.glasso.inner.tol = r.f64()?;
    structure.weight_threshold = r.f64()?;
    structure.max_parents = r.usize()?;
    structure.min_fd_lift = r.f64()?;
    Ok(BCleanConfig {
        params,
        alpha,
        structure,
        use_constraints: r.bool()?,
        use_compensatory: r.bool()?,
        partitioned_inference: r.bool()?,
        tuple_pruning: r.bool()?,
        domain_pruning: r.bool()?,
        tau_clean: r.f64()?,
        domain_top_k: r.usize()?,
        repair_margin: r.f64()?,
        anchored_candidates: r.bool()?,
        anchor_min_confidence: r.f64()?,
        no_anchor_margin: r.f64()?,
        num_threads: r.usize()?,
    })
}

/// Encode the compensatory counters: the parameters and scalars, the
/// value counts, then each unordered column pair's index once, in
/// [`column_pairs`] order and CSR form — the forward offsets, the keys and
/// the `(pos, neg)` tallies. The transposed runs are derived, so they are
/// rebuilt on load instead of stored.
fn write_compensatory(w: &mut ByteWriter, model: &CompensatoryModel) {
    w.f64(model.params.lambda);
    w.f64(model.params.beta);
    w.f64(model.params.tau);
    w.usize(model.num_rows);
    w.usize(model.num_cols);
    w.f64(model.conf_sum);
    w.usize(model.value_counts.len());
    for counts in &model.value_counts {
        w.u32_slice(counts);
    }
    for index in &model.pairs {
        let (offsets, keys, entries) = index.runs();
        w.u32_slice(offsets);
        w.u32_slice(keys);
        for entry in entries {
            w.u32(entry.pos);
            w.u32(entry.neg);
        }
    }
}

/// Decode the compensatory counters against the already-loaded
/// dictionaries (which define the code spaces every entry must fit).
/// Every index is checked against its invariants and the value counts
/// ([`PairIndex::from_runs`]); lengths are bounded by the remaining input
/// before anything is allocated for them.
fn read_compensatory(
    r: &mut ByteReader<'_>,
    dicts: Vec<bclean_data::ColumnDict>,
) -> Result<CompensatoryModel, StoreError> {
    let params = CompensatoryParams { lambda: r.f64()?, beta: r.f64()?, tau: r.f64()? };
    let num_rows = r.usize()?;
    let num_cols = r.usize()?;
    if num_cols != dicts.len() {
        return Err(StoreError::Corrupt(format!(
            "compensatory model over {num_cols} columns but {} dictionaries",
            dicts.len()
        )));
    }
    let conf_sum = r.f64()?;
    let listed = r.bounded_len(num_cols, "value-count list")?;
    if listed != num_cols {
        return Err(StoreError::Corrupt(format!("{listed} value-count columns, expected {num_cols}")));
    }
    let mut value_counts = Vec::with_capacity(num_cols);
    for (col, dict) in dicts.iter().enumerate() {
        let counts = r.u32_slice()?;
        let space = dict.code_space();
        if counts.len() != space {
            return Err(StoreError::Corrupt(format!(
                "column {col} value counts cover {} codes, dictionary has {space}",
                counts.len()
            )));
        }
        if counts.iter().map(|&c| c as u64).sum::<u64>() != num_rows as u64 {
            return Err(StoreError::Corrupt(format!(
                "column {col} value counts do not sum to the row count"
            )));
        }
        value_counts.push(counts);
    }
    let mut pairs = Vec::new();
    for (lo, hi) in column_pairs(num_cols) {
        let offsets = r.u32_slice()?;
        let keys = r.u32_slice()?;
        let entries = (0..keys.len())
            .map(|_| Ok(PairEntry { pos: r.u32()?, neg: r.u32()? }))
            .collect::<Result<Vec<PairEntry>, StoreError>>()?;
        let index = PairIndex::from_runs(offsets, keys, entries, &value_counts[lo], &value_counts[hi])
            .map_err(|e| StoreError::Corrupt(format!("column pair ({lo}, {hi}): {e}")))?;
        pairs.push(index);
    }
    Ok(CompensatoryModel { params, dicts, pairs, value_counts, num_rows, num_cols, conf_sum })
}

#[cfg(test)]
mod tests {
    use bclean_bayesnet::{CountsSnapshot, Dag};
    use bclean_data::{dataset_from, Attribute, Value};

    use super::*;
    use crate::cleaner::BClean;
    use crate::config::Variant;
    use crate::constraints::UserConstraint;

    fn dirty() -> Dataset {
        dataset_from(
            &["City", "State", "ZipCode"],
            &[
                vec!["sylacauga", "CA", "35150"],
                vec!["sylacauga", "CA", "35150"],
                vec!["sylacauga", "KT", "35150"],
                vec!["sylacaugq", "CA", "35150"],
                vec!["centre", "KT", "35960"],
                vec!["centre", "KT", "35960"],
                vec!["centre", "", "35960"],
                vec!["centre", "KT", "35960"],
            ],
        )
    }

    fn constraints() -> ConstraintSet {
        let mut ucs = ConstraintSet::new();
        ucs.add("ZipCode", UserConstraint::pattern("^[1-9][0-9]{4,4}$").unwrap());
        ucs.add("State", UserConstraint::MaxLength(2));
        ucs.add("State", UserConstraint::NotNull);
        ucs
    }

    /// `load(save(a))` then clean must be bit-identical to cleaning with
    /// the original artifact, and serialization must be deterministic.
    #[test]
    fn round_trip_preserves_repairs_and_bytes() {
        let data = dirty();
        let cleaner = BClean::new(Variant::PartitionedInference.config()).with_constraints(constraints());
        let artifact = cleaner.fit_artifact(&data);
        let bytes = artifact.to_bytes().unwrap();
        assert_eq!(bytes, artifact.to_bytes().unwrap(), "serialization must be deterministic");
        let loaded = ModelArtifact::from_bytes(&bytes).unwrap();
        assert_eq!(loaded.dag(), artifact.dag());
        assert_eq!(loaded.attribute_names(), artifact.attribute_names());
        assert_eq!(loaded.attribute_types(), artifact.attribute_types());
        assert_eq!(loaded.num_rows(), artifact.num_rows());
        assert_eq!(loaded.schema_hash(), artifact.schema_hash());
        let original = artifact.compile().clean(&data);
        let restored = loaded.compile().clean(&data);
        assert_eq!(restored.repairs, original.repairs);
        assert_eq!(restored.cleaned, original.cleaned);
        // Re-saving the loaded artifact reproduces the bytes exactly (the
        // stability CI's golden gate byte-compares).
        assert_eq!(loaded.to_bytes().unwrap(), bytes);
    }

    /// File-level save/load round-trips through the filesystem.
    #[test]
    fn save_and_load_files() {
        let data = dirty();
        let artifact = BClean::new(Variant::Basic.config()).fit_artifact(&data);
        let dir = std::env::temp_dir().join(format!("bclean-persist-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.bclean");
        artifact.save(&path).unwrap();
        let loaded = ModelArtifact::load(&path).unwrap();
        assert_eq!(loaded.to_bytes().unwrap(), artifact.to_bytes().unwrap());
        std::fs::remove_dir_all(&dir).ok();
        assert!(matches!(ModelArtifact::load(dir.join("missing.bclean")), Err(StoreError::Io { .. })));
    }

    /// The schema guard refuses renamed, retyped, reordered and re-aritied
    /// datasets.
    #[test]
    fn schema_guard_refuses_drifted_datasets() {
        let data = dirty();
        let artifact = BClean::new(Variant::Basic.config()).fit_artifact(&data);
        artifact.check_schema(data.schema()).unwrap();
        let renamed = Schema::from_names(&["City", "Province", "ZipCode"]).unwrap();
        assert!(matches!(artifact.check_schema(&renamed), Err(StoreError::SchemaMismatch { .. })));
        let reordered = Schema::from_names(&["State", "City", "ZipCode"]).unwrap();
        assert!(matches!(artifact.check_schema(&reordered), Err(StoreError::SchemaMismatch { .. })));
        let narrower = Schema::from_names(&["City", "State"]).unwrap();
        assert!(matches!(artifact.check_schema(&narrower), Err(StoreError::SchemaMismatch { .. })));
        let retyped = Schema::new(vec![
            Attribute::text("City"),
            Attribute::categorical("State"),
            Attribute::categorical("ZipCode"),
        ])
        .unwrap();
        assert!(matches!(artifact.check_schema(&retyped), Err(StoreError::SchemaMismatch { .. })));
    }

    /// Closure-backed constraints cannot be persisted — typed error, no
    /// panic.
    #[test]
    fn custom_constraints_are_unsupported() {
        let mut ucs = ConstraintSet::new();
        ucs.add("City", UserConstraint::custom("opaque", |v: &Value| !v.is_null()));
        let artifact = BClean::new(Variant::Basic.config()).with_constraints(ucs).fit_artifact(&dirty());
        assert!(matches!(artifact.to_bytes(), Err(StoreError::Unsupported(_))));
    }

    /// One column pair's persisted `(offsets, keys, entries)`.
    type Runs = (Vec<u32>, Vec<u32>, Vec<PairEntry>);
    type Mutation<'a> = Box<dyn Fn(&mut Runs) + 'a>;

    /// The compensatory payload of `model` with its pair runs replaced by
    /// `runs`, one per column pair.
    fn payload_with_runs(model: &CompensatoryModel, runs: &[Runs]) -> Vec<u8> {
        let mut w = ByteWriter::new();
        write_compensatory(&mut w, &CompensatoryModel { pairs: Vec::new(), ..model.clone() });
        for (offsets, keys, entries) in runs {
            w.u32_slice(offsets);
            w.u32_slice(keys);
            for entry in entries {
                w.u32(entry.pos);
                w.u32(entry.neg);
            }
        }
        w.into_bytes()
    }

    /// `bytes` with section `id`'s payload replaced by `payload` and its CRC
    /// recomputed, so the container still verifies.
    fn resealed(bytes: &[u8], id: SectionId, payload: &[u8]) -> Vec<u8> {
        let container = ContainerReader::parse(bytes).unwrap();
        // Magic, version and section count, then per section a 14-byte
        // header (id, length, CRC) and the payload.
        let mut pos = bclean_store::MAGIC.len() + 8;
        let mut out = bytes[..pos].to_vec();
        for (section, len) in container.section_sizes() {
            if section == id {
                out.extend_from_slice(&bytes[pos..pos + 2]);
                out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
                out.extend_from_slice(&bclean_store::crc32(payload).to_le_bytes());
                out.extend_from_slice(payload);
            } else {
                out.extend_from_slice(&bytes[pos..pos + 14 + len]);
            }
            pos += 14 + len;
        }
        out
    }

    /// Structurally malformed compensatory payloads that pass the CRC are
    /// refused with typed errors — never a panic, and never an allocation
    /// the remaining input cannot back.
    #[test]
    fn malformed_compensatory_payloads_are_rejected() {
        let artifact = BClean::new(Variant::PartitionedInference.config())
            .with_constraints(constraints())
            .fit_artifact(&dirty());
        let bytes = artifact.to_bytes().unwrap();
        let model = &*artifact.compensatory;
        let runs: Vec<Runs> = model
            .pairs
            .iter()
            .map(|index| {
                let (offsets, keys, entries) = index.runs();
                (offsets.to_vec(), keys.to_vec(), entries.to_vec())
            })
            .collect();
        let unchanged = payload_with_runs(model, &runs);
        let loaded =
            ModelArtifact::from_bytes(&resealed(&bytes, SectionId::Compensatory, &unchanged)).unwrap();
        assert_eq!(loaded.to_bytes().unwrap(), bytes, "the re-sealed original loads unchanged");

        // Pair (0, 1) is City × State: runs of several entries to mutate.
        let (offsets, keys, _) = &runs[0];
        let long_run = (0..offsets.len() - 1)
            .find(|&a| offsets[a + 1] - offsets[a] >= 2)
            .expect("some city co-occurs with two states");
        let first = offsets[long_run] as usize;
        let space_hi = model.dicts[1].code_space() as u32;
        let mutations: Vec<(&str, Mutation)> = vec![
            ("decreasing offsets", Box::new(|run| run.0.swap(long_run, long_run + 1))),
            ("offsets past the entries", Box::new(|run| *run.0.last_mut().unwrap() += 1)),
            ("offsets below the entries", Box::new(|run| *run.0.last_mut().unwrap() -= 1)),
            ("a run out of order", Box::new(move |run| run.1.swap(first, first + 1))),
            ("a duplicate key", Box::new(move |run| run.1[first + 1] = run.1[first])),
            ("a code outside its space", Box::new(move |run| run.1[keys.len() - 1] = space_hi)),
            ("a u32::MAX code", Box::new(move |run| run.1[keys.len() - 1] = u32::MAX)),
            ("an all-zero entry", Box::new(|run| run.2[0] = PairEntry::default())),
            ("a run over its value count", Box::new(|run| run.2[0].pos += 1)),
            (
                "a tally moved between keys",
                Box::new(move |run| {
                    let (from, to) =
                        if run.2[first].count() > 1 { (first, first + 1) } else { (first + 1, first) };
                    if run.2[from].pos > 0 {
                        run.2[from].pos -= 1;
                        run.2[to].pos += 1;
                    } else {
                        run.2[from].neg -= 1;
                        run.2[to].neg += 1;
                    }
                }),
            ),
        ];
        for (what, mutate) in &mutations {
            let mut mutated = runs.clone();
            mutate(&mut mutated[0]);
            let payload = payload_with_runs(model, &mutated);
            let err = read_compensatory(&mut ByteReader::new(&payload, "compensatory"), model.dicts.clone())
                .expect_err(what);
            assert!(matches!(err, StoreError::Corrupt(_) | StoreError::Truncated { .. }), "{what}: {err:?}");
            let err = ModelArtifact::from_bytes(&resealed(&bytes, SectionId::Compensatory, &payload))
                .expect_err(what);
            assert!(matches!(err, StoreError::Corrupt(_) | StoreError::Truncated { .. }), "{what}: {err:?}");
        }

        // Huge length prefixes: for the offsets, for the keys, and keys
        // whose entries the payload does not carry.
        let header = payload_with_runs(model, &[]);
        let huge = u64::MAX / 2;
        for prefix in [vec![huge], vec![offsets.len() as u64, huge]] {
            let mut payload = header.clone();
            for (i, &len) in prefix.iter().enumerate() {
                payload.extend_from_slice(&len.to_le_bytes());
                if i + 1 < prefix.len() {
                    offsets.iter().for_each(|o| payload.extend_from_slice(&o.to_le_bytes()));
                }
            }
            let err = read_compensatory(&mut ByteReader::new(&payload, "compensatory"), model.dicts.clone())
                .expect_err("huge length");
            assert!(matches!(err, StoreError::Corrupt(_) | StoreError::Truncated { .. }), "{err:?}");
        }
        let mut truncated = payload_with_runs(model, &runs[..1]);
        truncated.truncate(truncated.len() - 8);
        let err = read_compensatory(&mut ByteReader::new(&truncated, "compensatory"), model.dicts.clone())
            .expect_err("missing entries");
        assert!(matches!(err, StoreError::Truncated { .. }), "{err:?}");
    }

    /// Structurally malformed config payloads that pass the CRC are refused
    /// with typed errors: every strict prefix is truncated; a trailing byte
    /// (the format v6 layout's exact fit-budget tail), the 8-byte
    /// `candidate_top_k` slot that ended the v7 layout and a bool slot
    /// outside 0/1 are corrupt. Never a panic.
    #[test]
    fn malformed_config_payloads_are_rejected() {
        let artifact = BClean::new(Variant::PartitionedInference.config())
            .with_constraints(constraints())
            .fit_artifact(&dirty());
        let bytes = artifact.to_bytes().unwrap();
        let encode = |config: &BCleanConfig| {
            let mut w = ByteWriter::new();
            write_config(&mut w, config);
            w.into_bytes()
        };
        let payload = encode(artifact.config());
        assert_eq!(resealed(&bytes, SectionId::Config, &payload), bytes, "the payload is the config section");
        let decode = |payload: &[u8]| {
            let mut r = ByteReader::new(payload, "config");
            let config = read_config(&mut r)?;
            r.finish().map(|()| config)
        };
        decode(&payload).unwrap();

        // The bool slots are the bytes that change when every bool flips.
        let mut negated = artifact.config().clone();
        for flag in [
            &mut negated.use_constraints,
            &mut negated.use_compensatory,
            &mut negated.partitioned_inference,
            &mut negated.tuple_pruning,
            &mut negated.domain_pruning,
            &mut negated.anchored_candidates,
        ] {
            *flag = !*flag;
        }
        let negated = encode(&negated);
        let bool_slots: Vec<usize> = (0..payload.len()).filter(|&i| payload[i] != negated[i]).collect();
        assert_eq!(bool_slots.len(), 6);

        let mut mutations: Vec<(String, Vec<u8>, bool)> = (0..payload.len())
            .map(|len| (format!("a {len}-byte prefix"), payload[..len].to_vec(), true))
            .collect();
        mutations.push(("a trailing 0x00 byte".to_string(), [&payload[..], &[0]].concat(), false));
        let v7_tail = (usize::MAX as u64).to_le_bytes();
        mutations.push(("the v7 candidate_top_k tail".to_string(), [&payload[..], &v7_tail].concat(), false));
        for slot in bool_slots {
            let mut mutated = payload.clone();
            mutated[slot] = 2;
            mutations.push((format!("bool byte 2 at offset {slot}"), mutated, false));
        }
        for (what, mutated, truncated) in &mutations {
            let section = decode(mutated).expect_err(what);
            let file =
                ModelArtifact::from_bytes(&resealed(&bytes, SectionId::Config, mutated)).expect_err(what);
            for err in [section, file] {
                if *truncated {
                    assert!(matches!(err, StoreError::Truncated { .. }), "{what}: {err:?}");
                } else {
                    assert!(matches!(err, StoreError::Corrupt(_)), "{what}: {err:?}");
                }
            }
        }
    }

    /// Structurally malformed node-count payloads that pass the CRC are
    /// refused with typed errors: every strict prefix is truncated; an
    /// unsorted or repeated code, a zero count, a code at or past the value
    /// slots, configurations out of order or outside their space, an empty
    /// configuration and counts that do not sum to the marginal are
    /// corrupt. Each is checked on the record alone through `read_counts`
    /// and in a re-sealed artifact. Never a panic.
    #[test]
    fn malformed_node_counts_payloads_are_rejected() {
        // ZipCode → City and ZipCode → State, so that both have observed
        // configurations to mutate.
        let data = dirty();
        let mut dag = Dag::new(3);
        dag.add_edge(2, 0).unwrap();
        dag.add_edge(2, 1).unwrap();
        let names = data.schema().names().iter().map(|s| s.to_string()).collect();
        let types = (0..3).map(|c| data.schema().attribute(c).unwrap().ty).collect();
        let artifact = BClean::new(Variant::PartitionedInference.config())
            .with_constraints(constraints())
            .artifact_from_encoded_parts(
                names,
                types,
                &EncodedDataset::from_dataset(&data),
                dag,
                &vec![1.0; data.num_rows()],
            );
        let bytes = artifact.to_bytes().unwrap();
        let snapshots: Vec<CountsSnapshot> = artifact.node_counts.iter().map(|c| c.snapshot()).collect();
        let record = |snapshot: &CountsSnapshot| {
            let mut w = ByteWriter::new();
            bclean_store::write_counts(&mut w, snapshot);
            w.into_bytes()
        };
        let payload = |records: &[Vec<u8>]| {
            let mut w = ByteWriter::new();
            w.usize(records.len());
            let mut payload = w.into_bytes();
            records.iter().for_each(|record| payload.extend_from_slice(record));
            payload
        };
        let records: Vec<Vec<u8>> = snapshots.iter().map(record).collect();
        let unchanged = payload(&records);
        assert_eq!(resealed(&bytes, SectionId::NodeCounts, &unchanged), bytes, "the payload is the section");

        // City under ZipCode 35150 was seen as sylacauga three times and
        // sylacaugq once, under 35960 as centre.
        let node = 0;
        assert_eq!(snapshots[node].configs.iter().map(|c| c.1.len()).collect::<Vec<_>>(), [2, 1]);
        assert_eq!(snapshots[node].configs[0].1[0].1, 3);
        let slots = snapshots[node].value_slots as u32;
        let space: u128 = snapshots[node].radices.iter().map(|&r| r as u128).product();
        type Mutation = Box<dyn Fn(&mut CountsSnapshot)>;
        let mutations: Vec<(&str, Mutation)> = vec![
            ("an unsorted run", Box::new(|s| s.configs[0].1.swap(0, 1))),
            ("a repeated code", Box::new(|s| s.configs[0].1[1].0 = s.configs[0].1[0].0)),
            ("a zero count", Box::new(|s| s.configs[0].1[0].1 = 0)),
            ("a code at the value slots", Box::new(move |s| s.configs[0].1.last_mut().unwrap().0 = slots)),
            ("a u32::MAX code", Box::new(|s| s.configs[0].1.last_mut().unwrap().0 = u32::MAX)),
            ("configurations out of order", Box::new(|s| s.configs.swap(0, 1))),
            ("a repeated configuration", Box::new(|s| s.configs[1].0 = s.configs[0].0)),
            ("an index outside the space", Box::new(move |s| s.configs.last_mut().unwrap().0 = space)),
            ("an empty configuration", Box::new(|s| s.configs[0].1.clear())),
            ("counts over the marginal", Box::new(|s| s.configs[0].1[0].1 += 1)),
            (
                "a count moved between codes",
                Box::new(|s| {
                    s.configs[0].1[0].1 -= 1;
                    s.configs[0].1[1].1 += 1;
                }),
            ),
        ];
        let read_record = |record: &[u8]| {
            let mut r = ByteReader::new(record, "node counts");
            let counts = bclean_store::read_counts(&mut r)?;
            r.finish().map(|()| counts)
        };
        for (what, mutate) in &mutations {
            let mut snapshot = snapshots[node].clone();
            mutate(&mut snapshot);
            let mut mutated = records.clone();
            mutated[node] = record(&snapshot);
            let section = read_record(&mutated[node]).expect_err(what);
            let file =
                ModelArtifact::from_bytes(&resealed(&bytes, SectionId::NodeCounts, &payload(&mutated)))
                    .expect_err(what);
            for err in [section, file] {
                assert!(matches!(err, StoreError::Corrupt(_)), "{what}: {err:?}");
            }
        }

        for len in 0..records[node].len() {
            let err = read_record(&records[node][..len]).expect_err("a record prefix");
            assert!(matches!(err, StoreError::Truncated { .. }), "a {len}-byte record prefix: {err:?}");
        }
        for len in 0..unchanged.len() {
            let prefix = resealed(&bytes, SectionId::NodeCounts, &unchanged[..len]);
            let err = ModelArtifact::from_bytes(&prefix).expect_err("a section prefix");
            assert!(matches!(err, StoreError::Truncated { .. }), "a {len}-byte section prefix: {err:?}");
        }
    }

    /// Cross-process ingest (only the batch encoded) must leave the
    /// artifact in the exact state an in-process absorb over live history
    /// reaches.
    #[test]
    fn ingest_batch_matches_in_process_absorb() {
        let data = dirty();
        let cleaner = BClean::new(Variant::PartitionedInference.config()).with_constraints(constraints());
        let batch = dataset_from(
            &["City", "State", "ZipCode"],
            &[
                vec!["gadsden", "AL", "35901"], // new values in every column
                vec!["centre", "KT", "35960"],
                vec!["sylacauga", "", "35150"],
            ],
        );

        // In-process: live encoding of the full history.
        let mut live = cleaner.fit_artifact(&data);
        let mut encoded = EncodedDataset::from_dataset(&data);
        let rows = encoded.append_batch(&batch);
        live.absorb(&batch, &encoded, rows);

        // Cross-process: save, load, ingest without history.
        let mut restored =
            ModelArtifact::from_bytes(&cleaner.fit_artifact(&data).to_bytes().unwrap()).unwrap();
        let rows = restored.ingest_batch(&batch).unwrap();
        assert_eq!(rows, data.num_rows() + batch.num_rows());

        // Identical persisted state and identical downstream repairs.
        assert_eq!(restored.to_bytes().unwrap(), live.to_bytes().unwrap());
        let mut combined = data.clone();
        for row in batch.rows() {
            combined.push_row(row.to_vec()).unwrap();
        }
        let live_result = live.compile().clean(&combined);
        let restored_result = restored.compile().clean(&combined);
        assert_eq!(restored_result.repairs, live_result.repairs);
        assert!(matches!(
            restored.ingest_batch(&dataset_from(&["Wrong"], &[vec!["x"]])),
            Err(StoreError::SchemaMismatch { .. })
        ));
    }

    /// A model whose history is all null has only empty dictionaries, yet
    /// its null codes are taken: ingesting values must grow the
    /// dictionaries in place, as a live encoding of that history does.
    #[test]
    fn ingest_after_all_null_history_matches_live_absorb() {
        let names = ["City", "State"];
        let empty = dataset_from(&names, &[]);
        let nulls = dataset_from(&names, &[vec!["", ""], vec!["", ""]]);
        let values = dataset_from(&names, &[vec!["centre", "KT"], vec!["", "CA"]]);
        let cleaner = BClean::new(Variant::Basic.config());

        let mut live = cleaner.fit_artifact(&empty);
        let mut encoded = EncodedDataset::from_dataset(&empty);
        for batch in [&nulls, &values] {
            let rows = encoded.append_batch(batch);
            live.absorb(batch, &encoded, rows);
        }

        let mut ingested = cleaner.fit_artifact(&empty);
        for batch in [&nulls, &values] {
            ingested = ModelArtifact::from_bytes(&ingested.to_bytes().unwrap()).unwrap();
            ingested.ingest_batch(batch).unwrap();
        }
        assert_eq!(ingested.to_bytes().unwrap(), live.to_bytes().unwrap());
        assert_eq!(ingested.compensatory.value_count(0, &Value::Null), 3);
    }

    /// Config round-trips field-for-field, including non-default values.
    #[test]
    fn config_codec_round_trips() {
        let mut config = Variant::PartitionedInferencePruning.config().with_threads(3);
        config.params = CompensatoryParams { lambda: 0.25, beta: 1.5, tau: 0.75 };
        config.alpha = 0.7;
        config.structure.max_parents = 5;
        config.structure.glasso.rho = 0.42;
        config.repair_margin = 0.125;
        let mut w = ByteWriter::new();
        write_config(&mut w, &config);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes, "config");
        let back = read_config(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(format!("{back:?}"), format!("{config:?}"));
    }
}
