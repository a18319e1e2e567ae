//! Section codecs for the substrate types: schema metadata, dictionary
//! layouts, DAG structure and `NodeCounts` snapshots.
//!
//! Everything here is deterministic — equal in-memory state always encodes
//! to equal bytes — which is what lets CI byte-compare a committed golden
//! artifact against a fresh re-save (any layout change that forgets to
//! bump [`crate::FORMAT_VERSION`] shows up as a byte diff or a typed load
//! failure, never as silent drift).

use bclean_bayesnet::{CountsSnapshot, Dag, NodeCounts};
use bclean_data::{AttrType, ColumnDict};

use crate::codec::{ByteReader, ByteWriter};
use crate::error::StoreError;

/// The schema metadata persisted with an artifact: attribute names and
/// coarse types, plus the 64-bit hash that guards fit-once/clean-many.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchemaMeta {
    /// Attribute names, in column order.
    pub names: Vec<String>,
    /// Coarse attribute types, in column order.
    pub types: Vec<AttrType>,
}

impl SchemaMeta {
    /// FNV-1a over names and types — the schema hash `bclean inspect`
    /// prints and the clean/ingest guard compares.
    pub fn hash(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut hash = OFFSET;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                hash ^= b as u64;
                hash = hash.wrapping_mul(PRIME);
            }
        };
        for (name, ty) in self.names.iter().zip(&self.types) {
            eat(name.as_bytes());
            eat(&[0xFF, attr_type_tag(*ty)]);
        }
        hash
    }
}

fn attr_type_tag(ty: AttrType) -> u8 {
    match ty {
        AttrType::Categorical => 0,
        AttrType::Numeric => 1,
        AttrType::Text => 2,
    }
}

fn attr_type_from_tag(tag: u8) -> Result<AttrType, StoreError> {
    match tag {
        0 => Ok(AttrType::Categorical),
        1 => Ok(AttrType::Numeric),
        2 => Ok(AttrType::Text),
        other => Err(StoreError::Corrupt(format!("invalid attribute type tag {other}"))),
    }
}

/// Encode the schema section (names, types, recorded hash).
pub fn write_schema(w: &mut ByteWriter, meta: &SchemaMeta) {
    debug_assert_eq!(meta.names.len(), meta.types.len());
    w.usize(meta.names.len());
    for (name, ty) in meta.names.iter().zip(&meta.types) {
        w.string(name);
        w.u8(attr_type_tag(*ty));
    }
    w.u64(meta.hash());
}

/// Decode the schema section, verifying the recorded hash against a
/// recomputation (a second, structure-aware integrity check on top of the
/// section CRC).
pub fn read_schema(r: &mut ByteReader<'_>) -> Result<SchemaMeta, StoreError> {
    let arity = r.bounded_len(r.remaining(), "schema arity")?;
    let mut names = Vec::with_capacity(arity);
    let mut types = Vec::with_capacity(arity);
    for _ in 0..arity {
        names.push(r.string()?);
        types.push(attr_type_from_tag(r.u8()?)?);
    }
    let meta = SchemaMeta { names, types };
    let recorded = r.u64()?;
    if recorded != meta.hash() {
        return Err(StoreError::Corrupt(format!(
            "recorded schema hash {recorded:016x} does not match recomputed {:016x}",
            meta.hash()
        )));
    }
    Ok(meta)
}

/// Encode one dictionary's persistent layout (decode table + frozen null
/// position; the encode index and sorted-order remap are derived).
pub fn write_dict(w: &mut ByteWriter, dict: &ColumnDict) {
    match dict.frozen_null_code() {
        None => w.u8(0),
        Some(null) => {
            w.u8(1);
            w.u32(null);
        }
    }
    w.usize(dict.values().len());
    for value in dict.values() {
        w.value(value);
    }
}

/// Decode one dictionary, rebuilding its derived state.
pub fn read_dict(r: &mut ByteReader<'_>) -> Result<ColumnDict, StoreError> {
    let frozen_null = match r.u8()? {
        0 => None,
        1 => Some(r.u32()?),
        tag => return Err(StoreError::Corrupt(format!("invalid dictionary layout tag {tag}"))),
    };
    let len = r.bounded_len(r.remaining(), "dictionary")?;
    let mut values = Vec::with_capacity(len);
    for _ in 0..len {
        values.push(r.value()?);
    }
    ColumnDict::from_layout(values, frozen_null).map_err(StoreError::Corrupt)
}

/// Encode all per-column dictionaries.
pub fn write_dicts(w: &mut ByteWriter, dicts: &[ColumnDict]) {
    w.usize(dicts.len());
    for dict in dicts {
        write_dict(w, dict);
    }
}

/// Decode all per-column dictionaries.
pub fn read_dicts(r: &mut ByteReader<'_>) -> Result<Vec<ColumnDict>, StoreError> {
    let len = r.bounded_len(r.remaining(), "dictionary list")?;
    (0..len).map(|_| read_dict(r)).collect()
}

/// Encode a DAG as node count + edge list (edges in the DAG's canonical
/// `edges()` order, which is deterministic).
pub fn write_dag(w: &mut ByteWriter, dag: &Dag) {
    w.usize(dag.num_nodes());
    let edges = dag.edges();
    w.usize(edges.len());
    for (from, to) in edges {
        w.usize(from);
        w.usize(to);
    }
}

/// Upper bound on persisted DAG nodes. Nodes are dataset attributes —
/// real schemas have tens of columns — so the bound only exists to make a
/// crafted node count fail as [`StoreError::Corrupt`] instead of sizing a
/// giant allocation inside `Dag::new`.
const MAX_DAG_NODES: usize = 1 << 20;

/// Decode a DAG, re-validating acyclicity through `add_edge`.
pub fn read_dag(r: &mut ByteReader<'_>) -> Result<Dag, StoreError> {
    let num_nodes = r.bounded_len(MAX_DAG_NODES, "DAG nodes")?;
    let num_edges = r.bounded_len(r.remaining() / 16, "DAG edges")?;
    let mut dag = Dag::new(num_nodes);
    for _ in 0..num_edges {
        let from = r.usize()?;
        let to = r.usize()?;
        dag.add_edge(from, to).map_err(|e| StoreError::Corrupt(format!("invalid structure edge: {e}")))?;
    }
    Ok(dag)
}

/// Encode one node's sufficient statistics through its snapshot.
pub fn write_counts(w: &mut ByteWriter, counts: &NodeCounts) {
    let snapshot = counts.snapshot();
    w.usize(snapshot.node);
    w.usize_slice(&snapshot.parents);
    w.u32_slice(&snapshot.radices);
    w.usize(snapshot.value_slots);
    w.u32_slice(&snapshot.marginal);
    w.usize(snapshot.total);
    w.usize(snapshot.configs.len());
    for (index, row, total) in &snapshot.configs {
        w.u128(*index);
        w.u32_slice(row);
        w.u32(*total);
    }
}

/// Decode one node's sufficient statistics, re-deriving strides and the
/// dense/sparse layout through the shared criterion.
pub fn read_counts(r: &mut ByteReader<'_>) -> Result<NodeCounts, StoreError> {
    let node = r.usize()?;
    let parents = r.usize_slice()?;
    let radices = r.u32_slice()?;
    let value_slots = r.usize()?;
    let marginal = r.u32_slice()?;
    let total = r.usize()?;
    let num_configs = r.bounded_len(r.remaining() / 16, "configurations")?;
    let mut configs = Vec::with_capacity(num_configs);
    for _ in 0..num_configs {
        let index = r.u128()?;
        let row = r.u32_slice()?;
        let config_total = r.u32()?;
        configs.push((index, row, config_total));
    }
    NodeCounts::from_snapshot(CountsSnapshot {
        node,
        parents,
        radices,
        value_slots,
        marginal,
        total,
        configs,
    })
    .map_err(StoreError::Corrupt)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bclean_data::{dataset_from, EncodedDataset};

    #[test]
    fn schema_codec_round_trips_and_hash_guards() {
        let meta = SchemaMeta {
            names: vec!["City".into(), "Zip".into()],
            types: vec![AttrType::Text, AttrType::Categorical],
        };
        let mut w = ByteWriter::new();
        write_schema(&mut w, &meta);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes, "schema");
        let back = read_schema(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back, meta);
        // Different names or types hash differently.
        let renamed = SchemaMeta { names: vec!["City".into(), "Zip2".into()], types: meta.types.clone() };
        assert_ne!(renamed.hash(), meta.hash());
        let retyped =
            SchemaMeta { names: meta.names.clone(), types: vec![AttrType::Text, AttrType::Numeric] };
        assert_ne!(retyped.hash(), meta.hash());
        // A tampered recorded hash is caught even when the CRC is bypassed.
        let mut tampered = bytes.clone();
        let last = tampered.len() - 1;
        tampered[last] ^= 0x01;
        let mut r = ByteReader::new(&tampered, "schema");
        assert!(matches!(read_schema(&mut r), Err(StoreError::Corrupt(_))));
    }

    #[test]
    fn dict_dag_counts_codecs_round_trip() {
        let ds = dataset_from(
            &["City", "Zip"],
            &[vec!["sylacauga", "35150"], vec!["centre", "35960"], vec!["", "35150"]],
        );
        let mut encoded = EncodedDataset::from_dataset(&ds);
        encoded.append_batch(&dataset_from(&["City", "Zip"], &[vec!["auburn", ""]]));

        let mut w = ByteWriter::new();
        write_dicts(&mut w, encoded.dicts());
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes, "dicts");
        let dicts = read_dicts(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(dicts.len(), 2);
        for (restored, original) in dicts.iter().zip(encoded.dicts()) {
            assert_eq!(restored.values(), original.values());
            assert_eq!(restored.frozen_null_code(), original.frozen_null_code());
            assert_eq!(restored.code_order(), original.code_order());
        }

        let mut dag = Dag::new(3);
        dag.add_edge(0, 1).unwrap();
        dag.add_edge(2, 1).unwrap();
        let mut w = ByteWriter::new();
        write_dag(&mut w, &dag);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes, "dag");
        assert_eq!(read_dag(&mut r).unwrap(), dag);
        r.finish().unwrap();

        let counts = NodeCounts::accumulate(&encoded, 0, &[1]);
        let mut w = ByteWriter::new();
        write_counts(&mut w, &counts);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes, "counts");
        let restored = read_counts(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(restored.snapshot(), counts.snapshot());
    }

    #[test]
    fn absurd_dag_node_counts_fail_before_allocating() {
        let mut w = ByteWriter::new();
        w.usize(usize::MAX / 2); // crafted node count
        w.usize(0); // no edges
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes, "dag");
        assert!(matches!(read_dag(&mut r), Err(StoreError::Corrupt(_))));
    }

    #[test]
    fn cyclic_structures_are_rejected() {
        let mut w = ByteWriter::new();
        w.usize(2); // nodes
        w.usize(2); // edges
        w.usize(0);
        w.usize(1);
        w.usize(1);
        w.usize(0); // 1 → 0 closes a cycle
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes, "dag");
        assert!(matches!(read_dag(&mut r), Err(StoreError::Corrupt(_))));
    }
}
