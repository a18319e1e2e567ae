//! # bclean-store
//!
//! Versioned, checksummed on-disk serialization for BClean model state —
//! the substrate of fit-once/clean-many across processes and machines.
//!
//! A `.bclean` file is a self-describing binary container
//! ([`ContainerWriter`] / [`ContainerReader`]): 8 magic bytes, a format
//! version, and a sequence of sections each carrying its own CRC-32. This
//! crate owns the container layer, the little-endian wire primitives
//! ([`ByteWriter`] / [`ByteReader`]) and the codecs for the substrate
//! types (dictionary layouts, schema metadata, DAG structure, `NodeCounts`
//! snapshots); `bclean-core` builds `ModelArtifact::{save, load}` on top
//! and the `bclean` CLI operates on the files.
//!
//! Every failure mode is a typed [`StoreError`] — truncation, bit rot,
//! wrong magic, future format versions and structurally impossible state
//! all load as errors, never as panics or silently wrong models. The
//! format-version policy (bump + regenerate committed fixtures on any
//! layout change) is documented in the README's "Persistence & CLI"
//! section and enforced by CI's golden-artifact gate.

#![warn(missing_docs)]

pub mod codec;
pub mod codecs;
pub mod container;
pub mod crc;
pub mod error;

pub use codec::{ByteReader, ByteWriter};
pub use codecs::{
    read_counts, read_dag, read_dict, read_dicts, read_schema, write_counts, write_dag, write_dict,
    write_dicts, write_schema, SchemaMeta,
};
pub use container::{
    read_container_file, ContainerReader, ContainerWriter, SectionId, FORMAT_VERSION, MAGIC,
};
pub use crc::crc32;
pub use error::StoreError;
