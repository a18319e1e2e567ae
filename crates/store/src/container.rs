//! The `.bclean` container: a self-describing sequence of checksummed
//! sections behind a magic + format-version header.
//!
//! ```text
//! offset  size  field
//! 0       8     magic  b"BCLNMODL"
//! 8       4     format version (u32 LE)
//! 12      4     section count (u32 LE)
//! then, per section:
//!         2     section id (u16 LE)
//!         8     payload length (u64 LE)
//!         4     CRC-32 of the payload (u32 LE)
//!         n     payload
//! ```
//!
//! Sections appear in ascending id order and each id appears at most once;
//! the reader verifies every CRC before any payload is handed out. Readers
//! accept exactly [`FORMAT_VERSION`] — the policy is that any incompatible
//! layout change bumps the version and regenerates committed fixtures (see
//! the README's "Persistence & CLI" section); CI's golden-artifact gate
//! exists to catch layout changes that forget the bump.

use crate::codec::{ByteReader, ByteWriter};
use crate::crc::crc32;
use crate::error::StoreError;

/// The 8 magic bytes every `.bclean` container starts with.
pub const MAGIC: [u8; 8] = *b"BCLNMODL";

/// The container format version this build writes, and the only one it
/// reads. Bump on any incompatible change to the header, the section set,
/// or any section's payload layout — and regenerate
/// `tests/fixtures/hospital.bclean` (the golden CI gate fails otherwise, by
/// design). See `docs/FORMAT.md` for the full byte-layout contract and
/// version history. Section id 8 (format v4's `encoded_data`) is retired
/// and never reused: the reader rejects it as an unknown section.
pub const FORMAT_VERSION: u32 = 8;

/// Well-known section ids of a model artifact container.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u16)]
pub enum SectionId {
    /// Attribute names + types + schema hash.
    Schema = 1,
    /// The full `BCleanConfig`.
    Config = 2,
    /// User constraints as canonical spec text.
    Constraints = 3,
    /// Per-attribute dictionaries (the model's code space).
    Dicts = 4,
    /// The learned DAG.
    Structure = 5,
    /// Per-node sufficient statistics (`NodeCounts`).
    NodeCounts = 6,
    /// Compensatory counters (value counts, confidence sum, one co-occurrence
    /// index per column pair).
    Compensatory = 7,
}

impl SectionId {
    /// Human-readable section name (used in error messages and `inspect`).
    pub fn name(self) -> &'static str {
        match self {
            SectionId::Schema => "schema",
            SectionId::Config => "config",
            SectionId::Constraints => "constraints",
            SectionId::Dicts => "dicts",
            SectionId::Structure => "structure",
            SectionId::NodeCounts => "node_counts",
            SectionId::Compensatory => "compensatory",
        }
    }

    fn from_raw(raw: u16) -> Option<SectionId> {
        match raw {
            1 => Some(SectionId::Schema),
            2 => Some(SectionId::Config),
            3 => Some(SectionId::Constraints),
            4 => Some(SectionId::Dicts),
            5 => Some(SectionId::Structure),
            6 => Some(SectionId::NodeCounts),
            7 => Some(SectionId::Compensatory),
            _ => None,
        }
    }
}

/// Builds a container in memory, one section at a time.
#[derive(Debug, Default)]
pub struct ContainerWriter {
    sections: Vec<(SectionId, Vec<u8>)>,
}

impl ContainerWriter {
    /// An empty container.
    pub fn new() -> ContainerWriter {
        ContainerWriter::default()
    }

    /// Add one section. Sections may be added in any order; they are
    /// written sorted by id so equal model state always produces equal
    /// bytes.
    pub fn section(&mut self, id: SectionId, payload: ByteWriter) {
        debug_assert!(self.sections.iter().all(|(existing, _)| *existing != id), "duplicate section {id:?}");
        self.sections.push((id, payload.into_bytes()));
    }

    /// Serialize the container to its final byte form.
    pub fn into_bytes(mut self) -> Vec<u8> {
        self.sections.sort_by_key(|(id, _)| *id);
        let mut out = Vec::new();
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        out.extend_from_slice(&(self.sections.len() as u32).to_le_bytes());
        for (id, payload) in &self.sections {
            out.extend_from_slice(&(*id as u16).to_le_bytes());
            out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
            out.extend_from_slice(&crc32(payload).to_le_bytes());
            out.extend_from_slice(payload);
        }
        out
    }
}

/// One parsed section: id plus verified payload bounds.
#[derive(Debug, Clone, Copy)]
struct SectionEntry {
    id: SectionId,
    start: usize,
    len: usize,
}

/// A parsed container: header verified, sections indexed, every CRC
/// checked up front.
#[derive(Debug)]
pub struct ContainerReader<'a> {
    bytes: &'a [u8],
    version: u32,
    sections: Vec<SectionEntry>,
}

impl<'a> ContainerReader<'a> {
    /// Parse and verify a container held in memory.
    pub fn parse(bytes: &'a [u8]) -> Result<ContainerReader<'a>, StoreError> {
        if bytes.len() < MAGIC.len() {
            return Err(StoreError::BadMagic { found: bytes.to_vec() });
        }
        if bytes[..MAGIC.len()] != MAGIC {
            return Err(StoreError::BadMagic { found: bytes[..MAGIC.len()].to_vec() });
        }
        let mut header = ByteReader::new(&bytes[MAGIC.len()..], "container header");
        let version = header.u32()?;
        if version != FORMAT_VERSION {
            return Err(StoreError::UnsupportedVersion { found: version, supported: FORMAT_VERSION });
        }
        let section_count = header.u32()? as usize;
        let mut pos = MAGIC.len() + 8;
        // Every section needs at least a 14-byte header, so a count the
        // remaining bytes cannot hold is truncation (and must fail before
        // the count sizes any allocation).
        if section_count > (bytes.len() - pos) / 14 {
            return Err(StoreError::Truncated { context: "section header" });
        }
        let mut sections = Vec::with_capacity(section_count);
        for _ in 0..section_count {
            if bytes.len() < pos + 14 {
                return Err(StoreError::Truncated { context: "section header" });
            }
            let raw_id = u16::from_le_bytes(bytes[pos..pos + 2].try_into().expect("2 bytes"));
            let len = u64::from_le_bytes(bytes[pos + 2..pos + 10].try_into().expect("8 bytes"));
            let crc = u32::from_le_bytes(bytes[pos + 10..pos + 14].try_into().expect("4 bytes"));
            pos += 14;
            let len = usize::try_from(len)
                .ok()
                .filter(|&l| bytes.len() - pos >= l)
                .ok_or(StoreError::Truncated { context: "section payload" })?;
            let id = SectionId::from_raw(raw_id)
                .ok_or_else(|| StoreError::Corrupt(format!("unknown section id {raw_id}")))?;
            if crc32(&bytes[pos..pos + len]) != crc {
                return Err(StoreError::ChecksumMismatch { section: id.name() });
            }
            sections.push(SectionEntry { id, start: pos, len });
            pos += len;
        }
        if pos != bytes.len() {
            return Err(StoreError::Corrupt(format!(
                "{} trailing bytes after last section",
                bytes.len() - pos
            )));
        }
        Ok(ContainerReader { bytes, version, sections })
    }

    /// The container's recorded format version.
    pub fn version(&self) -> u32 {
        self.version
    }

    /// `(id, payload length)` of every section, in file order — the raw
    /// material of `bclean inspect`.
    pub fn section_sizes(&self) -> Vec<(SectionId, usize)> {
        self.sections.iter().map(|s| (s.id, s.len)).collect()
    }

    /// A reader over one required section's (CRC-verified) payload.
    pub fn section(&self, id: SectionId) -> Result<ByteReader<'a>, StoreError> {
        let entry = self
            .sections
            .iter()
            .find(|s| s.id == id)
            .ok_or(StoreError::MissingSection { section: id.name() })?;
        Ok(ByteReader::new(&self.bytes[entry.start..entry.start + entry.len], id.name()))
    }
}

/// Read a whole container file into memory.
pub fn read_container_file(path: &std::path::Path) -> Result<Vec<u8>, StoreError> {
    std::fs::read(path).map_err(|e| StoreError::io(path.display().to_string(), e))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<u8> {
        let mut w = ContainerWriter::new();
        let mut schema = ByteWriter::new();
        schema.string("City");
        // Deliberately added out of id order: the writer must sort.
        let mut dicts = ByteWriter::new();
        dicts.u32(7);
        w.section(SectionId::Dicts, dicts);
        w.section(SectionId::Schema, schema);
        w.into_bytes()
    }

    #[test]
    fn round_trip_and_ordering() {
        let bytes = sample();
        let reader = ContainerReader::parse(&bytes).unwrap();
        assert_eq!(reader.version(), FORMAT_VERSION);
        let sizes = reader.section_sizes();
        assert_eq!(sizes.len(), 2);
        assert_eq!(sizes[0].0, SectionId::Schema, "sections must be sorted by id");
        let mut schema = reader.section(SectionId::Schema).unwrap();
        assert_eq!(schema.string().unwrap(), "City");
        schema.finish().unwrap();
        let mut dicts = reader.section(SectionId::Dicts).unwrap();
        assert_eq!(dicts.u32().unwrap(), 7);
    }

    #[test]
    fn equal_input_produces_equal_bytes() {
        assert_eq!(sample(), sample());
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut bytes = sample();
        bytes[0] ^= 0xFF;
        assert!(matches!(ContainerReader::parse(&bytes), Err(StoreError::BadMagic { .. })));
        assert!(matches!(ContainerReader::parse(b"xy"), Err(StoreError::BadMagic { .. })));
    }

    #[test]
    fn future_versions_are_rejected() {
        let mut bytes = sample();
        // The next version, and the previous one: the reader accepts
        // exactly the version it writes.
        for version in [FORMAT_VERSION + 1, FORMAT_VERSION - 1] {
            bytes[8..12].copy_from_slice(&version.to_le_bytes());
            match ContainerReader::parse(&bytes) {
                Err(StoreError::UnsupportedVersion { found, supported }) => {
                    assert_eq!(found, version);
                    assert_eq!(supported, FORMAT_VERSION);
                }
                other => panic!("expected UnsupportedVersion, got {other:?}"),
            }
        }
        // Version 0 predates the format.
        bytes[8..12].copy_from_slice(&0u32.to_le_bytes());
        assert!(matches!(ContainerReader::parse(&bytes), Err(StoreError::UnsupportedVersion { .. })));
    }

    #[test]
    fn flipped_payload_byte_fails_the_crc() {
        let mut bytes = sample();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x10;
        assert!(matches!(ContainerReader::parse(&bytes), Err(StoreError::ChecksumMismatch { .. })));
    }

    #[test]
    fn truncation_is_detected() {
        let bytes = sample();
        for cut in [bytes.len() - 1, bytes.len() - 5, 20, 13] {
            let err = ContainerReader::parse(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(err, StoreError::Truncated { .. } | StoreError::ChecksumMismatch { .. }),
                "cut at {cut}: {err:?}"
            );
        }
    }

    #[test]
    fn absurd_section_count_fails_before_allocating() {
        // Valid magic + version, then a section count the file cannot hold:
        // must be typed truncation, never a count-sized allocation.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(ContainerReader::parse(&bytes), Err(StoreError::Truncated { .. })));
    }

    #[test]
    fn retired_section_id_is_rejected_as_unknown() {
        // Id 8 (`encoded_data`, format v4) is retired; a section carrying it
        // is corruption even when its CRC is valid.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.extend_from_slice(&8u16.to_le_bytes());
        bytes.extend_from_slice(&0u64.to_le_bytes());
        bytes.extend_from_slice(&crc32(&[]).to_le_bytes());
        match ContainerReader::parse(&bytes) {
            Err(StoreError::Corrupt(message)) => assert_eq!(message, "unknown section id 8"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn missing_section_and_trailing_garbage() {
        let bytes = sample();
        let reader = ContainerReader::parse(&bytes).unwrap();
        assert!(matches!(
            reader.section(SectionId::Config),
            Err(StoreError::MissingSection { section: "config" })
        ));
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(matches!(ContainerReader::parse(&padded), Err(StoreError::Corrupt(_))));
    }
}
