//! Typed failures of the `.bclean` container layer.
//!
//! Every way a container can fail to load has its own variant, so callers
//! (the CLI, the corruption tests, CI's golden-artifact gate) can
//! distinguish "this file is not a `.bclean` container" from "this
//! container is from a future format version" from "this container rotted
//! on disk" — and none of them ever panics.

use std::fmt;

/// Everything that can go wrong while writing or reading a `.bclean`
/// container.
#[derive(Debug)]
pub enum StoreError {
    /// An underlying filesystem operation failed.
    Io {
        /// The path being read or written.
        path: String,
        /// The originating I/O error.
        source: std::io::Error,
    },
    /// The file does not start with the `.bclean` magic bytes.
    BadMagic {
        /// The bytes actually found (at most the magic's length).
        found: Vec<u8>,
    },
    /// The file's format version is not the one this build reads. The
    /// sanctioned escape hatch is regenerating the artifact with the
    /// current writer (see the README's format-version policy).
    UnsupportedVersion {
        /// Version recorded in the file.
        found: u32,
        /// The one version this reader supports.
        supported: u32,
    },
    /// The file ended before the announced structure was complete.
    Truncated {
        /// What the reader was in the middle of decoding.
        context: &'static str,
    },
    /// A section's payload does not match its recorded CRC-32.
    ChecksumMismatch {
        /// Section name (see `container::section_name`).
        section: &'static str,
    },
    /// A required section is missing from the container.
    MissingSection {
        /// Section name (see `container::section_name`).
        section: &'static str,
    },
    /// The bytes parsed, but describe an impossible model state.
    Corrupt(String),
    /// The model state cannot be represented in the on-disk format (e.g. a
    /// closure-backed custom user constraint).
    Unsupported(String),
    /// A dataset's schema does not match the schema the artifact was fit
    /// on (the fit-once/clean-many guard).
    SchemaMismatch {
        /// Human-readable description of the first difference.
        detail: String,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io { path, source } => write!(f, "{path}: {source}"),
            StoreError::BadMagic { found } => {
                write!(f, "not a .bclean container (bad magic {found:02x?})")
            }
            StoreError::UnsupportedVersion { found, supported } => write!(
                f,
                "unsupported container format version {found} (this build reads only version \
                 {supported}); regenerate the artifact with `bclean fit`"
            ),
            StoreError::Truncated { context } => {
                write!(f, "truncated container (while reading {context})")
            }
            StoreError::ChecksumMismatch { section } => {
                write!(f, "checksum mismatch in section `{section}` (corrupted file?)")
            }
            StoreError::MissingSection { section } => {
                write!(f, "required section `{section}` is missing")
            }
            StoreError::Corrupt(detail) => write!(f, "corrupt container: {detail}"),
            StoreError::Unsupported(detail) => write!(f, "cannot serialize model: {detail}"),
            StoreError::SchemaMismatch { detail } => {
                write!(f, "dataset schema does not match the artifact: {detail}")
            }
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl StoreError {
    /// Wrap an I/O error with the path it occurred on.
    pub fn io(path: impl Into<String>, source: std::io::Error) -> StoreError {
        StoreError::Io { path: path.into(), source }
    }
}
