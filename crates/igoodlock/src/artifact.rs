//! The versioned on-disk relation format (`df-relation` v2).
//!
//! `dfz record --relation-out` persists the streamed
//! [`LockDependencyRelation`] so iGoodlock can run in a different
//! process (or much later) without re-executing the program. Like the
//! `df-trace` artifact in `df-events`, the envelope carries an explicit
//! format name and version, and readers reject anything they do not
//! understand instead of guessing.
//! Version 2 added the timings' fork/join clocks and the event count.

use std::fmt;
use std::io::{self, Read, Write};

use serde::{Deserialize, Serialize};

use crate::LockDependencyRelation;

/// Format name stamped into every relation artifact.
pub const RELATION_FORMAT: &str = "df-relation";

/// Current version of the on-disk relation format.
pub const RELATION_FORMAT_VERSION: u32 = 2;

/// The serialized envelope: format metadata plus the relation itself.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
struct RelationArtifact {
    format: String,
    version: u32,
    relation: LockDependencyRelation,
}

/// The envelope's metadata, checked before the relation is decoded.
#[derive(Deserialize)]
struct Envelope {
    format: String,
    version: u32,
}

/// Why a relation artifact could not be written or read.
#[derive(Debug)]
pub enum RelationArtifactError {
    /// The underlying reader or writer failed.
    Io(io::Error),
    /// The document was not valid JSON for the envelope shape.
    Json(String),
    /// The envelope names a different format.
    WrongFormat(String),
    /// The envelope's version is not [`RELATION_FORMAT_VERSION`].
    VersionMismatch {
        /// Version found in the envelope.
        found: u32,
        /// Version this reader understands.
        expected: u32,
    },
}

impl fmt::Display for RelationArtifactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RelationArtifactError::Io(e) => write!(f, "relation artifact i/o error: {e}"),
            RelationArtifactError::Json(e) => {
                write!(f, "relation artifact malformed: {e}")
            }
            RelationArtifactError::WrongFormat(found) => write!(
                f,
                "artifact format is '{found}', expected '{RELATION_FORMAT}'"
            ),
            RelationArtifactError::VersionMismatch { found, expected } => write!(
                f,
                "artifact version {found} is not supported (expected {expected})"
            ),
        }
    }
}

impl std::error::Error for RelationArtifactError {}

impl From<io::Error> for RelationArtifactError {
    fn from(e: io::Error) -> Self {
        RelationArtifactError::Io(e)
    }
}

/// Writes `relation` as a versioned artifact.
pub fn write_relation<W: Write>(
    mut out: W,
    relation: &LockDependencyRelation,
) -> Result<(), RelationArtifactError> {
    let doc = RelationArtifact {
        format: RELATION_FORMAT.to_string(),
        version: RELATION_FORMAT_VERSION,
        relation: relation.clone(),
    };
    let json =
        serde_json::to_string(&doc).map_err(|e| RelationArtifactError::Json(e.to_string()))?;
    out.write_all(json.as_bytes())?;
    out.write_all(b"\n")?;
    out.flush()?;
    Ok(())
}

/// Reads a versioned relation artifact back.
///
/// # Errors
///
/// Rejects documents with the wrong format name
/// ([`RelationArtifactError::WrongFormat`]) or version
/// ([`RelationArtifactError::VersionMismatch`]).
pub fn read_relation<R: Read>(
    mut input: R,
) -> Result<LockDependencyRelation, RelationArtifactError> {
    let mut text = String::new();
    input.read_to_string(&mut text)?;
    let json = |e: serde_json::Error| RelationArtifactError::Json(e.to_string());
    let envelope: Envelope = serde_json::from_str(&text).map_err(json)?;
    if envelope.format != RELATION_FORMAT {
        return Err(RelationArtifactError::WrongFormat(envelope.format));
    }
    if envelope.version != RELATION_FORMAT_VERSION {
        return Err(RelationArtifactError::VersionMismatch {
            found: envelope.version,
            expected: RELATION_FORMAT_VERSION,
        });
    }
    let doc: RelationArtifact = serde_json::from_str(&text).map_err(json)?;
    Ok(doc.relation)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LockDep;
    use df_events::{Label, ObjId, ThreadId};

    fn sample_relation() -> LockDependencyRelation {
        LockDependencyRelation::from_deps(vec![LockDep::exclusive(
            ThreadId::new(1),
            ObjId::new(0),
            vec![ObjId::new(2)],
            ObjId::new(3),
            vec![Label::new("run:15"), Label::new("run:16")],
        )])
    }

    #[test]
    fn round_trips() {
        let rel = sample_relation();
        let mut buf = Vec::new();
        write_relation(&mut buf, &rel).unwrap();
        let back = read_relation(&buf[..]).unwrap();
        assert_eq!(rel, back);
    }

    #[test]
    fn rejects_wrong_version() {
        let rel = sample_relation();
        let mut buf = Vec::new();
        write_relation(&mut buf, &rel).unwrap();
        let bumped = String::from_utf8(buf)
            .unwrap()
            .replacen("\"version\":2", "\"version\":7", 1);
        match read_relation(bumped.as_bytes()) {
            Err(RelationArtifactError::VersionMismatch { found: 7, expected }) => {
                assert_eq!(expected, RELATION_FORMAT_VERSION);
            }
            other => panic!("expected version mismatch, got {other:?}"),
        }
    }

    #[test]
    fn rejects_wrong_format() {
        let rel = sample_relation();
        let mut buf = Vec::new();
        write_relation(&mut buf, &rel).unwrap();
        let renamed = String::from_utf8(buf)
            .unwrap()
            .replacen("df-relation", "df-banana", 1);
        assert!(matches!(
            read_relation(renamed.as_bytes()),
            Err(RelationArtifactError::WrongFormat(f)) if f == "df-banana"
        ));
    }
}
