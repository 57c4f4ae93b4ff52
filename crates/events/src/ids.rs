//! Dynamic identities of threads and objects within a single execution.

use std::fmt;

use serde::{Deserialize, Serialize};

/// The dynamic identity of a thread within one execution.
///
/// This is the paper's "unique id" of a thread object: it is valid only
/// within the execution that produced it and *cannot* be used to correlate
/// threads across executions — that is what object abstractions
/// (`df-abstraction`) are for.
///
/// # Example
///
/// ```
/// use df_events::ThreadId;
/// let main = ThreadId::new(0);
/// assert_eq!(main.as_usize(), 0);
/// assert!(main < ThreadId::new(1));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ThreadId(u32);

impl ThreadId {
    /// Creates a thread id from its index.
    pub fn new(index: u32) -> Self {
        ThreadId(index)
    }

    /// Returns the index as `usize` (handy for table lookups).
    pub fn as_usize(&self) -> usize {
        self.0 as usize
    }

    /// Returns the raw index.
    pub fn as_u32(&self) -> u32 {
        self.0
    }
}

impl fmt::Display for ThreadId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

impl fmt::Debug for ThreadId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ThreadId({})", self.0)
    }
}

/// The dynamic identity of an object (lock, thread object, or plain object)
/// within one execution.
///
/// Like [`ThreadId`], this mirrors the paper's address-based unique id and
/// is only meaningful within one execution.
///
/// # Example
///
/// ```
/// use df_events::ObjId;
/// let o = ObjId::new(7);
/// assert_eq!(o.as_usize(), 7);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ObjId(u32);

impl ObjId {
    /// Creates an object id from its index.
    pub const fn new(index: u32) -> Self {
        ObjId(index)
    }

    /// Returns the index as `usize`.
    pub fn as_usize(&self) -> usize {
        self.0 as usize
    }

    /// Returns the raw index.
    pub fn as_u32(&self) -> u32 {
        self.0
    }
}

impl fmt::Display for ObjId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "O{}", self.0)
    }
}

impl fmt::Debug for ObjId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ObjId({})", self.0)
    }
}

/// What role an object plays in the execution.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum ObjKind {
    /// A lock object (the target of `Acquire`/`Release`).
    Lock,
    /// A thread object (the receiver of `start()` in the paper's model).
    Thread,
    /// Any other heap object (tracked for k-object-sensitive abstraction
    /// chains).
    Plain,
}

impl fmt::Display for ObjKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ObjKind::Lock => f.write_str("lock"),
            ObjKind::Thread => f.write_str("thread"),
            ObjKind::Plain => f.write_str("object"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_id_ordering_matches_index() {
        assert!(ThreadId::new(1) < ThreadId::new(2));
        assert_eq!(ThreadId::new(3).as_u32(), 3);
    }

    #[test]
    fn display_forms() {
        assert_eq!(ThreadId::new(4).to_string(), "T4");
        assert_eq!(ObjId::new(9).to_string(), "O9");
        assert_eq!(ObjKind::Lock.to_string(), "lock");
        assert_eq!(ObjKind::Thread.to_string(), "thread");
        assert_eq!(ObjKind::Plain.to_string(), "object");
    }

    #[test]
    fn ids_serialize_as_numbers() {
        assert_eq!(serde_json::to_string(&ObjId::new(5)).unwrap(), "5");
        let back: ObjId = serde_json::from_str("5").unwrap();
        assert_eq!(back, ObjId::new(5));
    }
}
