//! Interned program-location labels.

use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::panic::Location;
use std::sync::{Arc, OnceLock};

use parking_lot::RwLock;
use serde::de::Error as _;
use serde::{Deserialize, Deserializer, Serialize, Serializer};

/// An interned program location — the paper's statement label `c`.
///
/// Labels identify the source locations of lock acquisitions, method calls
/// and allocations. They are interned process-wide, so a `Label` is a `u32`
/// that is `Copy`, `Eq`, `Hash` and cheap to store in contexts and traces.
/// Two labels constructed from the same string are identical.
///
/// The paper relies on labels being stable *across executions* of the same
/// program; interning per process preserves that (the mapping
/// string ↔ label may differ between processes, but equality of labels
/// within a process exactly mirrors equality of location strings).
///
/// # Example
///
/// ```
/// use df_events::Label;
/// let a = Label::new("Factory.killClients:872");
/// let b = Label::new("Factory.killClients:872");
/// assert_eq!(a, b);
/// assert_eq!(&*a.as_str(), "Factory.killClients:872");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Label(u32);

struct Interner {
    strings: Vec<Arc<str>>,
    ids: HashMap<Arc<str>, u32>,
}

fn interner() -> &'static RwLock<Interner> {
    static INTERNER: OnceLock<RwLock<Interner>> = OnceLock::new();
    INTERNER.get_or_init(|| {
        RwLock::new(Interner {
            strings: Vec::new(),
            ids: HashMap::new(),
        })
    })
}

impl Label {
    /// Interns `location` and returns its label.
    ///
    /// # Example
    ///
    /// ```
    /// let l = df_events::Label::new("main:22");
    /// assert_eq!(l.to_string(), "main:22");
    /// ```
    pub fn new(location: &str) -> Self {
        let int = interner();
        if let Some(&id) = int.read().ids.get(location) {
            return Label(id);
        }
        let mut w = int.write();
        if let Some(&id) = w.ids.get(location) {
            return Label(id);
        }
        let id = u32::try_from(w.strings.len()).expect("label interner overflow");
        let s: Arc<str> = Arc::from(location);
        w.strings.push(Arc::clone(&s));
        w.ids.insert(s, id);
        Label(id)
    }

    /// Returns the interned location string.
    pub fn as_str(&self) -> Arc<str> {
        Arc::clone(&interner().read().strings[self.0 as usize])
    }

    /// Returns the raw interner index (useful for compact serialization
    /// within one process; not stable across processes).
    pub fn index(&self) -> u32 {
        self.0
    }
}

/// Interns the caller's source location (`file:line:column`) as a label.
///
/// This is the native-frame analogue of the [`crate::site!`] macro: a
/// `#[track_caller]` API (like `df_lock::TrackedMutex::lock`) calls this
/// and gets the location of *its caller*, so drop-in replacements for
/// `std::sync` label events without explicit site arguments.
///
/// Each thread memoizes the label per call site, so only a thread's first
/// visit to a site formats the location and takes the interner lock.
///
/// # Example
///
/// ```
/// #[track_caller]
/// fn acquire_site() -> df_events::Label {
///     df_events::caller_site()
/// }
/// let l = acquire_site();
/// assert!(l.as_str().contains("label.rs") || l.as_str().contains(".rs"));
/// ```
#[track_caller]
pub fn caller_site() -> Label {
    let loc = Location::caller();
    // The key is the `'static` location's address: it is never reused,
    // and two addresses of one source position still intern to one label.
    let key = std::ptr::from_ref(loc) as usize;
    SITES
        .try_with(|sites| {
            if let Some(&label) = sites.borrow().get(&key) {
                return label;
            }
            let label = intern_location(loc);
            sites.borrow_mut().insert(key, label);
            label
        })
        // Thread-local storage is gone during thread teardown.
        .unwrap_or_else(|_| intern_location(loc))
}

fn intern_location(loc: &Location<'_>) -> Label {
    Label::new(&format!("{}:{}:{}", loc.file(), loc.line(), loc.column()))
}

thread_local! {
    static SITES: RefCell<HashMap<usize, Label>> = RefCell::new(HashMap::new());
}

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.as_str())
    }
}

impl fmt::Debug for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Label({})", self.as_str())
    }
}

impl From<&str> for Label {
    fn from(s: &str) -> Self {
        Label::new(s)
    }
}

impl Serialize for Label {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_str(&self.as_str())
    }
}

impl<'de> Deserialize<'de> for Label {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let s = String::deserialize(deserializer)?;
        if s.is_empty() {
            return Err(D::Error::custom("label must not be empty"));
        }
        Ok(Label::new(&s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let a = Label::new("x:1");
        let b = Label::new("x:1");
        assert_eq!(a, b);
        assert_eq!(a.index(), b.index());
    }

    #[test]
    fn distinct_strings_get_distinct_labels() {
        let a = Label::new("y:1");
        let b = Label::new("y:2");
        assert_ne!(a, b);
    }

    #[test]
    fn display_round_trips() {
        let a = Label::new("Widget.frob:42");
        assert_eq!(a.to_string(), "Widget.frob:42");
        assert_eq!(format!("{a:?}"), "Label(Widget.frob:42)");
    }

    #[test]
    fn serde_round_trips_by_string() {
        let a = Label::new("serde:1");
        let json = serde_json::to_string(&a).unwrap();
        assert_eq!(json, "\"serde:1\"");
        let b: Label = serde_json::from_str(&json).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn serde_rejects_empty() {
        assert!(serde_json::from_str::<Label>("\"\"").is_err());
    }

    #[test]
    fn from_str_impl() {
        let a: Label = "conv:1".into();
        assert_eq!(a, Label::new("conv:1"));
    }

    #[test]
    fn site_macro_produces_location() {
        let l = crate::site!();
        assert!(l.as_str().contains("label.rs"));
        let named = crate::site!("acquire l1");
        assert!(named.as_str().starts_with("acquire l1"));
    }

    #[test]
    fn site_macro_interns_like_label_new() {
        // Two evaluations of one expansion hit its memo; both must be
        // the label of the expansion's location string.
        let sites: Vec<Label> = (0..2).map(|_| crate::site!()).collect();
        let text = sites[0].as_str();
        assert!(text.starts_with(&format!("{}:{}:", file!(), line!() - 2)));
        assert_eq!(sites, vec![Label::new(&text); 2]);
        let named: Vec<Label> = (0..2).map(|_| crate::site!("acquire l1")).collect();
        let expected = Label::new(&format!("acquire l1 ({}:{})", file!(), line!() - 1));
        assert_eq!(named, vec![expected; 2]);
    }

    /// The caller's site through the memo, next to the label
    /// `Label::new` gives its `file:line:col` directly.
    #[track_caller]
    fn memo_and_fresh() -> (Label, Label) {
        let loc = Location::caller();
        let fresh = Label::new(&format!("{}:{}:{}", loc.file(), loc.line(), loc.column()));
        (caller_site(), fresh)
    }

    #[test]
    fn caller_site_memo_agrees_across_threads() {
        // One call site, wherever the closure runs.
        let here = || memo_and_fresh();
        let first = here();
        assert_eq!(first.0, first.1, "the memo returns Label::new's label");
        assert_eq!(here(), first, "a memo hit on this thread");
        let other = std::thread::spawn(here).join().unwrap();
        assert_eq!(other, first, "the same site from another thread");
        // A thread started after the first lookup starts with an empty
        // memo and still resolves to the same label.
        let late = std::thread::spawn(move || (0..3).map(|_| here()).collect::<Vec<_>>())
            .join()
            .unwrap();
        assert_eq!(late, vec![first; 3]);
    }

    #[test]
    fn caller_site_distinguishes_columns_on_one_line() {
        let (a, b) = (memo_and_fresh(), memo_and_fresh());
        assert_eq!((a.0, b.0), (a.1, b.1));
        assert_ne!(a.0, b.0, "same line, different columns");
        let prefix = format!("{}:{}:", file!(), line!() - 3);
        assert!(a.0.as_str().starts_with(&prefix) && b.0.as_str().starts_with(&prefix));
    }

    #[test]
    fn labels_are_hashable_keys() {
        use std::collections::HashSet;
        let set: HashSet<Label> = ["a", "b", "a"].iter().map(|s| Label::new(s)).collect();
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn concurrent_interning_is_consistent() {
        let handles: Vec<_> = (0..8)
            .map(|_| std::thread::spawn(|| Label::new("concurrent:1").index()))
            .collect();
        let ids: Vec<u32> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert!(ids.windows(2).all(|w| w[0] == w[1]));
    }
}
