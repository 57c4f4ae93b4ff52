//! Object abstractions (paper §2.4): correlating threads and locks across
//! executions.
//!
//! Phase I (iGoodlock) observes one execution and reports potential
//! deadlock cycles; Phase II re-executes the program and must decide, for
//! *its own* dynamic objects, whether they are "the same" threads and locks
//! the cycle mentions. Dynamic ids (addresses) change between executions,
//! so the paper introduces *object abstractions*: functions `abs(o)` of
//! static program information such that if two dynamic objects in different
//! executions correspond, they have equal abstractions.
//!
//! Four abstraction schemes are implemented, matching the paper's
//! experimental variants (Figure 2):
//!
//! * [`AbstractionMode::Trivial`] — every object maps to the same
//!   abstraction (the paper's "ignore abstraction" baseline);
//! * [`AbstractionMode::Site`] — the allocation-site label;
//! * [`AbstractionMode::KObject`] — `absO_k` (§2.4.1): the allocation sites
//!   of the object, its allocator's receiver, and so on, up to `k` levels
//!   (k-object-sensitivity);
//! * [`AbstractionMode::ExecIndex`] — `absI_k` (§2.4.2): the last `k`
//!   frames of the light-weight execution-indexing call stack captured at
//!   allocation (call sites plus per-depth invocation counters).
//!
//! # Example
//!
//! ```
//! use df_abstraction::{AbstractionMode, Abstractor};
//! use df_events::{Label, ObjKind, ObjectTable};
//!
//! let mut table = ObjectTable::new();
//! let site = Label::new("main:22");
//! let o = table.create(ObjKind::Lock, site, None, Vec::new());
//! let abs = Abstractor::new(AbstractionMode::Site).abs(&table, o);
//! assert_eq!(abs.to_string(), "[main:22]");
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

use std::fmt;

use df_events::{IndexFrame, Label, ObjId, ObjectTable};
use serde::{Deserialize, Serialize};

/// Which abstraction function to use.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum AbstractionMode {
    /// All objects share one abstraction ("ignore abstraction").
    Trivial,
    /// Allocation-site label only.
    Site,
    /// `absO_k`: k-object-sensitive allocation-site chain (§2.4.1).
    KObject(usize),
    /// `absI_k`: light-weight execution indexing (§2.4.2).
    ExecIndex(usize),
}

impl Default for AbstractionMode {
    /// The paper's best-performing variant: execution indexing with
    /// `k = 10` (variant 2 of §5.2).
    fn default() -> Self {
        AbstractionMode::ExecIndex(10)
    }
}

impl fmt::Display for AbstractionMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AbstractionMode::Trivial => f.write_str("trivial"),
            AbstractionMode::Site => f.write_str("site"),
            AbstractionMode::KObject(k) => write!(f, "k-object(k={k})"),
            AbstractionMode::ExecIndex(k) => write!(f, "exec-index(k={k})"),
        }
    }
}

/// The abstraction value of one dynamic object.
///
/// Two dynamic objects (possibly from different executions) are considered
/// "the same" by DeadlockFuzzer when their abstractions — computed under
/// the same [`AbstractionMode`] — are equal.
#[derive(Clone, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum Abstraction {
    /// The single trivial abstraction.
    Trivial,
    /// Allocation site.
    Site(Label),
    /// `absO_k`: allocation sites of the creation chain, the object's own
    /// site first.
    KObject(Vec<Label>),
    /// `absI_k`: the innermost `k` execution-index frames, **innermost
    /// first** (the paper's `[c1, q1, c2, q2, …]` order).
    ExecIndex(Vec<IndexFrame>),
}

impl fmt::Display for Abstraction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Abstraction::Trivial => f.write_str("[*]"),
            Abstraction::Site(site) => write!(f, "[{site}]"),
            Abstraction::KObject(sites) => {
                f.write_str("[")?;
                for (i, s) in sites.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{s}")?;
                }
                f.write_str("]")
            }
            Abstraction::ExecIndex(frames) => {
                f.write_str("[")?;
                for (i, fr) in frames.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{}, {}", fr.site, fr.count)?;
                }
                f.write_str("]")
            }
        }
    }
}

/// Computes abstractions of dynamic objects under a fixed mode.
///
/// # Example
///
/// ```
/// use df_abstraction::{AbstractionMode, Abstractor};
/// let a = Abstractor::new(AbstractionMode::Trivial);
/// assert_eq!(a.mode(), AbstractionMode::Trivial);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Abstractor {
    mode: AbstractionMode,
}

impl Abstractor {
    /// Creates an abstractor for `mode`.
    pub fn new(mode: AbstractionMode) -> Self {
        Abstractor { mode }
    }

    /// The configured mode.
    pub fn mode(&self) -> AbstractionMode {
        self.mode
    }

    /// Computes `abs(obj)` from the object table of an execution.
    ///
    /// # Panics
    ///
    /// Panics if `obj` is not in `objects` (a cross-execution id mix-up —
    /// a caller bug worth failing loudly on).
    pub fn abs(&self, objects: &ObjectTable, obj: ObjId) -> Abstraction {
        match self.mode {
            AbstractionMode::Trivial => Abstraction::Trivial,
            AbstractionMode::Site => Abstraction::Site(objects.get(obj).site),
            AbstractionMode::KObject(k) => {
                let chain = objects
                    .owner_chain(obj, k)
                    .into_iter()
                    .map(|m| m.site)
                    .collect();
                Abstraction::KObject(chain)
            }
            AbstractionMode::ExecIndex(k) => {
                let meta = objects.get(obj);
                // `meta.index` is outermost-first; the abstraction is the
                // innermost `k` frames, reported innermost-first like the
                // paper's `[c1, q1, …, ck, qk]`.
                let frames = meta.index.iter().rev().take(k).copied().collect();
                Abstraction::ExecIndex(frames)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use df_events::ObjKind;

    fn l(s: &str) -> Label {
        Label::new(s)
    }

    /// Builds the paper's §2.4.2 example object table:
    /// main calls foo() 5 times; foo calls bar() twice; bar allocates 3
    /// objects per call. 30 objects total.
    fn paper_table() -> (ObjectTable, Vec<ObjId>) {
        let mut table = ObjectTable::new();
        let mut objs = Vec::new();
        let (s3, s6, s7, s11) = (l("main:3"), l("foo:6"), l("foo:7"), l("bar:11"));
        for i in 1..=5u32 {
            for (bar_call, bar_count) in [(s6, 1u32), (s7, 1u32)] {
                for j in 1..=3u32 {
                    let index = vec![
                        IndexFrame::new(s3, i),
                        IndexFrame::new(bar_call, bar_count),
                        IndexFrame::new(s11, j),
                    ];
                    objs.push(table.create(ObjKind::Plain, s11, None, index));
                }
            }
        }
        (table, objs)
    }

    #[test]
    fn exec_index_matches_paper_first_and_last() {
        let (table, objs) = paper_table();
        let a = Abstractor::new(AbstractionMode::ExecIndex(3));
        let first = a.abs(&table, objs[0]);
        // Paper: absI3(first) = [11,1, 6,1, 3,1]
        assert_eq!(
            first,
            Abstraction::ExecIndex(vec![
                IndexFrame::new(l("bar:11"), 1),
                IndexFrame::new(l("foo:6"), 1),
                IndexFrame::new(l("main:3"), 1),
            ])
        );
        let last = a.abs(&table, *objs.last().unwrap());
        // Paper: absI3(last) = [11,3, 7,1, 3,5]
        assert_eq!(
            last,
            Abstraction::ExecIndex(vec![
                IndexFrame::new(l("bar:11"), 3),
                IndexFrame::new(l("foo:7"), 1),
                IndexFrame::new(l("main:3"), 5),
            ])
        );
    }

    #[test]
    fn exec_index_truncates_to_k() {
        let (table, objs) = paper_table();
        let a1 = Abstractor::new(AbstractionMode::ExecIndex(1));
        match a1.abs(&table, objs[0]) {
            Abstraction::ExecIndex(frames) => {
                assert_eq!(frames.len(), 1);
                assert_eq!(frames[0].site, l("bar:11"));
            }
            other => panic!("unexpected {other:?}"),
        }
        // k larger than the stack returns the whole stack.
        let a9 = Abstractor::new(AbstractionMode::ExecIndex(9));
        match a9.abs(&table, objs[0]) {
            Abstraction::ExecIndex(frames) => assert_eq!(frames.len(), 3),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn exec_index_distinguishes_same_site_allocations() {
        let (table, objs) = paper_table();
        let a = Abstractor::new(AbstractionMode::ExecIndex(3));
        let mut seen = std::collections::HashSet::new();
        for &o in &objs {
            seen.insert(a.abs(&table, o));
        }
        // All 30 allocations share one site but have distinct indices.
        assert_eq!(seen.len(), objs.len());
        let site = Abstractor::new(AbstractionMode::Site);
        let sites: std::collections::HashSet<_> =
            objs.iter().map(|&o| site.abs(&table, o)).collect();
        assert_eq!(sites.len(), 1);
    }

    #[test]
    fn trivial_collapses_everything() {
        let (table, objs) = paper_table();
        let a = Abstractor::new(AbstractionMode::Trivial);
        for &o in &objs {
            assert_eq!(a.abs(&table, o), Abstraction::Trivial);
        }
    }

    #[test]
    fn kobject_follows_owner_chain() {
        let mut table = ObjectTable::new();
        let factory = table.create(ObjKind::Plain, l("Main.make:5"), None, vec![]);
        let pool = table.create(
            ObjKind::Plain,
            l("Factory.newPool:9"),
            Some(factory),
            vec![],
        );
        let lock = table.create(ObjKind::Lock, l("Pool.newLock:3"), Some(pool), vec![]);
        let k1 = Abstractor::new(AbstractionMode::KObject(1)).abs(&table, lock);
        assert_eq!(k1, Abstraction::KObject(vec![l("Pool.newLock:3")]));
        let k3 = Abstractor::new(AbstractionMode::KObject(3)).abs(&table, lock);
        assert_eq!(
            k3,
            Abstraction::KObject(vec![
                l("Pool.newLock:3"),
                l("Factory.newPool:9"),
                l("Main.make:5")
            ])
        );
        // Chain shorter than k: fewer than k elements, per the paper.
        let k9 = Abstractor::new(AbstractionMode::KObject(9)).abs(&table, lock);
        match k9 {
            Abstraction::KObject(chain) => assert_eq!(chain.len(), 3),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn kobject_distinguishes_factory_products_by_owner() {
        // Two locks allocated by the same statement but owned by different
        // factory objects — the k=2 abstraction separates them when the
        // factories come from different sites.
        let mut table = ObjectTable::new();
        let f1 = table.create(ObjKind::Plain, l("Main:1"), None, vec![]);
        let f2 = table.create(ObjKind::Plain, l("Main:2"), None, vec![]);
        let lock_site = l("Factory.makeLock:7");
        let l1 = table.create(ObjKind::Lock, lock_site, Some(f1), vec![]);
        let l2 = table.create(ObjKind::Lock, lock_site, Some(f2), vec![]);
        let a1 = Abstractor::new(AbstractionMode::KObject(1));
        assert_eq!(a1.abs(&table, l1), a1.abs(&table, l2));
        let a2 = Abstractor::new(AbstractionMode::KObject(2));
        assert_ne!(a2.abs(&table, l1), a2.abs(&table, l2));
    }

    #[test]
    fn displays_match_paper_notation() {
        let (table, objs) = paper_table();
        let a = Abstractor::new(AbstractionMode::ExecIndex(3));
        assert_eq!(
            a.abs(&table, objs[0]).to_string(),
            "[bar:11, 1, foo:6, 1, main:3, 1]"
        );
        assert_eq!(Abstraction::Trivial.to_string(), "[*]");
        assert_eq!(Abstraction::Site(l("x:1")).to_string(), "[x:1]");
        assert_eq!(
            Abstraction::KObject(vec![l("a:1"), l("b:2")]).to_string(),
            "[a:1, b:2]"
        );
        assert_eq!(
            AbstractionMode::ExecIndex(10).to_string(),
            "exec-index(k=10)"
        );
        assert_eq!(AbstractionMode::KObject(2).to_string(), "k-object(k=2)");
    }

    #[test]
    fn default_mode_is_exec_index_10() {
        assert_eq!(AbstractionMode::default(), AbstractionMode::ExecIndex(10));
    }

    #[test]
    fn serde_round_trip() {
        let (table, objs) = paper_table();
        let a = Abstractor::new(AbstractionMode::ExecIndex(2)).abs(&table, objs[3]);
        let json = serde_json::to_string(&a).unwrap();
        let back: Abstraction = serde_json::from_str(&json).unwrap();
        assert_eq!(a, back);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use df_events::ObjKind;
    use proptest::prelude::*;

    /// Random object tables: a forest of owner chains with random index
    /// stacks.
    fn arb_table(max: usize) -> impl Strategy<Value = ObjectTable> {
        prop::collection::vec(
            (
                0..8u32,                                         // site pool
                prop::option::of(0..max as u32),                 // owner (by earlier index)
                prop::collection::vec((0..6u32, 1..5u32), 0..5), // index frames
            ),
            1..max,
        )
        .prop_map(|specs| {
            let mut table = ObjectTable::new();
            for (i, (site, owner, frames)) in specs.iter().enumerate() {
                let owner = owner.and_then(|o| {
                    if i == 0 {
                        None
                    } else {
                        Some(df_events::ObjId::new(o % (i as u32)))
                    }
                });
                let index = frames
                    .iter()
                    .map(|&(s, c)| IndexFrame::new(Label::new(&format!("s:{s}")), c))
                    .collect();
                table.create(
                    ObjKind::Plain,
                    Label::new(&format!("site:{site}")),
                    owner,
                    index,
                );
            }
            table
        })
    }

    proptest! {
        /// abs is a pure function: same inputs, same outputs.
        #[test]
        fn abs_is_deterministic(table in arb_table(12), k in 1usize..6) {
            for mode in [
                AbstractionMode::Trivial,
                AbstractionMode::Site,
                AbstractionMode::KObject(k),
                AbstractionMode::ExecIndex(k),
            ] {
                let a = Abstractor::new(mode);
                for meta in table.iter() {
                    prop_assert_eq!(a.abs(&table, meta.id), a.abs(&table, meta.id));
                }
            }
        }

        /// Refinement: equality at k+1 implies equality at k (the deeper
        /// abstraction only splits classes, never merges them).
        #[test]
        fn exec_index_equality_is_monotone_in_k(table in arb_table(12), k in 1usize..5) {
            let fine = Abstractor::new(AbstractionMode::ExecIndex(k + 1));
            let coarse = Abstractor::new(AbstractionMode::ExecIndex(k));
            let metas: Vec<_> = table.iter().collect();
            for a in &metas {
                for b in &metas {
                    if fine.abs(&table, a.id) == fine.abs(&table, b.id) {
                        prop_assert_eq!(coarse.abs(&table, a.id), coarse.abs(&table, b.id));
                    }
                }
            }
        }

        /// Same monotonicity for absO_k.
        #[test]
        fn kobject_equality_is_monotone_in_k(table in arb_table(12), k in 1usize..5) {
            let fine = Abstractor::new(AbstractionMode::KObject(k + 1));
            let coarse = Abstractor::new(AbstractionMode::KObject(k));
            let metas: Vec<_> = table.iter().collect();
            for a in &metas {
                for b in &metas {
                    if fine.abs(&table, a.id) == fine.abs(&table, b.id) {
                        prop_assert_eq!(coarse.abs(&table, a.id), coarse.abs(&table, b.id));
                    }
                }
            }
        }

        /// Site abstraction and KObject(1) induce the same equivalence.
        #[test]
        fn kobject_1_refines_exactly_site(table in arb_table(12)) {
            let site = Abstractor::new(AbstractionMode::Site);
            let k1 = Abstractor::new(AbstractionMode::KObject(1));
            let metas: Vec<_> = table.iter().collect();
            for a in &metas {
                for b in &metas {
                    let same_site = site.abs(&table, a.id) == site.abs(&table, b.id);
                    let same_k1 = k1.abs(&table, a.id) == k1.abs(&table, b.id);
                    prop_assert_eq!(same_site, same_k1);
                }
            }
        }
    }
}
