//! The lock dependency relation (Definition 1).

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};

use df_events::{AcquireMode, DenseInterner, Label, ObjId, ThreadId, Trace};
use serde::{Deserialize, Serialize};

use crate::hb::{Epoch, VectorClock};

/// Whether an acquisition in mode `acquire` is blocked by a hold in mode
/// `hold` of the same lock. Only read-read pairs coexist; every other
/// combination blocks. This is the edge rule of the mode-aware join:
/// a chain edge (and the closing edge) exists only for conflicting
/// pairs.
pub fn modes_conflict(acquire: AcquireMode, hold: AcquireMode) -> bool {
    !(acquire.is_shared() && hold.is_shared())
}

/// Where and when a dependency tuple's *hold window* lies: the span
/// during which the thread holds its lockset while performing the
/// acquisition. Used by the happens-before filter ([`DepTiming::may_overlap`])
/// to prune cycles whose windows can never overlap, and by the
/// feasibility scorer ([`crate::FeasibilityAnalysis`]).
#[derive(Clone, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub struct DepTiming {
    /// Sequence number of the innermost held lock's acquisition (window
    /// start).
    pub window_start_seq: u64,
    /// Sequence number of the acquisition event itself (window end).
    pub acquire_seq: u64,
    /// Fork/join vector clock at the window start.
    pub window_start_clock: VectorClock,
    /// Epoch of the acquisition (window end).
    pub acquire_epoch: Epoch,
}

/// One tuple `(t, L, l, C)` of the lock dependency relation: in some state
/// of the observed execution, thread `t` acquired lock `l` while holding
/// the locks `L`, where `C` are the labels of the acquire statements for
/// `L ∪ {l}` (outermost lock's site first, `l`'s site last).
///
/// The mode-aware vocabulary adds a *guard mode* to the tuple: `mode` is
/// the mode in which `l` was acquired and `hold_modes` (parallel to
/// `lockset`) the modes in which each held lock is held. Both default to
/// exclusive; relations built from plain-mutex traces serialize without
/// them, byte-identical to the pre-mode artifact format.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct LockDep {
    /// The acquiring thread.
    pub thread: ThreadId,
    /// The object representing the thread (for abstraction).
    pub thread_obj: ObjId,
    /// Locks held at the acquisition, outermost first (the paper's `L`;
    /// we keep stack order because it is free and helps debugging).
    pub lockset: Vec<ObjId>,
    /// The acquired lock (the paper's `l`).
    pub lock: ObjId,
    /// Acquisition sites of `lockset` followed by the site of `lock`
    /// (the paper's `C`, `contexts.len() == lockset.len() + 1`).
    pub contexts: Vec<Label>,
    /// Mode in which `lock` was acquired.
    pub mode: AcquireMode,
    /// Modes in which each lock of `lockset` is held, parallel to it.
    pub hold_modes: Vec<AcquireMode>,
}

impl LockDep {
    /// An all-exclusive tuple — the classic plain-mutex vocabulary.
    pub fn exclusive(
        thread: ThreadId,
        thread_obj: ObjId,
        lockset: Vec<ObjId>,
        lock: ObjId,
        contexts: Vec<Label>,
    ) -> Self {
        let hold_modes = vec![AcquireMode::Exclusive; lockset.len()];
        LockDep {
            thread,
            thread_obj,
            lockset,
            lock,
            contexts,
            mode: AcquireMode::Exclusive,
            hold_modes,
        }
    }

    /// The site at which `lock` was acquired (the last context label).
    pub fn acquire_site(&self) -> Label {
        *self
            .contexts
            .last()
            .expect("contexts always include the acquire site")
    }

    /// Whether `other_lock` is held in this dependency's lockset.
    pub fn holds(&self, other_lock: ObjId) -> bool {
        self.lockset.contains(&other_lock)
    }

    /// Mode in which `other_lock` is held (exclusive for locks absent
    /// from a truncated `hold_modes`, matching the serde default).
    pub fn hold_mode_of(&self, other_lock: ObjId) -> Option<AcquireMode> {
        self.lockset.iter().position(|&l| l == other_lock).map(|i| {
            self.hold_modes
                .get(i)
                .copied()
                .unwrap_or(AcquireMode::Exclusive)
        })
    }

    /// Whether an acquisition in mode `acquire_mode` of `other_lock`
    /// would block against this tuple's hold of it. False if the lock is
    /// not held here at all.
    pub fn hold_blocks(&self, other_lock: ObjId, acquire_mode: AcquireMode) -> bool {
        self.hold_mode_of(other_lock)
            .is_some_and(|hold| modes_conflict(acquire_mode, hold))
    }

    /// Whether any lock is held in shared mode (drives the skip-if-
    /// exclusive serialization of `hold_modes`).
    fn any_shared_hold(&self) -> bool {
        self.hold_modes.iter().any(|m| m.is_shared())
    }
}

// The vendored serde derive has no `#[serde(default, skip_serializing_if)]`,
// so the compat rule — omit `mode`/`hold_modes` when all-exclusive, default
// them when absent — is hand-written. Exclusive-only relations thereby
// serialize byte-identically to the pre-mode artifact format.
impl Serialize for LockDep {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        use serde::ser::SerializeStruct;
        let extra = usize::from(self.mode.is_shared()) + usize::from(self.any_shared_hold());
        let mut state = serializer.serialize_struct("LockDep", 5 + extra)?;
        state.serialize_field("thread", &self.thread)?;
        state.serialize_field("thread_obj", &self.thread_obj)?;
        state.serialize_field("lockset", &self.lockset)?;
        state.serialize_field("lock", &self.lock)?;
        state.serialize_field("contexts", &self.contexts)?;
        if self.mode.is_shared() {
            state.serialize_field("mode", &self.mode)?;
        }
        if self.any_shared_hold() {
            state.serialize_field("hold_modes", &self.hold_modes)?;
        }
        state.end()
    }
}

impl<'de> Deserialize<'de> for LockDep {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        use serde::__private as sp;
        let value = serde::Deserializer::__take_value(deserializer)?;
        let result: Result<Self, sp::DeError> = (move || {
            let mut entries = sp::expect_obj(value, "LockDep")?;
            let thread = sp::field(&mut entries, "thread")?;
            let thread_obj = sp::field(&mut entries, "thread_obj")?;
            let lockset: Vec<ObjId> = sp::field(&mut entries, "lockset")?;
            let lock = sp::field(&mut entries, "lock")?;
            let contexts = sp::field(&mut entries, "contexts")?;
            let mode = sp::field::<Option<AcquireMode>>(&mut entries, "mode")?.unwrap_or_default();
            let hold_modes = sp::field::<Option<Vec<AcquireMode>>>(&mut entries, "hold_modes")?
                .unwrap_or_else(|| vec![AcquireMode::Exclusive; lockset.len()]);
            Ok(LockDep {
                thread,
                thread_obj,
                lockset,
                lock,
                contexts,
                mode,
                hold_modes,
            })
        })();
        result.map_err(<D::Error as serde::de::Error>::custom)
    }
}

/// A tuple's fields, borrowed: the form a candidate tuple has while the
/// builder checks whether it is new, so that a repeated acquisition is
/// recognized without allocating. The thread object is left out: a
/// thread is bound to exactly one object, which the builder resolves
/// only when it finishes.
pub(crate) type DepKey<'a> = (
    ThreadId,
    &'a [ObjId],
    ObjId,
    &'a [Label],
    AcquireMode,
    &'a [AcquireMode],
);

impl LockDep {
    fn key(&self) -> DepKey<'_> {
        (
            self.thread,
            &self.lockset,
            self.lock,
            &self.contexts,
            self.mode,
            &self.hold_modes,
        )
    }
}

/// A multiplicative hasher in the style of rustc's Fx hash, for the
/// relation builder's per-event maps: their keys are small integers and
/// slices of them, and SipHash's cost showed in relation building.
/// Nothing iterates a map hashed with it, so no output order depends on
/// it. Keys come from a recorded trace; one crafted to collide could
/// only slow the dedup, whose exact compare keeps its result right.
#[derive(Default)]
pub(crate) struct FxHasher {
    hash: u64,
}

impl FxHasher {
    const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(Self::SEED);
    }
}

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add(u64::from_le_bytes(chunk.try_into().expect("8 bytes")));
        }
        for &byte in chunks.remainder() {
            self.add(u64::from(byte));
        }
    }

    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    /// Rotated so the well-mixed high bits land where `HashMap` picks
    /// its bucket.
    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }
}

/// Builds [`FxHasher`]s for a `HashMap`.
pub(crate) type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// Clone-free tuple dedup: candidates are bucketed by hash and compared
/// exactly against the tuples already kept, so construction never clones
/// a lockset or context vector just to probe a set. (A bare
/// `HashSet<u64>` of hashes would dedup wrongly on a hash collision;
/// the exact compare makes collisions merely a second probe.)
#[derive(Default)]
pub(crate) struct DedupIndex {
    buckets: HashMap<u64, Vec<u32>, FxBuildHasher>,
}

impl DedupIndex {
    fn hash_of(dep: DepKey<'_>) -> u64 {
        let mut h = FxHasher::default();
        dep.hash(&mut h);
        h.finish()
    }

    /// Whether `dep` is absent from `kept`; records `kept.len()` as its
    /// future index if so (the caller pushes it next). Allocates only
    /// for a new tuple.
    pub(crate) fn is_new(&mut self, kept: &[LockDep], dep: DepKey<'_>) -> bool {
        let ids = self.buckets.entry(Self::hash_of(dep)).or_default();
        if ids.iter().any(|&i| kept[i as usize].key() == dep) {
            return false;
        }
        ids.push(u32::try_from(kept.len()).expect("relation fits u32"));
        true
    }
}

/// The deduplicated lock dependency relation of one execution, plus the
/// bookkeeping [`igoodlock`](crate::igoodlock) needs.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct LockDependencyRelation {
    pub(crate) deps: Vec<LockDep>,
    /// Hold-window positions of each (deduplicated) tuple's *first*
    /// occurrence, parallel to `deps`. Empty when the relation was built
    /// from bare tuples ([`Self::from_deps`]).
    pub(crate) timings: Vec<DepTiming>,
    /// Number of raw (non-deduplicated) dependency tuples observed.
    pub raw_count: usize,
    /// Number of events the relation was built from (zero for bare
    /// tuples).
    pub(crate) events: u64,
}

impl LockDependencyRelation {
    /// Extracts the relation from a trace, following the runtime algorithm
    /// of §2.2.1: every first (0→1) acquisition event contributes one
    /// tuple. Tuples are deduplicated — repeated executions of the same
    /// acquisition with the same held set and contexts add nothing to
    /// Algorithm 1.
    ///
    /// Tuples with an empty lockset are dropped: Definition 2(3) requires
    /// `l_i ∈ L_{i+1}` and Definition 3 requires `l_m ∈ L_1`, so a tuple
    /// with `L = ∅` can participate in no cycle.
    ///
    /// This is the offline entry point of [`crate::RelationBuilder`]:
    /// every event is fed through the same incremental algorithm the
    /// streaming path uses, so the two paths cannot diverge.
    ///
    /// # Panics
    ///
    /// If a thread that nests locks has no binding in `trace` — which
    /// no substrate records; decode artifacts into a builder instead to
    /// get that as an error.
    pub fn from_trace(trace: &Trace) -> Self {
        let mut builder = crate::RelationBuilder::new();
        for event in trace.events() {
            builder.observe(event);
        }
        for (thread, obj) in trace.thread_objs() {
            builder.bind_thread(thread, obj);
        }
        builder
            .finish()
            .expect("trace binds every thread that nests locks")
    }

    /// Builds a relation directly from tuples (used in tests and by the
    /// real-thread substrate).
    pub fn from_deps(deps: Vec<LockDep>) -> Self {
        let raw_count = deps.len();
        let mut seen = DedupIndex::default();
        let mut kept: Vec<LockDep> = Vec::with_capacity(deps.len());
        for d in deps {
            if !d.lockset.is_empty() && seen.is_new(&kept, d.key()) {
                kept.push(d);
            }
        }
        LockDependencyRelation {
            deps: kept,
            timings: Vec::new(),
            raw_count,
            events: 0,
        }
    }

    /// The deduplicated tuples.
    pub fn deps(&self) -> &[LockDep] {
        &self.deps
    }

    /// Hold-window timing of tuple `i`, if the relation came from a trace.
    pub fn timing(&self, i: usize) -> Option<&DepTiming> {
        self.timings.get(i)
    }

    /// Number of events observed while building the relation — the
    /// length of the execution's trace, which the feasibility scorer
    /// normalizes window gaps by. Zero for [`Self::from_deps`].
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Number of deduplicated tuples.
    pub fn len(&self) -> usize {
        self.deps.len()
    }

    /// Whether the relation is empty.
    pub fn is_empty(&self) -> bool {
        self.deps.is_empty()
    }

    /// Distinct threads appearing in the relation.
    pub fn threads(&self) -> Vec<ThreadId> {
        let mut ts: Vec<ThreadId> = self.deps.iter().map(|d| d.thread).collect();
        ts.sort();
        ts.dedup();
        ts
    }

    /// Distinct locks appearing in the relation (acquired or held).
    pub fn locks(&self) -> Vec<ObjId> {
        let mut ls: Vec<ObjId> = self
            .deps
            .iter()
            .flat_map(|d| d.lockset.iter().copied().chain(std::iter::once(d.lock)))
            .collect();
        ls.sort();
        ls.dedup();
        ls
    }

    /// The relation's *cyclic core*: the tuples whose acquired lock lies
    /// in one strongly connected component of the lock graph with at
    /// least one of its held locks, in relation order.
    ///
    /// The lock graph has an edge from every held lock to the acquired
    /// lock of every tuple. Definition 2(3) (`l_i ∈ L_{i+1}`) and
    /// Definition 3 (`l_m ∈ L_1`) make every potential deadlock cycle a
    /// cycle `l_1 → … → l_m → l_1` of that graph, so each of its
    /// components has an edge inside one component of the graph; a tuple
    /// with no such edge joins no cycle. Read-read holds contribute edges
    /// too: a superset of edges only keeps more tuples. This is a
    /// prefilter, not a cycle finder — Algorithm 1 over the core reports
    /// exactly the cycles it reports over the whole relation, in the same
    /// order, while building only chains that can still close.
    ///
    /// Each kept tuple keeps its [`DepTiming`], so [`Self::timing`] of
    /// the core still feeds the happens-before filter; `raw_count` and
    /// [`Self::events`] are the observed run's and are carried over
    /// unchanged.
    ///
    /// # Example
    ///
    /// ```
    /// use df_igoodlock::{LockDep, LockDependencyRelation};
    /// use df_events::{Label, ObjId, ThreadId};
    ///
    /// let dep = |t: u32, held: u32, lock: u32| {
    ///     LockDep::exclusive(
    ///         ThreadId::new(t),
    ///         ObjId::new(t),
    ///         vec![ObjId::new(held)],
    ///         ObjId::new(lock),
    ///         vec![Label::new("a:1"), Label::new("a:2")],
    ///     )
    /// };
    /// // 10 → 11 → 10 is a cycle; 11 → 12 leads nowhere.
    /// let rel =
    ///     LockDependencyRelation::from_deps(vec![dep(1, 10, 11), dep(1, 11, 12), dep(2, 11, 10)]);
    /// let core = rel.cyclic_core();
    /// assert_eq!(core.len(), 2);
    /// assert_eq!(core.deps()[1].lock, ObjId::new(10));
    /// ```
    pub fn cyclic_core(&self) -> LockDependencyRelation {
        let mut locks: DenseInterner<ObjId> = DenseInterner::new();
        let mut edges: Vec<Vec<u32>> = Vec::new();
        for dep in &self.deps {
            let to = locks.intern(dep.lock);
            for &held in &dep.lockset {
                let from = locks.intern(held) as usize;
                edges.resize_with(locks.len(), Vec::new);
                edges[from].push(to);
            }
        }
        edges.resize_with(locks.len(), Vec::new);
        let component = strongly_connected_components(&edges);
        let component_of =
            |lock: ObjId| component[locks.get(lock).expect("interned above") as usize];
        let keep: Vec<usize> = (0..self.deps.len())
            .filter(|&i| {
                let dep = &self.deps[i];
                let acquired = component_of(dep.lock);
                dep.lockset
                    .iter()
                    .any(|&held| component_of(held) == acquired)
            })
            .collect();
        LockDependencyRelation {
            deps: keep.iter().map(|&i| self.deps[i].clone()).collect(),
            timings: keep
                .iter()
                .filter_map(|&i| self.timings.get(i).cloned())
                .collect(),
            raw_count: self.raw_count,
            events: self.events,
        }
    }
}

/// Tarjan's strongly connected components over the graph whose node `v`
/// has out-edges `edges[v]`, run iteratively so that a deep lock graph
/// cannot overflow the stack. Returns each node's component id; two
/// nodes share an id iff each reaches the other.
fn strongly_connected_components(edges: &[Vec<u32>]) -> Vec<u32> {
    let mut tarjan = Tarjan {
        order: vec![UNSEEN; edges.len()],
        low: vec![0; edges.len()],
        component: vec![UNSEEN; edges.len()],
        stack: Vec::new(),
        frames: Vec::new(),
        next_order: 0,
        next_component: 0,
    };
    for root in 0..edges.len() {
        if tarjan.order[root] != UNSEEN {
            continue;
        }
        tarjan.enter(root);
        while let Some(frame) = tarjan.frames.last_mut() {
            let v = frame.0;
            if let Some(&w) = edges[v].get(frame.1) {
                frame.1 += 1;
                let w = w as usize;
                if tarjan.order[w] == UNSEEN {
                    tarjan.enter(w);
                } else if tarjan.component[w] == UNSEEN {
                    // Seen but not yet assigned: `w` is still on the stack.
                    tarjan.low[v] = tarjan.low[v].min(tarjan.order[w]);
                }
            } else {
                tarjan.leave(v);
            }
        }
    }
    tarjan.component
}

/// Marks a node not yet reached by [`strongly_connected_components`].
const UNSEEN: u32 = u32::MAX;

/// The state of one [`strongly_connected_components`] run.
struct Tarjan {
    /// Discovery order of each node (`UNSEEN` before it is reached).
    order: Vec<u32>,
    /// Smallest discovery order reachable from the node's DFS subtree
    /// through at most one edge back into the stack.
    low: Vec<u32>,
    /// Component id of each node (`UNSEEN` while it is on the stack).
    component: Vec<u32>,
    /// Nodes reached but not yet assigned a component.
    stack: Vec<usize>,
    /// The simulated call stack: a node and the index of its next edge.
    frames: Vec<(usize, usize)>,
    next_order: u32,
    next_component: u32,
}

impl Tarjan {
    fn enter(&mut self, v: usize) {
        self.order[v] = self.next_order;
        self.low[v] = self.next_order;
        self.next_order += 1;
        self.stack.push(v);
        self.frames.push((v, 0));
    }

    /// Returns from `v`'s frame once its edges are exhausted, closing a
    /// component if `v` is its root.
    fn leave(&mut self, v: usize) {
        self.frames.pop();
        if let Some(&(parent, _)) = self.frames.last() {
            self.low[parent] = self.low[parent].min(self.low[v]);
        }
        if self.low[v] == self.order[v] {
            loop {
                let w = self.stack.pop().expect("a component root is on the stack");
                self.component[w] = self.next_component;
                if w == v {
                    break;
                }
            }
            self.next_component += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use df_events::{EventKind, Label, ObjKind};

    fn l(s: &str) -> Label {
        Label::new(s)
    }

    /// A trace where T1 acquires (A then B) and T2 acquires (B then A).
    fn opposite_order_trace() -> Trace {
        let mut trace = Trace::new();
        let t1 = ThreadId::new(1);
        let t2 = ThreadId::new(2);
        let o1 = trace
            .objects_mut()
            .create(ObjKind::Thread, l("spawn:1"), None, vec![]);
        let o2 = trace
            .objects_mut()
            .create(ObjKind::Thread, l("spawn:2"), None, vec![]);
        trace.bind_thread(t1, o1);
        trace.bind_thread(t2, o2);
        let a = trace
            .objects_mut()
            .create(ObjKind::Lock, l("main:22"), None, vec![]);
        let b = trace
            .objects_mut()
            .create(ObjKind::Lock, l("main:23"), None, vec![]);
        trace.push(t1, EventKind::acquire(a, l("run:15")));
        trace.push(t1, EventKind::acquire(b, l("run:16")));
        trace.push(t1, EventKind::release(b, l("run:17")));
        trace.push(t1, EventKind::release(a, l("run:18")));
        trace.push(t2, EventKind::acquire(b, l("run:15")));
        trace.push(t2, EventKind::acquire(a, l("run:16")));
        trace.push(t2, EventKind::release(a, l("run:17")));
        trace.push(t2, EventKind::release(b, l("run:18")));
        trace
    }

    #[test]
    fn extracts_nested_acquisitions_only() {
        let trace = opposite_order_trace();
        let rel = LockDependencyRelation::from_trace(&trace);
        // 4 acquires observed, 2 with non-empty locksets.
        assert_eq!(rel.raw_count, 4);
        assert_eq!(rel.len(), 2);
        assert_eq!(rel.threads().len(), 2);
        assert_eq!(rel.locks().len(), 2);
        for dep in rel.deps() {
            assert_eq!(dep.lockset.len(), 1);
            assert_eq!(dep.contexts.len(), 2);
            assert_eq!(dep.acquire_site(), l("run:16"));
            assert!(dep.holds(dep.lockset[0]));
            assert!(!dep.holds(dep.lock));
        }
    }

    #[test]
    fn duplicate_tuples_are_removed() {
        let trace = opposite_order_trace();
        let rel1 = LockDependencyRelation::from_trace(&trace);
        // Duplicate every event.
        let mut trace2 = opposite_order_trace();
        let events: Vec<_> = trace2.events().to_vec();
        for e in events {
            trace2.push(e.thread, e.kind.clone());
        }
        let rel2 = LockDependencyRelation::from_trace(&trace2);
        assert_eq!(rel1.len(), rel2.len());
        assert_eq!(rel2.raw_count, 8);
    }

    #[test]
    fn from_deps_filters_empty_locksets() {
        let dep = LockDep::exclusive(
            ThreadId::new(1),
            ObjId::new(0),
            vec![],
            ObjId::new(5),
            vec![l("x:1")],
        );
        let rel = LockDependencyRelation::from_deps(vec![dep]);
        assert!(rel.is_empty());
        assert_eq!(rel.raw_count, 1);
    }

    #[test]
    fn serde_round_trip() {
        let rel = LockDependencyRelation::from_trace(&opposite_order_trace());
        let json = serde_json::to_string(&rel).unwrap();
        let back: LockDependencyRelation = serde_json::from_str(&json).unwrap();
        assert_eq!(rel, back);
    }

    #[test]
    fn exclusive_deps_serialize_without_mode_fields() {
        let dep = LockDep::exclusive(
            ThreadId::new(1),
            ObjId::new(0),
            vec![ObjId::new(4)],
            ObjId::new(5),
            vec![l("x:1"), l("x:2")],
        );
        let json = serde_json::to_string(&dep).unwrap();
        assert!(!json.contains("mode"), "{json}");
        // A pre-mode artifact tuple deserializes with exclusive defaults.
        let back: LockDep = serde_json::from_str(&json).unwrap();
        assert_eq!(back, dep);
        assert_eq!(back.hold_modes, vec![AcquireMode::Exclusive]);
    }

    #[test]
    fn shared_deps_round_trip_their_modes() {
        let mut dep = LockDep::exclusive(
            ThreadId::new(1),
            ObjId::new(0),
            vec![ObjId::new(4), ObjId::new(6)],
            ObjId::new(5),
            vec![l("x:1"), l("x:2"), l("x:3")],
        );
        dep.mode = AcquireMode::Shared;
        dep.hold_modes[1] = AcquireMode::Shared;
        let json = serde_json::to_string(&dep).unwrap();
        assert!(json.contains("\"mode\":\"Shared\""), "{json}");
        assert!(json.contains("hold_modes"), "{json}");
        let back: LockDep = serde_json::from_str(&json).unwrap();
        assert_eq!(back, dep);
        assert_eq!(back.hold_mode_of(ObjId::new(6)), Some(AcquireMode::Shared));
        assert_eq!(
            back.hold_mode_of(ObjId::new(4)),
            Some(AcquireMode::Exclusive)
        );
        assert_eq!(back.hold_mode_of(ObjId::new(9)), None);
        // read acquire vs read hold: no block; vs write hold: blocks.
        assert!(!back.hold_blocks(ObjId::new(6), AcquireMode::Shared));
        assert!(back.hold_blocks(ObjId::new(4), AcquireMode::Shared));
        assert!(back.hold_blocks(ObjId::new(6), AcquireMode::Exclusive));
    }

    fn dep(t: u32, held: &[u32], lock: u32) -> LockDep {
        LockDep::exclusive(
            ThreadId::new(t),
            ObjId::new(t),
            held.iter().map(|&h| ObjId::new(h)).collect(),
            ObjId::new(lock),
            (0..=held.len())
                .map(|i| l(&format!("core:{t}:{i}")))
                .collect(),
        )
    }

    #[test]
    fn consistently_ordered_relation_has_an_empty_core() {
        // Every thread nests in ascending lock order: the lock graph is a
        // DAG, so no tuple can join a cycle.
        let rel = LockDependencyRelation::from_deps(vec![
            dep(1, &[1], 2),
            dep(1, &[1, 2], 3),
            dep(2, &[2], 3),
            dep(3, &[1], 3),
        ]);
        let core = rel.cyclic_core();
        assert!(core.is_empty(), "{core:?}");
        assert_eq!(core.raw_count, rel.raw_count);
    }

    #[test]
    fn core_keeps_cycle_tuples_in_relation_order() {
        // 1 -> 2 -> 3 -> 1 is a cycle; 3 -> 4 and 5 -> 1 hang off it.
        let rel = LockDependencyRelation::from_deps(vec![
            dep(1, &[1], 2),
            dep(2, &[3], 4),
            dep(2, &[2], 3),
            dep(3, &[5], 1),
            dep(3, &[5, 3], 1),
        ]);
        let core = rel.cyclic_core();
        assert_eq!(
            core.deps(),
            &[
                rel.deps()[0].clone(),
                rel.deps()[2].clone(),
                rel.deps()[4].clone()
            ]
        );
    }

    #[test]
    fn read_read_only_inversion_keeps_its_tuples() {
        // The inversion closes only through shared holds; the join will
        // report no cycle, but the core keeps every edge and so both
        // tuples.
        let mut a = dep(1, &[1], 2);
        let mut b = dep(2, &[2], 1);
        for dep in [&mut a, &mut b] {
            dep.mode = AcquireMode::Shared;
            dep.hold_modes = vec![AcquireMode::Shared];
        }
        let rel = LockDependencyRelation::from_deps(vec![a, b]);
        assert_eq!(rel.cyclic_core(), rel);
    }

    #[test]
    fn core_of_bare_tuples_has_no_timings() {
        let rel = LockDependencyRelation::from_deps(vec![dep(1, &[1], 2), dep(2, &[2], 1)]);
        let core = rel.cyclic_core();
        assert_eq!(core.len(), 2);
        assert_eq!(core.timing(0), None);
    }

    #[test]
    fn core_of_a_trace_keeps_timings_parallel() {
        let rel = LockDependencyRelation::from_trace(&opposite_order_trace());
        let core = rel.cyclic_core();
        assert_eq!(core, rel);
        assert!(core.timing(1).is_some());
    }

    #[test]
    fn deep_lock_graphs_do_not_recurse() {
        // One 100k-lock ring: a recursive Tarjan would overflow the
        // test thread's stack.
        let n = 100_000u32;
        let deps = (0..n).map(|i| dep(1, &[i], (i + 1) % n)).collect();
        let rel = LockDependencyRelation::from_deps(deps);
        assert_eq!(rel.cyclic_core().len(), n as usize);
    }

    #[test]
    fn modes_conflict_only_spares_read_read() {
        use AcquireMode::{Exclusive, Shared};
        assert!(modes_conflict(Exclusive, Exclusive));
        assert!(modes_conflict(Exclusive, Shared));
        assert!(modes_conflict(Shared, Exclusive));
        assert!(!modes_conflict(Shared, Shared));
    }
}
