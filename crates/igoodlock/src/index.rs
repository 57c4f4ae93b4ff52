//! The per-run join index behind the indexed iGoodlock implementation.
//!
//! Algorithm 1 is a relational self-join: each level extends every open
//! chain with every compatible tuple of `D`. The brute-force form (kept
//! as [`crate::oracle::naive_igoodlock`]) scans **all** of `D` per chain and
//! re-checks Definition 2 with linear lockset scans. This module
//! precomputes, once per `igoodlock` call:
//!
//! * dense per-run ids for the relation's locks and threads
//!   ([`df_events::DenseInterner`] — never process-global, so parallel
//!   campaign workers stay independent);
//! * a [`BitSet`] per tuple for its lockset, making Definition 2(3)/(4)
//!   membership and disjointness word-AND operations;
//! * a bucket of candidate tuples per held lock: a chain ending in lock
//!   `l` can only be extended by tuples whose lockset contains `l`
//!   (Definition 2(3)), so the join touches candidates, not all of `D`;
//! * a dense *projection id* per tuple — the `(thread, lock, contexts)`
//!   view that cycle deduplication compares — so reporting dedups on a
//!   `Vec<u32>` key instead of cloning context vectors per candidate.
//!
//! Buckets keep tuples in relation order, which is what makes the
//! indexed join's output byte-identical to the naive one: it accepts the
//! same extensions in the same order, only skipping tuples the naive
//! scan would have rejected anyway.

use std::collections::HashMap;

use df_events::{AcquireMode, DenseInterner, Label, ObjId, ThreadId};

use crate::relation::LockDep;

/// A fixed-width bitset over dense per-run ids (`Vec<u64>` blocks; one
/// or two words for typical lock counts).
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct BitSet {
    blocks: Vec<u64>,
}

impl BitSet {
    /// An empty set able to hold ids `0..nbits`.
    pub(crate) fn zeroed(nbits: usize) -> Self {
        BitSet {
            blocks: vec![0; nbits.div_ceil(64)],
        }
    }

    /// Inserts `bit`.
    pub(crate) fn insert(&mut self, bit: u32) {
        self.blocks[bit as usize / 64] |= 1u64 << (bit as usize % 64);
    }

    /// Whether `bit` is present.
    pub(crate) fn contains(&self, bit: u32) -> bool {
        self.blocks[bit as usize / 64] & (1u64 << (bit as usize % 64)) != 0
    }

    /// Whether the two sets share any bit (Definition 2(4)'s disjointness
    /// check, one AND per word).
    pub(crate) fn intersects(&self, other: &BitSet) -> bool {
        self.blocks
            .iter()
            .zip(&other.blocks)
            .any(|(a, b)| a & b != 0)
    }

    /// Adds every bit of `other` into `self`.
    pub(crate) fn union_with(&mut self, other: &BitSet) {
        for (a, b) in self.blocks.iter_mut().zip(&other.blocks) {
            *a |= b;
        }
    }
}

/// Everything the indexed join precomputes about one relation. Arrays
/// are parallel to the relation's tuple order.
pub(crate) struct JoinIndex {
    /// Interned acquired lock of each tuple.
    pub(crate) lock: Vec<u32>,
    /// Acquisition mode of each tuple's acquired lock.
    pub(crate) mode: Vec<AcquireMode>,
    /// Thread of each tuple (raw id, for the §2.2.3 `>` root compare).
    pub(crate) thread: Vec<ThreadId>,
    /// Interned thread of each tuple (for the Definition 2(1) bitset).
    pub(crate) thread_bit: Vec<u32>,
    /// Interned lockset of each tuple as a bitset (all hold modes).
    pub(crate) lockset: Vec<BitSet>,
    /// The exclusively-held subset of each tuple's lockset. The
    /// mode-aware Definition 2(4): two locksets conflict only where at
    /// least one side holds a common lock exclusively, so disjointness
    /// becomes two AND probes against these.
    pub(crate) lockset_excl: Vec<BitSet>,
    /// Dense id of each tuple's `(thread, lock, mode, contexts)`
    /// projection — the cycle-dedup key space.
    pub(crate) proj: Vec<u32>,
    /// For each interned lock `l`: the tuples whose lockset contains
    /// `l` in any mode, in relation order. Extension candidates for a
    /// chain ending in an *exclusive* acquisition (which conflicts with
    /// every hold).
    buckets: Vec<Vec<u32>>,
    /// For each interned lock `l`: the tuples holding `l` exclusively,
    /// in relation order. Extension candidates for a chain ending in a
    /// *shared* acquisition — read-read pairs never appear here, which
    /// is the bitset-level pruning of the mode-aware join.
    buckets_excl: Vec<Vec<u32>>,
    /// Number of distinct locks (bitset width).
    lock_bits: usize,
    /// Number of distinct threads (bitset width).
    thread_bits: usize,
}

impl JoinIndex {
    /// Builds the index in one pass over the relation (plus one pass to
    /// fill the buckets).
    pub(crate) fn build(deps: &[LockDep]) -> JoinIndex {
        let mut locks: DenseInterner<ObjId> = DenseInterner::new();
        let mut threads: DenseInterner<ThreadId> = DenseInterner::new();
        // Projections are interned by exact value (contexts included) so
        // dedup over projection ids is precisely the naive dedup over
        // `(thread, lock, mode, contexts)` tuples. The one context-vector
        // clone per tuple happens here, at build time — never per
        // candidate.
        let mut projections: HashMap<(ThreadId, ObjId, AcquireMode, Vec<Label>), u32> =
            HashMap::new();
        let mut interned_ids = Vec::with_capacity(deps.len());
        for d in deps {
            locks.intern(d.lock);
            for &l in &d.lockset {
                locks.intern(l);
            }
            threads.intern(d.thread);
            let next = u32::try_from(projections.len()).expect("relation fits u32");
            let id = *projections
                .entry((d.thread, d.lock, d.mode, d.contexts.clone()))
                .or_insert(next);
            interned_ids.push(id);
        }
        let lock_bits = locks.len();
        let thread_bits = threads.len();
        let mut index = JoinIndex {
            lock: Vec::with_capacity(deps.len()),
            mode: Vec::with_capacity(deps.len()),
            thread: Vec::with_capacity(deps.len()),
            thread_bit: Vec::with_capacity(deps.len()),
            lockset: Vec::with_capacity(deps.len()),
            lockset_excl: Vec::with_capacity(deps.len()),
            proj: interned_ids,
            buckets: vec![Vec::new(); lock_bits],
            buckets_excl: vec![Vec::new(); lock_bits],
            lock_bits,
            thread_bits,
        };
        for (i, d) in deps.iter().enumerate() {
            let lock = locks.get(d.lock).expect("interned above");
            index.lock.push(lock);
            index.mode.push(d.mode);
            index.thread.push(d.thread);
            index
                .thread_bit
                .push(threads.get(d.thread).expect("interned above"));
            let mut set = BitSet::zeroed(lock_bits);
            let mut set_excl = BitSet::zeroed(lock_bits);
            for (j, &l) in d.lockset.iter().enumerate() {
                let bit = locks.get(l).expect("interned above");
                set.insert(bit);
                index.buckets[bit as usize].push(u32::try_from(i).expect("relation fits u32"));
                let hold = d
                    .hold_modes
                    .get(j)
                    .copied()
                    .unwrap_or(AcquireMode::Exclusive);
                if hold.is_exclusive() {
                    set_excl.insert(bit);
                    index.buckets_excl[bit as usize]
                        .push(u32::try_from(i).expect("relation fits u32"));
                }
            }
            index.lockset.push(set);
            index.lockset_excl.push(set_excl);
        }
        index
    }

    /// The candidate tuples for extending a chain whose last acquired
    /// lock is `last_lock` in mode `last_mode`: those whose lockset holds
    /// it *conflictingly* (Definition 2(3) plus the mode edge rule), in
    /// relation order. An exclusive acquisition conflicts with any hold;
    /// a shared acquisition only with exclusive holds, so read-read
    /// pairs never even enter the join.
    pub(crate) fn candidates(&self, last_lock: u32, last_mode: AcquireMode) -> &[u32] {
        match last_mode {
            AcquireMode::Exclusive => &self.buckets[last_lock as usize],
            AcquireMode::Shared => &self.buckets_excl[last_lock as usize],
        }
    }

    /// Whether tuple `first`'s hold of `last_lock` conflicts with an
    /// acquisition of it in `last_mode` — the mode-aware Definition 3
    /// closing check.
    pub(crate) fn closes_against(
        &self,
        first: usize,
        last_lock: u32,
        last_mode: AcquireMode,
    ) -> bool {
        match last_mode {
            AcquireMode::Exclusive => self.lockset[first].contains(last_lock),
            AcquireMode::Shared => self.lockset_excl[first].contains(last_lock),
        }
    }

    /// Width of lock bitsets.
    pub(crate) fn lock_bits(&self) -> usize {
        self.lock_bits
    }

    /// Width of thread bitsets.
    pub(crate) fn thread_bits(&self) -> usize {
        self.thread_bits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use df_events::Label;

    fn dep(t: u32, held: &[u32], lock: u32) -> LockDep {
        LockDep::exclusive(
            ThreadId::new(t),
            ObjId::new(t),
            held.iter().map(|&h| ObjId::new(100 + h)).collect(),
            ObjId::new(100 + lock),
            (0..=held.len())
                .map(|i| Label::new(&format!("ix:{i}")))
                .collect(),
        )
    }

    #[test]
    fn bitset_operations() {
        let mut a = BitSet::zeroed(130);
        let mut b = BitSet::zeroed(130);
        a.insert(0);
        a.insert(129);
        b.insert(64);
        assert!(a.contains(129));
        assert!(!a.contains(64));
        assert!(!a.intersects(&b));
        b.insert(0);
        assert!(a.intersects(&b));
        let mut u = BitSet::zeroed(130);
        u.union_with(&a);
        u.union_with(&b);
        for bit in [0u32, 64, 129] {
            assert!(u.contains(bit));
        }
    }

    #[test]
    fn buckets_keep_relation_order_and_cover_locksets() {
        let deps = vec![
            dep(1, &[1], 2),
            dep(2, &[2, 3], 1),
            dep(3, &[1, 3], 4),
            dep(4, &[2], 5),
        ];
        let index = JoinIndex::build(&deps);
        // Lock "101" — acquired by tuple 1, held by tuples 0 and 2 —
        // buckets its holders in relation order.
        assert_eq!(
            index.candidates(index.lock[1], AcquireMode::Exclusive),
            &[0, 2]
        );
        // All holds are exclusive here, so a shared acquisition sees the
        // same candidates.
        assert_eq!(
            index.candidates(index.lock[1], AcquireMode::Shared),
            &[0, 2]
        );
        // A lock held nowhere (the acquired-only lock "105") has no
        // candidates.
        assert_eq!(
            index.candidates(index.lock[3], AcquireMode::Exclusive),
            &[] as &[u32]
        );
        assert_eq!(index.lock_bits(), 5);
        assert_eq!(index.thread_bits(), 4);
    }

    #[test]
    fn shared_holds_leave_the_exclusive_bucket() {
        // Tuple 0 holds lock 101 in read mode, tuple 1 holds it in write
        // mode. A shared (read) acquisition of 101 only conflicts with
        // tuple 1; an exclusive one with both.
        let mut read_holder = dep(1, &[1], 2);
        read_holder.hold_modes[0] = AcquireMode::Shared;
        let write_holder = dep(2, &[1], 3);
        let index = JoinIndex::build(&[read_holder, write_holder]);
        // Lock 101 is the single held lock of both tuples; find its bit
        // via tuple 1's lockset.
        let bit = (0..index.lock_bits() as u32)
            .find(|&b| index.lockset[1].contains(b))
            .unwrap();
        assert_eq!(index.candidates(bit, AcquireMode::Exclusive), &[0, 1]);
        assert_eq!(index.candidates(bit, AcquireMode::Shared), &[1]);
        assert!(index.lockset[0].contains(bit));
        assert!(!index.lockset_excl[0].contains(bit));
        assert!(index.lockset_excl[1].contains(bit));
        // Closing checks follow the same rule.
        assert!(index.closes_against(0, bit, AcquireMode::Exclusive));
        assert!(!index.closes_against(0, bit, AcquireMode::Shared));
        assert!(index.closes_against(1, bit, AcquireMode::Shared));
    }

    #[test]
    fn projection_ids_identify_the_dedup_view() {
        // Same (thread, lock, contexts), different locksets → same
        // projection id; different contexts → different id.
        let a = dep(1, &[1], 9);
        let b = LockDep {
            lockset: vec![ObjId::new(100 + 2)],
            ..a.clone()
        };
        let mut c = dep(1, &[1], 9);
        c.contexts = vec![Label::new("other:0"), Label::new("other:1")];
        let index = JoinIndex::build(&[a, b, c]);
        assert_eq!(index.proj[0], index.proj[1]);
        assert_ne!(index.proj[0], index.proj[2]);
    }
}
