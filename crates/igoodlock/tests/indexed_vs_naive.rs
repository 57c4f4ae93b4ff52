//! The indexed iGoodlock join against its brute-force oracle: on
//! randomized relations and under every truncation option, the two must
//! produce **byte-identical** cycle reports (same cycles, same component
//! order, same serialization) and an identical join shape
//! (`chains_built`, `chains_per_iteration`, `truncated`). The indexed
//! join over the relation's cyclic core must report the same cycles as
//! the oracle over the whole relation.

use df_events::{AcquireMode, Label, ObjId, ThreadId};
use df_igoodlock::oracle::naive_igoodlock_with_stats;
use df_igoodlock::{igoodlock_with_stats, IGoodlockOptions, LockDep, LockDependencyRelation};
use proptest::prelude::*;

/// Random relations with enough thread/lock collisions to exercise every
/// Definition 2 predicate, plus repeated tuples to exercise relation
/// dedup and lockset-only differences to exercise cycle dedup. Shared
/// acquisitions and holds are mixed in so the mode-aware bucket split
/// and disjointness probes face the oracle too.
fn arb_relation() -> impl Strategy<Value = LockDependencyRelation> {
    prop::collection::vec(
        (
            1..6u32,                                         // thread
            prop::collection::vec((0..7u32, 0..2u32), 1..4), // held + shared?
            0..7u32,                                         // lock
            0..3u32,                                         // context variant
            0..2u32,                                         // shared acquire?
        ),
        0..18,
    )
    .prop_map(|tuples| {
        let mode_of = |shared: u32| {
            if shared == 1 {
                AcquireMode::Shared
            } else {
                AcquireMode::Exclusive
            }
        };
        let deps = tuples
            .into_iter()
            .filter(|(_, held, lock, _, _)| held.iter().all(|&(h, _)| h != *lock))
            .map(|(t, mut held, lock, ctx, shared)| {
                held.sort_by_key(|&(h, _)| h);
                held.dedup_by_key(|&mut (h, _)| h);
                let mut dep = LockDep::exclusive(
                    ThreadId::new(t),
                    ObjId::new(t),
                    held.iter().map(|&(h, _)| ObjId::new(100 + h)).collect(),
                    ObjId::new(100 + lock),
                    (0..=held.len())
                        .map(|i| Label::new(&format!("ivn:{ctx}:{i}")))
                        .collect(),
                );
                dep.mode = mode_of(shared);
                dep.hold_modes = held.iter().map(|&(_, s)| mode_of(s)).collect();
                dep
            })
            .collect();
        LockDependencyRelation::from_deps(deps)
    })
}

fn option_matrix() -> Vec<IGoodlockOptions> {
    vec![
        IGoodlockOptions::default(),
        IGoodlockOptions::length_two_only(),
        IGoodlockOptions {
            max_cycle_length: Some(3),
            ..IGoodlockOptions::default()
        },
        IGoodlockOptions {
            max_cycles: 2,
            ..IGoodlockOptions::default()
        },
        IGoodlockOptions {
            max_open_chains: 3,
            ..IGoodlockOptions::default()
        },
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Byte-identical reports and identical join shape under every
    /// bounding option, including the ones that truncate mid-join.
    #[test]
    fn indexed_is_byte_identical_to_naive(rel in arb_relation()) {
        for options in option_matrix() {
            let (ic, is) = igoodlock_with_stats(&rel, &options);
            let (nc, ns) = naive_igoodlock_with_stats(&rel, &options);
            let ij = serde_json::to_string(&ic).expect("serialize");
            let nj = serde_json::to_string(&nc).expect("serialize");
            prop_assert_eq!(ij, nj);
            prop_assert_eq!(is.chains_built, ns.chains_built);
            prop_assert_eq!(is.iterations, ns.iterations);
            prop_assert_eq!(&is.chains_per_iteration, &ns.chains_per_iteration);
            prop_assert_eq!(is.truncated, ns.truncated);
            prop_assert_eq!(is.peak_open_chains, ns.peak_open_chains);
            prop_assert_eq!(is.pruned_by_hb, ns.pruned_by_hb);
        }
    }

    /// The index never examines more candidates than the brute-force
    /// scan (the whole point of bucketing by held lock).
    #[test]
    fn index_never_examines_more_candidates(rel in arb_relation()) {
        let (_, is) = igoodlock_with_stats(&rel, &IGoodlockOptions::default());
        let (_, ns) = naive_igoodlock_with_stats(&rel, &IGoodlockOptions::default());
        prop_assert!(is.join_candidates_examined <= ns.join_candidates_examined);
    }

    /// The cyclic-core prefilter drops only tuples no cycle can use: the
    /// indexed join over `cyclic_core(D)` reports byte-identical cycles
    /// to the naive join over all of `D`, in no more chains, whenever
    /// the naive join was not cut short by `max_open_chains`. A cut
    /// naive join reports a prefix of what the core join reports, which
    /// in turn is a prefix of what an unbounded naive join reports: the
    /// core's levels hold a subset of the naive join's open chains, so
    /// it hits the bound no sooner. `truncated` is compared one way
    /// only: under `max_cycle_length` the naive join also flags chains
    /// left open that could never close, which the core no longer has.
    #[test]
    fn core_join_is_byte_identical_to_naive_over_full(rel in arb_relation()) {
        let core = rel.cyclic_core();
        prop_assert!(core.len() <= rel.len());
        let json = |cycles: &[df_igoodlock::Cycle]| serde_json::to_string(cycles).expect("serialize");
        for options in option_matrix() {
            let unbounded = IGoodlockOptions {
                max_open_chains: usize::MAX,
                ..options.clone()
            };
            let (nc, ns) = naive_igoodlock_with_stats(&rel, &options);
            let (uc, us) = naive_igoodlock_with_stats(&rel, &unbounded);
            let (cc, cs) = igoodlock_with_stats(&core, &options);
            prop_assert!(cs.chains_built <= us.chains_built);
            if json(&nc) == json(&uc) && ns == us {
                prop_assert_eq!(json(&cc), json(&nc));
                prop_assert!(cs.chains_built <= ns.chains_built);
                prop_assert!(ns.truncated || !cs.truncated);
            } else {
                prop_assert!(nc.len() <= cc.len() && cc.len() <= uc.len());
                prop_assert_eq!(json(&cc[..nc.len()]), json(&nc));
                prop_assert_eq!(json(&uc[..cc.len()]), json(&cc));
            }
        }
    }
}
