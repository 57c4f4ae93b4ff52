//! Microbenchmarks of the iGoodlock algorithm itself: the iterative
//! relational join on synthetic lock dependency relations of increasing
//! size. The paper's complexity claim: iGoodlock trades memory for
//! runtime compared with DFS-based Goodlock — the join should scale
//! smoothly with relation size.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use df_bench::synthetic_join_relation;
use df_igoodlock::oracle::naive_igoodlock;
use df_igoodlock::{goodlock_dfs, igoodlock, IGoodlockOptions};

fn bench_phase1(c: &mut Criterion) {
    let mut group = c.benchmark_group("igoodlock_join");
    for size in [8u32, 32, 128] {
        let relation = synthetic_join_relation(size / 2, size * 4);
        group.bench_with_input(BenchmarkId::new("cycles", size), &relation, |b, rel| {
            b.iter(|| igoodlock(rel, &IGoodlockOptions::default()));
        });
        group.bench_with_input(
            BenchmarkId::new("naive_oracle", size),
            &relation,
            |b, rel| {
                b.iter(|| naive_igoodlock(rel, &IGoodlockOptions::default()));
            },
        );
        group.bench_with_input(
            BenchmarkId::new("length2_only", size),
            &relation,
            |b, rel| {
                b.iter(|| igoodlock(rel, &IGoodlockOptions::length_two_only()));
            },
        );
        // The paper's contribution 1: the iterative join vs the classical
        // lock-graph DFS ("uses more memory, but reduces runtime
        // complexity").
        group.bench_with_input(
            BenchmarkId::new("goodlock_dfs_baseline", size),
            &relation,
            |b, rel| {
                b.iter(|| goodlock_dfs(rel, &IGoodlockOptions::default()));
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_phase1);
criterion_main!(benches);
