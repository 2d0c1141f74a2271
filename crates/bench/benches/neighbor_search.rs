//! Criterion benchmarks for the neighbor-search backends on RRT*-shaped
//! point clouds (Fig 19 right, wall-clock view): SI-MBR-Tree (both
//! insertion modes) vs KD-tree vs linear scan.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use moped_geometry::{Config, OpCount};
use moped_kdtree::KdTree;
use moped_simbr::{SearchStats, SiMbrTree};
use std::hint::black_box;

/// Deterministic RRT*-like point stream: each point steps a short
/// distance from a pseudo-randomly chosen previous point.
fn tree_points(n: usize, dim: usize) -> Vec<Config> {
    let mut pts = vec![Config::zeros(dim)];
    let mut state = 0x243F6A8885A308D3u64;
    let mut rnd = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for _ in 1..n {
        let anchor = pts[(rnd() % pts.len() as u64) as usize];
        let mut c = anchor;
        for i in 0..dim {
            let delta = ((rnd() % 2000) as f64 / 1000.0 - 1.0) * 2.0;
            c.as_mut_slice()[i] = (c[i] + delta).clamp(-100.0, 100.0);
        }
        pts.push(c);
    }
    pts
}

fn bench_insert(c: &mut Criterion) {
    let pts = tree_points(2000, 6);
    let mut g = c.benchmark_group("insert_2000x6d");
    g.bench_function("simbr_conventional", |b| {
        b.iter(|| {
            let mut ops = OpCount::default();
            let mut t = SiMbrTree::new(6, 6);
            for (i, p) in pts.iter().enumerate() {
                t.insert_conventional(i as u64, *p, &mut ops);
            }
            black_box(t.len())
        })
    });
    g.bench_function("simbr_lci", |b| {
        b.iter(|| {
            let mut ops = OpCount::default();
            let mut t = SiMbrTree::new(6, 6);
            t.insert_conventional(0, pts[0], &mut ops);
            for (i, p) in pts.iter().enumerate().skip(1) {
                let (near, _) = t.nearest(p, &mut ops).unwrap();
                t.insert_near(i as u64, *p, near, &mut ops);
            }
            black_box(t.len())
        })
    });
    g.bench_function("kdtree", |b| {
        b.iter(|| {
            let mut ops = OpCount::default();
            let mut t = KdTree::new(6);
            for (i, p) in pts.iter().enumerate() {
                t.insert(i as u64, *p, &mut ops);
            }
            black_box(t.len())
        })
    });
    g.finish();
}

fn bench_nearest(c: &mut Criterion) {
    let mut g = c.benchmark_group("nearest");
    for &(n, dim) in &[(1000usize, 3usize), (5000, 3), (5000, 7)] {
        let pts = tree_points(n, dim);
        let mut ops = OpCount::default();
        let mut simbr = SiMbrTree::new(dim, 6);
        let mut kd = KdTree::new(dim);
        for (i, p) in pts.iter().enumerate() {
            simbr.insert_conventional(i as u64, *p, &mut ops);
            kd.insert(i as u64, *p, &mut ops);
        }
        let q = Config::new(&vec![13.7; dim]);
        g.bench_with_input(
            BenchmarkId::new("simbr", format!("{n}x{dim}d")),
            &q,
            |b, q| {
                b.iter(|| {
                    let mut ops = OpCount::default();
                    black_box(simbr.nearest(black_box(q), &mut ops))
                })
            },
        );
        g.bench_with_input(
            BenchmarkId::new("kdtree", format!("{n}x{dim}d")),
            &q,
            |b, q| {
                b.iter(|| {
                    let mut ops = OpCount::default();
                    black_box(kd.nearest(black_box(q), &mut ops))
                })
            },
        );
        g.bench_with_input(
            BenchmarkId::new("linear", format!("{n}x{dim}d")),
            &q,
            |b, q| {
                b.iter(|| {
                    let mut ops = OpCount::default();
                    black_box(simbr.nearest_linear(black_box(q), &mut ops))
                })
            },
        );
    }
    g.finish();
}

/// The depth-first MINDIST branch-and-bound nearest engine on one tree,
/// with its traversal statistics.
fn bench_nearest_engine(c: &mut Criterion) {
    let mut g = c.benchmark_group("nearest_engine");
    for &(n, dim) in &[(5000usize, 3usize), (5000, 6)] {
        let pts = tree_points(n, dim);
        let mut ops = OpCount::default();
        let mut tree = SiMbrTree::new(dim, 6);
        for (i, p) in pts.iter().enumerate() {
            tree.insert_conventional(i as u64, *p, &mut ops);
        }
        let q = Config::new(&vec![13.7; dim]);
        let mut stats = SearchStats::default();
        g.bench_with_input(
            BenchmarkId::new("depth_first", format!("{n}x{dim}d")),
            &q,
            |b, q| {
                b.iter(|| {
                    let mut ops = OpCount::default();
                    black_box(tree.nearest_with_stats(black_box(q), &mut ops, &mut stats))
                })
            },
        );
    }
    g.finish();
}

fn bench_sias(c: &mut Criterion) {
    let pts = tree_points(3000, 5);
    let mut ops = OpCount::default();
    let mut tree = SiMbrTree::new(5, 6);
    for (i, p) in pts.iter().enumerate() {
        tree.insert_conventional(i as u64, *p, &mut ops);
    }
    let q = pts[1500];
    let mut g = c.benchmark_group("neighborhood");
    g.bench_function("exact_near", |b| {
        b.iter(|| {
            let mut ops = OpCount::default();
            black_box(tree.near(black_box(&q), 4.0, &mut ops))
        })
    });
    g.bench_function("sias_leaf_group", |b| {
        b.iter(|| {
            let mut ops = OpCount::default();
            black_box(
                tree.leaf_group(black_box(1500), &mut ops)
                    .collect::<Vec<_>>(),
            )
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_insert,
    bench_nearest,
    bench_nearest_engine,
    bench_sias
);
criterion_main!(benches);
