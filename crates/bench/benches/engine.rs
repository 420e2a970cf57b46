//! Kernel benches: the event engine, the RNG and graph generation. The
//! full study is timed end to end by `likelab-benchmark`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use likelab_graph::{generate, FriendGraph, UserId};
use likelab_sim::{Engine, Rng, SimDuration, SimTime};
use std::hint::black_box;

fn bench_kernel(c: &mut Criterion) {
    c.bench_function("engine/rng_next_u64", |b| {
        let mut rng = Rng::seed_from_u64(1);
        b.iter(|| black_box(rng.next_u64()))
    });

    c.bench_function("engine/event_queue_10k", |b| {
        b.iter(|| {
            let mut engine: Engine<u32> = Engine::new();
            let mut rng = Rng::seed_from_u64(2);
            for i in 0..10_000u32 {
                engine.schedule(SimTime::from_secs(rng.below(1_000_000)), i);
            }
            let mut sum = 0u64;
            engine.run_to_completion(|_, _, v| sum += u64::from(v));
            black_box(sum)
        })
    });

    c.bench_function("engine/self_rescheduling_poll", |b| {
        b.iter(|| {
            let mut engine: Engine<()> = Engine::new();
            engine.schedule(SimTime::EPOCH, ());
            let mut polls = 0u32;
            engine.run_until(SimTime::at_day(365), |eng, now, ()| {
                polls += 1;
                eng.schedule(now + SimDuration::hours(2), ());
            });
            black_box(polls)
        })
    });

    let mut group = c.benchmark_group("engine/chung_lu");
    for n in [1_000usize, 5_000] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let members: Vec<UserId> = (0..n as u32).map(UserId).collect();
            let targets = vec![30.0; n];
            b.iter(|| {
                let mut g = FriendGraph::with_nodes(n);
                let mut rng = Rng::seed_from_u64(3);
                generate::chung_lu(&mut g, &members, &targets, &mut rng);
                black_box(g.edge_count())
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_kernel);
criterion_main!(benches);
