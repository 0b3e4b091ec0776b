//! Microbenchmarks of the simulation kernel: event-queue operations and
//! a shard engine's pop/schedule loop.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use rfd_sim::{event_key, DetRng, ShardEngine, SimDuration, SimTime, TimerWheel};

fn bench_wheel(c: &mut Criterion) {
    let mut group = c.benchmark_group("wheel/schedule_pop");
    for n in [100usize, 1_000, 10_000] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let mut rng = DetRng::from_seed(7);
            let times: Vec<SimTime> = (0..n)
                .map(|_| SimTime::from_micros(rng.next_u64() % 1_000_000))
                .collect();
            b.iter(|| {
                let mut w = TimerWheel::new();
                for (i, &t) in times.iter().enumerate() {
                    w.schedule_keyed(t, i as u64, i);
                }
                let mut total = 0usize;
                while let Some((_, _, e)) = w.pop_keyed() {
                    total += e;
                }
                black_box(total)
            });
        });
    }
    group.finish();
}

/// Fans out: each event schedules two children until a global budget is
/// exhausted — a stress pattern similar to update propagation bursts.
fn fanout(budget: u64) -> u64 {
    let mut engine = ShardEngine::new();
    let mut seq = 0;
    engine.schedule(SimTime::ZERO, event_key(0, seq), 40u32);
    let mut remaining = budget;
    while let Some((now, _, depth)) = engine.pop_before(SimTime::MAX) {
        if remaining == 0 {
            continue;
        }
        remaining -= 1;
        if depth > 0 {
            for delay in [3, 5] {
                seq += 1;
                let at = now + SimDuration::from_micros(delay);
                engine.schedule(at, event_key(0, seq), depth - 1);
            }
        }
    }
    engine.processed()
}

fn bench_engine(c: &mut Criterion) {
    c.bench_function("engine/fanout_100k_events", |b| {
        b.iter(|| black_box(fanout(100_000)));
    });
}

fn bench_rng(c: &mut Criterion) {
    c.bench_function("rng/duration_between", |b| {
        let mut rng = DetRng::from_seed(3);
        let lo = SimDuration::from_millis(10);
        let hi = SimDuration::from_millis(500);
        b.iter(|| black_box(rng.duration_between(lo, hi)));
    });
    c.bench_function("rng/derive", |b| {
        let rng = DetRng::from_seed(3);
        b.iter(|| black_box(rng.derive("child")));
    });
}

criterion_group!(benches, bench_wheel, bench_engine, bench_rng);
criterion_main!(benches);
