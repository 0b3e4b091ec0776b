//! Ablation benches for the design choices DESIGN.md calls out:
//! exact reuse timers vs RFC 2439 reuse lists, exact `exp()` decay vs
//! table lookup, the per-key-`Damper` map vs the
//! SoA `DamperStore` on a full-damping pulse workload, plain vs RCN vs
//! selective penalty filters, and topology generation costs.

use std::collections::HashMap;

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use rfd_bgp::{NetworkConfig, PenaltyFilter};
use rfd_core::{Damper, DamperStore, DampingParams, DecayTable, ReuseCheck, ReuseList, UpdateKind};
use rfd_experiments::{run_workload, TopologyKind};
use rfd_sim::{SimDuration, SimTime};
use rfd_topology::{internet_like, mesh_torus, Relationships};

const SMALL_MESH: TopologyKind = TopologyKind::Mesh {
    width: 5,
    height: 5,
};

/// Exact timers: walk each suppressed damper's reuse deadline directly.
fn exact_timer_walk(dampers: &mut [Damper]) -> usize {
    let mut released = 0;
    for d in dampers.iter_mut() {
        if !d.is_suppressed() {
            continue;
        }
        let mut due = d.reuse_at(SimTime::from_secs(600)).expect("suppressed");
        loop {
            match d.on_reuse_due(due) {
                ReuseCheck::Released => {
                    released += 1;
                    break;
                }
                ReuseCheck::StillSuppressed { retry_at } => due = retry_at,
            }
        }
    }
    released
}

/// Reuse lists: quantised ticks draining buckets.
fn reuse_list_walk(dampers: &mut [Damper], granularity: SimDuration) -> usize {
    let mut list: ReuseList<usize> = ReuseList::new(granularity);
    for (i, d) in dampers.iter().enumerate() {
        if d.is_suppressed() {
            list.schedule(i, d.reuse_at(SimTime::from_secs(600)).expect("suppressed"));
        }
    }
    let mut released = 0;
    let mut now = SimTime::from_secs(600);
    while !list.is_empty() {
        now += granularity;
        for i in list.drain_due(now) {
            match dampers[i].on_reuse_due(now) {
                ReuseCheck::Released => released += 1,
                ReuseCheck::StillSuppressed { retry_at } => list.schedule(i, retry_at),
            }
        }
    }
    released
}

fn suppressed_population(n: usize) -> Vec<Damper> {
    let params = DampingParams::cisco();
    (0..n)
        .map(|i| {
            let mut d = Damper::new(params);
            // Stagger suppression levels.
            d.charge_raw(
                SimTime::from_secs(i as u64 % 300),
                2200.0 + (i as f64 % 7.0) * 400.0,
            );
            d
        })
        .collect()
}

fn bench_reuse_mechanisms(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation/reuse_mechanism");
    for n in [100usize, 1000] {
        group.bench_with_input(BenchmarkId::new("exact_timers", n), &n, |b, &n| {
            b.iter(|| {
                let mut d = suppressed_population(n);
                black_box(exact_timer_walk(&mut d))
            });
        });
        group.bench_with_input(BenchmarkId::new("reuse_list_15s", n), &n, |b, &n| {
            b.iter(|| {
                let mut d = suppressed_population(n);
                black_box(reuse_list_walk(&mut d, SimDuration::from_secs(15)))
            });
        });
    }
    group.finish();
}

/// Decay-computation ablation (ISSUE-8 satellite): one decayed value
/// per call, over a cycling mix of intervals from seconds to hours, so
/// branch predictors can't memorise a single `dt`.
fn bench_decay_compute(c: &mut Criterion) {
    let params = DampingParams::cisco();
    let tick = SimDuration::from_secs(1);
    let table = DecayTable::new(&params, tick, 4096);
    // 64 irregular intervals, 1 s .. ~9.4 h (some beyond the table,
    // forcing the powi chunk path).
    let dts: Vec<SimDuration> = (0..64u64)
        .map(|i| SimDuration::from_secs(1 + i * i * 8 + i * 13))
        .collect();
    let ticks: Vec<u64> = dts.iter().map(|dt| table.ticks_for(*dt)).collect();

    let mut group = c.benchmark_group("ablation/decay_compute");
    group.bench_function("exact_exp", |b| {
        let mut i = 0;
        b.iter(|| {
            i = (i + 1) % dts.len();
            black_box(params.decay_factor(dts[i]))
        });
    });
    group.bench_function("table_lookup", |b| {
        let mut i = 0;
        b.iter(|| {
            i = (i + 1) % ticks.len();
            black_box(table.factor_at_ticks(ticks[i]))
        });
    });
    group.bench_function("table_fixed_point_milli", |b| {
        let mut i = 0;
        b.iter(|| {
            i = (i + 1) % ticks.len();
            black_box(table.decay_milli(1_000_000, ticks[i]))
        });
    });
    group.finish();
}

/// The full-damping pulse workload at the damper layer (ISSUE-8
/// headline): every key takes `PULSES` withdrawal/re-announcement
/// pulses with staggered offsets, and after every pulse round the
/// whole population is decay-scanned (the reuse/eviction boundary work
/// a damping router or the firehose performs), ending with a
/// forgettable sweep. Three state layouts: the pre-refactor HashMap of
/// per-key [`Damper`]s, the SoA [`DamperStore`] in exact mode (layout
/// win only), and the store in bucketed mode (layout + fixed-point
/// table decay — the intended fast path).
fn bench_damper_hot_path(c: &mut Criterion) {
    const KEYS: u64 = 65_536;
    const PULSES: u64 = 8;
    let params = DampingParams::cisco();

    fn hashmap_pulses(params: DampingParams) -> usize {
        let mut map: HashMap<u64, Damper> = HashMap::with_capacity(KEYS as usize);
        for k in 0..KEYS {
            map.insert(k, Damper::new(params));
        }
        let mut live = 0usize;
        for pulse in 0..PULSES {
            for k in 0..KEYS {
                let base = SimTime::from_secs(pulse * 120 + k % 60);
                let d = map.get_mut(&k).expect("inserted");
                d.record_update(base, UpdateKind::Withdrawal);
                d.record_update(
                    base + SimDuration::from_secs(30),
                    UpdateKind::ReAnnouncement,
                );
            }
            // Boundary scan: every entry's decayed penalty is checked
            // against the forgive threshold, as the eviction sweep does.
            let scan_at = SimTime::from_secs(pulse * 120 + 90);
            live += map.values().filter(|d| !d.is_forgettable(scan_at)).count();
        }
        let sweep_at = SimTime::from_secs(PULSES * 120 + 3600);
        map.retain(|_, d| !d.is_forgettable(sweep_at));
        live + map.len()
    }

    fn store_pulses(mut store: DamperStore) -> usize {
        let slots: Vec<u32> = (0..KEYS).map(|k| store.insert(k)).collect();
        let mut live = 0usize;
        for pulse in 0..PULSES {
            for (i, &slot) in slots.iter().enumerate() {
                let base = SimTime::from_secs(pulse * 120 + i as u64 % 60);
                store.record_update(slot, base, UpdateKind::Withdrawal);
                store.record_update(
                    slot,
                    base + SimDuration::from_secs(30),
                    UpdateKind::ReAnnouncement,
                );
            }
            let scan_at = SimTime::from_secs(pulse * 120 + 90);
            live += slots
                .iter()
                .filter(|&&slot| !store.is_forgettable(slot, scan_at))
                .count();
        }
        let sweep_at = SimTime::from_secs(PULSES * 120 + 3600);
        store.sweep_forgettable(sweep_at, |_, _| {});
        live + store.len()
    }

    let mut group = c.benchmark_group("ablation/damper_hot_path");
    group.sample_size(10);
    group.bench_function("per_key_damper_map", |b| {
        b.iter(|| black_box(hashmap_pulses(params)));
    });
    group.bench_function("soa_store_exact", |b| {
        b.iter(|| black_box(store_pulses(DamperStore::exact(params))));
    });
    group.bench_function("soa_store_bucketed", |b| {
        b.iter(|| black_box(store_pulses(DamperStore::bucketed_default(params))));
    });
    group.finish();
}

fn bench_filters_end_to_end(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation/penalty_filter");
    group.sample_size(10);
    for filter in [
        PenaltyFilter::Plain,
        PenaltyFilter::Rcn,
        PenaltyFilter::Selective,
    ] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{filter:?}")),
            &filter,
            |b, &filter| {
                b.iter(|| {
                    let config = NetworkConfig {
                        filter,
                        ..NetworkConfig::paper_full_damping(1)
                    };
                    let (report, _) = run_workload(SMALL_MESH, config, 2);
                    black_box(report.message_count)
                });
            },
        );
    }
    group.finish();
}

fn bench_vendor_params(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation/vendor_params");
    group.sample_size(10);
    for (label, params) in [
        ("cisco", DampingParams::cisco()),
        ("juniper", DampingParams::juniper()),
        ("ripe229", DampingParams::ripe229_aggressive()),
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(label), &params, |b, params| {
            b.iter(|| {
                let mut d = Damper::new(*params);
                for pulse in 0..6u64 {
                    d.record_update(SimTime::from_secs(pulse * 120), UpdateKind::Withdrawal);
                    d.record_update(
                        SimTime::from_secs(pulse * 120 + 60),
                        UpdateKind::ReAnnouncement,
                    );
                }
                black_box(d.time_until_reusable(SimTime::from_secs(700)))
            });
        });
    }
    group.finish();
}

fn bench_topologies(c: &mut Criterion) {
    c.bench_function("topology/mesh_10x10", |b| {
        b.iter(|| black_box(mesh_torus(10, 10).link_count()))
    });
    c.bench_function("topology/internet_208", |b| {
        b.iter(|| black_box(internet_like(208, 2, 1).link_count()))
    });
    c.bench_function("topology/relationships_208", |b| {
        let g = internet_like(208, 2, 1);
        b.iter(|| black_box(Relationships::infer_by_degree(&g, 0.25).customer_provider_count()))
    });
}

fn bench_multi_prefix(c: &mut Criterion) {
    use rfd_bgp::Network;
    use rfd_core::FlapSchedule;
    use rfd_topology::NodeId;
    let mut group = c.benchmark_group("ablation/origins");
    group.sample_size(10);
    for origins in [1usize, 2, 4] {
        group.bench_with_input(
            BenchmarkId::from_parameter(origins),
            &origins,
            |b, &origins| {
                let graph = mesh_torus(5, 5);
                let isps: Vec<NodeId> = (0..origins).map(|i| NodeId::new((i * 7) as u32)).collect();
                let schedule = FlapSchedule::from(rfd_core::FlapPattern::paper_default(2));
                b.iter(|| {
                    let mut net =
                        Network::new_multi(&graph, &isps, NetworkConfig::paper_full_damping(1));
                    net.warm_up();
                    let pairs: Vec<(usize, &FlapSchedule)> =
                        (0..origins).map(|i| (i, &schedule)).collect();
                    let report = net.run_schedules(&pairs, SimDuration::from_secs(100));
                    black_box(report.message_count)
                });
            },
        );
    }
    group.finish();
}

fn bench_session_flaps(c: &mut Criterion) {
    use rfd_bgp::Network;
    use rfd_core::{FlapPattern, FlapSchedule};
    use rfd_topology::NodeId;
    let mut group = c.benchmark_group("ablation/failure_injection");
    group.sample_size(10);
    group.bench_function("interior_link_4pulses", |b| {
        let graph = mesh_torus(5, 5);
        let schedule = FlapSchedule::from(FlapPattern::paper_default(4));
        b.iter(|| {
            let mut net =
                Network::new(&graph, NodeId::new(0), NetworkConfig::paper_full_damping(1));
            net.warm_up();
            let report = net.run_link_schedule(
                NodeId::new(0),
                NodeId::new(1),
                &schedule,
                SimDuration::from_secs(50),
            );
            black_box(report.message_count)
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_reuse_mechanisms,
    bench_decay_compute,
    bench_damper_hot_path,
    bench_filters_end_to_end,
    bench_vendor_params,
    bench_topologies,
    bench_multi_prefix,
    bench_session_flaps
);
criterion_main!(benches);
