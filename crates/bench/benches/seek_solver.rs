//! Micro-benchmarks of the closed-form kinematics. SPTF's per-decision
//! queries read the precomputed seek surface, so the bang-bang solver runs
//! at set-up (6.25 M solves to build the paper device's surface) and for
//! the queries the surface does not answer: off-grid states and devices
//! built without one.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use mems_bench::surfaced_mems_device;
use mems_device::{MemsDevice, MemsParams, SledState, SpringSled};
use std::hint::black_box;
use storage_sim::{IoKind, PositionOracle, Request, SimTime, StorageDevice};

fn bench_kinematics(c: &mut Criterion) {
    let sled = SpringSled::from_spring_factor(803.6, 0.75, 50e-6);
    c.bench_function("rest_seek_time", |b| {
        let mut x = 0u64;
        b.iter(|| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let p0 = ((x >> 16) % 1000) as f64 * 1e-7 - 50e-6;
            let p1 = ((x >> 40) % 1000) as f64 * 1e-7 - 50e-6;
            black_box(sled.rest_seek_time(black_box(p0), black_box(p1)))
        })
    });
    c.bench_function("turnaround_time", |b| {
        let mut x = 1u64;
        b.iter(|| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let p = ((x >> 16) % 1000) as f64 * 1e-7 - 50e-6;
            black_box(sled.turnaround_time(black_box(p), 0.028))
        })
    });
    c.bench_function("moving_state_seek", |b| {
        let mut x = 2u64;
        b.iter(|| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let p0 = ((x >> 16) % 1000) as f64 * 1e-7 - 50e-6;
            let p1 = ((x >> 40) % 1000) as f64 * 1e-7 - 50e-6;
            black_box(sled.seek_time(p0, 0.028, p1, -0.028))
        })
    });
}

fn bench_device_service(c: &mut Criterion) {
    let dev = MemsDevice::new(MemsParams::default());
    c.bench_function("position_time_4kb", |b| {
        let mut x = 3u64;
        b.iter(|| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let lbn = x % (dev.capacity_lbns() - 8);
            let req = Request::new(0, SimTime::ZERO, lbn, 8, IoKind::Read);
            black_box(dev.positioning_only(SledState::CENTERED, &req))
        })
    });
    c.bench_function("service_4kb", |b| {
        let mut x = 4u64;
        b.iter_batched(
            || {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                Request::new(
                    0,
                    SimTime::ZERO,
                    x % (dev.capacity_lbns() - 8),
                    8,
                    IoKind::Read,
                )
            },
            |req| black_box(dev.service_from(SledState::CENTERED, &req)),
            BatchSize::SmallInput,
        )
    });
    c.bench_function("service_256kb", |b| {
        let req = Request::new(0, SimTime::ZERO, 1_000_000, 512, IoKind::Read);
        b.iter(|| black_box(dev.service_from(SledState::CENTERED, &req)))
    });
}

fn bench_seek_table(c: &mut Criterion) {
    // Park each device on-grid (sled exactly on a cylinder center / row
    // boundary, the post-service steady state) so the memoized device can
    // actually hit its table; the direct device always re-solves.
    let park = |table: bool| {
        let mut d = MemsDevice::new(MemsParams::default()).with_seek_table(table);
        let r = Request::new(0, SimTime::ZERO, 1_000_000, 8, IoKind::Read);
        let _ = d.service(&r, SimTime::ZERO);
        d
    };
    let direct = park(false);
    let memo = park(true);
    // The shared immutable surface: every on-grid query is a bounds-checked
    // array read, no memoization or solving at query time.
    let surface = {
        let mut d = surfaced_mems_device(&MemsParams::default());
        let r = Request::new(0, SimTime::ZERO, 1_000_000, 8, IoKind::Read);
        let _ = d.service(&r, SimTime::ZERO);
        d
    };
    for (name, dev) in [
        ("position_time_direct_solve", &direct),
        ("position_time_seek_table", &memo),
        ("position_time_seek_surface", &surface),
    ] {
        c.bench_function(name, |b| {
            let mut x = 5u64;
            b.iter(|| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                let lbn = x % (dev.capacity_lbns() - 8);
                let req = Request::new(0, SimTime::ZERO, lbn, 8, IoKind::Read);
                black_box(dev.position_time(&req, SimTime::ZERO))
            })
        });
    }
}

criterion_group!(
    benches,
    bench_kinematics,
    bench_device_service,
    bench_seek_table
);
criterion_main!(benches);
