//! Wrapper fidelity: a cell run with its workload, schedulers and devices
//! wrapped in `Timed` must be the same program as the unwrapped cell. A
//! trait method the wrapper failed to forward would fall back to the
//! trait default (`rest_key → None` disables the SPTF pick cache, bucket
//! 0 disables pruning) and change the scheduler's work counters even
//! where the picks, and so the digest, happen to survive.

use std::sync::{Arc, OnceLock};

use mems_device::{MemsParams, SeekSurface};
use perfbench::layers::{take_ledger, Timed};
use perfbench::workloads::{build_surface, device, run_cell, Mode, Spec, WORKLOADS};
use storage_sim::{
    FaultKind, IoKind, PositionOracle, Request, RingTracer, SimTime, StorageDevice, TraceCounters,
};

/// Requests in the checked prefix of each workload.
const PREFIX: u64 = 20_000;

fn surface() -> &'static Arc<SeekSurface> {
    static SURFACE: OnceLock<Arc<SeekSurface>> = OnceLock::new();
    SURFACE.get_or_init(build_surface)
}

fn traced_prefix(spec: &Spec, mode: Mode) -> (u64, Vec<TraceCounters>) {
    let (outcome, tracers) = run_cell(spec, surface(), PREFIX, 7, mode, || RingTracer::new(16));
    (
        outcome.digest,
        tracers.iter().map(RingTracer::counters).collect(),
    )
}

#[test]
fn wrapped_cells_match_unwrapped_under_ring_tracer() {
    for name in WORKLOADS {
        let spec = Spec::named(name).expect("listed workload");
        let plain = traced_prefix(&spec, Mode::Plain);
        let wrapped = traced_prefix(&spec, Mode::Timed);
        let ledger = take_ledger();
        assert_eq!(plain.0, wrapped.0, "{name}: digest");
        assert_eq!(plain.1, wrapped.1, "{name}: trace counters");
        let picks: u64 = plain.1.iter().map(|c| c.picks).sum();
        assert!(picks >= PREFIX, "{name}: {picks} picks");
        assert_eq!(ledger.useful_picks, picks, "{name}: ledger picks");
    }
}

#[test]
fn device_wrapper_forwards_every_oracle_and_device_method() {
    let params = MemsParams::default();
    let mut plain = device(&params, surface());
    let mut wrapped = Timed(device(&params, surface()));
    let now = SimTime::from_ms(1.0);
    for (i, lbn) in [1_000_000u64, 17, 4_200_000].into_iter().enumerate() {
        let req = Request::new(i as u64, SimTime::ZERO, lbn, 8, IoKind::Write);
        let b = plain.service(&req, now);
        assert_eq!(b, wrapped.service(&req, now));
        assert_eq!(plain.phase_energy(&b), wrapped.phase_energy(&b));
        assert_eq!(plain.position_bucket(&req), wrapped.position_bucket(&req));
        assert_eq!(plain.current_bucket(), wrapped.current_bucket());
        assert_eq!(plain.rest_key(now), wrapped.rest_key(now));
        assert!(
            plain.rest_key(now).is_some(),
            "surfaced MEMS device keys its rest state"
        );
        for d in [0, 1, 5, 40] {
            assert_eq!(
                plain.min_position_time_at_bucket_distance(d).to_bits(),
                wrapped.min_position_time_at_bucket_distance(d).to_bits()
            );
            assert_eq!(
                plain.bucket_position_time_floor(d).to_bits(),
                wrapped.bucket_position_time_floor(d).to_bits()
            );
        }
    }
    assert_eq!(plain.capacity_lbns(), wrapped.capacity_lbns());
    assert_eq!(StorageDevice::name(&plain), StorageDevice::name(&wrapped));
    let fault = FaultKind::TipFailure { tip: 3 };
    plain.on_fault(&fault, now);
    wrapped.on_fault(&fault, now);
    plain.reset();
    wrapped.reset();
    assert_eq!(plain.rest_key(now), wrapped.rest_key(now));
    take_ledger();
}
