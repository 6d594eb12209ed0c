//! Observability report: per-phase time and energy breakdown of one
//! Fig. 6-style cell (SPTF on the default MEMS device, random workload),
//! recorded with a [`RingTracer`] and cross-checked against the device's
//! closed-form kinematics.
//!
//! Three invariants are verified and the binary exits non-zero if any
//! fails, so CI can run it as a regression gate:
//!
//! 1. **Phase sums**: for every request, `positioning + transfer +
//!    overhead` equals the reported service time and `queue + service`
//!    equals the reported response time, to ≤ 1e-9 s.
//! 2. **Parallel seeks**: `positioning == max(seek_x + settle, seek_y)` —
//!    the X and Y actuators move concurrently (§2.4.1).
//! 3. **Closed-form replay**: replaying the serviced request sequence on a
//!    fresh device with the seek-time memo table *disabled* (every seek a
//!    direct closed-form solve) reproduces each per-phase breakdown to
//!    ≤ 1e-9 s — the traced numbers are the kinematics, not cache
//!    artifacts.
//!
//! Outputs: an aligned phase table on stdout, `results/obs_phase_breakdown.csv`
//! (committed; CI diffs it against the golden), and the raw event stream as
//! `target/obs_trace.jsonl` plus `target/obs_summary.json` (untracked).
//!
//! The summary also carries a `migration` section from a companion cell:
//! the same device behind the adaptive-placement wrapper on a skewed
//! bursty stream, so migration-side costs (swaps, chunk tails, foreground
//! wait) are visible next to the foreground phase breakdown. The companion
//! runs separately because the main cell must stay a bare [`MemsDevice`] —
//! the closed-form replay gate depends on it.

use std::collections::HashMap;
use std::process::ExitCode;

use mems_bench::{surfaced_mems_device, write_csv, Table};
use mems_device::{MemsDevice, MemsParams};
use mems_os::placement::{AdaptiveDevice, PlacementConfig};
use mems_os::sched::SptfScheduler;
use storage_sim::{
    Driver, IoKind, Request, RingTracer, ServiceBreakdown, SimTime, StorageDevice, TraceEvent,
};
use storage_trace::{RandomWorkload, ZipfWorkload};

const SEED: u64 = 0x5EED_0006;
const RATE: f64 = 1000.0;
/// Agreement tolerance between traced phases and recomputed/closed-form
/// values, seconds (same bound the device's own memo-table test uses).
const TOL: f64 = 1e-9;
/// Companion migration cell: Zipf(0.99) over 512 KB placement blocks in
/// ON/OFF bursts — the regime idle-window migration is built for (same
/// tuning as `placement_sweep`).
const MIGRATION_SEED: u64 = 42;
const MIGRATION_RATE: f64 = 500.0;
const MIGRATION_REQUESTS: u64 = 20_000;
const MIGRATION_BLOCK_SECTORS: u32 = 1024;
const MIGRATION_BURST_LEN: u64 = 50;
const MIGRATION_BURST_IDLE: f64 = 0.060;

fn migration_placement() -> PlacementConfig {
    PlacementConfig {
        block_sectors: MIGRATION_BLOCK_SECTORS,
        half_life: 1.0,
        idle_window: 4e-3,
        max_swaps_per_window: 4,
        hysteresis: 1.5,
        min_rank_gain: 64,
        min_heat: 4.0,
        migrate: true,
    }
}

fn main() -> ExitCode {
    let requests = mems_bench::count_arg(env!("CARGO_BIN_NAME"), "REQUESTS", 2_000);
    let params = MemsParams::default();
    let capacity = params.geometry().total_sectors();

    println!("obs_report: SPTF / MEMS (default), {RATE:.0} req/s, {requests} requests, seed {SEED:#010x}\n");

    // Four lifecycle events per request; size the ring so nothing drops.
    let ring = usize::try_from(requests).expect("request count fits usize") * 4 + 64;
    let mut driver = Driver::new(
        RandomWorkload::paper(capacity, RATE, requests, SEED),
        SptfScheduler::new(),
        MemsDevice::new(params.clone()),
    )
    .record_completions(true)
    .with_tracer(RingTracer::new(ring));
    let report = driver.run();

    let trace = driver.tracer();
    let counters = trace.counters();
    let mut failures = 0u64;
    if counters.dropped_events != 0 {
        eprintln!("FAIL: ring dropped {} events", counters.dropped_events);
        failures += 1;
    }

    // Index the event stream by request id.
    let mut kinds: HashMap<u64, IoKind> = HashMap::new();
    let mut services: HashMap<u64, (f64, u64, u32, ServiceBreakdown)> = HashMap::new();
    let mut service_order: Vec<u64> = Vec::new();
    let mut completes = 0u64;
    for ev in trace.events() {
        match *ev {
            TraceEvent::Arrival { id, read, .. } => {
                kinds.insert(id, if read { IoKind::Read } else { IoKind::Write });
            }
            TraceEvent::Service {
                id,
                t,
                lbn,
                sectors,
                positioning,
                seek_x,
                settle,
                seek_y,
                rotation,
                transfer,
                turnaround,
                turnaround_count,
                overhead,
                fault_recovery,
                ..
            } => {
                let b = ServiceBreakdown {
                    positioning,
                    seek_x,
                    settle,
                    seek_y,
                    rotation,
                    transfer,
                    turnaround,
                    turnaround_count,
                    overhead,
                    fault_recovery,
                    background_wait: 0.0,
                };
                services.insert(id, (t, lbn, sectors, b));
                service_order.push(id);
            }
            TraceEvent::Complete {
                id,
                queue,
                service,
                response,
                ..
            } => {
                completes += 1;
                let Some((_, _, _, b)) = services.get(&id) else {
                    eprintln!("FAIL: completion for request {id} with no service event");
                    failures += 1;
                    continue;
                };
                // (1) Per-request phase sums reproduce the reported times.
                if (b.total() - service).abs() > TOL {
                    eprintln!(
                        "FAIL: req {id}: phase sum {} != service {service}",
                        b.total()
                    );
                    failures += 1;
                }
                if (queue + service - response).abs() > TOL {
                    eprintln!("FAIL: req {id}: queue+service != response {response}");
                    failures += 1;
                }
                // (2) X and Y seeks proceed in parallel.
                let resolved = (b.seek_x + b.settle).max(b.seek_y);
                if (b.positioning - resolved).abs() > 1e-12 {
                    eprintln!(
                        "FAIL: req {id}: positioning {} != max(seek_x+settle, seek_y) {resolved}",
                        b.positioning
                    );
                    failures += 1;
                }
            }
            TraceEvent::Pick { .. } | TraceEvent::Fault { .. } => {}
        }
    }
    if completes != report.completed {
        eprintln!(
            "FAIL: {completes} complete events vs {} reported completions",
            report.completed
        );
        failures += 1;
    }

    // (3) Replay the serviced sequence on a fresh device with the seek-time
    // memo table off: every positioning number must come straight out of
    // the closed-form spring-mass solver.
    let mut oracle = MemsDevice::new(params).with_seek_table(false);
    let mut replay_worst = 0.0f64;
    for &id in &service_order {
        let (t, lbn, sectors, recorded) = services[&id];
        let kind = kinds.get(&id).copied().unwrap_or(IoKind::Read);
        let start = SimTime::from_secs(t);
        let req = Request::new(id, start, lbn, sectors, kind);
        let b = oracle.service(&req, start);
        for (phase, traced, direct) in [
            ("positioning", recorded.positioning, b.positioning),
            ("seek_x", recorded.seek_x, b.seek_x),
            ("settle", recorded.settle, b.settle),
            ("seek_y", recorded.seek_y, b.seek_y),
            ("transfer", recorded.transfer, b.transfer),
            ("turnaround", recorded.turnaround, b.turnaround),
            ("overhead", recorded.overhead, b.overhead),
        ] {
            let err = (traced - direct).abs();
            replay_worst = replay_worst.max(err);
            if err > TOL {
                eprintln!("FAIL: req {id} {phase}: traced {traced} vs closed-form {direct}");
                failures += 1;
            }
        }
    }

    // Phase table: where the mean request's time goes.
    let n = report.completed as f64;
    let p = trace.phase_sum();
    let service_total = p.positioning + p.transfer + p.overhead;
    let mut table = Table::new(vec![
        "phase".to_string(),
        "mean (ms/req)".to_string(),
        "share of service (%)".to_string(),
    ]);
    for (name, sum) in [
        ("seek_x", p.seek_x),
        ("settle", p.settle),
        ("seek_y", p.seek_y),
        ("positioning (resolved)", p.positioning),
        ("transfer", p.transfer),
        ("  of which turnaround", p.turnaround),
        ("overhead", p.overhead),
        ("service total", service_total),
    ] {
        table.row(vec![
            name.to_string(),
            format!("{:.4}", 1e3 * sum / n),
            format!("{:.1}", 100.0 * sum / service_total),
        ]);
    }
    println!("{}", table.render());
    write_csv("obs_phase_breakdown.csv", &table.to_csv());

    let stats = driver.device().seek_table_stats();
    let e = trace.energy_sum();
    println!("mean response      {:8.3} ms", report.response.mean_ms());
    println!("mean service       {:8.3} ms", report.mean_service_ms());
    println!(
        "mean queue         {:8.3} ms",
        1e3 * report.queue_time.mean()
    );
    println!(
        "turnarounds        {:8.2} per request",
        f64::from(p.turnaround_count) / n
    );
    println!(
        "energy             {:8.3} mJ/req  (positioning {:.3}, transfer {:.3}, overhead {:.3})",
        1e3 * e.total() / n,
        1e3 * e.positioning_j / n,
        1e3 * e.transfer_j / n,
        1e3 * e.overhead_j / n
    );
    println!(
        "sched picks        {:8} ({:.1} candidates examined per pick, {:.1} mean depth)",
        counters.picks,
        trace.mean_candidates_per_pick(),
        trace.mean_depth_at_pick()
    );
    println!(
        "seek-table         {:8.1} % hit rate ({} hits / {} misses)",
        100.0 * stats.hit_rate(),
        stats.hits,
        stats.misses
    );
    println!("replay worst err   {replay_worst:8.2e} s vs closed-form kinematics");

    // Companion cell: adaptive placement on a skewed bursty stream. Only
    // its migration ledger feeds the summary; the traced cell above stays
    // untouched.
    let mut adaptive = Driver::new(
        ZipfWorkload::new(
            capacity,
            MIGRATION_BLOCK_SECTORS,
            0.99,
            MIGRATION_RATE,
            MIGRATION_REQUESTS,
            MIGRATION_SEED,
        )
        .bursty(MIGRATION_BURST_LEN, MIGRATION_BURST_IDLE),
        SptfScheduler::new(),
        AdaptiveDevice::new(
            surfaced_mems_device(&MemsParams::default()),
            migration_placement(),
        ),
    );
    let adaptive_report = adaptive.run();
    let migration = adaptive.device().migration_stats().clone();
    if migration.swaps == 0 {
        eprintln!("FAIL: companion cell performed no migrations on a skewed bursty stream");
        failures += 1;
    }
    println!(
        "migration cell     {:8} swaps ({} chunk I/Os, {:.3} ms mean chunk, {:.3} ms foreground wait over {} requests)",
        migration.swaps,
        migration.chunk_ios,
        migration.chunk_time.mean() * 1e3,
        migration.foreground_wait_secs * 1e3,
        adaptive_report.completed,
    );

    // Raw exports (untracked; for ad-hoc analysis). The summary carries
    // the device's seek-cache counters so cache effectiveness is visible
    // per run, not only in unit tests, plus the companion cell's
    // migration ledger.
    let _ = std::fs::create_dir_all("target");
    let jsonl = std::path::Path::new("target").join("obs_trace.jsonl");
    let summary = std::path::Path::new("target").join("obs_summary.json");
    if std::fs::write(&jsonl, trace.to_jsonl()).is_ok() {
        println!("wrote {}", jsonl.display());
    }
    let mut summary_trace = trace.clone();
    summary_trace.set_cache_stats(stats.hits, stats.misses);
    let base = summary_trace.summary_json();
    let base = base
        .strip_suffix("\n}\n")
        .expect("ring summary closes with a bare brace");
    let spliced = format!(
        "{base},\n  \"migration\": {}\n}}\n",
        migration.summary_json()
    );
    if std::fs::write(&summary, spliced).is_ok() {
        println!("wrote {}", summary.display());
    }

    if failures > 0 {
        eprintln!("\nobs_report: {failures} check(s) FAILED");
        return ExitCode::FAILURE;
    }
    println!("\nall phase-sum, parallel-seek, and closed-form replay checks passed");
    ExitCode::SUCCESS
}
