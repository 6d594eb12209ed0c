//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! With `--trace 0`: sets up the workload several times (seek-surface
//! build plus cell construction) and reports the median as `setup_s`,
//! then runs whole cells of the workload untraced until `--seconds` have
//! passed, reporting the median throughput, peak RSS and the simulated
//! response times. With `--trace 1`: alternates untraced and traced cells
//! for `--seconds`, then reports the per-layer ledger. Either way every
//! cell is checked (conservation, traced digest equal to untraced, and
//! for the default seed the digest recorded in `digests.txt`), and the
//! last line of standard output is the JSON result.

use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mems_device::SeekSurface;
use perfbench::layers::{calibrate_span_nanos, take_ledger};
use perfbench::workloads::{
    build_surface, construct_cell, replay_stations, routed_streams, run_cell, Mode, Outcome, Spec,
    DEFAULT_SEED,
};
use storage_sim::NoopTracer;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Fewest timed cells per untraced run; `req_per_core_s` is their median.
const MIN_REPS: usize = 3;
/// Requests in the traced-vs-untraced check of an untraced run.
const CHECK_PREFIX: u64 = 50_000;
/// Empty spans timed to calibrate the per-span timer cost.
const CALIBRATION_SPANS: u64 = 2_000_000;
/// `<workload> <seed> <requests> <digest>` for the default seed.
const RECORDED: &str = include_str!("../digests.txt");

struct Args {
    spec: Spec,
    seed: u64,
    seconds: Duration,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let name = value("--workload")?;
    let spec = Spec::named(name).ok_or(format!("unknown workload {name:?}"))?;
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: u64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, not {t:?}")),
    };
    Ok(Args {
        spec,
        seed,
        seconds: Duration::from_secs(seconds.clamp(1, 120)),
        trace,
    })
}

/// Host CPU seconds consumed by the calling thread.
fn thread_cpu_secs() -> f64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) that outlives the call.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "CLOCK_THREAD_CPUTIME_ID is unavailable");
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}

/// Peak resident set of this process (`VmHWM`), MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Checks the outcomes of one run: every cell conserves requests, and
/// every digest equals the first untraced one and, for the default seed
/// at the standard cell size, the recorded one.
fn check(spec: &Spec, seed: u64, requests: u64, outcomes: &[&Outcome]) -> Result<(), String> {
    let first = outcomes[0];
    for o in outcomes {
        if !o.conserved() {
            return Err(format!(
                "conservation: {} completed + {} shed + {} timed out + warm-up != {} attempted",
                o.completed, o.shed, o.timed_out, o.attempted
            ));
        }
        if o.digest != first.digest {
            return Err(format!("digest {:016x} != {:016x}", o.digest, first.digest));
        }
    }
    if seed == DEFAULT_SEED && requests == spec.requests {
        let recorded = RECORDED
            .lines()
            .map(str::split_whitespace)
            .find_map(|mut f| {
                let key = (f.next()?, f.next()?.parse().ok()?, f.next()?.parse().ok()?);
                (key == (spec.name, DEFAULT_SEED, requests)).then(|| f.next())?
            })
            .ok_or(format!("no recorded digest for {}", spec.name))?;
        let digest = format!("{:016x}", first.digest);
        if digest != recorded {
            return Err(format!("digest {digest} != recorded {recorded}"));
        }
    }
    Ok(())
}

struct Report {
    attempted: u64,
    failed: u64,
    error: Option<String>,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    fn new(outcomes: &[&Outcome], checked: Result<(), String>) -> Report {
        let attempted = outcomes.iter().map(|o| o.attempted).sum();
        let refused = outcomes.iter().map(|o| o.shed + o.timed_out).sum();
        let error = checked.err();
        Report {
            attempted,
            failed: if error.is_some() { attempted } else { refused },
            error,
            metrics: Vec::new(),
        }
    }

    fn print(&self) {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                assert!(value.is_finite(), "{name} = {value}");
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.error.is_none(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}

/// Untraced run: end-to-end metrics.
fn end_to_end(args: &Args, process_start: Instant) -> Report {
    let spec = &args.spec;
    let mut setups = Vec::with_capacity(SETUPS);
    let mut surface: Option<Arc<SeekSurface>> = None;
    for i in 0..SETUPS {
        // Only one surface is alive at a time, so peak RSS holds one.
        drop(surface.take());
        let t0 = if i == 0 {
            process_start
        } else {
            Instant::now()
        };
        let s = build_surface();
        construct_cell(spec, &s, args.seed);
        setups.push(t0.elapsed().as_secs_f64());
        surface = Some(s);
    }
    let surface = surface.expect("at least one set-up");

    // One untimed cell first, so page faults on fresh heap and cold
    // caches are not billed to the first timed cell.
    let (warm, _) = run_cell(
        spec,
        &surface,
        spec.requests,
        args.seed,
        Mode::Plain,
        || NoopTracer,
    );
    let start = Instant::now();
    let mut rates = Vec::new();
    let mut outcomes = vec![warm];
    while rates.len() < MIN_REPS || start.elapsed() < args.seconds {
        let c0 = thread_cpu_secs();
        let (o, _) = run_cell(
            spec,
            &surface,
            spec.requests,
            args.seed,
            Mode::Plain,
            || NoopTracer,
        );
        rates.push(o.simulated() as f64 / (thread_cpu_secs() - c0));
        outcomes.push(o);
    }
    let peak_rss = peak_rss_mb();
    // Exact percentiles retain every sample, so that cell runs after peak
    // RSS is read; its digest must still equal the timed cells'.
    let (exact, _) = run_cell(
        spec,
        &surface,
        spec.requests,
        args.seed,
        Mode::Exact,
        || NoopTracer,
    );
    outcomes.push(exact);
    // The full traced-vs-untraced comparison is the `--trace 1` run's;
    // here a prefix of the same stream keeps the check cheap.
    let prefix: Vec<Outcome> = [Mode::Plain, Mode::Timed]
        .into_iter()
        .map(|mode| run_cell(spec, &surface, CHECK_PREFIX, args.seed, mode, || NoopTracer).0)
        .collect();
    take_ledger();

    let cells: Vec<&Outcome> = outcomes.iter().collect();
    let checked = check(spec, args.seed, spec.requests, &cells).and_then(|()| {
        check(
            spec,
            args.seed,
            CHECK_PREFIX,
            &prefix.iter().collect::<Vec<_>>(),
        )
    });
    let all: Vec<&Outcome> = outcomes.iter().chain(&prefix).collect();
    let sim = outcomes.last().expect("the exact cell");
    println!(
        "{}: seed {}, {} timed cells of {} requests ({} warm-up), digest {:016x}; \
         sim_mean_ms and sim_p99_ms over {} samples",
        spec.name,
        args.seed,
        rates.len(),
        spec.requests,
        perfbench::workloads::WARMUP,
        sim.digest,
        sim.samples
    );
    let shown: Vec<String> = rates.iter().map(|r| format!("{r:.0}")).collect();
    println!("req/core-s per cell: {}", shown.join(" "));
    let mut report = Report::new(&all, checked);
    report.metrics = vec![
        ("req_per_core_s", median(rates), "req/core-s"),
        ("setup_s", median(setups), "s"),
        ("peak_rss_mb", peak_rss, "MB"),
        ("sim_mean_ms", sim.mean_ms, "ms"),
        ("sim_p99_ms", sim.p99_ms, "ms"),
    ];
    report
}

/// Traced run: the per-layer ledger.
fn per_layer(args: &Args) -> Report {
    let spec = &args.spec;
    let n = spec.requests;
    let t0 = Instant::now();
    let surface = build_surface();
    let surface_build_s = t0.elapsed().as_secs_f64();
    let span_ns = calibrate_span_nanos(CALIBRATION_SPANS);

    // Alternate untraced and traced cells; only the traced ones record.
    let start = Instant::now();
    let (mut untraced_ns, mut traced_ns) = (0.0, 0.0);
    let mut outcomes = Vec::new();
    while outcomes.is_empty() || start.elapsed() < args.seconds {
        let u0 = Instant::now();
        let (u, _) = run_cell(spec, &surface, n, args.seed, Mode::Plain, || NoopTracer);
        untraced_ns += u0.elapsed().as_nanos() as f64;
        let t0 = Instant::now();
        let (t, _) = run_cell(spec, &surface, n, args.seed, Mode::Timed, || NoopTracer);
        traced_ns += t0.elapsed().as_nanos() as f64;
        outcomes.push(u);
        outcomes.push(t);
    }
    let ledger = take_ledger();
    let reqs = (outcomes.len() / 2) as f64 * n as f64;
    let per_req = |ns: u64| ns as f64 / reqs;
    let children =
        ledger.gen.nanos + ledger.enqueue.nanos + ledger.pick.nanos + ledger.service.nanos;
    let sim = &outcomes[0];
    let all: Vec<&Outcome> = outcomes.iter().collect();
    let mut checked = check(spec, args.seed, n, &all);

    // The fleet's station work alone: the same sub-I/O streams through
    // plain drivers. What it leaves of the traced remainder is the engine.
    let remainder = (traced_ns - children as f64) / reqs;
    let (sim_self, fleet_self, route_ns_per_sub, subs_per_req, barriers) = match spec.volume() {
        None => (remainder, 0.0, 0.0, 0.0, 0.0),
        Some(_) => {
            let (streams, route_ns_per_sub) = routed_streams(spec, n, args.seed);
            let r0 = Instant::now();
            let (busy, subs) = replay_stations(spec, &surface, streams);
            let replay_ns = r0.elapsed().as_nanos() as f64;
            let alone = take_ledger();
            if checked.is_ok() && (busy != sim.station_busy || subs != sim.subs) {
                checked = Err("station replay diverged from the fleet run".into());
            }
            let alone_children =
                alone.gen.nanos + alone.enqueue.nanos + alone.pick.nanos + alone.service.nanos;
            let sim_self = (replay_ns - alone_children as f64) / n as f64;
            let epoch = spec.fleet_config(Mode::Timed).epoch.as_secs();
            (
                sim_self,
                remainder - sim_self,
                route_ns_per_sub,
                ratio(sim.subs as f64, sim.attempted as f64),
                sim.makespan_s / epoch,
            )
        }
    };
    let pick_self = per_req(ledger.pick.nanos - ledger.position.nanos);
    let layer_sum = per_req(ledger.gen.nanos)
        + per_req(ledger.enqueue.nanos)
        + pick_self
        + per_req(ledger.position.nanos)
        + per_req(ledger.service.nanos)
        + sim_self
        + fleet_self;
    let timer_cost = ledger.spans() as f64 * span_ns / reqs;
    let c = &ledger.sched;
    println!(
        "{}: seed {}, {} traced cells of {} requests; {} spans at {span_ns:.1} ns",
        spec.name,
        args.seed,
        outcomes.len() / 2,
        n,
        ledger.spans()
    );
    let mut report = Report::new(&all, checked);
    report.metrics = vec![
        ("trace.gen_ns_per_req", per_req(ledger.gen.nanos), "ns/req"),
        ("sched.pick_self_ns_per_req", pick_self, "ns/req"),
        (
            "sched.enqueue_ns_per_req",
            per_req(ledger.enqueue.nanos),
            "ns/req",
        ),
        (
            "sched.examined_per_pick",
            ratio(c.candidates_examined as f64, c.picks as f64),
            "cand/pick",
        ),
        (
            "sched.pruned_per_pick",
            ratio(c.buckets_pruned as f64, c.picks as f64),
            "bucket/pick",
        ),
        (
            "sched.cache_hits_per_pick",
            ratio(c.cached_best_hits as f64, c.picks as f64),
            "hit/pick",
        ),
        (
            "sched.lone_pick_frac",
            ratio(ledger.lone_picks as f64, ledger.pick.calls as f64),
            "frac",
        ),
        (
            "sched.useful_pick_frac",
            ratio(ledger.useful_picks as f64, ledger.pick.calls as f64),
            "frac",
        ),
        (
            "mems-device.position_ns_per_req",
            per_req(ledger.position.nanos),
            "ns/req",
        ),
        (
            "mems-device.position_queries_per_req",
            ledger.position.calls as f64 / reqs,
            "query/req",
        ),
        (
            "mems-device.service_ns_per_req",
            per_req(ledger.service.nanos),
            "ns/req",
        ),
        ("mems-device.surface_build_s", surface_build_s, "s"),
        ("mems-device.utilization", sim.utilization, "frac"),
        (
            "mems-device.positioning_ms_mean",
            sim.positioning_ms_mean,
            "ms",
        ),
        ("sim.self_ns_per_req", sim_self, "ns/req"),
        ("sim.queue_ms_mean", sim.queue_ms_mean, "ms"),
        ("sim.max_queue_depth", sim.max_queue_depth as f64, "req"),
        ("fleet.self_ns_per_req", fleet_self, "ns/req"),
        ("fleet.route_ns_per_sub", route_ns_per_sub, "ns/sub"),
        ("fleet.subs_per_req", subs_per_req, "sub/req"),
        ("fleet.barriers", barriers, "count"),
        ("bench.trace_overhead_ratio", traced_ns / untraced_ns, "x"),
        ("bench.untraced_ns_per_req", untraced_ns / reqs, "ns/req"),
        ("bench.traced_ns_per_req", traced_ns / reqs, "ns/req"),
        ("bench.layer_self_sum_ns_per_req", layer_sum, "ns/req"),
        ("bench.timer_ns_per_span", span_ns, "ns"),
        ("bench.timer_cost_ns_per_req", timer_cost, "ns/req"),
        (
            "bench.ledger_residual_frac",
            (traced_ns / reqs - timer_cost) / (untraced_ns / reqs) - 1.0,
            "frac",
        ),
    ];
    report
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let report = if args.trace {
        per_layer(&args)
    } else {
        end_to_end(&args, process_start)
    };
    if let Some(e) = &report.error {
        eprintln!("perfbench: output check failed: {e}");
    }
    report.print();
    ExitCode::SUCCESS
}
