//! Ablation: closed-loop multiprogramming level.
//!
//! The paper's figures use open arrivals; this companion view holds a
//! fixed population of zero-think-time processes and sweeps the
//! multiprogramming level, showing (a) how much concurrency each device
//! needs to reach peak throughput and (b) how much SPTF widens the MEMS
//! device's lead as the pending set deepens.

use atlas_disk::{DiskDevice, DiskParams};
use mems_bench::{write_csv, Table};
use mems_device::{MemsDevice, MemsParams};
use mems_os::sched::Algorithm;
use storage_sim::{closed_loop, rng, IoKind};

fn main() {
    let requests = mems_bench::count_arg(env!("CARGO_BIN_NAME"), "REQUESTS", 4000);
    println!("Ablation: throughput vs multiprogramming level (closed loop)");
    println!("({requests} random 4 KB reads per point, zero think time)\n");

    let mpls = [1u32, 2, 4, 8, 16, 32, 64];
    let mut table = Table::new(vec![
        "MPL".into(),
        "MEMS FCFS (req/s)".into(),
        "MEMS SPTF (req/s)".into(),
        "Atlas FCFS (req/s)".into(),
        "Atlas SPTF (req/s)".into(),
    ]);
    let mut csv = String::from("mpl,mems_fcfs,mems_sptf,atlas_fcfs,atlas_sptf\n");
    for &mpl in &mpls {
        let mut row = vec![format!("{mpl}")];
        let mut line = format!("{mpl}");
        for (device_is_mems, alg) in [
            (true, Algorithm::Fcfs),
            (true, Algorithm::Sptf),
            (false, Algorithm::Fcfs),
            (false, Algorithm::Sptf),
        ] {
            let capacity = if device_is_mems {
                MemsParams::default().geometry().total_sectors()
            } else {
                DiskParams::quantum_atlas_10k().total_sectors()
            };
            let mut r = rng::seeded(0xAB1A + u64::from(mpl));
            let source = move |_t: u32| {
                (
                    rng::uniform_u64(&mut r, capacity - 8),
                    8u32,
                    IoKind::Read,
                    0.0f64,
                )
            };
            let n = if device_is_mems {
                requests
            } else {
                requests / 4
            };
            let throughput = if device_is_mems {
                closed_loop(
                    mpl,
                    n,
                    source,
                    alg.build(),
                    MemsDevice::new(MemsParams::default()),
                    n / 10,
                )
                .throughput
            } else {
                closed_loop(
                    mpl,
                    n,
                    source,
                    alg.build(),
                    DiskDevice::new(DiskParams::quantum_atlas_10k()),
                    n / 10,
                )
                .throughput
            };
            row.push(format!("{throughput:.0}"));
            line.push_str(&format!(",{throughput:.1}"));
        }
        table.row(row);
        csv.push_str(&line);
        csv.push('\n');
    }
    println!("{}", table.render());
    write_csv("ablation_mpl.csv", &csv);
    println!("reading the table: with one outstanding request the schedulers");
    println!("tie; as the pending set deepens SPTF converts queue depth into");
    println!("throughput on both devices, and the MEMS device sustains roughly");
    println!("an order of magnitude more 4 KB reads per second throughout.");
}
