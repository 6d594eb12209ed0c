//! Figure 7: the Cello-like and TPC-C-like traces on the MEMS device.
//!
//! Following §4.3, the traced interarrival times are divided by a scale
//! factor to produce a range of average arrival rates (scale 1 = as
//! traced).
//!
//! Paper shape to check: on Cello the algorithms behave as under the
//! random workload; on TPC-C, SPTF outperforms the others by a much
//! larger margin because many concurrently-pending requests sit at very
//! small inter-LBN distances, which LBN-based schedulers cannot tell
//! apart.

use mems_bench::{run_one, write_csv, Table};
use mems_device::{MemsDevice, MemsParams};
use mems_os::sched::Algorithm;
use storage_trace::{cello_for_capacity, tpcc_for_capacity, TraceRecord, TraceWorkload};

fn run_panel(name: &str, csv: &str, records: &[TraceRecord], scales: &[f64], requests: usize) {
    println!("Figure 7 {name}: average response time (ms) vs trace scale factor");
    let mut headers = vec!["scale".to_string()];
    headers.extend(Algorithm::ALL.iter().map(|a| a.label().to_string()));
    let mut table = Table::new(headers);
    for &scale in scales {
        let mut row = vec![format!("{scale}")];
        for alg in Algorithm::ALL {
            let workload = TraceWorkload::new(records[..requests].to_vec(), scale);
            let report = run_one(workload, alg, MemsDevice::new(MemsParams::default()), 200);
            row.push(format!("{:.3}", report.response.mean_ms()));
        }
        table.row(row);
    }
    println!("{}", table.render());
    write_csv(csv, &table.to_csv());
}

fn main() {
    let requests = mems_bench::count_arg(env!("CARGO_BIN_NAME"), "REQUESTS", 10_000) as usize;
    let capacity = MemsParams::default().geometry().total_sectors();

    // Generate traces once; the base (scale-1) arrival rates are modest,
    // so the sweep scales them up toward device saturation.
    let cello = cello_for_capacity(capacity, requests as u64, 0x5EED_0007);
    let tpcc = tpcc_for_capacity(capacity, requests as u64, 0x5EED_0007);

    run_panel(
        "(a) Cello-like",
        "fig07_a_cello.csv",
        &cello,
        &[1.0, 2.0, 4.0, 8.0, 16.0, 24.0, 32.0],
        requests,
    );
    run_panel(
        "(b) TPC-C-like",
        "fig07_b_tpcc.csv",
        &tpcc,
        &[1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 10.0],
        requests,
    );
}
