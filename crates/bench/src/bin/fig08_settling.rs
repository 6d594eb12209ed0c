//! Figure 8: interaction of SPTF and settling time (§4.4).
//!
//! Runs the Figure 6 sweep with the number of settling time constants set
//! to 0 and 2 (the default device uses 1).
//!
//! Paper shape to check: with two settling constants the X seek dominates
//! and SSTF_LBN closely approximates SPTF; with zero settling constants Y
//! seeks matter and SPTF pulls far ahead of all LBN-based algorithms.

use mems_bench::{sched_sweep, write_csv, Table};
use mems_device::{MemsDevice, MemsParams};
use mems_os::sched::Algorithm;
use storage_trace::RandomWorkload;

fn main() {
    let requests = mems_bench::count_arg(env!("CARGO_BIN_NAME"), "REQUESTS", 10_000);
    let capacity = MemsParams::default().geometry().total_sectors();

    for (panel, constants) in [
        ("(a) zero settling time constants", 0.0),
        ("(b) two settling time constants", 2.0),
    ] {
        let rates: Vec<f64> = if constants == 0.0 {
            vec![
                250.0, 500.0, 1000.0, 1500.0, 2000.0, 2500.0, 3000.0, 3500.0, 4000.0,
            ]
        } else {
            vec![
                100.0, 250.0, 500.0, 750.0, 1000.0, 1250.0, 1500.0, 1750.0, 2000.0,
            ]
        };
        println!("Figure 8 {panel}: average response time (ms)");
        println!("({requests} requests per point)\n");
        let points = sched_sweep(
            &rates,
            &Algorithm::ALL,
            |rate| RandomWorkload::paper(capacity, rate, requests, 0x5EED_0008),
            || MemsDevice::new(MemsParams::default().with_settle_constants(constants)),
            500,
        );
        let mut headers = vec!["rate (req/s)".to_string()];
        headers.extend(Algorithm::ALL.iter().map(|a| a.label().to_string()));
        let mut table = Table::new(headers);
        for &rate in &rates {
            let mut row = vec![format!("{rate:.0}")];
            for alg in Algorithm::ALL {
                let p = points
                    .iter()
                    .find(|p| p.algorithm == alg.label() && p.rate == rate)
                    .expect("point exists");
                row.push(format!("{:.3}", p.mean_response_ms));
            }
            table.row(row);
        }
        println!("{}", table.render());
        let name = if constants == 0.0 {
            "fig08_a_zero_settle.csv"
        } else {
            "fig08_b_two_settle.csv"
        };
        write_csv(name, &table.to_csv());

        // The §4.4 headline: SPTF's margin over SSTF_LBN at high load.
        let high = rates[rates.len() - 3];
        let sptf = points
            .iter()
            .find(|p| p.algorithm == "SPTF" && p.rate == high)
            .expect("point");
        let sstf = points
            .iter()
            .find(|p| p.algorithm == "SSTF_LBN" && p.rate == high)
            .expect("point");
        println!(
            "SPTF margin over SSTF_LBN at {high:.0} req/s: {:.1}%\n",
            (sstf.mean_response_ms / sptf.mean_response_ms - 1.0) * 100.0
        );
    }
}
