//! Figure 11: layout schemes compared (§5.3).
//!
//! Runs the bipartite read workload (10,000 requests; 89% 4 KB small,
//! 11% 400 KB large) against each placement scheme on three devices: the
//! default MEMS device, the MEMS device with zero settle time
//! ("MEMS-nosettle"), and the Atlas 10K (simple and organ pipe only —
//! the subregioned and columnar schemes are MEMS-geometry-specific).
//!
//! Paper shape to check: on MEMS all three non-simple layouts beat simple
//! by 13–20%; subregioned and columnar beat organ pipe; with zero settle
//! the subregioned layout (which bounds both X and Y) wins by a further
//! margin; on the disk, organ pipe gains ~13% over simple.

use atlas_disk::{DiskDevice, DiskParams};
use mems_bench::{write_csv, Table};
use mems_device::{MemsDevice, MemsParams};
use mems_os::layout::{
    BipartiteWorkload, ColumnarLayout, Layout, OrganPipeLayout, SimpleLayout, SubregionedLayout,
};
use storage_sim::{Driver, FifoScheduler, StorageDevice, Workload};

/// Mean service time (ms) of the paper's bipartite workload on a device
/// under a layout. Arrivals are spaced out so no queueing occurs; Fig. 11
/// reports pure access times.
fn measure<D: StorageDevice>(layout: &dyn Layout, device: D, requests: u64) -> f64 {
    struct W(BipartiteWorkload);
    impl Workload for W {
        fn next_request(&mut self) -> Option<storage_sim::Request> {
            self.0.next_request()
        }
    }
    let w = BipartiteWorkload::paper(layout, requests, 0x5EED_0011);
    let mut driver = Driver::new(W(w), FifoScheduler::new(), device);
    let report = driver.run();
    report.mean_service_ms()
}

fn main() {
    let requests = mems_bench::count_arg(env!("CARGO_BIN_NAME"), "REQUESTS", 10_000);

    let geom = MemsParams::default().geometry();
    let mems_capacity = geom.total_sectors();
    let disk_capacity = DiskParams::quantum_atlas_10k().total_sectors();

    let simple = SimpleLayout::new(mems_capacity);
    let organ = OrganPipeLayout::paper(mems_capacity);
    let subregioned = SubregionedLayout::new(&geom);
    let columnar = ColumnarLayout::new(&geom);
    let mems_layouts: Vec<&dyn Layout> = vec![&simple, &organ, &subregioned, &columnar];

    let disk_simple = SimpleLayout::new(disk_capacity);
    let disk_organ = OrganPipeLayout::paper(disk_capacity);
    let disk_layouts: Vec<&dyn Layout> = vec![&disk_simple, &disk_organ];

    println!("Figure 11: mean access time (ms) per layout scheme");
    println!("({requests} bipartite read requests: 89% 4 KB small, 11% 400 KB large)\n");

    let mut table = Table::new(vec![
        "device".into(),
        "simple".into(),
        "organ pipe".into(),
        "subregioned".into(),
        "columnar".into(),
    ]);
    let mut csv = String::from("device,layout,mean_ms,gain_vs_simple\n");

    for (device_name, settle) in [("MEMS (default)", 1.0), ("MEMS-nosettle", 0.0)] {
        let mut cells = vec![device_name.to_string()];
        let mut base = 0.0;
        for (i, layout) in mems_layouts.iter().enumerate() {
            let dev = MemsDevice::new(MemsParams::default().with_settle_constants(settle));
            let ms = measure(*layout, dev, requests);
            if i == 0 {
                base = ms;
            }
            let gain = (1.0 - ms / base) * 100.0;
            cells.push(format!("{ms:.3} ({gain:+.1}%)"));
            csv.push_str(&format!(
                "{device_name},{},{ms:.4},{gain:.2}\n",
                layout.name()
            ));
        }
        table.row(cells);
    }
    {
        let mut cells = vec!["Atlas 10K".to_string()];
        let mut base = 0.0;
        for (i, layout) in disk_layouts.iter().enumerate() {
            let dev = DiskDevice::new(DiskParams::quantum_atlas_10k());
            let ms = measure(*layout, dev, requests);
            if i == 0 {
                base = ms;
            }
            let gain = (1.0 - ms / base) * 100.0;
            cells.push(format!("{ms:.3} ({gain:+.1}%)"));
            csv.push_str(&format!("Atlas 10K,{},{ms:.4},{gain:.2}\n", layout.name()));
        }
        cells.push("n/a".into());
        cells.push("n/a".into());
        table.row(cells);
    }

    println!("{}", table.render());
    write_csv("fig11_layouts.csv", &csv);
    println!(
        "paper check: MEMS organ/subregioned/columnar beat simple by 13-20%;\n\
         subregioned wins outright in the no-settle case; organ pipe gains ~13% on the disk"
    );
}
