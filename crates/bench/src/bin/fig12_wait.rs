//! Figure 12: the I/O-wait percentage while a `MUTATE site`
//! transformation runs — the fraction of wall time spent blocked on the
//! device (the paper reports ~40% on its 2006 RAID-1; block I/O drives
//! the cost of a transformation).

use std::time::Duration;
use xmorph_bench::harness::{BenchStore, StoreKind};
use xmorph_bench::sampler::Sampler;
use xmorph_bench::table::Table;
use xmorph_core::render::{render_snapshot, RenderOptions};
use xmorph_core::{Guard, ShreddedDoc};
use xmorph_datagen::XmarkConfig;

fn main() {
    let scale = xmorph_bench::parse_scale();
    let factor = 0.3 * scale;
    println!("Fig. 12 — I/O wait percentage over a MUTATE site run (factor {factor})\n");

    let xml = XmarkConfig::with_factor(factor).generate();
    let bench_store = BenchStore::create(StoreKind::TempFile, 512);
    let sampler = Sampler::start(bench_store.stats.clone(), Duration::from_millis(20));

    let doc = ShreddedDoc::shred_str(&bench_store.store, &xml).expect("shred");
    bench_store.store.flush().expect("flush");
    let guard = Guard::parse("MUTATE site").expect("guard");
    let snap = doc.snapshot();
    let analysis = guard.analyze(&snap).expect("analyze");
    let _ = render_snapshot(&snap, &analysis.target, &RenderOptions::default()).expect("render");

    let samples = sampler.finish();
    let mut table = Table::new(&["elapsed s", "interval wait %", "cumulative wait %"]);
    let step = (samples.len() / 25).max(1);
    let mut prev = None;
    for sample in samples.iter().step_by(step).chain(samples.last()) {
        let cumulative = sample.io.wait_fraction(sample.elapsed) * 100.0;
        let interval = match prev {
            Some((prev_elapsed, prev_io)) => {
                let dt: Duration = sample.elapsed - prev_elapsed;
                let dio = sample.io.since(&prev_io);
                dio.wait_fraction(dt) * 100.0
            }
            None => cumulative,
        };
        prev = Some((sample.elapsed, sample.io));
        table.row(&[
            format!("{:.2}", sample.elapsed.as_secs_f64()),
            format!("{interval:.1}"),
            format!("{cumulative:.1}"),
        ]);
    }
    table.print();
    println!(
        "\nPaper shape to check: a substantial, steady wait fraction while the tables\n\
         stream (the paper saw ~40% on 2006 disks; NVMe/page-cache hardware will sit\n\
         lower but nonzero once the data exceeds the buffer pool)."
    );
}
