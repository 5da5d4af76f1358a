//! Figure 11: cumulative block I/O while a `MUTATE site` transformation
//! runs, sampled like the paper's `vmstat` trace. A steady, linear climb
//! (no bursts) shows the engine streams: it gradually processes the disk
//! tables while generating output.

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
    println!("Fig. 11 — cumulative block I/O over a MUTATE site run (factor {factor})\n");

    let xml = XmarkConfig::with_factor(factor).generate();
    let bench_store = BenchStore::create(StoreKind::TempFile, 512);
    let sampler = Sampler::start(bench_store.stats.clone(), Duration::from_millis(20));

    let doc = ShreddedDoc::shred_str(&bench_store.store, &xml).expect("shred");
    bench_store.store.flush().expect("flush");
    let guard = Guard::parse("MUTATE site").expect("guard");
    let snap = doc.snapshot();
    let analysis = guard.analyze(&snap).expect("analyze");
    let out = render_snapshot(&snap, &analysis.target, &RenderOptions::default()).expect("render");

    let samples = sampler.finish();
    let mut table = Table::new(&["elapsed s", "blocks read", "blocks written", "cumulative"]);
    // Thin the series to ~25 rows.
    let step = (samples.len() / 25).max(1);
    for sample in samples.iter().step_by(step).chain(samples.last()) {
        table.row(&[
            format!("{:.2}", sample.elapsed.as_secs_f64()),
            sample.io.blocks_read.to_string(),
            sample.io.blocks_written.to_string(),
            sample.io.total_blocks().to_string(),
        ]);
    }
    table.print();
    println!(
        "\ninput {} bytes, output {} bytes; paper shape to check: the cumulative\n\
         series climbs steadily with no sudden spikes (gradual streaming).",
        xml.len(),
        out.len()
    );
}
