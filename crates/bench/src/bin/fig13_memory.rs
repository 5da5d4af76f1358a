//! Figure 13: memory in use while a `MUTATE site` transformation runs.
//! The paper's JVM grabbed all available memory within the first 30% of
//! the run; the point of reproducing the chart is to show the engine's
//! memory profile over time. Our streaming pipeline should stay flat and
//! bounded (buffer pool + output buffer), which *improves on* the paper's
//! observation — noted in EXPERIMENTS.md.

use std::time::Duration;
use xmorph_bench::alloc::CountingAlloc;
use xmorph_bench::harness::{BenchStore, StoreKind};
use xmorph_bench::sampler::Sampler;
use xmorph_bench::table::Table;
use xmorph_core::render::{render_snapshot, RenderOptions};
use xmorph_core::{Guard, ShreddedDoc};
use xmorph_datagen::XmarkConfig;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn main() {
    let scale = xmorph_bench::parse_scale();
    let factor = 0.3 * scale;
    println!("Fig. 13 — allocated memory over a MUTATE site run (factor {factor})\n");

    let xml = XmarkConfig::with_factor(factor).generate();
    let input_len = xml.len();
    let bench_store = BenchStore::create(StoreKind::TempFile, 512);
    let sampler = Sampler::start(bench_store.stats.clone(), Duration::from_millis(20));

    let doc = ShreddedDoc::shred_str(&bench_store.store, &xml).expect("shred");
    drop(xml); // the source text is no longer needed once shredded
    bench_store.store.flush().expect("flush");
    let guard = Guard::parse("MUTATE site").expect("guard");
    let snap = doc.snapshot();
    let analysis = guard.analyze(&snap).expect("analyze");
    let out = render_snapshot(&snap, &analysis.target, &RenderOptions::default()).expect("render");
    let out_len = out.len();
    drop(out);

    let samples = sampler.finish();
    let mut table = Table::new(&["elapsed s", "allocated MB"]);
    let step = (samples.len() / 25).max(1);
    for sample in samples.iter().step_by(step).chain(samples.last()) {
        table.row(&[
            format!("{:.2}", sample.elapsed.as_secs_f64()),
            format!("{:.2}", sample.allocated as f64 / 1_000_000.0),
        ]);
    }
    table.print();
    println!(
        "\npeak {:.2} MB (input {:.2} MB, output {:.2} MB)\n\
         Paper contrast: the JVM grabbed all memory within the first 30% of the run;\n\
         this engine's live allocation tracks the buffer pool + output buffer instead.",
        xmorph_bench::alloc::peak_bytes() as f64 / 1_000_000.0,
        input_len as f64 / 1_000_000.0,
        out_len as f64 / 1_000_000.0,
    );
}
