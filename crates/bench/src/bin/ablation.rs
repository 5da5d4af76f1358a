//! Ablations of the design choices DESIGN.md calls out:
//!
//! 1. **Pipelined sort-merge closest joins** (§VII) vs the naive
//!    strategy (one B+tree prefix probe per parent node). Both produce
//!    identical output; the paper's remark that sort-merge "reduces the
//!    cost of a closest join to O(n)" should show as a widening gap.
//! 2. **Buffer-pool capacity** vs transformation time: how gracefully
//!    the engine degrades when the data exceeds memory.
//! 3. **Architecture #1 vs #2** (§VIII): physical transformation vs the
//!    guard rendered as an XQuery view, on a downward-navigable guard —
//!    the paper expected "some speed-up ... for some queries" from the
//!    view, with the same worst case.

use std::time::{Duration, Instant};
use xmorph_bench::harness::{BenchStore, StoreKind};
use xmorph_bench::table::{mb, secs, Table};
use xmorph_core::render::{render_snapshot, RenderOptions};
use xmorph_core::{Guard, ShreddedDoc};
use xmorph_datagen::DblpConfig;

fn timed_render(doc: &ShreddedDoc, guard: &Guard, pipelined: bool) -> (Duration, usize) {
    let snap = doc.snapshot();
    let analysis = guard.analyze(&snap).expect("analyze");
    let opts = RenderOptions {
        pipelined,
        ..Default::default()
    };
    let t = Instant::now();
    let out = render_snapshot(&snap, &analysis.target, &opts).expect("render");
    (t.elapsed(), out.len())
}

fn main() {
    let scale = xmorph_bench::parse_scale();

    println!("Ablation 1 — pipelined sort-merge joins vs per-parent probes (DBLP)\n");
    let guard = Guard::parse("CAST MORPH author [title [year]]").expect("guard");
    let mut table = Table::new(&["input MB", "pipelined s", "naive s", "speedup"]);
    for size in [1.0, 2.0, 4.0, 8.0] {
        let xml = DblpConfig::with_approx_bytes((size * scale * 1e6) as usize).generate();
        let bench_store = BenchStore::create(StoreKind::TempFile, 1024);
        let doc = ShreddedDoc::shred_str(&bench_store.store, &xml).expect("shred");
        let (pipelined, bytes_a) = timed_render(&doc, &guard, true);
        let (naive, bytes_b) = timed_render(&doc, &guard, false);
        assert_eq!(bytes_a, bytes_b, "strategies must agree");
        table.row(&[
            mb(xml.len()),
            secs(pipelined),
            secs(naive),
            format!(
                "{:.1}x",
                naive.as_secs_f64() / pipelined.as_secs_f64().max(1e-9)
            ),
        ]);
    }
    table.print();

    println!("\nAblation 2 — buffer-pool capacity vs transformation time (DBLP 4 MB)\n");
    let xml = DblpConfig::with_approx_bytes((4.0 * scale * 1e6) as usize).generate();
    let mut table = Table::new(&["pool pages", "pool MB", "render s", "device reads"]);
    for capacity in [16usize, 64, 256, 1024, 4096] {
        let bench_store = BenchStore::create(StoreKind::TempFile, capacity);
        let doc = ShreddedDoc::shred_str(&bench_store.store, &xml).expect("shred");
        bench_store.store.flush().expect("flush");
        let before = bench_store.stats.snapshot();
        let (elapsed, _) = timed_render(&doc, &guard, true);
        let after = bench_store.stats.snapshot().since(&before);
        table.row(&[
            capacity.to_string(),
            format!("{:.2}", capacity as f64 * 4096.0 / 1e6),
            secs(elapsed),
            after.blocks_read.to_string(),
        ]);
    }
    table.print();

    println!("\nAblation 3 — physical transformation vs XQuery view (§VIII architectures)\n");
    let nav_guard =
        Guard::parse("CAST MORPH dblp [ article [ author title year ] ]").expect("guard");
    let mut table = Table::new(&[
        "input MB",
        "arch1 shred s",
        "arch1 render s",
        "arch2 view s",
    ]);
    for size in [1.0, 2.0, 4.0] {
        let xml = DblpConfig::with_approx_bytes((size * scale * 1e6) as usize).generate();
        let bench_store = BenchStore::create(StoreKind::TempFile, 1024);
        let t0 = Instant::now();
        let doc = ShreddedDoc::shred_str(&bench_store.store, &xml).expect("shred");
        let shred = t0.elapsed();
        let (render_time, arch1_bytes) = timed_render(&doc, &nav_guard, true);
        // Architecture #2: compile the guard to an XQuery view and run it
        // on the stored original document.
        let analysis = nav_guard.analyze(&doc.snapshot()).expect("analyze");
        let view = xmorph_core::render::guard_to_xquery_view(&doc, &analysis.target, "doc.xml")
            .expect("navigable guard");
        let db = xmorph_xqlite::XqliteDb::in_memory();
        db.store_document("doc.xml", &xml).expect("store");
        let t1 = Instant::now();
        let via_view = db.query(&view).expect("view query");
        let view_time = t1.elapsed();
        assert_eq!(via_view.len(), arch1_bytes, "architectures must agree");
        table.row(&[
            mb(xml.len()),
            secs(shred),
            secs(render_time),
            secs(view_time),
        ]);
    }
    table.print();

    println!(
        "\nExpected shapes: the pipelined join wins and its advantage grows with\n\
         input size; shrinking the pool below the working set raises device reads\n\
         while the render degrades gracefully; the XQuery view avoids the shred\n\
         but its per-record navigation costs about as much as (or more than)\n\
         the physical render, matching the paper's assessment."
    );
}
