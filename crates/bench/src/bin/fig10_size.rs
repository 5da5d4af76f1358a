//! Figure 10: cost of a whole-document transformation (`MUTATE site`)
//! vs XMark document size, extended into the out-of-core regime.
//!
//! The original figure stops where the document still fits in memory.
//! This driver sweeps document sizes from in-core up to many multiples
//! of the shred `memory_budget`, generating each document *streamed to
//! a temp file* (never materialised in the heap) and shredding it with
//! [`ShreddedDoc::shred_file_with`] — the external-sort path. A
//! [`CountingAlloc`] global allocator tracks the process heap, and for
//! every document at least `GATE_RATIO`× larger than the budget the run
//! **gates** peak tracked shred memory at `budget + SLACK`, where the
//! slack is a size-independent constant covering the buffer pool and
//! per-column encode transients. Exits nonzero on a gate violation.
//!
//! Flags: `--smoke` shrinks the sweep to the single gated point for CI,
//! `--json` writes `BENCH_PR10.json`, `--scale <f>` multiplies the
//! full-mode document sizes.

use std::io::{BufWriter, Write as _};
use std::time::{Duration, Instant};
use xmorph_bench::alloc::{allocated_bytes, peak_bytes, reset_peak, CountingAlloc};
use xmorph_bench::harness::{BenchStore, StoreKind};
use xmorph_bench::table::{mb, secs, Table};
use xmorph_core::render::{render_snapshot, RenderOptions};
use xmorph_core::{Guard, ShredOptions, ShreddedDoc};
use xmorph_datagen::XmarkConfig;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Streaming shred budget (full mode). Smoke shrinks it so the gated
/// point stays CI-sized while keeping the same doc/budget ratio.
const BUDGET: usize = 1 << 20;
const SMOKE_BUDGET: usize = 256 * 1024;

/// Allowance on top of the budget: buffer pool pages (the sweep uses a
/// `POOL_PAGES`-frame pool), the reader window, merge-heap heads, and
/// the encode transient of the largest persisted column — the one term
/// that tracks the densest type rather than the budget, which is why
/// the slack is wider than the pool alone would need.
const SLACK: usize = 8 << 20;

/// Buffer pool frames for every store in the sweep — small on purpose,
/// so out-of-core behaviour shows at laptop scale.
const POOL_PAGES: usize = 256;

/// A document this many times larger than the budget is "out of core"
/// and must honour the memory gate.
const GATE_RATIO: usize = 20;

/// Documents up to this size also run the unbudgeted whole-string shred
/// (one unspilled sort run per stream) for the side-by-side peak
/// column.
const INMEM_CAP: usize = 16 << 20;

struct SizePoint {
    factor: f64,
    input_bytes: usize,
    stream_shred: Duration,
    stream_peak: usize,
    inmem: Option<(Duration, usize)>,
    compile: Duration,
    render: Duration,
    output_bytes: usize,
    gated: bool,
}

fn measure(factor: f64, budget: usize) -> SizePoint {
    let dir = std::env::temp_dir().join("xmorph-bench");
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let xml_path = dir.join(format!("fig10-{}-{factor}.xml", std::process::id()));
    let cfg = XmarkConfig::with_factor(factor);
    let input_bytes = {
        let file = std::fs::File::create(&xml_path).expect("create xml temp file");
        let mut w = BufWriter::new(file);
        let n = cfg.generate_to(&mut w).expect("generate xmark");
        w.flush().expect("flush xml");
        n as usize
    };

    // Streaming shred from the file: the document never enters the heap.
    let bench = BenchStore::create(StoreKind::TempFile, POOL_PAGES);
    let opts = ShredOptions::builder()
        .persist_columns(true)
        .memory_budget(budget);
    let baseline = allocated_bytes();
    reset_peak();
    let t0 = Instant::now();
    let doc = ShreddedDoc::shred_file_with(&bench.store, &xml_path, &opts).expect("shred file");
    bench.store.flush().expect("flush");
    let stream_shred = t0.elapsed();
    let stream_peak = peak_bytes().saturating_sub(baseline);

    let t1 = Instant::now();
    let guard = Guard::parse("MUTATE site").expect("parse guard");
    let snap = doc.snapshot();
    let analysis = guard.analyze(&snap).expect("analyze");
    let compile = t1.elapsed();
    let t2 = Instant::now();
    let output =
        render_snapshot(&snap, &analysis.target, &RenderOptions::default()).expect("render");
    let render_time = t2.elapsed();
    let output_bytes = output.len();
    drop(output);
    drop(doc);
    drop(bench);

    // In-core comparison point: the whole-string shred with no memory
    // budget (each sort stream one unspilled run), skipped once
    // documents outgrow the heap.
    let inmem = (input_bytes <= INMEM_CAP).then(|| {
        let xml = std::fs::read_to_string(&xml_path).expect("read xml");
        let bench = BenchStore::create(StoreKind::TempFile, POOL_PAGES);
        let baseline = allocated_bytes();
        reset_peak();
        let t = Instant::now();
        let doc = ShreddedDoc::shred_str(&bench.store, &xml).expect("shred str");
        bench.store.flush().expect("flush");
        let elapsed = t.elapsed();
        let peak = peak_bytes().saturating_sub(baseline);
        drop(doc);
        (elapsed, peak)
    });

    let _ = std::fs::remove_file(&xml_path);
    SizePoint {
        factor,
        input_bytes,
        stream_shred,
        stream_peak,
        inmem,
        compile,
        render: render_time,
        output_bytes,
        gated: input_bytes >= GATE_RATIO * budget,
    }
}

fn render_json(points: &[SizePoint], budget: usize, smoke: bool, pass: bool) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"fig10_size\",\n");
    out.push_str(&format!("  \"smoke\": {smoke},\n"));
    out.push_str(&format!("  \"budget_bytes\": {budget},\n"));
    out.push_str(&format!("  \"slack_bytes\": {SLACK},\n"));
    out.push_str(&format!("  \"gate_ratio\": {GATE_RATIO},\n"));
    out.push_str("  \"points\": [\n");
    for (i, p) in points.iter().enumerate() {
        let (inmem_secs, inmem_peak) = match &p.inmem {
            Some((d, peak)) => (format!("{:.6}", d.as_secs_f64()), peak.to_string()),
            None => ("null".into(), "null".into()),
        };
        out.push_str(&format!(
            "    {{\"factor\": {}, \"input_bytes\": {}, \"stream_shred_secs\": {:.6}, \
             \"stream_peak_bytes\": {}, \"inmem_shred_secs\": {}, \"inmem_peak_bytes\": {}, \
             \"compile_secs\": {:.6}, \"render_secs\": {:.6}, \"output_bytes\": {}, \
             \"gated\": {}}}{}\n",
            p.factor,
            p.input_bytes,
            p.stream_shred.as_secs_f64(),
            p.stream_peak,
            inmem_secs,
            inmem_peak,
            p.compile.as_secs_f64(),
            p.render.as_secs_f64(),
            p.output_bytes,
            p.gated,
            if i + 1 == points.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"gate\": {{\"checked\": {}, \"pass\": {}}}\n",
        points.iter().filter(|p| p.gated).count(),
        pass
    ));
    out.push_str("}\n");
    out
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let json = args.iter().any(|a| a == "--json");
    let scale = xmorph_bench::parse_scale();

    let budget = if smoke { SMOKE_BUDGET } else { BUDGET };
    let factors: Vec<f64> = if smoke {
        // One point, ~21x the smoke budget: the gate fires, CI stays fast.
        vec![0.5]
    } else {
        [0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0]
            .iter()
            .map(|f| f * scale)
            .collect()
    };

    println!(
        "Fig. 10 — transformation cost vs data size, out-of-core sweep \
         (XMark, MUTATE site; budget {}, pool {POOL_PAGES} pages, scale {scale})\n",
        mb(budget)
    );
    let mut table = Table::new(&[
        "factor",
        "input MB",
        "stream shred s",
        "stream peak MB",
        "in-mem shred s",
        "in-mem peak MB",
        "compile s",
        "render s",
        "output MB",
        "gated",
    ]);

    let mut points = Vec::new();
    for &factor in &factors {
        let p = measure(factor, budget);
        table.row(&[
            format!("{factor:.2}"),
            mb(p.input_bytes),
            secs(p.stream_shred),
            mb(p.stream_peak),
            p.inmem.map(|(d, _)| secs(d)).unwrap_or_else(|| "-".into()),
            p.inmem.map(|(_, b)| mb(b)).unwrap_or_else(|| "-".into()),
            secs(p.compile),
            secs(p.render),
            mb(p.output_bytes),
            if p.gated { "yes".into() } else { "no".into() },
        ]);
        points.push(p);
    }
    table.print();

    let mut failed = false;
    for p in points.iter().filter(|p| p.gated) {
        if p.stream_peak > budget + SLACK {
            eprintln!(
                "MEMORY GATE VIOLATED: factor {:.2} ({} input, {}x budget) peaked at {} \
                 tracked bytes > budget {} + slack {}",
                p.factor,
                mb(p.input_bytes),
                p.input_bytes / budget,
                mb(p.stream_peak),
                mb(budget),
                mb(SLACK)
            );
            failed = true;
        }
    }
    let checked = points.iter().filter(|p| p.gated).count();
    if checked == 0 {
        eprintln!("MEMORY GATE VIOLATED: no sweep point reached {GATE_RATIO}x the budget");
        failed = true;
    } else if !failed {
        println!(
            "\nmemory gate: {checked} out-of-core point(s) stayed under {} + {} slack",
            mb(budget),
            mb(SLACK)
        );
    }

    if json {
        let path = "BENCH_PR10.json";
        std::fs::write(path, render_json(&points, budget, smoke, !failed)).expect("write json");
        println!("wrote {path}");
    }

    println!(
        "\nPaper shape to check: render grows linearly with size; compile is a tiny,\n\
         size-independent fraction; streaming shred peak memory is flat in document\n\
         size (bounded by the budget) while the unbudgeted shred's peak tracks the\n\
         document."
    );
    if failed {
        std::process::exit(1);
    }
}
