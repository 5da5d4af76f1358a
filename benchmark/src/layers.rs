//! Calls into each layer's public functions, timed as spans, and the
//! per-layer metric set a traced run reports.

use crate::device::{Device, DeviceSnapshot};
use crate::stats::median;
use crate::trace::{LayerTime, Tracer};
use crate::{cpu, Metric};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;
use xmorph_core::analysis::analyze_loss;
use xmorph_core::render::{render_snapshot, RenderOptions};
use xmorph_core::semantics::eval::{eval_guard, EvalCtx};
use xmorph_core::semantics::shape::Shape;
use xmorph_core::{
    render_parallel_snapshot, Engine, Guard, ParallelOptions, QueryRequest, ShredOptions, TypeId,
};
use xmorph_pagestore::{IoSnapshot, Store};
use xmorph_server::{ServerMetrics, WireStats};
use xmorph_xml::{XmlEvent, XmlStreamReader};

/// The out-of-core shred's working-memory cap.
pub const MEMORY_BUDGET: usize = 8 << 20;

/// One parse-only pass over a document file: `(events, seconds)`.
pub fn parse_pass(path: &Path, tracer: &Tracer) -> Result<(u64, f64), String> {
    let file = std::fs::File::open(path).map_err(|e| format!("open {}: {e}", path.display()))?;
    let t0 = Instant::now();
    let mut reader = XmlStreamReader::new(std::io::BufReader::new(file));
    let mut events = 0u64;
    loop {
        match reader.next_event() {
            Ok(XmlEvent::Eof) => break,
            Ok(ev) => {
                events += 1;
                std::hint::black_box(ev);
            }
            Err(e) => return Err(format!("parse {}: {e}", path.display())),
        }
    }
    let end = Instant::now();
    tracer.record("xmlkit.parse", t0, end, 0, tracer.next_id());
    Ok((events, (end - t0).as_secs_f64()))
}

/// What one timed shred into a fresh counted file store cost.
pub struct ShredRun {
    pub engine: Engine,
    pub seconds: f64,
    /// Process CPU seconds over the same interval.
    pub cpu_s: f64,
    pub device: DeviceSnapshot,
}

/// Shred `doc` into a fresh store at `db` (with or without the memory
/// budget) and close it; the span covers `shred_path` + close.
pub fn shred_file(
    doc: &Path,
    db: &Path,
    budgeted: bool,
    device: &Device,
    tracer: &Tracer,
    parent: u64,
    request: u64,
) -> Result<ShredRun, String> {
    let store = device
        .create_store(db)
        .map_err(|e| format!("create {}: {e}", db.display()))?;
    let opts = if budgeted {
        ShredOptions::default().memory_budget(MEMORY_BUDGET)
    } else {
        ShredOptions::default()
    };
    let name = if budgeted {
        "shred.total"
    } else {
        "shred.inmem"
    };
    let before = device.snapshot();
    let cpu0 = cpu::process_s();
    let t0 = Instant::now();
    let engine = tracer
        .span(name, parent, request, || {
            Engine::shred_path(store, doc, &opts)
        })
        .map_err(|e| format!("shred {}: {e}", doc.display()))?;
    tracer
        .span("store.close", parent, request, || engine.close())
        .map_err(|e| format!("close {}: {e}", db.display()))?;
    let seconds = t0.elapsed().as_secs_f64();
    Ok(ShredRun {
        engine,
        seconds,
        cpu_s: cpu::process_s() - cpu0,
        device: device.snapshot().since(&before),
    })
}

/// Space figures of a store, read through its public counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct Space {
    pub file_bytes: u64,
    pub live_pages: u64,
    pub pages: u64,
    pub segments_live: u64,
    pub free_extent_pages: u64,
}

impl Space {
    pub fn of(store: &Store) -> Result<Space, String> {
        let live_pages = store
            .live_page_count()
            .map_err(|e| format!("live pages: {e}"))?;
        let stats = store.stats().map_err(|e| format!("store stats: {e}"))?;
        Ok(Space {
            file_bytes: store.size_bytes(),
            live_pages,
            pages: store.page_count(),
            segments_live: stats.segments_live,
            free_extent_pages: stats.free_extent_pages,
        })
    }

    pub fn live_bytes(&self) -> u64 {
        self.live_pages * xmorph_pagestore::PAGE_SIZE as u64
    }

    pub fn dead_bytes(&self) -> u64 {
        self.file_bytes.saturating_sub(self.live_bytes())
    }

    pub fn amp(&self) -> f64 {
        self.file_bytes as f64 / self.live_bytes() as f64
    }
}

/// Run one guard through the layers a query crosses — parse, pin, ξ,
/// loss analysis, sequential and parallel render, and the engine's own
/// query path — each as a span under one request. Returns the
/// sequential render.
pub fn replay_guard(
    engine: &Engine,
    src: &str,
    threads: usize,
    tracer: &Tracer,
) -> Result<String, String> {
    let request = tracer.next_id();
    tracer.parent_span("replay", 0, request, |root| {
        let guard = tracer
            .span("guard.parse", root, request, || Guard::parse(src))
            .map_err(|e| format!("parse {src}: {e}"))?;
        let snap = tracer.span("engine.pin", root, request, || engine.snapshot());
        let shape = Shape::from_adorned(snap.shape());
        let mut ctx = EvalCtx::new(&*snap);
        let target = tracer
            .span("analyze.eval", root, request, || {
                eval_guard(guard.algebra(), &shape, &mut ctx)
            })
            .map_err(|e| format!("eval {src}: {e}"))?;
        let loss = tracer.span("analyze.loss", root, request, || {
            analyze_loss(&shape, &target, |s| {
                snap.shape().instance_count(TypeId(s as u32))
            })
        });
        std::hint::black_box(loss);
        let seq = tracer
            .span("render", root, request, || {
                render_snapshot(&snap, &target, &RenderOptions::default())
            })
            .map_err(|e| format!("render {src}: {e}"))?;
        let par = tracer
            .span("render.parallel", root, request, || {
                render_parallel_snapshot(&snap, &target, &ParallelOptions::with_threads(0))
            })
            .map_err(|e| format!("parallel render {src}: {e}"))?;
        let req = QueryRequest::builder(src).threads(threads).build();
        let resp = tracer
            .span("engine.query", root, request, || {
                engine.query_parsed(&guard, &req)
            })
            .map_err(|e| format!("query {src}: {e}"))?;
        if par != seq || resp.xml != seq {
            return Err(format!("render paths disagree on {src}"));
        }
        Ok(seq)
    })
}

/// Record a wire round trip as a root span, with the server-reported
/// compile and render phases as its children.
pub fn wire_spans(
    tracer: &Tracer,
    name: &'static str,
    t0: Instant,
    t1: Instant,
    stats: Option<&WireStats>,
) {
    if !tracer.on() {
        return;
    }
    let request = tracer.next_id();
    let root = tracer.record(name, t0, t1, 0, request);
    if let Some(s) = stats {
        let rtt = (t1 - t0).as_nanos() as u64;
        let gap = rtt.saturating_sub(s.compile_ns + s.render_ns);
        let start = tracer.position_ns(t0) + gap / 2;
        tracer.record_ns("server.compile", start, s.compile_ns, root, request);
        tracer.record_ns(
            "server.render",
            start + s.compile_ns,
            s.render_ns,
            root,
            request,
        );
    }
}

/// Client round trip minus the server-reported compile and render.
pub fn wire_overhead_ms(rtt_ms: f64, stats: &WireStats) -> f64 {
    rtt_ms - (stats.compile_ns + stats.render_ns) as f64 / 1e6
}

/// Everything a traced run gathers for the per-layer metric set.
#[derive(Default)]
pub struct LayerInputs {
    pub doc_bytes: u64,
    pub events: u64,
    pub parse_s: f64,
    pub shred_total_s: Vec<f64>,
    pub shred_inmem_s: Vec<f64>,
    pub shred_device_s: Vec<f64>,
    pub device: DeviceSnapshot,
    pub stored_user_bytes: u64,
    pub pool: IoSnapshot,
    pub space: Space,
    pub column_bytes: u64,
    pub pinned_bytes: u64,
    pub server: ServerMetrics,
    pub wire_overhead_ms: Vec<f64>,
    pub wire_reply_bytes: Vec<f64>,
    pub out_bytes: Vec<f64>,
}

/// Mean duration of the spans named `name`, in ms (0 when there are none).
pub fn mean_ms(agg: &BTreeMap<&'static str, LayerTime>, name: &str) -> f64 {
    agg.get(name)
        .filter(|t| t.count > 0)
        .map(|t| t.total_s * 1e3 / t.count as f64)
        .unwrap_or(0.0)
}

fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// The `per_layer` metrics of `BENCHMARK.json`, in its order.
pub fn per_layer(inp: &LayerInputs, agg: &BTreeMap<&'static str, LayerTime>) -> Vec<Metric> {
    let total = median(&inp.shred_total_s);
    let inmem = median(&inp.shred_inmem_s);
    let dev = median(&inp.shred_device_s);
    let hits = inp.pool.cache_hits as f64;
    let misses = inp.pool.cache_misses as f64;
    let m = |name: &str, unit: &'static str, value: f64| Metric::new(name, unit, value);
    vec![
        m("xmlkit.parse_s", "s", inp.parse_s),
        m(
            "xmlkit.parse_mb_s",
            "MB/s",
            inp.doc_bytes as f64 / 1e6 / inp.parse_s,
        ),
        m("xmlkit.events", "count", inp.events as f64),
        m("shred.total_s", "s", total),
        m("shred.inmem_s", "s", inmem),
        m("shred.spill_merge_s", "s", total - inmem),
        m("shred.self_s", "s", total - inp.parse_s - dev),
        m("device.reads", "count", inp.device.reads as f64),
        m("device.writes", "count", inp.device.writes as f64),
        m("device.bytes_written", "B", inp.device.bytes_written as f64),
        m("device.syncs", "count", inp.device.syncs as f64),
        m("device.write_s", "s", inp.device.write_s),
        m("device.sync_s", "s", inp.device.sync_s),
        m(
            "device.write_amp",
            "ratio",
            inp.device.bytes_written as f64 / inp.stored_user_bytes as f64,
        ),
        m("pool.hits", "count", hits),
        m("pool.misses", "count", misses),
        m(
            "pool.hit_ratio",
            "ratio",
            if hits + misses > 0.0 {
                hits / (hits + misses)
            } else {
                1.0
            },
        ),
        m("pool.blocks_read", "count", inp.pool.blocks_read as f64),
        m("store.live_pages", "count", inp.space.live_pages as f64),
        m(
            "store.dead_pages",
            "count",
            inp.space.pages.saturating_sub(inp.space.live_pages) as f64,
        ),
        m(
            "store.segments_live",
            "count",
            inp.space.segments_live as f64,
        ),
        m(
            "store.free_extent_pages",
            "count",
            inp.space.free_extent_pages as f64,
        ),
        m("guard.parse_ms", "ms", mean_ms(agg, "guard.parse")),
        m("analyze.eval_ms", "ms", mean_ms(agg, "analyze.eval")),
        m("analyze.loss_ms", "ms", mean_ms(agg, "analyze.loss")),
        m("render.ms", "ms", mean_ms(agg, "render")),
        m("render.parallel_ms", "ms", mean_ms(agg, "render.parallel")),
        m("render.out_bytes", "B", mean(&inp.out_bytes)),
        m("engine.query_ms", "ms", mean_ms(agg, "engine.query")),
        m("engine.pin_ms", "ms", mean_ms(agg, "engine.pin")),
        m("engine.column_bytes", "B", inp.column_bytes as f64),
        m("engine.snapshot_pinned_bytes", "B", inp.pinned_bytes as f64),
        m("wire.overhead_ms", "ms", median(&inp.wire_overhead_ms)),
        m("wire.reply_bytes", "B", mean(&inp.wire_reply_bytes)),
        m(
            "server.queries_busy",
            "count",
            inp.server.queries_busy as f64,
        ),
        m(
            "server.queries_failed",
            "count",
            inp.server.queries_failed as f64,
        ),
        m(
            "server.writes_failed",
            "count",
            inp.server.writes_failed as f64,
        ),
        m(
            "server.protocol_errors",
            "count",
            inp.server.protocol_errors as f64,
        ),
    ]
}

/// Record the engine-side resident figures after a window.
pub fn engine_bytes(engine: &Arc<Engine>, inp: &mut LayerInputs) {
    inp.column_bytes = engine.snapshot().column_bytes().total() as u64;
    inp.pinned_bytes = engine.doc().snapshot_pinned_bytes() as u64;
}
