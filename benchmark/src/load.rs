//! The `load` workload: stream an XMark factor-1 file into a fresh file
//! store under an 8 MiB shred memory budget, then close the store.

use crate::device::Device;
use crate::layers::{self, LayerInputs, Space};
use crate::stats::{mean, median, quantile, sorted};
use crate::trace::{aggregate, Tracer};
use crate::{alloc, cpu, Args, Metric, Outcome};
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};
use xmorph_core::{Engine, QueryRequest};
use xmorph_datagen::XmarkConfig;
use xmorph_server::{Client, QueryOpts, Reply, Server};

const FACTOR: f64 = 1.0;

/// The guard whose render checks each loaded store.
const CHECK_GUARD: &str =
    "MORPH site [ people [ person [ address [ street city country zipcode ] name emailaddress phone ] ] ]";

fn generate(seed: u64, path: &Path) -> Result<u64, String> {
    let file =
        std::fs::File::create(path).map_err(|e| format!("create {}: {e}", path.display()))?;
    let mut w = std::io::BufWriter::new(file);
    let n = XmarkConfig {
        factor: FACTOR,
        seed,
        ..XmarkConfig::default()
    }
    .generate_to(&mut w)
    .map_err(|e| format!("generate: {e}"))?;
    std::io::Write::flush(&mut w).map_err(|e| format!("flush: {e}"))?;
    Ok(n)
}

fn render_check(db: &Path) -> Result<String, String> {
    let engine = Engine::open_path(db).map_err(|e| format!("reopen {}: {e}", db.display()))?;
    let xml = engine
        .query(&QueryRequest::builder(CHECK_GUARD).threads(1).build())
        .map_err(|e| format!("check query: {e}"))?
        .xml;
    engine.close().map_err(|e| format!("close: {e}"))?;
    Ok(xml)
}

pub fn run(args: &Args, work: &Path) -> Result<Outcome, String> {
    let device = Device::default();
    let tracer = Tracer::new(args.trace);
    let mut out = Outcome::default();
    let doc = work.join("doc.xml");

    // Set-up: generate the input file. An untraced run generates it
    // again (the same bytes) before each load and reports the median, so
    // the set-up samples span the window, as the loads do.
    let (mut setup_s, mut setup_wall_s) = (Vec::new(), Vec::new());
    let mut set_up = || -> Result<u64, String> {
        let (t, c) = (Instant::now(), cpu::process_s());
        let bytes = tracer.span("setup.generate", 0, tracer.next_id(), || {
            generate(args.seed, &doc)
        })?;
        setup_s.push(cpu::process_s() - c);
        setup_wall_s.push(t.elapsed().as_secs_f64());
        Ok(bytes)
    };
    let doc_bytes = set_up()?;

    // The oracle: an unbudgeted shred of the same file.
    let mut inputs = LayerInputs {
        doc_bytes,
        ..LayerInputs::default()
    };
    let ref_db = work.join("reference.db");
    let reference = {
        let quiet = Tracer::new(false);
        let r = layers::shred_file(&doc, &ref_db, false, &device, &quiet, 0, 0)?;
        inputs.shred_inmem_s.push(r.seconds);
        drop(r);
        render_check(&ref_db)?
    };
    let _ = std::fs::remove_file(&ref_db);

    let device0 = device.snapshot();
    let window = Duration::from_secs(args.seconds);
    let t0 = Instant::now();
    let mut load_s = Vec::new();
    let mut load_cpu_s = Vec::new();
    let mut traced_load_s = Vec::new();
    let mut traced_cpu_s = Vec::new();
    let mut peaks_mb = Vec::new();
    let mut spaces = Vec::new();
    let mut last_db = None;
    let mut i = 0;
    while i < 2 || t0.elapsed() < window {
        // In a traced run the first half of the window is untraced.
        let traced = args.trace && t0.elapsed() >= window / 2;
        let quiet = Tracer::new(false);
        let tr = if traced { &tracer } else { &quiet };
        let db = work.join(format!("load{i}.db"));
        i += 1;
        out.attempted += 1;
        if !args.trace && set_up()? != doc_bytes {
            out.fail(format!(
                "load {i}: the input generated again differs in size"
            ));
            continue;
        }
        alloc::reset_peak();
        let request = tr.next_id();
        let run = tr.parent_span("load", 0, request, |root| {
            layers::shred_file(&doc, &db, true, &device, tr, root, request)
        });
        peaks_mb.push(alloc::peak_bytes() as f64 / 1e6);
        let run = match run {
            Ok(r) => r,
            Err(e) => {
                out.fail(e);
                continue;
            }
        };
        if traced {
            traced_load_s.push(run.seconds);
            traced_cpu_s.push(run.cpu_s);
            inputs.shred_total_s.push(run.seconds);
            inputs
                .shred_device_s
                .push(run.device.write_s + run.device.sync_s);
            let io = run.engine.store().io_stats_snapshot();
            inputs.pool.blocks_read += io.blocks_read;
            inputs.pool.cache_hits += io.cache_hits;
            inputs.pool.cache_misses += io.cache_misses;
        } else {
            load_s.push(run.seconds);
            load_cpu_s.push(run.cpu_s);
        }
        match Space::of(run.engine.store()) {
            Ok(s) => spaces.push(s),
            Err(e) => out.fail(e),
        }
        drop(run);
        match render_check(&db) {
            Ok(xml) if xml == reference => {}
            Ok(_) => out.fail(format!(
                "load {i}: check render differs from the unbudgeted shred"
            )),
            Err(e) => out.fail(e),
        }
        if let Some(prev) = last_db.replace(db) {
            let _ = std::fs::remove_file(prev);
        }
    }
    let loads_device = device.snapshot().since(&device0);

    let load_ms = sorted(load_s.iter().map(|s| s * 1e3).collect());
    let space = spaces.last().copied().unwrap_or_default();
    let amp = median(&spaces.iter().map(Space::amp).collect::<Vec<_>>());
    let per_input = median(
        &spaces
            .iter()
            .map(|s| s.live_bytes() as f64 / doc_bytes as f64)
            .collect::<Vec<_>>(),
    );
    let peak_mb = median(&peaks_mb);
    let setup_med = median(&setup_s);
    let mb = doc_bytes as f64 / 1e6;
    out.e2e = crate::e2e(setup_med, mean(&load_cpu_s) * 1e3, peak_mb, amp, per_input);
    let m = |n: &str, u: &'static str, v: f64| Metric::new(n, u, v);
    out.detail = vec![
        m("setup_s", "s", setup_med),
        m("setup_wall_s", "s", median(&setup_wall_s)),
        m("load_mb_s", "MB/s", mb / median(&load_s)),
        m("load_p50_ms", "ms", quantile(&load_ms, 0.5)),
        m("loads", "count", load_s.len() as f64),
        m("input_mb", "MB", mb),
        m("space_amp", "ratio", amp),
        m("store_bytes_per_input_byte", "ratio", per_input),
        m("peak_heap_mb", "MB", peak_mb),
        m(
            "error_rate",
            "fraction",
            out.failed as f64 / out.attempted.max(1) as f64,
        ),
    ];

    if args.trace {
        let (events, parse_s) = layers::parse_pass(&doc, &tracer)?;
        inputs.events = events;
        inputs.parse_s = parse_s;
        inputs.device = device.snapshot();
        inputs.stored_user_bytes = doc_bytes * (1 + i as u64);
        inputs.space = space;
        // Query-path layers and the wire, on the last loaded store.
        if let Some(db) = &last_db {
            let engine = Arc::new(
                Engine::open_store(device.open_store(db).map_err(|e| e.to_string())?)
                    .map_err(|e| e.to_string())?,
            );
            for _ in 0..3 {
                out.attempted += 1;
                match layers::replay_guard(&engine, CHECK_GUARD, 1, &tracer) {
                    Ok(xml) if xml == reference => inputs.out_bytes.push(xml.len() as f64),
                    Ok(_) => out.fail("replay differs from the unbudgeted shred".to_string()),
                    Err(e) => out.fail(e),
                }
            }
            layers::engine_bytes(&engine, &mut inputs);
            let handle = Server::builder()
                .register_shared("load", Arc::clone(&engine))
                .bind("127.0.0.1:0")
                .map_err(|e| format!("bind: {e}"))?;
            let mut client = Client::connect(handle.addr()).map_err(|e| format!("connect: {e}"))?;
            let opts = QueryOpts {
                threads: 1,
                want_stats: true,
                no_wrapper: false,
            };
            for _ in 0..3 {
                out.attempted += 1;
                let t0 = Instant::now();
                let reply = client.query("load", CHECK_GUARD, opts);
                let t1 = Instant::now();
                match reply {
                    Ok(Reply::Result {
                        xml,
                        stats: Some(s),
                        ..
                    }) if xml == reference => {
                        let ms = (t1 - t0).as_secs_f64() * 1e3;
                        inputs
                            .wire_overhead_ms
                            .push(layers::wire_overhead_ms(ms, &s));
                        inputs.wire_reply_bytes.push(xml.len() as f64);
                        layers::wire_spans(&tracer, "wire.query", t0, t1, Some(&s));
                    }
                    other => out.fail(format!("wire check: {:?}", other.map(|_| ()))),
                }
            }
            drop(client);
            inputs.server = handle.metrics();
            handle.shutdown().map_err(|e| format!("shutdown: {e}"))?;
        }
        let spans = tracer.take();
        let agg = aggregate(&spans);
        out.layers = layers::per_layer(&inputs, &agg);
        let traced_p50 = median(&traced_load_s) * 1e3;
        let mut report = String::new();
        let _ = writeln!(
            report,
            "Per load ({} traced loads of {mb:.1} MB):\n",
            traced_load_s.len()
        );
        crate::self_time_table(
            &mut report,
            &agg,
            &["load", "shred.total", "store.close"],
            "load",
        );
        let shred = median(&inputs.shred_total_s);
        let dev = median(&inputs.shred_device_s);
        let inmem = median(&inputs.shred_inmem_s);
        let _ = writeln!(
            report,
            "\nInside one budgeted shred (median {shred:.4} s): parse {parse_s:.4} s (parse-only pass), \
             device write+sync {dev:.4} s, spill/merge {:.4} s (budgeted − unbudgeted {inmem:.4} s), \
             remaining shred self time {:.4} s.",
            shred - inmem,
            shred - parse_s - dev
        );
        let _ = writeln!(
            report,
            "Device over the timed loads: {} writes, {} bytes written ({:.2} per input byte), {} syncs, \
             write {:.4} s, sync {:.4} s.",
            loads_device.writes,
            loads_device.bytes_written,
            loads_device.bytes_written as f64 / (doc_bytes as f64 * i as f64),
            loads_device.syncs,
            loads_device.write_s,
            loads_device.sync_s
        );
        let _ = writeln!(
            report,
            "\nQuery-path layers on the loaded store ({CHECK_GUARD}):\n"
        );
        crate::self_time_table(
            &mut report,
            &agg,
            &[
                "replay",
                "guard.parse",
                "engine.pin",
                "analyze.eval",
                "analyze.loss",
                "render",
                "render.parallel",
                "engine.query",
            ],
            "replay",
        );
        let _ = writeln!(
            report,
            "\nThe same guard over the wire, served from the loaded store:\n"
        );
        crate::self_time_table(
            &mut report,
            &agg,
            &["wire.query", "server.compile", "server.render"],
            "wire.query",
        );
        let untraced_p50 = median(&load_s) * 1e3;
        let traced_cpu = mean(&traced_cpu_s) * 1e3;
        let untraced_cpu = mean(&load_cpu_s) * 1e3;
        let _ = writeln!(
            report,
            "\nTracing overhead: load p50 {traced_p50:.2} ms traced vs {untraced_p50:.2} ms untraced ({:+.1}%); \
             CPU per load {traced_cpu:.2} ms traced vs {untraced_cpu:.2} ms untraced ({:+.1}%).",
            (traced_p50 / untraced_p50 - 1.0) * 100.0,
            (traced_cpu / untraced_cpu - 1.0) * 100.0
        );
        out.report = report;
        out.spans = spans;
    }
    if let Some(db) = last_db {
        let _ = std::fs::remove_file(db);
    }
    Ok(out)
}
