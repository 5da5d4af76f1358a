//! Serving-layer benchmark (repository extension, not a paper figure):
//! sustained queries/second and tail latency of the framed-TCP server
//! as the client count grows, plus an overload probe showing admission
//! control answering `BUSY` instead of queueing.
//!
//! The paper's pitch is a service — "millions of users can each see the
//! data in the shape they individually choose" — so the number that
//! matters is not one transformation's wall time but what a long-lived
//! process sustains across concurrent sessions. Each client loops a
//! small mix of guards over its own connection (the server compiles
//! each guard once per document epoch, so steady state measures the
//! render path and the wire, not the compiler).
//!
//! Flags: `--scale <f>` scales the document, `--smoke` runs a tiny
//! document and short windows (the CI gate), `--threads-per-query <n>`
//! sets the render worker count each query requests (`0` = server
//! default — the historical flat-qps configuration: every query fans
//! out across all cores, so concurrent clients just time-slice the
//! same pool), `--json` writes `BENCH_PR8.json` in the current
//! directory.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};
use xmorph_bench::table::Table;
use xmorph_core::Engine;
use xmorph_datagen::XmarkConfig;
use xmorph_server::{Client, QueryOpts, Reply, Server, ServerConfig, ServerHandle};

/// The query mix every client cycles through.
const GUARDS: &[&str] = &[
    "MORPH people [ person [ address [ city ] ] ]",
    "MORPH item [ name location quantity ]",
    "MUTATE site",
];

const STORE: &str = "xmark";

struct LoadPoint {
    clients: usize,
    qps: f64,
    p50_ms: f64,
    p99_ms: f64,
    ok: u64,
    busy: u64,
}

struct OverloadProbe {
    clients: usize,
    max_inflight: usize,
    ok: u64,
    busy: u64,
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let json = args.iter().any(|a| a == "--json");
    let scale = xmorph_bench::parse_scale();
    let threads_per_query: u32 = args
        .iter()
        .position(|a| a == "--threads-per-query")
        .and_then(|i| args.get(i + 1))
        .map(|v| v.parse().expect("--threads-per-query takes an integer"))
        .unwrap_or(1);

    let factor = if smoke { 0.004 } else { 0.02 * scale };
    let window = if smoke {
        Duration::from_millis(400)
    } else {
        Duration::from_secs(3)
    };
    let client_counts: &[usize] = if smoke {
        &[1, 4, 16]
    } else {
        &[1, 2, 4, 8, 16]
    };

    let xml = XmarkConfig::with_factor(factor).generate();
    println!(
        "Serving — sustained throughput and tail latency over the framed protocol\n\
         (XMark factor {factor}, {} bytes, {:?} per load point, \
         {threads_per_query} render thread(s) per query)\n",
        xml.len(),
        window
    );

    // Capacity headroom: every load point may hold `clients` sessions.
    let handle = Server::builder()
        .register(STORE, Engine::from_xml(&xml).expect("shred"))
        .max_sessions(64)
        .max_inflight(32)
        .bind("127.0.0.1:0")
        .expect("bind");

    let mut points = Vec::new();
    let mut table = Table::new(&["clients", "queries/s", "p50 ms", "p99 ms", "ok", "busy"]);
    for &clients in client_counts {
        let point = drive(handle.addr(), clients, window, threads_per_query);
        table.row(&[
            point.clients.to_string(),
            format!("{:.0}", point.qps),
            format!("{:.2}", point.p50_ms),
            format!("{:.2}", point.p99_ms),
            point.ok.to_string(),
            point.busy.to_string(),
        ]);
        points.push(point);
    }
    table.print();
    handle.shutdown().expect("shutdown");

    // Overload probe: a deliberately tiny in-flight limit with a held
    // query slot — admission control must answer BUSY, not queue.
    let overload = overload_probe(&xml, if smoke { 4 } else { 8 });
    println!(
        "\nOverload probe ({} clients vs max_inflight={}): {} ok, {} BUSY",
        overload.clients, overload.max_inflight, overload.ok, overload.busy
    );
    assert!(
        overload.busy > 0,
        "overload must surface as typed BUSY frames"
    );

    if json {
        let path = "BENCH_PR8.json";
        std::fs::write(
            path,
            render_json(&xml, factor, threads_per_query, &points, &overload),
        )
        .expect("write BENCH_PR8.json");
        println!("\nwrote {path}");
    }

    println!(
        "\npaper shape to check: queries/s grows with client count until the\n\
         render pool saturates, p99 stays bounded, and overload answers BUSY."
    );
}

/// Run `clients` concurrent connections against `addr` for `window`,
/// each cycling the guard mix; returns aggregate throughput and the
/// latency distribution.
fn drive(
    addr: std::net::SocketAddr,
    clients: usize,
    window: Duration,
    threads_per_query: u32,
) -> LoadPoint {
    let stop = AtomicBool::new(false);
    let t0 = Instant::now();
    let results: Vec<(Vec<Duration>, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|worker| {
                let stop = &stop;
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    let mut latencies = Vec::new();
                    let mut busy = 0u64;
                    let mut i = worker; // stagger the mix across workers
                    while !stop.load(Ordering::Relaxed) {
                        let guard = GUARDS[i % GUARDS.len()];
                        i += 1;
                        let q0 = Instant::now();
                        let opts = QueryOpts {
                            threads: threads_per_query,
                            ..QueryOpts::default()
                        };
                        match client.query(STORE, guard, opts).expect("query") {
                            Reply::Result { .. } => latencies.push(q0.elapsed()),
                            Reply::Busy(_) => busy += 1,
                            Reply::Error { code, message } => {
                                panic!("unexpected error {code:?}: {message}")
                            }
                            other => panic!("unexpected reply {other:?}"),
                        }
                    }
                    (latencies, busy)
                })
            })
            .collect();
        std::thread::sleep(window);
        stop.store(true, Ordering::Relaxed);
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let elapsed = t0.elapsed().as_secs_f64();

    let mut latencies: Vec<Duration> = Vec::new();
    let mut busy = 0u64;
    for (lat, b) in results {
        latencies.extend(lat);
        busy += b;
    }
    latencies.sort();
    let ok = latencies.len() as u64;
    LoadPoint {
        clients,
        qps: ok as f64 / elapsed.max(1e-9),
        p50_ms: percentile_ms(&latencies, 0.50),
        p99_ms: percentile_ms(&latencies, 0.99),
        ok,
        busy,
    }
}

fn percentile_ms(sorted: &[Duration], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx].as_secs_f64() * 1e3
}

/// Start a one-slot server with an artificial hold and storm it: with
/// more concurrent queries than slots, some must be answered `BUSY`.
fn overload_probe(xml: &str, clients: usize) -> OverloadProbe {
    let max_inflight = 1;
    let mut config = ServerConfig {
        max_inflight,
        ..Default::default()
    };
    config.query_hold = Duration::from_millis(50);
    let handle: ServerHandle = Server::builder()
        .register(STORE, Engine::from_xml(xml).expect("shred"))
        .config(config)
        .bind("127.0.0.1:0")
        .expect("bind");
    let addr = handle.addr();
    let results: Vec<(u64, u64)> = std::thread::scope(|scope| {
        (0..clients)
            .map(|_| {
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    let mut ok = 0u64;
                    let mut busy = 0u64;
                    for _ in 0..4 {
                        match client
                            .query(STORE, GUARDS[0], QueryOpts::default())
                            .expect("query")
                        {
                            Reply::Result { .. } => ok += 1,
                            Reply::Busy(_) => busy += 1,
                            Reply::Error { code, message } => {
                                panic!("unexpected error {code:?}: {message}")
                            }
                            other => panic!("unexpected reply {other:?}"),
                        }
                    }
                    (ok, busy)
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().unwrap())
            .collect()
    });
    handle.shutdown().expect("shutdown");
    let (ok, busy) = results
        .into_iter()
        .fold((0, 0), |(a, b), (o, u)| (a + o, b + u));
    OverloadProbe {
        clients,
        max_inflight,
        ok,
        busy,
    }
}

fn render_json(
    xml: &str,
    factor: f64,
    threads_per_query: u32,
    points: &[LoadPoint],
    overload: &OverloadProbe,
) -> String {
    let mut s = String::from("{\n");
    s.push_str(&format!("  \"xmark_factor\": {factor},\n"));
    s.push_str(&format!("  \"input_bytes\": {},\n", xml.len()));
    s.push_str(&format!("  \"threads_per_query\": {threads_per_query},\n"));
    s.push_str("  \"load\": [\n");
    for (i, p) in points.iter().enumerate() {
        s.push_str("    {\n");
        s.push_str(&format!("      \"clients\": {},\n", p.clients));
        s.push_str(&format!("      \"queries_per_s\": {:.1},\n", p.qps));
        s.push_str(&format!("      \"p50_ms\": {:.3},\n", p.p50_ms));
        s.push_str(&format!("      \"p99_ms\": {:.3},\n", p.p99_ms));
        s.push_str(&format!("      \"ok\": {},\n", p.ok));
        s.push_str(&format!("      \"busy\": {}\n", p.busy));
        s.push_str(if i + 1 == points.len() {
            "    }\n"
        } else {
            "    },\n"
        });
    }
    s.push_str("  ],\n");
    s.push_str("  \"overload\": {\n");
    s.push_str(&format!("    \"clients\": {},\n", overload.clients));
    s.push_str(&format!(
        "    \"max_inflight\": {},\n",
        overload.max_inflight
    ));
    s.push_str(&format!("    \"ok\": {},\n", overload.ok));
    s.push_str(&format!("    \"busy\": {}\n", overload.busy));
    s.push_str("  }\n");
    s.push_str("}\n");
    s
}
