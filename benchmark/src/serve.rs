//! The serving workloads: `select`, `select-write` and `reshape`.
//!
//! One file-backed XMark store (factor 0.1, default shred options) is
//! shredded, closed, reopened and served in-process on `127.0.0.1:0`;
//! clients in this process drive it over the framed protocol.

use crate::device::Device;
use crate::layers::{self, LayerInputs, Space};
use crate::stats::{median, quantile, sorted};
use crate::trace::{aggregate, Tracer};
use crate::{alloc, cpu, Args, Metric, Outcome, SplitMix};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use xmorph_core::{Dewey, Engine, Mutation, MutationOutcome, QueryRequest, ShredOptions};
use xmorph_datagen::XmarkConfig;
use xmorph_server::{Client, QueryOpts, Reply, Server, ServerHandle};

const STORE: &str = "xmark";
const FACTOR: f64 = 0.1;

/// The read mix: selective guards, including the fig15 XMark
/// `deep-large` and `bushy-large` shapes.
const READ_MIX: [&str; 6] = [
    "MORPH people [ person [ address [ city ] ] ]",
    "MORPH item [ name location quantity ]",
    "MORPH person [ name emailaddress ]",
    "MORPH site [ people [ person [ address [ street city country zipcode ] name emailaddress phone ] ] ]",
    "MORPH person [ name emailaddress phone street city country zipcode education business @income ]",
    "MORPH person [ name emailaddress ] | MUTATE emailaddress [ name ]",
];

/// The paper's Fig. 10 guard: the whole document, reshaped.
const RESHAPE: [&str; 1] = ["MUTATE site"];

/// The subtree each write cycle inserts under `site.people` and deletes.
const INSERTED_PERSON: &str = "<person><name>bench inserted person</name>\
     <emailaddress>mailto:inserted@bench.example</emailaddress></person>";
const INSERTED_NAME: &str = "bench inserted person";

/// Open-loop write rate of `select-write`, in update+insert+delete cycles
/// per second.
const WRITE_CYCLES_PER_S: f64 = 10.0;

/// An untraced window runs in this many parts. Between two parts the run
/// times `SETUPS_PER_GAP` more set-ups, so that the set-up samples, like
/// the window, span half a minute of the host's speed and not the first
/// two seconds alone.
const PARTS: u32 = 5;
const SETUPS_PER_GAP: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Select,
    SelectWrite,
    Reshape,
}

impl Mode {
    fn guards(self) -> &'static [&'static str] {
        match self {
            Mode::Reshape => &RESHAPE,
            _ => &READ_MIX,
        }
    }

    /// Render threads each query requests (`0` = one per CPU).
    fn threads(self) -> u32 {
        match self {
            Mode::Reshape => 0,
            _ => 1,
        }
    }

    fn readers(self) -> usize {
        match self {
            Mode::Select => 2,
            _ => 1,
        }
    }
}

struct Served {
    dir: PathBuf,
    db: PathBuf,
    xml: String,
    engine: Arc<Engine>,
    handle: ServerHandle,
}

/// Generate, shred, close, reopen and bind: the set-up `setup_s` times.
fn serve_store(seed: u64, dir: &Path, device: &Device, tracer: &Tracer) -> Result<Served, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("mkdir {}: {e}", dir.display()))?;
    let request = tracer.next_id();
    let xml = tracer.span("setup.generate", 0, request, || {
        XmarkConfig {
            factor: FACTOR,
            seed,
            ..XmarkConfig::default()
        }
        .generate()
    });
    let db = dir.join("xmark.db");
    let store = device
        .create_store(&db)
        .map_err(|e| format!("create store: {e}"))?;
    let engine = tracer
        .span("shred.inmem", 0, request, || {
            Engine::shred(store, &xml, &ShredOptions::default())
        })
        .map_err(|e| format!("shred: {e}"))?;
    engine.close().map_err(|e| format!("close: {e}"))?;
    drop(engine);
    let engine = tracer
        .span("engine.open", 0, request, || {
            device
                .open_store(&db)
                .map_err(|e| e.to_string())
                .and_then(|s| Engine::open_store(s).map_err(|e| e.to_string()))
        })
        .map_err(|e| format!("reopen: {e}"))?;
    let engine = Arc::new(engine);
    let handle = Server::builder()
        .register_shared(STORE, Arc::clone(&engine))
        .max_sessions(8)
        .max_inflight(4)
        .bind("127.0.0.1:0")
        .map_err(|e| format!("bind: {e}"))?;
    Ok(Served {
        dir: dir.to_path_buf(),
        db,
        xml,
        engine,
        handle,
    })
}

/// Replace the content of every `<name>` element with nothing, so a
/// reply can be compared while concurrent updates retext names.
fn blank_names(xml: &str) -> String {
    let mut out = String::with_capacity(xml.len());
    let mut rest = xml;
    while let Some(i) = rest.find("<name>") {
        out.push_str(&rest[..i + 6]);
        rest = &rest[i + 6..];
        match rest.find("</name>") {
            Some(j) => rest = &rest[j..],
            None => break,
        }
    }
    out.push_str(rest);
    out
}

/// What a reply must be.
enum Expect {
    /// Byte-identical to the reference render.
    Exact(Vec<String>),
    /// With names blanked, equal to the reference either without or
    /// with the inserted person present (writes run concurrently).
    Blanked(Vec<(String, String)>),
}

impl Expect {
    fn ok(&self, guard: usize, xml: &str) -> bool {
        match self {
            Expect::Exact(refs) => refs[guard] == xml,
            Expect::Blanked(refs) => {
                let b = blank_names(xml);
                b == refs[guard].0 || b == refs[guard].1
            }
        }
    }
}

/// The write targets of `select-write`.
struct WritePlan {
    people: String,
    names: Vec<Dewey>,
    seed: u64,
}

#[derive(Default)]
struct Side {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    latency_ms: Vec<f64>,
    rtt_ms: Vec<f64>,
    late_ms: Vec<f64>,
    wire_overhead_ms: Vec<f64>,
    reply_bytes: Vec<f64>,
    last_text: HashMap<String, String>,
    payload_bytes: u64,
}

impl Side {
    fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.failures.len() < 5 {
            self.failures.push(msg);
        }
    }

    fn absorb(&mut self, other: Side) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for f in other.failures {
            if self.failures.len() < 5 {
                self.failures.push(f);
            }
        }
        self.latency_ms.extend(other.latency_ms);
        self.rtt_ms.extend(other.rtt_ms);
        self.late_ms.extend(other.late_ms);
        self.wire_overhead_ms.extend(other.wire_overhead_ms);
        self.reply_bytes.extend(other.reply_bytes);
        self.last_text.extend(other.last_text);
        self.payload_bytes += other.payload_bytes;
    }
}

/// Fold a client side's attempts and failures into the run's outcome.
fn count(out: &mut Outcome, side: &Side) {
    out.attempted += side.attempted;
    for f in &side.failures {
        out.fail(f.clone());
    }
    out.failed += side.failed - side.failures.len() as u64;
}

/// One closed-loop reader connection cycling the guards in `order`,
/// starting at position `first`, until `stop`.
fn reader(
    addr: SocketAddr,
    mode: Mode,
    order: &[usize],
    first: usize,
    expect: &Expect,
    stop: &AtomicBool,
    tracer: &Tracer,
) -> Side {
    let mut side = Side::default();
    let mut client = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            side.attempted += 1;
            side.fail(format!("connect: {e}"));
            return side;
        }
    };
    let guards = mode.guards();
    let opts = QueryOpts {
        threads: mode.threads(),
        want_stats: tracer.on(),
        no_wrapper: false,
    };
    let mut i = first;
    while !stop.load(Ordering::Relaxed) {
        let g = order[i % order.len()];
        i += 1;
        side.attempted += 1;
        let t0 = Instant::now();
        let reply = client.query(STORE, guards[g], opts);
        let t1 = Instant::now();
        match reply {
            Ok(Reply::Result { xml, stats, .. }) => {
                if !expect.ok(g, &xml) {
                    side.fail(format!("wrong output for {}", guards[g]));
                    continue;
                }
                let ms = (t1 - t0).as_secs_f64() * 1e3;
                side.latency_ms.push(ms);
                side.reply_bytes.push(xml.len() as f64);
                if let Some(s) = stats.as_ref() {
                    side.wire_overhead_ms.push(layers::wire_overhead_ms(ms, s));
                }
                layers::wire_spans(tracer, "wire.query", t0, t1, stats.as_ref());
            }
            Ok(other) => side.fail(format!("query {}: {other:?}", guards[g])),
            Err(e) => {
                side.fail(format!("query {}: {e}", guards[g]));
                break;
            }
        }
    }
    side
}

fn applied(reply: Result<Reply, xmorph_server::ClientError>) -> Result<String, String> {
    match reply {
        Ok(Reply::Applied { detail, .. }) => Ok(detail),
        Ok(other) => Err(format!("{other:?}")),
        Err(e) => Err(e.to_string()),
    }
}

/// The open-loop writer: cycle `c`'s three writes are due at fixed
/// offsets from `t0`; latency runs from when each write was due.
fn writer(
    addr: SocketAddr,
    (plan, part): (&WritePlan, u32),
    t0: Instant,
    end: Instant,
    tracer: &Tracer,
) -> Side {
    // Texts name the phase and part too, so a later part never rewrites
    // an earlier part's text with an equal one.
    let phase = if tracer.on() { "traced" } else { "untraced" };
    let mut side = Side::default();
    let mut client = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            side.attempted += 1;
            side.fail(format!("connect: {e}"));
            return side;
        }
    };
    let step = Duration::from_secs_f64(1.0 / (3.0 * WRITE_CYCLES_PER_S));
    let mut rng = SplitMix(plan.seed ^ 0x5752_4954_4552);
    let mut inserted = String::new();
    for j in 0u32.. {
        let cycle = j / 3;
        // Only start a cycle whose delete is due inside the window.
        if j % 3 == 0 && t0 + step * (j + 2) >= end {
            break;
        }
        let due = t0 + step * j;
        sleep_until(due);
        let sent = Instant::now();
        side.attempted += 1;
        let result = match j % 3 {
            0 => {
                let target = plan.names[rng.below(plan.names.len())].to_string();
                let text = format!("bench name {} {phase} {part} {cycle}", plan.seed);
                side.payload_bytes += text.len() as u64;
                let r = applied(client.update(STORE, &target, &text));
                if r.is_ok() {
                    side.last_text.insert(target, text);
                }
                r.map(|_| ())
            }
            1 => {
                side.payload_bytes += INSERTED_PERSON.len() as u64;
                applied(client.insert(STORE, &plan.people, INSERTED_PERSON)).map(|path| {
                    inserted = path;
                })
            }
            _ => applied(client.delete(STORE, &inserted)).map(|_| ()),
        };
        let done = Instant::now();
        match result {
            Ok(()) => {
                side.latency_ms.push((done - due).as_secs_f64() * 1e3);
                side.rtt_ms.push((done - sent).as_secs_f64() * 1e3);
                side.late_ms.push((sent - due).as_secs_f64() * 1e3);
                tracer.record("wire.write", sent, done, 0, tracer.next_id());
            }
            Err(e) => side.fail(format!("write {j}: {e}")),
        }
    }
    side
}

/// What one run of the clients produced.
struct Window {
    reads: Side,
    writes: Side,
    wall_s: f64,
    /// Process CPU seconds over the window: clients, server and engine.
    cpu_s: f64,
    /// Peak heap of each whole second, in MB.
    peaks_mb: Vec<f64>,
}

impl Window {
    /// The parts of one window, in the order they ran, as one.
    fn join(parts: Vec<Window>) -> Window {
        let mut all = Window {
            reads: Side::default(),
            writes: Side::default(),
            wall_s: 0.0,
            cpu_s: 0.0,
            peaks_mb: Vec::new(),
        };
        for part in parts {
            all.reads.absorb(part.reads);
            all.writes.absorb(part.writes);
            all.wall_s += part.wall_s;
            all.cpu_s += part.cpu_s;
            all.peaks_mb.extend(part.peaks_mb);
        }
        all
    }
}

/// Run the clients for `window` against a served store; `writes` is the
/// write plan of `select-write` and the number of the window part.
fn drive(
    mode: Mode,
    served: &Served,
    order: &[usize],
    expect: &Expect,
    writes: Option<(&WritePlan, u32)>,
    window: Duration,
    tracer: &Tracer,
) -> Window {
    let addr = served.handle.addr();
    let stop = AtomicBool::new(false);
    alloc::reset_peak();
    let cpu0 = cpu::process_s();
    let t0 = Instant::now();
    let end = t0 + window;
    let mut peaks_mb = Vec::new();
    let (reads, writes) = std::thread::scope(|scope| {
        let readers: Vec<_> = (0..mode.readers())
            .map(|k| {
                let stop = &stop;
                scope.spawn(move || reader(addr, mode, order, k * 3, expect, stop, tracer))
            })
            .collect();
        let writer = writes.map(|w| scope.spawn(move || writer(addr, w, t0, end, tracer)));
        // Sample the heap peak once per whole second of the window.
        for k in 1..=window.as_secs() as u32 {
            sleep_until(t0 + Duration::from_secs(1) * k);
            peaks_mb.push(alloc::peak_bytes() as f64 / 1e6);
            alloc::reset_peak();
        }
        sleep_until(end);
        stop.store(true, Ordering::Relaxed);
        let mut reads = Side::default();
        for r in readers {
            reads.absorb(r.join().expect("reader thread panicked"));
        }
        let writes = writer
            .map(|w| w.join().expect("writer thread panicked"))
            .unwrap_or_default();
        (reads, writes)
    });
    Window {
        reads,
        writes,
        wall_s: t0.elapsed().as_secs_f64(),
        cpu_s: cpu::process_s() - cpu0,
        peaks_mb,
    }
}

/// Shut a served store down and delete its files.
fn retire(served: Served) -> Result<(), String> {
    served
        .handle
        .shutdown()
        .map_err(|e| format!("shutdown: {e}"))?;
    drop(served.engine);
    let _ = std::fs::remove_dir_all(&served.dir);
    Ok(())
}

fn sleep_until(t: Instant) {
    if let Some(wait) = t.checked_duration_since(Instant::now()) {
        std::thread::sleep(wait);
    }
}

fn type_instances(engine: &Engine, path: &[&str]) -> Result<Vec<(Dewey, String)>, String> {
    let doc = engine.doc();
    let path: Vec<String> = path.iter().map(|s| s.to_string()).collect();
    let t = doc
        .types()
        .lookup(&path)
        .ok_or_else(|| format!("no type {}", path.join(".")))?;
    Ok(doc.scan_type(t))
}

/// References rendered at set-up through `Engine::query` at one thread.
fn references(engine: &Engine, guards: &[&str]) -> Result<Vec<String>, String> {
    guards
        .iter()
        .map(|g| {
            engine
                .query(&QueryRequest::builder(*g).threads(1).build())
                .map(|r| r.xml)
                .map_err(|e| format!("reference {g}: {e}"))
        })
        .collect()
}

/// The writes' twin: the same document with the inserted person present.
fn blanked_references(
    xml: &str,
    plan: &WritePlan,
    refs: &[String],
) -> Result<Vec<(String, String)>, String> {
    let twin = Engine::from_xml(xml).map_err(|e| format!("twin: {e}"))?;
    let people: Dewey = plan.people.parse().map_err(|_| "people path".to_string())?;
    twin.mutate(&Mutation::InsertSubtree {
        parent: people,
        xml: INSERTED_PERSON.to_string(),
    })
    .map_err(|e| format!("twin insert: {e}"))?;
    let with = references(&twin, &READ_MIX)?;
    Ok(refs
        .iter()
        .zip(with)
        .map(|(a, b)| (blank_names(a), blank_names(&b)))
        .collect())
}

/// Replay the write schedule on a twin file store, timing `Engine::mutate`
/// per write kind. Returns the XML bytes handed to the twin.
fn mutate_replay(
    served: &Served,
    plan: &WritePlan,
    cycles: u32,
    device: &Device,
    tracer: &Tracer,
) -> Result<u64, String> {
    let db = served.dir.join("twin.db");
    let store = device
        .create_store(&db)
        .map_err(|e| format!("twin store: {e}"))?;
    let twin = Engine::shred(store, &served.xml, &ShredOptions::default())
        .map_err(|e| format!("twin shred: {e}"))?;
    let mut rng = SplitMix(plan.seed ^ 0x5752_4954_4552);
    let people: Dewey = plan.people.parse().map_err(|_| "people path".to_string())?;
    let mut stored = served.xml.len() as u64;
    for cycle in 0..cycles {
        let request = tracer.next_id();
        let target = plan.names[rng.below(plan.names.len())].clone();
        let text = format!("bench name {} {cycle}", plan.seed);
        stored += (text.len() + INSERTED_PERSON.len()) as u64;
        tracer
            .span("mutate.update", 0, request, || {
                twin.mutate(&Mutation::UpdateText { target, text })
            })
            .map_err(|e| format!("twin update: {e}"))?;
        let inserted = tracer
            .span("mutate.insert", 0, request, || {
                twin.mutate(&Mutation::InsertSubtree {
                    parent: people.clone(),
                    xml: INSERTED_PERSON.to_string(),
                })
            })
            .map_err(|e| format!("twin insert: {e}"))?;
        let MutationOutcome::Inserted(root) = inserted else {
            return Err("twin insert returned no root".to_string());
        };
        tracer
            .span("mutate.delete", 0, request, || {
                twin.mutate(&Mutation::DeleteSubtree { target: root })
            })
            .map_err(|e| format!("twin delete: {e}"))?;
    }
    twin.close().map_err(|e| format!("twin close: {e}"))?;
    drop(twin);
    let _ = std::fs::remove_file(&db);
    Ok(stored)
}

/// After the window: the store reopened with `Engine::open_path` shows
/// every last acknowledged text and none of the deleted subtrees.
fn check_durable(db: &Path, last_text: &HashMap<String, String>, out: &mut Outcome) {
    let engine = match Engine::open_path(db) {
        Ok(e) => e,
        Err(e) => {
            out.attempted += 1;
            out.fail(format!("reopen after writes: {e}"));
            return;
        }
    };
    for (target, text) in last_text {
        out.attempted += 1;
        let found = target
            .parse::<Dewey>()
            .ok()
            .and_then(|d| engine.doc().node_text(&d).ok().flatten());
        if found.as_deref() != Some(text.as_str()) {
            out.fail(format!(
                "{target}: reopened text {found:?}, acknowledged {text:?}"
            ));
        }
    }
    out.attempted += 1;
    match type_instances(&engine, &["site", "people", "person", "name"]) {
        Ok(names) => {
            let left = names.iter().filter(|(_, t)| t == INSERTED_NAME).count();
            if left > 0 {
                out.fail(format!("{left} deleted subtrees visible after reopen"));
            }
        }
        Err(e) => out.fail(e),
    }
    let _ = engine.close();
}

pub fn run(mode: Mode, args: &Args, work: &Path) -> Result<Outcome, String> {
    let device = Device::default();
    let tracer = Tracer::new(args.trace);
    let mut out = Outcome::default();

    // Set up once to serve; an untraced run times more set-ups between
    // the parts of its window and reports the median.
    let (mut setup_s, mut setup_wall_s) = (Vec::new(), Vec::new());
    let mut set_up = || -> Result<Served, String> {
        let dir = work.join(format!("setup{}", setup_s.len()));
        let (t, c) = (Instant::now(), cpu::process_s());
        let s = serve_store(args.seed, &dir, &device, &tracer)?;
        setup_s.push(cpu::process_s() - c);
        setup_wall_s.push(t.elapsed().as_secs_f64());
        Ok(s)
    };
    let served = set_up()?;
    let doc_bytes = served.xml.len() as u64;
    let guards = mode.guards();
    let refs = references(&served.engine, guards)?;
    // The order the connections cycle the mix in, drawn from the seed.
    let mut order: Vec<usize> = (0..guards.len()).collect();
    let mut rng = SplitMix(args.seed ^ 0x0047_5541_5244);
    for i in (1..order.len()).rev() {
        order.swap(i, rng.below(i + 1));
    }
    let plan = if mode == Mode::SelectWrite {
        let names = type_instances(&served.engine, &["site", "people", "person", "name"])?;
        let people = type_instances(&served.engine, &["site", "people"])?;
        Some(WritePlan {
            people: people.first().ok_or("no site.people")?.0.to_string(),
            names: names.into_iter().map(|(d, _)| d).collect(),
            seed: args.seed,
        })
    } else {
        None
    };
    let expect = match &plan {
        Some(p) => Expect::Blanked(blanked_references(&served.xml, p, &refs)?),
        None => Expect::Exact(refs.clone()),
    };

    // Warm the engine's column cache; the measured connections are new.
    let quiet = Tracer::new(false);
    let warm = drive(
        mode,
        &served,
        &order,
        &expect,
        None,
        Duration::from_secs(2),
        &quiet,
    );
    if warm.reads.failed > 0 {
        return Err(format!("warm-up failed: {:?}", warm.reads.failures));
    }

    let store = served.engine.store().clone();
    let space0 = Space::of(&store)?;
    let window = Duration::from_secs(args.seconds);
    let writes = |part| plan.as_ref().map(|p| (p, part));
    let (untraced, traced) = if args.trace {
        let half = window / 2;
        let u = drive(mode, &served, &order, &expect, writes(0), half, &quiet);
        let pool0 = store.io_stats_snapshot();
        let t = drive(mode, &served, &order, &expect, writes(0), half, &tracer);
        (u, Some((t, store.io_stats_snapshot().since(&pool0))))
    } else {
        let parts = PARTS.min(args.seconds as u32);
        let mut done = Vec::new();
        for part in 0..parts {
            if part > 0 {
                for _ in 0..SETUPS_PER_GAP {
                    retire(set_up()?)?;
                }
            }
            let w = window / parts;
            done.push(drive(
                mode,
                &served,
                &order,
                &expect,
                writes(part),
                w,
                &quiet,
            ));
        }
        (Window::join(done), None)
    };
    let space1 = Space::of(&store)?;

    let peak_mb = median(&untraced.peaks_mb);
    let Window {
        reads,
        writes,
        wall_s,
        cpu_s,
        ..
    } = untraced;
    count(&mut out, &reads);
    count(&mut out, &writes);
    let read_ms = sorted(reads.latency_ms.clone());
    let write_ms = sorted(writes.latency_ms.clone());
    let ops = (read_ms.len() + write_ms.len()) as f64;
    let writes_ok = write_ms.len() as f64;
    let setup_med = median(&setup_s);

    // Trace-only work happens before the durability check closes the store.
    let mut layer_inputs = LayerInputs {
        doc_bytes,
        stored_user_bytes: doc_bytes,
        space: space1,
        ..LayerInputs::default()
    };
    if let Some((tw, pool)) = &traced {
        let (t_reads, t_writes) = (&tw.reads, &tw.writes);
        layer_inputs.pool = *pool;
        layer_inputs.wire_overhead_ms = t_reads.wire_overhead_ms.clone();
        layer_inputs.wire_reply_bytes = t_reads.reply_bytes.clone();
        layer_inputs.stored_user_bytes += writes.payload_bytes + t_writes.payload_bytes;
        count(&mut out, t_reads);
        count(&mut out, t_writes);
        for (g, src) in guards.iter().enumerate() {
            for _ in 0..3 {
                out.attempted += 1;
                match layers::replay_guard(&served.engine, src, mode.threads() as usize, &tracer) {
                    Ok(xml) => {
                        layer_inputs.out_bytes.push(xml.len() as f64);
                        if !expect.ok(g, &xml) {
                            out.fail(format!("replay of {src} differs from the reference"));
                        }
                    }
                    Err(e) => out.fail(e),
                }
            }
        }
        layers::engine_bytes(&served.engine, &mut layer_inputs);
        if let Some(p) = &plan {
            let cycles = (t_writes.latency_ms.len() / 3).clamp(1, 100) as u32;
            layer_inputs.stored_user_bytes += mutate_replay(&served, p, cycles, &device, &tracer)?;
        }
        // The load-path layers on this workload's document.
        let doc = served.dir.join("doc.xml");
        std::fs::write(&doc, &served.xml).map_err(|e| format!("write doc: {e}"))?;
        let (events, parse_s) = layers::parse_pass(&doc, &tracer)?;
        layer_inputs.events = events;
        layer_inputs.parse_s = parse_s;
        for budgeted in [false, true, false, true, false, true] {
            let db = served.dir.join("probe.db");
            let r = layers::shred_file(&doc, &db, budgeted, &device, &tracer, 0, tracer.next_id())?;
            layer_inputs.stored_user_bytes += doc_bytes;
            if budgeted {
                layer_inputs.shred_total_s.push(r.seconds);
                layer_inputs
                    .shred_device_s
                    .push(r.device.write_s + r.device.sync_s);
            } else {
                layer_inputs.shred_inmem_s.push(r.seconds);
            }
            drop(r);
            let _ = std::fs::remove_file(&db);
        }
    }

    layer_inputs.server = served.handle.metrics();
    layer_inputs.device = device.snapshot();
    let Served {
        dir,
        db,
        engine,
        handle,
        ..
    } = served;
    handle.shutdown().map_err(|e| format!("shutdown: {e}"))?;
    drop(engine);
    if mode == Mode::SelectWrite {
        let mut last_text = writes.last_text.clone();
        if let Some((tw, _)) = &traced {
            last_text.extend(tw.writes.last_text.clone());
        }
        check_durable(&db, &last_text, &mut out);
    }

    let dead_growth = space1.dead_bytes() as f64 - space0.dead_bytes() as f64;
    let acked = writes_ok
        + traced
            .as_ref()
            .map_or(0.0, |(tw, _)| tw.writes.latency_ms.len() as f64);
    out.e2e = crate::e2e(
        setup_med,
        cpu_s * 1e3 / ops,
        peak_mb,
        space1.amp(),
        space1.live_bytes() as f64 / doc_bytes as f64,
    );
    let m = |n: &str, u: &'static str, v: f64| Metric::new(n, u, v);
    out.detail = vec![
        m("setup_s", "s", setup_med),
        m("setup_wall_s", "s", median(&setup_wall_s)),
        m("query_qps", "1/s", read_ms.len() as f64 / wall_s),
        m("query_p50_ms", "ms", quantile(&read_ms, 0.5)),
        if mode == Mode::Reshape {
            m("query_p90_ms", "ms", quantile(&read_ms, 0.9))
        } else {
            m("query_p99_ms", "ms", quantile(&read_ms, 0.99))
        },
        m("queries", "count", read_ms.len() as f64),
    ];
    if mode == Mode::SelectWrite {
        out.detail.extend([
            m("write_p50_ms", "ms", quantile(&write_ms, 0.5)),
            m("write_p99_ms", "ms", quantile(&write_ms, 0.99)),
            m("writes", "count", writes_ok),
            m("dead_bytes_per_write", "B", dead_growth / acked),
            m(
                "client.write_late_ms",
                "ms",
                quantile(&sorted(writes.late_ms.clone()), 0.99),
            ),
        ]);
    }
    out.detail.extend([
        m("peak_heap_mb", "MB", peak_mb),
        m(
            "error_rate",
            "fraction",
            out.failed as f64 / out.attempted.max(1) as f64,
        ),
    ]);

    if let Some((
        Window {
            reads: t_reads,
            writes: t_writes,
            cpu_s: t_cpu_s,
            ..
        },
        _,
    )) = traced
    {
        let spans = tracer.take();
        let agg = aggregate(&spans);
        out.layers = layers::per_layer(&layer_inputs, &agg);
        let traced_p50 = quantile(&sorted(t_reads.latency_ms.clone()), 0.5);
        let untraced_p50 = quantile(&read_ms, 0.5);
        let traced_cpu =
            t_cpu_s * 1e3 / (t_reads.latency_ms.len() + t_writes.latency_ms.len()) as f64;
        let untraced_cpu = cpu_s * 1e3 / ops;
        let mut report = String::new();
        let _ = writeln!(
            report,
            "Per query (mean over {} traced round trips): wire self time, server-reported compile and render.\n",
            t_reads.latency_ms.len()
        );
        crate::self_time_table(
            &mut report,
            &agg,
            &["wire.query", "server.compile", "server.render"],
            "wire.query",
        );
        let _ = writeln!(
            report,
            "\nIn-process replay of each guard ({} replays): the compile phase split into its layers.\n",
            guards.len() * 3
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
        if plan.is_some() {
            let mutate: Vec<f64> = ["mutate.update", "mutate.insert", "mutate.delete"]
                .iter()
                .filter_map(|n| agg.get(n))
                .flat_map(|t| t.durations_ms.iter().copied())
                .collect();
            let write_overhead = median(&t_writes.rtt_ms) - median(&mutate);
            let _ = writeln!(
                report,
                "\nPer write ({} traced): wire round trip {:.4} ms (median); `Engine::mutate` replayed on a twin \
                 store: update {:.4} ms, insert {:.4} ms, delete {:.4} ms (means); wire and queue overhead \
                 {write_overhead:.4} ms (round-trip median minus mutate median).",
                t_writes.rtt_ms.len(),
                median(&t_writes.rtt_ms),
                layers::mean_ms(&agg, "mutate.update"),
                layers::mean_ms(&agg, "mutate.insert"),
                layers::mean_ms(&agg, "mutate.delete"),
            );
            out.detail.extend([
                m(
                    "mutate.update_ms",
                    "ms",
                    layers::mean_ms(&agg, "mutate.update"),
                ),
                m(
                    "mutate.insert_ms",
                    "ms",
                    layers::mean_ms(&agg, "mutate.insert"),
                ),
                m(
                    "mutate.delete_ms",
                    "ms",
                    layers::mean_ms(&agg, "mutate.delete"),
                ),
                m("wire.write_overhead_ms", "ms", write_overhead),
            ]);
        }
        let _ = writeln!(
            report,
            "\nTracing overhead: query p50 {traced_p50:.4} ms traced vs {untraced_p50:.4} ms untraced ({:+.1}%); \
             CPU per operation {traced_cpu:.4} ms traced vs {untraced_cpu:.4} ms untraced ({:+.1}%).",
            (traced_p50 / untraced_p50 - 1.0) * 100.0,
            (traced_cpu / untraced_cpu - 1.0) * 100.0
        );
        out.report = report;
        out.spans = spans;
    }
    let _ = std::fs::remove_dir_all(&dir);
    Ok(out)
}
