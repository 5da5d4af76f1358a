//! Scaling experiment (repository extension, not a paper figure): how the
//! sharded buffer pool and the parallel guard-evaluation driver behave as
//! the thread count grows.
//!
//! Two tables:
//!
//! 1. **Buffer-pool read throughput** — T threads hammer point reads on a
//!    cache-resident tree. With the pool sharded by page id, hits on
//!    distinct shards never contend on a common lock, so aggregate
//!    throughput should climb monotonically from 1 to 4 threads. The same
//!    workload on a single-shard pool shows the serialized baseline.
//! 2. **Parallel guard evaluation** — the `MUTATE site` / benchmark
//!    MORPHs of §IX run through the [`Engine`] facade at growing thread
//!    counts, with speed-up over the sequential renderer and a
//!    byte-identity check against it.
//! 3. **Mixed read/write workload** — 8 reader threads at full probe
//!    rate race a paced mutation stream (~1% of the document per
//!    second). Readers pin copy-on-write snapshots, so throughput must
//!    hold near the read-only rate and every observed render must be
//!    byte-identical to the render of *some* prefix of the applied
//!    mutations (precomputed on a twin engine) — zero torn reads.
//!
//! Flags: `--scale <f>` scales the document, `--smoke` shrinks the
//! mixed workload to a CI-sized correctness gate, `--json` writes
//! `BENCH_PR9.json` in the current directory.

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};
use xmorph_bench::harness::{prepare, StoreKind};
use xmorph_bench::table::Table;
use xmorph_core::render::{render_snapshot, RenderOptions};
use xmorph_core::{Engine, Guard, Mutation, QueryRequest};
use xmorph_datagen::XmarkConfig;
use xmorph_pagestore::Store;
use xmorph_xml::dom::Document;

const THREADS: [usize; 4] = [1, 2, 3, 4];

/// Reader threads in the mixed workload (fixed by the experiment).
const READERS: usize = 8;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let json = args.iter().any(|a| a == "--json");
    let scale = xmorph_bench::parse_scale();
    println!("Scaling — sharded buffer pool and parallel guard evaluation\n");
    if !smoke {
        pool_throughput(scale);
        parallel_eval(scale);
    }
    let mixed = mixed_workload(scale, smoke);
    if json {
        let path = "BENCH_PR9.json";
        std::fs::write(path, render_json(&mixed, smoke)).expect("write BENCH_PR9.json");
        println!("\nwrote {path}");
    }
    assert_eq!(
        mixed.divergences, 0,
        "snapshot isolation violated: a reader observed a render matching no mutation prefix"
    );
    if !smoke {
        assert!(
            mixed.ratio() >= 0.8,
            "readers sustained only {:.0}% of the read-only rate under mutation",
            mixed.ratio() * 100.0
        );
    }
}

/// Keys per reader thread per timed run.
fn read_workload(scale: f64) -> usize {
    ((40_000.0 * scale) as usize).max(1_000)
}

fn pool_throughput(scale: f64) {
    let keys = 20_000usize;
    let reads = read_workload(scale);
    // Capacity covers the whole tree: the experiment measures lock
    // contention on cache hits, not eviction traffic.
    let capacity = 4096;

    // Explicit shard count: `default_shard_count` adapts to the host CPU
    // count, but the experiment wants the sharded layout even on small
    // machines so the two columns always compare sharded vs serialized.
    let sharded = Store::options().capacity(capacity).shards(8).open_memory();
    let single = Store::options().capacity(capacity).shards(1).open_memory();

    let mut table = Table::new(&[
        "threads",
        "sharded Mreads/s",
        "1-shard Mreads/s",
        "speed-up vs 1 thread",
    ]);
    let mut base = 0.0f64;
    for &t in &THREADS {
        let m_sharded = measure_reads(&sharded, keys, reads, t);
        let m_single = measure_reads(&single, keys, reads, t);
        if t == 1 {
            base = m_sharded;
        }
        table.row(&[
            t.to_string(),
            format!("{m_sharded:.2}"),
            format!("{m_single:.2}"),
            format!("{:.2}x", m_sharded / base),
        ]);
    }
    println!(
        "Buffer-pool point reads ({} keys, {} reads/thread, {} shards):\n",
        keys,
        reads,
        sharded.shard_count()
    );
    table.print();
    println!();
}

/// Aggregate read throughput (million reads/second) with `threads`
/// concurrent readers, each walking the key space from its own offset.
fn measure_reads(store: &Store, keys: usize, reads: usize, threads: usize) -> f64 {
    let tree = store.open_tree("readbench").expect("tree");
    if tree.is_empty().expect("len") {
        for i in 0..keys {
            tree.insert(&(i as u64).to_be_bytes(), &[0u8; 64])
                .expect("insert");
        }
    }
    let done = AtomicUsize::new(0);
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for worker in 0..threads {
            let tree = &tree;
            let done = &done;
            s.spawn(move || {
                // Co-prime stride so workers spread across shards.
                let stride = 7 + 2 * worker;
                let mut k = worker * keys / threads.max(1);
                for _ in 0..reads {
                    k = (k + stride) % keys;
                    let got = tree.get(&(k as u64).to_be_bytes()).expect("get");
                    assert!(got.is_some());
                }
                done.fetch_add(reads, Ordering::Relaxed);
            });
        }
    });
    let elapsed = t0.elapsed().as_secs_f64().max(1e-9);
    done.load(Ordering::Relaxed) as f64 / elapsed / 1e6
}

fn parallel_eval(scale: f64) {
    let factor = 0.05 * scale;
    let xml = XmarkConfig::with_factor(factor).generate();
    let prep = prepare(&xml, StoreKind::Memory);
    let engine = Engine::from_parts(prep.bench_store.store.clone(), prep.doc);
    let mut session = engine.session();
    let guards = [
        "MUTATE site",
        "MORPH people [ person [ address [ city ] ] ]",
        "MORPH item [ name location quantity ]",
    ];

    println!(
        "Parallel guard evaluation (XMark factor {factor}, {} bytes):\n",
        xml.len()
    );
    let mut table = Table::new(&["guard", "threads", "render s", "speed-up", "byte-identical"]);
    for guard_text in guards {
        // Sequential baseline via the raw renderer — the primitive the
        // Engine's partitioned render must stay byte-identical to.
        let guard = Guard::parse(guard_text).expect("guard");
        let snap = engine.snapshot();
        let analysis = guard.analyze(&snap).expect("analyze");
        let (sequential, seq_time) = timed(|| {
            render_snapshot(&snap, &analysis.target, &RenderOptions::default()).expect("render")
        });
        table.row(&[
            guard_text.to_string(),
            "seq".to_string(),
            format!("{:.3}", seq_time.as_secs_f64()),
            "1.00x".to_string(),
            "-".to_string(),
        ]);
        for &t in &THREADS {
            let request = QueryRequest::builder(guard_text)
                .threads(t)
                .stats(true)
                .build();
            let response = session.query(&request).expect("engine query");
            // The per-query stats frame isolates render time from the
            // (cached) guard compile.
            let par_time = response.stats.expect("stats requested").render;
            let identical = response.xml == sequential;
            assert!(
                identical,
                "parallel output diverged for {guard_text} at {t} threads"
            );
            table.row(&[
                String::new(),
                t.to_string(),
                format!("{:.3}", par_time.as_secs_f64()),
                format!(
                    "{:.2}x",
                    seq_time.as_secs_f64() / par_time.as_secs_f64().max(1e-9)
                ),
                "yes".to_string(),
            ]);
        }
        // The output stays well-formed XML, not just byte-stable.
        assert!(Document::parse_str(&sequential).is_ok());
    }
    table.print();
    println!(
        "\npaper shape to check: render wall time falls as threads grow while\n\
         every parallel run stays byte-identical to the sequential output."
    );
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed())
}

struct MixedResult {
    xmark_factor: f64,
    read_only_qps: f64,
    mixed_qps: f64,
    mutations_applied: usize,
    divergences: u64,
    reads_mixed: u64,
}

impl MixedResult {
    fn ratio(&self) -> f64 {
        if self.read_only_qps <= 0.0 {
            return 1.0;
        }
        self.mixed_qps / self.read_only_qps
    }
}

/// The mixed read/write experiment: measure reader throughput with the
/// writer idle, then re-run the same reader pool while a single writer
/// applies a paced mutation stream. Correctness is checked against a
/// twin engine that applies the same mutations sequentially: every
/// render a reader observes must equal the canary render of some
/// prefix of the stream.
fn mixed_workload(scale: f64, smoke: bool) -> MixedResult {
    let factor = if smoke { 0.004 } else { 0.05 * scale };
    let xml = XmarkConfig::with_factor(factor).generate();
    let engine = Engine::from_xml(&xml).expect("shred");
    let canary = "MORPH person [ name ]";

    // The mutation stream: mostly text updates on one person's name
    // (each changes the canary render), with periodic subtree inserts
    // so column maintenance and shape widening stay in the loop. Rate
    // targets ~1% of the document's vertices per second.
    let (name_dewey, people_dewey, total_instances) = {
        let doc = engine.doc();
        let name_t = doc
            .types()
            .lookup(&[
                "site".to_string(),
                "people".to_string(),
                "person".to_string(),
                "name".to_string(),
            ])
            .expect("xmark person name type");
        let first = doc.scan_type(name_t).remove(0).0;
        let person = first.parent().expect("name has a person parent");
        let people = person.parent().expect("person has a people parent");
        (first, people, doc.shape().total_instances())
    };
    let n_mutations = if smoke {
        10
    } else {
        ((total_instances as f64 / 100.0) as usize).clamp(20, 300)
    };
    let interval = if smoke {
        Duration::from_millis(2)
    } else {
        // 1%/s: each mutation touches ~1 vertex, so pace the stream at
        // total/100 mutations per second.
        Duration::from_secs_f64(100.0 / (total_instances as f64).max(100.0))
    };
    let mutations: Vec<Mutation> = (0..n_mutations)
        .map(|k| {
            if k % 5 == 4 {
                Mutation::InsertSubtree {
                    parent: people_dewey.clone(),
                    xml: format!("<person><name>NEW{k}</name></person>"),
                }
            } else {
                Mutation::UpdateText {
                    target: name_dewey.clone(),
                    text: format!("V{k}"),
                }
            }
        })
        .collect();

    // Twin precompute: the canary render after every prefix of the
    // stream. The twin replays the identical mutation values, so its
    // renders are exactly the states a correct snapshot may pin.
    let req = QueryRequest::builder(canary).threads(1).build();
    let twin = Engine::from_xml(&xml).expect("twin shred");
    let mut expected: HashSet<String> = HashSet::new();
    expected.insert(twin.query(&req).expect("twin query").xml);
    for m in &mutations {
        twin.mutate(m).expect("twin mutate");
        expected.insert(twin.query(&req).expect("twin query").xml);
    }

    let window = interval * (n_mutations as u32);
    println!(
        "Mixed workload (XMark factor {factor}, {} vertices, {READERS} readers,\n\
         {n_mutations} mutations over {window:?}):\n",
        total_instances
    );

    // Phase A: read-only probe rate over the same wall window.
    let baseline = expected.contains(&engine.query(&req).expect("baseline query").xml);
    assert!(baseline, "pre-mutation render must match prefix 0");
    let (reads_a, elapsed_a, div_a) = reader_pool(&engine, &req, &expected, |stop| {
        std::thread::sleep(window);
        stop.store(true, Ordering::Relaxed);
    });
    let read_only_qps = reads_a as f64 / elapsed_a.max(1e-9);

    // Phase B: same readers, with the writer pacing the stream.
    let applied = AtomicUsize::new(0);
    let (reads_b, elapsed_b, div_b) = reader_pool(&engine, &req, &expected, |stop| {
        for m in &mutations {
            std::thread::sleep(interval);
            engine.mutate(m).expect("mutate");
            applied.fetch_add(1, Ordering::Relaxed);
        }
        stop.store(true, Ordering::Relaxed);
    });
    let mixed_qps = reads_b as f64 / elapsed_b.max(1e-9);
    let result = MixedResult {
        xmark_factor: factor,
        read_only_qps,
        mixed_qps,
        mutations_applied: applied.load(Ordering::Relaxed),
        divergences: div_a + div_b,
        reads_mixed: reads_b,
    };

    let mut table = Table::new(&["phase", "reads", "reads/s", "divergences"]);
    table.row(&[
        "read-only".to_string(),
        reads_a.to_string(),
        format!("{read_only_qps:.0}"),
        div_a.to_string(),
    ]);
    table.row(&[
        format!("+{} mutations", result.mutations_applied),
        reads_b.to_string(),
        format!("{mixed_qps:.0}"),
        div_b.to_string(),
    ]);
    table.print();
    println!(
        "\nreaders sustained {:.0}% of the read-only rate under the mutation stream",
        result.ratio() * 100.0
    );
    result
}

/// Run [`READERS`] threads looping the canary query until `stop`;
/// `driver` runs on the calling thread and must eventually set `stop`.
/// Every observed render is checked for membership in `expected`.
/// Returns (total reads, elapsed seconds, divergences).
fn reader_pool(
    engine: &Engine,
    req: &QueryRequest,
    expected: &HashSet<String>,
    driver: impl FnOnce(&AtomicBool),
) -> (u64, f64, u64) {
    let stop = AtomicBool::new(false);
    let reads = AtomicUsize::new(0);
    let divergences = AtomicUsize::new(0);
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..READERS {
            let stop = &stop;
            let reads = &reads;
            let divergences = &divergences;
            s.spawn(move || {
                let mut session = engine.session();
                while !stop.load(Ordering::Relaxed) {
                    let xml = session.query(req).expect("reader query").xml;
                    if !expected.contains(&xml) {
                        divergences.fetch_add(1, Ordering::Relaxed);
                    }
                    reads.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        driver(&stop);
    });
    (
        reads.load(Ordering::Relaxed) as u64,
        t0.elapsed().as_secs_f64(),
        divergences.load(Ordering::Relaxed) as u64,
    )
}

fn render_json(mixed: &MixedResult, smoke: bool) -> String {
    let mut s = String::from("{\n");
    s.push_str("  \"bench\": \"fig_scaling_mixed\",\n");
    s.push_str(&format!("  \"smoke\": {smoke},\n"));
    s.push_str(&format!("  \"xmark_factor\": {},\n", mixed.xmark_factor));
    s.push_str(&format!("  \"readers\": {READERS},\n"));
    s.push_str("  \"threads_per_query\": 1,\n");
    s.push_str(&format!(
        "  \"read_only_qps\": {:.1},\n",
        mixed.read_only_qps
    ));
    s.push_str(&format!("  \"mixed_qps\": {:.1},\n", mixed.mixed_qps));
    s.push_str(&format!("  \"ratio\": {:.3},\n", mixed.ratio()));
    s.push_str(&format!(
        "  \"mutations_applied\": {},\n",
        mixed.mutations_applied
    ));
    s.push_str(&format!("  \"reads_mixed\": {},\n", mixed.reads_mixed));
    s.push_str(&format!("  \"divergences\": {}\n", mixed.divergences));
    s.push_str("}\n");
    s
}
