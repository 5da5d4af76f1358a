//! Micro-benchmarks of the building blocks: XML parsing, shredding,
//! B+tree operations, Dewey closest joins, guard compilation.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use xmorph_core::{Guard, ShreddedDoc};
use xmorph_datagen::{DblpConfig, XmarkConfig};
use xmorph_pagestore::Store;
use xmorph_xml::dom::Document;
use xmorph_xml::reader::{XmlEvent, XmlReader};

fn bench_xml(c: &mut Criterion) {
    let xml = DblpConfig::with_approx_bytes(200_000).generate();
    let mut group = c.benchmark_group("micro_xml");
    group.sample_size(20);
    group.bench_function("pull_parse_200kb", |b| {
        b.iter(|| {
            let mut r = XmlReader::new(&xml);
            let mut n = 0usize;
            loop {
                match r.next_event().unwrap() {
                    XmlEvent::Eof => break,
                    _ => n += 1,
                }
            }
            black_box(n)
        })
    });
    group.bench_function("dom_parse_200kb", |b| {
        b.iter(|| black_box(Document::parse_str(&xml).unwrap().node_count()))
    });
    let doc = Document::parse_str(&xml).unwrap();
    group.bench_function("serialize_200kb", |b| {
        b.iter(|| black_box(doc.serialize_compact().len()))
    });
    group.finish();
}

fn bench_btree(c: &mut Criterion) {
    let mut group = c.benchmark_group("micro_btree");
    group.sample_size(20);
    group.bench_function("insert_10k", |b| {
        b.iter(|| {
            let store = Store::in_memory();
            let tree = store.open_tree("t").unwrap();
            for i in 0..10_000u32 {
                tree.insert(&i.to_be_bytes(), b"value-payload").unwrap();
            }
            black_box(store.page_count())
        })
    });
    let store = Store::in_memory();
    let tree = store.open_tree("t").unwrap();
    for i in 0..10_000u32 {
        tree.insert(&i.to_be_bytes(), b"value-payload").unwrap();
    }
    group.bench_function("point_get_x1000", |b| {
        b.iter(|| {
            for i in (0..10_000u32).step_by(10) {
                black_box(tree.get(&i.to_be_bytes()).unwrap());
            }
        })
    });
    group.bench_function("full_scan_10k", |b| {
        b.iter(|| black_box(tree.range(..).count()))
    });
    group.finish();
}

fn bench_core(c: &mut Criterion) {
    let xml = XmarkConfig::with_factor(0.01).generate();
    let mut group = c.benchmark_group("micro_core");
    group.sample_size(10);
    group.bench_function("shred_xmark_0.01", |b| {
        b.iter(|| {
            let store = Store::in_memory();
            black_box(ShreddedDoc::shred_str(&store, &xml).unwrap().types().len())
        })
    });
    let store = Store::in_memory();
    let doc = ShreddedDoc::shred_str(&store, &xml).unwrap();
    group.bench_function("guard_parse", |b| {
        b.iter(|| {
            black_box(
                Guard::parse("MORPH person [ name emailaddress profile [ interest ] ]").unwrap(),
            )
        })
    });
    let guard = Guard::parse("MORPH person [ name emailaddress ]").unwrap();
    group.bench_function("guard_analyze", |b| {
        b.iter(|| black_box(guard.analyze(&doc.snapshot()).unwrap()))
    });
    group.finish();
}

criterion_group!(benches, bench_xml, bench_btree, bench_core);
criterion_main!(benches);
