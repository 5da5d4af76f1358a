//! Workload-scale smoke tests: the benchmark guards run end-to-end on
//! each generated dataset, outputs are well-formed, and basic counts
//! line up with the sources.

use xmorph_core::{Guard, ShreddedDoc};
use xmorph_datagen::{DblpConfig, NasaConfig, XmarkConfig};
use xmorph_pagestore::Store;
use xmorph_xml::dom::Document;

fn shred(xml: &str) -> (Store, ShreddedDoc) {
    let store = Store::in_memory();
    let doc = ShreddedDoc::shred_str(&store, xml).unwrap();
    (store, doc)
}

#[test]
fn xmark_mutate_site_round_trips_structure() {
    let xml = XmarkConfig {
        factor: 0.005,
        ..Default::default()
    }
    .generate();
    let src = Document::parse_str(&xml).unwrap();
    let (_store, doc) = shred(&xml);
    let out = Guard::parse("MUTATE site").unwrap().apply(&doc).unwrap();
    let out_doc = Document::parse_str(&out.xml).unwrap();
    // The identity mutation preserves the element count (modulo the
    // <result> wrapper); attribute vertices render back as attributes.
    assert_eq!(out_doc.element_count(), src.element_count() + 1);
    assert_eq!(count_attrs(&out_doc), count_attrs(&src));
}

fn count_attrs(doc: &Document) -> usize {
    doc.descendant_elements(doc.root_element().unwrap())
        .into_iter()
        .map(|n| doc.attrs(n).len())
        .sum()
}

#[test]
fn xmark_guards_from_the_benchmarks_run() {
    let xml = XmarkConfig {
        factor: 0.005,
        ..Default::default()
    }
    .generate();
    let (_store, doc) = shred(&xml);
    for guard in [
        "MORPH people [ person [ address [ city ] ] ]",
        "MORPH item [ name location quantity ]",
        "MORPH person [ name emailaddress ]",
        "MORPH open_auction [ initial current itemref ]",
    ] {
        let out = Guard::parse(guard).unwrap().apply(&doc).unwrap();
        assert!(Document::parse_str(&out.xml).is_ok(), "{guard}");
        assert!(out.xml.len() > 20, "{guard}: {}", out.xml);
    }
}

#[test]
fn dblp_morphs_match_record_counts() {
    let cfg = DblpConfig {
        records: 400,
        ..Default::default()
    };
    let xml = cfg.generate();
    let src = Document::parse_str(&xml).unwrap();
    let root = src.root_element().unwrap();
    let author_count: usize = src
        .children(root)
        .map(|r| src.children_named(r, "author").count())
        .sum();

    let (_store, doc) = shred(&xml);
    let out = Guard::parse("MORPH author").unwrap().apply(&doc).unwrap();
    assert_eq!(out.xml.matches("<author>").count(), author_count);

    // The medium guard nests titles under authors: one title per record
    // per author.
    let out = Guard::parse("CAST-WIDENING MORPH author [title [year]]")
        .unwrap()
        .apply(&doc)
        .unwrap();
    assert_eq!(out.xml.matches("<title>").count(), author_count);
    assert_eq!(out.xml.matches("<year>").count(), author_count);
}

#[test]
fn nasa_deep_chain_renders() {
    let xml = NasaConfig {
        datasets: 30,
        ..Default::default()
    }
    .generate();
    let (_store, doc) = shred(&xml);
    let out = Guard::parse("MORPH dataset [ reference [ source [ other [ title ] ] ] ]")
        .unwrap()
        .apply(&doc)
        .unwrap();
    let out_doc = Document::parse_str(&out.xml).unwrap();
    let root = out_doc.root_element().unwrap();
    assert_eq!(out_doc.children_named(root, "dataset").count(), 30);
}

#[test]
fn compile_phase_is_data_size_independent() {
    // The Fig. 10 claim in test form: quadrupling the data changes the
    // compile (analysis) cost far less than the render cost.
    use std::time::Instant;
    let small = XmarkConfig {
        factor: 0.004,
        ..Default::default()
    }
    .generate();
    let large = XmarkConfig {
        factor: 0.016,
        ..Default::default()
    }
    .generate();
    let (_s1, doc_small) = shred(&small);
    let (_s2, doc_large) = shred(&large);
    let guard = Guard::parse("MUTATE site").unwrap();

    let compile_time = |doc: &ShreddedDoc| {
        let t = Instant::now();
        for _ in 0..5 {
            guard.analyze(&doc.snapshot()).unwrap();
        }
        t.elapsed()
    };
    let t_small = compile_time(&doc_small);
    let t_large = compile_time(&doc_large);
    // Compile touches only the adorned shape: both documents have
    // essentially the same shape, so the ratio stays far below the 4×
    // data ratio (allow generous noise).
    let ratio = t_large.as_secs_f64() / t_small.as_secs_f64().max(1e-9);
    assert!(ratio < 3.0, "compile scaled with data size: ratio {ratio}");
}
