//! Soundness of the information-loss analysis (§V-B, Theorems 1–2),
//! validated against *materialized* closest graphs.
//!
//! The analysis predicts, before touching data, whether a transformation
//! is inclusive (no closest edge lost) and/or non-additive (none
//! created). These tests actually transform documents — rendering with
//! source tagging so every output vertex maps back to its source vertex —
//! materialize `closest(source)` and `closest(xform(source))` per Defs.
//! 1–2, and check the subset relations of Def. 5:
//!
//! * analysis says inclusive   ⇒ `G|retained ⊆ H`
//! * analysis says non-additive ⇒ `H ⊆ G`
//!
//! This is exactly the reversibility experiment the paper argues should
//! be *avoidable* thanks to the theorems; running it validates them.
//!
//! The analysis itself is checked against an oracle too: the pairwise
//! form of the Theorem 1/2 checks, which walks one path per ordered pair
//! of target nodes, must produce the identical [`LossReport`] as the
//! one-pass analysis the library runs.

use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use xmorph_core::analysis::analyze_loss;
use xmorph_core::model::card::Card;
use xmorph_core::model::closest::{closest_graph_of, typed_vertices};
use xmorph_core::render::{render_snapshot, RenderOptions};
use xmorph_core::report::LossFinding;
use xmorph_core::semantics::eval::{eval_guard, EvalCtx};
use xmorph_core::semantics::shape::{SId, Shape};
use xmorph_core::{Guard, LossReport, ShreddedDoc, TypeId};
use xmorph_pagestore::Store;
use xmorph_xml::dewey::Dewey;
use xmorph_xml::dom::Document;

/// Source-vertex-identified closest edges of a document. `retained`
/// filters vertices by their source *type* (root path) — label
/// resolution retains types, not names.
fn source_edges(
    doc: &Document,
    retained: &BTreeSet<Vec<String>>,
) -> (BTreeSet<Dewey>, BTreeSet<(Dewey, Dewey)>) {
    let (types, vertices) = typed_vertices(doc);
    let graph = closest_graph_of(&vertices);
    let name_of: BTreeMap<Dewey, Vec<String>> = vertices
        .iter()
        .map(|(d, t)| (d.clone(), types.path(*t).to_vec()))
        .collect();
    let keep = |d: &Dewey| retained.contains(&name_of[d]);
    let vs = graph.vertices.iter().filter(|d| keep(d)).cloned().collect();
    let es = graph
        .edges
        .iter()
        .filter(|(a, b)| keep(a) && keep(b))
        .cloned()
        .collect();
    (vs, es)
}

/// Vertex set, edge set, and retained type paths of a transformed
/// instance.
type MappedGraph = (
    BTreeSet<Dewey>,
    BTreeSet<(Dewey, Dewey)>,
    BTreeSet<Vec<String>>,
);

/// Transform `xml` with `guard`, mapping output vertices back to source
/// Dewey ids via `data-src` tags; returns the mapped vertex and edge sets
/// of `closest(xform(...))`, plus the retained source element names.
fn transformed_edges(guard: &Guard, xml: &str) -> Option<MappedGraph> {
    let store = Store::in_memory();
    let doc = ShreddedDoc::shred_str(&store, xml).expect("shred");
    let snap = doc.snapshot();
    let analysis = guard.analyze(&snap).ok()?;
    let out = render_snapshot(
        &snap,
        &analysis.target,
        &RenderOptions {
            wrapper: Some("w".into()),
            tag_source: true,
            ..Default::default()
        },
    )
    .expect("render");
    let out_doc = Document::parse_str(&out).expect("output parses");

    // The retained source types: the bases of the target shape.
    let mut retained: BTreeSet<Vec<String>> = BTreeSet::new();
    for n in analysis.target.preorder() {
        if let Some(base) = analysis.target.nodes[n].base {
            retained.insert(doc.types().path(base).to_vec());
        }
    }

    // Map output elements to source vertices, and source vertices to
    // their source types.
    let src_doc = Document::parse_str(xml).expect("source parses");
    let (src_types, src_vertices) = typed_vertices(&src_doc);
    let src_type_of: BTreeMap<Dewey, Vec<String>> = src_vertices
        .iter()
        .map(|(d, t)| (d.clone(), src_types.path(*t).to_vec()))
        .collect();
    let mut src_of: BTreeMap<Dewey, Dewey> = BTreeMap::new();
    for (node, dewey) in out_doc.dewey_map() {
        if let Some(tag) = out_doc.attr(node, "data-src") {
            src_of.insert(dewey, tag.parse().expect("dewey tag"));
        }
    }

    // Closest graph of the *output* instance. Formally H =
    // closest(xform(G, R)) types vertices by their **R-type**: two
    // distinct source types selected by one ambiguous label stay
    // distinct types even when they render with the same element name.
    // We realize R-typing as the composite (output root path, source
    // type path). Only tagged elements participate (the wrapper and
    // data-src attributes are harness metadata, not data).
    let mut composite_types = xmorph_core::TypeTable::new();
    let mut tagged: Vec<(Dewey, xmorph_core::TypeId)> = Vec::new();
    for (node, dewey) in out_doc.dewey_map() {
        let Some(src) = src_of.get(&dewey) else {
            continue;
        };
        let mut key = out_doc.root_path(node);
        key.push("##".to_string());
        key.extend(src_type_of[src].iter().cloned());
        let t = composite_types.intern(&key);
        tagged.push((dewey, t));
    }
    // The wrapper element participates as the shared document root
    // (every vertex's Dewey passes through it), exactly as the rendered
    // document's structure has it.
    let graph = closest_graph_of(&tagged);

    let vs: BTreeSet<Dewey> = graph.vertices.iter().map(|d| src_of[d].clone()).collect();
    let mut es: BTreeSet<(Dewey, Dewey)> = BTreeSet::new();
    for (a, b) in &graph.edges {
        let (sa, sb) = (src_of[a].clone(), src_of[b].clone());
        if sa == sb {
            continue; // a vertex duplicated next to itself
        }
        let pair = if sa <= sb { (sa, sb) } else { (sb, sa) };
        es.insert(pair);
    }
    Some((vs, es, retained))
}

/// Assert the theorem guarantees for one (guard, document) pair.
fn check_guarantees(guard_text: &str, xml: &str) {
    let guard = Guard::parse(guard_text).expect("guard parses");
    let store = Store::in_memory();
    let doc = ShreddedDoc::shred_str(&store, xml).expect("shred");
    let Ok(analysis) = guard.analyze(&doc.snapshot()) else {
        return; // type mismatch: nothing to validate
    };
    let src_doc = Document::parse_str(xml).expect("source parses");
    let Some((h_vertices, h_edges, retained)) = transformed_edges(&guard, xml) else {
        return;
    };
    let (g_vertices, g_edges) = source_edges(&src_doc, &retained);

    if analysis.loss.inclusive {
        assert!(
            g_vertices.is_subset(&h_vertices),
            "guard {guard_text:?} on {xml}: claimed inclusive but vertices lost: {:?}",
            g_vertices.difference(&h_vertices).collect::<Vec<_>>()
        );
        assert!(
            g_edges.is_subset(&h_edges),
            "guard {guard_text:?} on {xml}: claimed inclusive but closest edges lost: {:?}",
            g_edges.difference(&h_edges).collect::<Vec<_>>()
        );
    }
    if analysis.loss.non_additive {
        assert!(
            h_edges.is_subset(&g_edges),
            "guard {guard_text:?} on {xml}: claimed non-additive but edges manufactured: {:?}",
            h_edges.difference(&g_edges).collect::<Vec<_>>()
        );
    }
}

// ---- fixed paper scenarios ----

const FIG1A: &str = "<data>\
    <book><title>X</title><author><name>Tim</name></author><publisher><name>W</name></publisher></book>\
    <book><title>Y</title><author><name>Tim</name></author><publisher><name>V</name></publisher></book>\
    </data>";

const FIG1B: &str = "<data>\
    <publisher><name>W</name><book><title>X</title><author><name>Tim</name></author></book></publisher>\
    <publisher><name>V</name><book><title>Y</title><author><name>Tim</name></author></book></publisher>\
    </data>";

const FIG1C: &str = "<data>\
    <author><name>Tim</name>\
      <book><title>X</title><publisher><name>W</name></publisher></book>\
      <book><title>Y</title><publisher><name>V</name></publisher></book>\
    </author></data>";

const GUARDS: &[&str] = &[
    "MORPH author [ name book [ title ] ]",
    "MORPH book [ title author [ name ] ]",
    "MORPH title [ publisher.name ]",
    "MORPH author [ !title name publisher [ name ] ]",
    "MORPH data [ title ]",
    "MORPH publisher [ name book.title ]",
    "MUTATE book [ publisher [ name ] ]",
    "MUTATE author.name [ author ]",
    "MORPH name [ title ]",
    "MORPH author [ title publisher ]",
];

#[test]
fn paper_guards_on_all_three_instances() {
    for guard in GUARDS {
        for xml in [FIG1A, FIG1B, FIG1C] {
            check_guarantees(guard, xml);
        }
    }
}

#[test]
fn optional_children_scenarios() {
    // Authors without names, books without awards — the cardinality-zero
    // cases the theorems hinge on.
    let optional = "<data>\
        <author><name>A</name><book><title>X</title></book></author>\
        <author><book><title>Y</title></book></author>\
        </data>";
    for guard in [
        "CAST MUTATE author.name [ author ]",
        "CAST MORPH name [ author [ title ] ]",
        "CAST MORPH author [ name title ]",
        "CAST MORPH title [ name ]",
    ] {
        check_guarantees(guard, optional);
    }
}

// ---- randomized scenarios ----

/// A small random library document: books with optional/multiple
/// authors, optional publisher, varying counts.
fn random_library() -> impl Strategy<Value = String> {
    let book = (
        0usize..3, // authors
        proptest::bool::ANY,
        proptest::bool::ANY, // has publisher / has award
    );
    proptest::collection::vec(book, 1..5).prop_map(|books| {
        let mut s = String::from("<lib>");
        for (i, (authors, has_pub, has_award)) in books.iter().enumerate() {
            s.push_str("<book>");
            s.push_str(&format!("<title>T{i}</title>"));
            for a in 0..*authors {
                s.push_str(&format!("<author><name>A{a}</name></author>"));
            }
            if *has_pub {
                s.push_str(&format!("<publisher><name>P{}</name></publisher>", i % 2));
            }
            if *has_award {
                s.push_str("<award>prize</award>");
            }
            s.push_str("</book>");
        }
        s.push_str("</lib>");
        s
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn guarantees_hold_on_random_libraries(
        xml in random_library(),
        guard_idx in 0usize..8,
    ) {
        let guards = [
            "CAST MORPH author [ name book.title ]",
            "CAST MORPH book [ title author [ name ] ]",
            "CAST MORPH title [ author ]",
            "CAST MORPH publisher [ name title ]",
            "CAST MORPH award [ title ]",
            "CAST MUTATE book [ award ]",
            "CAST MORPH lib [ title ]",
            "CAST MORPH author.name [ title ]",
        ];
        check_guarantees(guards[guard_idx], &xml);
    }
}

// ---- the pairwise oracle for the loss analysis ----

/// Path cardinality (Def. 6) by the direct walk: mark the ancestors of
/// `a`, then multiply edge cards from `b` up to the first marked node,
/// or past `b`'s root when the two share none (the virtual forest root).
fn oracle_path_card(shape: &Shape, a: SId, b: SId) -> Card {
    let mut anc = vec![false; shape.nodes.len()];
    let mut cur = Some(a);
    while let Some(c) = cur {
        anc[c] = true;
        cur = shape.nodes[c].parent;
    }
    let mut card = Card::one();
    let mut cur = b;
    loop {
        if anc[cur] {
            return card;
        }
        card = card.mul(shape.nodes[cur].card);
        match shape.nodes[cur].parent {
            Some(p) => cur = p,
            None => return card,
        }
    }
}

/// The Theorem 1/2 analysis in its pairwise form: one path walk per
/// ordered pair of target nodes, findings deduplicated by their debug
/// text.
fn oracle_analyze_loss(
    src: &Shape,
    tgt: &Shape,
    instance_count: impl Fn(SId) -> u64,
) -> LossReport {
    let mut findings: Vec<LossFinding> = Vec::new();
    let mut seen: BTreeSet<String> = BTreeSet::new();
    let mut inclusive = true;
    let mut non_additive = true;
    let mut push = |f: LossFinding| {
        if seen.insert(format!("{f:?}")) {
            findings.push(f);
        }
    };
    let nodes = tgt.preorder();
    for &n in &nodes {
        if tgt.nodes[n].is_clone {
            non_additive = false;
            let type_name = tgt.nodes[n]
                .origin
                .map(|o| src.dotted(o))
                .unwrap_or_else(|| tgt.nodes[n].name.clone());
            push(LossFinding::CloneAdds { type_name });
        }
        if tgt.nodes[n].is_new {
            non_additive = false;
            push(LossFinding::NewAdds {
                name: tgt.nodes[n].name.clone(),
            });
        }
    }
    for &n in &nodes {
        for &f in &tgt.nodes[n].filters {
            if let (Some(no), Some(fo)) = (tgt.nodes[n].origin, tgt.nodes[f].origin) {
                if oracle_path_card(src, no, fo).min < 1 {
                    inclusive = false;
                    push(LossFinding::RestrictFilters {
                        type_name: src.dotted(no),
                        filter: src.dotted(fo),
                    });
                }
            }
        }
    }
    for &x in &nodes {
        let Some(ox) = tgt.nodes[x].origin else {
            continue;
        };
        for &y in &nodes {
            if x == y {
                continue;
            }
            let Some(oy) = tgt.nodes[y].origin else {
                continue;
            };
            let tc = oracle_path_card(tgt, x, y);
            let sc = oracle_path_card(src, ox, oy);
            if sc.min == 0 && tc.min > 0 {
                inclusive = false;
                push(LossFinding::MinCardRaised {
                    from: src.dotted(ox),
                    to: src.dotted(oy),
                    src: sc,
                    tgt: tc,
                });
            }
            if tc.max > sc.max {
                non_additive = false;
                push(LossFinding::MaxCardRaised {
                    from: src.dotted(ox),
                    to: src.dotted(oy),
                    src: sc,
                    tgt: tc,
                });
            }
        }
    }
    let mut report = LossReport::classify(inclusive, non_additive, findings);
    let present: BTreeSet<SId> = nodes.iter().filter_map(|&n| tgt.nodes[n].origin).collect();
    for s in 0..src.nodes.len() {
        if !present.contains(&s) && instance_count(s) > 0 {
            report
                .dropped_types
                .push((src.dotted(s), instance_count(s)));
        }
    }
    report
}

/// Evaluate `guard_text` on `xml` and require the library's loss report
/// to equal the oracle's, and `Shape::path_card` to equal the direct
/// walk on every pair of target nodes. Guards that do not evaluate
/// (unknown labels) have nothing to compare; returns whether one did.
fn check_against_oracle(guard_text: &str, xml: &str) -> bool {
    let Ok(guard) = Guard::parse(guard_text) else {
        return false;
    };
    let store = Store::in_memory();
    let doc = ShreddedDoc::shred_str(&store, xml)
        .expect("shred")
        .snapshot();
    let src = Shape::from_adorned(doc.shape());
    let mut ctx = EvalCtx::new(&*doc);
    let Ok(tgt) = eval_guard(guard.algebra(), &src, &mut ctx) else {
        return false;
    };
    let count = |s: SId| doc.shape().instance_count(TypeId(s as u32));
    assert_eq!(
        analyze_loss(&src, &tgt, count),
        oracle_analyze_loss(&src, &tgt, count),
        "guard {guard_text:?} on {xml}"
    );
    let nodes = tgt.preorder();
    for &x in &nodes {
        for &y in &nodes {
            assert_eq!(
                tgt.path_card(x, y),
                Some(oracle_path_card(&tgt, x, y)),
                "guard {guard_text:?} on {xml}: path card {x} -> {y}"
            );
        }
    }
    true
}

#[test]
fn one_pass_loss_matches_oracle_on_paper_guards() {
    let mut compared = 0;
    for guard in GUARDS {
        for xml in [FIG1A, FIG1B, FIG1C] {
            compared += check_against_oracle(guard, xml) as usize;
        }
    }
    assert!(
        compared >= GUARDS.len() * 2,
        "only {compared} pairs evaluated"
    );
}

/// Labels a random guard draws from: every type of the random library
/// documents, a few dotted forms, and one label no document has.
const LIBRARY_LABELS: &[&str] = &[
    "lib",
    "book",
    "title",
    "author",
    "name",
    "publisher",
    "award",
    "author.name",
    "publisher.name",
    "book.title",
    "ghost",
];

/// A random guard over `labels`: a cast and/or TYPE-FILL, MORPH
/// or MUTATE, then items built from `(label, decoration, nesting)`
/// triples — nesting opens a bracket under the previous item or closes
/// one; decorations add `!`, RESTRICT, NEW, CLONE, `*` and `**`. One in
/// four guards pipes into a second MUTATE.
fn random_guard(labels: &'static [&'static str]) -> impl Strategy<Value = String> {
    let item = (0..labels.len(), 0usize..10, 0usize..3);
    (
        0usize..4,
        0usize..2,
        proptest::collection::vec(item, 1..8),
        0usize..4,
        (0..labels.len(), 0..labels.len()),
    )
        .prop_map(move |(prefix, kind, items, pipe, (a, b))| {
            let prefixes = [
                "CAST ",
                "TYPE-FILL ",
                "TYPE-FILL CAST ",
                "TYPE-FILL CAST-WIDENING ",
            ];
            let mut out = String::from(prefixes[prefix]);
            out.push_str(if kind == 0 { "MORPH" } else { "MUTATE" });
            let mut depth = 0usize;
            let mut after_star = false;
            for (i, &(label, deco, nest)) in items.iter().enumerate() {
                if nest == 1 && i > 0 && !after_star {
                    out.push_str(" [");
                    depth += 1;
                } else if nest == 2 && depth > 0 {
                    out.push_str(" ]");
                    depth -= 1;
                }
                let l = labels[label];
                let other = labels[(label + deco + 1) % labels.len()];
                after_star = deco == 9 && depth > 0;
                let text = match deco {
                    5 => format!("!{l}"),
                    6 => format!("(RESTRICT {l} [ {other} ])"),
                    7 => format!("(NEW {l}x)"),
                    8 => format!("CLONE {l}"),
                    9 if after_star => ["*", "**"][label % 2].to_string(),
                    _ => l.to_string(),
                };
                out.push(' ');
                out.push_str(&text);
            }
            out.push_str(&" ]".repeat(depth));
            if pipe == 0 {
                out.push_str(&format!(" | MUTATE {} [ {} ]", labels[a], labels[b]));
            }
            out
        })
}

/// Random documents over four names: a depth-first build where each
/// step opens a child, adds a leaf, or closes the current element, so
/// shapes get repeated names at different depths and optional edges.
fn random_tree() -> impl Strategy<Value = String> {
    proptest::collection::vec((0usize..4, 0usize..3), 1..24).prop_map(|steps| {
        let names = ["a", "b", "c", "d"];
        let mut out = String::from("<r>");
        let mut open: Vec<&str> = Vec::new();
        for (name, op) in steps {
            match op {
                0 => {
                    out.push_str(&format!("<{}>", names[name]));
                    open.push(names[name]);
                }
                1 => out.push_str(&format!("<{0}>v</{0}>", names[name])),
                _ => {
                    if let Some(n) = open.pop() {
                        out.push_str(&format!("</{n}>"));
                    }
                }
            }
        }
        while let Some(n) = open.pop() {
            out.push_str(&format!("</{n}>"));
        }
        out.push_str("</r>");
        out
    })
}

const TREE_LABELS: &[&str] = &["r", "a", "b", "c", "d", "a.b", "b.c", "c.d", "r.a", "zz"];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn one_pass_loss_matches_oracle_on_random_libraries(
        xml in random_library(),
        guard in random_guard(LIBRARY_LABELS),
    ) {
        check_against_oracle(&guard, &xml);
    }

    #[test]
    fn one_pass_loss_matches_oracle_on_random_trees(
        xml in random_tree(),
        guard in random_guard(TREE_LABELS),
    ) {
        check_against_oracle(&guard, &xml);
    }
}

/// A composed guard evaluates its second half over the first half's
/// target, so the final target's origins must be mapped back through
/// that intermediate shape before the loss analysis reads them as
/// source ids. This pair once indexed the source with an
/// intermediate-shape id and panicked.
#[test]
fn composed_guard_origins_index_the_source_shape() {
    let guard_text = "TYPE-FILL CAST MUTATE a.b [ c ] | MUTATE b [ b ]";
    let xml = "<r><b></b><d>v</d><c><c><d>v</d><a><d><a></a></d><a>v</a></a></c></c></r>";
    let guard = Guard::parse(guard_text).expect("guard parses");
    let out = guard.apply_to_str(xml).expect("composed guard renders");
    assert!(out.xml.starts_with("<result>"), "{}", out.xml);

    let store = Store::in_memory();
    let doc = ShreddedDoc::shred_str(&store, xml)
        .expect("shred")
        .snapshot();
    let src = Shape::from_adorned(doc.shape());
    let tgt = guard.analyze(&doc).expect("analyze").target;
    for n in tgt.preorder() {
        if let Some(o) = tgt.nodes[n].origin {
            assert_eq!(
                src.nodes[o].base, tgt.nodes[n].base,
                "target node {n} ({}) names a source node of another type",
                tgt.nodes[n].name
            );
        }
    }
    assert!(check_against_oracle(guard_text, xml));
}
