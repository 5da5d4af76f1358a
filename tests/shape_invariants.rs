//! Semantic invariants of the transformation machinery, checked by
//! property testing:
//!
//! * the pipelined and naive closest-join strategies render identical
//!   output (the §VII optimization is behaviour-preserving);
//! * `MUTATE` is type-complete — every non-dropped source type survives
//!   in the target (Def. 8's premise);
//! * `TRANSLATE` changes names only, never structure;
//! * statically strong guards measure *zero* actual loss
//!   ([`xmorph_core::analysis::quantify`] agrees with Theorems 1–2).

use proptest::prelude::*;
use std::collections::BTreeSet;
use xmorph_core::render::{render_snapshot, RenderOptions};
use xmorph_core::semantics::shape::Shape;
use xmorph_core::{Guard, ShreddedDoc, Snapshot};
use xmorph_pagestore::Store;

/// Random small library documents (same family as theorem_validation).
fn random_library() -> impl Strategy<Value = String> {
    let book = (0usize..3, proptest::bool::ANY, proptest::bool::ANY);
    proptest::collection::vec(book, 1..6).prop_map(|books| {
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

const GUARDS: &[&str] = &[
    "CAST MORPH author [ name book.title ]",
    "CAST MORPH book [ title author [ name ] ]",
    "CAST MORPH title [ author publisher ]",
    "CAST MORPH lib [ book [ * ] ]",
    "CAST MORPH book [ ** ]",
    "CAST MORPH (RESTRICT book [ award ]) [ title ]",
    "CAST MUTATE title [ award ]",
    "CAST MORPH (NEW entry) [ title author ]",
];

fn shred(xml: &str) -> (Store, ShreddedDoc) {
    let store = Store::in_memory();
    let doc = ShreddedDoc::shred_str(&store, xml).unwrap();
    (store, doc)
}

fn target_of(guard: &str, snap: &Snapshot) -> Option<Shape> {
    Guard::parse(guard)
        .unwrap()
        .analyze(snap)
        .ok()
        .map(|a| a.target)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn pipelined_and_naive_joins_agree(
        xml in random_library(),
        guard_idx in 0usize..GUARDS.len(),
    ) {
        let (_s, doc) = shred(&xml);
        let snap = doc.snapshot();
        let Some(target) = target_of(GUARDS[guard_idx], &snap) else { return Ok(()) };
        let fast = render_snapshot(&snap, &target, &RenderOptions { pipelined: true, ..Default::default() })
            .unwrap();
        let slow = render_snapshot(&snap, &target, &RenderOptions { pipelined: false, ..Default::default() })
            .unwrap();
        prop_assert_eq!(fast, slow);
    }

    #[test]
    fn mutate_is_type_complete(xml in random_library()) {
        // A MUTATE that drops nothing keeps a 1:1 correspondence between
        // source types and target bases (Def. 8).
        let (_s, doc) = shred(&xml);
        let guard = Guard::parse("CAST MUTATE author [ title ]").unwrap();
        let Ok(analysis) = guard.analyze(&doc.snapshot()) else { return Ok(()) };
        let bases: BTreeSet<u32> = analysis
            .target
            .preorder()
            .into_iter()
            .filter_map(|n| analysis.target.nodes[n].base)
            .map(|b| b.0)
            .collect();
        let sources: BTreeSet<u32> = doc
            .types()
            .ids()
            .filter(|&t| doc.instance_count(t) > 0)
            .map(|t| t.0)
            .collect();
        prop_assert_eq!(bases, sources);
    }

    #[test]
    fn translate_preserves_structure(xml in random_library()) {
        let (_s, doc) = shred(&xml);
        let plain = Guard::parse("CAST MUTATE lib").unwrap().analyze(&doc.snapshot()).unwrap().target;
        let renamed = Guard::parse("CAST TRANSLATE title -> headline")
            .unwrap()
            .analyze(&doc.snapshot())
            .unwrap()
            .target;
        // Same arena sizes, same child structure, same bases.
        prop_assert_eq!(plain.reachable_count(), renamed.reachable_count());
        let plain_nodes = plain.preorder();
        let renamed_nodes = renamed.preorder();
        for (&a, &b) in plain_nodes.iter().zip(renamed_nodes.iter()) {
            prop_assert_eq!(plain.nodes[a].base, renamed.nodes[b].base);
            prop_assert_eq!(plain.nodes[a].children.len(), renamed.nodes[b].children.len());
        }
        // And exactly the title types changed names.
        for (&a, &b) in plain_nodes.iter().zip(renamed_nodes.iter()) {
            if plain.nodes[a].name == "title" {
                prop_assert_eq!(&renamed.nodes[b].name, "headline");
            } else {
                prop_assert_eq!(&plain.nodes[a].name, &renamed.nodes[b].name);
            }
        }
    }

    #[test]
    fn strong_guards_measure_zero_drops(
        xml in random_library(),
        guard_idx in 0usize..GUARDS.len(),
    ) {
        // Strong = inclusive: every retained instance must survive.
        // (Note: strong does NOT bound the *copy* count — a title shared
        // by two authors legitimately renders under both, and those
        // closest edges already existed in the source, so the set-based
        // reversibility of §V-A holds even though quantify's bag-based
        // duplication factor exceeds 1.)
        let (_s, doc) = shred(&xml);
        let guard = Guard::parse(GUARDS[guard_idx]).unwrap();
        let Ok(analysis) = guard.analyze(&doc.snapshot()) else { return Ok(()) };
        if analysis.loss.typing != xmorph_core::GuardTyping::Strong {
            return Ok(());
        }
        let q = xmorph_core::analysis::quantify(&doc, &analysis.target).unwrap();
        prop_assert_eq!(q.dropped_fraction(), 0.0, "{}", q);
    }
}
