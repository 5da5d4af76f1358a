//! Theorems 1 and 2 (§V-B), applied to the predicted target shape.
//!
//! The ξ evaluation already adorned every target edge with its predicted
//! cardinality (Def. 7), so the target shape *is* the predicted adorned
//! shape `R_p`. The analysis compares, for every ordered pair of source
//! types that appears in the target, the path cardinality in the source
//! against the path cardinality in `R_p`:
//!
//! * **Theorem 1 (inclusive / no data lost):** no minimum may rise from
//!   zero to non-zero — otherwise instances lacking a closest partner are
//!   dropped by the transform.
//! * **Theorem 2 (non-additive / no data created):** no maximum may
//!   increase — otherwise instances are duplicated, manufacturing closest
//!   relationships absent from the source.
//!
//! `CLONE` and `NEW` types are additive by construction; a `RESTRICT`
//! whose filter is not guaranteed to match is non-inclusive. Types the
//! guard simply does not mention are reported informationally
//! (subsetting) without affecting the class, matching the paper's
//! type-complete framing.
//!
//! The pairwise comparison does not walk a path per pair. Def. 6
//! `pathCard` composes along the path, so one walk from a node yields
//! its path cardinality to every other node (`PathCards`); each pair
//! is then an O(1) lookup in two reusable buffers, one per shape.

use crate::model::card::Card;
use crate::report::{LossFinding, LossReport};
use crate::semantics::shape::{SId, Shape};
use std::collections::{BTreeSet, HashSet};
use std::ops::Range;

/// Run the loss analysis: `src` is the data-backed source shape, `tgt`
/// the evaluated target shape (with predicted cardinalities), and
/// `instance_count(t)` the number of instances of source-shape node `t`.
pub fn analyze_loss(src: &Shape, tgt: &Shape, instance_count: impl Fn(SId) -> u64) -> LossReport {
    let mut report = check_theorems(src, tgt);

    // Subsetting: source types absent from the target (informational).
    let present: BTreeSet<SId> = tgt
        .preorder()
        .into_iter()
        .filter_map(|n| tgt.nodes[n].origin)
        .collect();
    for s in 0..src.nodes.len() {
        if !present.contains(&s) && instance_count(s) > 0 {
            report
                .dropped_types
                .push((src.dotted(s), instance_count(s)));
        }
    }
    report
}

/// The Theorem 1/2 checks alone: the typing class and its findings,
/// without the informational subsetting list (`dropped_types` stays
/// empty). This is all a query needs to enforce the typing discipline.
pub(crate) fn check_theorems(src: &Shape, tgt: &Shape) -> LossReport {
    let mut findings = Findings::default();
    let mut inclusive = true;
    let mut non_additive = true;

    // Renderable target nodes (filters excluded) in preorder.
    let nodes = tgt.preorder();

    // CLONE / NEW are additive by construction.
    for &n in &nodes {
        if tgt.nodes[n].is_clone {
            non_additive = false;
            let name = tgt.nodes[n]
                .origin
                .map(|o| src.dotted(o))
                .unwrap_or_else(|| tgt.nodes[n].name.clone());
            findings.push(LossFinding::CloneAdds { type_name: name });
        }
        if tgt.nodes[n].is_new {
            non_additive = false;
            findings.push(LossFinding::NewAdds {
                name: tgt.nodes[n].name.clone(),
            });
        }
    }

    // RESTRICT filters that are not guaranteed to match lose instances.
    for &n in &nodes {
        for &f in &tgt.nodes[n].filters {
            if let (Some(no), Some(fo)) = (tgt.nodes[n].origin, tgt.nodes[f].origin) {
                let guaranteed = src.path_card(no, fo).map(|c| c.min >= 1).unwrap_or(false);
                if !guaranteed {
                    inclusive = false;
                    findings.push(LossFinding::RestrictFilters {
                        type_name: src.dotted(no),
                        filter: src.dotted(fo),
                    });
                }
            }
        }
    }

    // Pairwise path-cardinality comparison (Theorems 1 and 2). Nodes in
    // different target trees relate through the virtual forest root (the
    // rendered document wrapper), with the root edges carrying absolute
    // cardinalities — so flattening two types side by side is checked
    // like any other rearrangement. Source types always relate the same
    // way, so every pair has a source path cardinality to compare with.
    let mut tgt_cards = PathCards::new(tgt);
    let mut src_cards = PathCards::new(src);
    for &x in &nodes {
        let Some(ox) = tgt.nodes[x].origin else {
            continue;
        };
        tgt_cards.fill(x);
        src_cards.fill(ox);
        for &y in &nodes {
            if x == y {
                continue;
            }
            let Some(oy) = tgt.nodes[y].origin else {
                continue;
            };
            let tc = tgt_cards.get(y);
            let sc = src_cards.get(oy);
            if sc.min == 0 && tc.min > 0 {
                inclusive = false;
                findings.push(LossFinding::MinCardRaised {
                    from: src.dotted(ox),
                    to: src.dotted(oy),
                    src: sc,
                    tgt: tc,
                });
            }
            if tc.max > sc.max {
                non_additive = false;
                findings.push(LossFinding::MaxCardRaised {
                    from: src.dotted(ox),
                    to: src.dotted(oy),
                    src: sc,
                    tgt: tc,
                });
            }
        }
    }

    LossReport::classify(inclusive, non_additive, findings.list)
}

/// Findings in detection order, each kept once (by value).
#[derive(Default)]
struct Findings {
    list: Vec<LossFinding>,
    seen: HashSet<LossFinding>,
}

impl Findings {
    fn push(&mut self, f: LossFinding) {
        if !self.seen.contains(&f) {
            self.seen.insert(f.clone());
            self.list.push(f);
        }
    }
}

/// Path cardinalities (Def. 6) from one node of a shape to every node
/// of it, computed in one linear pass and held in reusable buffers.
///
/// Nodes are laid out in preorder, so every subtree is a contiguous
/// span of positions and a parent comes before its children. Filter
/// subtrees are left out: the checks compare renderable nodes only. `absolute[q]` multiplies the edge cards from the node
/// at `q` up to and including its root: the path cardinality into it
/// from any node of another tree, which relates through the virtual
/// forest root. [`PathCards::fill`] computes `local` over the start
/// node's own tree: `1..1` on the start node and its ancestors (the
/// positions whose subtree span contains it), and below them the
/// product of the edge cards down from the nearest such ancestor.
struct PathCards {
    /// Preorder position of each node (`usize::MAX` for filter nodes
    /// and nodes no root reaches).
    pos: Vec<usize>,
    /// Per position: the parent's position (a root points at itself),
    /// the edge card, and one past the end of the subtree's span.
    up: Vec<usize>,
    card: Vec<Card>,
    end: Vec<usize>,
    absolute: Vec<Card>,
    local: Vec<Card>,
    /// Positions of the tree `local` was filled for.
    filled: Range<usize>,
    from: Option<SId>,
}

impl PathCards {
    fn new(shape: &Shape) -> PathCards {
        let n = shape.nodes.len();
        let mut cards = PathCards {
            pos: vec![usize::MAX; n],
            up: Vec::with_capacity(n),
            card: Vec::with_capacity(n),
            end: Vec::with_capacity(n),
            absolute: Vec::with_capacity(n),
            local: Vec::with_capacity(n),
            filled: 0..0,
            from: None,
        };
        // Preorder from every root: (node, parent position).
        let mut stack: Vec<(SId, Option<usize>)> = Vec::new();
        for &root in shape.roots.iter().rev() {
            stack.push((root, None));
        }
        while let Some((node, parent)) = stack.pop() {
            let q = cards.up.len();
            let edge = shape.nodes[node].card;
            let above = parent.map_or(Card::one(), |p| cards.absolute[p]);
            cards.pos[node] = q;
            cards.up.push(parent.unwrap_or(q));
            cards.card.push(edge);
            cards.end.push(q + 1);
            cards.absolute.push(above.mul(edge));
            cards.local.push(Card::one());
            for &c in shape.nodes[node].children.iter().rev() {
                stack.push((c, Some(q)));
            }
        }
        // Children follow their parent, so one backward sweep closes
        // every span.
        for q in (0..cards.up.len()).rev() {
            let p = cards.up[q];
            cards.end[p] = cards.end[p].max(cards.end[q]);
        }
        cards
    }

    /// Make [`PathCards::get`] answer path cardinalities from `x`.
    fn fill(&mut self, x: SId) {
        if self.from == Some(x) {
            return;
        }
        self.from = Some(x);
        let px = self.pos[x];
        let mut root = px;
        while self.up[root] != root {
            root = self.up[root];
        }
        self.filled = root..self.end[root];
        for q in self.filled.clone() {
            self.local[q] = if q <= px && px < self.end[q] {
                Card::one()
            } else {
                self.local[self.up[q]].mul(self.card[q])
            };
        }
    }

    /// Path cardinality from the node last filled to `y`.
    fn get(&self, y: SId) -> Card {
        let q = self.pos[y];
        if self.filled.contains(&q) {
            self.local[q]
        } else {
            self.absolute[q]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra::lower;
    use crate::lang::parse;
    use crate::model::card::{Card, CardMax};
    use crate::model::shape::AdornedShape;
    use crate::report::GuardTyping;
    use crate::semantics::eval::{eval_guard, EvalCtx, GuideOracle};
    use xmorph_xml::dom::Document;

    fn classify(guard: &str, xml: &str) -> LossReport {
        classify_with(guard, xml, |_| {})
    }

    fn classify_with(guard: &str, xml: &str, tweak: impl FnOnce(&mut AdornedShape)) -> LossReport {
        let doc = Document::parse_str(xml).unwrap();
        let mut adorned = AdornedShape::from_document(&doc);
        tweak(&mut adorned);
        let src = Shape::from_adorned(&adorned);
        let oracle = GuideOracle(adorned.types());
        let mut ctx = EvalCtx::new(&oracle);
        let op = lower(&parse(guard).unwrap());
        let tgt = eval_guard(&op, &src, &mut ctx).unwrap();
        analyze_loss(&src, &tgt, |s| {
            adorned.instance_count(crate::model::types::TypeId(s as u32))
        })
    }

    const FIG1A: &str = "<data>\
        <book><title>X</title><author><name>Tim</name></author><publisher><name>W</name></publisher></book>\
        <book><title>Y</title><author><name>Tim</name></author><publisher><name>V</name></publisher></book>\
        </data>";

    const FIG1C: &str = "<data>\
        <author><name>Tim</name>\
          <book><title>X</title><publisher><name>W</name></publisher></book>\
          <book><title>Y</title><publisher><name>V</name></publisher></book>\
        </author></data>";

    #[test]
    fn paper_intro_guard_is_strong() {
        // "The guard given above turns out to be strongly-typed" (§I).
        for xml in [FIG1A, FIG1C] {
            let report = classify("MORPH author [ name book [ title ] ]", xml);
            assert_eq!(report.typing, GuardTyping::Strong, "{xml}: {report}");
            assert!(report.reversible());
        }
    }

    #[test]
    fn paper_widening_guard_on_fig1c() {
        // "The transformation for instance (c) is widening" (§I): titles
        // get duplicated next to each publisher.
        let report = classify("MORPH author [ !title name publisher [ name ] ]", FIG1C);
        assert_eq!(report.typing, GuardTyping::Widening, "{report}");
        assert!(report.inclusive);
        assert!(!report.non_additive);
    }

    #[test]
    fn optional_name_swap_is_narrowing() {
        // §V-B: with author's name optional (0..1), MUTATE name [author]
        // is non-inclusive (authors without names are dropped) but
        // non-additive.
        let report = classify_with("MUTATE author.name [ author ]", FIG1C, |shape| {
            let name_ty = shape
                .types()
                .lookup(&["data".into(), "author".into(), "name".into()])
                .unwrap();
            shape.set_card(name_ty, Card::new(0, CardMax::Finite(1)));
        });
        assert!(!report.inclusive, "{report}");
        assert!(report.non_additive, "{report}");
        assert_eq!(report.typing, GuardTyping::Narrowing);
        assert!(report
            .findings
            .iter()
            .any(|f| matches!(f, LossFinding::MinCardRaised { .. })));
    }

    #[test]
    fn swap_without_optionality_is_strong() {
        // With 1..1 names the same swap loses nothing (§V-B: "since name
        // to author is 1..1, swapping their position does not change the
        // predicted maximum path cardinality").
        let report = classify("MUTATE author.name [ author ]", FIG1C);
        assert_eq!(report.typing, GuardTyping::Strong, "{report}");
    }

    #[test]
    fn clone_is_additive() {
        let report = classify("MUTATE author [ CLONE title ]", FIG1C);
        assert!(!report.non_additive);
        assert!(report
            .findings
            .iter()
            .any(|f| matches!(f, LossFinding::CloneAdds { .. })));
    }

    #[test]
    fn new_is_additive() {
        let report = classify("MUTATE (NEW scribe) [ author ]", FIG1C);
        assert!(!report.non_additive);
        assert!(report
            .findings
            .iter()
            .any(|f| matches!(f, LossFinding::NewAdds { .. })));
    }

    #[test]
    fn subsetting_reported_but_not_lossy_class() {
        let report = classify("MORPH author [ name ]", FIG1A);
        assert_eq!(report.typing, GuardTyping::Strong, "{report}");
        assert!(!report.dropped_types.is_empty());
        let dropped: Vec<&str> = report
            .dropped_types
            .iter()
            .map(|(n, _)| n.as_str())
            .collect();
        assert!(dropped.contains(&"data.book.title"), "{dropped:?}");
    }

    #[test]
    fn restrict_with_guaranteed_filter_is_safe() {
        // Every author.name has an author at distance 1 with card 1..1 up:
        // path card from name to author is 1..1, so nothing is dropped.
        let report = classify(
            "MORPH (RESTRICT author.name [ author ]) [ book.title ]",
            FIG1C,
        );
        assert!(report.inclusive, "{report}");
    }

    #[test]
    fn restrict_with_optional_filter_flags() {
        // Not every book has an award, so RESTRICT book [award] may drop.
        let xml =
            "<d><book><award>X</award><title>A</title></book><book><title>B</title></book></d>";
        let report = classify("MORPH (RESTRICT book [ award ]) [ title ]", xml);
        assert!(!report.inclusive, "{report}");
        assert!(report
            .findings
            .iter()
            .any(|f| matches!(f, LossFinding::RestrictFilters { .. })));
    }

    #[test]
    fn duplicating_morph_is_additive() {
        // In FIG1A each book has one publisher, so title[publisher.name]
        // preserves every pairwise cardinality — strong.
        let strong = classify("MORPH title [ publisher.name ]", FIG1A);
        assert_eq!(strong.typing, GuardTyping::Strong, "{strong}");
        // But flattening titles and publishers under the author in FIG1C
        // raises the title↔publisher path cardinality from 1..1 (via the
        // book) to 2..2 (via the author): relationships are manufactured.
        let report = classify("MORPH author [ title publisher ]", FIG1C);
        assert!(!report.non_additive, "{report}");
        assert!(
            report
                .findings
                .iter()
                .any(|f| matches!(f, LossFinding::MaxCardRaised { .. })),
            "{report}"
        );
    }

    #[test]
    fn findings_deduplicate() {
        let report = classify("MORPH author [ !title name publisher [ name ] ]", FIG1C);
        let mut keys: Vec<String> = report.findings.iter().map(|f| format!("{f:?}")).collect();
        let before = keys.len();
        keys.dedup();
        assert_eq!(before, keys.len());
    }
}
