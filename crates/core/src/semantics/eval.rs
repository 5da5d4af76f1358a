//! The semantic function ξ: interpreting algebra trees as shape-to-shape
//! functions (§VI).
//!
//! The interesting rule is `extend` (nesting): connecting the roots of a
//! child fragment to the *closest* roots of the parent fragment, where
//! closeness is the type distance in the current source shape (answered
//! exactly from the data for the initial shape, structurally afterwards).
//! Every created edge is adorned with its *predicted* cardinality
//! (Def. 7) — the path cardinality between the two origins in the source
//! shape — which is what the information-loss theorems inspect.

use crate::algebra::{Op, POp};
use crate::error::{MorphError, MorphResult};
use crate::model::card::Card;
use crate::model::types::{TypeId, TypeTable};
use crate::report::LabelReport;
use crate::semantics::shape::{SId, Shape};

/// Answers `typeDistance` between two source types. The shredded store
/// provides an exact, data-backed implementation (co-occurrence
/// sorted-merges over its per-type columns, cached per pair);
/// [`GuideOracle`] falls back to the data-guide distance.
pub trait DistOracle {
    /// Minimum distance between any pair of instances of the two types,
    /// or `None` when no pair exists.
    fn type_distance(&self, a: TypeId, b: TypeId) -> Option<usize>;
}

/// Structure-only oracle: the distance between the types in the data
/// guide (a lower bound of the true type distance; exact whenever the
/// types co-occur under their deepest shared path prefix).
pub struct GuideOracle<'a>(pub &'a TypeTable);

impl DistOracle for GuideOracle<'_> {
    fn type_distance(&self, a: TypeId, b: TypeId) -> Option<usize> {
        self.0.guide_distance(a, b)
    }
}

/// Evaluation context: the distance oracle plus the label report being
/// accumulated and the TYPE-FILL flag.
pub struct EvalCtx<'a> {
    /// Distance oracle for the *data-backed* source shape.
    pub oracle: &'a dyn DistOracle,
    /// Accumulated label-to-type report.
    pub labels: LabelReport,
    /// When true, unmatched labels become NEW types instead of errors.
    pub type_fill: bool,
}

impl<'a> EvalCtx<'a> {
    /// Fresh context over an oracle.
    pub fn new(oracle: &'a dyn DistOracle) -> Self {
        EvalCtx {
            oracle,
            labels: LabelReport::default(),
            type_fill: false,
        }
    }
}

/// Distance between two nodes of the source shape, for closest pairing.
fn pair_distance(src: &Shape, ctx: &EvalCtx<'_>, a: SId, b: SId) -> Option<usize> {
    if src.data_backed {
        if let (Some(ba), Some(bb)) = (src.nodes[a].base, src.nodes[b].base) {
            return ctx.oracle.type_distance(ba, bb);
        }
    }
    src.tree_distance(a, b)
}

/// Cardinality of `n` relative to the whole source (product of edge
/// cards from the virtual forest root down, including the tree root's
/// own edge) — the instance-count bounds of the type.
fn absolute_card(src: &Shape, n: SId) -> Card {
    let mut card = Card::one();
    let mut cur = n;
    loop {
        card = card.mul(src.nodes[cur].card);
        match src.nodes[cur].parent {
            Some(p) => cur = p,
            None => return card,
        }
    }
}

/// Evaluate a guard: `ξ[[op]](src)`.
pub fn eval_guard(op: &Op, src: &Shape, ctx: &mut EvalCtx<'_>) -> MorphResult<Shape> {
    match op {
        Op::Morph(p) => {
            let mut tgt = Shape::new();
            let roots = eval_pop(p, src, &mut tgt, ctx)?;
            let detached: Vec<SId> = roots
                .into_iter()
                .filter(|&r| tgt.nodes[r].parent.is_none())
                .collect();
            let mut out = tgt.compact(&detached);
            set_root_cards(src, &mut out);
            Ok(out)
        }
        Op::Mutate(p) => {
            let mut out = eval_mutate(p, src, ctx)?;
            set_root_cards(src, &mut out);
            Ok(out)
        }
        Op::Translate(renames) => eval_translate(renames, src, ctx),
        Op::Compose(a, b) => {
            let mid = eval_guard(a, src, ctx)?;
            let mut out = eval_guard(b, &mid, ctx)?;
            // `b` selected from `mid`, so its origins index `mid`; map
            // them through to `src`, the shape the loss analysis reads.
            for node in &mut out.nodes {
                node.origin = node.origin.and_then(|o| mid.nodes[o].origin);
            }
            Ok(out)
        }
        Op::Cast(_, g) => eval_guard(g, src, ctx),
        Op::TypeFill(g) => {
            let saved = ctx.type_fill;
            ctx.type_fill = true;
            let out = eval_guard(g, src, ctx);
            ctx.type_fill = saved;
            out
        }
    }
}

/// Root edges of a target shape carry the type's *absolute* cardinality
/// (its instance-count bounds relative to the whole source) — the edge
/// from the virtual forest root that the rendered document wrapper makes
/// concrete. Cross-tree path cardinalities route through it.
fn set_root_cards(src: &Shape, tgt: &mut Shape) {
    for i in 0..tgt.roots.len() {
        let r = tgt.roots[i];
        if let Some(origin) = tgt.nodes[r].origin {
            tgt.nodes[r].card = absolute_card(src, origin);
        }
    }
}

/// Evaluate a MORPH pattern fragment into `tgt`; returns the fragment's
/// root ids (detached until a parent claims them).
fn eval_pop(
    pop: &POp,
    src: &Shape,
    tgt: &mut Shape,
    ctx: &mut EvalCtx<'_>,
) -> MorphResult<Vec<SId>> {
    match pop {
        POp::Type(label) => {
            let matches = src.matching_label(label);
            if matches.is_empty() {
                if ctx.type_fill {
                    ctx.labels.record(label, vec![], true);
                    let id = tgt.add_leaf(label, None, None);
                    tgt.nodes[id].is_new = true;
                    return Ok(vec![id]);
                }
                return Err(MorphError::TypeMismatch {
                    label: label.clone(),
                });
            }
            ctx.labels.record(
                label,
                matches.iter().map(|&m| src.dotted(m)).collect(),
                false,
            );
            Ok(matches
                .into_iter()
                .map(|m| {
                    let node = &src.nodes[m];
                    tgt.add_leaf(&node.name, node.base, Some(m))
                })
                .collect())
        }
        POp::New(label) => {
            let id = tgt.add_leaf(label, None, None);
            tgt.nodes[id].is_new = true;
            Ok(vec![id])
        }
        POp::Siblings(items) => {
            let mut out = Vec::new();
            for item in items {
                out.extend(eval_pop(item, src, tgt, ctx)?);
            }
            Ok(out)
        }
        POp::Closest { parent, children } => {
            let parents = eval_pop(parent, src, tgt, ctx)?;
            for child in children {
                let fragment_roots = eval_pop(child, src, tgt, ctx)?;
                extend(src, tgt, ctx, &parents, &fragment_roots);
            }
            Ok(parents)
        }
        POp::Children(p) => {
            let roots = eval_pop(p, src, tgt, ctx)?;
            for &r in &roots {
                if let Some(origin) = tgt.nodes[r].origin {
                    let kids: Vec<SId> = src.nodes[origin].children.clone();
                    for k in kids {
                        let leaf = tgt.add_leaf(&src.nodes[k].name, src.nodes[k].base, Some(k));
                        tgt.attach(r, leaf, src.nodes[k].card);
                    }
                }
            }
            Ok(roots)
        }
        POp::Descendants(p) => {
            let roots = eval_pop(p, src, tgt, ctx)?;
            for &r in &roots {
                if let Some(origin) = tgt.nodes[r].origin {
                    let kids: Vec<SId> = src.nodes[origin].children.clone();
                    for k in kids {
                        let sub = src.copy_subtree_into(k, tgt, true);
                        let card = src.nodes[k].card;
                        tgt.attach(r, sub, card);
                    }
                }
            }
            Ok(roots)
        }
        POp::Restrict(p) => {
            let roots = eval_pop(p, src, tgt, ctx)?;
            for &r in &roots {
                let children = std::mem::take(&mut tgt.nodes[r].children);
                tgt.nodes[r].filters.extend(children);
            }
            Ok(roots)
        }
        POp::Clone(p) => {
            let roots = eval_pop(p, src, tgt, ctx)?;
            for &r in &roots {
                mark_clones(tgt, r);
            }
            Ok(roots)
        }
        POp::Drop(_) => Err(MorphError::Parse {
            message: "DROP is only meaningful inside MUTATE".to_string(),
            offset: 0,
        }),
    }
}

fn mark_clones(tgt: &mut Shape, n: SId) {
    tgt.nodes[n].is_clone = true;
    let kids = tgt.nodes[n].children.clone();
    for c in kids {
        mark_clones(tgt, c);
    }
}

/// The `extend` of §VI: connect child-fragment roots to parent roots at
/// the *global* minimum type distance over all candidate pairs — "if some
/// pairing ... is farther (in distance) than some other pairing, then it
/// is not used" (§VIII). Ties keep every minimal pair (the fragment is
/// duplicated per extra parent); fragments with no minimal pair are left
/// detached (compacted away), surfacing as information loss. NEW parents
/// adopt every fragment; NEW fragments attach to every parent.
fn extend(src: &Shape, tgt: &mut Shape, ctx: &EvalCtx<'_>, parents: &[SId], fragments: &[SId]) {
    if parents.is_empty() {
        return;
    }
    let new_parents: Vec<SId> = parents
        .iter()
        .copied()
        .filter(|&p| tgt.nodes[p].origin.is_none())
        .collect();
    let based_parents: Vec<SId> = parents
        .iter()
        .copied()
        .filter(|&p| tgt.nodes[p].origin.is_some())
        .collect();

    // Global minimum distance over all (based parent, based fragment)
    // pairs: the paper's ambiguity resolution.
    let mut global_min: Option<usize> = None;
    for &p in &based_parents {
        let po = tgt.nodes[p].origin.expect("based parent");
        for &frag in fragments {
            if let Some(fo) = tgt.nodes[frag].origin {
                if let Some(d) = pair_distance(src, ctx, po, fo) {
                    global_min = Some(global_min.map_or(d, |m: usize| m.min(d)));
                }
            }
        }
    }

    for &frag in fragments {
        let mut targets: Vec<SId> = Vec::new();
        match (tgt.nodes[frag].origin, global_min) {
            (Some(fo), Some(m)) => {
                for &p in &based_parents {
                    let po = tgt.nodes[p].origin.expect("based parent");
                    if pair_distance(src, ctx, po, fo) == Some(m) {
                        targets.push(p);
                    }
                }
                targets.extend(&new_parents);
            }
            (Some(_), None) => targets.extend(&new_parents),
            (None, _) => targets.extend(parents.iter().copied()),
        }
        for (i, &p) in targets.iter().enumerate() {
            let node = if i == 0 {
                frag
            } else {
                tgt.duplicate_subtree(frag)
            };
            let card = predicted_card(src, tgt, p, node);
            tgt.attach(p, node, card);
        }
    }
}

/// Predicted cardinality (Def. 7) of the edge `parent → child` in the
/// target: the path cardinality between their origins in the source
/// shape. When the parent chain is NEW, the child's absolute cardinality
/// anchors the prediction; a NEW child contributes `1..1`.
fn predicted_card(src: &Shape, tgt: &Shape, parent: SId, child: SId) -> Card {
    let Some(co) = tgt.nodes[child].origin else {
        return Card::one();
    };
    // Find the nearest ancestor (through the target) with an origin.
    let mut anchor = None;
    let mut cur = Some(parent);
    while let Some(p) = cur {
        if let Some(o) = tgt.nodes[p].origin {
            anchor = Some(o);
            break;
        }
        cur = tgt.nodes[p].parent;
    }
    match anchor {
        Some(po) => src
            .path_card(po, co)
            .unwrap_or_else(|| absolute_card(src, co)),
        None => absolute_card(src, co),
    }
}

/// MUTATE: start from a copy of the whole source shape and rearrange the
/// parts the pattern mentions, leaving everything else in place.
fn eval_mutate(pop: &POp, src: &Shape, ctx: &mut EvalCtx<'_>) -> MorphResult<Shape> {
    let mut tgt = copy_whole(src);
    mutate_pop(pop, src, &mut tgt, ctx)?;
    let roots = tgt.roots.clone();
    Ok(tgt.compact(&roots))
}

/// Copy the entire source shape; node `i` maps to node `i`, origins point
/// back at the source.
fn copy_whole(src: &Shape) -> Shape {
    let mut tgt = src.clone();
    tgt.data_backed = false;
    for (i, node) in tgt.nodes.iter_mut().enumerate() {
        node.origin = Some(i);
    }
    tgt
}

/// Resolve a MUTATE pattern, applying rearrangements to `tgt`; returns
/// the resolved target nodes the enclosing construct nests under.
fn mutate_pop(
    pop: &POp,
    src: &Shape,
    tgt: &mut Shape,
    ctx: &mut EvalCtx<'_>,
) -> MorphResult<Vec<SId>> {
    match pop {
        POp::Type(label) => {
            // Resolve against the source; source node i is target node i.
            let matches = src.matching_label(label);
            if matches.is_empty() {
                if ctx.type_fill {
                    ctx.labels.record(label, vec![], true);
                    let id = tgt.add_leaf(label, None, None);
                    tgt.nodes[id].is_new = true;
                    tgt.roots.push(id);
                    return Ok(vec![id]);
                }
                return Err(MorphError::TypeMismatch {
                    label: label.clone(),
                });
            }
            ctx.labels.record(
                label,
                matches.iter().map(|&m| src.dotted(m)).collect(),
                false,
            );
            Ok(matches)
        }
        POp::New(label) => {
            let id = tgt.add_leaf(label, None, None);
            tgt.nodes[id].is_new = true;
            // Placed when a child is reparented under it; root fallback.
            tgt.roots.push(id);
            Ok(vec![id])
        }
        POp::Siblings(items) => {
            let mut out = Vec::new();
            for item in items {
                out.extend(mutate_pop(item, src, tgt, ctx)?);
            }
            Ok(out)
        }
        POp::Closest { parent, children } => {
            let parents = mutate_pop(parent, src, tgt, ctx)?;
            for child in children {
                let resolved = mutate_pop(child, src, tgt, ctx)?;
                // Global minimum distance over all (parent, child) pairs
                // resolves label ambiguity, exactly as in MORPH's extend.
                let mut global_min: Option<usize> = None;
                for &p in &parents {
                    for &c in &resolved {
                        if let (Some(po), Some(co)) = (tgt.nodes[p].origin, tgt.nodes[c].origin) {
                            if let Some(d) = pair_distance(src, ctx, po, co) {
                                global_min = Some(global_min.map_or(d, |m: usize| m.min(d)));
                            }
                        }
                    }
                }
                for c in resolved {
                    let mut winners: Vec<SId> = Vec::new();
                    for &p in &parents {
                        match (tgt.nodes[p].origin, tgt.nodes[c].origin) {
                            (Some(po), Some(co)) => {
                                if pair_distance(src, ctx, po, co) == global_min
                                    && global_min.is_some()
                                {
                                    winners.push(p);
                                }
                            }
                            _ => winners.push(p),
                        }
                    }
                    for (i, &p) in winners.iter().enumerate() {
                        let node = if i == 0 { c } else { tgt.duplicate_subtree(c) };
                        mutate_reparent(src, tgt, p, node);
                    }
                }
            }
            Ok(parents)
        }
        POp::Drop(p) => {
            let resolved = mutate_pop(p, src, tgt, ctx)?;
            for n in resolved {
                drop_node(tgt, n);
            }
            Ok(Vec::new())
        }
        POp::Restrict(p) => {
            let resolved = mutate_pop(p, src, tgt, ctx)?;
            for &r in &resolved {
                let children = std::mem::take(&mut tgt.nodes[r].children);
                tgt.nodes[r].filters.extend(children);
            }
            Ok(resolved)
        }
        POp::Clone(p) => {
            let resolved = mutate_pop(p, src, tgt, ctx)?;
            let mut out = Vec::new();
            for n in resolved {
                let copy = tgt.duplicate_subtree(n);
                mark_clones(tgt, copy);
                out.push(copy);
            }
            Ok(out)
        }
        // Everything is already present in a MUTATE; the markers add
        // nothing.
        POp::Children(p) | POp::Descendants(p) => mutate_pop(p, src, tgt, ctx),
    }
}

/// Remove a node from a MUTATE target: its children splice up to its
/// parent (or become roots).
fn drop_node(tgt: &mut Shape, n: SId) {
    let parent = tgt.nodes[n].parent;
    let children = std::mem::take(&mut tgt.nodes[n].children);
    match parent {
        Some(p) => {
            for &c in &children {
                tgt.nodes[c].parent = Some(p);
            }
            let pos = tgt.nodes[p].children.iter().position(|&c| c == n);
            if let Some(pos) = pos {
                tgt.nodes[p].children.splice(pos..pos + 1, children);
            } else {
                tgt.nodes[p].children.extend(children);
            }
            tgt.nodes[n].parent = None;
        }
        None => {
            for &c in &children {
                tgt.nodes[c].parent = None;
            }
            if let Some(pos) = tgt.roots.iter().position(|&r| r == n) {
                tgt.roots.splice(pos..pos + 1, children);
            } else {
                tgt.roots.extend(children);
            }
        }
    }
}

/// Reparent `c` under `p` in a MUTATE target, fixing up cycles (when `p`
/// currently lives inside `c`'s subtree, `p` first takes `c`'s place —
/// the paper's `MUTATE name [ author ]` swap) and placing unanchored NEW
/// parents at `c`'s old position.
fn mutate_reparent(src: &Shape, tgt: &mut Shape, p: SId, c: SId) {
    if p == c {
        return;
    }
    if tgt.nodes[c].children.contains(&p) && tgt.nodes[c].parent == Some(p) {
        return; // already arranged
    }
    let c_old_parent = tgt.nodes[c].parent;
    let c_was_root = tgt.roots.contains(&c);
    // NEW parent not yet placed (it sits in the root list, parentless and
    // childless): it takes c's position.
    if tgt.nodes[p].origin.is_none()
        && tgt.nodes[p].parent.is_none()
        && tgt.nodes[p].children.is_empty()
    {
        match c_old_parent {
            Some(op) => {
                tgt.roots.retain(|&r| r != p);
                tgt.nodes[p].parent = Some(op);
                // Replace c's slot with p to keep sibling order stable.
                if let Some(pos) = tgt.nodes[op].children.iter().position(|&x| x == c) {
                    tgt.nodes[op].children[pos] = p;
                    tgt.nodes[c].parent = None;
                } else {
                    tgt.nodes[op].children.push(p);
                }
                tgt.nodes[p].card = tgt.nodes[c].card;
            }
            None => {
                // c was a root: p replaces it in the root list.
                if c_was_root {
                    if let Some(pos) = tgt.roots.iter().position(|&r| r == c) {
                        if !tgt.roots.contains(&p) {
                            tgt.roots[pos] = p;
                        } else {
                            tgt.roots.remove(pos);
                        }
                    }
                }
            }
        }
        tgt.detach(c);
        let card = predicted_card(src, tgt, p, c);
        tgt.attach(p, c, card);
        return;
    }
    // Cycle fix: if p is inside c's subtree, p first takes c's place.
    if tgt.is_ancestor_or_self(c, p) {
        tgt.detach(p);
        match c_old_parent {
            Some(op) => {
                let card = predicted_card(src, tgt, op, p);
                tgt.attach(op, p, card);
            }
            None => {
                if !tgt.roots.contains(&p) {
                    tgt.roots.push(p);
                }
            }
        }
    }
    tgt.detach(c);
    let card = predicted_card(src, tgt, p, c);
    tgt.attach(p, c, card);
}

/// TRANSLATE: rename matching types, leaving structure untouched.
fn eval_translate(
    renames: &[(String, String)],
    src: &Shape,
    ctx: &mut EvalCtx<'_>,
) -> MorphResult<Shape> {
    let mut tgt = copy_whole(src);
    for (from, to) in renames {
        let matches = src.matching_label(from);
        if matches.is_empty() {
            if !ctx.type_fill {
                return Err(MorphError::TypeMismatch {
                    label: from.clone(),
                });
            }
            ctx.labels.record(from, vec![], true);
            continue;
        }
        ctx.labels.record(
            from,
            matches.iter().map(|&m| src.dotted(m)).collect(),
            false,
        );
        for m in matches {
            tgt.nodes[m].name = to.clone();
        }
    }
    Ok(tgt)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra::lower;
    use crate::lang::parse;
    use crate::model::shape::AdornedShape;
    use xmorph_xml::dom::Document;

    fn shape_of(xml: &str) -> (Shape, AdornedShape) {
        let doc = Document::parse_str(xml).unwrap();
        let adorned = AdornedShape::from_document(&doc);
        (Shape::from_adorned(&adorned), adorned)
    }

    fn run(guard: &str, xml: &str) -> Shape {
        let (src, adorned) = shape_of(xml);
        let oracle = GuideOracle(adorned.types());
        let mut ctx = EvalCtx::new(&oracle);
        let op = lower(&parse(guard).unwrap());
        let out = eval_guard(&op, &src, &mut ctx).unwrap();
        // keep the adorned shape alive through evaluation
        drop(adorned);
        out
    }

    const FIG1A: &str = "<data>\
        <book><title>X</title><author><name>Tim</name></author><publisher><name>W</name></publisher></book>\
        <book><title>Y</title><author><name>Tim</name></author><publisher><name>V</name></publisher></book>\
        </data>";

    fn tree(shape: &Shape) -> String {
        shape.to_string()
    }

    #[test]
    fn morph_builds_requested_shape() {
        let out = run("MORPH author [ name book [ title ] ]", FIG1A);
        assert_eq!(
            tree(&out),
            "author\n  name 1..1\n  book 1..1\n    title 1..1\n"
        );
    }

    #[test]
    fn morph_root_only() {
        let out = run("MORPH author", FIG1A);
        assert_eq!(tree(&out), "author\n");
    }

    #[test]
    fn ambiguous_label_resolved_by_closeness() {
        // 'name' matches author.name and publisher.name; under author the
        // closest one (distance 1) is author.name.
        let out = run("MORPH author [ name ]", FIG1A);
        let author = out.roots[0];
        assert_eq!(out.nodes[author].children.len(), 1);
        let name = out.nodes[author].children[0];
        assert_eq!(out.nodes[name].name, "name");
    }

    #[test]
    fn top_level_ambiguity_keeps_all() {
        let out = run("MORPH name", FIG1A);
        assert_eq!(out.roots.len(), 2); // author.name and publisher.name
    }

    #[test]
    fn type_mismatch_errors() {
        let (src, adorned) = shape_of(FIG1A);
        let oracle = GuideOracle(adorned.types());
        let mut ctx = EvalCtx::new(&oracle);
        let op = lower(&parse("MORPH editor").unwrap());
        let err = eval_guard(&op, &src, &mut ctx).unwrap_err();
        assert!(matches!(err, MorphError::TypeMismatch { .. }));
    }

    #[test]
    fn type_fill_invents_types() {
        let out = run("TYPE-FILL MORPH editor [ author ]", FIG1A);
        let editor = out.roots[0];
        assert_eq!(out.nodes[editor].name, "editor");
        assert!(out.nodes[editor].is_new);
        assert_eq!(out.nodes[editor].children.len(), 1);
    }

    #[test]
    fn children_marker_copies_source_children() {
        let out = run("MORPH book [*]", FIG1A);
        let book = out.roots[0];
        let names: Vec<&str> = out.nodes[book]
            .children
            .iter()
            .map(|&c| out.nodes[c].name.as_str())
            .collect();
        assert_eq!(names, vec!["title", "author", "publisher"]);
        // Children only — no grandchildren.
        let author = out.nodes[book].children[1];
        assert!(out.nodes[author].children.is_empty());
    }

    #[test]
    fn descendants_marker_copies_subtree() {
        let out = run("MORPH book [**]", FIG1A);
        let book = out.roots[0];
        let author = out.nodes[book].children[1];
        assert_eq!(out.nodes[author].name, "author");
        assert_eq!(out.nodes[author].children.len(), 1); // name survives
    }

    #[test]
    fn predicted_cards_follow_path_card() {
        // MORPH data [ title ]: two books each with one title ⇒ predicted
        // 2..2 titles under data.
        let out = run("MORPH data [ title ]", FIG1A);
        let data = out.roots[0];
        let title = out.nodes[data].children[0];
        assert_eq!(out.nodes[title].card, Card::exactly(2));
    }

    #[test]
    fn mutate_moves_mentioned_types_only() {
        // Fig 1(b)→(a) style: move publisher below book.
        let out = run("MUTATE book [ publisher [ name ] ]", FIG1A);
        // Already below book in (a): shape unchanged structurally.
        let s = tree(&out);
        assert!(s.contains("book"), "{s}");
        assert!(s.contains("    publisher"), "{s}");
    }

    #[test]
    fn mutate_swap_parent_child() {
        // MUTATE name [ author ]: swap author/name (paper §V-B example).
        let out = run("MUTATE author.name [ author ]", FIG1A);
        let s = tree(&out);
        // name moved to author's old spot (under book), author under name.
        assert!(s.contains("  name"), "{s}");
        assert!(s.contains("    author"), "{s}");
    }

    #[test]
    fn mutate_drop_removes_and_splices() {
        let out = run("MUTATE (DROP author)", FIG1A);
        let s = tree(&out);
        assert!(!s.contains("author"), "{s}");
        // author's name spliced up under book.
        assert!(s.contains("  name"), "{s}");
    }

    #[test]
    fn mutate_new_wraps() {
        let out = run("MUTATE (NEW scribe) [ author ]", FIG1A);
        let s = tree(&out);
        // scribe takes author's place under book; author below scribe.
        assert!(s.contains("  scribe"), "{s}");
        assert!(s.contains("    author"), "{s}");
    }

    #[test]
    fn mutate_clone_keeps_original() {
        let out = run("MUTATE author [ CLONE title ]", FIG1A);
        let s = tree(&out);
        // The original title stays under book AND a clone sits under author.
        let count = s.matches("title").count();
        assert_eq!(count, 2, "{s}");
        assert!(s.contains("(clone)"), "{s}");
    }

    #[test]
    fn translate_renames() {
        let out = run("TRANSLATE author -> writer", FIG1A);
        let s = tree(&out);
        assert!(s.contains("writer"), "{s}");
        assert!(!s.contains("author"), "{s}");
    }

    #[test]
    fn compose_pipes_shapes() {
        let out = run("MORPH author [ name ] | MUTATE (DROP name)", FIG1A);
        assert_eq!(tree(&out), "author\n");
    }

    #[test]
    fn compose_with_translate() {
        let out = run("MORPH author [ name ] | TRANSLATE author -> writer", FIG1A);
        assert_eq!(tree(&out), "writer\n  name 1..1\n");
    }

    #[test]
    fn restrict_demotes_children_to_filters() {
        let out = run("MORPH (RESTRICT name [ author ]) [ title ]", FIG1A);
        let name = out.roots[0];
        assert_eq!(out.nodes[name].name, "name");
        assert_eq!(out.nodes[name].filters.len(), 1);
        // title is a real child.
        assert_eq!(out.nodes[name].children.len(), 1);
        assert_eq!(out.nodes[out.nodes[name].children[0]].name, "title");
    }

    #[test]
    fn label_report_records_resolutions() {
        let (src, adorned) = shape_of(FIG1A);
        let oracle = GuideOracle(adorned.types());
        let mut ctx = EvalCtx::new(&oracle);
        let op = lower(&parse("MORPH author [ name ]").unwrap());
        eval_guard(&op, &src, &mut ctx).unwrap();
        assert_eq!(ctx.labels.resolutions.len(), 2);
        assert_eq!(ctx.labels.resolutions[0].label, "author");
        assert_eq!(
            ctx.labels.resolutions[1].resolved,
            vec!["data.book.author.name", "data.book.publisher.name"]
        );
    }

    #[test]
    fn dotted_label_disambiguates() {
        let out = run("MORPH book [ publisher.name ]", FIG1A);
        let book = out.roots[0];
        assert_eq!(out.nodes[book].children.len(), 1);
    }

    #[test]
    fn paper_full_morph_guard() {
        // MORPH data [author [* book [** publisher [*]]]] from §III.
        let out = run("MORPH data [author [* book [** publisher [*]]]]", FIG1A);
        let s = tree(&out);
        assert!(s.starts_with("data\n  author"), "{s}");
        assert!(s.contains("book"), "{s}");
        assert!(s.contains("publisher"), "{s}");
    }
}
