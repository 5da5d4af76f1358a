//! Quantified information loss — the paper's third future-work item
//! (§X): *"how to quantify the amount of potential information loss. We
//! articulated four 'coarse' kinds of information loss, but these could
//! be refined, e.g., the transformation manufactures 30% new
//! information."*
//!
//! Where the Theorem 1/2 analysis is static (shape-only, instant), this
//! module measures the *actual* loss of a transformation on a concrete
//! document: it renders with source tagging, then counts — per source
//! type — how many instances were dropped and how many times instances
//! were duplicated. It is a diagnostic: cost is a full transformation
//! plus a parse of the output.
//!
//! Note the semantics difference from §V-A's reversibility: the theorems
//! compare closest-edge *sets*, while these counts are *bags*. A
//! strongly-typed guard guarantees `dropped == 0`, but its duplication
//! factor may exceed 1 — e.g. a title shared by two authors renders
//! under both, reusing closest edges that already existed in the source.

use crate::error::{MorphError, MorphResult};
use crate::render::{render_snapshot, RenderOptions};
use crate::semantics::shape::Shape;
use crate::store::shredded::ShreddedDoc;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use xmorph_xml::dewey::Dewey;
use xmorph_xml::dom::Document;

/// Measured per-type quantities of one transformation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TypeQuantity {
    /// Dotted source type name.
    pub type_name: String,
    /// Instances in the source.
    pub source_instances: u64,
    /// Distinct source instances that appear in the output.
    pub rendered_unique: u64,
    /// Total appearances in the output (≥ `rendered_unique` when
    /// duplicated).
    pub rendered_total: u64,
}

impl TypeQuantity {
    /// Source instances that do not appear in the output.
    pub fn dropped(&self) -> u64 {
        self.source_instances.saturating_sub(self.rendered_unique)
    }

    /// Fraction of source instances dropped (0.0 when none existed).
    pub fn dropped_fraction(&self) -> f64 {
        if self.source_instances == 0 {
            return 0.0;
        }
        self.dropped() as f64 / self.source_instances as f64
    }

    /// Output copies manufactured beyond the first appearance.
    pub fn manufactured(&self) -> u64 {
        self.rendered_total.saturating_sub(self.rendered_unique)
    }

    /// Average output copies per appearing instance (1.0 = no
    /// duplication).
    pub fn duplication_factor(&self) -> f64 {
        if self.rendered_unique == 0 {
            return 0.0;
        }
        self.rendered_total as f64 / self.rendered_unique as f64
    }
}

/// Measured information loss of a whole transformation.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantifiedLoss {
    /// One entry per source type that the transformation retains,
    /// ordered by type name.
    pub per_type: Vec<TypeQuantity>,
}

impl QuantifiedLoss {
    /// Overall fraction of retained-type source instances dropped.
    pub fn dropped_fraction(&self) -> f64 {
        let src: u64 = self.per_type.iter().map(|q| q.source_instances).sum();
        let dropped: u64 = self.per_type.iter().map(|q| q.dropped()).sum();
        if src == 0 {
            return 0.0;
        }
        dropped as f64 / src as f64
    }

    /// Overall fraction of output instances that are manufactured
    /// duplicates — the paper's "manufactures 30% new information".
    pub fn manufactured_fraction(&self) -> f64 {
        let total: u64 = self.per_type.iter().map(|q| q.rendered_total).sum();
        let manufactured: u64 = self.per_type.iter().map(|q| q.manufactured()).sum();
        if total == 0 {
            return 0.0;
        }
        manufactured as f64 / total as f64
    }
}

impl fmt::Display for QuantifiedLoss {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "quantified loss: drops {:.1}% of instances, manufactures {:.1}% of the output",
            self.dropped_fraction() * 100.0,
            self.manufactured_fraction() * 100.0
        )?;
        for q in &self.per_type {
            writeln!(
                f,
                "  {:40} source {:6}  unique {:6}  total {:6}  dropped {:5.1}%  dup ×{:.2}",
                q.type_name,
                q.source_instances,
                q.rendered_unique,
                q.rendered_total,
                q.dropped_fraction() * 100.0,
                q.duplication_factor()
            )?;
        }
        Ok(())
    }
}

/// Measure the actual information loss of rendering `target` against
/// `doc`.
pub fn quantify(doc: &ShreddedDoc, target: &Shape) -> MorphResult<QuantifiedLoss> {
    let out = render_snapshot(
        &doc.snapshot(),
        target,
        &RenderOptions {
            wrapper: Some("q".into()),
            tag_source: true,
            pipelined: true,
        },
    )?;
    let parsed = Document::parse_str(&out)?;

    // Tally rendered appearances per source type.
    let mut unique: BTreeMap<u32, BTreeSet<Dewey>> = BTreeMap::new();
    let mut total: BTreeMap<u32, u64> = BTreeMap::new();
    if let Some(root) = parsed.root_element() {
        for node in parsed.descendant_elements(root) {
            let Some(tag) = parsed.attr(node, "data-src") else {
                continue;
            };
            let dewey: Dewey = tag
                .parse()
                .map_err(|_| MorphError::Internal("bad data-src"))?;
            let Some(type_id) = doc.node_type(&dewey)? else {
                continue;
            };
            unique.entry(type_id.0).or_default().insert(dewey);
            *total.entry(type_id.0).or_insert(0) += 1;
        }
    }

    // Retained types: bases of the target shape (clones share a base and
    // fold into that base's tally).
    let mut retained: BTreeSet<u32> = BTreeSet::new();
    for n in target.preorder() {
        if let Some(base) = target.nodes[n].base {
            retained.insert(base.0);
        }
    }

    let types = doc.types();
    let mut per_type: Vec<TypeQuantity> = retained
        .into_iter()
        .map(|raw| {
            let t = crate::model::types::TypeId(raw);
            TypeQuantity {
                type_name: types.dotted(t),
                source_instances: doc.instance_count(t),
                rendered_unique: unique.get(&raw).map(|s| s.len() as u64).unwrap_or(0),
                rendered_total: total.get(&raw).copied().unwrap_or(0),
            }
        })
        .collect();
    per_type.sort_by(|a, b| a.type_name.cmp(&b.type_name));
    Ok(QuantifiedLoss { per_type })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::guard::{Guard, GuardAnalysis};
    use xmorph_pagestore::Store;

    fn analyze(guard: &str, xml: &str) -> (Store, ShreddedDoc, GuardAnalysis) {
        let store = Store::in_memory();
        let doc = ShreddedDoc::shred_str(&store, xml).unwrap();
        let analysis = Guard::parse(guard)
            .unwrap()
            .analyze(&doc.snapshot())
            .unwrap();
        (store, doc, analysis)
    }

    const FIG1A: &str = "<data>\
        <book><title>X</title><author><name>Tim</name></author><publisher><name>W</name></publisher></book>\
        <book><title>Y</title><author><name>Tim</name></author><publisher><name>V</name></publisher></book>\
        </data>";

    #[test]
    fn lossless_guard_measures_zero() {
        let (_s, doc, analysis) = analyze("MORPH author [ name book [ title ] ]", FIG1A);
        let q = quantify(&doc, &analysis.target).unwrap();
        assert_eq!(q.dropped_fraction(), 0.0, "{q}");
        assert_eq!(q.manufactured_fraction(), 0.0, "{q}");
        let books = q
            .per_type
            .iter()
            .find(|t| t.type_name == "data.book")
            .unwrap();
        assert_eq!(books.source_instances, 2);
        assert_eq!(books.rendered_unique, 2);
    }

    #[test]
    fn duplicating_guard_measures_manufacture() {
        // 'name' is ambiguous: author names and publisher names tie for
        // titles, so each title renders under both — ×2 duplication.
        let (_s, doc, analysis) = analyze("CAST MORPH name [ title ]", FIG1A);
        let q = quantify(&doc, &analysis.target).unwrap();
        let titles = q
            .per_type
            .iter()
            .find(|t| t.type_name == "data.book.title")
            .unwrap();
        assert_eq!(titles.rendered_unique, 2);
        assert_eq!(titles.rendered_total, 4);
        assert_eq!(titles.duplication_factor(), 2.0);
        assert!(q.manufactured_fraction() > 0.2, "{q}");
    }

    #[test]
    fn restricting_guard_measures_drops() {
        let xml = "<d>\
            <book><award>w</award><title>A</title></book>\
            <book><title>B</title></book>\
            <book><title>C</title></book>\
            </d>";
        let (_s, doc, analysis) = analyze("CAST MORPH (RESTRICT book [ award ]) [ title ]", xml);
        let q = quantify(&doc, &analysis.target).unwrap();
        let books = q.per_type.iter().find(|t| t.type_name == "d.book").unwrap();
        assert_eq!(books.source_instances, 3);
        assert_eq!(books.rendered_unique, 1);
        assert_eq!(books.dropped(), 2);
        assert!((books.dropped_fraction() - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn display_is_readable() {
        let (_s, doc, analysis) = analyze("MORPH title", FIG1A);
        let q = quantify(&doc, &analysis.target).unwrap();
        let s = q.to_string();
        assert!(s.contains("drops 0.0%"), "{s}");
        assert!(s.contains("data.book.title"), "{s}");
    }
}
