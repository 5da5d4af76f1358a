//! The unified query surface: [`Engine`] / [`Session`] /
//! [`QueryRequest`].
//!
//! A guard can run one-off through [`Guard::apply_to_str`] or
//! [`Guard::apply_with`], or piecewise against a pinned [`Snapshot`]
//! (the document's only read surface) with [`Guard::analyze`] and
//! [`render_parallel_snapshot`]. Everything that acts as a *service* —
//! the TCP server in `xmorph-server`, the `xmorph` CLI, the scaling
//! benchmarks — goes through one funnel:
//!
//! ```
//! use xmorph_core::{Engine, QueryRequest};
//!
//! let engine = Engine::from_xml(
//!     "<data><book><title>X</title><author><name>Tim</name></author></book></data>",
//! )?;
//! let req = QueryRequest::builder("MORPH author [ name book [ title ] ]")
//!     .threads(2)
//!     .stats(true)
//!     .build();
//! let resp = engine.query(&req)?;
//! assert!(resp.xml.contains("<name>Tim</name>"));
//! assert!(resp.stats.is_some());
//! # Ok::<(), xmorph_core::MorphError>(())
//! ```
//!
//! An [`Engine`] owns one open store and its shredded document and is
//! shared across threads (`Arc<Engine>` in the server). Queries pin a
//! copy-on-write [`Snapshot`] of the document and run against that one
//! epoch; [`Engine::mutate`] is the single-writer entry point that
//! publishes the next epoch — so the server serves writes concurrently
//! with reads, and no reader ever sees a half-applied mutation.
//!
//! "The same guard will be reused for many queries" (§I), so each
//! pinned [`Snapshot`] carries a compile cache keyed by guard text: the
//! first query of a guard in an epoch parses it, evaluates ξ and runs
//! the loss analysis; every later query of the same text in that epoch
//! goes straight to typing enforcement and render. The cache retires
//! with its epoch and holds at most [`COMPILE_CACHE_CAP`] guards. A
//! [`Session`] is the per-client layer on top; it counts the queries it
//! served.
//!
//! Every query can opt into a [`QueryStats`] record: the compile/render
//! split the paper's Fig. 10 measures, plus the delta of the store's
//! I/O counters ([`Store::io_stats_snapshot`] before minus after) and
//! of the column-cache footprint — the pages and segments *this* query
//! touched, not store-lifetime aggregates.
//!
//! [`COMPILE_CACHE_CAP`]: crate::store::shredded::COMPILE_CACHE_CAP

use crate::error::{MorphError, MorphResult};
use crate::guard::Guard;
use crate::render::RenderOptions;
use crate::report::GuardTyping;
use crate::semantics::parallel::{render_parallel_snapshot, ParallelOptions};
use crate::store::shredded::{OpenOptions, ShredOptions, ShreddedDoc, Snapshot};
use std::path::Path;
use std::sync::{Arc, RwLock, RwLockReadGuard};
use std::time::{Duration, Instant};
use xmorph_pagestore::{IoSnapshot, Store};
use xmorph_xml::dewey::Dewey;

/// One guard evaluation, described declaratively. Build with
/// [`QueryRequest::builder`]; the zero-configuration request (auto
/// thread count, `<result>` wrapper, no stats) is
/// `QueryRequest::builder(guard).build()`.
#[derive(Debug, Clone)]
pub struct QueryRequest {
    guard: String,
    threads: usize,
    wrapper: Option<String>,
    collect_stats: bool,
}

impl QueryRequest {
    /// Start building a request for `guard` (XMorph surface syntax).
    pub fn builder(guard: impl Into<String>) -> QueryRequestBuilder {
        QueryRequestBuilder {
            req: QueryRequest {
                guard: guard.into(),
                threads: 0,
                wrapper: Some("result".to_string()),
                collect_stats: false,
            },
        }
    }

    /// The guard program text.
    pub fn guard(&self) -> &str {
        &self.guard
    }

    /// Requested render parallelism (`0` = one worker per CPU).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Whether a [`QueryStats`] record was requested.
    pub fn wants_stats(&self) -> bool {
        self.collect_stats
    }
}

/// Builder for [`QueryRequest`].
#[derive(Debug, Clone)]
pub struct QueryRequestBuilder {
    req: QueryRequest,
}

impl QueryRequestBuilder {
    /// Render worker threads: `0` (default) uses one per available
    /// CPU, `1` renders sequentially. Output is byte-identical at
    /// every setting.
    pub fn threads(mut self, threads: usize) -> Self {
        self.req.threads = threads;
        self
    }

    /// Name of the synthetic wrapper element (default `result`).
    pub fn wrapper(mut self, name: impl Into<String>) -> Self {
        self.req.wrapper = Some(name.into());
        self
    }

    /// Emit the bare instance stream with no wrapper element.
    pub fn no_wrapper(mut self) -> Self {
        self.req.wrapper = None;
        self
    }

    /// Collect a [`QueryStats`] record for this query (default off —
    /// bracketing the I/O counters costs a few atomic loads).
    pub fn stats(mut self, on: bool) -> Self {
        self.req.collect_stats = on;
        self
    }

    /// Finish the request.
    pub fn build(self) -> QueryRequest {
        self.req
    }
}

/// What one query actually cost, measured around its execution.
#[derive(Debug, Clone)]
pub struct QueryStats {
    /// The compile phase: the compile-cache lookup and typing
    /// enforcement, plus, on a miss, guard parsing, ξ evaluation and the
    /// loss analysis.
    pub compile: Duration,
    /// True when the guard came out of the pinned snapshot's compile
    /// cache, so `compile` covers only the lookup and enforcement.
    pub compile_cached: bool,
    /// The render phase (dominates; §IX, Fig. 10).
    pub render: Duration,
    /// Render worker threads actually used.
    pub threads: usize,
    /// Store I/O this query caused: pages read/written, cache
    /// hits/misses, device wait time — the delta of
    /// [`Store::io_stats_snapshot`] across the query. On a store
    /// served to concurrent clients, overlapping queries' deltas
    /// overlap too (the counters are store-wide).
    pub io: IoSnapshot,
    /// Bytes of column data (decoded heap + mapped segments) the query
    /// faulted into the column cache — nonzero exactly when it touched
    /// types whose columns were not yet resident.
    pub column_bytes_delta: u64,
    /// Bytes of column data live snapshots keep resident beyond the
    /// document's own cache ([`ShreddedDoc::snapshot_pinned_bytes`]),
    /// measured as the query finishes. The column-cache budget counts
    /// these as already spent, since evicting cache entries cannot
    /// free them.
    pub snapshot_pinned_bytes: u64,
}

/// The transformed document plus what producing it revealed.
#[derive(Debug, Clone)]
pub struct QueryResponse {
    /// The rendered XML.
    pub xml: String,
    /// The typing class the loss analysis assigned (§V) — the query
    /// ran, so this class was admitted by the guard's casts.
    pub typing: GuardTyping,
    /// Execution stats, present when the request opted in.
    pub stats: Option<QueryStats>,
}

/// One open store + shredded document behind the unified query surface.
///
/// Cheap to share: all query paths take `&self`, so wrap an `Engine` in
/// an `Arc` and hand clones to every connection handler. Writes go
/// through [`Engine::mutate`], also `&self`: internally the document
/// sits behind an `RwLock`, but a query holds the read lock only long
/// enough to pin a [`Snapshot`] — the analysis and render then run
/// entirely against that immutable epoch, so readers proceed at full
/// speed while a single writer mutates and publishes the next epoch.
pub struct Engine {
    store: Store,
    doc: RwLock<ShreddedDoc>,
}

/// One document write, described declaratively for [`Engine::mutate`]
/// (and the server's `Update`/`Insert`/`Delete` opcodes).
#[derive(Debug, Clone)]
pub enum Mutation {
    /// Replace the direct text of the node at `target`
    /// ([`ShreddedDoc::update_text`]).
    UpdateText {
        /// Dewey number of the node to retext.
        target: Dewey,
        /// New direct text (trimmed, matching the shredder).
        text: String,
    },
    /// Parse `xml` (one rooted element) and append it as the last
    /// child of `parent` ([`ShreddedDoc::insert_subtree`]).
    InsertSubtree {
        /// Dewey number of the insertion parent.
        parent: Dewey,
        /// The XML fragment to shred in.
        xml: String,
    },
    /// Insert `xml` immediately before the node at `sibling`
    /// ([`ShreddedDoc::insert_subtree_before`]).
    InsertBefore {
        /// Dewey number of the sibling to insert before.
        sibling: Dewey,
        /// The XML fragment to shred in.
        xml: String,
    },
    /// Delete the node at `target` and its whole subtree
    /// ([`ShreddedDoc::delete_subtree`]).
    DeleteSubtree {
        /// Dewey number of the subtree root to remove.
        target: Dewey,
    },
}

/// What an applied [`Mutation`] produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MutationOutcome {
    /// The text update landed.
    Updated,
    /// An insert landed; the new subtree root's Dewey number.
    Inserted(Dewey),
    /// A delete landed; the number of vertices removed.
    Deleted(u64),
}

impl Engine {
    /// Shred `xml` into a fresh in-memory store.
    pub fn from_xml(xml: &str) -> MorphResult<Engine> {
        let store = Store::in_memory();
        let doc = ShreddedDoc::shred_str(&store, xml)?;
        Ok(Engine::from_parts(store, doc))
    }

    /// Shred `xml` into `store` with explicit shred options.
    pub fn shred(store: Store, xml: &str, opts: &ShredOptions) -> MorphResult<Engine> {
        let doc = ShreddedDoc::shred_str_with(&store, xml, opts)?;
        Ok(Engine::from_parts(store, doc))
    }

    /// Shred a document file straight from disk into `store` without
    /// reading it into memory first: the parser keeps a bounded byte
    /// window, and with [`ShredOptions::memory_budget`] set the
    /// sort/load stage spills runs to temporary store segments instead
    /// of holding the entry set in memory — documents much larger than
    /// RAM shred in bounded space.
    pub fn shred_path(store: Store, path: &Path, opts: &ShredOptions) -> MorphResult<Engine> {
        let doc = ShreddedDoc::shred_file_with(&store, path, opts)?;
        Ok(Engine::from_parts(store, doc))
    }

    /// Shred a document pulled incrementally from any
    /// [`std::io::Read`] into `store`.
    pub fn shred_reader<R: std::io::Read>(
        store: Store,
        reader: R,
        opts: &ShredOptions,
    ) -> MorphResult<Engine> {
        let doc = ShreddedDoc::shred_reader_with(&store, reader, opts)?;
        Ok(Engine::from_parts(store, doc))
    }

    /// Open an existing store file holding a shredded document.
    pub fn open_path(path: &Path) -> MorphResult<Engine> {
        let store = Store::open(path).map_err(|e| MorphError::Store {
            op: format!("open store {}", path.display()),
            source: e,
        })?;
        Self::open_store(store)
    }

    /// Open the shredded document in an already-open store.
    pub fn open_store(store: Store) -> MorphResult<Engine> {
        Self::open_store_with(store, &OpenOptions::default())
    }

    /// [`Engine::open_store`] with explicit open options.
    pub fn open_store_with(store: Store, opts: &OpenOptions) -> MorphResult<Engine> {
        let doc = ShreddedDoc::open_with(&store, opts)?;
        Ok(Engine::from_parts(store, doc))
    }

    /// Wrap an already-open store/document pair.
    pub fn from_parts(store: Store, doc: ShreddedDoc) -> Engine {
        Engine {
            store,
            doc: RwLock::new(doc),
        }
    }

    /// The underlying shredded document (read-only probes). Holding
    /// the returned guard blocks [`Engine::mutate`]; prefer
    /// [`Engine::snapshot`] for anything longer than a probe or two.
    pub fn doc(&self) -> RwLockReadGuard<'_, ShreddedDoc> {
        self.doc.read().unwrap()
    }

    /// Pin the current epoch: an immutable view every probe of which
    /// answers from the document state as of this call, regardless of
    /// concurrent [`Engine::mutate`] calls.
    pub fn snapshot(&self) -> Arc<Snapshot> {
        self.doc.read().unwrap().snapshot()
    }

    /// The document epoch: bumps once per applied mutation.
    pub fn epoch(&self) -> u64 {
        self.doc.read().unwrap().epoch()
    }

    /// The underlying store.
    pub fn store(&self) -> &Store {
        &self.store
    }

    /// A new per-client session over this engine.
    pub fn session(&self) -> Session<'_> {
        Session {
            engine: self,
            queries: 0,
        }
    }

    /// Run one query. The guard text is looked up in the pinned
    /// snapshot's compile cache; only a miss parses and compiles it.
    /// Parse and evaluation errors are returned and never cached.
    ///
    /// The document read lock is held only long enough to pin a
    /// [`Snapshot`]; analysis and rendering then run lock-free against
    /// that one epoch, so a query never observes a half-applied
    /// mutation and never blocks the writer for its whole duration.
    pub fn query(&self, req: &QueryRequest) -> MorphResult<QueryResponse> {
        self.run(&req.guard, None, req)
    }

    /// [`Engine::query`] for an already-parsed guard: the compile cache
    /// is keyed by [`Guard::source`], and a miss compiles `guard`
    /// without parsing again.
    pub fn query_parsed(&self, guard: &Guard, req: &QueryRequest) -> MorphResult<QueryResponse> {
        self.run(guard.source(), Some(guard), req)
    }

    fn run(
        &self,
        text: &str,
        parsed: Option<&Guard>,
        req: &QueryRequest,
    ) -> MorphResult<QueryResponse> {
        let snap = self.doc.read().unwrap().snapshot();
        let before_io = req.collect_stats.then(|| self.store.io_stats_snapshot());
        let before_cols = req.collect_stats.then(|| snap.column_bytes().total());

        let t0 = Instant::now();
        let cached = snap.compiled_guard(text);
        let compile_cached = cached.is_some();
        let compiled = match cached {
            Some(hit) => hit,
            None => {
                let compiled = match parsed {
                    Some(guard) => guard.compile_snapshot(&snap)?,
                    None => Guard::parse(text)?.compile_snapshot(&snap)?,
                };
                snap.cache_compiled(text, compiled)
            }
        };
        compiled.enforce()?;
        let compile = t0.elapsed();

        let threads = if req.threads > 0 {
            req.threads
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        };
        let popts = ParallelOptions {
            threads,
            render: RenderOptions {
                wrapper: req.wrapper.clone(),
                ..Default::default()
            },
        };
        let t1 = Instant::now();
        let xml = render_parallel_snapshot(&snap, &compiled.target, &popts)?;
        let render = t1.elapsed();

        let stats = before_io.map(|before| QueryStats {
            compile,
            compile_cached,
            render,
            threads,
            io: self.store.io_stats_snapshot().since(&before),
            column_bytes_delta: snap
                .column_bytes()
                .total()
                .saturating_sub(before_cols.unwrap_or(0)) as u64,
            snapshot_pinned_bytes: self.doc.read().unwrap().snapshot_pinned_bytes() as u64,
        });
        Ok(QueryResponse {
            xml,
            typing: compiled.typing,
            stats,
        })
    }

    /// Apply one document write. Takes the document write lock for the
    /// mutation's duration; queries already running keep reading their
    /// pinned snapshots, and the next [`Engine::snapshot`] (or query)
    /// publishes the new epoch.
    pub fn mutate(&self, m: &Mutation) -> MorphResult<MutationOutcome> {
        let mut doc = self.doc.write().unwrap();
        match m {
            Mutation::UpdateText { target, text } => {
                doc.update_text(target, text)?;
                Ok(MutationOutcome::Updated)
            }
            Mutation::InsertSubtree { parent, xml } => {
                Ok(MutationOutcome::Inserted(doc.insert_subtree(parent, xml)?))
            }
            Mutation::InsertBefore { sibling, xml } => Ok(MutationOutcome::Inserted(
                doc.insert_subtree_before(sibling, xml)?,
            )),
            Mutation::DeleteSubtree { target } => {
                Ok(MutationOutcome::Deleted(doc.delete_subtree(target)?))
            }
        }
    }

    /// Shut the engine down: flush and close the store. Idempotent at
    /// the store layer; after this every further query fails with a
    /// typed store error.
    pub fn close(&self) -> MorphResult<()> {
        self.store.close().map_err(|e| MorphError::Store {
            op: "close store".to_string(),
            source: e,
        })
    }
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("types", &self.doc().types().len())
            .field("persistent", &self.store.is_persistent())
            .finish()
    }
}

/// Per-client query state over a shared [`Engine`]: the count of
/// queries served. The server gives each connection one session;
/// single-program tools can use one session for their whole run.
/// Compiled guards are cached per epoch on the engine's snapshots, not
/// here, so a session holds nothing that grows with its client.
pub struct Session<'e> {
    engine: &'e Engine,
    queries: u64,
}

impl<'e> Session<'e> {
    /// The engine this session queries.
    pub fn engine(&self) -> &'e Engine {
        self.engine
    }

    /// Run one query ([`Engine::query`]).
    pub fn query(&mut self, req: &QueryRequest) -> MorphResult<QueryResponse> {
        let resp = self.engine.query(req);
        if resp.is_ok() {
            self.queries += 1;
        }
        resp
    }

    /// Successfully served queries.
    pub fn queries_served(&self) -> u64 {
        self.queries
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::shredded::COMPILE_CACHE_CAP;

    const FIG1A: &str = "<data>\
        <book><title>X</title><author><name>Tim</name></author></book>\
        <book><title>Y</title><author><name>Ann</name></author></book>\
        </data>";

    #[test]
    fn engine_matches_guard_apply() {
        let engine = Engine::from_xml(FIG1A).unwrap();
        let guard = Guard::parse("MORPH author [ name book [ title ] ]").unwrap();
        let direct = guard.apply(&engine.doc()).unwrap().xml;
        for threads in [0usize, 1, 2, 4] {
            let req = QueryRequest::builder("MORPH author [ name book [ title ] ]")
                .threads(threads)
                .build();
            assert_eq!(engine.query(&req).unwrap().xml, direct, "threads={threads}");
        }
    }

    #[test]
    fn stats_opt_in() {
        let engine = Engine::from_xml(FIG1A).unwrap();
        let off = engine
            .query(&QueryRequest::builder("MORPH title").build())
            .unwrap();
        assert!(off.stats.is_none());
        let on = engine
            .query(&QueryRequest::builder("MORPH title").stats(true).build())
            .unwrap();
        let stats = on.stats.expect("stats requested");
        assert!(stats.threads >= 1);
    }

    #[test]
    fn no_wrapper_is_bare() {
        let engine = Engine::from_xml(FIG1A).unwrap();
        let resp = engine
            .query(
                &QueryRequest::builder("MORPH author [ name ]")
                    .no_wrapper()
                    .build(),
            )
            .unwrap();
        assert!(resp.xml.starts_with("<author>"), "{}", resp.xml);
    }

    fn compiled_from_cache(engine: &Engine, req: &QueryRequest) -> bool {
        engine
            .query(req)
            .unwrap()
            .stats
            .expect("stats requested")
            .compile_cached
    }

    #[test]
    fn session_repeat_query_hits_compile_cache() {
        let engine = Engine::from_xml(FIG1A).unwrap();
        let mut session = engine.session();
        let req = QueryRequest::builder("MORPH title").stats(true).build();
        let a = session.query(&req).unwrap();
        let b = session.query(&req).unwrap();
        assert_eq!(a.xml, b.xml);
        assert!(!a.stats.unwrap().compile_cached);
        assert!(b.stats.unwrap().compile_cached);
        assert_eq!(session.queries_served(), 2);
        // A parse failure is surfaced, not counted, and not cached: the
        // resubmitted text fails to parse again.
        let bad = QueryRequest::builder("MORPH [[[").build();
        for _ in 0..2 {
            assert!(matches!(session.query(&bad), Err(MorphError::Parse { .. })));
        }
        assert_eq!(engine.snapshot().compiled_guards(), 1);
        assert_eq!(session.queries_served(), 2);
    }

    #[test]
    fn queries_in_one_epoch_share_one_compiled_guard() {
        let engine = Engine::from_xml(FIG1A).unwrap();
        let req = QueryRequest::builder("MORPH author [ name ]").build();
        let snap = engine.snapshot();
        assert!(snap.compiled_guard(req.guard()).is_none());
        let first_xml = engine.query(&req).unwrap().xml;
        let first = snap.compiled_guard(req.guard()).expect("cached");
        let guard = Guard::parse(req.guard()).unwrap();
        assert_eq!(engine.query_parsed(&guard, &req).unwrap().xml, first_xml);
        let second = snap.compiled_guard(req.guard()).expect("cached");
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(snap.compiled_guards(), 1);
    }

    #[test]
    fn compile_cache_cap_holds() {
        let engine = Engine::from_xml(FIG1A).unwrap();
        let guards: Vec<QueryRequest> = (1..=COMPILE_CACHE_CAP + 8)
            .map(|i| {
                QueryRequest::builder(format!("MORPH{}title", " ".repeat(i)))
                    .stats(true)
                    .build()
            })
            .collect();
        let expected = engine.query(&guards[0]).unwrap().xml;
        for req in &guards {
            assert_eq!(engine.query(req).unwrap().xml, expected);
        }
        let snap = engine.snapshot();
        assert_eq!(snap.compiled_guards(), COMPILE_CACHE_CAP);
        // Guards past the cap are still served, compiled every time.
        let last = guards.last().unwrap();
        assert!(snap.compiled_guard(last.guard()).is_none());
        assert!(!compiled_from_cache(&engine, last));
        assert!(compiled_from_cache(&engine, &guards[0]));
    }

    #[test]
    fn rejected_guard_reports_typed_error() {
        // Fig. 1(c): author-rooted data; dropping title while keeping
        // the book subtree is widening, which default enforcement
        // rejects (same case as the guard-level test).
        let fig1c = "<data><author><name>Tim</name>\
            <book><title>X</title><publisher><name>W</name></publisher></book>\
            <book><title>Y</title><publisher><name>V</name></publisher></book>\
            </author></data>";
        let engine = Engine::from_xml(fig1c).unwrap();
        let guard = "MORPH author [ !title name publisher [ name ] ]";
        let req = QueryRequest::builder(guard).build();
        // The rejected guard is cached with its typing, so every cache
        // hit is rejected again.
        for _ in 0..3 {
            match engine.query(&req) {
                Err(MorphError::Rejected { typing, .. }) => {
                    assert_eq!(typing, GuardTyping::Widening)
                }
                other => panic!("expected Rejected, got {other:?}"),
            }
        }
        let entry = engine.snapshot().compiled_guard(guard).expect("cached");
        assert_eq!(entry.typing, GuardTyping::Widening);
    }

    #[test]
    fn snapshot_reads_count_segment_fallbacks_and_rebuilds() {
        let dir = std::env::temp_dir().join(format!("xmorph-engine-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("corrupt-segments.db");
        std::fs::remove_file(&path).ok();
        {
            let store = Store::create(&path).unwrap();
            ShreddedDoc::shred_str(&store, FIG1A).unwrap();
            store.close().unwrap();
        }
        crate::store::colseg::corrupt_segments_in_file(&path);

        let engine = Engine::open_path(&path).unwrap();
        let req = QueryRequest::builder("MORPH author [ name book [ title ] ]")
            .threads(1)
            .build();
        assert!(engine.query(&req).unwrap().xml.contains("<name>Tim</name>"));
        // The query loaded its columns into the snapshot, not the
        // document cache; both counters still see those loads.
        let doc = engine.doc();
        assert!(!doc.segment_fallbacks().is_empty());
        assert!(doc.maintenance_stats().column_rebuilds > 0);
        drop(doc);
        drop(engine);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn close_is_idempotent() {
        let engine = Engine::from_xml(FIG1A).unwrap();
        engine.close().unwrap();
        engine.close().unwrap();
    }

    #[test]
    fn mutate_then_query_sees_new_epoch() {
        let engine = Engine::from_xml(FIG1A).unwrap();
        let req = QueryRequest::builder("MORPH title").stats(true).build();
        assert!(engine.query(&req).unwrap().xml.contains("<title>X</title>"));
        assert!(compiled_from_cache(&engine, &req));
        let e0 = engine.epoch();
        let out = engine
            .mutate(&Mutation::UpdateText {
                target: "1.1.1".parse().unwrap(),
                text: "Z".to_string(),
            })
            .unwrap();
        assert_eq!(out, MutationOutcome::Updated);
        assert!(engine.epoch() > e0);
        // The new epoch's snapshot starts with an empty compile cache.
        let resp = engine.query(&req).unwrap();
        assert!(!resp.stats.unwrap().compile_cached);
        let xml = resp.xml;
        assert!(xml.contains("<title>Z</title>"), "{xml}");
        assert!(!xml.contains("<title>X</title>"), "{xml}");
        assert!(compiled_from_cache(&engine, &req));
    }

    #[test]
    fn mutate_insert_and_delete_roundtrip() {
        let engine = Engine::from_xml(FIG1A).unwrap();
        let inserted = engine
            .mutate(&Mutation::InsertSubtree {
                parent: "1".parse().unwrap(),
                xml: "<book><title>N</title></book>".to_string(),
            })
            .unwrap();
        let MutationOutcome::Inserted(at) = inserted else {
            panic!("expected Inserted, got {inserted:?}");
        };
        assert_eq!(at.to_string(), "1.3");
        let req = QueryRequest::builder("MORPH title").build();
        assert!(engine.query(&req).unwrap().xml.contains("<title>N</title>"));
        let deleted = engine
            .mutate(&Mutation::DeleteSubtree { target: at })
            .unwrap();
        assert_eq!(deleted, MutationOutcome::Deleted(2)); // book + title
        assert!(!engine.query(&req).unwrap().xml.contains("<title>N</title>"));
    }

    #[test]
    fn pinned_snapshot_is_stable_across_mutations() {
        let engine = Engine::from_xml(FIG1A).unwrap();
        let snap = engine.snapshot();
        engine
            .mutate(&Mutation::UpdateText {
                target: "1.1.1".parse().unwrap(),
                text: "Z".to_string(),
            })
            .unwrap();
        let title = snap
            .types()
            .lookup(&["data".into(), "book".into(), "title".into()])
            .unwrap();
        let texts: Vec<String> = snap.scan_type(title).into_iter().map(|(_, t)| t).collect();
        assert_eq!(texts, ["X", "Y"]);
    }

    #[test]
    fn mutate_error_reports_and_leaves_doc_usable() {
        let engine = Engine::from_xml(FIG1A).unwrap();
        let err = engine.mutate(&Mutation::DeleteSubtree {
            target: "1".parse().unwrap(),
        });
        assert!(matches!(err, Err(MorphError::Mutation { .. })));
        let req = QueryRequest::builder("MORPH title").build();
        assert!(engine.query(&req).unwrap().xml.contains("<title>X</title>"));
    }
}
