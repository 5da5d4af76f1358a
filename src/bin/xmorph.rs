//! `xmorph` — the stand-alone XMorph 2.0 command-line tool.
//!
//! The paper's architecture #1 (§VIII): physically transform documents,
//! optionally keeping a shredded store on disk so one shred serves many
//! transformations. Also exposes the analysis, the adorned shape, guard
//! inference, and the bundled XQuery baseline.
//!
//! ```console
//! $ xmorph apply   --guard 'MORPH author [ name book [ title ] ]' --input data.xml
//! $ xmorph analyze --guard 'MUTATE name [ author ]' --input data.xml
//! $ xmorph shape   --input data.xml
//! $ xmorph shred   --store lib.db --input data.xml
//! $ xmorph apply   --guard 'MORPH title' --store lib.db
//! $ xmorph infer   --query 'for $a in doc("d")/result/author return $a/name'
//! $ xmorph query   --input data.xml --query 'doc("doc.xml")//title'
//! $ xmorph serve   --addr 127.0.0.1:7878 --store lib.db --name library
//! ```

use std::io::Read;
use std::path::Path;
use std::process::ExitCode;
use xmorph_core::model::shape::AdornedShape;
use xmorph_core::{Engine, Guard, QueryRequest, ShreddedDoc};
use xmorph_pagestore::Store;
use xmorph_server::{Server, ServerConfig};
use xmorph_xml::dom::Document;
use xmorph_xqlite::XqliteDb;

const USAGE: &str = "\
xmorph — shape-polymorphic XML transformation (XMorph 2.0)

USAGE:
    xmorph <command> [options]

COMMANDS:
    apply     transform a document with a guard (checks typing first)
    analyze   show the target shape, label report, and loss report
    quantify  measure actual loss of a guard on a document
    shape     print a document's adorned shape (with cardinalities)
    shred     shred a document into a store file for reuse
    infer     infer a guard from an XQuery's paths
    query     run an XQuery against a document (baseline engine)
    serve     serve a store over TCP (framed protocol; see DESIGN.md §4h)

OPTIONS:
    --guard <text>        the guard program (apply/analyze/quantify)
    --input <file>        XML document ('-' for stdin)
    --store <file>        shredded store to create (shred) or reuse (apply/serve/…)
    --query <text>        XQuery text (infer/query)
    --no-wrapper          emit the instance stream without a <result> wrapper
    --addr <host:port>    listen address (serve; default 127.0.0.1:7878)
    --name <store-name>   name clients address the store by (serve; default 'default')
    --max-sessions <n>    concurrent connections before BUSY (serve; default 64)
    --max-inflight <n>    concurrent queries before BUSY (serve; default = CPUs)
    --read-only           refuse UPDATE/INSERT/DELETE frames (serve)
";

struct Args {
    command: String,
    guard: Option<String>,
    input: Option<String>,
    store: Option<String>,
    query: Option<String>,
    no_wrapper: bool,
    addr: String,
    name: String,
    max_sessions: Option<usize>,
    max_inflight: Option<usize>,
    read_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let command = argv.next().ok_or_else(|| USAGE.to_string())?;
    let mut args = Args {
        command,
        guard: None,
        input: None,
        store: None,
        query: None,
        no_wrapper: false,
        addr: "127.0.0.1:7878".to_string(),
        name: "default".to_string(),
        max_sessions: None,
        max_inflight: None,
        read_only: false,
    };
    while let Some(flag) = argv.next() {
        match flag.as_str() {
            "--guard" => args.guard = Some(argv.next().ok_or("--guard needs a value")?),
            "--input" => args.input = Some(argv.next().ok_or("--input needs a value")?),
            "--store" => args.store = Some(argv.next().ok_or("--store needs a value")?),
            "--query" => args.query = Some(argv.next().ok_or("--query needs a value")?),
            "--no-wrapper" => args.no_wrapper = true,
            "--addr" => args.addr = argv.next().ok_or("--addr needs a value")?,
            "--name" => args.name = argv.next().ok_or("--name needs a value")?,
            "--max-sessions" => {
                let v = argv.next().ok_or("--max-sessions needs a value")?;
                args.max_sessions = Some(v.parse().map_err(|_| "--max-sessions needs a number")?);
            }
            "--max-inflight" => {
                let v = argv.next().ok_or("--max-inflight needs a value")?;
                args.max_inflight = Some(v.parse().map_err(|_| "--max-inflight needs a number")?);
            }
            "--read-only" => args.read_only = true,
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown option {other}\n\n{USAGE}")),
        }
    }
    Ok(args)
}

fn read_input(path: &str) -> Result<String, String> {
    if path == "-" {
        let mut buf = String::new();
        std::io::stdin()
            .read_to_string(&mut buf)
            .map_err(|e| format!("reading stdin: {e}"))?;
        Ok(buf)
    } else {
        std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))
    }
}

/// Open the shredded document from `--store` or shred `--input` into an
/// in-memory store. Returns the store so it outlives the doc handle.
fn load_doc(args: &Args) -> Result<(Store, ShreddedDoc), String> {
    match (&args.store, &args.input) {
        (Some(store_path), None) => {
            let store = Store::open(Path::new(store_path)).map_err(|e| e.to_string())?;
            let doc = ShreddedDoc::open(&store).map_err(|e| e.to_string())?;
            Ok((store, doc))
        }
        (None, Some(input)) | (Some(_), Some(input)) => {
            let xml = read_input(input)?;
            let store = Store::in_memory();
            let doc = ShreddedDoc::shred_str(&store, &xml).map_err(|e| e.to_string())?;
            Ok((store, doc))
        }
        (None, None) => Err("need --input <file> or --store <file>".to_string()),
    }
}

fn require_guard(args: &Args) -> Result<Guard, String> {
    let text = args.guard.as_deref().ok_or("need --guard '<program>'")?;
    Guard::parse(text).map_err(|e| e.to_string())
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    match args.command.as_str() {
        "apply" => {
            let guard_text = args.guard.as_deref().ok_or("need --guard '<program>'")?;
            let (store, doc) = load_doc(&args)?;
            let engine = Engine::from_parts(store, doc);
            let mut request = QueryRequest::builder(guard_text);
            if args.no_wrapper {
                request = request.no_wrapper();
            }
            let out = engine.query(&request.build()).map_err(|e| e.to_string())?;
            println!("{}", out.xml);
            eprintln!("typing: {}", out.typing);
            Ok(())
        }
        "analyze" => {
            let guard = require_guard(&args)?;
            let (_store, doc) = load_doc(&args)?;
            let analysis = guard.analyze(&doc.snapshot()).map_err(|e| e.to_string())?;
            println!("target shape:\n{}", analysis.target);
            println!("{}", analysis.labels);
            println!("{}", analysis.loss);
            println!(
                "enforcement: {}",
                if analysis.permitted() {
                    "admitted"
                } else {
                    "REJECTED (add a CAST)"
                }
            );
            println!("effective guard: {}", analysis.target.to_guard());
            Ok(())
        }
        "quantify" => {
            let guard = require_guard(&args)?;
            let (_store, doc) = load_doc(&args)?;
            let q = guard.quantify(&doc).map_err(|e| e.to_string())?;
            println!("{q}");
            Ok(())
        }
        "shape" => {
            let input = args.input.as_deref().ok_or("need --input <file>")?;
            let xml = read_input(input)?;
            let doc = Document::parse_str(&xml).map_err(|e| e.to_string())?;
            let shape = AdornedShape::from_document(&doc);
            println!("{shape}");
            eprintln!(
                "{} distinct types, {} vertices",
                shape.types().len(),
                shape.total_instances()
            );
            Ok(())
        }
        "shred" => {
            let input = args.input.as_deref().ok_or("need --input <file>")?;
            let store_path = args.store.as_deref().ok_or("need --store <file>")?;
            let xml = read_input(input)?;
            let store = Store::create(Path::new(store_path)).map_err(|e| e.to_string())?;
            let doc = ShreddedDoc::shred_str(&store, &xml).map_err(|e| e.to_string())?;
            store.close().map_err(|e| e.to_string())?;
            eprintln!(
                "shredded {} bytes into {store_path}: {} types, {} vertices",
                xml.len(),
                doc.types().len(),
                doc.shape().total_instances()
            );
            Ok(())
        }
        "infer" => {
            let query = args.query.as_deref().ok_or("need --query '<xquery>'")?;
            let paths = xmorph_xqlite::query_shape_paths(query).map_err(|e| e.to_string())?;
            let below_root: Vec<Vec<String>> = paths
                .iter()
                .map(|p| p.iter().skip(1).cloned().collect::<Vec<_>>())
                .filter(|p: &Vec<String>| !p.is_empty())
                .collect();
            let guard = xmorph_core::infer::guard_from_paths(&below_root)
                .ok_or("query navigates no shape below the document element")?;
            println!("{guard}");
            Ok(())
        }
        "query" => {
            let query = args.query.as_deref().ok_or("need --query '<xquery>'")?;
            let input = args.input.as_deref().ok_or("need --input <file>")?;
            let xml = read_input(input)?;
            let db = XqliteDb::in_memory();
            db.store_document("doc.xml", &xml)
                .map_err(|e| e.to_string())?;
            println!("{}", db.query(query).map_err(|e| e.to_string())?);
            Ok(())
        }
        "serve" => {
            let (store, doc) = load_doc(&args)?;
            let engine = Engine::from_parts(store, doc);
            let mut config = ServerConfig::default();
            if let Some(n) = args.max_sessions {
                config.max_sessions = n;
            }
            if let Some(n) = args.max_inflight {
                config.max_inflight = n;
            }
            config.read_only = args.read_only;
            let handle = Server::builder()
                .register(args.name.clone(), engine)
                .config(config)
                .bind(args.addr.as_str())
                .map_err(|e| format!("binding {}: {e}", args.addr))?;
            eprintln!(
                "serving store {:?} on {} (framed protocol v1{}; kill the process to stop)",
                args.name,
                handle.addr(),
                if args.read_only { ", read-only" } else { "" }
            );
            // No signal handling without external crates: serve until
            // the process is killed. The WAL makes an unclosed store
            // crash-consistent; a clean drain needs ServerHandle::shutdown,
            // which embedders get through the library API.
            loop {
                std::thread::park();
            }
        }
        other => Err(format!("unknown command {other}\n\n{USAGE}")),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::FAILURE
        }
    }
}
