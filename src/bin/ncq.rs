//! `ncq` — command-line nearest concept queries over any XML file.
//!
//! ```text
//! ncq FILE.xml --terms Bit,1999                # meet of full-text terms
//! ncq FILE.xml --query "select meet(a,b) from ..."   # the SQL dialect
//! ncq FILE.xml --stats                         # storage statistics
//! ncq FILE.xml                                 # interactive query loop
//! ```

use nearest_concept::core::{MeetOptions, PathFilter};
use nearest_concept::{run_query, Database, QueryOutput};
use std::io::{BufRead, Write};

struct Args {
    file: String,
    terms: Option<Vec<String>>,
    query: Option<String>,
    stats: bool,
    exclude_root: bool,
    within: Option<usize>,
}

fn usage() -> ! {
    eprintln!(
        "usage: ncq FILE.xml [--terms a,b,...] [--query SQL] [--stats] \
         [--exclude-root] [--within N]\n\
         With no mode flag, ncq reads queries from stdin (one per line; \
         lines starting with ? are term lists)."
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        file: String::new(),
        terms: None,
        query: None,
        stats: false,
        exclude_root: false,
        within: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--terms" => {
                let v = it.next().unwrap_or_else(|| usage());
                args.terms = Some(v.split(',').map(str::to_owned).collect());
            }
            "--query" => args.query = Some(it.next().unwrap_or_else(|| usage())),
            "--stats" => args.stats = true,
            "--exclude-root" => args.exclude_root = true,
            "--within" => {
                args.within = it.next().and_then(|n| n.parse().ok()).or_else(|| usage());
            }
            "--help" | "-h" => usage(),
            _ if args.file.is_empty() && !a.starts_with('-') => args.file = a,
            _ => usage(),
        }
    }
    if args.file.is_empty() {
        usage();
    }
    args
}

fn options(args: &Args, db: &Database) -> MeetOptions {
    MeetOptions {
        filter: if args.exclude_root {
            PathFilter::exclude_root(db.store())
        } else {
            PathFilter::All
        },
        max_distance: args.within,
        ..MeetOptions::default()
    }
}

fn run_terms(db: &Database, terms: &[String], opts: &MeetOptions) {
    let refs: Vec<&str> = terms.iter().map(String::as_str).collect();
    match db.meet_terms_with(&refs, opts) {
        Ok(answers) => {
            println!("{}", answers.to_answer_xml());
            for a in answers.iter() {
                println!("  {} at {} (distance {})", a.oid, a.path, a.distance);
            }
        }
        Err(e) => eprintln!("error: {e}"),
    }
}

fn run_sql(db: &Database, query: &str) {
    match run_query(db, query) {
        Ok(QueryOutput::Answers(a)) => println!("{}", a.to_answer_xml()),
        Ok(QueryOutput::Rows(r)) => println!("{}", r.to_answer_xml()),
        Err(e) => eprintln!("error: {e}"),
    }
}

fn main() {
    let args = parse_args();
    let xml = match std::fs::read_to_string(&args.file) {
        Ok(x) => x,
        Err(e) => {
            eprintln!("cannot read {}: {e}", args.file);
            std::process::exit(1);
        }
    };
    let db = match Database::from_xml_str(&xml) {
        Ok(db) => db,
        Err(e) => {
            eprintln!("parse error in {}: {e}", args.file);
            std::process::exit(1);
        }
    };
    eprintln!(
        "loaded {}: {} objects, {} paths",
        args.file,
        db.store().node_count(),
        db.store().summary().len()
    );

    if args.stats {
        println!("{}", db.store().stats());
        return;
    }
    let opts = options(&args, &db);
    if let Some(terms) = &args.terms {
        run_terms(&db, terms, &opts);
        return;
    }
    if let Some(q) = &args.query {
        run_sql(&db, q);
        return;
    }

    // Interactive loop: `? term1 term2` for meets, anything else is SQL.
    let stdin = std::io::stdin();
    let mut out = std::io::stdout();
    loop {
        print!("ncq> ");
        let _ = out.flush();
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
        let line = line.trim();
        if line.is_empty() || line == "quit" || line == "exit" {
            break;
        }
        if let Some(terms) = line.strip_prefix('?') {
            let terms: Vec<String> = terms.split_whitespace().map(str::to_owned).collect();
            run_terms(&db, &terms, &opts);
        } else {
            run_sql(&db, line);
        }
    }
}
