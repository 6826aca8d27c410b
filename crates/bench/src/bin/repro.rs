//! `repro` — regenerate every table and figure of the paper.
//!
//! ```text
//! repro [--exp all|fig1|fig2|listing1|listing2|sec31|fig6|fig7|ablations|extensions]
//!       [--scale small|paper] [--out DIR]
//! ```
//!
//! Prints paper-style tables to stdout and, when `--out` is given, writes
//! the raw series as JSON (one file per experiment) for EXPERIMENTS.md.

use ncq_bench::experiments::{ablations, corpora, extensions, fig6, fig7, listings};
use ncq_bench::json::ToJson;
use std::io::Write as _;
use std::path::PathBuf;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Scale {
    Small,
    Paper,
}

struct Args {
    exp: String,
    scale: Scale,
    out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut exp = "all".to_owned();
    let mut scale = Scale::Paper;
    let mut out = None;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--exp" => exp = it.next().ok_or("--exp needs a value")?,
            "--scale" => {
                scale = match it.next().as_deref() {
                    Some("small") => Scale::Small,
                    Some("paper") => Scale::Paper,
                    other => return Err(format!("unknown scale {other:?}")),
                }
            }
            "--out" => out = Some(PathBuf::from(it.next().ok_or("--out needs a value")?)),
            "--help" | "-h" => {
                println!(
                    "usage: repro [--exp all|fig1|fig2|listing1|listing2|sec31|fig6|fig7|\
                     ablations|extensions] [--scale small|paper] [--out DIR]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args { exp, scale, out })
}

fn write_json(out: &Option<PathBuf>, name: &str, value: &impl ToJson) {
    if let Some(dir) = out {
        std::fs::create_dir_all(dir).expect("create output dir");
        let path = dir.join(format!("{name}.json"));
        let mut f = std::io::BufWriter::new(std::fs::File::create(&path).expect("create file"));
        f.write_all(value.to_json().render().as_bytes())
            .expect("serialize");
        f.flush().expect("flush");
        eprintln!("wrote {}", path.display());
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let want = |name: &str| args.exp == "all" || args.exp == name;

    if want("fig1") || want("fig2") {
        let db = corpora::figure1();
        if want("fig1") {
            println!("== Figure 1 — syntax tree of the example document ==");
            println!("{}", db.store().dump_tree());
        }
        if want("fig2") {
            println!("== Figure 2 — Monet transform of the example document ==");
            println!("{}", db.store().dump_relations());
        }
    }

    if want("listing1") || want("listing2") {
        let db = corpora::figure1();
        let r = listings::run(&db);
        println!("== Listing 1 — baseline query (ancestor-implied answers) ==");
        println!("{}\n", r.baseline_xml);
        println!("== Listing 2 — meet query (nearest concept only) ==");
        println!("{}\n", r.meet_xml);
        write_json(&args.out, "listings", &r);
    }

    if want("sec31") {
        let db = corpora::figure1();
        let examples = listings::sec31(&db);
        println!("== §3.1 worked examples ==");
        for e in &examples {
            println!(
                "meet({:?}, {:?}) = <{}> (expected <{}>, distance {})",
                e.terms[0], e.terms[1], e.actual_tag, e.expected_tag, e.distance
            );
        }
        println!();
        write_json(&args.out, "sec31", &examples);
    }

    if want("fig6") {
        let noise = match args.scale {
            Scale::Small => 100,
            Scale::Paper => 2_000,
        };
        let (db, corpus) = corpora::multimedia(noise);
        let cfg = fig6::Fig6Config::default();
        let result = fig6::run(&db, &corpus, &cfg);
        println!("{}", fig6::table(&result));
        write_json(&args.out, "fig6", &result);
    }

    if want("fig7") {
        let (db, _corpus) = match args.scale {
            Scale::Small => corpora::dblp_small(),
            Scale::Paper => corpora::dblp_case_study(),
        };
        let result = fig7::run(&db, &fig7::Fig7Config::default());
        println!("{}", fig7::table(&result));
        write_json(&args.out, "fig7", &result);
    }

    if want("ablations") {
        let rows = ablations::steering(&[8, 32, 128, 512], 5);
        println!("{}", ablations::steering_table(&rows));
        write_json(&args.out, "ablation_steering", &rows);

        let (db, _) = match args.scale {
            Scale::Small => corpora::dblp_small(),
            Scale::Paper => corpora::dblp_case_study(),
        };
        let a = db.search_word("ICDE");
        let mut b = ncq_fulltext::HitSet::new();
        for y in 1984u16..=1999 {
            b.union(&db.search_word(&y.to_string()));
        }
        let rows = ablations::scaling(&db, &a, &b, 8, 5);
        println!("{}", ablations::scaling_table(&rows));
        write_json(&args.out, "ablation_scaling", &rows);

        let inputs = vec![a, b];
        let rows = ablations::restrictions(&db, &inputs, 5);
        println!("{}", ablations::restrictions_table(&rows));
        write_json(&args.out, "ablation_restrictions", &rows);
    }

    if want("extensions") {
        let (db, _) = match args.scale {
            Scale::Small => corpora::dblp_small(),
            Scale::Paper => corpora::dblp_case_study(),
        };
        let g = extensions::graph_meets(&db, 5);
        let t = extensions::thesaurus_broadening(&db, 1999);
        println!("{}", extensions::table(&g, &t));
        write_json(&args.out, "extension_graph", &g);
        write_json(&args.out, "extension_thesaurus", &t);
    }
}
