//! A minimal line protocol over any `BufRead`/`Write` transport.
//!
//! One request per line, verb first (case-insensitive):
//!
//! ```text
//! MEET term term …​ [WITHIN n] [LIMIT k]
//!                                 meet of full-text terms (meet^δ via
//!                                 WITHIN; LIMIT keeps the k best answers):
//!                                 Listing 2's shorthand, served as that
//!                                 SQL meet, one `%` variable per term
//! SQL select meet(a, b) from …​    the SQL-with-paths dialect
//!                                 (`from corpus(name), …` routes per query)
//! SEARCH term                     full-text hit count
//! USE corpus                      route this session at a forest corpus
//!                                 (`USE *` fans MEET, SEARCH and SQL
//!                                 meets across all)
//! CORPORA                         list the forest's corpora (default marked)
//! SNAPSHOT SAVE name              persist the serving backend to a snapshot
//! SNAPSHOT LOAD name [INTO c]     cold-load a snapshot, hot-swap it in —
//!                                 the whole backend, or just corpus `c` of
//!                                 a forest (other corpora untouched)
//!                                 (both gated by ServerConfig::snapshot_dir;
//!                                 `name` is a bare file inside that dir)
//! STATS [RESET]                   service counters incl. admission shed rate,
//!                                 cache hit rates and per-corpus query counts;
//!                                 RESET zeroes the window counters (monotonic
//!                                 totals like `served` keep counting)
//! METRICS                         the full telemetry surface in Prometheus
//!                                 text format: every STATS counter plus the
//!                                 latency histograms and stage counters from
//!                                 the metrics registry
//! TRACE [n]                       render the n most recent query traces
//!                                 (span trees with stage timings; default 5)
//! SLOW [n]                        render the n most recent slow-query traces
//! OBS ON|OFF                      runtime switch for telemetry recording
//! PING                            liveness check
//! QUIT                            end the session
//! ```
//!
//! Responses are framed so multi-line XML survives a line transport:
//!
//! ```text
//! OK <n>        followed by exactly n payload lines
//! ERR <message> single line, no payload
//! ```
//!
//! Every request line is assigned an id up front; errors carry it as a
//! trailing `(req <id>)` marker so an operator can correlate a failed
//! request with its trace (`TRACE`/`SLOW` render the same ids). A
//! request line is at most 64 KiB: a longer one is answered `ERR` and
//! the session closed (there is no boundary to resume at); a line that
//! is not UTF-8 is answered `ERR` and skipped.
//!
//! Meet answers are serialized with
//! [`AnswerSet::to_detailed_xml`](ncq_core::AnswerSet::to_detailed_xml)
//! (tags, paths, distances and witnesses — the same fixture format the
//! golden suite pins); projections use the paper's `<answer>` row
//! markup. The function is transport-agnostic: tests drive it over
//! in-memory buffers, examples over OS pipes, and a TCP acceptor only
//! needs to hand each connection's stream pair to [`serve_lines`].

use crate::server::{Client, Request, Response, ServerStats};
use std::io::{BufRead, Read, Write};

/// Longest request line a session accepts, line terminator excluded.
const MAX_LINE_BYTES: usize = 64 * 1024;

/// Serve one session: read commands from `input` until EOF or `QUIT`,
/// writing framed responses to `output`. Query errors are reported
/// in-band (`ERR …`); only transport failures surface as `io::Error`.
/// A line that is not UTF-8 is answered `ERR` and skipped; a line
/// longer than 64 KiB is answered `ERR` and ends the session.
pub fn serve_lines<R: BufRead, W: Write>(
    client: &Client,
    mut input: R,
    mut output: W,
) -> std::io::Result<()> {
    let mut payload = String::new();
    // The session's corpus routing, set by `USE`. `None` = the
    // deployment's default corpus; `Some("*")` fans MEET, SEARCH and
    // SQL meets out across the whole catalog.
    let mut session_corpus: Option<String> = None;
    let mut line = Vec::new();
    loop {
        // Bounded read: a peer that never sends a newline costs at most
        // the cap, not an ever-growing line.
        line.clear();
        let mut bounded = input.by_ref().take(MAX_LINE_BYTES as u64 + 1);
        if bounded.read_until(b'\n', &mut line)? == 0 {
            break;
        }
        if line.len() > MAX_LINE_BYTES && !line.ends_with(b"\n") {
            let msg = format!("request line exceeds {MAX_LINE_BYTES} bytes");
            write_err(&mut output, &msg, ncq_obs::obs().next_trace_id())?;
            // The rest of the line is unread: no request boundary left.
            break;
        }
        let Ok(text) = std::str::from_utf8(&line) else {
            let msg = "request line is not UTF-8";
            write_err(&mut output, msg, ncq_obs::obs().next_trace_id())?;
            continue;
        };
        let trimmed = text.trim();
        if trimmed.is_empty() {
            continue;
        }
        let (verb, rest) = match trimmed.split_once(char::is_whitespace) {
            Some((v, r)) => (v, r.trim()),
            None => (trimmed, ""),
        };
        payload.clear();
        // Allocate the request id before dispatch: queries carry it as
        // their trace id, and *every* error frame — including parse
        // errors that never reach evaluation — can be correlated.
        let req_id = ncq_obs::obs().next_trace_id();
        match verb.to_ascii_uppercase().as_str() {
            "QUIT" => break,
            "PING" => write_ok(&mut output, "")?,
            "STATS" => match rest.to_ascii_uppercase().as_str() {
                "" => {
                    payload.push_str(&format_stats(client));
                    write_ok(&mut output, &payload)?;
                }
                "RESET" => {
                    client.reset_window_stats();
                    write_ok(&mut output, "window counters reset")?;
                }
                _ => write_err(
                    &mut output,
                    &format!("STATS takes no argument or RESET, got {rest:?}"),
                    req_id,
                )?,
            },
            "METRICS" => {
                payload.push_str(&format_metrics(client));
                write_ok(&mut output, &payload)?;
            }
            "TRACE" => match parse_ring_count(rest) {
                Ok(n) => {
                    render_traces(&ncq_obs::obs().recent_traces(n), &mut payload);
                    write_ok(&mut output, &payload)?;
                }
                Err(msg) => write_err(&mut output, &msg, req_id)?,
            },
            "SLOW" => match parse_ring_count(rest) {
                Ok(n) => {
                    render_traces(&ncq_obs::obs().recent_slow(n), &mut payload);
                    write_ok(&mut output, &payload)?;
                }
                Err(msg) => write_err(&mut output, &msg, req_id)?,
            },
            "OBS" => match rest.to_ascii_uppercase().as_str() {
                "ON" => {
                    ncq_obs::obs().set_enabled(true);
                    write_ok(&mut output, "telemetry on")?;
                }
                "OFF" => {
                    ncq_obs::obs().set_enabled(false);
                    write_ok(&mut output, "telemetry off")?;
                }
                _ => write_err(
                    &mut output,
                    &format!("OBS takes ON or OFF, got {rest:?}"),
                    req_id,
                )?,
            },
            "CORPORA" => respond(client, Request::Corpora, &mut output, &mut payload, req_id)?,
            "USE" if !rest.is_empty() => match validate_use(client, rest) {
                Ok(()) => {
                    session_corpus = Some(rest.to_owned());
                    payload.push_str(&format!("using corpus {rest}"));
                    write_ok(&mut output, &payload)?;
                }
                Err(msg) => write_err(&mut output, &msg, req_id)?,
            },
            "USE" => write_err(&mut output, "USE needs a corpus name (or *)", req_id)?,
            "MEET" => match parse_meet(rest) {
                Ok(request) => respond(
                    client,
                    request.with_corpus(session_corpus.clone()),
                    &mut output,
                    &mut payload,
                    req_id,
                )?,
                Err(msg) => write_err(&mut output, &msg, req_id)?,
            },
            "SQL" if !rest.is_empty() => respond(
                client,
                Request::sql(rest).with_corpus(session_corpus.clone()),
                &mut output,
                &mut payload,
                req_id,
            )?,
            "SEARCH" if !rest.is_empty() => respond(
                client,
                Request::search(rest).with_corpus(session_corpus.clone()),
                &mut output,
                &mut payload,
                req_id,
            )?,
            "SQL" => write_err(&mut output, "SQL needs a query", req_id)?,
            "SEARCH" => write_err(&mut output, "SEARCH needs a term", req_id)?,
            "SNAPSHOT" => match parse_snapshot(rest) {
                Ok(request) => respond(client, request, &mut output, &mut payload, req_id)?,
                Err(msg) => write_err(&mut output, &msg, req_id)?,
            },
            other => write_err(&mut output, &format!("unknown verb {other:?}"), req_id)?,
        }
    }
    output.flush()
}

/// `TRACE`/`SLOW` ring-count argument: optional, defaults to 5.
fn parse_ring_count(rest: &str) -> Result<usize, String> {
    if rest.is_empty() {
        return Ok(5);
    }
    rest.parse::<usize>()
        .map_err(|_| format!("expected a count, got {rest:?}"))
}

/// Render a batch of finished traces, newest first, separated by the
/// traces' own multi-line span trees.
fn render_traces(traces: &[std::sync::Arc<ncq_obs::FinishedTrace>], payload: &mut String) {
    for (i, trace) in traces.iter().enumerate() {
        if i > 0 {
            payload.push('\n');
        }
        payload.push_str(&trace.render().join("\n"));
    }
}

/// A `USE` argument must name a corpus of the serving deployment (or
/// `*`, which needs the deployment to have corpora at all); validating
/// at `USE` time gives the operator one clear error instead of a
/// failure on every subsequent query.
fn validate_use(client: &Client, name: &str) -> Result<(), String> {
    let (names, _) = client.corpora().map_err(|e| e.to_string())?;
    if names.is_empty() {
        return Err("this deployment serves no corpora (single-document backend)".to_owned());
    }
    if name == "*" || names.iter().any(|n| n == name) {
        Ok(())
    } else {
        Err(format!(
            "unknown corpus {name:?} (CORPORA lists {})",
            names.join(", ")
        ))
    }
}

/// How one service counter renders in `STATS` (`key=value`) and in
/// `METRICS` (Prometheus text).
enum Stat {
    /// A count: `key=n`, `# TYPE name counter`.
    Counter(u64),
    /// An integer level: `key=n`, a gauge in `METRICS`.
    Level(u64),
    /// A derived ratio, four decimals in both.
    Rate(f64),
    /// A count the metrics registry owns: `STATS` prints it, `METRICS`
    /// already carries it through the registry render. Looking it up
    /// here also registers it, so it shows before the first increment.
    Registry(u64),
}

/// Every scalar service counter, once: `(STATS key, METRICS name,
/// value)` in `STATS` order. Both verbs render from this list, so a new
/// counter is one new row. A `None` key is `METRICS`-only. The
/// robustness counters (`retries` through `partial_answers`) stay zero
/// for purely local deployments; non-zero values mean the failover
/// routers are working around sick replicas. `shed_rate` (shed /
/// admission attempts) is the back-pressure signal an operator watches
/// to size [`crate::ServerConfig::max_in_flight`].
#[rustfmt::skip]
fn stat_rows(stats: &ServerStats) -> Vec<(Option<&'static str>, &'static str, Stat)> {
    use Stat::{Counter, Level, Rate, Registry};
    let registry = &ncq_obs::obs().registry;
    vec![
        (Some("served"),              "ncq_served_total",          Counter(stats.served as u64)),
        (Some("term_decodes"),        "ncq_term_decodes_total",    Counter(stats.term_decodes as u64)),
        (Some("term_cache_hits"),     "ncq_term_cache_hits_total", Counter(stats.term_cache_hits as u64)),
        (Some("term_cache_hit_rate"), "ncq_term_cache_hit_rate",   Rate(stats.term_cache_hit_rate())),
        (Some("sem_hits"),            "ncq_sem_hits_total",        Counter(stats.sem_hits as u64)),
        (Some("sem_misses"),          "ncq_sem_misses_total",      Counter(stats.sem_misses as u64)),
        (Some("sem_hit_rate"),        "ncq_sem_hit_rate",          Rate(stats.sem_hit_rate())),
        (Some("sem_evictions"),       "ncq_sem_evictions_total",   Counter(stats.sem_evictions as u64)),
        (Some("shed"),                "ncq_shed_total",            Counter(stats.shed as u64)),
        (Some("shed_rate"),           "ncq_shed_rate",             Rate(stats.shed_rate())),
        (Some("retries"),             "ncq_retries_total",         Counter(stats.retries)),
        (Some("failovers"),           "ncq_failovers_total",       Counter(stats.failovers)),
        (Some("replicas_down"),       "ncq_replicas_down",         Level(stats.replicas_down)),
        (Some("timeouts"),            "ncq_timeouts_total",        Counter(stats.timeouts)),
        (Some("partial_answers"),     "ncq_partial_answers_total", Counter(stats.partial_answers as u64)),
        (None,                        "ncq_slow_queries_total",    Counter(ncq_obs::obs().slow_count())),
        // Snapshot-open telemetry: cold starts served zero-copy off a
        // mapped file vs materialized (the owned-heap no-mmap fallback).
        (Some("snapshot.mapped"), "ncq_snapshot_mapped_total",
            Registry(registry.counter("ncq_snapshot_mapped_total").get())),
        (Some("snapshot.materialized"), "ncq_snapshot_materialized_total",
            Registry(registry.counter("ncq_snapshot_materialized_total").get())),
    ]
}

/// The `STATS` payload: one `key=value` line per [`stat_rows`] row; on
/// forest deployments one `corpus.<name>=<served>` line per corpus that
/// has seen queries (per-corpus load at a glance); and the kernel
/// dispatch split.
fn format_stats(client: &Client) -> String {
    let stats = client.stats();
    let mut lines = Vec::new();
    let mut registry_rows = Vec::new();
    for (key, _, stat) in stat_rows(&stats) {
        let Some(key) = key else { continue };
        match stat {
            Stat::Counter(v) | Stat::Level(v) => lines.push(format!("{key}={v}")),
            Stat::Rate(r) => lines.push(format!("{key}={r:.4}")),
            Stat::Registry(v) => registry_rows.push(format!("{key}={v}")),
        }
    }
    for (name, served) in &stats.queries_by_corpus {
        lines.push(format!("corpus.{name}={served}"));
    }
    lines.append(&mut registry_rows);
    // Kernel-dispatch telemetry: which SIMD mode the process picked
    // and how many calls each kernel family served, split scalar vs
    // vector. The CI compat matrix diffs these between `NCQ_SIMD=on`
    // and `off` legs to prove both paths really executed.
    lines.push(format!("simd.mode={}", ncq_simd::mode().name()));
    for (kernel, scalar, vector) in ncq_simd::dispatch_stats().lines() {
        lines.push(format!("simd.{kernel}.scalar={scalar}"));
        lines.push(format!("simd.{kernel}.vector={vector}"));
    }
    lines.join("\n")
}

/// The `METRICS` payload: the whole telemetry surface in Prometheus
/// text format. A strict superset of `STATS` — every [`stat_rows`] row
/// appears as an `ncq_*` counter or gauge — plus per-corpus query
/// counts as a labelled counter family and everything the instrumented
/// stages recorded into the metrics registry (latency histograms with
/// their quantile summaries, remote counters).
fn format_metrics(client: &Client) -> String {
    let stats = client.stats();
    let rows = stat_rows(&stats);
    let mut out = String::new();
    for (_, name, stat) in &rows {
        if let Stat::Counter(v) = stat {
            out.push_str(&format!("# TYPE {name} counter\n{name} {v}\n"));
        }
    }
    for (_, name, stat) in &rows {
        let v = match stat {
            Stat::Level(v) => *v as f64,
            Stat::Rate(r) => *r,
            Stat::Counter(_) | Stat::Registry(_) => continue,
        };
        out.push_str(&format!("# TYPE {name} gauge\n{name} {v:.4}\n"));
    }
    if !stats.queries_by_corpus.is_empty() {
        out.push_str("# TYPE ncq_corpus_queries_total counter\n");
        for (name, served) in &stats.queries_by_corpus {
            out.push_str(&format!(
                "ncq_corpus_queries_total{{corpus=\"{name}\"}} {served}\n"
            ));
        }
    }
    out.push_str(&format!(
        "# TYPE ncq_simd_mode gauge\nncq_simd_mode{{mode=\"{}\"}} 1\n",
        ncq_simd::mode().name()
    ));
    out.push_str("# TYPE ncq_simd_dispatch_total counter\n");
    for (kernel, scalar, vector) in ncq_simd::dispatch_stats().lines() {
        out.push_str(&format!(
            "ncq_simd_dispatch_total{{kernel=\"{kernel}\",path=\"scalar\"}} {scalar}\n"
        ));
        out.push_str(&format!(
            "ncq_simd_dispatch_total{{kernel=\"{kernel}\",path=\"vector\"}} {vector}\n"
        ));
    }
    for line in ncq_obs::obs().registry.render() {
        out.push_str(&line);
        out.push('\n');
    }
    // The framing counts lines: no trailing newline.
    while out.ends_with('\n') {
        out.pop();
    }
    out
}

/// `MEET t1 t2 … [WITHIN n] [LIMIT k]` — terms are whitespace-
/// separated; the trailing clauses (either order) become the distance
/// bound and the answer-count bound. `LIMIT 0` is refused like the
/// dialect's `limit 0`.
fn parse_meet(rest: &str) -> Result<Request, String> {
    let mut terms: Vec<String> = rest.split_whitespace().map(str::to_owned).collect();
    let mut within = None;
    let mut limit = None;
    loop {
        if terms.len() < 2 {
            break;
        }
        let clause = terms[terms.len() - 2].to_ascii_uppercase();
        match clause.as_str() {
            "WITHIN" => {
                let n = terms[terms.len() - 1].parse::<usize>().map_err(|_| {
                    format!("WITHIN needs a number, got {:?}", terms[terms.len() - 1])
                })?;
                within = Some(n);
            }
            "LIMIT" => {
                let n = terms[terms.len() - 1]
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n > 0)
                    .ok_or_else(|| {
                        format!(
                            "LIMIT needs a positive number, got {:?}",
                            terms[terms.len() - 1]
                        )
                    })?;
                limit = Some(n);
            }
            _ => break,
        }
        terms.truncate(terms.len() - 2);
    }
    if terms.is_empty() {
        return Err("MEET needs at least one term".to_owned());
    }
    Ok(Request::MeetTerms {
        terms,
        within,
        limit,
        corpus: None,
    })
}

/// `SNAPSHOT SAVE <name>` / `SNAPSHOT LOAD <name> [INTO <corpus>]` —
/// names are single whitespace-free tokens. This is a deliberate
/// (breaking) hardening: earlier releases accepted names with spaces,
/// so a snapshot saved as `my file.ncq` back then is no longer
/// addressable over the wire — the error hints at renaming it on disk
/// inside the snapshot dir. `INTO` splices the load into one forest
/// corpus instead of swapping the whole backend.
fn parse_snapshot(rest: &str) -> Result<Request, String> {
    let tokens: Vec<&str> = rest.split_whitespace().collect();
    match tokens.as_slice() {
        [mode, path] => match mode.to_ascii_uppercase().as_str() {
            "SAVE" => Ok(Request::snapshot_save(*path)),
            "LOAD" => Ok(Request::snapshot_load(*path)),
            other => Err(format!("SNAPSHOT knows SAVE and LOAD, not {other:?}")),
        },
        [mode, path, into, corpus] if into.eq_ignore_ascii_case("into") => {
            match mode.to_ascii_uppercase().as_str() {
                "LOAD" => Ok(Request::snapshot_load_into(*path, *corpus)),
                "SAVE" => Err("SNAPSHOT SAVE does not take INTO".to_owned()),
                other => Err(format!("SNAPSHOT knows SAVE and LOAD, not {other:?}")),
            }
        }
        [] | [_] => Err("SNAPSHOT needs SAVE|LOAD and a path".to_owned()),
        _ => Err(
            "SNAPSHOT arguments are SAVE|LOAD <name> [INTO <corpus>]; snapshot names \
             cannot contain spaces (rename files saved by older releases on disk)"
                .to_owned(),
        ),
    }
}

fn respond<W: Write>(
    client: &Client,
    request: Request,
    output: &mut W,
    payload: &mut String,
    req_id: u64,
) -> std::io::Result<()> {
    match client.request_with_id(request, req_id) {
        Ok(Response::Answers(a)) => {
            payload.push_str(&a.to_detailed_xml());
            write_ok(output, payload)
        }
        Ok(Response::Rows(r)) => {
            payload.push_str(&r.to_answer_xml());
            write_ok(output, payload)
        }
        Ok(Response::Count(n)) => {
            payload.push_str(&n.to_string());
            write_ok(output, payload)
        }
        Ok(Response::Info(msg)) => {
            payload.push_str(&msg);
            write_ok(output, payload)
        }
        Ok(Response::Corpora { names, default }) => {
            for (i, name) in names.iter().enumerate() {
                if i > 0 {
                    payload.push('\n');
                }
                payload.push_str(name);
                if default.as_deref() == Some(name.as_str()) {
                    payload.push_str(" (default)");
                }
            }
            write_ok(output, payload)
        }
        Ok(Response::Error(msg)) => write_err(output, &msg, req_id),
        Err(e) => write_err(output, &e.to_string(), req_id),
    }
}

fn write_ok<W: Write>(output: &mut W, payload: &str) -> std::io::Result<()> {
    let lines = if payload.is_empty() {
        0
    } else {
        payload.lines().count()
    };
    writeln!(output, "OK {lines}")?;
    if !payload.is_empty() {
        writeln!(output, "{payload}")?;
    }
    Ok(())
}

fn write_err<W: Write>(output: &mut W, message: &str, req_id: u64) -> std::io::Result<()> {
    // Keep the frame parseable: an error is always exactly one line.
    // The trailing marker carries the request id so a failure can be
    // matched to its trace in the `TRACE`/`SLOW` rings.
    let flat = message.replace('\n', " ");
    writeln!(output, "ERR {flat} (req {req_id})")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{Server, ServerConfig};
    use ncq_core::Database;
    use std::sync::Arc;

    fn session(input: &str) -> String {
        session_from(input.as_bytes())
    }

    fn session_from(input: impl BufRead) -> String {
        let db = Arc::new(
            Database::from_xml_str(
                r#"<bib><article key="BB99"><author>Ben Bit</author>
                   <year>1999</year></article></bib>"#,
            )
            .unwrap(),
        );
        let server = Server::start(db, ServerConfig::default());
        let mut out = Vec::new();
        serve_lines(&server.client(), input, &mut out).unwrap();
        String::from_utf8(out).unwrap()
    }

    #[test]
    fn meet_command_returns_framed_xml() {
        let out = session("MEET Bit 1999\nQUIT\n");
        let mut lines = out.lines();
        let header = lines.next().unwrap();
        let n: usize = header.strip_prefix("OK ").unwrap().parse().unwrap();
        let body: Vec<&str> = lines.collect();
        assert_eq!(body.len(), n);
        assert!(body[0].starts_with("<answer>"));
        assert!(out.contains("tag=\"article\""));
        assert!(out.contains(">1999</witness>"));
    }

    #[test]
    fn within_bounds_the_meet() {
        // article meet needs distance 3 here (Bit climbs 2, 1999 climbs 1
        // — actually author/cdata → article is 2, year/cdata → 2; bound 1
        // kills it).
        let out = session("MEET Bit 1999 WITHIN 1\n");
        assert!(out.starts_with("OK"));
        assert!(!out.contains("result"), "{out}");
    }

    #[test]
    fn sql_search_ping_and_errors() {
        let out = session(
            "PING\nSEARCH 1999\nSQL select meet(a, b) from bib/% as a, bib/% as b \
             where a contains 'Ben' and b contains 'Bit'\nSQL !!!\nNONSENSE\nMEET\n",
        );
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines[0], "OK 0"); // PING
        assert_eq!(lines[1], "OK 1"); // SEARCH
        assert_eq!(lines[2], "1");
        assert!(out.contains("tag=\"cdata\"")); // Ben Bit meet at the cdata
        assert!(out.contains("ERR ")); // the SQL parse error
        assert!(out.contains("unknown verb"));
        assert!(out.contains("MEET needs at least one term"));
    }

    #[test]
    fn stats_are_framed_key_values() {
        let out = session("MEET Bit 1999\nSTATS\nQUIT\n");
        // Skip the MEET frame, find the STATS frame.
        let stats_at = out
            .lines()
            .position(|l| l.starts_with("served="))
            .expect("stats payload");
        let lines: Vec<&str> = out.lines().collect();
        let header = lines[stats_at - 1];
        let n: usize = header.strip_prefix("OK ").unwrap().parse().unwrap();
        // 15 counter/rate lines + 2 snapshot-open counters + simd.mode
        // + 2 kernels × {scalar,vector}.
        assert_eq!(n, 22, "one line per counter plus the derived rates");
        assert_eq!(lines[stats_at], "served=1");
        // The derived cache hit rates ride the frame.
        for key in ["sem_hit_rate=0.0000", "term_cache_hit_rate=0.0000"] {
            assert!(
                lines[stats_at..stats_at + n].contains(&key),
                "missing {key}: {out}"
            );
        }
        // The semantic-cache counters ride the frame: the single MEET
        // above was a cacheable miss.
        for key in ["sem_hits=0", "sem_misses=1", "sem_evictions=0"] {
            assert!(
                lines[stats_at..stats_at + n].contains(&key),
                "missing {key}: {out}"
            );
        }
        assert!(lines[stats_at..stats_at + n]
            .iter()
            .any(|l| l.starts_with("shed=0")));
        assert!(lines[stats_at..stats_at + n]
            .iter()
            .any(|l| l.starts_with("shed_rate=0.0000")));
        // Robustness counters ride the same frame, zero for a purely
        // local deployment.
        for key in [
            "retries=0",
            "failovers=0",
            "replicas_down=0",
            "timeouts=0",
            "partial_answers=0",
        ] {
            assert!(
                lines[stats_at..stats_at + n].contains(&key),
                "missing {key}: {out}"
            );
        }
    }

    #[test]
    fn projection_rows_are_framed() {
        let out = session("SQL select t from bib/article as t\n");
        assert!(out.starts_with("OK "));
        assert!(out.contains("<result> article </result>"));
    }

    #[test]
    fn bad_within_is_an_error() {
        let out = session("MEET Bit WITHIN abc\n");
        assert!(out.contains("ERR WITHIN needs a number"));
    }

    #[test]
    fn limit_clause_bounds_the_meet_on_the_wire() {
        // Unbounded, the two terms produce several ranked answers;
        // LIMIT 1 keeps only the best. Both clause orders parse.
        let full = session("MEET Bit 1999\n");
        let one = session("MEET Bit 1999 LIMIT 1\n");
        let full_results = full.matches("<result").count();
        assert!(full_results >= 1);
        assert_eq!(one.matches("<result").count(), 1.min(full_results));
        let both = session("MEET Bit 1999 WITHIN 9 LIMIT 1\n");
        assert_eq!(both.matches("<result").count(), 1);
        let swapped = session("MEET Bit 1999 LIMIT 1 WITHIN 9\n");
        assert_eq!(swapped, both);
    }

    #[test]
    fn absurd_limits_answer_like_no_limit() {
        // `k` comes straight off the wire; sizing anything by it used
        // to panic the evaluation (capacity overflow), abort the process
        // (an 8 TB allocation) or overflow `k + 1`.
        let full = session("MEET Bit 1999\n");
        assert!(full.starts_with("OK "), "{full}");
        for k in [
            "9223372036854775807",
            "1099511627776",
            "18446744073709551615",
        ] {
            assert_eq!(session(&format!("MEET Bit 1999 LIMIT {k}\n")), full, "{k}");
        }
    }

    #[test]
    fn bad_limit_is_an_error() {
        for bad in ["MEET Bit LIMIT abc\n", "MEET Bit LIMIT 0\n"] {
            let out = session(bad);
            assert!(out.contains("ERR LIMIT needs a positive number"), "{out}");
        }
    }

    #[test]
    fn snapshot_verbs_round_trip_over_the_wire() {
        let dir = std::env::temp_dir().join("ncq-protocol-snapshot-test");
        std::fs::create_dir_all(&dir).unwrap();
        let db = Arc::new(
            Database::from_xml_str(
                r#"<bib><article key="BB99"><author>Ben Bit</author>
                   <year>1999</year></article></bib>"#,
            )
            .unwrap(),
        );
        let server = Server::start(
            db,
            ServerConfig {
                snapshot_dir: Some(dir.clone()),
                ..ServerConfig::default()
            },
        );
        let mut out = Vec::new();
        serve_lines(
            &server.client(),
            "SNAPSHOT SAVE wire.ncq\nSNAPSHOT LOAD wire.ncq\nMEET Bit 1999\n\
             SNAPSHOT SAVE ../escape.ncq\nSNAPSHOT\nSNAPSHOT PRUNE x\nQUIT\n"
                .as_bytes(),
            &mut out,
        )
        .unwrap();
        let out = String::from_utf8(out).unwrap();
        assert!(out.contains("snapshot saved"), "{out}");
        assert!(out.contains("snapshot loaded"), "{out}");
        assert!(out.contains("tag=\"article\""), "{out}");
        assert!(out.contains("bare file name"), "{out}");
        assert!(out.contains("ERR SNAPSHOT needs SAVE|LOAD and a path"));
        assert!(out.contains("ERR SNAPSHOT knows SAVE and LOAD"));
        std::fs::remove_file(dir.join("wire.ncq")).ok();
    }

    /// Tests that depend on the process-global telemetry switch being
    /// on serialize against the test that flips it.
    static OBS_SWITCH: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn stats_reset_zeroes_window_counters_but_not_served() {
        let out = session("MEET Bit 1999\nSTATS RESET\nSTATS\nQUIT\n");
        assert!(out.contains("window counters reset"), "{out}");
        let after = &out[out.find("window counters reset").unwrap()..];
        // Monotonic totals survive the reset; the window counters from
        // the MEET (a sem-cache miss, two term decodes) are zeroed.
        assert!(after.contains("served=1"), "{out}");
        assert!(after.contains("sem_misses=0"), "{out}");
        assert!(after.contains("term_decodes=0"), "{out}");
    }

    #[test]
    fn stats_reset_clears_histogram_windows() {
        // Histogram buckets are window state like the hit/miss
        // counters next to them: RESET must zero them too (it used to
        // leave them accumulating across windows).
        let h = ncq_obs::obs().registry.histogram("ncq_reset_pin_ns");
        h.record(4096);
        h.record(100);
        let before = session("METRICS\nQUIT\n");
        assert!(before.contains("ncq_reset_pin_ns_count 2"), "{before}");
        let out = session("STATS RESET\nMETRICS\nQUIT\n");
        assert!(out.contains("window counters reset"), "{out}");
        assert!(out.contains("ncq_reset_pin_ns_count 0"), "{out}");
        assert!(out.contains("ncq_reset_pin_ns_sum 0"), "{out}");
        // The handle keeps recording into the fresh window.
        h.record(9);
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn stats_and_metrics_report_kernel_dispatch() {
        let out = session("MEET Bit 1999\nSTATS\nMETRICS\nQUIT\n");
        let mode = ncq_simd::mode().name();
        assert!(out.contains(&format!("simd.mode={mode}")), "{out}");
        assert!(out.contains("simd.intersect.scalar="), "{out}");
        assert!(out.contains("simd.lower_bound.vector="), "{out}");
        assert!(
            out.contains("# TYPE ncq_simd_dispatch_total counter"),
            "{out}"
        );
        assert!(
            out.contains(&format!("ncq_simd_mode{{mode=\"{mode}\"}} 1")),
            "{out}"
        );
        assert!(
            out.contains("ncq_simd_dispatch_total{kernel=\"lower_bound\",path=\"vector\"}"),
            "{out}"
        );
    }

    #[test]
    fn stats_rejects_unknown_arguments() {
        let out = session("STATS BANANA\n");
        assert!(
            out.contains("ERR STATS takes no argument or RESET"),
            "{out}"
        );
    }

    #[test]
    fn metrics_verb_renders_prometheus_text() {
        let out = session("MEET Bit 1999\nMETRICS\nQUIT\n");
        assert!(out.contains("# TYPE ncq_served_total counter"), "{out}");
        assert!(out.contains("ncq_served_total 1"), "{out}");
        assert!(out.contains("ncq_sem_misses_total 1"), "{out}");
        assert!(out.contains("# TYPE ncq_shed_rate gauge"), "{out}");
        assert!(out.contains("ncq_shed_rate 0.0000"), "{out}");
        assert!(out.contains("ncq_term_cache_hit_rate 0.0000"), "{out}");
        // METRICS ⊇ STATS: every row with a STATS key has its metric.
        for (key, name, _) in stat_rows(&ServerStats::default()) {
            assert!(
                key.is_none() || out.lines().any(|l| l.starts_with(&format!("{name} "))),
                "STATS key {key:?} has no {name} in METRICS: {out}"
            );
        }
    }

    #[test]
    fn err_frames_carry_the_request_id() {
        let out = session("NONSENSE\nMEET\n");
        for line in out.lines() {
            assert!(line.starts_with("ERR "), "{out}");
            assert!(line.contains("(req "), "missing request id: {out}");
            assert!(line.ends_with(')'), "{out}");
        }
        // Ids are per-request: the two errors carry different ids.
        let ids: Vec<&str> = out
            .lines()
            .map(|l| l.rsplit("(req ").next().unwrap())
            .collect();
        assert_ne!(ids[0], ids[1], "{out}");
    }

    #[test]
    fn trace_verb_renders_recent_span_trees() {
        let _guard = OBS_SWITCH.lock().unwrap();
        let out = session("MEET Bit 1999\nTRACE 200\nQUIT\n");
        // The ring is process-global; with a large enough window the
        // MEET we just ran is in there, carrying its op annotation and
        // the serialize stage of its evaluation.
        assert!(out.contains("trace "), "{out}");
        assert!(out.contains("op=meet"), "{out}");
        assert!(out.contains("serialize"), "{out}");
        let slow = session("SLOW 5\nQUIT\n");
        assert!(slow.starts_with("OK "), "{slow}");
    }

    #[test]
    fn obs_verb_flips_the_telemetry_switch() {
        let _guard = OBS_SWITCH.lock().unwrap();
        let out = session("OBS OFF\nOBS ON\nOBS BANANA\n");
        assert!(out.contains("telemetry off"), "{out}");
        assert!(out.contains("telemetry on"), "{out}");
        assert!(out.contains("ERR OBS takes ON or OFF"), "{out}");
    }

    /// A peer that sends `a` forever and never a newline, counting the
    /// bytes the session pulled from it.
    struct Endless {
        consumed: usize,
    }

    impl std::io::Read for Endless {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            buf.fill(b'a');
            self.consumed += buf.len();
            Ok(buf.len())
        }
    }

    #[test]
    fn endless_line_is_refused_after_the_cap_and_ends_the_session() {
        let mut peer = Endless { consumed: 0 };
        let reader = std::io::BufReader::new(&mut peer);
        let buffer = reader.capacity();
        let out = session_from(reader);
        assert!(
            out.starts_with("ERR request line exceeds 65536 bytes (req "),
            "{out}"
        );
        assert_eq!(out.lines().count(), 1, "{out}");
        assert!(
            peer.consumed <= MAX_LINE_BYTES + 1 + buffer,
            "read {} bytes of a line that can never end",
            peer.consumed
        );
    }

    #[test]
    fn a_line_of_exactly_the_cap_is_served_one_byte_more_is_not() {
        let at_cap = format!("PING{}", " ".repeat(MAX_LINE_BYTES - 4));
        let out = session(&format!("{at_cap}\nPING\n"));
        assert_eq!(out, "OK 0\nOK 0\n");
        let out = session(&format!("{at_cap} \nPING\n"));
        assert!(
            out.starts_with("ERR request line exceeds 65536 bytes"),
            "{out}"
        );
        assert_eq!(out.lines().count(), 1, "session closed: {out}");
    }

    #[test]
    fn non_utf8_line_answers_err_and_the_session_continues() {
        let out = session_from(&b"PING\n\xff\xfe MEET\nPING\n"[..]);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 3, "{out}");
        assert_eq!(lines[0], "OK 0");
        assert!(
            lines[1].starts_with("ERR request line is not UTF-8 (req "),
            "{out}"
        );
        assert_eq!(lines[2], "OK 0");
    }

    #[test]
    fn snapshot_verbs_are_disabled_by_default_on_the_wire() {
        // `session()` uses the default config (no snapshot_dir): the
        // control verbs must refuse in-band, queries keep working.
        let out = session("SNAPSHOT SAVE x.ncq\nMEET Bit 1999\nQUIT\n");
        assert!(out.contains("ERR snapshot verbs are disabled"), "{out}");
        assert!(out.contains("tag=\"article\""), "{out}");
    }
}
