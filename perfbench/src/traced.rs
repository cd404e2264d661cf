//! The traced run: the same seeded request streams, handled in process
//! by the service's public functions, one layer at a time, with a span
//! around every call into a layer.
//!
//! The pipeline mirrors what a session does with a line (see
//! `Service::open` and `protocol::handle_line`): decode → document-report
//! probe → analysis (chunk front end, dependency graph) → executor →
//! render → encode. Reads other than `check` (`type-of`, `elaborate`,
//! `close`) go through `protocol::handle` on a real `Service` that the
//! mirror keeps in step; so does every write, which then hits the
//! document-report cache the mirror just filled (`bench.sync`, not a
//! layer). Two timings re-run work outside the pipeline and are never
//! added to the layer sum: `graph.condense` (already inside
//! `db.analyze`, which is reported net of it) and `engine.check`, each
//! rechecked binding replayed against the hub's scheme bank.
//!
//! Every measured line is also handled untraced, just before, by
//! `protocol::handle_line` plus encoding on a hub of its own, so both
//! see the same host load; its answers must equal the mirror's byte for
//! byte. The layer sum over the untraced time is
//! `service.layer_coverage`.

use crate::gen::{interleave, Conn};
use freezeml_core::{Options, Var};
use freezeml_service::exec::INTERNAL_ERROR_CLASS;
use freezeml_service::protocol::{handle, handle_line, report_json};
use freezeml_service::{
    analyze_cached, doc_key, doc_verify, graph, Analysis, CheckReport, EngineSel, Executor, Json,
    Outcome, Request, SchemeId, Service, ServiceConfig, Shared, Worker,
};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

const ENGINE: EngineSel = EngineSel::Uf;

fn config() -> ServiceConfig {
    // What a socket session runs: one executor worker, the union-find
    // engine, default options.
    ServiceConfig {
        opts: Options::default(),
        engine: ENGINE,
        workers: 1,
    }
}

// ------------------------------------------------------------------ spans

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    req: u64,
}

/// Spans written to the JSONL file (about 9 MB).
const MAX_WRITTEN: usize = 100_000;

/// Spans kept in memory; written as JSONL when the run ends.
struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    req: u64,
    on: bool,
}

impl Tracer {
    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    fn begin(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            req: self.req,
        });
        self.spans.len() - 1
    }

    fn end(&mut self, id: usize) {
        self.spans[id].end_ns = self.now();
    }

    fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write;
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        // The first spans only: a whole run can hold millions.
        for (i, s) in self.spans.iter().enumerate().take(MAX_WRITTEN) {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{}}}",
                s.name, s.start_ns, s.end_ns, s.req
            )?;
        }
        out.flush()
    }
}

// ----------------------------------------------------------------- mirror

struct MirrorDoc {
    text: String,
    analysis: Option<Analysis>,
}

/// One connection's session, mirrored layer by layer.
struct Mirror {
    svc: Service,
    exec: Executor,
    docs: HashMap<String, MirrorDoc>,
}

/// Counts gathered next to the spans.
#[derive(Default)]
struct Counts {
    probes: u64,
    probe_hits: u64,
    runs: u64,
    bindings: u64,
    rechecked: u64,
    waves: u64,
    replayed: u64,
    request_bytes: u64,
    response_bytes: u64,
    lines: u64,
}

struct Pipeline {
    shared: Arc<Shared>,
    replay: Worker,
    tr: Tracer,
    counts: Counts,
}

/// The form the document-report cache stores (as `Service` does).
fn warmed(report: &CheckReport) -> CheckReport {
    CheckReport {
        bindings: report.bindings.clone(),
        rechecked: 0,
        reused: report.bindings.len(),
        blocked: 0,
        waves: 0,
    }
}

fn cacheable(report: &CheckReport) -> bool {
    report.bindings.iter().all(|b| match &b.outcome {
        Outcome::Disagreement { .. } => false,
        Outcome::Error { class, .. } => class != INTERNAL_ERROR_CLASS,
        _ => true,
    })
}

impl Pipeline {
    fn counting(&self) -> bool {
        self.tr.on
    }

    fn probe(&mut self, root: usize, text: &str) -> (u64, u64, Option<Arc<CheckReport>>) {
        let opts = Options::default();
        let sp = self.tr.begin("shared.doc_probe", Some(root));
        let key = doc_key(text, &opts, ENGINE);
        let verify = doc_verify(text);
        let hit = self.shared.doc_report(key, verify);
        self.tr.end(sp);
        if self.counting() {
            self.counts.probes += 1;
            self.counts.probe_hits += u64::from(hit.is_some());
        }
        (key, verify, hit)
    }

    fn analyze(&mut self, root: usize, text: &str) -> Result<Analysis, String> {
        let opts = Options::default();
        let sp = self.tr.begin("db.analyze", Some(root));
        let a = analyze_cached(&mut self.shared.frontend(), text, &opts, ENGINE);
        self.tr.end(sp);
        let a = a.map_err(|e| e.to_string())?;
        let sp = self.tr.begin("graph.condense", Some(root));
        std::hint::black_box(graph::condense(a.decls.len(), &a.deps));
        self.tr.end(sp);
        Ok(a)
    }

    fn run(&mut self, root: usize, exec: &mut Executor, a: &Analysis) -> CheckReport {
        let cache = self.shared.cache();
        let miss: Vec<bool> = a.keys.iter().map(|&k| cache.get(k).is_none()).collect();
        let sp = self.tr.begin("exec.run", Some(root));
        let report = exec.run(a, &self.shared);
        self.tr.end(sp);
        // Replay every binding the executor inferred, in wave order,
        // under its dependencies' schemes from this report.
        let mut replayed = 0;
        for wave in &a.cond.waves {
            for &c in wave {
                let &[i] = a.cond.comps[c].as_slice() else {
                    continue;
                };
                let deps: Option<Vec<(Var, SchemeId)>> = a.deps[i]
                    .iter()
                    .map(|&d| match &report.bindings[d].outcome {
                        Outcome::Typed { id, .. } => {
                            Some((Var::from_symbol(a.decls[d].name_sym()), *id))
                        }
                        _ => None,
                    })
                    .collect();
                let (true, Some(deps)) = (miss[i], deps) else {
                    continue;
                };
                let sp = self.tr.begin("engine.check", Some(root));
                let out = self
                    .replay
                    .check(self.shared.bank(), a.uses_prelude, &a.decls[i], &deps);
                self.tr.end(sp);
                std::hint::black_box(out);
                replayed += 1;
            }
        }
        if self.counting() {
            self.counts.runs += 1;
            self.counts.bindings += report.bindings.len() as u64;
            self.counts.rechecked += report.rechecked as u64;
            self.counts.waves += report.waves as u64;
            self.counts.replayed += replayed;
        }
        report
    }

    /// `open`/`edit`: probe, else analyse and run; the mirror then
    /// brings the real session up to date.
    fn write(&mut self, root: usize, m: &mut Mirror, req: &Request) -> Json {
        let (Request::Open { doc, text } | Request::Edit { doc, text }) = req else {
            unreachable!("writes only")
        };
        let (key, verify, hit) = self.probe(root, text);
        let (report, analysis) = match hit {
            Some(r) => (r, None),
            None => {
                let a = match self.analyze(root, text) {
                    Ok(a) => a,
                    Err(_) => return handle(&mut m.svc, req),
                };
                let report = self.run(root, &mut m.exec, &a);
                if cacheable(&report) {
                    self.shared
                        .record_doc_report(key, verify, Arc::new(warmed(&report)));
                }
                (Arc::new(report), Some(a))
            }
        };
        m.docs.insert(
            doc.clone(),
            MirrorDoc {
                text: text.clone(),
                analysis,
            },
        );
        let sp = self.tr.begin("bench.sync", Some(root));
        let synced = match req {
            Request::Open { .. } => m.svc.open(doc, text).is_ok(),
            _ => m.svc.edit(doc, text).is_ok(),
        };
        self.tr.end(sp);
        debug_assert!(synced, "the session takes what the mirror took");
        self.render(root, doc, &report, text)
    }

    fn check(&mut self, root: usize, m: &mut Mirror, doc: &str) -> Option<Json> {
        let text = m.docs.get(doc)?.text.clone();
        let (key, verify, hit) = self.probe(root, &text);
        let report = match hit {
            Some(r) => r,
            None => {
                if m.docs[doc].analysis.is_none() {
                    let a = self.analyze(root, &text).ok()?;
                    m.docs.get_mut(doc)?.analysis = Some(a);
                }
                let a = m.docs[doc].analysis.as_ref()?;
                let report = self.run(root, &mut m.exec, a);
                if cacheable(&report) {
                    self.shared
                        .record_doc_report(key, verify, Arc::new(warmed(&report)));
                }
                Arc::new(report)
            }
        };
        Some(self.render(root, doc, &report, &text))
    }

    fn render(&mut self, root: usize, doc: &str, report: &CheckReport, text: &str) -> Json {
        let sp = self.tr.begin("protocol.render", Some(root));
        let v = report_json(doc, report, text);
        self.tr.end(sp);
        v
    }

    fn one(&mut self, root: usize, m: &mut Mirror, req: &Request) -> Json {
        match req {
            Request::Open { .. } | Request::Edit { .. } => return self.write(root, m, req),
            Request::Check { doc } => {
                if let Some(v) = self.check(root, m, doc) {
                    return v;
                }
            }
            Request::Close { doc } => {
                m.docs.remove(doc);
            }
            _ => {}
        }
        let sp = self.tr.begin("service.query", Some(root));
        let v = handle(&mut m.svc, req);
        self.tr.end(sp);
        v
    }

    /// Handle one request line; returns the encoded answer.
    fn line(&mut self, m: &mut Mirror, line: &str) -> String {
        let line = line.trim_end_matches('\n');
        self.tr.req += 1;
        let root = self.tr.begin("request", None);
        let sp = self.tr.begin("protocol.decode", Some(root));
        let decoded: Result<Vec<Request>, String> = if line.starts_with('[') {
            match Json::parse(line) {
                Ok(Json::Arr(items)) => items.iter().map(Request::from_json).collect(),
                _ => Err("bad batch".to_string()),
            }
        } else {
            Request::parse(line).map(|r| vec![r])
        };
        self.tr.end(sp);
        let answer = match decoded {
            Ok(reqs) if line.starts_with('[') => {
                Json::Arr(reqs.iter().map(|r| self.one(root, m, r)).collect())
            }
            Ok(reqs) => self.one(root, m, &reqs[0]),
            // Not in the generated streams; answered the service's way.
            Err(_) => handle_line(&mut m.svc, line),
        };
        let sp = self.tr.begin("protocol.encode", Some(root));
        let out = answer.to_string();
        self.tr.end(sp);
        self.tr.end(root);
        if self.counting() {
            self.counts.lines += 1;
            self.counts.request_bytes += line.len() as u64 + 1;
            self.counts.response_bytes += out.len() as u64 + 1;
        }
        out
    }
}

/// Plain sessions on a hub of their own, warmed up: the untraced
/// reference each measured line is also handled by.
fn plain_sessions(conns: &[Conn]) -> Vec<Service> {
    let shared = Arc::new(Shared::new());
    let mut svcs: Vec<Service> = conns
        .iter()
        .map(|_| Service::with_shared(config(), Arc::clone(&shared)))
        .collect();
    for (c, s) in interleave(conns, true) {
        std::hint::black_box(handle_line(&mut svcs[c], s.line.trim_end()).to_string());
    }
    svcs
}

/// What the traced run measured.
pub struct Layers {
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    pub attempted: usize,
    pub failed: usize,
}

/// Per-span-name (calls, total self seconds) over measured requests.
fn self_times(spans: &[Span]) -> HashMap<&'static str, (u64, f64)> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end_ns - s.start_ns;
        }
    }
    let mut out: HashMap<&'static str, (u64, f64)> = HashMap::new();
    for (i, s) in spans.iter().enumerate() {
        let self_ns = (s.end_ns - s.start_ns).saturating_sub(child_ns[i]);
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += self_ns as f64 * 1e-9;
    }
    out
}

/// The layers named in the sum that `service.layer_coverage` compares
/// with the untraced time; re-runs (`graph.condense`, `engine.check`)
/// and the mirror's own upkeep (`bench.sync`, the `request` root's
/// self time) are left out.
const SUMMED: &[&str] = &[
    "protocol.decode",
    "shared.doc_probe",
    "db.analyze",
    "exec.run",
    "protocol.render",
    "service.query",
    "protocol.encode",
];

pub fn run(conns: &[Conn], rtt_us: f64, trace_path: &std::path::Path) -> Layers {
    let mut plain = plain_sessions(conns);
    let shared = Arc::new(Shared::new());
    let mut p = Pipeline {
        shared: Arc::clone(&shared),
        replay: Worker::new(Options::default(), ENGINE),
        tr: Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
            req: 0,
            on: false,
        },
        counts: Counts::default(),
    };
    let mut mirrors: Vec<Mirror> = conns
        .iter()
        .map(|_| Mirror {
            svc: Service::with_shared(config(), Arc::clone(&shared)),
            exec: Executor::new(1, Options::default(), ENGINE),
            docs: HashMap::new(),
        })
        .collect();
    for (c, s) in interleave(conns, true) {
        p.line(&mut mirrors[c], &s.line);
    }
    p.tr.spans.clear();
    p.tr.on = true;
    let (hits0, misses0) = {
        let fe = shared.frontend();
        (fe.parse_hits(), fe.parse_misses())
    };
    let (renders0, render_hits0) = (shared.bank().renders(), shared.bank().render_hits());
    let mut failed = 0;
    let mut attempted = 0;
    let (mut untraced_s, mut traced_wall) = (0.0, 0.0);
    for (n, (c, s)) in interleave(conns, false).into_iter().enumerate() {
        // Untraced first, then traced: the two see the same host load.
        let t0 = Instant::now();
        let expected = handle_line(&mut plain[c], s.line.trim_end()).to_string();
        untraced_s += t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        let out = p.line(&mut mirrors[c], &s.line);
        traced_wall += t0.elapsed().as_secs_f64();
        attempted += 1;
        let problem = match crate::check::check_line(&out, &s.expect) {
            Err(e) => Some(e),
            Ok(()) if out != expected => {
                Some("the mirrored answer differs from handle_line's".to_string())
            }
            Ok(()) => None,
        };
        if let Some(e) = problem {
            if failed < 3 {
                eprintln!("perfbench: traced line {n}: {e}");
            }
            failed += 1;
        }
    }
    let (hits, misses) = {
        let fe = shared.frontend();
        (fe.parse_hits() - hits0, fe.parse_misses() - misses0)
    };
    let renders = shared.bank().renders() - renders0;
    let render_hits = shared.bank().render_hits() - render_hits0;

    let st = self_times(&p.tr.spans);
    let get = |name: &str| st.get(name).copied().unwrap_or((0, 0.0));
    let per_call = |name: &str| {
        let (n, s) = get(name);
        if n == 0 {
            0.0
        } else {
            s / n as f64
        }
    };
    let c = &p.counts;
    let lines = c.lines.max(1) as f64;
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    let (analyze_n, analyze_s) = get("db.analyze");
    let condense_s = get("graph.condense").1;
    let summed: f64 = SUMMED.iter().map(|n| get(n).1).sum();
    let coverage = if untraced_s > 0.0 {
        summed / untraced_s
    } else {
        0.0
    };

    let metrics: Vec<(&'static str, f64, &'static str)> = vec![
        (
            "protocol.decode_ms",
            get("protocol.decode").1 / lines * 1e3,
            "ms",
        ),
        (
            "protocol.render_ms",
            per_call("protocol.render") * 1e3,
            "ms",
        ),
        (
            "protocol.encode_ms",
            get("protocol.encode").1 / lines * 1e3,
            "ms",
        ),
        (
            "protocol.request_kb",
            c.request_bytes as f64 / lines / 1024.0,
            "KiB",
        ),
        (
            "protocol.response_kb",
            c.response_bytes as f64 / lines / 1024.0,
            "KiB",
        ),
        (
            "shared.doc_probe_us",
            per_call("shared.doc_probe") * 1e6,
            "us",
        ),
        (
            "shared.doc_hit_ratio",
            ratio(c.probe_hits, c.probes),
            "ratio",
        ),
        (
            "db.analyze_ms",
            if analyze_n == 0 {
                0.0
            } else {
                (analyze_s - condense_s).max(0.0) / analyze_n as f64 * 1e3
            },
            "ms",
        ),
        ("db.chunk_hit_ratio", ratio(hits, hits + misses), "ratio"),
        ("graph.condense_ms", per_call("graph.condense") * 1e3, "ms"),
        ("exec.run_ms", per_call("exec.run") * 1e3, "ms"),
        (
            "exec.recheck_ratio",
            ratio(c.rechecked, c.bindings),
            "ratio",
        ),
        ("exec.waves", ratio(c.waves, c.runs), "count"),
        ("engine.check_us", per_call("engine.check") * 1e6, "us"),
        ("engine.bank_nodes", shared.bank().len() as f64, "count"),
        (
            "engine.render_hit_ratio",
            ratio(render_hits, render_hits + renders),
            "ratio",
        ),
        ("service.query_ms", per_call("service.query") * 1e3, "ms"),
        ("sock.rtt_us", rtt_us, "us"),
        ("service.handle_ms", untraced_s / lines * 1e3, "ms"),
        ("service.layer_coverage", coverage, "ratio"),
    ];

    // The layer table: self time per call and per line, with bases.
    let moves: &[(&str, &str)] = &[
        ("protocol.decode", "write_p95_ms on edit-large, cold-stream"),
        (
            "shared.doc_probe",
            "query_p95_ms, requests_per_s_p5 on query-mix",
        ),
        ("db.analyze", "write_p95_ms on edit-large"),
        ("graph.condense", "write_p95_ms on edit-large"),
        ("exec.run", "write_p95_ms, requests_per_s_p5 on cold-stream"),
        ("engine.check", "write_p95_ms on cold-stream"),
        ("protocol.render", "write_p95_ms on edit-large, cold-stream"),
        ("service.query", "query_p95_ms on query-mix"),
        ("protocol.encode", "write_p95_ms on edit-large, cold-stream"),
        ("bench.sync", "(mirror upkeep, not a layer)"),
        ("request", "(mirror bookkeeping, not a layer)"),
    ];
    eprintln!(
        "perfbench: layers over {} measured lines ({} traced spans)",
        c.lines,
        p.tr.spans.len()
    );
    eprintln!(
        "  {:<18} {:>8} {:>12} {:>12}  moves",
        "layer", "calls", "self/call", "self/line"
    );
    for (name, mv) in moves {
        let (n, s) = get(name);
        let own = if *name == "db.analyze" {
            s - condense_s
        } else {
            s
        };
        eprintln!(
            "  {:<18} {:>8} {:>10.4}ms {:>10.4}ms  {mv}",
            name,
            n,
            if n == 0 { 0.0 } else { own / n as f64 * 1e3 },
            own / lines * 1e3
        );
    }
    eprintln!(
        "  db.analyze is net of graph.condense; exec.run includes inference, \
         which engine.check replays ({} bindings replayed, {} rechecked)",
        c.replayed, c.rechecked
    );
    eprintln!(
        "  ratios: doc hits {}/{} probes, chunk hits {}/{}, rechecked {}/{} bindings, \
         render hits {}/{}",
        c.probe_hits,
        c.probes,
        hits,
        hits + misses,
        c.rechecked,
        c.bindings,
        render_hits,
        render_hits + renders
    );
    eprintln!(
        "  service.layer_coverage = {:.4}s summed layers / {:.4}s untraced handle_line = {:.3}",
        summed, untraced_s, coverage
    );
    eprintln!(
        "  tracing overhead: traced pass {:.4}s (incl. re-runs and mirror upkeep) vs untraced {:.4}s; \
         sock.rtt_us {:.1}",
        traced_wall, untraced_s, rtt_us
    );
    eprintln!(
        "  spans: the first {} of {} written to {}",
        p.tr.spans.len().min(MAX_WRITTEN),
        p.tr.spans.len(),
        trace_path.display()
    );
    if let Err(e) = p.tr.write_jsonl(trace_path) {
        eprintln!("perfbench: could not write {}: {e}", trace_path.display());
    }
    Layers {
        metrics,
        attempted,
        failed,
    }
}
