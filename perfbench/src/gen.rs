//! The seeded generator: documents built from FreezeML shapes, the
//! request streams of the three workloads, and the answer key every
//! response is checked against.
//!
//! The key is computed here, from the hand-written binding-level key of
//! the Figure 1 rows ([`ROW_KEY`]) and the typing rule of each template;
//! it never comes from the program under test. [`crate::check::cross_check`]
//! compares it once per run with the paper-literal `core` engine.

use crate::check::canon;
use std::sync::Arc;

/// SplitMix64: small, seedable, and the same on every platform.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5EED_F00D_CAFE_D00D)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// The binding-level answer key of the 41 well-typed, standard-mode,
/// prelude-only Figure 1 rows: `let x = M;;` at top level. A row whose
/// term is a guarded value is generalised (so A1's `a -> b -> b` becomes
/// `forall a b. a -> b -> b`); any other row keeps its Figure 1 type,
/// and residual type variables are grounded to `Int` (`defaulted`).
pub const ROW_KEY: &[(&str, &str, bool)] = &[
    ("A1", "forall a b. a -> b -> b", false),
    ("A1•", "forall a b. a -> b -> b", false),
    ("A2", "(Int -> Int) -> Int -> Int", true),
    ("A2•", "(forall a. a -> a) -> forall a. a -> a", false),
    ("A3", "List (forall a. a -> a)", false),
    ("A4", "forall b. (forall a. a -> a) -> b -> b", false),
    ("A4•", "(forall a. a -> a) -> forall a. a -> a", false),
    ("A5", "(forall a. a -> a) -> forall a. a -> a", false),
    ("A6", "(forall a. a -> a) -> Int -> Int", true),
    ("A6•", "forall b. (forall a. a -> a) -> b -> b", false),
    ("A7", "(forall a. a -> a) -> forall a. a -> a", false),
    ("A10⋆", "Int * Bool", false),
    ("A11⋆", "Int * Bool", false),
    ("A12⋆", "Int * Bool", false),
    ("B1⋆", "(forall a. a -> a) -> Int * Bool", false),
    ("B2⋆", "List (forall a. a -> a) -> Int * Bool", false),
    ("C1", "Int", false),
    ("C2", "List (forall a. a -> a)", false),
    ("C3", "forall a. a -> a", false),
    ("C4", "List (Int -> Int)", true),
    ("C4•", "List (forall a. a -> a)", false),
    ("C5⋆", "List (forall a. a -> a)", false),
    ("C6⋆", "List (forall a. a -> a)", false),
    ("C7", "List (Int -> Int)", false),
    ("C9⋆", "List (Int * Bool)", false),
    ("C10", "List (forall a. a -> a)", false),
    ("D1⋆", "Int * Bool", false),
    ("D2⋆", "Int * Bool", false),
    ("D3⋆", "Int", false),
    ("D4⋆", "Int", false),
    ("D5⋆", "Int", false),
    ("F1", "forall a. a -> a", false),
    ("F2", "List (forall a. a -> a)", false),
    ("F3", "(forall a. a -> a) -> forall a. a -> a", false),
    ("F4", "forall b. (forall a. a -> a) -> b -> b", false),
    ("F5⋆", "forall a. a -> a", false),
    ("F6", "List (forall a. a -> a)", false),
    ("F7⋆", "Int", false),
    ("F8", "(forall a. a -> a) -> forall a. a -> a", false),
    ("F8•", "(Int -> Int) -> Int -> Int", true),
    ("F9", "Int * Bool", false),
];

/// One Figure 1 row as a binding shape.
pub struct Row {
    pub src: &'static str,
    pub scheme: Arc<str>,
    pub defaulted: bool,
}

/// The 41 rows: sources from the Figure 1 table, key from [`ROW_KEY`].
pub fn rows() -> Vec<Row> {
    use freezeml_corpus::figure1::{Expected, Mode, EXAMPLES};
    EXAMPLES
        .iter()
        .filter(|e| {
            e.mode == Mode::Standard
                && e.extra_env.is_empty()
                && matches!(e.expected, Expected::Type(_))
        })
        .map(|e| {
            let (_, scheme, defaulted) = ROW_KEY
                .iter()
                .find(|(id, _, _)| *id == e.id)
                .unwrap_or_else(|| panic!("no key for Figure 1 row {}", e.id));
            Row {
                src: e.src,
                scheme: canon(scheme).into(),
                defaulted: *defaulted,
            }
        })
        .collect()
}

/// Closed annotation types for the annotated-lambda shapes.
const ANNS: &[&str] = &[
    "Int",
    "Bool",
    "forall a. a -> a",
    "List (forall a. a -> a)",
    "Int * Bool",
];

/// One generated binding and its key.
pub struct Binding {
    pub name: String,
    pub body: String,
    pub scheme: Arc<str>,
    pub defaulted: bool,
    /// The earlier binding this one mentions, if any.
    pub dep: Option<usize>,
}

/// A generated document: bindings in groups of [`GROUP`], each group a
/// Figure 1 row followed by shapes over earlier members of the group, so
/// every dependency cone has at most [`GROUP`] members.
pub struct Doc {
    pub bindings: Vec<Binding>,
    /// `dependents[i]`: bindings that mention binding `i` directly.
    dependents: Vec<Vec<usize>>,
}

pub const GROUP: usize = 8;

/// Shapes over a dependency `d` of scheme `s`: `(body, scheme)`.
fn shape(rng: &mut Rng, d: &str, s: &str, id: &str, lid: &str) -> (String, String) {
    // Shapes that need the dependency to be the polymorphic identity or
    // a list of it, tried half of the time when they apply.
    if rng.below(2) == 0 {
        if s == id {
            let (body, ty) = [
                ("auto ~D", "forall a. a -> a"),
                ("poly ~D", "Int * Bool"),
                ("~D :: ids", "List (forall a. a -> a)"),
                ("single ~D", "List (forall a. a -> a)"),
                ("$(fun x -> D x)", "forall a. a -> a"),
                ("D 3", "Int"),
                ("app poly ~D", "Int * Bool"),
            ][rng.below(7)];
            return (body.replace('D', d), ty.to_string());
        }
        if s == lid {
            let (body, ty) = [
                ("head D", "forall a. a -> a"),
                ("length D", "Int"),
                ("tail D", "List (forall a. a -> a)"),
                ("map poly D", "List (Int * Bool)"),
                ("(head D) :: D", "List (forall a. a -> a)"),
                ("(head D)@ 3", "Int"),
            ][rng.below(6)];
            return (body.replace('D', d), ty.to_string());
        }
    }
    // Shapes for any scheme: freeze, let-chains of depth 1..=3
    // (generalising a closed type is the identity), annotated lambdas,
    // plain and generalised.
    match rng.below(6) {
        0 => (format!("~{d}"), s.to_string()),
        k @ 1..=3 => {
            let mut body = String::new();
            let mut prev = format!("~{d}");
            for j in 1..=k {
                body.push_str(&format!("let y{j} = {prev} in "));
                prev = format!("~y{j}");
            }
            body.push_str(&prev);
            (body, s.to_string())
        }
        k => {
            let a = ANNS[rng.below(ANNS.len())];
            let lam = format!("fun (x : {a}) -> ~{d}");
            let body = if k == 4 { lam } else { format!("$({lam})") };
            (body, format!("({a}) -> ({s})"))
        }
    }
}

impl Doc {
    /// `n` bindings named `{prefix}{index:03}`; Figure 1 rows are taken
    /// from `order` starting at `*cursor`, so consecutive documents of a
    /// run cycle through every row evenly.
    pub fn generate(
        rng: &mut Rng,
        rows: &[Row],
        order: &[usize],
        cursor: &mut usize,
        prefix: &str,
        n: usize,
    ) -> Doc {
        let id = canon("forall a. a -> a");
        let lid = canon("List (forall a. a -> a)");
        let mut bindings: Vec<Binding> = Vec::with_capacity(n);
        for i in 0..n {
            let name = format!("{prefix}{i:03}");
            let group_start = i - i % GROUP;
            if i == group_start {
                let row = &rows[order[*cursor % order.len()]];
                *cursor += 1;
                bindings.push(Binding {
                    name,
                    body: row.src.to_string(),
                    scheme: Arc::clone(&row.scheme),
                    defaulted: row.defaulted,
                    dep: None,
                });
                continue;
            }
            let d = group_start + rng.below(i - group_start);
            let (body, scheme) = shape(rng, &bindings[d].name, &bindings[d].scheme, &id, &lid);
            bindings.push(Binding {
                name,
                body,
                scheme: canon(&scheme).into(),
                defaulted: false,
                dep: Some(d),
            });
        }
        let mut dependents = vec![Vec::new(); n];
        for (i, b) in bindings.iter().enumerate() {
            if let Some(d) = b.dep {
                dependents[d].push(i);
            }
        }
        Doc {
            bindings,
            dependents,
        }
    }

    /// The program text; with `wrap = Some((k, z))`, binding `k`'s body
    /// `M` becomes `let z = 1 in M` — a never-seen body of the same type
    /// (the `let` is a guarded value exactly when `M` is).
    pub fn text(&self, wrap: Option<(usize, &str)>) -> String {
        let mut out = String::with_capacity(self.bindings.len() * 48);
        out.push_str("#use prelude\n");
        for (i, b) in self.bindings.iter().enumerate() {
            out.push_str("let ");
            out.push_str(&b.name);
            out.push_str(" = ");
            if let Some((_, z)) = wrap.filter(|&(k, _)| k == i) {
                out.push_str("let ");
                out.push_str(z);
                out.push_str(" = 1 in ");
            }
            out.push_str(&b.body);
            out.push_str(";;\n");
        }
        out
    }

    /// Size of binding `k`'s dependency cone: `k` and every binding that
    /// reaches it through dependencies.
    pub fn cone(&self, k: usize) -> usize {
        let mut seen = vec![false; self.bindings.len()];
        let mut stack = vec![k];
        seen[k] = true;
        let mut count = 0;
        while let Some(i) = stack.pop() {
            count += 1;
            for &j in &self.dependents[i] {
                if !seen[j] {
                    seen[j] = true;
                    stack.push(j);
                }
            }
        }
        count
    }

    pub fn key(&self) -> Arc<DocKey> {
        Arc::new(DocKey {
            names: self.bindings.iter().map(|b| b.name.clone()).collect(),
            schemes: self
                .bindings
                .iter()
                .map(|b| Arc::clone(&b.scheme))
                .collect(),
            defaulted: self.bindings.iter().map(|b| b.defaulted).collect(),
        })
    }
}

/// The expected verdicts of a whole document, in declaration order.
pub struct DocKey {
    pub names: Vec<String>,
    pub schemes: Vec<Arc<str>>,
    pub defaulted: Vec<bool>,
}

/// What a request line measures: a write carries a document's full
/// text (`open` or `edit`), a query reads an open document. No latency
/// metric covers the other lines: a `close`, and query-mix's read
/// batches that end in an `elaborate`, which cost about three times the
/// others; mixed in, they would put the query p95 inside their own
/// middle, where it moves like a median.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    Write,
    Query,
    Other,
}

/// What the answer to one request must be.
pub enum Expect {
    /// A full report (`open`, `edit`, `check`): every binding typed as
    /// keyed, the counters adding up, and — for a write that changed one
    /// binding — `rechecked` within `1..=cone`.
    Report {
        key: Arc<DocKey>,
        cone: Option<usize>,
    },
    /// `type-of` of binding `i`.
    TypeOf { key: Arc<DocKey>, i: usize },
    /// `elaborate` of binding `i`, with the System F check passed.
    Elaborate { key: Arc<DocKey>, i: usize },
    /// `close` of an open document.
    Closed,
    /// A batched line: one answer per element, in order.
    Batch(Vec<Expect>),
}

/// One request line with its kind and expected answer.
pub struct Step {
    pub kind: Kind,
    /// The request, newline-terminated.
    pub line: String,
    pub expect: Expect,
}

/// One client connection's requests: answered in full before the
/// measured phase starts, then measured.
#[derive(Default)]
pub struct Conn {
    pub warmup: Vec<Step>,
    pub measured: Vec<Step>,
}

pub const WORKLOADS: &[&str] = &["edit-large", "cold-stream", "query-mix"];

/// The streams of a workload, one [`Conn`] per connection. The amount
/// of work is a function of `seconds` alone (never of measured time),
/// so every run of a workload does the same work, and peak memory and
/// cache growth compare at equal work; it is sized to take about
/// `seconds` on a small two-core machine.
pub fn workload(name: &str, seed: u64, seconds: u64) -> Option<Vec<Conn>> {
    let mut rng = Rng::new(seed);
    let rows = rows();
    let mut order: Vec<usize> = (0..rows.len()).collect();
    rng.shuffle(&mut order);
    let mut cursor = 0;
    // Floors keep at least 200 writes, enough for a p95 with ten
    // samples beyond it.
    let s = seconds as usize;
    Some(match name {
        "edit-large" => {
            let doc = Doc::generate(&mut rng, &rows, &order, &mut cursor, "L", 1000);
            vec![edit_large(&mut rng, &doc, (20 * s).max(200))]
        }
        "cold-stream" => vec![cold_stream(&mut rng, &rows, &order, 250 * s)],
        "query-mix" => {
            let doc = Doc::generate(&mut rng, &rows, &order, &mut cursor, "q", 30);
            (0..2)
                .map(|c| query_mix(&mut rng, &doc, c, 2500 * s))
                .collect()
        }
        _ => return None,
    })
}

/// The lines of every connection, interleaved round-robin: the order
/// in which the one client thread of a live run sends them.
pub fn interleave(conns: &[Conn], warmup: bool) -> Vec<(usize, &Step)> {
    let lists: Vec<&Vec<Step>> = conns
        .iter()
        .map(|c| if warmup { &c.warmup } else { &c.measured })
        .collect();
    if warmup {
        // Connection order, as the live set-up does.
        return lists
            .iter()
            .enumerate()
            .flat_map(|(c, l)| l.iter().map(move |s| (c, s)))
            .collect();
    }
    let longest = lists.iter().map(|l| l.len()).max().unwrap_or(0);
    (0..longest)
        .flat_map(|i| {
            lists
                .iter()
                .enumerate()
                .filter_map(move |(c, l)| l.get(i).map(|s| (c, s)))
        })
        .collect()
}

fn write_step(cmd: &str, id: &str, text: &str, key: &Arc<DocKey>, cone: Option<usize>) -> Step {
    Step {
        kind: Kind::Write,
        line: req_text(cmd, id, text),
        expect: Expect::Report {
            key: Arc::clone(key),
            cone,
        },
    }
}

/// The large document is opened in the warm-up; each step edits one
/// seeded binding (reverting the previous step's edit), then reads the
/// types of the screen of bindings around it.
fn edit_large(rng: &mut Rng, doc: &Doc, steps: usize) -> Conn {
    let key = doc.key();
    let mut conn = Conn::default();
    conn.warmup
        .push(write_step("open", "large", &doc.text(None), &key, None));
    for s in 0..steps {
        let k = rng.below(doc.bindings.len());
        let z = format!("z{s:07}");
        let text = doc.text(Some((k, &z)));
        conn.measured
            .push(write_step("edit", "large", &text, &key, Some(doc.cone(k))));
        let first = k
            .saturating_sub(SCREEN / 2)
            .min(doc.bindings.len() - SCREEN);
        conn.measured.push(screen("large", doc, &key, first));
    }
    conn
}

/// One never-seen document per step: open it, read the types of one
/// screen of bindings, close it. Document 0 is the warm-up.
fn cold_stream(rng: &mut Rng, rows: &[Row], order: &[usize], docs: usize) -> Conn {
    let mut conn = Conn::default();
    let mut cursor = 0;
    for d in 0..=docs {
        let doc = Doc::generate(rng, rows, order, &mut cursor, &format!("c{d:06}"), 120);
        let key = doc.key();
        let n = doc.bindings.len();
        let first = rng.below(n - SCREEN);
        let hover = screen("cold", &doc, &key, first);
        let steps = [
            write_step("open", "cold", &doc.text(None), &key, None),
            hover,
            Step {
                kind: Kind::Other,
                line: req_doc("close", "cold"),
                expect: Expect::Closed,
            },
        ];
        let into = if d == 0 {
            &mut conn.warmup
        } else {
            &mut conn.measured
        };
        into.extend(steps);
    }
    conn
}

/// Connection `c` of query-mix: its own copy of the shared 30-binding
/// document (the second open is served from the first one's report),
/// then batched reads with an `elaborate` on every fourth line and a
/// one-binding edit on every eighth.
fn query_mix(rng: &mut Rng, doc: &Doc, c: usize, lines: usize) -> Conn {
    let key = doc.key();
    let id = format!("mix{c}");
    let n = doc.bindings.len();
    let mut conn = Conn::default();
    conn.warmup
        .push(write_step("open", &id, &doc.text(None), &key, None));
    for i in 0..lines {
        if i % 8 == 7 {
            let k = rng.below(n);
            let z = format!("z{c}{i:07}");
            let text = doc.text(Some((k, &z)));
            conn.measured
                .push(write_step("edit", &id, &text, &key, Some(doc.cone(k))));
        } else {
            let (a, b) = (rng.below(n), rng.below(n));
            conn.measured
                .push(read_batch(doc, &key, &id, a, b, i % 4 == 1));
        }
    }
    conn
}

/// Bindings an editor shows at once.
const SCREEN: usize = 16;

/// One batched line of `type-of` for bindings `first..first + SCREEN`.
fn screen(id: &str, doc: &Doc, key: &Arc<DocKey>, first: usize) -> Step {
    let range = first..first + SCREEN;
    let reqs: Vec<String> = range
        .clone()
        .map(|i| {
            req_name("type-of", id, &doc.bindings[i].name)
                .trim_end()
                .to_string()
        })
        .collect();
    Step {
        kind: Kind::Query,
        line: format!("[{}]\n", reqs.join(",")),
        expect: Expect::Batch(
            range
                .map(|i| Expect::TypeOf {
                    key: Arc::clone(key),
                    i,
                })
                .collect(),
        ),
    }
}

/// `[check, type-of a, type-of b]`, or `elaborate b` as the third.
fn read_batch(doc: &Doc, key: &Arc<DocKey>, id: &str, a: usize, b: usize, elab: bool) -> Step {
    let third = if elab { "elaborate" } else { "type-of" };
    let line = format!(
        "[{},{},{}]\n",
        req_doc("check", id).trim_end(),
        req_name("type-of", id, &doc.bindings[a].name).trim_end(),
        req_name(third, id, &doc.bindings[b].name).trim_end(),
    );
    let last = if elab {
        Expect::Elaborate {
            key: Arc::clone(key),
            i: b,
        }
    } else {
        Expect::TypeOf {
            key: Arc::clone(key),
            i: b,
        }
    };
    Step {
        kind: if elab { Kind::Other } else { Kind::Query },
        line,
        expect: Expect::Batch(vec![
            Expect::Report {
                key: Arc::clone(key),
                cone: None,
            },
            Expect::TypeOf {
                key: Arc::clone(key),
                i: a,
            },
            last,
        ]),
    }
}

fn req_text(cmd: &str, doc: &str, text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 64);
    out.push_str(&format!(
        "{{\"cmd\":\"{cmd}\",\"doc\":\"{doc}\",\"text\":\""
    ));
    for ch in text.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push_str("\"}\n");
    out
}

fn req_name(cmd: &str, doc: &str, name: &str) -> String {
    format!("{{\"cmd\":\"{cmd}\",\"doc\":\"{doc}\",\"name\":\"{name}\"}}\n")
}

fn req_doc(cmd: &str, doc: &str) -> String {
    format!("{{\"cmd\":\"{cmd}\",\"doc\":\"{doc}\"}}\n")
}
