//! Checking answers against the key: a small JSON reader for response
//! lines, α-canonical type rendering, the per-response checks, and the
//! once-per-run cross-check of the key against the `core` engine.
//!
//! The reader and the type rendering are the benchmark's own, not the
//! service's `Json` and type printer: the checker must not share code
//! with what it checks, and the service's JSON string decoding is
//! quadratic in the line length, which would make checking the large
//! answers of edit-large take minutes.

use crate::gen::{Doc, DocKey, Expect};
use std::collections::HashMap;

// ------------------------------------------------------------------ types

/// A type in the surface syntax, parsed just enough to compare up to α.
enum Ty {
    Var(String),
    /// A constructor applied to arguments (`Int`, `List A`).
    Con(String, Vec<Ty>),
    Arrow(Box<Ty>, Box<Ty>),
    Pair(Box<Ty>, Box<Ty>),
    Forall(Vec<String>, Box<Ty>),
}

fn tokens(src: &str) -> Vec<String> {
    let mut out = Vec::new();
    let cs: Vec<char> = src.chars().collect();
    let mut i = 0;
    while i < cs.len() {
        let c = cs[i];
        if c.is_whitespace() {
            i += 1;
        } else if c == '-' && cs.get(i + 1) == Some(&'>') {
            out.push("->".to_string());
            i += 2;
        } else if c.is_alphanumeric() || c == '_' {
            let start = i;
            while i < cs.len() && (cs[i].is_alphanumeric() || cs[i] == '_' || cs[i] == '\'') {
                i += 1;
            }
            out.push(cs[start..i].iter().collect());
        } else {
            out.push(c.to_string());
            i += 1;
        }
    }
    out
}

struct TyParser {
    toks: Vec<String>,
    pos: usize,
}

impl TyParser {
    fn peek(&self) -> Option<&str> {
        self.toks.get(self.pos).map(String::as_str)
    }

    fn eat(&mut self, t: &str) -> Result<(), String> {
        if self.peek() == Some(t) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{t}` at token {}", self.pos))
        }
    }

    fn ty(&mut self) -> Result<Ty, String> {
        if self.peek() == Some("forall") {
            self.pos += 1;
            let mut vars = Vec::new();
            while let Some(v) = self.peek().filter(|&t| t != ".") {
                vars.push(v.to_string());
                self.pos += 1;
            }
            self.eat(".")?;
            return Ok(Ty::Forall(vars, Box::new(self.ty()?)));
        }
        let lhs = self.pair()?;
        if self.peek() == Some("->") {
            self.pos += 1;
            return Ok(Ty::Arrow(Box::new(lhs), Box::new(self.ty()?)));
        }
        Ok(lhs)
    }

    fn pair(&mut self) -> Result<Ty, String> {
        let mut lhs = self.app()?;
        while self.peek() == Some("*") {
            self.pos += 1;
            lhs = Ty::Pair(Box::new(lhs), Box::new(self.app()?));
        }
        Ok(lhs)
    }

    fn app(&mut self) -> Result<Ty, String> {
        match self.peek() {
            Some(t) if t.starts_with(char::is_uppercase) => {
                let name = t.to_string();
                self.pos += 1;
                let mut args = Vec::new();
                while let Some(t) = self.peek() {
                    if t == "(" || t.starts_with(char::is_alphanumeric) && t != "forall" {
                        args.push(self.atom()?);
                    } else {
                        break;
                    }
                }
                Ok(Ty::Con(name, args))
            }
            _ => self.atom(),
        }
    }

    fn atom(&mut self) -> Result<Ty, String> {
        match self.peek() {
            Some("(") => {
                self.pos += 1;
                let t = self.ty()?;
                self.eat(")")?;
                Ok(t)
            }
            Some(t) if t.starts_with(char::is_uppercase) => {
                let name = t.to_string();
                self.pos += 1;
                Ok(Ty::Con(name, Vec::new()))
            }
            Some(t) if t.starts_with(char::is_alphabetic) => {
                let name = t.to_string();
                self.pos += 1;
                Ok(Ty::Var(name))
            }
            other => Err(format!("unexpected {other:?} at token {}", self.pos)),
        }
    }
}

/// Print with every binder renamed `q0, q1, …` in binding order and
/// every free variable `f0, f1, …` in order of first occurrence, fully
/// parenthesised — two types are α-equal exactly when these agree.
fn print(
    t: &Ty,
    scope: &mut Vec<(String, String)>,
    next: &mut usize,
    free: &mut Vec<String>,
    out: &mut String,
) {
    match t {
        Ty::Var(v) => match scope.iter().rev().find(|(name, _)| name == v) {
            Some((_, fresh)) => out.push_str(fresh),
            None => {
                let i = free.iter().position(|f| f == v).unwrap_or_else(|| {
                    free.push(v.clone());
                    free.len() - 1
                });
                out.push_str(&format!("f{i}"));
            }
        },
        Ty::Con(name, args) => {
            out.push('(');
            out.push_str(name);
            for a in args {
                out.push(' ');
                print(a, scope, next, free, out);
            }
            out.push(')');
        }
        Ty::Arrow(a, b) | Ty::Pair(a, b) => {
            out.push('(');
            print(a, scope, next, free, out);
            out.push_str(if matches!(t, Ty::Arrow(..)) {
                " -> "
            } else {
                " * "
            });
            print(b, scope, next, free, out);
            out.push(')');
        }
        Ty::Forall(vars, body) => {
            out.push_str("(forall");
            for v in vars {
                let fresh = format!("q{next}");
                *next += 1;
                out.push(' ');
                out.push_str(&fresh);
                scope.push((v.clone(), fresh));
            }
            out.push_str(". ");
            print(body, scope, next, free, out);
            scope.truncate(scope.len() - vars.len());
            out.push(')');
        }
    }
}

/// The α-canonical rendering of a type, or `!unparsable: …` (which then
/// matches no key).
pub fn canon(src: &str) -> String {
    let mut p = TyParser {
        toks: tokens(src),
        pos: 0,
    };
    match p.ty() {
        Ok(t) if p.pos == p.toks.len() => {
            let mut out = String::new();
            print(&t, &mut Vec::new(), &mut 0, &mut Vec::new(), &mut out);
            out
        }
        Ok(_) => format!("!unparsable: trailing tokens in {src}"),
        Err(e) => format!("!unparsable: {e} in {src}"),
    }
}

// ------------------------------------------------------------------- JSON

/// A parsed response value.
pub enum Value {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    Obj(Vec<(String, Value)>),
}

impl Value {
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn str(&self, key: &str) -> Option<&str> {
        match self.get(key) {
            Some(Value::Str(s)) => Some(s),
            _ => None,
        }
    }

    pub fn num(&self, key: &str) -> Option<f64> {
        match self.get(key) {
            Some(Value::Num(n)) => Some(*n),
            _ => None,
        }
    }

    fn is_true(&self, key: &str) -> bool {
        matches!(self.get(key), Some(Value::Bool(true)))
    }
}

/// Parse one JSON text (the subset the service writes: no exponents are
/// required, but they are accepted).
pub fn parse_json(src: &str) -> Result<Value, String> {
    let b = src.as_bytes();
    let mut i = 0;
    let v = value(b, &mut i)?;
    skip_ws(b, &mut i);
    if i != b.len() {
        return Err(format!("trailing data at byte {i}"));
    }
    Ok(v)
}

fn skip_ws(b: &[u8], i: &mut usize) {
    while *i < b.len() && b[*i].is_ascii_whitespace() {
        *i += 1;
    }
}

fn value(b: &[u8], i: &mut usize) -> Result<Value, String> {
    skip_ws(b, i);
    match b.get(*i) {
        Some(b'{') => {
            *i += 1;
            let mut fields = Vec::new();
            skip_ws(b, i);
            if b.get(*i) == Some(&b'}') {
                *i += 1;
                return Ok(Value::Obj(fields));
            }
            loop {
                skip_ws(b, i);
                let k = string(b, i)?;
                skip_ws(b, i);
                if b.get(*i) != Some(&b':') {
                    return Err(format!("expected `:` at byte {i}"));
                }
                *i += 1;
                fields.push((k, value(b, i)?));
                skip_ws(b, i);
                match b.get(*i) {
                    Some(b',') => *i += 1,
                    Some(b'}') => {
                        *i += 1;
                        return Ok(Value::Obj(fields));
                    }
                    _ => return Err(format!("expected `,` or `}}` at byte {i}")),
                }
            }
        }
        Some(b'[') => {
            *i += 1;
            let mut items = Vec::new();
            skip_ws(b, i);
            if b.get(*i) == Some(&b']') {
                *i += 1;
                return Ok(Value::Arr(items));
            }
            loop {
                items.push(value(b, i)?);
                skip_ws(b, i);
                match b.get(*i) {
                    Some(b',') => *i += 1,
                    Some(b']') => {
                        *i += 1;
                        return Ok(Value::Arr(items));
                    }
                    _ => return Err(format!("expected `,` or `]` at byte {i}")),
                }
            }
        }
        Some(b'"') => string(b, i).map(Value::Str),
        Some(b't') if b[*i..].starts_with(b"true") => {
            *i += 4;
            Ok(Value::Bool(true))
        }
        Some(b'f') if b[*i..].starts_with(b"false") => {
            *i += 5;
            Ok(Value::Bool(false))
        }
        Some(b'n') if b[*i..].starts_with(b"null") => {
            *i += 4;
            Ok(Value::Null)
        }
        Some(c) if *c == b'-' || c.is_ascii_digit() => {
            let start = *i;
            while *i < b.len() && matches!(b[*i], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9') {
                *i += 1;
            }
            std::str::from_utf8(&b[start..*i])
                .ok()
                .and_then(|s| s.parse().ok())
                .map(Value::Num)
                .ok_or_else(|| format!("bad number at byte {start}"))
        }
        _ => Err(format!("unexpected byte at {i}")),
    }
}

fn string(b: &[u8], i: &mut usize) -> Result<String, String> {
    if b.get(*i) != Some(&b'"') {
        return Err(format!("expected string at byte {i}"));
    }
    *i += 1;
    let mut out: Vec<u8> = Vec::new();
    loop {
        match b.get(*i) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *i += 1;
                return String::from_utf8(out).map_err(|e| e.to_string());
            }
            Some(b'\\') => {
                let esc = b.get(*i + 1).copied();
                *i += 2;
                match esc {
                    Some(b'n') => out.push(b'\n'),
                    Some(b't') => out.push(b'\t'),
                    Some(b'r') => out.push(b'\r'),
                    Some(b'b') => out.push(8),
                    Some(b'f') => out.push(12),
                    Some(b'u') => {
                        let hex = b.get(*i..*i + 4).ok_or("short \\u escape")?;
                        let code = u32::from_str_radix(
                            std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                            16,
                        )
                        .map_err(|e| e.to_string())?;
                        *i += 4;
                        let mut buf = [0u8; 4];
                        // Surrogates only occur in pairs for text the
                        // service never writes here; map them to U+FFFD.
                        let ch = char::from_u32(code).unwrap_or('\u{FFFD}');
                        out.extend_from_slice(ch.encode_utf8(&mut buf).as_bytes());
                    }
                    Some(c) => out.push(c),
                    None => return Err("unterminated escape".to_string()),
                }
            }
            Some(&c) => {
                out.push(c);
                *i += 1;
            }
        }
    }
}

// --------------------------------------------------------------- answers

/// Check one response line against its expectation; `Err` says why not.
pub fn check_line(line: &str, expect: &Expect) -> Result<(), String> {
    let v = parse_json(line.trim_end()).map_err(|e| format!("unreadable answer ({e})"))?;
    check_value(&v, expect)
}

fn check_value(v: &Value, expect: &Expect) -> Result<(), String> {
    if let Expect::Batch(items) = expect {
        let Value::Arr(answers) = v else {
            return Err("a batch was not answered with an array".to_string());
        };
        if answers.len() != items.len() {
            return Err(format!(
                "{} answers for {} requests",
                answers.len(),
                items.len()
            ));
        }
        for (a, e) in answers.iter().zip(items) {
            check_value(a, e)?;
        }
        return Ok(());
    }
    if !v.is_true("ok") {
        return Err(format!("error answer: {}", short(v)));
    }
    match expect {
        Expect::Report { key, cone } => check_report(v, key, *cone),
        Expect::TypeOf { key, i } => {
            let result = v.str("result").ok_or("type-of without a result")?;
            let (ty, defaulted) = match result.split_once("  (defaulted: ") {
                Some((ty, _)) => (ty, true),
                None => (result, false),
            };
            check_type(&key.names[*i], ty, defaulted, key, *i)
        }
        Expect::Elaborate { key, i } => {
            if !v.is_true("checked") || v.str("fterm").is_none() {
                return Err("elaborate without a checked System F image".to_string());
            }
            let ty = v.str("type").ok_or("elaborate without a type")?;
            check_type(&key.names[*i], ty, key.defaulted[*i], key, *i)
        }
        Expect::Closed => {
            if v.is_true("closed") {
                Ok(())
            } else {
                Err("close of an open document answered closed:false".to_string())
            }
        }
        Expect::Batch(_) => unreachable!("handled above"),
    }
}

fn short(v: &Value) -> String {
    match v.get("error") {
        Some(Value::Str(s)) => s.clone(),
        Some(e) => e.str("message").unwrap_or("?").to_string(),
        None => "?".to_string(),
    }
}

/// [`canon`], memoised: answers repeat a handful of types many times.
fn canon_cached(ty: &str) -> std::rc::Rc<str> {
    thread_local! {
        static SEEN: std::cell::RefCell<HashMap<String, std::rc::Rc<str>>> = Default::default();
    }
    SEEN.with(|seen| {
        if let Some(c) = seen.borrow().get(ty) {
            return std::rc::Rc::clone(c);
        }
        let c: std::rc::Rc<str> = canon(ty).into();
        seen.borrow_mut()
            .insert(ty.to_string(), std::rc::Rc::clone(&c));
        c
    })
}

fn check_type(name: &str, ty: &str, defaulted: bool, key: &DocKey, i: usize) -> Result<(), String> {
    if *canon_cached(ty) != *key.schemes[i] {
        return Err(format!(
            "`{name}`: got `{ty}`, key says `{}`",
            key.schemes[i]
        ));
    }
    if defaulted != key.defaulted[i] {
        return Err(format!("`{name}`: defaulting differs from the key"));
    }
    Ok(())
}

fn check_report(v: &Value, key: &DocKey, cone: Option<usize>) -> Result<(), String> {
    let Some(Value::Arr(bindings)) = v.get("bindings") else {
        return Err("report without bindings".to_string());
    };
    if bindings.len() != key.names.len() {
        return Err(format!(
            "{} bindings, key has {}",
            bindings.len(),
            key.names.len()
        ));
    }
    for (i, b) in bindings.iter().enumerate() {
        let name = b.str("name").unwrap_or("?");
        if name != key.names[i] {
            return Err(format!(
                "binding {i} is `{name}`, key says `{}`",
                key.names[i]
            ));
        }
        if b.str("status") != Some("ok") {
            return Err(format!("`{name}` is not typed: {:?}", b.str("message")));
        }
        let ty = b.str("type").unwrap_or("");
        check_type(name, ty, b.get("defaulted").is_some(), key, i)?;
    }
    let count = |k: &str| {
        v.num(k)
            .map(|n| n as usize)
            .ok_or(format!("report without `{k}`"))
    };
    let (rechecked, reused, blocked) = (count("rechecked")?, count("reused")?, count("blocked")?);
    if rechecked + reused + blocked != bindings.len() {
        return Err(format!(
            "rechecked {rechecked} + reused {reused} + blocked {blocked} != {} bindings",
            bindings.len()
        ));
    }
    if let Some(cone) = cone {
        if !(1..=cone).contains(&rechecked) {
            return Err(format!(
                "an edit rechecked {rechecked}, outside 1..={cone} (its cone)"
            ));
        }
    }
    Ok(())
}

// ------------------------------------------------------------ cross-check

/// Check the key against the paper-literal `core` engine, in process: a
/// document holding every Figure 1 row, every shape over each row, and
/// every row behind the edit wrapper. `Err` lists the disagreements.
pub fn cross_check() -> Result<usize, String> {
    use freezeml_service::{EngineSel, Service, ServiceConfig};
    let rows = crate::gen::rows();
    let mut rng = crate::gen::Rng::new(0);
    let order: Vec<usize> = (0..rows.len()).collect();
    let mut cursor = 0;
    // Enough groups that every row heads several, with varied shapes.
    let doc = Doc::generate(
        &mut rng,
        &rows,
        &order,
        &mut cursor,
        "k",
        rows.len() * crate::gen::GROUP * 3,
    );
    let mut svc = Service::new(ServiceConfig {
        engine: EngineSel::Core,
        workers: 1,
        ..ServiceConfig::default()
    });
    let key = doc.key();
    let mut problems = Vec::new();
    let mut texts = vec![doc.text(None)];
    for g in (0..doc.bindings.len()).step_by(crate::gen::GROUP) {
        texts.push(doc.text(Some((g, "z0000000"))));
    }
    for text in &texts {
        let report = match svc.open("key", text) {
            Ok(r) => r.clone(),
            Err(e) => return Err(format!("the key document does not parse: {e}")),
        };
        let by_name: HashMap<&str, usize> = key
            .names
            .iter()
            .enumerate()
            .map(|(i, n)| (n.as_str(), i))
            .collect();
        for b in &report.bindings {
            let i = by_name[b.name.as_str()];
            let got = match &b.outcome {
                freezeml_service::Outcome::Typed {
                    scheme, defaulted, ..
                } => (canon(scheme), !defaulted.is_empty()),
                other => (format!("not typed: {}", other.display()), false),
            };
            if got != (key.schemes[i].to_string(), key.defaulted[i]) {
                problems.push(format!(
                    "`{} = {}`: core gives {:?}, key says {:?}",
                    b.name,
                    doc.bindings[i].body,
                    got,
                    (&key.schemes[i], key.defaulted[i])
                ));
            }
        }
    }
    if problems.is_empty() {
        Ok(doc.bindings.len())
    } else {
        problems.dedup();
        Err(problems.join("\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{workload, Rng};
    use std::sync::Arc;

    #[test]
    fn alpha_equal_types_render_alike() {
        assert_eq!(
            canon("forall a b. a -> b -> b"),
            canon("forall x y. x -> (y -> y)")
        );
        assert_eq!(
            canon("(forall a. a -> a) -> forall a. a -> a"),
            canon("(forall b. b -> b) -> forall c. c -> c")
        );
        assert_eq!(canon("Int * Bool -> Int"), canon("(Int * Bool) -> Int"));
        assert_ne!(
            canon("forall a b. a -> b -> b"),
            canon("forall b a. a -> b -> b")
        );
        assert_ne!(
            canon("List (forall a. a -> a)"),
            canon("forall a. List (a -> a)")
        );
        assert!(canon("forall a. ->").starts_with("!unparsable"));
    }

    #[test]
    fn the_key_covers_the_41_rows() {
        assert_eq!(crate::gen::rows().len(), 41);
    }

    #[test]
    fn the_key_agrees_with_the_core_engine() {
        if let Err(e) = cross_check() {
            panic!("{e}");
        }
    }

    #[test]
    fn json_reader_reads_service_shapes() {
        let v = parse_json(r#"[{"ok":true,"n":-1.5e0,"s":"a\"é\n"},null,[]]"#).unwrap();
        let Value::Arr(items) = v else { panic!() };
        assert_eq!(items[0].str("s"), Some("a\"é\n"));
        assert_eq!(items[0].num("n"), Some(-1.5));
    }

    /// Simulated answers: a correct report passes; a corrupted key, a
    /// wrong count, and an edit outside its cone are all caught.
    #[test]
    fn a_corrupted_key_is_caught() {
        let mut rng = Rng::new(7);
        let rows = crate::gen::rows();
        let order: Vec<usize> = (0..rows.len()).collect();
        let doc = Doc::generate(&mut rng, &rows, &order, &mut 0, "t", 16);
        let key = doc.key();
        let answer = |rechecked: usize| {
            let bs: Vec<String> = doc
                .bindings
                .iter()
                .map(|b| {
                    let d = if b.defaulted {
                        ",\"defaulted\":[\"a\"]"
                    } else {
                        ""
                    };
                    format!(
                        "{{\"name\":\"{}\",\"status\":\"ok\",\"type\":\"{}\"{d}}}",
                        b.name, b.scheme
                    )
                })
                .collect();
            format!(
                "{{\"ok\":true,\"bindings\":[{}],\"rechecked\":{rechecked},\"reused\":{},\"blocked\":0}}",
                bs.join(","),
                16 - rechecked
            )
        };
        let good = Expect::Report {
            key: Arc::clone(&key),
            cone: Some(2),
        };
        assert!(check_line(&answer(1), &good).is_ok());
        assert!(check_line(&answer(3), &good).unwrap_err().contains("cone"));
        let mut schemes = key.schemes.clone();
        schemes[5] = canon("Int -> Bool").into();
        let corrupted = Expect::Report {
            key: Arc::new(DocKey {
                names: key.names.clone(),
                schemes,
                defaulted: key.defaulted.clone(),
            }),
            cone: None,
        };
        assert!(check_line(&answer(1), &corrupted)
            .unwrap_err()
            .contains("key says"));
        let miscount = answer(1).replace("\"blocked\":0", "\"blocked\":1");
        assert!(check_line(&miscount, &good).is_err());
        assert!(check_line("{\"ok\":false,\"error\":\"overloaded\"}", &good).is_err());
    }

    #[test]
    fn streams_repeat_for_a_seed_and_vary_across_seeds() {
        for w in crate::gen::WORKLOADS {
            let lines = |seed| -> Vec<String> {
                workload(w, seed, 1).unwrap()[0]
                    .measured
                    .iter()
                    .map(|s| s.line.clone())
                    .collect()
            };
            assert_eq!(lines(1), lines(1));
            assert_ne!(lines(1), lines(2));
        }
    }
}
