//! The command's contract: its output line matches `BENCHMARK.json`, and
//! bad invocations fail without printing a result.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

/// A parsed JSON value (enough of JSON for the benchmark's own files).
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    fn parse(text: &str) -> Json {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value();
        p.ws();
        assert_eq!(p.i, p.s.len(), "trailing bytes after JSON value");
        v
    }

    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(m) => m.get(key).unwrap_or_else(|| panic!("no key {key:?}")),
            other => panic!("{other:?} is not an object"),
        }
    }

    fn obj(&self) -> &BTreeMap<String, Json> {
        match self {
            Json::Obj(m) => m,
            other => panic!("{other:?} is not an object"),
        }
    }

    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(v) => v,
            other => panic!("{other:?} is not an array"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("{other:?} is not a string"),
        }
    }

    fn num(&self) -> f64 {
        match self {
            Json::Num(n) => *n,
            other => panic!("{other:?} is not a number"),
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) {
        self.ws();
        assert_eq!(self.s[self.i], c, "expected {:?} at {}", c as char, self.i);
        self.i += 1;
    }

    fn value(&mut self) -> Json {
        self.ws();
        match self.s[self.i] {
            b'{' => {
                self.i += 1;
                let mut m = BTreeMap::new();
                self.ws();
                if self.s[self.i] == b'}' {
                    self.i += 1;
                    return Json::Obj(m);
                }
                loop {
                    self.ws();
                    let Json::Str(k) = self.value() else {
                        panic!("object key must be a string")
                    };
                    self.eat(b':');
                    let v = self.value();
                    assert!(m.insert(k, v).is_none(), "duplicate key");
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b'}' {
                        return Json::Obj(m);
                    }
                }
            }
            b'[' => {
                self.i += 1;
                let mut v = Vec::new();
                self.ws();
                if self.s[self.i] == b']' {
                    self.i += 1;
                    return Json::Arr(v);
                }
                loop {
                    v.push(self.value());
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b']' {
                        return Json::Arr(v);
                    }
                }
            }
            b'"' => {
                self.i += 1;
                let start = self.i;
                while self.s[self.i] != b'"' {
                    assert_ne!(self.s[self.i], b'\\', "escapes are not used");
                    self.i += 1;
                }
                self.i += 1;
                Json::Str(String::from_utf8(self.s[start..self.i - 1].to_vec()).unwrap())
            }
            b't' | b'f' | b'n' => {
                for (word, v) in [
                    ("true", Json::Bool(true)),
                    ("false", Json::Bool(false)),
                    ("null", Json::Null),
                ] {
                    if self.s[self.i..].starts_with(word.as_bytes()) {
                        self.i += word.len();
                        return v;
                    }
                }
                panic!("bad literal at {}", self.i)
            }
            _ => {
                let start = self.i;
                while self.i < self.s.len() && b"+-.eE0123456789".contains(&self.s[self.i]) {
                    self.i += 1;
                }
                let text = std::str::from_utf8(&self.s[start..self.i]).unwrap();
                Json::Num(
                    text.parse()
                        .unwrap_or_else(|_| panic!("bad number {text:?}")),
                )
            }
        }
    }
}

fn benchmark_json() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
}

/// Declared `(name, unit)` pairs of one metric class.
fn declared(class: &str) -> BTreeMap<String, String> {
    benchmark_json()
        .get(class)
        .arr()
        .iter()
        .map(|m| {
            (
                m.get("name").str().to_owned(),
                m.get("unit").str().to_owned(),
            )
        })
        .collect()
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.as_bytes()[0].is_ascii_alphanumeric()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'.' || b == b'-')
}

fn run(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .output()
        .expect("the benchmark binary starts")
}

/// Runs a workload for one second; returns its parsed result line.
fn result(workload: &str, trace: &str) -> Json {
    let out = run(&[
        "--workload",
        workload,
        "--seed",
        "3",
        "--seconds",
        "1",
        "--trace",
        trace,
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    let last = stdout.lines().last().expect("a result line");
    let v = Json::parse(last);
    let keys: Vec<&str> = v.obj().keys().map(String::as_str).collect();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    assert_eq!(*v.get("correct"), Json::Bool(true));
    assert!(v.get("attempted").num() >= 1.0);
    assert_eq!(v.get("failed").num(), 0.0);
    let provenance = Json::parse(stdout.lines().rev().nth(1).expect("a provenance line"));
    for key in [
        "rev", "cpus", "rustc", "workload", "scale", "samples", "seed",
    ] {
        provenance.get("provenance").get(key);
    }
    v
}

fn assert_prints_exactly(v: &Json, class: &str) {
    let printed: BTreeMap<String, String> = v
        .get("metrics")
        .obj()
        .iter()
        .map(|(k, m)| (k.clone(), m.get("unit").str().to_owned()))
        .collect();
    assert_eq!(printed, declared(class), "printed vs declared {class}");
}

#[test]
fn every_declared_name_is_well_formed_and_unique() {
    let b = benchmark_json();
    let mut names = Vec::new();
    for class in ["workloads", "end_to_end", "per_layer"] {
        for m in b.get(class).arr() {
            names.push(m.get("name").str().to_owned());
        }
    }
    for name in &names {
        assert!(valid_name(name), "{name:?}");
    }
    let mut unique = names.clone();
    unique.sort();
    unique.dedup();
    assert_eq!(unique.len(), names.len(), "names are used once");
    let workloads: Vec<&str> = b
        .get("workloads")
        .arr()
        .iter()
        .map(|w| w.get("name").str())
        .collect();
    assert_eq!(workloads, ["native", "fragmented", "ladder", "daemon"]);
    for m in b.get("end_to_end").arr() {
        assert!(m.get("bound").num() > 0.0 && m.get("bound").num() <= 0.25);
    }
}

#[test]
fn grid_runs_print_every_declared_metric_and_nothing_else() {
    assert_prints_exactly(&result("ladder", "0"), "end_to_end");
    assert_prints_exactly(&result("ladder", "1"), "per_layer");
}

#[test]
fn daemon_runs_print_every_declared_metric_and_nothing_else() {
    assert_prints_exactly(&result("daemon", "0"), "end_to_end");
    let traced = result("daemon", "1");
    assert_prints_exactly(&traced, "per_layer");
    assert!(
        traced
            .get("metrics")
            .get("serve.execute_ms")
            .get("value")
            .num()
            > 0.0
    );
}

#[test]
fn bad_invocations_exit_nonzero_without_a_result() {
    for args in [
        &["--workload", "nosuch", "--seed", "1"][..],
        &["--workload", "native", "--trace", "2"],
        &["--workload", "native", "--bogus", "1"],
        &["--seed", "1"],
    ] {
        let out = run(args);
        assert!(!out.status.success(), "{args:?} must fail");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
