//! The slot-resolved interpreter against the AST-walking oracle it
//! replaced: results *and* errors (message and line) must be equal, at
//! the default fuel and at every small fuel, so an out-of-fuel error
//! comes at the same step. The corpus is the crate's unit-test programs,
//! seeded memory-safety, arithmetic, call-depth and fuel faults, and
//! unchecked programs whose names fail to resolve only at run time.

mod oracle;

use parfait_littlec::ast::Program;
use parfait_littlec::interp::Interp;
use parfait_littlec::{frontend, parse, LcError};

use oracle::OracleInterp;

/// One run of a program.
enum Run {
    /// `name(args)` on scalars.
    Call(&'static str, Vec<u32>),
    /// `handle(state, cmd, resp)` with a response of the given size.
    Step(Vec<u8>, Vec<u8>, usize),
}

type Outcome = Result<Vec<Vec<u8>>, LcError>;

fn run_new(p: &Program, run: &Run, fuel: Option<u64>) -> Outcome {
    let mut i = Interp::new(p);
    if let Some(f) = fuel {
        i.fuel = f;
    }
    match run {
        Run::Call(name, args) => i.call(name, args).map(|v| vec![v.to_le_bytes().to_vec()]),
        Run::Step(s, c, r) => i.step(s, c, *r).map(|(s, r)| vec![s, r]),
    }
}

fn run_old(p: &Program, run: &Run, fuel: Option<u64>) -> Outcome {
    let mut i = OracleInterp::new(p);
    if let Some(f) = fuel {
        i.fuel = f;
    }
    match run {
        Run::Call(name, args) => i.call(name, args).map(|v| vec![v.to_le_bytes().to_vec()]),
        Run::Step(s, c, r) => i.step(s, c, *r).map(|(s, r)| vec![s, r]),
    }
}

/// Both interpreters agree on `run` at the default fuel and at every
/// fuel up to `sweep`; returns the default-fuel outcome.
fn agree(label: &str, p: &Program, run: &Run, sweep: u64) -> Outcome {
    let got = run_new(p, run, None);
    assert_eq!(got, run_old(p, run, None), "{label}: default fuel");
    for fuel in 0..=sweep {
        assert_eq!(
            run_new(p, run, Some(fuel)),
            run_old(p, run, Some(fuel)),
            "{label}: fuel {fuel}"
        );
    }
    got
}

fn typed(src: &str) -> Program {
    frontend(src).unwrap_or_else(|e| panic!("{e}\n{src}"))
}

fn untyped(src: &str) -> Program {
    let p = parse(src).unwrap_or_else(|e| panic!("{e}\n{src}"));
    assert!(parfait_littlec::typecheck(&p).is_err(), "meant to be ill-typed:\n{src}");
    p
}

fn err(outcome: Outcome) -> LcError {
    outcome.expect_err("expected an interpreter error")
}

/// The interpreter's own unit-test programs and the validator's.
#[test]
fn unit_corpus_agrees() {
    let handle_sum = "
        void handle(u8* state, u8* cmd, u8* resp) {
            u32 acc = 0;
            for (u32 i = 0; i < 8; i = i + 1) { acc = acc + cmd[i]; }
            resp[0] = (u8)acc;
            resp[1] = state[0];
            state[0] = (u8)(state[0] ^ cmd[0]);
        }
    ";
    let cases: Vec<(&str, &str, Vec<Run>)> = vec![
        (
            "calls",
            "u32 square(u32 x) { return x * x; }
             u32 f(u32 a, u32 b) { return square(a) + square(b); }",
            vec![Run::Call("f", vec![3, 4]), Run::Call("f", vec![u32::MAX, 7])],
        ),
        (
            "fib",
            "u32 fib(u32 n) {
                 u32 a[16];
                 a[0] = 0;
                 a[1] = 1;
                 for (u32 i = 2; i <= n; i = i + 1) { a[i] = a[i - 1] + a[i - 2]; }
                 return a[n];
             }",
            vec![Run::Call("fib", vec![10]), Run::Call("fib", vec![15])],
        ),
        (
            "globals",
            "const u32 K[4] = {10, 20, 30, 40};
             const u32 LEN = 4;
             static u8 B[3];
             u32 sum() {
                 u32 s = 0;
                 for (u32 i = 0; i < LEN; i = i + 1) { s = s + K[i]; B[i % 3] = (u8)s; }
                 return s + B[0] + B[2];
             }",
            vec![Run::Call("sum", vec![])],
        ),
        (
            "short-circuit",
            "u32 f(u32 a) {
                 u32 c = 0;
                 if (a != 0 && 100 / a > 10) { c = 1; }
                 if (a == 0 || 100 % a == 0) { c = c + 2; }
                 return c;
             }",
            vec![Run::Call("f", vec![0]), Run::Call("f", vec![5]), Run::Call("f", vec![50])],
        ),
        (
            "break-continue",
            "u32 f() {
                 u32 s = 0;
                 for (u32 i = 0; i < 10; i = i + 1) {
                     if (i == 3) { continue; }
                     if (i == 6) { break; }
                     s = s + i;
                 }
                 return s;
             }",
            vec![Run::Call("f", vec![])],
        ),
        (
            "u8-truncation",
            "u32 g(u8 b) { return b; }
             u32 f(u32 x) { u8 b = x; u8 c = 0; c = x + 1; return b + c + g(x); }",
            vec![Run::Call("f", vec![0x1FF]), Run::Call("f", vec![0xFF])],
        ),
        (
            "stack-arrays-zeroed",
            "u32 taint() {
                 u32 a[4];
                 a[0] = 0xdeadbeef; a[1] = 1; a[2] = 2; a[3] = 3;
                 return 0;
             }
             u32 f() { u32 x = taint(); u32 b[4]; return b[0] + x; }",
            vec![Run::Call("f", vec![])],
        ),
        (
            "mix",
            "u32 mix(u32 a, u32 b) {
                 u32 x = a ^ (b << 3);
                 return x * 2654435761 + (a >> 5) + mulhu(a, b) - (~b) + (-a) + !b;
             }",
            vec![Run::Call("mix", vec![1, 2]), Run::Call("mix", vec![0xdeadbeef, 42])],
        ),
        (
            "handle-sum",
            handle_sum,
            vec![
                Run::Step(vec![0; 4], vec![1, 2, 3, 4, 5, 6, 7, 8], 4),
                Run::Step(vec![9; 4], vec![0xFF; 8], 4),
            ],
        ),
        (
            "pointer-casts",
            "u32 ld(u8* p) { u32* w = (u32*)p; return w[0]; }
             void handle(u8* state, u8* cmd, u8* resp) {
                 u32* r = (u32*)resp;
                 u8* tail = cmd + 4;
                 r[0] = ld(cmd) * 2;
                 r[1] = ld(tail - 0) + ld(state);
                 u32* s = (u32*)state;
                 s[0] = s[0] + 1;
             }",
            vec![Run::Step(vec![1, 0, 0, 0], vec![0x10, 0, 0, 0, 7, 0, 0, 0], 8)],
        ),
    ];
    for (label, src, runs) in cases {
        let p = typed(src);
        for run in &runs {
            agree(label, &p, run, 300).expect("the corpus runs clean");
        }
    }
}

/// Seeded faults: each fires in both interpreters with the same error.
#[test]
fn seeded_faults_agree() {
    let cases: Vec<(&str, &str, Run, &str)> = vec![
        (
            "out-of-bounds read",
            "u32 f(u32 i) { u32 a[4]; return a[i]; }",
            Run::Call("f", vec![4]),
            "out-of-bounds",
        ),
        (
            "out-of-bounds wrap",
            "u32 f(u32 i) { u32 a[4]; return a[i]; }",
            Run::Call("f", vec![0x4000_0000]),
            "out-of-bounds",
        ),
        (
            "out-of-bounds write",
            "void handle(u8* state, u8* cmd, u8* resp) {
                 for (u32 i = 0; i < 5; i = i + 1) { resp[i] = cmd[i]; }
             }",
            Run::Step(vec![0; 4], vec![1; 8], 4),
            "out-of-bounds",
        ),
        (
            "pointer below its allocation",
            "void handle(u8* state, u8* cmd, u8* resp) { u8* p = cmd - 1; resp[0] = p[0]; }",
            Run::Step(vec![0; 4], vec![1; 8], 4),
            "out-of-bounds",
        ),
        (
            "division by zero",
            "u32 f(u32 a) { return 10 / a; }",
            Run::Call("f", vec![0]),
            "division by zero",
        ),
        (
            "remainder by zero",
            "u32 f(u32 a) { u32 x = 3; x = x + 10 % a; return x; }",
            Run::Call("f", vec![0]),
            "remainder by zero",
        ),
        (
            "misaligned word",
            "void handle(u8* state, u8* cmd, u8* resp) {
                 u32* w = (u32*)(cmd + 1);
                 resp[0] = (u8)w[0];
             }",
            Run::Step(vec![0; 4], vec![1; 8], 4),
            "misaligned",
        ),
        (
            "call depth",
            "u32 down(u32 n) { u32 pad[2]; pad[0] = n; if (n == 0) { return 0; } return 1 + down(n - 1); }",
            Run::Call("down", vec![300]),
            "call depth exceeded",
        ),
        (
            "out of fuel",
            "u32 f() { u32 i = 0; while (1) { i = i + 1; } return i; }",
            Run::Call("f", vec![]),
            "out of fuel",
        ),
    ];
    for (label, src, run, want) in cases {
        let p = typed(src);
        // The infinite loop runs at a small fuel only.
        let outcome = if want == "out of fuel" {
            assert_eq!(run_new(&p, &run, Some(5_000)), run_old(&p, &run, Some(5_000)), "{label}");
            run_new(&p, &run, Some(5_000))
        } else {
            agree(label, &p, &run, 200)
        };
        let e = err(outcome);
        assert!(e.msg.contains(want), "{label}: {e}");
    }
    // Around the call-depth limit, both stop at the same depth.
    let p = typed("u32 down(u32 n) { if (n == 0) { return 0; } return 1 + down(n - 1); }");
    for n in 250..=260 {
        agree("call depth edge", &p, &Run::Call("down", vec![n]), 0).ok();
    }
}

/// Unchecked programs: a name with no declaration in scope fails at
/// run time, at the same point and with the same message, and the
/// scoping corners the type checker rejects still resolve the same.
#[test]
fn unresolved_names_fail_at_the_same_point() {
    let cases: Vec<(&str, &str, Vec<Run>)> = vec![
        (
            "undefined variable on one path",
            "u32 f(u32 a) { if (a) { return y; } return 1; }",
            vec![Run::Call("f", vec![0]), Run::Call("f", vec![1])],
        ),
        ("undefined function", "u32 f() { return g(1); }", vec![Run::Call("f", vec![])]),
        (
            "arity mismatch",
            "u32 g(u32 a) { return a; } u32 f() { return g(1, 2); }",
            vec![Run::Call("f", vec![]), Run::Call("g", vec![]), Run::Call("nope", vec![])],
        ),
        (
            "assign to constant",
            "const u32 K = 3; u32 f() { u32 x = K; K = 4; return x; }",
            vec![Run::Call("f", vec![])],
        ),
        (
            "assign to arrays",
            "static u32 T[4]; u32 f(u32 a) { u32 s[2]; if (a) { s = 1; } T = 1; return 0; }",
            vec![Run::Call("f", vec![0]), Run::Call("f", vec![1])],
        ),
        (
            "use before declaration",
            "u32 f() { x = 3; u32 x = 1; return x; }",
            vec![Run::Call("f", vec![])],
        ),
        (
            "shadowed local",
            "u32 f(u32 a) { u32 s = 2; if (1) { u32 a = 5; u32 s = s + a; a = s; } return s + a; }",
            vec![Run::Call("f", vec![7])],
        ),
        (
            "duplicate declaration",
            "u32 f() { u32 x = 1; u32 y = x; u32 x = 7; x = x + 1; return x + y; }",
            vec![Run::Call("f", vec![])],
        ),
        (
            "duplicate parameter",
            "u32 f(u32 a, u32 a) { return a; }",
            vec![Run::Call("f", vec![1, 2])],
        ),
        (
            "duplicate function",
            "u32 g() { return 1; } u32 g() { return 2; } u32 f() { return g(); }",
            vec![Run::Call("f", vec![]), Run::Call("g", vec![])],
        ),
        (
            "break outside a loop",
            "u32 f() { if (1) { break; } return 5; }",
            vec![Run::Call("f", vec![])],
        ),
        (
            "pointer where an integer goes",
            "void handle(u8* state, u8* cmd, u8* resp) {
                 u32 x = cmd;
                 resp[0] = x;
                 u32 p = cmd;
                 if (state[0] == 1) { resp[1] = (p + 1)[0]; }
                 if (state[0] == 2) { u8 b = cmd; }
                 if (state[0] == 3) { resp[1] = mulhu(cmd, 1); }
                 if (state[0] == 4) { u32 n = 3; resp[1] = n[0]; }
                 if (state[0] == 5) { resp[1] = g(cmd)[0]; }
                 if (state[0] == 6) { if (cmd) { resp[1] = 1; } }
             }
             u32 g(u8* q) { return q; }",
            (0..7).map(|s| Run::Step(vec![s; 4], vec![1; 8], 4)).collect(),
        ),
        (
            "global shadowed by a local",
            "const u32 K[2] = {5, 6}; u32 f() { u32 s = K[1]; if (1) { u32 K = 9; s = s + K; } return s + K[0]; }",
            vec![Run::Call("f", vec![])],
        ),
    ];
    for (label, src, runs) in cases {
        let p = parse(src).unwrap_or_else(|e| panic!("{e}\n{src}"));
        for run in &runs {
            agree(label, &p, run, 60).ok();
        }
    }
    // The undefined name only fails on the path that evaluates it.
    let p = untyped("u32 f(u32 a) { if (a) { return y; } return 1; }");
    assert_eq!(run_new(&p, &Run::Call("f", vec![0]), None), Ok(vec![1u32.to_le_bytes().to_vec()]));
    let e = err(run_new(&p, &Run::Call("f", vec![1]), None));
    assert_eq!((e.line, e.msg.as_str()), (1, "undefined variable `y`"));
}
