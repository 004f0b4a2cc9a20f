//! Property-based compiler fuzzing: random expression programs must
//! produce identical results at every level of the pipeline (interp,
//! IR, and assembly at all three optimization levels) — randomized
//! translation validation. The interp level is also held to the
//! AST-walking oracle it replaced.

mod oracle;

use proptest::prelude::*;

use parfait_littlec::codegen::{compile, OptLevel};
use parfait_littlec::frontend;
use parfait_littlec::interp::Interp;
use parfait_littlec::ir::lower;
use parfait_littlec::ireval::IrEval;
use parfait_riscv::asm::assemble;
use parfait_riscv::machine::Machine;

/// A random expression over variables a, b, c and constants, rendered
/// as littlec source. Division/remainder are guarded with `| 1` so the
/// interp level (which treats /0 as an error) never traps.
#[derive(Debug, Clone)]
enum E {
    Var(usize),
    Const(u32),
    Bin(&'static str, Box<E>, Box<E>),
    Un(&'static str, Box<E>),
}

impl E {
    fn render(&self) -> String {
        match self {
            E::Var(i) => ["a", "b", "c"][*i % 3].to_string(),
            E::Const(v) => format!("{v}"),
            E::Bin(op, l, r) => {
                if *op == "/" || *op == "%" {
                    format!("({} {} (({}) | 1))", l.render(), op, r.render())
                } else {
                    format!("({} {} {})", l.render(), op, r.render())
                }
            }
            E::Un(op, e) => format!("({}({}))", op, e.render()),
        }
    }
}

fn arb_expr() -> impl Strategy<Value = E> {
    let leaf = prop_oneof![
        (0usize..3).prop_map(E::Var),
        any::<u32>().prop_map(E::Const),
        (0u32..16).prop_map(E::Const),
    ];
    leaf.prop_recursive(5, 64, 4, |inner| {
        prop_oneof![
            (
                prop_oneof![
                    Just("+"),
                    Just("-"),
                    Just("*"),
                    Just("/"),
                    Just("%"),
                    Just("&"),
                    Just("|"),
                    Just("^"),
                    Just("<<"),
                    Just(">>"),
                    Just("<"),
                    Just("<="),
                    Just(">"),
                    Just(">="),
                    Just("=="),
                    Just("!="),
                ],
                inner.clone(),
                inner.clone()
            )
                .prop_map(|(op, l, r)| E::Bin(op, Box::new(l), Box::new(r))),
            (prop_oneof![Just("-"), Just("~"), Just("!")], inner)
                .prop_map(|(op, e)| E::Un(op, Box::new(e))),
        ]
    })
}

fn run_all_levels(src: &str, args: &[u32]) -> Vec<u32> {
    let p = frontend(src).unwrap_or_else(|e| panic!("{e}\n{src}"));
    let mut outs = Vec::new();
    let interp = Interp::new(&p);
    let got = interp.call("f", args);
    assert_eq!(got, oracle::OracleInterp::new(&p).call("f", args), "oracle on {src}");
    outs.push(got.unwrap_or_else(|e| panic!("{e}\n{src}")));
    let ir = lower(&p).unwrap();
    let ev = IrEval::new(&ir);
    outs.push(ev.call("f", args).unwrap());
    for opt in [OptLevel::O0, OptLevel::O1, OptLevel::O2] {
        let asm = compile(&p, opt).unwrap();
        let prog = assemble(&asm).unwrap_or_else(|e| panic!("{e}\n{asm}"));
        let mut m = Machine::with_program(&prog);
        let entry = prog.address_of("f").unwrap();
        outs.push(m.call(entry, args, 10_000_000).unwrap());
    }
    outs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn expressions_agree_across_all_levels(e in arb_expr(), a: u32, b: u32, c: u32) {
        let src = format!("u32 f(u32 a, u32 b, u32 c) {{ return {}; }}", e.render());
        let outs = run_all_levels(&src, &[a, b, c]);
        let first = outs[0];
        for (i, &o) in outs.iter().enumerate() {
            prop_assert_eq!(o, first, "level {} diverged on {}", i, src);
        }
    }

    #[test]
    fn conditionals_agree_across_all_levels(
        e1 in arb_expr(),
        e2 in arb_expr(),
        a: u32,
        b: u32,
        c: u32,
        n in 0u32..20,
    ) {
        // A loop whose body mixes two random expressions and a
        // conditional — exercises the CFG paths of the backend.
        let src = format!(
            "u32 f(u32 a, u32 b, u32 c) {{
                u32 acc = 0;
                for (u32 i = 0; i < {n}; i = i + 1) {{
                    u32 x = {};
                    if (x & 1) {{ acc = acc + x; }} else {{ acc = acc ^ ({}); }}
                    a = a + 1;
                }}
                return acc;
            }}",
            e1.render(),
            e2.render()
        );
        let outs = run_all_levels(&src, &[a, b, c]);
        let first = outs[0];
        for (i, &o) in outs.iter().enumerate() {
            prop_assert_eq!(o, first, "level {} diverged on {}", i, src);
        }
    }

    #[test]
    fn byte_buffers_agree_across_levels(data: [u8; 16], e in arb_expr()) {
        // handle-shaped program mixing byte and word accesses.
        let src = format!(
            "void handle(u8* state, u8* cmd, u8* resp) {{
                u32 a = cmd[0];
                u32 b = cmd[1];
                u32 c = cmd[2];
                u32 v = {};
                resp[0] = (u8)v;
                resp[1] = (u8)(v >> 8);
                resp[2] = (u8)(v >> 16);
                resp[3] = (u8)(v >> 24);
                state[0] = (u8)(state[0] + 1);
            }}",
            e.render()
        );
        let p = frontend(&src).unwrap();
        let interp = Interp::new(&p);
        let st = vec![data[15]; 4];
        let got = interp.step(&st, &data[..8], 4);
        prop_assert_eq!(&got, &oracle::OracleInterp::new(&p).step(&st, &data[..8], 4));
        let (s1, r1) = got.unwrap();
        let ir = lower(&p).unwrap();
        let ev = IrEval::new(&ir);
        let (s2, r2) = ev.step(&st, &data[..8], 4).unwrap();
        prop_assert_eq!((&s1, &r1), (&s2, &r2));
        for opt in [OptLevel::O0, OptLevel::O2] {
            let asm = parfait_littlec::validate::asm_machine(&p, opt, 4, 8, 4).unwrap();
            let (s3, r3) = asm.step(&st, &data[..8]).unwrap();
            prop_assert_eq!((&s1, &r1), (&s3, &r3), "asm {} diverged", opt);
        }
    }
}
