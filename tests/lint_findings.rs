//! The full text of every constant-time finding, pinned byte for byte.
//!
//! `tests/lint_corpus.rs` checks which rule fires at which layer; this
//! file checks *everything* a finding says — rule, layer, function,
//! line, message and the taint path from seed to sink — against the
//! committed fixture `tests/fixtures/lint_findings.txt`. It covers the
//! seeded-violation corpus (plain sources and asm-level patches) at
//! `-O0`/`-O1`/`-O2`, and every mutant and clean control of the
//! adversary catalog at `-O0`/`-O2`, each linted through its own
//! `patch_asm` exactly as the `ctcheck` stage lints it. Any change to
//! the analyzer's abstract domain that moves a verdict or a taint
//! path shows up here as a line diff.

use parfait_adversary::{catalog, controls};
use parfait_analyzer::lint_source_with;
use parfait_littlec::codegen::OptLevel;
use parfait_telemetry::Telemetry;

const FIXTURE: &str = include_str!("fixtures/lint_findings.txt");

/// Seeded-violation and clean-control sources, linted as written.
const SOURCES: &[(&str, &str)] = &[
    (
        "secret-branch",
        "void handle(u8* state, u8* cmd, u8* resp) {
            if (state[0]) { resp[0] = 1; } else { resp[0] = 2; }
        }",
    ),
    (
        "secret-table-lookup",
        "const u8 SBOX[16] = {9, 4, 10, 11, 13, 1, 8, 5, 6, 2, 0, 3, 12, 14, 15, 7};
        void handle(u8* state, u8* cmd, u8* resp) {
            resp[0] = SBOX[state[0] & 15];
        }",
    ),
    (
        "early-exit-compare",
        "void handle(u8* state, u8* cmd, u8* resp) {
            u32 i = 0;
            u32 ok = 1;
            while (i < 16) {
                if (state[i] != cmd[i]) { ok = 0; break; }
                i = i + 1;
            }
            resp[0] = (u8)ok;
        }",
    ),
    (
        "secret-loop-bound",
        "void handle(u8* state, u8* cmd, u8* resp) {
            u32 n = state[0] & 31;
            u32 acc = 0;
            u32 i = 0;
            while (i < n) { acc = acc + cmd[i]; i = i + 1; }
            resp[0] = (u8)acc;
        }",
    ),
    (
        "division-by-secret",
        "void handle(u8* state, u8* cmd, u8* resp) {
            u32 d = state[0] | 1;
            resp[0] = (u8)(cmd[0] / d);
        }",
    ),
    (
        "remainder-by-secret",
        "void handle(u8* state, u8* cmd, u8* resp) {
            u32 m = state[0] | 1;
            resp[0] = (u8)(cmd[0] % m);
        }",
    ),
    (
        "secret-store-index",
        "static u8 scratch[16];
        void handle(u8* state, u8* cmd, u8* resp) {
            scratch[state[0] & 15] = cmd[0];
            resp[0] = scratch[0];
        }",
    ),
    ("masked-select", CLEAN_SRC),
    (
        "masked-select-both-arms",
        "void handle(u8* state, u8* cmd, u8* resp) {
            u32 s = state[0];
            u32 c = cmd[0];
            u32 m = 0 - (c & 1);
            resp[0] = (u8)((s & m) | (c & ~m));
        }",
    ),
    (
        "secret-index-into-global",
        "const u8 T[4] = {7, 7, 7, 7};
        void handle(u8* state, u8* cmd, u8* resp) {
            resp[0] = T[state[0] & 3];
        }",
    ),
    (
        "public-index-into-global",
        "const u8 T[4] = {7, 7, 7, 7};
        void handle(u8* state, u8* cmd, u8* resp) {
            u32 i = 0;
            u32 acc = state[0];
            while (i < 4) { acc = acc + T[i]; i = i + 1; }
            resp[0] = (u8)acc;
        }",
    ),
    (
        "division-through-spills",
        "void handle(u8* state, u8* cmd, u8* resp) {
            u32 s = state[0];
            resp[0] = (u8)(100 / (s + 1));
        }",
    ),
    (
        "call-and-stack-roundtrip",
        "u32 pick(u8* p) { return p[0]; }
        void handle(u8* state, u8* cmd, u8* resp) {
            u32 buf[2];
            buf[0] = pick(state);
            buf[1] = pick(cmd);
            if (buf[0]) { resp[0] = 1; }
        }",
    ),
    (
        "call-and-frame-slot",
        "u32 pick(u8* p) { return p[0]; }
        void handle(u8* state, u8* cmd, u8* resp) {
            u32 buf[2];
            buf[0] = pick(state);
            if (buf[1] + buf[0]) { resp[0] = 1; }
        }",
    ),
    (
        "global-taint-across-passes",
        "static u8 G[4];
        u32 use_it(u8* cmd) { return G[0] + cmd[0]; }
        void spill(u8* state) { G[0] = state[0]; }
        void handle(u8* state, u8* cmd, u8* resp) {
            u32 a = use_it(cmd);
            spill(state);
            u32 b = use_it(cmd);
            if (b) { resp[0] = (u8)a; }
        }",
    ),
    (
        "public-exponent-scan",
        "const u8 E[4] = {1, 0, 1, 1};
        void handle(u8* state, u8* cmd, u8* resp) {
            u32 acc = 1;
            u32 s = state[0];
            u32 i = 0;
            while (i < 4) {
                if (E[i]) { acc = acc * (s | 1); }
                i = i + 1;
            }
            resp[0] = (u8)acc;
        }",
    ),
    (
        "secret-store-through-static",
        "static u8 scratch[4];
        void handle(u8* state, u8* cmd, u8* resp) {
            scratch[0] = state[0];
            if (scratch[1]) { resp[0] = 1; }
        }",
    ),
];

/// The clean substrate of the asm-patch cases.
const CLEAN_SRC: &str = "void handle(u8* state, u8* cmd, u8* resp) {
    u32 s = state[0];
    u32 m = 0 - (cmd[0] & 1);
    resp[0] = (u8)(s & m);
}";

/// A handler that leaves no register live across its body.
const ABI_SRC: &str = "void handle(u8* state, u8* cmd, u8* resp) {
    resp[0] = (u8)(state[0] & cmd[0] & 0);
}";

/// Leaks introduced below the IR: (name, substrate, lines inserted
/// right after the `handle:` label).
const PATCHES: &[(&str, &str, &str)] = &[
    ("asm-secret-branch", CLEAN_SRC, "    lbu t0, 0(a0)\n    bne t0, x0, .Lct_patch\n.Lct_patch:"),
    ("asm-secret-indexed-load", CLEAN_SRC, "    lbu t0, 0(a0)\n    add t0, a1, t0\n    lbu t1, 0(t0)"),
    ("asm-secret-shift-amount", CLEAN_SRC, "    lbu t0, 0(a0)\n    li t1, 1\n    sll t1, t1, t0"),
    ("asm-shift-by-immediate", CLEAN_SRC, "    lbu t0, 0(a0)\n    slli t0, t0, 3\n    sll t0, t0, x0"),
    ("asm-callee-saved-clobber", CLEAN_SRC, "    li s3, 42"),
    (
        "asm-saved-and-restored",
        ABI_SRC,
        "    addi sp, sp, -4\n    sw s3, 0(sp)\n    li s3, 42\n    lw s3, 0(sp)\n    addi sp, sp, 4",
    ),
    ("asm-clobbered-ra", ABI_SRC, "    li ra, 0"),
];

/// One lint run rendered as a header line plus one JSON line per
/// finding (or the error, or `clean`).
fn render(
    out: &mut String,
    case: &str,
    opt: OptLevel,
    src: &str,
    patch: impl FnOnce(String) -> String,
) {
    out.push_str(&format!("== {case} {opt}\n"));
    match lint_source_with(src, opt, &Telemetry::disabled(), patch) {
        Err(e) => out.push_str(&format!("error: {e}\n")),
        Ok(report) if report.findings.is_empty() => out.push_str("clean\n"),
        Ok(report) => {
            for f in &report.findings {
                out.push_str(&format!("{}\n", f.to_json()));
            }
        }
    }
}

fn render_all() -> String {
    let mut out = String::new();
    for opt in [OptLevel::O0, OptLevel::O1, OptLevel::O2] {
        for (case, src) in SOURCES {
            render(&mut out, case, opt, src, |a| a);
        }
        for (case, src, patch) in PATCHES {
            render(&mut out, case, opt, src, |a| {
                a.replacen("handle:\n", &format!("handle:\n{patch}\n"), 1)
            });
        }
    }
    for opt in [OptLevel::O0, OptLevel::O2] {
        for m in catalog().into_iter().chain(controls()) {
            let app = (m.build)();
            let patch = app.tamper.as_ref().and_then(|t| t.patch_asm.clone());
            render(&mut out, m.class, opt, &app.source, |a| match patch {
                Some(p) => p(a),
                None => a,
            });
        }
    }
    out
}

#[test]
fn findings_match_the_fixture_byte_for_byte() {
    let got = render_all();
    if got == FIXTURE {
        return;
    }
    let first = got
        .lines()
        .zip(FIXTURE.lines())
        .position(|(g, f)| g != f)
        .unwrap_or_else(|| got.lines().count().min(FIXTURE.lines().count()));
    panic!(
        "findings diverge from tests/fixtures/lint_findings.txt at line {}:\n  fixture: {:?}\n  got:     {:?}",
        first + 1,
        FIXTURE.lines().nth(first),
        got.lines().nth(first),
    );
}
