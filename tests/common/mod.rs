//! Shared test fixture: the tiny "token counter" HSM used by the attack
//! catalog and the decode-cache differential tests. Each SoC run takes
//! only thousands of cycles, so whole FPS checks stay fast.
//!
//! The token HSM: state = [secret(4 LE), counter(4 LE)]; commands are
//! [tag, arg(4 LE)]:
//!   tag 1: set secret := arg           → resp [1, 0...]
//!   tag 2: counter += arg              → resp [2, counter]
//!   tag 3: prove knowledge: resp [3, (secret*2654435761 + counter) ^ arg]
//!   else:  resp [0xff, 0...]
#![allow(dead_code)]

use std::sync::OnceLock;

use parfait::lockstep::Codec;
use parfait::machine::FnMachine;
use parfait_hsms::firmware::hasher_app_source;
use parfait_hsms::platform::{build_firmware, build_firmware_parts, make_soc, AppSizes, Cpu};
use parfait_hsms::syssw;
use parfait_knox2::{
    check_fps_traced, CircuitEmulator, FpsConfig, FpsFailure, FpsObserver, FpsReport, HostOp,
};
use parfait_littlec::codegen::OptLevel;
use parfait_littlec::validate::asm_machine;
use parfait_riscv::model::AsmStateMachine;
use parfait_soc::{Firmware, Soc};

pub const STATE: usize = 8;
pub const CMD: usize = 5;
pub const RESP: usize = 5;

pub const TOKEN_LC: &str = "
    u32 ld32(u8* p) {
        return p[0] | (p[1] << 8) | (p[2] << 16) | (p[3] << 24);
    }
    void st32(u8* p, u32 v) {
        p[0] = (u8)v;
        p[1] = (u8)(v >> 8);
        p[2] = (u8)(v >> 16);
        p[3] = (u8)(v >> 24);
    }
    void handle(u8* state, u8* cmd, u8* resp) {
        for (u32 i = 0; i < 5; i = i + 1) { resp[i] = 0; }
        u32 arg = ld32(cmd + 1);
        u32 tag = cmd[0];
        if (tag == 1) {
            st32(state, arg);
            resp[0] = 1;
            return;
        }
        if (tag == 2) {
            u32 c = ld32(state + 4) + arg;
            st32(state + 4, c);
            resp[0] = 2;
            st32(resp + 1, c);
            return;
        }
        if (tag == 3) {
            u32 secret = ld32(state);
            u32 c = ld32(state + 4);
            resp[0] = 3;
            st32(resp + 1, (secret * 2654435761 + c) ^ arg);
            return;
        }
        resp[0] = 0xff;
    }
";

/// The token spec as a state machine over (secret, counter).
pub fn token_spec() -> FnMachine<(u32, u32), Vec<u8>, Vec<u8>> {
    FnMachine {
        init: (0, 0),
        step: |s, c| {
            let mut resp = vec![0u8; RESP];
            if c.len() != CMD {
                resp[0] = 0xFF;
                return (*s, resp);
            }
            let arg = u32::from_le_bytes([c[1], c[2], c[3], c[4]]);
            match c[0] {
                1 => {
                    resp[0] = 1;
                    ((arg, s.1), resp)
                }
                2 => {
                    let c2 = s.1.wrapping_add(arg);
                    resp[0] = 2;
                    resp[1..5].copy_from_slice(&c2.to_le_bytes());
                    ((s.0, c2), resp)
                }
                3 => {
                    resp[0] = 3;
                    let v = s.0.wrapping_mul(2654435761).wrapping_add(s.1) ^ arg;
                    resp[1..5].copy_from_slice(&v.to_le_bytes());
                    (*s, resp)
                }
                _ => {
                    resp[0] = 0xFF;
                    (*s, resp)
                }
            }
        },
    }
}

pub struct TokenCodec;

impl Codec for TokenCodec {
    type Spec = FnMachine<(u32, u32), Vec<u8>, Vec<u8>>;
    type CI = Vec<u8>;
    type RI = Vec<u8>;
    type SI = Vec<u8>;

    fn encode_command(&self, c: &Vec<u8>) -> Vec<u8> {
        c.clone()
    }
    fn decode_command(&self, c: &Vec<u8>) -> Option<Vec<u8>> {
        (c.len() == CMD && matches!(c[0], 1..=3)).then(|| c.clone())
    }
    fn encode_response(&self, r: Option<&Vec<u8>>) -> Vec<u8> {
        match r {
            Some(v) => v.clone(),
            None => {
                let mut e = vec![0u8; RESP];
                e[0] = 0xFF;
                e
            }
        }
    }
    fn decode_response(&self, r: &Vec<u8>) -> Vec<u8> {
        r.clone()
    }
    fn encode_state(&self, s: &(u32, u32)) -> Vec<u8> {
        let mut out = Vec::with_capacity(8);
        out.extend_from_slice(&s.0.to_le_bytes());
        out.extend_from_slice(&s.1.to_le_bytes());
        out
    }
}

/// A token-HSM [`parfait_pipeline::AppPipeline`]: the whole staged
/// proof pipeline over the tiny fixture, so pipeline- and serve-level
/// tests run in seconds. `slug` names the cache entries; `source` is
/// the littlec implementation (default [`TOKEN_LC`]; any
/// behavior-preserving variant pairs with the same spec).
pub fn token_app_pipeline(slug: &str, source: String) -> parfait_pipeline::AppPipeline {
    parfait_pipeline::app_from_codec(
        "token HSM",
        slug,
        source,
        AppSizes { state: STATE, command: CMD, response: RESP },
        TokenCodec,
        token_spec(),
        (0xDEAD_BEEF, 7),
        cmd(3, 5),
        vec![(0, 0), (0xDEAD_BEEF, 7)],
        vec![cmd(1, 5), cmd(2, 10), cmd(3, 5)],
        vec![vec![1, 0, 0, 0, 0]],
        parfait_starling::StarlingConfig {
            state_size: STATE,
            command_size: CMD,
            response_size: RESP,
            adversarial_inputs: 4,
            ..parfait_starling::StarlingConfig::default()
        },
    )
}

/// The production password-hasher firmware at `-O2`, compiled and
/// linked exactly once per test binary. The suites need a clean image
/// per scenario (cloning one is microseconds); rebuilding it inside
/// every `#[test]` made firmware compilation a visible fraction of
/// suite wall time (EXPERIMENTS.md "test-fixture caching").
pub fn hasher_fw() -> Firmware {
    static FW: OnceLock<Firmware> = OnceLock::new();
    FW.get_or_init(|| {
        let sizes = AppSizes {
            state: parfait_hsms::hasher::STATE_SIZE,
            command: parfait_hsms::hasher::COMMAND_SIZE,
            response: parfait_hsms::hasher::RESPONSE_SIZE,
        };
        build_firmware(&hasher_app_source(), sizes, OptLevel::O2).unwrap()
    })
    .clone()
}

/// The hasher with the §7.2 timing bug: `handle` hashes extra work when
/// the secret's first byte is nonzero, so the dummy state takes a
/// shorter path than the real one.
pub fn secret_branch_hasher_source() -> String {
    let buggy = hasher_app_source().replace(
        "u8 digest[32];",
        "if (state[0] != 0) { u8 waste[32]; blake2s_hash(waste, state, 32); }\n        u8 digest[32];",
    );
    assert_ne!(buggy, hasher_app_source(), "injection must apply");
    buggy
}

/// The hasher with a state-corrupting `handle`: every Hash command bumps
/// the secret's first byte.
pub fn state_corrupting_hasher_source() -> String {
    let buggy =
        hasher_app_source().replace("resp[0] = 2;", "state[0] = (u8)(state[0] + 1); resp[0] = 2;");
    assert_ne!(buggy, hasher_app_source(), "injection must apply");
    buggy
}

/// The hasher's assembly-level spec machine (`asm_machine` over the
/// clean app source at `-O2`), built once per test binary.
pub fn hasher_asm_spec() -> AsmStateMachine {
    static SPEC: OnceLock<AsmStateMachine> = OnceLock::new();
    SPEC.get_or_init(|| {
        let program = parfait_littlec::frontend(&hasher_app_source()).unwrap();
        asm_machine(
            &program,
            OptLevel::O2,
            parfait_hsms::hasher::STATE_SIZE,
            parfait_hsms::hasher::COMMAND_SIZE,
            parfait_hsms::hasher::RESPONSE_SIZE,
        )
        .unwrap()
    })
    .clone()
}

/// The clean token-HSM FPS scenario, built once per test binary and
/// shared by reference (`TokenFps::run` already starts each run from
/// fresh worlds, so sharing the built image is sound).
pub fn token_fps() -> &'static TokenFps {
    static FPS: OnceLock<TokenFps> = OnceLock::new();
    FPS.get_or_init(|| TokenFps::build(TOKEN_LC, None, None, |a| a))
}

pub fn cfg() -> FpsConfig {
    FpsConfig { command_size: CMD, response_size: RESP, timeout: 5_000_000, state_size: STATE }
}

pub fn project(soc: &Soc) -> Vec<u8> {
    syssw::active_state(&soc.fram_bytes(0, 64), STATE)
}

pub fn cmd(tag: u8, arg: u32) -> Vec<u8> {
    let mut c = vec![tag];
    c.extend_from_slice(&arg.to_le_bytes());
    c
}

pub fn standard_script() -> Vec<HostOp> {
    vec![
        HostOp::Command(cmd(3, 5)),    // prove (touches the secret)
        HostOp::Command(cmd(2, 10)),   // bump counter
        HostOp::Command(cmd(0xEE, 0)), // invalid
        HostOp::Command(cmd(3, 0)),
    ]
}

/// A built token-HSM FPS scenario: firmware plus assembly-level spec,
/// reusable across runs, each of which starts from bit-identical fresh
/// worlds.
pub struct TokenFps {
    pub fw: Firmware,
    pub spec: AsmStateMachine,
    pub secret_state: Vec<u8>,
    pub dummy_state: Vec<u8>,
}

/// The outcome of one FPS run plus the final world states, for
/// asserting that two runs had identical side effects.
pub struct RunOutcome {
    pub result: Result<FpsReport, FpsFailure>,
    /// The refinement projection of the real SoC after the run.
    pub final_state: Vec<u8>,
    /// The ideal-world spec state after the run.
    pub spec_state: Vec<u8>,
    /// Every spec response the emulator produced.
    pub spec_responses: Vec<Vec<u8>>,
}

impl TokenFps {
    /// Build firmware from `app_source` (with optional system-software
    /// override and assembly patch), specified against the *assembly* of
    /// `spec_source` (defaults to the clean token app).
    pub fn build(
        app_source: &str,
        syssw_src: Option<&str>,
        spec_source: Option<&str>,
        patch: impl FnOnce(String) -> String,
    ) -> TokenFps {
        let default_syssw = syssw::syssw_source(STATE, CMD, RESP);
        let fw = build_firmware_parts(
            app_source,
            syssw_src.unwrap_or(&default_syssw),
            OptLevel::O2,
            patch,
        )
        .unwrap();
        let spec_prog = parfait_littlec::frontend(spec_source.unwrap_or(TOKEN_LC)).unwrap();
        let spec = asm_machine(&spec_prog, OptLevel::O2, STATE, CMD, RESP).unwrap();
        TokenFps {
            fw,
            spec,
            secret_state: TokenCodec.encode_state(&(0xDEAD_BEEF, 7)),
            dummy_state: TokenCodec.encode_state(&(0, 0)),
        }
    }

    fn worlds(&self) -> (Soc, CircuitEmulator<'_>) {
        self.worlds_on(Cpu::Ibex)
    }

    /// Fresh worlds on `cpu`: the real SoC and the emulator around the
    /// dummy-state SoC.
    pub fn worlds_on(&self, cpu: Cpu) -> (Soc, CircuitEmulator<'_>) {
        let real = make_soc(cpu, self.fw.clone(), &self.secret_state);
        let dummy_soc = make_soc(cpu, self.fw.clone(), &self.dummy_state);
        let emu = CircuitEmulator::new(dummy_soc, &self.spec, self.secret_state.clone(), CMD);
        (real, emu)
    }

    /// One FPS run from fresh worlds.
    pub fn run(&self, script: &[HostOp]) -> RunOutcome {
        let (mut real, mut emu) = self.worlds();
        let obs = FpsObserver::default();
        let result = check_fps_traced(&mut real, &mut emu, &cfg(), &project, script, &obs);
        RunOutcome {
            result,
            final_state: project(&real),
            spec_state: emu.spec_state.clone(),
            spec_responses: emu.spec_responses.clone(),
        }
    }
}
